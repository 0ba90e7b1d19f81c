//! The traced run's wall-time ledger: handler time by event kind (from the
//! `ross::Tracer` records) plus the scheduler's own busy/blocked/idle
//! split (from the `scheduler` telemetry record).

use crate::run::ThreadTimes;

/// Handler time of every traced event, by kind, seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HandlerTimes {
    /// `net`: router and NIC events.
    pub net_s: f64,
    /// Every `<app> comm` kind: node receive plus mpi-sim matching.
    pub comm_s: f64,
    /// Every `<app> compute` kind.
    pub compute_s: f64,
    /// Event records read.
    pub events: u64,
}

impl HandlerTimes {
    pub fn total_s(&self) -> f64 {
        self.net_s + self.comm_s + self.compute_s
    }
}

/// Sum handler durations by kind from a Chrome trace export. Event
/// records sit on even pids (virtual-time LP tracks); odd pids hold
/// scheduler-phase spans, which are not handler time.
pub fn handler_times(chrome: &str) -> Result<HandlerTimes, String> {
    const REC: &str = "{\"ph\":\"X\",\"pid\":";
    let mut out = HandlerTimes::default();
    let mut rest = chrome;
    while let Some(at) = rest.find(REC) {
        rest = &rest[at + REC.len()..];
        let pid_end = rest.find(',').ok_or("truncated trace record")?;
        let pid: u64 = rest[..pid_end].parse().map_err(|_| "bad trace pid")?;
        if pid % 2 == 1 {
            continue;
        }
        let name = between(rest, "\"name\":\"", "\"")?;
        let dur = between(rest, "\"dur\":", ",")?;
        let secs = micros_to_s(dur)?;
        if name == "net" {
            out.net_s += secs;
        } else if name.ends_with(" comm") {
            out.comm_s += secs;
        } else if name.ends_with(" compute") {
            out.compute_s += secs;
        } else {
            return Err(format!("unknown event kind `{name}` in trace"));
        }
        out.events += 1;
    }
    Ok(out)
}

fn between<'a>(s: &'a str, open: &str, close: &str) -> Result<&'a str, String> {
    let start = s.find(open).ok_or_else(|| format!("trace record without {open}"))? + open.len();
    let len = s[start..].find(close).ok_or("truncated trace record")?;
    Ok(&s[start..start + len])
}

/// `"12.345"` microseconds (the export's ns-exact format) → seconds.
fn micros_to_s(s: &str) -> Result<f64, String> {
    let (whole, frac) = s.split_once('.').unwrap_or((s, "0"));
    let us: u64 = whole.parse().map_err(|_| format!("bad duration `{s}`"))?;
    let ns: u64 = format!("{frac:0<3}")[..3].parse().map_err(|_| format!("bad duration `{s}`"))?;
    Ok((us * 1000 + ns) as f64 * 1e-9)
}

/// Scheduler wall split into parts, thread-seconds: over a run on `T`
/// threads the parts sum to `T × wall`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Ledger {
    pub total_s: f64,
    pub handler: HandlerTimes,
    /// Busy time outside handlers: queue, pool and dispatch.
    pub engine_s: f64,
    pub busy_s: f64,
    pub blocked_s: f64,
    pub idle_s: f64,
    /// `total_s` minus every part; its size is the ledger's error.
    pub unattributed_s: f64,
}

/// Largest share of the total the parts may miss by.
pub const TOLERANCE: f64 = 0.05;

impl Ledger {
    /// `total_s`: every scheduler thread's wall, summed.
    pub fn new(total_s: f64, threads: &[ThreadTimes], handler: HandlerTimes) -> Ledger {
        let busy_s: f64 = threads.iter().map(|t| t.busy_s).sum();
        let blocked_s: f64 = threads.iter().map(|t| t.blocked_s).sum();
        let idle_s: f64 = threads.iter().map(|t| t.idle_s).sum();
        // Handler time beyond the busy time it is part of is not engine
        // time; it lands in the residual and fails the check.
        let engine_s = (busy_s - handler.total_s()).max(0.0);
        let unattributed_s = total_s - (handler.total_s() + engine_s + blocked_s + idle_s);
        Ledger { total_s, handler, engine_s, busy_s, blocked_s, idle_s, unattributed_s }
    }

    /// The parts account for the total within [`TOLERANCE`].
    pub fn check(&self) -> Result<(), String> {
        if self.total_s > 0.0 && self.unattributed_s.abs() <= TOLERANCE * self.total_s {
            Ok(())
        } else {
            Err(format!(
                "ledger misses scheduler wall by {:.6} of {:.6} thread-seconds",
                self.unattributed_s, self.total_s
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRACE: &str = concat!(
        "{\"traceEvents\":[{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",",
        "\"args\":{\"name\":\"run\"}},",
        "{\"ph\":\"X\",\"pid\":0,\"tid\":3,\"name\":\"net\",\"ts\":1.000,\"dur\":0.250,\"args\":{}},",
        "{\"ph\":\"X\",\"pid\":0,\"tid\":4,\"name\":\"MILC comm\",\"ts\":2.000,\"dur\":1.500,",
        "\"args\":{}},",
        "{\"ph\":\"X\",\"pid\":0,\"tid\":4,\"name\":\"NN compute\",\"ts\":3.000,\"dur\":0.125,",
        "\"args\":{}},",
        "{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"name\":\"barrier\",\"ts\":0.000,\"dur\":9.000,",
        "\"cname\":\"bad\",\"args\":{}}],\"otherData\":{}}"
    );

    #[test]
    fn handler_time_by_kind_skips_scheduler_spans() {
        let h = handler_times(TRACE).unwrap();
        assert_eq!(h.events, 3);
        assert!((h.net_s - 250e-9).abs() < 1e-15);
        assert!((h.comm_s - 1500e-9).abs() < 1e-15);
        assert!((h.compute_s - 125e-9).abs() < 1e-15);
    }

    #[test]
    fn ledger_sums_to_sequential_wall() {
        let h = HandlerTimes { net_s: 0.6, comm_s: 0.2, compute_s: 0.01, events: 10 };
        let one = [ThreadTimes { busy_s: 1.0, blocked_s: 0.0, idle_s: 0.0 }];
        let l = Ledger::new(1.0, &one, h);
        assert!((l.engine_s - 0.19).abs() < 1e-12);
        assert!(l.unattributed_s.abs() < 1e-12);
        assert!(l.check().is_ok());
    }

    #[test]
    fn ledger_counts_thread_seconds_on_parallel_runs() {
        let h = HandlerTimes { net_s: 0.5, comm_s: 0.3, compute_s: 0.0, events: 10 };
        let two = [
            ThreadTimes { busy_s: 0.6, blocked_s: 0.3, idle_s: 0.1 },
            ThreadTimes { busy_s: 0.4, blocked_s: 0.5, idle_s: 0.1 },
        ];
        let l = Ledger::new(2.0, &two, h);
        assert_eq!(l.total_s, 2.0);
        assert!((l.engine_s - 0.2).abs() < 1e-12);
        assert!(l.unattributed_s.abs() < 1e-12);
        assert!(l.check().is_ok());
    }

    #[test]
    fn ledger_rejects_parts_that_miss_the_wall() {
        // Threads account for only 80% of the wall.
        let h = HandlerTimes { net_s: 0.3, comm_s: 0.1, compute_s: 0.0, events: 1 };
        let short = [ThreadTimes { busy_s: 0.8, blocked_s: 0.0, idle_s: 0.0 }];
        let l = Ledger::new(1.0, &short, h);
        assert!((l.unattributed_s - 0.2).abs() < 1e-12);
        assert!(l.check().is_err());
        // Handler time the scheduler never counted as busy.
        let h = HandlerTimes { net_s: 1.2, comm_s: 0.0, compute_s: 0.0, events: 1 };
        let one = [ThreadTimes { busy_s: 1.0, blocked_s: 0.0, idle_s: 0.0 }];
        let l = Ledger::new(1.0, &one, h);
        assert!((l.unattributed_s + 0.2).abs() < 1e-12);
        assert!(l.check().is_err());
    }
}
