//! Isolated layer probes, timed from outside the simulation.

use crate::spec::Spec;
use ross::{Envelope, EventQueue, EventUid, QueueKind, SimTime};
use std::time::Instant;

/// Repeat `f`, which times its own measured part, until `min_s` seconds
/// have passed (at least 3 times); return the median of its times and
/// its last result.
fn median_time<T>(min_s: f64, mut f: impl FnMut() -> (f64, T)) -> (f64, T) {
    let start = Instant::now();
    let mut times = Vec::new();
    loop {
        let (secs, out) = f();
        times.push(secs);
        if times.len() >= 3 && start.elapsed().as_secs_f64() >= min_s {
            times.sort_by(f64::total_cmp);
            return (times[times.len() / 2], out);
        }
    }
}

/// The Union event generator with no network: drain `RankVm::next_op()`
/// on every rank of the workload's apps. Returns (ns per op, ops).
pub fn vm_drain(spec: &Spec, seed: u64, min_s: f64) -> Result<(f64, u64), String> {
    let apps = spec.apps();
    let mut err = None;
    let (secs, ops) = median_time(min_s, || {
        let mut vms = Vec::new();
        for a in &apps {
            match a.vms(seed) {
                Ok(v) => vms.extend(v),
                Err(e) => err = Some(e),
            }
        }
        // Instantiation is `core.instantiate_s`; time only the drain.
        let t = Instant::now();
        let mut ops = 0u64;
        for vm in &mut vms {
            while let Some(op) = vm.next_op() {
                std::hint::black_box(&op);
                ops += 1;
            }
        }
        (t.elapsed().as_secs_f64(), ops)
    });
    if let Some(e) = err {
        return Err(e);
    }
    Ok((secs * 1e9 / ops.max(1) as f64, ops))
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Hold-model replay through the default pending-event queue: keep
/// `len` CODES events queued, and per step pop the least and push one
/// `mean_gap_ns`-ish later. Returns ns per queue operation (push or pop).
pub fn queue_hold(len: u64, mean_gap_ns: u64, seed: u64, min_s: f64) -> f64 {
    let len = len.max(1);
    let steps = 1_000_000u64;
    let env = |t: u64, seq: u64| Envelope {
        recv_time: SimTime::from_ns(t),
        send_time: SimTime::ZERO,
        src: (seq % 4096) as u32,
        dst: (seq % 4093) as u32,
        tiebreak: seq,
        uid: EventUid { src: (seq % 4096) as u32, seq },
        payload: codes::Event::NicPulse,
    };
    let (secs, _) = median_time(min_s, || {
        let mut rng = seed | 1;
        let mut q = QueueKind::default().new_queue::<codes::Event>();
        let gap = |rng: &mut u64| xorshift(rng) % (2 * mean_gap_ns.max(1));
        for seq in 0..len {
            q.push(env(gap(&mut rng), seq));
        }
        let t = Instant::now();
        for seq in len..len + steps {
            let e = q.pop().expect("hold queue never empties");
            q.push(env(e.recv_time.as_ns() + gap(&mut rng), seq));
        }
        (t.elapsed().as_secs_f64(), std::hint::black_box(q.len()))
    });
    secs * 1e9 / (2 * steps) as f64
}
