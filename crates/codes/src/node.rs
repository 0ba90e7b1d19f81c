//! The node logical process: NIC + (optionally) a Union rank process.
//!
//! The NIC is self-clocking: it serializes one packet at a time at
//! terminal-link bandwidth, waking itself with `NicPulse` events. This
//! keeps the event population proportional to active nodes rather than to
//! outstanding packets, which matters when a rank pushes a 20 MiB
//! allreduce round into the network.

use crate::event::Event;
use crate::shared::Shared;
use dragonfly::Packet;
use mpi_sim::{Action, MpiMsg, MpiRank, MsgKind};
use ross::{Ctx, SimDuration, SimTime};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Hasher of the packet-reassembly map: one multiply-rotate round per
/// written word. The map is never iterated, so its hash function cannot
/// reach results, and SipHash's flood resistance buys nothing against
/// keys the model itself generates. SipHash, run on every delivered
/// packet, cost about 2.5% of a Workload3 run.
#[derive(Default)]
struct MixHasher(u64);

impl MixHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for MixHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    /// The multiply leaves its best-mixed bits on top; rotate some of them
    /// into the low bits that pick the bucket.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Encode/decode the message kind into the packet's opaque byte.
fn kind_code(k: MsgKind) -> u8 {
    match k {
        MsgKind::Eager => 0,
        MsgKind::Rts => 1,
        MsgKind::Cts => 2,
        MsgKind::Data => 3,
        MsgKind::Synthetic => 4,
    }
}

fn code_kind(c: u8) -> MsgKind {
    match c {
        0 => MsgKind::Eager,
        1 => MsgKind::Rts,
        2 => MsgKind::Cts,
        3 => MsgKind::Data,
        4 => MsgKind::Synthetic,
        other => panic!("bad message kind code {other}"),
    }
}

/// A rank process bound to this node.
#[derive(Clone)]
pub struct Proc {
    /// Application (job) id.
    pub app: u32,
    pub mpi: MpiRank,
}

/// One message queued at the NIC.
#[derive(Clone, Debug)]
struct NicMsg {
    template: Packet,
    wire: u64,
    emitted: u64,
    mpi_seq: u64,
}

/// Self-clocking NIC.
#[derive(Clone, Debug, Default)]
struct Nic {
    queue: VecDeque<NicMsg>,
    sending: Option<NicMsg>,
    /// A pulse event is in flight.
    pulsing: bool,
    pub injected_bytes: u64,
    pub injected_packets: u64,
}

/// The node LP.
#[derive(Clone)]
pub struct NodeLp {
    pub node: u32,
    shared: Arc<Shared>,
    nic: Nic,
    pub proc: Option<Proc>,
    /// Partial message reassembly: (src_node, msg_id) → bytes received.
    assembly: HashMap<(u32, u64), u64, BuildHasherDefault<MixHasher>>,
    /// Packets fully received at this node (telemetry).
    pub delivered_packets: u64,
}

impl NodeLp {
    pub fn new(node: u32, shared: Arc<Shared>, proc: Option<Proc>) -> NodeLp {
        NodeLp {
            node,
            shared,
            nic: Nic::default(),
            proc,
            assembly: HashMap::default(),
            delivered_packets: 0,
        }
    }

    /// Bytes this node's NIC pushed into the network.
    pub fn injected_bytes(&self) -> u64 {
        self.nic.injected_bytes
    }

    /// Packets this node's NIC pushed into the network.
    pub fn injected_packets(&self) -> u64 {
        self.nic.injected_packets
    }

    /// Causal-trace kind tag: 0 = network plumbing, then one comm/compute
    /// pair per application (`1 + 2*app` = comm, `2 + 2*app` = compute).
    /// Must match `codes::trace_kind_names`.
    pub fn trace_kind(&self, ev: &Event) -> u16 {
        let Some(p) = &self.proc else { return 0 };
        let app = p.app as u16;
        match ev {
            Event::ComputeDone => 2 + 2 * app,
            Event::Start | Event::NodePkt(_) | Event::LocalMsg(_) => 1 + 2 * app,
            Event::NicPulse | Event::RouterPkt(_) | Event::Credit { .. } => 0,
        }
    }

    pub fn handle_event(&mut self, now: SimTime, ev: &Event, ctx: &mut Ctx<'_, Event>) {
        match ev {
            Event::Start => {
                let mut actions = Vec::new();
                if let Some(p) = &mut self.proc {
                    p.mpi.start(now.as_ns(), &mut actions);
                }
                self.apply(now, ctx, actions);
            }
            Event::ComputeDone => {
                let mut actions = Vec::new();
                if let Some(p) = &mut self.proc {
                    p.mpi.on_compute_done(now.as_ns(), &mut actions);
                }
                self.apply(now, ctx, actions);
            }
            Event::NicPulse => self.pulse(now, ctx),
            Event::NodePkt(pkt) => self.receive_packet(now, ctx, pkt),
            Event::RouterPkt(_) | Event::Credit { .. } => {
                unreachable!("router event at node LP")
            }
            Event::LocalMsg(pkt) => self.receive_packet(now, ctx, pkt),
        }
    }

    /// Process the actions a rank produced.
    fn apply(&mut self, now: SimTime, ctx: &mut Ctx<'_, Event>, actions: Vec<Action>) {
        for a in actions {
            match a {
                Action::Compute { ns } => {
                    ctx.send_self(SimDuration::from_ns(ns.max(1)), Event::ComputeDone);
                }
                Action::Send(msg) => self.enqueue_send(now, ctx, msg),
            }
        }
    }

    fn enqueue_send(&mut self, now: SimTime, ctx: &mut Ctx<'_, Event>, msg: MpiMsg) {
        let p = self.proc.as_ref().expect("send from node without a rank");
        let dst_node = self.shared.layout.node_of(p.app, msg.dst);
        debug_assert_ne!(dst_node, self.node, "self-sends are local to MpiRank");
        let wire = msg.wire.max(1);
        let template = Packet {
            app: p.app as u8,
            kind: kind_code(msg.kind),
            tag: msg.tag,
            aux: msg.payload,
            src_node: self.node,
            dst_node,
            bytes: 0,
            msg_id: msg.seq,
            msg_bytes: wire,
            created: SimTime::from_ns(msg.created_ns),
            intermediate: None,
            gateway: None,
            routed: false,
            hops: 0,
            up_router: u32::MAX,
            up_port: 0,
            vc: 0,
        };
        self.nic.queue.push_back(NicMsg { template, wire, emitted: 0, mpi_seq: msg.seq });
        if !self.nic.pulsing {
            // NIC idle: start emitting now.
            self.emit_next(now, ctx);
        }
    }

    /// Emit one packet of the current (or next queued) message; schedules
    /// the next pulse at the packet's serialization finish.
    fn emit_next(&mut self, now: SimTime, ctx: &mut Ctx<'_, Event>) {
        if self.nic.sending.is_none() {
            self.nic.sending = self.nic.queue.pop_front();
        }
        let cfg = &self.shared.topo.cfg;
        let Some(cur) = &mut self.nic.sending else {
            self.nic.pulsing = false;
            return;
        };
        let chunk = (cur.wire - cur.emitted).min(cfg.packet_bytes as u64) as u32;
        debug_assert!(chunk > 0, "emitting an already-finished message");
        let mut pkt = cur.template;
        pkt.bytes = chunk;
        cur.emitted += chunk as u64;
        self.nic.injected_bytes += chunk as u64;
        self.nic.injected_packets += 1;
        let ser = SimDuration::transfer_time(chunk as u64, cfg.terminal_gib_s);
        let router = self.shared.topo.node_router(self.node);
        ctx.send(
            self.shared.lpmap.router_lp(router),
            ser + SimDuration::from_ns(cfg.terminal_latency_ns)
                + SimDuration::from_ns(cfg.router_delay_ns),
            Event::RouterPkt(pkt),
        );
        // Wake up when this packet has left the NIC.
        ctx.send_self(ser, Event::NicPulse);
        self.nic.pulsing = true;
        let _ = now;
    }

    fn pulse(&mut self, now: SimTime, ctx: &mut Ctx<'_, Event>) {
        self.nic.pulsing = false;
        // Did the in-flight message just finish serializing?
        if let Some(cur) = &self.nic.sending {
            if cur.emitted >= cur.wire {
                let seq = cur.mpi_seq;
                self.nic.sending = None;
                let mut actions = Vec::new();
                if let Some(p) = &mut self.proc {
                    p.mpi.on_injected(now.as_ns(), seq, &mut actions);
                }
                self.apply(now, ctx, actions);
            }
        }
        // `apply` may already have restarted the NIC (a resumed rank
        // queueing a new send); only emit if it did not.
        if !self.nic.pulsing && (self.nic.sending.is_some() || !self.nic.queue.is_empty()) {
            self.emit_next(now, ctx);
        }
    }

    fn receive_packet(&mut self, now: SimTime, ctx: &mut Ctx<'_, Event>, pkt: &Packet) {
        self.delivered_packets += 1;
        let key = (pkt.src_node, pkt.msg_id);
        let acc = self.assembly.entry(key).or_insert(0);
        *acc += pkt.bytes as u64;
        if *acc < pkt.msg_bytes {
            return;
        }
        self.assembly.remove(&key);
        // Whole message arrived: hand it to the rank process.
        let Some((src_app, src_rank)) = self.shared.owner(pkt.src_node) else {
            panic!("message from unowned node {}", pkt.src_node)
        };
        let p = self.proc.as_mut().expect("message delivered to empty node");
        debug_assert_eq!(src_app, p.app, "cross-application message");
        let kind = code_kind(pkt.kind);
        let msg = MpiMsg {
            src: src_rank,
            dst: p.mpi.rank(),
            tag: pkt.tag,
            seq: pkt.msg_id,
            kind,
            payload: pkt.aux,
            wire: pkt.msg_bytes,
            created_ns: pkt.created.as_ns(),
        };
        let mut actions = Vec::new();
        p.mpi.on_delivery(now.as_ns(), &msg, &mut actions);
        self.apply(now, ctx, actions);
    }
}
