//! The router model: per-output-port FIFO queueing with congestion-aware
//! (UGAL-style) adaptive routing.
//!
//! CODES models flit-level virtual-channel credit flow control; we model
//! packets against per-port `busy_until` clocks (see DESIGN.md
//! substitution #2). A port's *queue depth* — how far its clock is ahead
//! of now — is the congestion signal used by adaptive routing, standing in
//! for CODES' VC-occupancy signal. Buffers are unbounded.

use crate::packet::Packet;
use crate::topology::{Peer, Port, RouterId, Topology};
use rand::rngs::SmallRng;
use rand::Rng;
use ross::{SimDuration, SimTime};

/// Routing algorithm (paper §IV-C).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Routing {
    /// Always the minimal path.
    Minimal,
    /// UGAL-L: at the injection router, compare the minimal path against a
    /// Valiant detour through a random intermediate group using local
    /// queue depths scaled by hop counts.
    Adaptive,
}

impl Routing {
    pub fn label(self) -> &'static str {
        match self {
            Routing::Minimal => "MIN",
            Routing::Adaptive => "ADP",
        }
    }
}

/// Windowed per-application byte counters (paper Fig 8 instrumentation:
/// "a packet counter for each application in the router module").
#[derive(Clone, Debug, Default)]
pub struct WindowCounters {
    /// Window length; 0 disables collection.
    pub window_ns: u64,
    /// `counts[window][app]` = bytes received.
    pub counts: Vec<Vec<u64>>,
    pub max_apps: usize,
}

impl WindowCounters {
    pub fn new(window_ns: u64, max_apps: usize) -> WindowCounters {
        WindowCounters { window_ns, counts: Vec::new(), max_apps }
    }

    #[inline]
    pub fn record(&mut self, now: SimTime, app: u8, bytes: u64) {
        if self.window_ns == 0 {
            return;
        }
        let w = (now.as_ns() / self.window_ns) as usize;
        if self.counts.len() <= w {
            self.counts.resize_with(w + 1, || vec![0; self.max_apps]);
        }
        if (app as usize) < self.max_apps {
            self.counts[w][app as usize] += bytes;
        }
    }
}

/// What the router decided to do with a packet.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Forward {
    /// Send to a peer router: schedule arrival there at `arrive`.
    ToRouter { router: RouterId, arrive: SimTime },
    /// Deliver to a terminal node at `arrive`.
    ToNode { node: u32, arrive: SimTime },
}

/// Mutable per-router simulation state. Embedded in a router LP; `Clone`
/// for Time Warp state saving.
#[derive(Clone, Debug)]
pub struct RouterState {
    pub id: RouterId,
    /// Earliest time each output port is free.
    busy_until: Vec<SimTime>,
    /// Total bytes forwarded per port (Table VI link loads).
    pub port_bytes: Vec<u64>,
    /// Per-app windowed receive counters (Fig 8).
    pub windows: WindowCounters,
}

impl RouterState {
    pub fn new(id: RouterId, n_ports: usize, window_ns: u64, max_apps: usize) -> RouterState {
        RouterState {
            id,
            busy_until: vec![SimTime::ZERO; n_ports],
            port_bytes: vec![0; n_ports],
            windows: WindowCounters::new(window_ns, max_apps),
        }
    }

    /// Queue depth (ns of backlog) of an output port.
    #[inline]
    fn queue_ns(&self, now: SimTime, port: Port) -> u64 {
        self.busy_until[port as usize].saturating_since(now).as_ns()
    }

    /// Process a packet arriving at this router at `now`: count it, make
    /// the routing decision, occupy the chosen output port, and return
    /// where and when the packet lands next.
    pub fn forward(
        &mut self,
        now: SimTime,
        pkt: &mut Packet,
        topo: &Topology,
        routing: Routing,
        rng: &mut SmallRng,
    ) -> Forward {
        self.windows.record(now, pkt.app, pkt.bytes as u64);
        let port = self.decide_port(now, pkt, topo, routing, rng);
        self.transmit(now, pkt, port, topo)
    }

    /// Occupy `port` for `pkt` and compute the peer arrival.
    pub(crate) fn transmit(
        &mut self,
        now: SimTime,
        pkt: &mut Packet,
        port: Port,
        topo: &Topology,
    ) -> Forward {
        let info = topo.ports(self.id)[port as usize];
        let arrive = self.occupy(now, port, pkt.bytes, topo);
        match info.peer {
            Peer::Node(node) => Forward::ToNode { node, arrive },
            Peer::Router { router, .. } => {
                pkt.hops += 1;
                Forward::ToRouter { router, arrive }
            }
        }
    }

    /// The routing decision only: pick the output port for `pkt`,
    /// updating its routing state (UGAL choice, pinned gateway, Valiant
    /// phase) but not the port clocks.
    pub fn decide_port(
        &mut self,
        now: SimTime,
        pkt: &mut Packet,
        topo: &Topology,
        routing: Routing,
        rng: &mut SmallRng,
    ) -> Port {
        debug_assert!(pkt.hops < Packet::MAX_HOPS, "packet looping: {pkt:?}");
        let dst_router = topo.node_router(pkt.dst_node);
        // Terminal delivery.
        if dst_router == self.id {
            return topo.node_terminal_port(pkt.dst_node);
        }

        // UGAL decision, once, at the injection router.
        if !pkt.routed {
            pkt.routed = true;
            if routing == Routing::Adaptive {
                self.ugal_decide(now, pkt, topo, rng);
            }
        }

        let my_group = topo.router_group(self.id);
        // Valiant phase ends on arrival in the intermediate group.
        if pkt.intermediate == Some(my_group) {
            pkt.intermediate = None;
        }
        let target_group = pkt.intermediate.unwrap_or_else(|| topo.router_group(dst_router));

        let port = if my_group == target_group {
            // Intra-group: head straight for the destination router (the
            // Valiant phase is over once we are in the target group).
            pkt.intermediate = None;
            pkt.gateway = None;
            self.intra_group_port(now, dst_router, topo, routing, rng)
        } else {
            // Inter-group: pick a gateway owning a link to the target
            // group, pin it in the packet (so subsequent local hops keep
            // approaching the same exit), then head for it.
            let gws = topo.gateways(my_group, target_group);
            debug_assert!(!gws.is_empty(), "no gateways {my_group}->{target_group}");
            let valid = |gw: u32| gws.iter().any(|&(r, _)| r == gw);
            let gw = match pkt.gateway {
                Some(gw) if topo.router_group(gw) == my_group && valid(gw) => gw,
                _ => {
                    let (gw, _) = match routing {
                        Routing::Minimal => gws[rng.gen_range(0..gws.len())],
                        Routing::Adaptive => {
                            // Least-backlogged first hop among candidates.
                            *gws.iter()
                                .min_by_key(|&&(r, _)| {
                                    if r == self.id {
                                        0
                                    } else {
                                        let p = self.first_hop_port(r, topo, rng);
                                        self.queue_ns(now, p)
                                    }
                                })
                                .unwrap()
                        }
                    };
                    pkt.gateway = Some(gw);
                    gw
                }
            };
            if gw == self.id {
                let (_, p) = *gws.iter().find(|&&(r, _)| r == self.id).unwrap();
                pkt.gateway = None; // leaving the group
                p
            } else {
                self.first_hop_port(gw, topo, rng)
            }
        };
        port
    }

    /// Occupy `port` for the packet's serialization time; returns the
    /// arrival time at the peer (serialization + propagation + peer router
    /// delay).
    pub(crate) fn occupy(
        &mut self,
        now: SimTime,
        port: Port,
        bytes: u32,
        topo: &Topology,
    ) -> SimTime {
        let info = topo.ports(self.id)[port as usize];
        let ser = SimDuration::transfer_time(bytes as u64, topo.cfg.bandwidth(info.class));
        let start = self.busy_until[port as usize].max(now);
        let done = start + ser;
        self.busy_until[port as usize] = done;
        self.port_bytes[port as usize] += bytes as u64;
        done + SimDuration::from_ns(topo.cfg.latency_ns(info.class))
            + SimDuration::from_ns(topo.cfg.router_delay_ns)
    }

    /// The output port for the first hop from this router toward `target`
    /// in the same group (direct if connected; otherwise via a corner in
    /// 2D).
    fn first_hop_port(&self, target: RouterId, topo: &Topology, rng: &mut SmallRng) -> Port {
        if let Some(p) = topo.local_port_to(self.id, target) {
            return p;
        }
        let corners = topo.corners(self.id, target).expect("unreachable local target");
        let c = corners[rng.gen_range(0..corners.len())];
        topo.local_port_to(self.id, c).expect("corner must be adjacent")
    }

    /// Intra-group routing toward `dst_router`: direct link if present;
    /// in 2D pick a corner (less-backlogged under adaptive routing,
    /// row-first under minimal).
    fn intra_group_port(
        &self,
        now: SimTime,
        dst_router: RouterId,
        topo: &Topology,
        routing: Routing,
        rng: &mut SmallRng,
    ) -> Port {
        if let Some(p) = topo.local_port_to(self.id, dst_router) {
            return p;
        }
        let corners = topo.corners(self.id, dst_router).expect("unreachable local target");
        let chosen = match routing {
            // Row-first: corners[0] is (my_row, dst_col).
            Routing::Minimal => corners[0],
            Routing::Adaptive => *corners
                .iter()
                .min_by_key(|&&c| {
                    let p = topo.local_port_to(self.id, c).unwrap();
                    self.queue_ns(now, p)
                })
                .unwrap(),
        };
        let _ = rng;
        topo.local_port_to(self.id, chosen).unwrap()
    }

    /// UGAL-L: choose minimal vs Valiant using local queue depths scaled
    /// by path-length estimates.
    fn ugal_decide(&self, now: SimTime, pkt: &mut Packet, topo: &Topology, rng: &mut SmallRng) {
        let dst_router = topo.node_router(pkt.dst_node);
        let my_group = topo.router_group(self.id);
        let dst_group = topo.router_group(dst_router);
        if my_group == dst_group || topo.cfg.groups < 3 {
            return; // intra-group adaptivity is handled per hop
        }
        // Minimal candidate: cheapest first hop toward any gateway.
        let gws = topo.gateways(my_group, dst_group);
        let q_min = gws
            .iter()
            .map(|&(r, p)| {
                if r == self.id {
                    self.queue_ns(now, p)
                } else {
                    let mut rng2 = rng.clone();
                    self.queue_ns(now, self.first_hop_port(r, topo, &mut rng2))
                }
            })
            .min()
            .unwrap_or(0);
        // Valiant candidate: a random intermediate group.
        let mut gi = rng.gen_range(0..topo.cfg.groups);
        while gi == my_group || gi == dst_group {
            gi = rng.gen_range(0..topo.cfg.groups);
        }
        let gws_v = topo.gateways(my_group, gi);
        let q_val = gws_v
            .iter()
            .map(|&(r, p)| {
                if r == self.id {
                    self.queue_ns(now, p)
                } else {
                    let mut rng2 = rng.clone();
                    self.queue_ns(now, self.first_hop_port(r, topo, &mut rng2))
                }
            })
            .min()
            .unwrap_or(0);

        let h_min = topo.min_hops_estimate(self.id, dst_router) as u64;
        // Valiant path ≈ hops to the intermediate group plus hops onward.
        let h_val = 2 * h_min;
        // Small bias toward minimal avoids detours on an idle network.
        if q_val * h_val + 100 < q_min * h_min {
            pkt.intermediate = Some(gi);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DragonflyConfig;
    use rand::SeedableRng;

    fn setup(cfg: DragonflyConfig) -> (Topology, Vec<RouterState>, SmallRng) {
        let topo = Topology::build(cfg);
        let routers: Vec<RouterState> = (0..topo.cfg.total_routers())
            .map(|r| RouterState::new(r, topo.ports(r).len(), 0, 8))
            .collect();
        (topo, routers, SmallRng::seed_from_u64(7))
    }

    fn mk_packet(src: u32, dst: u32) -> Packet {
        Packet {
            app: 0,
            kind: 0,
            tag: 0,
            aux: 0,
            src_node: src,
            dst_node: dst,
            bytes: 1024,
            msg_id: 1,
            msg_bytes: 1024,
            created: SimTime::ZERO,
            intermediate: None,
            gateway: None,
            routed: false,
            hops: 0,
            up_router: u32::MAX,
            up_port: 0,
            vc: 0,
        }
    }

    /// Walk a packet from src to dst through the router states; returns
    /// hop count.
    fn walk(
        topo: &Topology,
        routers: &mut [RouterState],
        rng: &mut SmallRng,
        routing: Routing,
        src: u32,
        dst: u32,
    ) -> u8 {
        let mut pkt = mk_packet(src, dst);
        let mut at = topo.node_router(src);
        let mut now = SimTime::ZERO;
        loop {
            match routers[at as usize].forward(now, &mut pkt, topo, routing, rng) {
                Forward::ToNode { node, arrive } => {
                    assert_eq!(node, dst);
                    assert!(arrive > now);
                    return pkt.hops;
                }
                Forward::ToRouter { router, arrive } => {
                    at = router;
                    now = arrive;
                    assert!(pkt.hops < Packet::MAX_HOPS);
                }
            }
        }
    }

    #[test]
    fn minimal_routing_delivers_everywhere_1d() {
        let (topo, mut routers, mut rng) = setup(DragonflyConfig::tiny_1d());
        let n = topo.cfg.total_nodes();
        for dst in 0..n {
            let hops = walk(&topo, &mut routers, &mut rng, Routing::Minimal, 0, dst);
            // 1D minimal: ≤ 3 router-router hops.
            assert!(hops <= 3, "0->{dst} took {hops} hops");
        }
    }

    #[test]
    fn minimal_routing_delivers_everywhere_2d() {
        let (topo, mut routers, mut rng) = setup(DragonflyConfig::tiny_2d());
        let n = topo.cfg.total_nodes();
        for src in [0u32, 13, 47] {
            for dst in 0..n {
                let hops = walk(&topo, &mut routers, &mut rng, Routing::Minimal, src, dst);
                // 2D minimal: ≤ 5 router-router hops.
                assert!(hops <= 5, "{src}->{dst} took {hops} hops");
            }
        }
    }

    #[test]
    fn adaptive_routing_delivers_everywhere() {
        for cfg in [DragonflyConfig::tiny_1d(), DragonflyConfig::tiny_2d()] {
            let (topo, mut routers, mut rng) = setup(cfg);
            let n = topo.cfg.total_nodes();
            for src in [0u32, 9] {
                for dst in 0..n {
                    let hops = walk(&topo, &mut routers, &mut rng, Routing::Adaptive, src, dst);
                    assert!(hops <= 2 * 5 + 1, "{src}->{dst} took {hops} hops");
                }
            }
        }
    }

    #[test]
    fn full_scale_minimal_hop_bounds() {
        for (cfg, bound) in
            [(DragonflyConfig::dragonfly_1d(), 3), (DragonflyConfig::dragonfly_2d(), 5)]
        {
            let (topo, mut routers, mut rng) = setup(cfg);
            let n = topo.cfg.total_nodes();
            // Spot-check a spread of pairs.
            for i in 0..200u32 {
                let src = (i * 97) % n;
                let dst = (i * 8191 + 13) % n;
                if src == dst {
                    continue;
                }
                let hops = walk(&topo, &mut routers, &mut rng, Routing::Minimal, src, dst);
                assert!(hops <= bound, "{src}->{dst}: {hops} > {bound}");
            }
        }
    }

    #[test]
    fn congestion_grows_queue_and_latency() {
        let (topo, mut routers, mut rng) = setup(DragonflyConfig::tiny_1d());
        // Hammer one terminal port; deliveries must be serialized.
        let dst = 1u32; // same router as node 0
        let r = topo.node_router(dst) as usize;
        let mut last = SimTime::ZERO;
        for i in 0..10 {
            let mut pkt = mk_packet(4, dst);
            pkt.msg_id = i;
            let Forward::ToNode { arrive, .. } =
                routers[r].forward(SimTime::ZERO, &mut pkt, &topo, Routing::Minimal, &mut rng)
            else {
                panic!()
            };
            assert!(arrive > last, "deliveries must be strictly ordered");
            last = arrive;
        }
    }

    #[test]
    fn window_counters_bucket_by_time() {
        let mut w = WindowCounters::new(500_000, 4);
        w.record(SimTime::from_ns(10), 0, 100);
        w.record(SimTime::from_ns(499_999), 1, 50);
        w.record(SimTime::from_ns(500_000), 0, 7);
        assert_eq!(w.counts.len(), 2);
        assert_eq!(w.counts[0][0], 100);
        assert_eq!(w.counts[0][1], 50);
        assert_eq!(w.counts[1][0], 7);
        // Out-of-range apps are dropped, not panicking.
        w.record(SimTime::from_ns(1), 200, 5);
    }

    #[test]
    fn valiant_detour_used_under_congestion() {
        let (topo, mut routers, mut rng) = setup(DragonflyConfig::tiny_1d());
        // Jam every gateway of group 0 toward group 1 far into the future.
        let now = SimTime::from_us(10);
        let mut jam: Vec<(u32, Port)> = topo.gateways(0, 1).to_vec();
        // Also jam the local ports leading to those gateways from router 0.
        for r in 0..topo.cfg.routers_per_group() {
            for &(gw, p) in jam.clone().iter() {
                if gw == r {
                    routers[r as usize].busy_until[p as usize] = SimTime::from_ms(100);
                }
                if r != gw {
                    if let Some(lp) = topo.local_port_to(r, gw) {
                        routers[r as usize].busy_until[lp as usize] = SimTime::from_ms(100);
                    }
                }
            }
        }
        jam.clear();
        // With adaptive routing from group 0 to group 1, at least some
        // packets should take a Valiant detour (hops > 3).
        let mut detoured = false;
        for i in 0..50 {
            let src = i % topo.cfg.nodes_per_group();
            let dst = topo.cfg.nodes_per_group() + (i % topo.cfg.nodes_per_group());
            let mut pkt = mk_packet(src, dst);
            let mut at = topo.node_router(src);
            let mut t = now;
            loop {
                match routers[at as usize].forward(t, &mut pkt, &topo, Routing::Adaptive, &mut rng)
                {
                    Forward::ToNode { .. } => break,
                    Forward::ToRouter { router, arrive } => {
                        at = router;
                        t = arrive;
                    }
                }
            }
            if pkt.hops > 3 {
                detoured = true;
                break;
            }
        }
        assert!(detoured, "adaptive routing never took a Valiant path under congestion");
    }
}
