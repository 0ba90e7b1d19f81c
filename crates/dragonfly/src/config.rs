//! System configurations (paper Table II).
//!
//! | Topology | Radix | Groups | Routers/Group | Nodes/Router | Nodes/Group | Global/Router | System |
//! |----------|-------|--------|---------------|--------------|-------------|---------------|--------|
//! | 1D       | 48    | 33     | 32            | 8            | 256         | 4             | 8448   |
//! | 2D       | 48    | 22     | 96 (6×16)     | 4            | 384         | 7             | 8448   |
//!
//! Link bandwidths (§IV-A): terminal 16 GiB/s, local 4.69 GiB/s, global
//! 5.25 GiB/s.

use crate::credit::FlowControl;
use serde::{Deserialize, Serialize};

/// Which dragonfly variant.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Flavor {
    /// Routers within a group are all-to-all connected (Kim et al., the
    /// topology planned for exascale systems).
    OneD,
    /// Routers within a group form a row/column grid with all-to-all
    /// connections along each row and each column (Cray Cascade — Cori,
    /// Theta).
    TwoD,
}

/// Link classes, used for bandwidth/latency selection and load accounting
/// (Table VI).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum LinkClass {
    Terminal,
    Local,
    Global,
}

/// Full parameterization of a dragonfly system.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DragonflyConfig {
    pub flavor: Flavor,
    pub groups: u32,
    /// Router grid within a group: `rows × cols` (1D uses `1 × routers`).
    pub rows: u32,
    pub cols: u32,
    pub nodes_per_router: u32,
    pub global_per_router: u32,
    /// Terminal (node-router) link bandwidth, GiB/s.
    pub terminal_gib_s: f64,
    /// Local (intra-group) link bandwidth, GiB/s.
    pub local_gib_s: f64,
    /// Global (inter-group) link bandwidth, GiB/s.
    pub global_gib_s: f64,
    /// Per-link propagation latencies, ns.
    pub terminal_latency_ns: u64,
    pub local_latency_ns: u64,
    pub global_latency_ns: u64,
    /// Fixed per-hop router traversal delay, ns.
    pub router_delay_ns: u64,
    /// Maximum transfer unit: messages are segmented into packets of at
    /// most this many bytes.
    pub packet_bytes: u32,
    /// Router flow-control model (busy-until queues or credit/VC).
    pub flow: FlowControl,
}

impl DragonflyConfig {
    /// The paper's 1D dragonfly (Table II, row 1): 33 groups × 32 routers
    /// × 8 nodes = 8,448 nodes.
    pub fn dragonfly_1d() -> DragonflyConfig {
        DragonflyConfig {
            flavor: Flavor::OneD,
            groups: 33,
            rows: 1,
            cols: 32,
            nodes_per_router: 8,
            global_per_router: 4,
            ..DragonflyConfig::base()
        }
    }

    /// The paper's 2D dragonfly (Table II, row 2): 22 groups × 96 routers
    /// (6×16) × 4 nodes = 8,448 nodes.
    pub fn dragonfly_2d() -> DragonflyConfig {
        DragonflyConfig {
            flavor: Flavor::TwoD,
            groups: 22,
            rows: 6,
            cols: 16,
            nodes_per_router: 4,
            global_per_router: 7,
            ..DragonflyConfig::base()
        }
    }

    /// A ×16-scale 1D system for the Quick experiment profile: 17 groups ×
    /// 8 routers × 4 nodes = 544 nodes, 2 parallel global links per group
    /// pair — the same structural ratios as the paper system.
    pub fn small_1d() -> DragonflyConfig {
        DragonflyConfig {
            flavor: Flavor::OneD,
            groups: 17,
            rows: 1,
            cols: 8,
            nodes_per_router: 4,
            global_per_router: 2,
            ..DragonflyConfig::base()
        }
    }

    /// A ×16-scale 2D system: 17 groups × (2×8) routers × 2 nodes = 544
    /// nodes. Like the paper's 2D system it has more routers per group
    /// (fewer nodes each) and substantially more local and global links
    /// than its 1D sibling (2176 vs 952 local, 816 vs 272 global,
    /// directed).
    pub fn small_2d() -> DragonflyConfig {
        DragonflyConfig {
            flavor: Flavor::TwoD,
            groups: 17,
            rows: 2,
            cols: 8,
            nodes_per_router: 2,
            global_per_router: 3,
            ..DragonflyConfig::base()
        }
    }

    /// A small 1D instance (9 groups × 4 routers × 2 nodes = 72 nodes) for
    /// tests and examples.
    pub fn tiny_1d() -> DragonflyConfig {
        DragonflyConfig {
            flavor: Flavor::OneD,
            groups: 9,
            rows: 1,
            cols: 4,
            nodes_per_router: 2,
            global_per_router: 2,
            ..DragonflyConfig::base()
        }
    }

    /// A small 2D instance (7 groups × 2×3 routers × 2 nodes = 84 nodes).
    pub fn tiny_2d() -> DragonflyConfig {
        DragonflyConfig {
            flavor: Flavor::TwoD,
            groups: 7,
            rows: 2,
            cols: 3,
            nodes_per_router: 2,
            global_per_router: 1,
            ..DragonflyConfig::base()
        }
    }

    fn base() -> DragonflyConfig {
        DragonflyConfig {
            flavor: Flavor::OneD,
            groups: 0,
            rows: 0,
            cols: 0,
            nodes_per_router: 0,
            global_per_router: 0,
            terminal_gib_s: 16.0,
            local_gib_s: 4.69,
            global_gib_s: 5.25,
            terminal_latency_ns: 100,
            local_latency_ns: 100,
            global_latency_ns: 500,
            router_delay_ns: 50,
            packet_bytes: 4096,
            flow: FlowControl::BusyUntil,
        }
    }

    pub fn routers_per_group(&self) -> u32 {
        self.rows * self.cols
    }

    pub fn total_routers(&self) -> u32 {
        self.groups * self.routers_per_group()
    }

    pub fn nodes_per_group(&self) -> u32 {
        self.routers_per_group() * self.nodes_per_router
    }

    pub fn total_nodes(&self) -> u32 {
        self.groups * self.nodes_per_group()
    }

    /// Local (intra-group) ports per router.
    pub fn local_ports(&self) -> u32 {
        match self.flavor {
            Flavor::OneD => self.routers_per_group() - 1,
            Flavor::TwoD => (self.rows - 1) + (self.cols - 1),
        }
    }

    /// Router radix implied by the configuration.
    pub fn radix(&self) -> u32 {
        self.nodes_per_router + self.local_ports() + self.global_per_router
    }

    /// Parallel global links between every pair of groups. The wiring
    /// requires `routers_per_group × global_per_router` to be divisible by
    /// `groups − 1`.
    pub fn links_per_group_pair(&self) -> u32 {
        let total = self.routers_per_group() * self.global_per_router;
        total / (self.groups - 1)
    }

    /// Validate structural invariants; returns a description of the system.
    pub fn check(&self) -> Result<(), String> {
        if self.groups < 2 {
            return Err("need at least 2 groups".into());
        }
        if self.rows == 0 || self.cols == 0 || self.nodes_per_router == 0 {
            return Err("empty group geometry".into());
        }
        if self.flavor == Flavor::OneD && self.rows != 1 {
            return Err("1D dragonfly must have rows == 1".into());
        }
        let total = self.routers_per_group() * self.global_per_router;
        if !total.is_multiple_of(self.groups - 1) {
            return Err(format!(
                "global channels per group ({total}) not divisible by peer groups ({})",
                self.groups - 1
            ));
        }
        if self.packet_bytes == 0 {
            return Err("packet_bytes must be positive".into());
        }
        Ok(())
    }

    /// Bandwidth of a link class, GiB/s.
    pub fn bandwidth(&self, class: LinkClass) -> f64 {
        match class {
            LinkClass::Terminal => self.terminal_gib_s,
            LinkClass::Local => self.local_gib_s,
            LinkClass::Global => self.global_gib_s,
        }
    }

    /// Propagation latency of a link class, ns.
    pub fn latency_ns(&self, class: LinkClass) -> u64 {
        match class {
            LinkClass::Terminal => self.terminal_latency_ns,
            LinkClass::Local => self.local_latency_ns,
            LinkClass::Global => self.global_latency_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_1d() {
        let c = DragonflyConfig::dragonfly_1d();
        c.check().unwrap();
        assert_eq!(c.total_nodes(), 8448);
        assert_eq!(c.routers_per_group(), 32);
        assert_eq!(c.nodes_per_group(), 256);
        assert_eq!(c.total_routers(), 1056);
        assert_eq!(c.radix(), 8 + 31 + 4);
        assert!(c.radix() <= 48);
        assert_eq!(c.links_per_group_pair(), 4);
    }

    #[test]
    fn table2_2d() {
        let c = DragonflyConfig::dragonfly_2d();
        c.check().unwrap();
        assert_eq!(c.total_nodes(), 8448);
        assert_eq!(c.routers_per_group(), 96);
        assert_eq!(c.nodes_per_group(), 384);
        assert_eq!(c.total_routers(), 2112);
        assert_eq!(c.radix(), 4 + 20 + 7);
        assert!(c.radix() <= 48);
        assert_eq!(c.links_per_group_pair(), 32);
    }

    #[test]
    fn tiny_configs_are_valid() {
        DragonflyConfig::tiny_1d().check().unwrap();
        DragonflyConfig::tiny_2d().check().unwrap();
    }

    #[test]
    fn small_configs_match_quick_profile() {
        let c1 = DragonflyConfig::small_1d();
        c1.check().unwrap();
        assert_eq!(c1.total_nodes(), 544);
        assert_eq!(c1.links_per_group_pair(), 1);
        let c2 = DragonflyConfig::small_2d();
        c2.check().unwrap();
        assert_eq!(c2.total_nodes(), 544);
        assert_eq!(c2.links_per_group_pair(), 3);
        assert!(c2.radix() <= 48);
        // The 2D system is link-richer, as in the paper (Table VI logic).
        let locals = |c: &DragonflyConfig| c.total_routers() * c.local_ports();
        let globals = |c: &DragonflyConfig| c.total_routers() * c.global_per_router;
        assert!(locals(&c2) > locals(&c1));
        assert!(globals(&c2) > globals(&c1));
    }

    /// `SimDuration::transfer_time` takes its ceiling in integers; it must
    /// agree bit for bit with `f64::ceil` for every packet size up to
    /// 64 KiB on every link of every bundled configuration.
    #[test]
    fn transfer_time_matches_float_ceil_on_every_link() {
        let configs = [
            DragonflyConfig::small_1d(),
            DragonflyConfig::small_2d(),
            DragonflyConfig::tiny_1d(),
            DragonflyConfig::tiny_2d(),
            DragonflyConfig::dragonfly_1d(),
            DragonflyConfig::dragonfly_2d(),
        ];
        for c in &configs {
            for class in [LinkClass::Terminal, LinkClass::Local, LinkClass::Global] {
                let bw = c.bandwidth(class);
                let bytes_per_ns = bw * (1u64 << 30) as f64 / 1e9;
                for bytes in 1..=64 * 1024u64 {
                    let want = ((bytes as f64 / bytes_per_ns).ceil() as u64).max(1);
                    let got = ross::SimDuration::transfer_time(bytes, bw).as_ns();
                    assert_eq!(got, want, "{bytes} B at {bw} GiB/s");
                }
            }
        }
    }

    #[test]
    fn check_rejects_bad_geometry() {
        let mut c = DragonflyConfig::dragonfly_1d();
        c.groups = 1;
        assert!(c.check().is_err());
        let mut c = DragonflyConfig::dragonfly_1d();
        c.rows = 2;
        assert!(c.check().is_err());
        let mut c = DragonflyConfig::dragonfly_1d();
        c.groups = 34; // 128 channels not divisible by 33 peer groups
        assert!(c.check().is_err());
    }
}
