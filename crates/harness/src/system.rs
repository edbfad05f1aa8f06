//! System assembly: builds a simulator for any [`SystemConfig`].
//!
//! A system has one host protocol (Hammer directory or MESI shared L2),
//! `cpu_cores` host caches, one OS model, and *N independent accelerator
//! hierarchies* ([`SystemConfig::accel_slots`]): each hierarchy gets its
//! own guard instance (where guarded), its own cache organization, and its
//! own host-protocol node identity on the home's peer list. Instance 0
//! keeps the historical single-accelerator component names (`xg`,
//! `accel_l1`, ...); instance `k > 0` prefixes them with `a{k}_`.

use xg_accel::{AccelL1, AccelL1Config, AccelL2, AccelL2Config};
use xg_core::{CrossingGuard, Os, OsPolicy, XgConfig};
use xg_host_hammer::{HammerCache, HammerConfig, HammerDirectory};
use xg_host_mesi::{MesiL1, MesiL1Config, MesiL2, MesiL2Config};
use xg_proto::{HomeMap, Message, Sim, SimBuilder};
use xg_sim::{Component, Link, NodeId};

use crate::config::{AccelOrg, AccelSlot, HostProtocol, SystemConfig};
use crate::fuzz::{FuzzAccel, FuzzHostCache, FuzzOpts};

/// Where a core sits, passed to the core factory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreSlot {
    /// CPU core `i`; its global core index equals `i`.
    Cpu(usize),
    /// Accelerator core `i` (numbered across every hierarchy); its global
    /// core index is `cpu_cores + i`.
    Accel(usize),
}

/// Number of cores the topology builder attaches to a hierarchy with
/// organization `org` (fuzzers stand in for the cores; only the two-level
/// guard fans out to `accel_cores` private L1s).
pub fn accel_core_count(org: &AccelOrg, accel_cores: usize) -> usize {
    match org {
        AccelOrg::FuzzXg { .. } | AccelOrg::FuzzAccelSide => 0,
        AccelOrg::Xg {
            two_level: true, ..
        } => accel_cores,
        _ => 1,
    }
}

/// One accelerator hierarchy of a built system, for per-guard reporting
/// and blast-radius attribution.
#[derive(Debug, Clone)]
pub struct GuardInstance {
    /// The hierarchy's organization.
    pub org: AccelOrg,
    /// Report label: the guard's component name where guarded (`xg`,
    /// `a1_xg`, ...), the frontend/fuzzer name otherwise.
    pub label: String,
    /// The Crossing Guard node, if this hierarchy has one.
    pub xg: Option<NodeId>,
    /// The fuzzer node, if this hierarchy is a fuzzing stand-in.
    pub fuzzer: Option<NodeId>,
    /// The cache(s) this hierarchy's cores talk to.
    pub frontends: Vec<NodeId>,
    /// Core nodes (from the factory), in slot order.
    pub cores: Vec<NodeId>,
    /// Global core indices of `cores` (CPU cores first, then accelerator
    /// cores across all hierarchies).
    pub core_indices: Vec<usize>,
}

/// A fully wired system ready to run.
pub struct BuiltSystem {
    /// The simulator.
    pub sim: Sim,
    /// CPU core nodes (from the factory).
    pub cpu_cores: Vec<NodeId>,
    /// CPU cache nodes.
    pub cpu_caches: Vec<NodeId>,
    /// Accelerator core nodes across every hierarchy (empty in fuzz
    /// configurations).
    pub accel_cores: Vec<NodeId>,
    /// The cache each accelerator core talks to, across every hierarchy.
    pub accel_frontends: Vec<NodeId>,
    /// The home bank nodes — directories (Hammer) or shared-L2 slices
    /// (MESI), in bank order. One entry unless
    /// [`SystemConfig::home_banks`] `> 1`.
    pub homes: Vec<NodeId>,
    /// The OS model.
    pub os: NodeId,
    /// The first Crossing Guard, if any configuration slot has one.
    pub xg: Option<NodeId>,
    /// The first fuzzer node, if any slot is a fuzzing configuration.
    pub fuzzer: Option<NodeId>,
    /// Per-hierarchy breakdown, in slot order.
    pub accels: Vec<GuardInstance>,
}

impl BuiltSystem {
    /// Kicks every core's issue loop (wake token 0 at staggered times).
    pub fn start_cores(&mut self) {
        let all: Vec<NodeId> = self
            .cpu_cores
            .iter()
            .chain(self.accel_cores.iter())
            .copied()
            .collect();
        for (i, core) in all.into_iter().enumerate() {
            self.sim.post_wake(core, 1 + i as u64, 0);
        }
        let fuzzers: Vec<NodeId> = self.accels.iter().filter_map(|a| a.fuzzer).collect();
        for (k, fuzzer) in fuzzers.into_iter().enumerate() {
            self.sim.post_wake(fuzzer, 1 + k as u64, 0);
        }
    }
}

/// Builds the system described by `cfg`. The `make_core` factory produces
/// each core component given its slot, the cache it should talk to, and
/// its global core index (CPU cores first, then accelerator cores across
/// every hierarchy in slot order).
///
/// Fuzzing slots (`FuzzXg`, `FuzzAccelSide`) need [`FuzzOpts`]; pass
/// `None` otherwise. Every fuzzing slot shares the same options.
///
/// # Panics
/// Panics if a fuzzing organization is selected without `fuzz` options.
pub fn build_system(
    cfg: &SystemConfig,
    os_policy: OsPolicy,
    fuzz: Option<FuzzOpts>,
    mut make_core: impl FnMut(CoreSlot, NodeId, usize) -> Box<dyn Component<Message>>,
) -> BuiltSystem {
    let mut b = SimBuilder::new(cfg.seed);
    // Label dispatched events by protocol-qualified message class so the
    // profiler can attribute hot paths (one function pointer; free when
    // profiling is off).
    b.event_label(Message::class);
    let n = cfg.cpu_cores;
    let slots = cfg.accel_slots();
    // Address-interleaved home banks: ids n..n+m, right after the CPU
    // caches. Every requester below routes per-block through this map.
    let m = cfg.home_banks.max(1);
    let homes: Vec<NodeId> = (0..m).map(|b| NodeId::from_index(n + b)).collect();
    let home_map = HomeMap::new(homes.clone());

    // ---- host caches (ids 0..n) ----
    let hammer_cfg = HammerConfig {
        sets: cfg.cpu_cache.0,
        ways: cfg.cpu_cache.1,
        strict_data: cfg.strict_host,
        sink_nacks: !cfg.strict_host,
        ..HammerConfig::default()
    };
    let mesi_l1_cfg = MesiL1Config {
        sets: cfg.cpu_cache.0,
        ways: cfg.cpu_cache.1,
        ..MesiL1Config::default()
    };
    let mut cpu_caches = Vec::new();
    for i in 0..n {
        let cache: Box<dyn Component<Message>> = match cfg.host {
            HostProtocol::Hammer => Box::new(HammerCache::new(
                format!("cpu_cache{i}"),
                home_map.clone(), // home banks, added next
                hammer_cfg.clone(),
            )),
            HostProtocol::Mesi => Box::new(MesiL1::new(
                format!("cpu_cache{i}"),
                home_map.clone(),
                mesi_l1_cfg.clone(),
            )),
        };
        cpu_caches.push(b.add(cache));
    }

    // ---- layout bookkeeping for nodes added after the home banks ----
    let os_id = NodeId::from_index(n + m);

    // Plan every hierarchy's node-id block up front so the home's peer
    // list (one host-protocol identity per hierarchy) is known before any
    // accelerator node exists.
    let mut next_free = n + m + 1;
    let mut plans: Vec<(NodeId, AccelInfra)> = Vec::new();
    for slot in &slots {
        let start = next_free;
        let (host_peer, infra, size) = match &slot.org {
            AccelOrg::AccelSide => {
                let cache = NodeId::from_index(start);
                (cache, AccelInfra::AccelSide { cache }, 1)
            }
            AccelOrg::HostSide => {
                let cache = NodeId::from_index(start);
                (cache, AccelInfra::HostSide { cache }, 1)
            }
            AccelOrg::Xg { two_level, .. } => {
                let xg = NodeId::from_index(start);
                let top = NodeId::from_index(start + 1);
                let size = if *two_level { 2 + cfg.accel_cores } else { 2 };
                (
                    xg,
                    AccelInfra::Xg {
                        xg,
                        top,
                        two_level: *two_level,
                    },
                    size,
                )
            }
            AccelOrg::FuzzXg { .. } => {
                let xg = NodeId::from_index(start);
                let fz = NodeId::from_index(start + 1);
                (xg, AccelInfra::FuzzXg { xg, fuzzer: fz }, 2)
            }
            AccelOrg::FuzzAccelSide => {
                let fz = NodeId::from_index(start);
                (fz, AccelInfra::FuzzHost { fuzzer: fz }, 1)
            }
        };
        plans.push((host_peer, infra));
        next_free += size;
    }

    // ---- home bank nodes ----
    // Bank 0 keeps the historical name (`dir` / `host_l2`) when it is the
    // only bank, so single-bank reports stay byte-identical; banked
    // systems name every slice explicitly. Each bank only ever sees the
    // blocks that hash to it, so the controllers need no bank awareness —
    // every bank gets the full peer list.
    match cfg.host {
        HostProtocol::Hammer => {
            let mut peers = cpu_caches.clone();
            peers.extend(plans.iter().map(|(peer, _)| *peer));
            for (bank, &home) in homes.iter().enumerate() {
                let name = if m == 1 {
                    "dir".to_string()
                } else {
                    format!("dir{bank}")
                };
                let dir = b.add(Box::new(HammerDirectory::new(
                    name,
                    peers.clone(),
                    cfg.mem_latency,
                )));
                assert_eq!(dir, home);
            }
        }
        HostProtocol::Mesi => {
            for (bank, &home) in homes.iter().enumerate() {
                let name = if m == 1 {
                    "host_l2".to_string()
                } else {
                    format!("l2b{bank}")
                };
                let l2 = b.add(Box::new(MesiL2::new(
                    name,
                    MesiL2Config {
                        sets: cfg.l2_cache.0,
                        ways: cfg.l2_cache.1,
                        mem_latency: cfg.mem_latency,
                        ack_data_interchange: !cfg.strict_host,
                        ..MesiL2Config::default()
                    },
                )));
                assert_eq!(l2, home);
            }
        }
    }

    // ---- OS ----
    let os = b.add(Box::new(Os::new("os", os_policy)));
    assert_eq!(os, os_id);

    // ---- accelerator hierarchies, in slot order ----
    let accel_l1_cfg = AccelL1Config {
        sets: cfg.accel_cache.0,
        ways: cfg.accel_cache.1,
        block_blocks: cfg.xg.block_blocks,
        prefetch: cfg.prefetch,
        ..AccelL1Config::default()
    };
    let xg_config = |variant, slot: &AccelSlot| {
        let mut c = XgConfig {
            variant,
            ..cfg.xg.clone()
        };
        if let Some(perms) = &slot.perms {
            c.perms = perms.clone();
        }
        c
    };

    let mut instances: Vec<GuardInstance> = Vec::new();
    for (k, (slot, (host_peer, infra))) in slots.iter().zip(&plans).enumerate() {
        // Instance 0 keeps the historical names so single-accelerator
        // reports stay byte-identical; later instances get `a{k}_`.
        let prefix = if k == 0 {
            String::new()
        } else {
            format!("a{k}_")
        };
        let mut inst = GuardInstance {
            org: slot.org.clone(),
            label: String::new(),
            xg: None,
            fuzzer: None,
            frontends: Vec::new(),
            cores: Vec::new(),
            core_indices: Vec::new(),
        };
        match (&slot.org, infra) {
            (AccelOrg::AccelSide, AccelInfra::AccelSide { cache }) => {
                let name = format!("{prefix}accel_cache");
                let c: Box<dyn Component<Message>> = match cfg.host {
                    HostProtocol::Hammer => Box::new(HammerCache::new(
                        name.clone(),
                        home_map.clone(),
                        HammerConfig {
                            sets: cfg.accel_cache.0,
                            ways: cfg.accel_cache.1,
                            ..hammer_cfg.clone()
                        },
                    )),
                    HostProtocol::Mesi => Box::new(MesiL1::new(
                        name.clone(),
                        home_map.clone(),
                        MesiL1Config {
                            sets: cfg.accel_cache.0,
                            ways: cfg.accel_cache.1,
                            ..MesiL1Config::default()
                        },
                    )),
                };
                let id = b.add(c);
                assert_eq!(id, *cache);
                // The accelerator-side cache reaches the host over the chip
                // crossing (one link per home bank).
                for &home in &homes {
                    b.link_bidi(
                        *cache,
                        home,
                        Link::unordered(cfg.crossing.0, cfg.crossing.1),
                    );
                }
                inst.label = name;
                inst.frontends.push(*cache);
            }
            (AccelOrg::HostSide, AccelInfra::HostSide { cache }) => {
                let name = format!("{prefix}hostside_cache");
                let c: Box<dyn Component<Message>> = match cfg.host {
                    HostProtocol::Hammer => Box::new(HammerCache::new(
                        name.clone(),
                        home_map.clone(),
                        hammer_cfg.clone(),
                    )),
                    HostProtocol::Mesi => Box::new(MesiL1::new(
                        name.clone(),
                        home_map.clone(),
                        MesiL1Config::default(),
                    )),
                };
                let id = b.add(c);
                assert_eq!(id, *cache);
                inst.label = name;
                inst.frontends.push(*cache);
                // The *core↔cache* link carries the crossing latency here:
                // the accelerator has no cache of its own (Figure 2(b)).
            }
            (AccelOrg::Xg { variant, .. }, AccelInfra::Xg { xg, top, two_level }) => {
                let name = format!("{prefix}xg");
                let guard: Box<dyn Component<Message>> = match cfg.host {
                    HostProtocol::Hammer => Box::new(CrossingGuard::new_hammer(
                        name.clone(),
                        *top,
                        home_map.clone(),
                        os_id,
                        xg_config(*variant, slot),
                    )),
                    HostProtocol::Mesi => Box::new(CrossingGuard::new_mesi(
                        name.clone(),
                        *top,
                        home_map.clone(),
                        os_id,
                        xg_config(*variant, slot),
                    )),
                };
                let id = b.add(guard);
                assert_eq!(id, *xg);
                inst.label = name;
                inst.xg = Some(*xg);
                link_guard_to_home(&mut b, cfg, *xg, &homes);
                b.link_bidi(*xg, *top, Link::ordered(cfg.crossing.0, cfg.crossing.1));
                if *two_level {
                    let l2 = b.add(Box::new(AccelL2::new(
                        format!("{prefix}accel_l2"),
                        *xg,
                        AccelL2Config {
                            sets: cfg.l2_cache.0,
                            ways: cfg.l2_cache.1,
                            block_blocks: cfg.xg.block_blocks,
                            weak_sharing: cfg.weak_accel_sharing,
                            ..AccelL2Config::default()
                        },
                    )));
                    assert_eq!(l2, *top);
                    for i in 0..cfg.accel_cores {
                        let l1 = b.add(Box::new(AccelL1::new(
                            format!("{prefix}accel_l1_{i}"),
                            l2,
                            accel_l1_cfg.clone(),
                        )));
                        b.link_bidi(l1, l2, Link::ordered(1, 3));
                        inst.frontends.push(l1);
                    }
                } else {
                    let l1 = b.add(Box::new(AccelL1::new(
                        format!("{prefix}accel_l1"),
                        *xg,
                        accel_l1_cfg.clone(),
                    )));
                    assert_eq!(l1, *top);
                    inst.frontends.push(l1);
                }
            }
            (AccelOrg::FuzzXg { variant }, AccelInfra::FuzzXg { xg, fuzzer }) => {
                let name = format!("{prefix}xg");
                let guard: Box<dyn Component<Message>> = match cfg.host {
                    HostProtocol::Hammer => Box::new(CrossingGuard::new_hammer(
                        name.clone(),
                        *fuzzer,
                        home_map.clone(),
                        os_id,
                        xg_config(*variant, slot),
                    )),
                    HostProtocol::Mesi => Box::new(CrossingGuard::new_mesi(
                        name.clone(),
                        *fuzzer,
                        home_map.clone(),
                        os_id,
                        xg_config(*variant, slot),
                    )),
                };
                let id = b.add(guard);
                assert_eq!(id, *xg);
                inst.label = name;
                inst.xg = Some(*xg);
                link_guard_to_home(&mut b, cfg, *xg, &homes);
                let opts = fuzz.clone().expect("FuzzXg needs FuzzOpts");
                let fz = b.add(Box::new(FuzzAccel::new(
                    format!("{prefix}fuzz_accel"),
                    *xg,
                    opts,
                )));
                assert_eq!(fz, *fuzzer);
                inst.fuzzer = Some(fz);
                b.link_bidi(*xg, fz, Link::ordered(cfg.crossing.0, cfg.crossing.1));
            }
            (AccelOrg::FuzzAccelSide, AccelInfra::FuzzHost { fuzzer }) => {
                let opts = fuzz.clone().expect("FuzzAccelSide needs FuzzOpts");
                // This fuzzer speaks raw host protocol at the CPU caches and
                // every *other* hierarchy's host identity.
                let mut peers = cpu_caches.clone();
                peers.extend(
                    plans
                        .iter()
                        .enumerate()
                        .filter(|&(j, _)| j != k)
                        .map(|(_, (peer, _))| *peer),
                );
                let name = format!("{prefix}fuzz_host");
                let fz = b.add(Box::new(FuzzHostCache::new(
                    name.clone(),
                    cfg.host,
                    home_map.clone(),
                    peers,
                    opts,
                )));
                assert_eq!(fz, *fuzzer);
                inst.label = name;
                inst.fuzzer = Some(fz);
                for &home in &homes {
                    b.link_bidi(fz, home, Link::unordered(cfg.crossing.0, cfg.crossing.1));
                }
            }
            _ => unreachable!("accel org / infra mismatch"),
        }
        debug_assert!(
            inst.xg.is_none() || inst.xg == Some(*host_peer),
            "a guarded hierarchy's host identity is its guard"
        );
        instances.push(inst);
    }

    // ---- cores, added last so every frontend id is known ----
    let mut cpu_cores = Vec::new();
    for (i, &cache) in cpu_caches.iter().enumerate() {
        let core = b.add(make_core(CoreSlot::Cpu(i), cache, i));
        b.link_bidi(core, cache, Link::ordered(1, 1));
        cpu_cores.push(core);
    }
    let mut accel_cores = Vec::new();
    let mut ai = 0usize; // accelerator core index across hierarchies
    for inst in &mut instances {
        for i in 0..accel_core_count(&inst.org, cfg.accel_cores) {
            let frontend = inst.frontends[i.min(inst.frontends.len() - 1)];
            let core = b.add(make_core(CoreSlot::Accel(ai), frontend, n + ai));
            let link = if matches!(inst.org, AccelOrg::HostSide) {
                // Figure 2(b): every access crosses the chip boundary.
                Link::ordered(cfg.crossing.0, cfg.crossing.1)
            } else {
                Link::ordered(1, 1)
            };
            b.link_bidi(core, frontend, link);
            inst.cores.push(core);
            inst.core_indices.push(n + ai);
            accel_cores.push(core);
            ai += 1;
        }
    }

    b.default_link(Link::unordered(cfg.host_link.0, cfg.host_link.1));

    BuiltSystem {
        sim: b.build(),
        cpu_cores,
        cpu_caches,
        accel_cores,
        accel_frontends: instances
            .iter()
            .flat_map(|inst| inst.frontends.iter().copied())
            .collect(),
        homes,
        os,
        xg: instances.iter().find_map(|inst| inst.xg),
        fuzzer: instances.iter().find_map(|inst| inst.fuzzer),
        accels: instances,
    }
}

/// Wires the guard ↔ home-bank pairs. Without faults the pairs simply ride
/// the default (unordered host-network) link, exactly as before; with a
/// fault plan configured, both directions of every pair get an explicit
/// unordered link carrying the plan. The guard ↔ accelerator side stays
/// ordered and fault-free either way (§2.1).
fn link_guard_to_home(b: &mut SimBuilder, cfg: &SystemConfig, xg: NodeId, homes: &[NodeId]) {
    if cfg.host_faults.is_none() {
        return;
    }
    let link = Link::unordered(cfg.host_link.0, cfg.host_link.1).with_faults(cfg.host_faults);
    for &home in homes {
        b.link_bidi(xg, home, link);
    }
}

/// Internal: node layout per accelerator organization.
enum AccelInfra {
    AccelSide {
        cache: NodeId,
    },
    HostSide {
        cache: NodeId,
    },
    Xg {
        xg: NodeId,
        top: NodeId,
        two_level: bool,
    },
    FuzzXg {
        xg: NodeId,
        fuzzer: NodeId,
    },
    FuzzHost {
        fuzzer: NodeId,
    },
}
