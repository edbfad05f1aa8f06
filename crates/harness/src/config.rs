//! System configuration: the paper's evaluation matrix.

use xg_accel::Prefetch;
use xg_core::{XgConfig, XgVariant};
use xg_mem::PermissionTable;
use xg_sim::FaultSpec;

/// Which host coherence protocol the system runs (paper §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostProtocol {
    /// AMD-Hammer-like exclusive MOESI broadcast protocol.
    Hammer,
    /// Inclusive two-level MESI with exact sharer tracking.
    Mesi,
}

impl HostProtocol {
    /// Short tag for config names.
    pub fn tag(self) -> &'static str {
        match self {
            HostProtocol::Hammer => "hammer",
            HostProtocol::Mesi => "mesi",
        }
    }
}

/// How the accelerator connects to the host (paper Figure 2, plus the
/// fuzzing stand-ins used by the safety evaluation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccelOrg {
    /// Figure 2(a): the accelerator implements a cache in the raw host
    /// protocol. Fast but *unsafe* and host-specific.
    AccelSide,
    /// Figure 2(b): no accelerator cache; loads/stores cross to a
    /// host-side cache. Safe but every access pays the crossing latency.
    HostSide,
    /// Figure 2(c)/(d): the accelerator's own cache(s) behind a Crossing
    /// Guard.
    Xg {
        /// Full State or Transactional.
        variant: XgVariant,
        /// Figure 2(d): private accel L1s under a shared accel L2.
        two_level: bool,
    },
    /// Safety evaluation: a fuzzer bombards the Crossing Guard interface.
    FuzzXg {
        /// Guard variant under attack.
        variant: XgVariant,
    },
    /// Safety baseline: a fuzzer speaks raw host protocol (what a buggy
    /// accelerator-side cache can do to an unprotected host).
    FuzzAccelSide,
}

impl AccelOrg {
    /// Short tag for config names.
    pub fn tag(&self) -> String {
        match self {
            AccelOrg::AccelSide => "accel_side".into(),
            AccelOrg::HostSide => "host_side".into(),
            AccelOrg::Xg { variant, two_level } => format!(
                "xg_{}_{}",
                match variant {
                    XgVariant::FullState => "full",
                    XgVariant::Transactional => "tx",
                },
                if *two_level { "l2" } else { "l1" }
            ),
            AccelOrg::FuzzXg { variant } => format!(
                "fuzz_xg_{}",
                match variant {
                    XgVariant::FullState => "full",
                    XgVariant::Transactional => "tx",
                }
            ),
            AccelOrg::FuzzAccelSide => "fuzz_accel_side".into(),
        }
    }
}

/// One accelerator hierarchy of a (possibly multi-accelerator) system:
/// its organization plus optional per-instance overrides. Each slot gets
/// its own guard instance (where guarded), its own cache hierarchy, and
/// its own host-protocol node identity.
#[derive(Debug, Clone)]
pub struct AccelSlot {
    /// How this hierarchy connects to the host.
    pub org: AccelOrg,
    /// Per-instance page permissions programmed into this slot's guard
    /// (`None` → the shared [`SystemConfig::xg`] table). Lets an OS map
    /// different pages to different accelerators, the setup the
    /// blast-radius experiment relies on.
    pub perms: Option<PermissionTable>,
}

impl From<AccelOrg> for AccelSlot {
    fn from(org: AccelOrg) -> Self {
        AccelSlot { org, perms: None }
    }
}

/// Full description of a simulated system.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Host protocol.
    pub host: HostProtocol,
    /// Number of CPU cores (each with a private host cache).
    pub cpu_cores: usize,
    /// Accelerator organization (of every instance, unless `accels`
    /// overrides per slot).
    pub accel: AccelOrg,
    /// Number of independent accelerator hierarchies sharing this host.
    /// Ignored when `accels` is non-empty.
    pub num_accels: usize,
    /// Heterogeneous per-instance overrides; empty means `num_accels`
    /// copies of `accel`.
    pub accels: Vec<AccelSlot>,
    /// Accelerator cores (only >1 for the two-level organization).
    pub accel_cores: usize,
    /// Master seed.
    pub seed: u64,
    /// Host on-chip network latency range (unordered).
    pub host_link: (u64, u64),
    /// Host↔accelerator crossing latency range.
    pub crossing: (u64, u64),
    /// Memory latency in cycles.
    pub mem_latency: u64,
    /// CPU cache geometry (sets, ways).
    pub cpu_cache: (usize, usize),
    /// Accelerator L1 geometry (sets, ways).
    pub accel_cache: (usize, usize),
    /// Accelerator / host shared-L2 geometry (sets, ways).
    pub l2_cache: (usize, usize),
    /// Accelerator L1 prefetching policy.
    pub prefetch: Prefetch,
    /// Weak intra-accelerator sharing in the two-level organization
    /// (paper §2.1): sibling L1 reads may be stale until explicit flushes.
    pub weak_accel_sharing: bool,
    /// Crossing Guard configuration (variant is overridden by `accel`).
    pub xg: XgConfig,
    /// Run the *unmodified* host protocol (strict ack counting, no nack
    /// sinking, no ack/data interchange) — the §3.2 ablation.
    pub strict_host: bool,
    /// Fault-injection plan applied to the (unordered) guard ↔ home links.
    /// Zeroed by default; the fuzz campaign turns on delay spikes and
    /// reorder bursts here to attack the guard's timeout paths without
    /// breaking the host network's reliable-delivery assumption.
    pub host_faults: FaultSpec,
    /// Number of address-interleaved home banks (Hammer directories or
    /// MESI shared-L2 slices). `1` — the default — is the historical
    /// single-home system with byte-identical reports; `M > 1` splits the
    /// physical address space across `M` banks by the
    /// [`xg_mem::BlockAddr::bank`] hash, and every cache and guard routes
    /// each request to the owning bank.
    pub home_banks: usize,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            host: HostProtocol::Hammer,
            cpu_cores: 2,
            accel: AccelOrg::Xg {
                variant: XgVariant::FullState,
                two_level: false,
            },
            num_accels: 1,
            accels: Vec::new(),
            accel_cores: 1,
            seed: 1,
            host_link: (2, 10),
            crossing: (40, 60),
            mem_latency: 100,
            cpu_cache: (64, 8),
            accel_cache: (64, 4),
            l2_cache: (256, 8),
            prefetch: Prefetch::Off,
            weak_accel_sharing: false,
            xg: XgConfig::default(),
            strict_host: false,
            host_faults: FaultSpec::NONE,
            home_banks: 1,
        }
    }
}

impl SystemConfig {
    /// The effective per-instance accelerator slots: `accels` verbatim if
    /// set, otherwise `num_accels` copies of `accel`. Never empty.
    pub fn accel_slots(&self) -> Vec<AccelSlot> {
        if !self.accels.is_empty() {
            return self.accels.clone();
        }
        vec![AccelSlot::from(self.accel.clone()); self.num_accels.max(1)]
    }

    /// A human-readable name: `hammer/xg_full_l1`, `mesi/host_side`, ...
    /// Multi-accelerator systems append the instance count
    /// (`hammer/xg_full_l1x2`) or join heterogeneous tags
    /// (`hammer/fuzz_xg_full+xg_full_l1`).
    pub fn name(&self) -> String {
        let slots = self.accel_slots();
        if slots.len() == 1 {
            return format!("{}/{}", self.host.tag(), slots[0].org.tag());
        }
        let tags: Vec<String> = slots.iter().map(|s| s.org.tag()).collect();
        if tags.windows(2).all(|w| w[0] == w[1]) {
            format!("{}/{}x{}", self.host.tag(), tags[0], tags.len())
        } else {
            format!("{}/{}", self.host.tag(), tags.join("+"))
        }
    }

    /// [`name`](SystemConfig::name) plus `@b{M}` for `M > 1` home banks.
    /// Identical to `name()` at the default, so historical golden keys are
    /// untouched.
    pub fn exec_name(&self) -> String {
        let mut out = self.name();
        if self.home_banks > 1 {
            out.push_str(&format!("@b{}", self.home_banks));
        }
        out
    }

    /// Applies the `XG_BANKS` environment override to this config (the CI
    /// tier-1 variant hook). An absent or unparsable variable leaves
    /// `home_banks` untouched; `XG_BANKS=0` is clamped to 1.
    pub fn apply_env_overrides(mut self) -> Self {
        if let Some(banks) = std::env::var("XG_BANKS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            self.home_banks = banks.max(1);
        }
        self
    }

    /// Shrinks every cache so replacements are frequent — the stress-test
    /// setup of §4.1.
    pub fn shrink_caches(mut self) -> Self {
        self.cpu_cache = (2, 1);
        self.accel_cache = (2, 1);
        self.l2_cache = (2, 2);
        self
    }

    /// The paper's twelve evaluated configurations (§3): for each host
    /// protocol, an accelerator-side cache, a host-side cache, and
    /// {Full State, Transactional} × {one-level, two-level} Crossing
    /// Guards.
    pub fn matrix(seed: u64) -> Vec<SystemConfig> {
        let mut out = Vec::new();
        for host in [HostProtocol::Hammer, HostProtocol::Mesi] {
            for accel in [
                AccelOrg::AccelSide,
                AccelOrg::HostSide,
                AccelOrg::Xg {
                    variant: XgVariant::FullState,
                    two_level: false,
                },
                AccelOrg::Xg {
                    variant: XgVariant::FullState,
                    two_level: true,
                },
                AccelOrg::Xg {
                    variant: XgVariant::Transactional,
                    two_level: false,
                },
                AccelOrg::Xg {
                    variant: XgVariant::Transactional,
                    two_level: true,
                },
            ] {
                let two_level = matches!(
                    accel,
                    AccelOrg::Xg {
                        two_level: true,
                        ..
                    }
                );
                out.push(SystemConfig {
                    host,
                    accel,
                    accel_cores: if two_level { 2 } else { 1 },
                    seed,
                    ..SystemConfig::default()
                });
            }
        }
        out
    }

    /// Fresh permission table accessor (all pages read-write by default).
    pub fn permissive() -> PermissionTable {
        PermissionTable::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_is_twelve_distinct_configs() {
        let m = SystemConfig::matrix(1);
        assert_eq!(m.len(), 12);
        let names: std::collections::HashSet<String> = m.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), 12, "config names must be unique");
        assert!(names.contains("hammer/accel_side"));
        assert!(names.contains("mesi/xg_tx_l2"));
    }

    #[test]
    fn accel_slots_expand_num_accels_and_respect_overrides() {
        let cfg = SystemConfig::default();
        assert_eq!(cfg.accel_slots().len(), 1);
        assert_eq!(cfg.name(), "hammer/xg_full_l1");

        let homogeneous = SystemConfig {
            num_accels: 3,
            ..SystemConfig::default()
        };
        let slots = homogeneous.accel_slots();
        assert_eq!(slots.len(), 3);
        assert!(slots.iter().all(|s| s.org == homogeneous.accel));
        assert_eq!(homogeneous.name(), "hammer/xg_full_l1x3");

        let hetero = SystemConfig {
            accels: vec![
                AccelSlot::from(AccelOrg::FuzzXg {
                    variant: XgVariant::FullState,
                }),
                AccelSlot::from(AccelOrg::Xg {
                    variant: XgVariant::FullState,
                    two_level: false,
                }),
            ],
            num_accels: 9, // ignored: accels wins
            ..SystemConfig::default()
        };
        assert_eq!(hetero.accel_slots().len(), 2);
        assert_eq!(hetero.name(), "hammer/fuzz_xg_full+xg_full_l1");
    }

    #[test]
    fn shrink_caches_shrinks() {
        let c = SystemConfig::default().shrink_caches();
        assert_eq!(c.cpu_cache, (2, 1));
        assert_eq!(c.accel_cache, (2, 1));
    }
}
