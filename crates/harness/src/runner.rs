//! One-call experiment drivers.
//!
//! Each function assembles a system, attaches the right traffic
//! generators, runs it under a progress watchdog (so protocol deadlock is
//! *detected*, never hung on), and returns a structured outcome.

use xg_core::{Os, OsPolicy};
use xg_sim::{ProfileConfig, Report, TimelineConfig, TraceConfig};

use crate::config::{AccelOrg, SystemConfig};
use crate::fuzz::FuzzOpts;
use crate::system::{accel_core_count, build_system, BuiltSystem, CoreSlot};
use crate::tester::{word_pool, SharedTester, TesterCfg, TesterCore, TesterShared};
use crate::workloads::{Pattern, WorkloadCore};

/// Instrumentation attached to a run: post-mortem ring tracing, kernel
/// profiling, and transaction timelines. The default is everything off —
/// zero per-event overhead beyond one branch, and reports byte-identical
/// to uninstrumented runs.
#[derive(Debug, Clone, Default)]
pub struct Instrumentation {
    /// Per-address ring tracing for post-mortem dumps.
    pub trace: TraceConfig,
    /// Kernel profiling: dispatch counters, host-time attribution, queue
    /// high-water marks, and the epoch time-series (lands in the report's
    /// `profile` section).
    pub profile: ProfileConfig,
    /// Transaction timeline recording (Chrome trace-event JSON).
    pub timeline: Option<TimelineConfig>,
}

impl Instrumentation {
    /// Everything off (the default).
    pub fn off() -> Self {
        Instrumentation::default()
    }

    /// Kernel profiling on, tracing and timelines off.
    pub fn profiled() -> Self {
        Instrumentation {
            profile: ProfileConfig::on(),
            ..Instrumentation::default()
        }
    }

    /// What a failure replay records: ring tracing for the post-mortem
    /// dump plus a transaction timeline of the failing run.
    pub fn replay() -> Self {
        Instrumentation {
            trace: TraceConfig::ring(),
            timeline: Some(TimelineConfig::default()),
            ..Instrumentation::default()
        }
    }

    fn apply(&self, system: &mut BuiltSystem) {
        system.sim.tracer_mut().set_config(self.trace);
        system.sim.set_profile_config(self.profile);
        if let Some(tl) = self.timeline {
            system.sim.enable_timeline(tl);
        }
    }
}

/// Options for a stress run (paper §4.1 methodology).
#[derive(Debug, Clone)]
pub struct StressOpts {
    /// Total operations across all cores.
    pub ops: u64,
    /// Number of contended blocks in the address pool.
    pub blocks: u64,
    /// Words used per block.
    pub words_per_block: u64,
    /// Tester knobs.
    pub tester: TesterCfg,
    /// Watchdog: max cycles with no completed operation before declaring
    /// deadlock.
    pub stall_bound: u64,
    /// Absolute simulation budget.
    pub max_cycles: u64,
}

impl Default for StressOpts {
    fn default() -> Self {
        StressOpts {
            ops: 2_000,
            blocks: 4,
            words_per_block: 2,
            tester: TesterCfg::default(),
            stall_bound: 100_000,
            max_cycles: 50_000_000,
        }
    }
}

/// Outcome of a stress run.
#[derive(Debug)]
pub struct StressOutcome {
    /// Cycles simulated.
    pub cycles: u64,
    /// Operations completed.
    pub completed: u64,
    /// Value-check failures (0 for a correct protocol).
    pub data_errors: u64,
    /// First few failure descriptions.
    pub error_log: Vec<String>,
    /// True if the watchdog fired or operations were left hanging.
    pub deadlocked: bool,
    /// Distinct (state, event) pairs visited across all controllers.
    pub transitions: usize,
    /// Post-mortem trace dump from a deterministic replay of a failed run
    /// (None when the run passed).
    pub post_mortem: Option<String>,
    /// Chrome trace-event JSON of the run, when a timeline was requested
    /// (or from the failure replay, for a failed run).
    pub timeline: Option<String>,
    /// Full statistics.
    pub report: Report,
}

/// Flags every operation still outstanding at a watchdog stop, so the
/// post-mortem dump of a deadlocked run names the stuck addresses.
fn flag_outstanding(system: &mut crate::system::BuiltSystem, cores: &[xg_sim::NodeId], now: u64) {
    let mut stuck = Vec::new();
    for &core in cores {
        let Some(t) = system.sim.get::<TesterCore>(core) else {
            continue;
        };
        let name = xg_sim::Component::name(t).to_owned();
        for (word_addr, is_store) in t.outstanding_ops() {
            stuck.push((name.clone(), word_addr, is_store));
        }
    }
    for (name, word_addr, is_store) in stuck {
        let op = if is_store { "store" } else { "load" };
        system.sim.tracer_mut().flag(
            now,
            xg_mem::Addr::new(word_addr).block().as_u64(),
            format!("{name}: {op} at word {word_addr:#x} outstanding at deadlock"),
        );
    }
}

/// Runs the §4.1 random coherence stress test on `cfg`.
///
/// On failure (data errors or deadlock), the identical seed is replayed with
/// ring tracing enabled and the resulting per-address post-mortem dump is
/// attached to the outcome — the fast run costs nothing, the slow run only
/// happens when there is something to explain.
pub fn run_stress(cfg: &SystemConfig, opts: &StressOpts) -> StressOutcome {
    let mut out = run_stress_with(cfg, opts, &Instrumentation::off());
    if out.data_errors > 0 || out.deadlocked {
        let replay = run_stress_with(cfg, opts, &Instrumentation::replay());
        out.post_mortem = replay.post_mortem;
        out.timeline = replay.timeline;
    } else {
        out.post_mortem = None;
    }
    out
}

/// Fills the report's per-guard section from a finished run: OS error
/// attribution per guard instance (total, per kind, and whether the OS
/// disabled it) plus per-hierarchy tester results (value-check failures,
/// completed operations, operations left hanging). All new data lives in
/// this section — never in `scalars` — so single-accelerator reports stay
/// byte-identical to their historical form once the section is stripped.
fn fill_guard_section(report: &mut Report, system: &BuiltSystem, shared: &SharedTester) {
    let os = system.sim.get::<Os>(system.os);
    let shared = shared.lock().unwrap();
    for inst in &system.accels {
        let label = inst.label.as_str();
        if let Some(xg) = inst.xg {
            let Some(os) = os else { continue };
            report.guard_set(label, "os_errors", os.errors_from(xg));
            for (kind, count) in os.kinds_from(xg) {
                report.guard_set(label, format!("os.{kind}"), count);
            }
            report.guard_set(
                label,
                "disabled",
                u64::from(os.disabled_guards().contains(&xg)),
            );
        }
        if !inst.cores.is_empty() {
            let data_errors: u64 = inst
                .core_indices
                .iter()
                .map(|&i| shared.data_errors_of(i))
                .sum();
            report.guard_set(label, "data_errors", data_errors);
            let (mut completed, mut outstanding) = (0u64, 0u64);
            for &core in &inst.cores {
                if let Some(t) = system.sim.get::<TesterCore>(core) {
                    completed += t.completed();
                    outstanding += t.outstanding() as u64;
                }
            }
            report.guard_set(label, "ops_completed", completed);
            report.guard_set(label, "outstanding", outstanding);
        }
    }
}

/// Runs the stress test once with explicit [`Instrumentation`] — no
/// automatic failure replay. This is the entry point for profiled runs
/// (`xg-report --profile`) and timeline captures (`--timeline`).
pub fn run_stress_with(
    cfg: &SystemConfig,
    opts: &StressOpts,
    instr: &Instrumentation,
) -> StressOutcome {
    let cfg = cfg.clone().shrink_caches();
    let accel_cores: usize = cfg
        .accel_slots()
        .iter()
        .map(|slot| accel_core_count(&slot.org, cfg.accel_cores))
        .sum();
    let total_cores = cfg.cpu_cores + accel_cores;
    let shared = TesterShared::new(total_cores, opts.ops);
    let pool = word_pool(0x4000, opts.blocks, opts.words_per_block);
    let mut system = build_system(&cfg, OsPolicy::ReportOnly, None, |slot, cache, index| {
        let name = match slot {
            CoreSlot::Cpu(i) => format!("tester_cpu{i}"),
            CoreSlot::Accel(i) => format!("tester_acc{i}"),
        };
        Box::new(TesterCore::new(
            name,
            cache,
            index,
            shared.clone(),
            pool.clone(),
            opts.tester.clone(),
        ))
    });
    instr.apply(&mut system);
    system.start_cores();
    let out = system
        .sim
        .run_with_watchdog(opts.max_cycles, opts.stall_bound);
    if out.stalled {
        let cores: Vec<_> = system
            .cpu_cores
            .iter()
            .chain(&system.accel_cores)
            .copied()
            .collect();
        flag_outstanding(&mut system, &cores, out.now.as_u64());
    }
    let mut report = system.sim.report();
    fill_guard_section(&mut report, &system, &shared);
    let post_mortem = system.sim.post_mortem();
    let timeline = system.sim.timeline_json();
    let shared = shared.lock().unwrap();
    let hung_ops = report.sum_suffix(".outstanding") > 0;
    let transitions: usize = report.coverages().map(|(_, c)| c.len()).sum();
    StressOutcome {
        cycles: out.now.as_u64(),
        completed: shared.completed(),
        data_errors: shared.data_errors(),
        error_log: shared.error_log().to_vec(),
        deadlocked: out.stalled || (!shared.done() && !out.quiescent) || hung_ops,
        transitions,
        post_mortem,
        timeline,
        report,
    }
}

/// Outcome of a fuzzing run.
#[derive(Debug)]
pub struct FuzzOutcome {
    /// Cycles simulated.
    pub cycles: u64,
    /// Fuzz messages injected.
    pub injected: u64,
    /// Host-side protocol violations (impossible events at host
    /// controllers). Zero when a Crossing Guard protects the host.
    pub host_violations: u64,
    /// Errors the guard reported to the OS, total.
    pub os_errors: u64,
    /// True if the host stopped making progress (CPU testers starved) or
    /// ops were left permanently outstanding.
    pub deadlocked: bool,
    /// CPU tester operations that completed *while being bombarded* —
    /// evidence the host stayed alive.
    pub cpu_ops_completed: u64,
    /// CPU-side value-check failures.
    pub cpu_data_errors: u64,
    /// Post-mortem trace dump from a deterministic replay of a run that
    /// flagged anything (corruption, host violations, guard errors, or
    /// deadlock): the last events touching each offending address, across
    /// the guard and every host controller. None when nothing was flagged.
    pub post_mortem: Option<String>,
    /// Chrome trace-event JSON of the run, when a timeline was requested
    /// (or from the failure replay, for a flagged run).
    pub timeline: Option<String>,
    /// Full statistics.
    pub report: Report,
}

/// Runs a fuzz attack (`FuzzXg` or `FuzzAccelSide` organization) while CPU
/// testers measure whether the host stays correct and alive.
///
/// If the attack corrupts host data or wedges the host, the identical seed
/// is replayed with ring tracing enabled and the post-mortem dump naming the
/// offending addresses is attached to the outcome.
pub fn run_fuzz(cfg: &SystemConfig, fuzz: &FuzzOpts, cpu_ops: u64) -> FuzzOutcome {
    let mut out = run_fuzz_with(cfg, fuzz, cpu_ops, &Instrumentation::off());
    if out.cpu_data_errors > 0 || out.host_violations > 0 || out.os_errors > 0 || out.deadlocked {
        let replay = run_fuzz_with(cfg, fuzz, cpu_ops, &Instrumentation::replay());
        out.post_mortem = replay.post_mortem;
        out.timeline = replay.timeline;
    } else {
        out.post_mortem = None;
    }
    out
}

/// Runs a fuzz attack once with explicit [`Instrumentation`] — no
/// automatic failure replay.
pub fn run_fuzz_with(
    cfg: &SystemConfig,
    fuzz: &FuzzOpts,
    cpu_ops: u64,
    instr: &Instrumentation,
) -> FuzzOutcome {
    assert!(
        cfg.accel_slots()
            .iter()
            .any(|s| matches!(s.org, AccelOrg::FuzzXg { .. } | AccelOrg::FuzzAccelSide)),
        "run_fuzz needs at least one fuzzing accelerator slot"
    );
    // Guarantee 0 is grounded in page permissions: give the accelerator
    // read-write access to its own attack range and *nothing else*. What
    // the accelerator may legally write is outside the protection claim
    // (paper §2.2.1); everything else must be untouchable.
    let mut cfg = cfg.clone();
    let mut perms = xg_mem::PermissionTable::with_default(xg_mem::PagePerm::None);
    let last_page = xg_mem::BlockAddr::new(fuzz.pool_blocks).page().as_u64();
    for page in 0..=last_page {
        perms.set(xg_mem::PageAddr::new(page), xg_mem::PagePerm::ReadWrite);
    }
    // Campaign mode can additionally take *read-only* views of pages it must
    // never modify (typically the CPU testers' working set): shared copies
    // are legal there, writes are guarantee-0b rejections, and the host's
    // demand traffic for those blocks now has to cross the guard.
    for &page in &fuzz.read_only_pages {
        perms.set(xg_mem::PageAddr::new(page), xg_mem::PagePerm::Read);
    }
    cfg.xg.perms = perms;
    // Sibling hierarchies — correct guarded accelerators running alongside
    // the fuzzed one (the blast-radius setup) — get their own page table:
    // read-write on the CPU testers' pool, which their tester cores share
    // with the host cores. The attacker never holds write permission
    // there, so sibling/CPU corruption can only be a containment failure,
    // never legal traffic.
    let slots = cfg.accel_slots();
    if slots.iter().any(|s| matches!(s.org, AccelOrg::Xg { .. })) {
        let cpu_pool_base = 0x100_0000 / xg_mem::BLOCK_BYTES;
        let mut sibling_perms = xg_mem::PermissionTable::with_default(xg_mem::PagePerm::None);
        for blk in 0..fuzz.pool_blocks.max(4) {
            sibling_perms.set(
                xg_mem::BlockAddr::new(cpu_pool_base + blk).page(),
                xg_mem::PagePerm::ReadWrite,
            );
        }
        cfg.accels = slots
            .into_iter()
            .map(|mut slot| {
                if matches!(slot.org, AccelOrg::Xg { .. }) && slot.perms.is_none() {
                    slot.perms = Some(sibling_perms.clone());
                }
                slot
            })
            .collect();
    }
    let cfg = &cfg;
    let sibling_cores: usize = cfg
        .accel_slots()
        .iter()
        .map(|slot| accel_core_count(&slot.org, cfg.accel_cores))
        .sum();
    let shared = TesterShared::new(cfg.cpu_cores + sibling_cores, cpu_ops);
    // CPU testers use a pool *disjoint* from the fuzzer's attack range:
    // the fuzzer has read-write permission on its own pages, so corrupting
    // those is explicitly outside Crossing Guard's threat model (paper
    // §2.2.1). What must hold is that pages the accelerator cannot write
    // — including everything the CPUs work on here — stay intact, and
    // that the host keeps making progress.
    let pool = word_pool(0x100_0000, fuzz.pool_blocks.max(4), 2);
    let mut system = build_system(
        cfg,
        OsPolicy::ReportOnly,
        Some(fuzz.clone()),
        |slot, cache, index| {
            let name = match slot {
                CoreSlot::Cpu(i) => format!("tester_cpu{i}"),
                CoreSlot::Accel(i) => format!("tester_acc{i}"),
            };
            Box::new(TesterCore::new(
                name,
                cache,
                index,
                shared.clone(),
                pool.clone(),
                TesterCfg::default(),
            ))
        },
    );
    instr.apply(&mut system);
    system.start_cores();
    let out = system.sim.run_with_watchdog(50_000_000, 200_000);
    if out.stalled {
        let cores: Vec<_> = system
            .cpu_cores
            .iter()
            .chain(&system.accel_cores)
            .copied()
            .collect();
        flag_outstanding(&mut system, &cores, out.now.as_u64());
    }
    let mut report = system.sim.report();
    fill_guard_section(&mut report, &system, &shared);
    let post_mortem = system.sim.post_mortem();
    let timeline = system.sim.timeline_json();
    let shared = shared.lock().unwrap();
    let hung_ops = report.sum_suffix(".outstanding") > 0;
    FuzzOutcome {
        cycles: out.now.as_u64(),
        injected: report.sum_suffix("fuzz_accel.sent") + report.sum_suffix("fuzz_host.sent"),
        host_violations: report.sum_suffix(".protocol_violation"),
        os_errors: report.get("os.errors_total"),
        deadlocked: out.stalled || !shared.done() || hung_ops,
        cpu_ops_completed: shared.completed(),
        cpu_data_errors: shared.data_errors(),
        post_mortem,
        timeline,
        report,
    }
}

/// Outcome of a performance run.
#[derive(Debug)]
pub struct PerfOutcome {
    /// Cycle at which the accelerator workload finished (the runtime the
    /// performance figure plots).
    pub accel_runtime: u64,
    /// Average accelerator access latency.
    pub accel_avg_latency: u64,
    /// Total cycles simulated (includes CPU wind-down).
    pub cycles: u64,
    /// True if anything failed to finish.
    pub incomplete: bool,
    /// Full statistics.
    pub report: Report,
}

/// Runs a performance experiment: the accelerator core(s) execute
/// `pattern` for `accel_ops` accesses while the CPUs run a light streaming
/// workload that shares the `ProducerConsumer` region.
pub fn run_workload(cfg: &SystemConfig, pattern: Pattern, accel_ops: u64) -> PerfOutcome {
    // Accel footprint: 2048 words = 256 blocks (16 KiB), exactly the
    // capacity of the default 64-set × 4-way accel L1, not bigger than it.
    // Shared base for producer-consumer overlap with CPU cores.
    const BASE: u64 = 0x10_0000;
    const FOOTPRINT: u64 = 2048;
    let mut system = build_system(
        cfg,
        OsPolicy::ReportOnly,
        None,
        |slot, cache, _index| match slot {
            CoreSlot::Cpu(i) => Box::new(WorkloadCore::new(
                format!("wl_cpu{i}"),
                cache,
                Pattern::ProducerConsumer,
                BASE,
                FOOTPRINT,
                accel_ops / 4,
            )),
            CoreSlot::Accel(i) => Box::new(WorkloadCore::new(
                format!("wl_acc{i}"),
                cache,
                pattern,
                BASE,
                FOOTPRINT,
                accel_ops,
            )),
        },
    );
    system.start_cores();
    let out = system.sim.run_with_watchdog(200_000_000, 1_000_000);
    let mut accel_runtime = 0u64;
    let mut accel_lat = (0u64, 0u64);
    let mut incomplete = out.stalled;
    for &core in &system.accel_cores {
        let wl = system
            .sim
            .get::<WorkloadCore>(core)
            .expect("accel cores are workload cores");
        match wl.done_at() {
            Some(done) => accel_runtime = accel_runtime.max(done.as_u64()),
            None => incomplete = true,
        }
        accel_lat.0 += wl.avg_latency();
        accel_lat.1 += 1;
    }
    let report = system.sim.report();
    PerfOutcome {
        accel_runtime,
        accel_avg_latency: accel_lat.0 / accel_lat.1.max(1),
        cycles: out.now.as_u64(),
        incomplete,
        report,
    }
}
