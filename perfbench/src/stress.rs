//! `stress_matrix`: the §4.1 value-checking random stress test over the
//! MESI half of the twelve-configuration matrix, fanned out with `sweep`.
//! The Hammer half is left out because its cells report data errors at
//! some seeds (an open defect, see `README.md`).

use std::time::Instant;

use xg_core::OsPolicy;
use xg_harness::system::CoreSlot;
use xg_harness::tester::word_pool;
use xg_harness::{
    accel_core_count, build_system, run_stress, sweep, HostProtocol, SharedTester, StressOpts,
    SystemConfig, TesterCfg, TesterCore, TesterShared,
};
use xg_proto::Message;
use xg_sim::{Component, NodeId, ProfileConfig, Report};

use crate::layers::Counts;
use crate::spans::Tracer;
use crate::stats::{Tally, UnitStatus};
use crate::{guarded, mix, overhead_ratios, refused, report_hash, Opts, Round, Workload};

/// Core factory attaching a value-checking tester to every core slot, the
/// way the harness's own stress and fuzz runners do.
pub fn testers(
    shared: &SharedTester,
    pool: &[u64],
    cfg: &TesterCfg,
) -> impl FnMut(CoreSlot, NodeId, usize) -> Box<dyn Component<Message>> {
    let (shared, pool, cfg) = (shared.clone(), pool.to_vec(), cfg.clone());
    move |slot, cache, index| {
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
            cfg.clone(),
        ))
    }
}

/// What the benchmark checks of one finished stress cell.
struct Cell {
    completed: u64,
    data_errors: u64,
    deadlocked: bool,
    report: Report,
}

/// One stress cell through the public layers, each call under its own
/// span, with the kernel profiler on when `tr` is enabled: build → run →
/// report.
fn traced_cell(cfg: &SystemConfig, opts: &StressOpts, tr: &Tracer, parent: u64) -> Cell {
    let cfg = cfg.clone().shrink_caches();
    let accel_cores: usize = cfg
        .accel_slots()
        .iter()
        .map(|slot| accel_core_count(&slot.org, cfg.accel_cores))
        .sum();
    let shared = TesterShared::new(cfg.cpu_cores + accel_cores, opts.ops);
    let pool = word_pool(0x4000, opts.blocks, opts.words_per_block);
    let mut system = {
        let _s = tr.span("build", parent);
        build_system(
            &cfg,
            OsPolicy::ReportOnly,
            None,
            testers(&shared, &pool, &opts.tester),
        )
    };
    if tr.enabled() {
        system.sim.set_profile_config(ProfileConfig::on());
    }
    system.start_cores();
    let out = {
        let _s = tr.span("run", parent);
        system
            .sim
            .run_with_watchdog(opts.max_cycles, opts.stall_bound)
    };
    let report = {
        let _s = tr.span("report", parent);
        system.sim.report()
    };
    let shared = shared.lock().expect("no tester panicked holding the lock");
    let hung = report.sum_suffix(".outstanding") > 0;
    Cell {
        completed: shared.completed(),
        data_errors: shared.data_errors(),
        deadlocked: out.stalled || (!shared.done() && !out.quiescent) || hung,
        report,
    }
}

/// Ops per cell: the library default, which is what `run_stress` users get.
const CELL_OPS: u64 = 2_000;
/// Cells per matrix config in a round, each with its own seed.
const SEEDS_PER_CONFIG: usize = 4;
/// Ops per cell during warm-up (the quick-scale E1 cell length).
const WARMUP_OPS: u64 = 800;

/// The stress-matrix workload.
pub struct StressMatrix {
    cells: Vec<SystemConfig>,
    opts: StressOpts,
    jobs: usize,
}

/// Checks one cell and records it; returns it unless the program refused it.
fn check_cell(
    name: &str,
    target: u64,
    cell: Result<Cell, String>,
    tally: &mut Tally,
) -> Option<Cell> {
    let cell = match cell {
        Ok(c) => c,
        Err(e) => {
            refused(tally, name, e);
            return None;
        }
    };
    let violations = cell.report.sum_suffix(".protocol_violation");
    let status = if cell.deadlocked {
        UnitStatus::Hung
    } else if cell.data_errors > 0 || violations > 0 || cell.completed < target {
        UnitStatus::Failed
    } else {
        UnitStatus::Passed
    };
    tally.record(status, || {
        format!(
            "{name}: completed {}/{target}, {} data errors, {violations} protocol violations",
            cell.completed, cell.data_errors
        )
    });
    Some(cell)
}

fn untraced_cell(cfg: &SystemConfig, opts: &StressOpts) -> Cell {
    let out = run_stress(cfg, opts);
    Cell {
        completed: out.completed,
        data_errors: out.data_errors,
        deadlocked: out.deadlocked,
        report: out.report,
    }
}

impl Workload for StressMatrix {
    fn setup(opts: &Opts, tally: &mut Tally) -> Self {
        let cells: Vec<SystemConfig> = (0..SEEDS_PER_CONFIG)
            .flat_map(|_| SystemConfig::matrix(0))
            .filter(|cfg| cfg.host == HostProtocol::Mesi)
            .enumerate()
            .map(|(i, cfg)| SystemConfig {
                seed: mix(opts.seed, i as u64),
                ..cfg
            })
            .collect();
        let warm = StressOpts {
            ops: WARMUP_OPS,
            ..StressOpts::default()
        };
        let outs = sweep(cells.clone(), opts.jobs, |cfg, _| {
            guarded(|| untraced_cell(&cfg, &warm))
        });
        let mut warm_tally = Tally::default();
        for (cfg, out) in cells.iter().zip(outs) {
            check_cell(&cfg.name(), WARMUP_OPS, out, &mut warm_tally);
        }
        for e in warm_tally.errors {
            tally.error(format!("warm-up: {e}"));
        }
        StressMatrix {
            cells,
            opts: StressOpts {
                ops: CELL_OPS,
                ..StressOpts::default()
            },
            jobs: opts.jobs,
        }
    }

    fn round(&mut self, tr: &Tracer, tally: &mut Tally) -> Round {
        let start = Instant::now();
        let round = tr.span("round", 0);
        let outs = {
            let sw = tr.span("sweep", round.id());
            let (opts, parent) = (&self.opts, sw.id());
            sweep(self.cells.clone(), self.jobs, |cfg, _| {
                let t = Instant::now();
                let cell = if tr.enabled() {
                    let unit = tr.span("unit", parent);
                    guarded(|| traced_cell(&cfg, opts, tr, unit.id()))
                } else {
                    guarded(|| untraced_cell(&cfg, opts))
                };
                (cell, t.elapsed().as_secs_f64() * 1e3)
            })
        };
        let mut r = Round::default();
        let mut profiled = Vec::new();
        for (cfg, (cell, ms)) in self.cells.iter().zip(outs) {
            r.unit_ms.push(ms);
            let Some(cell) = check_cell(&cfg.name(), self.opts.ops, cell, tally) else {
                continue;
            };
            r.ops += cell.completed;
            r.reports
                .push(cell.report.without_guards().without_profile());
            if tr.enabled() {
                profiled.push(cell.report);
            }
        }
        if tr.enabled() {
            let merged = {
                let _s = tr.span("merge", round.id());
                Report::merge_shards(&profiled)
            };
            r.counts = Some(Counts::from_report(&merged, r.ops));
            r.profile = Some(merged);
        }
        drop(round);
        r.work_s = start.elapsed().as_secs_f64();
        if tr.enabled() {
            let (cells, opts) = (&self.cells, &self.opts);
            r.trace_cost = overhead_ratios(cells.len(), self.jobs, tally, |k, t| {
                report_hash(&[], &traced_cell(&cells[k], opts, t, 0).report)
            });
        }
        r
    }
}
