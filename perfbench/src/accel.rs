//! `accel_e3`: the E3 question — what a Crossing Guard costs an
//! accelerator — as long event-driven simulations built directly through
//! `build_system`.

use std::collections::BTreeMap;
use std::time::Instant;

use xg_core::{OsPolicy, XgVariant};
use xg_harness::system::CoreSlot;
use xg_harness::{
    build_system, sweep, AccelOrg, HostProtocol, Pattern, SystemConfig, WorkloadCore,
};
use xg_sim::{ProfileConfig, Report};

use crate::layers::{Counts, Layers};
use crate::spans::Tracer;
use crate::stats::{Tally, UnitStatus};
use crate::{guarded, mix, overhead_ratios, refused, report_hash, Opts, Round, Workload};

/// Accelerator accesses per core per cell.
const ACCEL_OPS: u64 = 100_000;
/// Accesses per core during warm-up.
const WARMUP_OPS: u64 = 10_000;
/// Accelerator footprint in 8-byte words: 64 KiB, four times the default
/// 64-set × 4-way accelerator L1 (256 blocks = 2048 words).
const FOOTPRINT: u64 = 8192;
/// Base of the footprint; CPUs run producer-consumer over the same range.
const BASE: u64 = 0x10_0000;
/// Simulation budget and progress watchdog, as the harness's own runner.
const MAX_CYCLES: u64 = 200_000_000;
const STALL_BOUND: u64 = 1_000_000;

/// The unsafe baseline and the two guard variants, one-level. (Two-level
/// guarded hierarchies under producer-consumer sharing do not finish on
/// some seeds at this footprint; see README.md, open findings.)
fn orgs() -> [AccelOrg; 3] {
    [
        AccelOrg::AccelSide,
        AccelOrg::Xg {
            variant: XgVariant::FullState,
            two_level: false,
        },
        AccelOrg::Xg {
            variant: XgVariant::Transactional,
            two_level: false,
        },
    ]
}

/// One cell: a host, an organization and the accelerator's pattern.
#[derive(Clone)]
struct CellSpec {
    cfg: SystemConfig,
    pattern: Pattern,
}

impl CellSpec {
    fn name(&self) -> String {
        format!("{}/{}", self.cfg.name(), self.pattern.name())
    }
}

/// What the benchmark checks of one finished accel cell.
struct Cell {
    stalled: bool,
    unfinished: usize,
    accel_ops: u64,
    runtime: u64,
    report: Report,
}

fn run_cell(spec: &CellSpec, ops: u64, tr: &Tracer, parent: u64) -> Cell {
    let pattern = spec.pattern;
    let mut system = {
        let _s = tr.span("build", parent);
        build_system(
            &spec.cfg,
            OsPolicy::ReportOnly,
            None,
            |slot, cache, _| match slot {
                CoreSlot::Cpu(i) => Box::new(WorkloadCore::new(
                    format!("wl_cpu{i}"),
                    cache,
                    Pattern::ProducerConsumer,
                    BASE,
                    FOOTPRINT,
                    ops / 4,
                )),
                CoreSlot::Accel(i) => Box::new(WorkloadCore::new(
                    format!("wl_acc{i}"),
                    cache,
                    pattern,
                    BASE,
                    FOOTPRINT,
                    ops,
                )),
            },
        )
    };
    if tr.enabled() {
        system.sim.set_profile_config(ProfileConfig::on());
    }
    system.start_cores();
    let out = {
        let _s = tr.span("run", parent);
        system.sim.run_with_watchdog(MAX_CYCLES, STALL_BOUND)
    };
    let (mut runtime, mut accel_ops, mut unfinished) = (0, 0, 0);
    for &core in &system.accel_cores {
        let wl = system
            .sim
            .get::<WorkloadCore>(core)
            .expect("accel cores are workload cores");
        accel_ops += wl.completed();
        match wl.done_at() {
            Some(done) => runtime = runtime.max(done.as_u64()),
            None => unfinished += 1,
        }
    }
    let report = {
        let _s = tr.span("report", parent);
        system.sim.report()
    };
    Cell {
        stalled: out.stalled,
        unfinished,
        accel_ops,
        runtime,
        report,
    }
}

/// Checks one cell and records it; returns it unless the program refused it.
fn check_cell(
    spec: &CellSpec,
    ops: u64,
    cell: Result<Cell, String>,
    tally: &mut Tally,
) -> Option<Cell> {
    let name = spec.name();
    let cell = match cell {
        Ok(c) => c,
        Err(e) => {
            refused(tally, &name, e);
            return None;
        }
    };
    let cores = xg_harness::accel_core_count(&spec.cfg.accel, spec.cfg.accel_cores) as u64;
    let violations = cell.report.sum_suffix(".protocol_violation");
    let os_errors = cell.report.get("os.errors_total");
    let status = if cell.stalled || cell.unfinished > 0 {
        UnitStatus::Hung
    } else if violations > 0 || os_errors > 0 || cell.accel_ops != ops * cores {
        UnitStatus::Failed
    } else {
        UnitStatus::Passed
    };
    tally.record(status, || {
        format!(
            "{name}: stalled={} unfinished={} ops={}/{} violations={violations} os_errors={os_errors}",
            cell.stalled,
            cell.unfinished,
            cell.accel_ops,
            ops * cores
        )
    });
    Some(cell)
}

/// The accel-E3 workload.
pub struct AccelE3 {
    cells: Vec<CellSpec>,
    jobs: usize,
}

impl AccelE3 {
    /// Guarded runtime over accelerator-side runtime, summed over matched
    /// (host, pattern) cells, from a round's per-cell runtimes; overall
    /// and per guarded organization.
    fn slowdowns(&self, runtimes: &[u64]) -> (f64, BTreeMap<String, f64>) {
        let mut baseline = BTreeMap::new();
        for (spec, &rt) in self.cells.iter().zip(runtimes) {
            if spec.cfg.accel == AccelOrg::AccelSide {
                baseline.insert((spec.cfg.host.tag(), spec.pattern.name()), rt);
            }
        }
        let (mut guarded, mut base) = (0u64, 0u64);
        let mut per_org: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for (spec, &rt) in self.cells.iter().zip(runtimes) {
            if spec.cfg.accel == AccelOrg::AccelSide {
                continue;
            }
            let b = baseline[&(spec.cfg.host.tag(), spec.pattern.name())];
            guarded += rt;
            base += b;
            let e = per_org.entry(spec.cfg.accel.tag()).or_default();
            e.0 += rt;
            e.1 += b;
        }
        let ratio = |g: u64, b: u64| g as f64 / b.max(1) as f64;
        let per_org = per_org
            .into_iter()
            .map(|(org, (g, b))| (org, ratio(g, b)))
            .collect();
        (ratio(guarded, base), per_org)
    }

    fn run_round(&self, ops: u64, tr: &Tracer, tally: &mut Tally) -> Round {
        let start = Instant::now();
        let round = tr.span("round", 0);
        let outs = {
            let sw = tr.span("sweep", round.id());
            let parent = sw.id();
            sweep(self.cells.clone(), self.jobs, |spec, _| {
                let t = Instant::now();
                let unit = tr.span("unit", parent);
                let cell = guarded(|| run_cell(&spec, ops, tr, unit.id()));
                drop(unit);
                (cell, t.elapsed().as_secs_f64() * 1e3)
            })
        };
        let mut r = Round::default();
        let mut profiled = Vec::new();
        for (spec, (cell, ms)) in self.cells.iter().zip(outs) {
            r.unit_ms.push(ms);
            let Some(cell) = check_cell(spec, ops, cell, tally) else {
                r.signature.push(0);
                continue;
            };
            r.ops += cell.accel_ops;
            r.signature.push(cell.runtime);
            if tr.enabled() {
                r.reports.push(cell.report.without_profile());
                profiled.push(cell.report);
            } else {
                r.reports.push(cell.report);
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
            let cells = &self.cells;
            r.trace_cost = overhead_ratios(cells.len(), self.jobs, tally, |k, t| {
                report_hash(&[], &run_cell(&cells[k], ops, t, 0).report)
            });
        }
        r
    }
}

impl Workload for AccelE3 {
    fn setup(opts: &Opts, tally: &mut Tally) -> Self {
        let mut cells = Vec::new();
        for host in [HostProtocol::Hammer, HostProtocol::Mesi] {
            for accel in orgs() {
                for pattern in [Pattern::GraphWalk, Pattern::ProducerConsumer] {
                    cells.push(CellSpec {
                        cfg: SystemConfig {
                            host,
                            accel: accel.clone(),
                            seed: mix(opts.seed, cells.len() as u64),
                            ..SystemConfig::default()
                        },
                        pattern,
                    });
                }
            }
        }
        let w = AccelE3 {
            cells,
            jobs: opts.jobs,
        };
        let mut warm_tally = Tally::default();
        w.run_round(WARMUP_OPS, &Tracer::new(false), &mut warm_tally);
        for e in warm_tally.errors {
            tally.error(format!("warm-up: {e}"));
        }
        w
    }

    fn round(&mut self, tr: &Tracer, tally: &mut Tally) -> Round {
        self.run_round(ACCEL_OPS, tr, tally)
    }

    fn layers(&self, traced: &[Round], out: &mut Layers) {
        if let Some(r) = traced.first() {
            out.insert("xg_slowdown".into(), self.slowdowns(&r.signature).0);
        }
    }

    fn notes(&self, rounds: &[Round]) -> Vec<String> {
        let Some(r) = rounds.first() else {
            return Vec::new();
        };
        let (all, per_org) = self.slowdowns(&r.signature);
        let mut notes = vec![format!(
            "xg_slowdown = {all:.4} (simulated runtime ratio, guarded / accel-side; \
             unvalidated model output, no reference hardware, no error figure)"
        )];
        for (org, s) in per_org {
            notes.push(format!("xg_slowdown[{org}] = {s:.4}"));
        }
        notes
    }
}
