//! `xg-perfbench` — the repository benchmark: protocol work per host
//! second on two workloads, timed end to end and, in a separate traced
//! run, layer by layer from outside the program.
//!
//! ```text
//! xg-perfbench --workload stress_matrix|accel_e3
//!              --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}`.
//! With `--trace 0` the metrics are the end-to-end ones, with `--trace 1`
//! the per-layer ones. The exit code is nonzero when any output check
//! failed. See `README.md` beside this crate for what each workload and
//! metric means.

#![forbid(unsafe_code)]

mod accel;
mod layers;
mod spans;
mod stats;
mod stress;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use xg_sim::Report;

use layers::{Counts, Layers};
use spans::Tracer;
use stats::{Tally, UnitStatus};

/// Command-line options.
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Workload seed: every input is generated from it.
    pub seed: u64,
    /// Length of the timed window, in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Worker threads passed to the program: every core the process may
    /// use.
    pub jobs: usize,
}

/// Derives an independent 64-bit seed for input `salt` of a run seeded
/// with `seed` (SplitMix64 finalizer).
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Set-up is repeated at least `SETUP_REPEATS` times and, while it has
/// taken less than `SETUP_BUDGET_S` in all, up to `SETUP_MAX_REPEATS`
/// times; `setup_s` is the median, so a short set-up gets more samples.
const SETUP_REPEATS: usize = 5;
const SETUP_BUDGET_S: f64 = 3.0;
const SETUP_MAX_REPEATS: usize = 25;

/// What one round of a workload's fixed inputs produced.
#[derive(Default)]
pub struct Round {
    /// Memory ops completed.
    pub ops: u64,
    /// Host seconds spent on them.
    pub work_s: f64,
    /// Host time of each unit of this round, in ms.
    pub unit_ms: Vec<f64>,
    /// Simulated results, compared exactly across rounds (instrumentation
    /// sections stripped).
    pub reports: Vec<Report>,
    /// Deterministic scalars compared exactly across rounds.
    pub signature: Vec<u64>,
    /// Traced rounds: machine-independent counts, compared exactly across
    /// traced rounds.
    pub counts: Option<Counts>,
    /// Traced rounds: the merged profiled report.
    pub profile: Option<Report>,
    /// Traced rounds: for units run layer by layer with the tracer and
    /// profiler on and again with both off, each unit's on/off time ratio
    /// (see [`overhead_ratios`]).
    pub trace_cost: Vec<f64>,
}

/// One benchmark workload: fixed inputs generated from the seed, run in
/// rounds until the window closes.
pub trait Workload: Sized {
    /// Generates the inputs from the seed and warms up.
    fn setup(opts: &Opts, tally: &mut Tally) -> Self;
    /// Runs one round. With an enabled tracer, the round takes spans and
    /// turns on the program's profiler where the public API allows.
    fn round(&mut self, tr: &Tracer, tally: &mut Tally) -> Round;
    /// Workload-specific per-layer metrics from the traced rounds.
    fn layers(&self, _traced: &[Round], _out: &mut Layers) {}
    /// Human-readable result lines (workload-specific names, model outputs).
    fn notes(&self, _rounds: &[Round]) -> Vec<String> {
        Vec::new()
    }
}

/// FNV-1a over `words`, then a report's scalars and FSM counts (the
/// profile section, which holds sampled host times, is left out).
pub fn report_hash(words: &[u64], report: &Report) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    };
    for w in words {
        eat(&w.to_le_bytes());
    }
    for (key, value) in report.scalars() {
        eat(key.as_bytes());
        eat(&value.to_le_bytes());
    }
    for (machine, cov) in report.fsms() {
        eat(machine.as_bytes());
        for (_, _, n) in cov.iter() {
            eat(&n.to_le_bytes());
        }
    }
    h
}

/// Runs `body` for one unit, turning a panic into a refused unit.
pub fn guarded<T>(body: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)).map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".into())
    })
}

/// The tracing overhead of a traced round. Each of units `0..n` runs layer
/// by layer twice, back to back, with a recording tracer (which turns the
/// profiler on) and with a disabled one, outside the round's spans;
/// `run(k, tracer)` returns a hash of unit `k`'s simulated result, which
/// tracing must not change. Returns each unit's on/off time ratio.
pub fn overhead_ratios(
    n: usize,
    jobs: usize,
    tally: &mut Tally,
    run: impl Fn(usize, &Tracer) -> u64 + Sync,
) -> Vec<f64> {
    let pairs = xg_harness::sweep((0..n).collect(), jobs, |k, _| {
        guarded(|| spans::on_off(k, |t| run(k, t)))
    });
    let mut ratios = Vec::new();
    for (k, pair) in pairs.into_iter().enumerate() {
        match pair {
            Err(e) => tally.error(format!("overhead run {k}: {e}")),
            Ok((_, on, off)) if on != off => {
                tally.error(format!("overhead run {k}: tracing changed the result"))
            }
            Ok(((on_s, off_s), _, _)) => ratios.push(on_s / off_s),
        }
    }
    ratios
}

/// Records a refused unit (a panic inside the program).
pub fn refused(tally: &mut Tally, what: &str, err: String) {
    tally.record(UnitStatus::Refused, || format!("{what}: {err}"));
}

/// Runs rounds until `seconds` have passed (at least one), checking that
/// every round reproduces `first` exactly.
fn timed_rounds<W: Workload>(
    w: &mut W,
    tr: &Tracer,
    seconds: f64,
    first: &mut Option<Round>,
    tally: &mut Tally,
) -> Vec<Round> {
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let mut r = w.round(tr, tally);
        match first {
            None => {
                *first = Some(Round {
                    reports: std::mem::take(&mut r.reports),
                    signature: r.signature.clone(),
                    counts: r.counts.clone(),
                    ..Round::default()
                })
            }
            Some(f) => {
                let n = rounds.len() + 1;
                if f.reports != r.reports || f.signature != r.signature {
                    tally.error(format!("round {n}: simulated results differ from round 1"));
                }
                match (&f.counts, &r.counts) {
                    (Some(a), Some(b)) if a != b => {
                        tally.error(format!("round {n}: counts differ: {a:?} vs {b:?}"))
                    }
                    (None, Some(b)) => f.counts = Some(b.clone()),
                    _ => {}
                }
                r.reports.clear();
            }
        }
        rounds.push(r);
    }
    rounds
}

/// Throughput of each round.
fn round_rates(rounds: &[Round]) -> Vec<f64> {
    rounds.iter().map(|r| r.ops as f64 / r.work_s).collect()
}

/// Throughput over `rounds`: the median of the per-round rates, so a round
/// slowed by a burst of load from outside the process does not move it.
fn ops_per_s(rounds: &[Round]) -> f64 {
    stats::median(&round_rates(rounds))
}

/// Result of one benchmark invocation.
struct Outcome {
    tally: Tally,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

fn measure<W: Workload>(opts: &Opts) -> Outcome {
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut w = None;
    while setups.len() < SETUP_REPEATS
        || (setups.iter().sum::<f64>() < SETUP_BUDGET_S && setups.len() < SETUP_MAX_REPEATS)
    {
        let t = Instant::now();
        w = Some(W::setup(opts, &mut tally));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut w = w.expect("at least one set-up");
    let setup_s = stats::median(&setups);
    let mut first = None;
    let mut notes = vec![format!(
        "setup_s = {setup_s:.4} s (median of {}); jobs = {}",
        setups.len(),
        opts.jobs
    )];
    let metrics = if !opts.trace {
        let off = Tracer::new(false);
        let rounds = timed_rounds(&mut w, &off, opts.seconds, &mut first, &mut tally);
        let units: Vec<f64> = rounds.iter().flat_map(|r| r.unit_ms.clone()).collect();
        let ops_per_s = ops_per_s(&rounds);
        let p50 = stats::median(&units);
        let tail = stats::tail(&units);
        if tail.is_none() {
            tally.error(format!("only {} units: too few for a tail", units.len()));
        }
        let tail = tail.unwrap_or(stats::Tail {
            value: f64::NAN,
            percentile: 0.0,
            samples: units.len(),
        });
        let rss = stats::peak_rss_mb().unwrap_or(f64::NAN);
        let rates: Vec<String> = round_rates(&rounds)
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect();
        notes.push(format!(
            "ops_per_s = {ops_per_s:.2} 1/s, median of {} rounds ({})",
            rounds.len(),
            rates.join(" ")
        ));
        notes.push(format!(
            "unit_p50_ms = {p50:.4} ms, unit_tail_ms = {:.4} ms (p{:.1} of {} units)",
            tail.value, tail.percentile, tail.samples
        ));
        notes.push(format!(
            "peak_rss_mb = {rss:.1} MB; fail_ppm = {:.1} ({} of {} units failed)",
            tally.fail_ppm(),
            tally.failed,
            tally.attempted
        ));
        notes.extend(w.notes(&rounds));
        vec![
            ("ops_per_s".into(), ops_per_s, "1/s"),
            ("unit_p50_ms".into(), p50, "ms"),
            ("unit_tail_ms".into(), tail.value, "ms"),
            ("peak_rss_mb".into(), rss, "MB"),
            ("setup_s".into(), setup_s, "s"),
        ]
    } else {
        // One untraced round, then traced rounds for the rest of the
        // window; every traced round must reproduce the untraced results.
        let start = Instant::now();
        timed_rounds(&mut w, &Tracer::new(false), 0.0, &mut first, &mut tally);
        let rest = opts.seconds - start.elapsed().as_secs_f64();
        let tr = Tracer::new(true);
        let traced = timed_rounds(&mut w, &tr, rest, &mut first, &mut tally);
        let spans = tr.spans();
        let mut out: Layers = layers::names().into_iter().map(|(n, _)| (n, 0.0)).collect();
        let counts = traced.iter().find_map(|r| r.counts.clone());
        let profile = traced.iter().find_map(|r| r.profile.as_ref());
        if let (Some(c), Some(p)) = (&counts, profile) {
            layers::from_counts(&mut out, c, p);
        }
        layers::from_spans(
            &mut out,
            &spans,
            counts
                .as_ref()
                .map_or(0, |c| c.events * traced.len() as u64),
            opts.jobs,
        );
        w.layers(&traced, &mut out);
        let ratios: Vec<f64> = traced.iter().flat_map(|r| r.trace_cost.clone()).collect();
        if ratios.is_empty() {
            tally.error("no unit was timed for the tracing overhead".into());
        }
        let overhead = 100.0 * (stats::median(&ratios) - 1.0);
        notes.push(format!(
            "tracing overhead = {overhead:.2}% (median on/off time ratio of {} units \
             run layer by layer with and without tracing)",
            ratios.len()
        ));
        out.insert("trace.overhead_pct".into(), overhead);
        if let Some(c) = &counts {
            notes.push(format!(
                "counts (repeat exactly per seed): ops={} events={} wakes={} resolves={} queue_hwm={}",
                c.ops, c.events, c.wakes, c.resolves, c.queue_hwm
            ));
        }
        notes.extend(w.notes(&traced));
        match write_spans(opts, &spans) {
            Ok(path) => notes.push(format!("{} spans written to {path}", spans.len())),
            Err(e) => tally.error(format!("writing spans: {e}")),
        }
        let units: BTreeMap<String, &'static str> = layers::names().into_iter().collect();
        out.into_iter()
            .map(|(n, v)| (n.clone(), v, units[&n]))
            .collect()
    };
    Outcome {
        tally,
        metrics,
        notes,
    }
}

/// Writes the recorded spans as JSON lines under `.bench_out/` in the
/// working directory.
fn write_spans(opts: &Opts, spans: &[spans::Span]) -> std::io::Result<String> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("spans-{}-{}.jsonl", opts.workload, opts.seed));
    std::fs::write(&path, spans::to_json_lines(spans))?;
    Ok(path.display().to_string())
}

fn parse_args() -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let value = it.next().ok_or(format!("{arg} needs a value"))?;
        let bad = || format!("bad value {value:?} for {arg}");
        match arg.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {arg}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("xg-perfbench: {e}");
            eprintln!(
                "usage: xg-perfbench --workload stress_matrix|accel_e3 \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match opts.workload.as_str() {
        "stress_matrix" => measure::<stress::StressMatrix>(&opts),
        "accel_e3" => measure::<accel::AccelE3>(&opts),
        other => {
            eprintln!("xg-perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    let mut tally = outcome.tally;
    for (name, value, _) in &outcome.metrics {
        if !stats::valid_metric_name(name) {
            tally.error(format!("invalid metric name {name:?}"));
        }
        if !value.is_finite() {
            tally.error(format!("metric {name} is not a number"));
        }
    }
    let label = if opts.trace { "traced" } else { "end-to-end" };
    println!("# {} seed {} ({label})", opts.workload, opts.seed);
    for line in &outcome.notes {
        println!("# {line}");
    }
    for (name, value, unit) in &outcome.metrics {
        println!("{name} = {value} {unit}");
    }
    for e in &tally.errors {
        println!("# CHECK FAILED: {e}");
        eprintln!("xg-perfbench: check failed: {e}");
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.correct(),
        tally.attempted.max(1),
        tally.failed,
        metrics.join(", ")
    );
    if tally.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_ratios_flag_a_result_that_tracing_changed() {
        let mut tally = Tally::default();
        let ratios = overhead_ratios(4, 2, &mut tally, |k, t| u64::from(k == 3 && t.enabled()));
        assert_eq!(ratios.len(), 3);
        assert!(ratios.iter().all(|r| r.is_finite() && *r > 0.0));
        assert_eq!(tally.errors.len(), 1);
        assert!(tally.errors[0].starts_with("overhead run 3"));
    }
}
