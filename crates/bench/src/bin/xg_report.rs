//! Regenerates every table and figure of the Crossing Guard evaluation.
//!
//! ```text
//! cargo run --release -p xg-bench --bin xg-report                      # full scale
//! cargo run --release -p xg-bench --bin xg-report -- quick             # CI scale
//! cargo run --release -p xg-bench --bin xg-report -- quick --json out.json
//! cargo run --release -p xg-bench --bin xg-report -- quick --jobs 4
//! cargo run --release -p xg-bench --bin xg-report -- quick --coverage
//! cargo run --release -p xg-bench --bin xg-report -- quick --profile
//! cargo run --release -p xg-bench --bin xg-report -- quick --timeline trace.json
//! ```
//!
//! Output feeds `EXPERIMENTS.md`. With `--json <path>`, a machine-readable
//! run report (scalars, coverage, latency histograms) is also written.
//!
//! `--coverage` skips the experiment suite and instead prints the
//! per-machine transition-coverage tables of the merged stress report: how
//! many declared `(state, event)` rows of each table-driven controller
//! fired, and which never did. Combine with `--json` to also write the
//! machine-readable report (the same data under its `fsm` key).
//!
//! `--profile` runs the 12-configuration stress matrix with kernel
//! profiling enabled and prints the hot-path attribution table: the top
//! event types by dispatch count, with sampled host-time attribution.
//! Combine with `--json` to write the full profiled report.
//!
//! `--timeline PATH` records one representative guarded stress run with
//! per-address transaction timelines on and writes Chrome trace-event
//! JSON to PATH — load it in Perfetto (ui.perfetto.dev) or
//! `chrome://tracing`.
//!
//! `--jobs N` (or `XG_JOBS=N`) fans the independent simulations of each
//! experiment across N worker threads; `0` or omitted means all available
//! cores, `1` is the exact legacy serial path. Output is byte-identical at
//! any worker count.
//!
//! Exit status: `0` only if every regression gate passes. Deadlocked
//! stress cells, protected-configuration fuzz violations, incomplete
//! timeout recoveries, or nonzero error counters exit `1` so CI fails.

use xg_bench::experiments::*;
use xg_bench::Scale;

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).map(|i| {
        args.get(i + 1)
            .unwrap_or_else(|| {
                eprintln!("{flag} requires a value argument");
                std::process::exit(2);
            })
            .clone()
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = if args.iter().any(|a| a == "quick") {
        Scale::Quick
    } else {
        Scale::Full
    };
    let json_path = arg_value(&args, "--json");
    let jobs = match arg_value(&args, "--jobs") {
        Some(raw) => xg_harness::resolve_jobs(Some(xg_harness::sweep::parse_jobs(&raw))),
        None => xg_harness::resolve_jobs(None),
    };
    if args.iter().any(|a| a == "--profile") {
        let report = xg_bench::profile::collect_profile_jobs(scale, jobs);
        print!("{}", xg_bench::profile::profile_table(&report, 12));
        if let Some(path) = json_path {
            if let Err(e) = std::fs::write(&path, report.to_json()) {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
            println!("machine-readable report written to {path}");
        }
        return;
    }
    if let Some(path) = arg_value(&args, "--timeline") {
        let trace = xg_bench::profile::capture_timeline(scale, 11);
        if let Err(e) = std::fs::write(&path, &trace) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("timeline written to {path} — open it in Perfetto (ui.perfetto.dev) or chrome://tracing");
        return;
    }
    if args.iter().any(|a| a == "--coverage") {
        let report = xg_bench::collect_report_jobs(scale, jobs);
        print!("{}", xg_bench::coverage_tables(&report));
        if let Some(path) = json_path {
            if let Err(e) = std::fs::write(&path, report.to_json()) {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
            println!("machine-readable report written to {path}");
        }
        return;
    }
    println!("Crossing Guard evaluation report (scale: {scale:?}, jobs: {jobs})");
    println!("====================================================\n");

    let mut gate_failures: Vec<String> = Vec::new();

    let rows = e1_stress::run_jobs(scale, &[1, 2], jobs);
    println!("{}", e1_stress::table(&rows));
    gate_failures.extend(e1_stress::failures(&rows));

    let rows = e2_fuzz::run_jobs(scale, 5, jobs);
    println!("{}", e2_fuzz::table(&rows));
    gate_failures.extend(e2_fuzz::failures(&rows));

    let (rows, campaign_summary) = e2_campaign::run_jobs(scale, 0xC4A55, jobs);
    println!("{}", e2_campaign::table(&rows));
    gate_failures.extend(e2_campaign::failures(&rows));

    let series = e3_performance::run_jobs(scale, 9, jobs);
    println!("{}", e3_performance::table(&series));

    let rows = e4_storage::run_jobs(scale, 3, jobs);
    println!("{}", e4_storage::table(&rows));

    let rows = e5_puts::run_jobs(scale, 4, jobs);
    println!("{}", e5_puts::table(&rows));

    let rows = e6_rate_limit::run_jobs(scale, 6, jobs);
    println!("{}", e6_rate_limit::table(&rows));

    let rows = e8_timeout::run_jobs(scale, 7, jobs);
    println!("{}", e8_timeout::table(&rows));
    gate_failures.extend(e8_timeout::failures(&rows));

    let rows = e9_blocksize::run_jobs(scale, 8, jobs);
    println!("{}", e9_blocksize::table(&rows));
    gate_failures.extend(e9_blocksize::failures(&rows));

    let rows = e11_prefetch::run_jobs(scale, 5, jobs);
    println!("{}", e11_prefetch::table(&rows));
    gate_failures.extend(e11_prefetch::failures(&rows));

    let (rows, blast_summary) = e12_blast_radius::run_jobs(scale, 12, jobs);
    println!("{}", e12_blast_radius::table(&rows));
    gate_failures.extend(e12_blast_radius::failures(&rows));

    let (rows, scaling_summary) = e13_scaling::run_jobs(scale, 13, jobs);
    println!("{}", e13_scaling::table(&rows));
    gate_failures.extend(e13_scaling::failures(&rows));

    if let Some(path) = json_path {
        let mut report = xg_bench::collect_report_jobs(scale, jobs);
        report.merge(&campaign_summary);
        report.merge(&blast_summary);
        report.merge(&scaling_summary);
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("machine-readable report written to {path}");
    }

    if !gate_failures.is_empty() {
        eprintln!("\nREGRESSION GATES FAILED ({}):", gate_failures.len());
        for f in &gate_failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
