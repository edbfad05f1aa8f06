//! Per-layer metrics: names, units, and their extraction from profiled
//! reports and recorded spans.

use std::collections::BTreeMap;

use xg_sim::{Histogram, Report};

use crate::spans::{self_time_by_name, totals_by_name, Span};

/// Controller families, named after the crates and modules that implement
/// them. The OS model and the adversarial accelerators also have a family,
/// but neither workload dispatches events to them.
pub const FAMILIES: [&str; 6] = [
    "tester",
    "accel_l1",
    "accel_l2",
    "guard",
    "home",
    "cpu_cache",
];

/// Span names whose self time is reported, as `span.<name>.self_ppt`.
pub const SPAN_NAMES: [&str; 7] = ["round", "sweep", "unit", "build", "run", "report", "merge"];

/// Every per-layer metric the traced run prints, with its unit. A metric
/// of a layer the workload does not exercise reads 0.
pub fn names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("tester.wakes_per_op", "count"),
        ("sim.run_ms", "ms"),
        ("sim.events_per_op", "count"),
        ("sim.ns_per_event", "ns"),
        ("sim.queue_hwm", "count"),
        ("harness.build_us", "us"),
        ("harness.report_us", "us"),
        ("harness.merge_us", "us"),
        ("harness.sweep_busy_ppt", "ppt"),
        ("fsm.resolves_per_op", "count"),
        ("accel_l1.miss_ratio", "ratio"),
        ("accel_l1.miss_cycles_p50", "cycles"),
        ("accel_l1.miss_cycles_p99", "cycles"),
        ("guard.grant_cycles_p50", "cycles"),
        ("guard.grant_cycles_p99", "cycles"),
        ("guard.host_rtt_cycles_p50", "cycles"),
        ("guard.host_rtt_cycles_p99", "cycles"),
        ("home.busy_cycles_p50", "cycles"),
        ("xg_slowdown", "ratio"),
        ("trace.overhead_pct", "%"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for f in FAMILIES {
        out.push((format!("{f}.events_per_op"), "count"));
        out.push((format!("{f}.host_share_ppt"), "ppt"));
    }
    for s in SPAN_NAMES {
        out.push((format!("span.{s}.self_ppt"), "ppt"));
    }
    out
}

/// The family a simulated component belongs to, from its report name.
/// Multi-accelerator instance prefixes (`a1_`, `a2_`, ...) are ignored.
pub fn family(component: &str) -> Option<&'static str> {
    let c = match component.split_once('_') {
        Some((p, rest)) if p.len() > 1 && p[1..].bytes().all(|b| b.is_ascii_digit()) => rest,
        _ => component,
    };
    Some(match c {
        _ if c.starts_with("tester_") || c.starts_with("wl_") || c == "probe" => "tester",
        _ if c.starts_with("accel_l1") || c == "accel_cache" => "accel_l1",
        "accel_l2" => "accel_l2",
        "xg" => "guard",
        _ if c.starts_with("dir") || c.starts_with("host_l2") || c.starts_with("l2b") => "home",
        _ if c.starts_with("cpu_cache") || c == "hostside_cache" => "cpu_cache",
        "os" => "os",
        _ if c.starts_with("fuzz") || c == "chaos" => "fuzzer",
        _ => return None,
    })
}

/// Machine-independent counts from a profiled report: they repeat exactly
/// for the same inputs, so later claims can cite them beside wall clock.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// The workload's operation count (the `*_per_op` denominator).
    pub ops: u64,
    /// Kernel events dispatched.
    pub events: u64,
    /// `Wake` events dispatched to traffic generators.
    pub wakes: u64,
    /// Highest event-queue depth seen.
    pub queue_hwm: u64,
    /// FSM resolves (sum of transition-coverage counts).
    pub resolves: u64,
    /// Events dispatched per controller family.
    pub family_events: BTreeMap<&'static str, u64>,
}

impl Counts {
    /// Counts from a (merged) profiled report, over `ops` operations.
    pub fn from_report(report: &Report, ops: u64) -> Counts {
        let mut c = Counts {
            ops,
            events: report.profile_get("events.total"),
            queue_hwm: report.profile_get("queue.hwm"),
            ..Counts::default()
        };
        for (key, n) in report.profile_entries() {
            let Some((comp, class)) = key
                .strip_prefix("dispatch.")
                .and_then(|rest| rest.split_once('.'))
            else {
                continue;
            };
            let Some(f) = family(comp) else { continue };
            *c.family_events.entry(f).or_insert(0) += n;
            if f == "tester" && class == "Wake" {
                c.wakes += n;
            }
        }
        c.resolves = report
            .fsms()
            .map(|(_, cov)| cov.iter().map(|(_, _, n)| n).sum::<u64>())
            .sum();
        c
    }
}

/// Sampled host nanoseconds per controller family (informational: the
/// profiler samples one event in 64, so these do not repeat exactly).
pub fn family_host_ns(report: &Report) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (key, n) in report.profile_entries() {
        let Some(comp) = key
            .strip_prefix("host_ns.")
            .and_then(|rest| rest.split_once('.'))
            .map(|(comp, _)| comp)
        else {
            continue;
        };
        if let Some(f) = family(comp) {
            *out.entry(f).or_insert(0) += n;
        }
    }
    out
}

/// The merged histogram of every component of `fam` whose histogram key
/// ends in `suffix`.
fn family_hist(report: &Report, fam: &str, suffix: &str) -> Histogram {
    let mut h = Histogram::new();
    for (key, hist) in report.hists() {
        if let Some(comp) = key.strip_suffix(suffix) {
            if family(comp) == Some(fam) {
                h.merge(hist);
            }
        }
    }
    h
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-layer metric values, keyed by name.
pub type Layers = BTreeMap<String, f64>;

/// Fills the count-, histogram- and profile-derived layers from a traced
/// round's counts and merged profiled report.
pub fn from_counts(out: &mut Layers, counts: &Counts, report: &Report) {
    let ops = counts.ops;
    out.insert("tester.wakes_per_op".into(), ratio(counts.wakes, ops));
    out.insert("sim.events_per_op".into(), ratio(counts.events, ops));
    out.insert("sim.queue_hwm".into(), counts.queue_hwm as f64);
    out.insert("fsm.resolves_per_op".into(), ratio(counts.resolves, ops));
    let host_ns = family_host_ns(report);
    let total_ns: u64 = host_ns.values().sum();
    for f in FAMILIES {
        let events = counts.family_events.get(f).copied().unwrap_or(0);
        out.insert(format!("{f}.events_per_op"), ratio(events, ops));
        let ns = host_ns.get(f).copied().unwrap_or(0);
        out.insert(format!("{f}.host_share_ppt"), 1000.0 * ratio(ns, total_ns));
    }

    let (mut misses, mut accesses) = (0u64, 0u64);
    for (key, n) in report.scalars() {
        if let Some((comp, stat)) = key.rsplit_once('.') {
            if family(comp) == Some("accel_l1") {
                match stat {
                    "misses" => misses += n,
                    "loads" | "stores" => accesses += n,
                    _ => {}
                }
            }
        }
    }
    out.insert("accel_l1.miss_ratio".into(), ratio(misses, accesses));
    let quantiles = [
        ("accel_l1", ".lat.miss", "accel_l1.miss_cycles"),
        ("guard", ".lat.grant", "guard.grant_cycles"),
        ("guard", ".lat.host_rtt", "guard.host_rtt_cycles"),
    ];
    for (fam, suffix, name) in quantiles {
        let h = family_hist(report, fam, suffix);
        out.insert(format!("{name}_p50"), h.quantile(0.5) as f64);
        out.insert(format!("{name}_p99"), h.quantile(0.99) as f64);
    }
    let busy = family_hist(report, "home", ".lat.busy");
    out.insert("home.busy_cycles_p50".into(), busy.quantile(0.5) as f64);
}

/// Fills the span-derived layers: mean time per call of each timed layer,
/// kernel time per event, sweep busy share, and self time per span name.
pub fn from_spans(out: &mut Layers, spans: &[Span], events: u64, jobs: usize) {
    let totals = totals_by_name(spans);
    let mean = |name: &str, scale: f64| {
        totals
            .get(name)
            .map_or(0.0, |&(ns, n)| ns as f64 / n as f64 / scale)
    };
    let total = |name: &str| totals.get(name).map_or(0, |&(ns, _)| ns);
    out.insert("sim.run_ms".into(), mean("run", 1e6));
    out.insert("sim.ns_per_event".into(), ratio(total("run"), events));
    out.insert("harness.build_us".into(), mean("build", 1e3));
    out.insert("harness.report_us".into(), mean("report", 1e3));
    out.insert("harness.merge_us".into(), mean("merge", 1e3));

    let own = self_time_by_name(spans);
    let own_total: u64 = own.values().sum();
    for s in SPAN_NAMES {
        let ns = own.get(s).copied().unwrap_or(0);
        out.insert(format!("span.{s}.self_ppt"), 1000.0 * ratio(ns, own_total));
    }
    // Share of the sweeping rounds' worker capacity spent inside units.
    let sweep_ns = total("sweep");
    let busy = 1000.0 * ratio(total("unit"), sweep_ns * jobs as u64);
    out.insert("harness.sweep_busy_ppt".into(), busy);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_cover_every_component_name_in_use() {
        let cases = [
            ("tester_cpu0", "tester"),
            ("tester_acc1", "tester"),
            ("wl_acc0", "tester"),
            ("probe", "tester"),
            ("accel_l1", "accel_l1"),
            ("accel_l1_1", "accel_l1"),
            ("accel_cache", "accel_l1"),
            ("a2_accel_l1", "accel_l1"),
            ("accel_l2", "accel_l2"),
            ("xg", "guard"),
            ("a1_xg", "guard"),
            ("dir", "home"),
            ("dir3", "home"),
            ("host_l2", "home"),
            ("l2b1", "home"),
            ("cpu_cache0", "cpu_cache"),
            ("hostside_cache", "cpu_cache"),
            ("os", "os"),
            ("fuzz_accel", "fuzzer"),
            ("fuzz_host", "fuzzer"),
            ("chaos", "fuzzer"),
        ];
        for (name, fam) in cases {
            assert_eq!(family(name), Some(fam), "{name}");
        }
        assert_eq!(family("mystery"), None);
    }

    #[test]
    fn every_layer_name_is_valid_and_unique() {
        let names = names();
        let unique: std::collections::BTreeSet<_> = names.iter().map(|(n, _)| n).collect();
        assert_eq!(unique.len(), names.len());
        assert!(names.len() <= 128);
        for (n, _) in &names {
            assert!(crate::stats::valid_metric_name(n), "{n}");
        }
    }
}
