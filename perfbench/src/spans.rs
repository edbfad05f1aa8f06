//! In-memory span recording for the traced run.
//!
//! Spans are taken in the benchmark's own code, around calls into each
//! layer's public functions; the program itself is not instrumented. A
//! disabled [`Tracer`] records nothing and costs one branch per span.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span: a named interval with the span that caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Id of the enclosing span; 0 for a root.
    pub parent: u64,
    /// Layer name (`round`, `unit`, `build`, `run`, ...).
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from any thread.
pub struct Tracer {
    spans: Option<Mutex<Vec<Span>>>,
    next_id: AtomicU64,
    origin: Instant,
}

/// Records its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
}

impl SpanGuard<'_> {
    /// This span's id, to pass as the parent of nested spans (0 when the
    /// tracer is disabled).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        // A poisoned lock (a panicking unit) loses this span rather than
        // panicking again inside `drop`.
        if let Some(Ok(mut spans)) = self.tracer.spans.as_ref().map(Mutex::lock) {
            spans.push(Span {
                id: self.id,
                parent: self.parent,
                name: self.name,
                start_ns: self.start_ns,
                end_ns: self.tracer.now_ns(),
            });
        }
    }
}

impl Tracer {
    /// A tracer that records when `enabled`, and otherwise does nothing.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            spans: enabled.then(|| Mutex::new(Vec::new())),
            next_id: AtomicU64::new(1),
            origin: Instant::now(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` under `parent` (0 for a root).
    pub fn span(&self, name: &'static str, parent: u64) -> SpanGuard<'_> {
        let (id, start_ns) = if self.enabled() {
            (self.next_id.fetch_add(1, Ordering::Relaxed), self.now_ns())
        } else {
            (0, 0)
        };
        SpanGuard {
            tracer: self,
            id,
            parent,
            name,
            start_ns,
        }
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .as_ref()
            .map(|s| s.lock().expect("no span writer panicked").clone())
            .unwrap_or_default()
    }
}

/// Host seconds of `run` with a recording tracer and with a disabled one,
/// back to back, and both results: `((on_s, off_s), on, off)`. The order
/// alternates with `k`, so neither run always finds the caches the other
/// warmed. The recorded spans are discarded.
pub fn on_off<T>(k: usize, run: impl Fn(&Tracer) -> T) -> ((f64, f64), T, T) {
    let timed = |enabled| {
        let tr = Tracer::new(enabled);
        let t = Instant::now();
        let out = run(&tr);
        (out, t.elapsed().as_secs_f64())
    };
    let (on, off) = if k.is_multiple_of(2) {
        let off = timed(false);
        (timed(true), off)
    } else {
        let on = timed(true);
        (on, timed(false))
    };
    ((on.1, off.1), on.0, off.0)
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Self time of each span: its duration minus the part of it that its
/// child spans cover. Overlapping children (parallel workers under one
/// parent) are counted once.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered_ns(s.start_ns, s.end_ns, c));
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// Total self time per span name, in nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let own = self_times(spans);
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0) += own[&s.id];
    }
    out
}

/// Total duration and count per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_insert((0, 0));
        e.0 += s.dur_ns();
        e.1 += 1;
    }
    out
}

/// Spans as JSON lines (`{"id":..,"parent":..,"name":..,"start_ns":..,"end_ns":..}`).
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
            s.id, s.parent, s.name, s.start_ns, s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage() {
        let spans = [
            span(1, 0, "unit", 0, 100),
            span(2, 1, "build", 10, 30),
            span(3, 1, "run", 40, 90),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - 20 - 50);
        assert_eq!(own[&2], 20);
        assert_eq!(own[&3], 50);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two workers under one round span: [10,60) and [20,80) cover 70.
        let spans = [
            span(1, 0, "round", 0, 100),
            span(2, 1, "unit", 10, 60),
            span(3, 1, "unit", 20, 80),
        ];
        assert_eq!(self_times(&spans)[&1], 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [span(1, 0, "round", 50, 100), span(2, 1, "unit", 0, 70)];
        assert_eq!(self_times(&spans)[&1], 30);
    }

    #[test]
    fn grandchildren_do_not_reduce_the_grandparent() {
        let spans = [
            span(1, 0, "round", 0, 100),
            span(2, 1, "unit", 0, 50),
            span(3, 2, "run", 0, 50),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 50);
        assert_eq!(own[&2], 0);
        assert_eq!(self_time_by_name(&spans)["run"], 50);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        {
            let s = t.span("unit", 0);
            assert_eq!(s.id(), 0);
        }
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        {
            let outer = t.span("unit", 0);
            let _inner = t.span("run", outer.id());
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "run");
        assert_eq!(spans[0].parent, spans[1].id);
    }

    #[test]
    fn on_off_runs_both_ways_and_alternates_the_order() {
        for k in 0..2 {
            let order = Mutex::new(Vec::new());
            let (_, on, off) = on_off(k, |t| {
                order.lock().unwrap().push(t.enabled());
                t.enabled()
            });
            assert!(on && !off);
            assert_eq!(*order.lock().unwrap(), [k == 1, k == 0]);
        }
    }
}
