//! # xg-prof — kernel profiling and transaction timelines
//!
//! Observability primitives for the Crossing Guard simulation kernel,
//! answering the two questions every kernel performance change is judged
//! by:
//!
//! * **Where does the events/sec budget go?** — [`Profiler`] keeps
//!   per-component / per-event-class dispatch counters, coarse sampled
//!   host-time attribution, event-queue depth high-water marks, and an epoch
//!   sampler that turns a run into a time series (events per epoch,
//!   progress per epoch, queue depth at each epoch boundary).
//! * **What happened to this transaction?** — [`Timeline`] records
//!   per-address request lifecycle spans and per-component instants and
//!   renders them as Chrome trace-event JSON, loadable in Perfetto
//!   (<https://ui.perfetto.dev>), so a post-mortem is a zoomable timeline
//!   instead of a ring-buffer dump.
//!
//! Both are **off by default and ~free when off**: the kernel guards every
//! profiling touch behind a single `enabled()` branch, and host-time
//! attribution samples wall-clock only every Nth event so even the enabled
//! mode stays cheap. Neither facility draws from the simulation RNG or
//! schedules events, so enabling them cannot perturb a deterministic run.
//!
//! This crate is a leaf: `xg-sim` depends on it, never the reverse. It
//! therefore speaks in component *indices* and lets the simulator supply
//! component names at dump time.

#![forbid(unsafe_code)]

// ---------------------------------------------------------------------------
// Profiler
// ---------------------------------------------------------------------------

/// Profiler configuration, applied at simulator build time (or by a harness
/// immediately after build, before any event runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileConfig {
    /// Master switch. When false the kernel pays one branch per event.
    pub enabled: bool,
    /// Wall-clock-time every Nth dispatched event (coarse TSC-style
    /// sampling). 0 disables host-time attribution entirely; dispatch
    /// counters are still kept.
    pub host_time_sample: u32,
    /// Simulated-cycle length of one epoch for the time-series sampler.
    /// 0 disables the epoch series.
    pub epoch_cycles: u64,
    /// Maximum number of epoch samples retained; later epochs are counted
    /// in `epoch.dropped` rather than growing memory unboundedly.
    pub max_epochs: usize,
}

impl ProfileConfig {
    /// Profiling disabled — the default for every production run.
    pub fn off() -> Self {
        ProfileConfig {
            enabled: false,
            host_time_sample: 64,
            // Short enough that even quick CI-scale stress runs (tens of
            // thousands of simulated cycles) produce a usable series;
            // long runs hit `max_epochs` and count the rest in
            // `epoch.dropped`.
            epoch_cycles: 2_000,
            max_epochs: 256,
        }
    }

    /// Profiling enabled with default sampling bounds.
    pub fn on() -> Self {
        ProfileConfig {
            enabled: true,
            ..Self::off()
        }
    }
}

impl Default for ProfileConfig {
    fn default() -> Self {
        Self::off()
    }
}

/// Per-(component, event-class) dispatch slot.
#[derive(Debug, Clone, Copy, Default)]
struct DispatchSlot {
    /// Events dispatched.
    count: u64,
    /// Nanoseconds measured across the sampled subset of those events.
    sampled_ns: u64,
    /// How many events were wall-clock sampled.
    samples: u64,
}

/// One epoch of the time-series sampler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochSample {
    /// Events dispatched during the epoch.
    pub events: u64,
    /// Forward-progress units reported during the epoch.
    pub progress: u64,
    /// Event-queue depth at the epoch boundary.
    pub queue_depth: u64,
}

/// Kernel profiler owned by the simulator.
///
/// All hot-path methods are `#[inline]` and do nothing when disabled; the
/// simulator additionally guards each call behind [`Profiler::enabled`] so
/// the disabled-mode cost is one branch per event, not one call per touch.
#[derive(Debug)]
pub struct Profiler {
    config: ProfileConfig,
    /// Dispatch rows, indexed by component, each `(class, slot)` and
    /// linear-scanned. A component dispatches a handful of classes and
    /// consecutive events tend to repeat one, so a short scan with a
    /// transpose heuristic beats a tree or hash lookup on the hot path
    /// (this lookup runs once per dispatched event).
    dispatch: Vec<Vec<(&'static str, DispatchSlot)>>,
    /// Deepest the central event queue ever got.
    queue_hwm: u64,
    /// Currently-queued events per target component.
    inflight: Vec<u64>,
    /// High-water mark of `inflight` per target component.
    inflight_hwm: Vec<u64>,
    /// Total events dispatched.
    events_total: u64,
    /// Countdown to the next wall-clock sample.
    sample_countdown: u32,
    epochs: Vec<EpochSample>,
    /// Cycle the current epoch started at.
    epoch_start: u64,
    /// Events dispatched since the current epoch started.
    epoch_events: u64,
    /// Progress total at the start of the current epoch.
    epoch_progress_base: u64,
    /// Epoch samples dropped past `max_epochs`.
    epoch_dropped: u64,
}

impl Profiler {
    /// Creates a profiler with the given configuration.
    pub fn new(config: ProfileConfig) -> Self {
        Profiler {
            config,
            dispatch: Vec::new(),
            queue_hwm: 0,
            inflight: Vec::new(),
            inflight_hwm: Vec::new(),
            events_total: 0,
            sample_countdown: config.host_time_sample,
            epochs: Vec::new(),
            epoch_start: 0,
            epoch_events: 0,
            epoch_progress_base: 0,
            epoch_dropped: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> ProfileConfig {
        self.config
    }

    /// Replaces the configuration. Intended for harnesses that build a
    /// system through a shared constructor and then opt a specific run into
    /// profiling, before the first event is dispatched.
    pub fn set_config(&mut self, config: ProfileConfig) {
        self.config = config;
        self.sample_countdown = config.host_time_sample;
    }

    /// Whether profiling is recording (the kernel's one-branch gate).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.config.enabled
    }

    /// Notes an event entering the central queue for `target`.
    #[inline]
    pub fn note_push(&mut self, target: usize) {
        if target >= self.inflight.len() {
            self.inflight.resize(target + 1, 0);
            self.inflight_hwm.resize(target + 1, 0);
        }
        self.inflight[target] += 1;
        if self.inflight[target] > self.inflight_hwm[target] {
            self.inflight_hwm[target] = self.inflight[target];
        }
    }

    /// Notes an event leaving the central queue for `target`.
    #[inline]
    pub fn note_pop(&mut self, target: usize) {
        if let Some(n) = self.inflight.get_mut(target) {
            *n = n.saturating_sub(1);
        }
    }

    /// Begins accounting one dispatched event. `queue_depth` is the queue
    /// depth *before* the pop. Returns whether this event should be
    /// wall-clock timed (the caller reads the clock so that an untimed
    /// event never touches `Instant`).
    #[inline]
    pub fn begin_event(&mut self, queue_depth: usize) -> bool {
        self.events_total += 1;
        self.epoch_events += 1;
        let depth = queue_depth as u64;
        if depth > self.queue_hwm {
            self.queue_hwm = depth;
        }
        if self.config.host_time_sample == 0 {
            return false;
        }
        self.sample_countdown -= 1;
        if self.sample_countdown == 0 {
            self.sample_countdown = self.config.host_time_sample;
            true
        } else {
            false
        }
    }

    /// Finishes accounting one dispatched event: bumps the dispatch counter
    /// for `(component, class)` and, when the event was sampled, adds the
    /// measured nanoseconds.
    #[inline]
    pub fn end_event(&mut self, component: usize, class: &'static str, elapsed_ns: Option<u64>) {
        if component >= self.dispatch.len() {
            self.dispatch.resize_with(component + 1, Vec::new);
        }
        let rows = &mut self.dispatch[component];
        // Pointer equality first: class labels are interned `&'static str`s
        // from a fixed set, so repeats of the same label share an address.
        let found = rows
            .iter()
            .position(|&(c, _)| std::ptr::eq(c, class) || c == class);
        let at = match found {
            Some(i) => i,
            None => {
                rows.push((class, DispatchSlot::default()));
                rows.len() - 1
            }
        };
        let slot = &mut rows[at].1;
        slot.count += 1;
        if let Some(ns) = elapsed_ns {
            slot.sampled_ns += ns;
            slot.samples += 1;
        }
        // Transpose: hot classes bubble toward the front one step at a
        // time, keeping the scan short without thrashing on alternation.
        if at > 0 {
            rows.swap(at, at - 1);
        }
    }

    /// Advances the epoch sampler to simulated time `now`. `progress` is the
    /// simulation's cumulative progress counter and `queue_depth` the
    /// current queue depth; both are snapshotted at each epoch boundary.
    #[inline]
    pub fn epoch_tick(&mut self, now: u64, progress: u64, queue_depth: usize) {
        let len = self.config.epoch_cycles;
        if len == 0 {
            return;
        }
        while now >= self.epoch_start + len {
            if self.epochs.len() < self.config.max_epochs {
                self.epochs.push(EpochSample {
                    events: self.epoch_events,
                    progress: progress - self.epoch_progress_base,
                    queue_depth: queue_depth as u64,
                });
            } else {
                self.epoch_dropped += 1;
            }
            self.epoch_start += len;
            self.epoch_events = 0;
            self.epoch_progress_base = progress;
        }
    }

    /// Total events dispatched while profiling was enabled.
    pub fn events_total(&self) -> u64 {
        self.events_total
    }

    /// Deepest the central event queue ever got.
    pub fn queue_hwm(&self) -> u64 {
        self.queue_hwm
    }

    /// The recorded epoch series.
    pub fn epochs(&self) -> &[EpochSample] {
        &self.epochs
    }

    /// Renders everything the profiler learned as flat `(key, value)` pairs
    /// for the Report `profile` section. `names[i]` labels component `i`.
    ///
    /// Key vocabulary (the `.hwm` suffix is load-bearing: Report merges
    /// those keys with `max`, everything else with `+`):
    ///
    /// * `events.total` — events dispatched
    /// * `queue.hwm` — central queue depth high-water mark
    /// * `dispatch.<component>.<class>` — per-component/per-class counts
    /// * `host_ns.<component>.<class>` — estimated host nanoseconds
    ///   (sampled ns scaled by the sampling interval; absent when never
    ///   sampled)
    /// * `inflight.<component>.hwm` — queued-events high-water mark per
    ///   target component
    /// * `epoch.<i>.events` / `.progress` / `.qdepth` — time series
    /// * `epoch.dropped` — epochs past the retention cap
    pub fn entries(&self, names: &[String]) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        if self.events_total == 0 && self.dispatch.is_empty() && self.epochs.is_empty() {
            return out;
        }
        let label = |idx: usize| -> String {
            names
                .get(idx)
                .filter(|n| !n.is_empty())
                .cloned()
                .unwrap_or_else(|| format!("node{idx}"))
        };
        out.push(("events.total".to_owned(), self.events_total));
        out.push(("queue.hwm".to_owned(), self.queue_hwm));
        for (idx, rows) in self.dispatch.iter().enumerate() {
            let comp = label(idx);
            for &(class, slot) in rows {
                out.push((format!("dispatch.{comp}.{class}"), slot.count));
                if slot.samples > 0 {
                    // Scale the sampled nanoseconds back up by the sampling
                    // interval to estimate the class's total host time.
                    let est = slot.sampled_ns * u64::from(self.config.host_time_sample.max(1));
                    out.push((format!("host_ns.{comp}.{class}"), est));
                }
            }
        }
        for (idx, &hwm) in self.inflight_hwm.iter().enumerate() {
            if hwm > 0 {
                out.push((format!("inflight.{}.hwm", label(idx)), hwm));
            }
        }
        for (i, ep) in self.epochs.iter().enumerate() {
            out.push((format!("epoch.{i:04}.events"), ep.events));
            out.push((format!("epoch.{i:04}.progress"), ep.progress));
            out.push((format!("epoch.{i:04}.qdepth"), ep.queue_depth));
        }
        if self.epoch_dropped > 0 {
            out.push(("epoch.dropped".to_owned(), self.epoch_dropped));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Timeline (Chrome trace-event JSON)
// ---------------------------------------------------------------------------

/// The process id timeline events use for per-component instant tracks.
pub const PID_COMPONENTS: u64 = 1;
/// The process id timeline events use for per-address lifecycle span tracks.
pub const PID_ADDRESSES: u64 = 2;

/// Timeline configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineConfig {
    /// Maximum events retained; further events are counted in
    /// [`Timeline::dropped`].
    pub max_events: usize,
}

impl TimelineConfig {
    /// Default bounds (plenty for a failure replay window).
    pub fn new() -> Self {
        TimelineConfig {
            max_events: 200_000,
        }
    }
}

impl Default for TimelineConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Phase of a timeline event, mirroring the Chrome trace-event `ph` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TimelinePhase {
    /// `"i"` — a point-in-time marker on a component track.
    Instant,
    /// `"X"` — a complete span with a duration, on an address track.
    Complete {
        /// Span length in simulated cycles.
        dur: u64,
    },
}

/// One recorded timeline event.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TimelineEvent {
    ts: u64,
    pid: u64,
    tid: u64,
    name: String,
    phase: TimelinePhase,
    /// Rendered into the `args` object (Perfetto shows these on click).
    args: Vec<(&'static str, String)>,
}

/// Recorder for Chrome trace-event JSON timelines.
///
/// Two kinds of tracks:
/// * **component tracks** (`pid` [`PID_COMPONENTS`], `tid` = component
///   index) carry instant events — one per protocol trace record;
/// * **address tracks** (`pid` [`PID_ADDRESSES`], `tid` = block address)
///   carry complete spans — one per request lifecycle phase (guard
///   translate, grant, writeback, invalidation round).
///
/// Simulated cycles are emitted as microseconds (`ts`/`dur`), which Perfetto
/// renders 1:1 — read "1 µs" as "1 cycle".
#[derive(Debug)]
pub struct Timeline {
    config: TimelineConfig,
    /// `(pid, tid, name)` thread-name metadata, emitted first.
    tracks: Vec<(u64, u64, String)>,
    events: Vec<TimelineEvent>,
    dropped: u64,
}

impl Timeline {
    /// Creates an empty timeline.
    pub fn new(config: TimelineConfig) -> Self {
        Timeline {
            config,
            tracks: Vec::new(),
            events: Vec::new(),
            dropped: 0,
        }
    }

    /// Names a `(pid, tid)` track (rendered as a thread name in Perfetto).
    pub fn name_track(&mut self, pid: u64, tid: u64, name: impl Into<String>) {
        self.tracks.push((pid, tid, name.into()));
    }

    /// Records an instant event.
    pub fn instant(
        &mut self,
        ts: u64,
        pid: u64,
        tid: u64,
        name: impl Into<String>,
        args: Vec<(&'static str, String)>,
    ) {
        self.push(TimelineEvent {
            ts,
            pid,
            tid,
            name: name.into(),
            phase: TimelinePhase::Instant,
            args,
        });
    }

    /// Records a complete span from `ts` lasting `dur` cycles.
    pub fn complete(
        &mut self,
        ts: u64,
        dur: u64,
        pid: u64,
        tid: u64,
        name: impl Into<String>,
        args: Vec<(&'static str, String)>,
    ) {
        self.push(TimelineEvent {
            ts,
            pid,
            tid,
            name: name.into(),
            phase: TimelinePhase::Complete { dur },
            args,
        });
    }

    fn push(&mut self, ev: TimelineEvent) {
        if self.events.len() >= self.config.max_events {
            self.dropped += 1;
            return;
        }
        self.events.push(ev);
    }

    /// Number of retained events (excluding track metadata).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events discarded past the retention cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Renders the timeline as Chrome trace-event JSON
    /// (`{"traceEvents": [...]}`), loadable in Perfetto.
    ///
    /// Events are sorted by timestamp (stably, so equal-time events keep
    /// record order), which guarantees non-decreasing `ts` within every
    /// `(pid, tid)` track — the invariant trace viewers require.
    pub fn to_json(&self) -> String {
        let mut order: Vec<usize> = (0..self.events.len()).collect();
        order.sort_by_key(|&i| self.events[i].ts);

        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        for (pid, tid, name) in &self.tracks {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"ph\":\"M\",\"ts\":0,\"pid\":{pid},\"tid\":{tid},\
                 \"name\":\"thread_name\",\"args\":{{\"name\":{}}}}}",
                json_string(name)
            ));
        }
        for &i in &order {
            let ev = &self.events[i];
            if !first {
                out.push(',');
            }
            first = false;
            let mut args = String::from("{");
            for (j, (k, v)) in ev.args.iter().enumerate() {
                if j > 0 {
                    args.push(',');
                }
                args.push_str(&format!("{}:{}", json_string(k), json_string(v)));
            }
            args.push('}');
            match ev.phase {
                TimelinePhase::Instant => out.push_str(&format!(
                    "{{\"ph\":\"i\",\"ts\":{},\"pid\":{},\"tid\":{},\"s\":\"t\",\
                     \"name\":{},\"args\":{}}}",
                    ev.ts,
                    ev.pid,
                    ev.tid,
                    json_string(&ev.name),
                    args
                )),
                TimelinePhase::Complete { dur } => out.push_str(&format!(
                    "{{\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\
                     \"name\":{},\"args\":{}}}",
                    ev.ts,
                    dur,
                    ev.pid,
                    ev.tid,
                    json_string(&ev.name),
                    args
                )),
            }
        }
        out.push_str("]}");
        out
    }
}

/// Escapes `s` as a JSON string literal (quotes included).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    #[test]
    fn disabled_profiler_reports_nothing() {
        let p = Profiler::new(ProfileConfig::off());
        assert!(!p.enabled());
        assert!(p.entries(&[]).is_empty());
    }

    #[test]
    fn dispatch_counters_accumulate_per_component_and_class() {
        let mut p = Profiler::new(ProfileConfig {
            host_time_sample: 0,
            ..ProfileConfig::on()
        });
        for _ in 0..3 {
            assert!(!p.begin_event(5));
            p.end_event(0, "GetS", None);
        }
        p.begin_event(9);
        p.end_event(1, "Wake", None);
        let names = vec!["l1".to_owned(), "dir".to_owned()];
        let entries: BTreeMap<String, u64> = p.entries(&names).into_iter().collect();
        assert_eq!(entries["dispatch.l1.GetS"], 3);
        assert_eq!(entries["dispatch.dir.Wake"], 1);
        assert_eq!(entries["events.total"], 4);
        assert_eq!(entries["queue.hwm"], 9);
        assert!(!entries.contains_key("host_ns.l1.GetS"), "never sampled");
    }

    #[test]
    fn host_time_sampling_fires_every_nth_event() {
        let mut p = Profiler::new(ProfileConfig {
            host_time_sample: 4,
            ..ProfileConfig::on()
        });
        let sampled: Vec<bool> = (0..12).map(|_| p.begin_event(0)).collect();
        let hits: Vec<usize> = sampled
            .iter()
            .enumerate()
            .filter(|(_, &s)| s)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(hits, vec![3, 7, 11]);
        p.end_event(0, "x", Some(100));
        let entries: BTreeMap<String, u64> = p.entries(&["c".to_owned()]).into_iter().collect();
        // 100 ns sampled at 1-in-4 → estimated 400 ns.
        assert_eq!(entries["host_ns.c.x"], 400);
    }

    #[test]
    fn inflight_hwm_tracks_per_target_queue_depth() {
        let mut p = Profiler::new(ProfileConfig::on());
        p.note_push(2);
        p.note_push(2);
        p.note_pop(2);
        p.note_push(2);
        p.begin_event(0);
        p.end_event(2, "x", None);
        let names = vec![String::new(), String::new(), "guard".to_owned()];
        let entries: BTreeMap<String, u64> = p.entries(&names).into_iter().collect();
        assert_eq!(entries["inflight.guard.hwm"], 2);
    }

    #[test]
    fn epoch_sampler_emits_a_bounded_series() {
        let mut p = Profiler::new(ProfileConfig {
            epoch_cycles: 100,
            max_epochs: 2,
            host_time_sample: 0,
            ..ProfileConfig::on()
        });
        p.begin_event(0);
        p.epoch_tick(50, 1, 3);
        assert!(p.epochs().is_empty(), "mid-epoch: nothing emitted");
        p.begin_event(0);
        p.epoch_tick(120, 4, 7);
        assert_eq!(
            p.epochs(),
            &[EpochSample {
                events: 2,
                progress: 4,
                queue_depth: 7
            }]
        );
        p.epoch_tick(250, 9, 1);
        assert_eq!(p.epochs().len(), 2);
        assert_eq!(p.epochs()[1].events, 0);
        assert_eq!(p.epochs()[1].progress, 5);
        // Past the cap: dropped, not grown.
        p.epoch_tick(1_000, 9, 0);
        assert_eq!(p.epochs().len(), 2);
        let entries: BTreeMap<String, u64> = p.entries(&[]).into_iter().collect();
        assert_eq!(entries["epoch.0000.events"], 2);
        assert_eq!(entries["epoch.0001.progress"], 5);
        assert!(entries["epoch.dropped"] > 0);
    }

    #[test]
    fn timeline_renders_sorted_chrome_trace_json() {
        let mut tl = Timeline::new(TimelineConfig::new());
        tl.name_track(PID_COMPONENTS, 0, "guard");
        tl.complete(
            40,
            10,
            PID_ADDRESSES,
            0x80,
            "grant",
            vec![("component", "xg".into())],
        );
        tl.instant(90, PID_COMPONENTS, 0, "GetM", vec![("state", "I_M".into())]);
        tl.instant(10, PID_COMPONENTS, 0, "GetS", vec![]);
        let json = tl.to_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":10"));
        // Sorted: the ts=10 instant precedes the ts=40 span.
        let a = json.find("\"ts\":10,").unwrap();
        let b = json.find("\"ts\":40,").unwrap();
        let c = json.find("\"ts\":90,").unwrap();
        assert!(a < b && b < c, "events ordered by ts: {json}");
    }

    #[test]
    fn timeline_is_bounded() {
        let mut tl = Timeline::new(TimelineConfig { max_events: 2 });
        for i in 0..5 {
            tl.instant(i, PID_COMPONENTS, 0, "e", vec![]);
        }
        assert_eq!(tl.len(), 2);
        assert_eq!(tl.dropped(), 3);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
