//! The simulator proper: builder, event loop, and component context.

use std::collections::HashMap;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use xg_prof::{ProfileConfig, Profiler, Timeline, TimelineConfig, PID_ADDRESSES, PID_COMPONENTS};

use crate::component::{Component, NodeId};
use crate::event::{EventKind, Pending};
use crate::link::Link;
use crate::queue::{CalendarQueue, QueueStats};
use crate::report::Report;
use crate::slab::{Slab, SlabId};
use crate::time::Cycle;
use crate::trace::{TraceConfig, Tracer};

/// Tally of link faults injected during a run (see [`crate::FaultSpec`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkFaultCounts {
    /// Messages silently discarded.
    pub dropped: u64,
    /// Messages delivered twice.
    pub duplicated: u64,
    /// Messages delayed by a spike.
    pub delay_spikes: u64,
    /// Reorder bursts opened (the held victim message).
    pub reorder_bursts: u64,
    /// Messages fast-tracked past a burst victim.
    pub burst_overtakes: u64,
}

impl LinkFaultCounts {
    /// Total faults of any kind.
    pub fn total(&self) -> u64 {
        self.dropped + self.duplicated + self.delay_spikes + self.reorder_bursts
    }
}

/// Outcome of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// True if the event queue drained completely (no work left).
    pub quiescent: bool,
    /// True if the run was stopped by the progress watchdog: the queue was
    /// still churning but no component reported forward progress for the
    /// configured bound. This is how the harness detects protocol deadlock
    /// and livelock without hanging the host process.
    pub stalled: bool,
    /// Simulated time when the run stopped.
    pub now: Cycle,
    /// Number of events processed during this call.
    pub events: u64,
}

/// Deferred effect produced by a component while handling an event.
///
/// Message payloads are parked in the simulator's [`Slab`] the moment the
/// component emits them (see [`Ctx::send`]), so effects — like queued
/// events — are small and constant-sized.
enum Effect {
    Send {
        to: NodeId,
        msg: SlabId,
        extra_delay: u64,
    },
    Wake {
        delay: u64,
        token: u64,
    },
    Redeliver {
        from: NodeId,
        msg: SlabId,
        delay: u64,
    },
}

/// The execution context handed to a component while it handles an event.
///
/// All interaction with the outside world — sending messages, arming timers,
/// drawing random numbers, reporting progress — goes through the context.
/// Effects are applied after the handler returns, so a component never
/// observes partially-applied state.
pub struct Ctx<'a, M> {
    now: Cycle,
    self_id: NodeId,
    self_name: &'a str,
    effects: &'a mut Vec<Effect>,
    msgs: &'a mut Slab<M>,
    rng: &'a mut SmallRng,
    progress: &'a mut u64,
    tracer: &'a mut Tracer,
}

impl<M> Ctx<'_, M> {
    /// Current simulated time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The id of the component being invoked.
    pub fn self_id(&self) -> NodeId {
        self.self_id
    }

    /// Sends `msg` to `to` over the configured link (latency drawn from the
    /// link's range when the effect is applied). The payload is parked in
    /// the simulator's message slab immediately; the effect and the queued
    /// event carry only its 4-byte handle.
    pub fn send(&mut self, to: NodeId, msg: M) {
        let msg = self.msgs.insert(msg);
        self.effects.push(Effect::Send {
            to,
            msg,
            extra_delay: 0,
        });
    }

    /// Sends `msg` to `to` with `extra_delay` cycles added on top of the
    /// link latency (used to model lookup/occupancy latency at the sender,
    /// e.g. a memory access before the response leaves the controller).
    pub fn send_after(&mut self, to: NodeId, msg: M, extra_delay: u64) {
        let msg = self.msgs.insert(msg);
        self.effects.push(Effect::Send {
            to,
            msg,
            extra_delay,
        });
    }

    /// Arms a timer: the component's `wake(token)` runs `delay` cycles from
    /// now (minimum one cycle).
    pub fn wake_in(&mut self, delay: u64, token: u64) {
        self.effects.push(Effect::Wake { delay, token });
    }

    /// Re-delivers `msg` to *this* component after `delay` cycles, preserving
    /// the original sender. This models a controller stalling/recycling a
    /// message it cannot process in its current state.
    pub fn redeliver(&mut self, from: NodeId, msg: M, delay: u64) {
        let msg = self.msgs.insert(msg);
        self.effects.push(Effect::Redeliver { from, msg, delay });
    }

    /// Deterministic simulation RNG. With the default global stream this is
    /// shared by the whole simulation, drawn in event order; with
    /// per-component streams (the model checker's layout, see
    /// [`crate::SimBuilder::per_component_rng`]) it is this component's own
    /// stream, so one component's draws never perturb another's.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// Records one unit of forward progress (e.g. a completed memory
    /// operation). The progress watchdog in
    /// [`Simulator::run_with_watchdog`] uses this to distinguish a busy
    /// system from a deadlocked or livelocked one.
    pub fn note_progress(&mut self) {
        *self.progress += 1;
    }

    /// Whether protocol tracing (ring recording or a timeline) is
    /// recording. Instrumented controllers can use this to skip preparing
    /// trace-only data.
    #[inline]
    pub fn trace_active(&self) -> bool {
        self.tracer.enabled() || self.tracer.timeline().is_some()
    }

    /// Records a protocol trace event for `addr`. The `detail` closure is
    /// evaluated only when tracing is on, so a disabled tracer costs one
    /// branch per call site. When a timeline is installed, the event also
    /// lands as an instant on this component's timeline track.
    #[inline]
    pub fn trace(&mut self, addr: u64, state: &str, event: &str, detail: impl FnOnce() -> String) {
        let ring = self.tracer.enabled();
        let timeline = self.tracer.timeline().is_some();
        if !ring && !timeline {
            return;
        }
        let detail = detail();
        if timeline {
            let tl = self.tracer.timeline_mut().expect("checked above");
            tl.instant(
                self.now.as_u64(),
                PID_COMPONENTS,
                self.self_id.index() as u64,
                event,
                vec![
                    ("addr", format!("{addr:#x}")),
                    ("state", state.to_owned()),
                    ("detail", detail.clone()),
                ],
            );
        }
        if ring {
            self.tracer.record(
                self.now.as_u64(),
                self.self_name,
                addr,
                state,
                event,
                detail,
            );
        }
    }

    /// Records a completed request-lifecycle span for `addr` — started at
    /// `start`, finished now — on the address's timeline track. This is the
    /// transaction-timeline counterpart of a latency-histogram observation:
    /// call it where a controller records `lat_*`, naming the lifecycle
    /// phase (`"grant"`, `"wback"`, `"inv"`, `"host_rtt"`, `"miss"`, ...).
    /// No-op (one branch) unless a timeline is installed.
    #[inline]
    pub fn span(&mut self, addr: u64, name: &'static str, start: Cycle) {
        if let Some(tl) = self.tracer.timeline_mut() {
            let ts = start.as_u64().min(self.now.as_u64());
            let dur = self.now.as_u64() - ts;
            tl.complete(
                ts,
                dur,
                PID_ADDRESSES,
                addr,
                name,
                vec![
                    ("component", self.self_name.to_owned()),
                    ("addr", format!("{addr:#x}")),
                ],
            );
        }
    }

    /// Flags `addr` for a post-mortem trace dump (always recorded, even with
    /// tracing off). Call this at the point a failure is detected — guard
    /// killing the accelerator, a safety invariant tripping, a corruption
    /// check failing — and the harness can render
    /// [`Simulator::post_mortem`] afterwards.
    pub fn flag_post_mortem(&mut self, addr: u64, reason: impl Into<String>) {
        self.tracer.flag(self.now.as_u64(), addr, reason);
    }
}

/// Builds a [`Simulator`]: register components, configure links, then
/// [`build`](SimBuilder::build).
pub struct SimBuilder<M> {
    components: Vec<Box<dyn Component<M>>>,
    links: HashMap<(NodeId, NodeId), Link>,
    default_link: Link,
    seed: u64,
    per_component_rng: bool,
    trace: TraceConfig,
    profile: ProfileConfig,
    event_label: Option<fn(&M) -> &'static str>,
}

impl<M: 'static> SimBuilder<M> {
    /// Creates a builder whose simulation RNG is seeded with `seed`.
    /// Identical seeds and identical construction sequences produce
    /// bit-identical runs.
    pub fn new(seed: u64) -> Self {
        SimBuilder {
            components: Vec::new(),
            links: HashMap::new(),
            default_link: Link::default(),
            seed,
            per_component_rng: false,
            trace: TraceConfig::from_env(),
            profile: ProfileConfig::off(),
            event_label: None,
        }
    }

    /// Switches the simulation from one global RNG stream to one
    /// independent stream per component, each seeded from
    /// `stream_seed(seed, component_name)`. Off by default (the global
    /// stream keeps historical runs byte-identical). The model checker
    /// turns it on so that the order in which it registers components
    /// cannot perturb latency draws.
    pub fn per_component_rng(&mut self, on: bool) -> &mut Self {
        self.per_component_rng = on;
        self
    }

    /// Sets the tracing configuration (defaults to
    /// [`TraceConfig::from_env`]: off unless `XG_TRACE` is set).
    pub fn trace(&mut self, config: TraceConfig) -> &mut Self {
        self.trace = config;
        self
    }

    /// Sets the kernel-profiling configuration (defaults to
    /// [`ProfileConfig::off`]). Profiling never perturbs the simulation —
    /// it draws no randomness and schedules nothing — so an otherwise
    /// identical run produces identical protocol behavior with it on or
    /// off.
    pub fn profile(&mut self, config: ProfileConfig) -> &mut Self {
        self.profile = config;
        self
    }

    /// Installs the event-class labeler used by dispatch profiling: a
    /// function from a message to a short static label (conventionally
    /// `"<protocol>.<kind>"`). Without one, delivered messages profile
    /// under the class `"event"`; wake-ups always profile as `"Wake"`.
    pub fn event_label(&mut self, f: fn(&M) -> &'static str) -> &mut Self {
        self.event_label = Some(f);
        self
    }

    /// Registers a component, returning its [`NodeId`].
    pub fn add(&mut self, component: Box<dyn Component<M>>) -> NodeId {
        let id = NodeId(self.components.len() as u32);
        self.components.push(component);
        id
    }

    /// Configures the directed link `from → to`.
    pub fn link(&mut self, from: NodeId, to: NodeId, link: Link) -> &mut Self {
        self.links.insert((from, to), link);
        self
    }

    /// Configures both directions between `a` and `b` with the same link.
    pub fn link_bidi(&mut self, a: NodeId, b: NodeId, link: Link) -> &mut Self {
        self.link(a, b, link);
        self.link(b, a, link)
    }

    /// Sets the link used for any pair without an explicit configuration.
    pub fn default_link(&mut self, link: Link) -> &mut Self {
        self.default_link = link;
        self
    }

    /// Finalizes the builder into a runnable [`Simulator`].
    pub fn build(self) -> Simulator<M> {
        // Names are captured eagerly so the tracer can label events without
        // borrowing the (possibly checked-out) component.
        let names: Vec<String> = self
            .components
            .iter()
            .map(|c| c.name().to_owned())
            .collect();
        let mut links = LinkTable::new(self.components.len(), self.default_link);
        for ((from, to), link) in self.links {
            links.configure(from, to, link);
        }
        let rng = if self.per_component_rng {
            RngBank::PerComponent(per_component_streams(self.seed, &names))
        } else {
            RngBank::Global(SmallRng::seed_from_u64(self.seed))
        };
        Simulator {
            components: self.components,
            names,
            queue: CalendarQueue::new(),
            msgs: Slab::new(),
            links,
            now: Cycle::ZERO,
            rng,
            progress: 0,
            last_progress_at: Cycle::ZERO,
            effects: Vec::new(),
            tracer: Tracer::new(self.trace),
            faults: LinkFaultCounts::default(),
            profiler: Profiler::new(self.profile),
            event_label: self.event_label,
        }
    }
}

/// Per-directed-pair link state: the configured link plus the dynamic
/// fields the router mutates (ordered-delivery FIFO point, reorder-burst
/// countdown).
#[derive(Clone, Copy)]
struct PairState {
    link: Link,
    last_delivery: Cycle,
    /// Remaining messages to fast-track past an open reorder burst.
    burst: u8,
}

/// Dense `n × n` table of directed link state, indexed by
/// `from.index() * n + to.index()`.
///
/// This replaces the two parallel `HashMap<(NodeId, NodeId), _>` maps the
/// simulator used to keep (configured links and lazily-materialized
/// default-link ordering state), which could drift apart: every pair now
/// has exactly one `PairState`, created by one constructor and cleared by
/// one reset path. Component counts are small (a simulated system is tens
/// of controllers), so the quadratic table is a few KiB and a route lookup
/// is one multiply-add instead of a hash.
struct LinkTable {
    n: usize,
    pairs: Box<[PairState]>,
    /// Link used when routing between fabricated (unregistered) ids; such
    /// messages still panic at delivery, as [`NodeId`] documents.
    default_link: Link,
}

impl LinkTable {
    /// A table over `n` registered components, every pair on `default`.
    fn new(n: usize, default: Link) -> LinkTable {
        let mut table = LinkTable {
            n,
            pairs: vec![
                PairState {
                    link: default,
                    last_delivery: Cycle::ZERO,
                    burst: 0,
                };
                n * n
            ]
            .into_boxed_slice(),
            default_link: default,
        };
        table.reset_dynamic();
        table
    }

    /// Installs a configured link for `from → to`.
    fn configure(&mut self, from: NodeId, to: NodeId, link: Link) {
        let (f, t) = (from.index(), to.index());
        assert!(
            f < self.n && t < self.n,
            "link endpoints must be registered"
        );
        self.pairs[f * self.n + t].link = link;
    }

    /// The single reset path for all dynamic routing state.
    fn reset_dynamic(&mut self) {
        for pair in self.pairs.iter_mut() {
            pair.last_delivery = Cycle::ZERO;
            pair.burst = 0;
        }
    }

    /// Mutable state for `from → to`, or `None` when either id is
    /// fabricated (out of range).
    #[inline]
    fn pair_mut(&mut self, from: NodeId, to: NodeId) -> Option<&mut PairState> {
        let (f, t) = (from.index(), to.index());
        if f < self.n && t < self.n {
            Some(&mut self.pairs[f * self.n + t])
        } else {
            None
        }
    }
}

/// Where a routed message ends up: dropped, delivered once, or delivered
/// twice (duplication faults draw an independent second latency).
enum Route {
    Drop,
    One(Cycle),
    Two(Cycle, Cycle),
}

/// Draws a delivery latency from `link`'s range; fixed-latency links
/// consume no randomness.
fn draw_latency(rng: &mut SmallRng, link: Link) -> u64 {
    if link.min_latency() == link.max_latency() {
        link.min_latency()
    } else {
        rng.gen_range(link.min_latency()..=link.max_latency())
    }
}

/// Source of simulation randomness.
///
/// `Global` is the legacy layout — one stream consumed in event order —
/// and stays the default so existing golden reports remain byte-identical.
/// `PerComponent` gives every component an independent stream seeded from
/// `stream_seed(run_seed, component_name)`; draw order within a stream
/// then depends only on that component's own event sequence, so one
/// component's draws never perturb another's and registration order does
/// not matter.
enum RngBank {
    Global(SmallRng),
    /// One stream per registered component, plus a trailing "external"
    /// stream used when routing from a fabricated (unregistered) id.
    PerComponent(Vec<SmallRng>),
}

impl RngBank {
    /// The stream that component `idx` draws from (out-of-range indices —
    /// fabricated ids — share the trailing external stream).
    #[inline]
    fn stream(&mut self, idx: usize) -> &mut SmallRng {
        match self {
            RngBank::Global(rng) => rng,
            RngBank::PerComponent(streams) => {
                let last = streams.len() - 1;
                &mut streams[idx.min(last)]
            }
        }
    }
}

/// Builds the per-component stream vector: one stream per name, one
/// trailing stream for fabricated senders. Streams depend only on the run
/// seed and the component's name, so registering an extra component never
/// re-seeds anyone else.
fn per_component_streams(seed: u64, names: &[String]) -> Vec<SmallRng> {
    let mut streams: Vec<SmallRng> = names
        .iter()
        .map(|name| SmallRng::seed_from_u64(rand::stream_seed(seed, name)))
        .collect();
    streams.push(SmallRng::seed_from_u64(rand::stream_seed(
        seed,
        "\u{0}external",
    )));
    streams
}

/// A deterministic discrete-event simulator over message type `M`.
///
/// See the [crate docs](crate) for the execution model and an example.
pub struct Simulator<M> {
    components: Vec<Box<dyn Component<M>>>,
    names: Vec<String>,
    queue: CalendarQueue<Pending>,
    /// In-flight message payloads, referenced by [`SlabId`] from queued
    /// events and pending effects.
    msgs: Slab<M>,
    links: LinkTable,
    now: Cycle,
    rng: RngBank,
    progress: u64,
    last_progress_at: Cycle,
    effects: Vec<Effect>,
    tracer: Tracer,
    faults: LinkFaultCounts,
    profiler: Profiler,
    event_label: Option<fn(&M) -> &'static str>,
}

impl<M: Clone + 'static> Simulator<M> {
    /// Current simulated time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Total forward-progress units reported by all components so far.
    pub fn progress(&self) -> u64 {
        self.progress
    }

    /// Number of registered components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Whether no components are registered.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Injects a message from outside the simulation, as if `from` had sent
    /// it to `to` at the current time (link latency applies).
    pub fn post(&mut self, from: NodeId, to: NodeId, msg: M) {
        match self.route(from, to, 0) {
            Route::Drop => {}
            Route::One(time) => {
                let msg = self.msgs.insert(msg);
                self.deliver(time, to, from, msg);
            }
            Route::Two(t1, t2) => {
                let copy = self.msgs.insert(msg.clone());
                let msg = self.msgs.insert(msg);
                self.deliver(t1, to, from, copy);
                self.deliver(t2, to, from, msg);
            }
        }
    }

    /// Schedules a wake-up for `target` at `delay` cycles from now.
    pub fn post_wake(&mut self, target: NodeId, delay: u64, token: u64) {
        let time = self.now + delay.max(1);
        self.push_event(time, target, EventKind::Wake { token });
    }

    /// Runs until the event queue is empty or `max_cycles` of simulated time
    /// elapse.
    pub fn run_to_quiescence(&mut self, max_cycles: u64) -> RunOutcome {
        self.run_inner(self.now + max_cycles, None)
    }

    /// Runs with a progress watchdog: stops early (with
    /// [`RunOutcome::stalled`] set) if no component reports progress for
    /// `stall_bound` consecutive cycles while events remain, or when
    /// `max_cycles` elapse.
    pub fn run_with_watchdog(&mut self, max_cycles: u64, stall_bound: u64) -> RunOutcome {
        self.run_inner(self.now + max_cycles, Some(stall_bound))
    }

    fn run_inner(&mut self, deadline: Cycle, stall_bound: Option<u64>) -> RunOutcome {
        let mut events = 0u64;
        loop {
            let Some(head_time) = self.queue.peek_time() else {
                return RunOutcome {
                    quiescent: true,
                    stalled: false,
                    now: self.now,
                    events,
                };
            };
            if head_time > deadline {
                return RunOutcome {
                    quiescent: false,
                    stalled: false,
                    now: deadline,
                    events,
                };
            }
            if let Some(bound) = stall_bound {
                if head_time.saturating_since(self.last_progress_at) > bound {
                    return RunOutcome {
                        quiescent: false,
                        stalled: true,
                        now: self.now,
                        events,
                    };
                }
            }
            self.step_one();
            events += 1;
        }
    }

    /// Processes exactly one event if any is pending; returns whether an
    /// event was processed.
    pub fn step(&mut self) -> bool {
        if self.queue.is_empty() {
            return false;
        }
        self.step_one();
        true
    }

    fn step_one(&mut self) {
        // One branch when profiling is off; the profiler is never touched.
        let profiling = self.profiler.enabled();
        let depth_before = if profiling { self.queue.len() } else { 0 };
        let (time, ev) = self.queue.pop().expect("step_one called on empty queue");
        debug_assert!(time >= self.now, "event queue went backwards");
        self.now = time;
        let mut class: &'static str = "event";
        let mut timer: Option<Instant> = None;
        if profiling {
            self.profiler.note_pop(ev.target.index());
            class = match ev.kind {
                EventKind::Deliver { msg, .. } => self
                    .event_label
                    .map_or("event", |label| label(self.msgs.get(msg))),
                EventKind::Wake { .. } => "Wake",
            };
            if self.profiler.begin_event(depth_before) {
                timer = Some(Instant::now());
            }
            self.profiler
                .epoch_tick(self.now.as_u64(), self.progress, self.queue.len());
        }
        let idx = ev.target.index();
        let progress_before = self.progress;
        {
            // Destructure so the handler's borrow of its component is
            // disjoint from the context's borrows of the kernel state — no
            // per-event move of the component box in and out of the slot.
            let Simulator {
                components,
                names,
                effects,
                msgs,
                rng,
                progress,
                tracer,
                ..
            } = self;
            let rng = rng.stream(idx);
            let Some(comp) = components.get_mut(idx) else {
                panic!("message delivered to unregistered node {}", ev.target)
            };
            // A delivery reclaims its payload (and slab slot) before the
            // handler runs; the handler receives the message by value,
            // exactly as if it had been carried inline.
            let payload = match ev.kind {
                EventKind::Deliver { msg, .. } => Some(msgs.take(msg)),
                EventKind::Wake { .. } => None,
            };
            let mut ctx = Ctx {
                now: time,
                self_id: ev.target,
                self_name: &names[idx],
                effects,
                msgs,
                rng,
                progress,
                tracer,
            };
            match ev.kind {
                EventKind::Deliver { from, .. } => {
                    comp.handle(from, payload.expect("deliver has payload"), &mut ctx)
                }
                EventKind::Wake { token } => comp.wake(token, &mut ctx),
            }
        }
        if self.progress > progress_before {
            self.last_progress_at = self.now;
        }

        // Drain into a local so the simulator's buffer (and its capacity)
        // survives for the next event — no per-event Vec alloc/free.
        let mut effects = std::mem::take(&mut self.effects);
        for effect in effects.drain(..) {
            match effect {
                Effect::Send {
                    to,
                    msg,
                    extra_delay,
                } => match self.route(ev.target, to, extra_delay) {
                    Route::Drop => {
                        // Dropped by fault injection: reclaim the parked
                        // payload's slot.
                        drop(self.msgs.take(msg));
                    }
                    Route::One(time) => self.deliver(time, to, ev.target, msg),
                    Route::Two(t1, t2) => {
                        // Duplicate delivery: the second copy gets its own
                        // slab slot.
                        let copy = self.msgs.insert(self.msgs.get(msg).clone());
                        self.deliver(t1, to, ev.target, copy);
                        self.deliver(t2, to, ev.target, msg);
                    }
                },
                Effect::Wake { delay, token } => {
                    let time = self.now + delay.max(1);
                    self.push_event(time, ev.target, EventKind::Wake { token });
                }
                Effect::Redeliver { from, msg, delay } => {
                    let time = self.now + delay.max(1);
                    self.push_event(time, ev.target, EventKind::Deliver { from, msg });
                }
            }
        }
        debug_assert!(
            self.effects.is_empty(),
            "effects produced outside a handler"
        );
        self.effects = effects;
        if profiling {
            // The measured window covers the handler plus effect
            // application — the full kernel cost of the event.
            let elapsed = timer.map(|t| t.elapsed().as_nanos() as u64);
            self.profiler.end_event(idx, class, elapsed);
        }
    }

    /// Classifies a message against the link's fault plan and returns its
    /// delivery time(s). The fault path draws RNG only when a non-empty
    /// [`crate::FaultSpec`] is attached, so fault-free simulations consume
    /// exactly the random stream they always did.
    fn route(&mut self, from: NodeId, to: NodeId, extra: u64) -> Route {
        let now = self.now;
        let Simulator {
            links, rng, faults, ..
        } = self;
        // Latency draws charge the sender's stream: during effect drain the
        // sender is the component whose event was just dispatched, so in
        // per-component mode its draws stay on its own stream.
        let rng = rng.stream(from.index());
        if links.pair_mut(from, to).is_none() {
            // A fabricated endpoint: route statelessly over the default
            // link (delivery will panic, as NodeId documents).
            let latency = draw_latency(rng, links.default_link);
            return Route::One(now + latency.max(1) + extra);
        }
        let state = links.pair_mut(from, to).expect("checked above");
        let link = state.link;
        let spec = link.faults();
        let mut latency = draw_latency(rng, link);
        let mut duplicate = false;
        if !spec.is_none() {
            if state.burst > 0 {
                state.burst -= 1;
                latency = link.min_latency();
                faults.burst_overtakes += 1;
            } else {
                let roll = rng.gen_range(0u32..100);
                let drop_at = spec.drop_pct as u32;
                let dup_at = drop_at + spec.dup_pct as u32;
                let spike_at = dup_at + spec.delay_spike_pct as u32;
                let reorder_at = spike_at + spec.reorder_pct as u32;
                if roll < drop_at {
                    faults.dropped += 1;
                    return Route::Drop;
                } else if roll < dup_at {
                    duplicate = true;
                    faults.duplicated += 1;
                } else if roll < spike_at {
                    latency += spec.spike_cycles;
                    faults.delay_spikes += 1;
                } else if roll < reorder_at {
                    latency = link.max_latency() + spec.spike_cycles;
                    state.burst = spec.burst_len;
                    faults.reorder_bursts += 1;
                }
            }
        }
        let mut time = now + latency.max(1) + extra;
        if link.is_ordered() {
            if time <= state.last_delivery {
                time = state.last_delivery + 1;
            }
            state.last_delivery = time;
        }
        if duplicate {
            let lat2 = draw_latency(rng, link);
            let t2 = now + lat2.max(1) + extra;
            Route::Two(time, t2)
        } else {
            Route::One(time)
        }
    }

    fn push_event(&mut self, time: Cycle, target: NodeId, kind: EventKind) {
        if self.profiler.enabled() {
            self.profiler.note_push(target.index());
        }
        self.queue.push(time, Pending { target, kind });
    }

    /// Enqueues a routed delivery.
    fn deliver(&mut self, time: Cycle, to: NodeId, from: NodeId, msg: SlabId) {
        self.push_event(time, to, EventKind::Deliver { from, msg });
    }

    /// Scheduler-operation counters (pushes, pops, overflow traffic) for
    /// the run so far. Deterministic: they depend only on the simulated
    /// workload, never on the host machine.
    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }

    /// Downcasts a registered component to a concrete type for inspection.
    pub fn get<T: 'static>(&self, id: NodeId) -> Option<&T> {
        self.components[id.index()].as_any().downcast_ref::<T>()
    }

    /// Downcasts a registered component to a concrete type, mutably.
    pub fn get_mut<T: 'static>(&mut self, id: NodeId) -> Option<&mut T> {
        self.components[id.index()].as_any_mut().downcast_mut::<T>()
    }

    /// Link faults injected so far (all zero unless some link carries a
    /// non-empty [`FaultSpec`]).
    pub fn link_fault_counts(&self) -> LinkFaultCounts {
        self.faults
    }

    /// Collects a [`Report`] from every registered component, plus link
    /// fault-injection counters when any faults fired (fault-free runs keep
    /// their report keys unchanged).
    pub fn report(&self) -> Report {
        let mut out = Report::new();
        for comp in self.components.iter() {
            comp.report(&mut out);
        }
        if self.faults.total() + self.faults.burst_overtakes > 0 {
            out.add("sim.link_faults.dropped", self.faults.dropped);
            out.add("sim.link_faults.duplicated", self.faults.duplicated);
            out.add("sim.link_faults.delay_spikes", self.faults.delay_spikes);
            out.add("sim.link_faults.reorder_bursts", self.faults.reorder_bursts);
            out.add(
                "sim.link_faults.burst_overtakes",
                self.faults.burst_overtakes,
            );
        }
        // The profile section stays absent (and the report byte-identical
        // to an uninstrumented run's) unless profiling recorded something.
        let entries = self.profiler.entries(&self.names);
        if !entries.is_empty() {
            // Scheduler-operation counters ride along with the profile:
            // deterministic (workload-only), but kept out of unprofiled
            // reports so goldens stay byte-identical.
            let stats = self.queue.stats();
            out.profile_set("sched.pushes", stats.pushes);
            out.profile_set("sched.pops", stats.pops);
            out.profile_set("sched.overflow", stats.overflow_pushes);
            out.profile_set("sched.migrated", stats.migrated);
            out.profile_set("sched.rebases", stats.rebases);
        }
        for (k, v) in entries {
            out.profile_set(k, v);
        }
        out
    }

    /// Folds the [`Component::check_state`] of each node in `order` into
    /// `out`. The caller passes the node order explicitly (canonical role
    /// order), so the digest never depends on registration order; it also
    /// writes each node's role as a section separator, so two components
    /// with coincidentally colliding byte streams cannot alias.
    pub fn fold_check_state(&self, order: &[NodeId], out: &mut crate::CheckDigest) {
        for &id in order {
            out.write_str("node");
            out.write_node(id);
            self.components[id.index()].check_state(out);
        }
    }

    /// Names of all registered components, for diagnostics.
    pub fn component_names(&self) -> &[String] {
        &self.names
    }

    /// The protocol tracer (read access: dumps, flags, config).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The protocol tracer, mutably — lets a harness flag addresses for
    /// post-mortem from outside any component (e.g. after an end-of-run
    /// memory consistency sweep).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Renders the post-mortem dump for every flagged address, or `None` if
    /// nothing was flagged. See [`Ctx::flag_post_mortem`].
    pub fn post_mortem(&self) -> Option<String> {
        self.tracer.post_mortem()
    }

    /// The kernel profiler (read access: counters, epochs, config).
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// The kernel profiler, mutably — lets a harness that builds a system
    /// through a shared constructor opt a specific run into profiling
    /// before the first event is dispatched.
    pub fn profiler_mut(&mut self) -> &mut Profiler {
        &mut self.profiler
    }

    /// Replaces the kernel-profiling configuration; shorthand for
    /// `profiler_mut().set_config(config)`.
    pub fn set_profile_config(&mut self, config: ProfileConfig) {
        self.profiler.set_config(config);
    }

    /// Installs a transaction-timeline recorder and names a track for every
    /// registered component. From here on, [`Ctx::trace`] records land as
    /// instants and [`Ctx::span`] records as spans; retrieve the result
    /// with [`Simulator::timeline_json`].
    pub fn enable_timeline(&mut self, config: TimelineConfig) {
        let mut timeline = Timeline::new(config);
        for (idx, name) in self.names.iter().enumerate() {
            if !name.is_empty() {
                timeline.name_track(PID_COMPONENTS, idx as u64, name.clone());
            }
        }
        self.tracer.set_timeline(timeline);
    }

    /// Renders the recorded timeline as Chrome trace-event JSON (loadable
    /// in Perfetto), or `None` if no timeline was enabled.
    pub fn timeline_json(&self) -> Option<String> {
        self.tracer.timeline().map(Timeline::to_json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::FaultSpec;

    /// Records every delivery (time, from, payload) it sees.
    struct Recorder {
        seen: Vec<(u64, NodeId, u64)>,
        woken: Vec<(u64, u64)>,
    }
    impl Recorder {
        fn new() -> Self {
            Recorder {
                seen: Vec::new(),
                woken: Vec::new(),
            }
        }
    }
    impl Component<u64> for Recorder {
        fn name(&self) -> &str {
            "recorder"
        }
        fn handle(&mut self, from: NodeId, msg: u64, ctx: &mut Ctx<'_, u64>) {
            self.seen.push((ctx.now().as_u64(), from, msg));
            ctx.note_progress();
        }
        fn wake(&mut self, token: u64, ctx: &mut Ctx<'_, u64>) {
            self.woken.push((ctx.now().as_u64(), token));
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    /// Sends `count` messages to a peer when first poked.
    struct Burst {
        peer: NodeId,
        count: u64,
    }
    impl Component<u64> for Burst {
        fn name(&self) -> &str {
            "burst"
        }
        fn handle(&mut self, _from: NodeId, _msg: u64, ctx: &mut Ctx<'_, u64>) {
            for i in 0..self.count {
                ctx.send(self.peer, i);
            }
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    fn two_node_sim(link: Link, count: u64, seed: u64) -> Vec<(u64, NodeId, u64)> {
        let mut b = SimBuilder::new(seed);
        let rec = b.add(Box::new(Recorder::new()));
        let src = b.add(Box::new(Burst { peer: rec, count }));
        b.link(src, rec, link);
        let mut sim = b.build();
        sim.post(rec, src, 0);
        let out = sim.run_to_quiescence(100_000);
        assert!(out.quiescent);
        sim.get::<Recorder>(rec).unwrap().seen.clone()
    }

    #[test]
    fn ordered_link_preserves_send_order() {
        for seed in 0..20 {
            let seen = two_node_sim(Link::ordered(1, 50), 32, seed);
            let payloads: Vec<u64> = seen.iter().map(|&(_, _, p)| p).collect();
            assert_eq!(payloads, (0..32).collect::<Vec<_>>(), "seed {seed}");
            // Delivery times strictly increase on an ordered link.
            for w in seen.windows(2) {
                assert!(w[0].0 < w[1].0);
            }
        }
    }

    #[test]
    fn unordered_link_reorders_eventually() {
        let mut reordered = false;
        for seed in 0..50 {
            let seen = two_node_sim(Link::unordered(1, 50), 32, seed);
            let payloads: Vec<u64> = seen.iter().map(|&(_, _, p)| p).collect();
            if payloads != (0..32).collect::<Vec<_>>() {
                reordered = true;
                break;
            }
        }
        assert!(reordered, "unordered link never reordered in 50 seeds");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = two_node_sim(Link::unordered(1, 50), 64, 7);
        let b = two_node_sim(Link::unordered(1, 50), 64, 7);
        assert_eq!(a, b);
        let c = two_node_sim(Link::unordered(1, 50), 64, 8);
        assert_ne!(a, c, "different seeds should (almost surely) differ");
    }

    #[test]
    fn wake_tokens_fire_in_time_order() {
        let mut b = SimBuilder::new(1);
        let rec = b.add(Box::new(Recorder::new()));
        let mut sim = b.build();
        sim.post_wake(rec, 10, 100);
        sim.post_wake(rec, 5, 200);
        sim.post_wake(rec, 20, 300);
        let out = sim.run_to_quiescence(1_000);
        assert!(out.quiescent);
        let woken = &sim.get::<Recorder>(rec).unwrap().woken;
        assert_eq!(
            woken.iter().map(|&(_, t)| t).collect::<Vec<_>>(),
            vec![200, 100, 300]
        );
    }

    #[test]
    fn watchdog_detects_livelock() {
        /// Two components that ping-pong forever without progress.
        struct Pong {
            peer: Option<NodeId>,
        }
        impl Component<u64> for Pong {
            fn name(&self) -> &str {
                "pong"
            }
            fn handle(&mut self, from: NodeId, msg: u64, ctx: &mut Ctx<'_, u64>) {
                let to = self.peer.unwrap_or(from);
                ctx.send(to, msg);
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let mut b = SimBuilder::new(3);
        let a = b.add(Box::new(Pong { peer: None }));
        let c = b.add(Box::new(Pong { peer: Some(a) }));
        let mut sim = b.build();
        sim.post(a, c, 1);
        let out = sim.run_with_watchdog(1_000_000, 500);
        assert!(out.stalled);
        assert!(!out.quiescent);
    }

    #[test]
    fn run_stops_at_deadline() {
        let mut b = SimBuilder::new(1);
        let rec = b.add(Box::new(Recorder::new()));
        let mut sim = b.build();
        sim.post_wake(rec, 5_000, 0);
        let out = sim.run_to_quiescence(100);
        assert!(!out.quiescent);
        assert!(sim.get::<Recorder>(rec).unwrap().woken.is_empty());
        let out = sim.run_to_quiescence(10_000);
        assert!(out.quiescent);
        assert_eq!(sim.get::<Recorder>(rec).unwrap().woken.len(), 1);
    }

    #[test]
    fn report_collects_from_components() {
        struct Stat;
        impl Component<u64> for Stat {
            fn name(&self) -> &str {
                "stat"
            }
            fn handle(&mut self, _f: NodeId, _m: u64, _c: &mut Ctx<'_, u64>) {}
            fn report(&self, out: &mut Report) {
                out.add("stat.value", 11);
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let mut b = SimBuilder::new(1);
        b.add(Box::new(Stat));
        b.add(Box::new(Stat));
        let sim = b.build();
        assert_eq!(sim.report().get("stat.value"), 22);
    }

    #[test]
    fn ctx_tracing_feeds_post_mortem() {
        use crate::trace::TraceConfig;

        /// Traces each delivery and flags the address on payload 2.
        struct Suspect;
        impl Component<u64> for Suspect {
            fn name(&self) -> &str {
                "suspect"
            }
            fn handle(&mut self, _from: NodeId, msg: u64, ctx: &mut Ctx<'_, u64>) {
                ctx.trace(0xabc0, "S", "Deliver", || format!("payload={msg}"));
                if msg == 2 {
                    ctx.flag_post_mortem(0xabc0, "payload 2 observed");
                }
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }

        let mut b = SimBuilder::new(1);
        let s = b.add(Box::new(Suspect));
        b.trace(TraceConfig::ring());
        let mut sim = b.build();
        for payload in 0..3 {
            sim.post(s, s, payload);
        }
        assert!(sim.run_to_quiescence(1_000).quiescent);
        let pm = sim.post_mortem().expect("flag raised");
        assert!(pm.contains("payload 2 observed"), "{pm}");
        assert!(pm.contains("suspect"), "component name attributed: {pm}");
        assert!(pm.contains("payload=0"), "earlier history retained: {pm}");
    }

    #[test]
    fn tracing_off_is_default_and_silent() {
        let mut b = SimBuilder::new(1);
        let rec = b.add(Box::new(Recorder::new()));
        let mut sim = b.build();
        sim.post(rec, rec, 1);
        assert!(sim.run_to_quiescence(1_000).quiescent);
        if std::env::var_os("XG_TRACE").is_none() {
            assert!(!sim.tracer().enabled());
        }
        assert!(sim.post_mortem().is_none());
    }

    #[test]
    fn redeliver_requeues_to_self() {
        struct Stubborn {
            attempts: u32,
            done_at: Option<u64>,
        }
        impl Component<u64> for Stubborn {
            fn name(&self) -> &str {
                "stubborn"
            }
            fn handle(&mut self, from: NodeId, msg: u64, ctx: &mut Ctx<'_, u64>) {
                if self.attempts < 3 {
                    self.attempts += 1;
                    ctx.redeliver(from, msg, 10);
                } else {
                    self.done_at = Some(ctx.now().as_u64());
                    ctx.note_progress();
                }
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let mut b = SimBuilder::new(1);
        let s = b.add(Box::new(Stubborn {
            attempts: 0,
            done_at: None,
        }));
        let mut sim = b.build();
        sim.post(s, s, 9);
        assert!(sim.run_to_quiescence(1_000).quiescent);
        let comp = sim.get::<Stubborn>(s).unwrap();
        assert_eq!(comp.attempts, 3);
        assert!(comp.done_at.unwrap() >= 30);
    }

    fn faulty_sim(spec: FaultSpec, count: u64, seed: u64) -> (Vec<u64>, LinkFaultCounts, Report) {
        let mut b = SimBuilder::new(seed);
        let rec = b.add(Box::new(Recorder::new()));
        let src = b.add(Box::new(Burst { peer: rec, count }));
        b.link(src, rec, Link::unordered(1, 20).with_faults(spec));
        let mut sim = b.build();
        sim.post(rec, src, 0);
        assert!(sim.run_to_quiescence(1_000_000).quiescent);
        let seen = sim.get::<Recorder>(rec).unwrap().seen.clone();
        (
            seen.iter().map(|&(_, _, p)| p).collect(),
            sim.link_fault_counts(),
            sim.report(),
        )
    }

    #[test]
    fn drop_faults_lose_messages_and_are_counted() {
        let spec = FaultSpec {
            drop_pct: 30,
            ..FaultSpec::NONE
        };
        let (payloads, counts, report) = faulty_sim(spec, 200, 5);
        assert_eq!(payloads.len() as u64 + counts.dropped, 200);
        assert!(counts.dropped > 0, "30% drop over 200 messages never fired");
        assert_eq!(report.get("sim.link_faults.dropped"), counts.dropped);
    }

    #[test]
    fn duplicate_faults_deliver_twice() {
        let spec = FaultSpec {
            dup_pct: 30,
            ..FaultSpec::NONE
        };
        let (payloads, counts, _) = faulty_sim(spec, 200, 5);
        assert_eq!(payloads.len() as u64, 200 + counts.duplicated);
        assert!(counts.duplicated > 0);
    }

    #[test]
    fn delay_spikes_push_victims_past_the_latency_bound() {
        let spec = FaultSpec {
            delay_spike_pct: 20,
            spike_cycles: 10_000,
            ..FaultSpec::NONE
        };
        let mut b = SimBuilder::new(9);
        let rec = b.add(Box::new(Recorder::new()));
        let src = b.add(Box::new(Burst {
            peer: rec,
            count: 100,
        }));
        b.link(src, rec, Link::unordered(1, 20).with_faults(spec));
        let mut sim = b.build();
        sim.post(rec, src, 0);
        assert!(sim.run_to_quiescence(1_000_000).quiescent);
        let seen = &sim.get::<Recorder>(rec).unwrap().seen;
        let spiked = seen.iter().filter(|&&(t, _, _)| t > 10_000).count() as u64;
        assert_eq!(seen.len(), 100, "spikes must not lose messages");
        assert_eq!(spiked, sim.link_fault_counts().delay_spikes);
        assert!(spiked > 0);
    }

    #[test]
    fn reorder_bursts_overtake_the_victim() {
        let spec = FaultSpec {
            reorder_pct: 10,
            spike_cycles: 500,
            burst_len: 4,
            ..FaultSpec::NONE
        };
        let (payloads, counts, _) = faulty_sim(spec, 100, 3);
        assert_eq!(payloads.len(), 100, "bursts must not lose messages");
        assert!(counts.reorder_bursts > 0);
        assert!(counts.burst_overtakes > 0);
        let sorted: Vec<u64> = (0..100).collect();
        assert_ne!(payloads, sorted, "bursts should visibly reorder delivery");
    }

    #[test]
    fn fault_injection_is_deterministic() {
        let spec = FaultSpec {
            drop_pct: 10,
            dup_pct: 10,
            delay_spike_pct: 10,
            reorder_pct: 10,
            spike_cycles: 777,
            burst_len: 3,
        };
        let a = faulty_sim(spec, 150, 42);
        let b = faulty_sim(spec, 150, 42);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }

    #[test]
    fn profiling_records_dispatch_without_perturbing_the_run() {
        fn run(profile: bool) -> (Vec<(u64, NodeId, u64)>, Report) {
            let mut b = SimBuilder::new(11);
            let rec = b.add(Box::new(Recorder::new()));
            let src = b.add(Box::new(Burst {
                peer: rec,
                count: 16,
            }));
            b.link(src, rec, Link::unordered(1, 30));
            b.event_label(|&msg: &u64| if msg % 2 == 0 { "Even" } else { "Odd" });
            if profile {
                b.profile(xg_prof::ProfileConfig::on());
            }
            let mut sim = b.build();
            sim.post(rec, src, 0);
            sim.post_wake(rec, 5, 1);
            assert!(sim.run_to_quiescence(100_000).quiescent);
            (sim.get::<Recorder>(rec).unwrap().seen.clone(), sim.report())
        }
        let (plain_seen, plain_report) = run(false);
        let (prof_seen, prof_report) = run(true);
        assert_eq!(plain_seen, prof_seen, "profiling must not perturb the run");
        assert!(
            !plain_report.to_json().contains("profile"),
            "profiling off → no profile section"
        );
        assert_eq!(
            prof_report.without_profile().to_json(),
            plain_report.to_json(),
            "stripped profiled report matches the plain one byte-for-byte"
        );
        assert_eq!(prof_report.profile_get("dispatch.recorder.Even"), 8);
        assert_eq!(prof_report.profile_get("dispatch.recorder.Odd"), 8);
        assert_eq!(prof_report.profile_get("dispatch.recorder.Wake"), 1);
        assert_eq!(prof_report.profile_get("dispatch.burst.Even"), 1);
        // 16 bursts + 1 trigger + 1 wake.
        assert_eq!(prof_report.profile_get("events.total"), 18);
        assert!(prof_report.profile_get("queue.hwm") >= 1);
        assert!(prof_report.profile_get("inflight.recorder.hwm") >= 1);
    }

    #[test]
    fn epoch_series_lands_in_the_report() {
        let mut b = SimBuilder::new(2);
        let rec = b.add(Box::new(Recorder::new()));
        b.profile(xg_prof::ProfileConfig {
            epoch_cycles: 10,
            host_time_sample: 0,
            ..xg_prof::ProfileConfig::on()
        });
        let mut sim = b.build();
        for i in 0..4 {
            sim.post_wake(rec, 1 + i * 10, 0);
        }
        assert!(sim.run_to_quiescence(1_000).quiescent);
        let report = sim.report();
        assert!(report.profile_get("epoch.0000.events") > 0);
        assert!(report
            .profile_entries()
            .any(|(k, _)| k.starts_with("epoch.000") && k.ends_with(".qdepth")));
    }

    #[test]
    fn timeline_collects_instants_and_spans() {
        /// Traces deliveries and records a span when payload 2 arrives.
        struct Spanner {
            first_at: Option<Cycle>,
        }
        impl Component<u64> for Spanner {
            fn name(&self) -> &str {
                "spanner"
            }
            fn handle(&mut self, _from: NodeId, msg: u64, ctx: &mut Ctx<'_, u64>) {
                ctx.trace(0x40, "S", "Deliver", || format!("payload={msg}"));
                if msg == 0 {
                    self.first_at = Some(ctx.now());
                } else if let Some(start) = self.first_at {
                    ctx.span(0x40, "grant", start);
                }
                ctx.note_progress();
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let mut b = SimBuilder::new(4);
        let s = b.add(Box::new(Spanner { first_at: None }));
        let mut sim = b.build();
        assert!(sim.timeline_json().is_none(), "no timeline by default");
        sim.enable_timeline(xg_prof::TimelineConfig::new());
        sim.post(s, s, 0);
        sim.post(s, s, 1);
        assert!(sim.run_to_quiescence(1_000).quiescent);
        let json = sim.timeline_json().expect("timeline enabled");
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("spanner"), "component track named: {json}");
        assert!(json.contains("\"ph\":\"i\""), "instants recorded: {json}");
        assert!(json.contains("\"ph\":\"X\""), "span recorded: {json}");
        assert!(json.contains("\"name\":\"grant\""));
    }

    #[test]
    fn empty_fault_spec_changes_nothing() {
        let clean = two_node_sim(Link::unordered(1, 50), 64, 7);
        let with_empty_spec = {
            let mut b = SimBuilder::new(7);
            let rec = b.add(Box::new(Recorder::new()));
            let src = b.add(Box::new(Burst {
                peer: rec,
                count: 64,
            }));
            b.link(
                src,
                rec,
                Link::unordered(1, 50).with_faults(FaultSpec::NONE),
            );
            let mut sim = b.build();
            sim.post(rec, src, 0);
            assert!(sim.run_to_quiescence(100_000).quiescent);
            assert_eq!(sim.link_fault_counts(), LinkFaultCounts::default());
            assert_eq!(sim.report().get("sim.link_faults.dropped"), 0);
            sim.get::<Recorder>(rec).unwrap().seen.clone()
        };
        assert_eq!(
            clean, with_empty_spec,
            "empty spec must not perturb the RNG stream"
        );
    }

    /// Sends `count` randomized payloads to `peer` when poked; named so
    /// per-component streams can be pinned to a stable label.
    struct Chatter {
        name: &'static str,
        peer: NodeId,
        count: u64,
    }
    impl Component<u64> for Chatter {
        fn name(&self) -> &str {
            self.name
        }
        fn handle(&mut self, _from: NodeId, _msg: u64, ctx: &mut Ctx<'_, u64>) {
            for _ in 0..self.count {
                let payload: u64 = ctx.rng().gen_range(0..1_000_000);
                ctx.send(self.peer, payload);
            }
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    /// One chatter/recorder pair, optionally preceded by an unrelated
    /// second pair whose draws would shift a global stream.
    fn chatter_run(per_component: bool, with_noise: bool) -> Vec<(u64, u64)> {
        let mut b = SimBuilder::new(77);
        if with_noise {
            let rec2 = b.add(Box::new(Recorder::new()));
            let noise = b.add(Box::new(Chatter {
                name: "noise",
                peer: rec2,
                count: 32,
            }));
            b.link(noise, rec2, Link::unordered(1, 40));
        }
        let rec = b.add(Box::new(Recorder::new()));
        let src = b.add(Box::new(Chatter {
            name: "src",
            peer: rec,
            count: 32,
        }));
        b.link(src, rec, Link::unordered(1, 40));
        b.per_component_rng(per_component);
        let mut sim = b.build();
        if with_noise {
            // Poke the bystander pair (registered first, at indices 0/1)
            // ahead of the pair under test, so its draws come first in a
            // global stream.
            sim.post(NodeId::from_index(0), NodeId::from_index(1), 0);
        }
        sim.post(rec, src, 0);
        assert!(sim.run_to_quiescence(100_000).quiescent);
        sim.get::<Recorder>(rec)
            .unwrap()
            .seen
            .iter()
            .map(|&(t, _, p)| (t, p))
            .collect()
    }

    #[test]
    fn per_component_rng_is_deterministic() {
        let a = chatter_run(true, false);
        let b = chatter_run(true, false);
        assert_eq!(a, b);
        assert_eq!(a.len(), 32);
    }

    #[test]
    fn per_component_streams_are_isolated_from_other_components() {
        // A global stream interleaves draws across components, so adding an
        // unrelated busy pair perturbs the original pair's latencies and
        // payloads. Per-component streams are keyed by name: the original
        // pair's behavior is identical with or without the bystanders.
        let global_alone = chatter_run(false, false);
        let global_crowded = chatter_run(false, true);
        assert_ne!(
            global_alone, global_crowded,
            "global stream is expected to be perturbed by bystanders"
        );
        let scoped_alone = chatter_run(true, false);
        let scoped_crowded = chatter_run(true, true);
        assert_eq!(
            scoped_alone, scoped_crowded,
            "per-component streams must not be perturbed by bystanders"
        );
    }
}
