//! # xg-sim — deterministic discrete-event simulation kernel
//!
//! This crate provides the execution substrate on which every coherence
//! controller in the Crossing Guard reproduction runs. It is a deliberately
//! small, single-threaded, *deterministic* discrete-event simulator:
//! determinism is a correctness feature here, because the protocol stress
//! tests (paper §4.1) must be exactly reproducible from a seed so that any
//! coherence bug they find can be replayed.
//!
//! The model is the classic message-passing one used by gem5/Ruby:
//!
//! * A [`Component`] is a coherence controller (cache, directory, Crossing
//!   Guard instance, traffic-generating core, OS error sink, ...). Components
//!   never call each other directly; they only exchange messages.
//! * Messages travel over *links*. A [`Link`] has a latency range and an
//!   ordering discipline. **Unordered** links deliver each message after an
//!   independently random latency — this is what creates the protocol races
//!   the paper discusses (§2.4). **Ordered** links preserve send order, which
//!   the Crossing Guard ↔ accelerator network requires (§2.1).
//! * A central event queue delivers messages and timer wake-ups in
//!   `(time, sequence)` order.
//!
//! The simulator is generic over the message type `M`, so this crate has no
//! knowledge of any particular protocol.
//!
//! ## Example
//!
//! ```rust
//! use xg_sim::{Component, Ctx, Link, NodeId, Report, SimBuilder};
//!
//! /// A component that echoes every number back, incremented.
//! struct Echo;
//! impl Component<u64> for Echo {
//!     fn name(&self) -> &str { "echo" }
//!     fn handle(&mut self, from: NodeId, msg: u64, ctx: &mut Ctx<'_, u64>) {
//!         if msg < 3 { ctx.send(from, msg + 1); }
//!         ctx.note_progress();
//!     }
//!     fn as_any(&self) -> &dyn std::any::Any { self }
//!     fn as_any_mut(&mut self) -> &mut dyn std::any::Any { self }
//! }
//!
//! let mut b = SimBuilder::new(42);
//! let a = b.add(Box::new(Echo));
//! let c = b.add(Box::new(Echo));
//! b.default_link(Link::unordered(1, 4));
//! let mut sim = b.build();
//! sim.post(a, c, 0); // inject a message from outside
//! let outcome = sim.run_to_quiescence(1_000);
//! assert!(outcome.quiescent);
//! ```

#![forbid(unsafe_code)]

mod check;
mod component;
mod event;
mod hist;
mod json;
mod link;
pub mod queue;
mod report;
mod simulator;
pub mod slab;
mod time;
mod trace;

pub use check::CheckDigest;
pub use component::{Component, NodeId};

/// Whether `XG_TRACE` message tracing is enabled (checked once per process).
///
/// Retained for callers that trace outside a simulation context; inside a
/// component prefer [`Ctx::trace`], which respects the per-simulation
/// [`TraceConfig`] (whose [`TraceConfig::from_env`] honors the same
/// variable) and records into the post-mortem ring.
pub fn trace_enabled() -> bool {
    static FLAG: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FLAG.get_or_init(|| std::env::var_os("XG_TRACE").is_some())
}
pub use hist::Histogram;
pub use json::{JsonError, JsonValue};
pub use link::{FaultSpec, Link};
pub use queue::{CalendarQueue, QueueStats};
pub use report::{CoverageSet, Report, TransitionCoverage};
pub use simulator::{Ctx, LinkFaultCounts, RunOutcome, SimBuilder, Simulator};
pub use slab::{Slab, SlabId};
pub use time::Cycle;
pub use trace::{PostMortemFlag, TraceConfig, TraceEvent, TraceLevel, Tracer};
pub use xg_prof::{
    EpochSample, ProfileConfig, Profiler, Timeline, TimelineConfig, PID_ADDRESSES, PID_COMPONENTS,
};
