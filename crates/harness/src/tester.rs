//! The random value-checking coherence tester (paper §4.1).
//!
//! Each [`TesterCore`] fires rapid loads and stores at a small pool of word
//! addresses. Values are checkable because exactly one core is the *writer*
//! of each word (chosen by hashing the address) and writes strictly
//! increasing values. Every reader then checks two properties that together
//! witness per-location coherence:
//!
//! 1. **Bounded**: a read never returns a value larger than the writer has
//!    issued (no values from the future, no corrupted data).
//! 2. **Monotone per reader**: successive reads by one core never go
//!    backwards (single-writer / multiple-reader order is respected).
//!
//! Combined with the shrunken caches and randomized message latencies of
//! the stress configuration, this is the same methodology the paper used
//! for 22 compute-years (scaled down to CI budgets; crank
//! [`TesterShared::target_ops`] to scale up).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use rand::Rng;
use xg_mem::Addr;
use xg_proto::{CoreKind, CoreMsg, Ctx, Message};
use xg_sim::{Component, NodeId, Report};

/// Handle to the state shared by every tester core in one run.
///
/// A `Mutex` (not `RefCell`) only so tester cores — and the systems
/// containing them — are [`Send`] and whole simulations can be fanned
/// across worker threads by [`crate::sweep`]. Every simulation runs on one
/// thread, so the lock is never contended and costs a few nanoseconds per
/// operation — but the polling wake loop runs hundreds of times per
/// completed operation, so its done-check reads a lock-free mirror
/// ([`TesterHub::done_fast`]) instead of taking even an uncontended lock.
pub type SharedTester = Arc<TesterHub>;

/// [`TesterShared`] behind its lock, plus a hot-path mirror of the field
/// the per-wake polling loop reads.
///
/// Derefs to the inner `Mutex`, so `shared.lock().unwrap()` keeps working
/// for everything off the hot path.
#[derive(Debug)]
pub struct TesterHub {
    inner: Mutex<TesterShared>,
    /// Mirror of [`TesterShared::done`], refreshed by the single code path
    /// that bumps `completed` (and therefore exact, not approximate —
    /// `target_ops` is fixed at construction).
    done: AtomicBool,
}

impl TesterHub {
    /// Lock-free equivalent of `lock().unwrap().done()`.
    #[inline]
    pub fn done_fast(&self) -> bool {
        self.done.load(Ordering::Relaxed)
    }

    /// Refreshes the lock-free done mirror; call after bumping `completed`.
    fn publish_done(&self, done: bool) {
        if done {
            self.done.store(true, Ordering::Relaxed);
        }
    }
}

impl std::ops::Deref for TesterHub {
    type Target = Mutex<TesterShared>;
    fn deref(&self) -> &Mutex<TesterShared> {
        &self.inner
    }
}

/// State shared by every tester core in one run.
#[derive(Debug)]
pub struct TesterShared {
    total_cores: usize,
    /// Stop issuing once this many operations completed system-wide.
    pub target_ops: u64,
    completed: u64,
    data_errors: u64,
    /// Value-check failures per observing core index, for multi-accelerator
    /// blast-radius attribution (which hierarchy saw corrupted data).
    errors_by_core: HashMap<usize, u64>,
    error_log: Vec<String>,
    /// Word addresses whose value checks failed, in detection order.
    corrupted: Vec<u64>,
    issued: HashMap<u64, u64>,
    last_seen: HashMap<(usize, u64), u64>,
}

impl TesterShared {
    /// Creates shared state for `total_cores` testers aiming for
    /// `target_ops` completed operations.
    #[allow(clippy::new_ret_no_self)] // returns the hub wrapper, by design
    pub fn new(total_cores: usize, target_ops: u64) -> SharedTester {
        Arc::new(TesterHub {
            inner: Mutex::new(TesterShared {
                total_cores,
                target_ops,
                completed: 0,
                data_errors: 0,
                errors_by_core: HashMap::new(),
                error_log: Vec::new(),
                corrupted: Vec::new(),
                issued: HashMap::new(),
                last_seen: HashMap::new(),
            }),
            done: AtomicBool::new(target_ops == 0),
        })
    }

    /// The unique writer core for a word address.
    pub fn writer_of(&self, word_addr: u64) -> usize {
        // SplitMix-style scramble so neighboring words get different writers.
        let mut x = word_addr.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 31;
        (x % self.total_cores as u64) as usize
    }

    /// Whether the run completed its operation budget.
    pub fn done(&self) -> bool {
        self.completed >= self.target_ops
    }

    /// Operations completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Value-check failures observed (must be zero for a correct protocol).
    pub fn data_errors(&self) -> u64 {
        self.data_errors
    }

    /// Value-check failures observed by one core (by global core index).
    pub fn data_errors_of(&self, core: usize) -> u64 {
        self.errors_by_core.get(&core).copied().unwrap_or(0)
    }

    /// Human-readable description of the first few failures.
    pub fn error_log(&self) -> &[String] {
        &self.error_log
    }

    /// Word addresses whose value checks failed, in detection order.
    pub fn corrupted_addrs(&self) -> &[u64] {
        &self.corrupted
    }

    fn record_error(&mut self, core: usize, word_addr: u64, msg: String) {
        self.data_errors += 1;
        *self.errors_by_core.entry(core).or_insert(0) += 1;
        if self.error_log.len() < 16 {
            self.error_log.push(msg);
        }
        if self.corrupted.len() < 16 {
            self.corrupted.push(word_addr);
        }
    }

    fn check_load(&mut self, core: usize, word_addr: u64, value: u64) {
        let issued = self.issued.get(&word_addr).copied().unwrap_or(0);
        if value > issued {
            self.record_error(
                core,
                word_addr,
                format!(
                    "core {core} read {value} at {word_addr:#x} but only {issued} were written"
                ),
            );
        }
        let key = (core, word_addr);
        let prev = self.last_seen.get(&key).copied().unwrap_or(0);
        if value < prev {
            self.record_error(
                core,
                word_addr,
                format!(
                    "core {core} read {value} at {word_addr:#x} after having read {prev} (went backwards)"
                ),
            );
        }
        self.last_seen.insert(key, value.max(prev));
    }
}

/// Tester configuration knobs.
#[derive(Debug, Clone)]
pub struct TesterCfg {
    /// Maximum outstanding operations per core.
    pub max_in_flight: usize,
    /// Random delay between issues (cycles).
    pub think: (u64, u64),
    /// Probability (percent) that a writer writes instead of reading.
    pub store_percent: u32,
}

impl Default for TesterCfg {
    fn default() -> Self {
        TesterCfg {
            max_in_flight: 2,
            think: (1, 20),
            store_percent: 50,
        }
    }
}

/// One random-testing core, attached to one cache frontend.
pub struct TesterCore {
    name: String,
    cache: NodeId,
    core_index: usize,
    shared: SharedTester,
    pool: Vec<u64>,
    cfg: TesterCfg,
    in_flight: HashMap<u64, (u64, bool)>, // id -> (word addr, was_store)
    next_id: u64,
    issued_ops: u64,
    completed_ops: u64,
    latency_sum: u64,
    issue_times: HashMap<u64, u64>,
}

impl TesterCore {
    /// Creates a tester core issuing to `cache`, drawing word addresses
    /// from `pool`.
    ///
    /// # Panics
    /// Panics if the pool is empty.
    pub fn new(
        name: impl Into<String>,
        cache: NodeId,
        core_index: usize,
        shared: SharedTester,
        pool: Vec<u64>,
        cfg: TesterCfg,
    ) -> Self {
        assert!(!pool.is_empty(), "tester needs a nonempty address pool");
        TesterCore {
            name: name.into(),
            cache,
            core_index,
            shared,
            pool,
            cfg,
            in_flight: HashMap::new(),
            next_id: 0,
            issued_ops: 0,
            completed_ops: 0,
            latency_sum: 0,
            issue_times: HashMap::new(),
        }
    }

    /// Operations completed by this core.
    pub fn completed(&self) -> u64 {
        self.completed_ops
    }

    /// Operations still outstanding (nonzero at the end of a run means a
    /// request was never answered — a liveness failure).
    pub fn outstanding(&self) -> usize {
        self.in_flight.len()
    }

    /// Addresses (and store-ness) of outstanding operations, for debugging
    /// liveness failures. Sorted by issue id so post-mortem flags are
    /// deterministic despite the `HashMap` underneath.
    pub fn outstanding_ops(&self) -> Vec<(u64, bool)> {
        let mut ops: Vec<_> = self.in_flight.iter().map(|(&id, &op)| (id, op)).collect();
        ops.sort_unstable_by_key(|&(id, _)| id);
        ops.into_iter().map(|(_, op)| op).collect()
    }

    fn issue_one(&mut self, ctx: &mut Ctx<'_>) {
        let pick = ctx.rng().gen_range(0..self.pool.len());
        let word_addr = self.pool[pick];
        let mut shared = self.shared.lock().unwrap();
        let is_writer = shared.writer_of(word_addr) == self.core_index;
        let store = is_writer && ctx.rng().gen_range(0u32..100) < self.cfg.store_percent;
        let id = self.next_id;
        self.next_id += 1;
        let kind = if store {
            let next = shared.issued.get(&word_addr).copied().unwrap_or(0) + 1;
            shared.issued.insert(word_addr, next);
            CoreKind::Store { value: next }
        } else {
            CoreKind::Load
        };
        drop(shared);
        self.in_flight.insert(id, (word_addr, store));
        self.issue_times.insert(id, ctx.now().as_u64());
        self.issued_ops += 1;
        ctx.send(
            self.cache,
            CoreMsg {
                id,
                addr: Addr::new(word_addr),
                kind,
            }
            .into(),
        );
    }
}

impl Component<Message> for TesterCore {
    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, _from: NodeId, msg: Message, ctx: &mut Ctx<'_>) {
        let Message::Core(c) = msg else { return };
        let Some((word_addr, was_store)) = self.in_flight.remove(&c.id) else {
            return;
        };
        if let Some(t0) = self.issue_times.remove(&c.id) {
            self.latency_sum += ctx.now().as_u64() - t0;
        }
        match c.kind {
            CoreKind::LoadResp { value } => {
                debug_assert!(!was_store);
                let mut shared = self.shared.lock().unwrap();
                let before = shared.data_errors();
                shared.check_load(self.core_index, word_addr, value);
                let corrupted = shared.data_errors() > before;
                drop(shared);
                if corrupted {
                    ctx.flag_post_mortem(
                        Addr::new(word_addr).block().as_u64(),
                        format!(
                            "{}: value check failed at word {word_addr:#x} (read {value})",
                            self.name
                        ),
                    );
                }
            }
            CoreKind::StoreResp => {
                debug_assert!(was_store);
            }
            _ => return,
        }
        self.completed_ops += 1;
        {
            let mut shared = self.shared.lock().unwrap();
            shared.completed += 1;
            let done = shared.done();
            drop(shared);
            self.shared.publish_done(done);
        }
        ctx.note_progress();
        // Immediately consider issuing again (the wake loop also runs).
        if !self.shared.done_fast() && self.in_flight.len() < self.cfg.max_in_flight {
            let delay = ctx.rng().gen_range(self.cfg.think.0..=self.cfg.think.1);
            ctx.wake_in(delay, 0);
        }
    }

    fn wake(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
        if self.shared.done_fast() {
            return;
        }
        if self.in_flight.len() < self.cfg.max_in_flight {
            self.issue_one(ctx);
        }
        let delay = ctx.rng().gen_range(self.cfg.think.0..=self.cfg.think.1);
        ctx.wake_in(delay, 0);
    }

    fn report(&self, out: &mut Report) {
        let n = &self.name;
        out.add(format!("{n}.ops_completed"), self.completed_ops);
        out.add(format!("{n}.ops_issued"), self.issued_ops);
        out.add(format!("{n}.latency_sum"), self.latency_sum);
        out.add(format!("{n}.outstanding"), self.in_flight.len() as u64);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Builds a word-address pool of `blocks` cache blocks × `words_per_block`
/// words starting at `base`.
pub fn word_pool(base: u64, blocks: u64, words_per_block: u64) -> Vec<u64> {
    let mut pool = Vec::new();
    for b in 0..blocks {
        for w in 0..words_per_block.min(8) {
            pool.push(base + b * 64 + w * 8);
        }
    }
    pool
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_assignment_is_stable_and_spread() {
        let shared = TesterShared::new(4, 100);
        let s = shared.lock().unwrap();
        let mut seen = std::collections::HashSet::new();
        for w in 0..64u64 {
            let writer = s.writer_of(w * 8);
            assert_eq!(writer, s.writer_of(w * 8), "stable");
            seen.insert(writer);
        }
        assert_eq!(seen.len(), 4, "all cores get to write something");
    }

    #[test]
    fn check_load_flags_future_and_backwards_values() {
        let shared = TesterShared::new(2, 100);
        let mut s = shared.lock().unwrap();
        s.issued.insert(0x100, 5);
        s.check_load(0, 0x100, 3);
        assert_eq!(s.data_errors(), 0);
        s.check_load(0, 0x100, 6); // beyond issued
        assert_eq!(s.data_errors(), 1);
        s.check_load(0, 0x100, 2); // went backwards (saw 3 before)
        assert_eq!(s.data_errors(), 2);
        assert_eq!(s.data_errors_of(0), 2, "both failures blame core 0");
        assert_eq!(s.data_errors_of(1), 0, "core 1 saw nothing");
        assert!(
            s.error_log()[1].contains("went backwards") || s.error_log()[0].contains("written")
        );
    }

    #[test]
    fn word_pool_layout() {
        let pool = word_pool(0x1000, 2, 3);
        assert_eq!(pool, vec![0x1000, 0x1008, 0x1010, 0x1040, 0x1048, 0x1050]);
    }
}
