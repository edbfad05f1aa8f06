//! Fuzzers: pathological accelerators (paper §1, §4).
//!
//! [`FuzzAccel`] "bombards the Crossing Guard with a stream of random
//! coherence messages to random addresses" — every interface kind
//! (including host-to-accelerator kinds an accelerator should never send),
//! random payload sizes, random addresses, and random or absent responses
//! to invalidations. A safe guard never crashes, never deadlocks the host,
//! and reports errors to the OS.
//!
//! It is the only XGI attacker in the tree: the campaign replays
//! [`Schedule`]s through it and `xg-check` drives it one step per wake.
//!
//! [`FuzzHostCache`] is the control experiment: the same garbage aimed
//! directly at an *unprotected* host protocol, as a buggy accelerator-side
//! cache (Figure 2(a)) could do. The strict (unmodified) host counts
//! protocol violations and can wedge — which is the point.

use rand::rngs::SmallRng;
use rand::Rng;
use xg_mem::{BlockAddr, DataBlock, PermissionTable};
use xg_proto::{
    Ctx, HammerKind, HammerMsg, HomeMap, MesiKind, MesiMsg, Message, XgData, XgiKind, XgiMsg,
};
use xg_sim::{CheckDigest, Component, NodeId, Report};

use crate::config::HostProtocol;

/// Number of distinct interface-kind codes a fuzz step can carry (the eight
/// accelerator-legal kinds plus the five guard-only kinds, mirrored from
/// [`XgiKind`]).
pub const FUZZ_KIND_CODES: u8 = 13;

/// Number of distinct invalidation-response codes: `InvAck`, `CleanWb`,
/// `DirtyWb`, a non-response `GetM`, and a `PutS` race immediately chased
/// by a stale `DirtyWb` (the Put-vs-Inv race of paper §2.1, answered with
/// the one response that is inconsistent afterwards — the deterministic
/// guarantee-2a probe).
pub const INV_RESPONSE_CODES: u8 = 5;

/// Name of each interface-kind code, in code order (see [`xgi_kind`]).
pub const FUZZ_KIND_NAMES: [&str; FUZZ_KIND_CODES as usize] = [
    "GetS", "GetM", "PutS", "PutE", "PutM", "InvAck", "CleanWb", "DirtyWb", "DataS", "DataE",
    "DataM", "WbAck", "Inv",
];

/// Name of each invalidation-response code, in code order (see
/// [`inv_response`]).
pub const INV_RESPONSE_NAMES: [&str; INV_RESPONSE_CODES as usize] = [
    "InvAck",
    "CleanWb",
    "DirtyWb",
    "GetM (non-response)",
    "PutS then DirtyWb (race)",
];

/// Fill byte of hand-written step payloads (identifies them in traces).
pub const STEP_FILL: u8 = 0x11;

/// Fill byte of every scripted invalidation-response payload.
pub const INV_FILL: u8 = 0xA5;

/// One scripted injection: wait `delay` cycles after the previous step,
/// then send interface kind `kind` at `block`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzStep {
    /// Cycles after the previous injection (clamped to ≥ 1).
    pub delay: u64,
    /// Absolute block index (address is `block * 64`).
    pub block: u64,
    /// Interface kind code, `0..FUZZ_KIND_CODES` (same decoding as the
    /// random fuzzer).
    pub kind: u8,
    /// Payload size in blocks for data-carrying kinds (`1..=3`; sizes other
    /// than the guard's block size are deliberate `Malformed` probes).
    pub payload_blocks: u8,
    /// Byte splatted across the payload (identifies the step in traces).
    pub fill: u8,
}

/// One scripted reaction to a forwarded invalidation. Policies are consumed
/// in order, cycling, so a schedule fixes the *entire* response behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvPolicy {
    /// Respond at all? `false` is the guarantee-2c silence probe.
    pub respond: bool,
    /// Response code, `0..INV_RESPONSE_CODES`.
    pub kind: u8,
    /// Payload blocks for writeback responses (`1..=3`).
    pub payload_blocks: u8,
}

/// A fully deterministic injection schedule: what the fuzz accelerator
/// sends, when, and how it answers invalidations. Schedules are the unit
/// the coverage-guided campaign stores, mutates, and minimizes — replaying
/// the same schedule against the same [`crate::SystemConfig`] byte-for-byte
/// reproduces the run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schedule {
    /// Scripted injections, in order.
    pub steps: Vec<FuzzStep>,
    /// Scripted invalidation responses, consumed cyclically (empty =
    /// permanent silence).
    pub responses: Vec<InvPolicy>,
}

impl Schedule {
    /// Generates a random schedule of `len` steps over `blocks` candidate
    /// block indices — the blind seed the campaign starts from.
    pub fn random(rng: &mut SmallRng, len: usize, blocks: &[u64]) -> Schedule {
        assert!(!blocks.is_empty(), "schedule needs a non-empty block pool");
        let steps = (0..len)
            .map(|_| FuzzStep {
                delay: rng.gen_range(1..=30),
                block: blocks[rng.gen_range(0..blocks.len())],
                kind: rng.gen_range(0..FUZZ_KIND_CODES),
                payload_blocks: rng.gen_range(1..=3),
                fill: rng.gen(),
            })
            .collect();
        let responses = (0..rng.gen_range(1..=4usize))
            .map(|_| InvPolicy {
                respond: rng.gen_range(0u32..100) < 70,
                kind: rng.gen_range(0..INV_RESPONSE_CODES),
                payload_blocks: rng.gen_range(1..=3),
            })
            .collect();
        Schedule { steps, responses }
    }

    /// Serializes to a line-oriented text form (the corpus on-disk format).
    pub fn to_text(&self) -> String {
        let mut out = String::from("xg-schedule v1\n");
        for s in &self.steps {
            out.push_str(&format!(
                "s {} {} {} {} {}\n",
                s.delay, s.block, s.kind, s.payload_blocks, s.fill
            ));
        }
        for r in &self.responses {
            out.push_str(&format!(
                "r {} {} {}\n",
                u8::from(r.respond),
                r.kind,
                r.payload_blocks
            ));
        }
        out
    }

    /// Parses the [`to_text`](Schedule::to_text) form.
    pub fn from_text(input: &str) -> Result<Schedule, String> {
        let mut lines = input.lines().filter(|l| !l.trim().is_empty());
        let header = lines.next().ok_or("empty schedule")?;
        if header.trim() != "xg-schedule v1" {
            return Err(format!("unknown schedule header: {header:?}"));
        }
        let mut sched = Schedule::default();
        for line in lines {
            let mut f = line.split_whitespace();
            let tag = f.next().ok_or("blank record")?;
            let mut num = |what: &str| -> Result<u64, String> {
                f.next()
                    .ok_or_else(|| format!("{what}: missing field in {line:?}"))?
                    .parse::<u64>()
                    .map_err(|e| format!("{what}: {e} in {line:?}"))
            };
            match tag {
                "s" => sched.steps.push(FuzzStep {
                    delay: num("delay")?,
                    block: num("block")?,
                    kind: num("kind")? as u8 % FUZZ_KIND_CODES,
                    payload_blocks: (num("payload")? as u8).clamp(1, 3),
                    fill: num("fill")? as u8,
                }),
                "r" => sched.responses.push(InvPolicy {
                    respond: num("respond")? != 0,
                    kind: num("kind")? as u8 % INV_RESPONSE_CODES,
                    payload_blocks: (num("payload")? as u8).clamp(1, 3),
                }),
                other => return Err(format!("unknown record tag {other:?}")),
            }
        }
        Ok(sched)
    }
}

/// Fuzzing parameters.
#[derive(Debug, Clone)]
pub struct FuzzOpts {
    /// Total messages to inject (random mode; scripted mode sends exactly
    /// the schedule's steps).
    pub messages: u64,
    /// Address pool size in blocks (addresses are `0..blocks * 64`).
    pub pool_blocks: u64,
    /// Cycles between injections (min, max).
    pub gap: (u64, u64),
    /// Percent of invalidations that get *some* response (the rest are
    /// dropped to exercise the 2c timeout).
    pub respond_percent: u32,
    /// When set, the fuzz accelerator replays this exact schedule instead
    /// of drawing randomly — the campaign/minimizer mode.
    pub schedule: Option<Schedule>,
    /// Extra pages granted *read-only* permission (on top of the read-write
    /// attack pool). Lets a campaign legally take shared copies of
    /// CPU-owned blocks, which is what draws host demands (and hence the
    /// 2a/2c invalidation guarantees) through the guard.
    pub read_only_pages: Vec<u64>,
}

impl Default for FuzzOpts {
    fn default() -> Self {
        FuzzOpts {
            messages: 500,
            pool_blocks: 16,
            gap: (1, 30),
            respond_percent: 70,
            schedule: None,
            read_only_pages: Vec::new(),
        }
    }
}

fn random_payload(ctx: &mut Ctx<'_>) -> XgData {
    // Deliberately sometimes the wrong size.
    let n = ctx.rng().gen_range(1..=3);
    let mut blocks = Vec::with_capacity(n);
    for _ in 0..n {
        blocks.push(DataBlock::splat(ctx.rng().gen()));
    }
    XgData::from_blocks(blocks)
}

/// Deterministic payload for scripted steps: `blocks` copies of `fill`.
fn scripted_payload(blocks: u8, fill: u8) -> XgData {
    XgData::from_blocks(vec![DataBlock::splat(fill); blocks.clamp(1, 3) as usize])
}

/// Decodes an interface-kind code (taken modulo [`FUZZ_KIND_CODES`]).
/// `payload` is called once, and only for the data-carrying kinds, so a
/// random caller draws its payload at exactly that point.
pub fn xgi_kind(code: u8, mut payload: impl FnMut() -> XgData) -> XgiKind {
    match code % FUZZ_KIND_CODES {
        0 => XgiKind::GetS,
        1 => XgiKind::GetM,
        2 => XgiKind::PutS,
        3 => XgiKind::PutE { data: payload() },
        4 => XgiKind::PutM { data: payload() },
        5 => XgiKind::InvAck,
        6 => XgiKind::CleanWb { data: payload() },
        7 => XgiKind::DirtyWb { data: payload() },
        // Kinds only the guard may legally send — pure garbage from us.
        8 => XgiKind::DataS { data: payload() },
        9 => XgiKind::DataE { data: payload() },
        10 => XgiKind::DataM { data: payload() },
        11 => XgiKind::WbAck,
        _ => XgiKind::Inv,
    }
}

/// Decodes an invalidation-response code (taken modulo
/// [`INV_RESPONSE_CODES`]) into the message sequence to send. The
/// guard↔accelerator link is ordered, so multi-message replies arrive in
/// this order. `payload` is called once per writeback.
pub fn inv_response(code: u8, mut payload: impl FnMut() -> XgData) -> Vec<XgiKind> {
    match code % INV_RESPONSE_CODES {
        0 => vec![XgiKind::InvAck],
        1 => vec![XgiKind::CleanWb { data: payload() }],
        2 => vec![XgiKind::DirtyWb { data: payload() }],
        // Something that is not a response at all.
        3 => vec![XgiKind::GetM],
        // The Put-vs-Inv race, then a writeback where only the trailing
        // InvAck is legal.
        _ => vec![XgiKind::PutS, XgiKind::DirtyWb { data: payload() }],
    }
}

/// A pathologically buggy accelerator attached to a Crossing Guard. With
/// no schedule it draws everything at random; with one it paces itself by
/// the step delays and cycles the replies; [`FuzzAccel::stepped`] sends
/// one step per external wake and uses each reply once. It counts the
/// Guarantee-0 breaches it receives against its guard's page table.
pub struct FuzzAccel {
    name: String,
    xg: NodeId,
    opts: FuzzOpts,
    perms: PermissionTable,
    stepped: bool,
    sent: u64,
    invs_seen: u64,
    inv_responses: u64,
    grants_seen: u64,
    first_inject: Option<u64>,
    last_inject: u64,
    next_step: usize,
    resp_idx: usize,
    unscripted: u64,
    forbidden_data: u64,
    ro_exclusive_data: u64,
}

impl FuzzAccel {
    /// Creates a fuzzer aimed at `xg`, whose guard enforces `perms`.
    pub fn new(
        name: impl Into<String>,
        xg: NodeId,
        opts: FuzzOpts,
        perms: PermissionTable,
    ) -> Self {
        FuzzAccel {
            name: name.into(),
            xg,
            opts,
            perms,
            stepped: false,
            sent: 0,
            invs_seen: 0,
            inv_responses: 0,
            grants_seen: 0,
            first_inject: None,
            last_inject: 0,
            next_step: 0,
            resp_idx: 0,
            unscripted: 0,
            forbidden_data: 0,
            ro_exclusive_data: 0,
        }
    }

    /// Creates a stepped fuzzer (the model checker's attacker): each
    /// external wake sends the next step of `schedule`, each reply is used
    /// once, and later invalidations stay silent and are counted.
    pub fn stepped(
        name: impl Into<String>,
        xg: NodeId,
        schedule: Schedule,
        perms: PermissionTable,
    ) -> Self {
        let opts = FuzzOpts {
            schedule: Some(schedule),
            ..FuzzOpts::default()
        };
        FuzzAccel {
            stepped: true,
            ..FuzzAccel::new(name, xg, opts, perms)
        }
    }

    /// Messages injected so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Invalidations that found no scripted reply (they stayed silent).
    pub fn unscripted_invs(&self) -> u64 {
        self.unscripted
    }

    /// Grants received on pages it may not read (Guarantee 0a; must be 0).
    pub fn forbidden_data(&self) -> u64 {
        self.forbidden_data
    }

    /// `DataE`/`DataM` received on pages it may not write (0b; must be 0).
    pub fn ro_exclusive_data(&self) -> u64 {
        self.ro_exclusive_data
    }
}

impl Component<Message> for FuzzAccel {
    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, _from: NodeId, msg: Message, ctx: &mut Ctx<'_>) {
        let Message::Xgi(m) = msg else { return };
        match m.kind {
            XgiKind::Inv => {
                self.invs_seen += 1;
                if let Some(schedule) = &self.opts.schedule {
                    // Scripted mode: a stepped fuzzer uses each reply once,
                    // a timed one cycles through them.
                    let responses = &schedule.responses;
                    let policy = if self.stepped || responses.is_empty() {
                        responses.get(self.resp_idx).copied()
                    } else {
                        Some(responses[self.resp_idx % responses.len()])
                    };
                    self.resp_idx += 1;
                    match policy {
                        None => self.unscripted += 1,
                        Some(p) if p.respond => {
                            self.inv_responses += 1;
                            let data = || scripted_payload(p.payload_blocks, INV_FILL);
                            for kind in inv_response(p.kind, data) {
                                ctx.send(self.xg, XgiMsg::new(m.addr, kind).into());
                            }
                        }
                        Some(_) => {}
                    }
                    return;
                }
                if ctx.rng().gen_range(0u32..100) < self.opts.respond_percent {
                    self.inv_responses += 1;
                    // Respond with a random (often wrong) response: the
                    // first four codes, never the scripted-only race.
                    let code = ctx.rng().gen_range(0..4);
                    for kind in inv_response(code, || random_payload(ctx)) {
                        ctx.send(self.xg, XgiMsg::new(m.addr, kind).into());
                    }
                }
                // Otherwise: silence → the guard's 2c timeout must cover.
            }
            XgiKind::DataS { .. } | XgiKind::DataE { .. } | XgiKind::DataM { .. } => {
                self.grants_seen += 1;
                let perm = self.perms.get(m.addr.page());
                if !perm.allows_read() {
                    self.forbidden_data += 1;
                } else if !perm.allows_write() && !matches!(m.kind, XgiKind::DataS { .. }) {
                    self.ro_exclusive_data += 1;
                }
            }
            _ => {}
        }
    }

    fn wake(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
        // What to send, and (unless stepped) when to wake next.
        let (block, kind, next_delay) = match &self.opts.schedule {
            Some(schedule) => {
                // Scripted mode: replay the schedule step by step.
                let Some(&step) = schedule.steps.get(self.next_step) else {
                    return;
                };
                self.next_step += 1;
                let next = schedule.steps.get(self.next_step);
                let kind = xgi_kind(step.kind, || {
                    scripted_payload(step.payload_blocks, step.fill)
                });
                let next_delay = next.filter(|_| !self.stepped).map(|n| n.delay.max(1));
                (step.block, kind, next_delay)
            }
            None if self.sent >= self.opts.messages => return,
            None => {
                let pages = &self.opts.read_only_pages;
                let block = if !pages.is_empty() && ctx.rng().gen_range(0..4u32) == 0 {
                    // Spend a quarter of the budget on the read-only
                    // windows: legally taking shared copies of CPU-owned
                    // blocks is what draws host demand (invalidation)
                    // traffic through the guard.
                    let page = pages[ctx.rng().gen_range(0..pages.len())];
                    page * (xg_mem::PAGE_BYTES / xg_mem::BLOCK_BYTES) + ctx.rng().gen_range(0..4u64)
                } else {
                    ctx.rng().gen_range(0..self.opts.pool_blocks)
                };
                let code = ctx.rng().gen_range(0..FUZZ_KIND_CODES);
                let kind = xgi_kind(code, || random_payload(ctx));
                let delay = ctx.rng().gen_range(self.opts.gap.0..=self.opts.gap.1);
                (block, kind, Some(delay))
            }
        };
        ctx.send(self.xg, XgiMsg::new(BlockAddr::new(block), kind).into());
        self.sent += 1;
        let now = ctx.now().as_u64();
        self.first_inject.get_or_insert(now);
        self.last_inject = now;
        if let Some(delay) = next_delay {
            ctx.wake_in(delay, 0);
        }
    }

    fn check_state(&self, out: &mut CheckDigest) {
        // Only the Guarantee-0 counters (nonzero only in violating states)
        // are digested, so a violating state never aliases a clean one;
        // script progress is not world state.
        out.write_str("chaos");
        out.write_u64(self.forbidden_data);
        out.write_u64(self.ro_exclusive_data);
    }

    fn report(&self, out: &mut Report) {
        let n = &self.name;
        out.add(format!("{n}.sent"), self.sent);
        out.add(format!("{n}.invs_seen"), self.invs_seen);
        out.add(format!("{n}.inv_responses"), self.inv_responses);
        out.add(format!("{n}.grants_seen"), self.grants_seen);
        out.add(format!("{n}.first_inject"), self.first_inject.unwrap_or(0));
        out.add(format!("{n}.last_inject"), self.last_inject);
        out.add(format!("{n}.unscripted_invs"), self.unscripted);
        out.add(format!("{n}.forbidden_data"), self.forbidden_data);
        out.add(format!("{n}.ro_exclusive_data"), self.ro_exclusive_data);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A fuzzer that speaks the raw host protocol — what a buggy
/// accelerator-side cache can do to an unprotected host (Figure 2(a)).
pub struct FuzzHostCache {
    name: String,
    host: HostProtocol,
    home: HomeMap,
    peers: Vec<NodeId>,
    opts: FuzzOpts,
    sent: u64,
}

impl FuzzHostCache {
    /// Creates a host-protocol fuzzer: requests go to the owning home
    /// bank of `home`, responses to random `peers`.
    pub fn new(
        name: impl Into<String>,
        host: HostProtocol,
        home: impl Into<HomeMap>,
        peers: Vec<NodeId>,
        opts: FuzzOpts,
    ) -> Self {
        FuzzHostCache {
            name: name.into(),
            host,
            home: home.into(),
            peers,
            opts,
            sent: 0,
        }
    }

    fn random_hammer(&self, ctx: &mut Ctx<'_>) -> (HammerKind, bool) {
        // (kind, aimed_at_home)
        let data = DataBlock::splat(ctx.rng().gen());
        match ctx.rng().gen_range(0..8) {
            0 => (HammerKind::GetS, true),
            1 => (HammerKind::GetM, true),
            2 => (HammerKind::Put, true),
            3 => (HammerKind::WbData { data, dirty: true }, true),
            4 => (
                HammerKind::Unblock {
                    new_owner: ctx.rng().gen(),
                },
                true,
            ),
            5 => (
                HammerKind::RespData {
                    data,
                    dirty: ctx.rng().gen(),
                    owner_keeps_copy: ctx.rng().gen(),
                },
                false,
            ),
            6 => (
                HammerKind::RespAck {
                    had_copy: ctx.rng().gen(),
                },
                false,
            ),
            _ => (HammerKind::WbAck, false),
        }
    }

    fn random_mesi(&self, ctx: &mut Ctx<'_>) -> (MesiKind, bool) {
        let data = DataBlock::splat(ctx.rng().gen());
        match ctx.rng().gen_range(0..8) {
            0 => (MesiKind::GetS, true),
            1 => (MesiKind::GetM, true),
            2 => (MesiKind::PutS, true),
            3 => (MesiKind::PutM { data }, true),
            4 => (
                MesiKind::OwnerWb {
                    data,
                    dirty: ctx.rng().gen(),
                },
                true,
            ),
            5 => (
                MesiKind::RecallData {
                    data,
                    dirty: ctx.rng().gen(),
                },
                true,
            ),
            6 => (MesiKind::InvAck, false),
            _ => (
                MesiKind::FwdData {
                    data,
                    dirty: ctx.rng().gen(),
                    exclusive: ctx.rng().gen(),
                },
                false,
            ),
        }
    }
}

impl Component<Message> for FuzzHostCache {
    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, _from: NodeId, _msg: Message, _ctx: &mut Ctx<'_>) {
        // Discard everything — including requests the host is waiting on.
    }

    fn wake(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
        if self.sent >= self.opts.messages {
            return;
        }
        let block = BlockAddr::new(ctx.rng().gen_range(0..self.opts.pool_blocks));
        let msg: Message;
        let to: NodeId;
        match self.host {
            HostProtocol::Hammer => {
                let (kind, at_home) = self.random_hammer(ctx);
                to = if at_home || self.peers.is_empty() {
                    self.home.for_block(block)
                } else {
                    let i = ctx.rng().gen_range(0..self.peers.len());
                    self.peers[i]
                };
                msg = HammerMsg::new(block, kind).into();
            }
            HostProtocol::Mesi => {
                let (kind, at_home) = self.random_mesi(ctx);
                to = if at_home || self.peers.is_empty() {
                    self.home.for_block(block)
                } else {
                    let i = ctx.rng().gen_range(0..self.peers.len());
                    self.peers[i]
                };
                msg = MesiMsg::new(block, kind).into();
            }
        }
        ctx.send(to, msg);
        self.sent += 1;
        let delay = ctx.rng().gen_range(self.opts.gap.0..=self.opts.gap.1);
        ctx.wake_in(delay, 0);
    }

    fn report(&self, out: &mut Report) {
        out.add(format!("{}.sent", self.name), self.sent);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::collections::BTreeSet;
    use xg_mem::PagePerm;

    #[test]
    fn schedule_text_round_trips() {
        let mut rng = SmallRng::seed_from_u64(7);
        for len in [0usize, 1, 17] {
            let s = Schedule::random(&mut rng, len, &[0, 5, 0x40000]);
            let back = Schedule::from_text(&s.to_text()).unwrap();
            assert_eq!(back, s);
        }
    }

    #[test]
    fn schedule_parse_rejects_garbage() {
        assert!(Schedule::from_text("").is_err());
        assert!(Schedule::from_text("not-a-schedule\n").is_err());
        assert!(Schedule::from_text("xg-schedule v1\nq 1 2 3\n").is_err());
        assert!(Schedule::from_text("xg-schedule v1\ns 1 2\n").is_err());
        assert!(Schedule::from_text("xg-schedule v1\ns a b c d e\n").is_err());
    }

    #[test]
    fn schedule_parse_normalizes_codes() {
        let s = Schedule::from_text("xg-schedule v1\ns 0 3 200 9 1\nr 1 250 0\n").unwrap();
        assert!(s.steps[0].kind < FUZZ_KIND_CODES);
        assert!((1..=3).contains(&s.steps[0].payload_blocks));
        assert!(s.responses[0].kind < INV_RESPONSE_CODES);
        assert!((1..=3).contains(&s.responses[0].payload_blocks));
    }

    #[test]
    fn each_decoder_maps_every_code_to_a_distinct_kind() {
        let data = || scripted_payload(1, 0);
        let kinds: Vec<_> = (0..FUZZ_KIND_CODES).map(|k| xgi_kind(k, data)).collect();
        let names: BTreeSet<_> = kinds.iter().map(XgiKind::mnemonic).collect();
        assert_eq!(names.len(), kinds.len(), "two codes decode to one kind");
        assert!(kinds
            .iter()
            .zip(FUZZ_KIND_NAMES)
            .all(|(k, n)| k.mnemonic() == n));
        let reply = |c| format!("{:?}", inv_response(c, data));
        let replies: BTreeSet<_> = (0..INV_RESPONSE_CODES).map(reply).collect();
        assert_eq!(replies.len(), usize::from(INV_RESPONSE_CODES));
    }

    const GUARD: NodeId = NodeId::from_index(1);

    /// Wakes `fuzzer` (node 0) `wakes` times and has its guard (node 1, an
    /// inert OS sink) send it `msgs`, then hands the fuzzer to `check`.
    fn run(fuzzer: FuzzAccel, wakes: u64, msgs: &[XgiMsg], check: impl FnOnce(&FuzzAccel)) {
        let mut b = xg_proto::SimBuilder::new(1);
        let fz = b.add(Box::new(fuzzer));
        let os = xg_core::Os::new("xg", xg_core::OsPolicy::ReportOnly);
        assert_eq!(b.add(Box::new(os)), GUARD);
        b.default_link(xg_sim::Link::ordered(1, 1));
        let mut sim = b.build();
        for i in 0..wakes {
            sim.post_wake(fz, 1 + i, 0);
        }
        for m in msgs {
            sim.post(GUARD, fz, m.clone().into());
        }
        assert!(sim.run_to_quiescence(10_000).quiescent);
        check(sim.get::<FuzzAccel>(fz).unwrap());
    }

    fn all_rw() -> PermissionTable {
        PermissionTable::with_default(PagePerm::ReadWrite)
    }

    #[test]
    fn scripted_drivers_use_replies_once_when_stepped_and_cycle_when_timed() {
        // Two steps; replies "InvAck, then silence"; three invalidations.
        let text = "xg-schedule v1\ns 5 1 0 1 17\ns 5 1 0 1 17\nr 1 0 1\nr 0 0 1\n";
        let sched = Schedule::from_text(text).unwrap();
        let invs = vec![XgiMsg::new(BlockAddr::new(1), XgiKind::Inv); 3];
        let stepped = || FuzzAccel::stepped("c", GUARD, sched.clone(), all_rw());
        run(stepped(), 1, &invs, |fz| {
            assert_eq!(fz.sent(), 1, "one wake, one step");
            assert_eq!(fz.inv_responses, 1, "InvAck once, then silence");
            assert_eq!(fz.unscripted_invs(), 1, "the third Inv has no reply");
        });
        run(stepped(), 3, &[], |fz| assert_eq!(fz.sent(), 2));
        let timed = |responses| {
            let schedule = Some(Schedule {
                responses,
                ..sched.clone()
            });
            let opts = FuzzOpts {
                schedule,
                ..FuzzOpts::default()
            };
            FuzzAccel::new("f", GUARD, opts, all_rw())
        };
        run(timed(sched.responses.clone()), 1, &invs, |fz| {
            assert_eq!(fz.sent(), 2, "one wake sends the whole schedule");
            assert_eq!(fz.inv_responses, 2, "InvAck, silence, InvAck again");
            assert_eq!(fz.unscripted_invs(), 0);
        });
        // An empty reply list is permanent silence.
        run(timed(Vec::new()), 1, &invs, |fz| {
            assert_eq!(fz.inv_responses, 0);
            assert_eq!(fz.unscripted_invs(), 3);
        });
    }

    #[test]
    fn guarantee0_breaches_are_judged_by_page_permission() {
        // Blocks 0, 64 and 128 sit on read-write, read-only and no-access
        // pages. Codes 8, 9 and 10 are DataS, DataE and DataM.
        let mut perms = all_rw();
        perms.set(BlockAddr::new(64).page(), PagePerm::Read);
        perms.set(BlockAddr::new(128).page(), PagePerm::None);
        let grants = [(0, 10), (64, 8), (64, 9), (64, 10), (128, 8), (128, 9)];
        let data = || scripted_payload(1, 0);
        let grants = grants.map(|(b, c)| XgiMsg::new(BlockAddr::new(b), xgi_kind(c, data)));
        let fuzzer = FuzzAccel::stepped("c", GUARD, Schedule::default(), perms);
        run(fuzzer, 0, &grants, |fz| {
            assert_eq!(fz.forbidden_data(), 2, "0a: any grant, unreadable page");
            assert_eq!(fz.ro_exclusive_data(), 2, "0b: DataE/DataM, read-only page");
        });
    }
}
