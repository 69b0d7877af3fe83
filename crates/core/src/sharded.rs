//! `ShardedGtm2` — the Basic_Scheme loop with a site-partitioned WAIT set.
//!
//! Theorem 2 reduces global serializability to the serializability of
//! `ser(S)`, whose conflict relation is *per site*: two `ser_k(G_i)`
//! events conflict only when they occur at the same site. This engine
//! exploits that structure. QUEUE and WAIT are partitioned into shards
//! (site `k` owns shard `k mod nshards`), each pumped independently —
//! by its own [`SiteWorker`](../../mdbs_sim/threaded/index.html) thread in
//! the threaded runtime — while the scheme state itself, the one structure
//! whose updates must stay totally ordered, lives in a single global core
//! behind its own lock.
//!
//! ## Routing
//!
//! - **Scheme 0 / Scheme 1** partition cleanly: `ser`/`ack` operations are
//!   examined in the shard owning their site; siteless `init`/`fin` go to
//!   shard 0. Their `wake_candidates` hints are site-local (Scheme 0) or
//!   site-local-plus-fins (Scheme 1), so most wakes never leave a shard.
//! - **Schemes 2/3 and the baselines**: `cond` depends on cross-site state
//!   (`ser_bef` sets, TSGD paths), so all operations funnel through shard
//!   0 — the global shard — and the other shards stay empty. In this
//!   configuration the engine is operation-for-operation identical to
//!   [`Gtm2`](crate::gtm2::Gtm2).
//!
//! ## Cross-shard handoff
//!
//! After `act(o)` in shard `j`, waiters in *other* shards may have become
//! eligible. The acting thread consults the scheme's
//! [`wake_scope`](crate::scheme::Gtm2Scheme::wake_scope) bound to compute
//! the target shards, appends `o` to each target's handoff queue, and
//! pumps those shards itself (work conservation: a cross-shard wake never
//! waits for the target's next poll tick). Receiving shards re-run
//! `wake_candidates`/`cond` against *current* global state, so handoffs
//! are idempotent re-test hints: a stale or duplicate handoff finds the
//! waiter already gone (an eligible waiter leaves WAIT in the same step
//! that re-tests it, see `gtm2::retest`) and wakes nothing — this
//! is what makes the wake exactly-once.
//!
//! ## Lock order
//!
//! The discipline is strict `shard → global`: a shard lock may be held
//! when the global lock is taken, never the reverse, and never two shard
//! locks together (handoffs are delivered after the source shard's guard
//! is dropped). Both locks are bounded spins ([`OrderedMutex`]), so the
//! pump path never blocks; the acquisition order is visible in the
//! `lock_order.dot` artifact emitted by mdbs-lint.

use crate::gtm2::{retest, Gtm2Stats};
use crate::scheme::{Candidate, Gtm2Scheme, KernelKind, SchemeEffect, SchemeKind, WaitSet};
use crate::ser_s::SerSLog;
use mdbs_common::ids::GlobalTxnId;
use mdbs_common::instrument::{Histogram, Registry, SchedEvent, StderrSink, TraceSink};
use mdbs_common::ops::{QueueOp, QueueOpKind};
use mdbs_common::step::StepCounter;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, TryLockError};

/// A mutex with an adaptive spin-then-park acquire path for the pump and
/// a declared place in the engine's lock order (`shard` before `global`,
/// see module docs).
///
/// Critical sections are short and bounded (no I/O, no channel
/// operations, no nested shard locks), so the common contended case
/// resolves within a few dozen spin iterations; past that bound the
/// acquirer parks on the OS mutex instead of burning a core (the old
/// `try_lock` + `yield_now` loop busy-waited unboundedly, which starves
/// the holder on oversubscribed pools). Contended acquires and parks are
/// counted and exported as `gtm2.shard_lock_contended` /
/// `gtm2.shard_lock_parks`.
struct OrderedMutex<T> {
    raw: Mutex<T>,
    /// Acquires that found the lock held at least once.
    contended: AtomicU64,
    /// Acquires that exhausted the spin budget and parked on `raw`.
    parks: AtomicU64,
}

/// Spin budget before parking: each iteration issues a `spin_loop` hint
/// with exponentially growing repeat counts (1, 2, 4, ... capped), which
/// is the usual adaptive shape — cheap for near-instant handoffs, quickly
/// backing off when the holder is descheduled.
const SPIN_LIMIT: u32 = 6;

impl<T> OrderedMutex<T> {
    fn new(value: T) -> Self {
        OrderedMutex {
            raw: Mutex::new(value),
            contended: AtomicU64::new(0),
            parks: AtomicU64::new(0),
        }
    }

    /// Acquire from coordinator-facing entry points. Same implementation
    /// as [`spin`](OrderedMutex::spin); the distinct name marks the call
    /// sites that define the engine's lock-acquisition order for review.
    fn lock(&self) -> MutexGuard<'_, T> {
        self.spin()
    }

    /// Acquire by adaptive spin, then park (the pump path).
    fn spin(&self) -> MutexGuard<'_, T> {
        for round in 0..=SPIN_LIMIT {
            match self.raw.try_lock() {
                Ok(guard) => return guard,
                // A panicked holder cannot leave the scheduler state
                // half-updated in a way we can repair; keep going with
                // whatever is there, as Gtm2's embedders do.
                Err(TryLockError::Poisoned(poisoned)) => return poisoned.into_inner(),
                Err(TryLockError::WouldBlock) => {
                    if round == 0 {
                        self.contended.fetch_add(1, Ordering::Relaxed);
                    }
                    for _ in 0..(1u32 << round.min(SPIN_LIMIT)) {
                        std::hint::spin_loop();
                    }
                }
            }
        }
        self.parks.fetch_add(1, Ordering::Relaxed);
        // mdbs-lint: allow(blocking-in-pump) — the designed backoff: 2^7 bounded spins above always run first, and shard locks never nest (deliver() drops the source guard), so this park is deadlock-free and brief by construction.
        match self.raw.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// `(contended acquires, parks)` recorded on this mutex so far.
    fn contention(&self) -> (u64, u64) {
        (
            self.contended.load(Ordering::Relaxed),
            self.parks.load(Ordering::Relaxed),
        )
    }

    /// Exclusive access without locking (deterministic single-threaded
    /// callers).
    fn get_mut(&mut self) -> &mut T {
        match self.raw.get_mut() {
            Ok(value) => value,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// Per-shard mutable state: this shard's slice of QUEUE and WAIT.
struct ShardCore {
    /// Arrival-stamped operations routed to this shard (`QUEUE ∩ shard`).
    inbox: VecDeque<(u64, QueueOp)>,
    /// Acted operations handed off from other shards, pending re-test.
    handoff: VecDeque<QueueOp>,
    /// This shard's partition of the WAIT set.
    wait: WaitSet,
    /// `ser` operations that raced ahead of their `init` (possible only
    /// under partitioned routing): parked here until the `init`'s act is
    /// handed off from shard 0.
    pre_init: BTreeMap<GlobalTxnId, Vec<(u64, QueueOp)>>,
    /// Wake candidates examined per act in this shard (log₂ histogram).
    wake_scan: Histogram,
    /// Reusable buffer for the cascading wake worklist (no per-act
    /// allocation).
    wake_buf: VecDeque<Candidate>,
    /// Peak size of this shard's WAIT partition.
    wait_peak: u64,
    /// Handoff messages actually delivered into this shard.
    handoffs_in: u64,
}

impl ShardCore {
    fn new() -> Self {
        ShardCore {
            inbox: VecDeque::new(),
            handoff: VecDeque::new(),
            wait: WaitSet::new(),
            pre_init: BTreeMap::new(),
            wake_scan: Histogram::new(),
            wake_buf: VecDeque::new(),
            wait_peak: 0,
            handoffs_in: 0,
        }
    }

    /// True if a handoff delivered here could possibly do anything.
    fn has_waiters(&self) -> bool {
        !self.wait.is_empty() || !self.pre_init.is_empty()
    }

    fn backlog(&self) -> usize {
        let parked: usize = self.pre_init.values().map(Vec::len).sum();
        self.inbox.len() + self.handoff.len() + parked
    }
}

/// One shard cell. The field is named `shard` so the lock appears as
/// `shard` in the mdbs-lint lock-order graph.
struct ShardCell {
    shard: OrderedMutex<ShardCore>,
    /// Lock-free mirrors of this shard's `wake_scan` histogram totals,
    /// refreshed (under the shard lock, so writes never race) at the end
    /// of every drained slot. Concurrent pumps of *other* shards can't
    /// lose or tear these updates, so aggregation across shards is
    /// coherent mid-run without taking every shard lock.
    wake_scan_count: AtomicU64,
    wake_scan_sum: AtomicU64,
}

impl ShardCell {
    fn new(core: ShardCore) -> Self {
        ShardCell {
            shard: OrderedMutex::new(core),
            wake_scan_count: AtomicU64::new(0),
            wake_scan_sum: AtomicU64::new(0),
        }
    }

    /// Refresh the atomic mirrors from the locked core (caller holds the
    /// shard guard, making this the only writer).
    fn publish_wake_scan(&self, core: &ShardCore) {
        self.wake_scan_sum
            .store(core.wake_scan.sum(), Ordering::Release);
        self.wake_scan_count
            .store(core.wake_scan.count(), Ordering::Release);
    }
}

/// Global (unsharded) state: the scheme and every counter whose updates
/// must be totally ordered.
struct GlobalCore {
    scheme: Box<dyn Gtm2Scheme + Send>,
    steps: StepCounter,
    stats: Gtm2Stats,
    ser_log: SerSLog,
    /// Transactions whose `init` has been acted. Never pruned within a
    /// run: a late `ser` must not re-trip the pre-init gate after `fin`.
    inited: BTreeSet<GlobalTxnId>,
    /// Currently active transactions (`init`ed, not `fin`ished).
    active: u64,
    /// Exact current WAIT population across all shards (every WAIT
    /// mutation happens under this lock, so the count is race-free).
    wait_live: u64,
    /// Validate scheme invariants after every act (used by tests).
    validate: bool,
    /// Structured event sink; `None` = tracing disabled.
    sink: Option<Box<dyn TraceSink + Send>>,
    /// Clock stamped onto sink events (stays 0: no simulated clock here).
    clock: u64,
}

/// Effects plus the acted operations (with their handoff targets)
/// produced while one shard's slot was being drained.
#[derive(Default)]
struct PumpOut {
    effects: Vec<SchemeEffect>,
    /// `(acted op, shards to hand it off to)`.
    handoffs: Vec<(QueueOp, Vec<usize>)>,
}

/// Routing facts a slot needs while holding its locks.
#[derive(Clone, Copy)]
struct SlotCtx {
    /// Index of the shard being pumped.
    shard: usize,
    /// Total shard count.
    nshards: usize,
    /// Whether ops are actually spread over shards (Schemes 0/1).
    partitioned: bool,
}

/// The GTM2 scheduler with QUEUE and WAIT partitioned by site.
///
/// Shared-reference methods ([`submit`](ShardedGtm2::submit) /
/// [`pump_shard`](ShardedGtm2::pump_shard)) are safe to call from many
/// threads; the `_mut` pair ([`enqueue_mut`](ShardedGtm2::enqueue_mut) /
/// [`pump_all`](ShardedGtm2::pump_all)) gives deterministic single-owner
/// replay with zero locking cost.
///
/// ```
/// use mdbs_core::sharded::ShardedGtm2;
/// use mdbs_core::scheme::{SchemeEffect, SchemeKind};
/// use mdbs_common::ids::{GlobalTxnId, SiteId};
/// use mdbs_common::ops::QueueOp;
///
/// let mut gtm2 = ShardedGtm2::new(SchemeKind::Scheme0, 2);
/// gtm2.enqueue_mut(QueueOp::Init { txn: GlobalTxnId(1), sites: vec![SiteId(0)] });
/// gtm2.enqueue_mut(QueueOp::Ser { txn: GlobalTxnId(1), site: SiteId(0) });
/// let effects = gtm2.pump_all();
/// assert_eq!(
///     effects,
///     vec![SchemeEffect::SubmitSer { txn: GlobalTxnId(1), site: SiteId(0) }],
/// );
/// ```
pub struct ShardedGtm2 {
    kind: SchemeKind,
    partitioned: bool,
    cells: Vec<ShardCell>,
    global: OrderedMutex<GlobalCore>,
    next_seq: AtomicU64,
}

impl ShardedGtm2 {
    /// Create an engine for `kind` with `nshards` pump shards (clamped to
    /// at least 1). As with [`Gtm2::new`](crate::gtm2::Gtm2::new), the
    /// `MDBS_TRACE` environment variable attaches a stderr trace sink.
    pub fn new(kind: SchemeKind, nshards: usize) -> Self {
        Self::new_with_kernel(kind, KernelKind::Dense, nshards)
    }

    /// Like [`new`](ShardedGtm2::new), but selecting the scheme kernel
    /// ([`KernelKind::BTree`] reference maps vs [`KernelKind::Dense`]
    /// slot/bitset) explicitly. Both kernels are step-for-step identical;
    /// only machine cost differs.
    pub fn new_with_kernel(kind: SchemeKind, kernel: KernelKind, nshards: usize) -> Self {
        let nshards = nshards.max(1);
        let sink: Option<Box<dyn TraceSink + Send>> = if std::env::var_os("MDBS_TRACE").is_some() {
            Some(Box::new(StderrSink))
        } else {
            None
        };
        // Only schemes whose cond/wake structure is per-site may spread
        // operations over shards; everything else runs in shard 0 and is
        // identical to the single engine by construction.
        let partitioned = match kind {
            SchemeKind::Scheme0 | SchemeKind::Scheme1 => nshards > 1,
            SchemeKind::Scheme2
            | SchemeKind::Scheme2Minimal
            | SchemeKind::SiteGraph
            | SchemeKind::Scheme3
            | SchemeKind::AbortingTo
            | SchemeKind::OptimisticTicket => false,
        };
        ShardedGtm2 {
            kind,
            partitioned,
            cells: (0..nshards)
                .map(|_| ShardCell::new(ShardCore::new()))
                .collect(),
            global: OrderedMutex::new(GlobalCore {
                scheme: kind.build_kernel(kernel),
                steps: StepCounter::new(),
                stats: Gtm2Stats::default(),
                ser_log: SerSLog::new(),
                inited: BTreeSet::new(),
                active: 0,
                wait_live: 0,
                validate: cfg!(debug_assertions),
                sink,
                clock: 0,
            }),
            next_seq: AtomicU64::new(0),
        }
    }

    /// Number of pump shards.
    pub fn shard_count(&self) -> usize {
        self.cells.len()
    }

    /// The shard that examines (and, if it waits, holds) `op`.
    fn route(&self, op: &QueueOp) -> usize {
        if !self.partitioned {
            return 0;
        }
        match op.site() {
            Some(site) => site.index() % self.cells.len(),
            None => 0,
        }
    }

    /// Enable/disable per-act scheme invariant validation.
    pub fn set_validate(&mut self, on: bool) {
        self.global.get_mut().validate = on;
    }

    /// Attach (or with `None`, detach) a structured event sink.
    pub fn set_sink(&mut self, sink: Option<Box<dyn TraceSink + Send>>) {
        self.global.get_mut().sink = sink;
    }

    /// The scheme's display name.
    pub fn scheme_name(&self) -> &'static str {
        self.kind.name()
    }

    // ------------------------------------------------------------------
    // Thread-shared API (site workers + coordinator).
    // ------------------------------------------------------------------

    /// Insert an operation into its shard's slice of QUEUE from a pump
    /// thread. Returns the shard index, to be passed to
    /// [`pump_shard`](ShardedGtm2::pump_shard).
    pub fn submit(&self, op: QueueOp) -> usize {
        let j = self.route(&op);
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        if let Some(cell) = self.cells.get(j) {
            let mut core = cell.shard.spin();
            let mut global = self.global.spin();
            enqueue_into(&mut core, &mut global, seq, op);
        }
        j
    }

    /// Insert an operation from the coordinating thread. Behaviorally
    /// identical to [`submit`](ShardedGtm2::submit); this entry point uses
    /// the ordered `lock` acquisitions, making it the canonical statement
    /// of the `shard → global` lock order in the mdbs-lint graph.
    pub fn enqueue(&self, op: QueueOp) -> usize {
        let j = self.route(&op);
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        if let Some(cell) = self.cells.get(j) {
            let mut core = cell.shard.lock();
            let mut global = self.global.lock();
            enqueue_into(&mut core, &mut global, seq, op);
        }
        j
    }

    /// Run the Basic_Scheme loop over shard `start`'s slice of QUEUE and
    /// any pending handoffs, following cross-shard handoffs to their
    /// target shards until no reachable work remains. Returns the effects
    /// produced, in order.
    pub fn pump_shard(&self, start: usize) -> Vec<SchemeEffect> {
        let mut effects = Vec::new();
        let mut worklist: VecDeque<usize> = VecDeque::new();
        worklist.push_back(start);
        while let Some(j) = worklist.pop_front() {
            let Some(cell) = self.cells.get(j) else {
                continue;
            };
            let mut out = PumpOut::default();
            {
                let mut core = cell.shard.spin();
                if core.handoff.is_empty() && core.inbox.is_empty() {
                    continue;
                }
                let mut global = self.global.spin();
                let ctx = SlotCtx {
                    shard: j,
                    nshards: self.cells.len(),
                    partitioned: self.partitioned,
                };
                drain_slot(ctx, &mut core, &mut global, &mut out);
                cell.publish_wake_scan(&core);
            }
            effects.append(&mut out.effects);
            for target in self.deliver(j, &out) {
                if !worklist.contains(&target) {
                    worklist.push_back(target);
                }
            }
        }
        effects
    }

    /// Pump only shard `start`, delivering any cross-shard handoffs it
    /// produces without following them into the target shards' locks.
    /// Returns the effects plus the shards that received a handoff —
    /// **waker hints** for a task runtime where every shard has an owning
    /// pump task: instead of this thread contending the target shard, the
    /// caller wakes the owner, which re-tests against current global
    /// state on its next poll (handoffs are idempotent re-test hints, so
    /// a hint raced by the owner's own pump is harmless).
    pub fn pump_shard_hinted(&self, start: usize) -> (Vec<SchemeEffect>, Vec<usize>) {
        let mut out = PumpOut::default();
        {
            let Some(cell) = self.cells.get(start) else {
                return (Vec::new(), Vec::new());
            };
            let mut core = cell.shard.spin();
            if core.handoff.is_empty() && core.inbox.is_empty() {
                return (Vec::new(), Vec::new());
            }
            let mut global = self.global.spin();
            let ctx = SlotCtx {
                shard: start,
                nshards: self.cells.len(),
                partitioned: self.partitioned,
            };
            drain_slot(ctx, &mut core, &mut global, &mut out);
            cell.publish_wake_scan(&core);
        }
        let hints = self.deliver(start, &out);
        (out.effects, hints)
    }

    /// Deliver `out`'s handoffs (source shard's guards must already be
    /// dropped — shard locks never nest). Returns the shards that received
    /// at least one message; deliveries to shards with no waiters are
    /// skipped and not counted.
    fn deliver(&self, source: usize, out: &PumpOut) -> Vec<usize> {
        let mut touched = Vec::new();
        for (op, targets) in &out.handoffs {
            for &t in targets {
                if t == source {
                    continue;
                }
                let Some(cell) = self.cells.get(t) else {
                    continue;
                };
                let mut core = cell.shard.spin();
                if !core.has_waiters() {
                    continue;
                }
                core.handoff.push_back(op.clone());
                core.handoffs_in += 1;
                if !touched.contains(&t) {
                    touched.push(t);
                }
            }
        }
        touched
    }

    // ------------------------------------------------------------------
    // Deterministic single-owner API (replay, tests).
    // ------------------------------------------------------------------

    /// Insert an operation at the end of its shard's QUEUE slice
    /// (lock-free: requires exclusive ownership).
    pub fn enqueue_mut(&mut self, op: QueueOp) {
        let j = self.route(&op);
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let ShardedGtm2 { cells, global, .. } = self;
        if let Some(cell) = cells.get_mut(j) {
            enqueue_into(cell.shard.get_mut(), global.get_mut(), seq, op);
        }
    }

    /// Deterministically run all shards dry: pending handoffs first, then
    /// always the globally oldest queued operation (which reproduces the
    /// single engine's FIFO examination order). Returns the effects in
    /// order.
    pub fn pump_all(&mut self) -> Vec<SchemeEffect> {
        let mut effects = Vec::new();
        loop {
            if self.drain_handoffs_mut(&mut effects) {
                continue;
            }
            let next = self
                .cells
                .iter_mut()
                .enumerate()
                .filter_map(|(j, cell)| {
                    let front = cell.shard.get_mut().inbox.front();
                    front.map(|&(seq, _)| (seq, j))
                })
                .min();
            let Some((_, j)) = next else {
                break;
            };
            let out = self.step_slot_mut(j, SlotStep::Inbox);
            effects.extend(out.effects.iter().copied());
            self.deliver_mut(j, &out);
        }
        effects
    }

    /// Process one unit of work in shard `j` without locking.
    fn step_slot_mut(&mut self, j: usize, what: SlotStep) -> PumpOut {
        let ctx = SlotCtx {
            shard: j,
            nshards: self.cells.len(),
            partitioned: self.partitioned,
        };
        let mut out = PumpOut::default();
        let ShardedGtm2 { cells, global, .. } = self;
        if let Some(cell) = cells.get_mut(j) {
            let core = cell.shard.get_mut();
            let global = global.get_mut();
            match what {
                SlotStep::Inbox => {
                    if let Some((seq, op)) = core.inbox.pop_front() {
                        process_op(ctx, seq, op, core, global, &mut out);
                    }
                }
                SlotStep::Handoff => {
                    if let Some(acted) = core.handoff.pop_front() {
                        process_handoff(ctx, acted, core, global, &mut out);
                    }
                }
            }
            cell.wake_scan_sum
                .store(core.wake_scan.sum(), Ordering::Release);
            cell.wake_scan_count
                .store(core.wake_scan.count(), Ordering::Release);
        }
        out
    }

    /// Lock-free twin of [`deliver`](ShardedGtm2::deliver).
    fn deliver_mut(&mut self, source: usize, out: &PumpOut) {
        for (op, targets) in &out.handoffs {
            for &t in targets {
                if t == source {
                    continue;
                }
                if let Some(cell) = self.cells.get_mut(t) {
                    let core = cell.shard.get_mut();
                    if !core.has_waiters() {
                        continue;
                    }
                    core.handoff.push_back(op.clone());
                    core.handoffs_in += 1;
                }
            }
        }
    }

    /// Process every pending handoff to a fixpoint. Returns whether any
    /// work was done.
    fn drain_handoffs_mut(&mut self, effects: &mut Vec<SchemeEffect>) -> bool {
        let mut any = false;
        loop {
            let mut progressed = false;
            for j in 0..self.cells.len() {
                loop {
                    let pending = match self.cells.get_mut(j) {
                        Some(cell) => !cell.shard.get_mut().handoff.is_empty(),
                        None => false,
                    };
                    if !pending {
                        break;
                    }
                    let out = self.step_slot_mut(j, SlotStep::Handoff);
                    effects.extend(out.effects.iter().copied());
                    self.deliver_mut(j, &out);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
            any = true;
        }
        any
    }

    // ------------------------------------------------------------------
    // Observers.
    // ------------------------------------------------------------------

    /// Accumulated abstract step counts.
    pub fn steps(&self) -> StepCounter {
        self.global.lock().steps
    }

    /// Engine counters.
    pub fn stats(&self) -> Gtm2Stats {
        self.global.lock().stats
    }

    /// Clone of the recorded `ser(S)` log.
    pub fn ser_log_snapshot(&self) -> SerSLog {
        self.global.lock().ser_log.clone()
    }

    /// Number of operations currently waiting, across all shards.
    pub fn wait_len(&self) -> usize {
        self.global.lock().wait_live as usize
    }

    /// Operations queued (inboxes + handoffs + pre-init parkings) but not
    /// yet examined, across all shards.
    pub fn queue_len(&self) -> usize {
        let mut total = 0;
        for cell in &self.cells {
            total += cell.shard.spin().backlog();
        }
        total
    }

    /// Total handoff messages delivered across shards so far.
    pub fn cross_shard_handoffs(&self) -> u64 {
        let mut total = 0;
        for cell in &self.cells {
            total += cell.shard.spin().handoffs_in;
        }
        total
    }

    /// Merged wake-scan histogram totals across shards: `(count, sum)`.
    /// Reads the per-shard atomic mirrors, so it is safe (and lock-free)
    /// to call while other threads pump shards — no sampled shard's
    /// totals can be lost or torn, each is a drain-boundary snapshot.
    pub fn wake_scan_totals(&self) -> (u64, u64) {
        let mut count = 0u64;
        let mut sum = 0u64;
        for cell in &self.cells {
            count += cell.wake_scan_count.load(Ordering::Acquire);
            sum += cell.wake_scan_sum.load(Ordering::Acquire);
        }
        (count, sum)
    }

    /// Shard-lock contention counters summed over every shard plus the
    /// global core: `(contended acquires, parks)`.
    pub fn lock_contention(&self) -> (u64, u64) {
        let (mut contended, mut parks) = self.global.contention();
        for cell in &self.cells {
            let (c, p) = cell.shard.contention();
            contended += c;
            parks += p;
        }
        (contended, parks)
    }

    /// Export counters, gauges and histograms into `registry` under the
    /// `gtm2.` prefix — the same names as
    /// [`Gtm2::export_metrics`](crate::gtm2::Gtm2::export_metrics), plus
    /// the per-shard series (`gtm2.shard<j>.wake_scan`,
    /// `gtm2.shard_wait_peak`) and `gtm2.cross_shard_handoff`.
    pub fn export_metrics(&self, registry: &mut Registry) {
        let mut merged = Histogram::new();
        let mut handoffs = 0u64;
        for (j, cell) in self.cells.iter().enumerate() {
            let core = cell.shard.spin();
            registry.merge_histogram(&format!("gtm2.shard{j}.wake_scan"), &core.wake_scan);
            registry.max_gauge("gtm2.shard_wait_peak", core.wait_peak as i64);
            merged.merge(&core.wake_scan);
            handoffs += core.handoffs_in;
        }
        let global = self.global.lock();
        let s = &global.stats;
        registry.inc("gtm2.enqueued", s.enqueued);
        registry.inc("gtm2.processed", s.processed);
        registry.inc("gtm2.waited", s.waited);
        registry.inc("gtm2.waited.init", s.waited_kind[0]);
        registry.inc("gtm2.waited.ser", s.waited_kind[1]);
        registry.inc("gtm2.waited.ack", s.waited_kind[2]);
        registry.inc("gtm2.waited.fin", s.waited_kind[3]);
        registry.inc("gtm2.scheme_aborts", s.scheme_aborts);
        registry.inc("gtm2.inits", s.inits);
        registry.inc("gtm2.fins", s.fins);
        registry.inc("gtm2.protocol_violations", s.protocol_violations);
        registry.inc("gtm2.steps.cond", global.steps.cond);
        registry.inc("gtm2.steps.act", global.steps.act);
        registry.inc("gtm2.steps.wait_scan", global.steps.wait_scan);
        registry.inc("gtm2.cross_shard_handoff", handoffs);
        let (lock_contended, lock_parks) = self.lock_contention();
        registry.inc("gtm2.shard_lock_contended", lock_contended);
        registry.inc("gtm2.shard_lock_parks", lock_parks);
        registry.max_gauge("gtm2.peak_wait", s.peak_wait as i64);
        registry.max_gauge("gtm2.peak_active", s.peak_active as i64);
        registry.merge_histogram("gtm2.wake_scan", &merged);
        global.scheme.export_metrics(registry);
    }
}

/// Which end of a shard's work to take in a deterministic step.
enum SlotStep {
    Inbox,
    Handoff,
}

impl std::fmt::Debug for ShardedGtm2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedGtm2")
            .field("scheme", &self.kind.name())
            .field("shards", &self.cells.len())
            .field("partitioned", &self.partitioned)
            .finish()
    }
}

// ----------------------------------------------------------------------
// The Basic_Scheme slot logic, shared by the locked and lock-free paths.
// The free functions operate on a shard core + the global core and mirror
// `Gtm2::pump`/`Gtm2::do_act` exactly (same stats, steps, sink events and
// effect bookkeeping; the WAIT re-test itself is the shared
// `gtm2::retest`), with one addition: acted operations also collect their
// cross-shard handoff targets.
// ----------------------------------------------------------------------

/// Record and count an arriving operation (`Gtm2::enqueue` equivalent).
fn enqueue_into(core: &mut ShardCore, global: &mut GlobalCore, seq: u64, op: QueueOp) {
    if let Some(sink) = &mut global.sink {
        sink.record(global.clock, SchedEvent::enqueue(&op));
    }
    global.stats.enqueued += 1;
    core.inbox.push_back((seq, op));
}

/// Drain everything currently actionable in one shard: handoffs first
/// (they re-test existing waiters), then the shard's inbox in FIFO order.
fn drain_slot(ctx: SlotCtx, core: &mut ShardCore, global: &mut GlobalCore, out: &mut PumpOut) {
    loop {
        if let Some(acted) = core.handoff.pop_front() {
            process_handoff(ctx, acted, core, global, out);
        } else if let Some((seq, op)) = core.inbox.pop_front() {
            process_op(ctx, seq, op, core, global, out);
        } else {
            break;
        }
    }
}

/// Examine one operation from the front of this shard's QUEUE slice
/// (the body of `Gtm2::pump`'s loop).
fn process_op(
    ctx: SlotCtx,
    seq: u64,
    op: QueueOp,
    core: &mut ShardCore,
    global: &mut GlobalCore,
    out: &mut PumpOut,
) {
    // Pre-init gate: under partitioned routing a `ser` can reach its site
    // shard before shard 0 has acted the `init`. Park it; the `init`'s
    // handoff releases it. (The single engine would instead flag a
    // genuinely init-less `ser` as SerWithoutInit; for well-formed input —
    // GTM1 always announces before serializing — the gate never observably
    // differs.)
    if ctx.partitioned && op.kind() == QueueOpKind::Ser && !global.inited.contains(&op.txn()) {
        core.pre_init.entry(op.txn()).or_default().push((seq, op));
        return;
    }
    let eligible = global.scheme.cond(&op, &mut global.steps);
    if let Some(sink) = &mut global.sink {
        sink.record(global.clock, SchedEvent::cond(&op, eligible));
    }
    if eligible {
        let mut candidates = std::mem::take(&mut core.wake_buf);
        candidates.clear();
        act_one(ctx, &op, false, core, global, out, &mut candidates);
        cascade(ctx, candidates, core, global, out);
    } else {
        if let Some(sink) = &mut global.sink {
            sink.record(global.clock, SchedEvent::wait(&op));
        }
        global.stats.waited += 1;
        bump_waited_kind(&mut global.stats, op.kind());
        global.scheme.on_wait(&op, true);
        core.wait.insert(op);
        global.wait_live += 1;
        global.stats.peak_wait = global.stats.peak_wait.max(global.wait_live);
        core.wait_peak = core.wait_peak.max(core.wait.len() as u64);
    }
}

/// Re-test this shard's waiters against an operation acted elsewhere.
fn process_handoff(
    ctx: SlotCtx,
    acted: QueueOp,
    core: &mut ShardCore,
    global: &mut GlobalCore,
    out: &mut PumpOut,
) {
    // An init acted at shard 0 releases any ser ops parked behind it here.
    if acted.kind() == QueueOpKind::Init {
        if let Some(mut parked) = core.pre_init.remove(&acted.txn()) {
            parked.sort_unstable_by_key(|&(seq, _)| seq);
            for (seq, op) in parked {
                process_op(ctx, seq, op, core, global, out);
            }
        }
    }
    let mut candidates = std::mem::take(&mut core.wake_buf);
    candidates.clear();
    local_candidates(&acted, core, global, &mut candidates);
    cascade(ctx, candidates, core, global, out);
}

/// `act(op)` (the `act_now` closure of `Gtm2::do_act`): bookkeeping,
/// scheme act, effect recording, handoff-target computation, and this
/// shard's wake candidates.
fn act_one(
    ctx: SlotCtx,
    acted: &QueueOp,
    woken: bool,
    core: &mut ShardCore,
    global: &mut GlobalCore,
    out: &mut PumpOut,
    candidates: &mut VecDeque<Candidate>,
) {
    if let Some(sink) = &mut global.sink {
        let ev = if woken {
            SchedEvent::wake(acted)
        } else {
            SchedEvent::act(acted)
        };
        sink.record(global.clock, ev);
    }
    note_processed(acted, global);
    let fx = global.scheme.act(acted, &mut global.steps);
    if global.validate {
        global.scheme.debug_validate();
    }
    for effect in &fx {
        match effect {
            SchemeEffect::SubmitSer { txn, site } => global.ser_log.record(*txn, *site),
            SchemeEffect::AbortGlobal { txn } => {
                global.stats.scheme_aborts += 1;
                if let Some(sink) = &mut global.sink {
                    sink.record(global.clock, SchedEvent::Abort { txn: *txn });
                }
            }
            SchemeEffect::ForwardAck { .. } => {}
            SchemeEffect::ProtocolViolation { .. } => {
                global.stats.protocol_violations += 1;
            }
        }
    }
    out.effects.extend(fx.iter().copied());
    if acted.kind() == QueueOpKind::Init {
        global.inited.insert(acted.txn());
    }
    let targets = handoff_targets(ctx, acted, global.scheme.as_ref());
    if !targets.is_empty() {
        out.handoffs.push((acted.clone(), targets));
    }
    local_candidates(acted, core, global, candidates);
}

/// This shard's wake candidates for an acted operation, appended to
/// `candidates` (resolved against this shard's WAIT partition without
/// allocating).
fn local_candidates(
    acted: &QueueOp,
    core: &mut ShardCore,
    global: &mut GlobalCore,
    candidates: &mut VecDeque<Candidate>,
) {
    let wake = global
        .scheme
        .wake_candidates(acted, &core.wait, &mut global.steps);
    let examined = core
        .wait
        .resolve_into(&wake, global.sink.is_some(), candidates);
    core.wake_scan.observe(examined as u64);
}

/// Figure 3's inner loop over this shard's WAIT partition: act each
/// eligible waiter immediately, feeding its own candidates back in. Takes
/// ownership of the seeded worklist (the shard's reusable buffer) and
/// parks it back on the core when drained.
fn cascade(
    ctx: SlotCtx,
    mut candidates: VecDeque<Candidate>,
    core: &mut ShardCore,
    global: &mut GlobalCore,
    out: &mut PumpOut,
) {
    while let Some(candidate) = candidates.pop_front() {
        // A key already woken (or a stale/duplicate handoff hint) finds
        // nothing to re-test — this is what makes handoffs harmless.
        let woken = retest(
            candidate,
            &mut core.wait,
            global.scheme.as_mut(),
            &mut global.steps,
            &mut global.sink,
            global.clock,
        );
        if let Some(woken) = woken {
            global.wait_live = global.wait_live.saturating_sub(1);
            act_one(ctx, &woken, true, core, global, out, &mut candidates);
        }
    }
    core.wake_buf = candidates;
}

/// Which shards (other than the acting one) must re-test their waiters
/// after `acted` was acted, per the scheme's `wake_scope` bound plus the
/// engine-level pre-init gate (an `init` must reach the shards of its
/// announced sites to release parked sers).
fn handoff_targets(ctx: SlotCtx, acted: &QueueOp, scheme: &dyn Gtm2Scheme) -> Vec<usize> {
    if ctx.nshards <= 1 {
        return Vec::new();
    }
    let mut targets = BTreeSet::new();
    let scope = scheme.wake_scope(acted.kind());
    if scope.elsewhere {
        for j in 0..ctx.nshards {
            targets.insert(j);
        }
    } else {
        if scope.acted_site {
            if let Some(site) = acted.site() {
                targets.insert(if ctx.partitioned {
                    site.index() % ctx.nshards
                } else {
                    0
                });
            }
        }
        if scope.siteless {
            // Siteless (init/fin) waiters always live in shard 0.
            targets.insert(0);
        }
    }
    if ctx.partitioned {
        if let QueueOp::Init { sites, .. } = acted {
            for site in sites {
                targets.insert(site.index() % ctx.nshards);
            }
        }
    }
    targets.remove(&ctx.shard);
    targets.into_iter().collect()
}

/// Stats bookkeeping for a processed operation (`Gtm2::note_processed`).
fn note_processed(op: &QueueOp, global: &mut GlobalCore) {
    global.stats.processed += 1;
    match op.kind() {
        QueueOpKind::Init => {
            global.stats.inits += 1;
            global.active += 1;
            global.stats.peak_active = global.stats.peak_active.max(global.active);
        }
        QueueOpKind::Fin => {
            global.stats.fins += 1;
            // An unmatched fin must not underflow the active count.
            match global.active.checked_sub(1) {
                Some(a) => global.active = a,
                None => global.stats.protocol_violations += 1,
            }
        }
        QueueOpKind::Ser | QueueOpKind::Ack => {}
    }
}

/// Count a newly waiting operation by kind, without indexing by a
/// computed value.
fn bump_waited_kind(stats: &mut Gtm2Stats, kind: QueueOpKind) {
    match kind {
        QueueOpKind::Init => stats.waited_kind[0] += 1,
        QueueOpKind::Ser => stats.waited_kind[1] += 1,
        QueueOpKind::Ack => stats.waited_kind[2] += 1,
        QueueOpKind::Fin => stats.waited_kind[3] += 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gtm2::Gtm2;
    use mdbs_common::ids::SiteId;

    fn g(i: u64) -> GlobalTxnId {
        GlobalTxnId(i)
    }
    fn s(i: u32) -> SiteId {
        SiteId(i)
    }
    fn init(txn: u64, sites: &[u32]) -> QueueOp {
        QueueOp::Init {
            txn: g(txn),
            sites: sites.iter().map(|&i| s(i)).collect(),
        }
    }
    fn ser(txn: u64, site: u32) -> QueueOp {
        QueueOp::Ser {
            txn: g(txn),
            site: s(site),
        }
    }
    fn ack(txn: u64, site: u32) -> QueueOp {
        QueueOp::Ack {
            txn: g(txn),
            site: s(site),
        }
    }
    fn fin(txn: u64) -> QueueOp {
        QueueOp::Fin { txn: g(txn) }
    }

    /// Full lifecycle of `txns` single-site transactions at `site`,
    /// submitted through the shared-reference API.
    fn run_site_lifecycles(engine: &ShardedGtm2, site: u32, txns: &[u64]) {
        for &t in txns {
            let j = engine.submit(init(t, &[site]));
            engine.pump_shard(j);
        }
        for &t in txns {
            let j = engine.submit(ser(t, site));
            engine.pump_shard(j);
        }
        for &t in txns {
            let j = engine.submit(ack(t, site));
            engine.pump_shard(j);
            let j = engine.submit(fin(t));
            engine.pump_shard(j);
        }
    }

    #[test]
    fn cross_shard_ack_wakes_fin_exactly_once() {
        // Scheme 1, 2 shards: site 1 lives in shard 1, fins in shard 0.
        // fin(2) waits in shard 0 until ack(2, 1) is acted in shard 1 —
        // the wake must cross shards, exactly once.
        let engine = ShardedGtm2::new(SchemeKind::Scheme1, 2);
        for op in [init(1, &[1]), init(2, &[1])] {
            let j = engine.submit(op);
            assert_eq!(j, 0, "inits route to shard 0");
            engine.pump_shard(j);
        }
        for op in [ser(1, 1), ack(1, 1)] {
            let j = engine.submit(op);
            assert_eq!(j, 1, "site-1 ops route to shard 1");
            engine.pump_shard(j);
        }
        let j = engine.submit(fin(1));
        engine.pump_shard(j);
        let j = engine.submit(ser(2, 1));
        engine.pump_shard(j);
        let j = engine.submit(fin(2));
        engine.pump_shard(j);
        assert_eq!(engine.wait_len(), 1, "fin(2) must wait for ack(2,1)");

        let j = engine.submit(ack(2, 1));
        let effects = engine.pump_shard(j);
        assert!(
            effects.contains(&SchemeEffect::ForwardAck {
                txn: g(2),
                site: s(1)
            }),
            "{effects:?}"
        );
        let stats = engine.stats();
        assert_eq!(stats.fins, 2, "each fin acted exactly once");
        assert_eq!(engine.wait_len(), 0);
        assert_eq!(engine.queue_len(), 0);
        assert!(
            engine.cross_shard_handoffs() >= 1,
            "the fin wakeup must travel via handoff"
        );
        assert_eq!(stats.protocol_violations, 0);
    }

    #[test]
    fn handoff_to_empty_shard_is_skipped() {
        // All traffic at site 0 (shard 0); shard 1 never has waiters, so
        // nothing may be delivered to it.
        let engine = ShardedGtm2::new(SchemeKind::Scheme1, 2);
        run_site_lifecycles(&engine, 0, &[1, 2]);
        assert_eq!(engine.stats().fins, 2);
        assert_eq!(engine.wait_len(), 0);
        assert_eq!(engine.queue_len(), 0);
        assert_eq!(
            engine.cross_shard_handoffs(),
            0,
            "deliveries to waiter-less shards must be skipped"
        );
    }

    #[test]
    fn self_handoff_stays_local() {
        // Scheme 0, 2 shards, contention at one site: the ack wakes the
        // waiting ser through the local cascade, not the handoff queue.
        let engine = ShardedGtm2::new(SchemeKind::Scheme0, 2);
        for op in [init(1, &[1]), init(2, &[1])] {
            let j = engine.submit(op);
            engine.pump_shard(j);
        }
        let j = engine.submit(ser(1, 1));
        engine.pump_shard(j);
        let j = engine.submit(ser(2, 1));
        engine.pump_shard(j);
        assert_eq!(engine.wait_len(), 1, "ser(2,1) waits behind ser(1,1)");
        let j = engine.submit(ack(1, 1));
        let effects = engine.pump_shard(j);
        let woken = effects
            .iter()
            .filter(|fx| {
                matches!(
                    fx,
                    SchemeEffect::SubmitSer { txn, site } if *txn == g(2) && *site == s(1)
                )
            })
            .count();
        assert_eq!(woken, 1, "ser(2,1) woken exactly once: {effects:?}");
        assert_eq!(
            engine.cross_shard_handoffs(),
            0,
            "a same-shard wake must not use the handoff queue"
        );
    }

    #[test]
    fn stale_handoff_after_waiter_left_is_harmless() {
        // Scheme 1, 2 shards: two acks are acted back-to-back in shard 1
        // before shard 0 runs. The first handoff wakes both waiting fins
        // (the second fin's cond is true once the first acts); the second
        // handoff then finds no candidates — it must do nothing, not
        // double-act a fin.
        let engine = ShardedGtm2::new(SchemeKind::Scheme1, 2);
        for op in [init(2, &[1]), init(3, &[1])] {
            let j = engine.submit(op);
            engine.pump_shard(j);
        }
        for op in [ser(2, 1), ack(2, 1), ser(3, 1), ack(3, 1)] {
            let j = engine.submit(op);
            engine.pump_shard(j);
        }
        // Delete queue at site 1 is now [G2, G3]; fins act immediately in
        // order. Re-run the shape with the fins *waiting* instead:
        let engine = ShardedGtm2::new(SchemeKind::Scheme1, 2);
        for op in [init(2, &[1]), init(3, &[1])] {
            engine.pump_shard(engine.submit(op));
        }
        for op in [ser(2, 1), ser(3, 1)] {
            engine.pump_shard(engine.submit(op));
        }
        // ser(3,1) waits behind ser(2,1)'s outstanding slot; fins wait too.
        for op in [fin(2), fin(3)] {
            engine.pump_shard(engine.submit(op));
        }
        assert!(engine.wait_len() >= 2);
        // Both acks into shard 1's inbox, then one pump: their two
        // handoffs land in shard 0 together.
        engine.submit(ack(2, 1));
        engine.submit(ack(3, 1));
        engine.pump_shard(1);
        let stats = engine.stats();
        assert_eq!(stats.fins, 2, "fins acted exactly once each");
        assert_eq!(stats.processed, 8, "2 init + 2 ser + 2 ack + 2 fin");
        assert_eq!(engine.wait_len(), 0);
        assert_eq!(engine.queue_len(), 0);
        assert_eq!(stats.protocol_violations, 0);
    }

    #[test]
    fn pre_init_gate_parks_and_releases() {
        // A ser that reaches its site shard before the init is parked,
        // then released exactly once by the init's handoff.
        let engine = ShardedGtm2::new(SchemeKind::Scheme0, 2);
        engine.submit(ser(1, 1)); // shard 1, but G1 not inited yet
        engine.pump_shard(1);
        assert_eq!(engine.queue_len(), 1, "ser parked behind missing init");
        assert_eq!(engine.stats().protocol_violations, 0);
        let j = engine.submit(init(1, &[1]));
        let effects = engine.pump_shard(j);
        assert_eq!(
            effects,
            vec![SchemeEffect::SubmitSer {
                txn: g(1),
                site: s(1)
            }]
        );
        assert_eq!(engine.queue_len(), 0);
        assert_eq!(engine.stats().processed, 2);
    }

    #[test]
    fn deterministic_pump_matches_single_engine() {
        // Identical op streams through Gtm2 and the sharded deterministic
        // pump must produce identical effects, stats and ser(S) for the
        // partitioned schemes.
        for kind in [SchemeKind::Scheme0, SchemeKind::Scheme1] {
            for shards in [1usize, 2, 3] {
                let ops = [
                    init(1, &[0, 1]),
                    init(2, &[1, 2]),
                    ser(1, 0),
                    ser(1, 1),
                    ser(2, 1),
                    ack(1, 0),
                    ack(1, 1),
                    ser(2, 2),
                    ack(2, 1),
                    fin(1),
                    ack(2, 2),
                    fin(2),
                ];
                let mut single = Gtm2::new(kind.build());
                let mut sharded = ShardedGtm2::new(kind, shards);
                let mut fx_single = Vec::new();
                let mut fx_sharded = Vec::new();
                for op in ops {
                    single.enqueue(op.clone());
                    fx_single.extend(single.pump());
                    sharded.enqueue_mut(op);
                    fx_sharded.extend(sharded.pump_all());
                }
                assert_eq!(fx_single, fx_sharded, "{kind:?} @ {shards} shards");
                assert_eq!(single.stats(), sharded.stats(), "{kind:?} @ {shards}");
                assert_eq!(
                    single.ser_log().events(),
                    sharded.ser_log_snapshot().events(),
                    "{kind:?} @ {shards}"
                );
                assert_eq!(sharded.wait_len(), 0);
                assert_eq!(sharded.queue_len(), 0);
            }
        }
    }

    #[test]
    fn unpartitioned_schemes_funnel_through_shard_zero() {
        let engine = ShardedGtm2::new(SchemeKind::Scheme3, 4);
        for op in [init(1, &[2]), ser(1, 2), ack(1, 2), fin(1)] {
            let j = engine.submit(op);
            assert_eq!(j, 0, "Scheme 3 must route everything to shard 0");
            engine.pump_shard(j);
        }
        assert_eq!(engine.stats().fins, 1);
        assert_eq!(engine.cross_shard_handoffs(), 0);
    }
}
