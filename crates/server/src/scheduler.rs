//! Session scheduler: multiplexes concurrent connections onto a sharded
//! pool of PRKB engines.
//!
//! The engine's refinement commits must be serialized *per attribute* — two
//! queries refining the same attribute's knowledge concurrently would race —
//! but the *expensive* part of a query is QPF evaluation, which the core
//! pipelines already split from commit (evaluate-then-commit, PR 2). The
//! scheduler exploits that split twice over:
//!
//! * **Sharding.** Attributes are hash-partitioned across `PRKB_SHARDS`
//!   shards ([`prkb_core::ShardMap`]), each with its own lock, busy set,
//!   and (in durable deployments) its own WAL-backed
//!   [`ShardCommitter`] — so unrelated queries never touch the same mutex
//!   and durable commits fsync in parallel.
//! * **Checkout/checkin.** Per shard, a query's attribute footprint is
//!   *detached* into a private sub-engine
//!   ([`prkb_core::PrkbEngine::detach_attrs`]) under the shard lock, the
//!   lock is dropped, and evaluation (all oracle traffic, all QPF spending)
//!   runs against the detached knowledge, concurrently with any query whose
//!   footprint is disjoint.
//!
//! Cross-shard footprints (conjunctions, MD ranges) use a **two-phase
//! checkout**: shards are reserved strictly in ascending shard-id order,
//! holding at most one shard mutex at a time, so lock-order cycles are
//! impossible by construction — the classic hierarchical resource-ordering
//! argument. Exclusive operations (insert, delete, inspection) reserve
//! every shard the same way via a per-shard `exclusive` flag.
//!
//! Waiting is **precise**: each busy attribute keeps its own condvar plus a
//! waiter count, and a checkin notifies only the condvars of the attributes
//! it actually freed (plus the shard's quiescence condvar when the busy set
//! empties) — a checkin of attribute `a` never wakes a session parked on
//! attribute `b`.
//!
//! The wire-visible **commit sequence number** is drawn from one global
//! atomic while holding the *first* (lowest-id) shard lock of the
//! footprint, before any of the footprint's attributes are freed. Two
//! operations that share an attribute therefore draw in their serialization
//! order, which gives the scheduler its observable contract: the concurrent
//! execution is indistinguishable from replaying the operations
//! sequentially in commit-sequence order — same results, same per-query QPF
//! spend (the loopback and proptest suites assert exactly this). Internally
//! a durable shard's commits are positioned by `(shard_epoch, shard_seq)`
//! ([`prkb_core::GroupCommitTicket::position`]); the global number exists
//! only for the wire.
//!
//! Because per-query cost accounting in the core pipelines is delta-based
//! over [`SelectionOracle::qpf_uses`], a *shared* oracle counter would bleed
//! concurrent queries' costs into each other's stats. [`SessionOracle`]
//! wraps the shared oracle with a per-query counter so stats stay exact
//! under concurrency.

use prkb_core::durability::{encode_txn, GroupCommitTicket, TxnEntry};
use prkb_core::metrics::{self, HistogramId};
use prkb_core::snapshot::WireCodec;
use prkb_core::{
    DurableError, EngineConfig, InsertOutcome, PrkbEngine, QueryError, Selection, ShardCommitter,
    ShardMap, ShardedDurablePool, SpPredicate,
};
use prkb_edbms::trapdoor::PredicateKind;
use prkb_edbms::{AttrId, DurabilityError, OracleError, SelectionOracle, TupleId};
use rand::Rng;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// Failures a scheduled request can produce.
#[derive(Debug)]
pub enum ServeError {
    /// The query failed in the engine (oracle fault, unknown attribute).
    Query(QueryError),
    /// The durable backing store failed; nothing was committed.
    Durable(DurableError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Query(e) => write!(f, "{e}"),
            ServeError::Durable(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<QueryError> for ServeError {
    fn from(e: QueryError) -> Self {
        ServeError::Query(e)
    }
}

impl From<DurableError> for ServeError {
    fn from(e: DurableError) -> Self {
        ServeError::Durable(e)
    }
}

impl ServeError {
    /// Maps this failure onto its stable `prkb-wire/v2` error code.
    pub fn wire_code(&self) -> u16 {
        use crate::proto::code;
        match self {
            ServeError::Query(QueryError::AttrNotInitialized(_))
            | ServeError::Durable(DurableError::Query(QueryError::AttrNotInitialized(_))) => {
                code::ATTR_NOT_INITIALIZED
            }
            // The deadline budget is a wire-level concern, not an oracle
            // fault class: it gets its own top-level code.
            ServeError::Query(QueryError::Oracle(OracleError::DeadlineExceeded))
            | ServeError::Durable(DurableError::Query(QueryError::Oracle(
                OracleError::DeadlineExceeded,
            ))) => code::DEADLINE,
            ServeError::Query(QueryError::Oracle(e))
            | ServeError::Durable(DurableError::Query(QueryError::Oracle(e))) => {
                oracle_wire_code(e)
            }
            // fsyncgate class: the disk lied about a durability barrier.
            // Distinguished on the wire so clients know the shard is down
            // until reopen (vs. a one-off durability error).
            ServeError::Durable(DurableError::Storage(DurabilityError::SyncFailed(_))) => {
                code::SYNC_FAILED
            }
            ServeError::Durable(_) => code::DURABILITY,
        }
    }
}

/// The canonical "budget expired" failure, raised at scheduler checkout and
/// by [`DeadlineOracle`] between evaluation batches.
fn deadline_error() -> ServeError {
    ServeError::Query(QueryError::Oracle(OracleError::DeadlineExceeded))
}

fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

fn oracle_wire_code(e: &OracleError) -> u16 {
    crate::proto::code::ORACLE_BASE + e.wire_code()
}

/// Per-session QPF counting wrapper over a shared oracle.
///
/// Delegates every evaluation to the inner oracle but answers
/// [`SelectionOracle::qpf_uses`] from its own counter, so the delta-based
/// per-query stats in the core pipelines are exact even while other
/// sessions spend QPF uses on the same shared oracle. Counting follows the
/// batch contract: one use per tuple, whether batched or not.
#[derive(Debug)]
pub struct SessionOracle<'a, O> {
    inner: &'a O,
    uses: AtomicU64,
}

impl<'a, O> SessionOracle<'a, O> {
    /// Wraps `inner` with a fresh zero counter.
    pub fn new(inner: &'a O) -> Self {
        SessionOracle {
            inner,
            uses: AtomicU64::new(0),
        }
    }
}

impl<O: SelectionOracle> SelectionOracle for SessionOracle<'_, O> {
    type Pred = O::Pred;

    fn try_eval(&self, pred: &Self::Pred, t: TupleId) -> Result<bool, OracleError> {
        self.uses.fetch_add(1, Ordering::Relaxed);
        self.inner.try_eval(pred, t)
    }

    fn try_eval_batch(
        &self,
        pred: &Self::Pred,
        tuples: &[TupleId],
        out: &mut Vec<bool>,
    ) -> Result<(), OracleError> {
        self.uses.fetch_add(tuples.len() as u64, Ordering::Relaxed);
        self.inner.try_eval_batch(pred, tuples, out)
    }

    fn kind_of(&self, pred: &Self::Pred) -> PredicateKind {
        self.inner.kind_of(pred)
    }

    fn n_slots(&self) -> usize {
        self.inner.n_slots()
    }

    fn is_live(&self, t: TupleId) -> bool {
        self.inner.is_live(t)
    }

    fn qpf_uses(&self) -> u64 {
        self.uses.load(Ordering::Relaxed)
    }
}

/// Enforces a per-request deadline budget at every oracle call site.
///
/// Wraps an oracle (typically a [`SessionOracle`]) and checks the budget on
/// entry to `try_eval`/`try_eval_batch`, returning
/// [`OracleError::DeadlineExceeded`] once the deadline passes. Because the
/// core pipelines evaluate in batches and every abort path unwinds through
/// the evaluate-then-commit split, an expired query surfaces `DEADLINE`
/// between batches, frees its attribute footprint, and leaves the KB
/// byte-identical — no partial refinement is ever committed.
///
/// `deadline = None` means no budget: every check is a cheap branch.
#[derive(Debug)]
pub struct DeadlineOracle<'a, O> {
    inner: &'a O,
    deadline: Option<Instant>,
}

impl<'a, O> DeadlineOracle<'a, O> {
    /// Wraps `inner` with an absolute deadline (`None` = unbounded).
    pub fn new(inner: &'a O, deadline: Option<Instant>) -> Self {
        DeadlineOracle { inner, deadline }
    }

    fn check(&self) -> Result<(), OracleError> {
        if expired(self.deadline) {
            Err(OracleError::DeadlineExceeded)
        } else {
            Ok(())
        }
    }
}

impl<O: SelectionOracle> SelectionOracle for DeadlineOracle<'_, O> {
    type Pred = O::Pred;

    fn try_eval(&self, pred: &Self::Pred, t: TupleId) -> Result<bool, OracleError> {
        self.check()?;
        self.inner.try_eval(pred, t)
    }

    fn try_eval_batch(
        &self,
        pred: &Self::Pred,
        tuples: &[TupleId],
        out: &mut Vec<bool>,
    ) -> Result<(), OracleError> {
        self.check()?;
        self.inner.try_eval_batch(pred, tuples, out)
    }

    fn kind_of(&self, pred: &Self::Pred) -> PredicateKind {
        self.inner.kind_of(pred)
    }

    fn n_slots(&self) -> usize {
        self.inner.n_slots()
    }

    fn is_live(&self, t: TupleId) -> bool {
        self.inner.is_live(t)
    }

    fn qpf_uses(&self) -> u64 {
        self.inner.qpf_uses()
    }
}

/// A parked-session registration for one busy attribute: its condvar plus
/// how many sessions currently wait on it. The entry is removed when the
/// count drops to zero, so `waiters` only ever holds contended attributes.
struct WaitCell {
    cv: Arc<Condvar>,
    count: usize,
}

struct ShardState<P: SpPredicate> {
    /// The shard's engine; `None` while an exclusive operation has it out.
    engine: Option<PrkbEngine<P>>,
    /// Attributes currently checked out by in-flight queries.
    busy: HashSet<AttrId>,
    /// Per-attribute waiter registrations (precise wakeups).
    waiters: HashMap<AttrId, WaitCell>,
    /// Set while an exclusive operation owns the shard.
    exclusive: bool,
}

struct Shard<P: SpPredicate> {
    state: Mutex<ShardState<P>>,
    /// Signals "the shard may be quiescent": busy set emptied, exclusive
    /// flag cleared, or engine reinstalled.
    quiescent: Condvar,
    /// Durable deployments: the shard's group-commit pipeline.
    committer: Option<ShardCommitter<P>>,
}

impl<P: SpPredicate> Shard<P> {
    fn lock(&self) -> MutexGuard<'_, ShardState<P>> {
        // A worker that panicked mid-commit cannot be reasoned about; treat
        // the lock as still usable (knowledge moves are two-phase and the
        // engine is abort-safe) rather than cascading the panic.
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn wait_quiescent<'g>(
        &self,
        guard: MutexGuard<'g, ShardState<P>>,
    ) -> MutexGuard<'g, ShardState<P>> {
        match self.quiescent.wait(guard) {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Parks the caller on `attr`'s condvar until a checkin frees it.
    fn wait_attr<'g>(
        &self,
        mut guard: MutexGuard<'g, ShardState<P>>,
        attr: AttrId,
    ) -> MutexGuard<'g, ShardState<P>> {
        let cv = {
            let cell = guard.waiters.entry(attr).or_insert_with(|| WaitCell {
                cv: Arc::new(Condvar::new()),
                count: 0,
            });
            cell.count += 1;
            Arc::clone(&cell.cv)
        };
        guard = match cv.wait(guard) {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let cell = guard
            .waiters
            .get_mut(&attr)
            .expect("registered waiter entry survives until count hits zero");
        cell.count -= 1;
        if cell.count == 0 {
            guard.waiters.remove(&attr);
        }
        guard
    }
}

/// Checkout/checkin scheduler over a shard-per-attribute engine pool.
pub struct SessionScheduler<P: SpPredicate> {
    shards: Vec<Shard<P>>,
    map: ShardMap,
    /// Global wire-visible commit sequence (drawn under the first shard
    /// lock of a committing footprint).
    seq: AtomicU64,
    config: EngineConfig,
}

impl<P: SpPredicate + WireCodec> SessionScheduler<P> {
    /// Wraps `engine` for concurrent use, partitioned per `PRKB_SHARDS`
    /// (default `min(16, cores)`).
    pub fn new(engine: PrkbEngine<P>) -> Self {
        Self::with_shards(engine, ShardMap::from_env())
    }

    /// Wraps `engine` with an explicit shard map (tests and benches pin
    /// their shard count regardless of the environment).
    pub fn with_shards(mut engine: PrkbEngine<P>, map: ShardMap) -> Self {
        let config = engine.config;
        let attrs: Vec<AttrId> = engine.attrs().collect();
        let mut shards = Vec::with_capacity(map.shards());
        for sid in 0..map.shards() {
            let own: Vec<AttrId> = attrs
                .iter()
                .copied()
                .filter(|&a| map.shard_of(a) == sid)
                .collect();
            let sub = engine
                .detach_attrs(&own)
                .expect("attrs enumerated from the engine");
            shards.push(Shard {
                state: Mutex::new(ShardState {
                    engine: Some(sub),
                    busy: HashSet::new(),
                    waiters: HashMap::new(),
                    exclusive: false,
                }),
                quiescent: Condvar::new(),
                committer: None,
            });
        }
        metrics::global().set_shards(map.shards() as u64);
        SessionScheduler {
            shards,
            map,
            seq: AtomicU64::new(0),
            config,
        }
    }

    /// Wraps a recovered [`ShardedDurablePool`]: every shard keeps its own
    /// WAL-backed [`ShardCommitter`], and each committed operation is acked
    /// only after its records are group-commit durable on every shard it
    /// touched.
    pub fn durable(pool: ShardedDurablePool<P>) -> Self {
        let (map, parts) = pool.into_parts();
        let config = parts
            .first()
            .map(|(engine, _)| engine.config)
            .unwrap_or_default();
        let shards = parts
            .into_iter()
            .map(|(engine, committer)| Shard {
                state: Mutex::new(ShardState {
                    engine: Some(engine),
                    busy: HashSet::new(),
                    waiters: HashMap::new(),
                    exclusive: false,
                }),
                quiescent: Condvar::new(),
                committer: Some(committer),
            })
            .collect();
        metrics::global().set_shards(map.shards() as u64);
        SessionScheduler {
            shards,
            map,
            seq: AtomicU64::new(0),
            config,
        }
    }

    /// Number of shards in the pool.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Whether this pool persists commits through shard committers.
    pub fn is_durable(&self) -> bool {
        self.shards.iter().any(|s| s.committer.is_some())
    }

    /// Refuse new work on a footprint that includes a poisoned shard:
    /// its memory may be ahead of disk, and only a reopen recovers that.
    fn check_shard_poison(&self, sids: impl Iterator<Item = usize>) -> Result<(), ServeError> {
        for sid in sids {
            if let Some(committer) = &self.shards[sid].committer {
                if let Some(e) = committer.poison_error() {
                    return Err(ServeError::Durable(e));
                }
            }
        }
        Ok(())
    }

    /// Runs `f` against the detached knowledge of `attrs`, holding each
    /// shard's lock only for checkout and checkin (two-phase, ascending
    /// shard-id order). Returns `f`'s result and the commit sequence number
    /// assigned at checkin. In durable pools the refinements are
    /// group-commit durable on every touched shard before this returns.
    ///
    /// # Errors
    /// [`QueryError::AttrNotInitialized`] if any attribute is unknown (all
    /// knowledge is reattached), whatever `f` reports (the knowledge is
    /// still reattached — the core pipelines leave it untouched on abort),
    /// or [`ServeError::Durable`] when a durable shard fails.
    pub fn with_detached<T>(
        &self,
        attrs: &[AttrId],
        f: impl FnOnce(&mut PrkbEngine<P>) -> Result<T, QueryError>,
    ) -> Result<(T, u64), ServeError> {
        self.with_detached_deadline(attrs, None, f)
    }

    /// [`with_detached`](Self::with_detached) with a deadline budget: if
    /// the budget expires while the session was parked waiting for its
    /// attribute footprint, the checkout is rolled back immediately —
    /// every reserved attribute is freed, waiters are woken — and the call
    /// fails with [`OracleError::DeadlineExceeded`] without running `f`.
    /// A doomed query therefore never pins contended attributes.
    ///
    /// Expiry *during* `f` is the oracle layer's job: wrap the session's
    /// oracle in a [`DeadlineOracle`] with the same instant.
    pub fn with_detached_deadline<T>(
        &self,
        attrs: &[AttrId],
        deadline: Option<Instant>,
        f: impl FnOnce(&mut PrkbEngine<P>) -> Result<T, QueryError>,
    ) -> Result<(T, u64), ServeError> {
        let groups = self.map.group_sorted(attrs);
        self.check_shard_poison(groups.iter().map(|(sid, _)| *sid))?;

        // Phase 1: reserve and detach, shards strictly ascending, at most
        // one shard mutex held at a time — deadlock-free by lock ordering.
        let mut wait_us = 0u64;
        let mut parts: Vec<(usize, Vec<AttrId>)> = Vec::with_capacity(groups.len());
        let mut merged: Option<PrkbEngine<P>> = None;
        for (sid, shard_attrs) in &groups {
            let shard = &self.shards[*sid];
            let reserve_start = Instant::now();
            let mut st = shard.lock();
            loop {
                if st.exclusive || st.engine.is_none() {
                    st = shard.wait_quiescent(st);
                } else if let Some(&blocking) = shard_attrs.iter().find(|a| st.busy.contains(a)) {
                    st = shard.wait_attr(st, blocking);
                } else {
                    break;
                }
            }
            wait_us += reserve_start.elapsed().as_micros() as u64;
            let sub = match st
                .engine
                .as_mut()
                .expect("reservation loop ensured engine present")
                .detach_attrs(shard_attrs)
            {
                Ok(sub) => sub,
                Err(e) => {
                    drop(st);
                    // Roll the earlier reservations back before failing.
                    self.release_parts(&parts, merged.take(), false);
                    metrics::global().observe(HistogramId::ShardLockWaitUs, wait_us);
                    return Err(e.into());
                }
            };
            st.busy.extend(shard_attrs.iter().copied());
            drop(st);
            match &mut merged {
                None => merged = Some(sub),
                Some(m) => m.attach(sub),
            }
            parts.push((*sid, shard_attrs.clone()));
        }
        metrics::global().observe(HistogramId::ShardLockWaitUs, wait_us);
        let sub = merged.unwrap_or_else(|| PrkbEngine::new(self.config));

        // The budget may have burned down entirely while we were parked on
        // busy attributes. Abort before evaluation: check the footprint
        // straight back in (uncommitted — the KB is untouched) so the
        // doomed query frees its attributes for live ones.
        if expired(deadline) {
            self.release_parts(&parts, Some(sub), false);
            return Err(deadline_error());
        }
        let mut sub = sub;

        // Evaluation happens here, outside every lock. A panic guard checks
        // the knowledge back in even if `f` unwinds, so one poisoned query
        // cannot strand an attribute's index.
        let mut guard = Checkin {
            sched: self,
            parts: &parts,
            merged: None,
        };
        let result = f(&mut sub);
        guard.merged = Some(sub);

        match result {
            Ok(value) => {
                let (seq, tickets) = guard.checkin(true);
                self.settle_commit(tickets, parts.iter().map(|(sid, _)| *sid))?;
                Ok((value, seq))
            }
            Err(e) => {
                guard.checkin(false);
                Err(e.into())
            }
        }
    }

    /// Splits `merged` back into its per-shard parts and checks each in,
    /// ascending. On a committed checkin this draws the global sequence
    /// number under the first shard's lock and enqueues one WAL record per
    /// touched durable shard (atomically with the reattach, so each shard's
    /// WAL order matches its commit order). Returns the sequence number and
    /// the group-commit tickets still to be awaited.
    fn release_parts(
        &self,
        parts: &[(usize, Vec<AttrId>)],
        merged: Option<PrkbEngine<P>>,
        committed: bool,
    ) -> (u64, Vec<(usize, GroupCommitTicket)>) {
        let mut tickets = Vec::new();
        let mut seq = 0u64;
        let Some(mut merged) = merged else {
            if committed {
                seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
            }
            return (seq, tickets);
        };
        let last = parts.len().saturating_sub(1);
        for (i, (sid, shard_attrs)) in parts.iter().enumerate() {
            let mut sub = if i == last {
                std::mem::replace(&mut merged, PrkbEngine::new(self.config))
            } else {
                merged
                    .detach_attrs(shard_attrs)
                    .expect("footprint attrs present in merged sub-engine")
            };
            // Journaled ops travel with the knowledge; drain them after the
            // split so each batch is exactly this shard's ops. Aborted
            // operations left no ops (abort-safe pipelines).
            let ops = sub.take_ops();
            let shard = &self.shards[*sid];
            let mut st = shard.lock();
            if committed && i == 0 {
                seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
            }
            st.engine
                .as_mut()
                .expect("busy attrs pin the engine in place")
                .attach(sub);
            for a in shard_attrs {
                st.busy.remove(a);
            }
            if committed {
                if let Some(committer) = &shard.committer {
                    let entries: Vec<TxnEntry<P>> = ops
                        .into_iter()
                        .map(|(attr, op)| TxnEntry::Op { attr, op })
                        .collect();
                    tickets.push((*sid, committer.enqueue(encode_txn(&entries))));
                }
            }
            // Precise wakeups: only sessions parked on an attribute this
            // checkin actually freed.
            for a in shard_attrs {
                if let Some(cell) = st.waiters.get(a) {
                    cell.cv.notify_all();
                }
            }
            let now_quiescent = st.busy.is_empty();
            drop(st);
            if now_quiescent {
                shard.quiescent.notify_all();
            }
        }
        if committed && parts.is_empty() {
            seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        }
        (seq, tickets)
    }

    /// Awaits group-commit durability for every ticket, then lets any
    /// touched shard that crossed its checkpoint threshold rotate.
    fn settle_commit(
        &self,
        tickets: Vec<(usize, GroupCommitTicket)>,
        touched: impl Iterator<Item = usize>,
    ) -> Result<(), ServeError> {
        for (sid, ticket) in tickets {
            self.shards[sid]
                .committer
                .as_ref()
                .expect("ticket issued by this shard's committer")
                .wait_durable(ticket)
                .map_err(ServeError::Durable)?;
        }
        for sid in touched {
            self.maybe_checkpoint_shard(sid)?;
        }
        Ok(())
    }

    /// Rotates one shard's checkpoint if its policy asks for it and the
    /// shard is momentarily quiescent (otherwise a later commit retries —
    /// the threshold check is cheap).
    fn maybe_checkpoint_shard(&self, sid: usize) -> Result<(), ServeError> {
        let shard = &self.shards[sid];
        let Some(committer) = &shard.committer else {
            return Ok(());
        };
        if !committer.wants_checkpoint(&self.config) {
            return Ok(());
        }
        let mut st = shard.lock();
        if st.exclusive || !st.busy.is_empty() {
            return Ok(());
        }
        let Some(engine) = st.engine.as_mut() else {
            return Ok(());
        };
        // The shard lock is held across the rotation: no checkout can
        // mutate or enqueue while the snapshot is serialized, so the
        // checkpoint is exactly the state the flushed WAL produced.
        committer.checkpoint(engine).map_err(ServeError::Durable)
    }

    /// Reserves every shard exclusively (ascending id order) and merges the
    /// pool into one engine for a whole-table operation.
    fn reserve_all(&self) -> PrkbEngine<P> {
        let reserve_start = Instant::now();
        let mut merged = PrkbEngine::new(self.config);
        for shard in &self.shards {
            let mut st = shard.lock();
            while st.exclusive || st.engine.is_none() || !st.busy.is_empty() {
                st = shard.wait_quiescent(st);
            }
            st.exclusive = true;
            let engine = st.engine.take().expect("loop ensured engine present");
            drop(st);
            merged.attach(engine);
        }
        metrics::global().observe(
            HistogramId::ShardLockWaitUs,
            reserve_start.elapsed().as_micros() as u64,
        );
        merged
    }

    /// Splits a merged whole-pool engine back into its shards, clearing the
    /// exclusive flags (ascending order; the sequence number, if any, is
    /// drawn under shard 0's lock).
    fn reinstall_all(
        &self,
        mut merged: PrkbEngine<P>,
        committed: bool,
    ) -> (u64, Vec<(usize, GroupCommitTicket)>) {
        let mut tickets = Vec::new();
        let mut seq = 0u64;
        let last = self.shards.len() - 1;
        for (sid, shard) in self.shards.iter().enumerate() {
            let mut sub = if sid == last {
                std::mem::replace(&mut merged, PrkbEngine::new(self.config))
            } else {
                let own: Vec<AttrId> = merged
                    .attrs()
                    .filter(|&a| self.map.shard_of(a) == sid)
                    .collect();
                merged
                    .detach_attrs(&own)
                    .expect("attrs enumerated from merged engine")
            };
            let ops = sub.take_ops();
            let mut st = shard.lock();
            if committed && sid == 0 {
                seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
            }
            st.engine = Some(sub);
            st.exclusive = false;
            if committed {
                if let Some(committer) = &shard.committer {
                    let entries: Vec<TxnEntry<P>> = ops
                        .into_iter()
                        .map(|(attr, op)| TxnEntry::Op { attr, op })
                        .collect();
                    tickets.push((sid, committer.enqueue(encode_txn(&entries))));
                }
            }
            drop(st);
            shard.quiescent.notify_all();
        }
        (seq, tickets)
    }

    /// Runs `f` with exclusive access to the whole pool (waits for every
    /// in-flight checkout on every shard first) and assigns a commit
    /// sequence number. For operations whose footprint is every attribute:
    /// inserts, deletes. In durable pools the journaled ops are
    /// group-commit durable on every shard before this returns.
    ///
    /// # Errors
    /// [`ServeError::Durable`] when a durable shard fails; infallible on
    /// in-memory pools.
    pub fn with_exclusive<T>(
        &self,
        f: impl FnOnce(&mut PrkbEngine<P>) -> T,
    ) -> Result<(T, u64), ServeError> {
        self.with_exclusive_deadline(None, f)
    }

    /// [`with_exclusive`](Self::with_exclusive) with a deadline budget:
    /// if the budget expired by the time the pool quiesces, the
    /// reservation is released uncommitted and the call fails with
    /// [`OracleError::DeadlineExceeded`] without running `f`. Exclusive
    /// operations are not interrupted mid-`f` — once evaluation starts the
    /// commit is all-or-nothing, so the only deadline point is checkout.
    pub fn with_exclusive_deadline<T>(
        &self,
        deadline: Option<Instant>,
        f: impl FnOnce(&mut PrkbEngine<P>) -> T,
    ) -> Result<(T, u64), ServeError> {
        self.check_shard_poison(0..self.shards.len())?;
        let merged = self.reserve_all();
        if expired(deadline) {
            let mut guard = ExclusiveCheckin {
                sched: self,
                merged: Some(merged),
            };
            guard.checkin(false);
            return Err(deadline_error());
        }
        let mut merged = merged;
        let mut guard = ExclusiveCheckin {
            sched: self,
            merged: None,
        };
        let value = f(&mut merged);
        guard.merged = Some(merged);
        let (seq, tickets) = guard.checkin(true);
        self.settle_commit(tickets, 0..self.shards.len())?;
        Ok((value, seq))
    }

    /// Single-predicate selection (comparison or BETWEEN trapdoor) against
    /// a per-request [`SessionOracle`]. `deadline` bounds the whole
    /// operation: checkout waits and every oracle batch check it, and
    /// expiry aborts with [`OracleError::DeadlineExceeded`] leaving the KB
    /// untouched.
    ///
    /// # Errors
    /// [`ServeError`] on engine or durability failure.
    pub fn select<O, R>(
        &self,
        oracle: &O,
        pred: &P,
        deadline: Option<Instant>,
        rng: &mut R,
    ) -> Result<(Selection, u64), ServeError>
    where
        O: SelectionOracle<Pred = P>,
        R: Rng,
    {
        let session = SessionOracle::new(oracle);
        let bounded = DeadlineOracle::new(&session, deadline);
        self.with_detached_deadline(&[pred.attr()], deadline, |sub| {
            sub.try_select(&bounded, pred, rng)
        })
    }

    /// Multi-dimensional range selection (PRKB(MD)). Callers must have
    /// rejected duplicate-attribute dimensions already (the engine treats
    /// them as a programmer error).
    ///
    /// # Errors
    /// [`ServeError`] on engine or durability failure.
    pub fn select_range_md<O, R>(
        &self,
        oracle: &O,
        dims: &[[P; 2]],
        deadline: Option<Instant>,
        rng: &mut R,
    ) -> Result<(Selection, u64), ServeError>
    where
        O: SelectionOracle<Pred = P>,
        R: Rng,
    {
        let attrs: Vec<AttrId> = dims.iter().map(|d| d[0].attr()).collect();
        let session = SessionOracle::new(oracle);
        let bounded = DeadlineOracle::new(&session, deadline);
        self.with_detached_deadline(&attrs, deadline, |sub| {
            sub.try_select_range_md(&bounded, dims, rng)
        })
    }

    /// Insert routing across every indexed attribute (whole-pool
    /// footprint, hence exclusive).
    ///
    /// # Errors
    /// [`ServeError`] on engine or durability failure.
    pub fn insert<O>(
        &self,
        oracle: &O,
        t: TupleId,
        deadline: Option<Instant>,
    ) -> Result<(Vec<(AttrId, InsertOutcome)>, u64), ServeError>
    where
        O: SelectionOracle<Pred = P>,
    {
        let (result, seq) =
            self.with_exclusive_deadline(deadline, |engine| engine.try_insert(oracle, t))?;
        Ok((result?, seq))
    }

    /// Delete across every indexed attribute.
    ///
    /// # Errors
    /// [`ServeError::Durable`] when a durable shard fails; infallible on
    /// in-memory pools.
    pub fn delete(&self, t: TupleId, deadline: Option<Instant>) -> Result<u64, ServeError> {
        let ((), seq) = self.with_exclusive_deadline(deadline, |engine| engine.delete(t))?;
        Ok(seq)
    }

    /// Runs `f` with read access to the quiescent pool, without assigning a
    /// sequence number. For validation and inspection.
    pub fn inspect<T>(&self, f: impl FnOnce(&PrkbEngine<P>) -> T) -> T {
        let merged = self.reserve_all();
        let mut guard = ExclusiveCheckin {
            sched: self,
            merged: Some(merged),
        };
        let value = f(guard.merged.as_ref().expect("set above"));
        guard.checkin(false);
        value
    }

    /// Flushes and fsyncs every shard's pending group-commit batch — the
    /// graceful-drain barrier. Acked commits already waited for
    /// durability, so this is a safety net that guarantees the invariant
    /// at shutdown regardless of timing.
    ///
    /// # Errors
    /// [`ServeError::Durable`] when a shard's flush fails.
    pub fn flush_durable(&self) -> Result<(), ServeError> {
        for shard in &self.shards {
            if let Some(committer) = &shard.committer {
                committer.flush().map_err(ServeError::Durable)?;
            }
        }
        Ok(())
    }

    /// Waits for all checkouts to return, then hands the merged engine back
    /// for single-threaded use (server shutdown). Durable pools flush
    /// their pending batches first.
    pub fn into_engine(self) -> PrkbEngine<P> {
        // The signature can't carry the flush error (shutdown proceeds
        // regardless — the WAL keeps whatever prefix made it to disk), but
        // it must not vanish silently: a failed final flush means the last
        // unacknowledged batch died with the process.
        if let Err(e) = self.flush_durable() {
            eprintln!("prkb-server: final durable flush failed during shutdown: {e}");
        }
        self.reserve_all()
    }
}

/// Panic-safe checkin for a detached footprint: reattaches the knowledge
/// and frees the busy attributes on drop. The happy path calls
/// [`Checkin::checkin`] explicitly to also obtain a sequence number and the
/// durability tickets.
struct Checkin<'a, P: SpPredicate> {
    sched: &'a SessionScheduler<P>,
    parts: &'a [(usize, Vec<AttrId>)],
    merged: Option<PrkbEngine<P>>,
}

impl<P: SpPredicate + WireCodec> Checkin<'_, P> {
    fn checkin(&mut self, committed: bool) -> (u64, Vec<(usize, GroupCommitTicket)>) {
        let merged = self.merged.take();
        self.sched.release_parts(self.parts, merged, committed)
    }
}

impl<P: SpPredicate> Drop for Checkin<'_, P> {
    fn drop(&mut self) {
        if let Some(merged) = self.merged.take() {
            // Only reachable when `f` panicked: WireCodec is not needed for
            // an uncommitted release, but the bound lives on the shared
            // helper, so reattach inline.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                release_uncommitted(self.sched, self.parts, merged);
            }));
        }
    }
}

/// Uncommitted reattach used by the panic guards (no sequence number, no
/// WAL records — abort-safe pipelines left no ops to journal).
fn release_uncommitted<P: SpPredicate>(
    sched: &SessionScheduler<P>,
    parts: &[(usize, Vec<AttrId>)],
    mut merged: PrkbEngine<P>,
) {
    let last = parts.len().saturating_sub(1);
    for (i, (sid, shard_attrs)) in parts.iter().enumerate() {
        let mut sub = if i == last {
            std::mem::replace(&mut merged, PrkbEngine::new(sched.config))
        } else {
            merged
                .detach_attrs(shard_attrs)
                .expect("footprint attrs present in merged sub-engine")
        };
        let _ = sub.take_ops();
        let shard = &sched.shards[*sid];
        let mut st = shard.lock();
        st.engine
            .as_mut()
            .expect("busy attrs pin the engine in place")
            .attach(sub);
        for a in shard_attrs {
            st.busy.remove(a);
        }
        for a in shard_attrs {
            if let Some(cell) = st.waiters.get(a) {
                cell.cv.notify_all();
            }
        }
        let now_quiescent = st.busy.is_empty();
        drop(st);
        if now_quiescent {
            shard.quiescent.notify_all();
        }
    }
}

/// Panic-safe exclusive checkin: reinstalls the merged pool on drop.
struct ExclusiveCheckin<'a, P: SpPredicate> {
    sched: &'a SessionScheduler<P>,
    merged: Option<PrkbEngine<P>>,
}

impl<P: SpPredicate + WireCodec> ExclusiveCheckin<'_, P> {
    fn checkin(&mut self, committed: bool) -> (u64, Vec<(usize, GroupCommitTicket)>) {
        let merged = self
            .merged
            .take()
            .expect("checkin called once, with sub set");
        self.sched.reinstall_all(merged, committed)
    }
}

impl<P: SpPredicate> Drop for ExclusiveCheckin<'_, P> {
    fn drop(&mut self) {
        if let Some(mut merged) = self.merged.take() {
            let sched = self.sched;
            let last = sched.shards.len() - 1;
            for (sid, shard) in sched.shards.iter().enumerate() {
                let sub = if sid == last {
                    std::mem::replace(&mut merged, PrkbEngine::new(sched.config))
                } else {
                    let own: Vec<AttrId> = merged
                        .attrs()
                        .filter(|&a| sched.map.shard_of(a) == sid)
                        .collect();
                    merged
                        .detach_attrs(&own)
                        .expect("attrs enumerated from merged engine")
                };
                let mut st = shard.lock();
                st.engine = Some(sub);
                st.exclusive = false;
                drop(st);
                shard.quiescent.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prkb_core::EngineConfig;
    use prkb_edbms::testing::PlainOracle;
    use prkb_edbms::{ComparisonOp, Predicate};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn engine_with(oracle: &PlainOracle, attrs: u32) -> PrkbEngine<Predicate> {
        let mut engine = PrkbEngine::new(EngineConfig::default());
        for a in 0..attrs {
            engine.init_attr(a, oracle.n_slots());
        }
        engine
    }

    #[test]
    fn session_oracle_counts_locally() {
        let oracle = PlainOracle::single_column((0..10).collect());
        oracle.eval(&Predicate::cmp(0, ComparisonOp::Lt, 5), 0);
        let session = SessionOracle::new(&oracle);
        assert_eq!(session.qpf_uses(), 0, "fresh session counter");
        session.eval(&Predicate::cmp(0, ComparisonOp::Lt, 5), 1);
        let mut out = Vec::new();
        session.eval_batch(
            &Predicate::cmp(0, ComparisonOp::Lt, 5),
            &[2, 3, 4],
            &mut out,
        );
        assert_eq!(session.qpf_uses(), 4);
        assert_eq!(oracle.qpf_uses(), 5, "shared counter still global");
    }

    #[test]
    fn detached_select_matches_inline_and_assigns_seq() {
        let values: Vec<u64> = (0..200).map(|i| (i * 37) % 200).collect();
        let oracle = PlainOracle::single_column(values.clone());
        let sched = SessionScheduler::new(engine_with(&oracle, 1));

        let inline_oracle = PlainOracle::single_column(values);
        let mut inline = engine_with(&inline_oracle, 1);

        for (i, bound) in [120u64, 40, 90, 40].into_iter().enumerate() {
            let pred = Predicate::cmp(0, ComparisonOp::Lt, bound);
            let session = SessionOracle::new(&oracle);
            let (sel, seq) = sched
                .with_detached(&[0], |sub| {
                    sub.try_select(&session, &pred, &mut StdRng::seed_from_u64(7))
                })
                .expect("select");
            assert_eq!(seq, i as u64 + 1, "dense commit sequence");
            let expected = inline
                .try_select(&inline_oracle, &pred, &mut StdRng::seed_from_u64(7))
                .expect("inline select");
            assert_eq!(sel.sorted(), expected.sorted());
            assert_eq!(sel.stats.qpf_uses, expected.stats.qpf_uses);
        }
        sched.inspect(|engine| {
            engine
                .knowledge(0)
                .expect("attr 0")
                .validate()
                .expect("valid knowledge");
        });
    }

    #[test]
    fn expired_deadline_aborts_at_checkout_without_leaking_attrs() {
        let oracle = PlainOracle::single_column((0..50).collect());
        let sched = SessionScheduler::new(engine_with(&oracle, 1));
        let pred = Predicate::cmp(0, ComparisonOp::Lt, 25);

        // A deadline already in the past: the checkout must roll back
        // before `f` ever runs.
        let past = Instant::now() - std::time::Duration::from_millis(1);
        let err = sched
            .with_detached_deadline(&[0], Some(past), |_sub| -> Result<(), QueryError> {
                panic!("closure must not run once the budget expired")
            })
            .expect_err("expired budget");
        assert!(matches!(
            err,
            ServeError::Query(QueryError::Oracle(OracleError::DeadlineExceeded))
        ));
        assert_eq!(err.wire_code(), crate::proto::code::DEADLINE);

        // The footprint was checked back in: the same attribute is
        // immediately available, knowledge intact, and the failed attempt
        // consumed no commit sequence number.
        let (sel, seq) = sched
            .with_detached(&[0], |sub| {
                sub.try_select(&oracle, &pred, &mut StdRng::seed_from_u64(1))
            })
            .expect("attr 0 not leaked");
        assert_eq!(sel.tuples.len(), 25);
        assert_eq!(seq, 1, "aborted checkout must not draw a sequence number");

        // Exclusive checkout honours the budget the same way.
        let err = sched
            .with_exclusive_deadline(Some(past), |_engine| {
                panic!("closure must not run once the budget expired")
            })
            .expect_err("expired exclusive budget");
        assert_eq!(err.wire_code(), crate::proto::code::DEADLINE);
        let ((), seq) = sched
            .with_exclusive(|engine| engine.delete(3))
            .expect("pool not wedged after aborted exclusive");
        assert_eq!(seq, 2);
    }

    #[test]
    fn deadline_oracle_cuts_off_between_batches() {
        let oracle = PlainOracle::single_column((0..10).collect());
        let session = SessionOracle::new(&oracle);
        let live = DeadlineOracle::new(&session, None);
        assert!(live
            .try_eval(&Predicate::cmp(0, ComparisonOp::Lt, 5), 0)
            .is_ok());
        assert_eq!(live.qpf_uses(), 1, "passthrough counter");

        let past = Instant::now() - std::time::Duration::from_millis(1);
        let dead = DeadlineOracle::new(&session, Some(past));
        let mut out = Vec::new();
        assert!(matches!(
            dead.try_eval(&Predicate::cmp(0, ComparisonOp::Lt, 5), 0),
            Err(OracleError::DeadlineExceeded)
        ));
        assert!(matches!(
            dead.try_eval_batch(&Predicate::cmp(0, ComparisonOp::Lt, 5), &[1, 2], &mut out),
            Err(OracleError::DeadlineExceeded)
        ));
        assert_eq!(session.qpf_uses(), 1, "no uses spent after expiry");
    }

    #[test]
    fn unknown_attr_leaves_engine_usable() {
        let oracle = PlainOracle::single_column((0..50).collect());
        let sched = SessionScheduler::new(engine_with(&oracle, 1));
        let pred = Predicate::cmp(9, ComparisonOp::Lt, 5);
        let err = sched
            .with_detached(&[9], |sub| {
                sub.try_select(&oracle, &pred, &mut StdRng::seed_from_u64(1))
            })
            .expect_err("attr 9 unknown");
        assert!(matches!(
            err,
            ServeError::Query(QueryError::AttrNotInitialized(9))
        ));
        // Attribute 0 must still be attached and queryable.
        let pred = Predicate::cmp(0, ComparisonOp::Lt, 25);
        let (sel, _) = sched
            .with_detached(&[0], |sub| {
                sub.try_select(&oracle, &pred, &mut StdRng::seed_from_u64(1))
            })
            .expect("attr 0 still live");
        assert_eq!(sel.tuples.len(), 25);
    }

    #[test]
    fn concurrent_disjoint_queries_overlap_and_serialize_per_attr() {
        let columns: Vec<Vec<u64>> = vec![
            (0..300).map(|i| (i * 13) % 300).collect(),
            (0..300).map(|i| (i * 29) % 300).collect(),
        ];
        let oracle = Arc::new(PlainOracle::from_columns(columns));
        let sched = Arc::new(SessionScheduler::new(engine_with(&oracle, 2)));

        let mut handles = Vec::new();
        for worker in 0..4u32 {
            let oracle = Arc::clone(&oracle);
            let sched = Arc::clone(&sched);
            handles.push(std::thread::spawn(move || {
                for round in 0..10u64 {
                    let attr = worker % 2;
                    let bound = (worker as u64 * 57 + round * 31) % 300;
                    let pred = Predicate::cmp(attr, ComparisonOp::Lt, bound);
                    let session = SessionOracle::new(&*oracle);
                    let (sel, _seq) = sched
                        .with_detached(&[attr], |sub| {
                            sub.try_select(&session, &pred, &mut StdRng::seed_from_u64(round))
                        })
                        .expect("select");
                    assert_eq!(sel.tuples.len(), bound as usize);
                }
            }));
        }
        for h in handles {
            h.join().expect("worker");
        }
        let engine = match Arc::try_unwrap(sched) {
            Ok(s) => s.into_engine(),
            Err(_) => panic!("all workers joined"),
        };
        for attr in 0..2 {
            engine
                .knowledge(attr)
                .expect("attr")
                .validate()
                .expect("valid after concurrency");
        }
    }

    #[test]
    fn cross_shard_footprint_reserves_and_releases() {
        // 8 shards, 6 attributes: conjunction footprints span shards and
        // must come back fully reattached.
        let columns: Vec<Vec<u64>> = (0..6)
            .map(|a| (0..100).map(|i| (i * (7 + a)) % 100).collect())
            .collect();
        let oracle = PlainOracle::from_columns(columns);
        let sched = SessionScheduler::with_shards(engine_with(&oracle, 6), ShardMap::new(8));
        assert_eq!(sched.shards(), 8);
        let attrs: Vec<AttrId> = (0..6).collect();
        let session = SessionOracle::new(&oracle);
        let preds: Vec<Predicate> = (0..6)
            .map(|a| Predicate::cmp(a, ComparisonOp::Lt, 60))
            .collect();
        let (sel, seq) = sched
            .with_detached(&attrs, |sub| {
                sub.try_select_conjunction(&session, &preds, &mut StdRng::seed_from_u64(3))
            })
            .expect("conjunction across shards");
        assert_eq!(seq, 1);
        assert!(!sel.tuples.is_empty());
        // Every attribute must be queryable again afterwards.
        for a in 0..6u32 {
            let session = SessionOracle::new(&oracle);
            let pred = Predicate::cmp(a, ComparisonOp::Lt, 10);
            sched
                .with_detached(&[a], |sub| {
                    sub.try_select(&session, &pred, &mut StdRng::seed_from_u64(4))
                })
                .expect("single-attr select after conjunction");
        }
    }

    #[test]
    fn exclusive_merges_and_splits_across_shards() {
        let columns: Vec<Vec<u64>> = (0..4)
            .map(|a| (0..80).map(|i| (i * (3 + a)) % 80).collect())
            .collect();
        let oracle = PlainOracle::from_columns(columns);
        let sched = SessionScheduler::with_shards(engine_with(&oracle, 4), ShardMap::new(8));
        let ((), seq) = sched
            .with_exclusive(|engine| engine.delete(5))
            .expect("delete");
        assert_eq!(seq, 1);
        sched.inspect(|engine| {
            assert_eq!(engine.attrs().count(), 4, "all attrs back after exclusive");
        });
        let engine = sched.into_engine();
        assert_eq!(engine.attrs().count(), 4);
    }
}
