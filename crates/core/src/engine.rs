//! The PRKB engine: per-attribute knowledge bases behind one façade.
//!
//! This is the service-provider-side entry point a deployment would embed:
//! it owns one [`Knowledge`] per indexed attribute, routes incoming
//! trapdoors (comparison vs BETWEEN, single vs multi-dimensional), and
//! keeps the index maintained across inserts and deletes.

use crate::between::try_process_between;
use crate::insert::{apply_insert, decide_insert, InsertDecision, InsertOutcome};
use crate::knowledge::Knowledge;
use crate::md::{try_process_range_md, MdDim, MdUpdatePolicy};
use crate::metrics::{self, QueryKind};
use crate::sd::try_process_comparison;
use crate::sdplus::try_process_range_sdplus;
use crate::selection::Selection;
use crate::traits::SpPredicate;
use prkb_edbms::{AttrId, OracleError, PredicateKind, SelectionOracle, TupleId};
use rand::Rng;
use std::collections::{BTreeSet, HashMap};
use std::error::Error;
use std::fmt;

/// Why a fallible engine entry point gave up.
#[derive(Debug)]
pub enum QueryError {
    /// The SP↔TM boundary failed (transport, decryption, circuit breaker).
    Oracle(OracleError),
    /// A trapdoor references an attribute that was never initialized —
    /// indexing decisions are made at upload time in this engine.
    AttrNotInitialized(AttrId),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Oracle(e) => write!(f, "oracle failure: {e}"),
            QueryError::AttrNotInitialized(a) => write!(f, "attribute {a} not initialized"),
        }
    }
}

impl Error for QueryError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            QueryError::Oracle(e) => Some(e),
            QueryError::AttrNotInitialized(_) => None,
        }
    }
}

impl From<OracleError> for QueryError {
    fn from(e: OracleError) -> Self {
        QueryError::Oracle(e)
    }
}

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Whether single-dimension queries refine the index (`updatePRKB`).
    /// Disable for the paper's "static PRKB" experiments.
    pub update: bool,
    /// Refinement policy for multi-dimensional queries.
    pub md_policy: MdUpdatePolicy,
    /// Worker threads for batched QPF evaluation (`None` defers to the
    /// `PRKB_THREADS` environment variable). The engine itself is
    /// oracle-agnostic: deployments apply this knob when pairing the engine
    /// with its oracle, e.g. `SpOracle::with_threads`. Thread count never
    /// affects results or QPF-use counts — only wall-clock time.
    pub threads: Option<usize>,
    /// Checkpoint rotation policy: rotate once the active write-ahead log
    /// holds at least this many records (`0` disables count-based
    /// rotation). Consulted only by the durable front ends
    /// ([`ShardCommitter`](crate::durability::ShardCommitter) and the
    /// [`DurableEngine`](crate::durability::DurableEngine) built on it); a
    /// plain [`PrkbEngine`] never checkpoints.
    pub checkpoint_wal_records: u64,
    /// Checkpoint rotation policy: rotate once the active write-ahead log
    /// exceeds this many bytes (`0` disables size-based rotation).
    pub checkpoint_wal_bytes: u64,
    /// Group commit: the most refinement records one fsync covers. A flush
    /// leader takes at most this many pending payloads per batch, bounding
    /// tail latency and crash-exposure granularity under burst. Consulted
    /// only by [`ShardCommitter`](crate::durability::ShardCommitter) (a
    /// [`DurableEngine`](crate::durability::DurableEngine) commits one
    /// operation at a time, so each of its batches holds one record).
    /// Clamped to at least 1.
    pub group_commit_records: u64,
    /// Group commit: how long (in microseconds) a committer parked behind
    /// an in-flight flush sleeps before re-checking for leadership — a
    /// missed-wakeup guard, clamped to 50µs..=50ms. Leadership itself is
    /// immediate: the first waiter to find the WAL idle flushes right away,
    /// and batches form from commits that arrived during the previous
    /// flush.
    pub group_commit_max_wait_us: u64,
    /// **Ignored.** Segments ([`lsm`](crate::lsm)) are the only checkpoint
    /// format: every rotation flushes only the dirtied partitions into an
    /// immutable segment file, and a v1 monolithic `checkpoint.bin` is
    /// migrated into segment 0 on first open whatever this says. The field
    /// stays so that code which still sets it — the `perfbench` harness,
    /// which must build unchanged against both this and older trees —
    /// keeps compiling; no code reads it.
    pub segmented_checkpoints: bool,
    /// Fold the live segment set into one segment once it reaches this many
    /// files (`0` disables automatic compaction).
    pub compact_segment_threshold: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            update: true,
            md_policy: MdUpdatePolicy::PartialOnly,
            threads: None,
            checkpoint_wal_records: 4096,
            checkpoint_wal_bytes: 4 << 20,
            group_commit_records: 32,
            group_commit_max_wait_us: 200,
            segmented_checkpoints: false,
            compact_segment_threshold: 6,
        }
    }
}

/// The per-table PRKB engine.
#[derive(Debug)]
pub struct PrkbEngine<P> {
    kbs: HashMap<AttrId, Knowledge<P>>,
    /// Attributes whose in-memory knowledge may have diverged from the
    /// last segment flush — the checkpoint's O(delta) working set. Maintained unconditionally (a `BTreeSet` insert per
    /// mutation batch).
    dirty: BTreeSet<AttrId>,
    /// Engine configuration (mutable between queries).
    pub config: EngineConfig,
}

impl<P: SpPredicate> PrkbEngine<P> {
    /// Creates an engine with no attribute indexed yet.
    pub fn new(config: EngineConfig) -> Self {
        PrkbEngine {
            kbs: HashMap::new(),
            dirty: BTreeSet::new(),
            config,
        }
    }

    /// `initPRKB` for one attribute over a table of `n` tuples. Call once
    /// per attribute, right after the encrypted table is uploaded.
    pub fn init_attr(&mut self, attr: AttrId, n: usize) {
        self.kbs.insert(attr, Knowledge::init(n));
        self.dirty.insert(attr);
    }

    /// The knowledge base for `attr`, if initialized.
    pub fn knowledge(&self, attr: AttrId) -> Option<&Knowledge<P>> {
        self.kbs.get(&attr)
    }

    /// Attributes currently indexed.
    pub fn attrs(&self) -> impl Iterator<Item = AttrId> + '_ {
        self.kbs.keys().copied()
    }

    /// Processes a single-predicate selection, dispatching on the trapdoor's
    /// SP-visible kind (comparison vs BETWEEN).
    ///
    /// Infallible wrapper over [`try_select`](Self::try_select).
    ///
    /// # Panics
    /// Panics if the predicate's attribute was never initialized — indexing
    /// decisions are made at upload time in this engine — or on oracle
    /// failure.
    pub fn select<O, R>(&mut self, oracle: &O, pred: &P, rng: &mut R) -> Selection
    where
        O: SelectionOracle<Pred = P>,
        R: Rng,
    {
        match self.try_select(oracle, pred, rng) {
            Ok(sel) => sel,
            Err(e) => panic!("{e}"),
        }
    }

    /// Processes a single-predicate selection, dispatching on the trapdoor's
    /// SP-visible kind (comparison vs BETWEEN).
    ///
    /// # Errors
    /// [`QueryError::AttrNotInitialized`] for an unindexed attribute;
    /// [`QueryError::Oracle`] on SP↔TM failure. Abort-safe: the
    /// single-dimension pipelines evaluate every trapdoor before committing
    /// any refinement, so on error the attribute's knowledge is untouched.
    pub fn try_select<O, R>(
        &mut self,
        oracle: &O,
        pred: &P,
        rng: &mut R,
    ) -> Result<Selection, QueryError>
    where
        O: SelectionOracle<Pred = P>,
        R: Rng,
    {
        let kind = match oracle.kind_of(pred) {
            PredicateKind::Comparison => QueryKind::Comparison,
            PredicateKind::Between => QueryKind::Between,
        };
        let sel = self.try_select_impl(oracle, pred, rng)?;
        metrics::global().record_query(kind, &sel.stats);
        Ok(sel)
    }

    /// Non-recording twin of [`try_select`](Self::try_select): composite
    /// queries (conjunctions) run their parts through this so the global
    /// metrics registry counts each user-visible query exactly once.
    fn try_select_impl<O, R>(
        &mut self,
        oracle: &O,
        pred: &P,
        rng: &mut R,
    ) -> Result<Selection, QueryError>
    where
        O: SelectionOracle<Pred = P>,
        R: Rng,
    {
        let update = self.config.update;
        let kb = self
            .kbs
            .get_mut(&pred.attr())
            .ok_or(QueryError::AttrNotInitialized(pred.attr()))?;
        Ok(match oracle.kind_of(pred) {
            PredicateKind::Comparison => try_process_comparison(kb, oracle, pred, rng, update)?,
            PredicateKind::Between => try_process_between(kb, oracle, pred, rng, update)?,
        })
    }

    /// Processes a d-dimensional range query with PRKB(MD) (paper §6.2).
    ///
    /// `dims` holds the two comparison trapdoors of each dimension.
    ///
    /// Infallible wrapper over
    /// [`try_select_range_md`](Self::try_select_range_md).
    ///
    /// # Panics
    /// Panics on uninitialized attributes, duplicate dimensions, or oracle
    /// failure.
    pub fn select_range_md<O, R>(&mut self, oracle: &O, dims: &[[P; 2]], rng: &mut R) -> Selection
    where
        O: SelectionOracle<Pred = P>,
        R: Rng,
    {
        match self.try_select_range_md(oracle, dims, rng) {
            Ok(sel) => sel,
            Err(e) => panic!("{e}"),
        }
    }

    /// Processes a d-dimensional range query with PRKB(MD) (paper §6.2).
    ///
    /// # Errors
    /// See [`try_select`](Self::try_select). Abort-safe: PRKB(MD) stages
    /// every split and commits only after the whole query has evaluated.
    ///
    /// # Panics
    /// Panics on duplicate dimensions (programmer error).
    pub fn try_select_range_md<O, R>(
        &mut self,
        oracle: &O,
        dims: &[[P; 2]],
        rng: &mut R,
    ) -> Result<Selection, QueryError>
    where
        O: SelectionOracle<Pred = P>,
        R: Rng,
    {
        let sel = self.try_select_range_md_impl(oracle, dims, rng)?;
        metrics::global().record_query(QueryKind::Md, &sel.stats);
        Ok(sel)
    }

    /// Non-recording twin of
    /// [`try_select_range_md`](Self::try_select_range_md) (see
    /// [`try_select_impl`](Self::try_select_impl)).
    fn try_select_range_md_impl<O, R>(
        &mut self,
        oracle: &O,
        dims: &[[P; 2]],
        rng: &mut R,
    ) -> Result<Selection, QueryError>
    where
        O: SelectionOracle<Pred = P>,
        R: Rng,
    {
        let policy = self.config.md_policy;
        self.with_dims(dims, |md_dims| {
            try_process_range_md(md_dims, oracle, rng, policy)
        })?
        .map_err(QueryError::Oracle)
    }

    /// Processes a d-dimensional range query with the naive PRKB(SD+)
    /// extension (paper §6, baseline).
    ///
    /// Infallible wrapper over
    /// [`try_select_range_sdplus`](Self::try_select_range_sdplus).
    ///
    /// # Panics
    /// Panics on uninitialized attributes, duplicate dimensions, or oracle
    /// failure.
    pub fn select_range_sdplus<O, R>(
        &mut self,
        oracle: &O,
        dims: &[[P; 2]],
        rng: &mut R,
    ) -> Selection
    where
        O: SelectionOracle<Pred = P>,
        R: Rng,
    {
        match self.try_select_range_sdplus(oracle, dims, rng) {
            Ok(sel) => sel,
            Err(e) => panic!("{e}"),
        }
    }

    /// Processes a d-dimensional range query with the naive PRKB(SD+)
    /// extension (paper §6, baseline).
    ///
    /// # Errors
    /// See [`try_select`](Self::try_select). Abort-safe: SD+ snapshots every
    /// dimension's knowledge and restores it wholesale on error.
    ///
    /// # Panics
    /// Panics on duplicate dimensions (programmer error).
    pub fn try_select_range_sdplus<O, R>(
        &mut self,
        oracle: &O,
        dims: &[[P; 2]],
        rng: &mut R,
    ) -> Result<Selection, QueryError>
    where
        O: SelectionOracle<Pred = P>,
        R: Rng,
    {
        let update = self.config.update;
        let sel = self
            .with_dims(dims, |md_dims| {
                try_process_range_sdplus(md_dims, oracle, rng, update)
            })?
            .map_err(QueryError::Oracle)?;
        metrics::global().record_query(QueryKind::Sdplus, &sel.stats);
        Ok(sel)
    }

    /// Moves the named attributes' knowledge out of the map, runs `f`, and
    /// reinserts the knowledge unconditionally — also when `f` reports a
    /// failure, so an abort never strands an attribute's index.
    fn with_dims<T>(
        &mut self,
        dims: &[[P; 2]],
        f: impl FnOnce(&mut [MdDim<P>]) -> T,
    ) -> Result<T, QueryError> {
        // Validate before removing anything: a missing attribute must leave
        // the map untouched.
        for pair in dims {
            let attr = pair[0].attr();
            assert_eq!(
                attr,
                pair[1].attr(),
                "a dimension's trapdoors must share an attribute"
            );
            if !self.kbs.contains_key(&attr) {
                return Err(QueryError::AttrNotInitialized(attr));
            }
        }
        let mut md_dims: Vec<MdDim<P>> = Vec::with_capacity(dims.len());
        for pair in dims {
            let attr = pair[0].attr();
            let knowledge = self
                .kbs
                .remove(&attr)
                .unwrap_or_else(|| panic!("attribute {attr} listed in two dimensions"));
            md_dims.push(MdDim {
                knowledge,
                preds: pair.clone(),
            });
        }
        let out = f(&mut md_dims);
        for (dim, pair) in md_dims.into_iter().zip(dims) {
            self.kbs.insert(pair[0].attr(), dim.knowledge);
        }
        Ok(out)
    }

    /// Processes an arbitrary conjunction of trapdoors — the execution
    /// entry point for parsed SQL selections (`prkb_edbms::sql`).
    ///
    /// Attributes contributing exactly two comparison trapdoors are
    /// recognized as range dimensions and — when there are at least two such
    /// dimensions — executed with PRKB(MD); every remaining trapdoor
    /// (BETWEENs, lone comparisons) runs through the single-dimension
    /// pipeline, and the result sets are intersected.
    ///
    /// # Panics
    /// Panics if a referenced attribute was never initialized, or on oracle
    /// failure. Infallible wrapper over
    /// [`try_select_conjunction`](Self::try_select_conjunction).
    pub fn select_conjunction<O, R>(&mut self, oracle: &O, preds: &[P], rng: &mut R) -> Selection
    where
        O: SelectionOracle<Pred = P>,
        R: Rng,
    {
        match self.try_select_conjunction(oracle, preds, rng) {
            Ok(sel) => sel,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible twin of [`select_conjunction`](Self::select_conjunction).
    ///
    /// # Errors
    /// See [`try_select`](Self::try_select). Abort-safe: the conjunction
    /// commits refinements part by part (the MD grid, then each remaining
    /// trapdoor), so every involved attribute's knowledge is snapshotted up
    /// front and restored wholesale if any later part fails.
    pub fn try_select_conjunction<O, R>(
        &mut self,
        oracle: &O,
        preds: &[P],
        rng: &mut R,
    ) -> Result<Selection, QueryError>
    where
        O: SelectionOracle<Pred = P>,
        R: Rng,
    {
        let n = oracle.n_slots();
        if preds.is_empty() {
            let tuples = (0..n as TupleId).filter(|&t| oracle.is_live(t)).collect();
            return Ok(Selection {
                tuples,
                ..Selection::default()
            });
        }

        // Rollback snapshot of every attribute the conjunction can touch.
        let saved: Vec<(AttrId, Knowledge<P>)> = {
            let mut attrs: Vec<AttrId> = preds.iter().map(SpPredicate::attr).collect();
            attrs.sort_unstable();
            attrs.dedup();
            attrs
                .into_iter()
                .filter_map(|a| self.kbs.get(&a).map(|kb| (a, kb.clone())))
                .collect()
        };
        match self.conjunction_inner(oracle, preds, rng) {
            Ok(sel) => {
                metrics::global().record_query(QueryKind::Conjunction, &sel.stats);
                Ok(sel)
            }
            Err(e) => {
                for (attr, kb) in saved {
                    self.kbs.insert(attr, kb);
                }
                Err(e)
            }
        }
    }

    fn conjunction_inner<O, R>(
        &mut self,
        oracle: &O,
        preds: &[P],
        rng: &mut R,
    ) -> Result<Selection, QueryError>
    where
        O: SelectionOracle<Pred = P>,
        R: Rng,
    {
        use std::collections::BTreeMap;

        let n = oracle.n_slots();
        let qpf_before = oracle.qpf_uses();
        let k_before: usize = self.kbs.values().map(Knowledge::k).sum();

        // Group comparison trapdoors per attribute, preserving order.
        let mut cmp_by_attr: BTreeMap<AttrId, Vec<P>> = BTreeMap::new();
        let mut singles: Vec<P> = Vec::new();
        for p in preds {
            match oracle.kind_of(p) {
                PredicateKind::Comparison => {
                    cmp_by_attr.entry(p.attr()).or_default().push(p.clone())
                }
                PredicateKind::Between => singles.push(p.clone()),
            }
        }
        let mut dims: Vec<[P; 2]> = Vec::new();
        for (_, mut group) in cmp_by_attr {
            // At most one pair per attribute: the MD grid owns each
            // attribute's knowledge exclusively, so further comparisons on
            // the same attribute run through the single-dimension pipeline.
            if group.len() >= 2 {
                let b = group.pop().expect("len >= 2");
                let a = group.pop().expect("len >= 1");
                dims.push([a, b]);
            }
            singles.extend(group);
        }

        let mut hits: Vec<u32> = vec![0; n];
        let mut parts = 0u32;
        let mut agg = crate::selection::QueryStats::default();
        if dims.len() >= 2 {
            let sel = self.try_select_range_md_impl(oracle, &dims, rng)?;
            agg.absorb(&sel.stats);
            parts += 1;
            for t in sel.tuples {
                hits[t as usize] += 1;
            }
        } else {
            // Not enough dimensions for the grid: run them individually.
            singles.extend(dims.into_iter().flatten());
        }
        for p in singles {
            let sel = self.try_select_impl(oracle, &p, rng)?;
            agg.absorb(&sel.stats);
            parts += 1;
            for t in sel.tuples {
                hits[t as usize] += 1;
            }
        }

        let tuples: Vec<TupleId> = (0..n as TupleId)
            .filter(|&t| hits[t as usize] == parts)
            .collect();
        // Per-part breakdown sums; the envelope figures are measured across
        // the whole conjunction.
        agg.qpf_uses = oracle.qpf_uses().saturating_sub(qpf_before);
        agg.k_before = k_before;
        agg.k_after = self.kbs.values().map(Knowledge::k).sum();
        Ok(Selection { tuples, stats: agg })
    }

    /// Checks the named attributes' knowledge **out** of this engine into a
    /// detached sub-engine (same configuration), for a concurrent scheduler
    /// that wants to hold the shared engine's lock only while moving
    /// knowledge, not while spending QPF uses on evaluation.
    ///
    /// The returned engine owns exactly the deduplicated `attrs`; this
    /// engine no longer knows them until [`attach`](Self::attach) moves the
    /// (possibly refined) knowledge back. Callers are responsible for
    /// tracking which attributes are detached — a second `detach_attrs` on
    /// the same attribute reports it as uninitialized.
    ///
    /// # Errors
    /// [`QueryError::AttrNotInitialized`] if any attribute is absent; no
    /// knowledge is moved in that case.
    pub fn detach_attrs(&mut self, attrs: &[AttrId]) -> Result<PrkbEngine<P>, QueryError> {
        let mut wanted: Vec<AttrId> = attrs.to_vec();
        wanted.sort_unstable();
        wanted.dedup();
        for &attr in &wanted {
            if !self.kbs.contains_key(&attr) {
                return Err(QueryError::AttrNotInitialized(attr));
            }
        }
        let mut sub = PrkbEngine::new(self.config);
        for attr in wanted {
            let kb = self.kbs.remove(&attr).expect("checked above");
            sub.kbs.insert(attr, kb);
            // Carry the attr's dirty flag with its knowledge so neither
            // engine over- or under-reports while the checkout is live.
            if self.dirty.remove(&attr) {
                sub.dirty.insert(attr);
            }
        }
        Ok(sub)
    }

    /// Moves every attribute of a detached sub-engine (see
    /// [`detach_attrs`](Self::detach_attrs)) back into this engine,
    /// replacing any same-named attribute wholesale.
    pub fn attach(&mut self, sub: PrkbEngine<P>) {
        self.dirty.extend(sub.dirty.iter().copied());
        for (attr, kb) in sub.kbs {
            self.kbs.insert(attr, kb);
        }
    }

    /// Routes a freshly inserted tuple into every indexed attribute
    /// (paper §7.1; O(β lg k) QPF uses in total).
    ///
    /// Infallible wrapper over [`try_insert`](Self::try_insert).
    ///
    /// # Panics
    /// Panics on oracle failure.
    pub fn insert<O>(&mut self, oracle: &O, t: TupleId) -> Vec<(AttrId, InsertOutcome)>
    where
        O: SelectionOracle<Pred = P>,
    {
        match self.try_insert(oracle, t) {
            Ok(outcomes) => outcomes,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible twin of [`insert`](Self::insert).
    ///
    /// # Errors
    /// [`QueryError::Oracle`] on SP↔TM failure. Abort-safe: routing
    /// decisions for *all* attributes are computed read-only first; the
    /// knowledge bases are mutated only after every oracle call of the
    /// whole insert has succeeded.
    pub fn try_insert<O>(
        &mut self,
        oracle: &O,
        t: TupleId,
    ) -> Result<Vec<(AttrId, InsertOutcome)>, QueryError>
    where
        O: SelectionOracle<Pred = P>,
    {
        // Deterministic attribute order keeps the oracle call sequence (and
        // with it any injected-fault schedule) reproducible across runs.
        let qpf_before = oracle.qpf_uses();
        let mut attrs: Vec<AttrId> = self.kbs.keys().copied().collect();
        attrs.sort_unstable();

        // Decision phase: read-only, all oracle calls happen here.
        let mut decisions: Vec<(AttrId, InsertDecision)> = Vec::with_capacity(attrs.len());
        for &attr in &attrs {
            let kb = &self.kbs[&attr];
            decisions.push((attr, decide_insert(kb, oracle, t)?));
        }

        // Commit phase: infallible.
        let outcomes: Vec<(AttrId, InsertOutcome)> = decisions
            .into_iter()
            .map(|(attr, decision)| {
                let kb = self.kbs.get_mut(&attr).expect("attr enumerated above");
                (attr, apply_insert(kb, t, decision))
            })
            .collect();
        let parked = outcomes
            .iter()
            .any(|(_, o)| matches!(o, InsertOutcome::Parked { .. }));
        metrics::global().record_insert(oracle.qpf_uses().saturating_sub(qpf_before), parked);
        Ok(outcomes)
    }

    /// Removes a deleted tuple from every indexed attribute (paper §7.2).
    pub fn delete(&mut self, t: TupleId) {
        for (attr, kb) in &mut self.kbs {
            kb.delete(t);
            self.dirty.insert(*attr);
        }
    }

    /// Turns op journaling on or off for every attribute's knowledge base
    /// (see [`Knowledge::set_recording`]). Attributes initialized later
    /// start with journaling off; durable wrappers re-enable it after each
    /// [`init_attr`](Self::init_attr).
    pub fn set_recording(&mut self, on: bool) {
        for kb in self.kbs.values_mut() {
            kb.set_recording(on);
        }
    }

    /// Drains every attribute's op journal, attribute-sorted (ops across
    /// attributes are independent — each applies to its own knowledge base —
    /// so sorting keeps the drained sequence deterministic while preserving
    /// each attribute's commit order).
    pub fn take_ops(&mut self) -> Vec<(AttrId, crate::knowledge::RefinementOp<P>)> {
        let mut attrs: Vec<AttrId> = self.kbs.keys().copied().collect();
        attrs.sort_unstable();
        let mut out = Vec::new();
        for attr in attrs {
            let kb = self.kbs.get_mut(&attr).expect("attr enumerated above");
            let ops = kb.take_ops();
            if !ops.is_empty() {
                self.dirty.insert(attr);
            }
            out.extend(ops.into_iter().map(|op| (attr, op)));
        }
        out
    }

    /// Mutable knowledge access for the durability layer's replay path.
    /// Marks the attribute dirty: replayed WAL-tail ops are exactly the
    /// divergence from the last segment flush.
    pub(crate) fn knowledge_mut(&mut self, attr: AttrId) -> Option<&mut Knowledge<P>> {
        let kb = self.kbs.get_mut(&attr);
        if kb.is_some() {
            self.dirty.insert(attr);
        }
        kb
    }

    /// Installs a knowledge base restored from a checkpoint or segment.
    /// Does *not* mark the attribute dirty — the restored state matches
    /// what storage already holds.
    pub(crate) fn restore_attr(&mut self, attr: AttrId, kb: Knowledge<P>) {
        self.kbs.insert(attr, kb);
    }

    /// Attributes whose knowledge may have diverged from the last segment
    /// flush, sorted. The segmented checkpoint writes exactly these.
    pub fn dirty_attrs(&self) -> Vec<AttrId> {
        self.dirty.iter().copied().collect()
    }

    /// Clears the dirty set after a successful segment flush.
    pub(crate) fn clear_dirty(&mut self) {
        self.dirty.clear();
    }

    /// Total index storage across attributes (Table 3 accounting).
    pub fn storage_bytes(&self) -> usize {
        self.kbs.values().map(Knowledge::storage_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prkb_edbms::testing::PlainOracle;
    use prkb_edbms::{ComparisonOp, Predicate};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn engine_2d(n: usize, seed: u64) -> (PrkbEngine<Predicate>, PlainOracle) {
        let mut rng = StdRng::seed_from_u64(seed);
        let columns: Vec<Vec<u64>> = (0..2)
            .map(|_| (0..n).map(|_| rng.gen_range(0..1000u64)).collect())
            .collect();
        let oracle = PlainOracle::from_columns(columns);
        let mut engine = PrkbEngine::new(EngineConfig::default());
        engine.init_attr(0, n);
        engine.init_attr(1, n);
        (engine, oracle)
    }

    #[test]
    fn select_dispatches_comparison_and_between() {
        let (mut engine, oracle) = engine_2d(500, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let c = Predicate::cmp(0, ComparisonOp::Lt, 300);
        assert_eq!(
            engine.select(&oracle, &c, &mut rng).sorted(),
            oracle.expected_select(&c)
        );
        let b = Predicate::between(1, 100, 400);
        assert_eq!(
            engine.select(&oracle, &b, &mut rng).sorted(),
            oracle.expected_select(&b)
        );
    }

    #[test]
    fn md_and_sdplus_through_engine() {
        let (mut engine, oracle) = engine_2d(800, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let dims = [
            [
                Predicate::cmp(0, ComparisonOp::Gt, 200),
                Predicate::cmp(0, ComparisonOp::Lt, 600),
            ],
            [
                Predicate::cmp(1, ComparisonOp::Gt, 300),
                Predicate::cmp(1, ComparisonOp::Lt, 700),
            ],
        ];
        let flat: Vec<Predicate> = dims.iter().flatten().cloned().collect();
        let md = engine.select_range_md(&oracle, &dims, &mut rng);
        assert_eq!(md.sorted(), oracle.expected_conjunction(&flat));
        let sdp = engine.select_range_sdplus(&oracle, &dims, &mut rng);
        assert_eq!(sdp.sorted(), oracle.expected_conjunction(&flat));
        // Knowledge must be back in place for single-dim queries.
        let c = Predicate::cmp(0, ComparisonOp::Lt, 500);
        assert_eq!(
            engine.select(&oracle, &c, &mut rng).sorted(),
            oracle.expected_select(&c)
        );
    }

    #[test]
    fn insert_and_delete_maintain_all_attrs() {
        let (mut engine, mut oracle) = engine_2d(300, 5);
        let mut rng = StdRng::seed_from_u64(6);
        // Warm both attributes.
        for bound in [100u64, 500, 900] {
            for attr in 0..2u32 {
                let p = Predicate::cmp(attr, ComparisonOp::Lt, bound);
                engine.select(&oracle, &p, &mut rng);
            }
        }
        let t = oracle.insert(&[450, 777]);
        let outcomes = engine.insert(&oracle, t);
        assert_eq!(outcomes.len(), 2);
        let p = Predicate::cmp(0, ComparisonOp::Lt, 460);
        assert_eq!(
            engine.select(&oracle, &p, &mut rng).sorted(),
            oracle.expected_select(&p)
        );

        oracle.delete(t);
        engine.delete(t);
        assert_eq!(
            engine.select(&oracle, &p, &mut rng).sorted(),
            oracle.expected_select(&p)
        );
    }

    #[test]
    fn storage_accounting_scales_with_k() {
        let (mut engine, oracle) = engine_2d(1000, 7);
        let base = engine.storage_bytes();
        let mut rng = StdRng::seed_from_u64(8);
        for bound in [100u64, 300, 500, 700, 900] {
            engine.select(
                &oracle,
                &Predicate::cmp(0, ComparisonOp::Lt, bound),
                &mut rng,
            );
        }
        assert!(engine.storage_bytes() > base);
    }

    #[test]
    fn select_conjunction_mixes_shapes() {
        let (mut engine, oracle) = engine_2d(600, 11);
        let mut rng = StdRng::seed_from_u64(12);
        // 2 range dims + a BETWEEN + a lone comparison on attr 0.
        let preds = vec![
            Predicate::cmp(0, ComparisonOp::Gt, 100),
            Predicate::cmp(0, ComparisonOp::Lt, 800),
            Predicate::cmp(1, ComparisonOp::Gt, 200),
            Predicate::cmp(1, ComparisonOp::Lt, 900),
            Predicate::between(0, 150, 700),
            Predicate::cmp(1, ComparisonOp::Ge, 250),
        ];
        let sel = engine.select_conjunction(&oracle, &preds, &mut rng);
        assert_eq!(sel.sorted(), oracle.expected_conjunction(&preds));
        // Repeat: must stay correct with the now-warmed index.
        let sel = engine.select_conjunction(&oracle, &preds, &mut rng);
        assert_eq!(sel.sorted(), oracle.expected_conjunction(&preds));
    }

    #[test]
    fn select_conjunction_empty_is_full_scan() {
        let (mut engine, oracle) = engine_2d(50, 13);
        let mut rng = StdRng::seed_from_u64(14);
        let sel = engine.select_conjunction(&oracle, &[], &mut rng);
        assert_eq!(sel.tuples.len(), 50);
        assert_eq!(sel.stats.qpf_uses, 0);
    }

    #[test]
    fn select_conjunction_many_predicates_per_attr() {
        // Regression (found by the `differ` harness): four comparisons on
        // one attribute must not build two MD dims over the same knowledge.
        let (mut engine, oracle) = engine_2d(300, 21);
        let mut rng = StdRng::seed_from_u64(22);
        let preds = vec![
            Predicate::cmp(1, ComparisonOp::Gt, 100),
            Predicate::cmp(1, ComparisonOp::Lt, 900),
            Predicate::cmp(1, ComparisonOp::Ge, 200),
            Predicate::cmp(1, ComparisonOp::Le, 800),
            Predicate::cmp(0, ComparisonOp::Gt, 50),
            Predicate::cmp(0, ComparisonOp::Lt, 950),
        ];
        let sel = engine.select_conjunction(&oracle, &preds, &mut rng);
        assert_eq!(sel.sorted(), oracle.expected_conjunction(&preds));
    }

    #[test]
    fn select_conjunction_same_direction_pair() {
        // Two same-direction comparisons on one attribute are still a valid
        // conjunction (not a range) and must evaluate correctly.
        let (mut engine, oracle) = engine_2d(400, 15);
        let mut rng = StdRng::seed_from_u64(16);
        let preds = vec![
            Predicate::cmp(0, ComparisonOp::Lt, 700),
            Predicate::cmp(0, ComparisonOp::Lt, 300),
            Predicate::cmp(1, ComparisonOp::Gt, 100),
            Predicate::cmp(1, ComparisonOp::Gt, 400),
        ];
        let sel = engine.select_conjunction(&oracle, &preds, &mut rng);
        assert_eq!(sel.sorted(), oracle.expected_conjunction(&preds));
    }

    #[test]
    fn detach_evaluate_attach_matches_inline() {
        // The scheduler's lock discipline: queries run on a detached
        // sub-engine and the refined knowledge is attached back. Results and
        // QPF must match the inline path exactly.
        let (mut engine, oracle) = engine_2d(400, 17);
        let (mut inline_engine, inline_oracle) = engine_2d(400, 17);
        for (i, bound) in [120u64, 640, 300, 880, 300].into_iter().enumerate() {
            let p = Predicate::cmp((i % 2) as u32, ComparisonOp::Lt, bound);
            let mut sub = engine.detach_attrs(&[p.attr()]).expect("detach");
            assert!(
                engine.knowledge(p.attr()).is_none(),
                "knowledge moved out while detached"
            );
            let mut rng = StdRng::seed_from_u64(100 + i as u64);
            let sel = sub.try_select(&oracle, &p, &mut rng).expect("select");
            engine.attach(sub);
            let mut rng = StdRng::seed_from_u64(100 + i as u64);
            let want = inline_engine
                .try_select(&inline_oracle, &p, &mut rng)
                .expect("inline");
            assert_eq!(sel.sorted(), want.sorted());
            assert_eq!(sel.stats.qpf_uses, want.stats.qpf_uses);
            engine
                .knowledge(p.attr())
                .expect("attached back")
                .validate()
                .expect("valid after attach");
        }
    }

    #[test]
    fn detach_missing_attr_moves_nothing() {
        let (mut engine, _) = engine_2d(100, 19);
        let err = engine.detach_attrs(&[0, 7]).expect_err("attr 7 missing");
        assert!(matches!(err, QueryError::AttrNotInitialized(7)));
        assert!(engine.knowledge(0).is_some(), "attr 0 must not be stranded");
    }

    #[test]
    #[should_panic(expected = "not initialized")]
    fn uninitialized_attr_panics() {
        let (mut engine, oracle) = engine_2d(100, 9);
        let mut rng = StdRng::seed_from_u64(10);
        let p = Predicate::cmp(7, ComparisonOp::Lt, 5);
        let _ = engine.select(&oracle, &p, &mut rng);
    }
}
