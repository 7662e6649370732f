//! Segmented (LSM-style) checkpoint storage properties (DESIGN.md §17).
//!
//! Pinned guarantees:
//!
//! 1. **Segment-hook replay equivalence** — for every segment crash hook
//!    (torn segment temp, pre/post manifest swap, retire, compaction
//!    included), reopening recovers exactly the live committed state: the
//!    record that triggered the rotation was durable before any segment
//!    byte moved, so nothing acknowledged is ever lost.
//! 2. **O(delta) flush** — a checkpoint after touching `k` of `N`
//!    partitions writes a segment holding exactly those `k` blocks, not
//!    the whole KB.
//! 3. **Lazy recovery** — reopening materializes only the partitions the
//!    WAL tail touches; everything else stays in the segment store until a
//!    query (or `ensure_all_loaded`) pulls it in, byte-identical either
//!    way.
//! 4. **Compaction correctness** — folding the live set down races
//!    concurrent queries and group commits without disturbing either, and
//!    the folded store recovers the same bytes.
//! 5. **v1 migration** — a committed v1 monolithic `checkpoint.bin` (and
//!    its WAL) is migrated into segment 0 on first open and recovers the
//!    same bytes the segment store builds from the same workload.
//! 6. **Storage-fault equivalence** — seeded EIO/ENOSPC/short-write faults
//!    against the segmented store (segment write, manifest swap, retire
//!    included) surface as clean errors; reopening over the real fs
//!    recovers the acknowledged prefix or the in-flight state, never less.

use prkb_core::durability::{encode_txn, DurableEngine, DurableError, RecoveryReport, TxnEntry};
use prkb_core::lsm::manifest::read_segment_manifest;
use prkb_core::lsm::{segment_file_name, SegmentMeta, SEGMENT_MANIFEST_FILE};
use prkb_core::snapshot::{self, WireCodec};
use prkb_core::storage::{FaultFs, StorageFs};
use prkb_core::{EngineConfig, PrkbEngine, ShardMap, ShardedDurablePool, SpPredicate};
use prkb_edbms::durability::{CrashInjector, CrashPoint};
use prkb_edbms::testing::PlainOracle;
use prkb_edbms::{real_fs, ComparisonOp, Predicate};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

struct TmpDir(PathBuf);

impl TmpDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "prkb-lsm-{}-{}-{tag}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        TmpDir(dir)
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn kb_bytes<P: SpPredicate + WireCodec>(engine: &PrkbEngine<P>) -> Vec<Vec<u8>> {
    let mut attrs: Vec<_> = engine.attrs().collect();
    attrs.sort_unstable();
    attrs
        .iter()
        .map(|&a| snapshot::save(engine.knowledge(a).expect("attr indexed")))
        .collect()
}

fn columns(cols: usize, n: usize, extra: usize, seed: u64) -> Vec<Vec<u64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..cols)
        .map(|_| (0..n + extra).map(|_| rng.gen_range(0..1_000u64)).collect())
        .collect()
}

/// Config rotating every `records` WAL records, compacting once the live
/// set reaches `threshold` segments (0 disables compaction).
fn segmented(records: u64, threshold: u64) -> EngineConfig {
    EngineConfig {
        checkpoint_wal_records: records,
        checkpoint_wal_bytes: 0,
        compact_segment_threshold: threshold,
        ..EngineConfig::default()
    }
}

/// Mixed workload over everything that can mutate knowledge (same shape as
/// the twin in `durability.rs`).
#[derive(Debug, Clone)]
enum Step {
    Cmp(Predicate),
    Md([[Predicate; 2]; 2]),
    Sdplus([[Predicate; 2]; 2]),
    Conjunction(Vec<Predicate>),
    Insert(u32),
    Delete(u32),
}

fn workload(n: usize, extra: usize, seed: u64) -> Vec<Step> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut steps = Vec::new();
    let mut next_insert = n as u32;
    for round in 0..16 {
        let lo = rng.gen_range(0..800u64);
        let hi = lo + rng.gen_range(50..200u64);
        let attr = (round % 2) as u32;
        let step = match round % 7 {
            0 => Step::Cmp(Predicate::cmp(attr, ComparisonOp::Lt, hi)),
            1 => Step::Cmp(Predicate::between(attr, lo, hi)),
            2 | 3 => {
                let dims = [
                    [
                        Predicate::cmp(0, ComparisonOp::Gt, lo),
                        Predicate::cmp(0, ComparisonOp::Lt, hi),
                    ],
                    [
                        Predicate::cmp(1, ComparisonOp::Gt, lo / 2),
                        Predicate::cmp(1, ComparisonOp::Lt, hi + 100),
                    ],
                ];
                if round % 7 == 2 {
                    Step::Md(dims)
                } else {
                    Step::Sdplus(dims)
                }
            }
            4 => Step::Conjunction(vec![
                Predicate::cmp(0, ComparisonOp::Gt, lo),
                Predicate::cmp(0, ComparisonOp::Lt, hi),
                Predicate::cmp(1, ComparisonOp::Gt, lo / 2),
                Predicate::cmp(1, ComparisonOp::Lt, hi + 100),
                Predicate::between(0, lo, hi),
            ]),
            5 => Step::Delete(rng.gen_range(0..n as u32 / 2)),
            _ => {
                let t = next_insert;
                next_insert += 1;
                if (t as usize) < n + extra {
                    Step::Insert(t)
                } else {
                    Step::Cmp(Predicate::cmp(attr, ComparisonOp::Ge, lo))
                }
            }
        };
        steps.push(step);
    }
    steps
}

fn step_rng(seed: u64, i: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn apply_durable(
    engine: &mut DurableEngine<Predicate>,
    oracle: &PlainOracle,
    step: &Step,
    rng: &mut StdRng,
) -> Result<(), DurableError> {
    match step {
        Step::Cmp(p) => engine.try_select(oracle, p, rng).map(|_| ()),
        Step::Md(dims) => engine.try_select_range_md(oracle, dims, rng).map(|_| ()),
        Step::Sdplus(dims) => engine
            .try_select_range_sdplus(oracle, dims, rng)
            .map(|_| ()),
        Step::Conjunction(ps) => engine.try_select_conjunction(oracle, ps, rng).map(|_| ()),
        Step::Insert(t) => engine.try_insert(oracle, *t).map(|_| ()),
        Step::Delete(t) => engine.delete(*t),
    }
}

/// Outcome of driving the crash-armed workload.
struct CrashRun {
    /// State captured *before* the failing call (last acknowledged state).
    acked: Vec<Vec<u8>>,
    /// In-memory state right after the crash error.
    live: Vec<Vec<u8>>,
    crashed: bool,
}

/// Drives the mixed workload against a crash-armed segmented engine over
/// the real filesystem, stopping at the first storage error.
fn drive(dir: &TmpDir, seed: u64, config: EngineConfig, crash: CrashInjector) -> CrashRun {
    drive_with_fs(dir, seed, config, crash, real_fs())
        .expect("the real fs cannot fail the open of a fresh dir")
}

/// Same workload over an arbitrary storage backend (fault injection);
/// `None` when the fault killed the open itself — nothing acknowledged.
fn drive_with_fs(
    dir: &TmpDir,
    seed: u64,
    config: EngineConfig,
    crash: CrashInjector,
    fs: Arc<dyn StorageFs>,
) -> Option<CrashRun> {
    let (n, extra) = (180usize, 3usize);
    let oracle = PlainOracle::from_columns(columns(2, n, extra, seed));
    let (mut durable, _) = match DurableEngine::open_with_storage(&dir.0, config, crash, fs) {
        Ok(v) => v,
        Err(_) => return None,
    };
    let mut acked = kb_bytes(durable.engine());
    for attr in 0..2u32 {
        if durable.init_attr(attr, n).is_err() {
            return Some(CrashRun {
                live: kb_bytes(durable.engine()),
                acked,
                crashed: true,
            });
        }
        acked = kb_bytes(durable.engine());
    }
    for (i, step) in workload(n, extra, seed ^ 0x77).iter().enumerate() {
        acked = kb_bytes(durable.engine());
        if apply_durable(&mut durable, &oracle, step, &mut step_rng(seed, i)).is_err() {
            return Some(CrashRun {
                live: kb_bytes(durable.engine()),
                acked,
                crashed: true,
            });
        }
    }
    Some(CrashRun {
        acked: kb_bytes(durable.engine()),
        live: kb_bytes(durable.engine()),
        crashed: false,
    })
}

/// Reopens with injection disabled, materializes every lazy partition, and
/// returns the recovered byte state plus the recovery report.
fn recover(dir: &TmpDir, config: EngineConfig) -> (Vec<Vec<u8>>, RecoveryReport) {
    let (mut engine, report) =
        DurableEngine::<Predicate>::open_with_crash(&dir.0, config, CrashInjector::disabled())
            .expect("recovery must open after a crash");
    engine
        .ensure_all_loaded()
        .expect("segment store must materialize every partition");
    for attr in engine.engine().attrs().collect::<Vec<_>>() {
        engine
            .engine()
            .knowledge(attr)
            .expect("attr indexed")
            .check_invariants();
    }
    (kb_bytes(engine.engine()), report)
}

// ---------------------------------------------------------------------------
// 1. Segment-hook crash sweep (DurableEngine path)
// ---------------------------------------------------------------------------

/// A crash at every segment hook still recovers the exact live state: the
/// record that triggered the rotation was appended + fsync'd before any
/// segment byte moved, so the full committed history is durable at every
/// boundary — before the manifest swap the old segment set + WAL replay
/// reproduce it, after the swap the new segment subsumes the old WAL.
#[test]
fn segment_crash_sweep_recovers_live_state() {
    for point in CrashPoint::SEGMENT_HOOKS {
        for nth in [1u64, 2, 5] {
            let dir = TmpDir::new("segsweep");
            // Threshold 2 keeps compaction hot so the retire hook (which
            // only compaction reaches) actually fires.
            let config = segmented(4, 2);
            let run = drive(&dir, 42, config, CrashInjector::at_nth(point, nth));
            if nth == 1 {
                assert!(run.crashed, "{point}:1 never fired");
            }
            let (recovered, report) = recover(&dir, config);
            assert_eq!(
                recovered, run.live,
                "{point}:{nth}: segment rotation crash lost committed state"
            );
            if run.crashed {
                assert!(
                    report.epoch > 0 || report.segments_live == 0,
                    "{point}:{nth}: a crash after any flush must leave a manifest epoch"
                );
            }
        }
    }
}

/// `PRKB_CRASH_POINT=<name>[:nth]` arms the injector exactly like
/// production would (unset, the run is clean and replay equality still
/// pins). The CI crash sweeps drive the same hooks through
/// `durability.rs` and `shard_durability.rs`.
#[test]
fn env_driven_segmented_crash_recovers() {
    let injector = CrashInjector::from_env();
    let dir = TmpDir::new("env");
    let config = segmented(5, 3);
    let run = drive(&dir, 7, config, injector);
    let (recovered, _) = recover(&dir, config);
    if run.crashed {
        assert!(
            recovered == run.acked || recovered == run.live,
            "recovered state diverged under env-armed crash injection"
        );
    } else {
        assert_eq!(recovered, run.live, "clean run must recover final state");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Randomized sweep over *every* crash point — WAL, group-flush and
    /// segment hooks alike: whatever
    /// fires wherever (nth included), the recovered engine validates and
    /// is byte-identical to the acknowledged state or to the acknowledged
    /// state plus the one in-flight operation.
    fn randomized_segmented_crash_recovery(
        seed in 0u64..1_000_000,
        point_idx in 0usize..CrashPoint::ALL.len(),
        nth in 1u64..8,
    ) {
        let point = CrashPoint::ALL[point_idx];
        let dir = TmpDir::new("prop");
        let config = segmented(5, 3);
        let run = drive(&dir, seed, config, CrashInjector::at_nth(point, nth));
        let (recovered, _) = recover(&dir, config);
        if run.crashed {
            prop_assert!(
                recovered == run.acked || recovered == run.live,
                "{}:{}: recovered state is neither the acknowledged prefix nor the in-flight state",
                point, nth
            );
        } else {
            prop_assert_eq!(
                recovered, run.live,
                "{}:{}: clean shutdown must recover the final state", point, nth
            );
        }
    }
}

// ---------------------------------------------------------------------------
// 2. O(delta) flush: only dirtied partitions reach the segment
// ---------------------------------------------------------------------------

/// Checkpointing after touching `k` of `N` partitions writes a segment
/// holding exactly those `k` blocks — verified against the published
/// segment's own index, and against the `segment_flush_bytes` counter.
#[test]
fn checkpoint_flushes_only_the_dirty_partitions() {
    const ATTRS: u32 = 8;
    let dir = TmpDir::new("odelta");
    let config = segmented(0, 0); // explicit checkpoints only, no compaction
    let oracle = PlainOracle::from_columns(columns(ATTRS as usize, 160, 0, 5));
    let (mut durable, _) =
        DurableEngine::<Predicate>::open_with_crash(&dir.0, config, CrashInjector::disabled())
            .expect("open");
    for a in 0..ATTRS {
        durable.init_attr(a, 160).expect("init");
    }
    durable.checkpoint().expect("full first flush");

    // Touch exactly two partitions, then flush.
    let mut rng = StdRng::seed_from_u64(1);
    for a in [0u32, 1] {
        durable
            .try_select(&oracle, &Predicate::cmp(a, ComparisonOp::Lt, 400), &mut rng)
            .expect("select");
    }
    let flushed_before = prkb_core::metrics::global()
        .snapshot()
        .counter("segment_flush_bytes")
        .unwrap_or(0);
    durable.checkpoint().expect("delta flush");
    let flushed_after = prkb_core::metrics::global()
        .snapshot()
        .counter("segment_flush_bytes")
        .unwrap_or(0);

    let fs = real_fs();
    let manifest = read_segment_manifest(fs.as_ref(), &dir.0)
        .expect("manifest reads")
        .expect("manifest exists after checkpoints");
    assert_eq!(manifest.segments, vec![0, 1], "two flushes, two segments");
    let full = SegmentMeta::open(fs.as_ref(), &dir.0, 0).expect("segment 0 opens");
    let delta = SegmentMeta::open(fs.as_ref(), &dir.0, 1).expect("segment 1 opens");
    assert_eq!(
        full.index.iter().map(|e| e.attr).collect::<Vec<_>>(),
        (0..ATTRS).collect::<Vec<_>>(),
        "first flush covers every initialized partition"
    );
    assert_eq!(
        delta.index.iter().map(|e| e.attr).collect::<Vec<_>>(),
        vec![0, 1],
        "delta flush must hold exactly the touched partitions"
    );
    assert!(
        delta.file_len < full.file_len / 2,
        "O(k) flush wrote {} bytes vs {} for the full KB",
        delta.file_len,
        full.file_len
    );
    // The registry is process-global (other tests may add to it
    // concurrently), so the counter check is a lower bound only.
    assert!(
        flushed_after - flushed_before >= delta.file_len,
        "segment_flush_bytes must account for the delta segment"
    );
}

/// A dirty set larger than the group-commit batch cap still flushes in one
/// segment: the checkpoint path iterates the dirty *set*, which is
/// unrelated to the WAL batching knob.
#[test]
fn dirty_set_larger_than_group_commit_batch_flushes_whole_delta() {
    const ATTRS: u32 = 8;
    const N: usize = 120;
    let dir = TmpDir::new("bigdirty");
    let config = EngineConfig {
        checkpoint_wal_records: 0,
        checkpoint_wal_bytes: 0,
        group_commit_records: 3, // far smaller than the 8-partition dirty set
        compact_segment_threshold: 0,
        ..EngineConfig::default()
    };
    let mut pool = ShardedDurablePool::<Predicate>::open_with_crash(
        &dir.0,
        config,
        ShardMap::new(1),
        CrashInjector::disabled(),
    )
    .expect("create");
    for a in 0..ATTRS {
        pool.init_attr(a, N).expect("init");
    }
    let (_, mut parts) = pool.into_parts();
    let (engine, committer) = &mut parts[0];
    assert!(
        engine.dirty_attrs().len() as u64 > config.group_commit_records,
        "precondition: dirty set exceeds the batch cap"
    );
    committer.checkpoint(engine).expect("checkpoint");
    let live = kb_bytes(engine);

    let fs = real_fs();
    let shard_dir = dir.0.join("shard.0");
    let manifest = read_segment_manifest(fs.as_ref(), &shard_dir)
        .expect("manifest reads")
        .expect("manifest exists");
    let newest = *manifest.segments.last().expect("one segment");
    let meta = SegmentMeta::open(fs.as_ref(), &shard_dir, newest).expect("segment opens");
    assert_eq!(
        meta.index.iter().map(|e| e.attr).collect::<Vec<_>>(),
        (0..ATTRS).collect::<Vec<_>>(),
        "every dirty partition must reach the segment in one flush"
    );
    drop(parts);
    let pool = ShardedDurablePool::<Predicate>::open_with_crash(
        &dir.0,
        config,
        ShardMap::new(1),
        CrashInjector::disabled(),
    )
    .expect("reopen");
    assert_eq!(kb_bytes(pool.shard_engine(0)), live);
}

// ---------------------------------------------------------------------------
// 3. Lazy recovery: the WAL tail decides what materializes
// ---------------------------------------------------------------------------

/// Recovery deserializes only the partitions the WAL tail touches; the
/// rest stay in the segment store until a query pulls them in — and both
/// paths land on the same bytes as a fully-loaded reference.
#[test]
fn recovery_materializes_only_wal_touched_partitions() {
    const ATTRS: u32 = 6;
    const N: usize = 160;
    let dir = TmpDir::new("lazy");
    let config = segmented(0, 0);
    let oracle = PlainOracle::from_columns(columns(ATTRS as usize, N, 0, 9));
    let full_state = {
        let (mut durable, _) =
            DurableEngine::<Predicate>::open_with_crash(&dir.0, config, CrashInjector::disabled())
                .expect("open");
        for a in 0..ATTRS {
            durable.init_attr(a, N).expect("init");
        }
        durable.checkpoint().expect("flush all partitions");
        // Post-checkpoint WAL tail touches attr 0 only.
        let mut rng = StdRng::seed_from_u64(3);
        durable
            .try_select(&oracle, &Predicate::cmp(0, ComparisonOp::Lt, 300), &mut rng)
            .expect("select");
        kb_bytes(durable.engine())
    };

    let (mut durable, report) =
        DurableEngine::<Predicate>::open_with_crash(&dir.0, config, CrashInjector::disabled())
            .expect("reopen");
    assert!(report.segments_live >= 1, "segment store must be live");
    assert_eq!(
        report.partitions_loaded, 1,
        "replay must materialize only the WAL-touched partition"
    );
    let mut unloaded = durable.unloaded_attrs();
    unloaded.sort_unstable();
    assert_eq!(
        unloaded,
        (1..ATTRS).collect::<Vec<_>>(),
        "untouched partitions stay in the segment store"
    );

    // A query against a lazy partition materializes exactly that one.
    let mut rng = StdRng::seed_from_u64(4);
    let sel = durable
        .try_select(&oracle, &Predicate::cmp(3, ComparisonOp::Lt, 700), &mut rng)
        .expect("lazy select");
    assert_eq!(
        sel.sorted(),
        oracle.expected_select(&Predicate::cmp(3, ComparisonOp::Lt, 700))
    );
    assert!(
        !durable.unloaded_attrs().contains(&3),
        "queried partition must be materialized"
    );
    assert!(
        durable.unloaded_attrs().contains(&5),
        "unqueried partition must stay lazy"
    );

    // Full materialization equals the pre-shutdown state plus the one
    // refinement the lazy select above committed to the WAL.
    durable.ensure_all_loaded().expect("materialize all");
    assert!(durable.unloaded_attrs().is_empty());
    let expected = kb_bytes(durable.engine());
    assert_ne!(
        expected, full_state,
        "the lazy select must have refined attr 3"
    );
    drop(durable);
    let mut check =
        DurableEngine::<Predicate>::open_with_crash(&dir.0, config, CrashInjector::disabled())
            .expect("fresh reopen")
            .0;
    check.ensure_all_loaded().expect("materialize all");
    assert_eq!(kb_bytes(check.engine()), expected);
}

// ---------------------------------------------------------------------------
// 4. Compaction
// ---------------------------------------------------------------------------

/// The post-checkpoint compaction keeps the live set bounded by the
/// threshold and preserves the recovered bytes exactly.
#[test]
fn compaction_bounds_live_segments_and_preserves_state() {
    let dir = TmpDir::new("compact");
    let config = segmented(3, 2);
    let run = drive(&dir, 23, config, CrashInjector::disabled());
    assert!(!run.crashed);
    let manifest = read_segment_manifest(real_fs().as_ref(), &dir.0)
        .expect("manifest reads")
        .expect("rotation must have flushed segments");
    assert!(
        manifest.segments.len() <= 2,
        "threshold-2 compaction must fold the live set, got {:?}",
        manifest.segments
    );
    // Folded files are really gone from the directory.
    for id in 0..manifest.next_segment_id {
        let on_disk = dir.0.join(segment_file_name(id)).exists();
        assert_eq!(
            on_disk,
            manifest.segments.contains(&id),
            "segment {id}: disk presence must match the manifest"
        );
    }
    let (recovered, _) = recover(&dir, config);
    assert_eq!(recovered, run.live, "compaction altered recovered state");
}

/// Compaction racing live queries and group commits on every shard: each
/// select still answers exactly, and the folded store recovers the same
/// bytes the engines held. `PRKB_SHARDS` sizes the pool (CI sweeps 1, 8).
#[test]
fn compaction_races_concurrent_queries_without_divergence() {
    let shards: usize = std::env::var("PRKB_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&s| s > 0)
        .unwrap_or(8);
    const ATTRS: u32 = 8;
    const N: usize = 140;
    let dir = TmpDir::new("race");
    let config = EngineConfig {
        checkpoint_wal_records: 0,
        checkpoint_wal_bytes: 0,
        compact_segment_threshold: 0, // explicit compaction only
        ..EngineConfig::default()
    };
    let oracle = Arc::new(PlainOracle::from_columns(columns(ATTRS as usize, N, 0, 31)));
    let mut pool = ShardedDurablePool::<Predicate>::open_with_crash(
        &dir.0,
        config,
        ShardMap::new(shards),
        CrashInjector::disabled(),
    )
    .expect("create");
    let map = pool.map();
    for a in 0..ATTRS {
        pool.init_attr(a, N).expect("init");
    }
    let mut owned: Vec<Vec<u32>> = vec![Vec::new(); map.shards()];
    for a in 0..ATTRS {
        owned[map.shard_of(a)].push(a);
    }
    let (_, parts) = pool.into_parts();
    let (engines, committers): (Vec<_>, Vec<_>) = parts
        .into_iter()
        .map(|(e, c)| (Arc::new(Mutex::new(e)), Arc::new(c)))
        .unzip();

    let mut handles = Vec::new();
    for (sid, attrs) in owned.iter().enumerate() {
        if attrs.is_empty() {
            continue;
        }
        let engine = Arc::clone(&engines[sid]);
        let committer = Arc::clone(&committers[sid]);
        let oracle = Arc::clone(&oracle);
        let attrs = attrs.clone();
        handles.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(sid as u64 + 17);
            for i in 0..12u64 {
                let attr = attrs[(i as usize) % attrs.len()];
                let bound = rng.gen_range(100..900u64);
                let pred = Predicate::cmp(attr, ComparisonOp::Lt, bound);
                let ticket = {
                    let mut engine = engine.lock().expect("engine lock");
                    let sel = engine
                        .try_select(&*oracle, &pred, &mut rng)
                        .expect("select");
                    assert_eq!(
                        sel.sorted(),
                        oracle.expected_select(&pred),
                        "query diverged while compaction raced"
                    );
                    let entries: Vec<TxnEntry<Predicate>> = engine
                        .take_ops()
                        .into_iter()
                        .map(|(attr, op)| TxnEntry::Op { attr, op })
                        .collect();
                    committer.enqueue(encode_txn(&entries))
                };
                committer.wait_durable(ticket).expect("durable ack");
                if i % 3 == 2 {
                    let mut engine = engine.lock().expect("engine lock");
                    committer.checkpoint(&mut engine).expect("checkpoint");
                }
            }
        }));
    }
    // The racing folder: repeatedly compacts every shard while the query
    // threads checkpoint fresh segments into the live sets.
    let compactors: Vec<_> = committers.iter().map(Arc::clone).collect();
    let folder = std::thread::spawn(move || {
        for _ in 0..24 {
            for c in &compactors {
                c.compact().expect("compaction must not fail mid-race");
            }
            std::thread::yield_now();
        }
    });
    for h in handles {
        h.join().expect("query thread");
    }
    folder.join().expect("folder thread");
    for c in &committers {
        c.flush().expect("drain");
    }
    let live: Vec<Vec<Vec<u8>>> = engines
        .iter()
        .map(|e| kb_bytes(&e.lock().expect("engine lock")))
        .collect();
    drop(committers);
    drop(engines);

    let pool = ShardedDurablePool::<Predicate>::open_with_crash(
        &dir.0,
        config,
        ShardMap::new(shards),
        CrashInjector::disabled(),
    )
    .expect("reopen after race");
    for (sid, want) in live.iter().enumerate() {
        let engine = pool.shard_engine(sid);
        for attr in engine.attrs().collect::<Vec<_>>() {
            engine
                .knowledge(attr)
                .expect("attr indexed")
                .check_invariants();
        }
        assert_eq!(&kb_bytes(engine), want, "shard {sid} diverged after race");
    }
}

// ---------------------------------------------------------------------------
// 5. v1 migration
// ---------------------------------------------------------------------------

/// A directory written by the last v1 (monolithic) checkpoint encoder — the
/// committed fixture is this file's `drive` at seed 19, rotating every 4
/// records — migrates on first open: `checkpoint.bin` becomes segment 0,
/// the manifest takes over at the checkpoint's epoch, the WAL replays on
/// top, and the recovered bytes equal the same workload driven straight
/// into a segment store.
#[test]
fn v1_checkpoint_migrates_into_segment_store() {
    let config = EngineConfig {
        checkpoint_wal_records: 4,
        checkpoint_wal_bytes: 0,
        ..EngineConfig::default()
    };
    let dir = TmpDir::new("migrate");
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v1_checkpoint");
    for entry in std::fs::read_dir(fixture).expect("fixture dir") {
        let path = entry.expect("entry").path();
        std::fs::copy(&path, dir.0.join(path.file_name().expect("file name"))).expect("copy");
    }
    let twin = TmpDir::new("migrate-twin");
    let run = drive(&twin, 19, config, CrashInjector::disabled());
    assert!(!run.crashed);

    let (recovered, report) = recover(&dir, config);
    assert_eq!(recovered, run.live, "migration altered the recovered KB");
    assert_eq!(report.epoch, 4, "the manifest inherits the v1 epoch");
    assert!(report.records_replayed > 0, "the v1 WAL tail replays");
    assert!(
        report.segments_live >= 1,
        "migration must publish a segment"
    );
    assert!(
        !dir.0.join("checkpoint.bin").exists(),
        "the v1 checkpoint must be retired after migration"
    );
    assert!(
        dir.0.join(SEGMENT_MANIFEST_FILE).exists(),
        "the segment manifest must take over"
    );
    // The migrated store keeps working: flush a delta on top of segment 0.
    let (mut durable, _) =
        DurableEngine::<Predicate>::open_with_crash(&dir.0, config, CrashInjector::disabled())
            .expect("reopen migrated");
    durable.ensure_all_loaded().expect("materialize");
    durable.checkpoint().expect("post-migration checkpoint");
}

// ---------------------------------------------------------------------------
// 6. Sharded segment-hook sweep
// ---------------------------------------------------------------------------

const POOL_ATTRS: u32 = 5;
const POOL_N: usize = 160;

fn pool_oracle() -> PlainOracle {
    PlainOracle::from_columns(columns(POOL_ATTRS as usize, POOL_N, 0, 0xC0FFEE))
}

fn commit_pool(
    committer: &prkb_core::durability::ShardCommitter<Predicate>,
    engine: &mut PrkbEngine<Predicate>,
) -> Result<(), DurableError> {
    let entries: Vec<TxnEntry<Predicate>> = engine
        .take_ops()
        .into_iter()
        .map(|(attr, op)| TxnEntry::Op { attr, op })
        .collect();
    let ticket = committer.enqueue(encode_txn(&entries));
    committer.wait_durable(ticket).map(|_| ())
}

struct PoolRun {
    acked: Vec<Vec<Vec<u8>>>,
    live: Vec<Vec<Vec<u8>>>,
    crashed: bool,
}

fn drive_pool(dir: &TmpDir, config: EngineConfig, crash: CrashInjector, shards: usize) -> PoolRun {
    drive_pool_with_fs(dir, config, crash, shards, real_fs())
        .expect("the real fs cannot fail the open of a fresh pool")
}

/// Pool twin of [`drive_with_fs`]: `None` when the fault killed the open.
fn drive_pool_with_fs(
    dir: &TmpDir,
    config: EngineConfig,
    crash: CrashInjector,
    shards: usize,
    fs: Arc<dyn StorageFs>,
) -> Option<PoolRun> {
    let oracle = pool_oracle();
    let mut pool = match ShardedDurablePool::<Predicate>::open_with_storage(
        &dir.0,
        config,
        ShardMap::new(shards),
        crash,
        fs,
    ) {
        Ok(p) => p,
        Err(_) => return None,
    };
    let map = pool.map();
    let mut acked: Vec<Vec<Vec<u8>>> = (0..map.shards())
        .map(|s| kb_bytes(pool.shard_engine(s)))
        .collect();
    for a in 0..POOL_ATTRS {
        let sid = map.shard_of(a);
        if pool.init_attr(a, POOL_N).is_err() {
            let (_, parts) = pool.into_parts();
            return Some(PoolRun {
                live: parts.iter().map(|(e, _)| kb_bytes(e)).collect(),
                acked,
                crashed: true,
            });
        }
        acked[sid] = kb_bytes(pool.shard_engine(sid));
    }
    let (_, mut parts) = pool.into_parts();
    let finish = |parts: &[(
        PrkbEngine<Predicate>,
        prkb_core::durability::ShardCommitter<Predicate>,
    )],
                  acked: Vec<Vec<Vec<u8>>>,
                  crashed: bool| PoolRun {
        live: parts.iter().map(|(e, _)| kb_bytes(e)).collect(),
        acked,
        crashed,
    };
    for round in 0..24u64 {
        let attr = (round % u64::from(POOL_ATTRS)) as u32;
        let sid = map.shard_of(attr);
        let mut rng = StdRng::seed_from_u64(round.wrapping_mul(0x9E37_79B9) + 1);
        let lo = (round * 37) % 700;
        let hi = lo + 120;
        let (engine, committer) = &mut parts[sid];
        let pred = if round % 3 == 0 {
            Predicate::between(attr, lo, hi)
        } else {
            Predicate::cmp(attr, ComparisonOp::Lt, hi)
        };
        engine
            .try_select(&oracle, &pred, &mut rng)
            .expect("plain selects cannot hit storage");
        if commit_pool(committer, engine).is_err() {
            return Some(finish(&parts, acked, true));
        }
        acked[sid] = kb_bytes(engine);
        if committer.wants_checkpoint(&config) && committer.checkpoint(engine).is_err() {
            return Some(finish(&parts, acked, true));
        }
    }
    Some(finish(&parts, acked, false))
}

fn recover_pool(dir: &TmpDir, config: EngineConfig, requested: usize) -> Vec<Vec<Vec<u8>>> {
    let pool = ShardedDurablePool::<Predicate>::open_with_crash(
        &dir.0,
        config,
        ShardMap::new(requested),
        CrashInjector::disabled(),
    )
    .expect("recovery must open after a crash");
    (0..pool.map().shards())
        .map(|s| {
            let engine = pool.shard_engine(s);
            for attr in engine.attrs().collect::<Vec<_>>() {
                engine
                    .knowledge(attr)
                    .expect("attr indexed")
                    .check_invariants();
            }
            kb_bytes(engine)
        })
        .collect()
}

/// Per-shard replay equivalence: every segment hook, on pools of 1 and 8
/// shards.
/// One shard's segment-flush crash never bleeds into another's history.
#[test]
fn sharded_segment_crash_sweep_recovers_committed_prefix_per_shard() {
    for shards in [1usize, 8] {
        for point in CrashPoint::SEGMENT_HOOKS {
            for nth in [1u64, 2] {
                let dir = TmpDir::new("shardseg");
                let config = segmented(4, 2);
                let run = drive_pool(&dir, config, CrashInjector::at_nth(point, nth), shards);
                let recovered = recover_pool(&dir, config, shards);
                assert_eq!(
                    recovered.len(),
                    run.live.len(),
                    "{point}:{nth}: shard count"
                );
                for (sid, rec) in recovered.iter().enumerate() {
                    if run.crashed {
                        assert!(
                            *rec == run.acked[sid] || *rec == run.live[sid],
                            "{shards} shards, {point}:{nth}, shard {sid}: recovered state \
                             is neither the acknowledged prefix nor the in-flight state"
                        );
                    } else {
                        assert_eq!(
                            *rec, run.live[sid],
                            "{shards} shards, {point}:{nth}, shard {sid}: clean run must \
                             recover final state"
                        );
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 7. Storage faults against the segmented store
// ---------------------------------------------------------------------------

/// Seeded EIO/ENOSPC/short-write faults over the whole segmented write
/// path: every run either finishes clean (recovery == live) or stops at a
/// clean error with the acknowledged-or-in-flight state recoverable over
/// the real fs. Segment publishes and manifest swaps are atomic renames,
/// so a failed rotation never costs the previous checkpoint.
#[test]
fn seeded_io_fault_sweep_segmented_store_never_loses_a_durable_ack() {
    // Threshold 2 keeps compaction in the faulted path too.
    let config = segmented(4, 2);
    for seed in 1..=10u64 {
        let dir = TmpDir::new("iofault");
        let faults = FaultFs::seeded(real_fs(), seed);
        let run = drive_with_fs(
            &dir,
            seed,
            config,
            CrashInjector::disabled(),
            faults.handle(),
        );
        let (recovered, _) = recover(&dir, config);
        match run {
            None => {
                // The fault killed the open; nothing was acknowledged.
                assert!(
                    faults.injected() >= 1,
                    "seed {seed}: open failed without an injected fault"
                );
            }
            Some(run) if run.crashed => {
                assert!(
                    recovered == run.acked || recovered == run.live,
                    "seed {seed}: recovered segmented state is neither the \
                     acknowledged prefix nor the in-flight state"
                );
            }
            Some(run) => {
                assert_eq!(
                    recovered, run.live,
                    "seed {seed}: clean run must recover its final state"
                );
            }
        }
    }
}

/// CI hook: `PRKB_IO_FAULT_SEED=<n>` arms the injector over the segmented
/// sharded pool, `PRKB_SHARDS` sizes it (the `lsm` job fans seeds 1–4 over
/// shards 1 and 8). Unset, the run is clean and replay equality still pins.
#[test]
fn env_driven_segmented_storage_fault_recovers() {
    let shards: usize = std::env::var("PRKB_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&s| s > 0)
        .unwrap_or(4);
    let dir = TmpDir::new("envio");
    let config = segmented(4, 2);
    let fs: Arc<dyn StorageFs> = match FaultFs::from_env(real_fs()) {
        Some(faults) => faults.handle(),
        None => real_fs(),
    };
    let run = drive_pool_with_fs(&dir, config, CrashInjector::disabled(), shards, fs);
    let recovered = recover_pool(&dir, config, shards);
    let Some(run) = run else {
        return; // fault at pool creation: clean error, nothing acknowledged
    };
    for (sid, rec) in recovered.iter().enumerate() {
        if run.crashed {
            assert!(
                *rec == run.acked[sid] || *rec == run.live[sid],
                "shard {sid}: recovered state diverged under env-armed I/O faults"
            );
        } else {
            assert_eq!(
                *rec, run.live[sid],
                "shard {sid}: clean run must recover final state"
            );
        }
    }
}

/// Sharded twin of the env hook above: `PRKB_CRASH_POINT` arms the
/// injector, `PRKB_SHARDS` sizes the pool.
#[test]
fn env_driven_segmented_sharded_crash_recovers() {
    let injector = CrashInjector::from_env();
    let shards: usize = std::env::var("PRKB_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&s| s > 0)
        .unwrap_or(4);
    let dir = TmpDir::new("envshard");
    let config = segmented(5, 3);
    let run = drive_pool(&dir, config, injector, shards);
    let recovered = recover_pool(&dir, config, shards);
    for (sid, rec) in recovered.iter().enumerate() {
        if run.crashed {
            assert!(
                *rec == run.acked[sid] || *rec == run.live[sid],
                "shard {sid}: recovered state diverged under env-armed crash injection"
            );
        } else {
            assert_eq!(
                *rec, run.live[sid],
                "shard {sid}: clean run must recover final state"
            );
        }
    }
}
