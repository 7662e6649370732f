//! Durability properties of the sharded engine pool (DESIGN.md §13).
//!
//! Pinned guarantees:
//!
//! 1. **Per-shard replay equivalence** — for every injected crash point
//!    (the group-flush boundary included), reopening the pool recovers, on
//!    *every* shard independently, a state that validates and is
//!    byte-identical to that shard's acknowledged prefix or to the prefix
//!    plus the single in-flight operation. One shard's loss never bleeds
//!    into another's history.
//! 2. **Drain semantics** — `flush()` is the graceful-drain barrier: a
//!    crash at the flush boundary loses only never-acknowledged records; a
//!    clean drain persists everything enqueued.
//! 3. **Manifest pinning** — the shard count chosen at creation survives
//!    reopens under a different requested count, and a corrupt manifest
//!    refuses to open rather than silently re-partitioning.
//! 4. **Group commit under concurrency** — concurrent writers funneling
//!    through one shard's committer all get durable acks and the WAL ends
//!    with exactly one record per committed operation.

use prkb_core::durability::{encode_txn, ShardCommitter, TxnEntry};
use prkb_core::snapshot::{self, WireCodec};
use prkb_core::{
    DurableError, EngineConfig, PrkbEngine, ShardMap, ShardedDurablePool, SpPredicate,
};
use prkb_edbms::durability::{CrashInjector, CrashPoint};
use prkb_edbms::testing::PlainOracle;
use prkb_edbms::{ComparisonOp, Predicate};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
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
            "prkb-shard-durability-{}-{}-{tag}",
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

const ATTRS: u32 = 5;
const N: usize = 160;

fn oracle() -> PlainOracle {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    PlainOracle::from_columns(
        (0..ATTRS)
            .map(|_| (0..N).map(|_| rng.gen_range(0..1_000u64)).collect())
            .collect(),
    )
}

fn kb_bytes<P: SpPredicate + WireCodec>(engine: &PrkbEngine<P>) -> Vec<Vec<u8>> {
    let mut attrs: Vec<_> = engine.attrs().collect();
    attrs.sort_unstable();
    attrs
        .iter()
        .map(|&a| snapshot::save(engine.knowledge(a).expect("attr indexed")))
        .collect()
}

fn rotate_every(records: u64) -> EngineConfig {
    EngineConfig {
        checkpoint_wal_records: records,
        checkpoint_wal_bytes: 0,
        ..EngineConfig::default()
    }
}

/// One committed operation: drain the journaled ops into a single WAL
/// transaction and redeem the ticket — the exact discipline the session
/// scheduler follows (enqueue under the shard lock, wait after).
fn commit(
    committer: &ShardCommitter<Predicate>,
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

/// Per-shard byte states after a crash-armed run.
struct PoolRun {
    /// `acked[sid]` = shard `sid`'s state at its last acknowledged commit.
    acked: Vec<Vec<Vec<u8>>>,
    /// `live[sid]` = shard `sid`'s in-memory state when the run stopped
    /// (equals `acked[sid]` unless the crash hit mid-operation there).
    live: Vec<Vec<Vec<u8>>>,
    crashed: bool,
}

/// Drives a deterministic mixed workload (per-attribute selects and
/// BETWEENs, periodic all-shard deletes, policy-driven checkpoints) against
/// a crash-armed pool, stopping at the first durability error.
fn drive_pool(dir: &TmpDir, config: EngineConfig, crash: CrashInjector, shards: usize) -> PoolRun {
    let oracle = oracle();
    let mut pool = ShardedDurablePool::<Predicate>::open_with_crash(
        &dir.0,
        config,
        ShardMap::new(shards),
        crash,
    )
    .expect("fresh pool opens (no crash hooks fire during creation)");
    let map = pool.map();
    let mut acked: Vec<Vec<Vec<u8>>> = (0..map.shards())
        .map(|s| kb_bytes(pool.shard_engine(s)))
        .collect();
    for a in 0..ATTRS {
        let sid = map.shard_of(a);
        if pool.init_attr(a, N).is_err() {
            let (_, parts) = pool.into_parts();
            return PoolRun {
                live: parts.iter().map(|(e, _)| kb_bytes(e)).collect(),
                acked,
                crashed: true,
            };
        }
        acked[sid] = kb_bytes(pool.shard_engine(sid));
    }
    let (_, mut parts) = pool.into_parts();

    let finish = |parts: &[(PrkbEngine<Predicate>, ShardCommitter<Predicate>)],
                  acked: Vec<Vec<Vec<u8>>>,
                  crashed: bool| PoolRun {
        live: parts.iter().map(|(e, _)| kb_bytes(e)).collect(),
        acked,
        crashed,
    };

    for round in 0..24u64 {
        let attr = (round % u64::from(ATTRS)) as u32;
        let sid = map.shard_of(attr);
        let mut rng = StdRng::seed_from_u64(round.wrapping_mul(0x9E37_79B9) + 1);
        let lo = (round * 37) % 700;
        let hi = lo + 120;
        {
            let (engine, committer) = &mut parts[sid];
            let pred = if round % 3 == 0 {
                Predicate::between(attr, lo, hi)
            } else {
                Predicate::cmp(attr, ComparisonOp::Lt, hi)
            };
            engine
                .try_select(&oracle, &pred, &mut rng)
                .expect("plain selects cannot hit storage");
            if commit(committer, engine).is_err() {
                return finish(&parts, acked, true);
            }
            acked[sid] = kb_bytes(engine);
            if committer.wants_checkpoint(&config) && committer.checkpoint(engine).is_err() {
                return finish(&parts, acked, true);
            }
        }
        // Whole-pool footprint every few rounds: a delete touches every
        // shard, committed shard by shard (ascending, like the scheduler).
        if round % 6 == 5 {
            let victim = (round % 40) as u32;
            for sid in 0..parts.len() {
                let (engine, committer) = &mut parts[sid];
                engine.delete(victim);
                if commit(committer, engine).is_err() {
                    return finish(&parts, acked, true);
                }
                acked[sid] = kb_bytes(engine);
            }
        }
    }
    finish(&parts, acked, false)
}

/// Reopens the pool with injection disabled; every shard must validate.
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

// ---------------------------------------------------------------------------
// 1. Per-shard replay equivalence across every crash point
// ---------------------------------------------------------------------------

#[test]
fn sharded_crash_sweep_recovers_committed_prefix_per_shard() {
    for point in CrashPoint::ALL {
        for nth in [1u64, 2, 5] {
            let dir = TmpDir::new("sweep");
            let config = rotate_every(4);
            let run = drive_pool(&dir, config, CrashInjector::at_nth(point, nth), 4);
            let recovered = recover_pool(&dir, config, 4);
            assert_eq!(
                recovered.len(),
                run.live.len(),
                "{point}:{nth}: shard count"
            );
            for (sid, rec) in recovered.iter().enumerate() {
                if run.crashed {
                    assert!(
                        *rec == run.acked[sid] || *rec == run.live[sid],
                        "{point}:{nth} shard {sid}: recovered state is neither the \
                         acknowledged prefix nor the in-flight state"
                    );
                } else {
                    assert_eq!(
                        *rec, run.live[sid],
                        "{point}:{nth} shard {sid}: clean run must recover final state"
                    );
                }
            }
        }
    }
}

/// CI hook: `PRKB_CRASH_POINT=<name>[:nth]` arms the injector exactly like
/// production would. Unlike the `DurableEngine` twin in `durability.rs`,
/// this drives the *group-commit* path, so the `before_group_flush` sweep
/// entry actually fires here.
#[test]
fn env_driven_sharded_crash_recovers() {
    let injector = CrashInjector::from_env();
    let dir = TmpDir::new("env");
    // Compaction at two live segments puts every rotation hook, segment
    // retirement included, on this workload's path.
    let config = EngineConfig {
        compact_segment_threshold: 2,
        ..rotate_every(5)
    };
    let run = drive_pool(&dir, config, injector, 4);
    assert!(
        run.crashed || !env_crash_at_first_hit(),
        "the armed crash point never fired"
    );
    let recovered = recover_pool(&dir, config, 4);
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

/// Whether `PRKB_CRASH_POINT` schedules its crash at the first hit of the
/// hook. The env-driven workload reaches every hook at least once, so such
/// a crash must fire — a sweep entry that injects nothing is a failure.
fn env_crash_at_first_hit() -> bool {
    std::env::var("PRKB_CRASH_POINT")
        .is_ok_and(|spec| spec.split_once(':').map_or("1", |(_, nth)| nth).trim() == "1")
}

// ---------------------------------------------------------------------------
// 2. Drain semantics at the flush boundary
// ---------------------------------------------------------------------------

/// Group-commit config under which nothing flushes on its own: the driver
/// below never redeems a ticket with `wait_durable`, and only waiters (or
/// an explicit `flush()`) ever lead a flush.
fn lazy_group() -> EngineConfig {
    EngineConfig {
        checkpoint_wal_records: 0,
        checkpoint_wal_bytes: 0,
        group_commit_records: 1_000,
        group_commit_max_wait_us: 60_000_000,
        ..EngineConfig::default()
    }
}

/// Runs two un-awaited commits (pending, never acknowledged), then drains.
/// `crash_at_drain` arms the injector for the first *drain* flush — the
/// init flushes before it are counted off so the hook lands exactly on the
/// flush boundary the shutdown path crosses.
fn drive_drain(dir: &TmpDir, crash_at_drain: bool) -> (Vec<Vec<Vec<u8>>>, bool) {
    let config = lazy_group();
    // Nothing is ever awaited, so nothing flushes until `flush()` forces
    // it: inits flush once per shard that owns attributes, and the first
    // drain flush is the firing right after those.
    let map = ShardMap::new(2);
    let init_flushes = (0..ATTRS)
        .map(|a| map.shard_of(a))
        .collect::<std::collections::HashSet<_>>()
        .len() as u64;
    let crash = if crash_at_drain {
        CrashInjector::at_nth(CrashPoint::BeforeGroupFlush, init_flushes + 1)
    } else {
        CrashInjector::disabled()
    };
    let oracle = oracle();
    let pool = ShardedDurablePool::<Predicate>::open_with_crash(&dir.0, config, map, crash)
        .expect("fresh pool opens");
    let map = pool.map();
    let (_, mut parts) = pool.into_parts();
    for a in 0..ATTRS {
        let (engine, committer) = &mut parts[map.shard_of(a)];
        engine.init_attr(a, N);
        engine.set_recording(true);
        committer.enqueue(encode_txn::<Predicate>(&[TxnEntry::Init {
            attr: a,
            n: N as u64,
        }]));
    }
    for (_, committer) in &parts {
        committer.flush().expect("init flushes are not armed");
    }
    let post_init: Vec<Vec<Vec<u8>>> = parts.iter().map(|(e, _)| kb_bytes(e)).collect();
    // Two mutations on different shards, enqueued but never awaited:
    // acknowledged to nobody, exactly what a drain may lose.
    let mut rng = StdRng::seed_from_u64(9);
    for attr in [0u32, 1] {
        let sid = map.shard_of(attr);
        let (engine, committer) = &mut parts[sid];
        engine
            .try_select(
                &oracle,
                &Predicate::cmp(attr, ComparisonOp::Lt, 500),
                &mut rng,
            )
            .expect("select");
        let entries: Vec<TxnEntry<Predicate>> = engine
            .take_ops()
            .into_iter()
            .map(|(attr, op)| TxnEntry::Op { attr, op })
            .collect();
        committer.enqueue(encode_txn(&entries));
    }
    let mut drain_failed = false;
    for (_, committer) in &parts {
        if committer.flush().is_err() {
            drain_failed = true;
            break;
        }
    }
    (post_init, drain_failed)
}

#[test]
fn clean_drain_persists_every_pending_record() {
    let dir = TmpDir::new("drain-clean");
    let (_, failed) = drive_drain(&dir, false);
    assert!(!failed, "unarmed drain must flush cleanly");
    let recovered = recover_pool(&dir, lazy_group(), 2);
    // Both pending selects must have survived the drain: the recovered
    // shards hold more than the post-init state (knowledge was refined).
    let dir2 = TmpDir::new("drain-ref");
    let (post_init, _) = drive_drain(&dir2, false);
    assert_ne!(
        recovered, post_init,
        "drained records must be visible after reopen"
    );
}

#[test]
fn drain_crash_at_flush_boundary_loses_only_unacked_records() {
    let dir = TmpDir::new("drain-crash");
    let (post_init, failed) = drive_drain(&dir, true);
    assert!(failed, "armed drain flush must report the failure");
    let recovered = recover_pool(&dir, lazy_group(), 2);
    // Nothing past the last acknowledged state (post-init) may appear, and
    // nothing acknowledged may be missing: the recovered pool is exactly
    // the acked prefix on every shard.
    assert_eq!(
        recovered, post_init,
        "crash at the drain boundary must recover exactly the acked prefix"
    );
}

// ---------------------------------------------------------------------------
// 3. Manifest pinning
// ---------------------------------------------------------------------------

#[test]
fn manifest_pins_shard_count_across_reopens() {
    let dir = TmpDir::new("manifest");
    let config = EngineConfig::default();
    {
        let mut pool = ShardedDurablePool::<Predicate>::open_with_crash(
            &dir.0,
            config,
            ShardMap::new(4),
            CrashInjector::disabled(),
        )
        .expect("create");
        for a in 0..ATTRS {
            pool.init_attr(a, N).expect("init");
        }
    }
    // Reopen under a different requested count: the manifest wins, so
    // every attribute still routes to the WAL holding its history.
    let pool = ShardedDurablePool::<Predicate>::open_with_crash(
        &dir.0,
        config,
        ShardMap::new(1),
        CrashInjector::disabled(),
    )
    .expect("reopen");
    assert_eq!(pool.map().shards(), 4, "manifest shard count wins");
    let recovered_attrs: usize = (0..4).map(|s| pool.shard_engine(s).attrs().count()).sum();
    assert_eq!(recovered_attrs, ATTRS as usize, "every attribute recovered");
    drop(pool);

    // A corrupt manifest must refuse to open, not re-partition.
    let path = dir.0.join("manifest.bin");
    let mut bytes = std::fs::read(&path).expect("manifest exists");
    bytes[6] ^= 0xFF;
    std::fs::write(&path, &bytes).expect("corrupt");
    let err = ShardedDurablePool::<Predicate>::open_with_crash(
        &dir.0,
        config,
        ShardMap::new(4),
        CrashInjector::disabled(),
    )
    .expect_err("corrupt manifest must not open");
    assert!(
        matches!(err, DurableError::CorruptManifest(_)),
        "got {err:?}"
    );
}

// ---------------------------------------------------------------------------
// 4. Group commit under concurrency
// ---------------------------------------------------------------------------

#[test]
fn concurrent_writers_all_get_durable_acks_and_one_record_per_commit() {
    let dir = TmpDir::new("writers");
    let config = EngineConfig {
        checkpoint_wal_records: 0,
        checkpoint_wal_bytes: 0,
        group_commit_records: 8,
        group_commit_max_wait_us: 2_000,
        ..EngineConfig::default()
    };
    let oracle = Arc::new(oracle());
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
    let (engine, committer) = parts.pop().expect("one shard");
    let engine = Arc::new(Mutex::new(engine));
    let committer = Arc::new(committer);

    const WRITERS: u32 = 4;
    const OPS: u64 = 10;
    let mut handles = Vec::new();
    for w in 0..WRITERS {
        let engine = Arc::clone(&engine);
        let committer = Arc::clone(&committer);
        let oracle = Arc::clone(&oracle);
        handles.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(u64::from(w) + 77);
            for i in 0..OPS {
                let attr = (u64::from(w) + i) % u64::from(ATTRS);
                let bound = rng.gen_range(0..1_000u64);
                let pred = Predicate::cmp(attr as u32, ComparisonOp::Lt, bound);
                // The scheduler's discipline in miniature: mutate and
                // enqueue under the shard lock, wait after releasing it.
                let ticket = {
                    let mut engine = engine.lock().expect("engine lock");
                    engine
                        .try_select(&*oracle, &pred, &mut rng)
                        .expect("select");
                    let entries: Vec<TxnEntry<Predicate>> = engine
                        .take_ops()
                        .into_iter()
                        .map(|(attr, op)| TxnEntry::Op { attr, op })
                        .collect();
                    committer.enqueue(encode_txn(&entries))
                };
                committer.wait_durable(ticket).expect("durable ack");
            }
        }));
    }
    for h in handles {
        h.join().expect("writer");
    }
    committer.flush().expect("drain");
    assert_eq!(
        committer.wal_records(),
        u64::from(ATTRS) + u64::from(WRITERS) * OPS,
        "exactly one WAL record per committed operation"
    );

    let live = kb_bytes(&engine.lock().expect("engine lock"));
    drop(committer);
    let recovered = recover_pool(&dir, config, 1);
    assert_eq!(recovered, vec![live], "reopen recovers the concurrent run");
}
