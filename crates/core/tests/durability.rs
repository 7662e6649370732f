//! Durability properties of the PRKB (DESIGN.md §10).
//!
//! Pinned guarantees:
//!
//! 1. **Replay equivalence** — for every injected crash point, reopening the
//!    directory recovers an engine that passes `validate()` and is
//!    byte-identical to one rebuilt from the committed-operation prefix: no
//!    acknowledged refinement is ever lost, and at most the single
//!    in-flight (never-acknowledged) operation may be missing.
//! 2. **Torn tail vs mid-log corruption** — a partial/checksum-failing
//!    *final* WAL record is silently discarded and the engine opens; a bad
//!    record with valid data after it refuses to open, as does a damaged
//!    checkpoint.
//! 3. **Atomic checkpoint rotation** — a crash at any boundary of the
//!    rotation (segment write, fsync, rename, manifest swap, WAL and
//!    segment retirement) still recovers exactly the live committed state.
//!
//! The v1 monolithic `checkpoint.bin` is only migration input now; its
//! corruption case runs against a committed v1 fixture.

use prkb_core::durability::{DurableEngine, DurableError, RecoveryReport};
use prkb_core::snapshot::{self, WireCodec};
use prkb_core::{EngineConfig, MdUpdatePolicy, PrkbEngine, SpPredicate};
use prkb_edbms::durability::{CrashInjector, CrashPoint, DurabilityError, TailStatus};
use prkb_edbms::testing::PlainOracle;
use prkb_edbms::{ComparisonOp, Predicate};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh scratch directory (unique per test invocation, removed by the
/// guard on drop so repeated `cargo test` runs don't accrete state).
struct TmpDir(PathBuf);

impl TmpDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "prkb-durability-{}-{}-{tag}",
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

fn columns(n: usize, extra: usize, seed: u64) -> Vec<Vec<u64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..2)
        .map(|_| (0..n + extra).map(|_| rng.gen_range(0..1_000u64)).collect())
        .collect()
}

/// Mixed workload over everything that can mutate knowledge: comparisons,
/// BETWEENs, PRKB(MD), PRKB(SD+), conjunctions, inserts, deletes.
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

/// Per-step RNG seed: both the reference and the durable engine derive the
/// exact same stream for step `i`, so their committed histories are
/// byte-identical by construction.
fn step_rng(seed: u64, i: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn no_rotation() -> EngineConfig {
    EngineConfig {
        checkpoint_wal_records: 0,
        checkpoint_wal_bytes: 0,
        ..EngineConfig::default()
    }
}

fn rotate_every(records: u64) -> EngineConfig {
    EngineConfig {
        checkpoint_wal_records: records,
        checkpoint_wal_bytes: 0,
        ..EngineConfig::default()
    }
}

/// Rotation every `records` plus compaction at two live segments, so every
/// rotation hook — the compaction-only segment retirement included — is
/// reached by one short workload.
fn rotate_and_compact(records: u64) -> EngineConfig {
    EngineConfig {
        compact_segment_threshold: 2,
        ..rotate_every(records)
    }
}

/// Applies one step to a plain (reference) engine. Infallible.
fn apply_ref(
    engine: &mut PrkbEngine<Predicate>,
    oracle: &PlainOracle,
    step: &Step,
    rng: &mut StdRng,
) {
    match step {
        Step::Cmp(p) => {
            engine.select(oracle, p, rng);
        }
        Step::Md(dims) => {
            engine.select_range_md(oracle, dims, rng);
        }
        Step::Sdplus(dims) => {
            engine.select_range_sdplus(oracle, dims, rng);
        }
        Step::Conjunction(ps) => {
            engine.select_conjunction(oracle, ps, rng);
        }
        Step::Insert(t) => {
            engine.insert(oracle, *t);
        }
        Step::Delete(t) => {
            engine.delete(*t);
        }
    }
}

/// Applies one step to a durable engine.
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
    /// `history[r]` = reference state after `r` WAL records were committed
    /// (valid only when rotation is disabled).
    history: Vec<Vec<Vec<u8>>>,
    /// State captured *before* the failing call, i.e. the last acknowledged
    /// state (always valid).
    acked: Vec<Vec<u8>>,
    /// In-memory state right after the crash error (always valid).
    live: Vec<Vec<u8>>,
    /// Whether the injected crash actually fired.
    crashed: bool,
}

/// Drives the workload against a crash-armed durable engine and a plain
/// reference engine in lockstep, stopping at the first storage error.
fn drive(dir: &TmpDir, seed: u64, config: EngineConfig, crash: CrashInjector) -> CrashRun {
    let (n, extra) = (180usize, 3usize);
    let oracle = PlainOracle::from_columns(columns(n, extra, seed));
    let mut reference = PrkbEngine::new(config);
    let (mut durable, _) =
        DurableEngine::open_with_crash(&dir.0, config, crash).expect("fresh dir opens");

    let mut history = vec![kb_bytes(&reference)];
    let mut acked = kb_bytes(&reference);
    for attr in 0..2u32 {
        reference.init_attr(attr, n);
        history.push(kb_bytes(&reference));
        acked.clone_from(&history[history.len() - 2]);
        if durable.init_attr(attr, n).is_err() {
            return CrashRun {
                live: kb_bytes(durable.engine()),
                history,
                acked,
                crashed: true,
            };
        }
    }
    for (i, step) in workload(n, extra, seed ^ 0x77).iter().enumerate() {
        apply_ref(&mut reference, &oracle, step, &mut step_rng(seed, i));
        history.push(kb_bytes(&reference));
        acked = kb_bytes(durable.engine());
        if apply_durable(&mut durable, &oracle, step, &mut step_rng(seed, i)).is_err() {
            return CrashRun {
                live: kb_bytes(durable.engine()),
                history,
                acked,
                crashed: true,
            };
        }
    }
    CrashRun {
        acked: kb_bytes(durable.engine()),
        live: kb_bytes(durable.engine()),
        history,
        crashed: false,
    }
}

/// Reopens with injection disabled, materializes every lazy partition, and
/// returns the recovered byte state and the number of records replayed.
fn recover(dir: &TmpDir, config: EngineConfig) -> (Vec<Vec<u8>>, u64, TailStatus) {
    let (engine, report) = reopen(&dir.0, config);
    for attr in engine.engine().attrs().collect::<Vec<_>>() {
        engine
            .engine()
            .knowledge(attr)
            .expect("attr indexed")
            .check_invariants();
    }
    (
        kb_bytes(engine.engine()),
        report.records_replayed,
        report.tail,
    )
}

/// Reopens `dir` with injection disabled and every partition loaded.
fn reopen(dir: &Path, config: EngineConfig) -> (DurableEngine<Predicate>, RecoveryReport) {
    let (mut engine, report) =
        DurableEngine::<Predicate>::open_with_crash(dir, config, CrashInjector::disabled())
            .expect("recovery must open after a crash");
    engine
        .ensure_all_loaded()
        .expect("segment store must materialize every partition");
    (engine, report)
}

// ---------------------------------------------------------------------------
// 1. Replay equivalence across crash points
// ---------------------------------------------------------------------------

/// Exhaustive WAL-path sweep with rotation disabled: the record count is
/// then exactly the committed-operation count, so the recovered state must
/// be byte-identical to the reference history at index `records_replayed` —
/// the strictest possible replay-equivalence statement.
#[test]
fn wal_crash_sweep_recovers_exact_committed_prefix() {
    for point in [
        CrashPoint::BeforeWalAppend,
        CrashPoint::MidWalAppend,
        CrashPoint::AfterWalAppend,
        CrashPoint::AfterWalSync,
    ] {
        for nth in [1u64, 2, 7, 13] {
            let dir = TmpDir::new("walsweep");
            let run = drive(&dir, 42, no_rotation(), CrashInjector::at_nth(point, nth));
            assert!(run.crashed, "{point}:{nth} never fired");
            let (recovered, replayed, tail) = recover(&dir, no_rotation());
            assert!(
                (replayed as usize) < run.history.len(),
                "{point}:{nth}: replayed {replayed} past history"
            );
            assert_eq!(
                recovered, run.history[replayed as usize],
                "{point}:{nth}: recovered state is not the committed prefix"
            );
            // The last *acknowledged* state is always a prefix of recovery:
            // nothing the caller saw succeed may be lost.
            assert!(
                replayed as usize
                    >= run
                        .history
                        .iter()
                        .position(|h| *h == run.acked)
                        .expect("acked state is on the reference history"),
                "{point}:{nth}: acknowledged records lost"
            );
            if point == CrashPoint::MidWalAppend {
                assert_eq!(
                    tail,
                    TailStatus::TornDiscarded,
                    "{point}:{nth}: torn write must leave a discarded tail"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized sweep over *every* crash point with checkpoint rotation
    /// live: whatever fires wherever, the recovered engine validates and is
    /// byte-identical to the acknowledged state or to the acknowledged
    /// state plus the one in-flight (never-acknowledged) operation.
    fn randomized_crash_recovery_equivalence(
        seed in 0u64..1_000_000,
        point_idx in 0usize..CrashPoint::ALL.len(),
        nth in 1u64..10,
    ) {
        let point = CrashPoint::ALL[point_idx];
        let dir = TmpDir::new("prop");
        let config = rotate_every(5);
        let run = drive(&dir, seed, config, CrashInjector::at_nth(point, nth));
        let (recovered, _, _) = recover(&dir, config);
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

/// Every hook, deterministically: a crash at the first and the third hit
/// of each [`CrashPoint`] recovers the acknowledged state or the state
/// with the one in-flight operation — never anything else.
#[test]
fn every_crash_point_recovers_a_committed_prefix() {
    for point in CrashPoint::ALL {
        for nth in [1u64, 3] {
            let dir = TmpDir::new("allhooks");
            let config = rotate_and_compact(4);
            let run = drive(&dir, 5, config, CrashInjector::at_nth(point, nth));
            assert!(run.crashed || nth > 1, "{point}:{nth} never fired");
            let (recovered, _, _) = recover(&dir, config);
            assert!(
                recovered == run.acked || recovered == run.live,
                "{point}:{nth}: recovered state is not a committed prefix"
            );
        }
    }
}

/// CI hook: `PRKB_CRASH_POINT=<name>[:nth]` arms the injector exactly like
/// production would; the workload must crash-recover (or run clean when
/// unset) under every point the CI matrix sweeps.
#[test]
fn env_driven_crash_point_recovers() {
    let injector = CrashInjector::from_env();
    let armed = injector.is_armed();
    let dir = TmpDir::new("env");
    let config = rotate_and_compact(6);
    let run = drive(&dir, 7, config, injector);
    assert!(
        run.crashed || !env_crash_at_first_hit(),
        "the armed crash point never fired"
    );
    let (recovered, _, _) = recover(&dir, config);
    if run.crashed {
        assert!(
            recovered == run.acked || recovered == run.live,
            "recovered state diverged under env-armed crash injection"
        );
    } else {
        assert_eq!(recovered, run.live, "clean run must recover final state");
        assert!(
            !armed || run.crashed || recovered == run.live,
            "armed injector that never fires must still recover cleanly"
        );
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
// 2. Torn tail vs mid-log corruption
// ---------------------------------------------------------------------------

fn wal_path(dir: &TmpDir, epoch: u64) -> PathBuf {
    dir.0.join(format!("wal.{epoch}.log"))
}

/// Runs a short clean workload with rotation disabled and returns the WAL
/// byte image (epoch 0).
fn clean_run(dir: &TmpDir, seed: u64) -> Vec<u8> {
    let run = drive(dir, seed, no_rotation(), CrashInjector::disabled());
    assert!(!run.crashed);
    std::fs::read(wal_path(dir, 0)).expect("wal exists")
}

#[test]
fn torn_tail_is_discarded_and_engine_opens() {
    let dir = TmpDir::new("torn");
    let bytes = clean_run(&dir, 11);
    // Chop mid-way into the final record.
    std::fs::write(wal_path(&dir, 0), &bytes[..bytes.len() - 3]).expect("write");
    let (engine, report) = DurableEngine::<Predicate>::open_with_crash(
        &dir.0,
        no_rotation(),
        CrashInjector::disabled(),
    )
    .expect("torn tail must not prevent opening");
    assert_eq!(report.tail, TailStatus::TornDiscarded);
    for attr in engine.engine().attrs().collect::<Vec<_>>() {
        engine
            .engine()
            .knowledge(attr)
            .expect("indexed")
            .check_invariants();
    }
}

#[test]
fn tail_bit_flip_is_discarded_but_mid_log_flip_refuses_to_open() {
    let dir = TmpDir::new("flip");
    let good = clean_run(&dir, 13);

    // Bit-flip inside the final record's payload: torn-tail semantics.
    let mut tail_flip = good.clone();
    let at = good.len() - 2;
    tail_flip[at] ^= 0x40;
    std::fs::write(wal_path(&dir, 0), &tail_flip).expect("write");
    let (_, report) = DurableEngine::<Predicate>::open_with_crash(
        &dir.0,
        no_rotation(),
        CrashInjector::disabled(),
    )
    .expect("tail corruption is discarded");
    assert_eq!(report.tail, TailStatus::TornDiscarded);

    // Bit-flip early in the log (valid records follow): hard error.
    let mut mid_flip = good.clone();
    mid_flip[40] ^= 0x01; // inside the first records, far from the tail
    std::fs::write(wal_path(&dir, 0), &mid_flip).expect("write");
    let err = DurableEngine::<Predicate>::open_with_crash(
        &dir.0,
        no_rotation(),
        CrashInjector::disabled(),
    )
    .expect_err("mid-log corruption must refuse to open");
    assert!(
        matches!(
            err,
            DurableError::Storage(DurabilityError::CorruptRecord { .. })
                | DurableError::CorruptWal(_)
        ),
        "unexpected error class: {err}"
    );
}

/// Copies the committed v1 directory (a monolithic `checkpoint.bin` at
/// epoch 4 plus its WAL, written by the last encoder of that format) into
/// `dir`.
fn copy_v1_fixture(dir: &Path) {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v1_checkpoint");
    for entry in std::fs::read_dir(fixture).expect("fixture dir") {
        let path = entry.expect("entry").path();
        std::fs::copy(&path, dir.join(path.file_name().expect("file name"))).expect("copy");
    }
}

#[test]
fn corrupt_checkpoint_refuses_to_open() {
    let dir = TmpDir::new("ckptflip");
    copy_v1_fixture(&dir.0);
    let ckpt = dir.0.join("checkpoint.bin");
    let mut bytes = std::fs::read(&ckpt).expect("fixture checkpoint");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&ckpt, &bytes).expect("write");
    let err = DurableEngine::<Predicate>::open_with_crash(
        &dir.0,
        EngineConfig::default(),
        CrashInjector::disabled(),
    )
    .expect_err("damaged checkpoint must refuse to open");
    assert!(
        matches!(err, DurableError::CorruptCheckpoint(_)),
        "unexpected error class: {err}"
    );
    assert_eq!(
        std::fs::read(&ckpt).expect("kept"),
        bytes,
        "a refused migration must leave the evidence in place"
    );
}

// ---------------------------------------------------------------------------
// 3. Checkpoint rotation
// ---------------------------------------------------------------------------

#[test]
fn checkpoint_rotation_bumps_epoch_and_prunes_wals() {
    let dir = TmpDir::new("rotate");
    let config = rotate_every(4);
    let run = drive(&dir, 19, config, CrashInjector::disabled());
    assert!(!run.crashed);
    let (engine, report) = reopen(&dir.0, config);
    assert!(report.checkpoint_loaded, "rotation must have checkpointed");
    assert!(report.epoch > 0, "rotation must bump the epoch");
    assert!(
        report.records_replayed < 4,
        "rotation must keep the replayed suffix short, got {}",
        report.records_replayed
    );
    assert_eq!(kb_bytes(engine.engine()), run.live);
    // Exactly one WAL file — the active epoch's — survives rotation.
    let wals: Vec<String> = std::fs::read_dir(&dir.0)
        .expect("dir")
        .flatten()
        .filter_map(|e| e.file_name().to_str().map(String::from))
        .filter(|n| n.starts_with("wal."))
        .collect();
    assert_eq!(
        wals,
        vec![format!("wal.{}.log", report.epoch)],
        "stale WALs linger"
    );
}

/// An injected crash at every rotation boundary still recovers the exact
/// live state: before the manifest swap the old segment set + WAL pair is
/// intact; after it the new segment subsumes the old WAL.
#[test]
fn checkpoint_crash_sweep_recovers_live_state() {
    let rotation_hooks = CrashPoint::SEGMENT_HOOKS
        .into_iter()
        .chain([CrashPoint::BeforeWalRetire, CrashPoint::AfterWalRetire]);
    for point in rotation_hooks {
        let dir = TmpDir::new("ckptsweep");
        let config = rotate_and_compact(4);
        let run = drive(&dir, 23, config, CrashInjector::at(point));
        assert!(run.crashed, "{point} never fired");
        let (recovered, _, _) = recover(&dir, config);
        // The record triggering the rotation was appended+fsync'd before the
        // rotation began, so the full live state is durable at every hook.
        assert_eq!(
            recovered, run.live,
            "{point}: rotation crash lost committed state"
        );
    }
}

#[test]
fn poisoned_handle_refuses_work_and_reopen_resumes() {
    let dir = TmpDir::new("poison");
    let config = no_rotation();
    let oracle = PlainOracle::from_columns(columns(64, 0, 29));
    let (mut durable, _) = DurableEngine::open_with_crash(
        &dir.0,
        config,
        CrashInjector::at_nth(CrashPoint::AfterWalAppend, 3),
    )
    .expect("open");
    durable.init_attr(0, 64).expect("init");
    durable.init_attr(1, 64).expect("init");
    let mut rng = StdRng::seed_from_u64(1);
    let p = Predicate::cmp(0, ComparisonOp::Lt, 500);
    let err = durable
        .try_select(&oracle, &p, &mut rng)
        .expect_err("3rd append crashes");
    assert!(matches!(
        err,
        DurableError::Storage(DurabilityError::Crash(_))
    ));
    assert!(durable.is_poisoned());
    assert!(matches!(
        durable.try_select(&oracle, &p, &mut rng),
        Err(DurableError::Poisoned)
    ));
    drop(durable);
    // Reopening resumes from the durable prefix and accepts work again.
    let (mut durable, _) =
        DurableEngine::open_with_crash(&dir.0, config, CrashInjector::disabled()).expect("reopen");
    let sel = durable
        .try_select(&oracle, &p, &mut rng)
        .expect("works again");
    let expected = oracle.expected_select(&p);
    assert_eq!(sel.sorted(), expected);
}

// ---------------------------------------------------------------------------
// 4. Restart continuity and snapshot edge cases (satellite)
// ---------------------------------------------------------------------------

/// Close/reopen mid-history (twice) and keep querying: the durable engine
/// must track a continuously-running reference engine byte for byte.
#[test]
fn restart_continuity_matches_uninterrupted_reference() {
    let (n, extra) = (150usize, 2usize);
    let seed = 31u64;
    let oracle = PlainOracle::from_columns(columns(n, extra, seed));
    let steps = workload(n, extra, seed ^ 0x77);
    let config = rotate_every(5);
    let dir = TmpDir::new("restart");

    let mut reference = PrkbEngine::new(config);
    reference.init_attr(0, n);
    reference.init_attr(1, n);
    {
        let (mut d, _) =
            DurableEngine::<Predicate>::open_with_crash(&dir.0, config, CrashInjector::disabled())
                .expect("open");
        d.init_attr(0, n).expect("init");
        d.init_attr(1, n).expect("init");
    } // dropped: simulated shutdown right after initialization

    let mut at = 0usize;
    for stop in [5usize, 11, steps.len()] {
        let (mut d, _) = reopen(&dir.0, config);
        assert_eq!(
            kb_bytes(d.engine()),
            kb_bytes(&reference),
            "state diverged on reopen at step {at}"
        );
        while at < stop {
            apply_ref(&mut reference, &oracle, &steps[at], &mut step_rng(seed, at));
            apply_durable(&mut d, &oracle, &steps[at], &mut step_rng(seed, at)).expect("clean run");
            at += 1;
        }
        assert_eq!(kb_bytes(d.engine()), kb_bytes(&reference));
    }
}

#[test]
fn empty_and_single_partition_kbs_roundtrip_through_wal_and_checkpoint() {
    let dir = TmpDir::new("edge");
    let config = no_rotation();
    {
        let (mut d, _) =
            DurableEngine::<Predicate>::open_with_crash(&dir.0, config, CrashInjector::disabled())
                .expect("open");
        d.init_attr(0, 0).expect("empty attr"); // zero tuples: k == 0
        d.init_attr(1, 40).expect("single-partition attr"); // k == 1, never split
        d.checkpoint().expect("explicit checkpoint");
        // Add post-checkpoint WAL records on top: the first tuple of the
        // empty attribute opens a solo partition (the Solo op).
        let oracle = PlainOracle::from_columns(vec![
            (0..41u64).collect(),
            (0..41u64).map(|v| v * 3).collect(),
        ]);
        d.try_insert(&oracle, 40).expect("solo insert");
        assert_eq!(d.epoch(), 1);
        assert!(d.wal_records() > 0, "insert must land in the new WAL");
    }
    let (d, report) = reopen(&dir.0, config);
    assert!(report.checkpoint_loaded);
    assert_eq!(report.epoch, 1);
    let kb0 = d.engine().knowledge(0).expect("indexed");
    let kb1 = d.engine().knowledge(1).expect("indexed");
    kb0.check_invariants();
    kb1.check_invariants();
    assert_eq!(kb0.k(), 1, "solo partition must survive recovery");
    assert_eq!(kb1.k(), 1);
    assert_eq!(kb0.pop().rank_of_tuple(40), Some(0));
}

/// A max-fanout MD grid (CompleteSplits policy: every dimension splits on
/// both bounds of every range) through checkpoint + WAL replay.
#[test]
fn max_fanout_md_grid_roundtrips_through_checkpoint_and_wal() {
    let n = 400usize;
    let mut rng = StdRng::seed_from_u64(37);
    let cols: Vec<Vec<u64>> = (0..2)
        .map(|_| (0..n).map(|_| rng.gen_range(0..1_000u64)).collect())
        .collect();
    let oracle = PlainOracle::from_columns(cols);
    let config = EngineConfig {
        md_policy: MdUpdatePolicy::CompleteSplits,
        checkpoint_wal_records: 0,
        checkpoint_wal_bytes: 0,
        ..EngineConfig::default()
    };
    let dir = TmpDir::new("mdgrid");
    let live = {
        let (mut d, _) = DurableEngine::open_with_crash(&dir.0, config, CrashInjector::disabled())
            .expect("open");
        d.init_attr(0, n).expect("init");
        d.init_attr(1, n).expect("init");
        let mut qrng = StdRng::seed_from_u64(38);
        for i in 0..8u64 {
            let lo = i * 100;
            let dims = [
                [
                    Predicate::cmp(0, ComparisonOp::Gt, lo),
                    Predicate::cmp(0, ComparisonOp::Lt, lo + 250),
                ],
                [
                    Predicate::cmp(1, ComparisonOp::Gt, lo / 2),
                    Predicate::cmp(1, ComparisonOp::Lt, lo + 400),
                ],
            ];
            d.try_select_range_md(&oracle, &dims, &mut qrng)
                .expect("clean");
        }
        // Split state across a checkpoint AND trailing WAL records.
        d.checkpoint().expect("rotate");
        let mut qrng2 = StdRng::seed_from_u64(39);
        let dims = [
            [
                Predicate::cmp(0, ComparisonOp::Gt, 111),
                Predicate::cmp(0, ComparisonOp::Lt, 777),
            ],
            [
                Predicate::cmp(1, ComparisonOp::Gt, 222),
                Predicate::cmp(1, ComparisonOp::Lt, 888),
            ],
        ];
        d.try_select_range_md(&oracle, &dims, &mut qrng2)
            .expect("clean");
        assert!(
            d.engine().knowledge(0).expect("indexed").k() > 8,
            "grid too coarse to be a fan-out test"
        );
        kb_bytes(d.engine())
    };
    let (d, report) = reopen(&dir.0, config);
    assert!(report.checkpoint_loaded);
    assert_eq!(kb_bytes(d.engine()), live, "fan-out grid diverged");
}
