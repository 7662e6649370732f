//! Sharded-execution equivalence (DESIGN.md §13).
//!
//! The scheduler's observable contract: a random multi-attribute workload —
//! conjunctions whose footprints span shards, BETWEENs, single-attribute
//! comparisons, and whole-pool deletes — executed by 4 concurrent worker
//! threads over an 8-shard pool must
//!
//! 1. never deadlock (two-phase checkout in ascending shard-id order),
//! 2. assign dense commit sequence numbers, and
//! 3. be **byte-equivalent** to replaying the same operations sequentially,
//!    in commit-sequence order, on a single unsharded engine: identical
//!    result tuples, identical per-query (hence total) QPF spend, identical
//!    final knowledge-base bytes.

use prkb_core::snapshot;
use prkb_core::{EngineConfig, PrkbEngine, ShardMap};
use prkb_edbms::testing::PlainOracle;
use prkb_edbms::{AttrId, ComparisonOp, Predicate, TupleId};
use prkb_server::scheduler::{SessionOracle, SessionScheduler};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const ATTRS: u32 = 6;
const ROWS: usize = 240;
const THREADS: usize = 4;
const SHARDS: usize = 8;

/// One scripted operation, run concurrently and then replayed sequentially.
#[derive(Debug, Clone)]
enum ScriptOp {
    /// A conjunction over `preds` (a single predicate degenerates to a
    /// plain selection) with a pinned per-op RNG seed, so the concurrent
    /// run and the sequential replay draw identical streams. Its footprint
    /// is `attrs`.
    Select {
        preds: Vec<Predicate>,
        attrs: Vec<AttrId>,
        rng_seed: u64,
    },
    /// A delete of one tuple: a whole-pool footprint.
    Delete(TupleId),
}

fn build_script(seed: u64, rounds: usize) -> Vec<Vec<ScriptOp>> {
    let mut rng = StdRng::seed_from_u64(seed);
    // Every scripted delete names a distinct tuple.
    let mut victims: Vec<TupleId> = (0..ROWS as TupleId).collect();
    for i in (1..victims.len()).rev() {
        victims.swap(i, rng.gen_range(0..=i));
    }
    (0..THREADS)
        .map(|_| {
            (0..rounds)
                .map(|_| {
                    if rng.gen_range(0..5u8) == 0 {
                        return ScriptOp::Delete(victims.pop().expect("ROWS exceeds the op count"));
                    }
                    let width = rng.gen_range(1..=4usize);
                    let mut attrs: Vec<AttrId> = (0..ATTRS).collect();
                    for i in (1..attrs.len()).rev() {
                        attrs.swap(i, rng.gen_range(0..=i));
                    }
                    attrs.truncate(width);
                    attrs.sort_unstable();
                    let preds = attrs
                        .iter()
                        .map(|&a| {
                            let lo = rng.gen_range(0..700u64);
                            match rng.gen_range(0..3u8) {
                                0 => Predicate::cmp(a, ComparisonOp::Lt, lo + 200),
                                1 => Predicate::cmp(a, ComparisonOp::Ge, lo),
                                _ => Predicate::between(a, lo, lo + rng.gen_range(50..300u64)),
                            }
                        })
                        .collect();
                    ScriptOp::Select {
                        preds,
                        attrs,
                        rng_seed: rng.gen(),
                    }
                })
                .collect()
        })
        .collect()
}

fn columns(seed: u64) -> Vec<Vec<u64>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
    (0..ATTRS)
        .map(|_| (0..ROWS).map(|_| rng.gen_range(0..1_000u64)).collect())
        .collect()
}

fn kb_bytes(engine: &PrkbEngine<Predicate>) -> Vec<Vec<u8>> {
    let mut attrs: Vec<_> = engine.attrs().collect();
    attrs.sort_unstable();
    attrs
        .iter()
        .map(|&a| snapshot::save(engine.knowledge(a).expect("attr indexed")))
        .collect()
}

/// What one committed operation observably did.
#[derive(Debug)]
struct Observed {
    seq: u64,
    op: ScriptOp,
    tuples: Vec<u32>,
    qpf: u64,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    fn concurrent_sharded_run_equals_sequential_replay(
        seed in any::<u64>(),
        rounds in 2usize..6,
    ) {
        let script = build_script(seed, rounds);
        let oracle = Arc::new(PlainOracle::from_columns(columns(seed)));

        // Concurrent run: 4 worker threads over an 8-shard pool, exactly
        // the server's worker-pool shape.
        let mut engine: PrkbEngine<Predicate> = PrkbEngine::new(EngineConfig::default());
        for a in 0..ATTRS {
            engine.init_attr(a, ROWS);
        }
        let sched = Arc::new(SessionScheduler::with_shards(engine, ShardMap::new(SHARDS)));
        let mut handles = Vec::new();
        for ops in script.iter().cloned() {
            let sched = Arc::clone(&sched);
            let oracle = Arc::clone(&oracle);
            handles.push(std::thread::spawn(move || {
                let mut seen = Vec::new();
                for op in ops {
                    let (seq, tuples, qpf) = match &op {
                        ScriptOp::Select {
                            preds,
                            attrs,
                            rng_seed,
                        } => {
                            let session = SessionOracle::new(&*oracle);
                            let (sel, seq) = sched
                                .with_detached(attrs, |sub| {
                                    sub.try_select_conjunction(
                                        &session,
                                        preds,
                                        &mut StdRng::seed_from_u64(*rng_seed),
                                    )
                                })
                                .expect("conjunction commits");
                            (seq, sel.sorted(), sel.stats.qpf_uses)
                        }
                        ScriptOp::Delete(t) => {
                            let ((), seq) = sched
                                .with_exclusive(|engine| engine.delete(*t))
                                .expect("delete commits");
                            (seq, Vec::new(), 0)
                        }
                    };
                    seen.push(Observed {
                        seq,
                        op,
                        tuples,
                        qpf,
                    });
                }
                seen
            }));
        }
        let mut observed: Vec<Observed> = Vec::new();
        for h in handles {
            observed.extend(h.join().expect("no worker deadlocks or panics"));
        }

        // Dense commit sequence: every committed op drew exactly one.
        observed.sort_by_key(|o| o.seq);
        let total = THREADS * rounds;
        prop_assert_eq!(observed.len(), total);
        for (i, o) in observed.iter().enumerate() {
            prop_assert_eq!(o.seq, i as u64 + 1, "commit sequence must be dense");
        }

        // Sequential replay on a single unsharded engine, in commit order.
        let mut replay: PrkbEngine<Predicate> = PrkbEngine::new(EngineConfig::default());
        for a in 0..ATTRS {
            replay.init_attr(a, ROWS);
        }
        let mut concurrent_qpf = 0u64;
        let mut replay_qpf = 0u64;
        for o in &observed {
            let sel = match &o.op {
                ScriptOp::Select {
                    preds, rng_seed, ..
                } => replay
                    .try_select_conjunction(
                        &*oracle,
                        preds,
                        &mut StdRng::seed_from_u64(*rng_seed),
                    )
                    .expect("replay commits"),
                ScriptOp::Delete(t) => {
                    replay.delete(*t);
                    continue;
                }
            };
            prop_assert_eq!(
                &o.tuples,
                &sel.sorted(),
                "seq {}: result tuples diverge from sequential replay",
                o.seq
            );
            prop_assert_eq!(
                o.qpf,
                sel.stats.qpf_uses,
                "seq {}: QPF spend diverges from sequential replay",
                o.seq
            );
            concurrent_qpf += o.qpf;
            replay_qpf += sel.stats.qpf_uses;
        }
        prop_assert_eq!(concurrent_qpf, replay_qpf, "total QPF spend must match");

        // The final knowledge is byte-identical too: sharding changed the
        // execution, not the refinement history.
        let merged = match Arc::try_unwrap(sched) {
            Ok(s) => s.into_engine(),
            Err(_) => panic!("all workers joined"),
        };
        prop_assert_eq!(kb_bytes(&merged), kb_bytes(&replay));
    }
}
