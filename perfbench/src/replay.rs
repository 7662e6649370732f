//! The in-process replay of a traced run.
//!
//! Re-executes served requests in commit-sequence order through
//! `SessionScheduler::with_detached` / `with_exclusive` — the calls the
//! server's connection layer makes — with spans around the scheduler call
//! and the engine work, and checks that each reproduces the served reply
//! exactly: commit sequence, answer digest, full query stats, insert
//! placement.

use crate::data::Digest;
use crate::oracle::BenchOracle;
use crate::run::{Op, Plan, Record, Reply};
use crate::trace::{self, Span};
use crate::workloads::Failures;
use prkb_core::InsertOutcome;
use prkb_edbms::{AttrId, EncryptedPredicate};
use prkb_server::{DeadlineOracle, SessionOracle, SessionScheduler};
use rand::rngs::StdRng;
use rand::SeedableRng;

type P = EncryptedPredicate;
/// Replays `records` (those that succeeded) and returns the replay's spans.
pub fn replay(
    sched: &SessionScheduler<P>,
    oracle: &BenchOracle,
    plan: &Plan,
    records: &[&Record],
    fails: &mut Failures,
) -> Vec<Span> {
    let mut order: Vec<&Record> = records
        .iter()
        .copied()
        .filter(|r| r.result.is_ok())
        .collect();
    order.sort_by_key(|r| r.result.as_ref().map(Reply::seq).unwrap_or(0));
    trace::set_enabled(true);
    for rec in order {
        let reply = rec.result.as_ref().expect("errors filtered");
        trace::set_request(rec.request_id());
        let span = trace::span("replay.op", 0);
        let got = replay_one(sched, oracle, plan.op(rec), reply);
        drop(span);
        trace::set_request(0);
        let ok = match (got, reply) {
            (
                Ok(Again::Selection(sel, seq)),
                Reply::Selection {
                    seq: s,
                    digest,
                    stats,
                    ..
                },
            ) => seq == *s && Digest::of(&sel.tuples) == *digest && sel.stats == *stats,
            (
                Ok(Again::Inserted(out, seq)),
                Reply::Inserted {
                    seq: s, outcomes, ..
                },
            ) => seq == *s && out == *outcomes,
            (Ok(Again::Deleted(seq)), Reply::Deleted { seq: s, .. }) => seq == *s,
            (Err(e), _) => {
                fails.add(format!("replay of request {:#x}: {e}", rec.request_id()));
                continue;
            }
            _ => false,
        };
        if !ok {
            fails.add(format!(
                "replay of request {:#x} differs from the served reply",
                rec.request_id()
            ));
        }
    }
    trace::set_enabled(false);
    trace::take()
}

enum Again {
    Selection(prkb_core::Selection, u64),
    Inserted(Vec<(AttrId, InsertOutcome)>, u64),
    Deleted(u64),
}

fn replay_one(
    sched: &SessionScheduler<P>,
    oracle: &BenchOracle,
    op: &Op,
    reply: &Reply,
) -> Result<Again, String> {
    let err = |e: prkb_server::ServeError| e.to_string();
    match (op, reply) {
        (Op::Range { spec, seed, .. }, _) => {
            let session = SessionOracle::new(oracle);
            let bounded = DeadlineOracle::new(&session, None);
            let mut rng = StdRng::seed_from_u64(*seed);
            sched
                .with_detached(&[spec.attr], |sub| {
                    let _span = trace::span("engine", 0);
                    sub.try_select_range_md(&bounded, &spec.dims, &mut rng)
                })
                .map(|(sel, seq)| Again::Selection(sel, seq))
                .map_err(err)
        }
        (
            Op::Select {
                attr, pred, seed, ..
            },
            _,
        ) => {
            let session = SessionOracle::new(oracle);
            let bounded = DeadlineOracle::new(&session, None);
            let mut rng = StdRng::seed_from_u64(*seed);
            sched
                .with_detached(&[*attr], |sub| {
                    let _span = trace::span("engine", 0);
                    sub.try_select(&bounded, pred, &mut rng)
                })
                .map(|(sel, seq)| Again::Selection(sel, seq))
                .map_err(err)
        }
        (Op::Insert { .. }, Reply::Inserted { tuple, .. }) => {
            let (result, seq) = sched
                .with_exclusive(|engine| {
                    let _span = trace::span("engine", 0);
                    engine.try_insert(oracle, *tuple)
                })
                .map_err(err)?;
            Ok(Again::Inserted(result.map_err(|e| e.to_string())?, seq))
        }
        (Op::Delete { .. }, Reply::Deleted { tuple, .. }) => {
            let ((), seq) = sched
                .with_exclusive(|engine| {
                    let _span = trace::span("engine", 0);
                    engine.delete(*tuple);
                })
                .map_err(err)?;
            Ok(Again::Deleted(seq))
        }
        _ => Err("reply kind does not match the operation".into()),
    }
}
