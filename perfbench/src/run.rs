//! Closed-loop clients: each client owns a connection and an operation
//! list, sends one request, waits for the reply, and records it. Replies are
//! reduced to digests right after the latency clock stops, so checking never
//! counts against a request's latency.

use crate::data::{Digest, RangeSpec};
use crate::oracle::BenchOracle;
use crate::trace;
use prkb_core::{InsertOutcome, QueryStats};
use prkb_edbms::{AttrId, EncryptedPredicate, RetryPolicy, TupleId};
use prkb_server::wire::FRAME_HEADER_LEN;
use prkb_server::{ClientConfig, PrkbClient, Response};
use std::net::SocketAddr;
use std::sync::{Arc, Barrier, RwLock};
use std::time::{Duration, Instant};

/// One request a client sends.
pub enum Op {
    /// 1% range as one `SelectRangeMd` request; `expect` is the answer over
    /// the uploaded table.
    Range {
        spec: RangeSpec,
        seed: u64,
        expect: Digest,
    },
    /// One-sided comparison `X < cut`.
    Select {
        attr: AttrId,
        pred: EncryptedPredicate,
        seed: u64,
        expect: Digest,
    },
    /// Upload a pre-encrypted row through the server's oracle, then index it.
    Insert { row: Vec<u64>, cells: Vec<Vec<u8>> },
    /// Delete this client's `nth` insert.
    Delete { nth: usize },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Range,
    Select,
    Insert,
    Delete,
}

impl Op {
    pub fn kind(&self) -> Kind {
        match self {
            Op::Range { .. } => Kind::Range,
            Op::Select { .. } => Kind::Select,
            Op::Insert { .. } => Kind::Insert,
            Op::Delete { .. } => Kind::Delete,
        }
    }
}

/// What came back, reduced for checking.
#[derive(Debug, Clone)]
pub enum Reply {
    Selection {
        seq: u64,
        digest: Digest,
        ids: u64,
        stats: QueryStats,
    },
    Inserted {
        seq: u64,
        tuple: TupleId,
        outcomes: Vec<(AttrId, InsertOutcome)>,
    },
    Deleted {
        seq: u64,
        tuple: TupleId,
    },
}

impl Reply {
    pub fn seq(&self) -> u64 {
        match self {
            Reply::Selection { seq, .. }
            | Reply::Inserted { seq, .. }
            | Reply::Deleted { seq, .. } => *seq,
        }
    }
}

/// One completed request.
#[derive(Debug, Clone)]
pub struct Record {
    /// The trial (one pass of every client's list) it belongs to.
    pub trial: usize,
    pub client: usize,
    /// Index into the client's op list.
    pub op: usize,
    pub kind: Kind,
    pub latency_ns: u64,
    /// Encoded reply frame size, header included.
    pub reply_bytes: u64,
    pub result: Result<Reply, String>,
}

impl Record {
    /// Request id shared by every span of this request.
    pub fn request_id(&self) -> u64 {
        request_id(self.trial, self.client, self.op)
    }
}

pub fn request_id(trial: usize, client: usize, op: usize) -> u64 {
    ((trial as u64 + 1) << 48) | ((client as u64 + 1) << 32) | op as u64
}

/// The operation lists of a run: `lists[t][client]` for trial `t`; trials
/// past the last list repeat it.
pub struct Plan {
    pub lists: Vec<Vec<Vec<Op>>>,
    pub trials: usize,
}

impl Plan {
    /// The same lists for every trial.
    pub fn repeated(lists: Vec<Vec<Op>>, trials: usize) -> Self {
        Plan {
            lists: vec![lists],
            trials,
        }
    }

    pub fn trial(&self, t: usize) -> &[Vec<Op>] {
        &self.lists[t.min(self.lists.len() - 1)]
    }

    pub fn op(&self, r: &Record) -> &Op {
        &self.trial(r.trial)[r.client][r.op]
    }
}

/// Client frame cap for a table of `n_slots` tuples: four bytes per id
/// plus headroom. The client's 1 MiB default cannot carry a one-sided
/// select over a large table.
pub fn frame_cap(n_slots: usize) -> u32 {
    u32::try_from(4 * n_slots + (256 << 10)).expect("frame cap fits u32")
}

pub fn client_config(n_slots: usize) -> ClientConfig {
    ClientConfig {
        max_frame_len: frame_cap(n_slots),
        retry: RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        },
        read_timeout: Duration::from_secs(60),
        ..ClientConfig::default()
    }
}

/// Fixed size of a Selection reply frame minus its ids.
fn selection_frame_base(stats: QueryStats) -> u64 {
    let empty = Response::Selection {
        seq: 0,
        tuples: Vec::new(),
        stats,
    };
    (FRAME_HEADER_LEN + empty.encode().len()) as u64
}

/// One client's share of a measurement: its operation list, the server's
/// oracle handle for uploads, and its connection settings.
pub struct ClientRun<'a> {
    pub trial: usize,
    pub client: usize,
    pub ops: &'a [Op],
    pub oracle: Option<Arc<RwLock<BenchOracle>>>,
    pub config: ClientConfig,
}

impl ClientRun<'_> {
    /// Connects, waits at `start`, then sends the ops in order.
    pub fn run(&self, addr: SocketAddr, start: &Barrier) -> Result<Vec<Record>, String> {
        let connected = PrkbClient::<EncryptedPredicate>::connect_with(addr, self.config.clone());
        // Every client passes the barrier, connected or not, so a failed
        // connect cannot strand the others.
        start.wait();
        let mut client = connected.map_err(|e| e.to_string())?;
        let mut inserted: Vec<TupleId> = Vec::new();
        let mut records = Vec::with_capacity(self.ops.len());
        for (i, op) in self.ops.iter().enumerate() {
            trace::set_request(request_id(self.trial, self.client, i));
            let span = trace::span("client.request", 0);
            let began = Instant::now();
            let raw = self.send(&mut client, op, &mut inserted);
            let latency_ns = began.elapsed().as_nanos() as u64;
            drop(span);
            trace::set_request(0);
            let (result, reply_bytes) = match raw {
                Ok(raw) => {
                    let (reply, bytes) = raw.reduce();
                    (Ok(reply), bytes)
                }
                Err(e) => (Err(e), 0),
            };
            records.push(Record {
                trial: self.trial,
                client: self.client,
                op: i,
                kind: op.kind(),
                latency_ns,
                reply_bytes,
                result,
            });
        }
        Ok(records)
    }

    fn send(
        &self,
        client: &mut PrkbClient<EncryptedPredicate>,
        op: &Op,
        inserted: &mut Vec<TupleId>,
    ) -> Result<Raw, String> {
        let err = |e: prkb_server::ClientError| e.to_string();
        match op {
            Op::Range { spec, seed, .. } => client
                .select_range_md(*seed, spec.dims.clone())
                .map(Raw::Selection)
                .map_err(err),
            Op::Select { pred, seed, .. } => client
                .select(*seed, pred.clone())
                .map(Raw::Selection)
                .map_err(err),
            Op::Insert { cells, .. } => {
                let oracle = self
                    .oracle
                    .as_ref()
                    .ok_or("insert needs the server oracle")?;
                let tuple = oracle
                    .write()
                    .map_err(|_| "oracle lock poisoned".to_string())?
                    .push_row(cells);
                inserted.push(tuple);
                let (seq, outcomes) = client.insert(tuple).map_err(err)?;
                Ok(Raw::Inserted {
                    seq,
                    tuple,
                    outcomes,
                })
            }
            Op::Delete { nth } => {
                let tuple = *inserted
                    .get(*nth)
                    .ok_or("delete of an insert this client never made")?;
                let seq = client.delete(tuple).map_err(err)?;
                Ok(Raw::Deleted { seq, tuple })
            }
        }
    }
}

/// A reply as the client returned it, before reduction.
enum Raw {
    Selection(prkb_server::SelectionReply),
    Inserted {
        seq: u64,
        tuple: TupleId,
        outcomes: Vec<(AttrId, InsertOutcome)>,
    },
    Deleted {
        seq: u64,
        tuple: TupleId,
    },
}

impl Raw {
    /// Digests the reply and sizes its encoded frame.
    fn reduce(self) -> (Reply, u64) {
        match self {
            Raw::Selection(r) => {
                let bytes = selection_frame_base(r.stats) + 4 * r.tuples.len() as u64;
                let reply = Reply::Selection {
                    seq: r.seq,
                    digest: Digest::of(&r.tuples),
                    ids: r.tuples.len() as u64,
                    stats: r.stats,
                };
                (reply, bytes)
            }
            Raw::Inserted {
                seq,
                tuple,
                outcomes,
            } => {
                let payload = Response::Inserted {
                    seq,
                    outcomes: outcomes.clone(),
                }
                .encode();
                let reply = Reply::Inserted {
                    seq,
                    tuple,
                    outcomes,
                };
                (reply, (FRAME_HEADER_LEN + payload.len()) as u64)
            }
            Raw::Deleted { seq, tuple } => {
                let payload = Response::Deleted { seq }.encode();
                (
                    Reply::Deleted { seq, tuple },
                    (FRAME_HEADER_LEN + payload.len()) as u64,
                )
            }
        }
    }
}

/// Runs every client of `runs` concurrently against `addr`, released
/// together by a barrier. Returns each client's records and the wall time
/// from release to the last client's finish.
pub fn drive(addr: SocketAddr, runs: &[ClientRun<'_>]) -> Result<(Vec<Record>, Duration), String> {
    let barrier = Barrier::new(runs.len() + 1);
    std::thread::scope(|s| {
        let handles: Vec<_> = runs
            .iter()
            .map(|r| {
                let barrier = &barrier;
                s.spawn(move || r.run(addr, barrier))
            })
            .collect();
        barrier.wait();
        let began = Instant::now();
        let mut all = Vec::new();
        let mut first_err = None;
        for h in handles {
            match h.join().expect("client thread panicked") {
                Ok(records) => all.extend(records),
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        let wall = began.elapsed();
        match first_err {
            Some(e) => Err(e),
            None => Ok((all, wall)),
        }
    })
}
