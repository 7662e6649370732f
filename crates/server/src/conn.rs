//! Request processing: shared server state + the decode/dispatch path.
//!
//! I/O lives in [`crate::reactor`]; this module is the compute side. A
//! worker thread receives one decoded frame payload, runs [`process`], and
//! hands the encoded response back to the reactor. Failure handling is
//! two-tier, mirroring the WAL's trust model:
//!
//! * **frame damage** (bad CRC, oversized length, truncation) destroys
//!   framing — the reactor sends a best-effort error frame and closes the
//!   connection;
//! * **payload damage** (unknown tag, truncated body, hostile counts) is
//!   contained to one request — the server answers with a structured error
//!   and keeps the connection alive.
//!
//! Hostile-but-well-framed input must never panic a worker: requests that
//! would trip engine programmer-error assertions (duplicate MD dimensions,
//! mismatched dimension attributes, out-of-range tuple ids) are rejected
//! here, before dispatch.
//!
//! The resilience header rides on every request (PR 7): a present
//! `deadline_ms` becomes an absolute [`Instant`] budget threaded into the
//! scheduler (checkout waits and oracle batches both honour it — expiry
//! answers [`code::DEADLINE`] and leaves the KB untouched). A deadline of
//! `Some(0)` is an *explicit immediate expiry*: the request is answered
//! DEADLINE before dispatch, never touching the engine — useful as a
//! cancellation probe. "No deadline" is encoded as absence (`None`), not
//! as a zero sentinel. A non-zero `request_id` consults the server-global
//! [`DedupWindow`] so a retried mutation replays its original response
//! bytes instead of committing twice.

use crate::admission::{DedupClaim, DedupWindow};
use crate::proto::{code, Request, Response};
use crate::scheduler::SessionScheduler;
use prkb_core::metrics::{self, Metric};
use prkb_core::snapshot::WireCodec;
use prkb_core::SpPredicate;
use prkb_edbms::{AttrId, SelectionOracle};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::{Duration, Instant};

/// State shared between the reactor thread and every worker.
pub(crate) struct Shared<P: SpPredicate + WireCodec, O> {
    /// The engine pool (in-memory or durable) behind its checkout/checkin
    /// scheduler.
    pub sched: SessionScheduler<P>,
    /// The shared oracle; `RwLock` so a deployment can upload rows (a
    /// `&mut` operation on test oracles) between queries.
    pub oracle: Arc<RwLock<O>>,
    /// Set once by a Shutdown request (or [`crate::ServerHandle`]): the
    /// reactor stops accepting, in-flight requests finish, responses
    /// flush, then everything closes.
    pub shutdown: AtomicBool,
    /// Frame payload cap for this server.
    pub max_frame_len: u32,
    /// Close connections with no completed frame for this long (only
    /// consulted between frames — a mid-frame sender answers to
    /// `stall_deadline` instead).
    pub idle_deadline: Duration,
    /// Close connections that buffered a partial frame and then received
    /// no byte for this long.
    pub stall_deadline: Duration,
    /// Write budget: a peer that stops reading keeps its unflushed
    /// response at most this long before the connection is dropped.
    pub write_timeout: Duration,
    /// Request-id → response memo for idempotent retries.
    pub dedup: DedupWindow,
    /// Served requests (every decoded frame counts, errors included).
    pub requests: AtomicU64,
    /// Wire bytes in + out.
    pub bytes: AtomicU64,
    /// Stream-fatal framing failures.
    pub frame_errors: AtomicU64,
    /// Connections shed with BUSY at the admission gate.
    pub busy_rejections: AtomicU64,
    /// Requests answered with [`code::DEADLINE`].
    pub deadline_timeouts: AtomicU64,
    /// Requests answered from the dedup window instead of re-executing.
    pub dedup_hits: AtomicU64,
    /// The reactor's eventfd, installed by [`crate::PrkbServer::run`]
    /// before the reactor starts. Workers and shutdown both bump it; no
    /// more "connect to your own listener" poke consuming an admission
    /// slot and inflating the request counters.
    pub wake: OnceLock<crate::epoll::Waker>,
}

impl<P: SpPredicate + WireCodec, O> Shared<P, O> {
    /// Flips the shutdown flag and wakes the reactor so it observes the
    /// flag immediately instead of on its next sweep.
    pub(crate) fn trigger_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.wake_reactor();
    }

    /// Bumps the reactor's eventfd (no-op before the reactor starts —
    /// it checks the shutdown flag on entry anyway).
    pub(crate) fn wake_reactor(&self) {
        if let Some(w) = self.wake.get() {
            w.wake();
        }
    }
}

/// Decodes one request payload, applies the resilience header (deadline
/// budget, idempotent-replay window), and dispatches. Returns the encoded
/// response payload and whether the connection must close afterwards.
pub(crate) fn process<P, O>(shared: &Shared<P, O>, payload: &[u8]) -> (Arc<Vec<u8>>, bool)
where
    P: SpPredicate + WireCodec,
    O: SelectionOracle<Pred = P>,
{
    let (hdr, req) = match Request::<P>::decode(payload) {
        Ok(decoded) => decoded,
        Err(e) => {
            let resp = Response::Error {
                code: e.wire_code(),
                message: e.to_string(),
            };
            return (Arc::new(resp.encode()), false);
        }
    };
    let deadline = hdr
        .deadline_ms
        .map(|ms| Instant::now() + Duration::from_millis(u64::from(ms)));
    // An already-expired budget — `Some(0)` in particular — is answered
    // before dispatch and before the dedup window: nothing committed, so
    // nothing to memoize, and a retry with the same id must re-execute.
    if deadline.is_some_and(|d| Instant::now() >= d) {
        let resp = Response::Error {
            code: code::DEADLINE,
            message: "deadline expired before dispatch".into(),
        };
        observe_deadline(shared, &resp);
        return (Arc::new(resp.encode()), false);
    }

    // Only engine operations are tracked: Ping/Metrics/Shutdown have no
    // commit to protect and their responses are not worth memoizing.
    let tracked = hdr.request_id != 0
        && matches!(
            req,
            Request::Select { .. }
                | Request::Between { .. }
                | Request::SelectRangeMd { .. }
                | Request::Insert { .. }
                | Request::Delete { .. }
        );
    if !tracked {
        let (resp, close) = handle(shared, req, deadline);
        observe_deadline(shared, &resp);
        return (Arc::new(resp.encode()), close);
    }

    match shared.dedup.begin(hdr.request_id) {
        DedupClaim::Replay(bytes) => {
            shared.dedup_hits.fetch_add(1, Ordering::Relaxed);
            metrics::global().add(Metric::DedupHits, 1);
            (bytes, false)
        }
        DedupClaim::Execute(claim) => {
            let (resp, close) = handle(shared, req, deadline);
            observe_deadline(shared, &resp);
            let bytes = Arc::new(resp.encode());
            // Memoize only committed outcomes. An error releases the id
            // (claim drops → abort) so the client's retry re-executes.
            if matches!(
                resp,
                Response::Selection { .. } | Response::Inserted { .. } | Response::Deleted { .. }
            ) {
                claim.complete(Arc::clone(&bytes));
            }
            (bytes, close)
        }
        // begin() returns Untracked only for rid 0, excluded above.
        DedupClaim::Untracked => unreachable!("tracked path requires request_id != 0"),
    }
}

fn observe_deadline<P: SpPredicate + WireCodec, O>(shared: &Shared<P, O>, resp: &Response) {
    if matches!(
        resp,
        Response::Error {
            code: code::DEADLINE,
            ..
        }
    ) {
        shared.deadline_timeouts.fetch_add(1, Ordering::Relaxed);
        metrics::global().add(Metric::DeadlineTimeouts, 1);
    }
}

/// Dispatches one decoded request. Returns the response and whether the
/// connection must close afterwards.
fn handle<P, O>(
    shared: &Shared<P, O>,
    req: Request<P>,
    deadline: Option<Instant>,
) -> (Response, bool)
where
    P: SpPredicate + WireCodec,
    O: SelectionOracle<Pred = P>,
{
    match req {
        Request::Ping => (Response::Ok, false),
        Request::Select { seed, pred } | Request::Between { seed, pred } => {
            let oracle = read_oracle(&shared.oracle);
            let mut rng = StdRng::seed_from_u64(seed);
            match shared.sched.select(&*oracle, &pred, deadline, &mut rng) {
                Ok((sel, seq)) => (
                    Response::Selection {
                        seq,
                        tuples: sel.tuples,
                        stats: sel.stats,
                    },
                    false,
                ),
                Err(e) => (error_of(&e), false),
            }
        }
        Request::SelectRangeMd { seed, dims } => {
            if let Err(resp) = validate_dims(&dims) {
                return (resp, false);
            }
            let oracle = read_oracle(&shared.oracle);
            let mut rng = StdRng::seed_from_u64(seed);
            match shared
                .sched
                .select_range_md(&*oracle, &dims, deadline, &mut rng)
            {
                Ok((sel, seq)) => (
                    Response::Selection {
                        seq,
                        tuples: sel.tuples,
                        stats: sel.stats,
                    },
                    false,
                ),
                Err(e) => (error_of(&e), false),
            }
        }
        Request::Insert { tuple } => {
            let oracle = read_oracle(&shared.oracle);
            // An id beyond the oracle's slots has no uploaded row behind it;
            // routing it would be evaluating trapdoors against nothing.
            if tuple as usize >= oracle.n_slots() {
                return (
                    Response::Error {
                        code: code::MALFORMED,
                        message: format!("tuple {tuple} beyond table ({} slots)", oracle.n_slots()),
                    },
                    false,
                );
            }
            match shared.sched.insert(&*oracle, tuple, deadline) {
                Ok((outcomes, seq)) => (Response::Inserted { seq, outcomes }, false),
                Err(e) => (error_of(&e), false),
            }
        }
        Request::Delete { tuple } => match shared.sched.delete(tuple, deadline) {
            Ok(seq) => (Response::Deleted { seq }, false),
            Err(e) => (error_of(&e), false),
        },
        Request::MetricsSnapshot => (
            Response::Metrics {
                json: metrics::global().snapshot().to_json(),
            },
            false,
        ),
        Request::Shutdown => {
            // Flush every shard's pending group-commit batch before the
            // acknowledgement goes on the wire: once the client sees Ok,
            // the full commit history is on disk even if the process dies
            // right after. The server drains either way — a failed flush
            // is reported, not retried (the committer is poisoned; only a
            // reopen recovers it).
            let flush = shared.sched.flush_durable();
            shared.trigger_shutdown();
            match flush {
                Ok(()) => (Response::Ok, true),
                Err(e) => (error_of(&e), true),
            }
        }
    }
}

fn read_oracle<O>(oracle: &RwLock<O>) -> std::sync::RwLockReadGuard<'_, O> {
    match oracle.read() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn error_of(e: &crate::scheduler::ServeError) -> Response {
    Response::Error {
        code: e.wire_code(),
        message: e.to_string(),
    }
}

/// Rejects MD dimension lists the engine would treat as programmer error:
/// empty lists, mismatched attributes inside a dimension, and the same
/// attribute across two dimensions.
fn validate_dims<P: SpPredicate>(dims: &[[P; 2]]) -> Result<(), Response> {
    if dims.is_empty() {
        return Err(Response::Error {
            code: code::MALFORMED,
            message: "MD range query needs at least one dimension".into(),
        });
    }
    let mut seen: HashSet<AttrId> = HashSet::new();
    for pair in dims {
        if pair[0].attr() != pair[1].attr() {
            return Err(Response::Error {
                code: code::MALFORMED,
                message: format!(
                    "dimension trapdoors disagree on attribute ({} vs {})",
                    pair[0].attr(),
                    pair[1].attr()
                ),
            });
        }
        if !seen.insert(pair[0].attr()) {
            return Err(Response::Error {
                code: code::DUPLICATE_DIMENSION,
                message: format!("attribute {} listed in two dimensions", pair[0].attr()),
            });
        }
    }
    Ok(())
}
