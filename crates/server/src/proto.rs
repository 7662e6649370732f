//! `prkb-wire/v2` request/response payloads.
//!
//! Every frame payload starts with `version u8 | tag u8`; requests carry a
//! resilience header right after (`request_id u64 | deadline flag u8 |
//! [deadline_ms u32]`, see [`RequestHeader`]) so retries can be
//! deduplicated server-side and doomed work can be abandoned early. v2
//! changed the deadline encoding from a zero-sentinel `u32` to an explicit
//! presence flag: `None` is "no deadline" and `Some(0)` is an immediate
//! expiry the server answers with a DEADLINE error before dispatch.
//! Bodies are
//! little-endian, fixed-layout, and predicate-generic via
//! [`WireCodec`] — the same trapdoor encoding the snapshot and WAL layers
//! already speak, so a loopback deployment ([`prkb_edbms::Predicate`]) and a
//! real encrypted one ([`prkb_edbms::EncryptedPredicate`]) share one
//! protocol.
//!
//! Decoding is defensive end to end: every count field is bounds-checked
//! against the remaining bytes before allocation, unknown tags and versions
//! are structured errors (not panics), and trailing garbage after a valid
//! body is rejected — malformed input must never take the server down
//! (mirroring the snapshot/WAL hardening).

use prkb_core::snapshot::WireCodec;
use prkb_core::{InsertOutcome, QueryStats};
use prkb_edbms::{AttrId, TupleId};
use std::fmt;

/// Protocol version carried in every payload's first byte. v2 made the
/// request deadline an explicit optional (presence flag + `u32`) instead
/// of a zero-sentinel.
pub const PROTO_VERSION: u8 = 2;

/// Cap on the dimension count of one MD range request — a lying count
/// field must not become an allocation request.
pub const MAX_MD_DIMS: usize = 64;

/// Stable wire error codes (`prkb-wire/v2`). Never reused, only appended.
pub mod code {
    /// The payload's version byte is not [`super::PROTO_VERSION`].
    pub const UNSUPPORTED_VERSION: u16 = 1;
    /// The payload failed structural decoding.
    pub const MALFORMED: u16 = 2;
    /// The request tag is unknown to this server.
    pub const UNKNOWN_TAG: u16 = 3;
    /// The queried attribute was never initialized
    /// ([`prkb_core::QueryError::AttrNotInitialized`]).
    pub const ATTR_NOT_INITIALIZED: u16 = 10;
    /// Base for oracle failures: the wire code is
    /// `ORACLE_BASE + OracleError::wire_code()` (21 transient, 22 timeout,
    /// 23 corruption, 24 unavailable, 25 fatal).
    pub const ORACLE_BASE: u16 = 20;
    /// An MD range request listed the same attribute in two dimensions.
    pub const DUPLICATE_DIMENSION: u16 = 40;
    /// The durable backing store failed; the refinement was not committed.
    pub const DURABILITY: u16 = 50;
    /// A durability barrier (fsync) failed on a shard the request touches.
    /// The shard is poisoned until its pool is reopened; no durable ack was
    /// or will be issued for the lost writes. Requests routed to healthy
    /// shards keep succeeding on the same connection.
    pub const SYNC_FAILED: u16 = 51;
    /// The server is draining for shutdown and takes no new queries.
    pub const DRAINING: u16 = 60;
    /// Frame-level damage (reported back best-effort before closing).
    pub const FRAME: u16 = 70;
    /// The admission gate shed this connection: worker pool and queue are
    /// full. Retryable after backoff — nothing was executed.
    pub const BUSY: u16 = 80;
    /// The request's `deadline_ms` budget expired before it could commit.
    /// The attribute footprint was released and the knowledge base is
    /// untouched. Not retried automatically: the deadline was the caller's.
    pub const DEADLINE: u16 = 81;
}

/// Per-request resilience header carried by every `prkb-wire/v2` request
/// between the tag byte and the body: `request_id u64 | deadline flag u8 |
/// [deadline_ms u32]` (the `u32` present iff the flag is 1; any other
/// flag value is malformed).
///
/// * `request_id` — client-generated idempotency key. `0` means
///   "untracked"; any other value lets the server deduplicate a retried
///   request through its bounded idempotency window, replaying the
///   committed response instead of re-executing.
/// * `deadline_ms` — per-request budget in milliseconds, measured from the
///   moment the server decodes the request. `None` means no deadline;
///   `Some(0)` is an *explicit immediate expiry* answered with
///   [`code::DEADLINE`] before dispatch (v1 conflated the two with a zero
///   sentinel). Expired requests leave the knowledge base untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RequestHeader {
    /// Client-generated idempotency key (`0` = untracked).
    pub request_id: u64,
    /// Deadline budget in milliseconds (`None` = no deadline, `Some(0)` =
    /// expire immediately).
    pub deadline_ms: Option<u32>,
}

/// A decoded client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request<P> {
    /// Liveness probe.
    Ping,
    /// Single-predicate selection (comparison trapdoor). `seed` drives the
    /// server-side sampling RNG so a client can reproduce a run exactly.
    Select {
        /// Per-query RNG seed.
        seed: u64,
        /// The trapdoor.
        pred: P,
    },
    /// Single-predicate BETWEEN selection. Dispatch is identical to
    /// [`Request::Select`] server-side (the engine routes on the trapdoor's
    /// SP-visible kind); the distinct tag keeps the wire self-describing.
    Between {
        /// Per-query RNG seed.
        seed: u64,
        /// The trapdoor.
        pred: P,
    },
    /// Multi-dimensional range selection (PRKB(MD), paper §6.2).
    SelectRangeMd {
        /// Per-query RNG seed.
        seed: u64,
        /// Two comparison trapdoors per dimension.
        dims: Vec<[P; 2]>,
    },
    /// Route an (out-of-band uploaded) tuple into every indexed attribute.
    Insert {
        /// The tuple to index.
        tuple: TupleId,
    },
    /// Remove a tuple from every indexed attribute.
    Delete {
        /// The tuple to forget.
        tuple: TupleId,
    },
    /// Fetch the `prkb-metrics/v6` JSON snapshot.
    MetricsSnapshot,
    /// Graceful shutdown: drain in-flight queries, then stop.
    Shutdown,
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Acknowledgement without payload (ping, shutdown).
    Ok,
    /// A selection result.
    Selection {
        /// Global commit sequence number (total order of engine commits).
        seq: u64,
        /// Satisfying tuple ids (order unspecified).
        tuples: Vec<TupleId>,
        /// Cost accounting for this query.
        stats: QueryStats,
    },
    /// Insert routing outcomes, one per indexed attribute.
    Inserted {
        /// Global commit sequence number.
        seq: u64,
        /// Per-attribute routing outcome.
        outcomes: Vec<(AttrId, InsertOutcome)>,
    },
    /// Delete acknowledgement.
    Deleted {
        /// Global commit sequence number.
        seq: u64,
    },
    /// The `prkb-metrics/v6` JSON document.
    Metrics {
        /// The rendered snapshot.
        json: String,
    },
    /// A structured failure.
    Error {
        /// Stable [`code`] value.
        code: u16,
        /// Human-readable context (never parsed by clients).
        message: String,
    },
}

/// Structural decode failure (maps to [`code::MALFORMED`] & friends).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// Version byte mismatch.
    UnsupportedVersion(u8),
    /// Unknown request/response tag.
    UnknownTag(u8),
    /// Structural damage: truncated field, lying count, trailing bytes.
    Malformed(&'static str),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (expected {PROTO_VERSION})"
                )
            }
            ProtoError::UnknownTag(t) => write!(f, "unknown message tag {t}"),
            ProtoError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl ProtoError {
    /// The stable wire code for this decode failure.
    pub fn wire_code(&self) -> u16 {
        match self {
            ProtoError::UnsupportedVersion(_) => code::UNSUPPORTED_VERSION,
            ProtoError::UnknownTag(_) => code::UNKNOWN_TAG,
            ProtoError::Malformed(_) => code::MALFORMED,
        }
    }
}

// ---------------------------------------------------------------------------
// Primitive readers
// ---------------------------------------------------------------------------

fn take<'a>(bytes: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], ProtoError> {
    let s = bytes
        .get(*pos..*pos + n)
        .ok_or(ProtoError::Malformed("truncated field"))?;
    *pos += n;
    Ok(s)
}

fn take_u8(bytes: &[u8], pos: &mut usize) -> Result<u8, ProtoError> {
    Ok(take(bytes, pos, 1)?[0])
}

fn take_u16(bytes: &[u8], pos: &mut usize) -> Result<u16, ProtoError> {
    Ok(u16::from_le_bytes(
        take(bytes, pos, 2)?.try_into().expect("2 bytes"),
    ))
}

fn take_u32(bytes: &[u8], pos: &mut usize) -> Result<u32, ProtoError> {
    Ok(u32::from_le_bytes(
        take(bytes, pos, 4)?.try_into().expect("4 bytes"),
    ))
}

fn take_u64(bytes: &[u8], pos: &mut usize) -> Result<u64, ProtoError> {
    Ok(u64::from_le_bytes(
        take(bytes, pos, 8)?.try_into().expect("8 bytes"),
    ))
}

fn take_pred<P: WireCodec>(bytes: &[u8], pos: &mut usize) -> Result<P, ProtoError> {
    let (p, used) =
        P::decode(&bytes[*pos..]).ok_or(ProtoError::Malformed("undecodable trapdoor"))?;
    *pos += used;
    Ok(p)
}

fn finish(bytes: &[u8], pos: usize) -> Result<(), ProtoError> {
    if pos == bytes.len() {
        Ok(())
    } else {
        Err(ProtoError::Malformed("trailing bytes"))
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

impl<P: WireCodec> Request<P> {
    fn tag(&self) -> u8 {
        match self {
            Request::Ping => 0,
            Request::Select { .. } => 1,
            Request::Between { .. } => 2,
            Request::SelectRangeMd { .. } => 3,
            Request::Insert { .. } => 4,
            Request::Delete { .. } => 5,
            Request::MetricsSnapshot => 6,
            Request::Shutdown => 7,
        }
    }

    /// Encodes this request with a default (untracked, undeadlined) header.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_with(RequestHeader::default())
    }

    /// Encodes this request as one frame payload carrying `hdr`.
    pub fn encode_with(&self, hdr: RequestHeader) -> Vec<u8> {
        let mut out = vec![PROTO_VERSION, self.tag()];
        out.extend_from_slice(&hdr.request_id.to_le_bytes());
        match hdr.deadline_ms {
            None => out.push(0),
            Some(ms) => {
                out.push(1);
                out.extend_from_slice(&ms.to_le_bytes());
            }
        }
        match self {
            Request::Ping | Request::MetricsSnapshot | Request::Shutdown => {}
            Request::Select { seed, pred } | Request::Between { seed, pred } => {
                out.extend_from_slice(&seed.to_le_bytes());
                pred.encode_into(&mut out);
            }
            Request::SelectRangeMd { seed, dims } => {
                out.extend_from_slice(&seed.to_le_bytes());
                out.extend_from_slice(&(dims.len() as u16).to_le_bytes());
                for [lo, hi] in dims {
                    lo.encode_into(&mut out);
                    hi.encode_into(&mut out);
                }
            }
            Request::Insert { tuple } | Request::Delete { tuple } => {
                out.extend_from_slice(&tuple.to_le_bytes());
            }
        }
        out
    }

    /// Decodes one request payload into its resilience header and body.
    ///
    /// # Errors
    /// [`ProtoError`] on version mismatch, unknown tag, or structural
    /// damage. Never panics, never over-allocates on lying counts; hostile
    /// `request_id`/`deadline_ms` values are data, not errors.
    pub fn decode(bytes: &[u8]) -> Result<(RequestHeader, Self), ProtoError> {
        let mut pos = 0usize;
        let ver = take_u8(bytes, &mut pos)?;
        if ver != PROTO_VERSION {
            return Err(ProtoError::UnsupportedVersion(ver));
        }
        let tag = take_u8(bytes, &mut pos)?;
        let request_id = take_u64(bytes, &mut pos)?;
        let deadline_ms = match take_u8(bytes, &mut pos)? {
            0 => None,
            1 => Some(take_u32(bytes, &mut pos)?),
            _ => return Err(ProtoError::Malformed("deadline flag")),
        };
        let hdr = RequestHeader {
            request_id,
            deadline_ms,
        };
        let req = match tag {
            0 => Request::Ping,
            1 | 2 => {
                let seed = take_u64(bytes, &mut pos)?;
                let pred = take_pred(bytes, &mut pos)?;
                if tag == 1 {
                    Request::Select { seed, pred }
                } else {
                    Request::Between { seed, pred }
                }
            }
            3 => {
                let seed = take_u64(bytes, &mut pos)?;
                let ndims = take_u16(bytes, &mut pos)? as usize;
                if ndims > MAX_MD_DIMS {
                    return Err(ProtoError::Malformed("dimension count over cap"));
                }
                let mut dims = Vec::with_capacity(ndims);
                for _ in 0..ndims {
                    let lo = take_pred(bytes, &mut pos)?;
                    let hi = take_pred(bytes, &mut pos)?;
                    dims.push([lo, hi]);
                }
                Request::SelectRangeMd { seed, dims }
            }
            4 => Request::Insert {
                tuple: take_u32(bytes, &mut pos)?,
            },
            5 => Request::Delete {
                tuple: take_u32(bytes, &mut pos)?,
            },
            6 => Request::MetricsSnapshot,
            7 => Request::Shutdown,
            t => return Err(ProtoError::UnknownTag(t)),
        };
        finish(bytes, pos)?;
        Ok((hdr, req))
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

fn encode_stats(stats: &QueryStats, out: &mut Vec<u8>) {
    for v in [
        stats.qpf_uses,
        stats.k_before as u64,
        stats.k_after as u64,
        stats.splits as u64,
        stats.filter_probes,
        stats.ns_width,
        stats.oracle_batches,
        stats.pruned_true as u64,
        stats.pruned_false as u64,
        stats.overflow_scanned as u64,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn decode_stats(bytes: &[u8], pos: &mut usize) -> Result<QueryStats, ProtoError> {
    let mut f = [0u64; 10];
    for v in &mut f {
        *v = take_u64(bytes, pos)?;
    }
    Ok(QueryStats {
        qpf_uses: f[0],
        k_before: f[1] as usize,
        k_after: f[2] as usize,
        splits: f[3] as usize,
        filter_probes: f[4],
        ns_width: f[5],
        oracle_batches: f[6],
        pruned_true: f[7] as usize,
        pruned_false: f[8] as usize,
        overflow_scanned: f[9] as usize,
    })
}

impl Response {
    /// Encodes this response as one frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![PROTO_VERSION];
        match self {
            Response::Ok => out.push(0),
            Response::Selection { seq, tuples, stats } => {
                out.push(1);
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&(tuples.len() as u32).to_le_bytes());
                out.reserve(4 * tuples.len() + 8 * 10); // ids, then ten u64 stats
                for t in tuples {
                    out.extend_from_slice(&t.to_le_bytes());
                }
                encode_stats(stats, &mut out);
            }
            Response::Inserted { seq, outcomes } => {
                out.push(2);
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&(outcomes.len() as u32).to_le_bytes());
                for (attr, outcome) in outcomes {
                    out.extend_from_slice(&attr.to_le_bytes());
                    match outcome {
                        InsertOutcome::Placed { rank } => {
                            out.push(0);
                            out.extend_from_slice(&(*rank as u64).to_le_bytes());
                        }
                        InsertOutcome::Parked { lo, hi } => {
                            out.push(1);
                            out.extend_from_slice(&(*lo as u64).to_le_bytes());
                            out.extend_from_slice(&(*hi as u64).to_le_bytes());
                        }
                    }
                }
            }
            Response::Deleted { seq } => {
                out.push(3);
                out.extend_from_slice(&seq.to_le_bytes());
            }
            Response::Metrics { json } => {
                out.push(4);
                out.extend_from_slice(&(json.len() as u32).to_le_bytes());
                out.extend_from_slice(json.as_bytes());
            }
            Response::Error { code, message } => {
                out.push(5);
                out.extend_from_slice(&code.to_le_bytes());
                out.extend_from_slice(&(message.len() as u32).to_le_bytes());
                out.extend_from_slice(message.as_bytes());
            }
        }
        out
    }

    /// Decodes one response payload.
    ///
    /// # Errors
    /// As [`Request::decode`].
    pub fn decode(bytes: &[u8]) -> Result<Self, ProtoError> {
        let mut pos = 0usize;
        let ver = take_u8(bytes, &mut pos)?;
        if ver != PROTO_VERSION {
            return Err(ProtoError::UnsupportedVersion(ver));
        }
        let tag = take_u8(bytes, &mut pos)?;
        let resp = match tag {
            0 => Response::Ok,
            1 => {
                let seq = take_u64(bytes, &mut pos)?;
                let count = take_u32(bytes, &mut pos)? as usize;
                if count > bytes.len().saturating_sub(pos) / 4 {
                    return Err(ProtoError::Malformed("tuple count lies"));
                }
                let tuples = take(bytes, &mut pos, count * 4)?
                    .chunks_exact(4)
                    .map(|id| u32::from_le_bytes(id.try_into().expect("4 bytes")))
                    .collect();
                let stats = decode_stats(bytes, &mut pos)?;
                Response::Selection { seq, tuples, stats }
            }
            2 => {
                let seq = take_u64(bytes, &mut pos)?;
                let count = take_u32(bytes, &mut pos)? as usize;
                // Smallest outcome entry: attr u32 + tag u8 + rank u64.
                if count > bytes.len().saturating_sub(pos) / 13 {
                    return Err(ProtoError::Malformed("outcome count lies"));
                }
                let mut outcomes = Vec::with_capacity(count);
                for _ in 0..count {
                    let attr = take_u32(bytes, &mut pos)?;
                    let outcome = match take_u8(bytes, &mut pos)? {
                        0 => InsertOutcome::Placed {
                            rank: take_u64(bytes, &mut pos)? as usize,
                        },
                        1 => InsertOutcome::Parked {
                            lo: take_u64(bytes, &mut pos)? as usize,
                            hi: take_u64(bytes, &mut pos)? as usize,
                        },
                        _ => return Err(ProtoError::Malformed("unknown outcome tag")),
                    };
                    outcomes.push((attr, outcome));
                }
                Response::Inserted { seq, outcomes }
            }
            3 => Response::Deleted {
                seq: take_u64(bytes, &mut pos)?,
            },
            4 => {
                let len = take_u32(bytes, &mut pos)? as usize;
                let raw = take(bytes, &mut pos, len)?;
                let json = String::from_utf8(raw.to_vec())
                    .map_err(|_| ProtoError::Malformed("metrics not UTF-8"))?;
                Response::Metrics { json }
            }
            5 => {
                let code = take_u16(bytes, &mut pos)?;
                let len = take_u32(bytes, &mut pos)? as usize;
                let raw = take(bytes, &mut pos, len)?;
                let message = String::from_utf8(raw.to_vec())
                    .map_err(|_| ProtoError::Malformed("message not UTF-8"))?;
                Response::Error { code, message }
            }
            t => return Err(ProtoError::UnknownTag(t)),
        };
        finish(bytes, pos)?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prkb_edbms::{ComparisonOp, Predicate};

    fn roundtrip_req(req: Request<Predicate>) {
        let bytes = req.encode();
        let (hdr, decoded) = Request::decode(&bytes).expect("decode");
        assert_eq!(hdr, RequestHeader::default());
        assert_eq!(decoded, req);
        // And with every deadline-edge header: absent, immediate expiry,
        // ordinary, and the 49.7-day maximum.
        for deadline_ms in [None, Some(0), Some(1_500), Some(u32::MAX)] {
            let hdr = RequestHeader {
                request_id: 0xDEAD_BEEF_CAFE_F00D,
                deadline_ms,
            };
            let bytes = req.encode_with(hdr);
            let (got_hdr, decoded) = Request::decode(&bytes).expect("decode with header");
            assert_eq!(got_hdr, hdr);
            assert_eq!(decoded, req);
        }
    }

    fn roundtrip_resp(resp: Response) {
        let bytes = resp.encode();
        assert_eq!(Response::decode(&bytes).expect("decode"), resp);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_req(Request::Ping);
        roundtrip_req(Request::Select {
            seed: 7,
            pred: Predicate::cmp(0, ComparisonOp::Lt, 500),
        });
        roundtrip_req(Request::Between {
            seed: 9,
            pred: Predicate::between(2, 10, 90),
        });
        roundtrip_req(Request::SelectRangeMd {
            seed: 11,
            dims: vec![
                [
                    Predicate::cmp(0, ComparisonOp::Gt, 1),
                    Predicate::cmp(0, ComparisonOp::Lt, 9),
                ],
                [
                    Predicate::cmp(1, ComparisonOp::Ge, 4),
                    Predicate::cmp(1, ComparisonOp::Le, 6),
                ],
            ],
        });
        roundtrip_req(Request::Insert { tuple: 42 });
        roundtrip_req(Request::Delete { tuple: 13 });
        roundtrip_req(Request::MetricsSnapshot);
        roundtrip_req(Request::Shutdown);
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_resp(Response::Ok);
        roundtrip_resp(Response::Selection {
            seq: 3,
            tuples: vec![5, 1, 9],
            stats: QueryStats {
                qpf_uses: 100,
                k_before: 1,
                k_after: 2,
                splits: 1,
                filter_probes: 3,
                ns_width: 40,
                oracle_batches: 2,
                pruned_true: 1,
                pruned_false: 0,
                overflow_scanned: 2,
            },
        });
        roundtrip_resp(Response::Inserted {
            seq: 4,
            outcomes: vec![
                (0, InsertOutcome::Placed { rank: 3 }),
                (1, InsertOutcome::Parked { lo: 1, hi: 5 }),
            ],
        });
        roundtrip_resp(Response::Deleted { seq: 5 });
        roundtrip_resp(Response::Metrics {
            json: "{\"schema\":\"prkb-metrics/v6\"}".into(),
        });
        roundtrip_resp(Response::Error {
            code: code::MALFORMED,
            message: "nope".into(),
        });
    }

    #[test]
    fn version_and_tag_rejected() {
        let mut bytes = Request::<Predicate>::Ping.encode();
        bytes[0] = 99;
        assert!(matches!(
            Request::<Predicate>::decode(&bytes),
            Err(ProtoError::UnsupportedVersion(99))
        ));
        let mut bytes = Request::<Predicate>::Ping.encode();
        bytes[1] = 200;
        assert!(matches!(
            Request::<Predicate>::decode(&bytes),
            Err(ProtoError::UnknownTag(200))
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = Request::<Predicate>::Ping.encode();
        bytes.push(0);
        assert!(matches!(
            Request::<Predicate>::decode(&bytes),
            Err(ProtoError::Malformed("trailing bytes"))
        ));
    }

    #[test]
    fn lying_dim_count_rejected() {
        let req = Request::SelectRangeMd {
            seed: 1,
            dims: vec![[
                Predicate::cmp(0, ComparisonOp::Gt, 1),
                Predicate::cmp(0, ComparisonOp::Lt, 9),
            ]],
        };
        let mut bytes = req.encode();
        // The u16 dim count sits after ver, tag, the 9-byte no-deadline
        // request header, and the seed.
        bytes[19] = 0xFF;
        bytes[20] = 0xFF;
        assert!(Request::<Predicate>::decode(&bytes).is_err());
    }

    #[test]
    fn bad_deadline_flag_rejected() {
        let mut bytes = Request::<Predicate>::Ping.encode();
        // The deadline presence flag sits after ver, tag, request_id.
        assert_eq!(bytes[10], 0, "no-deadline encoding uses flag 0");
        bytes[10] = 7;
        assert!(matches!(
            Request::<Predicate>::decode(&bytes),
            Err(ProtoError::Malformed("deadline flag"))
        ));
    }

    #[test]
    fn empty_and_truncated_payloads_are_errors() {
        assert!(Request::<Predicate>::decode(&[]).is_err());
        assert!(Request::<Predicate>::decode(&[PROTO_VERSION]).is_err());
        let full = Request::Select {
            seed: 3,
            pred: Predicate::cmp(0, ComparisonOp::Lt, 10),
        }
        .encode();
        for cut in 0..full.len() {
            assert!(
                Request::<Predicate>::decode(&full[..cut]).is_err(),
                "cut {cut}"
            );
        }
    }
}
