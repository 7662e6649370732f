//! Durable, crash-recoverable PRKB: one commit path for every front end.
//!
//! A [`PrkbEngine`](crate::engine::PrkbEngine) whose whole value is
//! *accumulated* (every answered query refines the index, §5.3) must not
//! lose that accumulation to a process crash. Durability has exactly one
//! implementation, the shard-local group-commit pipeline
//! [`ShardCommitter`]:
//!
//! * every committed mutation is journaled as [`RefinementOp`]s, encoded as
//!   **one write-ahead-log transaction per committed operation**, enqueued,
//!   and fsync'd (group-committed) *before* the query result is returned —
//!   an acknowledged refinement is never lost;
//! * the WAL is **checkpoint-rotated** by policy
//!   ([`EngineConfig::checkpoint_wal_records`] /
//!   [`EngineConfig::checkpoint_wal_bytes`]): the partitions dirtied since
//!   the last rotation are written as one immutable segment
//!   ([`crate::lsm`]), a segment manifest at the next **epoch** is swapped
//!   in atomically, and only then is a fresh WAL started and the stale one
//!   removed;
//! * **recovery** opens the segment manifest, replays the matching epoch's
//!   WAL, silently discards a torn tail (partial final record — the residue
//!   of a crash mid-append), and refuses to open on mid-log corruption (a
//!   bad record *followed by* valid ones) — restoring a committed prefix,
//!   `validate()`d before use. A v1 monolithic `checkpoint.bin` is read
//!   only as migration input and folded into segment 0 on first open.
//!
//! [`ShardedDurablePool`] runs one committer per shard; [`DurableEngine`] is
//! the same `(engine, committer)` pair a pool shard is, driven one
//! operation at a time, plus lazy partition loading.
//!
//! Epochs make the manifest/WAL pair crash-consistent without ever
//! truncating a live log: the manifest at epoch `E+1` subsumes
//! `wal.<E>.log` *by construction* (its segments serialize the in-memory
//! state that log produced), so a crash between the manifest swap and the
//! old log's removal cannot double-replay — recovery only ever reads the
//! WAL whose epoch matches the manifest.

use crate::engine::{EngineConfig, PrkbEngine, QueryError};
use crate::knowledge::{Knowledge, RefinementOp, Separator};
use crate::lsm::compaction::compact_dir;
use crate::lsm::manifest::{read_segment_manifest, write_segment_manifest, SegmentManifest};
use crate::lsm::reader::SegmentStore;
use crate::lsm::segment::write_segment;
use crate::lsm::SEGMENT_MANIFEST_FILE;
use crate::metrics::Metric;
use crate::selection::Selection;
use crate::shard::ShardMap;
use crate::snapshot::{self, SnapshotError, WireCodec};
use crate::storage::{real_fs, StorageFs};
use crate::traits::SpPredicate;
use prkb_edbms::durability::{crc32, CrashInjector, CrashPoint, DurabilityError, TailStatus, Wal};
use prkb_edbms::{AttrId, SelectionOracle, TupleId};
use rand::Rng;
use std::collections::BTreeSet;
use std::fmt;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// File name of a v1 monolithic checkpoint — read only as migration input.
pub const CHECKPOINT_FILE: &str = "checkpoint.bin";
/// v1 checkpoint magic.
const CKPT_MAGIC: &[u8; 4] = b"PCKP";
/// v1 checkpoint format version.
const CKPT_VERSION: u16 = 1;

/// Errors raised by the durable engine.
#[derive(Debug)]
pub enum DurableError {
    /// The storage layer failed (I/O, injected crash, WAL framing).
    Storage(DurabilityError),
    /// The query itself failed (oracle, uninitialized attribute). The
    /// in-memory engine is abort-safe and nothing was logged.
    Query(QueryError),
    /// A v1 `checkpoint.bin` awaiting migration is damaged. It was written
    /// atomically, so damage here is real corruption — the engine refuses
    /// to open.
    CorruptCheckpoint(&'static str),
    /// A CRC-valid WAL record failed to decode or to replay cleanly —
    /// corruption that slipped past framing; the engine refuses to open.
    CorruptWal(&'static str),
    /// The sharded-pool manifest is damaged. Like checkpoints it is
    /// written atomically, so damage here is real corruption.
    CorruptManifest(&'static str),
    /// A segment file or the segment manifest of the checkpoint store
    /// ([`crate::lsm`]) is damaged: torn framing, a CRC-failing
    /// block, or a manifest referencing a missing segment. Published
    /// segments are immutable and manifests swap atomically, so damage
    /// here is real corruption, never crash residue.
    CorruptSegment(&'static str),
    /// A previous durability failure left the in-memory state possibly
    /// ahead of the disk; this handle refuses further work. Reopen from
    /// disk ([`DurableEngine::open`]) to resume from the durable state.
    Poisoned,
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Storage(e) => write!(f, "{e}"),
            DurableError::Query(e) => write!(f, "{e}"),
            DurableError::CorruptCheckpoint(what) => write!(f, "corrupt checkpoint: {what}"),
            DurableError::CorruptWal(what) => write!(f, "corrupt WAL record: {what}"),
            DurableError::CorruptManifest(what) => write!(f, "corrupt shard manifest: {what}"),
            DurableError::CorruptSegment(what) => write!(f, "corrupt segment storage: {what}"),
            DurableError::Poisoned => write!(
                f,
                "engine poisoned by an earlier durability failure; reopen from disk"
            ),
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableError::Storage(e) => Some(e),
            DurableError::Query(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DurabilityError> for DurableError {
    fn from(e: DurabilityError) -> Self {
        DurableError::Storage(e)
    }
}

impl From<QueryError> for DurableError {
    fn from(e: QueryError) -> Self {
        DurableError::Query(e)
    }
}

impl From<SnapshotError> for DurableError {
    fn from(e: SnapshotError) -> Self {
        DurableError::CorruptCheckpoint(match e {
            SnapshotError::BadHeader => "bad snapshot header",
            SnapshotError::Truncated(w) | SnapshotError::Inconsistent(w) => w,
        })
    }
}

/// What [`DurableEngine::open`] found on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whether a segment manifest was found (false ⇒ cold directory or
    /// WAL-only recovery from epoch 0).
    pub checkpoint_loaded: bool,
    /// Committed WAL transactions replayed on top of the checkpoint.
    pub records_replayed: u64,
    /// Whether a torn tail was discarded from the WAL.
    pub tail: TailStatus,
    /// The active checkpoint/WAL epoch.
    pub epoch: u64,
    /// Live segment files referenced by the manifest (0 for a cold
    /// directory).
    pub segments_live: u64,
    /// Partitions actually deserialized during recovery — only those the
    /// WAL tail touched. Everything else stays on disk until a query asks
    /// for it, which is what keeps restart cost O(manifest + tail) instead
    /// of O(KB).
    pub partitions_loaded: u64,
}

// ---------------------------------------------------------------------------
// Wire codec: ops and transactions
// ---------------------------------------------------------------------------

/// One entry of a WAL transaction: an attribute initialization or a
/// journaled mutation.
#[derive(Debug, Clone)]
pub enum TxnEntry<P> {
    /// `initPRKB(attr, n)` — replayed as [`PrkbEngine::init_attr`].
    Init {
        /// The initialized attribute.
        attr: AttrId,
        /// Tuple-slot count at initialization.
        n: u64,
    },
    /// A journaled mutation of one attribute's knowledge base.
    Op {
        /// The mutated attribute.
        attr: AttrId,
        /// The mutation.
        op: RefinementOp<P>,
    },
}

fn encode_op<P: WireCodec>(op: &RefinementOp<P>, out: &mut Vec<u8>) {
    match op {
        RefinementOp::Split {
            rank,
            left,
            right,
            sep,
        } => {
            out.push(0);
            out.extend_from_slice(&(*rank as u64).to_le_bytes());
            snapshot::encode_separator_into(sep.as_ref(), out);
            out.extend_from_slice(&(left.len() as u32).to_le_bytes());
            for t in left {
                out.extend_from_slice(&t.to_le_bytes());
            }
            out.extend_from_slice(&(right.len() as u32).to_le_bytes());
            for t in right {
                out.extend_from_slice(&t.to_le_bytes());
            }
        }
        RefinementOp::Delete { tuple } => {
            out.push(1);
            out.extend_from_slice(&tuple.to_le_bytes());
        }
        RefinementOp::Park { tuple, lo, hi } => {
            out.push(2);
            out.extend_from_slice(&tuple.to_le_bytes());
            out.extend_from_slice(&(*lo as u64).to_le_bytes());
            out.extend_from_slice(&(*hi as u64).to_le_bytes());
        }
        RefinementOp::Place { tuple, rank } => {
            out.push(3);
            out.extend_from_slice(&tuple.to_le_bytes());
            out.extend_from_slice(&(*rank as u64).to_le_bytes());
        }
        RefinementOp::Solo { tuple } => {
            out.push(4);
            out.extend_from_slice(&tuple.to_le_bytes());
        }
        RefinementOp::Refine {
            cut,
            left_label,
            outputs,
        } => {
            out.push(5);
            out.extend_from_slice(&(*cut as u64).to_le_bytes());
            out.push(u8::from(*left_label));
            out.extend_from_slice(&(outputs.len() as u32).to_le_bytes());
            for (t, o) in outputs {
                out.extend_from_slice(&t.to_le_bytes());
                out.push(u8::from(*o));
            }
        }
    }
}

fn take<'a>(bytes: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], DurableError> {
    let s = bytes
        .get(*pos..*pos + n)
        .ok_or(DurableError::CorruptWal("record truncated"))?;
    *pos += n;
    Ok(s)
}

fn take_u32(bytes: &[u8], pos: &mut usize) -> Result<u32, DurableError> {
    Ok(u32::from_le_bytes(
        take(bytes, pos, 4)?.try_into().expect("4 bytes"),
    ))
}

fn take_u64(bytes: &[u8], pos: &mut usize) -> Result<u64, DurableError> {
    Ok(u64::from_le_bytes(
        take(bytes, pos, 8)?.try_into().expect("8 bytes"),
    ))
}

fn take_tuples(bytes: &[u8], pos: &mut usize) -> Result<Vec<TupleId>, DurableError> {
    let n = take_u32(bytes, pos)? as usize;
    // Bound the allocation against the stream before trusting the count.
    if n > bytes.len().saturating_sub(*pos) / 4 {
        return Err(DurableError::CorruptWal("tuple list count lies"));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(take_u32(bytes, pos)?);
    }
    Ok(out)
}

fn decode_sep<P: WireCodec>(
    bytes: &[u8],
    pos: &mut usize,
) -> Result<Option<Separator<P>>, DurableError> {
    snapshot::decode_separator(bytes, pos).map_err(|_| DurableError::CorruptWal("separator"))
}

fn decode_op<P: WireCodec>(bytes: &[u8], pos: &mut usize) -> Result<RefinementOp<P>, DurableError> {
    let tag = take(bytes, pos, 1)?[0];
    Ok(match tag {
        0 => {
            let rank = take_u64(bytes, pos)? as usize;
            let sep = decode_sep(bytes, pos)?;
            let left = take_tuples(bytes, pos)?;
            let right = take_tuples(bytes, pos)?;
            RefinementOp::Split {
                rank,
                left,
                right,
                sep,
            }
        }
        1 => RefinementOp::Delete {
            tuple: take_u32(bytes, pos)?,
        },
        2 => RefinementOp::Park {
            tuple: take_u32(bytes, pos)?,
            lo: take_u64(bytes, pos)? as usize,
            hi: take_u64(bytes, pos)? as usize,
        },
        3 => RefinementOp::Place {
            tuple: take_u32(bytes, pos)?,
            rank: take_u64(bytes, pos)? as usize,
        },
        4 => RefinementOp::Solo {
            tuple: take_u32(bytes, pos)?,
        },
        5 => {
            let cut = take_u64(bytes, pos)? as usize;
            let left_label = take(bytes, pos, 1)?[0] != 0;
            let n = take_u32(bytes, pos)? as usize;
            if n > bytes.len().saturating_sub(*pos) / 5 {
                return Err(DurableError::CorruptWal("refine output count lies"));
            }
            let mut outputs = Vec::with_capacity(n);
            for _ in 0..n {
                let t = take_u32(bytes, pos)?;
                let o = take(bytes, pos, 1)?[0] != 0;
                outputs.push((t, o));
            }
            RefinementOp::Refine {
                cut,
                left_label,
                outputs,
            }
        }
        _ => return Err(DurableError::CorruptWal("unknown op tag")),
    })
}

/// Encodes one WAL transaction payload: `count u32 | entries`, entry =
/// `kind u8` (0 = Init `attr u32 | n u64`, 1 = Op `attr u32 | op`).
pub fn encode_txn<P: WireCodec>(entries: &[TxnEntry<P>]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + entries.len() * 16);
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for e in entries {
        match e {
            TxnEntry::Init { attr, n } => {
                out.push(0);
                out.extend_from_slice(&attr.to_le_bytes());
                out.extend_from_slice(&n.to_le_bytes());
            }
            TxnEntry::Op { attr, op } => {
                out.push(1);
                out.extend_from_slice(&attr.to_le_bytes());
                encode_op(op, &mut out);
            }
        }
    }
    out
}

/// Decodes one WAL transaction payload.
///
/// # Errors
/// [`DurableError::CorruptWal`] on any structural damage (these payloads sit
/// behind a CRC, so damage here means corruption beyond bit-rot framing).
pub fn decode_txn<P: WireCodec>(bytes: &[u8]) -> Result<Vec<TxnEntry<P>>, DurableError> {
    let mut pos = 0usize;
    let count = take_u32(bytes, &mut pos)? as usize;
    // An Init entry is 13 bytes; every Op is at least 10. Bound by the
    // smaller before allocating.
    if count > bytes.len().saturating_sub(pos) / 10 + 1 {
        return Err(DurableError::CorruptWal("entry count lies"));
    }
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let kind = take(bytes, &mut pos, 1)?[0];
        let attr = take_u32(bytes, &mut pos)?;
        entries.push(match kind {
            0 => TxnEntry::Init {
                attr,
                n: take_u64(bytes, &mut pos)?,
            },
            1 => TxnEntry::Op {
                attr,
                op: decode_op(bytes, &mut pos)?,
            },
            _ => return Err(DurableError::CorruptWal("unknown entry kind")),
        });
    }
    if pos != bytes.len() {
        return Err(DurableError::CorruptWal("trailing bytes in record"));
    }
    Ok(entries)
}

// ---------------------------------------------------------------------------
// v1 checkpoints (migration input only)
// ---------------------------------------------------------------------------

/// Restored checkpoint payload: epoch + per-attribute knowledge.
pub(crate) type CheckpointState<P> = (u64, Vec<(AttrId, Knowledge<P>)>);

/// Parses a v1 checkpoint file: `"PCKP" | version u16 | epoch u64 |
/// n_attrs u32 | (attr u32 | len u64 | snapshot bytes)* | crc32 u32`, the
/// checksum covering everything before it.
pub(crate) fn decode_checkpoint<P: SpPredicate + WireCodec>(
    bytes: &[u8],
) -> Result<CheckpointState<P>, DurableError> {
    let body_len = bytes
        .len()
        .checked_sub(4)
        .ok_or(DurableError::CorruptCheckpoint("too short"))?;
    let stored = u32::from_le_bytes(bytes[body_len..].try_into().expect("4 bytes"));
    if crc32(&bytes[..body_len]) != stored {
        return Err(DurableError::CorruptCheckpoint("checksum mismatch"));
    }
    let bytes = &bytes[..body_len];
    let mut pos = 0usize;
    let fail = |_| DurableError::CorruptCheckpoint("truncated");
    if take(bytes, &mut pos, 4).map_err(fail)? != CKPT_MAGIC {
        return Err(DurableError::CorruptCheckpoint("bad magic"));
    }
    let version = u16::from_le_bytes(
        take(bytes, &mut pos, 2)
            .map_err(fail)?
            .try_into()
            .expect("2 bytes"),
    );
    if version != CKPT_VERSION {
        return Err(DurableError::CorruptCheckpoint("unknown version"));
    }
    let epoch = take_u64(bytes, &mut pos).map_err(fail)?;
    let n_attrs = take_u32(bytes, &mut pos).map_err(fail)? as usize;
    if n_attrs > bytes.len().saturating_sub(pos) / 12 {
        return Err(DurableError::CorruptCheckpoint("attr count lies"));
    }
    let mut kbs = Vec::with_capacity(n_attrs);
    for _ in 0..n_attrs {
        let attr = take_u32(bytes, &mut pos).map_err(fail)?;
        let len = take_u64(bytes, &mut pos).map_err(fail)? as usize;
        let snap = take(bytes, &mut pos, len).map_err(fail)?;
        let kb: Knowledge<P> = snapshot::load(snap)
            .map_err(|_| DurableError::CorruptCheckpoint("embedded snapshot"))?;
        kbs.push((attr, kb));
    }
    if pos != body_len {
        return Err(DurableError::CorruptCheckpoint("trailing bytes"));
    }
    Ok((epoch, kbs))
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

pub(crate) fn wal_name(epoch: u64) -> String {
    format!("wal.{epoch}.log")
}

/// Removes `path` if it exists; a missing file is fine, any other failure
/// is a real I/O error and is surfaced (nothing in the durability paths
/// swallows an I/O result).
fn remove_stale(fs: &dyn StorageFs, path: &Path) -> Result<(), DurableError> {
    match fs.remove_file(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(DurabilityError::Io(e).into()),
    }
}

/// Result of [`recover_shard`]: the rebuilt engine, the committer armed on
/// the live WAL, and what recovery found on disk.
struct RecoveredShard<P> {
    engine: PrkbEngine<P>,
    committer: ShardCommitter<P>,
    report: RecoveryReport,
    /// The open read handle over the live segment set (`None` on a cold
    /// directory).
    store: Option<SegmentStore>,
    /// Attrs whose newest version lives only in `store` — present in its
    /// index but never touched by the WAL tail, so never deserialized.
    unloaded: Vec<AttrId>,
}

/// Deserializes `attr`'s stored partition from the segment store, with
/// journaling armed: `restore_attr` leaves the partition clean, so only
/// refinements after the load dirty it or reach the WAL. `None` when the
/// store holds no version of `attr`.
fn load_partition<P: SpPredicate + WireCodec>(
    store: &SegmentStore,
    attr: AttrId,
) -> Result<Option<Knowledge<P>>, DurableError> {
    let Some(bytes) = store.load_attr(attr)? else {
        return Ok(None);
    };
    let mut kb: Knowledge<P> = snapshot::load(&bytes)
        .map_err(|_| DurableError::CorruptSegment("stored partition snapshot"))?;
    kb.set_recording(true);
    Ok(Some(kb))
}

/// Folds a v1 monolithic `checkpoint.bin` into segment 0 plus a manifest
/// at the same epoch, so a directory written before segmented checkpoints
/// upgrades in place on its first open. The caller removes the checkpoint
/// file after this returns; a crash in between just re-runs the removal on
/// the next open (the manifest already won).
fn migrate_v1_checkpoint<P: SpPredicate + WireCodec>(
    fs: &dyn StorageFs,
    dir: &Path,
    crash: &CrashInjector,
) -> Result<(), DurableError> {
    let bytes = fs
        .read(&dir.join(CHECKPOINT_FILE))
        .map_err(DurabilityError::Io)?;
    let (epoch, kbs) = decode_checkpoint::<P>(&bytes)?;
    let blocks: Vec<(AttrId, Vec<u8>)> = kbs
        .iter()
        .map(|(attr, kb)| (*attr, snapshot::save(kb)))
        .collect();
    let flushed = write_segment(fs, dir, 0, &blocks, crash)?;
    write_segment_manifest(
        fs,
        dir,
        &SegmentManifest {
            epoch,
            next_segment_id: 1,
            segments: vec![0],
        },
        crash,
    )?;
    crate::metrics::global().add(Metric::SegmentFlushBytes, flushed);
    Ok(())
}

/// The one recovery routine every durable front end opens through (each
/// shard of a [`ShardedDurablePool`], and the one shard a
/// [`DurableEngine`] is): migrate a waiting v1 checkpoint, open the segment
/// manifest, open or create the matching epoch's WAL, replay its committed
/// transactions, validate every attribute, drop stale-epoch logs, and arm
/// a committer on the live WAL.
///
/// Only the partitions the WAL tail touches are deserialized; everything
/// else stays on disk behind the returned [`SegmentStore`], which is what
/// keeps restart cost O(manifest + tail) instead of O(KB).
fn recover_shard<P: SpPredicate + WireCodec>(
    fs: Arc<dyn StorageFs>,
    dir: &Path,
    config: EngineConfig,
    crash: CrashInjector,
) -> Result<RecoveredShard<P>, DurableError> {
    let started = Instant::now();
    fs.create_dir_all(dir).map_err(DurabilityError::Io)?;
    // Leftover temp files are writes whose publishing rename never
    // happened; they are dead weight.
    remove_stale(fs.as_ref(), &dir.join(format!("{CHECKPOINT_FILE}.tmp")))?;
    remove_stale(
        fs.as_ref(),
        &dir.join(format!("{SEGMENT_MANIFEST_FILE}.tmp")),
    )?;
    for path in fs.read_dir(dir).map_err(DurabilityError::Io)? {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if name.starts_with("segment.") && name.ends_with(".seg.tmp") {
            remove_stale(fs.as_ref(), &path)?;
        }
    }

    let ckpt_path = dir.join(CHECKPOINT_FILE);
    if !fs.exists(&dir.join(SEGMENT_MANIFEST_FILE)) && fs.exists(&ckpt_path) {
        migrate_v1_checkpoint::<P>(fs.as_ref(), dir, &crash)?;
    }
    // Superseded by the manifest — either by the migration above or by one
    // an earlier open crashed out of before this removal.
    remove_stale(fs.as_ref(), &ckpt_path)?;
    let store = SegmentStore::open(Arc::clone(&fs), dir)?;
    let epoch = store.as_ref().map_or(0, |s| s.manifest().epoch);

    let mut engine = PrkbEngine::new(config);
    let mut partitions_loaded = 0u64;
    let wal_path = dir.join(wal_name(epoch));
    let (wal, payloads, tail) = if fs.exists(&wal_path) {
        Wal::open_on(fs.as_ref(), &wal_path, crash.clone())?
    } else {
        (
            Wal::create_on(fs.as_ref(), &wal_path, crash.clone())?,
            Vec::new(),
            TailStatus::Clean,
        )
    };
    let records_replayed = payloads.len() as u64;
    for payload in payloads {
        for entry in decode_txn::<P>(&payload)? {
            match entry {
                TxnEntry::Init { attr, n } => engine.init_attr(attr, n as usize),
                TxnEntry::Op { attr, op } => {
                    if engine.knowledge(attr).is_none() {
                        // The replayed ops below (via knowledge_mut) are
                        // exactly this partition's divergence from the
                        // stored version.
                        if let Some(store) = &store {
                            if let Some(kb) = load_partition(store, attr)? {
                                engine.restore_attr(attr, kb);
                                partitions_loaded += 1;
                            }
                        }
                    }
                    engine
                        .knowledge_mut(attr)
                        .ok_or(DurableError::CorruptWal("op for unknown attribute"))?
                        .apply_op(op);
                }
            }
        }
    }
    for attr in engine.attrs().collect::<Vec<_>>() {
        engine
            .knowledge(attr)
            .expect("attr enumerated above")
            .validate()
            .map_err(|_| DurableError::CorruptWal("replayed state fails validation"))?;
    }

    // Stale epochs (left by a crash inside checkpoint rotation) are
    // subsumed by the manifest; drop them. Enumeration and removal
    // failures surface — silently keeping a stale log would replay it
    // against the wrong checkpoint on some future recovery.
    for path in fs.read_dir(dir).map_err(DurabilityError::Io)? {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if let Some(e) = name
            .strip_prefix("wal.")
            .and_then(|s| s.strip_suffix(".log"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            if e != epoch {
                remove_stale(fs.as_ref(), &path)?;
            }
        }
    }

    engine.set_recording(true);
    let loaded: BTreeSet<AttrId> = engine.attrs().collect();
    let unloaded: Vec<AttrId> = store
        .as_ref()
        .map(|s| {
            s.attrs()
                .into_iter()
                .filter(|a| !loaded.contains(a))
                .collect()
        })
        .unwrap_or_default();
    let segments_live = store.as_ref().map_or(0, |s| s.segments_live() as u64);
    let m = crate::metrics::global();
    m.add(
        Metric::RecoveryMs,
        started.elapsed().as_millis().try_into().unwrap_or(u64::MAX),
    );
    if store.is_some() {
        m.set(Metric::SegmentsLive, segments_live);
    }
    let durable = wal.records();
    let committer = ShardCommitter {
        state: Mutex::new(CommitterState {
            wal: Some(wal),
            epoch,
            pending: Vec::new(),
            next_seq: durable + 1,
            durable_seq: durable,
            poisoned: false,
            sync_poison: None,
        }),
        cv: Condvar::new(),
        crash,
        dir: dir.to_path_buf(),
        fs,
        group_records: config.group_commit_records.max(1),
        max_wait: Duration::from_micros(config.group_commit_max_wait_us),
        _pred: PhantomData,
    };
    Ok(RecoveredShard {
        engine,
        committer,
        report: RecoveryReport {
            checkpoint_loaded: store.is_some(),
            records_replayed,
            tail,
            epoch,
            segments_live,
            partitions_loaded,
        },
        store,
        unloaded,
    })
}

/// Checkpoint: writes the engine's dirtied partitions as one new segment
/// and swaps in a manifest at `next_epoch` that appends it to the live
/// set. Writes O(dirty) bytes, never O(KB). An empty dirty set still
/// publishes an (empty) segment so epoch, manifest, and WAL rotate in
/// lockstep.
fn flush_segments<P: SpPredicate + WireCodec>(
    fs: &dyn StorageFs,
    dir: &Path,
    engine: &PrkbEngine<P>,
    next_epoch: u64,
    crash: &CrashInjector,
) -> Result<(), DurableError> {
    let manifest = read_segment_manifest(fs, dir)?.unwrap_or_else(SegmentManifest::empty);
    let id = manifest.next_segment_id;
    let mut blocks = Vec::new();
    for attr in engine.dirty_attrs() {
        if let Some(kb) = engine.knowledge(attr) {
            blocks.push((attr, snapshot::save(kb)));
        }
    }
    let flushed = write_segment(fs, dir, id, &blocks, crash)?;
    let mut segments = manifest.segments;
    segments.push(id);
    let segments_live = segments.len() as u64;
    write_segment_manifest(
        fs,
        dir,
        &SegmentManifest {
            epoch: next_epoch,
            next_segment_id: id + 1,
            segments,
        },
        crash,
    )?;
    let m = crate::metrics::global();
    m.add(Metric::SegmentFlushBytes, flushed);
    m.set(Metric::SegmentsLive, segments_live);
    Ok(())
}

// ---------------------------------------------------------------------------
// The durable engine: one shard, one operation at a time
// ---------------------------------------------------------------------------

/// A [`PrkbEngine`] whose every committed mutation is made durable before
/// the covering result is returned, and which recovers that state on
/// [`open`](Self::open).
///
/// It is exactly one pool shard — a recovered `(engine, committer)` pair —
/// driven one operation at a time: engine op → enqueue the journaled ops →
/// wait until durable → rotate the checkpoint if the policy asks. Unlike a
/// pool shard it keeps partitions lazy: after a reopen only the partitions
/// the WAL tail touched are in memory, the rest load from the segment
/// store on first touch.
///
/// All query entry points mirror the engine's fallible API
/// (`try_select*` / `try_insert` / `delete`), with one extra failure mode:
/// a [`DurableError::Storage`] *after* the in-memory engine committed a
/// refinement poisons the handle, because memory may now be ahead of disk.
/// The on-disk state is still a consistent committed prefix — reopen to
/// resume from it.
#[derive(Debug)]
pub struct DurableEngine<P> {
    engine: PrkbEngine<P>,
    committer: ShardCommitter<P>,
    /// The open read handle over the live segment set (`None` on a
    /// directory that has never checkpointed).
    store: Option<SegmentStore>,
    /// Attrs whose newest version lives only in `store`, materialized on
    /// first touch — what lets a KB bigger than RAM open instantly.
    unloaded: BTreeSet<AttrId>,
}

impl<P: SpPredicate + WireCodec> DurableEngine<P> {
    /// Opens (or creates) a durable engine rooted at `dir`, recovering any
    /// previous state. Crash injection is armed from the
    /// `PRKB_CRASH_POINT` environment variable (unset ⇒ disabled).
    ///
    /// # Errors
    /// Storage errors, plus [`DurableError::CorruptSegment`] /
    /// [`DurableError::CorruptWal`] / [`DurableError::CorruptCheckpoint`]
    /// when the on-disk state is damaged beyond the torn-tail case (which
    /// is silently discarded).
    ///
    /// # Panics
    /// When `PRKB_CRASH_POINT` is set but malformed (see
    /// [`CrashInjector::from_env`]).
    pub fn open(dir: &Path, config: EngineConfig) -> Result<(Self, RecoveryReport), DurableError> {
        Self::open_with_crash(dir, config, CrashInjector::from_env())
    }

    /// [`open`](Self::open) with an explicit crash-injection schedule
    /// (tests sweep every [`CrashPoint`]).
    pub fn open_with_crash(
        dir: &Path,
        config: EngineConfig,
        crash: CrashInjector,
    ) -> Result<(Self, RecoveryReport), DurableError> {
        Self::open_with_storage(dir, config, crash, real_fs())
    }

    /// [`open`](Self::open) on an arbitrary [`StorageFs`] — the hook the
    /// storage-fault sweep uses to make every write/fsync/rename lie.
    pub fn open_with_storage(
        dir: &Path,
        config: EngineConfig,
        crash: CrashInjector,
        fs: Arc<dyn StorageFs>,
    ) -> Result<(Self, RecoveryReport), DurableError> {
        let shard = recover_shard::<P>(fs, dir, config, crash)?;
        Ok((
            DurableEngine {
                engine: shard.engine,
                committer: shard.committer,
                store: shard.store,
                unloaded: shard.unloaded.into_iter().collect(),
            },
            shard.report,
        ))
    }

    /// The wrapped engine (read-only introspection). Partitions not yet
    /// materialized from the segment store are invisible here — call
    /// [`ensure_all_loaded`](Self::ensure_all_loaded) first when comparing
    /// whole-KB state.
    pub fn engine(&self) -> &PrkbEngine<P> {
        &self.engine
    }

    /// Materializes `attr` from the segment store if it is still lazy.
    fn ensure_attr(&mut self, attr: AttrId) -> Result<(), DurableError> {
        if !self.unloaded.contains(&attr) {
            return Ok(());
        }
        let store = self.store.as_ref().expect("unloaded attrs imply a store");
        let kb = load_partition(store, attr)?.ok_or(DurableError::CorruptSegment(
            "unloaded attr missing from store",
        ))?;
        self.engine.restore_attr(attr, kb);
        self.unloaded.remove(&attr);
        Ok(())
    }

    /// Loads every still-lazy partition from the segment store. Whole-KB
    /// introspection and state comparisons need this; per-predicate
    /// queries materialize only what they touch.
    ///
    /// # Errors
    /// [`DurableError::CorruptSegment`] when a stored partition fails its
    /// CRC or snapshot decode.
    pub fn ensure_all_loaded(&mut self) -> Result<(), DurableError> {
        while let Some(attr) = self.unloaded.first().copied() {
            self.ensure_attr(attr)?;
        }
        Ok(())
    }

    /// Attrs still waiting in the segment store, not yet deserialized.
    pub fn unloaded_attrs(&self) -> Vec<AttrId> {
        self.unloaded.iter().copied().collect()
    }

    /// The active checkpoint/WAL epoch.
    pub fn epoch(&self) -> u64 {
        self.committer.epoch()
    }

    /// Records in the active WAL (each = one committed operation).
    pub fn wal_records(&self) -> u64 {
        self.committer.wal_records()
    }

    /// Whether an earlier durability failure poisoned this handle.
    pub fn is_poisoned(&self) -> bool {
        self.committer.is_poisoned()
    }

    fn check_poison(&self) -> Result<(), DurableError> {
        self.committer.poison_error().map_or(Ok(()), Err)
    }

    /// Integrity-scrubs this engine's directory (see [`crate::scrub`]).
    /// With `quarantine`, hard-corrupt files are moved into `quarantine/`
    /// — never do that on a directory another live handle is using.
    pub fn scrub(&self, quarantine: bool) -> crate::scrub::ScrubReport {
        crate::scrub::scrub_engine_dir::<P>(
            self.committer.fs.as_ref(),
            &self.committer.dir,
            quarantine,
        )
    }

    /// Makes `entries` durable as one WAL transaction, then rotates the
    /// checkpoint if the policy says so.
    fn commit(&mut self, entries: &[TxnEntry<P>]) -> Result<(), DurableError> {
        let ticket = self.committer.enqueue(encode_txn(entries));
        self.committer.wait_durable(ticket)?;
        if self.committer.wants_checkpoint(&self.engine.config) {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Commits the journaled ops of the operation that just ran in memory.
    /// Every committed operation writes exactly one record — also when it
    /// refined nothing — so the WAL record count equals the
    /// committed-operation count.
    fn commit_ops(&mut self) -> Result<(), DurableError> {
        let entries: Vec<TxnEntry<P>> = self
            .engine
            .take_ops()
            .into_iter()
            .map(|(attr, op)| TxnEntry::Op { attr, op })
            .collect();
        self.commit(&entries)
    }

    /// Forces a checkpoint rotation (see [`ShardCommitter::checkpoint`]):
    /// only the partitions dirtied since the last rotation are written.
    ///
    /// # Errors
    /// Any storage failure poisons the handle (disk state is still a
    /// consistent committed prefix; reopen to resume).
    pub fn checkpoint(&mut self) -> Result<(), DurableError> {
        let compacted = self.committer.rotate(&mut self.engine)?;
        if compacted && !self.unloaded.is_empty() {
            // The fold deleted the segment files the lazy handle reads.
            self.store = SegmentStore::open(Arc::clone(&self.committer.fs), &self.committer.dir)?;
        }
        Ok(())
    }

    /// Durable `initPRKB`: initializes the attribute and logs the
    /// initialization before returning.
    ///
    /// # Errors
    /// Storage failures (which poison the handle).
    pub fn init_attr(&mut self, attr: AttrId, n: usize) -> Result<(), DurableError> {
        self.check_poison()?;
        // A re-init supersedes any stored version: drop the lazy marker so
        // a later touch can't clobber the fresh state with segment bytes.
        // init marks the attr dirty, so the next flush shadows the store.
        self.unloaded.remove(&attr);
        self.engine.init_attr(attr, n);
        // The fresh knowledge base starts with journaling off; re-arm it.
        self.engine.set_recording(true);
        self.commit(&[TxnEntry::Init { attr, n: n as u64 }])
    }

    /// Durable single-predicate selection: the refinement this query made
    /// is on disk before the result is returned.
    ///
    /// # Errors
    /// [`DurableError::Query`] leaves both memory and disk untouched
    /// (abort-safe engine); [`DurableError::Storage`] poisons the handle.
    pub fn try_select<O, R>(
        &mut self,
        oracle: &O,
        pred: &P,
        rng: &mut R,
    ) -> Result<Selection, DurableError>
    where
        O: SelectionOracle<Pred = P>,
        R: Rng,
    {
        self.check_poison()?;
        self.ensure_attr(pred.attr())?;
        let sel = self.engine.try_select(oracle, pred, rng)?;
        self.commit_ops()?;
        Ok(sel)
    }

    /// Durable conjunction selection (see
    /// [`PrkbEngine::try_select_conjunction`]).
    ///
    /// # Errors
    /// As [`try_select`](Self::try_select).
    pub fn try_select_conjunction<O, R>(
        &mut self,
        oracle: &O,
        preds: &[P],
        rng: &mut R,
    ) -> Result<Selection, DurableError>
    where
        O: SelectionOracle<Pred = P>,
        R: Rng,
    {
        self.check_poison()?;
        for pred in preds {
            self.ensure_attr(pred.attr())?;
        }
        let sel = self.engine.try_select_conjunction(oracle, preds, rng)?;
        self.commit_ops()?;
        Ok(sel)
    }

    /// Durable PRKB(MD) range selection (see
    /// [`PrkbEngine::try_select_range_md`]).
    ///
    /// # Errors
    /// As [`try_select`](Self::try_select).
    pub fn try_select_range_md<O, R>(
        &mut self,
        oracle: &O,
        dims: &[[P; 2]],
        rng: &mut R,
    ) -> Result<Selection, DurableError>
    where
        O: SelectionOracle<Pred = P>,
        R: Rng,
    {
        self.check_poison()?;
        for dim in dims {
            self.ensure_attr(dim[0].attr())?;
        }
        let sel = self.engine.try_select_range_md(oracle, dims, rng)?;
        self.commit_ops()?;
        Ok(sel)
    }

    /// Durable PRKB(SD+) range selection (see
    /// [`PrkbEngine::try_select_range_sdplus`]).
    ///
    /// # Errors
    /// As [`try_select`](Self::try_select).
    pub fn try_select_range_sdplus<O, R>(
        &mut self,
        oracle: &O,
        dims: &[[P; 2]],
        rng: &mut R,
    ) -> Result<Selection, DurableError>
    where
        O: SelectionOracle<Pred = P>,
        R: Rng,
    {
        self.check_poison()?;
        for dim in dims {
            self.ensure_attr(dim[0].attr())?;
        }
        let sel = self.engine.try_select_range_sdplus(oracle, dims, rng)?;
        self.commit_ops()?;
        Ok(sel)
    }

    /// Durable insert routing (see [`PrkbEngine::try_insert`]).
    ///
    /// # Errors
    /// As [`try_select`](Self::try_select).
    pub fn try_insert<O>(
        &mut self,
        oracle: &O,
        t: TupleId,
    ) -> Result<Vec<(AttrId, crate::insert::InsertOutcome)>, DurableError>
    where
        O: SelectionOracle<Pred = P>,
    {
        self.check_poison()?;
        // Inserts and deletes touch every attribute's partitions.
        self.ensure_all_loaded()?;
        let outcomes = self.engine.try_insert(oracle, t)?;
        self.commit_ops()?;
        Ok(outcomes)
    }

    /// Durable delete (see [`PrkbEngine::delete`]).
    ///
    /// # Errors
    /// Storage failures (which poison the handle).
    pub fn delete(&mut self, t: TupleId) -> Result<(), DurableError> {
        self.check_poison()?;
        self.ensure_all_loaded()?;
        self.engine.delete(t);
        self.commit_ops()
    }
}

// ---------------------------------------------------------------------------
// Sharded durability: per-shard WALs with group commit
// ---------------------------------------------------------------------------

/// Manifest file of a [`ShardedDurablePool`] directory.
pub const MANIFEST_FILE: &str = "manifest.bin";
/// Manifest magic.
const MANIFEST_MAGIC: &[u8; 4] = b"PSHD";
/// Manifest format version.
const MANIFEST_VERSION: u16 = 1;

/// Ack handle for one record enqueued on a [`ShardCommitter`]: redeem it
/// with [`ShardCommitter::wait_durable`] before acknowledging the commit
/// to a client.
#[derive(Debug, Clone, Copy)]
pub struct GroupCommitTicket {
    /// Shard epoch the record was enqueued under.
    epoch: u64,
    /// Sequence number within that epoch (1-based).
    seq: u64,
}

impl GroupCommitTicket {
    /// The `(shard_epoch, shard_seq)` commit position this ticket covers.
    pub fn position(&self) -> (u64, u64) {
        (self.epoch, self.seq)
    }
}

/// Mutable committer state, guarded by [`ShardCommitter::state`].
///
/// Invariant: `pending` holds the encoded payloads for exactly the
/// sequence numbers `durable_seq + in_flight + 1 ..= next_seq - 1` (in
/// order), where `in_flight` is the size of the batch a leader took out
/// while `wal` is `None`.
struct CommitterState {
    /// The shard's WAL; `None` while a leader has it out for a flush.
    wal: Option<Wal>,
    /// Active checkpoint/WAL epoch.
    epoch: u64,
    /// Encoded transaction payloads enqueued but not yet appended.
    pending: Vec<Vec<u8>>,
    /// Next sequence number to hand out (1-based within the epoch).
    next_seq: u64,
    /// Highest sequence number known durable in the current epoch.
    durable_seq: u64,
    /// Set after a flush or rotation failure: memory may be ahead of disk.
    poisoned: bool,
    /// When the poisoning failure was a sync failure, its reason: every
    /// queued waiter then gets [`DurabilityError::SyncFailed`] — an
    /// explicit "your fsync failed", never a durable ack.
    sync_poison: Option<String>,
}

impl CommitterState {
    /// The one poison transition: count it once (sync-class failures also
    /// as `sync_failures`), mark the shard poisoned, and keep the first
    /// sync-failure reason so later callers are told their disk lied.
    fn poison(&mut self, e: &DurableError) {
        if !self.poisoned {
            let m = crate::metrics::global();
            m.add(Metric::WalPoisoned, 1);
            if matches!(e, DurableError::Storage(DurabilityError::SyncFailed(_))) {
                m.add(Metric::SyncFailures, 1);
            }
        }
        self.poisoned = true;
        if let (None, DurableError::Storage(DurabilityError::SyncFailed(why))) =
            (&self.sync_poison, e)
        {
            self.sync_poison = Some(why.clone());
        }
    }

    /// The error a poisoned committer hands every caller: the sync-failure
    /// reason when the disk lied, the generic poisoned marker otherwise.
    fn poisoned_err(&self) -> DurableError {
        match &self.sync_poison {
            Some(why) => DurableError::Storage(DurabilityError::SyncFailed(why.clone())),
            None => DurableError::Poisoned,
        }
    }
}

impl fmt::Debug for CommitterState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CommitterState")
            .field("epoch", &self.epoch)
            .field("pending", &self.pending.len())
            .field("next_seq", &self.next_seq)
            .field("durable_seq", &self.durable_seq)
            .field("poisoned", &self.poisoned)
            .finish_non_exhaustive()
    }
}

/// A shard-local **group commit** pipeline: callers enqueue encoded WAL
/// transactions (atomically with the in-memory mutation, under the shard's
/// engine lock) and then block on [`wait_durable`](Self::wait_durable)
/// *after* releasing that lock. The first waiter to find the WAL idle
/// elects itself **leader** immediately, takes the WAL and up to
/// [`EngineConfig::group_commit_records`] pending payloads out of the
/// lock, appends them all, and pays **one** fsync for the lot — then wakes
/// the followers. Batching is self-clocking: commits that arrive while a
/// flush is in flight accumulate and become the next leader's batch, so a
/// lone committer pays exactly one fsync with no added latency while a
/// contended shard amortizes each fsync over every commit that landed
/// during the previous one. [`EngineConfig::group_commit_max_wait_us`]
/// bounds how long a follower sleeps between leadership checks when a
/// flush is in flight (a missed-wakeup guard — followers are normally
/// notified the moment the leader finishes).
///
/// Commit positions are `(shard_epoch, shard_seq)`; a checkpoint rotation
/// starts a new epoch and resets the sequence, and every record of an older
/// epoch is durable by construction (the checkpoint serialized its effect).
#[derive(Debug)]
pub struct ShardCommitter<P> {
    state: Mutex<CommitterState>,
    cv: Condvar,
    crash: CrashInjector,
    dir: PathBuf,
    fs: Arc<dyn StorageFs>,
    group_records: u64,
    max_wait: Duration,
    _pred: PhantomData<fn() -> P>,
}

impl<P: SpPredicate + WireCodec> ShardCommitter<P> {
    fn lock(&self) -> MutexGuard<'_, CommitterState> {
        self.state.lock().expect("committer lock poisoned")
    }

    /// Poisons the shard with `e`, wakes every waiter so each sees the
    /// poison, and hands `e` back for the caller to return.
    fn fail(&self, st: &mut CommitterState, e: DurableError) -> DurableError {
        st.poison(&e);
        self.cv.notify_all();
        e
    }

    /// Enqueues one encoded WAL transaction ([`encode_txn`]) for the next
    /// group flush and returns its ack ticket. Cheap and non-blocking —
    /// call it while still holding the shard's engine lock so the WAL
    /// order matches the in-memory commit order, then redeem the ticket
    /// with [`wait_durable`](Self::wait_durable) after releasing it.
    pub fn enqueue(&self, payload: Vec<u8>) -> GroupCommitTicket {
        let mut st = self.lock();
        let seq = st.next_seq;
        st.next_seq += 1;
        st.pending.push(payload);
        if st.pending.len() as u64 >= self.group_records {
            // Batch is full: wake any parked waiter to elect a leader now.
            self.cv.notify_all();
        }
        GroupCommitTicket {
            epoch: st.epoch,
            seq,
        }
    }

    /// Blocks until the ticket's record is fsync-durable and returns its
    /// `(shard_epoch, shard_seq)` position. The calling thread may be
    /// elected flush leader and do the I/O itself.
    ///
    /// # Errors
    /// [`DurableError::Poisoned`] if this or an earlier flush failed; the
    /// in-memory shard may then be ahead of disk and the pool must be
    /// reopened to resume from the durable prefix.
    pub fn wait_durable(&self, ticket: GroupCommitTicket) -> Result<(u64, u64), DurableError> {
        let mut st = self.lock();
        loop {
            // A rotation past the ticket's epoch subsumes it: the
            // checkpoint serialized the record's in-memory effect.
            if st.epoch > ticket.epoch || st.durable_seq >= ticket.seq {
                return Ok((ticket.epoch, ticket.seq));
            }
            if st.poisoned {
                return Err(st.poisoned_err());
            }
            if st.wal.is_some() {
                // The WAL is idle: lead now. Delaying would add latency
                // without growing the batch — commits arriving while this
                // flush runs form the next leader's batch.
                st = self.lead_flush(st)?;
                continue;
            }
            // A leader is mid-flush; it notifies on completion. The
            // timeout only guards against a missed wakeup.
            let wait = self
                .max_wait
                .clamp(Duration::from_micros(50), Duration::from_millis(50));
            st = self
                .cv
                .wait_timeout(st, wait)
                .expect("committer lock poisoned")
                .0;
        }
    }

    /// Takes the WAL and the oldest pending payloads (capped at
    /// `group_commit_records`) out of the lock, flushes them with a single
    /// fsync, and re-installs the WAL. Fires
    /// [`CrashPoint::BeforeGroupFlush`] at the flush boundary.
    fn lead_flush<'a>(
        &'a self,
        mut st: MutexGuard<'a, CommitterState>,
    ) -> Result<MutexGuard<'a, CommitterState>, DurableError> {
        let mut wal = st.wal.take().expect("caller checked wal presence");
        // Cap the batch so one fsync never covers unboundedly many commits
        // (bounds tail latency and crash-exposure granularity under burst).
        let take = (self.group_records as usize).min(st.pending.len());
        let batch: Vec<Vec<u8>> = st.pending.drain(..take).collect();
        let last = st.durable_seq + batch.len() as u64;
        drop(st);

        let result = (|| -> Result<(), DurableError> {
            self.crash.fire(CrashPoint::BeforeGroupFlush)?;
            let metrics = crate::metrics::global();
            for payload in &batch {
                let before = wal.bytes();
                wal.append_unsynced(payload)?;
                metrics.record_wal_txn(wal.bytes().saturating_sub(before));
            }
            wal.sync()?;
            metrics.add(Metric::GroupCommitBatches, 1);
            metrics.add(Metric::GroupCommitRecords, batch.len() as u64);
            metrics.add(Metric::GroupCommitFsyncs, 1);
            Ok(())
        })();

        let mut st = self.lock();
        match result {
            Ok(()) => {
                st.wal = Some(wal);
                st.durable_seq = last;
                self.cv.notify_all();
                Ok(st)
            }
            // The WAL handle is dropped: its file may hold a torn or
            // unsynced suffix. Recovery discards that suffix and lands on
            // the committed prefix. Queued waiters all get the poison
            // error — never a durable ack for a failed fsync.
            Err(e) => Err(self.fail(&mut st, e)),
        }
    }

    /// Leads flushes until nothing is pending and the WAL is idle, and
    /// returns with the lock held in that state.
    fn drain<'a>(
        &'a self,
        mut st: MutexGuard<'a, CommitterState>,
    ) -> Result<MutexGuard<'a, CommitterState>, DurableError> {
        loop {
            if st.poisoned {
                return Err(st.poisoned_err());
            }
            match &st.wal {
                Some(_) if st.pending.is_empty() => return Ok(st),
                Some(_) => st = self.lead_flush(st)?,
                None => {
                    st = self
                        .cv
                        .wait_timeout(st, Duration::from_millis(50))
                        .expect("committer lock poisoned")
                        .0;
                }
            }
        }
    }

    /// Flushes and fsyncs every pending record before returning — the
    /// graceful-drain barrier: after `flush()` returns `Ok`, every
    /// enqueued record is durable.
    ///
    /// # Errors
    /// [`DurableError::Poisoned`] if this or an earlier flush failed.
    pub fn flush(&self) -> Result<(), DurableError> {
        self.drain(self.lock()).map(drop)
    }

    /// Whether the checkpoint policy asks for a rotation (counting both
    /// appended and still-pending records against the thresholds).
    pub fn wants_checkpoint(&self, config: &EngineConfig) -> bool {
        let st = self.lock();
        let Some(wal) = st.wal.as_ref() else {
            return false;
        };
        let records = wal.records() + st.pending.len() as u64;
        let by_records = config.checkpoint_wal_records;
        let by_bytes = config.checkpoint_wal_bytes;
        (by_records > 0 && records >= by_records) || (by_bytes > 0 && wal.bytes() >= by_bytes)
    }

    /// Rotates the shard's checkpoint: flush pending, write one O(dirty)
    /// segment for `engine` and swap in the manifest at epoch + 1, start a
    /// fresh WAL at that epoch, retire the old log, reset the sequence, and
    /// fold the segment set once it reaches
    /// [`EngineConfig::compact_segment_threshold`]. The caller must hold
    /// the shard's engine lock and guarantee the shard is quiescent, so
    /// `engine` is exactly the state the flushed WAL produced. (`&mut`
    /// because a successful rotation clears the engine's dirty-partition
    /// set.) A crash at any boundary recovers: before the manifest swap
    /// the old segment set + WAL are intact; after it the new segment
    /// subsumes the old WAL.
    ///
    /// # Errors
    /// Storage failures poison the committer (disk keeps a consistent
    /// committed prefix; reopen the pool to resume).
    pub fn checkpoint(&self, engine: &mut PrkbEngine<P>) -> Result<(), DurableError> {
        self.rotate(engine).map(drop)
    }

    /// [`checkpoint`](Self::checkpoint), reporting whether the rotation
    /// ended in a compaction (which deletes the folded segment files).
    fn rotate(&self, engine: &mut PrkbEngine<P>) -> Result<bool, DurableError> {
        let mut st = self.drain(self.lock())?;
        let next = st.epoch + 1;
        let published = (|| -> Result<Wal, DurableError> {
            flush_segments(self.fs.as_ref(), &self.dir, engine, next, &self.crash)?;
            let new_wal = Wal::create_on(
                self.fs.as_ref(),
                &self.dir.join(wal_name(next)),
                self.crash.clone(),
            )?;
            self.crash.fire(CrashPoint::BeforeWalRetire)?;
            Ok(new_wal)
        })();
        let new_wal = published.map_err(|e| self.fail(&mut st, e))?;
        let old = st
            .wal
            .replace(new_wal)
            .expect("wal present after drain")
            .path()
            .to_path_buf();
        st.epoch = next;
        st.durable_seq = 0;
        st.next_seq = 1;
        engine.clear_dirty();
        self.cv.notify_all();
        // The manifest at `next` is durable, so a stale WAL left by a
        // failure below is harmless on disk — but a failing unlink or
        // compaction signals a sick volume; poison rather than limp along.
        let retired = (|| -> Result<bool, DurableError> {
            remove_stale(self.fs.as_ref(), &old)?;
            self.crash.fire(CrashPoint::AfterWalRetire)?;
            crate::metrics::global().add(Metric::Checkpoints, 1);
            let threshold = engine.config.compact_segment_threshold;
            Ok(threshold > 0 && self.compact_if_at_least(threshold)?)
        })();
        retired.map_err(|e| self.fail(&mut st, e))
    }

    /// Folds the shard's segment set when at least `threshold` segments
    /// are live; returns whether a fold happened.
    fn compact_if_at_least(&self, threshold: u64) -> Result<bool, DurableError> {
        let live = read_segment_manifest(self.fs.as_ref(), &self.dir)?
            .map_or(0, |m| m.segments.len() as u64);
        if live < threshold || compact_dir(&self.fs, &self.dir, &self.crash)?.is_none() {
            return Ok(false);
        }
        let live = read_segment_manifest(self.fs.as_ref(), &self.dir)?
            .map_or(0, |m| m.segments.len() as u64);
        crate::metrics::global().set(Metric::SegmentsLive, live);
        Ok(true)
    }

    /// Forces a compaction of this shard's segment set regardless of the
    /// threshold (`None` when at most one segment is live). Holds the
    /// committer lock for the duration, so commits on this shard queue
    /// behind the fold; in-memory queries are unaffected.
    ///
    /// # Errors
    /// Storage failures poison the committer.
    pub fn compact(&self) -> Result<Option<crate::lsm::CompactionStats>, DurableError> {
        let mut st = self.lock();
        if st.poisoned {
            return Err(st.poisoned_err());
        }
        compact_dir(&self.fs, &self.dir, &self.crash).map_err(|e| self.fail(&mut st, e))
    }

    /// The active checkpoint/WAL epoch.
    pub fn epoch(&self) -> u64 {
        self.lock().epoch
    }

    /// Records appended to the active WAL (pending excluded).
    pub fn wal_records(&self) -> u64 {
        self.lock().wal.as_ref().map_or(0, Wal::records)
    }

    /// Whether an earlier flush or rotation failure poisoned this shard.
    pub fn is_poisoned(&self) -> bool {
        self.lock().poisoned
    }

    /// The error a poisoned shard returns for new work, or `None` if the
    /// shard is healthy. Sync-class poison (a failed fsync) is reported as
    /// [`DurabilityError::SyncFailed`] with the original reason so callers
    /// — and the wire protocol — can distinguish "your disk lied about
    /// durability" from a crash-injection or codec poison.
    pub fn poison_error(&self) -> Option<DurableError> {
        let st = self.lock();
        st.poisoned.then(|| st.poisoned_err())
    }
}

fn write_manifest(fs: &dyn StorageFs, dir: &Path, shards: usize) -> Result<(), DurableError> {
    let mut out = Vec::new();
    out.extend_from_slice(MANIFEST_MAGIC);
    out.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
    out.extend_from_slice(&(shards as u32).to_le_bytes());
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    let tmp = dir.join(format!("{MANIFEST_FILE}.tmp"));
    fs.write(&tmp, &out).map_err(DurabilityError::Io)?;
    let mut f = fs.open_file(&tmp).map_err(DurabilityError::Io)?;
    f.sync_all().map_err(DurabilityError::Io)?;
    drop(f);
    fs.rename(&tmp, &dir.join(MANIFEST_FILE))
        .map_err(DurabilityError::Io)?;
    // Without the directory fsync the rename itself can be lost on crash,
    // leaving a pool that silently re-partitions on reopen. Never swallow it.
    fs.sync_dir(dir).map_err(DurabilityError::Io)?;
    Ok(())
}

/// Validates raw manifest bytes: `"PSHD" | version u16 | shards u32 | crc32`.
/// Shared by [`read_manifest`] and the scrubber.
pub(crate) fn decode_manifest(bytes: &[u8]) -> Result<usize, DurableError> {
    if bytes.len() != 14 {
        return Err(DurableError::CorruptManifest("bad length"));
    }
    let (body, crc_bytes) = bytes.split_at(10);
    let stored = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
    if crc32(body) != stored {
        return Err(DurableError::CorruptManifest("checksum mismatch"));
    }
    if &body[..4] != MANIFEST_MAGIC {
        return Err(DurableError::CorruptManifest("bad magic"));
    }
    if u16::from_le_bytes(body[4..6].try_into().expect("2 bytes")) != MANIFEST_VERSION {
        return Err(DurableError::CorruptManifest("unknown version"));
    }
    let shards = u32::from_le_bytes(body[6..10].try_into().expect("4 bytes")) as usize;
    if shards == 0 {
        return Err(DurableError::CorruptManifest("zero shards"));
    }
    Ok(shards)
}

fn read_manifest(fs: &dyn StorageFs, dir: &Path) -> Result<Option<usize>, DurableError> {
    let path = dir.join(MANIFEST_FILE);
    if !fs.exists(&path) {
        return Ok(None);
    }
    let bytes = fs.read(&path).map_err(DurabilityError::Io)?;
    decode_manifest(&bytes).map(Some)
}

/// A directory of `shard.<i>/` sub-engines, each with its own segment
/// store, epoch-tagged WAL, and [`ShardCommitter`]. The shard count is pinned by
/// an atomically-written manifest at creation time: reopening under a
/// different `PRKB_SHARDS` keeps the persisted partitioning, so every
/// attribute keeps routing to the WAL that holds its history.
///
/// Recovery replays each shard's WAL independently — shard `i`'s recovered
/// state is a committed prefix of shard `i`'s history regardless of what
/// any other shard lost.
#[derive(Debug)]
pub struct ShardedDurablePool<P> {
    dir: PathBuf,
    fs: Arc<dyn StorageFs>,
    map: ShardMap,
    shards: ShardParts<P>,
    reports: Vec<RecoveryReport>,
}

/// Per-shard `(engine, committer)` pairs in shard-id order — what
/// [`ShardedDurablePool::into_parts`] yields and the session scheduler
/// consumes.
pub type ShardParts<P> = Vec<(PrkbEngine<P>, ShardCommitter<P>)>;

impl<P: SpPredicate + WireCodec> ShardedDurablePool<P> {
    /// Opens (or creates) a sharded pool rooted at `dir`. On creation the
    /// pool is partitioned per `requested`; on reopen the manifest's
    /// persisted shard count wins. Crash injection is armed from
    /// `PRKB_CRASH_POINT` (unset ⇒ disabled).
    ///
    /// # Errors
    /// As [`DurableEngine::open`], plus
    /// [`DurableError::CorruptManifest`].
    ///
    /// # Panics
    /// As [`DurableEngine::open`].
    pub fn open(
        dir: &Path,
        config: EngineConfig,
        requested: ShardMap,
    ) -> Result<Self, DurableError> {
        Self::open_with_crash(dir, config, requested, CrashInjector::from_env())
    }

    /// [`open`](Self::open) with an explicit crash-injection schedule.
    pub fn open_with_crash(
        dir: &Path,
        config: EngineConfig,
        requested: ShardMap,
        crash: CrashInjector,
    ) -> Result<Self, DurableError> {
        Self::open_with_storage(dir, config, requested, crash, real_fs())
    }

    /// [`open_with_crash`](Self::open_with_crash) over an explicit storage
    /// backend — the hook the seeded I/O fault sweeps use to replace the
    /// real filesystem with a [`crate::storage::FaultFs`].
    pub fn open_with_storage(
        dir: &Path,
        config: EngineConfig,
        requested: ShardMap,
        crash: CrashInjector,
        fs: Arc<dyn StorageFs>,
    ) -> Result<Self, DurableError> {
        fs.create_dir_all(dir).map_err(DurabilityError::Io)?;
        remove_stale(fs.as_ref(), &dir.join(format!("{MANIFEST_FILE}.tmp")))?;
        let map = match read_manifest(fs.as_ref(), dir)? {
            Some(shards) => ShardMap::new(shards),
            None => {
                write_manifest(fs.as_ref(), dir, requested.shards())?;
                requested
            }
        };
        let mut shards = Vec::with_capacity(map.shards());
        let mut reports = Vec::with_capacity(map.shards());
        for i in 0..map.shards() {
            let mut shard = recover_shard::<P>(
                Arc::clone(&fs),
                &dir.join(format!("shard.{i}")),
                config,
                crash.clone(),
            )?;
            // Shard engines are handed out by value and the session
            // scheduler moves partitions between worker footprints with
            // detach/attach, so a pool shard cannot carry lazy holes the
            // way a DurableEngine can: hydrate everything the segment store
            // holds. Recovery replay still deserialized only the WAL-touched
            // partitions (what the report counts).
            if let Some(store) = &shard.store {
                for attr in shard.unloaded {
                    let kb = load_partition(store, attr)?.ok_or(DurableError::CorruptSegment(
                        "unloaded attr missing from store",
                    ))?;
                    shard.engine.restore_attr(attr, kb);
                }
            }
            shards.push((shard.engine, shard.committer));
            reports.push(shard.report);
        }
        Ok(ShardedDurablePool {
            dir: dir.to_path_buf(),
            fs,
            map,
            shards,
            reports,
        })
    }

    /// CRC-walks every shard's checkpoint, WAL, and the pool manifest,
    /// classifying damage without mutating healthy state. With
    /// `quarantine` set, corrupt artifacts are renamed into a
    /// `quarantine/` sibling directory (never deleted) so a reopen can
    /// proceed while the evidence survives for forensics.
    pub fn scrub(&self, quarantine: bool) -> crate::scrub::ScrubReport {
        crate::scrub::scrub_pool_dir::<P>(self.fs.as_ref(), &self.dir, quarantine)
    }

    /// The pool's persisted attribute partitioning.
    pub fn map(&self) -> ShardMap {
        self.map
    }

    /// Per-shard recovery reports, indexed by shard id.
    pub fn reports(&self) -> &[RecoveryReport] {
        &self.reports
    }

    /// Durable `initPRKB`: initializes the attribute on its owning shard
    /// and waits for the init record to hit disk.
    ///
    /// # Errors
    /// Storage failures (which poison the owning shard).
    pub fn init_attr(&mut self, attr: AttrId, n: usize) -> Result<(), DurableError> {
        let sid = self.map.shard_of(attr);
        let (engine, committer) = &mut self.shards[sid];
        engine.init_attr(attr, n);
        // The fresh knowledge base starts with journaling off; re-arm it.
        engine.set_recording(true);
        let ticket = committer.enqueue(encode_txn::<P>(&[TxnEntry::Init { attr, n: n as u64 }]));
        committer.wait_durable(ticket).map(|_| ())
    }

    /// Read-only view of one shard's engine (tests and introspection).
    pub fn shard_engine(&self, shard: usize) -> &PrkbEngine<P> {
        &self.shards[shard].0
    }

    /// Splits the pool into its shard map and per-shard
    /// `(engine, committer)` pairs, in shard-id order — the form the
    /// session scheduler consumes.
    pub fn into_parts(self) -> (ShardMap, ShardParts<P>) {
        (self.map, self.shards)
    }
}
