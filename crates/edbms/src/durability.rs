//! Durable-storage primitives: write-ahead log and crash-point injection.
//!
//! The PRKB's whole value is *accumulated* state — every answered query
//! refines the index (paper §5.3) — so losing it on a crash silently resets
//! the system to worst-case QPF cost. This module provides the
//! payload-agnostic machinery a durable index needs (the PRKB-specific
//! encoding lives in `prkb-core::durability`):
//!
//! * [`Wal`] — an append-only, CRC32-framed, length-prefixed log. Each
//!   record is fsync'd before the caller releases the result it covers, so
//!   an acknowledged refinement is never lost. Recovery replays the longest
//!   valid prefix, distinguishing a **torn tail** (partial final record —
//!   the expected shape of a crash mid-append; silently truncated) from
//!   **mid-log corruption** (a bad record *followed by* valid ones — bitrot
//!   or tampering; a hard error, the log refuses to open).
//! * [`CrashInjector`] — simulated process death at every write / fsync /
//!   rename boundary ([`CrashPoint`]), including torn writes (a partial
//!   record reaches the disk before the "crash"). Deterministic and
//!   env-drivable via `PRKB_CRASH_POINT` (mirroring `PRKB_FAULT_SEED` from
//!   the resilience layer), which is what the CI crash-sweep job uses.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::storage::{RealFs, StorageFile, StorageFs};

/// WAL file magic.
pub const WAL_MAGIC: &[u8; 4] = b"PWAL";
/// WAL format version.
pub const WAL_VERSION: u16 = 1;
/// WAL header length: magic, version, two reserved bytes.
pub const WAL_HEADER_LEN: u64 = 8;
/// Upper bound on a single record's payload; a length field above this is
/// treated as damage, not as a 4 GiB allocation request.
pub const MAX_RECORD_LEN: u32 = 1 << 30;

/// The 8-byte WAL file header: `"PWAL" | version u16 | reserved u16`.
fn wal_header() -> [u8; WAL_HEADER_LEN as usize] {
    let mut header = [0u8; WAL_HEADER_LEN as usize];
    header[..4].copy_from_slice(WAL_MAGIC);
    header[4..6].copy_from_slice(&WAL_VERSION.to_le_bytes());
    header
}

/// CRC32 (IEEE 802.3, reflected) over `bytes` — the frame checksum.
pub fn crc32(bytes: &[u8]) -> u32 {
    // Small table built on demand; durability paths are I/O-bound so the
    // 256-entry rebuild per call is irrelevant next to the fsync.
    let mut table = [0u32; 256];
    for (i, e) in table.iter_mut().enumerate() {
        let mut c = i as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
        *e = c;
    }
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = table[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// A write / fsync / rename boundary at which an injected crash can occur.
///
/// Every durable transition the WAL and segment-checkpoint paths make has a
/// hook immediately **after** it (and one before the first byte), so a sweep
/// over all variants exercises every partially-persisted state a real
/// `kill -9` could leave behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Before any byte of the record reaches the WAL file.
    BeforeWalAppend,
    /// Mid-record: a *prefix* of the frame reaches the file (torn write).
    MidWalAppend,
    /// The full frame is written but not yet fsync'd.
    AfterWalAppend,
    /// The frame is written and fsync'd (the commit point).
    AfterWalSync,
    /// The fresh epoch's WAL exists; the stale one has not been removed.
    BeforeWalRetire,
    /// Checkpoint rotation fully complete.
    AfterWalRetire,
    /// A group-commit batch is about to be flushed: records are enqueued in
    /// memory, none of the batch has reached the WAL file yet. Fired by
    /// group-commit committers at the start of every batch flush — the
    /// shutdown drain included — so a sweep proves that losing a whole
    /// *unacknowledged* batch still recovers a committed prefix.
    BeforeGroupFlush,
    /// Before any byte of a segment temp file is written.
    BeforeSegmentWrite,
    /// Mid-segment: a prefix of the segment image reaches the temp file
    /// (torn write).
    MidSegmentWrite,
    /// The segment temp file is fully written and fsync'd, not yet renamed.
    AfterSegmentSync,
    /// The segment file is renamed into place and the directory fsync'd;
    /// the manifest does not reference it yet.
    AfterSegmentRename,
    /// The segment manifest is about to be atomically replaced.
    BeforeManifestSwap,
    /// The new segment manifest is durable; superseded segments and the
    /// stale WAL have not been retired yet.
    AfterManifestSwap,
    /// Compaction (or a flush) finished removing every superseded segment
    /// file.
    AfterSegmentRetire,
}

impl CrashPoint {
    /// Every hook point, in pipeline order — the sweep the CI job and the
    /// replay-equivalence proptest iterate over.
    pub const ALL: [CrashPoint; 14] = [
        CrashPoint::BeforeWalAppend,
        CrashPoint::MidWalAppend,
        CrashPoint::AfterWalAppend,
        CrashPoint::AfterWalSync,
        CrashPoint::BeforeWalRetire,
        CrashPoint::AfterWalRetire,
        CrashPoint::BeforeGroupFlush,
        CrashPoint::BeforeSegmentWrite,
        CrashPoint::MidSegmentWrite,
        CrashPoint::AfterSegmentSync,
        CrashPoint::AfterSegmentRename,
        CrashPoint::BeforeManifestSwap,
        CrashPoint::AfterManifestSwap,
        CrashPoint::AfterSegmentRetire,
    ];

    /// The hooks of the segment checkpoint writer (segment publish,
    /// manifest swap, retirement).
    pub const SEGMENT_HOOKS: [CrashPoint; 7] = [
        CrashPoint::BeforeSegmentWrite,
        CrashPoint::MidSegmentWrite,
        CrashPoint::AfterSegmentSync,
        CrashPoint::AfterSegmentRename,
        CrashPoint::BeforeManifestSwap,
        CrashPoint::AfterManifestSwap,
        CrashPoint::AfterSegmentRetire,
    ];

    /// Stable lowercase name, as accepted by `PRKB_CRASH_POINT`.
    pub fn name(self) -> &'static str {
        match self {
            CrashPoint::BeforeWalAppend => "before_wal_append",
            CrashPoint::MidWalAppend => "mid_wal_append",
            CrashPoint::AfterWalAppend => "after_wal_append",
            CrashPoint::AfterWalSync => "after_wal_sync",
            CrashPoint::BeforeWalRetire => "before_wal_retire",
            CrashPoint::AfterWalRetire => "after_wal_retire",
            CrashPoint::BeforeGroupFlush => "before_group_flush",
            CrashPoint::BeforeSegmentWrite => "before_segment_write",
            CrashPoint::MidSegmentWrite => "mid_segment_write",
            CrashPoint::AfterSegmentSync => "after_segment_sync",
            CrashPoint::AfterSegmentRename => "after_segment_rename",
            CrashPoint::BeforeManifestSwap => "before_manifest_swap",
            CrashPoint::AfterManifestSwap => "after_manifest_swap",
            CrashPoint::AfterSegmentRetire => "after_segment_retire",
        }
    }

    /// Parses a point name (as produced by [`name`](Self::name)).
    pub fn parse(s: &str) -> Option<CrashPoint> {
        CrashPoint::ALL.into_iter().find(|p| p.name() == s.trim())
    }
}

impl fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Errors raised by the durability layer.
#[derive(Debug)]
pub enum DurabilityError {
    /// A real I/O failure (disk full, permission, …).
    Io(std::io::Error),
    /// An injected crash fired: the process is considered dead at this
    /// boundary. Whatever reached the disk before the hook stays there.
    Crash(CrashPoint),
    /// The WAL header is missing or from an unknown version.
    BadWalHeader,
    /// A CRC-failing or misframed record **followed by valid data** — not a
    /// torn tail but damage inside the committed prefix. The log refuses to
    /// open rather than silently drop acknowledged refinements.
    CorruptRecord {
        /// Zero-based index of the bad record.
        record: u64,
        /// Byte offset of its frame.
        offset: u64,
        /// What failed.
        reason: &'static str,
    },
    /// A durability barrier (`sync_data`/`sync_all`) failed, or the handle
    /// was already poisoned by an earlier write/sync failure. After a failed
    /// fsync the kernel may have *dropped* the dirty pages (the fsyncgate
    /// lesson), so retry-and-assume-durable is a lie: the affected WAL/shard
    /// is permanently poisoned and never issues a durable ack again until
    /// the process reopens and re-reads what actually persisted.
    SyncFailed(String),
}

impl fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurabilityError::Io(e) => write!(f, "durability I/O failure: {e}"),
            DurabilityError::Crash(p) => write!(f, "injected crash at {p}"),
            DurabilityError::BadWalHeader => write!(f, "not a PRKB WAL (bad magic/version)"),
            DurabilityError::CorruptRecord {
                record,
                offset,
                reason,
            } => write!(
                f,
                "WAL corrupt at record {record} (offset {offset}): {reason}; \
                 valid records follow, refusing to discard committed state"
            ),
            DurabilityError::SyncFailed(why) => write!(
                f,
                "durability barrier failed ({why}); no durable ack — \
                 handle poisoned until reopen"
            ),
        }
    }
}

impl std::error::Error for DurabilityError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurabilityError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DurabilityError {
    fn from(e: std::io::Error) -> Self {
        DurabilityError::Io(e)
    }
}

/// Deterministic crash injection: fires [`DurabilityError::Crash`] at the
/// `nth` occurrence of one chosen [`CrashPoint`].
///
/// Cloning shares the hit counter, so a [`Wal`] and the checkpoint path can
/// count occurrences against one schedule — exactly like a single process
/// dying once.
#[derive(Debug, Clone, Default)]
pub struct CrashInjector {
    target: Option<(CrashPoint, u64)>,
    hits: Arc<AtomicU64>,
}

impl CrashInjector {
    /// Never fires.
    pub fn disabled() -> Self {
        CrashInjector::default()
    }

    /// Fires at the first occurrence of `point`.
    pub fn at(point: CrashPoint) -> Self {
        Self::at_nth(point, 1)
    }

    /// Fires at the `nth` (1-based) occurrence of `point`.
    pub fn at_nth(point: CrashPoint, nth: u64) -> Self {
        CrashInjector {
            target: Some((point, nth.max(1))),
            hits: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Reads `PRKB_CRASH_POINT` (`<name>` or `<name>:<nth>`), the hook the
    /// CI crash-sweep job sets. Unset ⇒ disabled.
    ///
    /// # Panics
    /// On an unknown hook name or an `nth` that is not a positive integer,
    /// listing the valid names: a sweep that names a hook which does not
    /// exist must fail, not pass without injecting anything.
    pub fn from_env() -> Self {
        match std::env::var("PRKB_CRASH_POINT") {
            Ok(spec) => Self::from_spec(&spec).unwrap_or_else(|e| panic!("PRKB_CRASH_POINT: {e}")),
            Err(_) => Self::disabled(),
        }
    }

    /// Parses a `<name>` or `<name>:<nth>` crash spec (`nth` 1-based).
    ///
    /// # Errors
    /// An unknown hook name or an `nth` that is not a positive integer; the
    /// message lists every valid name.
    fn from_spec(spec: &str) -> Result<Self, String> {
        let (name, nth) = spec.split_once(':').unwrap_or((spec, "1"));
        let valid = || {
            let names: Vec<&str> = CrashPoint::ALL.iter().map(|p| p.name()).collect();
            format!("valid names: {}", names.join(", "))
        };
        let point = CrashPoint::parse(name)
            .ok_or_else(|| format!("unknown crash point `{}`; {}", name.trim(), valid()))?;
        match nth.trim().parse::<u64>() {
            Ok(nth) if nth >= 1 => Ok(Self::at_nth(point, nth)),
            _ => Err(format!(
                "`{nth}` in `{spec}` is not a 1-based hit count; {}",
                valid()
            )),
        }
    }

    /// Whether any crash is scheduled.
    pub fn is_armed(&self) -> bool {
        self.target.is_some()
    }

    /// Declares that execution reached `point`; returns the crash error if
    /// the schedule says the process dies here.
    pub fn fire(&self, point: CrashPoint) -> Result<(), DurabilityError> {
        if let Some((target, nth)) = self.target {
            if target == point && self.hits.fetch_add(1, Ordering::Relaxed) + 1 == nth {
                return Err(DurabilityError::Crash(point));
            }
        }
        Ok(())
    }
}

/// What recovery found at the end of the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailStatus {
    /// The log ends exactly at a record boundary.
    Clean,
    /// A partial or checksum-failing final record was discarded (the
    /// expected residue of a crash mid-append — never an acknowledged one).
    TornDiscarded,
}

/// An open write-ahead log.
///
/// Record frame (all little-endian): `len u32 | crc32 u32 | payload`, where
/// the checksum covers `len || payload` so a damaged length field cannot
/// misframe silently. The file starts with an 8-byte header
/// (`"PWAL" | version u16 | reserved u16`).
#[derive(Debug)]
pub struct Wal {
    file: Box<dyn StorageFile>,
    path: PathBuf,
    crash: CrashInjector,
    records: u64,
    bytes: u64,
    /// Why this handle is poisoned, when it is. Set by the first failed
    /// write or sync; every later append/sync returns
    /// [`DurabilityError::SyncFailed`] with this reason.
    poison: Option<String>,
}

impl Wal {
    /// Creates a fresh, empty log at `path` (truncating any existing file),
    /// with the header already durable, on the production filesystem.
    pub fn create(path: &Path, crash: CrashInjector) -> Result<Wal, DurabilityError> {
        Self::create_on(&RealFs, path, crash)
    }

    /// [`create`](Self::create) on an arbitrary [`StorageFs`].
    pub fn create_on(
        fs: &dyn StorageFs,
        path: &Path,
        crash: CrashInjector,
    ) -> Result<Wal, DurabilityError> {
        let mut file = fs.create_file(path)?;
        file.write_all(&wal_header())?;
        file.sync_all()?;
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            crash,
            records: 0,
            bytes: WAL_HEADER_LEN,
            poison: None,
        })
    }

    /// Opens an existing log, scans it, and returns the log positioned for
    /// appending plus every valid payload in order.
    ///
    /// A torn tail (partial / checksum-failing *final* record) is physically
    /// truncated away and reported as [`TailStatus::TornDiscarded`]. A bad
    /// record with valid data after it is [`DurabilityError::CorruptRecord`]
    /// — recovery refuses to reorder or skip committed history.
    pub fn open(
        path: &Path,
        crash: CrashInjector,
    ) -> Result<(Wal, Vec<Vec<u8>>, TailStatus), DurabilityError> {
        Self::open_on(&RealFs, path, crash)
    }

    /// [`open`](Self::open) on an arbitrary [`StorageFs`].
    pub fn open_on(
        fs: &dyn StorageFs,
        path: &Path,
        crash: CrashInjector,
    ) -> Result<(Wal, Vec<Vec<u8>>, TailStatus), DurabilityError> {
        let mut file = fs.open_file(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        if (bytes.len() as u64) < WAL_HEADER_LEN {
            // Torn creation: a crash or I/O fault died inside `create_on`
            // before the header became durable. The header is synced before
            // any append is accepted, so no record was ever acknowledged
            // through this file — rebuild it empty instead of refusing
            // recovery. A *complete* header with wrong magic/version still
            // fails below: that is corruption, not a tear.
            file.set_len(0)?;
            file.seek_start(0)?;
            file.write_all(&wal_header())?;
            file.sync_all()?;
            return Ok((
                Wal {
                    file,
                    path: path.to_path_buf(),
                    crash,
                    records: 0,
                    bytes: WAL_HEADER_LEN,
                    poison: None,
                },
                Vec::new(),
                TailStatus::TornDiscarded,
            ));
        }
        let (payloads, valid_len, tail) = scan_records(&bytes)?;
        if valid_len < bytes.len() as u64 {
            file.set_len(valid_len)?;
            file.sync_all()?;
        }
        file.seek_start(valid_len)?;
        let records = payloads.len() as u64;
        Ok((
            Wal {
                file,
                path: path.to_path_buf(),
                crash,
                records,
                bytes: valid_len,
                poison: None,
            },
            payloads,
            tail,
        ))
    }

    /// Appends one record and makes it durable. On `Ok`, the payload
    /// survives any subsequent crash; callers release the covered result
    /// only after this returns.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), DurabilityError> {
        self.append_unsynced(payload)?;
        self.sync()
    }

    /// Appends one record **without** fsync'ing it. The record is framed and
    /// written, but a crash before the next [`sync`](Self::sync) may lose it
    /// (recovery sees at most a torn tail, never misframing — writes land in
    /// append order). Group commit uses this to write a whole batch and pay
    /// for one fsync.
    pub fn append_unsynced(&mut self, payload: &[u8]) -> Result<(), DurabilityError> {
        assert!(
            payload.len() as u64 <= u64::from(MAX_RECORD_LEN),
            "WAL record over MAX_RECORD_LEN"
        );
        self.check_poison()?;
        self.crash.fire(CrashPoint::BeforeWalAppend)?;
        let len = (payload.len() as u32).to_le_bytes();
        let mut covered = Vec::with_capacity(4 + payload.len());
        covered.extend_from_slice(&len);
        covered.extend_from_slice(payload);
        let crc = crc32(&covered).to_le_bytes();
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&len);
        frame.extend_from_slice(&crc);
        frame.extend_from_slice(payload);

        if let Err(e) = self.crash.fire(CrashPoint::MidWalAppend) {
            // Torn write: a strict prefix of the frame reaches the disk
            // before the process dies.
            let torn = (frame.len() / 2).max(1).min(frame.len() - 1);
            if let Err(ioe) = self.file.write_all(&frame[..torn]) {
                self.poison = Some(format!("torn append write failed: {ioe}"));
                return Err(DurabilityError::Io(ioe));
            }
            if let Err(ioe) = self.file.sync_all() {
                // make the torn state visible to reopen
                return Err(self.poison_sync("sync_all", &ioe));
            }
            return Err(e);
        }
        if let Err(ioe) = self.file.write_all(&frame) {
            // An unknown prefix of the frame may be on disk; a later append
            // would land after garbage and turn a torn tail into mid-log
            // corruption. Poison the handle so that cannot happen.
            self.poison = Some(format!("append write failed: {ioe}"));
            return Err(DurabilityError::Io(ioe));
        }
        self.crash.fire(CrashPoint::AfterWalAppend)?;
        self.records += 1;
        self.bytes += frame.len() as u64;
        Ok(())
    }

    /// Fsyncs everything appended so far (the group-commit barrier). On
    /// `Ok`, every previously appended record survives any subsequent crash.
    ///
    /// On `Err` the handle is permanently poisoned: the kernel may have
    /// discarded the dirty pages, so nothing appended since the last
    /// successful sync can ever be acknowledged from this handle.
    pub fn sync(&mut self) -> Result<(), DurabilityError> {
        self.check_poison()?;
        if let Err(ioe) = self.file.sync_data() {
            return Err(self.poison_sync("sync_data", &ioe));
        }
        self.crash.fire(CrashPoint::AfterWalSync)?;
        Ok(())
    }

    /// Whether a failed write or sync has permanently poisoned this handle.
    pub fn is_poisoned(&self) -> bool {
        self.poison.is_some()
    }

    fn check_poison(&self) -> Result<(), DurabilityError> {
        match &self.poison {
            Some(why) => Err(DurabilityError::SyncFailed(why.clone())),
            None => Ok(()),
        }
    }

    fn poison_sync(&mut self, op: &str, e: &std::io::Error) -> DurabilityError {
        let why = format!("{op} on {}: {e}", self.path.display());
        self.poison = Some(why.clone());
        DurabilityError::SyncFailed(why)
    }

    /// Records appended or recovered so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Total valid bytes (header included).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The injector this log fires.
    pub fn crash_injector(&self) -> &CrashInjector {
        &self.crash
    }
}

/// Scans a WAL byte image: returns the valid payloads, the byte length of
/// the valid prefix, and the tail status.
///
/// # Errors
/// [`DurabilityError::BadWalHeader`] on a bad header;
/// [`DurabilityError::CorruptRecord`] when a bad record is followed by
/// valid data (mid-log corruption).
pub fn scan_records(bytes: &[u8]) -> Result<(Vec<Vec<u8>>, u64, TailStatus), DurabilityError> {
    if bytes.len() < WAL_HEADER_LEN as usize
        || &bytes[..4] != WAL_MAGIC
        || u16::from_le_bytes([bytes[4], bytes[5]]) != WAL_VERSION
    {
        return Err(DurabilityError::BadWalHeader);
    }
    let mut payloads = Vec::new();
    let mut pos = WAL_HEADER_LEN as usize;
    loop {
        match frame_at(bytes, pos) {
            FrameStatus::End => return Ok((payloads, pos as u64, TailStatus::Clean)),
            FrameStatus::Valid { payload, next } => {
                payloads.push(payload.to_vec());
                pos = next;
            }
            FrameStatus::Bad { reason, skip_to } => {
                // Tail damage or mid-log corruption? If any *valid* frame
                // exists past the bad one, committed records would be lost
                // by truncating here — that is corruption, not a torn tail.
                if skip_to.is_some_and(|o| chain_has_valid_frame(bytes, o)) {
                    return Err(DurabilityError::CorruptRecord {
                        record: payloads.len() as u64,
                        offset: pos as u64,
                        reason,
                    });
                }
                return Ok((payloads, pos as u64, TailStatus::TornDiscarded));
            }
        }
    }
}

enum FrameStatus<'a> {
    /// Offset is exactly at end-of-image.
    End,
    /// A well-formed frame.
    Valid { payload: &'a [u8], next: usize },
    /// A damaged frame; `skip_to` is the end offset its length field claims
    /// (when that offset is in bounds).
    Bad {
        reason: &'static str,
        skip_to: Option<usize>,
    },
}

fn frame_at(bytes: &[u8], pos: usize) -> FrameStatus<'_> {
    let rem = bytes.len() - pos;
    if rem == 0 {
        return FrameStatus::End;
    }
    if rem < 8 {
        return FrameStatus::Bad {
            reason: "truncated frame header",
            skip_to: None,
        };
    }
    let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
    if len > MAX_RECORD_LEN as usize {
        return FrameStatus::Bad {
            reason: "implausible record length",
            skip_to: None,
        };
    }
    let Some(end) = pos.checked_add(8 + len).filter(|&e| e <= bytes.len()) else {
        return FrameStatus::Bad {
            reason: "record extends past end of log",
            skip_to: None,
        };
    };
    let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
    let mut covered = Vec::with_capacity(4 + len);
    covered.extend_from_slice(&bytes[pos..pos + 4]);
    covered.extend_from_slice(&bytes[pos + 8..end]);
    if crc32(&covered) != crc {
        return FrameStatus::Bad {
            reason: "checksum mismatch",
            skip_to: Some(end),
        };
    }
    FrameStatus::Valid {
        payload: &bytes[pos + 8..end],
        next: end,
    }
}

/// Whether any valid frame exists in `bytes[from..]` (used to tell a torn
/// tail from mid-log corruption).
fn chain_has_valid_frame(bytes: &[u8], mut from: usize) -> bool {
    loop {
        match frame_at(bytes, from) {
            FrameStatus::Valid { .. } => return true,
            FrameStatus::End | FrameStatus::Bad { skip_to: None, .. } => return false,
            FrameStatus::Bad {
                skip_to: Some(next),
                ..
            } => {
                if next <= from {
                    return false;
                }
                from = next;
            }
        }
    }
}

/// One CRC-valid frame found by [`scan_frames`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameInfo {
    /// Zero-based record index.
    pub index: u64,
    /// Byte offset of the frame header within the image.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u32,
}

/// Overall classification of a WAL byte image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalVerdict {
    /// Every frame checks out and the image ends on a record boundary.
    Clean,
    /// The *final* record is partial or checksum-failing — normal crash
    /// residue; recovery truncates it without losing acknowledged state.
    TornTail,
    /// A bad frame is *followed by* valid data: damage inside the committed
    /// prefix (bitrot or tampering). Recovery refuses to open such a log.
    MidLogCorruption,
    /// The image has no recognizable WAL header.
    BadHeader,
}

impl WalVerdict {
    /// Stable lowercase name (scrub reports, `walinspect` output).
    pub fn name(self) -> &'static str {
        match self {
            WalVerdict::Clean => "clean",
            WalVerdict::TornTail => "torn_tail",
            WalVerdict::MidLogCorruption => "mid_log_corruption",
            WalVerdict::BadHeader => "bad_header",
        }
    }
}

/// Details of the first damaged frame, when any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BadFrame {
    /// Zero-based index the damaged frame would have had.
    pub index: u64,
    /// Byte offset where it starts.
    pub offset: u64,
    /// What failed.
    pub reason: &'static str,
}

/// Frame-by-frame scan result: every valid frame plus a damage verdict.
///
/// Unlike [`scan_records`], producing this never errors — the scrubber and
/// `walinspect` need to *classify* a damaged image, not refuse to look
/// at it.
#[derive(Debug, Clone)]
pub struct FrameScan {
    /// Every CRC-valid frame, in order.
    pub frames: Vec<FrameInfo>,
    /// Byte length of the valid prefix (header included); 0 for
    /// [`WalVerdict::BadHeader`].
    pub valid_len: u64,
    /// Overall classification of the image.
    pub verdict: WalVerdict,
    /// The first damaged frame (`TornTail` / `MidLogCorruption` only).
    pub bad: Option<BadFrame>,
}

/// Scans a WAL image frame by frame, classifying rather than erroring.
pub fn scan_frames(bytes: &[u8]) -> FrameScan {
    if bytes.len() < WAL_HEADER_LEN as usize
        || &bytes[..4] != WAL_MAGIC
        || u16::from_le_bytes([bytes[4], bytes[5]]) != WAL_VERSION
    {
        return FrameScan {
            frames: Vec::new(),
            valid_len: 0,
            verdict: WalVerdict::BadHeader,
            bad: None,
        };
    }
    let mut frames = Vec::new();
    let mut pos = WAL_HEADER_LEN as usize;
    loop {
        match frame_at(bytes, pos) {
            FrameStatus::End => {
                return FrameScan {
                    frames,
                    valid_len: pos as u64,
                    verdict: WalVerdict::Clean,
                    bad: None,
                }
            }
            FrameStatus::Valid { payload, next } => {
                frames.push(FrameInfo {
                    index: frames.len() as u64,
                    offset: pos as u64,
                    len: payload.len() as u32,
                });
                pos = next;
            }
            FrameStatus::Bad { reason, skip_to } => {
                let verdict = if skip_to.is_some_and(|o| chain_has_valid_frame(bytes, o)) {
                    WalVerdict::MidLogCorruption
                } else {
                    WalVerdict::TornTail
                };
                return FrameScan {
                    bad: Some(BadFrame {
                        index: frames.len() as u64,
                        offset: pos as u64,
                        reason,
                    }),
                    frames,
                    valid_len: pos as u64,
                    verdict,
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("prkb-edbms-dur-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tmpdir");
        dir
    }

    #[test]
    fn crc32_known_vector() {
        // IEEE CRC32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_and_reopen_roundtrip() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("wal.0.log");
        let mut wal = Wal::create(&path, CrashInjector::disabled()).expect("create");
        for i in 0..20u32 {
            wal.append(&i.to_le_bytes()).expect("append");
        }
        assert_eq!(wal.records(), 20);
        drop(wal);
        let (wal, payloads, tail) = Wal::open(&path, CrashInjector::disabled()).expect("reopen");
        assert_eq!(tail, TailStatus::Clean);
        assert_eq!(wal.records(), 20);
        let expect: Vec<Vec<u8>> = (0..20u32).map(|i| i.to_le_bytes().to_vec()).collect();
        assert_eq!(payloads, expect);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_payloads_are_legal_records() {
        let dir = tmpdir("empty");
        let path = dir.join("wal.0.log");
        let mut wal = Wal::create(&path, CrashInjector::disabled()).expect("create");
        wal.append(&[]).expect("append empty");
        wal.append(b"x").expect("append");
        drop(wal);
        let (_, payloads, tail) = Wal::open(&path, CrashInjector::disabled()).expect("reopen");
        assert_eq!(tail, TailStatus::Clean);
        assert_eq!(payloads, vec![Vec::new(), b"x".to_vec()]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_discarded_and_truncated() {
        let dir = tmpdir("torn");
        let path = dir.join("wal.0.log");
        let mut wal = Wal::create(&path, CrashInjector::disabled()).expect("create");
        wal.append(b"first").expect("append");
        wal.append(b"second").expect("append");
        drop(wal);
        // Chop the last record in half.
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() - 5]).expect("write");
        let (wal, payloads, tail) = Wal::open(&path, CrashInjector::disabled()).expect("reopen");
        assert_eq!(tail, TailStatus::TornDiscarded);
        assert_eq!(payloads, vec![b"first".to_vec()]);
        // The torn bytes are physically gone; a fresh append lands cleanly.
        let mut wal = wal;
        wal.append(b"third").expect("append after truncate");
        drop(wal);
        let (_, payloads, tail) = Wal::open(&path, CrashInjector::disabled()).expect("reopen 2");
        assert_eq!(tail, TailStatus::Clean);
        assert_eq!(payloads, vec![b"first".to_vec(), b"third".to_vec()]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tail_bit_flip_is_discarded_but_mid_log_flip_is_fatal() {
        let dir = tmpdir("flips");
        let path = dir.join("wal.0.log");
        let mut wal = Wal::create(&path, CrashInjector::disabled()).expect("create");
        wal.append(&[0xAA; 32]).expect("append");
        wal.append(&[0xBB; 32]).expect("append");
        wal.append(&[0xCC; 32]).expect("append");
        drop(wal);
        let good = std::fs::read(&path).expect("read");

        // Flip a bit inside the LAST record's payload: torn-tail semantics.
        let mut tail_flip = good.clone();
        let last_payload_mid = good.len() - 16;
        tail_flip[last_payload_mid] ^= 0x01;
        std::fs::write(&path, &tail_flip).expect("write");
        let (_, payloads, tail) = Wal::open(&path, CrashInjector::disabled()).expect("reopen");
        assert_eq!(tail, TailStatus::TornDiscarded);
        assert_eq!(payloads.len(), 2, "first two records survive");

        // Flip a bit inside the FIRST record: valid records follow ⇒ hard
        // error, the log refuses to open.
        let mut mid_flip = good.clone();
        mid_flip[WAL_HEADER_LEN as usize + 8 + 4] ^= 0x01;
        std::fs::write(&path, &mid_flip).expect("write");
        let err = Wal::open(&path, CrashInjector::disabled()).expect_err("must refuse");
        assert!(
            matches!(err, DurabilityError::CorruptRecord { record: 0, .. }),
            "unexpected: {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn length_field_damage_on_tail_is_discarded() {
        let dir = tmpdir("lenflip");
        let path = dir.join("wal.0.log");
        let mut wal = Wal::create(&path, CrashInjector::disabled()).expect("create");
        wal.append(&[1u8; 16]).expect("append");
        wal.append(&[2u8; 16]).expect("append");
        drop(wal);
        let mut bytes = std::fs::read(&path).expect("read");
        // Blow up the last record's length field to an absurd value.
        let last_frame = bytes.len() - 24;
        bytes[last_frame..last_frame + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).expect("write");
        let (_, payloads, tail) = Wal::open(&path, CrashInjector::disabled()).expect("reopen");
        assert_eq!(tail, TailStatus::TornDiscarded);
        assert_eq!(payloads, vec![vec![1u8; 16]]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_headers_rejected() {
        let dir = tmpdir("hdr");
        let path = dir.join("wal.0.log");
        // A complete header with wrong magic or version is corruption.
        std::fs::write(&path, b"nope\x00\x00\x00\x00").expect("write");
        assert!(matches!(
            Wal::open(&path, CrashInjector::disabled()),
            Err(DurabilityError::BadWalHeader)
        ));
        std::fs::write(&path, b"PWAL\xFF\xFF\x00\x00").expect("write");
        assert!(matches!(
            Wal::open(&path, CrashInjector::disabled()),
            Err(DurabilityError::BadWalHeader)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sub_header_file_is_a_torn_creation_and_rebuilds_empty() {
        let dir = tmpdir("torncreate");
        let path = dir.join("wal.0.log");
        // A crash or I/O fault inside create_on leaves fewer than 8 bytes;
        // nothing was ever acknowledged, so reopen rebuilds an empty log.
        std::fs::write(&path, b"PWA").expect("write");
        let (mut wal, payloads, tail) =
            Wal::open(&path, CrashInjector::disabled()).expect("torn creation reopens");
        assert!(payloads.is_empty());
        assert_eq!(tail, TailStatus::TornDiscarded);
        wal.append(b"first").expect("rebuilt log accepts appends");
        drop(wal);
        let (_, payloads, tail) = Wal::open(&path, CrashInjector::disabled()).expect("reopen");
        assert_eq!(payloads, vec![b"first".to_vec()]);
        assert_eq!(tail, TailStatus::Clean);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_torn_write_recovers_previous_records() {
        let dir = tmpdir("injtorn");
        let path = dir.join("wal.0.log");
        let mut wal = Wal::create(&path, CrashInjector::disabled()).expect("create");
        wal.append(b"committed").expect("append");
        drop(wal);
        // Reopen with a scheduled torn write on the next append.
        let (mut wal, _, _) =
            Wal::open(&path, CrashInjector::at(CrashPoint::MidWalAppend)).expect("reopen");
        let err = wal
            .append(b"doomed-record-payload")
            .expect_err("must crash");
        assert!(matches!(
            err,
            DurabilityError::Crash(CrashPoint::MidWalAppend)
        ));
        drop(wal);
        // The torn record is on disk; recovery discards exactly it.
        let (_, payloads, tail) = Wal::open(&path, CrashInjector::disabled()).expect("recover");
        assert_eq!(tail, TailStatus::TornDiscarded);
        assert_eq!(payloads, vec![b"committed".to_vec()]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_injector_counts_hits_across_clones() {
        let inj = CrashInjector::at_nth(CrashPoint::AfterWalSync, 3);
        let clone = inj.clone();
        assert!(inj.fire(CrashPoint::AfterWalSync).is_ok());
        assert!(clone.fire(CrashPoint::AfterWalSync).is_ok());
        assert!(
            inj.fire(CrashPoint::BeforeWalAppend).is_ok(),
            "other points never fire"
        );
        assert!(
            clone.fire(CrashPoint::AfterWalSync).is_err(),
            "3rd hit fires"
        );
        assert!(
            inj.fire(CrashPoint::AfterWalSync).is_ok(),
            "fires at most once"
        );
    }

    #[test]
    fn crash_point_names_roundtrip() {
        for p in CrashPoint::ALL {
            assert_eq!(CrashPoint::parse(p.name()), Some(p), "{p}");
        }
        assert_eq!(CrashPoint::parse("nonsense"), None);
    }

    /// A [`StorageFs`] whose files fail every sync after the first
    /// `ok_syncs` — the smallest possible model of a dying disk.
    #[derive(Debug)]
    struct FlakySyncFs {
        ok_syncs: u64,
        counter: Arc<AtomicU64>,
    }

    #[derive(Debug)]
    struct FlakySyncFile {
        inner: Box<dyn StorageFile>,
        ok_syncs: u64,
        counter: Arc<AtomicU64>,
    }

    impl FlakySyncFile {
        fn tick(&self) -> std::io::Result<()> {
            if self.counter.fetch_add(1, Ordering::Relaxed) >= self.ok_syncs {
                Err(std::io::Error::other("injected EIO on fsync"))
            } else {
                Ok(())
            }
        }
    }

    impl StorageFile for FlakySyncFile {
        fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
            self.inner.write_all(buf)
        }
        fn read_to_end(&mut self, buf: &mut Vec<u8>) -> std::io::Result<usize> {
            self.inner.read_to_end(buf)
        }
        fn sync_data(&mut self) -> std::io::Result<()> {
            self.tick()?;
            self.inner.sync_data()
        }
        fn sync_all(&mut self) -> std::io::Result<()> {
            self.tick()?;
            self.inner.sync_all()
        }
        fn set_len(&mut self, len: u64) -> std::io::Result<()> {
            self.inner.set_len(len)
        }
        fn seek_start(&mut self, pos: u64) -> std::io::Result<()> {
            self.inner.seek_start(pos)
        }
    }

    impl StorageFs for FlakySyncFs {
        fn create_file(&self, path: &Path) -> std::io::Result<Box<dyn StorageFile>> {
            Ok(Box::new(FlakySyncFile {
                inner: RealFs.create_file(path)?,
                ok_syncs: self.ok_syncs,
                counter: Arc::clone(&self.counter),
            }))
        }
        fn open_file(&self, path: &Path) -> std::io::Result<Box<dyn StorageFile>> {
            Ok(Box::new(FlakySyncFile {
                inner: RealFs.open_file(path)?,
                ok_syncs: self.ok_syncs,
                counter: Arc::clone(&self.counter),
            }))
        }
        fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
            RealFs.read(path)
        }
        fn write(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
            RealFs.write(path, bytes)
        }
        fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
            RealFs.rename(from, to)
        }
        fn remove_file(&self, path: &Path) -> std::io::Result<()> {
            RealFs.remove_file(path)
        }
        fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
            RealFs.create_dir_all(path)
        }
        fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
            RealFs.sync_dir(dir)
        }
        fn exists(&self, path: &Path) -> bool {
            RealFs.exists(path)
        }
        fn read_dir(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
            RealFs.read_dir(dir)
        }
    }

    #[test]
    fn failed_sync_poisons_wal_and_never_acks_again() {
        let dir = tmpdir("synfail");
        let path = dir.join("wal.0.log");
        // Creation syncs once (the header); the next sync — the first
        // commit barrier — fails.
        let fs = FlakySyncFs {
            ok_syncs: 1,
            counter: Arc::new(AtomicU64::new(0)),
        };
        let mut wal = Wal::create_on(&fs, &path, CrashInjector::disabled()).expect("create");
        let err = wal.append(b"doomed").expect_err("sync must fail");
        assert!(
            matches!(err, DurabilityError::SyncFailed(_)),
            "unexpected: {err}"
        );
        assert!(wal.is_poisoned());
        // Poisoned handles refuse everything, even operations whose own
        // syscalls would succeed: no retry-and-assume-durable.
        let err = wal.append_unsynced(b"after").expect_err("poisoned");
        assert!(matches!(err, DurabilityError::SyncFailed(_)));
        let err = wal.sync().expect_err("poisoned");
        assert!(matches!(err, DurabilityError::SyncFailed(_)));
        drop(wal);
        // Reopen on a healthy filesystem: the unacknowledged record may or
        // may not have reached the platter; either way the log opens and
        // holds only whole frames.
        let (_, payloads, _) = Wal::open(&path, CrashInjector::disabled()).expect("reopen");
        assert!(payloads.len() <= 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_frames_classifies_every_damage_shape() {
        let dir = tmpdir("frames");
        let path = dir.join("wal.0.log");
        let mut wal = Wal::create(&path, CrashInjector::disabled()).expect("create");
        wal.append(&[0xAA; 24]).expect("append");
        wal.append(&[0xBB; 24]).expect("append");
        wal.append(&[0xCC; 24]).expect("append");
        drop(wal);
        let good = std::fs::read(&path).expect("read");

        let scan = scan_frames(&good);
        assert_eq!(scan.verdict, WalVerdict::Clean);
        assert_eq!(scan.frames.len(), 3);
        assert_eq!(scan.valid_len, good.len() as u64);
        assert_eq!(scan.frames[0].offset, WAL_HEADER_LEN);
        assert_eq!(scan.frames[0].len, 24);
        assert!(scan.bad.is_none());

        // Chop the tail: TornTail with two survivors.
        let scan = scan_frames(&good[..good.len() - 5]);
        assert_eq!(scan.verdict, WalVerdict::TornTail);
        assert_eq!(scan.frames.len(), 2);
        assert_eq!(scan.bad.expect("bad frame").index, 2);

        // Flip a byte in the first record: MidLogCorruption at index 0.
        let mut flipped = good.clone();
        flipped[WAL_HEADER_LEN as usize + 8] ^= 0x01;
        let scan = scan_frames(&flipped);
        assert_eq!(scan.verdict, WalVerdict::MidLogCorruption);
        assert!(scan.frames.is_empty());
        let bad = scan.bad.expect("bad frame");
        assert_eq!((bad.index, bad.offset), (0, WAL_HEADER_LEN));

        // Garbage image: BadHeader.
        assert_eq!(scan_frames(b"nope").verdict, WalVerdict::BadHeader);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn env_spec_parsing() {
        // Parsed through `from_spec` (no process-global env mutation in
        // tests): the spec grammar is `<name>` or `<name>:<nth>`.
        let inj = CrashInjector::from_spec(" after_wal_sync :2").expect("valid spec");
        assert!(inj.is_armed());
        assert!(inj.fire(CrashPoint::AfterWalSync).is_ok());
        assert!(inj.fire(CrashPoint::AfterWalSync).is_err(), "2nd hit fires");
        assert!(CrashInjector::from_spec("before_group_flush")
            .expect("bare name")
            .fire(CrashPoint::BeforeGroupFlush)
            .is_err());
        assert!(!CrashInjector::disabled().is_armed());
    }

    #[test]
    fn unknown_crash_point_name_is_rejected_with_the_valid_names() {
        // E.g. a sweep still naming a hook whose writer was removed.
        let err = CrashInjector::from_spec("before_retired_write:3").expect_err("unknown hook");
        assert!(err.contains("before_retired_write"), "{err}");
        for p in CrashPoint::ALL {
            assert!(err.contains(p.name()), "{err} omits {p}");
        }
    }

    #[test]
    fn unparsable_nth_is_rejected() {
        for spec in ["after_wal_sync:", "after_wal_sync:two", "after_wal_sync:0"] {
            let err = CrashInjector::from_spec(spec).expect_err(spec);
            assert!(err.contains("1-based"), "{spec}: {err}");
        }
    }
}
