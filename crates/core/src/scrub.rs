//! KB integrity scrubber: offline verification of everything the
//! durability layer ever wrote.
//!
//! [`scrub_engine_dir`] CRC-walks one engine directory (segment store +
//! epoch-tagged WAL, plus a v1 `checkpoint.bin` still awaiting migration); [`scrub_pool_dir`] walks a sharded pool (manifest +
//! every `shard.<i>/` subdirectory). Each artifact gets a
//! [`ScrubDamage`] classification:
//!
//! * **Clean** — checksums verify and payloads decode;
//! * **TornTail** — the WAL's final record is partial: normal crash
//!   residue, recovery truncates it, *not* a corruption;
//! * **MidLogCorruption** — a damaged frame *inside* the committed prefix
//!   (bitrot or tampering), or a CRC-valid frame whose payload no longer
//!   decodes; recovery refuses such a log;
//! * **CheckpointRot** — a v1 checkpoint image awaiting migration fails
//!   its checksum or codec;
//! * **ManifestMismatch** — the pool manifest is rotted, missing, or
//!   disagrees with the shard directories actually present; also a
//!   segment manifest that fails validation or references a segment file
//!   that does not exist;
//! * **TornSegment** — a published segment file with broken framing
//!   (short file, bad magic, failing footer/index/bloom checksum).
//!   Unlike a WAL torn tail this *is* corruption: segments are renamed
//!   into place only after their fsync, so a damaged published segment
//!   was damaged after the fact;
//! * **SegmentRot** — a segment whose framing verifies but where some
//!   partition block fails its CRC (bitrot inside the payload);
//! * **StraySegment** — a structurally valid segment no manifest
//!   references: residue of a crash between segment publish and manifest
//!   swap; harmless (its id is reused and the file overwritten) but
//!   quarantined for tidiness;
//! * **StrayTemp** — a leftover `*.tmp` (checkpoint, manifest, or
//!   segment/compaction temp) from an interrupted atomic publish;
//!   harmless but quarantined so reopen sees a tidy directory;
//! * **Unreadable** — the file could not be read at all (I/O error).
//!
//! The scrubber never deletes: with quarantine enabled, corrupt artifacts
//! are *renamed* into a `quarantine/` subdirectory next to where they
//! lived, preserving the evidence while letting a reopen proceed. Torn
//! tails and unreadable files are left in place — the former is recovery's
//! job, the latter might be transient.
//!
//! Every run bumps `scrub_runs`; each corruption-class finding bumps
//! `scrub_corruptions`; each successful quarantine bumps
//! `quarantined_files` (metrics schema v4).

use crate::durability::{
    decode_checkpoint, decode_manifest, decode_txn, CHECKPOINT_FILE, MANIFEST_FILE,
};
use crate::lsm::manifest::SegmentManifest;
use crate::lsm::segment::{parse_segment_name, segment_file_name, validate_segment_bytes};
use crate::lsm::SEGMENT_MANIFEST_FILE;
use crate::metrics::Metric;
use crate::snapshot::WireCodec;
use crate::traits::SpPredicate;
use prkb_edbms::durability::{scan_frames, WalVerdict};
use prkb_edbms::StorageFs;
use std::path::{Path, PathBuf};

/// Name of the sibling directory corrupt artifacts are moved into.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Classification of one scanned artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScrubDamage {
    /// Checksums verify and payloads decode.
    Clean,
    /// The WAL's final record is partial — crash residue recovery
    /// truncates, not a corruption.
    TornTail,
    /// Damage inside the WAL's committed prefix, an unrecognizable WAL
    /// header, or a CRC-valid frame whose payload fails to decode.
    MidLogCorruption,
    /// A v1 checkpoint image awaiting migration fails its checksum or
    /// codec.
    CheckpointRot,
    /// The pool manifest is rotted, missing, or disagrees with the shard
    /// directories present; or a segment manifest fails validation or
    /// references a segment file that does not exist.
    ManifestMismatch,
    /// A published segment file with broken framing (short file, bad
    /// magic, failing footer/index/bloom checksum). Segments rename into
    /// place only after their fsync, so this is real corruption.
    TornSegment,
    /// A segment whose framing verifies but where a partition block fails
    /// its CRC — bitrot inside the payload.
    SegmentRot,
    /// A structurally valid segment no manifest references — residue of a
    /// crash between segment publish and manifest swap, not corruption.
    StraySegment,
    /// A leftover `*.tmp` from an interrupted atomic publish.
    StrayTemp,
    /// The file could not be read (I/O error while scrubbing).
    Unreadable,
}

impl ScrubDamage {
    /// Stable lowercase name used in JSON reports and CLI output.
    pub fn name(self) -> &'static str {
        match self {
            ScrubDamage::Clean => "clean",
            ScrubDamage::TornTail => "torn_tail",
            ScrubDamage::MidLogCorruption => "mid_log_corruption",
            ScrubDamage::CheckpointRot => "checkpoint_rot",
            ScrubDamage::ManifestMismatch => "manifest_mismatch",
            ScrubDamage::TornSegment => "torn_segment",
            ScrubDamage::SegmentRot => "segment_rot",
            ScrubDamage::StraySegment => "stray_segment",
            ScrubDamage::StrayTemp => "stray_temp",
            ScrubDamage::Unreadable => "unreadable",
        }
    }

    /// Whether this damage class counts as a corruption (torn tails and
    /// stray segments are expected crash residue; clean is clean).
    pub fn is_corruption(self) -> bool {
        !matches!(
            self,
            ScrubDamage::Clean | ScrubDamage::TornTail | ScrubDamage::StraySegment
        )
    }

    /// Whether the artifact should be moved to `quarantine/`. Torn tails
    /// stay (recovery truncates them); unreadable files stay (the error
    /// may be transient and a rename could destroy state).
    fn quarantinable(self) -> bool {
        matches!(
            self,
            ScrubDamage::MidLogCorruption
                | ScrubDamage::CheckpointRot
                | ScrubDamage::ManifestMismatch
                | ScrubDamage::TornSegment
                | ScrubDamage::SegmentRot
                | ScrubDamage::StraySegment
                | ScrubDamage::StrayTemp
        )
    }
}

/// One scanned artifact and its verdict.
#[derive(Debug, Clone)]
pub struct ScrubFinding {
    /// The artifact's path at scan time (pre-quarantine).
    pub path: PathBuf,
    /// Damage classification.
    pub damage: ScrubDamage,
    /// Human-readable specifics (first bad offset, decode error, …).
    pub detail: String,
    /// For WALs: how many CRC-valid frames the image holds.
    pub frames_valid: Option<u64>,
    /// Where the artifact was moved, when quarantine ran and succeeded.
    pub quarantined_to: Option<PathBuf>,
}

/// Machine-readable result of one scrub pass.
#[derive(Debug, Clone)]
pub struct ScrubReport {
    /// The directory the scrub was rooted at.
    pub root: PathBuf,
    /// Every classified artifact, sorted by path.
    pub findings: Vec<ScrubFinding>,
    /// Artifacts examined (quarantine contents excluded).
    pub files_scanned: u64,
    /// Findings whose damage [`is_corruption`](ScrubDamage::is_corruption).
    pub corruptions: u64,
    /// Artifacts successfully moved into `quarantine/`.
    pub quarantined: u64,
}

impl ScrubReport {
    /// `true` when every artifact is [`ScrubDamage::Clean`] (a torn tail
    /// is *not* clean, though it is not a corruption either).
    pub fn is_clean(&self) -> bool {
        self.findings.iter().all(|f| f.damage == ScrubDamage::Clean)
    }

    /// `true` when at least one corruption-class finding exists.
    pub fn has_corruption(&self) -> bool {
        self.corruptions > 0
    }

    /// Serializes the report as one line of `prkb-scrub/v1` JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"prkb-scrub/v1\"");
        out.push_str(&format!(
            ",\"root\":\"{}\",\"files_scanned\":{},\"corruptions\":{},\"quarantined\":{},\"clean\":{}",
            json_escape(&self.root.display().to_string()),
            self.files_scanned,
            self.corruptions,
            self.quarantined,
            self.is_clean(),
        ));
        out.push_str(",\"findings\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"path\":\"{}\",\"damage\":\"{}\",\"detail\":\"{}\"",
                json_escape(&f.path.display().to_string()),
                f.damage.name(),
                json_escape(&f.detail),
            ));
            match f.frames_valid {
                Some(n) => out.push_str(&format!(",\"frames_valid\":{n}")),
                None => out.push_str(",\"frames_valid\":null"),
            }
            match &f.quarantined_to {
                Some(p) => out.push_str(&format!(
                    ",\"quarantined_to\":\"{}\"}}",
                    json_escape(&p.display().to_string())
                )),
                None => out.push_str(",\"quarantined_to\":null}"),
            }
        }
        out.push_str("]}");
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Scrubs a [`DurableEngine`](crate::DurableEngine) directory: its
/// checkpoint, its epoch-tagged WAL(s), and any stray temp files.
pub fn scrub_engine_dir<P: SpPredicate + WireCodec>(
    fs: &dyn StorageFs,
    dir: &Path,
    quarantine: bool,
) -> ScrubReport {
    let mut findings = Vec::new();
    scan_engine_dir::<P>(fs, dir, &mut findings);
    finalize(fs, dir, findings, quarantine)
}

/// Scrubs a [`ShardedDurablePool`](crate::ShardedDurablePool) directory:
/// the manifest plus every `shard.<i>/` subdirectory.
pub fn scrub_pool_dir<P: SpPredicate + WireCodec>(
    fs: &dyn StorageFs,
    dir: &Path,
    quarantine: bool,
) -> ScrubReport {
    let mut findings = Vec::new();
    let entries = match fs.read_dir(dir) {
        Ok(e) => e,
        Err(e) => {
            findings.push(ScrubFinding {
                path: dir.to_path_buf(),
                damage: ScrubDamage::Unreadable,
                detail: format!("cannot list pool directory: {e}"),
                frames_valid: None,
                quarantined_to: None,
            });
            return finalize(fs, dir, findings, quarantine);
        }
    };

    let mut shard_dirs: Vec<(usize, PathBuf)> = Vec::new();
    let mut manifest_bytes: Option<Result<Vec<u8>, std::io::Error>> = None;
    for path in &entries {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if name == QUARANTINE_DIR {
            continue;
        }
        if let Some(idx) = name.strip_prefix("shard.").and_then(|s| s.parse().ok()) {
            shard_dirs.push((idx, path.clone()));
        } else if name == MANIFEST_FILE {
            manifest_bytes = Some(fs.read(path));
        } else if name.ends_with(".tmp") {
            findings.push(ScrubFinding {
                path: path.clone(),
                damage: ScrubDamage::StrayTemp,
                detail: "leftover atomic-publish temp file".into(),
                frames_valid: None,
                quarantined_to: None,
            });
        }
    }
    shard_dirs.sort_unstable_by_key(|(i, _)| *i);

    let manifest_path = dir.join(MANIFEST_FILE);
    match manifest_bytes {
        None => findings.push(ScrubFinding {
            path: manifest_path,
            damage: ScrubDamage::ManifestMismatch,
            detail: format!(
                "manifest missing ({} shard directories present)",
                shard_dirs.len()
            ),
            frames_valid: None,
            quarantined_to: None,
        }),
        Some(Err(e)) => findings.push(ScrubFinding {
            path: manifest_path,
            damage: ScrubDamage::Unreadable,
            detail: format!("cannot read manifest: {e}"),
            frames_valid: None,
            quarantined_to: None,
        }),
        Some(Ok(bytes)) => match decode_manifest(&bytes) {
            Err(e) => findings.push(ScrubFinding {
                path: manifest_path,
                damage: ScrubDamage::ManifestMismatch,
                detail: format!("manifest fails validation: {e}"),
                frames_valid: None,
                quarantined_to: None,
            }),
            Ok(declared) if declared != shard_dirs.len() => findings.push(ScrubFinding {
                path: manifest_path,
                damage: ScrubDamage::ManifestMismatch,
                detail: format!(
                    "manifest declares {declared} shards but {} shard directories present",
                    shard_dirs.len()
                ),
                frames_valid: None,
                quarantined_to: None,
            }),
            Ok(declared) => findings.push(ScrubFinding {
                path: manifest_path,
                damage: ScrubDamage::Clean,
                detail: format!("{declared} shards"),
                frames_valid: None,
                quarantined_to: None,
            }),
        },
    }

    for (_, shard_dir) in &shard_dirs {
        scan_engine_dir::<P>(fs, shard_dir, &mut findings);
    }
    finalize(fs, dir, findings, quarantine)
}

/// Classifies every artifact in one engine (or shard) directory.
fn scan_engine_dir<P: SpPredicate + WireCodec>(
    fs: &dyn StorageFs,
    dir: &Path,
    findings: &mut Vec<ScrubFinding>,
) {
    let entries = match fs.read_dir(dir) {
        Ok(e) => e,
        Err(e) => {
            findings.push(ScrubFinding {
                path: dir.to_path_buf(),
                damage: ScrubDamage::Unreadable,
                detail: format!("cannot list directory: {e}"),
                frames_valid: None,
                quarantined_to: None,
            });
            return;
        }
    };
    // Segment files are classified against the segment manifest (a valid
    // segment nothing references is crash residue, not state), so decode
    // the manifest first.
    let manifest = scrub_segment_manifest(fs, dir, findings);
    for path in entries {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if name == QUARANTINE_DIR {
            continue;
        }
        if name.ends_with(".tmp") {
            findings.push(ScrubFinding {
                path,
                damage: ScrubDamage::StrayTemp,
                detail: "leftover atomic-publish temp file".into(),
                frames_valid: None,
                quarantined_to: None,
            });
        } else if name == CHECKPOINT_FILE {
            findings.push(scrub_checkpoint::<P>(fs, path));
        } else if name.starts_with("wal.") && name.ends_with(".log") {
            findings.push(scrub_wal::<P>(fs, path));
        } else if let Some(id) = parse_segment_name(name) {
            findings.push(scrub_segment(fs, path, id, manifest.as_ref()));
        }
    }
}

/// Classifies the segment manifest (when present) and reports every
/// segment it references that has no file on disk. Returns the decoded
/// manifest so segment files can be checked for membership.
fn scrub_segment_manifest(
    fs: &dyn StorageFs,
    dir: &Path,
    findings: &mut Vec<ScrubFinding>,
) -> Option<SegmentManifest> {
    let path = dir.join(SEGMENT_MANIFEST_FILE);
    if !fs.exists(&path) {
        return None;
    }
    let bytes = match fs.read(&path) {
        Ok(b) => b,
        Err(e) => {
            findings.push(ScrubFinding {
                path,
                damage: ScrubDamage::Unreadable,
                detail: format!("cannot read segment manifest: {e}"),
                frames_valid: None,
                quarantined_to: None,
            });
            return None;
        }
    };
    match SegmentManifest::decode(&bytes) {
        Err(e) => {
            findings.push(ScrubFinding {
                path,
                damage: ScrubDamage::ManifestMismatch,
                detail: format!("segment manifest fails validation: {e}"),
                frames_valid: None,
                quarantined_to: None,
            });
            None
        }
        Ok(m) => {
            for &id in &m.segments {
                let seg = dir.join(segment_file_name(id));
                if !fs.exists(&seg) {
                    findings.push(ScrubFinding {
                        path: seg,
                        damage: ScrubDamage::ManifestMismatch,
                        detail: format!("segment {id} referenced by manifest is missing"),
                        frames_valid: None,
                        quarantined_to: None,
                    });
                }
            }
            findings.push(ScrubFinding {
                path,
                damage: ScrubDamage::Clean,
                detail: format!("epoch {}, {} segment(s)", m.epoch, m.segments.len()),
                frames_valid: None,
                quarantined_to: None,
            });
            Some(m)
        }
    }
}

/// Deep-classifies one segment file: full framing walk plus every block
/// CRC ([`validate_segment_bytes`]), then manifest membership.
fn scrub_segment(
    fs: &dyn StorageFs,
    path: PathBuf,
    id: u64,
    manifest: Option<&SegmentManifest>,
) -> ScrubFinding {
    let bytes = match fs.read(&path) {
        Ok(b) => b,
        Err(e) => {
            return ScrubFinding {
                path,
                damage: ScrubDamage::Unreadable,
                detail: format!("cannot read segment: {e}"),
                frames_valid: None,
                quarantined_to: None,
            }
        }
    };
    let referenced = manifest.is_some_and(|m| m.segments.contains(&id));
    let (damage, detail) = match validate_segment_bytes(&bytes) {
        Ok(()) if referenced => (
            ScrubDamage::Clean,
            format!("segment {id}, {} byte(s)", bytes.len()),
        ),
        Ok(()) => (
            ScrubDamage::StraySegment,
            format!("valid segment {id} not referenced by the manifest (interrupted publish)"),
        ),
        Err(what @ "block checksum mismatch") => {
            (ScrubDamage::SegmentRot, format!("segment {id}: {what}"))
        }
        Err(what) => (ScrubDamage::TornSegment, format!("segment {id}: {what}")),
    };
    ScrubFinding {
        path,
        damage,
        detail,
        frames_valid: None,
        quarantined_to: None,
    }
}

fn scrub_checkpoint<P: SpPredicate + WireCodec>(fs: &dyn StorageFs, path: PathBuf) -> ScrubFinding {
    let bytes = match fs.read(&path) {
        Ok(b) => b,
        Err(e) => {
            return ScrubFinding {
                path,
                damage: ScrubDamage::Unreadable,
                detail: format!("cannot read checkpoint: {e}"),
                frames_valid: None,
                quarantined_to: None,
            }
        }
    };
    match decode_checkpoint::<P>(&bytes) {
        Ok((epoch, kbs)) => ScrubFinding {
            path,
            damage: ScrubDamage::Clean,
            detail: format!("epoch {epoch}, {} attribute(s)", kbs.len()),
            frames_valid: None,
            quarantined_to: None,
        },
        Err(e) => ScrubFinding {
            path,
            damage: ScrubDamage::CheckpointRot,
            detail: format!("checkpoint fails validation: {e}"),
            frames_valid: None,
            quarantined_to: None,
        },
    }
}

/// Classifies one WAL image. CRC validity alone is not enough for a clean
/// verdict: each valid frame's payload must also decode as a transaction,
/// otherwise recovery would refuse the log just the same.
fn scrub_wal<P: SpPredicate + WireCodec>(fs: &dyn StorageFs, path: PathBuf) -> ScrubFinding {
    let bytes = match fs.read(&path) {
        Ok(b) => b,
        Err(e) => {
            return ScrubFinding {
                path,
                damage: ScrubDamage::Unreadable,
                detail: format!("cannot read WAL: {e}"),
                frames_valid: None,
                quarantined_to: None,
            }
        }
    };
    if (bytes.len() as u64) < prkb_edbms::durability::WAL_HEADER_LEN {
        // Torn creation: the 8-byte header never completed. Recovery
        // rebuilds such a file empty (nothing was ever acknowledged
        // through it), so this is crash residue, not corruption.
        return ScrubFinding {
            path,
            damage: ScrubDamage::TornTail,
            detail: format!("torn creation: {} byte(s), header incomplete", bytes.len()),
            frames_valid: Some(0),
            quarantined_to: None,
        };
    }
    let scan = scan_frames(&bytes);
    let frames_valid = Some(scan.frames.len() as u64);
    for f in &scan.frames {
        let start = f.offset as usize + 8;
        let payload = &bytes[start..start + f.len as usize];
        if let Err(e) = decode_txn::<P>(payload) {
            return ScrubFinding {
                path,
                damage: ScrubDamage::MidLogCorruption,
                detail: format!(
                    "frame {} (offset {}) passes CRC but payload fails to decode: {e}",
                    f.index, f.offset
                ),
                frames_valid,
                quarantined_to: None,
            };
        }
    }
    let (damage, detail) = match scan.verdict {
        WalVerdict::Clean => (
            ScrubDamage::Clean,
            format!("{} frame(s), {} byte(s)", scan.frames.len(), scan.valid_len),
        ),
        WalVerdict::TornTail => {
            let bad = scan.bad.expect("torn tail reports its bad frame");
            (
                ScrubDamage::TornTail,
                format!(
                    "final record (index {}, offset {}) is partial: {}",
                    bad.index, bad.offset, bad.reason
                ),
            )
        }
        WalVerdict::MidLogCorruption => {
            let bad = scan.bad.expect("mid-log corruption reports its bad frame");
            (
                ScrubDamage::MidLogCorruption,
                format!(
                    "damaged frame {} (offset {}) followed by valid data: {}",
                    bad.index, bad.offset, bad.reason
                ),
            )
        }
        WalVerdict::BadHeader => (
            ScrubDamage::MidLogCorruption,
            "unrecognizable WAL header".into(),
        ),
    };
    ScrubFinding {
        path,
        damage,
        detail,
        frames_valid,
        quarantined_to: None,
    }
}

/// Sorts findings, optionally quarantines, bumps metrics, builds the report.
fn finalize(
    fs: &dyn StorageFs,
    root: &Path,
    mut findings: Vec<ScrubFinding>,
    quarantine: bool,
) -> ScrubReport {
    findings.sort_by(|a, b| a.path.cmp(&b.path));
    let mut quarantined = 0u64;
    if quarantine {
        for f in &mut findings {
            if f.damage.quarantinable() && fs.exists(&f.path) {
                match quarantine_file(fs, &f.path) {
                    Ok(dest) => {
                        f.quarantined_to = Some(dest);
                        quarantined += 1;
                    }
                    Err(e) => {
                        f.detail.push_str(&format!("; quarantine failed: {e}"));
                    }
                }
            }
        }
    }
    let corruptions = findings.iter().filter(|f| f.damage.is_corruption()).count() as u64;
    let m = crate::metrics::global();
    m.add(Metric::ScrubRuns, 1);
    m.add(Metric::ScrubCorruptions, corruptions);
    m.add(Metric::QuarantinedFiles, quarantined);
    ScrubReport {
        root: root.to_path_buf(),
        files_scanned: findings.len() as u64,
        corruptions,
        quarantined,
        findings,
    }
}

/// Moves `path` into a `quarantine/` directory next to it, never
/// overwriting an earlier quarantined artifact of the same name.
fn quarantine_file(fs: &dyn StorageFs, path: &Path) -> std::io::Result<PathBuf> {
    let parent = path.parent().unwrap_or_else(|| Path::new("."));
    let qdir = parent.join(QUARANTINE_DIR);
    fs.create_dir_all(&qdir)?;
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("artifact");
    let mut dest = qdir.join(name);
    let mut n = 1u32;
    while fs.exists(&dest) {
        dest = qdir.join(format!("{name}.{n}"));
        n += 1;
    }
    fs.rename(path, &dest)?;
    Ok(dest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prkb_edbms::{real_fs, Predicate};

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("prkb-scrub-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn empty_engine_dir_scrubs_clean() {
        let dir = tmp("empty");
        let fs = real_fs();
        let report = scrub_engine_dir::<Predicate>(fs.as_ref(), &dir, false);
        assert!(report.is_clean());
        assert!(!report.has_corruption());
        assert_eq!(report.files_scanned, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stray_temp_is_quarantined_not_deleted() {
        let dir = tmp("stray");
        let fs = real_fs();
        std::fs::write(dir.join("checkpoint.bin.tmp"), b"half-written").unwrap();
        let report = scrub_engine_dir::<Predicate>(fs.as_ref(), &dir, true);
        assert_eq!(report.quarantined, 1);
        let f = &report.findings[0];
        assert_eq!(f.damage, ScrubDamage::StrayTemp);
        let moved = f.quarantined_to.as_ref().unwrap();
        assert_eq!(std::fs::read(moved).unwrap(), b"half-written");
        assert!(!dir.join("checkpoint.bin.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quarantine_never_overwrites_prior_evidence() {
        let dir = tmp("collide");
        let fs = real_fs();
        std::fs::create_dir_all(dir.join(QUARANTINE_DIR)).unwrap();
        std::fs::write(dir.join(QUARANTINE_DIR).join("junk.tmp"), b"old").unwrap();
        std::fs::write(dir.join("junk.tmp"), b"new").unwrap();
        let report = scrub_engine_dir::<Predicate>(fs.as_ref(), &dir, true);
        assert_eq!(report.quarantined, 1);
        assert_eq!(
            std::fs::read(dir.join(QUARANTINE_DIR).join("junk.tmp")).unwrap(),
            b"old"
        );
        assert_eq!(
            std::fs::read(dir.join(QUARANTINE_DIR).join("junk.tmp.1")).unwrap(),
            b"new"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn seed_segment_store(dir: &Path) {
        use crate::lsm::manifest::write_segment_manifest;
        use crate::lsm::segment::write_segment;
        use prkb_edbms::durability::CrashInjector;
        let fs = real_fs();
        let crash = CrashInjector::disabled();
        write_segment(
            fs.as_ref(),
            dir,
            0,
            &[
                (1, b"partition-one".to_vec()),
                (2, b"partition-two".to_vec()),
            ],
            &crash,
        )
        .unwrap();
        write_segment_manifest(
            fs.as_ref(),
            dir,
            &SegmentManifest {
                epoch: 3,
                next_segment_id: 1,
                segments: vec![0],
            },
            &crash,
        )
        .unwrap();
    }

    #[test]
    fn healthy_segment_store_scrubs_clean() {
        let dir = tmp("seg-clean");
        seed_segment_store(&dir);
        let report = scrub_engine_dir::<Predicate>(real_fs().as_ref(), &dir, false);
        assert!(report.is_clean(), "{:?}", report.findings);
        assert_eq!(report.files_scanned, 2); // manifest + segment
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_segment_is_classified_and_quarantined() {
        let dir = tmp("seg-torn");
        seed_segment_store(&dir);
        let seg = dir.join(segment_file_name(0));
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &bytes[..bytes.len() / 2]).unwrap();
        let report = scrub_engine_dir::<Predicate>(real_fs().as_ref(), &dir, true);
        let f = report
            .findings
            .iter()
            .find(|f| f.damage == ScrubDamage::TornSegment)
            .expect("torn segment finding");
        assert!(f.quarantined_to.is_some());
        assert!(report.has_corruption());
        assert!(!seg.exists(), "torn segment moved to quarantine");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotted_block_is_segment_rot() {
        let dir = tmp("seg-rot");
        seed_segment_store(&dir);
        let seg = dir.join(segment_file_name(0));
        let mut bytes = std::fs::read(&seg).unwrap();
        // Flip one byte inside the first partition block (payload starts
        // right after the 16-byte header); framing checksums stay valid.
        bytes[20] ^= 0xFF;
        std::fs::write(&seg, &bytes).unwrap();
        let report = scrub_engine_dir::<Predicate>(real_fs().as_ref(), &dir, false);
        let f = report
            .findings
            .iter()
            .find(|f| f.damage == ScrubDamage::SegmentRot)
            .expect("segment rot finding");
        assert!(f.detail.contains("block checksum mismatch"), "{}", f.detail);
        assert!(report.has_corruption());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_referencing_missing_segment_is_mismatch() {
        let dir = tmp("seg-missing");
        seed_segment_store(&dir);
        std::fs::remove_file(dir.join(segment_file_name(0))).unwrap();
        let report = scrub_engine_dir::<Predicate>(real_fs().as_ref(), &dir, true);
        let f = report
            .findings
            .iter()
            .find(|f| f.damage == ScrubDamage::ManifestMismatch)
            .expect("missing segment finding");
        assert!(f.detail.contains("missing"), "{}", f.detail);
        // Nothing to quarantine — the file does not exist.
        assert!(f.quarantined_to.is_none());
        assert!(report.has_corruption());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unreferenced_segment_is_stray_not_corruption() {
        use crate::lsm::segment::write_segment;
        use prkb_edbms::durability::CrashInjector;
        let dir = tmp("seg-stray");
        seed_segment_store(&dir);
        // A crash between segment publish and manifest swap leaves a valid
        // segment with the next id that nothing references.
        write_segment(
            real_fs().as_ref(),
            &dir,
            1,
            &[(7, b"orphan".to_vec())],
            &CrashInjector::disabled(),
        )
        .unwrap();
        let report = scrub_engine_dir::<Predicate>(real_fs().as_ref(), &dir, true);
        let f = report
            .findings
            .iter()
            .find(|f| f.damage == ScrubDamage::StraySegment)
            .expect("stray segment finding");
        assert!(f.quarantined_to.is_some(), "stray quarantined for tidiness");
        assert!(
            !report.has_corruption(),
            "stray segment is residue, not rot"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stray_compaction_temp_is_quarantined() {
        let dir = tmp("seg-tmp");
        seed_segment_store(&dir);
        std::fs::write(dir.join("segment.1.seg.tmp"), b"half a compaction").unwrap();
        let report = scrub_engine_dir::<Predicate>(real_fs().as_ref(), &dir, true);
        let f = report
            .findings
            .iter()
            .find(|f| f.damage == ScrubDamage::StrayTemp)
            .expect("stray temp finding");
        assert!(f.quarantined_to.is_some());
        assert!(!dir.join("segment.1.seg.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn json_report_is_stable_and_escaped() {
        let report = ScrubReport {
            root: PathBuf::from("/tmp/x"),
            findings: vec![ScrubFinding {
                path: PathBuf::from("/tmp/x/wal.1.log"),
                damage: ScrubDamage::TornTail,
                detail: "say \"torn\"".into(),
                frames_valid: Some(3),
                quarantined_to: None,
            }],
            files_scanned: 1,
            corruptions: 0,
            quarantined: 0,
        };
        let json = report.to_json();
        assert!(json.starts_with("{\"schema\":\"prkb-scrub/v1\""), "{json}");
        assert!(json.contains("\"damage\":\"torn_tail\""), "{json}");
        assert!(json.contains("say \\\"torn\\\""), "{json}");
        assert!(json.contains("\"frames_valid\":3"), "{json}");
        assert!(!report.is_clean());
        assert!(!report.has_corruption());
    }
}
