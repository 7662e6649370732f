//! The segment manifest: the single source of truth for a shard's live
//! segment set.
//!
//! `segments.manifest` is tiny and rewritten whole on every flush,
//! compaction, and migration — the atomicity point of the subsystem.
//! Layout: `"PSGM" | version u16 | epoch u64 | next_segment_id u64 |
//! n u32 | (segment id u64)* | crc32 u32`.
//!
//! Invariants the swap protocol maintains:
//!
//! * A segment file is **published before** the manifest references it, so
//!   a manifest entry pointing at a missing segment is real corruption
//!   (or an externally deleted file) — never a crash artifact.
//! * A crash between a segment rename and the manifest swap leaves a
//!   *stray* segment: present on disk, referenced by nothing. Its id was
//!   never recorded in `next_segment_id`, so the next flush reuses the id
//!   and atomically overwrites the stray.
//! * `epoch` in the manifest equals the live WAL epoch: flushing bumps
//!   both together, compaction changes the segment list but **not** the
//!   epoch.

use std::path::Path;

use prkb_edbms::durability::{crc32, CrashInjector, CrashPoint, DurabilityError};
use prkb_edbms::StorageFs;

use crate::durability::DurableError;

/// Manifest file name inside a shard/engine directory.
pub const SEGMENT_MANIFEST_FILE: &str = "segments.manifest";
/// Manifest magic.
const MANIFEST_MAGIC: &[u8; 4] = b"PSGM";
/// Manifest format version.
const MANIFEST_VERSION: u16 = 1;

/// The decoded manifest: live segment ids (oldest → newest), the WAL epoch
/// they cover, and the next id to allocate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentManifest {
    /// WAL epoch the segment set corresponds to.
    pub epoch: u64,
    /// Next segment id a flush or compaction may allocate.
    pub next_segment_id: u64,
    /// Live segments, oldest first — the read path scans newest first.
    pub segments: Vec<u64>,
}

impl SegmentManifest {
    /// The empty manifest a fresh directory starts from.
    pub fn empty() -> SegmentManifest {
        SegmentManifest {
            epoch: 0,
            next_segment_id: 0,
            segments: Vec::new(),
        }
    }

    /// Serializes the manifest (CRC-trailed).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(26 + self.segments.len() * 8 + 4);
        out.extend_from_slice(MANIFEST_MAGIC);
        out.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.next_segment_id.to_le_bytes());
        out.extend_from_slice(&(self.segments.len() as u32).to_le_bytes());
        for id in &self.segments {
            out.extend_from_slice(&id.to_le_bytes());
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parses and validates an [`encode`](Self::encode) image.
    ///
    /// # Errors
    /// [`DurableError::CorruptSegment`] describing the first failed check —
    /// the manifest is swapped atomically, so damage here is real.
    pub fn decode(bytes: &[u8]) -> Result<SegmentManifest, DurableError> {
        if bytes.len() < 30 {
            return Err(DurableError::CorruptSegment("manifest truncated"));
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
        if crc32(body) != stored {
            return Err(DurableError::CorruptSegment("manifest checksum mismatch"));
        }
        if &body[0..4] != MANIFEST_MAGIC {
            return Err(DurableError::CorruptSegment("manifest bad magic"));
        }
        if u16::from_le_bytes(body[4..6].try_into().expect("2 bytes")) != MANIFEST_VERSION {
            return Err(DurableError::CorruptSegment("manifest unknown version"));
        }
        let epoch = u64::from_le_bytes(body[6..14].try_into().expect("8 bytes"));
        let next_segment_id = u64::from_le_bytes(body[14..22].try_into().expect("8 bytes"));
        let n = u32::from_le_bytes(body[22..26].try_into().expect("4 bytes")) as usize;
        if body.len() != 26 + n * 8 {
            return Err(DurableError::CorruptSegment("manifest length mismatch"));
        }
        let mut segments = Vec::with_capacity(n);
        for i in 0..n {
            let off = 26 + i * 8;
            let id = u64::from_le_bytes(body[off..off + 8].try_into().expect("8 bytes"));
            if id >= next_segment_id {
                return Err(DurableError::CorruptSegment(
                    "manifest references unallocated id",
                ));
            }
            if segments.contains(&id) {
                return Err(DurableError::CorruptSegment("manifest duplicate segment"));
            }
            segments.push(id);
        }
        Ok(SegmentManifest {
            epoch,
            next_segment_id,
            segments,
        })
    }
}

/// Atomically publishes `manifest` into `dir` (temp + fsync + rename +
/// directory fsync), firing [`BeforeManifestSwap`] and
/// [`AfterManifestSwap`].
///
/// A crash *before* the rename leaves the previous manifest intact (the
/// temp file is swept on recovery); after the rename the new segment set
/// is the durable truth.
///
/// [`BeforeManifestSwap`]: CrashPoint::BeforeManifestSwap
/// [`AfterManifestSwap`]: CrashPoint::AfterManifestSwap
pub fn write_segment_manifest(
    fs: &dyn StorageFs,
    dir: &Path,
    manifest: &SegmentManifest,
    crash: &CrashInjector,
) -> Result<(), DurabilityError> {
    let image = manifest.encode();
    let tmp = dir.join(format!("{SEGMENT_MANIFEST_FILE}.tmp"));
    let dst = dir.join(SEGMENT_MANIFEST_FILE);
    let mut file = fs.create_file(&tmp)?;
    file.write_all(&image)?;
    file.sync_all().map_err(|e| {
        DurabilityError::SyncFailed(format!("manifest sync_all on {}: {e}", tmp.display()))
    })?;
    drop(file);
    crash.fire(CrashPoint::BeforeManifestSwap)?;
    fs.rename(&tmp, &dst)?;
    crash.fire(CrashPoint::AfterManifestSwap)?;
    fs.sync_dir(dir).map_err(|e| {
        DurabilityError::SyncFailed(format!("directory fsync on {}: {e}", dir.display()))
    })?;
    Ok(())
}

/// Reads the manifest from `dir`, `None` if the directory has none (a
/// fresh engine, or a v1 directory not yet migrated).
pub fn read_segment_manifest(
    fs: &dyn StorageFs,
    dir: &Path,
) -> Result<Option<SegmentManifest>, DurableError> {
    let path = dir.join(SEGMENT_MANIFEST_FILE);
    if !fs.exists(&path) {
        return Ok(None);
    }
    let bytes = fs.read(&path).map_err(DurabilityError::Io)?;
    SegmentManifest::decode(&bytes).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prkb_edbms::real_fs;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("prkb-lsm-man-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tmpdir");
        dir
    }

    #[test]
    fn encode_decode_roundtrip() {
        let m = SegmentManifest {
            epoch: 12,
            next_segment_id: 9,
            segments: vec![3, 7, 8],
        };
        assert_eq!(SegmentManifest::decode(&m.encode()).unwrap(), m);
        let e = SegmentManifest::empty();
        assert_eq!(SegmentManifest::decode(&e.encode()).unwrap(), e);
    }

    #[test]
    fn decode_rejects_damage() {
        let m = SegmentManifest {
            epoch: 1,
            next_segment_id: 2,
            segments: vec![0, 1],
        };
        let good = m.encode();
        // Bit flip anywhere breaks the CRC.
        for i in 0..good.len() - 4 {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            assert!(SegmentManifest::decode(&bad).is_err(), "flip at {i}");
        }
        // Truncation.
        assert!(SegmentManifest::decode(&good[..good.len() - 1]).is_err());
        assert!(SegmentManifest::decode(&[]).is_err());
        // Unallocated id (id >= next_segment_id) with a fixed-up CRC.
        let bad = SegmentManifest {
            epoch: 1,
            next_segment_id: 1,
            segments: vec![1],
        };
        assert!(matches!(
            SegmentManifest::decode(&bad.encode()),
            Err(DurableError::CorruptSegment(
                "manifest references unallocated id"
            ))
        ));
        // Duplicate id.
        let dup = SegmentManifest {
            epoch: 1,
            next_segment_id: 5,
            segments: vec![2, 2],
        };
        assert!(SegmentManifest::decode(&dup.encode()).is_err());
    }

    #[test]
    fn write_read_and_missing() {
        let dir = tmpdir("rw");
        let fs = real_fs();
        assert!(read_segment_manifest(fs.as_ref(), &dir).unwrap().is_none());
        let m = SegmentManifest {
            epoch: 3,
            next_segment_id: 4,
            segments: vec![1, 3],
        };
        write_segment_manifest(fs.as_ref(), &dir, &m, &CrashInjector::disabled()).unwrap();
        assert_eq!(read_segment_manifest(fs.as_ref(), &dir).unwrap(), Some(m));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_before_swap_keeps_old_manifest() {
        let dir = tmpdir("crashswap");
        let fs = real_fs();
        let old = SegmentManifest {
            epoch: 1,
            next_segment_id: 1,
            segments: vec![0],
        };
        write_segment_manifest(fs.as_ref(), &dir, &old, &CrashInjector::disabled()).unwrap();
        let new = SegmentManifest {
            epoch: 2,
            next_segment_id: 2,
            segments: vec![0, 1],
        };
        let err = write_segment_manifest(
            fs.as_ref(),
            &dir,
            &new,
            &CrashInjector::at(CrashPoint::BeforeManifestSwap),
        );
        assert!(matches!(
            err,
            Err(DurabilityError::Crash(CrashPoint::BeforeManifestSwap))
        ));
        // Old manifest intact, temp file left for the recovery sweep.
        assert_eq!(read_segment_manifest(fs.as_ref(), &dir).unwrap(), Some(old));
        assert!(dir.join(format!("{SEGMENT_MANIFEST_FILE}.tmp")).exists());
        // Crash *after* the swap publishes the new set.
        let err = write_segment_manifest(
            fs.as_ref(),
            &dir,
            &new,
            &CrashInjector::at(CrashPoint::AfterManifestSwap),
        );
        assert!(matches!(
            err,
            Err(DurabilityError::Crash(CrashPoint::AfterManifestSwap))
        ));
        assert_eq!(read_segment_manifest(fs.as_ref(), &dir).unwrap(), Some(new));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
