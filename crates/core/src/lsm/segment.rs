//! Immutable segment files: the on-disk unit of the segmented checkpoint.
//!
//! A segment holds the partitions (attributes) that were dirty at one flush,
//! each as a raw [`snapshot`](crate::snapshot) image. Layout:
//!
//! ```text
//! "PSEG" | version u16 | reserved u16 | segment_id u64        header, 16 B
//! block[0] .. block[n-1]                                      raw snapshots
//! n u32 | (attr u32 | offset u64 | len u64 | crc u32)*        index block
//! k u32 | n_bytes u32 | bits                                  bloom block
//! index_off u64 | index_len u64 | index_crc u32
//!   | bloom_off u64 | bloom_len u64 | bloom_crc u32
//!   | footer_crc u32 (over the 40 bytes above) | "GESP"       footer, 48 B
//! ```
//!
//! Everything a reader needs to *route* a partition probe — index entries
//! and the bloom filter — sits behind the fixed-size footer, so opening a
//! segment reads O(index) bytes via [`StorageFs::read_at`] and never
//! touches a partition payload. Per-block CRC32 lives in the index entry
//! (the block itself is a verbatim snapshot image), verified on every
//! [`read_block`](SegmentMeta::read_block).
//!
//! Segments are never modified after the publishing rename; the only
//! mutations in the subsystem are manifest swaps and whole-file removals.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use prkb_edbms::durability::{crc32, CrashInjector, CrashPoint, DurabilityError};
use prkb_edbms::{AttrId, StorageFs};

use super::bloom::Bloom;
use crate::durability::DurableError;

/// Segment format version.
pub const SEGMENT_VERSION: u16 = 1;
/// Segment header magic.
const SEG_MAGIC: &[u8; 4] = b"PSEG";
/// Footer trailer magic (reversed header magic, marks a complete file).
const SEG_TRAILER: &[u8; 4] = b"GESP";
/// Header length in bytes.
const HEADER_LEN: u64 = 16;
/// Footer length in bytes.
const FOOTER_LEN: u64 = 48;
/// Bytes per index entry: `attr u32 | offset u64 | len u64 | crc u32`.
const INDEX_ENTRY_LEN: usize = 24;

/// File name for segment `id` (`segment.<id>.seg`).
pub fn segment_file_name(id: u64) -> String {
    format!("segment.{id}.seg")
}

/// Parses `segment.<id>.seg`, returning the id. `None` for temp files
/// (`.seg.tmp`) and anything else.
pub fn parse_segment_name(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("segment.")?;
    let id = rest.strip_suffix(".seg")?;
    if id.is_empty() || !id.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    id.parse().ok()
}

/// One partition block's location inside a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockEntry {
    /// The attribute whose snapshot the block holds.
    pub attr: AttrId,
    /// Absolute file offset of the block's first byte.
    pub offset: u64,
    /// Block length in bytes.
    pub len: u64,
    /// CRC32 of the block bytes.
    pub crc: u32,
}

/// An opened segment: identity, routing structures, nothing else. Payload
/// bytes stay on disk until [`read_block`](Self::read_block).
#[derive(Debug, Clone)]
pub struct SegmentMeta {
    /// Segment id (monotonic per shard directory).
    pub id: u64,
    /// Full path of the segment file.
    pub path: PathBuf,
    /// Attr-sorted index of partition blocks.
    pub index: Vec<BlockEntry>,
    /// Partition-membership bloom filter.
    pub bloom: Bloom,
    /// Total file length in bytes.
    pub file_len: u64,
}

/// Builds the complete on-disk image of segment `id` from raw snapshot
/// blocks. Blocks are sorted by attribute; duplicate attributes are a
/// caller bug (the dirty set is a set).
pub fn encode_segment(id: u64, blocks: &[(AttrId, Vec<u8>)]) -> Vec<u8> {
    let mut sorted: Vec<&(AttrId, Vec<u8>)> = blocks.iter().collect();
    sorted.sort_by_key(|(attr, _)| *attr);
    debug_assert!(
        sorted.windows(2).all(|w| w[0].0 != w[1].0),
        "duplicate attribute in segment blocks"
    );

    let mut out = Vec::with_capacity(
        HEADER_LEN as usize
            + sorted.iter().map(|(_, b)| b.len()).sum::<usize>()
            + 4
            + sorted.len() * INDEX_ENTRY_LEN
            + FOOTER_LEN as usize,
    );
    out.extend_from_slice(SEG_MAGIC);
    out.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&id.to_le_bytes());

    let mut index = Vec::with_capacity(sorted.len());
    let mut bloom = Bloom::with_capacity(sorted.len());
    for (attr, bytes) in sorted {
        index.push(BlockEntry {
            attr: *attr,
            offset: out.len() as u64,
            len: bytes.len() as u64,
            crc: crc32(bytes),
        });
        bloom.insert(*attr);
        out.extend_from_slice(bytes);
    }

    let index_off = out.len() as u64;
    out.extend_from_slice(&(index.len() as u32).to_le_bytes());
    for e in &index {
        out.extend_from_slice(&e.attr.to_le_bytes());
        out.extend_from_slice(&e.offset.to_le_bytes());
        out.extend_from_slice(&e.len.to_le_bytes());
        out.extend_from_slice(&e.crc.to_le_bytes());
    }
    let index_len = out.len() as u64 - index_off;
    let index_crc = crc32(&out[index_off as usize..]);

    let bloom_off = out.len() as u64;
    bloom.encode_into(&mut out);
    let bloom_len = out.len() as u64 - bloom_off;
    let bloom_crc = crc32(&out[bloom_off as usize..]);

    let mut footer = Vec::with_capacity(FOOTER_LEN as usize);
    footer.extend_from_slice(&index_off.to_le_bytes());
    footer.extend_from_slice(&index_len.to_le_bytes());
    footer.extend_from_slice(&index_crc.to_le_bytes());
    footer.extend_from_slice(&bloom_off.to_le_bytes());
    footer.extend_from_slice(&bloom_len.to_le_bytes());
    footer.extend_from_slice(&bloom_crc.to_le_bytes());
    let fcrc = crc32(&footer);
    footer.extend_from_slice(&fcrc.to_le_bytes());
    footer.extend_from_slice(SEG_TRAILER);
    out.extend_from_slice(&footer);
    out
}

/// Writes segment `id` into `dir` with the atomic temp+rename protocol,
/// firing the four segment [`CrashPoint`] hooks. Returns the number of
/// bytes written (the published file's length).
///
/// A crash at any hook leaves either no published segment or a whole one:
/// [`MidSegmentWrite`](CrashPoint::MidSegmentWrite) leaves a torn *temp*
/// file (half the image, synced so reopen sees it), and the rename happens
/// only after the temp file is durable. A failed `sync_all` or directory
/// fsync surfaces as [`DurabilityError::SyncFailed`] and leaves the
/// previous manifest + segment set untouched.
pub fn write_segment(
    fs: &dyn StorageFs,
    dir: &Path,
    id: u64,
    blocks: &[(AttrId, Vec<u8>)],
    crash: &CrashInjector,
) -> Result<u64, DurabilityError> {
    let image = encode_segment(id, blocks);
    let final_name = segment_file_name(id);
    let tmp = dir.join(format!("{final_name}.tmp"));
    let dst = dir.join(&final_name);
    crash.fire(CrashPoint::BeforeSegmentWrite)?;
    let mut file = fs.create_file(&tmp)?;
    if let Err(e) = crash.fire(CrashPoint::MidSegmentWrite) {
        // Torn write: a strict prefix of the image reaches the disk before
        // the process dies.
        let torn = (image.len() / 2).min(image.len().saturating_sub(1));
        file.write_all(&image[..torn])?;
        file.sync_all()?;
        return Err(e);
    }
    file.write_all(&image)?;
    file.sync_all().map_err(|e| {
        DurabilityError::SyncFailed(format!("segment sync_all on {}: {e}", tmp.display()))
    })?;
    drop(file);
    crash.fire(CrashPoint::AfterSegmentSync)?;
    fs.rename(&tmp, &dst)?;
    crash.fire(CrashPoint::AfterSegmentRename)?;
    fs.sync_dir(dir).map_err(|e| {
        DurabilityError::SyncFailed(format!("directory fsync on {}: {e}", dir.display()))
    })?;
    Ok(image.len() as u64)
}

impl SegmentMeta {
    /// Opens segment `id` in `dir`, reading only the footer, index, and
    /// bloom blocks (three bounded [`read_at`](StorageFs::read_at) calls —
    /// no partition payload is touched).
    ///
    /// # Errors
    /// [`DurableError::CorruptSegment`] on any structural damage; I/O
    /// errors pass through as [`DurableError::Storage`].
    pub fn open(fs: &dyn StorageFs, dir: &Path, id: u64) -> Result<SegmentMeta, DurableError> {
        let path = dir.join(segment_file_name(id));
        let file_len = fs.len(&path).map_err(DurabilityError::Io)?;
        if file_len < HEADER_LEN + FOOTER_LEN {
            return Err(DurableError::CorruptSegment("file shorter than framing"));
        }
        let footer = fs
            .read_at(&path, file_len - FOOTER_LEN, FOOTER_LEN)
            .map_err(DurabilityError::Io)?;
        if &footer[44..48] != SEG_TRAILER {
            return Err(DurableError::CorruptSegment("missing trailer magic"));
        }
        let stored_fcrc = u32::from_le_bytes(footer[40..44].try_into().expect("4 bytes"));
        if crc32(&footer[..40]) != stored_fcrc {
            return Err(DurableError::CorruptSegment("footer checksum mismatch"));
        }
        let index_off = u64::from_le_bytes(footer[0..8].try_into().expect("8 bytes"));
        let index_len = u64::from_le_bytes(footer[8..16].try_into().expect("8 bytes"));
        let index_crc = u32::from_le_bytes(footer[16..20].try_into().expect("4 bytes"));
        let bloom_off = u64::from_le_bytes(footer[20..28].try_into().expect("8 bytes"));
        let bloom_len = u64::from_le_bytes(footer[28..36].try_into().expect("8 bytes"));
        let bloom_crc = u32::from_le_bytes(footer[36..40].try_into().expect("4 bytes"));
        if index_off < HEADER_LEN
            || index_off.checked_add(index_len) != Some(bloom_off)
            || bloom_off.checked_add(bloom_len) != Some(file_len - FOOTER_LEN)
        {
            return Err(DurableError::CorruptSegment("footer offsets inconsistent"));
        }

        let header = fs
            .read_at(&path, 0, HEADER_LEN)
            .map_err(DurabilityError::Io)?;
        if &header[0..4] != SEG_MAGIC {
            return Err(DurableError::CorruptSegment("bad header magic"));
        }
        if u16::from_le_bytes(header[4..6].try_into().expect("2 bytes")) != SEGMENT_VERSION {
            return Err(DurableError::CorruptSegment("unknown version"));
        }
        let stored_id = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
        if stored_id != id {
            return Err(DurableError::CorruptSegment("id does not match file name"));
        }

        let index_bytes = fs
            .read_at(&path, index_off, index_len)
            .map_err(DurabilityError::Io)?;
        if crc32(&index_bytes) != index_crc {
            return Err(DurableError::CorruptSegment("index checksum mismatch"));
        }
        let index = decode_index(&index_bytes, index_off, file_len)?;

        let bloom_bytes = fs
            .read_at(&path, bloom_off, bloom_len)
            .map_err(DurabilityError::Io)?;
        if crc32(&bloom_bytes) != bloom_crc {
            return Err(DurableError::CorruptSegment("bloom checksum mismatch"));
        }
        let bloom = Bloom::decode(&bloom_bytes)
            .ok_or(DurableError::CorruptSegment("bloom block malformed"))?;

        Ok(SegmentMeta {
            id,
            path,
            index,
            bloom,
            file_len,
        })
    }

    /// Binary-searches the index for `attr`.
    pub fn find(&self, attr: AttrId) -> Option<&BlockEntry> {
        self.index
            .binary_search_by_key(&attr, |e| e.attr)
            .ok()
            .map(|i| &self.index[i])
    }

    /// Reads and CRC-verifies one partition block — the only payload read
    /// in the whole subsystem, and it is bounded by the block length.
    pub fn read_block(
        &self,
        fs: &dyn StorageFs,
        entry: &BlockEntry,
    ) -> Result<Vec<u8>, DurableError> {
        let bytes = fs
            .read_at(&self.path, entry.offset, entry.len)
            .map_err(DurabilityError::Io)?;
        if crc32(&bytes) != entry.crc {
            return Err(DurableError::CorruptSegment("block checksum mismatch"));
        }
        Ok(bytes)
    }
}

/// Decodes and validates an index block (offsets must be sorted by attr,
/// in-bounds, and non-overlapping with the framing).
fn decode_index(
    bytes: &[u8],
    index_off: u64,
    file_len: u64,
) -> Result<Vec<BlockEntry>, DurableError> {
    if bytes.len() < 4 {
        return Err(DurableError::CorruptSegment("index block truncated"));
    }
    let n = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes")) as usize;
    if bytes.len() != 4 + n * INDEX_ENTRY_LEN {
        return Err(DurableError::CorruptSegment("index length mismatch"));
    }
    let mut index = Vec::with_capacity(n);
    let mut pos = 4usize;
    for _ in 0..n {
        let e = &bytes[pos..pos + INDEX_ENTRY_LEN];
        pos += INDEX_ENTRY_LEN;
        let entry = BlockEntry {
            attr: u32::from_le_bytes(e[0..4].try_into().expect("4 bytes")),
            offset: u64::from_le_bytes(e[4..12].try_into().expect("8 bytes")),
            len: u64::from_le_bytes(e[12..20].try_into().expect("8 bytes")),
            crc: u32::from_le_bytes(e[20..24].try_into().expect("4 bytes")),
        };
        if entry.offset < HEADER_LEN
            || entry
                .offset
                .checked_add(entry.len)
                .is_none_or(|end| end > index_off)
        {
            return Err(DurableError::CorruptSegment("block extent out of bounds"));
        }
        if let Some(prev) = index.last() {
            let prev: &BlockEntry = prev;
            if prev.attr >= entry.attr {
                return Err(DurableError::CorruptSegment("index not attr-sorted"));
            }
        }
        index.push(entry);
    }
    let _ = file_len;
    Ok(index)
}

/// Validates raw segment bytes end to end — header, footer, index, bloom,
/// and every block CRC. The scrubber's deep check; the hot path never calls
/// this.
pub(crate) fn validate_segment_bytes(bytes: &[u8]) -> Result<(), &'static str> {
    let file_len = bytes.len() as u64;
    if file_len < HEADER_LEN + FOOTER_LEN {
        return Err("file shorter than framing");
    }
    if &bytes[0..4] != SEG_MAGIC {
        return Err("bad header magic");
    }
    if u16::from_le_bytes(bytes[4..6].try_into().expect("2 bytes")) != SEGMENT_VERSION {
        return Err("unknown version");
    }
    let footer = &bytes[(file_len - FOOTER_LEN) as usize..];
    if &footer[44..48] != SEG_TRAILER {
        return Err("missing trailer magic");
    }
    if crc32(&footer[..40]) != u32::from_le_bytes(footer[40..44].try_into().expect("4 bytes")) {
        return Err("footer checksum mismatch");
    }
    let index_off = u64::from_le_bytes(footer[0..8].try_into().expect("8 bytes"));
    let index_len = u64::from_le_bytes(footer[8..16].try_into().expect("8 bytes"));
    let index_crc = u32::from_le_bytes(footer[16..20].try_into().expect("4 bytes"));
    let bloom_off = u64::from_le_bytes(footer[20..28].try_into().expect("8 bytes"));
    let bloom_len = u64::from_le_bytes(footer[28..36].try_into().expect("8 bytes"));
    let bloom_crc = u32::from_le_bytes(footer[36..40].try_into().expect("4 bytes"));
    if index_off < HEADER_LEN
        || index_off.checked_add(index_len) != Some(bloom_off)
        || bloom_off.checked_add(bloom_len) != Some(file_len - FOOTER_LEN)
    {
        return Err("footer offsets inconsistent");
    }
    let index_bytes = &bytes[index_off as usize..(index_off + index_len) as usize];
    if crc32(index_bytes) != index_crc {
        return Err("index checksum mismatch");
    }
    let bloom_bytes = &bytes[bloom_off as usize..(bloom_off + bloom_len) as usize];
    if crc32(bloom_bytes) != bloom_crc {
        return Err("bloom checksum mismatch");
    }
    if Bloom::decode(bloom_bytes).is_none() {
        return Err("bloom block malformed");
    }
    let index =
        decode_index(index_bytes, index_off, file_len).map_err(|_| "index block malformed")?;
    for e in &index {
        let block = &bytes[e.offset as usize..(e.offset + e.len) as usize];
        if crc32(block) != e.crc {
            return Err("block checksum mismatch");
        }
    }
    Ok(())
}

/// Opens every segment in `ids` (convenience for store/compaction paths).
pub(crate) fn open_all(
    fs: &Arc<dyn StorageFs>,
    dir: &Path,
    ids: &[u64],
) -> Result<Vec<SegmentMeta>, DurableError> {
    ids.iter()
        .map(|&id| SegmentMeta::open(fs.as_ref(), dir, id))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use prkb_edbms::real_fs;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("prkb-lsm-seg-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tmpdir");
        dir
    }

    fn sample_blocks() -> Vec<(AttrId, Vec<u8>)> {
        vec![
            (2, b"beta-partition".to_vec()),
            (0, b"alpha".to_vec()),
            (7, vec![0xAB; 100]),
        ]
    }

    #[test]
    fn name_roundtrip_and_rejects() {
        assert_eq!(parse_segment_name(&segment_file_name(42)), Some(42));
        assert_eq!(parse_segment_name("segment.0.seg"), Some(0));
        assert_eq!(parse_segment_name("segment.3.seg.tmp"), None);
        assert_eq!(parse_segment_name("segment..seg"), None);
        assert_eq!(parse_segment_name("segment.1x.seg"), None);
        assert_eq!(parse_segment_name("wal.3.log"), None);
    }

    #[test]
    fn write_open_read_roundtrip() {
        let dir = tmpdir("roundtrip");
        let fs = real_fs();
        let blocks = sample_blocks();
        let written =
            write_segment(fs.as_ref(), &dir, 5, &blocks, &CrashInjector::disabled()).unwrap();
        assert_eq!(
            written,
            std::fs::metadata(dir.join(segment_file_name(5)))
                .unwrap()
                .len()
        );
        let meta = SegmentMeta::open(fs.as_ref(), &dir, 5).unwrap();
        assert_eq!(meta.id, 5);
        // Attr-sorted index regardless of input order.
        let attrs: Vec<AttrId> = meta.index.iter().map(|e| e.attr).collect();
        assert_eq!(attrs, vec![0, 2, 7]);
        for (attr, bytes) in &blocks {
            let e = meta.find(*attr).expect("indexed");
            assert_eq!(&meta.read_block(fs.as_ref(), e).unwrap(), bytes);
            assert!(meta.bloom.maybe_contains(*attr));
        }
        assert!(meta.find(99).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_segment_roundtrips() {
        let dir = tmpdir("empty");
        let fs = real_fs();
        write_segment(fs.as_ref(), &dir, 0, &[], &CrashInjector::disabled()).unwrap();
        let meta = SegmentMeta::open(fs.as_ref(), &dir, 0).unwrap();
        assert!(meta.index.is_empty());
        assert!(!meta.bloom.maybe_contains(0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_image_refuses_to_open() {
        let dir = tmpdir("torn");
        let fs = real_fs();
        write_segment(
            fs.as_ref(),
            &dir,
            1,
            &sample_blocks(),
            &CrashInjector::disabled(),
        )
        .unwrap();
        let path = dir.join(segment_file_name(1));
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(
            SegmentMeta::open(fs.as_ref(), &dir, 1),
            Err(DurableError::CorruptSegment(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flipped_block_byte_fails_only_that_block() {
        let dir = tmpdir("bitrot");
        let fs = real_fs();
        let blocks = sample_blocks();
        write_segment(fs.as_ref(), &dir, 2, &blocks, &CrashInjector::disabled()).unwrap();
        let path = dir.join(segment_file_name(2));
        let mut bytes = std::fs::read(&path).unwrap();
        let meta = SegmentMeta::open(fs.as_ref(), &dir, 2).unwrap();
        let victim = meta.find(2).unwrap();
        bytes[victim.offset as usize] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        // Open still succeeds (framing intact)…
        let meta = SegmentMeta::open(fs.as_ref(), &dir, 2).unwrap();
        // …the damaged block fails its CRC…
        let victim = *meta.find(2).unwrap();
        assert!(matches!(
            meta.read_block(fs.as_ref(), &victim),
            Err(DurableError::CorruptSegment("block checksum mismatch"))
        ));
        // …and the untouched blocks still read.
        let ok = *meta.find(0).unwrap();
        assert_eq!(meta.read_block(fs.as_ref(), &ok).unwrap(), b"alpha");
        // The deep validator flags the same damage.
        assert_eq!(
            validate_segment_bytes(&bytes),
            Err("block checksum mismatch")
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn id_mismatch_is_corruption() {
        let dir = tmpdir("idmismatch");
        let fs = real_fs();
        write_segment(fs.as_ref(), &dir, 3, &[], &CrashInjector::disabled()).unwrap();
        std::fs::rename(
            dir.join(segment_file_name(3)),
            dir.join(segment_file_name(4)),
        )
        .unwrap();
        assert!(matches!(
            SegmentMeta::open(fs.as_ref(), &dir, 4),
            Err(DurableError::CorruptSegment("id does not match file name"))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_hooks_fire_in_order() {
        let dir = tmpdir("crashhooks");
        let fs = real_fs();
        for point in [
            CrashPoint::BeforeSegmentWrite,
            CrashPoint::MidSegmentWrite,
            CrashPoint::AfterSegmentSync,
            CrashPoint::AfterSegmentRename,
        ] {
            let err = write_segment(
                fs.as_ref(),
                &dir,
                9,
                &sample_blocks(),
                &CrashInjector::at(point),
            );
            match err {
                Err(DurabilityError::Crash(p)) => assert_eq!(p, point),
                other => panic!("expected crash at {point:?}, got {other:?}"),
            }
            let published = dir.join(segment_file_name(9));
            match point {
                // Crash after the rename leaves a fully valid published file.
                CrashPoint::AfterSegmentRename => {
                    let meta = SegmentMeta::open(fs.as_ref(), &dir, 9).unwrap();
                    assert_eq!(meta.index.len(), 3);
                    std::fs::remove_file(&published).unwrap();
                }
                // Earlier crashes leave at most a temp file (possibly torn).
                _ => {
                    assert!(!published.exists(), "no publish before rename ({point:?})");
                    let _ = std::fs::remove_file(dir.join(format!("{}.tmp", segment_file_name(9))));
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_temp_from_mid_write_is_invalid() {
        let dir = tmpdir("torntemp");
        let fs = real_fs();
        let err = write_segment(
            fs.as_ref(),
            &dir,
            6,
            &sample_blocks(),
            &CrashInjector::at(CrashPoint::MidSegmentWrite),
        );
        assert!(matches!(
            err,
            Err(DurabilityError::Crash(CrashPoint::MidSegmentWrite))
        ));
        let tmp = dir.join(format!("{}.tmp", segment_file_name(6)));
        let torn = std::fs::read(&tmp).unwrap();
        assert!(!torn.is_empty(), "torn prefix reached the disk");
        assert!(validate_segment_bytes(&torn).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
