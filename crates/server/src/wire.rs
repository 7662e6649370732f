//! `prkb-wire/v2` framing: length-prefixed, CRC32-guarded binary frames.
//!
//! A frame is exactly a write-ahead-log record, built and checked by the
//! same codec ([`append_frame`] / [`check_frame`] in
//! [`prkb_edbms::durability`]):
//!
//! ```text
//! len: u32 LE | crc: u32 LE | payload (len bytes)
//! ```
//!
//! where `crc` is CRC32 (IEEE, reflected) over `len || payload`, so a
//! damaged length field cannot silently misframe the stream. Unlike the
//! WAL there is no file header: a TCP connection is a fresh stream and every
//! frame is self-describing. Protocol versioning lives one layer up, in the
//! first payload byte (see [`crate::proto`]).
//!
//! Decoding is incremental and allocation-bounded: [`decode_frame`] works on
//! whatever bytes have arrived so far, answers "need more" without consuming
//! anything, and rejects a length field above the configured cap *before*
//! allocating. [`FrameReader`] grows its buffer only as bytes arrive, at
//! most 256 KiB ahead of them, so even a length under a large cap that the
//! peer never backs with bytes costs no more than that.

pub use prkb_edbms::durability::FRAME_HEADER_LEN;
use prkb_edbms::durability::{append_frame, check_frame, FrameCheck};
use std::fmt;
use std::io::{self, Read, Write};

/// Default cap on a single request frame's payload (1 MiB). Configurable
/// per server via [`crate::ServerConfig::max_frame_len`].
pub const DEFAULT_MAX_FRAME_LEN: u32 = 1 << 20;

/// Default cap on a reply frame's payload a client accepts (256 MiB): a
/// selection of 64M tuple ids, so a whole-table reply fits. Safe as a
/// default because [`FrameReader`] allocates only as bytes arrive.
pub const DEFAULT_MAX_REPLY_LEN: u32 = 256 << 20;

/// Smallest read [`FrameReader`] issues, so a burst of small pipelined
/// frames arrives in one call.
const MIN_READ: usize = 16 << 10;

/// Most room [`FrameReader`] adds ahead of the bytes that have arrived: a
/// large frame is read in reads of up to this size, and a length field the
/// peer never backs with bytes costs at most this much memory.
const READ_AHEAD_CAP: usize = 256 << 10;

/// Why a frame could not be decoded.
#[derive(Debug)]
pub enum FrameError {
    /// The length field exceeds the configured cap. Unrecoverable for the
    /// stream: the decoder cannot know where the next frame starts.
    TooLarge {
        /// The claimed payload length.
        len: u32,
        /// The configured cap.
        max: u32,
    },
    /// The checksum failed: the frame (or its length field) is damaged.
    /// Unrecoverable for the stream.
    BadCrc,
    /// The peer closed the stream in the middle of a frame.
    Truncated,
    /// An I/O failure on the underlying stream.
    Io(io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::TooLarge { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds cap of {max}")
            }
            FrameError::BadCrc => write!(f, "frame checksum mismatch"),
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::Io(e) => write!(f, "frame I/O failure: {e}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Encodes one frame around `payload`.
///
/// # Panics
/// Panics if `payload` exceeds `u32::MAX` bytes (callers cap far below).
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::new();
    append_frame(&mut frame, payload);
    frame
}

/// Attempts to decode one frame from the front of `bytes`.
///
/// Returns `Ok(None)` when the buffer holds only a prefix of a frame (read
/// more and retry), or `Ok(Some((payload, consumed)))` on success.
///
/// # Errors
/// [`FrameError::TooLarge`] and [`FrameError::BadCrc`] are stream-fatal:
/// framing is lost and the connection must be closed.
pub fn decode_frame(bytes: &[u8], max_len: u32) -> Result<Option<(Vec<u8>, usize)>, FrameError> {
    match check_frame(bytes, max_len) {
        FrameCheck::ShortHeader | FrameCheck::ShortBody { .. } => Ok(None),
        FrameCheck::TooLarge(len) => Err(FrameError::TooLarge { len, max: max_len }),
        FrameCheck::BadCrc { .. } => Err(FrameError::BadCrc),
        FrameCheck::Valid { payload, total } => Ok(Some((payload.to_vec(), total))),
    }
}

/// Writes one frame to a blocking stream.
///
/// # Errors
/// Propagates the underlying I/O failure.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    w.write_all(&encode_frame(payload))?;
    w.flush()
}

/// Incremental frame reader: buffers partial frames across reads so a slow
/// sender never blocks progress. Works over both read-timeout-armed
/// blocking streams and non-blocking sockets — `WouldBlock`/`TimedOut` map
/// to [`ReadStep::Idle`]/[`ReadStep::Stalled`], which is exactly the
/// "wait for the next readiness event" answer the epoll reactor needs.
///
/// The reader owns one buffer and reads straight into it, sized to the rest
/// of the frame being assembled (16–256 KiB per read). Consumed frames only
/// advance a cursor; the unconsumed tail moves to the front before the next
/// read.
#[derive(Debug, Default)]
pub struct FrameReader {
    /// `buf[start..end]` holds received, unconsumed bytes; `buf[end..]` is
    /// zeroed room for the next read.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

/// One step of [`FrameReader::poll`].
#[derive(Debug)]
pub enum ReadStep {
    /// A complete frame; `bytes_consumed` includes the 8-byte header.
    Frame {
        /// The frame payload.
        payload: Vec<u8>,
        /// Wire bytes this frame occupied (header included).
        bytes_consumed: usize,
    },
    /// The read timed out with **no** partial frame buffered (idle tick —
    /// check deadlines/shutdown and poll again).
    Idle,
    /// The read timed out mid-frame (slow or stalled sender — check the
    /// connection deadline and poll again).
    Stalled,
    /// The peer closed the stream at a clean frame boundary.
    Closed,
}

impl FrameReader {
    /// Creates an empty reader.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Bytes currently buffered (a partial frame, or zero between frames).
    /// The reactor compares this across polls to detect byte-level
    /// progress for its stall deadline.
    pub fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// True when a partial frame is buffered — the connection should be
    /// judged by the stall deadline, not the idle deadline.
    pub fn mid_frame(&self) -> bool {
        self.end > self.start
    }

    /// Reads until one of: a full frame, a timeout tick, EOF, or an error.
    ///
    /// # Errors
    /// Stream-fatal framing damage ([`FrameError::BadCrc`],
    /// [`FrameError::TooLarge`]), EOF mid-frame ([`FrameError::Truncated`]),
    /// or I/O failure.
    pub fn poll<R: Read>(&mut self, r: &mut R, max_len: u32) -> Result<ReadStep, FrameError> {
        loop {
            let frame_len = match check_frame(&self.buf[self.start..self.end], max_len) {
                FrameCheck::Valid { payload, total } => {
                    let payload = payload.to_vec();
                    self.start += total;
                    if self.start == self.end {
                        self.start = 0;
                        self.end = 0;
                    }
                    return Ok(ReadStep::Frame {
                        payload,
                        bytes_consumed: total,
                    });
                }
                FrameCheck::ShortHeader => FRAME_HEADER_LEN,
                FrameCheck::ShortBody { total } => total,
                FrameCheck::TooLarge(len) => {
                    return Err(FrameError::TooLarge { len, max: max_len })
                }
                FrameCheck::BadCrc { .. } => return Err(FrameError::BadCrc),
            };
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            }
            let room = (frame_len - self.end).clamp(MIN_READ, READ_AHEAD_CAP);
            if self.buf.len() < self.end + room {
                self.buf.resize(self.end + room, 0);
            }
            match r.read(&mut self.buf[self.end..]) {
                Ok(0) => {
                    return if self.end == 0 {
                        Ok(ReadStep::Closed)
                    } else {
                        Err(FrameError::Truncated)
                    };
                }
                Ok(n) => self.end += n,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(if self.end == 0 {
                        ReadStep::Idle
                    } else {
                        ReadStep::Stalled
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let frame = encode_frame(b"hello wire");
        let (payload, consumed) = decode_frame(&frame, DEFAULT_MAX_FRAME_LEN)
            .expect("ok")
            .expect("complete");
        assert_eq!(payload, b"hello wire");
        assert_eq!(consumed, frame.len());
    }

    #[test]
    fn empty_payload_is_legal() {
        let frame = encode_frame(b"");
        let (payload, consumed) = decode_frame(&frame, DEFAULT_MAX_FRAME_LEN)
            .expect("ok")
            .expect("complete");
        assert!(payload.is_empty());
        assert_eq!(consumed, FRAME_HEADER_LEN);
    }

    #[test]
    fn prefix_needs_more() {
        let frame = encode_frame(b"0123456789");
        for cut in 0..frame.len() {
            assert!(
                decode_frame(&frame[..cut], DEFAULT_MAX_FRAME_LEN)
                    .expect("prefix is not an error")
                    .is_none(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn bit_flip_fails_crc() {
        let frame = encode_frame(b"sensitive");
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x01;
            match decode_frame(&bad, DEFAULT_MAX_FRAME_LEN) {
                Err(FrameError::BadCrc) | Err(FrameError::TooLarge { .. }) | Ok(None) => {}
                other => panic!("flip at {i}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut frame = encode_frame(b"x");
        frame[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_frame(&frame, DEFAULT_MAX_FRAME_LEN),
            Err(FrameError::TooLarge { len: u32::MAX, .. })
        ));
    }

    #[test]
    fn back_to_back_frames_consume_exactly() {
        let mut stream = encode_frame(b"first");
        stream.extend_from_slice(&encode_frame(b"second"));
        let (p1, c1) = decode_frame(&stream, DEFAULT_MAX_FRAME_LEN)
            .expect("ok")
            .expect("complete");
        assert_eq!(p1, b"first");
        let (p2, _) = decode_frame(&stream[c1..], DEFAULT_MAX_FRAME_LEN)
            .expect("ok")
            .expect("complete");
        assert_eq!(p2, b"second");
    }

    #[test]
    fn frame_reader_reassembles_split_frames() {
        let mut stream = encode_frame(b"alpha");
        stream.extend_from_slice(&encode_frame(b"beta"));
        // Feed the reader one byte at a time via a cursor chunked reader.
        struct OneByte<'a>(&'a [u8], usize);
        impl Read for OneByte<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.1 >= self.0.len() {
                    return Ok(0);
                }
                buf[0] = self.0[self.1];
                self.1 += 1;
                Ok(1)
            }
        }
        let mut r = OneByte(&stream, 0);
        let mut reader = FrameReader::new();
        let mut seen = Vec::new();
        loop {
            match reader.poll(&mut r, DEFAULT_MAX_FRAME_LEN).expect("ok") {
                ReadStep::Frame { payload, .. } => seen.push(payload),
                ReadStep::Closed => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(seen, vec![b"alpha".to_vec(), b"beta".to_vec()]);
    }

    /// Hands out `data` in reads of random length, with `WouldBlock`
    /// ticks in between, then blocks forever.
    struct ShortReads {
        data: Vec<u8>,
        pos: usize,
        rng: rand::rngs::StdRng,
    }

    impl Read for ShortReads {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            use rand::Rng;
            if self.pos == self.data.len() || self.rng.gen_range(0..8u32) == 0 {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = self
                .rng
                .gen_range(1..=70_000usize)
                .min(buf.len())
                .min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn frame_reader_reassembles_a_large_frame_from_random_short_reads() {
        use rand::SeedableRng;
        let big: Vec<u8> = (0..3_000_000u32).map(|i| (i % 251) as u8).collect();
        let payloads = [b"head".to_vec(), big, Vec::new(), b"tail".to_vec()];
        for seed in 0..4u64 {
            let mut data = Vec::new();
            for p in &payloads {
                data.extend_from_slice(&encode_frame(p));
            }
            let mut r = ShortReads {
                data,
                pos: 0,
                rng: rand::rngs::StdRng::seed_from_u64(seed),
            };
            let mut reader = FrameReader::new();
            let mut seen = Vec::new();
            while seen.len() < payloads.len() {
                match reader.poll(&mut r, DEFAULT_MAX_REPLY_LEN).expect("ok") {
                    ReadStep::Frame {
                        payload,
                        bytes_consumed,
                    } => {
                        assert_eq!(bytes_consumed, FRAME_HEADER_LEN + payload.len());
                        seen.push(payload);
                    }
                    ReadStep::Idle | ReadStep::Stalled => {}
                    ReadStep::Closed => panic!("stream never closes"),
                }
            }
            assert!(seen == payloads, "seed {seed}: frames differ");
            assert!(!reader.mid_frame());
        }
    }

    #[test]
    fn lying_length_grows_the_buffer_by_at_most_the_read_ahead_cap() {
        use rand::SeedableRng;
        let mut data = DEFAULT_MAX_REPLY_LEN.to_le_bytes().to_vec();
        data.extend_from_slice(&[0u8; 4]);
        data.extend_from_slice(&[0xAB; 10]);
        let mut r = ShortReads {
            data,
            pos: 0,
            rng: rand::rngs::StdRng::seed_from_u64(1),
        };
        let mut reader = FrameReader::new();
        for _ in 0..64 {
            match reader.poll(&mut r, DEFAULT_MAX_REPLY_LEN).expect("ok") {
                ReadStep::Idle | ReadStep::Stalled => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(reader.buffered(), FRAME_HEADER_LEN + 10);
        assert!(
            reader.buf.capacity() <= FRAME_HEADER_LEN + 10 + READ_AHEAD_CAP,
            "capacity {} for 18 received bytes",
            reader.buf.capacity()
        );
    }

    #[test]
    fn eof_mid_frame_is_truncated() {
        let frame = encode_frame(b"doomed");
        let cut = &frame[..frame.len() - 2];
        let mut reader = FrameReader::new();
        let mut r = io::Cursor::new(cut.to_vec());
        let err = loop {
            match reader.poll(&mut r, DEFAULT_MAX_FRAME_LEN) {
                Ok(ReadStep::Frame { .. }) => panic!("frame cannot complete"),
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        assert!(matches!(err, FrameError::Truncated));
    }
}
