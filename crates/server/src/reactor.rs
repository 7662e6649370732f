//! The epoll reactor: one thread multiplexing every connection.
//!
//! This replaces the old thread-per-connection serve loop and its two
//! poll-tick warts (a 50 ms read timeout per connection and a 10 ms accept
//! sleep) with readiness-driven I/O:
//!
//! * the listener, an eventfd waker, and every connection are registered
//!   with one [`Poller`](crate::epoll::Poller); the loop sleeps in
//!   `epoll_wait` until something is actually ready;
//! * reads feed the existing [`FrameReader`] incrementally — its
//!   `Idle`/`Stalled` states, designed for poll ticks, map one-to-one onto
//!   level-triggered `WouldBlock`;
//! * decoded requests are handed to the worker pool over a bounded queue;
//!   responses come back through a completion list plus an eventfd wake,
//!   and are flushed with explicit `EPOLLOUT` re-arm when a peer's socket
//!   buffer fills;
//! * a connection may pipeline: frames decoded while a request is in
//!   flight park in a per-connection inbox and are submitted FIFO, one at
//!   a time, so responses come back in request order and byte-identical
//!   to a sequential replay.
//!
//! ## Connection state machine
//!
//! ```text
//!            readable                 frame decoded
//!   [open] ───────────▶ FrameReader ───────────────▶ submit / inbox
//!     ▲                     │                              │
//!     │ flushed             │ frame error / EOF            ▼ completion
//!     │                     ▼                        append response
//!   [flushing] ◀────── [read-closed] ◀───────────────── to out-buffer
//!     │    ▲                                               │
//!     │    └── WouldBlock: arm EPOLLOUT, wait ◀────────────┘
//!     ▼
//!   [closed]  (also: idle/stall/write deadline sweep, drain)
//! ```
//!
//! Two deadlines, reset by different events, replace the old single idle
//! clock: the **idle deadline** starts at accept and resets on every
//! *completed* frame (and every response), and only applies between
//! frames; the **stall deadline** applies while a partial frame is
//! buffered and resets on every received *byte*. A slow-but-progressing
//! sender therefore answers to the (short-ish) stall budget, never to the
//! 30 s idle axe, and a silent connection cannot camp mid-frame forever.
//!
//! Admission is connection-slot based and unchanged in effect: at most
//! `threads + queue` connections are admitted (the worker pool plus its
//! old queue depth); beyond that, accepts are shed with a best-effort
//! BUSY frame, exactly like the old gate.

use crate::admission::{shed_busy, AdmissionGate, Admit};
use crate::conn::Shared;
use crate::epoll::{Event, Poller};
use crate::wire::{FrameReader, ReadStep, FRAME_HEADER_LEN};
use prkb_core::metrics::{self, HistogramId, Metric};
use prkb_core::snapshot::WireCodec;
use prkb_core::SpPredicate;
use prkb_edbms::durability::append_frame;
use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Token of the listening socket.
const TOK_LISTENER: u64 = u64::MAX;
/// Token of the eventfd waker.
const TOK_WAKER: u64 = u64::MAX - 1;

/// One decoded request on its way to a worker.
pub(crate) struct WorkItem {
    /// Slab index of the connection.
    pub token: usize,
    /// Generation guard: a recycled slot ignores stale completions.
    pub gen: u64,
    /// The decoded frame payload.
    pub payload: Vec<u8>,
    /// When the reactor enqueued it (feeds `reactor_queue_wait_us`).
    pub enqueued: Instant,
}

/// One finished response on its way back to the reactor.
pub(crate) struct Completion {
    /// Slab index of the connection.
    pub token: usize,
    /// Generation the request was submitted under.
    pub gen: u64,
    /// Encoded response payload.
    pub bytes: Arc<Vec<u8>>,
    /// Close the connection after this response flushes.
    pub close: bool,
}

/// The worker → reactor return path (paired with an eventfd wake).
pub(crate) type CompletionQueue = Mutex<Vec<Completion>>;

/// Per-connection reactor state.
struct Conn {
    stream: TcpStream,
    gen: u64,
    reader: FrameReader,
    /// Decoded-but-not-yet-submitted pipelined requests, FIFO.
    inbox: VecDeque<Vec<u8>>,
    /// One request from this connection is with the workers.
    busy: bool,
    /// Unflushed response bytes (already counted in the wire totals).
    out: Vec<u8>,
    out_pos: usize,
    /// EPOLLOUT currently armed.
    want_write: bool,
    /// Still reading (no EOF, no frame error).
    read_open: bool,
    /// Close as soon as `out` drains.
    close_after_flush: bool,
    /// A stream-fatal frame error waiting to be reported once the
    /// responses for frames decoded *before* the damage have gone out.
    pending_error: Option<String>,
    /// Idle clock: reset at accept, on every completed frame, and on
    /// every response. Only consulted when no partial frame is buffered.
    last_frame: Instant,
    /// Stall clock: reset on every received byte. Only consulted while a
    /// partial frame is buffered.
    last_byte: Instant,
    /// When `out` first became non-empty-and-unflushable.
    write_since: Option<Instant>,
}

impl Conn {
    fn flushed(&self) -> bool {
        self.out_pos >= self.out.len()
    }

    /// Nothing left to do for this connection once the out-buffer drains.
    fn finished_reading(&self) -> bool {
        !self.read_open && !self.busy && self.inbox.is_empty() && self.pending_error.is_none()
    }
}

struct Reactor<'a, P: SpPredicate + WireCodec, O> {
    poller: Poller,
    shared: &'a Arc<Shared<P, O>>,
    tx: SyncSender<WorkItem>,
    completions: &'a Arc<CompletionQueue>,
    gate: AdmissionGate,
    slab: Vec<Option<Conn>>,
    free: Vec<usize>,
    live: usize,
    next_gen: u64,
    draining: bool,
}

/// Runs the reactor until a graceful drain completes. Dropping the
/// returned-from function drops `tx`, which is what releases the worker
/// pool.
pub(crate) fn run<P, O>(
    listener: TcpListener,
    shared: &Arc<Shared<P, O>>,
    tx: SyncSender<WorkItem>,
    completions: &Arc<CompletionQueue>,
    conn_cap: usize,
) -> io::Result<()>
where
    P: SpPredicate + WireCodec,
    O: 'static,
{
    let poller = Poller::new()?;
    listener.set_nonblocking(true)?;
    poller.add(listener.as_raw_fd(), TOK_LISTENER, true, false)?;
    let waker_fd = shared
        .wake
        .get()
        .expect("waker installed before reactor start")
        .as_raw_fd();
    poller.add(waker_fd, TOK_WAKER, true, false)?;

    let mut r = Reactor {
        poller,
        shared,
        tx,
        completions,
        gate: AdmissionGate::new(conn_cap),
        slab: Vec::new(),
        free: Vec::new(),
        live: 0,
        next_gen: 0,
        draining: false,
    };

    // Deadline sweeps are O(live connections); run them at a quarter of
    // the tightest deadline so expiry detection stays within 25% of the
    // configured budget without per-event scans.
    let sweep_every = (shared
        .idle_deadline
        .min(shared.stall_deadline)
        .min(shared.write_timeout)
        / 4)
    .clamp(Duration::from_millis(10), Duration::from_secs(1));
    let mut next_sweep = Instant::now() + sweep_every;
    let mut events: Vec<Event> = Vec::with_capacity(256);

    loop {
        let timeout = next_sweep.saturating_duration_since(Instant::now());
        r.poller.wait(&mut events, Some(timeout))?;
        if !events.is_empty() {
            metrics::global().add(Metric::EpollWakeups, 1);
        }
        for ev in events.drain(..) {
            match ev.token {
                TOK_LISTENER => r.accept_ready(&listener),
                TOK_WAKER => {
                    if let Some(w) = shared.wake.get() {
                        w.drain();
                    }
                }
                tok => r.conn_ready(tok as usize, ev),
            }
        }
        r.drain_completions();
        if shared.shutdown.load(Ordering::SeqCst) && !r.draining {
            r.begin_drain(&listener);
        }
        let now = Instant::now();
        if now >= next_sweep {
            r.sweep(now);
            next_sweep = now + sweep_every;
        }
        if r.draining && r.live == 0 {
            return Ok(());
        }
    }
}

impl<P: SpPredicate + WireCodec, O> Reactor<'_, P, O> {
    fn accept_ready(&mut self, listener: &TcpListener) {
        loop {
            match listener.accept() {
                Ok((s, _)) => {
                    if self.draining || self.shared.shutdown.load(Ordering::SeqCst) {
                        continue; // drop: drain takes no new connections
                    }
                    match self.gate.offer() {
                        Admit::Admitted => self.register(s),
                        Admit::Shed => {
                            self.shared.busy_rejections.fetch_add(1, Ordering::Relaxed);
                            metrics::global().add(Metric::BusyRejections, 1);
                            shed_busy(s, self.shared.write_timeout);
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Transient (EMFILE, ECONNABORTED): back off one tick
                    // instead of spinning on a level-triggered listener.
                    std::thread::sleep(Duration::from_millis(1));
                    break;
                }
            }
        }
    }

    fn register(&mut self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            self.gate.release();
            return;
        }
        let idx = self.free.pop().unwrap_or_else(|| {
            self.slab.push(None);
            self.slab.len() - 1
        });
        self.next_gen += 1;
        if self
            .poller
            .add(stream.as_raw_fd(), idx as u64, true, false)
            .is_err()
        {
            self.free.push(idx);
            self.gate.release();
            return;
        }
        let now = Instant::now();
        self.slab[idx] = Some(Conn {
            stream,
            gen: self.next_gen,
            reader: FrameReader::new(),
            inbox: VecDeque::new(),
            busy: false,
            out: Vec::new(),
            out_pos: 0,
            want_write: false,
            read_open: true,
            close_after_flush: false,
            pending_error: None,
            last_frame: now,
            last_byte: now,
            write_since: None,
        });
        self.live += 1;
    }

    fn close(&mut self, idx: usize) {
        if let Some(conn) = self.slab.get_mut(idx).and_then(Option::take) {
            let _ = self.poller.delete(conn.stream.as_raw_fd());
            self.free.push(idx);
            self.live -= 1;
            self.gate.release();
        }
    }

    fn conn_ready(&mut self, idx: usize, ev: Event) {
        let Some(conn) = self.slab.get(idx).and_then(Option::as_ref) else {
            return; // already closed this batch
        };
        let read_open = conn.read_open;
        if ev.readable && read_open {
            self.handle_read(idx);
        } else if ev.hangup {
            self.close(idx);
            return;
        }
        if ev.writable && self.slab.get(idx).is_some_and(Option::is_some) {
            self.try_flush(idx);
        }
    }

    fn handle_read(&mut self, idx: usize) {
        let now = Instant::now();
        let mut made_progress = false;
        loop {
            let Some(conn) = self.slab[idx].as_mut() else {
                return;
            };
            let buffered_before = conn.reader.buffered();
            match conn
                .reader
                .poll(&mut conn.stream, self.shared.max_frame_len)
            {
                Ok(ReadStep::Frame {
                    payload,
                    bytes_consumed,
                }) => {
                    conn.last_frame = now;
                    conn.last_byte = now;
                    self.shared
                        .bytes
                        .fetch_add(bytes_consumed as u64, Ordering::Relaxed);
                    metrics::global().add(Metric::ServerBytes, bytes_consumed as u64);
                    self.shared.requests.fetch_add(1, Ordering::Relaxed);
                    metrics::global().add(Metric::ServerRequests, 1);
                    metrics::global().observe(
                        HistogramId::PipelinedDepth,
                        (conn.inbox.len() + usize::from(conn.busy)) as u64,
                    );
                    if conn.busy || self.draining {
                        // FIFO pipelining: one request per connection in
                        // the pool at a time keeps responses ordered and
                        // byte-identical to sequential execution. During
                        // drain, new frames are dropped like the old
                        // queued-but-unserved connections were.
                        if !self.draining {
                            conn.inbox.push_back(payload);
                        }
                    } else {
                        self.submit(idx, payload);
                    }
                }
                Ok(ReadStep::Idle) | Ok(ReadStep::Stalled) => {
                    if conn.reader.buffered() != buffered_before || made_progress {
                        conn.last_byte = now;
                    }
                    return;
                }
                Ok(ReadStep::Closed) => {
                    conn.read_open = false;
                    // Stop polling reads: a level-triggered EOF would spin.
                    self.rearm(idx);
                    self.maybe_finish(idx);
                    return;
                }
                Err(e) => {
                    self.shared.frame_errors.fetch_add(1, Ordering::Relaxed);
                    metrics::global().add(Metric::FrameErrors, 1);
                    conn.read_open = false;
                    conn.pending_error = Some(e.to_string());
                    self.rearm(idx);
                    self.maybe_finish(idx);
                    return;
                }
            }
            made_progress = true;
        }
    }

    /// Hands one payload to the worker pool. The queue is sized to the
    /// admission cap and each connection has at most one request in
    /// flight, so `Full` is unreachable; it is still handled (park in the
    /// inbox, the sweep resubmits) rather than asserted.
    fn submit(&mut self, idx: usize, payload: Vec<u8>) {
        let Some(conn) = self.slab[idx].as_mut() else {
            return;
        };
        let item = WorkItem {
            token: idx,
            gen: conn.gen,
            payload,
            enqueued: Instant::now(),
        };
        match self.tx.try_send(item) {
            Ok(()) => conn.busy = true,
            Err(TrySendError::Full(item)) => conn.inbox.push_front(item.payload),
            Err(TrySendError::Disconnected(_)) => {}
        }
    }

    /// When reading is over (EOF or frame error) and nothing is in
    /// flight, emit the pending error frame (if any) and arrange the
    /// close.
    fn maybe_finish(&mut self, idx: usize) {
        let Some(conn) = self.slab[idx].as_mut() else {
            return;
        };
        if conn.read_open || conn.busy || !conn.inbox.is_empty() {
            return;
        }
        if let Some(message) = conn.pending_error.take() {
            let payload = crate::proto::Response::Error {
                code: crate::proto::code::FRAME,
                message,
            }
            .encode();
            self.append_response(idx, &payload);
        }
        if let Some(conn) = self.slab[idx].as_mut() {
            conn.close_after_flush = true;
        }
        self.try_flush(idx);
    }

    /// Appends one framed response to the out-buffer and counts its wire
    /// bytes.
    fn append_response(&mut self, idx: usize, payload: &[u8]) {
        let Some(conn) = self.slab[idx].as_mut() else {
            return;
        };
        let wire_len = (payload.len() + FRAME_HEADER_LEN) as u64;
        self.shared.bytes.fetch_add(wire_len, Ordering::Relaxed);
        metrics::global().add(Metric::ServerBytes, wire_len);
        append_frame(&mut conn.out, payload);
    }

    fn drain_completions(&mut self) {
        let batch: Vec<Completion> = {
            let mut q = match self.completions.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            std::mem::take(&mut *q)
        };
        for c in batch {
            let valid = self.slab.get(c.token).is_some_and(|slot| {
                slot.as_ref()
                    .is_some_and(|conn| conn.gen == c.gen && conn.busy)
            });
            if !valid {
                continue; // connection closed while the request ran
            }
            let conn = self.slab[c.token].as_mut().expect("validated above");
            conn.busy = false;
            conn.last_frame = Instant::now();
            self.append_response(c.token, &c.bytes);
            let conn = self.slab[c.token].as_mut().expect("validated above");
            if c.close || self.draining {
                conn.inbox.clear();
                conn.close_after_flush = true;
            } else if let Some(next) = conn.inbox.pop_front() {
                self.submit(c.token, next);
            } else if !conn.read_open {
                self.maybe_finish(c.token);
            }
            self.try_flush(c.token);
        }
    }

    /// Writes as much of the out-buffer as the socket accepts, arming or
    /// disarming `EPOLLOUT` as the residue dictates, and closes the
    /// connection once a close-after-flush has fully drained.
    fn try_flush(&mut self, idx: usize) {
        let Some(conn) = self.slab[idx].as_mut() else {
            return;
        };
        while conn.out_pos < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    self.close(idx);
                    return;
                }
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(idx);
                    return;
                }
            }
        }
        if conn.flushed() {
            conn.out.clear();
            conn.out_pos = 0;
            conn.write_since = None;
            let done = conn.close_after_flush || conn.finished_reading();
            if done {
                self.close(idx);
                return;
            }
            if conn.want_write {
                conn.want_write = false;
                self.rearm(idx);
            }
        } else {
            if conn.write_since.is_none() {
                conn.write_since = Some(Instant::now());
            }
            if !conn.want_write {
                conn.want_write = true;
                self.rearm(idx);
            }
        }
    }

    fn rearm(&mut self, idx: usize) {
        let Some(conn) = self.slab[idx].as_ref() else {
            return;
        };
        let _ = self.poller.modify(
            conn.stream.as_raw_fd(),
            idx as u64,
            conn.read_open,
            conn.want_write,
        );
    }

    /// Periodic O(live) pass: write-timeout reap, stall/idle reap, and a
    /// safety resubmit for the (unreachable) queue-full parking case.
    fn sweep(&mut self, now: Instant) {
        for idx in 0..self.slab.len() {
            let Some(conn) = self.slab[idx].as_mut() else {
                continue;
            };
            if !conn.busy {
                if let Some(payload) = conn.inbox.pop_front() {
                    self.submit(idx, payload);
                }
            }
            let Some(conn) = self.slab[idx].as_mut() else {
                continue;
            };
            if let Some(since) = conn.write_since {
                if now.duration_since(since) >= self.shared.write_timeout {
                    // A peer that stopped reading costs one write budget,
                    // then the connection — exactly the old per-frame
                    // write-timeout contract.
                    self.close(idx);
                    continue;
                }
            }
            if conn.busy || !conn.inbox.is_empty() {
                continue; // a request is in flight: neither clock applies
            }
            if conn.reader.mid_frame() {
                if now.duration_since(conn.last_byte) >= self.shared.stall_deadline {
                    self.close(idx);
                }
            } else if conn.read_open
                && now.duration_since(conn.last_frame) >= self.shared.idle_deadline
            {
                self.close(idx);
            }
        }
    }

    /// Starts the graceful drain: stop accepting, drop undelivered
    /// pipelined frames (the moral equivalent of the old
    /// queued-but-unserved connections), let in-flight requests finish
    /// and their responses flush, then close everything.
    fn begin_drain(&mut self, listener: &TcpListener) {
        self.draining = true;
        let _ = self.poller.delete(listener.as_raw_fd());
        for idx in 0..self.slab.len() {
            let Some(conn) = self.slab[idx].as_mut() else {
                continue;
            };
            conn.inbox.clear();
            if !conn.busy {
                conn.close_after_flush = true;
                self.try_flush(idx);
            }
        }
    }
}
