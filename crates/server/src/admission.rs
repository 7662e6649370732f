//! Admission control and exactly-once replay: the server-side half of the
//! resilience boundary.
//!
//! Two independent mechanisms live here:
//!
//! * [`AdmissionGate`] — a bounded connection-slot counter owned by the
//!   reactor. The reactor offers every accepted socket to the gate; when
//!   all slots are taken the connection is *shed* with a best-effort
//!   [`code::BUSY`] error frame and closed, instead of parking in an
//!   unbounded backlog. Overload therefore degrades into fast, explicit
//!   rejections the client can back off on — never into silently growing
//!   latency or hung accepts. The slot count is `threads + queue`, the
//!   same capacity the old thread-per-connection design admitted (the
//!   worker pool plus its queue depth); `queue` comes from
//!   [`ServerConfig::queue`](crate::ServerConfig) / [`QUEUE_ENV`].
//!
//! * [`DedupWindow`] — a bounded request-id → response memo that makes
//!   retried mutations idempotent. A client that loses its connection
//!   after sending `Insert`/`Delete` cannot know whether the commit
//!   happened; it retries with the *same* request id, and the window
//!   replays the stored response bytes (byte-identical, original commit
//!   sequence number included) instead of committing twice. The window is
//!   server-global, so replay works across reconnects, and FIFO-bounded,
//!   sized to cover a client's retry horizon rather than all history. It
//!   is bounded twice: by its entry capacity and by the stored reply
//!   bytes, so a run of multi-megabyte selections cannot pin gigabytes.
//!
//! The in-flight case is handled, not raced: while a request id is being
//! executed, a duplicate arrival parks on a condvar until the first
//! execution either completes (then replays) or aborts (then re-executes).
//! Abort is a drop-guard ([`ExecuteClaim`]): a worker that errors or
//! panics mid-request never wedges the id.

use crate::proto::{code, Response};
use crate::wire::write_frame;
use std::collections::{HashMap, VecDeque};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Environment variable consulted when
/// [`ServerConfig::queue`](crate::ServerConfig) is `None`: extra
/// admitted-connection slots beyond the worker-pool size before BUSY
/// shedding.
pub const QUEUE_ENV: &str = "PRKB_SERVER_QUEUE";

/// What became of an offered connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// A slot was taken; the connection is admitted until released.
    Admitted,
    /// All slots taken: the peer should get a best-effort BUSY frame and
    /// be closed.
    Shed,
}

/// Bounded connection-slot gate owned by the reactor (see module docs).
/// Single-threaded by design — only the reactor admits and releases — so
/// plain counters suffice.
pub struct AdmissionGate {
    capacity: usize,
    active: usize,
}

impl AdmissionGate {
    /// A gate with `capacity` connection slots (clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        AdmissionGate {
            capacity: capacity.max(1),
            active: 0,
        }
    }

    /// Claims a slot for one accepted connection, shedding on overflow.
    pub fn offer(&mut self) -> Admit {
        if self.active < self.capacity {
            self.active += 1;
            Admit::Admitted
        } else {
            Admit::Shed
        }
    }

    /// Returns the slot of a closed connection.
    pub fn release(&mut self) {
        debug_assert!(self.active > 0, "release without matching offer");
        self.active = self.active.saturating_sub(1);
    }

    /// Currently admitted connections.
    pub fn active(&self) -> usize {
        self.active
    }

    /// Total connection slots.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// Tells the shed peer why it was turned away, best effort, then closes.
/// Runs on the still-blocking just-accepted socket, bounded by the write
/// timeout so a dead peer cannot stall the reactor.
pub(crate) fn shed_busy(mut stream: TcpStream, write_timeout: Duration) {
    let _ = stream.set_write_timeout(Some(write_timeout.max(Duration::from_millis(1))));
    let payload = Response::Error {
        code: code::BUSY,
        message: "server at capacity; retry with backoff".into(),
    }
    .encode();
    let _ = write_frame(&mut stream, &payload);
    let _ = stream.shutdown(Shutdown::Both);
}

enum Entry {
    /// A worker is executing this request id right now.
    Pending,
    /// Executed: the exact encoded [`Response`] payload that was (or would
    /// have been) written back.
    Done(Arc<Vec<u8>>),
}

/// Most reply bytes the window memoizes before it evicts below its entry
/// capacity: a window of whole-table selections would otherwise hold
/// capacity × reply size.
const MAX_MEMO_BYTES: usize = 64 << 20;

#[derive(Default)]
struct DedupState {
    entries: HashMap<u64, Entry>,
    /// Completed ids in completion order — the FIFO eviction queue.
    /// Pending ids are *not* here: an in-flight request is never evicted
    /// (in-flight count is bounded by the worker pool anyway).
    order: VecDeque<u64>,
    /// Payload bytes of the completed entries.
    bytes: usize,
}

/// Bounded request-id → response memo for idempotent retries (module docs).
pub struct DedupWindow {
    state: Mutex<DedupState>,
    cv: Condvar,
    capacity: usize,
}

/// The window's verdict on one arriving request id.
pub enum DedupClaim<'a> {
    /// Request id 0 — the client opted out of tracking.
    Untracked,
    /// Already executed: write these exact payload bytes back, do not
    /// re-execute.
    Replay(Arc<Vec<u8>>),
    /// First arrival (or the prior attempt aborted): execute, then either
    /// [`ExecuteClaim::complete`] or drop to release the id.
    Execute(ExecuteClaim<'a>),
}

/// Exclusive license to execute one tracked request id.
///
/// Dropping without [`complete`](Self::complete) aborts: the id is
/// released so a retry re-executes — this is what keeps a worker panic or
/// error from wedging the id forever.
pub struct ExecuteClaim<'a> {
    window: &'a DedupWindow,
    rid: u64,
    done: bool,
}

impl DedupWindow {
    /// A window remembering the last `capacity` completed responses
    /// (clamped to at least 1), fewer while they exceed the byte budget.
    pub fn new(capacity: usize) -> Self {
        DedupWindow {
            state: Mutex::new(DedupState::default()),
            cv: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, DedupState> {
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Claims `rid`: replay if already executed, wait if in flight,
    /// execute if new.
    pub fn begin(&self, rid: u64) -> DedupClaim<'_> {
        if rid == 0 {
            return DedupClaim::Untracked;
        }
        let mut st = self.lock();
        loop {
            match st.entries.get(&rid) {
                Some(Entry::Done(bytes)) => return DedupClaim::Replay(Arc::clone(bytes)),
                Some(Entry::Pending) => {
                    st = match self.cv.wait(st) {
                        Ok(g) => g,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                }
                None => {
                    st.entries.insert(rid, Entry::Pending);
                    return DedupClaim::Execute(ExecuteClaim {
                        window: self,
                        rid,
                        done: false,
                    });
                }
            }
        }
    }
}

impl ExecuteClaim<'_> {
    /// Records the response bytes for replay and releases waiters.
    pub fn complete(mut self, payload: Arc<Vec<u8>>) {
        self.done = true;
        let mut st = self.window.lock();
        st.bytes += payload.len();
        st.entries.insert(self.rid, Entry::Done(payload));
        st.order.push_back(self.rid);
        // FIFO by count, then by bytes — but never the entry just completed.
        while st.order.len() > self.window.capacity
            || (st.bytes > MAX_MEMO_BYTES && st.order.len() > 1)
        {
            let Some(old) = st.order.pop_front() else {
                break;
            };
            if let Some(Entry::Done(bytes)) = st.entries.remove(&old) {
                st.bytes -= bytes.len();
            }
        }
        drop(st);
        self.window.cv.notify_all();
    }
}

impl Drop for ExecuteClaim<'_> {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        let mut st = self.window.lock();
        st.entries.remove(&self.rid);
        drop(st);
        self.window.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn gate_admits_to_capacity_then_sheds() {
        let mut gate = AdmissionGate::new(2);
        assert_eq!(gate.offer(), Admit::Admitted);
        assert_eq!(gate.offer(), Admit::Admitted);
        assert_eq!(gate.offer(), Admit::Shed);
        assert_eq!(gate.active(), 2);

        // A released slot is immediately reusable.
        gate.release();
        assert_eq!(gate.active(), 1);
        assert_eq!(gate.offer(), Admit::Admitted);
        assert_eq!(gate.offer(), Admit::Shed);
        assert_eq!(gate.capacity(), 2);
    }

    #[test]
    fn gate_capacity_clamps_to_one() {
        let mut gate = AdmissionGate::new(0);
        assert_eq!(gate.capacity(), 1);
        assert_eq!(gate.offer(), Admit::Admitted);
        assert_eq!(gate.offer(), Admit::Shed);
    }

    #[test]
    fn dedup_replays_completed_and_releases_aborted() {
        let window = DedupWindow::new(8);

        // First arrival executes.
        let DedupClaim::Execute(claim) = window.begin(7) else {
            panic!("fresh id must execute");
        };
        claim.complete(Arc::new(vec![1, 2, 3]));

        // Retry replays the exact bytes.
        match window.begin(7) {
            DedupClaim::Replay(bytes) => assert_eq!(*bytes, vec![1, 2, 3]),
            _ => panic!("completed id must replay"),
        }

        // An aborted claim (dropped without complete) releases the id.
        let DedupClaim::Execute(claim) = window.begin(8) else {
            panic!("fresh id must execute");
        };
        drop(claim);
        assert!(matches!(window.begin(8), DedupClaim::Execute(_)));

        // Id 0 is never tracked.
        assert!(matches!(window.begin(0), DedupClaim::Untracked));
    }

    #[test]
    fn dedup_window_evicts_fifo() {
        let window = DedupWindow::new(2);
        for rid in 1..=3u64 {
            let DedupClaim::Execute(claim) = window.begin(rid) else {
                panic!("fresh id must execute");
            };
            claim.complete(Arc::new(vec![rid as u8]));
        }
        // rid 1 fell out of the window: a retry re-executes (and, in the
        // real server, re-commits — the window only covers the retry
        // horizon it is sized for).
        assert!(matches!(window.begin(1), DedupClaim::Execute(_)));
        assert!(matches!(window.begin(3), DedupClaim::Replay(_)));
    }

    #[test]
    fn dedup_window_evicts_by_bytes_but_keeps_the_newest() {
        let reply = 2 << 20;
        let window = DedupWindow::new(1024);
        for rid in 1..=64u64 {
            let DedupClaim::Execute(claim) = window.begin(rid) else {
                panic!("fresh id must execute");
            };
            claim.complete(Arc::new(vec![0; reply]));
            let st = window.lock();
            assert!(st.bytes <= MAX_MEMO_BYTES, "rid {rid}: {} bytes", st.bytes);
            assert_eq!(st.bytes, st.order.len() * reply);
        }
        // 64 × 2 MiB is twice the byte budget: the oldest half is gone,
        // the newest replays.
        assert!(matches!(window.begin(1), DedupClaim::Execute(_)));
        match window.begin(64) {
            DedupClaim::Replay(bytes) => assert_eq!(bytes.len(), reply),
            _ => panic!("newest entry must replay"),
        }

        // A reply over the whole budget is kept until the next one lands.
        let window = DedupWindow::new(1024);
        for (rid, len) in [(1u64, MAX_MEMO_BYTES + 1), (2, 16)] {
            let DedupClaim::Execute(claim) = window.begin(rid) else {
                panic!("fresh id must execute");
            };
            claim.complete(Arc::new(vec![0; len]));
            assert!(matches!(window.begin(rid), DedupClaim::Replay(_)));
        }
        assert!(matches!(window.begin(1), DedupClaim::Execute(_)));
        assert_eq!(window.lock().bytes, 16);
    }

    #[test]
    fn duplicate_waits_for_inflight_then_replays() {
        let window = Arc::new(DedupWindow::new(4));
        let DedupClaim::Execute(claim) = window.begin(42) else {
            panic!("fresh id must execute");
        };

        let w = Arc::clone(&window);
        let (tx, rx) = mpsc::channel();
        let dup = std::thread::spawn(move || {
            tx.send(()).expect("signal started");
            match w.begin(42) {
                DedupClaim::Replay(bytes) => (*bytes).clone(),
                _ => panic!("duplicate of completed id must replay"),
            }
        });
        rx.recv().expect("duplicate thread started");
        // Give the duplicate a moment to park on the condvar.
        std::thread::sleep(Duration::from_millis(20));
        claim.complete(Arc::new(vec![9]));
        assert_eq!(dup.join().expect("no panic"), vec![9]);
    }
}
