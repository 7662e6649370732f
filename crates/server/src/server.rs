//! The TCP server: epoll reactor front-end, bounded worker pool, graceful
//! shutdown.
//!
//! One thread runs the reactor ([`crate::reactor`]): non-blocking accept,
//! readiness-driven frame reads, buffered writes, and the admission gate.
//! A fixed pool of workers (capped by [`ServerConfig::threads`] /
//! `PRKB_SERVER_THREADS`) pulls decoded requests off a bounded channel,
//! runs [`crate::conn::process`], and hands encoded responses back through
//! a completion queue plus an eventfd wake. Shutdown — requested over the
//! wire or via [`ServerHandle::shutdown`] — is graceful: the flag flips,
//! the eventfd wakes the reactor, accepting stops, every in-flight request
//! finishes (commits included) and its response flushes before the
//! connection closes, and [`PrkbServer::run`] returns only after both the
//! reactor and the pool have drained. Committed refinements are never lost
//! to shutdown; decoded-but-unsubmitted pipelined frames are dropped, just
//! like queued-but-unserved connections were under the old thread-per-
//! connection design.

use crate::admission::{DedupWindow, QUEUE_ENV};
use crate::conn::{self, Shared};
use crate::epoll::Waker;
use crate::reactor::{self, Completion, CompletionQueue, WorkItem};
use crate::scheduler::SessionScheduler;
use crate::wire::DEFAULT_MAX_FRAME_LEN;
use prkb_core::metrics::{self, HistogramId};
use prkb_core::snapshot::WireCodec;
use prkb_core::{PrkbEngine, ShardedDurablePool, SpPredicate};
use prkb_edbms::SelectionOracle;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock, RwLock};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Environment variable consulted when [`ServerConfig::threads`] is `None`.
pub const THREADS_ENV: &str = "PRKB_SERVER_THREADS";

/// Worker-pool size used when neither the config nor the environment says
/// otherwise.
pub const DEFAULT_THREADS: usize = 4;

/// Completed-response memo size used when the config does not say
/// otherwise — covers a retry horizon, not all history.
pub const DEFAULT_DEDUP_WINDOW: usize = 1024;

/// Tunables for one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker-pool size. `None` defers to `PRKB_SERVER_THREADS`, then
    /// [`DEFAULT_THREADS`]. Clamped to at least 1.
    pub threads: Option<usize>,
    /// Frame payload cap (larger frames are a protocol error).
    pub max_frame_len: u32,
    /// Connections with no *completed* frame for this long are closed.
    /// Only consulted between frames; a connection that has buffered a
    /// partial frame answers to [`stall_deadline`](Self::stall_deadline)
    /// instead.
    pub idle_deadline: Duration,
    /// Connections that buffered a partial frame and then went silent for
    /// this long are closed. Reset on every received byte, so a
    /// slow-but-progressing sender is never reaped mid-frame.
    pub stall_deadline: Duration,
    /// Extra admitted-connection slots beyond `threads`: the server
    /// admits up to `threads + queue` concurrent connections before the
    /// gate sheds new arrivals with BUSY. `None` defers to
    /// `PRKB_SERVER_QUEUE`, then `threads * 2`. Clamped to at least 1.
    pub queue: Option<usize>,
    /// Write budget: a peer that stops reading keeps its unflushed
    /// response at most this long before the connection is dropped.
    pub write_timeout: Duration,
    /// Completed responses remembered for idempotent replay (fewer when
    /// they hold more than 64 MiB of reply bytes).
    pub dedup_window: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: None,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            idle_deadline: Duration::from_secs(30),
            stall_deadline: Duration::from_secs(5),
            queue: None,
            write_timeout: Duration::from_secs(10),
            dedup_window: DEFAULT_DEDUP_WINDOW,
        }
    }
}

impl ServerConfig {
    fn resolve_threads(&self) -> usize {
        self.threads
            .or_else(|| {
                std::env::var(THREADS_ENV)
                    .ok()
                    .and_then(|v| v.trim().parse().ok())
            })
            .unwrap_or(DEFAULT_THREADS)
            .max(1)
    }

    fn resolve_queue(&self, threads: usize) -> usize {
        self.queue
            .or_else(|| {
                std::env::var(QUEUE_ENV)
                    .ok()
                    .and_then(|v| v.trim().parse().ok())
            })
            .unwrap_or(threads * 2)
            .max(1)
    }
}

/// Totals reported once a server has fully drained, plus access to the
/// engine pool — handed back so a caller can validate the knowledge the served
/// queries built up.
pub struct ServerReport<P: SpPredicate + WireCodec, O> {
    shared: Arc<Shared<P, O>>,
}

impl<P: SpPredicate + WireCodec, O> ServerReport<P, O> {
    /// Frames served (malformed ones included — they got error responses).
    pub fn requests(&self) -> u64 {
        self.shared.requests.load(Ordering::Relaxed)
    }

    /// Stream-fatal framing failures.
    pub fn frame_errors(&self) -> u64 {
        self.shared.frame_errors.load(Ordering::Relaxed)
    }

    /// Wire bytes in + out.
    pub fn bytes(&self) -> u64 {
        self.shared.bytes.load(Ordering::Relaxed)
    }

    /// Connections shed with BUSY at the admission gate.
    pub fn busy_rejections(&self) -> u64 {
        self.shared.busy_rejections.load(Ordering::Relaxed)
    }

    /// Requests answered with the DEADLINE code.
    pub fn deadline_timeouts(&self) -> u64 {
        self.shared.deadline_timeouts.load(Ordering::Relaxed)
    }

    /// Requests answered from the idempotent-replay window.
    pub fn dedup_hits(&self) -> u64 {
        self.shared.dedup_hits.load(Ordering::Relaxed)
    }

    /// Read access to the drained engine (validation, snapshotting).
    pub fn inspect<T>(&self, f: impl FnOnce(&prkb_core::PrkbEngine<P>) -> T) -> T {
        self.shared.sched.inspect(f)
    }
}

/// A bound-but-not-yet-running PRKB service.
pub struct PrkbServer<P: SpPredicate + WireCodec, O> {
    listener: TcpListener,
    shared: Arc<Shared<P, O>>,
    threads: usize,
    queue: usize,
}

impl<P, O> PrkbServer<P, O>
where
    P: SpPredicate + WireCodec + Send + 'static,
    O: SelectionOracle<Pred = P> + Send + Sync + 'static,
{
    /// Binds `addr` and fronts an in-memory engine with the concurrent
    /// session scheduler.
    ///
    /// # Errors
    /// Socket bind failure.
    pub fn bind(
        addr: impl ToSocketAddrs,
        engine: PrkbEngine<P>,
        oracle: O,
        config: ServerConfig,
    ) -> io::Result<Self> {
        Self::bind_scheduler(addr, SessionScheduler::new(engine), oracle, config)
    }

    /// Binds `addr` and fronts a recovered [`ShardedDurablePool`]: the
    /// session scheduler checks footprints out per shard, commits are
    /// group-committed per shard's WAL, and every reply waits for
    /// durability on the shards it touched. This is the one durable
    /// deployment path.
    ///
    /// # Errors
    /// Socket bind failure.
    pub fn bind_durable_pool(
        addr: impl ToSocketAddrs,
        pool: ShardedDurablePool<P>,
        oracle: O,
        config: ServerConfig,
    ) -> io::Result<Self> {
        Self::bind_scheduler(addr, SessionScheduler::durable(pool), oracle, config)
    }

    fn bind_scheduler(
        addr: impl ToSocketAddrs,
        sched: SessionScheduler<P>,
        oracle: O,
        config: ServerConfig,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let threads = config.resolve_threads();
        let shared = Arc::new(Shared {
            sched,
            oracle: Arc::new(RwLock::new(oracle)),
            shutdown: AtomicBool::new(false),
            max_frame_len: config.max_frame_len,
            idle_deadline: config.idle_deadline,
            stall_deadline: config.stall_deadline,
            write_timeout: config.write_timeout,
            dedup: DedupWindow::new(config.dedup_window),
            requests: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            frame_errors: AtomicU64::new(0),
            busy_rejections: AtomicU64::new(0),
            deadline_timeouts: AtomicU64::new(0),
            dedup_hits: AtomicU64::new(0),
            wake: OnceLock::new(),
        });
        Ok(PrkbServer {
            listener,
            shared,
            threads,
            queue: config.resolve_queue(threads),
        })
    }

    /// The bound address (useful after binding port 0).
    ///
    /// # Errors
    /// Propagated from the socket.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Handle on the shared oracle, for uploading rows out of band (the
    /// owner→SP data path; the wire protocol only ever carries tuple ids).
    pub fn oracle(&self) -> Arc<RwLock<O>> {
        Arc::clone(&self.shared.oracle)
    }

    /// Runs the reactor on the current thread until shutdown, then drains
    /// the worker pool and reports.
    ///
    /// # Errors
    /// Unrecoverable epoll/listener failure.
    ///
    /// # Panics
    /// Panics if a worker thread panicked (a bug — workers contain every
    /// per-request failure).
    pub fn run(self) -> io::Result<ServerReport<P, O>> {
        let PrkbServer {
            listener,
            shared,
            threads,
            queue,
        } = self;

        // The reactor's wake fd must exist before workers can complete
        // anything; install it first (bind_scheduler makes a fresh OnceLock,
        // so this set never loses a race).
        let _ = shared.wake.set(Waker::new()?);

        // The work queue is sized to the admission cap: with at most one
        // request in flight per admitted connection, try_send can never
        // legitimately report Full.
        let conn_cap = threads + queue;
        let (tx, rx) = mpsc::sync_channel::<WorkItem>(conn_cap);
        let rx = Arc::new(Mutex::new(rx));
        let completions: Arc<CompletionQueue> = Arc::new(Mutex::new(Vec::new()));
        let workers: Vec<JoinHandle<()>> = (0..threads)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let shared = Arc::clone(&shared);
                let completions = Arc::clone(&completions);
                thread::Builder::new()
                    .name(format!("prkb-server-worker-{i}"))
                    .spawn(move || loop {
                        let next = {
                            let rx = match rx.lock() {
                                Ok(g) => g,
                                Err(poisoned) => poisoned.into_inner(),
                            };
                            rx.recv()
                        };
                        match next {
                            Ok(item) => {
                                metrics::global().observe(
                                    HistogramId::ReactorQueueWaitUs,
                                    u64::try_from(item.enqueued.elapsed().as_micros())
                                        .unwrap_or(u64::MAX),
                                );
                                let (bytes, close) = conn::process(&shared, &item.payload);
                                {
                                    let mut q = match completions.lock() {
                                        Ok(g) => g,
                                        Err(poisoned) => poisoned.into_inner(),
                                    };
                                    q.push(Completion {
                                        token: item.token,
                                        gen: item.gen,
                                        bytes,
                                        close,
                                    });
                                }
                                shared.wake_reactor();
                            }
                            Err(_) => return, // channel closed and drained
                        }
                    })
                    .expect("spawn worker")
            })
            .collect();

        // The reactor owns all socket I/O until drain completes; returning
        // drops `tx`, which is what releases the worker pool.
        let reactor_result = reactor::run(listener, &shared, tx, &completions, conn_cap);
        for w in workers {
            w.join().expect("worker thread panicked");
        }
        reactor_result?;

        // Drain barrier: every acked commit already waited for durability,
        // but flush-and-fsync whatever batch is still pending so the
        // on-disk state is complete before the report is handed back.
        if let Err(e) = shared.sched.flush_durable() {
            return Err(io::Error::other(format!("drain flush failed: {e}")));
        }

        Ok(ServerReport { shared })
    }

    /// Spawns [`run`](Self::run) on its own thread and returns a handle for
    /// out-of-band shutdown.
    ///
    /// # Errors
    /// Propagated from resolving the local address.
    pub fn spawn(self) -> io::Result<ServerHandle<P, O>> {
        let addr = self.local_addr()?;
        let shared = Arc::clone(&self.shared);
        let join = thread::Builder::new()
            .name("prkb-server-reactor".into())
            .spawn(move || self.run())
            .expect("spawn reactor thread");
        Ok(ServerHandle { addr, shared, join })
    }
}

/// Handle on a running server (see [`PrkbServer::spawn`]).
pub struct ServerHandle<P: SpPredicate + WireCodec, O> {
    addr: SocketAddr,
    shared: Arc<Shared<P, O>>,
    join: JoinHandle<io::Result<ServerReport<P, O>>>,
}

impl<P: SpPredicate + WireCodec, O> ServerHandle<P, O> {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Handle on the shared oracle (see [`PrkbServer::oracle`]).
    pub fn oracle(&self) -> Arc<RwLock<O>> {
        Arc::clone(&self.shared.oracle)
    }

    /// Triggers graceful shutdown without a wire request.
    pub fn shutdown(&self) {
        self.shared.trigger_shutdown();
    }

    /// Waits for the server to drain and returns its report.
    ///
    /// # Errors
    /// Propagated from [`PrkbServer::run`].
    ///
    /// # Panics
    /// Panics if the reactor thread panicked.
    pub fn join(self) -> io::Result<ServerReport<P, O>> {
        let ServerHandle { join, shared, .. } = self;
        drop(shared);
        join.join().expect("reactor thread panicked")
    }
}
