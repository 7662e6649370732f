//! Blocking client for the `prkb-wire/v2` protocol, with a resilience
//! layer.
//!
//! One [`PrkbClient`] wraps one TCP connection at a time; every method
//! sends one request frame and blocks for the matching response frame.
//! [`PipelinedClient`] relaxes that to multiple requests in flight on one
//! connection (the reactor answers them FIFO), and [`ClientPool`] amortizes
//! connection setup across callers. Two jobs coexist here:
//!
//! * **Reference peer.** The loopback equivalence tests drive the server
//!   through this client and compare against the in-process engine byte
//!   for byte. With a pinned [`ClientConfig::rid_seed`] the request path
//!   is fully deterministic.
//! * **Surviving a hostile network.** Every call carries a client-generated
//!   request id and an optional deadline budget
//!   ([`ClientConfig::deadline_ms`]); transport failures and transient
//!   server codes (BUSY, FRAME, oracle transient/timeout) are retried with
//!   the same deterministic backoff discipline as
//!   [`prkb_edbms::resilience::RetryOracle`] — reconnecting first, reusing
//!   the *same* request id so the server's dedup window makes the retry
//!   exactly-once. The same [`Breaker`] `RetryOracle` uses fast-fails
//!   with [`ClientError::CircuitOpen`] after repeated exhaustion.
//!
//! Sockets always carry read/connect/write timeouts (defaults in
//! [`ClientConfig`]): a dead or stalled server surfaces
//! [`ClientError::TimedOut`] instead of blocking a caller forever,
//! independent of whether retries are enabled.

use crate::proto::{code, ProtoError, Request, RequestHeader, Response};
use crate::wire::{write_frame, FrameError, FrameReader, ReadStep};
use prkb_core::snapshot::WireCodec;
use prkb_core::{InsertOutcome, QueryStats};
use prkb_edbms::resilience::{mix, Breaker, RetryPolicy};
use prkb_edbms::{AttrId, TupleId};
use std::fmt;
use std::io;
use std::marker::PhantomData;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Failures a client call can produce.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(io::Error),
    /// The response stream lost framing.
    Frame(FrameError),
    /// A well-framed response failed to decode.
    Proto(ProtoError),
    /// The server answered with a structured error.
    Server {
        /// Stable [`crate::proto::code`] value.
        code: u16,
        /// Server-side context.
        message: String,
    },
    /// The server answered with the wrong response kind for this request.
    Unexpected(&'static str),
    /// The server closed the connection instead of responding.
    ConnectionClosed,
    /// No response within [`ClientConfig::read_timeout`].
    TimedOut,
    /// The circuit breaker is open: recent calls exhausted their retries,
    /// so this one fast-failed without touching the network.
    CircuitOpen,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "client I/O failure: {e}"),
            ClientError::Frame(e) => write!(f, "response framing failure: {e}"),
            ClientError::Proto(e) => write!(f, "response protocol failure: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error {code}: {message}")
            }
            ClientError::Unexpected(what) => write!(f, "unexpected response kind: {what}"),
            ClientError::ConnectionClosed => write!(f, "server closed the connection"),
            ClientError::TimedOut => write!(f, "no response within the read timeout"),
            ClientError::CircuitOpen => write!(f, "circuit breaker open: fast-failing"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

/// Client tunables: timeouts, retry policy, request-id stream.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// TCP connect budget per attempt.
    pub connect_timeout: Duration,
    /// End-to-end budget for one response (poll ticks re-check it).
    pub read_timeout: Duration,
    /// Per-frame write budget.
    pub write_timeout: Duration,
    /// Cap on a reply frame's payload. The default,
    /// [`DEFAULT_MAX_REPLY_LEN`](crate::wire::DEFAULT_MAX_REPLY_LEN), fits a
    /// whole-table selection.
    pub max_frame_len: u32,
    /// Retry/backoff/breaker discipline (reused from
    /// [`prkb_edbms::resilience`]). `max_attempts: 1` disables retrying.
    pub retry: RetryPolicy,
    /// `deadline_ms` stamped on every request header. 0 (the default)
    /// sends *no* deadline (`None` on the v2 wire); a non-zero value is
    /// sent as `Some(value)`. An explicit `Some(0)` immediate-expiry probe
    /// must be built through [`RequestHeader`] directly — this convenience
    /// knob cannot express it.
    pub deadline_ms: u32,
    /// Seed for the deterministic request-id stream. 0 (the default)
    /// draws a random seed per connection, so independent clients never
    /// collide in the server's dedup window; tests pin it for
    /// reproducibility.
    pub rid_seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(10),
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            max_frame_len: crate::wire::DEFAULT_MAX_REPLY_LEN,
            retry: RetryPolicy::default(),
            deadline_ms: 0,
            rid_seed: 0,
        }
    }
}

/// A committed selection as seen over the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectionReply {
    /// Global commit sequence number assigned by the server.
    pub seq: u64,
    /// Satisfying tuple ids (order unspecified).
    pub tuples: Vec<TupleId>,
    /// Per-query cost accounting, exact even under server concurrency.
    pub stats: QueryStats,
}

impl SelectionReply {
    /// The tuple ids, sorted (result sets are order-free).
    pub fn sorted(&self) -> Vec<TupleId> {
        let mut t = self.tuples.clone();
        t.sort_unstable();
        t
    }
}

/// Blocking client over one connection at a time (see the module docs).
pub struct PrkbClient<P> {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    reader: FrameReader,
    config: ClientConfig,
    rid_seed: u64,
    rid_counter: u64,
    backoffs: u64,
    retries: u64,
    breaker: Breaker,
    _pred: PhantomData<P>,
}

impl<P: WireCodec> PrkbClient<P> {
    /// Connects with default timeouts and retry policy.
    ///
    /// # Errors
    /// Socket connect failure.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connects with explicit tunables. The TCP connection is established
    /// eagerly so configuration errors surface here, not on first use.
    ///
    /// # Errors
    /// Address resolution or socket connect failure.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: ClientConfig,
    ) -> Result<Self, ClientError> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| ClientError::Io(io::Error::other("address resolved to nothing")))?;
        let rid_seed = if config.rid_seed != 0 {
            config.rid_seed
        } else {
            // Unique per client: two clients must never share a request-id
            // stream, or the server's dedup window would cross their wires.
            entropy_seed()
        };
        let mut client = PrkbClient {
            addr,
            stream: None,
            reader: FrameReader::new(),
            config,
            rid_seed,
            rid_counter: 0,
            backoffs: 0,
            retries: 0,
            breaker: Breaker::new(),
            _pred: PhantomData,
        };
        client.establish()?;
        Ok(client)
    }

    /// Transport retries performed so far (reconnect + resend).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Ensures a live connection, dialing (with timeouts armed) if needed.
    fn establish(&mut self) -> Result<(), ClientError> {
        if self.stream.is_some() {
            return Ok(());
        }
        let stream = TcpStream::connect_timeout(&self.addr, self.config.connect_timeout)?;
        stream.set_nodelay(true).ok();
        // Poll-tick reads: the overall read budget is enforced per call,
        // the short socket timeout just keeps the loop responsive.
        let tick = self
            .config
            .read_timeout
            .min(Duration::from_millis(50))
            .max(Duration::from_millis(1));
        stream.set_read_timeout(Some(tick))?;
        stream.set_write_timeout(Some(
            self.config.write_timeout.max(Duration::from_millis(1)),
        ))?;
        self.stream = Some(stream);
        self.reader = FrameReader::new();
        Ok(())
    }

    /// Drops the connection so the next attempt redials from scratch.
    fn disconnect(&mut self) {
        self.stream = None;
        self.reader = FrameReader::new();
    }

    /// The next non-zero request id from this client's deterministic
    /// stream.
    fn next_rid(&mut self) -> u64 {
        loop {
            self.rid_counter += 1;
            let rid = mix(self.rid_seed ^ self.rid_counter);
            if rid != 0 {
                return rid;
            }
        }
    }

    /// One wire round trip: write the payload, read one response frame.
    fn call_once(&mut self, payload: &[u8]) -> Result<Response, ClientError> {
        self.establish()?;
        let stream = self.stream.as_mut().expect("established above");
        write_frame(stream, payload)?;
        let deadline = Instant::now() + self.config.read_timeout;
        loop {
            match self.reader.poll(stream, self.config.max_frame_len)? {
                ReadStep::Frame { payload, .. } => return Ok(Response::decode(&payload)?),
                ReadStep::Closed => return Err(ClientError::ConnectionClosed),
                ReadStep::Idle | ReadStep::Stalled => {
                    if Instant::now() >= deadline {
                        return Err(ClientError::TimedOut);
                    }
                }
            }
        }
    }

    /// Sleeps the retry policy's jittered backoff (the discipline
    /// [`RetryOracle`] uses) for retry number `attempt`.
    ///
    /// [`RetryOracle`]: prkb_edbms::resilience::RetryOracle
    fn backoff(&mut self, attempt: u32) {
        let delay = self.config.retry.backoff_delay(attempt, self.backoffs);
        self.backoffs += 1;
        std::thread::sleep(delay);
    }

    /// A server code worth retrying: overload shedding, lost framing, and
    /// the oracle's transient/timeout classes. DEADLINE is *not* here — the
    /// budget is spent; retrying on the same budget would spin.
    fn retryable_code(c: u16) -> bool {
        c == code::BUSY
            || c == code::FRAME
            || c == code::ORACLE_BASE + 1
            || c == code::ORACLE_BASE + 2
    }

    fn retryable_transport(e: &ClientError) -> bool {
        matches!(
            e,
            ClientError::Io(_)
                | ClientError::Frame(_)
                | ClientError::ConnectionClosed
                | ClientError::TimedOut
        )
    }

    /// Sends `req` under the retry discipline. `idempotent` requests get a
    /// tracked request id (reused verbatim across attempts, so the
    /// server's dedup window replays instead of re-committing); the header
    /// also carries [`ClientConfig::deadline_ms`].
    fn call(&mut self, req: &Request<P>, idempotent: bool) -> Result<Response, ClientError> {
        self.breaker
            .gate(&self.config.retry)
            .map_err(|_| ClientError::CircuitOpen)?;
        let hdr = RequestHeader {
            request_id: if idempotent { self.next_rid() } else { 0 },
            deadline_ms: (self.config.deadline_ms > 0).then_some(self.config.deadline_ms),
        };
        let payload = req.encode_with(hdr);
        let attempts = self.config.retry.max_attempts.max(1);
        let mut attempt = 1u32;
        loop {
            match self.call_once(&payload) {
                Ok(Response::Error { code, message }) => {
                    if Self::retryable_code(code) && attempt < attempts {
                        // BUSY and FRAME closed the connection server-side;
                        // redial either way so the retry starts clean.
                        self.disconnect();
                        self.retries += 1;
                        self.backoff(attempt);
                        attempt += 1;
                        continue;
                    }
                    // A structured error still proves the server is alive.
                    self.breaker.record(&self.config.retry, true);
                    return Ok(Response::Error { code, message });
                }
                Ok(resp) => {
                    self.breaker.record(&self.config.retry, true);
                    return Ok(resp);
                }
                Err(e) if Self::retryable_transport(&e) && attempt < attempts => {
                    self.disconnect();
                    self.retries += 1;
                    self.backoff(attempt);
                    attempt += 1;
                }
                Err(e) => {
                    self.disconnect();
                    self.breaker.record(&self.config.retry, false);
                    return Err(e);
                }
            }
        }
    }

    fn expect_selection(resp: Response) -> Result<SelectionReply, ClientError> {
        match resp {
            Response::Selection { seq, tuples, stats } => Ok(SelectionReply { seq, tuples, stats }),
            other => Err(err_of(other, "selection")),
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    /// [`ClientError`] on transport, protocol, or server failure.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Ping, false)? {
            Response::Ok => Ok(()),
            other => Err(err_of(other, "pong")),
        }
    }

    /// Single-predicate selection. `seed` drives the server-side sampling
    /// RNG, making the run reproducible.
    ///
    /// # Errors
    /// [`ClientError`] on transport, protocol, or server failure.
    pub fn select(&mut self, seed: u64, pred: P) -> Result<SelectionReply, ClientError> {
        let resp = self.call(&Request::Select { seed, pred }, true)?;
        Self::expect_selection(resp)
    }

    /// Single-predicate BETWEEN selection.
    ///
    /// # Errors
    /// [`ClientError`] on transport, protocol, or server failure.
    pub fn between(&mut self, seed: u64, pred: P) -> Result<SelectionReply, ClientError> {
        let resp = self.call(&Request::Between { seed, pred }, true)?;
        Self::expect_selection(resp)
    }

    /// Multi-dimensional range selection (two comparison trapdoors per
    /// dimension).
    ///
    /// # Errors
    /// [`ClientError`] on transport, protocol, or server failure.
    pub fn select_range_md(
        &mut self,
        seed: u64,
        dims: Vec<[P; 2]>,
    ) -> Result<SelectionReply, ClientError> {
        let resp = self.call(&Request::SelectRangeMd { seed, dims }, true)?;
        Self::expect_selection(resp)
    }

    /// Routes an already-uploaded tuple into every indexed attribute.
    /// Retries are exactly-once: the request id makes a replayed commit a
    /// dedup-window hit, not a second commit.
    ///
    /// # Errors
    /// [`ClientError`] on transport, protocol, or server failure.
    pub fn insert(
        &mut self,
        tuple: TupleId,
    ) -> Result<(u64, Vec<(AttrId, InsertOutcome)>), ClientError> {
        match self.call(&Request::Insert { tuple }, true)? {
            Response::Inserted { seq, outcomes } => Ok((seq, outcomes)),
            other => Err(err_of(other, "insert outcomes")),
        }
    }

    /// Removes a tuple from every indexed attribute (exactly-once under
    /// retry, like [`insert`](Self::insert)).
    ///
    /// # Errors
    /// [`ClientError`] on transport, protocol, or server failure.
    pub fn delete(&mut self, tuple: TupleId) -> Result<u64, ClientError> {
        match self.call(&Request::Delete { tuple }, true)? {
            Response::Deleted { seq } => Ok(seq),
            other => Err(err_of(other, "delete ack")),
        }
    }

    /// Fetches the server's `prkb-metrics/v6` JSON snapshot.
    ///
    /// # Errors
    /// [`ClientError`] on transport, protocol, or server failure.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        match self.call(&Request::MetricsSnapshot, false)? {
            Response::Metrics { json } => Ok(json),
            other => Err(err_of(other, "metrics")),
        }
    }

    /// Asks the server to drain and stop, consuming this connection.
    /// Never retried: a lost ack is indistinguishable from a server that
    /// drained and closed, and re-sending to a draining server only
    /// produces noise.
    ///
    /// # Errors
    /// [`ClientError`] on transport, protocol, or server failure.
    pub fn shutdown(mut self) -> Result<(), ClientError> {
        let payload = Request::<P>::Shutdown.encode();
        match self.call_once(&payload)? {
            Response::Ok => Ok(()),
            other => Err(err_of(other, "shutdown ack")),
        }
    }
}

/// Multiple requests in flight on one connection.
///
/// The reactor serves each connection's requests strictly FIFO (one with
/// the workers at a time, the rest parked in a per-connection inbox), so
/// the k-th submitted request always gets the k-th response — and the
/// responses are byte-identical to a sequential replay of the same
/// requests. This client exploits that: [`submit`](Self::submit) writes a
/// frame without waiting, [`drain_one`](Self::drain_one) reads the oldest
/// outstanding response.
///
/// Deliberately minimal: no retries, no breaker, no id generation — the
/// caller owns the [`RequestHeader`] of every request. For the
/// one-at-a-time resilient path use [`PrkbClient`].
pub struct PipelinedClient<P> {
    stream: TcpStream,
    reader: FrameReader,
    config: ClientConfig,
    in_flight: usize,
    _pred: PhantomData<P>,
}

impl<P: WireCodec> PipelinedClient<P> {
    /// Connects with default timeouts.
    ///
    /// # Errors
    /// Socket connect failure.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connects with explicit tunables (only the timeout and frame-cap
    /// fields apply — the retry policy is unused here).
    ///
    /// # Errors
    /// Address resolution or socket connect failure.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: ClientConfig,
    ) -> Result<Self, ClientError> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| ClientError::Io(io::Error::other("address resolved to nothing")))?;
        let stream = TcpStream::connect_timeout(&addr, config.connect_timeout)?;
        stream.set_nodelay(true).ok();
        let tick = config
            .read_timeout
            .min(Duration::from_millis(50))
            .max(Duration::from_millis(1));
        stream.set_read_timeout(Some(tick))?;
        stream.set_write_timeout(Some(config.write_timeout.max(Duration::from_millis(1))))?;
        Ok(PipelinedClient {
            stream,
            reader: FrameReader::new(),
            config,
            in_flight: 0,
            _pred: PhantomData,
        })
    }

    /// Requests submitted but not yet drained.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Writes one request frame without waiting for its response.
    ///
    /// # Errors
    /// Socket write failure.
    pub fn submit(&mut self, hdr: RequestHeader, req: &Request<P>) -> Result<(), ClientError> {
        write_frame(&mut self.stream, &req.encode_with(hdr))?;
        self.in_flight += 1;
        Ok(())
    }

    /// [`submit`](Self::submit) with a default (untracked, undeadlined)
    /// header.
    ///
    /// # Errors
    /// Socket write failure.
    pub fn submit_untracked(&mut self, req: &Request<P>) -> Result<(), ClientError> {
        self.submit(RequestHeader::default(), req)
    }

    /// Reads the response to the oldest outstanding request.
    ///
    /// # Errors
    /// [`ClientError::Unexpected`] when nothing is in flight; transport,
    /// framing, or timeout failures otherwise.
    pub fn drain_one(&mut self) -> Result<Response, ClientError> {
        if self.in_flight == 0 {
            return Err(ClientError::Unexpected("no request in flight"));
        }
        let deadline = Instant::now() + self.config.read_timeout;
        loop {
            match self
                .reader
                .poll(&mut self.stream, self.config.max_frame_len)?
            {
                ReadStep::Frame { payload, .. } => {
                    self.in_flight -= 1;
                    return Ok(Response::decode(&payload)?);
                }
                ReadStep::Closed => return Err(ClientError::ConnectionClosed),
                ReadStep::Idle | ReadStep::Stalled => {
                    if Instant::now() >= deadline {
                        return Err(ClientError::TimedOut);
                    }
                }
            }
        }
    }

    /// Drains every outstanding response, oldest first.
    ///
    /// # Errors
    /// As [`drain_one`](Self::drain_one); responses already read are lost
    /// on error.
    pub fn drain(&mut self) -> Result<Vec<Response>, ClientError> {
        let mut out = Vec::with_capacity(self.in_flight);
        while self.in_flight > 0 {
            out.push(self.drain_one()?);
        }
        Ok(out)
    }
}

/// A small pool of ready [`PrkbClient`] connections.
///
/// [`get`](Self::get) hands out an idle connection (or dials a fresh one);
/// dropping the returned [`PooledClient`] puts the connection back, up to
/// `max_idle`. With the reactor admitting `threads + queue` connections,
/// pooling keeps a bursty caller inside its admission slots instead of
/// churning connects into BUSY sheds.
pub struct ClientPool<P> {
    addr: SocketAddr,
    config: ClientConfig,
    idle: std::sync::Mutex<Vec<PrkbClient<P>>>,
    max_idle: usize,
}

impl<P: WireCodec> ClientPool<P> {
    /// Creates a pool dialing `addr` with `config`; at most `max_idle`
    /// connections are kept warm (clamped to at least 1). No connection is
    /// made until the first [`get`](Self::get).
    ///
    /// # Errors
    /// Address resolution failure.
    pub fn new(
        addr: impl ToSocketAddrs,
        config: ClientConfig,
        max_idle: usize,
    ) -> Result<Self, ClientError> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| ClientError::Io(io::Error::other("address resolved to nothing")))?;
        Ok(ClientPool {
            addr,
            config,
            idle: std::sync::Mutex::new(Vec::new()),
            max_idle: max_idle.max(1),
        })
    }

    /// Connections currently idling in the pool.
    pub fn idle(&self) -> usize {
        self.lock_idle().len()
    }

    /// An idle connection, or a freshly dialed one.
    ///
    /// # Errors
    /// Socket connect failure (only when dialing fresh).
    pub fn get(&self) -> Result<PooledClient<'_, P>, ClientError> {
        let reused = self.lock_idle().pop();
        let client = match reused {
            Some(c) => c,
            None => PrkbClient::connect_with(self.addr, self.config.clone())?,
        };
        Ok(PooledClient {
            pool: self,
            client: Some(client),
        })
    }
}

impl<P> ClientPool<P> {
    fn lock_idle(&self) -> std::sync::MutexGuard<'_, Vec<PrkbClient<P>>> {
        match self.idle.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// A pool loan: derefs to [`PrkbClient`], returns to the pool on drop.
pub struct PooledClient<'a, P> {
    pool: &'a ClientPool<P>,
    client: Option<PrkbClient<P>>,
}

impl<P> PooledClient<'_, P> {
    /// Takes the connection out of the pool's custody — use for consuming
    /// operations like [`PrkbClient::shutdown`].
    pub fn detach(mut self) -> PrkbClient<P> {
        self.client.take().expect("present until drop")
    }
}

impl<P> std::ops::Deref for PooledClient<'_, P> {
    type Target = PrkbClient<P>;

    fn deref(&self) -> &PrkbClient<P> {
        self.client.as_ref().expect("present until drop")
    }
}

impl<P> std::ops::DerefMut for PooledClient<'_, P> {
    fn deref_mut(&mut self) -> &mut PrkbClient<P> {
        self.client.as_mut().expect("present until drop")
    }
}

impl<P> Drop for PooledClient<'_, P> {
    fn drop(&mut self) {
        if let Some(client) = self.client.take() {
            let mut idle = self.pool.lock_idle();
            if idle.len() < self.pool.max_idle {
                idle.push(client);
            }
        }
    }
}

/// A process-unique, time-salted seed for the request-id stream. Not
/// cryptographic — it only has to keep independent clients' id streams
/// from colliding inside one server's bounded dedup window.
fn entropy_seed() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0x9E37_79B9);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let pid = u64::from(std::process::id());
    mix(nanos ^ n.rotate_left(32) ^ pid.rotate_left(17)) | 1
}

fn err_of(resp: Response, wanted: &'static str) -> ClientError {
    match resp {
        Response::Error { code, message } => ClientError::Server { code, message },
        _ => ClientError::Unexpected(wanted),
    }
}
