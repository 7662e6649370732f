//! # prkb-server — networked service-provider front end
//!
//! Exposes a [`prkb_core::PrkbEngine`] as a TCP service speaking
//! `prkb-wire/v2`: length-prefixed, CRC32-guarded binary frames
//! ([`wire`]) carrying versioned request/response payloads ([`proto`]).
//! The deployment picture matches the paper's: clients hold trapdoors
//! (issued by the data owner), the service provider holds the PRKB index
//! and the oracle boundary, and only tuple ids and trapdoors ever cross
//! the wire — never plaintext or keys.
//!
//! Layers, bottom up:
//!
//! * [`wire`] — framing, reusing the WAL's discipline (`len | crc | payload`);
//! * [`proto`] — requests, responses, stable error codes;
//! * [`scheduler`] — the checkout/checkin concurrency discipline: the
//!   engine lock is held only to move knowledge, never while QPF is spent;
//! * [`admission`] — the bounded admission gate (BUSY shedding) and the
//!   idempotent-replay dedup window;
//! * `epoll` (private) — the thin epoll/eventfd syscall wrapper, the
//!   crate's only unsafe module;
//! * `reactor` (private) — the readiness-driven event loop: non-blocking
//!   accept, per-connection state machines, request pipelining, write
//!   buffering with EPOLLOUT re-arm;
//! * [`conn`] (private) — request decode/dispatch, run on the worker pool;
//! * [`server`] — server wiring: reactor thread + bounded worker pool +
//!   graceful drain;
//! * [`client`] — the blocking client (timeouts, deterministic retries
//!   with exactly-once request ids, circuit breaker), the pipelined
//!   multi-request-in-flight client, and a connection pool;
//! * [`chaos`] — the deterministic network-fault harness
//!   ([`chaos::ChaosProxy`], seeded by `PRKB_NET_FAULT_SEED`).
//!
//! ```no_run
//! use prkb_core::{EngineConfig, PrkbEngine};
//! use prkb_edbms::testing::PlainOracle;
//! use prkb_edbms::{ComparisonOp, Predicate};
//! use prkb_server::{PrkbClient, PrkbServer, ServerConfig};
//!
//! let oracle = PlainOracle::single_column((0..1000).collect());
//! let mut engine: PrkbEngine<Predicate> = PrkbEngine::new(EngineConfig::default());
//! engine.init_attr(0, 1000);
//! let server = PrkbServer::bind("127.0.0.1:0", engine, oracle, ServerConfig::default())?;
//! let addr = server.local_addr()?;
//! let handle = server.spawn()?;
//!
//! let mut client: PrkbClient<Predicate> = PrkbClient::connect(addr)?;
//! let reply = client.select(42, Predicate::cmp(0, ComparisonOp::Lt, 500))?;
//! assert_eq!(reply.tuples.len(), 500);
//! client.shutdown()?;
//! handle.join()?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// Unsafe is confined to the `epoll` syscall shim; every other module is
// checked by this deny (the shim opts in with an inner allow).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod chaos;
pub mod client;
mod conn;
mod epoll;
pub mod proto;
mod reactor;
pub mod scheduler;
pub mod server;
pub mod wire;

pub use admission::QUEUE_ENV;
pub use chaos::{ChaosConfig, ChaosProxy, ChaosStream, FaultAction, FaultPlan, NET_FAULT_SEED_ENV};
pub use client::{
    ClientConfig, ClientError, ClientPool, PipelinedClient, PooledClient, PrkbClient,
    SelectionReply,
};
pub use proto::{ProtoError, Request, RequestHeader, Response, PROTO_VERSION};
pub use scheduler::{DeadlineOracle, ServeError, SessionOracle, SessionScheduler};
pub use server::{PrkbServer, ServerConfig, ServerHandle, ServerReport};
pub use wire::{FrameError, FrameReader, DEFAULT_MAX_FRAME_LEN};
