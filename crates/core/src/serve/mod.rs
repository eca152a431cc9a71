//! `fisql serve`: a long-lived, multi-session daemon over the
//! transport-agnostic [`Session`](crate::session::Session) API.
//!
//! The module tree mirrors the request path:
//!
//! - [`protocol`] — length-prefixed JSON frames; [`ClientRequest`] in,
//!   [`ServerResponse`] out, carrying the session's typed
//!   [`SessionEvent`](crate::session::SessionEvent) stream verbatim.
//! - [`admission`] — the concurrency gate: `max_sessions` slots, a
//!   bounded wait queue, typed rejection beyond that (backpressure, not
//!   collapse).
//! - [`store`] — the session store: the write-ahead
//!   [`RunJournal`](crate::journal::RunJournal) reused as a durable log
//!   of session *inputs*; restart replays them through the deterministic
//!   pipeline and reconstructs every transcript bit-identically.
//! - [`diskfault`] — deterministic disk-fault injection for the store
//!   (append/fsync failures, disk-full), pure-hash scheduled like the
//!   backend fault injector.
//! - [`replicate`] — hot-standby replication: the primary ships its
//!   store's op stream to followers over a second length-prefixed
//!   channel; fencing epochs keep a deposed primary from diverging the
//!   store after failover.
//! - [`server`] — the daemon: listener, per-connection threads, the
//!   idle-session reaper, graceful shutdown.
//! - [`client`] — the typed client the CLI, tests, and load generator
//!   drive the daemon with; [`FailoverClient`] adds the multi-endpoint
//!   re-attach loop that survives a dying primary.
//! - [`loadgen`] — seeded, deterministic load scripts and the load
//!   report (`fisql load`, `bench_serve`).
//! - [`failover`] — the deterministic kill-the-primary harness
//!   (`run_failover`): seeded load against a primary/follower pair, an
//!   in-process kill at a scripted point, digest comparison against an
//!   unfailed baseline.

pub mod admission;
pub mod client;
pub mod diskfault;
pub mod failover;
pub mod loadgen;
pub mod protocol;
pub mod replicate;
pub mod server;
pub mod store;

pub use admission::{AdmissionConfig, AdmissionGate, AdmissionSnapshot, Rejection};
pub use client::{
    request_compact, request_promote, request_shutdown, request_stats, ClientTurn, Connected,
    FailoverClient, ServeClient,
};
pub use diskfault::{DiskFaultConfig, DISK_FAULT_RATE_ENV};
pub use failover::{run_failover, FailoverConfig, FailoverReport, KillPoint};
pub use loadgen::{
    build_scripts, percentile, run_chaos, run_load, transcript_digest, ChaosBehavior, ChaosConfig,
    ChaosReport, LoadReport, SessionScript, ALL_CHAOS_BEHAVIORS,
};
pub use protocol::{ClientRequest, ServerResponse, ServerStats, PROTOCOL_VERSION};
pub use replicate::{AckMode, ReplFrame, ReplLog, ReplState, Role, REPL_PROTOCOL_VERSION};
pub use server::{Server, ServerHandle};
pub use store::{
    Appended, CompactionOutcome, SessionOp, SessionStore, StoreOptions, StoreSnapshot,
    SESSION_STORE_MARKER,
};
