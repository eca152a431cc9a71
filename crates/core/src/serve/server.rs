//! The serve daemon: listener → admission → session actor → journal.
//!
//! [`Server::bind`] builds the serving world (corpus, simulated model,
//! nearest-question index, session store, admission gate) and
//! [`Server::serve`] runs the accept loop: one OS thread per connection,
//! bounded in practice by the admission gate — a connection either holds
//! one of `max_sessions` slots, waits in the bounded queue, or is
//! rejected with a typed backpressure response within its first
//! round-trip.
//!
//! Per-connection guard rails reuse the machinery previous layers built
//! for the batch runner:
//!
//! - every request is dispatched under the process-wide panic isolation
//!   hook (`core::isolate`), so a poisoned session answers `Error` and
//!   the daemon lives;
//! - every session talks to the model through its own
//!   [`Resilient`](fisql_llm::Resilient) retry/breaker stack (reset at
//!   session open, exactly like the runner's per-case reset), so one
//!   flapping backend conversation cannot starve its neighbours;
//! - every state-changing request is journaled write-ahead to the
//!   [`SessionStore`], so a SIGKILL costs at most the in-flight round
//!   and a restart replays every session bit-identically.
//!
//! Graceful shutdown: a `Shutdown` request (or
//! [`ServerHandle::shutdown`]) closes the admission gate, flips the
//! running flag, and wakes the replication accept loop (`--repl-listen`)
//! out of its blocking `accept()` with one loopback connect, which the
//! loop drops unserved. The client accept loop and live connections
//! notice within one poll tick; connections finish their in-flight
//! request, send `ShuttingDown`, and drain; the store syncs; `serve`
//! returns the final [`ServerStats`] — the same surface a `Stats`
//! request answers.

use super::admission::{AdmissionConfig, AdmissionGate};
use super::diskfault::DiskFaultConfig;
use super::failover::KillPoint;
use super::protocol::{
    deadline_expired, read_frame, read_frame_deadline, write_frame, ClientRequest, ServerResponse,
    ServerStats, PROTOCOL_VERSION,
};
use super::replicate::{notify_deposed, run_follower, run_repl_acceptor, ReplState, Role};
use super::store::{Appended, SessionOp, SessionStore, StoreOptions};
use crate::assistant::Assistant;
use crate::config::{chaos_stack, ServeConfig};
use crate::session::{Session, SessionEvent};
use fisql_llm::{Embedding, FallibleLanguageModel, FaultyBackend, LlmConfig, Resilient, SimLlm};
use fisql_spider::{build_aep, AepConfig, Corpus, Example};
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Poll tick of the client side: how quickly the (nonblocking) client
/// accept loop and a connection waiting for its next frame observe
/// shutdown, and how finely idle deadlines are checked. It also paces
/// session opens: an open waits for the accept loop's next tick.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Bound on a stop's loopback wake connect. A listener whose backlog is
/// full is about to return from `accept()` anyway.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

#[derive(Debug, Default)]
struct ServerCounters {
    sessions_opened: AtomicU64,
    sessions_resumed: AtomicU64,
    rounds_served: AtomicU64,
    questions_served: AtomicU64,
    errors: AtomicU64,
    contained_panics: AtomicU64,
    sessions_degraded: AtomicU64,
}

impl ServerCounters {
    /// The daemon's one stats surface: what a `Stats` request answers
    /// and what [`Server::serve`] returns after the drain.
    fn stats(
        &self,
        gate: &AdmissionGate,
        store: &SessionStore,
        repl: &ReplState,
        started: Instant,
    ) -> ServerStats {
        ServerStats {
            admission: gate.snapshot(),
            store: store.snapshot(),
            sessions_opened: self.sessions_opened.load(Ordering::Relaxed),
            sessions_resumed: self.sessions_resumed.load(Ordering::Relaxed),
            questions_served: self.questions_served.load(Ordering::Relaxed),
            rounds_served: self.rounds_served.load(Ordering::Relaxed),
            sessions_degraded: self.sessions_degraded.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            contained_panics: self.contained_panics.load(Ordering::Relaxed),
            uptime_ms: started.elapsed().as_millis() as u64,
            role: repl.role(),
            epoch: repl.epoch(),
            replication_lag_records: repl.log.lag(),
            repl_followers: repl.log.followers() as u64,
            repl_records_shipped: repl.log.shipped(),
            repl_ack_timeouts: repl.ack_timeouts(),
            repl_ack_degraded: repl.ack_degraded(),
            repl_ack_degraded_entries: repl.ack_degraded_entries(),
        }
    }
}

/// Shared per-connection context.
struct ConnCtx {
    config: ServeConfig,
    corpus: Arc<Corpus>,
    embeddings: Arc<Vec<Embedding>>,
    assistant: Assistant,
    store: Arc<SessionStore>,
    gate: Arc<AdmissionGate>,
    stop: Arc<Stopper>,
    repl: Arc<ReplState>,
    counters: Arc<ServerCounters>,
    started: Instant,
}

/// The daemon's one stop switch, shared by [`ServerHandle`] and the
/// `Shutdown` admin request.
struct Stopper {
    gate: Arc<AdmissionGate>,
    /// Cleared by a stop; every daemon thread watches it.
    running: Arc<AtomicBool>,
    /// Set by [`ServerHandle::abort`]: stop without farewells.
    aborted: AtomicBool,
    /// The replication listener (`--repl-listen`), whose accept loop
    /// blocks and so must be woken by a stop.
    repl_listener: Option<SocketAddr>,
    /// A scripted kill armed by the failover harness (see
    /// [`ServerHandle::arm_kill`]).
    kill: OnceLock<KillPoint>,
}

impl Stopper {
    /// Stops the daemon (idempotent): closes the admission gate, clears
    /// the running flag, and wakes the replication accept loop blocked
    /// in `accept()` with one loopback connect. That loop checks the
    /// flag after every accept and drops that connection unserved, so a
    /// wake never reaches a shipper. The client accept loop polls and
    /// sees the flag within one [`POLL_INTERVAL`].
    fn stop(&self) {
        self.gate.close();
        if self.running.swap(false, Ordering::AcqRel) {
            if let Some(addr) = self.repl_listener {
                let _ = TcpStream::connect_timeout(&loopback(addr), WAKE_TIMEOUT);
            }
        }
    }

    fn running(&self) -> bool {
        self.running.load(Ordering::Acquire)
    }

    fn aborted(&self) -> bool {
        self.aborted.load(Ordering::Acquire)
    }

    /// Stops without farewells (see [`ServerHandle::abort`]).
    fn abort(&self) {
        self.aborted.store(true, Ordering::Release);
        self.stop();
    }
}

/// The address a local connect reaches a listener bound to `addr` at:
/// an unspecified bind address maps to the loopback of its family.
fn loopback(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// A handle for stopping a serving daemon from another thread.
#[derive(Clone)]
pub struct ServerHandle {
    stop: Arc<Stopper>,
    repl: Arc<ReplState>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// Begins a graceful shutdown (idempotent).
    pub fn shutdown(&self) {
        self.stop.stop();
    }

    /// Kills the daemon without farewell: no `ShuttingDown` frames, no
    /// responses for in-flight requests — connections just see their
    /// socket die, exactly as a SIGKILL looks from the outside. The
    /// store is NOT synced beyond what write-ahead appends already
    /// flushed.
    pub fn abort(&self) {
        self.stop.abort();
    }

    /// Arms a scripted [`abort`](ServerHandle::abort) at `kill`: the
    /// serving path checks the point after every Ask and Feedback and
    /// aborts from inside the turn that reaches it, before that turn's
    /// response is written. That client must re-attach elsewhere to
    /// finish its script, so the kill is always felt, however fast the
    /// load runs. (A `Bye` is never the trigger: a client whose close
    /// dies with the primary has nothing left to re-attach for.) The
    /// first armed point wins.
    pub(crate) fn arm_kill(&self, kill: KillPoint) {
        let _ = self.stop.kill.set(kill);
    }

    /// The daemon's replication state (role, epoch, log) — the failover
    /// suites read lag and hold shipping through this.
    pub fn repl(&self) -> &ReplState {
        &self.repl
    }

    /// The daemon's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

/// The serve daemon (see the module docs).
pub struct Server {
    config: ServeConfig,
    listener: TcpListener,
    repl_listener: Option<TcpListener>,
    corpus: Arc<Corpus>,
    embeddings: Arc<Vec<Embedding>>,
    assistant: Assistant,
    store: Arc<SessionStore>,
    gate: Arc<AdmissionGate>,
    stop: Arc<Stopper>,
    repl: Arc<ReplState>,
    counters: Arc<ServerCounters>,
    started: Instant,
}

impl Server {
    /// Binds the listener and builds the serving world. Opening an
    /// existing session store validates its fingerprint against this
    /// configuration and recovers its intact prefix.
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(config.addr())?;
        listener.set_nonblocking(true)?;
        let corpus = Arc::new(build_aep(&AepConfig {
            n_examples: config.n_examples,
            seed: config.seed,
        }));
        let embeddings = Arc::new(
            corpus
                .examples
                .iter()
                .map(|e| Embedding::embed(&e.question))
                .collect::<Vec<_>>(),
        );
        let assistant = Assistant::for_corpus(&corpus, SimLlm::new(LlmConfig::default()), 3);
        let faults = (config.disk_fault_rate > 0.0)
            .then(|| DiskFaultConfig::uniform(config.disk_fault_rate));
        let store = Arc::new(SessionStore::open(
            config.store.as_deref(),
            StoreOptions::new(config.fingerprint())
                .fsync(config.fsync)
                .compact_every(config.compact_every)
                .faults(faults),
        )?);
        let gate = AdmissionGate::new(AdmissionConfig {
            max_sessions: config.max_sessions,
            queue_depth: config.queue_depth,
            queue_wait_ms: config.queue_wait_ms,
        });
        // Replication state exists (inert) even without replication, so
        // the serving path is identical either way. A `--replica-of`
        // daemon boots as a follower; `--repl-listen` binds the channel
        // followers connect to.
        let repl = ReplState::new(
            Arc::clone(&store),
            config.replica_of.is_some(),
            config.repl_ack,
            config.repl_ack_timeout_ms,
        );
        let repl_listener = match config.repl_listen.as_deref() {
            Some(addr) => Some(TcpListener::bind(addr)?),
            None => None,
        };
        let stop = Arc::new(Stopper {
            gate: Arc::clone(&gate),
            running: Arc::new(AtomicBool::new(true)),
            aborted: AtomicBool::new(false),
            repl_listener: match &repl_listener {
                Some(listener) => Some(listener.local_addr()?),
                None => None,
            },
            kill: OnceLock::new(),
        });
        Ok(Server {
            config,
            listener,
            repl_listener,
            corpus,
            embeddings,
            assistant,
            store,
            gate,
            stop,
            repl,
            counters: Arc::new(ServerCounters::default()),
            started: Instant::now(),
        })
    }

    /// The bound address (resolves `--port 0`).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The bound replication-channel address, when `--repl-listen` is
    /// set (resolves a `:0` port).
    pub fn repl_addr(&self) -> Option<SocketAddr> {
        self.repl_listener
            .as_ref()
            .and_then(|l| l.local_addr().ok())
    }

    /// Sessions recovered from the store at bind time that a previous
    /// daemon never saw closed.
    pub fn recovered_sessions(&self) -> Vec<u64> {
        self.store.unclosed_sessions()
    }

    /// A shutdown handle usable from another thread.
    pub fn handle(&self) -> io::Result<ServerHandle> {
        Ok(ServerHandle {
            stop: Arc::clone(&self.stop),
            repl: Arc::clone(&self.repl),
            addr: self.local_addr()?,
        })
    }

    /// Runs the accept loop until a graceful shutdown, then drains live
    /// connections, syncs the store, and reports.
    pub fn serve(mut self) -> io::Result<ServerStats> {
        // Replication threads: an acceptor + per-follower shippers on
        // the primary side, the receive/apply loop on the follower side.
        let mut repl_threads: Vec<std::thread::JoinHandle<()>> = Vec::new();
        if let Some(listener) = self.repl_listener.take() {
            let repl = Arc::clone(&self.repl);
            let running = Arc::clone(&self.stop.running);
            let fingerprint = self.config.fingerprint();
            repl_threads.push(std::thread::spawn(move || {
                run_repl_acceptor(listener, repl, running, fingerprint);
            }));
        }
        if let Some(primary) = self.config.replica_of.clone() {
            let repl = Arc::clone(&self.repl);
            let running = Arc::clone(&self.stop.running);
            let fingerprint = self.config.fingerprint();
            let auto_promote = self.config.auto_promote;
            repl_threads.push(std::thread::spawn(move || {
                run_follower(&primary, &repl, &running, fingerprint, auto_promote);
            }));
        }
        let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while self.stop.running() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let ctx = ConnCtx {
                        config: self.config.clone(),
                        corpus: Arc::clone(&self.corpus),
                        embeddings: Arc::clone(&self.embeddings),
                        assistant: self.assistant.clone(),
                        store: Arc::clone(&self.store),
                        gate: Arc::clone(&self.gate),
                        stop: Arc::clone(&self.stop),
                        repl: Arc::clone(&self.repl),
                        counters: Arc::clone(&self.counters),
                        started: self.started,
                    };
                    workers.push(std::thread::spawn(move || {
                        let corpus = Arc::clone(&ctx.corpus);
                        // The connection thread is itself isolated: a bug
                        // in the handler kills one connection, never the
                        // daemon.
                        if crate::isolate::run_isolated(|| handle_conn(&ctx, &corpus, stream))
                            .is_err()
                        {
                            ctx.counters
                                .contained_panics
                                .fetch_add(1, Ordering::Relaxed);
                        }
                    }));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL_INTERVAL);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
            workers.retain(|w| !w.is_finished());
        }
        // Drain: the stop closed the gate; live handlers notice the
        // flag within one poll tick.
        for worker in workers {
            let _ = worker.join();
        }
        for thread in repl_threads {
            let _ = thread.join();
        }
        // A chaos-degraded store may legitimately fail its final sync
        // (injected fsync fault, disk-full); the drain still reports.
        let _ = self.store.sync();
        Ok(self
            .counters
            .stats(&self.gate, &self.store, &self.repl, self.started))
    }
}

/// The per-connection chaos stack: deterministic fault injection (rate 0
/// passes through) under retry/breaker middleware — the same stack the
/// batch evaluator runs, now scoped to one connection.
type ConnBackend = Resilient<FaultyBackend<SimLlm>>;

/// One live session hosted by a connection.
struct Hosted<'a> {
    id: u64,
    session: Session<'a>,
    backend: ConnBackend,
    example: Option<Example>,
    /// The session has lost its journal lane (disk fault) and now lives
    /// in memory only.
    degraded: bool,
    /// The replication stream position of this session's latest
    /// journaled op (0 = nothing to gate on). A quorum gate waits for
    /// followers to hold *this* position — the session's own writes —
    /// not whatever the global log tail happens to be under load.
    repl_upto: u64,
}

fn handle_conn(ctx: &ConnCtx, corpus: &Corpus, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }

    // Pre-session frames: admin requests (Shutdown/Stats/Compact) need
    // no session slot; everything else must be Hello. The idle clock
    // runs here too — a connection that never says Hello cannot pin its
    // thread forever.
    let resume = loop {
        let first = match next_request(ctx, &mut stream) {
            NextFrame::Request(request) => request,
            NextFrame::Gone => return,
            NextFrame::Idle { idle_ms } => {
                // No slot held yet; close the half-open connection.
                let _ = write_frame(&mut stream, &reaped_frame(ctx, idle_ms));
                return;
            }
        };
        match first {
            ClientRequest::Shutdown => {
                ctx.stop.stop();
                let _ = write_frame(&mut stream, &ServerResponse::ShuttingDown);
                return;
            }
            ClientRequest::Stats => {
                if write_frame(&mut stream, &ServerResponse::Stats(server_stats(ctx))).is_err() {
                    return;
                }
            }
            ClientRequest::Compact => {
                if write_frame(&mut stream, &compact_response(ctx)).is_err() {
                    return;
                }
            }
            ClientRequest::Promote => {
                if write_frame(&mut stream, &promote_response(ctx)).is_err() {
                    return;
                }
            }
            ClientRequest::Hello { version, resume } => {
                if version != PROTOCOL_VERSION {
                    send_error(
                        ctx,
                        &mut stream,
                        format!(
                            "protocol version {version} unsupported (server speaks {PROTOCOL_VERSION})"
                        ),
                    );
                    return;
                }
                // A standby follower or a fenced ex-primary does not
                // open sessions: the typed refusal is the client's
                // signal to try the next endpoint.
                if ctx.repl.refuses_sessions() {
                    let _ = write_frame(&mut stream, &fenced_frame(ctx));
                    return;
                }
                break resume;
            }
            other => {
                send_error(ctx, &mut stream, format!("expected Hello, got {other:?}"));
                return;
            }
        }
    };

    // Admission: slot, bounded queue, or typed rejection.
    let _permit = match ctx.gate.admit() {
        Ok(permit) => permit,
        Err(rejection) => {
            // An aborted (killed) daemon writes nothing — the gate is
            // closed as a side effect of the abort, but answering with
            // a typed rejection would turn "your peer died, fail over"
            // into "backpressure, give up" for the connecting client.
            if ctx.stop.aborted() {
                return;
            }
            let (active, queued) = match &rejection {
                super::admission::Rejection::QueueFull { active, queued } => (*active, *queued),
                super::admission::Rejection::WaitExpired { active } => (*active, 0),
                super::admission::Rejection::Closed => (ctx.gate.active(), 0),
            };
            let _ = write_frame(
                &mut stream,
                &ServerResponse::Rejected {
                    reason: rejection.reason(),
                    active,
                    queued,
                },
            );
            return;
        }
    };

    // Open or replay the session. An unwritable store (disk-full) sheds
    // *new* sessions with a typed rejection — durability is gone and
    // accepting fresh work the restart would lose is worse than
    // backpressure.
    let mut hosted = match resume {
        None => {
            let (id, durability, repl_upto) = match ctx.store.open_session_tracked() {
                Ok(opened) => opened,
                Err(e) => {
                    ctx.counters.errors.fetch_add(1, Ordering::Relaxed);
                    let _ = write_frame(
                        &mut stream,
                        &ServerResponse::Rejected {
                            reason: format!("session store: {e}"),
                            active: ctx.gate.active(),
                            queued: ctx.gate.waiting(),
                        },
                    );
                    return;
                }
            };
            ctx.counters.sessions_opened.fetch_add(1, Ordering::Relaxed);
            let backend = conn_backend(ctx);
            backend.begin_session();
            let mut hosted = Hosted {
                id,
                session: Session::new(
                    &corpus.databases[0],
                    ctx.assistant.clone(),
                    ctx.config.strategy,
                )
                .semantic_cache(ctx.config.semantic_cache),
                backend,
                example: None,
                degraded: false,
                repl_upto,
            };
            note_append(ctx, &mut hosted, durability);
            hosted
        }
        Some(id) => {
            let ops = ctx.store.session_ops(id);
            if ops.is_empty() {
                send_error(ctx, &mut stream, format!("unknown session {id}"));
                return;
            }
            ctx.counters
                .sessions_resumed
                .fetch_add(1, Ordering::Relaxed);
            replay_session(ctx, corpus, id, &ops)
        }
    };
    // Under quorum acks, even the Welcome (whose open was journaled)
    // waits for follower durability before the client may believe in
    // the session — gated on the open's own stream position, so a
    // resume (no new append, `repl_upto` 0) passes straight through.
    // An aborted (killed) daemon writes nothing more.
    ctx.repl.quorum_gate(hosted.repl_upto, &ctx.stop.running);
    if ctx.stop.aborted() {
        return;
    }
    let replayed_rounds = hosted.session.round();
    if write_frame(
        &mut stream,
        &ServerResponse::Welcome {
            session_id: hosted.id,
            replayed_rounds,
        },
    )
    .is_err()
    {
        return;
    }

    // The request loop. Idle expiry here is a reap proper: the session
    // holds a slot, so the reaper journals `Reaped`, counts it, answers
    // with a typed close frame, and lets the RAII permit return the
    // slot.
    loop {
        let request = match next_request(ctx, &mut stream) {
            NextFrame::Request(request) => request,
            NextFrame::Gone => return,
            NextFrame::Idle { idle_ms } => {
                let (durability, upto) = ctx
                    .store
                    .append_tracked(hosted.id, SessionOp::Reaped { idle_ms });
                hosted.repl_upto = hosted.repl_upto.max(upto);
                note_append(ctx, &mut hosted, durability);
                ctx.gate.note_reaped();
                let _ = write_frame(&mut stream, &reaped_frame(ctx, idle_ms));
                return;
            }
        };
        // State-changing requests journal write-ahead inside dispatch;
        // under quorum acks their responses are release-gated on
        // follower durability. The gate sits between execution and the
        // response write: the op is already durable locally AND shipped,
        // so a primary killed inside the gate loses only un-acked
        // responses — never acknowledged ones.
        let turn = matches!(
            request,
            ClientRequest::Ask { .. } | ClientRequest::Feedback { .. }
        );
        let gated = turn || matches!(request, ClientRequest::Bye);
        let response = dispatch(ctx, corpus, &mut hosted, request);
        // A scripted kill (see `ServerHandle::arm_kill`) fires here.
        if let Some(kill) = ctx.stop.kill.get().filter(|_| turn) {
            let rounds = ctx.counters.rounds_served.load(Ordering::Relaxed);
            if kill.reached(rounds, &ctx.repl, &ctx.store) {
                ctx.stop.abort();
            }
        }
        if gated {
            ctx.repl.quorum_gate(hosted.repl_upto, &ctx.stop.running);
        }
        if ctx.stop.aborted() {
            // Killed mid-request: drop the response on the floor — the
            // client must see a dead socket, not a farewell.
            return;
        }
        let last = matches!(
            response,
            ServerResponse::Goodbye { .. } | ServerResponse::ShuttingDown
        );
        if write_frame(&mut stream, &response).is_err() || last {
            return;
        }
    }
}

/// The typed close frame for an idle-reaped connection.
fn reaped_frame(ctx: &ConnCtx, idle_ms: u64) -> ServerResponse {
    ServerResponse::Reaped {
        reason: format!(
            "connection idle for {idle_ms} ms (limit {} ms); slot reclaimed",
            ctx.config.idle_timeout_ms
        ),
        idle_ms,
    }
}

/// Live daemon statistics for the `Stats` admin request.
fn server_stats(ctx: &ConnCtx) -> ServerStats {
    ctx.counters
        .stats(&ctx.gate, &ctx.store, &ctx.repl, ctx.started)
}

/// The typed write refusal a follower or fenced ex-primary answers
/// session traffic with — sent *before* any store append, so a deposed
/// node's store never diverges from the promoted one's.
fn fenced_frame(ctx: &ConnCtx) -> ServerResponse {
    let role = ctx.repl.role();
    let epoch = ctx.repl.epoch();
    let message = match role {
        Role::Follower => format!(
            "standing by as a follower (epoch {epoch}); not accepting session writes — \
             retry against the primary"
        ),
        Role::Fenced => format!(
            "write fenced: this node (epoch {epoch}) was deposed by epoch {}; \
             restart it as a follower of the new primary",
            ctx.repl.fenced_by()
        ),
        Role::Primary => format!("not accepting session writes (epoch {epoch})"),
    };
    ServerResponse::Fenced {
        role,
        epoch,
        message,
    }
}

/// Serves the `Promote` admin request: a follower (or an idle primary,
/// idempotently) bumps its epoch and starts accepting sessions; the old
/// primary is fenced best-effort. A fenced node refuses — promoting it
/// would fork history.
fn promote_response(ctx: &ConnCtx) -> ServerResponse {
    if ctx.repl.role() == Role::Primary {
        return ServerResponse::Promoted {
            epoch: ctx.repl.epoch(),
        };
    }
    match ctx.repl.promote() {
        Ok(epoch) => {
            if let Some(primary) = ctx.config.replica_of.clone() {
                let fingerprint = ctx.config.fingerprint();
                // Off-thread: the old primary may be dead, and a client
                // asking us to promote must not wait on its timeout.
                std::thread::spawn(move || notify_deposed(&primary, epoch, fingerprint));
            }
            ServerResponse::Promoted { epoch }
        }
        Err(e) => {
            ctx.counters.errors.fetch_add(1, Ordering::Relaxed);
            ServerResponse::Error {
                message: format!("promotion refused: {e}"),
            }
        }
    }
}

/// Runs an on-demand store compaction for the `Compact` admin request.
fn compact_response(ctx: &ConnCtx) -> ServerResponse {
    match ctx.store.compact() {
        Ok(outcome) => ServerResponse::Compacted {
            generation: outcome.generation,
            ops_before: outcome.ops_before,
            ops_after: outcome.ops_after,
            sessions_dropped: outcome.sessions_dropped,
        },
        Err(e) => {
            ctx.counters.errors.fetch_add(1, Ordering::Relaxed);
            ServerResponse::Error {
                message: format!("compaction failed: {e}"),
            }
        }
    }
}

/// Folds one append's durability into the session: the first degraded
/// append flips the session to memory-only, records a transcript
/// `Degraded` event, and counts it — the daemon serves on.
fn note_append(ctx: &ConnCtx, hosted: &mut Hosted<'_>, durability: Appended) {
    if let Appended::Degraded { error } = durability {
        if !hosted.degraded {
            hosted.degraded = true;
            ctx.counters
                .sessions_degraded
                .fetch_add(1, Ordering::Relaxed);
            hosted.session.transcript.push(SessionEvent::Degraded {
                round: hosted.session.round(),
                error: format!("session store degraded to memory-only: {error}"),
            });
        }
    }
}

/// Builds one connection's resilient chaos backend.
fn conn_backend(ctx: &ConnCtx) -> ConnBackend {
    chaos_stack(
        &ctx.assistant.llm,
        ctx.config.fault_rate,
        ctx.config.retry_budget,
    )
}

/// What waiting for the next frame resolved to.
enum NextFrame {
    /// A complete request arrived.
    Request(ClientRequest),
    /// The connection is over (EOF, transport/protocol error, drain).
    Gone,
    /// The idle clock expired — no complete frame within
    /// `--idle-timeout` (counting mid-frame stalls: a slowloris peer
    /// trickling bytes never completes a frame and still expires).
    Idle {
        /// Milliseconds since the last completed frame.
        idle_ms: u64,
    },
}

/// Reads the next request, polling so shutdown is observed between
/// frames. The idle clock arms per wait: it resets on every completed
/// frame and is checked both between reads (silent peer) and inside a
/// frame (trickling peer), virtual-clock style — the deadline is
/// computed once and compared, never slept against.
fn next_request(ctx: &ConnCtx, stream: &mut TcpStream) -> NextFrame {
    let armed = Instant::now();
    let deadline = (ctx.config.idle_timeout_ms > 0)
        .then(|| armed + Duration::from_millis(ctx.config.idle_timeout_ms));
    loop {
        if !ctx.stop.running() {
            // A graceful drain says goodbye; an abort (in-process kill)
            // just drops the connection mid-conversation.
            if !ctx.stop.aborted() {
                let _ = write_frame(stream, &ServerResponse::ShuttingDown);
            }
            return NextFrame::Gone;
        }
        if let Some(deadline) = deadline {
            if Instant::now() >= deadline {
                return NextFrame::Idle {
                    idle_ms: armed.elapsed().as_millis() as u64,
                };
            }
        }
        let read = match deadline {
            Some(deadline) => read_frame_deadline::<_, ClientRequest>(stream, deadline, false),
            None => read_frame::<_, ClientRequest>(stream),
        };
        match read {
            Ok(Some(request)) => return NextFrame::Request(request),
            Ok(None) => return NextFrame::Gone,
            Err(e) if deadline_expired(&e) => {
                return NextFrame::Idle {
                    idle_ms: armed.elapsed().as_millis() as u64,
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) => {}
            Err(e) => {
                ctx.counters.errors.fetch_add(1, Ordering::Relaxed);
                let _ = write_frame(
                    stream,
                    &ServerResponse::Error {
                        message: format!("bad frame: {e}"),
                    },
                );
                return NextFrame::Gone;
            }
        }
    }
}

fn send_error(ctx: &ConnCtx, stream: &mut TcpStream, message: String) {
    ctx.counters.errors.fetch_add(1, Ordering::Relaxed);
    let _ = write_frame(stream, &ServerResponse::Error { message });
}

/// Serves one in-session request.
fn dispatch<'a>(
    ctx: &ConnCtx,
    corpus: &'a Corpus,
    hosted: &mut Hosted<'a>,
    request: ClientRequest,
) -> ServerResponse {
    // A node fenced mid-session refuses every further write on the
    // session — the append must never happen, or the deposed store
    // diverges from the promoted follower's. Reads (Transcript, Stats)
    // still serve: they help the client re-attach elsewhere.
    if ctx.repl.fenced()
        && matches!(
            request,
            ClientRequest::Ask { .. } | ClientRequest::Feedback { .. } | ClientRequest::Bye
        )
    {
        return fenced_frame(ctx);
    }
    match request {
        ClientRequest::Ask { question } => {
            let example_idx = resolve_example(ctx, &question);
            let (durability, upto) = ctx.store.append_tracked(
                hosted.id,
                SessionOp::Ask {
                    example_idx: example_idx as u64,
                    question,
                },
            );
            hosted.repl_upto = hosted.repl_upto.max(upto);
            note_append(ctx, hosted, durability);
            let response = serve_ask(ctx, corpus, hosted, example_idx);
            if matches!(response, ServerResponse::Turn { .. }) {
                ctx.counters
                    .questions_served
                    .fetch_add(1, Ordering::Relaxed);
            }
            response
        }
        ClientRequest::Feedback { text, highlight } => {
            if !hosted.session.has_question() {
                ctx.counters.errors.fetch_add(1, Ordering::Relaxed);
                return ServerResponse::Error {
                    message: "feedback before any question".to_string(),
                };
            }
            let (durability, upto) = ctx.store.append_tracked(
                hosted.id,
                SessionOp::Feedback {
                    text: text.clone(),
                    highlight,
                },
            );
            hosted.repl_upto = hosted.repl_upto.max(upto);
            note_append(ctx, hosted, durability);
            let response = serve_feedback(ctx, hosted, &text, highlight);
            if matches!(response, ServerResponse::Turn { .. }) {
                ctx.counters.rounds_served.fetch_add(1, Ordering::Relaxed);
            }
            response
        }
        ClientRequest::Transcript => ServerResponse::TranscriptDump {
            events: hosted.session.transcript.clone(),
        },
        ClientRequest::Bye => {
            let (durability, upto) = ctx.store.append_tracked(hosted.id, SessionOp::Closed);
            hosted.repl_upto = hosted.repl_upto.max(upto);
            note_append(ctx, hosted, durability);
            ServerResponse::Goodbye {
                rounds: feedback_turns(&hosted.session),
            }
        }
        ClientRequest::Hello { .. } => {
            ctx.counters.errors.fetch_add(1, Ordering::Relaxed);
            ServerResponse::Error {
                message: "session already open".to_string(),
            }
        }
        ClientRequest::Shutdown => {
            ctx.stop.stop();
            ServerResponse::ShuttingDown
        }
        ClientRequest::Stats => ServerResponse::Stats(server_stats(ctx)),
        ClientRequest::Compact => compact_response(ctx),
        ClientRequest::Promote => promote_response(ctx),
    }
}

/// Runs `ask` under panic isolation and packages the turn.
fn serve_ask<'a>(
    ctx: &ConnCtx,
    corpus: &'a Corpus,
    hosted: &mut Hosted<'a>,
    example_idx: usize,
) -> ServerResponse {
    let example = corpus.examples[example_idx].clone();
    let cursor = hosted.session.events().len();
    hosted.session.db = corpus.database(&example);
    let outcome = {
        let session = &mut hosted.session;
        let example = &example;
        crate::isolate::run_isolated(|| session.ask(example))
    };
    hosted.example = Some(example);
    turn_response(ctx, hosted, cursor, outcome)
}

/// Runs one feedback round under panic isolation and packages the turn.
fn serve_feedback(
    ctx: &ConnCtx,
    hosted: &mut Hosted<'_>,
    text: &str,
    highlight: Option<fisql_sqlkit::Span>,
) -> ServerResponse {
    // The caller checked has_question(), so the example is present in
    // practice — but a typed error beats panicking a daemon thread on a
    // future call-site slip.
    let Some(example) = hosted.example.clone() else {
        ctx.counters.errors.fetch_add(1, Ordering::Relaxed);
        return ServerResponse::Error {
            message: "feedback before any question".to_string(),
        };
    };
    let cursor = hosted.session.events().len();
    // give_feedback contains backend errors and panics internally
    // (Degraded/Crashed events), so it always returns a turn.
    let Hosted {
        session, backend, ..
    } = hosted;
    let turn = session.give_feedback(backend, &example, text, highlight);
    turn_response(ctx, hosted, cursor, Ok(turn))
}

/// Folds an isolated turn outcome into the wire response.
fn turn_response(
    ctx: &ConnCtx,
    hosted: &mut Hosted<'_>,
    cursor: usize,
    outcome: Result<crate::assistant::AssistantTurn, String>,
) -> ServerResponse {
    match outcome {
        Ok(turn) => ServerResponse::Turn {
            round: hosted.session.round(),
            sql: turn.sql_text.clone(),
            rendered: Assistant::render_turn(&turn),
            events: hosted.session.events_since(cursor).to_vec(),
        },
        Err(message) => {
            ctx.counters
                .contained_panics
                .fetch_add(1, Ordering::Relaxed);
            ServerResponse::Error {
                message: format!("request panicked (contained): {message}"),
            }
        }
    }
}

/// Reconstructs a session by replaying its journaled ops — the one code
/// path behind both client reconnects and daemon restarts. Determinism
/// of the whole pipeline makes the replayed transcript bit-identical to
/// the original; a replayed op that panics is contained and skipped,
/// exactly as the live round answered `Error` without mutating state.
fn replay_session<'a>(ctx: &ConnCtx, corpus: &'a Corpus, id: u64, ops: &[SessionOp]) -> Hosted<'a> {
    let backend = conn_backend(ctx);
    backend.begin_session();
    let mut hosted = Hosted {
        id,
        session: Session::new(
            &corpus.databases[0],
            ctx.assistant.clone(),
            ctx.config.strategy,
        )
        .semantic_cache(ctx.config.semantic_cache),
        backend,
        example: None,
        degraded: false,
        repl_upto: 0,
    };
    for op in ops {
        match op {
            SessionOp::Opened
            | SessionOp::Closed
            | SessionOp::Reaped { .. }
            | SessionOp::Checkpoint { .. }
            | SessionOp::Epoch { .. } => {}
            SessionOp::Ask { example_idx, .. } => {
                let idx = (*example_idx as usize).min(corpus.examples.len() - 1);
                let example = corpus.examples[idx].clone();
                hosted.session.db = corpus.database(&example);
                let _ = crate::isolate::run_isolated(|| hosted.session.ask(&example));
                hosted.example = Some(example);
            }
            SessionOp::Feedback { text, highlight } => {
                let Some(example) = hosted.example.clone() else {
                    continue;
                };
                let Hosted {
                    session, backend, ..
                } = &mut hosted;
                session.give_feedback(&*backend, &example, text, *highlight);
            }
        }
    }
    hosted
}

/// Resolves a question onto the corpus: exact text match first, nearest
/// embedding otherwise (both deterministic; the resolved index is
/// journaled, so replay never re-runs this).
fn resolve_example(ctx: &ConnCtx, question: &str) -> usize {
    if let Some(idx) = ctx
        .corpus
        .examples
        .iter()
        .position(|e| e.question.eq_ignore_ascii_case(question))
    {
        return idx;
    }
    let q = Embedding::embed(question);
    ctx.embeddings
        .iter()
        .enumerate()
        .max_by(|a, b| {
            q.cosine(a.1)
                .partial_cmp(&q.cosine(b.1))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .map_or(0, |(i, _)| i)
}

/// Feedback turns recorded in the transcript (replayed + live).
fn feedback_turns(session: &Session<'_>) -> u64 {
    session
        .events()
        .iter()
        .filter(|e| matches!(e, SessionEvent::Feedback { .. }))
        .count() as u64
}
