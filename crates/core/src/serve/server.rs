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
//!   [`fisql_llm::Resilient`] retry/breaker stack (reset at
//!   session open, exactly like the runner's per-case reset), so one
//!   flapping backend conversation cannot starve its neighbours;
//! - every state-changing request is journaled write-ahead to the
//!   [`SessionStore`], so a SIGKILL costs at most the in-flight round
//!   and a restart replays every session bit-identically.
//!
//! One op path: a live Ask or Feedback journals its [`SessionOp`] and
//! then applies it through `Hosted::apply`, the same function a client
//! reconnect or a daemon restart runs over the stored ops. Replay is
//! bit-identical by construction, not by keeping two paths in step.
//! Everything the accept loop, the connections and [`ServerHandle`]
//! share lives in one private `Daemon` behind one `Arc`; admin requests
//! (Shutdown, Stats, Compact, Promote) are answered by one responder
//! before and after `Hello`.
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
use crate::assistant::{Assistant, AssistantTurn};
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

/// Counts one event.
fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// The daemon's one shared context: the serving world, the stop switch
/// and the counters. The accept loop, every connection thread and every
/// [`ServerHandle`] hold it through one `Arc`.
struct Daemon {
    config: ServeConfig,
    corpus: Corpus,
    /// Question embeddings, one per corpus example (see
    /// [`resolve_example`]).
    embeddings: Vec<Embedding>,
    assistant: Assistant,
    store: Arc<SessionStore>,
    gate: Arc<AdmissionGate>,
    repl: Arc<ReplState>,
    /// Cleared by a stop; every daemon thread watches it.
    running: Arc<AtomicBool>,
    /// Set by [`ServerHandle::abort`]: stop without farewells.
    aborted: AtomicBool,
    /// The replication listener's address (`--repl-listen`): its accept
    /// loop blocks and so must be woken by a stop.
    repl_wake: Option<SocketAddr>,
    /// A scripted kill armed by the failover harness (see
    /// [`ServerHandle::arm_kill`]).
    kill: OnceLock<KillPoint>,
    counters: ServerCounters,
    started: Instant,
}

impl Daemon {
    /// Stops the daemon (idempotent): closes the admission gate, clears
    /// the running flag, and wakes the replication accept loop blocked
    /// in `accept()` with one loopback connect. That loop checks the
    /// flag after every accept and drops that connection unserved, so a
    /// wake never reaches a shipper. The client accept loop polls and
    /// sees the flag within one [`POLL_INTERVAL`].
    fn stop(&self) {
        self.gate.close();
        if self.running.swap(false, Ordering::AcqRel) {
            if let Some(addr) = self.repl_wake {
                let _ = TcpStream::connect_timeout(&loopback(addr), WAKE_TIMEOUT);
            }
        }
    }

    /// Stops without farewells (see [`ServerHandle::abort`]).
    fn abort(&self) {
        self.aborted.store(true, Ordering::Release);
        self.stop();
    }

    fn running(&self) -> bool {
        self.running.load(Ordering::Acquire)
    }

    fn aborted(&self) -> bool {
        self.aborted.load(Ordering::Acquire)
    }

    /// The daemon's one stats surface: what a `Stats` request answers
    /// and what [`Server::serve`] returns after the drain.
    fn stats(&self) -> ServerStats {
        let counters = &self.counters;
        let repl = &self.repl;
        ServerStats {
            admission: self.gate.snapshot(),
            store: self.store.snapshot(),
            sessions_opened: counters.sessions_opened.load(Ordering::Relaxed),
            sessions_resumed: counters.sessions_resumed.load(Ordering::Relaxed),
            questions_served: counters.questions_served.load(Ordering::Relaxed),
            rounds_served: counters.rounds_served.load(Ordering::Relaxed),
            sessions_degraded: counters.sessions_degraded.load(Ordering::Relaxed),
            errors: counters.errors.load(Ordering::Relaxed),
            contained_panics: counters.contained_panics.load(Ordering::Relaxed),
            uptime_ms: self.started.elapsed().as_millis() as u64,
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
    daemon: Arc<Daemon>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// Begins a graceful shutdown (idempotent).
    pub fn shutdown(&self) {
        self.daemon.stop();
    }

    /// Kills the daemon without farewell: no `ShuttingDown` frames, no
    /// responses for in-flight requests — connections just see their
    /// socket die, exactly as a SIGKILL looks from the outside. The
    /// store is NOT synced beyond what write-ahead appends already
    /// flushed.
    pub fn abort(&self) {
        self.daemon.abort();
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
        let _ = self.daemon.kill.set(kill);
    }

    /// The daemon's replication state (role, epoch, log) — the failover
    /// suites read lag and hold shipping through this.
    pub fn repl(&self) -> &ReplState {
        &self.daemon.repl
    }

    /// The daemon's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

/// The serve daemon (see the module docs).
pub struct Server {
    listener: TcpListener,
    repl_listener: Option<TcpListener>,
    daemon: Arc<Daemon>,
}

impl Server {
    /// Binds the listener and builds the serving world. Opening an
    /// existing session store validates its fingerprint against this
    /// configuration and recovers its intact prefix.
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(config.addr())?;
        listener.set_nonblocking(true)?;
        let corpus = build_aep(&AepConfig {
            n_examples: config.n_examples,
            seed: config.seed,
        });
        let embeddings = corpus
            .examples
            .iter()
            .map(|e| Embedding::embed(&e.question))
            .collect();
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
        let repl_wake = match &repl_listener {
            Some(listener) => Some(listener.local_addr()?),
            None => None,
        };
        let daemon = Arc::new(Daemon {
            config,
            corpus,
            embeddings,
            assistant,
            store,
            gate,
            repl,
            running: Arc::new(AtomicBool::new(true)),
            aborted: AtomicBool::new(false),
            repl_wake,
            kill: OnceLock::new(),
            counters: ServerCounters::default(),
            started: Instant::now(),
        });
        Ok(Server {
            listener,
            repl_listener,
            daemon,
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
        self.daemon.store.unclosed_sessions()
    }

    /// A shutdown handle usable from another thread.
    pub fn handle(&self) -> io::Result<ServerHandle> {
        Ok(ServerHandle {
            daemon: Arc::clone(&self.daemon),
            addr: self.local_addr()?,
        })
    }

    /// Runs the accept loop until a graceful shutdown, then drains live
    /// connections, syncs the store, and reports.
    pub fn serve(mut self) -> io::Result<ServerStats> {
        // Replication threads: an acceptor + per-follower shippers on
        // the primary side, the receive/apply loop on the follower side.
        let d = &self.daemon;
        let mut repl_threads: Vec<std::thread::JoinHandle<()>> = Vec::new();
        if let Some(listener) = self.repl_listener.take() {
            let repl = Arc::clone(&d.repl);
            let running = Arc::clone(&d.running);
            let fingerprint = d.config.fingerprint();
            repl_threads.push(std::thread::spawn(move || {
                run_repl_acceptor(listener, repl, running, fingerprint);
            }));
        }
        if let Some(primary) = d.config.replica_of.clone() {
            let repl = Arc::clone(&d.repl);
            let running = Arc::clone(&d.running);
            let fingerprint = d.config.fingerprint();
            let auto_promote = d.config.auto_promote;
            repl_threads.push(std::thread::spawn(move || {
                run_follower(&primary, &repl, &running, fingerprint, auto_promote);
            }));
        }
        let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while d.running() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let d = Arc::clone(d);
                    workers.push(std::thread::spawn(move || {
                        // The connection thread is itself isolated: a bug
                        // in the handler kills one connection, never the
                        // daemon.
                        if crate::isolate::run_isolated(|| handle_conn(&d, stream)).is_err() {
                            bump(&d.counters.contained_panics);
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
        let _ = d.store.sync();
        Ok(d.stats())
    }
}

/// One live session hosted by a connection: the session actor every
/// journaled op is applied to, live or replayed.
struct Hosted<'a> {
    id: u64,
    session: Session<'a>,
    /// The per-session chaos stack: deterministic fault injection (rate
    /// 0 passes through) under retry/breaker middleware — the same stack
    /// the batch evaluator runs, scoped to one session.
    backend: Resilient<FaultyBackend<SimLlm>>,
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

impl<'a> Hosted<'a> {
    /// A fresh session actor for session `id`: its own chaos backend,
    /// reset at open exactly like the runner's per-case reset, and an
    /// empty session.
    fn new(d: &'a Daemon, id: u64, repl_upto: u64) -> Hosted<'a> {
        let backend = chaos_stack(&d.assistant.llm, d.config.fault_rate, d.config.retry_budget);
        backend.begin_session();
        Hosted {
            id,
            session: Session::new(
                &d.corpus.databases[0],
                d.assistant.clone(),
                d.config.strategy,
            )
            .semantic_cache(d.config.semantic_cache),
            backend,
            example: None,
            degraded: false,
            repl_upto,
        }
    }

    /// Journals `op` write-ahead and tracks its replication position.
    fn journal(&mut self, d: &'a Daemon, op: SessionOp) {
        let (durability, upto) = d.store.append_tracked(self.id, op);
        self.repl_upto = self.repl_upto.max(upto);
        self.note_append(d, durability);
    }

    /// Folds one append's durability into the session: the first
    /// degraded append flips the session to memory-only and counts it —
    /// the daemon serves on. The degradation point enters the session's
    /// in-memory op history as a [`SessionOp::Degraded`] marker, applied
    /// here like any op, so a same-daemon resume replays the transcript
    /// notice too.
    fn note_append(&mut self, d: &'a Daemon, durability: Appended) {
        if let Appended::Degraded { error } = durability {
            if !self.degraded {
                bump(&d.counters.sessions_degraded);
                d.store.mark_degraded(self.id, &error);
                let _ = self.apply(&d.corpus, &SessionOp::Degraded { error });
            }
        }
    }

    /// Applies one journaled op to the session — the one code path behind
    /// live turns, client reconnects and daemon restarts. Determinism of
    /// the whole pipeline makes a replayed transcript bit-identical to
    /// the live one. `None` for an op that runs no turn (bookkeeping, or
    /// feedback with no question to correct); `Err` for an `ask` that
    /// panicked, contained here — live, the client gets an `Error`; in
    /// replay the op is skipped. (`give_feedback` contains backend
    /// errors and panics internally as `Degraded`/`Crashed` events, so
    /// it always returns a turn.)
    fn apply(
        &mut self,
        corpus: &'a Corpus,
        op: &SessionOp,
    ) -> Option<Result<AssistantTurn, String>> {
        match op {
            SessionOp::Ask { example_idx, .. } => {
                let idx = (*example_idx as usize).min(corpus.examples.len() - 1);
                let example = corpus.examples[idx].clone();
                self.session.db = corpus.database(&example);
                let session = &mut self.session;
                let turn = crate::isolate::run_isolated(|| session.ask(&example));
                self.example = Some(example);
                Some(turn)
            }
            SessionOp::Feedback { text, highlight } => {
                let example = self.example.as_ref()?;
                Some(Ok(self.session.give_feedback(
                    &self.backend,
                    example,
                    text,
                    *highlight,
                )))
            }
            SessionOp::Degraded { error } => {
                self.degraded = true;
                self.session.transcript.push(SessionEvent::Degraded {
                    round: self.session.round(),
                    error: format!("session store degraded to memory-only: {error}"),
                });
                None
            }
            SessionOp::Opened
            | SessionOp::Closed
            | SessionOp::Reaped { .. }
            | SessionOp::Checkpoint { .. }
            | SessionOp::Epoch { .. } => None,
        }
    }
}

fn handle_conn(d: &Daemon, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }

    // Pre-session frames: admin requests need no session slot;
    // everything else must be Hello. The idle clock runs here too — a
    // connection that never says Hello cannot pin its thread forever.
    let resume = loop {
        let request = match next_request(d, &mut stream) {
            NextFrame::Request(request) => request,
            NextFrame::Gone => return,
            NextFrame::Idle { idle_ms } => {
                // No slot held yet; close the half-open connection.
                let _ = write_frame(&mut stream, &reaped_frame(d, idle_ms));
                return;
            }
        };
        if let Some(response) = admin_response(d, &request) {
            let last = matches!(response, ServerResponse::ShuttingDown);
            if write_frame(&mut stream, &response).is_err() || last {
                return;
            }
            continue;
        }
        match request {
            ClientRequest::Hello { version, resume } => {
                if version != PROTOCOL_VERSION {
                    send_error(
                        d,
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
                if d.repl.refuses_sessions() {
                    let _ = write_frame(&mut stream, &fenced_frame(d));
                    return;
                }
                break resume;
            }
            other => {
                send_error(d, &mut stream, format!("expected Hello, got {other:?}"));
                return;
            }
        }
    };

    // Admission: slot, bounded queue, or typed rejection.
    let _permit = match d.gate.admit() {
        Ok(permit) => permit,
        Err(rejection) => {
            // An aborted (killed) daemon writes nothing — the gate is
            // closed as a side effect of the abort, but answering with
            // a typed rejection would turn "your peer died, fail over"
            // into "backpressure, give up" for the connecting client.
            if d.aborted() {
                return;
            }
            let (active, queued) = match &rejection {
                super::admission::Rejection::QueueFull { active, queued } => (*active, *queued),
                super::admission::Rejection::WaitExpired { active } => (*active, 0),
                super::admission::Rejection::Closed => (d.gate.active(), 0),
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

    // Open or resume the session. An unwritable store (disk-full) sheds
    // *new* sessions with a typed rejection — durability is gone and
    // accepting fresh work the restart would lose is worse than
    // backpressure. A resume replays the session's journaled ops through
    // the same `Hosted::apply` its live turns ran through.
    let mut hosted = match resume {
        None => {
            let (id, durability, repl_upto) = match d.store.open_session_tracked() {
                Ok(opened) => opened,
                Err(e) => {
                    bump(&d.counters.errors);
                    let _ = write_frame(
                        &mut stream,
                        &ServerResponse::Rejected {
                            reason: format!("session store: {e}"),
                            active: d.gate.active(),
                            queued: d.gate.waiting(),
                        },
                    );
                    return;
                }
            };
            bump(&d.counters.sessions_opened);
            let mut hosted = Hosted::new(d, id, repl_upto);
            hosted.note_append(d, durability);
            hosted
        }
        Some(id) => {
            let ops = d.store.session_ops(id);
            if ops.is_empty() {
                send_error(d, &mut stream, format!("unknown session {id}"));
                return;
            }
            bump(&d.counters.sessions_resumed);
            let mut hosted = Hosted::new(d, id, 0);
            for op in &ops {
                let _ = hosted.apply(&d.corpus, op);
            }
            hosted
        }
    };
    // Under quorum acks, even the Welcome (whose open was journaled)
    // waits for follower durability before the client may believe in
    // the session — gated on the open's own stream position, so a
    // resume (no new append, `repl_upto` 0) passes straight through.
    // An aborted (killed) daemon writes nothing more.
    d.repl.quorum_gate(hosted.repl_upto, &d.running);
    if d.aborted() {
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
        let request = match next_request(d, &mut stream) {
            NextFrame::Request(request) => request,
            NextFrame::Gone => return,
            NextFrame::Idle { idle_ms } => {
                hosted.journal(d, SessionOp::Reaped { idle_ms });
                d.gate.note_reaped();
                let _ = write_frame(&mut stream, &reaped_frame(d, idle_ms));
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
        let response = dispatch(d, &mut hosted, request);
        // A scripted kill (see `ServerHandle::arm_kill`) fires here.
        if let Some(kill) = d.kill.get().filter(|_| turn) {
            let rounds = d.counters.rounds_served.load(Ordering::Relaxed);
            if kill.reached(rounds, &d.repl, &d.store) {
                d.abort();
            }
        }
        if gated {
            d.repl.quorum_gate(hosted.repl_upto, &d.running);
        }
        if d.aborted() {
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
fn reaped_frame(d: &Daemon, idle_ms: u64) -> ServerResponse {
    ServerResponse::Reaped {
        reason: format!(
            "connection idle for {idle_ms} ms (limit {} ms); slot reclaimed",
            d.config.idle_timeout_ms
        ),
        idle_ms,
    }
}

/// The typed write refusal a follower or fenced ex-primary answers
/// session traffic with — sent *before* any store append, so a deposed
/// node's store never diverges from the promoted one's.
fn fenced_frame(d: &Daemon) -> ServerResponse {
    let role = d.repl.role();
    let epoch = d.repl.epoch();
    let message = match role {
        Role::Follower => format!(
            "standing by as a follower (epoch {epoch}); not accepting session writes — \
             retry against the primary"
        ),
        Role::Fenced => format!(
            "write fenced: this node (epoch {epoch}) was deposed by epoch {}; \
             restart it as a follower of the new primary",
            d.repl.fenced_by()
        ),
        Role::Primary => format!("not accepting session writes (epoch {epoch})"),
    };
    ServerResponse::Fenced {
        role,
        epoch,
        message,
    }
}

/// Answers the sessionless admin requests (Shutdown, Stats, Compact,
/// Promote), the same before and after `Hello`; `None` for session
/// traffic.
fn admin_response(d: &Daemon, request: &ClientRequest) -> Option<ServerResponse> {
    let response = match request {
        ClientRequest::Shutdown => {
            d.stop();
            ServerResponse::ShuttingDown
        }
        ClientRequest::Stats => ServerResponse::Stats(d.stats()),
        ClientRequest::Compact => match d.store.compact() {
            Ok(outcome) => ServerResponse::Compacted {
                generation: outcome.generation,
                ops_before: outcome.ops_before,
                ops_after: outcome.ops_after,
                sessions_dropped: outcome.sessions_dropped,
            },
            Err(e) => {
                bump(&d.counters.errors);
                ServerResponse::Error {
                    message: format!("compaction failed: {e}"),
                }
            }
        },
        ClientRequest::Promote => promote_response(d),
        _ => return None,
    };
    Some(response)
}

/// Serves the `Promote` admin request: a follower (or an idle primary,
/// idempotently) bumps its epoch and starts accepting sessions; the old
/// primary is fenced best-effort. A fenced node refuses — promoting it
/// would fork history.
fn promote_response(d: &Daemon) -> ServerResponse {
    if d.repl.role() == Role::Primary {
        return ServerResponse::Promoted {
            epoch: d.repl.epoch(),
        };
    }
    match d.repl.promote() {
        Ok(epoch) => {
            if let Some(primary) = d.config.replica_of.clone() {
                let fingerprint = d.config.fingerprint();
                // Off-thread: the old primary may be dead, and a client
                // asking us to promote must not wait on its timeout.
                std::thread::spawn(move || notify_deposed(&primary, epoch, fingerprint));
            }
            ServerResponse::Promoted { epoch }
        }
        Err(e) => {
            bump(&d.counters.errors);
            ServerResponse::Error {
                message: format!("promotion refused: {e}"),
            }
        }
    }
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
fn next_request(d: &Daemon, stream: &mut TcpStream) -> NextFrame {
    let armed = Instant::now();
    let deadline = (d.config.idle_timeout_ms > 0)
        .then(|| armed + Duration::from_millis(d.config.idle_timeout_ms));
    loop {
        if !d.running() {
            // A graceful drain says goodbye; an abort (in-process kill)
            // just drops the connection mid-conversation.
            if !d.aborted() {
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
                send_error(d, stream, format!("bad frame: {e}"));
                return NextFrame::Gone;
            }
        }
    }
}

fn send_error(d: &Daemon, stream: &mut TcpStream, message: String) {
    bump(&d.counters.errors);
    let _ = write_frame(stream, &ServerResponse::Error { message });
}

/// Serves one in-session request.
fn dispatch<'a>(d: &'a Daemon, hosted: &mut Hosted<'a>, request: ClientRequest) -> ServerResponse {
    // A node fenced mid-session refuses every further write on the
    // session — the append must never happen, or the deposed store
    // diverges from the promoted follower's. Reads (Transcript, Stats)
    // still serve: they help the client re-attach elsewhere.
    if d.repl.fenced()
        && matches!(
            request,
            ClientRequest::Ask { .. } | ClientRequest::Feedback { .. } | ClientRequest::Bye
        )
    {
        return fenced_frame(d);
    }
    if let Some(response) = admin_response(d, &request) {
        return response;
    }
    match request {
        ClientRequest::Ask { question } => {
            let example_idx = resolve_example(d, &question) as u64;
            serve_turn(
                d,
                hosted,
                SessionOp::Ask {
                    example_idx,
                    question,
                },
            )
        }
        ClientRequest::Feedback { text, highlight } => {
            // Refused before the journal: a feedback with no question
            // to correct must leave no record for replay to skip.
            if hosted.session.question().is_none() {
                bump(&d.counters.errors);
                return ServerResponse::Error {
                    message: "feedback before any question".to_string(),
                };
            }
            serve_turn(d, hosted, SessionOp::Feedback { text, highlight })
        }
        ClientRequest::Transcript => ServerResponse::TranscriptDump {
            events: hosted.session.transcript.clone(),
        },
        ClientRequest::Bye => {
            hosted.journal(d, SessionOp::Closed);
            ServerResponse::Goodbye {
                rounds: feedback_turns(&hosted.session),
            }
        }
        _ => {
            bump(&d.counters.errors);
            ServerResponse::Error {
                message: "session already open".to_string(),
            }
        }
    }
}

/// Serves a live Ask or Feedback: journal the op write-ahead, then apply
/// it exactly as a replay will, and package the new events as the turn.
fn serve_turn<'a>(d: &'a Daemon, hosted: &mut Hosted<'a>, op: SessionOp) -> ServerResponse {
    hosted.journal(d, op.clone());
    let cursor = hosted.session.events().len();
    match hosted.apply(&d.corpus, &op) {
        Some(Ok(turn)) => {
            bump(match op {
                SessionOp::Ask { .. } => &d.counters.questions_served,
                _ => &d.counters.rounds_served,
            });
            ServerResponse::Turn {
                round: hosted.session.round(),
                sql: turn.sql_text.clone(),
                rendered: Assistant::render_turn(&turn),
                events: hosted.session.events_since(cursor).to_vec(),
            }
        }
        Some(Err(message)) => {
            bump(&d.counters.contained_panics);
            ServerResponse::Error {
                message: format!("request panicked (contained): {message}"),
            }
        }
        None => {
            bump(&d.counters.errors);
            ServerResponse::Error {
                message: "feedback before any question".to_string(),
            }
        }
    }
}

/// Resolves a question onto the corpus: exact text match first, nearest
/// embedding otherwise (both deterministic; the resolved index is
/// journaled, so replay never re-runs this).
fn resolve_example(d: &Daemon, question: &str) -> usize {
    if let Some(idx) = d
        .corpus
        .examples
        .iter()
        .position(|e| e.question.eq_ignore_ascii_case(question))
    {
        return idx;
    }
    let q = Embedding::embed(question);
    d.embeddings
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
