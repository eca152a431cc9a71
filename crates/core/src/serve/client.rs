//! A typed client for the serve wire protocol.
//!
//! [`ServeClient`] wraps one TCP connection: `connect` performs the
//! `Hello`/`Welcome` handshake (surfacing admission rejection as a typed
//! outcome, not an error), and the per-request helpers send one frame
//! and decode the matching response. The load generator, the serve
//! tests, and the `fisql load` CLI all drive the daemon through this
//! one client.

use super::protocol::{
    read_frame_deadline, write_frame, ClientRequest, ServerResponse, ServerStats, PROTOCOL_VERSION,
};
use super::replicate::Role;
use super::store::CompactionOutcome;
use crate::session::SessionEvent;
use fisql_sqlkit::Span;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Socket poll tick under the client's read deadline: reads wake this
/// often to check the deadline clock.
const CLIENT_POLL: Duration = Duration::from_millis(100);

/// Default bound on waiting for one server response. A dead or wedged
/// daemon surfaces as a timeout error instead of hanging `fisql load`
/// (or a test) forever.
pub const DEFAULT_READ_DEADLINE: Duration = Duration::from_secs(30);

/// How a connection attempt resolved at the protocol level.
pub enum Connected {
    /// The session is open.
    Admitted(ServeClient),
    /// Admission control refused the connection.
    Rejected {
        /// The server's refusal reason.
        reason: String,
        /// Active sessions at the decision.
        active: usize,
        /// Queued connections at the decision.
        queued: usize,
    },
    /// The daemon is shutting down.
    ShuttingDown,
    /// The node refuses sessions because it is not the primary — an
    /// unpromoted follower or a fenced ex-primary. Try another
    /// endpoint.
    Fenced {
        /// The refusing node's replication role.
        role: Role,
        /// The refusing node's fencing epoch.
        epoch: u64,
        /// The server's explanation.
        message: String,
    },
}

/// One open client session (see the module docs).
pub struct ServeClient {
    stream: TcpStream,
    /// Longest this client waits for one server response.
    read_deadline: Duration,
    /// The id the server journals this session under.
    pub session_id: u64,
    /// Feedback rounds replayed from the store at handshake (0 for a
    /// fresh session).
    pub replayed_rounds: u64,
}

/// One Assistant turn as the client sees it.
#[derive(Debug, Clone)]
pub struct ClientTurn {
    /// Feedback rounds completed so far on the current question.
    pub round: u64,
    /// The SQL now on the table.
    pub sql: String,
    /// The rendered chat bubble.
    pub rendered: String,
    /// The typed events this turn appended to the transcript.
    pub events: Vec<SessionEvent>,
}

fn proto_err(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

impl ServeClient {
    /// Connects and performs the handshake. `resume` replays a stored
    /// session.
    pub fn connect<A: ToSocketAddrs>(addr: A, resume: Option<u64>) -> io::Result<Connected> {
        Self::handshake(TcpStream::connect(addr)?, resume)
    }

    /// Connects, retrying refused connections until `budget` elapses —
    /// for drivers started concurrently with the daemon.
    pub fn connect_retry<A: ToSocketAddrs + Clone>(
        addr: A,
        resume: Option<u64>,
        budget: Duration,
    ) -> io::Result<Connected> {
        let deadline = Instant::now() + budget;
        loop {
            match TcpStream::connect(addr.clone()) {
                Ok(stream) => return Self::handshake(stream, resume),
                Err(e) if Instant::now() < deadline => {
                    let _ = e;
                    std::thread::sleep(Duration::from_millis(25));
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn handshake(mut stream: TcpStream, resume: Option<u64>) -> io::Result<Connected> {
        // Socket setup errors are propagated, not swallowed: a client
        // whose poll timeout could not be armed would hang forever on a
        // dead daemon, which is exactly what the read deadline exists to
        // prevent.
        prepare_stream(&mut stream)?;
        write_frame(
            &mut stream,
            &ClientRequest::Hello {
                version: PROTOCOL_VERSION,
                resume,
            },
        )?;
        match read_response(&mut stream, DEFAULT_READ_DEADLINE)? {
            ServerResponse::Welcome {
                session_id,
                replayed_rounds,
            } => Ok(Connected::Admitted(ServeClient {
                stream,
                read_deadline: DEFAULT_READ_DEADLINE,
                session_id,
                replayed_rounds,
            })),
            ServerResponse::Rejected {
                reason,
                active,
                queued,
            } => Ok(Connected::Rejected {
                reason,
                active,
                queued,
            }),
            ServerResponse::ShuttingDown => Ok(Connected::ShuttingDown),
            ServerResponse::Fenced {
                role,
                epoch,
                message,
            } => Ok(Connected::Fenced {
                role,
                epoch,
                message,
            }),
            // "unknown session" gets its own kind: a failing-over
            // client distinguishes "this session does not exist here"
            // (fall back to a fresh session) from a malformed exchange.
            ServerResponse::Error { message } if message.starts_with("unknown session") => {
                Err(io::Error::new(io::ErrorKind::NotFound, message))
            }
            ServerResponse::Error { message } => Err(proto_err(message)),
            other => Err(proto_err(format!("unexpected handshake reply {other:?}"))),
        }
    }

    /// Bounds how long this client waits for one server response
    /// (default [`DEFAULT_READ_DEADLINE`]).
    pub fn set_read_deadline(&mut self, deadline: Duration) {
        self.read_deadline = deadline;
    }

    /// Sends one request and reads one response.
    pub fn request(&mut self, request: &ClientRequest) -> io::Result<ServerResponse> {
        write_frame(&mut self.stream, request)?;
        read_response(&mut self.stream, self.read_deadline)
    }

    /// Fetches the daemon's live statistics.
    pub fn stats(&mut self) -> io::Result<ServerStats> {
        match self.request(&ClientRequest::Stats)? {
            ServerResponse::Stats(stats) => Ok(stats),
            ServerResponse::Error { message } => Err(proto_err(message)),
            other => Err(proto_err(format!("unexpected stats reply {other:?}"))),
        }
    }

    /// Asks a question; returns the Assistant's turn.
    pub fn ask(&mut self, question: &str) -> io::Result<ClientTurn> {
        let response = self.request(&ClientRequest::Ask {
            question: question.to_string(),
        })?;
        expect_turn(response)
    }

    /// Sends feedback on the previously shown SQL.
    pub fn feedback(&mut self, text: &str, highlight: Option<Span>) -> io::Result<ClientTurn> {
        let response = self.request(&ClientRequest::Feedback {
            text: text.to_string(),
            highlight,
        })?;
        expect_turn(response)
    }

    /// Fetches the session's full typed transcript.
    pub fn transcript(&mut self) -> io::Result<Vec<SessionEvent>> {
        match self.request(&ClientRequest::Transcript)? {
            ServerResponse::TranscriptDump { events } => Ok(events),
            ServerResponse::Error { message } => Err(proto_err(message)),
            other => Err(proto_err(format!("unexpected transcript reply {other:?}"))),
        }
    }

    /// Closes the session; returns the feedback rounds taken.
    pub fn bye(mut self) -> io::Result<u64> {
        match self.request(&ClientRequest::Bye)? {
            ServerResponse::Goodbye { rounds } => Ok(rounds),
            ServerResponse::Error { message } => Err(proto_err(message)),
            other => Err(proto_err(format!("unexpected bye reply {other:?}"))),
        }
    }
}

/// Arms a freshly connected socket: no Nagle delay, and the poll tick
/// the read deadline is checked against.
fn prepare_stream(stream: &mut TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(CLIENT_POLL))
}

/// Asks a daemon to shut down gracefully (no session needed). `Ok(true)`
/// means the daemon acknowledged; `Ok(false)` means it had already
/// stopped listening.
pub fn request_shutdown<A: ToSocketAddrs>(addr: A) -> io::Result<bool> {
    let mut stream = match TcpStream::connect(addr) {
        Ok(stream) => stream,
        Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => return Ok(false),
        Err(e) => return Err(e),
    };
    prepare_stream(&mut stream)?;
    write_frame(&mut stream, &ClientRequest::Shutdown)?;
    let deadline = Instant::now() + DEFAULT_READ_DEADLINE;
    match read_frame_deadline::<_, ServerResponse>(&mut stream, deadline, true)? {
        Some(ServerResponse::ShuttingDown) | None => Ok(true),
        Some(other) => Err(proto_err(format!("unexpected shutdown reply {other:?}"))),
    }
}

/// Fetches a daemon's live statistics without opening a session.
pub fn request_stats<A: ToSocketAddrs>(addr: A) -> io::Result<ServerStats> {
    let mut stream = TcpStream::connect(addr)?;
    prepare_stream(&mut stream)?;
    write_frame(&mut stream, &ClientRequest::Stats)?;
    match read_response(&mut stream, DEFAULT_READ_DEADLINE)? {
        ServerResponse::Stats(stats) => Ok(stats),
        ServerResponse::Error { message } => Err(proto_err(message)),
        other => Err(proto_err(format!("unexpected stats reply {other:?}"))),
    }
}

/// Asks a daemon to compact its session store now (no session needed).
pub fn request_compact<A: ToSocketAddrs>(addr: A) -> io::Result<CompactionOutcome> {
    let mut stream = TcpStream::connect(addr)?;
    prepare_stream(&mut stream)?;
    write_frame(&mut stream, &ClientRequest::Compact)?;
    match read_response(&mut stream, DEFAULT_READ_DEADLINE)? {
        ServerResponse::Compacted {
            generation,
            ops_before,
            ops_after,
            sessions_dropped,
        } => Ok(CompactionOutcome {
            generation,
            ops_before,
            ops_after,
            sessions_dropped,
        }),
        ServerResponse::Error { message } => Err(proto_err(message)),
        other => Err(proto_err(format!("unexpected compact reply {other:?}"))),
    }
}

/// Asks a node to promote itself to primary (no session needed).
/// Returns the node's epoch after the promotion; idempotent on a node
/// that is already primary. A *fenced* node refuses — promoting it
/// would fork history.
pub fn request_promote<A: ToSocketAddrs>(addr: A) -> io::Result<u64> {
    let mut stream = TcpStream::connect(addr)?;
    prepare_stream(&mut stream)?;
    write_frame(&mut stream, &ClientRequest::Promote)?;
    match read_response(&mut stream, DEFAULT_READ_DEADLINE)? {
        ServerResponse::Promoted { epoch } => Ok(epoch),
        ServerResponse::Error { message } => Err(proto_err(message)),
        other => Err(proto_err(format!("unexpected promote reply {other:?}"))),
    }
}

fn read_response(stream: &mut TcpStream, read_deadline: Duration) -> io::Result<ServerResponse> {
    let deadline = Instant::now() + read_deadline;
    match read_frame_deadline::<_, ServerResponse>(stream, deadline, true)? {
        Some(ServerResponse::Reaped { reason, .. }) => Err(io::Error::new(
            io::ErrorKind::ConnectionReset,
            format!("session reaped by the daemon: {reason}"),
        )),
        Some(response) => Ok(response),
        // A socket that died before a frame arrived is a *transport*
        // failure, not a protocol one — [`FailoverClient`] keys its
        // re-attach sweep on exactly this kind.
        None => Err(io::Error::new(
            io::ErrorKind::ConnectionAborted,
            "server closed the connection mid-conversation",
        )),
    }
}

fn expect_turn(response: ServerResponse) -> io::Result<ClientTurn> {
    match response {
        ServerResponse::Turn {
            round,
            sql,
            rendered,
            events,
        } => Ok(ClientTurn {
            round,
            sql,
            rendered,
            events,
        }),
        ServerResponse::Error { message } => Err(proto_err(message)),
        other => Err(proto_err(format!("unexpected turn reply {other:?}"))),
    }
}

// ---------------------------------------------------------------------
// Failover client
// ---------------------------------------------------------------------

/// Most endpoint switches one conversation tolerates before the client
/// concludes the cluster is flapping and gives up.
const MAX_FAILOVERS: usize = 16;

/// Pause between endpoint sweeps while waiting for a node to come up or
/// promote itself.
const SWEEP_PAUSE: Duration = Duration::from_millis(25);

/// One in-flight conversation turn, borrowed from the caller.
enum PlayOp<'a> {
    Ask(&'a str),
    Feedback(&'a str, Option<Span>),
}

/// A serve client that survives a dying primary.
///
/// The client holds an ordered endpoint list (primary first). On a
/// transport failure — or a typed [`ServerResponse::Fenced`] refusal —
/// it sweeps the other endpoints, re-attaches by session id (`resume`),
/// and *deduplicates* the in-flight turn against the resumed
/// transcript: the store journals exactly one `User` event per `Ask`
/// and one `Feedback` event per feedback round, so comparing event
/// counts against the client's own done-counters decides whether the
/// turn the crash interrupted was applied (synthesize its reply from
/// the replayed transcript) or lost (resend it verbatim).
///
/// Under `--repl-ack quorum` an acknowledged turn is durable on a
/// majority before the client ever sees its reply, so [`lost_rounds`]
/// stays zero across a failover; under `--repl-ack none` the counter
/// reports exactly how many acknowledged turns the promoted follower
/// had never seen.
///
/// [`lost_rounds`]: FailoverClient::lost_rounds
pub struct FailoverClient {
    endpoints: Vec<String>,
    /// Index of the endpoint currently serving us.
    current: usize,
    client: Option<ServeClient>,
    session_id: Option<u64>,
    /// Questions this client has confirmed applied.
    questions_done: u64,
    /// Feedback rounds this client has confirmed applied.
    feedback_done: u64,
    /// Budget for one full re-attach (covers follower promotion).
    reattach_budget: Duration,
    /// The next re-attach sweep should probe the *current* endpoint
    /// first: the disconnect was a read-deadline expiry, which a
    /// slow-but-alive node (e.g. stalled in a quorum-ack wait) also
    /// produces — sweeping away from it immediately would turn one slow
    /// turn into a full failover against a node that never died.
    prefer_current_on_reattach: bool,
    /// Successful re-attachments to another endpoint.
    pub failovers: u64,
    /// Confirmed turns the promoted node had never seen (possible only
    /// with `--repl-ack none`).
    pub lost_rounds: u64,
    /// Wall-clock of each successful failover, microseconds.
    pub failover_latencies_us: Vec<u64>,
}

impl FailoverClient {
    /// Connects to the first endpoint that admits a session, retrying
    /// sweeps until `budget` elapses. `Ok(None)` preserves the
    /// single-endpoint client's backpressure contract: a live node
    /// answered `Rejected` or `ShuttingDown`.
    pub fn connect(endpoints: Vec<String>, budget: Duration) -> io::Result<Option<FailoverClient>> {
        if endpoints.is_empty() {
            return Err(proto_err("no endpoints to connect to"));
        }
        let deadline = Instant::now() + budget;
        let (current, client) = 'sweep: loop {
            for (idx, endpoint) in endpoints.iter().enumerate() {
                match ServeClient::connect(endpoint.as_str(), None) {
                    Ok(Connected::Admitted(client)) => break 'sweep (idx, client),
                    Ok(Connected::Rejected { .. } | Connected::ShuttingDown) => return Ok(None),
                    // A fenced node or a dead endpoint: try the next.
                    Ok(Connected::Fenced { .. }) | Err(_) => {}
                }
            }
            if Instant::now() >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "no endpoint admitted a session within the connect budget",
                ));
            }
            std::thread::sleep(SWEEP_PAUSE);
        };
        let session_id = client.session_id;
        Ok(Some(FailoverClient {
            endpoints,
            current,
            client: Some(client),
            session_id: Some(session_id),
            questions_done: 0,
            feedback_done: 0,
            reattach_budget: budget,
            prefer_current_on_reattach: false,
            failovers: 0,
            lost_rounds: 0,
            failover_latencies_us: Vec::new(),
        }))
    }

    /// The session id the store journals this conversation under.
    pub fn session_id(&self) -> Option<u64> {
        self.session_id
    }

    /// Asks a question; survives the primary dying mid-turn.
    pub fn ask(&mut self, question: &str) -> io::Result<ClientTurn> {
        self.drive(&PlayOp::Ask(question))
    }

    /// Sends feedback on the previously shown SQL; survives the primary
    /// dying mid-turn.
    pub fn feedback(&mut self, text: &str, highlight: Option<Span>) -> io::Result<ClientTurn> {
        self.drive(&PlayOp::Feedback(text, highlight))
    }

    /// Fetches the session's full typed transcript, failing over if the
    /// serving node dies first.
    pub fn transcript(&mut self) -> io::Result<Vec<SessionEvent>> {
        let mut attempts = 0;
        loop {
            if self.client.is_none() {
                self.fail_over()?;
            }
            let client = self.client.as_mut().expect("connected after fail_over");
            match client.transcript() {
                Ok(events) => {
                    // The transcript is the store's truth. If a
                    // failover landed between the last confirmed turn
                    // and this fetch, turns the promoted node never saw
                    // would otherwise escape the accounting — reconcile
                    // the counters against what actually survived.
                    let (applied_q, applied_f) = count_turn_events(&events);
                    self.lost_rounds += self.questions_done.saturating_sub(applied_q)
                        + self.feedback_done.saturating_sub(applied_f);
                    self.questions_done = self.questions_done.min(applied_q);
                    self.feedback_done = self.feedback_done.min(applied_f);
                    return Ok(events);
                }
                Err(e) if is_failover_error(&e) && attempts < MAX_FAILOVERS => {
                    attempts += 1;
                    self.mark_disconnected(&e);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Closes the session. The close itself is not replayed on
    /// failover: if the node died around the `Bye`, either the `Closed`
    /// record made it (the session is over) or the reaper will collect
    /// the orphaned slot — both leave the conversation's transcript
    /// intact, which is the part the digest checks.
    pub fn bye(&mut self) -> io::Result<u64> {
        let Some(client) = self.client.take() else {
            return Ok(self.feedback_done);
        };
        match client.bye() {
            Ok(rounds) => Ok(rounds),
            Err(e) if is_failover_error(&e) => Ok(self.feedback_done),
            Err(e) => Err(e),
        }
    }

    /// Plays one turn to completion across failovers.
    fn drive(&mut self, op: &PlayOp<'_>) -> io::Result<ClientTurn> {
        let mut attempts = 0;
        loop {
            if self.client.is_none() {
                self.fail_over()?;
                match self.skip_if_applied(op) {
                    Ok(Some(turn)) => return Ok(turn),
                    Ok(None) => {}
                    Err(e) if is_failover_error(&e) && attempts < MAX_FAILOVERS => {
                        attempts += 1;
                        self.mark_disconnected(&e);
                        continue;
                    }
                    Err(e) => return Err(e),
                }
            }
            // A feedback whose *question* went down with the dead
            // primary (possible only under `--repl-ack none`) has
            // nothing to apply to — sending it would draw a typed
            // error. It is lost with its question; skip and account.
            // Checked *after* any re-attach: the question can also be
            // lost mid-drive, when resuming finds the whole session gone
            // and falls back to a fresh one.
            if matches!(op, PlayOp::Feedback(..)) && self.questions_done == 0 {
                self.lost_rounds += 1;
                return Ok(ClientTurn {
                    round: 0,
                    sql: String::new(),
                    rendered: String::new(),
                    events: Vec::new(),
                });
            }
            let request = match op {
                PlayOp::Ask(question) => ClientRequest::Ask {
                    question: (*question).to_string(),
                },
                PlayOp::Feedback(text, highlight) => ClientRequest::Feedback {
                    text: (*text).to_string(),
                    highlight: *highlight,
                },
            };
            let client = self.client.as_mut().expect("connected after fail_over");
            match client.request(&request) {
                Ok(ServerResponse::Turn {
                    round,
                    sql,
                    rendered,
                    events,
                }) => {
                    self.note_done(op);
                    return Ok(ClientTurn {
                        round,
                        sql,
                        rendered,
                        events,
                    });
                }
                // The node stopped being primary under us (fenced
                // mid-conversation). The turn was refused *before* any
                // store append, so resending after the sweep is safe.
                Ok(ServerResponse::Fenced { .. }) => self.client = None,
                Ok(ServerResponse::Error { message }) => return Err(proto_err(message)),
                Ok(other) => return Err(proto_err(format!("unexpected turn reply {other:?}"))),
                Err(e) if is_failover_error(&e) => self.mark_disconnected(&e),
                Err(e) => return Err(e),
            }
            attempts += 1;
            if attempts > MAX_FAILOVERS {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "gave up on the turn after repeated failovers",
                ));
            }
        }
    }

    /// Drops the connection ahead of a re-attach sweep, remembering
    /// whether the error was a read-deadline expiry — the one failure a
    /// slow-but-alive node also produces, so the sweep re-probes the
    /// same endpoint before deserting it.
    fn mark_disconnected(&mut self, e: &io::Error) {
        self.client = None;
        self.prefer_current_on_reattach = is_deadline_expiry(e);
    }

    /// Sweeps the endpoints until one admits the resumed session,
    /// waiting out follower promotion within the budget. Normally the
    /// *other* endpoints come first (the current one is presumed dead
    /// and tried last); after a read-deadline expiry the current
    /// endpoint is retried first — see [`FailoverClient::mark_disconnected`].
    fn fail_over(&mut self) -> io::Result<()> {
        let started = Instant::now();
        let deadline = started + self.reattach_budget;
        self.client = None;
        let start = usize::from(!std::mem::take(&mut self.prefer_current_on_reattach));
        loop {
            for offset in start..start + self.endpoints.len() {
                let idx = (self.current + offset) % self.endpoints.len();
                match ServeClient::connect(self.endpoints[idx].as_str(), self.session_id) {
                    Ok(Connected::Admitted(client)) => {
                        self.current = idx;
                        self.session_id = Some(client.session_id);
                        self.client = Some(client);
                        self.failovers += 1;
                        self.failover_latencies_us
                            .push(started.elapsed().as_micros() as u64);
                        return Ok(());
                    }
                    // The whole session went down with the primary —
                    // its `Opened` record never reached this node
                    // (possible only with `--repl-ack none`). Nothing
                    // to resume: open a fresh session here and count
                    // everything confirmed so far as lost. Session ids
                    // are partitioned by fencing epoch
                    // (`store::epoch_id_floor`), so the promoted node
                    // cannot have handed this id to someone else.
                    Err(e) if e.kind() == io::ErrorKind::NotFound => {
                        if let Ok(Connected::Admitted(client)) =
                            ServeClient::connect(self.endpoints[idx].as_str(), None)
                        {
                            self.lost_rounds += self.questions_done + self.feedback_done;
                            self.questions_done = 0;
                            self.feedback_done = 0;
                            self.current = idx;
                            self.session_id = Some(client.session_id);
                            self.client = Some(client);
                            self.failovers += 1;
                            self.failover_latencies_us
                                .push(started.elapsed().as_micros() as u64);
                            return Ok(());
                        }
                    }
                    // Everything else is retryable within the budget: a
                    // fenced ex-primary, a follower that has not
                    // promoted itself yet, a refused connect while the
                    // promoted node takes over, admission backpressure.
                    Ok(_) | Err(_) => {}
                }
            }
            if Instant::now() >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "no endpoint accepted the re-attach within the failover budget",
                ));
            }
            std::thread::sleep(SWEEP_PAUSE);
        }
    }

    /// Decides what happened to the turn the crash interrupted by
    /// counting `User`/`Feedback` events in the resumed transcript
    /// against this client's done-counters. `Some(turn)` means the
    /// store already holds the turn — its reply is synthesized from the
    /// replayed transcript (with an empty `events` delta, since the
    /// events landed before the failover). `None` means resend.
    fn skip_if_applied(&mut self, op: &PlayOp<'_>) -> io::Result<Option<ClientTurn>> {
        let client = self.client.as_mut().expect("connected after fail_over");
        let events = client.transcript()?;
        let (applied_q, applied_f) = count_turn_events(&events);
        let (done, applied, rest_matches) = match op {
            PlayOp::Ask(_) => (
                self.questions_done,
                applied_q,
                applied_f == self.feedback_done,
            ),
            PlayOp::Feedback(..) => (
                self.feedback_done,
                applied_f,
                applied_q == self.questions_done,
            ),
        };
        if rest_matches && applied == done + 1 {
            self.note_done(op);
            let (rendered, sql) = last_assistant(&events);
            let round = events
                .iter()
                .rev()
                .take_while(|e| !matches!(e, SessionEvent::User(_)))
                .filter(|e| matches!(e, SessionEvent::Feedback { .. }))
                .count() as u64;
            return Ok(Some(ClientTurn {
                round,
                sql,
                rendered,
                events: Vec::new(),
            }));
        }
        // Anything the promoted node never saw is lost — possible only
        // with `--repl-ack none`, where acks outrun replication. Resync
        // the counters to the store's truth and resend from there.
        self.lost_rounds += self.questions_done.saturating_sub(applied_q)
            + self.feedback_done.saturating_sub(applied_f);
        self.questions_done = self.questions_done.min(applied_q);
        self.feedback_done = self.feedback_done.min(applied_f);
        Ok(None)
    }

    fn note_done(&mut self, op: &PlayOp<'_>) {
        match op {
            PlayOp::Ask(_) => self.questions_done += 1,
            PlayOp::Feedback(..) => self.feedback_done += 1,
        }
    }
}

/// Counts the `(User, Feedback)` events in a transcript — the store
/// journals exactly one per applied ask/feedback turn, which is what
/// makes the failover dedup sound.
fn count_turn_events(events: &[SessionEvent]) -> (u64, u64) {
    let users = events
        .iter()
        .filter(|e| matches!(e, SessionEvent::User(_)))
        .count() as u64;
    let feedbacks = events
        .iter()
        .filter(|e| matches!(e, SessionEvent::Feedback { .. }))
        .count() as u64;
    (users, feedbacks)
}

/// The last Assistant bubble in a transcript — the reply a synthesized
/// turn re-presents after failover.
fn last_assistant(events: &[SessionEvent]) -> (String, String) {
    events
        .iter()
        .rev()
        .find_map(|e| match e {
            SessionEvent::Assistant { rendered, sql } => Some((rendered.clone(), sql.clone())),
            _ => None,
        })
        .unwrap_or_default()
}

/// Errors that mean "the node is gone or unusable", as opposed to a
/// typed protocol error the conversation should surface. Deadline
/// expiries ([`is_deadline_expiry`]) are included — a silent crash also
/// looks like one — but they get gentler treatment: the re-attach sweep
/// retries the same endpoint first, so a slow-but-alive node (stalled
/// in a quorum-ack wait, say) is not abandoned over one slow turn.
fn is_failover_error(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::ConnectionRefused
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::UnexpectedEof
    ) || is_deadline_expiry(e)
}

/// Errors a read deadline produces on a node that may be slow, not
/// dead.
fn is_deadline_expiry(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
    )
}
