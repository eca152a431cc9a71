//! The `serve-churn` and `serve-durable` workloads: `fisql serve`
//! daemons as child processes, driven closed-loop by `nproc` client
//! threads of this process (each sends its next request only after the
//! reply), then checked against an in-process replay of the same
//! scripts through the daemon's own session stack.
//!
//! - `serve-churn`: many short sessions (1–2 questions, 1–3 feedback
//!   rounds each, one transcript read, bye) against an in-memory daemon
//!   with no follower. Opening sessions dominates; the store and
//!   replication are bypassed, which makes it the control for
//!   write-path changes.
//! - `serve-durable`: few long sessions (6–10 questions, 1–3 feedback
//!   rounds each, a transcript read after every question) against a
//!   primary with an on-disk store (`--fsync each`, `--repl-ack
//!   quorum`) and one follower. Every Ask and Feedback pays a journal
//!   append, an fsync and a replication ship-and-ack; transcript reads
//!   are neither journaled nor gated.

use crate::stats::{self, Outcomes};
use crate::trace;
use crate::{nproc, tail_note, Args, Output};
use fisql_core::serve::protocol::{read_frame, write_frame, MAX_FRAME_LEN};
use fisql_core::serve::replicate::{run_follower, run_repl_acceptor};
use fisql_core::serve::{
    request_shutdown, request_stats, transcript_digest, AckMode, ClientRequest, ReplState,
    ServerResponse, ServerStats, SessionOp, PROTOCOL_VERSION,
};
use fisql_core::{
    chaos_stack, Assistant, CacheStats, FsyncPolicy, ServeConfig, Session, SessionEvent,
    SessionStore, StoreOptions,
};
use fisql_llm::{FallibleLanguageModel, LlmConfig, SimLlm};
use fisql_spider::{build_aep, AepConfig, Corpus};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which serve traffic mix a run plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Many short sessions, in-memory daemon.
    Churn,
    /// Few long sessions, durable store, quorum replication.
    Durable,
}

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Longest the benchmark waits for a daemon to come up or settle.
const SETTLE: Duration = Duration::from_secs(30);

/// Client read bound: a wedged daemon fails the run instead of hanging.
const READ_BOUND: Duration = Duration::from_secs(30);

/// Turns the traced store and replication replay sends (each one pays
/// an fsync and a quorum round trip, so it is capped).
const STORE_REPLAY_TURNS: u64 = 200;

/// Feedback utterances the scripts draw from (the pool `fisql load`
/// uses, so churn scripts equal its `build_scripts` output).
const FEEDBACK_POOL: &[&str] = &[
    "we are in 2024",
    "only the january rows please",
    "count them instead of listing",
    "I meant the created date",
    "sort by the count",
];

/// One scripted session: `(question, feedback utterances)` in order.
pub type Script = Vec<(String, Vec<String>)>;

impl Mix {
    /// Session script `i` of the run seeded with `seed` — a pure
    /// function of `(seed, i)` and the corpus.
    pub fn script(self, seed: u64, i: u64, corpus: &Corpus) -> Script {
        let mut rng = StdRng::seed_from_u64(seed ^ i.wrapping_mul(0x9E37));
        let n_questions = match self {
            Mix::Churn => rng.gen_range(1..=2usize),
            Mix::Durable => rng.gen_range(6..=10usize),
        };
        (0..n_questions)
            .map(|_| {
                let example = rng.gen_range(0..corpus.examples.len());
                let rounds = rng.gen_range(1..=3usize);
                let feedback = (0..rounds)
                    .map(|_| FEEDBACK_POOL[rng.gen_range(0..FEEDBACK_POOL.len())].to_string())
                    .collect();
                (corpus.examples[example].question.clone(), feedback)
            })
            .collect()
    }

    fn reads_after_each_question(self) -> bool {
        self == Mix::Durable
    }
}

/// The corpus the daemon serves at its default configuration.
fn serve_corpus() -> Corpus {
    let config = ServeConfig::default();
    build_aep(&AepConfig {
        n_examples: config.n_examples,
        seed: config.seed,
    })
}

// ---------------------------------------------------------------------
// Daemon processes
// ---------------------------------------------------------------------

/// A running `fisql serve` child process.
struct Daemon {
    child: Child,
    addr: String,
    repl_addr: Option<String>,
    /// Drains the child's stdout after the banner (so its drain summary
    /// never hits a closed pipe).
    drain: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Spawns `fisql serve <args>` and waits for its listening banner
    /// (and the replication banner when `repl` is set).
    fn spawn(fisql: &Path, args: &[String], repl: bool) -> Result<Daemon, String> {
        let mut child = Command::new(fisql)
            .arg("serve")
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", fisql.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                let _ = tx.send(line);
            }
        });
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            repl_addr: None,
            drain: Some(drain),
        };
        daemon.addr = daemon.banner(&rx, "listening on ")?;
        if repl {
            daemon.repl_addr = Some(daemon.banner(&rx, "replication listening on ")?);
        }
        Ok(daemon)
    }

    /// Reads stdout lines until one contains `marker`, returning the
    /// address that follows it.
    fn banner(&self, rx: &mpsc::Receiver<String>, marker: &str) -> Result<String, String> {
        let deadline = Instant::now() + SETTLE;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let line = rx
                .recv_timeout(left)
                .map_err(|_| format!("daemon printed no `{marker}` banner"))?;
            if let Some(rest) = line.split(marker).nth(1) {
                return rest
                    .split_whitespace()
                    .next()
                    .map(str::to_string)
                    .ok_or_else(|| format!("malformed banner: {line}"));
            }
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Graceful stop: `Shutdown`, then wait (killing after the bound).
    fn stop(mut self) {
        let _ = request_shutdown(self.addr.as_str());
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // Drop kills whatever is still running and reaps it.
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// The daemons of one set-up plus their store directory; dropping it
/// stops every child and removes the directory, on every exit path.
struct Cluster {
    primary: Option<Daemon>,
    follower: Option<Daemon>,
    dir: PathBuf,
}

impl Cluster {
    fn primary(&self) -> &Daemon {
        self.primary.as_ref().expect("the primary runs until drop")
    }

    /// Graceful stop of every daemon (the follower last).
    fn stop(mut self) {
        if let Some(primary) = self.primary.take() {
            primary.stop();
        }
        if let Some(follower) = self.follower.take() {
            follower.stop();
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        drop(self.primary.take());
        drop(self.follower.take());
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Starts the workload's daemons in a fresh `dir`; returns them and the
/// seconds from spawn until the primary listens (and, on
/// `serve-durable`, until its Stats show the follower registered —
/// without that wait the first gated response would stall a full ack
/// timeout and degrade the gate to counted-async mode).
fn start(fisql: &Path, mix: Mix, dir: PathBuf) -> Result<(Cluster, f64), String> {
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = |name: &str| dir.join(name).display().to_string();
    let started = Instant::now();
    let mut args: Vec<String> = ["--host", "127.0.0.1", "--port", "0"]
        .map(String::from)
        .to_vec();
    if mix == Mix::Durable {
        args.extend(
            [
                "--store",
                &path("primary.fjnl"),
                "--fsync",
                "each",
                "--repl-listen",
                "127.0.0.1:0",
                "--repl-ack",
                "quorum",
            ]
            .map(String::from),
        );
    }
    let mut cluster = Cluster {
        primary: Some(Daemon::spawn(fisql, &args, mix == Mix::Durable)?),
        follower: None,
        dir: dir.clone(),
    };
    if mix == Mix::Durable {
        let repl_addr = cluster
            .primary()
            .repl_addr
            .clone()
            .expect("durable primaries replicate");
        let follower_args: Vec<String> = [
            "--host",
            "127.0.0.1",
            "--port",
            "0",
            "--store",
            &path("follower.fjnl"),
            "--fsync",
            "each",
            "--replica-of",
            &repl_addr,
            "--no-auto-promote",
        ]
        .map(String::from)
        .to_vec();
        cluster.follower = Some(Daemon::spawn(fisql, &follower_args, false)?);
        let deadline = Instant::now() + SETTLE;
        loop {
            let stats = request_stats(cluster.primary().addr.as_str())
                .map_err(|e| format!("primary stats: {e}"))?;
            if stats.repl_followers >= 1 {
                break;
            }
            if Instant::now() >= deadline {
                return Err("the follower never registered with the primary".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    Ok((cluster, started.elapsed().as_secs_f64()))
}

// ---------------------------------------------------------------------
// Closed-loop clients
// ---------------------------------------------------------------------

/// What the clients saw.
#[derive(Default)]
struct Tally {
    open_us: Vec<f64>,
    turn_us: Vec<f64>,
    read_us: Vec<f64>,
    turn_bytes: Vec<f64>,
    read_bytes: Vec<f64>,
    sessions: u64,
    /// `(script index, transcript digest)` of every completed session.
    digests: Vec<(u64, u64)>,
    outcomes: Outcomes,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.open_us.extend(other.open_us);
        self.turn_us.extend(other.turn_us);
        self.read_us.extend(other.read_us);
        self.turn_bytes.extend(other.turn_bytes);
        self.read_bytes.extend(other.read_bytes);
        self.sessions += other.sessions;
        self.digests.extend(other.digests);
        self.outcomes.merge(other.outcomes);
    }
}

/// Encodes and sends one request; returns the bytes written.
fn send(stream: &mut TcpStream, request: &ClientRequest) -> io::Result<usize> {
    let frame = {
        let _s = trace::span("protocol.encode");
        let mut frame = Vec::new();
        write_frame(&mut frame, request)?;
        frame
    };
    stream.write_all(&frame)?;
    Ok(frame.len())
}

/// Reads one whole response frame off the socket, then decodes it with
/// the protocol's own reader; returns it and its size in bytes.
fn recv(stream: &mut TcpStream) -> io::Result<(ServerResponse, usize)> {
    let mut frame = vec![0u8; 4];
    stream.read_exact(&mut frame)?;
    let len = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "oversized frame",
        ));
    }
    frame.resize(4 + len, 0);
    stream.read_exact(&mut frame[4..])?;
    let _s = trace::span("protocol.decode");
    match read_frame::<_, ServerResponse>(&mut frame.as_slice())? {
        Some(response) => Ok((response, frame.len())),
        None => Err(io::Error::new(io::ErrorKind::UnexpectedEof, "empty frame")),
    }
}

fn exchange(
    stream: &mut TcpStream,
    request: &ClientRequest,
) -> io::Result<(ServerResponse, usize)> {
    let sent = send(stream, request)?;
    let (response, received) = recv(stream)?;
    Ok((response, sent + received))
}

/// Plays one script over one connection. `Ok(false)` means admission
/// refused the session.
fn play(
    addr: &str,
    mix: Mix,
    idx: u64,
    script: &Script,
    tally: &mut Tally,
) -> Result<bool, String> {
    trace::set_request(idx);
    let opened = Instant::now();
    tally.outcomes.attempted += 1;
    let mut stream = {
        let _s = trace::span("client.connect");
        TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?
    };
    stream
        .set_nodelay(true)
        .and_then(|()| stream.set_read_timeout(Some(READ_BOUND)))
        .map_err(|e| format!("socket setup: {e}"))?;
    let hello = ClientRequest::Hello {
        version: PROTOCOL_VERSION,
        resume: None,
    };
    let welcome = {
        let _s = trace::span("server.handshake");
        exchange(&mut stream, &hello)
            .map_err(|e| format!("hello: {e}"))?
            .0
    };
    match welcome {
        ServerResponse::Welcome { .. } => {}
        ServerResponse::Rejected { .. } => return Ok(false),
        other => return Err(format!("unexpected handshake reply {other:?}")),
    }
    tally.open_us.push(opened.elapsed().as_secs_f64() * 1e6);

    let mut events = Vec::new();
    for (question, feedbacks) in script {
        let ask = ClientRequest::Ask {
            question: question.clone(),
        };
        turn(&mut stream, &ask, tally)?;
        for text in feedbacks {
            let feedback = ClientRequest::Feedback {
                text: text.clone(),
                highlight: None,
            };
            turn(&mut stream, &feedback, tally)?;
        }
        if mix.reads_after_each_question() {
            events = read(&mut stream, tally)?;
        }
    }
    if !mix.reads_after_each_question() {
        events = read(&mut stream, tally)?;
    }
    tally.outcomes.attempted += 1;
    match exchange(&mut stream, &ClientRequest::Bye).map_err(|e| format!("bye: {e}"))? {
        (ServerResponse::Goodbye { .. }, _) => {}
        (other, _) => return Err(format!("unexpected bye reply {other:?}")),
    }
    tally.sessions += 1;
    tally.digests.push((idx, transcript_digest(&events)));
    Ok(true)
}

fn turn(stream: &mut TcpStream, request: &ClientRequest, tally: &mut Tally) -> Result<(), String> {
    tally.outcomes.attempted += 1;
    let t = Instant::now();
    let (response, bytes) = {
        let _s = trace::span("request.turn");
        exchange(stream, request).map_err(|e| format!("turn: {e}"))?
    };
    match response {
        ServerResponse::Turn { .. } => {
            tally.turn_us.push(t.elapsed().as_secs_f64() * 1e6);
            tally.turn_bytes.push(bytes as f64);
            Ok(())
        }
        other => Err(format!("unexpected turn reply {other:?}")),
    }
}

fn read(stream: &mut TcpStream, tally: &mut Tally) -> Result<Vec<SessionEvent>, String> {
    tally.outcomes.attempted += 1;
    let t = Instant::now();
    let (response, bytes) = {
        let _s = trace::span("request.read");
        exchange(stream, &ClientRequest::Transcript).map_err(|e| format!("transcript: {e}"))?
    };
    match response {
        ServerResponse::TranscriptDump { events } => {
            tally.read_us.push(t.elapsed().as_secs_f64() * 1e6);
            tally.read_bytes.push(bytes as f64);
            Ok(events)
        }
        other => Err(format!("unexpected transcript reply {other:?}")),
    }
}

/// Runs `nproc` closed-loop clients for `window` (sessions in flight at
/// the deadline finish), taking script indices from `next`; returns
/// what they saw and the wall time.
fn load(
    addr: &str,
    mix: Mix,
    seed: u64,
    corpus: &Corpus,
    window: Duration,
    next: &AtomicU64,
    rss: &RssProbe,
) -> (Tally, f64) {
    let started = Instant::now();
    let deadline = started + window;
    let merged = Mutex::new(Tally::default());
    std::thread::scope(|scope| {
        for _ in 0..nproc() {
            scope.spawn(|| {
                let mut tally = Tally::default();
                while Instant::now() < deadline {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    let script = mix.script(seed, idx, corpus);
                    match play(addr, mix, idx, &script, &mut tally) {
                        Ok(true) => rss.note_session(),
                        Ok(false) => tally.outcomes.rejected += 1,
                        Err(e) => {
                            eprintln!("perfbench: session {idx} failed: {e}");
                            tally.outcomes.failed += 1;
                        }
                    }
                }
                merged
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .merge(tally);
            });
        }
    });
    let wall = started.elapsed().as_secs_f64();
    (
        merged.into_inner().unwrap_or_else(PoisonError::into_inner),
        wall,
    )
}

/// Reads the primary's peak RSS once a fixed number of sessions have
/// completed: the in-memory store keeps every closed session's ops, so a
/// reading at the end of a timed window would grow with throughput.
struct RssProbe {
    pid: u32,
    after: u64,
    sessions: AtomicU64,
    value: Mutex<Option<Result<f64, String>>>,
}

impl RssProbe {
    fn new(pid: u32, mix: Mix) -> RssProbe {
        RssProbe {
            pid,
            after: match mix {
                Mix::Churn => 200,
                Mix::Durable => 25,
            },
            sessions: AtomicU64::new(0),
            value: Mutex::new(None),
        }
    }

    fn note_session(&self) {
        if self.sessions.fetch_add(1, Ordering::SeqCst) + 1 == self.after {
            self.read();
        }
    }

    fn read(&self) {
        let mut value = self.value.lock().unwrap_or_else(PoisonError::into_inner);
        if value.is_none() {
            *value = Some(crate::peak_rss_mb(&self.pid.to_string()));
        }
    }

    /// The reading (taken now if the session count was never reached).
    fn mb(&self) -> Result<f64, String> {
        self.read();
        self.value
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
            .expect("read() stores a reading")
    }
}

/// End-to-end figures of one load window: each mix's headline — session
/// opens on `serve-churn`, Ask/Feedback turns on `serve-durable`.
fn e2e(mix: Mix, tally: &Tally, wall: f64) -> Vec<(&'static str, f64)> {
    let (done, latencies) = match mix {
        Mix::Churn => (tally.sessions as f64, &tally.open_us),
        Mix::Durable => (tally.turn_us.len() as f64, &tally.turn_us),
    };
    vec![
        ("throughput_per_s", stats::ratio(done, wall)),
        ("p50_ms", stats::median(latencies) / 1e3),
    ]
}

/// The detailed figures of one load window (opens, turns, reads).
fn detail(tally: &Tally, wall: f64, out: &mut Output) {
    let turns = stats::sorted(tally.turn_us.clone());
    let opens = stats::sorted(tally.open_us.clone());
    let reads = stats::sorted(tally.read_us.clone());
    let p50 = |s: &[f64]| stats::nearest_rank(s, 50.0).unwrap_or(0.0) / 1e3;
    let tail = |s: &[f64]| stats::tail(s).map_or(0.0, |t| t.value / 1e3);
    out.layers.extend([
        ("sessions_per_s", stats::ratio(tally.sessions as f64, wall)),
        ("turns_per_s", stats::ratio(turns.len() as f64, wall)),
        ("open_p50_ms", p50(&opens)),
        ("open_tail_ms", tail(&opens)),
        ("turn_p50_ms", p50(&turns)),
        ("turn_tail_ms", tail(&turns)),
        ("read_p50_ms", p50(&reads)),
        ("read_tail_ms", tail(&reads)),
    ]);
    out.notes
        .push(("open_tail_ms".into(), tail_note(&opens, 1e-3)));
    out.notes
        .push(("turn_tail_ms".into(), tail_note(&turns, 1e-3)));
    out.notes
        .push(("read_tail_ms".into(), tail_note(&reads, 1e-3)));
    out.notes
        .push(("sessions".into(), serde_json::json!(tally.sessions)));
}

// ---------------------------------------------------------------------
// In-process replay
// ---------------------------------------------------------------------

/// The daemon's own session stack, built in-process.
struct World {
    corpus: Corpus,
    assistant: Assistant,
}

impl World {
    fn new() -> World {
        let corpus = serve_corpus();
        let assistant = Assistant::for_corpus(&corpus, SimLlm::new(LlmConfig::default()), 3);
        World { corpus, assistant }
    }

    /// The corpus example a question resolves to. The daemon tries the
    /// exact text first, and scripts only ask corpus questions.
    fn example_idx(&self, question: &str) -> Result<usize, String> {
        self.corpus
            .examples
            .iter()
            .position(|e| e.question.eq_ignore_ascii_case(question))
            .ok_or_else(|| format!("script question not in the corpus: {question}"))
    }

    /// Replays one script through `Session::ask`/`give_feedback` exactly
    /// as a daemon connection does; returns the transcript digest.
    fn replay(&self, script: &Script, cache: &mut CacheStats) -> Result<u64, String> {
        let config = ServeConfig::default();
        let (backend, mut session) = {
            let _s = trace::span("session.open");
            let backend = chaos_stack(&self.assistant.llm, config.fault_rate, config.retry_budget);
            backend.begin_session();
            let session = Session::new(
                &self.corpus.databases[0],
                self.assistant.clone(),
                config.strategy,
            )
            .semantic_cache(config.semantic_cache);
            (backend, session)
        };
        for (question, feedbacks) in script {
            let example = self.corpus.examples[self.example_idx(question)?].clone();
            session.db = self.corpus.database(&example);
            {
                let _s = trace::span("session.ask");
                session.ask(&example);
            }
            for text in feedbacks {
                let _s = trace::span("session.feedback");
                session.give_feedback(&backend, &example, text, None);
            }
        }
        let stats = session.cache_stats();
        cache.hits += stats.hits;
        cache.misses += stats.misses;
        Ok(transcript_digest(session.events()))
    }
}

/// Checks every completed session's digest against the replay.
fn check_digests(
    world: &World,
    mix: Mix,
    seed: u64,
    tally: &Tally,
    out: &mut Output,
) -> CacheStats {
    let mut cache = CacheStats::default();
    for &(idx, digest) in &tally.digests {
        out.outcomes.attempted += 1;
        let script = mix.script(seed, idx, &world.corpus);
        match world.replay(&script, &mut cache) {
            Ok(d) if d == digest => {}
            Ok(_) => out.outcomes.wrong += 1,
            Err(e) => {
                eprintln!("perfbench: replay of session {idx} failed: {e}");
                out.outcomes.wrong += 1;
            }
        }
    }
    cache
}

/// The store and replication replay of `serve-durable`: the same op
/// sequence through an in-process [`SessionStore`] under `--fsync each`,
/// quorum-gated over an in-process acceptor/follower pair.
fn store_replay(
    dir: &Path,
    mix: Mix,
    seed: u64,
    tally: &Tally,
    world: &World,
) -> Result<StoreFigures, String> {
    let fingerprint = ServeConfig::default().fingerprint();
    let open = |name: &str| -> Result<Arc<SessionStore>, String> {
        SessionStore::open(
            Some(&dir.join(name)),
            StoreOptions::new(fingerprint).fsync(FsyncPolicy::EachRecord),
        )
        .map(Arc::new)
        .map_err(|e| format!("replay store: {e}"))
    };
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let primary_store = open("replay-primary.fjnl")?;
    let follower_store = open("replay-follower.fjnl")?;
    let primary = ReplState::new(Arc::clone(&primary_store), false, AckMode::Quorum, 5_000);
    let follower = ReplState::new(follower_store, true, AckMode::None, 5_000);
    let listener = TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.set_nonblocking(true).map(|()| l))
        .map_err(|e| format!("replay listener: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    let running = Arc::new(AtomicBool::new(true));
    let figures = std::thread::scope(|scope| {
        let acceptor = {
            let (repl, running) = (Arc::clone(&primary), Arc::clone(&running));
            scope.spawn(move || run_repl_acceptor(listener, repl, running, fingerprint))
        };
        let follow = scope.spawn(|| run_follower(&addr, &follower, &running, fingerprint, false));
        let result = drive_store(&primary_store, &primary, &running, mix, seed, tally, world);
        running.store(false, Ordering::SeqCst);
        let _ = acceptor.join();
        let _ = follow.join();
        result
    })?;
    let bytes = std::fs::metadata(dir.join("replay-primary.fjnl")).map_or(0, |m| m.len());
    Ok(StoreFigures { bytes, ..figures })
}

#[derive(Default)]
struct StoreFigures {
    turns: u64,
    appends: u64,
    bytes: u64,
    shipped: u64,
    ack_timeouts: u64,
}

fn drive_store(
    store: &SessionStore,
    repl: &ReplState,
    running: &AtomicBool,
    mix: Mix,
    seed: u64,
    tally: &Tally,
    world: &World,
) -> Result<StoreFigures, String> {
    let deadline = Instant::now() + SETTLE;
    while repl.log.followers() == 0 {
        if Instant::now() >= deadline {
            return Err("replay follower never registered".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut figures = StoreFigures::default();
    let append = |op: Option<(u64, SessionOp)>,
                  figures: &mut StoreFigures|
     -> Result<u64, String> {
        let (id, upto) = {
            let _s = trace::span("store.append");
            match op {
                None => {
                    let (id, _, upto) = store.open_session_tracked().map_err(|e| e.to_string())?;
                    (id, upto)
                }
                Some((id, op)) => (id, store.append_tracked(id, op).1),
            }
        };
        figures.appends += 1;
        let _s = trace::span("replicate.gate");
        repl.quorum_gate(upto, running);
        Ok(id)
    };
    for &(idx, _) in &tally.digests {
        if figures.turns >= STORE_REPLAY_TURNS {
            break;
        }
        let script = mix.script(seed, idx, &world.corpus);
        let id = append(None, &mut figures)?;
        for (question, feedbacks) in &script {
            let example_idx = world.example_idx(question)? as u64;
            let ask = SessionOp::Ask {
                example_idx,
                question: question.clone(),
            };
            append(Some((id, ask)), &mut figures)?;
            figures.turns += 1;
            for text in feedbacks {
                let feedback = SessionOp::Feedback {
                    text: text.clone(),
                    highlight: None,
                };
                append(Some((id, feedback)), &mut figures)?;
                figures.turns += 1;
            }
        }
        append(Some((id, SessionOp::Closed)), &mut figures)?;
    }
    figures.shipped = repl.log.shipped();
    figures.ack_timeouts = repl.ack_timeouts();
    Ok(figures)
}

// ---------------------------------------------------------------------
// The workload
// ---------------------------------------------------------------------

/// Post-run daemon checks: on `serve-durable` no ack timed out, the gate
/// never degraded, and the follower caught up.
fn check_end_state(addr: &str, mix: Mix, out: &mut Output) -> Result<ServerStats, String> {
    let mut stats = request_stats(addr).map_err(|e| format!("stats: {e}"))?;
    if mix == Mix::Durable {
        let deadline = Instant::now() + Duration::from_secs(5);
        while stats.replication_lag_records > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
            stats = request_stats(addr).map_err(|e| format!("stats: {e}"))?;
        }
        let checks = [
            stats.repl_ack_timeouts == 0,
            !stats.repl_ack_degraded,
            stats.replication_lag_records == 0,
        ];
        out.outcomes.attempted += checks.len() as u64;
        out.outcomes.wrong += checks.iter().filter(|ok| !**ok).count() as u64;
        out.notes.push((
            "replication_end_state".into(),
            serde_json::json!({
                "ack_timeouts": stats.repl_ack_timeouts,
                "ack_degraded": stats.repl_ack_degraded,
                "lag_records": stats.replication_lag_records,
                "followers": stats.repl_followers,
            }),
        ));
    }
    Ok(stats)
}

/// Runs the workload.
pub fn run(args: &Args, mix: Mix) -> Result<Output, String> {
    let fisql = args
        .fisql
        .as_deref()
        .ok_or("--fisql <path to the fisql binary> is required for serve workloads")?;
    let scratch = crate::Scratch::new(args)?;
    let mut out = Output::default();

    let mut setups = Vec::new();
    let mut cluster = None;
    for rep in 0..SETUP_REPS {
        drop(cluster.take());
        let (started, secs) = start(fisql, mix, scratch.path().join(format!("setup-{rep}")))?;
        setups.push(secs);
        cluster = Some(started);
    }
    let cluster = cluster.expect("at least one set-up ran");
    let setup = stats::median(&setups);
    out.e2e.push(("setup_s", setup));
    out.layers.push(("server.spawn_to_ready_s", setup));

    let corpus = serve_corpus();
    let addr = cluster.primary().addr.clone();
    let next = AtomicU64::new(0);
    let rss = RssProbe::new(cluster.primary().pid(), mix);
    let window = if args.trace {
        args.window() / 2
    } else {
        args.window()
    };
    let (tally, wall) = load(&addr, mix, args.seed, &corpus, window, &next, &rss);
    out.e2e.extend(e2e(mix, &tally, wall));
    detail(&tally, wall, &mut out);

    let mut traced = None;
    if args.trace {
        trace::enable(true);
        let m = trace::mark();
        let (t, w) = load(&addr, mix, args.seed, &corpus, window, &next, &rss);
        trace::enable(false);
        out.e2e_traced.extend(e2e(mix, &t, w));
        traced = Some((t, m));
    }

    let stats = check_end_state(&addr, mix, &mut out)?;
    out.layers.push((
        "admission.queued_share",
        stats::ratio(
            stats.admission.admitted_queued as f64,
            stats.sessions_opened as f64,
        ),
    ));
    out.e2e.push(("peak_rss_mb", rss.mb()?));
    out.notes.push((
        "peak_rss_after_sessions".into(),
        serde_json::json!(rss.after),
    ));
    cluster.stop();

    let world = World::new();
    let mut all = tally;
    if let Some((t, _)) = &traced {
        all.digests.extend(t.digests.iter().copied());
        all.outcomes.merge(t.outcomes);
    }
    if let Some((t, m)) = traced {
        trace::enable(true);
        let replay_mark = trace::mark();
        let cache = check_digests(&world, mix, args.seed, &all, &mut out);
        let store = if mix == Mix::Durable {
            Some(store_replay(
                &scratch.path().join("replay"),
                mix,
                args.seed,
                &all,
                &world,
            )?)
        } else {
            None
        };
        trace::enable(false);
        layer_figures(&t, m, replay_mark, cache, store, &mut out);
        crate::write_spans(args);
    } else {
        check_digests(&world, mix, args.seed, &all, &mut out);
    }
    out.outcomes.merge(all.outcomes);
    Ok(out)
}

/// Per-layer figures from the traced load window (client spans, from
/// `load_mark`) and the replay (from `replay_mark`).
fn layer_figures(
    traced: &Tally,
    load_mark: usize,
    replay_mark: usize,
    cache: CacheStats,
    store: Option<StoreFigures>,
    out: &mut Output,
) {
    let client = trace::since(load_mark);
    let replay: Vec<_> = client[replay_mark - load_mark..].to_vec();
    let client = &client[..replay_mark - load_mark];
    let p50 = |spans: &[trace::SpanRec], name: &str| stats::median(&trace::durations(spans, name));
    let tail = |spans: &[trace::SpanRec], name: &str| {
        stats::tail(&stats::sorted(trace::durations(spans, name))).map_or(0.0, |t| t.value)
    };
    let connect = p50(client, "client.connect");
    let encode = p50(client, "protocol.encode");
    let decode = p50(client, "protocol.decode");
    let session_open = p50(&replay, "session.open");
    let mut turn_spans = trace::durations(&replay, "session.ask");
    turn_spans.extend(trace::durations(&replay, "session.feedback"));
    let session_turn = stats::median(&turn_spans);
    let append = p50(&replay, "store.append");
    let gate = p50(&replay, "replicate.gate");
    let open_p50 = stats::median(&traced.open_us);
    let turn_p50 = stats::median(&traced.turn_us);
    let store = store.unwrap_or_default();
    let per_turn = |n: u64| stats::ratio(n as f64, store.turns as f64);
    out.layers.extend([
        ("client.connect_us", connect),
        ("server.handshake_us", p50(client, "server.handshake")),
        (
            "server.unattributed_us_per_open",
            open_p50 - (connect + encode + decode + session_open + append + gate),
        ),
        (
            "server.unattributed_us_per_turn",
            turn_p50 - (encode + decode + session_turn + append + gate),
        ),
        ("protocol.encode_us", encode),
        ("protocol.decode_us", decode),
        ("protocol.turn_bytes", stats::mean(&traced.turn_bytes)),
        ("protocol.read_bytes", stats::mean(&traced.read_bytes)),
        ("session.ask_us", p50(&replay, "session.ask")),
        ("session.feedback_us", p50(&replay, "session.feedback")),
        ("session.cache_hit_rate", cache.hit_rate()),
        ("store.append_us_p50", append),
        ("store.append_us_tail", tail(&replay, "store.append")),
        // `--fsync each` syncs once per append.
        ("store.fsyncs_per_turn", per_turn(store.appends)),
        ("store.bytes_per_turn", per_turn(store.bytes)),
        ("replicate.gate_wait_us_p50", gate),
        (
            "replicate.gate_wait_us_tail",
            tail(&replay, "replicate.gate"),
        ),
        ("replicate.records_per_turn", per_turn(store.shipped)),
        ("replicate.ack_timeouts", store.ack_timeouts as f64),
    ]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use fisql_core::serve::build_scripts;
    use fisql_core::{LoadConfig, Server};

    #[test]
    fn churn_scripts_equal_the_load_generators() {
        let corpus = serve_corpus();
        let config = LoadConfig {
            sessions: 64,
            seed: 0x5EED,
            ..LoadConfig::default()
        };
        let expected = build_scripts(&config, &corpus);
        for (i, script) in expected.iter().enumerate() {
            assert_eq!(
                Mix::Churn.script(config.seed, i as u64, &corpus),
                script.questions
            );
        }
    }

    #[test]
    fn durable_scripts_are_long_and_seeded() {
        let corpus = serve_corpus();
        let a = Mix::Durable.script(7, 3, &corpus);
        assert_eq!(a, Mix::Durable.script(7, 3, &corpus));
        assert_ne!(a, Mix::Durable.script(8, 3, &corpus));
        assert!((6..=10).contains(&a.len()));
        assert!(a.iter().all(|(_, f)| (1..=3).contains(&f.len())));
    }

    #[test]
    fn replay_digest_equals_the_daemons_on_a_tiny_script() {
        let server = Server::bind(ServeConfig::default().port(0)).expect("bind");
        let handle = server.handle().expect("handle");
        let addr = handle.addr().to_string();
        let daemon = std::thread::spawn(move || server.serve());
        let world = World::new();
        let mut tally = Tally::default();
        for mix in [Mix::Churn, Mix::Durable] {
            let script: Script = vec![
                (
                    world.corpus.examples[3].question.clone(),
                    vec!["we are in 2024".into()],
                ),
                (
                    world.corpus.examples[5].question.clone(),
                    vec![
                        "sort by the count".into(),
                        "count them instead of listing".into(),
                    ],
                ),
            ];
            assert_eq!(play(&addr, mix, 0, &script, &mut tally), Ok(true));
            let (_, digest) = tally.digests.pop().expect("a completed session");
            let replayed = world
                .replay(&script, &mut CacheStats::default())
                .expect("replay");
            assert_eq!(digest, replayed, "{mix:?}");
        }
        assert_eq!(tally.turn_us.len(), 10);
        assert_eq!(tally.read_us.len(), 3);
        handle.shutdown();
        daemon.join().expect("daemon thread").expect("clean drain");
    }
}
