//! The deterministic kill-the-primary harness.
//!
//! [`run_failover`] stages the whole failover story in one process:
//!
//! 1. **Baseline** — a single fresh daemon serves the seeded load
//!    scripts to completion; its order-insensitive transcript digest is
//!    the ground truth an unfailed run produces.
//! 2. **HA pair** — a primary (`--repl-listen`) and a follower
//!    (`--replica-of`) boot on ephemeral ports with separate stores;
//!    the same scripts run through [`FailoverClient`]s holding the
//!    `[primary, follower]` endpoint list.
//! 3. **Kill** — the scripted [`KillPoint`] is armed in the primary,
//!    which checks it after every Ask and Feedback and [`abort`]s
//!    itself from inside the turn that reaches it: no farewells, no
//!    in-flight responses, connections just see their peer vanish — the
//!    in-process equivalent of `kill -9`. Because the primary fires the
//!    kill at an exact count, before that turn's response is written,
//!    it always lands under a live session, however fast the load
//!    runs.
//! 4. **Verdict** — clients fail over to the follower (which
//!    self-promotes on link loss), finish their scripts, and the
//!    harness compares the HA digest against the baseline. Under
//!    `--repl-ack quorum` they must be identical and no acknowledged
//!    round may be lost.
//!
//! Everything is seeded: the scripts, the corpus, and the pipeline are
//! pure functions of the configuration, so the only nondeterminism is
//! scheduling — which the order-insensitive digest absorbs.
//!
//! [`abort`]: super::server::ServerHandle::abort

use super::client::request_stats;
use super::loadgen::{run_load, LoadReport};
use super::protocol::ServerStats;
use super::replicate::ReplState;
use super::server::{Server, ServerHandle};
use super::store::SessionStore;
use crate::config::{LoadConfig, ServeConfig};
use std::io;
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// When the harness kills the primary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillPoint {
    /// After the primary has served this many feedback rounds — a kill
    /// in the thick of normal traffic.
    AfterRounds(u64),
    /// At a replication-lag boundary: shipping is paused until at least
    /// one appended record is pending, then the primary dies with the
    /// follower provably behind. With `--repl-ack none` this is the
    /// scenario that loses acknowledged rounds.
    LagBoundary,
    /// After the primary's store has compacted at least once — the kill
    /// lands on a store whose journal was rewritten mid-stream.
    DuringCompaction,
}

impl KillPoint {
    /// Whether a primary that has served `rounds_served` feedback
    /// rounds has reached this point. The primary evaluates it after
    /// every Ask and Feedback (see [`ServerHandle::arm_kill`]); the
    /// lag boundary pauses shipping as soon as the first round is in,
    /// so the next append leaves the follower provably behind.
    pub(crate) fn reached(
        self,
        rounds_served: u64,
        repl: &ReplState,
        store: &SessionStore,
    ) -> bool {
        match self {
            KillPoint::AfterRounds(rounds) => rounds_served >= rounds,
            KillPoint::LagBoundary => {
                if rounds_served == 0 {
                    return false;
                }
                repl.log.hold(true);
                repl.log.lag() > 0
            }
            KillPoint::DuringCompaction => store.snapshot().compactions >= 1,
        }
    }
}

/// Configuration for one failover run.
#[derive(Debug, Clone)]
pub struct FailoverConfig {
    /// Base daemon configuration. The harness overrides the port (to
    /// ephemeral), the store path (one per node), and the replication
    /// wiring; everything else — seed, strategy, ack mode, compaction
    /// cadence — is taken as given.
    pub serve: ServeConfig,
    /// Store paths for the three daemons the harness boots.
    pub baseline_store: PathBuf,
    /// Primary's store path.
    pub primary_store: PathBuf,
    /// Follower's store path.
    pub follower_store: PathBuf,
    /// Scripted sessions per run.
    pub sessions: usize,
    /// Concurrent client threads.
    pub concurrency: usize,
    /// Feedback rounds per session (upper bound).
    pub max_rounds: usize,
    /// Script seed.
    pub load_seed: u64,
    /// When to kill the primary.
    pub kill: KillPoint,
    /// Per-client budget for one re-attach (covers promotion).
    pub reattach_budget_ms: u64,
}

/// What one failover run proved.
#[derive(Debug, Clone)]
pub struct FailoverReport {
    /// The unfailed single-daemon run.
    pub baseline: LoadReport,
    /// The run that survived the kill.
    pub ha: LoadReport,
    /// Whether the two transcript digests are byte-identical.
    pub digests_match: bool,
    /// Endpoint failovers performed (≥ 1 when the kill landed under
    /// active sessions).
    pub failovers: u64,
    /// Acknowledged rounds the promoted follower had never seen.
    pub lost_rounds: u64,
    /// The survivor's statistics after the load drained.
    pub survivor: Option<ServerStats>,
    /// The killed primary's exit summary.
    pub primary_summary: ServerStats,
    /// The survivor's exit summary.
    pub survivor_summary: ServerStats,
}

/// One booted daemon and the thread that will yield its exit summary.
struct Node {
    addr: String,
    handle: ServerHandle,
    thread: JoinHandle<io::Result<ServerStats>>,
}

fn boot(config: ServeConfig) -> io::Result<(Node, Option<std::net::SocketAddr>)> {
    let server = Server::bind(config)?;
    let handle = server.handle()?;
    let repl_addr = server.repl_addr();
    let addr = handle.addr().to_string();
    let thread = std::thread::spawn(move || server.serve());
    Ok((
        Node {
            addr,
            handle,
            thread,
        },
        repl_addr,
    ))
}

fn join_node(node: Node) -> io::Result<ServerStats> {
    node.handle.shutdown();
    node.thread
        .join()
        .map_err(|_| io::Error::other("server thread panicked"))?
}

fn load_config(config: &FailoverConfig, addr: String) -> LoadConfig {
    LoadConfig {
        addr,
        sessions: config.sessions,
        concurrency: config.concurrency,
        max_rounds: config.max_rounds,
        seed: config.load_seed,
        corpus_seed: config.serve.seed,
        n_examples: config.serve.n_examples,
        shutdown: false,
        connect_retry_ms: config.reattach_budget_ms,
    }
}

/// Stages baseline + HA pair + kill and reports (see the module docs).
pub fn run_failover(config: &FailoverConfig) -> io::Result<FailoverReport> {
    // ---- Baseline: one fresh daemon, no replication, same scripts.
    let base_serve = config
        .serve
        .clone()
        .port(0)
        .store(&config.baseline_store)
        .replication_off();
    let (baseline_node, _) = boot(base_serve)?;
    let baseline = run_load(&load_config(config, baseline_node.addr.clone()))?;
    join_node(baseline_node)?;

    // ---- HA pair: primary ships to one follower.
    let primary_serve = config
        .serve
        .clone()
        .port(0)
        .store(&config.primary_store)
        .replication_off()
        .repl_listen("127.0.0.1:0")
        .repl_ack(config.serve.repl_ack)
        .repl_ack_timeout_ms(config.serve.repl_ack_timeout_ms);
    let (primary, repl_addr) = boot(primary_serve)?;
    let repl_addr = repl_addr.ok_or_else(|| io::Error::other("primary bound no repl listener"))?;
    let follower_serve = config
        .serve
        .clone()
        .port(0)
        .store(&config.follower_store)
        .replication_off()
        .replica_of(repl_addr.to_string());
    let (follower, _) = boot(follower_serve)?;

    // The kill is only meaningful once the follower is attached and
    // caught up enough to matter; wait for the link.
    wait_until(Duration::from_secs(10), || {
        primary.handle.repl().log.followers() > 0
    })
    .map_err(|()| io::Error::other("follower never attached to the primary"))?;

    // ---- Load against [primary, follower], kill mid-flight.
    primary.handle.arm_kill(config.kill);
    let endpoints = format!("{},{}", primary.addr, follower.addr);
    let ha = run_load(&load_config(config, endpoints))?;
    // A load too short to reach the kill point leaves the primary up
    // (and the report shows no failover); stop it so it can be joined.
    primary.handle.abort();

    // ---- Verdict.
    let survivor = request_stats(&follower.addr).ok();
    let primary_summary = primary
        .thread
        .join()
        .map_err(|_| io::Error::other("primary thread panicked"))??;
    let survivor_summary = join_node(follower)?;
    Ok(FailoverReport {
        digests_match: ha.digest == baseline.digest,
        failovers: ha.failovers,
        lost_rounds: ha.lost_rounds,
        baseline,
        ha,
        survivor,
        primary_summary,
        survivor_summary,
    })
}

/// Polls `done` every 10 ms until it returns true or `budget` elapses.
fn wait_until(budget: Duration, mut done: impl FnMut() -> bool) -> Result<(), ()> {
    let deadline = Instant::now() + budget;
    loop {
        if done() {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err(());
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}
