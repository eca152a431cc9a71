//! Hot-standby failover tests: journal shipping to a follower, fenced
//! failover, and clients that survive a dying primary — all against
//! real daemons on real sockets, killed without farewell mid-load.

use fisql_core::serve::{
    request_promote, request_stats, run_failover, AckMode, ClientRequest, Connected,
    FailoverConfig, KillPoint, Role, ServeClient, Server, ServerHandle, ServerResponse,
    ServerStats, SessionStore, StoreOptions,
};
use fisql_core::ServeConfig;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn temp_store(tag: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("fisql-failover-{}-{tag}.fjnl", std::process::id()));
    std::fs::remove_file(&path).ok();
    path
}

/// A small, fast serving configuration on an ephemeral port.
fn test_config() -> ServeConfig {
    ServeConfig::default().port(0).n_examples(24)
}

struct Node {
    addr: String,
    repl_addr: Option<SocketAddr>,
    handle: ServerHandle,
    thread: JoinHandle<ServerStats>,
}

fn boot(config: ServeConfig) -> Node {
    let server = Server::bind(config).expect("bind");
    let handle = server.handle().expect("handle");
    let addr = handle.addr().to_string();
    let repl_addr = server.repl_addr();
    let thread = std::thread::spawn(move || server.serve().expect("serve loop"));
    Node {
        addr,
        repl_addr,
        handle,
        thread,
    }
}

fn stop(node: Node) -> ServerStats {
    node.handle.shutdown();
    node.thread.join().expect("server thread")
}

fn admitted(connected: Connected) -> ServeClient {
    match connected {
        Connected::Admitted(client) => client,
        Connected::Rejected { reason, .. } => panic!("rejected: {reason}"),
        Connected::ShuttingDown => panic!("daemon shutting down"),
        Connected::Fenced { message, .. } => panic!("fenced: {message}"),
    }
}

fn wait_for(what: &str, budget: Duration, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + budget;
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Boots a primary/follower pair on ephemeral ports and waits for the
/// replication link.
fn boot_pair(base: &ServeConfig, tag: &str, auto_promote: bool) -> (Node, Node, PathBuf, PathBuf) {
    let p_store = temp_store(&format!("{tag}-p"));
    let f_store = temp_store(&format!("{tag}-f"));
    let primary = boot(base.clone().store(&p_store).repl_listen("127.0.0.1:0"));
    let repl = primary.repl_addr.expect("repl listener bound");
    let follower = boot(
        base.clone()
            .store(&f_store)
            .replica_of(repl.to_string())
            .auto_promote(auto_promote),
    );
    wait_for("follower to attach", Duration::from_secs(10), || {
        primary.handle.repl().log.followers() > 0
    });
    (primary, follower, p_store, f_store)
}

// ---------------------------------------------------------------------
// The tentpole: kill the primary mid-load, client survives.
// ---------------------------------------------------------------------

#[test]
fn quorum_failover_mid_load_loses_no_acknowledged_round() {
    let config = FailoverConfig {
        serve: test_config()
            .repl_ack(AckMode::Quorum)
            .repl_ack_timeout_ms(5_000),
        baseline_store: temp_store("quorum-base"),
        primary_store: temp_store("quorum-p"),
        follower_store: temp_store("quorum-f"),
        sessions: 24,
        concurrency: 4,
        max_rounds: 2,
        load_seed: 0xFA11,
        kill: KillPoint::AfterRounds(2),
        reattach_budget_ms: 20_000,
    };
    let report = run_failover(&config).expect("failover run");

    assert!(
        report.failovers >= 1,
        "the kill must land under active sessions: {report:?}"
    );
    assert_eq!(
        report.lost_rounds, 0,
        "quorum acks must not lose an acknowledged round"
    );
    assert_eq!(report.ha.sessions_failed, 0, "{report:?}");
    assert_eq!(report.ha.sessions_completed as usize, config.sessions);
    assert!(
        report.digests_match,
        "resumed transcripts must be byte-identical to the unfailed run: \
         baseline {:#x} vs ha {:#x}",
        report.baseline.digest, report.ha.digest
    );
    let survivor = report.survivor.expect("survivor stats");
    assert_eq!(survivor.role, Role::Primary, "follower promoted itself");
    assert!(survivor.epoch >= 1, "promotion bumps the fencing epoch");
}

#[test]
fn quorum_failover_during_compaction_keeps_the_story_straight() {
    let config = FailoverConfig {
        serve: test_config()
            .repl_ack(AckMode::Quorum)
            .repl_ack_timeout_ms(5_000)
            .compact_every(2),
        baseline_store: temp_store("compact-base"),
        primary_store: temp_store("compact-p"),
        follower_store: temp_store("compact-f"),
        sessions: 20,
        concurrency: 4,
        max_rounds: 2,
        load_seed: 0xC0AC,
        kill: KillPoint::DuringCompaction,
        reattach_budget_ms: 20_000,
    };
    let report = run_failover(&config).expect("failover run");

    assert_eq!(report.lost_rounds, 0);
    assert_eq!(report.ha.sessions_failed, 0, "{report:?}");
    assert_eq!(report.ha.sessions_completed as usize, config.sessions);
    assert!(report.digests_match);
    let survivor = report.survivor.expect("survivor stats");
    assert_eq!(survivor.role, Role::Primary);
}

#[test]
fn lag_boundary_kill_with_async_acks_completes_and_accounts_losses() {
    let config = FailoverConfig {
        serve: test_config(), // --repl-ack none: shipping is async
        baseline_store: temp_store("lag-base"),
        primary_store: temp_store("lag-p"),
        follower_store: temp_store("lag-f"),
        sessions: 16,
        concurrency: 4,
        max_rounds: 2,
        load_seed: 0x1A6B,
        kill: KillPoint::LagBoundary,
        reattach_budget_ms: 20_000,
    };
    let report = run_failover(&config).expect("failover run");

    // Every script still completes — the client absorbs the kill.
    assert_eq!(report.ha.sessions_failed, 0, "{report:?}");
    assert_eq!(report.ha.sessions_completed as usize, config.sessions);
    assert!(report.failovers >= 1, "{report:?}");
    // Async acks may or may not lose rounds at the lag boundary
    // (timing), but the accounting must be coherent: an intact run has
    // an intact digest.
    if report.lost_rounds == 0 {
        assert!(report.digests_match, "{report:?}");
    }
}

#[test]
fn a_promoted_follower_never_reissues_an_unreplicated_session_id() {
    let base = test_config();
    let (primary, follower, _p_store, _f_store) = boot_pair(&base, "id-reuse", false);
    let corpus = fisql_spider::build_aep(&fisql_spider::AepConfig {
        n_examples: base.n_examples,
        seed: base.seed,
    });

    // Shipping paused: this session's records never reach the follower.
    primary.handle.repl().log.hold(true);
    let mut doomed = admitted(
        ServeClient::connect_retry(primary.addr.as_str(), None, Duration::from_secs(10))
            .expect("connect"),
    );
    doomed.ask(&corpus.examples[0].question).expect("ask");
    let doomed_id = doomed.session_id;
    primary.handle.abort();
    request_promote(follower.addr.as_str()).expect("promote follower");

    // A fresh conversation on the promoted node must not inherit the
    // dead primary's id: the doomed client would otherwise resume into
    // it and continue a stranger's transcript as its own.
    let mut fresh = admitted(
        ServeClient::connect_retry(follower.addr.as_str(), None, Duration::from_secs(10))
            .expect("connect to the promoted follower"),
    );
    assert_ne!(fresh.session_id, doomed_id);
    fresh.ask(&corpus.examples[1].question).expect("ask");
    match ServeClient::connect(follower.addr.as_str(), Some(doomed_id)) {
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::NotFound, "{e}"),
        Ok(_) => panic!("resumed session {doomed_id}, which the follower never saw"),
    }
    fresh.bye().expect("bye");

    stop(follower);
    primary.thread.join().expect("primary thread");
}

// ---------------------------------------------------------------------
// Fencing: a deposed primary refuses writes with a typed rejection.
// ---------------------------------------------------------------------

#[test]
fn fenced_ex_primary_refuses_writes_with_a_typed_rejection() {
    let base = test_config();
    let (primary, follower, _p_store, _f_store) = boot_pair(&base, "fence", false);

    // A live conversation on the primary, pre-coup.
    let corpus = fisql_spider::build_aep(&fisql_spider::AepConfig {
        n_examples: base.n_examples,
        seed: base.seed,
    });
    let mut on_primary = admitted(
        ServeClient::connect_retry(primary.addr.as_str(), None, Duration::from_secs(10))
            .expect("connect"),
    );
    on_primary
        .ask(&corpus.examples[0].question)
        .expect("ask before the coup");

    // Depose it: promote the follower by admin request; the promotion
    // notifies the old primary, which fences itself.
    let epoch = request_promote(follower.addr.as_str()).expect("promote follower");
    assert_eq!(epoch, 1, "first promotion in this lineage");
    wait_for(
        "ex-primary to fence itself",
        Duration::from_secs(10),
        || request_stats(primary.addr.as_str()).is_ok_and(|s| s.role == Role::Fenced),
    );

    // The in-flight session's next write gets a *typed* rejection — and
    // the fenced store must not have journaled anything for it.
    let ops_before = request_stats(primary.addr.as_str())
        .expect("stats")
        .store
        .ops;
    match on_primary
        .request(&ClientRequest::Feedback {
            text: "we are in 2024".to_string(),
            highlight: None,
        })
        .expect("a typed frame, not a transport error")
    {
        ServerResponse::Fenced {
            role,
            epoch,
            message,
        } => {
            assert_eq!(role, Role::Fenced);
            // The frame carries the node's *own* (stale) epoch and
            // names the lineage that deposed it.
            assert_eq!(epoch, 0);
            assert!(message.contains("deposed by epoch 1"), "{message}");
        }
        other => panic!("expected a Fenced frame, got {other:?}"),
    }
    let ops_after = request_stats(primary.addr.as_str())
        .expect("stats")
        .store
        .ops;
    assert_eq!(
        ops_before, ops_after,
        "a fenced node must not append — silent divergence"
    );

    // Fresh sessions are refused at the handshake, and the fenced node
    // cannot be promoted (that would fork history).
    match ServeClient::connect(primary.addr.as_str(), None).expect("connect") {
        Connected::Fenced { role, .. } => assert_eq!(role, Role::Fenced),
        _ => panic!("a fenced node must refuse new sessions"),
    }
    assert!(
        request_promote(primary.addr.as_str()).is_err(),
        "promoting a fenced node would fork history"
    );

    // The promoted follower serves.
    let mut on_new_primary = admitted(
        ServeClient::connect_retry(follower.addr.as_str(), None, Duration::from_secs(10))
            .expect("connect to promoted follower"),
    );
    let turn = on_new_primary
        .ask(&corpus.examples[1].question)
        .expect("the new primary serves");
    assert!(!turn.sql.is_empty());
    on_new_primary.bye().expect("bye");

    stop(primary);
    stop(follower);
}

// ---------------------------------------------------------------------
// Shipping: the follower's store tracks the primary byte-identically.
// ---------------------------------------------------------------------

#[test]
fn follower_store_tracks_the_primary_byte_identically() {
    let base = test_config();
    let (primary, follower, p_store, f_store) = boot_pair(&base, "track", false);
    let corpus = fisql_spider::build_aep(&fisql_spider::AepConfig {
        n_examples: base.n_examples,
        seed: base.seed,
    });

    for i in 0..3 {
        let mut client = admitted(
            ServeClient::connect_retry(primary.addr.as_str(), None, Duration::from_secs(10))
                .expect("connect"),
        );
        client.ask(&corpus.examples[i].question).expect("ask");
        client.feedback("we are in 2024", None).expect("feedback");
        client.bye().expect("bye");
    }

    // Catch up: every shipped record acknowledged, stores the same size.
    wait_for("replication to drain", Duration::from_secs(10), || {
        let p = request_stats(primary.addr.as_str());
        let f = request_stats(follower.addr.as_str());
        match (p, f) {
            (Ok(p), Ok(f)) => p.replication_lag_records == 0 && p.store.ops == f.store.ops,
            _ => false,
        }
    });

    // Graceful shutdown syncs both journals; the follower first so it
    // never observes the dying primary and promotes.
    stop(follower);
    stop(primary);

    let p_bytes = std::fs::read(&p_store).expect("primary journal");
    let f_bytes = std::fs::read(&f_store).expect("follower journal");
    assert_eq!(
        p_bytes, f_bytes,
        "the follower's journal must track the primary's byte-identically"
    );
    assert!(!p_bytes.is_empty());
}

// ---------------------------------------------------------------------
// Resync: a compacted-and-restarted primary renumbers its stream; the
// follower must detect the lineage break and re-bootstrap, not silently
// ack records it never applied.
// ---------------------------------------------------------------------

#[test]
fn follower_resyncs_after_primary_compaction_and_restart() {
    let base = test_config();
    let (primary, follower, p_store, f_store) = boot_pair(&base, "resync", false);
    let corpus = fisql_spider::build_aep(&fisql_spider::AepConfig {
        n_examples: base.n_examples,
        seed: base.seed,
    });

    // Three full conversations, all closed — compaction will drop every
    // one of them and renumber the stream from scratch.
    for i in 0..3 {
        let mut client = admitted(
            ServeClient::connect_retry(primary.addr.as_str(), None, Duration::from_secs(10))
                .expect("connect"),
        );
        client.ask(&corpus.examples[i].question).expect("ask");
        client.feedback("we are in 2024", None).expect("feedback");
        client.bye().expect("bye");
    }
    wait_for("replication to drain", Duration::from_secs(10), || {
        let p = request_stats(primary.addr.as_str());
        let f = request_stats(follower.addr.as_str());
        match (p, f) {
            (Ok(p), Ok(f)) => p.replication_lag_records == 0 && p.store.ops == f.store.ops,
            _ => false,
        }
    });
    let full_ops = request_stats(follower.addr.as_str())
        .expect("follower stats")
        .store
        .ops;
    assert!(full_ops > 0);
    stop(follower);
    stop(primary);

    // Offline compaction: every session is closed, so the rewritten
    // journal keeps nothing — the reborn primary's replication log is a
    // renumbered stream the follower's full copy no longer prefixes.
    {
        let store = SessionStore::open(
            Some(&p_store),
            StoreOptions::new(base.fingerprint()).fsync(fisql_core::FsyncPolicy::EachRecord),
        )
        .expect("reopen primary store");
        let outcome = store.compact().expect("compact");
        assert!(outcome.ops_after < outcome.ops_before, "{outcome:?}");
    }

    let primary = boot(base.clone().store(&p_store).repl_listen("127.0.0.1:0"));
    let repl = primary.repl_addr.expect("repl listener bound");
    let follower = boot(
        base.clone()
            .store(&f_store)
            .replica_of(repl.to_string())
            .auto_promote(false),
    );
    wait_for("follower to re-attach", Duration::from_secs(10), || {
        primary.handle.repl().log.followers() > 0
    });

    // One fresh conversation proves the resynced link ships again.
    let mut client = admitted(
        ServeClient::connect_retry(primary.addr.as_str(), None, Duration::from_secs(10))
            .expect("connect"),
    );
    client.ask(&corpus.examples[3].question).expect("ask");
    client.feedback("we are in 2024", None).expect("feedback");
    client.bye().expect("bye");

    // The follower must converge on exactly the primary's image: the
    // stale full stream wiped, only post-compaction records applied. A
    // count-based resume would instead leave it with its old ops (plus
    // anything re-shipped on top) while still acking.
    wait_for("post-resync convergence", Duration::from_secs(10), || {
        let p = request_stats(primary.addr.as_str());
        let f = request_stats(follower.addr.as_str());
        match (p, f) {
            (Ok(p), Ok(f)) => p.replication_lag_records == 0 && p.store.ops == f.store.ops,
            _ => false,
        }
    });
    let f_stats = request_stats(follower.addr.as_str()).expect("follower stats");
    assert!(
        f_stats.store.ops < full_ops,
        "the follower must have dropped its stale pre-compaction stream \
         ({} ops, was {full_ops})",
        f_stats.store.ops,
    );

    stop(follower);
    stop(primary);
    std::fs::remove_file(&p_store).ok();
    std::fs::remove_file(&f_store).ok();
}

// ---------------------------------------------------------------------
// Epoch records in the store.
// ---------------------------------------------------------------------

#[test]
fn epoch_persists_across_reopen_and_compaction_and_never_regresses() {
    let path = temp_store("epoch");
    let options = || StoreOptions::new(0xE0C).fsync(fisql_core::FsyncPolicy::EachRecord);

    let store = SessionStore::open(Some(&path), options()).expect("open");
    assert_eq!(store.snapshot().epoch, 0);
    let (id, _, _) = store.open_session_tracked().expect("session");
    store.set_epoch(3).expect("set epoch");
    // Lower (or equal) epochs never regress the fence.
    store.set_epoch(1).expect("stale set is a no-op");
    assert_eq!(store.snapshot().epoch, 3);
    drop(store);

    let store = SessionStore::open(Some(&path), options()).expect("reopen");
    assert_eq!(store.snapshot().epoch, 3, "epoch survives restart");
    // Compaction rewrites the journal; the epoch must be re-asserted.
    store
        .append_tracked(id, fisql_core::serve::SessionOp::Closed)
        .0
        .assert_durable();
    store.compact().expect("compact");
    drop(store);

    let store = SessionStore::open(Some(&path), options()).expect("reopen after compact");
    assert_eq!(
        store.snapshot().epoch,
        3,
        "a compaction rewrite must not forget the fencing epoch"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn unreplicated_store_never_writes_epoch_records() {
    // A daemon with no replication wiring must keep its journal format
    // exactly as before: epoch 0 is never journaled, so reopening sees
    // a lineage that was never promoted.
    let path = temp_store("no-epoch");
    let options = || StoreOptions::new(0xABE).fsync(fisql_core::FsyncPolicy::EachRecord);

    let store = SessionStore::open(Some(&path), options()).expect("open");
    let (id, _, _) = store.open_session_tracked().expect("session");
    store
        .append_tracked(
            id,
            fisql_core::serve::SessionOp::Ask {
                example_idx: 0,
                question: "q".to_string(),
            },
        )
        .0
        .assert_durable();
    store
        .append_tracked(id, fisql_core::serve::SessionOp::Closed)
        .0
        .assert_durable();
    store.compact().expect("compact");
    drop(store);

    let store = SessionStore::open(Some(&path), options()).expect("reopen");
    assert_eq!(store.snapshot().epoch, 0);
    std::fs::remove_file(&path).ok();
}

/// Test-side convenience: appends must be durable in these tests.
trait AssertDurable {
    fn assert_durable(self);
}
impl AssertDurable for fisql_core::serve::Appended {
    fn assert_durable(self) {
        match self {
            fisql_core::serve::Appended::Durable => {}
            other @ fisql_core::serve::Appended::Degraded { .. } => {
                panic!("append degraded: {other:?}")
            }
        }
    }
}
