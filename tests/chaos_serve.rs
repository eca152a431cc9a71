//! The network chaos + disk-fault suite: adversarial clients and an
//! unreliable disk against a real daemon on a real socket. The daemon
//! must shed every attacker with a typed frame or a closed socket,
//! return every admission slot, keep healthy sessions byte-identical,
//! and degrade — never die — when the store's disk misbehaves.

use fisql_core::serve::{
    run_chaos, run_load, ChaosBehavior, ChaosConfig, Connected, DiskFaultConfig, ServeClient,
    Server, ServerHandle, ServerStats,
};
use fisql_core::{LoadConfig, ServeConfig, SessionEvent};
use fisql_spider::{build_aep, AepConfig};
use std::thread::JoinHandle;
use std::time::Duration;

fn test_config() -> ServeConfig {
    // The CI chaos job arms the store's deterministic disk-fault lane
    // via FISQL_DISK_FAULT_RATE; locally the lane is off unless a test
    // pins its own rate. Only stored (--store) daemons feel it either
    // way — a memory-only store has nothing to inject into.
    let env_rate = DiskFaultConfig::from_env().map_or(0.0, |c| c.append_rate);
    ServeConfig::default()
        .port(0)
        .n_examples(24)
        .disk_fault_rate(env_rate)
}

fn boot(config: ServeConfig) -> (String, ServerHandle, JoinHandle<ServerStats>) {
    let server = Server::bind(config).expect("bind");
    let handle = server.handle().expect("handle");
    let addr = handle.addr().to_string();
    let thread = std::thread::spawn(move || server.serve().expect("serve loop"));
    (addr, handle, thread)
}

fn stop(handle: &ServerHandle, thread: JoinHandle<ServerStats>) -> ServerStats {
    handle.shutdown();
    thread.join().expect("server thread")
}

fn admitted(connected: Connected) -> ServeClient {
    match connected {
        Connected::Admitted(client) => client,
        Connected::Rejected { reason, .. } => panic!("rejected: {reason}"),
        Connected::ShuttingDown => panic!("daemon shutting down"),
        Connected::Fenced { message, .. } => panic!("fenced: {message}"),
    }
}

#[test]
fn chaos_clients_never_kill_the_daemon_and_every_slot_returns() {
    // Four slots, a deep queue, and a 300 ms idle budget: ten seeded
    // attackers (slowloris, mid-frame disconnects, oversized and
    // garbage frames, silent stalls) all get slots and all lose them.
    let config = test_config()
        .max_sessions(4)
        .queue_depth(16)
        .idle_timeout_ms(300);
    let seed = config.seed;
    let n_examples = config.n_examples;
    let (addr, handle, thread) = boot(config);

    let report = run_chaos(&ChaosConfig {
        addr: addr.clone(),
        clients: 10,
        seed: 0xBAD_5EED,
        byte_pause_ms: 30,
        read_deadline_ms: 20_000,
        connect_retry_ms: 10_000,
        ..ChaosConfig::default()
    })
    .expect("chaos run");
    assert_eq!(report.clients, 10);
    assert_eq!(report.failed, 0, "{report:?}");
    assert_eq!(
        report.admitted + report.rejected,
        10,
        "every client resolved: {report:?}"
    );

    // After the abuse, a normal session still completes on a free slot.
    let corpus = build_aep(&AepConfig { n_examples, seed });
    let mut client =
        admitted(ServeClient::connect_retry(addr.as_str(), None, Duration::from_secs(10)).unwrap());
    let turn = client.ask(&corpus.examples[0].question).expect("ask");
    assert!(!turn.sql.is_empty());
    client.bye().expect("bye");

    let summary = stop(&handle, thread);
    assert_eq!(summary.admission.active, 0, "every slot returned");
    assert_eq!(summary.admission.queued, 0, "no leaked queue entries");
    assert_eq!(summary.contained_panics, 0);
    // Every client-observed reap was a real server-side reap; the server
    // may additionally have reaped attackers whose sockets died before
    // the farewell frame reached them.
    assert!(summary.admission.reaped >= report.reaped);
    assert!(summary.admission.reaped > 0, "{report:?}");
}

#[test]
fn silent_stalls_observe_their_own_typed_reap() {
    // Pin the behavior so the assertion is exact: every attacker stalls
    // after admission, and every one of them is told `Reaped`.
    let config = test_config().max_sessions(3).idle_timeout_ms(200);
    let (addr, handle, thread) = boot(config);

    let report = run_chaos(&ChaosConfig {
        addr,
        clients: 3,
        seed: 0x51AE,
        behaviors: vec![ChaosBehavior::SilentStall],
        read_deadline_ms: 20_000,
        connect_retry_ms: 10_000,
        ..ChaosConfig::default()
    })
    .expect("chaos run");
    assert_eq!(report.admitted, 3, "{report:?}");
    assert_eq!(report.reaped, 3, "{report:?}");
    assert_eq!(report.failed, 0);

    let summary = stop(&handle, thread);
    assert_eq!(summary.admission.reaped, 3);
    assert_eq!(summary.admission.active, 0);
}

#[test]
fn healthy_session_digests_are_unchanged_by_concurrent_chaos() {
    let serve = || {
        test_config()
            .max_sessions(8)
            .queue_depth(32)
            .idle_timeout_ms(400)
    };
    let load_for = |addr: String, seed: u64, n_examples: usize| LoadConfig {
        addr,
        sessions: 12,
        concurrency: 4,
        max_rounds: 2,
        corpus_seed: seed,
        n_examples,
        ..LoadConfig::default()
    };

    // Baseline: the scripted load on a quiet daemon.
    let config = serve();
    let (seed, n_examples) = (config.seed, config.n_examples);
    let (addr, handle, thread) = boot(config);
    let baseline = run_load(&load_for(addr, seed, n_examples)).expect("baseline load");
    assert_eq!(baseline.sessions_completed, 12);
    stop(&handle, thread);

    // The same load with ten attackers hammering the same daemon.
    let (addr, handle, thread) = boot(serve());
    let chaos_addr = addr.clone();
    let chaos = std::thread::spawn(move || {
        run_chaos(&ChaosConfig {
            addr: chaos_addr,
            clients: 10,
            seed: 0xD06_F00D,
            byte_pause_ms: 25,
            read_deadline_ms: 20_000,
            connect_retry_ms: 10_000,
            ..ChaosConfig::default()
        })
        .expect("chaos run")
    });
    let under_fire = run_load(&load_for(addr, seed, n_examples)).expect("load under chaos");
    let report = chaos.join().expect("chaos thread");

    assert_eq!(under_fire.sessions_completed, 12, "no healthy casualties");
    assert_eq!(under_fire.sessions_failed, 0);
    assert_eq!(
        under_fire.digest, baseline.digest,
        "healthy transcripts must be byte-identical under chaos"
    );
    assert_eq!(report.failed, 0, "{report:?}");

    let summary = stop(&handle, thread);
    assert_eq!(summary.admission.active, 0);
    assert_eq!(summary.admission.queued, 0);
    assert_eq!(summary.contained_panics, 0);
}

#[test]
fn injected_disk_faults_degrade_sessions_but_the_daemon_survives() {
    let dir = std::env::temp_dir().join(format!("fisql-chaos-disk-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("sessions.fjnl");
    std::fs::remove_file(&store).ok();

    // Every store append fails: sessions must degrade to memory-only
    // and keep serving, not die.
    let config = test_config().store(&store).disk_fault_rate(1.0);
    let seed = config.seed;
    let n_examples = config.n_examples;
    let corpus = build_aep(&AepConfig { n_examples, seed });
    let (addr, handle, thread) = boot(config);

    let mut client =
        admitted(ServeClient::connect_retry(addr.as_str(), None, Duration::from_secs(10)).unwrap());
    let turn = client.ask(&corpus.examples[2].question).expect("ask");
    assert!(!turn.sql.is_empty());
    let turn = client.feedback("we are in 2024", None).expect("feedback");
    assert_eq!(turn.round, 1);

    // The degradation is visible in the transcript, once.
    let events = client.transcript().expect("transcript");
    let degraded = events
        .iter()
        .filter(|e| matches!(e, SessionEvent::Degraded { .. }))
        .count();
    assert_eq!(degraded, 1, "exactly one degradation notice: {events:?}");
    client.bye().expect("bye");

    let summary = stop(&handle, thread);
    assert_eq!(summary.sessions_opened, 1);
    assert_eq!(summary.sessions_degraded, 1);
    assert!(summary.store.append_faults > 0);
    assert_eq!(summary.contained_panics, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_on_a_stored_daemon_leaves_the_store_replayable() {
    // Attackers against a journaling daemon: the survivors of the chaos
    // (sessions the attackers opened but never closed) replay cleanly
    // on a rebind — the store is never corrupted by hostile traffic.
    let dir = std::env::temp_dir().join(format!("fisql-chaos-store-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("sessions.fjnl");
    std::fs::remove_file(&store).ok();

    let config = test_config()
        .store(&store)
        .max_sessions(4)
        .idle_timeout_ms(300);
    let (addr, handle, thread) = boot(config.clone());
    let report = run_chaos(&ChaosConfig {
        addr,
        clients: 8,
        seed: 0xC0FFEE,
        byte_pause_ms: 30,
        read_deadline_ms: 20_000,
        connect_retry_ms: 10_000,
        ..ChaosConfig::default()
    })
    .expect("chaos run");
    assert_eq!(report.failed, 0, "{report:?}");
    stop(&handle, thread);

    // Rebinding over the battle-scarred store must succeed and replay
    // whatever survived without error.
    let restarted = Server::bind(config).expect("rebind over post-chaos store");
    let recovered = restarted.recovered_sessions();
    let handle = restarted.handle().unwrap();
    let addr = handle.addr().to_string();
    let thread = std::thread::spawn(move || restarted.serve().expect("serve loop"));
    for id in recovered {
        let mut client = admitted(
            ServeClient::connect_retry(addr.as_str(), Some(id), Duration::from_secs(10)).unwrap(),
        );
        let _ = client.transcript().expect("survivor transcript replays");
        client.bye().expect("bye");
    }
    stop(&handle, thread);
    std::fs::remove_dir_all(&dir).ok();
}
