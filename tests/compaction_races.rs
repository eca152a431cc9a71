//! Compaction under pressure: rewrites racing the reaper and live
//! traffic, and rewrites on a disk that is actively failing. The
//! invariants under test are the three a rewrite must never bend —
//! checkpoint generation, the session-id reuse floor, and survivor
//! replay.

use fisql_core::serve::{
    Appended, CompactionOutcome, Connected, DiskFaultConfig, ServeClient, SessionOp, SessionStore,
    StoreOptions,
};
use fisql_core::{FsyncPolicy, ServeConfig};
use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn temp_store(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "fisql-compaction-{}-{}.fjnl",
        tag,
        std::process::id()
    ));
    std::fs::remove_file(&path).ok();
    path
}

fn options(fingerprint: u64) -> StoreOptions {
    StoreOptions::new(fingerprint).fsync(FsyncPolicy::EachRecord)
}

fn ask(i: u64) -> SessionOp {
    SessionOp::Ask {
        example_idx: i % 7,
        question: format!("question {i}"),
    }
}

// ---------------------------------------------------------------------
// Compaction racing appends, closes, and reaps (store-level threads).
// ---------------------------------------------------------------------

#[test]
fn compaction_racing_closes_and_reaps_keeps_generation_floor_and_survivors() {
    let path = temp_store("race");
    let store = Arc::new(SessionStore::open(Some(&path), options(0xACE1)).expect("open"));

    // Four writer threads open sessions and end two of every three —
    // one with `Closed`, one with `Reaped` (the reaper's record) — while
    // a fifth thread compacts in a tight loop. Every interleaving of
    // "reap lands, rewrite starts" is fair game.
    let writers: Vec<_> = (0..4)
        .map(|t| {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                let mut opened = Vec::new();
                let mut survivors = Vec::new();
                for i in 0..30u64 {
                    let (id, _, _) = store.open_session_tracked().expect("open session");
                    opened.push(id);
                    match store.append_tracked(id, ask(t * 100 + i)).0 {
                        Appended::Durable => {}
                        Appended::Degraded { error } => panic!("degraded: {error}"),
                    }
                    match i % 3 {
                        0 => {
                            store.append_tracked(id, SessionOp::Closed);
                        }
                        1 => {
                            store.append_tracked(id, SessionOp::Reaped { idle_ms: 1 + i });
                        }
                        _ => survivors.push(id),
                    }
                }
                (opened, survivors)
            })
        })
        .collect();

    let compactor = {
        let store = Arc::clone(&store);
        std::thread::spawn(move || {
            let mut outcomes: Vec<CompactionOutcome> = Vec::new();
            let deadline = Instant::now() + Duration::from_secs(20);
            while Instant::now() < deadline {
                let outcome = store.compact().expect("compact");
                if let Some(prev) = outcomes.last() {
                    assert!(
                        outcome.generation > prev.generation,
                        "generations must be strictly monotonic"
                    );
                }
                outcomes.push(outcome);
                if outcomes.len() >= 25 {
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            outcomes
        })
    };

    let mut opened = Vec::new();
    let mut survivors = Vec::new();
    for writer in writers {
        let (o, s) = writer.join().expect("writer thread");
        opened.extend(o);
        survivors.extend(s);
    }
    let outcomes = compactor.join().expect("compactor thread");
    assert!(!outcomes.is_empty());

    // One quiescent rewrite so the ended sessions are deterministically
    // gone, then check the three invariants.
    let last = store.compact().expect("final compact");
    let snapshot = store.snapshot();
    assert_eq!(
        snapshot.generation, last.generation,
        "snapshot generation tracks the last rewrite"
    );
    assert_eq!(
        snapshot.compactions as usize,
        outcomes.len() + 1,
        "every successful compact bumped the generation exactly once"
    );
    assert_eq!(snapshot.generation, snapshot.compactions);

    survivors.sort_unstable();
    let mut held = store.session_ids();
    held.sort_unstable();
    assert_eq!(held, survivors, "exactly the unended sessions survive");
    for &id in &survivors {
        let ops = store.session_ops(id);
        assert_eq!(ops.first(), Some(&SessionOp::Opened), "session {id}");
        assert_eq!(ops.len(), 2, "opened + one ask: {ops:?}");
    }

    // The id floor must hold across a restart: the checkpoint pins
    // next_session_id, so compacted-away ids are never reissued.
    let max_issued = *opened.iter().max().expect("sessions were opened");
    drop(store);
    let store = SessionStore::open(Some(&path), options(0xACE1)).expect("reopen");
    assert_eq!(store.snapshot().generation, snapshot.generation);
    let mut replayed = store.session_ids();
    replayed.sort_unstable();
    assert_eq!(replayed, survivors, "survivor replay after restart");
    let (fresh, _, _) = store.open_session_tracked().expect("fresh session");
    assert!(
        fresh > max_issued,
        "id {fresh} must clear the floor {max_issued}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_reap_landing_between_rewrites_never_reuses_its_id() {
    let path = temp_store("floor");

    let store = SessionStore::open(Some(&path), options(0xF100)).expect("open");
    let (first, _, _) = store.open_session_tracked().expect("first");
    store.append_tracked(first, SessionOp::Closed);
    let gen1 = store.compact().expect("compact closed").generation;
    assert_eq!(gen1, 1);

    // The reap lands after one rewrite already dropped a session, and
    // the next rewrite drops the reaped one too.
    let (reaped, _, _) = store.open_session_tracked().expect("second");
    assert!(reaped > first);
    store.append_tracked(reaped, SessionOp::Reaped { idle_ms: 42 });
    let outcome = store.compact().expect("compact reaped");
    assert_eq!(outcome.generation, 2);
    assert_eq!(outcome.sessions_dropped, 1);
    assert!(store.session_ids().is_empty());
    drop(store);

    // An empty-looking journal still remembers both the generation and
    // the floor: neither dropped id is ever handed out again.
    let store = SessionStore::open(Some(&path), options(0xF100)).expect("reopen");
    assert_eq!(store.snapshot().generation, 2);
    let (fresh, _, _) = store.open_session_tracked().expect("fresh");
    assert!(fresh > reaped, "{fresh} must clear the reaped id {reaped}");
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------
// Compaction under an actively failing disk.
// ---------------------------------------------------------------------

#[test]
fn compaction_under_full_fault_rate_heals_degraded_sessions() {
    let path = temp_store("heal");
    // Every live append fails: sessions degrade to memory-only. The
    // rewrite, though, serializes the *memory image* into a fresh
    // journal — so one successful compaction makes the survivors
    // durable again.
    let faulty = options(0x4EA1).faults(Some(DiskFaultConfig::uniform(1.0)));

    let store = SessionStore::open(Some(&path), faulty).expect("open");
    let (id, appended, _) = store.open_session_tracked().expect("open session");
    assert!(
        matches!(appended, Appended::Degraded { .. }),
        "a 1.0 fault rate must degrade the append: {appended:?}"
    );
    store.append_tracked(id, ask(0));
    store.append_tracked(id, ask(1));
    let (closed, _, _) = store.open_session_tracked().expect("second session");
    store.append_tracked(closed, SessionOp::Closed);
    assert!(store.snapshot().append_faults >= 5);

    let outcome = store.compact().expect("compact with a failing append lane");
    assert_eq!(outcome.generation, 1);
    assert_eq!(outcome.sessions_dropped, 1);
    drop(store);

    // Reopen with a healthy disk: the degraded session's full history
    // is on disk — written by the rewrite, not the faulty append path.
    let store = SessionStore::open(Some(&path), options(0x4EA1)).expect("reopen");
    assert_eq!(store.session_ids(), vec![id]);
    let ops = store.session_ops(id);
    assert_eq!(ops.len(), 3, "opened + two asks: {ops:?}");
    assert_eq!(ops.first(), Some(&SessionOp::Opened));
    assert_eq!(store.snapshot().generation, 1);
    let (fresh, _, _) = store.open_session_tracked().expect("fresh");
    assert!(fresh > closed, "floor survives the faulty epoch");
    std::fs::remove_file(&path).ok();
}

#[test]
fn disk_full_fails_compaction_typed_and_the_intact_prefix_replays() {
    let path = temp_store("full");
    let horizon = DiskFaultConfig {
        full_after_ops: Some(4),
        ..DiskFaultConfig::default()
    };

    let store =
        SessionStore::open(Some(&path), options(0xD15F).faults(Some(horizon))).expect("open");
    let (id, _, _) = store.open_session_tracked().expect("open session");
    store.append_tracked(id, ask(0));
    store.append_tracked(id, ask(1));
    store.append_tracked(id, ask(2));
    // Past the horizon: appends degrade, the store flips unwritable.
    let (late, _) = store.append_tracked(id, ask(3));
    assert!(matches!(late, Appended::Degraded { .. }));
    assert!(!store.writable());

    // Compaction on a full disk is a typed refusal, not a torn rewrite.
    let err = store.compact().expect_err("compaction must refuse");
    assert_eq!(err.kind(), io::ErrorKind::StorageFull);
    let refused = store
        .open_session_tracked()
        .expect_err("new sessions are shed");
    assert_eq!(refused.kind(), io::ErrorKind::StorageFull);

    // The live session still serves from memory — all five ops.
    assert_eq!(store.session_ops(id).len(), 5);
    drop(store);

    // Restart sees exactly the journaled prefix: the four ops that beat
    // the horizon, in order, with nothing torn and generation 0.
    let store = SessionStore::open(Some(&path), options(0xD15F)).expect("reopen");
    let ops = store.session_ops(id);
    assert_eq!(ops.len(), 4, "the intact prefix: {ops:?}");
    assert_eq!(ops.first(), Some(&SessionOp::Opened));
    assert_eq!(store.snapshot().generation, 0);
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------
// The real reaper racing auto-compaction on a live daemon.
// ---------------------------------------------------------------------

#[test]
fn live_reaper_triggered_compactions_leave_survivors_replayable() {
    let dir = std::env::temp_dir().join(format!("fisql-compaction-live-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store_path = dir.join("sessions.fjnl");
    std::fs::remove_file(&store_path).ok();

    // compact_every(1): every close *and every reap* rewrites the
    // journal from inside the append — the reaper's own record is what
    // starts the rewrite it races.
    let config = ServeConfig::default()
        .port(0)
        .n_examples(24)
        .store(&store_path)
        .compact_every(1)
        .idle_timeout_ms(800)
        .max_sessions(8);
    let server = fisql_core::serve::Server::bind(config.clone()).expect("bind");
    let handle = server.handle().expect("handle");
    let addr = handle.addr().to_string();
    let thread = std::thread::spawn(move || server.serve().expect("serve loop"));

    let admit = |resume: Option<u64>| -> ServeClient {
        match ServeClient::connect_retry(addr.as_str(), resume, Duration::from_secs(10)) {
            Ok(Connected::Admitted(client)) => client,
            Ok(_) => panic!("not admitted"),
            Err(e) => panic!("connect failed: {e}"),
        }
    };

    // The survivor opens first, so every later rewrite must carry its
    // history forward.
    let mut survivor = admit(None);
    let survivor_id = survivor.session_id;
    survivor.ask("how many singers are there").expect("ask");
    survivor.feedback("only french ones", None).expect("round");

    // Three stallers go silent and wait for the reaper; three workers
    // close promptly. Each ending triggers an auto-compaction.
    let stallers: Vec<ServeClient> = (0..3)
        .map(|_| {
            let mut c = admit(None);
            c.ask("list all concerts").expect("staller ask");
            c
        })
        .collect();
    for _ in 0..3 {
        let mut c = admit(None);
        c.ask("which stadium is largest").expect("worker ask");
        c.bye().expect("worker bye");
    }

    // Wait for the reaper to take all three stallers, keeping the
    // survivor's connection warm so it is never reaped itself.
    let deadline = Instant::now() + Duration::from_secs(20);
    let before_restart = loop {
        let events = survivor.transcript().expect("survivor transcript");
        if let Ok(stats) = fisql_core::serve::request_stats(handle.addr().to_string().as_str()) {
            if stats.admission.reaped >= 3 && stats.store.compactions >= 4 {
                break events;
            }
        }
        assert!(Instant::now() < deadline, "reaper never took the stallers");
        std::thread::sleep(Duration::from_millis(100));
    };
    drop(stallers);

    // Stop without a Bye: the survivor must come back from the store.
    handle.shutdown();
    let summary = thread.join().expect("server thread");
    assert!(summary.admission.reaped >= 3, "{summary:?}");
    assert!(summary.store.compactions >= 4, "{summary:?}");

    let restarted = fisql_core::serve::Server::bind(config).expect("rebind");
    assert!(restarted.recovered_sessions().contains(&survivor_id));
    let handle = restarted.handle().expect("handle");
    let addr = handle.addr().to_string();
    let thread = std::thread::spawn(move || restarted.serve().expect("serve loop"));
    let mut resumed =
        match ServeClient::connect_retry(addr.as_str(), Some(survivor_id), Duration::from_secs(10))
        {
            Ok(Connected::Admitted(client)) => client,
            Ok(_) => panic!("resume not admitted"),
            Err(e) => panic!("resume failed: {e}"),
        };
    let after_restart = resumed.transcript().expect("replayed transcript");
    assert_eq!(
        before_restart, after_restart,
        "survivor replay must be byte-identical across reap-triggered rewrites and a restart"
    );
    resumed.bye().expect("bye");
    handle.shutdown();
    thread.join().expect("server thread");
    std::fs::remove_dir_all(&dir).ok();
}
