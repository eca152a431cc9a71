//! Integration tests for `fisql serve`: concurrent session capacity,
//! admission backpressure, journal-backed restart replay, and graceful
//! shutdown — all against a real daemon on a real socket.

use fisql_core::serve::{
    request_compact, request_stats, run_load, Connected, ServeClient, Server, ServerHandle,
    ServerStats, SessionOp, SessionStore, StoreOptions,
};
use fisql_core::{LoadConfig, ServeConfig, SessionEvent};
use fisql_spider::{build_aep, AepConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::Duration;

/// A small, fast serving configuration on an ephemeral port.
fn test_config() -> ServeConfig {
    ServeConfig::default().port(0).n_examples(24)
}

/// Boots a daemon and returns its address, shutdown handle, and the
/// thread that will yield the final summary.
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
fn thirty_two_truly_concurrent_sessions_are_sustained() {
    let config = test_config().max_sessions(32);
    let seed = config.seed;
    let n_examples = config.n_examples;
    let (addr, handle, thread) = boot(config);
    let corpus = build_aep(&AepConfig { n_examples, seed });

    // 32 clients connect and ALL hold their sessions open at once
    // (barrier), then each runs a full ask+feedback round.
    let barrier = Arc::new(Barrier::new(32));
    let clients: Vec<_> = (0..32usize)
        .map(|i| {
            let addr = addr.clone();
            let question = corpus.examples[i % corpus.examples.len()].question.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = admitted(
                    ServeClient::connect_retry(addr.as_str(), None, Duration::from_secs(10))
                        .expect("connect"),
                );
                // Everyone is admitted concurrently before anyone works.
                barrier.wait();
                let turn = client.ask(&question).expect("ask");
                assert!(!turn.sql.is_empty());
                let turn = client.feedback("we are in 2024", None).expect("feedback");
                assert_eq!(turn.round, 1);
                client.bye().expect("bye")
            })
        })
        .collect();
    for client in clients {
        assert_eq!(client.join().expect("client thread"), 1);
    }

    let summary = stop(&handle, thread);
    assert_eq!(summary.sessions_opened, 32);
    assert_eq!(
        summary.admission.peak_active, 32,
        "all 32 held slots at once"
    );
    assert_eq!(summary.admission.rejected(), 0);
    assert_eq!(summary.rounds_served, 32);
    assert_eq!(summary.contained_panics, 0);
}

#[test]
fn admission_rejects_beyond_cap_without_crash_or_hang() {
    // Two slots, no queue: the third concurrent connection must be
    // rejected immediately — and the daemon must keep serving afterwards.
    let config = test_config().max_sessions(2).queue_depth(0);
    let (addr, handle, thread) = boot(config);

    let a =
        admitted(ServeClient::connect_retry(addr.as_str(), None, Duration::from_secs(10)).unwrap());
    let b = admitted(ServeClient::connect(addr.as_str(), None).unwrap());
    match ServeClient::connect(addr.as_str(), None).unwrap() {
        Connected::Rejected { reason, active, .. } => {
            assert_eq!(active, 2);
            assert!(reason.contains("capacity"), "{reason}");
        }
        Connected::Admitted(_) => panic!("third session must be rejected"),
        Connected::ShuttingDown => panic!("daemon is not shutting down"),
        Connected::Fenced { message, .. } => panic!("fenced: {message}"),
    }

    // Free the slots; the daemon still serves new sessions.
    drop(a);
    drop(b);
    let mut retries = 0;
    let c = loop {
        match ServeClient::connect(addr.as_str(), None).unwrap() {
            Connected::Admitted(client) => break client,
            _ if retries < 100 => {
                retries += 1;
                std::thread::sleep(Duration::from_millis(20));
            }
            other => {
                let _ = other;
                panic!("slots never freed after clients dropped");
            }
        }
    };
    assert_eq!(c.bye().expect("bye"), 0);

    let summary = stop(&handle, thread);
    assert!(summary.admission.rejected_full >= 1);
    assert_eq!(summary.admission.peak_active, 2);
}

#[test]
fn scripted_load_completes_against_a_capped_daemon() {
    let config = test_config().max_sessions(8);
    let seed = config.seed;
    let n_examples = config.n_examples;
    let (addr, handle, thread) = boot(config);

    let load = LoadConfig {
        addr,
        sessions: 40,
        concurrency: 16,
        max_rounds: 2,
        corpus_seed: seed,
        n_examples,
        ..LoadConfig::default()
    };
    let report = run_load(&load).expect("load");
    // Queued admission (depth 16, 5 s budget) absorbs the overshoot:
    // every scripted session completes, none fail.
    assert_eq!(report.sessions_completed, 40);
    assert_eq!(report.sessions_failed, 0);
    assert!(report.rounds >= 40);
    assert!(report.latencies_us.len() >= 80);

    let summary = stop(&handle, thread);
    assert_eq!(summary.sessions_opened, 40);
    assert!(summary.admission.peak_active <= 8);
}

#[test]
fn restart_replays_journaled_sessions_bit_identically() {
    let dir = std::env::temp_dir().join(format!("fisql-serve-replay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("sessions.fjnl");
    std::fs::remove_file(&store).ok();

    let config = test_config().store(&store);
    let seed = config.seed;
    let n_examples = config.n_examples;
    let corpus = build_aep(&AepConfig { n_examples, seed });

    // A question that is not corpus text resolves by nearest embedding;
    // the journal records the resolved index, so replay never re-runs
    // the resolution.
    let paraphrase = "roughly how many audiences got activated this year?";
    assert!(corpus
        .examples
        .iter()
        .all(|e| !e.question.eq_ignore_ascii_case(paraphrase)));

    // Run a session against the first daemon, then drop the connection
    // WITHOUT the client saying Bye — as a crash would.
    let (addr, handle, thread) = boot(config.clone());
    let (session_id, before) = {
        let mut client = admitted(
            ServeClient::connect_retry(addr.as_str(), None, Duration::from_secs(10)).unwrap(),
        );
        // Feedback before any question is a typed error, journaled never.
        let err = client.feedback("we are in 2024", None).unwrap_err();
        assert!(
            err.to_string().contains("feedback before any question"),
            "{err}"
        );
        client.ask(&corpus.examples[1].question).unwrap();
        client.feedback("we are in 2024", None).unwrap();
        client
            .feedback("only the january rows please", None)
            .unwrap();
        // A second question in the same session, off the corpus text.
        client.ask(paraphrase).unwrap();
        client.feedback("count them instead", None).unwrap();
        let transcript = client.transcript().unwrap();
        (client.session_id, transcript)
        // client drops here: connection closes, session stays journaled.
    };

    // A same-daemon reconnect replays the journal into a transcript
    // byte-identical to the live one.
    {
        let mut client = admitted(
            ServeClient::connect_retry(addr.as_str(), Some(session_id), Duration::from_secs(10))
                .unwrap(),
        );
        assert_eq!(client.replayed_rounds, 1);
        assert_eq!(
            serde_json::to_vec(&client.transcript().unwrap()).unwrap(),
            serde_json::to_vec(&before).unwrap(),
            "reconnect transcript not bit-identical"
        );
    }
    stop(&handle, thread);

    // The journal holds exactly the ops that ran: no record for the
    // refused feedback, and the paraphrase as a resolved corpus index.
    {
        let journal = SessionStore::open(Some(&store), StoreOptions::new(config.fingerprint()))
            .expect("reopen store");
        let ops = journal.session_ops(session_id);
        let kinds: Vec<&str> = ops
            .iter()
            .map(|op| match op {
                SessionOp::Opened => "opened",
                SessionOp::Ask { .. } => "ask",
                SessionOp::Feedback { .. } => "feedback",
                _ => "other",
            })
            .collect();
        assert_eq!(
            kinds,
            ["opened", "ask", "feedback", "feedback", "ask", "feedback"]
        );
        let SessionOp::Ask {
            example_idx,
            question,
        } = &ops[4]
        else {
            unreachable!()
        };
        assert_eq!(question, paraphrase);
        assert!((*example_idx as usize) < n_examples);
    }

    // A fresh daemon on the same store reports the unclosed session and
    // replays it bit-identically on resume.
    let restarted = Server::bind(config).expect("rebind");
    assert_eq!(restarted.recovered_sessions(), vec![session_id]);
    let handle = restarted.handle().unwrap();
    let addr = handle.addr().to_string();
    let thread = std::thread::spawn(move || restarted.serve().expect("serve loop"));

    let mut client = admitted(
        ServeClient::connect_retry(addr.as_str(), Some(session_id), Duration::from_secs(10))
            .unwrap(),
    );
    assert_eq!(client.session_id, session_id);
    assert_eq!(client.replayed_rounds, 1);
    let after = client.transcript().unwrap();
    assert_eq!(after, before, "replayed transcript diverged");
    assert_eq!(
        serde_json::to_vec(&after).unwrap(),
        serde_json::to_vec(&before).unwrap(),
        "replayed transcript not bit-identical"
    );
    // The resumed session is live: another round works on top of it.
    let turn = client.feedback("only this year's rows", None).unwrap();
    assert_eq!(turn.round, 2);
    client.bye().unwrap();

    let summary = stop(&handle, thread);
    assert_eq!(summary.sessions_resumed, 1);

    // A degraded session: every append fails, so it lives in memory
    // only. A same-daemon reconnect still replays it bit-identically,
    // degradation notice included; a restart replays only its durable
    // prefix — here nothing, so the session is unknown.
    let degraded_store = dir.join("degraded.fjnl");
    std::fs::remove_file(&degraded_store).ok();
    let faulty = test_config().store(&degraded_store).disk_fault_rate(1.0);
    let (addr, handle, thread) = boot(faulty.clone());
    let (session_id, before) = {
        let mut client = admitted(
            ServeClient::connect_retry(addr.as_str(), None, Duration::from_secs(10)).unwrap(),
        );
        client.ask(&corpus.examples[2].question).unwrap();
        client.feedback("we are in 2024", None).unwrap();
        (client.session_id, client.transcript().unwrap())
    };
    assert_eq!(before.len(), 6, "{before:?}");
    assert!(matches!(before[0], SessionEvent::Degraded { .. }));
    {
        let mut client = admitted(
            ServeClient::connect_retry(addr.as_str(), Some(session_id), Duration::from_secs(10))
                .unwrap(),
        );
        assert_eq!(
            serde_json::to_vec(&client.transcript().unwrap()).unwrap(),
            serde_json::to_vec(&before).unwrap(),
            "degraded reconnect transcript not bit-identical"
        );
    }
    let summary = stop(&handle, thread);
    assert_eq!(summary.sessions_degraded, 1);
    assert_eq!(summary.sessions_resumed, 1);
    let restarted = Server::bind(faulty.disk_fault_rate(0.0)).expect("rebind");
    assert!(restarted.recovered_sessions().is_empty());
    let handle = restarted.handle().unwrap();
    let addr = handle.addr().to_string();
    let thread = std::thread::spawn(move || restarted.serve().expect("serve loop"));
    let err = ServeClient::connect(addr.as_str(), Some(session_id))
        .err()
        .expect("a never-durable session is unknown after a restart");
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound, "{err}");
    stop(&handle, thread);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn foreign_store_configuration_is_refused_at_bind() {
    let dir = std::env::temp_dir().join(format!("fisql-serve-foreign-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("sessions.fjnl");
    std::fs::remove_file(&store).ok();

    let config = test_config().store(&store);
    let (_, handle, thread) = boot(config.clone());
    stop(&handle, thread);

    // A different corpus seed changes the replay fingerprint: binding
    // over the old store must refuse, not silently replay wrong.
    let err = Server::bind(config.seed(0xD1FF))
        .err()
        .expect("must refuse");
    assert!(err.to_string().contains("fingerprint"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shutdown_request_drains_the_daemon_gracefully() {
    let (addr, _handle, thread) = boot(test_config());
    // An open session sees the drain notice instead of a dead socket.
    let mut client =
        admitted(ServeClient::connect_retry(addr.as_str(), None, Duration::from_secs(10)).unwrap());
    assert!(fisql_core::serve::request_shutdown(addr.as_str()).expect("shutdown"));
    let summary = thread.join().expect("server thread");
    assert_eq!(summary.sessions_opened, 1);
    // The daemon is gone: new connections fail or are drained.
    assert!(matches!(
        ServeClient::connect(addr.as_str(), None),
        Err(_) | Ok(Connected::ShuttingDown | Connected::Rejected { .. })
    ));
    // The held client's next request surfaces the drain (ShuttingDown
    // frame or closed socket), never a hang.
    let _ = client.request(&fisql_core::serve::ClientRequest::Transcript);
}

#[test]
fn every_stop_path_wakes_an_idle_daemon_within_a_second() {
    // The replication accept loop blocks in `accept()` and a stop must
    // wake it; the client accept loop polls. Either way `serve()` returns
    // promptly, and the wake never counts as a session, an error, or a
    // reap.
    #[derive(Debug, Clone, Copy)]
    enum StopPath {
        Shutdown,
        Abort,
        ShutdownFrame,
    }
    for repl_listen in [false, true] {
        for path in [StopPath::Shutdown, StopPath::Abort, StopPath::ShutdownFrame] {
            let mut config = test_config();
            if repl_listen {
                config = config.repl_listen("127.0.0.1:0");
            }
            let (addr, handle, thread) = boot(config);
            // Let the accept loops settle into their idle waits.
            std::thread::sleep(Duration::from_millis(100));
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let _ = done_tx.send(thread.join().expect("server thread"));
            });
            match path {
                StopPath::Shutdown => handle.shutdown(),
                StopPath::Abort => handle.abort(),
                StopPath::ShutdownFrame => {
                    assert!(fisql_core::serve::request_shutdown(addr.as_str()).expect("shutdown"));
                }
            }
            let summary = done_rx
                .recv_timeout(Duration::from_secs(1))
                .unwrap_or_else(|_| {
                    panic!("{path:?} (repl_listen {repl_listen}): serve() still running after 1 s")
                });
            assert_eq!(summary.sessions_opened, 0, "{path:?} {repl_listen}");
            assert_eq!(summary.errors, 0, "{path:?} {repl_listen}");
            assert_eq!(summary.admission.reaped, 0, "{path:?} {repl_listen}");
        }
    }
}

#[test]
fn session_store_marker_separates_stores_from_eval_journals() {
    // A serve session store can never be opened as an eval journal: the
    // header's case-count slot is pinned to the marker.
    let dir = std::env::temp_dir().join(format!("fisql-serve-marker-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sessions.fjnl");
    std::fs::remove_file(&path).ok();
    let store = SessionStore::open(
        Some(&path),
        StoreOptions::new(7).fsync(fisql_core::FsyncPolicy::EachRecord),
    )
    .unwrap();
    store.open_session_tracked().unwrap();
    store.sync().unwrap();
    drop(store);
    let err = fisql_core::RunJournal::open_resume::<SessionEvent>(
        &path,
        7,
        10, // a real case count, not the marker
        fisql_core::FsyncPolicy::Never,
    )
    .expect_err("eval open over a session store must refuse");
    assert!(err.to_string().contains("case"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Writes one raw byte blob to a fresh connection and returns whatever
/// the daemon sent back before closing.
fn poke_raw(addr: &str, payload: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(payload).expect("write");
    let mut reply = Vec::new();
    let _ = stream.read_to_end(&mut reply);
    reply
}

/// Decodes the first frame of a raw reply as a typed response (None
/// when the daemon closed without answering).
fn first_frame(reply: &[u8]) -> Option<fisql_core::serve::ServerResponse> {
    if reply.len() < 4 {
        return None;
    }
    let len = u32::from_le_bytes(reply[..4].try_into().unwrap()) as usize;
    serde_json::from_slice(&reply[4..4 + len.min(reply.len() - 4)]).ok()
}

#[test]
fn hostile_frames_get_typed_errors_and_the_daemon_keeps_serving() {
    let config = test_config();
    let seed = config.seed;
    let n_examples = config.n_examples;
    let (addr, handle, thread) = boot(config);

    // Non-UTF-8 garbage in a well-formed frame: typed Error.
    let mut garbage = 8u32.to_le_bytes().to_vec();
    garbage.extend_from_slice(&[0xFF, 0xFE, 0x80, 0x81, 0x00, 0xC0, 0xC1, 0xF5]);
    let reply = first_frame(&poke_raw(&addr, &garbage)).expect("a typed reply");
    assert!(
        matches!(reply, fisql_core::serve::ServerResponse::Error { .. }),
        "{reply:?}"
    );

    // Valid JSON that is not a request: typed Error.
    let body = br#"{"definitely":"not a request"}"#;
    let mut framed = (body.len() as u32).to_le_bytes().to_vec();
    framed.extend_from_slice(body);
    let reply = first_frame(&poke_raw(&addr, &framed)).expect("a typed reply");
    assert!(
        matches!(reply, fisql_core::serve::ServerResponse::Error { .. }),
        "{reply:?}"
    );

    // An oversized length claim: typed Error, no allocation.
    let oversized = ((4u32 << 20) + 1).to_le_bytes();
    let reply = first_frame(&poke_raw(&addr, &oversized)).expect("a typed reply");
    assert!(
        matches!(reply, fisql_core::serve::ServerResponse::Error { .. }),
        "{reply:?}"
    );

    // Deeply nested JSON: the parser's depth limit answers, the stack
    // survives.
    let mut nested = Vec::new();
    nested.extend(std::iter::repeat_n(b'[', 600));
    nested.extend(std::iter::repeat_n(b']', 600));
    let mut framed = (nested.len() as u32).to_le_bytes().to_vec();
    framed.extend_from_slice(&nested);
    let reply = first_frame(&poke_raw(&addr, &framed)).expect("a typed reply");
    assert!(
        matches!(reply, fisql_core::serve::ServerResponse::Error { .. }),
        "{reply:?}"
    );

    // A truncated frame (header promises more than arrives): the daemon
    // just closes; either way it must not crash or hang.
    let torn = 64u32.to_le_bytes().to_vec();
    let _ = poke_raw(&addr, &torn);

    // After all that abuse, a normal session still completes.
    let corpus = build_aep(&AepConfig { n_examples, seed });
    let mut client =
        admitted(ServeClient::connect_retry(addr.as_str(), None, Duration::from_secs(10)).unwrap());
    let turn = client.ask(&corpus.examples[0].question).expect("ask");
    assert!(!turn.sql.is_empty());
    client.bye().expect("bye");

    let summary = stop(&handle, thread);
    assert_eq!(summary.sessions_opened, 1);
    assert_eq!(summary.contained_panics, 0);
    assert!(
        summary.errors >= 4,
        "hostile frames counted: {}",
        summary.errors
    );
}

#[test]
fn a_hundred_thousand_deep_frame_is_refused_before_it_reaches_the_stack() {
    let config = test_config();
    let seed = config.seed;
    let n_examples = config.n_examples;
    let (addr, handle, thread) = boot(config);

    // 200 KB of brackets, well under MAX_FRAME_LEN, sent before Hello.
    // Parsed by unbounded recursion it would overflow the connection
    // thread's stack, which aborts the whole process; the parser's
    // recursion limit answers it with a typed Error instead.
    let depth = 100_000;
    let mut nested = Vec::with_capacity(2 * depth);
    nested.extend(std::iter::repeat_n(b'[', depth));
    nested.extend(std::iter::repeat_n(b']', depth));
    let mut framed = (nested.len() as u32).to_le_bytes().to_vec();
    framed.extend_from_slice(&nested);
    match first_frame(&poke_raw(&addr, &framed)).expect("a typed reply") {
        fisql_core::serve::ServerResponse::Error { message } => {
            assert!(message.contains("recursion limit exceeded"), "{message}");
        }
        other => panic!("expected a typed Error, got {other:?}"),
    }

    // The daemon survived: a normal session completes.
    let corpus = build_aep(&AepConfig { n_examples, seed });
    let mut client =
        admitted(ServeClient::connect_retry(addr.as_str(), None, Duration::from_secs(10)).unwrap());
    let turn = client.ask(&corpus.examples[0].question).expect("ask");
    assert!(!turn.sql.is_empty());
    client.bye().expect("bye");

    let summary = stop(&handle, thread);
    assert_eq!(summary.sessions_opened, 1);
    assert_eq!(summary.contained_panics, 0);
    assert_eq!(summary.errors, 1);
}

#[test]
fn idle_sessions_are_reaped_and_the_slot_returns() {
    // One slot, 200 ms idle budget: a stalled session must be reaped
    // and its slot handed to the next client.
    let config = test_config().max_sessions(1).idle_timeout_ms(200);
    let seed = config.seed;
    let n_examples = config.n_examples;
    let (addr, handle, thread) = boot(config);
    let corpus = build_aep(&AepConfig { n_examples, seed });

    let mut stalled =
        admitted(ServeClient::connect_retry(addr.as_str(), None, Duration::from_secs(10)).unwrap());
    stalled.ask(&corpus.examples[0].question).expect("ask");

    // The stalled client goes quiet; a second client queues for the
    // only slot and must be admitted once the reaper fires.
    let mut fresh = admitted(
        ServeClient::connect_retry(addr.as_str(), None, Duration::from_secs(10)).expect("connect"),
    );
    let turn = fresh.ask(&corpus.examples[1].question).expect("ask");
    assert!(!turn.sql.is_empty());
    fresh.bye().expect("bye");

    // The reaped client's next request surfaces the eviction as an
    // error (the typed Reaped farewell or the closed socket), not a
    // hang.
    let verdict = stalled.feedback("we are in 2024", None);
    assert!(verdict.is_err(), "reaped session must not keep serving");

    let summary = stop(&handle, thread);
    assert_eq!(summary.admission.reaped, 1);
    assert_eq!(summary.sessions_opened, 2);
    assert_eq!(summary.admission.active, 0);
    assert_eq!(summary.contained_panics, 0);
}

#[test]
fn stats_admin_request_reports_live_counters() {
    let config = test_config();
    let seed = config.seed;
    let n_examples = config.n_examples;
    let (addr, handle, thread) = boot(config);
    let corpus = build_aep(&AepConfig { n_examples, seed });

    let mut client =
        admitted(ServeClient::connect_retry(addr.as_str(), None, Duration::from_secs(10)).unwrap());
    client.ask(&corpus.examples[0].question).expect("ask");
    client.feedback("we are in 2024", None).expect("feedback");

    // Session-less admin fetch while the session is still open.
    let stats = request_stats(addr.as_str()).expect("stats");
    assert_eq!(stats.sessions_opened, 1);
    assert_eq!(stats.questions_served, 1);
    assert_eq!(stats.rounds_served, 1);
    assert_eq!(stats.admission.admitted_direct, 1);
    assert_eq!(stats.sessions_degraded, 0);
    assert!(!stats.store.durable, "no --store configured");
    assert!(stats.store.writable);
    assert!(stats.store.ops >= 3, "Opened + Ask + Feedback journaled");

    // The same request also answers in-session.
    let in_session = client.stats().expect("in-session stats");
    assert_eq!(in_session.sessions_opened, 1);
    client.bye().expect("bye");

    let summary = stop(&handle, thread);
    assert_eq!(summary.sessions_opened, 1);
}

#[test]
fn compaction_preserves_survivors_across_restart_bit_identically() {
    let dir = std::env::temp_dir().join(format!("fisql-serve-compact-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("sessions.fjnl");
    std::fs::remove_file(&store).ok();

    let config = test_config().store(&store);
    let seed = config.seed;
    let n_examples = config.n_examples;
    let corpus = build_aep(&AepConfig { n_examples, seed });

    let (addr, handle, thread) = boot(config.clone());

    // Two sessions complete (compaction fodder)...
    for i in 0..2 {
        let mut client = admitted(
            ServeClient::connect_retry(addr.as_str(), None, Duration::from_secs(10)).unwrap(),
        );
        client.ask(&corpus.examples[i].question).expect("ask");
        client.bye().expect("bye");
    }
    // ...and one survivor stays open across a crash-style disconnect.
    let (survivor_id, before) = {
        let mut client = admitted(
            ServeClient::connect_retry(addr.as_str(), None, Duration::from_secs(10)).unwrap(),
        );
        client.ask(&corpus.examples[5].question).expect("ask");
        client
            .feedback("only the january rows please", None)
            .expect("feedback");
        (client.session_id, client.transcript().expect("transcript"))
    };

    // Admin-triggered compaction drops the two closed sessions.
    let outcome = request_compact(addr.as_str()).expect("compact");
    assert_eq!(outcome.generation, 1);
    assert_eq!(outcome.sessions_dropped, 2);
    let stats = request_stats(addr.as_str()).expect("stats");
    assert_eq!(stats.store.generation, 1);
    assert_eq!(stats.store.compactions, 1);
    stop(&handle, thread);

    // Kill/rebind: only the survivor is recovered, and its replay is
    // byte-identical to the pre-compaction transcript.
    let restarted = Server::bind(config).expect("rebind over compacted store");
    assert_eq!(restarted.recovered_sessions(), vec![survivor_id]);
    let handle = restarted.handle().unwrap();
    let addr = handle.addr().to_string();
    let thread = std::thread::spawn(move || restarted.serve().expect("serve loop"));

    let mut client = admitted(
        ServeClient::connect_retry(addr.as_str(), Some(survivor_id), Duration::from_secs(10))
            .unwrap(),
    );
    let after = client.transcript().expect("transcript");
    assert_eq!(
        serde_json::to_vec(&after).unwrap(),
        serde_json::to_vec(&before).unwrap(),
        "survivor replay diverged after compaction + restart"
    );
    client.bye().expect("bye");
    stop(&handle, thread);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn automatic_compaction_runs_on_the_closed_session_cadence() {
    let dir = std::env::temp_dir().join(format!("fisql-serve-autocompact-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("sessions.fjnl");
    std::fs::remove_file(&store).ok();

    let config = test_config().store(&store).compact_every(2);
    let seed = config.seed;
    let n_examples = config.n_examples;
    let corpus = build_aep(&AepConfig { n_examples, seed });
    let (addr, handle, thread) = boot(config);

    for i in 0..4 {
        let mut client = admitted(
            ServeClient::connect_retry(addr.as_str(), None, Duration::from_secs(10)).unwrap(),
        );
        client
            .ask(&corpus.examples[i % n_examples].question)
            .expect("ask");
        client.bye().expect("bye");
    }
    let stats = request_stats(addr.as_str()).expect("stats");
    assert!(
        stats.store.compactions >= 2,
        "4 closed sessions at --compact-every 2: {stats:?}"
    );
    assert!(stats.store.ops_dropped > 0);

    let summary = stop(&handle, thread);
    assert_eq!(summary.sessions_opened, 4);
    assert!(summary.store.generation >= 2);
    std::fs::remove_dir_all(&dir).ok();
}
