//! Serve-mode load benchmark: throughput and latency of the `fisql
//! serve` daemon under deterministic scripted load.
//!
//! Boots an in-process daemon (ephemeral port, 32 session slots) and
//! drives it at three client concurrency levels — under the cap, at the
//! cap, and 2× over it — with the seeded load generator. Each level
//! reports sessions/s, rounds/s, p50/p99 request latency, and the
//! admission counters; the over-cap level demonstrates backpressure
//! (queued admissions, zero failures). A final pair of runs asserts the
//! load digest is identical across repetitions — per-session transcripts
//! are deterministic regardless of scheduling. A final survivability
//! level mixes seeded chaos clients (slowloris, torn frames, stalls)
//! into the scripted load on a compacting, idle-reaping daemon and
//! reports the reap and compaction counters. Emits `BENCH_serve.json`
//! (its `seed` is the daemon's corpus seed); CI uploads it as a workflow
//! artifact.
//!
//! Run: `cargo run --release -p fisql-bench --bin bench_serve`

use fisql_bench::emit;
use fisql_core::serve::{run_chaos, run_load, ChaosConfig, Server};
use fisql_core::{LoadConfig, ServeConfig, ServerStats};

const MAX_SESSIONS: usize = 32;
const CONCURRENCY_LEVELS: [usize; 3] = [8, 32, 64];

fn main() {
    let serve_config = ServeConfig::default()
        .port(0)
        .max_sessions(MAX_SESSIONS)
        .queue_depth(64)
        .queue_wait_ms(30_000)
        .n_examples(60);
    println!(
        "# Serve load benchmark ({MAX_SESSIONS} session slots, corpus seed {:#x})\n",
        serve_config.seed
    );
    println!(
        "{:>11} {:>9} {:>10} {:>11} {:>9} {:>9} {:>9} {:>9}",
        "concurrency",
        "sessions",
        "wall ms",
        "sessions/s",
        "rounds/s",
        "p50 us",
        "p99 us",
        "queued"
    );

    let mut rows = Vec::new();
    for concurrency in CONCURRENCY_LEVELS {
        let (report, summary) = one_level(&serve_config, concurrency, 0x10AD);
        let queued = summary.admission.admitted_queued;
        println!(
            "{:>11} {:>9} {:>10} {:>11.1} {:>9.1} {:>9} {:>9} {:>9}",
            concurrency,
            report.sessions_completed,
            report.wall_ms,
            report.sessions_per_sec(),
            report.rounds_per_sec(),
            report.latency_percentile_us(50.0),
            report.latency_percentile_us(99.0),
            queued,
        );
        assert_eq!(report.sessions_failed, 0, "load must not fail sessions");
        assert_eq!(
            report.sessions_completed + report.sessions_rejected,
            (2 * concurrency.max(MAX_SESSIONS)) as u64,
            "every scripted session must complete or be explicitly rejected"
        );
        rows.push(serde_json::json!({
            "concurrency": concurrency,
            "sessions": report.sessions_completed,
            "sessions_rejected": report.sessions_rejected,
            "rounds": report.rounds,
            "wall_ms": report.wall_ms,
            "sessions_per_sec": report.sessions_per_sec(),
            "rounds_per_sec": report.rounds_per_sec(),
            "latency_p50_us": report.latency_percentile_us(50.0),
            "latency_p99_us": report.latency_percentile_us(99.0),
            "admitted_queued": queued,
            "peak_active": summary.admission.peak_active,
            "reaped": summary.admission.reaped,
            "degraded": summary.sessions_degraded,
            "compactions": summary.store.compactions,
            "digest": format!("{:#018x}", report.digest),
        }));
    }

    // Determinism across repetitions: same seed, same scripts, same
    // per-session transcripts — the order-insensitive digest must agree.
    let (a, _) = one_level(&serve_config, 16, 0xD1CE);
    let (b, _) = one_level(&serve_config, 16, 0xD1CE);
    assert_eq!(
        a.digest, b.digest,
        "load digest diverged across identical runs"
    );
    println!(
        "\ndigest check: two identical runs agree ({:#018x})",
        a.digest
    );

    // Survivability level: scripted load with seeded chaos clients on a
    // compacting, idle-reaping daemon. The scripted sessions must all
    // complete and the chaos slots must all come back.
    let chaos_serve = serve_config
        .clone()
        .idle_timeout_ms(400)
        .compact_every(8)
        .store(std::env::temp_dir().join(format!("fisql-bench-chaos-{}.fjnl", std::process::id())));
    let server = Server::bind(chaos_serve.clone()).expect("bind chaos level");
    let handle = server.handle().expect("handle");
    let addr = handle.addr().to_string();
    let thread = std::thread::spawn(move || server.serve().expect("serve loop"));
    let chaos_addr = addr.clone();
    let chaos_thread = std::thread::spawn(move || {
        run_chaos(&ChaosConfig {
            addr: chaos_addr,
            clients: 12,
            seed: 0xC4A05,
            byte_pause_ms: 25,
            read_deadline_ms: 30_000,
            connect_retry_ms: 15_000,
            ..ChaosConfig::default()
        })
        .expect("chaos run")
    });
    let report = run_load(&LoadConfig {
        addr,
        sessions: 2 * MAX_SESSIONS,
        concurrency: 16,
        max_rounds: 2,
        seed: 0x10AD,
        corpus_seed: serve_config.seed,
        n_examples: serve_config.n_examples,
        ..LoadConfig::default()
    })
    .expect("load under chaos");
    let chaos_report = chaos_thread.join().expect("chaos thread");
    handle.shutdown();
    let summary = thread.join().expect("server thread");
    if let Some(path) = &chaos_serve.store {
        std::fs::remove_file(path).ok();
    }
    assert_eq!(
        report.sessions_failed, 0,
        "chaos must not fail healthy sessions"
    );
    assert_eq!(chaos_report.failed, 0, "chaos clients must all resolve");
    assert_eq!(summary.admission.active, 0, "every chaos slot must return");
    println!(
        "\nchaos level: {} healthy session(s) completed beside {} attacker(s) — \
         {} reaped, {} compaction(s), {} slot(s) leaked",
        report.sessions_completed,
        chaos_report.clients,
        summary.admission.reaped,
        summary.store.compactions,
        summary.admission.active,
    );

    let json = serde_json::json!({
        "max_sessions": MAX_SESSIONS,
        "queue_depth": 64,
        "n_examples": serve_config.n_examples,
        "levels": rows,
        "digest_stable_across_runs": true,
        "chaos": {
            "clients": chaos_report.clients,
            "admitted": chaos_report.admitted,
            "reaped_observed": chaos_report.reaped,
            "refused": chaos_report.refused,
            "disconnected": chaos_report.disconnected,
            "served": chaos_report.served,
            "reaped": summary.admission.reaped,
            "degraded": summary.sessions_degraded,
            "compactions": summary.store.compactions,
            "store_generation": summary.store.generation,
            "healthy_sessions": report.sessions_completed,
            "healthy_digest": format!("{:#018x}", report.digest),
            "final_active": summary.admission.active,
        },
    });
    emit("serve", serve_config.seed, json);
}

/// Boots a fresh daemon, runs one load level against it, drains it, and
/// returns the load report plus the daemon's final stats.
fn one_level(
    serve_config: &ServeConfig,
    concurrency: usize,
    load_seed: u64,
) -> (fisql_core::LoadReport, ServerStats) {
    let server = Server::bind(serve_config.clone()).expect("bind");
    let handle = server.handle().expect("handle");
    let addr = handle.addr().to_string();
    let thread = std::thread::spawn(move || server.serve().expect("serve loop"));

    let load = LoadConfig {
        addr,
        sessions: 2 * concurrency.max(MAX_SESSIONS),
        concurrency,
        max_rounds: 2,
        seed: load_seed,
        corpus_seed: serve_config.seed,
        n_examples: serve_config.n_examples,
        ..LoadConfig::default()
    };
    let report = run_load(&load).expect("load run");
    handle.shutdown();
    let summary = thread.join().expect("server thread");
    (report, summary)
}
