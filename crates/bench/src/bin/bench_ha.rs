//! Hot-standby replication benchmark: what a failover costs and what
//! replication sustains.
//!
//! Two parts:
//!
//! 1. **Steady state** — a primary/follower pair on ephemeral ports,
//!    scripted load against the primary; reports records shipped per
//!    second and the follower's lag once the load drains (must be 0
//!    after a quiesce).
//! 2. **Kill levels** — the deterministic [`run_failover`] harness
//!    stages baseline → HA pair → `kill -9` at three points (mid-load,
//!    during compaction, at a replication-lag boundary) and reports
//!    client re-attach latency p50/p99, failovers, lost rounds, and
//!    whether the surviving transcript digest matches the unfailed
//!    baseline. Quorum levels assert zero loss and digest identity.
//!
//! Emits `BENCH_ha.json`; CI uploads it as a workflow artifact.
//!
//! Run: `cargo run --release -p fisql-bench --bin bench_ha`

use fisql_core::serve::{run_failover, run_load, AckMode, FailoverConfig, KillPoint, Server};
use fisql_core::{LoadConfig, ServeConfig};
use std::path::PathBuf;

fn temp_store(tag: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("fisql-bench-ha-{tag}-{}.fjnl", std::process::id()));
    std::fs::remove_file(&path).ok();
    path
}

fn main() {
    let small = std::env::var("FISQL_SCALE").is_ok_and(|s| s == "small");
    let sessions = if small { 16 } else { 32 };
    let serve = ServeConfig::default().port(0).n_examples(24);
    println!(
        "# Hot-standby replication benchmark ({sessions} scripted sessions, corpus seed {:#x})\n",
        serve.seed
    );

    // ---- Steady state: one pair, load on the primary only.
    let p_store = temp_store("steady-primary");
    let f_store = temp_store("steady-follower");
    let primary = Server::bind(
        serve
            .clone()
            .store(&p_store)
            .repl_listen("127.0.0.1:0")
            .repl_ack(AckMode::Quorum),
    )
    .expect("bind primary");
    let repl_addr = primary.repl_addr().expect("repl listener");
    let p_handle = primary.handle().expect("handle");
    let p_addr = p_handle.addr().to_string();
    let p_thread = std::thread::spawn(move || primary.serve().expect("primary loop"));
    let follower = Server::bind(
        serve
            .clone()
            .store(&f_store)
            .replica_of(repl_addr.to_string())
            .auto_promote(false),
    )
    .expect("bind follower");
    let f_handle = follower.handle().expect("handle");
    let f_thread = std::thread::spawn(move || follower.serve().expect("follower loop"));

    let steady = run_load(&LoadConfig {
        addr: p_addr,
        sessions,
        concurrency: 8,
        max_rounds: 2,
        seed: 0x51EAD,
        corpus_seed: serve.seed,
        n_examples: serve.n_examples,
        connect_retry_ms: 10_000,
        ..LoadConfig::default()
    })
    .expect("steady load");
    assert_eq!(steady.sessions_failed, 0, "steady load must not fail");
    let stats = steady.stats.as_ref().expect("primary stats");
    let shipped = stats.repl_records_shipped;
    let records_per_sec = 1000.0 * shipped as f64 / steady.wall_ms.max(1) as f64;
    let lag_after_drain = p_handle.repl().log.lag();
    println!(
        "steady state: {} record(s) shipped in {:.1} s — {:.1} records/s, \
         lag after drain {} (quorum acks, {} timeout(s))",
        shipped,
        steady.wall_ms as f64 / 1000.0,
        records_per_sec,
        lag_after_drain,
        stats.repl_ack_timeouts,
    );
    f_handle.shutdown();
    f_thread.join().expect("follower thread");
    p_handle.shutdown();
    p_thread.join().expect("primary thread");
    std::fs::remove_file(&p_store).ok();
    std::fs::remove_file(&f_store).ok();

    // ---- Kill levels: the deterministic failover harness.
    println!(
        "\n{:>18} {:>7} {:>9} {:>10} {:>11} {:>11} {:>7}",
        "kill point", "ack", "failovers", "lost", "p50 us", "p99 us", "digest"
    );
    // Load seeds are the ones the failover integration suite uses. The
    // primary fires each kill itself at an exact count, so the kill
    // lands on live sessions whenever the load reaches its point; the
    // seeds only keep digests comparable across runs.
    let levels: [(&str, AckMode, KillPoint, u64, u64); 3] = [
        (
            "after-rounds",
            AckMode::Quorum,
            KillPoint::AfterRounds(2),
            0,
            0xFA11,
        ),
        (
            "during-compaction",
            AckMode::Quorum,
            KillPoint::DuringCompaction,
            2,
            0xC0AC,
        ),
        (
            "lag-boundary",
            AckMode::None,
            KillPoint::LagBoundary,
            0,
            0x1A6B,
        ),
    ];
    let mut rows = Vec::new();
    for (name, ack, kill, compact_every, load_seed) in levels {
        let mut level_serve = serve.clone().repl_ack(ack).repl_ack_timeout_ms(5_000);
        if compact_every > 0 {
            level_serve = level_serve.compact_every(compact_every);
        }
        // The compaction-triggered kill leaves load to run *after* the
        // first rewrite.
        let level_sessions = if kill == KillPoint::DuringCompaction {
            sessions * 4
        } else {
            sessions
        };
        let config = FailoverConfig {
            serve: level_serve,
            baseline_store: temp_store(&format!("{name}-baseline")),
            primary_store: temp_store(&format!("{name}-primary")),
            follower_store: temp_store(&format!("{name}-follower")),
            sessions: level_sessions,
            concurrency: 4,
            max_rounds: 2,
            load_seed,
            kill,
            reattach_budget_ms: 20_000,
        };
        let report = run_failover(&config).expect("failover run");
        for path in [
            &config.baseline_store,
            &config.primary_store,
            &config.follower_store,
        ] {
            std::fs::remove_file(path).ok();
        }
        assert_eq!(report.ha.sessions_failed, 0, "{name}: sessions failed");
        assert!(report.failovers >= 1, "{name}: the kill must be felt");
        if ack == AckMode::Quorum {
            assert_eq!(report.lost_rounds, 0, "{name}: quorum lost rounds");
            assert!(report.digests_match, "{name}: quorum digest diverged");
        }
        let p50 = report.ha.failover_percentile_us(50.0);
        let p99 = report.ha.failover_percentile_us(99.0);
        println!(
            "{:>18} {:>7} {:>9} {:>10} {:>11} {:>11} {:>7}",
            name,
            ack.to_string(),
            report.failovers,
            report.lost_rounds,
            p50,
            p99,
            if report.digests_match {
                "match"
            } else {
                "DIFF"
            },
        );
        rows.push(serde_json::json!({
            "kill_point": name,
            "ack": ack.to_string(),
            "sessions": report.ha.sessions_completed,
            "failovers": report.failovers,
            "lost_rounds": report.lost_rounds,
            "failover_p50_us": p50,
            "failover_p99_us": p99,
            "digests_match": report.digests_match,
            "survivor_role": report.survivor.as_ref().map(|s| format!("{:?}", s.role)),
            "survivor_epoch": report.survivor.as_ref().map(|s| s.epoch),
            "survivor_lag_records": report.survivor.as_ref().map(|s| s.replication_lag_records),
            "ha_wall_ms": report.ha.wall_ms,
            "baseline_wall_ms": report.baseline.wall_ms,
        }));
    }

    let json = serde_json::json!({
        "sessions": sessions,
        "corpus_seed": serve.seed,
        "n_examples": serve.n_examples,
        "steady_state": {
            "records_shipped": shipped,
            "records_per_sec": records_per_sec,
            "lag_after_drain": lag_after_drain,
            "ack_timeouts": stats.repl_ack_timeouts,
            "wall_ms": steady.wall_ms,
        },
        "kill_levels": rows,
    });
    let out = "BENCH_ha.json";
    std::fs::write(out, json.to_string()).expect("write BENCH_ha.json");
    println!("\nwrote {out}");
}
