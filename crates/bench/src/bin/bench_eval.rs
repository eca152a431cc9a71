//! The eval bench: the paper's one experiment — the % of annotated SPIDER
//! errors corrected after feedback rounds (Table 2, Figure 8) — run as
//! one table of variants over one setup.
//!
//! Builds the setup, annotates the feedback set and warms the caches
//! once, then runs five variant groups, asserting each group's contract:
//!
//! - `parallel`: FISQL at 1, 2, 4 and 8 workers; every report is
//!   byte-identical to the serial one (the runner's determinism
//!   contract).
//! - `canon`: the semantic result cache off. Its report equals the
//!   cache-on reports, and at 1, 4 and 8 workers the cache fires and
//!   lowers the measured engine executions (logical executions minus
//!   cache hits).
//! - `search`: Query Rewrite against SearchRefine. The search corrects at
//!   least as many cases and more than none, spends fewer engine
//!   executions per corrected case, prunes statically (the
//!   `executions_skipped_static` / `executions_saved` ledger is not
//!   empty), and is byte-identical at 1 and 2 workers.
//! - `durability`: journaled at 4 workers under each fsync policy. Every
//!   report, and a resume from the full journal, equals the unjournaled
//!   one (the journal is an observer, never a participant).
//! - `resilience`: the chaos stack (`Resilient<FaultyBackend<SimLlm>>`)
//!   at fault rates 0, 5 and 20%; each faulted report is byte-identical
//!   at 1 and 4 workers.
//!
//! Writes one row per measured run to `BENCH_eval.json`, every row in
//! the schema of [`row`]. At CI scale a run takes a few milliseconds, so
//! the wall-clock columns are mostly noise; the deterministic counters
//! and the asserted invariants are the content. Eval throughput of record
//! is perfbench's `eval` workload.
//!
//! Run: `FISQL_SCALE=small cargo run --release -p fisql-bench --bin bench_eval`

use fisql_bench::{annotated_cases, emit, merge, runner, Setup};
use fisql_core::{chaos_stack, CorrectionReport, CorrectionRun, FsyncPolicy, Strategy};
use serde_json::{json, Value};

const ROUNDS: usize = 2;
const RETRY_BUDGET: u32 = 3;
const FISQL: Strategy = Strategy::Fisql {
    routing: true,
    highlighting: false,
};

fn main() {
    let setup = Setup::from_env();
    println!("# Eval bench (seed {})\n", setup.seed);
    let (_, cases) = annotated_cases(&setup, &setup.spider);
    println!("annotated SPIDER feedback set: {} cases", cases.len());

    let fisql = runner(&setup, &setup.spider).strategy(FISQL).rounds(ROUNDS);
    // The first serial run warms the embedding/selection caches, so every
    // variant is measured against the same cache state, and is the
    // reference the byte-identity checks compare against.
    let reference = text(&fisql.workers(1).run(&cases));
    let mut table = Table::default();

    let mut cached = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let report = fisql.workers(workers).run(&cases);
        assert_eq!(
            text(&report),
            reference,
            "report at {workers} workers diverged from serial"
        );
        table.push("parallel", "fisql", &report, json!({}));
        cached.push((workers, report));
    }

    // The cache-on reports above all equal the reference, so this one
    // comparison is cache on ≡ cache off at every worker count.
    let uncached = fisql.workers(1).semantic_cache(false).run(&cases);
    assert_eq!(
        uncached.metrics.executions_skipped_cache, 0,
        "disabled cache must not count hits"
    );
    assert_eq!(
        text(&uncached),
        reference,
        "the semantic cache changed the report"
    );
    for (workers, report) in cached.iter().filter(|(w, _)| [1, 4, 8].contains(w)) {
        let m = &report.metrics;
        assert!(
            m.executions_skipped_cache >= 1,
            "no executions served from cache at {workers} workers"
        );
        assert!(
            m.engine_executions - m.executions_skipped_cache < uncached.metrics.engine_executions,
            "no measured execution drop at {workers} workers"
        );
    }
    table.push("canon", "cache off", &uncached, json!({}));

    let rewrite = fisql
        .strategy(Strategy::QueryRewrite)
        .workers(1)
        .run(&cases);
    let search = fisql
        .strategy(Strategy::SearchRefine)
        .workers(1)
        .run(&cases);
    let corrected = |r: &CorrectionReport| *r.corrected_after_round.last().unwrap_or(&0);
    let per_corrected =
        |r: &CorrectionReport| r.metrics.engine_executions as f64 / corrected(r).max(1) as f64;
    assert!(
        corrected(&search) >= corrected(&rewrite),
        "SearchRefine corrected {} cases, Query Rewrite {}",
        corrected(&search),
        corrected(&rewrite)
    );
    assert!(corrected(&search) > 0, "SearchRefine corrected nothing");
    assert!(
        per_corrected(&search) < per_corrected(&rewrite),
        "SearchRefine spent {:.2} executions per corrected case, Query Rewrite {:.2}",
        per_corrected(&search),
        per_corrected(&rewrite)
    );
    assert!(
        search.executions_skipped_static + search.executions_saved > 0,
        "the repair search pruned nothing statically"
    );
    let search_sharded = fisql
        .strategy(Strategy::SearchRefine)
        .workers(2)
        .run(&cases);
    assert_eq!(
        text(&search_sharded),
        text(&search),
        "SearchRefine report diverged at 2 workers"
    );
    table.push("search", "query rewrite", &rewrite, json!({}));
    table.push("search", "search refine", &search, json!({}));
    table.push("search", "search refine", &search_sharded, json!({}));

    let dir = std::env::temp_dir().join(format!("fisql-bench-eval-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    for policy in [
        FsyncPolicy::Never,
        FsyncPolicy::Batch,
        FsyncPolicy::EachRecord,
    ] {
        let path = dir.join(format!("{policy}.fjnl"));
        let journaled = fisql.workers(4).journal(&path).fsync(policy);
        let report = journaled.run(&cases);
        assert_eq!(
            text(&report),
            reference,
            "journaling under {policy} changed the report"
        );
        let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
        // Resume against the complete journal: everything replays from
        // disk, nothing re-runs, and the report is still identical.
        let resumed = journaled.resume(true).run(&cases);
        assert_eq!(
            text(&resumed),
            reference,
            "full-journal resume under {policy} diverged"
        );
        let extra = json!({
            "journal_bytes": bytes,
            "resume_wall_ms": resumed.metrics.wall_ms,
        });
        table.push("durability", &format!("fsync {policy}"), &report, extra);
    }
    std::fs::remove_dir_all(&dir).ok();

    for rate in [0.0f64, 0.05, 0.20] {
        let chaos = chaos_stack(&setup.llm, rate, RETRY_BUDGET);
        let run = CorrectionRun::new(&setup.spider, &chaos, &setup.user)
            .demos_k(3)
            .strategy(FISQL)
            .rounds(ROUNDS);
        let serial = run.workers(1).run(&cases);
        let parallel = run.workers(4).run(&cases);
        assert_eq!(
            text(&parallel),
            text(&serial),
            "faulted report at 4 workers diverged from serial (rate {rate})"
        );
        let variant = format!("fault {}%", rate * 100.0);
        table.push(
            "resilience",
            &variant,
            &parallel,
            json!({ "fault_rate": rate }),
        );
    }

    emit(
        "eval",
        setup.seed,
        json!({
            "cases": cases.len(),
            "rounds": ROUNDS,
            "retry_budget": RETRY_BUDGET,
            "rows": table.0,
        }),
    );
}

/// The serialized report — what the byte-identity checks compare.
fn text(report: &CorrectionReport) -> String {
    serde_json::to_string(report).expect("serialize report")
}

/// One `BENCH_eval.json` row: the run's throughput, its deterministic
/// counters, and the resilience telemetry. Group-only columns
/// (`journal_bytes`, `resume_wall_ms`, `fault_rate`) follow it in the
/// groups that have them.
fn row(group: &str, variant: &str, report: &CorrectionReport) -> Value {
    let m = &report.metrics;
    let r = &m.resilience;
    json!({
        "group": group,
        "variant": variant,
        "strategy": report.strategy,
        "workers": m.workers,
        "wall_ms": m.wall_ms,
        "cases_per_sec": m.cases_per_sec,
        "corrected_after_round": report.corrected_after_round,
        "engine_executions": m.engine_executions,
        "executions_skipped_cache": m.executions_skipped_cache,
        "executions_skipped_static": report.executions_skipped_static,
        "executions_saved": report.executions_saved,
        "degraded_rounds": report.degraded_rounds,
        "cases_degraded": report.cases_degraded,
        "backend_calls": r.calls,
        "attempts": r.attempts,
        "retries": r.retries,
        "exhausted": r.exhausted,
        "breaker_trips": r.breaker_trips,
        "breaker_fast_fails": r.breaker_fast_fails,
    })
}

/// The printed table's column heads, aligned with [`Table::push`].
const HEADER: &str = "     group        variant workers  wall ms   cases/s corrected  \
                      execs cached static saved degraded retries";

/// The rows so far, printed as they are added.
#[derive(Default)]
struct Table(Vec<Value>);

impl Table {
    /// Prints and records one run, with the group-only columns in
    /// `extra` (a JSON object, empty for most groups).
    fn push(&mut self, group: &str, variant: &str, report: &CorrectionReport, extra: Value) {
        if self.0.is_empty() {
            println!("\n{HEADER}");
        }
        let m = &report.metrics;
        println!(
            "{:>10} {:>14} {:>7} {:>8.2} {:>9.1} {:>9} {:>6} {:>6} {:>6} {:>5} {:>8} {:>7}",
            group,
            variant,
            m.workers,
            m.wall_ms,
            m.cases_per_sec,
            format!("{:?}", report.corrected_after_round),
            m.engine_executions,
            m.executions_skipped_cache,
            report.executions_skipped_static,
            report.executions_saved,
            report.degraded_rounds,
            m.resilience.retries,
        );
        self.0.push(merge(row(group, variant, report), extra));
    }
}
