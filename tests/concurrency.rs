//! Concurrency contracts of the parallel evaluation runner:
//! thread-safety of the shared components, bit-identical reports at any
//! worker count, and cache-correctness of the memoized retrieval paths.

use fisql::prelude::*;

fn setup() -> (Corpus, SimLlm, SimUser) {
    let corpus = build_spider(&SpiderConfig {
        n_databases: 12,
        n_examples: 96,
        seed: 0xC0C0,
    });
    let llm = SimLlm::new(LlmConfig::default());
    let user = SimUser::new(UserConfig::default());
    (corpus, llm, user)
}

#[test]
fn shared_components_are_send_and_sync() {
    // The runner borrows these across scoped worker threads; if any of
    // them loses Send + Sync the whole design is void. Compile-time-only.
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Database>();
    assert_send_sync::<Corpus>();
    assert_send_sync::<SimLlm>();
    assert_send_sync::<SimUser>();
    assert_send_sync::<DemoStore>();
    // The backend trait object the generic runner accepts.
    assert_send_sync::<&dyn FallibleLanguageModel>();
}

#[test]
fn serial_and_parallel_reports_are_bit_identical() {
    let (corpus, llm, user) = setup();
    let run = CorrectionRun::new(&corpus, &llm, &user)
        .demos_k(3)
        .rounds(2);
    let errors = run.workers(1).collect_errors();
    let cases = run.workers(1).annotate(&errors);
    assert!(
        cases.len() >= 5,
        "need a non-trivial case set, got {}",
        cases.len()
    );

    for strategy in [
        Strategy::Fisql {
            routing: true,
            highlighting: false,
        },
        Strategy::Fisql {
            routing: true,
            highlighting: true,
        },
        Strategy::QueryRewrite,
    ] {
        let serial = run.strategy(strategy).workers(1).run(&cases);
        let serial_json = serde_json::to_string(&serial).unwrap();
        // Workers take cases from one shared cursor: 3 and 7 leave an
        // uneven tail, and the last count is more workers than cases.
        for workers in [2usize, 3, 7, 8, cases.len() + 3] {
            let parallel = run.strategy(strategy).workers(workers).run(&cases);
            assert_eq!(
                serde_json::to_string(&parallel).unwrap(),
                serial_json,
                "{} report diverged at {workers} workers",
                serial.strategy
            );
        }
    }
}

/// The semantic result cache is an execution-count optimization, never
/// an observable one: the serialized correction report is byte-identical
/// with the cache on and off, at every worker count. (Cache counters
/// live in the unserialized run metrics, and every verdict charges its
/// logical execution cost whether or not the engine actually ran.)
#[test]
fn semantic_cache_reports_are_bit_identical() {
    let (corpus, llm, user) = setup();
    let run = CorrectionRun::new(&corpus, &llm, &user)
        .demos_k(3)
        .rounds(2);
    let errors = run.workers(1).collect_errors();
    let cases = run.workers(1).annotate(&errors);

    let baseline = run.workers(1).semantic_cache(false).run(&cases);
    let baseline_json = serde_json::to_string(&baseline).unwrap();
    assert_eq!(
        baseline.metrics.executions_skipped_cache, 0,
        "disabled cache must not count hits"
    );
    for workers in [1usize, 4, 8] {
        let cached = run.workers(workers).semantic_cache(true).run(&cases);
        assert_eq!(
            serde_json::to_string(&cached).unwrap(),
            baseline_json,
            "cached report diverged from uncached at {workers} workers"
        );
    }
    // The cache actually fires on this corpus — the invariance above is
    // not vacuous.
    let cached = run.workers(1).semantic_cache(true).run(&cases);
    assert!(
        cached.metrics.executions_skipped_cache > 0,
        "semantic cache never hit on a corpus with repeated equivalent queries"
    );
}

#[test]
fn error_collection_is_worker_count_invariant() {
    let (corpus, llm, user) = setup();
    let run = CorrectionRun::new(&corpus, &llm, &user).demos_k(3);
    let serial = run.workers(1).collect_errors();
    let parallel = run.workers(8).collect_errors();
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.example_idx, b.example_idx);
        assert_eq!(a.initial, b.initial);
        assert_eq!(a.execution_error, b.execution_error);
    }
}

#[test]
fn cached_retrieval_equals_fresh_retrieval() {
    // The concurrent embedding cache must be invisible to results: a
    // store built after the cache is warm retrieves exactly what a
    // fresh computation does.
    let demos: Vec<Demonstration> = (0..20)
        .map(|i| Demonstration {
            question: format!("how many singers are older than {i}"),
            sql: format!("SELECT COUNT(*) FROM singer WHERE age > {i}"),
        })
        .collect();
    let cold = DemoStore::new(demos.clone());
    let cold_result: Vec<String> = cold
        .retrieve("how many singers are older than 7", 5)
        .into_iter()
        .map(|d| d.sql.clone())
        .collect();
    // Second store: every embedding now comes from the warm cache.
    let warm = DemoStore::new(demos);
    let warm_result: Vec<String> = warm
        .retrieve("how many singers are older than 7", 5)
        .into_iter()
        .map(|d| d.sql.clone())
        .collect();
    assert_eq!(cold_result, warm_result);
}

#[test]
fn concurrent_runs_do_not_interfere() {
    // Two full correction runs on separate threads, sharing the global
    // caches, must each equal the run executed alone.
    let (corpus, llm, user) = setup();
    let run = CorrectionRun::new(&corpus, &llm, &user)
        .demos_k(3)
        .rounds(1);
    let errors = run.collect_errors();
    let cases = run.annotate(&errors);
    let alone = serde_json::to_string(&run.workers(2).run(&cases)).unwrap();
    let (a, b) = std::thread::scope(|s| {
        let ha = s.spawn(|| serde_json::to_string(&run.workers(2).run(&cases)).unwrap());
        let hb = s.spawn(|| serde_json::to_string(&run.workers(2).run(&cases)).unwrap());
        (ha.join().unwrap(), hb.join().unwrap())
    });
    assert_eq!(a, alone);
    assert_eq!(b, alone);
}
