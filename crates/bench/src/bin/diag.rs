//! Diagnostic: failure-mode breakdown for FISQL round-1 corrections,
//! plus the static-analysis gate's per-strategy catch rate (candidates
//! flagged/repaired before execution vs. failed at the engine), plus the
//! runner's containment accounting under a panic-injecting chaos stack.
//! Not part of the paper's tables; used for calibration analysis.

use fisql_bench::{annotated_cases, Setup};
use fisql_core::{
    analyze_round, try_incorporate, CorrectionRun, FailureCause, IncorporateContext, Strategy,
};
use fisql_engine::execute;
use fisql_llm::{FaultConfig, FaultyBackend, ResilienceConfig, Resilient};
use fisql_sqlkit::{
    diff_queries, locate_faults, normalize_query, print_query_spanned, same_clause_family,
    LocateOptions,
};

fn main() {
    let setup = Setup::from_env();
    for (name, corpus) in [("SPIDER", &setup.spider), ("EP", &setup.aep)] {
        let (_, cases) = annotated_cases(&setup, corpus);
        // The failure taxonomy is `analyze_round`'s; only the count of
        // initial predictions needing several logical edits is local.
        let fisql = Strategy::Fisql {
            routing: true,
            highlighting: false,
        };
        let analysis = analyze_round(corpus, &cases, fisql, &setup.llm);
        let failed =
            |cause: FailureCause| analysis.failures.get(cause.label()).copied().unwrap_or(0);
        let initial_multi = cases
            .iter()
            .filter(|case| {
                let example = &corpus.examples[case.error.example_idx];
                let d0 = diff_queries(&normalize_query(&case.error.initial), &example.gold);
                fisql_feedback::year_shift_target(&d0).is_none() && d0.len() > 1
            })
            .count();
        println!(
            "{name}: total {} ok {} | misaligned {} interp-fail {} apply-fail {} multi-partial {} ambiguous {} other {} (initial multi-edit {})",
            analysis.total,
            analysis.corrected,
            failed(FailureCause::MisalignedFeedback),
            failed(FailureCause::InterpretationFailure),
            failed(FailureCause::ApplicationFailure),
            failed(FailureCause::MultipleErrors),
            failed(FailureCause::WrongGrounding),
            failed(FailureCause::Other),
            initial_multi
        );

        // Localization accuracy: does the top-ranked fault site land on a
        // clause the gold diff actually edits? Top-1 requires the first
        // site to hit; top-3 any of the first three; `sites` counts cases
        // where localization produced anything at all. The gold diff's
        // clause spans (via the spanned printer) are the ground truth.
        let mut top1 = 0u64;
        let mut top3 = 0u64;
        let mut any_sites = 0u64;
        for case in &cases {
            let example = &corpus.examples[case.error.example_idx];
            let db = corpus.database(example);
            let previous = normalize_query(&case.error.initial);
            let schema = db.schema_info();
            let sites = locate_faults(
                &previous,
                &schema,
                LocateOptions {
                    feedback: Some(&case.feedback.text),
                    highlight: case.feedback.highlight,
                },
            );
            if sites.is_empty() {
                continue;
            }
            any_sites += 1;
            let gold_edits = diff_queries(&previous, &example.gold);
            let spanned = print_query_spanned(&previous);
            let hit = |site: &fisql_sqlkit::FaultSite| {
                gold_edits.iter().any(|e| {
                    let clause = e.clause();
                    same_clause_family(&site.clause, &clause)
                        || spanned
                            .span_of(&clause)
                            .is_some_and(|s| site.span.start < s.end && s.start < site.span.end)
                })
            };
            if hit(&sites[0]) {
                top1 += 1;
                top3 += 1;
            } else if sites.iter().take(3).any(hit) {
                top3 += 1;
            }
        }
        println!(
            "{name} localization: top-1 {top1}/{any_sites}, top-3 {top3}/{any_sites} ({} case(s) without sites)",
            cases.len() as u64 - any_sites
        );

        // Static-analysis gate: per strategy, how many round-1 candidates
        // the analyzer flags (and typo-repairs) before they can reach the
        // engine, vs. how many of the gated candidates still fail there.
        for strategy in [
            fisql,
            Strategy::FisqlDynamic,
            Strategy::QueryRewrite,
            Strategy::SearchRefine,
        ] {
            let mut flagged = 0u64;
            let mut repaired = 0u64;
            let mut saved = 0u64;
            let mut exec_failed = 0u64;
            for case in &cases {
                let example = &corpus.examples[case.error.example_idx];
                let db = corpus.database(example);
                let out = try_incorporate(
                    strategy,
                    &setup.llm,
                    &IncorporateContext {
                        db,
                        example,
                        question: &example.question,
                        previous: &normalize_query(&case.error.initial),
                        feedback: &case.feedback,
                        round: 0,
                        conformance_gate: false,
                    },
                )
                .expect("SimLlm never returns a backend error");
                if out.gate.has_errors() {
                    flagged += 1;
                }
                if out.gate.repaired {
                    repaired += 1;
                }
                saved += out.gate.executions_saved;
                if execute(db, &out.query).is_err() {
                    exec_failed += 1;
                }
            }
            println!(
                "{name} gate [{}]: statically flagged {flagged} (repaired {repaired}, executions saved {saved}) | failed at engine {exec_failed} of {}",
                strategy.name(),
                cases.len()
            );
        }

        // Containment accounting: the same case set under a chaos stack
        // that also injects client-side panics. Every panic must land in
        // `cases_crashed` (never abort the run); the split between
        // crashed, degraded, and completed cases is the diagnostic.
        let crashing = Resilient::new(
            FaultyBackend::new(
                setup.llm.clone(),
                FaultConfig {
                    panic: 0.05,
                    ..FaultConfig::uniform(0.2)
                },
            ),
            ResilienceConfig {
                attempt_budget: 3,
                ..Default::default()
            },
        );
        let report = CorrectionRun::new(corpus, &crashing, &setup.user)
            .demos_k(3)
            .rounds(2)
            .workers(4)
            .run(&cases);
        println!(
            "{name} containment: {} of {} case(s) crashed (isolated), {} timed out, {} degraded, {} rounds degraded",
            report.cases_crashed,
            report.total,
            report.cases_timed_out,
            report.cases_degraded,
            report.degraded_rounds,
        );
    }
}
