//! Cross-crate integration tests: the full paper pipeline, wired exactly
//! as the experiment binaries run it, checked for its headline invariants.

use fisql::prelude::*;

fn setup() -> (Corpus, Corpus, SimLlm, SimUser) {
    let spider = build_spider(&SpiderConfig {
        n_databases: 20,
        n_examples: 160,
        seed: 0xE2E,
    });
    let aep = build_aep(&AepConfig {
        n_examples: 80,
        seed: 0xE2E ^ 0xAE9,
    });
    let llm = SimLlm::new(LlmConfig::default());
    let user = SimUser::new(UserConfig::default());
    (spider, aep, llm, user)
}

#[test]
fn figure2_shape_spider_far_above_aep() {
    let (spider, aep, llm, _) = setup();
    let s = zero_shot_report(&spider, &llm);
    let a = zero_shot_report(&aep, &llm);
    assert!(
        s.accuracy() > a.accuracy() + 0.25,
        "SPIDER {:.3} should dominate AEP {:.3} by a wide margin",
        s.accuracy(),
        a.accuracy()
    );
    assert!(s.accuracy() > 0.5 && s.accuracy() < 0.9);
    assert!(a.accuracy() < 0.45);
}

#[test]
fn table2_shape_fisql_beats_rewrite_on_both_datasets() {
    let (spider, aep, llm, user) = setup();
    for corpus in [&spider, &aep] {
        let run = CorrectionRun::new(corpus, &llm, &user).demos_k(3).rounds(1);
        let errors = run.collect_errors();
        let cases = run.annotate(&errors);
        assert!(
            cases.len() >= 10,
            "{}: too few annotated cases ({})",
            corpus.name,
            cases.len()
        );
        let fisql = run
            .strategy(Strategy::Fisql {
                routing: true,
                highlighting: false,
            })
            .run(&cases);
        let rewrite = run.strategy(Strategy::QueryRewrite).run(&cases);
        assert!(
            fisql.corrected_after_round[0] as f64 >= 1.3 * rewrite.corrected_after_round[0] as f64,
            "{}: FISQL {} vs rewrite {} (expected a wide win)",
            corpus.name,
            fisql.corrected_after_round[0],
            rewrite.corrected_after_round[0]
        );
    }
}

#[test]
fn figure8_shape_round_two_improves_and_converges() {
    let (spider, _, llm, user) = setup();
    let run = CorrectionRun::new(&spider, &llm, &user)
        .demos_k(3)
        .rounds(2);
    let errors = run.collect_errors();
    let cases = run.annotate(&errors);
    let fisql = run
        .strategy(Strategy::Fisql {
            routing: true,
            highlighting: false,
        })
        .run(&cases);
    let no_routing = run
        .strategy(Strategy::Fisql {
            routing: false,
            highlighting: false,
        })
        .run(&cases);
    // Round 2 strictly helps.
    assert!(fisql.corrected_after_round[1] > fisql.corrected_after_round[0]);
    assert!(no_routing.corrected_after_round[1] > no_routing.corrected_after_round[0]);
    // Near-convergence of the ablation after two rounds (paper: equal).
    let diff = fisql.corrected_after_round[1] as i64 - no_routing.corrected_after_round[1] as i64;
    assert!(
        diff.abs() as f64 <= 0.12 * cases.len() as f64,
        "no convergence: FISQL {} vs -Routing {} of {}",
        fisql.corrected_after_round[1],
        no_routing.corrected_after_round[1],
        cases.len()
    );
}

#[test]
fn whole_pipeline_is_deterministic() {
    let run_once = || {
        let (spider, _, llm, user) = setup();
        let run = CorrectionRun::new(&spider, &llm, &user)
            .demos_k(3)
            .rounds(2)
            .strategy(Strategy::Fisql {
                routing: true,
                highlighting: false,
            });
        let errors = run.collect_errors();
        let cases = run.annotate(&errors);
        let report = run.run(&cases);
        (errors.len(), cases.len(), report.corrected_after_round)
    };
    assert_eq!(run_once(), run_once());
}

#[test]
fn annotated_cases_only_cover_real_errors() {
    let (spider, _, llm, user) = setup();
    let run = CorrectionRun::new(&spider, &llm, &user).demos_k(3);
    let errors = run.collect_errors();
    let cases = run.annotate(&errors);
    for case in &cases {
        let example = &spider.examples[case.error.example_idx];
        let db = spider.database(example);
        // The initial prediction really is wrong.
        let verdict = fisql_spider::check_prediction(db, example, &case.error.initial);
        assert!(!verdict.is_correct());
        // And the feedback text is non-empty.
        assert!(!case.feedback.text.trim().is_empty());
    }
}

#[test]
fn corrections_are_verified_by_execution_not_syntax() {
    // A corrected query may differ syntactically from gold; correction is
    // judged by execution match. Verify at least one corrected case is
    // *not* structurally identical to gold.
    let (spider, _, llm, user) = setup();
    let run = CorrectionRun::new(&spider, &llm, &user).demos_k(3);
    let errors = run.collect_errors();
    let cases = run.annotate(&errors);
    let mut corrected_any = false;
    for case in &cases {
        let example = &spider.examples[case.error.example_idx];
        let db = spider.database(example);
        let out = fisql_core::try_incorporate(
            Strategy::Fisql {
                routing: true,
                highlighting: false,
            },
            &llm,
            &fisql_core::IncorporateContext {
                db,
                example,
                question: &example.question,
                previous: &normalize_query(&case.error.initial),
                feedback: &case.feedback,
                round: 0,
                conformance_gate: false,
            },
        )
        .unwrap();
        if fisql_spider::check_prediction(db, example, &out.query).is_correct() {
            corrected_any = true;
        }
    }
    assert!(corrected_any, "no case was corrected at all");
}

#[test]
fn gate_corrects_hallucinated_column_without_engine_execution() {
    // A candidate referencing a column that exists nowhere in the schema
    // (a hallucinated name one typo away from a real one) is caught by the
    // static analyzer inside the incorporation step: repaired before it
    // could burn an engine execution, with the diagnostics folded into the
    // regeneration prompt.
    let aep = build_aep(&AepConfig {
        n_examples: 3,
        seed: 21,
    });
    let e = &aep.examples[0];
    let db = aep.database(e);
    let previous = normalize_query(
        &parse_query("SELECT COUNT(*) FROM hkg_dim_segment WHERE createdTme >= '2024-01-01'")
            .unwrap(),
    );
    // Feedback no interpreter can ground: the model regenerates the same
    // (still hallucinated) query, so only the gate stands between the typo
    // and the engine.
    let feedback = Feedback {
        text: "please make it nicer".into(),
        highlight: None,
        intended: vec![],
        misaligned: false,
    };
    let llm = SimLlm::new(LlmConfig::default());
    let out = try_incorporate(
        Strategy::Fisql {
            routing: true,
            highlighting: false,
        },
        &llm,
        &IncorporateContext {
            db,
            example: e,
            question: &e.question,
            previous: &previous,
            feedback: &feedback,
            round: 0,
            conformance_gate: false,
        },
    )
    .unwrap();
    assert!(out.gate.has_errors(), "gate saw no errors");
    assert!(
        out.gate.repaired,
        "gate did not repair: {}",
        print_query(&out.query)
    );
    assert_eq!(out.gate.executions_saved, 1);
    // Identifiers are normalized to lowercase, so compare that way.
    let sql = print_query(&out.query);
    assert!(sql.contains("createdtime"), "not corrected: {sql}");
    assert!(!sql.contains("createdtme"), "typo survived: {sql}");
    // The prompt carries the analyzer's findings for the next round.
    assert!(out.prompt.contains("static analysis"), "{}", out.prompt);
    assert!(out.prompt.contains("createdtme"), "{}", out.prompt);
    // And the repaired query executes cleanly.
    assert!(execute_sql(db, &sql).is_ok());
}

#[test]
fn session_transcript_records_full_conversation() {
    let aep = build_aep(&AepConfig {
        n_examples: 3,
        seed: 77,
    });
    let e = &aep.examples[0];
    let llm = SimLlm::new(LlmConfig::default());
    let assistant = Assistant::for_corpus(&aep, llm.clone(), 2);
    let mut session = Session::new(
        aep.database(e),
        assistant,
        Strategy::Fisql {
            routing: true,
            highlighting: false,
        },
    );
    session.ask(e);
    session.give_feedback(&llm, e, "we are in 2024", None);
    let transcript = session.render_transcript();
    assert_eq!(transcript.matches("User>").count(), 2);
    assert_eq!(transcript.matches("Assistant>").count(), 2);
}
