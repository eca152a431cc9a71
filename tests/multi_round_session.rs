//! Multi-round conversation behavior: sequential corrections (paper
//! Figure 8's mechanism at the session level), strategy switching, and
//! transcript integrity.

use fisql::prelude::*;
use fisql_core::Assistant;

/// Builds an example with two forced misreadings (wrong year + a spurious
/// extra column), so correcting it takes two feedback rounds.
fn two_error_setup() -> (Corpus, Example, SimLlm) {
    let corpus = build_aep(&AepConfig {
        n_examples: 6,
        seed: 0x2E2,
    });
    let mut example = corpus.examples[0].clone();
    example
        .channels
        .retain(|wc| matches!(wc.channel.kind(), "year-default" | "extra-column"));
    // An extra-column channel may not be present on the flagship; add one
    // deterministically.
    if !example
        .channels
        .iter()
        .any(|wc| wc.channel.kind() == "extra-column")
    {
        example.channels.push(fisql_spider::WeightedChannel {
            channel: fisql_spider::ErrorChannel::ExtraColumn {
                column: "segment_name".into(),
            },
            weight: 1.0,
        });
    }
    let llm = SimLlm::new(LlmConfig {
        seed: 3,
        calibration: Calibration {
            base_fire_rate: 10.0,
            max_fire_prob: 1.0,
            router_noise: 0.0,
            edit_apply_with_routing: 1.0,
            edit_apply_without_routing: 1.0,
            moderate_edit_reliability: 1.0,
            structural_edit_reliability: 1.0,
            ..Default::default()
        },
    });
    (corpus, example, llm)
}

#[test]
fn two_errors_need_two_rounds_and_then_match() {
    let (corpus, example, llm) = two_error_setup();
    let db = &corpus.databases[0];
    let assistant = Assistant {
        llm: llm.clone(),
        store: DemoStore::new(vec![]),
        demos_k: 0,
    };
    let mut session = fisql_core::Session::new(
        db,
        assistant,
        Strategy::Fisql {
            routing: true,
            highlighting: false,
        },
    );
    let first = session.ask(&example);
    // Both channels fired.
    assert!(first.sql_text.contains("2023"), "{}", first.sql_text);
    assert!(
        first.sql_text.to_lowercase().contains("segment_name"),
        "{}",
        first.sql_text
    );

    // Round 1: fix the year. Still wrong (extra column).
    let after_year = session.give_feedback(&llm, &example, "we are in 2024", None);
    assert!(
        after_year.sql_text.contains("2024"),
        "{}",
        after_year.sql_text
    );
    assert!(
        !structurally_equal(&after_year.query, &example.gold),
        "one round should not fix both errors"
    );

    // Round 2: drop the stray column. Now execution-correct.
    let fixed = session.give_feedback(&llm, &example, "do not give segment names", None);
    assert!(
        structurally_equal(&fixed.query, &example.gold),
        "after two rounds: {}",
        fixed.sql_text
    );

    // Transcript has 3 user turns and 3 assistant turns.
    let t = session.render_transcript();
    assert_eq!(t.matches("User>").count(), 3);
    assert_eq!(t.matches("Assistant>").count(), 3);
}

#[test]
fn feedback_order_does_not_matter() {
    let (corpus, example, llm) = two_error_setup();
    let db = &corpus.databases[0];
    let assistant = Assistant {
        llm: llm.clone(),
        store: DemoStore::new(vec![]),
        demos_k: 0,
    };
    let mut session = fisql_core::Session::new(
        db,
        assistant,
        Strategy::Fisql {
            routing: true,
            highlighting: false,
        },
    );
    session.ask(&example);
    session.give_feedback(&llm, &example, "do not give segment names", None);
    let fixed = session.give_feedback(&llm, &example, "we are in 2024", None);
    assert!(
        structurally_equal(&fixed.query, &example.gold),
        "reverse order failed: {}",
        fixed.sql_text
    );
}

#[test]
fn asking_again_resets_the_round_counter() {
    let (corpus, example, llm) = two_error_setup();
    let db = &corpus.databases[0];
    let assistant = Assistant {
        llm: llm.clone(),
        store: DemoStore::new(vec![]),
        demos_k: 0,
    };
    let mut session = fisql_core::Session::new(
        db,
        assistant,
        Strategy::Fisql {
            routing: true,
            highlighting: false,
        },
    );
    let a = session.ask(&example);
    session.give_feedback(&llm, &example, "we are in 2024", None);
    // Re-asking returns to the same deterministic initial answer.
    let b = session.ask(&example);
    assert_eq!(
        a.sql_text, b.sql_text,
        "initial answers must be reproducible"
    );
}

#[test]
fn query_rewrite_session_changes_question_across_rounds() {
    let (corpus, example, llm) = two_error_setup();
    let db = &corpus.databases[0];
    let assistant = Assistant {
        llm: llm.clone(),
        store: DemoStore::new(vec![]),
        demos_k: 0,
    };
    let mut session = fisql_core::Session::new(db, assistant, Strategy::QueryRewrite);
    session.ask(&example);
    session.give_feedback(&llm, &example, "we are in 2024", None);
    // The session carries the rewritten question into the next round.
    let question = session.question().expect("an active question");
    assert_ne!(question, example.question);
    assert!(question.contains("2024"), "{question}");
}
