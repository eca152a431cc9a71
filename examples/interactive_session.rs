//! The paper's Figure 4 walkthrough as a live chat session.
//!
//! Reproduces, turn by turn, the conversation in the paper: the user asks
//! "how many audiences were created in January?", the Assistant
//! misresolves the implicit year to 2023, the user replies "we are in
//! 2024", and FISQL performs the precise Edit-type revision of Figure 5.
//!
//! Run: `cargo run --example interactive_session`

use fisql::prelude::*;
use fisql_core::Assistant as CoreAssistant;

fn main() {
    // The AEP-like corpus seeds its first example with the Figure 4
    // flagship question.
    let corpus = build_aep(&AepConfig {
        n_examples: 5,
        seed: 44,
    });
    let mut example = corpus.examples[0].clone();
    println!("Database: {}\n", corpus.databases[0]);

    // Force the paper's exact failure: keep only the implicit-year
    // channel and make it certain to fire, like GPT-3.5 defaulting to its
    // training-data present.
    example
        .channels
        .retain(|wc| wc.channel.kind() == "year-default");
    let llm = SimLlm::new(LlmConfig {
        seed: 9,
        calibration: Calibration {
            base_fire_rate: 10.0,
            max_fire_prob: 1.0,
            router_noise: 0.0,
            edit_apply_with_routing: 1.0,
            ..Default::default()
        },
    });
    let assistant = CoreAssistant {
        llm: llm.clone(),
        demos: 0,
    };

    let mut session = Session::new(
        &corpus.databases[0],
        assistant,
        Strategy::Fisql {
            routing: true,
            highlighting: false,
        },
    );

    // Turn 1: the question.
    let first = session.ask(&example);
    assert!(first.sql_text.contains("2023"), "expected the 2023 default");

    // Turn 2: the feedback of Figure 4.
    let revised = session.give_feedback(&llm, &example, "we are in 2024", None);
    assert!(
        structurally_equal(&revised.query, &example.gold),
        "feedback failed to fix the query"
    );

    println!("{}", session.render_transcript());
    println!("--- FISQL corrected the query exactly as in the paper's Figure 5 ---");
    println!("final SQL: {}", revised.sql_text);
}
