//! Channel-closure test: for (almost) every error channel the corpus can
//! generate, the *noise-free* FISQL loop must close it —
//!
//! corrupt(gold) → simulated user verbalizes the diff → interpreter
//! grounds the utterance → edit engine applies → execution matches gold.
//!
//! This is the strongest end-to-end statement about the pipeline: the
//! feedback language the user speaks and the language the interpreter
//! understands actually meet, channel by channel, with all stochastic
//! knobs pinned to their cooperative extremes. Channels whose feedback is
//! *inherently* beyond one utterance (whole-query rewrites) are exempted
//! and tracked explicitly.

use fisql::prelude::*;
use std::collections::BTreeMap;

fn cooperative_llm() -> SimLlm {
    SimLlm::new(LlmConfig {
        seed: 1,
        calibration: Calibration {
            router_noise: 0.0,
            edit_apply_with_routing: 1.0,
            edit_apply_without_routing: 1.0,
            moderate_edit_reliability: 1.0,
            structural_edit_reliability: 1.0,
            ..Default::default()
        },
    })
}

fn cooperative_user() -> SimUser {
    SimUser::new(UserConfig {
        seed: 1,
        p_engage: 1.0,
        p_misalign: 0.0,
        p_vague: 0.0, // most explicit phrasing
        p_express_rewrite: 1.0,
        max_visible_edits: 8,
        p_highlight: 1.0,
    })
}

#[test]
fn every_channel_kind_is_closable_by_feedback() {
    let corpus = build_spider(&SpiderConfig {
        n_databases: 24,
        n_examples: 400,
        seed: 0xC105,
    });
    let llm = cooperative_llm();
    let user = cooperative_user();

    // channel kind -> (closed, attempted)
    let mut stats: BTreeMap<&'static str, (usize, usize)> = BTreeMap::new();

    for e in &corpus.examples {
        let db = corpus.database(e);
        for wc in &e.channels {
            let kind = wc.channel.kind();
            let bad = normalize_query(&fisql_spider::corrupt(&e.intent, &wc.channel));
            if structurally_equal(&bad, &e.gold) {
                continue; // corruption was a no-op on this example
            }
            // Also skip corruptions that happen to be execution-equivalent
            // (the user sees nothing wrong).
            if fisql_spider::check_prediction(db, e, &bad).is_correct() {
                continue;
            }
            let view = UserView {
                question: e.question.clone(),
                sql: fisql::fisql_sqlkit::print_query_spanned(&bad),
                explanation: fisql_core::explain_query(&bad),
                result: Err(String::new()),
            };
            // Up to three cooperative rounds (a single channel can need a
            // couple of utterances when its diff spans clauses).
            let mut current = bad;
            let mut closed = false;
            for round in 0..3u64 {
                let Some(mut fb) = user.feedback(e, &current, &view, round) else {
                    break;
                };
                let spanned = fisql::fisql_sqlkit::print_query_spanned(&current);
                user.add_highlight(&mut fb, &spanned, e.id, round);
                let out = fisql_core::try_incorporate(
                    Strategy::Fisql {
                        routing: true,
                        highlighting: true,
                    },
                    &llm,
                    &fisql_core::IncorporateContext {
                        db,
                        example: e,
                        question: &e.question,
                        previous: &current,
                        feedback: &fb,
                        round,
                        conformance_gate: false,
                    },
                )
                .unwrap();
                current = out.query;
                if fisql_spider::check_prediction(db, e, &current).is_correct() {
                    closed = true;
                    break;
                }
            }
            let slot = stats.entry(kind).or_insert((0, 0));
            slot.1 += 1;
            if closed {
                slot.0 += 1;
            }
        }
    }

    // Report and assert per-channel closure rates.
    let mut report = String::new();
    let mut failures = Vec::new();
    for (kind, (closed, attempted)) in &stats {
        let rate = *closed as f64 / (*attempted).max(1) as f64;
        report.push_str(&format!(
            "{kind:<26} {closed:>4}/{attempted:<4} ({:.0}%)\n",
            100.0 * rate
        ));
        // Whole-query rewrites (from set-op shape changes) are legitimately
        // hard; every single-clause channel must close in the vast
        // majority of cases.
        let threshold = match *kind {
            // Join-structure channels can produce diffs the single-round
            // language can only partially express.
            "missing-join" => 0.55,
            _ => 0.75,
        };
        if rate < threshold && *attempted >= 5 {
            failures.push(format!("{kind}: {closed}/{attempted}"));
        }
    }
    println!("{report}");
    assert!(
        failures.is_empty(),
        "channels below closure threshold:\n{}\nfull report:\n{report}",
        failures.join("\n")
    );
    // Coverage: the corpus must actually have exercised a broad channel
    // inventory.
    assert!(
        stats.len() >= 10,
        "only {} channel kinds exercised: {:?}",
        stats.len(),
        stats.keys().collect::<Vec<_>>()
    );
}

#[test]
fn aep_jargon_channels_close_too() {
    let corpus = build_aep(&AepConfig {
        n_examples: 80,
        seed: 0xC106,
    });
    let llm = cooperative_llm();
    let user = cooperative_user();
    let mut closed = 0;
    let mut attempted = 0;
    for e in &corpus.examples {
        let db = corpus.database(e);
        let Some(wc) = e
            .channels
            .iter()
            .find(|wc| wc.channel.kind() == "table-confusion")
        else {
            continue;
        };
        let bad = normalize_query(&fisql_spider::corrupt(&e.intent, &wc.channel));
        if structurally_equal(&bad, &e.gold)
            || fisql_spider::check_prediction(db, e, &bad).is_correct()
        {
            continue;
        }
        attempted += 1;
        let view = UserView {
            question: e.question.clone(),
            sql: fisql::fisql_sqlkit::print_query_spanned(&bad),
            explanation: String::new(),
            result: Err(String::new()),
        };
        let Some(fb) = user.feedback(e, &bad, &view, 0) else {
            continue;
        };
        let out = fisql_core::try_incorporate(
            Strategy::Fisql {
                routing: true,
                highlighting: false,
            },
            &llm,
            &fisql_core::IncorporateContext {
                db,
                example: e,
                question: &e.question,
                previous: &bad,
                feedback: &fb,
                round: 0,
                conformance_gate: false,
            },
        )
        .unwrap();
        if fisql_spider::check_prediction(db, e, &out.query).is_correct() {
            closed += 1;
        }
    }
    assert!(attempted >= 10, "too few jargon cases: {attempted}");
    assert!(
        closed * 10 >= attempted * 8,
        "jargon closure too low: {closed}/{attempted}"
    );
}
