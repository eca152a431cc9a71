//! Engine result identity: one FNV-1a digest over the executor's outcome
//! for every query the evaluation protocol feeds it.
//!
//! For seeds 0 and 5 on the full-scale SPIDER-like corpus, three query
//! sets run through `execute_with_limits` under the row guard the user
//! view uses:
//!
//! - every corpus gold query;
//! - every `collect_errors` prediction (the Assistant's round-0 SQL);
//! - every round-1 SearchRefine `enumerate_repairs` candidate, derived
//!   the way `search_step` derives it (normalized base, linked feedback
//!   cues, localized fault sites).
//!
//! An outcome is the column names, the rows in order and `ordered`, or
//! the error's display text. The digest is pinned, so any change to the
//! executor that moves a result, its row order or an error message
//! shows here, before it reaches a report.

#![forbid(unsafe_code)]

use fisql::prelude::*;
use fisql_engine::{execute_with_limits, ExecLimits};
use fisql_sqlkit::{
    check_query, enumerate_repairs, locate_faults_with_diagnostics, FeedbackCues, Fnv64,
};

/// The digest of every outcome, recorded on the engine that cloned each
/// base table per scan.
const PINNED: u64 = 0xa3ae_9529_7ef2_4512;

/// The guard `build_view` runs predictions under: the interactive row
/// budget, no wall-clock deadline (which would make outcomes depend on
/// load).
const GUARD: ExecLimits = ExecLimits {
    max_rows: Some(1_000_000),
    deadline_ms: None,
};

/// Folds one outcome into `h`, with a tag separating the query sets;
/// returns whether the outcome was an error.
fn fold(h: &mut Fnv64, tag: &str, db: &Database, q: &Query) -> bool {
    h.update(tag.as_bytes());
    let outcome = execute_with_limits(db, q, GUARD);
    match &outcome {
        Ok(rs) => {
            h.update(b"\x01ok");
            for c in &rs.columns {
                h.update(b"\x02");
                h.update(c.as_bytes());
            }
            for row in &rs.rows {
                h.update(b"\x03");
                for v in row {
                    h.update(format!("{v:?}\x04").as_bytes());
                }
            }
            h.update(if rs.ordered { b"\x05o" } else { b"\x05u" });
        }
        Err(e) => {
            h.update(b"\x01err");
            h.update(e.to_string().as_bytes());
        }
    }
    outcome.is_err()
}

/// Outcome counts per query set, so a shrinking corpus cannot keep the
/// digest by accident.
#[derive(Debug, Default)]
struct Counts {
    gold: usize,
    predicted: usize,
    candidates: usize,
    errors: usize,
}

fn digest_seed(seed: u64, h: &mut Fnv64) -> Counts {
    let corpus = build_spider(&SpiderConfig {
        seed,
        ..SpiderConfig::default()
    });
    let llm = SimLlm::new(LlmConfig {
        seed: seed ^ 0x515E,
        ..LlmConfig::default()
    });
    let user = SimUser::new(UserConfig {
        seed: seed ^ 0x05E4,
        ..UserConfig::default()
    });
    let run = CorrectionRun::new(&corpus, &llm, &user).demos_k(3);
    let mut counts = Counts::default();

    for e in &corpus.examples {
        counts.errors += usize::from(fold(h, "gold", corpus.database(e), &e.gold));
        counts.gold += 1;
    }

    let errors = run.collect_errors();
    for err in &errors {
        let e = &corpus.examples[err.example_idx];
        counts.errors += usize::from(fold(h, "pred", corpus.database(e), &err.initial));
        counts.predicted += 1;
    }

    for case in run.annotate(&errors) {
        let e = &corpus.examples[case.error.example_idx];
        let db = corpus.database(e);
        let ctx = db.context();
        let schema = ctx.schema(db);
        let previous = normalize_query(&case.error.initial);
        let cues = FeedbackCues::extract_linked(&case.feedback.text, ctx.lexicon(db));
        let diagnostics = check_query(&previous, schema);
        let sites = locate_faults_with_diagnostics(
            &previous,
            schema,
            &diagnostics,
            Some(&cues),
            case.feedback.highlight,
        );
        for cand in enumerate_repairs(&previous, schema, &sites, &cues) {
            counts.errors += usize::from(fold(h, "cand", db, &cand.query));
            counts.candidates += 1;
        }
    }
    counts
}

#[test]
fn engine_outcomes_match_the_pinned_digest() {
    let mut h = Fnv64::new();
    for seed in [0u64, 5] {
        let counts = digest_seed(seed, &mut h);
        assert!(
            counts.gold >= 500
                && counts.predicted >= 100
                && counts.candidates >= 100
                && counts.errors >= 10,
            "seed {seed}: query sets shrank: {counts:?}"
        );
        eprintln!("seed {seed}: {counts:?}");
    }
    let digest = h.finish();
    assert_eq!(
        digest, PINNED,
        "engine outcomes moved: digest {digest:#018x}, pinned {PINNED:#018x}"
    );
}
