//! The simulated user/annotator.
//!
//! Mirrors the paper's feedback-collection protocol (§4.1): the annotator
//! sees only what the tool shows — question, generated SQL, its NL
//! explanation, and the execution result (Figure 7) — never the gold SQL
//! or the schema internals. They know what they *meant* (they asked the
//! question), so their feedback targets the gap between intention and
//! observed behaviour, expressed in surface vocabulary.
//!
//! Three realities of the paper's data are modelled:
//!
//! - **Partial annotatability.** Only ~41% of SPIDER errors received
//!   feedback; users disengage when the output is too far gone or the
//!   needed fix is inexpressible without SQL knowledge.
//! - **One correction per round.** Feedback addresses the most salient
//!   problem; multi-error queries need multiple rounds (paper error
//!   cause (a), Figure 8).
//! - **Misalignment.** Sometimes the feedback does not match the needed
//!   correction (paper error cause (c)).

use crate::utterance::{verbalize, year_shift_target};
use fisql_spider::Example;
use fisql_sqlkit::hash::splitmix;
use fisql_sqlkit::{diff_queries, normalize_query, EditOp, OpClass, Query, Span, SpannedSql};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// What the user sees before giving feedback (paper Figure 7).
#[derive(Debug, Clone)]
pub struct UserView {
    /// The original question.
    pub question: String,
    /// The generated SQL, rendered with clause spans.
    pub sql: SpannedSql,
    /// The Assistant's step-by-step explanation.
    pub explanation: String,
    /// Rendered execution result, or the error message.
    pub result: Result<String, String>,
}

/// One round of user feedback.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Feedback {
    /// The natural-language feedback text.
    pub text: String,
    /// Optional highlight over the rendered SQL (Figure 9).
    pub highlight: Option<Span>,
    /// The edits this feedback is *about* (diagnostics; the pipeline must
    /// not read this — it re-derives the edit from the text).
    pub intended: Vec<EditOp>,
    /// Whether the feedback was deliberately misaligned (diagnostics).
    pub misaligned: bool,
}

/// Simulated-user configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UserConfig {
    /// Master seed.
    pub seed: u64,
    /// Probability of giving misaligned feedback (error cause (c)).
    pub p_misalign: f64,
    /// Probability of using the terser/vaguer phrasing variant.
    pub p_vague: f64,
    /// Probability the user engages at all on first contact with an
    /// error (calibrates the ~41% annotatability of §4.1).
    pub p_engage: f64,
    /// Probability the user can articulate a whole-query ("Rewrite")
    /// problem at all.
    pub p_express_rewrite: f64,
    /// Errors with more edits than this overwhelm the user.
    pub max_visible_edits: usize,
    /// Probability a highlight accompanies the feedback when the
    /// interface supports it (Table 3 mode).
    pub p_highlight: f64,
}

impl Default for UserConfig {
    fn default() -> Self {
        UserConfig {
            seed: 0x05E4,
            p_misalign: 0.08,
            p_vague: 0.55,
            p_engage: 0.43,
            p_express_rewrite: 0.18,
            max_visible_edits: 4,
            p_highlight: 0.75,
        }
    }
}

/// The simulated user.
#[derive(Debug, Clone)]
pub struct SimUser {
    /// Configuration.
    pub cfg: UserConfig,
}

impl SimUser {
    /// Creates a simulated user.
    pub fn new(cfg: UserConfig) -> Self {
        SimUser { cfg }
    }

    fn rng(&self, example_id: usize, round: u64) -> StdRng {
        StdRng::seed_from_u64(splitmix(
            0x2545F4914F6CDD1D,
            0xD6E8FEB86659FD93,
            17,
            None,
            &[self.cfg.seed, example_id as u64, round],
        ))
    }

    /// Produces this round's feedback on `predicted`, or `None` when the
    /// user is satisfied (no behavioural diff) or disengaged.
    ///
    /// `view` is accepted to honour the information boundary of the
    /// protocol: everything the user *reacts to* is in the view; the diff
    /// against gold stands in for their private knowledge of what they
    /// meant.
    pub fn feedback(
        &self,
        example: &Example,
        predicted: &Query,
        view: &UserView,
        round: u64,
    ) -> Option<Feedback> {
        let _ = view;
        let edits = diff_queries(predicted, &example.gold);
        if edits.is_empty() {
            return None;
        }
        let mut rng = self.rng(example.id, round);

        // Engagement gate (first round only — a user who engaged keeps
        // engaging, matching the paper's multi-round protocol).
        if round == 0 && !rng.gen_bool(self.cfg.p_engage) {
            return None;
        }
        // Overwhelmed by too many visible problems.
        if edits.len() > self.cfg.max_visible_edits {
            return None;
        }
        // Whole-query restructurings are rarely expressible without SQL
        // knowledge.
        if edits.iter().all(|e| e.class() == OpClass::Rewrite)
            && !rng.gen_bool(self.cfg.p_express_rewrite)
        {
            return None;
        }

        // Misalignment: the user misdiagnoses and asks for something
        // else.
        if rng.gen_bool(self.cfg.p_misalign) {
            let decoy = decoy_edit(predicted, &mut rng);
            let text = verbalize(
                std::slice::from_ref(&decoy),
                rng.gen_bool(self.cfg.p_vague),
                &mut rng,
            );
            return Some(Feedback {
                text,
                highlight: None,
                intended: vec![],
                misaligned: true,
            });
        }

        // Group the year-shift pattern into one utterance (Figure 4: one
        // "we are in 2024" covers both WHERE bounds).
        let year_group: Vec<EditOp> = edits
            .iter()
            .filter(|e| matches!(e, EditOp::ReplacePredicate { .. }))
            .cloned()
            .collect();
        let chosen: Vec<EditOp> =
            if !year_group.is_empty() && year_shift_target(&year_group).is_some() {
                year_group
            } else {
                // Most salient expressible edit.
                let mut ranked: Vec<&EditOp> = edits.iter().collect();
                ranked.sort_by_key(|e| salience_rank(e));
                vec![ranked[0].clone()]
            };

        let vague = rng.gen_bool(self.cfg.p_vague);
        let text = verbalize(&chosen, vague, &mut rng);
        if text.is_empty() {
            return None;
        }
        Some(Feedback {
            text,
            highlight: None,
            intended: chosen,
            misaligned: false,
        })
    }

    /// Attaches a highlight to existing feedback (Table 3's interface
    /// mode): the user highlights the rendered span of the clause their
    /// feedback targets, with probability [`UserConfig::p_highlight`].
    pub fn add_highlight(
        &self,
        feedback: &mut Feedback,
        spanned: &SpannedSql,
        example_id: usize,
        round: u64,
    ) {
        let mut rng = self.rng(example_id, round.wrapping_add(0x41));
        if feedback.intended.is_empty() || !rng.gen_bool(self.cfg.p_highlight) {
            return;
        }
        let clause = feedback.intended[0].clause();
        if let Some(span) = spanned.span_of(&clause) {
            feedback.highlight = Some(span);
        } else if let Some((_, span)) = spanned.spans.first() {
            // Fall back to highlighting *something* plausible.
            feedback.highlight = Some(*span);
        }
    }
}

/// How quickly a user notices each kind of problem from the observable
/// surface (lower = noticed first).
fn salience_rank(e: &EditOp) -> u8 {
    match e {
        // Wrong table usually means an execution error or absurd output.
        EditOp::ReplaceTable { .. } => 0,
        EditOp::AddJoin { .. } | EditOp::RemoveJoin { .. } => 1,
        // Wrong filters produce empty/wrong counts — very visible.
        EditOp::ReplacePredicate { .. } => 2,
        // Wrong projected column shows wrong values.
        EditOp::ReplaceSelectItem { .. } => 2,
        EditOp::AddPredicate { .. } | EditOp::RemovePredicate { .. } => 3,
        EditOp::SetGroupBy { .. } | EditOp::SetHaving { .. } => 4,
        EditOp::AddSelectItem { .. } | EditOp::RemoveSelectItem { .. } => 4,
        EditOp::SetOrderBy { .. } | EditOp::SetLimit { .. } => 5,
        EditOp::SetDistinct { .. } => 6,
        EditOp::ReplaceQuery { .. } => 9,
    }
}

/// Fabricates a plausible-but-unneeded edit for misaligned feedback.
fn decoy_edit(predicted: &Query, rng: &mut impl Rng) -> EditOp {
    let norm = normalize_query(predicted);
    match rng.gen_range(0..3) {
        0 => EditOp::SetOrderBy {
            from: norm.order_by.clone(),
            to: vec![],
        },
        1 => EditOp::SetLimit {
            from: norm.limit,
            to: Some(fisql_sqlkit::LimitClause::new(10)),
        },
        _ => EditOp::SetDistinct {
            distinct: !norm.core.distinct,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fisql_spider::{build_aep, AepConfig, Corpus};
    use fisql_sqlkit::{parse_query, print_query_spanned};

    fn corpus() -> Corpus {
        build_aep(&AepConfig {
            n_examples: 30,
            seed: 9,
        })
    }

    fn view_for(example: &Example, predicted: &Query) -> UserView {
        UserView {
            question: example.question.clone(),
            sql: print_query_spanned(predicted),
            explanation: String::new(),
            result: Ok(String::new()),
        }
    }

    fn eager_user() -> SimUser {
        SimUser::new(UserConfig {
            p_engage: 1.0,
            p_misalign: 0.0,
            ..Default::default()
        })
    }

    #[test]
    fn satisfied_user_gives_no_feedback() {
        let c = corpus();
        let e = &c.examples[0];
        let user = eager_user();
        let fb = user.feedback(e, &e.gold, &view_for(e, &e.gold), 0);
        assert!(fb.is_none());
    }

    #[test]
    fn flagship_example_yields_year_feedback() {
        let c = corpus();
        let e = &c.examples[0]; // the Figure 4 flagship
        let wrong = parse_query(
            "SELECT COUNT(*) FROM hkg_dim_segment \
             WHERE createdTime >= '2023-01-01' AND createdTime < '2023-02-01'",
        )
        .unwrap();
        let user = eager_user();
        let fb = user
            .feedback(e, &wrong, &view_for(e, &wrong), 0)
            .expect("feedback expected");
        assert!(fb.text.contains("2024"), "{}", fb.text);
        assert_eq!(fb.intended.len(), 2, "covers both WHERE bounds");
        assert!(!fb.misaligned);
    }

    #[test]
    fn feedback_is_deterministic() {
        let c = corpus();
        let e = &c.examples[0];
        let wrong = parse_query("SELECT COUNT(*) FROM hkg_dim_segment").unwrap();
        let user = eager_user();
        let a = user.feedback(e, &wrong, &view_for(e, &wrong), 0).unwrap();
        let b = user.feedback(e, &wrong, &view_for(e, &wrong), 0).unwrap();
        assert_eq!(a.text, b.text);
    }

    #[test]
    fn engagement_gate_filters_some_errors() {
        let c = corpus();
        let user = SimUser::new(UserConfig {
            p_engage: 0.5,
            ..Default::default()
        });
        let wrong = parse_query("SELECT COUNT(*) FROM hkg_dim_segment").unwrap();
        let engaged = c
            .examples
            .iter()
            .filter(|e| !fisql_sqlkit::structurally_equal(&wrong, &e.gold))
            .filter(|e| user.feedback(e, &wrong, &view_for(e, &wrong), 0).is_some())
            .count();
        let total = c.examples.len();
        assert!(engaged > 0 && engaged < total, "{engaged}/{total}");
    }

    #[test]
    fn later_rounds_skip_engagement_gate() {
        let c = corpus();
        let user = SimUser::new(UserConfig {
            p_engage: 0.0, // never engages on round 0
            p_misalign: 0.0,
            ..Default::default()
        });
        let e = &c.examples[0];
        let wrong = parse_query(
            "SELECT COUNT(*) FROM hkg_dim_segment \
             WHERE createdTime >= '2023-01-01' AND createdTime < '2023-02-01'",
        )
        .unwrap();
        assert!(user.feedback(e, &wrong, &view_for(e, &wrong), 0).is_none());
        assert!(user.feedback(e, &wrong, &view_for(e, &wrong), 1).is_some());
    }

    #[test]
    fn misaligned_feedback_has_no_intended_edits() {
        let c = corpus();
        let user = SimUser::new(UserConfig {
            p_engage: 1.0,
            p_misalign: 1.0,
            ..Default::default()
        });
        let e = &c.examples[0];
        let wrong = parse_query("SELECT COUNT(*) FROM hkg_dim_segment").unwrap();
        let fb = user.feedback(e, &wrong, &view_for(e, &wrong), 0).unwrap();
        assert!(fb.misaligned);
        assert!(fb.intended.is_empty());
        assert!(!fb.text.is_empty());
    }

    #[test]
    fn highlight_lands_on_target_clause() {
        let c = corpus();
        let e = &c.examples[0];
        let wrong = parse_query(
            "SELECT COUNT(*) FROM hkg_dim_segment \
             WHERE createdTime >= '2023-01-01' AND createdTime < '2023-02-01'",
        )
        .unwrap();
        let user = SimUser::new(UserConfig {
            p_engage: 1.0,
            p_misalign: 0.0,
            p_highlight: 1.0,
            ..Default::default()
        });
        let spanned = print_query_spanned(&fisql_sqlkit::normalize_query(&wrong));
        let mut fb = user.feedback(e, &wrong, &view_for(e, &wrong), 0).unwrap();
        user.add_highlight(&mut fb, &spanned, e.id, 0);
        let hl = fb.highlight.expect("highlight present");
        // The highlight covers a WHERE-clause region mentioning the date.
        let covered = hl.slice(&spanned.text);
        assert!(covered.contains("2023"), "highlight covered `{covered}`");
    }

    #[test]
    fn overwhelming_diffs_disengage() {
        let c = corpus();
        let user = eager_user();
        // A completely unrelated query yields a Rewrite-class diff, which
        // is rarely expressible.
        let e = &c.examples[0];
        let nonsense = parse_query(
            "SELECT platform_type FROM hkg_dim_destination \
             UNION SELECT status FROM hkg_dim_dataset",
        )
        .unwrap();
        let got: Vec<bool> = (0..20)
            .map(|r| {
                user.feedback(e, &nonsense, &view_for(e, &nonsense), r)
                    .is_some()
            })
            .collect();
        // Sometimes expressible (p_express_rewrite), usually not.
        assert!(got.iter().filter(|b| **b).count() < 15);
    }
}
