//! The simulated LLM.
//!
//! `SimLlm` stands in for the paper's `gpt-3.5-turbo-1106` in all three
//! roles the paper prompts it for:
//!
//! 1. **NL2SQL generation** — [`SimLlm::generate_sql`]: a semantic parse
//!    of the question (exact, because questions are generated intent-
//!    first) filtered through a calibrated *comprehension model*: each of
//!    the example's error channels fires independently with a probability
//!    derived from its difficulty weight, the demonstration count, and
//!    any explicit hints present in the prompt.
//! 2. **Feedback-type identification** — [`SimLlm::classify_feedback`]:
//!    the few-shot router of §3.3, simulated as keyword classification
//!    with calibrated noise.
//! 3. **Feedback-conditioned editing** —
//!    [`SimLlm::apply_feedback_edit_with_prob`]: applying an interpreted
//!    clause edit to the previous query, with a success probability that
//!    depends on whether type-matched (routed) demonstrations were in
//!    context.
//!
//! All sampling is derived deterministically from `(config seed, example
//! id, salt)`, so every experiment is reproducible bit-for-bit.

use crate::calibration::Calibration;
use fisql_spider::{ErrorChannel, Example};
use fisql_sqlkit::hash::{splitmix, unit};
use fisql_sqlkit::{apply_edits, fnv64, EditOp, OpClass, Query};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for the simulated LLM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LlmConfig {
    /// Master seed; all per-call RNG streams derive from it.
    pub seed: u64,
    /// Behavioural constants.
    pub calibration: Calibration,
}

impl Default for LlmConfig {
    fn default() -> Self {
        LlmConfig {
            seed: 0x515E,
            calibration: Calibration::default(),
        }
    }
}

/// How the generation is being used, which governs how hints and refires
/// behave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenMode {
    /// A first-pass generation from the original question.
    Initial,
    /// A regeneration from a rewritten question (the Query Rewrite
    /// baseline): hints resolve channels only with
    /// [`crate::Calibration::rewrite_hint_efficacy`], and channels refire
    /// with [`crate::Calibration::rewrite_refire_boost`].
    Rewrite,
}

/// A request to generate SQL for a benchmark example.
#[derive(Debug, Clone)]
pub struct GenRequest<'a> {
    /// The example to answer.
    pub example: &'a Example,
    /// Number of in-context demonstrations (0 = zero-shot; Figure 1).
    pub demos: usize,
    /// Extra prompt text (rewritten question, clarifications) scanned for
    /// channel-resolving hints.
    pub hint_text: &'a str,
    /// Distinguishes repeated generations for the same example (the Query
    /// Rewrite baseline regenerates; each attempt re-samples).
    pub salt: u64,
    /// Generation mode.
    pub mode: GenMode,
}

/// The outcome of a generation: the SQL plus which channels fired
/// (recorded for error analysis; the pipeline itself never peeks).
#[derive(Debug, Clone)]
pub struct Generation {
    /// The produced query.
    pub query: Query,
    /// Kinds of the channels that fired (diagnostics only).
    pub fired: Vec<&'static str>,
}

/// The simulated LLM.
#[derive(Debug, Clone)]
pub struct SimLlm {
    /// Configuration.
    pub cfg: LlmConfig,
}

impl SimLlm {
    /// Creates a simulated LLM.
    pub fn new(cfg: LlmConfig) -> Self {
        SimLlm { cfg }
    }

    /// Per-call deterministic RNG.
    fn rng(&self, example_id: usize, salt: u64) -> StdRng {
        StdRng::seed_from_u64(splitmix(
            0x9E3779B97F4A7C15,
            0xBF58476D1CE4E5B9,
            31,
            None,
            &[self.cfg.seed, example_id as u64, salt],
        ))
    }

    /// Deterministic per-(example, channel) latent in [0, 1).
    ///
    /// A channel fires iff its latent is below its firing probability.
    /// Because the latent does not depend on the attempt, an LLM asked the
    /// same question twice makes the *same* mistake — misreadings are
    /// systematic, not sampling noise. This is what defeats the Query
    /// Rewrite baseline in the paper: restating the question mostly
    /// reproduces the misunderstanding.
    fn latent(&self, example_id: usize, channel_idx: usize) -> f64 {
        unit(splitmix(
            0xA0761D6478BD642F,
            0xE7037ED1A0B428DB,
            23,
            None,
            &[self.cfg.seed, example_id as u64, channel_idx as u64],
        ))
    }

    /// Generates SQL for an example (role 1). The returned query is the
    /// gold semantics filtered through the comprehension model: each
    /// channel fires iff its sticky latent falls below its firing
    /// probability; fired channels corrupt the parse.
    pub fn generate_sql(&self, req: &GenRequest<'_>) -> Generation {
        let mut rng = self.rng(req.example.id, req.salt);
        let mut fired_channels: Vec<ErrorChannel> = Vec::new();
        let mut fired = Vec::new();
        let cal = &self.cfg.calibration;
        for (ci, wc) in req.example.channels.iter().enumerate() {
            let hinted = channel_resolved_by_text(&wc.channel, req.example, req.hint_text);
            // In rewrite mode a hint only disambiguates with limited
            // efficacy; a hint in an *initial* question (the question
            // itself spelling out the year, say) resolves outright.
            let resolved = hinted
                && (req.mode == GenMode::Initial
                    || rng.gen_bool(cal.rewrite_hint_efficacy.clamp(0.0, 1.0)));
            let mut p = cal.fire_prob(wc.weight, req.demos, resolved);
            let mut u = self.latent(req.example.id, ci);
            if req.mode == GenMode::Rewrite {
                if !resolved {
                    // The merged question is longer and clunkier; unfixed
                    // ambiguities get slightly worse.
                    p = (p * cal.rewrite_refire_boost).min(cal.max_fire_prob);
                }
                // Rephrasing occasionally jolts the model into a genuinely
                // fresh read of this aspect.
                if rng.gen_bool(cal.rewrite_refresh.clamp(0.0, 1.0)) {
                    u = rng.gen::<f64>();
                }
            }
            if u < p.clamp(0.0, 1.0) {
                fired.push(wc.channel.kind());
                fired_channels.push(wc.channel.clone());
            }
        }
        let query = if fired_channels.is_empty() {
            req.example.intent.compile()
        } else {
            fisql_spider::corrupt_many(&req.example.intent, &fired_channels)
        };
        Generation { query, fired }
    }

    /// Classifies feedback into Add/Remove/Edit (role 2, §3.3). The
    /// keyword heuristics emulate the few-shot classifier; calibrated
    /// noise emulates its residual error rate.
    pub fn classify_feedback(&self, utterance: &str, salt: u64) -> OpClass {
        let truth = keyword_route(utterance);
        let mut rng = self.rng(fnv64(utterance.as_bytes()) as usize, salt);
        if rng.gen_bool(self.cfg.calibration.router_noise) {
            // Misroute to one of the other two classes.
            let options: Vec<OpClass> = [OpClass::Add, OpClass::Remove, OpClass::Edit]
                .into_iter()
                .filter(|c| *c != truth)
                .collect();
            options[rng.gen_range(0..options.len())]
        } else {
            truth
        }
    }

    /// The edit-apply success probability for a routing configuration.
    /// `dynamic` marks dynamically-selected demonstrations (the §5
    /// extension), which add [`Calibration::dynamic_demo_bonus`].
    pub fn edit_success_prob(&self, routed: bool, dynamic: bool) -> f64 {
        let base = if routed {
            self.cfg.calibration.edit_apply_with_routing
        } else {
            self.cfg.calibration.edit_apply_without_routing
        };
        if dynamic && routed {
            (base + self.cfg.calibration.dynamic_demo_bonus).min(1.0)
        } else {
            base
        }
    }

    /// How reliably the model applies a given set of edits, as a
    /// multiplier on the base success probability. Literal substitutions
    /// (years, values, tables) are easy; column swaps are moderate;
    /// structural changes (ordering, grouping, joins) are the hardest.
    pub fn edit_complexity_factor(&self, edits: &[EditOp]) -> f64 {
        let cal = &self.cfg.calibration;
        edits
            .iter()
            .map(|e| match e {
                EditOp::ReplaceTable { .. } => 1.0,
                // Literal-only substitutions (the Figure 5 year edit, value
                // fixes) are the easy case; predicates that change shape or
                // column are moderate.
                EditOp::ReplacePredicate { from, to, .. } => {
                    if literal_only_change(from, to) {
                        1.0
                    } else {
                        cal.moderate_edit_reliability
                    }
                }
                EditOp::AddPredicate { .. }
                | EditOp::RemovePredicate { .. }
                | EditOp::AddSelectItem { .. }
                | EditOp::RemoveSelectItem { .. }
                | EditOp::ReplaceSelectItem { .. } => cal.moderate_edit_reliability,
                EditOp::SetOrderBy { .. }
                | EditOp::SetLimit { .. }
                | EditOp::SetGroupBy { .. }
                | EditOp::SetHaving { .. }
                | EditOp::SetDistinct { .. }
                | EditOp::AddJoin { .. }
                | EditOp::RemoveJoin { .. } => cal.structural_edit_reliability,
                EditOp::ReplaceQuery { .. } => cal.structural_edit_reliability,
            })
            .fold(1.0, |acc, f: f64| acc.min(f))
    }

    /// Applies interpreted feedback edits to the previous query (role 3)
    /// with success probability `p`, usually
    /// [`edit_success_prob`](SimLlm::edit_success_prob) for the routing
    /// configuration. On failure the model returns the previous query
    /// unchanged (it "did not understand" the feedback — the paper's
    /// error cause (b)).
    pub fn apply_feedback_edit_with_prob(
        &self,
        previous: &Query,
        edits: &[EditOp],
        p: f64,
        example_id: usize,
        salt: u64,
    ) -> Query {
        let mut rng = self.rng(example_id, salt.wrapping_add(0xED17));
        if !rng.gen_bool(p.clamp(0.0, 1.0)) {
            return previous.clone();
        }
        match apply_edits(previous, edits) {
            Ok(q) => q,
            Err(_) => previous.clone(),
        }
    }

    /// The Query Rewrite baseline's paraphrasing step (§4.1): merges the
    /// feedback into the question. The simulated paraphrase is a fluent
    /// concatenation; what matters mechanically is that the feedback's
    /// anchors now appear in the question text and can resolve channels on
    /// regeneration.
    pub fn rewrite_question(&self, question: &str, feedback: &str) -> String {
        let trimmed = question.trim_end_matches(['?', '.', ' ']);
        format!("{trimmed}, given that {feedback}?")
    }
}

/// Whether two expressions differ only in literal values (same shape,
/// same columns and operators).
fn literal_only_change(a: &fisql_sqlkit::Expr, b: &fisql_sqlkit::Expr) -> bool {
    use fisql_sqlkit::ast::Literal;
    fn blank(e: &fisql_sqlkit::Expr) -> fisql_sqlkit::Expr {
        let mut out = e.clone();
        out.walk_mut(&mut |node| {
            if let fisql_sqlkit::Expr::Literal(l) = node {
                *l = Literal::Null;
            }
        });
        out
    }
    blank(a) == blank(b)
}

/// Whether `text` contains an explicit hint that resolves `channel` —
/// i.e. the prompt spells out the information whose absence made the
/// channel possible.
pub fn channel_resolved_by_text(channel: &ErrorChannel, example: &Example, text: &str) -> bool {
    if text.is_empty() {
        return false;
    }
    let lower = text.to_lowercase();
    let mentions = |ident: &str| {
        let human = fisql_sqlkit::humanize(ident);
        lower.contains(&human) || lower.contains(&ident.to_lowercase())
    };
    match channel {
        ErrorChannel::YearDefault { pred_idx } => {
            // Resolved if the correct year is written out.
            match example.intent.preds.get(*pred_idx).map(|p| &p.kind) {
                Some(fisql_spider::PredKind::MonthWindow { year, .. }) => {
                    lower.contains(&year.to_string())
                }
                _ => false,
            }
        }
        ErrorChannel::ColumnConfusion { proj_idx, .. } => example
            .intent
            .projections
            .get(*proj_idx)
            .map(|p| match p {
                fisql_spider::Projection::Column { column, .. } => mentions(column),
                fisql_spider::Projection::Agg(_) => false,
            })
            .unwrap_or(false),
        ErrorChannel::FilterColumnConfusion { pred_idx, .. } => example
            .intent
            .preds
            .get(*pred_idx)
            .map(|p| mentions(&p.column))
            .unwrap_or(false),
        ErrorChannel::TableConfusion { .. } => mentions(&example.intent.primary),
        ErrorChannel::DropOrderBy | ErrorChannel::WrongOrderDirection => {
            lower.contains("order") || lower.contains("sort")
        }
        ErrorChannel::DropLimit => lower.contains("limit") || lower.contains("top"),
        ErrorChannel::AggConfusion { .. } => {
            lower.contains("count")
                || lower.contains("sum")
                || lower.contains("average")
                || lower.contains("total")
                || lower.contains("minimum")
                || lower.contains("maximum")
        }
        ErrorChannel::ExtraColumn { column } => mentions(column),
        ErrorChannel::MissingColumn { proj_idx } => example
            .intent
            .projections
            .get(*proj_idx)
            .map(|p| match p {
                fisql_spider::Projection::Column { column, .. } => mentions(column),
                fisql_spider::Projection::Agg(_) => false,
            })
            .unwrap_or(false),
        ErrorChannel::DropPredicate { pred_idx } => example
            .intent
            .preds
            .get(*pred_idx)
            .map(|p| mentions(&p.column))
            .unwrap_or(false),
        ErrorChannel::LiteralDrift { pred_idx, .. } => {
            match example.intent.preds.get(*pred_idx).map(|p| &p.kind) {
                Some(fisql_spider::PredKind::Cmp { value, .. }) => {
                    lower.contains(&value.to_string().trim_matches('\'').to_lowercase())
                }
                _ => false,
            }
        }
        ErrorChannel::ComparisonConfusion { .. } => {
            lower.contains("strictly")
                || lower.contains("inclusive")
                || lower.contains("at least")
                || lower.contains("or equal")
        }
        ErrorChannel::MissingJoin { join_idx } => example
            .intent
            .joins
            .get(*join_idx)
            .map(|j| mentions(&j.table))
            .unwrap_or(false),
        ErrorChannel::MissingDistinct => {
            lower.contains("distinct") || lower.contains("duplicate") || lower.contains("unique")
        }
        ErrorChannel::HavingThresholdDrift { .. } => {
            lower.contains("more than") || lower.contains("threshold")
        }
        ErrorChannel::ExtremumFlip => {
            lower.contains("youngest")
                || lower.contains("oldest")
                || lower.contains("smallest")
                || lower.contains("largest")
                || lower.contains("minimum")
                || lower.contains("maximum")
                || lower.contains("lowest")
                || lower.contains("highest")
        }
    }
}

/// Keyword routing: what the few-shot classifier would do on a clean
/// read. Public so the corpus tools can report ground-truth routing
/// confusion matrices.
pub fn keyword_route(utterance: &str) -> OpClass {
    let s = utterance.to_lowercase();
    // Remove cues take precedence: "do not", "without", etc. are strong.
    const REMOVE: &[&str] = &[
        "do not",
        "don't",
        "remove",
        "drop ",
        "without",
        "exclude",
        "no need",
        "not just",
        "get rid",
        "leave out",
        "omit",
    ];
    const ADD: &[&str] = &[
        "also ",
        "add ",
        "include",
        "order the",
        "order them",
        "sort",
        "as well",
        "missing",
        "should also",
        "limit to",
        "only include",
        "only the",
        "restrict",
        "filter",
    ];
    if REMOVE.iter().any(|k| s.contains(k)) {
        return OpClass::Remove;
    }
    if ADD.iter().any(|k| s.contains(k)) {
        return OpClass::Add;
    }
    OpClass::Edit
}

#[cfg(test)]
mod tests {
    use super::*;
    use fisql_spider::{build_aep, AepConfig};

    fn tiny_corpus() -> fisql_spider::Corpus {
        build_aep(&AepConfig {
            n_examples: 20,
            seed: 3,
        })
    }

    #[test]
    fn generation_is_deterministic() {
        let corpus = tiny_corpus();
        let llm = SimLlm::new(LlmConfig::default());
        let e = &corpus.examples[0];
        let req = GenRequest {
            example: e,
            demos: 0,
            hint_text: "",
            salt: 0,
            mode: GenMode::Initial,
        };
        let a = llm.generate_sql(&req);
        let b = llm.generate_sql(&req);
        assert_eq!(a.query, b.query);
        assert_eq!(a.fired, b.fired);
    }

    #[test]
    fn initial_misreadings_are_systematic() {
        // Asking the same question again (different salt, same mode) must
        // reproduce the same misreading — errors are not sampling noise.
        let corpus = tiny_corpus();
        let llm = SimLlm::new(LlmConfig::default());
        for e in &corpus.examples {
            let gen = |salt| {
                fisql_sqlkit::print_query(
                    &llm.generate_sql(&GenRequest {
                        example: e,
                        demos: 0,
                        hint_text: "",
                        salt,
                        mode: GenMode::Initial,
                    })
                    .query,
                )
            };
            assert_eq!(gen(0), gen(99), "example {} resampled", e.id);
        }
    }

    #[test]
    fn rewrite_mode_can_re_roll() {
        // Rewrite regenerations occasionally refresh a latent, so across
        // many error examples at least some outputs change.
        let corpus = tiny_corpus();
        let llm = SimLlm::new(LlmConfig::default());
        let mut changed = 0;
        for e in &corpus.examples {
            let initial = llm.generate_sql(&GenRequest {
                example: e,
                demos: 0,
                hint_text: "",
                salt: 0,
                mode: GenMode::Initial,
            });
            for salt in 0..10 {
                let re = llm.generate_sql(&GenRequest {
                    example: e,
                    demos: 0,
                    hint_text: "",
                    salt: 1000 + salt,
                    mode: GenMode::Rewrite,
                });
                if re.query != initial.query {
                    changed += 1;
                    break;
                }
            }
        }
        assert!(changed > 0, "rewrite regeneration never re-rolls");
    }

    #[test]
    fn hints_resolve_the_year_channel() {
        // Across all examples with a year-default channel, an explicit
        // year in the question must strictly reduce firings. Zero residual
        // makes the resolution absolute for a crisp assertion.
        let corpus = tiny_corpus();
        let llm = SimLlm::new(LlmConfig {
            seed: 7,
            calibration: Calibration {
                resolved_residual: 0.0,
                ..Default::default()
            },
        });
        let count_fired = |hint: &str| {
            corpus
                .examples
                .iter()
                .filter(|e| {
                    llm.generate_sql(&GenRequest {
                        example: e,
                        demos: 0,
                        hint_text: hint,
                        salt: 0,
                        mode: GenMode::Initial,
                    })
                    .fired
                    .contains(&"year-default")
                })
                .count()
        };
        let without = count_fired("");
        let with = count_fired("everything was created in January 2024");
        assert!(
            (without > 0 && with == 0) || without == 0,
            "hint did not reduce year-default firing: {with} vs {without}"
        );
    }

    #[test]
    fn few_shot_reduces_errors() {
        let corpus = tiny_corpus();
        let llm = SimLlm::new(LlmConfig::default());
        let mut zero_errors = 0;
        let mut few_errors = 0;
        for e in &corpus.examples {
            for salt in 0..20 {
                let z = llm.generate_sql(&GenRequest {
                    example: e,
                    demos: 0,
                    hint_text: "",
                    salt,
                    mode: GenMode::Initial,
                });
                let f = llm.generate_sql(&GenRequest {
                    example: e,
                    demos: 5,
                    hint_text: "",
                    salt: salt + 1000,
                    mode: GenMode::Initial,
                });
                zero_errors += z.fired.len();
                few_errors += f.fired.len();
            }
        }
        assert!(few_errors < zero_errors, "{few_errors} !< {zero_errors}");
    }

    #[test]
    fn keyword_routing_matches_table1() {
        assert_eq!(
            keyword_route("order the names in ascending order."),
            OpClass::Add
        );
        assert_eq!(keyword_route("do not give descriptions"), OpClass::Remove);
        assert_eq!(keyword_route("we are in 2024"), OpClass::Edit);
        assert_eq!(
            keyword_route("provide song name instead of singer name"),
            OpClass::Edit
        );
    }

    #[test]
    fn classifier_noise_is_bounded() {
        let llm = SimLlm::new(LlmConfig::default());
        let utterance = "we are in 2024";
        let wrong = (0..500)
            .filter(|salt| llm.classify_feedback(utterance, *salt) != OpClass::Edit)
            .count();
        // router_noise = 6%; allow generous slack.
        assert!(wrong < 80, "router too noisy: {wrong}/500");
        assert!(wrong > 0, "router noise never fires");
    }

    #[test]
    fn apply_feedback_edit_usually_succeeds_with_routing() {
        let llm = SimLlm::new(LlmConfig::default());
        let prev = fisql_sqlkit::parse_query("SELECT a FROM t WHERE y = 2023").unwrap();
        let gold = fisql_sqlkit::parse_query("SELECT a FROM t WHERE y = 2024").unwrap();
        let edits = fisql_sqlkit::diff_queries(&prev, &gold);
        let ok = (0..200)
            .filter(|salt| {
                let out = llm.apply_feedback_edit_with_prob(
                    &fisql_sqlkit::normalize_query(&prev),
                    &edits,
                    llm.edit_success_prob(true, false),
                    1,
                    *salt,
                );
                fisql_sqlkit::structurally_equal(&out, &gold)
            })
            .count();
        assert!(ok > 160, "only {ok}/200 edits applied");
    }

    #[test]
    fn rewrite_appends_feedback() {
        let llm = SimLlm::new(LlmConfig::default());
        let r = llm.rewrite_question(
            "how many audiences were created in January?",
            "we are in 2024",
        );
        assert!(r.contains("January"));
        assert!(r.contains("2024"));
    }
}
