//! Natural-language question rendering.
//!
//! Questions are rendered from [`Intent`]s with template variation, in the
//! style of SPIDER's crowd-sourced questions ("How many singers do we
//! have?", "Show the name of the singer with the largest net worth").
//! Vague phrasings are *deliberate*: a [`PredKind::MonthWindow`] renders
//! as "in January" without a year, reproducing the ambiguity the paper's
//! Figure 4 walkthrough hinges on.

use crate::intent::{AggIntent, Intent, PredIntent, PredKind, Projection, Shape, MONTH_NAMES};
use fisql_sqlkit::ast::{BinOp, Literal};
use rand::Rng;

/// Renders `intent` as a natural-language question. `rng` picks among
/// template variants; `jargon` optionally overrides the surface form of
/// the primary table (the AEP closed-domain vocabulary).
pub fn render_question(intent: &Intent, jargon: Option<&str>, rng: &mut impl Rng) -> String {
    let table_pl = pluralize(jargon.unwrap_or(&intent.primary));
    let filter = filter_phrase(&intent.preds);
    let joined = join_phrase(intent);

    let body = match &intent.shape {
        Shape::Select => {
            let cols = projection_phrase(&intent.projections);
            let distinct = if intent.distinct { "different " } else { "" };
            match rng.gen_range(0..3) {
                0 => format!("What are the {cols} of {distinct}{table_pl}{joined}{filter}?"),
                1 => format!("List the {cols} of all {distinct}{table_pl}{joined}{filter}."),
                _ => format!("Show the {cols} for {distinct}{table_pl}{joined}{filter}."),
            }
        }
        Shape::AggOnly => agg_question(intent, &table_pl, &joined, &filter, rng),
        Shape::GroupBy {
            key,
            having_count_gt,
            ..
        } => match having_count_gt {
            Some(n) => format!(
                "Which {} have more than {n} {table_pl}{filter}?",
                pluralize(&humanize(key))
            ),
            None => format!(
                "For each {}, how many {table_pl} are there{joined}{filter}?",
                humanize(key)
            ),
        },
        Shape::Superlative {
            order_col,
            desc,
            limit,
            ..
        } => {
            let cols = projection_phrase(&intent.projections);
            let dir = superlative_word(order_col, *desc);
            if *limit == 1 {
                format!(
                    "Show the {cols} of the {} with the {dir} {}{filter}.",
                    jargon.unwrap_or(&intent.primary),
                    humanize(order_col)
                )
            } else {
                format!(
                    "List the {cols} of the top {limit} {table_pl} by {}{filter}.",
                    humanize(order_col)
                )
            }
        }
        Shape::Extremum { column, max } => {
            let cols = projection_phrase(&intent.projections);
            let dir = superlative_word(column, *max);
            format!(
                "What is the {cols} of the {} with the {dir} {}{filter}?",
                jargon.unwrap_or(&intent.primary),
                humanize(column)
            )
        }
    };
    body
}

fn agg_question(
    intent: &Intent,
    table_pl: &str,
    joined: &str,
    filter: &str,
    rng: &mut impl Rng,
) -> String {
    let Some(Projection::Agg(agg)) = intent.projections.first() else {
        return format!("How many {table_pl} are there{joined}{filter}?");
    };
    match agg {
        AggIntent::Count => match rng.gen_range(0..3) {
            0 => format!("How many {table_pl} are there{joined}{filter}?"),
            1 => format!("Count the number of {table_pl}{joined}{filter}."),
            _ => format!("How many {table_pl} do we have{joined}{filter}?"),
        },
        AggIntent::CountDistinct(c) => format!(
            "How many different {} appear among {table_pl}{joined}{filter}?",
            pluralize(&humanize(c))
        ),
        AggIntent::Sum(c) => format!(
            "What is the total {} of {table_pl}{joined}{filter}?",
            humanize(c)
        ),
        AggIntent::Avg(c) => format!(
            "What is the average {} of {table_pl}{joined}{filter}?",
            humanize(c)
        ),
        AggIntent::Min(c) => format!(
            "What is the smallest {} among {table_pl}{joined}{filter}?",
            humanize(c)
        ),
        AggIntent::Max(c) => format!(
            "What is the largest {} among {table_pl}{joined}{filter}?",
            humanize(c)
        ),
    }
}

/// Column/projection list phrase: "name and age".
fn projection_phrase(projections: &[Projection]) -> String {
    let parts: Vec<String> = projections
        .iter()
        .map(|p| match p {
            Projection::Column { column, .. } => humanize(column),
            Projection::Agg(a) => match a {
                AggIntent::Count => "count".to_string(),
                AggIntent::CountDistinct(c) => format!("number of different {}", humanize(c)),
                AggIntent::Sum(c) => format!("total {}", humanize(c)),
                AggIntent::Avg(c) => format!("average {}", humanize(c)),
                AggIntent::Min(c) => format!("minimum {}", humanize(c)),
                AggIntent::Max(c) => format!("maximum {}", humanize(c)),
            },
        })
        .collect();
    join_and(&parts)
}

/// Filter phrase: " whose age is greater than 30 and that were created in January".
fn filter_phrase(preds: &[PredIntent]) -> String {
    if preds.is_empty() {
        return String::new();
    }
    let parts: Vec<String> = preds.iter().map(pred_phrase).collect();
    format!(" {}", parts.join(" and "))
}

fn pred_phrase(p: &PredIntent) -> String {
    let col = humanize(&p.column);
    match &p.kind {
        PredKind::Cmp { op, value } => {
            let v = literal_phrase(value);
            let rel = match op {
                BinOp::Eq => "is",
                BinOp::NotEq => "is not",
                BinOp::Gt => "is greater than",
                BinOp::GtEq => "is at least",
                BinOp::Lt => "is less than",
                BinOp::LtEq => "is at most",
                _ => "is",
            };
            format!("whose {col} {rel} {v}")
        }
        PredKind::Like { word } => format!("whose {col} contains '{word}'"),
        PredKind::Between { lo, hi } => format!(
            "whose {col} is between {} and {}",
            literal_phrase(lo),
            literal_phrase(hi)
        ),
        PredKind::IsNull { negated } => {
            if *negated {
                format!("that have a {col}")
            } else {
                format!("that are missing a {col}")
            }
        }
        // The deliberate vagueness: no year is mentioned.
        PredKind::MonthWindow { month, .. } => {
            format!("created in {}", MONTH_NAMES[(*month as usize - 1).min(11)])
        }
    }
}

fn join_phrase(intent: &Intent) -> String {
    if intent.joins.is_empty() {
        String::new()
    } else {
        let tables: Vec<String> = intent
            .joins
            .iter()
            .map(|j| pluralize(&humanize(&j.table)))
            .collect();
        format!(" together with their {}", join_and(&tables))
    }
}

fn literal_phrase(l: &Literal) -> String {
    match l {
        Literal::String(s) => format!("'{s}'"),
        other => other.to_string(),
    }
}

/// "youngest"/"oldest" for age, "highest"/"lowest" otherwise.
fn superlative_word(column: &str, desc_or_max: bool) -> &'static str {
    let lower = column.to_ascii_lowercase();
    if lower.contains("age") && !lower.contains("average") {
        if desc_or_max {
            "oldest"
        } else {
            "youngest"
        }
    } else if desc_or_max {
        "highest"
    } else {
        "lowest"
    }
}

/// `song_release_year` → "song release year".
pub use fisql_sqlkit::spaced as humanize;

/// Naive pluralization good enough for schema nouns.
pub fn pluralize(noun: &str) -> String {
    let n = humanize(noun);
    if n.ends_with('s') || n.ends_with("sh") || n.ends_with("ch") || n.ends_with('x') {
        format!("{n}es")
    } else if n.ends_with('y')
        && !n.ends_with("ay")
        && !n.ends_with("ey")
        && !n.ends_with("oy")
        && !n.ends_with("uy")
    {
        format!("{}ies", &n[..n.len() - 1])
    } else {
        format!("{n}s")
    }
}

fn join_and(parts: &[String]) -> String {
    match parts.len() {
        0 => String::new(),
        1 => parts[0].clone(),
        2 => format!("{} and {}", parts[0], parts[1]),
        _ => format!(
            "{}, and {}",
            parts[..parts.len() - 1].join(", "),
            parts[parts.len() - 1]
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intent::JoinStep;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(5)
    }

    fn base() -> Intent {
        Intent {
            primary: "singer".into(),
            joins: vec![],
            projections: vec![Projection::Column {
                table: "singer".into(),
                column: "name".into(),
            }],
            distinct: false,
            preds: vec![],
            shape: Shape::Select,
        }
    }

    #[test]
    fn renders_select() {
        let q = render_question(&base(), None, &mut rng());
        assert!(q.to_lowercase().contains("name"), "{q}");
        assert!(q.to_lowercase().contains("singers"), "{q}");
    }

    #[test]
    fn renders_count() {
        let mut i = base();
        i.projections = vec![Projection::Agg(AggIntent::Count)];
        i.shape = Shape::AggOnly;
        let q = render_question(&i, None, &mut rng());
        assert!(
            q.to_lowercase().contains("how many") || q.to_lowercase().contains("count"),
            "{q}"
        );
    }

    #[test]
    fn month_window_question_omits_year() {
        let mut i = base();
        i.preds = vec![PredIntent {
            table: "singer".into(),
            column: "created_time".into(),
            kind: PredKind::MonthWindow {
                year: 2024,
                month: 1,
            },
        }];
        let q = render_question(&i, None, &mut rng());
        assert!(q.contains("January"), "{q}");
        assert!(!q.contains("2024"), "year must stay implicit: {q}");
    }

    #[test]
    fn jargon_overrides_table_surface() {
        let mut i = base();
        i.projections = vec![Projection::Agg(AggIntent::Count)];
        i.shape = Shape::AggOnly;
        let q = render_question(&i, Some("audience"), &mut rng());
        assert!(q.contains("audiences"), "{q}");
        assert!(!q.contains("singer"), "{q}");
    }

    #[test]
    fn superlative_uses_age_words() {
        let mut i = base();
        i.shape = Shape::Superlative {
            order_table: "singer".into(),
            order_col: "age".into(),
            desc: false,
            limit: 1,
        };
        let q = render_question(&i, None, &mut rng());
        assert!(q.contains("youngest"), "{q}");
    }

    #[test]
    fn join_mentioned() {
        let mut i = base();
        i.joins = vec![JoinStep {
            table: "concert".into(),
            left_table: "singer".into(),
            left_col: "singer_id".into(),
            right_col: "singer_id".into(),
        }];
        let q = render_question(&i, None, &mut rng());
        assert!(q.contains("concert"), "{q}");
    }

    #[test]
    fn pluralize_rules() {
        assert_eq!(pluralize("singer"), "singers");
        assert_eq!(pluralize("class"), "classes");
        assert_eq!(pluralize("city_record"), "city records");
        assert_eq!(pluralize("category"), "categories");
        assert_eq!(pluralize("day"), "days");
    }

    #[test]
    fn humanize_replaces_underscores() {
        assert_eq!(humanize("song_release_year"), "song release year");
    }
}
