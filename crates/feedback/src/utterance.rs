//! Verbalizing clause edits as natural-language feedback.
//!
//! The simulated user expresses one intended correction per round, in the
//! style of the paper's Table 1 ("order the names in ascending order.",
//! "do not give descriptions", "we are in 2024") and Figure 7 ("Provide
//! song name instead of singer name").

use fisql_sqlkit::ast::{Expr, Literal, SelectItem};
use fisql_sqlkit::{print_expr, spaced as humanize, EditOp};
use rand::Rng;

/// Detects the Figure 4 "year shift" pattern: a set of predicate edits
/// whose only change is the year inside date (or year-number) literals.
/// Returns the corrected year when every edit fits the pattern.
pub fn year_shift_target(edits: &[EditOp]) -> Option<i64> {
    if edits.is_empty() {
        return None;
    }
    let mut year = None;
    for e in edits {
        let EditOp::ReplacePredicate { from, to, .. } = e else {
            return None;
        };
        let (f, t) = (extract_year(from)?, extract_year(to)?);
        if f == t {
            return None;
        }
        match year {
            None => year = Some(t),
            Some(y) if y == t => {}
            _ => return None,
        }
    }
    year
}

/// Pulls a year out of a comparison against a date string (`'2024-01-01'`)
/// or a bare year number (`2024`).
fn extract_year(e: &Expr) -> Option<i64> {
    let mut found = None;
    e.walk(&mut |node| {
        if found.is_some() {
            return;
        }
        if let Expr::Literal(l) = node {
            match l {
                Literal::String(s) if s.len() >= 4 => {
                    if let Ok(y) = s[..4].parse::<i64>() {
                        if (1900..=2100).contains(&y) {
                            found = Some(y);
                        }
                    }
                }
                Literal::Number(n) if (1900..=2100).contains(n) => {
                    found = Some(*n);
                }
                _ => {}
            }
        }
    });
    found
}

/// Verbalizes a group of edits the user wants to convey in one message.
/// `vague` selects the paper's terse phrasing variants when available.
pub fn verbalize(edits: &[EditOp], vague: bool, rng: &mut impl Rng) -> String {
    if let Some(year) = year_shift_target(edits) {
        return if vague {
            format!("we are in {year}")
        } else {
            format!("change the year to {year}")
        };
    }
    let Some(first) = edits.first() else {
        return String::new();
    };
    verbalize_one(first, vague, rng)
}

fn verbalize_one(edit: &EditOp, vague: bool, rng: &mut impl Rng) -> String {
    match edit {
        EditOp::AddSelectItem { item } => {
            format!("also show the {}", item_phrase(item))
        }
        EditOp::RemoveSelectItem { item, .. } => {
            if vague {
                format!("do not give {}", pluralish(&item_phrase(item)))
            } else {
                format!("remove the {} column", item_phrase(item))
            }
        }
        EditOp::ReplaceSelectItem { from, to, .. } => {
            // Aggregate swaps come out in aggregate words ("I wanted the
            // average age, not the total age"); plain column swaps use the
            // Figure 7 phrasing.
            if let (Some(f), Some(t)) = (agg_phrase(from), agg_phrase(to)) {
                format!("I wanted the {t}, not the {f}")
            } else {
                format!(
                    "provide {} instead of {}",
                    item_phrase(to),
                    item_phrase(from)
                )
            }
        }
        EditOp::SetDistinct { distinct } => {
            if *distinct {
                "remove duplicate rows from the answer".to_string()
            } else {
                "keep all rows, including duplicates".to_string()
            }
        }
        EditOp::ReplaceTable { from, to } => {
            if vague {
                format!("that information lives in {}", humanize(to))
            } else {
                format!("use {} instead of {}", humanize(to), humanize(from))
            }
        }
        EditOp::AddJoin { join } => format!(
            "you need to bring in the {} information",
            humanize(join.factor.binding_name())
        ),
        EditOp::RemoveJoin { join, .. } => format!(
            "there is no need to use {}",
            humanize(join.factor.binding_name())
        ),
        EditOp::AddPredicate { pred } => {
            format!("only include rows where {}", pred_phrase(pred))
        }
        EditOp::RemovePredicate { pred, .. } => {
            if let Some(col) = pred.columns().first() {
                format!("do not filter by {}", humanize(&col.column))
            } else {
                "remove that condition".to_string()
            }
        }
        EditOp::ReplacePredicate { from, to, .. } => {
            // Predicates built around subqueries cannot be spoken as SQL
            // by a non-technical user; extremum flips come out in plain
            // words ("I meant the lowest age").
            if let Some(text) = extremum_phrase(to) {
                return text;
            }
            if vague {
                // Maximally terse: name only the corrected value, like a
                // real user pointing at the wrong number ("change to
                // 2024", Figure 9). Grounding *which* condition is meant
                // is left to the system — or to a highlight.
                match rhs_literal(to) {
                    Some(lit) => format!("it should be {lit}"),
                    None => format!("the condition should be {}", pred_phrase(to)),
                }
            } else {
                format!("change {} to {}", pred_phrase(from), pred_phrase(to))
            }
        }
        EditOp::SetGroupBy { to, .. } => {
            if to.is_empty() {
                "no need to break it down by group".to_string()
            } else {
                format!(
                    "break it down by {}",
                    to.iter()
                        .map(|e| humanize(&print_expr(e)))
                        .collect::<Vec<_>>()
                        .join(" and ")
                )
            }
        }
        EditOp::SetHaving { to, .. } => match to {
            Some(h) => format!("only keep groups where {}", pred_phrase(h)),
            None => "keep all groups".to_string(),
        },
        EditOp::SetOrderBy { to, .. } => {
            if to.is_empty() {
                "no need to sort the results".to_string()
            } else {
                let o = &to[0];
                let dir = if o.desc { "descending" } else { "ascending" };
                // Table 1: "order the names in ascending order."
                let variants = [
                    format!(
                        "order the {} in {dir} order.",
                        pluralish(&humanize(&print_expr(&o.expr)))
                    ),
                    format!("sort by {} ({dir})", humanize(&print_expr(&o.expr))),
                ];
                variants[rng.gen_range(0..variants.len())].clone()
            }
        }
        EditOp::SetLimit { to, .. } => match to {
            Some(l) => format!("only show the top {}", l.count),
            None => "show all rows, not just a few".to_string(),
        },
        EditOp::ReplaceQuery { .. } => "that is not what I asked for".to_string(),
    }
}

/// Spoken form of an aggregate select item ("average age", "number of
/// rows"), or None when the item is not an aggregate call.
fn agg_phrase(item: &SelectItem) -> Option<String> {
    use fisql_sqlkit::ast::Func;
    let SelectItem::Expr {
        expr: Expr::Call {
            func,
            args,
            distinct,
        },
        ..
    } = item
    else {
        return None;
    };
    if !func.is_aggregate() {
        return None;
    }
    let arg = match args.first() {
        Some(Expr::Wildcard) | None => "rows".to_string(),
        Some(e) => humanize(&print_expr(e)),
    };
    let d = if *distinct { "distinct " } else { "" };
    Some(match func {
        Func::Count => format!("number of {d}{arg}"),
        Func::Sum => format!("total {arg}"),
        Func::Avg => format!("average {arg}"),
        Func::Min => format!("minimum {arg}"),
        Func::Max => format!("maximum {arg}"),
        _ => return None,
    })
}

/// Plain-words phrasing for a predicate whose right side is an extremum
/// subquery (`col = (SELECT MIN(col) …)`), or any predicate containing a
/// subquery (which a user cannot utter as SQL).
fn extremum_phrase(to: &Expr) -> Option<String> {
    let mut has_subquery = false;
    let mut agg: Option<(fisql_sqlkit::ast::Func, String)> = None;
    to.walk(&mut |node| {
        if let Expr::Subquery(q) = node {
            has_subquery = true;
            for item in &q.core.items {
                if let SelectItem::Expr {
                    expr: Expr::Call { func, args, .. },
                    ..
                } = item
                {
                    if func.is_aggregate() {
                        let arg = args
                            .first()
                            .map(print_expr)
                            .unwrap_or_else(|| "value".into());
                        agg = Some((*func, humanize(&arg)));
                    }
                }
            }
        }
    });
    if !has_subquery {
        return None;
    }
    use fisql_sqlkit::ast::Func;
    Some(match agg {
        Some((Func::Min, col)) => format!("I meant the one with the lowest {col}"),
        Some((Func::Max, col)) => format!("I meant the one with the highest {col}"),
        Some((_, col)) => format!("the comparison against the {col} looks wrong"),
        None => "that nested condition is not what I meant".to_string(),
    })
}

/// The right-hand literal of a simple comparison, rendered for speech.
fn rhs_literal(e: &Expr) -> Option<String> {
    if let Expr::Binary { right, .. } = e {
        if let Expr::Literal(l) = right.as_ref() {
            return Some(match l {
                Literal::String(s) => format!("'{s}'"),
                other => other.to_string(),
            });
        }
    }
    None
}

/// Surface phrase for a select item.
fn item_phrase(item: &SelectItem) -> String {
    match item {
        SelectItem::Wildcard => "all columns".to_string(),
        SelectItem::QualifiedWildcard(t) => format!("all {} columns", humanize(t)),
        SelectItem::Expr { expr, .. } => humanize(&print_expr(expr)),
    }
}

/// Surface phrase for a predicate.
fn pred_phrase(e: &Expr) -> String {
    humanize(&print_expr(e))
}

fn pluralish(word: &str) -> String {
    if word.ends_with('s') {
        word.to_string()
    } else {
        format!("{word}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fisql_sqlkit::{diff_queries, parse_query};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1)
    }

    fn diff(p: &str, g: &str) -> Vec<EditOp> {
        diff_queries(&parse_query(p).unwrap(), &parse_query(g).unwrap())
    }

    #[test]
    fn year_shift_detected_for_figure4() {
        let edits = diff(
            "SELECT COUNT(*) FROM hkg_dim_segment \
             WHERE createdTime >= '2023-01-01' AND createdTime < '2023-02-01'",
            "SELECT COUNT(*) FROM hkg_dim_segment \
             WHERE createdTime >= '2024-01-01' AND createdTime < '2024-02-01'",
        );
        assert_eq!(year_shift_target(&edits), Some(2024));
        let text = verbalize(&edits, true, &mut rng());
        assert_eq!(text, "we are in 2024");
    }

    #[test]
    fn year_shift_not_detected_for_unrelated_edits() {
        let edits = diff("SELECT a FROM t", "SELECT b FROM t");
        assert_eq!(year_shift_target(&edits), None);
        let edits = diff("SELECT a FROM t WHERE x = 1", "SELECT a FROM t WHERE x = 2");
        assert_eq!(year_shift_target(&edits), None);
    }

    #[test]
    fn figure7_phrasing_for_column_replacement() {
        let edits = diff(
            "SELECT name, song_release_year FROM singer",
            "SELECT song_name, song_release_year FROM singer",
        );
        let text = verbalize(&edits, false, &mut rng());
        assert_eq!(text, "provide song name instead of name");
    }

    #[test]
    fn table1_remove_phrasing() {
        let edits = diff("SELECT name, description FROM t", "SELECT name FROM t");
        let text = verbalize(&edits, true, &mut rng());
        assert_eq!(text, "do not give descriptions");
    }

    #[test]
    fn table1_add_order_phrasing() {
        let edits = diff("SELECT name FROM t", "SELECT name FROM t ORDER BY name ASC");
        let text = verbalize(&edits, false, &mut rng());
        assert!(
            text.contains("order the names in ascending order")
                || text.contains("sort by name (ascending)"),
            "{text}"
        );
    }

    #[test]
    fn add_predicate_phrasing() {
        let edits = diff("SELECT a FROM t", "SELECT a FROM t WHERE status = 'active'");
        let text = verbalize(&edits, false, &mut rng());
        assert!(text.contains("only include rows where"), "{text}");
        assert!(text.contains("active"), "{text}");
    }

    #[test]
    fn replace_table_phrasing() {
        let edits = diff("SELECT a FROM t1", "SELECT a FROM t2");
        let text = verbalize(&edits, false, &mut rng());
        assert_eq!(text, "use t2 instead of t1");
    }

    #[test]
    fn rewrite_is_vague() {
        let edits = diff("SELECT a FROM t", "SELECT a FROM t UNION SELECT b FROM s");
        let text = verbalize(&edits, false, &mut rng());
        assert_eq!(text, "that is not what I asked for");
    }

    #[test]
    fn empty_edit_list_is_empty_text() {
        assert_eq!(verbalize(&[], false, &mut rng()), "");
    }
}
