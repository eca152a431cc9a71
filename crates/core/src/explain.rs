//! Natural-language explanation and reformulation generation.
//!
//! The paper's Assistant returns, alongside the execution result, (b) a
//! reformulation of the user query — the Assistant's understanding — and
//! (c) a step-by-step explanation of the SQL (Figure 4: "First, consider
//! all the segments. Then, keep only those segments that were created
//! after 2023-01-01 …"). Both are part of the observable surface the user
//! grounds feedback on.

use fisql_sqlkit::ast::*;
use fisql_sqlkit::{print_expr, spaced as humanize};

/// Generates the Figure 4-style step-by-step explanation of `query`.
pub fn explain_query(query: &Query) -> String {
    let mut steps: Vec<String> = Vec::new();
    let core = &query.core;

    if let Some(from) = &core.from {
        steps.push(format!(
            "First, consider all the {}.",
            pluralize(&humanize(from.base.binding_name()))
        ));
        for join in &from.joins {
            let mut s = format!(
                "Combine them with the {} table",
                humanize(join.factor.binding_name())
            );
            if let Some(on) = &join.constraint {
                s.push_str(&format!(" where {}", humanize_expr(on)));
            }
            s.push('.');
            steps.push(s);
        }
    }
    if let Some(w) = &core.where_clause {
        for conj in w.conjuncts() {
            steps.push(format!(
                "Then, keep only those rows where {}.",
                humanize_expr(conj)
            ));
        }
    }
    if !core.group_by.is_empty() {
        steps.push(format!(
            "Group the rows by {}.",
            core.group_by
                .iter()
                .map(|e| humanize(&print_expr(e)))
                .collect::<Vec<_>>()
                .join(" and ")
        ));
    }
    if let Some(h) = &core.having {
        steps.push(format!("Keep only the groups where {}.", humanize_expr(h)));
    }
    // Projection step.
    let proj = describe_projection(core);
    steps.push(format!("Finally, {proj}."));

    if !query.order_by.is_empty() {
        let o = &query.order_by[0];
        steps.push(format!(
            "Sort the results by {} in {} order.",
            humanize(&print_expr(&o.expr)),
            if o.desc { "descending" } else { "ascending" }
        ));
    }
    if let Some(l) = &query.limit {
        steps.push(format!("Keep only the first {} row(s).", l.count));
    }
    if !query.compound.is_empty() {
        steps.push(format!(
            "Combine with {} additional result set(s).",
            query.compound.len()
        ));
    }

    steps
        .iter()
        .map(|s| format!("- {s}"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Generates the one-line reformulation ("Finds the count of segments
/// created in January 2023.").
pub fn reformulate(query: &Query) -> String {
    let core = &query.core;
    let what = describe_projection(core);
    let table = core
        .from
        .as_ref()
        .map(|f| pluralize(&humanize(f.base.binding_name())))
        .unwrap_or_else(|| "values".to_string());
    let mut s = format!("{} from the {table}", capitalize(&what));
    if let Some(w) = &core.where_clause {
        let conds: Vec<String> = w.conjuncts().iter().map(|c| humanize_expr(c)).collect();
        s.push_str(&format!(" where {}", conds.join(" and ")));
    }
    s.push('.');
    s
}

fn describe_projection(core: &SelectCore) -> String {
    let parts: Vec<String> = core
        .items
        .iter()
        .map(|item| match item {
            SelectItem::Wildcard => "all columns".to_string(),
            SelectItem::QualifiedWildcard(t) => format!("all {} columns", humanize(t)),
            SelectItem::Expr { expr, .. } => match expr {
                Expr::Call {
                    func,
                    args,
                    distinct,
                } => {
                    let arg = args
                        .first()
                        .map(|a| match a {
                            Expr::Wildcard => "rows".to_string(),
                            other => humanize(&print_expr(other)),
                        })
                        .unwrap_or_else(|| "rows".to_string());
                    let d = if *distinct { "distinct " } else { "" };
                    match func {
                        Func::Count => format!("count of {d}{arg}"),
                        Func::Sum => format!("total {arg}"),
                        Func::Avg => format!("average {arg}"),
                        Func::Min => format!("minimum {arg}"),
                        Func::Max => format!("maximum {arg}"),
                        other => format!("{} of {arg}", other.as_str().to_lowercase()),
                    }
                }
                other => humanize(&print_expr(other)),
            },
        })
        .collect();
    format!("return the {}", parts.join(", "))
}

fn humanize_expr(e: &Expr) -> String {
    humanize(&print_expr(e))
}

fn pluralize(noun: &str) -> String {
    if noun.ends_with('s') {
        noun.to_string()
    } else {
        format!("{noun}s")
    }
}

fn capitalize(s: &str) -> String {
    let mut c = s.chars();
    match c.next() {
        Some(f) => f.to_uppercase().collect::<String>() + c.as_str(),
        None => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fisql_sqlkit::parse_query;

    #[test]
    fn figure4_style_explanation() {
        let q = parse_query(
            "SELECT COUNT(*) FROM hkg_dim_segment \
             WHERE createdTime >= '2023-01-01' AND createdTime < '2023-02-01'",
        )
        .unwrap();
        let text = explain_query(&q);
        assert!(
            text.contains("First, consider all the hkg dim segments."),
            "{text}"
        );
        assert!(text.contains("createdTime >= '2023-01-01'"), "{text}");
        assert!(text.contains("count of rows"), "{text}");
    }

    #[test]
    fn explanation_covers_joins_groups_order_limit() {
        let q = parse_query(
            "SELECT country, COUNT(*) FROM singer JOIN concert ON singer.singer_id = concert.singer_id \
             WHERE age > 30 GROUP BY country HAVING COUNT(*) > 2 ORDER BY country ASC LIMIT 3",
        )
        .unwrap();
        let text = explain_query(&q);
        for needle in [
            "Combine them with the concert table",
            "keep only those rows where age > 30",
            "Group the rows by country",
            "groups where COUNT(*) > 2",
            "ascending order",
            "first 3 row(s)",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }

    #[test]
    fn reformulation_is_single_sentence() {
        let q = parse_query("SELECT COUNT(*) FROM singer WHERE age > 30").unwrap();
        let r = reformulate(&q);
        assert!(r.starts_with("Return the count of rows"), "{r}");
        assert!(r.ends_with('.'));
        assert!(r.contains("age > 30"));
    }

    #[test]
    fn wildcard_projection_described() {
        let q = parse_query("SELECT * FROM singer").unwrap();
        assert!(explain_query(&q).contains("all columns"));
    }
}
