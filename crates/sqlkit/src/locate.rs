//! Static fault localization: rank the places a wrong query is most
//! likely wrong, without executing anything.
//!
//! The pass fuses three independent evidence streams into one ranked
//! list of [`FaultSite`]s:
//!
//! 1. **Analyzer diagnostics** ([`check_query`]) — unknown names, type
//!    mismatches, grouping violations — each already anchored to a byte
//!    span of the canonically printed SQL.
//! 2. **Abstract-interpretation facts** — the flow pass's contradiction /
//!    impossibility lints arrive through the same diagnostic channel but
//!    get their own confidence band, since they prove a *semantic* dead
//!    end rather than a name-resolution slip.
//! 3. **Feedback and highlight cues** ([`FeedbackCues`]) — schema
//!    entities, literals, aggregate words, and sort-direction words
//!    mentioned in the user's natural-language feedback, plus the byte
//!    range the user highlighted (paper §4.2), mapped to clauses of the
//!    printed query.
//!
//! Every site carries the *kind* of element it accuses (relation,
//! attribute, function, literal, operator), a span into
//! [`print_query_spanned`]'s text, the owning clause, and an integer
//! confidence in `[0, 100]`. Confidence is integral on purpose: ranking
//! must be bit-reproducible across platforms, and float comparison has
//! no business in a determinism-critical sort key.
//!
//! The ranked list feeds `sqlkit::repair`, which enumerates minimal
//! structure-preserving edits at each site.

use crate::ast::{ClausePath, Expr, Func, Literal, Query};
use crate::check::{check_query, DiagCode, Diagnostic, SchemaInfo, Severity};
use crate::lexicon::SchemaLexicon;
use crate::printer::{print_query_spanned, SpannedSql};
use crate::span::Span;

/// The kind of query element a fault site accuses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// A table reference (wrong table, missing join partner).
    Relation,
    /// A column reference (wrong or missing column).
    Attribute,
    /// A function or aggregate call (wrong aggregate, bad arguments).
    Function,
    /// A literal value (wrong year, number, or string constant).
    Literal,
    /// A comparison / direction / quantifier operator (wrong comparison,
    /// wrong sort direction, missing DISTINCT or LIMIT).
    Operator,
}

impl FaultKind {
    /// Stable kebab-case name, used in reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            FaultKind::Relation => "relation",
            FaultKind::Attribute => "attribute",
            FaultKind::Function => "function",
            FaultKind::Literal => "literal",
            FaultKind::Operator => "operator",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One ranked fault site: where the query is suspected wrong and why.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSite {
    /// What kind of element is accused.
    pub kind: FaultKind,
    /// Byte span into the canonically printed SQL.
    pub span: Span,
    /// The clause that owns the span.
    pub clause: ClausePath,
    /// The accused text (table / column / literal / operator spelling).
    pub subject: String,
    /// Integer confidence in `[0, 100]`; higher ranks first.
    pub confidence: u32,
    /// Evidence streams that contributed (`"check"`, `"flow"`,
    /// `"feedback"`, `"highlight"`).
    pub sources: Vec<&'static str>,
}

/// Optional context for [`locate_faults`].
#[derive(Debug, Clone, Copy, Default)]
pub struct LocateOptions<'a> {
    /// The user's natural-language feedback, if any.
    pub feedback: Option<&'a str>,
    /// The user's highlight over the printed previous query, if any.
    pub highlight: Option<Span>,
}

/// Cues mined from natural-language feedback against a schema: literal
/// values, schema entities, aggregate words, and direction words. Shared
/// by localization (site ranking) and repair (edit enumeration).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FeedbackCues {
    /// Four-digit years mentioned (`1900..=2100`).
    pub years: Vec<i64>,
    /// Other integers mentioned.
    pub numbers: Vec<i64>,
    /// Decimal numbers mentioned.
    pub floats: Vec<f64>,
    /// Quoted strings mentioned, original casing preserved.
    pub strings: Vec<String>,
    /// Schema tables named in the feedback (canonical schema spelling).
    pub tables: Vec<String>,
    /// Schema columns named in the feedback (canonical schema spelling).
    pub columns: Vec<String>,
    /// Aggregate functions implied by feedback wording.
    pub aggregates: Vec<Func>,
    /// Feedback asks for ascending order.
    pub ascending: bool,
    /// Feedback asks for descending order.
    pub descending: bool,
    /// Feedback is phrased as a removal ("do not", "remove", "without").
    pub removal: bool,
    /// Feedback talks about row count ("top", "limit", "first N").
    pub limit_hint: bool,
}

impl FeedbackCues {
    /// Mines cues from `text`, entity-linking table and column mentions
    /// against `schema` (longest humanized name first, so `singer_id`
    /// wins over `singer` when the text says "singer id").
    pub fn extract(text: &str, schema: &SchemaInfo) -> FeedbackCues {
        FeedbackCues::extract_linked(text, &SchemaLexicon::of_schema(schema))
    }

    /// [`FeedbackCues::extract`] against the schema's lexicon, for
    /// callers that already hold it.
    pub fn extract_linked(text: &str, lexicon: &SchemaLexicon) -> FeedbackCues {
        let lower = text.to_lowercase();
        let mut cues = FeedbackCues::default();

        extract_numbers(&lower, &mut cues);
        cues.strings = extract_quoted(text);
        link_entities(&lower, lexicon, &mut cues);

        for (phrase, func) in [
            ("average", Func::Avg),
            ("mean ", Func::Avg),
            ("how many", Func::Count),
            ("number of", Func::Count),
            ("count", Func::Count),
            ("total", Func::Sum),
            ("sum", Func::Sum),
            ("minimum", Func::Min),
            ("lowest", Func::Min),
            ("smallest", Func::Min),
            ("earliest", Func::Min),
            ("maximum", Func::Max),
            ("highest", Func::Max),
            ("largest", Func::Max),
            ("latest", Func::Max),
        ] {
            if lower.contains(phrase) && !cues.aggregates.contains(&func) {
                cues.aggregates.push(func);
            }
        }

        cues.ascending = lower.contains("ascending") || lower.contains("increasing");
        cues.descending = lower.contains("descending")
            || lower.contains("decreasing")
            || lower.contains("reversed");
        cues.removal = ["do not", "don't", "no need", "remove", "without", "exclude"]
            .iter()
            .any(|w| lower.contains(w));
        cues.limit_hint =
            lower.contains("top ") || lower.contains("limit") || lower.contains("first ");
        cues
    }
}

fn extract_numbers(lower: &str, cues: &mut FeedbackCues) {
    let bytes = lower.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i].is_ascii_digit() {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'.') {
                i += 1;
            }
            let tok = &lower[start..i];
            if let Some(dot) = tok.find('.') {
                // "2.5" is a float cue; a trailing dot ("since 2020.") is not.
                if dot + 1 < tok.len() && tok[dot + 1..].bytes().all(|b| b.is_ascii_digit()) {
                    if let Ok(x) = tok.parse::<f64>() {
                        cues.floats.push(x);
                    }
                } else if let Ok(n) = tok[..dot].parse::<i64>() {
                    push_int(cues, n);
                }
            } else if let Ok(n) = tok.parse::<i64>() {
                push_int(cues, n);
            }
        } else {
            i += 1;
        }
    }
}

fn push_int(cues: &mut FeedbackCues, n: i64) {
    if (1900..=2100).contains(&n) {
        if !cues.years.contains(&n) {
            cues.years.push(n);
        }
    } else if !cues.numbers.contains(&n) {
        cues.numbers.push(n);
    }
}

fn extract_quoted(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for quote in ['\'', '"'] {
        let mut parts = text.split(quote);
        // Odd-indexed fragments are inside quotes.
        let _ = parts.next();
        while let (Some(inside), rest) = (parts.next(), parts.next()) {
            if !inside.is_empty() && !out.contains(&inside.to_string()) {
                out.push(inside.to_string());
            }
            if rest.is_none() {
                break;
            }
        }
    }
    out
}

/// Finds `needle` in `hay` at a word boundary (optionally followed by a
/// plural `s`). Returns the byte range of the match.
fn find_word(hay: &str, needle: &str) -> Option<(usize, usize)> {
    let mut from = 0;
    while let Some(rel) = hay[from..].find(needle) {
        let start = from + rel;
        let mut end = start + needle.len();
        let before_ok = start == 0
            || !hay[..start]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric());
        if hay[end..].starts_with('s') {
            end += 1;
        }
        let after_ok = !hay[end..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric());
        if before_ok && after_ok {
            return Some((start, end));
        }
        from = start + needle.len().max(1);
    }
    None
}

/// Links table and column mentions: the lexicon's entities, longest
/// humanized name first so compound names win over their prefixes (ties:
/// tables before same-length columns, then by name), each match masked
/// so its substrings do not re-match.
fn link_entities(lower: &str, lexicon: &SchemaLexicon, cues: &mut FeedbackCues) {
    let mentions = lexicon.mentions(lower);
    let mut masked = lower.to_string();
    for &e in lexicon.entities() {
        if !mentions.contains(e) {
            continue;
        }
        if let Some((start, end)) = find_word(&masked, lexicon.human(e)) {
            masked.replace_range(start..end, &"\u{1}".repeat(end - start));
            let canonical = lexicon.name(e);
            let linked = if lexicon.is_table(e) {
                &mut cues.tables
            } else {
                &mut cues.columns
            };
            if !linked.iter().any(|l| l == canonical) {
                linked.push(canonical.to_string());
            }
        }
    }
}

/// How a diagnostic code maps onto a fault kind.
fn diag_kind(code: DiagCode) -> FaultKind {
    match code {
        DiagCode::UnknownTable
        | DiagCode::DuplicateAlias
        | DiagCode::DisconnectedJoin
        | DiagCode::ImpossibleJoin => FaultKind::Relation,
        DiagCode::UnknownColumn
        | DiagCode::AmbiguousColumn
        | DiagCode::UngroupedColumn
        | DiagCode::OrderByTarget => FaultKind::Attribute,
        DiagCode::AggregateInWhere
        | DiagCode::NestedAggregate
        | DiagCode::BadArity
        | DiagCode::ExtraArgument
        | DiagCode::BadArgType
        | DiagCode::HavingWithoutAggregate
        | DiagCode::MisplacedWildcard
        | DiagCode::SetOpArity
        | DiagCode::SubqueryArity => FaultKind::Function,
        DiagCode::TypeMismatch
        | DiagCode::ContradictoryPredicate
        | DiagCode::TautologicalPredicate
        | DiagCode::RedundantPredicate => FaultKind::Operator,
        DiagCode::LimitZero => FaultKind::Literal,
    }
}

fn is_flow_code(code: DiagCode) -> bool {
    matches!(
        code,
        DiagCode::ContradictoryPredicate
            | DiagCode::TautologicalPredicate
            | DiagCode::RedundantPredicate
            | DiagCode::ImpossibleJoin
            | DiagCode::LimitZero
    )
}

/// The year carried by a literal: a bare number in `1900..=2100`, or the
/// leading four digits of a date-shaped string.
pub fn literal_year(lit: &Literal) -> Option<i64> {
    match lit {
        Literal::Number(n) if (1900..=2100).contains(n) => Some(*n),
        Literal::String(s) if s.len() >= 4 && s.as_bytes()[..4].iter().all(u8::is_ascii_digit) => {
            s[..4].parse().ok().filter(|y| (1900..=2100).contains(y))
        }
        _ => None,
    }
}

/// Anchors a literal inside its clause: searches the clause's printed
/// text for the literal's canonical spelling. Falls back to the clause
/// span itself.
fn literal_span(spanned: &SpannedSql, clause: &ClausePath, lit: &Literal) -> Span {
    let clause_span = spanned
        .span_of(clause)
        .unwrap_or(Span::new(0, spanned.text.len()));
    let needle = lit.to_string();
    if let Some(rel) = clause_span.slice(&spanned.text).find(&needle) {
        let start = clause_span.start + rel;
        return Span::new(start, start + needle.len());
    }
    clause_span
}

fn clause_fallback_span(spanned: &SpannedSql, clause: &ClausePath) -> Span {
    spanned
        .span_of(clause)
        .unwrap_or(Span::point(spanned.text.len()))
}

/// All literals of an expression, not descending into subqueries.
fn expr_literals(e: &Expr) -> Vec<Literal> {
    let mut out = Vec::new();
    e.walk(&mut |x| {
        if let Expr::Literal(l) = x {
            out.push(l.clone());
        }
    });
    out
}

struct SiteBuilder {
    sites: Vec<FaultSite>,
}

impl SiteBuilder {
    fn push(
        &mut self,
        kind: FaultKind,
        span: Span,
        clause: ClausePath,
        subject: String,
        confidence: u32,
        source: &'static str,
    ) {
        self.sites.push(FaultSite {
            kind,
            span,
            clause,
            subject,
            confidence,
            sources: vec![source],
        });
    }
}

/// Localizes likely faults in `query`, fusing analyzer diagnostics, flow
/// facts, and (optionally) feedback / highlight cues into a ranked list.
/// Deterministic: integer confidences, stable tie-breaks, capped at 12
/// sites.
pub fn locate_faults(
    query: &Query,
    schema: &SchemaInfo,
    opts: LocateOptions<'_>,
) -> Vec<FaultSite> {
    let cues = opts
        .feedback
        .map(|text| FeedbackCues::extract(text, schema));
    let diagnostics = check_query(query, schema);
    locate_faults_with_diagnostics(query, schema, &diagnostics, cues.as_ref(), opts.highlight)
}

/// [`locate_faults`] for a query whose analyzer `diagnostics` against
/// `schema` are already known — `check_query(query, schema)` exactly, as
/// a [`QueryFacts`](crate::QueryFacts) carries them — and whose feedback
/// is already mined into `cues`, so a caller that localizes several
/// queries against one utterance (the repair search's beam) extracts the
/// cues once and checks no query a second time.
pub fn locate_faults_with_diagnostics(
    query: &Query,
    schema: &SchemaInfo,
    diagnostics: &[Diagnostic],
    cues: Option<&FeedbackCues>,
    highlight: Option<Span>,
) -> Vec<FaultSite> {
    debug_assert!(
        diagnostics == check_query(query, schema),
        "stale diagnostics"
    );
    let spanned = print_query_spanned(query);
    let mut b = SiteBuilder { sites: Vec::new() };

    // Stream 1 + 2: analyzer diagnostics (flow lints ride the same
    // channel but prove semantic dead-ends, so they outrank warnings).
    for d in diagnostics {
        let confidence = if d.severity == Severity::Error {
            90
        } else if is_flow_code(d.code) {
            70
        } else {
            55
        };
        let clause = spanned
            .clause_at(d.span)
            .cloned()
            .unwrap_or(ClausePath::SelectList);
        let source = if is_flow_code(d.code) {
            "flow"
        } else {
            "check"
        };
        let subject = d.span.slice(&spanned.text).to_string();
        b.push(
            diag_kind(d.code),
            d.span,
            clause,
            subject,
            confidence,
            source,
        );
    }

    // Stream 3: feedback cues.
    if let Some(cues) = cues {
        feedback_sites(query, schema, &spanned, cues, &mut b);
    }

    // Stream 3b: highlight — boost overlapping sites, or accuse the
    // highlighted clause directly when nothing else pointed there.
    if let Some(h) = highlight {
        let mut hit = false;
        for s in &mut b.sites {
            if s.span.overlaps(h) {
                s.confidence = (s.confidence + 15).min(99);
                s.sources.push("highlight");
                hit = true;
            }
        }
        if !hit {
            if let Some(clause) = spanned.clause_at(h).cloned() {
                let kind = match clause {
                    ClausePath::From | ClausePath::Join(_) => FaultKind::Relation,
                    ClausePath::SelectItem(_) | ClausePath::SelectList | ClausePath::GroupBy => {
                        FaultKind::Attribute
                    }
                    ClausePath::Limit => FaultKind::Literal,
                    _ => FaultKind::Operator,
                };
                let subject = h.slice(&spanned.text).to_string();
                b.push(kind, h, clause, subject, 65, "highlight");
            }
        }
    }

    // Merge sites that accuse the same (kind, span): corroborating
    // evidence raises confidence instead of duplicating the row.
    let mut merged: Vec<FaultSite> = Vec::new();
    for s in b.sites {
        if let Some(prev) = merged
            .iter_mut()
            .find(|p| p.kind == s.kind && p.span == s.span)
        {
            prev.confidence = (prev.confidence.max(s.confidence) + 8).min(99);
            for src in s.sources {
                if !prev.sources.contains(&src) {
                    prev.sources.push(src);
                }
            }
        } else {
            merged.push(s);
        }
    }

    merged.sort_by(|a, b| {
        b.confidence
            .cmp(&a.confidence)
            .then_with(|| a.span.start.cmp(&b.span.start))
            .then_with(|| a.kind.cmp(&b.kind))
            .then_with(|| a.subject.cmp(&b.subject))
    });
    merged.truncate(12);
    merged
}

/// Sites suggested by feedback cues alone: literals the feedback
/// contradicts, schema entities it names that the query lacks, aggregate
/// words that disagree with the aggregates in use, and direction words
/// that disagree with ORDER BY.
fn feedback_sites(
    query: &Query,
    _schema: &SchemaInfo,
    spanned: &SpannedSql,
    cues: &FeedbackCues,
    b: &mut SiteBuilder,
) {
    let core = &query.core;

    // Literal cues against WHERE conjuncts (and HAVING).
    let mut clauses: Vec<(ClausePath, &Expr)> = Vec::new();
    if let Some(w) = &core.where_clause {
        for (i, conj) in w.conjuncts().into_iter().enumerate() {
            clauses.push((ClausePath::WherePredicate(i), conj));
        }
    }
    if let Some(h) = &core.having {
        clauses.push((ClausePath::Having, h));
    }
    for (clause, expr) in &clauses {
        for lit in expr_literals(expr) {
            let accused = match &lit {
                _ if !cues.years.is_empty() => {
                    literal_year(&lit).is_some_and(|y| !cues.years.contains(&y))
                }
                Literal::Number(n) => {
                    literal_year(&lit).is_none()
                        && !cues.numbers.is_empty()
                        && !cues.numbers.contains(n)
                }
                Literal::Float(x) => !cues.floats.is_empty() && !cues.floats.iter().any(|c| c == x),
                Literal::String(s) => {
                    !cues.strings.is_empty()
                        && !cues.strings.iter().any(|c| c.eq_ignore_ascii_case(s))
                }
                _ => false,
            };
            if accused {
                let conf = if cues.years.is_empty() { 62 } else { 80 };
                b.push(
                    FaultKind::Literal,
                    literal_span(spanned, clause, &lit),
                    clause.clone(),
                    lit.to_string(),
                    conf,
                    "feedback",
                );
            }
        }
    }

    // A number cue disagreeing with LIMIT accuses the LIMIT literal; a
    // row-count phrase with no LIMIT at all accuses the missing clause.
    match (&query.limit, cues.numbers.is_empty()) {
        (Some(limit), false)
            if !cues
                .numbers
                .iter()
                .any(|n| u64::try_from(*n).is_ok_and(|u| u == limit.count)) =>
        {
            b.push(
                FaultKind::Literal,
                clause_fallback_span(spanned, &ClausePath::Limit),
                ClausePath::Limit,
                limit.count.to_string(),
                68,
                "feedback",
            );
        }
        (None, false) if cues.limit_hint => {
            b.push(
                FaultKind::Literal,
                clause_fallback_span(spanned, &ClausePath::Limit),
                ClausePath::Limit,
                String::new(),
                60,
                "feedback",
            );
        }
        _ => {}
    }

    // Schema tables named in feedback but absent from the query.
    let query_tables = query.all_table_names();
    for t in &cues.tables {
        if !query_tables.iter().any(|q| q.eq_ignore_ascii_case(t)) {
            b.push(
                FaultKind::Relation,
                clause_fallback_span(spanned, &ClausePath::From),
                ClausePath::From,
                t.clone(),
                65,
                "feedback",
            );
        }
    }

    // Columns named in feedback: absent ones accuse the clause the
    // feedback wording suggests; present ones mark the existing atom as
    // the thing under discussion (lower confidence).
    let mut referenced: Vec<String> = Vec::new();
    for c in query.cores() {
        let mut visit = |e: &Expr| {
            for cr in e.columns() {
                if !referenced
                    .iter()
                    .any(|r| r.eq_ignore_ascii_case(&cr.column))
                {
                    referenced.push(cr.column.clone());
                }
            }
        };
        for item in &c.items {
            if let crate::ast::SelectItem::Expr { expr, .. } = item {
                visit(expr);
            }
        }
        if let Some(w) = &c.where_clause {
            visit(w);
        }
        for g in &c.group_by {
            visit(g);
        }
        if let Some(h) = &c.having {
            visit(h);
        }
    }
    for o in &query.order_by {
        for cr in o.expr.columns() {
            if !referenced
                .iter()
                .any(|r| r.eq_ignore_ascii_case(&cr.column))
            {
                referenced.push(cr.column.clone());
            }
        }
    }

    for col in &cues.columns {
        if referenced.iter().any(|r| r.eq_ignore_ascii_case(col)) {
            if let Some((_, span)) = spanned.atoms.iter().find(|(a, _)| {
                a.eq_ignore_ascii_case(col)
                    || a.to_lowercase()
                        .ends_with(&format!(".{}", col.to_lowercase()))
            }) {
                let clause = spanned
                    .clause_at(*span)
                    .cloned()
                    .unwrap_or(ClausePath::SelectList);
                b.push(
                    FaultKind::Attribute,
                    *span,
                    clause,
                    col.clone(),
                    45,
                    "feedback",
                );
            }
        } else {
            let clause = cues
                .ascending
                .then_some(ClausePath::OrderBy)
                .or_else(|| cues.descending.then_some(ClausePath::OrderBy))
                .unwrap_or(ClausePath::SelectList);
            b.push(
                FaultKind::Attribute,
                clause_fallback_span(spanned, &clause),
                clause,
                col.clone(),
                60,
                "feedback",
            );
        }
    }

    // Aggregate words against the aggregates actually used.
    let mut used_aggs: Vec<(Func, usize)> = Vec::new();
    for (i, item) in core.items.iter().enumerate() {
        if let crate::ast::SelectItem::Expr { expr, .. } = item {
            expr.walk(&mut |e| {
                if let Expr::Call { func, .. } = e {
                    if func.is_aggregate() {
                        used_aggs.push((*func, i));
                    }
                }
            });
        }
    }
    for want in &cues.aggregates {
        for (used, item_idx) in &used_aggs {
            if used != want {
                let span = spanned
                    .atoms
                    .iter()
                    .find(|(a, _)| a.eq_ignore_ascii_case(used.as_str()))
                    .map_or_else(
                        || clause_fallback_span(spanned, &ClausePath::SelectItem(*item_idx)),
                        |(_, s)| *s,
                    );
                b.push(
                    FaultKind::Function,
                    span,
                    ClausePath::SelectItem(*item_idx),
                    used.as_str().to_string(),
                    72,
                    "feedback",
                );
            }
        }
    }

    // Direction words against ORDER BY.
    if cues.ascending || cues.descending {
        let mismatch = query
            .order_by
            .first()
            .is_none_or(|o| o.desc != cues.descending);
        if mismatch {
            let conf = if query.order_by.is_empty() { 52 } else { 74 };
            b.push(
                FaultKind::Operator,
                clause_fallback_span(spanned, &ClausePath::OrderBy),
                ClausePath::OrderBy,
                if cues.descending { "DESC" } else { "ASC" }.to_string(),
                conf,
                "feedback",
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{ColType, TableInfo};
    use crate::parser::parse_query;

    fn schema() -> SchemaInfo {
        SchemaInfo::new(vec![
            TableInfo::new(
                "singer",
                vec![
                    ("singer_id", ColType::Int),
                    ("name", ColType::Text),
                    ("age", ColType::Int),
                    ("country", ColType::Text),
                ],
            ),
            TableInfo::new(
                "concert",
                vec![
                    ("concert_id", ColType::Int),
                    ("singer_id", ColType::Int),
                    ("year", ColType::Int),
                ],
            )
            .with_fk("singer_id", "singer", "singer_id"),
        ])
    }

    #[test]
    fn cues_link_schema_entities_and_literals() {
        let cues = FeedbackCues::extract(
            "show the singer names from 2024, not 2023, and the average age",
            &schema(),
        );
        assert_eq!(cues.years, vec![2024, 2023]);
        assert!(cues.tables.contains(&"singer".to_string()));
        assert!(cues.columns.contains(&"age".to_string()));
        assert!(cues.aggregates.contains(&Func::Avg));
    }

    #[test]
    fn compound_column_wins_over_prefix_table() {
        let cues = FeedbackCues::extract("use the singer id", &schema());
        assert!(cues.columns.contains(&"singer_id".to_string()));
        assert!(!cues.tables.contains(&"singer".to_string()));
    }

    #[test]
    fn diagnostics_become_ranked_sites() {
        let q = parse_query("SELECT nam FROM singer").unwrap();
        let sites = locate_faults(&q, &schema(), LocateOptions::default());
        assert!(!sites.is_empty());
        assert_eq!(sites[0].kind, FaultKind::Attribute);
        assert_eq!(sites[0].subject, "nam");
        assert!(sites[0].confidence >= 90);
        assert!(sites[0].sources.contains(&"check"));
    }

    #[test]
    fn year_feedback_accuses_the_stale_literal() {
        let q = parse_query("SELECT COUNT(*) FROM concert WHERE year = 2023").unwrap();
        let sites = locate_faults(
            &q,
            &schema(),
            LocateOptions {
                feedback: Some("we are in 2024"),
                highlight: None,
            },
        );
        let top = &sites[0];
        assert_eq!(top.kind, FaultKind::Literal);
        assert_eq!(top.subject, "2023");
        let sql = crate::printer::print_query(&q);
        assert_eq!(top.span.slice(&sql), "2023");
    }

    #[test]
    fn aggregate_feedback_accuses_the_wrong_aggregate() {
        let q = parse_query("SELECT SUM(age) FROM singer").unwrap();
        let sites = locate_faults(
            &q,
            &schema(),
            LocateOptions {
                feedback: Some("I wanted the average age, not the total age"),
                highlight: None,
            },
        );
        assert!(sites
            .iter()
            .any(|s| s.kind == FaultKind::Function && s.subject == "SUM"));
    }

    #[test]
    fn highlight_boosts_overlapping_sites() {
        let q = parse_query("SELECT COUNT(*) FROM concert WHERE year = 2023").unwrap();
        let sql = crate::printer::print_query(&q);
        let at = sql.find("2023").unwrap();
        let base = locate_faults(
            &q,
            &schema(),
            LocateOptions {
                feedback: Some("we are in 2024"),
                highlight: None,
            },
        );
        let boosted = locate_faults(
            &q,
            &schema(),
            LocateOptions {
                feedback: Some("we are in 2024"),
                highlight: Some(Span::new(at, at + 4)),
            },
        );
        assert!(boosted[0].confidence > base[0].confidence);
        assert!(boosted[0].sources.contains(&"highlight"));
    }

    #[test]
    fn localization_is_deterministic() {
        let q = parse_query("SELECT SUM(age) FROM singer WHERE age > 30").unwrap();
        let opts = LocateOptions {
            feedback: Some("show the average age of singers over 40"),
            highlight: None,
        };
        let a = locate_faults(&q, &schema(), opts);
        let b = locate_faults(&q, &schema(), opts);
        assert_eq!(a, b);
    }
}
