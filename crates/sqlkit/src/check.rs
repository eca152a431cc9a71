//! Static semantic analysis of SQL queries against a database schema.
//!
//! FISQL's correction loop (§3.3) regenerates SQL from feedback and — in
//! the seed pipeline — only discovers a bad query at execution time. This
//! module moves that discovery *before* execution: [`check_query`]
//! resolves every table/column reference, type-checks expressions, and
//! lints semantic misuse, returning span-anchored [`Diagnostic`]s with
//! repair hints. [`repair_query`] additionally attempts a minimal
//! structure-preserving repair (nearest-name substitution over the
//! schema), so a candidate with a *typo-level* hallucinated name can be
//! fixed without burning an engine execution.
//!
//! ## Severity calibration
//!
//! Severities mirror the engine's behaviour, which is deliberately
//! SQLite-lenient in many corners:
//!
//! - [`Severity::Error`] — the engine would (or could, once rows exist)
//!   refuse to execute the query: unknown/ambiguous names, duplicate
//!   bindings, aggregates in WHERE, arity violations, misplaced `*`,
//!   set-operation/subquery arity mismatches, unresolvable ORDER BY
//!   targets after a set operation.
//! - [`Severity::Warning`] — the query executes but is suspicious:
//!   cross-class comparisons (the engine total-orders values), arithmetic
//!   on text, non-grouped columns under GROUP BY (the engine takes the
//!   group's first row), HAVING without aggregation (silently ignored in
//!   row mode), join conditions that don't connect the joined relation,
//!   `LIMIT 0`, extra function arguments (ignored).
//!
//! The analyzer may be *stricter* than the lazily-erroring engine (an
//! unknown column in a query over an empty table executes fine but is
//! still an [`DiagCode::UnknownColumn`] error here); it must never be
//! *laxer* on queries the corpus generators produce — `tests/property.rs`
//! holds it to that: analyzer-clean generated queries never fail engine
//! execution.
//!
//! ## Spans
//!
//! Diagnostics anchor to byte spans of the *canonically printed* SQL
//! ([`crate::printer::print_query_spanned`]), via the printer's atom-span
//! records. When the same atom text occurs several times, spans are
//! matched by occurrence order (best effort — an off-by-one between two
//! identical atoms still points at the same text).

use crate::ast::*;
use crate::flow;
use crate::printer::{print_expr, print_query_spanned, SpannedSql};
use crate::repair::QueryFacts;
use crate::span::Span;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

// ---------------------------------------------------------------------------
// Schema description
// ---------------------------------------------------------------------------

/// Column type as the analyzer sees it (mirrors `engine::DataType`
/// without depending on the engine crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum ColType {
    Int,
    Float,
    Text,
    Bool,
    Date,
}

impl ColType {
    /// Whether values of this type are numbers.
    pub fn is_numeric(&self) -> bool {
        matches!(self, ColType::Int | ColType::Float)
    }

    /// Whether values of this type are stored as text (dates are ISO
    /// strings in the engine, so they compare against string literals).
    pub fn is_textual(&self) -> bool {
        matches!(self, ColType::Text | ColType::Date)
    }

    /// Whether two types live in the same comparison class (the engine
    /// total-orders across classes, but a cross-class comparison is
    /// almost certainly a mistake).
    pub fn comparable_with(&self, other: ColType) -> bool {
        self.is_numeric() == other.is_numeric() && self.is_textual() == other.is_textual()
            || *self == other
    }

    /// Lower-case display name.
    pub fn name(&self) -> &'static str {
        match self {
            ColType::Int => "int",
            ColType::Float => "float",
            ColType::Text => "text",
            ColType::Bool => "bool",
            ColType::Date => "date",
        }
    }
}

impl fmt::Display for ColType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One column of a schema table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColumnInfo {
    /// Column name.
    pub name: String,
    /// Declared type.
    pub ctype: ColType,
}

/// A foreign-key edge, by column *names* (the engine stores indices; the
/// introspection layer resolves them).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FkInfo {
    /// Referencing column on the owning table.
    pub column: String,
    /// Referenced table.
    pub ref_table: String,
    /// Referenced column on that table.
    pub ref_column: String,
}

/// One table of the schema under analysis.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableInfo {
    /// Table name.
    pub name: String,
    /// Columns in declaration order.
    pub columns: Vec<ColumnInfo>,
    /// Primary-key column name, if any.
    pub primary_key: Option<String>,
    /// Outgoing foreign keys.
    pub foreign_keys: Vec<FkInfo>,
}

impl TableInfo {
    /// Builds a table description from `(name, type)` pairs.
    pub fn new(name: impl Into<String>, columns: Vec<(&str, ColType)>) -> Self {
        TableInfo {
            name: name.into(),
            columns: columns
                .into_iter()
                .map(|(n, t)| ColumnInfo {
                    name: n.to_string(),
                    ctype: t,
                })
                .collect(),
            primary_key: None,
            foreign_keys: Vec::new(),
        }
    }

    /// Case-insensitive column lookup.
    pub fn column(&self, name: &str) -> Option<&ColumnInfo> {
        self.columns
            .iter()
            .find(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Adds a foreign-key edge (builder style).
    pub fn with_fk(mut self, column: &str, ref_table: &str, ref_column: &str) -> Self {
        self.foreign_keys.push(FkInfo {
            column: column.to_string(),
            ref_table: ref_table.to_string(),
            ref_column: ref_column.to_string(),
        });
        self
    }
}

/// The full schema a query is analyzed against.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchemaInfo {
    /// Tables of the database.
    pub tables: Vec<TableInfo>,
}

impl SchemaInfo {
    /// Builds a schema from tables.
    pub fn new(tables: Vec<TableInfo>) -> Self {
        SchemaInfo { tables }
    }

    /// Case-insensitive table lookup.
    pub fn table(&self, name: &str) -> Option<&TableInfo> {
        self.tables
            .iter()
            .find(|t| t.name.eq_ignore_ascii_case(name))
    }

    /// All table names.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.iter().map(|t| t.name.as_str()).collect()
    }
}

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

/// Diagnostic severity. `Error` means the engine would (or could, once
/// rows exist) refuse the query; `Warning` means it executes but is
/// suspicious.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Severity {
    /// Executes, but probably not what was meant.
    Warning,
    /// Would fail (or silently misbehave in a way execution can't mask).
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Typed diagnostic codes emitted by [`check_query`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DiagCode {
    /// FROM references a table the schema does not have.
    UnknownTable,
    /// A column reference resolves to no in-scope table.
    UnknownColumn,
    /// An unqualified column name matches more than one in-scope table.
    AmbiguousColumn,
    /// Two FROM factors bind the same name.
    DuplicateAlias,
    /// An aggregate call inside WHERE (the engine rejects this eagerly).
    AggregateInWhere,
    /// An aggregate call nested inside another aggregate's argument.
    NestedAggregate,
    /// `*` outside `COUNT(*)` / the SELECT list, or `SELECT *` without FROM.
    MisplacedWildcard,
    /// Too few arguments for a function.
    BadArity,
    /// More arguments than the function consumes (the engine ignores them).
    ExtraArgument,
    /// A function argument of the wrong type class.
    BadArgType,
    /// A comparison or arithmetic across incompatible type classes.
    TypeMismatch,
    /// A selected column neither grouped nor aggregated under GROUP BY.
    UngroupedColumn,
    /// HAVING without GROUP BY or aggregation (ignored in row mode).
    HavingWithoutAggregate,
    /// A join condition that does not connect the joined relation.
    DisconnectedJoin,
    /// Set-operation arms with different output arities.
    SetOpArity,
    /// A scalar / IN subquery producing more than one column.
    SubqueryArity,
    /// An ORDER BY target the query cannot resolve (after a set
    /// operation: neither an in-range ordinal nor an output column; in a
    /// simple query: an out-of-range ordinal, which sorts by a constant).
    OrderByTarget,
    /// `LIMIT 0` — the query can never return rows.
    LimitZero,
    /// A predicate (or pair of predicates on one key) no row can satisfy,
    /// proved by the flow pass's constant/interval domain.
    ContradictoryPredicate,
    /// A predicate every row satisfies — it filters nothing.
    TautologicalPredicate,
    /// A predicate implied by another conjunct on the same key.
    RedundantPredicate,
    /// A join whose ON condition can never be satisfied.
    ImpossibleJoin,
}

impl DiagCode {
    /// Stable kebab-case code string (used in reports and tests).
    pub fn as_str(&self) -> &'static str {
        match self {
            DiagCode::UnknownTable => "unknown-table",
            DiagCode::UnknownColumn => "unknown-column",
            DiagCode::AmbiguousColumn => "ambiguous-column",
            DiagCode::DuplicateAlias => "duplicate-alias",
            DiagCode::AggregateInWhere => "aggregate-in-where",
            DiagCode::NestedAggregate => "nested-aggregate",
            DiagCode::MisplacedWildcard => "misplaced-wildcard",
            DiagCode::BadArity => "bad-arity",
            DiagCode::ExtraArgument => "extra-argument",
            DiagCode::BadArgType => "bad-arg-type",
            DiagCode::TypeMismatch => "type-mismatch",
            DiagCode::UngroupedColumn => "ungrouped-column",
            DiagCode::HavingWithoutAggregate => "having-without-aggregate",
            DiagCode::DisconnectedJoin => "disconnected-join",
            DiagCode::SetOpArity => "set-op-arity",
            DiagCode::SubqueryArity => "subquery-arity",
            DiagCode::OrderByTarget => "order-by-target",
            DiagCode::LimitZero => "limit-zero",
            DiagCode::ContradictoryPredicate => "contradictory-predicate",
            DiagCode::TautologicalPredicate => "tautological-predicate",
            DiagCode::RedundantPredicate => "redundant-predicate",
            DiagCode::ImpossibleJoin => "impossible-join",
        }
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One analyzer finding: a typed code, a severity, the byte span of the
/// offending atom in the canonically printed SQL, a human message, and an
/// optional repair hint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Typed code.
    pub code: DiagCode,
    /// Error (would fail execution) or warning (lint).
    pub severity: Severity,
    /// Byte span in `print_query(..)`'s output.
    pub span: Span,
    /// Human-readable description.
    pub message: String,
    /// Suggested repair, when one exists.
    pub hint: Option<String>,
}

impl Diagnostic {
    /// Whether this finding gates execution.
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }

    /// Renders the diagnostic against the printed SQL it anchors to.
    pub fn render(&self, sql: &str) -> String {
        let mut out = format!("{}[{}]: {}", self.severity, self.code, self.message);
        let snippet = self.span.slice(sql);
        if !snippet.is_empty() {
            out.push_str(&format!(" — at bytes {} `{}`", self.span, snippet));
        }
        if let Some(h) = &self.hint {
            out.push_str(&format!(" (hint: {h})"));
        }
        out
    }
}

/// Renders a full diagnostic report for the given printed SQL, one
/// finding per line (errors first). Empty string when there are none.
pub fn render_report(sql: &str, diags: &[Diagnostic]) -> String {
    let mut sorted: Vec<&Diagnostic> = diags.iter().collect();
    sorted.sort_by_key(|d| (std::cmp::Reverse(d.severity), d.span.start));
    sorted.iter().fold(String::new(), |mut out, d| {
        out.push_str("- ");
        out.push_str(&d.render(sql));
        out.push('\n');
        out
    })
}

// ---------------------------------------------------------------------------
// Edit distance + nearest-name hints
// ---------------------------------------------------------------------------

/// Case-insensitive Levenshtein distance.
pub fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().flat_map(|c| c.to_lowercase()).collect();
    let b: Vec<char> = b.chars().flat_map(|c| c.to_lowercase()).collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// The unique nearest candidate within `max_dist`, or `None` when there
/// is no candidate in range or the best distance is tied.
pub fn nearest_name<'a, I>(name: &str, candidates: I, max_dist: usize) -> Option<&'a str>
where
    I: IntoIterator<Item = &'a str>,
{
    let mut best: Option<(&str, usize)> = None;
    let mut tied = false;
    for c in candidates {
        if c.eq_ignore_ascii_case(name) {
            continue;
        }
        let d = edit_distance(name, c);
        if d > max_dist {
            continue;
        }
        match best {
            Some((_, bd)) if d > bd => {}
            Some((_, bd)) if d == bd => tied = true,
            _ => {
                best = Some((c, d));
                tied = false;
            }
        }
    }
    match (best, tied) {
        (Some((c, _)), false) => Some(c),
        _ => None,
    }
}

/// Hint distance: liberal (suggestions are for the re-prompt).
const HINT_DIST: usize = 3;
/// Auto-repair distance: conservative (typo-level only), so the repair
/// never rewrites a semantically different name.
const REPAIR_DIST: usize = 2;

// ---------------------------------------------------------------------------
// Span source: atom spans by occurrence order
// ---------------------------------------------------------------------------

struct SpanSource {
    spanned: SpannedSql,
    by_atom: HashMap<String, Vec<Span>>,
    cursors: HashMap<String, usize>,
}

impl SpanSource {
    fn new(query: &Query) -> Self {
        let spanned = print_query_spanned(query);
        let mut by_atom: HashMap<String, Vec<Span>> = HashMap::new();
        for (a, s) in &spanned.atoms {
            by_atom.entry(a.clone()).or_default().push(*s);
        }
        SpanSource {
            spanned,
            by_atom,
            cursors: HashMap::new(),
        }
    }

    fn whole(&self) -> Span {
        Span::new(0, self.spanned.text.len())
    }

    /// The span of the next unconsumed occurrence of `atom` (falling back
    /// to the first occurrence, then the whole query).
    fn next(&mut self, atom: &str) -> Span {
        match self.by_atom.get(atom) {
            Some(spans) => {
                let cur = self.cursors.entry(atom.to_string()).or_insert(0);
                let span = spans.get(*cur).or_else(|| spans.first()).copied();
                *cur += 1;
                span.unwrap_or_else(|| Span::new(0, self.spanned.text.len()))
            }
            None => self.whole(),
        }
    }

    /// Clause span of the outermost query (fallback: whole query).
    fn clause(&self, path: &ClausePath) -> Span {
        self.spanned.span_of(path).unwrap_or_else(|| self.whole())
    }
}

// ---------------------------------------------------------------------------
// Scopes
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct BindingCol {
    name: String,
    ctype: Option<ColType>,
}

#[derive(Debug, Clone)]
struct ScopeBinding {
    /// The name this factor binds (alias, or table name).
    name: String,
    /// Underlying schema table name, when the factor is a known table.
    table: Option<String>,
    /// Known output columns; meaningless when `open`.
    columns: Vec<BindingCol>,
    /// True when the column set is unknowable (unknown table, or a
    /// derived table whose projection could not be expanded): resolution
    /// against an open binding succeeds silently.
    open: bool,
}

struct Scope<'a> {
    bindings: &'a [ScopeBinding],
    parent: Option<&'a Scope<'a>>,
}

enum Lookup {
    /// Resolved; type known or not.
    Found(Option<ColType>),
    /// Matches several bindings at one scope level.
    Ambiguous(Vec<String>),
    /// The qualifier names a known binding, but the column is not on it.
    NotInBinding(String),
    /// No binding resolves the reference anywhere in the scope chain.
    NotFound,
}

impl Scope<'_> {
    fn resolve(&self, cref: &ColumnRef) -> Lookup {
        if let Some(q) = &cref.table {
            let mut level: Option<&Scope<'_>> = Some(self);
            while let Some(s) = level {
                if let Some(b) = s
                    .bindings
                    .iter()
                    .find(|b| b.name.eq_ignore_ascii_case(q.as_str()))
                {
                    if b.open {
                        return Lookup::Found(None);
                    }
                    return match b
                        .columns
                        .iter()
                        .find(|c| c.name.eq_ignore_ascii_case(&cref.column))
                    {
                        Some(c) => Lookup::Found(c.ctype),
                        None => Lookup::NotInBinding(b.name.clone()),
                    };
                }
                level = s.parent;
            }
            return Lookup::NotFound;
        }
        // Unqualified: innermost scope level with a match wins; an open
        // binding at a level suppresses NotFound for that level.
        let mut level: Option<&Scope<'_>> = Some(self);
        while let Some(s) = level {
            let matches: Vec<&ScopeBinding> = s
                .bindings
                .iter()
                .filter(|b| {
                    !b.open
                        && b.columns
                            .iter()
                            .any(|c| c.name.eq_ignore_ascii_case(&cref.column))
                })
                .collect();
            match matches.len() {
                1 => {
                    let ty = matches[0]
                        .columns
                        .iter()
                        .find(|c| c.name.eq_ignore_ascii_case(&cref.column))
                        .and_then(|c| c.ctype);
                    return Lookup::Found(ty);
                }
                0 => {
                    if s.bindings.iter().any(|b| b.open) {
                        return Lookup::Found(None);
                    }
                }
                _ => return Lookup::Ambiguous(matches.iter().map(|b| b.name.clone()).collect()),
            }
            level = s.parent;
        }
        Lookup::NotFound
    }

    /// Every column name visible from this scope (for nearest-name hints).
    fn visible_columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        let mut level: Option<&Scope<'_>> = Some(self);
        while let Some(s) = level {
            for b in s.bindings {
                out.extend(b.columns.iter().map(|c| c.name.as_str()));
            }
            level = s.parent;
        }
        out
    }
}

// ---------------------------------------------------------------------------
// The checker
// ---------------------------------------------------------------------------

/// Which clause an expression is being checked in (drives aggregate
/// legality and severity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Clause {
    Select,
    On,
    Where,
    GroupBy,
    Having,
    OrderBy,
}

#[derive(Clone, Copy)]
struct ExprCtx {
    clause: Clause,
    /// Inside an aggregate call's argument.
    in_agg: bool,
}

/// Result of checking one expression.
struct Typed {
    ty: Option<ColType>,
    /// Span of the expression's first column atom (anchor for
    /// expression-level diagnostics).
    anchor: Option<Span>,
}

impl Typed {
    fn unknown() -> Typed {
        Typed {
            ty: None,
            anchor: None,
        }
    }
}

/// One output column of a select core (for set-op arity, ORDER BY name
/// resolution, and derived-table binding construction).
#[derive(Debug, Clone)]
struct OutputCol {
    name: String,
    ctype: Option<ColType>,
}

struct Checker<'s> {
    schema: &'s SchemaInfo,
    spans: SpanSource,
    diags: Vec<Diagnostic>,
    /// Bare (non-aggregated) columns of the select item currently being
    /// checked, for the ungrouped-column lint.
    bare_cols: Vec<(ColumnRef, Span)>,
    collect_bare: bool,
}

/// Statically analyzes `query` against `schema`.
///
/// Diagnostics anchor to byte spans of [`crate::print_query`]'s output
/// for the same query. The analyzer never panics on any AST the parser or
/// the corpus generators produce.
pub fn check_query(query: &Query, schema: &SchemaInfo) -> Vec<Diagnostic> {
    let mut checker = Checker {
        schema,
        spans: SpanSource::new(query),
        diags: Vec::new(),
        bare_cols: Vec::new(),
        collect_bare: false,
    };
    checker.check_query_scoped(query, None);
    checker.check_flow(query);
    checker
        .diags
        .sort_by_key(|d| (std::cmp::Reverse(d.severity), d.span.start));
    // Dedupe findings with identical code + span at collection: scoped
    // checking and the flow pass can both anchor a finding to the same
    // atom (and span fallbacks can collapse distinct anchors onto one
    // range). Emitting the duplicate would double-weight the finding in
    // re-prompt folding and fault localization.
    let mut seen: std::collections::HashSet<(DiagCode, usize, usize)> =
        std::collections::HashSet::new();
    checker
        .diags
        .retain(|d| seen.insert((d.code, d.span.start, d.span.end)));
    checker.diags
}

impl Checker<'_> {
    fn push(
        &mut self,
        code: DiagCode,
        severity: Severity,
        span: Span,
        message: String,
        hint: Option<String>,
    ) {
        self.diags.push(Diagnostic {
            code,
            severity,
            span,
            message,
            hint,
        });
    }

    /// Checks a whole query (cores + set ops + trailing ORDER BY/LIMIT)
    /// in `parent` scope; returns the output columns when derivable.
    fn check_query_scoped(
        &mut self,
        q: &Query,
        parent: Option<&Scope<'_>>,
    ) -> Option<Vec<OutputCol>> {
        let first = self.check_core(&q.core, parent);
        let mut arities: Vec<Option<usize>> = vec![first.as_ref().map(|c| c.len())];
        for (_, core) in &q.compound {
            let shape = self.check_core(core, parent);
            arities.push(shape.map(|c| c.len()));
        }
        // Set-operation arity.
        if let Some(base_arity) = arities[0] {
            for (i, arity) in arities.iter().enumerate().skip(1) {
                if let Some(a) = arity {
                    if *a != base_arity {
                        let span = self.spans.clause(&ClausePath::Compound(i - 1));
                        self.push(
                            DiagCode::SetOpArity,
                            Severity::Error,
                            span,
                            format!("set operation combines {base_arity} column(s) with {a}"),
                            Some("make every arm select the same number of columns".into()),
                        );
                    }
                }
            }
        }
        self.check_order_by(q, first.as_deref(), parent);
        if let Some(limit) = &q.limit {
            if limit.count == 0 {
                let span = self.spans.clause(&ClausePath::Limit);
                self.push(
                    DiagCode::LimitZero,
                    Severity::Warning,
                    span,
                    "LIMIT 0 can never return rows".into(),
                    None,
                );
            }
        }
        first
    }

    fn check_order_by(
        &mut self,
        q: &Query,
        output: Option<&[OutputCol]>,
        parent: Option<&Scope<'_>>,
    ) {
        if q.order_by.is_empty() {
            return;
        }
        if q.is_simple() {
            // Simple query: ordinals and output names resolve against the
            // projection; anything else evaluates in the source scope.
            let bindings = self.core_bindings(&q.core, parent);
            let scope = Scope {
                bindings: &bindings,
                parent,
            };
            for item in &q.order_by {
                if let Expr::Literal(Literal::Number(n)) = &item.expr {
                    if let Some(out) = output {
                        if *n < 1 || *n as usize > out.len() {
                            let span = self.spans.clause(&ClausePath::OrderBy);
                            self.push(
                                DiagCode::OrderByTarget,
                                Severity::Warning,
                                span,
                                format!(
                                    "ORDER BY {n} is out of range for {} output column(s); \
                                     the sort key is a constant",
                                    out.len()
                                ),
                                None,
                            );
                        }
                    }
                    continue;
                }
                if let Expr::Column(c) = &item.expr {
                    let named = output.is_some_and(|out| {
                        c.table.is_none()
                            && out.iter().any(|o| o.name.eq_ignore_ascii_case(&c.column))
                    });
                    if named {
                        // Resolves by output name/alias; consume the atom
                        // span to keep later cursors aligned.
                        self.spans.next(&c.to_string());
                        continue;
                    }
                }
                let ctx = ExprCtx {
                    clause: Clause::OrderBy,
                    in_agg: false,
                };
                self.check_expr(&item.expr, &scope, ctx);
            }
        } else {
            // After a set operation the engine *eagerly* requires an
            // in-range ordinal or an unqualified output-column name.
            for item in &q.order_by {
                match &item.expr {
                    Expr::Literal(Literal::Number(n)) => {
                        if let Some(out) = output {
                            if *n < 1 || *n as usize > out.len() {
                                let span = self.spans.clause(&ClausePath::OrderBy);
                                self.push(
                                    DiagCode::OrderByTarget,
                                    Severity::Error,
                                    span,
                                    format!(
                                        "ORDER BY {n} is out of range for {} output column(s) \
                                         after a set operation",
                                        out.len()
                                    ),
                                    None,
                                );
                            }
                        }
                    }
                    Expr::Column(c) if c.table.is_none() => {
                        let span = self.spans.next(&c.to_string());
                        if let Some(out) = output {
                            if !out.iter().any(|o| o.name.eq_ignore_ascii_case(&c.column)) {
                                let hint = nearest_name(
                                    &c.column,
                                    out.iter().map(|o| o.name.as_str()),
                                    HINT_DIST,
                                )
                                .map(|n| format!("did you mean output column `{n}`?"));
                                self.push(
                                    DiagCode::OrderByTarget,
                                    Severity::Error,
                                    span,
                                    format!(
                                        "ORDER BY after a set operation must name an output \
                                         column; `{c}` is not one"
                                    ),
                                    hint,
                                );
                            }
                        }
                    }
                    other => {
                        let span = self.spans.clause(&ClausePath::OrderBy);
                        self.push(
                            DiagCode::OrderByTarget,
                            Severity::Error,
                            span,
                            format!(
                                "ORDER BY after a set operation must be an output column or \
                                 ordinal, got `{}`",
                                print_expr(other)
                            ),
                            None,
                        );
                    }
                }
            }
        }
    }

    // -- FROM / scope construction ------------------------------------------

    /// Builds the scope bindings for a core *without* emitting diagnostics
    /// (used when a clause needs the scope re-derived, e.g. ORDER BY).
    fn core_bindings(
        &mut self,
        core: &SelectCore,
        parent: Option<&Scope<'_>>,
    ) -> Vec<ScopeBinding> {
        let Some(from) = &core.from else {
            return Vec::new();
        };
        from.factors()
            .map(|f| self.binding_for(f, parent, false))
            .collect()
    }

    /// Builds one binding; `report` controls diagnostic emission (and atom
    /// span consumption) so the same factor is only reported once.
    fn binding_for(
        &mut self,
        factor: &TableFactor,
        parent: Option<&Scope<'_>>,
        report: bool,
    ) -> ScopeBinding {
        match factor {
            TableFactor::Table { name, alias } => {
                let span = if report {
                    self.spans.next(name)
                } else {
                    self.spans.whole()
                };
                match self.schema.table(name) {
                    Some(t) => ScopeBinding {
                        name: alias.clone().unwrap_or_else(|| name.clone()),
                        table: Some(t.name.clone()),
                        columns: t
                            .columns
                            .iter()
                            .map(|c| BindingCol {
                                name: c.name.clone(),
                                ctype: Some(c.ctype),
                            })
                            .collect(),
                        open: false,
                    },
                    None => {
                        if report {
                            let hint = nearest_name(name, self.schema.table_names(), HINT_DIST)
                                .map(|n| format!("did you mean table `{n}`?"));
                            self.push(
                                DiagCode::UnknownTable,
                                Severity::Error,
                                span,
                                format!("unknown table `{name}`"),
                                hint,
                            );
                        }
                        ScopeBinding {
                            name: alias.clone().unwrap_or_else(|| name.clone()),
                            table: None,
                            columns: Vec::new(),
                            open: true,
                        }
                    }
                }
            }
            TableFactor::Derived { subquery, alias } => {
                let shape = if report {
                    self.check_query_scoped(subquery, parent)
                } else {
                    self.output_shape_only(subquery, parent)
                };
                match shape {
                    Some(cols) => ScopeBinding {
                        name: alias.clone(),
                        table: None,
                        columns: cols
                            .into_iter()
                            .map(|o| BindingCol {
                                name: o.name,
                                ctype: o.ctype,
                            })
                            .collect(),
                        open: false,
                    },
                    None => ScopeBinding {
                        name: alias.clone(),
                        table: None,
                        columns: Vec::new(),
                        open: true,
                    },
                }
            }
        }
    }

    /// Output shape of a query without emitting diagnostics or consuming
    /// spans (a second pass over an already-reported subquery).
    fn output_shape_only(
        &mut self,
        q: &Query,
        parent: Option<&Scope<'_>>,
    ) -> Option<Vec<OutputCol>> {
        let bindings = self.core_bindings(&q.core, parent);
        let scope = Scope {
            bindings: &bindings,
            parent,
        };
        self.output_shape(&q.core, &scope, None)
    }

    /// Output columns of a core given its scope. `item_types` supplies the
    /// per-item types computed during checking, when available.
    fn output_shape(
        &mut self,
        core: &SelectCore,
        scope: &Scope<'_>,
        item_types: Option<&[Option<ColType>]>,
    ) -> Option<Vec<OutputCol>> {
        let mut out = Vec::new();
        for (i, item) in core.items.iter().enumerate() {
            match item {
                SelectItem::Wildcard => {
                    if scope.bindings.iter().any(|b| b.open) {
                        return None;
                    }
                    for b in scope.bindings {
                        for c in &b.columns {
                            out.push(OutputCol {
                                name: c.name.clone(),
                                ctype: c.ctype,
                            });
                        }
                    }
                }
                SelectItem::QualifiedWildcard(t) => {
                    let b = scope
                        .bindings
                        .iter()
                        .find(|b| b.name.eq_ignore_ascii_case(t))?;
                    if b.open {
                        return None;
                    }
                    for c in &b.columns {
                        out.push(OutputCol {
                            name: c.name.clone(),
                            ctype: c.ctype,
                        });
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let name = alias.clone().unwrap_or_else(|| match expr {
                        Expr::Column(c) => c.column.clone(),
                        other => print_expr(other),
                    });
                    out.push(OutputCol {
                        name,
                        ctype: item_types.and_then(|ts| ts.get(i).copied().flatten()),
                    });
                }
            }
        }
        Some(out)
    }

    // -- core ---------------------------------------------------------------

    fn check_core(
        &mut self,
        core: &SelectCore,
        parent: Option<&Scope<'_>>,
    ) -> Option<Vec<OutputCol>> {
        // FROM: build bindings, reporting unknown tables / duplicate
        // aliases, and check join constraints against the scope built so
        // far (matching the engine's incremental join evaluation).
        let mut bindings: Vec<ScopeBinding> = Vec::new();
        if let Some(from) = &core.from {
            let base = self.binding_for(&from.base, parent, true);
            bindings.push(base);
            for join in &from.joins {
                let b = self.binding_for(&join.factor, parent, true);
                if bindings
                    .iter()
                    .any(|x| x.name.eq_ignore_ascii_case(&b.name))
                {
                    let span = self.spans.whole();
                    self.push(
                        DiagCode::DuplicateAlias,
                        Severity::Error,
                        span,
                        format!("duplicate binding `{}` in FROM", b.name),
                        Some("alias one of the occurrences (`AS t2`)".into()),
                    );
                }
                bindings.push(b);
                self.check_join_constraint(join, &bindings, parent);
            }
        }

        let aggregate_mode = !core.group_by.is_empty()
            || core.items.iter().any(|i| match i {
                SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
                _ => false,
            })
            || core
                .having
                .as_ref()
                .is_some_and(|h| h.contains_aggregate() || !core.group_by.is_empty());

        // SELECT items.
        let mut item_types: Vec<Option<ColType>> = Vec::with_capacity(core.items.len());
        for item in &core.items {
            match item {
                SelectItem::Wildcard => {
                    let span = self.spans.next("*");
                    item_types.push(None);
                    if core.from.is_none() {
                        self.push(
                            DiagCode::MisplacedWildcard,
                            Severity::Error,
                            span,
                            "SELECT * without a FROM clause".into(),
                            None,
                        );
                    } else if aggregate_mode {
                        self.push(
                            DiagCode::UngroupedColumn,
                            Severity::Warning,
                            span,
                            "SELECT * under aggregation takes arbitrary rows for \
                             non-grouped columns"
                                .into(),
                            Some("select the grouped columns and aggregates explicitly".into()),
                        );
                    }
                }
                SelectItem::QualifiedWildcard(t) => {
                    let span = self.spans.next(&format!("{t}.*"));
                    item_types.push(None);
                    if !bindings.iter().any(|b| b.name.eq_ignore_ascii_case(t)) {
                        let hint =
                            nearest_name(t, bindings.iter().map(|b| b.name.as_str()), HINT_DIST)
                                .map(|n| format!("did you mean `{n}.*`?"));
                        self.push(
                            DiagCode::UnknownTable,
                            Severity::Error,
                            span,
                            format!("`{t}.*` does not name a table in FROM"),
                            hint,
                        );
                    }
                }
                SelectItem::Expr { expr, .. } => {
                    let scope = Scope {
                        bindings: &bindings,
                        parent,
                    };
                    self.bare_cols.clear();
                    self.collect_bare = true;
                    let ctx = ExprCtx {
                        clause: Clause::Select,
                        in_agg: false,
                    };
                    let t = self.check_expr(expr, &scope, ctx);
                    self.collect_bare = false;
                    item_types.push(t.ty);
                    if aggregate_mode {
                        let bare = std::mem::take(&mut self.bare_cols);
                        for (cref, span) in bare {
                            if !is_grouped(&cref, &core.group_by) {
                                self.push(
                                    DiagCode::UngroupedColumn,
                                    Severity::Warning,
                                    span,
                                    format!(
                                        "column `{cref}` is neither grouped nor aggregated; \
                                         an arbitrary row's value is returned"
                                    ),
                                    Some(format!(
                                        "add `{cref}` to GROUP BY or wrap it in an aggregate"
                                    )),
                                );
                            }
                        }
                    }
                }
            }
        }

        let scope = Scope {
            bindings: &bindings,
            parent,
        };

        // WHERE: aggregates are an eager engine error here.
        if let Some(w) = &core.where_clause {
            let ctx = ExprCtx {
                clause: Clause::Where,
                in_agg: false,
            };
            self.check_expr(w, &scope, ctx);
        }

        // GROUP BY keys evaluate in the row scope.
        for key in &core.group_by {
            let ctx = ExprCtx {
                clause: Clause::GroupBy,
                in_agg: false,
            };
            self.check_expr(key, &scope, ctx);
        }

        // HAVING: aggregates allowed; lint when it can't do anything.
        if let Some(h) = &core.having {
            let ctx = ExprCtx {
                clause: Clause::Having,
                in_agg: false,
            };
            self.check_expr(h, &scope, ctx);
            if !aggregate_mode {
                let span = self.spans.clause(&ClausePath::Having);
                self.push(
                    DiagCode::HavingWithoutAggregate,
                    Severity::Warning,
                    span,
                    "HAVING without GROUP BY or aggregation has no effect".into(),
                    Some("use WHERE for row filters".into()),
                );
            }
        }

        self.output_shape(core, &scope, Some(&item_types))
    }

    fn check_join_constraint(
        &mut self,
        join: &Join,
        bindings_so_far: &[ScopeBinding],
        parent: Option<&Scope<'_>>,
    ) {
        let Some(on) = &join.constraint else {
            if join.kind != JoinKind::Cross {
                let span = self.spans.clause(&ClausePath::From);
                self.push(
                    DiagCode::DisconnectedJoin,
                    Severity::Warning,
                    span,
                    format!("{} without an ON condition", join.kind.as_str()),
                    self.fk_join_hint(bindings_so_far),
                );
            }
            return;
        };
        let scope = Scope {
            bindings: bindings_so_far,
            parent,
        };
        let ctx = ExprCtx {
            clause: Clause::On,
            in_agg: false,
        };
        let anchor = self.check_expr(on, &scope, ctx).anchor;
        // Which side does each referenced column land on?
        let right_idx = bindings_so_far.len() - 1;
        let mut touches_right = false;
        let mut touches_left = false;
        let mut any_col = false;
        for cref in on.columns() {
            any_col = true;
            if let Some(idx) = binding_index(bindings_so_far, cref) {
                if idx == right_idx {
                    touches_right = true;
                } else {
                    touches_left = true;
                }
            }
        }
        if any_col && (!touches_right || !touches_left) {
            let side = if touches_right { "left" } else { "joined" };
            let span = anchor.unwrap_or_else(|| self.spans.clause(&ClausePath::From));
            self.push(
                DiagCode::DisconnectedJoin,
                Severity::Warning,
                span,
                format!(
                    "join condition `{}` does not reference the {side} relation",
                    print_expr(on)
                ),
                self.fk_join_hint(bindings_so_far),
            );
        }
    }

    // -------------------------------------------------------------------
    // Flow lints (the `crate::flow` abstract-interpretation pass)
    // -------------------------------------------------------------------

    /// Lints driven by the flow pass: predicates no row can satisfy,
    /// predicates that filter nothing, predicates implied by a sibling
    /// conjunct, and joins whose ON condition can never match. All are
    /// warnings — the engine executes these queries fine; they just
    /// cannot compute what was plausibly meant.
    fn check_flow(&mut self, q: &Query) {
        for (ci, core) in q.cores().enumerate() {
            // Per-predicate spans are recorded for the first core only;
            // compound arms anchor to their arm's clause span.
            let arm = (ci > 0).then(|| {
                self.spans
                    .clause(&ClausePath::Compound(ci.saturating_sub(1)))
            });
            if let Some(w) = &core.where_clause {
                let spans: Vec<Span> = (0..w.conjuncts().len())
                    .map(|i| {
                        arm.unwrap_or_else(|| self.spans.clause(&ClausePath::WherePredicate(i)))
                    })
                    .collect();
                self.filter_flow_lints(w, "WHERE", &spans);
            }
            if let Some(h) = &core.having {
                let span = arm.unwrap_or_else(|| self.spans.clause(&ClausePath::Having));
                let spans = vec![span; h.conjuncts().len()];
                self.filter_flow_lints(h, "HAVING", &spans);
            }
            if let Some(from) = &core.from {
                for (ji, join) in from.joins.iter().enumerate() {
                    let Some(on) = &join.constraint else { continue };
                    if flow::analyze_conjunction(&on.conjuncts()).unsatisfiable() {
                        let span = arm.unwrap_or_else(|| self.spans.clause(&ClausePath::Join(ji)));
                        self.push(
                            DiagCode::ImpossibleJoin,
                            Severity::Warning,
                            span,
                            format!("join condition `{}` can never be satisfied", print_expr(on)),
                            Some("no row pair can match; fix the ON condition".into()),
                        );
                    }
                }
            }
        }
    }

    /// Reports the flow pass's findings for one WHERE/HAVING conjunction;
    /// `spans[i]` anchors conjunct `i`.
    fn filter_flow_lints(&mut self, filter: &Expr, clause: &str, spans: &[Span]) {
        let conjuncts = filter.conjuncts();
        let facts = flow::analyze_conjunction(&conjuncts);
        for &i in &facts.never_true {
            self.push(
                DiagCode::ContradictoryPredicate,
                Severity::Warning,
                spans[i],
                format!(
                    "{clause} predicate `{}` can never be true",
                    print_expr(conjuncts[i])
                ),
                Some("the filter rejects every row; drop or fix the predicate".into()),
            );
        }
        for &i in &facts.tautological {
            self.push(
                DiagCode::TautologicalPredicate,
                Severity::Warning,
                spans[i],
                format!(
                    "{clause} predicate `{}` is always true and filters nothing",
                    print_expr(conjuncts[i])
                ),
                Some("drop the predicate or tighten it".into()),
            );
        }
        for &(i, j) in &facts.contradictions {
            self.push(
                DiagCode::ContradictoryPredicate,
                Severity::Warning,
                spans[j],
                format!(
                    "{clause} predicates `{}` and `{}` contradict each other; \
                     no row satisfies both",
                    print_expr(conjuncts[i]),
                    print_expr(conjuncts[j])
                ),
                Some("the conjunction is unsatisfiable; one side must change".into()),
            );
        }
        for &(red, by) in &facts.redundant {
            self.push(
                DiagCode::RedundantPredicate,
                Severity::Warning,
                spans[red],
                format!(
                    "{clause} predicate `{}` is implied by `{}`",
                    print_expr(conjuncts[red]),
                    print_expr(conjuncts[by])
                ),
                Some(format!("drop `{}`", print_expr(conjuncts[red]))),
            );
        }
    }

    /// Suggests a join condition along a schema foreign key between the
    /// last binding and any earlier one.
    fn fk_join_hint(&self, bindings: &[ScopeBinding]) -> Option<String> {
        let right = bindings.last()?;
        let rt = self.schema.table(right.table.as_deref()?)?;
        for left in &bindings[..bindings.len() - 1] {
            let Some(lt_name) = left.table.as_deref() else {
                continue;
            };
            let Some(lt) = self.schema.table(lt_name) else {
                continue;
            };
            for fk in &rt.foreign_keys {
                if fk.ref_table.eq_ignore_ascii_case(&lt.name) {
                    return Some(format!(
                        "try ON {}.{} = {}.{}",
                        left.name, fk.ref_column, right.name, fk.column
                    ));
                }
            }
            for fk in &lt.foreign_keys {
                if fk.ref_table.eq_ignore_ascii_case(&rt.name) {
                    return Some(format!(
                        "try ON {}.{} = {}.{}",
                        left.name, fk.column, right.name, fk.ref_column
                    ));
                }
            }
        }
        None
    }

    // -- expressions ---------------------------------------------------------

    fn check_expr(&mut self, e: &Expr, scope: &Scope<'_>, ctx: ExprCtx) -> Typed {
        match e {
            Expr::Column(cref) => self.check_column(cref, scope, ctx),
            Expr::Literal(l) => Typed {
                ty: literal_type(l),
                anchor: None,
            },
            Expr::Wildcard => {
                let span = self.spans.next("*");
                self.push(
                    DiagCode::MisplacedWildcard,
                    Severity::Error,
                    span,
                    "`*` is only valid as COUNT(*) or a SELECT item".into(),
                    None,
                );
                Typed {
                    ty: None,
                    anchor: Some(span),
                }
            }
            Expr::Unary { op, expr } => {
                let t = self.check_expr(expr, scope, ctx);
                match op {
                    UnaryOp::Neg => {
                        if t.ty.is_some_and(|ty| ty.is_textual()) {
                            let span = t.anchor.unwrap_or_else(|| self.spans.whole());
                            self.push(
                                DiagCode::TypeMismatch,
                                Severity::Warning,
                                span,
                                "negation of a text value yields NULL".into(),
                                None,
                            );
                        }
                        Typed {
                            ty: t.ty.filter(|ty| ty.is_numeric()),
                            anchor: t.anchor,
                        }
                    }
                    UnaryOp::Not => Typed {
                        ty: Some(ColType::Bool),
                        anchor: t.anchor,
                    },
                }
            }
            Expr::Binary { left, op, right } => self.check_binary(left, *op, right, scope, ctx),
            Expr::Call {
                func,
                distinct: _,
                args,
            } => self.check_call(*func, args, scope, ctx),
            Expr::Case {
                operand,
                branches,
                else_branch,
            } => {
                let mut anchor = None;
                if let Some(op) = operand {
                    anchor = anchor.or(self.check_expr(op, scope, ctx).anchor);
                }
                let mut ty = None;
                for (w, t) in branches {
                    anchor = anchor.or(self.check_expr(w, scope, ctx).anchor);
                    let then = self.check_expr(t, scope, ctx);
                    anchor = anchor.or(then.anchor);
                    ty = ty.or(then.ty);
                }
                if let Some(el) = else_branch {
                    let t = self.check_expr(el, scope, ctx);
                    anchor = anchor.or(t.anchor);
                    ty = ty.or(t.ty);
                }
                Typed { ty, anchor }
            }
            Expr::InList {
                expr,
                list,
                negated: _,
            } => {
                let t = self.check_expr(expr, scope, ctx);
                for item in list {
                    let it = self.check_expr(item, scope, ctx);
                    self.warn_incompatible(&t, &it, "IN list");
                }
                Typed {
                    ty: Some(ColType::Bool),
                    anchor: t.anchor,
                }
            }
            Expr::InSubquery {
                expr,
                subquery,
                negated: _,
            } => {
                let t = self.check_expr(expr, scope, ctx);
                let shape = self.check_query_scoped(subquery, Some(scope));
                if let Some(cols) = &shape {
                    if cols.len() == 1 {
                        let it = Typed {
                            ty: cols[0].ctype,
                            anchor: None,
                        };
                        self.warn_incompatible(&t, &it, "IN subquery");
                    } else {
                        let span = t.anchor.unwrap_or_else(|| self.spans.whole());
                        self.push(
                            DiagCode::SubqueryArity,
                            Severity::Error,
                            span,
                            format!("IN subquery must produce 1 column, got {}", cols.len()),
                            None,
                        );
                    }
                }
                Typed {
                    ty: Some(ColType::Bool),
                    anchor: t.anchor,
                }
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                let t = self.check_expr(expr, scope, ctx);
                let lo = self.check_expr(low, scope, ctx);
                let hi = self.check_expr(high, scope, ctx);
                self.warn_incompatible(&t, &lo, "BETWEEN bound");
                self.warn_incompatible(&t, &hi, "BETWEEN bound");
                Typed {
                    ty: Some(ColType::Bool),
                    anchor: t.anchor,
                }
            }
            Expr::Like { expr, pattern, .. } => {
                let t = self.check_expr(expr, scope, ctx);
                let p = self.check_expr(pattern, scope, ctx);
                if t.ty.is_some_and(|ty| ty.is_numeric()) {
                    let span = t.anchor.unwrap_or_else(|| self.spans.whole());
                    self.push(
                        DiagCode::BadArgType,
                        Severity::Warning,
                        span,
                        "LIKE on a numeric value".into(),
                        None,
                    );
                }
                if p.ty.is_some_and(|ty| ty.is_numeric()) {
                    let span = p.anchor.or(t.anchor).unwrap_or_else(|| self.spans.whole());
                    self.push(
                        DiagCode::BadArgType,
                        Severity::Warning,
                        span,
                        "LIKE pattern is not text".into(),
                        None,
                    );
                }
                Typed {
                    ty: Some(ColType::Bool),
                    anchor: t.anchor,
                }
            }
            Expr::IsNull { expr, .. } => {
                let t = self.check_expr(expr, scope, ctx);
                Typed {
                    ty: Some(ColType::Bool),
                    anchor: t.anchor,
                }
            }
            Expr::Exists { subquery, .. } => {
                self.check_query_scoped(subquery, Some(scope));
                Typed {
                    ty: Some(ColType::Bool),
                    anchor: None,
                }
            }
            Expr::Subquery(q) => {
                let shape = self.check_query_scoped(q, Some(scope));
                match shape {
                    Some(cols) if cols.len() != 1 => {
                        let span = self.spans.whole();
                        self.push(
                            DiagCode::SubqueryArity,
                            Severity::Error,
                            span,
                            format!("scalar subquery must produce 1 column, got {}", cols.len()),
                            None,
                        );
                        Typed::unknown()
                    }
                    Some(cols) => Typed {
                        ty: cols.first().and_then(|c| c.ctype),
                        anchor: None,
                    },
                    None => Typed::unknown(),
                }
            }
        }
    }

    fn check_column(&mut self, cref: &ColumnRef, scope: &Scope<'_>, ctx: ExprCtx) -> Typed {
        let span = self.spans.next(&cref.to_string());
        if self.collect_bare && !ctx.in_agg && ctx.clause == Clause::Select {
            self.bare_cols.push((cref.clone(), span));
        }
        match scope.resolve(cref) {
            Lookup::Found(ty) => Typed {
                ty,
                anchor: Some(span),
            },
            Lookup::Ambiguous(bindings) => {
                let options = bindings
                    .iter()
                    .map(|b| format!("`{b}.{}`", cref.column))
                    .collect::<Vec<_>>()
                    .join(" or ");
                self.push(
                    DiagCode::AmbiguousColumn,
                    Severity::Error,
                    span,
                    format!("column `{}` is ambiguous", cref.column),
                    Some(format!("qualify it as {options}")),
                );
                Typed {
                    ty: None,
                    anchor: Some(span),
                }
            }
            Lookup::NotInBinding(binding) => {
                let hint = self
                    .nearest_in_binding(scope, &binding, &cref.column)
                    .map(|n| format!("did you mean `{binding}.{n}`?"))
                    .or_else(|| self.elsewhere_hint(&cref.column));
                self.push(
                    DiagCode::UnknownColumn,
                    Severity::Error,
                    span,
                    format!("table `{binding}` has no column `{}`", cref.column),
                    hint,
                );
                Typed {
                    ty: None,
                    anchor: Some(span),
                }
            }
            Lookup::NotFound => {
                let hint = match &cref.table {
                    Some(q) => Some(
                        self.elsewhere_hint(&cref.column)
                            .unwrap_or_else(|| format!("`{q}` is not bound in FROM")),
                    ),
                    None => nearest_name(&cref.column, scope.visible_columns(), HINT_DIST)
                        .map(|n| format!("did you mean `{n}`?"))
                        .or_else(|| self.elsewhere_hint(&cref.column)),
                };
                self.push(
                    DiagCode::UnknownColumn,
                    Severity::Error,
                    span,
                    format!("unknown column `{cref}`"),
                    hint,
                );
                Typed {
                    ty: None,
                    anchor: Some(span),
                }
            }
        }
    }

    fn nearest_in_binding(&self, scope: &Scope<'_>, binding: &str, column: &str) -> Option<String> {
        let mut level: Option<&Scope<'_>> = Some(scope);
        while let Some(s) = level {
            if let Some(b) = s
                .bindings
                .iter()
                .find(|b| b.name.eq_ignore_ascii_case(binding))
            {
                return nearest_name(column, b.columns.iter().map(|c| c.name.as_str()), HINT_DIST)
                    .map(|n| n.to_string());
            }
            level = s.parent;
        }
        None
    }

    /// "column X exists on table Y" hint when the exact name lives on a
    /// schema table that is not (or not correctly) joined in.
    fn elsewhere_hint(&self, column: &str) -> Option<String> {
        let owners: Vec<&str> = self
            .schema
            .tables
            .iter()
            .filter(|t| t.column(column).is_some())
            .map(|t| t.name.as_str())
            .collect();
        match owners.as_slice() {
            [] => None,
            [one] => Some(format!(
                "column `{column}` exists on table `{one}`; join it in"
            )),
            many => Some(format!(
                "column `{column}` exists on tables {}",
                many.iter()
                    .map(|t| format!("`{t}`"))
                    .collect::<Vec<_>>()
                    .join(", ")
            )),
        }
    }

    fn check_binary(
        &mut self,
        left: &Expr,
        op: BinOp,
        right: &Expr,
        scope: &Scope<'_>,
        ctx: ExprCtx,
    ) -> Typed {
        let l = self.check_expr(left, scope, ctx);
        let r = self.check_expr(right, scope, ctx);
        let anchor = l.anchor.or(r.anchor);
        if op.is_comparison() {
            if let (Some(lt), Some(rt)) = (l.ty, r.ty) {
                if !lt.comparable_with(rt) {
                    let span = anchor.unwrap_or_else(|| self.spans.whole());
                    self.push(
                        DiagCode::TypeMismatch,
                        Severity::Warning,
                        span,
                        format!("comparison between {lt} and {rt} never matches on real data"),
                        None,
                    );
                }
            }
            return Typed {
                ty: Some(ColType::Bool),
                anchor,
            };
        }
        match op {
            BinOp::And | BinOp::Or => Typed {
                ty: Some(ColType::Bool),
                anchor,
            },
            _ => {
                // Arithmetic.
                for side in [&l, &r] {
                    if side.ty.is_some_and(|ty| ty.is_textual()) {
                        let span = side.anchor.or(anchor).unwrap_or_else(|| self.spans.whole());
                        self.push(
                            DiagCode::TypeMismatch,
                            Severity::Warning,
                            span,
                            format!("arithmetic `{}` on a text value yields NULL", op.as_str()),
                            None,
                        );
                    }
                }
                let ty = match (l.ty, r.ty) {
                    (Some(ColType::Float), _) | (_, Some(ColType::Float)) => Some(ColType::Float),
                    (Some(ColType::Int), Some(ColType::Int)) => Some(ColType::Int),
                    _ => None,
                };
                Typed { ty, anchor }
            }
        }
    }

    fn check_call(&mut self, func: Func, args: &[Expr], scope: &Scope<'_>, ctx: ExprCtx) -> Typed {
        let span = self.spans.next(func.as_str());
        if func.is_aggregate() {
            if ctx.in_agg {
                self.push(
                    DiagCode::NestedAggregate,
                    Severity::Error,
                    span,
                    format!(
                        "aggregate {} nested inside another aggregate",
                        func.as_str()
                    ),
                    Some("compute the inner aggregate in a subquery".into()),
                );
            }
            match ctx.clause {
                Clause::Where => {
                    self.push(
                        DiagCode::AggregateInWhere,
                        Severity::Error,
                        span,
                        format!("aggregate {} is not allowed in WHERE", func.as_str()),
                        Some("move the condition to HAVING".into()),
                    );
                }
                Clause::On | Clause::GroupBy => {
                    self.push(
                        DiagCode::AggregateInWhere,
                        Severity::Warning,
                        span,
                        format!(
                            "aggregate {} in a {} clause",
                            func.as_str(),
                            if ctx.clause == Clause::On {
                                "join ON"
                            } else {
                                "GROUP BY"
                            }
                        ),
                        None,
                    );
                }
                _ => {}
            }
        }
        // Arity.
        let (min, max) = func_arity(func);
        if args.len() < min {
            let severity = if func == Func::Coalesce {
                // The engine evaluates COALESCE() to NULL without erroring.
                Severity::Warning
            } else {
                Severity::Error
            };
            self.push(
                DiagCode::BadArity,
                severity,
                span,
                format!(
                    "{} takes at least {min} argument(s), got {}",
                    func.as_str(),
                    args.len()
                ),
                None,
            );
        } else if max.is_some_and(|m| args.len() > m) {
            self.push(
                DiagCode::ExtraArgument,
                Severity::Warning,
                span,
                format!(
                    "{} uses {} argument(s); the rest are ignored",
                    func.as_str(),
                    max.unwrap_or(0)
                ),
                None,
            );
        }
        // Arguments.
        let inner = ExprCtx {
            clause: ctx.clause,
            in_agg: ctx.in_agg || func.is_aggregate(),
        };
        let mut arg_types: Vec<Option<ColType>> = Vec::with_capacity(args.len());
        for arg in args {
            if matches!(arg, Expr::Wildcard) {
                let wspan = self.spans.next("*");
                if func != Func::Count {
                    self.push(
                        DiagCode::MisplacedWildcard,
                        Severity::Error,
                        wspan,
                        format!("`*` is not a valid argument to {}", func.as_str()),
                        Some("COUNT(*) is the only wildcard aggregate".into()),
                    );
                }
                arg_types.push(None);
                continue;
            }
            let t = self.check_expr(arg, scope, inner);
            arg_types.push(t.ty);
        }
        // Argument-type lints (engine coerces, so these are warnings).
        let first = arg_types.first().copied().flatten();
        match func {
            Func::Sum | Func::Avg | Func::Abs | Func::Round
                if first.is_some_and(|t| t.is_textual() || t == ColType::Bool) =>
            {
                self.push(
                    DiagCode::BadArgType,
                    Severity::Warning,
                    span,
                    format!("{} over a non-numeric column", func.as_str()),
                    None,
                );
            }
            Func::Lower | Func::Upper | Func::Substr if first.is_some_and(|t| t.is_numeric()) => {
                self.push(
                    DiagCode::BadArgType,
                    Severity::Warning,
                    span,
                    format!("{} over a numeric column", func.as_str()),
                    None,
                );
            }
            _ => {}
        }
        let ty = match func {
            Func::Count | Func::Length => Some(ColType::Int),
            Func::Avg => Some(ColType::Float),
            Func::Round => Some(ColType::Float),
            Func::Sum | Func::Min | Func::Max | Func::Abs => first,
            Func::Lower | Func::Upper | Func::Substr => Some(ColType::Text),
            Func::Coalesce => arg_types.iter().copied().flatten().next(),
        };
        Typed {
            ty,
            anchor: Some(span),
        }
    }

    fn warn_incompatible(&mut self, a: &Typed, b: &Typed, what: &str) {
        if let (Some(at), Some(bt)) = (a.ty, b.ty) {
            if !at.comparable_with(bt) {
                let span = a.anchor.or(b.anchor).unwrap_or_else(|| self.spans.whole());
                self.push(
                    DiagCode::TypeMismatch,
                    Severity::Warning,
                    span,
                    format!("{what} compares {at} with {bt}"),
                    None,
                );
            }
        }
    }
}

/// `(min, max)` argument counts per function; `None` max = variadic.
fn func_arity(func: Func) -> (usize, Option<usize>) {
    match func {
        Func::Count | Func::Sum | Func::Avg | Func::Min | Func::Max => (1, Some(1)),
        Func::Abs | Func::Lower | Func::Upper | Func::Length => (1, Some(1)),
        Func::Round => (1, Some(2)),
        Func::Coalesce => (1, None),
        Func::Substr => (2, Some(3)),
    }
}

fn literal_type(l: &Literal) -> Option<ColType> {
    match l {
        Literal::Number(_) => Some(ColType::Int),
        Literal::Float(_) => Some(ColType::Float),
        Literal::String(_) => Some(ColType::Text),
        Literal::Bool(_) => Some(ColType::Bool),
        Literal::Null => None,
    }
}

/// Whether `cref` matches one of the GROUP BY keys. Qualification is
/// matched loosely: `name` is grouped by `GROUP BY t.name` and vice
/// versa (the engine groups by *values*, so this mirrors its leniency).
fn is_grouped(cref: &ColumnRef, group_by: &[Expr]) -> bool {
    group_by.iter().any(|g| match g {
        Expr::Column(k) => {
            k.column.eq_ignore_ascii_case(&cref.column)
                && match (&k.table, &cref.table) {
                    (Some(a), Some(b)) => a.eq_ignore_ascii_case(b),
                    _ => true,
                }
        }
        other => print_expr(other) == print_expr(&Expr::Column(cref.clone())),
    })
}

fn binding_index(bindings: &[ScopeBinding], cref: &ColumnRef) -> Option<usize> {
    match &cref.table {
        Some(q) => bindings
            .iter()
            .position(|b| b.name.eq_ignore_ascii_case(q.as_str())),
        None => {
            let matches: Vec<usize> = bindings
                .iter()
                .enumerate()
                .filter(|(_, b)| {
                    b.columns
                        .iter()
                        .any(|c| c.name.eq_ignore_ascii_case(&cref.column))
                })
                .map(|(i, _)| i)
                .collect();
            match matches.as_slice() {
                [one] => Some(*one),
                _ => None,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Minimal structure-preserving repair
// ---------------------------------------------------------------------------

/// Attempts a minimal structure-preserving repair of `query`: unknown
/// table/column names are replaced by their *unique* nearest schema name
/// within edit distance 2. Only names that exist **nowhere** in the
/// schema are candidates — a "wrong" name that is a real column of some
/// other table signals a structural mistake (a missing join, a
/// mis-attributed column) that renaming would mask, so those are left for
/// the feedback loop. `diagnostics` are `check_query(query, schema)`, as
/// the caller has them. Returns the repaired query, with its facts, only
/// when the result is free of error-severity diagnostics; `None` when
/// nothing needed fixing or the repair failed.
pub fn repair_query(
    query: &Query,
    diagnostics: &[Diagnostic],
    schema: &SchemaInfo,
) -> Option<(Query, QueryFacts)> {
    debug_assert!(
        diagnostics == check_query(query, schema),
        "stale diagnostics"
    );
    if !diagnostics.iter().any(Diagnostic::is_error) {
        return None;
    }
    let mut repaired = query.clone();
    repair_query_names(&mut repaired, schema, &[]);
    if repaired == *query {
        return None;
    }
    let facts = QueryFacts::of(&repaired, schema);
    facts
        .is_clean(&repaired, schema)
        .then_some((repaired, facts))
}

/// Rewrites unknown names in place. `outer_tables` are schema tables
/// visible from enclosing scopes (for correlated subqueries).
fn repair_query_names(q: &mut Query, schema: &SchemaInfo, outer_tables: &[String]) {
    // Collect this query's visible tables first (across all cores —
    // close enough for repair purposes) so expression repair can use them.
    let mut visible: Vec<String> = outer_tables.to_vec();
    for core in q.cores_mut() {
        if let Some(from) = &mut core.from {
            let fix_factor = |f: &mut TableFactor| {
                if let TableFactor::Table { name, .. } = f {
                    if schema.table(name).is_none() {
                        if let Some(fixed) = nearest_name(name, schema.table_names(), REPAIR_DIST) {
                            *name = fixed.to_string();
                        }
                    }
                }
            };
            fix_factor(&mut from.base);
            for j in &mut from.joins {
                fix_factor(&mut j.factor);
            }
        }
    }
    for core in q.cores() {
        if let Some(from) = &core.from {
            for f in from.factors() {
                if let TableFactor::Table { name, .. } = f {
                    if schema.table(name).is_some() {
                        visible.push(name.clone());
                    }
                }
            }
        }
    }

    let fix_col = |cref: &mut ColumnRef, visible: &[String]| {
        let known = |c: &ColumnRef| match &c.table {
            Some(t) => schema
                .table(t)
                .is_some_and(|ti| ti.column(&c.column).is_some()),
            None => visible
                .iter()
                .filter_map(|t| schema.table(t))
                .any(|ti| ti.column(&c.column).is_some()),
        };
        if known(cref) {
            return;
        }
        // A real column of *some* table is a structural error (missing
        // join), not a typo — never rename it.
        if schema
            .tables
            .iter()
            .any(|t| t.column(&cref.column).is_some())
        {
            return;
        }
        match &cref.table {
            Some(t) => {
                if let Some(ti) = schema.table(t) {
                    if let Some(fixed) = nearest_name(
                        &cref.column,
                        ti.columns.iter().map(|c| c.name.as_str()),
                        REPAIR_DIST,
                    ) {
                        cref.column = fixed.to_string();
                    }
                } else if let Some(fixed) = nearest_name(t, schema.table_names(), REPAIR_DIST) {
                    cref.table = Some(fixed.to_string());
                }
            }
            None => {
                let candidates: Vec<&str> = visible
                    .iter()
                    .filter_map(|t| schema.table(t))
                    .flat_map(|ti| ti.columns.iter().map(|c| c.name.as_str()))
                    .collect();
                if let Some(fixed) = nearest_name(&cref.column, candidates, REPAIR_DIST) {
                    cref.column = fixed.to_string();
                }
            }
        }
    };

    let fix_expr = |e: &mut Expr| {
        e.walk_mut(&mut |node| match node {
            Expr::Column(cref) => fix_col(cref, &visible),
            Expr::InSubquery { subquery, .. } => repair_query_names(subquery, schema, &visible),
            Expr::Exists { subquery, .. } => repair_query_names(subquery, schema, &visible),
            Expr::Subquery(sub) => repair_query_names(sub, schema, &visible),
            _ => {}
        });
    };

    for core in q.cores_mut() {
        for item in &mut core.items {
            if let SelectItem::Expr { expr, .. } = item {
                fix_expr(expr);
            }
        }
        if let Some(from) = &mut core.from {
            for j in &mut from.joins {
                if let Some(on) = &mut j.constraint {
                    fix_expr(on);
                }
                if let TableFactor::Derived { subquery, .. } = &mut j.factor {
                    repair_query_names(subquery, schema, &visible);
                }
            }
            if let TableFactor::Derived { subquery, .. } = &mut from.base {
                repair_query_names(subquery, schema, &visible);
            }
        }
        if let Some(w) = &mut core.where_clause {
            fix_expr(w);
        }
        for g in &mut core.group_by {
            fix_expr(g);
        }
        if let Some(h) = &mut core.having {
            fix_expr(h);
        }
    }
    for item in &mut q.order_by {
        fix_expr(&mut item.expr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use crate::printer::print_query;

    fn schema() -> SchemaInfo {
        let mut singer = TableInfo::new(
            "singer",
            vec![
                ("singer_id", ColType::Int),
                ("name", ColType::Text),
                ("age", ColType::Int),
                ("country", ColType::Text),
            ],
        );
        singer.primary_key = Some("singer_id".into());
        let mut concert = TableInfo::new(
            "concert",
            vec![
                ("concert_id", ColType::Int),
                ("singer_id", ColType::Int),
                ("venue", ColType::Text),
                ("concert_date", ColType::Date),
            ],
        );
        concert.primary_key = Some("concert_id".into());
        concert.foreign_keys.push(FkInfo {
            column: "singer_id".into(),
            ref_table: "singer".into(),
            ref_column: "singer_id".into(),
        });
        SchemaInfo::new(vec![singer, concert])
    }

    fn check(sql: &str) -> Vec<Diagnostic> {
        check_query(&parse_query(sql).unwrap(), &schema())
    }

    /// Diagnostics of one code, as `(code, span text)` pairs against the
    /// canonical printing.
    fn find<'d>(diags: &'d [Diagnostic], code: DiagCode, sql: &str) -> Vec<&'d Diagnostic> {
        let printed = print_query(&parse_query(sql).unwrap());
        let hits: Vec<&Diagnostic> = diags.iter().filter(|d| d.code == code).collect();
        for d in &hits {
            assert!(
                d.span.end <= printed.len(),
                "span out of bounds for {sql}: {d:?}"
            );
        }
        hits
    }

    #[test]
    fn contradictory_predicates_are_flagged() {
        let sql = "SELECT name FROM singer WHERE age > 40 AND age < 30";
        let diags = check(sql);
        let hits = find(&diags, DiagCode::ContradictoryPredicate, sql);
        assert_eq!(hits.len(), 1, "{diags:?}");
        assert_eq!(hits[0].severity, Severity::Warning);
        assert!(hits[0].message.contains("contradict"));
        // The span anchors to a WHERE conjunct, not the whole query.
        let printed = print_query(&parse_query(sql).unwrap());
        assert!(hits[0].span.end - hits[0].span.start < printed.len());

        // Single never-true conjunct.
        let sql = "SELECT name FROM singer WHERE age = NULL";
        let hits_own = check(sql);
        assert_eq!(
            find(&hits_own, DiagCode::ContradictoryPredicate, sql).len(),
            1
        );

        // HAVING over aggregates participates too (keys are rendered
        // expressions, so `COUNT(*)` works as a key).
        let sql = "SELECT country, COUNT(*) FROM singer GROUP BY country \
                   HAVING COUNT(*) > 5 AND COUNT(*) < 2";
        let diags = check(sql);
        assert_eq!(find(&diags, DiagCode::ContradictoryPredicate, sql).len(), 1);
    }

    #[test]
    fn tautological_and_redundant_predicates_are_flagged() {
        let sql = "SELECT name FROM singer WHERE age >= age";
        let diags = check(sql);
        assert_eq!(find(&diags, DiagCode::TautologicalPredicate, sql).len(), 1);

        let sql = "SELECT name FROM singer WHERE age > 30 AND age > 20";
        let diags = check(sql);
        let hits = find(&diags, DiagCode::RedundantPredicate, sql);
        assert_eq!(hits.len(), 1, "{diags:?}");
        assert!(hits[0].message.contains("implied by"));

        // Satisfiable, non-overlapping predicates stay clean.
        let sql = "SELECT name FROM singer WHERE age > 20 AND age < 30";
        let diags = check(sql);
        assert!(find(&diags, DiagCode::RedundantPredicate, sql).is_empty());
        assert!(find(&diags, DiagCode::ContradictoryPredicate, sql).is_empty());
    }

    #[test]
    fn impossible_join_is_flagged() {
        let sql = "SELECT name FROM singer JOIN concert \
                   ON singer.singer_id = concert.singer_id AND concert.concert_id = NULL";
        let diags = check(sql);
        let hits = find(&diags, DiagCode::ImpossibleJoin, sql);
        assert_eq!(hits.len(), 1, "{diags:?}");
        assert_eq!(hits[0].severity, Severity::Warning);

        // A normal equi-join stays clean.
        let sql = "SELECT name FROM singer JOIN concert \
                   ON singer.singer_id = concert.singer_id";
        let diags = check(sql);
        assert!(find(&diags, DiagCode::ImpossibleJoin, sql).is_empty());
    }

    #[test]
    fn flow_lints_cover_compound_arms() {
        let sql = "SELECT name FROM singer WHERE age > 1 \
                   UNION SELECT name FROM singer WHERE age > 5 AND age < 2";
        let diags = check(sql);
        let hits = find(&diags, DiagCode::ContradictoryPredicate, sql);
        assert_eq!(hits.len(), 1, "{diags:?}");
        // Anchored to the compound arm's span.
        let printed = print_query(&parse_query(sql).unwrap());
        assert!(printed[hits[0].span.start..hits[0].span.end].contains("UNION"));
    }

    #[test]
    fn clean_query_has_no_diagnostics() {
        for sql in [
            "SELECT name FROM singer WHERE age > 30",
            "SELECT singer.name, COUNT(*) FROM singer JOIN concert \
             ON singer.singer_id = concert.singer_id GROUP BY singer.name",
            "SELECT name FROM singer WHERE age = (SELECT MAX(age) FROM singer)",
            "SELECT name FROM singer ORDER BY age DESC LIMIT 3",
        ] {
            assert!(check(sql).is_empty(), "unexpected diagnostics for {sql}");
        }
    }

    #[test]
    fn nearest_name_requires_unique_best() {
        assert_eq!(nearest_name("nme", ["name", "age"], 2), Some("name"));
        assert_eq!(nearest_name("xyzzy", ["name", "age"], 2), None);
        // Tie: two candidates at distance 1.
        assert_eq!(nearest_name("ab", ["aa", "bb"], 2), None);
    }

    #[test]
    fn repair_fixes_typo_level_names_only() {
        let s = schema();
        let q = parse_query("SELECT nme FROM singer").unwrap();
        let (fixed, facts) =
            repair_query(&q, &check_query(&q, &s), &s).expect("typo is repairable");
        assert_eq!(print_query(&fixed), "SELECT name FROM singer");
        // The facts handed back are the repaired query's.
        assert!(facts.diagnostics(&fixed, &s).is_empty());
        facts.debug_confirm(&fixed, &s);
        // A semantically different name is not touched.
        let q = parse_query("SELECT venue FROM singer").unwrap();
        assert!(repair_query(&q, &check_query(&q, &s), &s).is_none());
        // A clean query is not "repaired".
        let q = parse_query("SELECT name FROM singer").unwrap();
        assert!(repair_query(&q, &check_query(&q, &s), &s).is_none());
    }

    #[test]
    fn repair_fixes_table_typos() {
        let s = schema();
        let q = parse_query("SELECT name FROM singerr").unwrap();
        let (fixed, _) = repair_query(&q, &check_query(&q, &s), &s).expect("table typo repairable");
        assert_eq!(print_query(&fixed), "SELECT name FROM singer");
    }

    #[test]
    fn report_renders_errors_first() {
        let diags = check("SELECT nope FROM singer WHERE age > 'x' AND age > 30");
        let sql = "SELECT nope FROM singer WHERE age > 'x' AND age > 30";
        let report = render_report(sql, &diags);
        assert!(report.contains("error[unknown-column]"));
        let first_error = report.find("error").unwrap();
        let first_warning = report.find("warning").unwrap_or(usize::MAX);
        assert!(first_error < first_warning, "{report}");
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("name", "name"), 0);
        assert_eq!(edit_distance("name", "nmae"), 2);
        assert_eq!(edit_distance("Name", "name"), 0);
        assert_eq!(edit_distance("", "abc"), 3);
    }
}
