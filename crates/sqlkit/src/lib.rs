//! # fisql-sqlkit
//!
//! SQL substrate for the FISQL reproduction: lexer, parser, AST,
//! span-tracking pretty-printer, structural normalization, clause-level
//! diff, and edit application.
//!
//! The crate is self-contained (no engine dependency) so that every layer
//! above it — the relational engine, the benchmark generator, the
//! simulated LLM, and FISQL itself — speaks one AST.
//!
//! ## Quick tour
//!
//! ```
//! use fisql_sqlkit::{parse_query, print_query, diff_queries, apply_edits};
//!
//! let predicted = parse_query(
//!     "SELECT COUNT(*) FROM hkg_dim_segment \
//!      WHERE createdTime >= '2023-01-01' AND createdTime < '2023-02-01'",
//! ).unwrap();
//! let gold = parse_query(
//!     "SELECT COUNT(*) FROM hkg_dim_segment \
//!      WHERE createdTime >= '2024-01-01' AND createdTime < '2024-02-01'",
//! ).unwrap();
//!
//! // The paper's Figure 4 example: the user feedback "we are in 2024"
//! // corresponds to two Edit-type operations on the WHERE clause.
//! let edits = diff_queries(&predicted, &gold);
//! assert_eq!(edits.len(), 2);
//!
//! let fixed = apply_edits(&fisql_sqlkit::normalize_query(&predicted), &edits).unwrap();
//! assert!(fisql_sqlkit::structurally_equal(&fixed, &gold));
//! # let _ = print_query(&fixed);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod canon;
pub mod check;
pub mod diff;
pub mod edit;
pub mod error;
pub mod flow;
pub mod hash;
pub mod lexer;
pub mod lexicon;
pub mod locate;
pub mod normalize;
pub mod parser;
pub mod printer;
pub mod repair;
pub mod span;
pub mod token;

pub use ast::{
    BinOp, ClausePath, ColumnRef, Expr, FromClause, Func, Join, JoinKind, LimitClause, Literal,
    OrderItem, Query, SelectCore, SelectItem, SetOp, TableFactor, UnaryOp,
};
pub use canon::{canon_fingerprint, canonicalize, canonically_equivalent};
pub use check::{
    check_query, edit_distance, nearest_name, render_report, repair_query, ColType, ColumnInfo,
    DiagCode, Diagnostic, FkInfo, SchemaInfo, Severity, TableInfo,
};
pub use diff::{diff_queries, realized_classes, same_clause_family, EditOp, OpClass};
pub use edit::{apply_edit, apply_edits, EditError};
pub use error::{ParseError, ParseResult};
pub use flow::{
    analyze_conjunction, conjunct_truth, empty_arity, output_arity, output_facts, provably_empty,
    provably_equivalent, query_bounds, CardBounds, ConjunctTruth, OutputFacts, PredicateFacts,
    Provenance,
};
pub use hash::{fnv1a_32, fnv64, Fnv64};
pub use lexicon::{humanize, spaced, SchemaLexicon};
pub use locate::{
    literal_year, locate_faults, locate_faults_with_diagnostics, FaultKind, FaultSite,
    FeedbackCues, LocateOptions,
};
pub use normalize::{normalize_query, structurally_equal};
pub use parser::{parse_expr, parse_query};
pub use printer::{print_expr, print_query, print_query_spanned, SpannedSql};
pub use repair::{
    enumerate_repairs, is_structure_preserving, prune_against, prune_candidates, shift_years,
    PruneBase, PruneOutcome, QueryFacts, RepairCandidate, Survivor,
};
pub use span::Span;
