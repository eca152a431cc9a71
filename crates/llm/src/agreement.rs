//! Router-vs-realized agreement accounting.
//!
//! The feedback router predicts an edit class (Add / Remove / Edit /
//! Rewrite) from the user's feedback text; the conformance gate in
//! `fisql-core` later diffs the regenerated candidate against the
//! previous query to see which classes were *actually realized*. These
//! counters aggregate how often the two agree — the telemetry behind the
//! conformance columns of the correction report.

use fisql_sqlkit::OpClass;
use serde::{Deserialize, Serialize};

/// Scores how well a candidate's realized edit classes line up with the
/// routed feedback class: `2` when the *dominant* (first) realized class
/// is the routed one, `1` when the routed class appears anywhere in the
/// realized set, `0` otherwise.
///
/// Used by the search-refine strategy as one term of its static
/// closeness score; kept integer-valued so scores stay exactly
/// reproducible across platforms.
pub fn routing_alignment(routed: OpClass, realized: &[OpClass]) -> i64 {
    match realized.first() {
        Some(&first) if first == routed => 2,
        _ if realized.contains(&routed) => 1,
        _ => 0,
    }
}

/// Aggregate counters for router-vs-realized conformance checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AgreementStats {
    /// Conformance checks performed (one per gated candidate).
    pub checks: u64,
    /// Checks where the realized classes included the routed class on
    /// the first candidate.
    pub agreements: u64,
    /// Conformance re-prompts issued (one per first-candidate
    /// disagreement, by design).
    pub retries: u64,
    /// Re-prompts whose second candidate conformed.
    pub recovered: u64,
}

impl AgreementStats {
    /// Records one conformance check.
    pub fn record(&mut self, agreed: bool, retried: bool, agreed_after_retry: bool) {
        self.checks += 1;
        self.agreements += u64::from(agreed);
        self.retries += u64::from(retried);
        self.recovered += u64::from(retried && agreed_after_retry);
    }

    /// Checks whose first candidate disagreed.
    pub fn disagreements(&self) -> u64 {
        self.checks - self.agreements
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let mut a = AgreementStats::default();
        a.record(true, false, true);
        a.record(false, true, true);
        a.record(false, true, false);
        assert_eq!(a.checks, 3);
        assert_eq!(a.agreements, 1);
        assert_eq!(a.disagreements(), 2);
        assert_eq!(a.retries, 2);
        assert_eq!(a.recovered, 1);
        assert_eq!(AgreementStats::default().disagreements(), 0);
    }

    #[test]
    fn routing_alignment_tiers() {
        use OpClass::{Add, Edit, Remove};
        assert_eq!(routing_alignment(Edit, &[Edit, Add]), 2);
        assert_eq!(routing_alignment(Edit, &[Add, Edit]), 1);
        assert_eq!(routing_alignment(Remove, &[Add, Edit]), 0);
        assert_eq!(routing_alignment(Edit, &[]), 0);
    }
}
