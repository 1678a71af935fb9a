//! Transformation run reports: parameters, per-phase rounds, structural
//! statistics and validity.

use treelocal_problems::HalfEdgeLabeling;
use treelocal_sim::RoundReport;

/// The parameters a transformation run chose.
#[derive(Clone, Debug)]
pub struct TransformParams {
    /// Instance size.
    pub n: usize,
    /// The solution of `g^{f(g)} = n` for the used complexity function.
    pub g_value: f64,
    /// The decomposition degree parameter actually used
    /// (`⌊g⌋` or `⌊g^ρ⌋`, clamped to validity).
    pub k: usize,
    /// Arboricity bound (1 on trees).
    pub a: usize,
    /// Theorem 15's `ρ` exponent (1 for the tree pipeline).
    pub rho: u32,
}

/// Structural statistics of a run, for the experiment tables.
#[derive(Clone, Debug, Default)]
pub struct TransformStats {
    /// Decomposition iterations executed.
    pub decomposition_iterations: u32,
    /// Max degree of the sub-instance handed to the truly local algorithm
    /// (Lemma 10 / Lemma 14 bound this by `k`).
    pub sub_max_degree: usize,
    /// Number of residual components solved by gathering.
    pub residual_components: usize,
    /// Largest gather cost (2·eccentricity) over residual components.
    pub max_gather_rounds: u64,
    /// Number of sequential star-forest groups (Theorem 15 only).
    pub star_groups: usize,
}

/// The complete outcome of a transformation run.
#[derive(Clone, Debug)]
pub struct TransformOutcome<L> {
    /// The assembled half-edge labeling (a full solution of `Π`).
    pub labeling: HalfEdgeLabeling<L>,
    /// Honest measured rounds, by phase.
    pub executed: RoundReport,
    /// Round accounting under a literature complexity model for the inner
    /// algorithm, when one was attached (see
    /// [`ChargedModel`'s substitutions](treelocal_algos::ChargedModel#substitutions)).
    pub charged: Option<RoundReport>,
    /// Chosen parameters.
    pub params: TransformParams,
    /// Structural statistics.
    pub stats: TransformStats,
    /// Whether the final labeling verified against `Π` on the whole
    /// instance.
    pub valid: bool,
}

impl<L> TransformOutcome<L> {
    /// Total executed rounds.
    pub fn total_rounds(&self) -> u64 {
        self.executed.total()
    }

    /// Total charged rounds, if a model was attached.
    pub fn total_charged(&self) -> Option<u64> {
        self.charged.as_ref().map(RoundReport::total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_totals() {
        let mut executed = RoundReport::new();
        executed.push("a", 5).push("b", 7);
        let outcome: TransformOutcome<u32> = TransformOutcome {
            labeling: HalfEdgeLabeling::new(0),
            executed,
            charged: Some(RoundReport::single("model", 3)),
            params: TransformParams { n: 10, g_value: 2.0, k: 2, a: 1, rho: 1 },
            stats: TransformStats::default(),
            valid: true,
        };
        assert_eq!(outcome.total_rounds(), 12);
        assert_eq!(outcome.total_charged(), Some(3));
    }
}
