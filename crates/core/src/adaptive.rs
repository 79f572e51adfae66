//! Adaptive MoCHy-A+ with a data-driven stopping rule.
//!
//! The paper runs MoCHy-A+ with a fixed number `r` of hyperwedge samples and
//! studies the speed/accuracy trade-off externally (Figures 8 and 9). In
//! practice a user wants to choose `r` automatically: sample in batches,
//! monitor the spread of the independent batch estimates, and stop once the
//! estimated relative standard error of the total count falls below a target.
//! Because every batch is an independent unbiased estimator (Theorem 4), the
//! running mean stays unbiased and the empirical between-batch variance gives
//! asymptotically valid normal confidence intervals.

use mochy_hypergraph::Hypergraph;
use mochy_motif::{MotifId, NUM_MOTIFS};
use mochy_projection::ProjectedGraph;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::count::MotifCounts;
use crate::sample::mochy_a_plus_with_rng;

/// Configuration of the adaptive estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Number of hyperwedge samples drawn per batch.
    pub batch_size: usize,
    /// Minimum number of batches before the stopping rule may fire (at least
    /// 2, so that a variance estimate exists).
    pub min_batches: usize,
    /// Maximum number of batches; the estimator always stops after this many.
    pub max_batches: usize,
    /// Target relative standard error of the estimated total instance count.
    pub target_relative_error: f64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self {
            batch_size: 10_000,
            min_batches: 4,
            max_batches: 64,
            target_relative_error: 0.01,
        }
    }
}

impl AdaptiveConfig {
    /// Validates the configuration, normalizing degenerate values.
    fn normalized(mut self) -> Self {
        self.batch_size = self.batch_size.max(1);
        self.min_batches = self.min_batches.max(2);
        self.max_batches = self.max_batches.max(self.min_batches);
        self.target_relative_error = self.target_relative_error.max(0.0);
        self
    }
}

/// The result of an adaptive MoCHy-A+ run.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveOutcome {
    /// The final estimate of every motif count (mean of the batch estimates).
    pub estimate: MotifCounts,
    /// Number of batches that were run.
    pub batches: usize,
    /// Total number of hyperwedge samples drawn.
    pub samples: usize,
    /// Standard error of the mean, per motif.
    pub standard_errors: [f64; NUM_MOTIFS],
    /// Relative standard error of the estimated total count at termination.
    pub total_relative_error: f64,
    /// Whether the target precision was reached (as opposed to stopping at
    /// `max_batches`).
    pub converged: bool,
}

impl AdaptiveOutcome {
    /// A two-sided normal confidence interval for motif `id` (1-based) at the
    /// given z value (1.96 for ~95%). The lower bound is clamped at 0.
    pub fn confidence_interval(&self, id: MotifId, z: f64) -> (f64, f64) {
        let index = (id - 1) as usize;
        let center = self.estimate.get(id);
        let half = z * self.standard_errors[index];
        ((center - half).max(0.0), center + half)
    }

    /// Whether the exact count `expected` of motif `id` lies inside the
    /// confidence interval at the given z value.
    pub fn covers(&self, id: MotifId, expected: f64, z: f64) -> bool {
        let (low, high) = self.confidence_interval(id, z);
        expected >= low && expected <= high
    }
}

/// Runs MoCHy-A+ in batches until the relative standard error of the total
/// count estimate drops below `config.target_relative_error` (or
/// `config.max_batches` is reached). Every batch draws from one RNG stream
/// seeded with `seed`, so the outcome is a pure function of the inputs.
pub(crate) fn mochy_a_plus_adaptive_seeded(
    hypergraph: &Hypergraph,
    projected: &ProjectedGraph,
    config: AdaptiveConfig,
    seed: u64,
) -> AdaptiveOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = config.normalized();
    let mut batch_estimates: Vec<MotifCounts> = Vec::with_capacity(config.min_batches);
    let mut converged = false;

    while batch_estimates.len() < config.max_batches {
        let batch = mochy_a_plus_with_rng(hypergraph, projected, config.batch_size, &mut rng);
        batch_estimates.push(batch);
        if batch_estimates.len() < config.min_batches {
            continue;
        }
        let relative = total_relative_standard_error(&batch_estimates);
        if relative <= config.target_relative_error {
            converged = true;
            break;
        }
    }

    let estimate = MotifCounts::mean(&batch_estimates);
    let standard_errors = per_motif_standard_errors(&batch_estimates);
    AdaptiveOutcome {
        total_relative_error: total_relative_standard_error(&batch_estimates),
        batches: batch_estimates.len(),
        samples: batch_estimates.len() * config.batch_size,
        estimate,
        standard_errors,
        converged,
    }
}

/// Standard error of the mean of each motif's batch estimates.
fn per_motif_standard_errors(batches: &[MotifCounts]) -> [f64; NUM_MOTIFS] {
    let mut out = [0.0; NUM_MOTIFS];
    let n = batches.len();
    if n < 2 {
        return out;
    }
    let mean = MotifCounts::mean(batches);
    for (index, slot) in out.iter_mut().enumerate() {
        let id = (index + 1) as MotifId;
        let center = mean.get(id);
        let variance: f64 = batches
            .iter()
            .map(|b| {
                let d = b.get(id) - center;
                d * d
            })
            .sum::<f64>()
            / (n as f64 - 1.0);
        *slot = (variance / n as f64).sqrt();
    }
    out
}

/// Relative standard error of the total-count estimate across batches.
fn total_relative_standard_error(batches: &[MotifCounts]) -> f64 {
    let n = batches.len();
    if n < 2 {
        return f64::INFINITY;
    }
    let totals: Vec<f64> = batches.iter().map(MotifCounts::total).collect();
    let mean = totals.iter().sum::<f64>() / n as f64;
    if mean <= 0.0 {
        return 0.0;
    }
    let variance = totals.iter().map(|t| (t - mean) * (t - mean)).sum::<f64>() / (n as f64 - 1.0);
    (variance / n as f64).sqrt() / mean
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::mochy_e;
    use mochy_hypergraph::{HypergraphBuilder, NodeId};
    use mochy_projection::project;
    use rand::Rng;

    fn random_hypergraph(seed: u64) -> Hypergraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut builder = HypergraphBuilder::new();
        for _ in 0..150 {
            let size = rng.gen_range(2..=5usize);
            let mut members: Vec<NodeId> = Vec::new();
            while members.len() < size {
                let v = rng.gen_range(0..50u32);
                if !members.contains(&v) {
                    members.push(v);
                }
            }
            builder.add_edge(members);
        }
        builder.dedup_hyperedges(true).build().unwrap()
    }

    #[test]
    fn adaptive_estimate_is_close_to_exact() {
        let h = random_hypergraph(1);
        let projected = project(&h);
        let exact = mochy_e(&h, &projected);
        let config = AdaptiveConfig {
            batch_size: 2_000,
            min_batches: 3,
            max_batches: 30,
            target_relative_error: 0.02,
        };
        let outcome = mochy_a_plus_adaptive_seeded(&h, &projected, config, 99);
        assert!(outcome.batches >= 3);
        assert!(outcome.samples == outcome.batches * 2_000);
        let relative = exact.relative_error(&outcome.estimate);
        assert!(
            relative < 0.10,
            "adaptive estimate too far from exact: {relative}"
        );
    }

    #[test]
    fn stopping_rule_uses_fewer_batches_for_looser_targets() {
        let h = random_hypergraph(2);
        let projected = project(&h);
        let tight = AdaptiveConfig {
            batch_size: 500,
            min_batches: 2,
            max_batches: 40,
            target_relative_error: 0.005,
        };
        let loose = AdaptiveConfig {
            target_relative_error: 0.25,
            ..tight
        };
        let tight_outcome = mochy_a_plus_adaptive_seeded(&h, &projected, tight, 7);
        let loose_outcome = mochy_a_plus_adaptive_seeded(&h, &projected, loose, 7);
        assert!(loose_outcome.batches <= tight_outcome.batches);
        assert!(loose_outcome.converged);
        assert!(loose_outcome.total_relative_error <= 0.25);
    }

    #[test]
    fn max_batches_is_respected() {
        let h = random_hypergraph(3);
        let projected = project(&h);
        let config = AdaptiveConfig {
            batch_size: 50,
            min_batches: 2,
            max_batches: 5,
            target_relative_error: 0.0, // unreachable -> always hits the cap
        };
        let outcome = mochy_a_plus_adaptive_seeded(&h, &projected, config, 11);
        assert_eq!(outcome.batches, 5);
        assert!(!outcome.converged);
    }

    #[test]
    fn confidence_intervals_cover_most_exact_counts() {
        let h = random_hypergraph(4);
        let projected = project(&h);
        let exact = mochy_e(&h, &projected);
        let config = AdaptiveConfig {
            batch_size: 2_000,
            min_batches: 6,
            max_batches: 6,
            target_relative_error: 0.0,
        };
        let outcome = mochy_a_plus_adaptive_seeded(&h, &projected, config, 21);
        // With z = 3 the normal interval should cover the exact value for the
        // overwhelming majority of motifs (small-sample noise allows a few
        // misses among the 26).
        let covered = (1..=NUM_MOTIFS as MotifId)
            .filter(|&id| outcome.covers(id, exact.get(id), 3.0))
            .count();
        assert!(
            covered >= 22,
            "only {covered} of 26 intervals covered the exact count"
        );
        // Intervals are well-formed.
        for id in 1..=NUM_MOTIFS as MotifId {
            let (low, high) = outcome.confidence_interval(id, 1.96);
            assert!(low >= 0.0);
            assert!(high >= low);
        }
    }

    #[test]
    fn degenerate_configs_are_normalized() {
        let h = random_hypergraph(5);
        let projected = project(&h);
        let config = AdaptiveConfig {
            batch_size: 0,
            min_batches: 0,
            max_batches: 0,
            target_relative_error: -1.0,
        };
        let outcome = mochy_a_plus_adaptive_seeded(&h, &projected, config, 31);
        assert!(outcome.batches >= 2);
        assert!(outcome.samples >= outcome.batches);
    }
}
