//! MoCHy-A and MoCHy-A+: approximate h-motif counting by hyperedge and
//! hyperwedge sampling (Algorithms 4 and 5).
//!
//! Both estimators are unbiased (Theorems 2 and 4); MoCHy-A+ has lower
//! variance for the same expected work (Section 3.3), which Figure 8 of the
//! paper and the `fig8_tradeoff` bench of this repository confirm.

use mochy_hypergraph::{default_chunk_size, map_reduce_chunks, EdgeId, Hypergraph};
use mochy_motif::MotifCatalog;
use mochy_projection::ProjectedGraph;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use crate::classify::classify_triple_with_weights;
use crate::count::MotifCounts;

/// Deterministic per-sample RNG: sample `index` under `seed` always draws
/// from the same stream no matter which worker thread claims it, which makes
/// sampled counts identical for every thread count (the raw per-motif
/// contributions are integer-valued `f64` additions, so merge order cannot
/// change the result either).
fn sample_rng(seed: u64, index: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// MoCHy-A (Algorithm 4): samples `s` hyperedges uniformly at random with
/// replacement, counts the h-motif instances containing each sample, and
/// rescales by `|E| / (3s)` to obtain unbiased estimates of every `M[t]`.
/// Sample indices are claimed in blocks from an atomic work queue by
/// `num_threads` workers, and each sample draws from its own RNG stream
/// derived from `(seed, index)` — see [`sample_rng`] — so the estimate is
/// identical for every thread count (including 1).
pub fn mochy_a_parallel(
    hypergraph: &Hypergraph,
    projected: &ProjectedGraph,
    num_samples: usize,
    num_threads: usize,
    seed: u64,
) -> MotifCounts {
    let num_edges = hypergraph.num_edges();
    if num_edges == 0 || num_samples == 0 {
        return MotifCounts::zero();
    }
    let partials = map_reduce_chunks(
        num_samples,
        num_threads,
        default_chunk_size(num_samples, num_threads.max(1)),
        || (MotifCatalog::new(), MotifCounts::zero()),
        |(catalog, raw), range| {
            for index in range {
                let mut rng = sample_rng(seed, index);
                let sample = rng.gen_range(0..num_edges) as EdgeId;
                count_from_sampled_edge(hypergraph, projected, catalog, sample, raw);
            }
        },
    );

    let mut counts = MotifCounts::zero();
    for (_, partial) in &partials {
        counts.merge(partial);
    }
    counts.scale(num_edges as f64 / (3.0 * num_samples as f64));
    counts
}

/// MoCHy-A+ (Algorithm 5): samples `r` hyperwedges uniformly at random with
/// replacement, counts the instances containing each sampled hyperwedge, and
/// rescales open motifs by `|∧| / (2r)` and closed motifs by `|∧| / (3r)`.
/// Draws every sample from `rng` in turn; the adaptive estimator uses it to
/// run batches from one stream.
pub(crate) fn mochy_a_plus_with_rng<R: Rng + ?Sized>(
    hypergraph: &Hypergraph,
    projected: &ProjectedGraph,
    num_samples: usize,
    rng: &mut R,
) -> MotifCounts {
    let catalog = MotifCatalog::new();
    let sampler = WedgeSampler::new(projected);
    let mut raw = MotifCounts::zero();
    if sampler.num_hyperwedges() == 0 || num_samples == 0 {
        return raw;
    }
    for _ in 0..num_samples {
        let (i, j) = sampler.sample(rng);
        count_from_sampled_wedge(hypergraph, projected, &catalog, i, j, &mut raw);
    }
    rescale_wedge_estimates(&catalog, &mut raw, sampler.num_hyperwedges(), num_samples);
    raw
}

/// Parallel MoCHy-A+: like [`mochy_a_parallel`], sample indices are pulled
/// from an atomic chunked work queue and each sample draws from its own
/// `(seed, index)`-derived RNG stream, so the estimate is identical for
/// every thread count (including 1).
pub fn mochy_a_plus_parallel(
    hypergraph: &Hypergraph,
    projected: &ProjectedGraph,
    num_samples: usize,
    num_threads: usize,
    seed: u64,
) -> MotifCounts {
    let catalog = MotifCatalog::new();
    let sampler = WedgeSampler::new(projected);
    if sampler.num_hyperwedges() == 0 || num_samples == 0 {
        return MotifCounts::zero();
    }
    let sampler_ref = &sampler;
    let partials = map_reduce_chunks(
        num_samples,
        num_threads,
        default_chunk_size(num_samples, num_threads.max(1)),
        || (MotifCatalog::new(), MotifCounts::zero()),
        |(catalog, raw), range| {
            for index in range {
                let mut rng = sample_rng(seed, index);
                let (i, j) = sampler_ref.sample(&mut rng);
                count_from_sampled_wedge(hypergraph, projected, catalog, i, j, raw);
            }
        },
    );

    let mut counts = MotifCounts::zero();
    for (_, partial) in &partials {
        counts.merge(partial);
    }
    rescale_wedge_estimates(
        &catalog,
        &mut counts,
        sampler.num_hyperwedges(),
        num_samples,
    );
    counts
}

/// Applies the rescaling of lines 6–10 of Algorithm 5.
fn rescale_wedge_estimates(
    catalog: &MotifCatalog,
    counts: &mut MotifCounts,
    num_hyperwedges: usize,
    num_samples: usize,
) {
    let open_factor = num_hyperwedges as f64 / (2.0 * num_samples as f64);
    let closed_factor = num_hyperwedges as f64 / (3.0 * num_samples as f64);
    counts.scale_motifs(&catalog.open_motif_ids(), open_factor);
    counts.scale_motifs(&catalog.closed_motif_ids(), closed_factor);
}

/// Uniform sampler over the hyperwedges of a projected graph.
///
/// Every hyperwedge appears exactly twice among the directed adjacency
/// entries, so sampling a directed entry uniformly yields a uniform
/// hyperwedge.
pub struct WedgeSampler {
    /// Prefix sums of projected-graph degrees; length `num_edges + 1`.
    prefix: Vec<u64>,
}

impl WedgeSampler {
    /// Builds a sampler over the hyperwedges of `projected`.
    pub fn new(projected: &ProjectedGraph) -> Self {
        let mut prefix = Vec::with_capacity(projected.num_edges() + 1);
        prefix.push(0u64);
        for e in 0..projected.num_edges() {
            let previous = *prefix.last().unwrap();
            prefix.push(previous + projected.degree(e as EdgeId) as u64);
        }
        Self { prefix }
    }

    /// Number of hyperwedges `|∧|`.
    pub fn num_hyperwedges(&self) -> usize {
        (*self.prefix.last().unwrap() / 2) as usize
    }

    /// Samples a hyperwedge uniformly at random, returning it as an ordered
    /// pair `(i, j)` where `i` is the endpoint whose adjacency entry was
    /// drawn. Requires at least one hyperwedge; call sites guard for that.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> (EdgeId, EdgeId) {
        let total = *self.prefix.last().unwrap();
        debug_assert!(total > 0, "cannot sample from an empty hyperwedge set");
        let target = rng.gen_range(0..total);
        // Last index whose prefix value is ≤ target (robust to zero-degree
        // hyperedges, which create repeated prefix values).
        let i = self.prefix.partition_point(|&p| p <= target) - 1;
        let offset = (target - self.prefix[i]) as usize;
        (i as EdgeId, offset as EdgeId)
    }

    /// Resolves the neighbour offset returned by [`WedgeSampler::sample`]
    /// into the neighbour's hyperedge id.
    pub fn resolve(projected: &ProjectedGraph, pair: (EdgeId, EdgeId)) -> (EdgeId, EdgeId) {
        let (i, offset) = pair;
        let (j, _) = projected.neighbors(i)[offset as usize];
        (i, j)
    }
}

/// Counts the raw (un-rescaled) contributions of a sampled hyperedge `e_i`
/// (lines 4–7 of Algorithm 4).
pub(crate) fn count_from_sampled_edge(
    hypergraph: &Hypergraph,
    projected: &ProjectedGraph,
    catalog: &MotifCatalog,
    i: EdgeId,
    raw: &mut MotifCounts,
) {
    let neighbors_i = projected.neighbors(i);
    for &(j, w_ij) in neighbors_i {
        for_each_union_neighbor(
            neighbors_i,
            projected.neighbors(j),
            i,
            j,
            |k, w_ik, w_jk| {
                // Deduplicate within this sample: when e_k is also a neighbour of
                // e_i, the same instance will be seen again with j and k swapped,
                // so keep only the ordered occurrence (j < k).
                if w_ik != 0 && j >= k {
                    return;
                }
                if let Some(motif) = classify_triple_with_weights(
                    hypergraph,
                    catalog,
                    i,
                    j,
                    k,
                    w_ij as usize,
                    w_jk as usize,
                    w_ik as usize,
                ) {
                    raw.increment(motif);
                }
            },
        );
    }
}

/// Counts the raw (un-rescaled) contributions of a sampled hyperwedge
/// `∧_ij` (lines 4–5 of Algorithm 5). `j_offset` is the index of `j` within
/// `i`'s neighbourhood as produced by [`WedgeSampler::sample`].
pub(crate) fn count_from_sampled_wedge(
    hypergraph: &Hypergraph,
    projected: &ProjectedGraph,
    catalog: &MotifCatalog,
    i: EdgeId,
    j_offset: EdgeId,
    raw: &mut MotifCounts,
) {
    let (j, w_ij) = projected.neighbors(i)[j_offset as usize];
    for_each_union_neighbor(
        projected.neighbors(i),
        projected.neighbors(j),
        i,
        j,
        |k, w_ik, w_jk| {
            if let Some(motif) = classify_triple_with_weights(
                hypergraph,
                catalog,
                i,
                j,
                k,
                w_ij as usize,
                w_jk as usize,
                w_ik as usize,
            ) {
                raw.increment(motif);
            }
        },
    );
}

/// Iterates over `N(e_i) ∪ N(e_j) \ {e_i, e_j}` by merging the two sorted
/// neighbourhood lists, reporting each candidate `e_k` together with
/// `ω(∧_ik)` and `ω(∧_jk)` (0 when not adjacent). The lists are passed
/// explicitly so the on-the-fly variant can supply lazily computed
/// neighbourhoods.
pub(crate) fn for_each_union_neighbor<F>(
    list_i: &[mochy_projection::WeightedNeighbor],
    list_j: &[mochy_projection::WeightedNeighbor],
    i: EdgeId,
    j: EdgeId,
    mut visit: F,
) where
    F: FnMut(EdgeId, u32, u32),
{
    let (mut a, mut b) = (0usize, 0usize);
    while a < list_i.len() || b < list_j.len() {
        let next_i = list_i.get(a).copied();
        let next_j = list_j.get(b).copied();
        let (k, w_ik, w_jk) = match (next_i, next_j) {
            (Some((ki, wi)), Some((kj, wj))) => {
                if ki == kj {
                    a += 1;
                    b += 1;
                    (ki, wi, wj)
                } else if ki < kj {
                    a += 1;
                    (ki, wi, 0)
                } else {
                    b += 1;
                    (kj, 0, wj)
                }
            }
            (Some((ki, wi)), None) => {
                a += 1;
                (ki, wi, 0)
            }
            (None, Some((kj, wj))) => {
                b += 1;
                (kj, 0, wj)
            }
            (None, None) => break,
        };
        if k == i || k == j {
            continue;
        }
        visit(k, w_ik, w_jk);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{brute_force_counts, mochy_e};
    use mochy_hypergraph::HypergraphBuilder;
    use mochy_projection::project;
    use rand::rngs::StdRng;

    fn random_hypergraph(seed: u64, nodes: u32, edges: usize, max_size: usize) -> Hypergraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut builder = HypergraphBuilder::new();
        for _ in 0..edges {
            let size = rng.gen_range(1..=max_size);
            let members: Vec<u32> = (0..size).map(|_| rng.gen_range(0..nodes)).collect();
            builder.add_edge(members);
        }
        builder.build().unwrap()
    }

    fn figure2() -> Hypergraph {
        HypergraphBuilder::new()
            .with_edge([0u32, 1, 2])
            .with_edge([0, 3, 1])
            .with_edge([4, 5, 0])
            .with_edge([6, 7, 2])
            .build()
            .unwrap()
    }

    /// MoCHy-A is *exactly* unbiased: averaging the estimator over the full
    /// sample space (every hyperedge sampled once, s = |E|) multiplied by the
    /// rescaling factor must reproduce the exact counts.
    #[test]
    fn mochy_a_is_exactly_unbiased_over_the_sample_space() {
        for seed in [1u64, 5, 9] {
            let h = random_hypergraph(seed, 14, 18, 5);
            let proj = project(&h);
            let catalog = MotifCatalog::new();
            let mut raw = MotifCounts::zero();
            for i in h.edge_ids() {
                count_from_sampled_edge(&h, &proj, &catalog, i, &mut raw);
            }
            // Expectation with s = |E| deterministic passes: scale by |E|/(3·|E|).
            raw.scale(1.0 / 3.0);
            let exact = mochy_e(&h, &proj);
            for id in 1..=26u8 {
                assert!(
                    (raw.get(id) - exact.get(id)).abs() < 1e-9,
                    "seed {seed}, motif {id}: {} vs {}",
                    raw.get(id),
                    exact.get(id)
                );
            }
        }
    }

    /// MoCHy-A+ is exactly unbiased over the full hyperwedge sample space.
    #[test]
    fn mochy_a_plus_is_exactly_unbiased_over_the_sample_space() {
        for seed in [2u64, 6, 10] {
            let h = random_hypergraph(seed, 14, 18, 5);
            let proj = project(&h);
            let catalog = MotifCatalog::new();
            let mut raw = MotifCounts::zero();
            let mut num_wedges = 0usize;
            for i in h.edge_ids() {
                for offset in 0..proj.degree(i) {
                    count_from_sampled_wedge(&h, &proj, &catalog, i, offset as EdgeId, &mut raw);
                    num_wedges += 1;
                }
            }
            // Every wedge visited twice (once per direction): r = 2|∧|.
            assert_eq!(num_wedges, 2 * proj.num_hyperwedges());
            rescale_wedge_estimates(&catalog, &mut raw, proj.num_hyperwedges(), num_wedges);
            let exact = mochy_e(&h, &proj);
            for id in 1..=26u8 {
                assert!(
                    (raw.get(id) - exact.get(id)).abs() < 1e-9,
                    "seed {seed}, motif {id}: {} vs {}",
                    raw.get(id),
                    exact.get(id)
                );
            }
        }
    }

    #[test]
    fn estimates_converge_to_exact_counts() {
        let h = random_hypergraph(3, 20, 40, 5);
        let proj = project(&h);
        let exact = brute_force_counts(&h);
        let estimate_a = mochy_a_parallel(&h, &proj, 4000, 1, 100);
        let estimate_a_plus = mochy_a_plus_parallel(&h, &proj, 4000, 1, 100);
        assert!(
            exact.relative_error(&estimate_a) < 0.15,
            "MoCHy-A error {}",
            exact.relative_error(&estimate_a)
        );
        assert!(
            exact.relative_error(&estimate_a_plus) < 0.15,
            "MoCHy-A+ error {}",
            exact.relative_error(&estimate_a_plus)
        );
    }

    #[test]
    fn wedge_sampler_is_uniform() {
        let h = figure2();
        let proj = project(&h);
        let sampler = WedgeSampler::new(&proj);
        assert_eq!(sampler.num_hyperwedges(), 4);
        let mut rng = StdRng::seed_from_u64(0);
        let mut histogram = std::collections::HashMap::new();
        let trials = 40_000usize;
        for _ in 0..trials {
            let (i, j) = WedgeSampler::resolve(&proj, sampler.sample(&mut rng));
            let key = (i.min(j), i.max(j));
            *histogram.entry(key).or_insert(0usize) += 1;
        }
        assert_eq!(histogram.len(), 4);
        for (&wedge, &count) in &histogram {
            let frequency = count as f64 / trials as f64;
            assert!(
                (frequency - 0.25).abs() < 0.02,
                "wedge {wedge:?} frequency {frequency}"
            );
        }
    }

    #[test]
    fn parallel_sampling_matches_exact_in_expectation() {
        let h = random_hypergraph(8, 20, 35, 5);
        let proj = project(&h);
        let exact = mochy_e(&h, &proj);
        let estimate = mochy_a_plus_parallel(&h, &proj, 6000, 4, 7);
        assert!(
            exact.relative_error(&estimate) < 0.15,
            "error {}",
            exact.relative_error(&estimate)
        );
        let estimate = mochy_a_parallel(&h, &proj, 6000, 4, 7);
        assert!(
            exact.relative_error(&estimate) < 0.2,
            "error {}",
            exact.relative_error(&estimate)
        );
    }

    #[test]
    fn zero_samples_or_empty_projection() {
        let h = figure2();
        let proj = project(&h);
        assert_eq!(mochy_a_parallel(&h, &proj, 0, 1, 1).total(), 0.0);
        assert_eq!(mochy_a_plus_parallel(&h, &proj, 0, 1, 1).total(), 0.0);

        let disconnected = HypergraphBuilder::new()
            .with_edge([0u32])
            .with_edge([1u32])
            .build()
            .unwrap();
        let proj_disconnected = project(&disconnected);
        assert_eq!(
            mochy_a_plus_parallel(&disconnected, &proj_disconnected, 10, 1, 1).total(),
            0.0
        );
        assert_eq!(
            mochy_a_parallel(&disconnected, &proj_disconnected, 10, 1, 1).total(),
            0.0
        );
    }

    #[test]
    fn parallel_sampling_is_thread_count_invariant() {
        // Per-sample RNG derivation makes the estimate a pure function of
        // (seed, num_samples), independent of threads and scheduling.
        let h = random_hypergraph(12, 20, 30, 5);
        let proj = project(&h);
        let base_a = mochy_a_parallel(&h, &proj, 777, 1, 5);
        let base_a_plus = mochy_a_plus_parallel(&h, &proj, 777, 1, 5);
        for threads in [2, 4, 8, 32] {
            assert_eq!(
                mochy_a_parallel(&h, &proj, 777, threads, 5),
                base_a,
                "MoCHy-A, threads {threads}"
            );
            assert_eq!(
                mochy_a_plus_parallel(&h, &proj, 777, threads, 5),
                base_a_plus,
                "MoCHy-A+, threads {threads}"
            );
        }
    }

    #[test]
    fn single_threaded_parallel_is_deterministic() {
        let h = random_hypergraph(4, 15, 25, 4);
        let proj = project(&h);
        let first = mochy_a_plus_parallel(&h, &proj, 500, 1, 99);
        let second = mochy_a_plus_parallel(&h, &proj, 500, 1, 99);
        assert_eq!(first, second);
    }
}
