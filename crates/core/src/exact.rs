//! MoCHy-E: exact h-motif counting and enumeration (Algorithms 2 and 3).

use mochy_hypergraph::graph::sorted_intersection_size;
use mochy_hypergraph::{default_chunk_size, map_reduce_chunks, EdgeId, Hypergraph, NodeId};
use mochy_motif::{MotifCatalog, MotifId, RegionCardinalities};
use mochy_projection::ProjectedGraph;

use crate::count::MotifCounts;

/// Counts the instances of every h-motif exactly (Algorithm 2, MoCHy-E).
///
/// For every hyperedge `e_i` and every unordered pair `{e_j, e_k}` of its
/// neighbours in the projected graph, the instance `{e_i, e_j, e_k}` is
/// counted when either `e_j ∩ e_k = ∅` (the instance is open and `e_i` is its
/// unique "centre") or `i < min(j, k)` (each closed instance is attributed to
/// its smallest member), so each instance is counted exactly once. This is
/// [`mochy_e_parallel`] with one thread.
pub fn mochy_e(hypergraph: &Hypergraph, projected: &ProjectedGraph) -> MotifCounts {
    mochy_e_parallel(hypergraph, projected, 1)
}

/// Parallel MoCHy-E (Section 3.4): worker threads claim hyperedge blocks
/// from an atomic work queue (work stealing, so skewed-degree datasets do
/// not serialize on one heavy static shard), each accumulating into a
/// private count vector; the partials are summed at the end. Every raw
/// contribution is an exact integer-valued `f64` increment, so the output is
/// bit-identical for every thread count and schedule. With
/// `num_threads <= 1` the single worker runs on the calling thread.
pub fn mochy_e_parallel(
    hypergraph: &Hypergraph,
    projected: &ProjectedGraph,
    num_threads: usize,
) -> MotifCounts {
    let n = hypergraph.num_edges();
    let partials = map_reduce_chunks(
        n,
        num_threads,
        default_chunk_size(n, num_threads),
        || (CentreScratch::new(hypergraph), MotifCounts::zero()),
        |(scratch, local), range| {
            for i in range {
                count_instances_centred_at(
                    hypergraph,
                    projected,
                    scratch,
                    i as EdgeId,
                    |motif, _, _| local.increment(motif),
                );
            }
        },
    );

    let mut counts = MotifCounts::zero();
    for (_, partial) in &partials {
        counts.merge(partial);
    }
    counts
}

/// Enumerates every h-motif instance exactly once (Algorithm 3,
/// MoCHy-E-ENUM), invoking `visit(e_i, e_j, e_k, motif)` per instance. The
/// time complexity is the same as MoCHy-E.
pub fn mochy_e_enumerate<F>(hypergraph: &Hypergraph, projected: &ProjectedGraph, mut visit: F)
where
    F: FnMut(EdgeId, EdgeId, EdgeId, MotifId),
{
    let mut scratch = CentreScratch::new(hypergraph);
    for i in hypergraph.edge_ids() {
        count_instances_centred_at(hypergraph, projected, &mut scratch, i, |motif, j, k| {
            visit(i, j, k, motif);
        });
    }
}

/// For every hyperedge, the number of h-motif instances of each type that
/// contain it (the HM26 feature vector of Section 4.4). Each instance
/// contributes to the vectors of all three of its member hyperedges.
pub fn mochy_e_per_edge(hypergraph: &Hypergraph, projected: &ProjectedGraph) -> Vec<MotifCounts> {
    let mut per_edge = vec![MotifCounts::zero(); hypergraph.num_edges()];
    mochy_e_enumerate(hypergraph, projected, |i, j, k, motif| {
        per_edge[i as usize].increment(motif);
        per_edge[j as usize].increment(motif);
        per_edge[k as usize].increment(motif);
    });
    per_edge
}

/// Per-worker state of [`count_instances_centred_at`]: the motif catalog
/// plus O(|E|)·4 + O(|V|) bytes of dense scratch, allocated once per count
/// and reused for every centre the worker visits.
pub(crate) struct CentreScratch {
    catalog: MotifCatalog,
    /// `weights[k] = w_jk` for the neighbour `e_j` being paired, else 0.
    weights: Vec<u32>,
    /// `in_centre[v]` is set exactly for the nodes of the current centre.
    in_centre: Vec<bool>,
    /// `e_i ∩ e_j` for the current centre and neighbour, ascending.
    core: Vec<NodeId>,
}

impl CentreScratch {
    /// An all-zero scratch sized for `hypergraph`.
    pub(crate) fn new(hypergraph: &Hypergraph) -> Self {
        Self {
            catalog: MotifCatalog::new(),
            weights: vec![0; hypergraph.num_edges()],
            in_centre: vec![false; hypergraph.num_nodes()],
            core: Vec::new(),
        }
    }
}

/// Shared inner loop of Algorithms 2 and 3: visits every instance attributed
/// to centre hyperedge `i` exactly once, calling `emit(motif, j, k)`. Also
/// reused by the sharded scatter-gather path ([`crate::shard`]), whose
/// boundary pass filters the emitted instances by shard membership.
///
/// For each neighbour `e_j` with pairs left, the weights of `N(j)` are
/// scattered into `scratch`, so every `w_jk` is one array read. The first
/// closed pair of `e_j` builds `e_i ∩ e_j` from the centre's node marks;
/// each triple intersection then probes that short list against `e_k`.
/// Classification goes through [`RegionCardinalities::from_intersections`]
/// exactly as in Lemma 2.
///
/// Invariant: `scratch` is all-zero (no weights, no marks) between calls.
/// Every call clears exactly the entries it wrote, so its cost never
/// depends on `|E|` or `|V|`.
pub(crate) fn count_instances_centred_at<F>(
    hypergraph: &Hypergraph,
    projected: &ProjectedGraph,
    scratch: &mut CentreScratch,
    i: EdgeId,
    mut emit: F,
) where
    F: FnMut(MotifId, EdgeId, EdgeId),
{
    let neighbors = projected.neighbors(i);
    let centre = hypergraph.edge(i);
    for &v in centre {
        scratch.in_centre[v as usize] = true;
    }
    for (a, &(j, w_ij)) in neighbors.iter().enumerate() {
        let rest = &neighbors[a + 1..];
        if rest.is_empty() {
            break;
        }
        let row_j = projected.neighbors(j);
        for &(k, w_jk) in row_j {
            scratch.weights[k as usize] = w_jk;
        }
        // `e_i ∩ e_j` has `w_ij ≥ 1` nodes, so an empty list means "not
        // built yet".
        scratch.core.clear();
        for &(k, w_ik) in rest {
            let w_jk = scratch.weights[k as usize];
            // Count open instances at their unique centre; count closed
            // instances only when the centre has the smallest identifier
            // (neighbourhoods are sorted, so `j < k`).
            if w_jk != 0 && i >= j {
                continue;
            }
            let triple = if w_jk == 0 {
                // The triple intersection is contained in `e_j ∩ e_k`.
                0
            } else {
                if scratch.core.is_empty() {
                    let marks = &scratch.in_centre;
                    let core = hypergraph.edge(j).iter().filter(|&&v| marks[v as usize]);
                    scratch.core.extend(core);
                }
                sorted_intersection_size(&scratch.core, hypergraph.edge(k))
            };
            let motif = RegionCardinalities::from_intersections(
                centre.len(),
                hypergraph.edge_size(j),
                hypergraph.edge_size(k),
                w_ij as usize,
                w_jk as usize,
                w_ik as usize,
                triple,
            )
            .and_then(|regions| scratch.catalog.classify(&regions));
            if let Some(motif) = motif {
                emit(motif, j, k);
            }
        }
        for &(k, _) in row_j {
            scratch.weights[k as usize] = 0;
        }
    }
    for &v in centre {
        scratch.in_centre[v as usize] = false;
    }
}

/// Brute-force reference counter: classifies every triple of hyperedges
/// directly from their node sets. Cubic in `|E|`; used only by tests and as a
/// correctness oracle on small hypergraphs.
pub fn brute_force_counts(hypergraph: &Hypergraph) -> MotifCounts {
    let catalog = MotifCatalog::new();
    let mut counts = MotifCounts::zero();
    let n = hypergraph.num_edges() as EdgeId;
    for i in 0..n {
        for j in (i + 1)..n {
            for k in (j + 1)..n {
                let regions = mochy_motif::RegionCardinalities::from_sorted_sets(
                    hypergraph.edge(i),
                    hypergraph.edge(j),
                    hypergraph.edge(k),
                );
                if let Some(motif) = catalog.classify(&regions) {
                    counts.increment(motif);
                }
            }
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use mochy_datagen::hub_and_skew;
    use mochy_hypergraph::HypergraphBuilder;
    use mochy_projection::project;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn figure2() -> Hypergraph {
        HypergraphBuilder::new()
            .with_edge([0u32, 1, 2])
            .with_edge([0, 3, 1])
            .with_edge([4, 5, 0])
            .with_edge([6, 7, 2])
            .build()
            .unwrap()
    }

    pub(crate) fn random_hypergraph(
        seed: u64,
        nodes: u32,
        edges: usize,
        max_size: usize,
    ) -> Hypergraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut builder = HypergraphBuilder::new();
        for _ in 0..edges {
            let size = rng.gen_range(1..=max_size);
            let members: Vec<u32> = (0..size).map(|_| rng.gen_range(0..nodes)).collect();
            builder.add_edge(members);
        }
        builder.build().unwrap()
    }

    #[test]
    fn figure2_has_three_instances() {
        let h = figure2();
        let proj = project(&h);
        let counts = mochy_e(&h, &proj);
        assert_eq!(counts.total(), 3.0);
        let catalog = MotifCatalog::new();
        // One closed instance ({e1,e2,e3}) and two open ones.
        let closed: f64 = catalog
            .closed_motif_ids()
            .iter()
            .map(|&id| counts.get(id))
            .sum();
        let open: f64 = catalog
            .open_motif_ids()
            .iter()
            .map(|&id| counts.get(id))
            .sum();
        assert_eq!(closed, 1.0);
        assert_eq!(open, 2.0);
    }

    #[test]
    fn matches_brute_force_on_random_hypergraphs() {
        let inputs = (0..6u64)
            .map(|seed| (format!("seed {seed}"), random_hypergraph(seed, 18, 22, 5)))
            .chain([("hub-and-skew".to_string(), hub_and_skew(0))]);
        for (label, h) in inputs {
            let proj = project(&h);
            let fast = mochy_e(&h, &proj);
            let brute = brute_force_counts(&h);
            assert_eq!(fast, brute, "{label}");
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        for h in [random_hypergraph(42, 25, 40, 6), hub_and_skew(1)] {
            let proj = project(&h);
            let sequential = mochy_e(&h, &proj);
            for threads in [1, 2, 3, 4, 8] {
                assert_eq!(mochy_e_parallel(&h, &proj, threads), sequential);
            }
        }
    }

    #[test]
    fn enumeration_agrees_with_counting() {
        let h = random_hypergraph(7, 15, 25, 5);
        let proj = project(&h);
        let counts = mochy_e(&h, &proj);
        let mut from_enum = MotifCounts::zero();
        let mut seen = std::collections::HashSet::new();
        mochy_e_enumerate(&h, &proj, |i, j, k, motif| {
            from_enum.increment(motif);
            let mut key = [i, j, k];
            key.sort_unstable();
            assert!(seen.insert(key), "instance {key:?} enumerated twice");
        });
        assert_eq!(counts, from_enum);
    }

    #[test]
    fn per_edge_counts_sum_to_three_times_total() {
        let h = random_hypergraph(11, 15, 20, 5);
        let proj = project(&h);
        let counts = mochy_e(&h, &proj);
        let per_edge = mochy_e_per_edge(&h, &proj);
        let per_edge_total: f64 = per_edge.iter().map(|c| c.total()).sum();
        assert_eq!(per_edge_total, 3.0 * counts.total());
        // Per-motif consistency as well.
        for id in 1..=26u8 {
            let sum: f64 = per_edge.iter().map(|c| c.get(id)).sum();
            assert_eq!(sum, 3.0 * counts.get(id), "motif {id}");
        }
    }

    #[test]
    fn disconnected_hypergraph_has_no_instances() {
        let h = HypergraphBuilder::new()
            .with_edge([0u32, 1])
            .with_edge([2u32, 3])
            .with_edge([4u32, 5])
            .build()
            .unwrap();
        let proj = project(&h);
        assert_eq!(mochy_e(&h, &proj).total(), 0.0);
    }

    #[test]
    fn duplicate_hyperedges_do_not_form_instances() {
        // Three copies of the same hyperedge plus one overlapping edge: the
        // only valid instances must avoid using two identical hyperedges.
        let h = HypergraphBuilder::new()
            .with_edge([0u32, 1, 2])
            .with_edge([0u32, 1, 2])
            .with_edge([0u32, 1, 2])
            .with_edge([2u32, 3, 4])
            .build()
            .unwrap();
        let proj = project(&h);
        assert_eq!(mochy_e(&h, &proj).total(), 0.0);
        assert_eq!(brute_force_counts(&h).total(), 0.0);
    }
}
