//! Adversarial hypergraph shapes for exact-counting tests.

use mochy_hypergraph::{Hypergraph, HypergraphBuilder, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded hub-and-skew hypergraph of 300 hyperedges over 120 nodes, built
/// to reach every branch of MoCHy-E's inner loop:
///
/// - hyperedge 0 is a hub holding every even node, so it overlaps every
///   hyperedge that touches one of the heavy nodes below;
/// - hyperedges 1–3 are three copies of `{1, 3, 5, 7}`, whose triples are
///   not valid instances;
/// - hyperedges 4–7 are singletons;
/// - every other hyperedge holds one of the heavy nodes `0, 2, …, 10`
///   (each ends with degree well above 20) plus 1–15 uniform nodes, a tenth
///   of them large, so open pairs, closed pairs with and without a triple
///   core, and neighbourhoods of very different sizes all occur.
pub fn hub_and_skew(seed: u64) -> Hypergraph {
    const NODES: NodeId = 120;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = HypergraphBuilder::new();
    builder.add_edge((0..NODES).step_by(2).collect::<Vec<_>>());
    for _ in 0..3 {
        builder.add_edge([1, 3, 5, 7]);
    }
    for v in [9, 51, 111, 119] {
        builder.add_edge([v]);
    }
    while builder.len() < 300 {
        let size = if rng.gen_bool(0.1) {
            rng.gen_range(8..=16)
        } else {
            rng.gen_range(2..=4)
        };
        let mut members = vec![2 * rng.gen_range(0..6)];
        members.extend((1..size).map(|_| rng.gen_range(0..NODES)));
        builder.add_edge(members);
    }
    builder.build().expect("every hyperedge is non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_and_skew_has_its_advertised_shape() {
        let h = hub_and_skew(0);
        assert_eq!(h.num_edges(), 300);
        assert_eq!(h.edge_size(0), 60);
        assert_eq!(h.edge(1), h.edge(3));
        assert!((4..8).all(|e| h.edge_size(e) == 1));
        assert!((0..12).step_by(2).all(|v| h.node_degree(v) >= 20));
        let hub_neighbours = (1..300).filter(|&e| h.are_adjacent(0, e)).count();
        assert!(hub_neighbours > 250, "{hub_neighbours}");
    }
}
