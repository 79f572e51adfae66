//! Sharded MoCHy-E: exact counting split by centre range, bit-identical to
//! the unsharded run.
//!
//! The MoCHy-E attribution rule ([`crate::exact`]) assigns every h-motif
//! instance to exactly one centre hyperedge: an open instance to its unique
//! centre, a closed one to its smallest member. Exact counts therefore split
//! cleanly by centre. A shard owns the contiguous edge span given by
//! [`shard_boundaries`], and its partial is one pass of the shared MoCHy-E
//! inner loop over the centres in that span, on the projection of the whole
//! hypergraph. The partial holds:
//!
//! - every instance whose centre lies in the span;
//! - every hyperwedge `{e_i, e_j}` with `e_i` in the span and `j > i`.
//!
//! Each instance and each hyperwedge is counted by exactly one shard, so the
//! partials of all shards add up to the unsharded run.
//!
//! **Why the merge is bit-identical.** Every contribution is a `+1.0`
//! increment into an `f64` accumulator. The totals stay far below `2^53`,
//! where floating-point addition of integers is exact — so any grouping of
//! the same instance multiset sums to identical bits. The merge is
//! nevertheless defined order-fixed (shard 0, 1, …, K−1) so the gather step
//! is deterministic by construction, not by arithmetic accident.
//! `shard-check` (CI) and `shard_invariance.rs` pin the resulting reports
//! bit-equal to unsharded MoCHy-E.

use std::ops::Range;

use mochy_hypergraph::{shard_boundaries, EdgeId, Hypergraph};
use mochy_json::JsonValue;
use mochy_motif::NUM_MOTIFS;
use mochy_projection::ProjectedGraph;

use crate::count::MotifCounts;
use crate::exact::mochy_e_centres;

/// The `schema` tag of the [`ShardPartial`] wire format. Decoding rejects
/// any other tag, so a worker speaking an older format fails loudly
/// instead of being merged.
const SHARD_PARTIAL_SCHEMA: &str = "mochy-shard-partial/2";

/// One shard's contribution to a sharded count: the counts and hyperwedges
/// attributed to the centres in its edge span.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPartial {
    /// Zero-based shard index.
    pub shard: usize,
    /// The global edge span `[start, end)` this shard covers.
    pub edges: Range<usize>,
    /// Instances whose centre hyperedge lies in this shard.
    pub counts: MotifCounts,
    /// Hyperwedges `{e_i, e_j}` (`i < j`) with `e_i` in this shard.
    pub hyperwedges: usize,
}

impl ShardPartial {
    /// Serializes the partial as a JSON object — the wire format of the
    /// distributed scatter-gather (`POST /v1/internal/count-shard`), tagged
    /// `"schema": "mochy-shard-partial/2"`.
    ///
    /// All counts are integer-valued `f64`s far below 2^53, and
    /// [`mochy_json`] renders finite numbers with Rust's shortest-round-trip
    /// formatting, so `from_json(render(to_json))` reproduces every field
    /// bit-for-bit — the property that lets a gathered partial merge exactly
    /// like an in-process one.
    pub fn to_json(&self) -> JsonValue {
        let number = |value: usize| JsonValue::Number(value as f64);
        JsonValue::Object(vec![
            (
                "schema".to_string(),
                JsonValue::String(SHARD_PARTIAL_SCHEMA.to_string()),
            ),
            ("shard".to_string(), number(self.shard)),
            ("edge_start".to_string(), number(self.edges.start)),
            ("edge_end".to_string(), number(self.edges.end)),
            (
                "counts".to_string(),
                JsonValue::Array(
                    self.counts
                        .as_slice()
                        .iter()
                        .map(|&c| JsonValue::Number(c))
                        .collect(),
                ),
            ),
            ("hyperwedges".to_string(), number(self.hyperwedges)),
        ])
    }

    /// Decodes a partial from the [`ShardPartial::to_json`] wire format,
    /// validating shape and ranges (the coordinator treats worker responses
    /// as untrusted input). The `schema` tag must be
    /// `"mochy-shard-partial/2"`; every count must be an integer in
    /// `[0, 2^53)`, where the exact-integer merge holds, with exactly
    /// [`NUM_MOTIFS`] counts; the edge span must be a valid range.
    pub fn from_json(value: &JsonValue) -> Result<ShardPartial, String> {
        let field = |key: &str| {
            value
                .get(key)
                .ok_or_else(|| format!("missing field `{key}`"))
        };
        let count = |key: &str, entry: &JsonValue| -> Result<usize, String> {
            entry
                .as_u64()
                .filter(|&c| c < 1 << 53)
                .and_then(|c| usize::try_from(c).ok())
                .ok_or_else(|| format!("field `{key}` holds a non-count value {}", entry.render()))
        };
        let usize_field = |key: &str| count(key, field(key)?);

        let schema = field("schema")?;
        if schema.as_str() != Some(SHARD_PARTIAL_SCHEMA) {
            return Err(format!(
                "unsupported schema {}, expected \"{SHARD_PARTIAL_SCHEMA}\"",
                schema.render()
            ));
        }
        let edge_start = usize_field("edge_start")?;
        let edge_end = usize_field("edge_end")?;
        if edge_start > edge_end {
            return Err(format!("edge span {edge_start}..{edge_end} is inverted"));
        }
        let array = field("counts")?
            .as_array()
            .ok_or("field `counts` is not an array")?;
        if array.len() != NUM_MOTIFS {
            return Err(format!(
                "field `counts` has {} entries, expected {NUM_MOTIFS}",
                array.len()
            ));
        }
        let mut counts = MotifCounts::zero();
        for (id, entry) in (1..).zip(array) {
            counts.set(id, count("counts", entry)? as f64);
        }
        Ok(ShardPartial {
            shard: usize_field("shard")?,
            edges: edge_start..edge_end,
            counts,
            hyperwedges: usize_field("hyperwedges")?,
        })
    }
}

/// Computes every shard's [`ShardPartial`] over `num_shards` contiguous
/// shards: [`count_shard_partial`] for each span of [`shard_boundaries`].
/// `projected` must be the full eager projection of `hypergraph`.
///
/// `threads` parallelizes each shard's pass on the shared worker pool
/// exactly like unsharded counting; the partials are thread-count invariant.
pub fn count_sharded(
    hypergraph: &Hypergraph,
    projected: &ProjectedGraph,
    num_shards: usize,
    threads: usize,
) -> Vec<ShardPartial> {
    shard_boundaries(hypergraph.num_edges(), num_shards)
        .into_iter()
        .enumerate()
        .map(|(shard, span)| centre_range_partial(hypergraph, projected, shard, span, threads))
        .collect()
}

/// Computes a single shard's [`ShardPartial`] — the unit of work a
/// distributed worker answers `count-shard` with, and exactly the element
/// `count_sharded(...)[shard]`. Returns `None` when `shard` is outside the
/// `shard_boundaries(num_edges, num_shards)` layout.
///
/// `projected` must be the FULL projection of the FULL `hypergraph`:
/// instances centred in the span reference hyperedges of other shards.
pub fn count_shard_partial(
    hypergraph: &Hypergraph,
    projected: &ProjectedGraph,
    num_shards: usize,
    shard: usize,
    threads: usize,
) -> Option<ShardPartial> {
    let span = shard_boundaries(hypergraph.num_edges(), num_shards)
        .get(shard)?
        .clone();
    Some(centre_range_partial(
        hypergraph, projected, shard, span, threads,
    ))
}

/// One MoCHy-E pass over the centres in `span`, plus the hyperwedges those
/// centres own.
fn centre_range_partial(
    hypergraph: &Hypergraph,
    projected: &ProjectedGraph,
    shard: usize,
    span: Range<usize>,
    threads: usize,
) -> ShardPartial {
    let counts = mochy_e_centres(hypergraph, projected, span.clone(), threads);
    // Neighbourhoods are sorted by edge id, so the partners `j > i` of each
    // centre `i` are a suffix of its row.
    let hyperwedges = span
        .clone()
        .map(|i| {
            let row = projected.neighbors(i as EdgeId);
            row.len() - row.partition_point(|&(j, _)| j as usize <= i)
        })
        .sum();
    ShardPartial {
        shard,
        edges: span,
        counts,
        hyperwedges,
    }
}

/// The order-fixed gather: folds the partials in shard order into the
/// merged motif counts and the merged hyperwedge count. Associative by
/// exact integer `f64` arithmetic; the fixed order makes the merge
/// deterministic by construction as well.
pub fn merge_partials(partials: &[ShardPartial]) -> (MotifCounts, usize) {
    let mut counts = MotifCounts::zero();
    let mut num_hyperwedges = 0usize;
    for partial in partials {
        counts.merge(&partial.counts);
        num_hyperwedges += partial.hyperwedges;
    }
    (counts, num_hyperwedges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{mochy_e, mochy_e_enumerate};
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

    fn unsharded(h: &Hypergraph) -> (MotifCounts, usize) {
        let projected = project(h);
        (mochy_e(h, &projected), projected.num_hyperwedges())
    }

    #[test]
    fn figure2_sharded_matches_unsharded() {
        let h = figure2();
        let (expected_counts, expected_wedges) = unsharded(&h);
        let projected = project(&h);
        for shards in [1usize, 2, 3, 4] {
            let partials = count_sharded(&h, &projected, shards, 1);
            let (counts, wedges) = merge_partials(&partials);
            assert_eq!(counts, expected_counts, "shards={shards}");
            assert_eq!(wedges, expected_wedges, "shards={shards}");
        }
    }

    #[test]
    fn random_hypergraphs_sharded_match_for_every_shard_and_thread_count() {
        for seed in 0..4u64 {
            let h = random_hypergraph(seed, 25, 40, 6);
            let (expected_counts, expected_wedges) = unsharded(&h);
            let projected = project(&h);
            for shards in [1usize, 2, 4, 8] {
                for threads in [1usize, 2, 4] {
                    let partials = count_sharded(&h, &projected, shards, threads);
                    let (counts, wedges) = merge_partials(&partials);
                    assert_eq!(
                        counts, expected_counts,
                        "seed={seed} K={shards} t={threads}"
                    );
                    assert_eq!(
                        wedges, expected_wedges,
                        "seed={seed} K={shards} t={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn more_shards_than_edges_still_merges_correctly() {
        let h = figure2();
        let (expected_counts, expected_wedges) = unsharded(&h);
        let projected = project(&h);
        let partials = count_sharded(&h, &projected, 9, 1);
        assert_eq!(partials.len(), 9);
        let (counts, wedges) = merge_partials(&partials);
        assert_eq!(counts, expected_counts);
        assert_eq!(wedges, expected_wedges);
    }

    #[test]
    fn centre_range_partials_match_the_enumeration_oracle() {
        // Each partial must hold exactly the instances MoCHy-E-ENUM reports
        // with their centre in the shard's span, and exactly the projection
        // pairs (i, j) with i in the span and j > i.
        let inputs = [2u64, 9]
            .map(|seed| (format!("seed {seed}"), random_hypergraph(seed, 22, 36, 5)))
            .into_iter()
            .chain([("hub-and-skew".to_string(), hub_and_skew(0))]);
        for (label, h) in inputs {
            let projected = project(&h);
            let mut by_centre = vec![MotifCounts::zero(); h.num_edges()];
            mochy_e_enumerate(&h, &projected, |i, _, _, motif| {
                by_centre[i as usize].increment(motif);
            });
            for shards in [1usize, 2, 3, 8] {
                let spans = shard_boundaries(h.num_edges(), shards);
                for (shard, span) in spans.iter().enumerate() {
                    let mut counts = MotifCounts::zero();
                    for centre in &by_centre[span.clone()] {
                        counts.merge(centre);
                    }
                    let hyperwedges = span
                        .clone()
                        .flat_map(|i| {
                            projected
                                .neighbors(i as EdgeId)
                                .iter()
                                .map(move |&(j, _)| (i, j))
                        })
                        .filter(|&(i, j)| j as usize > i)
                        .count();
                    for threads in [1usize, 3] {
                        let partial = count_shard_partial(&h, &projected, shards, shard, threads)
                            .expect("shard index is in range");
                        let context = format!("{label} K={shards} shard={shard} t={threads}");
                        assert_eq!(partial.shard, shard, "{context}");
                        assert_eq!(&partial.edges, span, "{context}");
                        assert_eq!(partial.counts, counts, "{context}");
                        assert_eq!(partial.hyperwedges, hyperwedges, "{context}");
                    }
                }
            }
        }
    }

    #[test]
    fn single_shard_partials_match_the_batch_scatter_bitwise() {
        // The distributed unit of work: counting one shard in isolation must
        // reproduce the corresponding element of the in-process scatter
        // bit-for-bit, for every shard, shard count, and thread count.
        for seed in [2u64, 9] {
            let h = random_hypergraph(seed, 22, 36, 5);
            let projected = project(&h);
            for shards in [1usize, 2, 3, 8] {
                let batch = count_sharded(&h, &projected, shards, 1);
                for (shard, expected) in batch.iter().enumerate() {
                    for threads in [1usize, 3] {
                        let solo = count_shard_partial(&h, &projected, shards, shard, threads)
                            .expect("shard index is in range");
                        assert_eq!(
                            &solo, expected,
                            "seed={seed} K={shards} shard={shard} t={threads}"
                        );
                        for (motif, (a, b)) in expected
                            .counts
                            .as_slice()
                            .iter()
                            .zip(solo.counts.as_slice())
                            .enumerate()
                        {
                            assert_eq!(
                                a.to_bits(),
                                b.to_bits(),
                                "motif {} differs at seed={seed} K={shards} shard={shard}",
                                motif + 1
                            );
                        }
                    }
                }
                assert!(
                    count_shard_partial(&h, &projected, shards, batch.len(), 1).is_none(),
                    "out-of-range shard index must be rejected"
                );
            }
        }
    }

    #[test]
    fn shard_partial_json_round_trips_bit_exactly() {
        let h = random_hypergraph(5, 20, 32, 5);
        let projected = project(&h);
        for partial in count_sharded(&h, &projected, 3, 1) {
            let wire = partial.to_json().render();
            let parsed = mochy_json::parse(&wire).expect("wire format is valid JSON");
            let decoded = ShardPartial::from_json(&parsed).expect("round-trip decodes");
            assert_eq!(decoded, partial);
            for (a, b) in partial
                .counts
                .as_slice()
                .iter()
                .zip(decoded.counts.as_slice())
            {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn shard_partial_decoding_rejects_malformed_documents() {
        let h = figure2();
        let projected = project(&h);
        let good = count_sharded(&h, &projected, 2, 1).swap_remove(0).to_json();

        // Each mutation must produce a decode error, not a bogus partial.
        let drop_field = |key: &str| {
            let JsonValue::Object(fields) = good.clone() else {
                unreachable!("to_json renders an object")
            };
            JsonValue::Object(fields.into_iter().filter(|(k, _)| k != key).collect())
        };
        let set_field = |key: &str, value: JsonValue| {
            let JsonValue::Object(fields) = good.clone() else {
                unreachable!("to_json renders an object")
            };
            JsonValue::Object(
                fields
                    .into_iter()
                    .map(|(k, v)| if k == key { (k, value.clone()) } else { (k, v) })
                    .collect(),
            )
        };
        let counts_with = |value: f64| {
            let mut entries = vec![JsonValue::Number(0.0); NUM_MOTIFS];
            entries[3] = JsonValue::Number(value);
            JsonValue::Array(entries)
        };
        assert!(ShardPartial::from_json(&good).is_ok());
        let largest_exact = set_field("counts", counts_with(2f64.powi(53) - 1.0));
        assert!(ShardPartial::from_json(&largest_exact).is_ok());
        for bad in [
            drop_field("shard"),
            drop_field("counts"),
            drop_field("schema"),
            set_field("schema", JsonValue::String("mochy-shard-partial/1".into())),
            set_field("schema", JsonValue::Number(2.0)),
            set_field("counts", JsonValue::Array(vec![])),
            set_field(
                "counts",
                JsonValue::Array(vec![JsonValue::Number(f64::NAN); NUM_MOTIFS]),
            ),
            set_field("counts", counts_with(1.5)),
            set_field("counts", counts_with(-1.0)),
            set_field("counts", counts_with(2f64.powi(53))),
            set_field("counts", counts_with(1e300)),
            set_field("hyperwedges", JsonValue::Number(-1.0)),
            set_field("hyperwedges", JsonValue::Number(0.5)),
            set_field("hyperwedges", JsonValue::Number(2f64.powi(53))),
            set_field("edge_start", JsonValue::Number(10.0)),
            JsonValue::Null,
        ] {
            assert!(
                ShardPartial::from_json(&bad).is_err(),
                "malformed document decoded: {}",
                bad.render()
            );
        }
    }

    #[test]
    fn merge_partials_folds_shard_counts_in_order() {
        let h = random_hypergraph(3, 18, 24, 5);
        let projected = project(&h);
        let partials = count_sharded(&h, &projected, 2, 1);
        let (merged, hyperwedges) = merge_partials(&partials);
        let mut folded = MotifCounts::zero();
        for partial in &partials {
            folded.merge(&partial.counts);
        }
        assert_eq!(merged, folded);
        assert_eq!(merged, mochy_e(&h, &projected));
        assert_eq!(hyperwedges, projected.num_hyperwedges());
    }
}
