//! Mutable overlay over the projected graph, for streaming updates.
//!
//! The eager [`ProjectedGraph`](crate::ProjectedGraph) stores adjacency in
//! one immutable CSR — perfect for batch counting, unusable under hyperedge
//! churn. A [`ProjectionOverlay`] keeps the same logical adjacency mutable
//! without giving up the flat layout on the hot path:
//!
//! - a **CSR base** holds the adjacency as of the last compaction;
//! - per-row **delta vectors** record entries added since (`added`) and base
//!   entries masked out since (`removed`), both sorted by neighbour id;
//! - a **dead** flag per row tombstones fully removed hyperedges;
//! - when the deltas outgrow a configurable fraction of the base, the
//!   overlay **compacts**: the merged rows are rebuilt into a fresh flat
//!   [`Csr`] and the deltas reset, so long-running streams periodically
//!   return to the pure-CSR layout the batch kernels are tuned for.
//!
//! The overlay relies on one invariant provided by
//! `mochy_hypergraph::DynamicHypergraph`: **edge ids are monotone and never
//! reused**. Every id first seen after a compaction is strictly greater than
//! every id present in the base, so a merged row is always
//! `(base row minus removed) ++ added` — two sorted runs whose concatenation
//! is itself sorted. Neighbour iteration therefore never merges, and weight
//! lookup stays a pair of binary searches.

use mochy_hypergraph::{Csr, EdgeId};

use crate::projected::{ProjectedGraph, WeightedNeighbor};

/// Default minimum number of delta entries before a compaction is considered.
pub const DEFAULT_COMPACTION_MIN_DELTA: usize = 1024;

/// Default delta/base ratio beyond which [`ProjectionOverlay::maybe_compact`]
/// compacts.
pub const DEFAULT_COMPACTION_RATIO: f64 = 0.25;

/// A mutable projected-graph adjacency: CSR base plus per-row deltas, with
/// periodic compaction back into a flat [`Csr`].
#[derive(Debug, Clone)]
pub struct ProjectionOverlay {
    /// Adjacency as of the last compaction; row `e` sorted by neighbour id.
    base: Csr<WeightedNeighbor>,
    /// Entries added since the last compaction, sorted by neighbour id. All
    /// ids here are greater than every id in the same base row (monotone-id
    /// invariant), so `base minus removed` concatenated with `added` is the
    /// sorted merged row.
    added: Vec<Vec<WeightedNeighbor>>,
    /// Base entries masked out since the last compaction, sorted.
    removed: Vec<Vec<EdgeId>>,
    /// Tombstones for fully removed rows.
    dead: Vec<bool>,
    /// Current number of hyperwedges `|∧|` (maintained incrementally).
    num_hyperwedges: usize,
    /// Total `added` + `removed` entries across rows (compaction trigger).
    delta_entries: usize,
    /// Number of compactions performed so far.
    compactions: usize,
    /// Compact only once the deltas hold at least this many entries…
    compaction_min_delta: usize,
    /// …and exceed this fraction of the base entry count.
    compaction_ratio: f64,
}

impl Default for ProjectionOverlay {
    fn default() -> Self {
        Self::new()
    }
}

impl ProjectionOverlay {
    /// An empty overlay (no rows, no hyperwedges).
    pub fn new() -> Self {
        Self {
            base: Csr::new(),
            added: Vec::new(),
            removed: Vec::new(),
            dead: Vec::new(),
            num_hyperwedges: 0,
            delta_entries: 0,
            compactions: 0,
            compaction_min_delta: DEFAULT_COMPACTION_MIN_DELTA,
            compaction_ratio: DEFAULT_COMPACTION_RATIO,
        }
    }

    /// Seeds the overlay with a fully materialized projected graph: row `e`
    /// of the base is the neighbourhood of hyperedge `e`. The graph's CSR
    /// becomes the base as is, so only one copy of it is ever live.
    pub fn from_projected(projected: ProjectedGraph) -> Self {
        let num_hyperwedges = projected.num_hyperwedges();
        let base = projected.into_csr();
        let rows = base.num_rows();
        Self {
            base,
            added: vec![Vec::new(); rows],
            removed: vec![Vec::new(); rows],
            dead: vec![false; rows],
            num_hyperwedges,
            ..Self::new()
        }
    }

    /// Overrides the compaction trigger: compact when the deltas hold at
    /// least `min_delta` entries *and* more than `ratio` times the base
    /// entry count. `(1, 0.0)` compacts after every mutation (useful in
    /// tests); the defaults batch roughly a quarter of the base between
    /// compactions.
    pub fn with_compaction(mut self, min_delta: usize, ratio: f64) -> Self {
        self.compaction_min_delta = min_delta.max(1);
        self.compaction_ratio = ratio.max(0.0);
        self
    }

    /// Number of adjacency rows (live and dead); one per edge id ever seen.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.added.len()
    }

    /// Current number of hyperwedges `|∧|`.
    #[inline]
    pub fn num_hyperwedges(&self) -> usize {
        self.num_hyperwedges
    }

    /// Number of compactions performed so far.
    #[inline]
    pub fn compactions(&self) -> usize {
        self.compactions
    }

    /// Current number of uncompacted delta entries (added + removed).
    #[inline]
    pub fn delta_entries(&self) -> usize {
        self.delta_entries
    }

    /// Whether row `e` is live (known and not tombstoned).
    #[inline]
    pub fn is_live(&self, e: EdgeId) -> bool {
        self.dead.get(e as usize).is_some_and(|&d| !d)
    }

    fn base_row(&self, e: EdgeId) -> &[WeightedNeighbor] {
        if (e as usize) < self.base.num_rows() {
            self.base.row(e as usize)
        } else {
            &[]
        }
    }

    /// The degree of hyperedge `e` in the current adjacency.
    pub fn degree(&self, e: EdgeId) -> usize {
        if !self.is_live(e) {
            return 0;
        }
        let index = e as usize;
        self.base_row(e).len() - self.removed[index].len() + self.added[index].len()
    }

    /// The overlap `ω(∧_ij)`, or `None` when the pair is not currently
    /// adjacent (including when either edge is dead or unknown).
    pub fn weight(&self, i: EdgeId, j: EdgeId) -> Option<u32> {
        if !self.is_live(i) || !self.is_live(j) {
            return None;
        }
        let index = i as usize;
        if let Ok(position) = self.added[index].binary_search_by_key(&j, |&(id, _)| id) {
            return Some(self.added[index][position].1);
        }
        if self.removed[index].binary_search(&j).is_ok() {
            return None;
        }
        let base = self.base_row(i);
        base.binary_search_by_key(&j, |&(id, _)| id)
            .ok()
            .map(|position| base[position].1)
    }

    /// Writes the merged neighbourhood of `e` (sorted by neighbour id) into
    /// `out`, replacing its contents. Dead and unknown rows yield an empty
    /// neighbourhood.
    pub fn neighbors_into(&self, e: EdgeId, out: &mut Vec<WeightedNeighbor>) {
        out.clear();
        if !self.is_live(e) {
            return;
        }
        let index = e as usize;
        let removed = &self.removed[index];
        if removed.is_empty() {
            out.extend_from_slice(self.base_row(e));
        } else {
            // Merge-walk the sorted base row against the sorted mask.
            let mut mask = removed.iter().copied().peekable();
            for &(id, weight) in self.base_row(e) {
                while mask.peek().is_some_and(|&m| m < id) {
                    mask.next();
                }
                if mask.peek() == Some(&id) {
                    mask.next();
                    continue;
                }
                out.push((id, weight));
            }
        }
        // Monotone-id invariant: every added id exceeds every base id.
        debug_assert!(self.added[index]
            .first()
            .zip(out.last())
            .is_none_or(|(&(a, _), &(b, _))| a > b));
        out.extend_from_slice(&self.added[index]);
    }

    /// The merged neighbourhood of `e` as a fresh vector (convenience
    /// wrapper over [`ProjectionOverlay::neighbors_into`]).
    pub fn neighbors(&self, e: EdgeId) -> Vec<WeightedNeighbor> {
        let mut out = Vec::with_capacity(self.degree(e));
        self.neighbors_into(e, &mut out);
        out
    }

    fn ensure_rows(&mut self, rows: usize) {
        if rows > self.added.len() {
            self.added.resize_with(rows, Vec::new);
            self.removed.resize_with(rows, Vec::new);
            self.dead.resize(rows, false);
        }
    }

    /// Inserts the adjacency row of a freshly inserted hyperedge `e`:
    /// `neighbors` must be its full neighbourhood (sorted by id), and `e`
    /// must be a brand-new id, strictly greater than every id seen before —
    /// the [`mochy_hypergraph::DynamicHypergraph`] id contract.
    pub fn insert_row(&mut self, e: EdgeId, neighbors: &[WeightedNeighbor]) {
        let index = e as usize;
        assert!(
            index >= self.base.num_rows() && (index >= self.added.len() || !self.dead[index]),
            "edge ids must be fresh (monotone, never reused)"
        );
        self.ensure_rows(index + 1);
        debug_assert!(neighbors.windows(2).all(|w| w[0].0 < w[1].0));
        debug_assert!(self.added[index].is_empty());
        for &(j, weight) in neighbors {
            debug_assert!(self.is_live(j), "neighbour {j} of new edge {e} is dead");
            // `e` is the largest id in existence: pushing keeps row j sorted.
            self.added[j as usize].push((e, weight));
        }
        self.added[index] = neighbors.to_vec();
        self.num_hyperwedges += neighbors.len();
        self.delta_entries += 2 * neighbors.len();
    }

    /// Removes the adjacency row of hyperedge `e`, masking its entry out of
    /// every neighbour's row. `neighbors` must be `e`'s current merged
    /// neighbourhood (callers on the streaming hot path have just computed
    /// it for the count delta; taking it avoids a second merge-walk per
    /// removal). Returns `false` (and changes nothing) for dead or unknown
    /// rows.
    pub fn remove_row(&mut self, e: EdgeId, neighbors: &[WeightedNeighbor]) -> bool {
        if !self.is_live(e) {
            return false;
        }
        debug_assert_eq!(neighbors, self.neighbors(e), "stale neighbourhood");
        let index = e as usize;
        for &(j, _) in neighbors {
            let row = &mut self.added[j as usize];
            if let Ok(position) = row.binary_search_by_key(&e, |&(id, _)| id) {
                row.remove(position);
                self.delta_entries -= 1;
            } else {
                let mask = &mut self.removed[j as usize];
                let position = mask.binary_search(&e).unwrap_err();
                mask.insert(position, e);
                self.delta_entries += 1;
            }
        }
        self.num_hyperwedges -= neighbors.len();
        // The row itself: its added entries vanish from the deltas, its base
        // entries become masked by the tombstone.
        self.delta_entries -= self.added[index].len();
        self.delta_entries += self.base_row(e).len() - self.removed[index].len();
        self.added[index].clear();
        self.removed[index].clear();
        self.dead[index] = true;
        true
    }

    /// Compacts the overlay: rebuilds the base CSR from the merged rows
    /// (dead rows become empty) and clears every delta.
    pub fn compact(&mut self) {
        let rows = self.num_rows();
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0usize);
        let mut flat: Vec<WeightedNeighbor> = Vec::with_capacity(2 * self.num_hyperwedges);
        let mut row = Vec::new();
        for e in 0..rows {
            self.neighbors_into(e as EdgeId, &mut row);
            flat.extend_from_slice(&row);
            offsets.push(flat.len());
        }
        debug_assert_eq!(flat.len(), 2 * self.num_hyperwedges);
        self.base = Csr::from_parts(offsets, flat);
        for list in &mut self.added {
            list.clear();
        }
        for list in &mut self.removed {
            list.clear();
        }
        self.delta_entries = 0;
        self.compactions += 1;
    }

    /// Compacts when the deltas exceed both the configured minimum and the
    /// configured fraction of the base entry count. Returns whether a
    /// compaction ran.
    pub fn maybe_compact(&mut self) -> bool {
        let threshold = (self.base.num_entries() as f64 * self.compaction_ratio) as usize;
        if self.delta_entries >= self.compaction_min_delta && self.delta_entries > threshold {
            self.compact();
            true
        } else {
            false
        }
    }

    /// Iterator over every current hyperwedge `(i, j, w)` with `i < j`.
    /// Intended for tests and diagnostics, not the hot path.
    pub fn hyperwedges(&self) -> Vec<(EdgeId, EdgeId, u32)> {
        let mut wedges = Vec::with_capacity(self.num_hyperwedges);
        let mut row = Vec::new();
        for i in 0..self.num_rows() as EdgeId {
            self.neighbors_into(i, &mut row);
            wedges.extend(row.iter().filter(|&&(j, _)| i < j).map(|&(j, w)| (i, j, w)));
        }
        wedges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::projected::project;
    use mochy_hypergraph::{DynamicHypergraph, HypergraphBuilder};

    /// Applies the same random insert/remove script to an overlay (fed by a
    /// DynamicHypergraph) and to a naive mirror adjacency; every view must
    /// agree after every operation.
    fn churn(seed: u64, operations: usize, compact_each_step: bool) {
        // Simple deterministic LCG so this test needs no rand dev-dependency.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = move |bound: usize| -> usize {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as usize) % bound.max(1)
        };

        let mut hypergraph = DynamicHypergraph::new();
        let mut overlay = if compact_each_step {
            ProjectionOverlay::new().with_compaction(1, 0.0)
        } else {
            ProjectionOverlay::new()
        };
        let mut live: Vec<EdgeId> = Vec::new();

        for _ in 0..operations {
            let remove = !live.is_empty() && next(100) < 35;
            if remove {
                let victim = live.swap_remove(next(live.len()));
                let neighbors = overlay.neighbors(victim);
                assert!(overlay.remove_row(victim, &neighbors));
                assert!(hypergraph.remove_edge(victim));
            } else {
                let size = 2 + next(4);
                let members: Vec<u32> = (0..size).map(|_| next(18) as u32).collect();
                let e = hypergraph.insert_edge(members);
                let neighbors = hypergraph.neighborhood(e);
                overlay.insert_row(e, &neighbors);
                live.push(e);
            }
            if compact_each_step {
                overlay.maybe_compact();
            }

            // Cross-check against a from-scratch projection of the live
            // edges (ids relabelled by position).
            if let Ok(snapshot) = hypergraph.to_hypergraph() {
                let projected = project(&snapshot);
                let mut ids: Vec<EdgeId> = hypergraph.live_edge_ids().collect();
                ids.sort_unstable();
                assert_eq!(overlay.num_hyperwedges(), projected.num_hyperwedges());
                let mut row = Vec::new();
                for (position, &e) in ids.iter().enumerate() {
                    overlay.neighbors_into(e, &mut row);
                    let expected: Vec<WeightedNeighbor> = projected
                        .neighbors(position as EdgeId)
                        .iter()
                        .map(|&(j, w)| (ids[j as usize], w))
                        .collect();
                    assert_eq!(row, expected, "row {e}");
                    assert_eq!(overlay.degree(e), expected.len());
                    for &(j, w) in &expected {
                        assert_eq!(overlay.weight(e, j), Some(w));
                        assert_eq!(overlay.weight(j, e), Some(w));
                    }
                }
            } else {
                assert_eq!(overlay.num_hyperwedges(), 0);
            }
        }
    }

    #[test]
    fn random_churn_matches_from_scratch_projection() {
        for seed in 0..4u64 {
            churn(seed, 120, false);
        }
    }

    #[test]
    fn random_churn_with_forced_compaction() {
        churn(9, 120, true);
    }

    #[test]
    fn figure2_overlay_matches_projection() {
        let h = HypergraphBuilder::new()
            .with_edge([0u32, 1, 2])
            .with_edge([0, 3, 1])
            .with_edge([4, 5, 0])
            .with_edge([6, 7, 2])
            .build()
            .unwrap();
        let overlay = ProjectionOverlay::from_projected(project(&h));
        assert_eq!(overlay.num_hyperwedges(), 4);
        assert_eq!(overlay.weight(0, 1), Some(2));
        assert_eq!(overlay.weight(1, 3), None);
        assert_eq!(overlay.neighbors(0), vec![(1, 2), (2, 1), (3, 1)]);
        assert_eq!(overlay.degree(3), 1);
    }

    #[test]
    fn remove_then_compact_clears_deltas() {
        let h = HypergraphBuilder::new()
            .with_edge([0u32, 1])
            .with_edge([1u32, 2])
            .with_edge([2u32, 3])
            .build()
            .unwrap();
        let mut overlay = ProjectionOverlay::from_projected(project(&h));
        let neighbors = overlay.neighbors(1);
        assert!(overlay.remove_row(1, &neighbors));
        assert!(overlay.delta_entries() > 0);
        assert_eq!(overlay.num_hyperwedges(), 0);
        assert_eq!(overlay.neighbors(0), Vec::<WeightedNeighbor>::new());
        overlay.compact();
        assert_eq!(overlay.delta_entries(), 0);
        assert_eq!(overlay.compactions(), 1);
        assert!(!overlay.is_live(1));
        assert!(overlay.is_live(0));
        assert_eq!(overlay.weight(0, 1), None);
        assert!(!overlay.remove_row(1, &[]), "double removal is a no-op");
    }

    #[test]
    fn hyperwedge_listing_is_consistent() {
        let mut hypergraph = DynamicHypergraph::new();
        let mut overlay = ProjectionOverlay::new();
        for members in [vec![0u32, 1, 2], vec![0, 3], vec![1, 3], vec![4, 5]] {
            let e = hypergraph.insert_edge(members);
            let neighbors = hypergraph.neighborhood(e);
            overlay.insert_row(e, &neighbors);
        }
        let wedges = overlay.hyperwedges();
        assert_eq!(wedges.len(), overlay.num_hyperwedges());
        assert!(wedges.contains(&(0, 1, 1)));
        assert!(wedges.contains(&(1, 2, 1)));
    }
}
