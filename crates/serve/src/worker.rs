//! Worker-side state for distributed shard counting.
//!
//! A worker boots from a single shard of a `MOCHYSHD` family: it reads the
//! manifest, then loads **only its primary shard's edge span** via
//! [`load_shard_slice`] — cold-start I/O proportional to one slice, not the
//! dataset. It then answers `POST /v1/internal/count-shard` for *any* shard
//! of the family (the coordinator reassigns shards of dead workers to
//! survivors, so every worker must be able to serve every shard).
//!
//! # Why the answer is bit-identical to unsharded MoCHy-E
//!
//! The shard partial is computed by
//! [`mochy_core::shard::count_shard_partial`]: one MoCHy-E pass over the
//! centres in the shard's edge span, on the projection of the **full**
//! hypergraph. MoCHy-E attributes every instance to exactly one centre, so
//! the partials of all shards add up to the unsharded count. Every
//! contribution is an exact `+1.0` in an `f64` accumulator, and real-world
//! totals sit far below 2^53, so no grouping of the work (by shard, by
//! worker, by thread) can change a bit of the merged counts. The first
//! request therefore lazily assembles the full hypergraph from the family's
//! slices into a registry [`Snapshot`], whose projection is built once and
//! cached exactly as a standalone dataset's is; no request copies or
//! projects a slice. The assembled edge order is the manifest order, i.e.
//! exactly the unsharded snapshot's order.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

use mochy_core::shard::{count_shard_partial, ShardPartial};
use mochy_hypergraph::{
    load_shard_slice, load_sharded, manifest_stem, read_manifest_file, ShardError, ShardManifest,
};

use crate::registry::Snapshot;

/// Everything a `--worker` instance knows about its shard family.
pub struct WorkerState {
    dataset: String,
    stem: PathBuf,
    manifest: ShardManifest,
    primary_shard: usize,
    /// The lazily-assembled full dataset every shard's count runs on.
    full: Mutex<Option<Arc<Snapshot>>>,
}

impl std::fmt::Debug for WorkerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerState")
            .field("dataset", &self.dataset)
            .field("stem", &self.stem)
            .field("primary_shard", &self.primary_shard)
            .field("num_shards", &self.manifest.num_shards())
            .field("assembled", &self.is_assembled())
            .finish()
    }
}

impl WorkerState {
    /// Boots a worker for `dataset` from `manifest_path`, eagerly loading
    /// (and fully validating) only the `primary_shard` slice.
    ///
    /// The slice itself is not retained: counting always needs the full
    /// hypergraph (instances centred in a shard reach into other shards),
    /// so the load here is a cheap boot-time proof that this worker's shard
    /// file is present and intact before the coordinator is told the worker
    /// is healthy.
    pub fn boot(
        dataset: impl Into<String>,
        manifest_path: &Path,
        primary_shard: usize,
    ) -> Result<Self, ShardError> {
        let manifest = read_manifest_file(manifest_path)?;
        let stem = manifest_stem(manifest_path)?;
        // Validates checksum, edge span, and node universe of the one slice.
        let _slice = load_shard_slice(&stem, &manifest, primary_shard)?;
        Ok(Self {
            dataset: dataset.into(),
            stem,
            manifest,
            primary_shard,
            full: Mutex::new(None),
        })
    }

    /// The dataset name this worker serves.
    pub fn dataset(&self) -> &str {
        &self.dataset
    }

    /// The shard this worker booted from.
    pub fn primary_shard(&self) -> usize {
        self.primary_shard
    }

    /// The number of shards in the family.
    pub fn num_shards(&self) -> usize {
        self.manifest.num_shards()
    }

    /// The shard-family manifest.
    pub fn manifest(&self) -> &ShardManifest {
        &self.manifest
    }

    /// Whether the full hypergraph has been assembled yet.
    pub fn is_assembled(&self) -> bool {
        self.full
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .is_some()
    }

    /// Computes the [`ShardPartial`] for `shard` with `threads` threads.
    ///
    /// The first call assembles the full hypergraph from the family's shard
    /// files; the first count projects it ([`Snapshot::projected`]). Both
    /// are cached, so subsequent calls (for any shard) reuse them. Assembly
    /// runs outside the state lock; concurrent first requests may each
    /// load, but the first to publish wins and the rest adopt its snapshot,
    /// whose projection is then built once while the others wait for it.
    pub fn count_shard(&self, shard: usize, threads: usize) -> Result<ShardPartial, String> {
        let full = self.assemble()?;
        let (Some(hypergraph), Some(projected)) =
            (full.hypergraph.as_deref(), full.projected(threads))
        else {
            return Err("assembling shard family: it holds no hyperedges".to_string());
        };
        count_shard_partial(
            hypergraph,
            projected,
            self.manifest.num_shards(),
            shard,
            threads,
        )
        .ok_or_else(|| {
            format!(
                "shard {shard} out of range for a {}-shard family",
                self.manifest.num_shards()
            )
        })
    }

    /// The cached full dataset, if one has been published.
    fn cached(&self) -> Option<Arc<Snapshot>> {
        self.full
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .map(Arc::clone)
    }

    fn assemble(&self) -> Result<Arc<Snapshot>, String> {
        if let Some(full) = self.cached() {
            return Ok(full);
        }
        // Load with no lock held — this is seconds of IO on a large family,
        // and a held guard would stall health checks. If two first requests
        // race, both load, the first to publish wins and the loser adopts
        // the published copy.
        let sharded = load_sharded(&self.stem)
            .map_err(|error| format!("assembling shard family: {error}"))?;
        let hypergraph = sharded
            .assemble()
            .map_err(|error| format!("assembling shard family: {error}"))?;
        let built = Arc::new(Snapshot::new(0, Some(Arc::new(hypergraph))));
        let mut slot = self.full.lock().unwrap_or_else(PoisonError::into_inner);
        Ok(Arc::clone(slot.get_or_insert(built)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mochy_core::shard::{count_sharded, merge_partials};
    use mochy_core::{mochy_e, MotifCounts};
    use mochy_hypergraph::{write_shards, Hypergraph, HypergraphBuilder};
    use mochy_projection::project;

    fn sample_hypergraph() -> Hypergraph {
        let mut builder = HypergraphBuilder::new();
        for e in 0u32..40 {
            let base = e % 11;
            builder.add_edge(vec![base, base + 1, (base * 3) % 13, (e / 4) % 7 + 2]);
        }
        builder.build().expect("sample hypergraph builds")
    }

    fn temp_stem(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mochy-worker-{tag}-{}", std::process::id()))
    }

    #[test]
    fn a_worker_counts_every_shard_bit_identically() {
        let h = sample_hypergraph();
        let stem = temp_stem("counts");
        write_shards(&h, &stem, 3).expect("write shards");

        let manifest_path = mochy_hypergraph::manifest_file_path(&stem);
        let state = WorkerState::boot("sample", &manifest_path, 1).expect("boot worker");
        assert_eq!(state.dataset(), "sample");
        assert_eq!(state.primary_shard(), 1);
        assert_eq!(state.num_shards(), 3);
        assert!(!state.is_assembled());

        // Reference: in-process sharded counting over the original graph.
        let projected = project(&h);
        let expected = count_sharded(&h, &projected, 3, 1);

        let mut partials = Vec::new();
        for shard in 0..3 {
            partials.push(state.count_shard(shard, 1).expect("count shard"));
        }
        assert!(state.is_assembled());
        let spans = state.manifest().boundaries();
        for (shard, (ours, reference)) in partials.iter().zip(expected.iter()).enumerate() {
            assert_eq!(ours.shard, shard);
            assert_eq!(ours.edges, spans[shard]);
            assert_eq!(ours.to_json().render(), reference.to_json().render());
        }

        // And the merge equals plain MoCHy-E.
        let (merged, hyperwedges) = merge_partials(&partials);
        let direct: MotifCounts = mochy_e(&h, &projected);
        assert_eq!(merged.as_slice(), direct.as_slice());
        assert_eq!(hyperwedges, projected.num_hyperwedges());

        let _ = std::fs::remove_file(&manifest_path);
        for shard in 0..3 {
            let _ = std::fs::remove_file(mochy_hypergraph::shard_file_path(&stem, shard));
        }
    }

    #[test]
    fn out_of_range_shards_and_broken_families_are_errors() {
        let h = sample_hypergraph();
        let stem = temp_stem("errors");
        write_shards(&h, &stem, 2).expect("write shards");
        let manifest_path = mochy_hypergraph::manifest_file_path(&stem);

        assert!(WorkerState::boot("sample", &manifest_path, 9).is_err());

        let state = WorkerState::boot("sample", &manifest_path, 0).expect("boot worker");
        let error = state.count_shard(7, 1).expect_err("out of range");
        assert!(error.contains("out of range"), "{error}");

        // Deleting a sibling slice breaks lazy assembly with a typed message.
        let fresh = WorkerState::boot("sample", &manifest_path, 0).expect("boot worker");
        let _ = std::fs::remove_file(mochy_hypergraph::shard_file_path(&stem, 1));
        let error = fresh.count_shard(0, 1).expect_err("missing sibling slice");
        assert!(error.contains("assembling shard family"), "{error}");

        let _ = std::fs::remove_file(&manifest_path);
        let _ = std::fs::remove_file(mochy_hypergraph::shard_file_path(&stem, 0));
    }
}
