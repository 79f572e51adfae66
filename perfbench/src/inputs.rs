//! Seeded inputs: datasets, their files, and request seeds.

use std::path::{Path, PathBuf};

use mochy_core::MotifCounts;
use mochy_datagen::{generate, DomainKind, GeneratorConfig};
use mochy_hypergraph::{Hypergraph, HypergraphBuilder, NodeId};
use mochy_projection::{project, ProjectedGraph};

/// SplitMix64: a small, seedable generator for the benchmark's own choices
/// (request seeds, edge members, shuffles).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a purpose `tag`, so that different
    /// purposes draw independent streams from one run seed.
    pub fn new(seed: u64, tag: &str) -> Self {
        let mut state = seed ^ 0x6A09_E667_F3BC_C909;
        for byte in tag.bytes() {
            state = (state ^ u64::from(byte)).wrapping_mul(0x100_0000_01B3);
        }
        let mut rng = Rng(state);
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// A request seed: JSON numbers are exact below 2^53.
    pub fn request_seed(&mut self) -> u64 {
        self.next_u64() >> 12
    }
}

/// A synthetic dataset: the union of `components` generated hypergraphs of
/// one domain on disjoint node ranges.
///
/// The shape is fixed by the spec: component `c` is always generated from
/// generator seed `c`, so every run seed asks the engine for the same
/// amount of work. The run seed draws the node labelling and the hyperedge
/// order, and with them memory layout, projection order and shard
/// boundaries.
#[derive(Debug, Clone, Copy)]
pub struct DatasetSpec {
    /// Domain of every component.
    pub kind: DomainKind,
    /// Number of components.
    pub components: usize,
    /// Nodes per component.
    pub nodes: usize,
    /// Hyperedges per component.
    pub edges: usize,
}

impl DatasetSpec {
    /// Generates the dataset for `seed`.
    pub fn generate(&self, seed: u64) -> Hypergraph {
        let mut edges: Vec<Vec<NodeId>> = Vec::with_capacity(self.components * self.edges);
        let mut offset: NodeId = 0;
        for component in 0..self.components {
            let config = GeneratorConfig::new(self.kind, self.nodes, self.edges, component as u64);
            let component = generate(&config);
            for e in component.edge_ids() {
                edges.push(component.edge(e).iter().map(|&v| v + offset).collect());
            }
            offset += component.num_nodes() as NodeId;
        }
        let mut rng = Rng::new(seed, self.kind.short_name());
        let mut labels: Vec<NodeId> = (0..offset).collect();
        shuffle(&mut labels, &mut rng);
        for edge in &mut edges {
            for node in edge.iter_mut() {
                *node = labels[*node as usize];
            }
        }
        shuffle(&mut edges, &mut rng);
        let mut builder = HypergraphBuilder::with_capacity(edges.len());
        builder.extend_edges(edges);
        builder.build().expect("generated components are non-empty")
    }

    /// One line describing the spec.
    pub fn describe(&self) -> String {
        format!(
            "{} x {} ({} nodes, {} edges)",
            self.components,
            self.kind.short_name(),
            self.nodes,
            self.edges
        )
    }
}

/// A dataset written as a `.mochy` snapshot and read back. Every reference
/// answer is computed on `hypergraph`, the copy read back from the file the
/// server loads.
#[derive(Debug)]
pub struct DatasetFile {
    /// Dataset name on the server.
    pub name: String,
    /// The snapshot file.
    pub path: PathBuf,
    /// File size.
    pub bytes: u64,
    /// The hypergraph read back from `path`.
    pub hypergraph: Hypergraph,
}

impl DatasetFile {
    /// Writes `hypergraph` to `dir/name.mochy` and reads it back.
    pub fn write(dir: &Path, name: &str, hypergraph: &Hypergraph) -> Result<Self, String> {
        let path = dir.join(format!("{name}.mochy"));
        mochy_hypergraph::write_snapshot_file(hypergraph, &path)
            .map_err(|error| format!("writing {}: {error}", path.display()))?;
        let bytes = std::fs::metadata(&path)
            .map_err(|error| format!("{}: {error}", path.display()))?
            .len();
        let hypergraph = mochy_hypergraph::read_snapshot_file(&path)
            .map_err(|error| format!("reading back {}: {error}", path.display()))?;
        Ok(Self {
            name: name.to_string(),
            path,
            bytes,
            hypergraph,
        })
    }

    /// The `--load NAME=PATH` argument pair.
    pub fn load_args(&self) -> [String; 2] {
        [
            "--load".to_string(),
            format!("{}={}", self.name, self.path.display()),
        ]
    }
}

/// The exact answer for one hypergraph: MoCHy-E on its projection.
#[derive(Debug, Clone)]
pub struct Reference {
    /// The 26 exact counts.
    pub counts: MotifCounts,
    /// Hyperwedges of the projection.
    pub hyperwedges: u64,
    /// Hyperwedge pairs MoCHy-E visits: Σ C(deg, 2) over the projection.
    pub pairs: u64,
}

impl Reference {
    /// Projects `hypergraph` and counts it exactly.
    pub fn compute(hypergraph: &Hypergraph) -> Self {
        let projected = project(hypergraph);
        Self {
            counts: mochy_core::mochy_e(hypergraph, &projected),
            hyperwedges: projected.num_hyperwedges() as u64,
            pairs: wedge_pairs(&projected),
        }
    }

    /// Total instances.
    pub fn instances(&self) -> f64 {
        self.counts.total()
    }
}

/// Σ C(deg, 2) over the projected graph: the hyperwedge pairs MoCHy-E
/// enumerates.
fn wedge_pairs(projected: &ProjectedGraph) -> u64 {
    projected
        .degrees()
        .iter()
        .map(|&d| (d as u64) * (d as u64).saturating_sub(1) / 2)
        .sum()
}

/// Fisher-Yates shuffle.
fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// A hyperedge of 2 to 4 distinct nodes drawn from `0..num_nodes`.
pub fn random_edge(rng: &mut Rng, num_nodes: usize) -> Vec<NodeId> {
    let size = 2 + rng.below(3) as usize;
    let mut members: Vec<NodeId> = Vec::with_capacity(size);
    while members.len() < size {
        let node = rng.below(num_nodes as u64) as NodeId;
        if !members.contains(&node) {
            members.push(node);
        }
    }
    members.sort_unstable();
    members
}

/// `hypergraph` with `extra` appended as its last hyperedge.
pub fn with_edge(hypergraph: &Hypergraph, extra: &[NodeId]) -> Hypergraph {
    let mut builder = HypergraphBuilder::with_capacity(hypergraph.num_edges() + 1);
    for e in hypergraph.edge_ids() {
        builder.add_edge(hypergraph.edge(e).iter().copied());
    }
    builder.add_edge(extra.iter().copied());
    builder.build().expect("a non-empty hypergraph")
}

/// A work directory inside the current directory, removed on drop.
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `.perfbench/work/<tag>-<pid>`.
    pub fn create(tag: &str) -> Result<Self, String> {
        let path = PathBuf::from(".perfbench")
            .join("work")
            .join(format!("{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&path)
            .map_err(|error| format!("creating {}: {error}", path.display()))?;
        Ok(Self(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}
