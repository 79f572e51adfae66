//! The traced run: replays a workload's generated inputs through each
//! layer's public functions, one span per call, and turns the spans into
//! the per-layer metrics.
//!
//! Every workload reports every per-layer metric. A layer its traffic does
//! not reach is replayed on the workload's own datasets by a probe root
//! (`probe.*`), so each number describes that layer on this workload's
//! inputs.

use std::path::{Path, PathBuf};
use std::time::Duration;

use mochy_core::shard::{count_shard_partial, merge_partials, ShardPartial};
use mochy_core::{mochy_a_plus_parallel, MotifCounts, StreamConfig, StreamingEngine};
use mochy_hypergraph::{
    load_shard_slice, load_sharded_manifest, manifest_file_path, read_manifest_file, EdgeId,
    Hypergraph, NodeId,
};
use mochy_projection::{project, ProjectedGraph};

use crate::http::Client;
use crate::inputs::{random_edge, Reference, Rng};
use crate::load::Tally;
use crate::procs::{ServerProc, Topology};
use crate::stats::{median, summarize};
use crate::trace::{covered, Tracer};
use crate::Outcome;

/// Shards of every family the benchmark writes.
pub const SHARDS: usize = 4;
/// Workers of every fan-out topology; worker `w` serves shards `w`, `w + 2`.
pub const WORKERS: usize = 2;
/// Repetitions of a probe, so a probe metric is a median.
const PROBE_REPS: usize = 5;
/// Seeded insert/remove pairs a streaming probe replays.
const PROBE_PAIRS: usize = 8;
/// Fan-out requests the HTTP fan-out probe sends.
const FANOUT_PROBES: usize = 6;

/// The datasets whose layers a workload's traced run measures.
pub struct TraceSet<'a> {
    /// The snapshot files the workload's servers load.
    pub files: Vec<PathBuf>,
    /// Their total size.
    pub bytes: u64,
    /// The shard-family manifest of `exact`.
    pub manifest: PathBuf,
    /// The dataset MoCHy-E and the shard layer run on.
    pub exact: &'a Hypergraph,
    /// Its projection.
    pub exact_projection: &'a ProjectedGraph,
    /// Its exact answer.
    pub exact_reference: &'a Reference,
    /// The dataset projection, sampling and streaming run on.
    pub approx: &'a Hypergraph,
    /// Its exact answer.
    pub approx_reference: &'a Reference,
    /// Samples per MoCHy-A+ request.
    pub samples: usize,
}

/// The span recorder plus the replays of each layer call.
pub struct Replay {
    /// All spans of the traced run.
    pub tracer: Tracer,
    /// Per replayed request: HTTP latency minus the engine time of its
    /// replay, in milliseconds.
    pub serve_self_ms: Vec<f64>,
    /// Rendered size of every replayed shard partial, summed.
    pub partial_bytes: usize,
    /// Relative errors of MoCHy-A+ answers against exact counts.
    pub rel_errs: Vec<f64>,
    /// Samples drawn by replayed MoCHy-A+ calls.
    pub samples: usize,
}

fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

impl Replay {
    /// An empty replay.
    pub fn new() -> Self {
        Self {
            tracer: Tracer::new(),
            serve_self_ms: Vec::new(),
            partial_bytes: 0,
            rel_errs: Vec::new(),
            samples: 0,
        }
    }

    /// Engine time of the last root: the time its direct children cover.
    fn last_root_engine_ms(&self) -> f64 {
        let spans = self.tracer.spans();
        let root = spans
            .iter()
            .rev()
            .find(|span| span.parent.is_none())
            .expect("a root was recorded");
        let children: Vec<(u64, u64)> = self
            .tracer
            .children(root.id)
            .map(|span| (span.start, span.end))
            .collect();
        ms(covered(&children, root.start, root.end))
    }

    /// Records a replayed request's serving overhead.
    pub fn serve_self(&mut self, latency_ms: f64, engine_ms: f64) {
        self.serve_self_ms.push(latency_ms - engine_ms);
    }

    /// A request the server answered without running the engine.
    pub fn no_engine(&mut self, root: &str, latency_ms: f64) {
        self.tracer.root(root, |_| ());
        self.serve_self(latency_ms, 0.0);
    }

    /// `POST /v1/count` with MoCHy-E: project, then count. Returns the
    /// counts and the engine time.
    pub fn exact(&mut self, root: &str, hypergraph: &Hypergraph) -> (MotifCounts, f64) {
        let counts = self.tracer.root(root, |t| {
            let projected = t.span("projection.project.exact", |_| project(hypergraph));
            t.span("core.exact.count", |_| {
                mochy_core::mochy_e(hypergraph, &projected)
            })
        });
        (counts, self.last_root_engine_ms())
    }

    /// `POST /v1/count` with MoCHy-A+ at one thread: project, then sample.
    pub fn approx(
        &mut self,
        root: &str,
        hypergraph: &Hypergraph,
        samples: usize,
        seed: u64,
    ) -> (MotifCounts, f64) {
        let counts = self.tracer.root(root, |t| {
            let projected = t.span("projection.project", |_| project(hypergraph));
            t.span("core.sample.count", |_| {
                mochy_a_plus_parallel(hypergraph, &projected, samples, 1, seed)
            })
        });
        self.samples += samples;
        (counts, self.last_root_engine_ms())
    }

    /// The streaming writer's bootstrap from a snapshot.
    pub fn bootstrap(&mut self, hypergraph: &Hypergraph) -> StreamingEngine {
        self.tracer.root("probe.bootstrap", |t| {
            t.span("core.streaming.bootstrap", |_| {
                StreamingEngine::from_hypergraph(hypergraph, StreamConfig::default())
            })
        })
    }

    /// One hyperedge insertion into the streaming writer.
    pub fn insert(
        &mut self,
        root: &str,
        stream: &mut StreamingEngine,
        edge: &[NodeId],
    ) -> (EdgeId, f64) {
        let id = self.tracer.root(root, |t| {
            t.span("core.streaming.insert", |_| {
                stream.insert(edge.iter().copied())
            })
        });
        (id, self.last_root_engine_ms())
    }

    /// One hyperedge removal from the streaming writer.
    pub fn remove(&mut self, root: &str, stream: &mut StreamingEngine, id: EdgeId) -> (bool, f64) {
        let removed = self.tracer.root(root, |t| {
            t.span("core.streaming.remove", |_| stream.remove(id))
        });
        (removed, self.last_root_engine_ms())
    }

    /// One fan-out count: each worker computes and encodes its shards in
    /// turn, then the coordinator decodes and merges every partial. Returns
    /// the merged counts and the engine time on the critical path (the
    /// slowest worker plus decoding and merging).
    pub fn fanout(
        &mut self,
        root: &str,
        hypergraph: &Hypergraph,
        projected: &ProjectedGraph,
    ) -> Result<(MotifCounts, usize, f64), String> {
        let mut bytes = 0usize;
        let outcome = self.tracer.root(root, |t| -> Result<_, String> {
            let mut wire: Vec<(usize, String)> = Vec::new();
            for worker in 0..WORKERS {
                t.span(
                    &format!("serve.worker.{worker}"),
                    |t| -> Result<(), String> {
                        for shard in (worker..SHARDS).step_by(WORKERS) {
                            let partial = t
                                .span(&format!("core.shard.partial.{shard}"), |_| {
                                    count_shard_partial(hypergraph, projected, SHARDS, shard, 1)
                                })
                                .ok_or(format!("no shard {shard}"))?;
                            let text = t.span("core.shard.encode", |_| partial.to_json().render());
                            bytes += text.len();
                            wire.push((shard, text));
                        }
                        Ok(())
                    },
                )?;
            }
            wire.sort_by_key(|(shard, _)| *shard);
            let mut partials = Vec::with_capacity(SHARDS);
            for (_, text) in &wire {
                let partial = t.span("core.shard.decode", |_| {
                    mochy_json::parse(text).and_then(|value| ShardPartial::from_json(&value))
                })?;
                partials.push(partial);
            }
            Ok(t.span("core.shard.merge", |_| merge_partials(&partials)))
        })?;
        self.partial_bytes += bytes;
        let root_id = self
            .tracer
            .spans()
            .iter()
            .rev()
            .find(|span| span.parent.is_none())
            .map(|span| span.id)
            .expect("a root was recorded");
        let mut slowest_worker = 0u64;
        let mut rest = 0u64;
        for child in self.tracer.children(root_id) {
            if child.name.starts_with("serve.worker.") {
                slowest_worker = slowest_worker.max(child.duration());
            } else {
                rest += child.duration();
            }
        }
        Ok((outcome.0, outcome.1, ms(slowest_worker + rest)))
    }

    /// Loads each server file `PROBE_REPS` times.
    fn probe_snapshot_reads(&mut self, files: &[PathBuf]) -> Result<(), String> {
        for _ in 0..PROBE_REPS {
            self.tracer.root("probe.load", |t| -> Result<(), String> {
                for file in files {
                    t.span("hypergraph.snapshot_read", |_| {
                        mochy_hypergraph::read_snapshot_file(file)
                    })
                    .map_err(|error| format!("{}: {error}", file.display()))?;
                }
                Ok(())
            })?;
        }
        Ok(())
    }

    /// Reads each shard slice, and assembles the family, `PROBE_REPS` times.
    fn probe_shard_reads(&mut self, manifest_path: &Path) -> Result<(), String> {
        let manifest = read_manifest_file(manifest_path).map_err(|error| error.to_string())?;
        let stem = mochy_hypergraph::manifest_stem(manifest_path).map_err(|e| e.to_string())?;
        for _ in 0..PROBE_REPS {
            self.tracer
                .root("probe.shards", |t| -> Result<(), String> {
                    for shard in 0..manifest.num_shards() {
                        t.span("hypergraph.shard_slice_read", |_| {
                            load_shard_slice(&stem, &manifest, shard)
                        })
                        .map_err(|error| error.to_string())?;
                    }
                    t.span("hypergraph.assemble", |t| -> Result<Hypergraph, String> {
                        let family = t
                            .span("hypergraph.load_sharded_manifest", |_| {
                                load_sharded_manifest(manifest_path)
                            })
                            .map_err(|error| error.to_string())?;
                        t.span("hypergraph.assemble_family", |_| family.assemble())
                            .map_err(|error| error.to_string())
                    })?;
                    Ok(())
                })?;
        }
        Ok(())
    }

    fn has(&self, name: &str) -> bool {
        self.tracer.spans().iter().any(|span| span.name == name)
    }

    /// Replays, on the workload's own datasets, every layer its traffic
    /// replay did not reach, and checks the answers against the references.
    pub fn probe_unreached(
        &mut self,
        set: &TraceSet,
        seed: u64,
        out: &mut Outcome,
    ) -> Result<(), String> {
        self.probe_snapshot_reads(&set.files)?;
        self.probe_shard_reads(&set.manifest)?;
        let mut rng = Rng::new(seed, "probe");
        if !self.has("core.exact.count") {
            for _ in 0..PROBE_REPS {
                let (counts, _) = self.exact("probe.exact", set.exact);
                out.check(
                    "probe MoCHy-E",
                    same_counts(&counts, &set.exact_reference.counts),
                );
            }
        }
        if !self.has("core.sample.count") {
            for _ in 0..PROBE_REPS {
                let (estimate, _) =
                    self.approx("probe.sample", set.approx, set.samples, rng.request_seed());
                self.rel_errs.push(crate::oracle::rel_err(
                    estimate.as_slice(),
                    set.approx_reference.counts.as_slice(),
                ));
            }
        }
        if !self.has("core.streaming.bootstrap") {
            let mut stream = self.bootstrap(set.approx);
            for _ in 1..3 {
                self.bootstrap(set.approx);
            }
            let before = stream.counts().total();
            for _ in 0..PROBE_PAIRS {
                let edge = random_edge(&mut rng, set.approx.num_nodes());
                let (id, _) = self.insert("probe.insert", &mut stream, &edge);
                let (removed, _) = self.remove("probe.remove", &mut stream, id);
                out.check(
                    "probe streaming pair",
                    if removed && stream.counts().total() == before {
                        Ok(())
                    } else {
                        Err("a net-zero pair changed the total".to_string())
                    },
                );
            }
        }
        if !self.has("core.shard.merge") {
            for _ in 0..3 {
                let (counts, _, _) =
                    self.fanout("probe.fanout", set.exact, set.exact_projection)?;
                out.check(
                    "probe fan-out merge",
                    same_counts(&counts, &set.exact_reference.counts),
                );
            }
        }
        Ok(())
    }
}

/// Bit-identical counts.
pub fn same_counts(got: &MotifCounts, want: &MotifCounts) -> Result<(), String> {
    let same = got
        .as_slice()
        .iter()
        .zip(want.as_slice())
        .all(|(a, b)| a.to_bits() == b.to_bits());
    if same {
        Ok(())
    } else {
        Err(format!(
            "counts {:?} differ from the reference",
            got.as_slice()
        ))
    }
}

/// A coordinator and its workers over the shard family at `manifest`.
pub fn boot_fanout(server: &Path, name: &str, manifest: &Path) -> Result<Topology, String> {
    let mut workers = Vec::with_capacity(WORKERS);
    for worker in 0..WORKERS {
        let spec = format!("{name}={}:{worker}", manifest.display());
        workers.push(ServerProc::spawn(
            server,
            "worker",
            &["--worker".to_string(), spec],
        )?);
    }
    let peers: Vec<&str> = workers.iter().map(|proc| proc.addr.as_str()).collect();
    let coordinator = ServerProc::spawn(
        server,
        "coordinator",
        &[
            "--coordinator".to_string(),
            format!("{name}={}", manifest.display()),
            "--peers".to_string(),
            peers.join(","),
        ],
    )?;
    let mut procs = vec![coordinator];
    procs.extend(workers);
    Ok(Topology { procs })
}

/// Writes the `SHARDS`-way family of `hypergraph` under `dir` and returns
/// its manifest path.
pub fn write_family(dir: &Path, name: &str, hypergraph: &Hypergraph) -> Result<PathBuf, String> {
    let stem = dir.join(name);
    mochy_hypergraph::write_shards(hypergraph, &stem, SHARDS)
        .map_err(|error| format!("writing the {name} shard family: {error}"))?;
    Ok(manifest_file_path(&stem))
}

/// Times the fan-out topology over HTTP: `FANOUT_PROBES` counts through the
/// coordinator, each followed by the same shards requested straight from
/// each worker in the coordinator's order (worker `w` serves shards `w` and
/// `w + 2`, as the coordinator assigns them). Returns the direct count-shard
/// latencies and, per probe, the coordinator's latency minus the slowest
/// worker's serial shard time.
pub fn probe_fanout_http(
    topology: &Topology,
    name: &str,
    reference: &Reference,
    seed: u64,
    out: &mut Outcome,
) -> (Vec<f64>, Vec<f64>) {
    let mut rng = Rng::new(seed, "fanout-probe");
    let mut coordinator = Client::new(topology.front());
    let expected = crate::oracle::Expected {
        counts: reference.counts.as_slice().to_vec(),
        num_hyperwedges: reference.hyperwedges,
        samples_drawn: None,
    };
    let mut shard_ms = Vec::new();
    let mut beyond_workers = Vec::new();
    // The first count makes the workers assemble and project the family.
    for probe in 0..=FANOUT_PROBES {
        let request_seed = rng.request_seed();
        let body = format!(
            "{{\"dataset\":\"{name}\",\"method\":\"mochy-e\",\"threads\":1,\"seed\":{request_seed}}}"
        );
        let (answer, latency) = crate::load::timed(|| coordinator.post("/v1/count", &body));
        let checked = answer.and_then(|response| {
            crate::oracle::check_count(&response.body, request_seed, &expected).map(|_| ())
        });
        out.check("fan-out probe", checked);
        if probe == 0 {
            continue;
        }
        let mut slowest = 0.0f64;
        for (worker, proc) in topology.procs[1..].iter().enumerate() {
            // One connection per worker visit, so at most 2 are open.
            let mut client = Client::new(&proc.addr);
            let mut serial = 0.0;
            for shard in (worker..SHARDS).step_by(WORKERS) {
                let body = format!("{{\"dataset\":\"{name}\",\"shard\":{shard},\"threads\":1}}");
                let (answer, took) =
                    crate::load::timed(|| client.post("/v1/internal/count-shard", &body));
                let checked = answer.and_then(|response| {
                    if response.status == 200 {
                        Ok(())
                    } else {
                        Err(format!("status {}", response.status))
                    }
                });
                out.check("count-shard probe", checked);
                let took = as_ms(took);
                shard_ms.push(took);
                serial += took;
            }
            slowest = slowest.max(serial);
        }
        beyond_workers.push(as_ms(latency) - slowest);
    }
    (shard_ms, beyond_workers)
}

fn as_ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// Adds every per-layer metric of a traced run to `out`.
#[allow(clippy::too_many_arguments)]
pub fn report(
    out: &mut Outcome,
    replay: &Replay,
    set: &TraceSet,
    traffic: &Tally,
    shard_http_ms: &[f64],
    beyond_workers_ms: &[f64],
    rss: [f64; 3],
) {
    let t = &replay.tracer;
    let med = |values: Vec<f64>| {
        if values.is_empty() {
            f64::NAN
        } else {
            median(&values)
        }
    };
    let per_root_sum = |root: &str, name: &str| -> Vec<f64> {
        t.roots(root)
            .map(|root| {
                t.children(root.id)
                    .filter(|span| span.name == name)
                    .map(|span| span.duration() as f64 / 1e6)
                    .sum()
            })
            .collect()
    };

    out.metric(
        "hypergraph.snapshot_read_ms",
        med(per_root_sum("probe.load", "hypergraph.snapshot_read")),
        "ms",
    );
    out.counter("hypergraph.bytes", set.bytes as f64, Some("bytes"));
    out.metric(
        "hypergraph.shard_slice_read_ms",
        med(t.self_ms("hypergraph.shard_slice_read")),
        "ms",
    );
    out.metric(
        "hypergraph.assemble_ms",
        med(t.durations_ms("hypergraph.assemble")),
        "ms",
    );

    out.metric(
        "projection.project_ms",
        med(t.self_ms("projection.project")),
        "ms",
    );
    out.counter(
        "projection.hyperwedges",
        set.approx_reference.hyperwedges as f64,
        Some("count"),
    );

    let exact_ms = med(t.self_ms("core.exact.count"));
    let pairs = set.exact_reference.pairs as f64;
    let instances = set.exact_reference.instances();
    out.metric("core.exact.count_ms", exact_ms, "ms");
    out.counter("core.exact.pairs", pairs, Some("count"));
    out.counter("core.exact.instances", instances, Some("count"));
    out.metric("core.exact.yield", instances / pairs, "ratio");
    out.metric("core.exact.ns_per_pair", exact_ms * 1e6 / pairs, "ns");

    out.metric(
        "core.sample.count_ms",
        med(t.self_ms("core.sample.count")),
        "ms",
    );
    out.counter("core.sample.samples", replay.samples as f64, Some("count"));
    let rel_err = if replay.rel_errs.is_empty() {
        f64::NAN
    } else {
        replay.rel_errs.iter().sum::<f64>() / replay.rel_errs.len() as f64
    };
    out.metric("core.sample.rel_err", rel_err, "ratio");

    out.metric(
        "core.streaming.bootstrap_ms",
        med(t.self_ms("core.streaming.bootstrap")),
        "ms",
    );
    out.metric(
        "core.streaming.insert_ms",
        med(t.self_ms("core.streaming.insert")),
        "ms",
    );
    out.metric(
        "core.streaming.remove_ms",
        med(t.self_ms("core.streaming.remove")),
        "ms",
    );

    let mut partial_sum = 0.0;
    for shard in 0..SHARDS {
        let partial = med(t.self_ms(&format!("core.shard.partial.{shard}")));
        partial_sum += partial;
        out.metric(&format!("core.shard.partial_ms.{shard}"), partial, "ms");
    }
    let per_fanout_max: Vec<f64> = t
        .spans()
        .iter()
        .filter(|span| span.parent.is_none())
        .map(|root| {
            t.spans()
                .iter()
                .filter(|span| {
                    span.request == root.request && span.name.starts_with("core.shard.partial.")
                })
                .map(|span| span.duration() as f64 / 1e6)
                .fold(f64::NAN, f64::max)
        })
        .filter(|max| !max.is_nan())
        .collect();
    out.metric("core.shard.partial_max_ms", med(per_fanout_max), "ms");
    out.metric("core.shard.overhead", partial_sum / exact_ms, "ratio");
    out.metric(
        "core.shard.encode_ms",
        med(t.self_ms("core.shard.encode")),
        "ms",
    );
    out.metric(
        "core.shard.decode_ms",
        med(t.self_ms("core.shard.decode")),
        "ms",
    );
    let fanouts = t
        .spans()
        .iter()
        .filter(|span| span.name == "core.shard.merge")
        .count()
        .max(1);
    out.counter(
        "core.shard.partial_bytes",
        (replay.partial_bytes / fanouts) as f64,
        Some("bytes"),
    );
    let merge_ms = med(t.self_ms("core.shard.merge"));
    out.metric("core.shard.merge_ms", merge_ms, "ms");

    out.counter("serve.cache.hits", traffic.hits as f64, Some("count"));
    out.counter("serve.cache.misses", traffic.misses as f64, Some("count"));
    let lookups = (traffic.hits + traffic.misses).max(1) as f64;
    out.metric(
        "serve.cache.hit_ratio",
        traffic.hits as f64 / lookups,
        "ratio",
    );
    out.metric("serve.self_ms", med(replay.serve_self_ms.clone()), "ms");
    out.counter("serve.response_bytes", traffic.bytes as f64, Some("bytes"));
    out.counter("serve.requests.200", traffic.ok as f64, Some("count"));
    out.counter("serve.requests.other", traffic.other as f64, Some("count"));
    out.metric(
        "serve.worker.count_shard_ms",
        med(shard_http_ms.to_vec()),
        "ms",
    );
    let coordinator_self: Vec<f64> = beyond_workers_ms.iter().map(|ms| ms - merge_ms).collect();
    out.metric("serve.coordinator.self_ms", med(coordinator_self), "ms");
    out.metric("serve.rss_mb.front", rss[0], "MiB");
    out.metric("serve.rss_mb.coordinator", rss[1], "MiB");
    out.metric("serve.rss_mb.workers", rss[2], "MiB");

    let unmeasured: Vec<String> = out
        .metrics
        .iter()
        .filter(|(_, value, _)| !value.is_finite())
        .map(|(name, _, _)| format!("per-layer metric {name} was not measured"))
        .collect();
    out.errors.extend(unmeasured);
}

/// The traced run's own end-to-end numbers, reported beside the untraced
/// run's so the tracing overhead shows.
pub fn report_traced_latency(out: &mut Outcome, heavy: &[f64], light: &[f64]) {
    for (name, sample) in [
        ("traced.heavy_p50_ms", heavy),
        ("traced.light_p50_ms", light),
    ] {
        let value = if sample.is_empty() {
            f64::NAN
        } else {
            summarize(sample).p50
        };
        out.metric(name, value, "ms");
    }
}

/// The value of a metric already added to `out`.
pub fn metric_value(out: &Outcome, name: &str) -> f64 {
    out.metrics
        .iter()
        .find(|(metric, _, _)| metric == name)
        .map_or(f64::NAN, |(_, value, _)| *value)
}

/// Reports whether the traced run shows the split a workload was chosen
/// for. Timings vary, so this is reported, not counted as a failure.
pub fn split_note(out: &mut Outcome, claim: &str, holds: bool) {
    out.note(format!(
        "split: {claim}: {}",
        if holds { "holds" } else { "NOT MET" }
    ));
}
