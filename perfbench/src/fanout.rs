//! `fanout`: a coordinator and 2 workers serve a 4-shard `MOCHYSHD` family
//! of a contact-like dataset (many low-degree hyperedges, a projection
//! larger than one core's 2 MiB L2), so each worker holds 2 shards. One
//! keep-alive client alternates two kinds of `POST /v1/count`:
//!
//! - `fanout` (the heavy class): MoCHy-E with a fresh seed, so the
//!   coordinator scatters `/v1/internal/count-shard` over the workers,
//!   decodes their partials and merges them;
//! - `hit` (the light class): a repeat of a pool query the coordinator
//!   answers from its cache without touching a worker.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use mochy_datagen::DomainKind;
use mochy_hypergraph::{load_sharded_manifest, shard_file_path, Hypergraph};
use mochy_projection::project;

use crate::http::Response;
use crate::inputs::{DatasetSpec, Reference, Rng, WorkDir};
use crate::layers::{self, Replay, TraceSet, SHARDS};
use crate::load::{self, drive, latencies, Booted, Request, Script, Stop, Tally};
use crate::oracle::{self, Expected};
use crate::procs;
use crate::stats::{median, summarize};
use crate::{Outcome, Settings};

const DATASET: DatasetSpec = DatasetSpec {
    kind: DomainKind::Contact,
    components: 8,
    nodes: 6000,
    edges: 4200,
};
/// The distributed dataset's name.
const NAME: &str = "contact";
/// Repeated queries the coordinator answers from its cache.
const POOL: usize = 2;
/// Warm-up requests: one fresh count (the workers assemble and project the
/// family lazily), then each pool query once.
const WARM_UP: usize = 1 + POOL;
/// Rounds per untraced run. Each round boots its own processes, warms them
/// up and measures for a fifth of the run. `setup_s` and `peak_rss_mb`
/// (after warm-up) are medians over the rounds, latencies are pooled.
const ROUNDS: usize = 5;
/// Requests in the traced run's prefix, after the warm-up.
const TRACE_REQUESTS: usize = 24;

#[derive(Debug, Clone)]
enum Op {
    Fanout { seed: u64 },
    Pool { query: usize },
    Hit { query: usize },
}

struct FanScript {
    index: usize,
    next_seed: u64,
    pool_seeds: Vec<u64>,
    pool_bodies: Vec<Option<String>>,
    expected: Expected,
}

impl FanScript {
    fn new(round: usize, seed: u64, expected: &Expected) -> Self {
        let mut rng = Rng::new(seed, &format!("fanout-{round}"));
        Self {
            index: 0,
            next_seed: rng.request_seed() >> 4,
            pool_seeds: (0..POOL).map(|_| rng.request_seed()).collect(),
            pool_bodies: vec![None; POOL],
            expected: expected.clone(),
        }
    }

    fn count(class: &'static str, seed: u64, op: Op) -> Request<Op> {
        Request {
            class,
            path: "/v1/count",
            body: format!(
                "{{\"dataset\":\"{NAME}\",\"method\":\"mochy-e\",\"threads\":1,\"seed\":{seed}}}"
            ),
            op,
        }
    }
}

impl Script for FanScript {
    type Op = Op;

    fn next(&mut self) -> Request<Op> {
        let index = self.index;
        self.index += 1;
        if (1..WARM_UP).contains(&index) {
            let query = index - 1;
            return Self::count("pool", self.pool_seeds[query], Op::Pool { query });
        }
        if index >= WARM_UP && (index - WARM_UP) % 2 == 1 {
            let query = (index - WARM_UP) / 2 % POOL;
            return Self::count("hit", self.pool_seeds[query], Op::Hit { query });
        }
        let seed = self.next_seed;
        self.next_seed += 1;
        Self::count("fanout", seed, Op::Fanout { seed })
    }

    fn check(&mut self, request: &Request<Op>, response: &Response) -> Result<(), String> {
        match request.op {
            Op::Fanout { seed } => {
                if !response.is_miss() {
                    return Err(format!(
                        "x-mochy-cache {:?} for a fresh seed",
                        response.cache
                    ));
                }
                oracle::check_count(&response.body, seed, &self.expected).map(|_| ())
            }
            Op::Pool { query } => {
                if !response.is_miss() {
                    return Err(format!(
                        "x-mochy-cache {:?} on a first read",
                        response.cache
                    ));
                }
                oracle::check_count(&response.body, self.pool_seeds[query], &self.expected)?;
                self.pool_bodies[query] = Some(response.body.clone());
                Ok(())
            }
            Op::Hit { query } => {
                if !response.is_hit() {
                    return Err(format!(
                        "x-mochy-cache {:?} on a repeated read",
                        response.cache
                    ));
                }
                let first = self.pool_bodies[query]
                    .as_deref()
                    .ok_or("repeat before its first answer")?;
                oracle::check_repeat(&response.body, first)
            }
        }
    }
}

struct Inputs {
    /// Holds the shard family; removed on drop.
    _work: WorkDir,
    manifest: PathBuf,
    shard_files: Vec<PathBuf>,
    bytes: u64,
    /// The family read back and assembled: every reference is computed on it.
    hypergraph: Hypergraph,
    reference: Reference,
    expected: Expected,
    /// The CPUs the benchmark may run on, read before it pins itself.
    cpus: String,
}

fn inputs(settings: &Settings) -> Result<Inputs, String> {
    let work = WorkDir::create("fanout")?;
    let manifest = layers::write_family(work.path(), NAME, &DATASET.generate(settings.seed))?;
    let stem = work.path().join(NAME);
    let shard_files: Vec<PathBuf> = (0..SHARDS)
        .map(|shard| shard_file_path(&stem, shard))
        .collect();
    let mut bytes = std::fs::metadata(&manifest)
        .map_err(|e| e.to_string())?
        .len();
    for file in &shard_files {
        bytes += std::fs::metadata(file).map_err(|e| e.to_string())?.len();
    }
    let hypergraph = load_sharded_manifest(&manifest)
        .and_then(|family| family.assemble())
        .map_err(|error| format!("reading back the shard family: {error}"))?;
    let reference = Reference::compute(&hypergraph);
    let expected = Expected {
        counts: reference.counts.as_slice().to_vec(),
        num_hyperwedges: reference.hyperwedges,
        samples_drawn: None,
    };
    Ok(Inputs {
        _work: work,
        manifest,
        shard_files,
        bytes,
        hypergraph,
        reference,
        expected,
        cpus: procs::allowed_cpus()?,
    })
}

/// Starts the coordinator and its workers and warms them up. The workers
/// may run on every allowed CPU; the coordinator and the benchmark share the
/// first one, so a cache hit's hand-offs between the client and the
/// coordinator are context switches on that CPU, not cross-CPU wake-ups,
/// whose cost on a virtual machine depends on the host.
fn boot(settings: &Settings, inputs: &Inputs, round: usize) -> Result<Booted<FanScript>, String> {
    let me = std::process::id();
    procs::pin(me, &inputs.cpus)?;
    let started = Instant::now();
    let topology = layers::boot_fanout(&settings.server, NAME, &inputs.manifest)?;
    let front = procs::first_cpu(&inputs.cpus)?;
    procs::pin(topology.procs[0].pid(), &front)?;
    procs::pin(me, &front)?;
    let scripts = vec![FanScript::new(round, settings.seed, &inputs.expected)];
    Ok(load::warm_up(topology, scripts, WARM_UP, started))
}

/// Runs the workload.
pub fn run(settings: &Settings) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let inputs = inputs(settings)?;
    out.counter(
        "dataset.contact.edges",
        inputs.hypergraph.num_edges() as f64,
        None,
    );
    out.counter(
        "dataset.contact.hyperwedges",
        inputs.reference.hyperwedges as f64,
        None,
    );
    out.counter("dataset.contact.pairs", inputs.reference.pairs as f64, None);
    out.counter(
        "dataset.contact.instances",
        inputs.reference.instances(),
        None,
    );
    out.note(format!(
        "fanout: contact = {} -> {} edges in {SHARDS} shards, projection {:.2} MiB",
        DATASET.describe(),
        inputs.hypergraph.num_edges(),
        (inputs.reference.hyperwedges * 16) as f64 / (1 << 20) as f64
    ));
    if settings.trace {
        traced(settings, &inputs, &mut out)?;
    } else {
        timed(settings, &inputs, &mut out)?;
    }
    Ok(out)
}

fn timed(settings: &Settings, inputs: &Inputs, out: &mut Outcome) -> Result<(), String> {
    let per_round = Duration::from_secs_f64(settings.seconds as f64 / ROUNDS as f64);
    let mut setups = Vec::with_capacity(ROUNDS);
    let mut loaded_rss = Vec::with_capacity(ROUNDS);
    let mut warm_rss = Vec::with_capacity(ROUNDS);
    let mut logs = Vec::new();
    let mut elapsed = Duration::ZERO;
    for round in 0..ROUNDS {
        let Booted {
            topology,
            mut clients,
            mut scripts,
            warm,
            setup,
        } = boot(settings, inputs, round)?;
        setups.push(setup.as_secs_f64());
        warm_rss.push(topology.peak_rss_mb()?);
        out.add_requests(&Tally::of(&warm));
        let deadline = Instant::now() + per_round;
        let (round_logs, took) =
            load::timed(|| drive(&mut clients, &mut scripts, Stop::At(deadline)));
        drop(clients);
        loaded_rss.push(topology.peak_rss_mb()?);
        topology.shutdown()?;
        elapsed += took;
        logs.extend(round_logs);
    }

    let tally = Tally::of(&logs);
    out.add_requests(&tally);
    let heavy = latencies(&logs, "fanout");
    let light = latencies(&logs, "hit");
    if heavy.is_empty() || light.is_empty() {
        return Err("the timed loop completed no request of some class".to_string());
    }
    let heavy = summarize(&heavy);
    let light = summarize(&light);
    out.metric("setup_s", median(&setups), "s");
    out.metric("peak_rss_mb", median(&warm_rss), "MiB");
    out.metric("heavy_p75_ms", heavy.p75, "ms");
    out.metric("heavy_tail_ms", heavy.tail, "ms");
    out.metric("light_p75_ms", light.p75, "ms");
    out.note(format!(
        "throughput_rps = {:.4}",
        tally.attempted as f64 / elapsed.as_secs_f64()
    ));
    for (name, summary) in [("fanout", &heavy), ("coordinator_hit", &light)] {
        out.note(format!(
            "{name}_p50_ms = {:.4}, {name}_p75_ms = {:.4}, {name}_tail_ms = {:.4} at p{} of {} samples",
            summary.p50, summary.p75, summary.tail, summary.tail_pct, summary.count
        ));
    }
    out.note(format!(
        "setup_s per round: {setups:?}; peak_rss_mb per round: {warm_rss:?}; loaded_peak_rss_mb per round: {loaded_rss:?}; {} requests in {:.3} s",
        tally.attempted,
        elapsed.as_secs_f64()
    ));
    Ok(())
}

fn traced(settings: &Settings, inputs: &Inputs, out: &mut Outcome) -> Result<(), String> {
    let Booted {
        topology,
        mut clients,
        mut scripts,
        warm,
        ..
    } = boot(settings, inputs, 0)?;
    let prefix = drive(&mut clients, &mut scripts, Stop::After(TRACE_REQUESTS));
    drop(clients);
    let (shard_ms, beyond) =
        layers::probe_fanout_http(&topology, NAME, &inputs.reference, settings.seed, out);
    let rss = [
        topology.role_rss_mb("coordinator")?,
        topology.role_rss_mb("coordinator")?,
        topology.role_rss_mb("worker")?,
    ];
    topology.shutdown()?;
    let mut logs = warm;
    logs[0].extend(prefix.into_iter().flatten());
    let tally = Tally::of(&logs);
    out.add_requests(&tally);

    let projection = project(&inputs.hypergraph);
    let mut replay = Replay::new();
    for record in logs.iter().flatten() {
        match record.op {
            Op::Fanout { .. } | Op::Pool { .. } => {
                let (counts, _, engine) =
                    replay.fanout("request.fanout", &inputs.hypergraph, &projection)?;
                out.check(
                    "replayed fan-out",
                    layers::same_counts(&counts, &inputs.reference.counts),
                );
                replay.serve_self(record.latency_ms, engine);
            }
            Op::Hit { .. } => replay.no_engine("request.hit", record.latency_ms),
        }
    }
    let set = TraceSet {
        files: inputs.shard_files.clone(),
        bytes: inputs.bytes,
        manifest: inputs.manifest.clone(),
        exact: &inputs.hypergraph,
        exact_projection: &projection,
        exact_reference: &inputs.reference,
        approx: &inputs.hypergraph,
        approx_reference: &inputs.reference,
        samples: 100,
    };
    replay.probe_unreached(&set, settings.seed, out)?;
    layers::report(out, &replay, &set, &tally, &shard_ms, &beyond, rss);
    layers::report_traced_latency(out, &latencies(&logs, "fanout"), &latencies(&logs, "hit"));
    Ok(())
}
