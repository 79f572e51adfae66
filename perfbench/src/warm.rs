//! `warm-mutate`: a standalone server and 2 keep-alive clients taking turns,
//! all on one CPU. Each client repeats a cycle of 8 reads from its own query
//! pool on a read-only dataset (all cache hits after warm-up), one
//! `POST /v1/mutate` on its own writable dataset, and one MoCHy-A+ read of
//! that dataset right after the write (always a miss: the generation
//! changed).
//!
//! Mutates alternate: one inserts a seeded hyperedge, the next removes the
//! hyperedge the previous one inserted, so every pair is net-zero and the
//! dataset never grows.
//!
//! - `hit` (the light class): a cache-hit read.
//! - `write-read` (the heavy class): a mutate plus the read after it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mochy_core::{StreamConfig, StreamingEngine};
use mochy_datagen::DomainKind;
use mochy_hypergraph::NodeId;
use mochy_projection::project;

use crate::http::Response;
use crate::inputs::{random_edge, with_edge, DatasetFile, DatasetSpec, Reference, Rng, WorkDir};
use crate::layers::{self, Replay, TraceSet};
use crate::load::{self, drive, latencies, Booted, Record, Request, Script, Stop, Tally};
use crate::oracle;
use crate::procs::{self, ServerProc, Topology};
use crate::stats::{median, summarize};
use crate::{Outcome, Settings};

const READ_ONLY: DatasetSpec = DatasetSpec {
    kind: DomainKind::Coauthorship,
    components: 8,
    nodes: 500,
    edges: 500,
};
const WRITABLE: DatasetSpec = DatasetSpec {
    kind: DomainKind::Coauthorship,
    components: 16,
    nodes: 125,
    edges: 125,
};
/// MoCHy-A+ samples per read.
const SAMPLES: usize = 100;
const CLIENTS: usize = 2;
/// Distinct pool queries per client; both pools together stay well below
/// the server's 64-entry cache.
const POOL: usize = 12;
/// Cache-hit reads per cycle, before the mutate and the read after it.
const HITS_PER_CYCLE: usize = 8;
const CYCLE: usize = HITS_PER_CYCLE + 2;
/// Warm-up requests per client: every pool query once, then one whole
/// mutate pair with its reads (the first mutate bootstraps the writer).
const WARM_UP: usize = POOL + 4;
/// Rounds per untraced run. Each round boots its own server, warms it up
/// and measures for a fifth of the run. `setup_s` and `peak_rss_mb` (after
/// warm-up) are medians over the rounds, latencies are pooled.
const ROUNDS: usize = 5;
/// Requests per client in the traced run's prefix, after the warm-up.
const TRACE_REQUESTS: usize = 6 * CYCLE;
/// Inserts per client whose exact total is checked in-process.
const CHECKED_INSERTS: usize = 6;

#[derive(Debug, Clone)]
enum Op {
    Pool {
        query: usize,
    },
    Hit {
        query: usize,
    },
    Insert {
        edge: Vec<NodeId>,
    },
    Remove {
        id: u64,
    },
    /// A read of the writable dataset; `edge` is the inserted hyperedge the
    /// dataset holds beyond its base, if any.
    Raw {
        edge: Option<Vec<NodeId>>,
    },
}

/// A client's writable dataset and what its answers must contain.
struct Writable {
    name: String,
    base: DatasetFile,
    reference: Reference,
}

struct WarmScript {
    client: usize,
    index: usize,
    pool_seeds: Vec<u64>,
    pool_bodies: Vec<Option<String>>,
    read_only_wedges: u64,
    writable: Arc<Writable>,
    raw_seed: u64,
    edges: Rng,
    pick: Rng,
    /// The hyperedge the last insert added, with its id, until removed.
    inserted: Option<(Vec<NodeId>, u64)>,
    generation: u64,
    /// Exact totals the server reported after each insert, in order.
    insert_totals: Vec<(Vec<NodeId>, f64)>,
    /// Answers kept for the in-process check: pool queries and raw reads.
    kept_pool: Vec<(u64, String)>,
    kept_raw: Vec<(Option<Vec<NodeId>>, String)>,
    rel_errs: Vec<f64>,
}

impl WarmScript {
    fn new(
        client: usize,
        round: usize,
        seed: u64,
        read_only_wedges: u64,
        writable: &Arc<Writable>,
    ) -> Self {
        let mut rng = Rng::new(seed, &format!("warm-{client}"));
        let pool_seeds = (0..POOL).map(|_| rng.request_seed()).collect();
        Self {
            client,
            index: 0,
            pool_seeds,
            pool_bodies: vec![None; POOL],
            read_only_wedges,
            writable: Arc::clone(writable),
            raw_seed: rng.request_seed(),
            edges: Rng::new(seed, &format!("warm-edges-{client}")),
            pick: Rng::new(seed, &format!("warm-pick-{round}-{client}")),
            inserted: None,
            generation: 0,
            insert_totals: Vec::new(),
            kept_pool: Vec::new(),
            kept_raw: Vec::new(),
            rel_errs: Vec::new(),
        }
    }

    fn pool_body(&self, query: usize) -> String {
        format!(
            "{{\"dataset\":\"ro\",\"method\":\"mochy-a+\",\"samples\":{SAMPLES},\"threads\":1,\
             \"seed\":{}}}",
            self.pool_seeds[query]
        )
    }

    fn mutate(&mut self) -> Request<Op> {
        let name = &self.writable.name;
        let (body, op) = match &self.inserted {
            Some((_, id)) => (
                format!("{{\"dataset\":\"{name}\",\"remove\":[{id}]}}"),
                Op::Remove { id: *id },
            ),
            None => {
                let edge = random_edge(&mut self.edges, self.writable.base.hypergraph.num_nodes());
                let members: Vec<String> = edge.iter().map(u32::to_string).collect();
                (
                    format!(
                        "{{\"dataset\":\"{name}\",\"insert\":[[{}]]}}",
                        members.join(",")
                    ),
                    Op::Insert { edge },
                )
            }
        };
        Request {
            class: "mutate",
            path: "/v1/mutate",
            body,
            op,
        }
    }
}

impl Script for WarmScript {
    type Op = Op;

    fn next(&mut self) -> Request<Op> {
        let index = self.index;
        self.index += 1;
        let (class, position) = if index < POOL {
            ("pool", index)
        } else if index < WARM_UP {
            ("", HITS_PER_CYCLE + (index - POOL) % 2)
        } else {
            ("", (index - WARM_UP) % CYCLE)
        };
        if class == "pool" {
            return Request {
                class,
                path: "/v1/count",
                body: self.pool_body(position),
                op: Op::Pool { query: position },
            };
        }
        match position {
            p if p < HITS_PER_CYCLE => {
                let hits_before = (index - WARM_UP) / CYCLE * HITS_PER_CYCLE + p;
                let query = (hits_before + self.client * POOL / 2) % POOL;
                Request {
                    class: "hit",
                    path: "/v1/count",
                    body: self.pool_body(query),
                    op: Op::Hit { query },
                }
            }
            p if p == HITS_PER_CYCLE => self.mutate(),
            _ => Request {
                class: "raw",
                path: "/v1/count",
                body: format!(
                    "{{\"dataset\":\"{}\",\"method\":\"mochy-a+\",\"samples\":{SAMPLES},\
                     \"threads\":1,\"seed\":{}}}",
                    self.writable.name, self.raw_seed
                ),
                op: Op::Raw {
                    edge: self.inserted.as_ref().map(|(edge, _)| edge.clone()),
                },
            },
        }
    }

    fn check(&mut self, request: &Request<Op>, response: &Response) -> Result<(), String> {
        let base_edges = self.writable.base.hypergraph.num_edges() as u64;
        match &request.op {
            Op::Pool { query } => {
                if !response.is_miss() {
                    return Err(format!(
                        "x-mochy-cache {:?} on a first read",
                        response.cache
                    ));
                }
                let body = oracle::parse_count(&response.body)?;
                if body.seed != self.pool_seeds[*query]
                    || body.num_hyperwedges != Some(self.read_only_wedges)
                {
                    return Err(format!("pool answer {query} reports seed {}", body.seed));
                }
                if *query < 2 {
                    self.kept_pool
                        .push((self.pool_seeds[*query], response.body.clone()));
                }
                self.pool_bodies[*query] = Some(response.body.clone());
                Ok(())
            }
            Op::Hit { query } => {
                if !response.is_hit() {
                    return Err(format!("x-mochy-cache {:?} on a pool read", response.cache));
                }
                let first = self.pool_bodies[*query]
                    .as_deref()
                    .ok_or("pool read before its first answer")?;
                oracle::check_repeat(&response.body, first)
            }
            Op::Insert { edge } => {
                let body = oracle::parse_mutate(&response.body)?;
                match (body.inserted.as_slice(), body.removed.is_empty()) {
                    ([id], true) if body.num_edges == base_edges + 1 => {
                        self.inserted = Some((edge.clone(), *id));
                        self.generation = body.generation;
                        if self.insert_totals.len() < CHECKED_INSERTS || self.pick.below(16) == 0 {
                            self.insert_totals.push((edge.clone(), body.total));
                        }
                        Ok(())
                    }
                    _ => Err(format!("insert answered {:?}", response.body)),
                }
            }
            Op::Remove { .. } => {
                let body = oracle::check_restored(
                    &response.body,
                    base_edges,
                    self.writable.reference.instances(),
                )?;
                self.inserted = None;
                self.generation = body.generation;
                Ok(())
            }
            Op::Raw { edge } => {
                if !response.is_miss() {
                    return Err(format!(
                        "x-mochy-cache {:?} on a read after a write",
                        response.cache
                    ));
                }
                let body = oracle::parse_count(&response.body)?;
                if body.generation != self.generation || body.seed != self.raw_seed {
                    return Err(format!(
                        "read after the write of generation {} answered generation {}",
                        self.generation, body.generation
                    ));
                }
                if edge.is_none() {
                    if body.num_hyperwedges != Some(self.writable.reference.hyperwedges) {
                        return Err("read of the restored dataset: wrong hyperwedges".to_string());
                    }
                    self.rel_errs.push(oracle::rel_err(
                        &body.counts,
                        self.writable.reference.counts.as_slice(),
                    ));
                }
                if self.kept_raw.len() < 2 || self.pick.below(32) == 0 {
                    self.kept_raw.push((edge.clone(), response.body.clone()));
                }
                Ok(())
            }
        }
    }
}

struct Inputs {
    work: WorkDir,
    read_only: DatasetFile,
    read_only_ref: Reference,
    writable: Vec<Arc<Writable>>,
}

fn inputs(settings: &Settings) -> Result<Inputs, String> {
    let work = WorkDir::create("warm-mutate")?;
    let read_only = DatasetFile::write(work.path(), "ro", &READ_ONLY.generate(settings.seed))?;
    let read_only_ref = Reference::compute(&read_only.hypergraph);
    let mut writable = Vec::with_capacity(CLIENTS);
    for client in 0..CLIENTS {
        let name = format!("w{client}");
        let seed = Rng::new(settings.seed, &name).next_u64();
        let base = DatasetFile::write(work.path(), &name, &WRITABLE.generate(seed))?;
        let reference = Reference::compute(&base.hypergraph);
        writable.push(Arc::new(Writable {
            name,
            base,
            reference,
        }));
    }
    Ok(Inputs {
        work,
        read_only,
        read_only_ref,
        writable,
    })
}

fn boot(settings: &Settings, inputs: &Inputs, round: usize) -> Result<Booted<WarmScript>, String> {
    let started = Instant::now();
    let mut args = inputs.read_only.load_args().to_vec();
    for writable in &inputs.writable {
        args.extend(writable.base.load_args());
    }
    let server = ServerProc::spawn(&settings.server, "standalone", &args)?;
    let scripts = inputs
        .writable
        .iter()
        .enumerate()
        .map(|(client, writable)| {
            WarmScript::new(
                client,
                round,
                settings.seed,
                inputs.read_only_ref.hyperwedges,
                writable,
            )
        })
        .collect();
    Ok(load::warm_up(
        Topology {
            procs: vec![server],
        },
        scripts,
        WARM_UP,
        started,
    ))
}

/// Checks the kept answers and insert totals against in-process runs.
fn check_kept(inputs: &Inputs, scripts: &mut [WarmScript], out: &mut Outcome) {
    for script in scripts.iter_mut() {
        for (seed, body) in script.kept_pool.drain(..) {
            let expected = oracle::approx_expected(&inputs.read_only.hypergraph, SAMPLES, seed);
            out.check(
                "pool answer vs MotifEngine::count",
                oracle::check_count(&body, seed, &expected).map(|_| ()),
            );
        }
        let base = &script.writable.base.hypergraph;
        for (edge, body) in script.kept_raw.drain(..) {
            let hypergraph = match &edge {
                Some(edge) => with_edge(base, edge),
                None => base.clone(),
            };
            let expected = oracle::approx_expected(&hypergraph, SAMPLES, script.raw_seed);
            out.check(
                "read after write vs MotifEngine::count",
                oracle::check_count(&body, script.raw_seed, &expected).map(|_| ()),
            );
        }
        if script.insert_totals.is_empty() {
            continue;
        }
        let mut stream = StreamingEngine::from_hypergraph(base, StreamConfig::default());
        for (edge, total) in script.insert_totals.drain(..) {
            let id = stream.insert(edge.iter().copied());
            let expected = stream.counts().total();
            stream.remove(id);
            out.check(
                "insert total vs StreamingEngine",
                if expected.to_bits() == total.to_bits() {
                    Ok(())
                } else {
                    Err(format!("served total {total}, in-process {expected}"))
                },
            );
        }
    }
}

fn dataset_counters(inputs: &Inputs, out: &mut Outcome) {
    out.counter(
        "dataset.ro.edges",
        inputs.read_only.hypergraph.num_edges() as f64,
        None,
    );
    out.counter(
        "dataset.ro.hyperwedges",
        inputs.read_only_ref.hyperwedges as f64,
        None,
    );
    for writable in &inputs.writable {
        let name = &writable.name;
        out.counter(
            &format!("dataset.{name}.edges"),
            writable.base.hypergraph.num_edges() as f64,
            None,
        );
        out.counter(
            &format!("dataset.{name}.hyperwedges"),
            writable.reference.hyperwedges as f64,
            None,
        );
        out.counter(
            &format!("dataset.{name}.instances"),
            writable.reference.instances(),
            None,
        );
    }
    out.note(format!(
        "warm-mutate: ro = {} -> {} edges; w0, w1 = {} -> {}, {} edges",
        READ_ONLY.describe(),
        inputs.read_only.hypergraph.num_edges(),
        WRITABLE.describe(),
        inputs.writable[0].base.hypergraph.num_edges(),
        inputs.writable[1].base.hypergraph.num_edges()
    ));
}

/// Runs the workload on one CPU.
pub fn run(settings: &Settings) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let inputs = inputs(settings)?;
    dataset_counters(&inputs, &mut out);
    // The clients take turns and the workload's server runs on the same one
    // CPU: each hand-off between the client and a server worker is then a
    // context switch on that CPU, not a cross-CPU wake-up, whose cost on a
    // virtual machine depends on the host.
    let allowed = procs::allowed_cpus()?;
    let cpu = procs::first_cpu(&allowed)?;
    procs::pin(std::process::id(), &cpu)?;
    out.note(format!(
        "warm-mutate: the benchmark and its server run on CPU {cpu}"
    ));
    if settings.trace {
        traced(settings, &inputs, &allowed, &mut out)?;
    } else {
        timed(settings, &inputs, &mut out)?;
    }
    Ok(out)
}

/// Mutate-plus-read latencies: each `raw` read right after a `mutate`.
fn write_read_latencies(logs: &[Vec<Record<Op>>]) -> Vec<f64> {
    logs.iter()
        .flat_map(|log| {
            log.windows(2)
                .filter(|pair| pair[0].class == "mutate" && pair[1].class == "raw")
                .map(|pair| pair[0].latency_ms + pair[1].latency_ms)
        })
        .collect()
}

fn timed(settings: &Settings, inputs: &Inputs, out: &mut Outcome) -> Result<(), String> {
    let per_round = Duration::from_secs_f64(settings.seconds as f64 / ROUNDS as f64);
    let mut setups = Vec::with_capacity(ROUNDS);
    let mut loaded_rss = Vec::with_capacity(ROUNDS);
    let mut warm_rss = Vec::with_capacity(ROUNDS);
    let mut logs = Vec::new();
    let mut rel_errs = Vec::new();
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
        check_kept(inputs, &mut scripts, out);
        for script in &mut scripts {
            script.rel_errs.clear();
        }
        let deadline = Instant::now() + per_round;
        let (round_logs, took) =
            load::timed(|| drive(&mut clients, &mut scripts, Stop::At(deadline)));
        drop(clients);
        loaded_rss.push(topology.peak_rss_mb()?);
        topology.shutdown()?;
        check_kept(inputs, &mut scripts, out);
        elapsed += took;
        logs.extend(round_logs);
        rel_errs.extend(scripts.iter().flat_map(|s| s.rel_errs.iter().copied()));
    }

    let tally = Tally::of(&logs);
    out.add_requests(&tally);
    let heavy = write_read_latencies(&logs);
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
    let mutate = summarize(&latencies(&logs, "mutate"));
    let raw = summarize(&latencies(&logs, "raw"));
    for (name, summary) in [
        ("write_read", &heavy),
        ("hit", &light),
        ("mutate", &mutate),
        ("raw", &raw),
    ] {
        out.note(format!(
            "{name}_p50_ms = {:.4}, {name}_p75_ms = {:.4}, {name}_tail_ms = {:.4} at p{} of {} samples",
            summary.p50, summary.p75, summary.tail, summary.tail_pct, summary.count
        ));
    }
    if !rel_errs.is_empty() {
        out.note(format!(
            "raw_rel_err = {:.6} over {} reads of restored datasets",
            rel_errs.iter().sum::<f64>() / rel_errs.len() as f64,
            rel_errs.len()
        ));
    }
    out.note(format!(
        "setup_s per round: {setups:?}; peak_rss_mb per round: {warm_rss:?}; loaded_peak_rss_mb per round: {loaded_rss:?}; {} requests in {:.3} s, {} hits, {} misses",
        tally.attempted,
        elapsed.as_secs_f64(),
        tally.hits,
        tally.misses
    ));
    Ok(())
}

/// The traced run; `allowed` are the CPUs the process may run on before
/// [`run`] pinned it.
fn traced(
    settings: &Settings,
    inputs: &Inputs,
    allowed: &str,
    out: &mut Outcome,
) -> Result<(), String> {
    let Booted {
        topology,
        mut clients,
        mut scripts,
        warm,
        ..
    } = boot(settings, inputs, 0)?;
    let prefix = drive(&mut clients, &mut scripts, Stop::After(TRACE_REQUESTS));
    drop(clients);
    let front_rss = topology.peak_rss_mb()?;
    topology.shutdown()?;
    let logs: Vec<Vec<Record<Op>>> = warm
        .into_iter()
        .zip(prefix)
        .map(|(mut warm, prefix)| {
            warm.extend(prefix);
            warm
        })
        .collect();
    let served_totals: Vec<Vec<(Vec<NodeId>, f64)>> = scripts
        .iter()
        .map(|script| script.insert_totals.clone())
        .collect();
    check_kept(inputs, &mut scripts, out);
    let tally = Tally::of(&logs);
    out.add_requests(&tally);

    let mut replay = Replay::new();
    replay_traffic(&mut replay, inputs, &scripts, &logs, &served_totals, out);

    let family_source = &inputs.writable[0];
    let manifest = layers::write_family(inputs.work.path(), "w0", &family_source.base.hypergraph)?;
    // The fan-out probe's coordinator and workers may run on every allowed
    // CPU again, as in cold-count's probe.
    procs::pin(std::process::id(), allowed)?;
    let fanout = layers::boot_fanout(&settings.server, "w0", &manifest)?;
    let (shard_ms, beyond) =
        layers::probe_fanout_http(&fanout, "w0", &family_source.reference, settings.seed, out);
    let rss = [
        front_rss,
        fanout.role_rss_mb("coordinator")?,
        fanout.role_rss_mb("worker")?,
    ];
    fanout.shutdown()?;

    let projection = project(&family_source.base.hypergraph);
    let mut files = vec![inputs.read_only.path.clone()];
    files.extend(inputs.writable.iter().map(|w| w.base.path.clone()));
    let set = TraceSet {
        files,
        bytes: inputs.read_only.bytes + inputs.writable.iter().map(|w| w.base.bytes).sum::<u64>(),
        manifest,
        exact: &family_source.base.hypergraph,
        exact_projection: &projection,
        exact_reference: &family_source.reference,
        approx: &family_source.base.hypergraph,
        approx_reference: &family_source.reference,
        samples: SAMPLES,
    };
    replay.probe_unreached(&set, settings.seed, out)?;
    layers::report(out, &replay, &set, &tally, &shard_ms, &beyond, rss);
    let pool_reads = logs.iter().flatten().filter(|r| r.class == "hit").count();
    let pool_hits = logs
        .iter()
        .flatten()
        .filter(|r| r.class == "hit" && r.cache.as_deref() == Some("hit"))
        .count();
    layers::split_note(
        out,
        &format!("{pool_hits} of {pool_reads} pool reads after warm-up were cache hits (all)"),
        pool_hits == pool_reads,
    );
    layers::report_traced_latency(out, &write_read_latencies(&logs), &latencies(&logs, "hit"));
    Ok(())
}

/// Replays every traced request in-process: pool reads and reads after
/// writes through projection and sampling, mutates through each client's
/// own streaming writer (bootstrapped like the server's), hits as requests
/// without engine work.
fn replay_traffic(
    replay: &mut Replay,
    inputs: &Inputs,
    scripts: &[WarmScript],
    logs: &[Vec<Record<Op>>],
    served_totals: &[Vec<(Vec<NodeId>, f64)>],
    out: &mut Outcome,
) {
    for ((script, log), served) in scripts.iter().zip(logs).zip(served_totals) {
        let base = &script.writable.base.hypergraph;
        let mut stream = replay.bootstrap(base);
        let mut served = served.iter();
        for record in log {
            match &record.op {
                Op::Pool { query } => {
                    let (_, engine) = replay.approx(
                        "request.pool",
                        &inputs.read_only.hypergraph,
                        SAMPLES,
                        script.pool_seeds[*query],
                    );
                    replay.serve_self(record.latency_ms, engine);
                }
                Op::Hit { .. } => replay.no_engine("request.hit", record.latency_ms),
                Op::Insert { edge } => {
                    let (_, engine) = replay.insert("request.insert", &mut stream, edge);
                    replay.serve_self(record.latency_ms, engine);
                    if let Some((served_edge, total)) = served.next() {
                        out.check(
                            "replayed insert total",
                            if served_edge == edge
                                && stream.counts().total().to_bits() == total.to_bits()
                            {
                                Ok(())
                            } else {
                                Err(format!(
                                    "served {total}, replayed {}",
                                    stream.counts().total()
                                ))
                            },
                        );
                    }
                }
                Op::Remove { id } => {
                    let (removed, engine) =
                        replay.remove("request.remove", &mut stream, *id as u32);
                    replay.serve_self(record.latency_ms, engine);
                    out.check(
                        "replayed remove",
                        if removed
                            && stream.counts().total() == script.writable.reference.instances()
                        {
                            Ok(())
                        } else {
                            Err(format!("removing {id} did not restore the total"))
                        },
                    );
                }
                Op::Raw { edge } => {
                    let hypergraph = match edge {
                        Some(edge) => with_edge(base, edge),
                        None => base.clone(),
                    };
                    let (estimate, engine) =
                        replay.approx("request.raw", &hypergraph, SAMPLES, script.raw_seed);
                    replay.serve_self(record.latency_ms, engine);
                    if edge.is_none() {
                        replay.rel_errs.push(oracle::rel_err(
                            estimate.as_slice(),
                            script.writable.reference.counts.as_slice(),
                        ));
                    }
                }
            }
        }
    }
}
