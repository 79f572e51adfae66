//! `cold-count`: a standalone server and 2 keep-alive clients, one per
//! request class, taking turns from one thread, whose every request carries
//! a fresh seed, so every request misses the result cache and the engine
//! layers do the work.
//!
//! - `exact` (the heavy class): MoCHy-E on a threads-like dataset with high
//!   projected degree.
//! - `approx` (the light class): MoCHy-A+ with 100 samples on a
//!   co-authorship-like dataset, where re-projecting the snapshot for each
//!   request is most of the engine time (the small sampling ratios of the
//!   paper's Fig. 8).

use std::sync::Arc;
use std::time::{Duration, Instant};

use mochy_datagen::DomainKind;
use mochy_projection::project;

use crate::http::Response;
use crate::inputs::{DatasetFile, DatasetSpec, Reference, Rng, WorkDir};
use crate::layers::{self, Replay, TraceSet};
use crate::load::{self, drive, latencies, Booted, Record, Request, Script, Stop, Tally};
use crate::oracle::{self, Expected};
use crate::procs::{ServerProc, Topology};
use crate::stats::{median, summarize};
use crate::{Outcome, Settings};

const EXACT: DatasetSpec = DatasetSpec {
    kind: DomainKind::Threads,
    components: 20,
    nodes: 60,
    edges: 60,
};
const APPROX: DatasetSpec = DatasetSpec {
    kind: DomainKind::Coauthorship,
    components: 8,
    nodes: 1000,
    edges: 1000,
};
/// MoCHy-A+ samples per `approx` request.
const SAMPLES: usize = 100;
/// The class each client sends, one client per class. The clients take
/// turns (see [`drive`]), so neither class runs beside the other and each
/// class's latency is its own engine work.
const CLASSES: [&str; 2] = ["exact", "approx"];
/// Warm-up requests per client.
const WARM_UP: usize = 2;
/// Rounds per untraced run. Each round boots its own server, warms it up
/// and measures for a fifth of the run. `setup_s` and `peak_rss_mb` (after
/// warm-up) are medians over the rounds, latencies are pooled.
const ROUNDS: usize = 5;
/// Requests per client in the traced run's prefix.
const TRACE_REQUESTS: usize = 24;
/// Approx answers per round whose relative error is averaged.
const REL_ERR_REQUESTS: usize = 16;

#[derive(Debug, Clone)]
enum Op {
    Exact { seed: u64 },
    Approx { seed: u64 },
}

/// What every client checks against.
struct Answers {
    exact: Expected,
    approx_wedges: u64,
    approx_exact: Vec<f64>,
}

struct ColdScript {
    class: &'static str,
    next_seed: u64,
    answers: Arc<Answers>,
    pick: Rng,
    approx_seen: usize,
    rel_errs: Vec<f64>,
    /// Approx answers kept for the in-process check after the timed loop.
    kept: Vec<(u64, String)>,
}

impl ColdScript {
    fn new(client: usize, round: usize, seed: u64, answers: &Arc<Answers>) -> Self {
        let mut rng = Rng::new(seed, &format!("cold-{round}-{client}"));
        Self {
            class: CLASSES[client],
            // Seeds count up from a random base, so none repeats.
            next_seed: (rng.request_seed() >> 4) + ((client as u64) << 40),
            answers: Arc::clone(answers),
            pick: rng,
            approx_seen: 0,
            rel_errs: Vec::new(),
            kept: Vec::new(),
        }
    }
}

impl Script for ColdScript {
    type Op = Op;

    fn next(&mut self) -> Request<Op> {
        let class = self.class;
        let seed = self.next_seed;
        self.next_seed += 1;
        let (body, op) = if class == "exact" {
            (
                format!("{{\"dataset\":\"threads\",\"method\":\"mochy-e\",\"threads\":1,\"seed\":{seed}}}"),
                Op::Exact { seed },
            )
        } else {
            (
                format!(
                    "{{\"dataset\":\"coauth\",\"method\":\"mochy-a+\",\"samples\":{SAMPLES},\
                     \"threads\":1,\"seed\":{seed}}}"
                ),
                Op::Approx { seed },
            )
        };
        Request {
            class,
            path: "/v1/count",
            body,
            op,
        }
    }

    fn check(&mut self, request: &Request<Op>, response: &Response) -> Result<(), String> {
        if !response.is_miss() {
            return Err(format!(
                "x-mochy-cache {:?} for a fresh seed",
                response.cache
            ));
        }
        match request.op {
            Op::Exact { seed } => {
                oracle::check_count(&response.body, seed, &self.answers.exact).map(|_| ())
            }
            Op::Approx { seed } => {
                let body = oracle::parse_count(&response.body)?;
                if body.seed != seed
                    || body.num_hyperwedges != Some(self.answers.approx_wedges)
                    || body.samples_drawn != Some(SAMPLES as u64)
                {
                    return Err(format!(
                        "approx answer for seed {seed} reports seed {}, {:?} hyperwedges, {:?} samples",
                        body.seed, body.num_hyperwedges, body.samples_drawn
                    ));
                }
                if self.approx_seen < REL_ERR_REQUESTS {
                    self.rel_errs
                        .push(oracle::rel_err(&body.counts, &self.answers.approx_exact));
                }
                if self.approx_seen == 0 || self.pick.below(32) == 0 {
                    self.kept.push((seed, response.body.clone()));
                }
                self.approx_seen += 1;
                Ok(())
            }
        }
    }
}

/// The generated inputs of one run.
struct Inputs {
    work: WorkDir,
    exact: DatasetFile,
    approx: DatasetFile,
    exact_ref: Reference,
    approx_ref: Reference,
    answers: Arc<Answers>,
}

fn inputs(settings: &Settings) -> Result<Inputs, String> {
    let work = WorkDir::create("cold-count")?;
    let exact = DatasetFile::write(work.path(), "threads", &EXACT.generate(settings.seed))?;
    let approx = DatasetFile::write(work.path(), "coauth", &APPROX.generate(settings.seed))?;
    let exact_ref = Reference::compute(&exact.hypergraph);
    let approx_ref = Reference::compute(&approx.hypergraph);
    let answers = Arc::new(Answers {
        exact: Expected {
            counts: exact_ref.counts.as_slice().to_vec(),
            num_hyperwedges: exact_ref.hyperwedges,
            samples_drawn: None,
        },
        approx_wedges: approx_ref.hyperwedges,
        approx_exact: approx_ref.counts.as_slice().to_vec(),
    });
    Ok(Inputs {
        work,
        exact,
        approx,
        exact_ref,
        approx_ref,
        answers,
    })
}

/// Starts the server and warms it up with `WARM_UP` requests per client.
fn boot(settings: &Settings, inputs: &Inputs, round: usize) -> Result<Booted<ColdScript>, String> {
    let started = Instant::now();
    let mut args = inputs.exact.load_args().to_vec();
    args.extend(inputs.approx.load_args());
    let server = ServerProc::spawn(&settings.server, "standalone", &args)?;
    let scripts = (0..CLASSES.len())
        .map(|client| ColdScript::new(client, round, settings.seed, &inputs.answers))
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

/// Checks the kept approx answers against the in-process engine.
fn check_kept(inputs: &Inputs, scripts: &[ColdScript], out: &mut Outcome) {
    for (seed, body) in scripts.iter().flat_map(|script| &script.kept) {
        let expected = oracle::approx_expected(&inputs.approx.hypergraph, SAMPLES, *seed);
        out.check(
            "approx answer vs MotifEngine::count",
            oracle::check_count(body, *seed, &expected).map(|_| ()),
        );
    }
}

fn dataset_counters(inputs: &Inputs, out: &mut Outcome) {
    for (name, file, reference) in [
        ("threads", &inputs.exact, &inputs.exact_ref),
        ("coauth", &inputs.approx, &inputs.approx_ref),
    ] {
        out.counter(
            &format!("dataset.{name}.edges"),
            file.hypergraph.num_edges() as f64,
            None,
        );
        out.counter(
            &format!("dataset.{name}.hyperwedges"),
            reference.hyperwedges as f64,
            None,
        );
        out.counter(
            &format!("dataset.{name}.pairs"),
            reference.pairs as f64,
            None,
        );
        out.counter(
            &format!("dataset.{name}.instances"),
            reference.instances(),
            None,
        );
    }
    out.note(format!(
        "cold-count: threads = {} -> {} edges; coauth = {} -> {} edges",
        EXACT.describe(),
        inputs.exact.hypergraph.num_edges(),
        APPROX.describe(),
        inputs.approx.hypergraph.num_edges()
    ));
}

/// Runs the workload.
pub fn run(settings: &Settings) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let inputs = inputs(settings)?;
    dataset_counters(&inputs, &mut out);
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
        check_kept(inputs, &scripts, out);
        for script in &mut scripts {
            script.kept.clear();
            script.rel_errs.clear();
            script.approx_seen = 0;
        }
        let deadline = Instant::now() + per_round;
        let (round_logs, took) =
            load::timed(|| drive(&mut clients, &mut scripts, Stop::At(deadline)));
        drop(clients);
        loaded_rss.push(topology.peak_rss_mb()?);
        topology.shutdown()?;
        check_kept(inputs, &scripts, out);
        elapsed += took;
        logs.extend(round_logs);
        rel_errs.extend(scripts.iter().flat_map(|s| s.rel_errs.iter().copied()));
    }

    let tally = Tally::of(&logs);
    out.add_requests(&tally);
    if tally.hits > 0 {
        out.fail(format!(
            "{} cache hits; every cold-count request must miss",
            tally.hits
        ));
    }
    let heavy = latencies(&logs, "exact");
    let light = latencies(&logs, "approx");
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
    for (name, summary) in [("exact", &heavy), ("approx", &light)] {
        out.note(format!(
            "{name}_p50_ms = {:.4}, {name}_p75_ms = {:.4}, {name}_tail_ms = {:.4} at p{} of {} samples",
            summary.p50, summary.p75, summary.tail, summary.tail_pct, summary.count
        ));
    }
    if !rel_errs.is_empty() {
        out.note(format!(
            "approx_rel_err = {:.6} over {} answers",
            rel_errs.iter().sum::<f64>() / rel_errs.len() as f64,
            rel_errs.len()
        ));
    }
    out.note(format!(
        "setup_s per round: {setups:?}; peak_rss_mb per round: {warm_rss:?}; loaded_peak_rss_mb per round: {loaded_rss:?}; {} requests in {:.3} s, {} hits",
        tally.attempted,
        elapsed.as_secs_f64(),
        tally.hits
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
    out.add_requests(&Tally::of(&warm));
    check_kept(inputs, &scripts, out);
    for script in &mut scripts {
        script.kept.clear();
    }
    let logs = drive(&mut clients, &mut scripts, Stop::After(TRACE_REQUESTS));
    drop(clients);
    let front_rss = topology.peak_rss_mb()?;
    topology.shutdown()?;
    check_kept(inputs, &scripts, out);
    let tally = Tally::of(&logs);
    out.add_requests(&tally);
    if tally.hits > 0 {
        out.fail(format!(
            "{} cache hits; every cold-count request must miss",
            tally.hits
        ));
    }

    let mut replay = Replay::new();
    replay_traffic(&mut replay, inputs, &logs, out);

    let manifest = layers::write_family(inputs.work.path(), "threads", &inputs.exact.hypergraph)?;
    let fanout = layers::boot_fanout(&settings.server, "threads", &manifest)?;
    let (shard_ms, beyond) =
        layers::probe_fanout_http(&fanout, "threads", &inputs.exact_ref, settings.seed, out);
    let rss = [
        front_rss,
        fanout.role_rss_mb("coordinator")?,
        fanout.role_rss_mb("worker")?,
    ];
    fanout.shutdown()?;

    let exact_projection = project(&inputs.exact.hypergraph);
    let set = TraceSet {
        files: vec![inputs.exact.path.clone(), inputs.approx.path.clone()],
        bytes: inputs.exact.bytes + inputs.approx.bytes,
        manifest,
        exact: &inputs.exact.hypergraph,
        exact_projection: &exact_projection,
        exact_reference: &inputs.exact_ref,
        approx: &inputs.approx.hypergraph,
        approx_reference: &inputs.approx_ref,
        samples: SAMPLES,
    };
    replay.probe_unreached(&set, settings.seed, out)?;
    layers::report(out, &replay, &set, &tally, &shard_ms, &beyond, rss);
    layers::report_traced_latency(out, &latencies(&logs, "exact"), &latencies(&logs, "approx"));
    let project_ms = layers::metric_value(out, "projection.project_ms");
    let sample_ms = layers::metric_value(out, "core.sample.count_ms");
    layers::split_note(
        out,
        &format!(
            "projection is {project_ms:.3} of {:.3} ms approx engine time (at least half)",
            project_ms + sample_ms
        ),
        project_ms >= 0.5 * (project_ms + sample_ms),
    );
    let exact_ms = layers::metric_value(out, "core.exact.count_ms");
    let exact_p50 = layers::metric_value(out, "traced.heavy_p50_ms");
    layers::split_note(
        out,
        &format!("MoCHy-E is {exact_ms:.3} of {exact_p50:.3} ms exact_p50 (at least 90%)"),
        exact_ms >= 0.9 * exact_p50,
    );
    layers::split_note(out, "serve.cache.hit_ratio is 0", tally.hits == 0);
    Ok(())
}

/// Replays each request of the traced prefix in-process, checking the
/// replayed answer against the reference.
fn replay_traffic(
    replay: &mut Replay,
    inputs: &Inputs,
    logs: &[Vec<Record<Op>>],
    out: &mut Outcome,
) {
    for record in logs.iter().flatten() {
        match record.op {
            Op::Exact { .. } => {
                let (counts, engine) = replay.exact("request.exact", &inputs.exact.hypergraph);
                out.check(
                    "replayed MoCHy-E",
                    layers::same_counts(&counts, &inputs.exact_ref.counts),
                );
                replay.serve_self(record.latency_ms, engine);
            }
            Op::Approx { seed } => {
                let (estimate, engine) =
                    replay.approx("request.approx", &inputs.approx.hypergraph, SAMPLES, seed);
                replay.rel_errs.push(oracle::rel_err(
                    estimate.as_slice(),
                    inputs.approx_ref.counts.as_slice(),
                ));
                replay.serve_self(record.latency_ms, engine);
            }
        }
    }
}
