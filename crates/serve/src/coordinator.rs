//! Coordinator-side scatter-gather over shard workers.
//!
//! The coordinator owns the `MOCHYSHD` manifest of a distributed dataset
//! but none of its edges. A `POST /v1/count` for that dataset is fanned out
//! as one `POST /v1/internal/count-shard` per shard across the configured
//! worker set; the returned [`ShardPartial`]s are validated against the
//! manifest and merged by the caller with
//! [`merge_partials`](mochy_core::shard::merge_partials).
//!
//! # Why the merged answer is bit-identical to unsharded MoCHy-E
//!
//! Each partial is computed by the worker with
//! [`mochy_core::shard::count_shard_partial`]: one MoCHy-E pass over the
//! centres in the shard's edge span, on the full assembled hypergraph. So a
//! shard's partial does not depend on *which* worker computed it, when, or
//! after how many retries. [`Coordinator::scatter_gather`] returns the
//! partials sorted by shard index (`0..K-1`), and `merge_partials` folds
//! them in that fixed order using exact `f64` integer additions — the merged
//! counts equal the single-process sharded run bit for bit, which in turn
//! equals plain MoCHy-E. Worker failures, reassignment, and retry order
//! therefore cannot perturb a single bit of the result. A partial whose
//! `schema` tag is not the current one (a worker running an older build) is
//! rejected by the decoder like any other malformed answer, so a mixed
//! fleet fails with a `fanout-failed` 502 instead of miscounting.
//!
//! # Failure semantics
//!
//! Every worker request carries a whole-exchange deadline. A worker that
//! errors or stalls is marked unhealthy and its remaining shards are
//! reassigned to surviving workers, each shard getting at most `1 + retries`
//! total attempts. Shards still unserved after that surface as
//! [`FanoutError::ShardsFailed`] with the full per-worker attempt log, which
//! the API layer renders under the error envelope's `detail` field.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use mochy_core::shard::ShardPartial;
use mochy_hypergraph::{read_manifest_file, ShardManifest};
use mochy_json::JsonValue;

use crate::client::HttpClient;

/// One worker in the coordinator's table.
#[derive(Debug)]
struct WorkerEntry {
    addr: String,
    /// Cleared when a request to this worker fails; restored by a
    /// successful health probe (or when every worker is marked down, to
    /// avoid deadlocking on a fully-unhealthy table).
    healthy: AtomicBool,
}

/// One failed attempt at serving a shard.
#[derive(Debug, Clone)]
pub struct Attempt {
    /// The worker address that was asked.
    pub worker: String,
    /// Why the attempt failed.
    pub error: String,
}

/// A shard that no worker managed to serve.
#[derive(Debug, Clone)]
pub struct ShardFailure {
    /// The shard index.
    pub shard: usize,
    /// Every attempt made, in order.
    pub attempts: Vec<Attempt>,
}

/// Why a scatter-gather pass failed.
#[derive(Debug)]
pub enum FanoutError {
    /// The coordinator has an empty worker table.
    NoWorkers,
    /// One or more shards stayed unserved after retries.
    ShardsFailed {
        /// The unserved shards with their attempt logs.
        failures: Vec<ShardFailure>,
        /// How many shards *were* gathered successfully.
        gathered: usize,
    },
}

impl std::fmt::Display for FanoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FanoutError::NoWorkers => write!(f, "no workers configured"),
            FanoutError::ShardsFailed { failures, gathered } => write!(
                f,
                "{} shard(s) unserved after retries ({gathered} gathered)",
                failures.len()
            ),
        }
    }
}

/// The coordinator's view of a distributed dataset.
#[derive(Debug)]
pub struct Coordinator {
    dataset: String,
    manifest: ShardManifest,
    workers: Vec<WorkerEntry>,
    deadline: Duration,
    retries: usize,
}

impl Coordinator {
    /// Boots a coordinator for `dataset`: reads (and fully validates) the
    /// manifest — the coordinator never touches the shard files themselves —
    /// and records the worker table.
    pub fn boot(
        dataset: impl Into<String>,
        manifest_path: &std::path::Path,
        workers: Vec<String>,
        deadline: Duration,
        retries: usize,
    ) -> Result<Self, String> {
        let manifest = read_manifest_file(manifest_path)
            .map_err(|error| format!("reading shard manifest: {error}"))?;
        Ok(Self {
            dataset: dataset.into(),
            manifest,
            workers: workers
                .into_iter()
                .map(|addr| WorkerEntry {
                    addr,
                    healthy: AtomicBool::new(true),
                })
                .collect(),
            deadline,
            retries,
        })
    }

    /// The distributed dataset's name.
    pub fn dataset(&self) -> &str {
        &self.dataset
    }

    /// The number of shards in the family.
    pub fn num_shards(&self) -> usize {
        self.manifest.num_shards()
    }

    /// The node count recorded in the manifest.
    pub fn num_nodes(&self) -> usize {
        self.manifest.num_nodes as usize
    }

    /// The hyperedge count recorded in the manifest.
    pub fn num_edges(&self) -> usize {
        self.manifest.num_edges as usize
    }

    /// The per-request deadline, in milliseconds.
    pub fn deadline_ms(&self) -> u64 {
        self.deadline.as_millis() as u64
    }

    /// The per-shard retry budget (attempts beyond the first).
    pub fn retries(&self) -> usize {
        self.retries
    }

    /// Probes every worker's `/v1/healthz`, updating the health table, and
    /// returns `(addr, healthy)` per worker.
    pub fn probe_workers(&self) -> Vec<(String, bool)> {
        let deadline = self.deadline.min(Duration::from_secs(1));
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .workers
                .iter()
                .map(|entry| {
                    scope.spawn(move || {
                        let mut client = HttpClient::new(entry.addr.clone());
                        let healthy = client
                            .get("/v1/healthz", deadline)
                            .map(|response| response.status == 200)
                            .unwrap_or(false);
                        entry.healthy.store(healthy, Ordering::Relaxed);
                        (entry.addr.clone(), healthy)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| match handle.join() {
                    Ok(pair) => pair,
                    Err(_) => ("<probe panicked>".to_string(), false),
                })
                .collect()
        })
    }

    /// Scatters one `count-shard` request per shard across the worker set
    /// and gathers the partials, sorted by shard index.
    ///
    /// Shards are round-robined over the currently-healthy workers (all
    /// workers, if none are marked healthy — a stale health table must not
    /// fail a query that could succeed). Each worker's shards are served
    /// sequentially over one keep-alive connection; workers run in parallel.
    /// A failed attempt marks the worker unhealthy and sends the shard —
    /// and the worker's remaining shards — to the retry pass, which walks
    /// the *other* workers until the shard is served or its attempt budget
    /// (`1 + retries`) is spent.
    pub fn scatter_gather(&self, threads: usize) -> Result<Vec<ShardPartial>, FanoutError> {
        if self.workers.is_empty() {
            return Err(FanoutError::NoWorkers);
        }
        let num_shards = self.manifest.num_shards();

        // Assign shards round-robin over healthy workers.
        let mut eligible: Vec<usize> = (0..self.workers.len())
            .filter(|&w| {
                self.workers
                    .get(w)
                    .is_some_and(|entry| entry.healthy.load(Ordering::Relaxed))
            })
            .collect();
        if eligible.is_empty() {
            eligible = (0..self.workers.len()).collect();
        }
        let mut assignments: Vec<Vec<usize>> = vec![Vec::new(); self.workers.len()];
        for shard in 0..num_shards {
            if let Some(slot) = eligible
                .get(shard % eligible.len())
                .and_then(|&w| assignments.get_mut(w))
            {
                slot.push(shard);
            }
        }

        // Scatter: one thread per worker with an assignment, each serving
        // its shard list sequentially over one keep-alive connection.
        let mut gathered: Vec<Option<ShardPartial>> = Vec::new();
        gathered.resize_with(num_shards, || None);
        let mut pending: Vec<(usize, Vec<Attempt>)> = Vec::new();
        let outcomes = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .workers
                .iter()
                .zip(assignments.iter())
                .filter(|(_, shards)| !shards.is_empty())
                .map(|(entry, shards)| {
                    scope.spawn(move || {
                        let mut served: Vec<(usize, ShardPartial)> = Vec::new();
                        let mut failed: Vec<(usize, Attempt)> = Vec::new();
                        let mut client = HttpClient::new(entry.addr.clone());
                        let mut broken = false;
                        for &shard in shards {
                            if broken {
                                // Don't burn the deadline shard-by-shard on
                                // a worker that already failed: queue the
                                // rest for reassignment immediately.
                                failed.push((
                                    shard,
                                    Attempt {
                                        worker: entry.addr.clone(),
                                        error: "skipped: worker failed earlier in this scatter"
                                            .to_string(),
                                    },
                                ));
                                continue;
                            }
                            match self.request_shard(&mut client, shard, threads) {
                                Ok(partial) => served.push((shard, partial)),
                                Err(error) => {
                                    entry.healthy.store(false, Ordering::Relaxed);
                                    broken = true;
                                    failed.push((
                                        shard,
                                        Attempt {
                                            worker: entry.addr.clone(),
                                            error,
                                        },
                                    ));
                                }
                            }
                        }
                        (served, failed)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().unwrap_or_default())
                .collect::<Vec<_>>()
        });
        for (served, failed) in outcomes {
            for (shard, partial) in served {
                if let Some(slot) = gathered.get_mut(shard) {
                    *slot = Some(partial);
                }
            }
            for (shard, attempt) in failed {
                pending.push((shard, vec![attempt]));
            }
        }

        // Retry pass: walk the other workers for each unserved shard, newest
        // health knowledge first, within the per-shard attempt budget.
        let mut failures: Vec<ShardFailure> = Vec::new();
        for (shard, mut attempts) in pending {
            let budget = 1 + self.retries;
            let mut served = None;
            for entry in self
                .workers
                .iter()
                .filter(|entry| entry.healthy.load(Ordering::Relaxed))
                .chain(
                    self.workers
                        .iter()
                        .filter(|entry| !entry.healthy.load(Ordering::Relaxed)),
                )
            {
                if attempts.len() >= budget {
                    break;
                }
                if attempts.iter().any(|attempt| attempt.worker == entry.addr) {
                    continue;
                }
                let mut client = HttpClient::new(entry.addr.clone());
                match self.request_shard(&mut client, shard, threads) {
                    Ok(partial) => {
                        entry.healthy.store(true, Ordering::Relaxed);
                        served = Some(partial);
                        break;
                    }
                    Err(error) => {
                        entry.healthy.store(false, Ordering::Relaxed);
                        attempts.push(Attempt {
                            worker: entry.addr.clone(),
                            error,
                        });
                    }
                }
            }
            match served {
                Some(partial) => {
                    if let Some(slot) = gathered.get_mut(shard) {
                        *slot = Some(partial);
                    }
                }
                None => failures.push(ShardFailure { shard, attempts }),
            }
        }

        if failures.is_empty() {
            // `gathered` is indexed by shard, so this collect is already the
            // fixed 0..K-1 merge order the bit-identity argument needs.
            let partials: Vec<ShardPartial> = gathered.into_iter().flatten().collect();
            if partials.len() == num_shards {
                return Ok(partials);
            }
            // Unreachable in practice: every shard is either gathered or in
            // `failures`. Surface it as a failure rather than merging short.
            let missing: Vec<ShardFailure> = (0..num_shards)
                .filter(|&shard| partials.iter().all(|partial| partial.shard != shard))
                .map(|shard| ShardFailure {
                    shard,
                    attempts: Vec::new(),
                })
                .collect();
            return Err(FanoutError::ShardsFailed {
                gathered: partials.len(),
                failures: missing,
            });
        }
        failures.sort_by_key(|failure| failure.shard);
        let gathered_count = gathered.iter().filter(|slot| slot.is_some()).count();
        Err(FanoutError::ShardsFailed {
            failures,
            gathered: gathered_count,
        })
    }

    /// One `count-shard` exchange with one worker, validated against the
    /// manifest. Returns a human-readable error string for the attempt log.
    fn request_shard(
        &self,
        client: &mut HttpClient,
        shard: usize,
        threads: usize,
    ) -> Result<ShardPartial, String> {
        let body = JsonValue::Object(vec![
            (
                "dataset".to_string(),
                JsonValue::String(self.dataset.clone()),
            ),
            ("shard".to_string(), JsonValue::Number(shard as f64)),
            ("threads".to_string(), JsonValue::Number(threads as f64)),
        ])
        .render();
        let response = client
            .post("/v1/internal/count-shard", &body, self.deadline)
            .map_err(|error| error.to_string())?;
        if response.status != 200 {
            return Err(format!(
                "worker answered {}: {}",
                response.status,
                response.body.chars().take(200).collect::<String>()
            ));
        }
        let parsed = mochy_json::parse(&response.body)
            .map_err(|error| format!("unparseable worker response: {error}"))?;
        let partial = ShardPartial::from_json(&parsed)
            .map_err(|error| format!("invalid shard partial: {error}"))?;
        if partial.shard != shard {
            return Err(format!(
                "worker returned shard {} for a shard-{shard} request",
                partial.shard
            ));
        }
        let expected = self
            .manifest
            .boundaries()
            .get(shard)
            .cloned()
            .ok_or_else(|| format!("shard {shard} outside the manifest"))?;
        if partial.edges != expected {
            return Err(format!(
                "worker's edge span {:?} disagrees with the manifest's {expected:?}",
                partial.edges
            ));
        }
        Ok(partial)
    }
}
