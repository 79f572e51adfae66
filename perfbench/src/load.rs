//! Closed-loop load: each client sends its next request only after the
//! previous answer arrived and was checked.

use std::time::{Duration, Instant};

use crate::http::{Client, Response};
use crate::procs::Topology;

/// One request a script wants sent.
#[derive(Debug, Clone)]
pub struct Request<Op> {
    /// Latency class, e.g. `exact` or `hit`.
    pub class: &'static str,
    /// Route.
    pub path: &'static str,
    /// JSON body.
    pub body: String,
    /// What the request asks, for checking and for the traced replay.
    pub op: Op,
}

/// One completed (or failed) request.
#[derive(Debug, Clone)]
pub struct Record<Op> {
    /// Latency class.
    pub class: &'static str,
    /// What was asked.
    pub op: Op,
    /// Client-side latency from the first byte written to the last byte read.
    pub latency_ms: f64,
    /// HTTP status, 0 when the exchange itself failed.
    pub status: u16,
    /// The `x-mochy-cache` header.
    pub cache: Option<String>,
    /// Response body size.
    pub bytes: usize,
    /// Why the answer was wrong, if it was.
    pub error: Option<String>,
}

/// A client's request sequence and its answer checks.
pub trait Script: Send {
    /// What the request sequence carries for each request.
    type Op: Clone + Send;
    /// The next request.
    fn next(&mut self) -> Request<Self::Op>;
    /// Checks the answer to `request`; `Err` marks the request failed.
    fn check(&mut self, request: &Request<Self::Op>, response: &Response) -> Result<(), String>;
}

/// When a client stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// Before the first request that would start after this instant.
    At(Instant),
    /// After this many requests.
    After(usize),
}

/// A workload's processes after set-up, with one connected, warmed-up
/// client per script.
pub struct Booted<S: Script> {
    /// The running processes.
    pub topology: Topology,
    /// One keep-alive connection per script.
    pub clients: Vec<Client>,
    /// The request sequences, past their warm-up.
    pub scripts: Vec<S>,
    /// The warm-up requests.
    pub warm: Vec<Vec<Record<S::Op>>>,
    /// From `started` until the warm-up was done.
    pub setup: Duration,
}

/// Connects one client per script to the topology's front and sends each
/// its first `requests` requests; set-up time runs from `started`.
pub fn warm_up<S: Script>(
    topology: Topology,
    mut scripts: Vec<S>,
    requests: usize,
    started: Instant,
) -> Booted<S> {
    let mut clients: Vec<Client> = scripts
        .iter()
        .map(|_| Client::new(topology.front()))
        .collect();
    let warm = drive(&mut clients, &mut scripts, Stop::After(requests));
    Booted {
        topology,
        clients,
        scripts,
        warm,
        setup: started.elapsed(),
    }
}

/// Sends each script's requests over its client's own keep-alive
/// connection until `stop`, and returns each client's records in order.
/// The clients take turns from the calling thread, one request each per
/// turn, so one request is in flight at a time and no class runs beside
/// another; a turn is started only whole, so every client sends the same
/// number of requests. Connections stay open for the next call, so a
/// warmed-up client keeps its server-side worker.
pub fn drive<S: Script>(
    clients: &mut [Client],
    scripts: &mut [S],
    stop: Stop,
) -> Vec<Vec<Record<S::Op>>> {
    let mut logs: Vec<Vec<Record<S::Op>>> = scripts.iter().map(|_| Vec::new()).collect();
    loop {
        let sent = logs.first().map_or(0, Vec::len);
        let done = match stop {
            Stop::At(deadline) => Instant::now() >= deadline,
            Stop::After(count) => sent >= count,
        };
        if done {
            return logs;
        }
        for ((client, script), records) in clients
            .iter_mut()
            .zip(scripts.iter_mut())
            .zip(logs.iter_mut())
        {
            records.push(exchange(client, script));
        }
    }
}

fn exchange<S: Script>(client: &mut Client, script: &mut S) -> Record<S::Op> {
    let request = script.next();
    let started = Instant::now();
    let answer = client.post(request.path, &request.body);
    let latency_ms = started.elapsed().as_secs_f64() * 1e3;
    let (status, cache, bytes, error) = match answer {
        Ok(response) => {
            let error = if response.status == 200 {
                script.check(&request, &response).err()
            } else {
                Some(format!("status {}: {}", response.status, response.body))
            };
            (
                response.status,
                response.cache.clone(),
                response.body.len(),
                error,
            )
        }
        Err(why) => (0, None, 0, Some(why)),
    };
    Record {
        class: request.class,
        op: request.op,
        latency_ms,
        status,
        cache,
        bytes,
        error,
    }
}

/// Requests, failures and per-class latencies of a set of client logs.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests sent.
    pub attempted: usize,
    /// Requests that failed or were answered wrongly.
    pub failed: usize,
    /// The first few failure reasons.
    pub errors: Vec<String>,
    /// Cache hits reported by `x-mochy-cache`.
    pub hits: usize,
    /// Cache misses reported by `x-mochy-cache`.
    pub misses: usize,
    /// Requests answered 200.
    pub ok: usize,
    /// Requests answered otherwise (or not at all).
    pub other: usize,
    /// Response body bytes.
    pub bytes: usize,
}

impl Tally {
    /// Tallies every record of every client.
    pub fn of<Op>(logs: &[Vec<Record<Op>>]) -> Self {
        let mut tally = Tally::default();
        for record in logs.iter().flatten() {
            tally.attempted += 1;
            tally.bytes += record.bytes;
            if record.status == 200 {
                tally.ok += 1;
            } else {
                tally.other += 1;
            }
            match record.cache.as_deref() {
                Some("hit") => tally.hits += 1,
                Some("miss") => tally.misses += 1,
                _ => {}
            }
            if let Some(error) = &record.error {
                tally.failed += 1;
                if tally.errors.len() < 5 {
                    tally.errors.push(format!("{}: {error}", record.class));
                }
            }
        }
        tally
    }
}

/// Latencies in milliseconds of the records of class `class`.
pub fn latencies<Op>(logs: &[Vec<Record<Op>>], class: &str) -> Vec<f64> {
    logs.iter()
        .flatten()
        .filter(|record| record.class == class)
        .map(|record| record.latency_ms)
        .collect()
}

/// Elapsed wall time of a closure, with its value.
pub fn timed<T>(body: impl FnOnce() -> T) -> (T, Duration) {
    let started = Instant::now();
    let value = body();
    (value, started.elapsed())
}
