//! Distributed scatter-gather, end to end over real TCP: a coordinator and
//! three shard workers on ephemeral ports, exercising bit-identity against
//! the unsharded count, retry after a worker dies mid-sequence,
//! deadline-triggered reassignment around a stalling worker, the uniform
//! fan-out error envelope (also for a worker answering in an older partial
//! schema), and byte-identical cache hits through the coordinator.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mochy_hypergraph::{manifest_file_path, write_shards, Hypergraph, HypergraphBuilder};
use mochy_json::{self as json, JsonValue};
use mochy_serve::api::Role;
use mochy_serve::client::HttpClient;
use mochy_serve::coordinator::Coordinator;
use mochy_serve::registry::Registry;
use mochy_serve::server::{Server, ServerConfig};
use mochy_serve::worker::WorkerState;

const DEADLINE: Duration = Duration::from_secs(30);
const NUM_SHARDS: usize = 3;

/// A hypergraph big enough that every shard holds edges and motifs cross
/// shard boundaries.
fn dataset() -> Hypergraph {
    let mut builder = HypergraphBuilder::new();
    for e in 0u32..60 {
        let base = e % 13;
        builder.add_edge(vec![base, base + 2, (base * 5) % 17, (e / 3) % 9 + 1]);
    }
    builder.build().expect("dataset builds")
}

/// Writes the shard family to a unique temp stem; returns (stem, manifest).
fn write_family(tag: &str) -> (PathBuf, PathBuf) {
    let stem = std::env::temp_dir().join(format!("mochy-distributed-{tag}-{}", std::process::id()));
    write_shards(&dataset(), &stem, NUM_SHARDS).expect("write shard family");
    let manifest = manifest_file_path(&stem);
    (stem, manifest)
}

fn cleanup_family(stem: &Path, manifest: &Path) {
    let _ = std::fs::remove_file(manifest);
    for shard in 0..NUM_SHARDS {
        let _ = std::fs::remove_file(mochy_hypergraph::shard_file_path(stem, shard));
    }
}

fn quiet_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        queue_depth: 8,
        ..ServerConfig::default()
    }
}

fn boot_worker(manifest: &Path, shard: usize) -> Server {
    let state = WorkerState::boot("dist", manifest, shard).expect("boot worker state");
    Server::start_with_role(
        quiet_config(),
        Registry::new(),
        Role::Worker(Arc::new(state)),
    )
    .expect("bind worker")
}

fn boot_coordinator(
    manifest: &Path,
    peers: Vec<String>,
    deadline: Duration,
    retries: usize,
) -> Server {
    let coordinator =
        Coordinator::boot("dist", manifest, peers, deadline, retries).expect("boot coordinator");
    Server::start_with_role(
        quiet_config(),
        Registry::new(),
        Role::Coordinator(Arc::new(coordinator)),
    )
    .expect("bind coordinator")
}

/// The fields of a count body that define the answer (excludes topology
/// fields like `shards` that legitimately differ between a standalone
/// server and the coordinator).
fn count_fingerprint(body: &str) -> (String, String, String) {
    let parsed = json::parse(body).expect("count body parses");
    let field = |name: &str| parsed.get(name).expect(name).render();
    (field("counts"), field("total"), field("num_hyperwedges"))
}

#[test]
fn coordinator_counts_are_bit_identical_to_unsharded() {
    let (stem, manifest) = write_family("identity");
    let workers: Vec<Server> = (0..NUM_SHARDS).map(|s| boot_worker(&manifest, s)).collect();
    let peers: Vec<String> = workers.iter().map(|w| w.local_addr().to_string()).collect();
    let coordinator = boot_coordinator(&manifest, peers, DEADLINE, 2);

    // Reference: the same hypergraph served unsharded by a standalone server.
    let registry = Registry::new();
    registry.insert("dist", dataset());
    let standalone = Server::start(quiet_config(), registry).expect("bind standalone");

    let query = r#"{"dataset": "dist", "method": "mochy-e"}"#;
    let mut via_coordinator = HttpClient::new(coordinator.local_addr().to_string());
    let distributed = via_coordinator
        .post("/v1/count", query, DEADLINE)
        .expect("distributed count");
    assert_eq!(distributed.status, 200, "{}", distributed.body);

    let mut direct = HttpClient::new(standalone.local_addr().to_string());
    let unsharded = direct
        .post("/v1/count", query, DEADLINE)
        .expect("unsharded count");
    assert_eq!(unsharded.status, 200, "{}", unsharded.body);

    assert_eq!(
        count_fingerprint(&distributed.body),
        count_fingerprint(&unsharded.body),
        "distributed counts must be bit-identical to the unsharded run"
    );

    // The distributed body reports the family's topology.
    let parsed = json::parse(&distributed.body).expect("body parses");
    assert_eq!(parsed.get("shards").and_then(JsonValue::as_u64), Some(3));

    // Cache hit through the coordinator: byte-identical body, hit header.
    let repeat = via_coordinator
        .post("/v1/count", query, DEADLINE)
        .expect("repeat count");
    assert_eq!(repeat.header("x-mochy-cache"), Some("hit"));
    assert_eq!(
        repeat.body, distributed.body,
        "cache hit must be byte-identical"
    );

    // The coordinator's healthz names the role and the worker table.
    let health = via_coordinator
        .get("/v1/healthz", DEADLINE)
        .expect("healthz");
    let health_body = json::parse(&health.body).expect("healthz parses");
    assert_eq!(
        health_body.get("role").and_then(JsonValue::as_str),
        Some("coordinator")
    );
    let fanout = health_body.get("fanout").expect("fanout section");
    assert_eq!(
        fanout.get("num_shards").and_then(JsonValue::as_u64),
        Some(3)
    );

    // And a worker's healthz reports its shard view.
    let mut via_worker = HttpClient::new(
        workers
            .first()
            .expect("have workers")
            .local_addr()
            .to_string(),
    );
    let worker_health = via_worker
        .get("/v1/healthz", DEADLINE)
        .expect("worker healthz");
    let worker_body = json::parse(&worker_health.body).expect("worker healthz parses");
    assert_eq!(
        worker_body.get("role").and_then(JsonValue::as_str),
        Some("worker")
    );

    drop(via_coordinator);
    coordinator.shutdown();
    for worker in &workers {
        worker.shutdown();
    }
    standalone.shutdown();
    cleanup_family(&stem, &manifest);
}

#[test]
fn a_killed_worker_is_retried_on_survivors_bit_identically() {
    let (stem, manifest) = write_family("retry");
    let workers: Vec<Server> = (0..NUM_SHARDS).map(|s| boot_worker(&manifest, s)).collect();
    let peers: Vec<String> = workers.iter().map(|w| w.local_addr().to_string()).collect();
    let coordinator = boot_coordinator(&manifest, peers, DEADLINE, 2);
    let mut client = HttpClient::new(coordinator.local_addr().to_string());

    // Baseline with all workers alive.
    let query = r#"{"dataset": "dist", "method": "mochy-e"}"#;
    let baseline = client.post("/v1/count", query, DEADLINE).expect("baseline");
    assert_eq!(baseline.status, 200, "{}", baseline.body);

    // Kill one worker outright, then issue a *different* query (the first
    // is cached) so the scatter really runs against the degraded set.
    let (killed, survivors) = workers.split_first().expect("have workers");
    killed.shutdown();
    let degraded_query = r#"{"dataset": "dist", "method": "mochy-e", "threads": 2}"#;
    let degraded = client
        .post("/v1/count", degraded_query, DEADLINE)
        .expect("count with a dead worker");
    assert_eq!(
        degraded.status, 200,
        "retry/reassignment must absorb a dead worker: {}",
        degraded.body
    );
    assert_eq!(
        count_fingerprint(&degraded.body),
        count_fingerprint(&baseline.body),
        "reassigned counts must not change a bit"
    );

    coordinator.shutdown();
    for worker in survivors {
        worker.shutdown();
    }
    cleanup_family(&stem, &manifest);
}

#[test]
fn a_stalling_worker_hits_the_deadline_and_is_reassigned() {
    let (stem, manifest) = write_family("stall");
    // A "worker" that accepts connections and then never answers.
    let stall = TcpListener::bind("127.0.0.1:0").expect("bind stall listener");
    let stall_addr = stall.local_addr().expect("stall addr").to_string();
    let stall_thread = std::thread::spawn(move || {
        let mut held = Vec::new();
        // Hold sockets open without responding until the listener is closed
        // from the outside (accept starts failing) or the test ends.
        while let Ok((stream, _)) = stall.accept() {
            let _ = stream.set_nodelay(true);
            held.push(stream);
            if held.len() > 16 {
                break;
            }
        }
    });

    let live = boot_worker(&manifest, 0);
    let peers = vec![stall_addr, live.local_addr().to_string()];
    // Short fan-out deadline so the stalled exchange fails fast.
    let coordinator = boot_coordinator(&manifest, peers, Duration::from_millis(500), 2);
    let mut client = HttpClient::new(coordinator.local_addr().to_string());

    let query = r#"{"dataset": "dist", "method": "mochy-e"}"#;
    let response = client.post("/v1/count", query, DEADLINE).expect("count");
    assert_eq!(
        response.status, 200,
        "the live worker must absorb the stalled worker's shards: {}",
        response.body
    );

    coordinator.shutdown();
    live.shutdown();
    drop(client);
    drop(stall_thread); // detach: it exits when its listener errors at teardown
    cleanup_family(&stem, &manifest);
}

#[test]
fn total_fanout_failure_is_a_structured_502() {
    let (stem, manifest) = write_family("fail");
    // Reserve a port, then close the listener so the address refuses.
    let dead_addr = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("addr").to_string()
    };
    let coordinator = boot_coordinator(
        &manifest,
        vec![dead_addr.clone()],
        Duration::from_millis(500),
        1,
    );
    let mut client = HttpClient::new(coordinator.local_addr().to_string());

    let response = client
        .post(
            "/v1/count",
            r#"{"dataset": "dist", "method": "mochy-e"}"#,
            DEADLINE,
        )
        .expect("exchange completes");
    assert_eq!(response.status, 502, "{}", response.body);
    let parsed = json::parse(&response.body).expect("error body parses");
    let error = parsed.get("error").expect("error envelope");
    assert_eq!(error.get("code").and_then(JsonValue::as_u64), Some(502));
    assert_eq!(
        error.get("kind").and_then(JsonValue::as_str),
        Some("fanout-failed")
    );
    let detail = error.get("detail").expect("partial-failure detail");
    assert_eq!(detail.get("gathered").and_then(JsonValue::as_u64), Some(0));
    let failed = detail.get("failed_shards").expect("failed shards");
    let JsonValue::Array(failed) = failed else {
        panic!("failed_shards must be an array: {failed:?}");
    };
    assert_eq!(failed.len(), NUM_SHARDS);
    let first = failed.first().expect("one failure");
    assert_eq!(first.get("shard").and_then(JsonValue::as_u64), Some(0));
    let attempts = first.get("attempts").expect("attempt log");
    let JsonValue::Array(attempts) = attempts else {
        panic!("attempts must be an array: {attempts:?}");
    };
    let attempt = attempts.first().expect("at least one attempt");
    assert_eq!(
        attempt.get("worker").and_then(JsonValue::as_str),
        Some(dead_addr.as_str())
    );
    assert!(attempt.get("error").is_some());

    coordinator.shutdown();
    cleanup_family(&stem, &manifest);
}

/// Answers every request on `listener` with `200` and `body`, as a worker
/// running an older build would, until a connection arrives after `stop`
/// is set.
fn serve_canned_partials(listener: TcpListener, body: String, stop: Arc<AtomicBool>) {
    while let Ok((stream, _)) = listener.accept() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let mut reader = BufReader::new(stream);
        while answer_one_request(&mut reader, &body).is_some() {}
    }
}

/// Reads one request from `reader` and answers it with `body`; `None` once
/// the connection is closed or broken.
fn answer_one_request(reader: &mut BufReader<TcpStream>, body: &str) -> Option<()> {
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).ok()? == 0 {
            return None;
        }
        let header = line.trim_end().to_ascii_lowercase();
        if header.is_empty() {
            break;
        }
        if let Some(value) = header.strip_prefix("content-length:") {
            content_length = value.trim().parse().ok()?;
        }
    }
    let mut request_body = vec![0u8; content_length];
    reader.read_exact(&mut request_body).ok()?;
    let response = format!(
        "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    reader.get_mut().write_all(response.as_bytes()).ok()
}

#[test]
fn a_worker_speaking_the_old_partial_schema_is_a_structured_502() {
    let (stem, manifest) = write_family("stale");
    // The two-phase partial format, without a `schema` tag.
    let zeros = JsonValue::Array(vec![JsonValue::Number(0.0); 26]).render();
    let stale_body = format!(
        r#"{{"shard":0,"edge_start":0,"edge_end":20,"internal_counts":{zeros},"boundary_counts":{zeros},"internal_hyperwedges":0,"cross_hyperwedges":0}}"#
    );
    let stale = TcpListener::bind("127.0.0.1:0").expect("bind stale worker");
    let stale_addr = stale.local_addr().expect("stale addr").to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let stale_thread = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || serve_canned_partials(stale, stale_body, stop))
    };

    let coordinator = boot_coordinator(&manifest, vec![stale_addr.clone()], DEADLINE, 1);
    let mut client = HttpClient::new(coordinator.local_addr().to_string());
    let response = client
        .post(
            "/v1/count",
            r#"{"dataset": "dist", "method": "mochy-e"}"#,
            DEADLINE,
        )
        .expect("exchange completes");
    assert_eq!(response.status, 502, "{}", response.body);
    let parsed = json::parse(&response.body).expect("error body parses");
    let error = parsed.get("error").expect("error envelope");
    assert_eq!(
        error.get("kind").and_then(JsonValue::as_str),
        Some("fanout-failed")
    );
    assert!(
        response.body.contains("schema"),
        "the attempt log must name the schema mismatch: {}",
        response.body
    );

    coordinator.shutdown();
    drop(client);
    stop.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(&stale_addr); // wakes the blocked accept
    stale_thread
        .join()
        .expect("canned worker thread exits cleanly");
    cleanup_family(&stem, &manifest);
}

#[test]
fn the_distributed_dataset_rejects_unsupported_query_shapes() {
    let (stem, manifest) = write_family("shapes");
    let worker = boot_worker(&manifest, 0);
    let coordinator = boot_coordinator(
        &manifest,
        vec![worker.local_addr().to_string()],
        DEADLINE,
        1,
    );
    let mut client = HttpClient::new(coordinator.local_addr().to_string());

    for (body, needle) in [
        (
            r#"{"dataset": "dist", "method": "mochy-a", "samples": 10}"#,
            "only the exact method",
        ),
        (
            r#"{"dataset": "dist", "method": "mochy-e", "generalized": 3}"#,
            "not available",
        ),
        (
            r#"{"dataset": "dist", "method": "mochy-e", "shards": 2}"#,
            "sharded by its manifest",
        ),
    ] {
        let response = client.post("/v1/count", body, DEADLINE).expect("exchange");
        assert_eq!(response.status, 400, "{body} → {}", response.body);
        let parsed = json::parse(&response.body).expect("error parses");
        let message = parsed
            .get("error")
            .and_then(|error| error.get("message"))
            .and_then(JsonValue::as_str)
            .unwrap_or_default()
            .to_string();
        assert!(message.contains(needle), "`{message}` lacks `{needle}`");
    }

    coordinator.shutdown();
    worker.shutdown();
    cleanup_family(&stem, &manifest);
}
