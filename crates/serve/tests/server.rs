//! End-to-end tests: boot the server on an ephemeral port and exercise every
//! route over real TCP, including concurrent readers during a mutation and
//! deterministic overload (503) behaviour.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use mochy_hypergraph::{Hypergraph, HypergraphBuilder};
use mochy_json::{self as json, JsonValue};
use mochy_serve::registry::Registry;
use mochy_serve::server::{Server, ServerConfig};

fn figure2() -> Hypergraph {
    HypergraphBuilder::new()
        .with_edge([0u32, 1, 2])
        .with_edge([0, 3, 1])
        .with_edge([4, 5, 0])
        .with_edge([6, 7, 2])
        .build()
        .unwrap()
}

fn boot(config: ServerConfig) -> Server {
    let registry = Registry::new();
    registry.insert("fig2", figure2());
    Server::start(config, registry).expect("bind ephemeral port")
}

/// A parsed HTTP response: status, `x-mochy-cache` header (if any), body.
struct Response {
    status: u16,
    cache: Option<String>,
    body: String,
}

fn read_response(stream: &mut TcpStream) -> Response {
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("complete response");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in `{head}`"));
    let cache = head.lines().find_map(|line| {
        line.strip_prefix("x-mochy-cache: ")
            .map(|value| value.to_string())
    });
    Response {
        status,
        cache,
        body: body.to_string(),
    }
}

/// One-shot client: explicitly opts out of keep-alive so the `read_to_string`
/// framing (read until the server closes) stays valid.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: mochy\r\nconnection: close\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    read_response(&mut stream)
}

/// Sends one request on an already-open keep-alive connection.
fn send_request(stream: &mut TcpStream, method: &str, path: &str, body: &str) {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: mochy\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    stream.flush().unwrap();
}

/// Reads one `Content-Length`-framed response off a keep-alive connection
/// (cannot wait for EOF — the connection stays open). Bytes of the *next*
/// response (pipelined answers arrive back to back) stay in `carry`. Also
/// returns the `connection:` header value so tests can pin the advertised
/// persistence.
fn read_framed_from(stream: &mut TcpStream, carry: &mut Vec<u8>) -> (Response, String) {
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(position) = carry.windows(4).position(|w| w == b"\r\n\r\n") {
            break position;
        }
        let read = stream.read(&mut chunk).expect("read response head");
        assert!(read > 0, "connection closed before a full response head");
        carry.extend_from_slice(&chunk[..read]);
    };
    let head = String::from_utf8(carry[..head_end].to_vec()).unwrap();
    let content_length: usize = head
        .lines()
        .find_map(|line| line.strip_prefix("content-length: "))
        .expect("content-length header")
        .parse()
        .unwrap();
    let connection = head
        .lines()
        .find_map(|line| line.strip_prefix("connection: "))
        .expect("connection header")
        .to_string();
    let body_start = head_end + 4;
    while carry.len() < body_start + content_length {
        let read = stream.read(&mut chunk).expect("read response body");
        assert!(read > 0, "connection closed mid-body");
        carry.extend_from_slice(&chunk[..read]);
    }
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in `{head}`"));
    let cache = head.lines().find_map(|line| {
        line.strip_prefix("x-mochy-cache: ")
            .map(|value| value.to_string())
    });
    let body = String::from_utf8(carry[body_start..body_start + content_length].to_vec()).unwrap();
    carry.drain(..body_start + content_length);
    (
        Response {
            status,
            cache,
            body,
        },
        connection,
    )
}

/// [`read_framed_from`] for sequential (non-pipelined) exchanges, where no
/// bytes may be left over between responses.
fn read_framed_response(stream: &mut TcpStream) -> (Response, String) {
    let mut carry = Vec::new();
    let parsed = read_framed_from(stream, &mut carry);
    assert!(
        carry.is_empty(),
        "server sent bytes beyond the framed response"
    );
    parsed
}

/// True once the peer has closed: a read returning 0 within `patience`.
fn closed_by_server(stream: &mut TcpStream, patience: Duration) -> bool {
    stream.set_read_timeout(Some(patience)).unwrap();
    let mut probe = [0u8; 64];
    matches!(stream.read(&mut probe), Ok(0))
}

#[test]
fn all_routes_answer_over_tcp() {
    let server = boot(ServerConfig::default());
    let addr = server.local_addr();

    let health = request(addr, "GET", "/healthz", "");
    assert_eq!(health.status, 200, "{}", health.body);
    let doc = json::parse(&health.body).unwrap();
    assert_eq!(doc.get("status").and_then(JsonValue::as_str), Some("ok"));
    assert_eq!(doc.get("datasets").and_then(JsonValue::as_f64), Some(1.0));

    let listing = request(addr, "GET", "/datasets", "");
    let doc = json::parse(&listing.body).unwrap();
    let datasets = doc.get("datasets").unwrap().as_array().unwrap();
    assert_eq!(datasets.len(), 1);
    assert_eq!(
        datasets[0].get("name").and_then(JsonValue::as_str),
        Some("fig2")
    );
    assert_eq!(
        datasets[0].get("num_edges").and_then(JsonValue::as_f64),
        Some(4.0)
    );
    // Nothing has counted yet, so no projection is resident.
    assert_eq!(
        datasets[0].get("projected").and_then(JsonValue::as_bool),
        Some(false)
    );
    assert_eq!(datasets[0].get("num_hyperwedges"), Some(&JsonValue::Null));

    let count = request(addr, "POST", "/count", r#"{"dataset": "fig2"}"#);
    assert_eq!(count.status, 200, "{}", count.body);
    let listing = request(addr, "GET", "/v1/datasets", "");
    let doc = json::parse(&listing.body).unwrap();
    let datasets = doc.get("datasets").unwrap().as_array().unwrap();
    assert_eq!(
        datasets[0].get("projected").and_then(JsonValue::as_bool),
        Some(true)
    );
    assert_eq!(
        datasets[0]
            .get("num_hyperwedges")
            .and_then(JsonValue::as_f64),
        Some(4.0)
    );
    let doc = json::parse(&count.body).unwrap();
    assert_eq!(doc.get("total").and_then(JsonValue::as_f64), Some(3.0));
    assert_eq!(
        doc.get("counts").unwrap().as_array().unwrap().len(),
        26,
        "26 h-motif slots"
    );

    // A sampling method with an explicit seed is deterministic end to end.
    let sampled = r#"{"dataset": "fig2", "method": "mochy-a+", "samples": 50, "seed": 7}"#;
    let first = request(addr, "POST", "/count", sampled);
    assert_eq!(first.status, 200, "{}", first.body);
    let doc = json::parse(&first.body).unwrap();
    assert_eq!(
        doc.get("samples_drawn").and_then(JsonValue::as_f64),
        Some(50.0)
    );

    // Generalized ride-along: k = 4 reports the 1 853-motif catalog.
    let general = request(
        addr,
        "POST",
        "/count",
        r#"{"dataset": "fig2", "generalized": 4}"#,
    );
    let doc = json::parse(&general.body).unwrap();
    let general = doc.get("generalized").unwrap();
    assert_eq!(general.get("k").and_then(JsonValue::as_f64), Some(4.0));
    assert_eq!(
        general.get("num_motifs").and_then(JsonValue::as_f64),
        Some(1853.0)
    );

    let profile = request(
        addr,
        "POST",
        "/profile",
        r#"{"dataset": "fig2", "randomizations": 2}"#,
    );
    assert_eq!(profile.status, 200, "{}", profile.body);
    let doc = json::parse(&profile.body).unwrap();
    assert_eq!(doc.get("cp").unwrap().as_array().unwrap().len(), 26);

    // Errors surface as JSON, not dropped connections.
    let missing = request(addr, "POST", "/count", r#"{"dataset": "nope"}"#);
    assert_eq!(missing.status, 404);
    assert!(missing.body.contains("unknown dataset"));
    let bad = request(addr, "POST", "/count", "{not json");
    assert_eq!(bad.status, 400);
    let lost = request(addr, "GET", "/lost", "");
    assert_eq!(lost.status, 404);

    server.shutdown();
    server.wait();
}

#[test]
fn snapshot_upload_ingests_a_live_dataset_over_tcp() {
    let server = boot(ServerConfig::default());
    let addr = server.local_addr();

    // Upload a second hypergraph as a base64 .mochy snapshot.
    let mut snapshot_bytes = Vec::new();
    mochy_hypergraph::snapshot::write_snapshot(&figure2(), &mut snapshot_bytes).unwrap();
    let body = format!(
        r#"{{"name": "uploaded.v1", "snapshot": "{}"}}"#,
        mochy_serve::b64::encode(&snapshot_bytes)
    );
    let created = request(addr, "POST", "/datasets", &body);
    assert_eq!(created.status, 201, "{}", created.body);
    let doc = json::parse(&created.body).unwrap();
    assert_eq!(doc.get("num_edges").and_then(JsonValue::as_f64), Some(4.0));

    // It lists, counts, and mutates like any boot-time dataset.
    let listing = request(addr, "GET", "/datasets", "");
    assert!(listing.body.contains("uploaded.v1"), "{}", listing.body);
    let counted = request(addr, "POST", "/count", r#"{"dataset": "uploaded.v1"}"#);
    assert_eq!(counted.status, 200, "{}", counted.body);
    let doc = json::parse(&counted.body).unwrap();
    assert_eq!(doc.get("total").and_then(JsonValue::as_f64), Some(3.0));
    let mutated = request(
        addr,
        "POST",
        "/mutate",
        r#"{"dataset": "uploaded.v1", "insert": [[1, 4, 6]], "remove": []}"#,
    );
    assert_eq!(mutated.status, 200, "{}", mutated.body);

    // A duplicate upload conflicts; a corrupted payload is a 400 with the
    // typed decoder error — and neither disturbed the live dataset.
    let conflict = request(addr, "POST", "/datasets", &body);
    assert_eq!(conflict.status, 409, "{}", conflict.body);
    // Flip a payload byte past the 40-byte header so the checksum (not the
    // header length check) is what rejects it.
    let mut corrupted = snapshot_bytes.clone();
    corrupted[48] ^= 0x40;
    let bad_body = format!(
        r#"{{"name": "corrupt", "snapshot": "{}"}}"#,
        mochy_serve::b64::encode(&corrupted)
    );
    let rejected = request(addr, "POST", "/datasets", &bad_body);
    assert_eq!(rejected.status, 400, "{}", rejected.body);
    assert!(rejected.body.contains("checksum"), "{}", rejected.body);
    let health = request(addr, "GET", "/healthz", "");
    let doc = json::parse(&health.body).unwrap();
    assert_eq!(doc.get("datasets").and_then(JsonValue::as_f64), Some(2.0));
}

#[test]
fn cached_and_uncached_responses_are_byte_identical() {
    let server = boot(ServerConfig::default());
    let addr = server.local_addr();
    let body = r#"{"dataset": "fig2", "method": "mochy-a+", "samples": 40, "seed": 3}"#;

    let uncached = request(addr, "POST", "/count", body);
    assert_eq!(uncached.cache.as_deref(), Some("miss"));
    let cached = request(addr, "POST", "/count", body);
    assert_eq!(cached.cache.as_deref(), Some("hit"));
    assert_eq!(
        uncached.body, cached.body,
        "cache must return identical bytes"
    );

    // Profiles are cached the same way.
    let body = r#"{"dataset": "fig2", "randomizations": 2, "seed": 5}"#;
    let uncached = request(addr, "POST", "/profile", body);
    assert_eq!(uncached.cache.as_deref(), Some("miss"));
    let cached = request(addr, "POST", "/profile", body);
    assert_eq!(cached.cache.as_deref(), Some("hit"));
    assert_eq!(uncached.body, cached.body);
}

#[test]
fn concurrent_readers_observe_consistent_snapshots_during_mutation() {
    let server = boot(ServerConfig {
        workers: 6,
        queue_depth: 64,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let count_body = r#"{"dataset": "fig2"}"#;

    // Pin the two legal response bodies: generation 0 before the mutation…
    let before = request(addr, "POST", "/count", count_body).body;
    let doc = json::parse(&before).unwrap();
    assert_eq!(doc.get("generation").and_then(JsonValue::as_f64), Some(0.0));

    // …start N concurrent readers hammering /count…
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut bodies = Vec::new();
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let response = request(addr, "POST", "/count", r#"{"dataset": "fig2"}"#);
                    assert_eq!(response.status, 200, "{}", response.body);
                    bodies.push(response.body);
                }
                bodies
            })
        })
        .collect();

    // …publish a new snapshot while they run…
    std::thread::sleep(Duration::from_millis(50));
    let mutation = request(
        addr,
        "POST",
        "/mutate",
        r#"{"dataset": "fig2", "insert": [[1, 4, 6], [2, 5]], "remove": [0]}"#,
    );
    assert_eq!(mutation.status, 200, "{}", mutation.body);
    let doc = json::parse(&mutation.body).unwrap();
    assert_eq!(doc.get("generation").and_then(JsonValue::as_f64), Some(1.0));
    std::thread::sleep(Duration::from_millis(50));
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let collected: Vec<Vec<String>> = readers
        .into_iter()
        .map(|handle| handle.join().expect("reader thread"))
        .collect();

    // …and pin the post-mutation body (still generation 1: the readers are
    // done and nothing has mutated since).
    let after = request(addr, "POST", "/count", count_body).body;
    let doc = json::parse(&after).unwrap();
    assert_eq!(doc.get("generation").and_then(JsonValue::as_f64), Some(1.0));
    assert_ne!(before, after);

    // Every concurrent response is byte-identical to exactly one published
    // snapshot's response — never a torn mix of generations.
    let mut saw_before = false;
    let mut saw_after = false;
    for body in collected.into_iter().flatten() {
        if body == before {
            saw_before = true;
        } else if body == after {
            saw_after = true;
        } else {
            panic!("response matches no published snapshot: {body}");
        }
    }
    assert!(saw_before, "no reader observed the pre-mutation snapshot");
    assert!(saw_after, "no reader observed the post-mutation snapshot");

    // The streaming writer's incremental total must equal the from-scratch
    // count of the published snapshot (an empty batch republishes).
    let mutated_total =
        json::parse(&request(addr, "POST", "/mutate", r#"{"dataset": "fig2"}"#).body)
            .unwrap()
            .get("total")
            .and_then(JsonValue::as_f64)
            .unwrap();
    let counted_total = json::parse(&request(addr, "POST", "/count", count_body).body)
        .unwrap()
        .get("total")
        .and_then(JsonValue::as_f64)
        .unwrap();
    assert_eq!(mutated_total, counted_total);
}

#[test]
fn overload_returns_503_without_wedging_the_accept_loop() {
    // One worker, one queue slot: a stalled request plus a queued request
    // saturate the pool deterministically.
    let server = boot(ServerConfig {
        workers: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let body = r#"{"dataset": "fig2"}"#;

    // Connection A: headers plus half the body, then stall — the single
    // worker blocks reading the rest.
    let mut stalled = TcpStream::connect(addr).unwrap();
    stalled
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stalled
        .write_all(
            format!(
                "POST /count HTTP/1.1\r\nhost: mochy\r\nconnection: close\r\ncontent-length: {}\r\n\r\n",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
    stalled.write_all(&body.as_bytes()[..5]).unwrap();
    stalled.flush().unwrap();
    std::thread::sleep(Duration::from_millis(200));

    // Connection B: a complete request that parks in the queue slot.
    let mut queued = TcpStream::connect(addr).unwrap();
    queued
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    queued
        .write_all(
            b"GET /healthz HTTP/1.1\r\nhost: mochy\r\nconnection: close\r\ncontent-length: 0\r\n\r\n",
        )
        .unwrap();
    std::thread::sleep(Duration::from_millis(200));

    // Connection C: pool saturated — the accept loop answers 503 inline.
    let overloaded = request(addr, "GET", "/healthz", "");
    assert_eq!(overloaded.status, 503, "{}", overloaded.body);
    assert!(
        overloaded.body.contains("overloaded"),
        "{}",
        overloaded.body
    );

    // Unstall A: its request completes normally…
    stalled.write_all(&body.as_bytes()[5..]).unwrap();
    let response = read_response(&mut stalled);
    assert_eq!(response.status, 200, "{}", response.body);
    // …then the queued B is served…
    let response = read_response(&mut queued);
    assert_eq!(response.status, 200, "{}", response.body);
    // …and the accept loop takes fresh requests as if nothing happened.
    let fresh = request(addr, "POST", "/count", body);
    assert_eq!(fresh.status, 200, "{}", fresh.body);
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let server = boot(ServerConfig::default());
    let addr = server.local_addr();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    // Three sequential exchanges on one connection; the second /count is a
    // byte-identical cache hit, proving the session reaches the same API
    // layer as one-shot connections.
    send_request(&mut stream, "GET", "/healthz", "");
    let (health, connection) = read_framed_response(&mut stream);
    assert_eq!(health.status, 200, "{}", health.body);
    assert_eq!(connection, "keep-alive");

    let count_body = r#"{"dataset": "fig2", "seed": 11}"#;
    send_request(&mut stream, "POST", "/count", count_body);
    let (first, connection) = read_framed_response(&mut stream);
    assert_eq!(first.status, 200, "{}", first.body);
    assert_eq!(first.cache.as_deref(), Some("miss"));
    assert_eq!(connection, "keep-alive");
    send_request(&mut stream, "POST", "/count", count_body);
    let (second, _) = read_framed_response(&mut stream);
    assert_eq!(second.cache.as_deref(), Some("hit"));
    assert_eq!(first.body, second.body);

    // `Connection: close` mid-stream is honored: the response advertises
    // close and the server hangs up afterwards.
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nhost: mochy\r\nconnection: close\r\ncontent-length: 0\r\n\r\n")
        .unwrap();
    let (last, connection) = read_framed_response(&mut stream);
    assert_eq!(last.status, 200);
    assert_eq!(connection, "close");
    assert!(
        closed_by_server(&mut stream, Duration::from_secs(5)),
        "server must close after honoring Connection: close"
    );
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let server = boot(ServerConfig::default());
    let addr = server.local_addr();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    // Two requests in a single write: both must be answered, in order, off
    // the rolling buffer.
    let body = r#"{"dataset": "fig2", "seed": 21}"#;
    let exchange = format!(
        "POST /count HTTP/1.1\r\nhost: mochy\r\ncontent-length: {len}\r\n\r\n{body}\
         POST /count HTTP/1.1\r\nhost: mochy\r\ncontent-length: {len}\r\n\r\n{body}",
        len = body.len()
    );
    stream.write_all(exchange.as_bytes()).unwrap();
    stream.flush().unwrap();
    let mut carry = Vec::new();
    let (first, _) = read_framed_from(&mut stream, &mut carry);
    assert_eq!(first.status, 200, "{}", first.body);
    assert_eq!(first.cache.as_deref(), Some("miss"));
    let (second, _) = read_framed_from(&mut stream, &mut carry);
    assert_eq!(second.status, 200, "{}", second.body);
    assert_eq!(second.cache.as_deref(), Some("hit"));
    assert_eq!(first.body, second.body);
}

#[test]
fn request_cap_closes_the_connection_cleanly() {
    let server = boot(ServerConfig {
        max_requests_per_connection: 2,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    send_request(&mut stream, "GET", "/healthz", "");
    let (_, connection) = read_framed_response(&mut stream);
    assert_eq!(connection, "keep-alive", "request 1 of 2 stays open");
    send_request(&mut stream, "GET", "/healthz", "");
    let (response, connection) = read_framed_response(&mut stream);
    assert_eq!(response.status, 200);
    assert_eq!(connection, "close", "the cap response advertises close");
    assert!(
        closed_by_server(&mut stream, Duration::from_secs(5)),
        "server must close once the request cap is reached"
    );

    // The cap frees the worker for other clients; a fresh connection works.
    assert_eq!(request(addr, "GET", "/healthz", "").status, 200);
}

#[test]
fn idle_keep_alive_connections_are_reaped_after_the_deadline() {
    let server = boot(ServerConfig {
        idle_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    send_request(&mut stream, "GET", "/healthz", "");
    let (response, connection) = read_framed_response(&mut stream);
    assert_eq!(response.status, 200);
    assert_eq!(connection, "keep-alive");

    // Send nothing: the idle deadline must close the session silently (no
    // error response bytes), and the server keeps accepting new clients.
    assert!(
        closed_by_server(&mut stream, Duration::from_secs(5)),
        "idle connection must be reaped"
    );
    assert_eq!(request(addr, "GET", "/healthz", "").status, 200);
}

#[test]
fn idle_keepalive_connection_saturates_pool_and_new_clients_get_503() {
    // One worker, one queue slot — and the worker is pinned not by a stalled
    // body but by a *persistent* connection parked between requests. The 503
    // must still be deterministic, advertise close, and clear once the idle
    // deadline reaps the parked session.
    let server = boot(ServerConfig {
        workers: 1,
        queue_depth: 1,
        idle_timeout: Duration::from_millis(600),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    // Connection A: one complete exchange, then park (worker idle-waits).
    let mut parked = TcpStream::connect(addr).unwrap();
    parked
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    send_request(&mut parked, "GET", "/healthz", "");
    let (response, connection) = read_framed_response(&mut parked);
    assert_eq!(response.status, 200);
    assert_eq!(connection, "keep-alive");

    // Connection B: parks in the queue slot.
    let mut queued = TcpStream::connect(addr).unwrap();
    queued
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    queued
        .write_all(
            b"GET /healthz HTTP/1.1\r\nhost: mochy\r\nconnection: close\r\ncontent-length: 0\r\n\r\n",
        )
        .unwrap();
    std::thread::sleep(Duration::from_millis(200));

    // Connection C: pool saturated — inline 503 that closes the connection.
    let mut rejected = TcpStream::connect(addr).unwrap();
    rejected
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    rejected
        .write_all(b"GET /healthz HTTP/1.1\r\nhost: mochy\r\ncontent-length: 0\r\n\r\n")
        .unwrap();
    let mut raw = String::new();
    rejected.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 503 "), "{raw}");
    assert!(raw.contains("connection: close\r\n"), "{raw}");
    assert!(raw.contains("overloaded"), "{raw}");

    // The idle deadline reaps A, freeing the worker for the queued B…
    let response = read_response(&mut queued);
    assert_eq!(response.status, 200, "{}", response.body);
    // …and A observes its silent close.
    assert!(
        closed_by_server(&mut parked, Duration::from_secs(5)),
        "parked connection must be reaped, not answered"
    );
    // The accept loop takes fresh requests as if nothing happened.
    assert_eq!(request(addr, "GET", "/healthz", "").status, 200);
}

#[test]
fn shutdown_route_stops_the_accept_loop_cleanly() {
    let server = boot(ServerConfig::default());
    let addr = server.local_addr();
    assert_eq!(request(addr, "GET", "/healthz", "").status, 200);
    let response = request(addr, "POST", "/shutdown", "");
    assert_eq!(response.status, 200);
    assert!(response.body.contains("shutting-down"));
    server.wait(); // must return: the accept loop observed the flag

    // The listener is gone; connections are refused (allow a few retries
    // for the close to land).
    for attempt in 0..20 {
        match TcpStream::connect(addr) {
            Err(_) => return,
            Ok(_) if attempt == 19 => panic!("listener still accepting after shutdown"),
            Ok(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}
