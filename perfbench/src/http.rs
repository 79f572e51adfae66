//! A small keep-alive HTTP/1.1 client for the load generator.
//!
//! It is deliberately separate from `mochy_serve::client`, so the load the
//! benchmark applies does not change when the program's own client does.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// How long one exchange may take before it counts as failed.
const EXCHANGE_TIMEOUT: Duration = Duration::from_secs(60);

/// A parsed response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// The `x-mochy-cache` header, if present.
    pub cache: Option<String>,
    /// Body text.
    pub body: String,
}

impl Response {
    /// Whether the server answered from its result cache.
    pub fn is_hit(&self) -> bool {
        self.cache.as_deref() == Some("hit")
    }

    /// Whether the server computed the answer for this request.
    pub fn is_miss(&self) -> bool {
        self.cache.as_deref() == Some("miss")
    }
}

/// One persistent connection to one server.
#[derive(Debug)]
pub struct Client {
    addr: String,
    stream: Option<TcpStream>,
    buffer: Vec<u8>,
}

impl Client {
    /// A client for `addr`; it connects on the first request.
    pub fn new(addr: &str) -> Self {
        Self {
            addr: addr.to_string(),
            stream: None,
            buffer: Vec::with_capacity(8192),
        }
    }

    /// Sends `POST path` with a JSON body and reads the response. A reused
    /// connection the server has closed meanwhile is retried once on a new
    /// connection.
    pub fn post(&mut self, path: &str, body: &str) -> Result<Response, String> {
        let reused = self.stream.is_some();
        match self.exchange(path, body) {
            Ok(response) => Ok(response),
            Err(Stale) if reused => {
                self.stream = None;
                self.exchange(path, body).map_err(|error| error.to_string())
            }
            Err(error) => {
                self.stream = None;
                Err(error.to_string())
            }
        }
    }

    fn exchange(&mut self, path: &str, body: &str) -> Result<Response, ExchangeError> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(&self.addr).map_err(|error| {
                ExchangeError::Failed(format!("connect {}: {error}", self.addr))
            })?;
            stream.set_nodelay(true).ok();
            stream.set_read_timeout(Some(EXCHANGE_TIMEOUT)).ok();
            stream.set_write_timeout(Some(EXCHANGE_TIMEOUT)).ok();
            self.stream = Some(stream);
        }
        let stream = self.stream.as_mut().expect("connected above");
        let request = format!(
            "POST {path} HTTP/1.1\r\nhost: {}\r\ncontent-type: application/json\r\n\
             content-length: {}\r\n\r\n{body}",
            self.addr,
            body.len()
        );
        stream.write_all(request.as_bytes()).map_err(|_| Stale)?;

        let started = Instant::now();
        self.buffer.clear();
        let head_end = loop {
            if let Some(end) = find(&self.buffer, b"\r\n\r\n") {
                break end;
            }
            if started.elapsed() > EXCHANGE_TIMEOUT {
                return Err(ExchangeError::Failed("response timed out".to_string()));
            }
            let mut chunk = [0u8; 8192];
            match stream.read(&mut chunk) {
                Ok(0) | Err(_) if self.buffer.is_empty() => return Err(Stale),
                Ok(0) => return Err(ExchangeError::Failed("closed mid-head".to_string())),
                Ok(read) => self.buffer.extend_from_slice(&chunk[..read]),
                Err(error) => return Err(ExchangeError::Failed(format!("read: {error}"))),
            }
        };
        let head = std::str::from_utf8(&self.buffer[..head_end])
            .map_err(|_| ExchangeError::Failed("non-UTF-8 head".to_string()))?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|line| line.split(' ').nth(1))
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| ExchangeError::Failed(format!("bad status line in {head:?}")))?;
        let mut length = None;
        let mut close = false;
        let mut cache = None;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            match name.trim().to_ascii_lowercase().as_str() {
                "content-length" => length = value.parse::<usize>().ok(),
                "connection" => close = value.eq_ignore_ascii_case("close"),
                "x-mochy-cache" => cache = Some(value.to_string()),
                _ => {}
            }
        }
        let length =
            length.ok_or_else(|| ExchangeError::Failed("no content-length".to_string()))?;
        let body_start = head_end + 4;
        while self.buffer.len() < body_start + length {
            let mut chunk = [0u8; 8192];
            match stream.read(&mut chunk) {
                Ok(0) => return Err(ExchangeError::Failed("closed mid-body".to_string())),
                Ok(read) => self.buffer.extend_from_slice(&chunk[..read]),
                Err(error) => return Err(ExchangeError::Failed(format!("read: {error}"))),
            }
        }
        let body = String::from_utf8(self.buffer[body_start..body_start + length].to_vec())
            .map_err(|_| ExchangeError::Failed("non-UTF-8 body".to_string()))?;
        if close {
            self.stream = None;
        }
        Ok(Response {
            status,
            cache,
            body,
        })
    }
}

/// Why an exchange failed.
#[derive(Debug)]
enum ExchangeError {
    /// Nothing came back on a connection that may have been closed by the
    /// server between requests.
    Stale,
    /// Anything else.
    Failed(String),
}
use ExchangeError::Stale;

impl std::fmt::Display for ExchangeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Stale => write!(f, "connection closed before a response"),
            ExchangeError::Failed(why) => write!(f, "{why}"),
        }
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack
        .windows(needle.len())
        .position(|window| window == needle)
}
