//! `mochy-serve` processes: spawn, wait for the listening line, read peak
//! memory, shut down.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::http::Client;

/// How long a process may take to print its listening address.
const BOOT_TIMEOUT: Duration = Duration::from_secs(60);
/// How long a process may take to exit after a shutdown request.
const EXIT_TIMEOUT: Duration = Duration::from_secs(10);

/// The CPUs this process may run on, as a `taskset` list such as `0-1`.
pub fn allowed_cpus() -> Result<String, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|error| format!("reading /proc/self/status: {error}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))
        .map(|list| list.trim().to_string())
        .ok_or_else(|| "no Cpus_allowed_list in /proc/self/status".to_string())
}

/// The first CPU of a `taskset` list.
pub fn first_cpu(cpus: &str) -> Result<String, String> {
    cpus.split([',', '-'])
        .next()
        .filter(|first| first.parse::<u32>().is_ok())
        .map(str::to_string)
        .ok_or_else(|| format!("no CPU in {cpus:?}"))
}

/// Restricts process `pid`, its threads and every process it starts from
/// now on to `cpus`, a `taskset` list. Uses `taskset` from util-linux.
pub fn pin(pid: u32, cpus: &str) -> Result<(), String> {
    let pinned = Command::new("taskset")
        .args(["-a", "-p", "-c", cpus, &pid.to_string()])
        .stdout(Stdio::null())
        .status()
        .map_err(|error| format!("running taskset: {error}"))?;
    if !pinned.success() {
        return Err(format!(
            "taskset could not pin {pid} to CPUs {cpus}: {pinned}"
        ));
    }
    Ok(())
}

/// A running `mochy-serve` process.
#[derive(Debug)]
pub struct ServerProc {
    /// Its role in the topology: `standalone`, `coordinator` or `worker`.
    pub role: &'static str,
    /// The `HOST:PORT` it listens on.
    pub addr: String,
    child: Child,
    stdout: Option<JoinHandle<()>>,
}

impl ServerProc {
    /// Starts `binary` with `args` on an ephemeral port, with one resident
    /// request worker per CPU of the 2-CPU machine the bounds were set on,
    /// and waits until it prints its listening address.
    pub fn spawn(binary: &Path, role: &'static str, args: &[String]) -> Result<Self, String> {
        let mut child = Command::new(binary)
            .args(["--port", "0", "--workers", "2"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|error| format!("spawning {}: {error}", binary.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (sender, receiver) = mpsc::channel();
        // Drains stdout for the life of the process so it never blocks on a
        // full pipe; the listening address is sent back once.
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if let Some(addr) = line.strip_prefix("listening on ") {
                    sender.send(addr.trim().to_string()).ok();
                }
            }
        });
        let mut proc = ServerProc {
            role,
            addr: String::new(),
            child,
            stdout: Some(reader),
        };
        match receiver.recv_timeout(BOOT_TIMEOUT) {
            Ok(addr) => {
                proc.addr = addr;
                Ok(proc)
            }
            Err(_) => Err(format!("{role} did not report a listening address")),
        }
    }

    /// Its process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set size (`VmHWM`) so far, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status =
            std::fs::read_to_string(&path).map_err(|error| format!("reading {path}: {error}"))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|value| {
                value
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// Asks the process to shut down and waits for it to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let answer = Client::new(&self.addr).post("/v1/admin/shutdown", "");
        let deadline = Instant::now() + EXIT_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("{} exited with {status}", self.role)),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    return Err(format!(
                        "{} did not exit after shutdown ({answer:?})",
                        self.role
                    ))
                }
            }
        }
        if let Some(reader) = self.stdout.take() {
            reader.join().ok();
        }
        Ok(())
    }
}

/// The processes of one workload.
#[derive(Debug, Default)]
pub struct Topology {
    /// Every process, the one clients talk to first.
    pub procs: Vec<ServerProc>,
}

impl Topology {
    /// The address clients send requests to.
    pub fn front(&self) -> &str {
        &self.procs[0].addr
    }

    /// Sum of the processes' peak resident set sizes, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        self.procs.iter().map(ServerProc::peak_rss_mb).sum()
    }

    /// Peak resident set size of the processes with `role`, summed, in MiB.
    pub fn role_rss_mb(&self, role: &str) -> Result<f64, String> {
        self.procs
            .iter()
            .filter(|proc| proc.role == role)
            .map(ServerProc::peak_rss_mb)
            .sum()
    }

    /// Shuts every process down, front first.
    pub fn shutdown(self) -> Result<(), String> {
        let mut result = Ok(());
        for proc in self.procs {
            let outcome = proc.shutdown();
            if result.is_ok() {
                result = outcome;
            }
        }
        result
    }
}

impl Drop for ServerProc {
    /// Kills a process that was not shut down cleanly (an error path), so no
    /// run leaves a server behind.
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            self.child.kill().ok();
        }
        self.child.wait().ok();
        if let Some(reader) = self.stdout.take() {
            reader.join().ok();
        }
    }
}
