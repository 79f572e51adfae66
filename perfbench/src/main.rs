//! `perfbench` — the layered benchmark of `mochy-serve`.
//!
//! ```text
//! perfbench --server PATH --workload cold-count|warm-mutate|fanout
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Drives a release `mochy-serve` binary from outside, in separate
//! processes, with inputs generated from `--seed`, and checks every answer.
//! With `--trace 0` it measures for `--seconds` and reports the end-to-end
//! metrics; with `--trace 1` it sends a fixed request prefix, replays it
//! through each layer's public functions with one span per call, and
//! reports the per-layer metrics. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. The exit
//! code is 0 only when every answer was correct. See `README.md`.

mod cold;
mod fanout;
mod http;
mod inputs;
mod layers;
mod load;
mod oracle;
mod procs;
mod stats;
mod trace;
mod warm;

use std::path::PathBuf;

use mochy_json::JsonValue;

/// Command-line settings.
#[derive(Debug, Clone)]
pub struct Settings {
    /// The `mochy-serve` binary.
    pub server: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Measured duration of an untraced run.
    pub seconds: u64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// What a run found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests (and other checked operations) attempted.
    pub attempted: usize,
    /// Of those, failed or answered wrongly.
    pub failed: usize,
    /// Reasons for failures and for failed run-level checks.
    pub errors: Vec<String>,
    /// Reported metrics: name, value, unit.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Counters fixed by the seed; a change between runs is an error.
    pub counters: Vec<(String, f64)>,
    /// Human-readable report lines.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Adds a counter fixed by the seed; it is also reported as a metric
    /// when `unit` is given.
    pub fn counter(&mut self, name: &str, value: f64, unit: Option<&'static str>) {
        self.counters.push((name.to_string(), value));
        if let Some(unit) = unit {
            self.metric(name, value, unit);
        }
    }

    /// Records a failed run-level check.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.errors.push(why.into());
    }

    /// Adds a report line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Adds request tallies and their first failure reasons.
    pub fn add_requests(&mut self, tally: &load::Tally) {
        self.attempted += tally.attempted;
        self.failed += tally.failed;
        self.errors.extend(tally.errors.iter().cloned());
    }

    /// Adds one checked operation that is not a request.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            self.errors.push(format!("{what}: {why}"));
        }
    }
}

const USAGE: &str = "usage: perfbench --server PATH --workload cold-count|warm-mutate|fanout \
                     --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<(String, Settings), String> {
    let mut server = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--server" => server = Some(PathBuf::from(value)),
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace is 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let settings = Settings {
        server: server.ok_or("--server is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("--seconds must be positive")?,
        trace: trace.ok_or("--trace is required")?,
    };
    Ok((workload.ok_or("--workload is required")?, settings))
}

fn main() {
    let (workload, settings) = parse_args().unwrap_or_else(|why| {
        eprintln!("perfbench: {why}\n{USAGE}");
        std::process::exit(2);
    });
    let result = match workload.as_str() {
        "cold-count" => cold::run(&settings),
        "warm-mutate" => warm::run(&settings),
        "fanout" => fanout::run(&settings),
        other => Err(format!("unknown workload `{other}`")),
    };
    let mut outcome = result.unwrap_or_else(|why| {
        eprintln!("perfbench: {workload} could not run: {why}");
        std::process::exit(1);
    });
    compare_counters(&workload, &settings, &mut outcome);

    for line in &outcome.notes {
        println!("# {line}");
    }
    for (name, value) in &outcome.counters {
        println!("# counter {name} = {value}");
    }
    for error in &outcome.errors {
        println!("# ERROR {error}");
    }
    let correct = outcome.errors.is_empty() && outcome.failed == 0;
    let metrics = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            (
                name.clone(),
                JsonValue::Object(vec![
                    ("value".to_string(), JsonValue::Number(*value)),
                    ("unit".to_string(), JsonValue::string(*unit)),
                ]),
            )
        })
        .collect();
    let result = JsonValue::Object(vec![
        ("correct".to_string(), JsonValue::Bool(correct)),
        (
            "attempted".to_string(),
            JsonValue::Number(outcome.attempted as f64),
        ),
        (
            "failed".to_string(),
            JsonValue::Number(outcome.failed as f64),
        ),
        ("metrics".to_string(), JsonValue::Object(metrics)),
    ]);
    println!("{}", result.render());
    std::process::exit(if correct { 0 } else { 1 });
}

/// Fails the run when a counter fixed by the seed differs from the value an
/// earlier run of the same workload, seed and mode recorded in this
/// checkout; records the values otherwise.
fn compare_counters(workload: &str, settings: &Settings, outcome: &mut Outcome) {
    let dir = PathBuf::from(".perfbench").join("counters");
    let path = dir.join(format!(
        "{workload}-seed{}-trace{}.txt",
        settings.seed,
        u8::from(settings.trace)
    ));
    let current: String = outcome
        .counters
        .iter()
        .map(|(name, value)| format!("{name} {value}\n"))
        .collect();
    match std::fs::read_to_string(&path) {
        Ok(previous) if previous != current => {
            for (old, new) in previous.lines().zip(current.lines()) {
                if old != new {
                    outcome.fail(format!("counter drift: was `{old}`, now `{new}`"));
                }
            }
            if previous.lines().count() != current.lines().count() {
                outcome.fail("counter drift: the set of counters changed");
            }
        }
        Ok(_) => outcome.note(format!(
            "counters match the earlier run in {}",
            path.display()
        )),
        Err(_) => {
            if outcome.errors.is_empty() && outcome.failed == 0 {
                std::fs::create_dir_all(&dir).ok();
                std::fs::write(&path, current).ok();
            }
        }
    }
}
