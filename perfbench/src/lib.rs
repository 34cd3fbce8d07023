//! The FAQ engine's benchmark: three workloads (`analytic`, `serve`,
//! `spill`), each run as its own process, plus a traced run that times calls
//! into every layer. See `README.md` for why each workload exists and which
//! layer metric should move which end-to-end metric.

#![forbid(unsafe_code)]

pub mod analytic;
pub mod check;
pub mod layers;
pub mod serve;
pub mod spill;
pub mod stats;
pub mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Engine and server threads every workload runs with.
pub const THREADS: usize = 2;

/// Derive a sub-seed for one input from the run's seed, so inputs of one run
/// are independent of each other yet fixed by `--seed`.
pub fn sub_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold one-shot FAQ queries in a closed loop.
    Analytic,
    /// An open-loop read/write mix against a `FaqServer`.
    Serve,
    /// An out-of-core triangle count over a spilled relation.
    Spill,
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "analytic" => Some(Workload::Analytic),
            "serve" => Some(Workload::Serve),
            "spill" => Some(Workload::Spill),
            _ => None,
        }
    }
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Traced run: record spans and report per-layer metrics.
    pub trace: bool,
    /// Directory for the span log.
    pub out_dir: PathBuf,
}

impl Args {
    /// Parse `--workload W --seed N --seconds S --trace 0|1 [--out-dir D]`.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut out_dir = PathBuf::from(".");
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 120.0) {
                        return Err("--seconds must be in (0, 120]".into());
                    }
                    seconds = Some(s)
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                }
                "--out-dir" => out_dir = PathBuf::from(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            out_dir,
        })
    }
}

/// Outcome counts and metrics of a run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (timed requests and checks).
    pub attempted: u64,
    /// Operations that failed: wrong answers, errors, rejections.
    pub failed: u64,
    /// Wrong answers among the failures; any makes the run incorrect.
    pub wrong: u64,
    /// `(name, value, unit)` in output order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
}

impl Report {
    /// Record a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Record a text line (also echoed to stderr as the run goes).
    pub fn line(&mut self, s: impl Into<String>) {
        let s = s.into();
        eprintln!("{s}");
        self.lines.push(s);
    }

    /// Count one checked operation; a wrong answer also fails the run.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.wrong_answer(what);
        }
    }

    /// Count a wrong answer to an operation already counted as attempted.
    pub fn wrong_answer(&mut self, what: &str) {
        self.failed += 1;
        self.wrong += 1;
        self.line(format!("WRONG ANSWER: {what}"));
    }

    /// Fold another report's counts, lines and metrics into this one.
    pub fn absorb(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.metrics.extend(other.metrics);
        self.lines.extend(other.lines);
    }

    /// The result object: `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no infinities; a failed-only series reads as the
                // largest finite value, which misses every bound.
                let v = if value.is_finite() { *value } else { f64::MAX };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.wrong == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Sleep until `t` (returns at once if it has passed).
pub fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// The process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Time batches of `per_batch` calls of `setup` for at least `seconds` (and
/// at least 3 batches); each sample is a batch's mean time per call, in
/// seconds. Each result is dropped untimed before the next call, so only one
/// is alive at a time and tear-down is not charged; the last result is
/// returned. On a shared 2-vCPU virtual machine the speed of the same code
/// drifted by a quarter within seconds, so a set-up figure needs samples
/// spread over time, not a burst of them.
pub fn timed_setup<T>(
    seconds: f64,
    per_batch: usize,
    mut setup: impl FnMut() -> T,
) -> (T, Vec<f64>) {
    assert!(per_batch >= 1, "at least one set-up per batch");
    let start = Instant::now();
    let mut secs = Vec::new();
    let mut last = None;
    while secs.len() < 3 || start.elapsed().as_secs_f64() < seconds {
        let mut total = Duration::ZERO;
        for _ in 0..per_batch {
            drop(last.take());
            let (v, d) = trace::span("setup", &mut setup);
            total += d;
            last = Some(v);
        }
        secs.push(total.as_secs_f64() / per_batch as f64);
    }
    (last.expect("at least one set-up"), secs)
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Run the workload an [`Args`] names, untraced or traced.
pub fn run(args: &Args) -> Report {
    if args.trace {
        trace::enable();
    }
    let mut report = match args.workload {
        Workload::Analytic => analytic::run(args),
        Workload::Serve => serve::run(args),
        Workload::Spill => spill::run(args),
    };
    if args.trace {
        // The traced run reports per-layer metrics only; the workload's own
        // end-to-end figures stay in its text lines (and the span log).
        let p50 = report.metrics.iter().find(|m| m.0 == "p50_ms").map_or(f64::NAN, |m| m.1);
        report.metrics.clear();
        report.metric("trace.p50_ms", p50, "ms");
        report.absorb(layers::run(args));
        let spans = trace::drain();
        for (name, (count, total, own)) in trace::summarize(&spans) {
            report.line(format!("span {name}: count={count} total={total:.3}ms self={own:.3}ms"));
        }
        let path = args.out_dir.join(format!("spans-{:?}-seed{}.jsonl", args.workload, args.seed));
        match trace::write_jsonl(&path, &spans) {
            Ok(()) => {
                report.line(format!("spans written: {} ({} spans)", path.display(), spans.len()))
            }
            Err(e) => report.line(format!("could not write spans to {}: {e}", path.display())),
        }
    }
    report
}

/// Print a report's lines and its result object (last), and return the exit
/// code: non-zero on any wrong answer.
pub fn finish(report: Report) -> i32 {
    for l in &report.lines {
        println!("# {l}");
    }
    println!("{}", report.to_json());
    if report.wrong == 0 {
        0
    } else {
        1
    }
}
