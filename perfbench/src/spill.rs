//! `spill`: the out-of-core triangle count of `faq_bench::out_of_core` at
//! 4·10⁶ rows — a 61 MiB chunk file against an 8 MiB resident cap — with 2
//! threads. Every timed evaluation starts from a freshly spilled `R` with no
//! built trie, and checks the count against the planted triangles and the
//! peak pinned bytes against the cap.

use crate::stats::{quantile_sorted, sorted, Summary};
use crate::{ms, peak_rss_mib, sub_seed, trace, Args, Report, THREADS};
use faq_bench::out_of_core::{self, OocData, OocParams};
use faq_factor::{chunk_reads, fault, peak_pinned_bytes, reset_peak_pinned_bytes};
use std::time::{Duration, Instant};

/// Rows of the spilled relation `R`.
pub const ROWS: usize = 4_000_000;

/// The percentile `tail_ms` reports. A 25 s run holds 13–18 evaluations
/// (each about 1.1–1.75 s plus 0.2 s to generate its instance), so no
/// percentile has 10 samples beyond it; the median has 6–8.
pub const TAIL_Q: f64 = 0.5;

/// The workload's parameters for `seed`.
pub fn params(seed: u64) -> OocParams {
    OocParams {
        rows: ROWS,
        // √(32·rows) rounded up to a power of two, as `OocParams::full`.
        nodes: 16384,
        planted: 2048,
        cap_bytes: 8 << 20,
        chunk_rows: 8192,
        window_chunks: 8,
        threads: THREADS,
        seed: sub_seed(seed, 5),
    }
}

/// What one checked evaluation measured.
pub struct Eval {
    /// Wall time of the count, including the spilled trie build.
    pub time: Duration,
    /// Chunks faulted in during the count.
    pub reads: u64,
    /// Peak bytes pinned during the count.
    pub peak_pinned: usize,
    /// Whether the count equals the planted triangles.
    pub count_ok: bool,
    /// Whether the peak pinned bytes stayed within the cap.
    pub cap_ok: bool,
}

/// Count the triangles of `data` with `threads` workers from its trie-less
/// spilled `R`, measuring chunk traffic. The gauges are process-wide, so
/// nothing else may run meanwhile.
pub fn evaluate(p: &OocParams, data: &OocData, threads: usize) -> Eval {
    assert!(data.r.trie_if_built().is_none(), "the spilled R already has a built trie");
    reset_peak_pinned_bytes();
    let reads0 = chunk_reads();
    let (count, time) =
        trace::span("spill.evaluate", || out_of_core::count_triangles(data, threads));
    let peak_pinned = peak_pinned_bytes();
    Eval {
        time,
        reads: chunk_reads() - reads0,
        peak_pinned,
        count_ok: count == data.planted as u64,
        cap_ok: peak_pinned <= p.cap_bytes,
    }
}

/// Generate the spilled instance, timed.
pub fn generate(p: &OocParams) -> (OocData, Duration) {
    trace::span("spill.generate", || out_of_core::generate(p))
}

/// Run the workload.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let mut p = params(args.seed);
    let faults0 = (fault::io_retries(), fault::corrupt_chunks());
    let mut gen_s = Vec::new();
    let mut eval_ms = Vec::new();
    let mut reads = Vec::new();
    let mut peak = 0usize;
    let mut file_bytes = 0usize;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut i = 0u64;
    // Every evaluation gets its own spilled copy: a spilled trie writes its
    // levels into R's spill directory, which is removed when R drops.
    while i < 3 || Instant::now() < deadline {
        // Each evaluation draws its own instance: evaluation time depends on
        // the instance (how the planted wedges fall across the partition),
        // so a run's median covers many instances rather than one.
        p.seed = sub_seed(args.seed, 100 + i);
        let (data, gen) = generate(&p);
        gen_s.push(gen.as_secs_f64());
        file_bytes = data.r.spill_stats().map_or(0, |s| s.file_bytes);
        i += 1;
        let e = trace::with_request(i, || evaluate(&p, &data, THREADS));
        report.check(e.count_ok, "spill: triangle count differs from the planted triangles");
        if !e.cap_ok {
            report.failed += 1;
            report.line(format!(
                "spill: {} pinned bytes exceed the {}-byte cap",
                e.peak_pinned, p.cap_bytes
            ));
        }
        eval_ms.push(if e.count_ok && e.cap_ok { ms(e.time) } else { f64::INFINITY });
        reads.push(e.reads);
        peak = peak.max(e.peak_pinned);
    }
    let faults = (fault::io_retries() - faults0.0, fault::corrupt_chunks() - faults0.1);
    report.failed += faults.0 + faults.1;

    let s = Summary::of(&eval_ms);
    let each: Vec<String> = eval_ms.iter().map(|t| format!("{t:.0}")).collect();
    report.line(format!("spill: evaluations in run order, ms: {}", each.join(" ")));
    report.line(format!("metric eval_s {:.4} s ({})", s.p50 / 1e3, s.describe("ms")));
    report.line(format!(
        "spill: {} rows, {:.1} MiB on disk, cap {} MiB, peak pinned {} KiB, chunk reads per eval min {} max {}, io_retries {}, corrupt_chunks {}",
        p.rows,
        file_bytes as f64 / (1 << 20) as f64,
        p.cap_bytes >> 20,
        peak >> 10,
        reads.iter().min().copied().unwrap_or(0),
        reads.iter().max().copied().unwrap_or(0),
        faults.0,
        faults.1
    ));
    report.metric("setup_s", crate::stats::median(&gen_s), "s");
    report.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    report.metric("p50_ms", s.p50, "ms");
    report.metric("tail_ms", quantile_sorted(&sorted(&eval_ms), TAIL_Q), "ms");
    report
}
