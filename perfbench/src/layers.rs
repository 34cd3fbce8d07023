//! The traced run's per-layer probes: timed calls into each layer's public
//! functions, each on the inputs of the workload that layer should move
//! (the `on` column of the map in `README.md`). Every call goes through
//! [`trace::span`], so the span log holds what the metrics were read from.

use crate::analytic::{self, cold_copy, CountQuery};
use crate::check::{digest, Bits};
use crate::serve::{self, Load};
use crate::spill;
use crate::stats::{max_passing_rate, median};
use crate::{ms, trace, Report, THREADS};
use faq_core::{run_elimination_with_policy, Engine, ExecPolicy, FaqQuery, PreparedQuery};
use faq_factor::{Factor, FactorTrie};
use faq_join::{multiway_join, JoinInput};
use faq_semiring::AggDomain;
use rand::seq::SliceRandom;
use std::sync::Arc;
use std::time::Duration;

/// Run every probe.
pub fn run(args: &crate::Args) -> Report {
    let mut r = Report::default();
    analytic_layers(args.seed, &mut r);
    spill_layers(args.seed, &mut r);
    serve_layers(args.seed, &mut r);
    r.line(
        "unmeasured serve.queue_wait_ms: ServeOutput reports submission-to-completion latency \
         only; no public call splits it into queue wait and evaluation",
    );
    r
}

/// Median duration of `reps` calls of `f` recorded as span `name`.
fn median_span<T>(name: &str, reps: usize, mut f: impl FnMut() -> T) -> (T, Duration) {
    let mut last = None;
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let (v, d) = trace::span(name, &mut f);
        times.push(d.as_secs_f64());
        last = Some(v);
    }
    (last.expect("reps >= 1"), Duration::from_secs_f64(median(&times)))
}

/// Least-upper-bound probes over the level-1 windows of `trie` with the
/// values of `probes` as bounds: ascending with the hint carried (warm),
/// then shuffled with no hint (cold). Returns ns per probe for each and
/// whether both passes found the same entries.
fn lub_probe(trie: &FactorTrie, probes: &[u32], max_windows: usize, seed: u64) -> (f64, f64, bool) {
    let (l0, l1) = (trie.level(0), trie.level(1));
    let step = l0.len().div_ceil(max_windows).max(1);
    let windows: Vec<(usize, usize)> =
        (0..l0.len()).step_by(step).map(|j| l0.child_range(j)).collect();
    let warm_pass = || {
        let mut acc = 0u64;
        for &w in &windows {
            let mut hint = usize::MAX;
            for &b in probes {
                let j = l1.lub_from(w, hint, b);
                acc = acc.wrapping_add(j.unwrap_or(w.1) as u64);
                hint = j.unwrap_or(hint);
            }
        }
        acc
    };
    let mut cold: Vec<((usize, usize), u32)> =
        windows.iter().flat_map(|&w| probes.iter().map(move |&b| (w, b))).collect();
    cold.shuffle(&mut faq_bench::rng(seed));
    let cold_pass = || {
        cold.iter().fold(0u64, |acc, &(w, b)| {
            acc.wrapping_add(l1.lub_from(w, usize::MAX, b).unwrap_or(w.1) as u64)
        })
    };
    let n = cold.len().max(1) as f64;
    let (warm_sum, warm) = median_span("storage.lub_warm", 5, warm_pass);
    let (cold_sum, cold_t) = median_span("storage.lub_cold", 5, cold_pass);
    (warm.as_nanos() as f64 / n, cold_t.as_nanos() as f64 / n, warm_sum == cold_sum)
}

/// Trie build time and rows over the inputs of `q`.
fn trie_builds<D: AggDomain + Clone>(q: &FaqQuery<D>) -> (Duration, usize) {
    let q = cold_copy(q);
    q.factors.iter().fold((Duration::ZERO, 0), |(t, rows), f| {
        (t + trace::span("trie.build", || f.trie().num_rows()).1, rows + f.len())
    })
}

/// The L1 leapfrog join of a counting query's inputs along `order`.
fn join_probe(
    name: &str,
    q: &CountQuery,
    order: &[faq_hypergraph::Var],
    expect_rows: usize,
    r: &mut Report,
) {
    let aligned: Vec<Factor<u64>> = q.factors.iter().map(|f| f.align_to(order)).collect();
    for f in &aligned {
        f.trie();
    }
    let inputs: Vec<JoinInput<'_, u64>> = aligned.iter().map(JoinInput::value).collect();
    let ((stats, rows), t) = median_span("join.multiway", 3, || {
        let mut rows = 0usize;
        let stats = multiway_join(&q.domains, order, &inputs, 1u64, |a, b| a * b, |_, _| rows += 1);
        (stats, rows)
    });
    r.check(
        rows == expect_rows,
        &format!("join {name}: {rows} matches vs {expect_rows} output rows"),
    );
    r.metric(
        format!("join.ns_per_seek.{name}"),
        t.as_nanos() as f64 / stats.seeks.max(1) as f64,
        "ns",
    );
    r.metric(
        format!("join.seeks_per_row.{name}"),
        stats.seeks as f64 / stats.matches.max(1) as f64,
        "count",
    );
    r.metric(format!("join.matches.{name}"), stats.matches as f64, "count");
}

/// Planner, elimination and executor probes of one analytic shape.
fn shape_layers<D>(name: &str, master: &FaqQuery<D>, r: &mut Report) -> Vec<faq_hypergraph::Var>
where
    D: AggDomain + Clone + Sync,
    D::E: Bits,
{
    r.line(format!("layers: probing {name}"));
    let engine = analytic::engine();
    let q = cold_copy(master);
    let (plan, plan_t) =
        trace::span("plan.plan", || engine.plan(&q).expect("analytic query plans"));
    let order = plan.order.clone();
    let est: f64 = plan.steps.iter().map(|s| s.est_rows).sum();
    let (prepared, prep_t) = trace::span("plan.prepare", || {
        PreparedQuery::with_plan(&q, Arc::new(plan)).expect("analytic query prepares")
    });
    prepared.evaluate().expect("warm-up evaluation");
    let (out, eval_t) =
        median_span("plan.evaluate", 3, || prepared.evaluate().expect("evaluation"));
    let actual: u64 = out.stats.steps.iter().filter_map(|s| s.join.map(|j| j.matches)).sum();
    r.metric(format!("plan.plan_ms.{name}"), ms(plan_t), "ms");
    r.metric(format!("plan.prepare_ms.{name}"), ms(prep_t), "ms");
    r.metric(format!("plan.eval_ms.{name}"), ms(eval_t), "ms");
    r.metric(format!("plan.est_over_actual.{name}"), est / actual.max(1) as f64, "ratio");

    r.line(format!("layers: {name} planned and evaluated"));
    let policy = ExecPolicy::with_threads(THREADS);
    let mut allocs = 0;
    let (arts, elim_t) = median_span("elim.phase12", 3, || {
        let a0 = faq_testalloc::allocation_count();
        let arts = run_elimination_with_policy(prepared.query(), &order, &policy)
            .expect("elimination succeeds");
        allocs = faq_testalloc::allocation_count() - a0;
        arts
    });
    let st = &arts.stats;
    r.metric(format!("elim.phase12_ms.{name}"), ms(elim_t), "ms");
    r.metric(format!("elim.output_ms.{name}"), ms(eval_t) - ms(elim_t), "ms");
    r.metric(format!("elim.steps.{name}"), st.steps.len() as f64, "count");
    r.metric(
        format!("elim.rows_out.{name}"),
        st.steps.iter().map(|s| s.rows_out).sum::<usize>() as f64,
        "count",
    );
    r.metric(format!("elim.seeks.{name}"), st.total_seeks() as f64, "count");
    r.metric(format!("elim.max_intermediate_rows.{name}"), st.max_intermediate as f64, "count");
    r.metric(format!("elim.allocs.{name}"), allocs as f64, "count");

    r.line(format!("layers: {name} eliminated"));
    // Executor: the same warm evaluation planned for 1 and for 2 threads.
    let warm = |threads: usize| {
        let p = Engine::new().threads(threads).prepare(&cold_copy(master)).expect("prepares");
        let first = p.evaluate().expect("evaluates").factor;
        let (_, t) = median_span(&format!("exec.evaluate.t{threads}"), 3, || p.evaluate());
        (digest(&first), t)
    };
    let (d1, t1) = warm(1);
    let (d2, t2) = warm(THREADS);
    r.check(d1 == d2, &format!("exec {name}: 1- and {THREADS}-thread answers differ"));
    r.metric(format!("exec.speedup.{name}"), t1.as_secs_f64() / t2.as_secs_f64(), "ratio");
    order
}

fn analytic_layers(seed: u64, r: &mut Report) {
    let shapes = analytic::inputs(seed);
    let (mut build, mut rows) = (Duration::ZERO, 0usize);
    for shape in &shapes {
        let (t, n) = crate::with_query!(&shape.query, q => trie_builds(q));
        build += t;
        rows += n;
        let order = crate::with_query!(&shape.query, q => shape_layers(shape.name, q, r));
        if let analytic::Query::Count(q) = &shape.query {
            let expect = analytic::cold_query(q).0.map_or(0, |f| f.len());
            join_probe(shape.name, q, &order, expect, r);
            if shape.name == "triangle" {
                // L0: R(a,b)'s level-1 windows probed with S(b,c)'s b values.
                let probes: Vec<u32> = {
                    let s = cold_copy(q).factors[1].align_to(&order);
                    let l0 = s.trie().level(0);
                    (0..l0.len()).map(|j| l0.value(j)).collect()
                };
                let rfac = q.factors[0].align_to(&order);
                let (warm, cold, same) = lub_probe(rfac.trie(), &probes, usize::MAX, seed);
                r.check(same, "storage: warm and cold seeks found different entries");
                r.metric("storage.lub_warm_ns", warm, "ns");
                r.metric("storage.lub_cold_ns", cold, "ns");
            }
        }
    }
    r.metric("trie.build_ns_per_row", build.as_nanos() as f64 / rows.max(1) as f64, "ns");
}

fn spill_layers(seed: u64, r: &mut Report) {
    let p = spill::params(seed);
    let (data, gen) = spill::generate(&p);
    let st = data.r.spill_stats().expect("R is spilled");
    r.metric(
        "colstore.write_mib_s",
        st.file_bytes as f64 / (1 << 20) as f64 / gen.as_secs_f64(),
        "MiB/s",
    );
    let e2 = spill::evaluate(&p, &data, THREADS);
    r.check(e2.count_ok && e2.cap_ok, "spill: count or pinned-byte cap check failed");
    r.metric("colstore.chunk_reads", e2.reads as f64, "count");
    // Computed: reads × the listing's mean chunk size (level chunks differ).
    let chunk_bytes = st.file_bytes as f64 / st.chunks.max(1) as f64;
    r.metric("colstore.read_mib", e2.reads as f64 * chunk_bytes / (1 << 20) as f64, "MiB");
    r.metric("colstore.peak_pinned_kib", e2.peak_pinned as f64 / 1024.0, "KiB");
    let e1 = spill::evaluate(&p, &data, 1);
    r.check(e1.count_ok, "spill: 1-thread count differs from the planted triangles");
    r.metric("exec.speedup.spill", e1.time.as_secs_f64() / e2.time.as_secs_f64(), "ratio");

    // Spilled seeks: R's level-1 windows probed with S's b values.
    let rc = data.r.clone();
    let trie = trace::span("trie.build_spilled", || rc.trie()).0;
    let l0 = data.s.trie().level(0);
    let probes: Vec<u32> = (0..l0.len()).step_by(32).map(|j| l0.value(j)).collect();
    let (warm, _, same) = lub_probe(trie, &probes, 64, seed);
    r.check(same, "colstore: warm and cold spilled seeks found different entries");
    r.metric("colstore.spilled_lub_ns", warm, "ns");
}

fn serve_layers(seed: u64, r: &mut Report) {
    let s = serve::setup(seed);
    let refs = serve::references(&s, r);
    let load = Load {
        fresh_qps: serve::FRESH_QPS,
        cached_qps: serve::CACHED_QPS,
        write_pairs_per_s: serve::WRITE_PAIRS_PER_S,
        seconds: 4.0,
    };
    let mut o = serve::run_phase(&s, &refs, load);
    r.absorb(std::mem::take(&mut o.report));
    let (s0, s1) = o.stats;
    let completed = (s1.completed - s0.completed).max(1) as f64;
    r.metric("serve.admit_us", median(&o.admit_us), "us");
    r.metric("serve.latency_ms", median(&o.fresh_service), "ms");
    r.metric("serve.generator_lag_ms", median(&o.lag_ms), "ms");
    r.metric("serve.cache_hit_ratio", (s1.cache_hits - s0.cache_hits) as f64 / completed, "ratio");
    r.metric(
        "serve.coalesced_ratio",
        (s1.coalesced - s0.coalesced) as f64 / (s1.submitted - s0.submitted).max(1) as f64,
        "ratio",
    );
    r.metric("serve.rejected", (s1.rejected - s0.rejected) as f64, "count");
    r.metric("serve.live_epochs", s1.live_epochs as f64, "count");
    r.metric("serve.resident_mib", s1.resident_bytes as f64 / (1 << 20) as f64, "MiB");
    let publish_ms = median(&o.writes);
    r.metric("serve.publish_ms", publish_ms, "ms");

    // Direct evaluation on one epoch: the evaluation share of a fresh read.
    let snap = s.server.snapshot();
    let evals: Vec<f64> = s
        .queries
        .iter()
        .map(|(_, id, _)| {
            let p = snap.prepared(*id).expect("registered");
            ms(median_span("serve.direct_evaluate", 5, || p.evaluate()).1)
        })
        .collect();
    r.metric("serve.eval_ms", evals.iter().sum::<f64>() / evals.len() as f64, "ms");

    // Delta replay against recompute, per registered query.
    let mut with_edge = s.nj.clone();
    let edge: Vec<u32> = s.insert.iter().next().expect("one-row delta").0.to_vec();
    with_edge.relations[0] = faq_apps::joins::Relation::new(
        with_edge.relations[0].vars.clone(),
        with_edge.relations[0].tuples.iter().cloned().chain([edge]).collect(),
    );
    let (r_base, r_edge) = (s.nj.relations[0].to_factor(), with_edge.relations[0].to_factor());
    let (mut apply_all, mut recompute_all, mut apply_sum) = (Vec::new(), Vec::new(), 0.0);
    for (qi, (name, id, _)) in s.queries.iter().enumerate() {
        let mut h = (**snap.prepared(*id).expect("registered")).clone();
        // Prime the replay trace, then time warm insert/delete pairs.
        h.apply_delta(0, &s.insert).expect("delta applies");
        h.apply_delta(0, &s.delete).expect("delta applies");
        let mut applies = Vec::new();
        let mut recomputes = Vec::new();
        let mut g = (**snap.prepared(*id).expect("registered")).clone();
        for k in 0..10 {
            let (delta, factor, state) =
                if k % 2 == 0 { (&s.insert, &r_edge, 1) } else { (&s.delete, &r_base, 0) };
            let (out, t) = trace::span("delta.apply", || h.apply_delta(0, delta));
            let ok = out.is_ok_and(|o| refs.state(state, qi) == digest(&o.factor));
            r.check(ok, &format!("delta {name}: replayed answer differs from the reference"));
            applies.push(ms(t));
            let factor = factor.clone();
            let (out, t) = trace::span("delta.recompute", || {
                g.update_factor(0, factor).and_then(|()| g.evaluate())
            });
            let ok = out.is_ok_and(|o| refs.state(state, qi) == digest(&o.factor));
            r.check(ok, &format!("delta {name}: recomputed answer differs from the reference"));
            recomputes.push(ms(t));
        }
        apply_sum += median(&applies);
        apply_all.extend(applies);
        recompute_all.extend(recomputes);
    }
    let (apply, recompute) = (median(&apply_all), median(&recompute_all));
    r.metric("delta.apply_ms", apply, "ms");
    r.metric("delta.recompute_ms", recompute, "ms");
    r.metric("delta.speedup", recompute / apply, "ratio");
    r.metric("serve.publish_overhead_ms", publish_ms - apply_sum, "ms");

    let rungs = serve::ladder(&s, &refs, r);
    r.metric("serve.max_fresh_qps", max_passing_rate(&rungs, serve::P99_LIMIT_MS, THREADS), "1/s");
}
