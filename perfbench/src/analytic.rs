//! `analytic`: cold one-shot FAQ queries in a closed loop from one client
//! thread, four shapes interleaved round-robin. Every query plans, prepares
//! and evaluates from inputs with no built trie.

use crate::check::{digest, same_answer, Bits, Digest};
use crate::stats::{geomean, Summary};
use crate::{ms, peak_rss_mib, sub_seed, timed_setup, trace, Args, Report, THREADS};
use faq_apps::{joins, pgm};
use faq_core::{insideout_with_order, naive_eval, Engine, FaqError, FaqQuery, JoinRep, VarAgg};
use faq_factor::Factor;
use faq_hypergraph::Var;
use faq_semiring::{AggDomain, CountSumProd, RealDomain, SingleSemiringDomain};
use std::time::{Duration, Instant};

/// The percentile `tail_ms` reports for each shape. At the benchmark's run
/// length every shape has well over 10 samples beyond it.
pub const TAIL_Q: f64 = 0.75;

/// Seconds of set-up batches timed before the loop and again after it.
pub const SETUP_SECONDS: f64 = 0.8;
/// Input generations per set-up batch (about 8 ms each).
pub const SETUP_PER_BATCH: usize = 4;

/// A counting query (natural joins).
pub type CountQuery = FaqQuery<SingleSemiringDomain<CountSumProd>>;

/// One query shape of the mix.
pub enum Query {
    /// A natural join, counted per output tuple.
    Count(CountQuery),
    /// A real-valued query (PGM marginal, Example 5.6).
    Real(FaqQuery<RealDomain>),
}

/// Dispatch `$body` over the query's domain type.
#[macro_export]
macro_rules! with_query {
    ($query:expr, $q:ident => $body:expr) => {
        match $query {
            $crate::analytic::Query::Count($q) => $body,
            $crate::analytic::Query::Real($q) => $body,
        }
    };
}

/// A named shape.
pub struct Shape {
    /// `triangle`, `path4`, `pgm` or `ex56`.
    pub name: &'static str,
    /// The query over pristine inputs: no trie is ever built on them.
    pub query: Query,
}

fn edges_graph(nodes: u32, m: usize, seed: u64) -> Vec<(u32, u32)> {
    joins::random_graph(nodes, m, &mut faq_bench::rng(seed))
}

/// The triangle join over a 128-node random graph with `m` edges.
pub fn triangle(m: usize, seed: u64) -> joins::NaturalJoin {
    joins::triangle_query(&edges_graph(128, m, seed), 128)
}

/// Generate the four shapes from `seed` (the `faq_bench` hot-path and
/// Example 5.6 generators at their benchmark sizes, reseeded).
pub fn inputs(seed: u64) -> Vec<Shape> {
    let tri = triangle(8000, sub_seed(seed, 1)).to_faq().expect("triangle is a valid FAQ");
    let path4 = joins::path_query(&edges_graph(96, 800, sub_seed(seed, 2)), 96, 4)
        .to_faq()
        .expect("path4 is a valid FAQ");
    let model = pgm::random_chain(12, 32, &mut faq_bench::rng(sub_seed(seed, 3)));
    let bound: Vec<(Var, VarAgg)> = model
        .domains
        .vars()
        .filter(|&v| v != Var(0))
        .map(|v| (v, VarAgg::Semiring(RealDomain::SUM)))
        .collect();
    let pgm =
        FaqQuery::new(RealDomain, model.domains.clone(), vec![Var(0)], bound, model.potentials)
            .expect("chain PGM is a valid FAQ");
    let ex56 = faq_bench::example_5_6_query(1000, sub_seed(seed, 4));
    vec![
        Shape { name: "triangle", query: Query::Count(tri) },
        Shape { name: "path4", query: Query::Count(path4) },
        Shape { name: "pgm", query: Query::Real(pgm) },
        Shape { name: "ex56", query: Query::Real(ex56) },
    ]
}

/// The engine every analytic query runs on.
pub fn engine() -> Engine {
    Engine::new().threads(THREADS)
}

/// A copy of `master` whose inputs carry no built trie. Panics otherwise:
/// `Factor::clone` keeps a built trie, so a reused input would silently
/// measure a warm prepare.
pub fn cold_copy<D: AggDomain + Clone>(master: &FaqQuery<D>) -> FaqQuery<D> {
    let q = master.clone();
    assert!(
        q.factors.iter().all(|f| f.trie_if_built().is_none()),
        "an analytic input already has a built trie"
    );
    q
}

/// One cold query: plan, prepare and evaluate a trie-less copy of `master`.
pub fn cold_query<D: AggDomain + Clone + Sync>(
    master: &FaqQuery<D>,
) -> (Result<Factor<D::E>, FaqError>, Duration) {
    let q = cold_copy(master);
    let engine = engine();
    let t0 = Instant::now();
    let (prepared, _) = trace::span("core.prepare", || engine.prepare(&q));
    let out = prepared.and_then(|p| trace::span("core.evaluate", || p.evaluate()).0);
    (out.map(|o| o.factor), t0.elapsed())
}

/// Check the engine's answer to `shape` once against a second evaluation
/// path; returns the reference digest every timed answer must reproduce.
fn reference(shape: &Shape, report: &mut Report) -> Option<Digest> {
    fn against<E: Bits>(
        report: &mut Report,
        name: &str,
        engine: &Result<Factor<E>, FaqError>,
        others: &[(&str, Result<Factor<E>, FaqError>)],
        rel: f64,
    ) -> Option<Digest> {
        let Ok(answer) = engine else {
            report.check(false, &format!("{name}: engine failed: {engine:?}"));
            return None;
        };
        for (path, other) in others {
            let ok = other.as_ref().is_ok_and(|o| same_answer(answer, o, rel));
            report.check(ok, &format!("{name}: engine answer differs from {path}"));
        }
        report.line(format!(
            "check {name}: {} output rows agree with {} path(s)",
            answer.len(),
            others.len()
        ));
        Some(digest(answer))
    }
    let seq_listing = Engine::sequential().rep(JoinRep::Listing);
    match (&shape.query, shape.name) {
        (Query::Count(q), "triangle") => {
            let engine = cold_query(q).0;
            against(
                report,
                shape.name,
                &engine,
                &[("naive_eval", Ok(naive_eval(&cold_copy(q))))],
                0.0,
            )
        }
        (Query::Count(q), _) => {
            let engine = cold_query(q).0;
            let listing = seq_listing.evaluate(&cold_copy(q)).map(|o| o.factor);
            against(report, shape.name, &engine, &[("sequential listing kernel", listing)], 0.0)
        }
        (Query::Real(q), "pgm") => {
            let engine = cold_query(q).0;
            let chain = q.ordering();
            let listing = seq_listing.evaluate_with_order(&cold_copy(q), &chain).map(|o| o.factor);
            against(report, shape.name, &engine, &[("chain-order listing kernel", listing)], 1e-9)
        }
        (Query::Real(q), _) => {
            let engine = cold_query(q).0;
            let good = insideout_with_order(&cold_copy(q), &faq_bench::example_5_6_good_order())
                .map(|o| o.factor);
            let input = insideout_with_order(&cold_copy(q), &faq_bench::example_5_6_input_order())
                .map(|o| o.factor);
            against(
                report,
                shape.name,
                &engine,
                &[("good order", good), ("input order", input)],
                1e-9,
            )
        }
    }
}

/// Run the workload.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    // Set-up is sampled before and after the loop, so its median covers the
    // host's state at both ends of the run. One input set serves the whole
    // run: `cold_query` times trie-less copies of it.
    let (shapes, mut setup_s) = timed_setup(SETUP_SECONDS, SETUP_PER_BATCH, || inputs(args.seed));
    let refs: Vec<Option<Digest>> = shapes.iter().map(|s| reference(s, &mut report)).collect();

    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); shapes.len()];
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut i = 0usize;
    while Instant::now() < deadline {
        let k = i % shapes.len();
        let (answer, dt) = trace::with_request(i as u64 + 1, || {
            trace::span("analytic.query", || {
                with_query!(&shapes[k].query, q => {
                    let (out, dt) = cold_query(q);
                    (out.map(|f| digest(&f)), dt)
                })
            })
            .0
        });
        report.attempted += 1;
        match answer {
            Ok(d) if Some(d) == refs[k] => samples[k].push(ms(dt)),
            Ok(_) => {
                report.wrong_answer(&format!(
                    "{}: timed answer differs from its reference",
                    shapes[k].name
                ));
                samples[k].push(f64::INFINITY);
            }
            Err(e) => {
                report.failed += 1;
                report.line(format!("{}: query failed: {e}", shapes[k].name));
                samples[k].push(f64::INFINITY);
            }
        }
        i += 1;
    }
    setup_s.extend(timed_setup(SETUP_SECONDS, SETUP_PER_BATCH, || inputs(args.seed)).1);

    let mut p50s = Vec::new();
    let mut tails = Vec::new();
    for (shape, xs) in shapes.iter().zip(&samples) {
        let s = Summary::of(xs);
        let sorted = crate::stats::sorted(xs);
        let tail = crate::stats::quantile_sorted(&sorted, TAIL_Q);
        report.line(format!("metric {}_p50_ms {:.4} ms ({})", shape.name, s.p50, s.describe("ms")));
        if crate::stats::beyond(s.n, TAIL_Q) < crate::stats::MIN_BEYOND {
            report.line(format!(
                "warning: {} has fewer than 10 samples beyond p{}",
                shape.name,
                TAIL_Q * 100.0
            ));
        }
        p50s.push(s.p50);
        tails.push(tail);
    }
    report.line(format!(
        "analytic: {} cold queries; p50_ms/tail_ms are geometric means over the shapes of p50/p{}",
        i,
        TAIL_Q * 100.0
    ));
    report.metric("setup_s", crate::stats::median(&setup_s), "s");
    report.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    report.metric("p50_ms", geomean(&p50s), "ms");
    report.metric("tail_ms", geomean(&tails), "ms");
    report
}
