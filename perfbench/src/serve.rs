//! `serve_road`: a frozen greedy spanner of a road-like graph served behind
//! the default `Router`, driven open-loop by one client thread.

use std::time::{Duration, Instant};

use greedy_spanner::runtime::{QosClass, Router};
use greedy_spanner::serve::{Answer, Query, ServeError, SpannerServer};
use greedy_spanner::Spanner;
use spanner_graph::dijkstra::{ball, bounded_distance, shortest_path_distance, shortest_path_tree};
use spanner_graph::mst::mst_weight;
use spanner_graph::{VertexId, WeightedGraph};

use crate::inputs::{self, Request};
use crate::rng::{Rng, Zipf};
use crate::stats::{block_quantile, median, quantile};
use crate::trace::Tracer;
use crate::{heap, print_input, Ctx, Report};

/// The road grid is `SIDE × SIDE`.
const SIDE: usize = 200;
/// Set-ups timed for `setup_s`; the median is reported.
const SETUP_REPS: usize = 3;
/// Offered rate (requests/s) at which `op_p50_ms` is
/// measured, for the whole run when untraced.
const REFERENCE_QPS: f64 = 50.0;
/// Offered-rate ladder (requests/s) for `serve.max_rate_qps`: 50 qps times
/// powers of 1.07, up to about 3600 qps. The highest passing rung is found
/// by bisection (six or seven probes); each probe offers requests for
/// `RUNG_SECONDS`.
const LADDER_BASE_QPS: f64 = 50.0;
const LADDER_RATIO: f64 = 1.07;
const LADDER_RUNGS: usize = 64;
const RUNG_SECONDS: f64 = 1.2;
/// Offers of a rung before it counts as failed.
const PROBE_ATTEMPTS: usize = 2;
/// A rung passes when at least `PASS_SHARE` of its requests are answered
/// within `LATENCY_LIMIT_MS` of when they were due (a shed request misses)
/// and the generator offered that share on time, so no backlog grew. The
/// share is p75 rather than p99 so that a stall of the machine during one
/// short probe does not decide the climb.
const LATENCY_LIMIT_MS: f64 = 100.0;
const PASS_SHARE: f64 = 0.75;
/// The generator spins rather than sleeps for the last this-many seconds
/// before a request is due.
const SPIN_S: f64 = 0.004;
/// Every this-many-th reference-rate request is checked against Dijkstra.
const CHECK_EVERY: usize = 8;

/// What one open-loop phase saw.
#[derive(Default)]
struct Phase {
    offered: usize,
    shed: usize,
    /// Milliseconds from due time to answer, per answered request.
    latency_ms: Vec<f64>,
    /// Milliseconds each offer left after its due time.
    lag_ms: Vec<f64>,
    /// Answers kept for checking, with their request index.
    kept: Vec<(usize, Answer)>,
    errors: Vec<String>,
    busy: Duration,
}

impl Phase {
    /// The `PASS_SHARE` quantile of latency, counting shed requests as
    /// misses.
    fn pass_quantile_ms(&self) -> f64 {
        let mut all = self.latency_ms.clone();
        all.extend(std::iter::repeat_n(f64::INFINITY, self.shed));
        quantile(&all, PASS_SHARE)
    }
}

/// Offers each request of `schedule` when it falls due and polls the
/// router between arrivals.
fn open_loop(
    router: &mut Router<SpannerServer>,
    schedule: &[Request],
    keep: impl Fn(usize) -> bool,
    tracer: &mut Tracer,
) -> Phase {
    let mut phase = Phase {
        offered: schedule.len(),
        ..Phase::default()
    };
    let mut pending = Vec::new();
    let mut next = 0;
    let start = Instant::now();
    while next < schedule.len() || !pending.is_empty() {
        let now = start.elapsed().as_secs_f64();
        if next < schedule.len() && schedule[next].due <= now {
            let request = &schedule[next];
            phase.lag_ms.push((now - request.due) * 1e3);
            tracer.request();
            let class = QosClass::of(&request.query);
            let offered = tracer.span("core.runtime", "offer", || {
                router.offer(class, &[request.query])
            });
            match offered {
                Ok(ticket) => pending.push((ticket, request.due, next)),
                Err(ServeError::Overloaded { .. }) => phase.shed += 1,
                Err(e) => phase.errors.push(format!("request {next}: {e}")),
            }
            next += 1;
            continue;
        }
        if router.queued_units() > 0 {
            let t = Instant::now();
            tracer.span("core.runtime", "poll", || router.poll());
            phase.busy += t.elapsed();
            let done = start.elapsed().as_secs_f64();
            pending.retain(|&(ticket, due, index)| match router.collect(ticket) {
                None => true,
                Some(Ok(mut answers)) => {
                    phase.latency_ms.push((done - due) * 1e3);
                    if keep(index) {
                        phase
                            .kept
                            .push((index, answers.pop().expect("one answer per query")));
                    }
                    false
                }
                Some(Err(e)) => {
                    phase.errors.push(format!("request {index}: {e}"));
                    false
                }
            });
            continue;
        }
        if next < schedule.len() {
            // Sleep only while the next request is far off, then spin, so
            // a late wake-up never delays an offer.
            let wait = schedule[next].due - start.elapsed().as_secs_f64();
            if wait > SPIN_S + 0.001 {
                std::thread::sleep(Duration::from_secs_f64(wait - SPIN_S));
            } else {
                std::hint::spin_loop();
            }
        }
    }
    phase
}

/// Whether `answer` is what Dijkstra on `spanner` gives for `query`.
fn answer_ok(spanner: &WeightedGraph, query: &Query, answer: &Answer) -> bool {
    match (*query, answer) {
        (
            Query::Distance {
                source,
                target,
                bound,
            },
            Answer::Distance(d),
        ) => *d == bounded_distance(spanner, source, target, bound),
        (Query::Path { source, target }, Answer::Path(path)) => {
            let reference = shortest_path_distance(spanner, source, target).ok();
            match path {
                None => reference.is_none(),
                Some(p) => {
                    let walk_ok = p.vertices.first() == Some(&source)
                        && p.vertices.last() == Some(&target)
                        && p.vertices.windows(2).all(|w| spanner.has_edge(w[0], w[1]));
                    walk_ok && reference == Some(p.distance)
                }
            }
        }
        (Query::KNearest { source, k }, Answer::KNearest(members)) => {
            let tree = shortest_path_tree(spanner, source);
            let mut all: Vec<(VertexId, f64)> = tree
                .distances()
                .iter()
                .enumerate()
                .filter(|(_, d)| d.is_finite())
                .map(|(v, &d)| (VertexId(v), d))
                .collect();
            all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            all.truncate(k);
            *members == all
        }
        (Query::Ball { source, radius }, Answer::Ball(members)) => {
            *members == ball(spanner, source, radius)
        }
        _ => false,
    }
}

pub fn serve_road(ctx: &Ctx, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();

    // Set-up: generate, build, freeze and wrap in the default router.
    let mut setup_s = Vec::new();
    let mut freeze_s = 0.0;
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let start = Instant::now();
        let g = inputs::road_graph(SIDE, &mut Rng::stream(ctx.seed, "road_graph"));
        let output = Spanner::greedy()
            .stretch(2.0)
            .threads(ctx.threads)
            .build(&g)
            .expect("greedy build");
        let spanner = output.spanner.clone();
        let t = Instant::now();
        let server = output.serve().threads(ctx.threads).finish();
        freeze_s = t.elapsed().as_secs_f64();
        setup_s.push(start.elapsed().as_secs_f64());
        built = Some((g, spanner, server));
    }
    let (g, spanner, mut server) = built.expect("SETUP_REPS > 0");
    print_input(
        "road_graph",
        &format!("\"n\":{},\"m\":{}", g.num_vertices(), g.num_edges()),
        &inputs::graph_digest(&g),
    );
    let lightness = spanner.total_weight() / mst_weight(&g);
    drop(g);

    let n = SIDE * SIDE;
    let zipf = Zipf::new(n, inputs::MIXED_ZIPF_S, &mut Rng::stream(ctx.seed, "zipf"));
    // A traced run spends a quarter of its time at the reference rate
    // untraced, a quarter traced, and the rest on the ladder.
    let reference_s = if ctx.trace {
        ctx.seconds / 4.0
    } else {
        ctx.seconds
    };
    let reference = inputs::schedule(
        REFERENCE_QPS,
        reference_s,
        n,
        &zipf,
        &mut Rng::stream(ctx.seed, "schedule"),
    );
    print_input(
        "reference_schedule",
        &format!("\"requests\":{}", reference.len()),
        &inputs::queries_digest(reference.iter().map(|r| &r.query)),
    );
    let ladder: Vec<f64> = (0..LADDER_RUNGS)
        .map(|i| LADDER_BASE_QPS * LADDER_RATIO.powi(i as i32))
        .collect();
    let rungs: Vec<Vec<Request>> = ladder
        .iter()
        .enumerate()
        .map(|(i, &qps)| {
            inputs::schedule(
                qps,
                RUNG_SECONDS,
                n,
                &zipf,
                &mut Rng::stream(ctx.seed, &format!("rung{i}")),
            )
        })
        .collect();
    print_input(
        "ladder_schedules",
        &format!("\"requests\":{}", rungs.iter().map(Vec::len).sum::<usize>()),
        &inputs::queries_digest(rungs.iter().flatten().map(|r| &r.query)),
    );

    // The memory figure is the peak while serving: the server, the
    // schedules and what answering them takes, not the build's garbage.
    heap::reset_peak();
    let passes: &[bool] = if ctx.trace { &[false, true] } else { &[false] };
    let mut phase = Phase::default();
    let mut busy_per_request = [f64::NAN; 2];
    let mut router_stats = None;
    let mut final_limit = 0;
    for &traced in passes {
        tracer.set_enabled(traced);
        let mut router = Router::over(server).finish();
        phase = open_loop(&mut router, &reference, |i| i % CHECK_EVERY == 0, tracer);
        let t = Instant::now();
        tracer.span("core.runtime", "drain", || router.drain());
        phase.busy += t.elapsed();
        busy_per_request[traced as usize] = phase.busy.as_secs_f64() / phase.offered.max(1) as f64;
        final_limit = router.limit();
        router_stats = Some(router.stats().clone());
        server = router.into_backend();
    }
    tracer.set_enabled(false);
    let peak_heap_mb = heap::peak_mb();
    let serve_stats = *server.stats();
    let engine = server.engine_stats();

    // The ladder: bisect for the highest passing rung, with a fresh router
    // per probe over the same (warm) server. Rung -1 passes and rung
    // LADDER_RUNGS fails by definition. A failed rung is offered once more
    // before it counts as failed, so one stall of the machine does not end
    // the climb. Only traced runs climb it: its result moved by a quarter
    // between runs of one build, more than an end-to-end bound allows.
    let mut max_rate = 0.0;
    if ctx.trace {
        let (mut pass, mut fail) = (-1isize, LADDER_RUNGS as isize);
        while fail - pass > 1 {
            let mid = (pass + fail) / 2;
            let mut passed = false;
            for _ in 0..PROBE_ATTEMPTS {
                let mut router = Router::over(server).finish();
                let result = open_loop(&mut router, &rungs[mid as usize], |_| false, tracer);
                router.drain();
                server = router.into_backend();
                let latency = result.pass_quantile_ms();
                let lag = quantile(&result.lag_ms, PASS_SHARE);
                println!(
                    "# rung {:.1} qps: {} offered, {} shed, p{} {latency:.1} ms, lag {lag:.1} ms",
                    ladder[mid as usize],
                    result.offered,
                    result.shed,
                    PASS_SHARE * 100.0
                );
                report.attempted += result.offered as u64;
                if !result.errors.is_empty() {
                    report.failed += result.errors.len() as u64;
                    report.fail(result.errors.join("; "));
                }
                passed = latency <= LATENCY_LIMIT_MS && lag <= LATENCY_LIMIT_MS;
                if passed {
                    break;
                }
            }
            if passed {
                pass = mid;
            } else {
                fail = mid;
            }
        }
        if pass >= 0 {
            max_rate = ladder[pass as usize];
        }
    }

    // Checks, outside the timed phases.
    report.attempted += phase.offered as u64;
    report.shed += phase.shed as u64;
    report.failed += phase.errors.len() as u64;
    if !phase.errors.is_empty() {
        report.fail(phase.errors.join("; "));
    }
    for (index, answer) in &phase.kept {
        let query = &reference[*index].query;
        if !answer_ok(&spanner, query, answer) {
            report.failed += 1;
            report.fail(format!(
                "request {index} {query:?} answered {answer:?}, Dijkstra disagrees"
            ));
        }
    }

    let latency = &phase.latency_ms;
    println!(
        "# reference rate: {} requests answered, {} shed",
        latency.len(),
        phase.shed
    );
    report.e2e("setup_s", median(&setup_s), "s");
    report.e2e("op_p50_ms", block_quantile(latency, 0.5), "ms");
    report.e2e("spanner_edges", spanner.num_edges() as f64, "count");
    report.e2e("lightness", lightness, "ratio");
    report.e2e("peak_heap_mb", peak_heap_mb, "MiB");

    let router_stats = router_stats.expect("at least one pass");
    let offered = (router_stats.admitted + router_stats.shed).max(1) as f64;
    report.layer("engine.queries", engine.queries as f64, "count");
    report.layer(
        "engine.settled_per_query",
        engine.settled_vertices as f64 / engine.queries.max(1) as f64,
        "count",
    );
    report.layer(
        "engine.pruned_by_bound",
        engine.pruned_by_bound as f64,
        "count",
    );
    report.layer(
        "kernel.rows_batched",
        serve_stats.kernel.rows_batched as f64,
        "count",
    );
    report.layer(
        "kernel.edges_gathered",
        serve_stats.kernel.edges_gathered as f64,
        "count",
    );
    report.layer(
        "pool.worker_utilization",
        server.worker_utilization(),
        "ratio",
    );
    report.layer("serve.freeze_s", freeze_s, "s");
    report.layer("serve.max_rate_qps", max_rate, "req/s");
    report.layer(
        "serve.cache_hit_rate",
        serve_stats.cache_hit_rate().unwrap_or(0.0),
        "ratio",
    );
    report.layer(
        "serve.cache_insertions",
        serve_stats.cache_insertions as f64,
        "count",
    );
    report.layer("serve.dispatch_busy_s", phase.busy.as_secs_f64(), "s");
    report.layer(
        "router.queue_wait_ms",
        router_stats.queue_wait.as_secs_f64() * 1e3 / router_stats.admitted.max(1) as f64,
        "ms",
    );
    report.layer("router.final_limit", final_limit as f64, "count");
    report.layer(
        "router.peak_queue_units",
        router_stats.peak_queue_units as f64,
        "count",
    );
    report.layer(
        "router.dispatched_chunks",
        router_stats.dispatched_chunks as f64,
        "count",
    );
    report.layer(
        "router.shed_frac",
        router_stats.shed as f64 / offered,
        "ratio",
    );
    report.layer(
        "bench.generator_lag_ms",
        quantile(&phase.lag_ms, 0.99),
        "ms",
    );
    report.layer(
        "trace.overhead",
        busy_per_request[1] / busy_per_request[0] - 1.0,
        "ratio",
    );
    report.exact("spanner_edges", spanner.num_edges());
    report.exact("lightness", format!("{lightness:?}"));
    report
}
