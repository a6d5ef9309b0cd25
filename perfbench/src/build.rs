//! The two construction workloads: the greedy spanner of a graph and the
//! approximate-greedy spanner of a point set.

use std::time::Instant;

use greedy_spanner::approx_greedy::ApproxGreedyParams;
use greedy_spanner::bounded_degree::bounded_degree_spanner;
use greedy_spanner::{RunStats, Spanner, SpannerInput, SpannerOutput};
use spanner_graph::dijkstra::{bounded_distance, shortest_path_tree};
use spanner_graph::mst::mst_weight;
use spanner_graph::{VertexId, WeightedGraph};
use spanner_metric::net::NetHierarchy;
use spanner_metric::EuclideanSpace;

use crate::inputs;
use crate::rng::Rng;
use crate::stats::{block_quantile, median};
use crate::trace::Tracer;
use crate::{heap, print_input, Ctx, Report};

/// Vertices of the `build_graph` input.
const GRAPH_N: usize = 1000;
/// Mean degree of the `build_graph` input.
const GRAPH_DEGREE: f64 = 12.0;
/// Points of the `build_points` input.
const POINTS_N: usize = 300;
const EPSILON: f64 = 0.5;
/// Least time of one block of input generation; blocks keep the point
/// set's microsecond generation measurable.
const SETUP_BLOCK_S: f64 = 0.02;
/// Fewest builds a run times, however long they take: one per block of
/// `stats::block_quantile`.
const MIN_BUILDS: usize = crate::stats::BLOCKS;

/// Input generation, timed for `setup_s` in blocks of at least
/// `SETUP_BLOCK_S`: one before the builds and one before each timed
/// build. `setup_s` is the median of the blocks' seconds per generation,
/// so it spans the whole run rather than one moment of the machine, whose
/// speed drifts. Every block's input must have the first one's digest.
struct Setup<M, D> {
    make: M,
    digest: D,
    first: Option<String>,
    seconds: Vec<f64>,
}

impl<M, D> Setup<M, D> {
    fn new(make: M, digest: D) -> Self {
        Setup {
            make,
            digest,
            first: None,
            seconds: Vec::new(),
        }
    }

    /// Times one block and returns its last input.
    fn block<T>(&mut self, report: &mut Report) -> T
    where
        M: Fn() -> T,
        D: Fn(&T) -> String,
    {
        let start = Instant::now();
        let mut count = 0;
        let mut input = None;
        while count == 0 || start.elapsed().as_secs_f64() < SETUP_BLOCK_S {
            input = Some(std::hint::black_box((self.make)()));
            count += 1;
        }
        self.seconds
            .push(start.elapsed().as_secs_f64() / count as f64);
        let input = input.expect("one generation per block");
        let d = (self.digest)(&input);
        if self.first.get_or_insert_with(|| d.clone()) != &d {
            report.fail(format!(
                "input generation is not deterministic: {:?} vs {d}",
                self.first
            ));
        }
        input
    }
}

/// The timed phase of a build workload: builds until the run's time is up
/// (at least `MIN_BUILDS`), every build checked equal to the first. Before
/// each build, outside its timing, `setup_block` times one block of input
/// generation. Each build's peak live heap is taken from a peak reset just
/// before it, so input generation and the checks do not count. When traced,
/// traced and untraced builds alternate, so a drift of the machine's speed
/// falls on both alike and the tracing overhead can be read off the two
/// mean build times.
struct Builds {
    first: SpannerOutput,
    seconds: Vec<f64>,
    peak_heap_mb: Vec<f64>,
    untraced_mean: f64,
    traced_mean: f64,
}

fn timed_builds(
    ctx: &Ctx,
    tracer: &mut Tracer,
    report: &mut Report,
    layer: &'static str,
    mut setup_block: impl FnMut(&mut Report),
    mut build: impl FnMut() -> SpannerOutput,
) -> Builds {
    let modes = 1 + ctx.trace as usize;
    let mut first: Option<SpannerOutput> = None;
    let mut all = Vec::new();
    let mut peak = Vec::new();
    let mut by_mode: [Vec<f64>; 2] = Default::default();
    let start = Instant::now();
    while all.len() < MIN_BUILDS * modes || start.elapsed().as_secs_f64() < ctx.seconds {
        setup_block(report);
        let traced = all.len() % modes == 1;
        tracer.set_enabled(traced);
        tracer.request();
        heap::reset_peak();
        let open = tracer.enter(layer, "build");
        let t = Instant::now();
        let out = build();
        let secs = t.elapsed().as_secs_f64();
        tracer.exit(open);
        peak.push(heap::peak_mb());
        all.push(secs);
        by_mode[traced as usize].push(secs);
        match &first {
            None => {
                report.check(true, String::new);
                first = Some(out);
            }
            Some(f) => report.check(
                f.spanner == out.spanner && same_counts(&f.stats, &out.stats),
                || {
                    "a repeated build of the same input gave another spanner or other counts"
                        .to_owned()
                },
            ),
        }
    }
    tracer.set_enabled(false);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    Builds {
        first: first.expect("at least one build"),
        seconds: all,
        peak_heap_mb: peak,
        untraced_mean: mean(&by_mode[0]),
        traced_mean: mean(&by_mode[1]),
    }
}

/// The counts of a build that must not vary between runs.
fn same_counts(a: &RunStats, b: &RunStats) -> bool {
    a.edges_examined == b.edges_examined
        && a.edges_added == b.edges_added
        && a.distance_queries == b.distance_queries
        && a.batches == b.batches
        && a.batch_recheck_hits == b.batch_recheck_hits
}

fn overhead(builds: &Builds) -> f64 {
    builds.traced_mean / builds.untraced_mean - 1.0
}

/// Reports the metrics both build workloads share.
fn report_build(report: &mut Report, setup_s: f64, builds: &Builds, lightness: f64) {
    let stats = &builds.first.stats;
    let build_ms: Vec<f64> = builds.seconds.iter().map(|s| s * 1e3).collect();
    println!("# {} builds timed, ms: {build_ms:.0?}", build_ms.len());
    report.e2e("setup_s", setup_s, "s");
    report.e2e("op_p50_ms", block_quantile(&build_ms, 0.5), "ms");
    report.e2e("peak_heap_mb", median(&builds.peak_heap_mb), "MiB");
    report.e2e(
        "spanner_edges",
        builds.first.spanner.num_edges() as f64,
        "count",
    );
    report.e2e("lightness", lightness, "ratio");
    report.layer("engine.queries", stats.distance_queries as f64, "count");
    report.layer("engine.peak_frontier", stats.peak_frontier as f64, "count");
    report.layer(
        "kernel.rows_batched",
        stats.kernel.rows_batched as f64,
        "count",
    );
    report.layer(
        "kernel.edges_gathered",
        stats.kernel.edges_gathered as f64,
        "count",
    );
    report.layer("pool.worker_utilization", stats.worker_utilization, "ratio");
    report.layer("trace.overhead", overhead(builds), "ratio");
    report.exact("spanner_edges", builds.first.spanner.num_edges());
    report.exact("lightness", format!("{lightness:?}"));
    report.exact("engine.queries", stats.distance_queries);
}

/// `build_graph`: the greedy 2-spanner of a connected Erdős–Rényi graph.
pub fn build_graph(ctx: &Ctx, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    let mut setup = Setup::new(
        || {
            inputs::er_graph(
                GRAPH_N,
                GRAPH_DEGREE,
                &mut Rng::stream(ctx.seed, "er_graph"),
            )
        },
        inputs::graph_digest,
    );
    let g = setup.block(&mut report);
    print_input(
        "er_graph",
        &format!("\"n\":{},\"m\":{}", g.num_vertices(), g.num_edges()),
        &inputs::graph_digest(&g),
    );
    let builder = Spanner::greedy().stretch(2.0).threads(ctx.threads);
    let builds = timed_builds(
        ctx,
        tracer,
        &mut report,
        "core.greedy",
        |r| {
            setup.block(r);
        },
        || builder.build(&g).expect("greedy build"),
    );

    let spanner = &builds.first.spanner;
    let stretch_ok = g.edges().iter().all(|e| {
        spanner.edge_weight(e.u, e.v).is_some_and(|w| w == e.weight)
            || bounded_distance(spanner, e.u, e.v, 2.0 * e.weight).is_some()
    });
    let subgraph_ok = spanner.is_edge_subgraph_of(&g);
    if !(stretch_ok && subgraph_ok) {
        report.failed += 1;
        report.fail(format!("build_graph output is not a 2-spanner subgraph of its input (stretch ok: {stretch_ok}, subgraph ok: {subgraph_ok})"));
    }
    let lightness = spanner.total_weight() / mst_weight(&g);
    report_build(&mut report, median(&setup.seconds), &builds, lightness);

    let s = &builds.first.stats;
    let examined = s.edges_examined.max(1) as f64;
    report.layer("greedy.edges_examined", s.edges_examined as f64, "count");
    report.layer(
        "greedy.kept_ratio",
        s.edges_added as f64 / examined,
        "ratio",
    );
    report.layer("greedy.batches", s.batches as f64, "count");
    report.layer("greedy.recheck_hits", s.batch_recheck_hits as f64, "count");
    report.layer(
        "greedy.queries_per_candidate",
        s.distance_queries as f64 / examined,
        "ratio",
    );
    report.exact("greedy.edges_examined", s.edges_examined);
    report
}

/// Weight of a minimum spanning tree of the complete Euclidean graph on
/// `points` (Prim, `O(n²)`).
fn euclidean_mst_weight(points: &EuclideanSpace<2>) -> f64 {
    let pts = points.points();
    let n = pts.len();
    let mut best = vec![f64::INFINITY; n];
    let mut done = vec![false; n];
    best[0] = 0.0;
    let mut total = 0.0;
    for _ in 0..n {
        let u = (0..n)
            .filter(|&v| !done[v])
            .min_by(|&a, &b| best[a].total_cmp(&best[b]))
            .expect("a vertex is left");
        done[u] = true;
        total += best[u];
        for v in 0..n {
            if !done[v] {
                best[v] = best[v].min(pts[u].distance(&pts[v]));
            }
        }
    }
    total
}

/// Largest spanner-over-Euclidean distance ratio over all pairs.
fn max_stretch_all_pairs(points: &EuclideanSpace<2>, spanner: &WeightedGraph) -> f64 {
    let pts = points.points();
    let mut worst: f64 = 1.0;
    for u in 0..pts.len() {
        let tree = shortest_path_tree(spanner, VertexId(u));
        for (v, &d) in tree.distances().iter().enumerate().skip(u + 1) {
            worst = worst.max(d / pts[u].distance(&pts[v]));
        }
    }
    worst
}

/// `build_points`: the approximate-greedy `(1+ε)`-spanner of uniform
/// points in the unit square.
pub fn build_points(ctx: &Ctx, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    let mut setup = Setup::new(
        || inputs::points(POINTS_N, &mut Rng::stream(ctx.seed, "points")),
        inputs::points_digest,
    );
    let points = setup.block(&mut report);
    print_input(
        "points",
        &format!("\"n\":{}", points.points().len()),
        &inputs::points_digest(&points),
    );
    let builder = Spanner::approx_greedy()
        .epsilon(EPSILON)
        .threads(ctx.threads);
    let base_eps = ApproxGreedyParams::new(EPSILON).base_stretch() - 1.0;
    let builds = timed_builds(
        ctx,
        tracer,
        &mut report,
        "core.approx_greedy",
        |r| {
            setup.block(r);
        },
        || {
            builder
                .build(SpannerInput::from(&points))
                .expect("approximate greedy build")
        },
    );
    // The layers the approximate greedy runs first, timed on their own
    // after the timed builds; only traced runs pay for them.
    let (mut net_s, mut base_s, mut base_edges) = (Vec::new(), Vec::new(), 0);
    if ctx.trace {
        tracer.set_enabled(true);
        for _ in 0..MIN_BUILDS {
            tracer.request();
            let t = Instant::now();
            let net = tracer.span("metric.net", "build", || NetHierarchy::build(&points));
            net_s.push(t.elapsed().as_secs_f64());
            std::hint::black_box(net.height());
            let t = Instant::now();
            let base = tracer.span("core.bounded_degree", "build", || {
                bounded_degree_spanner(&points, base_eps).expect("base spanner")
            });
            base_s.push(t.elapsed().as_secs_f64());
            base_edges = base.num_edges();
        }
        tracer.set_enabled(false);
    }

    let spanner = &builds.first.spanner;
    let worst = max_stretch_all_pairs(&points, spanner);
    if worst > (1.0 + EPSILON) * (1.0 + 1e-9) {
        report.failed += 1;
        report.fail(format!(
            "build_points output has stretch {worst} > {}",
            1.0 + EPSILON
        ));
    }
    let lightness = spanner.total_weight() / euclidean_mst_weight(&points);
    report_build(&mut report, median(&setup.seconds), &builds, lightness);

    let s = &builds.first.stats;
    if ctx.trace {
        report.layer("net.build_s", median(&net_s), "s");
        report.layer("base.build_s", median(&base_s), "s");
        report.layer("base.edges", base_edges as f64, "count");
        report.exact("base.edges", base_edges);
    }
    report.layer("approx.queries", s.distance_queries as f64, "count");
    report.layer(
        "approx.kept_ratio",
        s.edges_added as f64 / s.edges_examined.max(1) as f64,
        "ratio",
    );
    report.exact("greedy.edges_examined", s.edges_examined);
    report
}
