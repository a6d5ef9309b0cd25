//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <build_graph|build_points|serve_road|live_churn|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload generates its inputs from `--seed`, sets up, measures for
//! about `--seconds`, checks every output, and prints as its last line one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, which every workload
//! reports: set-up time, the median time of its operation (a build, a
//! request or an update batch), the size and lightness of its spanner, the
//! peak of its live heap and the share of operations that succeeded. With `--trace 1` they
//! are the per-layer ones, each layer's self time and the tracing overhead,
//! and the spans are written to `.bench_out/`. A failed check exits with
//! code 1. `--workload all` runs every workload, each in its own process.

mod build;
mod heap;
mod inputs;
mod live;
mod rng;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use trace::Tracer;

const WORKLOADS: [&str; 4] = ["build_graph", "build_points", "serve_road", "live_churn"];

/// Where runs leave spans, deterministic-count records and scratch stores.
pub const OUT_DIR: &str = ".bench_out";

/// The end-to-end metrics of `BENCHMARK.json`, with their units. Every
/// workload reports every one of them, untraced.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("spanner_edges", "count"),
    ("lightness", "ratio"),
    ("peak_heap_mb", "MiB"),
    ("ok_frac", "ratio"),
];

/// The per-layer metrics of `BENCHMARK.json`, with their units. A traced
/// run prints every one of them; a layer the workload's measured phase does
/// not call did no work there, and its metrics read 0.
const PER_LAYER: [(&str, &str); 56] = [
    ("engine.queries", "count"),
    ("engine.settled_per_query", "count"),
    ("engine.pruned_by_bound", "count"),
    ("engine.peak_frontier", "count"),
    ("kernel.rows_batched", "count"),
    ("kernel.edges_gathered", "count"),
    ("pool.worker_utilization", "ratio"),
    ("greedy.edges_examined", "count"),
    ("greedy.kept_ratio", "ratio"),
    ("greedy.batches", "count"),
    ("greedy.recheck_hits", "count"),
    ("greedy.queries_per_candidate", "ratio"),
    ("net.build_s", "s"),
    ("base.build_s", "s"),
    ("base.edges", "count"),
    ("approx.queries", "count"),
    ("approx.kept_ratio", "ratio"),
    ("serve.freeze_s", "s"),
    ("serve.max_rate_qps", "req/s"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.cache_insertions", "count"),
    ("serve.dispatch_busy_s", "s"),
    ("serve.stale_evictions", "count"),
    ("router.queue_wait_ms", "ms"),
    ("router.final_limit", "count"),
    ("router.peak_queue_units", "count"),
    ("router.dispatched_chunks", "count"),
    ("router.shed_frac", "ratio"),
    ("bench.generator_lag_ms", "ms"),
    ("live.query_p50_ms", "ms"),
    ("live.query_p90_ms", "ms"),
    ("update.apply_busy_s", "s"),
    ("update.repair_s", "s"),
    ("update.repaired", "count"),
    ("update.admitted", "count"),
    ("update.rejected", "count"),
    ("update.compactions", "count"),
    ("wal.bytes_per_batch", "B"),
    ("store.disk_bytes_per_update", "B"),
    ("snapshot.count", "count"),
    ("snapshot.bytes", "B"),
    ("snapshot.write_s", "s"),
    ("recover.total_s", "s"),
    ("recover.snapshot_read_s", "s"),
    ("recover.replayed_batches", "count"),
    ("recover.replay_s", "s"),
    ("trace.overhead", "ratio"),
    ("self_s.core.greedy", "s"),
    ("self_s.core.approx_greedy", "s"),
    ("self_s.core.bounded_degree", "s"),
    ("self_s.metric.net", "s"),
    ("self_s.core.runtime", "s"),
    ("self_s.core.serve", "s"),
    ("self_s.core.update", "s"),
    ("self_s.core.persist", "s"),
    ("self_s.spanner-store", "s"),
];

#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub threads: usize,
}

#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Operations the program refused under load: not failures, but they
    /// count against `ok_frac`.
    pub shed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Counts that must repeat exactly across runs of one seed.
    pub exact: Vec<(String, String)>,
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    pub fn exact(&mut self, name: &str, value: impl ToString) {
        self.exact.push((name.to_owned(), value.to_string()));
    }

    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Records a failed check that is not one operation (such as a count
    /// that changed between repetitions).
    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    /// Adds the metrics every workload reports the same way: the share of
    /// operations that succeeded and, when traced, each layer's self time.
    fn finish(&mut self, tracer: &Tracer) {
        let ok_ops = self.attempted.saturating_sub(self.failed) as f64 - self.shed as f64;
        self.e2e("ok_frac", ok_ops / self.attempted.max(1) as f64, "ratio");
        for (layer, secs) in tracer.self_seconds() {
            self.layer(&format!("self_s.{layer}"), secs, "s");
        }
    }
}

/// The machine descriptor attached to every record; `binary` is
/// [`binary_digest`].
fn machine(binary: Option<&str>) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or("unknown", |v| v.trim_start_matches([' ', '\t', ':']))
        .to_owned();
    let mut caches = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read =
            |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).map(|s| s.trim().to_owned());
        if let (Ok(level), Ok(kind), Ok(size)) = (read("level"), read("type"), read("size")) {
            if kind != "Instruction" && (level == "2" || level == "3") {
                caches.push(format!("\"l{level}\":\"{size}\""));
            }
        }
    }
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"record\":\"machine\",\"nproc\":{},\"cpu\":\"{}\",{},\"profile\":\"{profile}\",\"git\":\"{}\",\"binary\":\"{}\"}}",
        nproc(),
        cpu.replace('"', "'"),
        caches.join(","),
        git_revision(),
        binary.unwrap_or("unknown")
    )
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out revision, read from `.git` when the checkout has one.
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_owned())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split(' ').next())
                        .unwrap_or_default()
                        .to_owned()
                })
            })
            .unwrap_or_default(),
        None => head.to_owned(),
    };
    if rev.is_empty() {
        "unknown".to_owned()
    } else {
        rev
    }
}

/// A digest of this executable's bytes, which names the build: `None` if it
/// cannot be read.
fn binary_digest() -> Option<String> {
    let bytes = std::fs::read(std::env::current_exe().ok()?).ok()?;
    let mut d = inputs::Digest::new();
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        d.word(u64::from_le_bytes(word));
    }
    Some(d.hex())
}

/// Prints one input's digest record.
pub fn print_input(name: &str, size: &str, digest: &str) {
    println!("{{\"record\":\"input\",\"name\":\"{name}\",{size},\"digest\":\"{digest}\"}}");
}

/// Compares this run's deterministic counts with those earlier runs of the
/// same build, workload, seed and thread count left behind, then records
/// them. Runs of another build (a changed program may rightly change a
/// count) keep records of their own. A count only some runs take (traced
/// runs time extra layers) is compared whenever both runs have it. Without
/// a digest of the build nothing is compared.
fn check_exact(workload: &str, ctx: &Ctx, binary: Option<&str>, report: &mut Report) {
    let Some(binary) = binary else {
        println!("# deterministic counts not compared: this executable cannot be read");
        return;
    };
    let dir = PathBuf::from(OUT_DIR).join("counts");
    let path = dir.join(format!(
        "{workload}-seed{}-t{}-{binary}.txt",
        ctx.seed, ctx.threads
    ));
    let mut known: BTreeMap<String, String> = std::fs::read_to_string(&path)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.to_owned(), v.to_owned()))
        .collect();
    for (name, value) in &report.exact {
        match known.get(name) {
            Some(before) if before != value => report.failures.push(format!(
                "deterministic count {name} is {value}, but an earlier run of this seed gave {before}"
            )),
            Some(_) => {}
            None => {
                known.insert(name.clone(), value.clone());
            }
        }
    }
    let mut text = String::new();
    for (name, value) in &known {
        let _ = writeln!(text, "{name}={value}");
    }
    let _ = std::fs::create_dir_all(&dir);
    let _ = std::fs::write(&path, text);
}

/// `measured` in the order and units of `manifest`. A metric the manifest
/// names but the workload did not measure is a failure when `required`, and
/// otherwise reads 0; a measured metric the manifest does not name, or one
/// in another unit, is a failure.
fn manifest_order(
    manifest: &[(&str, &'static str)],
    measured: &[Metric],
    required: bool,
    failures: &mut Vec<String>,
) -> Vec<Metric> {
    for m in measured {
        match manifest.iter().find(|(name, _)| *name == m.name) {
            None => failures.push(format!("metric {} is not in the manifest", m.name)),
            Some((_, unit)) if *unit != m.unit => failures.push(format!(
                "metric {} is in {}, the manifest says {unit}",
                m.name, m.unit
            )),
            Some(_) => {}
        }
    }
    manifest
        .iter()
        .map(|&(name, unit)| {
            let value = match measured.iter().rev().find(|m| m.name == name) {
                Some(m) => m.value,
                None if required => {
                    failures.push(format!("metric {name} was not measured"));
                    f64::NAN
                }
                None => 0.0,
            };
            Metric {
                name: name.to_owned(),
                value,
                unit,
            }
        })
        .collect()
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn run_one(workload: &str, ctx: &Ctx) -> ExitCode {
    let binary = binary_digest();
    let descriptor = machine(binary.as_deref());
    println!("{descriptor}");
    let mut tracer = Tracer::new(false);
    let started = Instant::now();
    let mut report = match workload {
        "build_graph" => build::build_graph(ctx, &mut tracer),
        "build_points" => build::build_points(ctx, &mut tracer),
        "serve_road" => serve::serve_road(ctx, &mut tracer),
        "live_churn" => live::live_churn(ctx, &mut tracer),
        _ => unreachable!("workload names are validated by the caller"),
    };
    report.finish(&tracer);
    check_exact(workload, ctx, binary.as_deref(), &mut report);
    let metrics = if ctx.trace {
        let path = PathBuf::from(OUT_DIR).join(format!("trace-{workload}-seed{}.jsonl", ctx.seed));
        if let Err(e) = tracer.write_jsonl(&path, &descriptor) {
            report.fail(format!("cannot write {}: {e}", path.display()));
        }
        manifest_order(&PER_LAYER, &report.per_layer, false, &mut report.failures)
    } else {
        manifest_order(&END_TO_END, &report.end_to_end, true, &mut report.failures)
    };
    for m in metrics.iter().filter(|m| !m.value.is_finite()) {
        report
            .failures
            .push(format!("metric {} is not finite", m.name));
    }
    println!(
        "# {workload} seed={} seconds={} trace={} threads={} wall={:.1}s",
        ctx.seed,
        ctx.seconds,
        ctx.trace as u8,
        ctx.threads,
        started.elapsed().as_secs_f64()
    );
    for m in &metrics {
        println!("#   {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for f in &report.failures {
        println!("# CHECK FAILED: {f}");
    }
    let correct = report.failures.is_empty() && report.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.attempted.max(1),
        report.failed,
        json_metrics(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, each in its own process so its heap peak is its own.
fn run_all(args: &[String]) -> ExitCode {
    let exe = std::env::current_exe().expect("current executable");
    let mut all_ok = true;
    for workload in WORKLOADS {
        let mut child_args: Vec<String> = args.to_vec();
        let at = child_args
            .iter()
            .position(|a| a == "all")
            .expect("all was given");
        child_args[at] = workload.to_owned();
        let status = Command::new(&exe).args(&child_args).status();
        let ok = status.as_ref().is_ok_and(|s| s.success());
        if !ok {
            eprintln!("workload {workload} failed: {status:?}");
        }
        all_ok &= ok;
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!(
        "{msg}\nusage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let parsed = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                true
            }
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--seconds" => value.parse().map(|v| seconds = v).is_ok(),
            "--trace" => value.parse::<u8>().map(|v| trace = v != 0).is_ok(),
            _ => false,
        };
        if !parsed {
            return usage(&format!("bad argument {flag} {value}"));
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    if workload == "all" {
        return run_all(&args);
    }
    if !WORKLOADS.contains(&workload.as_str()) {
        return usage(&format!("unknown workload {workload}"));
    }
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("cannot create {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        seed,
        seconds,
        trace,
        threads: nproc(),
    };
    run_one(&workload, &ctx)
}
