//! `live_churn`: a live greedy spanner persisted to a fresh store, served
//! while one client alternates update and query batches, then crashed and
//! recovered.

use std::path::{Path, PathBuf};
use std::time::Instant;

use greedy_spanner::serve::{Query, SpannerServer};
use greedy_spanner::{LiveSpanner, Spanner};
use spanner_graph::mst::mst_weight;
use spanner_store::{list_snapshots, snapshot_file_name, Snapshot, WAL_FILE_NAME};

use crate::inputs;
use crate::rng::{Rng, Zipf};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::{heap, print_input, Ctx, Report, OUT_DIR};

const N: usize = 500;
const DEGREE: f64 = 12.0;
const STRETCH: f64 = 2.0;
/// Updates per update batch.
const UPDATE_BATCH: usize = 16;
/// Queries per query batch.
const QUERY_BATCH: usize = 64;
/// Update batches generated; a run stops early if it uses them all.
const STREAM_BATCHES: usize = 3000;
/// Tombstoned share of a graph that triggers a compaction (and with it a
/// snapshot).
const COMPACTION_THRESHOLD: f64 = 0.05;
/// Set-ups timed for `setup_s`; the median is reported.
const SETUP_REPS: usize = 3;
/// Recoveries of the crashed store timed for `recover.total_s`.
const RECOVER_REPS: usize = 7;
/// `spanner_edges` and `lightness` are those of the live spanner after this
/// many update batches, so they do not depend on how many batches a run
/// gets through.
const QUALITY_BATCHES: usize = 32;
/// The crash comes this many update batches after the newest snapshot, so
/// every run's recovery replays the same number of batches.
const REPLAY_BATCHES: usize = 8;

fn bytes_in(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Query batch `b` of the run: queries `b * QUERY_BATCH ..` of the mixed
/// profile, so successive batches cycle through all of its query kinds.
fn query_batch(b: usize, zipf: &Zipf, rng: &mut Rng) -> Vec<Query> {
    (b * QUERY_BATCH..(b + 1) * QUERY_BATCH)
        .map(|i| inputs::mixed_query(i, N, zipf, rng))
        .collect()
}

pub fn live_churn(ctx: &Ctx, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    let store = |i: usize| PathBuf::from(OUT_DIR).join(format!("store-{}-{i}", std::process::id()));

    // Set-up: generate the graph and the update stream, build, open live,
    // persist to a fresh store and serve.
    let mut setup_s = Vec::new();
    let mut built = None;
    for i in 0..SETUP_REPS {
        let dir = store(i);
        let _ = std::fs::remove_dir_all(&dir);
        let start = Instant::now();
        let g = inputs::er_graph(N, DEGREE, &mut Rng::stream(ctx.seed, "er_graph"));
        let stream = inputs::update_stream(
            &g,
            STREAM_BATCHES,
            UPDATE_BATCH,
            &mut Rng::stream(ctx.seed, "updates"),
        );
        let output = Spanner::greedy()
            .stretch(STRETCH)
            .threads(ctx.threads)
            .build(&g)
            .expect("greedy build");
        let mut live = LiveSpanner::new(output, &g)
            .expect("greedy output carries its stretch")
            .with_threads(ctx.threads)
            .with_compaction_threshold(COMPACTION_THRESHOLD);
        live.persist_to(&dir).expect("persist to a fresh store");
        let server = live.serve().threads(ctx.threads).finish();
        setup_s.push(start.elapsed().as_secs_f64());
        if let Some((_, _, _, old)) = built.replace((g, stream, server, dir)) {
            let _ = std::fs::remove_dir_all(old);
        }
    }
    let (g, stream, mut server, dir) = built.expect("SETUP_REPS > 0");
    print_input(
        "er_graph",
        &format!("\"n\":{},\"m\":{}", g.num_vertices(), g.num_edges()),
        &inputs::graph_digest(&g),
    );
    print_input(
        "update_stream",
        &format!("\"batches\":{}", stream.len()),
        &inputs::updates_digest(&stream),
    );
    drop(g);
    let zipf = Zipf::new(N, inputs::MIXED_ZIPF_S, &mut Rng::stream(ctx.seed, "zipf"));
    let mut query_rng = Rng::stream(ctx.seed, "queries");
    // Batch 1 holds profile slots 64..=99 and 0..=27: every query kind.
    let held_out = query_batch(1, &zipf, &mut Rng::stream(ctx.seed, "held_out"));
    print_input(
        "held_out_queries",
        &format!("\"queries\":{}", held_out.len()),
        &inputs::queries_digest(&held_out),
    );
    let wal_at_start = file_len(&dir.join(WAL_FILE_NAME));
    // The memory figure is the peak of the churn phase: the live server, its
    // inputs and what updating and answering take.
    heap::reset_peak();

    // The timed closed loop: update batch, query batch, repeat. When
    // traced, traced and untraced rounds alternate, so a drift of the
    // machine's speed falls on both alike; the checkpoint and the recovery
    // are always traced.
    let (mut update_ms, mut query_ms) = (Vec::new(), Vec::new());
    let (mut busy_ms, mut rounds) = ([0.0; 2], [0usize; 2]);
    let mut next = 0;
    let mut checkpoint_s = f64::NAN;
    let mut since_snapshot = 0;
    let mut quality = None;
    let mut peak_before_quality = 0.0;
    let start = Instant::now();
    while next < stream.len()
        && (start.elapsed().as_secs_f64() < ctx.seconds
            || since_snapshot != REPLAY_BATCHES
            || quality.is_none())
    {
        let traced = ctx.trace && next % 2 == 1;
        tracer.set_enabled(traced);
        tracer.request();
        let t = Instant::now();
        let outcome = tracer.span("core.update", "apply", || {
            server.apply_updates(&stream[next])
        });
        let ms = t.elapsed().as_secs_f64() * 1e3;
        next += 1;
        since_snapshot += 1;
        match outcome {
            Ok(o) => {
                update_ms.push(ms);
                if o.compactions > 0 {
                    since_snapshot = 0;
                }
                report.check(o.certified_stretch <= STRETCH * (1.0 + 1e-9), || {
                    format!(
                        "batch {next}: certified stretch {} > {STRETCH}",
                        o.certified_stretch
                    )
                });
            }
            Err(e) => report.check(false, || format!("update batch {next}: {e}")),
        }
        if next == QUALITY_BATCHES {
            // The copy of the graph made here is the benchmark's, not the
            // program's: keep it out of the memory figure.
            peak_before_quality = heap::peak_mb();
            let live = server.live().expect("a live server");
            let spanner = live.spanner();
            let mst = mst_weight(&live.original().to_weighted_graph());
            quality = Some((spanner.num_edges(), spanner.total_weight() / mst));
            heap::reset_peak();
        }
        let queries = query_batch(query_ms.len(), &zipf, &mut query_rng);
        tracer.request();
        let t = Instant::now();
        let answered = tracer.span("core.serve", "answer", || server.answer_batch(&queries));
        let qms = t.elapsed().as_secs_f64() * 1e3;
        query_ms.push(qms);
        report.check(answered.is_ok(), || {
            format!("query batch {next}: {answered:?}")
        });
        busy_ms[traced as usize] += ms + qms;
        rounds[traced as usize] += 1;
        if checkpoint_s.is_nan() && start.elapsed().as_secs_f64() >= ctx.seconds / 2.0 {
            tracer.set_enabled(ctx.trace);
            let live = server.live().expect("a live server");
            let path = dir.join(snapshot_file_name(live.stats().batches, live.epoch()));
            let t = Instant::now();
            let written = tracer.span("core.persist", "checkpoint", || live.checkpoint(&path));
            checkpoint_s = t.elapsed().as_secs_f64();
            report.check(written.is_ok(), || format!("checkpoint: {written:?}"));
            since_snapshot = 0;
        }
    }
    tracer.set_enabled(ctx.trace);
    if next == stream.len() {
        report.fail(format!(
            "the update stream of {STREAM_BATCHES} batches ran out before the run's time did"
        ));
    }

    // The crash: answer the held-out batch, measure the store, drop the
    // server without any shutdown.
    let peak_heap_mb = heap::peak_mb().max(peak_before_quality);
    let before = server.answer_batch(&held_out);
    let serve_stats = *server.stats();
    let engine = server.engine_stats();
    let utilization = server.worker_utilization();
    let update_stats = server.update_stats().cloned().expect("a live server");
    let applied = update_stats.batches;
    let disk_bytes = bytes_in(&dir);
    let wal_bytes = file_len(&dir.join(WAL_FILE_NAME)) - wal_at_start;
    let snapshots = list_snapshots(&dir).unwrap_or_default();
    let snapshot_bytes: u64 = snapshots.iter().map(|s| file_len(&s.path)).sum();
    drop(server);

    // Recovery, timed several times over copies of the crashed store so
    // every recovery starts from the same bytes.
    let mut recover_s = Vec::new();
    let mut read_s = Vec::new();
    let mut recovered = None;
    for i in 0..RECOVER_REPS {
        let copy = store(SETUP_REPS + i);
        let _ = std::fs::remove_dir_all(&copy);
        std::fs::create_dir_all(&copy).expect("create a store copy");
        for entry in std::fs::read_dir(&dir).expect("read the store").flatten() {
            std::fs::copy(entry.path(), copy.join(entry.file_name())).expect("copy the store");
        }
        let newest = list_snapshots(&copy)
            .ok()
            .and_then(|s| s.into_iter().next());
        if let Some(newest) = newest {
            let t = Instant::now();
            let read = tracer.span("spanner-store", "snapshot_read", || {
                Snapshot::read(&newest.path)
            });
            read_s.push(t.elapsed().as_secs_f64());
            report.check(read.is_ok(), || {
                format!("reading the newest snapshot: {:?}", read.err())
            });
        }
        let t = Instant::now();
        let result = tracer.span("core.persist", "recover", || LiveSpanner::recover(&copy));
        recover_s.push(t.elapsed().as_secs_f64());
        match result {
            Ok(r) => recovered = Some(r),
            Err(e) => report.check(false, || format!("recovery: {e}")),
        }
        let _ = std::fs::remove_dir_all(&copy);
    }
    let _ = std::fs::remove_dir_all(&dir);
    tracer.set_enabled(false);

    // The recovered spanner must answer the held-out batch bit-identically.
    let mut replayed = 0;
    if let Some(r) = recovered {
        replayed = r.report.batches_replayed;
        let mut again: SpannerServer = r
            .live
            .with_threads(ctx.threads)
            .serve()
            .threads(ctx.threads)
            .finish();
        let after = again.answer_batch(&held_out);
        report.check(before.is_ok() && before == after, || {
            "the recovered spanner answers the held-out batch differently".to_owned()
        });
    }

    let updates = (applied as usize * UPDATE_BATCH).max(1) as f64;
    let recover_median = median(&recover_s);
    let (spanner_edges, lightness) = quality.expect("the run applies QUALITY_BATCHES batches");
    report.e2e("setup_s", median(&setup_s), "s");
    // The operation is one update batch. The graph changes along the run,
    // and with it what a batch costs, so the batches of one stretch are not
    // like those of another and the least stretch of `block_quantile` would
    // pick a phase of the churn: quantiles here are over the whole run. A
    // run has a few hundred batches of each kind, too few for a steady p99,
    // so the query tail is reported at p90.
    report.e2e("op_p50_ms", quantile(&update_ms, 0.5), "ms");
    report.e2e("spanner_edges", spanner_edges as f64, "count");
    report.e2e("lightness", lightness, "ratio");
    report.e2e("peak_heap_mb", peak_heap_mb, "MiB");
    report.layer("live.query_p50_ms", quantile(&query_ms, 0.5), "ms");
    report.layer("live.query_p90_ms", quantile(&query_ms, 0.9), "ms");
    report.layer("recover.total_s", recover_median, "s");
    report.layer(
        "store.disk_bytes_per_update",
        disk_bytes as f64 / updates,
        "B",
    );

    let queries = engine.queries.max(1) as f64;
    report.layer("engine.queries", engine.queries as f64, "count");
    report.layer(
        "engine.settled_per_query",
        engine.settled_vertices as f64 / queries,
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
    report.layer("pool.worker_utilization", utilization, "ratio");
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
    report.layer(
        "serve.stale_evictions",
        serve_stats.stale_evictions as f64,
        "count",
    );
    report.layer(
        "update.apply_busy_s",
        update_stats.elapsed.as_secs_f64(),
        "s",
    );
    report.layer(
        "update.repair_s",
        update_stats.repair_time.as_secs_f64(),
        "s",
    );
    report.layer("update.repaired", update_stats.repaired as f64, "count");
    report.layer("update.admitted", update_stats.admitted as f64, "count");
    report.layer("update.rejected", update_stats.rejected as f64, "count");
    report.layer(
        "update.compactions",
        update_stats.compactions as f64,
        "count",
    );
    report.layer(
        "wal.bytes_per_batch",
        wal_bytes as f64 / applied.max(1) as f64,
        "B",
    );
    report.layer("snapshot.count", snapshots.len() as f64, "count");
    report.layer("snapshot.bytes", snapshot_bytes as f64, "B");
    report.layer("snapshot.write_s", checkpoint_s, "s");
    report.layer("recover.snapshot_read_s", median(&read_s), "s");
    report.layer("recover.replayed_batches", replayed as f64, "count");
    report.layer("recover.replay_s", recover_median - median(&read_s), "s");
    report.layer(
        "trace.overhead",
        (busy_ms[1] / rounds[1] as f64) / (busy_ms[0] / rounds[0] as f64) - 1.0,
        "ratio",
    );
    report.exact("spanner_edges", spanner_edges);
    report.exact("lightness", format!("{lightness:?}"));
    report.exact(
        "wal.bytes_per_batch",
        format!("{:?}", wal_bytes as f64 / applied.max(1) as f64),
    );
    println!(
        "# {} update batches, {} query batches, {} compactions, {} snapshots",
        update_ms.len(),
        query_ms.len(),
        update_stats.compactions,
        snapshots.len()
    );
    report
}
