//! Inference pipeline stages: statistics, clustering, classification,
//! evaluation — plus the full archive path: MRT decode → columnar store →
//! inference, both through the zero-copy view decoder (`end_to_end`) and
//! the owned-decode oracle (`end_to_end_owned`), and over on-disk archives
//! through the supervised readahead chain (`end_to_end_large`).

use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use bgp_artifact::LabelArtifact;
use bgp_experiments::{Scenario, ScenarioConfig};
use bgp_intent::classify::{classify, classify_parallelism, InferenceConfig};
use bgp_intent::cluster::gap_clusters;
use bgp_intent::eval::evaluate;
use bgp_intent::stats::PathStats;
use bgp_intent::{run_inference, run_watch, StatsAccumulator, WatchOptions, WindowConfig};
use bgp_mrt::obs::{
    read_observations_parallel_store, read_observations_resilient_into,
    read_observations_resilient_reference, write_update_stream,
};
use bgp_mrt::{MemoryFeed, RecoverConfig, StreamTuning};
use bgp_types::obs::Telemetry;
use bgp_types::store::ObservationStore;
use bgp_types::Asn;

fn scenario() -> Scenario {
    Scenario::build(&ScenarioConfig {
        scale: 0.2,
        documented: 20,
        ..ScenarioConfig::default()
    })
}

/// Peak resident set (`VmHWM`) of this process in whole megabytes; 0 when
/// `/proc` is unavailable.
fn peak_rss_mb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|l| l.split_whitespace().next())
        .and_then(|kb| kb.parse::<u64>().ok())
        .map_or(0, |kb| kb / 1024)
}

fn bench_pipeline(c: &mut Criterion) {
    let scenario = scenario();
    let observations = scenario.collect(1);
    let stats = PathStats::from_observations(&observations, &scenario.siblings);
    // The decode fixture: the day-1 dataset serialized as a BGP4MP update
    // archive. Decoding it back yields exactly `observations`, so the
    // archive-fed end-to-end entries stay element-comparable with the
    // pure-inference ones.
    let mut wire = Vec::new();
    write_update_stream(&mut wire, Asn::new(6447), &observations).expect("in-memory MRT write");
    let recover = RecoverConfig::default();
    // Sequential baseline vs. one-worker-per-CPU; outputs are identical, so
    // the `*_par` / `_seq` pairs measure pure scheduling + merge overhead
    // (single-core) or speedup (multi-core).
    let seq = InferenceConfig {
        threads: 1,
        ..InferenceConfig::default()
    };
    let par = InferenceConfig {
        threads: 0,
        ..InferenceConfig::default()
    };
    let inference = classify(&stats, &scenario.siblings, &seq);
    // The bench scenario sits below the parallel-classify thresholds
    // (hundreds of owners, but few communities per owner), so `classify`
    // and `classify_par` must measure the *same* sequential code path —
    // the parallel fan-out used to run ~1.2× slower here, and the gate in
    // `classify_parallelism` exists precisely to keep small inputs off it.
    assert_eq!(
        classify_parallelism(stats.by_owner().len(), stats.community_count(), 0),
        1,
        "bench scenario unexpectedly clears the parallel-classify thresholds",
    );

    // The checkpointed-run path: intern each "file" (8 slices standing in
    // for 8 MRT archives) into a columnar store and fold it into the
    // statistics segment — the same route the CLI takes — holding a
    // snapshot after each as a checkpointed run does, then classify from
    // the segment.
    let files: Vec<_> = observations
        .chunks(observations.len().div_ceil(8))
        .collect();
    let checkpointed_run = || {
        let mut acc = StatsAccumulator::new();
        let mut snapshot = StatsAccumulator::new();
        for file in &files {
            let store = bgp_types::store::ObservationStore::from_observations(file);
            acc.ingest_store(&store, &scenario.siblings, 0);
            snapshot = acc.snapshot().clone();
        }
        std::hint::black_box(&snapshot);
        run_inference(
            acc.to_stats(),
            &scenario.siblings,
            &par,
            Some(&scenario.dict),
            &Telemetry::disabled(),
        )
    };

    let mut group = c.benchmark_group("pipeline");
    group.sample_size(20);
    // Throughput applies to every bench registered after it is set, so the
    // per-stage benches that are not observation-bound run first.
    group.bench_function("classify", |b| {
        b.iter(|| classify(&stats, &scenario.siblings, &seq))
    });
    group.bench_function("classify_par", |b| {
        b.iter(|| classify(&stats, &scenario.siblings, &par))
    });
    group.bench_function("evaluate", |b| {
        b.iter(|| evaluate(&inference, &scenario.dict))
    });
    // Checkpoint overhead (budget: <3% of `end_to_end`), measured as a
    // paired difference: each sample times a plain run and a checkpointed
    // run back-to-back and reports checkpointed − plain. Comparing the two
    // entries above directly is misleading on a busy host — clock-speed
    // drift over the bench binary's lifetime easily exceeds the budget —
    // while pairing cancels it. Negative drift clamps to zero.
    group.bench_function("checkpoint_overhead", |b| {
        b.iter_custom(|iters| {
            let mut overhead = 0i128;
            for _ in 0..iters {
                let t = std::time::Instant::now();
                std::hint::black_box(run_inference(
                    &observations,
                    &scenario.siblings,
                    &par,
                    Some(&scenario.dict),
                    &Telemetry::disabled(),
                ));
                let plain = t.elapsed();
                let t = std::time::Instant::now();
                std::hint::black_box(checkpointed_run());
                let checkpointed = t.elapsed();
                overhead += checkpointed.as_nanos() as i128 - plain.as_nanos() as i128;
            }
            std::time::Duration::from_nanos(overhead.max(0) as u64)
        })
    });
    // Telemetry overhead (budget: <1% of `end_to_end`), measured the same
    // paired way: each sample times the stages composed directly (stats
    // kernel, classification, evaluation) and the one entry point with
    // telemetry *disabled* back-to-back. Each disabled instrumentation point
    // is one branch, so the reported difference is expected to sit in the
    // noise floor around zero; bench_compare's `--overhead` gate holds it
    // under 1% of end_to_end.
    let store = ObservationStore::from_observations(&observations);
    group.bench_function("telemetry_overhead", |b| {
        b.iter_custom(|iters| {
            // Both sides run *sequentially* (threads = 1): the disabled
            // telemetry path is one branch, and per-iteration thread
            // spawn/join jitter in the parallel pipeline is orders of
            // magnitude larger than the cost under test.
            let disabled = Telemetry::disabled();
            let time_plain = || {
                let t = std::time::Instant::now();
                let stats = PathStats::from_store_threaded(&store, &scenario.siblings, seq.threads);
                let inference = classify(&stats, &scenario.siblings, &seq);
                let evaluation = evaluate(&inference, &scenario.dict);
                std::hint::black_box((stats, inference, evaluation));
                t.elapsed().as_nanos() as i128
            };
            let time_telemetry = || {
                let t = std::time::Instant::now();
                std::hint::black_box(run_inference(
                    &store,
                    &scenario.siblings,
                    &seq,
                    Some(&scenario.dict),
                    &disabled,
                ));
                t.elapsed().as_nanos() as i128
            };
            // Per requested iteration, run several pairs and keep the
            // *median* difference: scheduler hiccups land on one side of
            // a pair at random and only ever add time, so a mean is
            // biased upward by exactly the noise this bench must stay
            // below. Each pair alternates which side runs first, since
            // whichever runs second sees warmer caches.
            const PAIRS: usize = 5;
            let mut overhead = 0i128;
            let mut diffs = [0i128; PAIRS];
            for _ in 0..iters {
                for (p, diff) in diffs.iter_mut().enumerate() {
                    *diff = if p % 2 == 0 {
                        let plain = time_plain();
                        time_telemetry() - plain
                    } else {
                        let instrumented = time_telemetry();
                        instrumented - time_plain()
                    };
                }
                diffs.sort_unstable();
                overhead += diffs[PAIRS / 2].max(0);
            }
            std::time::Duration::from_nanos(overhead.max(0) as u64)
        })
    });
    // Everything below consumes the full observation set per iteration:
    // report elements/sec so regressions are visible as throughput, not
    // just wall time.
    group.throughput(Throughput::Elements(observations.len() as u64));
    group.bench_function("path_stats", |b| {
        b.iter(|| PathStats::from_observations(&observations, &scenario.siblings))
    });
    group.bench_function("path_stats_par", |b| {
        b.iter(|| PathStats::from_observations_threaded(&observations, &scenario.siblings, 0))
    });
    group.bench_function("end_to_end_seq", |b| {
        b.iter(|| {
            run_inference(
                &observations,
                &scenario.siblings,
                &seq,
                Some(&scenario.dict),
                &Telemetry::disabled(),
            )
        })
    });
    // The headline entry: the whole archive path — resilient zero-copy view
    // decode of the MRT stream interning straight into the columnar store,
    // then the parallel inference pipeline. `end_to_end_owned` runs the
    // identical harness through the owned-decode oracle, so one bench run
    // shows what the borrowed-view fast path buys.
    group.bench_function("end_to_end", |b| {
        b.iter(|| {
            let mut store = ObservationStore::new();
            let report = read_observations_resilient_into(&wire[..], &recover, &mut store);
            assert!(report.is_clean(), "pristine archive decoded with errors");
            run_inference(
                &store,
                &scenario.siblings,
                &par,
                Some(&scenario.dict),
                &Telemetry::disabled(),
            )
        })
    });
    group.bench_function("end_to_end_owned", |b| {
        b.iter(|| {
            let mut store = ObservationStore::new();
            let report = read_observations_resilient_reference(&wire[..], &recover, &mut store);
            assert!(report.is_clean(), "pristine archive decoded with errors");
            run_inference(
                &store,
                &scenario.siblings,
                &par,
                Some(&scenario.dict),
                &Telemetry::disabled(),
            )
        })
    });
    group.bench_function("end_to_end_checkpointed", |b| b.iter(checkpointed_run));

    // The streaming daemon at steady state: the same generator's update
    // stream served from an in-memory feed through the bounded ingest
    // queue, folded into rolling windows with incremental
    // reclassification, run to the quiescent point. Warn-only in
    // bench_compare: wall time includes queue handoff and quiesce
    // polling, which are noisier than the pure-compute entries above.
    let sim = scenario.simulator();
    let mut stream_wire = Vec::new();
    let summary = scenario
        .stream_collect(&sim, 2, &mut stream_wire)
        .expect("in-memory MRT stream write");
    let stream_wire = Arc::new(stream_wire);
    let watch_opts = WatchOptions {
        window: WindowConfig {
            window_secs: 3600,
            windows: 6,
        },
        tuning: StreamTuning {
            quiesce_after: Some(1),
            ..StreamTuning::default()
        },
        ..WatchOptions::default()
    };
    group.throughput(Throughput::Elements(summary.observations));
    group.bench_function("watch_steady_state", |b| {
        b.iter(|| {
            let outcome = run_watch(
                MemoryFeed::new(Arc::clone(&stream_wire)),
                &scenario.siblings,
                &watch_opts,
                Arc::new(AtomicBool::new(false)),
            )
            .expect("in-memory watch run");
            assert!(outcome.advances > 0, "stream too short to advance a window");
            outcome
        })
    });

    // The on-disk variant: the same archive written out several times and
    // read back through the supervised file chain production ingestion
    // uses (File → BufReader → RetryingReader → Readahead → recovering
    // decode), per-file stores merged, then inference.
    const LARGE_COPIES: usize = 6;
    let large_dir = std::env::temp_dir().join("bgp-bench-pipeline-large");
    std::fs::create_dir_all(&large_dir).expect("create bench dir");
    let large_paths: Vec<PathBuf> = (0..LARGE_COPIES)
        .map(|i| {
            let path = large_dir.join(format!("archive{i}.mrt"));
            std::fs::write(&path, &wire).expect("write bench archive");
            path
        })
        .collect();
    let large_run = || {
        let (files, report) = read_observations_parallel_store(&large_paths, &recover, 0);
        assert!(report.is_clean(), "pristine archive decoded with errors");
        let mut merged = ObservationStore::new();
        for file in &files {
            merged.merge(&file.store);
        }
        run_inference(
            &merged,
            &scenario.siblings,
            &par,
            Some(&scenario.dict),
            &Telemetry::disabled(),
        )
    };
    group.throughput(Throughput::Elements(
        (observations.len() * LARGE_COPIES) as u64,
    ));
    group.bench_function("end_to_end_large", |b| b.iter(&large_run));
    group.finish();

    // Peak-RSS probe for the large run. The registry schema has no memory
    // unit, so `ns_per_iter` carries *megabytes* here — the entry name
    // makes the unit explicit, and nothing gates on it as a duration.
    // `/proc/self/clear_refs` code 5 resets the VmHWM high-water mark so
    // the reading reflects this run, not whichever earlier bench peaked.
    let mut rss = c.benchmark_group("pipeline");
    rss.sample_size(1);
    rss.bench_function("end_to_end_large_rss_mb", |b| {
        b.iter_custom(|iters| {
            let _ = std::fs::write("/proc/self/clear_refs", "5");
            std::hint::black_box(large_run());
            Duration::from_nanos(peak_rss_mb().max(1) * iters)
        })
    });
    rss.finish();
}

/// The serving layer: single-key and batch lookups against a label
/// artifact built from the bench scenario's own inference, loaded through
/// the mmap path exactly as `bgpcomm query` serves it. The workload is a
/// deterministic hit/miss mix (~1/16 misses) drawn from the artifact's key
/// space with a fixed xorshift64 walk, so runs are comparable across
/// machines. Throughput is reported in lookups/sec — `query/point_lookup`
/// is gated in bench_compare and must stay above 2 Mlookups/s.
fn bench_query(c: &mut Criterion) {
    let scenario = scenario();
    let observations = scenario.collect(1);
    let result = run_inference(
        &observations,
        &scenario.siblings,
        &InferenceConfig::default(),
        None,
        &Telemetry::disabled(),
    );

    let dir = std::env::temp_dir().join("bgp-bench-query");
    std::fs::create_dir_all(&dir).expect("create bench dir");
    let path = dir.join("labels.bga");
    let written = bgp_intent::write_inference_artifact(
        &path,
        &result.inference,
        InferenceConfig::default().ratio_threshold,
    )
    .expect("write bench artifact");
    assert!(written > 0, "bench scenario produced no labels");
    let artifact = LabelArtifact::load(&path).expect("load bench artifact");

    // Fixed-seed xorshift64: same workload every run, ~1/16 keys perturbed
    // into misses so the full-depth miss path stays represented.
    const LOOKUPS: usize = 4096;
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut step = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let keys: Vec<bgp_types::Community> = (0..LOOKUPS)
        .map(|_| {
            let r = step();
            let c = artifact.row((r % artifact.len() as u64) as usize).community;
            if r % 16 == 0 {
                bgp_types::Community::new(c.asn, c.value.wrapping_add(1))
            } else {
                c
            }
        })
        .collect();

    let mut group = c.benchmark_group("query");
    group.throughput(Throughput::Elements(LOOKUPS as u64));
    group.bench_function("point_lookup", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for &k in &keys {
                hits += artifact.get(k).is_some() as usize;
            }
            hits
        })
    });
    group.bench_function("batch_lookup", |b| b.iter(|| artifact.get_batch(&keys, 0)));
    group.finish();
}

fn bench_clustering(c: &mut Criterion) {
    // Synthetic β populations of operator-like shape.
    let mut betas: Vec<u16> = Vec::new();
    for block in 0..40u16 {
        for i in 0..25u16 {
            betas.push(block * 1500 + i * 7);
        }
    }
    betas.sort_unstable();
    betas.dedup();

    let mut group = c.benchmark_group("clustering");
    for gap in [0u16, 140, 1000] {
        group.bench_function(format!("gap_{gap}/1k_betas"), |b| {
            b.iter(|| gap_clusters(1299, &betas, gap))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pipeline, bench_query, bench_clustering);
criterion_main!(benches);
