//! The parallel pipeline's headline guarantee: at *any* thread count the
//! output is bit-identical to the sequential run — for multi-file MRT
//! ingestion (including files with injected corruption, where the merged
//! byte ledger must still balance), for strict ingestion, and for the full
//! statistics → clustering → classification → evaluation pipeline, over
//! observations and over per-file segments merged in input order. Strict
//! ingestion is the lenient reader under a fail-fast policy, so it is
//! pinned to the lenient reader's reports too.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use proptest::prelude::*;

use bgp_community_intent::experiments::{Scenario, ScenarioConfig};
use bgp_community_intent::intent::pipeline::Input;
use bgp_community_intent::intent::{
    run_inference, FileSegment, InferenceConfig, PipelineResult, StatsAccumulator,
};
use bgp_community_intent::mrt::faults::corrupt_stream;
use bgp_community_intent::mrt::obs::{
    read_files, read_observations_resilient_into, read_observations_resilient_reference,
    write_update_stream, FileIngest,
};
use bgp_community_intent::mrt::readahead::DEFAULT_BLOCK_SIZE;
use bgp_community_intent::mrt::{IngestOptions, RecoverConfig};
use bgp_community_intent::types::{Asn, Observation, ObservationSink, Telemetry};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn scenario() -> Scenario {
    Scenario::build(&ScenarioConfig {
        scale: 0.1,
        documented: 10,
        ..ScenarioConfig::default()
    })
}

/// Read `paths` into one `Vec<Observation>` each at `threads` workers.
fn read_vecs(paths: &[PathBuf], strict: bool, threads: usize) -> Vec<FileIngest<Vec<Observation>>> {
    let opts = IngestOptions {
        strict,
        threads,
        ..IngestOptions::default()
    };
    read_files(paths, &opts, &Telemetry::disabled()).0
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bgp-par-determinism-{name}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Split `observations` into three MRT update archives; optionally corrupt
/// the middle one with seeded faults. Returns the file paths.
fn archives(dir: &Path, observations: &[Observation], corrupt_middle: bool) -> Vec<PathBuf> {
    let chunk = observations.len().div_ceil(3).max(1);
    observations
        .chunks(chunk)
        .enumerate()
        .map(|(i, obs)| {
            let mut buf = Vec::new();
            write_update_stream(&mut buf, Asn::new(6447), obs).unwrap();
            if corrupt_middle && i == 1 {
                let (damaged, log) = corrupt_stream(&buf, 11, 0.05);
                assert!(log.count() > 0, "corruption must actually land");
                buf = damaged;
            }
            let path = dir.join(format!("chunk{i}.mrt"));
            fs::write(&path, buf).unwrap();
            path
        })
        .collect()
}

#[test]
fn lenient_multi_file_ingest_is_identical_at_any_thread_count() {
    let observations = scenario().collect(1);
    assert!(observations.len() >= 3, "scenario too small to split");
    let dir = workdir("lenient");
    let paths = archives(&dir, &observations, true);
    let cfg = RecoverConfig::default();

    // Sequential reference: one resilient read per file, in order.
    let reference: Vec<_> = paths
        .iter()
        .map(|p| {
            let mut obs = Vec::new();
            let report =
                read_observations_resilient_into(fs::File::open(p).unwrap(), &cfg, &mut obs);
            (obs, report)
        })
        .collect();

    for threads in THREAD_COUNTS {
        let opts = IngestOptions {
            threads,
            ..IngestOptions::default()
        };
        let (files, merged) = read_files::<Vec<Observation>>(&paths, &opts, &Telemetry::disabled());
        assert_eq!(files.len(), paths.len());
        for (file, (obs, report)) in files.iter().zip(&reference) {
            assert_eq!(&file.store, obs, "threads = {threads}");
            // The supervised chain prefetches through a readahead layer the
            // direct read does not have; its block count is deterministic
            // (completely filled blocks of the default size). Everything
            // else in the report matches the direct read exactly.
            let mut normalized = file.report.clone();
            assert_eq!(
                normalized.readahead_blocks,
                normalized.bytes_read.div_ceil(DEFAULT_BLOCK_SIZE as u64),
                "threads = {threads}"
            );
            normalized.readahead_blocks = report.readahead_blocks;
            assert_eq!(&normalized, report, "threads = {threads}");
        }
        // The merged ledger must balance even with a corrupted file in the
        // middle: every byte is either decoded or accounted as skipped.
        assert_eq!(
            merged.bytes_ok + merged.bytes_skipped,
            merged.bytes_read,
            "threads = {threads}"
        );
        assert!(merged.bytes_skipped > 0, "corruption went unnoticed");
        let mut by_hand = reference.iter().fold(
            bgp_community_intent::mrt::IngestReport::default(),
            |mut acc, (_, r)| {
                acc.merge(r);
                acc
            },
        );
        // Direct reads carry no readahead layer; the supervised merge sums
        // one deterministic block count per file.
        assert_eq!(
            merged.readahead_blocks,
            files.iter().map(|f| f.report.readahead_blocks).sum::<u64>(),
            "threads = {threads}"
        );
        by_hand.readahead_blocks = merged.readahead_blocks;
        assert_eq!(merged, by_hand, "threads = {threads}");
    }
}

#[test]
fn strict_multi_file_ingest_is_identical_at_any_thread_count() {
    let observations = scenario().collect(1);
    let dir = workdir("strict");
    let paths = archives(&dir, &observations, false);

    // The owned decode is the reference.
    let reference: Vec<_> = paths
        .iter()
        .map(|p| {
            let mut observations = Vec::new();
            let report = read_observations_resilient_reference(
                fs::File::open(p).unwrap(),
                &RecoverConfig::default(),
                &mut observations,
            );
            assert!(report.is_clean());
            observations
        })
        .collect();

    for threads in THREAD_COUNTS {
        let files = read_vecs(&paths, true, threads);
        assert!(files.iter().all(|f| f.report.is_clean()));
        let per_file: Vec<_> = files.into_iter().map(|f| f.store).collect();
        assert_eq!(per_file, reference, "threads = {threads}");
    }
}

/// A fresh directory for one case of the property `test`: unique to the
/// test, the case and the process, so no two cases share files.
fn case_dir(test: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "bgp-par-determinism-{test}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// The scenario's observations as three update archives, built once.
fn clean_files() -> &'static [Vec<u8>] {
    static FILES: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    FILES.get_or_init(|| {
        let observations = scenario().collect(1);
        observations
            .chunks(observations.len().div_ceil(3))
            .map(|obs| {
                let mut buf = Vec::new();
                write_update_stream(&mut buf, Asn::new(6447), obs).unwrap();
                buf
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Three files, each clean or damaged at a random seed and rate: the
    /// strict reader accepts a file exactly when the lenient reader's
    /// report for it is clean, reads the same observations from every file
    /// it accepts, and its earliest failure is the earliest file the
    /// lenient reader found damaged, at every thread count.
    #[test]
    fn strict_ingest_is_the_lenient_reader_failing_fast(
        damage in prop::collection::vec(
            prop::option::of((any::<u64>(), 0.001f64..0.2)),
            3..4,
        ),
    ) {
        let clean = clean_files();
        let dir = case_dir("strict-vs-lenient");
        let paths: Vec<PathBuf> = clean
            .iter()
            .zip(&damage)
            .enumerate()
            .map(|(i, (bytes, damage))| {
                let bytes = match damage {
                    Some((seed, rate)) => corrupt_stream(bytes, *seed, *rate).0,
                    None => bytes.clone(),
                };
                let path = dir.join(format!("file{i}.mrt"));
                fs::write(&path, bytes).unwrap();
                path
            })
            .collect();
        let lenient = read_vecs(&paths, false, 1);
        let first_dirty = lenient.iter().position(|f| !f.report.is_clean());
        for threads in THREAD_COUNTS {
            let strict = read_vecs(&paths, true, threads);
            for (s, l) in strict.iter().zip(&lenient) {
                let accepted = s.report.aborted.is_none();
                prop_assert_eq!(accepted, l.report.is_clean());
                prop_assert_eq!(accepted, s.report.is_clean());
                prop_assert_eq!(
                    s.report.bytes_ok + s.report.bytes_skipped,
                    s.report.bytes_read
                );
                if accepted {
                    prop_assert_eq!(&s.store, &l.store);
                }
            }
            let first_failed = strict.iter().position(|f| f.report.aborted.is_some());
            prop_assert_eq!(first_failed, first_dirty, "threads = {}", threads);
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn full_pipeline_result_is_identical_at_any_thread_count() {
    let scenario = scenario();
    let observations = scenario.collect(1);
    let paths = archives(&workdir("pipeline"), &observations, false);
    let cfg = |threads: usize| InferenceConfig {
        threads,
        ..InferenceConfig::default()
    };

    let run = |threads: usize| -> PipelineResult {
        run_inference(
            &observations,
            &scenario.siblings,
            &cfg(threads),
            Some(&scenario.dict),
            &Telemetry::disabled(),
        )
    };
    // The CLI's route over the same observations: each archive decoded
    // into its own segment, the segments merged in input order.
    let run_files = |threads: usize| -> PipelineResult {
        let opts = IngestOptions {
            threads,
            ..IngestOptions::default()
        };
        let (files, _) = read_files::<FileSegment>(&paths, &opts, &Telemetry::disabled());
        let (mut segment, mut folded) = (StatsAccumulator::new(), 0);
        for file in files {
            folded += file.store.observation_count();
            segment.merge_file(file.store, &scenario.siblings);
        }
        assert_eq!(folded, observations.len());
        run_inference(
            Input::Segment(&segment, folded),
            &scenario.siblings,
            &cfg(threads),
            Some(&scenario.dict),
            &Telemetry::disabled(),
        )
    };

    let baseline = run(1);
    assert!(
        baseline.stats.community_count() > 0,
        "scenario produced no communities"
    );
    for threads in THREAD_COUNTS {
        assert_eq!(run(threads), baseline, "threads = {threads}");
        assert_eq!(run_files(threads), baseline, "files, threads = {threads}");
    }
    // `0` resolves to one worker per CPU — still identical.
    assert_eq!(run(0), baseline, "threads = 0");
}
