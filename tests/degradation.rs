//! End-to-end degradation guarantee: seeded corruption of the sample MRT
//! archives must never panic the pipeline, every skipped record and byte
//! must be accounted for, and headline accuracy must degrade gracefully
//! (<2 points at 1% record corruption).

use std::fs::File;
use std::io::BufReader;
use std::path::PathBuf;

use bgp_community_intent::dictionary::GroundTruthDictionary;
use bgp_community_intent::intent::{run_inference, InferenceConfig};
use bgp_community_intent::mrt::faults::corrupt_stream;
use bgp_community_intent::mrt::obs::{read_observations, read_observations_resilient_into};
use bgp_community_intent::mrt::{IngestReport, RecoverConfig};
use bgp_community_intent::relationships::SiblingMap;
use bgp_community_intent::types::{Observation, Telemetry};

fn sample(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("data/sample")
        .join(name)
}

fn sample_bytes(name: &str) -> Vec<u8> {
    std::fs::read(sample(name)).unwrap_or_else(|e| panic!("read {name}: {e}"))
}

fn load_context() -> (GroundTruthDictionary, SiblingMap) {
    let dict = GroundTruthDictionary::from_json(BufReader::new(
        File::open(sample("dictionary.json")).unwrap(),
    ))
    .unwrap();
    let siblings: SiblingMap =
        serde_json::from_reader(BufReader::new(File::open(sample("siblings.json")).unwrap()))
            .unwrap();
    (dict, siblings)
}

/// Ingest both sample archives after corrupting each with the given seed
/// and per-record corruption rate.
fn ingest_corrupted(seed: u64, rate: f64) -> (Vec<Observation>, IngestReport) {
    let mut observations = Vec::new();
    let mut merged = IngestReport::default();
    for name in ["rib.mrt", "updates.day1.mrt"] {
        let clean = sample_bytes(name);
        let (damaged, log) = corrupt_stream(&clean, seed, rate);
        if rate > 0.0 {
            assert!(log.count() > 0, "{name}: corruption must land at {rate}");
        }
        let mut obs = Vec::new();
        let report =
            read_observations_resilient_into(&damaged[..], &RecoverConfig::default(), &mut obs);
        // Byte accounting must balance exactly: every byte of the damaged
        // stream is either part of a decoded record or counted as skipped.
        assert_eq!(
            report.bytes_ok + report.bytes_skipped,
            report.bytes_read,
            "{name} seed={seed} rate={rate}: byte accounting"
        );
        assert_eq!(
            report.bytes_read,
            damaged.len() as u64,
            "{name} seed={seed} rate={rate}: whole stream consumed"
        );
        observations.extend(obs);
        merged.merge(&report);
    }
    (observations, merged)
}

fn accuracy_for(observations: &[Observation]) -> f64 {
    let (dict, siblings) = load_context();
    let result = run_inference(
        observations,
        &siblings,
        &InferenceConfig::default(),
        Some(&dict),
        &Telemetry::disabled(),
    );
    result.evaluation.expect("dictionary supplied").accuracy()
}

fn baseline_accuracy() -> f64 {
    let mut observations =
        read_observations(&sample_bytes("rib.mrt")[..]).expect("clean rib parses");
    observations
        .extend(read_observations(&sample_bytes("updates.day1.mrt")[..]).expect("clean updates"));
    accuracy_for(&observations)
}

#[test]
fn accuracy_degrades_gracefully_under_one_percent_corruption() {
    let baseline = baseline_accuracy();
    assert!(baseline > 0.7, "baseline accuracy {baseline:.3}");
    for seed in [1, 2, 3] {
        let (observations, report) = ingest_corrupted(seed, 0.01);
        assert!(!report.is_clean(), "seed={seed}: damage must be visible");
        let accuracy = accuracy_for(&observations);
        assert!(
            baseline - accuracy < 0.02,
            "seed={seed}: accuracy fell {:.4} points ({baseline:.4} -> {accuracy:.4})",
            baseline - accuracy
        );
    }
}

#[test]
fn five_percent_corruption_completes_with_bounded_loss() {
    let baseline = baseline_accuracy();
    for seed in [1, 2, 3] {
        let (observations, report) = ingest_corrupted(seed, 0.05);
        assert!(
            !observations.is_empty(),
            "seed={seed}: most of the archive must survive"
        );
        // The reader, not the fault injector, decides how much survives:
        // demand the bulk of records decode even at 5% damage.
        assert!(
            report.records_read as f64 / (report.records_read + report.records_skipped) as f64
                > 0.8,
            "seed={seed}: {} read / {} skipped",
            report.records_read,
            report.records_skipped
        );
        let accuracy = accuracy_for(&observations);
        assert!(
            baseline - accuracy < 0.15,
            "seed={seed}: accuracy collapsed ({baseline:.4} -> {accuracy:.4})"
        );
    }
}

#[test]
fn zero_rate_corruption_is_the_identity() {
    let (observations, report) = ingest_corrupted(9, 0.0);
    assert!(report.is_clean());
    let clean_count = {
        let mut o = read_observations(&sample_bytes("rib.mrt")[..]).unwrap();
        o.extend(read_observations(&sample_bytes("updates.day1.mrt")[..]).unwrap());
        o.len()
    };
    assert_eq!(observations.len(), clean_count);
}
