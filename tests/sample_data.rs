//! The checked-in sample dataset must stay parseable forever: these tests
//! double as wire-format regression fixtures.

use std::fs::File;
use std::io::BufReader;
use std::path::PathBuf;

use bgp_community_intent::dictionary::GroundTruthDictionary;
use bgp_community_intent::intent::{run_inference, InferenceConfig};
use bgp_community_intent::mrt::obs::read_observations;
use bgp_community_intent::relationships::SiblingMap;
use bgp_community_intent::types::{Intent, Observation, Telemetry};

fn sample(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("data/sample")
        .join(name)
}

fn load_mrt(name: &str) -> Vec<Observation> {
    let file = File::open(sample(name)).unwrap_or_else(|e| panic!("open {name}: {e}"));
    read_observations(BufReader::new(file)).unwrap_or_else(|e| panic!("parse {name}: {e}"))
}

#[test]
fn rib_snapshot_parses_with_expected_shape() {
    let observations = load_mrt("rib.mrt");
    assert_eq!(observations.len(), 2713, "RIB route count drifted");
    // Every observation has the vantage point at the head of its path.
    for obs in &observations {
        assert_eq!(obs.path.head(), Some(obs.vp));
        assert!(!obs.path.has_loop());
    }
    // Communities are present in bulk.
    let with_comms = observations
        .iter()
        .filter(|o| !o.communities.is_empty())
        .count();
    assert!(
        with_comms * 2 > observations.len(),
        "most routes should carry communities"
    );
}

#[test]
fn update_stream_parses() {
    let observations = load_mrt("updates.day1.mrt");
    assert_eq!(observations.len(), 72, "update count drifted");
    // Update timestamps are one day after the RIB snapshot.
    assert!(observations
        .iter()
        .all(|o| o.time >= 1_682_899_200 + 86_400));
}

#[test]
fn dictionary_and_siblings_parse() {
    let dict = GroundTruthDictionary::from_json(BufReader::new(
        File::open(sample("dictionary.json")).unwrap(),
    ))
    .unwrap();
    let (action, info) = dict.entry_counts();
    assert_eq!((action, info), (55, 118), "dictionary entry counts drifted");
    assert_eq!(dict.covered_ases().len(), 10);

    let siblings: SiblingMap =
        serde_json::from_reader(BufReader::new(File::open(sample("siblings.json")).unwrap()))
            .unwrap();
    assert!(siblings.org_count() > 50);
}

#[test]
fn end_to_end_inference_on_sample_data() {
    let mut observations = load_mrt("rib.mrt");
    observations.extend(load_mrt("updates.day1.mrt"));
    let dict = GroundTruthDictionary::from_json(BufReader::new(
        File::open(sample("dictionary.json")).unwrap(),
    ))
    .unwrap();
    let siblings: SiblingMap =
        serde_json::from_reader(BufReader::new(File::open(sample("siblings.json")).unwrap()))
            .unwrap();

    let result = run_inference(
        &observations,
        &siblings,
        &InferenceConfig::default(),
        Some(&dict),
        &Telemetry::disabled(),
    );
    let eval = result.evaluation.expect("dictionary supplied");
    assert!(
        eval.total > 50,
        "too few covered communities: {}",
        eval.total
    );
    // The tiny 0.08-scale world is below the threshold's comfort zone;
    // demand decent-but-not-full-scale accuracy.
    assert!(eval.accuracy() > 0.7, "accuracy {:.3}", eval.accuracy());

    // And score against the full truth file, not just the dictionary.
    let truth: Vec<serde_json::Value> =
        serde_json::from_reader(BufReader::new(File::open(sample("truth.json")).unwrap())).unwrap();
    let truth_map: std::collections::HashMap<String, Intent> = truth
        .iter()
        .map(|v| {
            (
                v["community"].as_str().unwrap().to_string(),
                v["intent"].as_str().unwrap().parse().unwrap(),
            )
        })
        .collect();
    let mut total = 0;
    let mut correct = 0;
    for (c, label) in &result.inference.labels {
        if let Some(t) = truth_map.get(&c.to_string()) {
            total += 1;
            if t == label {
                correct += 1;
            }
        }
    }
    assert!(total > 200);
    assert!(
        correct as f64 / total as f64 > 0.7,
        "all-AS accuracy {:.3} over {total}",
        correct as f64 / total as f64
    );
}
