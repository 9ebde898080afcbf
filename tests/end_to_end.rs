//! Cross-crate integration tests: the full pipeline from world generation
//! through MRT serialization to inference and evaluation.

use bgp_community_intent::experiments::{Scenario, ScenarioConfig};
use bgp_community_intent::intent::{run_inference, Exclusion, InferenceConfig};
use bgp_community_intent::topology::Tier;
use bgp_community_intent::types::{Asn, Intent, Telemetry};

fn small_scenario() -> Scenario {
    Scenario::build(&ScenarioConfig {
        scale: 0.25,
        documented: 25,
        ..ScenarioConfig::default()
    })
}

#[test]
fn pipeline_reaches_high_accuracy_on_a_small_world() {
    let scenario = small_scenario();
    let observations = scenario.collect(2);
    assert!(!observations.is_empty());
    let result = run_inference(
        &observations,
        &scenario.siblings,
        &InferenceConfig::default(),
        Some(&scenario.dict),
        &Telemetry::disabled(),
    );
    let eval = result.evaluation.expect("dictionary supplied");
    assert!(eval.total > 100, "only {} covered communities", eval.total);
    assert!(
        eval.accuracy() > 0.85,
        "accuracy {:.3} too low at small scale",
        eval.accuracy()
    );
    // Both intents must be represented in the output.
    let (action, info) = result.inference.intent_counts();
    assert!(action > 20, "only {action} action labels");
    assert!(info > 20, "only {info} info labels");
    assert!(
        info > action,
        "info should outnumber action (paper: 54K vs 24K)"
    );
}

#[test]
fn clustering_beats_no_clustering() {
    // The paper's central Fig 9 claim, as an invariant.
    let scenario = small_scenario();
    let observations = scenario.collect(2);
    let clustered = run_inference(
        &observations,
        &scenario.siblings,
        &InferenceConfig::default(),
        Some(&scenario.dict),
        &Telemetry::disabled(),
    );
    let isolated = run_inference(
        &observations,
        &scenario.siblings,
        &InferenceConfig {
            min_gap: 0,
            ..InferenceConfig::default()
        },
        Some(&scenario.dict),
        &Telemetry::disabled(),
    );
    let acc_clustered = clustered.evaluation.unwrap().accuracy();
    let acc_isolated = isolated.evaluation.unwrap().accuracy();
    assert!(
        acc_clustered > acc_isolated,
        "clustering ({acc_clustered:.3}) must beat isolation ({acc_isolated:.3})"
    );
}

#[test]
fn ixp_route_server_communities_are_excluded_not_classified() {
    let scenario = small_scenario();
    let observations = scenario.collect(1);
    let result = run_inference(
        &observations,
        &scenario.siblings,
        &InferenceConfig::default(),
        None,
        &Telemetry::disabled(),
    );
    let rses: Vec<Asn> = scenario.topo.asns_of_tier(Tier::IxpRouteServer);
    let mut saw_rs_community = false;
    for (c, reason) in &result.inference.excluded {
        if rses.iter().any(|rs| rs.value() == c.asn as u32) {
            saw_rs_community = true;
            assert_eq!(*reason, Exclusion::NeverOnPath, "wrong exclusion for {c}");
        }
    }
    // And none were labeled.
    for c in result.inference.labels.keys() {
        assert!(
            !rses.iter().any(|rs| rs.value() == c.asn as u32),
            "route-server community {c} was classified"
        );
    }
    assert!(saw_rs_community, "no route-server community ever observed");
}

#[test]
fn private_asn_communities_are_excluded() {
    let scenario = small_scenario();
    let observations = scenario.collect(1);
    let result = run_inference(
        &observations,
        &scenario.siblings,
        &InferenceConfig::default(),
        None,
        &Telemetry::disabled(),
    );
    let private: Vec<_> = result
        .inference
        .excluded
        .iter()
        .filter(|(c, _)| Asn::new(c.asn as u32).is_private())
        .collect();
    assert!(!private.is_empty(), "no private-ASN residue observed");
    for (_, reason) in private {
        assert_eq!(*reason, Exclusion::PrivateAsn);
    }
}

#[test]
fn mrt_round_trip_preserves_inference_results() {
    // Inference over directly-collected observations must equal inference
    // over the same data after an MRT write/read cycle (Scenario::collect
    // already round-trips; compare against the raw simulator output).
    let scenario = small_scenario();
    let sim = scenario.simulator();
    let direct = sim.collect_rib(&scenario.vps);
    let via_mrt = scenario.collect(1);

    let cfg = InferenceConfig::default();
    let a = run_inference(
        &direct,
        &scenario.siblings,
        &cfg,
        None,
        &Telemetry::disabled(),
    );
    let b = run_inference(
        &via_mrt,
        &scenario.siblings,
        &cfg,
        None,
        &Telemetry::disabled(),
    );
    assert_eq!(a.inference.labels, b.inference.labels);
    assert_eq!(a.inference.excluded, b.inference.excluded);
}

#[test]
fn determinism_across_full_pipeline() {
    let cfg = ScenarioConfig {
        scale: 0.1,
        documented: 10,
        ..ScenarioConfig::default()
    };
    let run = || {
        let scenario = Scenario::build(&cfg);
        let observations = scenario.collect(2);
        let result = run_inference(
            &observations,
            &scenario.siblings,
            &InferenceConfig::default(),
            Some(&scenario.dict),
            &Telemetry::disabled(),
        );
        (
            observations.len(),
            result.inference.labels.len(),
            result.evaluation.unwrap().accuracy(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn ground_truth_dictionary_is_sound_for_observed_communities() {
    // Every observed community the dictionary labels must agree with the
    // owning AS's true policy — the dictionary never overgeneralizes.
    let scenario = small_scenario();
    let observations = scenario.collect(1);
    let mut checked = 0;
    for obs in &observations {
        for c in &obs.communities {
            if let Some(dict_label) = scenario.dict.lookup(*c) {
                let truth = scenario
                    .policies
                    .intent_of(*c)
                    .expect("dictionary only covers defined values");
                assert_eq!(dict_label, truth, "dictionary mislabels {c}");
                checked += 1;
            }
        }
    }
    assert!(checked > 1000, "only {checked} labeled sightings");
}

#[test]
fn sibling_expansion_changes_exclusions_only_conservatively() {
    let scenario = small_scenario();
    let observations = scenario.collect(1);
    let with = run_inference(
        &observations,
        &scenario.siblings,
        &InferenceConfig::default(),
        None,
        &Telemetry::disabled(),
    );
    let without = run_inference(
        &observations,
        &bgp_community_intent::relationships::SiblingMap::default(),
        &InferenceConfig::default(),
        None,
        &Telemetry::disabled(),
    );
    // Sibling expansion can only move communities from excluded to
    // classified (never-on-path gets rescued by a sibling in paths), and
    // can flip off-path counts to on-path.
    assert!(with.inference.excluded.len() <= without.inference.excluded.len());
}

#[test]
fn intent_labels_mostly_match_true_policies_even_outside_dictionary() {
    // The dictionary covers only documented ASes, but the simulation knows
    // every AS's truth: overall (undocumented included) accuracy should
    // also be high.
    let scenario = small_scenario();
    let observations = scenario.collect(2);
    let result = run_inference(
        &observations,
        &scenario.siblings,
        &InferenceConfig::default(),
        None,
        &Telemetry::disabled(),
    );
    let mut total = 0;
    let mut correct = 0;
    for (c, label) in &result.inference.labels {
        if let Some(truth) = scenario.policies.intent_of(*c) {
            total += 1;
            if truth == *label {
                correct += 1;
            }
        }
    }
    assert!(total > 300);
    let accuracy = correct as f64 / total as f64;
    assert!(accuracy > 0.85, "all-AS accuracy {accuracy:.3}");
}

#[test]
fn excluded_plus_labeled_equals_observed() {
    let scenario = small_scenario();
    let observations = scenario.collect(1);
    let result = run_inference(
        &observations,
        &scenario.siblings,
        &InferenceConfig::default(),
        None,
        &Telemetry::disabled(),
    );
    assert_eq!(
        result.inference.labels.len() + result.inference.excluded.len(),
        result.stats.community_count()
    );
}

#[test]
fn evaluation_confusion_sums_to_total() {
    let scenario = small_scenario();
    let observations = scenario.collect(1);
    let result = run_inference(
        &observations,
        &scenario.siblings,
        &InferenceConfig::default(),
        Some(&scenario.dict),
        &Telemetry::disabled(),
    );
    let eval = result.evaluation.unwrap();
    let sum: usize = eval.confusion.iter().flatten().sum();
    assert_eq!(sum, eval.total);
    let diag = eval.confusion[0][0] + eval.confusion[1][1];
    assert_eq!(diag, eval.correct);
    // Precision/recall are well-defined for both classes here.
    for class in [Intent::Action, Intent::Information] {
        assert!(eval.precision(class) > 0.0);
        assert!(eval.recall(class) > 0.0);
    }
}
