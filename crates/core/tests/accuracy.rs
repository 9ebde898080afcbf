//! Ground-truth accuracy harness: simulate a world, round-trip it through
//! MRT, run the full inference pipeline, and score the labels against the
//! simulator's *complete* ground truth (`Scenario::policies` — not the
//! partial documented dictionary used for §6-style evaluation).
//!
//! The floors are calibrated well under the observed scores on these
//! exact seeds (see the table in the test), so they catch genuine
//! pipeline regressions — a broken ratio threshold, a lost off-path
//! signal, an ingest bug dropping observations — rather than simulator
//! noise. On failure the full metrics snapshot (confusion matrix
//! included) is dumped as JSON for diagnosis.

use bgp_experiments::{Scenario, ScenarioConfig};
use bgp_intent::{run_inference, InferenceConfig};
use bgp_types::obs::Telemetry;
use bgp_types::Intent;

/// Per-seed accuracy scores against complete ground truth.
#[derive(Debug)]
struct Scores {
    /// Labeled communities whose owner defined them (scoreable).
    scored: usize,
    /// Of the scored, how many labels matched the truth.
    correct: usize,
    /// `[truth][inferred]`, `0 = action`, `1 = information`.
    confusion: [[usize; 2]; 2],
}

impl Scores {
    fn accuracy(&self) -> f64 {
        self.correct as f64 / self.scored.max(1) as f64
    }

    /// Precision of the action class: of everything labeled action, how
    /// much truly is.
    fn action_precision(&self) -> f64 {
        let tp = self.confusion[0][0];
        let fp = self.confusion[1][0];
        tp as f64 / (tp + fp).max(1) as f64
    }

    /// Recall of the action class: of all true actions we labeled, how
    /// many we got.
    fn action_recall(&self) -> f64 {
        let tp = self.confusion[0][0];
        let fnn = self.confusion[0][1];
        tp as f64 / (tp + fnn).max(1) as f64
    }
}

/// Simulate → MRT encode → parse → infer, then score every label with
/// known truth and record the tallies in the run's metrics registry.
fn run_seed(seed: u64) -> (Scores, Telemetry) {
    let scenario = Scenario::build(&ScenarioConfig {
        seed,
        scale: 0.1, // ~100 ASes; debug-mode friendly (≈1 s per seed)
        documented: 12,
        ..ScenarioConfig::default()
    });
    // collect() writes the RIB + churn days to in-memory MRT and parses
    // it back, so the wire codecs sit inside the scored path.
    let observations = scenario.collect(3);

    let tel = Telemetry::with_metrics();
    let result = run_inference(
        &observations,
        &scenario.siblings,
        &InferenceConfig::default(),
        Some(&scenario.dict),
        &tel,
    );

    let mut scores = Scores {
        scored: 0,
        correct: 0,
        confusion: [[0; 2]; 2],
    };
    for (&community, &inferred) in &result.inference.labels {
        let Some(truth) = scenario.policies.intent_of(community) else {
            continue; // undefined by its owner: unscoreable, not wrong
        };
        let row = |i: Intent| match i {
            Intent::Action => 0,
            Intent::Information => 1,
        };
        scores.scored += 1;
        scores.confusion[row(truth)][row(inferred)] += 1;
        if truth == inferred {
            scores.correct += 1;
        }
    }

    let metrics = tel.registry().expect("with_metrics carries a registry");
    metrics.counter("accuracy/scored").add(scores.scored as u64);
    metrics
        .counter("accuracy/correct")
        .add(scores.correct as u64);
    for (truth, truth_name) in ["action", "information"].iter().enumerate() {
        for (inferred, inferred_name) in ["action", "information"].iter().enumerate() {
            metrics
                .counter(&format!(
                    "accuracy/confusion/{truth_name}_as_{inferred_name}"
                ))
                .add(scores.confusion[truth][inferred] as u64);
        }
    }
    (scores, tel)
}

/// Dump the metrics snapshot (confusion matrix and all pipeline
/// accounting) so a floor failure is diagnosable from the test log alone.
fn dump_metrics(seed: u64, tel: &Telemetry) {
    let snapshot = tel.snapshot().expect("registry present");
    let json = serde_json::to_string_pretty(&snapshot.deterministic())
        .expect("metrics snapshot serializes");
    eprintln!("--- metrics for seed {seed} ---\n{json}");
}

#[test]
fn inference_meets_accuracy_floors_on_three_seeds() {
    // Observed on these exact seeds (scale 0.1, 12 documented, 3 days):
    //
    //   seed       scored  accuracy  action-precision  action-recall
    //   20230501     410     0.893        0.868             0.857
    //   42           451     0.854        0.779             0.876
    //   7            455     0.815        0.733             0.831
    //
    // Floors leave a wide margin under those; dropping below any of them
    // means the method broke, not that the world got unlucky.
    const MIN_SCORED: usize = 150;
    const MIN_ACCURACY: f64 = 0.70;
    const MIN_ACTION_PRECISION: f64 = 0.60;
    const MIN_ACTION_RECALL: f64 = 0.65;

    for seed in [20230501u64, 42, 7] {
        let (scores, tel) = run_seed(seed);
        let ok = scores.scored >= MIN_SCORED
            && scores.accuracy() >= MIN_ACCURACY
            && scores.action_precision() >= MIN_ACTION_PRECISION
            && scores.action_recall() >= MIN_ACTION_RECALL;
        if !ok {
            dump_metrics(seed, &tel);
            panic!(
                "seed {seed}: accuracy floors violated: scored={} (floor {MIN_SCORED}), \
                 accuracy={:.3} (floor {MIN_ACCURACY}), action precision={:.3} \
                 (floor {MIN_ACTION_PRECISION}), action recall={:.3} (floor {MIN_ACTION_RECALL}); \
                 confusion [truth][inferred]={:?}",
                scores.scored,
                scores.accuracy(),
                scores.action_precision(),
                scores.action_recall(),
                scores.confusion,
            );
        }
        eprintln!(
            "seed {seed}: scored={} accuracy={:.3} action_precision={:.3} action_recall={:.3}",
            scores.scored,
            scores.accuracy(),
            scores.action_precision(),
            scores.action_recall(),
        );
    }
}

#[test]
fn accuracy_metrics_land_in_registry() {
    let (scores, tel) = run_seed(20230501);
    let snapshot = tel.snapshot().expect("registry present");
    assert_eq!(
        snapshot.counters["accuracy/scored"], scores.scored as u64,
        "registry tally must match the struct"
    );
    assert_eq!(
        snapshot.counters["accuracy/confusion/action_as_action"],
        scores.confusion[0][0] as u64
    );
    // The pipeline's own metrics ride along in the same registry.
    assert!(snapshot.counters["stats/communities"] > 0);
    assert!(snapshot.counters["classify/clusters"] > 0);
}
