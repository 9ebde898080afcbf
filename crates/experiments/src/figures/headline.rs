//! §6 headline numbers: how many communities were observed, classified,
//! and how accurately (paper: 78,480 classified of 88,982 observed —
//! 54,104 information + 24,376 action by 5,491 ASes — 96.5% accuracy on
//! 6,259 ground-truth communities).

use serde::{Deserialize, Serialize};

use bgp_intent::{run_inference, Exclusion, InferenceConfig};
use bgp_types::{Observation, Telemetry};

use crate::report::pct;
use crate::scenario::Scenario;

/// The headline statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HeadlineResult {
    /// Unique `(AS path, communities)` tuples (§4's "≈174M").
    pub unique_tuples: usize,
    /// Unique AS paths.
    pub unique_paths: usize,
    /// Distinct regular communities observed.
    pub observed: usize,
    /// Communities classified.
    pub classified: usize,
    /// Classified as action.
    pub action: usize,
    /// Classified as information.
    pub information: usize,
    /// Distinct owner ASNs among classified communities.
    pub owners: usize,
    /// Excluded: private-ASN owners.
    pub excluded_private: usize,
    /// Excluded: reserved/well-known owners.
    pub excluded_reserved: usize,
    /// Excluded: owner never on any path (IXP route servers).
    pub excluded_never_on_path: usize,
    /// Ground-truth-covered communities observed.
    pub covered: usize,
    /// Of those, classified and correct.
    pub correct: usize,
    /// Accuracy over covered+classified communities.
    pub accuracy: f64,
}

/// Run the full method and evaluation over the observations.
pub fn run(scenario: &Scenario, observations: &[Observation]) -> HeadlineResult {
    let result = run_inference(
        observations,
        &scenario.siblings,
        &InferenceConfig::default(),
        Some(&scenario.dict),
        &Telemetry::disabled(),
    );
    let eval = result.evaluation.expect("dictionary supplied");
    let (action, information) = result.inference.intent_counts();
    let count_excl = |e: Exclusion| {
        result
            .inference
            .excluded
            .values()
            .filter(|x| **x == e)
            .count()
    };
    HeadlineResult {
        unique_tuples: result.stats.unique_tuples,
        unique_paths: result.stats.unique_paths,
        observed: result.stats.community_count(),
        classified: result.inference.labels.len(),
        action,
        information,
        owners: result.inference.owner_count(),
        excluded_private: count_excl(Exclusion::PrivateAsn),
        excluded_reserved: count_excl(Exclusion::ReservedAsn),
        excluded_never_on_path: count_excl(Exclusion::NeverOnPath),
        covered: eval.covered_observed,
        correct: eval.correct,
        accuracy: eval.accuracy(),
    }
}

/// Print in the shape of the paper's §6 prose.
pub fn print(r: &HeadlineResult) {
    println!("== Headline (§6) ==");
    println!("unique (path, communities) tuples : {}", r.unique_tuples);
    println!("unique AS paths                   : {}", r.unique_paths);
    println!("observed regular communities      : {}", r.observed);
    println!(
        "classified                        : {} ({} information + {} action) by {} ASes",
        r.classified, r.information, r.action, r.owners
    );
    println!(
        "excluded                          : {} private-ASN, {} reserved, {} never-on-path",
        r.excluded_private, r.excluded_reserved, r.excluded_never_on_path
    );
    println!(
        "ground truth                      : {} covered communities, {} correct, accuracy {}",
        r.covered,
        r.correct,
        pct(r.accuracy)
    );
    println!(
        "[paper: 88,982 observed; 78,480 classified = 54,104 info + 24,376 action by 5,491 ASes; 96.5% accuracy on 6,259 covered]"
    );
}
