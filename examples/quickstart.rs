//! Quickstart: infer BGP community intent end to end in ~40 lines.
//!
//! Builds a small synthetic Internet, collects routes at vantage points,
//! runs the paper's method, and prints a few inferences with their ground
//! truth.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use bgp_community_intent::experiments::{Scenario, ScenarioConfig};
use bgp_community_intent::intent::{run_inference, InferenceConfig};
use bgp_community_intent::types::Telemetry;

fn main() {
    // A ~1/10-scale world: a few hundred ASes, dictionaries, vantage points.
    let scenario = Scenario::build(&ScenarioConfig {
        scale: 0.25,
        documented: 30,
        ..ScenarioConfig::default()
    });

    // One day of collector data (a RIB snapshot round-tripped through MRT).
    let observations = scenario.collect(1);
    println!(
        "collected {} observations, {} distinct communities",
        observations.len(),
        observations
            .iter()
            .flat_map(|o| o.communities.iter())
            .collect::<std::collections::HashSet<_>>()
            .len()
    );

    // The method: cluster each AS's β values (min gap 140), label clusters
    // by on-path:off-path ratio (threshold 160:1), apply to communities.
    let result = run_inference(
        &observations,
        &scenario.siblings,
        &InferenceConfig::default(),
        Some(&scenario.dict),
        &Telemetry::disabled(),
    );

    let (action, info) = result.inference.intent_counts();
    println!(
        "classified {} communities: {info} information, {action} action",
        result.inference.labels.len()
    );
    if let Some(eval) = &result.evaluation {
        println!(
            "accuracy vs ground-truth dictionary: {:.1}% over {} covered communities",
            eval.accuracy() * 100.0,
            eval.total
        );
    }

    // Show a few labeled communities alongside their true purpose.
    println!("\nsample inferences:");
    let mut shown = 0;
    let mut labels: Vec<_> = result.inference.labels.iter().collect();
    labels.sort_by_key(|(c, _)| **c);
    for (community, inferred) in labels {
        let Some(purpose) = scenario.policies.purpose_of(*community) else {
            continue;
        };
        let truth = purpose.intent();
        let mark = if *inferred == truth { "ok  " } else { "MISS" };
        println!(
            "  {mark} {community:<12} inferred {inferred:<11} truly {truth:<11} ({purpose:?})"
        );
        shown += 1;
        if shown >= 10 {
            break;
        }
    }

    // The excluded population: communities the method refuses to label.
    let ixp_like = result
        .inference
        .excluded
        .values()
        .filter(|e| matches!(e, bgp_community_intent::intent::Exclusion::NeverOnPath))
        .count();
    println!(
        "\nexcluded {} communities ({} with never-on-path owners, e.g. IXP route servers)",
        result.inference.excluded.len(),
        ixp_like
    );
}
