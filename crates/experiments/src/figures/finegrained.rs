//! Extension experiment (beyond the paper): fine-grained category
//! inference, the §7 future-work direction, scored against the synthetic
//! world's true purposes.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use bgp_intent::{infer_categories, run_inference, CategoryConfig, FineCategory, InferenceConfig};
use bgp_policy::Purpose;
use bgp_relationships::{infer_relationships, InferConfig};
use bgp_types::{AsPath, Asn, Observation, Telemetry};

use crate::report::{pct, table};
use crate::scenario::Scenario;

/// The categories in display order.
pub const CATEGORIES: [FineCategory; 6] = [
    FineCategory::Prepend,
    FineCategory::Blackhole,
    FineCategory::OtherAction,
    FineCategory::Location,
    FineCategory::Relationship,
    FineCategory::OtherInfo,
];

/// The fine-grained confusion matrix and summary scores.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FineGrainedResult {
    /// `confusion[truth][inferred]`, indexed per [`CATEGORIES`].
    pub confusion: [[usize; 6]; 6],
    /// Communities with both an inferred category and ground truth.
    pub total: usize,
    /// Exact category matches.
    pub correct: usize,
    /// Per-category `(precision, recall)` in [`CATEGORIES`] order.
    pub per_category: Vec<(f64, f64)>,
}

/// The ground-truth fine category of a purpose.
pub fn true_category(purpose: &Purpose) -> FineCategory {
    match purpose {
        Purpose::PrependToAs { .. } | Purpose::PrependAll(_) => FineCategory::Prepend,
        Purpose::Blackhole | Purpose::SuppressAll => FineCategory::Blackhole,
        p if p.is_location_info() => FineCategory::Location,
        Purpose::RelationshipTag(_) => FineCategory::Relationship,
        Purpose::RovTag(_) | Purpose::IngressInterface(_) => FineCategory::OtherInfo,
        _ => FineCategory::OtherAction,
    }
}

fn index(cat: FineCategory) -> usize {
    CATEGORIES
        .iter()
        .position(|c| *c == cat)
        .expect("all categories listed")
}

/// Run coarse inference, then the fine-grained pass, and score it.
pub fn run(scenario: &Scenario, observations: &[Observation]) -> FineGrainedResult {
    let coarse = run_inference(
        observations,
        &scenario.siblings,
        &InferenceConfig::default(),
        None,
        &Telemetry::disabled(),
    );
    let paths: Vec<&AsPath> = observations.iter().map(|o| &o.path).collect();
    let relationships = infer_relationships(paths, &InferConfig::default());
    let as_regions: HashMap<Asn, u8> = scenario
        .topo
        .ases
        .values()
        .map(|n| (n.asn, scenario.topo.geography.region_of(n.home)))
        .collect();
    let categories = infer_categories(
        observations,
        &coarse.inference,
        &relationships,
        &as_regions,
        &CategoryConfig::default(),
    );

    let mut result = FineGrainedResult {
        confusion: [[0; 6]; 6],
        total: 0,
        correct: 0,
        per_category: Vec::new(),
    };
    for (c, inferred) in &categories {
        let Some(purpose) = scenario.policies.purpose_of(*c) else {
            continue;
        };
        // Only score communities whose coarse label was right — the fine
        // pass never contradicts it, so coarse errors are out of scope.
        if purpose.intent() != inferred.intent() {
            continue;
        }
        let truth = true_category(purpose);
        result.confusion[index(truth)][index(*inferred)] += 1;
        result.total += 1;
        if truth == *inferred {
            result.correct += 1;
        }
    }
    for (i, _) in CATEGORIES.iter().enumerate() {
        let tp = result.confusion[i][i];
        let inferred: usize = (0..6).map(|t| result.confusion[t][i]).sum();
        let truth: usize = result.confusion[i].iter().sum();
        let precision = if inferred == 0 {
            0.0
        } else {
            tp as f64 / inferred as f64
        };
        let recall = if truth == 0 {
            0.0
        } else {
            tp as f64 / truth as f64
        };
        result.per_category.push((precision, recall));
    }
    result
}

/// Print the confusion matrix and per-category scores.
pub fn print(r: &FineGrainedResult) {
    println!("== Extension: fine-grained category inference (§7 future work) ==");
    let headers: Vec<&str> = std::iter::once("truth \\ inferred")
        .chain(CATEGORIES.iter().map(|c| match c {
            FineCategory::Prepend => "Prepend",
            FineCategory::Blackhole => "Blackhole",
            FineCategory::OtherAction => "OtherAct",
            FineCategory::Location => "Location",
            FineCategory::Relationship => "Relation",
            FineCategory::OtherInfo => "OtherInfo",
        }))
        .collect();
    let rows: Vec<Vec<String>> = CATEGORIES
        .iter()
        .enumerate()
        .map(|(t, cat)| {
            std::iter::once(format!("{cat:?}"))
                .chain((0..6).map(|i| r.confusion[t][i].to_string()))
                .collect()
        })
        .collect();
    print!("{}", table(&headers, &rows));
    println!(
        "exact-category accuracy: {} over {} communities (coarse label correct)",
        pct(r.correct as f64 / r.total.max(1) as f64),
        r.total
    );
    for (i, cat) in CATEGORIES.iter().enumerate() {
        let (p, rec) = r.per_category[i];
        println!("  {cat:>12?}: precision {} recall {}", pct(p), pct(rec));
    }
    println!("[extension beyond the paper: no published numbers to compare against]");
}
