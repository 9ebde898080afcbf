//! §6 "Benefits of additional days of input BGP data": accuracy as days
//! accumulate. Paper: stabilizes between 96.4% and 96.6% with ≥2 days.

use serde::{Deserialize, Serialize};

use bgp_intent::{run_inference, InferenceConfig};
use bgp_types::{Observation, Telemetry};

use crate::report::{pct, table};
use crate::scenario::Scenario;

/// One cumulative-days row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DayPoint {
    /// Days of data included (1 = RIB snapshot only).
    pub days: u32,
    /// Observations in the cumulative dataset.
    pub observations: usize,
    /// Unique tuples.
    pub tuples: usize,
    /// Communities observed.
    pub communities: usize,
    /// Communities classified.
    pub classified: usize,
    /// Accuracy vs ground truth.
    pub accuracy: f64,
}

/// Days-sweep outputs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DaysResult {
    /// One row per cumulative day count.
    pub points: Vec<DayPoint>,
}

/// Run the sweep over a 7-day collection (or fewer via `max_days`).
///
/// `observations` must come from [`Scenario::collect`] with `max_days`
/// days: day boundaries are recovered from timestamps.
pub fn run(scenario: &Scenario, observations: &[Observation], max_days: u32) -> DaysResult {
    let base = scenario.sim_cfg.base_timestamp;
    let mut points = Vec::new();
    for days in 1..=max_days {
        let cutoff = base + (days - 1) * 86_400 + 1;
        let subset: Vec<Observation> = observations
            .iter()
            .filter(|o| o.time < cutoff)
            .cloned()
            .collect();
        let res = run_inference(
            &subset,
            &scenario.siblings,
            &InferenceConfig::default(),
            Some(&scenario.dict),
            &Telemetry::disabled(),
        );
        points.push(DayPoint {
            days,
            observations: subset.len(),
            tuples: res.stats.unique_tuples,
            communities: res.stats.community_count(),
            classified: res.inference.labels.len(),
            accuracy: res.evaluation.expect("dict").accuracy(),
        });
    }
    DaysResult { points }
}

/// Print the sweep.
pub fn print(r: &DaysResult) {
    println!("== §6: accuracy vs days of input data ==");
    let rows: Vec<Vec<String>> = r
        .points
        .iter()
        .map(|p| {
            vec![
                p.days.to_string(),
                p.observations.to_string(),
                p.tuples.to_string(),
                p.communities.to_string(),
                p.classified.to_string(),
                pct(p.accuracy),
            ]
        })
        .collect();
    print!(
        "{}",
        table(
            &[
                "days",
                "observations",
                "tuples",
                "communities",
                "classified",
                "accuracy"
            ],
            &rows
        )
    );
    println!("[paper: stabilizes at 96.4-96.6% with two or more days]");
}
