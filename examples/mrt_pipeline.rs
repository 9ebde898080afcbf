//! File-based MRT pipeline: the workflow a user with real RouteViews/RIS
//! archives would adapt.
//!
//! 1. Simulate a collector and write its RIB snapshot + two days of updates
//!    to MRT files on disk (stand-ins for `rib.20230501.0000.bz2` and
//!    `updates.*` archives).
//! 2. Re-open the files, parse every record, and extract the
//!    (AS path, communities) tuples.
//! 3. Run the inference and write the resulting labels as JSON — the same
//!    release format as the paper's public data supplement.
//!
//! ```text
//! cargo run --release --example mrt_pipeline
//! ```

use std::fs::File;
use std::io::{BufReader, BufWriter};

use bgp_community_intent::experiments::{Scenario, ScenarioConfig};
use bgp_community_intent::intent::{run_inference, InferenceConfig};
use bgp_community_intent::mrt::obs::{read_observations, write_rib_dump, write_update_stream};
use bgp_community_intent::types::{Asn, Observation, Telemetry};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join("bgp-community-intent-example");
    std::fs::create_dir_all(&dir)?;

    // --- 1. Produce the archives. ---
    let scenario = Scenario::build(&ScenarioConfig {
        scale: 0.25,
        documented: 30,
        ..ScenarioConfig::default()
    });
    let sim = scenario.simulator();

    let rib_path = dir.join("rib.20230501.0000.mrt");
    let rib = sim.collect_rib(&scenario.vps);
    let records = write_rib_dump(
        BufWriter::new(File::create(&rib_path)?),
        scenario.sim_cfg.base_timestamp,
        &rib,
    )?;
    println!("wrote {} MRT records to {}", records, rib_path.display());

    let mut update_paths = Vec::new();
    for day in 1..=2u32 {
        let path = dir.join(format!("updates.2023050{}.mrt", day + 1));
        let updates = sim.collect_churn_day(&scenario.vps, day);
        let n = write_update_stream(
            BufWriter::new(File::create(&path)?),
            Asn::new(6447),
            &updates,
        )?;
        println!("wrote {} update records to {}", n, path.display());
        update_paths.push(path);
    }

    // --- 2. Parse them back: the analysis side of the pipeline. ---
    let mut observations: Vec<Observation> = Vec::new();
    observations.extend(read_observations(BufReader::new(File::open(&rib_path)?))?);
    for path in &update_paths {
        observations.extend(read_observations(BufReader::new(File::open(path)?))?);
    }
    println!("parsed {} observations back from disk", observations.len());

    // --- 3. Infer and release. ---
    let result = run_inference(
        &observations,
        &scenario.siblings,
        &InferenceConfig::default(),
        Some(&scenario.dict),
        &Telemetry::disabled(),
    );
    let (action, info) = result.inference.intent_counts();
    println!("inferred {info} information + {action} action communities");
    if let Some(eval) = &result.evaluation {
        println!("accuracy vs dictionary: {:.1}%", eval.accuracy() * 100.0);
    }

    // Labels as a JSON data supplement, one {community, intent} per entry.
    let labels_path = dir.join("inferences.json");
    let mut labels: Vec<_> = result
        .inference
        .labels
        .iter()
        .map(|(c, i)| serde_json::json!({ "community": c.to_string(), "intent": i }))
        .collect();
    labels.sort_by_key(|v| v["community"].as_str().unwrap().to_string());
    serde_json::to_writer_pretty(BufWriter::new(File::create(&labels_path)?), &labels)?;
    println!(
        "released {} labels to {}",
        labels.len(),
        labels_path.display()
    );

    // The dictionary itself is releasable the same way.
    let dict_path = dir.join("dictionary.json");
    scenario
        .dict
        .to_json(BufWriter::new(File::create(&dict_path)?))?;
    println!(
        "released ground-truth dictionary to {}",
        dict_path.display()
    );
    Ok(())
}
