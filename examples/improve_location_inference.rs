//! Improving location-community inference with intent labels — the §6 /
//! Table 1 workflow as a downstream user would run it.
//!
//! An isolation-based location classifier (Da Silva et al. style) mistakes
//! geo-targeted traffic-engineering communities ("prepend to X in Europe")
//! for location tags, because both correlate with geography. Filtering its
//! output with this crate's action/information labels removes those false
//! positives.
//!
//! ```text
//! cargo run --release --example improve_location_inference
//! ```

use std::collections::HashMap;

use bgp_community_intent::experiments::{Scenario, ScenarioConfig};
use bgp_community_intent::intent::{run_inference, InferenceConfig};
use bgp_community_intent::loccomm::{
    dasilva_category, improvement_table, infer_location_communities, LocCommConfig,
};
use bgp_community_intent::types::{Asn, Intent, Telemetry};

fn main() {
    let scenario = Scenario::build(&ScenarioConfig {
        scale: 0.25,
        documented: 30,
        ..ScenarioConfig::default()
    });
    let observations = scenario.collect(2);

    // The geolocation input the location classifier needs (per-AS regions,
    // which a real pipeline takes from public geolocation data).
    let as_regions: HashMap<Asn, u8> = scenario
        .topo
        .ases
        .values()
        .map(|n| (n.asn, scenario.topo.geography.region_of(n.home)))
        .collect();

    // Step 1: the baseline — each community judged in isolation.
    let locations =
        infer_location_communities(&observations, &as_regions, &LocCommConfig::default());
    println!(
        "isolation-based classifier: {} location communities inferred \
         ({} rejected, {} with too little evidence)",
        locations.locations.len(),
        locations.rejected,
        locations.insufficient
    );

    // Step 2: intent labels from this crate's method.
    let intent = run_inference(
        &observations,
        &scenario.siblings,
        &InferenceConfig::default(),
        None,
        &Telemetry::disabled(),
    );

    // Step 3: filter and tabulate (Table 1 of the paper).
    let table = improvement_table(&locations, &intent.inference, &scenario.policies);
    println!(
        "\n{:<8} {:<22} {:>7} {:>7}",
        "Class", "Type", "Before", "After"
    );
    for row in &table.rows {
        println!(
            "{:<8} {:<22} {:>7} {:>7}",
            row.class, row.category, row.before, row.after
        );
    }
    println!(
        "{:<8} {:<22} {:>7} {:>7}",
        "",
        "Total",
        table.total_before(),
        table.total_after()
    );
    println!(
        "\nprecision for 'is a location community': {:.1}% -> {:.1}%",
        table.precision_before() * 100.0,
        table.precision_after() * 100.0
    );

    // Show a couple of rescued-from-error cases: geo-targeted actions the
    // baseline believed were locations, removed by the intent filter.
    println!("\nexamples of filtered traffic-engineering false positives:");
    let mut shown = 0;
    let mut communities: Vec<_> = locations.locations.keys().copied().collect();
    communities.sort_unstable();
    for c in communities {
        let Some(purpose) = scenario.policies.purpose_of(c) else {
            continue;
        };
        if dasilva_category(purpose) == "Traffic Engineering"
            && intent.inference.label(c) == Some(Intent::Action)
        {
            println!("  {c:<12} {purpose:?}");
            shown += 1;
            if shown >= 5 {
                break;
            }
        }
    }
}
