//! Anomaly detection with inferred intent labels — use case (3) from the
//! paper's introduction: "whether a route is anomalous (e.g., sudden
//! absence of information communities)".
//!
//! This is now a thin wrapper over the serving layer the CLI exposes as
//! `bgpcomm infer --artifact-out` + `bgpcomm query --check`:
//!
//! 1. learn intent labels from a day of observations,
//! 2. freeze them into the versioned, checksummed, mmap-servable label
//!    artifact ([`artifact::LabelArtifact`]),
//! 3. run the contradiction checker ([`intent::check_store`]) over the
//!    training data itself — self-consistent by construction, so zero
//!    anomalies — and then over a tampered feed where a route carries a
//!    never-off-path *information* community off-path and a never-on-path
//!    *action* community on-path,
//! 4. print exactly the injected contradictions.
//!
//! ```text
//! cargo run --release --example anomaly_detection
//! ```

use bgp_community_intent::artifact::LabelArtifact;
use bgp_community_intent::experiments::{Scenario, ScenarioConfig};
use bgp_community_intent::intent::{
    check_store, run_inference, write_inference_artifact, InferenceConfig,
};
use bgp_community_intent::types::store::ObservationStore;
use bgp_community_intent::types::{Intent, Observation, Telemetry};

fn main() {
    let scenario = Scenario::build(&ScenarioConfig {
        scale: 0.25,
        documented: 30,
        ..ScenarioConfig::default()
    });

    // --- Learn what normal looks like, then freeze it into an artifact. ---
    let day0 = scenario.collect(1);
    let cfg = InferenceConfig::default();
    let result = run_inference(
        &day0,
        &scenario.siblings,
        &cfg,
        None,
        &Telemetry::disabled(),
    );

    let dir = std::env::temp_dir().join("bgp-anomaly-example");
    std::fs::create_dir_all(&dir).expect("create artifact dir");
    let path = dir.join("labels.bga");
    let written = write_inference_artifact(&path, &result.inference, cfg.ratio_threshold)
        .expect("write label artifact");
    let artifact = LabelArtifact::load(&path).expect("load label artifact");
    println!(
        "froze {written} labels across {} owners into {} ({})",
        artifact.owner_count(),
        path.display(),
        if artifact.is_mmapped() {
            "mmap"
        } else {
            "heap"
        },
    );

    // --- The training data itself must check clean. ---
    let store = ObservationStore::from_observations(&day0);
    let clean = check_store(&artifact, &store, &scenario.siblings);
    println!(
        "training feed : {} observations, {} pairs checked, {} anomalies",
        clean.observations,
        clean.checked,
        clean.anomalies.len(),
    );
    assert!(
        clean.anomalies.is_empty(),
        "training data contradicted its own labels"
    );

    // --- Tamper with the feed: move unanimous communities to the wrong
    // side of their owner's path. A never-off-path information community
    // appearing off-path is the "sudden absence" signal inverted — the
    // community outlived the relationship that justified it — and a
    // never-on-path action community appearing on-path means someone is
    // replaying traffic-engineering signals into the wrong adjacency. ---
    let info = artifact
        .rows()
        .find(|r| r.label == Intent::Information && r.off_paths == 0)
        .expect("scenario yields a unanimous information community");
    let forged = |path: String, community| Observation {
        vp: path.split_whitespace().next().unwrap().parse().unwrap(),
        prefix: "203.0.113.0/24".parse().unwrap(),
        path: path.parse().unwrap(),
        communities: vec![community],
        large_communities: Vec::new(),
        time: 2_000_000,
    };
    // The owner is absent from the path, so the information community has
    // no business being attached.
    let mut tampered = vec![forged("65000 64499".into(), info.community)];
    // The richer scenario may not produce a *unanimous* action community
    // (most are occasionally seen on-path, and the checker deliberately
    // only enforces unanimous evidence); inject the on-path replay only
    // when one exists.
    if let Some(action) = artifact
        .rows()
        .find(|r| r.label == Intent::Action && r.on_paths == 0)
    {
        // The owner is *on* the path, where its action community was
        // never once observed during training.
        tampered.push(forged(
            format!("65000 {} 64499", action.community.asn),
            action.community,
        ));
    }
    let tampered_store = ObservationStore::from_observations(&tampered);
    let report = check_store(&artifact, &tampered_store, &scenario.siblings);
    println!(
        "tampered feed : {} observations, {} pairs checked, {} anomalies",
        report.observations,
        report.checked,
        report.anomalies.len(),
    );
    for a in &report.anomalies {
        println!(
            "  anomaly {} {} vp={} prefix={} obs={}",
            a.kind, a.community, a.vp, a.prefix, a.index
        );
    }
    assert_eq!(
        report.anomalies.len(),
        tampered.len(),
        "exactly the injected contradictions must be flagged"
    );
}
