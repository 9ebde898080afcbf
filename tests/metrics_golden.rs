//! Library-level golden-metrics determinism: the deterministic sections
//! of the metrics snapshot (counters, gauges, histograms) must be
//! byte-identical regardless of worker-thread count, because every value
//! in them is a pure function of the input — sharded ingestion, the
//! sharded stats kernel, and per-thread histogram shards all merge to
//! the same totals the sequential run produces.

use std::fs;
use std::path::PathBuf;

use bgp_experiments::{Scenario, ScenarioConfig};
use bgp_intent::{run_inference, InferenceConfig};
use bgp_mrt::obs::{read_files, write_rib_dump, write_update_stream};
use bgp_mrt::IngestOptions;
use bgp_types::obs::Telemetry;
use bgp_types::store::ObservationStore;
use bgp_types::Asn;

/// Write the scenario's dataset as on-disk MRT archives (one RIB file,
/// two churn days) so the parallel file reader has real sharding to do.
fn archives(scenario: &Scenario) -> Vec<PathBuf> {
    let dir = std::env::temp_dir().join("bgp-metrics-golden");
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let sim = scenario.simulator();
    let mut paths = Vec::new();

    let mut buf = Vec::new();
    let rib = sim.collect_rib(&scenario.vps);
    write_rib_dump(&mut buf, scenario.sim_cfg.base_timestamp, &rib).unwrap();
    let rib_path = dir.join("rib.mrt");
    fs::write(&rib_path, &buf).unwrap();
    paths.push(rib_path);

    for day in 1..3u32 {
        buf.clear();
        let updates = sim.collect_churn_day(&scenario.vps, day);
        write_update_stream(&mut buf, Asn::new(6447), &updates).unwrap();
        let path = dir.join(format!("updates.day{day}.mrt"));
        fs::write(&path, &buf).unwrap();
        paths.push(path);
    }
    paths
}

#[test]
fn deterministic_metrics_are_byte_identical_across_thread_counts() {
    let scenario = Scenario::build(&ScenarioConfig {
        scale: 0.08,
        documented: 10,
        ..ScenarioConfig::default()
    });
    let paths = archives(&scenario);

    let run = |threads: usize| {
        let tel = Telemetry::with_metrics();
        let opts = IngestOptions {
            threads,
            ..IngestOptions::default()
        };
        let (files, _report) = read_files::<ObservationStore>(&paths, &opts, &tel);
        let mut store = ObservationStore::new();
        for file in files {
            store.merge(&file.store);
        }
        let result = run_inference(
            &store,
            &scenario.siblings,
            &InferenceConfig {
                threads,
                ..InferenceConfig::default()
            },
            Some(&scenario.dict),
            &tel,
        );
        let snapshot = result.metrics.expect("telemetry run records a snapshot");
        serde_json::to_string_pretty(&snapshot.deterministic()).unwrap()
    };

    let golden = run(1);
    assert!(golden.contains("ingest/records_read"), "{golden}");
    // The readahead/view-decode counters are pure functions of the input
    // too: blocks are completely filled (count = ceil(bytes / block size)
    // per file) and the scratch high-water mark is determined by the
    // largest record, so both must hold byte-identical across threads.
    assert!(golden.contains("ingest/readahead_blocks"), "{golden}");
    assert!(golden.contains("ingest/arena_bytes"), "{golden}");
    assert!(golden.contains("classify/cluster_ratio"), "{golden}");
    for threads in [2, 8] {
        assert_eq!(
            run(threads),
            golden,
            "metrics diverged at {threads} threads"
        );
    }
}
