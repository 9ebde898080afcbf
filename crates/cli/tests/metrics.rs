//! Golden behavior of `--metrics-out`: the deterministic sections of the
//! snapshot (counters, gauges, histograms) are byte-identical at any
//! `--threads` count, the required pipeline sections are always present,
//! injected-fault accounting matches `--report` exactly, and the file is
//! written even when ingestion aborts.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use bgp_mrt::faults::{FaultConfig, FaultInjector, FaultKind};
use bgp_mrt::obs::write_update_stream;
use bgp_types::{Asn, Community, Observation};

const EXIT_ABORTED: i32 = 3;

fn bgpcomm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bgpcomm"))
        .args(args)
        .output()
        .expect("spawn bgpcomm")
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bgpcomm-metrics-{name}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn observations(n: u32) -> Vec<Observation> {
    (0..n)
        .map(|i| Observation {
            vp: Asn::new(64500 + (i % 4)),
            prefix: format!("10.{}.{}.0/24", i / 250, i % 250).parse().unwrap(),
            path: format!("{} 1299 {}", 64500 + (i % 4), 64496 + (i % 8))
                .parse()
                .unwrap(),
            communities: vec![Community::new(1299, 2000 + (i % 7) as u16)],
            large_communities: Vec::new(),
            time: 1_000_000 + i,
        })
        .collect()
}

fn archives(dir: &Path) -> Vec<PathBuf> {
    // Three files so multi-threaded ingestion actually shards.
    [200u32, 120, 80]
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let path = dir.join(format!("updates.{i}.mrt"));
            let mut buf = Vec::new();
            write_update_stream(&mut buf, Asn::new(6447), &observations(n)).unwrap();
            fs::write(&path, buf).unwrap();
            path
        })
        .collect()
}

fn corrupted_archive(dir: &Path) -> PathBuf {
    let path = dir.join("updates.corrupt.mrt");
    let mut buf = Vec::new();
    write_update_stream(&mut buf, Asn::new(6447), &observations(120)).unwrap();
    let inj = FaultInjector::new(FaultConfig {
        seed: 7,
        rate: 0.1,
        kinds: vec![FaultKind::UnknownType, FaultKind::BodyBitFlip],
    });
    let (damaged, log) = inj.corrupt(&buf);
    assert!(log.count() > 0, "corruption must actually land");
    fs::write(&path, damaged).unwrap();
    path
}

/// Load a metrics file and re-serialize its deterministic sections with
/// the `timings` object emptied — wall-clock totals legitimately differ
/// between runs; everything else must not.
fn deterministic_json(path: &Path) -> String {
    let raw = fs::read_to_string(path).unwrap();
    let mut value: serde_json::Value = serde_json::from_str(&raw).unwrap();
    let serde_json::Value::Object(ref mut obj) = value else {
        panic!("metrics snapshot must be a JSON object");
    };
    for section in ["counters", "gauges", "histograms", "timings"] {
        assert!(obj.contains_key(section), "missing section {section}");
    }
    obj.insert(
        "timings".to_string(),
        serde_json::Value::Object(serde_json::Map::new()),
    );
    serde_json::to_string_pretty(&value).unwrap()
}

#[test]
fn metrics_snapshot_is_byte_stable_across_thread_counts() {
    let dir = workdir("golden");
    let files = archives(&dir);
    let run = |threads: &str| {
        let out_path = dir.join(format!("metrics-t{threads}.json"));
        let out = bgpcomm(&[
            "infer",
            "--mrt",
            files[0].to_str().unwrap(),
            "--mrt",
            files[1].to_str().unwrap(),
            "--mrt",
            files[2].to_str().unwrap(),
            "--threads",
            threads,
            "--top",
            "0",
            "--metrics-out",
            out_path.to_str().unwrap(),
        ]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "threads={threads}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        deterministic_json(&out_path)
    };

    let golden = run("1");
    for threads in ["2", "8"] {
        assert_eq!(
            run(threads),
            golden,
            "deterministic metrics must be byte-identical at --threads {threads}"
        );
    }
}

#[test]
fn metrics_cover_every_pipeline_stage() {
    let dir = workdir("sections");
    let files = archives(&dir);
    let out_path = dir.join("metrics.json");
    let out = bgpcomm(&[
        "infer",
        "--mrt",
        files[0].to_str().unwrap(),
        "--top",
        "0",
        "--metrics-out",
        out_path.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let metrics: serde_json::Value =
        serde_json::from_str(&fs::read_to_string(&out_path).unwrap()).unwrap();
    let counters = metrics["counters"].as_object().unwrap();
    for key in [
        "ingest/files",
        "ingest/records_read",
        "ingest/bytes_read",
        "ingest/retries",
        "stats/communities",
        "stats/unique_paths",
        "classify/clusters",
        "classify/labeled_action",
        "classify/labeled_information",
    ] {
        assert!(counters.contains_key(key), "missing counter {key}");
    }
    assert!(counters["ingest/records_read"].as_u64().unwrap() > 0);
    let gauges = metrics["gauges"].as_object().unwrap();
    for key in ["store/observations", "store/unique_paths", "ingest/aborted"] {
        assert!(gauges.contains_key(key), "missing gauge {key}");
    }
    let ratio = &metrics["histograms"]["classify/cluster_ratio"];
    assert!(ratio["count"].as_u64().unwrap() > 0, "{ratio}");
    let timings = metrics["timings"].as_object().unwrap();
    for key in ["time/ingest_ns", "time/stats_ns", "time/classify_ns"] {
        assert!(timings.contains_key(key), "missing timing {key}");
    }
}

/// The deterministic sections of a metrics file, without `checkpoint/*`.
fn without_checkpoint_keys(path: &Path) -> Vec<serde_json::Map> {
    let value: serde_json::Value =
        serde_json::from_str(&fs::read_to_string(path).unwrap()).unwrap();
    ["counters", "gauges", "histograms"]
        .iter()
        .map(|section| {
            let mut map = value[*section].as_object().unwrap().clone();
            map.retain(|k, _| !k.starts_with("checkpoint/"));
            map
        })
        .collect()
}

#[test]
fn checkpointed_runs_write_the_metrics_a_plain_run_writes() {
    let dir = workdir("checkpointed");
    let files = archives(&dir);
    let infer = |tag: &str, extra: &[&str], code: i32| {
        let metrics = dir.join(format!("{tag}.json"));
        let mut args = vec!["infer", "--top", "0", "--threads", "2"];
        for file in &files {
            args.extend(["--mrt", file.to_str().unwrap()]);
        }
        args.extend(["--metrics-out", metrics.to_str().unwrap()]);
        args.extend(extra);
        let out = bgpcomm(&args);
        assert_eq!(
            out.status.code(),
            Some(code),
            "{tag}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        metrics
    };
    let timed = |path: &Path| {
        let metrics: serde_json::Value =
            serde_json::from_str(&fs::read_to_string(path).unwrap()).unwrap();
        for key in ["time/ingest_ns", "time/stats_ns"] {
            assert!(metrics["timings"].get(key).is_some(), "{path:?}: {key}");
        }
        metrics
    };
    let plain = infer("plain", &[], 0);
    let fresh_ckpt = dir.join("fresh.ckpt");
    let fresh = infer("fresh", &["--checkpoint", fresh_ckpt.to_str().unwrap()], 0);
    assert_eq!(
        without_checkpoint_keys(&fresh),
        without_checkpoint_keys(&plain)
    );
    let plain = timed(&plain);
    timed(&fresh);

    // Crash after the first file, then resume: every key is written, the
    // ingest accounting covers the earlier run's file too, and
    // `store/observations` counts what this run folded (120 + 80).
    let ckpt = dir.join("resumed.ckpt");
    let ckpt = ckpt.to_str().unwrap();
    infer(
        "crashed",
        &["--checkpoint", ckpt, "--inject-crash-after", "1"],
        9,
    );
    let resumed = timed(&infer("resumed", &["--checkpoint", ckpt, "--resume"], 0));
    // Nothing left to read: still every key, and no observations folded.
    let again = timed(&infer("again", &["--checkpoint", ckpt, "--resume"], 0));
    for (metrics, folded) in [(&resumed, 200), (&again, 0)] {
        for section in ["counters", "gauges", "histograms"] {
            for (key, value) in plain[section].as_object().unwrap() {
                let got = metrics[section].get(key);
                assert!(got.is_some(), "missing {section} {key}");
                if key.starts_with("ingest/") || section != "gauges" {
                    assert_eq!(got, Some(value), "{section} {key}");
                }
            }
        }
        assert_eq!(
            metrics["gauges"]["store/observations"].as_i64(),
            Some(folded)
        );
    }
}

#[test]
fn injected_fault_accounting_matches_the_ingest_report_exactly() {
    let dir = workdir("flaky");
    let files = archives(&dir);
    let metrics_path = dir.join("metrics.json");
    let report_path = dir.join("report.json");
    let out = bgpcomm(&[
        "stats",
        "--mrt",
        files[0].to_str().unwrap(),
        "--mrt",
        files[1].to_str().unwrap(),
        "--inject-flaky",
        "99",
        "--retry-attempts",
        "64",
        "--metrics-out",
        metrics_path.to_str().unwrap(),
        "--report",
        report_path.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let metrics: serde_json::Value =
        serde_json::from_str(&fs::read_to_string(&metrics_path).unwrap()).unwrap();
    let report: serde_json::Value =
        serde_json::from_str(&fs::read_to_string(&report_path).unwrap()).unwrap();
    let counters = &metrics["counters"];
    assert!(
        counters["ingest/retries"].as_u64().unwrap() > 0,
        "flaky reader must force retries: {counters}"
    );
    for (counter, field) in [
        ("ingest/retries", "retries"),
        ("ingest/records_read", "records_read"),
        ("ingest/bytes_ok", "bytes_ok"),
        ("ingest/bytes_read", "bytes_read"),
        ("ingest/resync_events", "resync_events"),
    ] {
        assert_eq!(
            counters[counter].as_u64(),
            report[field].as_u64(),
            "{counter} must equal report.{field}"
        );
    }
    assert_eq!(
        counters["ingest/errors/io"].as_u64(),
        report["errors"]["io"].as_u64()
    );
}

#[test]
fn metrics_written_even_when_ingestion_aborts() {
    let dir = workdir("abort");
    let mrt = corrupted_archive(&dir);
    let metrics_path = dir.join("metrics.json");
    let out = bgpcomm(&[
        "infer",
        "--mrt",
        mrt.to_str().unwrap(),
        "--max-errors",
        "0",
        "--metrics-out",
        metrics_path.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(EXIT_ABORTED),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let metrics: serde_json::Value =
        serde_json::from_str(&fs::read_to_string(&metrics_path).unwrap()).unwrap();
    assert_eq!(
        metrics["gauges"]["ingest/aborted"].as_i64(),
        Some(1),
        "aborted gauge must be set: {metrics}"
    );
}

#[test]
fn trace_json_emits_one_valid_object_per_line() {
    let dir = workdir("trace");
    let files = archives(&dir);
    let trace_path = dir.join("trace.jsonl");
    let out = bgpcomm(&[
        "infer",
        "--mrt",
        files[0].to_str().unwrap(),
        "--top",
        "0",
        "--trace-json",
        trace_path.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let raw = fs::read_to_string(&trace_path).unwrap();
    let mut names = Vec::new();
    for line in raw.lines() {
        let span: serde_json::Value = serde_json::from_str(line).expect("valid JSON per line");
        names.push(span["span"].as_str().unwrap().to_string());
    }
    for expected in ["ingest/file", "ingest", "stats", "classify", "pipeline"] {
        assert!(
            names.iter().any(|n| n == expected),
            "span {expected} missing from {names:?}"
        );
    }
}
