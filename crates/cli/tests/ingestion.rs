//! Exit-code and summary behavior of the `bgpcomm` ingestion policies:
//! default lenient, `--strict`, `--max-errors`, and `--report`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use bgp_mrt::faults::{FaultConfig, FaultInjector, FaultKind};
use bgp_mrt::obs::write_update_stream;
use bgp_types::{Asn, Community, Observation};

const EXIT_DECODE: i32 = 2;
const EXIT_ABORTED: i32 = 3;

fn bgpcomm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bgpcomm"))
        .args(args)
        .output()
        .expect("spawn bgpcomm")
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bgpcomm-ingest-{name}"));
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

fn clean_archive(dir: &Path) -> PathBuf {
    let path = dir.join("updates.mrt");
    let mut buf = Vec::new();
    write_update_stream(&mut buf, Asn::new(6447), &observations(120)).unwrap();
    fs::write(&path, buf).unwrap();
    path
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

#[test]
fn stats_on_clean_input_exits_zero_without_degradation_notice() {
    let dir = workdir("clean");
    let mrt = clean_archive(&dir);
    let out = bgpcomm(&["stats", "--mrt", mrt.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("observations        : 120"), "{stdout}");
    assert!(!stdout.contains("ingest degradation"), "{stdout}");
}

#[test]
fn repeated_mrt_flags_load_every_file() {
    let dir = workdir("multi");
    let a = dir.join("a.mrt");
    let b = dir.join("b.mrt");
    let mut buf = Vec::new();
    write_update_stream(&mut buf, Asn::new(6447), &observations(80)).unwrap();
    fs::write(&a, &buf).unwrap();
    buf.clear();
    write_update_stream(&mut buf, Asn::new(6447), &observations(40)).unwrap();
    fs::write(&b, buf).unwrap();
    let out = bgpcomm(&[
        "stats",
        "--mrt",
        a.to_str().unwrap(),
        "--mrt",
        b.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("observations        : 120"), "{stdout}");
}

#[test]
fn lenient_infer_completes_on_corrupted_input_and_prints_summary() {
    let dir = workdir("lenient");
    let mrt = corrupted_archive(&dir);
    let out = bgpcomm(&["infer", "--mrt", mrt.to_str().unwrap(), "--top", "0"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(stdout.contains("ingest degradation"), "{stdout}");
    assert!(stderr.contains("records decoded"), "{stderr}");
}

#[test]
fn strict_infer_fails_fast_on_the_same_corrupted_input() {
    let dir = workdir("strict");
    let mrt = corrupted_archive(&dir);
    let out = bgpcomm(&["infer", "--strict", "--mrt", mrt.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(EXIT_DECODE), "stderr: {stderr}");
    assert!(stderr.contains("parse"), "{stderr}");
}

#[test]
fn error_budget_aborts_with_distinct_exit_code() {
    let dir = workdir("budget");
    let mrt = corrupted_archive(&dir);
    let out = bgpcomm(&["stats", "--mrt", mrt.to_str().unwrap(), "--max-errors", "0"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(EXIT_ABORTED), "stderr: {stderr}");
    assert!(stderr.contains("ingestion aborted"), "{stderr}");
}

#[test]
fn threads_flag_gives_identical_output_at_any_count() {
    let dir = workdir("threads");
    let a = dir.join("a.mrt");
    let b = dir.join("b.mrt");
    let c = corrupted_archive(&dir);
    let mut buf = Vec::new();
    write_update_stream(&mut buf, Asn::new(6447), &observations(80)).unwrap();
    fs::write(&a, &buf).unwrap();
    buf.clear();
    write_update_stream(&mut buf, Asn::new(6447), &observations(40)).unwrap();
    fs::write(&b, buf).unwrap();

    let run = |threads: &str| {
        let out = bgpcomm(&[
            "infer",
            "--mrt",
            a.to_str().unwrap(),
            "--mrt",
            b.to_str().unwrap(),
            "--mrt",
            c.to_str().unwrap(),
            "--threads",
            threads,
            "--top",
            "5",
        ]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "threads={threads}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };

    let sequential = run("1");
    assert!(sequential.contains("classified"), "{sequential}");
    for threads in ["2", "8", "0"] {
        assert_eq!(run(threads), sequential, "threads={threads}");
    }
}

#[test]
fn strict_and_max_errors_are_mutually_exclusive() {
    let out = bgpcomm(&["stats", "--mrt", "x.mrt", "--strict", "--max-errors", "3"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("mutually exclusive"), "{stderr}");
}

#[test]
fn report_flag_writes_machine_readable_ingest_report() {
    let dir = workdir("report");
    let mrt = corrupted_archive(&dir);
    let report_path = dir.join("ingest.json");
    let out = bgpcomm(&[
        "stats",
        "--mrt",
        mrt.to_str().unwrap(),
        "--report",
        report_path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0));
    let report: serde_json::Value =
        serde_json::from_str(&fs::read_to_string(&report_path).unwrap()).unwrap();
    assert!(report["records_read"].as_u64().unwrap() > 0);
    let ok = report["bytes_ok"].as_u64().unwrap();
    let skipped = report["bytes_skipped"].as_u64().unwrap();
    assert_eq!(ok + skipped, report["bytes_read"].as_u64().unwrap());
    assert!(report["errors"]["unsupported"].as_u64().is_some());
}

#[test]
fn strict_writes_its_report_before_failing() {
    let dir = workdir("strict-report");
    let mrt = corrupted_archive(&dir);
    let report_path = dir.join("strict.json");
    let out = bgpcomm(&[
        "stats",
        "--strict",
        "--mrt",
        mrt.to_str().unwrap(),
        "--report",
        report_path.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(EXIT_DECODE), "stderr: {stderr}");
    assert!(stderr.contains("records decoded"), "{stderr}");
    let report: serde_json::Value =
        serde_json::from_str(&fs::read_to_string(&report_path).unwrap()).unwrap();
    // The file stopped at its first decode error, and said so.
    assert!(report["aborted"].as_str().is_some(), "{report}");
    let ok = report["bytes_ok"].as_u64().unwrap();
    let skipped = report["bytes_skipped"].as_u64().unwrap();
    assert_eq!(ok + skipped, report["bytes_read"].as_u64().unwrap());
}
