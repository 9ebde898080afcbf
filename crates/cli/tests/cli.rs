//! End-to-end tests of the `bgpcomm` binary: generate → stats → infer.

use std::path::PathBuf;
use std::process::Command;

fn bgpcomm() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bgpcomm"))
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bgpcomm-test-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(cmd: &mut Command) -> (String, String, bool) {
    let out = cmd.output().expect("spawn bgpcomm");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn full_cli_workflow() {
    let dir = workdir("workflow");
    let out = dir.to_str().unwrap().to_string();

    // generate
    let (stdout, stderr, ok) = run(bgpcomm().args([
        "generate", "--out", &out, "--scale", "0.1", "--days", "2", "--docs", "10",
    ]));
    assert!(ok, "generate failed: {stderr}");
    assert!(stdout.contains("rib.mrt"), "{stdout}");
    for file in [
        "rib.mrt",
        "updates.day1.mrt",
        "dictionary.json",
        "siblings.json",
        "truth.json",
    ] {
        assert!(dir.join(file).exists(), "{file} missing");
    }

    // stats
    let mrt = format!("{out}/rib.mrt,{out}/updates.day1.mrt");
    let (stdout, stderr, ok) = run(bgpcomm().args(["stats", "--mrt", &mrt]));
    assert!(ok, "stats failed: {stderr}");
    assert!(stdout.contains("unique AS paths"), "{stdout}");
    assert!(stdout.contains("distinct communities"), "{stdout}");

    // infer with evaluation and JSON output
    let labels = dir.join("labels.json");
    let (stdout, stderr, ok) = run(bgpcomm().args([
        "infer",
        "--mrt",
        &mrt,
        "--dict",
        &format!("{out}/dictionary.json"),
        "--siblings",
        &format!("{out}/siblings.json"),
        "--json",
        labels.to_str().unwrap(),
        "--top",
        "3",
    ]));
    assert!(ok, "infer failed: {stderr}");
    assert!(stdout.contains("classified"), "{stdout}");
    assert!(stdout.contains("dictionary evaluation"), "{stdout}");

    // The JSON release parses and has the expected shape.
    let parsed: serde_json::Value =
        serde_json::from_slice(&std::fs::read(&labels).unwrap()).unwrap();
    let array = parsed.as_array().expect("label array");
    assert!(!array.is_empty());
    for entry in array.iter().take(5) {
        assert!(entry["community"].as_str().unwrap().contains(':'));
        let intent = entry["intent"].as_str().unwrap();
        assert!(intent == "action" || intent == "information");
    }
}

#[test]
fn validate_reports_counts_and_errors() {
    let dir = workdir("validate");
    let out = dir.to_str().unwrap().to_string();
    let (_, stderr, ok) = run(bgpcomm().args([
        "generate", "--out", &out, "--scale", "0.1", "--days", "1", "--docs", "5",
    ]));
    assert!(ok, "generate failed: {stderr}");

    let rib = format!("{out}/rib.mrt");
    let (stdout, _, ok) = run(bgpcomm().args(["validate", "--mrt", &rib]));
    assert!(ok);
    assert!(stdout.contains("PEER_INDEX_TABLE"), "{stdout}");
    assert!(stdout.contains("skipped 0"), "{stdout}");

    // Append an undecodable record: validate reports it and exits nonzero.
    let mut bytes = std::fs::read(&rib).unwrap();
    bytes.extend_from_slice(&1u32.to_be_bytes());
    bytes.extend_from_slice(&99u16.to_be_bytes());
    bytes.extend_from_slice(&0u16.to_be_bytes());
    bytes.extend_from_slice(&3u32.to_be_bytes());
    bytes.extend_from_slice(&[1, 2, 3]);
    let bad = dir.join("bad.mrt");
    std::fs::write(&bad, bytes).unwrap();
    let (stdout, _, ok) = run(bgpcomm().args(["validate", "--mrt", bad.to_str().unwrap()]));
    assert!(!ok, "validate should fail on undecodable records");
    assert!(stdout.contains("skipped 1"), "{stdout}");
}

/// The pretty-printed report that `--report -` writes to standard output
/// before the stats table.
fn stdout_report(stdout: &str) -> serde_json::Value {
    let end = stdout.find("\n}\n").expect("a report on stdout") + 2;
    serde_json::from_str(&stdout[..end]).unwrap()
}

/// `validate` frames and decodes as ingest does: on damaged copies of the
/// sample dump it counts the records `stats --report -` decoded and
/// skipped, and fails exactly as that report is not clean.
#[test]
fn validate_agrees_with_ingest_on_damaged_input() {
    let dir = workdir("validate-ingest");
    let rib = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../data/sample/rib.mrt"
    ))
    .unwrap();
    // Frame the clean dump by its headers' length fields.
    let mut ends = Vec::new();
    while ends.last().copied().unwrap_or(0) < rib.len() {
        let at = ends.last().copied().unwrap_or(0);
        let len = u32::from_be_bytes(rib[at + 8..at + 12].try_into().unwrap()) as usize;
        ends.push(at + 12 + len);
    }
    assert_eq!(ends.len(), 160);
    // Drop the last 5 bytes of record 81: its length field now reaches
    // into record 82, so the framing must resync to read on.
    let cut = [&rib[..ends[80] - 5], &rib[ends[80]..]].concat();
    // Drop the peer index table: every RIB entry's peer index is then out
    // of range, an error ingest counts while the records still decode.
    let orphaned = rib[ends[0]..].to_vec();

    for (name, bytes) in [("cut", cut), ("orphaned", orphaned)] {
        let path = dir.join(format!("{name}.mrt"));
        std::fs::write(&path, bytes).unwrap();
        let path = path.to_str().unwrap();
        let (stdout, _, ok) = run(bgpcomm().args(["validate", "--mrt", path]));
        let counts: Vec<u64> = stdout
            .split_once("decoded ")
            .and_then(|(_, rest)| rest.lines().next())
            .map(|line| {
                line.split(|c: char| !c.is_ascii_digit())
                    .filter_map(|n| n.parse().ok())
                    .collect()
            })
            .unwrap_or_else(|| panic!("{name}: no decoded count: {stdout}"));

        let (stats, stderr, stats_ok) =
            run(bgpcomm().args(["stats", "--mrt", path, "--report", "-"]));
        assert!(stats_ok, "{name}: lenient stats completes: {stderr}");
        let report = stdout_report(&stats);
        let ingest =
            [&report["records_read"], &report["records_skipped"]].map(|n| n.as_u64().unwrap());
        assert_eq!(counts, ingest, "{name}: {stdout}");
        assert_eq!(counts[0], 159, "{name}: {stdout}");
        let errors: u64 = report["errors"]
            .as_object()
            .unwrap()
            .values()
            .map(|n| n.as_u64().unwrap())
            .sum();
        assert!(errors > 0, "{name}: ingest counted no error: {report}");
        assert!(
            !ok,
            "{name}: validate must fail on what ingest counts as errors: {stdout}"
        );
        assert!(
            stdout.contains("bytes used"),
            "{name}: the ingest summary: {stdout}"
        );
    }
}

#[test]
fn compare_detects_flips_and_churn() {
    let dir = workdir("compare");
    let old = dir.join("old.json");
    let new = dir.join("new.json");
    std::fs::write(
        &old,
        serde_json::json!([
            {"community": "1299:2569", "intent": "action"},
            {"community": "1299:35130", "intent": "information"},
            {"community": "3356:100", "intent": "information"},
        ])
        .to_string(),
    )
    .unwrap();
    std::fs::write(
        &new,
        serde_json::json!([
            {"community": "1299:2569", "intent": "action"},
            {"community": "1299:35130", "intent": "action"},
            {"community": "174:7", "intent": "information"},
        ])
        .to_string(),
    )
    .unwrap();
    let (stdout, _, ok) = run(bgpcomm().args([
        "compare",
        "--old",
        old.to_str().unwrap(),
        "--new",
        new.to_str().unwrap(),
    ]));
    assert!(!ok, "flips must fail the exit code");
    assert!(stdout.contains("appeared       : 1"), "{stdout}");
    assert!(stdout.contains("disappeared    : 1"), "{stdout}");
    assert!(stdout.contains("intent flips   : 1"), "{stdout}");
    assert!(stdout.contains("1299:35130"), "{stdout}");

    // Identical files: success.
    let (stdout, _, ok) = run(bgpcomm().args([
        "compare",
        "--old",
        old.to_str().unwrap(),
        "--new",
        old.to_str().unwrap(),
    ]));
    assert!(ok, "{stdout}");
    assert!(stdout.contains("intent flips   : 0"));
}

#[test]
fn help_and_errors() {
    let (_, stderr, ok) = run(bgpcomm().arg("--help"));
    assert!(ok);
    assert!(stderr.contains("USAGE"));

    let (_, stderr, ok) = run(bgpcomm().arg("frobnicate"));
    assert!(!ok);
    assert!(stderr.contains("unknown command"));

    let (_, stderr, ok) = run(bgpcomm().arg("infer"));
    assert!(!ok);
    assert!(stderr.contains("--mrt"));

    let (_, stderr, ok) = run(bgpcomm().args(["stats", "--mrt", "/nonexistent.mrt"]));
    assert!(!ok);
    assert!(stderr.contains("open"));
}

/// Every subcommand refuses a flag it does not declare — a typo'd value
/// flag and a typo'd switch — with exit 1 and the flag's name, before any
/// other check (none of these runs has its required flags).
#[test]
fn every_subcommand_refuses_a_typod_flag_by_name() {
    let cases = [
        ("stats", "--max-error", "--strikt"),
        ("infer", "--chekpoint", "--resum"),
        ("shard", "--shard-dirr", "--strikt"),
        ("shard-worker", "--heartbeet", "--strict"),
        ("watch", "--inject-flaky", "--resume"),
        ("query", "--artefact", "--no-map"),
        ("feed", "--lisen", "--stream"),
        ("validate", "--report", "--strict"),
        ("compare", "--olde", "--quick"),
        ("generate", "--outt", "--streem"),
    ];
    for (command, value_flag, switch) in cases {
        for typo in [&[value_flag, "x"][..], &[switch][..]] {
            let out = bgpcomm().arg(command).args(typo).output().unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{command} {typo:?}: {stderr}");
            assert!(
                stderr.contains(&format!("unknown flag {}", typo[0])),
                "{command} {typo:?}: {stderr}"
            );
        }
    }
}

/// A value flag with no value, at the end or followed by another flag, is
/// refused by name instead of being read as a switch and dropped.
#[test]
fn a_value_flag_without_its_value_is_refused() {
    for args in [
        &[
            "stats",
            "--mrt",
            "/nonexistent.mrt",
            "--max-errors",
            "--report",
            "-",
        ][..],
        &["infer", "--mrt", "/nonexistent.mrt", "--json"][..],
        &["watch", "--tail", "/nonexistent.mrt", "--checkpoint"][..],
    ] {
        let out = bgpcomm().args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        let flag = if args[0] == "stats" {
            "--max-errors"
        } else {
            args[args.len() - 1]
        };
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("{flag} needs a value")),
            "{args:?}: {stderr}"
        );
    }
}

/// A label file that cannot be written fails the run: `/dev/full` accepts
/// the open and refuses the write, which a buffered writer dropped without
/// a flush used to swallow.
#[test]
fn a_failed_label_write_fails_the_command() {
    if !std::path::Path::new("/dev/full").exists() {
        return;
    }
    use bgp_mrt::obs::write_update_stream;
    use bgp_types::{Asn, Community, Observation};

    let dir = workdir("dev-full");
    let mrt = dir.join("tiny.mrt");
    let observations: Vec<Observation> = (0..3u32)
        .map(|i| Observation {
            vp: Asn::new(64500 + i),
            prefix: "10.0.0.0/24".parse().unwrap(),
            path: format!("{} 1299 64496", 64500 + i).parse().unwrap(),
            communities: vec![Community::new(1299, 1)],
            large_communities: Vec::new(),
            time: 100,
        })
        .collect();
    let mut wire = Vec::new();
    assert_eq!(
        write_update_stream(&mut wire, Asn::new(6447), &observations).unwrap(),
        3
    );
    std::fs::write(&mrt, wire).unwrap();
    let json = dir.join("labels.json");
    let mrt = mrt.to_str().unwrap();
    let (_, stderr, ok) = run(bgpcomm().args(["infer", "--mrt", mrt, "--json"]).arg(&json));
    assert!(ok, "{stderr}");
    assert!(stderr.contains("wrote 1 labels"), "{stderr}");

    let out = bgpcomm()
        .args(["infer", "--mrt", mrt, "--json", "/dev/full"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("write /dev/full"), "{stderr}");
    assert!(!stderr.contains("wrote 1 labels"), "{stderr}");
}
