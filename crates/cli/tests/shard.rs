//! End-to-end behavior of `bgpcomm shard`: supervised multi-process runs
//! must be bit-identical to a single-process `infer` — including under
//! injected worker crashes and stalls — degrade gracefully with exact
//! coverage accounting once the retry budget is exhausted, and resume a
//! partially failed run by reusing the valid artifacts already on disk.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use bgp_mrt::obs::write_update_stream;
use bgp_types::{Asn, Community, Observation};

const EXIT_SHARD: i32 = 5;

fn bgpcomm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bgpcomm"))
        .args(args)
        .output()
        .expect("spawn bgpcomm")
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bgpcomm-shard-{name}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn observations(offset: u32, n: u32) -> Vec<Observation> {
    (0..n)
        .map(|i| {
            let i = offset + i;
            Observation {
                vp: Asn::new(64500 + (i % 4)),
                prefix: format!("10.{}.{}.0/24", i / 250, i % 250).parse().unwrap(),
                path: format!("{} 1299 {}", 64500 + (i % 4), 64496 + (i % 8))
                    .parse()
                    .unwrap(),
                communities: vec![Community::new(1299, 2000 + (i % 7) as u16)],
                large_communities: Vec::new(),
                time: 1_000_000 + i,
            }
        })
        .collect()
}

/// Write `count` archives with overlapping paths/communities (offsets
/// stride by less than the per-file count, so cross-shard dedup matters:
/// a partition-dependent merge would change the unique-path counts).
fn archives(dir: &Path, count: u32, per_file: u32) -> Vec<PathBuf> {
    (0..count)
        .map(|f| {
            let path = dir.join(format!("updates.{f:02}.mrt"));
            let mut buf = Vec::new();
            write_update_stream(
                &mut buf,
                Asn::new(6447),
                &observations(f * per_file / 2, per_file),
            )
            .unwrap();
            fs::write(&path, buf).unwrap();
            path
        })
        .collect()
}

fn mrt_args(paths: &[PathBuf]) -> Vec<&str> {
    paths
        .iter()
        .flat_map(|p| ["--mrt", p.to_str().unwrap()])
        .collect()
}

/// Run `infer` or `shard` with labels + report + metrics outputs under
/// `dir/<tag>.*`; returns the Output.
fn run_traced(command: &str, paths: &[PathBuf], dir: &Path, tag: &str, extra: &[&str]) -> Output {
    let json = dir.join(format!("{tag}.json"));
    let report = dir.join(format!("{tag}-report.json"));
    let metrics = dir.join(format!("{tag}-metrics.json"));
    let mut args = vec![
        command,
        "--top",
        "3",
        "--json",
        json.to_str().unwrap(),
        "--report",
        report.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
    ];
    args.extend(mrt_args(paths));
    args.extend(extra);
    bgpcomm(&args)
}

fn read(dir: &Path, name: &str) -> Vec<u8> {
    fs::read(dir.join(name)).unwrap_or_else(|e| panic!("read {name}: {e}"))
}

fn counters(dir: &Path, tag: &str) -> serde_json::Map {
    let snapshot: serde_json::Value =
        serde_json::from_slice(&read(dir, &format!("{tag}-metrics.json"))).unwrap();
    snapshot["counters"].as_object().unwrap().clone()
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn sharded_run_is_bit_identical_to_single_process_at_any_worker_count() {
    let dir = workdir("golden");
    let paths = archives(&dir, 8, 50);
    let single = run_traced("infer", &paths, &dir, "single", &[]);
    assert_eq!(single.status.code(), Some(0), "{}", stderr_of(&single));

    for workers in ["1", "2", "4"] {
        let tag = format!("shards-{workers}");
        let shard_dir = dir.join(format!("dir-{workers}"));
        let out = run_traced(
            "shard",
            &paths,
            &dir,
            &tag,
            &[
                "--shard-dir",
                shard_dir.to_str().unwrap(),
                "--workers",
                workers,
            ],
        );
        assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));

        // Labels, stdout summary, and the ingest report are byte-identical.
        assert_eq!(
            read(&dir, &format!("{tag}.json")),
            read(&dir, "single.json"),
            "labels must be bit-identical at {workers} worker(s)"
        );
        assert_eq!(
            out.stdout, single.stdout,
            "stdout summary must match at {workers} worker(s)"
        );
        assert_eq!(
            read(&dir, &format!("{tag}-report.json")),
            read(&dir, "single-report.json"),
            "ingest report must match at {workers} worker(s)"
        );

        // Metrics: every deterministic counter agrees once the supervisor's
        // own shard/* namespace is set aside.
        let mut sharded = counters(&dir, &tag);
        let supervisor: Vec<String> = sharded
            .keys()
            .filter(|k| k.starts_with("shard/"))
            .cloned()
            .collect();
        assert!(!supervisor.is_empty(), "shard/* counters recorded");
        for key in supervisor {
            sharded.remove(&key);
        }
        assert_eq!(
            sharded,
            counters(&dir, "single"),
            "deterministic counters must match at {workers} worker(s)"
        );
    }
}

#[test]
fn kills_and_stall_do_not_change_the_merged_output() {
    let dir = workdir("faults");
    let paths = archives(&dir, 6, 40);
    let single = run_traced("infer", &paths, &dir, "single", &[]);
    assert_eq!(single.status.code(), Some(0), "{}", stderr_of(&single));

    // Two kill points and one stall, at two thread counts: the acceptance
    // bar for the supervisor. Every first attempt of shards 0 and 1 is
    // killed (exit 9), shard 2's first attempt hangs past the heartbeat
    // deadline and is killed by the supervisor; all three succeed on retry.
    for threads in ["1", "2"] {
        let tag = format!("faulty-t{threads}");
        let shard_dir = dir.join(format!("dir-t{threads}"));
        let out = run_traced(
            "shard",
            &paths,
            &dir,
            &tag,
            &[
                "--shard-dir",
                shard_dir.to_str().unwrap(),
                "--workers",
                "3",
                "--threads",
                threads,
                "--shard-deadline-ms",
                "1500",
                "--inject-kill-shard",
                "0",
                "--inject-kill-shard",
                "1",
                "--inject-stall-shard",
                "2",
            ],
        );
        let stderr = stderr_of(&out);
        assert_eq!(out.status.code(), Some(0), "{stderr}");
        assert_eq!(
            read(&dir, &format!("{tag}.json")),
            read(&dir, "single.json"),
            "labels must survive 2 kills + 1 stall bit-identically (threads {threads})"
        );
        assert_eq!(
            read(&dir, &format!("{tag}-report.json")),
            read(&dir, "single-report.json"),
            "report must be unaffected by retried failures (threads {threads})"
        );
        assert!(
            stderr.contains("stalled"),
            "the stall must be classified as such: {stderr}"
        );

        let shard_counters = counters(&dir, &tag);
        let retries = shard_counters["shard/retries"].as_u64().unwrap();
        assert!(
            retries >= 3,
            "2 kills + 1 stall = at least 3 retries, got {retries}"
        );
        assert_eq!(shard_counters["shard/failed"].as_u64(), Some(0));
    }
}

#[test]
fn exhausted_retry_budget_fails_closed_without_an_allowance() {
    let dir = workdir("budget");
    let paths = archives(&dir, 4, 30);
    let shard_dir = dir.join("shards");
    let out = run_traced(
        "shard",
        &paths,
        &dir,
        "hard",
        &[
            "--shard-dir",
            shard_dir.to_str().unwrap(),
            "--workers",
            "2",
            "--shard-retries",
            "1",
            "--inject-fail-shard",
            "1",
        ],
    );
    let stderr = stderr_of(&out);
    assert_eq!(out.status.code(), Some(EXIT_SHARD), "{stderr}");
    assert!(stderr.contains("permanently"), "{stderr}");
    // The accounting still lands even though the run failed.
    let report: serde_json::Value =
        serde_json::from_slice(&read(&dir, "hard-report.json")).unwrap();
    assert_eq!(report["shards_failed"].as_u64(), Some(1));
    let shard_counters = counters(&dir, "hard");
    assert_eq!(shard_counters["shard/failed"].as_u64(), Some(1));
}

#[test]
fn allowed_shard_failure_degrades_with_exact_coverage_accounting() {
    let dir = workdir("degraded");
    let paths = archives(&dir, 4, 30);
    let shard_dir = dir.join("shards");
    let out = run_traced(
        "shard",
        &paths,
        &dir,
        "degraded",
        &[
            "--shard-dir",
            shard_dir.to_str().unwrap(),
            "--workers",
            "2",
            "--shard-retries",
            "1",
            "--inject-fail-shard",
            "1",
            "--allow-shard-failures",
            "1",
        ],
    );
    let stderr = stderr_of(&out);
    assert_eq!(out.status.code(), Some(0), "{stderr}");

    // Shard 1 owned files 1 and 3 (round-robin); its loss is reported to
    // the byte in both the ingest report and the metrics snapshot.
    let lost_bytes: u64 = [1, 3]
        .iter()
        .map(|&i| fs::metadata(&paths[i]).unwrap().len())
        .sum();
    let report: serde_json::Value =
        serde_json::from_slice(&read(&dir, "degraded-report.json")).unwrap();
    assert_eq!(report["shards_failed"].as_u64(), Some(1));
    assert_eq!(report["files_lost"].as_u64(), Some(2));
    assert_eq!(report["bytes_lost"].as_u64(), Some(lost_bytes));

    let shard_counters = counters(&dir, "degraded");
    assert_eq!(shard_counters["shard/failed"].as_u64(), Some(1));
    assert_eq!(
        shard_counters["ingest/shards_failed"].as_u64(),
        Some(1),
        "coverage shortfall must reach the metrics snapshot"
    );
    assert_eq!(shard_counters["ingest/files_lost"].as_u64(), Some(2));
    assert_eq!(
        shard_counters["ingest/bytes_lost"].as_u64(),
        Some(lost_bytes)
    );

    // The degradation is visible in the human summary too.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("ingest degradation") && stdout.contains("1 shard(s) failed"),
        "{stdout}"
    );

    // And the covered remainder classifies exactly like a single-process
    // run over the surviving files only.
    let survivors = [paths[0].clone(), paths[2].clone()];
    let single = run_traced("infer", &survivors, &dir, "survivors", &[]);
    assert_eq!(single.status.code(), Some(0), "{}", stderr_of(&single));
    assert_eq!(
        read(&dir, "degraded.json"),
        read(&dir, "survivors.json"),
        "degraded output must equal a run over the covered files"
    );
}

#[test]
fn rerun_resumes_from_valid_artifacts_of_a_failed_run() {
    let dir = workdir("resume");
    let paths = archives(&dir, 4, 30);
    let shard_dir = dir.join("shards");
    let single = run_traced("infer", &paths, &dir, "single", &[]);
    assert_eq!(single.status.code(), Some(0), "{}", stderr_of(&single));

    // First run: shard 1 exhausts its budget, the run fails (exit 5) but
    // shard 0's validated artifact stays behind in --shard-dir.
    let out = run_traced(
        "shard",
        &paths,
        &dir,
        "first",
        &[
            "--shard-dir",
            shard_dir.to_str().unwrap(),
            "--workers",
            "2",
            "--shard-retries",
            "1",
            "--inject-fail-shard",
            "1",
        ],
    );
    assert_eq!(out.status.code(), Some(EXIT_SHARD), "{}", stderr_of(&out));

    // Second run, same command minus the injection: shard 0 is adopted
    // without a respawn, shard 1 is re-run, and the merged result is
    // bit-identical to the uninterrupted single-process run.
    let out = run_traced(
        "shard",
        &paths,
        &dir,
        "second",
        &[
            "--shard-dir",
            shard_dir.to_str().unwrap(),
            "--workers",
            "2",
            "--shard-retries",
            "1",
        ],
    );
    let stderr = stderr_of(&out);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(
        stderr.contains("shard 0: reusing valid artifact"),
        "{stderr}"
    );
    assert_eq!(read(&dir, "second.json"), read(&dir, "single.json"));
    assert_eq!(
        read(&dir, "second-report.json"),
        read(&dir, "single-report.json")
    );
    let shard_counters = counters(&dir, "second");
    assert_eq!(shard_counters["shard/reused"].as_u64(), Some(1));
}

#[test]
fn json_era_shard_artifact_is_discarded_and_redone() {
    let dir = workdir("legacy-json");
    let paths = archives(&dir, 4, 30);
    let single = run_traced("infer", &paths, &dir, "single", &[]);
    assert_eq!(single.status.code(), Some(0), "{}", stderr_of(&single));

    // Shard 0's artifact (files 0 and 2 of 4 at two workers) as builds
    // before the binary format wrote it: a schema-2 JSON manifest.
    let shard_dir = dir.join("shards");
    fs::create_dir_all(&shard_dir).unwrap();
    let legacy = r#"{
  "checksum": 4170137391472180293,
  "files": [
    {
      "fingerprint": {
        "bytes": 3270,
        "hash": 1234567
      },
      "path": "PATH0"
    },
    {
      "fingerprint": {
        "bytes": 3270,
        "hash": 7654321
      },
      "path": "PATH2"
    }
  ],
  "report": {
    "records_read": 60
  },
  "schema": 2,
  "snapshot": {
    "communities": [],
    "paths": [],
    "seen_asns": [],
    "tuples": []
  }
}
"#
    .replace("PATH0", paths[0].to_str().unwrap())
    .replace("PATH2", paths[2].to_str().unwrap());
    fs::write(shard_dir.join("shard-000.ckpt"), legacy).unwrap();

    let out = run_traced(
        "shard",
        &paths,
        &dir,
        "sharded",
        &["--shard-dir", shard_dir.to_str().unwrap(), "--workers", "2"],
    );
    let stderr = stderr_of(&out);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(
        stderr.contains("shard 0: discarding leftover artifact"),
        "{stderr}"
    );
    assert!(stderr.contains("predates the binary"), "{stderr}");
    assert!(stderr.contains("shard 0: attempt 1"), "{stderr}");
    assert!(!stderr.contains("reusing"), "{stderr}");
    assert_eq!(read(&dir, "sharded.json"), read(&dir, "single.json"));
    assert!(read(&shard_dir, "shard-000.ckpt").starts_with(b"BGPBCKPT"));
}

#[test]
fn version_3_shard_artifact_is_discarded_and_redone() {
    let dir = workdir("version-3");
    let paths = archives(&dir, 4, 30);
    let single = run_traced("infer", &paths, &dir, "single", &[]);
    assert_eq!(single.status.code(), Some(0), "{}", stderr_of(&single));

    // Shard 0's artifact (files 0 and 2 of 4 at two workers) as the
    // previous build wrote it: version 3, listing both files, with an
    // empty fingerprint snapshot.
    let shard_dir = dir.join("shards");
    fs::create_dir_all(&shard_dir).unwrap();
    let files = [&paths[0], &paths[2]];
    let sizes: Vec<u64> = files
        .iter()
        .map(|p| fs::metadata(p).unwrap().len())
        .collect();
    let mut payload = words(&[2, sizes[0], sizes[1], 2, 1234567, 7654321]);
    for file in files {
        let name = file.to_str().unwrap().as_bytes();
        payload.extend(words(&[name.len() as u64]));
        payload.extend_from_slice(name);
    }
    payload.extend(words(&[2]));
    payload.extend_from_slice(b"{}");
    payload.extend(words(&[0, 0, 0, 0]));
    fs::write(
        shard_dir.join("shard-000.ckpt"),
        sealed(*b"BGPBCKPT", 3, &payload),
    )
    .unwrap();

    let out = run_traced(
        "shard",
        &paths,
        &dir,
        "sharded",
        &["--shard-dir", shard_dir.to_str().unwrap(), "--workers", "2"],
    );
    let stderr = stderr_of(&out);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(
        stderr.contains("shard 0: discarding leftover artifact"),
        "{stderr}"
    );
    assert!(
        stderr.contains("checkpoint version 3, this build reads version 7"),
        "{stderr}"
    );
    assert!(stderr.contains("shard 0: attempt 1"), "{stderr}");
    assert!(!stderr.contains("reusing"), "{stderr}");
    assert_eq!(read(&dir, "sharded.json"), read(&dir, "single.json"));
    let redone = read(&shard_dir, "shard-000.ckpt");
    assert_eq!(
        &redone[..12],
        b"BGPBCKPT\x07\0\0\0",
        "rewritten at version 7"
    );
}

/// A version-5 artifact (the whole segment in the one sealed file, as the
/// build before wrote it) is discarded on its version and its shard
/// redone; the labels still equal `infer`'s.
#[test]
fn version_5_shard_artifact_is_discarded_and_redone() {
    let dir = workdir("version-5");
    let paths = archives(&dir, 4, 30);
    let single = run_traced("infer", &paths, &dir, "single", &[]);
    assert_eq!(single.status.code(), Some(0), "{}", stderr_of(&single));

    // Shard 0's artifact (files 0 and 2 of 4 at two workers) at version 5:
    // both files with their real fingerprints, an empty report and the
    // empty segment as one frame (ten empty columns).
    let shard_dir = dir.join("shards");
    fs::create_dir_all(&shard_dir).unwrap();
    let files = [&paths[0], &paths[2]];
    let mut payload = words(&[2]);
    for file in files {
        payload.extend(words(&[fs::metadata(file).unwrap().len()]));
    }
    payload.extend(words(&[2]));
    for file in files {
        let fingerprint = bgp_intent::fingerprint_file(file).unwrap();
        payload.extend(words(&[fingerprint.hash]));
    }
    for file in files {
        let name = file.to_str().unwrap().as_bytes();
        payload.extend(words(&[name.len() as u64]));
        payload.extend_from_slice(name);
    }
    payload.extend(words(&[2]));
    payload.extend_from_slice(b"{}");
    payload.extend(words(&[0; 10]));
    fs::write(
        shard_dir.join("shard-000.ckpt"),
        sealed(*b"BGPBCKPT", 5, &payload),
    )
    .unwrap();

    let out = run_traced(
        "shard",
        &paths,
        &dir,
        "sharded",
        &["--shard-dir", shard_dir.to_str().unwrap(), "--workers", "2"],
    );
    let stderr = stderr_of(&out);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(
        stderr.contains("shard 0: discarding leftover artifact"),
        "{stderr}"
    );
    assert!(
        stderr.contains("checkpoint version 5, this build reads version 7"),
        "{stderr}"
    );
    assert!(stderr.contains("shard 0: attempt 1"), "{stderr}");
    assert_eq!(read(&dir, "sharded.json"), read(&dir, "single.json"));
    let redone = read(&shard_dir, "shard-000.ckpt");
    assert_eq!(
        &redone[..12],
        b"BGPBCKPT\x07\0\0\0",
        "rewritten at version 7"
    );
    assert!(shard_dir.join("shard-000.ckpt.seg").exists());
}

/// A version-4 artifact (this build's layout, sealed with FNV-1a 64 by the
/// build before) is discarded on its version and its shard redone; the
/// other shard's current artifact is reused.
#[test]
fn version_4_shard_artifact_is_discarded_and_redone() {
    let dir = workdir("version-4");
    let paths = archives(&dir, 4, 30);
    let single = run_traced("infer", &paths, &dir, "single", &[]);
    assert_eq!(single.status.code(), Some(0), "{}", stderr_of(&single));
    let shard_dir = dir.join("shards");
    let shard_args = ["--shard-dir", shard_dir.to_str().unwrap(), "--workers", "2"];
    let first = run_traced("shard", &paths, &dir, "first", &shard_args);
    assert_eq!(first.status.code(), Some(0), "{}", stderr_of(&first));

    let mut legacy = read(&shard_dir, "shard-001.ckpt");
    assert_eq!(&legacy[..12], b"BGPBCKPT\x07\0\0\0");
    legacy[8] = 4;
    fs::write(shard_dir.join("shard-001.ckpt"), &legacy).unwrap();

    let out = run_traced("shard", &paths, &dir, "sharded", &shard_args);
    let stderr = stderr_of(&out);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(
        stderr.contains("shard 1: discarding leftover artifact"),
        "{stderr}"
    );
    assert!(
        stderr.contains("checkpoint version 4, this build reads version 7"),
        "{stderr}"
    );
    assert!(stderr.contains("shard 1: attempt 1"), "{stderr}");
    assert!(stderr.contains("shard 0: reusing"), "{stderr}");
    assert!(!stderr.contains("shard 0: attempt"), "{stderr}");
    assert_eq!(read(&dir, "sharded.json"), read(&dir, "single.json"));
    let redone = read(&shard_dir, "shard-001.ckpt");
    assert_eq!(
        &redone[..12],
        b"BGPBCKPT\x07\0\0\0",
        "rewritten at version 7"
    );
}

/// A shard redone over a discarded artifact starts its segment log over
/// instead of appending after the refused one: after a torn manifest, a
/// version-6 manifest and a stale artifact, the redone shard's log is the
/// fresh run's, byte for byte, and so are the labels.
#[test]
fn a_redone_shard_starts_its_log_over() {
    let dir = workdir("redo-log");
    let paths = archives(&dir, 4, 30);
    let shard_dir = dir.join("shards");
    let shard_args = ["--shard-dir", shard_dir.to_str().unwrap(), "--workers", "2"];
    let fresh = run_traced("shard", &paths, &dir, "fresh", &shard_args);
    assert_eq!(fresh.status.code(), Some(0), "{}", stderr_of(&fresh));
    let fresh_log = read(&shard_dir, "shard-001.ckpt.seg");
    let manifest = read(&shard_dir, "shard-001.ckpt");
    let mut renumbered = manifest.clone();
    renumbered[8] = 6;
    for (case, damaged, why) in [
        ("torn", manifest[..manifest.len() / 2].to_vec(), "corrupt"),
        (
            "version 6",
            renumbered,
            "checkpoint version 6, this build reads version 7",
        ),
    ] {
        fs::write(shard_dir.join("shard-001.ckpt"), &damaged).unwrap();
        let out = run_traced("shard", &paths, &dir, "redone", &shard_args);
        let stderr = stderr_of(&out);
        assert_eq!(out.status.code(), Some(0), "{case}: {stderr}");
        assert!(
            stderr.contains("shard 1: discarding leftover artifact") && stderr.contains(why),
            "{case}: {stderr}"
        );
        assert!(stderr.contains("shard 0: reusing"), "{case}: {stderr}");
        let log = read(&shard_dir, "shard-001.ckpt.seg");
        assert_eq!(
            log.len(),
            fresh_log.len(),
            "{case}: the log kept a dead prefix"
        );
        assert_eq!(log, fresh_log, "{case}");
        assert_eq!(
            read(&dir, "redone.json"),
            read(&dir, "fresh.json"),
            "{case}"
        );
    }

    // Stale: at one file fewer, shard 1 covers file 1 alone, not 1 and 3.
    let fewer = &paths[..3];
    let fewer_dir = dir.join("fewer-shards");
    let fewer_args = ["--shard-dir", fewer_dir.to_str().unwrap(), "--workers", "2"];
    let fresh = run_traced("shard", fewer, &dir, "fresh-fewer", &fewer_args);
    assert_eq!(fresh.status.code(), Some(0), "{}", stderr_of(&fresh));
    let out = run_traced("shard", fewer, &dir, "stale", &shard_args);
    let stderr = stderr_of(&out);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(
        stderr.contains("shard 1: discarding leftover artifact (stale"),
        "{stderr}"
    );
    assert!(stderr.contains("shard 0: reusing"), "{stderr}");
    assert_eq!(
        read(&shard_dir, "shard-001.ckpt.seg"),
        read(&fewer_dir, "shard-001.ckpt.seg")
    );
    assert_eq!(read(&dir, "stale.json"), read(&dir, "fresh-fewer.json"));
}

#[test]
fn shard_rejects_strict_mode_and_requires_a_shard_dir() {
    let dir = workdir("usage");
    let paths = archives(&dir, 2, 10);
    let mut args = vec!["shard", "--strict", "--shard-dir"];
    let shard_dir = dir.join("shards");
    args.push(shard_dir.to_str().unwrap());
    args.extend(mrt_args(&paths));
    let out = bgpcomm(&args);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr_of(&out).contains("lenient"), "{}", stderr_of(&out));

    let mut args = vec!["shard"];
    args.extend(mrt_args(&paths));
    let out = bgpcomm(&args);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr_of(&out).contains("--shard-dir"),
        "{}",
        stderr_of(&out)
    );
}

/// A worker decodes each file only after committing the one before it, so
/// its heartbeat moves once per file and the supervisor's stall deadline
/// bounds one file's decode, at the default thread count too. The second
/// input appears only while the worker stalls after its first heartbeat: a
/// worker that decoded ahead would find it missing and fail.
#[test]
fn worker_decodes_each_file_after_the_previous_heartbeat() {
    let dir = workdir("per-file-beat");
    let paths = archives(&dir, 2, 30);
    let (late, heartbeat) = (dir.join("late.mrt"), dir.join("heartbeat"));
    let artifact = dir.join("shard.ckpt");
    let files = format!("{},{}", paths[0].display(), late.display());
    let worker = Command::new(env!("CARGO_BIN_EXE_bgpcomm"))
        .args(["shard-worker", "--mrt", &files, "--inject-stall-ms", "4000"])
        .args(["--out", artifact.to_str().unwrap()])
        .args(["--heartbeat", heartbeat.to_str().unwrap()])
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn bgpcomm");
    let deadline = Instant::now() + Duration::from_secs(60);
    while fs::read_to_string(&heartbeat).ok().as_deref() != Some("1\n") {
        assert!(
            Instant::now() < deadline,
            "no heartbeat after the first file"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    fs::rename(&paths[1], &late).unwrap();
    let out = worker.wait_with_output().unwrap();
    let stderr = stderr_of(&out);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("(2 file(s), "), "{stderr}");
}

/// A sealed file as an earlier build wrote it: the envelope, at layout
/// `version`, around `payload`.
fn sealed(magic: [u8; 8], version: u32, payload: &[u8]) -> Vec<u8> {
    use bgp_types::persist::{Format, HEADER_LEN};
    let mut file = vec![0; HEADER_LEN];
    file.extend_from_slice(payload);
    Format {
        magic,
        version,
        name: "checkpoint",
    }
    .seal(&mut file);
    file
}

/// Little-endian `u64` words: counts and scalars of a column payload.
fn words(values: &[u64]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}
