//! End-to-end supervision behavior of `bgpcomm infer`: crash-safe
//! checkpoint/resume, fingerprint validation, panic isolation, and
//! transient-I/O retry — all through real subprocesses and exit codes.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use bgp_mrt::obs::write_update_stream;
use bgp_types::{Asn, Community, Observation};

const EXIT_DECODE: i32 = 2;
const EXIT_ABORTED: i32 = 3;
const EXIT_CHECKPOINT: i32 = 4;
const EXIT_CRASH: i32 = 9;

fn bgpcomm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bgpcomm"))
        .args(args)
        .output()
        .expect("spawn bgpcomm")
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bgpcomm-ckpt-{name}"));
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
/// stride by less than the per-file count, so cross-file dedup matters).
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

/// `infer --json` with the given extra flags; returns (Output, label bytes).
fn infer_json(paths: &[PathBuf], json: &Path, extra: &[&str]) -> (Output, Option<Vec<u8>>) {
    let mut args = vec!["infer", "--top", "0", "--json", json.to_str().unwrap()];
    args.extend(mrt_args(paths));
    args.extend(extra);
    let out = bgpcomm(&args);
    let labels = fs::read(json).ok();
    (out, labels)
}

#[test]
fn checkpointed_run_matches_plain_run_bit_identically() {
    let dir = workdir("plain-vs-ckpt");
    let paths = archives(&dir, 4, 60);
    let (out, plain) = infer_json(&paths, &dir.join("plain.json"), &[]);
    assert_eq!(out.status.code(), Some(0));
    let plain = plain.expect("plain labels written");
    assert!(!plain.is_empty());

    for threads in ["1", "2", "8"] {
        let ckpt = dir.join(format!("run-t{threads}.ckpt"));
        let json = dir.join(format!("ckpt-t{threads}.json"));
        let (out, labels) = infer_json(
            &paths,
            &json,
            &["--threads", threads, "--checkpoint", ckpt.to_str().unwrap()],
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "threads {threads}: {stderr}");
        assert_eq!(
            labels.as_deref(),
            Some(&plain[..]),
            "checkpointed output must be bit-identical (threads {threads})"
        );
        assert!(ckpt.exists(), "manifest persisted");
    }
}

/// The manifest at `path` and its segment log.
fn checkpoint_files(path: &Path) -> (Vec<u8>, Vec<u8>) {
    let mut log = path.as_os_str().to_owned();
    log.push(".seg");
    (fs::read(path).unwrap(), fs::read(log).unwrap())
}

/// The counters of the metrics file at `path`.
fn counters(path: &Path) -> serde_json::Value {
    let snapshot: serde_json::Value = serde_json::from_slice(&fs::read(path).unwrap()).unwrap();
    snapshot["counters"].clone()
}

#[test]
fn crash_then_resume_is_bit_identical_to_uninterrupted_run() {
    let dir = workdir("crash-resume");
    let paths = archives(&dir, 6, 40);
    let (out, clean) = infer_json(&paths, &dir.join("clean.json"), &[]);
    assert_eq!(out.status.code(), Some(0));
    let clean = clean.expect("clean labels written");
    let whole = dir.join("uninterrupted.ckpt");
    let (out, _) = infer_json(
        &paths,
        &dir.join("uninterrupted.json"),
        &["--checkpoint", whole.to_str().unwrap()],
    );
    assert_eq!(out.status.code(), Some(0));
    let uninterrupted = checkpoint_files(&whole);

    for kill_after in ["1", "3", "5"] {
        for threads in ["1", "2", "8"] {
            let tag = format!("k{kill_after}-t{threads}");
            let ckpt = dir.join(format!("{tag}.ckpt"));
            let json = dir.join(format!("{tag}.json"));
            // Phase 1: run until the injected crash.
            let (out, _) = infer_json(
                &paths,
                &json,
                &[
                    "--threads",
                    threads,
                    "--checkpoint",
                    ckpt.to_str().unwrap(),
                    "--inject-crash-after",
                    kill_after,
                ],
            );
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(EXIT_CRASH), "{tag}: {stderr}");
            assert!(stderr.contains("injected crash"), "{tag}: {stderr}");
            assert!(ckpt.exists(), "{tag}: crash left a checkpoint behind");
            // Phase 2: resume to completion.
            let (out, labels) = infer_json(
                &paths,
                &json,
                &[
                    "--threads",
                    threads,
                    "--checkpoint",
                    ckpt.to_str().unwrap(),
                    "--resume",
                ],
            );
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(0), "{tag}: {stderr}");
            assert!(
                stderr.contains("skipped (checkpointed"),
                "{tag}: completed files must be skipped: {stderr}"
            );
            assert_eq!(
                labels.as_deref(),
                Some(&clean[..]),
                "{tag}: resumed output must be bit-identical to the clean run"
            );
            assert!(
                checkpoint_files(&ckpt) == uninterrupted,
                "{tag}: the resumed checkpoint must be the uninterrupted run's, byte for byte"
            );
            // Phase 3: nothing left to fold, so nothing is written.
            let metrics = dir.join(format!("{tag}-metrics.json"));
            let (out, again) = infer_json(
                &paths,
                &json,
                &[
                    "--threads",
                    threads,
                    "--checkpoint",
                    ckpt.to_str().unwrap(),
                    "--resume",
                    "--metrics-out",
                    metrics.to_str().unwrap(),
                ],
            );
            assert_eq!(out.status.code(), Some(0), "{tag}");
            assert_eq!(again.as_deref(), Some(&clean[..]), "{tag}");
            assert!(checkpoint_files(&ckpt) == uninterrupted, "{tag}: rewritten");
            assert_eq!(
                counters(&metrics)["checkpoint/writes"].as_u64(),
                Some(0),
                "{tag}"
            );
        }
    }
}

/// A resume whose manifest write fails (a directory stands where its temp
/// file goes) exits 1 naming the checkpoint and leaves the previous
/// commit: the manifest byte for byte, with the frame it appended past the
/// committed range. Once the directory goes, a resume verifies the one
/// committed file and writes the labels a plain run writes.
#[test]
fn a_failed_manifest_write_leaves_the_previous_commit() {
    let dir = workdir("failed-manifest-write");
    let paths = archives(&dir, 3, 40);
    let (out, plain) = infer_json(&paths, &dir.join("plain.json"), &[]);
    assert_eq!(out.status.code(), Some(0));
    let ckpt = dir.join("run.ckpt");
    let ckpt_arg = ckpt.to_str().unwrap();
    let (out, _) = infer_json(
        &paths,
        &dir.join("crash.json"),
        &["--checkpoint", ckpt_arg, "--inject-crash-after", "1"],
    );
    assert_eq!(out.status.code(), Some(EXIT_CRASH));
    let (manifest, log) = checkpoint_files(&ckpt);

    let blocker = bgp_types::persist::temp_path(&ckpt);
    fs::create_dir(&blocker).unwrap();
    let resume = ["--checkpoint", ckpt_arg, "--resume"];
    let (out, _) = infer_json(&paths, &dir.join("failed.json"), &resume);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(&format!("write checkpoint {}: ", ckpt.display())),
        "{stderr}"
    );
    let (manifest_after, log_after) = checkpoint_files(&ckpt);
    assert_eq!(manifest_after, manifest, "the manifest changed");
    assert!(
        log_after.len() > log.len() && log_after.starts_with(&log),
        "an uncommitted frame follows the committed range"
    );

    fs::remove_dir(&blocker).unwrap();
    let metrics = dir.join("resume-metrics.json");
    let (out, labels) = infer_json(
        &paths,
        &dir.join("resumed.json"),
        &[&resume[..], &["--metrics-out", metrics.to_str().unwrap()]].concat(),
    );
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert_eq!(
        counters(&metrics)["checkpoint/verified_files"].as_u64(),
        Some(1)
    );
    assert_eq!(
        labels, plain,
        "the resumed labels differ from a plain run's"
    );
}

/// A fresh run that cannot append its segment log (a directory stands in
/// its place) exits 1 naming the log and writes no manifest; once the
/// directory goes, a rerun writes the labels a plain run writes.
#[test]
fn a_failed_log_append_writes_no_manifest() {
    let dir = workdir("failed-log-append");
    let paths = archives(&dir, 3, 40);
    let (out, plain) = infer_json(&paths, &dir.join("plain.json"), &[]);
    assert_eq!(out.status.code(), Some(0));
    let ckpt = dir.join("run.ckpt");
    let log = dir.join("run.ckpt.seg");
    fs::create_dir(&log).unwrap();
    let checkpoint = ["--checkpoint", ckpt.to_str().unwrap()];
    let (out, labels) = infer_json(&paths, &dir.join("failed.json"), &checkpoint);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(&format!("append checkpoint log {}: ", log.display())),
        "{stderr}"
    );
    assert!(!ckpt.exists(), "a manifest was written");
    assert!(labels.is_none(), "a failed run writes no labels");

    fs::remove_dir(&log).unwrap();
    let (out, labels) = infer_json(&paths, &dir.join("rerun.json"), &checkpoint);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert_eq!(
        labels, plain,
        "the rerun's labels differ from a plain run's"
    );
}

/// A checkpoint that could never be written fails the run before the
/// first file decodes: exit 1, naming the missing directory, with no
/// per-file summary and no file created.
#[test]
fn checkpoint_in_a_missing_directory_fails_before_any_decode() {
    let dir = workdir("missing-dir");
    let paths = archives(&dir, 3, 20);
    let missing = dir.join("missing");
    let ckpt = missing.join("c.ckpt");
    let before = fs::read_dir(&dir).unwrap().count();
    let (out, labels) = infer_json(
        &paths,
        &dir.join("labels.json"),
        &["--checkpoint", ckpt.to_str().unwrap()],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(&format!("{} does not exist", missing.display())),
        "{stderr}"
    );
    assert!(
        !stderr.contains("observations ("),
        "a file decoded: {stderr}"
    );
    assert!(labels.is_none(), "a refused run writes no labels");
    assert!(!missing.exists());
    assert_eq!(
        fs::read_dir(&dir).unwrap().count(),
        before,
        "a file was created"
    );
}

/// `--metrics-out` counts the checkpoint's I/O exactly: one write per
/// file, and bytes that cover the final log and manifest but stay under
/// the log plus one final-size manifest per write — the log is written
/// once, not per save. Both repeat exactly at any thread count, and
/// `--trace-json` records one `checkpoint_write` span per save.
#[test]
fn checkpoint_metrics_count_writes_and_bytes_exactly() {
    let dir = workdir("write-metrics");
    let paths = archives(&dir, 5, 40);
    let mut seen = Vec::new();
    for threads in ["1", "2", "8"] {
        let ckpt = dir.join(format!("t{threads}.ckpt"));
        let metrics = dir.join(format!("t{threads}-metrics.json"));
        let trace = dir.join(format!("t{threads}-trace.jsonl"));
        let (out, _) = infer_json(
            &paths,
            &dir.join(format!("t{threads}.json")),
            &[
                "--threads",
                threads,
                "--checkpoint",
                ckpt.to_str().unwrap(),
                "--metrics-out",
                metrics.to_str().unwrap(),
                "--trace-json",
                trace.to_str().unwrap(),
            ],
        );
        assert_eq!(out.status.code(), Some(0), "{out:?}");
        let c = counters(&metrics);
        let writes = c["checkpoint/writes"].as_u64().unwrap();
        let bytes = c["checkpoint/bytes_written"].as_u64().unwrap();
        assert_eq!(writes, paths.len() as u64, "one save per file");
        let (manifest, log) = checkpoint_files(&ckpt);
        let (manifest, log) = (manifest.len() as u64, log.len() as u64);
        assert!(
            bytes >= log + manifest,
            "{bytes} bytes, {log} + {manifest} on disk"
        );
        assert!(
            bytes < log + writes * manifest,
            "{bytes} bytes for {writes} saves"
        );
        let snapshot: serde_json::Value =
            serde_json::from_slice(&fs::read(&metrics).unwrap()).unwrap();
        assert!(
            snapshot["timings"]["time/checkpoint_write_ns"]
                .as_u64()
                .unwrap()
                > 0
        );
        let spans = fs::read_to_string(&trace).unwrap();
        let saves = spans
            .lines()
            .filter(|l| l.contains(r#""span":"checkpoint_write""#))
            .count();
        assert_eq!(saves as u64, writes, "one checkpoint_write span per save");
        seen.push((writes, bytes));
    }
    assert!(seen.iter().all(|s| *s == seen[0]), "{seen:?}");
}

/// A run at two threads, then a resume with nothing left to read: the
/// resume verifies every recorded file against the bytes on disk, exits 0
/// and leaves the manifest and its log byte for byte as they were. Every
/// recorded fingerprint is the one `fingerprint_file` takes.
#[test]
fn a_resume_with_nothing_pending_verifies_every_file_and_writes_nothing() {
    let dir = workdir("idle-resume");
    let paths = archives(&dir, 5, 40);
    let ckpt = dir.join("run.ckpt");
    let (out, first) = infer_json(
        &paths,
        &dir.join("a.json"),
        &["--threads", "2", "--checkpoint", ckpt.to_str().unwrap()],
    );
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let recorded = bgp_intent::Checkpoint::load(&ckpt).unwrap().files;
    assert_eq!(recorded.len(), paths.len());
    for (done, path) in recorded.iter().zip(&paths) {
        assert_eq!(done.path, path.to_str().unwrap());
        assert_eq!(
            done.fingerprint,
            bgp_intent::fingerprint_file(path).unwrap()
        );
    }
    let before = checkpoint_files(&ckpt);

    let metrics = dir.join("resume-metrics.json");
    let (out, again) = infer_json(
        &paths,
        &dir.join("b.json"),
        &[
            "--threads",
            "2",
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--resume",
            "--metrics-out",
            metrics.to_str().unwrap(),
        ],
    );
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert_eq!(again, first, "the resume writes the labels the run wrote");
    let c = counters(&metrics);
    assert_eq!(
        c["checkpoint/verified_files"].as_u64(),
        Some(paths.len() as u64)
    );
    assert_eq!(c["checkpoint/writes"].as_u64().unwrap_or(0), 0);
    assert_eq!(
        checkpoint_files(&ckpt),
        before,
        "nothing pending, nothing written"
    );
}

/// A file whose error budget runs out fails the run (exit 3) and is not
/// recorded; the files around it are committed, so a resume re-reads only
/// the failed one.
#[test]
fn a_file_over_its_error_budget_is_not_recorded() {
    let dir = workdir("over-budget");
    let paths = archives(&dir, 3, 40);
    let mut bytes = fs::read(&paths[1]).unwrap();
    let mid = bytes.len() / 2;
    bytes.splice(mid..mid, [0xEE; 64]);
    fs::write(&paths[1], bytes).unwrap();
    let ckpt = dir.join("run.ckpt");
    for threads in ["1", "2"] {
        let _ = fs::remove_file(&ckpt);
        let _ = fs::remove_file(dir.join("run.ckpt.seg"));
        let (out, _) = infer_json(
            &paths,
            &dir.join("a.json"),
            &[
                "--threads",
                threads,
                "--max-errors",
                "0",
                "--checkpoint",
                ckpt.to_str().unwrap(),
            ],
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(EXIT_ABORTED), "{stderr}");
        let recorded: Vec<String> = bgp_intent::Checkpoint::load(&ckpt)
            .unwrap()
            .files
            .into_iter()
            .map(|f| f.path)
            .collect();
        let expected = [&paths[0], &paths[2]].map(|p| p.to_str().unwrap().to_string());
        assert_eq!(recorded, expected, "threads {threads}: {stderr}");
    }
}

#[test]
fn changed_input_file_refuses_resume() {
    let dir = workdir("fingerprint");
    let paths = archives(&dir, 3, 30);
    let ckpt = dir.join("run.ckpt");
    let (out, _) = infer_json(
        &paths,
        &dir.join("a.json"),
        &[
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--inject-crash-after",
            "1",
        ],
    );
    assert_eq!(out.status.code(), Some(EXIT_CRASH));

    // Rewrite the first (committed) archive with different contents.
    let mut buf = Vec::new();
    write_update_stream(&mut buf, Asn::new(6447), &observations(500, 30)).unwrap();
    fs::write(&paths[0], buf).unwrap();

    let (out, _) = infer_json(
        &paths,
        &dir.join("b.json"),
        &["--checkpoint", ckpt.to_str().unwrap(), "--resume"],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(EXIT_CHECKPOINT), "{stderr}");
    assert!(stderr.contains("changed since"), "{stderr}");
}

#[test]
fn recorded_file_missing_from_inputs_refuses_resume() {
    let dir = workdir("missing-input");
    let paths = archives(&dir, 3, 30);
    let ckpt = dir.join("run.ckpt");
    let (out, _) = infer_json(
        &paths,
        &dir.join("a.json"),
        &[
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--inject-crash-after",
            "1",
        ],
    );
    assert_eq!(out.status.code(), Some(EXIT_CRASH));

    // Resume with the committed file dropped from the input set.
    let (out, _) = infer_json(
        &paths[1..],
        &dir.join("b.json"),
        &["--checkpoint", ckpt.to_str().unwrap(), "--resume"],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(EXIT_CHECKPOINT), "{stderr}");
    assert!(stderr.contains("not among the --mrt inputs"), "{stderr}");
}

#[test]
fn existing_checkpoint_without_resume_is_refused() {
    let dir = workdir("no-silent-overwrite");
    let paths = archives(&dir, 2, 20);
    let ckpt = dir.join("run.ckpt");
    let (out, _) = infer_json(
        &paths,
        &dir.join("a.json"),
        &["--checkpoint", ckpt.to_str().unwrap()],
    );
    assert_eq!(out.status.code(), Some(0));
    let (out, _) = infer_json(
        &paths,
        &dir.join("b.json"),
        &["--checkpoint", ckpt.to_str().unwrap()],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(EXIT_CHECKPOINT), "{stderr}");
    assert!(stderr.contains("--resume"), "{stderr}");
}

#[test]
fn json_checkpoint_from_before_the_binary_format_is_refused_untouched() {
    let dir = workdir("legacy-json");
    let paths = archives(&dir, 2, 20);
    let ckpt = dir.join("run.ckpt");
    // A manifest as builds before the binary format wrote it: schema 2,
    // pretty-printed JSON with sorted keys, covering the first archive.
    let legacy = r#"{
  "checksum": 10966095916983126331,
  "files": [
    {
      "fingerprint": {
        "bytes": 10655,
        "hash": 6685637747238123569
      },
      "path": "PATH"
    }
  ],
  "report": {
    "records_read": 20
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
    .replace("PATH", paths[0].to_str().unwrap());
    fs::write(&ckpt, &legacy).unwrap();
    let (out, labels) = infer_json(
        &paths,
        &dir.join("labels.json"),
        &["--checkpoint", ckpt.to_str().unwrap(), "--resume"],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(EXIT_CHECKPOINT), "{stderr}");
    assert!(stderr.contains("predates the binary"), "{stderr}");
    assert!(stderr.contains("delete it"), "{stderr}");
    assert!(labels.is_none(), "a refused run writes no labels");
    // Refused, not overwritten: the operator decides what to do with it.
    assert_eq!(fs::read_to_string(&ckpt).unwrap(), legacy);
}

#[test]
fn version_3_checkpoint_with_fingerprint_sets_is_refused_untouched() {
    let dir = workdir("version-3");
    let paths = archives(&dir, 2, 20);
    let ckpt = dir.join("run.ckpt");
    // Version 3 as the previous build wrote it: no completed files, an
    // empty report, and an empty fingerprint snapshot (path, tuple, ASN
    // and community-key columns).
    let mut payload = words(&[0, 0, 2]);
    payload.extend_from_slice(b"{}");
    payload.extend(words(&[0, 0, 0, 0]));
    let legacy = sealed(*b"BGPBCKPT", 3, &payload);
    fs::write(&ckpt, &legacy).unwrap();
    let (out, labels) = infer_json(
        &paths,
        &dir.join("labels.json"),
        &["--checkpoint", ckpt.to_str().unwrap(), "--resume"],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(EXIT_CHECKPOINT), "{stderr}");
    assert!(
        stderr.contains("checkpoint version 3, this build reads version 7"),
        "{stderr}"
    );
    assert!(labels.is_none(), "a refused run writes no labels");
    assert_eq!(fs::read(&ckpt).unwrap(), legacy, "refused, not overwritten");
}

/// Version 4 had this build's layout under a seal and file fingerprints
/// checked with FNV-1a 64: a checkpoint this build wrote, renumbered, is
/// refused on its version before any checksum is compared.
#[test]
fn version_4_checkpoint_is_refused_untouched() {
    let dir = workdir("version-4");
    let paths = archives(&dir, 2, 20);
    let ckpt = dir.join("run.ckpt");
    let ckpt_arg = ckpt.to_str().unwrap();
    let (out, _) = infer_json(&paths, &dir.join("first.json"), &["--checkpoint", ckpt_arg]);
    assert_eq!(out.status.code(), Some(0), "{:?}", out);
    let mut legacy = fs::read(&ckpt).unwrap();
    assert_eq!(&legacy[..12], b"BGPBCKPT\x07\0\0\0");
    legacy[8] = 4;
    fs::write(&ckpt, &legacy).unwrap();
    let (out, labels) = infer_json(
        &paths,
        &dir.join("labels.json"),
        &["--checkpoint", ckpt_arg, "--resume"],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(EXIT_CHECKPOINT), "{stderr}");
    assert!(
        stderr.contains("checkpoint version 4, this build reads version 7"),
        "{stderr}"
    );
    assert!(labels.is_none(), "a refused run writes no labels");
    assert_eq!(fs::read(&ckpt).unwrap(), legacy, "refused, not overwritten");
}

/// Version 6 logged each list entry's community value in place of its
/// slot: a checkpoint this build wrote, renumbered, is refused on its
/// version, and neither file changes.
#[test]
fn version_6_checkpoint_is_refused_untouched() {
    let dir = workdir("version-6");
    let paths = archives(&dir, 2, 20);
    let ckpt = dir.join("run.ckpt");
    let ckpt_arg = ckpt.to_str().unwrap();
    let (out, _) = infer_json(&paths, &dir.join("first.json"), &["--checkpoint", ckpt_arg]);
    assert_eq!(out.status.code(), Some(0), "{:?}", out);
    let mut legacy = fs::read(&ckpt).unwrap();
    assert_eq!(&legacy[..12], b"BGPBCKPT\x07\0\0\0");
    legacy[8] = 6;
    fs::write(&ckpt, &legacy).unwrap();
    let log = fs::read(dir.join("run.ckpt.seg")).unwrap();
    let (out, labels) = infer_json(
        &paths,
        &dir.join("labels.json"),
        &["--checkpoint", ckpt_arg, "--resume"],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(EXIT_CHECKPOINT), "{stderr}");
    assert!(
        stderr.contains("checkpoint version 6, this build reads version 7"),
        "{stderr}"
    );
    assert!(labels.is_none(), "a refused run writes no labels");
    assert_eq!(fs::read(&ckpt).unwrap(), legacy, "refused, not overwritten");
    assert_eq!(fs::read(dir.join("run.ckpt.seg")).unwrap(), log);
}

/// Version 5 held the whole segment in the one sealed file, rewritten at
/// every save: refused on its version, and left as it is.
#[test]
fn version_5_checkpoint_holding_the_whole_segment_is_refused_untouched() {
    let dir = workdir("version-5");
    let paths = archives(&dir, 2, 20);
    let ckpt = dir.join("run.ckpt");
    // Version 5 as the previous build wrote it: no completed files, an
    // empty report, then the empty segment as one frame (ten empty
    // columns).
    let mut payload = words(&[0, 0, 2]);
    payload.extend_from_slice(b"{}");
    payload.extend(words(&[0; 10]));
    let legacy = sealed(*b"BGPBCKPT", 5, &payload);
    fs::write(&ckpt, &legacy).unwrap();
    let (out, labels) = infer_json(
        &paths,
        &dir.join("labels.json"),
        &["--checkpoint", ckpt.to_str().unwrap(), "--resume"],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(EXIT_CHECKPOINT), "{stderr}");
    assert!(
        stderr.contains("checkpoint version 5, this build reads version 7"),
        "{stderr}"
    );
    assert!(labels.is_none(), "a refused run writes no labels");
    assert_eq!(fs::read(&ckpt).unwrap(), legacy, "refused, not overwritten");
    assert!(!dir.join("run.ckpt.seg").exists());
}

#[test]
fn checkpoint_with_strict_is_refused() {
    let dir = workdir("strict-refused");
    let paths = archives(&dir, 2, 20);
    let out = bgpcomm(
        &[
            &["infer", "--strict", "--checkpoint"],
            &[dir.join("run.ckpt").to_str().unwrap()][..],
            &mrt_args(&paths)[..],
        ]
        .concat(),
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("lenient"), "{stderr}");
}

#[test]
fn worker_panic_is_isolated_and_reported() {
    let dir = workdir("panic");
    // One big archive among small ones: only the big one trips the hook.
    let mut paths = archives(&dir, 3, 4);
    let big = dir.join("updates.big.mrt");
    let mut buf = Vec::new();
    write_update_stream(&mut buf, Asn::new(6447), &observations(0, 100)).unwrap();
    fs::write(&big, buf).unwrap();
    paths.insert(1, big);

    let report = dir.join("report.json");
    let mut args = vec![
        "infer",
        "--top",
        "0",
        "--inject-panic-after",
        "50",
        "--report",
    ];
    args.push(report.to_str().unwrap());
    args.extend(mrt_args(&paths));
    let out = bgpcomm(&args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    // The run completed file-by-file (exit 3 signals the aborted file), the
    // panic was contained, and the report accounts for it.
    assert_eq!(out.status.code(), Some(EXIT_ABORTED), "{stderr}");
    assert!(stderr.contains("worker panicked"), "{stderr}");
    assert!(
        stderr.contains("injected fault"),
        "payload surfaced: {stderr}"
    );
    let report = fs::read_to_string(&report).expect("report written before exit");
    assert!(report.contains("\"panicked\": 1"), "{report}");

    // Strict mode: the same panic is a clean fail-fast decode error.
    let mut args = vec!["infer", "--strict", "--inject-panic-after", "50"];
    args.extend(mrt_args(&paths));
    let out = bgpcomm(&args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(EXIT_DECODE), "{stderr}");
    assert!(stderr.contains("panicked"), "{stderr}");
}

#[test]
fn flaky_delivery_is_retried_to_an_identical_result() {
    let dir = workdir("flaky");
    let paths = archives(&dir, 3, 40);
    let (out, clean) = infer_json(&paths, &dir.join("clean.json"), &[]);
    assert_eq!(out.status.code(), Some(0));
    let clean = clean.expect("clean labels written");

    // Small archives see only a couple of 64 KiB fill reads, i.e. few fault
    // draws per file — seed 1 is one whose schedule deterministically lands
    // at least one retryable fault on these inputs.
    let (out, labels) = infer_json(
        &paths,
        &dir.join("flaky.json"),
        &["--inject-flaky", "1", "--retry-attempts", "32"],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("I/O retry"), "retries surfaced: {stderr}");
    assert_eq!(
        labels.as_deref(),
        Some(&clean[..]),
        "retried ingestion must salvage every byte"
    );
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
