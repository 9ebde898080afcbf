//! End-to-end behavior of the serving layer: the artifact written by
//! `--artifact-out` must agree field-for-field (bit-exact f64s) with the
//! `--json` label file at any thread count — for both `infer` and a
//! quiescent `watch` — a corrupted artifact must be refused with exit 4,
//! and `query --check` must flag exactly the injected contradictions and
//! nothing on a clean training archive.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use bgp_artifact::LabelArtifact;
use bgp_mrt::obs::write_update_stream;
use bgp_types::{Asn, Community, Intent, Observation};

const EXIT_USAGE: i32 = 1;
const EXIT_CHECKPOINT: i32 = 4;
const EXIT_ANOMALY: i32 = 7;

fn bgpcomm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bgpcomm"))
        .args(args)
        .output()
        .expect("spawn bgpcomm")
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bgpcomm-query-{name}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Generate the small synthetic dataset and return the `--mrt` value.
fn generate(dir: &Path) -> String {
    let out = dir.to_str().unwrap();
    let gen = bgpcomm(&[
        "generate", "--out", out, "--scale", "0.1", "--days", "2", "--docs", "10",
    ]);
    assert_eq!(gen.status.code(), Some(0), "{}", stderr_of(&gen));
    format!("{out}/rib.mrt,{out}/updates.day1.mrt")
}

/// Assert the artifact at `bga` and the JSON label file at `json` carry
/// the same rows in the same order, with bit-exact floating-point fields.
fn assert_artifact_matches_json(bga: &Path, json: &Path) {
    let artifact = LabelArtifact::load(bga).expect("load artifact");
    let parsed: serde_json::Value = serde_json::from_slice(&fs::read(json).unwrap()).unwrap();
    let entries = parsed.as_array().expect("label array");
    assert_eq!(artifact.len(), entries.len(), "row count mismatch");
    for (i, entry) in entries.iter().enumerate() {
        let row = artifact.row(i);
        assert_eq!(
            row.community.to_string(),
            entry["community"].as_str().unwrap(),
            "community at {i}"
        );
        let intent = match row.label {
            Intent::Action => "action",
            Intent::Information => "information",
        };
        assert_eq!(intent, entry["intent"].as_str().unwrap(), "intent at {i}");
        assert_eq!(
            row.confidence.to_bits(),
            entry["confidence"].as_f64().unwrap().to_bits(),
            "confidence at {i} not bit-exact"
        );
        assert_eq!(
            row.ratio.to_bits(),
            entry["ratio"].as_f64().unwrap().to_bits(),
            "ratio at {i} not bit-exact"
        );
        assert_eq!(row.on_paths, entry["on_paths"].as_u64().unwrap());
        assert_eq!(row.off_paths, entry["off_paths"].as_u64().unwrap());
    }
}

#[test]
fn infer_artifact_agrees_with_json_at_every_thread_count() {
    let dir = workdir("parity");
    let mrt = generate(&dir);

    let mut artifacts = Vec::new();
    for threads in ["1", "2", "8"] {
        let json = dir.join(format!("labels-t{threads}.json"));
        let bga = dir.join(format!("labels-t{threads}.bga"));
        let out = bgpcomm(&[
            "infer",
            "--mrt",
            &mrt,
            "--threads",
            threads,
            "--json",
            json.to_str().unwrap(),
            "--artifact-out",
            bga.to_str().unwrap(),
            "--top",
            "0",
        ]);
        assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
        assert_artifact_matches_json(&bga, &json);
        artifacts.push((fs::read(&bga).unwrap(), fs::read(&json).unwrap()));
    }
    // The serving artifact inherits the repo's determinism invariant: the
    // bytes are identical at any thread count, not just equivalent.
    for (bga, json) in &artifacts[1..] {
        assert_eq!(
            bga, &artifacts[0].0,
            "artifact bytes differ across --threads"
        );
        assert_eq!(json, &artifacts[0].1, "label JSON differs across --threads");
    }
}

#[test]
fn quiescent_watch_artifact_agrees_with_batch_infer() {
    let dir = workdir("watch-parity");
    let mrt = generate(&dir);

    let batch_json = dir.join("batch.json");
    let batch_bga = dir.join("batch.bga");
    let out = bgpcomm(&[
        "infer",
        "--mrt",
        &mrt,
        "--json",
        batch_json.to_str().unwrap(),
        "--artifact-out",
        batch_bga.to_str().unwrap(),
        "--top",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));

    // The same bytes tailed by the streaming daemon to its quiescent
    // point. One big window keeps every observation cumulative, so the
    // final full classification must reproduce the batch labels exactly.
    let stream = dir.join("stream.mrt");
    let mut bytes = Vec::new();
    for part in mrt.split(',') {
        bytes.extend_from_slice(&fs::read(part).unwrap());
    }
    fs::write(&stream, bytes).unwrap();
    let watch_json = dir.join("watch.json");
    let watch_bga = dir.join("watch.bga");
    let out = bgpcomm(&[
        "watch",
        "--tail",
        stream.to_str().unwrap(),
        "--window-secs",
        "100000000",
        "--windows",
        "2",
        "--quiesce-after",
        "1",
        "--json",
        watch_json.to_str().unwrap(),
        "--artifact-out",
        watch_bga.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    assert_artifact_matches_json(&watch_bga, &watch_json);
    assert_eq!(
        fs::read(&watch_bga).unwrap(),
        fs::read(&batch_bga).unwrap(),
        "quiescent watch artifact must equal the batch artifact"
    );
}

#[test]
fn point_and_batch_lookups_agree_with_the_label_file() {
    let dir = workdir("lookup");
    let mrt = generate(&dir);
    let json = dir.join("labels.json");
    let bga = dir.join("labels.bga");
    let out = bgpcomm(&[
        "infer",
        "--mrt",
        &mrt,
        "--json",
        json.to_str().unwrap(),
        "--artifact-out",
        bga.to_str().unwrap(),
        "--top",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));

    let parsed: serde_json::Value = serde_json::from_slice(&fs::read(&json).unwrap()).unwrap();
    let entries = parsed.as_array().unwrap();
    let first = entries[0]["community"].as_str().unwrap().to_string();
    let intent = entries[0]["intent"].as_str().unwrap();

    // A hit, a guaranteed miss, and the same pair through a batch file.
    let out = bgpcomm(&[
        "query",
        "--artifact",
        bga.to_str().unwrap(),
        "--key",
        &format!("{first},65535:65535"),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let stdout = stdout_of(&out);
    assert!(
        stdout.contains(&format!("{first} {intent}")),
        "point lookup must report the labeled intent: {stdout}"
    );
    assert!(stdout.contains("65535:65535 unknown"), "{stdout}");

    let batch = dir.join("keys.txt");
    fs::write(&batch, format!("# batch fixture\n{first}\n65535:65535\n")).unwrap();
    let out = bgpcomm(&[
        "query",
        "--artifact",
        bga.to_str().unwrap(),
        "--batch",
        batch.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let stdout = stdout_of(&out);
    assert!(stdout.contains(&format!("{first} {intent}")), "{stdout}");
    assert!(stdout.contains("65535:65535 unknown"), "{stdout}");

    // Owner scan: every printed row belongs to the requested owner.
    let owner = first.split(':').next().unwrap();
    let out = bgpcomm(&[
        "query",
        "--artifact",
        bga.to_str().unwrap(),
        "--owner",
        owner,
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    for line in stdout_of(&out).lines() {
        assert!(
            line.starts_with(&format!("{owner}:")),
            "owner scan leaked a foreign row: {line}"
        );
    }
}

#[test]
fn corrupt_or_missing_artifacts_are_refused() {
    let dir = workdir("corrupt");
    let mrt = generate(&dir);
    let bga = dir.join("labels.bga");
    let out = bgpcomm(&[
        "infer",
        "--mrt",
        &mrt,
        "--artifact-out",
        bga.to_str().unwrap(),
        "--top",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));

    // A flipped payload byte fails closed with the checkpoint exit code.
    let mut bytes = fs::read(&bga).unwrap();
    bytes[48] ^= 0xff;
    let bad = dir.join("bad.bga");
    fs::write(&bad, &bytes).unwrap();
    for extra in [&["--key", "1:1"][..], &["--no-mmap", "--key", "1:1"][..]] {
        let out = bgpcomm(&[&["query", "--artifact", bad.to_str().unwrap()], extra].concat());
        assert_eq!(
            out.status.code(),
            Some(EXIT_CHECKPOINT),
            "corrupt artifact must exit {EXIT_CHECKPOINT}: {}",
            stderr_of(&out)
        );
        assert!(stderr_of(&out).contains("checksum"), "{}", stderr_of(&out));
    }

    // Truncation and a missing file are refused too (missing = usage).
    let truncated = dir.join("short.bga");
    fs::write(&truncated, &fs::read(&bga).unwrap()[..40]).unwrap();
    let out = bgpcomm(&[
        "query",
        "--artifact",
        truncated.to_str().unwrap(),
        "--key",
        "1:1",
    ]);
    assert_eq!(
        out.status.code(),
        Some(EXIT_CHECKPOINT),
        "{}",
        stderr_of(&out)
    );
    let out = bgpcomm(&[
        "query",
        "--artifact",
        dir.join("nope.bga").to_str().unwrap(),
        "--key",
        "1:1",
    ]);
    assert_eq!(out.status.code(), Some(EXIT_USAGE), "{}", stderr_of(&out));
}

/// A one-row label artifact in the version-1 layout of earlier builds: a
/// 48-byte header of its own (magic `BGPA`, version 1, entry and owner
/// counts, FNV-1a 64 of the payload, payload length, reserved word), then
/// the columns for `1299:35130` (information, confidence 1, ratio 37).
fn version_1_artifact() -> Vec<u8> {
    let mut payload = Community::new(1299, 35130)
        .packed_key()
        .to_le_bytes()
        .to_vec();
    payload.extend_from_slice(&[1, 0, 0, 0, 0, 0, 0, 0]);
    payload.extend_from_slice(&1.0f64.to_le_bytes());
    payload.extend_from_slice(&37.0f64.to_le_bytes());
    payload.extend_from_slice(&37u64.to_le_bytes());
    payload.extend_from_slice(&0u64.to_le_bytes());
    payload.extend_from_slice(&1299u32.to_le_bytes());
    payload.extend_from_slice(&0u32.to_le_bytes());
    let mut file = b"BGPA".to_vec();
    file.extend_from_slice(&1u32.to_le_bytes());
    // Entries, owners, checksum, payload length, reserved.
    for field in [1, 1, 0x9be9_5e35_baf1_c7c7, payload.len() as u64, 0] {
        file.extend_from_slice(&field.to_le_bytes());
    }
    file.extend_from_slice(&payload);
    file
}

#[test]
fn version_1_artifact_is_refused() {
    let dir = workdir("version-1");
    let old = dir.join("labels-v1.bga");
    fs::write(&old, version_1_artifact()).unwrap();
    for extra in [&[][..], &["--no-mmap"][..]] {
        let args = [
            &[
                "query",
                "--artifact",
                old.to_str().unwrap(),
                "--key",
                "1299:35130",
            ][..],
            extra,
        ]
        .concat();
        let out = bgpcomm(&args);
        assert_eq!(
            out.status.code(),
            Some(EXIT_CHECKPOINT),
            "{}",
            stderr_of(&out)
        );
        assert!(
            stderr_of(&out).contains("predates the binary label artifact format"),
            "{}",
            stderr_of(&out)
        );
    }
}

/// Version 2 had this build's layout with the payload sealed by FNV-1a 64:
/// an artifact this build encodes, renumbered, is refused on its version,
/// mapped or read, and left as it was.
#[test]
fn version_2_artifact_is_refused() {
    let dir = workdir("version-2");
    let old = dir.join("labels-v2.bga");
    let mut bytes = bgp_artifact::encode_artifact(&[bgp_artifact::LabelRow {
        community: Community::new(1299, 35130),
        label: Intent::Information,
        confidence: 1.0,
        ratio: 37.0,
        on_paths: 37,
        off_paths: 0,
    }])
    .unwrap();
    assert_eq!(&bytes[..12], b"BGPLABEL\x03\0\0\0");
    bytes[8] = 2;
    fs::write(&old, &bytes).unwrap();
    for extra in [&[][..], &["--no-mmap"][..]] {
        let args = [
            &[
                "query",
                "--artifact",
                old.to_str().unwrap(),
                "--key",
                "1299:35130",
            ][..],
            extra,
        ]
        .concat();
        let out = bgpcomm(&args);
        assert_eq!(
            out.status.code(),
            Some(EXIT_CHECKPOINT),
            "{}",
            stderr_of(&out)
        );
        assert!(
            stderr_of(&out).contains("label artifact version 2, this build reads version 3"),
            "{}",
            stderr_of(&out)
        );
        assert_eq!(fs::read(&old).unwrap(), bytes, "refused, not rewritten");
    }
}

/// A training archive whose labels are unanimous: owner 1299 signals
/// `1299:35130` only on-path (information) and `1299:2569` only off-path
/// (action), while `3356:100` is seen on both sides (ratio-labeled, so
/// the checker must never flag it).
fn training_observations() -> Vec<Observation> {
    let obs = |path: &str, comms: &[(u16, u16)], i: u32| Observation {
        vp: path.split_whitespace().next().unwrap().parse().unwrap(),
        prefix: format!("10.{}.0.0/24", i).parse().unwrap(),
        path: path.parse().unwrap(),
        communities: comms.iter().map(|&(a, b)| Community::new(a, b)).collect(),
        large_communities: Vec::new(),
        time: 1_000_000 + i * 60,
    };
    let mut all = Vec::new();
    // 1299 on-path with the information community, many distinct paths.
    for i in 0..24u32 {
        all.push(obs(
            &format!("{} 1299 {}", 64500 + i % 4, 64496 + i % 6),
            &[(1299, 35130), (3356, 100)],
            i,
        ));
    }
    // 1299 never on-path for the action community.
    for i in 24..48u32 {
        all.push(obs(
            &format!("{} 3356 {}", 64500 + i % 4, 64496 + i % 6),
            &[(1299, 2569), (3356, 100)],
            i,
        ));
    }
    all
}

fn write_archive(path: &Path, observations: &[Observation]) {
    let mut buf = Vec::new();
    write_update_stream(&mut buf, Asn::new(6447), observations).unwrap();
    fs::write(path, buf).unwrap();
}

#[test]
fn check_flags_exactly_the_injected_contradictions() {
    let dir = workdir("check");
    let training = dir.join("training.mrt");
    write_archive(&training, &training_observations());

    let bga = dir.join("labels.bga");
    let out = bgpcomm(&[
        "infer",
        "--mrt",
        training.to_str().unwrap(),
        "--artifact-out",
        bga.to_str().unwrap(),
        "--top",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));

    // The training archive itself must check clean: zero anomalies, exit 0.
    let out = bgpcomm(&[
        "query",
        "--artifact",
        bga.to_str().unwrap(),
        "--check",
        training.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let stdout = stdout_of(&out);
    assert!(stdout.contains("0 anomalies"), "{stdout}");
    assert!(!stdout.contains("anomaly "), "{stdout}");

    // Seed two contradictions — the unanimous information community seen
    // off-path and the unanimous action community seen on-path — plus two
    // placements of the mixed community, which must never be flagged.
    let obs = |path: &str, comms: &[(u16, u16)], i: u32| Observation {
        vp: path.split_whitespace().next().unwrap().parse().unwrap(),
        prefix: format!("10.200.{}.0/24", i).parse().unwrap(),
        path: path.parse().unwrap(),
        communities: comms.iter().map(|&(a, b)| Community::new(a, b)).collect(),
        large_communities: Vec::new(),
        time: 2_000_000 + i * 60,
    };
    let seeded = vec![
        obs("64500 3356 64499", &[(1299, 35130), (3356, 100)], 0),
        obs("64501 1299 64498", &[(1299, 2569)], 1),
        obs("64502 64497", &[(3356, 100)], 2),
    ];
    let contradicting = dir.join("contradicting.mrt");
    write_archive(&contradicting, &seeded);

    let out = bgpcomm(&[
        "query",
        "--artifact",
        bga.to_str().unwrap(),
        "--check",
        contradicting.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(EXIT_ANOMALY),
        "contradictions must exit {EXIT_ANOMALY}: {}",
        stderr_of(&out)
    );
    let stdout = stdout_of(&out);
    let anomalies: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("anomaly "))
        .collect();
    assert_eq!(
        anomalies.len(),
        2,
        "exactly the injected contradictions: {stdout}"
    );
    assert!(
        anomalies[0].contains("information-off-path") && anomalies[0].contains("1299:35130"),
        "{stdout}"
    );
    assert!(
        anomalies[1].contains("action-on-path") && anomalies[1].contains("1299:2569"),
        "{stdout}"
    );
    assert!(stdout.contains("2 anomalies"), "{stdout}");

    // Checked after the training archive, the same contradictions carry
    // observation indices that count on across both files in input order.
    let both = format!(
        "{},{}",
        training.to_str().unwrap(),
        contradicting.to_str().unwrap()
    );
    let out = bgpcomm(&[
        "query",
        "--artifact",
        bga.to_str().unwrap(),
        "--check",
        &both,
    ]);
    assert_eq!(out.status.code(), Some(EXIT_ANOMALY), "{}", stderr_of(&out));
    let two_files = stdout_of(&out);
    let offset: Vec<String> = anomalies
        .iter()
        .map(|l| l.replace("obs=0", "obs=48").replace("obs=1", "obs=49"))
        .collect();
    let found: Vec<&str> = two_files
        .lines()
        .filter(|l| l.starts_with("anomaly "))
        .collect();
    assert_eq!(found, offset, "{two_files}");
    assert!(found[0].ends_with("obs=48") && found[1].ends_with("obs=49"));
    assert!(two_files.contains("check: 51 observations"), "{two_files}");
}

#[test]
fn bench_mode_reports_throughput() {
    let dir = workdir("bench");
    let mrt = generate(&dir);
    let bga = dir.join("labels.bga");
    let out = bgpcomm(&[
        "infer",
        "--mrt",
        &mrt,
        "--artifact-out",
        bga.to_str().unwrap(),
        "--top",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));

    let metrics = dir.join("metrics.json");
    let out = bgpcomm(&[
        "query",
        "--artifact",
        bga.to_str().unwrap(),
        "--bench",
        "20000",
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let stderr = stderr_of(&out);
    assert!(stderr.contains("Mlookups/s"), "{stderr}");

    let snapshot: serde_json::Value = serde_json::from_slice(&fs::read(&metrics).unwrap()).unwrap();
    let counters = snapshot["counters"].as_object().unwrap();
    assert_eq!(counters["query/lookups"].as_u64(), Some(20000));
    let hits = counters["query/hits"].as_u64().unwrap();
    let misses = counters["query/misses"].as_u64().unwrap();
    assert_eq!(hits + misses, 20000);
    assert!(hits > 0, "bench workload must contain hits");
}
