//! End-to-end behavior of `bgpcomm watch` and `bgpcomm feed`: the daemon's
//! quiescent-point labels must be byte-identical to a batch `infer` over
//! the same delivered bytes — including under injected disconnects, stalls,
//! and corrupt bursts — a kill -9 mid-run must resume from the checkpoint
//! without double-counting, and the bounded ingest queue must exhibit
//! explicit backpressure instead of unbounded growth.

use std::fs;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

use bgp_mrt::obs::write_update_stream;
use bgp_types::{Asn, Community, Observation};

const EXIT_ABORTED: i32 = 3;
const EXIT_CRASH: i32 = 9;

fn bgpcomm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bgpcomm"))
        .args(args)
        .output()
        .expect("spawn bgpcomm")
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bgpcomm-watch-{name}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Observations whose timestamps stride 400s apart, so a 3600s window
/// advances roughly every 9 of them — plenty of window churn per archive.
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
                time: 1_000_000 + i * 400,
            }
        })
        .collect()
}

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

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A `feed` subprocess, killed and reaped when dropped — also when a failed
/// assertion unwinds its test — so no listener outlives the test.
struct Feed(Child);

impl Drop for Feed {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Start a `feed` subprocess serving the given archives and read the bound
/// address off its stdout.
fn spawn_feed(paths: &[PathBuf], throttle: Option<&str>) -> (Feed, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_bgpcomm"));
    cmd.arg("feed").arg("--listen").arg("127.0.0.1:0");
    for p in paths {
        cmd.arg("--mrt").arg(p);
    }
    if let Some(t) = throttle {
        cmd.arg("--throttle").arg(t);
    }
    cmd.stdout(Stdio::piped()).stderr(Stdio::null());
    let mut feed = Feed(cmd.spawn().expect("spawn feed"));
    let stdout = feed.0.stdout.take().expect("feed stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read feed banner");
    let addr = line
        .split_whitespace()
        .nth(2)
        .unwrap_or_else(|| panic!("feed banner without address: {line:?}"))
        .to_string();
    (feed, addr)
}

/// Run `watch` against `addr` with labels + metrics under `dir/<tag>.*`.
fn run_watch(addr: &str, dir: &Path, tag: &str, extra: &[&str]) -> Output {
    let json = dir.join(format!("{tag}.json"));
    let metrics = dir.join(format!("{tag}-metrics.json"));
    let ckpt = dir.join(format!("{tag}.ckpt"));
    let mut args = vec![
        "watch".to_string(),
        "--connect".into(),
        addr.into(),
        "--window-secs".into(),
        "3600".into(),
        "--windows".into(),
        "6".into(),
        "--quiesce-after".into(),
        "2".into(),
        "--stall-ms".into(),
        "300".into(),
        "--checkpoint".into(),
        ckpt.to_str().unwrap().into(),
        "--json".into(),
        json.to_str().unwrap().into(),
        "--metrics-out".into(),
        metrics.to_str().unwrap().into(),
    ];
    args.extend(extra.iter().map(|s| s.to_string()));
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
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

#[test]
fn quiescent_watch_matches_batch_infer_bit_for_bit() {
    let dir = workdir("parity");
    let paths = archives(&dir, 3, 60);
    let batch = bgpcomm(
        &[
            &["infer", "--json", dir.join("batch.json").to_str().unwrap()],
            &mrt_args(&paths)[..],
        ]
        .concat(),
    );
    assert_eq!(batch.status.code(), Some(0), "{}", stderr_of(&batch));

    let (feed, addr) = spawn_feed(&paths, None);
    let out = run_watch(&addr, &dir, "clean", &[]);
    drop(feed);
    let stderr = stderr_of(&out);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert_eq!(
        read(&dir, "clean.json"),
        read(&dir, "batch.json"),
        "quiescent-point labels must equal a batch run over the same bytes"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("window advances"),
        "summary must report window churn: {stdout}"
    );
    let c = counters(&dir, "clean");
    assert!(c["watch/windows_advanced"].as_u64().unwrap() > 0);
    assert!(c["watch/records"].as_u64().unwrap() > 0);
}

#[test]
fn injected_disconnects_stalls_and_corruption_do_not_change_the_labels() {
    let dir = workdir("faults");
    let paths = archives(&dir, 3, 60);
    let batch = bgpcomm(
        &[
            &["infer", "--json", dir.join("batch.json").to_str().unwrap()],
            &mrt_args(&paths)[..],
        ]
        .concat(),
    );
    assert_eq!(batch.status.code(), Some(0), "{}", stderr_of(&batch));

    // Aggressive schedule: most connections get hit by one of the five
    // stream fault kinds (disconnect mid-frame, indefinite stall, partial
    // frame, duplicate delivery, corrupt burst).
    let (feed, addr) = spawn_feed(&paths, None);
    let out = run_watch(
        &addr,
        &dir,
        "faulty",
        &["--inject-stream-faults", "99:0.9", "--retry-attempts", "8"],
    );
    drop(feed);
    let stderr = stderr_of(&out);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert_eq!(
        read(&dir, "faulty.json"),
        read(&dir, "batch.json"),
        "reconnect-and-resume must deliver the same labels under faults"
    );
    let c = counters(&dir, "faulty");
    assert!(
        c["stream/reconnects"].as_u64().unwrap() > 0,
        "the fault schedule must actually interrupt delivery: {c:?}"
    );
}

#[test]
fn feed_outage_mid_run_is_survived_by_reconnecting_at_the_cursor() {
    let dir = workdir("outage");
    let paths = archives(&dir, 3, 60);
    let batch = bgpcomm(
        &[
            &["infer", "--json", dir.join("batch.json").to_str().unwrap()],
            &mrt_args(&paths)[..],
        ]
        .concat(),
    );
    assert_eq!(batch.status.code(), Some(0), "{}", stderr_of(&batch));

    // Pin a port by briefly binding it, so a second feed can come back on
    // the same address after the first is killed.
    let port = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().port()
    };
    let addr = format!("127.0.0.1:{port}");

    // First feed trickles bytes out slowly, then dies mid-delivery (a real
    // collector outage, not an injected one).
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_bgpcomm"));
    cmd.arg("feed").arg("--listen").arg(&addr);
    for p in &paths {
        cmd.arg("--mrt").arg(p);
    }
    cmd.arg("--throttle").arg("2048:10");
    cmd.stdout(Stdio::null()).stderr(Stdio::null());
    let feed1 = Feed(cmd.spawn().expect("spawn feed"));

    let watcher = {
        let dir = dir.clone();
        let addr = addr.clone();
        std::thread::spawn(move || run_watch(&addr, &dir, "outage", &["--retry-attempts", "40"]))
    };
    std::thread::sleep(Duration::from_millis(600));
    drop(feed1);
    std::thread::sleep(Duration::from_millis(300));
    // Recovery: a fresh feed on the same address serves the full stream;
    // the daemon reconnects at its cursor and finishes.
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_bgpcomm"));
    cmd.arg("feed").arg("--listen").arg(&addr);
    for p in &paths {
        cmd.arg("--mrt").arg(p);
    }
    cmd.stdout(Stdio::null()).stderr(Stdio::null());
    let feed2 = Feed(cmd.spawn().expect("respawn feed"));

    let out = watcher.join().expect("watch thread");
    drop(feed2);
    let stderr = stderr_of(&out);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert_eq!(
        read(&dir, "outage.json"),
        read(&dir, "batch.json"),
        "an outage plus reconnect must not change the labels"
    );
}

#[test]
fn kill_nine_mid_run_resumes_from_the_checkpoint_without_double_counting() {
    let dir = workdir("crash");
    let paths = archives(&dir, 3, 60);
    let batch = bgpcomm(
        &[
            &["infer", "--json", dir.join("batch.json").to_str().unwrap()],
            &mrt_args(&paths)[..],
        ]
        .concat(),
    );
    assert_eq!(batch.status.code(), Some(0), "{}", stderr_of(&batch));

    // The uninterrupted run leaves the checkpoint every resumed run must
    // leave, and its advance count places the last crash point.
    let (feed, addr) = spawn_feed(&paths, None);
    let out = run_watch(&addr, &dir, "clean", &[]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let advances = counters(&dir, "clean")["watch/windows_advanced"]
        .as_u64()
        .unwrap();
    assert!(advances > 4, "{advances} advances");

    // Each crash point resumes from a different window state, so the
    // resume's first reclassification compares a different diff base.
    for after in [1, 2, 4, advances] {
        let tag = format!("crash{after}");
        // The first run dies like a SIGKILL (exit 9, no checkpoint flush,
        // no cleanup) at the record that makes advance `after`, before
        // that advance's save: the checkpoint on disk is the previous
        // advance's, and there is none before the first.
        let out = run_watch(
            &addr,
            &dir,
            &tag,
            &["--inject-crash-after-windows", &after.to_string()],
        );
        assert_eq!(out.status.code(), Some(EXIT_CRASH), "{}", stderr_of(&out));
        assert_eq!(
            dir.join(format!("{tag}.ckpt")).exists(),
            after > 1,
            "a checkpoint exists from before the crash at advance {after}"
        );

        // Second run, same command minus the injection: resumes at the
        // checkpoint cursor and finishes; re-delivered bytes are absorbed
        // by the content-based statistics, so the labels still equal the
        // batch run — no double-counting.
        let out = run_watch(&addr, &dir, &tag, &[]);
        let stderr = stderr_of(&out);
        assert_eq!(out.status.code(), Some(0), "{stderr}");
        assert_eq!(
            stderr.contains("resumed from checkpoint"),
            after > 1,
            "crash at advance {after}: {stderr}"
        );
        assert_eq!(
            read(&dir, &format!("{tag}.json")),
            read(&dir, "batch.json"),
            "crash at advance {after} + resume must be bit-identical to an uninterrupted batch run"
        );
        // And the checkpoint it leaves — manifest and segment log — is the
        // one an uninterrupted run leaves.
        for ext in ["ckpt", "ckpt.seg"] {
            assert_eq!(
                read(&dir, &format!("{tag}.{ext}")),
                read(&dir, &format!("clean.{ext}")),
                "{tag}.{ext} differs from an uninterrupted run's"
            );
        }
    }
    drop(feed);
}

#[test]
fn backpressure_bounds_the_ingest_queue_under_a_slow_consumer() {
    let dir = workdir("backpressure");
    let paths = archives(&dir, 3, 60);
    let (feed, addr) = spawn_feed(&paths, None);
    // 4 KiB queue, 1 KiB chunks, and a consumer that sleeps per record:
    // the producer must hit the queue cap and block, not buffer the whole
    // stream.
    let out = run_watch(
        &addr,
        &dir,
        "slow",
        &["--queue-kb", "4", "--chunk-kb", "1", "--slow-fold-ms", "2"],
    );
    drop(feed);
    let stderr = stderr_of(&out);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let c = counters(&dir, "slow");
    assert!(
        c["ingest/backpressure_stalls"].as_u64().unwrap() > 0,
        "slow consumer must observe backpressure: {c:?}"
    );
    let snapshot: serde_json::Value =
        serde_json::from_slice(&read(&dir, "slow-metrics.json")).unwrap();
    let peak = snapshot["gauges"]["stream/queue_peak_bytes"]
        .as_u64()
        .unwrap();
    // Queue cap + one chunk in the producer's hand + one in the consumer's.
    assert!(
        peak <= (4 + 2) * 1024,
        "queue occupancy must respect the cap: peak {peak}"
    );
}

#[test]
fn watch_refuses_a_checkpoint_with_different_window_geometry() {
    let dir = workdir("geometry");
    let paths = archives(&dir, 2, 40);
    let (feed, addr) = spawn_feed(&paths, None);
    let out = run_watch(&addr, &dir, "geom", &[]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));

    // Same checkpoint, different --windows: refused with the checkpoint
    // exit code, not silently reinterpreted.
    let ckpt = dir.join("geom.ckpt");
    let out = bgpcomm(&[
        "watch",
        "--connect",
        &addr,
        "--window-secs",
        "3600",
        "--windows",
        "3",
        "--quiesce-after",
        "2",
        "--checkpoint",
        ckpt.to_str().unwrap(),
    ]);
    drop(feed);
    assert_eq!(out.status.code(), Some(4), "{}", stderr_of(&out));
    assert!(stderr_of(&out).contains("geometry"), "{}", stderr_of(&out));
}

#[test]
fn watch_refuses_a_json_checkpoint_from_before_the_binary_format() {
    let dir = workdir("legacy");
    let paths = archives(&dir, 2, 40);
    // The head of a schema-1 checkpoint as earlier builds wrote it.
    fs::write(
        dir.join("legacy.ckpt"),
        br#"{"schema":1,"checksum":0,"cursor":4096,"records":10,"buckets":[]}"#,
    )
    .unwrap();
    let (feed, addr) = spawn_feed(&paths, None);
    let out = run_watch(&addr, &dir, "legacy", &[]);
    drop(feed);
    let stderr = stderr_of(&out);
    assert_eq!(out.status.code(), Some(4), "{stderr}");
    assert!(stderr.contains("predates the binary"), "{stderr}");
    assert!(stderr.contains("delete it"), "{stderr}");
    // Refused, not overwritten: the operator decides what to do with it.
    assert!(read(&dir, "legacy.ckpt").starts_with(b"{"));
}

#[test]
fn watch_refuses_a_version_2_checkpoint_with_fingerprint_sets() {
    let dir = workdir("version-2");
    let paths = archives(&dir, 2, 40);
    // Version 2 as the previous build wrote it, for an empty state: the
    // nine scalars (a 3600 s x 6 window), an empty cumulative fingerprint
    // snapshot, no buckets, an empty diff base, no labels or exclusions.
    let mut payload = words(&[0, 0, 0, 0, 0, 0, 0, 3600, 6]);
    payload.extend(words(&[0; 4]));
    payload.extend(words(&[0]));
    payload.extend(words(&[0; 6]));
    payload.extend(words(&[0; 4]));
    let legacy = sealed(*b"BGPWCKPT", 2, &payload);
    fs::write(dir.join("legacy.ckpt"), &legacy).unwrap();
    let (feed, addr) = spawn_feed(&paths, None);
    let out = run_watch(&addr, &dir, "legacy", &[]);
    drop(feed);
    let stderr = stderr_of(&out);
    assert_eq!(out.status.code(), Some(4), "{stderr}");
    assert!(
        stderr.contains("checkpoint version 2, this build reads version 8"),
        "{stderr}"
    );
    assert_eq!(
        read(&dir, "legacy.ckpt"),
        legacy,
        "refused, not overwritten"
    );
}

#[test]
fn watch_refuses_a_version_3_checkpoint_that_holds_the_segment_in_one_file() {
    let dir = workdir("version-3");
    let paths = archives(&dir, 2, 40);
    // Version 3 for an empty state: the nine scalars (a 3600 s x 6
    // window), an empty segment (ten empty columns), no buckets, an empty
    // diff base, no labels or exclusions.
    let mut payload = words(&[0, 0, 0, 0, 0, 0, 0, 3600, 6]);
    payload.extend(words(&[0; 10]));
    payload.extend(words(&[0]));
    payload.extend(words(&[0; 6]));
    payload.extend(words(&[0; 4]));
    let legacy = sealed(*b"BGPWCKPT", 3, &payload);
    fs::write(dir.join("legacy.ckpt"), &legacy).unwrap();
    let (feed, addr) = spawn_feed(&paths, None);
    let out = run_watch(&addr, &dir, "legacy", &[]);
    drop(feed);
    let stderr = stderr_of(&out);
    assert_eq!(out.status.code(), Some(4), "{stderr}");
    assert!(
        stderr.contains("checkpoint version 3, this build reads version 8"),
        "{stderr}"
    );
    assert_eq!(
        read(&dir, "legacy.ckpt"),
        legacy,
        "refused, not overwritten"
    );
    assert!(!dir.join("legacy.ckpt.seg").exists());
}

#[test]
fn watch_refuses_a_version_4_checkpoint_without_the_counted_tuples() {
    let dir = workdir("version-4");
    let paths = archives(&dir, 2, 40);
    // Version 4 for an empty state: the nine scalars (a 3600 s x 6
    // window), an empty log range and its checksum, an empty segment's
    // counts, no buckets, empty windowed counts without per-ASN path
    // counts, no labels or exclusions.
    let mut payload = words(&[0, 0, 0, 0, 0, 0, 0, 3600, 6]);
    payload.extend(words(&[0, 0, bgp_types::persist::checksum(b"")]));
    payload.extend(words(&[0; 4]));
    payload.extend(words(&[0]));
    payload.extend(words(&[0; 6]));
    payload.extend(words(&[0; 4]));
    let legacy = sealed(*b"BGPWCKPT", 4, &payload);
    fs::write(dir.join("legacy.ckpt"), &legacy).unwrap();
    fs::write(dir.join("legacy.ckpt.seg"), b"").unwrap();
    let (feed, addr) = spawn_feed(&paths, None);
    let out = run_watch(&addr, &dir, "legacy", &[]);
    drop(feed);
    let stderr = stderr_of(&out);
    assert_eq!(out.status.code(), Some(4), "{stderr}");
    assert!(
        stderr.contains("checkpoint version 4, this build reads version 8"),
        "{stderr}"
    );
    assert_eq!(
        read(&dir, "legacy.ckpt"),
        legacy,
        "refused, not overwritten"
    );
    assert!(read(&dir, "legacy.ckpt.seg").is_empty());
}

/// Version 5 had this build's layout, with the manifest sealed and the
/// log's committed range checked by FNV-1a 64: a checkpoint this build
/// wrote, renumbered, is refused on its version and neither file changes.
#[test]
fn watch_refuses_a_version_5_checkpoint() {
    let dir = workdir("version-5");
    let paths = archives(&dir, 2, 40);
    let (feed, addr) = spawn_feed(&paths, None);
    let out = run_watch(&addr, &dir, "legacy", &[]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let mut legacy = read(&dir, "legacy.ckpt");
    assert_eq!(&legacy[..12], b"BGPWCKPT\x08\0\0\0");
    legacy[8] = 5;
    fs::write(dir.join("legacy.ckpt"), &legacy).unwrap();
    let log = read(&dir, "legacy.ckpt.seg");
    let out = run_watch(&addr, &dir, "legacy", &[]);
    drop(feed);
    let stderr = stderr_of(&out);
    assert_eq!(out.status.code(), Some(4), "{stderr}");
    assert!(
        stderr.contains("checkpoint version 5, this build reads version 8"),
        "{stderr}"
    );
    assert_eq!(
        read(&dir, "legacy.ckpt"),
        legacy,
        "refused, not overwritten"
    );
    assert_eq!(read(&dir, "legacy.ckpt.seg"), log);
}

/// Version 6 logged each list entry's community value in place of its
/// slot: a checkpoint this build wrote, renumbered, is refused on its
/// version and neither file changes.
#[test]
fn watch_refuses_a_version_6_checkpoint() {
    let dir = workdir("version-6");
    let paths = archives(&dir, 2, 40);
    let (feed, addr) = spawn_feed(&paths, None);
    let out = run_watch(&addr, &dir, "legacy", &[]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let mut legacy = read(&dir, "legacy.ckpt");
    assert_eq!(&legacy[..12], b"BGPWCKPT\x08\0\0\0");
    legacy[8] = 6;
    fs::write(dir.join("legacy.ckpt"), &legacy).unwrap();
    let log = read(&dir, "legacy.ckpt.seg");
    let out = run_watch(&addr, &dir, "legacy", &[]);
    drop(feed);
    let stderr = stderr_of(&out);
    assert_eq!(out.status.code(), Some(4), "{stderr}");
    assert!(
        stderr.contains("checkpoint version 6, this build reads version 8"),
        "{stderr}"
    );
    assert_eq!(
        read(&dir, "legacy.ckpt"),
        legacy,
        "refused, not overwritten"
    );
    assert_eq!(
        read(&dir, "legacy.ckpt.seg"),
        log,
        "the log is left as it is"
    );
}

/// Version 7 did not record the segment's statistics at the exit save:
/// a checkpoint this build wrote, renumbered, is refused on its version
/// and neither file changes.
#[test]
fn watch_refuses_a_version_7_checkpoint() {
    let dir = workdir("version-7");
    let paths = archives(&dir, 2, 40);
    let (feed, addr) = spawn_feed(&paths, None);
    let out = run_watch(&addr, &dir, "legacy", &[]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let mut legacy = read(&dir, "legacy.ckpt");
    assert_eq!(&legacy[..12], b"BGPWCKPT\x08\0\0\0");
    legacy[8] = 7;
    fs::write(dir.join("legacy.ckpt"), &legacy).unwrap();
    let log = read(&dir, "legacy.ckpt.seg");
    let out = run_watch(&addr, &dir, "legacy", &[]);
    drop(feed);
    let stderr = stderr_of(&out);
    assert_eq!(out.status.code(), Some(4), "{stderr}");
    assert!(
        stderr.contains("checkpoint version 7, this build reads version 8"),
        "{stderr}"
    );
    assert_eq!(
        read(&dir, "legacy.ckpt"),
        legacy,
        "refused, not overwritten"
    );
    assert_eq!(
        read(&dir, "legacy.ckpt.seg"),
        log,
        "the log is left as it is"
    );
}

/// Run `watch --tail` over `tail` with the checkpoint at `ckpt`.
fn tail_watch(tail: &Path, ckpt: &Path, extra: &[&str]) -> Output {
    let mut args = vec![
        "watch",
        "--tail",
        tail.to_str().unwrap(),
        "--window-secs",
        "3600",
        "--windows",
        "6",
        "--quiesce-after",
        "1",
        "--stall-ms",
        "200",
        "--checkpoint",
        ckpt.to_str().unwrap(),
    ];
    args.extend(extra);
    bgpcomm(&args)
}

/// The archives of `paths` back to back, as one file to tail.
fn concatenated(dir: &Path, paths: &[PathBuf]) -> PathBuf {
    let all = dir.join("all.mrt");
    let bytes: Vec<u8> = paths.iter().flat_map(|p| fs::read(p).unwrap()).collect();
    fs::write(&all, bytes).unwrap();
    all
}

#[test]
fn watch_refuses_a_torn_or_missing_segment_log() {
    let dir = workdir("torn-log");
    let tail = concatenated(&dir, &archives(&dir, 3, 60));
    let ckpt = dir.join("w.ckpt");
    let out = tail_watch(&tail, &ckpt, &[]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let log_path = dir.join("w.ckpt.seg");
    let log = read(&dir, "w.ckpt.seg");
    let manifest = read(&dir, "w.ckpt");

    // Cut below its committed length: exit 4, never resumed from, and the
    // files are left as they were.
    fs::write(&log_path, &log[..log.len() / 2]).unwrap();
    let out = tail_watch(&tail, &ckpt, &[]);
    let stderr = stderr_of(&out);
    assert_eq!(out.status.code(), Some(4), "{stderr}");
    assert!(
        stderr.contains("corrupt or truncated checkpoint"),
        "{stderr}"
    );
    assert!(
        stderr.contains(&format!(
            "{} bytes committed, {} present",
            log.len(),
            log.len() / 2
        )),
        "{stderr}"
    );
    assert_eq!(read(&dir, "w.ckpt"), manifest);
    assert_eq!(read(&dir, "w.ckpt.seg"), &log[..log.len() / 2]);

    // Missing: exit 4, naming the log.
    fs::remove_file(&log_path).unwrap();
    let out = tail_watch(&tail, &ckpt, &[]);
    let stderr = stderr_of(&out);
    assert_eq!(out.status.code(), Some(4), "{stderr}");
    assert!(
        stderr.contains("corrupt or truncated checkpoint"),
        "{stderr}"
    );
    assert!(stderr.contains("w.ckpt.seg"), "{stderr}");

    // Junk past the committed length is ignored, then dropped by the
    // resumed run's next save.
    fs::write(&log_path, [log.as_slice(), &[0xee; 5000]].concat()).unwrap();
    let out = tail_watch(&tail, &ckpt, &[]);
    let stderr = stderr_of(&out);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("resumed from checkpoint"), "{stderr}");
}

#[test]
fn watch_names_its_checkpoint_file_when_it_cannot_write_it() {
    let dir = workdir("unwritable");
    let tail = concatenated(&dir, &archives(&dir, 3, 60));

    // A checkpoint directory that does not exist is refused before the
    // stream is opened: nothing is folded or printed.
    let missing = dir.join("nonexistent/dir");
    let out = tail_watch(&tail, &missing.join("w.ckpt"), &[]);
    let stderr = stderr_of(&out);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(&format!(
            "checkpoint directory {} does not exist",
            missing.display()
        )),
        "{stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );

    // The log cannot be written (a directory is in its place).
    let ckpt = dir.join("log.ckpt");
    fs::create_dir(dir.join("log.ckpt.seg")).unwrap();
    let out = tail_watch(&tail, &ckpt, &[]);
    let stderr = stderr_of(&out);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(&format!(
            "watch: append checkpoint log {}.seg: ",
            ckpt.display()
        )),
        "{stderr}"
    );

    // The manifest cannot be written (a directory is in its temp file's
    // place).
    let ckpt = dir.join("manifest.ckpt");
    fs::create_dir(dir.join("manifest.ckpt.tmp")).unwrap();
    let out = tail_watch(&tail, &ckpt, &[]);
    let stderr = stderr_of(&out);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(&format!("watch: write checkpoint {}: ", ckpt.display())),
        "{stderr}"
    );
}

/// A restart whose manifest write fails (a directory stands where its temp
/// file goes) exits 1 and leaves the crashed run's manifest as it was; the
/// next restart resumes from it and writes an uninterrupted run's labels.
#[test]
fn a_failed_manifest_write_leaves_the_previous_watch_commit() {
    let dir = workdir("failed-manifest-write");
    let tail = concatenated(&dir, &archives(&dir, 3, 60));
    let clean = dir.join("clean.json");
    let out = tail_watch(
        &tail,
        &dir.join("clean.ckpt"),
        &["--json", clean.to_str().unwrap()],
    );
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));

    let ckpt = dir.join("w.ckpt");
    let out = tail_watch(&tail, &ckpt, &["--inject-crash-after-windows", "4"]);
    assert_eq!(out.status.code(), Some(EXIT_CRASH), "{}", stderr_of(&out));
    let manifest = read(&dir, "w.ckpt");

    let blocker = bgp_types::persist::temp_path(&ckpt);
    fs::create_dir(&blocker).unwrap();
    let out = tail_watch(&tail, &ckpt, &[]);
    let stderr = stderr_of(&out);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(&format!("watch: write checkpoint {}: ", ckpt.display())),
        "{stderr}"
    );
    assert_eq!(read(&dir, "w.ckpt"), manifest, "the manifest changed");

    fs::remove_dir(&blocker).unwrap();
    let json = dir.join("resumed.json");
    let out = tail_watch(&tail, &ckpt, &["--json", json.to_str().unwrap()]);
    let stderr = stderr_of(&out);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("resumed from checkpoint"), "{stderr}");
    assert_eq!(
        read(&dir, "resumed.json"),
        read(&dir, "clean.json"),
        "the resumed labels differ from an uninterrupted run's"
    );
}

/// `--metrics-out` reports the checkpoint I/O: the writes and the bytes
/// written (manifests plus appended log frames) repeat exactly across runs
/// and thread counts, and the log is written once, not once per save.
#[test]
fn watch_metrics_count_checkpoint_writes_and_bytes_exactly() {
    let dir = workdir("checkpoint-metrics");
    let tail = concatenated(&dir, &archives(&dir, 3, 60));
    let mut seen = Vec::new();
    for (run, threads) in ["1", "2", "1"].into_iter().enumerate() {
        let ckpt = dir.join(format!("run{run}.ckpt"));
        let metrics = dir.join(format!("run{run}-metrics.json"));
        let out = tail_watch(
            &tail,
            &ckpt,
            &[
                "--threads",
                threads,
                "--metrics-out",
                metrics.to_str().unwrap(),
            ],
        );
        assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
        let snapshot: serde_json::Value =
            serde_json::from_slice(&fs::read(&metrics).unwrap()).unwrap();
        let c = &snapshot["counters"];
        let writes = c["checkpoint/writes"].as_u64().unwrap();
        let bytes = c["checkpoint/bytes_written"].as_u64().unwrap();
        let advances = c["watch/windows_advanced"].as_u64().unwrap();
        assert_eq!(
            writes,
            advances + 1,
            "one save per advance plus the final one"
        );
        let log = fs::metadata(dir.join(format!("run{run}.ckpt.seg")))
            .unwrap()
            .len();
        let manifest = fs::metadata(&ckpt).unwrap().len();
        assert!(
            bytes >= log + manifest,
            "{bytes} bytes written, {log} + {manifest} on disk"
        );
        assert!(
            bytes < log + writes * manifest * 2,
            "{bytes} bytes for {writes} saves"
        );
        assert!(
            snapshot["timings"]["time/checkpoint_write_ns"]
                .as_u64()
                .unwrap()
                > 0
        );
        seen.push((writes, bytes));
    }
    assert!(seen[0].0 > 5, "{seen:?}");
    assert!(seen.iter().all(|s| *s == seen[0]), "{seen:?}");
}

/// `--metrics-out` reports the reclassification work: the paths this
/// process recounted repeat exactly across runs and thread counts, and
/// no reclassification recounts more than every unique path.
#[test]
fn watch_metrics_count_the_paths_its_reclassifications_recount() {
    let dir = workdir("recount-metrics");
    let tail = concatenated(&dir, &archives(&dir, 3, 60));
    let infer_metrics = dir.join("infer-metrics.json");
    let out = bgpcomm(&[
        "infer",
        "--mrt",
        tail.to_str().unwrap(),
        "--metrics-out",
        infer_metrics.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let snapshot: serde_json::Value =
        serde_json::from_slice(&fs::read(&infer_metrics).unwrap()).unwrap();
    let unique_paths = snapshot["counters"]["stats/unique_paths"].as_u64().unwrap();
    let mut seen = Vec::new();
    for (run, threads) in ["1", "2", "1"].into_iter().enumerate() {
        let metrics = dir.join(format!("run{run}-metrics.json"));
        let out = tail_watch(
            &tail,
            &dir.join(format!("run{run}.ckpt")),
            &[
                "--threads",
                threads,
                "--metrics-out",
                metrics.to_str().unwrap(),
            ],
        );
        assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
        let snapshot: serde_json::Value =
            serde_json::from_slice(&fs::read(&metrics).unwrap()).unwrap();
        let c = &snapshot["counters"];
        let recounted = c["watch/recounted_paths"].as_u64().unwrap();
        // One reclassification per advance, and the final one.
        let reclassifications = c["watch/windows_advanced"].as_u64().unwrap() + 1;
        assert!(
            recounted > 0 && recounted <= unique_paths * reclassifications,
            "{recounted} paths recounted, {unique_paths} unique paths, \
             {reclassifications} reclassifications"
        );
        assert!(snapshot["timings"]["time/reclassify_ns"].as_u64().unwrap() > 0);
        seen.push(recounted);
    }
    assert!(seen.iter().all(|&s| s == seen[0]), "{seen:?}");
}

/// A restart of a quiesced `watch --tail` on its own checkpoint has
/// nothing to fold: it recounts no path, reruns no owner, writes the same
/// labels, and saves no checkpoint, so both files stay byte-identical.
#[test]
fn an_idle_restart_recounts_nothing_and_leaves_its_checkpoint_unchanged() {
    let dir = workdir("idle-restart");
    let tail = concatenated(&dir, &archives(&dir, 3, 60));
    let ckpt = dir.join("w.ckpt");
    let mut runs = Vec::new();
    for tag in ["first", "restart"] {
        let json = dir.join(format!("{tag}.json"));
        let metrics = dir.join(format!("{tag}-metrics.json"));
        let out = tail_watch(
            &tail,
            &ckpt,
            &[
                "--json",
                json.to_str().unwrap(),
                "--metrics-out",
                metrics.to_str().unwrap(),
            ],
        );
        let stderr = stderr_of(&out);
        assert_eq!(out.status.code(), Some(0), "{stderr}");
        assert_eq!(stderr.contains("resumed from checkpoint"), tag == "restart");
        runs.push((
            counters(&dir, tag),
            read(&dir, &format!("{tag}.json")),
            read(&dir, "w.ckpt"),
            read(&dir, "w.ckpt.seg"),
        ));
    }
    let (first, restart) = (&runs[0], &runs[1]);
    assert!(first.0["watch/recounted_paths"].as_u64().unwrap() > 0);
    assert_eq!(restart.0["watch/recounted_paths"].as_u64(), Some(0));
    assert!(first.0["checkpoint/writes"].as_u64().unwrap() > 0);
    assert_eq!(restart.0["checkpoint/writes"].as_u64(), Some(0));
    assert_eq!(restart.0["checkpoint/bytes_written"].as_u64(), Some(0));
    for name in ["classify/reclassified_owners", "classify/flaps"] {
        assert_eq!(restart.0[name], first.0[name], "{name}");
    }
    assert_eq!(restart.1, first.1, "the label file changed");
    assert_eq!(restart.2, first.2, "the manifest changed");
    assert_eq!(restart.3, first.3, "the segment log changed");
}

/// A restart reports what its resume read: `checkpoint/bytes_read` is the
/// manifest plus the log range it commits, and repeats exactly at any
/// thread count; the load has a timing of its own.
#[test]
fn an_idle_restart_counts_the_checkpoint_bytes_it_reads() {
    let dir = workdir("load-metrics");
    let tail = concatenated(&dir, &archives(&dir, 3, 60));
    let ckpt = dir.join("w.ckpt");
    let out = tail_watch(&tail, &ckpt, &[]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let manifest = read(&dir, "w.ckpt");
    // The log's start and end follow the header and the nine scalars.
    let word = |at: usize| u64::from_le_bytes(manifest[at..at + 8].try_into().unwrap());
    let (start, end) = (word(32 + 9 * 8), word(32 + 10 * 8));
    assert_eq!((start, end), (0, read(&dir, "w.ckpt.seg").len() as u64));
    for threads in ["1", "2", "8"] {
        let metrics = dir.join(format!("restart-{threads}-metrics.json"));
        let out = tail_watch(
            &tail,
            &ckpt,
            &[
                "--threads",
                threads,
                "--metrics-out",
                metrics.to_str().unwrap(),
            ],
        );
        let stderr = stderr_of(&out);
        assert_eq!(out.status.code(), Some(0), "{stderr}");
        assert!(stderr.contains("resumed from checkpoint"), "{stderr}");
        let snapshot: serde_json::Value =
            serde_json::from_slice(&fs::read(&metrics).unwrap()).unwrap();
        assert_eq!(
            snapshot["counters"]["checkpoint/bytes_read"].as_u64(),
            Some(manifest.len() as u64 + end - start),
            "--threads {threads}"
        );
        assert!(
            snapshot["timings"]["time/checkpoint_load_ns"]
                .as_u64()
                .unwrap()
                > 0
        );
        assert_eq!(
            read(&dir, "w.ckpt"),
            manifest,
            "an idle restart saves nothing"
        );
    }
}

#[test]
fn watch_usage_errors() {
    // No source.
    let out = bgpcomm(&["watch"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr_of(&out).contains("exactly one of"),
        "{}",
        stderr_of(&out)
    );
    // Two sources.
    let out = bgpcomm(&["watch", "--connect", "127.0.0.1:1", "--tail", "/tmp/x"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr_of(&out).contains("exactly one of"),
        "{}",
        stderr_of(&out)
    );
    // A zero size or cadence is refused, never raised to 1.
    let dir = workdir("zero-flags");
    let tail = dir.join("never-written.mrt");
    for flag in [
        "--window-secs",
        "--windows",
        "--checkpoint-every",
        "--queue-kb",
        "--chunk-kb",
        "--stall-ms",
    ] {
        let out = bgpcomm(&["watch", "--tail", tail.to_str().unwrap(), flag, "0"]);
        assert_eq!(out.status.code(), Some(1), "{flag}: {}", stderr_of(&out));
        assert!(
            stderr_of(&out).contains(&format!("{flag} must be at least 1")),
            "{flag}: {}",
            stderr_of(&out)
        );
    }
}

#[cfg(unix)]
#[test]
fn sigterm_mid_shard_run_leaves_only_valid_or_absent_artifacts() {
    let dir = workdir("shard-sigterm");
    let paths = archives(&dir, 4, 40);
    let shard_dir = dir.join("shards");

    // Shard 0's worker hangs for 20x the (large) stall deadline after its
    // first file — it will still be asleep when the TERM arrives. Shard 1
    // finishes normally first.
    let first_json = dir.join("first.json");
    let mut args = vec![
        "shard",
        "--shard-dir",
        shard_dir.to_str().unwrap(),
        "--workers",
        "2",
        "--shard-deadline-ms",
        "60000",
        "--inject-stall-shard",
        "0",
        "--json",
        first_json.to_str().unwrap(),
    ];
    let mrt = mrt_args(&paths);
    args.extend(&mrt);
    let supervisor = Command::new(env!("CARGO_BIN_EXE_bgpcomm"))
        .args(&args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn shard supervisor");

    // Wait for shard 1's artifact (the fast one), then TERM the supervisor
    // while shard 0's worker is still hanging.
    let deadline = Instant::now() + Duration::from_secs(30);
    while !shard_dir.join("shard-001.ckpt").exists() {
        assert!(Instant::now() < deadline, "shard 1 never finished");
        std::thread::sleep(Duration::from_millis(50));
    }
    let term = Command::new("kill")
        .arg("-TERM")
        .arg(supervisor.id().to_string())
        .status()
        .expect("send SIGTERM");
    assert!(term.success());
    let out = supervisor.wait_with_output().expect("wait supervisor");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(EXIT_ABORTED), "{stderr}");
    assert!(stderr.contains("interrupted"), "{stderr}");

    // The contract: every artifact present validates; the interrupted
    // shard's artifact is absent, not torn; no heartbeat files remain.
    assert!(!shard_dir.join("shard-000.ckpt").exists());
    assert!(shard_dir.join("shard-001.ckpt").exists());
    let leftover_heartbeats: Vec<_> = fs::read_dir(&shard_dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".hb"))
        .collect();
    assert!(
        leftover_heartbeats.is_empty(),
        "stale heartbeats left behind: {leftover_heartbeats:?}"
    );

    // Re-running the same command (no injection) resumes: shard 1 is
    // adopted, shard 0 re-runs, and the result matches a single-process
    // run.
    let single = bgpcomm(
        &[
            &["infer", "--json", dir.join("single.json").to_str().unwrap()],
            &mrt[..],
        ]
        .concat(),
    );
    assert_eq!(single.status.code(), Some(0), "{}", stderr_of(&single));
    let second_json = dir.join("second.json");
    let mut args = vec![
        "shard",
        "--shard-dir",
        shard_dir.to_str().unwrap(),
        "--workers",
        "2",
        "--json",
        second_json.to_str().unwrap(),
    ];
    args.extend(&mrt);
    let out = bgpcomm(&args);
    let stderr = stderr_of(&out);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(
        stderr.contains("shard 1: reusing valid artifact"),
        "{stderr}"
    );
    assert_eq!(
        read(&dir, "second.json"),
        read(&dir, "single.json"),
        "the resumed run must match an uninterrupted single-process run"
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
