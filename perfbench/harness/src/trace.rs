//! The traced pass.
//!
//! It makes, in order, the public library calls each measured command
//! makes, with a span around each call, and derives the per-layer metrics
//! from span self times and from the reports the calls return. The
//! program's own tracing stays off. Each mirrored command writes its label
//! file, which `run.py` compares byte for byte with the file the timed
//! command wrote, so the ledger describes the program that was timed.

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bgp_artifact::LabelArtifact;
use bgp_intent::classify::classify;
use bgp_intent::{
    check_store, fingerprint_file, label_rows, plan_shards, supervise, validate_artifact,
    write_inference_artifact, Checkpoint, CompletedFile, Inference, InferenceConfig, PathStats,
    ShardEvent, StatsAccumulator, SupervisorConfig, WatchCheckpoint, WindowConfig,
    WindowedClassifier,
};
use bgp_mrt::obs::{read_observations_parallel_store, read_observations_resilient_into};
use bgp_mrt::retry::RetryPolicy;
use bgp_mrt::{
    FileTailFeed, IngestReport, Readahead, RecoverConfig, ResumingStream, RetryingReader,
    StreamCounters, StreamDecoder, StreamTuning,
};
use bgp_relationships::SiblingMap;
use bgp_types::{Observation, ObservationSink, ObservationStore, ObservationView};

use crate::spans::{self, Recorder};
use crate::{read_keys, Flags, Layout};

/// The classifier's decision threshold, as the CLI defaults it.
const RATIO_THRESHOLD: f64 = 160.0;

/// Per-layer metrics by name.
type Metrics = BTreeMap<&'static str, f64>;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn per(ns: u64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        ns as f64 / n as f64
    }
}

/// Resident set size of this process, from `/proc/self/statm`.
fn rss_bytes() -> u64 {
    let pages = fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<u64>().ok())
        .unwrap_or(0);
    pages * 4096
}

/// `trace`: run every mirrored pass and print the metrics as one JSON line.
pub fn run(flags: &Flags) -> Result<(), String> {
    let dir = PathBuf::from(flags.get("dir")?);
    let bgpcomm = PathBuf::from(flags.get("bgpcomm")?);
    let threads: usize = flags.parse_as("threads")?;
    let layout = Layout::new(&dir);
    let files = layout.files()?;
    let siblings_path = layout.siblings();
    let siblings: SiblingMap = serde_json::from_str(
        &fs::read_to_string(&siblings_path).map_err(|e| format!("read siblings: {e}"))?,
    )
    .map_err(|e| format!("parse siblings: {e}"))?;
    let keys = read_keys(&layout.keys())?;
    let out = dir.join("trace");
    if out.exists() {
        fs::remove_dir_all(&out).map_err(|e| format!("clear {}: {e}", out.display()))?;
    }
    fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;

    let run_id = std::process::id() as u64;
    let mut rec = Recorder::new(run_id);
    let mut m = Metrics::new();
    let cfg = InferenceConfig {
        threads,
        ..InferenceConfig::default()
    };

    decode_layers(&mut rec, &mut m, &files)?;
    let damaged_observations = recover_layer(&mut rec, &mut m, &layout.damaged()?)?;
    let (store, infer_root) = infer_pass(&mut rec, &mut m, &files, &siblings, &cfg, &out)?;
    query_pass(&mut rec, &mut m, &store, &siblings, &out, &keys)?;
    let observations = store.len();
    drop(store);
    let shard = ShardRun {
        files: &files,
        siblings: &siblings,
        siblings_path: &siblings_path,
        bgpcomm: &bgpcomm,
        workers: threads,
        observations,
        out: &out,
    };
    let shard_root = shard_pass(&mut rec, &mut m, &shard)?;
    let watch_root = watch_pass(&mut rec, &mut m, &layout.tail(), &siblings, &cfg, &out)?;

    let spans = rec.spans();
    m.insert(
        "ledger.infer_unattributed",
        spans::unattributed_share(spans, infer_root),
    );
    m.insert(
        "ledger.shard_unattributed",
        spans::unattributed_share(spans, shard_root),
    );
    m.insert(
        "ledger.watch_unattributed",
        spans::unattributed_share(spans, watch_root),
    );
    let infer_pass_s = spans[infer_root].duration_ns() as f64 / 1e9;

    let spans_path = out.join("spans.jsonl");
    let file = File::create(&spans_path).map_err(|e| format!("create spans: {e}"))?;
    rec.write_jsonl(BufWriter::new(file))
        .map_err(|e| format!("write spans: {e}"))?;

    let body: Vec<String> = m
        .iter()
        .map(|(name, value)| format!("\"{name}\": {value:.9}"))
        .collect();
    println!(
        "{{\"infer_pass_s\": {infer_pass_s:.9}, \"damaged_observations\": {damaged_observations}, \"spans\": \"{}\", \"labels\": {{\"infer\": \"{}\", \"shard\": \"{}\", \"watch\": \"{}\"}}, \"metrics\": {{{}}}}}",
        spans_path.display(),
        out.join("infer.labels.json").display(),
        out.join("shard.labels.json").display(),
        out.join("watch.labels.json").display(),
        body.join(", ")
    );
    Ok(())
}

/// Counts observations without materializing or interning them: what the
/// view decoder and framing cost on their own.
#[derive(Default)]
struct CountingSink(usize);

impl ObservationSink for CountingSink {
    fn push_observation(&mut self, _obs: Observation) {
        self.0 += 1;
    }
    fn observation_count(&self) -> usize {
        self.0
    }
    fn push_observation_view(&mut self, view: &ObservationView<'_>) {
        std::hint::black_box(view);
        self.0 += 1;
    }
}

/// The decode layers, each on its own: readahead draining each file, view
/// decode and framing into a counting sink, and decode into the columnar
/// store (interning is the difference). Inputs come from memory for the
/// CPU layers so the file system is only in the readahead number.
fn decode_layers(rec: &mut Recorder, m: &mut Metrics, files: &[String]) -> Result<(), String> {
    let root = rec.open("pass.decode_layers");
    let mut bytes = 0u64;
    for path in files {
        let id = rec.open("mrt.readahead");
        let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
        let retrying = RetryingReader::new(
            BufReader::new(file),
            RetryPolicy::default(),
            Arc::new(AtomicU64::new(0)),
        );
        let mut reader = Readahead::new(retrying, Arc::new(AtomicU64::new(0)));
        bytes += io::copy(&mut reader, &mut io::sink()).map_err(|e| format!("read {path}: {e}"))?;
        rec.close(id);
    }
    let readahead_ns = spans::total(rec.spans(), "mrt.readahead");
    m.insert(
        "mrt.readahead.mb_per_s",
        bytes as f64 / 1e6 / (readahead_ns.max(1) as f64 / 1e9),
    );

    let contents: Vec<Vec<u8>> = files
        .iter()
        .map(|p| fs::read(p).map_err(|e| format!("read {p}: {e}")))
        .collect::<Result<_, _>>()?;
    let recover = RecoverConfig::default();

    // Resident growth of one store holding every observation, measured
    // before the stores of the later passes exist.
    let rss_before = rss_bytes();
    let mut whole = ObservationStore::new();
    for bytes in &contents {
        read_observations_resilient_into(&bytes[..], &recover, &mut whole);
    }
    let rss_after = rss_bytes();
    let observations = whole.len();
    drop(whole);
    m.insert(
        "types.store.rss_bytes_per_obs",
        rss_after.saturating_sub(rss_before) as f64 / observations.max(1) as f64,
    );

    let (report, counted) = count_decode(rec, "mrt.view", &contents);
    for bytes in &contents {
        let mut store = ObservationStore::new();
        let id = rec.open("types.store.intern");
        read_observations_resilient_into(&bytes[..], &recover, &mut store);
        rec.close(id);
        std::hint::black_box(&store);
    }
    rec.close(root);
    if counted != observations {
        return Err(format!(
            "counting decode saw {counted} observations, store decode {observations}"
        ));
    }
    let view_ns = spans::total(rec.spans(), "mrt.view");
    let decode_intern_ns = spans::total(rec.spans(), "types.store.intern");
    m.insert("mrt.view.ns_per_obs", per(view_ns, observations));
    m.insert("mrt.view.records", report.records_read as f64);
    m.insert(
        "types.store.intern_ns_per_obs",
        (decode_intern_ns as f64 - view_ns as f64) / observations.max(1) as f64,
    );
    Ok(())
}

/// View decode of every buffer into a counting sink, one `span` per
/// buffer: the merged decode report and the observations counted.
fn count_decode(
    rec: &mut Recorder,
    span: &'static str,
    contents: &[Vec<u8>],
) -> (IngestReport, usize) {
    let mut report = IngestReport::default();
    let mut counted = 0usize;
    for bytes in contents {
        let mut sink = CountingSink::default();
        let id = rec.open(span);
        report.merge(&read_observations_resilient_into(
            &bytes[..],
            &RecoverConfig::default(),
            &mut sink,
        ));
        rec.close(id);
        counted += sink.0;
    }
    (report, counted)
}

/// The recovery layer: the same view decode over the damaged copy of the
/// archives, which goes through the resync and skip paths. Returns the
/// observations that survive, which `run.py` checks against the
/// generator's own decode of the same bytes.
fn recover_layer(rec: &mut Recorder, m: &mut Metrics, damaged: &[String]) -> Result<usize, String> {
    let contents: Vec<Vec<u8>> = damaged
        .iter()
        .map(|p| fs::read(p).map_err(|e| format!("read {p}: {e}")))
        .collect::<Result<_, _>>()?;
    let root = rec.open("pass.recover");
    let (report, survived) = count_decode(rec, "mrt.recover", &contents);
    rec.close(root);
    if report.bytes_ok + report.bytes_skipped != report.bytes_read {
        return Err(format!(
            "damaged decode: {} bytes ok + {} skipped != {} read",
            report.bytes_ok, report.bytes_skipped, report.bytes_read
        ));
    }
    m.insert(
        "mrt.recover.ns_per_obs",
        per(spans::total(rec.spans(), "mrt.recover"), survived),
    );
    m.insert(
        "mrt.recover.bytes_ok_ratio",
        report.bytes_ok as f64 / report.bytes_read.max(1) as f64,
    );
    m.insert("mrt.recover.resyncs", report.resync_events as f64);
    m.insert(
        "mrt.recover.records_failed",
        (report.records_skipped + report.records_truncated) as f64,
    );
    Ok(survived)
}

/// Write labels exactly as the CLI's `--json` does, so the files compare
/// byte for byte.
fn write_labels(path: &Path, inference: &Inference) -> Result<(), String> {
    let rows = label_rows(inference, RATIO_THRESHOLD);
    let labels: Vec<serde_json::Value> = rows
        .iter()
        .map(|r| {
            serde_json::json!({
                "community": r.community.to_string(),
                "intent": r.label,
                "confidence": r.confidence,
                "ratio": r.ratio,
                "on_paths": r.on_paths,
                "off_paths": r.off_paths,
            })
        })
        .collect();
    let file = File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut writer = BufWriter::new(file);
    serde_json::to_writer_pretty(&mut writer, &labels)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    writer
        .flush()
        .map_err(|e| format!("write {}: {e}", path.display()))
}

/// `infer`: parallel ingest into per-file stores, merge, stats kernel,
/// classification, artifact and label file.
fn infer_pass(
    rec: &mut Recorder,
    m: &mut Metrics,
    files: &[String],
    siblings: &SiblingMap,
    cfg: &InferenceConfig,
    out: &Path,
) -> Result<(ObservationStore, usize), String> {
    let paths: Vec<PathBuf> = files.iter().map(PathBuf::from).collect();
    let root = rec.open("pass.infer");
    let (per_file, _) = rec.span("mrt.ingest", || {
        read_observations_parallel_store(&paths, &RecoverConfig::default(), cfg.threads)
    });
    let merge = rec.open("types.store.merge");
    let mut store = ObservationStore::new();
    for file in &per_file {
        store.merge(&file.store);
    }
    rec.close(merge);
    let stats = rec.span("core.stats", || {
        PathStats::from_store_threaded(&store, siblings, cfg.threads)
    });
    let inference = rec.span("core.classify", || classify(&stats, siblings, cfg));
    let artifact = out.join("infer.artifact");
    rec.span("core.artifact.write", || {
        write_inference_artifact(&artifact, &inference, RATIO_THRESHOLD)
    })
    .map_err(|e| format!("write artifact: {e}"))?;
    let labels = rec.open("output.labels");
    write_labels(&out.join("infer.labels.json"), &inference)?;
    rec.close(labels);
    rec.close(root);
    drop(per_file);

    let spans = rec.spans();
    let obs = store.len();
    m.insert(
        "types.store.merge_ms",
        ms(spans::total(spans, "types.store.merge")),
    );
    m.insert("types.store.unique_paths", store.path_count() as f64);
    m.insert(
        "core.stats.ns_per_obs",
        per(spans::total(spans, "core.stats"), obs),
    );
    m.insert("core.stats.unique_tuples", stats.unique_tuples as f64);
    m.insert("core.classify.ms", ms(spans::total(spans, "core.classify")));
    m.insert("core.classify.clusters", inference.clusters.len() as f64);
    m.insert("core.classify.labels", inference.labels.len() as f64);
    m.insert(
        "core.artifact.write_ms",
        ms(spans::total(spans, "core.artifact.write")),
    );
    Ok((store, root))
}

/// `query --check` and the lookup client: artifact load, the archive
/// check without ingest, and one `get` per key of the key stream.
fn query_pass(
    rec: &mut Recorder,
    m: &mut Metrics,
    store: &ObservationStore,
    siblings: &SiblingMap,
    out: &Path,
    keys: &[bgp_types::Community],
) -> Result<(), String> {
    let root = rec.open("pass.query");
    let artifact = rec
        .span("core.artifact.load", || {
            LabelArtifact::load(&out.join("infer.artifact"))
        })
        .map_err(|e| format!("load artifact: {e}"))?;
    let report = rec.span("core.artifact.check", || {
        check_store(&artifact, store, siblings)
    });
    let hits = rec.span("core.artifact.lookups", || {
        keys.iter()
            .filter(|&&k| std::hint::black_box(artifact.get(k)).is_some())
            .count()
    });
    rec.close(root);
    let spans = rec.spans();
    m.insert(
        "core.artifact.load_ms",
        ms(spans::total(spans, "core.artifact.load")),
    );
    m.insert(
        "core.artifact.check_ns_per_obs",
        per(spans::total(spans, "core.artifact.check"), store.len()),
    );
    m.insert("core.artifact.anomalies", report.anomalies.len() as f64);
    m.insert(
        "core.artifact.lookup_ns",
        per(spans::total(spans, "core.artifact.lookups"), keys.len()),
    );
    m.insert(
        "core.artifact.hit_ratio",
        hits as f64 / keys.len().max(1) as f64,
    );
    Ok(())
}

/// What the shard pass runs over.
struct ShardRun<'a> {
    files: &'a [String],
    siblings: &'a SiblingMap,
    siblings_path: &'a Path,
    /// The `bgpcomm` binary, spawned as the worker.
    bgpcomm: &'a Path,
    workers: usize,
    /// Observations the archives decode to, the base of the byte ratio.
    observations: usize,
    out: &'a Path,
}

/// `shard`: the supervisor with real `bgpcomm shard-worker` processes (it
/// validates each artifact before it reports the shard done), the merge of
/// the validated snapshots and classification, as `bgpcomm shard` makes
/// them. Outside that pass, one more `validate_artifact` per shard times
/// the validation on its own, and an in-process replay of the first
/// worker splits a worker's time by layer.
fn shard_pass(rec: &mut Recorder, m: &mut Metrics, run: &ShardRun<'_>) -> Result<usize, String> {
    let ShardRun {
        files,
        siblings,
        siblings_path,
        bgpcomm,
        workers,
        observations,
        out,
    } = *run;
    let shard_dir = out.join("shards");
    fs::create_dir_all(&shard_dir).map_err(|e| format!("create shard dir: {e}"))?;
    let specs = plan_shards(files, workers, &shard_dir);
    // The supervision policy `bgpcomm shard` runs with by default.
    let sup_cfg = SupervisorConfig {
        retry: RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
            per_file_deadline: None,
        },
        stall_deadline: Duration::from_millis(30_000),
        poll_interval: Duration::from_millis(25),
        term_grace: Duration::from_secs(5),
    };
    let cfg = InferenceConfig {
        threads: 1,
        ..InferenceConfig::default()
    };

    let root = rec.open("pass.shard");
    let sup = rec.open("core.supervisor.supervise");
    let origin = rec.origin();
    let now = || origin.elapsed().as_nanos() as u64;
    let mut started = vec![0u64; specs.len()];
    let mut finished = vec![0u64; specs.len()];
    let outcomes = supervise(
        &specs,
        &sup_cfg,
        |spec, _attempt| {
            let mut cmd = Command::new(bgpcomm);
            cmd.arg("shard-worker")
                .arg("--mrt")
                .arg(spec.files.join(","))
                .arg("--out")
                .arg(&spec.artifact)
                .arg("--heartbeat")
                .arg(&spec.heartbeat)
                .arg("--siblings")
                .arg(siblings_path)
                .arg("--threads")
                .arg("1")
                .stdout(Stdio::null())
                .stderr(Stdio::null());
            cmd
        },
        |event| match event {
            ShardEvent::Started { shard, .. } => started[shard.index] = now(),
            ShardEvent::Succeeded { shard, .. } => finished[shard.index] = now(),
            _ => {}
        },
    );
    for (s, f) in started.iter().zip(&finished) {
        rec.record("shard.worker", *s, *f);
    }
    rec.close(sup);
    let mut artifacts = Vec::new();
    for outcome in &outcomes {
        match &outcome.artifact {
            Some(artifact) => artifacts.push(artifact),
            None => {
                return Err(format!(
                    "shard {} failed: {:?}",
                    outcome.index, outcome.failures
                ))
            }
        }
    }
    let stats = rec.span("core.checkpoint.merge", || {
        let mut acc = StatsAccumulator::new();
        for artifact in &artifacts {
            acc.merge(StatsAccumulator::from_snapshot(&artifact.snapshot));
        }
        acc.to_stats()
    });
    let inference = rec.span("core.classify", || classify(&stats, siblings, &cfg));
    let labels = rec.open("output.labels");
    write_labels(&out.join("shard.labels.json"), &inference)?;
    rec.close(labels);
    rec.close(root);

    let validate_root = rec.open("pass.shard_validate");
    let validate = rec.open("core.supervisor.validate");
    for spec in &specs {
        validate_artifact(spec).map_err(|e| format!("validate: {e}"))?;
    }
    rec.close(validate);
    rec.close(validate_root);

    let worker_s: Vec<f64> = started
        .iter()
        .zip(&finished)
        .map(|(s, f)| f.saturating_sub(*s) as f64 / 1e9)
        .collect();
    m.insert(
        "core.supervisor.worker_max_s",
        worker_s.iter().copied().fold(0.0, f64::max),
    );
    m.insert(
        "core.supervisor.worker_min_s",
        worker_s.iter().copied().fold(f64::INFINITY, f64::min),
    );
    m.insert(
        "core.supervisor.validate_ms",
        ms(rec.spans()[validate].duration_ns()),
    );
    m.insert(
        "core.supervisor.retries",
        outcomes.iter().map(|o| o.retries()).sum::<u64>() as f64,
    );
    m.insert(
        "core.checkpoint.merge_ms",
        ms(spans::total(rec.spans(), "core.checkpoint.merge")),
    );
    let snapshot_bytes: u64 = specs
        .iter()
        .map(|s| fs::metadata(&s.artifact).map(|md| md.len()).unwrap_or(0))
        .sum();
    m.insert(
        "core.checkpoint.bytes_per_obs",
        snapshot_bytes as f64 / observations.max(1) as f64,
    );

    replay_worker(rec, m, &specs[0].files, siblings, out)?;
    Ok(root)
}

/// What one `shard-worker` does, in process: per file, fingerprint,
/// single-file ingest and `ingest_store`; then the artifact save, and the
/// load the supervisor's validation makes.
fn replay_worker(
    rec: &mut Recorder,
    m: &mut Metrics,
    files: &[String],
    siblings: &SiblingMap,
    out: &Path,
) -> Result<(), String> {
    let root = rec.open("pass.shard_worker");
    let mut manifest = Checkpoint::new();
    let mut acc = StatsAccumulator::new();
    let mut observations = 0usize;
    for path in files {
        let fingerprint = rec
            .span("core.checkpoint.fingerprint", || {
                fingerprint_file(Path::new(path))
            })
            .map_err(|e| format!("fingerprint {path}: {e}"))?;
        let (ingested, _) = rec.span("mrt.ingest", || {
            read_observations_parallel_store(&[PathBuf::from(path)], &RecoverConfig::default(), 1)
        });
        let file = ingested
            .into_iter()
            .next()
            .ok_or_else(|| format!("{path}: no ingest result"))?;
        rec.span("core.checkpoint.accumulate", || {
            acc.ingest_store(&file.store, siblings, 1)
        });
        observations += file.store.len();
        manifest.report.merge(&file.report);
        manifest.files.push(CompletedFile {
            path: path.clone(),
            fingerprint,
        });
    }
    let artifact = out.join("replay.ckpt");
    let save = rec.open("core.checkpoint.save");
    manifest.snapshot = acc.snapshot().clone();
    manifest
        .save_atomic(&artifact)
        .map_err(|e| format!("save replay checkpoint: {e}"))?;
    rec.close(save);
    rec.span("core.checkpoint.load", || Checkpoint::load(&artifact))
        .map_err(|e| format!("load replay checkpoint: {e}"))?;
    rec.close(root);
    let spans = rec.spans();
    m.insert(
        "core.checkpoint.accumulate_ns_per_obs",
        per(
            spans::total(spans, "core.checkpoint.accumulate"),
            observations,
        ),
    );
    m.insert(
        "core.checkpoint.save_ms",
        ms(spans::total(spans, "core.checkpoint.save")),
    );
    m.insert(
        "core.checkpoint.load_ms",
        ms(spans::total(spans, "core.checkpoint.load")),
    );
    Ok(())
}

/// `watch --tail`: the stream decoder over the resuming file-tail stream,
/// the windowed fold, the cumulative fold, a checkpoint after every
/// advance and the final classification; then the resume a restarted
/// daemon makes, and the stream layer drained on its own.
fn watch_pass(
    rec: &mut Recorder,
    m: &mut Metrics,
    tail: &Path,
    siblings: &SiblingMap,
    cfg: &InferenceConfig,
    out: &Path,
) -> Result<usize, String> {
    let ckpt = out.join("watch.ckpt");
    // The CLI defaults: 4 MiB queue in 64 KiB chunks, 2 s stall deadline,
    // quiescent after one connection that delivers nothing new.
    let tuning = StreamTuning {
        queue_bytes: 4096 << 10,
        chunk_bytes: 64 << 10,
        stall_timeout: Duration::from_millis(2000),
        quiesce_after: Some(1),
        ..StreamTuning::default()
    };
    let window = WindowConfig {
        window_secs: 3600,
        windows: 24,
    };

    let root = rec.open("pass.watch");
    let mut classifier = WindowedClassifier::new(window, cfg.clone());
    let mut cumulative = StatsAccumulator::new();
    let counters = Arc::new(StreamCounters::default());
    let stream = ResumingStream::new(
        FileTailFeed::new(tail.to_path_buf()),
        tuning.clone(),
        0,
        Arc::new(AtomicBool::new(false)),
        counters.clone(),
    );
    let mut decoder = StreamDecoder::new(stream, RecoverConfig::default());
    let mut batch: Vec<Observation> = Vec::new();
    let mut observations = 0u64;
    let mut fold_obs = 0usize;
    loop {
        batch.clear();
        let step = rec.span("mrt.stream_decode", || decoder.next_record(&mut batch));
        if step.is_none() {
            break;
        }
        if batch.is_empty() {
            continue;
        }
        let start = rec.now_ns();
        let mut advanced = false;
        for obs in &batch {
            advanced |= classifier.observe(obs, siblings);
        }
        let end = rec.now_ns();
        if advanced {
            rec.record("core.watch.advance", start, end);
        } else {
            rec.record("core.watch.fold", start, end);
            fold_obs += batch.len();
        }
        rec.span("core.watch.cumulative", || {
            cumulative.ingest_ordered(&batch, siblings)
        });
        observations += batch.len() as u64;
        if advanced {
            let id = rec.open("core.watch.checkpoint");
            WatchCheckpoint::capture(
                &mut classifier,
                &mut cumulative,
                decoder.consumed_bytes(),
                decoder.records_decoded(),
                observations,
            )
            .save_atomic(&ckpt)
            .map_err(|e| format!("save watch checkpoint: {e}"))?;
            rec.close(id);
        }
    }
    let report = decoder.report();
    if let Some(why) = &report.aborted {
        return Err(format!("watch stream aborted: {why}"));
    }
    rec.span("core.watch.final_classify", || {
        classifier.reclassify(siblings)
    });
    let id = rec.open("core.watch.checkpoint");
    WatchCheckpoint::capture(
        &mut classifier,
        &mut cumulative,
        decoder.consumed_bytes(),
        decoder.records_decoded(),
        observations,
    )
    .save_atomic(&ckpt)
    .map_err(|e| format!("save watch checkpoint: {e}"))?;
    rec.close(id);
    let inference = rec.span("core.watch.final_classify", || {
        classify(&cumulative.to_stats(), siblings, cfg)
    });
    let labels = rec.open("output.labels");
    write_labels(&out.join("watch.labels.json"), &inference)?;
    rec.close(labels);
    rec.close(root);

    let resume_root = rec.open("pass.watch_resume");
    let resumed = rec.span("core.watch.resume", || {
        WatchCheckpoint::load(&ckpt).map(|cp| {
            (
                WindowedClassifier::from_checkpoint(&cp, cfg.clone()),
                StatsAccumulator::from_snapshot(&cp.cumulative),
            )
        })
    });
    resumed.map_err(|e| format!("load watch checkpoint: {e}"))?;
    rec.close(resume_root);

    let drain_root = rec.open("pass.stream_drain");
    let drain = rec.open("mrt.stream");
    let mut stream = ResumingStream::new(
        FileTailFeed::new(tail.to_path_buf()),
        tuning,
        0,
        Arc::new(AtomicBool::new(false)),
        Arc::new(StreamCounters::default()),
    );
    let drained = drain_all(&mut stream).map_err(|e| format!("drain stream: {e}"))?;
    rec.close(drain);
    rec.close(drain_root);

    let spans = rec.spans();
    let fold_ns = spans::total(spans, "core.watch.fold");
    let advance_ns = spans::total(spans, "core.watch.advance");
    let cumulative_ns = spans::total(spans, "core.watch.cumulative");
    let checkpoint_ns = spans::total(spans, "core.watch.checkpoint");
    let final_ns = spans::total(spans, "core.watch.final_classify");
    let resume_ns = spans::total(spans, "core.watch.resume");
    let checkpoint_bytes = fs::metadata(&ckpt).map(|md| md.len()).unwrap_or(0);
    m.insert("core.watch.fold_ns_per_obs", per(fold_ns, fold_obs));
    m.insert(
        "core.watch.cumulative_ns_per_obs",
        per(cumulative_ns, observations as usize),
    );
    m.insert("core.watch.advance_ms", ms(advance_ns));
    m.insert("core.watch.advances", classifier.advances() as f64);
    m.insert(
        "core.watch.reclassified_owners",
        classifier.reclassified_owners() as f64,
    );
    m.insert("core.watch.flaps", classifier.flaps() as f64);
    m.insert("core.watch.checkpoint_ms", ms(checkpoint_ns));
    m.insert(
        "core.watch.checkpoint_bytes_per_obs",
        checkpoint_bytes as f64 / observations.max(1) as f64,
    );
    m.insert("core.watch.resume_ms", ms(resume_ns));
    m.insert("core.watch.final_classify_ms", ms(final_ns));
    m.insert(
        "mrt.stream.mb_per_s",
        drained as f64 / 1e6 / (spans[drain].duration_ns().max(1) as f64 / 1e9),
    );
    m.insert(
        "mrt.stream.backpressure_stalls",
        counters.backpressure_stalls.load(Ordering::SeqCst) as f64,
    );
    m.insert(
        "mrt.stream.queue_peak_bytes",
        counters.queue_peak_bytes.load(Ordering::SeqCst) as f64,
    );
    Ok(root)
}

/// Read a stream to its end with no decode, counting bytes.
fn drain_all(stream: &mut impl Read) -> io::Result<u64> {
    let mut buf = vec![0u8; 64 << 10];
    let mut total = 0u64;
    loop {
        match stream.read(&mut buf)? {
            0 => return Ok(total),
            n => total += n as u64,
        }
    }
}
