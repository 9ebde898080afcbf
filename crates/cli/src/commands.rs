//! Subcommand implementations, and the one runner they all go through:
//! each subcommand declares its flags once in [`COMMANDS`], and [`run`]
//! parses against them, builds the [`Run`] context and writes the metrics
//! snapshot on every exit path.

use std::collections::HashSet;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bgp_artifact::{LabelArtifact, LabelRow};
use bgp_dictionary::GroundTruthDictionary;
use bgp_experiments::{Args, Flags, Scenario, ScenarioConfig};
use bgp_intent::pipeline::Input;
use bgp_intent::{
    check_store, fingerprint_file, label_rows, run_inference, write_inference_artifact,
    CheckReport, Checkpoint, CheckpointSaver, CompletedFile, Exclusion, FileFingerprint,
    FileSegment, InferenceConfig, PipelineResult, StatsAccumulator,
};
use bgp_mrt::obs::{read_files, write_rib_dump, write_update_stream};
use bgp_mrt::{FlakyConfig, IngestOptions, IngestReport};
use bgp_relationships::SiblingMap;
use bgp_types::obs::{JsonLinesSink, StderrSink};
use bgp_types::par::effective_threads;
use bgp_types::persist::LoadError;
use bgp_types::store::ObservationStore;
use bgp_types::{Asn, Community, Intent, MetricsRegistry, ObservationSink, Telemetry, Tracer};
/// Top-level usage text.
pub const USAGE: &str = "\
bgpcomm — BGP community intent inference (IMC'23 reproduction)

USAGE:
    bgpcomm stats    --mrt FILE [--mrt FILE ...] [--strict] [--max-errors N]
                     [--report FILE] [--threads N] [--retry-attempts N]
                     [--metrics-out FILE] [--trace] [--trace-json FILE]
                     [--inject-panic-after N] [--inject-flaky SEED]
    bgpcomm infer    --mrt FILE [--mrt FILE ...] [--gap N] [--ratio N]
                     [--dict FILE] [--siblings FILE] [--json FILE] [--top N]
                     [--artifact-out FILE] [--strict] [--max-errors N]
                     [--report FILE] [--threads N] [--retry-attempts N]
                     [--checkpoint FILE [--resume]] [--metrics-out FILE]
                     [--trace] [--trace-json FILE] [--inject-panic-after N]
                     [--inject-flaky SEED] [--inject-crash-after N]
    bgpcomm shard    --mrt FILE [--mrt FILE ...] --shard-dir DIR [--workers N]
                     [--shard-retries N] [--shard-deadline-ms N]
                     [--allow-shard-failures K] [--gap N] [--ratio N]
                     [--dict FILE] [--siblings FILE] [--json FILE] [--top N]
                     [--artifact-out FILE] [--strict] [--max-errors N]
                     [--report FILE] [--threads N] [--retry-attempts N]
                     [--metrics-out FILE] [--trace] [--trace-json FILE]
                     [--inject-panic-after N] [--inject-flaky SEED]
                     [--inject-kill-shard I] [--inject-stall-shard I]
                     [--inject-fail-shard I]
    bgpcomm watch    (--connect HOST:PORT | --unix PATH | --tail FILE)
                     [--window-secs N] [--windows N] [--checkpoint FILE]
                     [--checkpoint-every N] [--queue-kb N] [--chunk-kb N]
                     [--stall-ms N] [--retry-attempts N] [--quiesce-after N]
                     [--gap N] [--ratio N] [--siblings FILE] [--json FILE]
                     [--artifact-out FILE] [--max-errors N] [--report FILE]
                     [--threads N] [--metrics-out FILE]
                     [--inject-stream-faults SEED[:RATE]] [--slow-fold-ms N]
                     [--inject-crash-after-windows N]
    bgpcomm query    --artifact FILE [--key A:B[,A:B ...]] [--batch FILE]
                     [--owner A] [--bench N] [--threads N] [--no-mmap]
                     [--check MRT[,MRT ...]] [--siblings FILE]
                     [--max-errors N] [--report FILE] [--metrics-out FILE]
                     [--trace] [--trace-json FILE]
    bgpcomm feed     --listen HOST:PORT (--mrt FILE [--mrt FILE ...] |
                     [--scale F] [--seed N] [--days N] [--docs N]
                     [--completeness F] [--vp-mid N] [--vp-stub N])
                     [--throttle BYTES:MS]
    bgpcomm validate --mrt FILE [--mrt FILE ...]
    bgpcomm compare  --old FILE --new FILE
    bgpcomm generate --out DIR [--scale F] [--seed N] [--days N] [--docs N]
                     [--completeness F] [--vp-mid N] [--vp-stub N] [--stream]

    Every command refuses a flag it does not declare, and a value flag
    given no value, with exit code 1 before any work starts. Below, a
    flag applies to the commands its section heading names, or to those
    in parentheses at the start of its description.

COMMANDS:
    stats     Summarize MRT archives: records, tuples, paths, communities.
    infer     Classify observed communities as action or information.
    shard     `infer` across N supervised worker subprocesses: input files
              are partitioned round-robin, each worker writes a snapshot
              artifact, failed/stalled workers are retried, and the merged
              classification is bit-identical to a single-process run.
    watch     Long-running streaming daemon: consume a continuous update
              stream, fold into rolling time windows, reclassify only what
              each window advance touched, and checkpoint so a crash (even
              kill -9) resumes without double-counting.
    feed      Serve an MRT byte stream over TCP with the watch resume
              protocol (tests, demos, CI; real deployments put a collector
              behind the same protocol).
    query     Serve label lookups from an artifact written by
              `infer/shard/watch --artifact-out`: point keys, batch files,
              owner scans, a self-driving benchmark, and `--check` — stream
              an archive and flag routes whose observed communities
              contradict their inferred intent (exit 7 on any anomaly).
    validate  Lint MRT archives as ingest frames them: per-record-type
              counts, decode errors and the ingest summary.
    compare   Diff two label files from `infer --json` (drift monitoring).
    generate  Write a synthetic collector dataset + ground-truth dictionary.

INGESTION (stats, infer, shard, watch, query --check):
    By default damaged MRT input degrades gracefully: the reader skips
    undecodable records, resynchronizes past framing corruption, and prints
    an ingest summary to stderr.
    --strict        (stats, infer) Fail on the first decode error (exit code
                    2), after the per-file summaries and --report are
                    written. `shard` and `infer --checkpoint` refuse it.
    --max-errors N  Abort once more than N records fail to decode (exit 3).
    --report FILE   Write the machine-readable ingest report (JSON) to FILE,
                    or to stdout if FILE is `-`.
    --threads N     Worker threads: MRT files decode in parallel (one file
                    per worker) and the analysis stages shard across N
                    threads. 0 = one per CPU (default). Output is identical
                    at any thread count. `shard` passes N to its workers and,
                    once they exit, counts and classifies on the larger of
                    N and --workers. Whatever N, a checkpoint load builds
                    its path, list and tuple tables on up to three threads.
    --retry-attempts N
                    (stats, infer, shard, watch) Attempts per I/O operation
                    before a transient failure (EINTR, stall) is surfaced
                    (default 4; deterministic exponential backoff, 2ms
                    doubling to 100ms).

CHECKPOINTS (infer):
    --checkpoint FILE
                    Crash-safe incremental runs (lenient ingestion only):
                    after every fully ingested MRT file, append what the
                    statistics gained to FILE.seg, then replace FILE, which
                    lists the completed files (byte length + content hash).
                    Failed files are retried on resume.
    --resume        Continue a checkpointed run: files recorded in FILE are
                    fingerprint-checked and skipped. A changed input file,
                    an unknown recorded file, or a schema mismatch refuses
                    with exit 4. The resumed output is bit-identical to an
                    uninterrupted run.

OBSERVABILITY (stats, infer, shard, watch, query):
    --metrics-out FILE
                    Write a JSON metrics snapshot to FILE (`-` = stdout):
                    ingest bytes/records/retries/faults, interner occupancy,
                    stats-kernel output shape, classification tallies with a
                    ratio histogram around the 160:1 threshold, checkpoint
                    write/verify latencies, and per-stage wall-clock totals.
                    Key order is stable; everything outside `timings` is
                    bit-identical at any thread count. Written even when
                    ingestion aborts, like --report.
    --trace         (stats, infer, shard, query) Pretty-print completed
                    spans (per-file ingest, pipeline stages) to stderr,
                    indented by nesting depth.
    --trace-json FILE
                    (stats, infer, shard, query) Write completed spans as
                    JSON-lines to FILE (`-` = stdout) for jq triage of slow
                    or lossy runs. Takes precedence over --trace.

SHARDED RUNS (shard):
    --shard-dir DIR Working directory for per-shard artifacts, heartbeat
                    files, and worker logs. Re-running the same command
                    reuses the valid artifacts already present, so a
                    partially failed run resumes instead of restarting.
    --workers N     Worker subprocesses (0 = one per CPU). The partition
                    never changes the output: merged statistics are
                    bit-identical at any worker count.
    --shard-retries N
                    Re-runs allowed per shard after its first failure
                    (default 2), with deterministic exponential backoff.
    --shard-deadline-ms N
                    A worker that makes no heartbeat progress for this long
                    is killed and the attempt counts as a stall
                    (default 30000).
    --allow-shard-failures K
                    Tolerate up to K permanently failed shards: the run
                    completes from the surviving shards and the exact
                    coverage shortfall (shards/files/bytes lost) is folded
                    into the ingest report and metrics snapshot. More than
                    K failed shards aborts with exit 5.

STREAMING (watch):
    --connect HOST:PORT / --unix PATH / --tail FILE
                    Where the update stream comes from: a framed TCP or
                    unix-domain socket feed (resume protocol, see `feed`),
                    or a growing file on disk.
    --window-secs N --windows N
                    Sliding-window geometry: N windows of N seconds of
                    *stream time* (default 24 x 3600). Classification runs
                    over the union of the retained windows; observations
                    older than the retention floor are dropped and counted.
    --checkpoint FILE
                    Crash-safe streaming: atomically checkpoint the stream
                    cursor, window contents, and labels. A restarted watch
                    with the same checkpoint resumes at the cursor with
                    no double-counting — bit-identical at the quiescent
                    point to an uninterrupted run. Unlike `infer`, an
                    existing checkpoint resumes automatically (a daemon
                    restart IS the resume path).
    --checkpoint-every N
                    Checkpoint every N window advances (default 1).
    --queue-kb N / --chunk-kb N
                    Bounded ingest queue: at most N KiB buffered between
                    the delivery thread and the fold loop (default 4096),
                    read in chunk-kb pieces (default 64). A full queue
                    blocks the producer and counts a backpressure stall —
                    memory stays bounded no matter how fast the feed is.
    --stall-ms N    A connection delivering nothing for this long is torn
                    down and reconnected at the cursor (default 2000).
    --quiesce-after N
                    Exit cleanly after N consecutive reconnects that
                    deliver zero new bytes (the quiescent point, for
                    batch-parity checks and CI). Default: run until
                    SIGTERM/SIGINT.
    --json FILE     Write the cumulative labels on exit, byte-identical to
                    `infer --json` over the same delivered prefix.
    --listen HOST:PORT
                    (feed) Bind address; the actually bound address is
                    printed to stdout (use port 0 for tests).
    --throttle BYTES:MS
                    (feed) Pace delivery: BYTES per write, MS sleep between.
    Without --mrt, `feed` serves a generated scenario stream
    (--scale, --seed, --days as in `generate`).

SERVING (query):
    --artifact-out FILE
                    (infer, shard, watch) Also write the labels as a
                    versioned, checksummed, memory-mappable artifact (sorted
                    columns keyed by the packed α:β word), written atomically.
                    Field-for-field equivalent to the --json label file.
    --artifact FILE (query) The artifact to serve from. A corrupt,
                    truncated, or incompatible artifact is refused with
                    exit 4, like a bad checkpoint.
    --key A:B       (query) Point lookup(s); repeatable and/or
                    comma-separated. Misses print `unknown` (still exit 0).
    --batch FILE    (query) One community per line (# comments and blank
                    lines skipped), looked up via the batch API across
                    --threads workers.
    --owner A       (query) Print every label owned by AS A via the
                    owner-partitioned index (contiguous α-prefix scan).
    --bench N       (query) Self-driving benchmark: N deterministic
                    single-key lookups (~1/16 misses) plus the same keys
                    through the batch API; prints Mlookups/s for both.
    --no-mmap       (query) Load the artifact onto the heap instead of
                    memory-mapping it (the mmap path is the default).
    --check MRT     (query) Stream archive(s) and flag routes whose
                    communities contradict their inferred intent class:
                    a never-off-path information community seen off-path,
                    or a never-on-path action community seen on-path.
                    Any anomaly exits 7 (after printing the exact set).

FAULT INJECTION (stats, infer, shard), for testing the supervision layer:
    --inject-panic-after N   Panic a decode worker after N records per file.
    --inject-flaky SEED      Inject seeded transient I/O faults (interrupts,
                             stalls, short reads) into every file read.
    --inject-crash-after N   (infer) With --checkpoint: exit (code 9) after N
                             newly committed files, simulating a crash.
    --inject-kill-shard I    (shard) Crash shard I's worker (exit 9) on its
                             first attempt; retries then succeed.
    --inject-stall-shard I   (shard) Stall shard I's worker past the
                             heartbeat deadline on its first attempt.
    --inject-fail-shard I    (shard) Crash shard I's worker on *every*
                             attempt, exhausting its retry budget.
    --inject-stream-faults SEED[:RATE]
                             (watch) Wrap the source in seeded stream fault
                             injection (disconnects mid-frame, stalls,
                             partial frames, duplicate delivery, corrupt
                             bursts).
    --slow-fold-ms N         (watch) Sleep N ms per record, making the
                             consumer slow enough to exercise backpressure.
    --inject-crash-after-windows N
                             (watch) Simulate SIGKILL (exit 9, no
                             checkpoint flush) after N window advances.

EXIT CODES:
    0  success                        5  failed shards exceeded allowance
    1  usage or generic error         6  stream aborted (budget exhausted)
    2  decode error in --strict mode  7  anomalies found (query --check)
    3  ingestion aborted              9  injected crash
    4  checkpoint/artifact refused
";

// The process exit-code contract, consolidated (mirrored in DESIGN.md and
// the USAGE text above — keep all three in sync):
//
// | code | constant          | meaning                                          |
// |------|-------------------|--------------------------------------------------|
// | 0    | —                 | success                                          |
// | 1    | `EXIT_USAGE`      | usage error or generic failure                   |
// | 2    | `EXIT_DECODE`     | decode error under `--strict`                    |
// | 3    | `EXIT_ABORTED`    | lenient ingestion aborted (error budget, I/O)    |
// | 4    | `EXIT_CHECKPOINT` | checkpoint or label artifact refused (corrupt)   |
// | 5    | `EXIT_SHARD`      | permanently failed shards exceeded the allowance |
// | 6    | `EXIT_STREAM`     | watch stream aborted (reconnect/decode budget)   |
// | 7    | `EXIT_ANOMALY`    | `query --check` found intent contradictions      |
// | 9    | `EXIT_CRASH`      | deliberate `--inject-crash-after` kill hook      |

/// Exit code for a usage error or any otherwise-unclassified failure.
pub const EXIT_USAGE: u8 = 1;
/// Exit code for a decode error under `--strict`.
pub const EXIT_DECODE: u8 = 2;
/// Exit code for an aborted lenient ingest (error budget, fatal I/O).
pub const EXIT_ABORTED: u8 = 3;
/// Exit code for a refused checkpoint (fingerprint or schema mismatch, or a
/// checkpoint that would be silently overwritten without `--resume`) — and,
/// same failure class, a label artifact whose contents were refused at load
/// (corrupt, truncated, wrong version, empty).
pub const EXIT_CHECKPOINT: u8 = 4;
/// Exit code for a sharded run whose permanently failed shards exceeded
/// `--allow-shard-failures`.
pub const EXIT_SHARD: u8 = 5;
/// Exit code for a watch stream that aborted: the reconnect budget or the
/// decode error budget ran out before shutdown or the quiescent point.
pub const EXIT_STREAM: u8 = 6;
/// Exit code when `query --check` found at least one route whose observed
/// communities contradict their inferred intent class.
pub const EXIT_ANOMALY: u8 = 7;
/// Exit code of the deliberate `--inject-crash-after` kill hook.
pub const EXIT_CRASH: u8 = 9;

/// A command failure: user-facing message plus the process exit code.
#[derive(Debug)]
pub struct Failure {
    /// What went wrong, for stderr.
    pub message: String,
    /// Process exit code (1 = generic, see `EXIT_*`).
    pub code: u8,
}

impl Failure {
    fn new(code: u8, message: impl Into<String>) -> Self {
        Failure {
            message: message.into(),
            code,
        }
    }

    /// Prefix the message with what was being done.
    fn context(mut self, what: &str) -> Self {
        self.message = format!("{what}: {}", self.message);
        self
    }
}

impl From<String> for Failure {
    fn from(message: String) -> Self {
        Failure::new(EXIT_USAGE, message)
    }
}

impl From<&str> for Failure {
    fn from(message: &str) -> Self {
        Failure::from(message.to_string())
    }
}

/// A file that was read but refused (corrupt, torn, foreign, wrong
/// version) is exit 4; one that could not be read at all is a usage error.
impl From<LoadError> for Failure {
    fn from(e: LoadError) -> Self {
        let code = if e.is_invalid_data() {
            EXIT_CHECKPOINT
        } else {
            EXIT_USAGE
        };
        Failure::new(code, e.to_string())
    }
}

/// The same split for the I/O errors `watch` surfaces, plus its lost
/// stream: refused data or mismatched checkpoint geometry is exit 4, an
/// exhausted reconnect or decode budget exit 6.
impl From<io::Error> for Failure {
    fn from(e: io::Error) -> Self {
        let code = match e.kind() {
            io::ErrorKind::ConnectionAborted => EXIT_STREAM,
            io::ErrorKind::InvalidData | io::ErrorKind::InvalidInput => EXIT_CHECKPOINT,
            _ => EXIT_USAGE,
        };
        Failure::new(code, e.to_string())
    }
}

/// Run-level shutdown flag, set by the SIGTERM/SIGINT handler installed by
/// [`install_shutdown_handlers`]. `watch` drains and flushes a final
/// checkpoint; `shard` forwards the TERM to its workers and waits for their
/// artifact flush.
pub static SHUTDOWN: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Install SIGTERM/SIGINT handlers that set [`SHUTDOWN`] (and nothing
/// else — flag stores are async-signal-safe). Only the long-running
/// commands (`watch`, `feed`, `shard`) install this; everything else keeps
/// the default die-on-signal disposition.
#[cfg(unix)]
fn install_shutdown_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn request_shutdown(_signum: i32) {
        SHUTDOWN.store(true, std::sync::atomic::Ordering::SeqCst);
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = request_shutdown as *const () as usize;
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

#[cfg(not(unix))]
fn install_shutdown_handlers() {}

/// Input files, damage policy and read supervision.
const INGEST: Flags = Flags::new(
    "mrt max-errors report threads retry-attempts inject-panic-after inject-flaky",
    "strict",
);
/// `--metrics-out`, `--trace-json`, `--trace`.
const TELEMETRY: Flags = Flags::new("metrics-out trace-json", "trace");
/// Classification knobs and label outputs shared by `infer` and `shard`.
const LABELS: Flags = Flags::new("gap ratio dict siblings json top artifact-out", "");
const CHECKPOINT: Flags = Flags::new("checkpoint inject-crash-after", "resume");
const SHARD: Flags = Flags::new(
    "shard-dir workers shard-retries shard-deadline-ms allow-shard-failures \
     inject-kill-shard inject-stall-shard inject-fail-shard",
    "",
);
/// The flags `shard` passes on to its workers verbatim: the ingestion
/// policy. Analysis and output flags stay with the supervisor.
const FORWARDED: &str =
    "siblings max-errors retry-attempts inject-flaky inject-panic-after threads";
const SHARD_WORKER: Flags = Flags::new(
    "mrt out heartbeat siblings max-errors threads retry-attempts inject-panic-after \
     inject-flaky inject-crash-after inject-stall-ms",
    "",
);
const WATCH: Flags = Flags::new(
    "connect unix tail window-secs windows checkpoint checkpoint-every queue-kb chunk-kb \
     stall-ms retry-attempts quiesce-after gap ratio siblings json artifact-out max-errors \
     report threads metrics-out inject-stream-faults slow-fold-ms inject-crash-after-windows",
    "",
);
const QUERY: Flags = Flags::new(
    "artifact key batch owner bench threads check siblings max-errors report",
    "no-mmap",
);
const FEED: Flags = Flags::new("listen mrt days throttle", "");
const GENERATE: Flags = Flags::new("out days", "stream");

/// A subcommand: its name, every flag it acts on (anything else is refused
/// before it runs), and its body.
struct Command(
    &'static str,
    &'static [Flags],
    fn(&Run) -> Result<(), Failure>,
);

/// Every subcommand, with its declared flags.
const COMMANDS: &[Command] = &[
    Command("stats", &[INGEST, TELEMETRY], stats),
    Command("infer", &[INGEST, TELEMETRY, LABELS, CHECKPOINT], infer),
    Command("shard", &[INGEST, TELEMETRY, LABELS, SHARD], shard),
    Command("shard-worker", &[SHARD_WORKER], shard_worker),
    Command("watch", &[WATCH], watch),
    Command("query", &[TELEMETRY, QUERY], query),
    Command("feed", &[ScenarioConfig::FLAGS, FEED], feed),
    Command("validate", &[Flags::new("mrt", "")], validate),
    Command("compare", &[Flags::new("old new", "")], compare),
    Command("generate", &[ScenarioConfig::FLAGS, GENERATE], generate),
];

/// Run subcommand `name` over `raw`: parse its declared flags, build the
/// [`Run`] context, run the body, and write `--metrics-out` on every exit
/// path, so aborted runs still leave their accounting (the command's own
/// failure wins over a failed snapshot write).
pub fn run(name: &str, raw: Vec<String>) -> Result<(), Failure> {
    let Command(_, flags, body) = COMMANDS
        .iter()
        .find(|c| c.0 == name)
        .ok_or_else(|| format!("unknown command {name:?}\n\n{USAGE}"))?;
    let run = Run::new(Args::parse(raw, flags)?)?;
    let outcome = body(&run);
    let written = run.write_metrics();
    outcome.and(written)
}

/// What a subcommand runs with: its parsed flags, the ingest policy and
/// telemetry they set, and the writer for its JSON outputs.
struct Run {
    args: Args,
    ingest: IngestOptions,
    tel: Telemetry,
}

impl Run {
    /// Assemble the ingest policy (`--strict`, `--max-errors`,
    /// `--threads`, `--retry-attempts`, the fault hooks) and telemetry
    /// (`--metrics-out`, `--trace`, `--trace-json`) from the flags; a
    /// command that does not declare one gets its default.
    fn new(args: Args) -> Result<Self, Failure> {
        let mut ingest = IngestOptions {
            strict: args.flag("strict"),
            threads: args.get("threads", 0usize)?,
            panic_after_records: optional(&args, "inject-panic-after")?,
            ..IngestOptions::default()
        };
        if let Some(limit) = optional(&args, "max-errors")? {
            if ingest.strict {
                return Err("--strict and --max-errors are mutually exclusive".into());
            }
            ingest.recover.max_errors = Some(limit);
        }
        ingest.retry.max_attempts = args.get("retry-attempts", ingest.retry.max_attempts)?;
        if ingest.retry.max_attempts == 0 {
            return Err("--retry-attempts must be at least 1".into());
        }
        ingest.flaky = optional(&args, "inject-flaky")?.map(|seed| FlakyConfig {
            seed,
            ..FlakyConfig::default()
        });
        let tracer = if let Some(path) = args.get_str("trace-json") {
            let writer: Box<dyn Write + Send> = if path == "-" {
                Box::new(io::stdout())
            } else {
                let file = File::create(path).map_err(|e| format!("create {path}: {e}"))?;
                Box::new(BufWriter::new(file))
            };
            Tracer::new(Arc::new(JsonLinesSink::new(writer)))
        } else if args.flag("trace") {
            Tracer::new(Arc::new(StderrSink))
        } else {
            Tracer::disabled()
        };
        let metrics = args
            .get_str("metrics-out")
            .map(|_| Arc::new(MetricsRegistry::new()));
        Ok(Run {
            args,
            ingest,
            tel: Telemetry { tracer, metrics },
        })
    }

    /// Every `--mrt` file: the repeated form (`--mrt a --mrt b`) and
    /// comma-separated values within one flag.
    fn mrt_files(&self) -> Result<Vec<String>, Failure> {
        let all = self.args.get_all("mrt");
        if all.is_empty() {
            return Err("at least one --mrt FILE is required".into());
        }
        Ok(all
            .iter()
            .flat_map(|v| v.split(','))
            .map(str::to_string)
            .collect())
    }

    /// The one per-file loop, behind `stats`, `infer`, `shard-worker` and
    /// `query --check`: decode `paths` into one `S` each, in waves of
    /// `wave` files that fan out over the decode threads, then, file by
    /// file in input order, print the summary line, merge the report into
    /// `report`, and hand every file that did not fail to `each` with what
    /// `prepare` returned for it. `prepare` runs on each file before its
    /// wave decodes; an error from it fails the file as an aborted decode
    /// does, and an error from `each` stops the loop. Once every file is
    /// through, `--report` gets the merged report, and the earliest failed
    /// file fails the run (see [`ingest_failure`](Self::ingest_failure)).
    ///
    /// Every wave records its files under `ingest/*`, and there is always
    /// at least one, so the ingest stage is timed even with no file left
    /// to read.
    fn read_each<S: ObservationSink + Default + Send, T>(
        &self,
        paths: &[String],
        wave: usize,
        mut report: IngestReport,
        mut prepare: impl FnMut(&Path) -> Result<T, String>,
        mut each: impl FnMut(&str, S, &IngestReport, T) -> Result<(), Failure>,
    ) -> Result<IngestReport, Failure> {
        let mut failed = None;
        let mut rest = paths;
        loop {
            let (now, later) = rest.split_at(rest.len().min(wave.max(1)));
            rest = later;
            let now: Vec<PathBuf> = now.iter().map(PathBuf::from).collect();
            let prepared: Vec<_> = now.iter().map(|p| prepare(p)).collect();
            let (files, _) = read_files::<S>(&now, &self.ingest, &self.tel);
            for (file, prepared) in files.into_iter().zip(prepared) {
                let path = file.path.display().to_string();
                eprintln!(
                    "{path}: {} observations ({})",
                    file.store.observation_count(),
                    file.report.summary()
                );
                report.merge(&file.report);
                // An aborted decode fails the file whatever `prepare` said.
                match file.report.aborted.clone().map_or(prepared, Err) {
                    Ok(prepared) => each(&path, file.store, &file.report, prepared)?,
                    Err(why) => {
                        failed.get_or_insert_with(|| format!("{path}: {why}"));
                    }
                }
            }
            if rest.is_empty() {
                break;
            }
        }
        self.write_report(&report)?;
        match failed {
            Some(why) => Err(self.ingest_failure(&why)),
            None => Ok(report),
        }
    }

    /// [`read_each`](Self::read_each) over every file in one wave with
    /// nothing to prepare or commit, as `stats`, `infer` and `query --check`
    /// read: unreadable input is refused as a usage error before any decode
    /// work fans out.
    fn read_all<S: ObservationSink + Default + Send>(
        &self,
        paths: &[String],
        mut each: impl FnMut(S),
    ) -> Result<IngestReport, Failure> {
        open_all(paths)?;
        self.read_each(
            paths,
            paths.len(),
            IngestReport::default(),
            |_| Ok(()),
            |_, file, _, ()| {
                each(file);
                Ok(())
            },
        )
    }

    /// The failure of a run whose earliest failed file is `why`: a decode
    /// error under `--strict` (exit 2), an aborted ingest otherwise (exit
    /// 3).
    fn ingest_failure(&self, why: &str) -> Failure {
        if self.ingest.strict {
            Failure::new(EXIT_DECODE, format!("parse {why}"))
        } else {
            Failure::new(EXIT_ABORTED, format!("ingestion aborted: {why}"))
        }
    }

    /// Honor `--report FILE` (or `-` for stdout) with the merged ingest
    /// report.
    fn write_report(&self, report: &IngestReport) -> Result<(), Failure> {
        match self.args.get_str("report") {
            Some(path) => write_document(path, report, "ingest report"),
            None => Ok(()),
        }
    }

    /// Honor `--metrics-out FILE` (or `-` for stdout) with a snapshot of
    /// everything recorded so far.
    fn write_metrics(&self) -> Result<(), Failure> {
        match (self.args.get_str("metrics-out"), self.tel.snapshot()) {
            (Some(path), Some(snapshot)) => write_document(path, &snapshot, "metrics snapshot"),
            _ => Ok(()),
        }
    }
}

/// Pretty JSON of `value`.
fn to_json(value: &impl serde::Serialize) -> Result<String, Failure> {
    serde_json::to_string_pretty(value).map_err(|e| format!("serialize: {e}").into())
}

/// A JSON document (`--report`, `--metrics-out`) to `path`, newline
/// terminated, noting on stderr where it went unless that was stdout.
fn write_document(path: &str, value: &impl serde::Serialize, what: &str) -> Result<(), Failure> {
    write_output(path, to_json(value)? + "\n")?;
    if path != "-" {
        eprintln!("wrote {what} to {path}");
    }
    Ok(())
}

/// The one output writer, behind `--json`, `--report`, `--metrics-out` and
/// `generate`'s JSON files: `text` to `path` in a single call, or to stdout
/// for `-`. Any write error, a full disk included, fails the command with
/// exit 1 instead of vanishing in a buffered writer's drop.
fn write_output(path: &str, text: String) -> Result<(), Failure> {
    let written = if path == "-" {
        io::stdout().lock().write_all(text.as_bytes())
    } else {
        std::fs::write(path, text)
    };
    written.map_err(|e| format!("write {path}: {e}").into())
}

/// An optional typed value: `None` when the flag is absent.
fn optional<T: std::str::FromStr>(args: &Args, name: &str) -> Result<Option<T>, String>
where
    T::Err: std::fmt::Display,
{
    args.get_str(name)
        .map(|raw| raw.parse().map_err(|e| format!("--{name} {raw}: {e}")))
        .transpose()
}

/// Parse the JSON file `--{flag}` names, when given: `--siblings` (the
/// as2org sibling map) and `--dict` (the ground-truth dictionary).
fn load_json<T: for<'de> serde::Deserialize<'de>>(
    args: &Args,
    flag: &str,
) -> Result<Option<T>, String> {
    let Some(path) = args.get_str(flag) else {
        return Ok(None);
    };
    let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    serde_json::from_reader(BufReader::new(file))
        .map(Some)
        .map_err(|e| format!("parse {path}: {e}"))
}

fn load_siblings(args: &Args) -> Result<SiblingMap, String> {
    Ok(load_json(args, "siblings")?.unwrap_or_default())
}

/// Refuse unreadable input as a usage error before any decode work fans
/// out.
fn open_all(paths: &[String]) -> Result<(), String> {
    for path in paths {
        File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    }
    Ok(())
}

/// `bgpcomm stats` — the one command that reads per-observation rows
/// across files, so the one that merges the files' stores.
fn stats(run: &Run) -> Result<(), Failure> {
    let mut store = ObservationStore::new();
    let report = run.read_all(&run.mrt_files()?, |file| store.merge(&file))?;

    // Everything falls out of the interners: paths and community sets are
    // already deduped, tuples dedup over dense ID pairs, and the scalar
    // columns sort+dedup without hashing a single string.
    let mut tuples: Vec<u64> = store
        .tuples()
        .map(|(p, c)| (u64::from(p) << 32) | u64::from(c))
        .collect();
    tuples.sort_unstable();
    tuples.dedup();
    // Every interned community rides some list: the slot dictionary is
    // the set of distinct communities.
    let communities = store.community_count();
    let owners: HashSet<u16> = (0..communities as u32)
        .map(|slot| store.community(slot).asn)
        .collect();
    let mut vps: Vec<_> = (0..store.len()).map(|i| store.vp(i)).collect();
    vps.sort_unstable();
    vps.dedup();
    let mut prefixes: Vec<_> = (0..store.len()).map(|i| store.prefix(i)).collect();
    prefixes.sort_unstable();
    prefixes.dedup();
    println!("observations        : {}", store.len());
    println!("vantage points      : {}", vps.len());
    println!("prefixes            : {}", prefixes.len());
    println!("unique AS paths     : {}", store.path_count());
    println!("unique tuples       : {}", tuples.len());
    println!("distinct communities: {}", communities);
    println!("community owners    : {}", owners.len());
    if !report.is_clean() {
        println!("ingest degradation  : {}", report.summary());
    }
    Ok(())
}

/// `--checkpoint` / `--resume` / `--inject-crash-after` policy for `infer`.
struct CheckpointOptions {
    path: PathBuf,
    resume: bool,
    /// Deliberate kill hook: exit ([`EXIT_CRASH`]) after this many files
    /// committed *this run*.
    crash_after: Option<u64>,
}

impl CheckpointOptions {
    fn from_args(args: &Args) -> Result<Option<Self>, String> {
        let crash_after = optional(args, "inject-crash-after")?;
        let Some(path) = args.get_str("checkpoint") else {
            if args.flag("resume") {
                return Err("--resume requires --checkpoint FILE".into());
            }
            if crash_after.is_some() {
                return Err("--inject-crash-after requires --checkpoint FILE".into());
            }
            return Ok(None);
        };
        Ok(Some(CheckpointOptions {
            path: PathBuf::from(path),
            resume: args.flag("resume"),
            crash_after,
        }))
    }
}

/// The saver of the `--checkpoint` file, whose directory is checked before
/// any decode work, and the manifest to continue: loaded under `--resume`,
/// else a new one. An existing checkpoint without `--resume` is refused
/// rather than overwritten, as is one this build cannot read.
fn open_checkpoint<'a>(
    ckpt: &'a CheckpointOptions,
    metrics: Option<&'a MetricsRegistry>,
) -> Result<(CheckpointSaver<'a, Checkpoint>, Checkpoint), Failure> {
    let mut saver = CheckpointSaver::new(&ckpt.path, metrics).map_err(|e| e.to_string())?;
    if ckpt.path.exists() && !ckpt.resume {
        let why = format!(
            "checkpoint {} already exists; pass --resume to continue it or remove it to start over",
            ckpt.path.display()
        );
        return Err(Failure::new(EXIT_CHECKPOINT, why));
    }
    let resumed = saver
        .resume()
        .map_err(|e| Failure::from(e).context("load checkpoint"))?;
    if resumed.is_none() && ckpt.resume {
        eprintln!(
            "checkpoint {} does not exist yet; starting fresh",
            ckpt.path.display()
        );
    }
    Ok((saver, resumed.unwrap_or_default()))
}

/// What a checkpointed fold runs on each file before its wave decodes: the
/// fingerprint its [`CompletedFile`] records, of the bytes ingested.
fn fingerprint(tel: &Telemetry, path: &Path) -> Result<FileFingerprint, String> {
    tel.stage("checkpoint_fingerprint", || fingerprint_file(path))
        .map_err(|e| format!("fingerprint: {e}"))
}

/// The crash-safe incremental `infer` path: fold file by file into the
/// checkpoint's segment, committing after every completed file (one frame
/// appended to its log, then the manifest replaced). Failed files are not
/// recorded, so a resumed run retries them. Returns the segment, the
/// observations this run folded into it, and the report over every file
/// it holds; the labels classified from it are bit-identical to the
/// non-checkpointed path at any thread count and across any crash/resume
/// split.
fn infer_checkpointed(
    run: &Run,
    paths: &[String],
    siblings: &SiblingMap,
    ckpt: &CheckpointOptions,
) -> Result<(StatsAccumulator, usize, IngestReport), Failure> {
    if run.ingest.strict {
        return Err("--checkpoint requires lenient ingestion (drop --strict)".into());
    }
    let tel = &run.tel;
    let (mut saver, mut checkpoint) = open_checkpoint(ckpt, tel.registry())?;

    // A recorded file missing from the inputs means this is a different
    // run; refuse rather than classify from statistics of unseen data.
    for done in &checkpoint.files {
        if !paths.contains(&done.path) {
            return Err(Failure::new(
                EXIT_CHECKPOINT,
                format!(
                    "checkpoint records {} which is not among the --mrt inputs",
                    done.path
                ),
            ));
        }
    }
    // Completed files must still be the bytes that were ingested.
    let verified_files = tel
        .registry()
        .map(|m| m.counter("checkpoint/verified_files"));
    let mut pending = Vec::new();
    for path in paths {
        match checkpoint.completed(path) {
            None => pending.push(path.clone()),
            Some(recorded) => {
                let now = tel
                    .stage("checkpoint_verify", || fingerprint_file(Path::new(path)))
                    .map_err(|e| format!("fingerprint {path}: {e}"))?;
                if now != *recorded {
                    return Err(Failure::new(
                        EXIT_CHECKPOINT,
                        format!(
                            "{path} changed since it was checkpointed \
                             ({} bytes/hash {:#x} now vs {} bytes/hash {:#x} recorded); \
                             remove the checkpoint to re-ingest",
                            now.bytes, now.hash, recorded.bytes, recorded.hash
                        ),
                    ));
                }
                if let Some(c) = &verified_files {
                    c.inc();
                }
                eprintln!("{path}: skipped (checkpointed, fingerprint verified)");
            }
        }
    }
    // The files earlier runs committed count toward this run's metrics as
    // they do toward its report.
    if let Some(metrics) = tel.registry() {
        checkpoint.report.record_metrics(metrics);
        metrics
            .counter("ingest/files")
            .add(checkpoint.files.len() as u64);
    }

    let (mut observations, mut committed) = (0, 0u64);
    let report = run.read_each(
        &pending,
        effective_threads(run.ingest.threads),
        checkpoint.report.clone(),
        |p| fingerprint(tel, p),
        |path, file: FileSegment, report, fingerprint| {
            observations += file.observation_count();
            checkpoint.snapshot.merge_file(file, siblings);
            checkpoint.report.merge(report);
            let path = path.to_string();
            checkpoint.files.push(CompletedFile { path, fingerprint });
            let _span = tel.tracer.span("checkpoint_write");
            saver.save(&checkpoint).map_err(|e| e.to_string())?;
            committed += 1;
            if ckpt.crash_after == Some(committed) {
                return Err(Failure::new(
                    EXIT_CRASH,
                    format!(
                        "injected crash after {committed} committed file(s) \
                         (checkpoint intact; resume with --resume)"
                    ),
                ));
            }
            Ok(())
        },
    )?;
    Ok((checkpoint.snapshot, observations, report))
}

/// The shared inference knobs (`--gap`, `--ratio`) for `infer`, `shard`
/// and `watch`.
fn inference_config(args: &Args, threads: usize) -> Result<InferenceConfig, String> {
    Ok(InferenceConfig {
        min_gap: args.get("gap", 140u16)?,
        ratio_threshold: args.get("ratio", 160.0f64)?,
        threads,
        ..InferenceConfig::default()
    })
}

/// Print the classification summary, the `--top` label sample, and the
/// `--json` label file. Shared verbatim by `infer` and `shard`, which is
/// what makes their stdout and label files byte-comparable.
fn print_inference(
    args: &Args,
    result: &PipelineResult,
    ingest: &IngestReport,
) -> Result<(), Failure> {
    let (action, info) = result.inference.intent_counts();
    println!("observed communities : {}", result.stats.community_count());
    println!(
        "classified           : {} ({info} information, {action} action)",
        result.inference.labels.len()
    );
    println!("owner ASes           : {}", result.inference.owner_count());
    let count = |e: Exclusion| {
        result
            .inference
            .excluded
            .values()
            .filter(|x| **x == e)
            .count()
    };
    println!(
        "excluded             : {} private-ASN, {} reserved, {} never-on-path",
        count(Exclusion::PrivateAsn),
        count(Exclusion::ReservedAsn),
        count(Exclusion::NeverOnPath),
    );
    if let Some(eval) = &result.evaluation {
        println!(
            "dictionary evaluation: {}/{} correct ({:.1}%)",
            eval.correct,
            eval.total,
            eval.accuracy() * 100.0
        );
    }
    if !ingest.is_clean() {
        println!("ingest degradation   : {}", ingest.summary());
    }

    // Human-readable sample, largest owners first.
    let top: usize = args.get("top", 10)?;
    if top > 0 {
        let mut labels: Vec<_> = result.inference.labels.iter().collect();
        labels.sort_by_key(|(c, _)| **c);
        println!("\nfirst {} labels:", top.min(labels.len()));
        for (c, intent) in labels.into_iter().take(top) {
            println!("  {c:<12} {intent}");
        }
    }
    write_labels(args, &result.inference, args.get("ratio", 160.0f64)?)
}

/// Honor `--json` and `--artifact-out` with an inference's labels. Shared
/// by `infer`, `shard`, and `watch` — which is what makes a watch run's
/// label file byte-comparable (`cmp`) to a batch run over the same prefix.
/// The JSON file is built from the same sorted [`LabelRow`]s the artifact
/// writer serializes, so the two agree field-for-field by construction.
fn write_labels(
    args: &Args,
    inference: &bgp_intent::Inference,
    ratio_threshold: f64,
) -> Result<(), Failure> {
    if let Some(path) = args.get_str("json") {
        // label_rows sorts on the packed key, which orders exactly like the
        // typed (asn, value) key: no lossy fallback, and community order is
        // the natural order rather than lexicographic.
        let rows = label_rows(inference, ratio_threshold);
        write_output(path, label_json(&rows))?;
        eprintln!("wrote {} labels to {path}", rows.len());
    }
    if let Some(path) = args.get_str("artifact-out") {
        let n = write_inference_artifact(Path::new(path), inference, ratio_threshold)
            .map_err(|e| format!("write artifact {path}: {e}"))?;
        eprintln!("wrote {n} labels to {path} (artifact)");
    }
    Ok(())
}

/// The `--json` label file: one object per row, in row order, laid out as
/// the JSON shim's pretty printer lays out a map per row — keys in
/// alphabetical order, two-space indents, `[]` for no rows and no final
/// newline — so the bytes are those of the `serde_json::Value` rendering
/// without building one.
fn label_json(rows: &[LabelRow]) -> String {
    use std::fmt::Write as _;
    if rows.is_empty() {
        return "[]".into();
    }
    let mut out = String::new();
    for (i, r) in rows.iter().enumerate() {
        out.push_str(if i == 0 { "[\n" } else { ",\n" });
        let _ = write!(
            out,
            "  {{\n    \"community\": \"{}\",\n    \"confidence\": {},\n    \"intent\": \"{}\",\n    \"off_paths\": {},\n    \"on_paths\": {},\n    \"ratio\": {}\n  }}",
            r.community,
            JsonFloat(r.confidence),
            r.label,
            r.off_paths,
            r.on_paths,
            JsonFloat(r.ratio),
        );
    }
    out.push_str("\n]");
    out
}

/// A float as the JSON shim prints one: its shortest form, with `.0` when
/// it is integral, and `null` when it is not finite.
struct JsonFloat(f64);

impl std::fmt::Display for JsonFloat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0 {
            n if !n.is_finite() => f.write_str("null"),
            n if n.fract() == 0.0 => write!(f, "{n}.0"),
            n => write!(f, "{n}"),
        }
    }
}

/// `bgpcomm infer`: every file decodes straight into its own segment, and
/// the segments merge in input order into the one the labels come from —
/// with `--checkpoint`, the checkpoint's.
fn infer(run: &Run) -> Result<(), Failure> {
    let siblings = load_siblings(&run.args)?;
    let cfg = inference_config(&run.args, run.ingest.threads)?;
    let dict: Option<GroundTruthDictionary> = load_json(&run.args, "dict")?;
    let ckpt = CheckpointOptions::from_args(&run.args)?;
    let paths = run.mrt_files()?;
    let (segment, observations, report) = match ckpt {
        Some(ckpt) => infer_checkpointed(run, &paths, &siblings, &ckpt)?,
        None => {
            let (mut segment, mut observations) = (StatsAccumulator::new(), 0);
            let report = run.read_all(&paths, |file: FileSegment| {
                observations += file.observation_count();
                segment.merge_file(file, &siblings);
            })?;
            (segment, observations, report)
        }
    };
    let input = Input::Segment(&segment, observations);
    let result = run_inference(input, &siblings, &cfg, dict.as_ref(), &run.tel);
    // Free the segment before the label file is built.
    drop(segment);
    print_inference(&run.args, &result, &report)
}

/// `bgpcomm shard-worker` — one shard of a supervised `shard` run
/// (internal: spawned by the supervisor, but callable by hand for
/// debugging). Folds its `--mrt` files in order, touching the
/// `--heartbeat` file after every completed file, and finally saves its
/// statistics as a [`Checkpoint`] at `--out` (its log beside it). A crash
/// at any point leaves no artifact, the previous one or a complete new
/// one — never a torn one — which is what lets the supervisor treat
/// "valid artifact exists" as the one and only success signal.
fn shard_worker(run: &Run) -> Result<(), Failure> {
    let args = &run.args;
    let out = PathBuf::from(args.get_str("out").ok_or("--out FILE is required")?);
    let heartbeat = args.get_str("heartbeat").map(PathBuf::from);
    let crash_after: Option<u64> = optional(args, "inject-crash-after")?;
    let stall_ms: Option<u64> = optional(args, "inject-stall-ms")?;
    let siblings = load_siblings(args)?;
    let paths = run.mrt_files()?;

    let beat = |n: u64| {
        if let Some(hb) = &heartbeat {
            // Heartbeat loss must never fail the shard — the worst case is
            // the supervisor killing a healthy worker, which retries.
            let _ = std::fs::write(hb, format!("{n}\n"));
        }
    };
    beat(0);

    let mut manifest = Checkpoint::new();
    // One file per wave, as a heartbeat per file: the supervisor's stall
    // deadline then bounds one file's decode, not a wave's.
    run.read_each(
        &paths,
        1,
        IngestReport::default(),
        |p| fingerprint(&run.tel, p),
        |path, file: FileSegment, report, fingerprint| {
            manifest.snapshot.merge_file(file, &siblings);
            manifest.report.merge(report);
            let path = path.to_string();
            manifest.files.push(CompletedFile { path, fingerprint });
            let committed = manifest.files.len() as u64;
            beat(committed);
            if crash_after == Some(committed) {
                return Err(Failure::new(
                    EXIT_CRASH,
                    format!("injected crash after {committed} ingested file(s)"),
                ));
            }
            if let (1, Some(ms)) = (committed, stall_ms) {
                // Simulated hang: no heartbeat progress and no exit until
                // (far past) the supervisor's stall deadline.
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
            Ok(())
        },
    )?;
    manifest
        .save_atomic(&out)
        .map_err(|e| format!("write artifact {}: {e}", out.display()))?;
    eprintln!(
        "shard artifact: {} ({} file(s), {} records)",
        out.display(),
        manifest.files.len(),
        manifest.report.records_read
    );
    Ok(())
}

/// `bgpcomm shard` — `infer` across N supervised worker subprocesses.
fn shard(run: &Run) -> Result<(), Failure> {
    use bgp_intent::{
        plan_shards, supervise_with_shutdown, ShardEvent, ShardSpec, SupervisorConfig,
    };
    use bgp_mrt::retry::RetryPolicy;
    use std::process::{Command, Stdio};
    use std::time::Duration;

    install_shutdown_handlers();
    let (args, tel) = (&run.args, &run.tel);
    if run.ingest.strict {
        return Err("shard runs lenient ingestion only (drop --strict)".into());
    }
    let siblings = load_siblings(args)?;
    let cfg = inference_config(args, run.ingest.threads)?;
    let dict: Option<GroundTruthDictionary> = load_json(args, "dict")?;

    let parse_indices = |name: &str| -> Result<Vec<usize>, String> {
        args.get_all(name)
            .iter()
            .map(|raw| raw.parse().map_err(|e| format!("--{name} {raw}: {e}")))
            .collect()
    };

    let paths = run.mrt_files()?;
    // Unreadable input is a usage error here, not N worker failures.
    open_all(&paths)?;
    let shard_dir = PathBuf::from(
        args.get_str("shard-dir")
            .ok_or("--shard-dir DIR is required")?,
    );
    std::fs::create_dir_all(&shard_dir)
        .map_err(|e| format!("create {}: {e}", shard_dir.display()))?;
    let workers = effective_threads(args.get("workers", 0usize)?).max(1);
    let allow: u64 = args.get("allow-shard-failures", 0u64)?;
    let retries: u32 = args.get("shard-retries", 2u32)?;
    let deadline_ms: u64 = args.get("shard-deadline-ms", 30_000u64)?;
    let kill_shards = parse_indices("inject-kill-shard")?;
    let stall_shards = parse_indices("inject-stall-shard")?;
    let fail_shards = parse_indices("inject-fail-shard")?;

    let specs = plan_shards(&paths, workers, &shard_dir);
    let defaults = SupervisorConfig::default();
    let sup_cfg = SupervisorConfig {
        retry: RetryPolicy {
            max_attempts: retries + 1,
            ..defaults.retry
        },
        stall_deadline: Duration::from_millis(deadline_ms.max(1)),
        ..defaults
    };
    eprintln!(
        "supervising {} shard(s) over {} file(s) ({} attempt(s) per shard, {}ms stall deadline)",
        specs.len(),
        paths.len(),
        sup_cfg.retry.max_attempts,
        deadline_ms
    );

    let exe = std::env::current_exe().map_err(|e| format!("locate bgpcomm binary: {e}"))?;
    let mut forwarded: Vec<String> = Vec::new();
    for key in FORWARDED.split_whitespace() {
        if let Some(value) = args.get_str(key) {
            forwarded.push(format!("--{key}"));
            forwarded.push(value.to_string());
        }
    }
    let command = |spec: &ShardSpec, attempt: u32| {
        let mut cmd = Command::new(&exe);
        cmd.arg("shard-worker")
            .arg("--mrt")
            .arg(spec.files.join(","))
            .arg("--out")
            .arg(&spec.artifact)
            .arg("--heartbeat")
            .arg(&spec.heartbeat)
            .args(&forwarded);
        if fail_shards.contains(&spec.index) || (attempt == 1 && kill_shards.contains(&spec.index))
        {
            cmd.arg("--inject-crash-after").arg("1");
        }
        if attempt == 1 && stall_shards.contains(&spec.index) {
            let ms = deadline_ms.max(1).saturating_mul(20);
            cmd.arg("--inject-stall-ms").arg(ms.to_string());
        }
        // Worker chatter goes to a per-shard log (last attempt wins)
        // so the supervisor's own progress stream stays readable.
        let log = shard_dir.join(format!("shard-{:03}.log", spec.index));
        match File::create(&log) {
            Ok(file) => cmd.stderr(Stdio::from(file)),
            Err(_) => cmd.stderr(Stdio::null()),
        };
        cmd.stdout(Stdio::null());
        cmd
    };
    let outcomes = supervise_with_shutdown(
        &specs,
        &sup_cfg,
        command,
        |event| match event {
            ShardEvent::Reused { shard } => {
                eprintln!(
                    "shard {}: reusing valid artifact from a previous run",
                    shard.index
                );
            }
            ShardEvent::Discarded { shard, failure } => {
                eprintln!(
                    "shard {}: discarding leftover artifact ({failure}); redoing the shard",
                    shard.index
                );
            }
            ShardEvent::Started { shard, attempt } => {
                eprintln!(
                    "shard {}: attempt {attempt} ({} file(s))",
                    shard.index,
                    shard.files.len()
                );
            }
            ShardEvent::Retrying {
                shard,
                attempt,
                failure,
                backoff,
            } => {
                eprintln!(
                    "shard {}: attempt {attempt} failed ({failure}); retrying in {backoff:?}",
                    shard.index
                );
            }
            ShardEvent::Succeeded { shard, attempt } => {
                eprintln!(
                    "shard {}: artifact validated (attempt {attempt})",
                    shard.index
                );
            }
            ShardEvent::GaveUp {
                shard,
                attempts,
                failure,
            } => {
                eprintln!(
                    "shard {}: permanently failed after {attempts} attempt(s): {failure}",
                    shard.index
                );
            }
            ShardEvent::Interrupted { shard } => {
                eprintln!(
                    "shard {}: interrupted by shutdown before completing (resumable)",
                    shard.index
                );
            }
        },
        &SHUTDOWN,
    );

    // Merge in shard order. Each artifact holds its shard's statistics
    // segment, and segments merge by exact key, so the classification
    // downstream is bit-identical to a single-process run over the
    // covered files. The artifacts are consumed: the first segment is
    // extended in place, never cloned.
    let mut merged = IngestReport::default();
    let mut segment = StatsAccumulator::new();
    let mut failed = 0u64;
    let mut reused = 0u64;
    let mut retries_total = 0u64;
    let mut covered_files = 0u64;
    for (spec, outcome) in specs.iter().zip(outcomes) {
        retries_total += outcome.retries();
        reused += u64::from(outcome.reused);
        match outcome.artifact {
            Some(artifact) => {
                merged.merge(&artifact.report);
                segment.merge(artifact.snapshot);
                covered_files += spec.files.len() as u64;
            }
            None => {
                failed += 1;
                merged.shards_failed += 1;
                merged.files_lost += spec.files.len() as u64;
                for file in &spec.files {
                    merged.bytes_lost += std::fs::metadata(file).map(|m| m.len()).unwrap_or(0);
                }
            }
        }
    }
    if let Some(metrics) = tel.registry() {
        metrics.counter("shard/shards").add(specs.len() as u64);
        metrics.counter("shard/retries").add(retries_total);
        metrics.counter("shard/failed").add(failed);
        metrics.counter("shard/reused").add(reused);
        metrics
            .counter("shard/coverage_bytes")
            .add(merged.bytes_read);
        // The single-process path counts input files at read time
        // (see `read_files`); workers
        // run with telemetry disabled, so account for the files that
        // actually made it into the merge here.
        metrics.counter("ingest/files").add(covered_files);
    }
    run.write_report(&merged)?;
    if SHUTDOWN.load(std::sync::atomic::Ordering::SeqCst) {
        return Err(Failure::new(
            EXIT_ABORTED,
            format!(
                "shutdown requested; {failed} shard(s) left incomplete \
                 (artifacts are valid or absent, heartbeats removed); \
                 re-running the same command resumes only those shards"
            ),
        ));
    }
    if failed > allow {
        return Err(Failure::new(
            EXIT_SHARD,
            format!(
                "{failed} shard(s) failed permanently after {} attempt(s) each \
                 (allowance {allow}); see {}/shard-*.log; \
                 re-running the same command retries only the failed shards",
                sup_cfg.retry.max_attempts,
                shard_dir.display()
            ),
        ));
    }
    if failed > 0 {
        eprintln!(
            "continuing without {failed} failed shard(s): {} file(s) / {} byte(s) not covered",
            merged.files_lost, merged.bytes_lost
        );
    }
    if let Some(metrics) = tel.registry() {
        merged.record_metrics(metrics);
    }
    // The workers have exited: the kernel and the classification run on
    // the cores they held as well as on `--threads` (labels are the same
    // at any thread count).
    let cfg = InferenceConfig {
        threads: effective_threads(cfg.threads).max(workers),
        ..cfg
    };
    let result = run_inference(
        segment.to_stats_threaded(cfg.threads),
        &siblings,
        &cfg,
        dict.as_ref(),
        tel,
    );
    // Free the merged segment before the label file is built.
    drop(segment);
    print_inference(args, &result, &merged)
}

/// `--name N` for a size or cadence of which 0 is meaningless: `default`
/// when absent, a usage error naming the flag when 0.
fn at_least_one<T: std::str::FromStr + Default + PartialEq>(
    args: &Args,
    name: &str,
    default: T,
) -> Result<T, String> {
    let value = args.get(name, default)?;
    if value == T::default() {
        return Err(format!("--{name} must be at least 1"));
    }
    Ok(value)
}

/// `bgpcomm watch` — the streaming inference daemon.
fn watch(run: &Run) -> Result<(), Failure> {
    use bgp_intent::{run_watch, WatchOptions, WindowConfig};
    use bgp_mrt::{
        FaultyFeed, FeedAddr, FileTailFeed, SocketFeed, StreamFaultConfig, StreamTuning,
    };
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    install_shutdown_handlers();
    let args = &run.args;
    let siblings = load_siblings(args)?;
    let cfg = inference_config(args, run.ingest.threads)?;

    let stall = Duration::from_millis(at_least_one(args, "stall-ms", 2000u64)?);
    let connect = args.get_str("connect");
    let unix_path = args.get_str("unix");
    let tail = args.get_str("tail");
    if [connect, unix_path, tail].iter().flatten().count() != 1 {
        return Err("exactly one of --connect, --unix, --tail is required".into());
    }
    let source: Box<dyn bgp_mrt::StreamSource> = if let Some(addr) = connect {
        Box::new(SocketFeed::new(FeedAddr::Tcp(addr.to_string()), stall))
    } else if let Some(path) = unix_path {
        #[cfg(unix)]
        {
            Box::new(SocketFeed::new(FeedAddr::Unix(PathBuf::from(path)), stall))
        }
        #[cfg(not(unix))]
        {
            let _ = path;
            return Err("--unix is only available on unix platforms".into());
        }
    } else {
        Box::new(FileTailFeed::new(PathBuf::from(tail.expect("one source"))))
    };
    let source: Box<dyn bgp_mrt::StreamSource> = match args.get_str("inject-stream-faults") {
        None => source,
        Some(raw) => {
            let bad = |e: &dyn std::fmt::Display| format!("--inject-stream-faults {raw}: {e}");
            let (seed, rate) = match raw.split_once(':') {
                Some((seed, rate)) => (seed, Some(rate)),
                None => (raw, None),
            };
            let mut fault_cfg = StreamFaultConfig {
                seed: seed.parse().map_err(|e| bad(&e))?,
                ..StreamFaultConfig::default()
            };
            if let Some(rate) = rate {
                fault_cfg.rate = rate.parse().map_err(|e| bad(&e))?;
            }
            Box::new(FaultyFeed::new(source, fault_cfg))
        }
    };

    let mut tuning = StreamTuning {
        queue_bytes: at_least_one(args, "queue-kb", 4096usize)? << 10,
        chunk_bytes: at_least_one(args, "chunk-kb", 64usize)? << 10,
        stall_timeout: stall,
        ..StreamTuning::default()
    };
    tuning.retry.max_attempts = run.ingest.retry.max_attempts;
    tuning.quiesce_after = optional(args, "quiesce-after")?;
    let opts = WatchOptions {
        window: WindowConfig {
            window_secs: at_least_one(args, "window-secs", 3600u32)?,
            windows: at_least_one(args, "windows", 24usize)?,
        },
        infer: cfg,
        tuning,
        recover: run.ingest.recover.clone(),
        checkpoint: args.get_str("checkpoint").map(PathBuf::from),
        checkpoint_every: at_least_one(args, "checkpoint-every", 1u64)?,
        metrics: run.tel.metrics.clone(),
        slow_fold: optional(args, "slow-fold-ms")?.map(Duration::from_millis),
        crash_after_windows: optional(args, "inject-crash-after-windows")?,
    };

    // Bridge the process-global signal flag into the Arc the stream layer
    // shares with its delivery thread.
    let shutdown = Arc::new(AtomicBool::new(false));
    {
        let flag = Arc::clone(&shutdown);
        std::thread::spawn(move || loop {
            if SHUTDOWN.load(Ordering::SeqCst) {
                flag.store(true, Ordering::SeqCst);
                return;
            }
            std::thread::sleep(Duration::from_millis(25));
        });
    }

    eprintln!(
        "watch: {} (window {}s x {}, queue {} KiB, checkpoint {})",
        bgp_mrt::StreamSource::describe(&source),
        opts.window.window_secs,
        opts.window.windows,
        opts.tuning.queue_bytes >> 10,
        opts.checkpoint
            .as_deref()
            .map(|p| p.display().to_string())
            .unwrap_or_else(|| "disabled".into()),
    );
    let outcome = run_watch(source, &siblings, &opts, shutdown)
        .map_err(|e| Failure::from(e).context("watch"))?;

    if outcome.resumed {
        eprintln!(
            "watch: resumed from checkpoint (cursor caught up to {})",
            outcome.cursor
        );
    }
    let c = &outcome.counters;
    let load = |v: &std::sync::atomic::AtomicU64| v.load(Ordering::SeqCst);
    println!("records              : {}", outcome.records);
    println!("observations         : {}", outcome.observations);
    println!("window advances      : {}", outcome.advances);
    println!("label flaps          : {}", outcome.flaps);
    println!("late drops           : {}", outcome.late_drops);
    println!("reclassified owners  : {}", outcome.reclassified_owners);
    println!("stream cursor        : {} bytes", outcome.cursor);
    println!(
        "stream               : {} connection(s), {} reconnect(s), {} stall(s), {} disconnect(s)",
        load(&c.connections),
        load(&c.reconnects),
        load(&c.stalls),
        load(&c.disconnects),
    );
    println!("backpressure stalls  : {}", load(&c.backpressure_stalls));
    println!("queue peak           : {} bytes", load(&c.queue_peak_bytes));
    println!("windowed labels      : {}", outcome.windowed_labels.len());
    println!("cumulative labels    : {}", outcome.inference.labels.len());
    if !outcome.report.is_clean() {
        println!("ingest degradation   : {}", outcome.report.summary());
    }
    run.write_report(&outcome.report)?;
    write_labels(args, &outcome.inference, opts.infer.ratio_threshold)
}

/// Histogram bounds (nanoseconds) for per-lookup latency. Single lookups
/// against a warm mmap resolve in the hundreds of nanoseconds; the tail
/// buckets catch cold pages and scheduler noise.
const LOOKUP_LATENCY_BOUNDS: &[u64] = &[100, 250, 500, 1_000, 2_500, 5_000, 10_000, 100_000];

/// `bgpcomm query` — serve lookups from a label artifact.
///
/// Operations (any combination; at least one is required): `--key` point
/// lookups, `--batch` file lookups through the parallel batch API,
/// `--owner` α-prefix scans, `--bench` self-driving throughput measurement,
/// and `--check` — stream MRT archive(s) and flag routes whose observed
/// communities contradict their inferred intent class (exit 7 if any).
fn query(run: &Run) -> Result<(), Failure> {
    use std::time::Instant;

    let (args, tel) = (&run.args, &run.tel);
    let threads = run.ingest.threads;

    let path = args
        .get_str("artifact")
        .ok_or("--artifact FILE is required")?;
    let load = || {
        if args.flag("no-mmap") {
            LabelArtifact::load_heap(Path::new(path))
        } else {
            LabelArtifact::load(Path::new(path))
        }
    };
    let artifact = tel
        .stage("query_load", load)
        .map_err(|e| Failure::from(e).context("query"))?;
    eprintln!(
        "artifact: {} labels across {} owners from {path} ({})",
        artifact.len(),
        artifact.owner_count(),
        if artifact.is_mmapped() {
            "mmap"
        } else {
            "heap"
        },
    );

    // The `query/*` metrics surface: lookup volume, hit ratio, and a
    // per-lookup latency histogram for the point-lookup paths.
    let lookups = tel.registry().map(|r| r.counter("query/lookups"));
    let hits = tel.registry().map(|r| r.counter("query/hits"));
    let misses = tel.registry().map(|r| r.counter("query/misses"));
    let latency = tel
        .registry()
        .map(|r| r.histogram("query/latency_ns", LOOKUP_LATENCY_BOUNDS));
    let account = |row: &Option<LabelRow>, elapsed_ns: u64| {
        if let Some(c) = &lookups {
            c.inc();
        }
        if let Some(c) = if row.is_some() { &hits } else { &misses } {
            c.inc();
        }
        if elapsed_ns > 0 {
            if let Some(h) = &latency {
                h.observe(elapsed_ns);
            }
        }
    };
    let print_row = |c: Community, row: Option<LabelRow>| match row {
        Some(r) => println!(
            "{c} {} confidence={} ratio={} on={} off={}",
            r.label, r.confidence, r.ratio, r.on_paths, r.off_paths
        ),
        None => println!("{c} unknown"),
    };

    let mut ran_operation = false;

    // --key A:B[,A:B ...] (repeatable): point lookups through `get`.
    let key_specs: Vec<&str> = args
        .get_all("key")
        .iter()
        .flat_map(|v| v.split(','))
        .collect();
    if !key_specs.is_empty() {
        ran_operation = true;
        for spec in key_specs {
            let c: Community = spec.parse().map_err(|e| format!("--key {spec}: {e}"))?;
            let start = Instant::now();
            let row = artifact.get(c);
            account(&row, start.elapsed().as_nanos() as u64);
            print_row(c, row);
        }
    }

    // --batch FILE: one community per line, through the batch API.
    if let Some(batch_path) = args.get_str("batch") {
        ran_operation = true;
        let text =
            std::fs::read_to_string(batch_path).map_err(|e| format!("read {batch_path}: {e}"))?;
        let mut keys = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let c: Community = line
                .parse()
                .map_err(|e| format!("{batch_path}:{}: {e}", lineno + 1))?;
            keys.push(c);
        }
        let start = Instant::now();
        let rows = artifact.get_batch(&keys, threads);
        let elapsed = start.elapsed();
        let found = rows.iter().flatten().count();
        for (c, row) in keys.iter().zip(rows) {
            account(&row, 0);
            print_row(*c, row);
        }
        if let Some(r) = tel.registry() {
            r.record_duration("query/batch_ns", elapsed);
        }
        let secs = elapsed.as_secs_f64();
        eprintln!(
            "batch: {} lookups in {elapsed:?} ({found} found{})",
            keys.len(),
            if secs > 0.0 {
                format!(", {:.2} Mlookups/s", keys.len() as f64 / secs / 1e6)
            } else {
                String::new()
            },
        );
    }

    // --owner A: contiguous α-prefix scan via the owner index.
    if let Some(owner_spec) = args.get_str("owner") {
        ran_operation = true;
        let asn: u16 = owner_spec
            .parse()
            .map_err(|e| format!("--owner {owner_spec}: {e}"))?;
        let rows = artifact.owner_rows(asn);
        for r in &rows {
            print_row(r.community, Some(*r));
        }
        eprintln!("owner {asn}: {} labels", rows.len());
    }

    // --bench N: self-driving benchmark over the artifact's own key space,
    // ~1/16 keys perturbed into misses, deterministic xorshift64 walk.
    let bench_n: usize = args.get("bench", 0usize)?;
    if bench_n > 0 {
        ran_operation = true;
        if let Some(report) = bench_lookups(&artifact, bench_n, threads) {
            if let (Some(c), Some(h), Some(m)) = (&lookups, &hits, &misses) {
                c.add(report.total as u64);
                h.add(report.hits as u64);
                m.add(report.misses as u64);
            }
            if let Some(r) = tel.registry() {
                r.record_duration("query/bench_single_ns", report.single);
                r.record_duration("query/bench_batch_ns", report.batch);
            }
            eprintln!(
                "bench: {} single-key lookups in {:?} ({:.2} Mlookups/s)",
                bench_n,
                report.single,
                bench_n as f64 / report.single.as_secs_f64() / 1e6,
            );
            eprintln!(
                "bench: {} batch lookups in {:?} ({:.2} Mlookups/s, {} threads)",
                bench_n,
                report.batch,
                bench_n as f64 / report.batch.as_secs_f64() / 1e6,
                effective_threads(threads),
            );
        }
    }

    // --check MRT[,MRT ...]: stream the archive(s) and flag contradictions.
    let check_files: Vec<String> = args
        .get_all("check")
        .iter()
        .flat_map(|v| v.split(','))
        .map(str::to_string)
        .collect();
    if !check_files.is_empty() {
        ran_operation = true;
        let siblings = load_siblings(args)?;
        // File by file: each store is checked as it comes and dropped, and
        // the reports append, their observation indices counting across
        // the files in input order.
        let mut report = CheckReport::default();
        run.read_all(&check_files, |store: ObservationStore| {
            report.append(tel.stage("query_check", || check_store(&artifact, &store, &siblings)));
        })?;
        if let Some(r) = tel.registry() {
            r.counter("query/check_observations")
                .add(report.observations as u64);
            r.counter("query/check_checked").add(report.checked as u64);
            r.counter("query/check_unknown").add(report.unknown as u64);
            r.counter("query/check_anomalies")
                .add(report.anomalies.len() as u64);
        }
        for a in &report.anomalies {
            println!(
                "anomaly {} {} vp={} prefix={} obs={}",
                a.kind, a.community, a.vp, a.prefix, a.index
            );
        }
        println!(
            "check: {} observations, {} checked, {} unknown, {} anomalies",
            report.observations,
            report.checked,
            report.unknown,
            report.anomalies.len(),
        );
        if !report.anomalies.is_empty() {
            return Err(Failure::new(
                EXIT_ANOMALY,
                format!(
                    "query: {} route(s) contradict their inferred intent",
                    report.anomalies.len()
                ),
            ));
        }
    }

    if !ran_operation {
        return Err(Failure::from(
            "query: nothing to do — give --key, --batch, --owner, --bench, or --check",
        ));
    }
    Ok(())
}

/// What [`bench_lookups`] measured.
struct BenchReport {
    total: usize,
    hits: usize,
    misses: usize,
    single: std::time::Duration,
    batch: std::time::Duration,
}

/// Drive `--bench N`: build a deterministic workload from the artifact's
/// own key space (~1/16 perturbed into misses), then time the same keys
/// through the single-key path and the batch path. Returns `None` for an
/// empty artifact (the loader already refuses those, so this is defensive).
fn bench_lookups(artifact: &LabelArtifact, n: usize, threads: usize) -> Option<BenchReport> {
    use std::hint::black_box;
    use std::time::Instant;

    if artifact.is_empty() {
        return None;
    }
    // xorshift64 with a fixed seed: the workload is reproducible across
    // runs and machines, so throughput numbers are comparable.
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut step = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let keys: Vec<Community> = (0..n)
        .map(|_| {
            let r = step();
            let row = artifact.row((r % artifact.len() as u64) as usize);
            let c = row.community;
            if r % 16 == 0 {
                // Perturb ~1/16 into (likely) misses so the miss path —
                // a full-depth binary search — stays represented.
                Community::new(c.asn, c.value.wrapping_add(1))
            } else {
                c
            }
        })
        .collect();

    // Warm up: touch every page once so mmap faults don't count.
    let mut warm = 0usize;
    for &k in &keys {
        warm += artifact.get(k).is_some() as usize;
    }
    black_box(warm);

    let start = Instant::now();
    let mut hits = 0usize;
    for &k in &keys {
        hits += artifact.get(k).is_some() as usize;
    }
    let single = start.elapsed();
    black_box(hits);

    let start = Instant::now();
    let rows = artifact.get_batch(&keys, threads);
    let batch = start.elapsed();
    let batch_hits = rows.iter().flatten().count();
    assert_eq!(hits, batch_hits, "single and batch paths must agree");

    Some(BenchReport {
        total: n,
        hits,
        misses: n - hits,
        single,
        batch,
    })
}

/// `bgpcomm feed` — serve an MRT byte stream over TCP with the watch
/// resume protocol.
fn feed(run: &Run) -> Result<(), Failure> {
    use bgp_mrt::{FeedServer, FeedServerOptions};
    use std::time::Duration;

    install_shutdown_handlers();
    let args = &run.args;
    let listen = args.get_str("listen").unwrap_or("127.0.0.1:0");
    let bytes: Vec<u8> = if args.get_all("mrt").is_empty() {
        let days: u32 = args.get("days", 4)?;
        let scenario_cfg = ScenarioConfig::from_args(args)?;
        eprintln!(
            "feed: generating scenario stream (seed {}, scale {}, {} days)...",
            scenario_cfg.seed, scenario_cfg.scale, days
        );
        let scenario = Scenario::build(&scenario_cfg);
        let sim = scenario.simulator();
        let mut buf = Vec::new();
        scenario
            .stream_collect(&sim, days, &mut buf)
            .map_err(|e| format!("generate stream: {e}"))?;
        buf
    } else {
        let mut buf = Vec::new();
        for path in run.mrt_files()? {
            let mut file = File::open(&path).map_err(|e| format!("open {path}: {e}"))?;
            std::io::Read::read_to_end(&mut file, &mut buf)
                .map_err(|e| format!("read {path}: {e}"))?;
        }
        buf
    };
    let throttle = match args.get_str("throttle") {
        None => None,
        Some(raw) => {
            let bad = |e: &dyn std::fmt::Display| format!("--throttle {raw}: {e}");
            let (chunk, ms) = raw
                .split_once(':')
                .ok_or_else(|| bad(&"expected BYTES:MS"))?;
            let chunk: usize = chunk.parse().map_err(|e| bad(&e))?;
            let ms = ms.parse().map_err(|e| bad(&e))?;
            Some((chunk.max(1), Duration::from_millis(ms)))
        }
    };

    let listener =
        std::net::TcpListener::bind(listen).map_err(|e| format!("bind {listen}: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    // Scripts (and the e2e tests) read the bound address from this line —
    // flush it before blocking in the accept loop.
    println!("listening on {addr} ({} bytes)", bytes.len());
    let _ = std::io::stdout().flush();

    let server = FeedServer::new(Arc::new(bytes), FeedServerOptions { throttle });
    let served = server
        .serve_tcp(listener, &SHUTDOWN)
        .map_err(|e| format!("serve: {e}"))?;
    eprintln!("feed: served {served} connection(s)");
    Ok(())
}

/// `bgpcomm validate`: frame each archive as ingest does, through the
/// recovering reader, and count what decodes by record type. A RIB entry
/// whose peer index falls outside the peer table is an error, as ingest
/// drops it.
fn validate(run: &Run) -> Result<(), Failure> {
    use bgp_mrt::records::MrtRecord;
    use bgp_mrt::{MrtError, RecoveringReader};

    let mut total_errors = 0u64;
    for path in run.mrt_files()? {
        let file = File::open(&path).map_err(|e| format!("open {path}: {e}"))?;
        let mut reader = RecoveringReader::new(BufReader::new(file));
        let mut counts: std::collections::BTreeMap<&'static str, u64> = Default::default();
        let mut errors: Vec<String> = Vec::new();
        let mut note = |e: MrtError| {
            if errors.len() < 10 {
                errors.push(e.to_string());
            }
        };
        let (mut peers, mut dropped) = (0usize, 0u64);
        for item in reader.by_ref() {
            let kind = match item.map(|rec| rec.record) {
                Err(e) => {
                    note(e);
                    continue;
                }
                Ok(MrtRecord::PeerIndexTable(t)) => {
                    peers = t.peers.len();
                    "PEER_INDEX_TABLE"
                }
                Ok(MrtRecord::Rib(rib)) => {
                    for entry in &rib.entries {
                        if entry.peer_index as usize >= peers {
                            dropped += 1;
                            let why = format!("peer index {} out of range", entry.peer_index);
                            note(MrtError::malformed("RIB entry", why));
                        }
                    }
                    "RIB"
                }
                Ok(MrtRecord::TableDump(_)) => "TABLE_DUMP (legacy)",
                Ok(MrtRecord::Message(_)) => "BGP4MP_MESSAGE",
                Ok(MrtRecord::StateChange(_)) => "BGP4MP_STATE_CHANGE",
            };
            *counts.entry(kind).or_default() += 1;
        }
        let mut report = reader.into_report();
        report.errors.malformed += dropped;
        println!("{path}:");
        for (kind, n) in &counts {
            println!("  {kind:<22} {n}");
        }
        println!(
            "  decoded {} records, skipped {}",
            report.records_read, report.records_skipped
        );
        if !report.is_clean() {
            for e in &errors {
                println!("  error: {e}");
            }
            println!("  {}", report.summary());
        }
        total_errors += report.errors.decode_errors();
    }
    if total_errors > 0 {
        Err(format!("{total_errors} decode error(s)").into())
    } else {
        Ok(())
    }
}

/// Load an `infer --json` label file into a map.
fn load_labels(path: &str) -> Result<std::collections::BTreeMap<String, String>, String> {
    let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    let entries: Vec<serde_json::Value> =
        serde_json::from_reader(BufReader::new(file)).map_err(|e| format!("parse {path}: {e}"))?;
    let mut map = std::collections::BTreeMap::new();
    for entry in entries {
        let community = entry["community"]
            .as_str()
            .ok_or_else(|| format!("{path}: entry without community"))?;
        let intent = entry["intent"]
            .as_str()
            .ok_or_else(|| format!("{path}: entry without intent"))?;
        map.insert(community.to_string(), intent.to_string());
    }
    Ok(map)
}

/// `bgpcomm compare`
fn compare(run: &Run) -> Result<(), Failure> {
    let args = &run.args;
    let old_path = args.get_str("old").ok_or("--old FILE is required")?;
    let new_path = args.get_str("new").ok_or("--new FILE is required")?;
    let old = load_labels(old_path)?;
    let new = load_labels(new_path)?;

    let mut appeared = 0u64;
    let mut disappeared = 0u64;
    let mut flipped: Vec<(&String, &String, &String)> = Vec::new();
    for (c, intent) in &new {
        match old.get(c) {
            None => appeared += 1,
            Some(prev) if prev != intent => flipped.push((c, prev, intent)),
            Some(_) => {}
        }
    }
    for c in old.keys() {
        if !new.contains_key(c) {
            disappeared += 1;
        }
    }
    println!("old labels     : {}", old.len());
    println!("new labels     : {}", new.len());
    println!("appeared       : {appeared}");
    println!("disappeared    : {disappeared}");
    println!("intent flips   : {}", flipped.len());
    for (c, prev, now) in flipped.iter().take(20) {
        println!("  {c:<14} {prev} -> {now}");
    }
    if flipped.len() > 20 {
        println!("  ... and {} more", flipped.len() - 20);
    }
    // Flips are the anomaly signal (§4: coarse categories were stable
    // 2007 -> 2023); surface them in the exit code for scripting.
    if flipped.is_empty() {
        Ok(())
    } else {
        Err(format!("{} intent flip(s) detected", flipped.len()).into())
    }
}

/// `bgpcomm generate`
fn generate(run: &Run) -> Result<(), Failure> {
    let args = &run.args;
    let out = args.get_str("out").ok_or("--out DIR is required")?;
    let days: u32 = args.get("days", 7)?;
    let scenario_cfg = ScenarioConfig::from_args(args)?;
    std::fs::create_dir_all(out).map_err(|e| format!("create {out}: {e}"))?;
    let dir = Path::new(out);

    eprintln!(
        "generating world (seed {}, scale {}) with {} days of data...",
        scenario_cfg.seed, scenario_cfg.scale, days
    );
    let scenario = Scenario::build(&scenario_cfg);
    let sim = scenario.simulator();

    if args.flag("stream") {
        // Large-archive mode: everything goes into one file, one day at a
        // time, so peak memory stays bounded by the biggest single day no
        // matter how many gigabytes the archive grows to.
        let path = dir.join("archive.mrt");
        let file = File::create(&path).map_err(|e| format!("create archive.mrt: {e}"))?;
        let summary = scenario
            .stream_collect(&sim, days, BufWriter::new(file))
            .map_err(|e| format!("write archive.mrt: {e}"))?;
        println!(
            "{}: {} observations in {} MRT records (streamed)",
            path.display(),
            summary.observations,
            summary.records
        );
    } else {
        let rib_path = dir.join("rib.mrt");
        let rib = sim.collect_rib(&scenario.vps);
        let file = File::create(&rib_path).map_err(|e| format!("create rib.mrt: {e}"))?;
        write_rib_dump(BufWriter::new(file), scenario.sim_cfg.base_timestamp, &rib)
            .map_err(|e| format!("write rib.mrt: {e}"))?;
        println!("{}: {} routes", rib_path.display(), rib.len());

        for day in 1..days {
            let path = dir.join(format!("updates.day{day}.mrt"));
            let updates = sim.collect_churn_day(&scenario.vps, day);
            let file = File::create(&path).map_err(|e| format!("create updates: {e}"))?;
            write_update_stream(BufWriter::new(file), Asn::new(6447), &updates)
                .map_err(|e| format!("write updates: {e}"))?;
            println!("{}: {} updates", path.display(), updates.len());
        }
    }

    let dict_path = dir.join("dictionary.json");
    write_output(&dict_path.to_string_lossy(), to_json(&scenario.dict)?)?;
    let (a, i) = scenario.dict.entry_counts();
    println!(
        "{}: {} action + {} info patterns",
        dict_path.display(),
        a,
        i
    );

    let sib_path = dir.join("siblings.json");
    write_output(&sib_path.to_string_lossy(), to_json(&scenario.siblings)?)?;
    println!("{}: as2org sibling map", sib_path.display());

    // Ground-truth intent per defined community, for scoring external tools.
    let dot_path = dir.join("topology.dot");
    std::fs::write(&dot_path, bgp_topology::to_dot(&scenario.topo))
        .map_err(|e| format!("write topology.dot: {e}"))?;
    println!("{}: Graphviz rendering of the AS graph", dot_path.display());

    let truth_path = dir.join("truth.json");
    let mut truth: Vec<serde_json::Value> = Vec::new();
    for asn in scenario.policies.asns_sorted() {
        // An AS listed without a policy would be an internal inconsistency;
        // surface it as an error instead of panicking mid-write.
        let policy = scenario.policies.get(asn).ok_or_else(|| {
            format!("internal error: AS{asn} is listed in the policy table but has no policy")
        })?;
        for (&beta, purpose) in &policy.defs {
            truth.push(serde_json::json!({
                "community": format!("{}:{}", asn, beta),
                "intent": match purpose.intent() {
                    Intent::Action => "action",
                    Intent::Information => "information",
                },
            }));
        }
    }
    write_output(&truth_path.to_string_lossy(), to_json(&truth)?)?;
    println!(
        "{}: {} ground-truth labels",
        truth_path.display(),
        truth.len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// Every `--flag` named in `text`.
    fn flags_in(text: &str) -> BTreeSet<&str> {
        text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter_map(|token| token.strip_prefix("--"))
            .filter(|name| !name.is_empty())
            .collect()
    }

    /// Each command's synopsis in `USAGE`: its `bgpcomm NAME` line and the
    /// continuation lines up to the next command or the blank line.
    fn synopses() -> BTreeMap<&'static str, BTreeSet<&'static str>> {
        let block = &USAGE[USAGE.find("USAGE:").unwrap()..];
        let mut out: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        let mut current = None;
        for line in block.lines().skip(1).take_while(|l| !l.trim().is_empty()) {
            if let Some(rest) = line.trim_start().strip_prefix("bgpcomm ") {
                let name = rest.split_whitespace().next().unwrap();
                current = Some(name);
                out.entry(name).or_default();
            }
            out.get_mut(current.unwrap())
                .unwrap()
                .extend(flags_in(line));
        }
        out
    }

    fn declared(command: &Command) -> Vec<&'static str> {
        command
            .1
            .iter()
            .flat_map(|f| f.values().chain(f.switches()))
            .collect()
    }

    fn find(name: &str) -> &'static Command {
        COMMANDS
            .iter()
            .find(|c| c.0 == name)
            .unwrap_or_else(|| panic!("no command {name:?}"))
    }

    /// The commands an `a, b, c` list names, by each item's first word
    /// (`query --check` is `query`).
    fn scope(list: &str) -> Vec<&'static Command> {
        list.split(", ")
            .map(|item| find(item.split_whitespace().next().unwrap()))
            .collect()
    }

    #[test]
    fn usage_names_exactly_the_declared_flags() {
        let synopses = synopses();
        let public: Vec<&Command> = COMMANDS.iter().filter(|c| c.0 != "shard-worker").collect();
        assert_eq!(
            synopses.keys().copied().collect::<BTreeSet<_>>(),
            public.iter().map(|c| c.0).collect::<BTreeSet<_>>()
        );
        let mut all_declared = BTreeSet::new();
        for command in public {
            let flags = declared(command);
            let unique: BTreeSet<&str> = flags.iter().copied().collect();
            assert_eq!(unique.len(), flags.len(), "{} repeats a flag", command.0);
            assert_eq!(synopses[command.0], unique, "{}", command.0);
            all_declared.extend(unique);
        }
        // The sections below the synopses name no flag nothing declares.
        let named = flags_in(USAGE);
        let undeclared: Vec<_> = named.difference(&all_declared).collect();
        assert!(undeclared.is_empty(), "USAGE names {undeclared:?}");
    }

    /// Below the synopses, a flag entry (a line indented four spaces that
    /// opens with `--`) applies to the commands in its section heading, or
    /// to those its description opens with in parentheses instead. Every
    /// one of them declares every flag of the entry.
    #[test]
    fn usage_sections_scope_each_flag_to_commands_that_declare_it() {
        let lines: Vec<&str> = USAGE.lines().collect();
        let mut heading = None;
        let mut entries = 0;
        for (i, line) in lines.iter().enumerate() {
            if line.starts_with(|c: char| c.is_ascii_uppercase()) {
                heading = line
                    .split_once(" (")
                    .map(|(_, rest)| scope(rest.split_once(')').unwrap().0));
                continue;
            }
            let Some(entry) = line.strip_prefix("    ").filter(|l| l.starts_with("--")) else {
                continue;
            };
            // The flags and their placeholders, then the description, on
            // this line or the next.
            let tokens: Vec<&str> = entry.split_whitespace().collect();
            let split = tokens
                .iter()
                .position(|t| !t.starts_with("--") && t.chars().any(|c| c.is_ascii_lowercase()))
                .unwrap_or(tokens.len());
            let description = match &tokens[split..] {
                [] => lines[i + 1].trim().to_string(),
                rest => rest.join(" "),
            };
            let commands = match description.strip_prefix('(') {
                Some(rest) => scope(rest.split_once(')').unwrap().0),
                None => heading
                    .clone()
                    .unwrap_or_else(|| panic!("{line:?} is in no command's section")),
            };
            let names = tokens[..split].join(" ");
            for flag in flags_in(&names) {
                for command in &commands {
                    let takes = declared(command).contains(&flag);
                    assert!(takes, "USAGE says {} takes --{flag}", command.0);
                }
            }
            entries += 1;
        }
        assert!(entries >= 40, "found only {entries} flag entries");
    }

    /// The `--json` label file's exact bytes: keys in alphabetical order,
    /// two-space indents, a float's shortest form with `.0` when integral
    /// and `null` when not finite, `[]` for no labels, no final newline.
    #[test]
    fn label_json_keeps_its_exact_bytes() {
        assert_eq!(label_json(&[]), "[]");
        let row = |asn, value, label, confidence, ratio| LabelRow {
            community: Community::new(asn, value),
            label,
            confidence,
            ratio,
            on_paths: 3,
            off_paths: 40,
        };
        let rows = [
            row(100, 1, Intent::Action, 1.0, 2.0),
            row(100, 7, Intent::Information, 0.625, 0.075),
            row(65535, 65535, Intent::Action, 0.1, f64::INFINITY),
            row(7, 0, Intent::Information, 1e-7, f64::NAN),
            row(8, 8, Intent::Action, -0.0, 1e21),
        ];
        assert_eq!(
            label_json(&rows),
            r#"[
  {
    "community": "100:1",
    "confidence": 1.0,
    "intent": "action",
    "off_paths": 40,
    "on_paths": 3,
    "ratio": 2.0
  },
  {
    "community": "100:7",
    "confidence": 0.625,
    "intent": "information",
    "off_paths": 40,
    "on_paths": 3,
    "ratio": 0.075
  },
  {
    "community": "65535:65535",
    "confidence": 0.1,
    "intent": "action",
    "off_paths": 40,
    "on_paths": 3,
    "ratio": null
  },
  {
    "community": "7:0",
    "confidence": 0.0000001,
    "intent": "information",
    "off_paths": 40,
    "on_paths": 3,
    "ratio": null
  },
  {
    "community": "8:8",
    "confidence": -0.0,
    "intent": "action",
    "off_paths": 40,
    "on_paths": 3,
    "ratio": 1000000000000000000000.0
  }
]"#
        );
    }

    #[test]
    fn the_worker_accepts_every_flag_the_supervisor_passes_it() {
        let (shard, worker) = (declared(find("shard")), declared(find("shard-worker")));
        let own = "mrt out heartbeat inject-crash-after inject-stall-ms";
        for flag in FORWARDED.split_whitespace() {
            assert!(shard.contains(&flag) && worker.contains(&flag), "{flag}");
        }
        for flag in own.split_whitespace() {
            assert!(worker.contains(&flag), "{flag}");
        }
    }
}
