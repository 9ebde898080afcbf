//! Shard-per-process execution: partition archives across worker
//! subprocesses and supervise them to a merged, bit-identical result.
//!
//! At paper scale (≈174M path/community tuples over multi-day archive
//! sets) worker failure is the common case, not the exception: a worker
//! OOMs, a filesystem stalls, a decode bug panics, a node reboots. The
//! supervisor here treats every one of those as a *retryable shard*, not a
//! lost run:
//!
//! * [`plan_shards`] deals the input files round-robin into N shards. The
//!   partition never affects the merged result — each shard's artifact is
//!   a [`Checkpoint`], a sealed manifest plus the segment log beside it
//!   (`<artifact>.seg`), whose statistics segment
//!   ([`StatsSnapshot`](crate::checkpoint::StatsSnapshot)) holds the
//!   shard's unique tuples, interned by exact value, so merging segments
//!   is an exact union (see [`crate::checkpoint`]) and yields the same
//!   [`PathStats`](crate::stats::PathStats) as one process reading every
//!   file.
//! * [`supervise`] runs one subprocess per shard, watches a per-shard
//!   heartbeat file for progress, and classifies every failure
//!   ([`ShardFailureKind`]): nonzero exit, death by signal, a stall (no
//!   heartbeat progress within the deadline — the worker is killed), a
//!   missing/truncated/corrupt artifact, or a stale artifact that does not
//!   cover the shard's files. Failed attempts are re-run with the bounded
//!   deterministic backoff of [`bgp_mrt::retry::RetryPolicy`] until the
//!   attempt budget runs out.
//! * [`validate_artifact`] is the supervisor's trust boundary: an artifact
//!   only counts if it loads (the manifest's envelope and structure and
//!   its log's range, checksum and frames verified — see
//!   [`Checkpoint::load`]), lists exactly the shard's files in order, and
//!   every listed fingerprint still matches the bytes on disk. Anything
//!   else is a failed attempt, never silently-partial coverage. A clean
//!   worker's artifact is validated on the polling thread as the worker's
//!   exit is seen, so no validation thread's allocations join the
//!   supervisor's peak memory; the artifacts found at start are validated
//!   all at once, one thread each.
//!
//! A shard whose budget is exhausted is reported as permanently failed;
//! the caller decides whether that sinks the run (`--allow-shard-failures`
//! in the CLI) and folds the exact coverage shortfall into the merged
//! [`IngestReport`](bgp_mrt::IngestReport).
//!
//! Pre-existing valid artifacts are *reused* without spawning a worker,
//! which is what makes a partially failed run resumable: re-running the
//! same command redoes only the shards that never produced a valid
//! artifact. A leftover artifact that is corrupt or stale — torn, from a
//! different file set, or written by an older build in a format this one
//! refuses — is reported as [`ShardEvent::Discarded`] with the reason,
//! removed with its segment log, and its shard redone; a missing one is
//! the normal fresh-run case and is not reported.

use std::fmt;
use std::panic;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use bgp_mrt::retry::RetryPolicy;

use crate::checkpoint::{fingerprint_file, log_path, Checkpoint};

/// One shard of the input: which files it covers and where its worker
/// writes the snapshot artifact and heartbeat.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSpec {
    /// Shard number, `0..shard_count` (dense — empty shards are dropped).
    pub index: usize,
    /// The input files this shard ingests, in global input order.
    pub files: Vec<String>,
    /// Where the worker must write its [`Checkpoint`] artifact.
    pub artifact: PathBuf,
    /// The heartbeat file the worker touches after every ingested file.
    pub heartbeat: PathBuf,
}

/// Deal `files` round-robin into at most `workers` shards (shard `i` gets
/// files `i`, `i+workers`, …), dropping empty shards. Round-robin keeps
/// shard byte-sizes balanced when archives are similar sizes, and the
/// partition is irrelevant to the merged result (set-union merging), so no
/// cleverer balancing is needed for correctness.
pub fn plan_shards(files: &[String], workers: usize, dir: &Path) -> Vec<ShardSpec> {
    let workers = workers.max(1);
    (0..workers.min(files.len()))
        .map(|i| ShardSpec {
            index: i,
            files: files.iter().skip(i).step_by(workers).cloned().collect(),
            artifact: dir.join(format!("shard-{i:03}.ckpt")),
            heartbeat: dir.join(format!("shard-{i:03}.hb")),
        })
        .collect()
}

/// Why one attempt at a shard failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardFailureKind {
    /// The worker process could not be spawned at all.
    Spawn(String),
    /// The worker exited with a nonzero code (its own exit-code contract:
    /// 3 = ingestion aborted, 9 = injected crash, …).
    Exit(i32),
    /// The worker was killed by a signal (OOM killer, external SIGKILL).
    Signal(i32),
    /// The worker made no heartbeat progress within the stall deadline and
    /// was killed by the supervisor.
    Stall,
    /// The worker exited successfully but left no artifact behind.
    MissingArtifact,
    /// The artifact exists but is truncated, bit-flipped, or otherwise
    /// unreadable ([`Checkpoint::load`] rejected it).
    CorruptArtifact(String),
    /// The artifact is well-formed but does not cover this shard's files
    /// (wrong file list, or a recorded fingerprint no longer matches the
    /// bytes on disk).
    StaleArtifact(String),
    /// The run was shut down before this shard produced a valid artifact:
    /// the worker was asked to stop (SIGTERM, then SIGKILL after the
    /// grace period) or was never spawned. Not retried — the shard simply
    /// remains incomplete, resumable by the next run.
    Interrupted,
}

impl fmt::Display for ShardFailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardFailureKind::Spawn(e) => write!(f, "failed to spawn worker: {e}"),
            ShardFailureKind::Exit(code) => write!(f, "worker exited with code {code}"),
            ShardFailureKind::Signal(sig) => write!(f, "worker killed by signal {sig}"),
            ShardFailureKind::Stall => write!(f, "worker stalled (no heartbeat progress)"),
            ShardFailureKind::MissingArtifact => {
                write!(f, "worker exited cleanly but wrote no artifact")
            }
            ShardFailureKind::CorruptArtifact(e) => write!(f, "corrupt artifact: {e}"),
            ShardFailureKind::StaleArtifact(e) => write!(f, "stale artifact: {e}"),
            ShardFailureKind::Interrupted => {
                write!(f, "run shut down before the shard completed")
            }
        }
    }
}

/// The final outcome of one shard after all attempts.
#[derive(Debug)]
pub struct ShardOutcome {
    /// Which shard.
    pub index: usize,
    /// Worker attempts actually launched (0 when a pre-existing artifact
    /// was reused).
    pub attempts: u32,
    /// One entry per failed attempt, in order.
    pub failures: Vec<ShardFailureKind>,
    /// The validated artifact — `Some` exactly when the shard succeeded.
    pub artifact: Option<Checkpoint>,
    /// Whether the artifact predated this run (no worker was spawned).
    pub reused: bool,
}

impl ShardOutcome {
    /// Whether this shard ended with a validated artifact.
    pub fn succeeded(&self) -> bool {
        self.artifact.is_some()
    }

    /// Retries consumed: failed attempts that were followed by another.
    pub fn retries(&self) -> u64 {
        u64::from(self.attempts.saturating_sub(1))
    }
}

/// Supervision policy: how hard to retry a shard and when a silent worker
/// counts as stalled.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Attempt budget and deterministic inter-attempt backoff. Only
    /// `max_attempts` and the backoff schedule are used; the per-file
    /// deadline does not apply to shards (stalls are caught by
    /// `stall_deadline` instead).
    pub retry: RetryPolicy,
    /// A running worker whose heartbeat has not changed for this long is
    /// asked to stop and the attempt classified [`ShardFailureKind::Stall`].
    pub stall_deadline: Duration,
    /// How often to poll children and heartbeats.
    pub poll_interval: Duration,
    /// How long a worker gets between SIGTERM and SIGKILL when the
    /// supervisor stops it (stall, or a run-level shutdown). Long enough
    /// for a worker to finish its current file and flush an artifact.
    pub term_grace: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            retry: RetryPolicy {
                max_attempts: 3,
                base_delay: Duration::from_millis(50),
                max_delay: Duration::from_secs(2),
                per_file_deadline: None,
            },
            stall_deadline: Duration::from_secs(30),
            poll_interval: Duration::from_millis(5),
            term_grace: Duration::from_secs(5),
        }
    }
}

/// Progress notifications from [`supervise`], for logging and tests.
#[derive(Debug)]
pub enum ShardEvent<'a> {
    /// A pre-existing valid artifact was adopted; no worker spawned.
    Reused {
        /// The shard whose artifact was adopted.
        shard: &'a ShardSpec,
    },
    /// A pre-existing artifact failed validation (corrupt or stale); it is
    /// removed with its segment log, and the shard is redone from scratch.
    Discarded {
        /// The shard whose leftover artifact was refused.
        shard: &'a ShardSpec,
        /// Why it was refused.
        failure: &'a ShardFailureKind,
    },
    /// A worker attempt launched.
    Started {
        /// The shard being attempted.
        shard: &'a ShardSpec,
        /// 1-based attempt number.
        attempt: u32,
    },
    /// An attempt failed; another follows after `backoff`.
    Retrying {
        /// The shard being retried.
        shard: &'a ShardSpec,
        /// The attempt that just failed.
        attempt: u32,
        /// Why it failed.
        failure: &'a ShardFailureKind,
        /// Deterministic delay before the next attempt.
        backoff: Duration,
    },
    /// The shard produced a validated artifact.
    Succeeded {
        /// The shard that completed.
        shard: &'a ShardSpec,
        /// The attempt that succeeded.
        attempt: u32,
    },
    /// The attempt budget is exhausted; the shard is permanently failed.
    GaveUp {
        /// The shard that failed permanently.
        shard: &'a ShardSpec,
        /// Attempts consumed.
        attempts: u32,
        /// The final attempt's failure.
        failure: &'a ShardFailureKind,
    },
    /// A run-level shutdown stopped this shard before it completed.
    Interrupted {
        /// The shard that was interrupted.
        shard: &'a ShardSpec,
    },
}

/// Validate a shard artifact against its spec: it must load cleanly
/// (payload checksum verified), list exactly the shard's files in order,
/// and every recorded fingerprint must still match the input bytes on
/// disk. Returns the loaded [`Checkpoint`] or the failure classification.
pub fn validate_artifact(spec: &ShardSpec) -> Result<Checkpoint, ShardFailureKind> {
    let cp = Checkpoint::load(&spec.artifact).map_err(|e| {
        if e.is_not_found() {
            ShardFailureKind::MissingArtifact
        } else {
            ShardFailureKind::CorruptArtifact(e.to_string())
        }
    })?;
    let recorded: Vec<&str> = cp.files.iter().map(|f| f.path.as_str()).collect();
    let expected: Vec<&str> = spec.files.iter().map(String::as_str).collect();
    if recorded != expected {
        return Err(ShardFailureKind::StaleArtifact(format!(
            "covers {} file(s) {:?}, expected {} file(s) {:?}",
            recorded.len(),
            recorded,
            expected.len(),
            expected
        )));
    }
    for done in &cp.files {
        let now = fingerprint_file(Path::new(&done.path)).map_err(|e| {
            ShardFailureKind::StaleArtifact(format!("fingerprint {}: {e}", done.path))
        })?;
        if now != done.fingerprint {
            return Err(ShardFailureKind::StaleArtifact(format!(
                "{} changed since the artifact was written \
                 ({} bytes/hash {:#x} now vs {} bytes/hash {:#x} recorded)",
                done.path, now.bytes, now.hash, done.fingerprint.bytes, done.fingerprint.hash
            )));
        }
    }
    Ok(cp)
}

/// A leftover artifact under validation on a thread of its own.
type Validation = JoinHandle<Result<Checkpoint, ShardFailureKind>>;

/// Per-shard supervision state machine.
enum State {
    /// Waiting to (re)spawn at `at`.
    Pending { attempt: u32, at: Instant },
    /// A worker is running.
    Running {
        attempt: u32,
        child: Child,
        heartbeat: Option<Vec<u8>>,
        progressed_at: Instant,
    },
    /// Terminal.
    Done,
}

/// Start validating `spec`'s artifact on its own thread; `None` if no
/// thread could be started.
fn validate_on_thread(spec: &ShardSpec) -> Option<Validation> {
    let spec = spec.clone();
    thread::Builder::new()
        .name(format!("validate-{}", spec.index))
        .spawn(move || validate_artifact(&spec))
        .ok()
}

/// A validation's result; a panic in it resumes on this thread, as it
/// would have from an inline call.
fn joined(check: Validation) -> Result<Checkpoint, ShardFailureKind> {
    check
        .join()
        .unwrap_or_else(|panic| panic::resume_unwind(panic))
}

/// Stop a worker gracefully: SIGTERM, a bounded grace wait so it can
/// finish the current file and flush its artifact, then SIGKILL. Returns
/// the exit status if the child was reaped.
///
/// The TERM is delivered via `kill(1)` — this crate forbids `unsafe`, so
/// no direct `libc::kill` — and falls through to the hard
/// [`Child::kill`] on non-unix platforms or if the grace period expires.
fn terminate_gracefully(
    child: &mut Child,
    grace: Duration,
    poll: Duration,
) -> Option<std::process::ExitStatus> {
    #[cfg(unix)]
    {
        let termed = Command::new("kill")
            .arg("-TERM")
            .arg(child.id().to_string())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .map(|s| s.success())
            .unwrap_or(false);
        if termed {
            let deadline = Instant::now() + grace;
            loop {
                match child.try_wait() {
                    Ok(Some(status)) => return Some(status),
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(poll.min(Duration::from_millis(25)))
                    }
                    Ok(None) | Err(_) => break,
                }
            }
        }
    }
    #[cfg(not(unix))]
    let _ = (grace, poll);
    let _ = child.kill();
    child.wait().ok()
}

/// Classify a finished worker's exit status.
fn classify_exit(status: std::process::ExitStatus) -> Result<(), ShardFailureKind> {
    if status.success() {
        return Ok(());
    }
    if let Some(code) = status.code() {
        return Err(ShardFailureKind::Exit(code));
    }
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt;
        if let Some(sig) = status.signal() {
            return Err(ShardFailureKind::Signal(sig));
        }
    }
    Err(ShardFailureKind::Exit(-1))
}

/// Run every shard to success or budget exhaustion.
///
/// `command` builds the worker invocation for `(spec, attempt)` — the
/// attempt number is passed so callers can make fault injection
/// first-attempt-only. Workers run concurrently (one process per shard);
/// the supervisor polls children and heartbeat files every
/// `poll_interval`, kills stalled workers, validates each clean worker's
/// artifact as soon as it sees the exit, and re-runs failed shards after
/// the deterministic backoff
/// `cfg.retry.backoff(attempt)`. `on_event` runs on the calling thread,
/// and each shard's events come in order. Outcomes are returned in shard
/// order.
pub fn supervise(
    specs: &[ShardSpec],
    cfg: &SupervisorConfig,
    command: impl FnMut(&ShardSpec, u32) -> Command,
    on_event: impl FnMut(ShardEvent<'_>),
) -> Vec<ShardOutcome> {
    supervise_with_shutdown(specs, cfg, command, on_event, &AtomicBool::new(false))
}

/// [`supervise`] with a run-level shutdown flag (set by a SIGTERM/SIGINT
/// handler). When the flag goes high the supervisor stops spawning,
/// forwards SIGTERM to every running worker, waits up to
/// [`SupervisorConfig::term_grace`] for each to flush its artifact, and
/// SIGKILLs stragglers. A worker that exits cleanly with a valid artifact
/// inside the grace window still counts as succeeded, and so does one
/// whose validation was running when the flag rose (it finishes before
/// the flag is read); everything else is classified
/// [`ShardFailureKind::Interrupted`] and left resumable.
/// Heartbeat files are removed as shards settle either way — a stopped run
/// leaves artifacts (valid or absent), never stale heartbeats.
pub fn supervise_with_shutdown(
    specs: &[ShardSpec],
    cfg: &SupervisorConfig,
    mut command: impl FnMut(&ShardSpec, u32) -> Command,
    mut on_event: impl FnMut(ShardEvent<'_>),
    shutdown: &AtomicBool,
) -> Vec<ShardOutcome> {
    let mut outcomes: Vec<ShardOutcome> = specs
        .iter()
        .map(|s| ShardOutcome {
            index: s.index,
            attempts: 0,
            failures: Vec::new(),
            artifact: None,
            reused: false,
        })
        .collect();
    let mut states: Vec<State> = Vec::with_capacity(specs.len());

    // Adopt valid pre-existing artifacts (the resume path) before spawning
    // anything, validating them all at once, one thread per shard; stale
    // or corrupt leftovers are reported, in shard order, and removed, so
    // the first attempt writes its artifact and log from scratch rather
    // than after the refused log.
    let checks: Vec<_> = specs.iter().map(validate_on_thread).collect();
    for ((spec, outcome), check) in specs.iter().zip(&mut outcomes).zip(checks) {
        match check.map_or_else(|| validate_artifact(spec), joined) {
            Ok(cp) => {
                outcome.artifact = Some(cp);
                outcome.reused = true;
                let _ = std::fs::remove_file(&spec.heartbeat);
                on_event(ShardEvent::Reused { shard: spec });
                states.push(State::Done);
            }
            Err(failure) => {
                if matches!(
                    failure,
                    ShardFailureKind::CorruptArtifact(_) | ShardFailureKind::StaleArtifact(_)
                ) {
                    // The manifest first: a crash before the log goes
                    // leaves no artifact, the fresh-run case.
                    let _ = std::fs::remove_file(&spec.artifact);
                    let _ = std::fs::remove_file(log_path(&spec.artifact));
                    on_event(ShardEvent::Discarded {
                        shard: spec,
                        failure: &failure,
                    });
                }
                states.push(State::Pending {
                    attempt: 1,
                    at: Instant::now(),
                });
            }
        }
    }

    loop {
        if shutdown.load(Ordering::SeqCst) {
            // Run-level shutdown: no new attempts. Stop every running
            // worker gracefully, adopt any artifact flushed during the
            // grace window, and clean heartbeats so nothing stale remains.
            for ((spec, state), outcome) in specs.iter().zip(&mut states).zip(&mut outcomes) {
                let settled = match std::mem::replace(state, State::Done) {
                    State::Done => None,
                    State::Pending { attempt, .. } => {
                        Some((attempt, Err(ShardFailureKind::Interrupted)))
                    }
                    State::Running {
                        attempt, mut child, ..
                    } => Some((
                        attempt,
                        match terminate_gracefully(&mut child, cfg.term_grace, cfg.poll_interval) {
                            Some(status) => {
                                classify_exit(status).and_then(|()| validate_artifact(spec))
                            }
                            None => Err(ShardFailureKind::Interrupted),
                        },
                    )),
                };
                match settled {
                    None => {}
                    Some((attempt, Ok(cp))) => {
                        outcome.artifact = Some(cp);
                        on_event(ShardEvent::Succeeded {
                            shard: spec,
                            attempt,
                        });
                    }
                    Some((_, Err(_))) => {
                        outcome.failures.push(ShardFailureKind::Interrupted);
                        on_event(ShardEvent::Interrupted { shard: spec });
                    }
                }
                let _ = std::fs::remove_file(&spec.heartbeat);
            }
            return outcomes;
        }
        let mut all_done = true;
        for ((spec, state), outcome) in specs.iter().zip(&mut states).zip(&mut outcomes) {
            let now = Instant::now();
            *state = match std::mem::replace(state, State::Done) {
                State::Done => State::Done,
                State::Pending { attempt, at } if now < at => State::Pending { attempt, at },
                State::Pending { attempt, .. } => {
                    outcome.attempts = attempt;
                    // A fresh attempt must never inherit the previous
                    // attempt's heartbeat mtime/content as "progress".
                    let _ = std::fs::remove_file(&spec.heartbeat);
                    on_event(ShardEvent::Started {
                        shard: spec,
                        attempt,
                    });
                    let mut cmd = command(spec, attempt);
                    cmd.stdin(Stdio::null());
                    match cmd.spawn() {
                        Ok(child) => State::Running {
                            attempt,
                            child,
                            heartbeat: None,
                            progressed_at: now,
                        },
                        Err(e) => fail_attempt(
                            spec,
                            outcome,
                            attempt,
                            ShardFailureKind::Spawn(e.to_string()),
                            cfg,
                            &mut on_event,
                        ),
                    }
                }
                State::Running {
                    attempt,
                    mut child,
                    heartbeat,
                    progressed_at,
                } => match child.try_wait() {
                    Err(e) => fail_attempt(
                        spec,
                        outcome,
                        attempt,
                        ShardFailureKind::Spawn(format!("wait: {e}")),
                        cfg,
                        &mut on_event,
                    ),
                    Ok(Some(status)) => {
                        let validated =
                            classify_exit(status).and_then(|()| validate_artifact(spec));
                        settle(spec, outcome, attempt, validated, cfg, &mut on_event)
                    }
                    Ok(None) => {
                        // Still running: has the heartbeat moved?
                        let current = std::fs::read(&spec.heartbeat).ok();
                        if current.is_some() && current != heartbeat {
                            State::Running {
                                attempt,
                                child,
                                heartbeat: current,
                                progressed_at: now,
                            }
                        } else if now.duration_since(progressed_at) > cfg.stall_deadline {
                            let _ =
                                terminate_gracefully(&mut child, cfg.term_grace, cfg.poll_interval);
                            fail_attempt(
                                spec,
                                outcome,
                                attempt,
                                ShardFailureKind::Stall,
                                cfg,
                                &mut on_event,
                            )
                        } else {
                            State::Running {
                                attempt,
                                child,
                                heartbeat,
                                progressed_at,
                            }
                        }
                    }
                },
            };
            if !matches!(state, State::Done) {
                all_done = false;
            }
        }
        if all_done {
            return outcomes;
        }
        std::thread::sleep(cfg.poll_interval);
    }
}

/// Settle an attempt whose worker exited by its exit status and its
/// artifact's validation: adopt the artifact, or fail the attempt.
fn settle(
    spec: &ShardSpec,
    outcome: &mut ShardOutcome,
    attempt: u32,
    validated: Result<Checkpoint, ShardFailureKind>,
    cfg: &SupervisorConfig,
    on_event: &mut impl FnMut(ShardEvent<'_>),
) -> State {
    match validated {
        Ok(cp) => {
            outcome.artifact = Some(cp);
            let _ = std::fs::remove_file(&spec.heartbeat);
            on_event(ShardEvent::Succeeded {
                shard: spec,
                attempt,
            });
            State::Done
        }
        Err(kind) => fail_attempt(spec, outcome, attempt, kind, cfg, on_event),
    }
}

/// Record a failed attempt and decide the follow-up state: another attempt
/// after the deterministic backoff, or permanent failure once the budget
/// is spent.
fn fail_attempt(
    spec: &ShardSpec,
    outcome: &mut ShardOutcome,
    attempt: u32,
    failure: ShardFailureKind,
    cfg: &SupervisorConfig,
    on_event: &mut impl FnMut(ShardEvent<'_>),
) -> State {
    outcome.failures.push(failure);
    let failure = outcome.failures.last().expect("just pushed");
    if attempt < cfg.retry.max_attempts {
        let backoff = cfg.retry.backoff(attempt);
        on_event(ShardEvent::Retrying {
            shard: spec,
            attempt,
            failure,
            backoff,
        });
        State::Pending {
            attempt: attempt + 1,
            at: Instant::now() + backoff,
        }
    } else {
        let _ = std::fs::remove_file(&spec.heartbeat);
        on_event(ShardEvent::GaveUp {
            shard: spec,
            attempts: attempt,
            failure,
        });
        State::Done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{CompletedFile, StatsAccumulator};
    use bgp_relationships::SiblingMap;
    use bgp_types::{Asn, Community, Observation};
    use std::fs;

    fn workdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bgp-supervisor-{name}"));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn quick_cfg(max_attempts: u32) -> SupervisorConfig {
        SupervisorConfig {
            retry: RetryPolicy {
                max_attempts,
                base_delay: Duration::from_millis(1),
                max_delay: Duration::from_millis(4),
                per_file_deadline: None,
            },
            stall_deadline: Duration::from_millis(250),
            poll_interval: Duration::from_millis(5),
            term_grace: Duration::from_millis(600),
        }
    }

    /// A spec over real input files, plus a sealed artifact that validates
    /// against it (written by `write_valid_artifact`).
    fn spec_with_inputs(dir: &Path, index: usize, n_files: usize) -> ShardSpec {
        let files: Vec<String> = (0..n_files)
            .map(|i| {
                let p = dir.join(format!("in-{index}-{i}.mrt"));
                fs::write(&p, format!("payload {index} {i}")).unwrap();
                p.to_string_lossy().into_owned()
            })
            .collect();
        ShardSpec {
            index,
            files,
            artifact: dir.join(format!("shard-{index:03}.ckpt")),
            heartbeat: dir.join(format!("shard-{index:03}.hb")),
        }
    }

    fn write_valid_artifact(spec: &ShardSpec) {
        let mut cp = Checkpoint::new();
        for f in &spec.files {
            cp.files.push(CompletedFile {
                path: f.clone(),
                fingerprint: fingerprint_file(Path::new(f)).unwrap(),
            });
        }
        let mut acc = StatsAccumulator::new();
        acc.ingest_ordered(
            &[Observation {
                vp: Asn::new(64500),
                prefix: "10.0.0.0/24".parse().unwrap(),
                path: "64500 1299".parse().unwrap(),
                communities: vec![Community::new(1299, 7)],
                large_communities: Vec::new(),
                time: 0,
            }],
            &SiblingMap::default(),
        );
        cp.snapshot = acc.snapshot().clone();
        cp.save_atomic(&spec.artifact).unwrap();
    }

    fn sh(script: String) -> Command {
        let mut cmd = Command::new("sh");
        cmd.arg("-c").arg(script);
        cmd
    }

    #[test]
    fn round_robin_plan_covers_every_file_once() {
        let files: Vec<String> = (0..7).map(|i| format!("f{i}.mrt")).collect();
        let dir = PathBuf::from("/tmp/shards");
        let plan = plan_shards(&files, 3, &dir);
        assert_eq!(plan.len(), 3);
        assert_eq!(plan[0].files, ["f0.mrt", "f3.mrt", "f6.mrt"]);
        assert_eq!(plan[1].files, ["f1.mrt", "f4.mrt"]);
        assert_eq!(plan[2].files, ["f2.mrt", "f5.mrt"]);
        // More workers than files: no empty shards.
        let plan = plan_shards(&files[..2], 8, &dir);
        assert_eq!(plan.len(), 2);
        assert_eq!(plan[0].files, ["f0.mrt"]);
        assert_eq!(plan[1].files, ["f1.mrt"]);
        // Degenerate worker counts are clamped, not panicked.
        assert_eq!(plan_shards(&files, 0, &dir).len(), 1);
        assert!(plan_shards(&[], 4, &dir).is_empty());
    }

    #[test]
    fn validation_rejects_missing_corrupt_and_stale_artifacts() {
        let dir = workdir("validate");
        let spec = spec_with_inputs(&dir, 0, 2);
        assert!(matches!(
            validate_artifact(&spec),
            Err(ShardFailureKind::MissingArtifact)
        ));

        fs::write(&spec.artifact, b"{ not json").unwrap();
        assert!(matches!(
            validate_artifact(&spec),
            Err(ShardFailureKind::CorruptArtifact(_))
        ));

        // Valid artifact, then truncate it: corrupt again.
        write_valid_artifact(&spec);
        assert!(validate_artifact(&spec).is_ok());
        let bytes = fs::read(&spec.artifact).unwrap();
        fs::write(&spec.artifact, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(
            validate_artifact(&spec),
            Err(ShardFailureKind::CorruptArtifact(_))
        ));

        // Valid artifact for the wrong file set: stale.
        write_valid_artifact(&spec);
        let mut wrong = spec.clone();
        wrong.files.pop();
        assert!(matches!(
            validate_artifact(&wrong),
            Err(ShardFailureKind::StaleArtifact(_))
        ));

        // Input rewritten after the artifact: fingerprint catches it.
        fs::write(&spec.files[0], b"different bytes").unwrap();
        assert!(matches!(
            validate_artifact(&spec),
            Err(ShardFailureKind::StaleArtifact(_))
        ));
    }

    #[test]
    fn an_artifact_from_the_previous_layout_is_corrupt_not_missing() {
        let dir = workdir("old-layout");
        let spec = spec_with_inputs(&dir, 0, 1);
        write_valid_artifact(&spec);
        let mut bytes = fs::read(&spec.artifact).unwrap();
        bytes[8..12].copy_from_slice(&3u32.to_le_bytes());
        fs::write(&spec.artifact, &bytes).unwrap();
        match validate_artifact(&spec) {
            Err(ShardFailureKind::CorruptArtifact(why)) => assert!(
                why.contains("version 3, this build reads version 7"),
                "{why}"
            ),
            other => panic!("expected a corrupt artifact, got {other:?}"),
        }
    }

    #[test]
    fn a_valid_artifact_hands_back_the_shard_segment() {
        let dir = workdir("segment");
        let spec = spec_with_inputs(&dir, 0, 2);
        write_valid_artifact(&spec);
        let cp = validate_artifact(&spec).unwrap();
        let recorded: Vec<&str> = cp.files.iter().map(|f| f.path.as_str()).collect();
        assert_eq!(recorded, spec.files);
        let stats = cp.snapshot.to_stats();
        assert_eq!((stats.unique_paths, stats.unique_tuples), (1, 1));
        assert_eq!(
            stats.counts(Community::new(1299, 7)).map(|c| (c.on, c.off)),
            Some((1, 0))
        );
    }

    #[test]
    fn reuses_pre_existing_valid_artifact_without_spawning() {
        let dir = workdir("reuse");
        let spec = spec_with_inputs(&dir, 0, 1);
        write_valid_artifact(&spec);
        let mut spawned = 0;
        let outcomes = supervise(
            std::slice::from_ref(&spec),
            &quick_cfg(2),
            |_, _| {
                spawned += 1;
                sh("exit 0".into())
            },
            |_| {},
        );
        assert_eq!(spawned, 0, "valid artifact must be adopted, not re-run");
        assert!(outcomes[0].succeeded());
        assert!(outcomes[0].reused);
        assert_eq!(outcomes[0].attempts, 0);
    }

    #[test]
    fn leftover_corrupt_or_stale_artifacts_are_reported_and_redone() {
        let dir = workdir("discard");
        let specs: Vec<ShardSpec> = (0..3).map(|i| spec_with_inputs(&dir, i, 1)).collect();
        // Shard 0: a JSON manifest as builds before the binary format
        // wrote it. Shard 1: valid, but for different input bytes. Shard
        // 2: no artifact at all (a fresh run) — not reported.
        fs::write(
            &specs[0].artifact,
            b"{\n  \"checksum\": 0,\n  \"files\": []\n}\n",
        )
        .unwrap();
        write_valid_artifact(&specs[1]);
        fs::write(&specs[1].files[0], b"rewritten input").unwrap();
        let mut discarded = Vec::new();
        let outcomes = supervise(
            &specs,
            &quick_cfg(1),
            |spec, _| {
                write_valid_artifact(spec);
                sh("exit 0".into())
            },
            |e| {
                if let ShardEvent::Discarded { shard, failure } = e {
                    discarded.push((shard.index, failure.clone()));
                }
            },
        );
        assert!(outcomes.iter().all(|o| o.succeeded() && !o.reused));
        assert!(outcomes
            .iter()
            .all(|o| o.attempts == 1 && o.failures.is_empty()));
        assert_eq!(discarded.len(), 2, "{discarded:?}");
        assert!(
            matches!(&discarded[0], (0, ShardFailureKind::CorruptArtifact(why))
                if why.contains("predates the binary")),
            "{discarded:?}"
        );
        assert!(
            matches!(&discarded[1], (1, ShardFailureKind::StaleArtifact(why))
                if why.contains("changed since")),
            "{discarded:?}"
        );
    }

    #[test]
    fn nonzero_exit_is_classified_and_retried_to_success() {
        let dir = workdir("retry-exit");
        let spec = spec_with_inputs(&dir, 0, 1);
        let marker = dir.join("attempt2");
        let outcomes = supervise(
            std::slice::from_ref(&spec),
            &quick_cfg(3),
            |spec, attempt| {
                if attempt < 3 {
                    sh("exit 7".into())
                } else {
                    // Final attempt "works": produce the artifact.
                    write_valid_artifact(spec);
                    fs::write(&marker, b"x").unwrap();
                    sh("exit 0".into())
                }
            },
            |_| {},
        );
        let o = &outcomes[0];
        assert!(o.succeeded());
        assert_eq!(o.attempts, 3);
        assert_eq!(o.retries(), 2);
        assert_eq!(
            o.failures,
            vec![ShardFailureKind::Exit(7), ShardFailureKind::Exit(7)]
        );
        assert!(!o.reused);
    }

    #[test]
    fn clean_exit_without_artifact_is_a_failure() {
        let dir = workdir("no-artifact");
        let spec = spec_with_inputs(&dir, 0, 1);
        let outcomes = supervise(
            std::slice::from_ref(&spec),
            &quick_cfg(2),
            |_, _| sh("exit 0".into()),
            |_| {},
        );
        let o = &outcomes[0];
        assert!(!o.succeeded());
        assert_eq!(o.attempts, 2);
        assert!(o
            .failures
            .iter()
            .all(|f| *f == ShardFailureKind::MissingArtifact));
    }

    #[test]
    fn corrupt_artifact_is_a_failure_and_budget_exhaustion_gives_up() {
        let dir = workdir("corrupt-budget");
        let spec = spec_with_inputs(&dir, 0, 1);
        let mut gave_up = false;
        let outcomes = supervise(
            std::slice::from_ref(&spec),
            &quick_cfg(2),
            |spec, _| sh(format!("echo garbage > {}", spec.artifact.display())),
            |e| {
                if matches!(e, ShardEvent::GaveUp { .. }) {
                    gave_up = true;
                }
            },
        );
        let o = &outcomes[0];
        assert!(!o.succeeded());
        assert_eq!(o.failures.len(), 2);
        assert!(matches!(
            o.failures[0],
            ShardFailureKind::CorruptArtifact(_)
        ));
        assert!(gave_up);
    }

    #[test]
    fn stalled_worker_is_killed_and_retried() {
        let dir = workdir("stall");
        let spec = spec_with_inputs(&dir, 0, 1);
        let outcomes = supervise(
            std::slice::from_ref(&spec),
            &quick_cfg(2),
            |spec, attempt| {
                if attempt == 1 {
                    // Touch the heartbeat once, then hang far past the
                    // stall deadline without further progress.
                    sh(format!("echo 1 > {}; sleep 30", spec.heartbeat.display()))
                } else {
                    write_valid_artifact(spec);
                    sh("exit 0".into())
                }
            },
            |_| {},
        );
        let o = &outcomes[0];
        assert!(o.succeeded(), "{:?}", o.failures);
        assert_eq!(o.failures, vec![ShardFailureKind::Stall]);
        assert_eq!(o.attempts, 2);
    }

    #[test]
    fn heartbeat_progress_defers_the_stall_deadline() {
        let dir = workdir("heartbeat");
        let spec = spec_with_inputs(&dir, 0, 1);
        // Worker needs ~4 × stall_deadline of wall clock but heartbeats
        // throughout, then succeeds — it must NOT be killed.
        let outcomes = supervise(
            std::slice::from_ref(&spec),
            &quick_cfg(1),
            |spec, _| {
                write_valid_artifact(spec);
                sh(format!(
                    "for i in 1 2 3 4 5 6 7 8 9 10; do echo $i > {}; sleep 0.1; done; exit 0",
                    spec.heartbeat.display()
                ))
            },
            |_| {},
        );
        assert!(outcomes[0].succeeded(), "{:?}", outcomes[0].failures);
        assert!(outcomes[0].failures.is_empty());
    }

    #[cfg(unix)]
    #[test]
    fn shutdown_waits_for_a_trapping_worker_to_flush_its_artifact() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let dir = workdir("shutdown-flush");
        let spec = spec_with_inputs(&dir, 0, 1);
        // Stage a valid artifact next to the real path; the worker only
        // moves it into place from its TERM trap — so the shard can only
        // succeed if the supervisor forwards TERM and waits for the flush.
        write_valid_artifact(&spec);
        let staged = dir.join("staged.ckpt");
        fs::rename(&spec.artifact, &staged).unwrap();

        let shutdown = Arc::new(AtomicBool::new(false));
        let trigger = Arc::clone(&shutdown);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            trigger.store(true, Ordering::SeqCst);
        });
        let mut interrupted = false;
        let outcomes = supervise_with_shutdown(
            std::slice::from_ref(&spec),
            &quick_cfg(1),
            |spec, _| {
                sh(format!(
                    "trap 'sleep 0.1; mv {staged} {artifact}; exit 0' TERM; \
                     echo hb > {heartbeat}; sleep 30 & wait $!",
                    staged = staged.display(),
                    artifact = spec.artifact.display(),
                    heartbeat = spec.heartbeat.display(),
                ))
            },
            |e| {
                if matches!(e, ShardEvent::Interrupted { .. }) {
                    interrupted = true;
                }
            },
            &shutdown,
        );
        t.join().unwrap();
        let o = &outcomes[0];
        assert!(o.succeeded(), "{:?}", o.failures);
        assert!(!interrupted, "flushed shard must count as succeeded");
        assert!(
            !spec.heartbeat.exists(),
            "shutdown must not leave stale heartbeats"
        );
        assert!(validate_artifact(&spec).is_ok());
    }

    /// A shutdown while a clean worker's artifact is under validation joins
    /// the validation, and a valid artifact counts as succeeded. The input
    /// is a FIFO: the shutdown is raised only once the validation has
    /// opened it, and the payload is written only after that, so the
    /// validation is still reading when the flag rises.
    #[cfg(unix)]
    #[test]
    fn shutdown_joins_a_validation_in_flight() {
        use crate::checkpoint::FileFingerprint;
        use std::io::Write;
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let dir = workdir("shutdown-validating");
        let fifo = dir.join("in.fifo");
        assert!(Command::new("mkfifo")
            .arg(&fifo)
            .status()
            .unwrap()
            .success());
        let spec = ShardSpec {
            index: 0,
            files: vec![fifo.to_string_lossy().into_owned()],
            artifact: dir.join("shard-000.ckpt"),
            heartbeat: dir.join("shard-000.hb"),
        };
        let shutdown = Arc::new(AtomicBool::new(false));
        let trigger = Arc::clone(&shutdown);
        // Opening a FIFO for writing waits for a reader, and only the
        // validation of a worker that exited cleanly opens this one. The
        // pause lets the supervisor reach the shutdown, and the join,
        // before the validation can finish.
        let writer = std::thread::spawn(move || {
            let mut w = fs::OpenOptions::new().write(true).open(&fifo)?;
            trigger.store(true, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(100));
            w.write_all(b"payload")
        });
        let mut interrupted = false;
        let outcomes = supervise_with_shutdown(
            std::slice::from_ref(&spec),
            &quick_cfg(1),
            |spec, _| {
                let mut cp = Checkpoint::new();
                cp.files.push(CompletedFile {
                    path: spec.files[0].clone(),
                    fingerprint: FileFingerprint {
                        bytes: 7,
                        hash: bgp_types::persist::checksum(b"payload"),
                    },
                });
                cp.save_atomic(&spec.artifact).unwrap();
                sh("exit 0".into())
            },
            |e| {
                if matches!(e, ShardEvent::Interrupted { .. }) {
                    interrupted = true;
                }
            },
            &shutdown,
        );
        assert!(outcomes[0].succeeded(), "{:?}", outcomes[0].failures);
        assert!(!interrupted, "a validated shard must count as succeeded");
        // Only once the validation has read it: otherwise the writer waits
        // for a reader until the test process exits.
        writer.join().unwrap().unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn shutdown_interrupts_a_non_trapping_worker_and_cleans_heartbeats() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let dir = workdir("shutdown-interrupt");
        let spec = spec_with_inputs(&dir, 0, 1);
        let shutdown = Arc::new(AtomicBool::new(false));
        let trigger = Arc::clone(&shutdown);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            trigger.store(true, Ordering::SeqCst);
        });
        let mut interrupted = false;
        let outcomes = supervise_with_shutdown(
            std::slice::from_ref(&spec),
            &quick_cfg(3),
            |spec, _| sh(format!("echo hb > {}; sleep 30", spec.heartbeat.display())),
            |e| {
                if matches!(e, ShardEvent::Interrupted { .. }) {
                    interrupted = true;
                }
            },
            &shutdown,
        );
        t.join().unwrap();
        let o = &outcomes[0];
        assert!(!o.succeeded());
        assert!(interrupted);
        assert_eq!(o.failures, vec![ShardFailureKind::Interrupted]);
        assert!(
            !spec.artifact.exists(),
            "interrupted shard must leave the artifact absent, not partial"
        );
        assert!(
            !spec.heartbeat.exists(),
            "shutdown must not leave stale heartbeats"
        );
    }

    /// The reuse pass validates off the polling thread, yet every event is
    /// delivered on it and each shard's events keep their order, a failed
    /// validation's retry included.
    #[test]
    fn each_shard_s_events_keep_their_order_under_concurrent_validation() {
        let dir = workdir("event-order");
        let specs: Vec<ShardSpec> = (0..3).map(|i| spec_with_inputs(&dir, i, 2)).collect();
        let caller = thread::current().id();
        let mut events: Vec<(usize, String)> = Vec::new();
        let outcomes = supervise(
            &specs,
            &quick_cfg(2),
            |spec, attempt| {
                if spec.index == 1 && attempt == 1 {
                    sh(format!("echo garbage > {}", spec.artifact.display()))
                } else {
                    write_valid_artifact(spec);
                    sh("exit 0".into())
                }
            },
            |e| {
                assert_eq!(thread::current().id(), caller);
                events.push(match e {
                    ShardEvent::Started { shard, attempt } => {
                        (shard.index, format!("started {attempt}"))
                    }
                    ShardEvent::Retrying { shard, attempt, .. } => {
                        (shard.index, format!("retrying {attempt}"))
                    }
                    ShardEvent::Succeeded { shard, attempt } => {
                        (shard.index, format!("succeeded {attempt}"))
                    }
                    other => panic!("unexpected event {other:?}"),
                });
            },
        );
        assert!(outcomes.iter().all(|o| o.succeeded()));
        for shard in 0..3 {
            let seen: Vec<&str> = events
                .iter()
                .filter(|(s, _)| *s == shard)
                .map(|(_, what)| what.as_str())
                .collect();
            let expected: &[&str] = if shard == 1 {
                &["started 1", "retrying 1", "started 2", "succeeded 2"]
            } else {
                &["started 1", "succeeded 1"]
            };
            assert_eq!(seen, expected, "shard {shard}");
        }
    }

    #[test]
    fn shards_are_supervised_concurrently_and_reported_in_order() {
        let dir = workdir("concurrent");
        let specs: Vec<ShardSpec> = (0..3).map(|i| spec_with_inputs(&dir, i, 1)).collect();
        let started = Instant::now();
        // Workers sleep 300ms without heartbeating; keep the stall
        // deadline comfortably above that so only concurrency is tested.
        let mut cfg = quick_cfg(1);
        cfg.stall_deadline = Duration::from_secs(5);
        let outcomes = supervise(
            &specs,
            &cfg,
            |spec, _| {
                write_valid_artifact(spec);
                sh("sleep 0.3; exit 0".into())
            },
            |_| {},
        );
        // Three 300ms workers in parallel finish far sooner than 900ms.
        assert!(
            started.elapsed() < Duration::from_millis(800),
            "workers must run concurrently ({:?})",
            started.elapsed()
        );
        assert!(outcomes.iter().all(|o| o.succeeded()));
        assert_eq!(
            outcomes.iter().map(|o| o.index).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }
}
