#!/usr/bin/env python3
"""Benchmark of bgpcomm's batch, sharded, streaming and serving paths.

Run it from the root of a checkout:

    python3 perfbench/run.py --workload ribs --seed 1 --seconds 20 --trace 0

It builds the `bgpcomm` release binary and the benchmark harness from the
checkout, generates the workload from the seed (not timed), then runs
rounds of the measured commands until `--seconds` have passed:

    infer   bgpcomm infer --mrt FILES --siblings S --top 0 --json L --artifact-out A
    check   bgpcomm query --artifact A --check FILES --siblings S
    lookups LabelArtifact::load(A) + one get per key, in process (harness)
    shard   bgpcomm shard over the same files into a fresh --shard-dir
    watch   bgpcomm watch --tail ALL --checkpoint <fresh> --quiesce-after 1 --json
    restart the same watch again, resuming from the checkpoint it left

Every command runs with --threads = nproc, except shard, which runs
--workers = nproc with --threads 1. Every output is checked: the four label
files must be byte-identical, the check must find no anomaly, the restart
must resume, and the observation counts must match the benchmark's own
decode. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics of the traced pass with --trace 1. A line
before it records the input shape and the machine.

A shared host runs the same command up to twice as long for minutes at a
time. Between the measured commands the run therefore times a fixed probe
(`perfbench-harness probe`), and reports each timing metric as it would
read on the reference host: the median time over the median probe time,
times the probe's reference time. The line before the result gives the
unscaled medians and the host factor.

Outputs of the measured commands go to `.perfbench/` in the checkout, on
whatever file system holds it; the record names that file system.
"""

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

# Why each workload exists; the generator (harness/src/gen.rs) carries the
# same reasons next to the code that builds them. `reps` is how many times
# one round runs each command; a run repeats rounds until its time is up.
WORKLOADS = {
    # The paper's bulk input: four collector RIB dumps at one dump time,
    # about 244k observations in 27 MB. Large records and heavy path reuse
    # put the work in decode, interning and merging, the stats kernel and
    # the shard snapshots; watch crosses no window boundary, a pure bulk
    # fold with one final checkpoint. A round takes about 11 s: infer,
    # check and a lookup pass about 0.3 s each, shard 2.4 s, watch 3.2 s
    # and its restart 2.9 s.
    "ribs": {"reps": {"infer": 2, "check": 2, "lookups": 2, "shard": 1, "watch": 1, "restart": 1}},
    # The opposite balance: two days of BGP4MP churn, one file per hour,
    # about 48k observations in 8 MB. One observation per record and 48
    # small files move ingest cost to framing and per-file overhead, and
    # watch crosses 47 window boundaries, so reclassification and 47
    # checkpoint writes dominate: one watch takes about 15 s, so a round
    # (about 24 s) runs it once and the 0.1 s commands six times each.
    "updates": {"reps": {"infer": 6, "check": 6, "lookups": 4, "shard": 3, "watch": 1,
                         "restart": 2}},
}

# (name, unit, better) — the end-to-end metrics, measured with tracing off.
END_TO_END = [
    ("infer_obs_per_s", "obs/s", "higher"),
    ("shard_obs_per_s", "obs/s", "higher"),
    ("watch_obs_per_s", "obs/s", "higher"),
    ("check_obs_per_s", "obs/s", "higher"),
    ("query_lookups_per_s", "lookups/s", "higher"),
    ("setup_s", "s", "lower"),
    ("infer_peak_rss_mb", "MB", "lower"),
    ("shard_peak_rss_mb", "MB", "lower"),
    ("watch_peak_rss_mb", "MB", "lower"),
    ("label_accuracy", "ratio", "higher"),
]

# (name, unit, better) — the per-layer metrics of the traced pass.
PER_LAYER = [
    ("mrt.readahead.mb_per_s", "MB/s", "higher"),
    ("mrt.view.ns_per_obs", "ns", "lower"),
    ("mrt.view.records", "count", "higher"),
    ("mrt.recover.ns_per_obs", "ns", "lower"),
    ("mrt.recover.bytes_ok_ratio", "ratio", "higher"),
    ("mrt.recover.resyncs", "count", "lower"),
    ("mrt.recover.records_failed", "count", "lower"),
    ("types.store.intern_ns_per_obs", "ns", "lower"),
    ("types.store.merge_ms", "ms", "lower"),
    ("types.store.rss_bytes_per_obs", "bytes", "lower"),
    ("types.store.unique_paths", "count", "higher"),
    ("core.stats.ns_per_obs", "ns", "lower"),
    ("core.stats.unique_tuples", "count", "higher"),
    ("core.classify.ms", "ms", "lower"),
    ("core.classify.clusters", "count", "higher"),
    ("core.classify.labels", "count", "higher"),
    ("core.artifact.write_ms", "ms", "lower"),
    ("core.artifact.load_ms", "ms", "lower"),
    ("core.artifact.lookup_ns", "ns", "lower"),
    ("core.artifact.hit_ratio", "ratio", "higher"),
    ("core.artifact.check_ns_per_obs", "ns", "lower"),
    ("core.artifact.anomalies", "count", "lower"),
    ("core.checkpoint.accumulate_ns_per_obs", "ns", "lower"),
    ("core.checkpoint.save_ms", "ms", "lower"),
    ("core.checkpoint.bytes_per_obs", "bytes", "lower"),
    ("core.checkpoint.load_ms", "ms", "lower"),
    ("core.checkpoint.merge_ms", "ms", "lower"),
    ("core.supervisor.worker_max_s", "s", "lower"),
    ("core.supervisor.worker_min_s", "s", "lower"),
    ("core.supervisor.validate_ms", "ms", "lower"),
    ("core.supervisor.retries", "count", "lower"),
    ("mrt.stream.mb_per_s", "MB/s", "higher"),
    ("mrt.stream.backpressure_stalls", "count", "lower"),
    ("mrt.stream.queue_peak_bytes", "bytes", "lower"),
    ("core.watch.fold_ns_per_obs", "ns", "lower"),
    ("core.watch.cumulative_ns_per_obs", "ns", "lower"),
    ("core.watch.advance_ms", "ms", "lower"),
    ("core.watch.advances", "count", "lower"),
    ("core.watch.reclassified_owners", "count", "lower"),
    ("core.watch.flaps", "count", "lower"),
    ("core.watch.checkpoint_ms", "ms", "lower"),
    ("core.watch.checkpoint_bytes_per_obs", "bytes", "lower"),
    ("core.watch.resume_ms", "ms", "lower"),
    ("core.watch.final_classify_ms", "ms", "lower"),
    ("ledger.infer_unattributed", "ratio", "lower"),
    ("ledger.shard_unattributed", "ratio", "lower"),
    ("ledger.watch_unattributed", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
# A command that takes longer than this is killed and counted as failed.
COMMAND_TIMEOUT_S = 120
# One lookup sample makes this many lookups, in whole passes over the key
# stream, each pass a fresh `load` plus one `get` per key: about 0.3 s.
LOOKUPS_PER_SAMPLE = 4_000_000
# The label the restarted watch must log.
RESUMED = "watch: resumed from checkpoint"
# The host-speed probe's time (both phases on 2 threads) on the reference
# host, a 2-vCPU VM at its usual speed. Timing metrics are reported as they
# would read on that host.
PROBE_REFERENCE_S = 0.042


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def valid_name(name):
    """Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`."""
    return NAME_RE.fullmatch(name) is not None


def quartile_spread(values):
    """Distance between the first and third quartile as a share of the
    median, with quartiles as `statistics.quantiles(values, n=4)` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def result_line(correct, attempted, failed, metrics, units):
    """The final JSON line: exactly `correct`, `attempted`, `failed` and
    `metrics`, each metric as {"value", "unit"}."""
    for name in metrics:
        if not valid_name(name):
            raise ValueError(f"illegal metric name {name!r}")
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(value), "unit": units[name]}
                for name, value in metrics.items()
            },
        }
    )


def host_factor(probes):
    """How many times slower than the reference host the run's host was:
    the median probe time over the reference's."""
    return statistics.median(p["memory_s"] + p["compute_s"] for p in probes) / PROBE_REFERENCE_S


def to_reference_host(raw, factor):
    """The end-to-end metrics as they would read on the reference host:
    rates times the host factor, `setup_s` divided by it. Memory and
    accuracy do not depend on host speed and pass through."""
    out = {}
    for name, value in raw.items():
        if name.endswith("_per_s"):
            out[name] = value * factor
        elif name == "setup_s":
            out[name] = value / factor
        else:
            out[name] = value
    return out


def score_labels(labels, truth):
    """Accuracy of a label file against the complete policy truth, scored
    as the accuracy harness does: every labeled community whose owner
    defined it is scored; correct ÷ scored."""
    scored = correct = 0
    for row in labels:
        want = truth.get(row["community"])
        if want is None:
            continue
        scored += 1
        correct += want == row["intent"]
    return correct / scored if scored else 0.0


def parse_check(stdout):
    """(observations, anomalies) from `query --check` output."""
    m = re.search(r"^check: (\d+) observations, \d+ checked, \d+ unknown, (\d+) anomalies$",
                  stdout, re.M)
    return (int(m.group(1)), int(m.group(2))) if m else (None, None)


def parse_watch(stdout):
    """Observations folded, from `watch` output."""
    m = re.search(r"^observations\s+: (\d+)$", stdout, re.M)
    return int(m.group(1)) if m else None


class Timed:
    """One finished child process: wall time, exit code, own peak RSS."""

    def __init__(self, wall_s, code, rss_mb, stdout, stderr):
        self.wall_s = wall_s
        self.code = code
        self.rss_mb = rss_mb
        self.stdout = stdout
        self.stderr = stderr


def run_timed(launcher, args, log_dir, tag):
    """Run `args` to completion through the harness's `spawn` launcher and
    time it. The launcher reports the command's wall time and its own peak
    RSS: the command's high-water mark, or the largest of it and the
    children it reaped (the shard supervisor's workers). It is never this
    runner's figure, and never a running maximum over earlier commands.
    Output goes to files, so the command never blocks on a pipe."""
    out_path = log_dir / f"{tag}.out"
    err_path = log_dir / f"{tag}.err"
    report = log_dir / f"{tag}.time.json"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen([str(launcher), "spawn", "--report", str(report), "--", *args],
                                stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                start_new_session=True)
        try:
            proc.wait(timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            kill_group(proc.pid)
            proc.wait()
        finally:
            kill_group(proc.pid)
    stdout = out_path.read_text(errors="replace")
    stderr = err_path.read_text(errors="replace")
    if proc.returncode != 0 or not report.exists():
        return Timed(float("nan"), -1, float("nan"), stdout, stderr)
    timing = json.loads(report.read_text())
    return Timed(timing["wall_s"], timing["code"], timing["maxrss_kb"] / 1024.0, stdout, stderr)


def kill_group(pid):
    """Stop whatever is left of a command's process group."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


class Bench:
    def __init__(self, root, workload, seed, threads):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.threads = threads
        self.spec = WORKLOADS[workload]
        target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        self.target = (root / target).resolve()
        self.env = dict(os.environ, CARGO_TARGET_DIR=str(self.target))
        self.bgpcomm = self.target / "release" / "bgpcomm"
        self.harness = self.target / "release" / "perfbench-harness"
        self.work = root / ".perfbench" / f"{workload}-{seed}-{os.getpid()}"
        self.inputs = self.work / "in"
        self.attempted = 0
        self.failed = 0
        self.probes = []

    # -- accounting -------------------------------------------------------

    def op(self, ok, what):
        """Count one operation; a failed one is reported on stderr."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            log("FAILED:", what)
        return ok

    # -- set-up -----------------------------------------------------------

    def build(self):
        for args in (
            ["cargo", "build", "--release", "--offline", "-p", "bgpcomm"],
            ["cargo", "build", "--release", "--offline", "--manifest-path",
             "perfbench/harness/Cargo.toml"],
        ):
            proc = subprocess.run(args, cwd=self.root, env=self.env,
                                  stdout=sys.stderr, stderr=sys.stderr)
            if proc.returncode != 0:
                raise SystemExit(f"perfbench: build failed: {' '.join(args)}")

    def generate(self):
        if self.work.exists():
            shutil.rmtree(self.work)
        self.inputs.mkdir(parents=True)
        proc = subprocess.run(
            [str(self.harness), "gen", "--workload", self.workload, "--seed", str(self.seed),
             "--out", str(self.inputs)],
            capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: generation failed: {proc.stderr.strip()}")
        self.shape = json.loads(proc.stdout.strip().splitlines()[-1])
        self.files = (self.inputs / "files.txt").read_text().split()
        self.siblings = str(self.inputs / "siblings.json")
        self.tail = str(self.inputs / "tail.mrt")
        self.keys = str(self.inputs / "keys.bin")
        self.truth = json.loads((self.inputs / "truth.json").read_text())
        self.observations = self.shape["observations"]
        self.lookup_keys = self.shape["lookup_keys"]
        self.lookup_passes = max(1, round(LOOKUPS_PER_SAMPLE / max(1, self.lookup_keys)))

    def record(self):
        """The run's record: input shape, nproc, rustc and file system."""
        rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True,
                               env=self.env).stdout.strip()
        fs = subprocess.run(["stat", "-f", "-c", "%T", str(self.work)], capture_output=True,
                            text=True).stdout.strip()
        return {"record": {"workload": self.workload, "seed": self.seed, "shape": self.shape,
                           "nproc": os.cpu_count(), "threads": self.threads, "rustc": rustc,
                           "output_fs": fs or "unknown", "output_dir": ".perfbench"}}

    # -- the measured commands --------------------------------------------

    def bgpcomm_timed(self, d, tag, *args):
        return run_timed(self.harness, [str(self.bgpcomm), *args], d, tag)

    def cmd_infer(self, d, tag):
        return self.bgpcomm_timed(
            d, tag, "infer", "--mrt", ",".join(self.files), "--siblings", self.siblings,
            "--top", "0", "--json", str(d / f"{tag}.labels.json"),
            "--artifact-out", str(d / "labels.artifact"), "--threads", str(self.threads))

    def cmd_check(self, d, tag):
        return self.bgpcomm_timed(
            d, tag, "query", "--artifact", str(d / "labels.artifact"),
            "--check", ",".join(self.files), "--siblings", self.siblings,
            "--threads", str(self.threads))

    def cmd_lookups(self, d, tag):
        return run_timed(
            self.harness, [str(self.harness), "lookups", "--artifact", str(d / "labels.artifact"),
                           "--keys", self.keys, "--passes", str(self.lookup_passes)], d, tag)

    def cmd_shard(self, d, tag):
        return self.bgpcomm_timed(
            d, tag, "shard", "--mrt", ",".join(self.files), "--siblings", self.siblings,
            "--top", "0", "--json", str(d / f"{tag}.labels.json"),
            "--shard-dir", str(d / f"{tag}.shards"), "--workers", str(self.threads),
            "--threads", "1")

    def cmd_watch(self, d, tag, checkpoint):
        # The README's deployment geometry: 24 x 3600 s windows, a
        # checkpoint after every advance.
        return self.bgpcomm_timed(
            d, tag, "watch", "--tail", self.tail, "--siblings", self.siblings,
            "--checkpoint", str(checkpoint), "--window-secs", "3600", "--windows", "24",
            "--checkpoint-every", "1", "--quiesce-after", "1",
            "--json", str(d / f"{tag}.labels.json"), "--threads", str(self.threads))

    # -- checks -----------------------------------------------------------

    def same_labels(self, d, tag, reference):
        path = d / f"{tag}.labels.json"
        ok = path.exists() and path.read_bytes() == reference
        return self.op(ok, f"{tag}: label file differs from infer's")

    def exited(self, t, tag):
        return self.op(t.code == 0, f"{tag}: exit code {t.code} (stderr: {t.stderr[-400:]!r})")

    def expected_hits(self, labels):
        labeled = {tuple(int(x) for x in row["community"].split(":")) for row in labels}
        packed = {(a << 16) | b for a, b in labeled}
        keys = array("I")
        with open(self.keys, "rb") as f:
            keys.frombytes(f.read())
        if sys.byteorder != "little":
            keys.byteswap()
        return sum(1 for k in keys if k in packed)

    def probe(self):
        """One host-speed probe sample, taken between measured commands."""
        proc = subprocess.run([str(self.harness), "probe", "--threads", str(self.threads)],
                              capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
        if self.op(proc.returncode == 0, f"probe: exit code {proc.returncode}"):
            self.probes.append(json.loads(proc.stdout.strip().splitlines()[-1]))

    # -- one round ----------------------------------------------------------

    def prepare(self):
        """Warm the binaries and the page cache with one infer and one
        lookup client, not counted as samples. That infer's label file is
        the reference every measured label file must equal, and the file
        `label_accuracy` scores."""
        d = self.work / "warm"
        d.mkdir()
        t = self.cmd_infer(d, "infer")
        path = d / "infer.labels.json"
        self.reference = path.read_bytes() if t.code == 0 and path.exists() else None
        self.op(self.reference is not None, f"warm-up infer failed: {t.stderr[-400:]!r}")
        labels = json.loads(self.reference.decode()) if self.reference else []
        self.accuracy = score_labels(labels, self.truth)
        self.op(self.accuracy > 0, "label_accuracy: no label could be scored")
        self.hits = self.expected_hits(labels)
        self.cmd_lookups(d, "lookups")
        shutil.rmtree(d, ignore_errors=True)

    def run_infer(self, d, tag, samples):
        t = self.cmd_infer(d, tag)
        if self.exited(t, tag):
            samples["infer"].append(t)
        self.same_labels(d, tag, self.reference)

    def run_check(self, d, tag, samples):
        t = self.cmd_check(d, tag)
        if self.exited(t, tag):
            samples["check"].append(t)
        obs, anomalies = parse_check(t.stdout)
        self.op(anomalies == 0, f"{tag}: {anomalies} anomalies")
        self.op(obs == self.observations,
                f"{tag}: checked {obs} observations, expected {self.observations}")

    def run_lookups(self, d, tag, samples):
        t = self.cmd_lookups(d, tag)
        if not self.exited(t, tag):
            return
        got = json.loads(t.stdout.strip().splitlines()[-1])
        ok = got["keys"] == self.lookup_keys and got["hits"] == self.hits
        if self.op(ok, f"{tag}: {got['hits']} hits of {got['keys']} keys per pass, "
                       f"expected {self.hits} of {self.lookup_keys}"):
            samples["lookups"].append(got["total_s"] / got["passes"])

    def run_shard(self, d, samples):
        for k in range(self.spec["reps"]["shard"]):
            tag = f"shard{k}"
            self.probe()
            t = self.cmd_shard(d, tag)
            if self.exited(t, tag):
                samples["shard"].append(t)
            self.same_labels(d, tag, self.reference)
            shutil.rmtree(d / f"{tag}.shards", ignore_errors=True)

    def run_watch(self, d, k, samples):
        """A fresh watch, then restarts that resume from its checkpoint."""
        checkpoint = d / f"watch{k}.ckpt"
        tag = f"watch{k}"
        self.probe()
        t = self.cmd_watch(d, tag, checkpoint)
        if self.exited(t, tag):
            samples["watch"].append(t)
        self.op(RESUMED not in t.stderr, f"{tag}: resumed although its checkpoint was fresh")
        folded = parse_watch(t.stdout)
        self.op(folded == self.observations,
                f"{tag}: folded {folded} observations, expected {self.observations}")
        self.same_labels(d, tag, self.reference)
        for j in range(self.spec["reps"]["restart"]):
            tag = f"restart{k}.{j}"
            self.probe()
            t = self.cmd_watch(d, tag, checkpoint)
            if self.exited(t, tag):
                samples["restart"].append(t)
            self.op(RESUMED in t.stderr, f"{tag}: did not resume from the checkpoint")
            self.same_labels(d, tag, self.reference)
        checkpoint.unlink(missing_ok=True)

    def round(self, index, samples):
        """Every measured command `reps` times, the short ones interleaved
        with the long ones; every output checked."""
        d = self.work / f"round-{index}"
        d.mkdir(parents=True)
        reps = self.spec["reps"]
        short = {"infer": self.run_infer, "check": self.run_check, "lookups": self.run_lookups}

        def shorts(k):
            self.probe()
            for kind, run in short.items():
                if k < reps[kind]:
                    run(d, f"{kind}{k}", samples)

        shorts(0)
        self.run_shard(d, samples)
        for k in range(reps["watch"]):
            shorts(1 + k)
            self.run_watch(d, k, samples)
        for k in range(1 + reps["watch"], max(reps[kind] for kind in short)):
            shorts(k)
        shutil.rmtree(d, ignore_errors=True)

    def measure(self, seconds):
        samples = {k: [] for k in ("infer", "check", "lookups", "shard", "watch", "restart")}
        self.prepare()
        start = time.perf_counter()
        rounds = 0
        while True:
            self.round(rounds, samples)
            rounds += 1
            elapsed = time.perf_counter() - start
            # Start another round only if three quarters of it fit in the
            # budget, so a run holds the same number of rounds when the
            # host runs somewhat slower.
            if elapsed + 0.25 * elapsed / rounds > seconds:
                break
        log(f"{rounds} rounds in {time.perf_counter() - start:.1f}s")
        return samples

    def end_to_end(self, samples):
        def walls(kind):
            return [t.wall_s for t in samples[kind]]

        def rss(kind):
            return [t.rss_mb for t in samples[kind]]

        for kind, values in samples.items():
            times = values if kind == "lookups" else walls(kind)
            if len(times) >= 2:
                log(f"{kind}: {len(times)} samples, median {statistics.median(times):.4f}s, "
                    f"quartile spread {quartile_spread(times):.3f}")
        raw = {}
        obs = self.observations
        if samples["infer"]:
            raw["infer_obs_per_s"] = obs / statistics.median(walls("infer"))
            raw["infer_peak_rss_mb"] = statistics.median(rss("infer"))
        if samples["shard"]:
            raw["shard_obs_per_s"] = obs / statistics.median(walls("shard"))
            raw["shard_peak_rss_mb"] = statistics.median(rss("shard"))
        if samples["watch"]:
            raw["watch_obs_per_s"] = obs / statistics.median(walls("watch"))
            raw["watch_peak_rss_mb"] = statistics.median(rss("watch"))
        if samples["check"]:
            raw["check_obs_per_s"] = obs / statistics.median(walls("check"))
        if samples["lookups"]:
            raw["query_lookups_per_s"] = self.lookup_keys / statistics.median(samples["lookups"])
        if samples["restart"]:
            raw["setup_s"] = statistics.median(walls("restart"))
        raw["label_accuracy"] = self.accuracy
        self.op(bool(self.probes), "no host-speed probe succeeded")
        factor = host_factor(self.probes) if self.probes else 1.0
        log(f"{len(self.probes)} probes: the host took {factor:.3f}x the reference's time")
        print(json.dumps({"raw": raw, "host_factor": factor}), flush=True)
        metrics = to_reference_host(raw, factor)
        for name, _, _ in END_TO_END:
            self.op(name in metrics, f"{name}: no successful sample")
        return metrics

    # -- the traced pass ----------------------------------------------------

    def traced(self, seconds):
        """The measured infer, shard and watch once each (untraced) for
        their label files and the untraced infer wall, then traced passes
        until `seconds` have passed. Every traced pass must write the same
        labels as the command it mirrors; per-layer metrics are medians
        over the passes."""
        samples = {k: [] for k in ("infer", "check", "lookups", "shard", "watch", "restart")}
        self.prepare()
        d = self.work / "untraced"
        d.mkdir()
        for k in range(self.spec["reps"]["infer"]):
            self.run_infer(d, f"infer{k}", samples)
        self.run_shard(d, samples)
        self.run_watch(d, 0, samples)
        infer_walls = [t.wall_s for t in samples["infer"]]

        passes = []
        start = time.perf_counter()
        while True:
            tag = f"trace{len(passes)}"
            t = run_timed(self.harness, [str(self.harness), "trace", "--dir", str(self.inputs),
                                         "--bgpcomm", str(self.bgpcomm), "--threads",
                                         str(self.threads)], d, tag)
            if not self.exited(t, tag):
                break
            out = json.loads(t.stdout.strip().splitlines()[-1])
            for kind, path in sorted(out["labels"].items()):
                self.op(Path(path).read_bytes() == self.reference,
                        f"{tag}: traced {kind} labels differ from the measured {kind}'s")
            survived = self.shape["damaged_observations"]
            self.op(out["damaged_observations"] == survived,
                    f"{tag}: damaged copy decoded to {out['damaged_observations']} "
                    f"observations, the generator's decode to {survived}")
            passes.append(out)
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / len(passes) > seconds:
                break
        log(f"{len(passes)} traced passes in {time.perf_counter() - start:.1f}s")
        if passes:
            # Keep the last pass's spans; the rest of the work directory goes.
            kept = self.work.parent / f"spans-{self.workload}-{self.seed}.jsonl"
            shutil.copyfile(passes[-1]["spans"], kept)
            log(f"spans of the last traced pass: {kept.relative_to(self.root)}")
        metrics = {}
        for name, _, _ in PER_LAYER:
            values = [p["metrics"][name] for p in passes if name in p["metrics"]]
            if values:
                metrics[name] = statistics.median(values)
        if passes and infer_walls:
            metrics["trace.overhead_ratio"] = (statistics.median([p["infer_pass_s"] for p in passes])
                                               / statistics.median(infer_walls))
        for name, _, _ in PER_LAYER:
            self.op(name in metrics, f"{name}: not reported by the traced pass")
        return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    for needed in ("Cargo.toml", "crates/cli/Cargo.toml", "perfbench/harness/Cargo.toml"):
        if not (root / needed).is_file():
            log(f"{needed} not found: run from the root of a bgpcomm checkout")
            return 2

    bench = Bench(root, args.workload, args.seed, os.cpu_count() or 1)
    bench.build()
    try:
        bench.generate()
        print(json.dumps(bench.record()), flush=True)
        if args.trace:
            metrics = bench.traced(args.seconds)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            metrics = bench.end_to_end(bench.measure(args.seconds))
            units = {name: unit for name, unit, _ in END_TO_END}
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    correct = bench.failed == 0
    print(result_line(correct, bench.attempted, bench.failed, metrics, units), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
