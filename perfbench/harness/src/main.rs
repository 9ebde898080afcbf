//! `perfbench-harness` — the in-process half of the bgpcomm benchmark.
//!
//! ```text
//! perfbench-harness gen     --workload W --seed N --out DIR
//! perfbench-harness lookups --artifact A --keys DIR/keys.bin [--passes N]
//! perfbench-harness trace   --dir DIR --bgpcomm BIN --threads T
//! perfbench-harness spawn   --report FILE -- CMD [ARGS...]
//! perfbench-harness probe   --threads T
//! ```
//!
//! * `gen` writes one workload's archives, their damaged copies, the
//!   sibling map, the policy truth, the lookup key stream and the input
//!   shape into `DIR`.
//! * `lookups` times `LabelArtifact::load` plus one `get` per key, the way
//!   a single serving client would, and prints one JSON line.
//! * `trace` makes the library calls `infer`, `shard`, `watch` and
//!   `query --check` make, with a span around each, and prints the
//!   per-layer metrics as one JSON line.
//! * `spawn` runs one measured command and writes its wall time, exit code
//!   and peak RSS to `FILE`.
//! * `probe` times a fixed amount of memory-bound and compute-bound work
//!   and prints the times as one JSON line: how fast the host runs at that
//!   moment.
//!
//! `run.py` next to this package drives them all.

mod gen;
mod probe;
mod spans;
mod spawn;
mod trace;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use bgp_artifact::LabelArtifact;
use bgp_types::Community;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("usage: perfbench-harness gen|lookups|trace|spawn|probe ...");
        return ExitCode::from(2);
    };
    if command == "spawn" {
        return match spawn::run(rest) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench-harness: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let flags = match Flags::parse(rest) {
        Ok(flags) => flags,
        Err(e) => {
            eprintln!("perfbench-harness: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match command.as_str() {
        "gen" => run_gen(&flags),
        "lookups" => run_lookups(&flags),
        "trace" => trace::run(&flags),
        "probe" => run_probe(&flags),
        other => Err(format!("unknown command {other:?}")),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-harness: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--name value` pairs.
pub struct Flags(BTreeMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            map.insert(name.to_string(), value.clone());
        }
        Ok(Flags(map))
    }

    /// A required flag.
    pub fn get(&self, name: &str) -> Result<&str, String> {
        self.0
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("--{name} is required"))
    }

    /// A required flag parsed as `T`.
    pub fn parse_as<T: std::str::FromStr>(&self, name: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        let raw = self.get(name)?;
        raw.parse().map_err(|e| format!("--{name} {raw}: {e}"))
    }

    /// An optional flag parsed as `T`, with a default.
    pub fn parse_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.0.get(name) {
            None => Ok(default),
            Some(_) => self.parse_as(name),
        }
    }
}

/// Where `gen` puts things inside its output directory.
pub struct Layout {
    dir: PathBuf,
}

impl Layout {
    pub fn new(dir: &Path) -> Layout {
        Layout {
            dir: dir.to_path_buf(),
        }
    }
    /// The archives, one per line of `files.txt`, in input order.
    pub fn files(&self) -> Result<Vec<String>, String> {
        self.list("files.txt")
    }
    /// Their damaged copies, in the same order (`damaged.txt`).
    pub fn damaged(&self) -> Result<Vec<String>, String> {
        self.list("damaged.txt")
    }
    fn list(&self, name: &str) -> Result<Vec<String>, String> {
        let list = self.dir.join(name);
        let text =
            fs::read_to_string(&list).map_err(|e| format!("read {}: {e}", list.display()))?;
        Ok(text.lines().map(str::to_string).collect())
    }
    /// All archives concatenated in input order: the `watch --tail` feed.
    pub fn tail(&self) -> PathBuf {
        self.dir.join("tail.mrt")
    }
    pub fn siblings(&self) -> PathBuf {
        self.dir.join("siblings.json")
    }
    pub fn keys(&self) -> PathBuf {
        self.dir.join("keys.bin")
    }
}

fn write(path: &Path, bytes: &[u8]) -> Result<(), String> {
    fs::write(path, bytes).map_err(|e| format!("write {}: {e}", path.display()))
}

/// `gen`: write one workload's inputs and its shape.
fn run_gen(flags: &Flags) -> Result<(), String> {
    let name = flags.get("workload")?;
    let workload = gen::Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed: u64 = flags.parse_as("seed")?;
    let out = PathBuf::from(flags.get("out")?);
    let mrt_dir = out.join("mrt");
    let damaged_dir = out.join("damaged");
    for dir in [&mrt_dir, &damaged_dir] {
        fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let layout = Layout::new(&out);

    let archives = gen::generate(workload, seed, 1.0, workload.target())
        .map_err(|e| format!("generate: {e}"))?;
    let damaged_files = gen::damaged(&archives.files, seed);
    let (mut listed, mut listed_damaged) = (String::new(), String::new());
    let mut tail = Vec::new();
    for ((name, bytes), damaged_bytes) in archives
        .names
        .iter()
        .zip(&archives.files)
        .zip(&damaged_files)
    {
        let path = mrt_dir.join(name);
        write(&path, bytes)?;
        listed.push_str(&format!("{}\n", path.display()));
        tail.extend_from_slice(bytes);
        let path = damaged_dir.join(name);
        write(&path, damaged_bytes)?;
        listed_damaged.push_str(&format!("{}\n", path.display()));
    }
    write(&out.join("files.txt"), listed.as_bytes())?;
    write(&out.join("damaged.txt"), listed_damaged.as_bytes())?;
    write(&layout.tail(), &tail)?;
    let siblings = serde_json::to_string_pretty(&archives.scenario.siblings)
        .map_err(|e| format!("serialize siblings: {e}"))?;
    write(&layout.siblings(), siblings.as_bytes())?;

    let truth = gen::truth(&archives.scenario);
    let mut json = String::from("{");
    for (i, (community, intent)) in truth.iter().enumerate() {
        json.push_str(if i == 0 { "\n" } else { ",\n" });
        json.push_str(&format!("  \"{community}\": \"{intent}\""));
    }
    json.push_str("\n}\n");
    write(&out.join("truth.json"), json.as_bytes())?;

    let decoded = gen::decode(&archives.files);
    let survived = gen::decode(&damaged_files);
    let store = &decoded.store;
    let keys = gen::key_stream(store);
    let key_bytes: Vec<u8> = keys.iter().flat_map(|k| k.to_le_bytes()).collect();
    write(&layout.keys(), &key_bytes)?;

    let shape = format!(
        "{{\"workload\": \"{name}\", \"seed\": {seed}, \
         \"files\": {}, \"bytes\": {}, \"records_written\": {}, \"records_decoded\": {}, \
         \"observations_written\": {}, \"observations\": {}, \"unique_paths\": {}, \
         \"communities\": {}, \"owners\": {}, \"lookup_keys\": {}, \
         \"resyncs\": {}, \"bytes_skipped\": {}, \"truth_communities\": {}, \
         \"damaged_observations\": {}, \"damaged_resyncs\": {}, \"damaged_bytes_skipped\": {}}}\n",
        archives.files.len(),
        tail.len(),
        archives.records,
        decoded.report.records_read,
        archives.written,
        store.len(),
        store.path_count(),
        store.community_count(),
        gen::owner_count(store),
        keys.len(),
        decoded.report.resync_events,
        decoded.report.bytes_skipped,
        truth.len(),
        survived.store.len(),
        survived.report.resync_events,
        survived.report.bytes_skipped,
    );
    write(&out.join("shape.json"), shape.as_bytes())?;
    print!("{shape}");
    Ok(())
}

/// `probe`: the fixed host-speed work, both phases timed on `--threads`
/// threads.
fn run_probe(flags: &Flags) -> Result<(), String> {
    let threads: usize = flags.parse_as("threads")?;
    let memory = probe::run(threads, probe::MEMORY);
    let compute = probe::run(threads, probe::COMPUTE);
    println!("{{\"memory_s\": {memory:.9}, \"compute_s\": {compute:.9}}}");
    Ok(())
}

/// Read the packed key stream `gen` wrote.
pub fn read_keys(path: &Path) -> Result<Vec<Community>, String> {
    let bytes = fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Ok(bytes
        .chunks_exact(4)
        .map(|w| {
            let k = u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            Community::new((k >> 16) as u16, k as u16)
        })
        .collect())
}

/// `lookups`: one closed-loop client — per pass, load the artifact, then
/// one `get` per key in archive order. Load and lookups are timed together
/// so work moved into load still shows.
fn run_lookups(flags: &Flags) -> Result<(), String> {
    let artifact = PathBuf::from(flags.get("artifact")?);
    let keys = read_keys(Path::new(flags.get("keys")?))?;
    let passes: usize = flags.parse_or("passes", 1)?;
    let mut hits = 0usize;
    let start = Instant::now();
    for _ in 0..passes.max(1) {
        let loaded = LabelArtifact::load(&artifact)
            .map_err(|e| format!("load {}: {e}", artifact.display()))?;
        hits = 0;
        for &key in &keys {
            hits += usize::from(std::hint::black_box(loaded.get(key)).is_some());
        }
    }
    let total = start.elapsed();
    println!(
        "{{\"keys\": {}, \"hits\": {hits}, \"passes\": {}, \"total_s\": {:.9}}}",
        keys.len(),
        passes.max(1),
        total.as_secs_f64()
    );
    Ok(())
}
