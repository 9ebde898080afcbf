//! One damage matrix for every sealed on-disk format.
//!
//! The batch checkpoint, a shard artifact, the watch checkpoint and the
//! label artifact (through both its mmap and heap loaders) all wear the
//! `bgp_types::persist` envelope, so they must all refuse the same damage
//! with the same typed `LoadError`: every truncation length, a resealed
//! truncation at every payload offset, one trailing byte, a flipped bit
//! at every offset, and forged magic, version, length and checksum. A
//! damaged file is never accepted, and loading never panics. The segment
//! log every checkpoint's manifest commits (batch, shard artifact and
//! watch) has one matrix of its own: missing, cut short, bit-flipped,
//! swapped for another's, and trailing bytes, which still load. Frames
//! that pass the log checksum but break a rule of the slot layout are
//! refused one rule at a time.

use std::fs;
use std::path::{Path, PathBuf};

use bgp_artifact::{write_artifact_atomic, LabelArtifact, LabelRow};
use bgp_intent::checkpoint::log_path;
use bgp_intent::{
    fingerprint_file, validate_artifact, Checkpoint, CompletedFile, InferenceConfig,
    ShardFailureKind, ShardSpec, StatsAccumulator, WatchCheckpoint, WindowConfig,
    WindowedClassifier,
};
use bgp_relationships::SiblingMap;
use bgp_types::persist::{checksum, Format, LoadError, HEADER_LEN};
use bgp_types::{Asn, Community, Intent, Observation};

/// How a damaged file must be refused.
#[derive(Debug, Clone, Copy)]
enum Refusal {
    /// [`LoadError::Corrupt`], with a detail containing this text.
    Corrupt(&'static str),
    /// [`LoadError::Foreign`]: not this format's magic.
    Foreign,
    /// [`LoadError::Version`]: this format, another layout version.
    Version,
}

/// A loader under test, reduced to whether and how it refused.
type Loader<'a> = &'a dyn Fn(&Path) -> Result<(), LoadError>;

/// Hand every damaged copy of `sealed` to `check`, with the refusal the
/// loaders must answer it with.
fn for_each_damage(format: &Format, sealed: &[u8], mut check: impl FnMut(&str, &[u8], Refusal)) {
    use Refusal::{Corrupt, Foreign, Version};
    let payload = &sealed[HEADER_LEN..];
    let reseal = |payload: &[u8]| {
        let mut file = vec![0; HEADER_LEN];
        file.extend_from_slice(payload);
        format.seal(&mut file);
        file
    };
    for cut in 0..sealed.len() {
        check(
            &format!("truncated to {cut} bytes"),
            &sealed[..cut],
            Corrupt(""),
        );
    }
    // Resealed, a truncation gets past the envelope to the payload decoder.
    for cut in 0..payload.len() {
        check(
            &format!("payload resealed at {cut} bytes"),
            &reseal(&payload[..cut]),
            Corrupt(""),
        );
    }
    let mut long = sealed.to_vec();
    long.push(0);
    check("one trailing byte", &long, Corrupt("payload length"));
    check(
        "one trailing byte, resealed",
        &reseal(&long[HEADER_LEN..]),
        Corrupt(""),
    );
    for pos in 0..sealed.len() {
        let mut flipped = sealed.to_vec();
        flipped[pos] ^= 1 << (pos % 8);
        let refusal = match pos {
            0..=7 => Foreign,
            8..=11 => Version,
            _ => Corrupt(""),
        };
        check(
            &format!("bit {} of byte {pos} flipped", pos % 8),
            &flipped,
            refusal,
        );
    }
    let forge = |at: usize, field: &[u8]| {
        let mut forged = sealed.to_vec();
        forged[at..at + field.len()].copy_from_slice(field);
        forged
    };
    check("another format's magic", &forge(0, b"BGPOTHER"), Foreign);
    check(
        "a JSON manifest",
        b"{\n  \"checksum\": 1,\n  \"files\": [],\n  \"schema\": 2\n}\n",
        Foreign,
    );
    check(
        "next version",
        &forge(8, &(format.version + 1).to_le_bytes()),
        Version,
    );
    check(
        "previous version",
        &forge(8, &(format.version - 1).to_le_bytes()),
        Version,
    );
    check(
        "reserved word set",
        &forge(12, &[1, 0, 0, 0]),
        Corrupt("reserved"),
    );
    for len in [u64::MAX, payload.len() as u64 - 1, payload.len() as u64 + 1] {
        check(
            &format!("length {len}"),
            &forge(16, &len.to_le_bytes()),
            Corrupt("payload length"),
        );
    }
    let recorded = u64::from_le_bytes(sealed[24..32].try_into().unwrap());
    check(
        "checksum forged",
        &forge(24, &(!recorded).to_le_bytes()),
        Corrupt("payload checksum"),
    );
}

/// Run the whole matrix for one format: the sealed file loads through
/// every loader, each damaged copy written at `path` is refused by every
/// loader as [`for_each_damage`] says, and a missing file is a clean
/// not-found.
fn run_matrix(format: &Format, sealed: &[u8], path: &Path, loaders: &[Loader<'_>]) {
    fs::write(path, sealed).unwrap();
    for load in loaders {
        load(path).unwrap_or_else(|e| panic!("undamaged {}: {e}", format.name));
    }
    let mut cases = 0usize;
    for_each_damage(format, sealed, |case, damaged, refusal| {
        fs::write(path, damaged).unwrap();
        for load in loaders {
            match (load(path), refusal) {
                (Err(LoadError::Corrupt { detail, .. }), Refusal::Corrupt(what))
                    if detail.contains(what) => {}
                (Err(LoadError::Foreign { .. }), Refusal::Foreign) => {}
                (
                    Err(LoadError::Version {
                        found, expected, ..
                    }),
                    Refusal::Version,
                ) if found != expected && expected == format.version => {}
                (Err(e), _) => panic!("{}, {case}: expected {refusal:?}, got {e}", format.name),
                (Ok(()), _) => panic!("{}, {case}: the damaged file was accepted", format.name),
            }
        }
        cases += 1;
    });
    assert!(cases > 3 * (sealed.len() - HEADER_LEN), "{cases} cases");
    fs::remove_file(path).unwrap();
    for load in loaders {
        let err = load(path).expect_err("a missing file is refused");
        assert!(err.is_not_found() && !err.is_invalid_data(), "{err}");
    }
}

/// The segment log's damage matrix, beside the undamaged manifest at
/// `path`: the log missing, cut at every byte, every bit flipped, and
/// swapped for each of `others` (valid logs of other checkpoints, longer
/// and shorter) are each refused by every loader as a corrupt checkpoint
/// that names the log; bytes after the committed range are what an
/// interrupted append left, and the committed state loads.
fn run_log_matrix(path: &Path, others: &[Vec<u8>], loaders: &[Loader<'_>]) {
    let log_path = log_path(path);
    let log = fs::read(&log_path).unwrap();
    let refused = |case: &str, expect: &str| {
        for load in loaders {
            match load(path) {
                Err(LoadError::Corrupt {
                    path: named,
                    detail,
                    ..
                }) => {
                    assert!(
                        detail.contains(expect),
                        "{case}: expected {expect:?}, got {detail:?}"
                    );
                    assert_eq!(named, log_path, "{case}");
                }
                Err(e) => panic!("{case}: expected a corrupt log, got {e}"),
                Ok(()) => panic!("{case}: the damaged log was accepted"),
            }
        }
    };
    fs::remove_file(&log_path).unwrap();
    refused("missing log", "segment log missing");
    for cut in 0..log.len() {
        fs::write(&log_path, &log[..cut]).unwrap();
        refused(
            &format!("log cut to {cut} bytes"),
            &format!("{} bytes committed, {cut} present", log.len()),
        );
    }
    for pos in 0..log.len() {
        let mut flipped = log.clone();
        flipped[pos] ^= 1 << (pos % 8);
        fs::write(&log_path, &flipped).unwrap();
        refused(
            &format!("bit {} of log byte {pos} flipped", pos % 8),
            "segment log checksum",
        );
    }
    assert!(others.iter().any(|o| o.len() > log.len()));
    assert!(others.iter().any(|o| o.len() < log.len()));
    for other in others {
        fs::write(&log_path, other).unwrap();
        refused(
            &format!("another checkpoint's log ({} bytes)", other.len()),
            "segment log",
        );
    }
    fs::write(&log_path, [log.as_slice(), &[0xee; 5000]].concat()).unwrap();
    for load in loaders {
        load(path).expect("bytes past the committed range are ignored");
    }
    fs::write(&log_path, &log).unwrap();
}

/// The log of the batch checkpoint over `observations` of [`stream`],
/// each path made new by a leading hop: another run's valid log.
fn other_batch_log(dir: &Path, observations: usize) -> Vec<u8> {
    let mut acc = StatsAccumulator::new();
    acc.ingest_ordered(&renamed(observations), &SiblingMap::default());
    let mut cp = Checkpoint::new();
    cp.snapshot = acc.snapshot().clone();
    let path = dir.join("other.ckpt");
    let _ = fs::remove_file(&path);
    cp.save_atomic(&path).unwrap();
    fs::read(log_path(&path)).unwrap()
}

/// `observations` of [`stream`], cycled, each path behind a hop of its own.
fn renamed(observations: usize) -> Vec<Observation> {
    stream()
        .iter()
        .cycle()
        .take(observations)
        .enumerate()
        .map(|(i, o)| Observation {
            path: format!("{} {}", 800 + i, o.path).parse().unwrap(),
            ..o.clone()
        })
        .collect()
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bgp-formats-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn obs(vp: u32, path: &str, comms: &[(u16, u16)], time: u32) -> Observation {
    Observation {
        vp: Asn::new(vp),
        prefix: "10.0.0.0/24".parse().unwrap(),
        path: path.parse().unwrap(),
        communities: comms.iter().map(|&(a, b)| Community::new(a, b)).collect(),
        large_communities: Vec::new(),
        time,
    }
}

/// A few dozen observations over three 100-second windows, with on- and
/// off-path sightings for a handful of owners.
fn stream() -> Vec<Observation> {
    (0..24u32)
        .map(|i| {
            obs(
                900 + i % 3,
                &format!(
                    "{} {} {}",
                    900 + i % 3,
                    [100, 200, 300][i as usize % 3],
                    600 + i % 5
                ),
                &[(100, (i % 4) as u16), (200, 7)],
                i * 13,
            )
        })
        .collect()
}

/// A sealed checkpoint over `files`, with the statistics of [`stream`].
fn checkpoint(files: Vec<CompletedFile>) -> Checkpoint {
    let mut acc = StatsAccumulator::new();
    acc.ingest_ordered(&stream(), &SiblingMap::default());
    let mut cp = Checkpoint::new();
    cp.files = files;
    cp.report.records_read = 24;
    cp.report.bytes_read = 4096;
    cp.report.bytes_ok = 4096;
    cp.snapshot = acc.snapshot().clone();
    cp
}

#[test]
fn batch_checkpoint_refuses_every_damage() {
    let dir = workdir("batch");
    let path = dir.join("run.ckpt");
    let cp = checkpoint(vec![CompletedFile {
        path: "updates.00.mrt".into(),
        fingerprint: bgp_intent::FileFingerprint {
            bytes: 4096,
            hash: 0xdead_beef,
        },
    }]);
    cp.save_atomic(&path).unwrap();
    let sealed = fs::read(&path).unwrap();
    assert_eq!(Checkpoint::load(&path).unwrap(), cp);
    let load = |p: &Path| Checkpoint::load(p).map(|got| assert_eq!(got, cp));
    run_matrix(&Checkpoint::FORMAT, &sealed, &path, &[&load]);
    fs::write(&path, &sealed).unwrap();
    let others = [other_batch_log(&dir, 48), other_batch_log(&dir, 2)];
    run_log_matrix(&path, &others, &[&load]);
    let _ = fs::remove_dir_all(&dir);
}

/// A shard artifact is a checkpoint over the shard's real input files; it
/// also runs through the supervisor's trust boundary, which must call
/// every refusal a corrupt artifact carrying the load error's text.
#[test]
fn shard_artifact_refuses_every_damage() {
    let dir = workdir("shard");
    let files: Vec<String> = (0..3)
        .map(|i| {
            let input = dir.join(format!("updates.{i:02}.mrt"));
            fs::write(&input, format!("archive bytes {i}")).unwrap();
            input.to_string_lossy().into_owned()
        })
        .collect();
    let spec = ShardSpec {
        index: 1,
        files: files.clone(),
        artifact: dir.join("shard-001.ckpt"),
        heartbeat: dir.join("shard-001.hb"),
    };
    let cp = checkpoint(
        files
            .iter()
            .map(|f| CompletedFile {
                path: f.clone(),
                fingerprint: fingerprint_file(Path::new(f)).unwrap(),
            })
            .collect(),
    );
    cp.save_atomic(&spec.artifact).unwrap();
    assert_eq!(validate_artifact(&spec).unwrap(), cp);
    let sealed = fs::read(&spec.artifact).unwrap();
    let supervised = |p: &Path| {
        assert_eq!(p, spec.artifact);
        let loaded = Checkpoint::load(p).map(|got| assert_eq!(got, cp));
        match (&loaded, validate_artifact(&spec)) {
            (Ok(()), Ok(_)) => {}
            (Err(e), Err(ShardFailureKind::MissingArtifact)) if e.is_not_found() => {}
            (Err(e), Err(ShardFailureKind::CorruptArtifact(why))) => assert_eq!(why, e.to_string()),
            (loaded, validated) => panic!("load {loaded:?} but validation {validated:?}"),
        }
        loaded
    };
    run_matrix(&Checkpoint::FORMAT, &sealed, &spec.artifact, &[&supervised]);
    fs::write(&spec.artifact, &sealed).unwrap();
    let others = [other_batch_log(&dir, 48), other_batch_log(&dir, 2)];
    run_log_matrix(&spec.artifact, &others, &[&supervised]);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn watch_checkpoint_refuses_every_damage() {
    let dir = workdir("watch");
    let path = dir.join("watch.ckpt");
    let siblings = SiblingMap::default();
    let window = WindowConfig {
        window_secs: 100,
        windows: 2,
    };
    let mut wc = WindowedClassifier::new(window, InferenceConfig::default());
    for o in stream() {
        wc.observe(&o, &siblings);
    }
    wc.reclassify(&siblings);
    let cp = wc.checkpoint(4096, 24, 24);
    assert!(cp.buckets.len() == 2 && !cp.labels.is_empty());
    cp.save_atomic(&path).unwrap();
    let sealed = fs::read(&path).unwrap();
    assert_eq!(WatchCheckpoint::load(&path).unwrap(), cp);
    // The manifest's matrix, with its log in place beside it, then the
    // log's own, beside the undamaged manifest.
    let load = |p: &Path| WatchCheckpoint::load(p).map(|got| assert_eq!(got, cp));
    run_matrix(&WatchCheckpoint::FORMAT, &sealed, &path, &[&load]);
    fs::write(&path, &sealed).unwrap();
    let others: Vec<Vec<u8>> = [48, 6]
        .into_iter()
        .map(|observations| {
            let mut other = WindowedClassifier::new(window, InferenceConfig::default());
            for o in renamed(observations) {
                other.observe(&o, &siblings);
            }
            let other_path = dir.join("other.ckpt");
            let _ = fs::remove_file(&other_path);
            other.checkpoint(0, 0, 0).save_atomic(&other_path).unwrap();
            fs::read(WatchCheckpoint::log_path(&other_path)).unwrap()
        })
        .collect();
    run_log_matrix(&path, &others, &[&load]);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn label_artifact_refuses_every_damage_through_both_loaders() {
    let dir = workdir("artifact");
    let path = dir.join("labels.bga");
    let rows: Vec<LabelRow> = (0..24u16)
        .map(|i| LabelRow {
            community: Community::new(100 * (1 + i / 8), i),
            label: if i % 3 == 0 {
                Intent::Action
            } else {
                Intent::Information
            },
            confidence: 0.5 + f64::from(i) / 64.0,
            ratio: f64::from(i) * 7.25,
            on_paths: u64::from(i) * 3,
            off_paths: u64::from(i % 5),
        })
        .collect();
    write_artifact_atomic(&path, &rows).unwrap();
    let sealed = fs::read(&path).unwrap();
    for artifact in [
        LabelArtifact::load(&path).unwrap(),
        LabelArtifact::load_heap(&path).unwrap(),
    ] {
        assert_eq!(artifact.rows().collect::<Vec<_>>(), rows);
    }
    run_matrix(
        &LabelArtifact::FORMAT,
        &sealed,
        &path,
        &[&|p| LabelArtifact::load(p).map(drop), &|p| {
            LabelArtifact::load_heap(p).map(drop)
        }],
    );
    let _ = fs::remove_dir_all(&dir);
}

/// One hand-written segment-log frame: each path one AS_SEQUENCE segment
/// of the given ASNs, the communities new in the frame (`α << 16 | β`),
/// each list as slots, the tuples, and the owners with their families.
fn frame(
    paths: &[&[u32]],
    communities: &[u32],
    lists: &[&[u32]],
    tuples: &[u64],
    owners: &[(u32, &[u32])],
) -> Vec<u8> {
    fn column<const N: usize>(out: &mut Vec<u8>, items: impl ExactSizeIterator<Item = [u8; N]>) {
        out.extend_from_slice(&(items.len() as u64).to_le_bytes());
        for item in items {
            out.extend_from_slice(&item);
        }
    }
    fn ends<T>(runs: &[&[T]]) -> Vec<u32> {
        runs.iter()
            .scan(0, |end, run| {
                *end += run.len() as u32;
                Some(*end)
            })
            .collect()
    }
    let words = |v: Vec<u32>| {
        v.into_iter()
            .map(u32::to_le_bytes)
            .collect::<Vec<_>>()
            .into_iter()
    };
    let mut out = Vec::new();
    column(&mut out, words((1..=paths.len() as u32).collect()));
    column(&mut out, paths.iter().map(|_| [2u8]));
    column(
        &mut out,
        words(paths.iter().map(|p| p.len() as u32).collect()),
    );
    column(&mut out, words(paths.concat()));
    column(&mut out, words(communities.to_vec()));
    column(&mut out, words(ends(lists)));
    column(&mut out, words(lists.concat()));
    column(&mut out, tuples.iter().map(|t| t.to_le_bytes()));
    column(&mut out, words(owners.iter().map(|&(o, _)| o).collect()));
    let families: Vec<&[u32]> = owners.iter().map(|&(_, f)| f).collect();
    column(&mut out, words(ends(&families)));
    column(&mut out, words(families.concat()));
    out
}

/// Every rule of the slot layout a frame can break behind a valid log
/// checksum is refused by name, as a corrupt checkpoint naming the log: a
/// community that repeats one in its frame or in an earlier frame, a slot
/// past the communities, and new slots the lists do not first use in slot
/// order, an unused one included. The same frames with the rule kept load.
#[test]
fn segment_log_frames_refuse_each_slot_rule() {
    let dir = workdir("slot-rules");
    let path = dir.join("run.ckpt");
    checkpoint(Vec::new()).save_atomic(&path).unwrap();
    let manifest = fs::read(&path).unwrap();
    let (c7, c8) = (100 << 16 | 7, 100 << 16 | 8);
    let family: &[(u32, &[u32])] = &[(100, &[100])];
    // Commit `frames` as the log, the manifest's last seven words (the
    // log's range, checksum and counts) rewritten and resealed.
    let load = |frames: &[Vec<u8>], lists: u64, tuples: u64| {
        let log = frames.concat();
        let mut sealed = manifest.clone();
        let at = sealed.len() - 7 * 8;
        let words = [0, log.len() as u64, checksum(&log), 1, lists, tuples, 1];
        for (i, word) in words.iter().enumerate() {
            sealed[at + 8 * i..at + 8 * i + 8].copy_from_slice(&word.to_le_bytes());
        }
        Checkpoint::FORMAT.seal(&mut sealed);
        fs::write(&path, &sealed).unwrap();
        fs::write(log_path(&path), &log).unwrap();
        Checkpoint::load(&path)
    };
    let first = frame(&[&[1, 100]], &[c7], &[&[0]], &[0], family);
    let whole = frame(&[&[1, 100]], &[c7, c8], &[&[0], &[1, 0]], &[0, 1], family);
    let split = [first.clone(), frame(&[], &[c8], &[&[1, 0]], &[1], &[])];
    for frames in [vec![whole], split.to_vec()] {
        let stats = load(&frames, 2, 2)
            .expect("frames keeping every rule load")
            .snapshot
            .to_stats();
        assert_eq!((stats.unique_tuples, stats.community_count()), (2, 2));
    }
    for (frames, lists, expect) in [
        (
            vec![frame(&[&[1, 100]], &[c7, c7], &[&[0]], &[0], family)],
            1,
            "community 100:7 repeats an earlier community",
        ),
        (
            vec![first.clone(), frame(&[], &[c7], &[&[0, 1]], &[1], &[])],
            2,
            "community 100:7 repeats an earlier community",
        ),
        (
            vec![frame(&[&[1, 100]], &[c7], &[&[0, 1]], &[0], family)],
            1,
            "community list 0 names slot 1, of 1",
        ),
        (
            vec![frame(&[&[1, 100]], &[c7, c8], &[&[1, 0]], &[0], family)],
            1,
            "community list 0 uses slot 1 before slot 0",
        ),
        (
            vec![first.clone(), frame(&[], &[c8], &[&[0, 0]], &[1], &[])],
            2,
            "community slot 1 is in no new list",
        ),
    ] {
        match load(&frames, lists, lists) {
            Err(LoadError::Corrupt {
                path: named,
                detail,
                ..
            }) => {
                assert!(
                    detail.contains(expect),
                    "expected {expect:?}, got {detail:?}"
                );
                assert_eq!(named, log_path(&path));
            }
            other => panic!("expected {expect:?}, got {other:?}"),
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Commit `frames` as the log of a batch checkpoint at `path` (its range,
/// checksum and counts rewritten in a sealed manifest) and load it: the
/// refusal's detail, which must name the log.
fn refusal_of_frames(path: &Path, frames: &[Vec<u8>]) -> String {
    checkpoint(Vec::new()).save_atomic(path).unwrap();
    let log = frames.concat();
    let mut sealed = fs::read(path).unwrap();
    let at = sealed.len() - 7 * 8;
    let words = [0, log.len() as u64, checksum(&log), 1, 1, 1, 1];
    for (i, word) in words.iter().enumerate() {
        sealed[at + 8 * i..at + 8 * i + 8].copy_from_slice(&word.to_le_bytes());
    }
    Checkpoint::FORMAT.seal(&mut sealed);
    fs::write(path, &sealed).unwrap();
    fs::write(log_path(path), &log).unwrap();
    match Checkpoint::load(path) {
        Err(LoadError::Corrupt {
            path: named,
            detail,
            ..
        }) => {
            assert_eq!(named, log_path(path));
            detail
        }
        other => panic!("expected a corrupt log, got {other:?}"),
    }
}

/// A frame with defects in two of its tables reports the one the frame's
/// tables are checked in first: paths, then communities and lists, then
/// tuples, then owner families.
#[test]
fn a_frame_with_two_defects_reports_the_first_table_s() {
    let dir = workdir("two-defects");
    let path = dir.join("run.ckpt");
    let (c7, c8) = (100 << 16 | 7, 100 << 16 | 8);
    let family: &[(u32, &[u32])] = &[(100, &[100])];
    for (frame, expect) in [
        (
            frame(&[&[1, 100], &[1, 100]], &[c7, c7], &[&[0]], &[0], family),
            "segment log: path 1 repeats an earlier path",
        ),
        (
            frame(&[&[1, 100]], &[c7, c7], &[&[0]], &[0, 0], family),
            "segment log: community 100:7 repeats an earlier community",
        ),
        (
            frame(&[&[1, 100]], &[c7, c8], &[&[1, 0]], &[5 << 32], family),
            "segment log: community list 0 uses slot 1 before slot 0",
        ),
        (
            frame(&[&[1, 100]], &[c7], &[&[0]], &[0, 0], &[]),
            "segment log: tuple 1 repeats an earlier tuple",
        ),
        (
            frame(
                &[&[1, 100]],
                &[c7],
                &[&[0]],
                &[1 << 32],
                &[(100, &[100]), (7, &[7])],
            ),
            "segment log: tuple 0 names path 1 and list 0, of 1 and 1",
        ),
        (
            frame(
                &[&[1, 100], &[2, 100], &[2, 100], &[1, 100]],
                &[c7, c8],
                &[&[0], &[1], &[1], &[0]],
                &[0, 0],
                family,
            ),
            "segment log: path 2 repeats an earlier path",
        ),
        (
            frame(
                &[&[1, 100]],
                &[c7, c8],
                &[&[0], &[1], &[1], &[0]],
                &[0, 0],
                family,
            ),
            "segment log: community list 2 repeats an earlier list",
        ),
    ] {
        assert_eq!(refusal_of_frames(&path, &[frame]), expect);
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Defects in two frames report the earlier frame's, even where the later
/// frame's defect is in a table its frame checks first, or in the frame's
/// columns themselves.
#[test]
fn defects_in_two_frames_report_the_earlier_frame_s() {
    let dir = workdir("two-frames");
    let path = dir.join("run.ckpt");
    let (c7, c8) = (100 << 16 | 7, 100 << 16 | 8);
    let family: &[(u32, &[u32])] = &[(100, &[100])];
    let mut unreadable = u64::MAX.to_le_bytes().to_vec();
    unreadable.extend_from_slice(&[0; 12]);
    for (frames, expect) in [
        (
            vec![
                frame(&[&[1, 100]], &[c7], &[&[0]], &[0, 0], family),
                frame(&[&[1, 100]], &[], &[], &[], &[]),
            ],
            "segment log: tuple 1 repeats an earlier tuple",
        ),
        (
            vec![
                frame(&[&[1, 100]], &[c7], &[&[0]], &[0], &[]),
                frame(&[&[2, 100]], &[c7], &[&[0]], &[1 << 32], &[]),
            ],
            "segment log: community 100:7 has no owner family",
        ),
        (
            vec![
                frame(&[&[1, 100]], &[c7, c8], &[&[1, 0]], &[0], family),
                frame(&[&[1, 100]], &[], &[], &[], &[]),
            ],
            "segment log: community list 0 uses slot 1 before slot 0",
        ),
        (
            vec![
                frame(&[&[1, 100]], &[c7], &[&[0]], &[0, 0], family),
                unreadable.clone(),
            ],
            "segment log: tuple 1 repeats an earlier tuple",
        ),
        (
            vec![frame(&[&[1, 100]], &[c7], &[&[0]], &[0], family), unreadable],
            "segment log: path ends: 18446744073709551615 elements of 4 bytes exceed the 12 bytes left",
        ),
    ] {
        assert_eq!(refusal_of_frames(&path, &frames), expect);
    }
    let _ = fs::remove_dir_all(&dir);
}
