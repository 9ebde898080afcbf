//! Property-based tests: invariants of clustering, statistics, and
//! classification.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use bgp_artifact::{write_artifact_atomic, LabelArtifact, LabelRow};
use bgp_intent::checkpoint::log_path;
use bgp_intent::classify::{classify, InferenceConfig};
use bgp_intent::cluster::gap_clusters;
use bgp_intent::stats::{reference_stats, PathCounts, PathStats};
use bgp_intent::watch::{PathStatsSnapshot, WindowedStatsSnapshot};
use bgp_intent::{
    label_rows, Checkpoint, CheckpointSaver, CompletedFile, FileFingerprint, FileSegment,
    StatsAccumulator, WatchCheckpoint, WindowConfig, WindowedClassifier,
};
use bgp_relationships::SiblingMap;
use bgp_types::persist::{checksum, Format, LoadError, HEADER_LEN};
use bgp_types::store::ObservationStore;
use bgp_types::{AsPath, Asn, Community, Intent, Observation, ObservationSink, PathSegment};

fn arb_betas() -> impl Strategy<Value = Vec<u16>> {
    prop::collection::btree_set(any::<u16>(), 0..80).prop_map(|s| s.into_iter().collect())
}

fn arb_observations() -> impl Strategy<Value = Vec<Observation>> {
    prop::collection::vec(
        (
            1u32..50,                               // vp
            prop::collection::vec(2u32..200, 1..5), // path tail
            prop::collection::vec((1u16..300, any::<u16>()), 0..6),
        ),
        0..40,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .map(|(vp, tail, comms)| {
                let mut communities: Vec<Community> = comms
                    .into_iter()
                    .map(|(a, b)| Community::new(a, b))
                    .collect();
                communities.sort_unstable();
                communities.dedup();
                Observation {
                    vp: Asn::new(vp),
                    prefix: "10.0.0.0/24".parse().unwrap(),
                    path: AsPath::from_sequence(std::iter::once(vp).chain(tail).map(Asn::new)),
                    communities,
                    large_communities: Vec::new(),
                    time: 0,
                }
            })
            .collect()
    })
}

/// Disjoint sibling organizations over the same small ASN range the messy
/// observations draw from, so on-path decisions routinely go through a
/// sibling rather than the owner itself.
fn arb_siblings() -> impl Strategy<Value = SiblingMap> {
    prop::collection::btree_set(1u32..40, 0..12).prop_map(|asns| {
        let asns: Vec<u32> = asns.into_iter().collect();
        SiblingMap::from_orgs(
            asns.chunks(3)
                .map(|org| org.iter().map(|&a| Asn::new(a)).collect::<Vec<_>>()),
        )
    })
}

/// Observations exercising everything the interned kernel must get right:
/// duplicate rows, prepended hops, `AS_SET` segments, and community lists
/// that recur across rows in different orders (distinct store identities).
fn arb_messy_observations() -> impl Strategy<Value = Vec<Observation>> {
    let segment = (any::<bool>(), prop::collection::vec(1u32..40, 1..4));
    let row = (
        1u32..40,                                         // vp / head ASN
        0usize..3,                                        // head prepend count
        prop::collection::vec(segment, 0..3),             // tail, sets included
        prop::collection::vec((1u16..40, 0u16..6), 0..6), // communities, unsorted
    );
    prop::collection::vec(row, 0..40).prop_map(|rows| {
        rows.into_iter()
            .map(|(vp, prepend, tail, comms)| {
                let mut segments = vec![PathSegment::Sequence(vec![Asn::new(vp); 1 + prepend])];
                segments.extend(tail.into_iter().map(|(set, members)| {
                    let members: Vec<Asn> = members.into_iter().map(Asn::new).collect();
                    if set {
                        PathSegment::Set(members)
                    } else {
                        PathSegment::Sequence(members)
                    }
                }));
                Observation {
                    vp: Asn::new(vp),
                    prefix: "10.0.0.0/24".parse().unwrap(),
                    path: AsPath::from_segments(segments),
                    communities: comms
                        .into_iter()
                        .map(|(a, b)| Community::new(a, b))
                        .collect(),
                    large_communities: Vec::new(),
                    time: 0,
                }
            })
            .collect()
    })
}

/// Observations over a few paths whose community lists are drawn from a
/// handful of base lists over 15 communities: empty lists, a list with a
/// community repeated, the same communities in another order, and lists
/// sharing communities, so one list's communities recur in many others.
fn arb_list_observations() -> impl Strategy<Value = Vec<Observation>> {
    let base = prop::collection::vec((1u16..4, 0u16..5), 0..5);
    let row = (1u32..6, 1u32..4, 0usize..8, 0u8..4);
    (
        prop::collection::vec(base, 1..8),
        prop::collection::vec(row, 0..40),
    )
        .prop_map(|(bases, rows)| {
            rows.into_iter()
                .map(|(vp, hop, pick, shape)| {
                    let mut communities: Vec<Community> = bases[pick % bases.len()]
                        .iter()
                        .map(|&(a, b)| Community::new(a, b))
                        .collect();
                    match shape {
                        1 => communities.reverse(),
                        2 => communities.extend(communities.first().copied()),
                        3 if !communities.is_empty() => communities.rotate_left(1),
                        _ => {}
                    }
                    Observation {
                        vp: Asn::new(vp),
                        prefix: "10.0.0.0/24".parse().unwrap(),
                        path: AsPath::from_sequence([vp, hop, 7].map(Asn::new)),
                        communities,
                        large_communities: Vec::new(),
                        time: 0,
                    }
                })
                .collect()
        })
}

/// A loaded value, reduced to whether loading refused it.
type Loaded = Result<(), LoadError>;

/// One sealed file, its format, and a check that loads a (damaged) copy.
type SealedFile = (Format, Vec<u8>, Box<dyn Fn(&Path) -> Loaded>);

/// Load `path` as `T`; a value that loads must save (to `again`) and
/// reload unchanged.
fn reload_unchanged<T: PartialEq + std::fmt::Debug>(
    path: &Path,
    again: &Path,
    load: impl Fn(&Path) -> Result<T, LoadError>,
    save: impl Fn(&T, &Path),
) -> Loaded {
    let value = load(path)?;
    save(&value, again);
    assert_eq!(load(again).expect("a saved value reloads"), value);
    Ok(())
}

/// Artifact rows with their floats as bits, so NaN compares equal to
/// itself.
fn row_bits(rows: impl Iterator<Item = LabelRow>) -> Vec<(Community, Intent, u64, u64, u64, u64)> {
    rows.map(|r| {
        let bits = (r.confidence.to_bits(), r.ratio.to_bits());
        (
            r.community,
            r.label,
            bits.0,
            bits.1,
            r.on_paths,
            r.off_paths,
        )
    })
    .collect()
}

/// One sealed file of each format holding `observations`.
fn sealed_files(observations: &[Observation], dir: &Path) -> Vec<SealedFile> {
    let siblings = SiblingMap::default();
    let again = dir.join("again");
    let mut files: Vec<SealedFile> = Vec::new();

    let mut acc = StatsAccumulator::new();
    acc.ingest_ordered(observations, &siblings);
    let mut cp = Checkpoint::new();
    cp.files.push(CompletedFile {
        path: "updates.00.mrt".into(),
        fingerprint: FileFingerprint {
            bytes: 4096,
            hash: 0x5eed,
        },
    });
    cp.report.records_read = observations.len() as u64;
    cp.snapshot = acc.snapshot().clone();
    let path = dir.join("run.ckpt");
    cp.save_atomic(&path).unwrap();
    let manifest = fs::read(&path).unwrap();
    let batch_log = log_path(&path);
    let again_cp = again.clone();
    files.push((
        Checkpoint::FORMAT,
        manifest.clone(),
        Box::new(move |p| {
            // Each edited manifest loads beside its real log.
            fs::copy(&batch_log, log_path(p)).unwrap();
            reload_unchanged(p, &again_cp, Checkpoint::load, |cp, to| {
                cp.save_atomic(to).unwrap()
            })
        }),
    ));
    // The log, carried as the payload of a stand-in envelope so the edits
    // land on its frames; the check puts it beside the manifest with the
    // log checksum recomputed (the third of the manifest's last seven
    // words), so every edit reaches the frame decoder.
    let log = fs::read(log_path(&path)).unwrap();
    let carrier = Format {
        magic: *b"BGPBSEGL",
        version: 1,
        name: "batch segment log",
    };
    let mut carried = vec![0; HEADER_LEN];
    carried.extend_from_slice(&log);
    carrier.seal(&mut carried);
    let resealed = dir.join("resealed-run.ckpt");
    let again_log = again.clone();
    files.push((
        carrier,
        carried,
        Box::new(move |p| {
            let edited = fs::read(p).unwrap()[HEADER_LEN..].to_vec();
            let mut manifest = manifest.clone();
            let at = manifest.len() - 5 * 8;
            manifest[at..at + 8].copy_from_slice(&checksum(&edited).to_le_bytes());
            Checkpoint::FORMAT.seal(&mut manifest);
            fs::write(&resealed, &manifest).unwrap();
            fs::write(log_path(&resealed), &edited).unwrap();
            reload_unchanged(&resealed, &again_log, Checkpoint::load, |cp, to| {
                cp.save_atomic(to).unwrap()
            })
        }),
    ));

    let window = WindowConfig {
        window_secs: 100,
        windows: 2,
    };
    let mut wc = WindowedClassifier::new(window, InferenceConfig::default());
    for (i, o) in observations.iter().enumerate() {
        let o = Observation {
            time: i as u32 * 37,
            ..o.clone()
        };
        wc.observe(&o, &siblings);
    }
    wc.reclassify(&siblings);
    let watch = wc.checkpoint(512, 9, 9);
    let path = dir.join("watch.ckpt");
    watch.save_atomic(&path).unwrap();
    let manifest = fs::read(&path).unwrap();
    let log_path = WatchCheckpoint::log_path(&path);
    let log = fs::read(&log_path).unwrap();
    let again_watch = again.clone();
    files.push((
        WatchCheckpoint::FORMAT,
        manifest.clone(),
        Box::new(move |p| {
            // Each edited manifest loads beside its real log.
            fs::copy(&log_path, WatchCheckpoint::log_path(p)).unwrap();
            reload_unchanged(p, &again_watch, WatchCheckpoint::load, |cp, to| {
                cp.save_atomic(to).unwrap()
            })
        }),
    ));
    // The log, carried as the payload of a stand-in envelope so the edits
    // land on its frames; the check puts it beside the manifest with the
    // log checksum recomputed (after the nine scalars and the log's start
    // and end), so every edit reaches the frame decoder.
    const LOG_CHECKSUM: usize = HEADER_LEN + 11 * 8;
    let carrier = Format {
        magic: *b"BGPWSEGL",
        version: 1,
        name: "segment log",
    };
    let mut carried = vec![0; HEADER_LEN];
    carried.extend_from_slice(&log);
    carrier.seal(&mut carried);
    let resealed = dir.join("resealed.ckpt");
    let again_log = again.clone();
    files.push((
        carrier,
        carried,
        Box::new(move |p| {
            let edited = fs::read(p).unwrap()[HEADER_LEN..].to_vec();
            let mut manifest = manifest.clone();
            manifest[LOG_CHECKSUM..LOG_CHECKSUM + 8]
                .copy_from_slice(&checksum(&edited).to_le_bytes());
            WatchCheckpoint::FORMAT.seal(&mut manifest);
            fs::write(&resealed, &manifest).unwrap();
            fs::write(WatchCheckpoint::log_path(&resealed), &edited).unwrap();
            reload_unchanged(&resealed, &again_log, WatchCheckpoint::load, |cp, to| {
                cp.save_atomic(to).unwrap()
            })
        }),
    ));

    let rows = label_rows(
        &classify(&acc.to_stats(), &siblings, &InferenceConfig::default()),
        160.0,
    );
    if !rows.is_empty() {
        let path = dir.join("labels.bga");
        write_artifact_atomic(&path, &rows).unwrap();
        files.push((
            LabelArtifact::FORMAT,
            fs::read(&path).unwrap(),
            Box::new(move |p| {
                for load in [LabelArtifact::load, LabelArtifact::load_heap] {
                    let rows: Vec<LabelRow> = load(p)?.rows().collect();
                    write_artifact_atomic(&again, &rows).unwrap();
                    let reloaded = load(&again).expect("a saved artifact reloads");
                    assert_eq!(row_bits(reloaded.rows()), row_bits(rows.into_iter()));
                }
                Ok(())
            }),
        ));
    }
    // Undamaged, every file loads through its check: an edit that is
    // refused is refused for the edit.
    let intact = dir.join("intact");
    for (format, sealed, check) in &files {
        fs::write(&intact, sealed).unwrap();
        check(&intact).unwrap_or_else(|e| panic!("undamaged {}: {e}", format.name));
    }
    files
}

/// A fresh directory for one case of the property `test`: unique to the
/// test, the case and the process, so no two cases share files.
fn scratch_dir(test: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "bgp-proptest-{test}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Messy observations ([`arb_messy_observations`]) plus repeats of some of
/// them, every one stamped with a time over seven 100-second windows in
/// no particular order.
fn arb_timed_observations() -> impl Strategy<Value = Vec<Observation>> {
    (
        arb_messy_observations(),
        prop::collection::vec(any::<u16>(), 0..12),
        prop::collection::vec(0u32..700, 52),
    )
        .prop_map(|(mut observations, repeats, times)| {
            if !observations.is_empty() {
                for r in repeats {
                    let again = observations[usize::from(r) % observations.len()].clone();
                    observations.push(again);
                }
            }
            for (o, t) in observations.iter_mut().zip(times) {
                o.time = t;
            }
            observations
        })
}

/// The window's retention rules, kept apart from the classifier: the head
/// is the newest bucket seen, a bucket more than `windows - 1` behind the
/// head is gone, and an observation for a gone bucket is a late drop.
struct WindowModel {
    window: WindowConfig,
    head: Option<u64>,
    retained: Vec<(u64, Observation)>,
    late_drops: u64,
}

impl WindowModel {
    fn observe(&mut self, o: &Observation) {
        let bucket = u64::from(o.time) / u64::from(self.window.window_secs);
        let head = self.head.map_or(bucket, |h| h.max(bucket));
        self.head = Some(head);
        let floor = (head + 1).saturating_sub(self.window.windows as u64);
        self.retained.retain(|&(b, _)| b >= floor);
        if bucket >= floor {
            self.retained.push((bucket, o.clone()));
        } else {
            self.late_drops += 1;
        }
    }

    fn retained(&self) -> Vec<Observation> {
        self.retained.iter().map(|(_, o)| o.clone()).collect()
    }
}

/// `stats`, the statistics of `observations`, in the form a watch
/// checkpoint keeps the window's counts in: with, per ASN, the number of
/// unique paths among `observations` that carry it.
fn kept_counts_of(stats: &PathStats, observations: &[Observation]) -> WindowedStatsSnapshot {
    let mut counts: Vec<(u32, u32, u32)> = stats
        .per_community
        .iter()
        .map(|(c, pc)| (c.to_u32(), pc.on, pc.off))
        .collect();
    counts.sort_unstable();
    let paths: HashSet<&AsPath> = observations.iter().map(|o| &o.path).collect();
    let mut asn_paths: BTreeMap<u32, u32> = BTreeMap::new();
    for path in paths {
        let members: BTreeSet<u32> = path.iter().map(|a| a.value()).collect();
        for asn in members {
            *asn_paths.entry(asn).or_default() += 1;
        }
    }
    WindowedStatsSnapshot {
        stats: PathStatsSnapshot {
            counts,
            seen_asns: asn_paths.keys().copied().collect(),
            unique_tuples: stats.unique_tuples as u64,
            unique_paths: stats.unique_paths as u64,
        },
        asn_paths: asn_paths.into_values().collect(),
    }
}

proptest! {
    #[test]
    fn clusters_partition_the_input(betas in arb_betas(), gap in 0u16..2000) {
        let clusters = gap_clusters(7, &betas, gap);
        let flattened: Vec<u16> =
            clusters.iter().flat_map(|c| c.betas.iter().copied()).collect();
        prop_assert_eq!(flattened, betas);
    }

    #[test]
    fn cluster_boundaries_respect_gap(betas in arb_betas(), gap in 0u16..2000) {
        let clusters = gap_clusters(7, &betas, gap);
        for c in &clusters {
            for w in c.betas.windows(2) {
                prop_assert!(w[1] - w[0] <= gap, "intra-cluster gap exceeds {gap}");
            }
        }
        for w in clusters.windows(2) {
            let last = *w[0].betas.last().unwrap();
            let first = w[1].betas[0];
            prop_assert!(first - last > gap, "adjacent clusters closer than {gap}");
        }
    }

    #[test]
    fn larger_gap_never_more_clusters(betas in arb_betas(), g1 in 0u16..1000, g2 in 0u16..1000) {
        let (small, large) = if g1 <= g2 { (g1, g2) } else { (g2, g1) };
        let a = gap_clusters(7, &betas, small).len();
        let b = gap_clusters(7, &betas, large).len();
        prop_assert!(b <= a, "gap {large} made {b} clusters > gap {small}'s {a}");
    }

    #[test]
    fn stats_counts_are_bounded_by_unique_paths(observations in arb_observations()) {
        let stats = PathStats::from_observations(&observations, &SiblingMap::default());
        for counts in stats.per_community.values() {
            prop_assert!((counts.on as usize) <= stats.unique_paths);
            prop_assert!((counts.off as usize) <= stats.unique_paths);
            prop_assert!((counts.on + counts.off) as usize <= stats.unique_paths);
        }
        prop_assert!(stats.unique_paths <= observations.len().max(1));
    }

    #[test]
    fn every_observed_community_is_labeled_or_excluded(observations in arb_observations()) {
        let siblings = SiblingMap::default();
        let stats = PathStats::from_observations(&observations, &siblings);
        let inference = classify(&stats, &siblings, &InferenceConfig::default());
        for c in stats.per_community.keys() {
            let labeled = inference.labels.contains_key(c);
            let excluded = inference.excluded.contains_key(c);
            prop_assert!(labeled ^ excluded, "{c} labeled={labeled} excluded={excluded}");
        }
        prop_assert_eq!(
            inference.labels.len() + inference.excluded.len(),
            stats.community_count()
        );
    }

    #[test]
    fn cluster_labels_agree_with_community_labels(observations in arb_observations()) {
        let siblings = SiblingMap::default();
        let stats = PathStats::from_observations(&observations, &siblings);
        let inference = classify(&stats, &siblings, &InferenceConfig::default());
        for lc in &inference.clusters {
            for &beta in &lc.cluster.betas {
                let c = Community::new(lc.cluster.asn, beta);
                prop_assert_eq!(inference.labels.get(&c), Some(&lc.label));
            }
        }
    }

    #[test]
    fn gap_zero_yields_singleton_clusters(observations in arb_observations()) {
        let siblings = SiblingMap::default();
        let stats = PathStats::from_observations(&observations, &siblings);
        let cfg = InferenceConfig { min_gap: 0, ..InferenceConfig::default() };
        let inference = classify(&stats, &siblings, &cfg);
        for lc in &inference.clusters {
            prop_assert_eq!(lc.cluster.betas.len(), 1);
        }
    }

    #[test]
    fn ratio_is_finite_and_nonnegative(on in any::<u32>(), off in any::<u32>()) {
        let r = PathCounts { on, off }.ratio();
        prop_assert!(r.is_finite());
        prop_assert!(r >= 0.0);
    }

    #[test]
    fn kernel_matches_reference_on_messy_inputs(
        observations in arb_messy_observations(),
        siblings in arb_siblings(),
    ) {
        let kernel = PathStats::from_observations(&observations, &siblings);
        let reference = reference_stats(&observations, &siblings);
        prop_assert_eq!(kernel, reference);
    }

    #[test]
    fn kernel_identical_at_any_thread_count(
        observations in arb_messy_observations(),
        siblings in arb_siblings(),
    ) {
        let store = ObservationStore::from_observations(&observations);
        let mut segment = StatsAccumulator::new();
        segment.ingest_ordered(&observations, &siblings);
        let base = PathStats::from_observations(&observations, &siblings);
        for threads in [1usize, 2, 8] {
            prop_assert_eq!(
                &PathStats::from_store_threaded(&store, &siblings, threads),
                &base
            );
            prop_assert_eq!(&segment.to_stats_threaded(threads), &base);
        }
    }

    #[test]
    fn checkpointed_store_ingest_is_deterministic_and_resumable(
        observations in arb_messy_observations(),
        siblings in arb_siblings(),
    ) {
        // Reference run: the slice fold, one "file" (chunk) at a time.
        let chunk = observations.len().div_ceil(3).max(1);
        let mut expected = StatsAccumulator::new();
        for file in observations.chunks(chunk) {
            expected.ingest_ordered(file, &siblings);
        }

        for threads in [1usize, 2, 8] {
            let mut acc = StatsAccumulator::new();
            let mut resumed: Option<StatsAccumulator> = None;
            for (i, file) in observations.chunks(chunk).enumerate() {
                let store = ObservationStore::from_observations(file);
                acc.ingest_store(&store, &siblings, threads);
                if i == 0 {
                    // Simulate a crash right after the first checkpoint:
                    // restart from its snapshot and replay the other files.
                    resumed = Some(StatsAccumulator::from_snapshot(acc.snapshot()));
                } else if let Some(r) = resumed.as_mut() {
                    r.ingest_store(&store, &siblings, threads);
                }
            }
            prop_assert_eq!(&acc, &expected);
            prop_assert_eq!(acc.to_stats(), expected.to_stats());
            if let Some(r) = resumed {
                prop_assert_eq!(&r, &expected);
            }
        }
    }

    /// A valid checksum hides the structural checks from plain bit flips:
    /// here random payload bytes change and the envelope is resealed, so
    /// every edit reaches the payload decoder. Each loader must refuse with
    /// a typed error or return a value that saves and reloads unchanged.
    #[test]
    fn resealed_payload_edits_are_refused_or_roundtrip(
        observations in arb_observations(),
        edits in prop::collection::vec((any::<u64>(), any::<u8>()), 1..6),
    ) {
        let dir = scratch_dir("resealed-edits");
        let damaged_path = dir.join("damaged");
        for (format, sealed, check) in sealed_files(&observations, &dir) {
            let mut damaged = sealed.clone();
            let payload_len = (damaged.len() - HEADER_LEN) as u64;
            for &(at, byte) in &edits {
                damaged[HEADER_LEN + (at % payload_len) as usize] = byte;
            }
            format.seal(&mut damaged);
            fs::write(&damaged_path, &damaged).unwrap();
            if let Err(e) = check(&damaged_path) {
                prop_assert!(
                    matches!(e, LoadError::Corrupt { .. }),
                    "{}: a resealed edit must be a corrupt payload, got {e}",
                    format.name
                );
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Every route to a count against one oracle, `reference_stats`:
    /// segments built per file (from slices, from stores, or as the
    /// decoder's file segments the CLI merges), merged in random order and
    /// resumed through the checkpoint file at a random point, then reduced
    /// at several thread counts; and the streaming window after every fold
    /// and across a resume through its checkpoint file, against the
    /// observations its retention rules keep (tracked by [`WindowModel`]):
    /// its windowed statistics after every fold, and the counts it keeps
    /// for its diff base after every advance and at the chosen
    /// `reclassify_at` points.
    #[test]
    fn every_route_to_a_count_matches_the_reference(
        observations in arb_timed_observations(),
        siblings in arb_siblings(),
        splits in prop::collection::vec(any::<u16>(), 0..4),
        route in prop::collection::vec(0u8..3, 5),
        order in prop::collection::vec(any::<u32>(), 5),
        cut in any::<u16>(),
        reclassify_at in prop::collection::btree_set(0usize..52, 0..8),
    ) {
        /// One file's share of the count.
        enum Part {
            Segment(StatsAccumulator),
            File(Box<FileSegment>),
        }

        let dir = scratch_dir("routes");
        let expected = reference_stats(&observations, &siblings);

        let mut ends: Vec<usize> = splits
            .iter()
            .map(|&s| usize::from(s) % (observations.len() + 1))
            .chain([observations.len()])
            .collect();
        ends.sort_unstable();
        let mut start = 0;
        let mut parts = Vec::new();
        for (i, &end) in ends.iter().enumerate() {
            let file = &observations[start..end];
            start = end;
            let mut segment = StatsAccumulator::new();
            let part = match route[i] {
                0 => {
                    segment.ingest_ordered(file, &siblings);
                    Part::Segment(segment)
                }
                1 => {
                    let store = ObservationStore::from_observations(file);
                    segment.ingest_store(&store, &siblings, 1 + i % 2);
                    Part::Segment(segment)
                }
                _ => {
                    // Owned observations fold through the sink as views.
                    let mut part = FileSegment::default();
                    for o in file {
                        part.push_observation(o.clone());
                    }
                    prop_assert_eq!(part.observation_count(), file.len());
                    Part::File(Box::new(part))
                }
            };
            parts.push((order[i], part));
        }
        parts.sort_by_key(|&(rank, _)| rank);
        let resume_at = usize::from(cut) % (parts.len() + 1);
        let path = dir.join("run.ckpt");
        let mut merged = StatsAccumulator::new();
        for (k, (_, part)) in parts.into_iter().enumerate() {
            if k == resume_at {
                let mut cp = Checkpoint::new();
                cp.snapshot = merged.snapshot().clone();
                cp.save_atomic(&path).unwrap();
                merged = StatsAccumulator::from_snapshot(&Checkpoint::load(&path).unwrap().snapshot);
            }
            match part {
                Part::Segment(segment) => merged.merge(segment),
                Part::File(file) => merged.merge_file(*file, &siblings),
            }
        }
        for threads in [1, 2, 8] {
            prop_assert_eq!(&merged.to_stats_threaded(threads), &expected);
        }

        let window = WindowConfig { window_secs: 100, windows: 3 };
        let cfg = InferenceConfig { threads: 1, ..InferenceConfig::default() };
        let mut wc = WindowedClassifier::new(window, cfg.clone());
        let mut model = WindowModel { window, head: None, retained: Vec::new(), late_drops: 0 };
        let resume_at = usize::from(cut) % (observations.len() + 1);
        let path = dir.join("watch.ckpt");
        for (i, o) in observations.iter().enumerate() {
            if i == resume_at {
                wc.checkpoint(0, 0, i as u64).save_atomic(&path).unwrap();
                wc = WindowedClassifier::from_checkpoint(&WatchCheckpoint::load(&path).unwrap(), cfg.clone());
                prop_assert_eq!(wc.windowed_stats(), reference_stats(&model.retained(), &siblings));
            }
            let advanced = wc.observe(o, &siblings);
            model.observe(o);
            let retained = model.retained();
            prop_assert_eq!(
                wc.windowed_stats(),
                reference_stats(&retained, &siblings),
                "after observation {}", i
            );
            if advanced {
                // The advance reclassified before the fold, so the kept
                // counts leave out the entry the fold added, the last one.
                let counted = &retained[..retained.len() - 1];
                prop_assert_eq!(
                    wc.checkpoint(0, 0, 0).windowed,
                    kept_counts_of(&reference_stats(counted, &siblings), counted),
                    "kept counts after the advance at observation {}", i
                );
            }
            if reclassify_at.contains(&i) {
                wc.reclassify(&siblings);
                let kept = wc.checkpoint(0, 0, 0).windowed;
                prop_assert_eq!(
                    &kept,
                    &kept_counts_of(&wc.windowed_stats(), &retained),
                    "at observation {}", i
                );
                prop_assert_eq!(
                    &kept,
                    &kept_counts_of(&reference_stats(&retained, &siblings), &retained),
                    "at observation {}", i
                );
            }
        }
        prop_assert_eq!(wc.late_drops(), model.late_drops);
        prop_assert_eq!(&wc.segment().to_stats(), &expected);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Lists logged as slots load as they were folded: a segment saved
    /// after each of a few random marks (one frame per save, each list
    /// interned by its slots) loads equal to the folded one, with equal
    /// statistics, and two loaded segments merge (through the slot-to-slot
    /// table) into the segment one fold of both streams builds.
    #[test]
    fn slot_frames_load_and_merge_as_the_fold_does(
        observations in arb_list_observations(),
        more in arb_list_observations(),
        marks in prop::collection::vec(any::<u16>(), 0..4),
        siblings in arb_siblings(),
    ) {
        let dir = scratch_dir("slot-frames");
        let saved = |stream: &[Observation], name: &str| {
            let path = dir.join(name);
            let mut saver = CheckpointSaver::new(&path, None).unwrap();
            let mut cp = Checkpoint::new();
            let mut cuts: Vec<usize> = marks
                .iter()
                .map(|&m| usize::from(m) % (stream.len() + 1))
                .chain([stream.len()])
                .collect();
            cuts.sort_unstable();
            let mut at = 0;
            for cut in cuts {
                cp.snapshot.ingest_ordered(&stream[at..cut], &siblings);
                at = cut;
                saver.save(&cp).unwrap();
            }
            (cp.snapshot, Checkpoint::load(&path).unwrap().snapshot)
        };
        let (folded, loaded) = saved(&observations, "a.ckpt");
        prop_assert_eq!(&loaded, &folded);
        prop_assert_eq!(loaded.to_stats(), folded.to_stats());
        let (other_folded, other) = saved(&more, "b.ckpt");
        prop_assert_eq!(&other, &other_folded);

        let mut merged = loaded;
        merged.merge(other);
        let mut both = StatsAccumulator::new();
        both.ingest_ordered(&[observations, more].concat(), &siblings);
        prop_assert_eq!(&merged, &both);
        prop_assert_eq!(merged.to_stats(), both.to_stats());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn classification_is_deterministic(observations in arb_observations()) {
        let siblings = SiblingMap::default();
        let stats = PathStats::from_observations(&observations, &siblings);
        let a = classify(&stats, &siblings, &InferenceConfig::default());
        let b = classify(&stats, &siblings, &InferenceConfig::default());
        prop_assert_eq!(a.labels, b.labels);
        prop_assert_eq!(a.excluded, b.excluded);
    }
}
