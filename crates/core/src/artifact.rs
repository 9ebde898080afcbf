//! From inference output to the servable label artifact — and the first
//! workload on top of it: the anomaly-check pass.
//!
//! [`label_rows`] flattens an [`Inference`] into sorted [`LabelRow`]s (one
//! per classified community, carrying its cluster's evidence), which both
//! the CLI's `--json` writer and [`write_inference_artifact`] consume, so
//! the two outputs agree bit-for-bit by construction.
//!
//! [`check_store`] is the CommunityWatch-style detector: stream an archive
//! and flag routes whose observed communities contradict their inferred
//! intent class. Only the *contradiction-proof* subset of labels is
//! enforced — communities whose training evidence was unanimous:
//!
//! * an **information** community that was never once seen off-path
//!   (`off_paths == 0`) now appearing off-path — the leak/spoof shape, an
//!   informational tag escaping beyond its owner's cone;
//! * an **action** community that was never once seen on-path
//!   (`on_paths == 0`) now appearing on-path — a request community echoed
//!   back through the AS that should have consumed it.
//!
//! Ratio-labeled communities (mixed evidence) are *not* flagged: both
//! placements were observed in training, so a single sighting proves
//! nothing. This makes the check vacuously clean on the training archive
//! itself — any anomaly on fresh data is a genuine behavior change.

use std::io;
use std::path::Path;

use bgp_artifact::{write_artifact_atomic, LabelArtifact, LabelRow};
use bgp_relationships::SiblingMap;
use bgp_types::fx::FxHashMap;
use bgp_types::store::ObservationStore;
use bgp_types::{Asn, Community, Intent, Prefix};

use crate::classify::Inference;
use crate::stats::OnPathIndex;

/// Label confidence in `(0, 1]` from the cluster's evidence.
///
/// Unanimous clusters (`off_total == 0` or `on_total == 0`) are certain:
/// the label did not depend on the ratio threshold at all. Mixed clusters
/// map how far the ratio sits from the threshold `t` into `(0, 1)`:
/// information (`r ≥ t`) scores `r / (r + t)` (0.5 at the threshold,
/// toward 1 as the ratio dwarfs it); action (`r < t`) scores the mirror
/// `t / (r + t)` (toward 1 as the ratio vanishes). Both labels are at
/// their least confident — 0.5 — exactly at the decision boundary.
pub fn confidence(ratio: f64, on_total: u64, off_total: u64, threshold: f64, label: Intent) -> f64 {
    if off_total == 0 || on_total == 0 {
        return 1.0;
    }
    match label {
        Intent::Information => ratio / (ratio + threshold),
        Intent::Action => threshold / (ratio + threshold),
    }
}

/// Flatten an inference into artifact rows: one per classified community,
/// sorted strictly ascending by [`Community::packed_key`], each carrying
/// its containing cluster's ratio, unique-path totals, and the confidence
/// derived from them. `ratio_threshold` must be the value classification
/// ran with (it determines confidence, not labels).
pub fn label_rows(inference: &Inference, ratio_threshold: f64) -> Vec<LabelRow> {
    // Every labeled community belongs to exactly one cluster (labels are
    // only ever inserted cluster-by-cluster in `classify_owner`).
    let mut by_community: FxHashMap<Community, usize> = FxHashMap::default();
    for (i, lc) in inference.clusters.iter().enumerate() {
        for &beta in &lc.cluster.betas {
            by_community.insert(Community::new(lc.cluster.asn, beta), i);
        }
    }
    let mut rows: Vec<LabelRow> = inference
        .labels
        .iter()
        .map(|(&community, &label)| {
            let lc = &inference.clusters[by_community[&community]];
            debug_assert_eq!(lc.label, label, "{community}: label disagrees with cluster");
            LabelRow {
                community,
                label,
                confidence: confidence(lc.ratio, lc.on_total, lc.off_total, ratio_threshold, label),
                ratio: lc.ratio,
                on_paths: lc.on_total,
                off_paths: lc.off_total,
            }
        })
        .collect();
    rows.sort_unstable_by_key(|r| r.community.packed_key());
    rows
}

/// Write an inference as a label artifact (atomic temp+rename). Returns
/// the number of rows written.
pub fn write_inference_artifact(
    path: &Path,
    inference: &Inference,
    ratio_threshold: f64,
) -> io::Result<usize> {
    let rows = label_rows(inference, ratio_threshold);
    write_artifact_atomic(path, &rows)?;
    Ok(rows.len())
}

/// The two contradiction shapes [`check_store`] detects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnomalyKind {
    /// A never-off-path information community observed off-path.
    InformationOffPath,
    /// A never-on-path action community observed on-path.
    ActionOnPath,
}

impl std::fmt::Display for AnomalyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnomalyKind::InformationOffPath => write!(f, "information-off-path"),
            AnomalyKind::ActionOnPath => write!(f, "action-on-path"),
        }
    }
}

/// One route whose observed community contradicts its inferred intent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Anomaly {
    /// Index of the observation in the checked store (deterministic
    /// stream order).
    pub index: usize,
    /// The vantage point that saw the route.
    pub vp: Asn,
    /// The announced prefix.
    pub prefix: Prefix,
    /// The contradicting community.
    pub community: Community,
    /// Which contradiction shape fired.
    pub kind: AnomalyKind,
}

/// The outcome of an anomaly-check pass over one archive.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckReport {
    /// Observations streamed.
    pub observations: usize,
    /// `(observation, community)` pairs with a label in the artifact.
    pub checked: usize,
    /// `(observation, community)` pairs the artifact has no label for
    /// (excluded or never-observed communities).
    pub unknown: usize,
    /// Every contradiction, in observation order.
    pub anomalies: Vec<Anomaly>,
}

/// Per community slot, what the checker needs: the label and whether the
/// training evidence was unanimous enough to enforce.
#[derive(Clone, Copy)]
enum SlotVerdict {
    Unknown,
    /// Information with `off_paths == 0` in training.
    EnforceInformation,
    /// Action with `on_paths == 0` in training.
    EnforceAction,
    /// Labeled, but with mixed evidence — counted as checked, never flagged.
    Known,
}

/// Check every observation in `store` against a loaded artifact: flag
/// never-off-path information communities seen off-path and never-on-path
/// action communities seen on-path. `siblings` must be the map the
/// artifact's inference ran with — the on-path test here must match the
/// one that produced the labels, or the check would contradict itself.
pub fn check_store(
    artifact: &LabelArtifact,
    store: &ObservationStore,
    siblings: &SiblingMap,
) -> CheckReport {
    let index = OnPathIndex::from_siblings(store, siblings);
    // One artifact lookup per distinct community slot, not per tuple.
    let verdicts: Vec<SlotVerdict> = (0..store.community_count() as u32)
        .map(|slot| match artifact.get(store.community(slot)) {
            None => SlotVerdict::Unknown,
            Some(row) => match row.label {
                Intent::Information if row.off_paths == 0 => SlotVerdict::EnforceInformation,
                Intent::Action if row.on_paths == 0 => SlotVerdict::EnforceAction,
                _ => SlotVerdict::Known,
            },
        })
        .collect();
    let mut report = CheckReport {
        observations: store.len(),
        ..CheckReport::default()
    };
    for i in 0..store.len() {
        let path_id = store.obs_path_id(i);
        for &slot in store.cset_slots(store.obs_cset_id(i)) {
            let verdict = verdicts[slot as usize];
            if matches!(verdict, SlotVerdict::Unknown) {
                report.unknown += 1;
                continue;
            }
            report.checked += 1;
            let kind = match verdict {
                SlotVerdict::EnforceInformation if !index.on_path(store, path_id, slot) => {
                    AnomalyKind::InformationOffPath
                }
                SlotVerdict::EnforceAction if index.on_path(store, path_id, slot) => {
                    AnomalyKind::ActionOnPath
                }
                _ => continue,
            };
            report.anomalies.push(Anomaly {
                index: i,
                vp: store.vp(i),
                prefix: store.prefix(i),
                community: store.community(slot),
                kind,
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{classify, InferenceConfig};
    use crate::stats::PathStats;
    use bgp_types::Observation;

    fn obs(path: &str, comms: &[(u16, u16)]) -> Observation {
        Observation {
            vp: path.split_whitespace().next().unwrap().parse().unwrap(),
            prefix: "10.0.0.0/24".parse().unwrap(),
            path: path.parse().unwrap(),
            communities: comms.iter().map(|&(a, b)| Community::new(a, b)).collect(),
            large_communities: Vec::new(),
            time: 0,
        }
    }

    /// Training set with one never-off-path information community
    /// (1299:35130), one never-on-path action community (1299:2569), and
    /// one mixed ratio-labeled community (3356:100, on 2 / off 1).
    fn training() -> Vec<Observation> {
        vec![
            obs("10 1299 64496", &[(1299, 35130)]),
            obs("11 1299 64497", &[(1299, 35130)]),
            obs("10 64496", &[(1299, 2569)]),
            obs("12 3356 64496", &[(3356, 100)]),
            obs("13 3356 64497", &[(3356, 100)]),
            obs("14 64498", &[(3356, 100)]),
        ]
    }

    fn infer(observations: &[Observation]) -> Inference {
        let siblings = SiblingMap::default();
        let stats = PathStats::from_observations(observations, &siblings);
        classify(&stats, &siblings, &InferenceConfig::default())
    }

    fn temp_artifact(tag: &str, inference: &Inference) -> LabelArtifact {
        let dir = std::env::temp_dir().join(format!("core-artifact-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("labels.art");
        write_inference_artifact(&path, inference, 160.0).expect("write artifact");
        LabelArtifact::load(&path).expect("load artifact")
    }

    #[test]
    fn confidence_edges() {
        // Unanimous evidence is certain regardless of ratio.
        assert_eq!(confidence(37.0, 37, 0, 160.0, Intent::Information), 1.0);
        assert_eq!(confidence(0.0, 0, 9, 160.0, Intent::Action), 1.0);
        // At the decision boundary both labels sit at 0.5.
        assert_eq!(confidence(160.0, 320, 2, 160.0, Intent::Information), 0.5);
        // Far from the boundary, confidence approaches 1.
        assert!(confidence(16000.0, 32000, 2, 160.0, Intent::Information) > 0.99);
        assert!(confidence(0.016, 1, 60, 160.0, Intent::Action) > 0.99);
        // Confidence is symmetric in the evidence: a ratio k× above the
        // threshold scores the same as one k× below it.
        let hi = confidence(320.0, 640, 2, 160.0, Intent::Information);
        let lo = confidence(80.0, 160, 2, 160.0, Intent::Action);
        assert!((hi - lo).abs() < 1e-12);
    }

    #[test]
    fn label_rows_are_sorted_and_agree_with_the_label_map() {
        let inference = infer(&training());
        let rows = label_rows(&inference, 160.0);
        assert_eq!(rows.len(), inference.labels.len());
        for pair in rows.windows(2) {
            assert!(pair[0].community.packed_key() < pair[1].community.packed_key());
        }
        for row in &rows {
            assert_eq!(inference.label(row.community), Some(row.label));
            assert!(row.confidence > 0.0 && row.confidence <= 1.0);
        }
        // The unanimous rows carry certainty, the mixed row does not.
        let by = |c: Community| rows.iter().find(|r| r.community == c).unwrap();
        assert_eq!(by(Community::new(1299, 35130)).confidence, 1.0);
        assert_eq!(by(Community::new(1299, 2569)).confidence, 1.0);
        let mixed = by(Community::new(3356, 100));
        assert!(mixed.confidence < 1.0, "mixed evidence cannot be certain");
        assert_eq!((mixed.on_paths, mixed.off_paths), (2, 1));
    }

    #[test]
    fn artifact_round_trips_label_rows_exactly() {
        let inference = infer(&training());
        let rows = label_rows(&inference, 160.0);
        let artifact = temp_artifact("roundtrip", &inference);
        assert_eq!(artifact.rows().collect::<Vec<_>>(), rows);
        for row in &rows {
            assert_eq!(artifact.get(row.community), Some(*row));
        }
    }

    #[test]
    fn training_archive_checks_clean() {
        let observations = training();
        let inference = infer(&observations);
        let artifact = temp_artifact("clean", &inference);
        let store = ObservationStore::from_observations(&observations);
        let report = check_store(&artifact, &store, &SiblingMap::default());
        assert_eq!(report.observations, observations.len());
        assert!(report.checked > 0);
        assert!(
            report.anomalies.is_empty(),
            "training data must be self-consistent: {:?}",
            report.anomalies
        );
    }

    #[test]
    fn seeded_contradictions_are_flagged_exactly() {
        let observations = training();
        let inference = infer(&observations);
        let artifact = temp_artifact("seeded", &inference);
        let mut checked = observations.clone();
        // 1299:35130 (information, never off-path) leaking off-path.
        checked.push(obs("20 3356 64499", &[(1299, 35130)]));
        // 1299:2569 (action, never on-path) echoed through 1299 itself.
        checked.push(obs("21 1299 64499", &[(1299, 2569)]));
        // Mixed 3356:100 in both placements: never flagged.
        checked.push(obs("22 3356 64499", &[(3356, 100)]));
        checked.push(obs("23 64499", &[(3356, 100)]));
        let store = ObservationStore::from_observations(&checked);
        let report = check_store(&artifact, &store, &SiblingMap::default());
        assert_eq!(report.anomalies.len(), 2);
        let leak = report.anomalies[0];
        assert_eq!(leak.index, observations.len());
        assert_eq!(leak.community, Community::new(1299, 35130));
        assert_eq!(leak.kind, AnomalyKind::InformationOffPath);
        assert_eq!(leak.vp, Asn::new(20));
        let echo = report.anomalies[1];
        assert_eq!(echo.index, observations.len() + 1);
        assert_eq!(echo.community, Community::new(1299, 2569));
        assert_eq!(echo.kind, AnomalyKind::ActionOnPath);
    }

    #[test]
    fn unlabeled_communities_count_as_unknown() {
        let observations = training();
        let inference = infer(&observations);
        let artifact = temp_artifact("unknown", &inference);
        let checked = vec![obs("30 3356 64496", &[(9999, 1)])];
        let store = ObservationStore::from_observations(&checked);
        let report = check_store(&artifact, &store, &SiblingMap::default());
        assert_eq!((report.checked, report.unknown), (0, 1));
        assert!(report.anomalies.is_empty());
    }
}
