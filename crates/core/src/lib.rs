//! **The paper's contribution**: coarse-grained inference of BGP community
//! intent (action vs information) from public BGP data.
//!
//! Pipeline (§5.2, Fig 8):
//!
//! 1. [`stats`] — reduce observations to per-community path statistics: how
//!    many *unique AS paths* carry the community with its owner (or a
//!    sibling) **on-path** vs **off-path**, plus which ASNs appear in paths
//!    at all.
//! 2. [`cluster`] — group each AS's observed `β` values into numeric
//!    ranges with a minimum-gap rule (default 140), approximating the
//!    contiguous ranges operators allocate.
//! 3. [`classify`] — label each cluster by its on-path:off-path ratio
//!    (threshold 160:1), excluding private-ASN and never-on-path (IXP
//!    route server) communities, then apply cluster labels to communities.
//! 4. [`eval`] — score inferences against a ground-truth dictionary.
//!
//! [`baseline`] builds the ground-truth-regex clusters of §5.1 (Fig 6), and
//! [`features`] computes the customer:peer feature the paper shows is *not*
//! sufficient (Fig 7). [`pipeline`] wires everything together, and
//! [`watch`] runs the same method as a crash-tolerant streaming daemon
//! over rolling time windows.
//!
//! # Example
//!
//! The Fig 5 scenario from the paper, reduced to three observations:
//! AS 64496 signals action community `1299:2569` on all its announcements,
//! and AS 1299 tags routes it receives in Boston with `1299:35130`.
//!
//! ```
//! use bgp_intent::{run_inference, InferenceConfig};
//! use bgp_relationships::SiblingMap;
//! use bgp_types::{Community, Intent, Observation, Telemetry};
//!
//! let obs = |path: &str, comms: &[(u16, u16)]| Observation {
//!     vp: path.split_whitespace().next().unwrap().parse().unwrap(),
//!     prefix: "192.0.2.0/24".parse().unwrap(),
//!     path: path.parse().unwrap(),
//!     communities: comms.iter().map(|&(a, b)| Community::new(a, b)).collect(),
//!     large_communities: Vec::new(),
//!     time: 0,
//! };
//! let observations = vec![
//!     obs("65541 3356 1299 64496", &[(1299, 35130)]),
//!     obs("65432 64496", &[(1299, 2569)]),
//!     obs("65269 7018 1299 64496", &[(1299, 2569), (1299, 35130)]),
//! ];
//! let result = run_inference(
//!     &observations,
//!     &SiblingMap::default(),
//!     &InferenceConfig::default(),
//!     None,
//!     &Telemetry::disabled(),
//! );
//! assert_eq!(
//!     result.inference.label(Community::new(1299, 2569)),
//!     Some(Intent::Action) // seen off-path via 65432
//! );
//! assert_eq!(
//!     result.inference.label(Community::new(1299, 35130)),
//!     Some(Intent::Information) // 1299 always on-path
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod baseline;
pub mod categories;
pub mod checkpoint;
pub mod classify;
pub mod cluster;
pub mod eval;
pub mod features;
pub mod large;
pub mod pipeline;
pub mod stats;
pub mod supervisor;
pub mod watch;

pub use artifact::{
    check_store, confidence, label_rows, write_inference_artifact, Anomaly, AnomalyKind,
    CheckReport,
};
pub use categories::{infer_categories, CategoryConfig, FineCategory};
pub use checkpoint::{
    fingerprint_file, Checkpoint, CompletedFile, FileFingerprint, FileSegment, StatsAccumulator,
    StatsSnapshot,
};
pub use classify::{classify_parallelism, Exclusion, Inference, InferenceConfig};
pub use cluster::gap_clusters;
pub use eval::Evaluation;
pub use large::{classify_large, LargeInference};
pub use pipeline::{run_inference, PipelineResult, RATIO_BUCKETS};
pub use stats::{PathCounts, PathStats};
pub use supervisor::{
    plan_shards, supervise, supervise_with_shutdown, validate_artifact, ShardEvent,
    ShardFailureKind, ShardOutcome, ShardSpec, SupervisorConfig,
};
pub use watch::{
    run_watch, WatchCheckpoint, WatchOptions, WatchOutcome, WindowConfig, WindowedClassifier,
};
