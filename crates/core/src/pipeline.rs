//! End-to-end convenience wiring: observations in, labeled communities and
//! (optionally) an evaluation out.

use bgp_dictionary::GroundTruthDictionary;
use bgp_relationships::SiblingMap;
use bgp_types::obs::{MetricsRegistry, MetricsSnapshot, Span, Telemetry};
use bgp_types::span;
use bgp_types::store::ObservationStore;
use bgp_types::Observation;

use crate::classify::{classify, Exclusion, Inference, InferenceConfig};
use crate::eval::{evaluate, Evaluation};
use crate::stats::PathStats;

/// Everything the pipeline produced for one dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineResult {
    /// Path statistics (reusable for figures).
    pub stats: PathStats,
    /// The inference output.
    pub inference: Inference,
    /// Score against ground truth, when a dictionary was supplied.
    pub evaluation: Option<Evaluation>,
    /// Metrics snapshot taken as the run finished, when it was
    /// telemetry-enabled; `None` under [`Telemetry::disabled`]. Benches and
    /// CI diff the [`deterministic`](MetricsSnapshot::deterministic)
    /// section.
    pub metrics: Option<MetricsSnapshot>,
}

/// Bucket bounds (inclusive upper, truncated-to-integer ratios) for the
/// `classify/cluster_ratio` histogram. Dense around the paper's 160:1
/// action threshold so a run's distance from the decision boundary is
/// visible: a pile-up in the 156–159 buckets means many clusters barely
/// missed the action label.
pub const RATIO_BUCKETS: &[u64] = &[
    1, 2, 4, 8, 16, 32, 64, 96, 128, 144, 152, 156, 159, 160, 168, 176, 192, 224, 256, 512, 1024,
    4096,
];

/// Record interner occupancy under `store/*`.
fn record_store_metrics(metrics: &MetricsRegistry, store: &ObservationStore) {
    let gauge = |name: &str, v: usize| {
        metrics
            .gauge(name)
            .set(i64::try_from(v).unwrap_or(i64::MAX));
    };
    gauge("store/observations", store.len());
    gauge("store/unique_paths", store.path_count());
    gauge("store/unique_csets", store.cset_count());
    gauge("store/unique_communities", store.community_count());
}

/// Record the path-stats kernel's output shape under `stats/*`.
fn record_stats_metrics(metrics: &MetricsRegistry, stats: &PathStats) {
    metrics
        .counter("stats/communities")
        .add(stats.community_count() as u64);
    metrics
        .counter("stats/unique_tuples")
        .add(stats.unique_tuples as u64);
    metrics
        .counter("stats/unique_paths")
        .add(stats.unique_paths as u64);
    metrics
        .counter("stats/seen_asns")
        .add(stats.seen_asns.len() as u64);
}

/// Record classification outcome tallies under `classify/*`, including the
/// on/off ratio histogram around the action threshold.
fn record_classify_metrics(metrics: &MetricsRegistry, inference: &Inference) {
    let (action, info) = inference.intent_counts();
    metrics
        .counter("classify/labeled_action")
        .add(action as u64);
    metrics
        .counter("classify/labeled_information")
        .add(info as u64);
    let excluded =
        |kind: Exclusion| inference.excluded.values().filter(|x| **x == kind).count() as u64;
    metrics
        .counter("classify/excluded_private_asn")
        .add(excluded(Exclusion::PrivateAsn));
    metrics
        .counter("classify/excluded_reserved_asn")
        .add(excluded(Exclusion::ReservedAsn));
    metrics
        .counter("classify/excluded_never_on_path")
        .add(excluded(Exclusion::NeverOnPath));
    metrics
        .counter("classify/clusters")
        .add(inference.clusters.len() as u64);
    metrics
        .counter("classify/owners")
        .add(inference.owner_count() as u64);
    let ratios = metrics.histogram("classify/cluster_ratio", RATIO_BUCKETS);
    for cluster in &inference.clusters {
        // Truncation keeps the threshold crisp: everything below 160.0
        // lands at or under the 159 bound, 160.0 and up in the 160 bucket.
        ratios.observe(cluster.ratio.clamp(0.0, 1e18) as u64);
    }
}

/// Record the ground-truth evaluation under `eval/*`, confusion matrix
/// included (`[truth]_as_[inferred]`).
fn record_eval_metrics(metrics: &MetricsRegistry, eval: &Evaluation) {
    metrics.counter("eval/total").add(eval.total as u64);
    metrics.counter("eval/correct").add(eval.correct as u64);
    metrics
        .counter("eval/covered_excluded")
        .add(eval.covered_excluded as u64);
    metrics
        .counter("eval/covered_observed")
        .add(eval.covered_observed as u64);
    let names = [
        [
            "eval/confusion/action_as_action",
            "eval/confusion/action_as_information",
        ],
        [
            "eval/confusion/information_as_action",
            "eval/confusion/information_as_information",
        ],
    ];
    for (truth, row) in names.iter().enumerate() {
        for (inferred, name) in row.iter().enumerate() {
            metrics
                .counter(name)
                .add(eval.confusion[truth][inferred] as u64);
        }
    }
}

/// What [`run_inference`] runs over: observations the path-stats kernel
/// still has to reduce, or statistics a checkpointed or sharded run
/// already accumulated segment by segment.
#[derive(Debug, Clone)]
pub enum Input<'a> {
    /// Decoded observations, interned first.
    Observations(&'a [Observation]),
    /// Interned observations.
    Store(&'a ObservationStore),
    /// Precomputed statistics (see [`crate::checkpoint::StatsAccumulator`]).
    Stats(PathStats),
}

impl<'a> From<&'a ObservationStore> for Input<'a> {
    fn from(store: &'a ObservationStore) -> Self {
        Input::Store(store)
    }
}

impl<'a> From<&'a [Observation]> for Input<'a> {
    fn from(observations: &'a [Observation]) -> Self {
        Input::Observations(observations)
    }
}

impl<'a> From<&'a Vec<Observation>> for Input<'a> {
    fn from(observations: &'a Vec<Observation>) -> Self {
        Input::Observations(observations)
    }
}

impl From<PathStats> for Input<'_> {
    fn from(stats: PathStats) -> Self {
        Input::Stats(stats)
    }
}

/// The path-stats kernel over `store`, inside the run's `pipeline` span.
fn reduce(
    store: &ObservationStore,
    siblings: &SiblingMap,
    cfg: &InferenceConfig,
    tel: &Telemetry,
) -> (PathStats, Span) {
    let span = span!(tel.tracer, "pipeline", observations = store.len());
    if let Some(metrics) = tel.registry() {
        record_store_metrics(metrics, store);
    }
    let stats = tel.stage("stats", || {
        PathStats::from_store_threaded(store, siblings, cfg.threads)
    });
    (stats, span)
}

/// Run the full method: statistics → clustering → classification →
/// (optional) evaluation.
///
/// `cfg.threads` controls both the statistics and classification stages
/// (`0` = one worker per CPU, `1` = sequential); the result is identical
/// at any thread count.
///
/// Under observation the run is one `pipeline` span, each stage (path-stats
/// kernel, classification, evaluation) runs in its own span with its
/// wall-clock total accumulated under `time/<stage>_ns`, and the registry
/// collects interner occupancy, kernel output shape, classification
/// outcome tallies (with the ratio histogram around the 160:1 threshold),
/// and the evaluation confusion matrix. The final snapshot is recorded on
/// [`PipelineResult::metrics`]. With [`Telemetry::disabled`] every
/// instrumentation point is one branch (the `telemetry_overhead` bench
/// holds the difference under 1% of `pipeline/end_to_end`).
pub fn run_inference<'a>(
    input: impl Into<Input<'a>>,
    siblings: &SiblingMap,
    cfg: &InferenceConfig,
    dict: Option<&GroundTruthDictionary>,
    tel: &Telemetry,
) -> PipelineResult {
    let (stats, _pipeline) = match input.into() {
        Input::Observations(observations) => reduce(
            &ObservationStore::from_observations(observations),
            siblings,
            cfg,
            tel,
        ),
        Input::Store(store) => reduce(store, siblings, cfg, tel),
        Input::Stats(stats) => {
            let span = span!(
                tel.tracer,
                "pipeline",
                communities = stats.community_count()
            );
            (stats, span)
        }
    };
    if let Some(metrics) = tel.registry() {
        record_stats_metrics(metrics, &stats);
    }
    let inference = tel.stage("classify", || classify(&stats, siblings, cfg));
    if let Some(metrics) = tel.registry() {
        record_classify_metrics(metrics, &inference);
    }
    let evaluation = tel.stage("evaluate", || dict.map(|d| evaluate(&inference, d)));
    if let (Some(metrics), Some(eval)) = (tel.registry(), &evaluation) {
        record_eval_metrics(metrics, eval);
    }
    PipelineResult {
        stats,
        inference,
        evaluation,
        metrics: tel.snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_dictionary::DictionaryEntry;
    use bgp_types::{Community, Intent};

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

    #[test]
    fn end_to_end_with_evaluation() {
        let observations = vec![
            obs("10 1299 64496", &[(1299, 20000), (1299, 20001)]),
            obs("11 1299 64497", &[(1299, 20000)]),
            obs("12 64496", &[(1299, 2569)]),
            obs("13 1299 64498", &[(1299, 2569)]),
        ];
        let dict = GroundTruthDictionary {
            entries: vec![
                DictionaryEntry {
                    pattern: "1299:2000[01]".parse().unwrap(),
                    intent: Intent::Information,
                },
                DictionaryEntry {
                    pattern: "1299:2569".parse().unwrap(),
                    intent: Intent::Action,
                },
            ],
        };
        let result = run_inference(
            &observations,
            &SiblingMap::default(),
            &InferenceConfig::default(),
            Some(&dict),
            &Telemetry::disabled(),
        );
        assert_eq!(result.stats.community_count(), 3);
        let eval = result.evaluation.unwrap();
        assert_eq!(eval.total, 3);
        assert_eq!(eval.accuracy(), 1.0);
        let (action, info) = result.inference.intent_counts();
        assert_eq!((action, info), (1, 2));
    }

    #[test]
    fn from_stats_matches_from_observations() {
        use crate::checkpoint::StatsAccumulator;
        let observations = vec![
            obs("10 1299 64496", &[(1299, 20000), (1299, 20001)]),
            obs("11 1299 64497", &[(1299, 20000)]),
            obs("12 64496", &[(1299, 2569)]),
            obs("13 1299 64498", &[(1299, 2569)]),
        ];
        let siblings = SiblingMap::default();
        let cfg = InferenceConfig::default();
        let plain = Telemetry::disabled();
        let direct = run_inference(&observations, &siblings, &cfg, None, &plain);
        // Accumulate the same input as two "files", then classify from the
        // accumulator-derived stats: the checkpointed-run path.
        let mut acc = StatsAccumulator::new();
        acc.ingest_ordered(&observations[..2], &siblings);
        acc.ingest_ordered(&observations[2..], &siblings);
        let resumed = run_inference(acc.to_stats(), &siblings, &cfg, None, &plain);
        assert_eq!(resumed.stats, direct.stats);
        assert_eq!(resumed.inference, direct.inference);
    }

    #[test]
    fn store_and_slice_entry_points_agree() {
        let observations = vec![
            obs("10 1299 64496", &[(1299, 20000), (1299, 20001)]),
            obs("11 1299 64497", &[(1299, 20000)]),
            obs("12 64496", &[(1299, 2569)]),
        ];
        let siblings = SiblingMap::default();
        let cfg = InferenceConfig::default();
        let plain = Telemetry::disabled();
        let via_slice = run_inference(&observations, &siblings, &cfg, None, &plain);
        let mut store = ObservationStore::new();
        for o in &observations {
            store.push(o);
        }
        let via_store = run_inference(&store, &siblings, &cfg, None, &plain);
        assert_eq!(via_slice, via_store);
        // Telemetry changes nothing but the snapshot it adds.
        let observed = run_inference(&store, &siblings, &cfg, None, &Telemetry::with_metrics());
        assert!(observed.metrics.is_some());
        assert_eq!(observed.inference, via_store.inference);
        assert_eq!(observed.stats, via_store.stats);
    }

    #[test]
    fn runs_without_dictionary() {
        let observations = vec![obs("10 1299 64496", &[(1299, 1)])];
        let result = run_inference(
            &observations,
            &SiblingMap::default(),
            &InferenceConfig::default(),
            None,
            &Telemetry::disabled(),
        );
        assert!(result.evaluation.is_none());
        assert_eq!(result.inference.labels.len(), 1);
    }
}
