//! Streaming inference — the engine behind `bgpcomm watch`.
//!
//! A long-running daemon folds a continuous BGP update stream into rolling
//! [`PathStats`] over sliding time windows and reclassifies *only* the
//! owner ASes a window advance actually touched, surfacing label changes
//! ("flaps") as first-class metrics. The pieces:
//!
//! * [`WindowedClassifier`] — one statistics segment
//!   ([`StatsAccumulator`]) that interns every observation exactly once, a
//!   ring of buckets keyed by `observation.time / window_secs` that list
//!   the tuple IDs folded into them, a reference count per tuple, and the
//!   current label map. Each advance evicts expired buckets, runs the stats
//!   kernel over the tuples still referenced, diffs the result against the
//!   stats of the previous reclassification and re-runs the classifier for
//!   dirty owners only. Late observations to evicted buckets are dropped
//!   from the window and counted.
//! * [`WatchCheckpoint`] — a sealed binary file (the [`persist`] envelope
//!   around length-prefixed little-endian columns), written durably
//!   through [`persist::write_atomic`], holding the stream cursor, the
//!   segment once, each retained bucket's tuple IDs, the label map, and
//!   the flap counters. Restoring it reproduces the daemon's exact state
//!   at the recorded cursor, so a resumed run counts the same flaps an
//!   uninterrupted one would.
//! * [`run_watch`] — the daemon loop: a [`StreamDecoder`] over a
//!   [`ResumingStream`] (bounded queue, backpressure, reconnect, stall
//!   detection), advance-before-fold window maintenance, checkpoint
//!   cadence in window advances, and a graceful-shutdown path that flushes
//!   a valid checkpoint before reporting.
//!
//! # Why the segment is the recovery substrate
//!
//! The buckets drive *windowed* classification; crash recovery and batch
//! parity ride on the segment, which holds every tuple ever delivered —
//! late drops included — interned by exact value, so a tuple delivered
//! twice is still one tuple. A kill -9 between checkpoints loses nothing
//! but the cursor distance: the resumed run restores the segment and the
//! buckets as they were at the last checkpoint's cursor, re-requests the
//! stream from there and folds the re-delivered records into that state
//! once. At a quiescent point the segment's statistics (and the labels
//! classified from them) are therefore identical to a batch run over the
//! same delivered bytes — the invariant the streaming CI job pins with
//! `cmp`.

use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bgp_mrt::stream::{ResumingStream, StreamCounters, StreamSource, StreamTuning};
use bgp_mrt::{IngestReport, RecoverConfig, StreamDecoder};
use bgp_relationships::SiblingMap;
use bgp_types::fx::{FxHashMap, FxHashSet};
use bgp_types::obs::MetricsRegistry;
use bgp_types::persist::{self, Format, LoadError};
use bgp_types::{Asn, Community, Intent, Observation, ObservationSink, ObservationView};

use crate::checkpoint::{ColumnReader, ColumnWriter, StatsAccumulator, StatsSnapshot};
use crate::classify::{classify, classify_owner, Exclusion, Inference, InferenceConfig};
use crate::stats::{PathCounts, PathStats};

/// Sliding-window geometry: bucket width in stream seconds and how many
/// buckets the window retains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    /// Bucket width: observations land in bucket `time / window_secs`.
    pub window_secs: u32,
    /// Retained buckets. The windowed statistics at any moment cover the
    /// newest `windows` buckets; older buckets are evicted on advance.
    pub windows: usize,
}

impl Default for WindowConfig {
    fn default() -> Self {
        WindowConfig {
            window_secs: 3600,
            windows: 24,
        }
    }
}

impl WindowConfig {
    /// The bucket index an observation timestamp falls in.
    fn bucket_of(&self, time: u32) -> u64 {
        u64::from(time) / u64::from(self.window_secs.max(1))
    }
}

/// No head bucket has listed a tuple yet.
const UNLISTED: u64 = u64::MAX;

/// Rolling windowed classification with incremental reclassify and flap
/// accounting.
///
/// Invariant maintained across [`observe`](Self::observe) /
/// [`reclassify`](Self::reclassify): the label and exclusion maps equal a
/// full [`classify`] over the windowed statistics *as of the last
/// reclassification* — the incremental dirty-owner pass is an
/// optimization, never an approximation (pinned by tests).
///
/// The window itself: every tuple's reference count is its number of
/// entries across the retained buckets' lists, and the windowed statistics
/// are the kernel over the tuples whose count is positive. A fold lists
/// its tuple in its bucket unless that bucket is the head and already
/// lists it; a late fold into an older retained bucket always lists it,
/// so an older bucket may list a tuple twice, which its count absorbs.
/// A fold therefore costs one intern, one append and one increment; an
/// eviction one decrement per entry of the evicted bucket; and a
/// reclassification one pass over the counts plus the kernel over the
/// live tuples.
#[derive(Debug)]
pub struct WindowedClassifier {
    window: WindowConfig,
    cfg: InferenceConfig,
    /// Every observation folded so far, each interned once: the cumulative
    /// statistics, and the tuple IDs the buckets list.
    segment: StatsAccumulator,
    /// Retained buckets, ascending by index, each listing the tuple IDs
    /// folded into it. Sparse: only buckets that received at least one
    /// observation (plus the head) exist.
    buckets: VecDeque<(u64, Vec<u32>)>,
    /// Per tuple ID: its entries across the retained buckets' lists.
    refs: Vec<u32>,
    /// Per tuple ID: the index of the head bucket that listed it last, so
    /// the head bucket lists each tuple once.
    head_mark: Vec<u64>,
    /// Scratch an owned observation's path is flattened into by
    /// [`observe`](Self::observe).
    scratch: (Vec<(u8, u32)>, Vec<u32>),
    /// Windowed stats at the last reclassification — the diff base for
    /// dirty-owner detection.
    prev: PathStats,
    /// Current label per community, equal to `classify(prev)`'s labels.
    labels: FxHashMap<Community, Intent>,
    /// Current exclusions, equal to `classify(prev)`'s exclusions.
    excluded: FxHashMap<Community, Exclusion>,
    /// Communities currently holding a label or exclusion, per owner —
    /// the removal index for incremental reclassification.
    owner_communities: FxHashMap<u16, Vec<Community>>,
    flaps: u64,
    advances: u64,
    late_drops: u64,
    reclassified_owners: u64,
}

impl WindowedClassifier {
    /// An empty classifier.
    pub fn new(window: WindowConfig, cfg: InferenceConfig) -> Self {
        WindowedClassifier {
            window,
            cfg,
            segment: StatsAccumulator::new(),
            buckets: VecDeque::new(),
            refs: Vec::new(),
            head_mark: Vec::new(),
            scratch: (Vec::new(), Vec::new()),
            prev: PathStats::default(),
            labels: FxHashMap::default(),
            excluded: FxHashMap::default(),
            owner_communities: FxHashMap::default(),
            flaps: 0,
            advances: 0,
            late_drops: 0,
            reclassified_owners: 0,
        }
    }

    /// The window geometry.
    pub fn window(&self) -> WindowConfig {
        self.window
    }

    /// Current label per community (as of the last reclassification).
    pub fn labels(&self) -> &FxHashMap<Community, Intent> {
        &self.labels
    }

    /// Current exclusions (as of the last reclassification).
    pub fn excluded(&self) -> &FxHashMap<Community, Exclusion> {
        &self.excluded
    }

    /// Total label flips observed across all reclassifications: a flap is
    /// a community *labeled in both rounds* whose [`Intent`] changed.
    /// Appearing, disappearing, or moving to/from exclusion is churn, not
    /// a flap.
    pub fn flaps(&self) -> u64 {
        self.flaps
    }

    /// Window advances so far.
    pub fn advances(&self) -> u64 {
        self.advances
    }

    /// Observations dropped because their bucket was already evicted.
    pub fn late_drops(&self) -> u64 {
        self.late_drops
    }

    /// Owner ASes re-run through the classifier across all
    /// reclassifications (the incremental work metric; a full pass each
    /// advance would count every owner every time).
    pub fn reclassified_owners(&self) -> u64 {
        self.reclassified_owners
    }

    /// Retained bucket count.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Everything folded so far, late drops included: the cumulative
    /// statistics a batch run over the same observations computes.
    pub fn segment(&self) -> &StatsAccumulator {
        &self.segment
    }

    /// The windowed statistics right now: the kernel over every tuple a
    /// retained bucket lists (including folds since the last
    /// reclassification).
    pub fn windowed_stats(&self) -> PathStats {
        self.segment.stats_where(1, |t| self.refs[t] > 0)
    }

    /// Fold one observation: [`observe_view`](Self::observe_view) over an
    /// owned [`Observation`].
    pub fn observe(&mut self, obs: &Observation, siblings: &SiblingMap) -> bool {
        let (mut segs, mut asns) = std::mem::take(&mut self.scratch);
        let advanced = self.observe_view(&ObservationView::of(obs, &mut segs, &mut asns), siblings);
        self.scratch = (segs, asns);
        advanced
    }

    /// Fold one borrowed observation, as the view decoder hands it over.
    /// It is interned into the segment first, always. If it opens a newer
    /// bucket than the current head, the window advances — evict expired
    /// buckets, reclassify dirty owners — and *then* its tuple is listed
    /// in the new head (advance-before-fold). Returns `true` when an
    /// advance (and thus a reclassification) happened, so the daemon can
    /// apply its checkpoint cadence.
    pub fn observe_view(&mut self, obs: &ObservationView<'_>, siblings: &SiblingMap) -> bool {
        let tuple = self.segment.fold(&obs.path, obs.communities, siblings);
        if tuple as usize == self.refs.len() {
            self.refs.push(0);
            self.head_mark.push(UNLISTED);
        }
        let bucket = self.window.bucket_of(obs.time);
        let head = match self.buckets.back() {
            Some(&(head, _)) => head,
            None => {
                // The first observation seeds the head bucket.
                self.buckets.push_back((bucket, Vec::new()));
                bucket
            }
        };
        if bucket > head {
            self.advance_to(bucket, siblings);
            self.list(self.buckets.len() - 1, tuple);
            return true;
        }
        // In-window: the head bucket or a late (but retained) one.
        let floor = (head + 1).saturating_sub(self.window.windows as u64);
        if bucket < floor {
            self.late_drops += 1;
            return false;
        }
        let at = match self.buckets.binary_search_by_key(&bucket, |&(i, _)| i) {
            Ok(at) => at,
            Err(at) => {
                self.buckets.insert(at, (bucket, Vec::new()));
                at
            }
        };
        self.list(at, tuple);
        false
    }

    /// List `tuple` in bucket `at`, under the rule on the type.
    fn list(&mut self, at: usize, tuple: u32) {
        let t = tuple as usize;
        let is_head = at + 1 == self.buckets.len();
        let (index, tuples) = &mut self.buckets[at];
        if is_head {
            if self.head_mark[t] == *index {
                return;
            }
            self.head_mark[t] = *index;
        }
        tuples.push(tuple);
        self.refs[t] += 1;
    }

    /// Advance the head to `new_head`: evict buckets that fall out of the
    /// retention window, open the new head, reclassify.
    fn advance_to(&mut self, new_head: u64, siblings: &SiblingMap) {
        self.buckets.push_back((new_head, Vec::new()));
        let floor = (new_head + 1).saturating_sub(self.window.windows as u64);
        while matches!(self.buckets.front(), Some(&(i, _)) if i < floor) {
            if let Some((_, evicted)) = self.buckets.pop_front() {
                for t in evicted {
                    self.refs[t as usize] -= 1;
                }
            }
        }
        self.advances += 1;
        self.reclassify(siblings);
    }

    /// Recompute labels against the current windowed statistics,
    /// re-running the classifier only for owners whose inputs changed
    /// since the last reclassification, and fold label flips into the flap
    /// counter. Returns the flaps counted this round.
    ///
    /// An owner's classification depends on exactly two inputs: the path
    /// counts of its own communities, and whether its sibling family
    /// intersects the windowed `seen_asns` (the never-on-path exclusion).
    /// The dirty set is the union of owners touched through either — so
    /// skipping the rest is exact, not heuristic.
    pub fn reclassify(&mut self, siblings: &SiblingMap) -> u64 {
        let new = self.windowed_stats();

        let mut dirty: Vec<u16> = Vec::new();
        for (c, counts) in &new.per_community {
            if self.prev.per_community.get(c) != Some(counts) {
                dirty.push(c.asn);
            }
        }
        for c in self.prev.per_community.keys() {
            if !new.per_community.contains_key(c) {
                dirty.push(c.asn);
            }
        }
        let mut changed_asns: FxHashSet<Asn> = FxHashSet::default();
        for a in &new.seen_asns {
            if !self.prev.seen_asns.contains(a) {
                changed_asns.insert(*a);
            }
        }
        for a in &self.prev.seen_asns {
            if !new.seen_asns.contains(a) {
                changed_asns.insert(*a);
            }
        }
        if !changed_asns.is_empty() {
            let owners: FxHashSet<u16> = new
                .per_community
                .keys()
                .chain(self.prev.per_community.keys())
                .map(|c| c.asn)
                .collect();
            for &asn in &owners {
                let owner = Asn::new(u32::from(asn));
                let hit = if self.cfg.use_siblings {
                    siblings
                        .expand_ref(&owner)
                        .iter()
                        .any(|a| changed_asns.contains(a))
                } else {
                    changed_asns.contains(&owner)
                };
                if hit {
                    dirty.push(asn);
                }
            }
        }
        dirty.sort_unstable();
        dirty.dedup();

        let by_owner = new.by_owner();
        let mut flaps_now = 0u64;
        let mut scratch = Inference::default();
        for &asn in &dirty {
            scratch.labels.clear();
            scratch.excluded.clear();
            scratch.clusters.clear();
            if let Ok(i) = by_owner.binary_search_by_key(&asn, |(a, _)| *a) {
                classify_owner(&new, siblings, &self.cfg, asn, &by_owner[i].1, &mut scratch);
            }
            for c in self.owner_communities.remove(&asn).unwrap_or_default() {
                let was = self.labels.remove(&c);
                self.excluded.remove(&c);
                if let (Some(old), Some(&now)) = (was, scratch.labels.get(&c)) {
                    if old != now {
                        flaps_now += 1;
                    }
                }
            }
            if !scratch.labels.is_empty() || !scratch.excluded.is_empty() {
                let mut comms: Vec<Community> = scratch
                    .labels
                    .keys()
                    .chain(scratch.excluded.keys())
                    .copied()
                    .collect();
                comms.sort_unstable();
                comms.dedup();
                self.owner_communities.insert(asn, comms);
            }
            for (c, i) in scratch.labels.drain() {
                self.labels.insert(c, i);
            }
            for (c, e) in scratch.excluded.drain() {
                self.excluded.insert(c, e);
            }
            self.reclassified_owners += 1;
        }
        self.flaps += flaps_now;
        self.prev = new;
        flaps_now
    }

    /// Rebuild from a checkpoint — the exact state at the recorded cursor,
    /// including the diff base, so the resumed run counts the same flaps
    /// an uninterrupted one would. The segment is shared, not copied.
    pub fn from_checkpoint(cp: &WatchCheckpoint, cfg: InferenceConfig) -> Self {
        let labels: FxHashMap<Community, Intent> = cp
            .labels
            .iter()
            .map(|&(key, intent)| (Community::from_u32(key), intent))
            .collect();
        let excluded: FxHashMap<Community, Exclusion> = cp
            .excluded
            .iter()
            .map(|&(key, reason)| (Community::from_u32(key), reason))
            .collect();
        let mut owner_communities: FxHashMap<u16, Vec<Community>> = FxHashMap::default();
        let mut comms: Vec<Community> = labels.keys().chain(excluded.keys()).copied().collect();
        comms.sort_unstable();
        comms.dedup();
        for c in comms {
            owner_communities.entry(c.asn).or_default().push(c);
        }
        let tuples = cp.cumulative.tuple_count();
        let mut refs = vec![0u32; tuples];
        let mut head_mark = vec![UNLISTED; tuples];
        for bucket in &cp.buckets {
            for &t in &bucket.tuples {
                refs[t as usize] += 1;
            }
        }
        if let Some(head) = cp.buckets.last() {
            for &t in &head.tuples {
                head_mark[t as usize] = head.index;
            }
        }
        WindowedClassifier {
            window: WindowConfig {
                window_secs: cp.window_secs,
                windows: cp.windows,
            },
            cfg,
            segment: cp.cumulative.clone(),
            buckets: cp
                .buckets
                .iter()
                .map(|b| (b.index, b.tuples.clone()))
                .collect(),
            refs,
            head_mark,
            scratch: (Vec::new(), Vec::new()),
            prev: cp.windowed.to_stats(),
            labels,
            excluded,
            owner_communities,
            flaps: cp.flaps,
            advances: cp.advances,
            late_drops: cp.late_drops,
            reclassified_owners: cp.reclassified_owners,
        }
    }

    /// The daemon's state at `cursor` as a [`WatchCheckpoint`], sharing
    /// the segment rather than copying it.
    pub fn checkpoint(&self, cursor: u64, records: u64, observations: u64) -> WatchCheckpoint {
        let mut labels: Vec<(u32, Intent)> =
            self.labels.iter().map(|(&c, &i)| (c.to_u32(), i)).collect();
        labels.sort_unstable_by_key(|&(key, _)| key);
        let mut excluded: Vec<(u32, Exclusion)> = self
            .excluded
            .iter()
            .map(|(&c, &e)| (c.to_u32(), e))
            .collect();
        excluded.sort_unstable_by_key(|&(key, _)| key);
        WatchCheckpoint {
            cursor,
            records,
            observations,
            advances: self.advances,
            flaps: self.flaps,
            late_drops: self.late_drops,
            reclassified_owners: self.reclassified_owners,
            window_secs: self.window.window_secs,
            windows: self.window.windows,
            cumulative: self.segment.clone(),
            buckets: self
                .buckets
                .iter()
                .map(|(index, tuples)| WatchBucket {
                    index: *index,
                    tuples: tuples.clone(),
                })
                .collect(),
            windowed: WindowedStatsSnapshot::from_stats(&self.prev),
            labels,
            excluded,
        }
    }
}

/// One retained bucket inside a [`WatchCheckpoint`].
#[derive(Debug, Clone, PartialEq)]
pub struct WatchBucket {
    /// The bucket index (`time / window_secs`).
    pub index: u64,
    /// The IDs of the segment tuples folded into the bucket, in fold order.
    pub tuples: Vec<u32>,
}

/// Serialized diff base: the windowed [`PathStats`] at the last
/// reclassification, stored exactly so a resumed run's next dirty-owner
/// diff — and therefore its flap count — matches the uninterrupted run.
/// (It is *not* derivable from the buckets: folds into the head bucket
/// after the reclassification are part of the buckets but not of the diff
/// base.)
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowedStatsSnapshot {
    /// `(packed community, on, off)` sorted by packed key.
    pub counts: Vec<(u32, u32, u32)>,
    /// ASN values on any windowed path, sorted.
    pub seen_asns: Vec<u32>,
    /// Unique `(path, communities)` tuples in the window.
    pub unique_tuples: u64,
    /// Unique AS paths in the window.
    pub unique_paths: u64,
}

impl WindowedStatsSnapshot {
    fn from_stats(stats: &PathStats) -> Self {
        let mut counts: Vec<(u32, u32, u32)> = stats
            .per_community
            .iter()
            .map(|(&c, pc)| (c.to_u32(), pc.on, pc.off))
            .collect();
        counts.sort_unstable_by_key(|&(p, _, _)| p);
        let mut seen_asns: Vec<u32> = stats.seen_asns.iter().map(|a| a.value()).collect();
        seen_asns.sort_unstable();
        WindowedStatsSnapshot {
            counts,
            seen_asns,
            unique_tuples: stats.unique_tuples as u64,
            unique_paths: stats.unique_paths as u64,
        }
    }

    fn to_stats(&self) -> PathStats {
        let mut per_community: FxHashMap<Community, PathCounts> = FxHashMap::default();
        for &(p, on, off) in &self.counts {
            per_community.insert(Community::from_u32(p), PathCounts { on, off });
        }
        PathStats {
            per_community,
            seen_asns: self.seen_asns.iter().map(|&a| Asn::new(a)).collect(),
            unique_tuples: self.unique_tuples as usize,
            unique_paths: self.unique_paths as usize,
        }
    }
}

/// The streaming daemon's crash-recovery state: everything needed to
/// resume at `cursor` with bit-identical downstream behavior. It lives on
/// disk as one sealed binary file, encoded in a single pass and written
/// durably ([`save_atomic`](Self::save_atomic)), and fully validated on
/// the way back in ([`load`](Self::load)).
///
/// # Layout (version 3, all integers little-endian)
///
/// The [`persist`] envelope with magic `BGPWCKPT`, then the payload, where
/// a column is a `u64` element count followed by the elements:
///
/// ```text
///   scalars     cursor, records, observations, advances, flaps,
///               late_drops, reclassified_owners, window_secs, windows
///               (9 × u64)
///   segment     the statistics segment (see StatsAccumulator::encode)
///   buckets     index column (u64, strictly ascending, at most
///               `windows` of them), then per index its tuple-ID column
///               (u32, each naming a segment tuple)
///   windowed    key · on · off columns (u32 each, keys strictly
///               ascending), seen_asns column (u32, strictly ascending),
///               unique_tuples, unique_paths (u64)
///   labels      key column (u32, strictly ascending), intent column
///               (u8: 0 action, 1 information)
///   excluded    key column (u32, strictly ascending), reason column
///               (u8: 0 private, 1 reserved, 2 never on path)
/// ```
///
/// Keys are packed communities, `α << 16 | β`. Version 1 was a JSON
/// manifest; it is refused as [`LoadError::Foreign`]. Version 2 held u64
/// fingerprint sets, once cumulative and again per bucket; it is refused
/// as [`LoadError::Version`].
#[derive(Debug, Clone, PartialEq)]
pub struct WatchCheckpoint {
    /// Resume position in the delivered byte stream (frame-aligned: every
    /// byte before it has been decoded or resynced past and folded).
    pub cursor: u64,
    /// MRT records decoded so far.
    pub records: u64,
    /// Observations folded so far.
    pub observations: u64,
    /// Window advances so far.
    pub advances: u64,
    /// Label flips counted so far.
    pub flaps: u64,
    /// Late observations dropped so far.
    pub late_drops: u64,
    /// Owners re-run through the classifier so far.
    pub reclassified_owners: u64,
    /// Bucket width the run was started with (resume refuses a mismatch).
    pub window_secs: u32,
    /// Retained bucket count the run was started with.
    pub windows: usize,
    /// The statistics segment: every tuple delivered so far (the
    /// batch-parity substrate), and the IDs the buckets list.
    pub cumulative: StatsSnapshot,
    /// Every retained window bucket, ascending by index.
    pub buckets: Vec<WatchBucket>,
    /// The dirty-owner diff base (see [`WindowedStatsSnapshot`]).
    pub windowed: WindowedStatsSnapshot,
    /// Current labels as `(packed community, intent)`, sorted by key.
    pub labels: Vec<(u32, Intent)>,
    /// Current exclusions as `(packed community, reason)`, sorted by key.
    pub excluded: Vec<(u32, Exclusion)>,
}

impl WatchCheckpoint {
    /// The envelope of watch checkpoint files.
    pub const FORMAT: Format = Format {
        magic: *b"BGPWCKPT",
        version: 3,
        name: "checkpoint",
    };

    /// The daemon's state: [`WindowedClassifier::checkpoint`].
    /// `_cumulative` is ignored — the classifier's own segment is the
    /// cumulative state; the parameter remains for callers that still keep
    /// an accumulator of their own.
    pub fn capture(
        classifier: &WindowedClassifier,
        _cumulative: &StatsAccumulator,
        cursor: u64,
        records: u64,
        observations: u64,
    ) -> WatchCheckpoint {
        classifier.checkpoint(cursor, records, observations)
    }

    /// The sealed file: the payload columns in the order the type-level
    /// layout lists them. One pass over the state, plus one checksum pass
    /// over the bytes.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut w = ColumnWriter::new();
        for scalar in [
            self.cursor,
            self.records,
            self.observations,
            self.advances,
            self.flaps,
            self.late_drops,
            self.reclassified_owners,
            u64::from(self.window_secs),
            self.windows as u64,
        ] {
            w.u64(scalar);
        }
        self.cumulative.encode(&mut w);
        w.column(&self.buckets, |b| b.index.to_le_bytes());
        for bucket in &self.buckets {
            w.column(&bucket.tuples, |t| t.to_le_bytes());
        }
        let windowed = &self.windowed;
        w.column(&windowed.counts, |&(key, _, _)| key.to_le_bytes());
        w.column(&windowed.counts, |&(_, on, _)| on.to_le_bytes());
        w.column(&windowed.counts, |&(_, _, off)| off.to_le_bytes());
        w.column(&windowed.seen_asns, |a| a.to_le_bytes());
        w.u64(windowed.unique_tuples);
        w.u64(windowed.unique_paths);
        put_keyed(&mut w, &self.labels, &INTENTS);
        put_keyed(&mut w, &self.excluded, &EXCLUSIONS);
        w.seal(&Self::FORMAT)
    }

    /// Encode and write durably through [`persist::write_atomic`] (temp
    /// file, fsync, rename, directory fsync). A crash at any point leaves
    /// the previous checkpoint or this one — never a torn file.
    pub fn save_atomic(&self, path: &Path) -> io::Result<()> {
        persist::write_atomic(path, &self.encode())
    }

    /// Read, validate and decode the checkpoint at `path`. The envelope is
    /// checked first, then every column count against the bytes left,
    /// then the structure: the segment's (see
    /// `StatsAccumulator::decode`), bucket indices strictly ascending and
    /// no more than `windows` of them, every bucket's tuple IDs naming
    /// segment tuples, every key column strictly ascending, every
    /// label and reason byte in its domain, no trailing bytes. Damage of
    /// any kind is a typed [`LoadError`], never a panic or partial state;
    /// a missing file is a clean not-found (the fresh-start signal).
    pub fn load(path: &Path) -> Result<WatchCheckpoint, LoadError> {
        Self::FORMAT.load(path, Self::decode_payload)
    }

    fn decode_payload(payload: &[u8]) -> Result<WatchCheckpoint, String> {
        let mut r = ColumnReader::new(payload);
        let cursor = r.u64("cursor")?;
        let records = r.u64("records")?;
        let observations = r.u64("observations")?;
        let advances = r.u64("advances")?;
        let flaps = r.u64("flaps")?;
        let late_drops = r.u64("late_drops")?;
        let reclassified_owners = r.u64("reclassified_owners")?;
        let window_secs = r.u64("window_secs")?;
        let window_secs = u32::try_from(window_secs)
            .map_err(|_| format!("window_secs {window_secs} out of range"))?;
        let windows = r.u64("windows")?;
        let windows =
            usize::try_from(windows).map_err(|_| format!("windows {windows} out of range"))?;
        let cumulative = StatsSnapshot::decode(&mut r)?;

        let indices = r.column("bucket indices", u64::from_le_bytes)?;
        if indices.len() > windows {
            return Err(format!(
                "{} buckets, more than the {windows} the window retains",
                indices.len()
            ));
        }
        if !strictly_ascending(&indices) {
            return Err("bucket indices not strictly ascending".into());
        }
        let tuple_count = cumulative.tuple_count() as u64;
        let mut buckets = Vec::with_capacity(indices.len());
        for index in indices {
            let tuples = r.column("bucket tuples", u32::from_le_bytes)?;
            if let Some(t) = tuples.iter().find(|&&t| u64::from(t) >= tuple_count) {
                return Err(format!("bucket {index} lists tuple {t}, of {tuple_count}"));
            }
            buckets.push(WatchBucket { index, tuples });
        }

        let keys = r.column("windowed keys", u32::from_le_bytes)?;
        let on = r.column("windowed on counts", u32::from_le_bytes)?;
        let off = r.column("windowed off counts", u32::from_le_bytes)?;
        if on.len() != keys.len() || off.len() != keys.len() {
            return Err(format!(
                "windowed counts: {} keys, {} on, {} off",
                keys.len(),
                on.len(),
                off.len()
            ));
        }
        if !strictly_ascending(&keys) {
            return Err("windowed keys not strictly ascending".into());
        }
        let seen_asns = r.column("windowed seen_asns", u32::from_le_bytes)?;
        if !strictly_ascending(&seen_asns) {
            return Err("windowed seen_asns not strictly ascending".into());
        }
        let windowed = WindowedStatsSnapshot {
            counts: keys
                .into_iter()
                .zip(on)
                .zip(off)
                .map(|((key, on), off)| (key, on, off))
                .collect(),
            seen_asns,
            unique_tuples: r.u64("windowed unique_tuples")?,
            unique_paths: r.u64("windowed unique_paths")?,
        };
        let labels = keyed_bytes(&mut r, "labels", &INTENTS)?;
        let excluded = keyed_bytes(&mut r, "exclusions", &EXCLUSIONS)?;
        r.finish()?;
        Ok(WatchCheckpoint {
            cursor,
            records,
            observations,
            advances,
            flaps,
            late_drops,
            reclassified_owners,
            window_secs,
            windows,
            cumulative,
            buckets,
            windowed,
            labels,
            excluded,
        })
    }
}

fn strictly_ascending<T: Ord>(xs: &[T]) -> bool {
    xs.windows(2).all(|w| w[0] < w[1])
}

/// The intent column's byte domain: a label is stored as its index here.
const INTENTS: [Intent; 2] = [Intent::Action, Intent::Information];

/// The exclusion column's byte domain.
const EXCLUSIONS: [Exclusion; 3] = [
    Exclusion::PrivateAsn,
    Exclusion::ReservedAsn,
    Exclusion::NeverOnPath,
];

/// A key column (u32), then one byte per value: its index in `domain`.
fn put_keyed<T: PartialEq>(w: &mut ColumnWriter, items: &[(u32, T)], domain: &[T]) {
    w.column(items, |&(key, _)| key.to_le_bytes());
    w.column(items, |(_, v)| {
        [domain
            .iter()
            .position(|d| d == v)
            .expect("a value in its domain") as u8]
    });
}

/// Read back what [`put_keyed`] wrote: the keys strictly ascending, and
/// every byte an index into `domain`.
fn keyed_bytes<T: Copy>(
    r: &mut ColumnReader<'_>,
    what: &str,
    domain: &[T],
) -> Result<Vec<(u32, T)>, String> {
    let keys = r.column(what, u32::from_le_bytes)?;
    let bytes = r.bytes(what)?;
    if bytes.len() != keys.len() {
        return Err(format!(
            "{what}: {} keys, {} values",
            keys.len(),
            bytes.len()
        ));
    }
    if !strictly_ascending(&keys) {
        return Err(format!("{what}: keys not strictly ascending"));
    }
    keys.into_iter()
        .zip(bytes)
        .map(|(key, &b)| {
            domain
                .get(usize::from(b))
                .map(|&v| (key, v))
                .ok_or_else(|| format!("{what}: value byte {b} out of range"))
        })
        .collect()
}

/// Everything [`run_watch`] needs beyond the source and sibling map.
#[derive(Debug, Clone)]
pub struct WatchOptions {
    /// Sliding-window geometry.
    pub window: WindowConfig,
    /// Classifier parameters.
    pub infer: InferenceConfig,
    /// Delivery-layer tuning (queue cap, stall timeout, retry, quiesce).
    pub tuning: StreamTuning,
    /// Decode resilience policy (error budget, resync bounds).
    pub recover: RecoverConfig,
    /// Checkpoint manifest path; `None` disables checkpointing (and
    /// resume).
    pub checkpoint: Option<PathBuf>,
    /// Window advances between checkpoints (minimum 1).
    pub checkpoint_every: u64,
    /// Metrics registry to record `watch/*`, `classify/*`, `stream/*`, and
    /// `ingest/*` series into.
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// Test injection: sleep this long after each record, making the
    /// consumer slow enough to exercise backpressure deterministically.
    pub slow_fold: Option<Duration>,
    /// Test injection: simulate a SIGKILL (`process::exit(9)`, no
    /// checkpoint flush, no cleanup) at the first record boundary after
    /// this many total window advances.
    pub crash_after_windows: Option<u64>,
}

impl Default for WatchOptions {
    fn default() -> Self {
        WatchOptions {
            window: WindowConfig::default(),
            infer: InferenceConfig::default(),
            tuning: StreamTuning::default(),
            recover: RecoverConfig::default(),
            checkpoint: None,
            checkpoint_every: 1,
            metrics: None,
            slow_fold: None,
            crash_after_windows: None,
        }
    }
}

/// What a watch run produced (at shutdown or the quiescent point).
#[derive(Debug)]
pub struct WatchOutcome {
    /// Whether the run resumed from an existing checkpoint.
    pub resumed: bool,
    /// MRT records decoded (including any re-delivered after resume).
    pub records: u64,
    /// Observations folded.
    pub observations: u64,
    /// Window advances.
    pub advances: u64,
    /// Label flips counted.
    pub flaps: u64,
    /// Late observations dropped.
    pub late_drops: u64,
    /// Owners re-run through the incremental classifier.
    pub reclassified_owners: u64,
    /// Final stream cursor (bytes delivered and folded).
    pub cursor: u64,
    /// Windowed labels at the end of the run.
    pub windowed_labels: FxHashMap<Community, Intent>,
    /// Cumulative statistics over everything delivered.
    pub stats: PathStats,
    /// Full classification of the cumulative statistics — the object the
    /// batch-parity check compares against a batch run.
    pub inference: Inference,
    /// Decode accounting.
    pub report: IngestReport,
    /// Delivery-layer counters (reconnects, stalls, backpressure, queue
    /// peak).
    pub counters: Arc<StreamCounters>,
}

/// Record the run's series into `metrics` (end-of-run totals, matching the
/// batch pipeline's convention).
fn record_watch_metrics(
    metrics: &MetricsRegistry,
    outcome_counters: &StreamCounters,
    classifier: &WindowedClassifier,
    records: u64,
    observations: u64,
    report: &IngestReport,
) {
    metrics.counter("watch/records").add(records);
    metrics.counter("watch/observations").add(observations);
    metrics
        .counter("watch/windows_advanced")
        .add(classifier.advances());
    metrics
        .counter("watch/late_drops")
        .add(classifier.late_drops());
    metrics.counter("classify/flaps").add(classifier.flaps());
    metrics
        .counter("classify/reclassified_owners")
        .add(classifier.reclassified_owners());
    let c = outcome_counters;
    metrics
        .counter("ingest/backpressure_stalls")
        .add(c.backpressure_stalls.load(Ordering::SeqCst));
    metrics
        .counter("stream/connections")
        .add(c.connections.load(Ordering::SeqCst));
    metrics
        .counter("stream/reconnects")
        .add(c.reconnects.load(Ordering::SeqCst));
    metrics
        .counter("stream/stalls")
        .add(c.stalls.load(Ordering::SeqCst));
    metrics
        .counter("stream/disconnects")
        .add(c.disconnects.load(Ordering::SeqCst));
    metrics
        .counter("stream/delivered_bytes")
        .add(c.delivered_bytes.load(Ordering::SeqCst));
    metrics
        .gauge("stream/queue_peak_bytes")
        .set(i64::try_from(c.queue_peak_bytes.load(Ordering::SeqCst)).unwrap_or(i64::MAX));
    report.record_metrics(metrics);
}

/// The sink [`run_watch`] decodes into: every borrowed observation folds
/// straight into the classifier, with no owned copy in between.
struct WindowSink<'a> {
    classifier: &'a mut WindowedClassifier,
    siblings: &'a SiblingMap,
    folded: usize,
    /// Whether any fold advanced the window.
    advanced: bool,
}

impl ObservationSink for WindowSink<'_> {
    fn observation_count(&self) -> usize {
        self.folded
    }

    fn push_observation_view(&mut self, view: &ObservationView<'_>) {
        self.advanced |= self.classifier.observe_view(view, self.siblings);
        self.folded += 1;
    }
}

/// Run the streaming daemon over `source` until shutdown, the quiescent
/// point ([`StreamTuning::quiesce_after`]), or a terminal delivery error
/// (reconnect budget exhausted).
///
/// The loop per decoded record: fold each observation, borrowed from the
/// view decoder, into the windowed classifier (advance-before-fold), which
/// interns it once; at record boundaries, honor the crash injection and
/// the checkpoint cadence (checkpoints are only ever written at record
/// boundaries so the cursor is consistent with exactly the folds
/// performed). On exit a final
/// reclassification brings labels up to date with the head bucket, a final
/// checkpoint is flushed, and metrics are recorded — the same path for
/// graceful shutdown and quiesce.
pub fn run_watch<S: StreamSource>(
    source: S,
    siblings: &SiblingMap,
    opts: &WatchOptions,
    shutdown: Arc<AtomicBool>,
) -> io::Result<WatchOutcome> {
    let mut resumed = false;
    let (mut classifier, cursor_base, base_records, mut observations) = match opts
        .checkpoint
        .as_deref()
    {
        Some(path) if path.exists() => {
            let cp = WatchCheckpoint::load(path).map_err(io::Error::from)?;
            if cp.window_secs != opts.window.window_secs || cp.windows != opts.window.windows {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "checkpoint window geometry {}s x {} does not match requested {}s x {}",
                        cp.window_secs, cp.windows, opts.window.window_secs, opts.window.windows
                    ),
                ));
            }
            resumed = true;
            (
                WindowedClassifier::from_checkpoint(&cp, opts.infer.clone()),
                cp.cursor,
                cp.records,
                cp.observations,
            )
        }
        _ => (
            WindowedClassifier::new(opts.window, opts.infer.clone()),
            0,
            0,
            0,
        ),
    };

    let counters = Arc::new(StreamCounters::default());
    let stream = ResumingStream::new(
        source,
        opts.tuning.clone(),
        cursor_base,
        shutdown,
        counters.clone(),
    );
    let mut decoder = StreamDecoder::new(stream, opts.recover.clone());

    let checkpoint_every = opts.checkpoint_every.max(1);
    let mut last_checkpoint_advance = classifier.advances();
    loop {
        let mut sink = WindowSink {
            classifier: &mut classifier,
            siblings,
            folded: 0,
            advanced: false,
        };
        if decoder.next_record(&mut sink).is_none() {
            break;
        }
        let advanced = sink.advanced;
        observations += sink.folded as u64;
        if let Some(pause) = opts.slow_fold {
            std::thread::sleep(pause);
        }
        if advanced {
            if let Some(after) = opts.crash_after_windows {
                if classifier.advances() >= after {
                    // Simulated SIGKILL for crash-recovery tests: no
                    // checkpoint flush, no teardown, exit code 9 (mirrors
                    // 128+SIGKILL conventions without raising a signal).
                    std::process::exit(9);
                }
            }
            if let Some(path) = opts.checkpoint.as_deref() {
                if classifier.advances() - last_checkpoint_advance >= checkpoint_every {
                    let cursor = cursor_base + decoder.consumed_bytes();
                    let records = base_records + decoder.records_decoded();
                    classifier
                        .checkpoint(cursor, records, observations)
                        .save_atomic(path)?;
                    last_checkpoint_advance = classifier.advances();
                }
            }
        }
    }

    let report = decoder.report();
    if let Some(reason) = &report.aborted {
        return Err(io::Error::new(
            io::ErrorKind::ConnectionAborted,
            reason.clone(),
        ));
    }

    // Quiescent (or shutting down): bring labels up to date with the head
    // bucket's folds, then flush a final checkpoint so a restart resumes
    // from here instead of re-delivering the tail.
    classifier.reclassify(siblings);
    let cursor = cursor_base + decoder.consumed_bytes();
    let records = base_records + decoder.records_decoded();
    if let Some(path) = opts.checkpoint.as_deref() {
        classifier
            .checkpoint(cursor, records, observations)
            .save_atomic(path)?;
    }

    let stats = classifier.segment().to_stats();
    let inference = classify(&stats, siblings, &opts.infer);
    if let Some(metrics) = opts.metrics.as_deref() {
        record_watch_metrics(
            metrics,
            &counters,
            &classifier,
            records,
            observations,
            &report,
        );
    }
    Ok(WatchOutcome {
        resumed,
        records,
        observations,
        advances: classifier.advances(),
        flaps: classifier.flaps(),
        late_drops: classifier.late_drops(),
        reclassified_owners: classifier.reclassified_owners(),
        cursor,
        windowed_labels: classifier.labels().clone(),
        stats,
        inference,
        report,
        counters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_mrt::stream::MemoryFeed;
    use bgp_types::Asn;

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

    /// A churn workload: owner 100's community 100:10 alternates between
    /// information-looking windows (only on-path sightings) and
    /// action-looking windows (off-path sightings appear); owner 200 stays
    /// stable; owner 300 appears and disappears. Window width 100s.
    fn churn_stream() -> Vec<Observation> {
        let mut all = Vec::new();
        for w in 0u32..8 {
            let t = w * 100 + 5;
            // Keep owners on some path every window so exclusion stays off.
            all.push(obs(900, "900 100 999", &[], t));
            all.push(obs(900, "900 200 999", &[], t));
            if w % 2 == 0 {
                // Information-looking: 100:10 only on paths through 100.
                all.push(obs(
                    901,
                    &format!("901 100 {}", 600 + w),
                    &[(100, 10)],
                    t + 1,
                ));
                all.push(obs(
                    902,
                    &format!("902 100 {}", 700 + w),
                    &[(100, 10)],
                    t + 2,
                ));
            } else {
                // Action-looking: 100:10 rides paths avoiding 100 too.
                all.push(obs(903, &format!("903 {}", 800 + w), &[(100, 10)], t + 1));
                all.push(obs(
                    901,
                    &format!("901 100 {}", 600 + w),
                    &[(100, 10)],
                    t + 2,
                ));
            }
            // Stable information community.
            all.push(obs(904, "904 200 650", &[(200, 30)], t + 3));
            if w % 3 == 0 {
                all.push(obs(905, "905 300 660", &[(300, 40)], t + 4));
            }
        }
        all
    }

    fn window_cfg() -> WindowConfig {
        WindowConfig {
            window_secs: 100,
            windows: 2,
        }
    }

    #[test]
    fn incremental_reclassify_matches_full_classify() {
        let siblings = SiblingMap::default();
        let cfg = InferenceConfig {
            threads: 1,
            ..InferenceConfig::default()
        };
        let mut wc = WindowedClassifier::new(window_cfg(), cfg.clone());
        for (i, o) in churn_stream().iter().enumerate() {
            wc.observe(o, &siblings);
            // Pin the invariant at several mid-stream points, not only at
            // the end: after a manual reclassify the incremental maps must
            // equal a full classify over the windowed statistics.
            if i % 5 == 4 {
                wc.reclassify(&siblings);
                let full = classify(&wc.windowed_stats(), &siblings, &cfg);
                assert_eq!(wc.labels(), &full.labels, "labels diverged at obs {i}");
                assert_eq!(
                    wc.excluded(),
                    &full.excluded,
                    "exclusions diverged at obs {i}"
                );
            }
        }
        wc.reclassify(&siblings);
        let full = classify(&wc.windowed_stats(), &siblings, &cfg);
        assert_eq!(wc.labels(), &full.labels);
        assert_eq!(wc.excluded(), &full.excluded);
        assert!(wc.advances() >= 7, "windows advanced: {}", wc.advances());
        assert!(wc.flaps() > 0, "churn scenario must flap");
        // Incrementality is real: strictly fewer owner runs than a full
        // pass every advance would cost (3+ owners x 7+ advances).
        assert!(
            wc.reclassified_owners() < 3 * wc.advances(),
            "reclassified {} owners over {} advances — not incremental",
            wc.reclassified_owners(),
            wc.advances()
        );
    }

    #[test]
    fn flaps_deterministic_across_thread_counts() {
        let siblings = SiblingMap::default();
        let stream = churn_stream();
        let mut baseline: Option<(u64, FxHashMap<Community, Intent>)> = None;
        for threads in [1usize, 2, 8] {
            let cfg = InferenceConfig {
                threads,
                ..InferenceConfig::default()
            };
            let mut wc = WindowedClassifier::new(window_cfg(), cfg);
            for o in &stream {
                wc.observe(o, &siblings);
            }
            wc.reclassify(&siblings);
            match &baseline {
                None => baseline = Some((wc.flaps(), wc.labels().clone())),
                Some((flaps, labels)) => {
                    assert_eq!(wc.flaps(), *flaps, "flaps differ at threads={threads}");
                    assert_eq!(wc.labels(), labels, "labels differ at threads={threads}");
                }
            }
        }
        assert!(baseline.unwrap().0 > 0);
    }

    #[test]
    fn flaps_survive_checkpoint_resume() {
        let siblings = SiblingMap::default();
        let cfg = InferenceConfig {
            threads: 1,
            ..InferenceConfig::default()
        };
        let stream = churn_stream();

        let mut uninterrupted = WindowedClassifier::new(window_cfg(), cfg.clone());
        for o in &stream {
            uninterrupted.observe(o, &siblings);
        }
        uninterrupted.reclassify(&siblings);

        // Crash at every possible boundary: the resumed run must always
        // land on the identical flap count, label map and segment.
        for cut in [3usize, 9, 17, 25] {
            let mut before = WindowedClassifier::new(window_cfg(), cfg.clone());
            for o in &stream[..cut] {
                before.observe(o, &siblings);
            }
            let cp = decode(&before.checkpoint(0, 0, cut as u64).encode()).unwrap();
            let mut resumed = WindowedClassifier::from_checkpoint(&cp, cfg.clone());
            for o in &stream[cut..] {
                resumed.observe(o, &siblings);
            }
            resumed.reclassify(&siblings);
            assert_eq!(
                resumed.flaps(),
                uninterrupted.flaps(),
                "flaps differ, cut={cut}"
            );
            assert_eq!(
                resumed.labels(),
                uninterrupted.labels(),
                "labels differ, cut={cut}"
            );
            assert_eq!(
                resumed.segment(),
                uninterrupted.segment(),
                "cumulative segment differs, cut={cut}"
            );
            assert_eq!(
                resumed.checkpoint(0, 0, 0),
                uninterrupted.checkpoint(0, 0, 0),
                "resumed state differs, cut={cut}"
            );
        }
    }

    #[test]
    fn late_observations_fold_or_drop_deterministically() {
        let siblings = SiblingMap::default();
        let mut wc = WindowedClassifier::new(
            WindowConfig {
                window_secs: 100,
                windows: 2,
            },
            InferenceConfig::default(),
        );
        wc.observe(&obs(1, "1 100 2", &[(100, 1)], 50), &siblings); // bucket 0
        wc.observe(&obs(1, "1 100 3", &[(100, 1)], 550), &siblings); // bucket 5
                                                                     // Late but retained (bucket 4): folds, no drop.
        wc.observe(&obs(1, "1 100 4", &[(100, 2)], 450), &siblings);
        assert_eq!(wc.late_drops(), 0);
        assert_eq!(wc.bucket_count(), 2);
        // Evicted bucket (0): dropped and counted, never folded.
        wc.observe(&obs(1, "1 100 5", &[(100, 3)], 60), &siblings);
        assert_eq!(wc.late_drops(), 1);
        let stats = wc.windowed_stats();
        assert!(stats.counts(Community::new(100, 2)).is_some());
        assert!(stats.counts(Community::new(100, 3)).is_none());
    }

    /// A mid-stream checkpoint of the churn stream whose head bucket also
    /// holds a private-ASN community and one whose owner is never on a
    /// path, so labels and both kinds of exclusion are all populated.
    fn churn_checkpoint() -> WatchCheckpoint {
        let siblings = SiblingMap::default();
        let mut wc = WindowedClassifier::new(window_cfg(), InferenceConfig::default());
        let mut stream = churn_stream()[..12].to_vec();
        let head_time = stream[11].time;
        stream.push(obs(908, "908 999", &[(64600, 7), (400, 1)], head_time));
        for o in &stream {
            wc.observe(o, &siblings);
        }
        wc.reclassify(&siblings);
        wc.checkpoint(777, 12, 13)
    }

    /// Open and decode a watch checkpoint held in memory.
    fn decode(file: &[u8]) -> Result<WatchCheckpoint, LoadError> {
        WatchCheckpoint::FORMAT.decode(
            file,
            Path::new("watch.ckpt"),
            WatchCheckpoint::decode_payload,
        )
    }

    /// Seal `payload` with a valid envelope, so only the column decoder
    /// and the structural checks stand between damage and the state.
    fn reseal(payload: &[u8]) -> Vec<u8> {
        let mut file = vec![0; persist::HEADER_LEN];
        file.extend_from_slice(payload);
        WatchCheckpoint::FORMAT.seal(&mut file);
        file
    }

    fn refused_as_corrupt(bytes: &[u8], expect: &str) {
        match decode(bytes).expect_err("damaged checkpoint must be refused") {
            LoadError::Corrupt { detail, .. } => {
                assert!(
                    detail.contains(expect),
                    "expected {expect:?}, got {detail:?}"
                )
            }
            other => panic!("expected a corrupt-file error, got {other}"),
        }
    }

    /// The watch-specific half of the damage checks: the envelope's own
    /// matrix (truncation, bit flips, forged header fields) runs for every
    /// format in `tests/formats.rs`.
    #[test]
    fn watch_checkpoint_roundtrips_and_rejects_damage() {
        let cp = churn_checkpoint();
        assert!(cp.buckets.len() == 2 && cp.labels.len() >= 2);
        assert_eq!(
            cp.excluded.iter().map(|&(_, e)| e).collect::<Vec<_>>(),
            [Exclusion::NeverOnPath, Exclusion::PrivateAsn]
        );

        let dir = std::env::temp_dir().join(format!("bgp-watch-cp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("watch.ckpt");
        cp.save_atomic(&path).unwrap();
        let sealed = std::fs::read(&path).unwrap();
        assert_eq!(sealed, cp.encode(), "encoding is deterministic");
        assert_eq!(WatchCheckpoint::load(&path).unwrap(), cp);
        let payload = &sealed[persist::HEADER_LEN..];

        // Oversized element counts in the first column (the segment's path
        // ends, after the nine scalars), resealed so the count itself is
        // what gets checked — before any allocation is sized by it.
        const FIRST_COLUMN: usize = 9 * 8;
        for count in [u64::MAX, 1 << 40, payload.len() as u64] {
            let mut forged = payload.to_vec();
            forged[FIRST_COLUMN..FIRST_COLUMN + 8].copy_from_slice(&count.to_le_bytes());
            refused_as_corrupt(&reseal(&forged), "exceed");
        }
        // A label byte outside the intent domain (the intent column sits
        // just before the two exclusion columns at the end).
        let (n, m) = (cp.labels.len(), cp.excluded.len());
        let intents = payload.len() - (8 + m) - (8 + 4 * m) - n;
        let mut forged = payload.to_vec();
        forged[intents] = 7;
        refused_as_corrupt(&reseal(&forged), "out of range");

        // Structure that passes the checksum but breaks an invariant.
        let mut bad = cp.clone();
        bad.buckets.reverse();
        refused_as_corrupt(&bad.encode(), "bucket indices not strictly ascending");
        let mut bad = cp.clone();
        bad.windows = 1;
        refused_as_corrupt(&bad.encode(), "more than the 1 the window retains");
        let mut bad = cp.clone();
        bad.labels.swap(0, 1);
        refused_as_corrupt(&bad.encode(), "labels: keys not strictly ascending");
        let mut bad = cp.clone();
        bad.labels.push(bad.labels[n - 1]);
        refused_as_corrupt(&bad.encode(), "labels: keys not strictly ascending");
        let mut bad = cp.clone();
        bad.excluded.reverse();
        refused_as_corrupt(&bad.encode(), "exclusions: keys not strictly ascending");
        let mut bad = cp.clone();
        let tuples = cp.cumulative.tuple_count() as u32;
        bad.buckets[0].tuples.push(tuples);
        refused_as_corrupt(&bad.encode(), &format!("lists tuple {tuples}, of {tuples}"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The tuple IDs each retained bucket lists, by bucket index.
    fn bucket_lists(wc: &WindowedClassifier) -> Vec<(u64, Vec<u32>)> {
        wc.checkpoint(0, 0, 0)
            .buckets
            .into_iter()
            .map(|b| (b.index, b.tuples))
            .collect()
    }

    #[test]
    fn bucket_of_divides_time_by_the_width() {
        let w = window_cfg();
        assert_eq!(w.bucket_of(0), 0);
        assert_eq!(w.bucket_of(99), 0);
        assert_eq!(w.bucket_of(100), 1);
        assert_eq!(w.bucket_of(u32::MAX), u64::from(u32::MAX) / 100);
        let zero = WindowConfig {
            window_secs: 0,
            windows: 1,
        };
        assert_eq!(zero.bucket_of(42), 42, "a zero width never divides by zero");
        assert_eq!(
            WindowConfig::default(),
            WindowConfig {
                window_secs: 3600,
                windows: 24
            }
        );
    }

    #[test]
    fn a_new_classifier_holds_nothing() {
        let wc = WindowedClassifier::new(window_cfg(), InferenceConfig::default());
        assert_eq!(wc.window(), window_cfg());
        assert_eq!(wc.bucket_count(), 0);
        assert!(wc.labels().is_empty() && wc.excluded().is_empty());
        assert_eq!(
            (
                wc.flaps(),
                wc.advances(),
                wc.late_drops(),
                wc.reclassified_owners()
            ),
            (0, 0, 0, 0)
        );
        assert_eq!(wc.windowed_stats(), PathStats::default());
        assert_eq!(wc.segment(), &StatsAccumulator::new());
        let cp = decode(&wc.checkpoint(0, 0, 0).encode()).unwrap();
        assert!(cp.buckets.is_empty() && cp.labels.is_empty());
        let resumed = WindowedClassifier::from_checkpoint(&cp, InferenceConfig::default());
        assert_eq!(resumed.checkpoint(0, 0, 0), wc.checkpoint(0, 0, 0));
    }

    #[test]
    fn the_head_bucket_lists_each_tuple_once() {
        let siblings = SiblingMap::default();
        let mut wc = WindowedClassifier::new(window_cfg(), InferenceConfig::default());
        let o = obs(1, "1 100 2", &[(100, 1)], 10);
        for _ in 0..3 {
            assert!(!wc.observe(&o, &siblings));
        }
        wc.observe(&obs(1, "1 100 3", &[(100, 1)], 20), &siblings);
        wc.observe(&o, &siblings);
        assert_eq!(bucket_lists(&wc), vec![(0, vec![0, 1])]);
        assert_eq!(wc.segment().tuple_count(), 2);
    }

    #[test]
    fn a_late_fold_into_an_older_bucket_is_listed_again() {
        let siblings = SiblingMap::default();
        let mut wc = WindowedClassifier::new(window_cfg(), InferenceConfig::default());
        let o = obs(1, "1 100 2", &[(100, 1)], 10);
        wc.observe(&o, &siblings);
        assert!(wc.observe(&obs(1, "1 100 3", &[], 110), &siblings));
        // Two late folds of the same tuple into bucket 0: both listed, and
        // the tuple's count absorbs the repeat.
        wc.observe(&o, &siblings);
        wc.observe(&o, &siblings);
        assert_eq!(bucket_lists(&wc), vec![(0, vec![0, 0, 0]), (1, vec![1])]);
        // Bucket 0 expires only once bucket 2 opens; then the tuple leaves
        // the window entirely.
        wc.observe(&obs(1, "1 100 4", &[], 210), &siblings);
        assert!(wc.windowed_stats().counts(Community::new(100, 1)).is_none());
        assert_eq!(wc.late_drops(), 0);
    }

    #[test]
    fn an_unseen_late_bucket_is_opened_in_order() {
        let siblings = SiblingMap::default();
        let mut wc = WindowedClassifier::new(
            WindowConfig {
                window_secs: 100,
                windows: 4,
            },
            InferenceConfig::default(),
        );
        wc.observe(&obs(1, "1 100 2", &[], 10), &siblings); // bucket 0
        wc.observe(&obs(1, "1 100 3", &[], 310), &siblings); // bucket 3
        wc.observe(&obs(1, "1 100 4", &[], 150), &siblings); // bucket 1, late
        wc.observe(&obs(1, "1 100 5", &[], 250), &siblings); // bucket 2, late
        let indices: Vec<u64> = bucket_lists(&wc).into_iter().map(|(i, _)| i).collect();
        assert_eq!(indices, vec![0, 1, 2, 3]);
        assert_eq!(wc.advances(), 1);
        assert_eq!(wc.windowed_stats().unique_paths, 4);
    }

    #[test]
    fn a_jump_past_the_window_evicts_every_older_bucket() {
        let siblings = SiblingMap::default();
        let mut wc = WindowedClassifier::new(window_cfg(), InferenceConfig::default());
        wc.observe(&obs(1, "1 100 2", &[(100, 1)], 10), &siblings);
        wc.observe(&obs(1, "1 100 3", &[(100, 2)], 110), &siblings);
        assert_eq!(wc.bucket_count(), 2);
        assert!(wc.observe(&obs(1, "1 100 4", &[(100, 3)], 5_000), &siblings));
        assert_eq!(
            wc.advances(),
            2,
            "one advance per opened head, not per bucket"
        );
        assert_eq!(wc.bucket_count(), 1);
        let windowed = wc.windowed_stats();
        assert_eq!(windowed.community_count(), 1);
        assert!(windowed.counts(Community::new(100, 3)).is_some());
        // The segment keeps everything ever folded.
        assert_eq!(wc.segment().to_stats().community_count(), 3);
    }

    #[test]
    fn late_drops_still_reach_the_cumulative_segment() {
        let siblings = SiblingMap::default();
        let mut wc = WindowedClassifier::new(window_cfg(), InferenceConfig::default());
        let stream = vec![
            obs(1, "1 100 2", &[(100, 1)], 510),
            obs(1, "1 100 3", &[(100, 2)], 10),
            obs(1, "1 200 3", &[(200, 2)], 20),
        ];
        for o in &stream {
            wc.observe(o, &siblings);
        }
        assert_eq!(wc.late_drops(), 2);
        assert_eq!(
            wc.windowed_stats(),
            crate::stats::reference_stats(&stream[..1], &siblings)
        );
        assert_eq!(
            wc.segment().to_stats(),
            crate::stats::reference_stats(&stream, &siblings)
        );
    }

    #[test]
    fn windowed_stats_see_folds_before_the_next_reclassification() {
        let siblings = SiblingMap::default();
        let mut wc = WindowedClassifier::new(window_cfg(), InferenceConfig::default());
        let stream = churn_stream();
        for o in &stream[..6] {
            wc.observe(o, &siblings);
        }
        let labels = wc.labels().clone();
        let before = wc.windowed_stats();
        wc.observe(
            &obs(950, "950 100 951", &[(100, 77)], stream[5].time),
            &siblings,
        );
        assert!(wc
            .windowed_stats()
            .counts(Community::new(100, 77))
            .is_some());
        assert!(before.counts(Community::new(100, 77)).is_none());
        assert_eq!(wc.labels(), &labels, "labels wait for the reclassification");
        // And a resume rebuilds those counts from the bucket lists.
        let cp = decode(&wc.checkpoint(0, 0, 0).encode()).unwrap();
        let resumed = WindowedClassifier::from_checkpoint(&cp, InferenceConfig::default());
        assert_eq!(resumed.windowed_stats(), wc.windowed_stats());
    }

    #[test]
    fn reclassifying_an_unchanged_window_reruns_no_owner() {
        let siblings = SiblingMap::default();
        let mut wc = WindowedClassifier::new(window_cfg(), InferenceConfig::default());
        for o in &churn_stream() {
            wc.observe(o, &siblings);
        }
        wc.reclassify(&siblings);
        let (owners, flaps) = (wc.reclassified_owners(), wc.flaps());
        assert_eq!(wc.reclassify(&siblings), 0);
        assert_eq!(wc.reclassified_owners(), owners);
        assert_eq!(wc.flaps(), flaps);
    }

    #[test]
    fn capture_ignores_the_accumulator_it_is_given() {
        let siblings = SiblingMap::default();
        let mut wc = WindowedClassifier::new(window_cfg(), InferenceConfig::default());
        for o in &churn_stream()[..10] {
            wc.observe(o, &siblings);
        }
        let mut unrelated = StatsAccumulator::new();
        unrelated.ingest_ordered(&churn_stream()[20..], &siblings);
        let captured = WatchCheckpoint::capture(&wc, &unrelated, 5, 6, 7);
        assert_eq!(captured, wc.checkpoint(5, 6, 7));
        assert_eq!(&captured.cumulative, wc.segment());
        assert_eq!(
            (captured.cursor, captured.records, captured.observations),
            (5, 6, 7)
        );
    }

    #[test]
    fn the_diff_base_roundtrips_exactly() {
        let siblings = SiblingMap::default();
        let stats = PathStats::from_observations(&churn_stream(), &siblings);
        let snapshot = WindowedStatsSnapshot::from_stats(&stats);
        assert!(strictly_ascending(&snapshot.counts));
        assert!(strictly_ascending(&snapshot.seen_asns));
        assert_eq!(snapshot.to_stats(), stats);
        assert_eq!(
            WindowedStatsSnapshot::from_stats(&PathStats::default()),
            WindowedStatsSnapshot::default()
        );
    }

    #[test]
    fn every_prefix_of_a_watch_payload_is_refused() {
        let file = churn_checkpoint().encode();
        let payload = &file[persist::HEADER_LEN..];
        assert!(WatchCheckpoint::decode_payload(payload).is_ok());
        for cut in 0..payload.len() {
            assert!(
                WatchCheckpoint::decode_payload(&payload[..cut]).is_err(),
                "a cut at {cut} of {} decoded",
                payload.len()
            );
        }
    }

    #[test]
    fn windowed_columns_and_geometry_are_checked_behind_the_seal() {
        let cp = churn_checkpoint();
        let payload = cp.encode()[persist::HEADER_LEN..].to_vec();
        // window_secs is the eighth scalar and must fit in 32 bits.
        let mut forged = payload.clone();
        forged[7 * 8..8 * 8].copy_from_slice(&(1u64 << 32).to_le_bytes());
        refused_as_corrupt(&reseal(&forged), "window_secs 4294967296 out of range");

        let mut bad = cp.clone();
        bad.windowed.seen_asns.reverse();
        refused_as_corrupt(&bad.encode(), "windowed seen_asns not strictly ascending");
        let mut bad = cp.clone();
        bad.windowed.counts.swap(0, 1);
        refused_as_corrupt(&bad.encode(), "windowed keys not strictly ascending");
        // An exclusion byte outside its domain: the last byte of the file.
        let mut forged = payload.clone();
        *forged.last_mut().unwrap() = 3;
        refused_as_corrupt(&reseal(&forged), "exclusions: value byte 3 out of range");
    }

    #[test]
    fn a_resumed_head_bucket_still_lists_each_tuple_once() {
        let siblings = SiblingMap::default();
        let mut wc = WindowedClassifier::new(window_cfg(), InferenceConfig::default());
        let o = obs(1, "1 100 2", &[(100, 1)], 110);
        wc.observe(&obs(1, "1 100 3", &[], 10), &siblings);
        wc.observe(&o, &siblings);
        let cp = decode(&wc.checkpoint(0, 0, 0).encode()).unwrap();
        let mut resumed = WindowedClassifier::from_checkpoint(&cp, InferenceConfig::default());
        resumed.observe(&o, &siblings);
        wc.observe(&o, &siblings);
        assert_eq!(bucket_lists(&resumed), vec![(0, vec![0]), (1, vec![1])]);
        assert_eq!(bucket_lists(&resumed), bucket_lists(&wc));
    }

    #[test]
    fn a_window_of_one_bucket_keeps_only_the_head() {
        let siblings = SiblingMap::default();
        let mut wc = WindowedClassifier::new(
            WindowConfig {
                window_secs: 10,
                windows: 1,
            },
            InferenceConfig::default(),
        );
        for (i, t) in [1u32, 12, 25, 5].into_iter().enumerate() {
            wc.observe(
                &obs(1, &format!("1 100 {}", 200 + i), &[(100, i as u16)], t),
                &siblings,
            );
            assert_eq!(wc.bucket_count(), 1);
        }
        assert_eq!(wc.advances(), 2);
        assert_eq!(wc.late_drops(), 1, "bucket 0 left the window at time 12");
        let windowed = wc.windowed_stats();
        assert_eq!(windowed.community_count(), 1);
        assert!(windowed.counts(Community::new(100, 2)).is_some());
    }

    #[test]
    fn watch_checkpoint_files_keep_every_counter() {
        let mut cp = churn_checkpoint();
        cp.records = 11;
        cp.late_drops = 3;
        let dir = std::env::temp_dir().join(format!("bgp-watch-counters-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("watch.ckpt");
        assert!(
            WatchCheckpoint::load(&path).unwrap_err().is_not_found(),
            "a missing file is the fresh-start signal"
        );
        cp.save_atomic(&path).unwrap();
        let back = WatchCheckpoint::load(&path).unwrap();
        assert_eq!(
            (
                back.cursor,
                back.records,
                back.observations,
                back.late_drops
            ),
            (777, 11, 13, 3)
        );
        assert_eq!(back, cp);
        let resumed = WindowedClassifier::from_checkpoint(&back, InferenceConfig::default());
        assert_eq!(resumed.late_drops(), 3);
        assert_eq!(resumed.checkpoint(777, 11, 13), cp);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A small generated world streamed into one in-memory archive.
    fn memory_feed_world() -> (bgp_experiments::scenario::Scenario, Arc<Vec<u8>>) {
        use bgp_experiments::scenario::{Scenario, ScenarioConfig};

        let scenario = Scenario::build(&ScenarioConfig {
            seed: 0x57A7C4,
            scale: 0.08,
            ..ScenarioConfig::default()
        });
        let sim = scenario.simulator();
        let mut wire = Vec::new();
        scenario.stream_collect(&sim, 4, &mut wire).unwrap();
        (scenario, Arc::new(wire))
    }

    /// Options for a checkpointed run to quiescence over a memory feed.
    fn memory_feed_options(checkpoint: PathBuf, threads: usize) -> WatchOptions {
        WatchOptions {
            window: WindowConfig {
                window_secs: 14_400,
                windows: 3,
            },
            infer: InferenceConfig {
                threads,
                ..InferenceConfig::default()
            },
            tuning: StreamTuning {
                queue_bytes: 64 << 10,
                chunk_bytes: 8 << 10,
                stall_timeout: Duration::from_millis(200),
                quiesce_after: Some(2),
                ..StreamTuning::default()
            },
            checkpoint: Some(checkpoint),
            ..WatchOptions::default()
        }
    }

    /// End-to-end over an in-memory feed: the daemon's cumulative
    /// classification at the quiescent point equals a batch run over the
    /// same bytes, and the rolling machinery (advances, checkpoints)
    /// actually engaged.
    #[test]
    fn run_watch_matches_batch_over_memory_feed() {
        let (scenario, bytes) = memory_feed_world();
        let dir = std::env::temp_dir().join(format!("bgp-watch-e2e-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cp_path = dir.join("watch.ckpt");
        let _ = std::fs::remove_file(&cp_path);

        let opts = memory_feed_options(cp_path.clone(), 1);
        let outcome = run_watch(
            MemoryFeed::new(bytes.clone()),
            &scenario.siblings,
            &opts,
            Arc::new(AtomicBool::new(false)),
        )
        .unwrap();

        assert!(outcome.advances > 0, "windows must advance");
        assert_eq!(outcome.cursor, bytes.len() as u64);
        assert!(cp_path.exists(), "final checkpoint must be flushed");

        // Batch over the same bytes, through the batch kernel.
        let observations = bgp_mrt::obs::read_observations(&bytes[..]).unwrap();
        let stats = PathStats::from_observations(&observations, &scenario.siblings);
        let batch = classify(&stats, &scenario.siblings, &opts.infer);
        assert_eq!(outcome.stats, stats);
        assert_eq!(outcome.inference.labels, batch.labels);
        assert_eq!(outcome.inference.excluded, batch.excluded);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Folding the decoded views of the churn stream and observing its
    /// owned observations checkpoint byte-identically, at every advance
    /// and at the end.
    #[test]
    fn folding_decoded_views_matches_observing_owned_observations() {
        let siblings = SiblingMap::default();
        let stream = churn_stream();
        let mut wire = Vec::new();
        bgp_mrt::obs::write_update_stream(&mut wire, Asn::new(6447), &stream).unwrap();

        // One update record per observation, so an advance lands on the
        // same record boundary in both runs.
        let mut owned = WindowedClassifier::new(window_cfg(), InferenceConfig::default());
        let mut expected = Vec::new();
        for (i, o) in stream.iter().enumerate() {
            if owned.observe(o, &siblings) {
                expected.push(owned.checkpoint(0, 0, i as u64 + 1).encode());
            }
        }
        owned.reclassify(&siblings);
        expected.push(owned.checkpoint(0, 0, stream.len() as u64).encode());

        let mut viewed = WindowedClassifier::new(window_cfg(), InferenceConfig::default());
        let mut decoder = StreamDecoder::new(&wire[..], RecoverConfig::default());
        let (mut folded, mut got) = (0u64, Vec::new());
        loop {
            let mut sink = WindowSink {
                classifier: &mut viewed,
                siblings: &siblings,
                folded: 0,
                advanced: false,
            };
            match decoder.next_record(&mut sink) {
                None => break,
                Some(step) => step.unwrap(),
            }
            folded += sink.folded as u64;
            if sink.advanced {
                got.push(viewed.checkpoint(0, 0, folded).encode());
            }
        }
        viewed.reclassify(&siblings);
        got.push(viewed.checkpoint(0, 0, folded).encode());
        assert!(got.len() > 2, "the churn stream advances the window");
        assert_eq!(folded, stream.len() as u64);
        assert_eq!(got, expected);
    }

    /// Two fresh runs over the same feed write byte-identical checkpoints,
    /// whatever the classifier's thread count.
    #[test]
    fn checkpoint_bytes_are_identical_across_runs_and_thread_counts() {
        let (scenario, bytes) = memory_feed_world();
        let dir = std::env::temp_dir().join(format!("bgp-watch-det-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let written: Vec<Vec<u8>> = [1usize, 2]
            .iter()
            .map(|&threads| {
                let path = dir.join(format!("watch-{threads}.ckpt"));
                let _ = std::fs::remove_file(&path);
                let outcome = run_watch(
                    MemoryFeed::new(bytes.clone()),
                    &scenario.siblings,
                    &memory_feed_options(path.clone(), threads),
                    Arc::new(AtomicBool::new(false)),
                )
                .unwrap();
                assert!(outcome.advances > 0 && !outcome.resumed);
                std::fs::read(&path).unwrap()
            })
            .collect();
        assert_eq!(
            written[0], written[1],
            "checkpoint bytes differ across thread counts"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
