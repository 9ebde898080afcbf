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
//!   the tuple IDs folded into them, a reference count per tuple, the
//!   window's path counts, and the current label map. A path is touched
//!   when one of its tuples enters or leaves the window. Each advance
//!   evicts expired buckets, recounts only the touched paths with the
//!   stats kernel and applies the difference to the kept counts, and
//!   re-runs the classifier for the owners whose counts or never-on-path
//!   test moved. Late observations to evicted buckets are dropped from the
//!   window and counted.
//! * [`WatchCheckpoint`] — the daemon's [`Manifest`]: the stream cursor,
//!   each retained bucket's tuple IDs, the window's kept counts, the label
//!   map and the flap counters, beside the segment log that holds the
//!   segment. It saves as every manifest does ([`CheckpointSaver`]): only
//!   what the segment gained since the last save, so O(new data), not
//!   O(segment). Restoring it reproduces the daemon's exact state at the
//!   recorded cursor, so a resumed run counts the same flaps an
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
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bgp_mrt::stream::{ResumingStream, StreamCounters, StreamSource, StreamTuning};
use bgp_mrt::{IngestReport, RecoverConfig, StreamDecoder};
use bgp_relationships::SiblingMap;
use bgp_types::fx::{FxHashMap, FxHashSet};
use bgp_types::obs::MetricsRegistry;
use bgp_types::persist::{Format, LoadError};
use bgp_types::{Asn, Community, Intent, Observation, ObservationSink, ObservationView};

use crate::checkpoint::{
    self, CheckpointSaver, ColumnReader, ColumnWriter, LogColumns, Manifest, StatsAccumulator,
    StatsSnapshot,
};
use crate::classify::{classify, classify_owner, Exclusion, Inference, InferenceConfig};
use crate::stats::{shard_stats, PathCounts, PathStats};

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
///
/// The counts: the window keeps one [`PathStats`] — the kernel's output
/// over the tuples that were live at the last reclassification (the
/// *counted* tuples) — and, beside it, how many counted paths carry each
/// ASN. The classifier reads them, and a checkpoint stores them with how
/// long each bucket's list was when they were counted. A tuple's count
/// going 0 → 1 or 1 → 0 touches its path. A reclassification picks the
/// tuples on touched paths in one pass over the tuple IDs, runs the
/// kernel over the ones it counted and over the ones live now, and
/// applies the difference in place. That is exact because every figure
/// the kernel yields is a sum over unique paths, the same reason the
/// path-sharded reduce is exact. A fold therefore costs one intern, one
/// append, one increment and at most one touch; an eviction one decrement
/// (and at most one touch) per entry of the evicted bucket; and a
/// reclassification one pass over the tuple IDs plus the kernel over the
/// tuples of the touched paths.
#[derive(Debug)]
pub struct WindowedClassifier {
    window: WindowConfig,
    cfg: InferenceConfig,
    /// Every observation folded so far, each interned once: the cumulative
    /// statistics, and the tuple IDs the buckets list.
    segment: StatsAccumulator,
    /// Retained buckets, ascending by index. Sparse: only buckets that
    /// received at least one observation (plus the head) exist.
    buckets: VecDeque<WatchBucket>,
    /// Per tuple ID: its entries across the retained buckets' lists.
    refs: Vec<u32>,
    /// Per tuple ID: the index of the head bucket that listed it last, so
    /// the head bucket lists each tuple once.
    head_mark: Vec<u64>,
    /// Scratch an owned observation's path is flattened into by
    /// [`observe`](Self::observe).
    scratch: (Vec<(u8, u32)>, Vec<u32>),
    /// Per tuple ID: whether `counts` includes it.
    counted: Vec<bool>,
    /// Per path ID: whether one of its tuples entered or left the window
    /// since the last reclassification.
    touched: Vec<bool>,
    /// How many paths `touched` marks.
    touched_paths: u64,
    /// The kernel's output over the counted tuples: the windowed
    /// statistics as of the last reclassification.
    counts: PathStats,
    /// Per ASN value: how many counted paths carry it. Its keys are
    /// `counts.seen_asns`.
    asn_paths: FxHashMap<u32, u32>,
    /// The segment's statistics as the checkpoint this run resumed from
    /// recorded them at its exit save, if it did.
    recorded: Option<PathStats>,
    /// Current label per community, equal to `classify(counts)`'s labels.
    labels: FxHashMap<Community, Intent>,
    /// Current exclusions, equal to `classify(counts)`'s exclusions.
    excluded: FxHashMap<Community, Exclusion>,
    /// Communities currently holding a label or exclusion, per owner —
    /// the removal index for incremental reclassification.
    owner_communities: FxHashMap<u16, Vec<Community>>,
    flaps: u64,
    advances: u64,
    late_drops: u64,
    reclassified_owners: u64,
    /// Paths recounted by this process's reclassifications.
    recounted_paths: u64,
    /// Time this process spent in reclassifications.
    reclassify_time: Duration,
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
            counted: Vec::new(),
            touched: Vec::new(),
            touched_paths: 0,
            counts: PathStats::default(),
            asn_paths: FxHashMap::default(),
            recorded: None,
            labels: FxHashMap::default(),
            excluded: FxHashMap::default(),
            owner_communities: FxHashMap::default(),
            flaps: 0,
            advances: 0,
            late_drops: 0,
            reclassified_owners: 0,
            recounted_paths: 0,
            reclassify_time: Duration::ZERO,
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

    /// Paths this process's reclassifications recounted: every path whose
    /// live tuples changed, once per reclassification — after a resume as
    /// in the uninterrupted run, so a restart with nothing new to fold
    /// recounts none. Not carried in checkpoints.
    pub fn recounted_paths(&self) -> u64 {
        self.recounted_paths
    }

    /// Time this process spent in [`reclassify`](Self::reclassify).
    pub fn reclassify_time(&self) -> Duration {
        self.reclassify_time
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

    /// The segment's statistics. When the window counts every tuple of
    /// the segment — nothing was evicted or dropped late — they are its
    /// kept counts; when the checkpoint this run resumed from recorded them
    /// over exactly the tuples the segment holds — a restart that folded
    /// nothing new — they are the recorded ones. Either way the kernel does
    /// not run again.
    fn cumulative_stats(&self, threads: usize) -> PathStats {
        let tuples = self.segment.tuple_count();
        if self.counts.unique_tuples == tuples {
            self.counts.clone()
        } else if let Some(recorded) = self.recorded.as_ref().filter(|r| r.unique_tuples == tuples)
        {
            recorded.clone()
        } else {
            self.segment.to_stats_threaded(threads)
        }
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
            self.counted.push(false);
        }
        let bucket = self.window.bucket_of(obs.time);
        let head = match self.buckets.back() {
            Some(head) => head.index,
            None => {
                // The first observation seeds the head bucket.
                self.buckets.push_back(WatchBucket::empty(bucket));
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
        let at = match self.buckets.binary_search_by_key(&bucket, |b| b.index) {
            Ok(at) => at,
            Err(at) => {
                self.buckets.insert(at, WatchBucket::empty(bucket));
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
        let bucket = &mut self.buckets[at];
        if is_head {
            if self.head_mark[t] == bucket.index {
                return;
            }
            self.head_mark[t] = bucket.index;
        }
        bucket.tuples.push(tuple);
        self.refs[t] += 1;
        if self.refs[t] == 1 {
            self.touch(t);
        }
    }

    /// Mark the path of tuple `t` for recounting: the tuple entered or left
    /// the window.
    fn touch(&mut self, t: usize) {
        let path = (self.segment.tuple_keys()[t] >> 32) as usize;
        if path >= self.touched.len() {
            self.touched
                .resize(self.segment.interner().path_count(), false);
        }
        if !self.touched[path] {
            self.touched[path] = true;
            self.touched_paths += 1;
        }
    }

    /// Advance the head to `new_head`: evict buckets that fall out of the
    /// retention window, open the new head, reclassify.
    fn advance_to(&mut self, new_head: u64, siblings: &SiblingMap) {
        self.buckets.push_back(WatchBucket::empty(new_head));
        let floor = (new_head + 1).saturating_sub(self.window.windows as u64);
        while matches!(self.buckets.front(), Some(b) if b.index < floor) {
            if let Some(evicted) = self.buckets.pop_front() {
                for t in evicted.tuples {
                    let t = t as usize;
                    self.refs[t] -= 1;
                    if self.refs[t] == 0 {
                        self.touch(t);
                    }
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
        let start = Instant::now();
        let (mut dirty, changed_asns) = self.recount();
        if !changed_asns.is_empty() {
            // Owners that left the window are dirty already: their
            // communities' counts moved to zero.
            let owners: FxHashSet<u16> = self.counts.per_community.keys().map(|c| c.asn).collect();
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

        let mut by_owner: Vec<Vec<u16>> = vec![Vec::new(); dirty.len()];
        for c in self.counts.per_community.keys() {
            if let Ok(i) = dirty.binary_search(&c.asn) {
                by_owner[i].push(c.value);
            }
        }
        let mut flaps_now = 0u64;
        let mut scratch = Inference::default();
        for (&asn, betas) in dirty.iter().zip(&mut by_owner) {
            scratch.labels.clear();
            scratch.excluded.clear();
            scratch.clusters.clear();
            if !betas.is_empty() {
                betas.sort_unstable();
                classify_owner(&self.counts, siblings, &self.cfg, asn, betas, &mut scratch);
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
        self.reclassify_time += start.elapsed();
        flaps_now
    }

    /// Recount the touched paths and apply the difference to the kept
    /// counts in place, returning the owners of the communities whose
    /// counts moved and the ASNs that entered or left the window since the
    /// last reclassification. From here on the counts include every tuple
    /// the buckets list.
    fn recount(&mut self) -> (Vec<u16>, FxHashSet<Asn>) {
        let mut dirty = Vec::new();
        let mut changed_asns = FxHashSet::default();
        for bucket in &mut self.buckets {
            bucket.counted = bucket.tuples.len();
        }
        if self.touched_paths == 0 {
            return (dirty, changed_asns);
        }
        let interner = self.segment.interner();
        self.touched.resize(interner.path_count(), false);
        let (mut old, mut new) = (Vec::new(), Vec::new());
        for (t, &key) in self.segment.tuple_keys().iter().enumerate() {
            if self.touched[(key >> 32) as usize] {
                let live = self.refs[t] > 0;
                if self.counted[t] {
                    old.push(key);
                }
                if live {
                    new.push(key);
                }
                self.counted[t] = live;
            }
        }
        let index = self.segment.on_path_index();
        let old = shard_stats(interner, &index, old);
        let new = shard_stats(interner, &index, new);
        self.touched.fill(false);
        self.recounted_paths += std::mem::take(&mut self.touched_paths);

        // Take the recounted paths' old share out and put their new share in.
        let counts = &mut self.counts;
        for (slot, (o, n)) in old.counts.iter().zip(&new.counts).enumerate() {
            if o != n {
                let c = interner.community(slot as u32);
                let kept = counts.per_community.entry(c).or_default();
                kept.on = kept.on - o.on + n.on;
                kept.off = kept.off - o.off + n.off;
                if kept.on + kept.off == 0 {
                    counts.per_community.remove(&c);
                }
                dirty.push(c.asn);
            }
        }
        counts.unique_tuples = counts.unique_tuples - old.unique_tuples + new.unique_tuples;
        counts.unique_paths = counts.unique_paths - old.unique_paths + new.unique_paths;
        // A path lists each of its members once, so an ASN's net change is
        // its entries in the new list less its entries in the old.
        let mut deltas: FxHashMap<u32, i64> = FxHashMap::default();
        for (members, step) in [(&old.members, -1), (&new.members, 1)] {
            for &asn in members {
                *deltas.entry(asn).or_default() += step;
            }
        }
        for (asn, delta) in deltas {
            if delta == 0 {
                continue;
            }
            let was = self.asn_paths.get(&asn).copied().unwrap_or(0);
            let now = (i64::from(was) + delta) as u32;
            let a = Asn::new(asn);
            if now == 0 {
                self.asn_paths.remove(&asn);
                counts.seen_asns.remove(&a);
                changed_asns.insert(a);
            } else {
                self.asn_paths.insert(asn, now);
                if was == 0 {
                    counts.seen_asns.insert(a);
                    changed_asns.insert(a);
                }
            }
        }
        (dirty, changed_asns)
    }

    /// Rebuild from a checkpoint — the exact state at the recorded cursor:
    /// the buckets, the kept counts, the tuples they count (each bucket's
    /// list up to its counted length) and so the touched paths, those with
    /// a live tuple not yet counted (between reclassifications tuples only
    /// enter the window). The resumed run therefore recounts, reclassifies
    /// and counts flaps as the uninterrupted one would. The segment is
    /// shared, not copied.
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
        for &c in labels.keys().chain(excluded.keys()) {
            owner_communities.entry(c.asn).or_default().push(c);
        }
        let tuples = cp.cumulative.tuple_count();
        let mut refs = vec![0u32; tuples];
        let mut counted = vec![false; tuples];
        let mut head_mark = vec![UNLISTED; tuples];
        for bucket in &cp.buckets {
            for &t in &bucket.tuples {
                refs[t as usize] += 1;
            }
            for &t in &bucket.tuples[..bucket.counted] {
                counted[t as usize] = true;
            }
        }
        if let Some(head) = cp.buckets.last() {
            for &t in &head.tuples {
                head_mark[t as usize] = head.index;
            }
        }
        let (counts, asn_paths) = cp.windowed.to_counts();
        let recorded = cp
            .cumulative_stats
            .as_ref()
            .map(PathStatsSnapshot::to_stats);
        let mut wc = WindowedClassifier {
            window: WindowConfig {
                window_secs: cp.window_secs,
                windows: cp.windows,
            },
            cfg,
            segment: cp.cumulative.clone(),
            buckets: cp.buckets.iter().cloned().collect(),
            refs,
            head_mark,
            scratch: (Vec::new(), Vec::new()),
            counted,
            touched: Vec::new(),
            touched_paths: 0,
            counts,
            asn_paths,
            recorded,
            labels,
            excluded,
            owner_communities,
            flaps: cp.flaps,
            advances: cp.advances,
            late_drops: cp.late_drops,
            reclassified_owners: cp.reclassified_owners,
            recounted_paths: 0,
            reclassify_time: Duration::ZERO,
        };
        for t in 0..tuples {
            if wc.refs[t] > 0 && !wc.counted[t] {
                wc.touch(t);
            }
        }
        wc
    }

    /// The daemon's state at `cursor` as a [`WatchCheckpoint`], sharing
    /// the segment rather than copying it. The segment's statistics are
    /// left out; the exit save adds them.
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
            buckets: self.buckets.iter().cloned().collect(),
            windowed: WindowedStatsSnapshot::of(&self.counts, &self.asn_paths),
            cumulative_stats: None,
            labels,
            excluded,
        }
    }
}

/// One retained bucket, as the window holds it and a [`WatchCheckpoint`]
/// stores it.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchBucket {
    /// The bucket index (`time / window_secs`).
    pub index: u64,
    /// The IDs of the segment tuples folded into the bucket, in fold order.
    pub tuples: Vec<u32>,
    /// How many of `tuples`, from the front, the window's counts include:
    /// the list's length at the last reclassification. Lists only grow
    /// between reclassifications, so these prefixes hold every counted
    /// tuple and no other.
    pub counted: usize,
}

impl WatchBucket {
    fn empty(index: u64) -> Self {
        WatchBucket {
            index,
            tuples: Vec::new(),
            counted: 0,
        }
    }
}

/// A [`PathStats`] as a checkpoint stores it, exactly: the window's kept
/// counts, and the segment's statistics an exit save records.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PathStatsSnapshot {
    /// `(packed community, on, off)` sorted by packed key.
    pub counts: Vec<(u32, u32, u32)>,
    /// ASN values on any counted path, sorted.
    pub seen_asns: Vec<u32>,
    /// Unique `(path, communities)` tuples counted.
    pub unique_tuples: u64,
    /// Unique AS paths counted.
    pub unique_paths: u64,
}

impl PathStatsSnapshot {
    /// The snapshot of `stats`.
    pub fn of(stats: &PathStats) -> Self {
        let mut counts: Vec<(u32, u32, u32)> = stats
            .per_community
            .iter()
            .map(|(&c, pc)| (c.to_u32(), pc.on, pc.off))
            .collect();
        counts.sort_unstable_by_key(|&(p, _, _)| p);
        let mut seen_asns: Vec<u32> = stats.seen_asns.iter().map(|a| a.value()).collect();
        seen_asns.sort_unstable();
        PathStatsSnapshot {
            counts,
            seen_asns,
            unique_tuples: stats.unique_tuples as u64,
            unique_paths: stats.unique_paths as u64,
        }
    }

    /// The inverse of [`of`](Self::of).
    pub fn to_stats(&self) -> PathStats {
        PathStats {
            per_community: self
                .counts
                .iter()
                .map(|&(p, on, off)| (Community::from_u32(p), PathCounts { on, off }))
                .collect(),
            seen_asns: self.seen_asns.iter().map(|&a| Asn::new(a)).collect(),
            unique_tuples: self.unique_tuples as usize,
            unique_paths: self.unique_paths as usize,
        }
    }
}

/// The window's kept counts as a checkpoint stores them, exactly, so a
/// resumed run diffs, recounts and counts flaps from the counts the
/// uninterrupted run held. (They are *not* derivable from the buckets
/// alone: folds since the last reclassification are part of the buckets
/// but not of the counts.)
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowedStatsSnapshot {
    /// The counts.
    pub stats: PathStatsSnapshot,
    /// Per entry of `stats.seen_asns`: how many counted paths carry it.
    pub asn_paths: Vec<u32>,
}

impl WindowedStatsSnapshot {
    /// `stats` and the path count of each of its `seen_asns`.
    fn of(stats: &PathStats, asn_paths: &FxHashMap<u32, u32>) -> Self {
        let stats = PathStatsSnapshot::of(stats);
        let asn_paths = stats
            .seen_asns
            .iter()
            .map(|a| asn_paths.get(a).copied().unwrap_or(0))
            .collect();
        WindowedStatsSnapshot { stats, asn_paths }
    }

    /// The inverse of [`of`](Self::of).
    fn to_counts(&self) -> (PathStats, FxHashMap<u32, u32>) {
        let asn_paths = self.stats.seen_asns.iter().zip(&self.asn_paths);
        let asn_paths = asn_paths.map(|(&a, &n)| (a, n)).collect();
        (self.stats.to_stats(), asn_paths)
    }
}

/// The streaming daemon's crash-recovery state: everything needed to
/// resume at `cursor` with bit-identical downstream behavior. On disk it
/// is a [`Manifest`]: a small sealed file at the checkpoint path that
/// commits a range of the segment log beside it
/// ([`log_path`](Self::log_path)).
///
/// # Manifest layout (version 8, all integers little-endian)
///
/// The [`bgp_types::persist`] envelope with magic `BGPWCKPT`, then the payload, where
/// a column is a `u64` element count followed by the elements:
///
/// ```text
///   scalars     cursor, records, observations, advances, flaps,
///               late_drops, reclassified_owners, window_secs, windows
///               (9 × u64)
///   log         the segment log's columns (7 × u64, see LogColumns)
///   buckets     index column (u64, strictly ascending, at most
///               `windows` of them), then per index its counted length
///               (u64) and its tuple-ID column (u32, each naming a segment
///               tuple, no fewer than the counted length)
///   windowed    the kept counts: key · on · off columns (u32 each, keys
///               strictly ascending), seen_asns · path-count columns (u32
///               each, ASNs strictly ascending, counts positive),
///               unique_tuples, unique_paths (u64)
///   cumulative  the segment's statistics, recorded by the exit save
///               and empty on a mid-run save: key · on · off columns (u32
///               each, keys strictly ascending), seen_asns column (u32,
///               strictly ascending), totals column (u64: none, or the
///               tuples they cover — at most the segment's — and their
///               unique paths)
///   labels      key column (u32, strictly ascending), intent column
///               (u8: 0 action, 1 information)
///   excluded    key column (u32, strictly ascending), reason column
///               (u8: 0 private, 1 reserved, 2 never on path)
/// ```
///
/// Keys are packed communities, `α << 16 | β`. Version 1 was a JSON
/// manifest; it is refused as [`LoadError::Foreign`]. Version 2
/// held u64 fingerprint sets, once cumulative and again per bucket,
/// version 3 held the whole segment in the one file, version 4 held the
/// counts without the per-ASN path counts or which tuples they counted,
/// version 5 sealed the manifest and the log's range with FNV-1a 64,
/// version 6 logged each list entry's community value in place of its
/// slot, and version 7 did not record the segment's statistics; all six
/// are refused as [`LoadError::Version`].
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
    /// The window's kept counts (see [`WindowedStatsSnapshot`]).
    pub windowed: WindowedStatsSnapshot,
    /// The segment's statistics, recorded by a run's exit save; `None` in
    /// a mid-run save.
    pub cumulative_stats: Option<PathStatsSnapshot>,
    /// Current labels as `(packed community, intent)`, sorted by key.
    pub labels: Vec<(u32, Intent)>,
    /// Current exclusions as `(packed community, reason)`, sorted by key.
    pub excluded: Vec<(u32, Exclusion)>,
}

impl WatchCheckpoint {
    /// The envelope of watch checkpoint manifests.
    pub const FORMAT: Format = Format {
        magic: *b"BGPWCKPT",
        version: 8,
        name: "checkpoint",
    };

    /// The segment log beside the manifest at `path`: `<path>.seg`.
    pub fn log_path(path: &Path) -> PathBuf {
        checkpoint::log_path(path)
    }

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

    /// Write a complete checkpoint at `path`: the whole segment as one
    /// frame of the log, then the manifest (see [`CheckpointSaver`]).
    pub fn save_atomic(&self, path: &Path) -> io::Result<()> {
        checkpoint::save(self, path, None).map(drop)
    }

    /// Read, validate and decode the checkpoint at `path` and its log:
    /// every bound the layout states is checked, and damage of any kind is
    /// a typed [`LoadError`].
    pub fn load(path: &Path) -> Result<WatchCheckpoint, LoadError> {
        checkpoint::open(path).map(|(cp, ..)| cp)
    }
}

impl Manifest for WatchCheckpoint {
    const FORMAT: Format = WatchCheckpoint::FORMAT;

    fn segment(&self) -> &StatsSnapshot {
        &self.cumulative
    }

    fn segment_mut(&mut self) -> &mut StatsSnapshot {
        &mut self.cumulative
    }

    fn put(&self, log: &LogColumns, w: &mut ColumnWriter) {
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
        log.put(w);
        w.column(&self.buckets, |b| b.index.to_le_bytes());
        for bucket in &self.buckets {
            w.u64(bucket.counted as u64);
            w.column(&bucket.tuples, |t| t.to_le_bytes());
        }
        let windowed = &self.windowed.stats;
        put_counts(w, windowed);
        w.column(&self.windowed.asn_paths, |n| n.to_le_bytes());
        w.u64(windowed.unique_tuples);
        w.u64(windowed.unique_paths);
        let cumulative = self.cumulative_stats.as_ref();
        put_counts(w, cumulative.unwrap_or(&PathStatsSnapshot::default()));
        let totals = cumulative.map(|c| [c.unique_tuples, c.unique_paths]);
        w.column(totals.as_ref().map_or(&[][..], |t| t), |n| n.to_le_bytes());
        put_keyed(w, &self.labels, &INTENTS);
        put_keyed(w, &self.excluded, &EXCLUSIONS);
    }

    fn take(r: &mut ColumnReader<'_>) -> Result<(Self, LogColumns), String> {
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
        let log = LogColumns::take(r)?;

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
        let tuple_count = log.counts[2];
        let mut buckets = Vec::with_capacity(indices.len());
        for index in indices {
            let counted = r.u64("bucket counted length")?;
            let tuples = r.column("bucket tuples", u32::from_le_bytes)?;
            if let Some(t) = tuples.iter().find(|&&t| u64::from(t) >= tuple_count) {
                return Err(format!("bucket {index} lists tuple {t}, of {tuple_count}"));
            }
            if counted > tuples.len() as u64 {
                return Err(format!(
                    "bucket counted length: bucket {index} counts {counted} of its {} tuples",
                    tuples.len()
                ));
            }
            buckets.push(WatchBucket {
                index,
                tuples,
                counted: counted as usize,
            });
        }

        let mut stats = take_counts(r, "windowed")?;
        let seen_asns = &stats.seen_asns;
        let asn_paths = r.column("windowed asn path counts", u32::from_le_bytes)?;
        if asn_paths.len() != seen_asns.len() {
            return Err(format!(
                "windowed asn path counts: {} for {} seen_asns",
                asn_paths.len(),
                seen_asns.len()
            ));
        }
        if let Some(at) = asn_paths.iter().position(|&n| n == 0) {
            return Err(format!(
                "windowed asn path counts: ASN {} on 0 paths",
                seen_asns[at]
            ));
        }
        stats.unique_tuples = r.u64("windowed unique_tuples")?;
        stats.unique_paths = r.u64("windowed unique_paths")?;
        let windowed = WindowedStatsSnapshot { stats, asn_paths };
        let cumulative_stats = take_cumulative(r, tuple_count)?;
        let labels = keyed_bytes(r, "labels", &INTENTS)?;
        let excluded = keyed_bytes(r, "exclusions", &EXCLUSIONS)?;
        let cp = WatchCheckpoint {
            cursor,
            records,
            observations,
            advances,
            flaps,
            late_drops,
            reclassified_owners,
            window_secs,
            windows,
            cumulative: StatsSnapshot::new(),
            buckets,
            windowed,
            cumulative_stats,
            labels,
            excluded,
        };
        Ok((cp, log))
    }
}

/// Read the cumulative columns [`WatchCheckpoint`]'s `put` wrote: empty,
/// or counts with keys and ASNs strictly ascending over at most
/// `segment_tuples` tuples.
fn take_cumulative(
    r: &mut ColumnReader<'_>,
    segment_tuples: u64,
) -> Result<Option<PathStatsSnapshot>, String> {
    let mut stats = take_counts(r, "cumulative")?;
    let totals = r.column("cumulative totals", u64::from_le_bytes)?;
    match totals[..] {
        [] if stats == PathStatsSnapshot::default() => return Ok(None),
        [tuples, paths] => (stats.unique_tuples, stats.unique_paths) = (tuples, paths),
        _ => {
            return Err(format!(
                "cumulative totals: {} values for {} counts",
                totals.len(),
                stats.counts.len()
            ))
        }
    }
    if stats.unique_tuples > segment_tuples {
        return Err(format!(
            "cumulative counts cover {} tuples, of {segment_tuples}",
            stats.unique_tuples
        ));
    }
    Ok(Some(stats))
}

/// Write `stats`' counts as key · on · off columns, then its seen ASNs;
/// its totals are the caller's.
fn put_counts(w: &mut ColumnWriter, stats: &PathStatsSnapshot) {
    let counts = &stats.counts;
    w.column(counts, |&(key, _, _)| key.to_le_bytes());
    w.column(counts, |&(_, on, _)| on.to_le_bytes());
    w.column(counts, |&(_, _, off)| off.to_le_bytes());
    w.column(&stats.seen_asns, |a| a.to_le_bytes());
}

/// Read what [`put_counts`] wrote, keys and ASNs strictly ascending, into
/// a snapshot whose totals are the caller's to read; `what` names the
/// columns and the failures.
fn take_counts(r: &mut ColumnReader<'_>, what: &str) -> Result<PathStatsSnapshot, String> {
    let keys = r.column(&format!("{what} keys"), u32::from_le_bytes)?;
    let on = r.column(&format!("{what} on counts"), u32::from_le_bytes)?;
    let off = r.column(&format!("{what} off counts"), u32::from_le_bytes)?;
    if on.len() != keys.len() || off.len() != keys.len() {
        return Err(format!(
            "{what} counts: {} keys, {} on, {} off",
            keys.len(),
            on.len(),
            off.len()
        ));
    }
    if !strictly_ascending(&keys) {
        return Err(format!("{what} keys not strictly ascending"));
    }
    let seen_asns = r.column(&format!("{what} seen_asns"), u32::from_le_bytes)?;
    if !strictly_ascending(&seen_asns) {
        return Err(format!("{what} seen_asns not strictly ascending"));
    }
    let counts = keys.into_iter().zip(on).zip(off);
    Ok(PathStatsSnapshot {
        counts: counts.map(|((key, on), off)| (key, on, off)).collect(),
        seen_asns,
        ..PathStatsSnapshot::default()
    })
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
    /// Checkpoint manifest path, its segment log beside it
    /// ([`WatchCheckpoint::log_path`]); `None` disables checkpointing (and
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
    c: &StreamCounters,
    classifier: &WindowedClassifier,
    records: u64,
    observations: u64,
    report: &IngestReport,
) {
    let load = |n: &AtomicU64| n.load(Ordering::SeqCst);
    for (name, value) in [
        ("watch/records", records),
        ("watch/observations", observations),
        ("watch/windows_advanced", classifier.advances()),
        ("watch/late_drops", classifier.late_drops()),
        ("classify/flaps", classifier.flaps()),
        (
            "classify/reclassified_owners",
            classifier.reclassified_owners(),
        ),
        ("watch/recounted_paths", classifier.recounted_paths()),
        ("ingest/backpressure_stalls", load(&c.backpressure_stalls)),
        ("stream/connections", load(&c.connections)),
        ("stream/reconnects", load(&c.reconnects)),
        ("stream/stalls", load(&c.stalls)),
        ("stream/disconnects", load(&c.disconnects)),
        ("stream/delivered_bytes", load(&c.delivered_bytes)),
    ] {
        metrics.counter(name).add(value);
    }
    metrics.record_duration("time/reclassify_ns", classifier.reclassify_time());
    let peak = i64::try_from(load(&c.queue_peak_bytes)).unwrap_or(i64::MAX);
    metrics.gauge("stream/queue_peak_bytes").set(peak);
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
/// performed). On exit a final reclassification brings labels up to date
/// with the head bucket, a final checkpoint is flushed (unless it is the
/// one the run resumed from), and metrics are recorded — the same path
/// for graceful shutdown and quiesce.
pub fn run_watch<S: StreamSource>(
    source: S,
    siblings: &SiblingMap,
    opts: &WatchOptions,
    shutdown: Arc<AtomicBool>,
) -> io::Result<WatchOutcome> {
    let mut saver = opts
        .checkpoint
        .as_deref()
        .map(|path| CheckpointSaver::<WatchCheckpoint>::new(path, opts.metrics.as_deref()))
        .transpose()?;
    let resume = match saver.as_mut() {
        Some(saver) => saver.resume()?,
        None => None,
    };
    let resumed = resume.is_some();
    let (mut classifier, cursor_base, base_records, mut observations) = match resume {
        Some(cp) => {
            if cp.window_secs != opts.window.window_secs || cp.windows != opts.window.windows {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "checkpoint window geometry {}s x {} does not match requested {}s x {}",
                        cp.window_secs, cp.windows, opts.window.window_secs, opts.window.windows
                    ),
                ));
            }
            (
                WindowedClassifier::from_checkpoint(&cp, opts.infer.clone()),
                cp.cursor,
                cp.records,
                cp.observations,
            )
        }
        None => (
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
            if let Some(saver) = saver.as_mut() {
                if classifier.advances() - last_checkpoint_advance >= checkpoint_every {
                    let cursor = cursor_base + decoder.consumed_bytes();
                    let records = base_records + decoder.records_decoded();
                    saver.save(&classifier.checkpoint(cursor, records, observations))?;
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
    // bucket's folds, then flush a final checkpoint, with the segment's
    // statistics, so a restart resumes from here instead of re-delivering
    // the tail and needs no kernel run for them — unless it is the one the
    // run resumed from.
    classifier.reclassify(siblings);
    let cursor = cursor_base + decoder.consumed_bytes();
    let records = base_records + decoder.records_decoded();
    let stats = classifier.cumulative_stats(opts.infer.threads);
    if let Some(saver) = saver.as_mut() {
        let mut cp = classifier.checkpoint(cursor, records, observations);
        cp.cumulative_stats = Some(PathStatsSnapshot::of(&stats));
        saver.save_at_exit(cp)?;
    }
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
    use crate::checkpoint::decode_manifest;
    use crate::checkpoint::tests::Encode;
    use bgp_mrt::stream::MemoryFeed;
    use bgp_types::persist;
    use bgp_types::Asn;
    use std::fs;
    use std::sync::atomic::AtomicUsize;

    /// The manifest at `path` and its log.
    fn checkpoint_files(path: &Path) -> (Vec<u8>, Vec<u8>) {
        (
            fs::read(path).unwrap(),
            fs::read(WatchCheckpoint::log_path(path)).unwrap(),
        )
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

    /// A window wide enough to keep every bucket of the churn stream.
    fn wide_window() -> WindowConfig {
        WindowConfig {
            window_secs: 100,
            windows: 8,
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

    /// Load a manifest and its log held in memory through
    /// [`WatchCheckpoint::load`]: written, without fsync, to a path of
    /// their own.
    fn decode((manifest, log): &(Vec<u8>, Vec<u8>)) -> Result<WatchCheckpoint, LoadError> {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let dir = test_dir(&format!("decode-{}", CASE.fetch_add(1, Ordering::Relaxed)));
        let path = dir.join("watch.ckpt");
        fs::write(&path, manifest).unwrap();
        fs::write(WatchCheckpoint::log_path(&path), log).unwrap();
        let loaded = WatchCheckpoint::load(&path);
        let _ = fs::remove_dir_all(&dir);
        loaded
    }

    /// A fresh directory for one test, unique to the process.
    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bgp-watch-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Offset of the log range (start, end, checksum) in a manifest.
    const LOG_RANGE: usize = persist::HEADER_LEN + 9 * 8;

    /// A manifest sealed over `payload` with its log range set to all of
    /// `log`, and `log`: only the decoders and the structural checks stand
    /// between damage and the state.
    fn reseal(payload: &[u8], log: &[u8]) -> (Vec<u8>, Vec<u8>) {
        let mut manifest = vec![0; persist::HEADER_LEN];
        manifest.extend_from_slice(payload);
        let range = [0, log.len() as u64, persist::checksum(log)];
        for (word, at) in range.into_iter().zip((LOG_RANGE..).step_by(8)) {
            manifest[at..at + 8].copy_from_slice(&word.to_le_bytes());
        }
        WatchCheckpoint::FORMAT.seal(&mut manifest);
        (manifest, log.to_vec())
    }

    fn refused_as_corrupt(files: &(Vec<u8>, Vec<u8>), expect: &str) {
        match decode(files).expect_err("damaged checkpoint must be refused") {
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
    /// format in `tests/formats.rs`, with the segment log's own cases.
    #[test]
    fn watch_checkpoint_roundtrips_and_rejects_damage() {
        let cp = churn_checkpoint();
        assert!(cp.buckets.len() == 2 && cp.labels.len() >= 2);
        assert_eq!(
            cp.excluded.iter().map(|&(_, e)| e).collect::<Vec<_>>(),
            [Exclusion::NeverOnPath, Exclusion::PrivateAsn]
        );

        let dir = test_dir("cp");
        let path = dir.join("watch.ckpt");
        cp.save_atomic(&path).unwrap();
        let files = (
            fs::read(&path).unwrap(),
            fs::read(WatchCheckpoint::log_path(&path)).unwrap(),
        );
        assert_eq!(files, cp.encode(), "encoding is deterministic");
        assert_eq!(WatchCheckpoint::load(&path).unwrap(), cp);
        let (manifest, log) = &files;
        let payload = &manifest[persist::HEADER_LEN..];

        // Oversized element counts in the first column of each file — the
        // manifest's bucket indices, after its sixteen scalars, and the
        // log's path ends — resealed so the count itself is what gets
        // checked, before any allocation is sized by it.
        const FIRST_COLUMN: usize = 16 * 8;
        for count in [u64::MAX, 1 << 40, payload.len() as u64] {
            let mut forged = payload.to_vec();
            forged[FIRST_COLUMN..FIRST_COLUMN + 8].copy_from_slice(&count.to_le_bytes());
            refused_as_corrupt(&reseal(&forged, log), "exceed");
        }
        for count in [u64::MAX, 1 << 40, log.len() as u64] {
            let mut forged = log.clone();
            forged[..8].copy_from_slice(&count.to_le_bytes());
            refused_as_corrupt(&reseal(payload, &forged), "exceed");
        }
        // A label byte outside the intent domain (the intent column sits
        // just before the two exclusion columns at the end).
        let (n, m) = (cp.labels.len(), cp.excluded.len());
        let intents = payload.len() - (8 + m) - (8 + 4 * m) - n;
        let mut forged = payload.to_vec();
        forged[intents] = 7;
        refused_as_corrupt(&reseal(&forged, log), "out of range");

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
        // A counted length past its bucket's list: one past it, and the
        // largest one the first bucket's length word (after the two-entry
        // index column) can hold.
        let mut bad = cp.clone();
        let (index, len) = (cp.buckets[1].index, cp.buckets[1].tuples.len());
        bad.buckets[1].counted = len + 1;
        refused_as_corrupt(
            &bad.encode(),
            &format!(
                "bucket counted length: bucket {index} counts {} of its {len} tuples",
                len + 1
            ),
        );
        let first_counted = FIRST_COLUMN + 8 + 2 * 8;
        let mut forged = payload.to_vec();
        forged[first_counted..first_counted + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        refused_as_corrupt(
            &reseal(&forged, log),
            &format!(
                "bucket {} counts {} of its {} tuples",
                cp.buckets[0].index,
                u64::MAX,
                cp.buckets[0].tuples.len()
            ),
        );

        // A log that holds a valid segment, but not the one the manifest
        // counts; and a frame repeated, so its paths come twice.
        let mut smaller = WindowedClassifier::new(window_cfg(), InferenceConfig::default());
        smaller.observe(&obs(1, "1 100 2", &[(100, 1)], 10), &SiblingMap::default());
        let other = smaller.checkpoint(0, 0, 0).encode().1;
        refused_as_corrupt(&reseal(payload, &other), "the manifest records");
        refused_as_corrupt(
            &reseal(payload, &[log.as_slice(), log].concat()),
            "segment log: path ",
        );
        let _ = fs::remove_dir_all(&dir);
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

    /// The full diff of two windowed statistics, kept as the reference for
    /// the incremental one: the owners whose communities' counts differ,
    /// plus the owners whose family holds an ASN in one `seen_asns` and
    /// not the other.
    fn dirty_owners(
        prev: &PathStats,
        new: &PathStats,
        siblings: &SiblingMap,
        cfg: &InferenceConfig,
    ) -> u64 {
        let mut dirty: FxHashSet<u16> = FxHashSet::default();
        for (c, counts) in &new.per_community {
            if prev.per_community.get(c) != Some(counts) {
                dirty.insert(c.asn);
            }
        }
        for c in prev.per_community.keys() {
            if !new.per_community.contains_key(c) {
                dirty.insert(c.asn);
            }
        }
        let changed: FxHashSet<Asn> = new
            .seen_asns
            .symmetric_difference(&prev.seen_asns)
            .copied()
            .collect();
        for c in new.per_community.keys().chain(prev.per_community.keys()) {
            let owner = Asn::new(u32::from(c.asn));
            let family = if cfg.use_siblings {
                siblings.expand_ref(&owner)
            } else {
                std::slice::from_ref(&owner)
            };
            if family.iter().any(|a| changed.contains(a)) {
                dirty.insert(c.asn);
            }
        }
        dirty.len() as u64
    }

    /// The full classification at the last reclassification, and what
    /// the classifier's counters read then.
    struct FullReference {
        stats: PathStats,
        inference: Inference,
        owners: u64,
        flaps: u64,
    }

    impl FullReference {
        /// Check the reclassification `wc` just made over the windowed
        /// statistics `now`: it reran exactly the owners the full diff
        /// finds dirty, and counted exactly the label flips between the two
        /// full classifications.
        fn step(
            &mut self,
            wc: &WindowedClassifier,
            now: PathStats,
            siblings: &SiblingMap,
            at: usize,
        ) {
            let cfg = &wc.cfg;
            let full = classify(&now, siblings, cfg);
            let flips = self
                .inference
                .labels
                .iter()
                .filter(|&(c, i)| full.labels.get(c).is_some_and(|j| j != i))
                .count() as u64;
            assert_eq!(
                wc.reclassified_owners() - self.owners,
                dirty_owners(&self.stats, &now, siblings, cfg),
                "owners rerun at observation {at}"
            );
            assert_eq!(wc.flaps() - self.flaps, flips, "flaps at observation {at}");
            assert_eq!(wc.labels(), &full.labels, "labels at observation {at}");
            assert_eq!(
                wc.excluded(),
                &full.excluded,
                "exclusions at observation {at}"
            );
            *self = FullReference {
                stats: now,
                inference: full,
                owners: wc.reclassified_owners(),
                flaps: wc.flaps(),
            };
        }
    }

    /// Fold `stream`, resuming from the checkpoint files before observation
    /// `resume_at`, and check every advance and the final reclassification
    /// against [`FullReference`]. Returns the classifier.
    fn check_every_advance(
        stream: &[Observation],
        window: WindowConfig,
        siblings: &SiblingMap,
        resume_at: usize,
    ) -> WindowedClassifier {
        let cfg = InferenceConfig {
            threads: 1,
            ..InferenceConfig::default()
        };
        let mut wc = WindowedClassifier::new(window, cfg.clone());
        let mut reference = FullReference {
            stats: PathStats::default(),
            inference: Inference::default(),
            owners: 0,
            flaps: 0,
        };
        for (i, o) in stream.iter().enumerate() {
            if i == resume_at {
                let cp = decode(&wc.checkpoint(0, 0, i as u64).encode()).unwrap();
                wc = WindowedClassifier::from_checkpoint(&cp, cfg.clone());
            }
            if wc.observe(o, siblings) {
                // The window the advance reclassified: every live tuple,
                // less the one entry the fold into the new head added.
                let folded = wc.buckets.back().unwrap().tuples[0] as usize;
                let now = wc
                    .segment
                    .stats_where(1, |t| wc.refs[t] > u32::from(t == folded));
                reference.step(&wc, now, siblings, i);
            }
        }
        wc.reclassify(siblings);
        reference.step(&wc, wc.windowed_stats(), siblings, stream.len());
        wc
    }

    /// A seeded stream over 100-second buckets: times mostly step forward,
    /// one in five falls back up to five buckets (a late fold into a
    /// retained bucket, or a late drop), and observation 200 jumps twenty
    /// buckets ahead, past the whole window. Owners 100–105 ride paths,
    /// owner 106 never does, and tails come and go, so `seen_asns` moves.
    fn seeded_stream(seed: u64) -> Vec<Observation> {
        let mut state = seed;
        let mut next = |n: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 33) % n) as u32
        };
        let mut time = 0u32;
        (0..400)
            .map(|i| {
                time += if i == 200 { 2_000 } else { next(30) };
                let t = if next(5) == 0 {
                    time.saturating_sub(next(500))
                } else {
                    time
                };
                let vp = 900 + next(4);
                let path = format!("{vp} {} {}", 100 + next(6), 600 + next(12));
                let comms: Vec<(u16, u16)> = (0..next(3))
                    .map(|_| (100 + next(7) as u16, next(8) as u16))
                    .collect();
                obs(vp, &path, &comms, t)
            })
            .collect()
    }

    #[test]
    fn every_advance_reruns_the_owners_and_counts_the_flaps_of_a_full_diff() {
        let none = SiblingMap::default();
        for resume_at in [0, 9, 17, 25, usize::MAX] {
            let wc = check_every_advance(&churn_stream(), window_cfg(), &none, resume_at);
            assert!(wc.advances() >= 7 && wc.flaps() > 0);
        }
        // Owner 101's family reaches a tail ASN, so tails entering and
        // leaving the window dirty it.
        let siblings = SiblingMap::from_orgs(vec![vec![Asn::new(101), Asn::new(611)]]);
        let window = WindowConfig {
            window_secs: 100,
            windows: 3,
        };
        for seed in 1..=4 {
            let stream = seeded_stream(seed);
            for resume_at in [0, 150, 201, 399, usize::MAX] {
                for map in [&none, &siblings] {
                    let wc = check_every_advance(&stream, window, map, resume_at);
                    assert!(wc.advances() > 20 && wc.late_drops() > 0 && wc.flaps() > 0);
                }
            }
        }
    }

    /// The paths `wc` marks touched, ascending.
    fn touched_paths(wc: &WindowedClassifier) -> Vec<usize> {
        (0..wc.touched.len()).filter(|&p| wc.touched[p]).collect()
    }

    /// A resume from the checkpoint taken after any observation — every
    /// advance included — holds the uninterrupted classifier's kept
    /// counts, counted flags and touched paths, and its next
    /// reclassification recounts as many paths and leaves the same state.
    #[test]
    fn a_resume_restores_the_window_counts_and_recounts_what_the_uninterrupted_run_does() {
        let siblings = SiblingMap::default();
        let cfg = InferenceConfig {
            threads: 1,
            ..InferenceConfig::default()
        };
        let seeded_window = WindowConfig {
            window_secs: 100,
            windows: 3,
        };
        let streams = std::iter::once((churn_stream(), window_cfg()))
            .chain((1..=4).map(|seed| (seeded_stream(seed), seeded_window)));
        for (stream, window) in streams {
            let mut wc = WindowedClassifier::new(window, cfg.clone());
            // Resumed classifiers waiting for the next reclassification,
            // each with where it resumed and the recounts made by then.
            let mut resumed: Vec<(WindowedClassifier, usize, u64)> = Vec::new();
            let check = |r: &WindowedClassifier, wc: &WindowedClassifier, at: usize, base: u64| {
                assert_eq!(
                    r.recounted_paths(),
                    wc.recounted_paths() - base,
                    "recounted after a resume at observation {at}"
                );
                assert_eq!(r.checkpoint(0, 0, 0), wc.checkpoint(0, 0, 0), "at {at}");
            };
            for (i, o) in stream.iter().enumerate() {
                let advanced = wc.observe(o, &siblings);
                for (r, _, _) in &mut resumed {
                    r.observe(o, &siblings);
                }
                if advanced {
                    for (r, at, base) in resumed.drain(..) {
                        check(&r, &wc, at, base);
                    }
                }
                let cp = decode(&wc.checkpoint(0, 0, i as u64).encode()).unwrap();
                let r = WindowedClassifier::from_checkpoint(&cp, cfg.clone());
                assert_eq!(r.counts, wc.counts, "kept counts at observation {i}");
                assert_eq!(r.asn_paths, wc.asn_paths, "ASN paths at observation {i}");
                assert_eq!(r.counted, wc.counted, "counted flags at observation {i}");
                assert_eq!(
                    (touched_paths(&r), r.touched_paths),
                    (touched_paths(&wc), wc.touched_paths),
                    "touched paths at observation {i}"
                );
                resumed.push((r, i, wc.recounted_paths()));
            }
            wc.reclassify(&siblings);
            for (mut r, at, base) in resumed {
                r.reclassify(&siblings);
                check(&r, &wc, at, base);
            }
            assert!(wc.advances() >= 7 && wc.recounted_paths() > 0);
        }
    }

    /// At the quiescent point `run_watch`'s cumulative statistics and
    /// labels are the segment's: taken from the kept counts when the window
    /// holds every tuple, and from the kernel over the segment after an
    /// eviction or a late drop.
    #[test]
    fn quiescent_statistics_are_the_segment_s_with_or_without_evictions_and_late_drops() {
        let siblings = SiblingMap::default();
        // Buckets 10 to 17, all inside the wide window.
        let shifted: Vec<Observation> = churn_stream()
            .into_iter()
            .map(|o| Observation {
                time: o.time + 1_000,
                ..o
            })
            .collect();
        let mut late = shifted.clone();
        late.insert(10, obs(906, "906 100 661", &[(100, 10)], 50));
        let dir = test_dir("quiescent");
        let runs = [
            (shifted, wide_window(), 0, true),
            (churn_stream(), window_cfg(), 0, false),
            (late, wide_window(), 1, false),
        ];
        for (run, (stream, window, late_drops, holds_every_tuple)) in runs.into_iter().enumerate() {
            let mut wire = Vec::new();
            bgp_mrt::obs::write_update_stream(&mut wire, Asn::new(6447), &stream).unwrap();
            let path = dir.join(format!("run{run}.ckpt"));
            let opts = WatchOptions {
                window,
                ..memory_feed_options(path.clone(), 1)
            };
            let outcome = run_watch(
                MemoryFeed::new(Arc::new(wire)),
                &siblings,
                &opts,
                Arc::new(AtomicBool::new(false)),
            )
            .unwrap();
            assert_eq!(outcome.late_drops, late_drops, "run {run}");
            let cp = WatchCheckpoint::load(&path).unwrap();
            let evicted = cp.buckets.len() as u64 <= outcome.advances;
            assert_eq!(evicted, run == 1, "run {run}");
            let wc = WindowedClassifier::from_checkpoint(&cp, opts.infer.clone());
            assert_eq!(
                wc.counts.unique_tuples == wc.segment().tuple_count(),
                holds_every_tuple,
                "run {run}"
            );
            let stats = wc.segment().to_stats();
            assert_eq!(outcome.stats, stats, "run {run}");
            let label_file = |inference: &Inference| {
                let rows = crate::label_rows(inference, opts.infer.ratio_threshold);
                bgp_artifact::encode_artifact(&rows).unwrap()
            };
            assert_eq!(
                label_file(&outcome.inference),
                label_file(&classify(&stats, &siblings, &opts.infer)),
                "run {run}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
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
        let stream = churn_stream();
        let mut wc = WindowedClassifier::new(wide_window(), InferenceConfig::default());
        for o in &stream {
            wc.observe(o, &siblings);
        }
        wc.reclassify(&siblings);
        assert_eq!(wc.counts, PathStats::from_observations(&stream, &siblings));
        // Two paths carry 900 and 999: "900 100 999" and "900 200 999".
        assert_eq!((wc.asn_paths[&900], wc.asn_paths[&999]), (2, 2));
        let snapshot = WindowedStatsSnapshot::of(&wc.counts, &wc.asn_paths);
        assert!(strictly_ascending(&snapshot.stats.counts));
        assert!(strictly_ascending(&snapshot.stats.seen_asns));
        assert_eq!(snapshot.asn_paths.len(), snapshot.stats.seen_asns.len());
        assert_eq!(snapshot.to_counts(), (wc.counts, wc.asn_paths));
        assert_eq!(
            WindowedStatsSnapshot::of(&PathStats::default(), &FxHashMap::default()),
            WindowedStatsSnapshot::default()
        );
    }

    #[test]
    fn every_prefix_of_a_watch_payload_is_refused() {
        let (manifest, log) = churn_checkpoint().encode();
        let payload = &manifest[persist::HEADER_LEN..];
        let (_, LogColumns { counts, .. }) = decode_manifest::<WatchCheckpoint>(payload).unwrap();
        for cut in 0..payload.len() {
            assert!(
                decode_manifest::<WatchCheckpoint>(&payload[..cut]).is_err(),
                "a cut at {cut} of {} decoded",
                payload.len()
            );
        }
        // Every prefix of the log, with a checksum that matches it: the
        // frame decoder and the manifest's counts refuse it.
        let decode_log = |log: &[u8]| checkpoint::decode_log(log, persist::checksum(log), counts);
        assert!(decode_log(&log).is_ok());
        for cut in 0..log.len() {
            assert!(
                decode_log(&log[..cut]).is_err(),
                "a log cut at {cut} of {} decoded",
                log.len()
            );
        }
    }

    /// The segment's statistics an exit save records: they roundtrip, and
    /// every bound of their columns is checked behind the seal.
    #[test]
    fn cumulative_columns_roundtrip_and_are_checked_behind_the_seal() {
        let mut cp = churn_checkpoint();
        assert_eq!(cp.cumulative_stats, None, "a mid-run save records none");
        let stats = cp.cumulative.to_stats();
        cp.cumulative_stats = Some(PathStatsSnapshot::of(&stats));
        let back = decode(&cp.encode()).unwrap();
        assert_eq!(back, cp);
        assert_eq!(back.cumulative_stats.unwrap().to_stats(), stats);
        let recorded = cp.cumulative_stats.clone().unwrap();
        assert!(recorded.counts.len() > 1 && recorded.seen_asns.len() > 1);
        let with = |edit: &dyn Fn(&mut PathStatsSnapshot)| {
            let mut bad = cp.clone();
            edit(bad.cumulative_stats.as_mut().unwrap());
            bad.encode()
        };
        refused_as_corrupt(
            &with(&|c| c.counts.swap(0, 1)),
            "cumulative keys not strictly ascending",
        );
        refused_as_corrupt(
            &with(&|c| c.seen_asns.reverse()),
            "cumulative seen_asns not strictly ascending",
        );
        let tuples = cp.cumulative.tuple_count() as u64;
        refused_as_corrupt(
            &with(&|c| c.unique_tuples = tuples + 1),
            &format!("cumulative counts cover {} tuples, of {tuples}", tuples + 1),
        );
        // Counts with no totals, and totals with a value missing.
        let (manifest, log) = cp.encode();
        let payload = &manifest[persist::HEADER_LEN..];
        let totals = [2u64, recorded.unique_tuples, recorded.unique_paths]
            .map(u64::to_le_bytes)
            .concat();
        let at = payload
            .windows(totals.len())
            .position(|w| w == totals.as_slice())
            .expect("the totals column");
        for (column, expect) in [
            (
                0u64.to_le_bytes().to_vec(),
                "cumulative totals: 0 values for",
            ),
            (
                [1u64, recorded.unique_tuples]
                    .map(u64::to_le_bytes)
                    .concat(),
                "cumulative totals: 1 values for",
            ),
        ] {
            let forged = [&payload[..at], &column, &payload[at + totals.len()..]].concat();
            refused_as_corrupt(&reseal(&forged, &log), expect);
        }
    }

    /// A restart takes the segment's statistics from its checkpoint when
    /// they cover exactly the tuples the segment holds, and never runs the
    /// kernel for them then; over any other count, the kernel's count
    /// stands.
    #[test]
    fn a_restart_reads_recorded_statistics_only_over_the_same_tuples() {
        let siblings = SiblingMap::default();
        let cfg = InferenceConfig::default();
        let mut wc = WindowedClassifier::new(window_cfg(), cfg.clone());
        for o in &churn_stream() {
            wc.observe(o, &siblings);
        }
        wc.reclassify(&siblings);
        let tuples = wc.segment().tuple_count();
        assert!(
            wc.counts.unique_tuples < tuples,
            "the window evicted tuples"
        );
        let stats = wc.segment().to_stats();
        assert_eq!(wc.cumulative_stats(1), stats);
        // Figures the kernel would never give, recorded over the same
        // tuples: the resumed classifier reads them.
        let mut recorded = PathStatsSnapshot::of(&stats);
        recorded.unique_paths += 1000;
        let mut cp = wc.checkpoint(0, 0, 0);
        cp.cumulative_stats = Some(recorded.clone());
        let resumed =
            WindowedClassifier::from_checkpoint(&decode(&cp.encode()).unwrap(), cfg.clone());
        assert_eq!(resumed.cumulative_stats(2), recorded.to_stats());
        // Recorded over fewer tuples, they are not.
        recorded.unique_tuples -= 1;
        cp.cumulative_stats = Some(recorded);
        let resumed = WindowedClassifier::from_checkpoint(&cp, cfg);
        assert_eq!(resumed.cumulative_stats(2), stats);
    }

    #[test]
    fn windowed_columns_and_geometry_are_checked_behind_the_seal() {
        let cp = churn_checkpoint();
        let (manifest, log) = cp.encode();
        let payload = manifest[persist::HEADER_LEN..].to_vec();
        // window_secs is the eighth scalar and must fit in 32 bits.
        let mut forged = payload.clone();
        forged[7 * 8..8 * 8].copy_from_slice(&(1u64 << 32).to_le_bytes());
        refused_as_corrupt(
            &reseal(&forged, &log),
            "window_secs 4294967296 out of range",
        );

        let mut bad = cp.clone();
        bad.windowed.stats.seen_asns.reverse();
        refused_as_corrupt(&bad.encode(), "windowed seen_asns not strictly ascending");
        let mut bad = cp.clone();
        bad.windowed.stats.counts.swap(0, 1);
        refused_as_corrupt(&bad.encode(), "windowed keys not strictly ascending");
        // A seen ASN on no path, and a path-count column one short.
        let asns = cp.windowed.stats.seen_asns.len();
        assert!(asns > 1 && cp.windowed.asn_paths.iter().all(|&n| n > 0));
        let mut bad = cp.clone();
        bad.windowed.asn_paths[1] = 0;
        refused_as_corrupt(
            &bad.encode(),
            &format!(
                "windowed asn path counts: ASN {} on 0 paths",
                cp.windowed.stats.seen_asns[1]
            ),
        );
        let mut bad = cp.clone();
        bad.windowed.asn_paths.pop();
        refused_as_corrupt(
            &bad.encode(),
            &format!(
                "windowed asn path counts: {} for {asns} seen_asns",
                asns - 1
            ),
        );
        // An exclusion byte outside its domain: the last byte of the file.
        let mut forged = payload.clone();
        *forged.last_mut().unwrap() = 3;
        refused_as_corrupt(
            &reseal(&forged, &log),
            "exclusions: value byte 3 out of range",
        );
        // A log range that runs backwards.
        let (mut backwards, _) = reseal(&payload, &log);
        backwards[LOG_RANGE..LOG_RANGE + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let backwards = &backwards[persist::HEADER_LEN..];
        let err = decode_manifest::<WatchCheckpoint>(backwards).unwrap_err();
        assert!(err.contains("runs backwards"), "{err}");
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

    /// Fold `stream[range]` as [`run_watch`] does: a save through `saver`
    /// after each observation that advances the window, the cursor
    /// counting the observations folded.
    fn fold_saving(
        wc: &mut WindowedClassifier,
        stream: &[Observation],
        range: std::ops::Range<usize>,
        saver: &mut CheckpointSaver<'_, WatchCheckpoint>,
    ) {
        for i in range {
            if wc.observe(&stream[i], &SiblingMap::default()) {
                let folded = i as u64 + 1;
                saver.save(&wc.checkpoint(folded, 0, folded)).unwrap();
            }
        }
    }

    /// [`fold_saving`] to the end of `stream` from the cursor of `saver`'s
    /// checkpoint (0 when there is none yet), then the quiescent point's
    /// reclassification and final save.
    fn run_to_quiescence(stream: &[Observation], path: &Path) -> WindowedClassifier {
        let cfg = InferenceConfig {
            threads: 1,
            ..InferenceConfig::default()
        };
        let mut saver = CheckpointSaver::new(path, None).unwrap();
        let (mut wc, from) = match saver.resume().unwrap() {
            Some(cp) => (
                WindowedClassifier::from_checkpoint(&cp, cfg),
                cp.cursor as usize,
            ),
            None => (WindowedClassifier::new(window_cfg(), cfg), 0),
        };
        fold_saving(&mut wc, stream, from..stream.len(), &mut saver);
        wc.reclassify(&SiblingMap::default());
        let n = stream.len() as u64;
        saver.save(&wc.checkpoint(n, 0, n)).unwrap();
        wc
    }

    /// A resumed run's exit save is skipped only when it would write the
    /// checkpoint the run resumed from. A checkpoint taken at the end of
    /// the stream but before the quiescent point's reclassification has
    /// uncounted tuples: the restart that counts them saves, and the
    /// restart after it, with nothing to fold or count, writes nothing.
    #[test]
    fn an_exit_save_is_skipped_only_when_it_rewrites_the_resumed_checkpoint() {
        let stream = churn_stream();
        let n = stream.len() as u64;
        let siblings = SiblingMap::default();
        let dir = test_dir("exit-save");
        let path = dir.join("watch.ckpt");
        let mut saver = CheckpointSaver::new(&path, None).unwrap();
        let mut wc = WindowedClassifier::new(window_cfg(), InferenceConfig::default());
        fold_saving(&mut wc, &stream, 0..stream.len(), &mut saver);
        let uncounted = wc.checkpoint(n, 0, n);
        saver.save(&uncounted).unwrap();

        let restart = || {
            let metrics = MetricsRegistry::new();
            let mut saver = CheckpointSaver::new(&path, Some(&metrics)).unwrap();
            let cp = saver.resume().unwrap().expect("a checkpoint to resume");
            let mut wc = WindowedClassifier::from_checkpoint(&cp, InferenceConfig::default());
            wc.reclassify(&siblings);
            let exit = wc.checkpoint(n, 0, n);
            saver.save_at_exit(exit.clone()).unwrap();
            (exit, metrics.snapshot().counters["checkpoint/writes"])
        };
        let (counted, writes) = restart();
        assert_ne!(counted, uncounted, "the reclassification counted tuples");
        assert_eq!(writes, 1);
        assert_eq!(WatchCheckpoint::load(&path).unwrap(), counted);

        let files = checkpoint_files(&path);
        let (again, writes) = restart();
        assert_eq!((again, writes), (counted, 0));
        assert_eq!(checkpoint_files(&path), files);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A save appends only what the segment gained: the log is the frames
    /// of every save back to back, a save that gained nothing appends
    /// nothing, and the loaded segment is the classifier's.
    #[test]
    fn each_save_appends_only_what_the_segment_gained() {
        let stream = churn_stream();
        let dir = test_dir("append");
        let path = dir.join("watch.ckpt");
        let metrics = MetricsRegistry::new();
        let mut saver = CheckpointSaver::new(&path, Some(&metrics)).unwrap();
        let mut wc = WindowedClassifier::new(window_cfg(), InferenceConfig::default());
        let mut logs: Vec<Vec<u8>> = Vec::new();
        let mut manifest_bytes = 0;
        for (i, o) in stream.iter().enumerate() {
            if wc.observe(o, &SiblingMap::default()) {
                let cp = wc.checkpoint(i as u64, 0, i as u64);
                saver.save(&cp).unwrap();
                let (manifest, log) = checkpoint_files(&path);
                manifest_bytes += manifest.len() as u64;
                assert_eq!(WatchCheckpoint::load(&path).unwrap(), cp);
                if let Some(before) = logs.last() {
                    assert!(log.starts_with(before), "save {i} rewrote committed bytes");
                    assert!(log.len() < before.len() + cp.encode().1.len());
                } else {
                    assert_eq!(
                        (manifest, log.clone()),
                        cp.encode(),
                        "the first save is complete"
                    );
                }
                logs.push(log);
            }
        }
        assert!(logs.len() >= 7, "{} saves", logs.len());
        for _ in 0..2 {
            saver.save(&wc.checkpoint(0, 0, 0)).unwrap();
            manifest_bytes += fs::read(&path).unwrap().len() as u64;
        }
        let log = checkpoint_files(&path).1;
        saver.save(&wc.checkpoint(0, 0, 0)).unwrap();
        manifest_bytes += fs::read(&path).unwrap().len() as u64;
        assert_eq!(
            checkpoint_files(&path).1,
            log,
            "nothing gained, nothing appended"
        );
        assert_eq!(
            WatchCheckpoint::load(&path).unwrap(),
            wc.checkpoint(0, 0, 0)
        );
        let counters = metrics.snapshot().counters;
        assert_eq!(counters["checkpoint/writes"], logs.len() as u64 + 3);
        assert_eq!(
            counters["checkpoint/bytes_written"],
            log.len() as u64 + manifest_bytes,
            "every frame once, plus every manifest"
        );
        assert!(metrics.snapshot().timings["time/checkpoint_write_ns"] > 0);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A crash at any step of a save leaves the previous checkpoint: every
    /// prefix of the frame the next save appends (the whole frame with the
    /// new manifest staged but never renamed included), and every prefix
    /// of a complete save's frame over the same checkpoint, loads as the
    /// previous checkpoint; a resume from each ends with the uninterrupted
    /// run's files, segment, labels and flaps.
    #[test]
    fn a_crash_at_any_step_of_a_save_resumes_to_the_uninterrupted_files() {
        let stream = churn_stream();
        let dir = test_dir("crash-steps");
        let clean = dir.join("clean.ckpt");
        let uninterrupted = run_to_quiescence(&stream, &clean);
        let expected = checkpoint_files(&clean);
        let advancing: Vec<usize> = {
            let mut wc = WindowedClassifier::new(window_cfg(), InferenceConfig::default());
            (0..stream.len())
                .filter(|&i| wc.observe(&stream[i], &SiblingMap::default()))
                .collect()
        };
        let (k, next) = (
            advancing[advancing.len() - 2],
            advancing[advancing.len() - 1],
        );

        // Checkpoint k, as the crashed run left it, and the frame and
        // manifest its next save writes.
        let path = dir.join("watch.ckpt");
        let log_path = WatchCheckpoint::log_path(&path);
        let mut wc = WindowedClassifier::new(window_cfg(), InferenceConfig::default());
        let mut saver = CheckpointSaver::new(&path, None).unwrap();
        fold_saving(&mut wc, &stream, 0..k + 1, &mut saver);
        let at_k = checkpoint_files(&path);
        let cp_k = WatchCheckpoint::load(&path).unwrap();
        assert_eq!(cp_k.cursor, k as u64 + 1);
        fold_saving(&mut wc, &stream, k + 1..next + 1, &mut saver);
        let (next_manifest, next_log) = checkpoint_files(&path);
        let frame = next_log[at_k.1.len()..].to_vec();
        // A complete save of the same state over checkpoint k appends the
        // whole segment after the log's end instead.
        fs::write(&path, &at_k.0).unwrap();
        fs::write(&log_path, &at_k.1).unwrap();
        wc.checkpoint(next as u64 + 1, 0, next as u64 + 1)
            .save_atomic(&path)
            .unwrap();
        let after = fs::read(&log_path).unwrap();
        assert!(
            after.starts_with(&at_k.1),
            "a complete save rewrote committed bytes"
        );
        let complete = after[at_k.1.len()..].to_vec();
        assert!(complete.len() > frame.len() && !frame.is_empty());

        for (torn, what) in [(&frame, "appended frame"), (&complete, "complete save")] {
            for cut in 0..=torn.len() {
                fs::write(&path, &at_k.0).unwrap();
                fs::write(&log_path, [at_k.1.as_slice(), &torn[..cut]].concat()).unwrap();
                if cut == torn.len() {
                    fs::write(persist::temp_path(&path), &next_manifest).unwrap();
                }
                assert_eq!(
                    WatchCheckpoint::load(&path).unwrap(),
                    cp_k,
                    "{what} cut at {cut}"
                );
                let resumed = run_to_quiescence(&stream, &path);
                assert_eq!(checkpoint_files(&path), expected, "{what} cut at {cut}");
                assert_eq!(resumed.segment(), uninterrupted.segment());
                assert_eq!(resumed.labels(), uninterrupted.labels());
                assert_eq!(resumed.flaps(), uninterrupted.flaps());
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A fresh run (no manifest) replaces whatever log it finds.
    #[test]
    fn a_fresh_run_replaces_a_stale_log() {
        let stream = churn_stream();
        let dir = test_dir("stale-log");
        run_to_quiescence(&stream, &dir.join("clean.ckpt"));
        let expected = checkpoint_files(&dir.join("clean.ckpt"));
        let path = dir.join("watch.ckpt");
        let log_path = WatchCheckpoint::log_path(&path);
        for stale in [vec![0xee; 5000], expected.1.clone(), Vec::new()] {
            let _ = fs::remove_file(&path);
            fs::write(&log_path, &stale).unwrap();
            run_to_quiescence(&stream, &path);
            assert_eq!(checkpoint_files(&path), expected);
        }
        let _ = fs::remove_dir_all(&dir);
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

    /// A run's exit save records the segment's statistics with the tuples
    /// they cover; an idle restart resumes, reads them, writes nothing and
    /// classifies as the run did.
    #[test]
    fn an_idle_restart_reads_the_statistics_the_exit_save_recorded() {
        let (scenario, bytes) = memory_feed_world();
        let dir = std::env::temp_dir().join(format!("bgp-watch-idle-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("watch.ckpt");
        let _ = std::fs::remove_file(&path);
        let run = || {
            run_watch(
                MemoryFeed::new(bytes.clone()),
                &scenario.siblings,
                &memory_feed_options(path.clone(), 2),
                Arc::new(AtomicBool::new(false)),
            )
            .unwrap()
        };
        let fresh = run();
        let cp = WatchCheckpoint::load(&path).unwrap();
        let recorded = cp
            .cumulative_stats
            .as_ref()
            .expect("the exit save records them");
        assert_eq!(recorded.unique_tuples, cp.cumulative.tuple_count() as u64);
        assert_eq!(recorded.to_stats(), fresh.stats);
        let files = checkpoint_files(&path);
        let idle = run();
        assert!(idle.resumed);
        assert_eq!(
            checkpoint_files(&path),
            files,
            "an idle restart writes nothing"
        );
        assert_eq!(idle.stats, fresh.stats);
        assert_eq!(idle.inference.labels, fresh.inference.labels);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Two fresh runs over the same feed write byte-identical manifests and
    /// logs, whatever the classifier's thread count.
    #[test]
    fn checkpoint_bytes_are_identical_across_runs_and_thread_counts() {
        let (scenario, bytes) = memory_feed_world();
        let dir = std::env::temp_dir().join(format!("bgp-watch-det-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let written: Vec<(Vec<u8>, Vec<u8>)> = [1usize, 2, 1]
            .iter()
            .enumerate()
            .map(|(run, &threads)| {
                let path = dir.join(format!("watch-{run}.ckpt"));
                let _ = std::fs::remove_file(&path);
                let outcome = run_watch(
                    MemoryFeed::new(bytes.clone()),
                    &scenario.siblings,
                    &memory_feed_options(path.clone(), threads),
                    Arc::new(AtomicBool::new(false)),
                )
                .unwrap();
                assert!(outcome.advances > 0 && !outcome.resumed);
                checkpoint_files(&path)
            })
            .collect();
        assert_eq!(
            written[0], written[2],
            "checkpoint bytes differ across runs"
        );
        assert_eq!(
            written[0], written[1],
            "checkpoint bytes differ across thread counts"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
