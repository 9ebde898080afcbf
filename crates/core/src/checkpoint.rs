//! Crash-safe incremental runs: content-based statistics accumulation and
//! a sealed binary checkpoint file.
//!
//! Long supervised runs over hundreds of archives must survive a crash —
//! OOM kill, power loss, a poisoned worker — without redoing days of
//! ingestion. The pieces here make that possible:
//!
//! * [`StatsAccumulator`] folds observations file-by-file into
//!   *content-based* fingerprint sets whose union is exact and commutative,
//!   so per-file partial results merge into the same [`PathStats`] a
//!   single-shot reduction would produce (see "Why fingerprints" below).
//! * [`StatsSnapshot`] is the accumulator's persistable form: vectors of
//!   deterministically-ordered per-snapshot segments (fixed shard-major
//!   ingest order), so the encoded bytes are identical at any thread
//!   count for a given ingest sequence, and each per-file snapshot costs
//!   only the file's new elements.
//! * [`Checkpoint`] records which input files completed (with a
//!   byte-length + FNV-1a fingerprint each, via [`fingerprint_file`]), the
//!   ingest accounting so far, and the snapshot. It is one sealed binary
//!   file (layout on the type), written durably by
//!   [`Checkpoint::save_atomic`] so a crash mid-write leaves the previous
//!   checkpoint intact, never a torn one. A shard worker's artifact is the
//!   same file (see [`crate::supervisor`]).
//! * `ColumnWriter` and `ColumnReader` are the column codec this file and
//!   the watch checkpoint ([`crate::watch`]) are encoded with, inside the
//!   envelope of [`bgp_types::persist`].
//!
//! # Why fingerprints
//!
//! [`PathStats`] merging by summing counts is only exact when every
//! occurrence of an AS path lands in the same shard (the invariant of the
//! hash-sharded parallel reduction). Per-*file* partials violate it: the
//! same path appears in many files, and summing would double-count unique
//! paths. Sets of path/tuple fingerprints union exactly instead — a path
//! seen in ten files is one fingerprint — at the cost of a 64-bit hash
//! collision being (silently, astronomically rarely) able to collapse two
//! distinct paths.

use std::fs::File;
use std::io::{self, Read};
use std::path::Path;
use std::sync::Arc;

use bgp_mrt::IngestReport;
use bgp_relationships::SiblingMap;
use bgp_types::fx::{fx_hash_one, FxHashMap, FxHashSet};
use bgp_types::par::{effective_threads, par_map_indexed};
use bgp_types::persist::{self, fnv1a, Format, LoadError, FNV_OFFSET};
use bgp_types::store::ObservationStore;
use bgp_types::{AsPath, Asn, Community, Observation};

use crate::stats::{OnPathIndex, PathCounts, PathStats};

/// Content fingerprint of one AS path.
pub fn path_fingerprint(path: &AsPath) -> u64 {
    fx_hash_one(path)
}

/// Content fingerprint of one `(AS path, communities)` tuple, built from
/// the path's [`path_fingerprint`] so the path bytes are hashed only once
/// per observation.
pub fn tuple_fingerprint(path_fp: u64, communities: &[Community]) -> u64 {
    fx_hash_one(&(path_fp, communities))
}

/// Incrementally built path statistics, mergeable across files.
///
/// Feed it observations in any grouping and any order ([`ingest`] per file,
/// [`merge`] across partial accumulators); [`to_stats`] yields the same
/// [`PathStats`] as a one-shot [`PathStats::from_observations`] over the
/// concatenated input.
///
/// [`ingest`]: StatsAccumulator::ingest
/// [`merge`]: StatsAccumulator::merge
/// [`to_stats`]: StatsAccumulator::to_stats
#[derive(Debug, Clone, Default)]
pub struct StatsAccumulator {
    /// Fingerprints of every unique AS path seen.
    paths: FxHashSet<u64>,
    /// Fingerprints of every unique `(path, communities)` tuple.
    tuples: FxHashSet<u64>,
    /// Every ASN appearing in any path.
    seen_asns: FxHashSet<Asn>,
    /// Per community: fingerprints of the unique paths it rode with its
    /// owner (or a sibling) on-path, plus their undrained snapshot delta.
    on: FxHashMap<Community, CommunitySet>,
    /// Per community: fingerprints of the unique paths it rode off-path,
    /// plus their undrained snapshot delta.
    off: FxHashMap<Community, CommunitySet>,
    /// The persistable form as of the last [`snapshot`](Self::snapshot)
    /// call, extended in place from the deltas below. Re-materializing the
    /// full state on every per-file checkpoint would be O(everything
    /// accumulated so far) per file, so each snapshot only appends the
    /// newly-inserted elements as one deterministically-ordered segment.
    /// Shared, so a checkpoint can hold it without a copy; the next append
    /// copies it only if that checkpoint is still alive.
    cache: Arc<StatsSnapshot>,
    /// Position of each community's entry in `cache.communities`, so a
    /// snapshot drains deltas into their slots without searching.
    community_slots: FxHashMap<Community, u32>,
    /// Path fingerprints inserted since the last snapshot.
    paths_delta: Vec<u64>,
    /// Tuple fingerprints inserted since the last snapshot.
    tuples_delta: Vec<u64>,
    /// ASNs first seen since the last snapshot.
    asns_delta: Vec<u32>,
}

/// One community's accumulated fingerprint set together with the
/// insertion-ordered tail not yet drained into the snapshot cache — kept in
/// one map value so the hot attribution path pays a single lookup.
#[derive(Debug, Clone, Default)]
struct CommunitySet {
    set: FxHashSet<u64>,
    delta: Vec<u64>,
}

/// Logical equality: the accumulated sets, ignoring snapshot-cache state
/// (two equal accumulators may have taken snapshots at different times).
impl PartialEq for StatsAccumulator {
    fn eq(&self, other: &Self) -> bool {
        fn sides_eq(
            a: &FxHashMap<Community, CommunitySet>,
            b: &FxHashMap<Community, CommunitySet>,
        ) -> bool {
            a.len() == b.len()
                && a.iter()
                    .all(|(c, s)| b.get(c).is_some_and(|t| s.set == t.set))
        }
        self.paths == other.paths
            && self.tuples == other.tuples
            && self.seen_asns == other.seen_asns
            && sides_eq(&self.on, &other.on)
            && sides_eq(&self.off, &other.off)
    }
}

/// One distinct element of a [`StatsAccumulator`]'s sets — the unit the
/// streaming window reference-counts (see [`crate::watch`]).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Element {
    /// A unique AS path fingerprint.
    Path(u64),
    /// An ASN on some path.
    Asn(Asn),
    /// A unique `(path, communities)` tuple fingerprint.
    Tuple(u64),
    /// A path fingerprint a community rode on-path (`true`) or off-path.
    Side(Community, bool, u64),
}

/// The sequential fold over one shard's `(path fingerprint, observation)`
/// pairs (the fingerprint is computed once, at partition time).
fn accumulate_shard(shard: &[(u64, &Observation)], siblings: &SiblingMap) -> StatsAccumulator {
    let mut acc = StatsAccumulator::default();
    for &(pfp, obs) in shard {
        acc.fold(pfp, obs, siblings);
    }
    acc
}

/// [`accumulate_shard`] over store rows: `(fingerprint, path ID, cset ID)`.
fn accumulate_shard_store(
    shard: &[(u64, u32, u32)],
    store: &ObservationStore,
    index: &OnPathIndex,
) -> StatsAccumulator {
    let mut acc = StatsAccumulator::default();
    for &(pfp, path_id, cset_id) in shard {
        acc.fold_store_row(pfp, path_id, cset_id, store, index);
    }
    acc
}

/// Number of fixed ingest shards. A constant — never the worker count — so
/// the shard-major order in which new fingerprints reach the snapshot
/// deltas is identical at any thread count. 64 keeps every core on a
/// many-core host busy while the shards stay coarse enough to amortize
/// per-shard accumulator setup.
pub const INGEST_SHARDS: usize = 64;

impl StatsAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one file's observations in, spreading the work over `threads`
    /// workers (`0` = one per CPU). The result — including snapshot bytes —
    /// is identical at any thread count: observations are sharded by path
    /// fingerprint into [`INGEST_SHARDS`] fixed shards and folded in shard
    /// order. Single-threaded, each shard folds straight into `self` (no
    /// temporaries, no merge); multi-threaded, per-shard accumulators are
    /// merged in shard order by their insertion-ordered deltas — first
    /// occurrence filtered against `self` lands elements in the same order
    /// either way, so neither the accumulated sets nor the delta order the
    /// snapshot serializes depend on how many workers ran.
    pub fn ingest(&mut self, observations: &[Observation], siblings: &SiblingMap, threads: usize) {
        if observations.is_empty() {
            return;
        }
        let threads = effective_threads(threads);
        let mut shards: Vec<Vec<(u64, &Observation)>> =
            (0..INGEST_SHARDS).map(|_| Vec::new()).collect();
        for obs in observations {
            let pfp = path_fingerprint(&obs.path);
            shards[(pfp as usize) % INGEST_SHARDS].push((pfp, obs));
        }
        if threads <= 1 {
            for shard in &shards {
                for &(pfp, obs) in shard {
                    self.fold(pfp, obs, siblings);
                }
            }
        } else {
            for part in par_map_indexed(INGEST_SHARDS, threads, |i| {
                accumulate_shard(&shards[i], siblings)
            }) {
                self.merge(part);
            }
        }
    }

    /// Fold observations one record at a time, in delivered order — the
    /// streaming path. Unlike [`ingest`](Self::ingest) there is no
    /// sharding pass and no per-call allocation: each record folds
    /// straight into the accumulated sets as it arrives, so a daemon can
    /// call this per decoded record (or per small batch) without setting
    /// up [`INGEST_SHARDS`] vectors each time.
    ///
    /// The accumulated *sets* are identical to a batch [`ingest`] over the
    /// same observations (set union is order-independent); the snapshot
    /// *delta order* is the delivered order rather than shard-major order.
    /// That is self-consistent across checkpoint/resume — a resumed daemon
    /// re-folding from its cursor appends first-seen elements in the same
    /// delivered order — but means streaming snapshot bytes are not
    /// byte-comparable to batch snapshot bytes. Batch-parity checks
    /// compare derived stats and labels, which depend only on the sets.
    pub fn ingest_ordered(&mut self, observations: &[Observation], siblings: &SiblingMap) {
        for obs in observations {
            let pfp = path_fingerprint(&obs.path);
            self.fold(pfp, obs, siblings);
        }
    }

    /// [`ingest`](Self::ingest) out of a columnar [`ObservationStore`] —
    /// the path used when MRT decoding folded straight into a store. Path
    /// fingerprints come from the store's interner (computed once per
    /// *unique* path instead of once per observation); sharding, fold
    /// order, accumulated sets, and snapshot bytes are all identical to
    /// ingesting the equivalent observation slice.
    pub fn ingest_store(
        &mut self,
        store: &ObservationStore,
        siblings: &SiblingMap,
        threads: usize,
    ) {
        if store.is_empty() {
            return;
        }
        let threads = effective_threads(threads);
        let index = OnPathIndex::build(store, siblings);
        let mut shards: Vec<Vec<(u64, u32, u32)>> =
            (0..INGEST_SHARDS).map(|_| Vec::new()).collect();
        for (path_id, cset_id) in store.tuples() {
            let pfp = store.path_fingerprint(path_id);
            shards[(pfp as usize) % INGEST_SHARDS].push((pfp, path_id, cset_id));
        }
        if threads <= 1 {
            for shard in &shards {
                for &(pfp, path_id, cset_id) in shard {
                    self.fold_store_row(pfp, path_id, cset_id, store, &index);
                }
            }
        } else {
            for part in par_map_indexed(INGEST_SHARDS, threads, |i| {
                accumulate_shard_store(&shards[i], store, &index)
            }) {
                self.merge(part);
            }
        }
    }

    /// Fold one observation into the accumulated sets, pushing every
    /// first-seen element onto the matching snapshot delta.
    fn fold(&mut self, pfp: u64, obs: &Observation, siblings: &SiblingMap) {
        self.fold_parts(pfp, &obs.path, &obs.communities, siblings, |_| {});
    }

    /// [`fold`](Self::fold) one observation, handing every element it
    /// inserted for the first time to `fresh` — how the streaming window
    /// raises its reference counts without a second pass over the sets.
    pub(crate) fn fold_observed(
        &mut self,
        obs: &Observation,
        siblings: &SiblingMap,
        fresh: impl FnMut(Element),
    ) {
        let pfp = path_fingerprint(&obs.path);
        self.fold_parts(pfp, &obs.path, &obs.communities, siblings, fresh);
    }

    /// The fold itself, over the parts an observation contributes. The
    /// columnar path ([`ingest_store`](Self::ingest_store)) runs the
    /// byte-identical [`fold_store_row`](Self::fold_store_row) instead;
    /// any change to the order of delta pushes here must be mirrored there.
    fn fold_parts(
        &mut self,
        pfp: u64,
        path: &AsPath,
        communities: &[Community],
        siblings: &SiblingMap,
        mut fresh: impl FnMut(Element),
    ) {
        if self.paths.insert(pfp) {
            self.paths_delta.push(pfp);
            fresh(Element::Path(pfp));
            for hop in path.iter() {
                if self.seen_asns.insert(hop) {
                    self.asns_delta.push(hop.value());
                    fresh(Element::Asn(hop));
                }
            }
        }
        let tfp = tuple_fingerprint(pfp, communities);
        if !self.tuples.insert(tfp) {
            return; // duplicate tuple: nothing new to attribute
        }
        self.tuples_delta.push(tfp);
        fresh(Element::Tuple(tfp));
        for &c in communities {
            // On-path iff the owner (or a sibling) appears in the path — a
            // pure function of (community, path), so unioning per-file sets
            // can never disagree about which side a fingerprint goes to.
            let on = siblings.is_on_path(Asn::new(c.asn as u32), path);
            let side = if on { &mut self.on } else { &mut self.off };
            let entry = side.entry(c).or_default();
            if entry.set.insert(pfp) {
                entry.delta.push(pfp);
                fresh(Element::Side(c, on, pfp));
            }
        }
    }

    /// Visit every element the accumulated sets hold, in no particular
    /// order — what evicting a window bucket (or rebuilding the window's
    /// reference counts on resume) walks.
    pub(crate) fn for_each_element(&self, mut f: impl FnMut(Element)) {
        self.paths.iter().for_each(|&p| f(Element::Path(p)));
        self.seen_asns.iter().for_each(|&a| f(Element::Asn(a)));
        self.tuples.iter().for_each(|&t| f(Element::Tuple(t)));
        for (on, side) in [(true, &self.on), (false, &self.off)] {
            for (&c, s) in side {
                s.set.iter().for_each(|&p| f(Element::Side(c, on, p)));
            }
        }
    }

    /// [`fold_parts`](Self::fold_parts) over an interned store row. Same
    /// operations in the same order — hops walked in path order, then one
    /// on/off attribution per community in list order — with the on-path
    /// test served by the precomputed [`OnPathIndex`] (a pure function of
    /// (community, path) either way), so accumulated sets, delta order,
    /// and hence snapshot bytes match the slice fold exactly.
    fn fold_store_row(
        &mut self,
        pfp: u64,
        path_id: u32,
        cset_id: u32,
        store: &ObservationStore,
        index: &OnPathIndex,
    ) {
        if self.paths.insert(pfp) {
            self.paths_delta.push(pfp);
            for &hop in store.path_hops(path_id) {
                if self.seen_asns.insert(Asn::new(hop)) {
                    self.asns_delta.push(hop);
                }
            }
        }
        let communities = store.cset(cset_id);
        let tfp = tuple_fingerprint(pfp, communities);
        if !self.tuples.insert(tfp) {
            return; // duplicate tuple: nothing new to attribute
        }
        self.tuples_delta.push(tfp);
        for (&c, &slot) in communities.iter().zip(store.cset_slots(cset_id)) {
            let on = index.on_path(store, path_id, slot);
            let side = if on { &mut self.on } else { &mut self.off };
            let entry = side.entry(c).or_default();
            if entry.set.insert(pfp) {
                entry.delta.push(pfp);
            }
        }
    }

    /// Union another accumulator in. Set union is commutative and
    /// idempotent per element, so merge order never changes the resulting
    /// *sets*; elements are visited in `other`'s insertion order (its
    /// snapshot cache, then its live deltas) so the delta order pushed onto
    /// `self` matches what a direct [`fold`](Self::fold) of the same
    /// observations would have produced.
    pub fn merge(&mut self, other: StatsAccumulator) {
        for &p in other.cache.paths.iter().chain(&other.paths_delta) {
            if self.paths.insert(p) {
                self.paths_delta.push(p);
            }
        }
        for &t in other.cache.tuples.iter().chain(&other.tuples_delta) {
            if self.tuples.insert(t) {
                self.tuples_delta.push(t);
            }
        }
        for &a in other.cache.seen_asns.iter().chain(&other.asns_delta) {
            if self.seen_asns.insert(Asn::new(a)) {
                self.asns_delta.push(a);
            }
        }
        // Per-community fingerprints: cache segments first (older), then
        // the live deltas, so within-community order stays chronological.
        for c in &other.cache.communities {
            let key = Community::new(c.asn, c.value);
            if !c.on.is_empty() {
                let mine = self.on.entry(key).or_default();
                for &f in &c.on {
                    if mine.set.insert(f) {
                        mine.delta.push(f);
                    }
                }
            }
            if !c.off.is_empty() {
                let mine = self.off.entry(key).or_default();
                for &f in &c.off {
                    if mine.set.insert(f) {
                        mine.delta.push(f);
                    }
                }
            }
        }
        for (c, s) in other.on {
            let mine = self.on.entry(c).or_default();
            for f in s.delta {
                if mine.set.insert(f) {
                    mine.delta.push(f);
                }
            }
        }
        for (c, s) in other.off {
            let mine = self.off.entry(c).or_default();
            for f in s.delta {
                if mine.set.insert(f) {
                    mine.delta.push(f);
                }
            }
        }
    }

    /// Collapse to the [`PathStats`] the classifier consumes.
    pub fn to_stats(&self) -> PathStats {
        let mut per_community: FxHashMap<Community, PathCounts> = FxHashMap::default();
        for (&c, s) in &self.on {
            per_community.entry(c).or_default().on = s.set.len() as u32;
        }
        for (&c, s) in &self.off {
            per_community.entry(c).or_default().off = s.set.len() as u32;
        }
        PathStats {
            per_community,
            seen_asns: self.seen_asns.clone(),
            unique_tuples: self.tuples.len(),
            unique_paths: self.paths.len(),
        }
    }

    /// The persistable form. Deterministic for a given ingest sequence:
    /// every vector is a concatenation of per-snapshot segments, each in
    /// the fixed shard-major order [`ingest`](Self::ingest) guarantees, so
    /// the bytes are identical at any thread count — and a resumed run,
    /// which replays the same files in the same order with the same
    /// snapshot cadence, reproduces them exactly. (Two accumulators
    /// holding equal *sets* but fed in different groupings or snapshotted
    /// at different points encode differently;
    /// [`to_stats`](Self::to_stats) is identical either way.)
    ///
    /// Cost is O(elements inserted since the last call) — pure appends, no
    /// re-sort of everything accumulated. The returned borrow is valid
    /// until the next `ingest`/`merge`; clone it to persist.
    pub fn snapshot(&mut self) -> &StatsSnapshot {
        let cache = Arc::make_mut(&mut self.cache);
        cache.paths.append(&mut self.paths_delta);
        cache.tuples.append(&mut self.tuples_delta);
        cache.seen_asns.append(&mut self.asns_delta);
        // Sort the touched communities so slot assignment for first-time
        // communities never depends on map iteration order: new entries are
        // appended `(asn, value)`-sorted within each snapshot's batch.
        let mut touched: Vec<Community> = self
            .on
            .iter()
            .chain(self.off.iter())
            .filter(|(_, s)| !s.delta.is_empty())
            .map(|(&c, _)| c)
            .collect();
        touched.sort_unstable();
        touched.dedup();
        for c in touched {
            let i = *self.community_slots.entry(c).or_insert_with(|| {
                cache.communities.push(SnapshotCommunity {
                    asn: c.asn,
                    value: c.value,
                    on: Vec::new(),
                    off: Vec::new(),
                });
                (cache.communities.len() - 1) as u32
            }) as usize;
            let slot = &mut cache.communities[i];
            if let Some(s) = self.on.get_mut(&c) {
                slot.on.append(&mut s.delta);
            }
            if let Some(s) = self.off.get_mut(&c) {
                slot.off.append(&mut s.delta);
            }
        }
        &self.cache
    }

    /// [`snapshot`](Self::snapshot), shared instead of borrowed: what a
    /// watch checkpoint holds while it is encoded, with no copy.
    pub(crate) fn shared_snapshot(&mut self) -> Arc<StatsSnapshot> {
        self.snapshot();
        Arc::clone(&self.cache)
    }

    /// Rebuild from a snapshot (the resume path).
    pub fn from_snapshot(snapshot: &StatsSnapshot) -> Self {
        Self::from_shared_snapshot(Arc::new(snapshot.clone()))
    }

    /// [`from_snapshot`](Self::from_snapshot) adopting a shared snapshot
    /// as the cache instead of copying it.
    pub(crate) fn from_shared_snapshot(snapshot: Arc<StatsSnapshot>) -> Self {
        let mut acc = StatsAccumulator {
            paths: snapshot.paths.iter().copied().collect(),
            tuples: snapshot.tuples.iter().copied().collect(),
            seen_asns: snapshot.seen_asns.iter().map(|&a| Asn::new(a)).collect(),
            cache: Arc::clone(&snapshot),
            ..StatsAccumulator::default()
        };
        for (i, c) in snapshot.communities.iter().enumerate() {
            let key = Community::new(c.asn, c.value);
            acc.community_slots.insert(key, i as u32);
            if !c.on.is_empty() {
                acc.on.insert(
                    key,
                    CommunitySet {
                        set: c.on.iter().copied().collect(),
                        delta: Vec::new(),
                    },
                );
            }
            if !c.off.is_empty() {
                acc.off.insert(
                    key,
                    CommunitySet {
                        set: c.off.iter().copied().collect(),
                        delta: Vec::new(),
                    },
                );
            }
        }
        acc
    }
}

/// One community's fingerprint sets in a [`StatsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotCommunity {
    /// The owner ASN (`α`).
    pub asn: u16,
    /// The community value (`β`).
    pub value: u16,
    /// Unique on-path fingerprints, in deterministic per-snapshot segments.
    pub on: Vec<u64>,
    /// Unique off-path fingerprints, in deterministic per-snapshot segments.
    pub off: Vec<u64>,
}

/// Persistable [`StatsAccumulator`]: content-based and independent of
/// interner state or thread count. Vectors hold unique elements as a
/// concatenation of deterministically-ordered segments, one per [`StatsAccumulator::snapshot`]
/// call — see there for the exact determinism contract.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsSnapshot {
    /// Unique-path fingerprints, in deterministic per-snapshot segments.
    pub paths: Vec<u64>,
    /// Unique-tuple fingerprints, in deterministic per-snapshot segments.
    pub tuples: Vec<u64>,
    /// ASNs seen in any path, in deterministic per-snapshot segments.
    pub seen_asns: Vec<u32>,
    /// Per-community fingerprint sets, ordered by first snapshot
    /// appearance (`(asn, value)`-sorted within each snapshot's batch of
    /// new communities — a deterministic order for a given ingest
    /// sequence, like everything else here).
    pub communities: Vec<SnapshotCommunity>,
}

impl StatsSnapshot {
    /// Append the snapshot's binary columns: `paths` (u64), `tuples`
    /// (u64), `seen_asns` (u32), the community keys (u32, `α << 16 | β`),
    /// then each community's `on` and `off` fingerprint columns (u64) in
    /// key-column order.
    pub(crate) fn encode(&self, w: &mut ColumnWriter) {
        w.column(&self.paths, |p| p.to_le_bytes());
        w.column(&self.tuples, |t| t.to_le_bytes());
        w.column(&self.seen_asns, |a| a.to_le_bytes());
        w.column(&self.communities, |c| {
            ((u32::from(c.asn) << 16) | u32::from(c.value)).to_le_bytes()
        });
        for c in &self.communities {
            w.column(&c.on, |p| p.to_le_bytes());
            w.column(&c.off, |p| p.to_le_bytes());
        }
    }

    /// Read back what [`encode`](Self::encode) wrote. Every count is
    /// checked against the bytes left before anything is allocated.
    pub(crate) fn decode(r: &mut ColumnReader<'_>) -> Result<StatsSnapshot, String> {
        let paths = r.column("paths", u64::from_le_bytes)?;
        let tuples = r.column("tuples", u64::from_le_bytes)?;
        let seen_asns = r.column("seen_asns", u32::from_le_bytes)?;
        let keys = r.column("community keys", u32::from_le_bytes)?;
        let mut communities = Vec::with_capacity(keys.len());
        for key in keys {
            communities.push(SnapshotCommunity {
                asn: (key >> 16) as u16,
                value: key as u16,
                on: r.column("on-path fingerprints", u64::from_le_bytes)?,
                off: r.column("off-path fingerprints", u64::from_le_bytes)?,
            });
        }
        Ok(StatsSnapshot {
            paths,
            tuples,
            seen_asns,
            communities,
        })
    }
}

/// Builds a sealed binary file: the envelope header reserved up front,
/// then little-endian scalars and length-prefixed columns (a `u64`
/// element count, then the elements).
#[derive(Debug)]
pub(crate) struct ColumnWriter {
    buf: Vec<u8>,
}

impl ColumnWriter {
    /// A writer with the envelope header reserved.
    pub(crate) fn new() -> Self {
        ColumnWriter {
            buf: vec![0; persist::HEADER_LEN],
        }
    }

    /// One `u64` scalar.
    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// One column: the element count, then `N` bytes per element.
    pub(crate) fn column<T, const N: usize>(&mut self, items: &[T], bytes: impl Fn(&T) -> [u8; N]) {
        self.u64(items.len() as u64);
        let start = self.buf.len();
        self.buf.resize(start + items.len() * N, 0);
        for (dst, item) in self.buf[start..].chunks_exact_mut(N).zip(items) {
            dst.copy_from_slice(&bytes(item));
        }
    }

    /// One byte column.
    pub(crate) fn bytes(&mut self, bytes: &[u8]) {
        self.u64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// The file: the payload written so far, sealed as `format`.
    pub(crate) fn seal(mut self, format: &Format) -> Vec<u8> {
        format.seal(&mut self.buf);
        self.buf
    }
}

/// Reads what a [`ColumnWriter`] wrote, failing with a description of the
/// damage — never a panic, and never an allocation larger than the bytes
/// that are actually there.
#[derive(Debug)]
pub(crate) struct ColumnReader<'a> {
    buf: &'a [u8],
}

impl<'a> ColumnReader<'a> {
    /// A reader over a payload.
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        ColumnReader { buf }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        if n > self.buf.len() {
            return Err(format!("{what}: needs {n} bytes, {} left", self.buf.len()));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    /// One `u64` scalar.
    pub(crate) fn u64(&mut self, what: &str) -> Result<u64, String> {
        let raw = self.take(8, what)?;
        Ok(u64::from_le_bytes(raw.try_into().expect("8 bytes")))
    }

    /// The raw bytes of one column of `N`-byte elements. The count is
    /// checked against the bytes left before anything is sized by it.
    fn raw<const N: usize>(&mut self, what: &str) -> Result<&'a [u8], String> {
        let count = self.u64(what)?;
        let len = usize::try_from(count)
            .ok()
            .and_then(|n| n.checked_mul(N))
            .filter(|&len| len <= self.buf.len())
            .ok_or_else(|| {
                format!(
                    "{what}: {count} elements of {N} bytes exceed the {} bytes left",
                    self.buf.len()
                )
            })?;
        self.take(len, what)
    }

    /// One column of `N`-byte elements.
    pub(crate) fn column<T, const N: usize>(
        &mut self,
        what: &str,
        parse: impl Fn([u8; N]) -> T,
    ) -> Result<Vec<T>, String> {
        Ok(self
            .raw::<N>(what)?
            .chunks_exact(N)
            .map(|c| parse(c.try_into().expect("N-byte chunk")))
            .collect())
    }

    /// One byte column, borrowed.
    pub(crate) fn bytes(&mut self, what: &str) -> Result<&'a [u8], String> {
        self.raw::<1>(what)
    }

    /// Fail unless every byte was consumed.
    pub(crate) fn finish(self) -> Result<(), String> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(format!("{} trailing bytes", self.buf.len()))
        }
    }
}

/// Byte length + FNV-1a 64 hash of a file's contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileFingerprint {
    /// File length in bytes.
    pub bytes: u64,
    /// FNV-1a 64 over the contents.
    pub hash: u64,
}

/// Fingerprint a file by streaming its contents (FNV-1a 64).
pub fn fingerprint_file(path: &Path) -> io::Result<FileFingerprint> {
    let mut file = File::open(path)?;
    let mut buf = [0u8; 64 * 1024];
    let mut hash: u64 = FNV_OFFSET;
    let mut bytes: u64 = 0;
    loop {
        let n = match file.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        bytes += n as u64;
        hash = fnv1a(hash, &buf[..n]);
    }
    Ok(FileFingerprint { bytes, hash })
}

/// One input file recorded as fully ingested.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedFile {
    /// The file path as given on the command line.
    pub path: String,
    /// Its [`FileFingerprint`] at ingest time.
    pub fingerprint: FileFingerprint,
}

/// The crash-safe run manifest: which files are done, the accounting so
/// far, and the statistics snapshot to resume from.
///
/// # Layout (version 3, all integers little-endian)
///
/// The [`bgp_types::persist`] envelope with magic `BGPBCKPT`, then the
/// payload, where a column is a `u64` element count followed by the
/// elements:
///
/// ```text
///   file sizes    column (u64), one per completed file
///   file hashes   column (u64), FNV-1a 64 of each file
///   paths         one byte column (UTF-8) per file
///   report        byte column: the IngestReport as JSON
///   snapshot      paths (u64) · tuples (u64) · seen_asns (u32) ·
///                 community keys (u32, α << 16 | β), then per community
///                 its on and off fingerprint columns (u64)
/// ```
///
/// Versions 1 and 2 were JSON manifests; they are refused as
/// [`LoadError::Foreign`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Checkpoint {
    /// Files fully ingested, in completion (= input) order. Files that
    /// failed (open error, abort, worker panic) are *not* recorded, so a
    /// resumed run retries them.
    pub files: Vec<CompletedFile>,
    /// Merged ingest accounting over the completed files.
    pub report: IngestReport,
    /// The statistics accumulated over the completed files.
    pub snapshot: StatsSnapshot,
}

impl Checkpoint {
    /// The envelope of checkpoint files and shard artifacts.
    pub const FORMAT: Format = Format {
        magic: *b"BGPBCKPT",
        version: 3,
        name: "checkpoint",
    };

    /// A fresh, empty manifest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether `path` is already recorded, and with which fingerprint.
    pub fn completed(&self, path: &str) -> Option<&FileFingerprint> {
        self.files
            .iter()
            .find(|f| f.path == path)
            .map(|f| &f.fingerprint)
    }

    /// The sealed file, in the order the type-level layout lists it.
    fn encode(&self) -> Vec<u8> {
        let mut w = ColumnWriter::new();
        w.column(&self.files, |f| f.fingerprint.bytes.to_le_bytes());
        w.column(&self.files, |f| f.fingerprint.hash.to_le_bytes());
        for f in &self.files {
            w.bytes(f.path.as_bytes());
        }
        let report =
            serde_json::to_string(&self.report).expect("an IngestReport always serializes");
        w.bytes(report.as_bytes());
        self.snapshot.encode(&mut w);
        w.seal(&Self::FORMAT)
    }

    /// Encode and write durably through [`persist::write_atomic`] (temp
    /// file, fsync, rename, directory fsync). A crash at any point leaves
    /// the previous checkpoint or this one — never a torn file.
    pub fn save_atomic(&self, path: &Path) -> io::Result<()> {
        persist::write_atomic(path, &self.encode())
    }

    /// Read, validate and decode the checkpoint at `path`: the envelope,
    /// then every column count against the bytes left, UTF-8 paths, a
    /// parseable report, and no trailing bytes. Damage of any kind is a
    /// typed [`LoadError`], never a panic or partial state.
    pub fn load(path: &Path) -> Result<Checkpoint, LoadError> {
        Self::FORMAT.load(path, Self::decode)
    }

    fn decode(payload: &[u8]) -> Result<Checkpoint, String> {
        let mut r = ColumnReader::new(payload);
        let sizes = r.column("file sizes", u64::from_le_bytes)?;
        let hashes = r.column("file hashes", u64::from_le_bytes)?;
        if hashes.len() != sizes.len() {
            return Err(format!(
                "{} file sizes, {} hashes",
                sizes.len(),
                hashes.len()
            ));
        }
        let mut files = Vec::with_capacity(sizes.len());
        for (bytes, hash) in sizes.into_iter().zip(hashes) {
            let path = std::str::from_utf8(r.bytes("file path")?)
                .map_err(|e| format!("file path: {e}"))?;
            files.push(CompletedFile {
                path: path.to_owned(),
                fingerprint: FileFingerprint { bytes, hash },
            });
        }
        let report =
            serde_json::from_slice(r.bytes("report")?).map_err(|e| format!("report: {e}"))?;
        let snapshot = StatsSnapshot::decode(&mut r)?;
        r.finish()?;
        Ok(Checkpoint {
            files,
            report,
            snapshot,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(vp: u32, path: &str, comms: &[(u16, u16)]) -> Observation {
        Observation {
            vp: Asn::new(vp),
            prefix: "10.0.0.0/24".parse().unwrap(),
            path: path.parse().unwrap(),
            communities: comms.iter().map(|&(a, b)| Community::new(a, b)).collect(),
            large_communities: Vec::new(),
            time: 0,
        }
    }

    /// A workload with cross-file path overlap, duplicates, and multiple
    /// owners — the cases where count-based merging would double-count.
    fn workload() -> Vec<Observation> {
        let mut all = Vec::new();
        for i in 0..30u32 {
            all.push(obs(
                65000 + (i % 4),
                &format!("{} 1299 {}", 65000 + (i % 4), 64496 + (i % 5)),
                &[(1299, (i % 7) as u16), (3356, (i % 3) as u16)],
            ));
            all.push(obs(
                65100 + (i % 2),
                &format!("{} 64496", 65100 + (i % 2)),
                &[(1299, (i % 7) as u16)],
            ));
        }
        all
    }

    #[test]
    fn accumulator_matches_one_shot_stats() {
        let all = workload();
        let siblings = SiblingMap::from_orgs(vec![vec![Asn::new(1299), Asn::new(64999)]]);
        let direct = PathStats::from_observations(&all, &siblings);
        // Ingest in three uneven "files"; paths recur across the splits.
        let mut acc = StatsAccumulator::new();
        acc.ingest(&all[..7], &siblings, 1);
        acc.ingest(&all[7..40], &siblings, 1);
        acc.ingest(&all[40..], &siblings, 1);
        assert_eq!(acc.to_stats(), direct);
    }

    #[test]
    fn ingest_is_thread_count_invariant() {
        let all = workload();
        let siblings = SiblingMap::default();
        let mut sequential = StatsAccumulator::new();
        sequential.ingest(&all, &siblings, 1);
        for threads in [2, 3, 8] {
            let mut acc = StatsAccumulator::new();
            acc.ingest(&all, &siblings, threads);
            assert_eq!(acc, sequential, "threads = {threads}");
            assert_eq!(acc.snapshot(), sequential.snapshot());
        }
    }

    #[test]
    fn ingest_store_matches_ingest_bit_for_bit() {
        // The columnar fold must be indistinguishable from the slice fold:
        // same sets, same delta order, same snapshot bytes — at any thread
        // count, and across the same "file" boundaries.
        let all = workload();
        let siblings = SiblingMap::from_orgs(vec![vec![Asn::new(1299), Asn::new(64999)]]);
        let mut via_slices = StatsAccumulator::new();
        via_slices.ingest(&all[..11], &siblings, 1);
        via_slices.ingest(&all[11..], &siblings, 1);
        for threads in [1, 2, 8] {
            let mut via_store = StatsAccumulator::new();
            via_store.ingest_store(
                &ObservationStore::from_observations(&all[..11]),
                &siblings,
                threads,
            );
            via_store.ingest_store(
                &ObservationStore::from_observations(&all[11..]),
                &siblings,
                threads,
            );
            assert_eq!(via_store, via_slices, "threads = {threads}");
            assert_eq!(via_store.to_stats(), via_slices.to_stats());
            assert_eq!(
                via_store.snapshot(),
                via_slices.snapshot(),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn merge_is_order_independent() {
        let all = workload();
        let siblings = SiblingMap::default();
        let parts: Vec<StatsAccumulator> = all
            .chunks(13)
            .map(|chunk| {
                let mut acc = StatsAccumulator::new();
                acc.ingest(chunk, &siblings, 1);
                acc
            })
            .collect();
        let mut forward = StatsAccumulator::new();
        for p in parts.clone() {
            forward.merge(p);
        }
        let mut backward = StatsAccumulator::new();
        for p in parts.into_iter().rev() {
            backward.merge(p);
        }
        // Logical content is merge-order independent; snapshot *bytes* are
        // only promised for identical ingest sequences, so compare the sets
        // and the derived statistics, not the serialized segments.
        assert_eq!(forward, backward);
        assert_eq!(forward.to_stats(), backward.to_stats());
    }

    /// The snapshot's column encoding, without an envelope.
    fn encoded(snap: &StatsSnapshot) -> Vec<u8> {
        let mut w = ColumnWriter::new();
        snap.encode(&mut w);
        w.buf
    }

    #[test]
    fn snapshot_roundtrips_through_the_column_codec() {
        let all = workload();
        let siblings = SiblingMap::default();
        let mut acc = StatsAccumulator::new();
        acc.ingest(&all, &siblings, 2);
        let snap = acc.snapshot().clone();
        let bytes = encoded(&snap);
        let mut r = ColumnReader::new(&bytes[persist::HEADER_LEN..]);
        let back = StatsSnapshot::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, snap, "u64 fingerprints survive exactly");
        let mut rebuilt = StatsAccumulator::from_snapshot(&back);
        assert_eq!(rebuilt.to_stats(), acc.to_stats());
        assert_eq!(rebuilt.snapshot(), &snap);
    }

    #[test]
    fn interleaved_snapshots_reproduce_on_resume() {
        // The segment-append path: a run that snapshots after every "file"
        // and an interrupted run resumed from a mid-run snapshot must end in
        // byte-identical encoded state — the contract `--resume` rests
        // on — even at different thread counts.
        let all = workload();
        let siblings = SiblingMap::from_orgs(vec![vec![Asn::new(1299), Asn::new(64999)]]);
        let mut full = StatsAccumulator::new();
        let mut mid = StatsSnapshot::default();
        for (i, chunk) in all.chunks(9).enumerate() {
            full.ingest(chunk, &siblings, 2);
            let snap = full.snapshot();
            if i == 2 {
                mid = snap.clone(); // the crash point
            }
        }
        let mut resumed = StatsAccumulator::from_snapshot(&mid);
        for chunk in all.chunks(9).skip(3) {
            resumed.ingest(chunk, &siblings, 8);
            let _ = resumed.snapshot();
        }
        assert_eq!(resumed.snapshot(), full.snapshot());
        assert_eq!(encoded(resumed.snapshot()), encoded(full.snapshot()));
        // The classifier input is grouping- and cadence-independent.
        let mut one_shot = StatsAccumulator::new();
        one_shot.ingest(&all, &siblings, 1);
        assert_eq!(resumed.to_stats(), one_shot.to_stats());
    }

    #[test]
    fn checkpoint_saves_atomically_and_reloads() {
        let dir = std::env::temp_dir().join("bgp-intent-ckpt-roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");

        let mut acc = StatsAccumulator::new();
        acc.ingest(&workload(), &SiblingMap::default(), 1);
        let mut cp = Checkpoint::new();
        cp.files.push(CompletedFile {
            path: "a.mrt".into(),
            fingerprint: FileFingerprint {
                bytes: 10,
                hash: 99,
            },
        });
        cp.report.records_read = 60;
        cp.report.aborted = Some("a \"quoted\" reason".into());
        cp.snapshot = acc.snapshot().clone();
        cp.save_atomic(&path).unwrap();
        // No temp file left behind.
        assert!(!path.with_file_name("run.ckpt.tmp").exists());
        assert!(std::fs::read(&path).unwrap().starts_with(b"BGPBCKPT"));
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(back, cp);
        assert_eq!(
            back.completed("a.mrt"),
            Some(&FileFingerprint {
                bytes: 10,
                hash: 99
            })
        );
        assert_eq!(back.completed("b.mrt"), None);

        // Overwriting is just as safe.
        cp.files.clear();
        cp.save_atomic(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap().files, cp.files);
    }

    /// Payloads that pass the seal but break the layout: every one is a
    /// described refusal.
    #[test]
    fn checkpoint_structure_is_checked_behind_the_seal() {
        let refused = |w: ColumnWriter, expect: &str| {
            let file = w.seal(&Checkpoint::FORMAT);
            let err = Checkpoint::FORMAT
                .decode(&file, Path::new("x"), Checkpoint::decode)
                .unwrap_err();
            assert!(
                err.to_string().contains(expect),
                "expected {expect:?}, got {err}"
            );
        };
        let fingerprints = |w: &mut ColumnWriter, sizes: &[u64], hashes: &[u64]| {
            w.column(sizes, |v| v.to_le_bytes());
            w.column(hashes, |v| v.to_le_bytes());
        };
        let mut w = ColumnWriter::new();
        fingerprints(&mut w, &[1, 2], &[3]);
        refused(w, "2 file sizes, 1 hashes");
        let mut w = ColumnWriter::new();
        fingerprints(&mut w, &[1], &[3]);
        w.bytes(&[0xff, 0xfe]);
        refused(w, "file path");
        let mut w = ColumnWriter::new();
        fingerprints(&mut w, &[], &[]);
        w.bytes(br#"{"records_read": }"#);
        refused(w, "report");
    }

    #[test]
    fn file_fingerprints_track_content() {
        let dir = std::env::temp_dir().join("bgp-intent-ckpt-fp");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("data.bin");
        std::fs::write(&path, b"hello mrt").unwrap();
        let a = fingerprint_file(&path).unwrap();
        assert_eq!(a.bytes, 9);
        assert_eq!(a, fingerprint_file(&path).unwrap(), "stable across reads");
        // Same length, different content: the hash catches it.
        std::fs::write(&path, b"hello mrT").unwrap();
        let b = fingerprint_file(&path).unwrap();
        assert_eq!(b.bytes, a.bytes);
        assert_ne!(b.hash, a.hash);
    }
}
