//! Per-community path statistics — step 0 of the method.
//!
//! §5.1: *"We calculated the on-path:off-path ratio of a community by
//! counting the number of unique AS paths the community appeared on-path
//! and off-path, respectively."* The on-path test includes siblings (§5.2:
//! "the ASN (or a sibling thereof)").
//!
//! The reduction (`reduce`) runs over interned `(path, community list)`
//! tuples. Every route to a label hands it the unique tuples of a
//! statistics segment ([`StatsAccumulator`]): `infer`, a checkpointed or
//! sharded run and the streaming window all fold into segments, and
//! [`PathStats::from_observations`] folds its slice into one first. Paths,
//! community lists and individual communities are dense `u32` IDs, tuple
//! dedup is a sort over packed `u64` keys, per-community accumulation
//! indexes a flat slot array (a per-slot last-path marker dedups pairs in
//! path-major order, so there is no second sort and no hashing in the
//! loop), each community slot's owner family is resolved once, and the
//! on-path test is a binary search in a sorted interned slice. The
//! parallel reduction shards by interned path ID — every occurrence of a
//! path carries the same ID, so each unique path lands in exactly one
//! shard and per-shard counts merge by summation, bit-identical to the
//! sequential reduction at any thread count.
//! [`PathStats::from_store_threaded`] runs the same reduction over a
//! store's per-observation tuples.

use bgp_relationships::SiblingMap;
use bgp_types::fx::{FxHashMap, FxHashSet};
use bgp_types::par::{effective_threads, par_map_indexed};
use bgp_types::store::{Interner, ObservationStore};
use bgp_types::{Asn, Community, Observation};

use crate::checkpoint::StatsAccumulator;

/// Unique-path counts for one community.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathCounts {
    /// Unique AS paths containing the owner (or a sibling).
    pub on: u32,
    /// Unique AS paths not containing the owner or any sibling.
    pub off: u32,
}

impl PathCounts {
    /// The per-community on:off ratio used inside mixed clusters.
    ///
    /// `off == 0` has no finite ratio; the on-count itself is used as a
    /// conservative proxy (equivalent to assuming one unseen off-path
    /// sighting), which keeps never-off-path communities strongly on the
    /// informational side without infinities.
    pub fn ratio(&self) -> f64 {
        if self.off == 0 {
            self.on as f64
        } else {
            self.on as f64 / self.off as f64
        }
    }
}

/// Aggregated path statistics over a set of observations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PathStats {
    /// Per-community unique-path counts.
    pub per_community: FxHashMap<Community, PathCounts>,
    /// Every ASN appearing in any unique AS path (for the never-on-path
    /// exclusion rule).
    pub seen_asns: FxHashSet<Asn>,
    /// Number of unique `(AS path, communities)` tuples (the §4 unit:
    /// "≈174M tuples" in the paper).
    pub unique_tuples: usize,
    /// Number of unique AS paths.
    pub unique_paths: usize,
}

/// The owner of one community slot, resolved once before the reduction to
/// its full sibling family: either the bare ASN value (owners without
/// siblings — `expand(α) = [α]`) or a `family_pool` range holding every
/// sibling's ASN value. The on-path test is then a binary search of each
/// family member in the path's sorted unique-member slice — the reference
/// reduction's `expand(α).iter().any(|a| members.contains(a))` verbatim,
/// minus the hashing. Resolution happens per community *slot* (hundreds),
/// never per path or per tuple.
#[derive(Clone, Copy)]
enum SlotOwner {
    Plain(u32),
    Family { lo: u32, hi: u32 },
}

/// Precomputed on-path test over one interner: per-community-slot owner
/// family resolution. Built once, then every `(community slot, path ID)`
/// test is a handful of binary searches over dense values — no hashing,
/// no sibling-family walk.
pub(crate) struct OnPathIndex {
    resolved: Vec<SlotOwner>,
    /// ASN values of multi-member owner families, ranged by `SlotOwner::Family`.
    family_pool: Vec<u32>,
}

impl OnPathIndex {
    /// Resolve every community slot of `interner`: `family(owner, pool)`
    /// appends the owner's sibling family to `pool`, and one entry or none
    /// means the owner has no siblings.
    pub(crate) fn build(interner: &Interner, mut family: impl FnMut(u16, &mut Vec<u32>)) -> Self {
        let mut family_pool = Vec::new();
        let resolved = (0..interner.community_count() as u32)
            .map(|slot| {
                let owner = interner.community(slot).asn;
                let lo = family_pool.len();
                family(owner, &mut family_pool);
                if family_pool.len() - lo <= 1 {
                    family_pool.truncate(lo);
                    SlotOwner::Plain(u32::from(owner))
                } else {
                    SlotOwner::Family {
                        lo: lo as u32,
                        hi: family_pool.len() as u32,
                    }
                }
            })
            .collect();
        OnPathIndex {
            resolved,
            family_pool,
        }
    }

    /// [`build`](Self::build) with the families `siblings` defines.
    pub(crate) fn from_siblings(interner: &Interner, siblings: &SiblingMap) -> Self {
        Self::build(interner, |owner, pool| {
            let owner = Asn::new(u32::from(owner));
            pool.extend(siblings.expand_ref(&owner).iter().map(|a| a.value()));
        })
    }

    /// Whether the owner of community slot `slot` (or one of its siblings)
    /// appears on path `path_id`.
    pub(crate) fn on_path(&self, interner: &Interner, path_id: u32, slot: u32) -> bool {
        let members = interner.path_members(path_id);
        match self.resolved[slot as usize] {
            SlotOwner::Plain(asn) => members.binary_search(&asn).is_ok(),
            SlotOwner::Family { lo, hi } => self.family_pool[lo as usize..hi as usize]
                .iter()
                .any(|asn| members.binary_search(asn).is_ok()),
        }
    }
}

/// A `(path ID, community-set ID)` tuple as one sortable key, path-major.
pub(crate) fn pack(path: u32, cset: u32) -> u64 {
    (u64::from(path) << 32) | u64::from(cset)
}

/// One shard's share of the reduction.
pub(crate) struct ShardCounts {
    /// Per community slot: its unique on- and off-path counts.
    pub(crate) counts: Vec<PathCounts>,
    pub(crate) unique_tuples: usize,
    pub(crate) unique_paths: usize,
    /// The sorted unique members of every path in the shard, concatenated.
    pub(crate) members: Vec<u32>,
}

/// Reduce one shard's tuple keys (see [`pack`]).
///
/// Exact under merging-by-sum because sharding by path ID partitions
/// *unique paths*: every occurrence of a path carries the same dense ID,
/// so a community's unique on/off paths in this shard are disjoint from
/// every other shard's. For the same reason the streaming window can
/// recount any set of paths on its own and apply the difference
/// (`WindowedClassifier::reclassify`).
pub(crate) fn shard_stats(
    interner: &Interner,
    index: &OnPathIndex,
    mut tuples: Vec<u64>,
) -> ShardCounts {
    // Dedup tuples with a sort. The sort is path-major, so unique paths
    // fall out as key runs.
    tuples.sort_unstable();
    tuples.dedup();

    // Count unique (community, path) pairs straight off the sorted run:
    // within one path's run of csets a community's slot can repeat, and
    // the `last_path` marker collapses those repeats; once the run moves
    // to the next path the old path never comes back (path-major order),
    // so one marker word per slot is a full dedup — no pair sort at all.
    // One on-path test (a binary search over a handful of entries) per
    // surviving pair.
    let slot_count = index.resolved.len();
    let mut counts = vec![PathCounts::default(); slot_count];
    let mut last_path = vec![u64::MAX; slot_count];
    let mut unique_paths = 0usize;
    let mut members = Vec::new();
    let mut prev_path = u64::MAX;
    for &key in &tuples {
        let path = key >> 32;
        let pid = path as u32;
        if path != prev_path {
            unique_paths += 1;
            prev_path = path;
            members.extend_from_slice(interner.path_members(pid));
        }
        for &slot in interner.cset_slots(key as u32) {
            let s = slot as usize;
            if last_path[s] == path {
                continue;
            }
            last_path[s] = path;
            if index.on_path(interner, pid, slot) {
                counts[s].on += 1;
            } else {
                counts[s].off += 1;
            }
        }
    }

    ShardCounts {
        counts,
        unique_tuples: tuples.len(),
        unique_paths,
        members,
    }
}

/// The reduction over interned tuples, on `threads` workers (`0` = one per
/// CPU): `keys(shard, shard_count)` returns the [`pack`]ed keys of the
/// tuples to count whose path ID is `shard` modulo `shard_count`
/// (duplicates allowed). Each shard is reduced independently and the
/// partial counts summed, bit-identical to one shard at any thread count.
/// `seen_asns` covers exactly the paths the tuples ride.
pub(crate) fn reduce(
    interner: &Interner,
    index: &OnPathIndex,
    threads: usize,
    keys: impl Fn(u32, u32) -> Vec<u64> + Sync,
) -> PathStats {
    let threads = effective_threads(threads);
    let parts = if threads <= 1 {
        vec![shard_stats(interner, index, keys(0, 1))]
    } else {
        par_map_indexed(threads, threads, |i| {
            shard_stats(interner, index, keys(i as u32, threads as u32))
        })
    };

    let mut stats = PathStats::default();
    // Shards partition communities *per path*, not communities: the
    // same slot can collect counts in several shards, so sum, then
    // materialize only slots that occurred in at least one tuple.
    let mut totals = vec![PathCounts::default(); index.resolved.len()];
    let mut members = Vec::new();
    for part in parts {
        for (total, counts) in totals.iter_mut().zip(&part.counts) {
            total.on += counts.on;
            total.off += counts.off;
        }
        stats.unique_tuples += part.unique_tuples;
        stats.unique_paths += part.unique_paths;
        members.extend_from_slice(&part.members);
    }
    for (slot, &counts) in totals.iter().enumerate() {
        if counts.on + counts.off > 0 {
            stats
                .per_community
                .insert(interner.community(slot as u32), counts);
        }
    }
    // Sort-dedup the concatenated member slices first: hashing only the
    // distinct survivors is far cheaper than hashing every entry.
    members.sort_unstable();
    members.dedup();
    stats.seen_asns.reserve(members.len());
    stats.seen_asns.extend(members.iter().map(|&a| Asn::new(a)));
    stats
}

impl PathStats {
    /// Reduce a columnar store's tuples to statistics on `threads` workers
    /// (`0` = one per CPU), sharded by interned path ID — no rehashing of
    /// full paths. Bit-identical to
    /// [`PathStats::from_observations`] over the store's observations at
    /// any thread count. Every CLI route reduces a segment instead
    /// ([`StatsAccumulator::to_stats_threaded`]); this entry point serves
    /// the benchmark harness's store route.
    pub fn from_store_threaded(
        store: &ObservationStore,
        siblings: &SiblingMap,
        threads: usize,
    ) -> Self {
        let index = OnPathIndex::from_siblings(store, siblings);
        let threads = if store.len() < 2 { 1 } else { threads };
        reduce(store, &index, threads, |shard, count| {
            store
                .tuples()
                .filter(|&(p, _)| count == 1 || p % count == shard)
                .map(|(p, c)| pack(p, c))
                .collect()
        })
    }

    /// Reduce observations to statistics. Duplicate `(path, communities)`
    /// tuples collapse; a community's on/off counts are over unique paths.
    ///
    /// Folds them into a [`StatsAccumulator`] and runs its reduction.
    pub fn from_observations(observations: &[Observation], siblings: &SiblingMap) -> Self {
        let mut segment = StatsAccumulator::new();
        segment.ingest_ordered(observations, siblings);
        segment.to_stats()
    }

    /// Observed communities grouped by owner ASN, each group's `β` values
    /// sorted ascending. Deterministic order (by ASN).
    pub fn by_owner(&self) -> Vec<(u16, Vec<u16>)> {
        let mut map: FxHashMap<u16, Vec<u16>> = FxHashMap::default();
        for c in self.per_community.keys() {
            map.entry(c.asn).or_default().push(c.value);
        }
        let mut out: Vec<(u16, Vec<u16>)> = map.into_iter().collect();
        for (_, betas) in &mut out {
            betas.sort_unstable();
            betas.dedup();
        }
        out.sort_unstable_by_key(|(asn, _)| *asn);
        out
    }

    /// Total distinct communities observed.
    pub fn community_count(&self) -> usize {
        self.per_community.len()
    }

    /// The counts for one community, if observed.
    pub fn counts(&self, c: Community) -> Option<PathCounts> {
        self.per_community.get(&c).copied()
    }
}

/// The original hash-set reduction, retained verbatim as the reference
/// oracle for the columnar kernel (see `crates/core/tests/proptests.rs`).
/// Not part of the public API surface proper — test/diagnostic use only.
#[doc(hidden)]
pub fn reference_stats(observations: &[Observation], siblings: &SiblingMap) -> PathStats {
    use bgp_types::AsPath;
    use std::collections::hash_map::Entry;

    let mut path_ids: FxHashMap<&AsPath, u32> = FxHashMap::default();
    let mut tuples: FxHashSet<(u32, &[Community])> = FxHashSet::default();
    for obs in observations {
        let next = path_ids.len() as u32;
        let id = match path_ids.entry(&obs.path) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(v) => *v.insert(next),
        };
        tuples.insert((id, obs.communities.as_slice()));
    }

    let mut members: Vec<FxHashSet<Asn>> = vec![FxHashSet::default(); path_ids.len()];
    let mut seen_asns = FxHashSet::default();
    for (path, &id) in &path_ids {
        let set: FxHashSet<Asn> = path.iter().collect();
        seen_asns.extend(set.iter().copied());
        members[id as usize] = set;
    }

    let mut on_paths: FxHashMap<Community, FxHashSet<u32>> = FxHashMap::default();
    let mut off_paths: FxHashMap<Community, FxHashSet<u32>> = FxHashMap::default();
    for &(path_id, communities) in &tuples {
        for &c in communities {
            let owner = Asn::new(c.asn as u32);
            let family = siblings.expand(owner);
            let on = family.iter().any(|a| members[path_id as usize].contains(a));
            if on {
                on_paths.entry(c).or_default().insert(path_id);
            } else {
                off_paths.entry(c).or_default().insert(path_id);
            }
        }
    }

    let mut per_community: FxHashMap<Community, PathCounts> = FxHashMap::default();
    for (c, set) in on_paths {
        per_community.entry(c).or_default().on = set.len() as u32;
    }
    for (c, set) in off_paths {
        per_community.entry(c).or_default().off = set.len() as u32;
    }

    PathStats {
        per_community,
        seen_asns,
        unique_tuples: tuples.len(),
        unique_paths: path_ids.len(),
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

    #[test]
    fn fig5_counting() {
        // The three collector paths of Fig 5. Community 1299:2569 rides
        // routes via 65432 (off-path) and via 7018|1299 (on-path);
        // 1299:35130 is always on-path.
        let observations = vec![
            obs(65541, "65541 3356 1299 64496", &[(1299, 35130)]),
            obs(65432, "65432 64496", &[(1299, 2569)]),
            obs(
                65269,
                "65269 7018 1299 64496",
                &[(1299, 2569), (1299, 35130)],
            ),
        ];
        let stats = PathStats::from_observations(&observations, &SiblingMap::default());
        let action = stats.counts(Community::new(1299, 2569)).unwrap();
        assert_eq!((action.on, action.off), (1, 1));
        let info = stats.counts(Community::new(1299, 35130)).unwrap();
        assert_eq!((info.on, info.off), (2, 0));
        assert_eq!(stats.unique_paths, 3);
        assert_eq!(stats.unique_tuples, 3);
        assert!(stats.seen_asns.contains(&Asn::new(1299)));
        assert!(!stats.seen_asns.contains(&Asn::new(9999)));
    }

    #[test]
    fn duplicate_tuples_collapse() {
        let observations = vec![
            obs(65541, "65541 1299 64496", &[(1299, 1)]),
            obs(65541, "65541 1299 64496", &[(1299, 1)]),
        ];
        let stats = PathStats::from_observations(&observations, &SiblingMap::default());
        let counts = stats.counts(Community::new(1299, 1)).unwrap();
        assert_eq!((counts.on, counts.off), (1, 0));
        assert_eq!(stats.unique_tuples, 1);
    }

    #[test]
    fn same_path_different_communities_counts_path_once() {
        let observations = vec![
            obs(65541, "65541 1299 64496", &[(1299, 1)]),
            obs(65541, "65541 1299 64496", &[(1299, 1), (1299, 2)]),
        ];
        let stats = PathStats::from_observations(&observations, &SiblingMap::default());
        // Two distinct tuples, one unique path; 1299:1 on one unique path.
        assert_eq!(stats.unique_tuples, 2);
        assert_eq!(stats.unique_paths, 1);
        assert_eq!(stats.counts(Community::new(1299, 1)).unwrap().on, 1);
    }

    #[test]
    fn sibling_expansion_marks_on_path() {
        // 64500 is a sibling of 1299: a path containing 64500 counts as
        // on-path for 1299's communities.
        let siblings = SiblingMap::from_orgs(vec![vec![Asn::new(1299), Asn::new(64500)]]);
        let observations = vec![obs(65541, "65541 64500 64496", &[(1299, 7)])];
        let with = PathStats::from_observations(&observations, &siblings);
        assert_eq!(with.counts(Community::new(1299, 7)).unwrap().on, 1);
        let without = PathStats::from_observations(&observations, &SiblingMap::default());
        assert_eq!(without.counts(Community::new(1299, 7)).unwrap().off, 1);
    }

    #[test]
    fn known_org_owner_off_its_own_paths_counts_off() {
        // An owner with a known org must still count off-path on paths
        // carrying *other* orgs only (exercises the org-ID branch both
        // ways).
        let siblings = SiblingMap::from_orgs(vec![
            vec![Asn::new(1299), Asn::new(64500)],
            vec![Asn::new(3356)],
        ]);
        let observations = vec![
            obs(1, "1 3356 64496", &[(1299, 7)]),
            obs(1, "1 64500 64496", &[(1299, 7)]),
        ];
        let stats = PathStats::from_observations(&observations, &siblings);
        let c = stats.counts(Community::new(1299, 7)).unwrap();
        assert_eq!((c.on, c.off), (1, 1));
    }

    #[test]
    fn ratio_semantics() {
        assert_eq!(PathCounts { on: 320, off: 2 }.ratio(), 160.0);
        assert_eq!(PathCounts { on: 57, off: 0 }.ratio(), 57.0);
        assert_eq!(PathCounts { on: 0, off: 9 }.ratio(), 0.0);
    }

    #[test]
    fn by_owner_groups_and_sorts() {
        let observations = vec![
            obs(1, "1 2 3", &[(200, 9), (100, 5), (100, 1)]),
            obs(1, "1 2 4", &[(100, 5)]),
        ];
        let stats = PathStats::from_observations(&observations, &SiblingMap::default());
        let grouped = stats.by_owner();
        assert_eq!(grouped, vec![(100, vec![1, 5]), (200, vec![9])]);
    }

    #[test]
    fn duplicate_paths_do_not_burn_interned_ids() {
        // Regression: interleaved duplicates of the same path must reuse
        // the first ID so IDs stay dense in 0..unique_paths (the members
        // table is indexed by ID; a burned ID would leave a hole or panic).
        let observations = vec![
            obs(1, "1 1299 64496", &[(1299, 1)]),
            obs(1, "1 1299 64496", &[(1299, 2)]),
            obs(2, "2 64496", &[(1299, 3)]),
            obs(1, "1 1299 64496", &[(1299, 4)]),
            obs(2, "2 64496", &[(1299, 3)]),
        ];
        let stats = PathStats::from_observations(&observations, &SiblingMap::default());
        assert_eq!(stats.unique_paths, 2);
        assert_eq!(stats.unique_tuples, 4);
        // Each community rides exactly one unique path.
        for beta in 1..=4 {
            let c = stats.counts(Community::new(1299, beta)).unwrap();
            assert_eq!(c.on + c.off, 1, "1299:{beta} should sit on one path");
        }
    }

    #[test]
    fn threaded_stats_match_sequential_at_any_thread_count() {
        // A mixed workload: duplicates, shared paths, multiple owners.
        let mut observations = Vec::new();
        for i in 0..40u32 {
            observations.push(obs(
                65000 + (i % 5),
                &format!("{} 1299 {}", 65000 + (i % 5), 64496 + (i % 7)),
                &[(1299, (i % 11) as u16), (3356, (i % 3) as u16)],
            ));
            observations.push(obs(
                65100 + (i % 3),
                &format!("{} 64496", 65100 + (i % 3)),
                &[(1299, (i % 11) as u16)],
            ));
        }
        let siblings = SiblingMap::from_orgs(vec![vec![Asn::new(1299), Asn::new(64500)]]);
        let sequential = PathStats::from_observations(&observations, &siblings);
        let mut segment = StatsAccumulator::new();
        segment.ingest_ordered(&observations, &siblings);
        for threads in [1, 2, 3, 8] {
            let parallel = segment.to_stats_threaded(threads);
            assert_eq!(parallel, sequential, "threads = {threads}");
        }
    }

    #[test]
    fn kernel_matches_reference_reduction() {
        let mut observations = Vec::new();
        for i in 0..60u32 {
            observations.push(obs(
                65000 + (i % 4),
                &format!("{} 3356 1299 {}", 65000 + (i % 4), 64496 + (i % 9)),
                &[(1299, (i % 13) as u16), (65000, (i % 2) as u16)],
            ));
        }
        // Prepending + an AS_SET path for good measure.
        observations.push(obs(7, "7 1299 1299 64496", &[(1299, 3)]));
        observations.push(obs(7, "7 {1299,3356} 64496", &[(1299, 3)]));
        let siblings = SiblingMap::from_orgs(vec![
            vec![Asn::new(1299), Asn::new(64500)],
            vec![Asn::new(65000), Asn::new(65001)],
        ]);
        assert_eq!(
            PathStats::from_observations(&observations, &siblings),
            reference_stats(&observations, &siblings)
        );
    }

    #[test]
    fn prepending_does_not_double_count() {
        let observations = vec![
            obs(1, "1 1299 1299 1299 64496", &[(1299, 5)]),
            obs(1, "1 1299 64496", &[(1299, 5)]),
        ];
        let stats = PathStats::from_observations(&observations, &SiblingMap::default());
        // Two distinct paths (prepending makes them different strings).
        assert_eq!(stats.counts(Community::new(1299, 5)).unwrap().on, 2);
    }

    #[test]
    fn no_observations_give_empty_stats() {
        let siblings = SiblingMap::default();
        assert_eq!(
            PathStats::from_observations(&[], &siblings),
            PathStats::default()
        );
        assert_eq!(reference_stats(&[], &siblings), PathStats::default());
        for threads in [0, 1, 4] {
            assert_eq!(
                StatsAccumulator::new().to_stats_threaded(threads),
                PathStats::default()
            );
            assert_eq!(
                PathStats::from_store_threaded(&ObservationStore::new(), &siblings, threads),
                PathStats::default()
            );
        }
        assert!(PathStats::default().by_owner().is_empty());
    }

    #[test]
    fn a_route_without_communities_still_counts_its_path() {
        let observations = vec![
            obs(1, "1 1299 64496", &[]),
            obs(2, "2 64496", &[(64496, 1)]),
        ];
        let stats = PathStats::from_observations(&observations, &SiblingMap::default());
        assert_eq!(stats.unique_paths, 2);
        assert_eq!(stats.unique_tuples, 2);
        assert_eq!(stats.community_count(), 1);
        assert!(stats.seen_asns.contains(&Asn::new(1299)));
        assert_eq!(
            stats,
            reference_stats(&observations, &SiblingMap::default())
        );
    }

    #[test]
    fn a_repeated_community_in_one_list_counts_its_path_once() {
        let observations = vec![obs(1, "1 1299 64496", &[(1299, 1), (1299, 1), (3356, 2)])];
        let stats = PathStats::from_observations(&observations, &SiblingMap::default());
        assert_eq!(
            stats.counts(Community::new(1299, 1)),
            Some(PathCounts { on: 1, off: 0 })
        );
        assert_eq!(
            stats.counts(Community::new(3356, 2)),
            Some(PathCounts { on: 0, off: 1 })
        );
        assert_eq!(stats.counts(Community::new(3356, 3)), None);
    }

    #[test]
    fn an_as_set_member_puts_its_owner_on_path() {
        let observations = vec![
            obs(1, "1 {1299,3356} 64496", &[(1299, 1), (174, 1)]),
            obs(1, "1 3356 64496", &[(1299, 1)]),
        ];
        let stats = PathStats::from_observations(&observations, &SiblingMap::default());
        assert_eq!(
            stats.counts(Community::new(1299, 1)),
            Some(PathCounts { on: 1, off: 1 })
        );
        assert_eq!(
            stats.counts(Community::new(174, 1)),
            Some(PathCounts { on: 0, off: 1 })
        );
        let seen: std::collections::BTreeSet<u32> =
            stats.seen_asns.iter().map(|a| a.value()).collect();
        assert_eq!(seen, [1, 1299, 3356, 64496].into_iter().collect());
    }

    #[test]
    fn a_sibling_family_with_only_its_owner_is_the_bare_owner() {
        let store = ObservationStore::from_observations(&[
            obs(1, "1 1299 64496", &[(1299, 1)]),
            obs(1, "1 64500 64496", &[(1299, 2), (3356, 1)]),
        ]);
        // One-member families resolve to the owner itself; a real family
        // is searched member by member.
        let bare = OnPathIndex::build(&store, |owner, pool| pool.push(u32::from(owner)));
        let none = OnPathIndex::build(&store, |_, _| {});
        let family = OnPathIndex::build(&store, |owner, pool| {
            pool.push(u32::from(owner));
            if owner == 1299 {
                pool.push(64500);
            }
        });
        assert!(bare.family_pool.is_empty() && none.family_pool.is_empty());
        // One range per slot of the owner: 1299:1 and 1299:2, two members each.
        assert_eq!(family.family_pool, vec![1299, 64500, 1299, 64500]);
        let slot_1299_2 = store.cset_slots(1)[0];
        for index in [&bare, &none] {
            assert!(index.on_path(&store, 0, 0));
            assert!(!index.on_path(&store, 1, slot_1299_2));
        }
        assert!(family.on_path(&store, 1, slot_1299_2));
        assert!(!family.on_path(&store, 1, store.cset_slots(1)[1]));
    }

    #[test]
    fn packed_keys_sort_path_major() {
        assert_eq!(pack(0, 0), 0);
        assert_eq!(pack(1, 2), (1 << 32) | 2);
        assert!(pack(0, u32::MAX) < pack(1, 0));
        assert!(pack(1, 0) < pack(1, 1));
        assert_eq!(pack(u32::MAX, u32::MAX), u64::MAX);
    }

    #[test]
    fn store_and_slice_entry_points_agree() {
        let observations: Vec<Observation> = (0..30u32)
            .map(|i| {
                obs(
                    i % 3,
                    &format!("{} {} 64496", i % 3, 1299 + i % 4),
                    &[((1299 + i % 4) as u16, (i % 5) as u16)],
                )
            })
            .collect();
        let siblings = SiblingMap::from_orgs(vec![vec![Asn::new(1299), Asn::new(1300)]]);
        let store = ObservationStore::from_observations(&observations);
        let expected = reference_stats(&observations, &siblings);
        assert_eq!(
            PathStats::from_observations(&observations, &siblings),
            expected
        );
        for threads in [0, 1, 2, 5] {
            assert_eq!(
                PathStats::from_store_threaded(&store, &siblings, threads),
                expected,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn only_observed_communities_are_reported() {
        let observations = vec![obs(1, "1 2", &[(100, 1)]), obs(1, "1 3", &[(200, 2)])];
        let stats = PathStats::from_observations(&observations, &SiblingMap::default());
        assert_eq!(stats.community_count(), 2);
        assert!(stats.counts(Community::new(100, 2)).is_none());
        assert_eq!(stats.by_owner(), vec![(100, vec![1]), (200, vec![2])]);
    }
}
