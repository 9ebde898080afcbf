//! Columnar, fully interned observation storage.
//!
//! The reduction at the heart of the method (§4–5.1: ≈174M `(AS path,
//! communities)` tuples folded into per-community on/off unique-path
//! counts) is memory-bound long before it is compute-bound. Storing each
//! observation as an owned [`Observation`] builds a small heap graph per
//! record — an `AsPath` with per-segment `Vec`s plus a `Vec<Community>` —
//! even though the distinct paths and community sets number in the
//! thousands while observations number in the millions.
//!
//! An [`Interner`] holds each distinct AS path and community list once,
//! under a dense `u32` ID in first-seen order, with the path's sorted
//! unique ASN members computed once per unique path. Interned paths are
//! flat: per-path segment descriptors and ASN values live in shared pools,
//! borrowed back out as [`AsPathView`]s, so interning from a decoder's
//! borrowed [`ObservationView`] never touches the heap on the duplicate
//! (hot) path — see [`ObservationSink::push_observation_view`].
//! [`ObservationStore`] is an interner plus per-observation columns; the
//! statistics segment the checkpointing and streaming paths fold into is
//! an interner plus a set of `(path ID, list ID)` tuples. The stats kernel
//! then runs entirely over dense integers: tuple dedup is a sort over
//! packed `u64` keys, the on-path test is a binary search in a sorted
//! member slice, and sharding by path ID partitions unique paths exactly
//! (every occurrence of a path carries the same ID), so parallel partial
//! counts merge by summation with no rehashing.
//!
//! Two invariants matter for correctness elsewhere:
//!
//! * **Identity is exact.** A 64-bit hash only picks where an [`IdTable`]
//!   probe starts; every hit is confirmed by comparing the interned value
//!   itself, so two distinct paths (or lists) that share a hash still get
//!   two IDs. No hash is persisted or serves as an identity.
//! * **Community-set identity is the exact ordered list.** Tuple dedup is
//!   order- and duplicate-sensitive (`(path, [a, b])` ≠ `(path, [b, a])`),
//!   so the interner keys on the literal list — kept as its communities'
//!   slot IDs, hashed by their values — not a sorted set.

use std::hash::Hasher;
use std::ops::Deref;

use crate::fx::{FxHashMap, FxHasher};
use crate::observation::Observation;
use crate::{AsPath, AsPathView, Asn, Community, LargeCommunity, Prefix};

/// One decoded route sighting borrowed from a decoder's buffers: the
/// zero-copy counterpart of [`Observation`]. The path and attribute
/// slices typically point into a per-file scratch arena (wire values need
/// byte-order conversion, so they cannot alias the raw read buffer) and
/// are valid only until the decoder reuses it — sinks must intern or copy
/// before returning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObservationView<'a> {
    /// The vantage point (collector peer) that exported the route.
    pub vp: Asn,
    /// The observed prefix.
    pub prefix: Prefix,
    /// The AS path as recorded, borrowed as flat slices.
    pub path: AsPathView<'a>,
    /// Regular communities on the route.
    pub communities: &'a [Community],
    /// Large communities (RFC 8092) on the route.
    pub large_communities: &'a [LargeCommunity],
    /// Unix seconds when the route was (last) observed.
    pub time: u32,
}

impl<'a> ObservationView<'a> {
    /// View of an owned observation, its path flattened into
    /// caller-provided scratch (see [`AsPathView::of`]).
    pub fn of(obs: &'a Observation, segs: &'a mut Vec<(u8, u32)>, asns: &'a mut Vec<u32>) -> Self {
        ObservationView {
            vp: obs.vp,
            prefix: obs.prefix,
            path: AsPathView::of(&obs.path, segs, asns),
            communities: &obs.communities,
            large_communities: &obs.large_communities,
            time: obs.time,
        }
    }

    /// Materialize an owned [`Observation`] (the default-sink escape path).
    pub fn to_observation(&self) -> Observation {
        Observation {
            vp: self.vp,
            prefix: self.prefix,
            path: self.path.to_path(),
            communities: self.communities.to_vec(),
            large_communities: self.large_communities.to_vec(),
            time: self.time,
        }
    }
}

/// Anything observations can be folded into as they are decoded.
///
/// MRT ingestion is generic over this sink, so the one decode loop can
/// materialize a `Vec<Observation>`, intern into an [`ObservationStore`],
/// or fold into any other consumer (the streaming window) without an
/// intermediate vector.
pub trait ObservationSink {
    /// Fold one *borrowed* observation into the sink — the zero-copy entry
    /// point the view decoder uses. The view borrows the decoder's
    /// buffers, so a sink interns or copies before returning;
    /// [`ObservationStore`] interns straight from the borrowed slices with
    /// no per-record allocation.
    fn push_observation_view(&mut self, view: &ObservationView<'_>);
    /// Fold one owned observation, as the owned decoder produces it. The
    /// default folds it as a view.
    fn push_observation(&mut self, obs: Observation) {
        let (mut segs, mut asns) = (Vec::new(), Vec::new());
        self.push_observation_view(&ObservationView::of(&obs, &mut segs, &mut asns));
    }
    /// Number of observations folded so far.
    fn observation_count(&self) -> usize;
}

impl ObservationSink for Vec<Observation> {
    fn push_observation_view(&mut self, view: &ObservationView<'_>) {
        self.push(view.to_observation());
    }
    fn push_observation(&mut self, obs: Observation) {
        self.push(obs);
    }
    fn observation_count(&self) -> usize {
        self.len()
    }
}

impl ObservationSink for ObservationStore {
    fn push_observation_view(&mut self, view: &ObservationView<'_>) {
        self.push_view(view);
    }
    fn observation_count(&self) -> usize {
        self.len()
    }
}

/// An open-addressing table from 64-bit hashes to dense IDs — the
/// interner's hottest structure, probed twice per observation. The hash
/// is already mixed, so its low bits pick the first slot and a probe is a
/// short linear scan; a slot whose hash matches is only a candidate, and
/// the caller's exact comparison makes it a hit. A collision therefore
/// costs one more compare, never a wrong ID.
///
/// A slot keeps its ID plus one, so an all-zero slot is free: a new table
/// comes zeroed from the allocator with no pass to fill it, and whichever
/// thread fills it first writes one slot per page before it probes. IDs
/// stop below `u32::MAX`; that many unique elements would exhaust memory
/// long before.
///
/// Two tables are equal when they hold the same `(hash, ID)` entries: a
/// table reserved up front and one grown by inserting the same entries
/// place them at different slots.
#[derive(Debug, Clone, Default)]
pub struct IdTable {
    /// `(hash, id + 1)` pairs, `(0, 0)` when free; capacity is a power of
    /// two. Load factor stays ≤ 3/4.
    slots: Vec<(u64, u32)>,
    len: usize,
}

impl IdTable {
    /// The ID stored under `hash` whose value `is_key` confirms.
    #[inline]
    pub fn find(&self, hash: u64, mut is_key: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let (slot_hash, stored) = self.slots[i];
            if stored == 0 {
                return None;
            }
            if slot_hash == hash && is_key(stored - 1) {
                return Some(stored - 1);
            }
            i = (i + 1) & mask;
        }
    }

    /// Store `id` under `hash`. The caller has checked, with
    /// [`find`](Self::find), that its value is absent.
    #[inline]
    pub fn insert(&mut self, hash: u64, id: u32) {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.rehash((self.slots.len() * 2).max(64));
        }
        self.place(hash, id);
        self.len += 1;
    }

    /// Make room for `additional` more entries at once, so inserting them
    /// rehashes nothing.
    pub fn reserve(&mut self, additional: usize) {
        let need = self.len + additional;
        if need * 4 > self.slots.len() * 3 {
            self.rehash((need * 4).div_ceil(3).next_power_of_two().max(64));
        }
    }

    /// Move every entry into a table of `cap` slots.
    fn rehash(&mut self, cap: usize) {
        let old = std::mem::replace(&mut self.slots, vec![(0, 0); cap]);
        if self.len > 0 {
            self.touch();
        }
        for (hash, stored) in old {
            if stored != 0 {
                self.place(hash, stored - 1);
            }
        }
    }

    /// Write the first slot of every page of a table that holds no entry
    /// yet, so each page's first access is a write: a probe that read it
    /// first would map the shared zero page, and the insert after it would
    /// fault again. (The value is hidden from the optimizer, which would
    /// drop a store of zeros to memory it knows is zeroed.)
    fn touch(&mut self) {
        const PER_PAGE: usize = 4096 / std::mem::size_of::<(u64, u32)>();
        for page in self.slots.chunks_mut(PER_PAGE) {
            page[0] = std::hint::black_box((0, 0));
        }
    }

    fn place(&mut self, hash: u64, id: u32) {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        while self.slots[i].1 != 0 {
            i = (i + 1) & mask;
        }
        self.slots[i] = (hash, id + 1);
    }

    /// Index the IDs `new` at once, `hash(id)` the hash of each, where no
    /// two values are meant to be equal: the bulk form of
    /// [`find`](Self::find) then [`insert`](Self::insert) per ID, for a
    /// table rebuilt from values known to be distinct. `same(a, b)` says
    /// whether the values of IDs `a < b` are equal.
    ///
    /// The IDs are placed in the order of the region their probe starts
    /// in (a counting sort on the probe start's high bits, stable in ID
    /// order), so the table is swept once, a region at a time, where one
    /// insert per ID would reach it at random — each a cache miss once the
    /// table outgrows the cache. Equal values hash alike, so an ID meets
    /// every equal one with a smaller ID first. Returns the smallest ID
    /// whose value equals one with a smaller ID — what inserting in ID
    /// order would stop at first — and then leaves the table part-way.
    /// The order is built in `scratch`.
    pub fn index_distinct(
        &mut self,
        new: std::ops::Range<u32>,
        hash: impl Fn(u32) -> u64,
        mut same: impl FnMut(u32, u32) -> bool,
        scratch: &mut IndexScratch,
    ) -> Option<u32> {
        if new.is_empty() {
            return None;
        }
        self.reserve(new.len());
        if self.len == 0 {
            self.touch();
        }
        let order = &mut scratch.order;
        self.region_order(new, &hash, order);
        let mut repeat: Option<u32> = None;
        for &id in order.iter() {
            let hash = hash(id);
            if self.find(hash, |earlier| same(earlier, id)).is_some() {
                repeat = Some(repeat.map_or(id, |r| r.min(id)));
            } else {
                self.place(hash, id);
                self.len += 1;
            }
        }
        repeat
    }

    /// `ids` into `order`, ordered by the region of this table their probe
    /// starts in (a counting sort on the probe start's high bits: at most
    /// 2^12 regions), in ID order within a region.
    fn region_order(
        &self,
        ids: std::ops::Range<u32>,
        hash: &impl Fn(u32) -> u64,
        order: &mut Vec<u32>,
    ) {
        let bits = self.slots.len().trailing_zeros();
        let shift = bits.saturating_sub(REGION_BITS);
        let mask = self.slots.len() - 1;
        let region = |id: u32| (hash(id) as usize & mask) >> shift;
        let mut starts = vec![0u32; (1 << (bits - shift)) + 1];
        for id in ids.clone() {
            starts[region(id) + 1] += 1;
        }
        for r in 1..starts.len() {
            starts[r] += starts[r - 1];
        }
        order.clear();
        order.resize(ids.len(), 0);
        for id in ids {
            let at = &mut starts[region(id)];
            order[*at as usize] = id;
            *at += 1;
        }
    }

    /// Every `(hash, id)` entry, sorted.
    fn entries(&self) -> Vec<(u64, u32)> {
        let mut entries: Vec<(u64, u32)> = self
            .slots
            .iter()
            .copied()
            .filter(|&(_, stored)| stored != 0)
            .map(|(hash, stored)| (hash, stored - 1))
            .collect();
        entries.sort_unstable();
        entries
    }
}

impl PartialEq for IdTable {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.entries() == other.entries()
    }
}

/// The regions [`IdTable::index_distinct`] orders its IDs by: at most
/// 2^12, so a region of a large table is a few cache lines of slots.
const REGION_BITS: u32 = 12;

/// The buffers a bulk index works in ([`IdTable::index_distinct`],
/// [`PathTable::extend_distinct`], [`ListTable::extend_distinct`]): the
/// IDs in placement order and, for lists, their probe hashes. A load that
/// builds its tables on task threads sizes them in the calling thread and
/// drops them there: memory a task thread allocates and frees stays in
/// that thread's allocator arena, where the thread that goes on with the
/// segment cannot reuse it (≈2 MB more of the `shard` supervisor's peak
/// on `ribs`, which loads two artifacts at once).
#[derive(Debug, Default)]
pub struct IndexScratch {
    order: Vec<u32>,
    hashes: Vec<u64>,
}

impl IndexScratch {
    /// Room to index `ids` IDs at once, `hashes` of them lists.
    pub fn with_capacity(ids: usize, hashes: usize) -> Self {
        IndexScratch {
            order: Vec::with_capacity(ids),
            hashes: Vec::with_capacity(hashes),
        }
    }
}

/// Why [`PathTable::extend_distinct`] or [`ListTable::extend_distinct`]
/// refused what it was given.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExtendError<E> {
    /// The smallest ID whose value equals one with a smaller ID.
    Repeat(u32),
    /// The filler's own error.
    Fill(E),
}

/// The probe hash of a community list, from its values, so a list hashes
/// the same whether it arrives as values or as slots. Two communities fold
/// in as one word (the length tells a trailing zero from a community).
fn list_hash(len: usize, mut communities: impl Iterator<Item = Community>) -> u64 {
    let mut h = FxHasher::default();
    h.write_usize(len);
    while let Some(first) = communities.next() {
        let second = communities.next().map_or(0, Community::to_u32);
        h.write_u64(u64::from(first.to_u32()) << 32 | u64::from(second));
    }
    h.finish()
}

/// AS paths and community lists, each interned once under a dense `u32`
/// ID in first-seen order, and the individual communities those lists
/// carry under dense slot IDs, also in first-seen order. A list is kept
/// once, as its run of slots; its values are read through the slot
/// dictionary. Interning is deterministic: the same sequence of paths and
/// lists always yields the same IDs, slots and pools.
///
/// The two halves are independent tables — the [`PathTable`] and the
/// [`ListTable`] with its slot dictionary — so a segment rebuilt from
/// another's columns can fill both at once ([`tables_mut`](Self::tables_mut)):
/// each keeps its first-seen IDs however the other is built.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Interner {
    paths: PathTable,
    lists: ListTable,
}

/// The AS paths of an [`Interner`] (ID space: `0..len`), flat: per-path
/// segment descriptors and ASN values in shared pools, and each path's
/// sorted unique members beside them.
#[derive(Debug, Clone, PartialEq)]
pub struct PathTable {
    ids: IdTable,
    /// Each path's probe hash ([`AsPathView::fingerprint`]), so merging
    /// another table's paths in never rehashes them.
    hashes: Vec<u64>,
    /// `seg_offsets[id]..seg_offsets[id+1]` indexes `segs`.
    seg_offsets: Vec<u32>,
    /// Per-segment `(tag, ASN count)` pairs of each interned path
    /// (`SEG_SET`/`SEG_SEQUENCE` tags — the flat wire shape).
    segs: Vec<(u8, u32)>,
    /// `asn_offsets[id]..asn_offsets[id+1]` indexes `asns`.
    asn_offsets: Vec<u32>,
    /// Every ASN of each interned path in path order (prepends and set
    /// members inline) — the [`AsPathView`] backing pool.
    asns: Vec<u32>,
    /// `member_offsets[id]..member_offsets[id+1]` indexes `members`.
    member_offsets: Vec<u32>,
    /// Sorted, deduped ASN values of each path (prepends collapse here).
    members: Vec<u32>,
}

impl Default for PathTable {
    fn default() -> Self {
        PathTable {
            ids: IdTable::default(),
            hashes: Vec::new(),
            seg_offsets: vec![0],
            segs: Vec::new(),
            asn_offsets: vec![0],
            asns: Vec::new(),
            member_offsets: vec![0],
            members: Vec::new(),
        }
    }
}

impl PathTable {
    /// The ID of `path`, interning it on first sight. The hot (already
    /// interned) outcome is one probe and an exact compare of the flat
    /// slices; first sight copies them into the pools.
    pub fn intern(&mut self, path: &AsPathView<'_>) -> u32 {
        self.intern_hashed(path, path.fingerprint())
    }

    fn intern_hashed(&mut self, path: &AsPathView<'_>, hash: u64) -> u32 {
        if let Some(id) = self.ids.find(hash, |id| self.view(id) == *path) {
            return id;
        }
        let id = self.push(path, hash);
        self.ids.insert(hash, id);
        id
    }

    /// Append `path` to the pools, unindexed; returns its ID.
    fn push(&mut self, path: &AsPathView<'_>, hash: u64) -> u32 {
        let id = self.hashes.len() as u32;
        self.hashes.push(hash);
        self.segs.extend_from_slice(path.segs);
        self.asns.extend_from_slice(path.asns);
        // The sorted member slice, deduped in place (no scratch).
        let start = self.members.len();
        self.members.extend_from_slice(path.asns);
        let tail = &mut self.members[start..];
        tail.sort_unstable();
        let mut kept = 0;
        for r in 0..tail.len() {
            if kept == 0 || tail[r] != tail[kept - 1] {
                tail[kept] = tail[r];
                kept += 1;
            }
        }
        self.members.truncate(start + kept);
        self.member_offsets.push(self.members.len() as u32);
        self.seg_offsets.push(self.segs.len() as u32);
        self.asn_offsets.push(self.asns.len() as u32);
        id
    }

    /// Append paths known to be distinct, as a checkpoint load does:
    /// `fill` pushes each through the [`PathAppender`], in ID order, and may
    /// stop with an error of its own; every path it pushed is then indexed
    /// at once ([`IdTable::index_distinct`], in `scratch`). IDs and pools are those
    /// interning the same paths one by one gives. A path equal to an
    /// earlier one — pushed or already held — is refused by the smallest
    /// such ID, ahead of `fill`'s error: every path pushed came before it.
    pub fn extend_distinct<E>(
        &mut self,
        scratch: &mut IndexScratch,
        fill: impl FnOnce(&mut PathAppender<'_>) -> Result<(), E>,
    ) -> Result<(), ExtendError<E>> {
        let first = self.len();
        let filled = fill(&mut PathAppender { table: self });
        let PathTable {
            ids,
            hashes,
            seg_offsets,
            segs,
            asn_offsets,
            asns,
            ..
        } = self;
        let view = |id: u32| {
            let i = id as usize;
            let segs = &segs[seg_offsets[i] as usize..seg_offsets[i + 1] as usize];
            let asns = &asns[asn_offsets[i] as usize..asn_offsets[i + 1] as usize];
            (segs, asns)
        };
        let new = first as u32..hashes.len() as u32;
        let same = |a, b| view(a) == view(b);
        match ids.index_distinct(new, |id| hashes[id as usize], same, scratch) {
            Some(id) => Err(ExtendError::Repeat(id)),
            None => filled.map_err(ExtendError::Fill),
        }
    }

    /// Make room for `paths` more paths of `segs` segments and `asns` hops
    /// in all, the ID table included: interning that many rehashes nothing.
    pub fn reserve(&mut self, paths: usize, segs: usize, asns: usize) {
        self.ids.reserve(paths);
        for offsets in [
            &mut self.seg_offsets,
            &mut self.asn_offsets,
            &mut self.member_offsets,
        ] {
            offsets.reserve(paths);
        }
        self.hashes.reserve(paths);
        self.segs.reserve(segs);
        self.asns.reserve(asns);
        self.members.reserve(asns);
    }

    /// Intern every path of `other`, in its ID order, without rehashing
    /// them; returns the map from `other`'s path IDs to this table's.
    fn absorb(&mut self, other: &PathTable) -> Vec<u32> {
        (0..other.len() as u32)
            .map(|id| self.intern_hashed(&other.view(id), other.hashes[id as usize]))
            .collect()
    }

    /// The flat pools behind the path IDs, as a segment persists them:
    /// each path's end offset into the segments, the `(tag, ASN count)`
    /// segments, and the ASNs.
    pub fn pools(&self) -> (&[u32], &[(u8, u32)], &[u32]) {
        (&self.seg_offsets[1..], &self.segs, &self.asns)
    }

    /// Number of distinct AS paths interned.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Whether no path is interned.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// The interned path for a path ID, borrowed from the flat pools.
    pub fn view(&self, id: u32) -> AsPathView<'_> {
        let i = id as usize;
        let seg_lo = self.seg_offsets[i] as usize;
        let seg_hi = self.seg_offsets[i + 1] as usize;
        AsPathView {
            segs: &self.segs[seg_lo..seg_hi],
            asns: self.hops(id),
        }
    }

    /// Every ASN of the interned path in path order, duplicates (prepends)
    /// and set members inline — the flat form of `path.iter()`.
    pub fn hops(&self, id: u32) -> &[u32] {
        let lo = self.asn_offsets[id as usize] as usize;
        let hi = self.asn_offsets[id as usize + 1] as usize;
        &self.asns[lo..hi]
    }

    /// Sorted, deduped ASN values of the interned path.
    pub fn members(&self, id: u32) -> &[u32] {
        let lo = self.member_offsets[id as usize] as usize;
        let hi = self.member_offsets[id as usize + 1] as usize;
        &self.members[lo..hi]
    }
}

/// Pushes paths onto a [`PathTable`]'s pools, unindexed, for
/// [`PathTable::extend_distinct`].
#[derive(Debug)]
pub struct PathAppender<'a> {
    table: &'a mut PathTable,
}

impl PathAppender<'_> {
    /// Append `path`; returns its ID.
    pub fn push(&mut self, path: &AsPathView<'_>) -> u32 {
        self.table.push(path, path.fingerprint())
    }
}

/// The community lists of an [`Interner`] (ID space: `0..len`), each kept
/// as its communities' slot IDs, and the slot dictionary those slots index
/// (slot space: `0..community_count`).
#[derive(Debug, Clone, PartialEq)]
pub struct ListTable {
    ids: IdTable,
    /// `offsets[id]..offsets[id+1]` indexes `slot_pool`.
    offsets: Vec<u32>,
    /// Each exact ordered community list as its communities' slot IDs
    /// (order and duplicates preserved — tuple identity is
    /// order-sensitive), so the stats kernel indexes per-community state
    /// with no hashing.
    slot_pool: Vec<u32>,
    community_ids: FxHashMap<u32, u32>,
    /// The slot dictionary: the community behind each slot.
    communities: Vec<Community>,
}

impl Default for ListTable {
    fn default() -> Self {
        ListTable {
            ids: IdTable::default(),
            offsets: vec![0],
            slot_pool: Vec::new(),
            community_ids: FxHashMap::default(),
            communities: Vec::new(),
        }
    }
}

impl ListTable {
    /// The ID of the exact list `communities`, interning it on first sight
    /// and giving its first-seen communities their slot IDs. A candidate is
    /// compared through the slot dictionary, and a new list looks up each
    /// of its communities' slots once.
    pub fn intern(&mut self, communities: &[Community]) -> u32 {
        let hash = list_hash(communities.len(), communities.iter().copied());
        let found = self.ids.find(hash, |id| {
            let slots = self.slots(id);
            slots.len() == communities.len()
                && slots
                    .iter()
                    .zip(communities)
                    .all(|(&slot, &c)| self.communities[slot as usize] == c)
        });
        if let Some(id) = found {
            return id;
        }
        let id = self.len() as u32;
        self.ids.insert(hash, id);
        for &c in communities {
            let slot = self.intern_community(c);
            self.slot_pool.push(slot);
        }
        self.offsets.push(self.slot_pool.len() as u32);
        id
    }

    /// The ID of the exact list whose communities are this table's
    /// `slots`, interning it on first sight: no dictionary lookup per
    /// entry, and a candidate is compared slot for slot. Every slot must
    /// be below [`community_count`](Self::community_count).
    pub fn intern_slots(&mut self, slots: &[u32]) -> u32 {
        let hash = self.slots_hash(slots);
        if let Some(id) = self.ids.find(hash, |id| self.slots(id) == slots) {
            return id;
        }
        let id = self.push_slots(slots);
        self.ids.insert(hash, id);
        id
    }

    /// The probe hash of the list whose communities are `slots`.
    fn slots_hash(&self, slots: &[u32]) -> u64 {
        let dictionary = &self.communities;
        list_hash(slots.len(), slots.iter().map(|&s| dictionary[s as usize]))
    }

    /// Append the list `slots` to the pool, unindexed; returns its ID.
    fn push_slots(&mut self, slots: &[u32]) -> u32 {
        let id = self.len() as u32;
        self.slot_pool.extend_from_slice(slots);
        self.offsets.push(self.slot_pool.len() as u32);
        id
    }

    /// Append lists known to be distinct, as a checkpoint load does:
    /// `fill` gives communities their slots and pushes each list, as
    /// slots, through the [`ListAppender`], in ID order, and may stop with
    /// an error of its own; every list it pushed is then hashed and indexed
    /// at once ([`IdTable::index_distinct`], in `scratch`). IDs, slots and
    /// pools are those
    /// interning the same communities and lists one by one gives. A list
    /// equal to an earlier one — pushed or already held — is refused by the
    /// smallest such ID, ahead of `fill`'s error: every list pushed came
    /// before it.
    pub fn extend_distinct<E>(
        &mut self,
        scratch: &mut IndexScratch,
        fill: impl FnOnce(&mut ListAppender<'_>) -> Result<(), E>,
    ) -> Result<(), ExtendError<E>> {
        let first = self.len();
        let filled = fill(&mut ListAppender { table: self });
        let new = first as u32..self.len() as u32;
        let mut hashes = std::mem::take(&mut scratch.hashes);
        hashes.clear();
        hashes.extend(new.clone().map(|id| self.slots_hash(self.slots(id))));
        let ListTable {
            ids,
            offsets,
            slot_pool,
            ..
        } = self;
        let slots = |id: u32| {
            let i = id as usize;
            &slot_pool[offsets[i] as usize..offsets[i + 1] as usize]
        };
        let hash = |id: u32| hashes[(id as usize) - first];
        let repeat = ids.index_distinct(new, hash, |a, b| slots(a) == slots(b), scratch);
        scratch.hashes = hashes;
        match repeat {
            Some(id) => Err(ExtendError::Repeat(id)),
            None => filled.map_err(ExtendError::Fill),
        }
    }

    /// The slot ID of `c`, giving it the next one on first sight.
    pub fn intern_community(&mut self, c: Community) -> u32 {
        let next = self.communities.len() as u32;
        let slot = *self.community_ids.entry(c.to_u32()).or_insert(next);
        if slot == next {
            self.communities.push(c);
        }
        slot
    }

    /// Make room for `lists` more lists of `entries` communities in all,
    /// the ID table included: interning that many rehashes nothing.
    pub fn reserve(&mut self, lists: usize, entries: usize) {
        self.ids.reserve(lists);
        self.offsets.reserve(lists);
        self.slot_pool.reserve(entries);
    }

    /// Intern every list of `other`, in its ID order, and return the map
    /// from `other`'s list IDs to this table's. `other`'s communities are
    /// mapped to this table's slots once, in `other`'s slot order — the
    /// order its lists first use them — so each list is interned by its
    /// slots, with no lookup per entry.
    fn absorb(&mut self, other: &ListTable) -> Vec<u32> {
        let slot_map: Vec<u32> = other
            .communities
            .iter()
            .map(|&c| self.intern_community(c))
            .collect();
        let mut slots = Vec::new();
        (0..other.len() as u32)
            .map(|id| {
                slots.clear();
                slots.extend(other.slots(id).iter().map(|&s| slot_map[s as usize]));
                self.intern_slots(&slots)
            })
            .collect()
    }

    /// The flat pools behind the list IDs: each list's end offset into the
    /// slot pool, the slot pool, and the slot dictionary (the community
    /// behind each slot).
    pub fn pools(&self) -> (&[u32], &[u32], &[Community]) {
        (&self.offsets[1..], &self.slot_pool, &self.communities)
    }

    /// Number of distinct community lists interned.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether no list is interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of distinct individual communities interned (slot space).
    pub fn community_count(&self) -> usize {
        self.communities.len()
    }

    /// The community behind a dense slot ID.
    pub fn community(&self, slot: u32) -> Community {
        self.communities[slot as usize]
    }

    /// Dense community-slot IDs of a list ID (order and duplicates
    /// preserved).
    #[inline]
    pub fn slots(&self, id: u32) -> &[u32] {
        let lo = self.offsets[id as usize] as usize;
        let hi = self.offsets[id as usize + 1] as usize;
        &self.slot_pool[lo..hi]
    }
}

/// Gives communities their slots and pushes lists onto a [`ListTable`],
/// unindexed, for [`ListTable::extend_distinct`].
#[derive(Debug)]
pub struct ListAppender<'a> {
    table: &'a mut ListTable,
}

impl ListAppender<'_> {
    /// The slot ID of `c`, giving it the next one on first sight.
    pub fn intern_community(&mut self, c: Community) -> u32 {
        self.table.intern_community(c)
    }

    /// Append the list whose communities are `slots`, each below
    /// [`community_count`](Self::community_count); returns its ID.
    pub fn push_slots(&mut self, slots: &[u32]) -> u32 {
        self.table.push_slots(slots)
    }

    /// Number of lists, those pushed included.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether there is no list yet.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Number of communities given a slot.
    pub fn community_count(&self) -> usize {
        self.table.community_count()
    }

    /// The community behind a slot.
    pub fn community(&self, slot: u32) -> Community {
        self.table.community(slot)
    }
}

impl Interner {
    /// The ID of `path`, interning it on first sight (see
    /// [`PathTable::intern`]).
    pub fn intern_path(&mut self, path: &AsPathView<'_>) -> u32 {
        self.paths.intern(path)
    }

    /// The ID of the exact list `communities`, interning it on first sight
    /// and giving its first-seen communities their slot IDs (see
    /// [`ListTable::intern`]).
    pub fn intern_cset(&mut self, communities: &[Community]) -> u32 {
        self.lists.intern(communities)
    }

    /// The ID of the exact list whose communities are this interner's
    /// `slots`, interning it on first sight (see
    /// [`ListTable::intern_slots`]). Every slot must be below
    /// [`community_count`](Self::community_count).
    pub fn intern_cset_slots(&mut self, slots: &[u32]) -> u32 {
        self.lists.intern_slots(slots)
    }

    /// The slot ID of `c`, giving it the next one on first sight.
    pub fn intern_community(&mut self, c: Community) -> u32 {
        self.lists.intern_community(c)
    }

    /// Make room for `paths` more paths of `segs` segments and `asns` hops
    /// in all, and `lists` more lists of `entries` communities in all, the
    /// ID tables included: interning that many rehashes nothing.
    pub fn reserve(
        &mut self,
        paths: usize,
        segs: usize,
        asns: usize,
        lists: usize,
        entries: usize,
    ) {
        self.paths.reserve(paths, segs, asns);
        self.lists.reserve(lists, entries);
    }

    /// Intern every path and list of `other` (its paths without rehashing
    /// them), in `other`'s ID order, into tables sized for all of them up
    /// front, and return the maps from `other`'s path and list IDs to this
    /// interner's. `other`'s communities are mapped to this interner's
    /// slots once, in `other`'s slot order, so each list is interned by its
    /// slots, with no lookup per entry.
    pub fn absorb(&mut self, other: &Interner) -> (Vec<u32>, Vec<u32>) {
        let (paths, lists) = (&other.paths, &other.lists);
        self.reserve(
            paths.len(),
            paths.segs.len(),
            paths.asns.len(),
            lists.len(),
            lists.slot_pool.len(),
        );
        (self.paths.absorb(paths), self.lists.absorb(lists))
    }

    /// Both tables, borrowed mutably at once: the path table, and the list
    /// table with its slot dictionary.
    pub fn tables_mut(&mut self) -> (&mut PathTable, &mut ListTable) {
        (&mut self.paths, &mut self.lists)
    }

    /// The flat pools behind the path IDs, as a segment persists them:
    /// each path's end offset into the segments, the `(tag, ASN count)`
    /// segments, and the ASNs.
    pub fn path_pools(&self) -> (&[u32], &[(u8, u32)], &[u32]) {
        self.paths.pools()
    }

    /// The flat pools behind the community-set IDs: each list's end offset
    /// into the slot pool, the slot pool, and the slot dictionary (the
    /// community behind each slot).
    pub fn cset_pools(&self) -> (&[u32], &[u32], &[Community]) {
        self.lists.pools()
    }

    /// Number of distinct AS paths interned.
    pub fn path_count(&self) -> usize {
        self.paths.len()
    }

    /// Number of distinct community sets interned.
    pub fn cset_count(&self) -> usize {
        self.lists.len()
    }

    /// Number of distinct individual communities interned (slot space).
    pub fn community_count(&self) -> usize {
        self.lists.community_count()
    }

    /// The community behind a dense slot ID.
    pub fn community(&self, slot: u32) -> Community {
        self.lists.community(slot)
    }

    /// Dense community-slot IDs of a community-set ID, parallel to
    /// [`cset`](Self::cset) (order and duplicates preserved).
    #[inline]
    pub fn cset_slots(&self, id: u32) -> &[u32] {
        self.lists.slots(id)
    }

    /// The interned path for a path ID, borrowed from the flat pools.
    pub fn path_view(&self, id: u32) -> AsPathView<'_> {
        self.paths.view(id)
    }

    /// Every ASN of the interned path in path order, duplicates (prepends)
    /// and set members inline — the flat form of `path.iter()`.
    pub fn path_hops(&self, id: u32) -> &[u32] {
        self.paths.hops(id)
    }

    /// Materialize the interned path for a path ID. Reconstructs from the
    /// flat pools — use [`path_view`](Self::path_view) /
    /// [`path_hops`](Self::path_hops) on hot paths.
    pub fn path(&self, id: u32) -> AsPath {
        self.path_view(id).to_path()
    }

    /// Sorted, deduped ASN values of the interned path. The on-path test
    /// is a binary search in this slice.
    pub fn path_members(&self, id: u32) -> &[u32] {
        self.paths.members(id)
    }

    /// The exact ordered community list for a community-set ID, read
    /// through the slot dictionary.
    pub fn cset(&self, id: u32) -> impl ExactSizeIterator<Item = Community> + '_ {
        let lists = &self.lists;
        lists
            .slots(id)
            .iter()
            .map(|&slot| lists.communities[slot as usize])
    }
}

/// Columnar observation storage with interned paths and community sets.
///
/// Per observation the store keeps two dense IDs (path, community set)
/// plus the scalar columns (`vp`, `prefix`, `time`) and a flat pool for
/// the rare large communities — roughly 40 bytes per observation versus
/// the several heap allocations of an owned [`Observation`]. The store
/// dereferences to its [`Interner`], which answers every path, list and
/// community question. See DESIGN.md § "Data layout".
#[derive(Debug, Clone, Default)]
pub struct ObservationStore {
    interner: Interner,
    // ---- per-observation columns (index space: 0..len) ----
    obs_path: Vec<u32>,
    obs_cset: Vec<u32>,
    vps: Vec<Asn>,
    prefixes: Vec<Prefix>,
    times: Vec<u32>,
    /// `large_offsets[i]..large_offsets[i+1]` indexes `large_pool`.
    large_offsets: Vec<u32>,
    large_pool: Vec<LargeCommunity>,
}

impl Deref for ObservationStore {
    type Target = Interner;

    fn deref(&self) -> &Interner {
        &self.interner
    }
}

impl ObservationStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a store from an observation slice (the thin-wrapper entry
    /// point used by the `Observation`-slice APIs).
    pub fn from_observations(observations: &[Observation]) -> Self {
        let mut store = Self::new();
        store.extend_from_slice(observations);
        store
    }

    /// Fold every observation of `observations` into the store.
    pub fn extend_from_slice(&mut self, observations: &[Observation]) {
        let n = observations.len();
        self.obs_path.reserve(n);
        self.obs_cset.reserve(n);
        self.vps.reserve(n);
        self.prefixes.reserve(n);
        self.times.reserve(n);
        self.large_offsets.reserve(n);
        // Flatten each owned path into reused scratch once, then hash and
        // verify against the flat slices: one pointer-chasing walk of the
        // nested `AsPath` per observation instead of two (hash + compare).
        let (mut segs, mut asns) = (Vec::new(), Vec::new());
        for obs in observations {
            self.push_view(&ObservationView::of(obs, &mut segs, &mut asns));
        }
    }

    /// Fold one observation in, interning its path and community set.
    /// Copies the path / community list into the pools only on first sight.
    pub fn push(&mut self, obs: &Observation) {
        let (mut segs, mut asns) = (Vec::new(), Vec::new());
        self.push_view(&ObservationView::of(obs, &mut segs, &mut asns));
    }

    /// Fold one owned observation in. Equivalent to [`push`](Self::push);
    /// the allocation win stays the same (duplicate paths/sets are dropped
    /// either way), so this simply delegates.
    pub fn push_owned(&mut self, obs: Observation) {
        self.push(&obs);
    }

    /// Fold one borrowed observation in — the zero-copy ingestion path.
    /// Steady state (path and community set already interned) touches no
    /// heap at all: two probes, two slice compares, six column pushes.
    /// First sight of a path/set copies the slices into the flat pools.
    pub fn push_view(&mut self, view: &ObservationView<'_>) {
        let path_id = self.interner.intern_path(&view.path);
        let cset_id = self.interner.intern_cset(view.communities);
        self.push_row(
            path_id,
            cset_id,
            view.vp,
            view.prefix,
            view.time,
            view.large_communities,
        );
    }

    fn push_row(
        &mut self,
        path_id: u32,
        cset_id: u32,
        vp: Asn,
        prefix: Prefix,
        time: u32,
        large: &[LargeCommunity],
    ) {
        self.obs_path.push(path_id);
        self.obs_cset.push(cset_id);
        self.vps.push(vp);
        self.prefixes.push(prefix);
        self.times.push(time);
        self.large_pool.extend_from_slice(large);
        self.large_offsets.push(self.large_pool.len() as u32);
    }

    /// Fold another store into this one, re-interning its unique paths and
    /// community sets by exact key (see [`Interner::absorb`]), then a dense
    /// ID remap per observation. Observation order is `self` then `other`,
    /// so folding per-file stores in input order reproduces the sequential
    /// single-sink order exactly.
    pub fn merge(&mut self, other: &ObservationStore) {
        let (path_map, cset_map) = self.interner.absorb(&other.interner);
        for i in 0..other.len() {
            self.push_row(
                path_map[other.obs_path[i] as usize],
                cset_map[other.obs_cset[i] as usize],
                other.vps[i],
                other.prefixes[i],
                other.times[i],
                other.large(i),
            );
        }
    }

    /// Number of observations stored.
    pub fn len(&self) -> usize {
        self.obs_path.len()
    }

    /// Whether the store holds no observations.
    pub fn is_empty(&self) -> bool {
        self.obs_path.is_empty()
    }

    /// The `(path ID, community-set ID)` tuple of each observation, in
    /// insertion order.
    pub fn tuples(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.obs_path
            .iter()
            .zip(self.obs_cset.iter())
            .map(|(&p, &c)| (p, c))
    }

    /// Path ID of observation `i`.
    pub fn obs_path_id(&self, i: usize) -> u32 {
        self.obs_path[i]
    }

    /// Community-set ID of observation `i`.
    pub fn obs_cset_id(&self, i: usize) -> u32 {
        self.obs_cset[i]
    }

    /// Vantage point of observation `i`.
    pub fn vp(&self, i: usize) -> Asn {
        self.vps[i]
    }

    /// Prefix of observation `i`.
    pub fn prefix(&self, i: usize) -> Prefix {
        self.prefixes[i]
    }

    /// Timestamp of observation `i`.
    pub fn time(&self, i: usize) -> u32 {
        self.times[i]
    }

    /// Large communities of observation `i` (usually empty).
    pub fn large(&self, i: usize) -> &[LargeCommunity] {
        let lo = if i == 0 {
            0
        } else {
            self.large_offsets[i - 1] as usize
        };
        let hi = self.large_offsets[i] as usize;
        &self.large_pool[lo..hi]
    }

    /// Reconstruct observation `i` as an owned [`Observation`].
    pub fn get(&self, i: usize) -> Observation {
        Observation {
            vp: self.vps[i],
            prefix: self.prefixes[i],
            path: self.path(self.obs_path[i]),
            communities: self.cset(self.obs_cset[i]).collect(),
            large_communities: self.large(i).to_vec(),
            time: self.times[i],
        }
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
            time: 7,
        }
    }

    #[test]
    fn interns_paths_and_csets_densely() {
        let observations = vec![
            obs(1, "1 1299 64496", &[(1299, 1)]),
            obs(1, "1 1299 64496", &[(1299, 2)]),
            obs(2, "2 64496", &[(1299, 1)]),
            obs(1, "1 1299 64496", &[(1299, 1)]),
        ];
        let store = ObservationStore::from_observations(&observations);
        assert_eq!(store.len(), 4);
        assert_eq!(store.path_count(), 2);
        assert_eq!(store.cset_count(), 2);
        // Duplicate rows share IDs; first and last rows are identical tuples.
        assert_eq!(store.obs_path_id(0), store.obs_path_id(3));
        assert_eq!(store.obs_cset_id(0), store.obs_cset_id(3));
        assert_eq!(store.path_members(store.obs_path_id(0)), &[1, 1299, 64496]);
    }

    #[test]
    fn prepending_and_sets_produce_distinct_paths_but_collapsed_members() {
        let observations = vec![
            obs(1, "1 1299 1299 64496", &[]),
            obs(1, "1 1299 64496", &[]),
            obs(1, "1 1299 {64496,64497}", &[]),
        ];
        let store = ObservationStore::from_observations(&observations);
        assert_eq!(store.path_count(), 3);
        assert_eq!(store.path_members(0), &[1, 1299, 64496]);
        assert_eq!(store.path_members(2), &[1, 1299, 64496, 64497]);
    }

    #[test]
    fn path_views_roundtrip_and_expose_flat_hops() {
        let observations = vec![
            obs(1, "1 1299 1299 {64496,64497} 7", &[]),
            obs(1, "2 3", &[]),
        ];
        let store = ObservationStore::from_observations(&observations);
        assert_eq!(store.len(), observations.len());
        for (i, expected) in observations.iter().enumerate() {
            let id = store.obs_path_id(i);
            let view = store.path_view(id);
            assert!(view.matches(&expected.path));
            assert_eq!(view.to_path(), expected.path);
            assert_eq!(store.path(id), expected.path);
        }
        assert_eq!(store.path_hops(0), &[1, 1299, 1299, 64496, 64497, 7]);
        assert_eq!(store.path_hops(1), &[2, 3]);
    }

    #[test]
    fn cset_identity_is_order_and_duplicate_sensitive() {
        let observations = vec![
            obs(1, "1 2", &[(100, 1), (100, 2)]),
            obs(1, "1 2", &[(100, 2), (100, 1)]),
            obs(1, "1 2", &[(100, 1), (100, 1)]),
        ];
        let store = ObservationStore::from_observations(&observations);
        assert_eq!(store.cset_count(), 3);
    }

    #[test]
    fn community_slots_parallel_the_cset_pool() {
        let observations = vec![
            obs(1, "1 2", &[(100, 1), (100, 2), (100, 1)]),
            obs(1, "1 3", &[(100, 2), (200, 7)]),
        ];
        let store = ObservationStore::from_observations(&observations);
        assert_eq!(store.community_count(), 3);
        for id in 0..store.cset_count() as u32 {
            let slots = store.cset_slots(id);
            let comms = store.cset(id);
            assert_eq!(slots.len(), comms.len());
            for (&slot, c) in slots.iter().zip(comms) {
                assert_eq!(store.community(slot), c);
            }
        }
        // Duplicate community within a cset keeps its slot.
        assert_eq!(store.cset_slots(0)[0], store.cset_slots(0)[2]);
        // Shared community across csets shares a slot.
        assert_eq!(store.cset_slots(0)[1], store.cset_slots(1)[0]);
    }

    #[test]
    fn roundtrips_observations() {
        let mut original = obs(9, "9 3356 {64496,64500} 1299", &[(3356, 55)]);
        original.large_communities = vec![LargeCommunity {
            global: 3356,
            local1: 1,
            local2: 2,
        }];
        let observations = vec![obs(1, "1 2", &[]), original.clone()];
        let store = ObservationStore::from_observations(&observations);
        assert_eq!(store.get(0), observations[0]);
        assert_eq!(store.get(1), original);
    }

    #[test]
    fn merge_reinterns_and_preserves_order() {
        let a = ObservationStore::from_observations(&[
            obs(1, "1 1299 64496", &[(1299, 1)]),
            obs(2, "2 64496", &[]),
        ]);
        let b = ObservationStore::from_observations(&[
            obs(3, "1 1299 64496", &[(1299, 1)]), // same path+cset as a[0]
            obs(4, "4 64496", &[(1299, 9)]),
        ]);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.len(), 4);
        assert_eq!(merged.path_count(), 3);
        assert_eq!(merged.obs_path_id(0), merged.obs_path_id(2));
        assert_eq!(merged.obs_cset_id(0), merged.obs_cset_id(2));
        for i in 0..2 {
            assert_eq!(merged.get(i), a.get(i));
            assert_eq!(merged.get(i + 2), b.get(i));
        }
    }

    #[test]
    fn sink_parity_between_vec_and_store() {
        let observations = vec![
            obs(1, "1 1299 64496", &[(1299, 1)]),
            obs(2, "2 64496", &[(1299, 2)]),
        ];
        let mut vec_sink: Vec<Observation> = Vec::new();
        let mut store_sink = ObservationStore::new();
        for o in &observations {
            ObservationSink::push_observation(&mut vec_sink, o.clone());
            ObservationSink::push_observation(&mut store_sink, o.clone());
        }
        assert_eq!(vec_sink.observation_count(), store_sink.observation_count());
        for (i, o) in vec_sink.iter().enumerate() {
            assert_eq!(store_sink.get(i), *o);
        }
    }

    #[test]
    fn view_push_matches_owned_push() {
        use crate::aspath::AsPathView;
        let mut original = obs(9, "9 3356 {64496,64500} 1299", &[(3356, 55), (1299, 7)]);
        original.large_communities = vec![LargeCommunity::new(3356, 1, 2)];
        let observations = vec![
            obs(1, "1 1299 64496", &[(1299, 1)]),
            original,
            obs(1, "1 1299 64496", &[(1299, 1)]), // duplicate: hot view path
            obs(2, "", &[]),                      // empty path and cset
        ];
        let mut owned_store = ObservationStore::new();
        let mut view_store = ObservationStore::new();
        let (mut segs, mut asns) = (Vec::new(), Vec::new());
        for o in &observations {
            owned_store.push(o);
            let view = ObservationView {
                vp: o.vp,
                prefix: o.prefix,
                path: AsPathView::of(&o.path, &mut segs, &mut asns),
                communities: &o.communities,
                large_communities: &o.large_communities,
                time: o.time,
            };
            ObservationSink::push_observation_view(&mut view_store, &view);
        }
        assert_eq!(owned_store.len(), view_store.len());
        assert_eq!(owned_store.path_count(), view_store.path_count());
        assert_eq!(owned_store.cset_count(), view_store.cset_count());
        for i in 0..owned_store.len() {
            assert_eq!(owned_store.get(i), view_store.get(i));
            assert_eq!(owned_store.obs_path_id(i), view_store.obs_path_id(i));
            assert_eq!(owned_store.obs_cset_id(i), view_store.obs_cset_id(i));
        }
        assert_eq!(*owned_store, *view_store);
    }

    #[test]
    fn default_view_push_on_vec_sink_materializes() {
        use crate::aspath::AsPathView;
        let o = obs(1, "1 1299 {2,3}", &[(1299, 1)]);
        let (mut segs, mut asns) = (Vec::new(), Vec::new());
        let view = ObservationView {
            vp: o.vp,
            prefix: o.prefix,
            path: AsPathView::of(&o.path, &mut segs, &mut asns),
            communities: &o.communities,
            large_communities: &o.large_communities,
            time: o.time,
        };
        let mut sink: Vec<Observation> = Vec::new();
        sink.push_observation_view(&view);
        assert_eq!(sink, vec![o]);
    }

    #[test]
    fn id_table_survives_growth_and_zero_hashes() {
        // fx_hash_one of an empty path is 0 — the table must not confuse a
        // legitimate zero hash with an empty slot.
        let mut table = IdTable::default();
        assert_eq!(table.find(0, |_| true), None);
        table.insert(0, 42);
        assert_eq!(table.find(0, |id| id == 42), Some(42));
        let hash = |i: u64| i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for i in 1..2000u64 {
            table.insert(hash(i), i as u32);
        }
        assert_eq!(table.find(0, |id| id == 42), Some(42));
        for i in 1..2000u64 {
            assert_eq!(table.find(hash(i), |id| id == i as u32), Some(i as u32));
        }
        assert_eq!(table.find(7, |_| true), None);
    }

    #[test]
    fn a_reserved_table_equals_a_grown_one_by_its_entries() {
        // Four IDs per hash: where each lands depends on insertion order.
        let hash = |i: u64| i / 4;
        let mut grown = IdTable::default();
        let mut reserved = IdTable::default();
        reserved.reserve(500);
        let slots = reserved.slots.len();
        for i in 0..500u64 {
            grown.insert(hash(i), i as u32);
            reserved.insert(hash(499 - i), 499 - i as u32);
        }
        assert_eq!(reserved.slots.len(), slots, "no rehash after the reserve");
        assert_ne!(reserved.slots, grown.slots);
        assert_eq!(reserved, grown);
        grown.insert(hash(500), 500);
        assert_ne!(reserved, grown);
    }

    #[test]
    fn a_list_by_value_and_by_slots_gets_one_hash_and_id() {
        let list = [
            Community::new(100, 2),
            Community::new(100, 3),
            Community::new(100, 1),
            Community::new(100, 2),
        ];
        let seeded = || {
            let mut interner = Interner::default();
            interner.intern_cset(&[Community::new(7, 7), Community::new(100, 1)]);
            interner
        };
        let mut by_value = seeded();
        let id = by_value.intern_cset(&list);
        // The decoder's route: the new communities in slot order, then the
        // list as slots.
        let mut by_slots = seeded();
        let slots: Vec<u32> = list.iter().map(|&c| by_slots.intern_community(c)).collect();
        assert_eq!(slots, [2, 3, 1, 2]);
        assert_eq!(by_slots.intern_cset_slots(&slots), id);
        assert_eq!(by_slots.lists.ids.entries(), by_value.lists.ids.entries());
        assert_eq!(by_slots, by_value);
        // The merge's route: through the slot-to-slot table.
        let mut absorbed = seeded();
        let (_, csets) = absorbed.absorb(&by_value);
        assert_eq!(csets, [0, id]);
        assert_eq!(absorbed.lists.ids.entries(), by_value.lists.ids.entries());
        assert_eq!(absorbed, by_value);
        // Each route finds what the other interned.
        assert_eq!(by_slots.intern_cset(&list), id);
        assert_eq!(by_value.intern_cset_slots(&slots), id);
        assert_eq!(by_value, by_slots, "nothing new was interned");
    }

    /// Indexing distinct values at once gives the entries inserting them
    /// one by one does; among repeats — within the new IDs, against held
    /// entries, or behind a shared hash — the smallest repeating ID is the
    /// one reported.
    #[test]
    fn bulk_indexing_matches_inserting_and_reports_the_first_repeat() {
        // Values 0..n; value v hashes as v / 3 (three values per hash).
        let hash = |v: u32| u64::from(v / 3).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let index = |values: &[u32], held: usize| {
            let mut table = IdTable::default();
            for (id, &v) in values[..held].iter().enumerate() {
                table.insert(hash(v), id as u32);
            }
            let new = held as u32..values.len() as u32;
            let repeat = table.index_distinct(
                new,
                |id| hash(values[id as usize]),
                |a, b| values[a as usize] == values[b as usize],
                &mut IndexScratch::default(),
            );
            (table, repeat)
        };
        let values: Vec<u32> = (0..5000).rev().collect();
        let mut inserted = IdTable::default();
        for (id, &v) in values.iter().enumerate() {
            assert_eq!(inserted.find(hash(v), |e| values[e as usize] == v), None);
            inserted.insert(hash(v), id as u32);
        }
        for held in [0, 1, 2500, 5000] {
            let (table, repeat) = index(&values, held);
            assert_eq!(repeat, None);
            assert_eq!(table, inserted, "{held} held");
            for (id, &v) in values.iter().enumerate() {
                assert_eq!(
                    table.find(hash(v), |e| values[e as usize] == v),
                    Some(id as u32)
                );
            }
        }
        let mut repeated = values.clone();
        repeated[4000] = repeated[10]; // the same hash run, far apart
        repeated[3000] = repeated[2999 - 2]; // a value two IDs back
        repeated[4500] = repeated[4499];
        assert_eq!(index(&repeated, 0).1, Some(3000));
        assert_eq!(index(&repeated, 3500).1, Some(4000), "against a held entry");
        repeated[3000] = values[3000];
        assert_eq!(index(&repeated, 0).1, Some(4000));
    }

    /// `f` over a view of `path`.
    fn with_view<R>(path: &AsPath, f: impl FnOnce(&AsPathView<'_>) -> R) -> R {
        let (mut segs, mut asns) = (Vec::new(), Vec::new());
        f(&AsPathView::of(path, &mut segs, &mut asns))
    }

    /// Paths and lists extended at once get the IDs, slots and pools
    /// interning them one by one gives, and a repeat is reported by its
    /// smallest ID ahead of the filler's own error.
    #[test]
    fn extending_with_distinct_values_matches_interning() {
        let paths: Vec<AsPath> = ["1 2 3", "1 {2,3} 3", "4", "", "1 2 3 3"]
            .iter()
            .map(|p| p.parse().unwrap())
            .collect();
        let lists: Vec<Vec<Community>> = [&[(1, 1), (1, 2)][..], &[], &[(1, 2), (1, 1)], &[(9, 9)]]
            .iter()
            .map(|l| l.iter().map(|&(a, b)| Community::new(a, b)).collect())
            .collect();
        let mut interned = Interner::default();
        with_view(&"7 7".parse().unwrap(), |v| interned.intern_path(v));
        interned.intern_cset(&[Community::new(1, 1)]);
        let mut extended = interned.clone();
        for p in &paths {
            with_view(p, |v| interned.intern_path(v));
        }
        for l in &lists {
            interned.intern_cset(l);
        }
        let (path_table, list_table) = extended.tables_mut();
        path_table
            .extend_distinct(&mut IndexScratch::default(), |append| {
                for p in &paths {
                    with_view(p, |v| append.push(v));
                }
                Ok::<(), ()>(())
            })
            .unwrap();
        list_table
            .extend_distinct(&mut IndexScratch::default(), |append| {
                for l in &lists {
                    let slots: Vec<u32> = l.iter().map(|&c| append.intern_community(c)).collect();
                    append.push_slots(&slots);
                }
                Ok::<(), ()>(())
            })
            .unwrap();
        assert_eq!(extended, interned);
        assert_eq!(extended.paths.ids.entries(), interned.paths.ids.entries());
        assert_eq!(extended.lists.ids.entries(), interned.lists.ids.entries());

        // Repeats, then the filler's error: the first repeat wins.
        let mut table = PathTable::default();
        let refused = table.extend_distinct(&mut IndexScratch::default(), |append| {
            for p in ["1 2", "3", "1 2", "3", "4"] {
                with_view(&p.parse().unwrap(), |v| append.push(v));
            }
            Err("a later defect")
        });
        assert_eq!(refused, Err(ExtendError::Repeat(2)));
        let mut table = ListTable::default();
        let refused = table.extend_distinct(&mut IndexScratch::default(), |append| {
            let slot = append.intern_community(Community::new(5, 5));
            append.push_slots(&[slot]);
            Err("a list's defect")
        });
        assert_eq!(refused, Err(ExtendError::Fill("a list's defect")));
    }

    #[test]
    fn colliding_hashes_still_intern_distinct_values() {
        // Every key shares one hash: only the exact comparison tells them
        // apart, and each keeps its own ID.
        let keys = [10u32, 20, 30, 40];
        let mut table = IdTable::default();
        for (id, _) in keys.iter().enumerate() {
            table.insert(7, id as u32);
        }
        for (id, key) in keys.iter().enumerate() {
            assert_eq!(table.find(7, |i| keys[i as usize] == *key), Some(id as u32));
        }
        assert_eq!(table.find(7, |i| keys[i as usize] == 50), None);
    }

    #[test]
    fn absorb_maps_ids_by_exact_value() {
        let a = ObservationStore::from_observations(&[
            obs(1, "1 1299 64496", &[(1299, 1)]),
            obs(2, "2 64496", &[]),
        ]);
        let b = ObservationStore::from_observations(&[
            obs(2, "2 64496", &[(1299, 9)]),
            obs(1, "1 1299 64496", &[(1299, 1)]),
        ]);
        let mut interner = (*a).clone();
        let (paths, csets) = interner.absorb(&b);
        assert_eq!(paths, vec![1, 0]);
        assert_eq!(csets, vec![2, 0]);
        assert_eq!(interner.path_count(), 2);
        assert_eq!(
            interner.cset(2).collect::<Vec<_>>(),
            [Community::new(1299, 9)]
        );
    }

    #[test]
    fn an_empty_store_has_no_rows_and_no_ids() {
        let store = ObservationStore::new();
        assert!(store.is_empty());
        assert_eq!(store.len(), 0);
        assert_eq!(store.path_count(), 0);
        assert_eq!(store.cset_count(), 0);
        assert_eq!(store.community_count(), 0);
        assert_eq!(store.tuples().count(), 0);
        let (path_ends, segs, asns) = store.path_pools();
        assert!(path_ends.is_empty() && segs.is_empty() && asns.is_empty());
        let (list_ends, slots, communities) = store.cset_pools();
        assert!(list_ends.is_empty() && slots.is_empty() && communities.is_empty());
    }

    #[test]
    fn interning_is_deterministic_across_stores() {
        let observations = vec![
            obs(1, "1 1299 {64496,64497}", &[(1299, 1), (3356, 2)]),
            obs(2, "2 3356 3356 64496", &[(3356, 2)]),
            obs(1, "1 1299 {64496,64497}", &[(1299, 1), (3356, 2)]),
            obs(3, "3 64496", &[]),
        ];
        let a = ObservationStore::from_observations(&observations);
        let mut b = ObservationStore::new();
        for o in &observations {
            b.push(o);
        }
        assert_eq!(*a, *b, "same sequence, same interner");
        assert_eq!(
            a.tuples().collect::<Vec<_>>(),
            b.tuples().collect::<Vec<_>>()
        );
    }

    #[test]
    fn pools_expose_each_entry_by_its_end_offset() {
        let store = ObservationStore::from_observations(&[
            obs(1, "1 {2,3} 4", &[(100, 1), (100, 2)]),
            obs(1, "5", &[]),
            obs(1, "6 6 7", &[(200, 3)]),
        ]);
        let (path_ends, segs, asns) = store.path_pools();
        assert_eq!(path_ends.len(), store.path_count());
        assert_eq!(*path_ends.last().unwrap() as usize, segs.len());
        let mut seg_at = 0;
        let mut asn_at = 0;
        for (id, &end) in path_ends.iter().enumerate() {
            let view = store.path_view(id as u32);
            assert_eq!(view.segs, &segs[seg_at..end as usize]);
            let hops: usize = view.segs.iter().map(|&(_, n)| n as usize).sum();
            assert_eq!(view.asns, &asns[asn_at..asn_at + hops]);
            seg_at = end as usize;
            asn_at += hops;
        }
        assert_eq!(asn_at, asns.len());
        let (list_ends, slots, communities) = store.cset_pools();
        assert_eq!(list_ends, &[2, 2, 3]);
        assert_eq!(slots, &[0, 1, 2]);
        assert_eq!(store.cset(0).collect::<Vec<_>>(), &communities[..2]);
        assert_eq!(store.cset(1).len(), 0);
        assert_eq!(store.cset(2).collect::<Vec<_>>(), [Community::new(200, 3)]);
    }

    #[test]
    fn tuples_and_scalar_columns_follow_insertion_order() {
        let mut observations = vec![
            obs(7, "7 1299", &[(1299, 1)]),
            obs(8, "8 1299", &[]),
            obs(7, "7 1299", &[(1299, 1)]),
        ];
        observations[1].time = 99;
        observations[2].prefix = "192.0.2.0/24".parse().unwrap();
        let store = ObservationStore::from_observations(&observations);
        assert_eq!(
            store.tuples().collect::<Vec<_>>(),
            vec![(0, 0), (1, 1), (0, 0)]
        );
        for (i, o) in observations.iter().enumerate() {
            assert_eq!(store.vp(i), o.vp);
            assert_eq!(store.prefix(i), o.prefix);
            assert_eq!(store.time(i), o.time);
        }
    }

    #[test]
    fn large_communities_stay_with_their_row() {
        let mut with_large = obs(1, "1 2", &[]);
        with_large.large_communities = vec![
            LargeCommunity::new(64496, 1, 2),
            LargeCommunity::new(64496, 3, 4),
        ];
        let mut another = obs(3, "3 2", &[]);
        another.large_communities = vec![LargeCommunity::new(1, 1, 1)];
        let store = ObservationStore::from_observations(&[
            obs(0, "0 2", &[]),
            with_large.clone(),
            obs(2, "2", &[]),
            another.clone(),
        ]);
        assert!(store.large(0).is_empty());
        assert_eq!(store.large(1), with_large.large_communities.as_slice());
        assert!(store.large(2).is_empty());
        assert_eq!(store.large(3), another.large_communities.as_slice());
    }

    #[test]
    fn merging_into_an_empty_store_reproduces_the_other() {
        let other = ObservationStore::from_observations(&[
            obs(1, "1 1299 64496", &[(1299, 1)]),
            obs(2, "2 {64496,64497}", &[(1299, 2), (1299, 1)]),
            obs(1, "1 1299 64496", &[(1299, 1)]),
        ]);
        let mut merged = ObservationStore::new();
        merged.merge(&other);
        assert_eq!(*merged, *other, "IDs are assigned in the other's order");
        assert_eq!(
            merged.tuples().collect::<Vec<_>>(),
            other.tuples().collect::<Vec<_>>()
        );
        for i in 0..other.len() {
            assert_eq!(merged.get(i), other.get(i));
        }
    }

    #[test]
    fn merge_order_of_three_stores_gives_the_same_rows() {
        let part = |vp: u32| {
            ObservationStore::from_observations(&[
                obs(vp, &format!("{vp} 1299 64496"), &[(1299, vp as u16)]),
                obs(vp, "9 64496", &[(1299, 1)]),
            ])
        };
        let (a, b, c) = (part(1), part(2), part(3));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left.len(), 6);
        assert_eq!(*left, *right);
        for i in 0..left.len() {
            assert_eq!(left.get(i), right.get(i));
        }
    }

    #[test]
    fn absorbing_itself_maps_every_id_to_itself() {
        let store = ObservationStore::from_observations(&[
            obs(1, "1 1299 64496", &[(1299, 1)]),
            obs(2, "2 {3,4}", &[]),
            obs(3, "3", &[(3, 3), (1299, 1)]),
        ]);
        let mut interner = (*store).clone();
        let (paths, csets) = interner.absorb(&store);
        assert_eq!(paths, (0..store.path_count() as u32).collect::<Vec<_>>());
        assert_eq!(csets, (0..store.cset_count() as u32).collect::<Vec<_>>());
        assert_eq!(interner, *store, "nothing new was interned");
    }

    #[test]
    fn ids_are_dense_in_first_seen_order() {
        let store = ObservationStore::from_observations(&[
            obs(1, "3 4", &[(9, 9)]),
            obs(1, "1 2", &[(1, 1)]),
            obs(1, "3 4", &[(1, 1)]),
            obs(1, "5", &[(9, 9), (1, 1)]),
        ]);
        let paths: Vec<u32> = (0..store.len()).map(|i| store.obs_path_id(i)).collect();
        let csets: Vec<u32> = (0..store.len()).map(|i| store.obs_cset_id(i)).collect();
        assert_eq!(paths, vec![0, 1, 0, 2]);
        assert_eq!(csets, vec![0, 1, 1, 2]);
        // Community slots follow first sight too: 9:9, then 1:1.
        assert_eq!(store.community(0), Community::new(9, 9));
        assert_eq!(store.community(1), Community::new(1, 1));
        assert_eq!(store.cset_slots(2), &[0, 1]);
    }

    #[test]
    fn an_empty_table_never_consults_the_key() {
        let table = IdTable::default();
        assert_eq!(
            table.find(12345, |_| panic!("no candidate to compare")),
            None
        );
    }

    #[test]
    fn push_owned_matches_push() {
        let observations = vec![
            obs(1, "1 1299 {2,3}", &[(1299, 4)]),
            obs(1, "1 1299 {2,3}", &[(1299, 4)]),
            obs(5, "5", &[]),
        ];
        let mut borrowed = ObservationStore::new();
        let mut owned = ObservationStore::new();
        for o in &observations {
            borrowed.push(o);
            owned.push_owned(o.clone());
        }
        assert_eq!(*borrowed, *owned);
        for (i, o) in observations.iter().enumerate() {
            assert_eq!(owned.get(i), *o);
            assert_eq!(borrowed.get(i), *o);
        }
    }
}
