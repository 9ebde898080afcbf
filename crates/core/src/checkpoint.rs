//! The exact statistics segment every label is computed from, and the one
//! way it reaches disk: a sealed manifest beside an append-only log.
//!
//! * [`StatsAccumulator`] is a *segment*: every unique AS path and
//!   community list interned once, by the [`Interner`] the batch store
//!   uses, the set of unique `(path, list)` tuples over them, and the
//!   sibling family of every community owner. `infer` (with or without a
//!   checkpoint), a shard worker and the streaming daemon each fold into
//!   one; segments merge by exact key, and
//!   [`StatsAccumulator::to_stats_threaded`] runs the path-stats kernel
//!   over the tuples, sharded by path ID, so every route yields the
//!   [`PathStats`] one reduction over the concatenated observations would
//!   (see "Why an exact segment" below).
//! * [`FileSegment`] is one input file's segment as the decoder fills it:
//!   an [`ObservationSink`] that interns each borrowed observation once
//!   and counts it. It records no owner families; those are looked up
//!   when the file merges into a run's segment
//!   ([`StatsAccumulator::merge_file`]), once per owner per run.
//! * [`StatsSnapshot`] is the name a segment goes by where it is
//!   persisted. A snapshot shares the segment's storage until either side
//!   changes, so taking one is O(1), and its encoding is deterministic:
//!   the same fold sequence gives the same bytes at any thread count.
//! * A [`Manifest`] — the batch [`Checkpoint`] (also a shard artifact, see
//!   [`crate::supervisor`]) or the watch checkpoint ([`crate::watch`]) —
//!   is a small sealed file committing a byte range of the append-only
//!   segment log beside it ([`log_path`]). [`CheckpointSaver`] saves every
//!   manifest the one way: append a frame of what the segment gained,
//!   then replace the manifest, so a save costs O(new data) and a crash at
//!   any step leaves the previous checkpoint or the new one.
//! * [`ColumnWriter`] and [`ColumnReader`] are the column codec of the
//!   manifests and the log's frames, inside the [`bgp_types::persist`]
//!   envelope.
//!
//! # Why an exact segment
//!
//! [`PathStats`] merging by summing counts is only exact when every
//! occurrence of an AS path lands in the same shard (the invariant of the
//! path-sharded reduction). Per-*file* partials violate it: the same path
//! appears in many files, and summing would double-count unique paths. A
//! segment keeps the unique tuples themselves instead, so merging is a
//! union: the other segment's paths and lists are re-interned by comparing
//! their values (a hash only picks the probe slot), so a path seen in ten
//! files is one path and two distinct paths are never one. Counts are
//! derived only when asked for. Which side of a path a community rides
//! depends on its owner's sibling family, which the segment records when
//! it first sees the owner — so counting, merging and loading need no
//! sibling map.

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use bgp_artifact::FileBytes;
use bgp_mrt::IngestReport;
use bgp_relationships::SiblingMap;
use bgp_types::aspath::{SEG_SEQUENCE, SEG_SET};
use bgp_types::obs::MetricsRegistry;
use bgp_types::persist::{self, Checksum, Format, LoadError};
use bgp_types::store::{
    ExtendError, IdTable, IndexScratch, Interner, ListTable, ObservationSink, ObservationStore,
    ObservationView, PathTable,
};
use bgp_types::{AsPathView, Asn, Community, Observation};

use crate::stats::{pack, reduce, OnPathIndex, PathStats};

/// Everything folded so far, exact and mergeable: a segment (see the
/// module docs). Feed it observations in any grouping —
/// [`ingest_ordered`] per file, [`merge_file`] per decoded
/// [`FileSegment`], [`merge`] across segments — and [`to_stats`] yields
/// the same [`PathStats`] as [`PathStats::from_observations`] over the
/// concatenated input.
///
/// IDs are assigned in first-seen order, so the same fold sequence always
/// builds the same segment, and equality compares those columns exactly.
/// Clones and snapshots share storage until one side changes.
///
/// [`ingest_ordered`]: StatsAccumulator::ingest_ordered
/// [`merge_file`]: StatsAccumulator::merge_file
/// [`merge`]: StatsAccumulator::merge
/// [`to_stats`]: StatsAccumulator::to_stats
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsAccumulator {
    seg: Arc<Segment>,
}

/// A segment where it is persisted: the batch checkpoint, a shard
/// artifact and the watch checkpoint each hold one.
pub type StatsSnapshot = StatsAccumulator;

#[derive(Debug, Clone, Default, PartialEq)]
struct Segment {
    /// The unique paths and community lists the tuples refer to.
    interner: Interner,
    /// Every unique tuple.
    tuples: TupleTable,
    /// The sibling family (the owner included) of the owner of every
    /// interned community, fixed when the segment first saw the owner.
    families: BTreeMap<u16, Vec<u32>>,
}

/// A segment's unique `(path, list)` tuples: each as a [`pack`]ed key,
/// indexed by tuple ID, and an exact index over the keys (the key is the
/// identity).
#[derive(Debug, Clone, Default, PartialEq)]
struct TupleTable {
    keys: Vec<u64>,
    ids: IdTable,
}

impl TupleTable {
    /// The ID of the tuple `(path, cset)`, added on first sight.
    fn intern(&mut self, path: u32, cset: u32) -> u32 {
        let key = pack(path, cset);
        let hash = spread(key);
        if let Some(id) = self.ids.find(hash, |id| self.keys[id as usize] == key) {
            return id;
        }
        let id = self.keys.len() as u32;
        self.ids.insert(hash, id);
        self.keys.push(key);
        id
    }

    /// Make room for `tuples` more tuples, the index included.
    fn reserve(&mut self, tuples: usize) {
        self.keys.reserve(tuples);
        self.ids.reserve(tuples);
    }

    fn len(&self) -> usize {
        self.keys.len()
    }
}

/// Spread a packed tuple key over an [`IdTable`]: the multiply carries the
/// list ID into the high bits and the fold brings the path ID down into
/// the probe bits.
fn spread(key: u64) -> u64 {
    let h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^ (h >> 32)
}

/// How many paths, lists and tuples a load must bring before its tables
/// are built on threads of their own: below it, two thread spawns (17–23
/// µs each on a 2-vCPU VM) would cost more than they save, as for the
/// small frames a `watch` checkpoint gains per window.
const CONCURRENT_MIN: usize = 1 << 14;

/// `a()` and `b()`: on a scoped thread and this one when `split`, else one
/// after the other on this one. A panic in either is raised again here.
fn join<A: Send, B>(split: bool, a: impl FnOnce() -> A + Send, b: impl FnOnce() -> B) -> (A, B) {
    if !split {
        return (a(), b());
    }
    std::thread::scope(|s| {
        let a = s.spawn(a);
        let b = b();
        let a = a
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        (a, b)
    })
}

/// `f` over the value moved out of `slot`, which is put back after. A
/// task that builds a table this way writes the table's length fields on
/// its own thread's stack: in place, two tasks' tables — neighbouring
/// fields of one segment — share cache lines, and each push on one core
/// would pull them from the other (3–4× slower per table on a 2-vCPU VM).
fn owned<T: Default, R>(slot: &mut T, f: impl FnOnce(&mut T) -> R) -> R {
    let mut value = std::mem::take(slot);
    let result = f(&mut value);
    *slot = value;
    result
}

impl Segment {
    /// Record the family of each owner among the communities interned from
    /// slot `from` on.
    fn note_owners(&mut self, from: usize, siblings: &SiblingMap) {
        for slot in from..self.interner.community_count() {
            let owner = self.interner.community(slot as u32).asn;
            self.families.entry(owner).or_insert_with(|| {
                let asn = Asn::new(u32::from(owner));
                siblings
                    .expand_ref(&asn)
                    .iter()
                    .map(|a| a.value())
                    .collect()
            });
        }
    }

    /// Intern one observation's path, list and tuple; returns the tuple ID.
    fn fold(&mut self, path: &AsPathView<'_>, communities: &[Community]) -> u32 {
        let path = self.interner.intern_path(path);
        let cset = self.interner.intern_cset(communities);
        self.tuples.intern(path, cset)
    }

    /// Re-intern `other`'s paths, lists and tuples by exact key, in its ID
    /// order, into tables sized for all of them up front. Owner families
    /// are the caller's.
    fn absorb(&mut self, other: &Segment) {
        let (paths, lists) = self.interner.absorb(&other.interner);
        self.tuples.reserve(other.tuples.len());
        for &key in &other.tuples.keys {
            self.tuples
                .intern(paths[(key >> 32) as usize], lists[key as u32 as usize]);
        }
    }
}

/// One input file's segment as the decoder fills it: each borrowed
/// observation pushed into it ([`ObservationSink`]) is interned once and
/// counted. It records no owner families; [`StatsAccumulator::merge_file`]
/// looks those up once per owner per run, so a file costs no sibling
/// lookups for the owners earlier files already brought.
#[derive(Debug, Clone, Default)]
pub struct FileSegment {
    seg: Segment,
    observations: usize,
}

impl ObservationSink for FileSegment {
    fn push_observation_view(&mut self, view: &ObservationView<'_>) {
        self.seg.fold(&view.path, view.communities);
        self.observations += 1;
    }

    fn observation_count(&self) -> usize {
        self.observations
    }
}

impl StatsAccumulator {
    /// An empty segment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold observations one record at a time, in delivered order, each
    /// interned once. Folding the same observations again changes nothing.
    pub fn ingest_ordered(&mut self, observations: &[Observation], siblings: &SiblingMap) {
        let (mut segs, mut asns) = (Vec::new(), Vec::new());
        for obs in observations {
            let path = AsPathView::of(&obs.path, &mut segs, &mut asns);
            self.fold(&path, &obs.communities, siblings);
        }
    }

    /// Fold one observation given as its parts and return its tuple ID —
    /// the streaming window's entry point.
    pub(crate) fn fold(
        &mut self,
        path: &AsPathView<'_>,
        communities: &[Community],
        siblings: &SiblingMap,
    ) -> u32 {
        let seg = Arc::make_mut(&mut self.seg);
        let from = seg.interner.community_count();
        let id = seg.fold(path, communities);
        seg.note_owners(from, siblings);
        id
    }

    /// Fold a decoded [`ObservationStore`] in: its unique paths and
    /// community sets are re-interned by exact value (paths without
    /// rehashing), then its tuples. The result equals
    /// [`ingest_ordered`](Self::ingest_ordered) over the store's
    /// observations. `_threads` is accepted for existing callers; the fold
    /// is sequential, which is what keeps IDs in first-seen order. The CLI
    /// decodes into [`FileSegment`]s instead ([`merge_file`](Self::merge_file));
    /// this entry point serves the benchmark harness's store route.
    pub fn ingest_store(
        &mut self,
        store: &ObservationStore,
        siblings: &SiblingMap,
        _threads: usize,
    ) {
        let seg = Arc::make_mut(&mut self.seg);
        let from = seg.interner.community_count();
        let (paths, csets) = seg.interner.absorb(store);
        seg.note_owners(from, siblings);
        for (path, cset) in store.tuples() {
            seg.tuples
                .intern(paths[path as usize], csets[cset as usize]);
        }
    }

    /// Union another segment in, re-interning its paths, lists and tuples
    /// by exact key in its ID order; an owner keeps the family this
    /// segment recorded first. Merging into an empty segment adopts
    /// `other` as it is.
    pub fn merge(&mut self, other: StatsAccumulator) {
        if *self.seg == Segment::default() {
            *self = other;
            return;
        }
        let seg = Arc::make_mut(&mut self.seg);
        seg.absorb(&other.seg);
        for (&owner, family) in &other.seg.families {
            seg.families.entry(owner).or_insert_with(|| family.clone());
        }
    }

    /// Union one file's segment in, as [`merge`](Self::merge) does, and
    /// record the family of each owner it brings that this segment has not
    /// seen. The result equals [`ingest_ordered`](Self::ingest_ordered)
    /// over the file's observations.
    pub fn merge_file(&mut self, file: FileSegment, siblings: &SiblingMap) {
        let seg = Arc::make_mut(&mut self.seg);
        let from = seg.interner.community_count();
        if *seg == Segment::default() {
            *seg = file.seg;
        } else {
            seg.absorb(&file.seg);
        }
        seg.note_owners(from, siblings);
    }

    /// Number of unique tuples; tuple IDs are `0..tuple_count()`.
    pub(crate) fn tuple_count(&self) -> usize {
        self.seg.tuples.len()
    }

    /// The unique paths, community lists and communities.
    pub(crate) fn interner(&self) -> &Interner {
        &self.seg.interner
    }

    /// The [`PathStats`] the classifier consumes, over every tuple.
    pub fn to_stats(&self) -> PathStats {
        self.to_stats_threaded(1)
    }

    /// [`to_stats`](Self::to_stats) on `threads` workers (`0` = one per
    /// CPU). The tuples are sharded by path ID, so each unique path is
    /// counted in one shard and the shards' counts sum to the sequential
    /// result at any thread count.
    pub fn to_stats_threaded(&self, threads: usize) -> PathStats {
        self.stats_where(threads, |_| true)
    }

    /// Every tuple as a [`pack`]ed key, indexed by tuple ID.
    pub(crate) fn tuple_keys(&self) -> &[u64] {
        &self.seg.tuples.keys
    }

    /// The on-path test over the interned communities, resolved with the
    /// owner families the segment recorded.
    pub(crate) fn on_path_index(&self) -> OnPathIndex {
        let seg = &*self.seg;
        OnPathIndex::build(&seg.interner, |owner, pool| {
            if let Some(family) = seg.families.get(&owner) {
                pool.extend_from_slice(family);
            }
        })
    }

    /// The [`PathStats`] over the tuples whose ID `keep` accepts — the
    /// streaming window's live tuples — on `threads` workers.
    pub(crate) fn stats_where(
        &self,
        threads: usize,
        keep: impl Fn(usize) -> bool + Sync,
    ) -> PathStats {
        let seg = &*self.seg;
        let index = self.on_path_index();
        let keys = &seg.tuples.keys;
        let threads = if keys.len() < 2 { 1 } else { threads };
        reduce(&seg.interner, &index, threads, |shard, count| {
            let mine = |key: u64| count == 1 || (key >> 32) as u32 % count == shard;
            (0..keys.len())
                .filter(|&t| mine(keys[t]) && keep(t))
                .map(|t| keys[t])
                .collect()
        })
    }

    /// The persistable form: the segment itself, shared.
    pub fn snapshot(&self) -> &StatsSnapshot {
        self
    }

    /// Resume from a snapshot, sharing its storage.
    pub fn from_snapshot(snapshot: &StatsSnapshot) -> Self {
        snapshot.clone()
    }

    /// Where the segment's columns end now: the mark a frame written now
    /// leaves for the next one.
    pub(crate) fn mark(&self) -> SegmentMark {
        let seg = &*self.seg;
        let (path_ends, segs, asns) = seg.interner.path_pools();
        let (list_ends, slots, communities) = seg.interner.cset_pools();
        SegmentMark {
            paths: path_ends.len(),
            segs: segs.len(),
            asns: asns.len(),
            communities: communities.len(),
            lists: list_ends.len(),
            slots: slots.len(),
            tuples: seg.tuples.len(),
            owners: seg.families.keys().copied().collect(),
        }
    }

    /// Append one frame: the columns the segment gained past `mark`, all
    /// integers little-endian:
    ///
    /// ```text
    ///   path ends     column (u32): each new path's end in the frame's segments
    ///   seg tags      byte column: 1 AS_SET, 2 AS_SEQUENCE
    ///   seg lengths   column (u32): ASNs per segment
    ///   path ASNs     column (u32), every new path's hops in order
    ///   communities   column (u32, α << 16 | β): the communities new since
    ///                 the mark, in slot order
    ///   list ends     column (u32): each new list's end in the next
    ///   list slots    column (u32): each new list's communities as slot IDs
    ///   tuples        column (u64, path ID << 32 | list ID)
    ///   owners        column (u32, strictly ascending): owners new since the mark
    ///   family ends   column (u32): each owner's end in the next
    ///   families      column (u32): sibling ASNs, the owner's included
    /// ```
    ///
    /// IDs continue from the mark: a path's ID is the mark's path count
    /// plus its position in the path ends, likewise for community slots,
    /// lists and tuples. A list may name any slot up to its own frame's
    /// last, and its frame's new slots are first used, list by list, in
    /// slot order, as interning by value assigns them; a tuple may name
    /// any path or list up to its own frame. The frame after the default
    /// (empty) mark is the whole segment — the form the batch checkpoint
    /// and the shard artifact hold.
    pub(crate) fn encode_since(&self, mark: &SegmentMark, w: &mut ColumnWriter) {
        let seg = &*self.seg;
        let (path_ends, segs, asns) = seg.interner.path_pools();
        let seg_base = mark.segs as u32;
        w.column(&path_ends[mark.paths..], |e| (e - seg_base).to_le_bytes());
        let segs = &segs[mark.segs..];
        w.column(segs, |&(tag, _)| [tag]);
        w.column(segs, |&(_, len)| len.to_le_bytes());
        w.column(&asns[mark.asns..], |a| a.to_le_bytes());
        let (list_ends, slots, communities) = seg.interner.cset_pools();
        w.column(&communities[mark.communities..], |c| {
            c.to_u32().to_le_bytes()
        });
        let slot_base = mark.slots as u32;
        w.column(&list_ends[mark.lists..], |e| (e - slot_base).to_le_bytes());
        w.column(&slots[mark.slots..], |s| s.to_le_bytes());
        w.column(&seg.tuples.keys[mark.tuples..], |t| t.to_le_bytes());
        let gained: Vec<(u32, &[u32])> = seg
            .families
            .iter()
            .filter(|(owner, _)| mark.owners.binary_search(owner).is_err())
            .map(|(&owner, family)| (u32::from(owner), family.as_slice()))
            .collect();
        let mut end = 0u32;
        let family_ends: Vec<u32> = gained
            .iter()
            .map(|(_, family)| {
                end += family.len() as u32;
                end
            })
            .collect();
        w.column(&gained, |(owner, _)| owner.to_le_bytes());
        w.column(&family_ends, |e| e.to_le_bytes());
        let members: Vec<u32> = gained.iter().flat_map(|(_, f)| f.iter().copied()).collect();
        w.column(&members, |a| a.to_le_bytes());
    }

    /// Append `frames` (what [`encode_since`](Self::encode_since) wrote,
    /// their columns read in place) to this segment, each table sized for
    /// all of them up front. The three tables do not depend on one another,
    /// so they are built as three tasks, each over every frame in order —
    /// (a) the paths; (b) the communities, the lists (as slots, with no
    /// lookup per entry) and the owner families; (c) the tuples — on
    /// threads of their own when the frames hold enough. A log's values are
    /// distinct, so each task appends them in ID order and indexes them at
    /// once ([`IdTable::index_distinct`]).
    ///
    /// Every end, slot and ID is checked against what it indexes before it
    /// is used, and a value equal to an earlier one — a duplicate path,
    /// community, list, tuple or owner, in its frame or an earlier one — is
    /// refused, as is a new slot the lists do not first use in slot order
    /// (or never use) and a new community whose owner has no family. Each
    /// task reports its first defect (a repeated value by its smallest ID);
    /// the one returned is the least by frame, then by [`Stage`] — the
    /// defect a one-pass decode, frame by frame and table by table, meets
    /// first. `unreadable` is the defect of the frame after `frames`, whose
    /// columns could not be read. On a defect the segment is left part-way;
    /// the caller discards it.
    fn decode_frames(
        &mut self,
        frames: &[Frame<'_>],
        unreadable: Option<Defect>,
    ) -> Result<(), Defect> {
        let entries = total(frames, |f| {
            f.path_ends.len() + f.list_ends.len() + f.tuples.len()
        });
        let split = entries >= CONCURRENT_MIN;
        let Segment {
            interner,
            tuples,
            families,
        } = Arc::make_mut(&mut self.seg);
        let (paths, lists) = interner.tables_mut();
        // Sized here, so the tasks allocate nothing large on their threads;
        // an ID table's pages are only touched by the task that fills it.
        paths.reserve(
            total(frames, |f| f.path_ends.len()),
            total(frames, |f| f.lens.len()),
            total(frames, |f| f.asns.len()),
        );
        lists.reserve(
            total(frames, |f| f.list_ends.len()),
            total(frames, |f| f.slots.len()),
        );
        tuples.reserve(total(frames, |f| f.tuples.len()));
        let new_lists = total(frames, |f| f.list_ends.len());
        let mut scratch = [
            IndexScratch::with_capacity(total(frames, |f| f.path_ends.len()), 0),
            IndexScratch::with_capacity(new_lists, new_lists),
            IndexScratch::with_capacity(total(frames, |f| f.tuples.len()), 0),
        ];
        let [path_scratch, list_scratch, tuple_scratch] = &mut scratch;
        let (first_path, first_list) = (paths.len(), lists.len());
        let (by_paths, (by_lists, by_tuples)) = join(
            split,
            move || owned(paths, |paths| build_paths(paths, frames, path_scratch)),
            || {
                join(
                    split,
                    move || {
                        owned(lists, |lists| {
                            owned(families, |f| build_lists(lists, f, frames, list_scratch))
                        })
                    },
                    || {
                        owned(tuples, |t| {
                            build_tuples(t, frames, first_path, first_list, tuple_scratch)
                        })
                    },
                )
            },
        );
        let defects = [by_paths.err(), by_lists.err(), by_tuples.err(), unreadable];
        defects.into_iter().flatten().min().map_or(Ok(()), Err)
    }
}

/// One segment-log frame's eleven columns (see
/// [`StatsAccumulator::encode_since`]), read in place.
struct Frame<'a> {
    path_ends: &'a [[u8; 4]],
    tags: &'a [u8],
    lens: &'a [[u8; 4]],
    asns: &'a [[u8; 4]],
    communities: &'a [[u8; 4]],
    list_ends: &'a [[u8; 4]],
    slots: &'a [[u8; 4]],
    tuples: &'a [[u8; 8]],
    owners: &'a [[u8; 4]],
    family_ends: &'a [[u8; 4]],
    members: &'a [[u8; 4]],
}

impl<'a> Frame<'a> {
    /// The next frame's columns, each count checked against the bytes left
    /// before the column is taken.
    fn read(r: &mut ColumnReader<'a>) -> Result<Self, String> {
        Ok(Frame {
            path_ends: r.elements("path ends")?,
            tags: r.bytes("segment tags")?,
            lens: r.elements("segment lengths")?,
            asns: r.elements("path ASNs")?,
            communities: r.elements("communities")?,
            list_ends: r.elements("list ends")?,
            slots: r.elements("list slots")?,
            tuples: r.elements("tuples")?,
            owners: r.elements("owners")?,
            family_ends: r.elements("family ends")?,
            members: r.elements("families")?,
        })
    }
}

/// The checks a frame is held to, in the order a one-pass decode makes
/// them within the frame: its columns, its paths, its communities and
/// lists, its tuples, its owner families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Stage {
    Columns,
    Paths,
    Lists,
    Tuples,
    Families,
}

/// A check a log failed: the frame, the stage within it, and what is
/// wrong. Defects order by frame, then stage, so the least of those the
/// table builds find is the first a one-pass decode meets.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Defect {
    frame: usize,
    stage: Stage,
    detail: String,
}

/// A failed check of `stage` in frame `frame`.
fn defect(frame: usize, stage: Stage) -> impl Fn(String) -> Defect {
    move |detail| Defect {
        frame,
        stage,
        detail,
    }
}

/// The sum of `n` over `frames`.
fn total(frames: &[Frame<'_>], n: impl Fn(&Frame<'_>) -> usize) -> usize {
    frames.iter().map(n).sum()
}

/// The frame holding ID `id` of a table that held `first` IDs before the
/// frames, each adding `n(frame)`.
fn frame_of(frames: &[Frame<'_>], first: usize, id: u32, n: impl Fn(&Frame<'_>) -> usize) -> usize {
    let mut end = first;
    frames
        .iter()
        .position(|frame| {
            end += n(frame);
            (id as usize) < end
        })
        .unwrap_or(frames.len())
}

/// Task (a): every frame's paths onto `table`, indexed at once after, IDs
/// continuing from its count; each frame's segment columns are checked
/// before its paths.
fn build_paths(
    table: &mut PathTable,
    frames: &[Frame<'_>],
    scratch: &mut IndexScratch,
) -> Result<(), Defect> {
    let first = table.len();
    let (mut path_segs, mut path_asns) = (Vec::new(), Vec::new());
    let built = table.extend_distinct(scratch, |paths| {
        for (k, frame) in frames.iter().enumerate() {
            let fail = defect(k, Stage::Paths);
            let Frame {
                path_ends,
                tags,
                lens,
                asns,
                ..
            } = *frame;
            if lens.len() != tags.len() {
                let detail = format!("{} segment tags, {} lengths", tags.len(), lens.len());
                return Err(fail(detail));
            }
            if let Some(tag) = tags.iter().find(|&&t| t != SEG_SET && t != SEG_SEQUENCE) {
                return Err(fail(format!("segment tag {tag} out of range")));
            }
            let (mut seg_at, mut asn_at) = (0, 0);
            for end in u32s(path_ends) {
                let first_seg = seg_at;
                let run =
                    next_run(lens, &mut seg_at, u64::from(end), "path ends").map_err(&fail)?;
                path_segs.clear();
                path_segs.extend(tags[first_seg..seg_at].iter().copied().zip(u32s(run)));
                let hops: u64 = path_segs.iter().map(|&(_, len)| u64::from(len)).sum();
                let end = asn_at as u64 + hops;
                let run = next_run(asns, &mut asn_at, end, "path ASNs").map_err(&fail)?;
                path_asns.clear();
                path_asns.extend(u32s(run));
                paths.push(&AsPathView {
                    segs: &path_segs,
                    asns: &path_asns,
                });
            }
            finished(lens, seg_at, "segments").map_err(&fail)?;
            finished(asns, asn_at, "path ASNs").map_err(&fail)?;
        }
        Ok(())
    });
    built.map_err(|e| match e {
        ExtendError::Repeat(id) => {
            let frame = frame_of(frames, first, id, |f| f.path_ends.len());
            defect(frame, Stage::Paths)(format!("path {id} repeats an earlier path"))
        }
        ExtendError::Fill(defect) => defect,
    })
}

/// Task (b): every frame's communities and lists onto `table`, the lists
/// indexed at once after, and its owner families into `families`.
fn build_lists(
    table: &mut ListTable,
    families: &mut BTreeMap<u16, Vec<u32>>,
    frames: &[Frame<'_>],
    scratch: &mut IndexScratch,
) -> Result<(), Defect> {
    let first = table.len();
    let mut list = Vec::new();
    let built = table.extend_distinct(scratch, |lists| {
        for (k, frame) in frames.iter().enumerate() {
            let fail = defect(k, Stage::Lists);
            let first_slot = lists.community_count();
            for (slot, c) in (first_slot..).zip(u32s(frame.communities).map(Community::from_u32)) {
                if lists.intern_community(c) != slot as u32 {
                    return Err(fail(format!("community {c} repeats an earlier community")));
                }
            }
            let dictionary = lists.community_count() as u32;
            // The next new slot the lists must use first.
            let mut unused = first_slot as u32;
            let mut at = 0;
            for (id, end) in (lists.len()..).zip(u32s(frame.list_ends)) {
                let run =
                    next_run(frame.slots, &mut at, u64::from(end), "list ends").map_err(&fail)?;
                list.clear();
                for slot in u32s(run) {
                    if slot >= unused {
                        if slot >= dictionary {
                            return Err(fail(format!(
                                "community list {id} names slot {slot}, of {dictionary}"
                            )));
                        }
                        if slot > unused {
                            return Err(fail(format!(
                                "community list {id} uses slot {slot} before slot {unused}"
                            )));
                        }
                        unused += 1;
                    }
                    list.push(slot);
                }
                lists.push_slots(&list);
            }
            finished(frame.slots, at, "list slots").map_err(&fail)?;
            if unused != dictionary {
                return Err(fail(format!("community slot {unused} is in no new list")));
            }

            let fail = defect(k, Stage::Families);
            let owners: Vec<u32> = u32s(frame.owners).collect();
            let family_ends: Vec<u32> = u32s(frame.family_ends).collect();
            let members: Vec<u32> = u32s(frame.members).collect();
            if family_ends.len() != owners.len() {
                let detail = format!("{} owners, {} family ends", owners.len(), family_ends.len());
                return Err(fail(detail));
            }
            if owners.windows(2).any(|w| w[0] >= w[1]) || owners.last() > Some(&u32::from(u16::MAX))
            {
                return Err(fail("owners not strictly ascending 16-bit ASNs".into()));
            }
            let mut at = 0;
            for (&owner, &end) in owners.iter().zip(&family_ends) {
                let family =
                    next_run(&members, &mut at, u64::from(end), "family ends").map_err(&fail)?;
                if families.insert(owner as u16, family.to_vec()).is_some() {
                    return Err(fail(format!("owner {owner} repeats an earlier owner")));
                }
            }
            finished(&members, at, "family members").map_err(&fail)?;
            for slot in first_slot as u32..dictionary {
                let c = lists.community(slot);
                if !families.contains_key(&c.asn) {
                    return Err(fail(format!("community {c} has no owner family")));
                }
            }
        }
        Ok(())
    });
    built.map_err(|e| match e {
        ExtendError::Repeat(id) => {
            let frame = frame_of(frames, first, id, |f| f.list_ends.len());
            defect(frame, Stage::Lists)(format!("community list {id} repeats an earlier list"))
        }
        ExtendError::Fill(defect) => defect,
    })
}

/// Task (c): every frame's tuples onto `table`, indexed at once after. A
/// tuple may name any path or list up
/// to its own frame's last: the tables held `first_path` paths and
/// `first_list` lists before the first frame, and each frame adds as many
/// as its end columns list. A repeated tuple is refused by the smallest
/// such ID, ahead of a later tuple's bounds.
fn build_tuples(
    table: &mut TupleTable,
    frames: &[Frame<'_>],
    first_path: usize,
    first_list: usize,
    scratch: &mut IndexScratch,
) -> Result<(), Defect> {
    let first = table.len();
    let (mut paths, mut lists) = (first_path as u64, first_list as u64);
    let mut bounded = Ok(());
    'frames: for (k, frame) in frames.iter().enumerate() {
        paths += frame.path_ends.len() as u64;
        lists += frame.list_ends.len() as u64;
        let keys = frame.tuples.iter().map(|&b| u64::from_le_bytes(b));
        for (id, key) in (table.len()..).zip(keys) {
            if key >> 32 >= paths || key & u64::from(u32::MAX) >= lists {
                bounded = Err(defect(k, Stage::Tuples)(format!(
                    "tuple {id} names path {} and list {}, of {paths} and {lists}",
                    key >> 32,
                    key as u32
                )));
                break 'frames;
            }
            table.keys.push(key);
        }
    }
    let TupleTable { keys, ids } = table;
    let new = first as u32..keys.len() as u32;
    let key = |id: u32| keys[id as usize];
    let same = |a, b| key(a) == key(b);
    match ids.index_distinct(new, |id| spread(key(id)), same, scratch) {
        Some(id) => {
            let frame = frame_of(frames, first, id, |f| f.tuples.len());
            Err(defect(frame, Stage::Tuples)(format!(
                "tuple {id} repeats an earlier tuple"
            )))
        }
        None => bounded,
    }
}

/// How far a segment's columns reached when a frame was last cut from it:
/// the frame after a mark ([`StatsAccumulator::encode_since`]) holds
/// exactly what the segment gained since. The default mark is the empty
/// segment's, so the frame after it is the whole segment.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct SegmentMark {
    paths: usize,
    segs: usize,
    asns: usize,
    communities: usize,
    lists: usize,
    slots: usize,
    tuples: usize,
    /// The owners whose families the segment held, ascending.
    owners: Vec<u16>,
}

impl SegmentMark {
    /// Paths, lists, tuples and owners at the mark: what a manifest records.
    fn counts(&self) -> [u64; 4] {
        [self.paths, self.lists, self.tuples, self.owners.len()].map(|n| n as u64)
    }
}

/// The little-endian `u32`s of a column read in place.
fn u32s(column: &[[u8; 4]]) -> impl Iterator<Item = u32> + '_ {
    column.iter().map(|&b| u32::from_le_bytes(b))
}

/// The run of `pool` from `*at` up to the recorded `end`, which is checked
/// against both before it is used; advances `*at` to `end`.
fn next_run<'a, T>(pool: &'a [T], at: &mut usize, end: u64, what: &str) -> Result<&'a [T], String> {
    let start = *at;
    let end = usize::try_from(end)
        .ok()
        .filter(|&e| e >= start && e <= pool.len())
        .ok_or_else(|| format!("{what}: end {end} outside {start}..={}", pool.len()))?;
    *at = end;
    Ok(&pool[start..end])
}

/// Fail unless the runs consumed all of `pool`.
fn finished<T>(pool: &[T], at: usize, what: &str) -> Result<(), String> {
    if at == pool.len() {
        Ok(())
    } else {
        Err(format!("{} {what} belong to no entry", pool.len() - at))
    }
}

/// Builds a sealed binary file: the envelope header reserved up front,
/// then little-endian scalars and length-prefixed columns (a `u64`
/// element count, then the elements).
#[derive(Debug)]
pub struct ColumnWriter {
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
pub struct ColumnReader<'a> {
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

    /// One column of `N`-byte elements, borrowed: each is parsed where it
    /// is used.
    pub(crate) fn elements<const N: usize>(&mut self, what: &str) -> Result<&'a [[u8; N]], String> {
        Ok(self.raw::<N>(what)?.as_chunks::<N>().0)
    }

    /// One column of `N`-byte elements.
    pub(crate) fn column<T, const N: usize>(
        &mut self,
        what: &str,
        parse: impl Fn([u8; N]) -> T,
    ) -> Result<Vec<T>, String> {
        Ok(self
            .elements::<N>(what)?
            .iter()
            .map(|&b| parse(b))
            .collect())
    }

    /// One byte column, borrowed.
    pub(crate) fn bytes(&mut self, what: &str) -> Result<&'a [u8], String> {
        self.raw::<1>(what)
    }

    /// Whether every byte was consumed.
    pub(crate) fn is_empty(&self) -> bool {
        self.buf.is_empty()
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

/// Byte length + [`Checksum`] of a file's contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileFingerprint {
    /// File length in bytes.
    pub bytes: u64,
    /// The [`Checksum`] digest of the contents.
    pub hash: u64,
}

/// Fingerprint a file by streaming its contents through a [`Checksum`].
pub fn fingerprint_file(path: &Path) -> io::Result<FileFingerprint> {
    let mut file = File::open(path)?;
    let mut buf = [0u8; 64 * 1024];
    let mut hash = Checksum::new();
    let mut bytes: u64 = 0;
    loop {
        let n = match file.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        bytes += n as u64;
        hash.update(&buf[..n]);
    }
    Ok(FileFingerprint {
        bytes,
        hash: hash.finish(),
    })
}

/// One input file recorded as fully ingested.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedFile {
    /// The file path as given on the command line.
    pub path: String,
    /// Its [`FileFingerprint`] at ingest time.
    pub fingerprint: FileFingerprint,
}

/// The segment log beside the manifest at `path`: `<path>.seg`. It has no
/// header: the range its manifest commits is frames back to back, the
/// first from the empty segment (`StatsAccumulator::encode_since`).
/// Bytes past the range are what an interrupted append left; a load
/// ignores them and the next append drops them.
pub fn log_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".seg");
    PathBuf::from(name)
}

/// The segment log's seven `u64` columns in a manifest: the byte range it
/// commits (start, end), the [`Checksum`] of those bytes, and the counts
/// of the segment they hold (paths, lists, tuples, owners).
#[derive(Debug)]
pub struct LogColumns {
    pub(crate) start: u64,
    pub(crate) end: u64,
    pub(crate) checksum: u64,
    pub(crate) counts: [u64; 4],
}

impl LogColumns {
    pub(crate) fn put(&self, w: &mut ColumnWriter) {
        let range = [self.start, self.end, self.checksum];
        for v in range.into_iter().chain(self.counts) {
            w.u64(v);
        }
    }

    /// Read what [`put`](Self::put) wrote; a range that runs backwards is
    /// refused.
    pub(crate) fn take(r: &mut ColumnReader<'_>) -> Result<Self, String> {
        let mut scalars = [0; 7];
        for (v, what) in scalars.iter_mut().zip([
            "segment log start",
            "segment log end",
            "segment log checksum",
            "segment paths",
            "segment lists",
            "segment tuples",
            "segment owners",
        ]) {
            *v = r.u64(what)?;
        }
        let [start, end, checksum, counts @ ..] = scalars;
        if start > end {
            return Err(format!("segment log range {start}..{end} runs backwards"));
        }
        Ok(LogColumns {
            start,
            end,
            checksum,
            counts,
        })
    }
}

/// A sealed file committing a range of the segment log beside it. Each
/// manifest writes and reads only its own columns, and the log's
/// ([`LogColumns`]) where its layout lists them; [`CheckpointSaver`]
/// saves, loads and checks every one the same way.
pub trait Manifest: Sized {
    /// The envelope.
    const FORMAT: Format;

    /// The segment the log holds.
    fn segment(&self) -> &StatsSnapshot;

    /// Where a load puts the segment it decoded from the log.
    fn segment_mut(&mut self) -> &mut StatsSnapshot;

    /// Write the payload: this manifest's columns and `log`'s.
    fn put(&self, log: &LogColumns, w: &mut ColumnWriter);

    /// Read what [`put`](Self::put) wrote, the segment left empty.
    fn take(r: &mut ColumnReader<'_>) -> Result<(Self, LogColumns), String>;
}

/// Where a segment log stands: the range the manifest on disk commits, the
/// [`Checksum`] state over it (a save hashes only the frame it appends),
/// and how far into the segment its frames reach.
#[derive(Debug, Clone)]
pub(crate) struct SegmentLog {
    start: u64,
    end: u64,
    checksum: Checksum,
    mark: SegmentMark,
}

impl SegmentLog {
    /// No frames yet, the first to go at byte `at` of the log file.
    fn empty_at(at: u64) -> Self {
        SegmentLog {
            start: at,
            end: at,
            checksum: Checksum::new(),
            mark: SegmentMark::default(),
        }
    }
}

/// The sealed manifest committing `log`.
fn sealed<M: Manifest>(manifest: &M, log: &SegmentLog) -> Vec<u8> {
    let mut w = ColumnWriter::new();
    let columns = LogColumns {
        start: log.start,
        end: log.end,
        checksum: log.checksum.finish(),
        counts: log.mark.counts(),
    };
    manifest.put(&columns, &mut w);
    w.seal(&M::FORMAT)
}

/// Save `manifest` at `path` with its log in state `log`: append and fsync
/// the frame of what the segment gained past the log's mark
/// ([`persist::append_at`]; none if it gained nothing), then replace the
/// manifest ([`persist::write_atomic`]). With no log state the save is
/// complete: the whole segment as one frame, after everything the log
/// holds when a manifest is at `path`, else from byte 0. Committed bytes
/// are never rewritten, so a crash at any step leaves the previous
/// checkpoint or this one. Returns the log's new state and the bytes
/// written; a failure names the file and the operation.
pub(crate) fn save<M: Manifest>(
    manifest: &M,
    path: &Path,
    log: Option<&SegmentLog>,
) -> io::Result<(SegmentLog, u64)> {
    let log_path = log_path(path);
    let complete = log.is_none();
    let mut log = log.cloned().unwrap_or_else(|| {
        let held = fs::metadata(&log_path).map_or(0, |m| m.len());
        SegmentLog::empty_at(if path.exists() { held } else { 0 })
    });
    let (mark, mut written) = (manifest.segment().mark(), 0);
    if complete || mark != log.mark {
        // A frame goes out unsealed: no header is reserved.
        let mut frame = ColumnWriter { buf: Vec::new() };
        manifest.segment().encode_since(&log.mark, &mut frame);
        let frame = frame.buf;
        persist::append_at(&log_path, log.end, &frame)
            .map_err(|e| failed("append checkpoint log", &log_path, e))?;
        log.end += frame.len() as u64;
        log.checksum.update(&frame);
        written = frame.len() as u64;
    }
    log.mark = mark;
    let file = sealed(manifest, &log);
    persist::write_atomic(path, &file).map_err(|e| failed("write checkpoint", path, e))?;
    Ok((log, written + file.len() as u64))
}

/// `e`, prefixed with the operation that failed and the file it failed on.
fn failed(what: &str, path: &Path, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{what} {}: {e}", path.display()))
}

/// Read, validate and decode the manifest at `path` (its envelope, its
/// columns, no trailing bytes), then its log: present through the
/// committed range, the range's checksum, every frame decoding onto the
/// ones before it, and the manifest's counts. Damage of any kind is a
/// typed [`LoadError`]; a missing manifest is a clean not-found (the
/// fresh-start signal), a missing log is corrupt. Also returns the log's
/// state, which the next [`save`] appends after, and the bytes read: the
/// manifest and the committed range.
///
/// The committed range is mapped read-only ([`FileBytes::map`]), not
/// copied: committed bytes are never rewritten ([`save`] only appends
/// past them, and [`persist::append_at`] truncates a log only down to
/// the end its own writer committed), and two processes on one
/// checkpoint are unsupported, so the mapped bytes cannot change under
/// the decode.
pub(crate) fn open<M: Manifest>(path: &Path) -> Result<(M, SegmentLog, u64), LoadError> {
    open_with(path, FileBytes::map)
}

/// [`open`], reading the committed range with `read`.
fn open_with<M: Manifest>(
    path: &Path,
    read: fn(&File, u64, usize) -> io::Result<FileBytes>,
) -> Result<(M, SegmentLog, u64), LoadError> {
    let sealed = fs::read(path).map_err(|e| LoadError::io(path, e))?;
    let (mut manifest, log) = M::FORMAT.decode(&sealed, path, decode_manifest::<M>)?;
    let log_path = log_path(path);
    let corrupt = |detail: String| M::FORMAT.corrupt(&log_path, detail);
    let io_error = |e: io::Error| LoadError::io(&log_path, e);
    let file = match File::open(&log_path) {
        Ok(file) => file,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return Err(corrupt(format!("segment log missing: {e}")))
        }
        Err(e) => return Err(io_error(e)),
    };
    let present = file.metadata().map_err(io_error)?.len();
    if present < log.end {
        return Err(corrupt(format!(
            "segment log: {} bytes committed, {present} present",
            log.end
        )));
    }
    let len = usize::try_from(log.end - log.start)
        .map_err(|e| corrupt(format!("segment log range: {e}")))?;
    let committed = read(&file, log.start, len).map_err(io_error)?;
    let (segment, checksum) = decode_log(&committed, log.checksum, log.counts).map_err(corrupt)?;
    *manifest.segment_mut() = segment;
    let (start, end, mark) = (log.start, log.end, manifest.segment().mark());
    let state = SegmentLog {
        start,
        end,
        checksum,
        mark,
    };
    Ok((manifest, state, sealed.len() as u64 + (end - start)))
}

/// A manifest's payload: its columns (the segment empty) and the log's.
pub(crate) fn decode_manifest<M: Manifest>(payload: &[u8]) -> Result<(M, LogColumns), String> {
    let mut r = ColumnReader::new(payload);
    let decoded = M::take(&mut r)?;
    r.finish()?;
    Ok(decoded)
}

/// The segment the log's committed bytes hold, and the checksum state
/// over them that the next append continues: their checksum must be the
/// recorded one, every frame must decode onto the ones before it, and the
/// segment must have the manifest's `counts`. A damaged log reports the
/// defect a one-pass decode meets first (see
/// [`StatsAccumulator::decode_frames`]).
pub(crate) fn decode_log(
    committed: &[u8],
    checksum: u64,
    counts: [u64; 4],
) -> Result<(StatsAccumulator, Checksum), String> {
    let mut state = Checksum::new();
    state.update(committed);
    let computed = state.finish();
    if computed != checksum {
        return Err(format!(
            "segment log checksum {checksum:#018x} recorded, {computed:#018x} computed"
        ));
    }
    // Every frame's columns first, each count checked against the bytes
    // left, so the tables are sized for all frames before the first is
    // built; a frame whose columns cannot be read ends the walk.
    let mut r = ColumnReader::new(committed);
    let (mut frames, mut unreadable) = (Vec::new(), None);
    while !r.is_empty() {
        match Frame::read(&mut r) {
            Ok(frame) => frames.push(frame),
            Err(detail) => {
                unreadable = Some(defect(frames.len(), Stage::Columns)(detail));
                break;
            }
        }
    }
    let mut segment = StatsAccumulator::new();
    segment
        .decode_frames(&frames, unreadable)
        .map_err(|d| format!("segment log: {}", d.detail))?;
    let held = segment.mark().counts();
    if held != counts {
        return Err(format!(
            "segment log holds {held:?} paths, lists, tuples and owners, the manifest records {counts:?}"
        ));
    }
    Ok((segment, state))
}

/// How a run saves a manifest: a fresh run's first save is complete and
/// starts the log over, every later one (and every one after a resume)
/// appends only what the segment gained. Each save counts
/// `checkpoint/writes`, `checkpoint/bytes_written` (manifest plus frame)
/// and `time/checkpoint_write_ns`; a resume counts `checkpoint/bytes_read`
/// (manifest plus committed log range) and `time/checkpoint_load_ns`.
#[derive(Debug)]
pub struct CheckpointSaver<'a, M> {
    path: &'a Path,
    /// The log's state after the last save or the load; `None` until the
    /// first save of a fresh run.
    log: Option<SegmentLog>,
    /// The manifest the run resumed from, its segment left out, until the
    /// first save.
    resumed: Option<M>,
    metrics: Option<&'a MetricsRegistry>,
}

impl<'a, M: Manifest + Clone + PartialEq> CheckpointSaver<'a, M> {
    /// A saver for the manifest at `path`, whose directory must exist —
    /// checked now, before any work that a failed first save would waste.
    pub fn new(path: &'a Path, metrics: Option<&'a MetricsRegistry>) -> io::Result<Self> {
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        let dir = dir.unwrap_or(Path::new("."));
        if !dir.is_dir() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("checkpoint directory {} does not exist", dir.display()),
            ));
        }
        if let Some(metrics) = metrics {
            // Registered now, so a run that saves or loads nothing
            // reports 0.
            metrics.counter("checkpoint/writes");
            metrics.counter("checkpoint/bytes_written");
            metrics.counter("checkpoint/bytes_read");
        }
        Ok(CheckpointSaver {
            path,
            log: None,
            resumed: None,
            metrics,
        })
    }

    /// The manifest to resume from, if one is at the path; the saves that
    /// follow append to its log.
    pub fn resume(&mut self) -> Result<Option<M>, LoadError> {
        if !self.path.exists() {
            return Ok(None);
        }
        let start = Instant::now();
        let (manifest, log, bytes) = open::<M>(self.path)?;
        if let Some(metrics) = self.metrics {
            metrics.counter("checkpoint/bytes_read").add(bytes);
            metrics.record_duration("time/checkpoint_load_ns", start.elapsed());
        }
        self.log = Some(log);
        let mut resumed = manifest.clone();
        *resumed.segment_mut() = StatsSnapshot::new();
        self.resumed = Some(resumed);
        Ok(Some(manifest))
    }

    /// Save `manifest`: append what its segment gained since the last save
    /// (all of it on a fresh run's first), then replace the manifest.
    pub fn save(&mut self, manifest: &M) -> io::Result<()> {
        let start = Instant::now();
        let (log, bytes) = save(manifest, self.path, self.log.as_ref())?;
        self.log = Some(log);
        self.resumed = None;
        if let Some(metrics) = self.metrics {
            metrics.counter("checkpoint/writes").inc();
            metrics.counter("checkpoint/bytes_written").add(bytes);
            metrics.record_duration("time/checkpoint_write_ns", start.elapsed());
        }
        Ok(())
    }

    /// The exit save, skipped (counting nothing) when `manifest` is the one
    /// the run resumed from: its segment gained nothing past the loaded
    /// mark (a segment only grows; no deep compare), the rest is equal.
    pub fn save_at_exit(&mut self, mut manifest: M) -> io::Result<()> {
        if let (Some(resumed), Some(log)) = (&self.resumed, &self.log) {
            if manifest.segment().mark() == log.mark {
                let segment = std::mem::take(manifest.segment_mut());
                if manifest == *resumed {
                    return Ok(());
                }
                *manifest.segment_mut() = segment;
            }
        }
        self.save(&manifest)
    }
}

/// The crash-safe run manifest: which files are done, the accounting so
/// far, and the statistics segment (in the log beside it) to resume from.
///
/// # Manifest layout (version 7, all integers little-endian)
///
/// The [`bgp_types::persist`] envelope with magic `BGPBCKPT`, then the
/// payload, where a column is a `u64` element count followed by the
/// elements:
///
/// ```text
///   file sizes    column (u64), one per completed file
///   file hashes   column (u64), the Checksum of each file
///   paths         one byte column (UTF-8) per file
///   report        byte column: the IngestReport as JSON
///   log           the segment log's columns (7 × u64, see LogColumns)
/// ```
///
/// Versions 1 and 2 were JSON manifests; they are refused as
/// [`LoadError::Foreign`]. Version 3 held u64 fingerprint sets in place
/// of the segment, version 4 sealed the payload and fingerprinted the
/// files with FNV-1a 64, version 5 held the whole segment in the one
/// file, and version 6 logged each list entry's community value in place
/// of its slot; all four are refused as [`LoadError::Version`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Checkpoint {
    /// Files fully ingested, in completion (= input) order. Files that
    /// failed (open error, abort, worker panic) are *not* recorded, so a
    /// resumed run retries them.
    pub files: Vec<CompletedFile>,
    /// Merged ingest accounting over the completed files.
    pub report: IngestReport,
    /// The statistics segment of the completed files.
    pub snapshot: StatsSnapshot,
}

impl Checkpoint {
    /// The envelope of checkpoint manifests and shard artifacts.
    pub const FORMAT: Format = Format {
        magic: *b"BGPBCKPT",
        version: 7,
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

    /// Write a complete checkpoint at `path`: the whole segment as one
    /// frame of its log, then the manifest (see [`CheckpointSaver`]).
    pub fn save_atomic(&self, path: &Path) -> io::Result<()> {
        save(self, path, None).map(drop)
    }

    /// Read, validate and decode the checkpoint at `path` and its log:
    /// UTF-8 paths and a parseable report besides the checks every
    /// manifest gets. Damage of any kind is a typed [`LoadError`].
    pub fn load(path: &Path) -> Result<Checkpoint, LoadError> {
        open(path).map(|(cp, ..)| cp)
    }
}

impl Manifest for Checkpoint {
    const FORMAT: Format = Checkpoint::FORMAT;

    fn segment(&self) -> &StatsSnapshot {
        &self.snapshot
    }

    fn segment_mut(&mut self) -> &mut StatsSnapshot {
        &mut self.snapshot
    }

    fn put(&self, log: &LogColumns, w: &mut ColumnWriter) {
        w.column(&self.files, |f| f.fingerprint.bytes.to_le_bytes());
        w.column(&self.files, |f| f.fingerprint.hash.to_le_bytes());
        for f in &self.files {
            w.bytes(f.path.as_bytes());
        }
        let report =
            serde_json::to_string(&self.report).expect("an IngestReport always serializes");
        w.bytes(report.as_bytes());
        log.put(w);
    }

    fn take(r: &mut ColumnReader<'_>) -> Result<(Self, LogColumns), String> {
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
        let checkpoint = Checkpoint {
            files,
            report,
            snapshot: StatsSnapshot::new(),
        };
        Ok((checkpoint, LogColumns::take(r)?))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// What [`encode`](Encode::encode) is defined for: every manifest.
    pub(crate) trait Encode {
        /// The two files a save into an empty log writes: the manifest,
        /// and the log holding the whole segment as one frame.
        fn encode(&self) -> (Vec<u8>, Vec<u8>);
    }

    impl<M: Manifest> Encode for M {
        fn encode(&self) -> (Vec<u8>, Vec<u8>) {
            let mut frame = ColumnWriter { buf: Vec::new() };
            self.segment()
                .encode_since(&SegmentMark::default(), &mut frame);
            let frame = frame.buf;
            let mut log = SegmentLog::empty_at(0);
            log.end = frame.len() as u64;
            log.checksum.update(&frame);
            log.mark = self.segment().mark();
            (sealed(self, &log), frame)
        }
    }

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
        acc.ingest_ordered(&all[..7], &siblings);
        acc.ingest_ordered(&all[7..40], &siblings);
        acc.ingest_ordered(&all[40..], &siblings);
        assert_eq!(acc.to_stats(), direct);
    }

    #[test]
    fn ingest_is_thread_count_invariant() {
        let all = workload();
        let siblings = SiblingMap::default();
        let store = ObservationStore::from_observations(&all);
        let mut sequential = StatsAccumulator::new();
        sequential.ingest_store(&store, &siblings, 1);
        for threads in [2, 3, 8] {
            let mut acc = StatsAccumulator::new();
            acc.ingest_store(&store, &siblings, threads);
            assert_eq!(acc, sequential, "threads = {threads}");
            assert_eq!(encoded(&acc), encoded(&sequential));
        }
    }

    #[test]
    fn ingest_store_matches_ingest_bit_for_bit() {
        // The columnar fold must be indistinguishable from the slice fold:
        // same segment, same snapshot bytes — at any thread count, and
        // across the same "file" boundaries.
        let all = workload();
        let siblings = SiblingMap::from_orgs(vec![vec![Asn::new(1299), Asn::new(64999)]]);
        let mut via_slices = StatsAccumulator::new();
        via_slices.ingest_ordered(&all[..11], &siblings);
        via_slices.ingest_ordered(&all[11..], &siblings);
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
            assert_eq!(encoded(&via_store), encoded(&via_slices));
        }
    }

    #[test]
    fn merged_file_segments_match_ingest_bit_for_bit() {
        // The decoder's route: each "file" folds into its own segment, and
        // the run's segment records the owner families as the files merge
        // in — onto an empty segment, then a non-empty one. Same segment,
        // same snapshot bytes and same statistics as the slice fold.
        let all = workload();
        let siblings = SiblingMap::from_orgs(vec![vec![Asn::new(1299), Asn::new(64999)]]);
        let mut via_slices = StatsAccumulator::new();
        via_slices.ingest_ordered(&all[..11], &siblings);
        via_slices.ingest_ordered(&all[11..], &siblings);
        let mut via_files = StatsAccumulator::new();
        for part in [&all[..11], &all[11..]] {
            let mut file = FileSegment::default();
            for o in part {
                file.push_observation(o.clone());
            }
            assert_eq!(file.observation_count(), part.len());
            via_files.merge_file(file, &siblings);
        }
        assert_eq!(via_files, via_slices);
        assert_eq!(encoded(&via_files), encoded(&via_slices));
        for threads in [1, 2, 8] {
            assert_eq!(via_files.to_stats_threaded(threads), via_slices.to_stats());
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
                acc.ingest_ordered(chunk, &siblings);
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
        // Merge order decides the IDs, never the content: the derived
        // statistics agree, and both equal one fold of everything.
        assert_eq!(forward.to_stats(), backward.to_stats());
        assert_eq!(
            forward.to_stats(),
            PathStats::from_observations(&all, &siblings)
        );
        // Merging the same content again adds nothing.
        let mut twice = forward.clone();
        twice.merge(backward);
        assert_eq!(twice, forward);
    }

    /// The segment's column encoding — one frame from the empty mark —
    /// without an envelope.
    fn encoded(segment: &StatsAccumulator) -> Vec<u8> {
        let mut w = ColumnWriter::new();
        segment.encode_since(&SegmentMark::default(), &mut w);
        w.buf
    }

    /// Decode what [`encoded`] wrote onto an empty segment.
    fn decoded(bytes: &[u8]) -> Result<StatsAccumulator, String> {
        let mut r = ColumnReader::new(&bytes[persist::HEADER_LEN..]);
        let frame = Frame::read(&mut r)?;
        let mut segment = StatsAccumulator::new();
        segment
            .decode_frames(&[frame], None)
            .map_err(|d| d.detail)?;
        r.finish()?;
        Ok(segment)
    }

    #[test]
    fn snapshot_roundtrips_through_the_column_codec() {
        let all = workload();
        let siblings = SiblingMap::from_orgs(vec![vec![Asn::new(1299), Asn::new(64999)]]);
        let mut acc = StatsAccumulator::new();
        acc.ingest_ordered(&all, &siblings);
        let back = decoded(&encoded(acc.snapshot())).unwrap();
        assert_eq!(&back, acc.snapshot(), "the segment survives exactly");
        let rebuilt = StatsAccumulator::from_snapshot(&back);
        assert_eq!(rebuilt.to_stats(), acc.to_stats());
        assert_eq!(encoded(&rebuilt), encoded(&acc));
    }

    #[test]
    fn interleaved_snapshots_reproduce_on_resume() {
        // A run that snapshots after every "file" and an interrupted run
        // resumed from a mid-run snapshot's bytes must end in
        // byte-identical encoded state — the contract `--resume` rests on
        // — even at different thread counts.
        let all = workload();
        let siblings = SiblingMap::from_orgs(vec![vec![Asn::new(1299), Asn::new(64999)]]);
        let mut full = StatsAccumulator::new();
        let mut mid = Vec::new();
        for (i, chunk) in all.chunks(9).enumerate() {
            full.ingest_store(&ObservationStore::from_observations(chunk), &siblings, 2);
            if i == 2 {
                mid = encoded(full.snapshot()); // the crash point
            }
        }
        let mut resumed = StatsAccumulator::from_snapshot(&decoded(&mid).unwrap());
        for chunk in all.chunks(9).skip(3) {
            resumed.ingest_store(&ObservationStore::from_observations(chunk), &siblings, 8);
        }
        assert_eq!(resumed, full);
        assert_eq!(encoded(&resumed), encoded(&full));
        // The classifier input is grouping- and cadence-independent.
        let mut one_shot = StatsAccumulator::new();
        one_shot.ingest_ordered(&all, &siblings);
        assert_eq!(resumed.to_stats(), one_shot.to_stats());
    }

    /// Hand-written segment columns: the given path columns, lists [1:7]
    /// and [1:8], the given tuples, and the family [1] for each of
    /// `owners`.
    fn segment_columns(
        path_ends: &[u32],
        tags: &[u8],
        lens: &[u32],
        asns: &[u32],
        tuples: &[u64],
        owners: &[u32],
    ) -> Result<StatsAccumulator, String> {
        let mut w = ColumnWriter::new();
        w.column(path_ends, |e| e.to_le_bytes());
        w.bytes(tags);
        w.column(lens, |n| n.to_le_bytes());
        w.column(asns, |a| a.to_le_bytes());
        w.column(&[0x0001_0007u32, 0x0001_0008], |c| c.to_le_bytes());
        w.column(&[1u32, 2], |e| e.to_le_bytes());
        w.column(&[0u32, 1], |s| s.to_le_bytes());
        w.column(tuples, |t| t.to_le_bytes());
        w.column(owners, |o| o.to_le_bytes());
        let ends: Vec<u32> = (1..=owners.len() as u32).collect();
        w.column(&ends, |e| e.to_le_bytes());
        w.column(&vec![1u32; owners.len()], |a| a.to_le_bytes());
        decoded(&w.buf)
    }

    /// Segment columns that pass the seal but break the structure: every
    /// one is a described refusal, never a panic.
    #[test]
    fn segment_structure_is_checked_behind_the_seal() {
        let ok = segment_columns(&[1, 2], &[2, 2], &[2, 1], &[1, 2, 3], &[1 << 32, 1], &[1])
            .expect("well-formed columns load");
        assert_eq!(ok.tuple_count(), 2);
        assert_eq!(ok.to_stats().unique_paths, 2);
        for (columns, expect) in [
            (
                segment_columns(&[1, 2], &[2, 9], &[2, 1], &[1, 2, 3], &[0], &[1]),
                "segment tag 9",
            ),
            (
                segment_columns(&[1, 2], &[2], &[2, 1], &[1, 2, 3], &[0], &[1]),
                "1 segment tags, 2 lengths",
            ),
            (
                segment_columns(&[2, 1], &[2, 2], &[2, 1], &[1, 2, 3], &[0], &[1]),
                "path ends: end 1 outside 2..=2",
            ),
            (
                segment_columns(&[1, 2], &[2, 2], &[2, 1], &[1, 2], &[0], &[1]),
                "path ASNs: end 3 outside 2..=2",
            ),
            (
                segment_columns(&[1, 2], &[2, 2], &[2, 1], &[1, 2, 3, 4], &[0], &[1]),
                "1 path ASNs belong to no entry",
            ),
            (
                segment_columns(&[1, 2], &[2, 2], &[2, 1], &[1, 2, 3], &[2 << 32], &[1]),
                "tuple 0 names path 2 and list 0",
            ),
            (
                segment_columns(&[1, 2], &[2, 2], &[2, 1], &[1, 2, 3], &[5], &[1]),
                "tuple 0 names path 0 and list 5",
            ),
            (
                segment_columns(&[1, 2], &[2, 2], &[2, 1], &[1, 2, 3], &[1, 1], &[1]),
                "tuple 1 repeats an earlier tuple",
            ),
            (
                segment_columns(&[1, 2], &[2, 2], &[2, 1], &[1, 2, 3], &[1], &[]),
                "community 1:7 has no owner family",
            ),
            (
                segment_columns(&[1, 2], &[2, 2], &[2, 1], &[1, 2, 3], &[1], &[1 << 16]),
                "owners not strictly ascending 16-bit ASNs",
            ),
        ] {
            let err = columns.expect_err(expect);
            assert!(err.contains(expect), "expected {expect:?}, got {err:?}");
        }
        // A path equal to an earlier one ("1 2" twice) is a duplicate.
        let err = segment_columns(&[1, 2], &[2, 2], &[2, 2], &[1, 2, 1, 2], &[0], &[1])
            .expect_err("a repeated path");
        assert!(err.contains("path 1 repeats an earlier path"), "{err}");
    }

    #[test]
    fn checkpoint_saves_atomically_and_reloads() {
        let dir = std::env::temp_dir().join("bgp-intent-ckpt-roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");

        let mut acc = StatsAccumulator::new();
        acc.ingest_ordered(&workload(), &SiblingMap::default());
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
                .decode(&file, Path::new("x"), decode_manifest::<Checkpoint>)
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
    fn an_empty_segment_roundtrips_and_counts_nothing() {
        let empty = StatsAccumulator::new();
        assert_eq!(empty.tuple_count(), 0);
        assert_eq!(empty.to_stats(), PathStats::default());
        let back = decoded(&encoded(&empty)).unwrap();
        assert_eq!(back, empty);
        // Eleven empty columns, nothing else.
        assert_eq!(encoded(&empty).len(), persist::HEADER_LEN + 11 * 8);
    }

    #[test]
    fn folding_the_same_observations_again_changes_nothing() {
        let all = workload();
        let siblings = SiblingMap::from_orgs(vec![vec![Asn::new(1299), Asn::new(64999)]]);
        let mut once = StatsAccumulator::new();
        once.ingest_ordered(&all, &siblings);
        let mut twice = once.clone();
        twice.ingest_ordered(&all, &siblings);
        twice.ingest_store(&ObservationStore::from_observations(&all), &siblings, 1);
        assert_eq!(twice, once);
        assert_eq!(encoded(&twice), encoded(&once));
    }

    #[test]
    fn merging_into_an_empty_segment_adopts_the_other() {
        let mut part = StatsAccumulator::new();
        part.ingest_ordered(&workload(), &SiblingMap::default());
        let mut merged = StatsAccumulator::new();
        merged.merge(part.clone());
        assert_eq!(merged, part);
        assert!(Arc::ptr_eq(&merged.seg, &part.seg), "adopted, not copied");
        // And merging an empty segment in leaves the content as it was.
        merged.merge(StatsAccumulator::new());
        assert_eq!(merged, part);
    }

    #[test]
    fn snapshots_share_storage_until_the_segment_changes() {
        let all = workload();
        let siblings = SiblingMap::default();
        let mut acc = StatsAccumulator::new();
        acc.ingest_ordered(&all[..20], &siblings);
        let snapshot = acc.snapshot().clone();
        assert!(Arc::ptr_eq(&snapshot.seg, &acc.seg));
        let frozen = snapshot.to_stats();
        acc.ingest_ordered(&all[20..], &siblings);
        assert!(!Arc::ptr_eq(&snapshot.seg, &acc.seg));
        assert_eq!(snapshot.to_stats(), frozen, "the snapshot did not move");
        assert_eq!(frozen, PathStats::from_observations(&all[..20], &siblings));
    }

    #[test]
    fn an_owner_keeps_the_family_its_segment_saw_first() {
        // Two segments built against different sibling maps: the merged
        // segment counts 1299's community with the family the receiving
        // segment recorded, whatever the other one says.
        let o = vec![obs(1, "1 64999 64496", &[(1299, 7)])];
        let family = SiblingMap::from_orgs(vec![vec![Asn::new(1299), Asn::new(64999)]]);
        let mut with_family = StatsAccumulator::new();
        with_family.ingest_ordered(&o, &family);
        let mut without = StatsAccumulator::new();
        without.ingest_ordered(&o, &SiblingMap::default());
        let c = Community::new(1299, 7);
        assert_eq!(with_family.to_stats().counts(c).unwrap().on, 1);
        assert_eq!(without.to_stats().counts(c).unwrap().off, 1);

        let mut merged = with_family.clone();
        merged.merge(without.clone());
        assert_eq!(merged.to_stats().counts(c).unwrap().on, 1);
        let mut merged = without.clone();
        merged.merge(with_family);
        assert_eq!(merged.to_stats().counts(c).unwrap().off, 1);
    }

    #[test]
    fn stats_over_chosen_tuples_match_those_observations_alone() {
        let all = workload();
        let siblings = SiblingMap::from_orgs(vec![vec![Asn::new(1299), Asn::new(64999)]]);
        let mut acc = StatsAccumulator::new();
        acc.ingest_ordered(&all[..10], &siblings);
        let first = acc.tuple_count();
        acc.ingest_ordered(&all[10..], &siblings);
        assert_eq!(
            acc.stats_where(1, |t| t < first),
            PathStats::from_observations(&all[..10], &siblings)
        );
        assert_eq!(acc.stats_where(2, |_| false), PathStats::default());
        assert_eq!(acc.stats_where(2, |_| true), acc.to_stats());
    }

    #[test]
    fn every_prefix_of_a_segment_encoding_is_refused() {
        let mut acc = StatsAccumulator::new();
        acc.ingest_ordered(
            &workload()[..6],
            &SiblingMap::from_orgs(vec![vec![Asn::new(1299), Asn::new(64999)]]),
        );
        let bytes = encoded(&acc);
        assert_eq!(decoded(&bytes).unwrap(), acc);
        for cut in persist::HEADER_LEN..bytes.len() {
            assert!(decoded(&bytes[..cut]).is_err(), "a cut at {cut} loaded");
        }
        let mut longer = bytes.clone();
        longer.push(0);
        assert_eq!(decoded(&longer).unwrap_err(), "1 trailing bytes");
    }

    /// Hand-written segment columns with one path ("1"), the given
    /// communities and list columns, one tuple `(0, 0)` and the given owner
    /// families.
    fn list_columns(
        communities: &[u32],
        list_ends: &[u32],
        slots: &[u32],
        owners: &[u32],
        family_ends: &[u32],
        members: &[u32],
    ) -> Result<StatsAccumulator, String> {
        let mut w = ColumnWriter::new();
        w.column(&[1u32], |e| e.to_le_bytes());
        w.bytes(&[SEG_SEQUENCE]);
        w.column(&[1u32], |n| n.to_le_bytes());
        w.column(&[1u32], |a| a.to_le_bytes());
        w.column(communities, |c| c.to_le_bytes());
        w.column(list_ends, |e| e.to_le_bytes());
        w.column(slots, |s| s.to_le_bytes());
        w.column(&[0u64], |t| t.to_le_bytes());
        w.column(owners, |o| o.to_le_bytes());
        w.column(family_ends, |e| e.to_le_bytes());
        w.column(members, |a| a.to_le_bytes());
        decoded(&w.buf)
    }

    #[test]
    fn list_and_family_structure_is_checked_behind_the_seal() {
        let (c7, c8) = (0x0001_0007, 0x0001_0008);
        let ok = list_columns(&[c7, c8], &[1, 3], &[0, 1, 0], &[1], &[2], &[1, 5])
            .expect("well-formed columns load");
        assert_eq!(ok.to_stats().counts(Community::new(1, 7)).unwrap().on, 1);
        assert_eq!(
            ok.interner().cset(1).collect::<Vec<_>>(),
            [Community::new(1, 8), Community::new(1, 7)]
        );
        for (columns, expect) in [
            (
                list_columns(&[c7], &[1, 2], &[0, 0], &[1], &[1], &[1]),
                "community list 1 repeats an earlier list",
            ),
            (
                list_columns(&[c7, c8], &[2, 1], &[0, 1], &[1], &[1], &[1]),
                "list ends: end 1 outside 2..=2",
            ),
            (
                list_columns(&[c7], &[1], &[0, 0], &[1], &[1], &[1]),
                "1 list slots belong to no entry",
            ),
            (
                list_columns(&[c7, c7], &[1], &[0], &[1], &[1], &[1]),
                "community 1:7 repeats an earlier community",
            ),
            (
                list_columns(&[c7], &[2], &[0, 1], &[1], &[1], &[1]),
                "community list 0 names slot 1, of 1",
            ),
            (
                list_columns(&[c7, c8], &[2], &[1, 0], &[1], &[1], &[1]),
                "community list 0 uses slot 1 before slot 0",
            ),
            (
                list_columns(&[c7, c8], &[1], &[0], &[1], &[1], &[1]),
                "community slot 1 is in no new list",
            ),
            (
                list_columns(&[], &[], &[], &[1], &[1], &[1]),
                "tuple 0 names path 0 and list 0, of 1 and 0",
            ),
            (
                list_columns(&[c7], &[1], &[0], &[1], &[], &[1]),
                "1 owners, 0 family ends",
            ),
            (
                list_columns(&[c7], &[1], &[0], &[1], &[3], &[1]),
                "family ends: end 3 outside 0..=1",
            ),
            (
                list_columns(&[c7], &[1], &[0], &[1], &[1], &[1, 2]),
                "1 family members belong to no entry",
            ),
            (
                list_columns(&[c7], &[1], &[0], &[1, 1], &[1, 1], &[1]),
                "owners not strictly ascending",
            ),
        ] {
            let err = columns.expect_err(expect);
            assert!(err.contains(expect), "expected {expect:?}, got {err:?}");
        }
    }

    #[test]
    fn column_reader_sizes_nothing_by_an_unchecked_count() {
        for count in [u64::MAX, u64::MAX / 4 + 1, 3] {
            let mut bytes = count.to_le_bytes().to_vec();
            bytes.extend_from_slice(&[0; 8]);
            let mut r = ColumnReader::new(&bytes);
            let err = r.column("wide", u32::from_le_bytes).unwrap_err();
            assert!(err.starts_with("wide: "), "{err}");
            assert!(err.contains("exceed the 8 bytes left"), "{err}");
        }
        let mut r = ColumnReader::new(&[1, 2, 3]);
        assert_eq!(
            r.u64("scalar").unwrap_err(),
            "scalar: needs 8 bytes, 3 left"
        );
    }

    #[test]
    fn column_codec_roundtrips_scalars_columns_and_bytes() {
        let mut w = ColumnWriter::new();
        w.u64(0x0102_0304_0506_0708);
        w.column(&[7u32, u32::MAX], |v| v.to_le_bytes());
        w.bytes(b"raw");
        w.column::<u64, 8>(&[], |v| v.to_le_bytes());
        let payload = w.buf[persist::HEADER_LEN..].to_vec();
        let mut r = ColumnReader::new(&payload);
        assert_eq!(r.u64("scalar").unwrap(), 0x0102_0304_0506_0708);
        assert_eq!(
            r.column("u32s", u32::from_le_bytes).unwrap(),
            vec![7, u32::MAX]
        );
        assert_eq!(r.bytes("bytes").unwrap(), b"raw");
        assert!(r.column("empty", u64::from_le_bytes).unwrap().is_empty());
        r.finish().unwrap();
        // Sealing fills the header over the same payload.
        let file = w.seal(&Checkpoint::FORMAT);
        assert!(file.starts_with(b"BGPBCKPT"));
        assert_eq!(&file[persist::HEADER_LEN..], payload);
    }

    #[test]
    fn runs_must_move_forward_within_their_pool() {
        let pool = [10, 20, 30];
        let mut at = 0;
        assert_eq!(next_run(&pool, &mut at, 2, "ends").unwrap(), &[10, 20]);
        assert_eq!(next_run(&pool, &mut at, 2, "ends").unwrap(), &[] as &[i32]);
        assert_eq!(
            next_run(&pool, &mut at, 1, "ends").unwrap_err(),
            "ends: end 1 outside 2..=3"
        );
        assert_eq!(
            next_run(&pool, &mut at, 4, "ends").unwrap_err(),
            "ends: end 4 outside 2..=3"
        );
        assert_eq!(at, 2, "a refused run leaves the cursor alone");
        assert_eq!(
            finished(&pool, at, "items").unwrap_err(),
            "1 items belong to no entry"
        );
        assert_eq!(next_run(&pool, &mut at, 3, "ends").unwrap(), &[30]);
        assert!(finished(&pool, at, "items").is_ok());
    }

    #[test]
    fn checkpoint_files_are_refused_by_kind_and_version() {
        let dir =
            std::env::temp_dir().join(format!("bgp-intent-ckpt-kinds-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        assert!(Checkpoint::load(&path).unwrap_err().is_not_found());

        std::fs::write(&path, br#"{"version": 2, "files": []}"#).unwrap();
        assert!(matches!(
            Checkpoint::load(&path).unwrap_err(),
            LoadError::Foreign { .. }
        ));

        for old in [3u32, 4, 5, 6] {
            let mut file = Checkpoint::new().encode().0;
            file[8..12].copy_from_slice(&old.to_le_bytes());
            std::fs::write(&path, &file).unwrap();
            match Checkpoint::load(&path).unwrap_err() {
                LoadError::Version {
                    found, expected, ..
                } => assert_eq!((found, expected), (old, 7)),
                other => panic!("expected a version error, got {other}"),
            }
        }

        // The same payload under the watch checkpoint's magic is foreign.
        let mut file = Checkpoint::new().encode().0;
        file[..8].copy_from_slice(b"BGPWCKPT");
        std::fs::write(&path, &file).unwrap();
        assert!(matches!(
            Checkpoint::load(&path).unwrap_err(),
            LoadError::Foreign { .. }
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_empty_file_fingerprints_as_the_empty_checksum() {
        let dir =
            std::env::temp_dir().join(format!("bgp-intent-ckpt-empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.bin");
        std::fs::write(&path, b"").unwrap();
        assert_eq!(
            fingerprint_file(&path).unwrap(),
            FileFingerprint {
                bytes: 0,
                hash: persist::checksum(b"")
            }
        );
        // Larger than one read buffer: the state carries across reads.
        let big: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        std::fs::write(&path, &big).unwrap();
        assert_eq!(
            fingerprint_file(&path).unwrap(),
            FileFingerprint {
                bytes: big.len() as u64,
                hash: persist::checksum(&big)
            }
        );
        let missing = fingerprint_file(&dir.join("absent.bin")).unwrap_err();
        assert_eq!(missing.kind(), io::ErrorKind::NotFound);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn completed_files_keep_their_order_and_exact_names() {
        let dir =
            std::env::temp_dir().join(format!("bgp-intent-ckpt-names-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let mut cp = Checkpoint::new();
        for (i, name) in ["z.mrt", "données/rib.mrt", "a b.mrt", ""]
            .iter()
            .enumerate()
        {
            cp.files.push(CompletedFile {
                path: (*name).into(),
                fingerprint: FileFingerprint {
                    bytes: i as u64,
                    hash: u64::MAX - i as u64,
                },
            });
        }
        cp.save_atomic(&path).unwrap();
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(back.files, cp.files);
        assert_eq!(back.completed("données/rib.mrt").unwrap().bytes, 1);
        assert_eq!(back.completed("").unwrap().hash, u64::MAX - 3);
        assert!(back.completed("Z.mrt").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn folding_an_empty_store_changes_nothing() {
        let siblings = SiblingMap::default();
        let mut acc = StatsAccumulator::new();
        acc.ingest_store(&ObservationStore::new(), &siblings, 4);
        assert_eq!(acc, StatsAccumulator::new());
        acc.ingest_ordered(&workload(), &siblings);
        let before = acc.clone();
        acc.ingest_store(&ObservationStore::new(), &siblings, 1);
        acc.ingest_ordered(&[], &siblings);
        assert_eq!(acc, before);
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

    /// `n` observations on `n` distinct paths, with lists that repeat
    /// across them: enough, in a few thousand, for a merge or load to build
    /// its tables on threads of their own.
    fn large_workload(n: u32, first: u32) -> Vec<Observation> {
        (first..first + n)
            .map(|i| {
                obs(
                    65000 + i % 7,
                    &format!("{} {} {} 64496", 65000 + i % 7, 1000 + i, 2000 + i % 97),
                    &[
                        (1299, (i % 50) as u16),
                        (3356, (i % 7) as u16),
                        (64999, (i % 3) as u16),
                    ],
                )
            })
            .collect()
    }

    /// Loads above [`CONCURRENT_MIN`] build their tables on threads; they
    /// and merges of segments that large give the segment, the bytes and
    /// the statistics of one sequential fold.
    #[test]
    fn large_merges_and_loads_equal_the_fold() {
        let siblings = SiblingMap::from_orgs(vec![vec![Asn::new(1299), Asn::new(64999)]]);
        let parts: Vec<Vec<Observation>> =
            (0..3).map(|k| large_workload(12_000, k * 9_000)).collect();
        let all = parts.concat();
        let mut folded = StatsAccumulator::new();
        folded.ingest_ordered(&all, &siblings);
        assert!(folded.interner().path_count() > CONCURRENT_MIN);
        let mut merged = StatsAccumulator::new();
        let mut segments = Vec::new();
        for part in &parts {
            let mut file = FileSegment::default();
            for o in part {
                file.push_observation(o.clone());
            }
            merged.merge_file(file, &siblings);
            let mut segment = StatsAccumulator::new();
            segment.ingest_ordered(part, &siblings);
            segments.push(segment);
        }
        assert_eq!(merged, folded);
        assert_eq!(encoded(&merged), encoded(&folded));
        let mut unioned = StatsAccumulator::new();
        for segment in segments {
            unioned.merge(segment);
        }
        assert_eq!(unioned, folded);
        assert_eq!(unioned.to_stats_threaded(2), folded.to_stats());

        // One frame, and the same segment as three frames.
        let whole = encoded(&folded)[persist::HEADER_LEN..].to_vec();
        let mut framed = Vec::new();
        let (mut grown, mut mark) = (StatsAccumulator::new(), SegmentMark::default());
        for part in &parts {
            grown.ingest_ordered(part, &siblings);
            let mut frame = ColumnWriter { buf: Vec::new() };
            grown.encode_since(&mark, &mut frame);
            framed.extend_from_slice(&frame.buf);
            mark = grown.mark();
        }
        let counts = folded.mark().counts();
        for log in [whole, framed] {
            let (loaded, _) = decode_log(&log, persist::checksum(&log), counts).unwrap();
            assert_eq!(loaded, folded);
            assert_eq!(encoded(&loaded), encoded(&folded));
        }
    }

    /// A large log with a defect in each of two frames reports the first
    /// frame's, though the later frame's is in a table its frame checks
    /// earlier, and the first frame's is its last tuple.
    #[test]
    fn a_large_log_reports_its_earliest_defect() {
        let siblings = SiblingMap::default();
        let mut first = StatsAccumulator::new();
        first.ingest_ordered(&large_workload(12_000, 0), &siblings);
        let mut second = first.clone();
        second.ingest_ordered(&large_workload(12_000, 50_000), &siblings);
        let mut w = ColumnWriter { buf: Vec::new() };
        first.encode_since(&SegmentMark::default(), &mut w);
        let split = w.buf.len();
        second.encode_since(&first.mark(), &mut w);
        let mut log = w.buf;
        let (tuples, first_tuple, tag) = {
            let offset = |column: &[u8]| column.as_ptr() as usize - log.as_ptr() as usize;
            let mut r = ColumnReader::new(&log);
            let frame = Frame::read(&mut r).unwrap();
            let next = Frame::read(&mut r).unwrap();
            let tuples = frame.tuples.len();
            (
                tuples,
                offset(frame.tuples.as_flattened()),
                offset(next.tags),
            )
        };
        let last_tuple = first_tuple + 8 * (tuples - 1);
        assert!(last_tuple < split && tag > split);
        let counts = second.mark().counts();
        let refusal = |log: &[u8]| decode_log(log, persist::checksum(log), counts).unwrap_err();
        log[tag] = 9;
        assert_eq!(refusal(&log), "segment log: segment tag 9 out of range");
        log.copy_within(first_tuple..first_tuple + 8, last_tuple);
        let repeat = format!("segment log: tuple {} repeats an earlier tuple", tuples - 1);
        for _ in 0..8 {
            assert_eq!(refusal(&log), repeat);
        }
    }

    /// A load that maps the committed range and one that reads it onto the
    /// heap give equal manifests and log states, also for a range that
    /// starts past byte 0 of the log (a complete save over an existing
    /// checkpoint appends after what the log holds).
    #[test]
    fn mapped_and_heap_loads_are_equal() {
        let dir =
            std::env::temp_dir().join(format!("bgp-intent-ckpt-mapped-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let siblings = SiblingMap::from_orgs(vec![vec![Asn::new(1299), Asn::new(64999)]]);
        let mut cp = Checkpoint::new();
        for (round, observations) in [workload(), large_workload(20_000, 0)].iter().enumerate() {
            cp.snapshot.ingest_ordered(observations, &siblings);
            cp.save_atomic(&path).unwrap();
            let mapped = open_with::<Checkpoint>(&path, FileBytes::map).unwrap();
            let heap = open_with::<Checkpoint>(&path, FileBytes::read).unwrap();
            assert_eq!(mapped.0, cp);
            assert_eq!(heap.0, mapped.0);
            assert_eq!(
                (heap.1.start, heap.1.end, heap.2),
                (mapped.1.start, mapped.1.end, mapped.2)
            );
            assert_eq!(heap.1.checksum.finish(), mapped.1.checksum.finish());
            assert_eq!(heap.1.mark, mapped.1.mark);
            assert_eq!(mapped.1.start > 0, round > 0, "round {round}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The fold `infer --checkpoint` makes over `parts` as its files:
    /// resume from the checkpoint at `path` if there is one, then merge
    /// each file it does not record and commit after each.
    fn fold_checkpointed(parts: &[&[Observation]], path: &Path) -> Checkpoint {
        let siblings = SiblingMap::from_orgs(vec![vec![Asn::new(1299), Asn::new(64999)]]);
        let mut saver = CheckpointSaver::new(path, None).unwrap();
        let mut cp: Checkpoint = saver.resume().unwrap().unwrap_or_default();
        for (i, part) in parts.iter().enumerate().skip(cp.files.len()) {
            let mut file = FileSegment::default();
            for o in *part {
                file.push_observation(o.clone());
            }
            cp.snapshot.merge_file(file, &siblings);
            cp.report.records_read += part.len() as u64;
            cp.files.push(CompletedFile {
                path: format!("updates.{i:02}.mrt"),
                fingerprint: FileFingerprint {
                    bytes: part.len() as u64,
                    hash: i as u64,
                },
            });
            saver.save(&cp).unwrap();
        }
        cp
    }

    /// The manifest at `path` and its log.
    fn files_at(path: &Path) -> (Vec<u8>, Vec<u8>) {
        (
            std::fs::read(path).unwrap(),
            std::fs::read(log_path(path)).unwrap(),
        )
    }

    /// A crash at any step of a commit leaves the previous checkpoint:
    /// every prefix of the frame the next file appends, and the whole frame
    /// with the next manifest staged but never renamed, loads as the
    /// previous checkpoint, and finishing the fold from each ends with the
    /// uninterrupted run's files. A fold with nothing left writes nothing.
    #[test]
    fn a_crash_at_any_step_of_a_commit_resumes_to_the_uninterrupted_files() {
        let all = workload();
        let parts: Vec<&[Observation]> = all.chunks(13).collect();
        let dir =
            std::env::temp_dir().join(format!("bgp-intent-ckpt-crash-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let clean = dir.join("clean.ckpt");
        let uninterrupted = fold_checkpointed(&parts, &clean);
        let expected = files_at(&clean);
        assert_eq!(fold_checkpointed(&parts, &clean), uninterrupted);
        assert_eq!(files_at(&clean), expected, "nothing left, nothing written");

        let (path, k) = (dir.join("run.ckpt"), 2);
        fold_checkpointed(&parts[..k], &path);
        let at_k = files_at(&path);
        let cp_k = Checkpoint::load(&path).unwrap();
        assert_eq!(cp_k.files.len(), k);
        fold_checkpointed(&parts[..k + 1], &path);
        let (next_manifest, next_log) = files_at(&path);
        assert!(
            next_log.starts_with(&at_k.1),
            "a commit rewrote committed bytes"
        );
        let frame = next_log[at_k.1.len()..].to_vec();
        assert!(!frame.is_empty());
        for cut in 0..=frame.len() {
            std::fs::write(&path, &at_k.0).unwrap();
            let torn = [at_k.1.as_slice(), &frame[..cut]].concat();
            std::fs::write(log_path(&path), torn).unwrap();
            if cut == frame.len() {
                std::fs::write(persist::temp_path(&path), &next_manifest).unwrap();
            }
            assert_eq!(Checkpoint::load(&path).unwrap(), cp_k, "frame cut at {cut}");
            assert_eq!(fold_checkpointed(&parts, &path), uninterrupted);
            assert_eq!(files_at(&path), expected, "frame cut at {cut}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
