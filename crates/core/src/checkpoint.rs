//! The exact statistics segment every label is computed from, and the
//! sealed binary checkpoint that makes long runs crash-safe.
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
//! * [`Checkpoint`] records which input files completed (with a
//!   byte-length + FNV-1a fingerprint each, via [`fingerprint_file`]), the
//!   ingest accounting so far, and the segment. It is one sealed binary
//!   file (layout on the type), written durably by
//!   [`Checkpoint::save_atomic`] so a crash mid-write leaves the previous
//!   checkpoint intact, never a torn one. A shard worker's artifact is the
//!   same file (see [`crate::supervisor`]).
//! * `ColumnWriter` and `ColumnReader` are the column codec this file and
//!   the watch checkpoint ([`crate::watch`]) are encoded with, inside the
//!   envelope of [`bgp_types::persist`].
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
use std::fs::File;
use std::io::{self, Read};
use std::path::Path;
use std::sync::Arc;

use bgp_mrt::IngestReport;
use bgp_relationships::SiblingMap;
use bgp_types::aspath::{SEG_SEQUENCE, SEG_SET};
use bgp_types::persist::{self, fnv1a, Format, LoadError, FNV_OFFSET};
use bgp_types::store::{IdTable, Interner, ObservationSink, ObservationStore, ObservationView};
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
    /// Every unique tuple as a [`pack`]ed key, indexed by tuple ID.
    tuples: Vec<u64>,
    /// Exact index over `tuples`: the key is the identity.
    tuple_ids: IdTable,
    /// The sibling family (the owner included) of the owner of every
    /// interned community, fixed when the segment first saw the owner.
    families: BTreeMap<u16, Vec<u32>>,
}

/// Spread a packed tuple key over an [`IdTable`]: the multiply carries the
/// list ID into the high bits and the fold brings the path ID down into
/// the probe bits.
fn spread(key: u64) -> u64 {
    let h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^ (h >> 32)
}

impl Segment {
    /// The ID of the tuple `(path, cset)`, added on first sight.
    fn intern_tuple(&mut self, path: u32, cset: u32) -> u32 {
        let key = pack(path, cset);
        let hash = spread(key);
        if let Some(id) = self
            .tuple_ids
            .find(hash, |id| self.tuples[id as usize] == key)
        {
            return id;
        }
        let id = self.tuples.len() as u32;
        self.tuple_ids.insert(hash, id);
        self.tuples.push(key);
        id
    }

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
        self.intern_tuple(path, cset)
    }

    /// Re-intern `other`'s paths, lists and tuples by exact key, in its ID
    /// order. Owner families are the caller's.
    fn absorb(&mut self, other: &Segment) {
        let (paths, csets) = self.interner.absorb(&other.interner);
        for &key in &other.tuples {
            self.intern_tuple(paths[(key >> 32) as usize], csets[key as u32 as usize]);
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
            seg.intern_tuple(paths[path as usize], csets[cset as usize]);
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

    /// The [`PathStats`] over the tuples whose ID `keep` accepts — the
    /// streaming window's live tuples — on `threads` workers.
    pub(crate) fn stats_where(
        &self,
        threads: usize,
        keep: impl Fn(usize) -> bool + Sync,
    ) -> PathStats {
        let seg = &*self.seg;
        let index = OnPathIndex::build(&seg.interner, |owner, pool| {
            if let Some(family) = seg.families.get(&owner) {
                pool.extend_from_slice(family);
            }
        });
        let threads = if seg.tuples.len() < 2 { 1 } else { threads };
        reduce(&seg.interner, &index, threads, |shard, count| {
            let mine = |key: u64| count == 1 || (key >> 32) as u32 % count == shard;
            (0..seg.tuples.len())
                .filter(|&t| mine(seg.tuples[t]) && keep(t))
                .map(|t| seg.tuples[t])
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

    /// Append the segment's columns, all integers little-endian:
    ///
    /// ```text
    ///   path ends     column (u32): each path's end in the segment columns
    ///   seg tags      byte column: 1 AS_SET, 2 AS_SEQUENCE
    ///   seg lengths   column (u32): ASNs per segment
    ///   path ASNs     column (u32), every path's hops in order
    ///   list ends     column (u32): each community list's end in the next
    ///   communities   column (u32, α << 16 | β)
    ///   tuples        column (u64, path ID << 32 | list ID)
    ///   owners        column (u32, strictly ascending)
    ///   family ends   column (u32): each owner's end in the next
    ///   families      column (u32): sibling ASNs, the owner's included
    /// ```
    ///
    /// A path's ID is its position in the path ends, likewise for lists
    /// and tuples.
    pub(crate) fn encode(&self, w: &mut ColumnWriter) {
        let seg = &*self.seg;
        let (path_ends, segs, asns) = seg.interner.path_pools();
        w.column(path_ends, |e| e.to_le_bytes());
        w.column(segs, |&(tag, _)| [tag]);
        w.column(segs, |&(_, len)| len.to_le_bytes());
        w.column(asns, |a| a.to_le_bytes());
        let (list_ends, communities) = seg.interner.cset_pools();
        w.column(list_ends, |e| e.to_le_bytes());
        w.column(communities, |c| c.to_u32().to_le_bytes());
        w.column(&seg.tuples, |t| t.to_le_bytes());
        let owners: Vec<u32> = seg.families.keys().map(|&o| u32::from(o)).collect();
        let mut end = 0u32;
        let family_ends: Vec<u32> = seg
            .families
            .values()
            .map(|f| {
                end += f.len() as u32;
                end
            })
            .collect();
        w.column(&owners, |o| o.to_le_bytes());
        w.column(&family_ends, |e| e.to_le_bytes());
        let members: Vec<u32> = seg.families.values().flatten().copied().collect();
        w.column(&members, |a| a.to_le_bytes());
    }

    /// Read back what [`encode`](Self::encode) wrote, re-interning every
    /// path, list and tuple. Every count is checked against the bytes left
    /// before anything is allocated, every end and ID against what it
    /// indexes before it is used, and a value equal to an earlier one (a
    /// duplicate path, list or tuple) is refused.
    pub(crate) fn decode(r: &mut ColumnReader<'_>) -> Result<StatsAccumulator, String> {
        let path_ends = r.column("path ends", u32::from_le_bytes)?;
        let tags = r.bytes("segment tags")?;
        let lens = r.column("segment lengths", u32::from_le_bytes)?;
        let asns = r.column("path ASNs", u32::from_le_bytes)?;
        let list_ends = r.column("list ends", u32::from_le_bytes)?;
        let communities = r.column("communities", |b| {
            Community::from_u32(u32::from_le_bytes(b))
        })?;
        let tuples = r.column("tuples", u64::from_le_bytes)?;
        let owners = r.column("owners", u32::from_le_bytes)?;
        let family_ends = r.column("family ends", u32::from_le_bytes)?;
        let members = r.column("families", u32::from_le_bytes)?;

        if lens.len() != tags.len() {
            return Err(format!(
                "{} segment tags, {} lengths",
                tags.len(),
                lens.len()
            ));
        }
        if let Some(tag) = tags.iter().find(|&&t| t != SEG_SET && t != SEG_SEQUENCE) {
            return Err(format!("segment tag {tag} out of range"));
        }
        let segs: Vec<(u8, u32)> = tags.iter().copied().zip(lens).collect();
        let mut seg = Segment::default();
        let (mut seg_at, mut asn_at) = (0, 0);
        for (id, &end) in path_ends.iter().enumerate() {
            let path_segs = next_run(&segs, &mut seg_at, u64::from(end), "path ends")?;
            let hops: u64 = path_segs.iter().map(|&(_, len)| u64::from(len)).sum();
            let end = asn_at as u64 + hops;
            let path_asns = next_run(&asns, &mut asn_at, end, "path ASNs")?;
            let path = AsPathView {
                segs: path_segs,
                asns: path_asns,
            };
            if seg.interner.intern_path(&path) != id as u32 {
                return Err(format!("path {id} repeats an earlier path"));
            }
        }
        finished(&segs, seg_at, "segments")?;
        finished(&asns, asn_at, "path ASNs")?;
        let mut at = 0;
        for (id, &end) in list_ends.iter().enumerate() {
            let list = next_run(&communities, &mut at, u64::from(end), "list ends")?;
            if seg.interner.intern_cset(list) != id as u32 {
                return Err(format!("community list {id} repeats an earlier list"));
            }
        }
        finished(&communities, at, "communities")?;
        let (paths, lists) = (path_ends.len() as u64, list_ends.len() as u64);
        for (id, &key) in tuples.iter().enumerate() {
            if key >> 32 >= paths || key & u64::from(u32::MAX) >= lists {
                return Err(format!(
                    "tuple {id} names path {} and list {}, of {paths} and {lists}",
                    key >> 32,
                    key as u32
                ));
            }
            if seg.intern_tuple((key >> 32) as u32, key as u32) != id as u32 {
                return Err(format!("tuple {id} repeats an earlier tuple"));
            }
        }
        if family_ends.len() != owners.len() {
            return Err(format!(
                "{} owners, {} family ends",
                owners.len(),
                family_ends.len()
            ));
        }
        if owners.windows(2).any(|w| w[0] >= w[1]) || owners.last() > Some(&u32::from(u16::MAX)) {
            return Err("owners not strictly ascending 16-bit ASNs".into());
        }
        let mut at = 0;
        for (&owner, &end) in owners.iter().zip(&family_ends) {
            let family = next_run(&members, &mut at, u64::from(end), "family ends")?;
            seg.families.insert(owner as u16, family.to_vec());
        }
        finished(&members, at, "family members")?;
        for slot in 0..seg.interner.community_count() as u32 {
            let c = seg.interner.community(slot);
            if !seg.families.contains_key(&c.asn) {
                return Err(format!("community {c} has no owner family"));
            }
        }
        Ok(StatsAccumulator { seg: Arc::new(seg) })
    }
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
/// # Layout (version 4, all integers little-endian)
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
///   segment       the statistics segment (see StatsAccumulator::encode)
/// ```
///
/// Versions 1 and 2 were JSON manifests; they are refused as
/// [`LoadError::Foreign`]. Version 3 held u64 fingerprint sets in place
/// of the segment; it is refused as [`LoadError::Version`].
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
    /// The envelope of checkpoint files and shard artifacts.
    pub const FORMAT: Format = Format {
        magic: *b"BGPBCKPT",
        version: 4,
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
    /// parseable report, the segment's structure, and no trailing bytes. Damage of any kind is a
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

    /// The segment's column encoding, without an envelope.
    fn encoded(segment: &StatsAccumulator) -> Vec<u8> {
        let mut w = ColumnWriter::new();
        segment.encode(&mut w);
        w.buf
    }

    /// Decode what [`encoded`] wrote.
    fn decoded(bytes: &[u8]) -> Result<StatsAccumulator, String> {
        let mut r = ColumnReader::new(&bytes[persist::HEADER_LEN..]);
        let segment = StatsAccumulator::decode(&mut r)?;
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
        w.column(&[1u32, 2], |e| e.to_le_bytes());
        w.column(&[0x0001_0007u32, 0x0001_0008], |c| c.to_le_bytes());
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
    fn an_empty_segment_roundtrips_and_counts_nothing() {
        let empty = StatsAccumulator::new();
        assert_eq!(empty.tuple_count(), 0);
        assert_eq!(empty.to_stats(), PathStats::default());
        let back = decoded(&encoded(&empty)).unwrap();
        assert_eq!(back, empty);
        // Ten empty columns, nothing else.
        assert_eq!(encoded(&empty).len(), persist::HEADER_LEN + 10 * 8);
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

    /// Hand-written segment columns with one path ("1"), the given list
    /// columns, one tuple `(0, 0)` and the given owner families.
    fn list_columns(
        list_ends: &[u32],
        communities: &[u32],
        owners: &[u32],
        family_ends: &[u32],
        members: &[u32],
    ) -> Result<StatsAccumulator, String> {
        let mut w = ColumnWriter::new();
        w.column(&[1u32], |e| e.to_le_bytes());
        w.bytes(&[SEG_SEQUENCE]);
        w.column(&[1u32], |n| n.to_le_bytes());
        w.column(&[1u32], |a| a.to_le_bytes());
        w.column(list_ends, |e| e.to_le_bytes());
        w.column(communities, |c| c.to_le_bytes());
        w.column(&[0u64], |t| t.to_le_bytes());
        w.column(owners, |o| o.to_le_bytes());
        w.column(family_ends, |e| e.to_le_bytes());
        w.column(members, |a| a.to_le_bytes());
        decoded(&w.buf)
    }

    #[test]
    fn list_and_family_structure_is_checked_behind_the_seal() {
        let ok = list_columns(&[1, 2], &[0x0001_0007, 0x0001_0008], &[1], &[2], &[1, 5])
            .expect("well-formed columns load");
        assert_eq!(ok.to_stats().counts(Community::new(1, 7)).unwrap().on, 1);
        for (columns, expect) in [
            (
                list_columns(&[1, 2], &[0x0001_0007, 0x0001_0007], &[1], &[1], &[1]),
                "community list 1 repeats an earlier list",
            ),
            (
                list_columns(&[2, 1], &[0x0001_0007, 0x0001_0008], &[1], &[1], &[1]),
                "list ends: end 1 outside 2..=2",
            ),
            (
                list_columns(&[1], &[0x0001_0007, 0x0001_0008], &[1], &[1], &[1]),
                "1 communities belong to no entry",
            ),
            (
                list_columns(&[], &[], &[1], &[1], &[1]),
                "tuple 0 names path 0 and list 0, of 1 and 0",
            ),
            (
                list_columns(&[1], &[0x0001_0007], &[1], &[], &[1]),
                "1 owners, 0 family ends",
            ),
            (
                list_columns(&[1], &[0x0001_0007], &[1], &[3], &[1]),
                "family ends: end 3 outside 0..=1",
            ),
            (
                list_columns(&[1], &[0x0001_0007], &[1], &[1], &[1, 2]),
                "1 family members belong to no entry",
            ),
            (
                list_columns(&[1], &[0x0001_0007], &[1, 1], &[1, 1], &[1]),
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

        let mut file = Checkpoint::new().encode();
        file[8..12].copy_from_slice(&3u32.to_le_bytes());
        std::fs::write(&path, &file).unwrap();
        match Checkpoint::load(&path).unwrap_err() {
            LoadError::Version {
                found, expected, ..
            } => assert_eq!((found, expected), (3, 4)),
            other => panic!("expected a version error, got {other}"),
        }

        // The same payload under the watch checkpoint's magic is foreign.
        let mut file = Checkpoint::new().encode();
        file[..8].copy_from_slice(b"BGPWCKPT");
        std::fs::write(&path, &file).unwrap();
        assert!(matches!(
            Checkpoint::load(&path).unwrap_err(),
            LoadError::Foreign { .. }
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_empty_file_fingerprints_as_the_fnv_offset() {
        let dir =
            std::env::temp_dir().join(format!("bgp-intent-ckpt-empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.bin");
        std::fs::write(&path, b"").unwrap();
        assert_eq!(
            fingerprint_file(&path).unwrap(),
            FileFingerprint {
                bytes: 0,
                hash: FNV_OFFSET
            }
        );
        // Larger than one read buffer: the hash chains across reads.
        let big: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        std::fs::write(&path, &big).unwrap();
        assert_eq!(
            fingerprint_file(&path).unwrap(),
            FileFingerprint {
                bytes: big.len() as u64,
                hash: fnv1a(FNV_OFFSET, &big)
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
}
