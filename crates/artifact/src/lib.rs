//! The label artifact: inference output as a servable binary file.
//!
//! `infer`'s JSON label dump is fine for humans and diffs, but the north
//! star is serving "is `3356:2003` action or information?" at millions of
//! lookups per second. This crate defines the on-disk **label artifact**
//! — sorted dense columns keyed by the packed `(α:β)` word — plus a
//! zero-copy loader and the binary-search lookup kernel on top of it.
//!
//! # Layout (version 3, all integers little-endian)
//!
//! The [`persist`] envelope with magic `BGPLABEL`, then the payload:
//!
//! ```text
//!   0  entries      u64  (n, > 0)
//!   8  owners       u64  (m = distinct α values)
//!   16 columns, in fixed order, each 8-byte aligned (file offset 48):
//!   keys        n × u64   packed community keys, strictly ascending
//!   labels      n × u8    0 = action, 1 = information (padded to 8)
//!   confidence  n × f64   label confidence in (0, 1]
//!   ratio       n × f64   the containing cluster's on:off ratio
//!   on_paths    n × u64   cluster on-path unique-path total
//!   off_paths   n × u64   cluster off-path unique-path total
//!   owners      m × (u32 α, u32 start)   first row index per owner α
//! ```
//!
//! Version 1 had a 48-byte header of its own (magic `BGPA`); it is refused
//! as [`LoadError::Foreign`]. Version 2 had this layout with the payload
//! sealed by FNV-1a 64; it is refused as [`LoadError::Version`].
//!
//! The key is [`Community::packed_key`]: `(α << 16 | β)` widened to `u64`.
//! Point lookups binary-search the key column (`O(log n)`, ~27 probes at
//! the paper's 80k labels); `α`-prefix scans binary-search the owner
//! index instead and return a contiguous row range.
//!
//! # Why mmap is safe here
//!
//! Artifacts are written with the same durable temp-file-then-rename
//! helper as checkpoints and never modified in place, so a reader
//! can never observe a torn write. Loading validates the envelope (magic,
//! version, payload length, checksum), then the column geometry, key
//! ordering, label bytes and owner index before any lookup runs. And every access after that goes through
//! bounds-checked byte slices (`u64::from_le_bytes` on subslices) — no
//! pointer casts, no alignment assumptions — so even a hostile file that
//! somehow passed validation could only yield wrong values, never
//! undefined behavior. The one `unsafe` block in this crate is the
//! `mmap`/`munmap` pair and the slice over the bytes, confined to the
//! module that defines [`FileBytes`], and a plain heap read ([`LabelArtifact::load_heap`])
//! provides the same artifact with no `unsafe` at all (and is the non-unix
//! fallback).

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::fs::File;
use std::io::{self, Read};
use std::path::Path;

use bgp_types::par::{effective_threads, par_map_indexed};
use bgp_types::persist::{self, Format, LoadError};
use bgp_types::{Community, Intent};

/// File offset of the first column: the envelope, then the two counts.
const COLUMNS: usize = persist::HEADER_LEN + 16;

/// One classified community as served from (or written into) an artifact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabelRow {
    /// The community.
    pub community: Community,
    /// Its inferred intent.
    pub label: Intent,
    /// Label confidence in `(0, 1]`: 1.0 for the unambiguous never-off-path
    /// / never-on-path cases, otherwise how far the cluster ratio sits from
    /// the decision threshold.
    pub confidence: f64,
    /// The containing cluster's on:off ratio (the classification evidence).
    pub ratio: f64,
    /// The containing cluster's on-path unique-path total.
    pub on_paths: u64,
    /// The containing cluster's off-path unique-path total.
    pub off_paths: u64,
}

/// Byte offsets of each column, relative to the first, derived from the
/// entry and owner counts. Shared by the writer and the loader so they
/// cannot disagree.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Sections {
    keys: usize,
    labels: usize,
    confidence: usize,
    ratio: usize,
    on: usize,
    off: usize,
    owners: usize,
    len: usize,
}

impl Sections {
    /// `None` when the counts overflow the layout arithmetic — only
    /// reachable from forged counts (a payload claiming ~2^63 entries).
    fn for_counts(n: usize, m: usize) -> Option<Sections> {
        let n8 = n.checked_mul(8)?;
        let keys = 0;
        let labels = n8;
        let labels_padded = n.checked_add(7)? & !7;
        let confidence = labels.checked_add(labels_padded)?;
        let ratio = confidence.checked_add(n8)?;
        let on = ratio.checked_add(n8)?;
        let off = on.checked_add(n8)?;
        let owners = off.checked_add(n8)?;
        let len = owners.checked_add(m.checked_mul(8)?)?;
        Some(Sections {
            keys,
            labels,
            confidence,
            ratio,
            on,
            off,
            owners,
            len,
        })
    }
}

/// The owner index of a key column: for each distinct `α`, in key order,
/// the word `α | first_row << 32` (the `(u32 α, u32 start)` entry read as
/// one little-endian word). The writer and the loader both derive it
/// here, so the loader can check the stored index exactly.
fn owner_index(keys: impl Iterator<Item = u64>) -> Vec<u64> {
    let mut index: Vec<u64> = Vec::new();
    for (i, key) in keys.enumerate() {
        let alpha = key >> 16;
        if index.last().map(|word| word & 0xffff_ffff) != Some(alpha) {
            index.push(alpha | (i as u64) << 32);
        }
    }
    index
}

fn label_byte(intent: Intent) -> u8 {
    match intent {
        Intent::Action => 0,
        Intent::Information => 1,
    }
}

/// Encode `rows` (which must be sorted strictly ascending by
/// [`Community::packed_key`]) into a sealed artifact file.
///
/// Exposed so tests and in-memory consumers can build an artifact without
/// touching the filesystem; [`write_artifact_atomic`] is the production
/// entry point.
pub fn encode_artifact(rows: &[LabelRow]) -> io::Result<Vec<u8>> {
    for pair in rows.windows(2) {
        if pair[0].community.packed_key() >= pair[1].community.packed_key() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "label rows must be sorted strictly ascending by packed key \
                     ({} does not precede {})",
                    pair[0].community, pair[1].community
                ),
            ));
        }
    }
    let owners = owner_index(rows.iter().map(|r| r.community.packed_key()));
    let (n, m) = (rows.len(), owners.len());
    let sec = Sections::for_counts(n, m).expect("in-memory row count cannot overflow the layout");

    let mut file = vec![0u8; COLUMNS + sec.len];
    file[persist::HEADER_LEN..COLUMNS - 8].copy_from_slice(&(n as u64).to_le_bytes());
    file[COLUMNS - 8..COLUMNS].copy_from_slice(&(m as u64).to_le_bytes());
    let cols = &mut file[COLUMNS..];
    let mut put = |at: usize, word: u64| cols[at..at + 8].copy_from_slice(&word.to_le_bytes());
    for (i, row) in rows.iter().enumerate() {
        put(sec.keys + i * 8, row.community.packed_key());
        put(sec.confidence + i * 8, row.confidence.to_bits());
        put(sec.ratio + i * 8, row.ratio.to_bits());
        put(sec.on + i * 8, row.on_paths);
        put(sec.off + i * 8, row.off_paths);
    }
    for (j, &word) in owners.iter().enumerate() {
        put(sec.owners + j * 8, word);
    }
    for (i, row) in rows.iter().enumerate() {
        cols[sec.labels + i] = label_byte(row.label);
    }
    LabelArtifact::FORMAT.seal(&mut file);
    Ok(file)
}

/// Write an artifact durably through [`persist::write_atomic`] (temp
/// file, fsync, rename, directory fsync). A crash at any point leaves
/// either the previous artifact or the new one — never a torn file (the
/// precondition for mmap serving).
pub fn write_artifact_atomic(path: &Path, rows: &[LabelRow]) -> io::Result<()> {
    persist::write_atomic(path, &encode_artifact(rows)?)
}

/// [`FileBytes`] and the read-only private mapping (unix) behind it. This
/// module owns the only `unsafe` in the crate.
#[allow(unsafe_code)]
mod file_bytes {
    use std::fs::File;
    use std::io::{self, Read, Seek, SeekFrom};
    #[cfg(unix)]
    use std::os::unix::io::AsRawFd;

    #[cfg(unix)]
    extern "C" {
        fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
    }

    #[cfg(unix)]
    const PROT_READ: i32 = 1;
    #[cfg(unix)]
    const MAP_PRIVATE: i32 = 2;

    /// A range of a file's bytes, read-only: served from a private memory
    /// mapping where the kernel gives one (unix), else copied onto the
    /// heap. Mapping costs no copy, and no page of a fresh buffer is
    /// first-touched: a reader pays only for the pages it reads, straight
    /// from the page cache. It is the one mmap helper of the workspace —
    /// label artifacts are served from it, and checkpoint loads read their
    /// segment log's committed range through it.
    ///
    /// A mapping is only sound while nobody rewrites or truncates the
    /// mapped range; each caller states why its files are never changed in
    /// place under a reader (see "Why mmap is safe here" in the crate
    /// docs).
    pub struct FileBytes {
        /// The served bytes, `data..data + len`, inside what `owner`
        /// holds: every lookup's binary search reads through them, so no
        /// read branches on where they live.
        data: *const u8,
        len: usize,
        owner: Owner,
    }

    enum Owner {
        /// A heap copy; `data` is its buffer, which never moves or changes
        /// while this value lives.
        Heap { _buffer: Vec<u8> },
        /// A mapping of a file's bytes `0..mapped` at `base`.
        #[cfg(unix)]
        Mmap {
            base: *mut core::ffi::c_void,
            mapped: usize,
        },
    }

    // SAFETY: `data..data + len` is read-only memory `owner` keeps alive
    // and unchanged until this value is dropped (a heap buffer nothing
    // writes to, or a PROT_READ mapping), and no field changes after
    // construction; sharing or moving the bytes across threads is as safe
    // as sharing a `Vec<u8>`.
    unsafe impl Send for FileBytes {}
    // SAFETY: as for `Send`: every field is read-only after construction.
    unsafe impl Sync for FileBytes {}

    impl FileBytes {
        /// Bytes `offset..offset + len` of `file`, mapped where the kernel
        /// allows, else read onto the heap ([`read`](Self::read)). A range
        /// the file does not hold is never mapped (reading there would
        /// fault); the read refuses it.
        pub fn map(file: &File, offset: u64, len: usize) -> io::Result<FileBytes> {
            #[cfg(unix)]
            {
                let held = file.metadata()?.len();
                let range = usize::try_from(offset)
                    .ok()
                    .and_then(|start| Some((start, start.checked_add(len)?)))
                    .filter(|&(start, end)| start < end && end as u64 <= held);
                if let Some((start, end)) = range {
                    // SAFETY: a new read-only private mapping of `end`
                    // bytes of a descriptor that stays open for the call;
                    // the kernel checks every argument and reports a
                    // refusal as MAP_FAILED (-1).
                    let base = unsafe {
                        mmap(
                            std::ptr::null_mut(),
                            end,
                            PROT_READ,
                            MAP_PRIVATE,
                            file.as_raw_fd(),
                            0,
                        )
                    };
                    if base as isize != -1 && !base.is_null() {
                        return Ok(FileBytes {
                            // SAFETY: start < end, the mapping's length.
                            data: unsafe { (base as *const u8).add(start) },
                            len: end - start,
                            owner: Owner::Mmap { base, mapped: end },
                        });
                    }
                }
            }
            Self::read(file, offset, len)
        }

        /// Bytes `offset..offset + len` of `file`, read onto the heap — the
        /// path with no mapping at all, and the mapping's fallback.
        pub fn read(mut file: &File, offset: u64, len: usize) -> io::Result<FileBytes> {
            let mut bytes = vec![0; len];
            file.seek(SeekFrom::Start(offset))?;
            file.read_exact(&mut bytes)?;
            Ok(FileBytes::from(bytes))
        }

        /// The bytes.
        #[inline]
        pub fn bytes(&self) -> &[u8] {
            // SAFETY: data..data+len is memory `owner` keeps alive and
            // unchanged for as long as self exists, and the borrow cannot
            // outlive self.
            unsafe { std::slice::from_raw_parts(self.data, self.len) }
        }

        /// Whether the bytes are served from a memory mapping (as opposed
        /// to the heap).
        pub fn is_mapped(&self) -> bool {
            match self.owner {
                Owner::Heap { .. } => false,
                #[cfg(unix)]
                Owner::Mmap { .. } => true,
            }
        }
    }

    impl From<Vec<u8>> for FileBytes {
        fn from(bytes: Vec<u8>) -> Self {
            FileBytes {
                data: bytes.as_ptr(),
                len: bytes.len(),
                owner: Owner::Heap { _buffer: bytes },
            }
        }
    }

    impl Drop for FileBytes {
        fn drop(&mut self) {
            #[cfg(unix)]
            if let Owner::Mmap { base, mapped } = self.owner {
                // SAFETY: exactly the region `map` mapped, unmapped once.
                unsafe {
                    munmap(base, mapped);
                }
            }
        }
    }
}

pub use file_bytes::FileBytes;

impl std::ops::Deref for FileBytes {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        self.bytes()
    }
}

impl fmt::Debug for FileBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FileBytes")
            .field("len", &self.bytes().len())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

/// The entry count, owner count and column geometry of an artifact
/// payload, once the geometry matches the bytes present and the keys,
/// label bytes and owner index hold every invariant lookups rely on.
fn check(payload: &[u8]) -> Result<(usize, usize, Sections), String> {
    let Some(columns) = payload.get(16..) else {
        return Err(format!(
            "{} payload bytes, shorter than the counts",
            payload.len()
        ));
    };
    let count = |at: usize| {
        let n = u64::from_le_bytes(payload[at..at + 8].try_into().expect("8"));
        usize::try_from(n).map_err(|_| format!("count {n} out of range"))
    };
    let (entries, owners) = (count(0)?, count(8)?);
    if entries == 0 {
        return Err("zero labels, nothing to serve".into());
    }
    // Geometry first: the column layout implied by the counts must match
    // the bytes present, so every column access below is in bounds by
    // construction.
    if owners > entries {
        return Err(format!("{owners} owners > {entries} entries"));
    }
    let sections = Sections::for_counts(entries, owners)
        .ok_or_else(|| format!("{entries} entries / {owners} owners overflow the layout"))?;
    if sections.len != columns.len() {
        return Err(format!(
            "{} column bytes, {} implied by {entries} entries / {owners} owners",
            columns.len(),
            sections.len
        ));
    }
    // Keys: strictly ascending (binary search's invariant) and within the
    // packed 32-bit community space.
    let word_at = |at: usize| u64::from_le_bytes(columns[at..at + 8].try_into().expect("8"));
    let mut prev: Option<u64> = None;
    for i in 0..entries {
        let key = word_at(sections.keys + i * 8);
        if key > u64::from(u32::MAX) {
            return Err(format!("key {key:#x} outside the packed α:β space"));
        }
        if prev.is_some_and(|p| key <= p) {
            return Err(format!("keys not strictly ascending at row {i}"));
        }
        prev = Some(key);
    }
    // Labels: only the two defined bytes (at most 1 for a row); padding
    // must be zero.
    for (i, &b) in columns[sections.labels..sections.confidence]
        .iter()
        .enumerate()
    {
        if b > u8::from(i < entries) {
            return Err(format!("label byte {b} at row {i}"));
        }
    }
    // Owner index: must be exactly the index the writer derives from the
    // key column (the lookup kernel trusts its starts blindly).
    let expected = owner_index((0..entries).map(|i| word_at(sections.keys + i * 8)));
    if expected.len() != owners {
        return Err(format!(
            "{owners} owner entries recorded, {} implied by the key column",
            expected.len()
        ));
    }
    for (j, &word) in expected.iter().enumerate() {
        let got = word_at(sections.owners + j * 8);
        if got != word {
            return Err(format!(
                "owner index entry {j} is ({}, {}), expected ({}, {})",
                got as u32,
                got >> 32,
                word as u32,
                word >> 32
            ));
        }
    }
    Ok((entries, owners, sections))
}

/// A loaded, fully validated label artifact, ready to serve lookups.
///
/// Columns are read in place from the backing bytes (mmap on unix, heap
/// elsewhere) — loading is O(n) validation, not a deserialization copy.
pub struct LabelArtifact {
    backing: FileBytes,
    entries: usize,
    owners: usize,
    sections: Sections,
}

impl fmt::Debug for LabelArtifact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LabelArtifact")
            .field("entries", &self.entries)
            .field("owners", &self.owners)
            .field("mmapped", &self.is_mmapped())
            .finish()
    }
}

impl LabelArtifact {
    /// The envelope of label artifact files.
    pub const FORMAT: Format = Format {
        magic: *b"BGPLABEL",
        version: 3,
        name: "label artifact",
    };

    /// Load an artifact, preferring a zero-copy memory mapping (unix);
    /// falls back to a heap read when mapping fails ([`FileBytes::map`]).
    pub fn load(path: &Path) -> Result<LabelArtifact, LoadError> {
        let io = |source| LoadError::io(path, source);
        let file = File::open(path).map_err(io)?;
        let len = file.metadata().map_err(io)?.len() as usize;
        Self::validate(path, FileBytes::map(&file, 0, len).map_err(io)?)
    }

    /// Load an artifact by reading the whole file onto the heap — the
    /// no-`unsafe` path.
    pub fn load_heap(path: &Path) -> Result<LabelArtifact, LoadError> {
        let mut bytes = Vec::new();
        File::open(path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(|source| LoadError::io(path, source))?;
        Self::validate(path, FileBytes::from(bytes))
    }

    /// Open the envelope, then check the column geometry and every
    /// invariant the lookup kernel relies on. All errors are typed;
    /// nothing is served from a file that fails any check.
    fn validate(path: &Path, backing: FileBytes) -> Result<LabelArtifact, LoadError> {
        let (entries, owners, sections) = Self::FORMAT.decode(backing.bytes(), path, check)?;
        Ok(LabelArtifact {
            backing,
            entries,
            owners,
            sections,
        })
    }

    /// Every binary-search step reads through here, so it is inlined into
    /// callers in other crates too; a call per step made lookup speed
    /// depend on where the linker happened to place this function.
    #[inline]
    fn columns(&self) -> &[u8] {
        &self.backing.bytes()[COLUMNS..]
    }

    /// Number of labeled communities.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Always false — zero-entry artifacts are refused at load.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Number of distinct owner ASes.
    pub fn owner_count(&self) -> usize {
        self.owners
    }

    /// Whether this artifact is served from a memory mapping (as opposed
    /// to the heap fallback).
    pub fn is_mmapped(&self) -> bool {
        self.backing.is_mapped()
    }

    /// The `i`-th 8-byte word of the column at `section`.
    #[inline]
    fn u64_at(&self, section: usize, i: usize) -> u64 {
        let at = section + i * 8;
        u64::from_le_bytes(self.columns()[at..at + 8].try_into().expect("8"))
    }

    #[inline]
    fn key_at(&self, i: usize) -> u64 {
        self.u64_at(0, i) // the key column comes first
    }

    #[inline]
    fn intent_at(&self, i: usize) -> Intent {
        if self.columns()[self.sections.labels + i] == 0 {
            Intent::Action
        } else {
            Intent::Information
        }
    }

    /// The `i`-th row in key order. Panics if `i >= len()`.
    pub fn row(&self, i: usize) -> LabelRow {
        assert!(i < self.entries, "row {i} out of bounds ({})", self.entries);
        let sec = &self.sections;
        LabelRow {
            community: Community::from_u32(self.key_at(i) as u32),
            label: self.intent_at(i),
            confidence: f64::from_bits(self.u64_at(sec.confidence, i)),
            ratio: f64::from_bits(self.u64_at(sec.ratio, i)),
            on_paths: self.u64_at(sec.on, i),
            off_paths: self.u64_at(sec.off, i),
        }
    }

    /// Row index of `c`, if classified — the binary-search core every
    /// lookup goes through.
    #[inline]
    pub fn find(&self, c: Community) -> Option<usize> {
        let key = c.packed_key();
        let (mut lo, mut hi) = (0usize, self.entries);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.key_at(mid) < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        (lo < self.entries && self.key_at(lo) == key).then_some(lo)
    }

    /// Point lookup: the full row for `c`, if classified.
    #[inline]
    pub fn get(&self, c: Community) -> Option<LabelRow> {
        self.find(c).map(|i| self.row(i))
    }

    /// Just the intent for `c` — the cheapest query (one column touched).
    #[inline]
    pub fn label(&self, c: Community) -> Option<Intent> {
        self.find(c).map(|i| self.intent_at(i))
    }

    /// Batch lookup, fanned out over `threads` workers (`0` = one per
    /// CPU, `1` = sequential). Results are index-aligned with `keys`, and
    /// identical at any thread count.
    pub fn get_batch(&self, keys: &[Community], threads: usize) -> Vec<Option<LabelRow>> {
        let threads = effective_threads(threads).min(keys.len().max(1));
        if threads <= 1 {
            return keys.iter().map(|&k| self.get(k)).collect();
        }
        let chunk_size = keys.len().div_ceil(threads * 4).max(1);
        let chunks: Vec<&[Community]> = keys.chunks(chunk_size).collect();
        let parts = par_map_indexed(chunks.len(), threads, |i| {
            chunks[i].iter().map(|&k| self.get(k)).collect::<Vec<_>>()
        });
        parts.into_iter().flatten().collect()
    }

    /// The contiguous row range owned by `α` (empty if the owner has no
    /// classified communities) — the `α`-prefix scan, via the owner index
    /// instead of a key-column search.
    pub fn owner_range(&self, asn: u16) -> std::ops::Range<usize> {
        // An owner entry read as one word: α in the low half, the start
        // row in the high half.
        let owners = self.sections.owners;
        let alpha_at = |j: usize| self.u64_at(owners, j) as u32;
        let start_at = |j: usize| (self.u64_at(owners, j) >> 32) as usize;
        let target = u32::from(asn);
        let (mut lo, mut hi) = (0usize, self.owners);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if alpha_at(mid) < target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo >= self.owners || alpha_at(lo) != target {
            return 0..0;
        }
        let start = start_at(lo);
        let end = if lo + 1 < self.owners {
            start_at(lo + 1)
        } else {
            self.entries
        };
        start..end
    }

    /// All rows for owner `α`, in `β` order.
    pub fn owner_rows(&self, asn: u16) -> Vec<LabelRow> {
        self.owner_range(asn).map(|i| self.row(i)).collect()
    }

    /// Iterate every row in key order.
    pub fn rows(&self) -> impl Iterator<Item = LabelRow> + '_ {
        (0..self.entries).map(|i| self.row(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "bgp-artifact-test-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::SeqCst)
        ));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir.join(tag)
    }

    fn sample_rows() -> Vec<LabelRow> {
        let row = |asn: u16, value: u16, label: Intent, ratio: f64, on: u64, off: u64| LabelRow {
            community: Community::new(asn, value),
            label,
            confidence: if off == 0 || on == 0 {
                1.0
            } else {
                ratio / (ratio + 160.0)
            },
            ratio,
            on_paths: on,
            off_paths: off,
        };
        vec![
            row(174, 7, Intent::Action, 0.25, 3, 12),
            row(1299, 2569, Intent::Action, 0.0, 0, 9),
            row(1299, 20000, Intent::Information, 412.5, 825, 2),
            row(1299, 35130, Intent::Information, 37.0, 37, 0),
            row(3356, 3, Intent::Action, 1.5, 3, 2),
            row(3356, 2003, Intent::Information, 900.0, 1800, 2),
        ]
    }

    fn write_sample(tag: &str) -> (PathBuf, Vec<LabelRow>) {
        let rows = sample_rows();
        let path = temp_path(tag);
        write_artifact_atomic(&path, &rows).expect("write artifact");
        (path, rows)
    }

    #[test]
    fn a_mapped_range_reads_as_the_heap_range() {
        let dir = std::env::temp_dir().join(format!("bgp-artifact-range-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bytes.bin");
        let data: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        std::fs::write(&path, &data).unwrap();
        let file = File::open(&path).unwrap();
        for (offset, len) in [
            (0, data.len()),
            (0, 1),
            (4096, 9000),
            (5003, 14_997),
            (19_999, 1),
        ] {
            let mapped = FileBytes::map(&file, offset as u64, len).unwrap();
            let read = FileBytes::read(&file, offset as u64, len).unwrap();
            assert_eq!(mapped.is_mapped(), cfg!(unix), "{offset}+{len}");
            assert!(!read.is_mapped());
            assert_eq!(&*mapped, &data[offset..offset + len]);
            assert_eq!(&*read, &*mapped);
        }
        // An empty range is served from the heap; one past the end is
        // refused, mapped or not.
        let empty = FileBytes::map(&file, 7, 0).unwrap();
        assert!(empty.is_empty() && !empty.is_mapped());
        for offset in [data.len() as u64 - 1, data.len() as u64] {
            let err = FileBytes::map(&file, offset, 2).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{offset}");
        }
        assert!(FileBytes::map(&file, u64::MAX, 2).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn round_trips_through_both_backings() {
        let (path, rows) = write_sample("roundtrip.art");
        for artifact in [
            LabelArtifact::load(&path).expect("mmap load"),
            LabelArtifact::load_heap(&path).expect("heap load"),
        ] {
            assert_eq!(artifact.len(), rows.len());
            assert_eq!(artifact.owner_count(), 3);
            let back: Vec<LabelRow> = artifact.rows().collect();
            assert_eq!(back, rows);
        }
        #[cfg(unix)]
        assert!(LabelArtifact::load(&path).expect("load").is_mmapped());
    }

    #[test]
    fn point_lookups_hit_and_miss() {
        let (path, rows) = write_sample("lookup.art");
        let artifact = LabelArtifact::load(&path).expect("load");
        for row in &rows {
            assert_eq!(artifact.get(row.community), Some(*row));
            assert_eq!(artifact.label(row.community), Some(row.label));
        }
        for miss in [
            Community::new(0, 0),
            Community::new(174, 8),
            Community::new(1299, 2568),
            Community::new(3356, 2004),
            Community::new(65535, 65535),
        ] {
            assert_eq!(artifact.get(miss), None);
            assert_eq!(artifact.label(miss), None);
        }
    }

    #[test]
    fn owner_scans_return_contiguous_beta_ranges() {
        let (path, rows) = write_sample("owners.art");
        let artifact = LabelArtifact::load(&path).expect("load");
        assert_eq!(artifact.owner_range(1299), 1..4);
        assert_eq!(artifact.owner_rows(1299), rows[1..4].to_vec());
        assert_eq!(artifact.owner_range(174), 0..1);
        assert_eq!(artifact.owner_range(3356), 4..6);
        assert_eq!(artifact.owner_range(2914), 0..0);
        assert!(artifact.owner_rows(2914).is_empty());
    }

    #[test]
    fn batch_lookup_is_identical_at_any_thread_count() {
        let (path, rows) = write_sample("batch.art");
        let artifact = LabelArtifact::load(&path).expect("load");
        let mut keys: Vec<Community> = rows.iter().map(|r| r.community).collect();
        // Interleave misses so both arms are exercised.
        keys.extend((0..100).map(|i| Community::new(9000 + i as u16, i as u16)));
        let baseline = artifact.get_batch(&keys, 1);
        assert_eq!(baseline.len(), keys.len());
        for threads in [2, 3, 8] {
            assert_eq!(
                artifact.get_batch(&keys, threads),
                baseline,
                "threads={threads}"
            );
        }
        for (key, result) in keys.iter().zip(&baseline) {
            assert_eq!(*result, artifact.get(*key));
        }
    }

    #[test]
    fn unsorted_rows_are_refused_by_the_writer() {
        let mut rows = sample_rows();
        rows.swap(0, 3);
        let err = encode_artifact(&rows).expect_err("unsorted must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let dup = vec![rows[1], rows[1]];
        assert!(encode_artifact(&dup).is_err(), "duplicate keys must fail");
    }

    #[test]
    fn zero_entry_artifacts_fail_closed() {
        let path = temp_path("empty.art");
        write_artifact_atomic(&path, &[]).expect("write empty");
        let err = LabelArtifact::load(&path).expect_err("empty must be refused");
        assert!(
            matches!(err, LoadError::Corrupt { ref detail, .. } if detail.contains("zero labels")),
            "{err}"
        );
        assert!(err.is_invalid_data());
    }

    /// Payloads that pass the seal but break an invariant the lookup
    /// kernel relies on: each is refused with what broke. (The envelope's
    /// own damage matrix runs for every format in the core crate's
    /// `tests/formats.rs`.)
    #[test]
    fn structure_is_checked_behind_the_seal() {
        let file = encode_artifact(&sample_rows()).expect("encode");
        let n = sample_rows().len();
        let sec = Sections::for_counts(n, 3).expect("layout");
        let refused = |edit: &dyn Fn(&mut Vec<u8>), expect: &str| {
            let mut forged = file.clone();
            edit(&mut forged);
            LabelArtifact::FORMAT.seal(&mut forged);
            let err = LabelArtifact::validate(Path::new("x"), FileBytes::from(forged))
                .expect_err("forged artifact must be refused");
            assert!(
                matches!(&err, LoadError::Corrupt { detail, .. } if detail.contains(expect)),
                "expected {expect:?}, got {err}"
            );
        };
        let col = |at: usize| COLUMNS + at;
        refused(&|f| f.truncate(40), "shorter than the counts");
        refused(&|f| f[persist::HEADER_LEN] = 7, "implied by 7 entries");
        refused(&|f| f[COLUMNS - 8] = 9, "9 owners > 6 entries");
        refused(
            &|f| f[COLUMNS - 8..COLUMNS].fill(0xff),
            "owners > 6 entries",
        );
        refused(&|f| f[col(4)] = 1, "outside the packed");
        refused(
            &|f| f.copy_within(col(8)..col(16), col(0)),
            "not strictly ascending at row 1",
        );
        refused(&|f| f[col(sec.labels + 2)] = 2, "label byte 2 at row 2");
        refused(&|f| f[col(sec.labels + n)] = 1, "label byte 1 at row 6");
        refused(&|f| f[col(sec.owners + 12)] = 2, "owner index entry 1");
    }

    #[test]
    fn f64_columns_round_trip_bit_exactly() {
        let mut rows = sample_rows();
        rows[0].confidence = 0.1 + 0.2; // a value with a noisy decimal form
        rows[0].ratio = f64::MIN_POSITIVE;
        let path = temp_path("bits.art");
        write_artifact_atomic(&path, &rows).expect("write");
        let artifact = LabelArtifact::load(&path).expect("load");
        let back = artifact.row(0);
        assert_eq!(back.confidence.to_bits(), rows[0].confidence.to_bits());
        assert_eq!(back.ratio.to_bits(), rows[0].ratio.to_bits());
    }
}
