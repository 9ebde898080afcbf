//! Sealed on-disk files: the one envelope every persisted format wears,
//! the one error loading any of them fails with, and the durable writes.
//!
//! The batch checkpoint (which is also the shard artifact), the watch
//! checkpoint and the label artifact are each a payload behind the same
//! 32-byte header, all integers little-endian:
//!
//! ```text
//!   0  magic        8 bytes, one per format
//!   8  version      u32
//!   12 reserved     u32 (zero)
//!   16 payload_len  u64
//!   24 checksum     u64 (the payload's Checksum)
//! ```
//!
//! A writer reserves [`HEADER_LEN`] bytes at the front of its buffer,
//! appends the payload and fills the header in place with [`Format::seal`];
//! [`write_atomic`] then puts the file on disk. A reader hands the file's
//! bytes to [`Format::decode`] ([`Format::load`] reads them first), which
//! checks every header field and passes the payload to the format's
//! decoder as a borrowed slice — so a memory-mapped file is never copied —
//! or fails with a typed [`LoadError`]. [`Checksum`] is the single
//! checksum the seal, the watch log's committed range and input-file
//! fingerprints use. [`append_at`] is the other durable write: it grows a
//! log that a sealed manifest commits a byte range of (the watch
//! checkpoint's segment log).

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Bytes per stripe: one little-endian u64 word for each of the four lanes.
const STRIPE: usize = 32;

// xxHash64's five primes.
const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;
const P4: u64 = 0x85eb_ca77_c2b2_ae63;
const P5: u64 = 0x27d4_eb2f_1656_67c5;

/// The running checksum of a byte stream: four independent u64 lanes, each
/// folding every fourth word of the 32-byte stripes with a multiply and a
/// rotate, so the lanes' multiplies overlap instead of waiting on one
/// another. [`finish`](Self::finish) folds in the lanes, the total length
/// and the tail of at most 31 bytes that fills no stripe, then avalanches.
/// The digest is xxHash64's with seed 0, and any split of the input into
/// [`update`](Self::update)s gives the same digest as one call.
///
/// Every step is a bijection of the lane or of the running hash, so a
/// change to one word always changes its lane; the tests show every single
/// and double bit flip in 64- and 100-byte inputs changing the digest.
#[derive(Debug, Clone)]
pub struct Checksum {
    lanes: [u64; 4],
    /// The bytes of a stripe not yet complete: the first `buffered` of these.
    stripe: [u8; STRIPE],
    buffered: usize,
    total: u64,
}

impl Default for Checksum {
    fn default() -> Self {
        Self::new()
    }
}

/// One lane step: mix the word `w` into `acc`.
#[inline(always)]
fn round(acc: u64, w: u64) -> u64 {
    acc.wrapping_add(w.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

impl Checksum {
    /// The state over no bytes.
    pub fn new() -> Self {
        Checksum {
            lanes: [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()],
            stripe: [0; STRIPE],
            buffered: 0,
            total: 0,
        }
    }

    /// Fold `bytes` in after everything folded so far.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.total = self.total.wrapping_add(bytes.len() as u64);
        if self.buffered > 0 {
            let take = (STRIPE - self.buffered).min(bytes.len());
            self.stripe[self.buffered..self.buffered + take].copy_from_slice(&bytes[..take]);
            self.buffered += take;
            bytes = &bytes[take..];
            if self.buffered < STRIPE {
                return;
            }
            let stripe = self.stripe;
            self.stripes(&stripe);
            self.buffered = 0;
        }
        let whole = bytes.len() - bytes.len() % STRIPE;
        self.stripes(&bytes[..whole]);
        let rest = &bytes[whole..];
        self.stripe[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// Fold whole stripes into the lanes.
    fn stripes(&mut self, bytes: &[u8]) {
        let [mut a, mut b, mut c, mut d] = self.lanes;
        for s in bytes.chunks_exact(STRIPE) {
            a = round(a, word(&s[0..8]));
            b = round(b, word(&s[8..16]));
            c = round(c, word(&s[16..24]));
            d = round(d, word(&s[24..32]));
        }
        self.lanes = [a, b, c, d];
    }

    /// The digest of everything folded so far; the state is unchanged, so
    /// more bytes can follow.
    pub fn finish(&self) -> u64 {
        let mut h = if self.total >= STRIPE as u64 {
            let [a, b, c, d] = self.lanes;
            let mut h = a
                .rotate_left(1)
                .wrapping_add(b.rotate_left(7))
                .wrapping_add(c.rotate_left(12))
                .wrapping_add(d.rotate_left(18));
            for lane in self.lanes {
                h = (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4);
            }
            h
        } else {
            P5
        };
        h = h.wrapping_add(self.total);
        let mut tail = &self.stripe[..self.buffered];
        while tail.len() >= 8 {
            h ^= round(0, word(tail));
            h = h.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
            tail = &tail[8..];
        }
        if tail.len() >= 4 {
            let w = u32::from_le_bytes(tail[..4].try_into().expect("4 bytes"));
            h ^= u64::from(w).wrapping_mul(P1);
            h = h.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
            tail = &tail[4..];
        }
        for &byte in tail {
            h ^= u64::from(byte).wrapping_mul(P5);
            h = h.rotate_left(11).wrapping_mul(P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

/// The [`Checksum`] digest of `bytes`.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut state = Checksum::new();
    state.update(bytes);
    state.finish()
}

/// Length of the envelope header every sealed file starts with.
pub const HEADER_LEN: usize = 32;

/// One sealed file format: what its header must say.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Format {
    /// First eight bytes of every file of this format.
    pub magic: [u8; 8],
    /// Layout version this build reads and writes; bump it on any layout
    /// change so an older or newer file is refused instead of misread.
    pub version: u32,
    /// What the file is, for error messages (`"checkpoint"`).
    pub name: &'static str,
}

impl Format {
    /// Fill in the header over the first [`HEADER_LEN`] bytes of `file`,
    /// sealing everything after them as the payload. Panics if `file` is
    /// shorter than the header (the writer did not reserve it).
    pub fn seal(&self, file: &mut [u8]) {
        let (header, payload) = file.split_at_mut(HEADER_LEN);
        header[..8].copy_from_slice(&self.magic);
        header[8..12].copy_from_slice(&self.version.to_le_bytes());
        header[12..16].fill(0);
        header[16..24].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        header[24..].copy_from_slice(&checksum(payload).to_le_bytes());
    }

    /// The header checks of [`decode`](Self::decode); returns the payload.
    fn open<'a>(&self, file: &'a [u8], path: &Path) -> Result<&'a [u8], LoadError> {
        if !file.starts_with(&self.magic) && !self.magic.starts_with(file) {
            return Err(LoadError::Foreign {
                path: path.to_path_buf(),
                format: self.name,
            });
        }
        if file.len() < HEADER_LEN {
            return Err(self.corrupt(
                path,
                format!(
                    "{} bytes, shorter than the {HEADER_LEN}-byte header",
                    file.len()
                ),
            ));
        }
        let (header, payload) = file.split_at(HEADER_LEN);
        let word = |at: usize| u64::from_le_bytes(header[at..at + 8].try_into().expect("8 bytes"));
        let version = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
        if version != self.version {
            return Err(LoadError::Version {
                path: path.to_path_buf(),
                format: self.name,
                found: version,
                expected: self.version,
            });
        }
        if header[12..16] != [0; 4] {
            return Err(self.corrupt(path, "nonzero reserved header word".into()));
        }
        if word(16) != payload.len() as u64 {
            return Err(self.corrupt(
                path,
                format!(
                    "payload length {} recorded, {} bytes present",
                    word(16),
                    payload.len()
                ),
            ));
        }
        let computed = checksum(payload);
        if word(24) != computed {
            return Err(self.corrupt(
                path,
                format!(
                    "payload checksum {:#018x} recorded, {computed:#018x} computed",
                    word(24)
                ),
            ));
        }
        Ok(payload)
    }

    /// Check `file`'s header — magic, version, reserved word, payload
    /// length, checksum, in that order — then decode the payload, borrowed,
    /// with `decode`, whose error text becomes [`LoadError::Corrupt`].
    /// `path` only names the file in errors. A proper prefix of the magic
    /// is a torn file ([`LoadError::Corrupt`]); any other start is
    /// [`LoadError::Foreign`].
    pub fn decode<T>(
        &self,
        file: &[u8],
        path: &Path,
        decode: impl FnOnce(&[u8]) -> Result<T, String>,
    ) -> Result<T, LoadError> {
        decode(self.open(file, path)?).map_err(|detail| self.corrupt(path, detail))
    }

    /// Read the file at `path` and [`decode`](Self::decode) it.
    pub fn load<T>(
        &self,
        path: &Path,
        decode: impl FnOnce(&[u8]) -> Result<T, String>,
    ) -> Result<T, LoadError> {
        let file = fs::read(path).map_err(|source| LoadError::io(path, source))?;
        self.decode(&file, path, decode)
    }

    /// A [`LoadError::Corrupt`] naming `path` as a file of this format —
    /// for damage a format finds beyond its own payload, such as in a file
    /// the payload commits.
    pub fn corrupt(&self, path: &Path, detail: String) -> LoadError {
        LoadError::Corrupt {
            path: path.to_path_buf(),
            format: self.name,
            detail,
        }
    }
}

/// Why loading a sealed file was refused. Damage of any kind is one of
/// these — never a panic, and never a partly loaded value.
#[derive(Debug)]
pub enum LoadError {
    /// The file could not be read at all (missing, permissions, I/O).
    Io {
        /// The file.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// The file does not start with the format's magic: it was written
    /// before the format existed (such as a JSON checkpoint) or is not a
    /// file of this kind at all. The remedy is to delete it.
    Foreign {
        /// The file.
        path: PathBuf,
        /// The format's name.
        format: &'static str,
    },
    /// The magic matches but the layout version is not this build's.
    Version {
        /// The file.
        path: PathBuf,
        /// The format's name.
        format: &'static str,
        /// The version recorded in the file.
        found: u32,
        /// The version this build reads and writes.
        expected: u32,
    },
    /// Truncated, torn, bit-flipped, or a payload that breaks the format's
    /// structure.
    Corrupt {
        /// The file.
        path: PathBuf,
        /// The format's name.
        format: &'static str,
        /// What exactly failed to validate.
        detail: String,
    },
}

impl LoadError {
    /// A [`LoadError::Io`] for `path`.
    pub fn io(path: &Path, source: io::Error) -> LoadError {
        LoadError::Io {
            path: path.to_path_buf(),
            source,
        }
    }

    /// Whether the file was read but its contents were refused — the
    /// cases a caller reports as a refused file rather than an I/O failure.
    pub fn is_invalid_data(&self) -> bool {
        !matches!(self, LoadError::Io { .. })
    }

    /// Whether the failure is that the file does not exist.
    pub fn is_not_found(&self) -> bool {
        matches!(self, LoadError::Io { source, .. } if source.kind() == io::ErrorKind::NotFound)
    }
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io { path, source } => write!(f, "{}: {source}", path.display()),
            LoadError::Foreign { path, format } => write!(
                f,
                "{}: not a {format} this build can read; it predates the binary \
                 {format} format (or is not a {format} at all): delete it",
                path.display()
            ),
            LoadError::Version {
                path,
                format,
                found,
                expected,
            } => write!(
                f,
                "{}: {format} version {found}, this build reads version {expected}",
                path.display()
            ),
            LoadError::Corrupt {
                path,
                format,
                detail,
            } => write!(
                f,
                "{}: corrupt or truncated {format} ({detail})",
                path.display()
            ),
        }
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<LoadError> for io::Error {
    fn from(e: LoadError) -> io::Error {
        match e {
            LoadError::Io { source, .. } => source,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// The temp file [`write_atomic`] stages `path`'s new contents in:
/// `<file name>.tmp` in the same directory, so the rename never crosses a
/// file system.
pub fn temp_path(path: &Path) -> PathBuf {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    path.with_file_name(format!("{name}.tmp"))
}

/// Replace `path` with `bytes` durably: write [`temp_path`], fsync it,
/// rename it over `path`, then fsync the parent directory. A crash at any
/// step leaves either the previous file or the new one, never a torn file;
/// a leftover temp file from an interrupted write is truncated and reused
/// by the next call.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = temp_path(path);
    {
        let mut file = File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    sync_parent_dir(path)
}

/// Durably write `bytes` into the file at `path` from offset `at`: cut the
/// file to `at` bytes — dropping whatever an interrupted earlier append left
/// past them — write `bytes`, and fsync. The first `at` bytes are never
/// rewritten, so a crash at any step leaves them followed by some prefix of
/// `bytes`. At offset 0 the file is created (or emptied) and its directory
/// fsynced as well; past 0 it must exist and hold at least `at` bytes.
pub fn append_at(path: &Path, at: u64, bytes: &[u8]) -> io::Result<()> {
    let mut file = OpenOptions::new().write(true).create(at == 0).open(path)?;
    let len = file.metadata()?.len();
    if len < at {
        return Err(io::Error::other(format!(
            "{len} bytes, fewer than the {at} to append after"
        )));
    }
    file.set_len(at)?;
    file.seek(SeekFrom::Start(at))?;
    file.write_all(bytes)?;
    file.sync_all()?;
    if at == 0 {
        sync_parent_dir(path)?;
    }
    Ok(())
}

/// Fsync the directory holding `path`, making a completed rename durable.
#[cfg(unix)]
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

/// Directories cannot be opened for fsync off unix; the rename is as
/// durable as the platform makes it.
#[cfg(not(unix))]
fn sync_parent_dir(_path: &Path) -> io::Result<()> {
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pinned digests: the empty input, one byte (tail only), and inputs
    /// one byte short of, exactly and one byte past a stripe. They are
    /// xxHash64's published values with seed 0 where one exists.
    #[test]
    fn checksum_pins_its_digests() {
        const TEXT: &[u8] = b"0123456789abcdefghijklmnopqrstuvwxyz";
        assert_eq!(checksum(b""), 0xef46_db37_51d8_e999);
        assert_eq!(checksum(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(checksum(b"abc"), 0x44bc_2cf5_ad77_0999);
        assert_eq!(checksum(&TEXT[..31]), 0x80ad_fc1d_4202_0f39);
        assert_eq!(checksum(&TEXT[..32]), 0xbf7c_9dbe_16b5_c6e2);
        assert_eq!(checksum(&TEXT[..33]), 0xe974_23e6_05e2_f3b4);
        assert_eq!(Checksum::default().finish(), checksum(b""));
    }

    /// Every single bit flip and every pair of bit flips changes the
    /// digest: over 64 bytes (two whole stripes) and over 100 (three
    /// stripes and a tail of a word, half a word and no bytes).
    #[test]
    fn every_single_and_double_bit_flip_changes_the_digest() {
        for len in [64usize, 100] {
            let buf: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let clean = checksum(&buf);
            let bits = len * 8;
            let mut flipped = buf.clone();
            for i in 0..bits {
                flipped[i / 8] ^= 1 << (i % 8);
                assert_ne!(checksum(&flipped), clean, "{len} bytes, bit {i}");
                for j in i + 1..bits {
                    flipped[j / 8] ^= 1 << (j % 8);
                    assert_ne!(checksum(&flipped), clean, "{len} bytes, bits {i} and {j}");
                    flipped[j / 8] ^= 1 << (j % 8);
                }
                flipped[i / 8] ^= 1 << (i % 8);
            }
        }
    }

    #[test]
    fn appending_a_zero_byte_changes_the_digest() {
        let mut bytes = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..=70 {
            assert!(seen.insert(checksum(&bytes)), "{} zero bytes", bytes.len());
            bytes.push(0);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// The state carries any split: updates over consecutive pieces,
        /// with a digest taken between them, equal one call over the whole.
        #[test]
        fn chained_updates_equal_one_call(
            bytes in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..300),
            cuts in proptest::collection::vec(0usize..300, 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(bytes.len())).collect();
            cuts.sort_unstable();
            let mut state = Checksum::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain([bytes.len()]) {
                state.update(&bytes[from..cut]);
                let _ = state.finish();
                from = cut;
            }
            proptest::prop_assert_eq!(state.finish(), checksum(&bytes));
        }
    }

    const TEST: Format = Format {
        magic: *b"BGPTESTF",
        version: 7,
        name: "test file",
    };

    /// The header layout is the documented one, byte for byte, and opening
    /// a sealed file hands back exactly the payload it was sealed over.
    #[test]
    fn seal_writes_the_documented_header_and_open_returns_the_payload() {
        let mut file = vec![0xee; HEADER_LEN];
        file.extend_from_slice(b"foobar");
        TEST.seal(&mut file);
        assert_eq!(&file[..8], b"BGPTESTF");
        assert_eq!(file[8..16], [7, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(file[16..24], 6u64.to_le_bytes());
        assert_eq!(file[24..32], 0xa2aa_05ed_9085_aaf9u64.to_le_bytes());
        assert_eq!(TEST.open(&file, Path::new("f")).unwrap(), b"foobar");

        let other = Format {
            magic: *b"BGPOTHER",
            ..TEST
        };
        let err = other.open(&file, Path::new("f")).unwrap_err();
        assert!(matches!(err, LoadError::Foreign { .. }), "{err}");
        assert!(err.to_string().contains("predates the binary"), "{err}");
        let err = TEST.open(b"BGPT", Path::new("f")).unwrap_err();
        assert!(matches!(err, LoadError::Corrupt { .. }), "{err}");
        assert!(
            err.to_string().contains("corrupt or truncated test file"),
            "{err}"
        );
    }

    #[test]
    fn load_maps_missing_files_and_decoder_errors() {
        let missing = std::env::temp_dir().join("bgp-persist-missing/none.bin");
        let err = TEST.load(&missing, |_| Ok(())).unwrap_err();
        assert!(err.is_not_found() && !err.is_invalid_data(), "{err}");
        assert_eq!(io::Error::from(err).kind(), io::ErrorKind::NotFound);

        let dir = std::env::temp_dir().join(format!("bgp-persist-load-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f.bin");
        let mut file = vec![0; HEADER_LEN + 3];
        TEST.seal(&mut file);
        fs::write(&path, &file).unwrap();
        let err = TEST
            .load(&path, |payload| {
                Err::<(), _>(format!("{} bytes", payload.len()))
            })
            .unwrap_err();
        assert!(err.is_invalid_data(), "{err}");
        assert!(err.to_string().ends_with("(3 bytes)"), "{err}");
        assert_eq!(io::Error::from(err).kind(), io::ErrorKind::InvalidData);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A crash can leave the temp file in two states: partly written
    /// (killed mid-write) or complete but never renamed (killed between
    /// fsync and rename). Neither may disturb the target, and the next
    /// write must go through regardless.
    #[test]
    fn interrupted_writes_leave_the_old_version_and_the_next_write_wins() {
        let dir = std::env::temp_dir().join(format!("bgp-persist-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.bin");
        let tmp = temp_path(&path);
        write_atomic(&path, b"version one").unwrap();

        fs::write(&tmp, b"versi").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"version one");
        write_atomic(&path, b"version two").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"version two");
        assert!(!tmp.exists());

        fs::write(&tmp, b"version three, never renamed").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"version two");
        write_atomic(&path, b"version four").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"version four");
        assert!(!tmp.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    /// A sealed test file over `payload`.
    fn sealed(payload: &[u8]) -> Vec<u8> {
        let mut file = vec![0; HEADER_LEN];
        file.extend_from_slice(payload);
        TEST.seal(&mut file);
        file
    }

    fn corrupt_detail(file: &[u8]) -> String {
        match TEST.open(file, Path::new("f")).unwrap_err() {
            LoadError::Corrupt { detail, .. } => detail,
            other => panic!("expected a corrupt-file error, got {other}"),
        }
    }

    #[test]
    fn another_version_is_refused_naming_both_versions() {
        let mut file = sealed(b"payload");
        file[8..12].copy_from_slice(&6u32.to_le_bytes());
        let err = TEST.open(&file, Path::new("old.bin")).unwrap_err();
        match &err {
            LoadError::Version {
                found, expected, ..
            } => assert_eq!((*found, *expected), (6, 7)),
            other => panic!("expected a version error, got {other}"),
        }
        assert!(err.is_invalid_data() && !err.is_not_found());
        assert_eq!(
            err.to_string(),
            "old.bin: test file version 6, this build reads version 7"
        );
    }

    #[test]
    fn a_nonzero_reserved_word_is_corrupt() {
        let mut file = sealed(b"payload");
        file[13] = 1;
        assert_eq!(corrupt_detail(&file), "nonzero reserved header word");
    }

    #[test]
    fn a_payload_longer_or_shorter_than_recorded_is_corrupt() {
        let file = sealed(b"payload");
        let mut longer = file.clone();
        longer.push(0);
        assert_eq!(
            corrupt_detail(&longer),
            "payload length 7 recorded, 8 bytes present"
        );
        assert_eq!(
            corrupt_detail(&file[..file.len() - 1]),
            "payload length 7 recorded, 6 bytes present"
        );
    }

    #[test]
    fn a_flipped_payload_bit_fails_the_checksum() {
        let file = sealed(b"payload");
        for at in HEADER_LEN..file.len() {
            let mut flipped = file.clone();
            flipped[at] ^= 0x10;
            let detail = corrupt_detail(&flipped);
            assert!(
                detail.starts_with("payload checksum"),
                "byte {at}: {detail}"
            );
        }
        assert_eq!(TEST.open(&file, Path::new("f")).unwrap(), b"payload");
    }

    #[test]
    fn headers_cut_short_are_torn_not_foreign() {
        let file = sealed(b"");
        for len in 0..HEADER_LEN {
            let detail = corrupt_detail(&file[..len]);
            assert_eq!(
                detail,
                format!("{len} bytes, shorter than the {HEADER_LEN}-byte header")
            );
        }
        assert_eq!(TEST.open(&file, Path::new("f")).unwrap(), b"");
    }

    #[test]
    fn only_io_errors_carry_a_source() {
        use std::error::Error;
        let io = LoadError::io(Path::new("f"), io::Error::other("disk on fire"));
        assert!(io.source().is_some());
        assert!(!io.is_invalid_data() && !io.is_not_found());
        assert_eq!(io.to_string(), "f: disk on fire");
        let corrupt = TEST.open(b"BGPTEST", Path::new("f")).unwrap_err();
        assert!(corrupt.source().is_none());
        let foreign = TEST.open(b"{\"json\": 1}", Path::new("f")).unwrap_err();
        assert!(matches!(foreign, LoadError::Foreign { .. }));
        assert!(foreign.source().is_none());
    }

    #[test]
    fn a_shorter_write_leaves_no_tail_of_the_longer_file() {
        let dir = std::env::temp_dir().join(format!("bgp-persist-shrink-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.bin");
        write_atomic(&path, &[7; 4096]).unwrap();
        write_atomic(&path, b"short").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"short");
        write_atomic(&path, b"").unwrap();
        assert!(fs::read(&path).unwrap().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    /// An append keeps every byte before its offset, drops what an
    /// interrupted append left past it, and refuses a file that lost bytes
    /// it was told are there; offset 0 starts the file over.
    #[test]
    fn append_at_keeps_the_prefix_and_drops_a_torn_tail() {
        let dir = std::env::temp_dir().join(format!("bgp-persist-append-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.log");
        let err = append_at(&path, 3, b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound, "{err}");
        append_at(&path, 0, b"one").unwrap();
        append_at(&path, 3, b"two").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"onetwo");

        let mut torn = fs::read(&path).unwrap();
        torn.extend_from_slice(b"thr");
        fs::write(&path, &torn).unwrap();
        append_at(&path, 6, b"three").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"onetwothree");

        let err = append_at(&path, 64, b"four").unwrap_err();
        assert!(
            err.to_string().contains("11 bytes, fewer than the 64"),
            "{err}"
        );
        assert_eq!(
            fs::read(&path).unwrap(),
            b"onetwothree",
            "refused, untouched"
        );
        append_at(&path, 0, b"anew").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"anew");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_bare_file_name_stages_and_syncs_in_the_current_directory() {
        assert_eq!(temp_path(Path::new("x.ckpt")), PathBuf::from("x.ckpt.tmp"));
        assert!(sync_parent_dir(Path::new("x.ckpt")).is_ok());
    }
}
