//! Durable on-disk writes and the checksum every sealed file format uses.
//!
//! Checkpoints, shard artifacts and label artifacts all follow one
//! discipline: the new bytes go to `<path>.tmp`, which is fsynced, renamed
//! over `path`, and then the parent directory is fsynced so the rename
//! itself survives a power failure. [`write_atomic`] is the single
//! implementation of that sequence, and [`fnv1a`] the single FNV-1a 64
//! every format seals its payload with.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// FNV-1a 64 offset basis: the starting `hash` for [`fnv1a`].
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold `bytes` into a running FNV-1a 64 `hash` (start from
/// [`FNV_OFFSET`]; chaining calls equals one call over the concatenation).
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    hash
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

    #[test]
    fn fnv1a_matches_the_published_vectors_and_chains() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), FNV_OFFSET);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            fnv1a(FNV_OFFSET, b"foobar")
        );
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

    #[test]
    fn a_bare_file_name_stages_and_syncs_in_the_current_directory() {
        assert_eq!(temp_path(Path::new("x.ckpt")), PathBuf::from("x.ckpt.tmp"));
        assert!(sync_parent_dir(Path::new("x.ckpt")).is_ok());
    }
}
