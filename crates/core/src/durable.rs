//! Durable file replacement, and the one JSON checkpoint format every
//! checkpoint (crawl and monitor) is saved and loaded through.

use crate::{FlockError, Result};
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::io::Write;
use std::path::Path;

/// A checkpoint saved as JSON through [`save`] and read back through
/// [`load_if_exists`]; `NAME` says in errors which checkpoint failed.
pub trait JsonCheckpoint: Serialize + DeserializeOwned {
    const NAME: &'static str;
}

/// Save `value` as JSON at `path` through [`write_atomic`], so a crash
/// mid-save never leaves a torn or zero-length checkpoint.
pub fn save<T: JsonCheckpoint>(path: &Path, value: &T) -> Result<()> {
    let json = serde_json::to_string(value)
        .map_err(|e| FlockError::InvalidConfig(format!("serialize {}: {e}", T::NAME)))?;
    write_atomic(path, json.as_bytes())
}

/// Load the checkpoint [`save`] wrote at `path`; `None` when none exists
/// yet (the first run of a resumable job). An unreadable or corrupt file
/// is an error, classified as [`read_json_text`] and a failed parse are.
pub fn load_if_exists<T: JsonCheckpoint>(path: &Path) -> Result<Option<T>> {
    if !path.exists() {
        return Ok(None);
    }
    let json = read_json_text(path, T::NAME)?;
    serde_json::from_str(&json)
        .map(Some)
        .map_err(|e| FlockError::MalformedRecord(format!("deserialize {}: {e}", T::NAME)))
}

/// The text of the persisted JSON artifact `what` at `path`. A file that
/// cannot be read is an [`FlockError::InvalidConfig`]; bytes that are not
/// UTF-8 are a [`FlockError::MalformedRecord`], as JSON that fails to
/// parse is.
pub fn read_json_text(path: &Path, what: &str) -> Result<String> {
    let bytes = std::fs::read(path)
        .map_err(|e| FlockError::InvalidConfig(format!("read {what} {}: {e}", path.display())))?;
    String::from_utf8(bytes)
        .map_err(|e| FlockError::MalformedRecord(format!("deserialize {what}: {e}")))
}

/// Replace `path` with `bytes` atomically **and durably**: write a temp
/// file in the same directory, `fsync` the data, rename it over `path`,
/// then `fsync` the directory so the rename itself survives a power loss.
/// Without the syncs, rename-over-old could be reordered ahead of the data
/// write by the filesystem, leaving a zero-length or torn file after a
/// crash — the exact state a checkpoint exists to prevent. The temp name
/// (`.<name>.tmp.<pid>`) carries the process id, so two writers side by
/// side (or a crashed run's leftover) can never clobber each other's
/// in-flight write. A failed write removes its temp file.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<()> {
    let file_name = path
        .file_name()
        .ok_or_else(|| {
            FlockError::InvalidConfig(format!("path {} has no file name to write", path.display()))
        })?
        .to_string_lossy()
        .into_owned();
    let tmp = path.with_file_name(format!(".{file_name}.tmp.{}", std::process::id()));
    let err = |stage: &str, p: &Path, e: std::io::Error| {
        FlockError::InvalidConfig(format!("{stage} {}: {e}", p.display()))
    };
    let result = (|| {
        let mut f = std::fs::File::create(&tmp).map_err(|e| err("create", &tmp, e))?;
        f.write_all(bytes).map_err(|e| err("write", &tmp, e))?;
        f.sync_all().map_err(|e| err("fsync", &tmp, e))?;
        drop(f);
        std::fs::rename(&tmp, path).map_err(|e| {
            FlockError::InvalidConfig(format!(
                "rename {} -> {}: {e}",
                tmp.display(),
                path.display()
            ))
        })?;
        // Durability of the rename: fsync the parent directory (no-op on
        // platforms where directories cannot be opened, e.g. Windows —
        // there File::open on a dir fails and we skip).
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            if let Ok(dir) = std::fs::File::open(parent) {
                dir.sync_all().map_err(|e| err("fsync dir", parent, e))?;
            }
        }
        Ok(())
    })();
    if result.is_err() {
        // Best-effort cleanup so failed writes don't strand temp files.
        std::fs::remove_file(&tmp).ok();
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    impl JsonCheckpoint for u64 {
        const NAME: &'static str = "round counter";
    }

    fn scratch_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("flock_durable_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_leaves_no_temp_file_behind() {
        let dir = scratch_dir("leftovers");
        let path = dir.join("state.ckpt");
        write_atomic(&path, b"{\"round\":1}").unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        assert_eq!(std::fs::read(&path).unwrap(), b"{\"round\":1}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_overwrites_the_previous_file() {
        let dir = scratch_dir("overwrite");
        let path = dir.join("state.ckpt");
        write_atomic(&path, b"first, and longer").unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_killed_writers_temp_file_changes_nothing() {
        let dir = scratch_dir("stale");
        let path = dir.join("state.ckpt");
        save(&path, &1u64).unwrap();
        // A writer killed between its fsync and its rename leaves its
        // temp file, named with its own pid, beside the last good save.
        let stale = dir.join(format!(".state.ckpt.tmp.{}", std::process::id() + 1));
        std::fs::write(&stale, b"3").unwrap();
        assert_eq!(load_if_exists::<u64>(&path).unwrap(), Some(1));
        save(&path, &2u64).unwrap();
        assert_eq!(load_if_exists::<u64>(&path).unwrap(), Some(2));
        assert_eq!(std::fs::read(&stale).unwrap(), b"3");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_path_without_a_file_name_is_a_typed_error() {
        match write_atomic(Path::new("/"), b"x") {
            Err(FlockError::InvalidConfig(msg)) => assert!(msg.contains("no file name"), "{msg}"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }
}
