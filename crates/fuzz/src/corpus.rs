//! On-disk corpus layout and deterministic loading.
//!
//! The committed corpus lives at the repository root:
//!
//! ```text
//! fuzz/corpus/<target>/            seed + discovered inputs (replayed in CI)
//! fuzz/corpus/regressions/<target>/  minimized crash/oracle inputs (regression tests)
//! ```
//!
//! Files are loaded in sorted filename order so every run — local, CI,
//! replay — sees the same corpus sequence. New entries are named by
//! their FNV-1a content hash, so re-saving an existing input is a
//! no-op and the directory never accumulates duplicates.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Repository-root `fuzz/corpus` directory (the crate sits at
/// `crates/fuzz`, two levels below the root).
pub fn corpus_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fuzz/corpus")
}

/// Seed/discovered corpus directory for one target.
pub fn dir_for(target: &str) -> PathBuf {
    corpus_root().join(target)
}

/// Minimized regression-input directory for one target.
pub fn regressions_for(target: &str) -> PathBuf {
    corpus_root().join("regressions").join(target)
}

/// Load every file in `dir`, sorted by filename for determinism.
/// A missing directory is an empty corpus, not an error.
fn load_dir(dir: &Path) -> io::Result<Vec<Vec<u8>>> {
    let mut paths: Vec<PathBuf> = match fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|path| path.is_file())
            .collect(),
        Err(error) if error.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(error) => return Err(error),
    };
    paths.sort();
    paths.iter().map(fs::read).collect()
}

/// Seed inputs committed for `target`.
pub fn seeds(target: &str) -> io::Result<Vec<Vec<u8>>> {
    load_dir(&dir_for(target))
}

/// Minimized regression inputs committed for `target`.
pub fn regressions(target: &str) -> io::Result<Vec<Vec<u8>>> {
    load_dir(&regressions_for(target))
}

/// Write `input` into `dir` under its content-hash name. Returns the
/// path written (or already present).
pub fn save(dir: &Path, input: &[u8]) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{:016x}", crate::fnv64(input)));
    if !path.exists() {
        fs::write(&path, input)?;
    }
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_directory_is_an_empty_corpus() {
        assert_eq!(load_dir(Path::new("/nonexistent/wsg-fuzz")).unwrap(), Vec::<Vec<u8>>::new());
    }

    #[test]
    fn committed_seed_corpus_is_present_for_every_target() {
        for target in ["http", "xml", "envelope", "batch", "membership"] {
            let seeds = seeds(target).unwrap();
            assert!(!seeds.is_empty(), "no committed seeds for {target}");
        }
    }

    #[test]
    fn save_is_idempotent_and_content_addressed() {
        let dir = std::env::temp_dir().join("wsg-fuzz-corpus-test");
        let _ = fs::remove_dir_all(&dir);
        let a = save(&dir, b"hello").unwrap();
        let b = save(&dir, b"hello").unwrap();
        assert_eq!(a, b);
        assert_eq!(load_dir(&dir).unwrap(), vec![b"hello".to_vec()]);
        fs::remove_dir_all(&dir).unwrap();
    }
}
