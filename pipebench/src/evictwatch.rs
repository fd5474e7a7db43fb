//! Outside-in observation of the daemon's eviction layer.
//!
//! `ServedStore` exposes no fault or rewrite counters, so the
//! benchmark derives them from what it can see: which cells a query's
//! search area covers (`CatalogStore::covering_cells`), which cells are
//! resident before the query (`stats().per_cell`), which cells the
//! known catalog populates, and whether the snapshot file was replaced
//! while the query ran (every eviction rewrites it by temp file and
//! rename, which gives the path a new inode).

use celeste::CellId;
use std::collections::BTreeSet;
use std::path::Path;

/// Whether a query must fault cells back in: some cell its search area
/// covers holds catalog entries but is not resident. `covering ==
/// None` is a whole-sky query, which covers every populated cell.
pub fn needs_fault(
    covering: Option<&[CellId]>,
    resident: &BTreeSet<CellId>,
    populated: &BTreeSet<CellId>,
) -> bool {
    match covering {
        Some(cells) => cells
            .iter()
            .any(|c| populated.contains(c) && !resident.contains(c)),
        None => populated.iter().any(|c| !resident.contains(c)),
    }
}

/// Identity of the file at a path: a replacement by rename changes the
/// inode; an in-place rewrite changes the size or modification time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileStamp {
    /// Inode number.
    pub ino: u64,
    /// Size in bytes.
    pub len: u64,
    /// Modification time, ns since the epoch.
    pub mtime_ns: i128,
}

impl FileStamp {
    /// The stamp of the file at `path`, `None` if there is none.
    pub fn of(path: &Path) -> Option<FileStamp> {
        use std::os::unix::fs::MetadataExt;
        let meta = std::fs::metadata(path).ok()?;
        Some(FileStamp {
            ino: meta.ino(),
            len: meta.len(),
            mtime_ns: i128::from(meta.mtime()) * 1_000_000_000 + i128::from(meta.mtime_nsec()),
        })
    }
}

/// Counts replacements of one file across successive observations.
#[derive(Debug, Clone, Default)]
pub struct RewriteCounter {
    last: Option<FileStamp>,
    /// Observed replacements so far.
    pub rewrites: u64,
}

impl RewriteCounter {
    /// Start from the file's current stamp.
    pub fn new(initial: Option<FileStamp>) -> RewriteCounter {
        RewriteCounter {
            last: initial,
            rewrites: 0,
        }
    }

    /// Record the file's stamp now; returns whether it was rewritten
    /// since the previous observation.
    pub fn observe(&mut self, now: Option<FileStamp>) -> bool {
        let changed = now.is_some() && now != self.last;
        if changed {
            self.rewrites += 1;
        }
        self.last = now;
        changed
    }
}
