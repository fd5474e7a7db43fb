//! `SCST` v1 — cell-grouped catalog snapshots.
//!
//! A daemon periodically freezes its
//! [`CatalogStore`](celeste_store::CatalogStore) to one file so
//! a restart serves the full catalog instantly, with zero refits, and
//! so cold cells can be evicted from memory and faulted back in on
//! demand. Format (little-endian, read through the checked
//! `celeste_survey::codec::Reader` like every other binary format):
//!
//! ```text
//! magic "SCST" | version u16 | fingerprint u64 | level u8 | n_cells u32
//! per cell: level u8 | ix u32 | iy u32 | n_entries u32 | n × entry
//! ```
//!
//! Entries use the fixed-width 97-byte layout of
//! `celeste_survey::codec` ([`ENTRY_BYTES`]) that SCAT and SCQP
//! share, so a cell's place in the file follows from the counts before
//! it. [`SnapshotFile`] keeps a snapshot open with an index of every
//! cell's byte offset and entry count, built by the same cell walk as
//! [`Snapshot::decode`] over bytes already in memory (the bytes just
//! loaded, or just encoded). A partial read — the eviction fault-in —
//! then costs one positioned read (`pread`) per wanted cell,
//! `13 + n × 97` bytes, never a read of the whole file; the cell's 13-byte header is
//! checked against the index, so a file changed under the index is a
//! typed [`SnapshotError::Malformed`], not a wrong cell. The
//! fingerprint is [`catalog_content_hash`] over all entries in
//! ascending-id order — a full [`Snapshot::load`] recomputes and
//! verifies it, so bit rot surfaces as a typed
//! [`SnapshotError::FingerprintMismatch`], never a silently wrong
//! catalog; a partial read cannot verify it (that would read the whole
//! file) and returns the cells' entries as they are on disk. Writes
//! go through `codec::write_atomic` (`path` + `.tmp`, then rename), so
//! a crash mid-write leaves the previous snapshot intact. Parameters
//! are stored bit-exactly (`f64` bits pass through unchanged), so a
//! restarted daemon answers queries bit-identically to the one that
//! wrote the file.

use bytes::BufMut;
use celeste_store::catalog_content_hash;
use celeste_survey::catalog::{Catalog, CatalogEntry};
use celeste_survey::codec::{
    put_entry, put_header, write_atomic, CodecError, Reader, Version, ENTRY_BYTES,
};
use celeste_survey::skygeom::CellId;
use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::io::Read;
use std::os::unix::fs::FileExt;
use std::path::Path;

/// Snapshot file magic.
pub const MAGIC: &[u8; 4] = b"SCST";
/// Snapshot format version.
pub const VERSION: u16 = 1;
/// Bytes before the first cell: magic, version, fingerprint, level and
/// cell count.
const HEADER_BYTES: usize = 4 + 2 + 8 + 1 + 4;
/// A cell's header: level, ix, iy and entry count.
const CELL_HEADER_BYTES: usize = 1 + 4 + 4 + 4;

/// Errors reading or writing a snapshot file.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem I/O failed.
    Io(std::io::Error),
    /// The file is not a snapshot, or is truncated/corrupt.
    Malformed(String),
    /// The decoded entries hash differently than the header claims —
    /// the file was corrupted after it was written.
    FingerprintMismatch {
        /// Fingerprint stored in the header.
        found: u64,
        /// Fingerprint of the decoded content.
        expected: u64,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O failed: {e}"),
            SnapshotError::Malformed(m) => write!(f, "malformed snapshot: {m}"),
            SnapshotError::FingerprintMismatch { found, expected } => write!(
                f,
                "snapshot content does not match its fingerprint \
                 (header {found:#018x}, content {expected:#018x})"
            ),
        }
    }
}

impl From<CodecError> for SnapshotError {
    fn from(e: CodecError) -> Self {
        SnapshotError::Malformed(e.to_string())
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// A decoded (or about-to-be-encoded) catalog snapshot: entries
/// grouped by the sky cell they live in at `level`.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Cell refinement level the grouping used.
    pub level: u8,
    /// [`catalog_content_hash`] over all entries, ascending id.
    pub fingerprint: u64,
    /// Cells in ascending [`CellId`] order; entries within a cell in
    /// ascending id order.
    pub cells: Vec<(CellId, Vec<CatalogEntry>)>,
}

impl Snapshot {
    /// Group `entries` into cells at `level`, deduplicating by id
    /// (last write wins) and ordering ascending — the same
    /// normalization [`celeste_store::CatalogStore::to_catalog`]
    /// applies, so the fingerprint is deterministic regardless of input
    /// order.
    pub fn of_entries(entries: Vec<CatalogEntry>, level: u8) -> Snapshot {
        let mut by_id: BTreeMap<u64, CatalogEntry> = BTreeMap::new();
        for e in entries {
            by_id.insert(e.id, e);
        }
        let catalog = Catalog::new(by_id.into_values().collect());
        let fingerprint = catalog_content_hash(&catalog);
        let mut cells: BTreeMap<CellId, Vec<CatalogEntry>> = BTreeMap::new();
        for e in catalog.entries {
            cells.entry(CellId::of(&e.pos, level)).or_default().push(e);
        }
        Snapshot {
            level,
            fingerprint,
            cells: cells.into_iter().collect(),
        }
    }

    /// Every entry across all cells, ascending id.
    pub fn entries(&self) -> Vec<CatalogEntry> {
        let mut by_id: BTreeMap<u64, CatalogEntry> = BTreeMap::new();
        for (_, cell) in &self.cells {
            for e in cell {
                by_id.insert(e.id, e.clone());
            }
        }
        by_id.into_values().collect()
    }

    /// Serialize to the `SCST` byte format.
    pub fn encode(&self) -> Vec<u8> {
        let n_entries: usize = self.cells.iter().map(|(_, c)| c.len()).sum();
        let mut b = Vec::with_capacity(
            HEADER_BYTES + self.cells.len() * CELL_HEADER_BYTES + n_entries * ENTRY_BYTES,
        );
        put_header(&mut b, MAGIC, Version::U16(VERSION));
        b.put_u64_le(self.fingerprint);
        b.put_u8(self.level);
        b.put_u32_le(self.cells.len() as u32);
        for (cell, entries) in &self.cells {
            b.put_u8(cell.level);
            b.put_u32_le(cell.ix);
            b.put_u32_le(cell.iy);
            b.put_u32_le(entries.len() as u32);
            for e in entries {
                put_entry(&mut b, e);
            }
        }
        b
    }

    /// Decode an `SCST` buffer and verify its fingerprint.
    pub fn decode(buf: &[u8]) -> Result<Snapshot, SnapshotError> {
        let mut cells = Vec::new();
        let (fingerprint, level) = Snapshot::walk(buf, |cell, _, n, mut body| {
            cells.push((cell, body.entries(n)?));
            Ok(())
        })?;
        let snap = Snapshot {
            level,
            fingerprint,
            cells,
        };
        let expected = catalog_content_hash(&Catalog::new(snap.entries()));
        if snap.fingerprint != expected {
            return Err(SnapshotError::FingerprintMismatch {
                found: snap.fingerprint,
                expected,
            });
        }
        Ok(snap)
    }

    /// The one cell walk behind [`Snapshot::decode`] and the
    /// [`SnapshotFile`] index: check the header and every cell's
    /// structure, and hand `visit` each cell's id, the byte offset of
    /// its header, its entry count and a reader over exactly its
    /// entries (one length check per cell); a body `visit` does not
    /// read is skipped in O(1). Returns the stored fingerprint (not
    /// verified here) and level.
    fn walk<'a>(
        buf: &'a [u8],
        mut visit: impl FnMut(CellId, u64, usize, Reader<'a>) -> Result<(), CodecError>,
    ) -> Result<(u64, u8), CodecError> {
        let mut r = Reader::open(buf, MAGIC, Version::U16(VERSION))?;
        let fingerprint = r.u64()?;
        let level = r.u8()?;
        let n_cells = r.u32()? as usize;
        let mut offset = HEADER_BYTES;
        for _ in 0..n_cells {
            let cell = CellId {
                level: r.u8()?,
                ix: r.u32()?,
                iy: r.u32()?,
            };
            let n_entries = r.u32()? as usize;
            let body = r.array(n_entries, ENTRY_BYTES, "cell entries")?;
            visit(cell, offset as u64, n_entries, body)?;
            // Cannot overflow: the body just fit in `buf`.
            offset += CELL_HEADER_BYTES + n_entries * ENTRY_BYTES;
        }
        r.finish()?;
        Ok((fingerprint, level))
    }

    /// Atomically write to `path` (see [`write_atomic`]).
    pub fn save(&self, path: &Path) -> Result<(), SnapshotError> {
        write_atomic(path, &self.encode()).map_err(SnapshotError::Io)
    }

    /// Load and fingerprint-verify a full snapshot from `path`.
    pub fn load(path: &Path) -> Result<Snapshot, SnapshotError> {
        let bytes = std::fs::read(path).map_err(SnapshotError::Io)?;
        Snapshot::decode(&bytes)
    }
}

/// Where one cell sits in a snapshot file: the byte offset of its
/// header and how many entries follow it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CellSpan {
    offset: u64,
    n: usize,
}

/// An open snapshot file and an index of where each of its cells sits,
/// so single cells are read by one positioned read each, never by
/// reading the whole file. Positioned reads share no file cursor, so
/// concurrent readers cannot disturb each other. The index is built
/// from the bytes the file was loaded from or written with, so
/// building it costs no read.
#[derive(Debug)]
pub struct SnapshotFile {
    file: File,
    cells: BTreeMap<CellId, CellSpan>,
}

impl SnapshotFile {
    /// Load and fingerprint-verify the snapshot at `path` with one read
    /// of the file, index those bytes and keep the file open.
    pub fn load(path: &Path) -> Result<(Snapshot, SnapshotFile), SnapshotError> {
        let mut file = File::open(path).map_err(SnapshotError::Io)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(SnapshotError::Io)?;
        let snap = Snapshot::decode(&bytes)?;
        Ok((snap, SnapshotFile::index(file, &bytes)?))
    }

    /// Atomically write `snap` to `path` (see [`write_atomic`]), index
    /// the bytes just encoded and open the file they were written to.
    pub fn save(path: &Path, snap: &Snapshot) -> Result<SnapshotFile, SnapshotError> {
        let bytes = snap.encode();
        write_atomic(path, &bytes).map_err(SnapshotError::Io)?;
        let file = File::open(path).map_err(SnapshotError::Io)?;
        SnapshotFile::index(file, &bytes)
    }

    /// `file`, whose content is `bytes`, with its cell index.
    fn index(file: File, bytes: &[u8]) -> Result<SnapshotFile, SnapshotError> {
        let mut cells = BTreeMap::new();
        Snapshot::walk(bytes, |cell, offset, n, _| {
            cells.insert(cell, CellSpan { offset, n });
            Ok(())
        })?;
        Ok(SnapshotFile { file, cells })
    }

    /// Read `cell` (one `read_exact_at` of its header and entries) into
    /// `buf`, check its header against the index and return its
    /// `n × ENTRY_BYTES` entry bytes; a cell the file does not hold has
    /// none.
    fn read_cell<'b>(&self, cell: CellId, buf: &'b mut Vec<u8>) -> Result<&'b [u8], SnapshotError> {
        let Some(&CellSpan { offset, n }) = self.cells.get(&cell) else {
            return Ok(&[]);
        };
        buf.resize(CELL_HEADER_BYTES + n * ENTRY_BYTES, 0);
        self.file
            .read_exact_at(buf, offset)
            .map_err(SnapshotError::Io)?;
        let mut r = Reader::new(buf);
        let found = CellId {
            level: r.u8()?,
            ix: r.u32()?,
            iy: r.u32()?,
        };
        if found != cell || r.u32()? as usize != n {
            return Err(SnapshotError::Malformed(format!(
                "cell header at byte {offset} disagrees with the index"
            )));
        }
        Ok(&buf[CELL_HEADER_BYTES..])
    }

    /// The entries of `cells`, cell by cell in file order within each
    /// cell; cells the file does not hold contribute none. Structural
    /// errors are typed; the whole-file fingerprint is not checked.
    pub fn read_cells<'c>(
        &self,
        cells: impl IntoIterator<Item = &'c CellId>,
    ) -> Result<Vec<CatalogEntry>, SnapshotError> {
        let (mut buf, mut out) = (Vec::new(), Vec::new());
        for &cell in cells {
            let body = self.read_cell(cell, &mut buf)?;
            let n = body.len() / ENTRY_BYTES;
            Reader::new(body).items_into(
                &mut out,
                n,
                ENTRY_BYTES,
                "cell entries",
                Reader::entry,
            )?;
        }
        Ok(out)
    }

    /// Whether `cell` holds every one of `entries` bit for bit: the
    /// file's first entry with each one's id in that cell — the one a
    /// fault-in of the cell restores — is exactly the 97 bytes
    /// [`put_entry`] writes for it.
    pub fn holds(&self, cell: CellId, entries: &[CatalogEntry]) -> Result<bool, SnapshotError> {
        let mut buf = Vec::new();
        let (records, _) = self.read_cell(cell, &mut buf)?.as_chunks::<ENTRY_BYTES>();
        let mut on_file = HashMap::with_capacity(records.len());
        for record in records {
            on_file.entry(Reader::new(record).u64()?).or_insert(record);
        }
        let mut mine = Vec::with_capacity(ENTRY_BYTES);
        Ok(entries.iter().all(|e| {
            mine.clear();
            put_entry(&mut mine, e);
            on_file
                .get(&e.id)
                .is_some_and(|record| record[..] == mine[..])
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use celeste_survey::catalog::{GalaxyShape, SourceType};
    use celeste_survey::skygeom::SkyCoord;

    fn entry(id: u64) -> CatalogEntry {
        CatalogEntry {
            id,
            pos: SkyCoord::new(
                (id as f64 * 61.3) % 360.0,
                ((id as f64 * 17.9) % 160.0) - 80.0,
            ),
            source_type: if id.is_multiple_of(3) {
                SourceType::Galaxy
            } else {
                SourceType::Star
            },
            flux_r_nmgy: 0.25 * id as f64,
            colors: [0.1, 0.2, -0.3, 0.4],
            shape: GalaxyShape::round_disk(1.0 + id as f64 * 0.01),
        }
    }

    #[test]
    fn roundtrips_bit_exactly_and_guards_fingerprint() {
        let snap = Snapshot::of_entries((0..50).map(entry).collect(), 10);
        let bytes = snap.encode();
        let decoded = Snapshot::decode(&bytes).unwrap();
        assert_eq!(decoded, snap);
        for (a, b) in decoded.entries().iter().zip(snap.entries()) {
            assert_eq!(a.pos.ra.to_bits(), b.pos.ra.to_bits());
            assert_eq!(a.flux_r_nmgy.to_bits(), b.flux_r_nmgy.to_bits());
        }
        // Flip one flux bit deep in a cell body: structure still
        // parses, fingerprint catches it.
        let mut corrupt = bytes.clone();
        let off = bytes.len() - 40;
        corrupt[off] ^= 1;
        assert!(matches!(
            Snapshot::decode(&corrupt),
            Err(SnapshotError::FingerprintMismatch { .. }) | Err(SnapshotError::Malformed(_))
        ));
    }

    #[test]
    fn partial_load_skips_unwanted_cells() {
        let dir = std::env::temp_dir().join(format!("celeste-scst-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cat.scst");
        let snap = Snapshot::of_entries((0..80).map(entry).collect(), 10);
        assert!(snap.cells.len() > 2, "fixture must span several cells");
        let saved = SnapshotFile::save(&path, &snap).unwrap();
        let (loaded, reopened) = SnapshotFile::load(&path).unwrap();
        assert_eq!(loaded, snap);
        assert_eq!(Snapshot::load(&path).unwrap(), snap);

        // Both indexes (of the bytes written, of the bytes read) find
        // the same cells; a cell the file lacks reads as empty.
        let absent = CellId {
            level: 10,
            ix: u32::MAX,
            iy: 0,
        };
        let wanted: Vec<CellId> = snap
            .cells
            .iter()
            .skip(1)
            .step_by(2)
            .map(|(c, _)| *c)
            .collect();
        let want: Vec<CatalogEntry> = snap
            .cells
            .iter()
            .skip(1)
            .step_by(2)
            .flat_map(|(_, es)| es.clone())
            .collect();
        for file in [&saved, &reopened] {
            assert_eq!(file.read_cells(&wanted).unwrap(), want);
            assert!(file.read_cells(&[absent]).unwrap().is_empty());
            let (cell, entries) = &snap.cells[1];
            assert!(file.holds(*cell, entries).unwrap());
            assert!(file.holds(*cell, &entries[1..]).unwrap());
            assert!(!file.holds(absent, entries).unwrap());
            // One changed bit is not held; nor is a zero flux of the
            // other sign, though it compares equal.
            let mut moved = entries[0].clone();
            moved.flux_r_nmgy = f64::from_bits(moved.flux_r_nmgy.to_bits() ^ 1);
            assert!(!file.holds(*cell, &[moved]).unwrap());
            let zero = entry(0);
            assert_eq!(zero.flux_r_nmgy.to_bits(), 0);
            let mut negative = zero.clone();
            negative.flux_r_nmgy = -0.0;
            assert_eq!(negative, zero);
            let home = CellId::of(&zero.pos, 10);
            assert!(file.holds(home, &[zero]).unwrap());
            assert!(!file.holds(home, &[negative]).unwrap());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_buffers_are_typed_errors() {
        assert!(matches!(
            Snapshot::decode(b"nope"),
            Err(SnapshotError::Malformed(_))
        ));
        let good = Snapshot::of_entries((0..10).map(entry).collect(), 10).encode();
        assert!(matches!(
            Snapshot::decode(&good[..good.len() - 5]),
            Err(SnapshotError::Malformed(_))
        ));
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            Snapshot::decode(&bad_magic),
            Err(SnapshotError::Malformed(_))
        ));
    }
}
