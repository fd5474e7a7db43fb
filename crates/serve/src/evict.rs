//! The daemon's memory policy: a [`CatalogStore`] wrapped with
//! snapshot-backed, cell-granular LRU eviction.
//!
//! With `max_resident_entries == 0` every query goes straight to the
//! store (fully concurrent, no extra locking). With a capacity set, a
//! query runs in three steps under one policy mutex:
//!
//! 1. **Fault-in** — the cells the query can reach (via
//!    [`CatalogStore::covering_cells`], which shares the cone's
//!    bounding-rect math with the search itself) are intersected with
//!    the spilled set and read back from the open, cell-indexed
//!    snapshot file with [`SnapshotFile::read_cells`] — one positioned
//!    read per cell, never the whole file; entries re-enter
//!    through [`CatalogStore::insert_if_absent`] so a fresher fit
//!    ingested since the spill is never clobbered.
//! 2. **Query** — the store answers exactly as it would in-process;
//!    the query's touch stamp marks its cells hottest.
//! 3. **Evict** — if residency exceeds capacity, the coldest cells
//!    (oldest last-touch first) are removed with
//!    [`CatalogStore::take_cell`]. [`CatalogStore::coldest_cells`]
//!    names them: it partially selects, from one unsorted scan of the
//!    shards, the shortest cold-first prefix whose entries cover the
//!    excess and sorts only that prefix — the same cells, in the same
//!    order, as ranking the whole per-cell table. Should a take come
//!    up short (entries moved out of the cell meanwhile), the
//!    next-coldest cells are taken until residency fits. When the
//!    file already holds every taken entry bit for bit in the cell it
//!    was taken from ([`SnapshotFile::holds`]) — a cell faulted in and
//!    not refitted since — nothing is written: a later fault-in reads
//!    back exactly what was taken. Otherwise (a refit ingested since the file was
//!    written, or a file grouped at another level) the snapshot is
//!    rewritten to cover resident ∪ taken ∪ previously-spilled before
//!    anything is forgotten. If that write fails, the taken entries go
//!    back into the store. Either way an entry is never only in memory
//!    *or* lost.
//!
//! The skip rests on comparing what was taken with the bytes a later
//! fault-in will read, not on version counters: an ingest racing
//! [`CatalogStore::take_cell`] lands either before the take (its entry
//! is taken and compared) or after it (the entry stays resident and
//! wins over the file's copy).
//!
//! Serializing capacity-bounded queries through one mutex is a
//! deliberate trade-off: it makes the fault-in/evict/query
//! interleaving trivially sound (no window where another connection's
//! eviction removes cells a query just faulted in). Measured, the
//! mutex is not what bounds throughput, but what runs under it: a
//! victim choice that ranked every resident cell took about half of
//! each bounded query, and a shared-read fast path for queries that
//! fault nothing gained nothing once victims came from a partial
//! selection. The unbounded configuration — the common case while a
//! catalog fits in memory — keeps the store's full lock-striped
//! concurrency.

use crate::snapshot::{Snapshot, SnapshotError, SnapshotFile};
use crate::ServeError;
use celeste_store::{CatalogQuery, CatalogStore, CatalogStoreStats, StoreConfig};
use celeste_survey::catalog::{Catalog, CatalogEntry};
use celeste_survey::skygeom::{CellId, SkyCoord};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

/// Eviction bookkeeping, all behind one mutex.
#[derive(Debug, Default)]
struct PolicyState {
    /// Cells whose entries live (only) in the snapshot file.
    spilled: BTreeSet<CellId>,
    /// The snapshot file, open and indexed by cell; `None` until one
    /// with one copy per id exists, and always for an unbounded store,
    /// which never reads the file after `open`. Every spilled cell's
    /// entries are in it.
    file: Option<SnapshotFile>,
}

impl PolicyState {
    /// The file's entries in `cells`.
    fn read<'c>(
        &self,
        cells: impl IntoIterator<Item = &'c CellId>,
    ) -> Result<Vec<CatalogEntry>, SnapshotError> {
        self.file
            .as_ref()
            .map_or(Ok(Vec::new()), |file| file.read_cells(cells))
    }

    /// Whether the file holds every victim's taken entries bit for bit
    /// in the victim's cell.
    fn holds(&self, victims: &[(CellId, Vec<CatalogEntry>)]) -> Result<bool, SnapshotError> {
        let Some(file) = &self.file else {
            return Ok(false);
        };
        for (cell, taken) in victims {
            if !file.holds(*cell, taken)? {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// A [`CatalogStore`] plus the daemon's persistence and memory
/// policy. All daemon reads and writes go through this type; a live
/// campaign may keep ingesting into [`ServedStore::store`]
/// concurrently.
pub struct ServedStore {
    store: CatalogStore,
    snapshot_path: Option<PathBuf>,
    capacity: usize,
    // lock-order: policy mutex is strictly outer to every store lock
    // (stripes, shards, cache); the store never calls back into it.
    state: Mutex<PolicyState>,
}

impl ServedStore {
    /// Build the store a daemon serves. If `snapshot_path` names an
    /// existing `SCST` file, its catalog is loaded (fingerprint
    /// verified) so the daemon answers instantly with zero refits. A
    /// nonzero `capacity` (max resident entries) requires a snapshot
    /// path — evicted cells must have somewhere to go.
    pub fn open(
        config: StoreConfig,
        snapshot_path: Option<PathBuf>,
        capacity: usize,
    ) -> Result<ServedStore, ServeError> {
        if capacity > 0 && snapshot_path.is_none() {
            return Err(ServeError::Config(
                "max_resident_entries requires a snapshot path to spill to".into(),
            ));
        }
        let store = CatalogStore::new(config);
        let mut file = None;
        if let Some(path) = &snapshot_path {
            if path.exists() {
                // Only a bounded store reads the file again, so only it
                // keeps the file open and indexed.
                let snap = if capacity > 0 {
                    let (snap, opened) = SnapshotFile::load(path)?;
                    file = Some(opened);
                    snap
                } else {
                    Snapshot::load(path)?
                };
                let stored: usize = snap.cells.iter().map(|(_, es)| es.len()).sum();
                for (_, entries) in snap.cells {
                    for e in entries {
                        store.insert(e);
                    }
                }
                // An id stored twice could fault back in as either
                // copy, so such a file is not kept: the first eviction
                // rewrites it, one copy per id. (A file grouped at
                // another level is kept: it holds none of our cells,
                // so the first eviction rewrites it at our level.)
                if store.len() != stored {
                    file = None;
                }
            }
        }
        let served = ServedStore {
            store,
            snapshot_path,
            capacity,
            state: Mutex::new(PolicyState {
                spilled: BTreeSet::new(),
                file,
            }),
        };
        if served.capacity > 0 {
            // lock-order: serve policy state (outer to store locks)
            let mut state = served.state.lock();
            served.enforce_capacity(&mut state)?;
        }
        Ok(served)
    }

    /// The underlying store — the ingest surface for
    /// `run_campaign_into_store` and friends.
    pub fn store(&self) -> &CatalogStore {
        &self.store
    }

    /// Max resident entries (0 = unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many cells currently live only in the snapshot file.
    pub fn spilled_cells(&self) -> usize {
        // lock-order: serve policy state (outer to store locks)
        self.state.lock().spilled.len()
    }

    /// Occupancy/traffic counters of the resident store (spilled
    /// cells are not resident and therefore not counted).
    pub fn stats(&self) -> CatalogStoreStats {
        self.store.stats()
    }

    /// Run a self-describing query with fault-in and eviction.
    pub fn query(&self, q: &CatalogQuery) -> Result<Vec<CatalogEntry>, ServeError> {
        self.run(q, |s| s.query(q))
    }

    /// Cone search (with separations) with fault-in and eviction.
    pub fn cone_search(
        &self,
        center: &SkyCoord,
        radius_arcsec: f64,
    ) -> Result<Vec<(CatalogEntry, f64)>, ServeError> {
        let coverage = CatalogQuery::Cone {
            center: *center,
            radius_arcsec,
        };
        self.run(&coverage, |s| s.cone_search(center, radius_arcsec))
    }

    /// The full catalog — resident entries plus everything spilled to
    /// the snapshot file, resident winning by id, ascending id order.
    pub fn catalog(&self) -> Result<Catalog, ServeError> {
        if self.capacity == 0 {
            return Ok(self.store.to_catalog());
        }
        // lock-order: serve policy state (outer to store locks)
        let state = self.state.lock();
        let mut by_id: BTreeMap<u64, CatalogEntry> = BTreeMap::new();
        for e in state.read(&state.spilled)? {
            by_id.insert(e.id, e);
        }
        for e in self.store.to_catalog().entries {
            by_id.insert(e.id, e);
        }
        Ok(Catalog::new(by_id.into_values().collect()))
    }

    /// Write a full snapshot now (resident ∪ spilled), atomically.
    /// No-op error if the store was opened without a snapshot path.
    pub fn snapshot(&self) -> Result<(), ServeError> {
        if self.snapshot_path.is_none() {
            return Err(ServeError::Config(
                "store was opened without a snapshot path".into(),
            ));
        }
        // lock-order: serve policy state (outer to store locks)
        let mut state = self.state.lock();
        self.rewrite_with(&mut state, &[])
    }

    fn run<T>(
        &self,
        coverage: &CatalogQuery,
        f: impl FnOnce(&CatalogStore) -> Result<T, celeste_store::StoreError>,
    ) -> Result<T, ServeError> {
        if self.capacity == 0 {
            // Unbounded: nothing is ever spilled, skip the policy
            // mutex entirely and keep the store's concurrency.
            return f(&self.store).map_err(ServeError::Query);
        }
        // lock-order: serve policy state (outer to store locks)
        let mut state = self.state.lock();
        let covering = self
            .store
            .covering_cells(coverage)
            .map_err(ServeError::Query)?;
        let wanted: BTreeSet<CellId> = match covering {
            None => state.spilled.clone(),
            Some(cells) if cells.iter().any(|c| state.spilled.contains(c)) => cells
                .into_iter()
                .filter(|c| state.spilled.contains(c))
                .collect(),
            Some(_) => BTreeSet::new(),
        };
        if !wanted.is_empty() {
            self.fault_in(&mut state, &wanted)?;
        }
        let out = f(&self.store).map_err(ServeError::Query)?;
        self.enforce_capacity(&mut state)?;
        Ok(out)
    }

    /// Reload `wanted` spilled cells from the snapshot file.
    fn fault_in(
        &self,
        state: &mut PolicyState,
        wanted: &BTreeSet<CellId>,
    ) -> Result<(), ServeError> {
        for e in state.read(wanted)? {
            self.store.insert_if_absent(e);
        }
        for c in wanted {
            state.spilled.remove(c);
        }
        Ok(())
    }

    /// Rewrite the snapshot to cover resident ∪ spilled (resident
    /// wins by id), plus the `taken` entries of evicted cells, which
    /// are out of the store and maybe not in the file (they win over
    /// the old file, lose to resident re-inserts, and a later take of
    /// an id wins over an earlier one).
    fn rewrite_with(
        &self,
        state: &mut PolicyState,
        taken: &[(CellId, Vec<CatalogEntry>)],
    ) -> Result<(), ServeError> {
        let path = self.snapshot_path.as_ref().expect("checked by caller");
        let mut by_id: BTreeMap<u64, CatalogEntry> = BTreeMap::new();
        for e in state.read(&state.spilled)? {
            by_id.insert(e.id, e);
        }
        for e in taken.iter().flat_map(|(_, entries)| entries) {
            by_id.insert(e.id, e.clone());
        }
        for e in self.store.to_catalog().entries {
            by_id.insert(e.id, e);
        }
        let snap = Snapshot::of_entries(by_id.into_values().collect(), self.store.level());
        if self.capacity > 0 {
            state.file = Some(SnapshotFile::save(path, &snap)?);
        } else {
            snap.save(path)?;
        }
        Ok(())
    }

    /// Evict coldest cells until residency fits the capacity. The
    /// taken entries stay in hand until the file holds them — already,
    /// bit for bit, or after a rewrite — so a concurrent insert into a
    /// victim cell (between choosing and taking it) can never be lost.
    /// If the file cannot be made to hold them, they go back into the
    /// store.
    fn enforce_capacity(&self, state: &mut PolicyState) -> Result<(), ServeError> {
        self.enforce_capacity_with(state, |cell| self.store.take_cell(cell))
    }

    /// [`ServedStore::enforce_capacity`] with `take` standing in for
    /// [`CatalogStore::take_cell`], so a test can make a victim come up
    /// short deterministically.
    fn enforce_capacity_with(
        &self,
        state: &mut PolicyState,
        mut take: impl FnMut(CellId) -> Vec<CatalogEntry>,
    ) -> Result<(), ServeError> {
        let mut resident = self.store.len();
        let mut victims: Vec<(CellId, Vec<CatalogEntry>)> = Vec::new();
        let mut newly_spilled = Vec::new();
        // The coldest cells that cover the excess; a take that comes up
        // short (entries moved out of the cell since it was counted)
        // leaves residency over capacity, so the next-coldest cells are
        // asked for until it fits or a round takes nothing.
        while self.capacity > 0 && resident > self.capacity {
            let took = victims.len();
            for occ in self.store.coldest_cells(resident - self.capacity) {
                if resident <= self.capacity {
                    break;
                }
                let taken = take(occ.cell);
                if taken.is_empty() {
                    continue;
                }
                resident -= taken.len().min(resident);
                if state.spilled.insert(occ.cell) {
                    newly_spilled.push(occ.cell);
                }
                victims.push((occ.cell, taken));
            }
            if victims.len() == took {
                break;
            }
        }
        if victims.is_empty() {
            return Ok(());
        }
        let spilled = match state.holds(&victims) {
            Ok(true) => Ok(()),
            Ok(false) => self.rewrite_with(state, &victims),
            Err(e) => Err(e.into()),
        };
        if spilled.is_err() {
            // Latest take first, so an id taken twice keeps its newer
            // fit; a cell spilled before this eviction stays spilled.
            for e in victims.into_iter().rev().flat_map(|(_, entries)| entries) {
                self.store.insert_if_absent(e);
            }
            for cell in newly_spilled {
                state.spilled.remove(&cell);
            }
        }
        spilled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use celeste_survey::catalog::{GalaxyShape, SourceType};
    use celeste_survey::codec::put_entry;
    use celeste_survey::skygeom::SkyRect;
    use std::os::unix::fs::MetadataExt;

    fn entry(id: u64) -> CatalogEntry {
        CatalogEntry {
            id,
            pos: SkyCoord::new(
                (id as f64 * 47.0) % 360.0,
                ((id as f64 * 13.0) % 160.0) - 80.0,
            ),
            source_type: if id.is_multiple_of(2) {
                SourceType::Star
            } else {
                SourceType::Galaxy
            },
            flux_r_nmgy: 1.0 + id as f64,
            colors: [0.0, 0.1, 0.2, 0.3],
            shape: GalaxyShape::round_disk(1.0),
        }
    }

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("celeste-evict-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("cat.scst")
    }

    /// Inode, length and modification time: a rewrite by temp file
    /// and rename changes the inode, one in place the length or mtime.
    fn stamp(path: &std::path::Path) -> (u64, u64, i64, i64) {
        let meta = std::fs::metadata(path).unwrap();
        (meta.ino(), meta.len(), meta.mtime(), meta.mtime_nsec())
    }

    /// Entries as their on-disk bytes, so equality is bit for bit.
    fn bits(entries: &[CatalogEntry]) -> Vec<u8> {
        let mut b = Vec::new();
        for e in entries {
            put_entry(&mut b, e);
        }
        b
    }

    /// A 20°-wide strip of sky, pole to pole, that moves with `probe`.
    fn strip(probe: u64) -> SkyRect {
        let ra = (probe as f64 * 23.0) % 340.0;
        SkyRect::new(ra, ra + 20.0, -80.0, 80.0)
    }

    fn rect_query(served: &ServedStore, rect: SkyRect) -> Result<Vec<CatalogEntry>, ServeError> {
        served.query(&CatalogQuery::Rect {
            rect,
            filter: Default::default(),
        })
    }

    #[test]
    fn capacity_requires_snapshot_path() {
        assert!(matches!(
            ServedStore::open(StoreConfig::default(), None, 10),
            Err(ServeError::Config(_))
        ));
    }

    #[test]
    fn unbounded_store_is_transparent() {
        let served = ServedStore::open(StoreConfig::default(), None, 0).unwrap();
        for id in 0..20 {
            served.store().insert(entry(id));
        }
        assert_eq!(served.catalog().unwrap().len(), 20);
        assert_eq!(served.spilled_cells(), 0);
        let all = served
            .query(&CatalogQuery::BrightestN {
                n: 100,
                within: None,
            })
            .unwrap();
        assert_eq!(all.len(), 20);
    }

    #[test]
    fn eviction_spills_and_queries_fault_back_in() {
        let path = tmp("spill");
        let served = ServedStore::open(StoreConfig::default(), Some(path.clone()), 8).unwrap();
        for id in 0..64 {
            served.store().insert(entry(id));
        }
        // Queries answer identically to a brute-force reference over
        // the same entries, no matter what is resident.
        let reference: Vec<CatalogEntry> = (0..64).map(entry).collect();
        for probe in 0..16u64 {
            let rect = SkyRect::new(
                (probe as f64 * 23.0) % 340.0,
                (probe as f64 * 23.0) % 340.0 + 20.0,
                -80.0,
                80.0,
            );
            let got = served
                .query(&CatalogQuery::Rect {
                    rect,
                    filter: Default::default(),
                })
                .unwrap();
            let mut want: Vec<CatalogEntry> = reference
                .iter()
                .filter(|e| rect.contains(&e.pos))
                .cloned()
                .collect();
            want.sort_by_key(|e| e.id);
            assert_eq!(got, want, "probe {probe}");
            assert!(
                served.stats().entries <= 8 || served.spilled_cells() == 0,
                "capacity enforced after each query"
            );
        }
        assert!(served.spilled_cells() > 0, "64 entries can't fit in 8");
        // Nothing was lost: the union is the full catalog.
        let cat = served.catalog().unwrap();
        assert_eq!(cat.len(), 64);
        for (got, want) in cat.entries.iter().zip(&reference) {
            assert_eq!(got.id, want.id);
            assert_eq!(got.flux_r_nmgy.to_bits(), want.flux_r_nmgy.to_bits());
        }
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn restart_from_snapshot_serves_identically() {
        let path = tmp("restart");
        {
            let served = ServedStore::open(StoreConfig::default(), Some(path.clone()), 0).unwrap();
            for id in 0..30 {
                served.store().insert(entry(id));
            }
            served.snapshot().unwrap();
        }
        let reborn = ServedStore::open(StoreConfig::default(), Some(path.clone()), 0).unwrap();
        assert_eq!(reborn.catalog().unwrap().len(), 30);
        assert_eq!(
            reborn.stats().regions_ingested,
            0,
            "restart must not refit anything"
        );
        let got = reborn
            .query(&CatalogQuery::BrightestN { n: 5, within: None })
            .unwrap();
        let ids: Vec<u64> = got.iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![29, 28, 27, 26, 25]);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn fault_in_never_clobbers_fresher_fits() {
        let path = tmp("fresher");
        let served = ServedStore::open(StoreConfig::default(), Some(path.clone()), 4).unwrap();
        for id in 0..32 {
            served.store().insert(entry(id));
        }
        // Force everything through an eviction cycle.
        served
            .query(&CatalogQuery::BrightestN { n: 1, within: None })
            .unwrap();
        assert!(served.spilled_cells() > 0);
        // A live campaign now re-fits source 3 with a new flux.
        let mut fresher = entry(3);
        fresher.flux_r_nmgy = 999.0;
        served.store().insert(fresher);
        // A whole-sky query faults every spilled cell back in; the
        // stale snapshot copy of 3 must not overwrite the new fit.
        let all = served
            .query(&CatalogQuery::BrightestN {
                n: 64,
                within: None,
            })
            .unwrap();
        assert_eq!(all[0].id, 3);
        assert_eq!(all[0].flux_r_nmgy, 999.0);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn clean_eviction_leaves_the_file_untouched() {
        let path = tmp("clean");
        let reference: Vec<CatalogEntry> = (0..64).map(entry).collect();
        let level = StoreConfig::default().level;
        Snapshot::of_entries(reference.clone(), level)
            .save(&path)
            .unwrap();
        let written = stamp(&path);
        // Opening over capacity already evicts, without a write.
        let served = ServedStore::open(StoreConfig::default(), Some(path.clone()), 8).unwrap();
        assert!(served.spilled_cells() > 0);
        assert_eq!(stamp(&path), written, "open must not rewrite");
        let mut faults = 0;
        for probe in 0..32u64 {
            let rect = strip(probe);
            let want: Vec<CatalogEntry> = reference
                .iter()
                .filter(|e| rect.contains(&e.pos))
                .cloned()
                .collect();
            if want.iter().any(|e| served.store().get(e.id).is_none()) {
                faults += 1;
            }
            assert_eq!(rect_query(&served, rect).unwrap(), want, "probe {probe}");
            assert!(served.store().len() <= 8, "capacity enforced");
            assert_eq!(stamp(&path), written, "probe {probe} rewrote the file");
        }
        // Every fault pushed the store over capacity, so evicted.
        assert!(faults >= 8, "only {faults} queries faulted");
        assert_eq!(bits(&served.catalog().unwrap().entries), bits(&reference));
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn a_refit_to_negative_zero_is_dirty() {
        let path = tmp("signed-zero");
        let mut init: Vec<CatalogEntry> = (0..64).map(entry).collect();
        init[3].flux_r_nmgy = 0.0;
        Snapshot::of_entries(init.clone(), StoreConfig::default().level)
            .save(&path)
            .unwrap();
        let written = stamp(&path);
        let served = ServedStore::open(StoreConfig::default(), Some(path.clone()), 8).unwrap();
        let mut refit = init[3].clone();
        refit.flux_r_nmgy = -0.0;
        assert_eq!(refit, init[3], "the refit is equal under PartialEq");
        served.store().insert(refit);
        // Query elsewhere until source 3's cell goes cold and is
        // evicted.
        let home = CellId::of(&init[3].pos, served.store().level());
        for probe in 0..64u64 {
            if served.store().get(3).is_none() {
                break;
            }
            let rect = strip(probe);
            if CellId::covering(&rect, home.level).contains(&home) {
                continue;
            }
            rect_query(&served, rect).unwrap();
        }
        assert!(served.store().get(3).is_none(), "3 was never evicted");
        assert_ne!(stamp(&path), written, "the -0.0 refit was not written");
        drop(served);
        let reborn = ServedStore::open(StoreConfig::default(), Some(path.clone()), 0).unwrap();
        let got = reborn.store().get(3).unwrap();
        assert_eq!(got.flux_r_nmgy.to_bits(), (-0.0f64).to_bits());
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn a_snapshot_at_another_level_is_rewritten_at_ours() {
        let path = tmp("relevel");
        let reference: Vec<CatalogEntry> = (0..64).map(entry).collect();
        let level = StoreConfig::default().level;
        Snapshot::of_entries(reference.clone(), level - 3)
            .save(&path)
            .unwrap();
        let served = ServedStore::open(StoreConfig::default(), Some(path.clone()), 8).unwrap();
        assert!(served.spilled_cells() > 0);
        assert_eq!(Snapshot::load(&path).unwrap().level, level);
        assert_eq!(bits(&served.catalog().unwrap().entries), bits(&reference));
        for probe in 0..8u64 {
            let rect = strip(probe);
            let want: Vec<CatalogEntry> = reference
                .iter()
                .filter(|e| rect.contains(&e.pos))
                .cloned()
                .collect();
            assert_eq!(rect_query(&served, rect).unwrap(), want, "probe {probe}");
        }
        assert_eq!(bits(&served.catalog().unwrap().entries), bits(&reference));
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn a_snapshot_storing_an_id_twice_is_rewritten_once_per_id() {
        let path = tmp("duplicate");
        let reference: Vec<CatalogEntry> = (0..64).map(entry).collect();
        let level = StoreConfig::default().level;
        let mut snap = Snapshot::of_entries(reference.clone(), level);
        // A stale copy of source 5 in an earlier cell than its own. The
        // fingerprint still holds: decoding keeps the last copy.
        let home = CellId::of(&reference[5].pos, level);
        let (earlier, _) = snap.cells[0].clone();
        assert!(earlier < home, "fixture needs a cell before 5's");
        let mut stale = reference[5].clone();
        stale.flux_r_nmgy = -7.0;
        snap.cells[0].1.push(stale);
        snap.save(&path).unwrap();
        assert_eq!(
            bits(&Snapshot::load(&path).unwrap().entries()),
            bits(&reference)
        );
        let served = ServedStore::open(StoreConfig::default(), Some(path.clone()), 8).unwrap();
        assert!(served.spilled_cells() > 0);
        assert_eq!(
            Snapshot::load(&path)
                .unwrap()
                .cells
                .iter()
                .map(|(_, es)| es.len())
                .sum::<usize>(),
            64,
            "the first eviction rewrites one copy per id"
        );
        // Fault every cell back in, in ascending cell order.
        let all = served
            .query(&CatalogQuery::BrightestN {
                n: 64,
                within: None,
            })
            .unwrap();
        assert_eq!(all.len(), 64);
        assert_eq!(bits(&served.catalog().unwrap().entries), bits(&reference));
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn a_short_take_keeps_evicting_until_the_store_fits() {
        let path = tmp("short-take");
        let config = StoreConfig {
            level: 2,
            ..StoreConfig::default()
        };
        let reference: Vec<CatalogEntry> = (0..120).map(entry).collect();
        // A capacity the three coldest cells cover exactly, so one
        // entry short of them is over capacity.
        let scratch = CatalogStore::new(config);
        for e in &reference {
            scratch.insert(e.clone());
        }
        let order = scratch.coldest_cells(usize::MAX);
        assert!(
            order[0].entries > 1,
            "fixture: the first victim must hold 2+"
        );
        let planned: usize = order[..3].iter().map(|o| o.entries).sum();
        let capacity = reference.len() - planned;
        let served = ServedStore::open(config, Some(path.clone()), capacity).unwrap();
        for e in &reference {
            served.store().insert(e.clone());
        }
        assert_eq!(served.store().coldest_cells(planned), order[..3]);
        // The first victim yields one entry: the rest moved back in
        // before the take reached them.
        let mut taken_cells = Vec::new();
        served
            .enforce_capacity_with(&mut served.state.lock(), |cell| {
                let mut taken = served.store().take_cell(cell);
                if taken_cells.is_empty() {
                    for e in taken.drain(1..) {
                        served.store().insert(e);
                    }
                }
                taken_cells.push(cell);
                taken
            })
            .unwrap();
        assert!(taken_cells.len() > 3, "the shortfall was not made up");
        assert!(served.store().len() <= capacity, "left over capacity");
        assert_eq!(bits(&served.catalog().unwrap().entries), bits(&reference));
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn a_failed_spill_keeps_every_entry() {
        let path = tmp("unwritable");
        let mut want: Vec<CatalogEntry> = (0..64).map(entry).collect();
        Snapshot::of_entries(want.clone(), StoreConfig::default().level)
            .save(&path)
            .unwrap();
        let served = ServedStore::open(StoreConfig::default(), Some(path.clone()), 8).unwrap();
        assert!(served.spilled_cells() > 0);
        // Refit everything, so whatever is evicted next must be
        // written, and make that write fail (a directory in the temp
        // file's place fails even for root).
        for e in &mut want {
            e.flux_r_nmgy += 0.5;
            served.store().insert(e.clone());
        }
        let blocker = path.with_file_name("cat.scst.tmp");
        std::fs::create_dir(&blocker).unwrap();
        let err = rect_query(&served, strip(0)).unwrap_err();
        assert!(
            matches!(err, ServeError::Snapshot(SnapshotError::Io(_))),
            "{err}"
        );
        assert_eq!(served.store().len(), 64, "taken entries are back");
        assert_eq!(bits(&served.catalog().unwrap().entries), bits(&want));
        // Once the file can be written, eviction goes ahead.
        std::fs::remove_dir(&blocker).unwrap();
        rect_query(&served, strip(0)).unwrap();
        assert!(served.store().len() <= 8);
        assert_eq!(bits(&served.catalog().unwrap().entries), bits(&want));
        drop(served);
        let reborn = ServedStore::open(StoreConfig::default(), Some(path.clone()), 0).unwrap();
        assert_eq!(bits(&reborn.catalog().unwrap().entries), bits(&want));
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }
}
