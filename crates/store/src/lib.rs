//! Sky-sharded catalog store: a concurrently queryable view of
//! campaign results (ROADMAP "catalog service" item).
//!
//! [`CatalogStore`] is a hierarchical sky index over the
//! [`CellId`] grid from `celeste-survey`: every fitted
//! [`CatalogEntry`] lives in the level-`L` cell containing its
//! position, cells are striped across a fixed set of reader/writer
//! locks, and an id index tracks which cell currently holds each
//! source. One campaign thread can stream [`RegionResult`]s into the
//! store while any number of reader threads serve cone searches,
//! rect/band filters, and brightest-N queries.
//!
//! # Lifecycle and invariants
//!
//! The store moves through three phases, none of which require
//! exclusive access to the whole structure:
//!
//! 1. **Ingest** — [`CatalogStore::ingest`] upserts every source of a
//!    region result. Within one campaign stage, region tasks own
//!    disjoint source sets, so concurrent ingests never race on an
//!    id; across stages the later (shifted, stage-1) fit of a source
//!    overwrites its stage-0 entry, which is exactly the batch
//!    campaign's "last write wins" PGAS semantics. Ingesting a
//!    campaign's streamed results therefore yields a store whose
//!    [`CatalogStore::to_catalog`] is bit-identical to the batch
//!    output catalog, at any pool width.
//! 2. **Query** — readers lock only the shards their covering cells
//!    hash to, never the id index. Each query's predicate (cone,
//!    rect + filter, brightest-N window) runs in place on the entries
//!    under the shard's read lock, and only the entries that pass are
//!    copied out; brightest-N keeps at most `2n` copies at a time.
//!    Every query observes a consistent snapshot of each *shard*; a
//!    source concurrently moving between cells (a refit that shifted
//!    its position across a cell boundary) may transiently be seen in
//!    both cells, so every query sorts its copied hits by id and drops
//!    the second copy before returning. A source is inserted into its
//!    new cell *before* being removed from the old one, so a
//!    fully-ingested source is never invisible.
//! 3. **Re-run** — [`CatalogStore::cached_region`] looks up a prior
//!    region result by provenance key (see [`task_provenance_key`]).
//!    A driver re-running a campaign over an overlapping footprint
//!    materializes cache hits as a resume checkpoint so the campaign
//!    refits only tasks whose inputs changed — O(changed shards),
//!    not O(footprint). The cache is append-only and keyed purely by
//!    input content, so stale entries can never be returned for
//!    changed inputs; they are simply never looked up again.
//!
//! Lock ordering is deadlock-free by construction: writers take the
//! id-index lock for a source first and then at most one cell-shard
//! lock at a time; readers take an id-stripe and then at most one
//! cell-shard lock. The order is ranked — id-stripe (1) → cell-shard
//! (2) → cache (3) — and *checked*: every acquisition goes through a
//! `// lock-order:`-annotated helper (enforced by `celeste_lint`)
//! that, under `debug_assertions`, pushes its rank on a thread-local
//! witness stack and asserts ranks strictly increase (`mod witness`).
//! The model-checked protocol (`crates/check`, `store_lock_order` and
//! `store_migration` tests) exhaustively verifies the same discipline
//! under every bounded interleaving.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use celeste_sched::fault::mix64;
use celeste_sched::{fixed_neighbor_indices, RegionResult, RegionTask};
use celeste_survey::bands::Band;
use celeste_survey::catalog::{Catalog, CatalogEntry, SourceType};
use celeste_survey::io::ImageKey;
use celeste_survey::skygeom::{CellId, SkyCoord, SkyRect};
use parking_lot::{Mutex, RwLock};

/// Debug-only lock-order witness: a thread-local stack of held lock
/// ranks. Acquiring a lock whose rank is not strictly greater than
/// the deepest held rank is a programming error and panics
/// immediately (debug/test builds only — release builds compile the
/// whole check away). Ranks: id-stripe (1) → cell-shard (2) →
/// cache (3).
mod witness {
    /// Rank of an id-index stripe mutex.
    pub(crate) const ID_STRIPE: u8 = 1;
    /// Rank of a cell-shard rwlock.
    pub(crate) const CELL_SHARD: u8 = 2;
    /// Rank of the provenance-cache mutex.
    pub(crate) const CACHE: u8 = 3;

    #[cfg(debug_assertions)]
    thread_local! {
        static HELD: std::cell::RefCell<Vec<u8>> = const { std::cell::RefCell::new(Vec::new()) };
    }

    /// RAII record of one acquisition; drop order must mirror lock
    /// release order (helpers bind it right before the guard, so both
    /// unwind together).
    pub(crate) struct Token {
        #[cfg(debug_assertions)]
        rank: u8,
    }

    /// Record acquiring a lock of `rank`, asserting the documented
    /// order (strictly increasing ranks per thread).
    pub(crate) fn acquire(rank: u8, class: &'static str) -> Token {
        #[cfg(debug_assertions)]
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(&deepest) = held.last() {
                assert!(
                    rank > deepest,
                    "lock-order violation: acquiring {class} (rank {rank}) while \
                     holding rank {deepest}; order is id-stripe (1) -> cell-shard (2) -> cache (3)"
                );
            }
            held.push(rank);
        });
        #[cfg(not(debug_assertions))]
        let _ = (rank, class);
        Token {
            #[cfg(debug_assertions)]
            rank,
        }
    }

    #[cfg(debug_assertions)]
    impl Drop for Token {
        fn drop(&mut self) {
            HELD.with(|held| {
                let popped = held.borrow_mut().pop();
                debug_assert_eq!(popped, Some(self.rank), "witness stack out of order");
            });
        }
    }
}

/// Dependency margin for stage-1 cache keys: strictly wider than
/// [`celeste_sched::NEIGHBOR_PAD_DEG`], the campaign's fixed-neighbor
/// pad, so boundary sources are never missed.
const STAGE_DEP_PAD_DEG: f64 = 16.0 / 3600.0;
const _: () = assert!(STAGE_DEP_PAD_DEG > celeste_sched::NEIGHBOR_PAD_DEG);

/// A query the store rejected before touching any shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The query parameters were malformed (non-finite coordinates,
    /// negative or NaN radius, NaN flux threshold).
    InvalidQuery(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::InvalidQuery(reason) => write!(f, "invalid catalog query: {reason}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Sizing knobs for a [`CatalogStore`].
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Cell refinement level (cells are `180/2^level` degrees on a
    /// side). Deeper levels mean finer query pruning but more cells.
    pub level: u8,
    /// Number of reader/writer locks cells are striped across;
    /// rounded up to a power of two, minimum 1.
    pub lock_shards: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        // 180/2^10 ≈ 0.18° cells: about one SDSS field per cell.
        StoreConfig {
            level: 10,
            lock_shards: 64,
        }
    }
}

/// Occupancy and traffic counters for one resident sky cell. The
/// touch counters drive the serving layer's eviction policy (cold
/// cells spill to the snapshot file first) and double as a per-cell
/// heat map in the stats query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellOccupancy {
    /// Which cell.
    pub cell: CellId,
    /// Distinct sources currently resident in the cell.
    pub entries: usize,
    /// How many sky queries have read this cell since it became
    /// resident (counters reset when a cell empties or is evicted).
    pub touches: u64,
    /// Value of the store's query clock when the cell was last read
    /// by a sky query (0 = never). Ordering cells by this field is
    /// LRU-by-query-touch.
    pub last_touch: u64,
}

/// Occupancy and traffic counters for a [`CatalogStore`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CatalogStoreStats {
    /// Distinct sources currently stored.
    pub entries: usize,
    /// Non-empty sky cells.
    pub cells: usize,
    /// Region results ingested (including re-ingests of cached ones).
    pub regions_ingested: u64,
    /// Provenance-cache entries recorded.
    pub cache_entries: usize,
    /// Provenance-cache lookups that hit.
    pub cache_hits: u64,
    /// Sky queries answered (cone/rect/brightest-N; each ticks the
    /// query clock the [`CellOccupancy::last_touch`] stamps come
    /// from).
    pub queries: u64,
    /// Per-cell occupancy and touch counters, ascending by cell id.
    pub per_cell: Vec<CellOccupancy>,
}

/// Predicate for [`CatalogStore::rect_search`]: all present fields
/// must match (absent fields match everything).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SourceFilter {
    /// Keep only stars, or only galaxies.
    pub source_type: Option<SourceType>,
    /// Keep only sources at least this bright (nanomaggies) in the
    /// given band. Sources whose flux in that band is non-finite
    /// never match.
    pub min_flux: Option<(Band, f64)>,
}

impl SourceFilter {
    /// Whether `entry` passes every present predicate.
    pub fn matches(&self, entry: &CatalogEntry) -> bool {
        if let Some(t) = self.source_type {
            if entry.source_type != t {
                return false;
            }
        }
        if let Some((band, min)) = self.min_flux {
            let f = entry.fluxes()[band.index()];
            // Demands both "is finite enough to compare" and "is at
            // least min": a NaN flux never matches.
            if !matches!(
                f.partial_cmp(&min),
                Some(std::cmp::Ordering::Greater | std::cmp::Ordering::Equal)
            ) {
                return false;
            }
        }
        true
    }

    fn validate(&self) -> Result<(), StoreError> {
        match self.min_flux {
            Some((_, min)) if min.is_nan() => {
                Err(StoreError::InvalidQuery("min_flux threshold is NaN".into()))
            }
            _ => Ok(()),
        }
    }
}

/// A self-describing catalog query, the facade's one-call query
/// surface ([`CatalogStore::query`]).
#[derive(Debug, Clone, PartialEq)]
pub enum CatalogQuery {
    /// Every source within `radius_arcsec` of `center`, nearest
    /// first (ties by id).
    Cone {
        /// Cone axis.
        center: SkyCoord,
        /// Cone angular radius, arcseconds (inclusive).
        radius_arcsec: f64,
    },
    /// Every source inside `rect` passing `filter`, ascending id.
    Rect {
        /// Half-open sky window (RA wraparound honored).
        rect: SkyRect,
        /// Type/flux predicate.
        filter: SourceFilter,
    },
    /// The `n` brightest sources by r-band flux, brightest first
    /// (ties by id), optionally restricted to a sky window.
    BrightestN {
        /// How many sources to return.
        n: usize,
        /// Optional restriction window.
        within: Option<SkyRect>,
    },
}

/// One resident cell: its entries keyed by id (so iteration order —
/// and therefore query output — is deterministic) plus atomic touch
/// counters that sky queries bump under the shard's *read* lock.
#[derive(Default)]
struct Cell {
    entries: BTreeMap<u64, CatalogEntry>,
    touches: AtomicU64,
    last_touch: AtomicU64,
}

/// One lock stripe: the cells (and their entries) that hash to it.
#[derive(Default)]
struct Shard {
    cells: HashMap<CellId, Cell>,
}

/// The sky-sharded catalog store. See the module docs for the
/// lifecycle and locking invariants.
pub struct CatalogStore {
    level: u8,
    mask: usize,
    shards: Vec<RwLock<Shard>>,
    /// id → current cell, striped by id hash. A writer must hold the
    /// id's stripe lock for the whole move (insert-new then
    /// remove-old) so concurrent upserts of one source serialize.
    ids: Vec<Mutex<HashMap<u64, CellId>>>,
    /// Provenance key → the region result fitted under that key.
    cache: Mutex<HashMap<u64, RegionResult>>,
    entries: AtomicUsize,
    regions_ingested: AtomicU64,
    cache_hits: AtomicU64,
    /// Bumped once per sky query; cells record its value as their
    /// last-touch stamp (LRU by query touch for eviction policy).
    query_clock: AtomicU64,
}

impl Default for CatalogStore {
    fn default() -> Self {
        CatalogStore::new(StoreConfig::default())
    }
}

impl CatalogStore {
    /// An empty store with the given sizing.
    pub fn new(cfg: StoreConfig) -> CatalogStore {
        let n = cfg.lock_shards.max(1).next_power_of_two();
        CatalogStore {
            level: cfg.level,
            mask: n - 1,
            shards: (0..n).map(|_| RwLock::new(Shard::default())).collect(),
            ids: (0..n).map(|_| Mutex::new(HashMap::new())).collect(),
            cache: Mutex::new(HashMap::new()),
            entries: AtomicUsize::new(0),
            regions_ingested: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            query_clock: AtomicU64::new(0),
        }
    }

    /// The cell refinement level entries are indexed at.
    pub fn level(&self) -> u8 {
        self.level
    }

    fn shard_of(&self, cell: CellId) -> &RwLock<Shard> {
        let key = ((cell.ix as u64) << 32) | cell.iy as u64;
        &self.shards[mix64(key) as usize & self.mask]
    }

    /// Run `f` holding the id stripe for `id`. The outermost lock a
    /// writer or point-reader takes; shard accesses nest inside.
    fn with_id_stripe<R>(&self, id: u64, f: impl FnOnce(&mut HashMap<u64, CellId>) -> R) -> R {
        let _witness = witness::acquire(witness::ID_STRIPE, "id-stripe");
        // lock-order: id-stripe (1) — cell-shard (2) may nest inside.
        let mut guard = self.ids[mix64(id) as usize & self.mask].lock();
        f(&mut guard)
    }

    /// Run `f` holding `shard` for writing.
    fn with_shard_write<R>(&self, shard: &RwLock<Shard>, f: impl FnOnce(&mut Shard) -> R) -> R {
        let _witness = witness::acquire(witness::CELL_SHARD, "cell-shard");
        // lock-order: cell-shard (2) — at most one at a time, inside
        // at most one id-stripe (1).
        let mut guard = shard.write();
        f(&mut guard)
    }

    /// Run `f` holding `shard` for reading.
    fn with_shard_read<R>(&self, shard: &RwLock<Shard>, f: impl FnOnce(&Shard) -> R) -> R {
        let _witness = witness::acquire(witness::CELL_SHARD, "cell-shard");
        // lock-order: cell-shard (2) — at most one at a time, inside
        // at most one id-stripe (1).
        let guard = shard.read();
        f(&guard)
    }

    /// Run `f` holding the provenance cache.
    fn with_cache<R>(&self, f: impl FnOnce(&mut HashMap<u64, RegionResult>) -> R) -> R {
        let _witness = witness::acquire(witness::CACHE, "cache");
        // lock-order: cache (3) — innermost; never held across a
        // stripe or shard acquisition.
        let mut guard = self.cache.lock();
        f(&mut guard)
    }

    /// Insert or update one entry. The entry is indexed under the
    /// cell containing its position; a position change that crosses a
    /// cell boundary moves it (new cell first, then old, so readers
    /// never observe the id absent).
    pub fn insert(&self, entry: CatalogEntry) {
        let cell = CellId::of(&entry.pos, self.level);
        let id = entry.id;
        self.with_id_stripe(id, |idx| {
            let old = idx.insert(id, cell);
            match old {
                None => {
                    self.entries.fetch_add(1, Ordering::Relaxed);
                    self.with_shard_write(self.shard_of(cell), |s| {
                        s.cells.entry(cell).or_default().entries.insert(id, entry);
                    });
                }
                Some(old_cell) if old_cell == cell => {
                    self.with_shard_write(self.shard_of(cell), |s| {
                        s.cells.entry(cell).or_default().entries.insert(id, entry);
                    });
                }
                Some(old_cell) => {
                    self.with_shard_write(self.shard_of(cell), |s| {
                        s.cells.entry(cell).or_default().entries.insert(id, entry);
                    });
                    self.with_shard_write(self.shard_of(old_cell), |s| {
                        if let Some(c) = s.cells.get_mut(&old_cell) {
                            c.entries.remove(&id);
                            if c.entries.is_empty() {
                                s.cells.remove(&old_cell);
                            }
                        }
                    });
                }
            }
        });
    }

    /// Insert `entry` only if no entry with its id is present.
    /// Atomic with respect to concurrent [`CatalogStore::insert`]s of
    /// the same id (the id's stripe lock serializes them). Returns
    /// whether the entry was inserted. The serving layer uses this to
    /// fault spilled snapshot entries back in without clobbering a
    /// fresher fit a live campaign ingested meanwhile.
    pub fn insert_if_absent(&self, entry: CatalogEntry) -> bool {
        let cell = CellId::of(&entry.pos, self.level);
        let id = entry.id;
        self.with_id_stripe(id, |idx| {
            if idx.contains_key(&id) {
                return false;
            }
            idx.insert(id, cell);
            self.entries.fetch_add(1, Ordering::Relaxed);
            self.with_shard_write(self.shard_of(cell), |s| {
                s.cells.entry(cell).or_default().entries.insert(id, entry);
            });
            true
        })
    }

    /// Remove and return every entry currently resident in `cell`, in
    /// ascending id order — the eviction primitive: the serving layer
    /// spills the returned entries' cell to its snapshot file and
    /// reloads on demand. Entries concurrently moving *into* the cell
    /// stay; an id concurrently moved to a different cell is left
    /// untouched.
    pub fn take_cell(&self, cell: CellId) -> Vec<CatalogEntry> {
        let ids: Vec<u64> = self.with_shard_read(self.shard_of(cell), |s| {
            s.cells
                .get(&cell)
                .map(|c| c.entries.keys().copied().collect())
                .unwrap_or_default()
        });
        let mut out = Vec::with_capacity(ids.len());
        for id in ids {
            self.with_id_stripe(id, |idx| {
                if idx.get(&id) != Some(&cell) {
                    return;
                }
                idx.remove(&id);
                self.with_shard_write(self.shard_of(cell), |s| {
                    if let Some(c) = s.cells.get_mut(&cell) {
                        if let Some(e) = c.entries.remove(&id) {
                            self.entries.fetch_sub(1, Ordering::Relaxed);
                            out.push(e);
                        }
                        if c.entries.is_empty() {
                            s.cells.remove(&cell);
                        }
                    }
                });
            });
        }
        out
    }

    /// Upsert every fitted source of a region result.
    pub fn ingest(&self, result: &RegionResult) {
        for sp in &result.sources {
            self.insert(sp.to_entry());
        }
        self.regions_ingested.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `result` in the provenance cache under `key`.
    pub fn record(&self, key: u64, result: &RegionResult) {
        self.with_cache(|cache| cache.insert(key, result.clone()));
    }

    /// [`CatalogStore::ingest`] plus [`CatalogStore::record`] — the
    /// one-call sink for a streaming campaign whose driver computed
    /// the task's provenance key up front.
    pub fn absorb(&self, key: u64, result: &RegionResult) {
        self.ingest(result);
        self.record(key, result);
    }

    /// The cached region result fitted under `key`, if any. The
    /// caller rewrites `task_id`/`stage` to the re-run's plan before
    /// replaying it as resume state.
    pub fn cached_region(&self, key: u64) -> Option<RegionResult> {
        let hit = self.with_cache(|cache| cache.get(&key).cloned());
        if hit.is_some() {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// The current entry for a source id, if present.
    pub fn get(&self, id: u64) -> Option<CatalogEntry> {
        // Hold the stripe across the shard read so the id → cell
        // mapping can't be repointed mid-lookup (the model's
        // `store_migration` reader checks exactly this discipline).
        self.with_id_stripe(id, |idx| {
            let cell = *idx.get(&id)?;
            self.with_shard_read(self.shard_of(cell), |s| {
                s.cells.get(&cell).and_then(|c| c.entries.get(&id)).cloned()
            })
        })
    }

    /// Number of distinct sources stored.
    pub fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed)
    }

    /// Whether the store holds no sources.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Occupancy and traffic counters, including the per-cell
    /// occupancy/touch table (ascending by cell id) whose coldest rows
    /// [`CatalogStore::coldest_cells`] picks for the serving layer's
    /// LRU eviction.
    pub fn stats(&self) -> CatalogStoreStats {
        let mut per_cell = self.occupancies();
        per_cell.sort_by_key(|o| o.cell);
        CatalogStoreStats {
            entries: self.len(),
            cells: per_cell.len(),
            regions_ingested: self.regions_ingested.load(Ordering::Relaxed),
            cache_entries: self.with_cache(|cache| cache.len()),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            queries: self.query_clock.load(Ordering::Relaxed),
            per_cell,
        }
    }

    /// The coldest resident cells, coldest first — oldest
    /// `last_touch`, then fewest `touches`, then cell id — up to the
    /// first whose entry counts together reach `excess` (all of them
    /// when they never do; none for 0): the serving layer's LRU
    /// victims. They are the same cells, in the same order, as the
    /// prefix of [`CatalogStore::stats`]'s per-cell table sorted by
    /// that key, found without the cache lock or a sort of the whole
    /// table. A resident cell always holds an entry (the last one out
    /// removes it), so the prefix lies among the `excess` coldest
    /// cells: those are partitioned out by linear-time selection and
    /// only they are sorted (unstably: the key is unique per cell).
    pub fn coldest_cells(&self, excess: usize) -> Vec<CellOccupancy> {
        let key = |o: &CellOccupancy| (o.last_touch, o.touches, o.cell);
        let mut cells = self.occupancies();
        let k = excess.min(cells.len());
        if k > 0 {
            cells.select_nth_unstable_by_key(k - 1, key);
        }
        cells.truncate(k);
        cells.sort_unstable_by_key(key);
        let mut covered = 0;
        let n = cells
            .iter()
            .position(|o| {
                covered += o.entries;
                covered >= excess
            })
            .map_or(cells.len(), |i| i + 1);
        cells.truncate(n);
        cells
    }

    /// One [`CellOccupancy`] per resident cell, shard by shard, in no
    /// particular order.
    fn occupancies(&self) -> Vec<CellOccupancy> {
        let mut cells = Vec::new();
        for shard in &self.shards {
            self.with_shard_read(shard, |s| {
                cells.extend(s.cells.iter().map(|(&cell, c)| CellOccupancy {
                    cell,
                    entries: c.entries.len(),
                    touches: c.touches.load(Ordering::Relaxed),
                    last_touch: c.last_touch.load(Ordering::Relaxed),
                }));
            });
        }
        cells
    }

    /// Call `f` on every entry indexed under `cells` (`None`: every
    /// cell), in place, under each cell's shard read lock — one shard
    /// at a time, as the lock order requires. `f` decides what to
    /// copy out, so a query clones only its hits. A concurrent
    /// cross-cell move can expose one id in two cells, so `f` may see
    /// an id twice; callers drop the extra copy with
    /// [`dedup_by_id`] (or, for brightest-N, [`TopN`]). A
    /// `Some(stamp)` records a query touch on each visited cell (the
    /// eviction LRU signal); `None` is a bookkeeping read that leaves
    /// the counters alone.
    fn visit(
        &self,
        cells: Option<&[CellId]>,
        stamp: Option<u64>,
        mut f: impl FnMut(&CatalogEntry),
    ) {
        let mut read = |c: &Cell| {
            if let Some(stamp) = stamp {
                c.touches.fetch_add(1, Ordering::Relaxed);
                c.last_touch.store(stamp, Ordering::Relaxed);
            }
            c.entries.values().for_each(&mut f);
        };
        match cells {
            Some(cells) => {
                for &cell in cells {
                    self.with_shard_read(self.shard_of(cell), |s| {
                        if let Some(c) = s.cells.get(&cell) {
                            read(c);
                        }
                    });
                }
            }
            None => {
                for shard in &self.shards {
                    self.with_shard_read(shard, |s| s.cells.values().for_each(&mut read));
                }
            }
        }
    }

    /// Advance the query clock and return the new stamp. Every sky
    /// query (cone/rect/brightest-N) takes one tick; cells touched by
    /// the query record it as their last-touch time.
    fn query_stamp(&self) -> u64 {
        self.query_clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Every source within `radius_arcsec` of `center` with its
    /// separation, nearest first (ties by id). Agrees with the
    /// brute-force [`Catalog::cone_search`] over the same entries,
    /// including across the RA seam, but only touches the shards
    /// whose cells the cone can reach.
    pub fn cone_search(
        &self,
        center: &SkyCoord,
        radius_arcsec: f64,
    ) -> Result<Vec<(CatalogEntry, f64)>, StoreError> {
        if !center.is_finite() {
            return Err(StoreError::InvalidQuery("cone center is non-finite".into()));
        }
        if !radius_arcsec.is_finite() || radius_arcsec < 0.0 {
            return Err(StoreError::InvalidQuery(format!(
                "cone radius must be finite and non-negative, got {radius_arcsec}"
            )));
        }
        let rect = cone_rect(center, radius_arcsec);
        let cells = CellId::covering(&rect, self.level);
        let mut hits: Vec<(CatalogEntry, f64)> = Vec::new();
        self.visit(Some(&cells), Some(self.query_stamp()), |e| {
            let sep = e.pos.sep_arcsec(center);
            if sep.is_finite() && sep <= radius_arcsec {
                hits.push((e.clone(), sep));
            }
        });
        dedup_by_id(&mut hits, |(e, _)| e.id);
        hits.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.id.cmp(&b.0.id)));
        Ok(hits)
    }

    /// Every source inside `rect` (half-open, RA-wraparound honored)
    /// passing `filter`, in ascending id order.
    pub fn rect_search(
        &self,
        rect: &SkyRect,
        filter: &SourceFilter,
    ) -> Result<Vec<CatalogEntry>, StoreError> {
        if ![rect.ra_min, rect.ra_max, rect.dec_min, rect.dec_max]
            .iter()
            .all(|v| v.is_finite())
        {
            return Err(StoreError::InvalidQuery(
                "rect bounds are non-finite".into(),
            ));
        }
        filter.validate()?;
        let cells = CellId::covering(rect, self.level);
        let mut hits = Vec::new();
        self.visit(Some(&cells), Some(self.query_stamp()), |e| {
            if rect.contains(&e.pos) && filter.matches(e) {
                hits.push(e.clone());
            }
        });
        dedup_by_id(&mut hits, |e| e.id);
        Ok(hits)
    }

    /// The `n` brightest sources by r-band flux, brightest first
    /// (ties by id), optionally restricted to `within`. Sources with
    /// non-finite flux are skipped. Agrees with the brute-force
    /// [`Catalog::brightest_n`] over the same entries.
    pub fn brightest_n(&self, n: usize, within: Option<&SkyRect>) -> Vec<CatalogEntry> {
        let stamp = Some(self.query_stamp());
        let cells = within.map(|rect| CellId::covering(rect, self.level));
        let mut top = TopN::new(n);
        self.visit(cells.as_deref(), stamp, |e| {
            if e.flux_r_nmgy.is_finite()
                && top.admits(e)
                && within.is_none_or(|rect| rect.contains(&e.pos))
            {
                top.push(e);
            }
        });
        top.into_sorted()
    }

    /// Run a self-describing [`CatalogQuery`], discarding per-hit
    /// separations (use [`CatalogStore::cone_search`] directly if you
    /// need them).
    pub fn query(&self, q: &CatalogQuery) -> Result<Vec<CatalogEntry>, StoreError> {
        match q {
            CatalogQuery::Cone {
                center,
                radius_arcsec,
            } => Ok(self
                .cone_search(center, *radius_arcsec)?
                .into_iter()
                .map(|(e, _)| e)
                .collect()),
            CatalogQuery::Rect { rect, filter } => self.rect_search(rect, filter),
            CatalogQuery::BrightestN { n, within } => Ok(self.brightest_n(*n, within.as_ref())),
        }
    }

    /// Snapshot the whole store as a [`Catalog`], entries in
    /// ascending id order — the same order the batch campaign path
    /// emits, so a store fed by a streamed campaign snapshots to a
    /// catalog bit-identical to the batch output.
    pub fn to_catalog(&self) -> Catalog {
        let mut all = Vec::with_capacity(self.len());
        self.visit(None, None, |e| all.push(e.clone()));
        dedup_by_id(&mut all, |e| e.id);
        Catalog::new(all)
    }

    /// The cells a query's search area can reach at this store's
    /// level: `Ok(Some(cells))` for bounded queries, `Ok(None)` for a
    /// whole-sky sweep (`BrightestN { within: None }`). Validates the
    /// query exactly as running it would. The serving layer faults
    /// spilled cells back in from snapshot through this — it shares
    /// the cone's conservative bounding rect with
    /// [`CatalogStore::cone_search`], so fault-in coverage can never
    /// be narrower than the search itself.
    pub fn covering_cells(&self, q: &CatalogQuery) -> Result<Option<Vec<CellId>>, StoreError> {
        match q {
            CatalogQuery::Cone {
                center,
                radius_arcsec,
            } => {
                if !center.is_finite() {
                    return Err(StoreError::InvalidQuery("cone center is non-finite".into()));
                }
                if !radius_arcsec.is_finite() || *radius_arcsec < 0.0 {
                    return Err(StoreError::InvalidQuery(format!(
                        "cone radius must be finite and non-negative, got {radius_arcsec}"
                    )));
                }
                let rect = cone_rect(center, *radius_arcsec);
                Ok(Some(CellId::covering(&rect, self.level)))
            }
            CatalogQuery::Rect { rect, filter } => {
                if ![rect.ra_min, rect.ra_max, rect.dec_min, rect.dec_max]
                    .iter()
                    .all(|v| v.is_finite())
                {
                    return Err(StoreError::InvalidQuery(
                        "rect bounds are non-finite".into(),
                    ));
                }
                filter.validate()?;
                Ok(Some(CellId::covering(rect, self.level)))
            }
            CatalogQuery::BrightestN { within, .. } => match within {
                Some(rect) => Ok(Some(CellId::covering(rect, self.level))),
                None => Ok(None),
            },
        }
    }
}

/// Conservative bounding rect for a cone under the flat-sky metric:
/// the separation scales RA by cos of the *mean* dec of the pair,
/// which for a hit lies within r/2 of the center's dec. A tiny guard
/// pad keeps exactly-on-boundary candidates inside; over-inclusion is
/// harmless (the exact per-entry separation test decides). Shared by
/// [`CatalogStore::cone_search`] and [`CatalogStore::covering_cells`]
/// so the serving layer's fault-in sees the same cells the search
/// will read.
fn cone_rect(center: &SkyCoord, radius_arcsec: f64) -> SkyRect {
    let r_deg = radius_arcsec / 3600.0;
    let pad = 1e-7;
    let worst_dec = (center.dec.abs() + 0.5 * r_deg).min(90.0);
    let cosw = worst_dec.to_radians().cos();
    let half_w = if cosw > 1e-9 {
        (r_deg / cosw + pad).min(180.0)
    } else {
        180.0
    };
    SkyRect::new(
        center.ra - half_w,
        center.ra + half_w,
        (center.dec - r_deg - pad).max(-90.0),
        (center.dec + r_deg + pad).min(90.0 + f64::EPSILON * 90.0),
    )
}

/// Sort `hits` by id and keep one copy per id. This is where queries
/// drop the second copy a [`CatalogStore::visit`] racing a cross-cell
/// move can report (a moving source enters its new cell before it
/// leaves the old one).
fn dedup_by_id<T>(hits: &mut Vec<T>, id: impl Fn(&T) -> u64) {
    hits.sort_by_key(&id);
    hits.dedup_by_key(|h| id(h));
}

/// Brightest-first order: r-band flux descending (`total_cmp`), then
/// id ascending.
fn brighter(a: &CatalogEntry, b: &CatalogEntry) -> std::cmp::Ordering {
    b.flux_r_nmgy
        .total_cmp(&a.flux_r_nmgy)
        .then(a.id.cmp(&b.id))
}

/// A bounded brightest-`n` accumulator over entries seen by
/// reference. An entry is cloned only if it beats the current `n`-th
/// key; once `2n` candidates pile up they are compacted (one copy per
/// id, the brightest, then sorted and cut to `n`), so `m` pushes cost
/// O(m log n) at worst and memory stays O(n).
struct TopN {
    n: usize,
    /// After a compaction that left `n` of them, the first `n` are
    /// sorted brightest first and later pushes are appended behind.
    candidates: Vec<CatalogEntry>,
    /// Whether the last compaction left `n` candidates, making
    /// `candidates[n - 1]` the key an entry has to beat.
    full: bool,
}

impl TopN {
    fn new(n: usize) -> TopN {
        TopN {
            n,
            candidates: Vec::new(),
            full: false,
        }
    }

    /// Whether `e` could still enter the answer: it beats the current
    /// `n`-th key. Cheap, so callers test it before costlier
    /// predicates.
    fn admits(&self, e: &CatalogEntry) -> bool {
        self.n > 0 && !(self.full && brighter(e, &self.candidates[self.n - 1]).is_ge())
    }

    /// Copy in an entry [`TopN::admits`] let through.
    fn push(&mut self, e: &CatalogEntry) {
        self.candidates.push(e.clone());
        if self.candidates.len() >= self.n.saturating_mul(2) {
            self.compact();
        }
    }

    fn compact(&mut self) {
        // One copy per id (the brightest), so `n` survivors are `n`
        // distinct sources even while one is mid-move.
        self.candidates
            .sort_by(|a, b| a.id.cmp(&b.id).then_with(|| brighter(a, b)));
        self.candidates.dedup_by_key(|e| e.id);
        self.candidates.sort_by(brighter);
        self.candidates.truncate(self.n);
        self.full = self.candidates.len() == self.n;
    }

    fn into_sorted(mut self) -> Vec<CatalogEntry> {
        self.compact();
        self.candidates
    }
}

fn fold(acc: u64, bits: u64) -> u64 {
    mix64(acc ^ mix64(bits))
}

fn entry_content_hash(e: &CatalogEntry) -> u64 {
    let mut acc = fold(0x5EED_E27C_0000_0001, e.id);
    for bits in [
        e.pos.ra.to_bits(),
        e.pos.dec.to_bits(),
        u64::from(e.source_type == SourceType::Galaxy),
        e.flux_r_nmgy.to_bits(),
    ] {
        acc = fold(acc, bits);
    }
    for c in e.colors {
        acc = fold(acc, c.to_bits());
    }
    for bits in [
        e.shape.frac_dev.to_bits(),
        e.shape.axis_ratio.to_bits(),
        e.shape.angle_rad.to_bits(),
        e.shape.radius_arcsec.to_bits(),
    ] {
        acc = fold(acc, bits);
    }
    acc
}

/// Content hash of an entire catalog: the fold of every entry's
/// bit-exact content, in order. Drivers fold this (for the survey's
/// truth catalog, whose entries fully determine the rendered imagery
/// given the survey seed) into the provenance `salt` so changed
/// imagery invalidates cached region fits.
pub fn catalog_content_hash(cat: &Catalog) -> u64 {
    cat.entries.iter().fold(0x5EED_CA7A_0106_0003, |acc, e| {
        fold(acc, entry_content_hash(e))
    })
}

/// Content hash of everything a *stage-0* region fit is conditioned
/// on: the task geometry and stage, the initialization-catalog
/// entries of its own sources **and** of the fixed neighbors within
/// the campaign's 15″ neighbor pad, the exact image set, and the fit
/// configuration (folded into `salt` together with any
/// survey-content hash the driver wants to pin). Two tasks with equal
/// keys fit bit-identically, so a cached result can stand in for a
/// refit. Stage-1 tasks additionally depend on stage-0 *outputs*;
/// use [`plan_provenance_keys`] to fold those dependencies in.
pub fn task_provenance_key(
    task: &RegionTask,
    init: &Catalog,
    image_keys: &[ImageKey],
    salt: u64,
) -> u64 {
    let mut acc = fold(0x5EED_F00D_CA7A_0001, salt);
    acc = fold(acc, u64::from(task.stage));
    for bits in [
        task.rect.ra_min.to_bits(),
        task.rect.ra_max.to_bits(),
        task.rect.dec_min.to_bits(),
        task.rect.dec_max.to_bits(),
    ] {
        acc = fold(acc, bits);
    }
    for &i in &task.source_indices {
        acc = fold(acc, i as u64);
        if let Some(e) = init.entries.get(i) {
            acc = fold(acc, entry_content_hash(e));
        }
    }
    // Fixed neighbors: the campaign's own selection.
    for i in fixed_neighbor_indices(task, init) {
        acc = fold(acc, i as u64);
        acc = fold(acc, entry_content_hash(&init.entries[i]));
    }
    for (field, band) in image_keys {
        acc = fold(acc, u64::from(field.run));
        acc = fold(acc, u64::from(field.camcol));
        acc = fold(acc, u64::from(field.field));
        acc = fold(acc, band.index() as u64);
    }
    acc
}

/// Provenance keys for a whole campaign plan, one per task, in task
/// order. Stage-0 keys are pure [`task_provenance_key`]s; each
/// stage-1 key additionally folds in the key of every stage-0 task
/// whose rect intersects the stage-1 rect padded by the neighbor
/// margin — those are exactly the tasks whose *outputs* the stage-1
/// fit starts from (its own sources' stage-0 params) or conditions
/// on (fixed neighbors). A change anywhere in a stage-1 task's input
/// cone therefore changes its key and forces a refit, while
/// untouched shards keep their keys and hit the cache.
pub fn plan_provenance_keys<F>(
    tasks: &[RegionTask],
    init: &Catalog,
    salt: u64,
    image_keys_of: F,
) -> Vec<u64>
where
    F: Fn(&RegionTask) -> Vec<ImageKey>,
{
    let base: Vec<u64> = tasks
        .iter()
        .map(|t| task_provenance_key(t, init, &image_keys_of(t), salt))
        .collect();
    tasks
        .iter()
        .zip(&base)
        .map(|(t, &key)| {
            if t.stage == 0 {
                return key;
            }
            let dep_rect = t.rect.padded(STAGE_DEP_PAD_DEG);
            let mut acc = key;
            for (t0, &k0) in tasks.iter().zip(&base) {
                if t0.stage == 0 && t0.rect.intersects(&dep_rect) {
                    acc = fold(acc, k0);
                }
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use celeste_survey::catalog::GalaxyShape;

    // The witness asserts only under `debug_assertions`; a release
    // build compiles the check away, so there is nothing to catch.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn witness_catches_inverted_acquisition() {
        let _cache = witness::acquire(witness::CACHE, "cache");
        let _stripe = witness::acquire(witness::ID_STRIPE, "id-stripe");
    }

    #[test]
    fn witness_allows_documented_nesting() {
        let stripe = witness::acquire(witness::ID_STRIPE, "id-stripe");
        let shard = witness::acquire(witness::CELL_SHARD, "cell-shard");
        drop(shard);
        drop(stripe);
        // Sequential re-acquisition at any rank is fine once empty.
        let _cache = witness::acquire(witness::CACHE, "cache");
    }

    fn entry(id: u64, ra: f64, dec: f64, flux: f64) -> CatalogEntry {
        CatalogEntry {
            id,
            pos: SkyCoord::new(ra, dec),
            source_type: if id.is_multiple_of(2) {
                SourceType::Star
            } else {
                SourceType::Galaxy
            },
            flux_r_nmgy: flux,
            colors: [0.1, 0.2, -0.1, 0.05],
            shape: GalaxyShape::round_disk(1.5),
        }
    }

    fn store_with(entries: &[CatalogEntry]) -> CatalogStore {
        let store = CatalogStore::default();
        for e in entries {
            store.insert(e.clone());
        }
        store
    }

    #[test]
    fn insert_upserts_and_moves_across_cells() {
        let store = CatalogStore::default();
        store.insert(entry(7, 10.0, 10.0, 1.0));
        assert_eq!(store.len(), 1);
        // Same cell update.
        store.insert(entry(7, 10.001, 10.0, 2.0));
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(7).unwrap().flux_r_nmgy, 2.0);
        // Cross-cell move: far away, old cell must be vacated.
        store.insert(entry(7, 200.0, -40.0, 3.0));
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(7).unwrap().pos.ra, 200.0);
        assert_eq!(store.stats().cells, 1);
        assert_eq!(store.to_catalog().len(), 1);
    }

    #[test]
    fn queries_match_brute_force_references() {
        let entries: Vec<CatalogEntry> = (0..200)
            .map(|i| {
                entry(
                    i,
                    (i as f64 * 37.7) % 360.0,
                    ((i as f64 * 11.3) % 120.0) - 60.0,
                    (i as f64 * 7.1) % 50.0,
                )
            })
            .collect();
        let store = store_with(&entries);
        let cat = Catalog::new(entries);
        let center = SkyCoord::new(37.7, -48.7);
        for radius in [0.0, 3600.0, 500_000.0] {
            let got: Vec<(u64, f64)> = store
                .cone_search(&center, radius)
                .unwrap()
                .iter()
                .map(|(e, s)| (e.id, *s))
                .collect();
            let want: Vec<(u64, f64)> = cat
                .cone_search(&center, radius)
                .iter()
                .map(|(e, s)| (e.id, *s))
                .collect();
            assert_eq!(got, want, "cone radius {radius}");
        }
        let rect = SkyRect::new(10.0, 200.0, -30.0, 45.0);
        let got: Vec<u64> = store
            .rect_search(&rect, &SourceFilter::default())
            .unwrap()
            .iter()
            .map(|e| e.id)
            .collect();
        let mut want: Vec<u64> = cat.in_rect(&rect).iter().map(|e| e.id).collect();
        want.sort_unstable();
        assert_eq!(got, want);
        let got: Vec<u64> = store.brightest_n(10, None).iter().map(|e| e.id).collect();
        let want: Vec<u64> = cat.brightest_n(10).iter().map(|e| e.id).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn cone_search_spans_the_ra_seam() {
        let store = store_with(&[entry(1, 359.999, 0.0, 1.0), entry(2, 0.0005, 0.0, 1.0)]);
        let hits = store.cone_search(&SkyCoord::new(0.0, 0.0), 10.0).unwrap();
        let ids: Vec<u64> = hits.iter().map(|(e, _)| e.id).collect();
        assert_eq!(ids, vec![2, 1], "west-of-seam neighbor must be found");
    }

    #[test]
    fn filters_and_invalid_queries() {
        let mut galaxy = entry(1, 5.0, 5.0, 30.0);
        galaxy.source_type = SourceType::Galaxy;
        let mut star = entry(2, 5.001, 5.0, 0.5);
        star.source_type = SourceType::Star;
        let store = store_with(&[galaxy, star]);
        let rect = SkyRect::new(0.0, 10.0, 0.0, 10.0);
        let only_galaxies = SourceFilter {
            source_type: Some(SourceType::Galaxy),
            ..SourceFilter::default()
        };
        let got = store.rect_search(&rect, &only_galaxies).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].id, 1);
        let bright_r = SourceFilter {
            min_flux: Some((Band::R, 1.0)),
            ..SourceFilter::default()
        };
        let got = store.rect_search(&rect, &bright_r).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].id, 1);
        assert!(store
            .cone_search(&SkyCoord::new(f64::NAN, 0.0), 1.0)
            .is_err());
        assert!(store.cone_search(&SkyCoord::new(0.0, 0.0), -1.0).is_err());
        let nan_flux = SourceFilter {
            min_flux: Some((Band::R, f64::NAN)),
            ..SourceFilter::default()
        };
        assert!(store.rect_search(&rect, &nan_flux).is_err());
    }

    #[test]
    fn provenance_keys_separate_stages_and_content() {
        let mk_task = |id: u64, stage: u8, ra0: f64| RegionTask {
            id,
            stage,
            rect: SkyRect::new(ra0, ra0 + 0.1, 0.0, 0.1),
            source_indices: vec![0],
            predicted_work: 1.0,
        };
        let init = Catalog::new(vec![entry(0, 0.05, 0.05, 1.0), entry(1, 0.09, 0.05, 2.0)]);
        let t = mk_task(3, 0, 0.0);
        let keys = vec![(
            celeste_survey::skygeom::FieldId {
                run: 1,
                camcol: 2,
                field: 3,
            },
            Band::R,
        )];
        let k = task_provenance_key(&t, &init, &keys, 0);
        // Stable under irrelevant changes (task id is not an input).
        let mut t2 = t.clone();
        t2.id = 99;
        assert_eq!(k, task_provenance_key(&t2, &init, &keys, 0));
        // Sensitive to stage, salt, images, and neighbor content.
        let mut staged = t.clone();
        staged.stage = 1;
        assert_ne!(k, task_provenance_key(&staged, &init, &keys, 0));
        assert_ne!(k, task_provenance_key(&t, &init, &keys, 1));
        assert_ne!(k, task_provenance_key(&t, &init, &[], 0));
        let mut init2 = init.clone();
        init2.entries[1].flux_r_nmgy += 1.0; // a fixed neighbor moved
        assert_ne!(k, task_provenance_key(&t, &init2, &keys, 0));
    }

    #[test]
    fn stage1_keys_fold_in_overlapping_stage0_keys() {
        let init = Catalog::new(vec![
            entry(0, 0.05, 0.05, 1.0),
            entry(1, 0.15, 0.05, 2.0),
            entry(2, 0.30, 0.05, 3.0),
        ]);
        let mk = |id: u64, stage: u8, ra0: f64, ra1: f64, src: Vec<usize>| RegionTask {
            id,
            stage,
            rect: SkyRect::new(ra0, ra1, 0.0, 0.1),
            source_indices: src,
            predicted_work: 1.0,
        };
        let tasks = vec![
            mk(0, 0, 0.0, 0.1, vec![0]),
            mk(1, 0, 0.1, 0.2, vec![1]),
            mk(2, 0, 0.25, 0.4, vec![2]),
            mk(3, 1, 0.05, 0.15, vec![0, 1]),
        ];
        let keys = plan_provenance_keys(&tasks, &init, 7, |_| Vec::new());
        // Perturb task 0's own source: its key and the overlapping
        // stage-1 key must change; the far-away stage-0 key must not.
        let mut init2 = init.clone();
        init2.entries[0].pos.ra += 1e-6;
        let keys2 = plan_provenance_keys(&tasks, &init2, 7, |_| Vec::new());
        assert_ne!(keys[0], keys2[0]);
        assert_ne!(keys[3], keys2[3], "stage-1 key must track stage-0 inputs");
        assert_eq!(keys[2], keys2[2], "disjoint stage-0 task is unaffected");
    }

    #[test]
    fn concurrent_ingest_and_query() {
        let store = CatalogStore::new(StoreConfig {
            level: 10,
            lock_shards: 8,
        });
        std::thread::scope(|s| {
            let writer = s.spawn(|| {
                for i in 0..2000u64 {
                    store.insert(entry(
                        i % 200,
                        (i as f64 * 0.91) % 360.0,
                        0.05,
                        1.0 + i as f64,
                    ));
                }
            });
            let reader = s.spawn(|| {
                let rect = SkyRect::new(0.0, 360.0, 0.0, 0.1);
                for _ in 0..200 {
                    let hits = store.rect_search(&rect, &SourceFilter::default()).unwrap();
                    // Dedup invariant: ids strictly ascending.
                    assert!(hits.windows(2).all(|w| w[0].id < w[1].id));
                    let _ = store.brightest_n(5, Some(&rect));
                    let _ = store
                        .cone_search(&SkyCoord::new(180.0, 0.05), 3600.0)
                        .unwrap();
                }
            });
            writer.join().unwrap();
            reader.join().unwrap();
        });
        assert_eq!(store.len(), 200);
        assert_eq!(store.to_catalog().len(), 200);
    }

    #[test]
    fn a_source_seen_in_two_cells_is_answered_once() {
        let store = store_with(&[
            entry(1, 10.0, 10.0, 5.0),
            entry(2, 10.2, 10.0, 3.0),
            entry(4, 10.0, 10.1, 6.0),
            entry(6, 10.3, 10.1, 1.0),
        ]);
        // The state `insert` passes through mid-move: id 4's refit is
        // already in its new cell, its old copy not yet removed.
        let moved = entry(4, 10.5, 10.05, 5.5);
        let new_cell = CellId::of(&moved.pos, store.level);
        let old = store.get(4).unwrap();
        assert_ne!(new_cell, CellId::of(&old.pos, store.level));
        store.with_shard_write(store.shard_of(new_cell), |s| {
            s.cells
                .entry(new_cell)
                .or_default()
                .entries
                .insert(4, moved.clone());
        });
        let check = |what: &str, got: Vec<CatalogEntry>, want_ids: &[u64]| {
            let ids: Vec<u64> = got.iter().map(|e| e.id).collect();
            assert_eq!(ids, want_ids, "{what}");
            let copy = got.iter().find(|e| e.id == 4).unwrap();
            assert!(*copy == old || *copy == moved, "{what}: {copy:?}");
        };
        let mut cone: Vec<CatalogEntry> = store
            .cone_search(&SkyCoord::new(10.25, 10.05), 3600.0)
            .unwrap()
            .into_iter()
            .map(|(e, _)| e)
            .collect();
        cone.sort_by_key(|e| e.id);
        check("cone", cone, &[1, 2, 4, 6]);
        let rect = SkyRect::new(9.9, 10.6, 9.9, 10.2);
        check(
            "rect",
            store.rect_search(&rect, &SourceFilter::default()).unwrap(),
            &[1, 2, 4, 6],
        );
        // Both copies outrank every other source, so a top-2 that kept
        // copies rather than sources would answer [4, 4].
        for within in [None, Some(&rect)] {
            check("top-1", store.brightest_n(1, within), &[4]);
            check("top-2", store.brightest_n(2, within), &[4, 1]);
            check("top-3", store.brightest_n(3, within), &[4, 1, 2]);
            check("top-10", store.brightest_n(10, within), &[4, 1, 2, 6]);
        }
    }

    #[test]
    fn top_n_holds_at_most_2n_copies() {
        // Ascending flux makes every entry beat the current floor,
        // the worst case for the accumulator's size.
        for n in [1, 3, 20] {
            let mut top = TopN::new(n);
            for i in 0..500u64 {
                let e = entry(i, 10.0, 10.0, i as f64);
                assert!(top.admits(&e));
                top.push(&e);
                assert!(top.candidates.len() < 2 * n, "n={n} after {i}");
            }
            let ids: Vec<u64> = top.into_sorted().iter().map(|e| e.id).collect();
            let want: Vec<u64> = (0..500u64).rev().take(n).collect();
            assert_eq!(ids, want);
        }
    }

    #[test]
    fn per_cell_stats_track_occupancy_and_touches() {
        let store = store_with(&[
            entry(1, 10.0, 10.0, 1.0),
            entry(2, 10.0001, 10.0, 2.0),
            entry(3, 200.0, -40.0, 3.0),
        ]);
        let s = store.stats();
        assert_eq!(s.queries, 0);
        assert_eq!(s.per_cell.len(), s.cells);
        assert_eq!(s.per_cell.iter().map(|o| o.entries).sum::<usize>(), 3);
        assert!(s
            .per_cell
            .iter()
            .all(|o| o.touches == 0 && o.last_touch == 0));
        // Sorted ascending by cell id.
        let keys: Vec<_> = s
            .per_cell
            .iter()
            .map(|o| (o.cell.level, o.cell.ix, o.cell.iy))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);

        // A cone near (10, 10) touches that cell but not the far one.
        store.cone_search(&SkyCoord::new(10.0, 10.0), 5.0).unwrap();
        let s = store.stats();
        assert_eq!(s.queries, 1);
        let near = CellId::of(&SkyCoord::new(10.0, 10.0), store.level);
        let far = CellId::of(&SkyCoord::new(200.0, -40.0), store.level);
        let occ = |c: CellId| s.per_cell.iter().find(|o| o.cell == c).unwrap();
        assert!(occ(near).touches >= 1);
        assert_eq!(occ(near).last_touch, 1);
        assert_eq!(occ(far).touches, 0);
        // A whole-sky sweep touches every cell with a later stamp.
        store.brightest_n(1, None);
        let s = store.stats();
        assert_eq!(s.queries, 2);
        assert!(s.per_cell.iter().all(|o| o.last_touch == 2));
        // to_catalog is bookkeeping, not a query: counters unchanged.
        store.to_catalog();
        assert_eq!(store.stats().queries, 2);
    }

    #[test]
    fn insert_if_absent_never_clobbers() {
        let store = CatalogStore::default();
        assert!(store.insert_if_absent(entry(5, 10.0, 10.0, 1.0)));
        assert!(!store.insert_if_absent(entry(5, 20.0, 20.0, 9.0)));
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(5).unwrap().flux_r_nmgy, 1.0);
        assert_eq!(store.get(5).unwrap().pos.ra, 10.0);
    }

    #[test]
    fn take_cell_removes_exactly_one_cell() {
        let store = store_with(&[
            entry(1, 10.0, 10.0, 1.0),
            entry(2, 10.0001, 10.0, 2.0),
            entry(3, 200.0, -40.0, 3.0),
        ]);
        let near = CellId::of(&SkyCoord::new(10.0, 10.0), store.level);
        let taken = store.take_cell(near);
        let ids: Vec<u64> = taken.iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![1, 2], "ascending id order");
        assert_eq!(store.len(), 1);
        assert!(store.get(1).is_none());
        assert!(store.get(3).is_some());
        assert_eq!(store.stats().cells, 1);
        // Idempotent on an absent cell.
        assert!(store.take_cell(near).is_empty());
        // Taken entries fault back in cleanly.
        for e in taken {
            assert!(store.insert_if_absent(e));
        }
        assert_eq!(store.len(), 3);
    }

    #[test]
    fn covering_cells_matches_query_reach() {
        let entries: Vec<CatalogEntry> = (0..100)
            .map(|i| {
                entry(
                    i,
                    (i as f64 * 37.7) % 360.0,
                    ((i as f64 * 11.3) % 120.0) - 60.0,
                    (i as f64 * 7.1) % 50.0,
                )
            })
            .collect();
        let store = store_with(&entries);
        let queries = [
            CatalogQuery::Cone {
                center: SkyCoord::new(37.7, -48.7),
                radius_arcsec: 7200.0,
            },
            CatalogQuery::Rect {
                rect: SkyRect::new(10.0, 200.0, -30.0, 45.0),
                filter: SourceFilter::default(),
            },
            CatalogQuery::BrightestN {
                n: 10,
                within: Some(SkyRect::new(0.0, 90.0, -90.0, 0.0)),
            },
        ];
        for q in &queries {
            let cells = store.covering_cells(q).unwrap().expect("bounded query");
            let cellset: std::collections::HashSet<CellId> = cells.into_iter().collect();
            // Every hit must live in a covered cell, else the serving
            // layer's fault-in would miss spilled results.
            for e in store.query(q).unwrap() {
                assert!(
                    cellset.contains(&CellId::of(&e.pos, store.level)),
                    "hit {} outside covering set for {q:?}",
                    e.id
                );
            }
        }
        assert_eq!(
            store
                .covering_cells(&CatalogQuery::BrightestN { n: 3, within: None })
                .unwrap(),
            None,
            "whole-sky sweep has no bounded covering"
        );
        // Validation mirrors the queries themselves.
        assert!(store
            .covering_cells(&CatalogQuery::Cone {
                center: SkyCoord::new(f64::NAN, 0.0),
                radius_arcsec: 1.0
            })
            .is_err());
        assert!(store
            .covering_cells(&CatalogQuery::Cone {
                center: SkyCoord::new(0.0, 0.0),
                radius_arcsec: -1.0
            })
            .is_err());
    }
}
