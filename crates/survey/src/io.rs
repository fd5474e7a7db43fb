//! On-disk image store and prefetching loader.
//!
//! Real Celeste stages 178 TB of FITS files through Cori's Burst Buffer
//! and prefetches the images for a node's next task while the current
//! one computes (paper §IV-A, §VII). This module provides the same
//! moving parts at laptop scale: a binary container ("SIMG"), a
//! directory-backed [`ImageStore`], and a [`Prefetcher`] that loads
//! images on background threads ahead of use. The SIMG image and SCAT
//! catalog codecs read through the checked [`crate::codec::Reader`],
//! and SCAT entries use the shared [`crate::codec`] entry layout.

use crate::bands::Band;
use crate::catalog::Catalog;
use crate::codec::{
    self, put_entry, put_header, write_atomic, CodecError, Reader, Version, ENTRY_BYTES,
};
use crate::image::Image;
use crate::psf::{Psf, PsfComponent};
use crate::sampling::mix64;
use crate::skygeom::{FieldId, SkyCoord};
use crate::wcs::Wcs;
use bytes::{BufMut, Bytes, BytesMut};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"SIMG";
const CAT_MAGIC: &[u8; 4] = b"SCAT";
const VERSION: u8 = 1;

/// Errors from the image store.
#[derive(Debug)]
pub enum IoError {
    Io(std::io::Error),
    /// The file did not parse as a SIMG image or SCAT catalog.
    Format(String),
    /// A background prefetch worker failed to load the image (the
    /// underlying store error, carried as text across the worker
    /// boundary).
    Prefetch(String),
    /// A deterministic fault-injection failure (chaos testing): the
    /// store was configured with [`LoadFaults`] and this load drew a
    /// scheduled error.
    Injected(String),
}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

impl From<CodecError> for IoError {
    fn from(e: CodecError) -> Self {
        IoError::Format(e.to_string())
    }
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Format(m) => write!(f, "format error: {m}"),
            IoError::Prefetch(m) => write!(f, "prefetch failed: {m}"),
            IoError::Injected(m) => write!(f, "injected fault: {m}"),
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Io(e) => Some(e),
            IoError::Format(_) | IoError::Prefetch(_) | IoError::Injected(_) => None,
        }
    }
}

/// Serialize an image to the SIMG binary layout.
pub fn encode_image(img: &Image) -> Bytes {
    let mut b = BytesMut::with_capacity(128 + img.pixels.len() * 4);
    put_header(&mut b, MAGIC, Version::U8(VERSION));
    b.put_u32_le(img.field.run);
    b.put_u16_le(img.field.camcol);
    b.put_u16_le(img.field.field);
    b.put_u8(img.band.index() as u8);
    b.put_u32_le(img.width as u32);
    b.put_u32_le(img.height as u32);
    b.put_f64_le(img.wcs.sky0.ra);
    b.put_f64_le(img.wcs.sky0.dec);
    b.put_f64_le(img.wcs.pix0[0]);
    b.put_f64_le(img.wcs.pix0[1]);
    for row in &img.wcs.jac {
        for &v in row {
            b.put_f64_le(v);
        }
    }
    b.put_f64_le(img.sky_level);
    b.put_f64_le(img.nmgy_to_counts);
    b.put_u8(img.psf.components.len() as u8);
    for c in &img.psf.components {
        b.put_f64_le(c.weight);
        b.put_f64_le(c.sigma_px);
    }
    for &p in &img.pixels {
        b.put_f32_le(p);
    }
    b.freeze()
}

/// Parse a SIMG buffer back into an [`Image`].
pub fn decode_image(buf: &[u8]) -> Result<Image, IoError> {
    let mut r = Reader::open(buf, MAGIC, Version::U8(VERSION))?;
    let field = FieldId {
        run: r.u32()?,
        camcol: r.u16()?,
        field: r.u16()?,
    };
    let band = codec::band(r.u8()?)?;
    let width = r.u32()? as usize;
    let height = r.u32()? as usize;
    let wcs = Wcs {
        sky0: SkyCoord::new(r.f64()?, r.f64()?),
        pix0: [r.f64()?, r.f64()?],
        jac: [[r.f64()?, r.f64()?], [r.f64()?, r.f64()?]],
    };
    let sky_level = r.f64()?;
    let nmgy_to_counts = r.f64()?;
    let n_components = usize::from(r.u8()?);
    let components = r.items(n_components, 16, "psf", |r| {
        Ok(PsfComponent {
            weight: r.f64()?,
            sigma_px: r.f64()?,
        })
    })?;
    let n_pixels = width
        .checked_mul(height)
        .ok_or(CodecError::Overflow("pixels"))?;
    let pixels = r.f32s(n_pixels, "pixels")?;
    r.finish()?;
    Ok(Image {
        field,
        band,
        wcs,
        width,
        height,
        pixels,
        sky_level,
        nmgy_to_counts,
        psf: Arc::new(Psf { components }),
    })
}

/// Serialize a catalog to the SCAT binary layout.
pub fn encode_catalog(catalog: &Catalog) -> Bytes {
    let mut b = BytesMut::with_capacity(9 + catalog.len() * ENTRY_BYTES);
    put_header(&mut b, CAT_MAGIC, Version::U8(VERSION));
    b.put_u32_le(catalog.len() as u32);
    for e in &catalog.entries {
        put_entry(&mut b, e);
    }
    b.freeze()
}

/// Parse a SCAT buffer back into a catalog.
pub fn decode_catalog(buf: &[u8]) -> Result<Catalog, IoError> {
    let mut r = Reader::open(buf, CAT_MAGIC, Version::U8(VERSION))?;
    let n = r.u32()? as usize;
    let entries = r.entries(n)?;
    r.finish()?;
    Ok(Catalog::new(entries))
}

/// A key identifying one stored image.
pub type ImageKey = (FieldId, Band);

/// Deterministic I/O fault injection for [`ImageStore::load`]: the
/// k-th load of a given key fails with [`IoError::Injected`] iff a
/// seeded hash of `(seed, key, k)` falls below `rate`, independent of
/// thread interleaving — the same store sees the same fault schedule
/// on every run. At most `max_per_key` failures are injected per key,
/// so retrying loaders always heal (set it above the retry budget to
/// force quarantine instead).
///
/// This exercises the *production* load path — the prefetcher, the
/// campaign's blocking fetches, and their error handling all see the
/// injected error exactly where a real filesystem error would appear.
pub struct LoadFaults {
    seed: u64,
    rate: f64,
    max_per_key: u32,
    /// Per-key (loads attempted, failures injected).
    counts: Mutex<HashMap<ImageKey, (u32, u32)>>,
    injected: std::sync::atomic::AtomicU64,
}

impl LoadFaults {
    /// A fault schedule failing roughly `rate` of loads (per key, per
    /// load attempt), at most `max_per_key` times per key.
    pub fn new(seed: u64, rate: f64, max_per_key: u32) -> LoadFaults {
        LoadFaults {
            seed,
            rate,
            max_per_key,
            counts: Mutex::new(HashMap::new()),
            injected: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Total failures injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Whether the k-th load of `key` is scheduled to fail (pure
    /// function of the seed — what `check` consults).
    pub fn scheduled(&self, key: &ImageKey, k: u32) -> bool {
        let (f, b) = key;
        let kh = ((f.run as u64) << 32) ^ ((f.camcol as u64) << 16) ^ f.field as u64;
        let h = mix64(self.seed ^ mix64(kh ^ ((b.index() as u64) << 48)) ^ k as u64);
        let unit = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < self.rate
    }

    fn check(&self, key: &ImageKey) -> Result<(), IoError> {
        let mut counts = self.counts.lock();
        let entry = counts.entry(*key).or_insert((0, 0));
        let k = entry.0;
        entry.0 += 1;
        if entry.1 < self.max_per_key && self.scheduled(key, k) {
            entry.1 += 1;
            self.injected
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let (f, b) = key;
            return Err(IoError::Injected(format!(
                "scheduled load failure for {:?}/{} (load #{k})",
                f,
                b.name()
            )));
        }
        Ok(())
    }
}

impl std::fmt::Debug for LoadFaults {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoadFaults")
            .field("seed", &self.seed)
            .field("rate", &self.rate)
            .field("max_per_key", &self.max_per_key)
            .field("injected", &self.injected())
            .finish()
    }
}

/// Directory-backed image storage, one SIMG file per (field, band).
#[derive(Debug, Clone)]
pub struct ImageStore {
    root: PathBuf,
    /// Optional deterministic fault schedule applied to loads.
    faults: Option<Arc<LoadFaults>>,
}

impl ImageStore {
    /// Open (creating the directory if needed).
    pub fn open(root: impl AsRef<Path>) -> Result<ImageStore, IoError> {
        std::fs::create_dir_all(root.as_ref())?;
        Ok(ImageStore {
            root: root.as_ref().to_path_buf(),
            faults: None,
        })
    }

    /// This store with a deterministic load-fault schedule attached
    /// (saves and catalog I/O are unaffected). Clones share the
    /// schedule's counters.
    pub fn with_load_faults(mut self, faults: Arc<LoadFaults>) -> ImageStore {
        self.faults = Some(faults);
        self
    }

    /// The file path for a key.
    pub fn path_for(&self, key: &ImageKey) -> PathBuf {
        let (f, b) = key;
        self.root.join(format!(
            "{:06}-{}-{:04}-{}.simg",
            f.run,
            f.camcol,
            f.field,
            b.name()
        ))
    }

    /// Persist an image (atomically, see [`write_atomic`]).
    pub fn save(&self, img: &Image) -> Result<(), IoError> {
        let path = self.path_for(&(img.field, img.band));
        Ok(write_atomic(&path, &encode_image(img))?)
    }

    /// Load an image. With [`ImageStore::with_load_faults`] attached,
    /// scheduled loads fail with [`IoError::Injected`] before touching
    /// the filesystem.
    pub fn load(&self, key: &ImageKey) -> Result<Image, IoError> {
        if let Some(faults) = &self.faults {
            faults.check(key)?;
        }
        decode_image(&std::fs::read(self.path_for(key))?)
    }

    /// Persist a catalog under `name` (e.g. the campaign output),
    /// atomically.
    pub fn save_catalog(&self, name: &str, catalog: &Catalog) -> Result<(), IoError> {
        let path = self.root.join(format!("{name}.scat"));
        Ok(write_atomic(&path, &encode_catalog(catalog))?)
    }

    /// Load a catalog previously saved with [`ImageStore::save_catalog`].
    pub fn load_catalog(&self, name: &str) -> Result<Catalog, IoError> {
        decode_catalog(&std::fs::read(self.root.join(format!("{name}.scat")))?)
    }

    /// All keys currently stored.
    pub fn list(&self) -> Result<Vec<ImageKey>, IoError> {
        let mut keys = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(stem) = name.strip_suffix(".simg") {
                let parts: Vec<&str> = stem.split('-').collect();
                if parts.len() == 4 {
                    let run = parts[0].parse().ok();
                    let camcol = parts[1].parse().ok();
                    let field = parts[2].parse().ok();
                    let band = Band::ALL.iter().find(|b| b.name() == parts[3]).copied();
                    if let (Some(run), Some(camcol), Some(field), Some(band)) =
                        (run, camcol, field, band)
                    {
                        keys.push((FieldId { run, camcol, field }, band));
                    }
                }
            }
        }
        keys.sort();
        Ok(keys)
    }
}

enum Slot {
    Pending,
    Ready(Arc<Image>),
    Failed(String),
}

struct PrefetchShared {
    slots: Mutex<HashMap<ImageKey, Slot>>,
    ready: Condvar,
}

/// Background image loader: request keys ahead of time, then block on
/// [`Prefetcher::get`] only if the load hasn't finished yet. This is
/// the laptop-scale analogue of the paper's image prefetch that hides
/// Burst Buffer latency behind the previous task's compute.
pub struct Prefetcher {
    shared: Arc<PrefetchShared>,
    tx: crossbeam::channel::Sender<ImageKey>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Prefetcher {
    /// Spawn `n_workers` loader threads over the store.
    pub fn new(store: ImageStore, n_workers: usize) -> Prefetcher {
        let shared = Arc::new(PrefetchShared {
            slots: Mutex::new(HashMap::new()),
            ready: Condvar::new(),
        });
        let (tx, rx) = crossbeam::channel::unbounded::<ImageKey>();
        let workers = (0..n_workers.max(1))
            .map(|_| {
                let rx = rx.clone();
                let shared = Arc::clone(&shared);
                let store = store.clone();
                std::thread::spawn(move || {
                    for key in rx.iter() {
                        let result = store.load(&key);
                        let mut slots = shared.slots.lock();
                        match result {
                            Ok(img) => slots.insert(key, Slot::Ready(Arc::new(img))),
                            Err(e) => slots.insert(key, Slot::Failed(e.to_string())),
                        };
                        shared.ready.notify_all();
                    }
                })
            })
            .collect();
        Prefetcher {
            shared,
            tx,
            workers,
        }
    }

    /// Queue keys for background loading (idempotent per key).
    pub fn request(&self, keys: &[ImageKey]) {
        let mut slots = self.shared.slots.lock();
        for key in keys {
            if !slots.contains_key(key) {
                slots.insert(*key, Slot::Pending);
                // The worker channel outlives all requests; a send
                // error only happens when the prefetcher is shutting
                // down, in which case the key is simply not loaded.
                let _ = self.tx.send(*key);
            }
        }
    }

    /// Get an image, blocking until its background load completes.
    /// Requests the key first if it was never requested.
    pub fn get(&self, key: &ImageKey) -> Result<Arc<Image>, IoError> {
        let mut slots = self.shared.slots.lock();
        loop {
            match slots.get(key) {
                Some(Slot::Ready(img)) => return Ok(Arc::clone(img)),
                Some(Slot::Failed(msg)) => return Err(IoError::Prefetch(msg.clone())),
                Some(Slot::Pending) => self.shared.ready.wait(&mut slots),
                // Absent: never requested, or a concurrent `evict`
                // dropped the finished load while we were waiting
                // (tasks share image keys, so one task's completion
                // can evict a key another getter still wants). Either
                // way, waiting would block forever — no worker
                // repopulates a missing slot — so re-issue the load.
                None => {
                    slots.insert(*key, Slot::Pending);
                    let _ = self.tx.send(*key);
                }
            }
        }
    }

    /// Drop a cached image to bound memory (next `get` reloads it).
    pub fn evict(&self, key: &ImageKey) {
        self.shared.slots.lock().remove(key);
    }

    /// Number of images currently resident.
    pub fn resident(&self) -> usize {
        self.shared
            .slots
            .lock()
            .values()
            .filter(|s| matches!(s, Slot::Ready(_)))
            .count()
    }
}

impl Drop for Prefetcher {
    fn drop(&mut self) {
        // Closing the channel stops the workers.
        let (tx, _) = crossbeam::channel::bounded(0);
        drop(std::mem::replace(&mut self.tx, tx));
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skygeom::SkyRect;

    fn test_image(run: u32, band: Band) -> Image {
        let rect = SkyRect::new(0.0, 0.1, 0.0, 0.1);
        let mut img = Image::blank(
            FieldId {
                run,
                camcol: 1,
                field: 3,
            },
            band,
            Wcs::for_rect(&rect, 16, 16),
            16,
            16,
            100.0,
            300.0,
            Psf::core_halo(1.3),
        );
        for (i, p) in img.pixels.iter_mut().enumerate() {
            *p = i as f32 * 0.5;
        }
        img
    }

    #[test]
    fn encode_decode_roundtrip() {
        let img = test_image(42, Band::G);
        let decoded = decode_image(&encode_image(&img)).unwrap();
        assert_eq!(decoded.field, img.field);
        assert_eq!(decoded.band, img.band);
        assert_eq!(decoded.pixels, img.pixels);
        assert_eq!(decoded.wcs, img.wcs);
        assert_eq!(decoded.psf, img.psf);
        assert_eq!(decoded.sky_level, img.sky_level);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_image(b"not an image").is_err());
        assert!(decode_image(b"SIM").is_err());
        // Truncated after header.
        let full = encode_image(&test_image(1, Band::R));
        assert!(decode_image(&full[..40]).is_err());
    }

    #[test]
    fn decode_image_rejects_overflowing_dimensions_and_trailing_bytes() {
        // A valid SIMG header claiming a 2^31 × 2^31 image: the pixel
        // body length overflows `usize` and must be a typed error.
        let mut header = Vec::new();
        put_header(&mut header, MAGIC, Version::U8(VERSION));
        header.put_u32_le(3704);
        header.put_u16_le(3);
        header.put_u16_le(91);
        header.put_u8(2);
        header.put_u32_le(0x8000_0000);
        header.put_u32_le(0x8000_0000);
        for _ in 0..10 {
            header.put_f64_le(1.0);
        }
        header.put_u8(0);
        assert!(matches!(decode_image(&header), Err(IoError::Format(_))));
        header.extend_from_slice(&[0; 64]);
        assert!(matches!(decode_image(&header), Err(IoError::Format(_))));

        let mut trailing = encode_image(&test_image(1, Band::R)).to_vec();
        trailing.push(0);
        assert!(matches!(decode_image(&trailing), Err(IoError::Format(_))));
    }

    #[test]
    fn decode_catalog_rejects_unknown_types_and_trailing_bytes() {
        use crate::catalog::{CatalogEntry, GalaxyShape, SourceType};
        let cat = Catalog::new(vec![CatalogEntry {
            id: 5,
            pos: SkyCoord::new(1.0, 2.0),
            source_type: SourceType::Galaxy,
            flux_r_nmgy: 3.0,
            colors: [0.0; 4],
            shape: GalaxyShape::round_disk(1.0),
        }]);
        let good = encode_catalog(&cat).to_vec();
        // Source-type byte of the first entry: header 9 + id 8 + pos 16.
        let mut bad_type = good.clone();
        bad_type[9 + 24] = 7;
        assert!(matches!(decode_catalog(&bad_type), Err(IoError::Format(_))));
        let mut trailing = good;
        trailing.extend_from_slice(b"junk");
        assert!(matches!(decode_catalog(&trailing), Err(IoError::Format(_))));
    }

    #[test]
    fn store_save_load_list() {
        let dir = std::env::temp_dir().join(format!("celeste-io-test-{}", std::process::id()));
        let store = ImageStore::open(&dir).unwrap();
        let img = test_image(7, Band::Z);
        store.save(&img).unwrap();
        let key = (img.field, img.band);
        let loaded = store.load(&key).unwrap();
        assert_eq!(loaded.pixels, img.pixels);
        assert_eq!(store.list().unwrap(), vec![key]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prefetcher_loads_in_background() {
        let dir =
            std::env::temp_dir().join(format!("celeste-prefetch-test-{}", std::process::id()));
        let store = ImageStore::open(&dir).unwrap();
        let keys: Vec<ImageKey> = (0..6)
            .map(|i| {
                let img = test_image(i, Band::R);
                store.save(&img).unwrap();
                (img.field, img.band)
            })
            .collect();
        let pf = Prefetcher::new(store, 3);
        pf.request(&keys);
        for key in &keys {
            let img = pf.get(key).unwrap();
            assert_eq!((img.field, img.band), *key);
        }
        assert_eq!(pf.resident(), 6);
        pf.evict(&keys[0]);
        assert_eq!(pf.resident(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn catalog_roundtrip() {
        use crate::catalog::{Catalog, CatalogEntry, GalaxyShape, SourceType};
        let cat = Catalog::new(vec![
            CatalogEntry {
                id: 3,
                pos: SkyCoord::new(1.25, -0.75),
                source_type: SourceType::Galaxy,
                flux_r_nmgy: 4.5,
                colors: [0.1, -0.2, 0.3, 0.4],
                shape: GalaxyShape {
                    frac_dev: 0.6,
                    axis_ratio: 0.4,
                    angle_rad: 1.2,
                    radius_arcsec: 2.5,
                },
            },
            CatalogEntry {
                id: 9,
                pos: SkyCoord::new(0.0, 0.0),
                source_type: SourceType::Star,
                flux_r_nmgy: 10.0,
                colors: [0.0; 4],
                shape: GalaxyShape::round_disk(1.0),
            },
        ]);
        let decoded = decode_catalog(&encode_catalog(&cat)).unwrap();
        assert_eq!(decoded.entries, cat.entries);
        assert!(decode_catalog(b"garbage").is_err());
    }

    #[test]
    fn store_catalog_roundtrip() {
        use crate::catalog::{Catalog, CatalogEntry, GalaxyShape, SourceType};
        let dir = std::env::temp_dir().join(format!("celeste-scat-test-{}", std::process::id()));
        let store = ImageStore::open(&dir).unwrap();
        let cat = Catalog::new(vec![CatalogEntry {
            id: 1,
            pos: SkyCoord::new(0.5, 0.5),
            source_type: SourceType::Star,
            flux_r_nmgy: 2.0,
            colors: [0.2; 4],
            shape: GalaxyShape::round_disk(1.0),
        }]);
        store.save_catalog("output", &cat).unwrap();
        let loaded = store.load_catalog("output").unwrap();
        assert_eq!(loaded.entries, cat.entries);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_faults_are_deterministic_and_bounded() {
        let dir = std::env::temp_dir().join(format!("celeste-faults-test-{}", std::process::id()));
        let store = ImageStore::open(&dir).unwrap();
        let img = test_image(3, Band::R);
        store.save(&img).unwrap();
        let key = (img.field, img.band);

        // rate = 1.0 with a failure cap of 2: exactly the first two
        // loads fail, every later load succeeds.
        let faults = Arc::new(LoadFaults::new(11, 1.0, 2));
        let store = store.with_load_faults(Arc::clone(&faults));
        assert!(matches!(store.load(&key), Err(IoError::Injected(_))));
        assert!(matches!(store.load(&key), Err(IoError::Injected(_))));
        assert!(store.load(&key).is_ok());
        assert!(store.load(&key).is_ok());
        assert_eq!(faults.injected(), 2);

        // The schedule is a pure function of (seed, key, attempt):
        // two independent instances agree on every decision.
        let a = LoadFaults::new(42, 0.5, u32::MAX);
        let b = LoadFaults::new(42, 0.5, u32::MAX);
        for k in 0..64 {
            assert_eq!(a.scheduled(&key, k), b.scheduled(&key, k));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prefetcher_reports_missing_file() {
        let dir =
            std::env::temp_dir().join(format!("celeste-prefetch-miss-{}", std::process::id()));
        let store = ImageStore::open(&dir).unwrap();
        let pf = Prefetcher::new(store, 1);
        let missing = (
            FieldId {
                run: 999,
                camcol: 9,
                field: 9,
            },
            Band::U,
        );
        assert!(pf.get(&missing).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
