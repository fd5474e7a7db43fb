//! Task generation: recursive equal-work sky partitioning (paper §IV-A).
//!
//! "We partition the sky recursively into regions that we expect to
//! contain roughly the same number of bright pixels, based on existing
//! astronomical catalogs." Tasks are generated during preprocessing
//! from the initialization catalog alone (no image data), and a second
//! *shifted* partition stage picks up sources near first-stage borders.

use celeste_survey::catalog::{Catalog, CatalogEntry};
use celeste_survey::skygeom::SkyRect;

/// One node-level task: jointly optimize the sources of a sky region
/// with neighbors held fixed.
#[derive(Debug, Clone)]
pub struct RegionTask {
    pub id: u64,
    /// 0 for the base partition, 1 for the shifted partition.
    pub stage: u8,
    pub rect: SkyRect,
    /// Indices into the initialization catalog.
    pub source_indices: Vec<usize>,
    /// Predicted work (bright-pixel proxy) — what the splitter
    /// balanced on.
    pub predicted_work: f64,
}

/// Partitioning configuration.
#[derive(Debug, Clone, Copy)]
pub struct PartitionConfig {
    /// Target predicted work per task (in bright-pixel units).
    pub target_work: f64,
    /// Hard cap on sources per task (paper: "a typical task involves
    /// jointly optimizing roughly 500 light sources").
    pub max_sources: usize,
}

/// Shift of the stage-2 partition, as a fraction of the mean region
/// side.
const STAGE2_SHIFT: f64 = 0.5;

/// Padding (degrees) around a region rect within which a campaign
/// holds neighbor sources fixed (15″).
pub const NEIGHBOR_PAD_DEG: f64 = 15.0 / 3600.0;

/// A task's fixed neighbors: the indices of the initialization-catalog
/// entries inside the task rect padded by [`NEIGHBOR_PAD_DEG`] that are
/// not the task's own sources, in catalog order. The campaign holds
/// exactly these fixed during the task's fit, and the store's
/// provenance keys fold in exactly these.
pub fn fixed_neighbor_indices<'a>(
    task: &'a RegionTask,
    init: &'a Catalog,
) -> impl Iterator<Item = usize> + 'a {
    let rect = task.rect.padded(NEIGHBOR_PAD_DEG);
    init.entries
        .iter()
        .enumerate()
        .filter(move |(i, e)| !task.source_indices.contains(i) && rect.contains(&e.pos))
        .map(|(i, _)| i)
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig {
            target_work: 4000.0,
            max_sources: 500,
        }
    }
}

/// Bright-pixel proxy for one source: how many pixels it will light up
/// above threshold scales with log-flux (area of an isophote) and, for
/// galaxies, with its angular size.
pub fn predicted_work(entry: &CatalogEntry) -> f64 {
    let brightness = (1.0 + entry.flux_r_nmgy.max(0.0)).ln();
    let extent = if entry.is_star() {
        1.0
    } else {
        1.0 + entry.shape.radius_arcsec * entry.shape.radius_arcsec
    };
    10.0 * brightness * extent
}

/// Invalid partitioning input (an initialization catalog is untrusted
/// external data — it may come from a different survey's files).
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionError {
    /// A source's sky position is NaN or infinite.
    NonFinitePosition {
        /// The offending catalog entry's id.
        id: u64,
    },
    /// A source's predicted work is NaN or infinite (non-finite flux
    /// or galaxy shape).
    NonFiniteWork {
        /// The offending catalog entry's id.
        id: u64,
    },
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::NonFinitePosition { id } => {
                write!(f, "source {id} has a non-finite sky position")
            }
            PartitionError::NonFiniteWork { id } => {
                write!(f, "source {id} has non-finite predicted work")
            }
        }
    }
}

impl std::error::Error for PartitionError {}

/// Generate both partition stages for `catalog` over `footprint`.
/// Panics on catalogs with non-finite positions or fluxes; the
/// validating form is [`try_partition_sky`].
pub fn partition_sky(
    catalog: &Catalog,
    footprint: &SkyRect,
    cfg: &PartitionConfig,
) -> Vec<RegionTask> {
    try_partition_sky(catalog, footprint, cfg).unwrap_or_else(|e| panic!("partition_sky: {e}"))
}

/// [`partition_sky`] with input validation: malformed catalog entries
/// come back as a typed [`PartitionError`] naming the offending
/// source, instead of a panic (or a corrupt partition) deep inside
/// the splitter. After validation the splitter itself is panic-free:
/// its comparisons use `total_cmp` and every interior `expect`
/// documents an invariant the validation establishes.
pub fn try_partition_sky(
    catalog: &Catalog,
    footprint: &SkyRect,
    cfg: &PartitionConfig,
) -> Result<Vec<RegionTask>, PartitionError> {
    for e in &catalog.entries {
        if !(e.pos.ra.is_finite() && e.pos.dec.is_finite()) {
            return Err(PartitionError::NonFinitePosition { id: e.id });
        }
        if !predicted_work(e).is_finite() {
            return Err(PartitionError::NonFiniteWork { id: e.id });
        }
    }
    Ok(partition_sky_validated(catalog, footprint, cfg))
}

/// The splitter proper; positions and works are finite by the time we
/// get here (checked by [`try_partition_sky`]).
fn partition_sky_validated(
    catalog: &Catalog,
    footprint: &SkyRect,
    cfg: &PartitionConfig,
) -> Vec<RegionTask> {
    let works: Vec<f64> = catalog.entries.iter().map(predicted_work).collect();
    let mut tasks = Vec::new();
    // Stage 1.
    let all: Vec<usize> = (0..catalog.len()).collect();
    recursive_split(catalog, &works, *footprint, all, cfg, &mut tasks, 0);
    // Stage 2: "creating a second partitioning of the sky by shifting
    // each region in the first partition by a fixed amount" (§IV-A).
    // A constant shift of a tiling is a tiling of the shifted
    // footprint; rects on the low edges are extended back to cover the
    // uncovered strip, so every source falls in exactly one region.
    if !tasks.is_empty() {
        let mean_w: f64 =
            tasks.iter().map(|t| t.rect.width_deg()).sum::<f64>() / tasks.len() as f64;
        let mean_h: f64 =
            tasks.iter().map(|t| t.rect.height_deg()).sum::<f64>() / tasks.len() as f64;
        let dx = STAGE2_SHIFT * mean_w;
        let dy = STAGE2_SHIFT * mean_h;
        let eps = 1e-12;
        let rects: Vec<SkyRect> = tasks
            .iter()
            .map(|t| {
                let mut r = SkyRect::new(
                    t.rect.ra_min + dx,
                    t.rect.ra_max + dx,
                    t.rect.dec_min + dy,
                    t.rect.dec_max + dy,
                );
                if t.rect.ra_min <= footprint.ra_min + eps {
                    r.ra_min = footprint.ra_min;
                }
                if t.rect.dec_min <= footprint.dec_min + eps {
                    r.dec_min = footprint.dec_min;
                }
                r
            })
            .collect();
        let mut rects = rects;
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); rects.len()];
        for (i, e) in catalog.entries.iter().enumerate() {
            if let Some(r) = rects.iter().position(|r| r.contains(&e.pos)) {
                members[r].push(i);
            } else {
                // Empty stage-1 regions are never emitted, so the
                // shifted tiling can have holes; orphaned sources go to
                // the nearest stage-2 region, whose rect grows to
                // cover them.
                let nearest = rects
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| {
                        let da = e.pos.sep_arcsec(&a.center());
                        let db = e.pos.sep_arcsec(&b.center());
                        da.total_cmp(&db)
                    })
                    .map(|(j, _)| j)
                    // Invariant: stage 2 only runs when stage 1 emitted
                    // tasks (`!tasks.is_empty()` above), and each stage-1
                    // task contributes one shifted rect, so `rects` is
                    // nonempty here.
                    .expect("stage-2 rects nonempty");
                let r = &mut rects[nearest];
                r.ra_min = r.ra_min.min(e.pos.ra);
                r.ra_max = r.ra_max.max(e.pos.ra + 1e-9);
                r.dec_min = r.dec_min.min(e.pos.dec);
                r.dec_max = r.dec_max.max(e.pos.dec + 1e-9);
                members[nearest].push(i);
            }
        }
        for (rect, indices) in rects.into_iter().zip(members) {
            if indices.is_empty() {
                continue;
            }
            // Shifted re-binning can concentrate work past the caps;
            // split any oversize stage-2 region recursively.
            let mut stage2 = Vec::new();
            recursive_split(catalog, &works, rect, indices, cfg, &mut stage2, 0);
            for mut t in stage2 {
                t.stage = 1;
                tasks.push(t);
            }
        }
    }
    for (i, t) in tasks.iter_mut().enumerate() {
        t.id = i as u64;
    }
    tasks
}

fn recursive_split(
    catalog: &Catalog,
    works: &[f64],
    rect: SkyRect,
    indices: Vec<usize>,
    cfg: &PartitionConfig,
    out: &mut Vec<RegionTask>,
    depth: usize,
) {
    let total: f64 = indices.iter().map(|&i| works[i]).sum();
    if indices.is_empty() {
        return;
    }
    if (total <= cfg.target_work && indices.len() <= cfg.max_sources) || depth > 40 {
        out.push(RegionTask {
            id: 0,
            stage: 0,
            rect,
            source_indices: indices,
            predicted_work: total,
        });
        return;
    }
    // Split along the longer axis at the weighted median of source
    // work, so both halves get ≈ equal predicted work.
    let horizontal = rect.width_deg() >= rect.height_deg();
    let mut sorted = indices.clone();
    sorted.sort_by(|&a, &b| {
        let ka = if horizontal {
            catalog.entries[a].pos.ra
        } else {
            catalog.entries[a].pos.dec
        };
        let kb = if horizontal {
            catalog.entries[b].pos.ra
        } else {
            catalog.entries[b].pos.dec
        };
        ka.total_cmp(&kb)
    });
    let mut acc = 0.0;
    let mut cut_pos = None;
    for &i in &sorted {
        acc += works[i];
        if acc >= 0.5 * total {
            cut_pos = Some(if horizontal {
                catalog.entries[i].pos.ra
            } else {
                catalog.entries[i].pos.dec
            });
            break;
        }
    }
    let lo = if horizontal {
        rect.ra_min
    } else {
        rect.dec_min
    };
    let hi = if horizontal {
        rect.ra_max
    } else {
        rect.dec_max
    };
    let mut cut = cut_pos.unwrap_or(0.5 * (lo + hi));
    // Degenerate cuts (all sources at one edge) fall back to midpoint.
    if cut <= lo || cut >= hi {
        cut = 0.5 * (lo + hi);
    }
    let (r1, r2) = if horizontal {
        (
            SkyRect::new(rect.ra_min, cut, rect.dec_min, rect.dec_max),
            SkyRect::new(cut, rect.ra_max, rect.dec_min, rect.dec_max),
        )
    } else {
        (
            SkyRect::new(rect.ra_min, rect.ra_max, rect.dec_min, cut),
            SkyRect::new(rect.ra_min, rect.ra_max, cut, rect.dec_max),
        )
    };
    let (i1, i2): (Vec<usize>, Vec<usize>) = indices
        .into_iter()
        .partition(|&i| r1.contains(&catalog.entries[i].pos));
    // Guard: if the cut failed to separate anything, force a midpoint
    // split of indices to guarantee progress.
    if i1.is_empty() || i2.is_empty() {
        let mut both: Vec<usize> = i1.into_iter().chain(i2).collect();
        both.sort_unstable();
        let mid = both.len() / 2;
        let right = both.split_off(mid);
        recursive_split(catalog, works, r1, both, cfg, out, depth + 1);
        recursive_split(catalog, works, r2, right, cfg, out, depth + 1);
        return;
    }
    recursive_split(catalog, works, r1, i1, cfg, out, depth + 1);
    recursive_split(catalog, works, r2, i2, cfg, out, depth + 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use celeste_survey::priors::Priors;
    use celeste_survey::skygeom::SkyCoord;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn test_catalog(n: usize) -> (Catalog, SkyRect) {
        let fp = SkyRect::new(0.0, 1.0, 0.0, 0.5);
        let priors = Priors::sdss_default();
        let mut rng = StdRng::seed_from_u64(7);
        let entries = (0..n)
            .map(|i| {
                // Cluster density toward low RA to exercise balance.
                let ra = rng.random::<f64>().powi(2);
                let dec = rng.random::<f64>() * 0.5;
                priors.sample_entry(&mut rng, i as u64, SkyCoord::new(ra, dec))
            })
            .collect();
        (Catalog::new(entries), fp)
    }

    #[test]
    fn malformed_catalogs_are_rejected_with_typed_errors() {
        let (mut cat, fp) = test_catalog(16);
        let cfg = PartitionConfig::default();
        assert!(try_partition_sky(&cat, &fp, &cfg).is_ok());

        let good_pos = cat.entries[3].pos;
        cat.entries[3].pos = SkyCoord::new(f64::NAN, 0.1);
        assert_eq!(
            try_partition_sky(&cat, &fp, &cfg).err(),
            Some(PartitionError::NonFinitePosition {
                id: cat.entries[3].id
            })
        );

        cat.entries[3].pos = good_pos;
        cat.entries[5].flux_r_nmgy = f64::INFINITY;
        assert_eq!(
            try_partition_sky(&cat, &fp, &cfg).err(),
            Some(PartitionError::NonFiniteWork {
                id: cat.entries[5].id
            })
        );
    }

    #[test]
    fn every_source_lands_in_exactly_one_stage1_region() {
        let (cat, fp) = test_catalog(2000);
        let tasks = partition_sky(&cat, &fp, &PartitionConfig::default());
        let stage1: Vec<&RegionTask> = tasks.iter().filter(|t| t.stage == 0).collect();
        let mut seen = vec![0usize; cat.len()];
        for t in &stage1 {
            for &i in &t.source_indices {
                seen[i] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "coverage counts wrong");
        // Rects must not overlap.
        for (a, ta) in stage1.iter().enumerate() {
            for tb in stage1.iter().skip(a + 1) {
                assert!(!ta.rect.intersects(&tb.rect), "overlapping regions");
            }
        }
    }

    #[test]
    fn work_is_roughly_balanced() {
        let (cat, fp) = test_catalog(3000);
        let cfg = PartitionConfig {
            target_work: 2000.0,
            ..Default::default()
        };
        let tasks = partition_sky(&cat, &fp, &cfg);
        let stage1: Vec<f64> = tasks
            .iter()
            .filter(|t| t.stage == 0)
            .map(|t| t.predicted_work)
            .collect();
        assert!(stage1.len() > 4);
        for w in &stage1 {
            assert!(*w <= cfg.target_work * 1.01, "task work {w} over target");
        }
        // No task should be vanishingly small relative to the mean
        // (balance within a generous factor).
        let mean: f64 = stage1.iter().sum::<f64>() / stage1.len() as f64;
        let min = stage1.iter().cloned().fold(f64::MAX, f64::min);
        assert!(min > 0.05 * mean, "min {min} vs mean {mean}");
    }

    #[test]
    fn max_sources_cap_respected() {
        let (cat, fp) = test_catalog(4000);
        let cfg = PartitionConfig {
            target_work: 1e12,
            max_sources: 100,
        };
        let tasks = partition_sky(&cat, &fp, &cfg);
        for t in &tasks {
            assert!(t.source_indices.len() <= 100);
        }
    }

    #[test]
    fn stage2_regions_cover_stage1_borders() {
        let (cat, fp) = test_catalog(2000);
        let tasks = partition_sky(&cat, &fp, &PartitionConfig::default());
        let stage1: Vec<&RegionTask> = tasks.iter().filter(|t| t.stage == 0).collect();
        let stage2: Vec<&RegionTask> = tasks.iter().filter(|t| t.stage == 1).collect();
        assert!(!stage2.is_empty());
        // For most stage-1 vertical borders, some stage-2 region strictly
        // contains a band around the border.
        let mut covered = 0;
        let mut total = 0;
        for t in &stage1 {
            let border_ra = t.rect.ra_max;
            if (border_ra - fp.ra_max).abs() < 1e-9 {
                continue; // outer edge
            }
            total += 1;
            let probe = SkyCoord::new(border_ra, t.rect.center().dec);
            if stage2.iter().any(|s| {
                s.rect.contains(&probe)
                    && probe.ra - s.rect.ra_min > 1e-6
                    && s.rect.ra_max - probe.ra > 1e-6
            }) {
                covered += 1;
            }
        }
        assert!(
            total == 0 || covered as f64 >= 0.5 * total as f64,
            "borders covered: {covered}/{total}"
        );
    }

    #[test]
    fn predicted_work_grows_with_flux_and_size() {
        let (cat, _) = test_catalog(50);
        let mut bright = cat.entries[0].clone();
        let mut faint = bright.clone();
        bright.flux_r_nmgy = 100.0;
        faint.flux_r_nmgy = 0.1;
        assert!(predicted_work(&bright) > predicted_work(&faint));
    }
}
