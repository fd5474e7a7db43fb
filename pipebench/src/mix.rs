//! The catalog query mix and its brute-force oracle.
//!
//! Five query kinds, each a shape catalog users actually send:
//! a small cone (cross-matching one position), a large cone (many
//! entries, heavy encode), a cone returning separations, a rectangle
//! with a type/flux filter, and the brightest N in a window. Every
//! answer the benchmark checks is compared bit for bit, in order, with
//! a scan of the catalog the benchmark generated itself.

use crate::rng::{split_seed, Rng};
use celeste::survey::bands::Band;
use celeste::{CatalogEntry, CatalogQuery, SkyCoord, SkyRect, SourceFilter, SourceType};

/// Query kinds, in the order of [`KINDS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Cross-match: a cone of a few arcseconds.
    SmallCone,
    /// A wide cone returning many entries.
    LargeCone,
    /// A cone answered with per-hit separations.
    ConeSep,
    /// A rectangle with a type and flux filter.
    RectFilter,
    /// The brightest N in a window.
    Brightest,
}

/// Every kind, in metric-name order.
pub const KINDS: [Kind; 5] = [
    Kind::SmallCone,
    Kind::LargeCone,
    Kind::ConeSep,
    Kind::RectFilter,
    Kind::Brightest,
];

impl Kind {
    /// The kind's name in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SmallCone => "small_cone",
            Kind::LargeCone => "large_cone",
            Kind::ConeSep => "cone_sep",
            Kind::RectFilter => "rect_filter",
            Kind::Brightest => "brightest",
        }
    }

    /// Index into [`KINDS`].
    pub fn index(self) -> usize {
        KINDS.iter().position(|&k| k == self).expect("listed kind")
    }
}

/// One query of the mix.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// A self-describing store query (cone, rect or brightest-N).
    Plain(Kind, CatalogQuery),
    /// A cone answered with separations.
    Sep {
        /// Cone axis.
        center: SkyCoord,
        /// Radius, arcseconds.
        radius_arcsec: f64,
    },
}

impl Query {
    /// The query's kind.
    pub fn kind(&self) -> Kind {
        match self {
            Query::Plain(kind, _) => *kind,
            Query::Sep { .. } => Kind::ConeSep,
        }
    }

    /// The area the query searches, as a store query (for coverage).
    pub fn coverage(&self) -> CatalogQuery {
        match self {
            Query::Plain(_, q) => q.clone(),
            Query::Sep {
                center,
                radius_arcsec,
            } => CatalogQuery::Cone {
                center: *center,
                radius_arcsec: *radius_arcsec,
            },
        }
    }
}

/// An answer, as returned by either the daemon or the store.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// Entries of a plain query.
    Entries(Vec<CatalogEntry>),
    /// Cone hits with separations.
    Hits(Vec<(CatalogEntry, f64)>),
}

impl Answer {
    /// Entries in the answer.
    pub fn len(&self) -> usize {
        match self {
            Answer::Entries(e) => e.len(),
            Answer::Hits(h) => h.len(),
        }
    }

    /// Whether the answer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Where query centres fall.
#[derive(Debug, Clone)]
pub enum Centres {
    /// Uniform over the footprint.
    Uniform,
    /// A share `hot_frac` of queries lands within `radius_deg` of one
    /// of a few hot spots; the rest is uniform (the cold tail).
    Skewed {
        /// Hot-spot centres.
        hot: Vec<SkyCoord>,
        /// Hot-spot radius, degrees.
        radius_deg: f64,
        /// Share of queries aimed at hot spots.
        hot_frac: f64,
    },
}

/// Shape and proportions of the mix over one footprint.
#[derive(Debug, Clone)]
pub struct MixSpec {
    /// Where centres are drawn.
    pub footprint: SkyRect,
    /// Centre distribution.
    pub centres: Centres,
    /// How many queries of each kind, in [`KINDS`] order, every block
    /// of [`BLOCK`] consecutive queries holds (summing to [`BLOCK`]).
    /// The order within a block is shuffled from the seed, so a phase
    /// of whole blocks holds exact kind counts and every per-kind
    /// percentile is read off a known sample size.
    pub per_block: [usize; 5],
    /// Small-cone radius, arcseconds.
    pub small_arcsec: f64,
    /// Large-cone radius, arcseconds.
    pub large_arcsec: f64,
    /// Separation-cone radius, arcseconds.
    pub sep_arcsec: f64,
    /// Filtered-rectangle side, degrees.
    pub rect_deg: f64,
    /// Brightest-N window side, degrees.
    pub bright_deg: f64,
    /// N of brightest-N.
    pub bright_n: usize,
}

/// Queries whose kinds are dealt together; see [`MixSpec::per_block`].
pub const BLOCK: usize = 10;

/// Queries drawn per seed batch (whole blocks): batch `b` of a phase
/// draws from `split_seed(phase_seed, batches)[b]`, so query `i` is
/// the same whatever the number of generator workers.
pub const BATCH: usize = 1000;

impl MixSpec {
    /// The first `count` queries of the phase seeded by `seed`.
    pub fn queries(&self, seed: u64, count: usize) -> Vec<Query> {
        let batches = count.div_ceil(BATCH).max(1);
        let seeds = split_seed(seed, batches);
        assert_eq!(
            self.per_block.iter().sum::<usize>(),
            BLOCK,
            "per_block sums to BLOCK"
        );
        let mut out = Vec::with_capacity(count);
        for s in seeds {
            let mut rng = Rng::new(s);
            let end = count.min(out.len() + BATCH);
            while out.len() < end {
                let mut kinds: Vec<Kind> = KINDS
                    .iter()
                    .zip(self.per_block)
                    .flat_map(|(&k, n)| std::iter::repeat_n(k, n))
                    .collect();
                for i in (1..kinds.len()).rev() {
                    kinds.swap(i, rng.below(i + 1));
                }
                for kind in kinds.into_iter().take(end - out.len()) {
                    out.push(self.draw(kind, &mut rng));
                }
            }
        }
        out
    }

    fn centre(&self, rng: &mut Rng) -> SkyCoord {
        let fp = &self.footprint;
        let uniform = |rng: &mut Rng| {
            SkyCoord::new(
                rng.range(fp.ra_min, fp.ra_max),
                rng.range(fp.dec_min, fp.dec_max),
            )
        };
        match &self.centres {
            Centres::Uniform => uniform(rng),
            Centres::Skewed {
                hot,
                radius_deg,
                hot_frac,
            } => {
                if rng.uniform() < *hot_frac {
                    let h = hot[rng.below(hot.len())];
                    let r = radius_deg * rng.uniform().sqrt();
                    let theta = rng.range(0.0, std::f64::consts::TAU);
                    SkyCoord::new(h.ra + r * theta.cos(), h.dec + r * theta.sin())
                } else {
                    uniform(rng)
                }
            }
        }
    }

    fn draw(&self, kind: Kind, rng: &mut Rng) -> Query {
        let c = self.centre(rng);
        let window = |side: f64| {
            SkyRect::new(
                c.ra - side / 2.0,
                c.ra + side / 2.0,
                c.dec - side / 2.0,
                c.dec + side / 2.0,
            )
        };
        match kind {
            Kind::SmallCone => Query::Plain(
                kind,
                CatalogQuery::Cone {
                    center: c,
                    radius_arcsec: self.small_arcsec,
                },
            ),
            Kind::LargeCone => Query::Plain(
                kind,
                CatalogQuery::Cone {
                    center: c,
                    radius_arcsec: self.large_arcsec,
                },
            ),
            Kind::ConeSep => Query::Sep {
                center: c,
                radius_arcsec: self.sep_arcsec,
            },
            Kind::RectFilter => {
                let galaxies = rng.uniform() < 0.5;
                Query::Plain(
                    kind,
                    CatalogQuery::Rect {
                        rect: window(self.rect_deg),
                        filter: SourceFilter {
                            source_type: Some(if galaxies {
                                SourceType::Galaxy
                            } else {
                                SourceType::Star
                            }),
                            min_flux: Some((Band::R, rng.range(1.0, 4.0))),
                        },
                    },
                )
            }
            Kind::Brightest => Query::Plain(
                kind,
                CatalogQuery::BrightestN {
                    n: self.bright_n,
                    within: Some(window(self.bright_deg)),
                },
            ),
        }
    }
}

/// The brute-force answer over `catalog` (any order), in the order the
/// store promises: cones by (separation, id), rectangles by id,
/// brightest-N by (flux descending, id).
pub fn brute_force(catalog: &[CatalogEntry], q: &Query) -> Answer {
    let cone = |center: &SkyCoord, radius: f64| {
        let mut hits: Vec<(CatalogEntry, f64)> = catalog
            .iter()
            .map(|e| (e.clone(), e.pos.sep_arcsec(center)))
            .filter(|(_, sep)| sep.is_finite() && *sep <= radius)
            .collect();
        hits.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.id.cmp(&b.0.id)));
        hits
    };
    match q {
        Query::Sep {
            center,
            radius_arcsec,
        } => Answer::Hits(cone(center, *radius_arcsec)),
        Query::Plain(
            _,
            CatalogQuery::Cone {
                center,
                radius_arcsec,
            },
        ) => Answer::Entries(
            cone(center, *radius_arcsec)
                .into_iter()
                .map(|(e, _)| e)
                .collect(),
        ),
        Query::Plain(_, CatalogQuery::Rect { rect, filter }) => {
            let mut hits: Vec<CatalogEntry> = catalog
                .iter()
                .filter(|e| rect.contains(&e.pos) && filter.matches(e))
                .cloned()
                .collect();
            hits.sort_by_key(|e| e.id);
            Answer::Entries(hits)
        }
        Query::Plain(_, CatalogQuery::BrightestN { n, within }) => {
            let mut hits: Vec<CatalogEntry> = catalog
                .iter()
                .filter(|e| within.is_none_or(|r| r.contains(&e.pos)) && e.flux_r_nmgy.is_finite())
                .cloned()
                .collect();
            hits.sort_by(|a, b| {
                b.flux_r_nmgy
                    .total_cmp(&a.flux_r_nmgy)
                    .then(a.id.cmp(&b.id))
            });
            hits.truncate(*n);
            Answer::Entries(hits)
        }
    }
}

/// Every float of an entry as raw bits, plus its id and type, so two
/// entries compare equal only if they are bit-identical.
pub fn entry_bits(e: &CatalogEntry) -> [u64; 13] {
    [
        e.id,
        u64::from(e.source_type == SourceType::Star),
        e.pos.ra.to_bits(),
        e.pos.dec.to_bits(),
        e.flux_r_nmgy.to_bits(),
        e.colors[0].to_bits(),
        e.colors[1].to_bits(),
        e.colors[2].to_bits(),
        e.colors[3].to_bits(),
        e.shape.frac_dev.to_bits(),
        e.shape.axis_ratio.to_bits(),
        e.shape.angle_rad.to_bits(),
        e.shape.radius_arcsec.to_bits(),
    ]
}

/// Whether two entry lists are bit-identical, in order.
pub fn same_entries(a: &[CatalogEntry], b: &[CatalogEntry]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| entry_bits(x) == entry_bits(y))
}

/// Whether two answers are bit-identical, in order.
pub fn same_answer(a: &Answer, b: &Answer) -> bool {
    match (a, b) {
        (Answer::Entries(x), Answer::Entries(y)) => same_entries(x, y),
        (Answer::Hits(x), Answer::Hits(y)) => {
            x.len() == y.len()
                && x.iter().zip(y).all(|((e, s), (f, t))| {
                    entry_bits(e) == entry_bits(f) && s.to_bits() == t.to_bits()
                })
        }
        _ => false,
    }
}
