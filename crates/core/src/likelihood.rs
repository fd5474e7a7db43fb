//! The expected Poisson log-likelihood and its exact derivatives.
//!
//! For each active pixel the objective contribution is (paper §III,
//! with the delta-method surrogate for `E[log F]`):
//!
//! ```text
//! φ = x · ( ln E[F] − Var[F] / (2 E[F]²) ) − E[F]
//! E[F]   = ε + Σ_t ι·w_t·L_t·G_t        (ε = sky + fixed neighbors)
//! E[f²]  = Σ_t ι²·w_t·S2_t·G_t²
//! Var[F] = E[f²] − (E[F] − ε)²
//! ```
//!
//! where `w_t` is the star/galaxy weight ([`crate::fluxdist::type_weight`]),
//! `L_t`, `S2_t` the band-flux moments ([`crate::fluxdist::flux_moments`]),
//! and `G_t` the geometry kernel ([`crate::bvn`]). The three factors
//! depend on *disjoint* parameter subsets, so the gradient and the
//! 44×44 Hessian assemble from small blocks — the "custom index types
//! to exploit Hessian sparsity structure" of paper §V.
//!
//! The production path ([`add_likelihood_into`]) accumulates only the
//! *lower triangle* of the compact 28×28 Hessian into a packed
//! stack buffer (the matrix is symmetric, so the upper triangle is
//! redundant work), hoists every per-pixel-invariant product out of
//! the pixel loops, and reuses caller-owned scratch for the prepared
//! appearance mixtures — zero heap allocation per evaluation. The
//! pre-refactor dense accumulation survives as
//! [`add_likelihood_dense`] (re-exported from [`crate::dense`], which
//! owns the per-call scratch allocation), the parity reference and
//! benchmark baseline.

pub use crate::dense::add_likelihood_dense;

use crate::bvn::{Appearance, GalaxyGeo, GeoEval, GEO};
use crate::fluxdist::{flux_moments, flux_param_ids, type_weight, FluxMoment, TypeWeight, NF};
use crate::params::{ids, NUM_PARAMS};
use celeste_linalg::fused::{self, axpy2, axpy2_tile, Kernel, Madd};
use celeste_linalg::Mat;
use celeste_survey::psf::Psf;
use std::sync::Arc;

/// Number of likelihood-active parameters (of the 44): position (2),
/// type logits (2), two 10-dim flux blocks, shape (4).
pub const NL: usize = 28;

/// Length of the packed lower triangle of the compact Hessian.
pub const NL_PACKED: usize = NL * (NL + 1) / 2;

/// Pixel-group width of the tiled rank-2 Hessian accumulation: the
/// rank-2 chain terms (`ds⊗ds`-shaped updates over the packed
/// triangle, the densest per-pixel loop of the kernel) are buffered
/// for this many pixels and folded into the triangle once per group
/// via [`axpy2_tile`], so each packed row streams through memory once
/// per `RANK2_TILE` pixels instead of once per pixel. Width 4 keeps
/// the whole tile (two `[[f64; NL]; 4]` panels + coefficients, ~1.9
/// KiB) comfortably in L1 next to the 406-slot triangle while giving
/// the folded row update four independent FMA chains per slot;
/// widening to 8 doubles the buffer for no additional measured win on
/// the benchmark container. The tile carries across image blocks
/// (the chain terms are pure per-pixel adds into the shared packed
/// triangle), so at most one partial group per evaluation remains;
/// it replays the exact per-pixel update.
pub const RANK2_TILE: usize = 4;

/// Floor on the per-pixel Poisson rate: `ln` and the variance
/// correction stay finite even if a trust-region trial point drives
/// the expected flux (plus background) to ≤ 0. Applied consistently
/// in the value-only and derivative paths so their values agree.
pub const RATE_FLOOR: f64 = 1e-12;

/// Compact → 44-space index map.
pub fn lik_param_ids() -> [usize; NL] {
    let mut out = [0usize; NL];
    out[0] = ids::U[0];
    out[1] = ids::U[1];
    out[2] = ids::A[0];
    out[3] = ids::A[1];
    let f0 = flux_param_ids(0);
    let f1 = flux_param_ids(1);
    out[4..14].copy_from_slice(&f0);
    out[14..24].copy_from_slice(&f1);
    out[24] = ids::FRAC_DEV;
    out[25] = ids::AXIS;
    out[26] = ids::ANGLE;
    out[27] = ids::LN_RADIUS;
    out
}

/// Compact slots of the A block.
pub(crate) const CA: [usize; 2] = [2, 3];
/// Compact slots of the flux block for type t.
pub(crate) fn cf(t: usize) -> [usize; NF] {
    let base = 4 + 10 * t;
    let mut out = [0usize; NF];
    for (i, o) in out.iter_mut().enumerate() {
        *o = base + i;
    }
    out
}
/// Compact slots of the geometry block (order matches [`crate::bvn`]):
/// [u0, u1, fd, axis, angle, ln_radius].
pub(crate) const CG: [usize; GEO] = [0, 1, 24, 25, 26, 27];

/// One active pixel: position (pixel centers), observed counts, and
/// the fixed background rate ε (sky + other sources' expected flux).
#[derive(Debug, Clone, Copy)]
pub struct ActivePixel {
    pub px: f64,
    pub py: f64,
    /// Observed counts.
    pub x: f64,
    /// Fixed part of the rate: sky + neighbors.
    pub eps: f64,
}

/// Everything the likelihood needs from one image for one source.
///
/// The PSF is shared (`Arc`): problems are rebuilt for every
/// block-coordinate-ascent step, and cloning the field PSF's mixture
/// into each of them was measurable assembly overhead.
#[derive(Debug, Clone)]
pub struct ImageBlock {
    /// Band index (0..5).
    pub band: usize,
    /// Calibration: counts per nanomaggy.
    pub iota: f64,
    /// d(pixel)/d(arcsec offset) Jacobian.
    pub jac: [[f64; 2]; 2],
    /// Anchor position in pixel coordinates.
    pub center0: [f64; 2],
    /// Field PSF (shared with the image it came from).
    pub psf: Arc<Psf>,
    /// The source's active pixels in this image.
    pub pixels: Vec<ActivePixel>,
}

/// Extract the current galaxy geometry block from the parameters.
pub fn galaxy_geo(params: &[f64; NUM_PARAMS]) -> GalaxyGeo {
    GalaxyGeo {
        fd_logit: params[ids::FRAC_DEV],
        axis_logit: params[ids::AXIS],
        angle: params[ids::ANGLE],
        ln_radius: params[ids::LN_RADIUS],
    }
}

/// Reusable scratch for likelihood evaluation: the prepared star and
/// galaxy appearance mixtures (heap-backed, reused across blocks and
/// evaluations). Owned by the evaluation workspace.
#[derive(Default)]
pub struct LikScratch {
    star: Appearance,
    gal: Appearance,
}

impl LikScratch {
    /// Prepare both appearances for one block at offset `u`.
    fn prepare(&mut self, block: &ImageBlock, u: [f64; 2], geo: &GalaxyGeo, cull_tol: f64) {
        self.star
            .prepare_star(&block.psf, block.center0, u, &block.jac, cull_tol);
        self.gal
            .prepare_galaxy(&block.psf, geo, block.center0, u, &block.jac, cull_tol);
    }
}

/// Evaluate the likelihood part of the ELBO with gradient and Hessian
/// (both *added* into the outputs, indexed in 44-space). Returns the
/// value. Also bumps the active-pixel-visit counter.
///
/// This is the production kernel: packed lower-triangle Hessian
/// accumulation, hoisted per-block invariants, component culling in
/// the geometry kernel at `cull_tol` (0 = exact; see
/// [`crate::bvn`]'s culling notes for the advertised error bound),
/// and no heap allocation (given a warmed-up `scratch`). It enters
/// [`fused::dispatch`] once: every pixel of every block, geometry
/// walk included, runs at that one madd strategy.
pub fn add_likelihood_into(
    params: &[f64; NUM_PARAMS],
    blocks: &[ImageBlock],
    grad: &mut [f64; NUM_PARAMS],
    hess: &mut Mat,
    scratch: &mut LikScratch,
    cull_tol: f64,
) -> f64 {
    fused::dispatch(DerivKernel {
        params,
        blocks,
        grad,
        hess,
        scratch,
        cull_tol,
    })
}

/// The arguments of [`add_likelihood_into`], as a dispatch kernel.
struct DerivKernel<'a> {
    params: &'a [f64; NUM_PARAMS],
    blocks: &'a [ImageBlock],
    grad: &'a mut [f64; NUM_PARAMS],
    hess: &'a mut Mat,
    scratch: &'a mut LikScratch,
    cull_tol: f64,
}

impl Kernel for DerivKernel<'_> {
    type Out = f64;

    #[inline(always)]
    fn run<F: Madd>(self) -> f64 {
        let DerivKernel {
            params,
            blocks,
            grad,
            hess,
            scratch,
            cull_tol,
        } = self;
        let map = lik_param_ids();
        let mut value = 0.0;
        let mut g28 = [0.0; NL];
        let mut h28 = [0.0; NL_PACKED];
        let mut tile = Rank2Tile::new();

        let u = [params[ids::U[0]], params[ids::U[1]]];
        let w = [type_weight(params, 0), type_weight(params, 1)];
        let geo_params = galaxy_geo(params);

        for block in blocks {
            scratch.prepare(block, u, &geo_params, cull_tol);
            let moments = [
                flux_moments(params, 0, block.band),
                flux_moments(params, 1, block.band),
            ];
            crate::flops::record_visits(block.pixels.len() as u64);

            let coefs = BlockCoefs::new(block.iota, &w, &moments);
            let mut sums = BlockSums::default();

            for pix in &block.pixels {
                let geo = [
                    scratch.star.eval_at::<F>(pix.px, pix.py),
                    scratch.gal.eval_at::<F>(pix.px, pix.py),
                ];

                // Values.
                let mut s = 0.0;
                let mut q = 0.0;
                for t in 0..2 {
                    s += coefs.iwl[t] * geo[t].val;
                    q += coefs.iw2s2[t] * geo[t].val * geo[t].val;
                }
                let e = (pix.eps + s).max(RATE_FLOOR);
                let v = (q - s * s).max(0.0);
                let e2 = e * e;
                value += pix.x * (e.ln() - v / (2.0 * e2)) - e;

                // φ partials.
                let phi = Phi {
                    e: pix.x / e + pix.x * v / (e2 * e) - 1.0,
                    v: -pix.x / (2.0 * e2),
                    ee: -pix.x / e2 - 3.0 * pix.x * v / (e2 * e2),
                    ev: pix.x / (e2 * e),
                };
                // Fully-culled pixel (both appearances screened to
                // exactly zero, far wings): every ∇S/∇Q entry is zero,
                // so the whole 28-slot accumulation is a no-op — only
                // the value term above carries information. The check
                // is exact: a culled evaluation never touches its
                // outputs.
                if geo[0].val != 0.0 || geo[1].val != 0.0 {
                    pixel_derivs::<F>(
                        &coefs, &geo, s, &phi, &mut g28, &mut h28, &mut sums, &mut tile,
                    );
                }
            }
            fold_block_sums(&coefs, &sums, &mut h28);
        }
        fold_rank2_tail::<F>(&mut tile, &mut h28);

        // Scatter compact → 44 (mirroring the packed triangle).
        for i in 0..NL {
            grad[map[i]] += g28[i];
        }
        hess.scatter_sym_packed(&h28, &map);
        value
    }
}

/// Per-(block, type) invariants, hoisted out of the pixel loop.
/// Naming: i = ι, i2 = ι², w = w_t, l = L_t, s2 = S2_t.
struct BlockCoefs<'a> {
    /// Type weights (softmax over the two logits) with derivatives.
    w: &'a [TypeWeight; 2],
    /// Band-flux moments (L, S2) per type.
    moments: &'a [(FluxMoment, FluxMoment); 2],
    iw: [f64; 2],         // ι·w
    iw2: [f64; 2],        // ι²·w
    il: [f64; 2],         // ι·L
    i2s2: [f64; 2],       // ι²·S2
    iwl: [f64; 2],        // ι·w·L
    iw2s2: [f64; 2],      // ι²·w·S2
    dsa: [[f64; 2]; 2],   // ι·L·∇w    (A-slot ∇S coeff)
    dqa: [[f64; 2]; 2],   // ι²·S2·∇w  (A-slot ∇Q coeff)
    dsf: [[f64; NF]; 2],  // ι·w·∇L    (flux ∇S coeff)
    dqf: [[f64; NF]; 2],  // ι²·w·∇S2  (flux ∇Q coeff)
    ilg: [[f64; NF]; 2],  // ι·∇L      (A×F cross coeff)
    i2sg: [[f64; NF]; 2], // ι²·∇S2    (A×F cross coeff)
}

impl<'a> BlockCoefs<'a> {
    fn new(
        iota: f64,
        w: &'a [TypeWeight; 2],
        moments: &'a [(FluxMoment, FluxMoment); 2],
    ) -> BlockCoefs<'a> {
        let iota2 = iota * iota;
        let mut out = BlockCoefs {
            w,
            moments,
            iw: [0.0; 2],
            iw2: [0.0; 2],
            il: [0.0; 2],
            i2s2: [0.0; 2],
            iwl: [0.0; 2],
            iw2s2: [0.0; 2],
            dsa: [[0.0; 2]; 2],
            dqa: [[0.0; 2]; 2],
            dsf: [[0.0; NF]; 2],
            dqf: [[0.0; NF]; 2],
            ilg: [[0.0; NF]; 2],
            i2sg: [[0.0; NF]; 2],
        };
        for t in 0..2 {
            let (l, s2) = (&moments[t].0, &moments[t].1);
            out.iw[t] = iota * w[t].val;
            out.iw2[t] = iota2 * w[t].val;
            out.il[t] = iota * l.val;
            out.i2s2[t] = iota2 * s2.val;
            out.iwl[t] = out.iw[t] * l.val;
            out.iw2s2[t] = out.iw2[t] * s2.val;
            for k in 0..2 {
                out.dsa[t][k] = out.il[t] * w[t].grad[k];
                out.dqa[t][k] = out.i2s2[t] * w[t].grad[k];
            }
            for c in 0..NF {
                out.dsf[t][c] = out.iw[t] * l.grad[c];
                out.dqf[t][c] = out.iw2[t] * s2.grad[c];
                out.ilg[t][c] = iota * l.grad[c];
                out.i2sg[t][c] = iota2 * s2.grad[c];
            }
        }
        out
    }
}

/// Partials of the per-pixel objective `φ(E, Var)`.
struct Phi {
    e: f64,
    v: f64,
    ee: f64,
    ev: f64,
}

/// Buffered rank-2 inputs for up to [`RANK2_TILE`] pixels: the dense
/// ∇S/∇V rows and the two φ second-order coefficients each pixel's
/// chain terms multiply by. Stack-allocated in
/// [`add_likelihood_into`] (~1.9 KiB) and reused for the whole
/// evaluation — no heap.
struct Rank2Tile {
    ds: [[f64; NL]; RANK2_TILE],
    dv: [[f64; NL]; RANK2_TILE],
    /// φ_ee − 2φ_v per buffered pixel.
    a2: [f64; RANK2_TILE],
    /// φ_ev per buffered pixel.
    ev: [f64; RANK2_TILE],
    len: usize,
}

impl Rank2Tile {
    fn new() -> Rank2Tile {
        Rank2Tile {
            ds: [[0.0; NL]; RANK2_TILE],
            dv: [[0.0; NL]; RANK2_TILE],
            a2: [0.0; RANK2_TILE],
            ev: [0.0; RANK2_TILE],
            len: 0,
        }
    }
}

/// Fold a *full* tile's rank-2 chain terms into the packed triangle:
/// for each row i, the per-pixel coefficients
/// `c1[p] = a2_p·ds_p[i] + φ_ev·dv_p[i]`, `c2[p] = φ_ev·ds_p[i]`
/// contract the buffered ∇S/∇V panels in one [`axpy2_tile`] pass, so
/// the row is read and written once for all [`RANK2_TILE`] pixels.
/// Rows where every buffered pixel has `ds[i] == dv[i] == 0` (e.g.
/// star-only blocks never touch the shape slots) are skipped, same as
/// the per-pixel form.
#[inline(always)]
fn fold_rank2_full<F: Madd>(tile: &Rank2Tile, h28: &mut [f64; NL_PACKED]) {
    for i in 0..NL {
        let mut c1 = [0.0; RANK2_TILE];
        let mut c2 = [0.0; RANK2_TILE];
        let mut live = false;
        for p in 0..RANK2_TILE {
            let dsi = tile.ds[p][i];
            let dvi = tile.dv[p][i];
            live |= dsi != 0.0 || dvi != 0.0;
            c1[p] = F::madd(tile.a2[p], dsi, tile.ev[p] * dvi);
            c2[p] = tile.ev[p] * dsi;
        }
        if !live {
            continue;
        }
        let row = &mut h28[i * (i + 1) / 2..i * (i + 1) / 2 + i + 1];
        axpy2_tile::<F, RANK2_TILE, NL>(row, &c1, &tile.ds, &c2, &tile.dv);
    }
}

/// Fold a *partial* tile (the evaluation's final `len <
/// RANK2_TILE` pixels) by replaying the exact per-pixel [`axpy2`]
/// update, then reset the tile.
#[inline(always)]
fn fold_rank2_tail<F: Madd>(tile: &mut Rank2Tile, h28: &mut [f64; NL_PACKED]) {
    for p in 0..tile.len {
        let ds = &tile.ds[p];
        let dv = &tile.dv[p];
        for i in 0..NL {
            let dsi = ds[i];
            let dvi = dv[i];
            if dsi == 0.0 && dvi == 0.0 {
                continue;
            }
            let row = &mut h28[i * (i + 1) / 2..i * (i + 1) / 2 + i + 1];
            let cds = F::madd(tile.a2[p], dsi, tile.ev[p] * dvi);
            let cdv = tile.ev[p] * dsi;
            axpy2::<F>(row, cds, &ds[..i + 1], cdv, &dv[..i + 1]);
        }
    }
    tile.len = 0;
}

/// Pixel-sum accumulators for the Hessian blocks that factor as
/// (pixel scalar) × (block-constant table): the A×A, F×F, A×F, A×G
/// and F×G blocks all multiply per-block tables (`w` derivatives,
/// flux-moment derivatives, the `BlockCoefs` products) by one of
/// four per-type pixel scalars — `cs·G`, `φ_v·G²`, `cs·∇G_b`, and
/// `2φ_v·G·∇G_b`. Accumulating those scalars per pixel and folding
/// the block products once per block ([`fold_block_sums`]) deletes
/// several hundred madds from every pixel (over half the
/// block-structured accumulation).
#[derive(Default)]
struct BlockSums {
    /// Σ cs·G_t.
    csg: [f64; 2],
    /// Σ φ_v·G_t².
    pvg2: [f64; 2],
    /// Σ cs·∇G_b per type and geometry slot.
    cs_g: [[f64; GEO]; 2],
    /// Σ 2φ_v·G·∇G_b per type and geometry slot.
    pv_g: [[f64; GEO]; 2],
}

/// Fold the factored Hessian blocks once per image block: every
/// entry here is (pixel-summed scalar) × (block-constant table),
/// exactly the terms [`pixel_derivs`] no longer writes per pixel.
/// Runs once per block — cost is amortized over the pixel loop.
fn fold_block_sums(c: &BlockCoefs, sums: &BlockSums, h28: &mut [f64; NL_PACKED]) {
    let w = c.w;
    for t in 0..2 {
        let (l, s2m) = (&c.moments[t].0, &c.moments[t].1);
        let base = 4 + 10 * t;
        let gdim = if t == 0 { 2 } else { GEO };

        // A×A: haa = il·(Σ cs·G) + i2s2·(Σ φ_v·G²)  (× ∇²w).
        let haa = c.il[t] * sums.csg[t] + c.i2s2[t] * sums.pvg2[t];
        h28[5] += haa * w[t].hess[0][0]; // (2,2)
        h28[8] += haa * w[t].hess[1][0]; // (3,2)
        h28[9] += haa * w[t].hess[1][1]; // (3,3)

        // A×G: rows 2–3, u columns (and shape columns below).
        let gag = |b: usize| c.il[t] * sums.cs_g[t][b] + c.i2s2[t] * sums.pv_g[t][b];
        h28[3] += w[t].grad[0] * gag(0); // (2,0)
        h28[4] += w[t].grad[0] * gag(1); // (2,1)
        h28[6] += w[t].grad[1] * gag(0); // (3,0)
        h28[7] += w[t].grad[1] * gag(1); // (3,1)

        // Flux rows: u-columns (F×G), A-columns (A×F), and the F×F
        // triangle (hffc × ∇²L + hffq × ∇²S2).
        let hffc = c.iw[t] * sums.csg[t];
        let hffq = c.iw2[t] * sums.pvg2[t];
        for fc in 0..NF {
            let r = base + fc;
            let off = r * (r + 1) / 2;
            let row = &mut h28[off..off + r + 1];
            row[0] += c.dsf[t][fc] * sums.cs_g[t][0] + c.dqf[t][fc] * sums.pv_g[t][0];
            row[1] += c.dsf[t][fc] * sums.cs_g[t][1] + c.dqf[t][fc] * sums.pv_g[t][1];
            let cross = sums.csg[t] * c.ilg[t][fc] + sums.pvg2[t] * c.i2sg[t][fc];
            row[2] += w[t].grad[0] * cross;
            row[3] += w[t].grad[1] * cross;
            for c2 in 0..=fc {
                row[base + c2] += hffc * l.hess[fc][c2] + hffq * s2m.hess[fc][c2];
            }
        }

        // Shape rows (galaxy only): A-columns and F-columns.
        if t == 1 {
            for a in 2..gdim {
                let r = 22 + a;
                let off = r * (r + 1) / 2;
                let row = &mut h28[off..off + r + 1];
                let g = gag(a);
                row[2] += w[t].grad[0] * g;
                row[3] += w[t].grad[1] * g;
                for fc in 0..NF {
                    row[base + fc] +=
                        c.dsf[t][fc] * sums.cs_g[t][a] + c.dqf[t][fc] * sums.pv_g[t][a];
                }
            }
        }
    }
}

/// Accumulate one pixel's gradient and packed lower-triangle Hessian
/// contribution over the 28 compact slots, generic over the madd
/// strategy ([`celeste_linalg::fused`]).
///
/// Hessian layout: block-structured ∇²S (scaled cs) and ∇²Q (scaled
/// φ_v), plus the rank-2 φ chain terms. Only the lower triangle is
/// touched, written row-wise into the packed buffer (compact row r
/// starts at r(r+1)/2 and is contiguous) so the inner loops stay
/// branch-free; the caller's scatter mirrors once per evaluation.
/// The blocks that factor through block-constant tables (A×A, F×F,
/// A×F, A×G, F×G) are *not* written here — only their pixel scalars
/// are accumulated into `sums`, and [`fold_block_sums`] writes them
/// once per block. The rank-2 chain terms are likewise deferred:
/// this pixel's ∇S/∇V rows go into `tile`, and the triangle fold
/// happens once per [`RANK2_TILE`] pixels (the caller flushes the
/// final partial tile).
#[inline(always)]
#[allow(clippy::too_many_arguments)] // internal hot-path plumbing
fn pixel_derivs<F: Madd>(
    c: &BlockCoefs,
    geo: &[GeoEval; 2],
    s: f64,
    phi: &Phi,
    g28: &mut [f64; NL],
    h28: &mut [f64; NL_PACKED],
    sums: &mut BlockSums,
    tile: &mut Rank2Tile,
) {
    // Dense ∇S and ∇Q over the 28 compact slots.
    let mut ds = [0.0; NL];
    let mut dq = [0.0; NL];
    for t in 0..2 {
        let gt = &geo[t];
        let g2 = gt.val * gt.val;
        // A slots.
        for k in 0..2 {
            ds[CA[k]] = F::madd(c.dsa[t][k], gt.val, ds[CA[k]]);
            dq[CA[k]] = F::madd(c.dqa[t][k], g2, dq[CA[k]]);
        }
        // Flux slots.
        let cfi = cf(t);
        for fc in 0..NF {
            ds[cfi[fc]] = F::madd(c.dsf[t][fc], gt.val, ds[cfi[fc]]);
            dq[cfi[fc]] = F::madd(c.dqf[t][fc], g2, dq[cfi[fc]]);
        }
        // Geometry slots (star: only u).
        let gdim = if t == 0 { 2 } else { GEO };
        let two_gv = 2.0 * gt.val;
        for gslot in 0..gdim {
            ds[CG[gslot]] = F::madd(c.iwl[t], gt.grad[gslot], ds[CG[gslot]]);
            dq[CG[gslot]] = F::madd(c.iw2s2[t] * two_gv, gt.grad[gslot], dq[CG[gslot]]);
        }
    }
    let mut dv = [0.0; NL];
    for i in 0..NL {
        dv[i] = F::madd(-2.0 * s, ds[i], dq[i]);
    }

    // Gradient.
    axpy2::<F>(g28, phi.e, &ds, phi.v, &dv);

    let cs = phi.e - 2.0 * s * phi.v;
    for t in 0..2 {
        let gt = &geo[t];
        let g2 = gt.val * gt.val;

        // Per-pixel block coefficients.
        let hgc = cs * c.iwl[t]; // × ∇²G
        let hgq = phi.v * c.iw2s2[t]; // × ∇²(G²)
        let two_pv_gv = 2.0 * phi.v * gt.val;

        // Factored-block pixel sums (everything the fold needs).
        sums.csg[t] += cs * gt.val;
        sums.pvg2[t] = F::madd(phi.v, g2, sums.pvg2[t]);
        let gdim = if t == 0 { 2 } else { GEO };
        for b in 0..gdim {
            sums.cs_g[t][b] = F::madd(cs, gt.grad[b], sums.cs_g[t][b]);
            sums.pv_g[t][b] = F::madd(two_pv_gv, gt.grad[b], sums.pv_g[t][b]);
        }

        // u-block rows 0–1: G×G over the position slots.
        let hg00 = 2.0 * F::madd(gt.grad[0], gt.grad[0], gt.val * gt.hess[0][0]);
        let hg10 = 2.0 * F::madd(gt.grad[1], gt.grad[0], gt.val * gt.hess[1][0]);
        let hg11 = 2.0 * F::madd(gt.grad[1], gt.grad[1], gt.val * gt.hess[1][1]);
        h28[0] += F::madd(hgc, gt.hess[0][0], hgq * hg00);
        h28[1] += F::madd(hgc, gt.hess[1][0], hgq * hg10);
        h28[2] += F::madd(hgc, gt.hess[1][1], hgq * hg11);

        // Shape rows 24–27 (galaxy only; the star's geometry stops at
        // the u slots): the G×G columns — u-block columns and the
        // shape-shape triangle — are the only parts that need the
        // per-pixel geometry Hessian.
        if t == 1 {
            for a in 2..GEO {
                let r = 22 + a; // CG[a] = 24 + (a − 2)
                let off = r * (r + 1) / 2;
                let row = &mut h28[off..off + r + 1];
                let ga = gt.grad[a];
                // G×G u-columns.
                for b in 0..2 {
                    let hg2 = 2.0 * F::madd(ga, gt.grad[b], gt.val * gt.hess[a][b]);
                    row[b] += F::madd(hgc, gt.hess[a][b], hgq * hg2);
                }
                // G×G shape-shape triangle.
                for b in 2..=a {
                    let hg2 = 2.0 * F::madd(ga, gt.grad[b], gt.val * gt.hess[a][b]);
                    row[22 + b] += F::madd(hgc, gt.hess[a][b], hgq * hg2);
                }
            }
        }
    }
    // Rank-2 chain terms (symmetric in (i, j): only the lower
    // triangle is accumulated — row[j] += a2·dsi·ds[j] +
    // φ_ev·(dsi·dv[j] + dvi·ds[j])). This is the densest loop of the
    // kernel, so it is tiled: buffer this pixel's rows and φ
    // coefficients, and fold a full tile's worth into the triangle
    // in one pass per row ([`fold_rank2_full`]).
    tile.ds[tile.len] = ds;
    tile.dv[tile.len] = dv;
    tile.a2[tile.len] = phi.ee - 2.0 * phi.v;
    tile.ev[tile.len] = phi.ev;
    tile.len += 1;
    if tile.len == RANK2_TILE {
        fold_rank2_full::<F>(tile, h28);
        tile.len = 0;
    }
}

/// Value-only likelihood with caller-owned scratch (no allocation)
/// and component culling at `cull_tol` (must match the derivative
/// path's tolerance so trust-region ratios compare like with like).
/// Also bumps the active-pixel-visit counter. Like
/// [`add_likelihood_into`], it enters [`fused::dispatch`] once per
/// evaluation.
pub fn likelihood_value_into(
    params: &[f64; NUM_PARAMS],
    blocks: &[ImageBlock],
    scratch: &mut LikScratch,
    cull_tol: f64,
) -> f64 {
    fused::dispatch(ValueKernel {
        params,
        blocks,
        scratch,
        cull_tol,
    })
}

/// The arguments of [`likelihood_value_into`], as a dispatch kernel.
struct ValueKernel<'a> {
    params: &'a [f64; NUM_PARAMS],
    blocks: &'a [ImageBlock],
    scratch: &'a mut LikScratch,
    cull_tol: f64,
}

impl Kernel for ValueKernel<'_> {
    type Out = f64;

    #[inline(always)]
    fn run<F: Madd>(self) -> f64 {
        let ValueKernel {
            params,
            blocks,
            scratch,
            cull_tol,
        } = self;
        let u = [params[ids::U[0]], params[ids::U[1]]];
        let w = [type_weight(params, 0).val, type_weight(params, 1).val];
        let geo_params = galaxy_geo(params);
        let mut value = 0.0;
        for block in blocks {
            scratch.prepare(block, u, &geo_params, cull_tol);
            let moments = [
                flux_moments(params, 0, block.band),
                flux_moments(params, 1, block.band),
            ];
            crate::flops::record_visits(block.pixels.len() as u64);
            let iota = block.iota;
            let iwl = [
                iota * w[0] * moments[0].0.val,
                iota * w[1] * moments[1].0.val,
            ];
            let iw2s2 = [
                iota * iota * w[0] * moments[0].1.val,
                iota * iota * w[1] * moments[1].1.val,
            ];
            for pix in &block.pixels {
                let geo = [
                    scratch.star.eval_value_at::<F>(pix.px, pix.py),
                    scratch.gal.eval_value_at::<F>(pix.px, pix.py),
                ];
                let mut s = 0.0;
                let mut q = 0.0;
                for t in 0..2 {
                    s += iwl[t] * geo[t];
                    q += iw2s2[t] * geo[t] * geo[t];
                }
                let e = (pix.eps + s).max(RATE_FLOOR);
                let v = (q - s * s).max(0.0);
                value += pix.x * (e.ln() - v / (2.0 * e * e)) - e;
            }
        }
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SourceParams;
    use celeste_survey::catalog::{CatalogEntry, GalaxyShape, SourceType};
    use celeste_survey::skygeom::SkyCoord;

    /// The derivative kernel at culling tolerance 0, in fresh scratch.
    fn deriv_exact(
        p: &[f64; NUM_PARAMS],
        blocks: &[ImageBlock],
        grad: &mut [f64; NUM_PARAMS],
        hess: &mut Mat,
    ) -> f64 {
        add_likelihood_into(p, blocks, grad, hess, &mut LikScratch::default(), 0.0)
    }

    /// The value kernel at culling tolerance 0, in fresh scratch.
    fn value_exact(p: &[f64; NUM_PARAMS], blocks: &[ImageBlock]) -> f64 {
        likelihood_value_into(p, blocks, &mut LikScratch::default(), 0.0)
    }

    fn test_block() -> ImageBlock {
        // A small grid of active pixels around the source center with
        // plausible counts.
        let mut pixels = Vec::new();
        for y in 0..9 {
            for x in 0..9 {
                let dx = x as f64 - 4.0;
                let dy = y as f64 - 4.0;
                pixels.push(ActivePixel {
                    px: 10.0 + dx,
                    py: 12.0 + dy,
                    x: (150.0 + 400.0 * (-0.5 * (dx * dx + dy * dy) / 2.0).exp()).round(),
                    eps: 150.0,
                });
            }
        }
        ImageBlock {
            band: 2,
            iota: 300.0,
            jac: [[0.71, 0.02], [-0.01, 0.7]],
            center0: [10.0, 12.0],
            psf: Arc::new(Psf::core_halo(1.3)),
            pixels,
        }
    }

    fn test_params() -> [f64; NUM_PARAMS] {
        let entry = CatalogEntry {
            id: 0,
            pos: SkyCoord::new(0.0, 0.0),
            source_type: SourceType::Galaxy,
            flux_r_nmgy: 4.0,
            colors: [0.4, -0.2, 0.3, 0.1],
            shape: GalaxyShape {
                frac_dev: 0.35,
                axis_ratio: 0.6,
                angle_rad: 0.8,
                radius_arcsec: 1.8,
            },
        };
        let mut sp = SourceParams::init_from_entry(&entry);
        for (i, p) in sp.params.iter_mut().enumerate() {
            *p += 0.02 * ((i * 11 % 17) as f64 - 8.0) / 8.0;
        }
        sp.params
    }

    #[test]
    fn lik_param_ids_are_disjoint_and_sorted_coverage() {
        let map = lik_param_ids();
        let mut seen = std::collections::HashSet::new();
        for &i in &map {
            assert!(i < NUM_PARAMS);
            assert!(seen.insert(i), "duplicate index {i}");
        }
        // KL-only params must not appear.
        for i in ids::U_LSD.iter().chain(ids::SHAPE_LSD.iter()) {
            assert!(!seen.contains(i));
        }
    }

    #[test]
    fn value_paths_agree() {
        let p = test_params();
        let blocks = vec![test_block()];
        let mut grad = [0.0; NUM_PARAMS];
        let mut hess = Mat::zeros(NUM_PARAMS, NUM_PARAMS);
        let v1 = deriv_exact(&p, &blocks, &mut grad, &mut hess);
        let v2 = value_exact(&p, &blocks);
        assert!((v1 - v2).abs() < 1e-9 * (1.0 + v1.abs()), "{v1} vs {v2}");
        // Reused scratch gives the fresh-scratch value bit for bit.
        let mut scratch = LikScratch::default();
        for _ in 0..2 {
            let v3 = likelihood_value_into(&p, &blocks, &mut scratch, 0.0);
            assert_eq!(v2.to_bits(), v3.to_bits(), "{v2} vs {v3}");
        }
    }

    #[test]
    fn packed_matches_dense_to_parity_tolerance() {
        // The tentpole parity bar: packed lower-triangle accumulation
        // must match the dense reference to 1e-12 *relative* on every
        // gradient and Hessian entry.
        let p = test_params();
        let blocks = vec![test_block()];
        let mut gp = [0.0; NUM_PARAMS];
        let mut hp = Mat::zeros(NUM_PARAMS, NUM_PARAMS);
        let vp = deriv_exact(&p, &blocks, &mut gp, &mut hp);
        let mut gd = [0.0; NUM_PARAMS];
        let mut hd = Mat::zeros(NUM_PARAMS, NUM_PARAMS);
        let vd = add_likelihood_dense(&p, &blocks, &mut gd, &mut hd);
        assert!(
            (vp - vd).abs() <= 1e-12 * (1.0 + vd.abs()),
            "value {vp} vs {vd}"
        );
        // Tolerance is relative to the object's scale (max-abs), so
        // entries that nearly cancel don't demand impossible absolute
        // precision from a reassociated-but-equivalent summation.
        let gscale = gd.iter().fold(1.0_f64, |m, g| m.max(g.abs()));
        let hscale = hd.max_abs().max(1.0);
        for i in 0..NUM_PARAMS {
            assert!(
                (gp[i] - gd[i]).abs() <= 1e-12 * gscale,
                "grad[{i}]: packed {} vs dense {}",
                gp[i],
                gd[i]
            );
            for j in 0..NUM_PARAMS {
                let (a, b) = (hp[(i, j)], hd[(i, j)]);
                assert!(
                    (a - b).abs() <= 1e-12 * hscale,
                    "H[{i}][{j}]: packed {a} vs dense {b}"
                );
            }
        }
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let p = test_params();
        let blocks = vec![test_block()];
        let mut grad = [0.0; NUM_PARAMS];
        let mut hess = Mat::zeros(NUM_PARAMS, NUM_PARAMS);
        deriv_exact(&p, &blocks, &mut grad, &mut hess);
        let h = 1e-6;
        for &idx in lik_param_ids().iter() {
            let mut up = p;
            let mut dn = p;
            up[idx] += h;
            dn[idx] -= h;
            let fd = (value_exact(&up, &blocks) - value_exact(&dn, &blocks)) / (2.0 * h);
            assert!(
                (grad[idx] - fd).abs() < 2e-4 * (1.0 + fd.abs()),
                "param {idx}: analytic {} vs fd {fd}",
                grad[idx]
            );
        }
    }

    #[test]
    fn kl_only_params_have_zero_likelihood_gradient() {
        let p = test_params();
        let blocks = vec![test_block()];
        let mut grad = [0.0; NUM_PARAMS];
        let mut hess = Mat::zeros(NUM_PARAMS, NUM_PARAMS);
        deriv_exact(&p, &blocks, &mut grad, &mut hess);
        for i in ids::U_LSD.iter().chain(ids::SHAPE_LSD.iter()) {
            assert_eq!(grad[*i], 0.0);
        }
        for t in 0..2 {
            for k in 0..crate::params::K_COLOR {
                assert_eq!(grad[ids::kappa(t, k)], 0.0);
            }
        }
    }

    #[test]
    fn hessian_matches_fd_of_gradient_on_sample() {
        let p = test_params();
        let blocks = vec![test_block()];
        let mut grad = [0.0; NUM_PARAMS];
        let mut hess = Mat::zeros(NUM_PARAMS, NUM_PARAMS);
        deriv_exact(&p, &blocks, &mut grad, &mut hess);
        let h = 1e-5;
        // Sample a representative set of parameter pairs.
        let sample = [
            ids::U[0],
            ids::A[0],
            ids::r_mu(0),
            ids::r_mu(1),
            ids::c_mean(1, 2),
            ids::c_lvar(0, 1),
            ids::FRAC_DEV,
            ids::AXIS,
            ids::ANGLE,
            ids::LN_RADIUS,
        ];
        for &j in &sample {
            let mut up = p;
            let mut dn = p;
            up[j] += h;
            dn[j] -= h;
            let mut gu = [0.0; NUM_PARAMS];
            let mut gd = [0.0; NUM_PARAMS];
            let mut hu = Mat::zeros(NUM_PARAMS, NUM_PARAMS);
            let mut hd = Mat::zeros(NUM_PARAMS, NUM_PARAMS);
            deriv_exact(&up, &blocks, &mut gu, &mut hu);
            deriv_exact(&dn, &blocks, &mut gd, &mut hd);
            for &i in &sample {
                let fd = (gu[i] - gd[i]) / (2.0 * h);
                let an = hess[(i, j)];
                let scale = 1.0 + fd.abs().max(an.abs());
                assert!(
                    (an - fd).abs() < 5e-3 * scale,
                    "H[{i}][{j}]: analytic {an} vs fd {fd}"
                );
            }
        }
    }

    #[test]
    fn hessian_is_symmetric() {
        let p = test_params();
        let blocks = vec![test_block()];
        let mut grad = [0.0; NUM_PARAMS];
        let mut hess = Mat::zeros(NUM_PARAMS, NUM_PARAMS);
        deriv_exact(&p, &blocks, &mut grad, &mut hess);
        assert!(hess.is_symmetric(1e-9));
    }

    #[test]
    fn value_path_survives_nonpositive_rate() {
        // A pathological trial point: huge negative ε drives the rate
        // nonpositive. Both paths must stay finite (the RATE_FLOOR
        // guard) instead of producing NaN from ln(≤0).
        let p = test_params();
        let mut block = test_block();
        for pix in &mut block.pixels {
            pix.eps = -1e9;
        }
        let blocks = vec![block];
        let v = value_exact(&p, &blocks);
        assert!(v.is_finite(), "value path NaN on nonpositive rate: {v}");
        let mut grad = [0.0; NUM_PARAMS];
        let mut hess = Mat::zeros(NUM_PARAMS, NUM_PARAMS);
        let vd = deriv_exact(&p, &blocks, &mut grad, &mut hess);
        assert!(
            vd.is_finite(),
            "derivative path NaN on nonpositive rate: {vd}"
        );
        assert!(
            (v - vd).abs() < 1e-9 * (1.0 + v.abs()),
            "paths disagree: {v} vs {vd}"
        );
    }

    #[test]
    fn brighter_fit_increases_likelihood_toward_truth() {
        // With counts generated from flux ≈ 4 nmgy, the likelihood at
        // the matching flux must beat a far-off flux.
        let p = test_params();
        let blocks = vec![test_block()];
        let good = value_exact(&p, &blocks);
        let mut bad = p;
        bad[ids::r_mu(0)] += 3.0; // e³ ≈ 20× too bright (star branch)
        bad[ids::r_mu(1)] += 3.0;
        let worse = value_exact(&bad, &blocks);
        assert!(good > worse, "good {good} vs worse {worse}");
    }

    /// On the per-thread count, which concurrent tests cannot bump.
    #[test]
    fn visits_counter_increments() {
        let p = test_params();
        let blocks = vec![test_block()];
        crate::flops::reset_thread_visits();
        value_exact(&p, &blocks);
        assert_eq!(crate::flops::thread_visits(), 81);
    }

    /// A block with exactly `n` active pixels clustered around the
    /// source (all survive screening, so each one enters the rank-2
    /// tile): parameterizes the tile fill count directly.
    fn tiny_block(n: usize, center: [f64; 2], band: usize, jitter: f64) -> ImageBlock {
        let pixels = (0..n)
            .map(|i| {
                let dx = (i % 3) as f64 - 1.0 + jitter;
                let dy = (i / 3) as f64 - 1.0;
                ActivePixel {
                    px: center[0] + dx,
                    py: center[1] + dy,
                    x: 180.0 + 10.0 * i as f64,
                    eps: 140.0,
                }
            })
            .collect();
        ImageBlock {
            band,
            iota: 290.0,
            jac: [[0.7, 0.03], [-0.02, 0.71]],
            center0: center,
            psf: Arc::new(Psf::core_halo(1.2)),
            pixels,
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The tiled rank-2 triangle fold against the dense reference
        /// at every tile fill: `n1 + n2` surviving pixels sweep full
        /// tiles, odd tails of 1..3, and the carry of a partially
        /// filled tile across the block boundary (the tile persists
        /// between image blocks). Parity bar: 1e-12 relative to the
        /// output's max-abs scale, same as the pinned unit test.
        #[test]
        fn tiled_rank2_fold_matches_dense_at_every_tail_size(
            n1 in 1usize..10,
            n2 in 0usize..7,
            jitter in -0.3..0.3f64,
            pscale in 0.2..1.0f64,
        ) {
            let mut p = test_params();
            for (i, v) in p.iter_mut().enumerate() {
                *v += 0.02 * pscale * ((i * 7 % 13) as f64 - 6.0) / 6.0;
            }
            let mut blocks = vec![tiny_block(n1, [10.0, 12.0], 2, jitter)];
            if n2 > 0 {
                blocks.push(tiny_block(n2, [10.5, 11.5], 3, -jitter));
            }
            let mut gp = [0.0; NUM_PARAMS];
            let mut hp = Mat::zeros(NUM_PARAMS, NUM_PARAMS);
            let vp = deriv_exact(&p, &blocks, &mut gp, &mut hp);
            let mut gd = [0.0; NUM_PARAMS];
            let mut hd = Mat::zeros(NUM_PARAMS, NUM_PARAMS);
            let vd = add_likelihood_dense(&p, &blocks, &mut gd, &mut hd);
            prop_assert!((vp - vd).abs() <= 1e-12 * (1.0 + vd.abs()));
            let gscale = gd.iter().fold(1.0_f64, |m, g| m.max(g.abs()));
            let hscale = hd.max_abs().max(1.0);
            for i in 0..NUM_PARAMS {
                prop_assert!(
                    (gp[i] - gd[i]).abs() <= 1e-12 * gscale,
                    "grad[{}]: packed {} vs dense {}", i, gp[i], gd[i]
                );
                for j in 0..NUM_PARAMS {
                    prop_assert!(
                        (hp[(i, j)] - hd[(i, j)]).abs() <= 1e-12 * hscale,
                        "H[{}][{}]: packed {} vs dense {}", i, j, hp[(i, j)], hd[(i, j)]
                    );
                }
            }
        }
    }
}
