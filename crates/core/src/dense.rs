//! The pre-refactor dense likelihood accumulation: the parity
//! reference and benchmark baseline for the packed-triangle kernel in
//! [`crate::likelihood`]. It allocates its NL×NL scratch per call and
//! fills every slot per pixel — deliberately kept out of
//! `likelihood.rs` so the kernel file stays allocation-free (enforced
//! by `celeste_lint`); never call this on a hot path.

use crate::bvn::{Appearance, GEO};
use crate::fluxdist::{flux_moments, type_weight, NF};
use crate::likelihood::{cf, galaxy_geo, lik_param_ids, ImageBlock, CA, CG, NL, RATE_FLOOR};
use crate::params::{ids, NUM_PARAMS};
use celeste_linalg::Mat;

/// The pre-refactor dense accumulation: fills all NL×NL slots of the
/// compact Hessian per pixel. Kept as the parity reference for the
/// packed-triangle kernel and as the benchmark baseline — do not use
/// on hot paths.
pub fn add_likelihood_dense(
    params: &[f64; NUM_PARAMS],
    blocks: &[ImageBlock],
    grad: &mut [f64; NUM_PARAMS],
    hess: &mut Mat,
) -> f64 {
    let map = lik_param_ids();
    let mut value = 0.0;
    let mut g28 = [0.0; NL];
    let mut h28 = vec![[0.0; NL]; NL];

    let u = [params[ids::U[0]], params[ids::U[1]]];
    let w = [type_weight(params, 0), type_weight(params, 1)];

    for block in blocks {
        let star = Appearance::star(&block.psf, block.center0, u, &block.jac);
        let gal = Appearance::galaxy(
            &block.psf,
            &galaxy_geo(params),
            block.center0,
            u,
            &block.jac,
        );
        let moments = [
            flux_moments(params, 0, block.band),
            flux_moments(params, 1, block.band),
        ];
        crate::flops::record_visits(block.pixels.len() as u64);

        for pix in &block.pixels {
            let geo = [
                star.eval_reference(pix.px, pix.py),
                gal.eval_reference(pix.px, pix.py),
            ];

            // Values.
            let iota = block.iota;
            let iota2 = iota * iota;
            let mut s = 0.0;
            let mut q = 0.0;
            for t in 0..2 {
                let (l, s2) = (&moments[t].0, &moments[t].1);
                s += iota * w[t].val * l.val * geo[t].val;
                q += iota2 * w[t].val * s2.val * geo[t].val * geo[t].val;
            }
            let e = (pix.eps + s).max(RATE_FLOOR);
            let v = (q - s * s).max(0.0);
            let e2 = e * e;
            value += pix.x * (e.ln() - v / (2.0 * e2)) - e;

            // φ partials.
            let phi_e = pix.x / e + pix.x * v / (e2 * e) - 1.0;
            let phi_v = -pix.x / (2.0 * e2);
            let phi_ee = -pix.x / e2 - 3.0 * pix.x * v / (e2 * e2);
            let phi_ev = pix.x / (e2 * e);

            // Dense ∇S and ∇Q over the 28 compact slots.
            let mut ds = [0.0; NL];
            let mut dq = [0.0; NL];
            for t in 0..2 {
                let (l, s2) = (&moments[t].0, &moments[t].1);
                let gt = &geo[t];
                let g2 = gt.val * gt.val;
                // A slots.
                for k in 0..2 {
                    ds[CA[k]] += iota * l.val * gt.val * w[t].grad[k];
                    dq[CA[k]] += iota2 * s2.val * g2 * w[t].grad[k];
                }
                // Flux slots.
                let cfi = cf(t);
                for c in 0..NF {
                    ds[cfi[c]] += iota * w[t].val * gt.val * l.grad[c];
                    dq[cfi[c]] += iota2 * w[t].val * g2 * s2.grad[c];
                }
                // Geometry slots (star: only u).
                let gdim = if t == 0 { 2 } else { GEO };
                for gslot in 0..gdim {
                    ds[CG[gslot]] += iota * w[t].val * l.val * gt.grad[gslot];
                    dq[CG[gslot]] += iota2 * w[t].val * s2.val * 2.0 * gt.val * gt.grad[gslot];
                }
            }
            let mut dv = [0.0; NL];
            for i in 0..NL {
                dv[i] = dq[i] - 2.0 * s * ds[i];
            }

            // Gradient.
            for i in 0..NL {
                g28[i] += phi_e * ds[i] + phi_v * dv[i];
            }

            // Hessian: block-structured ∇²S (scaled cs) and ∇²Q
            // (scaled phi_v), plus the rank-2 φ chain terms.
            let cs = phi_e - 2.0 * s * phi_v;
            for t in 0..2 {
                let (l, s2) = (&moments[t].0, &moments[t].1);
                let gt = &geo[t];
                let g2 = gt.val * gt.val;
                let gdim = if t == 0 { 2 } else { GEO };
                let cfi = cf(t);
                let iw = iota * w[t].val;
                let iw2 = iota2 * w[t].val;

                // A×A.
                for k in 0..2 {
                    for k2 in 0..2 {
                        h28[CA[k]][CA[k2]] += cs * iota * l.val * gt.val * w[t].hess[k][k2]
                            + phi_v * iota2 * s2.val * g2 * w[t].hess[k][k2];
                    }
                }
                // F×F.
                for c in 0..NF {
                    for c2 in 0..NF {
                        h28[cfi[c]][cfi[c2]] +=
                            cs * iw * gt.val * l.hess[c][c2] + phi_v * iw2 * g2 * s2.hess[c][c2];
                    }
                }
                // G×G (G² Hessian: 2(∇G∇Gᵀ + G∇²G)).
                for a in 0..gdim {
                    for b in 0..gdim {
                        let hg2 = 2.0 * (gt.grad[a] * gt.grad[b] + gt.val * gt.hess[a][b]);
                        h28[CG[a]][CG[b]] +=
                            cs * iw * l.val * gt.hess[a][b] + phi_v * iw2 * s2.val * hg2;
                    }
                }
                // A×F (symmetric pair).
                for k in 0..2 {
                    for c in 0..NF {
                        let vs = cs * iota * gt.val * w[t].grad[k] * l.grad[c]
                            + phi_v * iota2 * g2 * w[t].grad[k] * s2.grad[c];
                        h28[CA[k]][cfi[c]] += vs;
                        h28[cfi[c]][CA[k]] += vs;
                    }
                }
                // A×G.
                for k in 0..2 {
                    for a in 0..gdim {
                        let vs = cs * iota * l.val * w[t].grad[k] * gt.grad[a]
                            + phi_v * iota2 * s2.val * w[t].grad[k] * 2.0 * gt.val * gt.grad[a];
                        h28[CA[k]][CG[a]] += vs;
                        h28[CG[a]][CA[k]] += vs;
                    }
                }
                // F×G.
                for c in 0..NF {
                    for a in 0..gdim {
                        let vs = cs * iw * l.grad[c] * gt.grad[a]
                            + phi_v * iw2 * s2.grad[c] * 2.0 * gt.val * gt.grad[a];
                        h28[cfi[c]][CG[a]] += vs;
                        h28[CG[a]][cfi[c]] += vs;
                    }
                }
            }
            // Rank-2 chain terms.
            let a2 = phi_ee - 2.0 * phi_v;
            for i in 0..NL {
                let dsi = ds[i];
                let dvi = dv[i];
                if dsi == 0.0 && dvi == 0.0 {
                    continue;
                }
                let row = &mut h28[i];
                for j in 0..NL {
                    row[j] += a2 * dsi * ds[j] + phi_ev * (dsi * dv[j] + dvi * ds[j]);
                }
            }
        }
    }

    // Scatter compact → 44.
    for i in 0..NL {
        grad[map[i]] += g28[i];
        for j in 0..NL {
            hess[(map[i], map[j])] += h28[i][j];
        }
    }
    value
}
