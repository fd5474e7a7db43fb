//! Bvn-kernel probe: per-route chunk histogram, per-route timing, and
//! a dispatched-vs-portable parity check on a realistic prepared
//! galaxy + star. Timings are informational (not a benchmark of
//! record); the parity check is a gate — any mismatch beyond 1e-12
//! exits nonzero, so CI can run this as a smoke test.

use celeste_core::bvn::{Appearance, GalaxyGeo, GeoEval, RouteCounts};
use celeste_survey::psf::Psf;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

fn time_ns<O>(reps: usize, mut f: impl FnMut() -> O) -> f64 {
    for _ in 0..reps / 4 {
        black_box(f());
    }
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..reps {
            black_box(f());
        }
        best = best.min(t.elapsed().as_secs_f64() / reps as f64 * 1e9);
    }
    best
}

/// Pixels bucketed by the route their screening chunks take, so each
/// route's cost is timed over pixels that actually exercise it.
struct RouteBuckets {
    /// Every chunk skipped (far wings).
    all_skip: Vec<(f64, f64)>,
    /// At least one full/half batch chunk (core pixels).
    batch: Vec<(f64, f64)>,
    /// At least one masked chunk, none batched (boundary ring).
    masked: Vec<(f64, f64)>,
    /// Survivors but neither batch nor masked chunks (scalar stream).
    scalar: Vec<(f64, f64)>,
}

fn bucket(pts: &[(f64, f64)], counts_of: impl Fn(f64, f64) -> RouteCounts) -> RouteBuckets {
    let mut b = RouteBuckets {
        all_skip: Vec::new(),
        batch: Vec::new(),
        masked: Vec::new(),
        scalar: Vec::new(),
    };
    for &(x, y) in pts {
        let c = counts_of(x, y);
        if c.batch > 0 {
            b.batch.push((x, y));
        } else if c.masked > 0 {
            b.masked.push((x, y));
        } else if c.scalar > 0 {
            b.scalar.push((x, y));
        } else {
            b.all_skip.push((x, y));
        }
    }
    b
}

fn report_route(label: &str, pts: &[(f64, f64)], eval: impl FnMut() -> f64) {
    if pts.is_empty() {
        println!("  {label:<9}: {:>5} px (route not exercised)", 0);
        return;
    }
    let reps = 2000;
    let t = time_ns(reps, eval) / pts.len() as f64;
    println!("  {label:<9}: {:>5} px  {t:8.2} ns/px", pts.len());
}

/// Worst relative error between two evaluations, each block (value /
/// gradient / Hessian) normalized by the reference block's own
/// magnitude — mirrors the parity proptests' scaling, so a tiny value
/// next to a large Hessian entry is not misread as a huge error.
fn worst_rel_err(a: &GeoEval, r: &GeoEval) -> f64 {
    let gscale = 1.0 + r.grad.iter().fold(0.0_f64, |m, g| m.max(g.abs()));
    let hscale = 1.0 + r.hess.iter().flatten().fold(0.0_f64, |m, h| m.max(h.abs()));
    let mut worst = (a.val - r.val).abs() / (1.0 + r.val.abs());
    for i in 0..a.grad.len() {
        worst = worst.max((a.grad[i] - r.grad[i]).abs() / gscale);
    }
    for i in 0..a.hess.len() {
        for j in 0..a.hess.len() {
            worst = worst.max((a.hess[i][j] - r.hess[i][j]).abs() / hscale);
        }
    }
    worst
}

/// Culling tolerance both appearances are prepared at; bounds the
/// allowed deviation from the zero-tolerance reference kernel.
const CULL_TOL: f64 = 1e-9;

fn main() -> ExitCode {
    let jac = [[0.7, 0.04], [-0.02, 0.69]];
    let psf = Psf::core_halo(1.3);
    let geo = GalaxyGeo {
        fd_logit: 0.3,
        axis_logit: 0.5,
        angle: 0.8,
        ln_radius: 0.4,
    };
    let mut gal = Appearance::default();
    gal.prepare_galaxy(&psf, &geo, [10.0, 12.0], [0.1, -0.2], &jac, CULL_TOL);
    let mut star = Appearance::default();
    star.prepare_star(&psf, [10.0, 12.0], [0.1, -0.2], &jac, CULL_TOL);

    // A dense grid spanning core, boundary ring, and wings, so every
    // route (skip / batch / masked / scalar) is represented.
    let pts: Vec<(f64, f64)> = (0..32)
        .flat_map(|i| {
            (0..32).map(move |j| {
                (
                    10.0 + (i as f64 - 16.0) * 0.9,
                    12.0 + (j as f64 - 16.0) * 0.9,
                )
            })
        })
        .collect();

    // --- Chunk-route histogram (dispatched derivative routing) -----
    let mut gal_routes = RouteCounts::default();
    let mut star_routes = RouteCounts::default();
    for &(x, y) in &pts {
        gal_routes.add(&gal.route_counts(x, y));
        star_routes.add(&star.route_counts(x, y));
    }
    for (name, c) in [("galaxy", &gal_routes), ("star", &star_routes)] {
        let total = c.total().max(1);
        println!(
            "{name} chunk routes over {} px: skip={} batch={} masked={} scalar={} \
             ({:.1}% / {:.1}% / {:.1}% / {:.1}%)",
            pts.len(),
            c.skip,
            c.batch,
            c.masked,
            c.scalar,
            100.0 * c.skip as f64 / total as f64,
            100.0 * c.batch as f64 / total as f64,
            100.0 * c.masked as f64 / total as f64,
            100.0 * c.scalar as f64 / total as f64,
        );
    }

    // --- Per-route timing (galaxy derivative kernel) ---------------
    println!("galaxy deriv, per route bucket:");
    let buckets = bucket(&pts, |x, y| gal.route_counts(x, y));
    for (label, bpts) in [
        ("skip", &buckets.all_skip),
        ("batch", &buckets.batch),
        ("masked", &buckets.masked),
        ("scalar", &buckets.scalar),
    ] {
        report_route(label, bpts, || {
            bpts.iter().map(|&(x, y)| gal.eval(x, y).val).sum::<f64>()
        });
    }

    // --- Headline dispatched vs portable timings -------------------
    let reps = 2000;
    let n = pts.len() as f64;
    let t = time_ns(reps, || {
        pts.iter().map(|&(x, y)| gal.eval_value(x, y)).sum::<f64>()
    }) / n;
    println!("gal value dispatched : {t:8.2} ns/px");
    let t = time_ns(reps, || {
        pts.iter()
            .map(|&(x, y)| gal.eval_value_portable(x, y))
            .sum::<f64>()
    }) / n;
    println!("gal value portable   : {t:8.2} ns/px");
    let t = time_ns(reps, || {
        pts.iter().map(|&(x, y)| gal.eval(x, y).val).sum::<f64>()
    }) / n;
    println!("gal deriv dispatched : {t:8.2} ns/px");
    let t = time_ns(reps, || {
        pts.iter()
            .map(|&(x, y)| gal.eval_portable(x, y).val)
            .sum::<f64>()
    }) / n;
    println!("gal deriv portable   : {t:8.2} ns/px");
    let t = time_ns(reps, || {
        pts.iter().map(|&(x, y)| star.eval_value(x, y)).sum::<f64>()
    }) / n;
    println!("star value dispatched: {t:8.2} ns/px");
    let t = time_ns(reps, || {
        pts.iter()
            .map(|&(x, y)| star.eval_value_portable(x, y))
            .sum::<f64>()
    }) / n;
    println!("star value portable  : {t:8.2} ns/px");
    let t = time_ns(reps, || {
        pts.iter().map(|&(x, y)| star.eval(x, y).val).sum::<f64>()
    }) / n;
    println!("star deriv dispatched: {t:8.2} ns/px");
    let t = time_ns(reps, || {
        pts.iter()
            .map(|&(x, y)| star.eval_portable(x, y).val)
            .sum::<f64>()
    }) / n;
    println!("star deriv portable  : {t:8.2} ns/px");

    // --- Parity gate: dispatched vs portable vs reference ----------
    // Dispatched vs portable share the same screening cut, so they
    // must agree to 1e-12. The zero-tolerance reference differs by
    // the documented culling bound (comps × cull_tol), gated with a
    // 10× slack so genuine kernel breakage still trips it.
    let cull_bound = 10.0 * (gal.n_comps().max(star.n_comps())) as f64 * CULL_TOL;
    let mut worst_dp = 0.0_f64;
    let mut worst_ref = 0.0_f64;
    for &(x, y) in &pts {
        for (d, p, r) in [
            (
                gal.eval(x, y),
                gal.eval_portable(x, y),
                gal.eval_reference(x, y),
            ),
            (
                star.eval(x, y),
                star.eval_portable(x, y),
                star.eval_reference(x, y),
            ),
        ] {
            worst_dp = worst_dp.max(worst_rel_err(&d, &p));
            worst_ref = worst_ref
                .max(worst_rel_err(&d, &r))
                .max(worst_rel_err(&p, &r));
        }
        for a in [&gal, &star] {
            let (vd, vp) = (a.eval_value(x, y), a.eval_value_portable(x, y));
            worst_dp = worst_dp.max((vd - vp).abs() / (1.0 + vp.abs()));
        }
    }
    println!("parity dispatched vs portable : {worst_dp:.3e} (gate 1e-12)");
    println!("parity vs frozen reference    : {worst_ref:.3e} (culling bound {cull_bound:.1e})");
    if worst_dp > 1e-12 || worst_ref > cull_bound {
        eprintln!("bvn_probe: PARITY FAILURE — kernel instantiations disagree");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
