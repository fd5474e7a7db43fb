//! Bivariate Gaussian mixtures — the shared representation for PSFs,
//! galaxy profiles, and rendered source appearances.
//!
//! Both the forward simulator ([`crate::render`]) and Celeste's
//! likelihood evaluate sources as mixtures of bivariate normals: a star
//! is the PSF mixture; a galaxy is its profile mixture convolved with
//! the PSF (convolution of Gaussians = sum of covariances).

/// Symmetric 2×2 covariance, stored as (xx, xy, yy) in pixel² units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cov2 {
    pub xx: f64,
    pub xy: f64,
    pub yy: f64,
}

impl Cov2 {
    /// Isotropic covariance σ²·I.
    pub fn isotropic(var: f64) -> Cov2 {
        Cov2 {
            xx: var,
            xy: 0.0,
            yy: var,
        }
    }

    /// Determinant.
    #[inline]
    pub fn det(&self) -> f64 {
        self.xx * self.yy - self.xy * self.xy
    }

    /// Sum of covariances (Gaussian convolution).
    #[inline]
    pub fn add(&self, o: &Cov2) -> Cov2 {
        Cov2 {
            xx: self.xx + o.xx,
            xy: self.xy + o.xy,
            yy: self.yy + o.yy,
        }
    }

    /// Scale all entries (e.g. unit-radius profile × r_e²).
    #[inline]
    pub fn scaled(&self, s: f64) -> Cov2 {
        Cov2 {
            xx: self.xx * s,
            xy: self.xy * s,
            yy: self.yy * s,
        }
    }

    /// Congruence transform `J Σ Jᵀ` for a 2×2 Jacobian (sky→pixel
    /// mapping of a sky-frame covariance).
    pub fn congruence(&self, j: &[[f64; 2]; 2]) -> Cov2 {
        let a = j[0][0];
        let b = j[0][1];
        let c = j[1][0];
        let d = j[1][1];
        Cov2 {
            xx: a * a * self.xx + 2.0 * a * b * self.xy + b * b * self.yy,
            xy: a * c * self.xx + (a * d + b * c) * self.xy + b * d * self.yy,
            yy: c * c * self.xx + 2.0 * c * d * self.xy + d * d * self.yy,
        }
    }

    /// Largest marginal standard deviation — conservative bounding-box
    /// radius scale.
    pub fn max_sigma(&self) -> f64 {
        self.xx.max(self.yy).sqrt()
    }
}

/// One weighted bivariate normal component centered at `mean` (pixels).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BvnComponent {
    pub weight: f64,
    pub mean: [f64; 2],
    pub cov: Cov2,
}

impl BvnComponent {
    /// Density × weight at pixel (x, y).
    #[inline]
    pub fn eval(&self, x: f64, y: f64) -> f64 {
        let det = self.cov.det();
        debug_assert!(det > 0.0, "degenerate covariance {:?}", self.cov);
        let inv_det = 1.0 / det;
        let dx = x - self.mean[0];
        let dy = y - self.mean[1];
        // Quadratic form through the explicit 2×2 inverse.
        let q =
            (self.cov.yy * dx * dx - 2.0 * self.cov.xy * dx * dy + self.cov.xx * dy * dy) * inv_det;
        self.weight * (-0.5 * q).exp() * inv_det.sqrt() / std::f64::consts::TAU
    }
}

/// A mixture of bivariate normals.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Gmm {
    pub components: Vec<BvnComponent>,
}

impl Gmm {
    pub fn new(components: Vec<BvnComponent>) -> Gmm {
        Gmm { components }
    }

    /// Total mixture weight (flux fraction represented).
    pub fn total_weight(&self) -> f64 {
        self.components.iter().map(|c| c.weight).sum()
    }

    /// Density at (x, y): sum of weighted component densities.
    #[inline]
    pub fn eval(&self, x: f64, y: f64) -> f64 {
        self.components.iter().map(|c| c.eval(x, y)).sum()
    }

    /// Convolve with another centered mixture (e.g. profile ⊛ PSF):
    /// the pairwise product mixture with summed covariances. The other
    /// mixture's means are treated as offsets added to ours.
    pub fn convolve(&self, psf: &Gmm) -> Gmm {
        let mut out = Vec::with_capacity(self.components.len() * psf.components.len());
        for a in &self.components {
            for b in &psf.components {
                out.push(BvnComponent {
                    weight: a.weight * b.weight,
                    mean: [a.mean[0] + b.mean[0], a.mean[1] + b.mean[1]],
                    cov: a.cov.add(&b.cov),
                });
            }
        }
        Gmm::new(out)
    }

    /// Conservative radius (pixels), measured from the mixture's
    /// weight-weighted mean, beyond which density is negligible:
    /// `nsigma` times the largest component sigma plus the largest
    /// component offset from that mean. Translation-invariant: a
    /// [`Gmm::shifted`] copy has the same radius.
    pub fn support_radius(&self, nsigma: f64) -> f64 {
        let w = self.total_weight();
        let (mx, my) = self.components.iter().fold((0.0, 0.0), |(x, y), c| {
            (x + c.weight * c.mean[0], y + c.weight * c.mean[1])
        });
        let (mx, my) = (mx / w, my / w);
        let max_sd = self
            .components
            .iter()
            .map(|c| c.cov.max_sigma())
            .fold(0.0_f64, f64::max);
        let max_off = self
            .components
            .iter()
            .map(|c| (c.mean[0] - mx).hypot(c.mean[1] - my))
            .fold(0.0_f64, f64::max);
        nsigma * max_sd + max_off
    }

    /// Shift every component mean by (dx, dy).
    pub fn shifted(&self, dx: f64, dy: f64) -> Gmm {
        Gmm::new(
            self.components
                .iter()
                .map(|c| BvnComponent {
                    weight: c.weight,
                    mean: [c.mean[0] + dx, c.mean[1] + dy],
                    cov: c.cov,
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_gaussian_integrates_to_one() {
        let g = BvnComponent {
            weight: 1.0,
            mean: [0.0, 0.0],
            cov: Cov2::isotropic(1.0),
        };
        // Riemann sum over ±6σ.
        let mut total = 0.0;
        let step = 0.05;
        let n = (12.0 / step) as i64;
        for i in 0..n {
            for j in 0..n {
                let x = -6.0 + (i as f64 + 0.5) * step;
                let y = -6.0 + (j as f64 + 0.5) * step;
                total += g.eval(x, y) * step * step;
            }
        }
        assert!((total - 1.0).abs() < 1e-4, "integral {total}");
    }

    #[test]
    fn peak_value_matches_formula() {
        let var = 2.5;
        let g = BvnComponent {
            weight: 3.0,
            mean: [1.0, -1.0],
            cov: Cov2::isotropic(var),
        };
        let peak = g.eval(1.0, -1.0);
        assert!((peak - 3.0 / (std::f64::consts::TAU * var)).abs() < 1e-12);
    }

    #[test]
    fn anisotropic_quadratic_form() {
        let cov = Cov2 {
            xx: 4.0,
            xy: 1.0,
            yy: 2.0,
        };
        let g = BvnComponent {
            weight: 1.0,
            mean: [0.0, 0.0],
            cov,
        };
        // det = 7; at (1,0): q = yy/det = 2/7
        let expect = (-0.5_f64 * (2.0 / 7.0)).exp() / (std::f64::consts::TAU * 7.0_f64.sqrt());
        assert!((g.eval(1.0, 0.0) - expect).abs() < 1e-14);
    }

    #[test]
    fn convolution_adds_covariances() {
        let a = Gmm::new(vec![BvnComponent {
            weight: 1.0,
            mean: [0.0, 0.0],
            cov: Cov2::isotropic(1.0),
        }]);
        let b = Gmm::new(vec![BvnComponent {
            weight: 1.0,
            mean: [0.0, 0.0],
            cov: Cov2::isotropic(3.0),
        }]);
        let c = a.convolve(&b);
        assert_eq!(c.components.len(), 1);
        assert!((c.components[0].cov.xx - 4.0).abs() < 1e-15);
        assert!((c.total_weight() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn convolution_weight_is_product_sum() {
        let mk = |ws: &[f64]| {
            Gmm::new(
                ws.iter()
                    .map(|&w| BvnComponent {
                        weight: w,
                        mean: [0.0, 0.0],
                        cov: Cov2::isotropic(1.0),
                    })
                    .collect(),
            )
        };
        let a = mk(&[0.6, 0.4]);
        let b = mk(&[0.8, 0.2]);
        let c = a.convolve(&b);
        assert_eq!(c.components.len(), 4);
        assert!((c.total_weight() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn congruence_matches_direct_computation() {
        let cov = Cov2 {
            xx: 2.0,
            xy: 0.5,
            yy: 1.0,
        };
        let j = [[3.0, 0.0], [0.0, 2.0]];
        let t = cov.congruence(&j);
        assert!((t.xx - 18.0).abs() < 1e-14);
        assert!((t.xy - 3.0).abs() < 1e-14);
        assert!((t.yy - 4.0).abs() < 1e-14);
    }

    #[test]
    fn support_radius_bounds_density() {
        let g = Gmm::new(vec![BvnComponent {
            weight: 1.0,
            mean: [0.0, 0.0],
            cov: Cov2::isotropic(4.0),
        }]);
        let r = g.support_radius(5.0);
        assert!((r - 10.0).abs() < 1e-12);
        // At 5σ the density is e^{−12.5} ≈ 3.7e−6 of the peak.
        assert!(g.eval(r, 0.0) < 1e-5 * g.eval(0.0, 0.0));
    }

    #[test]
    fn support_radius_is_translation_invariant() {
        let g = Gmm::new(vec![
            BvnComponent {
                weight: 0.7,
                mean: [0.5, -0.25],
                cov: Cov2::isotropic(2.25),
            },
            BvnComponent {
                weight: 0.3,
                mean: [-1.0, 0.75],
                cov: Cov2 {
                    xx: 9.0,
                    xy: 1.0,
                    yy: 4.0,
                },
            },
        ]);
        let r = g.support_radius(5.0);
        for (dx, dy) in [(60.0, 60.0), (-60.0, 60.0), (60.0, -60.0), (-60.0, -60.0)] {
            let rs = g.shifted(dx, dy).support_radius(5.0);
            assert!((rs - r).abs() < 1e-9, "shift ({dx}, {dy}): {rs} vs {r}");
        }
    }
}
