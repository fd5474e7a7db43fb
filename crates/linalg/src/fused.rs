//! Fused-multiply-add strategy and runtime SIMD dispatch, shared by
//! every hand-vectorized kernel in the workspace.
//!
//! The hot kernels (the bivariate-normal geometry kernel in
//! `celeste-core::bvn`, the 28-slot packed likelihood accumulation in
//! `celeste-core::likelihood`) are written once, generic over a
//! [`Madd`] strategy, as a [`Kernel`]. [`dispatch`] runs a kernel
//! either with plain `a*b + c` (the portable baseline) or with
//! [`f64::mul_add`] inside the crate's one `avx2,fma` target-feature
//! function (where it compiles to a single `vfmadd` instead of a libm
//! call). Blanket `-C target-cpu=native` was measured to *hurt*
//! (AVX-512 downclock, and the dense reference baseline
//! autovectorizes), so SIMD stays explicit and runtime-dispatched
//! through this module.
//!
//! A kernel is entered once per call — a whole likelihood evaluation
//! decides once and walks every pixel at that one strategy — so the
//! value-only and derivative paths round identically and screening
//! cuts (`qf ≤ qf_cut` in the bvn kernel) make bit-identical culling
//! decisions in both. Everything a kernel calls down to its
//! [`Madd::madd`] must be `#[inline(always)]`: a function that is not
//! inlined into the target-feature function compiles without `fma`,
//! and `mul_add` there becomes a libm call.
//!
//! Setting `CELESTE_FORCE_SCALAR=1` in the environment forces the
//! portable instantiation everywhere (read once per process), so the
//! scalar fallback stays exercised on AVX2 hardware — CI runs a
//! dedicated leg with it set.

use std::sync::OnceLock;

/// Fused-multiply-add strategy for hand-vectorized kernels: computes
/// `a*b + c` either as two rounded operations (portable) or as one
/// fused contraction (hardware FMA). The FMA form is at least as
/// accurate (one rounding instead of two), so both instantiations of
/// a kernel agree with a dense reference within a 1e-12 parity bar —
/// but they are *not* bit-identical to each other, which is why the
/// dispatch decision must be process-global ([`fma_enabled`]).
pub trait Madd {
    /// Whether this is the hardware contraction, i.e. the strategy
    /// [`dispatch`] runs inside its `avx2,fma` function: kernels key
    /// SIMD-only routing (batched exponentials) on it.
    const FUSED: bool;
    fn madd(a: f64, b: f64, c: f64) -> f64;
}

/// Plain multiply-then-add (portable baseline).
pub struct ScalarMadd;

impl Madd for ScalarMadd {
    const FUSED: bool = false;
    #[inline(always)]
    fn madd(a: f64, b: f64, c: f64) -> f64 {
        a * b + c
    }
}

/// Hardware contraction; [`dispatch`] instantiates it inside its
/// `avx2,fma` function (elsewhere `mul_add` is a libm call, with the
/// same result but far slower than two plain ops).
#[cfg(target_arch = "x86_64")]
pub struct HwFma;

#[cfg(target_arch = "x86_64")]
impl Madd for HwFma {
    const FUSED: bool = true;
    #[inline(always)]
    fn madd(a: f64, b: f64, c: f64) -> f64 {
        a.mul_add(b, c)
    }
}

/// The dispatch decision, given whether the scalar path is forced:
/// split out of [`fma_enabled`] so the policy is unit-testable
/// without mutating process environment.
fn decide(force_scalar: bool) -> bool {
    if force_scalar {
        return false;
    }
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn force_scalar_env() -> bool {
    std::env::var("CELESTE_FORCE_SCALAR").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Whether the `avx2,fma` kernel instantiations are dispatched in
/// this process. Cached once: CPU features cannot change, and the
/// `CELESTE_FORCE_SCALAR` override is read a single time so the
/// value-only and derivative paths can never disagree mid-run.
pub fn fma_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| decide(force_scalar_env()))
}

/// Which kernel instantiation this process dispatches — `"fma"` or
/// `"scalar"` — for benchmark records: committed numbers from
/// different machines are only comparable when the instantiation is
/// known (a scalar-path run silently looks like a regression against
/// an FMA-path baseline).
pub fn kernel_isa() -> &'static str {
    if fma_enabled() {
        "fma"
    } else {
        "scalar"
    }
}

/// A computation written once, generic over the madd strategy, and
/// run by [`dispatch`] at the strategy the process uses.
pub trait Kernel {
    type Out;
    /// Run with strategy `F`: `#[inline(always)]`, like every function
    /// between here and an `F::madd` (see the module docs).
    fn run<F: Madd>(self) -> Self::Out;
}

/// Run `kernel` under the process-global [`fma_enabled`] decision:
/// the one place in the workspace that picks an instantiation.
#[inline]
pub fn dispatch<K: Kernel>(kernel: K) -> K::Out {
    #[cfg(target_arch = "x86_64")]
    if fma_enabled() {
        // SAFETY: fma_enabled() verified avx2+fma at runtime.
        return unsafe { run_fma(kernel) };
    }
    kernel.run::<ScalarMadd>()
}

/// The `avx2,fma` instantiation of every kernel.
///
/// # Safety
/// Caller must have verified `avx2`+`fma` support at runtime
/// ([`dispatch`] gates on [`fma_enabled`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn run_fma<K: Kernel>(kernel: K) -> K::Out {
    kernel.run::<HwFma>()
}

/// `out[j] += c1·x[j] + c2·y[j]` — the packed-triangle row update
/// shared by the likelihood kernel's rank-2 chain terms and
/// flux-block triangles. Generic over the madd strategy; call from a
/// [`Kernel`] for the FMA instantiation.
#[inline(always)]
pub fn axpy2<F: Madd>(out: &mut [f64], c1: f64, x: &[f64], c2: f64, y: &[f64]) {
    debug_assert_eq!(out.len(), x.len());
    debug_assert_eq!(out.len(), y.len());
    for j in 0..out.len() {
        out[j] = F::madd(c1, x[j], F::madd(c2, y[j], out[j]));
    }
}

/// `out[j] += Σ_p c1[p]·x[p][j] + c2[p]·y[p][j]` — the tiled form of
/// [`axpy2`]: `P` coefficient/row pairs folded into `out` with one
/// read-modify-write of each output slot instead of `P`. This is the
/// inner update of the likelihood kernel's tiled rank-2 accumulation:
/// the FLOP count matches `P` separate [`axpy2`] calls, but the
/// destination row (a packed Hessian triangle in the hot caller)
/// streams through registers once per tile rather than once per
/// pixel, and the `P` independent madd chains per slot give the SIMD
/// instantiation real ILP. `out` may be shorter than the `N`-wide
/// source rows (triangle rows grow with the row index); the fold
/// reads only the first `out.len()` entries of each.
#[inline(always)]
pub fn axpy2_tile<F: Madd, const P: usize, const N: usize>(
    out: &mut [f64],
    c1: &[f64; P],
    x: &[[f64; N]; P],
    c2: &[f64; P],
    y: &[[f64; N]; P],
) {
    assert!(out.len() <= N);
    for (j, o) in out.iter_mut().enumerate() {
        let mut acc = *o;
        for p in 0..P {
            acc = F::madd(c1[p], x[p][j], F::madd(c2[p], y[p][j], acc));
        }
        *o = acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decide_respects_force_scalar() {
        assert!(!decide(true));
        // Un-forced: must agree with the direct feature probe.
        #[cfg(target_arch = "x86_64")]
        assert_eq!(
            decide(false),
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        );
        #[cfg(not(target_arch = "x86_64"))]
        assert!(!decide(false));
    }

    #[test]
    fn isa_string_matches_dispatch() {
        assert_eq!(kernel_isa(), if fma_enabled() { "fma" } else { "scalar" });
    }

    #[test]
    fn dispatch_runs_the_decided_strategy() {
        struct Probe(f64);
        impl Kernel for Probe {
            type Out = (bool, f64);
            #[inline(always)]
            fn run<F: Madd>(self) -> (bool, f64) {
                (F::FUSED, F::madd(self.0, 3.0, 1.0))
            }
        }
        let (fused, v) = dispatch(Probe(2.0));
        assert_eq!(fused, fma_enabled());
        assert_eq!(v, 7.0);
    }

    #[test]
    fn axpy2_matches_two_axpys() {
        let x = [1.0, -2.0, 3.0, 0.5];
        let y = [0.25, 4.0, -1.5, 2.0];
        let mut out = [1.0, 1.0, 1.0, 1.0];
        axpy2::<ScalarMadd>(&mut out, 2.0, &x, -3.0, &y);
        for j in 0..4 {
            let want = 1.0 + 2.0 * x[j] - 3.0 * y[j];
            assert!((out[j] - want).abs() < 1e-12, "slot {j}");
        }
    }

    #[test]
    fn axpy2_tile_matches_sequential_axpy2s() {
        // The tiled fold must equal applying the P row pairs one at a
        // time (same FLOPs, reassociated accumulation) to well within
        // the kernels' 1e-12 parity bar.
        let x = [
            [1.0, -2.0, 3.0, 0.5, 0.25],
            [0.1, 0.2, -0.3, 0.4, -0.5],
            [2.0, -1.0, 0.0, 1.5, 0.75],
        ];
        let y = [
            [0.25, 4.0, -1.5, 2.0, 1.0],
            [-1.0, 0.5, 0.25, -0.75, 2.0],
            [0.0, 1.0, -2.0, 3.0, -4.0],
        ];
        let c1 = [2.0, -0.5, 1.25];
        let c2 = [-3.0, 0.75, 0.5];
        for len in 0..=5 {
            let mut tiled = vec![1.0; len];
            axpy2_tile::<ScalarMadd, 3, 5>(&mut tiled, &c1, &x, &c2, &y);
            let mut seq = vec![1.0; len];
            for p in 0..3 {
                axpy2::<ScalarMadd>(&mut seq, c1[p], &x[p][..len], c2[p], &y[p][..len]);
            }
            for j in 0..len {
                assert!(
                    (tiled[j] - seq[j]).abs() < 1e-13 * (1.0 + seq[j].abs()),
                    "len {len} slot {j}: {} vs {}",
                    tiled[j],
                    seq[j]
                );
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn hwfma_agrees_with_scalar_within_ulps() {
        for i in 0..100 {
            let a = 0.1 + 0.37 * i as f64;
            let b = -5.0 + 0.11 * i as f64;
            let c = 1.0 / (1.0 + i as f64);
            let f = HwFma::madd(a, b, c);
            let s = ScalarMadd::madd(a, b, c);
            assert!((f - s).abs() <= 1e-13 * (1.0 + s.abs()), "{f} vs {s}");
        }
    }
}
