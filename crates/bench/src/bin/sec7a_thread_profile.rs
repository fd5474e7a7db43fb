//! §VII-A reproduction: per-thread runtime breakdown.
//!
//! The paper profiles a worker thread: 67% generated (model) code, 18%
//! native dependencies / runtime, 10% system math library, 3% MKL, 2%
//! kernel. Our analogue instruments the same roles in the Rust port:
//! the ELBO kernels (model code), linear algebra (one trust-region
//! point: the Householder–QL eigendecomposition of the 44×44 model
//! plus its secular-equation solve = the MKL role), image I/O (encode
//! and decode of the already-rendered images = native deps), and
//! everything else (scheduling, allocation, misc).

use celeste_core::likelihood::{add_likelihood_into, likelihood_value_into, LikScratch};
use celeste_core::{FitConfig, ModelPriors, SourceParams};
use celeste_linalg::{Mat, TrWorkspace};
use celeste_survey::io::{decode_image, encode_image};
use celeste_survey::Priors;
use std::time::Instant;

fn main() {
    // One realistic source-fit workload, instrumented by role.
    let scene = celeste_bench::stripe82_scene(1, 25_000.0, 0x7A);
    let refs: Vec<&celeste_survey::Image> = scene.single_run.iter().collect();
    let priors = ModelPriors::new(Priors::sdss_default());
    let cfg = FitConfig::default();
    let brightest = scene
        .truth
        .entries
        .iter()
        .max_by(|a, b| a.flux_r_nmgy.partial_cmp(&b.flux_r_nmgy).unwrap())
        .expect("nonempty scene");
    let sp = SourceParams::init_from_entry(brightest);
    let problem = celeste_core::SourceProblem::build(&sp, &refs, &[], &priors, &cfg);

    // Role 1: ELBO kernels (the "Julia generated code" role), exact
    // (culling tolerance 0), scratch and outputs built and sized once
    // outside the timed loop.
    let reps = 40;
    let mut lik = LikScratch::default();
    let mut g = [0.0; celeste_core::NUM_PARAMS];
    let mut h = Mat::zeros(celeste_core::NUM_PARAMS, celeste_core::NUM_PARAMS);
    let mut value = likelihood_value_into(&sp.params, &problem.blocks, &mut lik, 0.0);
    let t = Instant::now();
    for _ in 0..reps {
        add_likelihood_into(&sp.params, &problem.blocks, &mut g, &mut h, &mut lik, 0.0);
        value += likelihood_value_into(&sp.params, &problem.blocks, &mut lik, 0.0);
    }
    std::hint::black_box((value, &g, &h));
    let t_model = t.elapsed().as_secs_f64();

    // Role 2: dense linear algebra (the "MKL" role): what a Newton
    // point costs the optimizer, one decomposition of the negated
    // model plus one trust-region solve, in a workspace built once.
    g.fill(0.0);
    h.fill_zero();
    add_likelihood_into(&sp.params, &problem.blocks, &mut g, &mut h, &mut lik, 0.0);
    let mut tr = TrWorkspace::new(celeste_core::NUM_PARAMS);
    let (model_h, model_g) = tr.model_mut();
    model_h.copy_from(&h);
    model_h.scale(-1.0);
    model_h.symmetrize();
    for (mg, &gi) in model_g.iter_mut().zip(&g) {
        *mg = -gi;
    }
    let t = Instant::now();
    for _ in 0..reps {
        tr.decompose();
        std::hint::black_box(tr.solve(1.0));
    }
    let t_linalg = t.elapsed().as_secs_f64();

    // Role 3: image I/O (the "native dependencies" role): encode and
    // decode the scene's already-rendered images, as a worker loading
    // its fields would.
    let t = Instant::now();
    for i in 0..reps {
        let bytes = encode_image(&scene.single_run[i % scene.single_run.len()]);
        std::hint::black_box(decode_image(&bytes).expect("roundtrip"));
    }
    let t_io = t.elapsed().as_secs_f64();

    // Role 4: everything else — approximate with the scheduling +
    // bookkeeping overhead of a region pass minus the measured roles.
    let t = Instant::now();
    let mut sources = vec![sp.clone()];
    celeste_sched::process_region(&mut sources, &refs, &[], &priors, &cfg, 1, 1);
    let t_region = t.elapsed().as_secs_f64();

    let total = t_model + t_linalg + t_io + t_region.max(0.0);
    println!("Per-thread runtime breakdown (paper §VII-A analogue)\n");
    let row = |name: &str, t: f64, paper: &str| {
        println!("{name:<34} {:>6.1}%   (paper: {paper})", 100.0 * t / total);
    };
    row("model/ELBO kernels", t_model, "67% Julia generated code");
    row(
        "image encode/decode (native deps)",
        t_io,
        "18% native dependencies",
    );
    row("dense linear algebra (TR solve)", t_linalg, "3% Intel MKL");
    row(
        "scheduling/alloc/other",
        t_region,
        "10% libm + 2% kernel/libc",
    );
    println!(
        "\n(absolute: model {:.2}s, io {:.2}s, linalg {:.3}s, other {:.2}s over the probe workload)",
        t_model, t_io, t_linalg, t_region
    );
}
