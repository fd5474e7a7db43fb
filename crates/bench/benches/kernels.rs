//! Criterion microbenchmarks of every hot kernel.
//!
//! These are the per-kernel counterparts of the paper's §VII-A
//! profile: ELBO evaluation (value and derivative paths), the Newton
//! trust-region solve (Jacobi eigendecomposition + secular iteration),
//! Cyclades partitioning, image rendering and container codec, and
//! the Photo baseline.

use celeste_core::likelihood::{
    add_likelihood, add_likelihood_dense, add_likelihood_into, likelihood_value,
    likelihood_value_into, LikScratch,
};
use celeste_core::{ModelPriors, SourceParams};
use celeste_linalg::{solve_tr_subproblem, Cholesky, Mat, SymEigen};
use celeste_photo::{run_photo, PhotoConfig};
use celeste_sched::{conflict_graph, sample_batches};
use celeste_survey::io::{decode_image, encode_image};
use celeste_survey::render::render_expected;
use celeste_survey::{Image, Priors};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn scene() -> (celeste_bench::Stripe82Scene, ModelPriors) {
    (
        celeste_bench::stripe82_scene(1, 25_000.0, 0xBE9C),
        ModelPriors::new(Priors::sdss_default()),
    )
}

fn bench_elbo(c: &mut Criterion) {
    let (scene, priors) = scene();
    let refs: Vec<&Image> = scene.single_run.iter().collect();
    let entry = scene
        .truth
        .entries
        .iter()
        .max_by(|a, b| a.flux_r_nmgy.partial_cmp(&b.flux_r_nmgy).unwrap())
        .expect("scene nonempty");
    let sp = SourceParams::init_from_entry(entry);
    let problem = celeste_core::SourceProblem::build(
        &sp,
        &refs,
        &[],
        &priors,
        &celeste_core::FitConfig::default(),
    );
    let pixels: usize = problem.blocks.iter().map(|b| b.pixels.len()).sum();
    let mut g = c.benchmark_group("elbo");
    g.throughput(criterion::Throughput::Elements(pixels as u64));
    g.bench_function("value_only", |b| {
        b.iter(|| black_box(likelihood_value(&sp.params, &problem.blocks)))
    });
    g.bench_function("value_only_workspace", |b| {
        let mut scratch = LikScratch::default();
        b.iter(|| {
            black_box(likelihood_value_into(
                &sp.params,
                &problem.blocks,
                &mut scratch,
                problem.cull_tol,
            ))
        })
    });
    // The pre-refactor dense accumulation (baseline) vs. the packed
    // lower-triangle kernel, same scene, same run.
    g.bench_function("grad_and_hessian_dense", |b| {
        b.iter(|| {
            let mut grad = [0.0; celeste_core::NUM_PARAMS];
            let mut hess = Mat::zeros(celeste_core::NUM_PARAMS, celeste_core::NUM_PARAMS);
            black_box(add_likelihood_dense(
                &sp.params,
                &problem.blocks,
                &mut grad,
                &mut hess,
            ))
        })
    });
    g.bench_function("grad_and_hessian", |b| {
        b.iter(|| {
            let mut grad = [0.0; celeste_core::NUM_PARAMS];
            let mut hess = Mat::zeros(celeste_core::NUM_PARAMS, celeste_core::NUM_PARAMS);
            black_box(add_likelihood(
                &sp.params,
                &problem.blocks,
                &mut grad,
                &mut hess,
            ))
        })
    });
    g.bench_function("grad_and_hessian_workspace", |b| {
        let mut scratch = LikScratch::default();
        let mut grad = [0.0; celeste_core::NUM_PARAMS];
        let mut hess = Mat::zeros(celeste_core::NUM_PARAMS, celeste_core::NUM_PARAMS);
        b.iter(|| {
            grad.fill(0.0);
            hess.fill_zero();
            black_box(add_likelihood_into(
                &sp.params,
                &problem.blocks,
                &mut grad,
                &mut hess,
                &mut scratch,
                problem.cull_tol,
            ))
        })
    });
    g.finish();
}

fn bench_linalg(c: &mut Criterion) {
    // A representative 44×44 negated ELBO Hessian.
    let n = celeste_core::NUM_PARAMS;
    let b44 = Mat::from_fn(n, n, |i, j| (((i * 31 + j * 17) % 23) as f64 - 11.0) / 11.0);
    let mut h = b44.matmul(&b44.t());
    h.shift_diag(5.0);
    let grad: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64 - 6.0) / 6.0).collect();
    let mut g = c.benchmark_group("linalg44");
    g.bench_function("jacobi_eigen", |b| b.iter(|| black_box(SymEigen::new(&h))));
    g.bench_function("cholesky", |b| {
        b.iter(|| black_box(Cholesky::new(&h).unwrap()))
    });
    g.bench_function("tr_subproblem", |b| {
        b.iter(|| black_box(solve_tr_subproblem(&h, &grad, 0.5)))
    });
    g.finish();
}

fn bench_newton_fit(c: &mut Criterion) {
    let (scene, priors) = scene();
    let refs: Vec<&Image> = scene.single_run.iter().collect();
    let entry = scene
        .truth
        .entries
        .iter()
        .max_by(|a, b| a.flux_r_nmgy.partial_cmp(&b.flux_r_nmgy).unwrap())
        .expect("scene nonempty");
    let cfg = celeste_core::FitConfig::default();
    c.bench_function("fit_single_source", |b| {
        b.iter(|| {
            let mut sp = SourceParams::init_from_entry(entry);
            let problem = celeste_core::SourceProblem::build(&sp, &refs, &[], &priors, &cfg);
            black_box(celeste_core::fit_source(&mut sp, &problem, &cfg).unwrap())
        })
    });
    c.bench_function("fit_single_source_workspace", |b| {
        let mut ws = celeste_core::source_workspace();
        let mut build = celeste_core::BuildScratch::default();
        b.iter(|| {
            let mut sp = SourceParams::init_from_entry(entry);
            let problem =
                celeste_core::SourceProblem::build_with(&sp, &refs, &[], &priors, &cfg, &mut build);
            black_box(celeste_core::fit_source_with(
                &mut sp, &problem, &cfg, &mut ws,
            ))
        })
    });
}

fn bench_cyclades(c: &mut Criterion) {
    let (scene, _) = scene();
    let sources: Vec<SourceParams> = scene
        .truth
        .entries
        .iter()
        .map(SourceParams::init_from_entry)
        .collect();
    let mut g = c.benchmark_group("cyclades");
    g.bench_function("conflict_graph", |b| {
        b.iter(|| black_box(conflict_graph(&sources, 6.0)))
    });
    let graph = conflict_graph(&sources, 6.0);
    g.bench_function("sample_batches", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| black_box(sample_batches(&mut rng, &graph, 8, sources.len() / 2)))
    });
    g.finish();
}

fn bench_survey(c: &mut Criterion) {
    let (scene, _) = scene();
    let img = &scene.single_run[2];
    let mut g = c.benchmark_group("survey");
    g.bench_function("render_expected_field", |b| {
        b.iter(|| black_box(render_expected(&scene.truth, img)))
    });
    g.bench_function("encode_image", |b| b.iter(|| black_box(encode_image(img))));
    let bytes = encode_image(img);
    g.bench_function("decode_image", |b| {
        b.iter(|| black_box(decode_image(&bytes).unwrap()))
    });
    g.finish();
}

fn bench_photo(c: &mut Criterion) {
    let (scene, _) = scene();
    let refs: Vec<&Image> = scene.single_run.iter().collect();
    c.bench_function("photo_pipeline_field", |b| {
        b.iter(|| black_box(run_photo(&refs, &PhotoConfig::default()).unwrap()))
    });
}

fn bench_cluster_sim(c: &mut Criterion) {
    let cal = celeste_cluster::default_calibration();
    c.bench_function("simulate_2048_nodes", |b| {
        b.iter(|| {
            let cfg = celeste_cluster::ClusterConfig {
                nodes: 2048,
                ..Default::default()
            };
            black_box(celeste_cluster::simulate_run(&cal, &cfg, 139_264, 3, false))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_elbo, bench_linalg, bench_newton_fit, bench_cyclades,
              bench_survey, bench_photo, bench_cluster_sim
}
criterion_main!(benches);
