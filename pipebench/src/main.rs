//! `celeste-pipebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload (see the library docs) from the root of a
//! checkout and prints, as the last line of standard output, one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. A line
//! before it records the environment (seed, nproc, threads, kernel
//! dispatch, commit). Scratch files go under `.bench_run/`; a traced
//! run leaves its spans there as `spans-<workload>-<seed>.jsonl`.
//! Exits nonzero when any output is wrong or any operation failed.

use celeste_pipebench::report::{Env, RunResult};
use celeste_pipebench::steal::StealTrace;
use celeste_pipebench::trace::{layer_self_s, Tracer};
use celeste_pipebench::{campaign, serve, Ctx, END_TO_END, LAYERS, PER_LAYER, WORKLOADS};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Fill unexercised per-layer metrics with 0, add span self times, and
/// check the metric names are exactly the declared set of the mode.
fn finish_metrics(ctx: &Ctx, result: &mut RunResult) -> Result<(), String> {
    let declared: Vec<(&str, &str)> = if ctx.tracer.enabled() {
        let self_s = layer_self_s(&ctx.tracer.spans());
        for layer in LAYERS {
            let v = self_s.get(layer).copied().unwrap_or(0.0);
            result.metrics.set(format!("self_s.{layer}"), v, "s");
        }
        for (name, unit) in PER_LAYER {
            if result.metrics.get(name).is_none() {
                result.metrics.set(*name, 0.0, unit);
            }
        }
        PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    let want: BTreeSet<&str> = declared.iter().map(|d| d.0).collect();
    let have: BTreeSet<&str> = result.metrics.names().collect();
    if want != have {
        return Err(format!(
            "metric set mismatch: missing {:?}, undeclared {:?}",
            want.difference(&have).collect::<Vec<_>>(),
            have.difference(&want).collect::<Vec<_>>()
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pipebench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".bench_run");
    let dir = root.join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("pipebench: cannot create {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    let mut env = Env::probe(&args.workload, args.seed);
    let ctx = Ctx {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        threads: env.nproc,
        tracer: Tracer::new(args.trace),
        dir: dir.clone(),
    };
    env.threads = ctx.threads;
    println!("{}", env.to_json());

    let (outcome, steal) = StealTrace::record(ctx.threads, || match ctx.workload.as_str() {
        "campaign" => campaign::run(&ctx),
        _ => serve::run(&ctx),
    });
    let outcome = outcome.and_then(|mut result| {
        let steal = steal.total_share();
        eprintln!(
            "pipebench: host stole {:.1}% of the CPU during the run",
            100.0 * steal
        );
        if ctx.tracer.enabled() {
            result.metrics.set("host.steal_share", steal, "ratio");
        }
        finish_metrics(&ctx, &mut result).map(|()| result)
    });
    std::fs::remove_dir_all(&dir).ok();
    let result = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pipebench: {}: {e}", ctx.workload);
            return ExitCode::FAILURE;
        }
    };
    if ctx.tracer.enabled() {
        let path = root.join(format!("spans-{}-{}.jsonl", ctx.workload, ctx.seed));
        if let Err(e) = ctx.tracer.write_jsonl(&path, &env.to_json()) {
            eprintln!("pipebench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", result.to_json());
    if result.correct && result.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "pipebench: {}: {} of {} operations failed or answered wrongly",
            ctx.workload, result.failed, result.attempted
        );
        ExitCode::FAILURE
    }
}
