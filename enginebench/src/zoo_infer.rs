//! `zoo_infer`: the paper's single-model profiling run.
//!
//! One pass builds each of the ten `MODEL_NAMES` variants fresh at
//! `Scale::Small` and `run`s it on a fresh GPU executor (one op each), with
//! `default_config` scaled to four times its units so inference
//! dominates. Serve is absent; tensor, nn, sampler reads and device
//! pricing do the work.

use std::collections::BTreeMap;
use std::time::Duration;

use dgnn_bench::harness::walltime;
use dgnn_bench::{default_config, MODEL_NAMES};
use dgnn_datasets::Scale;
use dgnn_device::{ExecMode, Executor, PlatformSpec};

use crate::check::Digest;
use crate::trace::span;
use crate::{check, segments, stats, zoo, Layers, Measured, Plan};

const UNITS: usize = 4;
/// Host seconds of one pass on the reference host.
const PASS_S: f64 = 1.1;

/// Digest of every variant's checksum bits and simulated inference
/// time at seed 1.
const SEED1_DIGEST: u64 = 0xdce5_dcce_32ed_dc31;

struct Pass {
    digest: u64,
    /// Host ms of each variant's `run`.
    run_ms: Vec<(&'static str, f64)>,
    /// Host seconds of each variant's op, in two parts: its build,
    /// then its executor and run.
    op_parts: Vec<f64>,
    events: Vec<usize>,
    problems: Vec<String>,
    /// The traced sessions, kept for the audit.
    sessions: Vec<Executor>,
}

/// A pass over the whole zoo; each variant's build and run is an op.
fn pass(seed: u64, traced: bool) -> Pass {
    let mut digest = Digest::new();
    let mut run_ms = Vec::with_capacity(MODEL_NAMES.len());
    let mut op_parts = Vec::with_capacity(2 * MODEL_NAMES.len());
    let mut events = Vec::with_capacity(MODEL_NAMES.len());
    let mut problems = Vec::new();
    let mut sessions = Vec::new();
    for &name in MODEL_NAMES {
        segments::mark();
        let op = walltime();
        let mut model = zoo::build(name, Scale::Small, seed);
        let built = op.elapsed();
        segments::mark();
        let mut ex = span("device.executor_new", || {
            let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
            if traced {
                ex.enable_tracing();
            }
            ex
        });
        let base = default_config(name);
        let cfg = base.clone().with_max_units(base.max_units * UNITS);
        let t = walltime();
        let out = span("models.infer", || model.run(&mut ex, &cfg));
        run_ms.push((name, t.elapsed().as_secs_f64() * 1e3));
        op_parts.push(built.as_secs_f64());
        op_parts.push((op.elapsed() - built).as_secs_f64());
        segments::mark();
        match out {
            Ok(s) => {
                if !s.checksum.is_finite() || s.iterations == 0 {
                    problems.push(format!(
                        "{name}: checksum {} over {} units",
                        s.checksum, s.iterations
                    ));
                }
                digest.word(u64::from(s.checksum.to_bits()));
                digest.word(s.inference_time.as_nanos());
            }
            Err(e) => problems.push(format!("{name}: {e}")),
        }
        events.push(ex.timeline().len());
        if traced {
            sessions.push(ex);
        }
    }
    Pass {
        digest: digest.value(),
        run_ms,
        op_parts,
        events,
        problems,
        sessions,
    }
}

pub fn run(seed: u64, plan: &Plan, layers: &mut Layers) -> Measured {
    // Each op generates and builds its own models, so set-up is only
    // the warm-up op.
    let ((), setup_s) = crate::setup(
        plan,
        || (),
        |()| {
            std::hint::black_box(pass(seed, false));
        },
    );

    let mut m = Measured::new(setup_s);
    let mut run_ms: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut first: Option<u64> = None;
    m.peak_rss_mb = crate::passes(plan, PASS_S, || {
        let (p, segs) = segments::timed(|| pass(seed, plan.traced));
        let mut problems = p.problems;
        problems.extend(crate::audit_all(&p.sessions, layers));
        problems.extend(check::golden(
            "zoo_infer outputs",
            seed,
            p.digest,
            SEED1_DIGEST,
        ));
        if *first.get_or_insert(p.digest) != p.digest {
            problems.push("zoo_infer outputs differ from the first pass".to_string());
        }
        let n = MODEL_NAMES.len() as u64;
        m.record_pass(&segs, &p.op_parts, n, n, problems);
        if plan.traced {
            let run: f64 = p.run_ms.iter().map(|&(_, ms)| ms).sum();
            layers.sessions(
                &p.events,
                p.events.len(),
                Duration::from_secs_f64(run / 1e3),
                n,
            );
        }
        for (name, ms) in p.run_ms {
            run_ms.entry(name).or_default().push(ms);
        }
    });
    for (name, ms) in run_ms {
        layers.set(&format!("models.run_ms.{name}"), stats::median(&ms));
    }
    m
}
