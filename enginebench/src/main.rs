//! Engine benchmark: how much host time and memory the simulator itself
//! spends, end to end and per layer.
//!
//! Usage:
//! `enginebench --workload <fleet_flash|zoo_infer|stream_ingest> --seed <n>
//!  --seconds <s> --trace <0|1> [--commit <id>] [--out-dir <dir>]`
//!
//! Load is a closed loop from this one process: each pass starts when
//! the previous one returns. Passes are cut into segments at their
//! calls, and each segment's cost is the median of its times over the
//! passes (see [`segments`]). With `--trace 0` the last stdout line is
//! one JSON object with the end-to-end metrics; with `--trace 1` it
//! carries the per-layer split instead, taken from spans the benchmark
//! opens around public calls into each crate, and the spans are written
//! to `<out-dir>/spans-<workload>-seed<n>.jsonl`.

mod check;
mod fleet;
mod segments;
mod stats;
mod stream;
mod trace;
mod zoo;
mod zoo_infer;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

use dgnn_bench::harness::walltime;
use dgnn_datasets::Scale;
use dgnn_device::Executor;
use dgnn_graph::{NeighborSampler, SampleStrategy, TemporalAdjacency};
use dgnn_tensor::{Initializer, TensorRng};

use crate::segments::Slots;
use crate::trace::span;

/// How one run measures.
pub struct Plan {
    /// Host seconds of passes to run, at each workload's nominal pass
    /// time on a 2-core 2.1 GHz Xeon.
    pub seconds: f64,
    /// Fewest passes, so a segment's median outvotes a disturbed pass.
    pub min_passes: usize,
    /// Set-up repetitions; `setup_s` reports their median.
    pub reps: usize,
    /// Record spans, trace sessions and audit them.
    pub traced: bool,
}

/// End-to-end measurements of one run.
pub struct Measured {
    pub setup_s: f64,
    /// Ops one pass completes (the same in every pass).
    pub ops_per_pass: u64,
    /// Host seconds of each pass's timed call, as measured.
    pub pass_s: Vec<f64>,
    /// Host seconds of each segment of the timed call, per pass.
    pub segments: Slots,
    /// Host seconds of each part of each op, per pass, for the
    /// percentiles; every op has [`OP_PARTS`] parts.
    pub ops: Slots,
    /// `VmHWM` after set-up and the first timed pass.
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
}

impl Measured {
    pub fn new(setup_s: f64) -> Self {
        Measured {
            setup_s,
            ops_per_pass: 0,
            pass_s: Vec::new(),
            segments: Slots::default(),
            ops: Slots::default(),
            peak_rss_mb: 0.0,
            attempted: 0,
            failed: 0,
        }
    }

    /// Adds one pass: the segment times of its timed call, the host
    /// seconds of each part of each of its ops and the ops completed. A
    /// pass with any problem fails all its ops.
    pub fn record_pass(
        &mut self,
        segments: &[f64],
        op_parts: &[f64],
        ops: u64,
        attempted: u64,
        mut problems: Vec<String>,
    ) {
        self.pass_s.push(segments.iter().sum());
        problems.extend(self.segments.add("segments", segments));
        problems.extend(self.ops.add("op parts", op_parts));
        if self.pass_s.len() > 1 && ops != self.ops_per_pass {
            problems.push(format!(
                "pass completed {ops} ops, the first pass {}",
                self.ops_per_pass
            ));
        }
        self.ops_per_pass = ops;
        self.attempted += attempted;
        if !problems.is_empty() {
            self.failed += attempted;
            for p in problems {
                eprintln!("check failed: {p}");
            }
        }
    }

    /// Host seconds of a pass: the sum of its segments' costs.
    pub fn pass_cost(&self) -> f64 {
        self.segments.costs().iter().sum()
    }

    /// Host ms of each op: the sum of its parts' costs.
    pub fn op_ms(&self) -> Vec<f64> {
        self.ops
            .costs()
            .chunks(OP_PARTS)
            .map(|p| p.iter().sum::<f64>() * 1e3)
            .collect()
    }
}

/// Per-layer values filled in during a traced run.
#[derive(Default)]
pub struct Layers {
    vals: BTreeMap<String, f64>,
    /// Timeline events of sessions whose events come from model calls,
    /// and the host ns those calls took.
    model_events: u64,
    model_ns: u64,
}

impl Layers {
    pub fn set(&mut self, name: &str, v: f64) {
        self.vals.insert(name.to_string(), v);
    }

    pub fn add(&mut self, name: &str, v: f64) {
        *self.vals.entry(name.to_string()).or_default() += v;
    }

    fn max(&mut self, name: &str, v: f64) {
        let e = self.vals.entry(name.to_string()).or_default();
        *e = e.max(v);
    }

    /// Timeline sizes of one pass's sessions. `model_sessions` of them
    /// (the first ones) hold only model work, which took `model_time`
    /// of host time; `ops` is the pass's op count.
    pub fn sessions(
        &mut self,
        events: &[usize],
        model_sessions: usize,
        model_time: Duration,
        ops: u64,
    ) {
        let total: usize = events.iter().sum();
        self.set(
            "device.timeline_events_per_op",
            total as f64 / ops.max(1) as f64,
        );
        self.set(
            "device.timeline_events_per_session",
            total as f64 / events.len().max(1) as f64,
        );
        let max = events.iter().copied().max().unwrap_or(0);
        self.max("device.session_events_max", max as f64);
        self.model_events += events[..model_sessions].iter().sum::<usize>() as u64;
        self.model_ns += u64::try_from(model_time.as_nanos()).unwrap_or(u64::MAX);
    }
}

/// Sets up `plan.reps` times: each time builds what the timed loop
/// needs and runs one untimed warm-up op on it. Returns the last build
/// and `setup_s`, the median set-up time.
pub fn setup<T>(plan: &Plan, mut build: impl FnMut() -> T, mut warm: impl FnMut(&T)) -> (T, f64) {
    let mut times = Vec::with_capacity(plan.reps);
    let mut built = None;
    for _ in 0..plan.reps.max(1) {
        drop(built.take());
        let t = walltime();
        let b = build();
        warm(&b);
        times.push(t.elapsed().as_secs_f64());
        built = Some(b);
    }
    let built = built.expect("at least one set-up repetition");
    (built, stats::median(&times))
}

/// Runs passes back to back: as many as take `plan.seconds` at
/// `pass_s` host seconds each, and at least `plan.min_passes`. The
/// count depends on `--seconds` alone, not on how fast the host is
/// today, so every run takes its segment costs over the same number of
/// passes. Returns `VmHWM` after the first pass, so every run reads it
/// at the same point.
pub fn passes(plan: &Plan, pass_s: f64, mut pass: impl FnMut()) -> f64 {
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "a small non-negative pass count"
    )]
    let n = ((plan.seconds / pass_s).round() as usize).max(plan.min_passes);
    let mut peak_rss_mb = 0.0;
    for i in 0..n {
        trace::set_op(i as u64);
        pass();
        if i == 0 {
            peak_rss_mb = stats::peak_rss_mb();
        }
    }
    peak_rss_mb
}

/// Audits every session with the timeline sanitizer. Returns one
/// problem per session with a RULE1–8 hazard.
pub fn audit_all<'a>(
    sessions: impl IntoIterator<Item = &'a Executor>,
    layers: &mut Layers,
) -> Vec<String> {
    let mut problems = Vec::new();
    for (i, s) in sessions.into_iter().enumerate() {
        let report = span("analysis.audit", || dgnn_analysis::audit(s));
        layers.add("analysis.trace_records", report.stats.trace_records as f64);
        if !report.is_clean() {
            problems.push(format!(
                "session {i}: {} sanitizer hazard(s)\n{}",
                report.hazards.len(),
                report.render()
            ));
        }
    }
    problems
}

/// Parts of an op: a replica build, then the call that uses it.
pub const OP_PARTS: usize = 2;

/// The nearest-rank percentile `op_tail_ms` reports.
const TAIL: f64 = 90.0;

const WORKLOADS: [&str; 3] = ["fleet_flash", "zoo_infer", "stream_ingest"];

fn run_workload(name: &str, seed: u64, plan: &Plan, layers: &mut Layers) -> Measured {
    match name {
        "fleet_flash" => fleet::run(seed, plan, layers),
        "zoo_infer" => zoo_infer::run(seed, plan, layers),
        _ => stream::run(seed, plan, layers),
    }
}

/// Times the fan-out and matmul layers at zoo_infer's TGAT shapes: 32
/// representative roots, 2 hops of 20 neighbors on Small wikipedia, and
/// the `[640, 344] x [344, 172]` neighbor merge projection.
fn probes(seed: u64, layers: &mut Layers) {
    const REPS: usize = 25;
    let stream = match zoo::generate("tgat", Scale::Small, seed) {
        zoo::Data::Events(d) => d.stream,
        _ => unreachable!("tgat reads an event stream"),
    };
    let adj = span("dyngraph.build", || TemporalAdjacency::from_stream(&stream));
    let events = stream.events();
    let mid = events.len() / 2;
    let roots: Vec<(usize, f64)> = events[mid..mid + 32]
        .iter()
        .map(|e| (e.src, e.time))
        .collect();
    let sampler = NeighborSampler::new(SampleStrategy::Uniform, seed);
    let ks = [20, 20];
    for (metric, threads) in [
        (
            "dyngraph.sample_khop_batch_ms",
            dgnn_tensor::par::max_threads(),
        ),
        ("dyngraph.sample_khop_batch_1t_ms", 1),
    ] {
        let ms: Vec<f64> = (0..REPS)
            .map(|_| {
                let t = walltime();
                span("dyngraph.sample_khop_batch", || {
                    std::hint::black_box(
                        sampler.sample_khop_batch_threads(&adj, &roots, &ks, threads),
                    )
                });
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        layers.set(metric, stats::median(&ms));
    }
    let mut rng = TensorRng::seed(seed);
    let a = rng.init(&[640, 344], Initializer::XavierUniform);
    let b = rng.init(&[344, 172], Initializer::XavierUniform);
    let ms: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = walltime();
            span("tensor.matmul", || {
                std::hint::black_box(a.matmul(&b).expect("shapes agree"))
            });
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    layers.set("tensor.matmul_ms", stats::median(&ms));
}

/// Every per-layer metric with its unit, in the order printed.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.wall_s", "s"),
    ("trace.overhead_pct", "%"),
    ("bench.self_s", "s"),
    ("datasets.self_s", "s"),
    ("models.self_s", "s"),
    ("dyngraph.self_s", "s"),
    ("device.self_s", "s"),
    ("serve.self_s", "s"),
    ("analysis.self_s", "s"),
    ("tensor.self_s", "s"),
    ("datasets.generate_s", "s"),
    ("datasets.generate_calls", "count"),
    ("models.construct_s", "s"),
    ("models.construct_calls", "count"),
    ("models.infer_s", "s"),
    ("models.infer_calls", "count"),
    ("models.run_ms.jodie", "ms"),
    ("models.run_ms.tgn", "ms"),
    ("models.run_ms.evolvegcn_o", "ms"),
    ("models.run_ms.evolvegcn_h", "ms"),
    ("models.run_ms.tgat", "ms"),
    ("models.run_ms.astgnn", "ms"),
    ("models.run_ms.dyrep", "ms"),
    ("models.run_ms.ldg_mlp", "ms"),
    ("models.run_ms.ldg_bilinear", "ms"),
    ("models.run_ms.moldgnn", "ms"),
    ("dyngraph.append_s", "s"),
    ("dyngraph.compact_s", "s"),
    ("dyngraph.compactions", "count"),
    ("models.memory_apply_s", "s"),
    ("dyngraph.sample_khop_s", "s"),
    ("dyngraph.sample_khop_batch_ms", "ms"),
    ("dyngraph.sample_khop_batch_1t_ms", "ms"),
    ("tensor.matmul_ms", "ms"),
    ("device.timeline_events_per_op", "count"),
    ("device.timeline_events_per_session", "count"),
    ("device.host_ns_per_event", "ns"),
    ("device.session_events_max", "count"),
    ("serve.batches", "count"),
    ("serve.cold_services", "count"),
    ("serve.warm_services", "count"),
    ("serve.scale_outs", "count"),
    ("serve.shed", "count"),
    ("analysis.audit_s", "s"),
    ("analysis.trace_records", "count"),
];

/// Layers whose self time is reported; `bench` is the benchmark's own
/// overhead.
const LAYERS: [&str; 8] = [
    "bench", "datasets", "models", "dyngraph", "device", "serve", "analysis", "tensor",
];

/// Folds the recorded spans into the per-layer metrics.
fn span_metrics(spans: &[trace::Span], layers: &mut Layers) {
    let by_name = trace::by_name(spans);
    let total = |name: &str| by_name.get(name).copied().unwrap_or((0, 0));
    let secs = |ns: u64| ns as f64 / 1e9;
    for (metric, span_name) in [
        ("datasets.generate", "datasets.generate"),
        ("models.construct", "models.construct"),
        ("models.infer", "models.infer"),
    ] {
        let (calls, ns) = total(span_name);
        layers.set(&format!("{metric}_s"), secs(ns));
        layers.set(&format!("{metric}_calls"), calls as f64);
    }
    for (metric, span_name) in [
        ("dyngraph.append_s", "dyngraph.append"),
        ("dyngraph.compact_s", "dyngraph.compact"),
        ("models.memory_apply_s", "models.memory_apply"),
        ("dyngraph.sample_khop_s", "dyngraph.sample_khop"),
        ("analysis.audit_s", "analysis.audit"),
    ] {
        layers.set(metric, secs(total(span_name).1));
    }
    let own = trace::self_by_layer(spans);
    for layer in LAYERS {
        layers.set(
            &format!("{layer}.self_s"),
            secs(own.get(layer).copied().unwrap_or(0)),
        );
    }
    let wall = spans.first().map_or(0, trace::Span::dur_ns);
    layers.set("trace.wall_s", secs(wall));
    let (ns, events) = (layers.model_ns, layers.model_events);
    layers.set(
        "device.host_ns_per_event",
        if events == 0 {
            0.0
        } else {
            ns as f64 / events as f64
        },
    );
    let tiled: u64 = own.values().sum();
    if tiled != wall {
        eprintln!("warning: layer self times add to {tiled} ns of {wall} ns traced wall");
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    commit: String,
    out_dir: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == key)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let workload = get("--workload").unwrap_or("fleet_flash").to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; known: {WORKLOADS:?}"
        ));
    }
    let num = |key: &str, default: &str| -> Result<f64, String> {
        let v = get(key).unwrap_or(default);
        v.parse::<f64>()
            .ok()
            .filter(|x| x.is_finite() && *x >= 0.0)
            .ok_or(format!("bad {key} `{v}`"))
    };
    let seed = get("--seed")
        .unwrap_or("1")
        .parse::<u64>()
        .map_err(|e| format!("bad --seed: {e}"))?;
    let trace = match get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace `{other}` (0 or 1)")),
    };
    Ok(Args {
        workload,
        seed,
        seconds: num("--seconds", "10")?,
        trace,
        commit: get("--commit").unwrap_or("unknown").to_string(),
        out_dir: get("--out-dir").unwrap_or(".").to_string(),
    })
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("enginebench: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = dgnn_tensor::par::max_threads();
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "{{\"env\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"max_threads\":{threads},\"nproc\":{nproc},\"scale\":\"{}\",\"commit\":\"{}\"}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        match args.workload.as_str() {
            "stream_ingest" => "full stream, tiny zoo",
            _ => "small",
        },
        args.commit,
    );

    let mut layers = Layers::default();
    let plan = Plan {
        seconds: args.seconds,
        min_passes: 3,
        reps: 3,
        traced: false,
    };
    let (m, metrics) = if args.trace {
        // Untraced reference passes, for the tracing overhead.
        let reference = Plan {
            seconds: args.seconds / 4.0,
            min_passes: 1,
            reps: 1,
            traced: false,
        };
        let r = run_workload(
            &args.workload,
            args.seed,
            &reference,
            &mut Layers::default(),
        );
        let traced = Plan {
            seconds: args.seconds,
            min_passes: 1,
            reps: 1,
            traced: true,
        };
        trace::start();
        let m = span("bench.run", || {
            let m = run_workload(&args.workload, args.seed, &traced, &mut layers);
            probes(args.seed, &mut layers);
            m
        });
        let spans = trace::finish();
        span_metrics(&spans, &mut layers);
        layers.set(
            "trace.overhead_pct",
            100.0 * (m.pass_cost() - r.pass_cost()) / r.pass_cost(),
        );
        let path = format!(
            "{}/spans-{}-seed{}.jsonl",
            args.out_dir, args.workload, args.seed
        );
        if let Err(e) = std::fs::write(&path, trace::to_jsonl(&spans)) {
            eprintln!("enginebench: cannot write {path}: {e}");
            return ExitCode::from(1);
        }
        eprintln!("wrote {} spans to {path}", spans.len());
        let metrics: Vec<String> = PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                metric_json(name, layers.vals.get(name).copied().unwrap_or(0.0), unit)
            })
            .collect();
        (m, metrics)
    } else {
        let m = run_workload(&args.workload, args.seed, &plan, &mut layers);
        let op_ms = m.op_ms();
        println!(
            "{{\"passes\":{},\"pass_s\":{:?},\"pass_cost_s\":{},\"segments\":{},\
             \"ops_per_pass\":{},\"op_samples\":{},\"op_tail_percentile\":{TAIL}}}",
            m.pass_s.len(),
            m.pass_s,
            m.pass_cost(),
            m.segments.len(),
            m.ops_per_pass,
            op_ms.len(),
        );
        let metrics = vec![
            metric_json("ops_per_s", m.ops_per_pass as f64 / m.pass_cost(), "1/s"),
            metric_json("op_p50_ms", stats::median(&op_ms), "ms"),
            metric_json("op_tail_ms", stats::percentile(&op_ms, TAIL), "ms"),
            metric_json("setup_s", m.setup_s, "s"),
            metric_json("peak_rss_mb", m.peak_rss_mb, "MiB"),
        ];
        (m, metrics)
    };
    let failed = m.failed.min(m.attempted);
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        m.attempted,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}
