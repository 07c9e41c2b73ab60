//! `fleet_flash`: `serve_fleet` on `fleet_sweep`'s flash-crowd cell.
//!
//! Four models (jodie, tgn, dyrep, ldg_mlp) at `Scale::Small`, 192
//! requests at 1 rps with a ×20 flash crowd from 10 s to 40 s, routed
//! affinity-first across an autoscaled fleet. The serving path rebuilds
//! a replica for every batch, so model build dominates host time.

use dgnn_datasets::Scale;
use dgnn_device::{DurationNs, ExecMode, PlatformSpec};
use dgnn_serve::{
    serve_fleet, AutoscalerConfig, FleetConfig, FleetOutcome, RouterPolicy, ServedModel,
    WorkloadShape,
};

use crate::trace::span;
use crate::{check, segments, Layers, Measured, Plan};

const MODELS: [&str; 4] = ["jodie", "tgn", "dyrep", "ldg_mlp"];
const REQUESTS: usize = 192;
/// The cell's own traffic seed. As in `fleet_sweep`, the benchmark seed
/// picks the models' datasets and weights, not the arrival schedule.
const TRAFFIC_SEED: u64 = 1;
/// Requests the warm-up op serves.
const WARMUP_REQUESTS: usize = 4;
/// Host seconds of one pass on the reference host.
const PASS_S: f64 = 11.0;

/// The `affinity_first` / `flash_crowd` / `auto` record of
/// `BENCH_fleet.json`, which seed 1 must reproduce field for field.
const SEED1_RECORD: &str = "{\"bench\":\"fleet_sweep\",\"policy\":\"affinity_first\",\
\"shape\":\"flash_crowd\",\"scaling\":\"auto\",\"offered\":192,\"served\":192,\"shed\":0,\
\"shed_rate\":0.0000,\"slo_ms\":10000,\"slo_attainment\":1.0000,\"replica_seconds\":109.40,\
\"pools_spawned\":3,\"peak_pools\":3,\"final_pools\":3,\"scale_outs\":1,\"scale_ins\":0,\
\"cold_services\":6,\"warm_services\":145,\"mean_batch\":1.272,\"p50_ns\":273175220,\
\"p95_ns\":1791145198,\"p99_ns\":6136953388,\"mean_ns\":499239684,\"throughput_rps\":7.97,\
\"warmup_share\":0.6789,\"makespan_ms\":24088.8}";

fn config(n_requests: usize, trace: bool) -> FleetConfig {
    FleetConfig {
        seed: TRAFFIC_SEED,
        n_requests,
        arrival_rate_rps: 1.0,
        shape: WorkloadShape::FlashCrowd {
            at: DurationNs::from_secs_f64(10.0),
            duration: DurationNs::from_secs_f64(30.0),
            multiplier: 20.0,
        },
        policy: RouterPolicy::AffinityFirst,
        batch_window: DurationNs::from_millis(50),
        max_batch: 4,
        initial_pools: 2,
        replicas_per_pool: 2,
        queue_bound: 32,
        slo: DurationNs::from_secs_f64(10.0),
        autoscaler: Some(AutoscalerConfig {
            min_pools: 1,
            max_pools: 6,
            scale_out_queue: 4,
            scale_in_queue: 1,
            idle_window: DurationNs::from_secs_f64(4.0),
            cooldown: DurationNs::from_secs_f64(2.0),
        }),
        mode: ExecMode::Gpu,
        trace,
        spec: PlatformSpec::default(),
    }
}

/// The outcome in `fleet_sweep`'s `BENCH` record format.
fn record(out: &FleetOutcome) -> String {
    let r = &out.report;
    format!(
        "{{\"bench\":\"fleet_sweep\",\"policy\":\"{}\",\"shape\":\"{}\",\
         \"scaling\":\"auto\",\"offered\":{},\"served\":{},\"shed\":{},\
         \"shed_rate\":{:.4},\"slo_ms\":{:.0},\"slo_attainment\":{:.4},\
         \"replica_seconds\":{:.2},\"pools_spawned\":{},\"peak_pools\":{},\
         \"final_pools\":{},\"scale_outs\":{},\"scale_ins\":{},\
         \"cold_services\":{},\"warm_services\":{},\"mean_batch\":{:.3},\
         \"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{},\"mean_ns\":{},\
         \"throughput_rps\":{:.2},\"warmup_share\":{:.4},\"makespan_ms\":{:.1}}}",
        r.policy.label(),
        r.shape,
        r.offered,
        r.served,
        r.shed,
        r.shed_rate(),
        r.slo.as_secs_f64() * 1e3,
        r.slo_attainment(),
        r.replica_seconds,
        r.pools_spawned,
        r.peak_pools,
        r.final_pools,
        r.scale_outs,
        r.scale_ins,
        r.cold_services,
        r.warm_services,
        r.mean_batch_size,
        r.latency.p50.as_nanos(),
        r.latency.p95.as_nanos(),
        r.latency.p99.as_nanos(),
        r.latency.mean.as_nanos(),
        r.throughput_rps,
        r.warmup_share(),
        r.makespan.as_secs_f64() * 1e3,
    )
}

/// Checks one pass; returns the problems found.
fn verify(out: &FleetOutcome, seed: u64, first: Option<&str>) -> Vec<String> {
    let r = &out.report;
    let rec = record(out);
    let mut bad = Vec::new();
    if r.served + r.shed != r.offered || r.offered != REQUESTS {
        bad.push(format!(
            "served {} + shed {} != offered {}",
            r.served, r.shed, r.offered
        ));
    }
    if out.requests.len() != r.served {
        bad.push(format!(
            "{} request records for {} served",
            out.requests.len(),
            r.served
        ));
    }
    if let Some(b) = out
        .batches
        .iter()
        .find(|b| !b.batch.summary.checksum.is_finite())
    {
        bad.push(format!(
            "batch on pool {} has a non-finite checksum",
            b.pool
        ));
    }
    if seed == 1 {
        bad.extend(check::field_diff(
            "BENCH_fleet.json record",
            SEED1_RECORD,
            &rec,
        ));
    }
    if let Some(first) = first {
        bad.extend(check::field_diff("first pass (replay)", first, &rec));
    }
    bad
}

pub fn run(seed: u64, plan: &Plan, layers: &mut Layers) -> Measured {
    let scale = Scale::Small;
    let (zoo, setup_s) = crate::setup(
        plan,
        || crate::zoo::served(&MODELS, scale, seed),
        |zoo: &Vec<ServedModel>| {
            // Warm-up op: the first requests of the same traffic.
            std::hint::black_box(serve_fleet(&config(WARMUP_REQUESTS, false), zoo));
            crate::zoo::take_services();
        },
    );

    let mut m = Measured::new(setup_s);
    let mut first: Option<String> = None;
    m.peak_rss_mb = crate::passes(plan, PASS_S, || {
        let cfg = config(REQUESTS, plan.traced);
        let (out, segs) = segments::timed(|| span("serve.fleet", || serve_fleet(&cfg, &zoo)));
        let services = crate::zoo::take_services();

        let mut problems = verify(&out, seed, first.as_deref());
        let r = &out.report;
        if plan.traced {
            layers.set("serve.batches", r.batches as f64);
            layers.set("serve.cold_services", r.cold_services as f64);
            layers.set("serve.warm_services", r.warm_services as f64);
            layers.set("serve.scale_outs", r.scale_outs as f64);
            layers.set("serve.shed", r.shed as f64);
            let events: Vec<usize> = out.sessions.iter().map(|s| s.timeline().len()).collect();
            let infer = services.iter().map(|s| s.infer).sum();
            layers.sessions(&events, events.len(), infer, r.served as u64);
            problems.extend(crate::audit_all(&out.sessions, layers));
        }
        let op_parts: Vec<f64> = services
            .iter()
            .flat_map(|s| [s.build.as_secs_f64(), s.infer.as_secs_f64()])
            .collect();
        m.record_pass(&segs, &op_parts, r.served as u64, r.offered as u64, problems);
        first.get_or_insert_with(|| record(&out));
    });
    m
}
