//! `stream_ingest`: queries racing live ingestion.
//!
//! `serve_streaming` ingests the Full-scale wikipedia stream at 2,000
//! events/s with a compaction threshold of 64, while 24 TGN requests
//! from a `Scale::Tiny` zoo are served by a pool of one. It exercises
//! the dyngraph write path (append and full-rebuild compaction) beside
//! sampling reads.
//!
//! serve's ingest functions are crate-private, so the traced run also
//! replays the same stream at the same threshold through the public
//! calls, to split ingest time into append, compaction, node-memory
//! update, sampling and host pricing.

use dgnn_datasets::{wikipedia, Scale};
use dgnn_device::{DurationNs, ExecMode, Executor, HostWork, PlatformSpec};
use dgnn_graph::{EventStream, IngestCost, NeighborSampler, SampleStrategy, StreamingAdjacency};
use dgnn_models::IngestMemory;
use dgnn_serve::{
    generate_ingest, serve_streaming, ServeConfig, ServedModel, StreamingConfig, StreamingOutcome,
};

use crate::check::Digest;
use crate::trace::span;
use crate::{check, segments, zoo, Layers, Measured, Plan};

const THRESHOLD: usize = 64;
const RATE_EPS: f64 = 2_000.0;
const REQUESTS: usize = 24;
/// Host seconds of one pass on the reference host.
const PASS_S: f64 = 3.2;
/// Seed of the query arrivals, ingest arrivals and node memory. As in
/// `streaming_ingest`, the benchmark seed picks the stream and the
/// model, not the traffic.
const TRAFFIC_SEED: u64 = 1;

/// Digest of the served latencies and staleness, staleness p99,
/// compactions, ingested count and node-memory checksum at seed 1.
const SEED1_DIGEST: u64 = 0xd255_e4be_8dae_bcdf;

fn serve_cfg(trace: bool) -> ServeConfig {
    ServeConfig {
        seed: TRAFFIC_SEED,
        n_requests: REQUESTS,
        arrival_rate_rps: 1.2,
        batch_window: DurationNs::from_millis(2),
        max_batch: 4,
        pool_size: 1,
        queue_bound: 1024,
        mode: ExecMode::Gpu,
        trace,
        spec: PlatformSpec::default(),
    }
}

fn stream_cfg(stream: EventStream) -> StreamingConfig {
    let mut scfg = StreamingConfig::new(stream);
    scfg.compaction_threshold = THRESHOLD;
    scfg.ingest_rate_eps = RATE_EPS;
    scfg
}

fn digest(out: &StreamingOutcome) -> u64 {
    let mut d = Digest::new();
    for r in &out.serve.requests {
        d.word(r.latency().as_nanos());
        d.word(r.staleness.as_nanos());
    }
    d.word(out.serve.report.staleness.p99.as_nanos());
    d.word(out.compactions as u64);
    d.word(out.ingested as u64);
    d.word(out.memory_checksum);
    d.value()
}

fn verify(out: &StreamingOutcome, seed: u64, n_events: usize, first: Option<u64>) -> Vec<String> {
    let r = &out.serve.report;
    let mut bad = Vec::new();
    if out.ingested != n_events {
        bad.push(format!("ingested {} of {n_events} events", out.ingested));
    }
    if out.compactions != out.ingested / THRESHOLD {
        bad.push(format!(
            "{} compactions for {} events",
            out.compactions, out.ingested
        ));
    }
    if r.served + r.shed != r.offered || r.offered != REQUESTS {
        bad.push(format!(
            "served {} + shed {} != offered {}",
            r.served, r.shed, r.offered
        ));
    }
    if out
        .serve
        .batches
        .iter()
        .any(|b| !b.summary.checksum.is_finite())
    {
        bad.push("a batch has a non-finite checksum".to_string());
    }
    let got = digest(out);
    bad.extend(check::golden(
        "stream_ingest outputs",
        seed,
        got,
        SEED1_DIGEST,
    ));
    if first.is_some_and(|f| f != got) {
        bad.push("stream_ingest outputs differ from the first pass".to_string());
    }
    bad
}

/// Replays `stream` through the public ingest and sampling calls, in
/// the order the serving loop makes them: each served batch samples,
/// at its start, over the events that had arrived by then. Returns the
/// problems found comparing the replay with the served run.
fn replay(stream: &EventStream, out: &StreamingOutcome) -> Vec<String> {
    let scfg = stream_cfg(stream.clone());
    let n_nodes = stream.n_nodes();
    let arrivals = generate_ingest(TRAFFIC_SEED, stream.len(), RATE_EPS);
    // The store never compacts by itself; the replay compacts exactly
    // where `append` would, so the two costs get separate spans.
    let mut store = StreamingAdjacency::new(n_nodes, usize::MAX);
    let mut memory = IngestMemory::new(scfg.memory_rule, n_nodes, scfg.memory_dim, TRAFFIC_SEED);
    let mut ex = Executor::new(PlatformSpec::default(), ExecMode::CpuOnly);
    let sampler = NeighborSampler::new(SampleStrategy::MostRecent, TRAFFIC_SEED);
    let fanout = vec![scfg.n_neighbors; scfg.hops];
    let mut batches = out.serve.batches.iter().peekable();
    let sample = |store: &StreamingAdjacency, visible: usize, members: &[usize]| {
        let view = store.view_prefix(visible);
        for &id in members {
            let root = (id.wrapping_mul(0x9e37) ^ 0x79b9) % n_nodes;
            span("dyngraph.sample_khop", || {
                std::hint::black_box(sampler.sample_khop(&view, &[(root, f64::INFINITY)], &fanout))
            });
        }
    };
    // Events go in chunks that end where the delta log fills or the
    // next batch starts sampling, one span per layer per chunk.
    let events = stream.events();
    let mut next = 0;
    while next < events.len() {
        while let Some(b) = batches.next_if(|b| b.started < arrivals[next]) {
            sample(&store, next, &b.requests);
        }
        let mut end = (next + THRESHOLD - store.delta_events()).min(events.len());
        if let Some(b) = batches.peek() {
            end = next + arrivals[next..end].partition_point(|&a| a <= b.started);
        }
        let chunk = &events[next..end];
        let appended: Vec<IngestCost> = span("dyngraph.append", || {
            chunk
                .iter()
                .map(|ev| store.append(*ev).expect("stream is valid").cost)
                .collect()
        });
        let applied: Vec<IngestCost> = span("models.memory_apply", || {
            chunk.iter().map(|ev| memory.apply(ev)).collect()
        });
        let compaction = (store.delta_events() >= THRESHOLD)
            .then(|| span("dyngraph.compact", || store.compact()));
        span("device.host", || {
            for (i, (a, m)) in appended.iter().zip(&applied).enumerate() {
                ex.advance_to(arrivals[next + i]);
                ex.scope("ingest", |ex| {
                    ex.host(HostWork {
                        label: "graph_append",
                        ops: a.ops + m.ops,
                        seq_bytes: a.seq_bytes + m.seq_bytes,
                        irregular_bytes: a.irregular_bytes + m.irregular_bytes,
                        parallelism: 1,
                    });
                    if let Some(c) = compaction.filter(|_| i + 1 == chunk.len()) {
                        ex.host(HostWork {
                            label: "graph_compact",
                            ops: c.ops,
                            seq_bytes: c.seq_bytes,
                            irregular_bytes: c.irregular_bytes,
                            parallelism: 1,
                        });
                    }
                });
            }
        });
        next = end;
    }
    for b in batches {
        sample(&store, stream.len(), &b.requests);
    }
    let mut bad = Vec::new();
    if store.compactions() != out.compactions {
        bad.push(format!(
            "replay compacted {} times, serving {}",
            store.compactions(),
            out.compactions
        ));
    }
    if memory.checksum() != out.memory_checksum {
        bad.push("replayed node memory differs from the served run".to_string());
    }
    bad
}

pub fn run(seed: u64, plan: &Plan, layers: &mut Layers) -> Measured {
    let ((stream, zoo), setup_s) = crate::setup(
        plan,
        || {
            let stream = span("datasets.generate", || wikipedia(Scale::Full, seed)).stream;
            (stream, zoo::served(&["tgn"], Scale::Tiny, seed))
        },
        |(_, zoo): &(EventStream, Vec<ServedModel>)| {
            // Warm-up op: the same run over the Tiny stream.
            let tiny = span("datasets.generate", || wikipedia(Scale::Tiny, seed)).stream;
            std::hint::black_box(serve_streaming(&serve_cfg(false), &stream_cfg(tiny), zoo));
            zoo::take_services();
        },
    );

    let mut m = Measured::new(setup_s);
    let mut first: Option<u64> = None;
    let mut first_traced = true;
    m.peak_rss_mb = crate::passes(plan, PASS_S, || {
        let cfg = serve_cfg(plan.traced);
        let scfg = stream_cfg(stream.clone());
        let (out, segs) = segments::timed(|| {
            span("serve.streaming", || serve_streaming(&cfg, &scfg, &zoo))
        });
        let services = zoo::take_services();

        let mut problems = verify(&out, seed, stream.len(), first);
        first.get_or_insert_with(|| digest(&out));
        let r = &out.serve.report;
        if plan.traced {
            layers.set("serve.batches", r.batches as f64);
            layers.set("serve.cold_services", r.cold_services as f64);
            layers.set("serve.warm_services", r.warm_services as f64);
            layers.set("serve.scale_outs", 0.0);
            layers.set("serve.shed", r.shed as f64);
            layers.set("dyngraph.compactions", out.compactions as f64);
            let mut events: Vec<usize> = out
                .serve
                .sessions
                .iter()
                .map(|s| s.timeline().len())
                .collect();
            let replicas = events.len();
            events.push(out.ingest_session.timeline().len());
            let infer = services.iter().map(|s| s.infer).sum();
            layers.sessions(&events, replicas, infer, out.ingested as u64);
            problems.extend(crate::audit_all(
                out.serve.sessions.iter().chain([&out.ingest_session]),
                layers,
            ));
            if first_traced {
                problems.extend(replay(&stream, &out));
                first_traced = false;
            }
        }
        let op_parts: Vec<f64> = services
            .iter()
            .flat_map(|s| [s.build.as_secs_f64(), s.infer.as_secs_f64()])
            .collect();
        m.record_pass(
            &segs,
            &op_parts,
            out.ingested as u64,
            stream.len() as u64,
            problems,
        );
    });
    m
}
