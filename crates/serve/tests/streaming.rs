//! Streaming serving properties: determinism, staleness semantics,
//! ingest/sampling contention, and RULE7-clean provenance.

use dgnn_datasets::{wikipedia, Scale};
use dgnn_device::{DurationNs, ExecMode, PlatformSpec};
use dgnn_graph::EventStream;
use dgnn_models::{InferenceConfig, MemoryRule, ReplicaHandle, Tgn, TgnConfig};
use dgnn_profile::LatencyStats;
use dgnn_serve::{
    generate_ingest, serve_streaming, ServeConfig, ServedModel, StreamingConfig, StreamingOutcome,
};

fn tgn_entry(weight: f64) -> ServedModel {
    let data = wikipedia(Scale::Tiny, 11);
    ServedModel {
        handle: ReplicaHandle::new("tgn", move || {
            Box::new(Tgn::new(data.clone(), TgnConfig::default(), 11))
        }),
        cfg: InferenceConfig::default()
            .with_batch_size(32)
            .with_neighbors(5)
            .with_max_units(1),
        weight,
    }
}

fn base_cfg() -> ServeConfig {
    ServeConfig {
        seed: 7,
        n_requests: 16,
        // Slow enough that arrivals outlast pool provisioning (~6.5 s
        // virtual): later queries dispatch near their arrival and
        // genuinely race the ingest stream.
        arrival_rate_rps: 1.2,
        batch_window: DurationNs::from_millis(2),
        max_batch: 4,
        pool_size: 2,
        queue_bound: 256,
        mode: ExecMode::Gpu,
        trace: false,
        spec: PlatformSpec::default(),
    }
}

fn stream_cfg(frozen: bool) -> StreamingConfig {
    let data = wikipedia(Scale::Tiny, 11);
    let mut scfg = StreamingConfig::new(data.stream);
    // Sparse ingest (~50 ms between events): the visibility watermark
    // lags behind arrivals, so staleness is observable.
    scfg.ingest_rate_eps = 20.0;
    scfg.compaction_threshold = 64;
    scfg.memory_rule = MemoryRule::TgnGru;
    scfg.frozen = frozen;
    scfg
}

fn run(frozen: bool, trace: bool) -> StreamingOutcome {
    let mut cfg = base_cfg();
    cfg.trace = trace;
    serve_streaming(&cfg, &stream_cfg(frozen), &[tgn_entry(1.0)])
}

#[test]
fn streaming_replay_is_bit_deterministic() {
    let a = run(false, false);
    let b = run(false, false);
    assert_eq!(a.serve.requests, b.serve.requests);
    assert_eq!(a.serve.report.makespan, b.serve.report.makespan);
    assert_eq!(a.memory_checksum, b.memory_checksum);
    assert_eq!(a.ingested, b.ingested);
    assert_eq!(a.compactions, b.compactions);
}

#[test]
fn live_ingestion_runs_and_compacts() {
    let out = run(false, false);
    assert!(out.ingested > 0, "ingest events must be processed");
    assert!(
        out.compactions > 0,
        "threshold 64 over the tiny stream must trigger compaction"
    );
    assert!(out.serve.report.served > 0);
}

#[test]
fn frozen_baseline_has_zero_staleness_and_live_does_not() {
    let frozen = run(true, false);
    assert!(
        frozen
            .serve
            .requests
            .iter()
            .all(|r| r.staleness == DurationNs::ZERO),
        "a pre-built graph misses nothing"
    );
    assert_eq!(frozen.ingested, stream_cfg(true).stream.len());

    let live = run(false, false);
    assert!(
        live.serve
            .requests
            .iter()
            .any(|r| r.staleness > DurationNs::ZERO),
        "queries racing a slow ingest stream must observe staleness"
    );
    assert!(live.serve.report.staleness.p99 > DurationNs::ZERO);
}

#[test]
fn streaming_sessions_audit_clean_including_rule7() {
    for frozen in [false, true] {
        let out = run(frozen, true);
        let report = dgnn_analysis::audit(&out.ingest_session);
        assert!(report.is_clean(), "frozen={frozen}: {report}");
        assert_eq!(report.stats.graph_appends, out.ingested);
        assert!(
            report.stats.graph_samples > 0,
            "every dispatched batch logs a sample"
        );
        for s in &out.serve.sessions {
            let r = dgnn_analysis::audit(s);
            assert!(r.is_clean(), "replica session: {r}");
        }
    }
}

#[test]
fn ingest_arrivals_are_strictly_increasing_and_deterministic() {
    let a = generate_ingest(3, 500, 10_000.0);
    let b = generate_ingest(3, 500, 10_000.0);
    assert_eq!(a, b);
    assert!(a.windows(2).all(|w| w[0] < w[1]));
    let c = generate_ingest(4, 500, 10_000.0);
    assert_ne!(a, c);
}

#[test]
fn zero_node_stream_serves_without_panicking() {
    // Regression: a query dispatched against an empty store used to hit
    // `% n_nodes` with n_nodes == 0 in the sampling walk and panic.
    // An empty stream has nothing to sample, so queries must simply pay
    // zero sampling cost and serve normally.
    let empty = EventStream::new(0, Vec::new()).expect("empty stream is valid");
    let mut scfg = StreamingConfig::new(empty);
    scfg.ingest_rate_eps = 20.0;
    let mut cfg = base_cfg();
    cfg.n_requests = 6;
    let out = serve_streaming(&cfg, &scfg, &[tgn_entry(1.0)]);
    assert_eq!(out.ingested, 0, "no events, nothing ingested");
    assert_eq!(out.serve.report.served, 6, "every request still served");
    // With nothing ever ingested the visibility watermark stays at t=0,
    // so each request's measured staleness is simply its age.
    assert!(out.serve.requests.iter().all(|r| r.staleness == r.arrival));
}

#[test]
fn streaming_config_validates_its_ingest_rate() {
    let mk = |rate: f64, frozen: bool| {
        let mut scfg = stream_cfg(frozen);
        scfg.ingest_rate_eps = rate;
        scfg
    };
    assert!(mk(20.0, false).validate().is_ok());
    let err = mk(0.0, false).validate().unwrap_err();
    assert_eq!(err.reason, "not positive");
    assert!(err.to_string().contains("ingest rate"));
    assert!(mk(f64::NAN, false).validate().is_err());
    // Frozen runs never generate arrivals: any rate is acceptable.
    assert!(mk(0.0, true).validate().is_ok());
}

#[test]
fn staleness_is_reported_alongside_latency() {
    let out = run(false, false);
    let text = out.serve.report.render("streaming");
    assert!(text.contains("staleness"), "{text}");
    assert!(out.serve.report.staleness.p99 >= out.serve.report.staleness.p50);
}

/// Exact outputs of the live run: ingest progress, compactions, the
/// node-memory state, the staleness the queries observed and when they
/// completed (sampling on the ingest clock included).
#[test]
fn live_streaming_outputs_are_pinned() {
    let out = run(false, false);
    assert_eq!(out.ingested, 1575);
    assert_eq!(out.compactions, 24);
    assert_eq!(out.memory_checksum, 0xd3f8_8b09_15f9_1849);
    let ns = DurationNs::from_nanos;
    assert_eq!(
        out.serve.report.staleness,
        LatencyStats {
            n: 16,
            min: ns(0),
            max: ns(126_115_698),
            mean: ns(20_677_794),
            p50: ns(0),
            p95: ns(126_115_698),
            p99: ns(126_115_698),
        }
    );
    let served: Vec<(u64, u64)> = out
        .serve
        .requests
        .iter()
        .map(|r| (r.staleness.as_nanos(), r.completed.as_nanos()))
        .collect();
    assert_eq!(
        served,
        [
            (0, 6_511_239_169),
            (0, 6_511_239_299),
            (0, 6_516_570_600),
            (0, 6_516_570_952),
            (0, 6_521_902_268),
            (0, 6_521_902_958),
            (0, 6_527_233_951),
            (0, 6_527_234_389),
            (0, 6_532_565_382),
            (0, 6_532_565_820),
            (0, 6_537_898_263),
            (20_994_587, 7_425_065_984),
            (42_478_915, 7_706_835_217),
            (120_329_208, 8_057_676_582),
            (20_926_309, 8_565_971_974),
            (126_115_698, 8_671_161_111),
        ]
    );
    assert_eq!(out.serve.report.makespan.as_nanos(), 8_671_161_111);
}
