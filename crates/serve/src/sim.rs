//! Single-pool serving: one static pool of warm replicas.
//!
//! A single pool is a fleet of one static pool with no autoscaler, so
//! [`serve`] maps its [`ServeConfig`] onto that fleet and runs the one
//! serving event loop (`fleet.rs`). There a one-entry router always
//! picks the pool, so per-pool shedding is global shedding. The
//! single-pool report is then built from the loop's raw records. In
//! streaming mode ([`crate::serve_streaming`]) the same loop also feeds
//! live edge events through the shared ingest state.

use dgnn_device::{accumulate_class_stats, CacheStats, ClassCacheStats, DurationNs};

use crate::fleet::{self, FleetConfig};
use crate::pool::WarmPool;
use crate::report::{ServeReport, ServedBatch, ServedRequest};
use crate::router::RouterPolicy;
use crate::streaming::StreamingState;
use crate::workload::{Request, WorkloadShape};
use crate::{ServeConfig, ServedModel};

/// Everything a serving run produced: the report plus the raw records
/// and the replica sessions for post-hoc auditing.
#[derive(Debug)]
pub struct ServeOutcome {
    /// Aggregated statistics.
    pub report: ServeReport,
    /// Per-request records of served requests, in arrival order.
    pub requests: Vec<ServedRequest>,
    /// Requests rejected by backpressure, in arrival order.
    pub shed: Vec<Request>,
    /// Per-batch service records, in dispatch order.
    pub batches: Vec<ServedBatch>,
    /// One session executor per replica slot, in slot order. Audit
    /// them with `dgnn_analysis::audit` when tracing was enabled.
    pub sessions: Vec<dgnn_device::Executor>,
}

/// Runs the serving simulation to completion.
///
/// # Panics
///
/// Panics on an invalid configuration (empty mix, zero pool/rate) or
/// when a model service fails.
pub fn serve(cfg: &ServeConfig, zoo: &[ServedModel]) -> ServeOutcome {
    serve_one_pool(cfg, zoo, None)
}

/// Runs `cfg` as one static pool, optionally threading live-ingestion
/// state, and reports it as a single-pool run.
pub(crate) fn serve_one_pool(
    cfg: &ServeConfig,
    zoo: &[ServedModel],
    streaming: Option<&mut StreamingState>,
) -> ServeOutcome {
    let fleet_cfg = FleetConfig {
        seed: cfg.seed,
        n_requests: cfg.n_requests,
        arrival_rate_rps: cfg.arrival_rate_rps,
        shape: WorkloadShape::Poisson,
        policy: RouterPolicy::JoinShortestQueue,
        batch_window: cfg.batch_window,
        max_batch: cfg.max_batch,
        initial_pools: 1,
        replicas_per_pool: cfg.pool_size,
        queue_bound: cfg.queue_bound,
        // No fleet report is built, so no SLO is ever scored.
        slo: DurationNs::ZERO,
        autoscaler: None,
        mode: cfg.mode,
        trace: cfg.trace,
        spec: cfg.spec.clone(),
    };
    let run = fleet::run(&fleet_cfg, zoo, streaming);

    let mut cache = CacheStats::default();
    let mut cache_by_class = ClassCacheStats::default();
    for pool in &run.pools {
        cache.accumulate(&pool.cache_stats());
        accumulate_class_stats(&mut cache_by_class, &pool.cache_class_stats());
    }
    let batches: Vec<ServedBatch> = run.batches.into_iter().map(|b| b.batch).collect();
    let report = ServeReport::build(
        cfg,
        &run.offered,
        &run.served,
        &run.shed,
        &batches,
        &run.provision,
        run.cold_services,
        cache,
        cache_by_class,
    );
    ServeOutcome {
        report,
        requests: run.served,
        shed: run.shed,
        batches,
        sessions: run
            .pools
            .into_iter()
            .flat_map(WarmPool::into_sessions)
            .collect(),
    }
}
