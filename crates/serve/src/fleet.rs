//! The serving event loop: N warm pools behind a router, with a
//! warm-up-priced autoscaler and optional live graph ingestion.
//!
//! Every serving entry point runs this one loop. [`crate::serve`] is a
//! fleet of one static pool with no autoscaler; [`crate::serve_streaming`]
//! is that pool with ingest events racing the queries.
//!
//! ```text
//! workload ──▶ router ──▶ pool 0 ─▶ replica sessions
//!   (shaped)    (policy)  pool 1 ─▶ replica sessions
//!                  ▲      pool …
//!                  │        ▲
//!              autoscaler ──┘ (spawn = provisioning warm-up,
//!                              drain = replica-seconds stop accruing)
//! ```
//!
//! * Every arrival is placed by the [`Router`] using only queue depths
//!   and model residency ([`PoolLoad`]); backpressure sheds at the
//!   *destination* pool's queue bound.
//! * Within a pool, each model has an admission queue that closes into
//!   a ready FIFO by [`WindowBatcher`]'s window-or-capacity rule; a
//!   freed replica takes the earliest ready batch it can serve with
//!   model affinity ([`WarmPool::pick`]).
//! * The [`Autoscaler`] reads fleet-wide queue depth at each arrival —
//!   the deterministic latency signal, by Little's law — and can spawn
//!   a pool (whose replicas pay the full context + model-init
//!   provisioning warm-up before their first service, so scale-out is
//!   priced exactly like the paper's cold process start) or drain one
//!   (it finishes its queue, then stops accruing replica-seconds).
//! * In streaming runs, ingest events append to the shared delta-log
//!   store on the ingest clock, and each dispatched batch first pays
//!   its host-side sampling on that clock before its replica service
//!   starts — the freshness-vs-latency contention the streaming
//!   benchmarks measure.
//!
//! Event ordering is total: keys are `(time, priority, seq)` in one
//! `BTreeMap`, with replica releases before arrivals before ingests
//! before batch closes at equal instants (`ReplicaFree < Arrival <
//! Ingest < BatchClose`), so a freed slot is reusable by a same-instant
//! arrival, a same-instant ingest is visible to the batch that closes
//! then, and a zero-window batch closes after its own arrival. No hash
//! map participates in any decision, so a run replays bit for bit from
//! its seed.

use std::collections::{BTreeMap, VecDeque};

use dgnn_device::{DurationNs, ExecMode, Executor, PlatformSpec};
use dgnn_graph::WindowBatcher;
use dgnn_profile::ServicePhases;

use crate::autoscaler::{Autoscaler, AutoscalerConfig, ScaleEvent, ScaleKind};
use crate::pool::WarmPool;
use crate::report::{FleetReport, ServedBatch, ServedRequest};
use crate::router::{PoolLoad, Router, RouterPolicy};
use crate::streaming::StreamingState;
use crate::workload::{generate_shaped, RateError, Request, WorkloadShape};
use crate::{ServedModel, UNBOUNDED};

/// Full configuration of one fleet serving run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Seed for arrivals, mix assignment and router probes.
    pub seed: u64,
    /// Number of requests to generate.
    pub n_requests: usize,
    /// Long-run average arrivals per simulated second.
    pub arrival_rate_rps: f64,
    /// Traffic shape layered on the base Poisson process.
    pub shape: WorkloadShape,
    /// Placement policy.
    pub policy: RouterPolicy,
    /// Micro-batch window (per pool, per model).
    pub batch_window: DurationNs,
    /// Maximum requests per batch (capacity close).
    pub max_batch: usize,
    /// Pools provisioned before the first arrival.
    pub initial_pools: usize,
    /// Warm replica slots per pool.
    pub replicas_per_pool: usize,
    /// Admitted-but-unstarted requests a single pool holds before
    /// arrivals routed to it are shed ([`UNBOUNDED`] disables shedding).
    pub queue_bound: usize,
    /// End-to-end latency target a served request must meet to count
    /// as SLO-attained; shed requests always count as misses.
    pub slo: DurationNs,
    /// Autoscaler thresholds; `None` freezes the fleet at
    /// `initial_pools` (the static baseline).
    pub autoscaler: Option<AutoscalerConfig>,
    /// Execution mode for every replica session.
    pub mode: ExecMode,
    /// Record timelines + provenance traces for sanitizer audits.
    pub trace: bool,
    /// Simulated platform replicas run on.
    pub spec: PlatformSpec,
}

impl Default for FleetConfig {
    /// A small, always-valid smoke configuration: two static pools
    /// under join-shortest-queue.
    fn default() -> Self {
        FleetConfig {
            seed: 42,
            n_requests: 64,
            arrival_rate_rps: 100.0,
            shape: WorkloadShape::Poisson,
            policy: RouterPolicy::JoinShortestQueue,
            batch_window: DurationNs::from_millis(5),
            max_batch: 4,
            initial_pools: 2,
            replicas_per_pool: 2,
            queue_bound: UNBOUNDED,
            slo: DurationNs::from_millis(250),
            autoscaler: None,
            mode: ExecMode::Gpu,
            trace: false,
            spec: PlatformSpec::default(),
        }
    }
}

impl FleetConfig {
    /// Validates the arrival rate and the shape parameters (see
    /// [`WorkloadShape::validate`]).
    ///
    /// # Errors
    ///
    /// Returns a [`RateError`] naming the offending parameter.
    pub fn validate(&self) -> Result<(), RateError> {
        self.shape.validate(self.arrival_rate_rps)
    }
}

/// One dispatched batch, tagged with the pool that served it.
#[derive(Debug, Clone)]
pub struct FleetBatch {
    /// Fleet-wide id of the pool that served the batch.
    pub pool: usize,
    /// The underlying batch record.
    pub batch: ServedBatch,
}

/// Everything a fleet run produced: the report plus raw records, the
/// scale-decision audit trail, and every replica session for post-hoc
/// sanitizer audits.
#[derive(Debug)]
pub struct FleetOutcome {
    /// Aggregated statistics.
    pub report: FleetReport,
    /// Per-request records of served requests, in arrival order.
    pub requests: Vec<ServedRequest>,
    /// Requests rejected by backpressure, in arrival order.
    pub shed: Vec<Request>,
    /// Per-batch service records, in dispatch order.
    pub batches: Vec<FleetBatch>,
    /// Scale decisions, in virtual-time order.
    pub scale_events: Vec<ScaleEvent>,
    /// Every replica session, pools in spawn order, slots in slot
    /// order within a pool.
    pub sessions: Vec<Executor>,
}

/// Event kinds, in tie-break priority order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// A replica finished its service (or its provisioning).
    ReplicaFree { pool: usize, slot: usize },
    /// A request arrives at the router.
    Arrival(usize),
    /// A live graph event arrives for ingestion (streaming runs only).
    Ingest(usize),
    /// A batch window expires for one pool's model queue; the token
    /// guards against firing on a queue that already closed by capacity.
    BatchClose {
        pool: usize,
        model: usize,
        token: u64,
    },
}

impl Ev {
    fn priority(&self) -> u8 {
        match self {
            Ev::ReplicaFree { .. } => 0,
            Ev::Arrival(_) => 1,
            Ev::Ingest(_) => 2,
            Ev::BatchClose { .. } => 3,
        }
    }
}

/// The event queue: `(time, priority, seq)` keys give a deterministic
/// total order.
#[derive(Default)]
struct Queue {
    events: BTreeMap<(u64, u8, u64), Ev>,
    seq: u64,
}

impl Queue {
    /// Schedules `ev` at `t` under the next sequence number.
    fn push(&mut self, t: DurationNs, ev: Ev) {
        self.seq += 1;
        self.events
            .insert((t.as_nanos(), ev.priority(), self.seq), ev);
    }

    fn pop(&mut self) -> Option<(DurationNs, Ev)> {
        self.events
            .pop_first()
            .map(|((t, _, _), ev)| (DurationNs::from_nanos(t), ev))
    }
}

/// A closed batch waiting for a replica, within one pool.
#[derive(Debug)]
struct PendingBatch {
    model: usize,
    members: Vec<usize>,
    ready: DurationNs,
}

/// One pool plus its admission state and lifetime accounting.
struct PoolState {
    id: usize,
    pool: WarmPool,
    queues: Vec<VecDeque<usize>>,
    open_token: Vec<Option<u64>>,
    ready: VecDeque<PendingBatch>,
    /// Admitted but not yet dispatched (model queues + ready members).
    queued: usize,
    /// Replicas currently busy (provisioning or serving).
    busy: usize,
    /// Warm-up the pool paid at provisioning, taken at spawn while its
    /// timelines hold nothing else.
    provision: ServicePhases,
    spawned_at: DurationNs,
    retired_at: Option<DurationNs>,
    draining: bool,
}

impl PoolState {
    fn routable(&self) -> bool {
        !self.draining && self.retired_at.is_none()
    }

    fn holds(&self, model: usize) -> bool {
        (0..self.pool.len()).any(|i| self.pool.replica(i).resident() == Some(model))
    }

    /// A draining pool retires the instant it runs dry; from then on
    /// it accrues no replica-seconds.
    fn maybe_retire(&mut self, now: DurationNs) {
        if self.draining && self.retired_at.is_none() && self.queued == 0 && self.busy == 0 {
            debug_assert!(self.ready.is_empty());
            self.retired_at = Some(now);
        }
    }

    /// Drains up to one batch from a model queue into the ready FIFO.
    fn close_batch(&mut self, model: usize, now: DurationNs, batcher: &WindowBatcher) {
        self.open_token[model] = None;
        let q = &mut self.queues[model];
        debug_assert!(!q.is_empty(), "closing an empty batch");
        let take = q.len().min(batcher.max_batch);
        let members: Vec<usize> = q.drain(..take).collect();
        self.ready.push_back(PendingBatch {
            model,
            members,
            ready: now,
        });
    }
}

/// The raw records of one run of the event loop, from which
/// [`serve_fleet`] and the single-pool wrappers build their reports.
pub(crate) struct Run {
    /// Every generated request (offered load), in arrival order.
    pub(crate) offered: Vec<Request>,
    /// Served requests, in arrival order.
    pub(crate) served: Vec<ServedRequest>,
    /// Requests rejected by backpressure, in arrival order.
    pub(crate) shed: Vec<Request>,
    /// Batch records, in dispatch order.
    pub(crate) batches: Vec<FleetBatch>,
    /// Scale decisions, in virtual-time order.
    pub(crate) scale_events: Vec<ScaleEvent>,
    /// Provisioning warm-up summed over every pool.
    pub(crate) provision: ServicePhases,
    /// Services that paid a model swap, fleet-wide.
    pub(crate) cold_services: usize,
    /// Each pool's `(spawned_at, retired_at)` lifetime, in spawn order.
    pub(crate) pool_spans: Vec<(DurationNs, Option<DurationNs>)>,
    /// Most pools routable at once.
    pub(crate) peak_pools: usize,
    /// Pools still routable when the run ended.
    pub(crate) final_pools: usize,
    /// Last service or provisioning completion.
    pub(crate) makespan: DurationNs,
    /// Every pool, in spawn order.
    pub(crate) pools: Vec<WarmPool>,
}

/// Event-loop state outside the pools: the queue, the records, and the
/// optional live-ingest source.
struct Sim<'a> {
    cfg: &'a FleetConfig,
    zoo: &'a [ServedModel],
    batcher: WindowBatcher,
    requests: Vec<Request>,
    queue: Queue,
    served: Vec<ServedRequest>,
    batches: Vec<FleetBatch>,
    streaming: Option<&'a mut StreamingState>,
}

impl Sim<'_> {
    /// Spawns a pool at `at`. Each replica pays context + model init
    /// before its first service, so a scale-out is priced exactly like
    /// the t = 0 pools.
    fn spawn(&mut self, pools: &mut Vec<PoolState>, at: DurationNs) {
        let cfg = self.cfg;
        let id = pools.len();
        let mut pool = WarmPool::new(cfg.replicas_per_pool, cfg.spec.clone(), cfg.mode, cfg.trace);
        for (slot, done) in pool.provision(self.zoo).into_iter().enumerate() {
            self.queue
                .push(at + done, Ev::ReplicaFree { pool: id, slot });
        }
        let provision = pool.provision_phases();
        pools.push(PoolState {
            id,
            pool,
            queues: vec![VecDeque::new(); self.zoo.len()],
            open_token: vec![None; self.zoo.len()],
            ready: VecDeque::new(),
            queued: 0,
            busy: cfg.replicas_per_pool,
            provision,
            spawned_at: at,
            retired_at: None,
            draining: false,
        });
    }

    /// Starts ready batches on the pool's free replicas: FIFO with an
    /// affinity skip. Affinity can block the head (its model's slot is
    /// busy) without blocking later batches whose slots are free;
    /// within one model, ready order is FIFO so requests never overtake
    /// each other.
    fn try_dispatch(&mut self, now: DurationNs, p: &mut PoolState) {
        while let Some((pos, slot)) = p
            .ready
            .iter()
            .enumerate()
            .find_map(|(i, b)| p.pool.pick(b.model).map(|(slot, _cold)| (i, slot)))
        {
            let batch = p.ready.remove(pos).expect("index from enumerate");
            let batch_id = self.batches.len();
            // Streaming: the batch first pays host-side sampling on the
            // shared ingest clock (contending with live appends),
            // reading a snapshot capped at the events visible right now.
            let (sampling, staleness) = match self.streaming.as_deref_mut() {
                Some(state) => state.sample_batch(now, &batch.members, &self.requests),
                None => (DurationNs::ZERO, Vec::new()),
            };
            let dispatch_seq = batch_id as u64 + 1;
            let record = p.pool.service(
                slot,
                batch.model,
                self.zoo,
                batch.members.len(),
                dispatch_seq,
            );
            let completed = now + sampling + record.duration;
            p.queued -= batch.members.len();
            p.busy += 1;

            for (i, &id) in batch.members.iter().enumerate() {
                self.served.push(ServedRequest {
                    id,
                    model: batch.model,
                    arrival: self.requests[id].arrival,
                    batch: batch_id,
                    assembled: batch.ready,
                    started: now,
                    completed,
                    cold: record.cold,
                    staleness: staleness.get(i).copied().unwrap_or(DurationNs::ZERO),
                });
            }
            self.batches.push(FleetBatch {
                pool: p.id,
                batch: ServedBatch {
                    model: batch.model,
                    requests: batch.members,
                    ready: batch.ready,
                    started: now,
                    completed,
                    cold: record.cold,
                    replica: record.replica,
                    phases: record.phases,
                    summary: record.summary,
                },
            });
            self.queue
                .push(completed, Ev::ReplicaFree { pool: p.id, slot });
        }
    }
}

/// Runs the fleet simulation to completion.
///
/// # Panics
///
/// Panics on an invalid configuration (empty mix, zero pools or
/// replicas, a rate or shape [`FleetConfig::validate`] rejects) or when
/// a model service fails.
///
/// ```
/// use dgnn_datasets::{wikipedia, Scale};
/// use dgnn_models::{InferenceConfig, Jodie, JodieConfig, ReplicaHandle};
/// use dgnn_serve::{serve_fleet, FleetConfig, ServedModel};
///
/// let data = wikipedia(Scale::Tiny, 11);
/// let zoo = vec![ServedModel {
///     handle: ReplicaHandle::new("jodie", move || {
///         Box::new(Jodie::new(data.clone(), JodieConfig::default(), 11))
///     }),
///     cfg: InferenceConfig::default().with_max_units(1),
///     weight: 1.0,
/// }];
/// let cfg = FleetConfig { n_requests: 6, initial_pools: 2, replicas_per_pool: 1, ..FleetConfig::default() };
/// let outcome = serve_fleet(&cfg, &zoo);
/// assert_eq!(outcome.report.served, 6);
/// assert!(outcome.report.replica_seconds > 0.0);
/// ```
pub fn serve_fleet(cfg: &FleetConfig, zoo: &[ServedModel]) -> FleetOutcome {
    let run = run(cfg, zoo, None);
    let report = FleetReport::build(
        cfg,
        &run.offered,
        &run.served,
        &run.shed,
        &run.batches,
        &run.scale_events,
        &run.provision,
        run.cold_services,
        &run.pool_spans,
        run.peak_pools,
        run.final_pools,
        run.makespan,
    );
    FleetOutcome {
        report,
        requests: run.served,
        shed: run.shed,
        batches: run.batches,
        scale_events: run.scale_events,
        sessions: run
            .pools
            .into_iter()
            .flat_map(WarmPool::into_sessions)
            .collect(),
    }
}

/// The serving event loop: runs `cfg` to completion, with live graph
/// ingestion racing the queries when `streaming` is given.
///
/// # Panics
///
/// As [`serve_fleet`].
pub(crate) fn run(
    cfg: &FleetConfig,
    zoo: &[ServedModel],
    streaming: Option<&mut StreamingState>,
) -> Run {
    assert!(!zoo.is_empty(), "model mix must not be empty");
    assert!(cfg.initial_pools >= 1, "fleet needs at least one pool");
    assert!(
        cfg.replicas_per_pool >= 1,
        "pools need at least one replica"
    );
    let weights: Vec<f64> = zoo.iter().map(|m| m.weight).collect();
    let mut sim = Sim {
        cfg,
        zoo,
        batcher: WindowBatcher::new(cfg.batch_window.as_nanos(), cfg.max_batch),
        requests: generate_shaped(
            cfg.seed,
            cfg.n_requests,
            cfg.arrival_rate_rps,
            &weights,
            &cfg.shape,
        ),
        queue: Queue::default(),
        served: Vec::new(),
        batches: Vec::new(),
        streaming,
    };
    let mut router = Router::new(cfg.policy, cfg.seed);
    let mut autoscaler = cfg.autoscaler.map(Autoscaler::new);

    let mut pools: Vec<PoolState> = Vec::new();
    for _ in 0..cfg.initial_pools {
        sim.spawn(&mut pools, DurationNs::ZERO);
    }
    for r in &sim.requests {
        sim.queue.push(r.arrival, Ev::Arrival(r.id));
    }
    if let Some(state) = sim.streaming.as_deref() {
        for (i, &at) in state.ingest_arrivals().iter().enumerate() {
            sim.queue.push(at, Ev::Ingest(i));
        }
    }

    let mut shed: Vec<Request> = Vec::new();
    let mut peak_pools = cfg.initial_pools;
    let mut makespan = DurationNs::ZERO;

    while let Some((now, ev)) = sim.queue.pop() {
        match ev {
            Ev::Arrival(id) => {
                let req = sim.requests[id];
                // The autoscaler reads the fleet before placement, so a
                // spawned pool is routable for this very arrival.
                if let Some(scaler) = autoscaler.as_mut() {
                    let queued_total: usize = pools
                        .iter()
                        .filter(|p| p.routable())
                        .map(|p| p.queued)
                        .sum();
                    let active = pools.iter().filter(|p| p.routable()).count();
                    match scaler.decide(now, queued_total, active) {
                        Some(ScaleKind::Out) => {
                            sim.spawn(&mut pools, now);
                            peak_pools = peak_pools.max(active + 1);
                        }
                        Some(ScaleKind::In) => {
                            // Drain the least-loaded routable pool,
                            // newest on ties.
                            if let Some(pid) = pools
                                .iter()
                                .filter(|p| p.routable())
                                .min_by_key(|p| (p.queued, std::cmp::Reverse(p.id)))
                                .map(|p| p.id)
                            {
                                pools[pid].draining = true;
                                pools[pid].maybe_retire(now);
                            }
                        }
                        None => {}
                    }
                }

                let loads: Vec<PoolLoad> = pools
                    .iter()
                    .filter(|p| p.routable())
                    .map(|p| PoolLoad {
                        pool: p.id,
                        queued: p.queued,
                        resident: p.holds(req.model),
                    })
                    .collect();
                let dest = router.place(&loads);
                let p = &mut pools[dest];
                if p.queued >= cfg.queue_bound {
                    shed.push(req);
                    continue;
                }
                p.queued += 1;
                p.queues[req.model].push_back(id);
                if sim.batcher.is_full(p.queues[req.model].len()) {
                    // Capacity close: dispatchable immediately.
                    p.close_batch(req.model, now, &sim.batcher);
                    sim.try_dispatch(now, p);
                } else if p.queues[req.model].len() == 1 {
                    // New anchor: schedule the window close. The push
                    // takes the next sequence number, which doubles as
                    // the window token.
                    let token = sim.queue.seq + 1;
                    p.open_token[req.model] = Some(token);
                    let deadline = DurationNs::from_nanos(sim.batcher.deadline(now.as_nanos()));
                    sim.queue.push(
                        deadline,
                        Ev::BatchClose {
                            pool: dest,
                            model: req.model,
                            token,
                        },
                    );
                }
            }
            Ev::BatchClose { pool, model, token } => {
                let p = &mut pools[pool];
                if p.open_token[model] != Some(token) {
                    continue; // stale: already closed by capacity
                }
                p.close_batch(model, now, &sim.batcher);
                sim.try_dispatch(now, p);
            }
            Ev::Ingest(i) => sim
                .streaming
                .as_deref_mut()
                .expect("ingest events are only scheduled in streaming runs")
                .ingest(i, now),
            Ev::ReplicaFree { pool, slot } => {
                // Every service or provisioning completion passes
                // through here, so the last one is the makespan (a
                // stale window token can outlive it and must not
                // stretch the clock).
                makespan = makespan.max(now);
                let p = &mut pools[pool];
                p.pool.mark_free(slot);
                p.busy -= 1;
                sim.try_dispatch(now, p);
                p.maybe_retire(now);
            }
        }
    }

    assert!(
        pools.iter().all(|p| p.queued == 0
            && p.ready.is_empty()
            && p.queues.iter().all(VecDeque::is_empty)),
        "serving loop terminated with work still queued"
    );

    sim.served.sort_by_key(|r| r.id);
    let mut provision = ServicePhases::default();
    let mut cold_services = 0usize;
    for p in &pools {
        provision.accumulate(&p.provision);
        cold_services += p.pool.cold_starts();
    }
    Run {
        offered: sim.requests,
        served: sim.served,
        shed,
        batches: sim.batches,
        scale_events: autoscaler
            .as_ref()
            .map(|s| s.events().to_vec())
            .unwrap_or_default(),
        provision,
        cold_services,
        pool_spans: pools.iter().map(|p| (p.spawned_at, p.retired_at)).collect(),
        peak_pools,
        final_pools: pools.iter().filter(|p| p.routable()).count(),
        makespan,
        pools: pools.into_iter().map(|p| p.pool).collect(),
    }
}
