//! The benchmark's model factory.
//!
//! It builds the same models as `dgnn_bench::build_model`, but calls
//! the dataset generator and the model constructor separately, so the
//! trace can tell the `datasets` layer from the `models` layer. Every
//! replica it hands to `dgnn-serve` is wrapped in [`Timed`], which
//! logs host time per service whether tracing is on or not: the
//! per-op percentiles of the serving workloads come from that log. The
//! build and the service also cut the pass into segments.

use std::sync::Mutex;
use std::time::Duration;

use dgnn_bench::harness::walltime;
use dgnn_datasets::{
    bitcoin_alpha, github, iso17, pems, social_evolution, wikipedia, Scale, SnapshotDataset,
    TemporalDataset, TimeSeriesDataset, TrajectoryDataset,
};
use dgnn_device::Executor;
use dgnn_models::{
    Astgnn, AstgnnConfig, DgnnModel, DyRep, DyRepConfig, EvolveGcn, EvolveGcnConfig,
    EvolveGcnVersion, InferenceConfig, Jodie, JodieConfig, Ldg, LdgConfig, LdgEncoder, ModelInfo,
    MolDgnn, MolDgnnConfig, ReplicaHandle, RunSummary, Tgat, TgatConfig, Tgn, TgnConfig,
};
use dgnn_serve::ServedModel;

use crate::segments;
use crate::trace::span;

/// A generated dataset of any of the zoo's four input kinds.
pub enum Data {
    Events(TemporalDataset),
    Snapshots(SnapshotDataset),
    Series(TimeSeriesDataset),
    Molecules(TrajectoryDataset),
}

/// Generates `name`'s paper dataset (the `datasets` layer).
///
/// # Panics
///
/// Panics on a name outside `dgnn_bench::MODEL_NAMES`.
pub fn generate(name: &str, scale: Scale, seed: u64) -> Data {
    span("datasets.generate", || match name {
        "jodie" | "tgn" | "tgat" => Data::Events(wikipedia(scale, seed)),
        "dyrep" => Data::Events(social_evolution(scale, seed)),
        "ldg_mlp" | "ldg_bilinear" => Data::Events(github(scale, seed)),
        "astgnn" => Data::Series(pems(scale, seed)),
        "moldgnn" => Data::Molecules(iso17(scale, seed)),
        "evolvegcn_o" | "evolvegcn_h" => Data::Snapshots(bitcoin_alpha(scale, seed)),
        other => panic!("unknown model `{other}`"),
    })
}

/// Constructs `name` over its dataset (the `models` layer).
///
/// # Panics
///
/// Panics when `data` is not the kind `name` takes.
pub fn construct(name: &str, data: Data, seed: u64) -> Box<dyn DgnnModel> {
    span("models.construct", || -> Box<dyn DgnnModel> {
        match (name, data) {
            ("jodie", Data::Events(d)) => Box::new(Jodie::new(d, JodieConfig::default(), seed)),
            ("tgn", Data::Events(d)) => Box::new(Tgn::new(d, TgnConfig::default(), seed)),
            ("tgat", Data::Events(d)) => Box::new(Tgat::new(d, TgatConfig::default(), seed)),
            ("dyrep", Data::Events(d)) => Box::new(DyRep::new(d, DyRepConfig::default(), seed)),
            ("ldg_mlp", Data::Events(d)) => Box::new(Ldg::new(d, ldg(LdgEncoder::Mlp), seed)),
            ("ldg_bilinear", Data::Events(d)) => {
                Box::new(Ldg::new(d, ldg(LdgEncoder::Bilinear), seed))
            }
            ("astgnn", Data::Series(d)) => Box::new(Astgnn::new(d, AstgnnConfig::default(), seed)),
            ("moldgnn", Data::Molecules(d)) => {
                Box::new(MolDgnn::new(d, MolDgnnConfig::default(), seed))
            }
            ("evolvegcn_o", Data::Snapshots(d)) => {
                Box::new(evolvegcn(d, EvolveGcnVersion::O, seed))
            }
            ("evolvegcn_h", Data::Snapshots(d)) => {
                Box::new(evolvegcn(d, EvolveGcnVersion::H, seed))
            }
            (other, _) => panic!("no dataset of the right kind for `{other}`"),
        }
    })
}

fn ldg(encoder: LdgEncoder) -> LdgConfig {
    LdgConfig { dim: 32, encoder }
}

fn evolvegcn(d: SnapshotDataset, version: EvolveGcnVersion, seed: u64) -> EvolveGcn {
    EvolveGcn::new(
        d,
        EvolveGcnConfig {
            hidden: 100,
            version,
        },
        seed,
    )
}

/// Generates the dataset, then constructs the model.
pub fn build(name: &str, scale: Scale, seed: u64) -> Box<dyn DgnnModel> {
    construct(name, generate(name, scale, seed), seed)
}

/// Host time of one served batch: the replica build that preceded it
/// and its `infer`/`run` call.
#[derive(Debug, Clone, Copy)]
pub struct Service {
    pub build: Duration,
    pub infer: Duration,
}

static SERVICES: Mutex<Vec<Service>> = Mutex::new(Vec::new());

/// Takes the services logged since the last call, in service order.
pub fn take_services() -> Vec<Service> {
    std::mem::take(&mut *SERVICES.lock().expect("service log poisoned by a panic"))
}

/// A replica that logs its build and inference host time.
struct Timed {
    inner: Box<dyn DgnnModel>,
    build: Duration,
}

impl DgnnModel for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn info(&self) -> ModelInfo {
        self.inner.info()
    }
    fn param_bytes(&self) -> u64 {
        self.inner.param_bytes()
    }
    fn param_tensors(&self) -> u64 {
        self.inner.param_tensors()
    }
    fn activation_bytes(&self, cfg: &InferenceConfig) -> u64 {
        self.inner.activation_bytes(cfg)
    }
    fn infer(
        &mut self,
        ex: &mut Executor,
        cfg: &InferenceConfig,
    ) -> dgnn_models::Result<RunSummary> {
        segments::mark();
        let t = walltime();
        let out = span("models.infer", || self.inner.infer(ex, cfg));
        segments::mark();
        SERVICES
            .lock()
            .expect("service log poisoned by a panic")
            .push(Service {
                build: self.build,
                infer: t.elapsed(),
            });
        out
    }
}

/// A serving handle whose factory is [`build`] wrapped in [`Timed`].
fn handle(name: &str, scale: Scale, seed: u64) -> ReplicaHandle {
    let owned = name.to_string();
    ReplicaHandle::new(name, move || {
        segments::mark();
        let t = walltime();
        let inner = build(&owned, scale, seed);
        segments::mark();
        Box::new(Timed {
            inner,
            build: t.elapsed(),
        }) as Box<dyn DgnnModel>
    })
}

/// The serving mix `dgnn_bench::served_zoo` builds, over [`handle`]s.
/// Like `served_zoo`, it builds each model once up front.
pub fn served(names: &[&str], scale: Scale, seed: u64) -> Vec<ServedModel> {
    names
        .iter()
        .map(|name| {
            let handle = handle(name, scale, seed);
            drop(handle.build());
            ServedModel {
                handle,
                cfg: dgnn_bench::default_config(name).with_max_units(1),
                weight: 1.0,
            }
        })
        .collect()
}
