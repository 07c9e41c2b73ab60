//! Replica handles: recipes for materializing fresh model instances.
//!
//! A serving layer keeps *sessions* (warm executors with resident
//! weights) alive across requests, but rebuilds the *model struct* per
//! service so that every request's numerics depend only on the handle's
//! seed-deterministic recipe — never on mutable state a previous
//! request left behind. The struct rebuild is host-side Rust work the
//! simulator does not price; the priced warm-up (context init, weight
//! upload) is exactly what the warm session amortizes. A rebuild no
//! longer regenerates edge-feature rows the run never reads:
//! [`dgnn_datasets::EdgeFeatures`] draws each row on first read, with
//! the bits an eager table would hold.
//!
//! `dgnn-bench` provides handles for the full 8-model zoo
//! (`zoo_handles`), binding each model to its paper dataset.

use crate::common::DgnnModel;

/// Factory closure producing a fresh, identically-seeded model instance
/// on every call.
pub type ModelFactory = Box<dyn Fn() -> Box<dyn DgnnModel> + Send + Sync>;

/// A named recipe for building replicas of one model.
///
/// Two instances built from the same handle are bit-identical: the
/// factory must close over its dataset and seed, not over mutable
/// state. [`ReplicaHandle::build`] is therefore safe to call once per
/// served batch.
pub struct ReplicaHandle {
    name: String,
    factory: ModelFactory,
}

impl std::fmt::Debug for ReplicaHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaHandle")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

impl ReplicaHandle {
    /// Creates a handle from a model name and factory.
    pub fn new(
        name: impl Into<String>,
        factory: impl Fn() -> Box<dyn DgnnModel> + Send + Sync + 'static,
    ) -> Self {
        ReplicaHandle {
            name: name.into(),
            factory: Box::new(factory),
        }
    }

    /// The model name this handle builds (e.g. `"tgat"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Materializes a fresh replica.
    pub fn build(&self) -> Box<dyn DgnnModel> {
        (self.factory)()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{InferenceConfig, RunSummary};
    use crate::registry::{all_model_infos, ModelInfo};
    use dgnn_device::Executor;

    struct Stub;

    impl DgnnModel for Stub {
        fn name(&self) -> &'static str {
            "stub"
        }
        fn info(&self) -> ModelInfo {
            all_model_infos()[0].clone()
        }
        fn param_bytes(&self) -> u64 {
            1024
        }
        fn param_tensors(&self) -> u64 {
            2
        }
        fn activation_bytes(&self, _cfg: &InferenceConfig) -> u64 {
            512
        }
        fn infer(
            &mut self,
            _ex: &mut Executor,
            _cfg: &InferenceConfig,
        ) -> crate::Result<RunSummary> {
            Ok(RunSummary::new(1, dgnn_device::DurationNs::ZERO, 0.5))
        }
    }

    #[test]
    fn handle_builds_fresh_instances() {
        let h = ReplicaHandle::new("stub", || Box::new(Stub) as Box<dyn DgnnModel>);
        assert_eq!(h.name(), "stub");
        let a = h.build();
        let b = h.build();
        assert_eq!(a.name(), b.name());
        assert_eq!(a.param_bytes(), 1024);
        assert!(format!("{h:?}").contains("stub"));
    }
}
