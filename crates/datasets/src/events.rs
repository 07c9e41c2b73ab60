//! Unipartite event streams: Social Evolution (DyRep) and GitHub (LDG).

use std::collections::VecDeque;

use dgnn_graph::{EventStream, TemporalEvent};
use dgnn_tensor::{Initializer, TensorRng};

use crate::power_law::PowerLawSampler;
use crate::scale::Scale;
use crate::types::{EdgeFeatures, TemporalDataset};

/// Mixed into the seed of the feature generator, which draws the node
/// features and then, on demand, the edge features.
const FEATURE_SEED_SALT: u64 = 0x1f123bb5;

struct UnipartiteConfig {
    name: &'static str,
    full_nodes: usize,
    full_events: usize,
    node_dim: usize,
    edge_dim: usize,
    alpha: f64,
    /// Probability that an event repeats a recently active pair
    /// (communication recurrence in Social Evolution is very high).
    recurrence: f64,
}

fn generate(cfg: &UnipartiteConfig, scale: Scale, seed: u64) -> TemporalDataset {
    let n_nodes = scale.apply(cfg.full_nodes, 16).max(4);
    let n_events = scale.apply(cfg.full_events, 256);

    let mut rng = TensorRng::seed(seed);
    let pop = PowerLawSampler::new(n_nodes, cfg.alpha);

    let mut t = 0.0f64;
    let mut recent: VecDeque<(usize, usize)> = VecDeque::new();
    let events: Vec<TemporalEvent> = (0..n_events)
        .map(|i| {
            t += rng.uniform_f64(0.01, 1.0);
            let (src, dst) = if !recent.is_empty() && rng.chance(cfg.recurrence) {
                recent[rng.index(recent.len())]
            } else {
                let s = pop.sample(&mut rng);
                let mut d = pop.sample(&mut rng);
                if d == s {
                    d = (d + 1) % n_nodes;
                }
                (s, d)
            };
            recent.push_back((src, dst));
            if recent.len() > 64 {
                recent.pop_front();
            }
            TemporalEvent {
                src,
                dst,
                time: t,
                feature_idx: i,
            }
        })
        .collect();
    let stream = EventStream::new(n_nodes, events).expect("generated events are sorted");

    let mut trng = TensorRng::seed(seed ^ FEATURE_SEED_SALT);
    let node_features = trng.init(&[n_nodes, cfg.node_dim], Initializer::Normal(1.0));
    TemporalDataset {
        name: cfg.name,
        stream,
        node_features,
        edge_features: EdgeFeatures::generated(n_events, cfg.edge_dim, trng),
    }
}

/// MIT Social Evolution: 84 participants, ~2M proximity/communication
/// events with heavy pair recurrence. DyRep's evaluation dataset.
pub fn social_evolution(scale: Scale, seed: u64) -> TemporalDataset {
    generate(
        &UnipartiteConfig {
            name: "social_evolution",
            full_nodes: 84,
            full_events: 2_000_000,
            node_dim: 32,
            edge_dim: 8,
            alpha: 0.8,
            recurrence: 0.7,
        },
        scale,
        seed,
    )
}

/// GitHub collaboration events (gharchive): ~1k active users,
/// follow/star/fork events. LDG's evaluation dataset.
pub fn github(scale: Scale, seed: u64) -> TemporalDataset {
    generate(
        &UnipartiteConfig {
            name: "github",
            full_nodes: 1_000,
            full_events: 500_000,
            node_dim: 64,
            edge_dim: 8,
            alpha: 1.2,
            recurrence: 0.3,
        },
        scale,
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::assert_features_match_eager;

    #[test]
    fn lazy_edge_features_match_the_eager_stream() {
        for gen in [social_evolution, github] {
            for seed in [1, 7] {
                assert_features_match_eager(&gen(Scale::Tiny, seed), seed ^ FEATURE_SEED_SALT);
            }
        }
    }

    #[test]
    fn social_evolution_is_small_and_dense() {
        let d = social_evolution(Scale::Tiny, 1);
        assert_eq!(d.name, "social_evolution");
        assert!(d.stream.n_nodes() <= 84);
        assert!(d.stream.len() > 10 * d.stream.n_nodes());
    }

    #[test]
    fn github_has_power_law_activity() {
        let d = github(Scale::Tiny, 2);
        let mut counts = vec![0usize; d.stream.n_nodes()];
        for e in d.stream.events() {
            counts[e.src] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        assert!(counts[0] > counts[counts.len() / 2].max(1));
    }

    #[test]
    fn recurrence_creates_repeated_pairs() {
        let d = social_evolution(Scale::Tiny, 3);
        let mut pairs = std::collections::HashMap::new();
        for e in d.stream.events() {
            *pairs.entry((e.src, e.dst)).or_insert(0usize) += 1;
        }
        let max_repeat = pairs.values().copied().max().unwrap();
        assert!(max_repeat > 3, "expected recurring pairs, max {max_repeat}");
    }

    #[test]
    fn no_self_loops() {
        let d = github(Scale::Tiny, 4);
        assert!(d.stream.events().iter().all(|e| e.src != e.dst));
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(github(Scale::Tiny, 5).stream, github(Scale::Tiny, 5).stream);
    }
}
