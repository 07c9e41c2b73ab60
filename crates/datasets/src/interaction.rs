//! JODIE-format bipartite interaction streams: Wikipedia, Reddit, LastFM.
//!
//! Users occupy node ids `0..n_users`; items (pages, subreddits, songs)
//! occupy `n_users..n_users + n_items`. Item popularity and user activity
//! are both power-law distributed; inter-event gaps are exponential-ish.

use dgnn_graph::{EventStream, TemporalEvent};
use dgnn_tensor::{Initializer, TensorRng};

use crate::power_law::PowerLawSampler;
use crate::scale::Scale;
use crate::types::{EdgeFeatures, TemporalDataset};

/// Mixed into the seed of the feature generator, which draws the node
/// features and then, on demand, the edge features.
const FEATURE_SEED_SALT: u64 = 0x9e3779b97f4a7c15;

/// Shape parameters of a bipartite interaction dataset.
struct BipartiteConfig {
    name: &'static str,
    full_users: usize,
    full_items: usize,
    full_events: usize,
    edge_dim: usize,
    node_dim: usize,
    /// Popularity skew (higher = heavier head).
    item_alpha: f64,
    user_alpha: f64,
}

fn generate(cfg: &BipartiteConfig, scale: Scale, seed: u64) -> TemporalDataset {
    let n_users = scale.apply(cfg.full_users, 16);
    let n_items = scale.apply(cfg.full_items, 8);
    let n_events = scale.apply(cfg.full_events, 256);
    let n_nodes = n_users + n_items;

    let mut rng = TensorRng::seed(seed);
    let items = PowerLawSampler::new(n_items, cfg.item_alpha);
    let users = PowerLawSampler::new(n_users, cfg.user_alpha);

    let mut t = 0.0f64;
    let events: Vec<TemporalEvent> = (0..n_events)
        .map(|i| {
            t += rng.uniform_f64(0.05, 2.0);
            TemporalEvent {
                src: users.sample(&mut rng),
                dst: n_users + items.sample(&mut rng),
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

/// Wikipedia edit stream (JODIE): ~8.2k editors, 1k pages, 157k edits,
/// 172-dimensional LIWC edge features.
pub fn wikipedia(scale: Scale, seed: u64) -> TemporalDataset {
    generate(
        &BipartiteConfig {
            name: "wikipedia",
            full_users: 8_227,
            full_items: 1_000,
            full_events: 157_474,
            edge_dim: 172,
            node_dim: 172,
            item_alpha: 1.1,
            user_alpha: 1.3,
        },
        scale,
        seed,
    )
}

/// Reddit post stream (JODIE): ~10k users, 984 subreddits, 672k posts,
/// 172-dimensional edge features. Denser per-window than Wikipedia —
/// the property behind EvolveGCN's larger Reddit memcpy share (Fig 7i/j).
pub fn reddit(scale: Scale, seed: u64) -> TemporalDataset {
    generate(
        &BipartiteConfig {
            name: "reddit",
            full_users: 10_000,
            full_items: 984,
            full_events: 672_447,
            edge_dim: 172,
            node_dim: 172,
            item_alpha: 1.0,
            user_alpha: 1.1,
        },
        scale,
        seed,
    )
}

/// LastFM listening stream (JODIE): ~1k users, 1k songs, 1.29M plays,
/// featureless edges (dimension 2 placeholder as in the reference code).
pub fn lastfm(scale: Scale, seed: u64) -> TemporalDataset {
    generate(
        &BipartiteConfig {
            name: "lastfm",
            full_users: 980,
            full_items: 1_000,
            full_events: 1_293_103,
            edge_dim: 2,
            node_dim: 128,
            item_alpha: 1.2,
            user_alpha: 0.9,
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
        for gen in [wikipedia, reddit, lastfm] {
            for seed in [1, 7] {
                assert_features_match_eager(&gen(Scale::Tiny, seed), seed ^ FEATURE_SEED_SALT);
            }
        }
    }

    #[test]
    fn wikipedia_shape_matches_config() {
        let d = wikipedia(Scale::Tiny, 1);
        assert_eq!(d.name, "wikipedia");
        assert_eq!(d.edge_dim(), 172);
        assert_eq!(d.stream.len(), d.edge_features.dims()[0]);
        assert_eq!(d.stream.n_nodes(), d.node_features.dims()[0]);
    }

    #[test]
    fn generators_are_deterministic() {
        let a = reddit(Scale::Tiny, 7);
        let b = reddit(Scale::Tiny, 7);
        assert_eq!(a.stream, b.stream);
        assert_eq!(a.edge_features, b.edge_features);
    }

    #[test]
    fn different_seeds_differ() {
        let a = lastfm(Scale::Tiny, 1);
        let b = lastfm(Scale::Tiny, 2);
        assert_ne!(a.stream, b.stream);
    }

    #[test]
    fn events_are_bipartite() {
        let d = wikipedia(Scale::Tiny, 3);
        let n_users = Scale::Tiny.apply(8_227, 16);
        for e in d.stream.events() {
            assert!(e.src < n_users, "src must be a user");
            assert!(e.dst >= n_users, "dst must be an item");
        }
    }

    #[test]
    fn item_popularity_is_skewed() {
        let d = wikipedia(Scale::Small, 5);
        let n_users = Scale::Small.apply(8_227, 16);
        let n_items = Scale::Small.apply(1_000, 8);
        let mut counts = vec![0usize; n_items];
        for e in d.stream.events() {
            counts[e.dst - n_users] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let head: usize = counts[..n_items / 10].iter().sum();
        let total: usize = counts.iter().sum();
        assert!(head as f64 > 0.4 * total as f64, "head {head} of {total}");
    }

    #[test]
    fn scales_order_event_counts() {
        let t = wikipedia(Scale::Tiny, 1).stream.len();
        let s = wikipedia(Scale::Small, 1).stream.len();
        assert!(s > 5 * t);
    }
}
