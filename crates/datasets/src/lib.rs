//! # dgnn-datasets
//!
//! Seeded synthetic generators standing in for the nine datasets of the
//! paper's artifact: Wikipedia, Reddit, LastFM (JODIE-format bipartite
//! interaction streams), Bitcoin-Alpha and the Stochastic Block Model
//! (snapshot sequences), PeMS (traffic sensor time series), ISO17
//! (molecular trajectories), Social Evolution and GitHub (event streams).
//!
//! ## Why synthetic stands in for the real data
//!
//! The paper's bottlenecks are functions of *workload shape* — event
//! counts, degree skew, snapshot sizes, feature dimensions — not of which
//! particular user edited which particular page. Each generator matches
//! its real counterpart's published scale and skew (power-law popularity
//! for the interaction networks, block structure for SBM, fixed atom
//! counts for ISO17) and is parameterized by [`Scale`] so CI runs stay
//! fast while `Scale::Full` approaches the real dataset sizes.
//!
//! All generators are deterministic in their seed.
//!
//! ```
//! use dgnn_datasets::{wikipedia, Scale};
//!
//! let a = wikipedia(Scale::Tiny, 1);
//! let b = wikipedia(Scale::Tiny, 1);
//! assert_eq!(a.stream.len(), b.stream.len());
//! assert!(a.stream.len() > 100);
//! ```

#![forbid(unsafe_code)]

mod convert;
mod events;
mod interaction;
mod molecular;
mod power_law;
mod scale;
mod snapshots;
mod traffic;
mod types;

pub use convert::as_snapshots;
pub use events::{github, social_evolution};
pub use interaction::{lastfm, reddit, wikipedia};
pub use molecular::iso17;
pub use power_law::PowerLawSampler;
pub use scale::Scale;
pub use snapshots::{bitcoin_alpha, sbm};
pub use traffic::pems;
pub use types::{
    EdgeFeatures, SnapshotDataset, TemporalDataset, TimeSeriesDataset, TrajectoryDataset,
};
