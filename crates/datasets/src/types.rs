//! Dataset container types shared by all generators.

use std::fmt;
use std::sync::{Mutex, MutexGuard};

use dgnn_graph::{EventStream, Graph, SnapshotSequence};
use dgnn_tensor::{Initializer, Result, Tensor, TensorError, TensorRng};

/// Fewest rows one extension of an [`EdgeFeatures`] prefix generates, so a
/// run of small reads does not take the lock and reallocate per row.
const BLOCK_ROWS: usize = 64;

/// A per-event edge-feature table, `[n_events, edge_dim]`, whose rows are
/// generated on first read.
///
/// A generated table is the row-major Normal(1) stream of a seeded
/// [`TensorRng`]; the table holds the prefix of that stream read so far
/// and the generator positioned at its end. Each draw depends only on the
/// draws before it, so row `i` has exactly the bits an eager
/// `rng.init(&[n_events, edge_dim], Initializer::Normal(1.0))` gives it,
/// whatever order rows are read in. Models that read only the first
/// windows of a stream (JODIE, TGN) pay for those rows alone, and models
/// that never read edge features (DyRep, LDG) pay nothing.
///
/// A read that needs rows past the prefix extends it to the larger of the
/// rows needed, twice the current prefix and one block, capped at the row
/// count. The prefix sits behind a [`Mutex`], so the table is `Send +
/// Sync` and concurrent readers see the same rows. Equality compares
/// logical contents, which materializes both tables.
///
/// ```
/// use dgnn_datasets::{wikipedia, Scale};
///
/// let d = wikipedia(Scale::Tiny, 1);
/// assert_eq!(d.edge_features.materialized_rows(), 0);
/// let rows = d.edge_features.gather_rows(&[2, 0]).unwrap();
/// assert_eq!(rows.dims(), &[2, 172]);
/// assert!(d.edge_features.materialized_rows() < d.stream.len());
/// ```
pub struct EdgeFeatures {
    dims: [usize; 2],
    prefix: Mutex<Prefix>,
}

#[derive(Clone)]
struct Prefix {
    /// Rows materialized so far.
    rows: usize,
    /// Those rows, row-major.
    data: Vec<f32>,
    /// Positioned at the first draw of row `rows`; `None` for a table
    /// built whole from a tensor.
    rng: Option<TensorRng>,
}

impl Prefix {
    /// Materializes at least rows `0..needed` of a `[rows, dim]` table.
    fn extend_to(&mut self, needed: usize, [rows, dim]: [usize; 2]) {
        if needed <= self.rows {
            return;
        }
        let target = needed.max(2 * self.rows).max(BLOCK_ROWS).min(rows);
        let rng = self
            .rng
            .as_mut()
            .expect("a partial prefix keeps its generator");
        // Drawn in place: a temporary block beside the old and new buffers
        // would raise peak memory above the eager table's.
        self.data.reserve_exact((target - self.rows) * dim);
        rng.init_into(
            &mut self.data,
            &[target - self.rows, dim],
            Initializer::Normal(1.0),
        );
        self.rows = target;
    }
}

impl EdgeFeatures {
    /// A `[rows, dim]` table drawn from `rng` on demand.
    pub(crate) fn generated(rows: usize, dim: usize, rng: TensorRng) -> Self {
        EdgeFeatures {
            dims: [rows, dim],
            prefix: Mutex::new(Prefix {
                rows: 0,
                data: Vec::new(),
                rng: Some(rng),
            }),
        }
    }

    /// Table dimensions, `[n_events, edge_dim]`.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Rows generated so far: the length of the materialized prefix.
    pub fn materialized_rows(&self) -> usize {
        self.lock().rows
    }

    /// Gathers the given rows into a new `[indices.len(), edge_dim]`
    /// tensor, generating the rows up to the largest index first.
    ///
    /// # Errors
    ///
    /// Returns the [`TensorError::IndexOutOfBounds`] that
    /// [`Tensor::gather_rows`] returns for the first out-of-range index;
    /// nothing is generated then.
    pub fn gather_rows(&self, indices: &[usize]) -> Result<Tensor> {
        let [rows, dim] = self.dims;
        if let Some(&index) = indices.iter().find(|&&i| i >= rows) {
            return Err(TensorError::IndexOutOfBounds {
                op: "gather_rows",
                index,
                len: rows,
            });
        }
        let needed = indices.iter().max().map_or(0, |&i| i + 1);
        let mut prefix = self.lock();
        prefix.extend_to(needed, self.dims);
        let mut out = Vec::with_capacity(indices.len() * dim);
        for &i in indices {
            out.extend_from_slice(&prefix.data[i * dim..(i + 1) * dim]);
        }
        Tensor::from_vec(out, &[indices.len(), dim])
    }

    /// Every row as one tensor; materializes the whole table.
    pub fn to_tensor(&self) -> Tensor {
        self.with_all(|data| {
            Tensor::from_vec(data.to_vec(), &self.dims).expect("prefix holds rows * dim values")
        })
    }

    /// True when every value is finite; materializes the whole table.
    pub fn all_finite(&self) -> bool {
        self.with_all(|data| data.iter().all(|v| v.is_finite()))
    }

    /// Calls `f` on the whole table, materializing it first.
    fn with_all<R>(&self, f: impl FnOnce(&[f32]) -> R) -> R {
        let mut prefix = self.lock();
        prefix.extend_to(self.dims[0], self.dims);
        f(&prefix.data)
    }

    fn lock(&self) -> MutexGuard<'_, Prefix> {
        self.prefix
            .lock()
            .expect("edge-feature prefix lock poisoned by a panicking reader")
    }
}

impl From<Tensor> for EdgeFeatures {
    /// Wraps a whole, already materialized table.
    ///
    /// # Panics
    ///
    /// Panics unless `table` is rank 2.
    fn from(table: Tensor) -> Self {
        let dims: [usize; 2] = table
            .dims()
            .try_into()
            .expect("an edge-feature table is rank 2");
        EdgeFeatures {
            dims,
            prefix: Mutex::new(Prefix {
                rows: dims[0],
                data: table.into_vec(),
                rng: None,
            }),
        }
    }
}

impl Clone for EdgeFeatures {
    /// Copies the prefix and the generator's position, so the clone
    /// extends to the same rows as the original.
    fn clone(&self) -> Self {
        EdgeFeatures {
            dims: self.dims,
            prefix: Mutex::new(self.lock().clone()),
        }
    }
}

impl PartialEq for EdgeFeatures {
    fn eq(&self, other: &Self) -> bool {
        // One lock at a time: holding both could deadlock against a
        // concurrent `other == self`.
        self.dims == other.dims && {
            let mine = self.to_tensor();
            other.with_all(|theirs| mine.as_slice() == theirs)
        }
    }
}

impl fmt::Debug for EdgeFeatures {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EdgeFeatures")
            .field("dims", &self.dims)
            .field("materialized_rows", &self.materialized_rows())
            .finish()
    }
}

/// A continuous-time interaction dataset (JODIE format): an event stream
/// plus node and per-event edge features. Consumed by JODIE, TGN, TGAT,
/// DyRep and LDG.
///
/// The generators draw `node_features` eagerly and then hand the same
/// generator to `edge_features`, which continues the stream on demand:
/// every value, read in any order, is bit-identical to drawing both
/// tables eagerly from one seeded [`TensorRng`].
#[derive(Debug, Clone, PartialEq)]
pub struct TemporalDataset {
    /// Dataset name (e.g. `"wikipedia"`).
    pub name: &'static str,
    /// Time-sorted interaction events.
    pub stream: EventStream,
    /// Static node features, `[n_nodes, node_dim]`.
    pub node_features: Tensor,
    /// Per-event edge features, `[n_events, edge_dim]`, generated on
    /// first read.
    pub edge_features: EdgeFeatures,
}

impl TemporalDataset {
    /// Node feature dimension.
    pub fn node_dim(&self) -> usize {
        self.node_features.dims()[1]
    }

    /// Edge feature dimension.
    pub fn edge_dim(&self) -> usize {
        self.edge_features.dims()[1]
    }
}

/// A discrete-time snapshot dataset. Consumed by EvolveGCN.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotDataset {
    /// Dataset name (e.g. `"bitcoin_alpha"`).
    pub name: &'static str,
    /// Time-ordered graph snapshots.
    pub snapshots: SnapshotSequence,
    /// Static node features, `[n_nodes, node_dim]`.
    pub node_features: Tensor,
}

impl SnapshotDataset {
    /// Node feature dimension.
    pub fn node_dim(&self) -> usize {
        self.node_features.dims()[1]
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.node_features.dims()[0]
    }
}

/// A spatio-temporal sensor dataset (PeMS format). Consumed by ASTGNN.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeriesDataset {
    /// Dataset name (e.g. `"pems"`).
    pub name: &'static str,
    /// Static road/sensor graph.
    pub sensor_graph: Graph,
    /// Traffic signal, `[T, n_sensors, n_channels]`.
    pub signal: Tensor,
}

impl TimeSeriesDataset {
    /// Number of time slots.
    pub fn n_steps(&self) -> usize {
        self.signal.dims()[0]
    }

    /// Number of sensors.
    pub fn n_sensors(&self) -> usize {
        self.signal.dims()[1]
    }

    /// Number of signal channels.
    pub fn n_channels(&self) -> usize {
        self.signal.dims()[2]
    }
}

/// A molecular trajectory dataset (ISO17 format). Consumed by MolDGNN.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryDataset {
    /// Dataset name (e.g. `"iso17"`).
    pub name: &'static str,
    /// Atoms per molecule (fixed — ISO17 is C7O2H10 isomers, 19 atoms).
    pub n_atoms: usize,
    /// One bond-graph trajectory per molecule.
    pub molecules: Vec<SnapshotSequence>,
    /// Atom positions, `[n_molecules * frames, n_atoms, 3]`.
    pub positions: Tensor,
}

impl TrajectoryDataset {
    /// Number of molecules.
    pub fn n_molecules(&self) -> usize {
        self.molecules.len()
    }

    /// Frames per molecule (uniform across the dataset).
    pub fn frames_per_molecule(&self) -> usize {
        self.molecules.first().map_or(0, SnapshotSequence::len)
    }
}

/// Checks that a freshly generated dataset's never-read edge-feature table
/// reads exactly like the eager reference: node then edge features drawn
/// whole from `TensorRng::seed(feature_seed)`. Node features are compared
/// first, to prove the reference is right. Every read pattern the models
/// and concurrent replicas can produce starts from a fresh clone, so each
/// first read lands on an empty prefix.
#[cfg(test)]
pub(crate) fn assert_features_match_eager(d: &TemporalDataset, feature_seed: u64) {
    let mut trng = TensorRng::seed(feature_seed);
    let nodes = trng.init(d.node_features.dims(), Initializer::Normal(1.0));
    assert_eq!(d.node_features, nodes, "{}: eager reference", d.name);
    let eager = &trng.init(d.edge_features.dims(), Initializer::Normal(1.0));
    let fresh = &d.edge_features;
    assert_eq!(fresh.materialized_rows(), 0, "the table must be unread");
    let rows = eager.dims()[0];
    assert_eq!(fresh.clone().to_tensor(), *eager);

    let mut shuffled: Vec<usize> = (0..rows).collect();
    let mut rng = TensorRng::seed(rows as u64);
    for i in (1..rows).rev() {
        shuffled.swap(i, rng.index(i + 1));
    }
    let orders = [
        vec![rows - 1, 0, rows / 2],
        shuffled,
        (0..rows).rev().collect(),
        vec![3, 3, 0, 3, 1, 1, 0],
        vec![],
    ];
    for order in &orders {
        let gathered = fresh.clone().gather_rows(order).unwrap();
        assert_eq!(gathered, eager.gather_rows(order).unwrap(), "{order:?}");
    }
    // Consecutive windows, as the models read them: many extensions, none
    // aligned to a block.
    let windowed = fresh.clone();
    for start in (0..rows).step_by(37) {
        let window: Vec<usize> = (start..rows.min(start + 37)).collect();
        assert_eq!(
            windowed.gather_rows(&window).unwrap(),
            eager.gather_rows(&window).unwrap()
        );
    }

    let untouched = fresh.clone();
    for bad in [vec![rows], vec![0, rows + 5, 1], vec![rows - 1, usize::MAX]] {
        assert_eq!(
            untouched.gather_rows(&bad).unwrap_err(),
            eager.gather_rows(&bad).unwrap_err()
        );
    }
    assert_eq!(untouched.materialized_rows(), 0);

    let original = fresh.clone();
    original.gather_rows(&[rows / 3]).unwrap();
    let copy = original.clone();
    assert_eq!(copy.materialized_rows(), original.materialized_rows());
    copy.gather_rows(&[rows - 1]).unwrap();
    assert!(copy.materialized_rows() > original.materialized_rows());
    assert_eq!(copy, original);
    assert_eq!(original.to_tensor(), *eager);

    let shared = fresh.clone();
    let barrier = std::sync::Barrier::new(2);
    let ascending: Vec<usize> = (0..rows).collect();
    let descending: Vec<usize> = (0..rows).rev().collect();
    std::thread::scope(|scope| {
        let readers: Vec<_> = [&ascending, &descending]
            .into_iter()
            .map(|order| {
                let (shared, barrier) = (&shared, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    shared.gather_rows(order).unwrap()
                })
            })
            .collect();
        for (reader, order) in readers.into_iter().zip([&ascending, &descending]) {
            let gathered = reader.join().expect("reader thread panicked");
            assert_eq!(gathered, eager.gather_rows(order).unwrap());
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgnn_graph::{Snapshot, TemporalEvent};

    #[test]
    fn temporal_dataset_dims() {
        let stream = EventStream::new(
            3,
            vec![TemporalEvent {
                src: 0,
                dst: 1,
                time: 0.5,
                feature_idx: 0,
            }],
        )
        .unwrap();
        let d = TemporalDataset {
            name: "t",
            stream,
            node_features: Tensor::zeros(&[3, 8]),
            edge_features: Tensor::zeros(&[1, 4]).into(),
        };
        assert_eq!(d.node_dim(), 8);
        assert_eq!(d.edge_dim(), 4);
    }

    #[test]
    fn snapshot_dataset_dims() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let d = SnapshotDataset {
            name: "s",
            snapshots: SnapshotSequence::new(vec![Snapshot {
                time: 0.0,
                graph: g,
            }])
            .unwrap(),
            node_features: Tensor::zeros(&[2, 5]),
        };
        assert_eq!(d.n_nodes(), 2);
        assert_eq!(d.node_dim(), 5);
    }

    #[test]
    fn time_series_dims() {
        let d = TimeSeriesDataset {
            name: "p",
            sensor_graph: Graph::from_edges(4, &[(0, 1)]).unwrap(),
            signal: Tensor::zeros(&[10, 4, 3]),
        };
        assert_eq!(d.n_steps(), 10);
        assert_eq!(d.n_sensors(), 4);
        assert_eq!(d.n_channels(), 3);
    }
}
