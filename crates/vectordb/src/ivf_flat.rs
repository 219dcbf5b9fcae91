//! Inverted-file index over *uncompressed* vectors (IVF-flat).
//!
//! The same coarse-quantizer pruning as [`crate::IvfPqIndex`] — a k-means
//! partition into `num_lists` inverted lists, of which a query scans the
//! `nprobe` closest — but the lists store raw `f32` vectors and score them
//! with exact L2, so the *only* error source is probing too few lists.
//! That makes it the recall oracle between the two existing extremes:
//!
//! * at `nprobe = num_lists` the index scans every vector exactly and must
//!   reproduce [`crate::FlatIndex`] bit for bit (pinned by
//!   `tests/recall_regression.rs`);
//! * at smaller `nprobe`, the recall loss isolates the *pruning* error that
//!   IVF-PQ compounds with quantization error — comparing the two at equal
//!   `nprobe` attributes recall loss to its source, which is how the paper's
//!   retrieval quality/cost knob (`P_scan`) is calibrated.

use crate::error::VectorDbError;
use crate::flat::{partial_sort_by_distance, Neighbor};
use crate::kmeans::{kmeans, nearest_centroid, KMeansParams};
use serde::{Deserialize, Serialize};

/// One inverted list: member ids and their raw vectors.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct FlatList {
    ids: Vec<usize>,
    vectors: Vec<Vec<f32>>,
}

/// An IVF index over uncompressed vectors. See the module docs.
///
/// # Examples
///
/// ```
/// use rago_vectordb::{IvfFlatIndex, SyntheticDataset};
/// let data = SyntheticDataset::clustered(1_000, 16, 8, 2).vectors;
/// let index = IvfFlatIndex::train(16, &data, 16, 9)?;
/// let hits = index.search(&data[3], 5, 16);
/// assert_eq!(hits[0].id, 3); // full probe + exact distances find the query itself
/// # Ok::<(), rago_vectordb::VectorDbError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IvfFlatIndex {
    dim: usize,
    num_lists: usize,
    centroids: Vec<Vec<f32>>,
    lists: Vec<FlatList>,
    num_vectors: usize,
}

impl IvfFlatIndex {
    /// Trains the coarse quantizer on `data` and adds every vector.
    ///
    /// # Errors
    ///
    /// Returns [`VectorDbError::InvalidInput`] if the dataset is empty,
    /// `num_lists` is zero, or the dataset is smaller than `num_lists`, and
    /// [`VectorDbError::DimensionMismatch`] for ragged input.
    pub fn train(
        dim: usize,
        data: &[Vec<f32>],
        num_lists: usize,
        seed: u64,
    ) -> Result<Self, VectorDbError> {
        if data.is_empty() {
            return Err(VectorDbError::InvalidInput {
                reason: "cannot train an IVF-flat index on an empty dataset".into(),
            });
        }
        if num_lists == 0 {
            return Err(VectorDbError::InvalidInput {
                reason: "num_lists must be at least 1".into(),
            });
        }
        if data.len() < num_lists {
            return Err(VectorDbError::InvalidInput {
                reason: format!(
                    "dataset ({}) must contain at least num_lists ({num_lists}) vectors",
                    data.len()
                ),
            });
        }
        if let Some(bad) = data.iter().find(|v| v.len() != dim) {
            return Err(VectorDbError::DimensionMismatch {
                expected: dim,
                got: bad.len(),
            });
        }
        let coarse = kmeans(
            data,
            KMeansParams {
                k: num_lists,
                max_iterations: 20,
                tolerance: 1e-4,
            },
            seed,
        )?;
        let mut index = Self {
            dim,
            num_lists,
            centroids: coarse.centroids,
            lists: vec![FlatList::default(); num_lists],
            num_vectors: 0,
        };
        for (id, v) in data.iter().enumerate() {
            index.add_with_id(id, v)?;
        }
        Ok(index)
    }

    /// Adds a vector with an explicit external id.
    ///
    /// # Errors
    ///
    /// Returns [`VectorDbError::DimensionMismatch`] if the vector has the
    /// wrong dimensionality.
    pub fn add_with_id(&mut self, id: usize, vector: &[f32]) -> Result<(), VectorDbError> {
        if vector.len() != self.dim {
            return Err(VectorDbError::DimensionMismatch {
                expected: self.dim,
                got: vector.len(),
            });
        }
        let (list_id, _) = nearest_centroid(vector, &self.centroids);
        let list = &mut self.lists[list_id];
        list.ids.push(id);
        list.vectors.push(vector.to_vec());
        self.num_vectors += 1;
        Ok(())
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.num_vectors
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.num_vectors == 0
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of inverted lists.
    pub fn num_lists(&self) -> usize {
        self.num_lists
    }

    /// The fraction of the inverted lists probed: `nprobe / num_lists`,
    /// capped at 1. It is the fraction of the database scanned only when
    /// every list holds as many vectors; the lists a query probes tend to
    /// be the large ones, so a search scans more. For the IVF-PQ index, on
    /// 20,000 clustered 64-d vectors in 64 lists, the mean scanned fraction
    /// at `nprobe` 4 was 1.3–2.1× this value (see
    /// [`crate::IvfPqIndex::scan_fraction`]).
    pub fn scan_fraction(&self, nprobe: usize) -> f64 {
        (nprobe.min(self.num_lists) as f64) / self.num_lists as f64
    }

    /// Searches for the `k` exact-distance nearest neighbours of `query`
    /// within the `nprobe` closest inverted lists. Results are ordered by
    /// `(distance, id)` — the ordering of [`crate::FlatIndex::search`] — so
    /// at `nprobe = num_lists` the result equals a flat search exactly.
    ///
    /// # Panics
    ///
    /// Panics if the query has the wrong dimensionality.
    pub fn search(&self, query: &[f32], k: usize, nprobe: usize) -> Vec<Neighbor> {
        assert_eq!(query.len(), self.dim, "query dimensionality mismatch");
        let nprobe = nprobe.clamp(1, self.num_lists);
        let mut centroid_order: Vec<Neighbor> = self
            .centroids
            .iter()
            .enumerate()
            .map(|(id, c)| Neighbor {
                id,
                distance: crate::distance::l2_distance_squared(query, c),
            })
            .collect();
        partial_sort_by_distance(&mut centroid_order, nprobe);
        centroid_order.truncate(nprobe);

        let mut hits: Vec<Neighbor> = Vec::new();
        for probe in &centroid_order {
            let list = &self.lists[probe.id];
            for (id, v) in list.ids.iter().zip(list.vectors.iter()) {
                hits.push(Neighbor {
                    id: *id,
                    distance: crate::distance::l2_distance_squared(query, v),
                });
            }
        }
        partial_sort_by_distance(&mut hits, k);
        hits.truncate(k);
        hits
    }

    /// Searches a batch of queries with the same `k` and `nprobe`.
    pub fn search_batch(
        &self,
        queries: &[Vec<f32>],
        k: usize,
        nprobe: usize,
    ) -> Vec<Vec<Neighbor>> {
        queries.iter().map(|q| self.search(q, k, nprobe)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SyntheticDataset;
    use crate::flat::FlatIndex;

    #[test]
    fn train_rejects_bad_inputs() {
        let data = SyntheticDataset::uniform(10, 8, 0).vectors;
        assert!(IvfFlatIndex::train(8, &[], 4, 0).is_err());
        assert!(IvfFlatIndex::train(8, &data, 0, 0).is_err());
        assert!(IvfFlatIndex::train(8, &data, 64, 0).is_err());
        let mut ragged = data.clone();
        ragged.push(vec![0.0; 5]);
        assert!(IvfFlatIndex::train(8, &ragged, 4, 0).is_err());
    }

    #[test]
    fn add_with_id_rejects_wrong_dim() {
        let data = SyntheticDataset::uniform(32, 8, 1).vectors;
        let mut index = IvfFlatIndex::train(8, &data, 4, 1).unwrap();
        assert!(index.add_with_id(99, &[0.0; 3]).is_err());
        assert!(index.add_with_id(99, &[0.0; 8]).is_ok());
        assert_eq!(index.len(), 33);
    }

    #[test]
    fn scan_fraction_tracks_nprobe() {
        let data = SyntheticDataset::uniform(64, 8, 2).vectors;
        let index = IvfFlatIndex::train(8, &data, 16, 2).unwrap();
        assert!((index.scan_fraction(4) - 0.25).abs() < 1e-12);
        assert!((index.scan_fraction(16) - 1.0).abs() < 1e-12);
        assert!((index.scan_fraction(99) - 1.0).abs() < 1e-12);
        assert_eq!(index.num_lists(), 16);
        assert_eq!(index.dim(), 8);
        assert!(!index.is_empty());
    }

    #[test]
    fn batch_search_matches_single_queries() {
        let data = SyntheticDataset::clustered(500, 12, 6, 3).vectors;
        let index = IvfFlatIndex::train(12, &data, 8, 3).unwrap();
        let queries = vec![data[0].clone(), data[250].clone()];
        let batch = index.search_batch(&queries, 5, 4);
        assert_eq!(batch[0], index.search(&queries[0], 5, 4));
        assert_eq!(batch[1], index.search(&queries[1], 5, 4));
    }

    #[test]
    fn full_probe_equals_flat_search() {
        let data = SyntheticDataset::clustered(800, 16, 8, 4).vectors;
        let index = IvfFlatIndex::train(16, &data, 10, 4).unwrap();
        let flat = FlatIndex::build(16, data.clone()).unwrap();
        for q in data.iter().step_by(97) {
            assert_eq!(index.search(q, 10, 10), flat.search(q, 10));
        }
    }
}
