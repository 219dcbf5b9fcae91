//! Inverted-file index over product-quantized codes (IVF-PQ).
//!
//! This is the algorithm family the RAGO paper assumes for hyperscale
//! retrieval (ScaNN / Faiss-IVFPQ, §2): a coarse quantizer partitions the
//! database into `num_lists` inverted lists; a query first scores the list
//! centroids, then scans the PQ codes of the `nprobe` closest lists with an
//! ADC lookup table. The fraction of the database actually scanned —
//! `nprobe / num_lists` on average — is the `P_scan` knob of the paper's
//! retrieval cost model.

use crate::error::VectorDbError;
use crate::flat::{partial_sort_by_distance, Neighbor};
use crate::kmeans::{kmeans, nearest_centroid, KMeansParams};
use crate::pq::ProductQuantizer;
use serde::{Deserialize, Serialize};

/// Construction parameters of an [`IvfPqIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IvfPqParams {
    /// Number of inverted lists (coarse centroids).
    pub num_lists: usize,
    /// Number of PQ subspaces (bytes per stored code).
    pub num_subspaces: usize,
    /// Bits per PQ code (codebook size is `2^bits`).
    pub bits_per_code: u32,
    /// Maximum number of training vectors used for k-means (subsampled when
    /// the database is larger).
    pub training_sample: usize,
}

impl Default for IvfPqParams {
    fn default() -> Self {
        Self {
            num_lists: 64,
            num_subspaces: 8,
            bits_per_code: 4,
            training_sample: 10_000,
        }
    }
}

/// One inverted list: the ids and contiguous PQ codes of its members.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct InvertedList {
    ids: Vec<usize>,
    codes: Vec<u8>,
}

/// An IVF-PQ approximate nearest-neighbour index.
///
/// # Examples
///
/// ```
/// use rago_vectordb::{IvfPqIndex, IvfPqParams, SyntheticDataset};
/// let data = SyntheticDataset::clustered(1_000, 16, 8, 2).vectors;
/// let index = IvfPqIndex::train(16, &data, IvfPqParams::default(), 9)?;
/// let hits = index.search(&data[3], 5, 8);
/// assert!(!hits.is_empty());
/// # Ok::<(), rago_vectordb::VectorDbError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IvfPqIndex {
    dim: usize,
    params: IvfPqParams,
    centroids: Vec<Vec<f32>>,
    pq: ProductQuantizer,
    lists: Vec<InvertedList>,
    num_vectors: usize,
}

impl IvfPqIndex {
    /// Trains the coarse quantizer and PQ codebooks on (a sample of) `data`
    /// and adds every vector of `data` to the index.
    ///
    /// # Errors
    ///
    /// Returns [`VectorDbError::InvalidInput`] if the dataset is empty or too
    /// small for the requested list count / codebook size, and
    /// [`VectorDbError::DimensionMismatch`] for ragged input.
    pub fn train(
        dim: usize,
        data: &[Vec<f32>],
        params: IvfPqParams,
        seed: u64,
    ) -> Result<Self, VectorDbError> {
        if data.is_empty() {
            return Err(VectorDbError::InvalidInput {
                reason: "cannot train an IVF-PQ index on an empty dataset".into(),
            });
        }
        if params.num_lists == 0 {
            return Err(VectorDbError::InvalidInput {
                reason: "num_lists must be at least 1".into(),
            });
        }
        if data.len() < params.num_lists {
            return Err(VectorDbError::InvalidInput {
                reason: format!(
                    "dataset ({}) must contain at least num_lists ({}) vectors",
                    data.len(),
                    params.num_lists
                ),
            });
        }
        if let Some(bad) = data.iter().find(|v| v.len() != dim) {
            return Err(VectorDbError::DimensionMismatch {
                expected: dim,
                got: bad.len(),
            });
        }
        // Subsample training data deterministically (strided) if necessary.
        let sample: Vec<Vec<f32>> = if data.len() > params.training_sample {
            let stride = data.len() / params.training_sample;
            data.iter().step_by(stride.max(1)).cloned().collect()
        } else {
            data.to_vec()
        };
        let coarse = kmeans(
            &sample,
            KMeansParams {
                k: params.num_lists.min(sample.len()),
                max_iterations: 20,
                tolerance: 1e-4,
            },
            seed,
        )?;
        let pq = ProductQuantizer::train(
            dim,
            params.num_subspaces,
            params.bits_per_code,
            &sample,
            seed.wrapping_add(0x9E37_79B9),
        )?;
        let mut index = Self {
            dim,
            params,
            centroids: coarse.centroids,
            pq,
            lists: vec![InvertedList::default(); params.num_lists],
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
        let code = self.pq.encode(vector);
        let list = &mut self.lists[list_id];
        list.ids.push(id);
        list.codes.extend_from_slice(&code);
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

    /// Construction parameters.
    pub fn params(&self) -> IvfPqParams {
        self.params
    }

    /// The fraction of the inverted lists probed: `nprobe / num_lists`,
    /// capped at 1 (and 1 for an index without lists). It is the fraction
    /// of the database scanned only when every list holds as many codes,
    /// and the lists a query probes tend to be the large ones: on 20,000
    /// clustered 64-d vectors in 64 lists, queried with 500 held-out vectors
    /// of the same distribution, the mean fraction of codes a search
    /// actually scanned at `nprobe` 4 was 1.3–2.1× this value (8 to 256
    /// data clusters). [`Self::scanned_bytes_per_query`] shares that bias.
    pub fn scan_fraction(&self, nprobe: usize) -> f64 {
        if self.params.num_lists == 0 {
            return 1.0;
        }
        (nprobe.min(self.params.num_lists) as f64) / self.params.num_lists as f64
    }

    /// Searches for the `k` nearest neighbours of `query`, scanning the
    /// `nprobe` inverted lists whose centroids are closest to the query.
    ///
    /// # Panics
    ///
    /// Panics if the query has the wrong dimensionality.
    pub fn search(&self, query: &[f32], k: usize, nprobe: usize) -> Vec<Neighbor> {
        assert_eq!(query.len(), self.dim, "query dimensionality mismatch");
        let nprobe = nprobe.clamp(1, self.params.num_lists);
        // Rank centroids by distance to the query.
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

        let table = self.pq.build_lookup_table(query);
        let mut hits: Vec<Neighbor> = Vec::new();
        for probe in &centroid_order {
            let list = &self.lists[probe.id];
            if list.ids.is_empty() {
                continue;
            }
            let list_hits = self.pq.scan(&table, &list.codes, Some(&list.ids), k);
            hits.extend(list_hits);
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

    /// Total bytes of PQ codes scanned for one query at the given `nprobe`,
    /// taking every list at the mean list size ([`Self::scan_fraction`] of
    /// the codes): the quantity the retrieval cost model prices, with the
    /// same size bias.
    pub fn scanned_bytes_per_query(&self, nprobe: usize) -> f64 {
        self.scan_fraction(nprobe) * self.num_vectors as f64 * self.pq.code_bytes() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SyntheticDataset;
    use crate::flat::FlatIndex;
    use crate::recall::recall_at_k;

    use std::sync::OnceLock;

    /// Builds the (relatively expensive) shared test fixture exactly once.
    fn build_index() -> &'static (IvfPqIndex, FlatIndex, Vec<Vec<f32>>) {
        static FIXTURE: OnceLock<(IvfPqIndex, FlatIndex, Vec<Vec<f32>>)> = OnceLock::new();
        FIXTURE.get_or_init(|| {
            let data = SyntheticDataset::clustered(3_000, 24, 16, 4).vectors;
            let params = IvfPqParams {
                num_lists: 32,
                num_subspaces: 12,
                bits_per_code: 8,
                training_sample: 1_000,
            };
            let ivf = IvfPqIndex::train(24, &data, params, 21).unwrap();
            let flat = FlatIndex::build(24, data.clone()).unwrap();
            (ivf, flat, data)
        })
    }

    #[test]
    fn index_holds_every_vector() {
        let (ivf, _, data) = build_index();
        assert_eq!(ivf.len(), data.len());
        assert!(!ivf.is_empty());
        assert_eq!(ivf.dim(), 24);
    }

    #[test]
    fn recall_improves_with_nprobe() {
        // Queries are drawn from the indexed distribution (a held-out slice of
        // the same dataset) as in standard ANN benchmarks.
        let (ivf, flat, data) = build_index();
        let queries: Vec<Vec<f32>> = data.iter().step_by(120).take(25).cloned().collect();
        let exact: Vec<_> = queries.iter().map(|q| flat.search(q, 10)).collect();
        let r1 = recall_at_k(
            &exact,
            &queries
                .iter()
                .map(|q| ivf.search(q, 10, 1))
                .collect::<Vec<_>>(),
            10,
        );
        let r32 = recall_at_k(
            &exact,
            &queries
                .iter()
                .map(|q| ivf.search(q, 10, 32))
                .collect::<Vec<_>>(),
            10,
        );
        // Probing every list scans the whole database: recall is limited only
        // by PQ error and must be at least as good as probing one list.
        assert!(
            r32 >= r1,
            "recall@nprobe=32 ({r32}) < recall@nprobe=1 ({r1})"
        );
        assert!(r32 > 0.4, "full-probe recall too low: {r32}");
    }

    #[test]
    fn scan_fraction_tracks_nprobe() {
        let (ivf, _, _) = build_index();
        assert!((ivf.scan_fraction(8) - 0.25).abs() < 1e-9);
        assert!((ivf.scan_fraction(32) - 1.0).abs() < 1e-9);
        assert!((ivf.scan_fraction(64) - 1.0).abs() < 1e-9); // clamped
        assert!(ivf.scanned_bytes_per_query(8) > 0.0);
        assert!(ivf.scanned_bytes_per_query(32) > ivf.scanned_bytes_per_query(8));
    }

    #[test]
    fn batch_search_matches_single_queries() {
        let (ivf, _, data) = build_index();
        let queries = vec![data[0].clone(), data[1500].clone()];
        let batch = ivf.search_batch(&queries, 5, 4);
        assert_eq!(batch[0], ivf.search(&queries[0], 5, 4));
        assert_eq!(batch[1], ivf.search(&queries[1], 5, 4));
    }

    #[test]
    fn self_query_usually_finds_itself_at_full_probe() {
        let (ivf, _, data) = build_index();
        let mut found = 0;
        for i in (0..200).step_by(10) {
            let hits = ivf.search(&data[i], 10, 32);
            if hits.iter().any(|h| h.id == i) {
                found += 1;
            }
        }
        assert!(found >= 15, "only {found}/20 self-queries found themselves");
    }

    #[test]
    fn train_rejects_bad_inputs() {
        let data = SyntheticDataset::uniform(10, 8, 0).vectors;
        assert!(IvfPqIndex::train(8, &[], IvfPqParams::default(), 0).is_err());
        let params = IvfPqParams {
            num_lists: 64,
            ..Default::default()
        };
        assert!(IvfPqIndex::train(8, &data, params, 0).is_err()); // fewer vectors than lists
        let params = IvfPqParams {
            num_lists: 0,
            ..Default::default()
        };
        assert!(IvfPqIndex::train(8, &data, params, 0).is_err());
    }

    #[test]
    fn add_with_id_rejects_wrong_dim() {
        let mut ivf = build_index().0.clone();
        assert!(ivf.add_with_id(123456, &[0.0; 8]).is_err());
        assert!(ivf.add_with_id(123456, &[0.0; 24]).is_ok());
    }
}
