//! Simulation of decoding with iterative mid-generation retrievals (§5.3).
//!
//! A batch of sequences decodes token by token. Each sequence triggers a
//! number of retrievals at random token positions; when it hits one, the
//! sequence pauses and its retrieval request joins a queue. The queue is
//! dispatched as a batch of `iterative_batch` requests (or earlier, when no
//! sequence can make progress otherwise), and after the retrieval + prefix
//! latency elapses the paused sequences resume decoding. The simulation
//! reports the achieved time-per-output-token and the slowdown relative to
//! uninterrupted decoding — the quantities plotted in Figures 9 and 10 of the
//! paper.
//!
//! [`simulate`] runs this study on the request-level replica engine
//! ([`crate::engine`]): `decode_batch` requests arrive at t = 0 at a
//! decode-only replica whose decode batch holds them all, so they decode
//! together from the first step and pause and resume exactly as described
//! above.
//!
//! The replica draws each request's retrieval trigger positions at
//! injection, from an RNG seeded with the simulation's seed, in request
//! order. So the positions of request `i` depend only on the seed, the
//! decode length, the retrieval count and `i`, never on the batches or
//! the latencies. A [`TriggerTable`] holds them for the first `rows`
//! requests, drawn by those same calls, and [`simulate_with`] reads them
//! from it: one table drawn for the largest decode batch serves every
//! simulation that shares the other three inputs, bit for bit.
//! [`simulate`] draws a table of its own and calls [`simulate_with`], so
//! both run the one decode path.

use crate::engine::{
    sample_positions, DecodeSpec, EngineRequest, IterativeSpec, LatencyTable, PipelineSpec,
    ReplicaSim,
};
use crate::sink::{MetricsMode, RunSink, StreamingConfig};
use rago_schema::HistogramSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Parameters of one iterative-decode simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IterativeDecodeParams {
    /// Number of sequences decoding concurrently (the decode batch size).
    pub decode_batch: u32,
    /// Number of retrieval requests batched together for the iterative
    /// retrieval + prefix pass.
    pub iterative_batch: u32,
    /// Tokens generated per sequence.
    pub decode_len: u32,
    /// Retrievals issued by each sequence during its generation (beyond the
    /// initial pre-decode retrieval). One retrieval per sequence means one
    /// mid-generation pause; zero means plain decoding.
    pub retrievals_per_sequence: u32,
    /// Latency of one decode step for the full batch, in seconds.
    pub step_latency_s: f64,
    /// Latency of one iterative retrieval + prefix pass (for a batch of
    /// `iterative_batch` requests), in seconds. Set to zero to isolate the
    /// batching-induced idleness as in Figure 10.
    pub retrieval_prefix_latency_s: f64,
    /// RNG seed controlling the retrieval trigger positions.
    pub seed: u64,
}

/// Result of an iterative-decode simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct IterativeDecodeResult {
    /// Wall-clock time until every sequence finished its generation.
    pub total_time_s: f64,
    /// Mean time-per-output-token across sequences.
    pub tpot_mean_s: f64,
    /// Worst-case (slowest-sequence) time-per-output-token.
    pub tpot_worst_s: f64,
    /// Completion time divided by the no-retrieval decode time
    /// (`decode_len * step_latency_s`) — the normalized decoding latency of
    /// Figure 10.
    pub normalized_decode_latency: f64,
    /// Number of retrieval + prefix batches dispatched.
    pub retrieval_batches: u32,
    /// Mean number of requests in each dispatched retrieval batch.
    pub mean_retrieval_batch_fill: f64,
}

/// The retrieval trigger positions of the first `rows` requests of a
/// decode-stall simulation: the positions a replica seeded `seed` draws
/// for them, for sequences of `decode_len` tokens with `count` retrievals
/// each. See the module documentation.
#[derive(Debug, Clone)]
pub struct TriggerTable {
    seed: u64,
    decode_len: u32,
    count: u32,
    rows: u32,
    /// Positions per row: `min(count, decode_len - 1)`, or 0 when there
    /// are none.
    stride: usize,
    /// Row `i` is `positions[i * stride..(i + 1) * stride]`, ascending.
    positions: Vec<u32>,
}

impl TriggerTable {
    /// Draws the positions of requests `0..rows`, in request order, with
    /// the same calls on the same RNG a replica makes when they are
    /// injected.
    ///
    /// # Examples
    ///
    /// ```
    /// use rago_serving_sim::iterative::{IterativeDecodeParams, TriggerTable};
    ///
    /// // 8 sequences of 32 tokens, each triggering 3 retrievals.
    /// let table = TriggerTable::draw(7, 32, 3, 8);
    /// let params = IterativeDecodeParams {
    ///     decode_batch: 8,
    ///     iterative_batch: 4,
    ///     decode_len: 32,
    ///     retrievals_per_sequence: 3,
    ///     step_latency_s: 1e-3,
    ///     retrieval_prefix_latency_s: 0.01,
    ///     seed: 7,
    /// };
    /// assert!(table.fits(&params));
    /// assert!(!table.fits(&IterativeDecodeParams { decode_batch: 9, ..params }));
    /// assert!(!table.fits(&IterativeDecodeParams { seed: 8, ..params }));
    /// ```
    pub fn draw(seed: u64, decode_len: u32, count: u32, rows: u32) -> Self {
        let stride = count.min(decode_len.saturating_sub(1)) as usize;
        let mut positions = Vec::with_capacity(stride * rows as usize);
        if stride > 0 {
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..rows {
                positions.extend(sample_positions(&mut rng, decode_len, count));
            }
        }
        Self {
            seed,
            decode_len,
            count,
            rows,
            stride,
            positions,
        }
    }

    /// The trigger positions of request `i`, ascending.
    fn row(&self, i: u32) -> &[u32] {
        let start = i as usize * self.stride;
        &self.positions[start..start + self.stride]
    }

    /// Whether a simulation of `params` can read its positions here: the
    /// table was drawn for its seed, decode length and retrieval count,
    /// with a row for every sequence of its decode batch.
    pub fn fits(&self, params: &IterativeDecodeParams) -> bool {
        self.seed == params.seed
            && self.decode_len == params.decode_len
            && self.count == params.retrievals_per_sequence
            && self.rows >= params.decode_batch
    }
}

/// Runs the simulation of `params` to completion and returns the aggregate
/// metrics. See the module documentation.
///
/// # Panics
///
/// Panics if the decode batch or decode length is zero, the step latency
/// is not positive, or the iterative batch is zero while retrievals are
/// requested. Also panics on the other inputs [`PipelineSpec::validate`]
/// rejects: a non-finite step latency, or a negative or non-finite
/// retrieval latency.
///
/// # Examples
///
/// ```
/// use rago_serving_sim::iterative::{simulate, IterativeDecodeParams};
///
/// // Without mid-generation retrievals decoding is unobstructed.
/// let result = simulate(IterativeDecodeParams {
///     decode_batch: 8,
///     iterative_batch: 4,
///     decode_len: 32,
///     retrievals_per_sequence: 0,
///     step_latency_s: 1e-3,
///     retrieval_prefix_latency_s: 0.05,
///     seed: 0,
/// });
/// assert!((result.normalized_decode_latency - 1.0).abs() < 1e-9);
/// assert_eq!(result.retrieval_batches, 0);
/// ```
pub fn simulate(params: IterativeDecodeParams) -> IterativeDecodeResult {
    let p = params;
    simulate_with(
        p,
        &TriggerTable::draw(
            p.seed,
            p.decode_len,
            p.retrievals_per_sequence,
            p.decode_batch,
        ),
    )
}

/// As [`simulate`], reading the trigger positions from `triggers` instead
/// of drawing them. The result is bit-identical to [`simulate`]'s.
///
/// # Panics
///
/// As [`simulate`], and also unless `triggers` [`TriggerTable::fits`]
/// `params`.
///
/// # Examples
///
/// ```
/// use rago_serving_sim::iterative::{simulate, simulate_with, IterativeDecodeParams, TriggerTable};
///
/// let params = |decode_batch| IterativeDecodeParams {
///     decode_batch,
///     iterative_batch: 4,
///     decode_len: 64,
///     retrievals_per_sequence: 2,
///     step_latency_s: 1e-3,
///     retrieval_prefix_latency_s: 0.01,
///     seed: 9,
/// };
/// // One table drawn for the largest batch serves every smaller one.
/// let table = TriggerTable::draw(9, 64, 2, 16);
/// for decode_batch in [1, 8, 16] {
///     assert_eq!(simulate_with(params(decode_batch), &table), simulate(params(decode_batch)));
/// }
/// ```
pub fn simulate_with(
    params: IterativeDecodeParams,
    triggers: &TriggerTable,
) -> IterativeDecodeResult {
    let p = params;
    assert!(p.decode_batch > 0, "decode_batch must be at least 1");
    assert!(p.decode_len > 0, "decode_len must be at least 1");
    assert!(p.step_latency_s > 0.0, "step_latency_s must be positive");
    assert!(
        p.retrievals_per_sequence == 0 || p.iterative_batch > 0,
        "iterative_batch must be at least 1 when retrievals are issued"
    );
    assert!(
        triggers.fits(&p),
        "trigger table does not fit the simulation: drawn for another seed, \
         decode length or retrieval count, or fewer rows than the decode batch"
    );
    let spec = PipelineSpec::decode_only(
        DecodeSpec::new(
            p.decode_batch,
            LatencyTable::constant(p.decode_batch, p.step_latency_s),
        ),
        Some(IterativeSpec {
            retrievals_per_sequence: p.retrievals_per_sequence,
            iterative_batch: p.iterative_batch,
            retrieval_prefix_latency_s: p.retrieval_prefix_latency_s,
            seed: p.seed,
        }),
    );
    // One bucket is enough: the sink tracks the mean, the maximum and the
    // makespan exactly, outside the buckets, and nothing else is read.
    let one_bucket = HistogramSpec {
        bucket_width_s: 1.0,
        max_buckets: 1,
    };
    let mode = MetricsMode::Streaming(StreamingConfig::new(one_bucket));
    let mut sim = ReplicaSim::new(spec, &mode);
    for id in 0..p.decode_batch {
        let request = EngineRequest {
            id: u64::from(id),
            arrival_s: 0.0,
            prefix_tokens: 0,
            decode_tokens: p.decode_len,
            class: 0,
            identity: None,
        };
        sim.inject_at_positions(request, triggers.row(id));
    }
    sim.run_to_completion();
    let RunSink::Streaming(sink) = sim.finish().sink else {
        unreachable!("a streaming replica retires into a streaming sink")
    };
    let m = sink.into_report().metrics;
    IterativeDecodeResult {
        total_time_s: m.makespan_s,
        tpot_mean_s: m.tpot.mean_s,
        tpot_worst_s: m.tpot.max_s,
        normalized_decode_latency: m.makespan_s / (f64::from(p.decode_len) * p.step_latency_s),
        retrieval_batches: m.retrieval_batches,
        mean_retrieval_batch_fill: m.mean_retrieval_batch_fill,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_params() -> IterativeDecodeParams {
        IterativeDecodeParams {
            decode_batch: 64,
            iterative_batch: 16,
            decode_len: 256,
            retrievals_per_sequence: 4,
            step_latency_s: 5e-3,
            retrieval_prefix_latency_s: 0.05,
            seed: 42,
        }
    }

    #[test]
    fn no_retrievals_means_no_slowdown() {
        let params = IterativeDecodeParams {
            retrievals_per_sequence: 0,
            ..base_params()
        };
        let r = simulate(params);
        assert!((r.normalized_decode_latency - 1.0).abs() < 1e-9);
        assert_eq!(r.retrieval_batches, 0);
        assert!((r.total_time_s - 256.0 * 5e-3).abs() < 1e-9);
    }

    #[test]
    fn zero_latency_retrievals_still_cost_time_through_batching() {
        // Figure 10: even with instantaneous retrieval + prefix, waiting for
        // the iterative batch to fill slows decoding down.
        let params = IterativeDecodeParams {
            retrieval_prefix_latency_s: 0.0,
            iterative_batch: 64,
            ..base_params()
        };
        let r = simulate(params);
        assert!(
            r.normalized_decode_latency > 1.5,
            "expected substantial idleness, got {}",
            r.normalized_decode_latency
        );
        // With a tiny iterative batch the slowdown (idleness only) vanishes.
        let fast = simulate(IterativeDecodeParams {
            retrieval_prefix_latency_s: 0.0,
            iterative_batch: 1,
            ..base_params()
        });
        assert!(fast.normalized_decode_latency < 1.05);
        assert!(fast.normalized_decode_latency < r.normalized_decode_latency);
    }

    #[test]
    fn tpot_grows_with_retrieval_frequency() {
        let mut last = 0.0;
        for freq in [1u32, 2, 4, 8] {
            let r = simulate(IterativeDecodeParams {
                retrievals_per_sequence: freq,
                iterative_batch: 16,
                ..base_params()
            });
            assert!(
                r.tpot_worst_s >= last,
                "TPOT not monotone in retrieval frequency at {freq}"
            );
            last = r.tpot_worst_s;
        }
    }

    #[test]
    fn every_sequence_finishes_and_every_retrieval_is_served() {
        let params = base_params();
        let r = simulate(params);
        // 64 sequences x 4 retrievals = 256 requests; with a batch of 16 that
        // is at least 16 dispatches (more if partially filled at the tail).
        assert!(r.retrieval_batches >= 16);
        assert!(r.mean_retrieval_batch_fill <= 16.0);
        assert!(r.mean_retrieval_batch_fill > 0.0);
        assert!(r.total_time_s >= 256.0 * 5e-3);
        assert!(r.tpot_worst_s >= r.tpot_mean_s);
    }

    #[test]
    fn matching_decode_and_iterative_batch_is_pathological() {
        // Figure 10b's diagonal: when the iterative batch equals the decode
        // batch, almost every sequence must pause before any retrieval is
        // dispatched, inflating latency well beyond a small-batch policy.
        let equal = simulate(IterativeDecodeParams {
            iterative_batch: 64,
            retrieval_prefix_latency_s: 0.0,
            ..base_params()
        });
        let small = simulate(IterativeDecodeParams {
            iterative_batch: 4,
            retrieval_prefix_latency_s: 0.0,
            ..base_params()
        });
        assert!(equal.normalized_decode_latency > small.normalized_decode_latency * 1.3);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = simulate(base_params());
        let b = simulate(base_params());
        assert_eq!(a, b);
        let c = simulate(IterativeDecodeParams {
            seed: 43,
            ..base_params()
        });
        assert!((a.total_time_s - c.total_time_s).abs() > 0.0 || a == c);
    }

    #[test]
    fn retrieval_latency_adds_to_tpot_at_large_batches() {
        let slow = simulate(IterativeDecodeParams {
            retrieval_prefix_latency_s: 0.2,
            ..base_params()
        });
        let fast = simulate(IterativeDecodeParams {
            retrieval_prefix_latency_s: 0.01,
            ..base_params()
        });
        assert!(slow.tpot_worst_s > fast.tpot_worst_s);
    }

    #[test]
    fn a_full_stall_idles_every_paused_sequence_for_the_whole_jump() {
        // Both sequences pause at token 1 (t = 1 s); their batch returns at
        // t = 11 s and both finish at t = 12 s, idle for the 10 s between.
        let r = simulate(IterativeDecodeParams {
            decode_batch: 2,
            iterative_batch: 2,
            decode_len: 2,
            retrievals_per_sequence: 1,
            step_latency_s: 1.0,
            retrieval_prefix_latency_s: 10.0,
            seed: 0,
        });
        assert_eq!(r.total_time_s, 12.0);
        assert_eq!(r.tpot_mean_s, 6.0);
        assert_eq!(r.tpot_worst_s, 6.0);
        assert_eq!(r.retrieval_batches, 1);
        assert_eq!(r.mean_retrieval_batch_fill, 2.0);
    }

    #[test]
    #[should_panic(expected = "trigger table does not fit the simulation")]
    fn simulate_with_rejects_a_table_that_does_not_fit() {
        let p = base_params();
        let short = TriggerTable::draw(p.seed, p.decode_len, p.retrievals_per_sequence, 63);
        simulate_with(p, &short);
    }

    #[test]
    fn each_invalid_input_panics_with_its_message() {
        let cases = [
            (
                IterativeDecodeParams {
                    decode_batch: 0,
                    ..base_params()
                },
                "decode_batch must be at least 1",
            ),
            (
                IterativeDecodeParams {
                    decode_len: 0,
                    ..base_params()
                },
                "decode_len must be at least 1",
            ),
            (
                IterativeDecodeParams {
                    step_latency_s: 0.0,
                    ..base_params()
                },
                "step_latency_s must be positive",
            ),
            (
                IterativeDecodeParams {
                    iterative_batch: 0,
                    ..base_params()
                },
                "iterative_batch must be at least 1 when retrievals are issued",
            ),
        ];
        for (params, expected) in cases {
            let payload = std::panic::catch_unwind(|| simulate(params))
                .expect_err(&format!("{params:?} was accepted"));
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or_default();
            assert_eq!(message, expected, "{params:?}");
        }
    }
}
