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

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

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
    /// Fraction of sequence-steps lost to waiting (paused while the decoder
    /// was stepping other sequences or idle).
    pub idle_fraction: f64,
}

/// The retrieval trigger positions of the first `rows` sequences of every
/// simulation with one seed, decode length and retrieval count.
///
/// Sequence `i` draws its positions from the seed's RNG stream after
/// sequences `0..i` drew theirs, so they depend only on those three
/// parameters and on `i`, never on the decode batch. One table therefore
/// serves every decode batch up to its row count: a simulation of batch
/// `B` reads the first `B` rows, and gets exactly the positions
/// [`IterativeDecodeSim::run`] would draw for itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TriggerTable {
    seed: u64,
    decode_len: u32,
    retrievals_per_sequence: u32,
    rows: u32,
    /// Positions per row: `min(retrievals_per_sequence, decode_len - 1)`.
    stride: usize,
    /// Row `i` is `positions[i * stride..(i + 1) * stride]`, ascending.
    positions: Vec<u32>,
}

impl TriggerTable {
    /// Draws the positions of the first `rows` sequences of every
    /// simulation with `params`' seed, decode length and retrieval count.
    /// `params.decode_batch` is not read.
    pub fn draw(params: &IterativeDecodeParams, rows: u32) -> Self {
        let stride = params
            .retrievals_per_sequence
            .min(params.decode_len.saturating_sub(1)) as usize;
        let mut positions = Vec::with_capacity(stride * rows as usize);
        if stride > 0 {
            let mut rng = StdRng::seed_from_u64(params.seed);
            for _ in 0..rows {
                positions.extend(sample_positions(
                    &mut rng,
                    params.decode_len,
                    params.retrievals_per_sequence,
                ));
            }
        }
        Self {
            seed: params.seed,
            decode_len: params.decode_len,
            retrievals_per_sequence: params.retrievals_per_sequence,
            rows,
            stride,
            positions,
        }
    }

    /// Whether a simulation of `params` can read its positions from this
    /// table: it was drawn for the same seed, decode length and retrieval
    /// count, and holds a row for every sequence of the decode batch.
    pub fn fits(&self, params: &IterativeDecodeParams) -> bool {
        self.seed == params.seed
            && self.decode_len == params.decode_len
            && self.retrievals_per_sequence == params.retrievals_per_sequence
            && self.rows >= params.decode_batch
    }

    fn row(&self, i: usize) -> &[u32] {
        &self.positions[i * self.stride..(i + 1) * self.stride]
    }
}

#[derive(Debug, Clone)]
struct Sequence<'t> {
    /// Token positions (1-based) at which this sequence issues a retrieval.
    retrieval_positions: &'t [u32],
    /// Tokens generated so far.
    generated: u32,
    /// Index of the next retrieval position to trigger.
    next_retrieval: usize,
    /// Whether the sequence is waiting for a retrieval to complete.
    paused: bool,
    /// Wall-clock time at which the sequence finished (if it has).
    finish_time: Option<f64>,
    /// Steps this sequence spent neither decoding nor finished.
    waited_steps: f64,
}

/// The iterative-decode simulator. See the module documentation.
#[derive(Debug, Clone)]
pub struct IterativeDecodeSim {
    params: IterativeDecodeParams,
}

impl IterativeDecodeSim {
    /// Creates a simulator for the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if the decode batch, decode length, or step latency is zero, or
    /// if the iterative batch is zero while retrievals are requested.
    pub fn new(params: IterativeDecodeParams) -> Self {
        assert!(params.decode_batch > 0, "decode_batch must be at least 1");
        assert!(params.decode_len > 0, "decode_len must be at least 1");
        assert!(
            params.step_latency_s > 0.0,
            "step_latency_s must be positive"
        );
        assert!(
            params.retrievals_per_sequence == 0 || params.iterative_batch > 0,
            "iterative_batch must be at least 1 when retrievals are issued"
        );
        Self { params }
    }

    /// Runs the simulation to completion and returns the aggregate metrics.
    ///
    /// # Examples
    ///
    /// ```
    /// use rago_serving_sim::iterative::{IterativeDecodeParams, IterativeDecodeSim};
    ///
    /// // Without mid-generation retrievals decoding is unobstructed.
    /// let result = IterativeDecodeSim::new(IterativeDecodeParams {
    ///     decode_batch: 8,
    ///     iterative_batch: 4,
    ///     decode_len: 32,
    ///     retrievals_per_sequence: 0,
    ///     step_latency_s: 1e-3,
    ///     retrieval_prefix_latency_s: 0.05,
    ///     seed: 0,
    /// })
    /// .run();
    /// assert!((result.normalized_decode_latency - 1.0).abs() < 1e-9);
    /// assert_eq!(result.retrieval_batches, 0);
    /// ```
    pub fn run(&self) -> IterativeDecodeResult {
        self.run_with(&TriggerTable::draw(&self.params, self.params.decode_batch))
    }

    /// As [`Self::run`], reading the trigger positions from `triggers`
    /// instead of drawing them. The result is bit-identical to
    /// [`Self::run`]'s.
    ///
    /// # Panics
    ///
    /// Panics unless [`TriggerTable::fits`] the parameters: the table was
    /// drawn for another seed, decode length or retrieval count, or holds
    /// fewer rows than the decode batch.
    pub fn run_with(&self, triggers: &TriggerTable) -> IterativeDecodeResult {
        let p = self.params;
        assert!(
            triggers.fits(&p),
            "trigger table does not fit the simulation: drawn for another seed, \
             decode length or retrieval count, or fewer rows than the decode batch"
        );
        let mut sequences: Vec<Sequence> = (0..p.decode_batch as usize)
            .map(|i| Sequence {
                retrieval_positions: triggers.row(i),
                generated: 0,
                next_retrieval: 0,
                paused: false,
                finish_time: None,
                waited_steps: 0.0,
            })
            .collect();

        let iterative_batch = p.iterative_batch as usize;
        let mut now = 0.0f64;
        // Sequences with a retrieval outstanding, in request order. Batches
        // are dispatched from the front of the queue and all take the same
        // latency from a non-decreasing `now`, so they complete in dispatch
        // order: the in-flight batches are consecutive runs at the front of
        // `requests`, and the last `queued` entries await dispatch. A
        // sequence has at most one retrieval outstanding, so neither queue
        // outgrows the decode batch.
        let mut requests: VecDeque<usize> = VecDeque::with_capacity(sequences.len());
        let mut queued = 0usize;
        // (completion time, size) of each in-flight batch, in dispatch order.
        let mut in_flight: VecDeque<(f64, usize)> = VecDeque::with_capacity(sequences.len());
        // Indices of unfinished sequences, ascending. Those in `requests`
        // are paused; the rest are active.
        let mut unfinished: Vec<usize> = (0..sequences.len()).collect();
        let mut retrieval_batches = 0u32;
        let mut total_fill = 0u64;

        loop {
            // Resume sequences whose retrieval has completed by `now`.
            while let Some(&(done_at, size)) = in_flight.front() {
                if done_at > now + 1e-12 {
                    break;
                }
                in_flight.pop_front();
                for idx in requests.drain(..size) {
                    sequences[idx].paused = false;
                }
            }
            if unfinished.is_empty() {
                break;
            }
            let active = unfinished.len() - requests.len();

            // Dispatch every full retrieval batch, or the partial remainder
            // when nothing can make progress otherwise (avoids deadlock at
            // the tail).
            let dispatch_partial = queued > 0 && active == 0 && in_flight.is_empty();
            if (queued > 0 && queued >= iterative_batch) || dispatch_partial {
                let batch = queued.min(iterative_batch);
                for _ in 0..queued / batch {
                    retrieval_batches += 1;
                    total_fill += batch as u64;
                    in_flight.push_back((now + p.retrieval_prefix_latency_s, batch));
                }
                queued %= batch;
                continue;
            }

            if active == 0 {
                // Jump to the next retrieval completion.
                if let Some(&(next, _)) = in_flight.front() {
                    // Everything unfinished is paused for the whole jump.
                    let skipped_steps = (next - now) / p.step_latency_s;
                    for &i in &unfinished {
                        sequences[i].waited_steps += skipped_steps;
                    }
                    now = next;
                    continue;
                }
                // No active sequences, nothing in flight, queue empty: done.
                break;
            }

            // Execute one decode step: paused sequences wait, active ones
            // generate a token and may pause for a retrieval or finish.
            now += p.step_latency_s;
            unfinished.retain(|&i| {
                let seq = &mut sequences[i];
                if seq.paused {
                    seq.waited_steps += 1.0;
                    return true;
                }
                seq.generated += 1;
                // Trigger a retrieval when the sequence reaches its next
                // retrieval position (and has not finished).
                if seq.next_retrieval < seq.retrieval_positions.len()
                    && seq.generated == seq.retrieval_positions[seq.next_retrieval]
                    && seq.generated < p.decode_len
                {
                    seq.next_retrieval += 1;
                    seq.paused = true;
                    requests.push_back(i);
                    queued += 1;
                }
                if seq.generated >= p.decode_len {
                    seq.finish_time = Some(now);
                    return false;
                }
                true
            });
        }

        let total_time = sequences
            .iter()
            .map(|s| s.finish_time.unwrap_or(now))
            .fold(0.0f64, f64::max);
        let tpots: Vec<f64> = sequences
            .iter()
            .map(|s| s.finish_time.unwrap_or(now) / f64::from(p.decode_len))
            .collect();
        let tpot_mean = tpots.iter().sum::<f64>() / tpots.len() as f64;
        let tpot_worst = tpots.iter().fold(0.0f64, |a, &b| a.max(b));
        let baseline = f64::from(p.decode_len) * p.step_latency_s;
        let total_possible_steps =
            f64::from(p.decode_batch) * (total_time / p.step_latency_s).max(1.0);
        let waited: f64 = sequences.iter().map(|s| s.waited_steps).sum();

        IterativeDecodeResult {
            total_time_s: total_time,
            tpot_mean_s: tpot_mean,
            tpot_worst_s: tpot_worst,
            normalized_decode_latency: total_time / baseline,
            retrieval_batches,
            mean_retrieval_batch_fill: if retrieval_batches == 0 {
                0.0
            } else {
                total_fill as f64 / f64::from(retrieval_batches)
            },
            idle_fraction: (waited / total_possible_steps).clamp(0.0, 1.0),
        }
    }
}

/// Samples `count` distinct retrieval positions uniformly from
/// `[1, decode_len - 1]`, sorted ascending (retrievals never trigger on the
/// final token — there is nothing left to generate). Draws nothing from
/// `rng` when `count` is zero or `decode_len` at most 1.
///
/// [`TriggerTable::draw`] calls it once per row and the request-level
/// engine ([`crate::engine`]) once per request, so both simulators draw
/// identical trigger positions from the same seed — the basis of the
/// degenerate-case equivalence between them.
pub(crate) fn sample_positions(rng: &mut StdRng, decode_len: u32, count: u32) -> Vec<u32> {
    if count == 0 || decode_len <= 1 {
        return Vec::new();
    }
    let mut candidates: Vec<u32> = (1..decode_len).collect();
    candidates.shuffle(rng);
    let take = (count as usize).min(candidates.len());
    let mut positions = candidates[..take].to_vec();
    positions.sort_unstable();
    positions
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
        let r = IterativeDecodeSim::new(params).run();
        assert!((r.normalized_decode_latency - 1.0).abs() < 1e-9);
        assert_eq!(r.retrieval_batches, 0);
        assert!((r.total_time_s - 256.0 * 5e-3).abs() < 1e-9);
        assert!(r.idle_fraction < 1e-9);
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
        let r = IterativeDecodeSim::new(params).run();
        assert!(
            r.normalized_decode_latency > 1.5,
            "expected substantial idleness, got {}",
            r.normalized_decode_latency
        );
        // With a tiny iterative batch the slowdown (idleness only) vanishes.
        let fast = IterativeDecodeSim::new(IterativeDecodeParams {
            retrieval_prefix_latency_s: 0.0,
            iterative_batch: 1,
            ..base_params()
        })
        .run();
        assert!(fast.normalized_decode_latency < 1.05);
        assert!(fast.normalized_decode_latency < r.normalized_decode_latency);
    }

    #[test]
    fn tpot_grows_with_retrieval_frequency() {
        let mut last = 0.0;
        for freq in [1u32, 2, 4, 8] {
            let r = IterativeDecodeSim::new(IterativeDecodeParams {
                retrievals_per_sequence: freq,
                iterative_batch: 16,
                ..base_params()
            })
            .run();
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
        let r = IterativeDecodeSim::new(params).run();
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
        let equal = IterativeDecodeSim::new(IterativeDecodeParams {
            iterative_batch: 64,
            retrieval_prefix_latency_s: 0.0,
            ..base_params()
        })
        .run();
        let small = IterativeDecodeSim::new(IterativeDecodeParams {
            iterative_batch: 4,
            retrieval_prefix_latency_s: 0.0,
            ..base_params()
        })
        .run();
        assert!(equal.normalized_decode_latency > small.normalized_decode_latency * 1.3);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = IterativeDecodeSim::new(base_params()).run();
        let b = IterativeDecodeSim::new(base_params()).run();
        assert_eq!(a, b);
        let c = IterativeDecodeSim::new(IterativeDecodeParams {
            seed: 43,
            ..base_params()
        })
        .run();
        assert!((a.total_time_s - c.total_time_s).abs() > 0.0 || a == c);
    }

    #[test]
    fn retrieval_latency_adds_to_tpot_at_large_batches() {
        let slow = IterativeDecodeSim::new(IterativeDecodeParams {
            retrieval_prefix_latency_s: 0.2,
            ..base_params()
        })
        .run();
        let fast = IterativeDecodeSim::new(IterativeDecodeParams {
            retrieval_prefix_latency_s: 0.01,
            ..base_params()
        })
        .run();
        assert!(slow.tpot_worst_s > fast.tpot_worst_s);
    }

    #[test]
    fn a_full_stall_idles_every_paused_sequence_for_the_whole_jump() {
        // Both sequences pause at token 1 (t = 1 s); their batch returns at
        // t = 11 s and both finish at t = 12 s. Each waits 10 steps: 20 of
        // the 2 x 12 sequence-steps are idle.
        let r = IterativeDecodeSim::new(IterativeDecodeParams {
            decode_batch: 2,
            iterative_batch: 2,
            decode_len: 2,
            retrievals_per_sequence: 1,
            step_latency_s: 1.0,
            retrieval_prefix_latency_s: 10.0,
            seed: 0,
        })
        .run();
        assert_eq!(r.total_time_s, 12.0);
        assert_eq!(r.retrieval_batches, 1);
        assert!((r.idle_fraction - 20.0 / 24.0).abs() < 1e-12, "{r:?}");
    }

    #[test]
    fn sample_positions_are_sorted_unique_and_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let pos = sample_positions(&mut rng, 256, 8);
        assert_eq!(pos.len(), 8);
        for w in pos.windows(2) {
            assert!(w[1] > w[0]);
        }
        assert!(pos.iter().all(|&p| (1..256).contains(&p)));
        assert!(sample_positions(&mut rng, 1, 5).is_empty());
        assert!(sample_positions(&mut rng, 256, 0).is_empty());
    }

    #[test]
    fn run_with_rejects_a_table_that_does_not_fit() {
        let params = base_params();
        let sim = IterativeDecodeSim::new(params);
        assert_eq!(sim.run_with(&TriggerTable::draw(&params, 64)), sim.run());
        let misfits = [
            TriggerTable::draw(&params, 63),
            TriggerTable::draw(&IterativeDecodeParams { seed: 43, ..params }, 64),
            TriggerTable::draw(
                &IterativeDecodeParams {
                    decode_len: 255,
                    ..params
                },
                64,
            ),
            TriggerTable::draw(
                &IterativeDecodeParams {
                    retrievals_per_sequence: 3,
                    ..params
                },
                64,
            ),
        ];
        for table in misfits {
            assert!(!table.fits(&params));
            let run = std::panic::catch_unwind(|| sim.run_with(&table));
            assert!(run.is_err(), "a misfit table was read: {table:?}");
        }
    }

    #[test]
    #[should_panic(expected = "decode_batch")]
    fn zero_batch_panics() {
        let _ = IterativeDecodeSim::new(IterativeDecodeParams {
            decode_batch: 0,
            ..base_params()
        });
    }
}
