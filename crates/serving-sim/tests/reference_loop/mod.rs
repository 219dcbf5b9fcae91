//! The step-by-step decode loop the replica engine's iterative retrieval
//! is tested against: an independent oracle for
//! `rago_serving_sim::iterative::simulate` and for one-replica fleet runs
//! of the same configuration.

use rago_serving_sim::iterative::{IterativeDecodeParams, IterativeDecodeResult};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Per-sequence state of [`reference_run`].
struct Sequence {
    retrieval_positions: Vec<u32>,
    generated: u32,
    next_retrieval: usize,
    paused: bool,
    finish_time: Option<f64>,
}

/// The trigger-position draw of the engine, kept here so the oracle also
/// pins the RNG stream: sequence `i` draws after sequences `0..i`.
fn reference_positions(rng: &mut StdRng, decode_len: u32, count: u32) -> Vec<u32> {
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

/// One decode batch with mid-generation retrievals, simulated one decode
/// step at a time: it rebuilds the unfinished and active sets every
/// iteration, scans the in-flight batches for completions, and dispatches
/// one retrieval batch per iteration.
pub fn reference_run(p: IterativeDecodeParams) -> IterativeDecodeResult {
    let mut rng = StdRng::seed_from_u64(p.seed);
    let mut sequences: Vec<Sequence> = (0..p.decode_batch)
        .map(|_| Sequence {
            retrieval_positions: reference_positions(
                &mut rng,
                p.decode_len,
                p.retrievals_per_sequence,
            ),
            generated: 0,
            next_retrieval: 0,
            paused: false,
            finish_time: None,
        })
        .collect();

    let mut now = 0.0f64;
    let mut retrieval_queue: Vec<usize> = Vec::new();
    // (completion_time, sequence indices) of in-flight retrieval batches.
    let mut in_flight: Vec<(f64, Vec<usize>)> = Vec::new();
    let mut retrieval_batches = 0u32;
    let mut total_fill = 0u64;

    loop {
        // Resume sequences whose retrieval has completed by `now`.
        let mut resumed = Vec::new();
        in_flight.retain(|(done_at, seqs)| {
            if *done_at <= now + 1e-12 {
                resumed.extend(seqs.iter().copied());
                false
            } else {
                true
            }
        });
        for idx in resumed {
            sequences[idx].paused = false;
        }

        let unfinished: Vec<usize> = sequences
            .iter()
            .enumerate()
            .filter(|(_, s)| s.finish_time.is_none())
            .map(|(i, _)| i)
            .collect();
        if unfinished.is_empty() {
            break;
        }
        let active: Vec<usize> = unfinished
            .iter()
            .copied()
            .filter(|&i| !sequences[i].paused)
            .collect();

        // Dispatch the retrieval queue when it is full, or when nothing
        // can make progress otherwise (avoids deadlock at the tail).
        let should_dispatch = !retrieval_queue.is_empty()
            && (retrieval_queue.len() >= p.iterative_batch as usize
                || (active.is_empty() && in_flight.is_empty()));
        if should_dispatch {
            let batch: Vec<usize> = retrieval_queue
                .drain(..retrieval_queue.len().min(p.iterative_batch as usize))
                .collect();
            retrieval_batches += 1;
            total_fill += batch.len() as u64;
            in_flight.push((now + p.retrieval_prefix_latency_s, batch));
            continue;
        }

        if active.is_empty() {
            // Jump to the next retrieval completion.
            if let Some(next) = in_flight
                .iter()
                .map(|(t, _)| *t)
                .min_by(|a, b| a.total_cmp(b))
            {
                now = next;
                continue;
            }
            // No active sequences, nothing in flight, queue empty: done.
            break;
        }

        // Execute one decode step for the active sequences.
        now += p.step_latency_s;
        for &i in &active {
            let seq = &mut sequences[i];
            seq.generated += 1;
            // Trigger a retrieval when the sequence reaches its next
            // retrieval position (and has not finished).
            if seq.next_retrieval < seq.retrieval_positions.len()
                && seq.generated == seq.retrieval_positions[seq.next_retrieval]
                && seq.generated < p.decode_len
            {
                seq.next_retrieval += 1;
                seq.paused = true;
                retrieval_queue.push(i);
            }
            if seq.generated >= p.decode_len {
                seq.finish_time = Some(now);
            }
        }
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
    }
}
