//! The closed-form burst models the replica engine's pre-decode stages
//! are tested against: a burst of requests, all present at t = 0, split
//! into micro-batches that flow through the stages either pipelined (every
//! stage owns a resource) or collocated on one shared resource (Figure 14).
//! `stages[s](b)` is the latency of stage `s` on a batch of `b` requests.

/// Per-request completion statistics of one burst.
pub struct BurstResult {
    /// Completion time of the first micro-batch.
    pub first_completion_s: f64,
    /// Mean completion time across all requests of the burst.
    pub mean_completion_s: f64,
    /// Completion time of the last request.
    pub makespan_s: f64,
}

/// Splits `burst` requests into micro-batches of at most `microbatch`.
fn split(burst: u32, microbatch: u32) -> Vec<u32> {
    let starts = (0..burst).step_by(microbatch as usize);
    starts.map(|start| microbatch.min(burst - start)).collect()
}

/// Every stage has its own resource and processes micro-batches in order,
/// overlapping with the other stages.
pub fn pipelined_burst<F: Fn(u32) -> f64>(
    stages: &[F],
    burst: u32,
    microbatch: u32,
) -> BurstResult {
    // stage_free[s] is when stage s finishes its previous micro-batch.
    let mut stage_free = vec![0.0f64; stages.len()];
    let completions: Vec<(f64, u32)> = split(burst, microbatch)
        .into_iter()
        .map(|size| {
            let mut ready = 0.0f64;
            for (free, latency) in stage_free.iter_mut().zip(stages) {
                ready = ready.max(*free) + latency(size);
                *free = ready;
            }
            (ready, size)
        })
        .collect();
    summarize(&completions)
}

/// All stages share one resource: one (stage, micro-batch) job runs at a
/// time. Among the jobs whose micro-batch has finished its previous stage,
/// the latest stage runs first, then the earliest micro-batch (Figure 14's
/// optimal execution order).
pub fn collocated_burst<F: Fn(u32) -> f64>(
    stages: &[F],
    burst: u32,
    microbatch: u32,
) -> BurstResult {
    let sizes = split(burst, microbatch);
    let num_mb = sizes.len();
    // next_stage[m] is the next stage micro-batch m must execute, and
    // ready_at[m] when it becomes ready for it.
    let mut next_stage = vec![0usize; num_mb];
    let mut ready_at = vec![0.0f64; num_mb];
    let mut completions = vec![(0.0, 0); num_mb];
    let mut now = 0.0f64;
    let mut remaining = num_mb * stages.len();

    while remaining > 0 {
        let candidates: Vec<usize> = (0..num_mb)
            .filter(|&m| next_stage[m] < stages.len() && ready_at[m] <= now + 1e-12)
            .collect();
        if candidates.is_empty() {
            // Advance time to the earliest ready job.
            now = (0..num_mb)
                .filter(|&m| next_stage[m] < stages.len())
                .map(|m| ready_at[m])
                .fold(f64::INFINITY, f64::min);
            continue;
        }
        let &job = candidates
            .iter()
            .max_by(|&&a, &&b| next_stage[a].cmp(&next_stage[b]).then(b.cmp(&a)))
            .expect("candidates is non-empty");
        now += stages[next_stage[job]](sizes[job]);
        next_stage[job] += 1;
        ready_at[job] = now;
        remaining -= 1;
        if next_stage[job] == stages.len() {
            completions[job] = (now, sizes[job]);
        }
    }
    summarize(&completions)
}

/// Summarizes `(completion time, requests)` per micro-batch.
fn summarize(completions: &[(f64, u32)]) -> BurstResult {
    let times = completions.iter().map(|(t, _)| *t);
    let requests: u32 = completions.iter().map(|(_, n)| *n).sum();
    let weighted: f64 = completions.iter().map(|(t, n)| t * f64::from(*n)).sum();
    BurstResult {
        first_completion_s: times.clone().fold(f64::INFINITY, f64::min),
        mean_completion_s: weighted / f64::from(requests),
        makespan_s: times.fold(0.0f64, f64::max),
    }
}
