//! Benches of the RAGO schedule search (Algorithm 1) at different grid
//! granularities, plus the headline comparison of the streaming / parallel /
//! memoized search against the serial unmemoized reference on the paper's
//! default grid.
//!
//! The headline comparison also writes `BENCH_optimizer.json` at the
//! workspace root (schedules/sec for each path and the speedup), so future
//! changes can track the search-throughput trajectory. Its `case3_iterative`
//! section times a cold Case III search, where candidates are scored with
//! a decode-stall simulation, memoized and unmemoized, and counts the
//! simulations the memoized search runs against the distinct simulation
//! inputs its candidates reach. Asking for every reached input again must
//! simulate exactly the ones the search skipped: the
//! `iterative_sims_equal_simulated_inputs` flag is the exact check that no
//! input is simulated twice. The `case3_stall_bound_simulates_fewer` flag
//! checks that the search, which simulates only the stalls behind the
//! points it keeps, runs fewer simulations than there are inputs. Its
//! `case4_rewriter_reranker` section times a cold Case IV search, about a
//! million candidates and no simulator, on the parallel path and on one
//! thread scoring straight against the profiler, and checks that the cold
//! search computed each stage profile once: the
//! `profile_misses_equal_cached_profiles` flag. Every row also gives the
//! candidates the search scored beside the feasible ones it covered
//! (`scored_schedules`, `evaluated_schedules`): the search drops the decode
//! choices another one beats, and the `case4_decode_cut_scores_fewer` flag
//! checks that Case IV scores fewer than it covers. Set `RAGO_BENCH_QUICK=1`
//! for a CI-friendly quick mode (fewer samples, the coarse grid for Case
//! III and the medium grid for Case IV, same JSON).

use criterion::{criterion_group, criterion_main, Criterion};
use rago_core::{ParetoAccumulator, ParetoPoint, Rago, SearchOptions};
use rago_hardware::ClusterSpec;
use rago_schema::presets::{self, LlmSize};
use rago_serving_sim::iterative::IterativeDecodeParams;
use std::collections::HashSet;
use std::time::Instant;

fn bench_search(c: &mut Criterion) {
    let cluster = ClusterSpec::paper_default();

    let case1 = Rago::new(presets::case1_hyperscale(LlmSize::B8, 1), cluster.clone());
    c.bench_function("optimize_case1_fast_grid", |b| {
        b.iter(|| case1.optimize(&SearchOptions::fast()).unwrap())
    });

    let case4 = Rago::new(
        presets::case4_rewriter_reranker(LlmSize::B70),
        cluster.clone(),
    );
    let medium = medium_grid();
    c.bench_function("optimize_case4_medium_grid", |b| {
        b.iter(|| case4.optimize(&medium).unwrap())
    });

    let case2 = Rago::new(
        presets::case2_long_context(LlmSize::B70, 1_000_000),
        cluster,
    );
    c.bench_function("enumerate_schedules_case2", |b| {
        b.iter(|| case2.schedule_iter(&medium).collect::<Vec<_>>())
    });
}

/// A grid between the coarse and the paper one.
fn medium_grid() -> SearchOptions {
    SearchOptions {
        xpu_steps: vec![4, 16, 64],
        server_steps: vec![32],
        predecode_batch_steps: vec![1, 8, 64],
        decode_batch_steps: vec![128, 512],
        iterative_batch_steps: vec![8],
        placements: None,
    }
}

/// One timed run of a search path: wall-clock seconds and candidate
/// throughput over the full enumerated grid.
struct PathTiming {
    seconds: f64,
    schedules_per_sec: f64,
    evaluated_schedules: usize,
    scored_schedules: usize,
    frontier_len: usize,
}

fn time_path<F: Fn() -> rago_core::ParetoFrontier>(
    grid_candidates: usize,
    runs: usize,
    run: F,
) -> PathTiming {
    let mut best = f64::INFINITY;
    let mut frontier = run(); // warm-up (also primes any memo cache)
    for _ in 0..runs {
        let start = Instant::now();
        frontier = run();
        best = best.min(start.elapsed().as_secs_f64());
    }
    PathTiming {
        seconds: best,
        schedules_per_sec: grid_candidates as f64 / best,
        evaluated_schedules: frontier.evaluated_schedules,
        scored_schedules: frontier.scored_schedules,
        frontier_len: frontier.len(),
    }
}

fn json_path_entry(name: &str, t: &PathTiming) -> String {
    format!(
        "  \"{name}\": {{\n    \"seconds\": {:.6},\n    \"schedules_per_sec\": {:.1},\n    \"evaluated_schedules\": {},\n    \"scored_schedules\": {},\n    \"frontier_len\": {}\n  }}",
        t.seconds, t.schedules_per_sec, t.evaluated_schedules, t.scored_schedules, t.frontier_len
    )
}

/// The distinct decode-stall inputs the feasible candidates of `options`
/// reach, with the latencies compared by bit pattern. A fresh optimizer
/// evaluates them, so the searched one's counters stay put.
fn distinct_stall_inputs(options: &SearchOptions) -> Vec<IterativeDecodeParams> {
    let rago = Rago::new(
        presets::case3_iterative(LlmSize::B8, 4),
        ClusterSpec::paper_default(),
    );
    let profiler = rago.profiler();
    let mut seen = HashSet::new();
    rago.schedule_iter(options)
        .filter(|s| s.evaluate(profiler).is_ok())
        .filter_map(|s| s.decode_stall_params(profiler).ok().flatten())
        .filter(|p| {
            seen.insert((
                p.decode_batch,
                p.iterative_batch,
                p.decode_len,
                p.retrievals_per_sequence,
                p.step_latency_s.to_bits(),
                p.retrieval_prefix_latency_s.to_bits(),
                p.seed,
            ))
        })
        .collect()
}

/// The Case III section of `BENCH_optimizer.json`: a cold search (fresh
/// profiler per run, so the memo is paid for inside the timing) with and
/// without memoization, and the memoized search's simulation count against
/// the distinct inputs of the grid and against a replay of them.
fn case3_section(runs: usize) -> String {
    let (grid, options) = if rago_bench::quick_mode() {
        ("coarse", SearchOptions::fast())
    } else {
        ("paper", SearchOptions::paper_default())
    };
    let cold = |memoize: bool| {
        Rago::new(
            presets::case3_iterative(LlmSize::B8, 4),
            ClusterSpec::paper_default(),
        )
        .with_memoization(memoize)
    };
    let best_cold_seconds = |memoize: bool| {
        (0..runs)
            .map(|_| {
                let rago = cold(memoize);
                let start = Instant::now();
                rago.optimize(&options).expect("case3 search succeeds");
                start.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let memoized_seconds = best_cold_seconds(true);
    let unmemoized_seconds = best_cold_seconds(false);

    let rago = cold(true);
    let candidates = rago.schedule_iter(&options).count();
    let frontier = rago.optimize(&options).expect("case3 search succeeds");
    let (_, iterative_sims) = rago.profiler().decode_stall_stats();
    let inputs = distinct_stall_inputs(&options);
    let distinct_inputs = inputs.len() as u64;
    // Ask for every reached input again: the memo simulates exactly those
    // the search skipped, so the search simulated none twice.
    for params in &inputs {
        rago.profiler().decode_stall(*params);
    }
    let (_, replayed) = rago.profiler().decode_stall_stats();
    let skipped = replayed - iterative_sims;
    println!(
        "case3 {grid} grid: {candidates} candidates, {iterative_sims} decode-stall simulations \
         for {distinct_inputs} distinct inputs ({skipped} skipped); cold search \
         {memoized_seconds:.3}s memoized vs {unmemoized_seconds:.3}s unmemoized"
    );
    format!(
        "  \"case3_iterative\": {{\n    \"grid\": \"{grid}\",\n    \"candidates\": {candidates},\n    \"evaluated_schedules\": {},\n    \"scored_schedules\": {},\n    \"frontier_len\": {},\n    \"iterative_sims\": {iterative_sims},\n    \"distinct_inputs\": {distinct_inputs},\n    \"memoized_seconds\": {memoized_seconds:.6},\n    \"unmemoized_seconds\": {unmemoized_seconds:.6},\n    \"memo_speedup\": {:.2},\n    \"iterative_sims_equal_simulated_inputs\": {},\n    \"case3_stall_bound_simulates_fewer\": {}\n  }}",
        frontier.evaluated_schedules,
        frontier.scored_schedules,
        frontier.len(),
        unmemoized_seconds / memoized_seconds,
        distinct_inputs.checked_sub(skipped) == Some(iterative_sims),
        iterative_sims < distinct_inputs,
    )
}

/// The Case IV section of `BENCH_optimizer.json`: the best of `runs` cold
/// searches (fresh profiler per run) on the parallel path and on one thread
/// that scores every candidate straight against the profiler, and the
/// parallel search's stage-profile misses against the profiles it cached.
fn case4_section(runs: usize) -> String {
    let (grid, options) = if rago_bench::quick_mode() {
        ("medium", medium_grid())
    } else {
        ("paper", SearchOptions::paper_default())
    };
    let cold = || {
        Rago::new(
            presets::case4_rewriter_reranker(LlmSize::B8),
            ClusterSpec::paper_default(),
        )
    };
    let serial_search = |rago: &Rago| {
        let mut acc = ParetoAccumulator::new();
        for schedule in rago.schedule_iter(&options) {
            if let Ok(performance) = schedule.evaluate(rago.profiler()) {
                acc.push(ParetoPoint {
                    schedule,
                    performance,
                });
            }
        }
        acc.into_frontier()
    };
    let best_cold_seconds = |search: &dyn Fn(&Rago) -> rago_core::ParetoFrontier| {
        (0..runs)
            .map(|_| {
                let rago = cold();
                let start = Instant::now();
                search(&rago);
                start.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let parallel_seconds =
        best_cold_seconds(&|rago| rago.optimize(&options).expect("case4 search succeeds"));
    let serial_seconds = best_cold_seconds(&serial_search);

    let rago = cold();
    let frontier = rago.optimize(&options).expect("case4 search succeeds");
    let (_, profile_misses) = rago.profiler().memo_stats();
    let cached_profiles = rago.profiler().cached_profiles();
    assert_eq!(
        frontier,
        serial_search(&cold()),
        "the parallel Case IV frontier left the serial one"
    );
    let candidates = rago.schedule_iter(&options).count();
    let threads = rayon::current_num_threads();
    println!(
        "case4 {grid} grid: {candidates} candidates, {} scored, {profile_misses} stage-profile \
         misses for {cached_profiles} cached profiles; cold search {parallel_seconds:.3}s on \
         {threads} threads vs {serial_seconds:.3}s on one",
        frontier.scored_schedules
    );
    format!(
        "  \"case4_rewriter_reranker\": {{\n    \"grid\": \"{grid}\",\n    \"candidates\": {candidates},\n    \"evaluated_schedules\": {},\n    \"scored_schedules\": {},\n    \"frontier_len\": {},\n    \"profile_misses\": {profile_misses},\n    \"cached_profiles\": {cached_profiles},\n    \"threads\": {threads},\n    \"parallel_seconds\": {parallel_seconds:.6},\n    \"serial_seconds\": {serial_seconds:.6},\n    \"parallel_speedup\": {:.2},\n    \"profile_misses_equal_cached_profiles\": {},\n    \"case4_decode_cut_scores_fewer\": {}\n  }}",
        frontier.evaluated_schedules,
        frontier.scored_schedules,
        frontier.len(),
        serial_seconds / parallel_seconds,
        profile_misses == cached_profiles as u64,
        frontier.scored_schedules < frontier.evaluated_schedules,
    )
}

/// The acceptance benchmark: `optimize(paper_default)` on the case-1
/// hyperscale preset — streaming + parallel + memoized — against the serial
/// unmemoized path the optimizer used to be.
fn bench_paper_grid_speedup(c: &mut Criterion) {
    let options = SearchOptions::paper_default();
    let cluster = ClusterSpec::paper_default();
    let schema = presets::case1_hyperscale(LlmSize::B8, 1);

    let optimized = Rago::new(schema.clone(), cluster.clone());
    let baseline = Rago::new(schema, cluster).with_memoization(false);
    let grid_candidates = optimized.schedule_iter(&options).count();
    let runs = if rago_bench::quick_mode() { 1 } else { 3 };

    let parallel_memoized = time_path(grid_candidates, runs, || {
        optimized.optimize(&options).expect("case1 search succeeds")
    });
    let serial_memoized = time_path(grid_candidates, runs, || {
        optimized
            .optimize_serial(&options)
            .expect("case1 search succeeds")
    });
    let serial_unmemoized = time_path(grid_candidates, runs, || {
        baseline
            .optimize_serial(&options)
            .expect("case1 search succeeds")
    });

    let speedup = serial_unmemoized.seconds / parallel_memoized.seconds;
    let json = format!(
        "{{\n  \"bench\": \"optimizer_search/paper_grid_case1_hyperscale\",\n  \"grid_candidates\": {grid_candidates},\n  \"threads\": {},\n  \"distinct_stage_profiles\": {},\n{},\n{},\n{},\n  \"speedup_vs_serial_unmemoized\": {:.2},\n{},\n{}\n}}\n",
        rayon::current_num_threads(),
        optimized.profiler().cached_profiles(),
        json_path_entry("parallel_memoized", &parallel_memoized),
        json_path_entry("serial_memoized", &serial_memoized),
        json_path_entry("serial_unmemoized", &serial_unmemoized),
        speedup,
        case3_section(runs),
        case4_section(runs),
    );
    // The bench runs with the package as CWD; the JSON belongs at the
    // workspace root next to the other tracked reports.
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_optimizer.json");
    match std::fs::write(&out, &json) {
        Ok(()) => println!("wrote {}", out.display()),
        Err(e) => eprintln!("could not write {}: {e}", out.display()),
    }
    println!(
        "paper grid case1: {grid_candidates} candidates; parallel+memoized {:.1} sched/s vs serial unmemoized {:.1} sched/s => {speedup:.1}x",
        parallel_memoized.schedules_per_sec, serial_unmemoized.schedules_per_sec
    );

    // Also expose both paths as regular bench entries.
    c.bench_function("optimize_case1_paper_grid_parallel_memoized", |b| {
        b.iter(|| optimized.optimize(&options).unwrap())
    });
    c.bench_function("optimize_case1_paper_grid_serial_unmemoized", |b| {
        b.iter(|| baseline.optimize_serial(&options).unwrap())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_search, bench_paper_grid_speedup
}
criterion_main!(benches);
