//! Generator oracle: the lazy generators (`ArrivalProcess::times`,
//! `TraceSpec::requests`, `MixTraceSpec::requests`) against the eager
//! loops they replaced, kept here verbatim as reference functions. Every
//! request — timestamp, lengths, class — must match bit for bit.

use proptest::prelude::*;
use rago_schema::{SequenceProfile, SloTarget};
use rago_workloads::{
    ArrivalProcess, MixTraceSpec, RateSegment, RequestClass, RequestGenerator, Trace, TraceSpec,
    WorkloadMix,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seed offset of the class-selection RNG stream (`rago_workloads::mix`).
const CLASS_SEED_OFFSET: u64 = 0xC1A5_5EED;

/// The eager `ArrivalProcess::sample` the lazy generator replaced.
fn reference_sample(process: &ArrivalProcess, n: usize, rng: &mut StdRng) -> Vec<f64> {
    match process {
        ArrivalProcess::Poisson { rate_rps } => {
            let rate_rps = *rate_rps;
            assert!(rate_rps > 0.0, "Poisson rate must be positive");
            let mut t = 0.0;
            (0..n)
                .map(|_| {
                    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                    t += -u.ln() / rate_rps;
                    t
                })
                .collect()
        }
        ArrivalProcess::Bursts {
            burst_size,
            period_s,
        } => {
            assert!(*burst_size > 0, "burst size must be at least 1");
            assert!(*period_s > 0.0, "burst period must be positive");
            (0..n)
                .map(|i| (i as u64 / u64::from(*burst_size)) as f64 * *period_s)
                .collect()
        }
        ArrivalProcess::Instantaneous => vec![0.0; n],
        ArrivalProcess::PiecewiseRate { segments } => {
            assert!(
                !segments.is_empty(),
                "a piecewise rate profile needs at least one segment"
            );
            for s in segments {
                if let Err(reason) = s.validate() {
                    panic!("{reason}");
                }
            }
            let total: f64 = segments.iter().map(|s| s.duration_s).sum();
            let rate_max = segments.iter().map(|s| s.rate_rps).fold(0.0f64, f64::max);
            assert!(
                rate_max > 0.0,
                "a piecewise rate profile needs at least one positive-rate segment"
            );
            let rate = move |t: f64| {
                let mut rem = t % total;
                for s in segments {
                    if rem < s.duration_s {
                        return s.rate_rps;
                    }
                    rem -= s.duration_s;
                }
                segments.last().expect("non-empty").rate_rps
            };
            reference_thinned(n, rng, rate_max, rate)
        }
        ArrivalProcess::Diurnal {
            base_rps,
            peak_rps,
            period_s,
        } => {
            let (base, peak, period) = (*base_rps, *peak_rps, *period_s);
            assert!(
                base >= 0.0 && base.is_finite(),
                "diurnal base rate must be non-negative and finite"
            );
            assert!(
                peak >= base && peak > 0.0 && peak.is_finite(),
                "diurnal peak rate must be positive, finite, and at least the base"
            );
            assert!(
                period > 0.0 && period.is_finite(),
                "diurnal period must be positive and finite"
            );
            reference_thinned(n, rng, peak, move |t| {
                base + (peak - base) * 0.5 * (1.0 - (2.0 * std::f64::consts::PI * t / period).cos())
            })
        }
        ArrivalProcess::Spike {
            base_rps,
            spike_rps,
            start_s,
            duration_s,
        } => {
            let (base, spike, start, dur) = (*base_rps, *spike_rps, *start_s, *duration_s);
            // The base must be strictly positive: past the (finite,
            // non-recurring) spike window the rate is `base` forever,
            // and a zero rate there would make thinning reject every
            // candidate once the window closes — an infinite loop, not
            // an error.
            assert!(
                base > 0.0 && base.is_finite() && spike >= 0.0 && spike.is_finite(),
                "the spike base rate must be positive (and both rates finite) \
                 so sampling terminates for any request count"
            );
            assert!(
                start >= 0.0 && start.is_finite() && dur > 0.0 && dur.is_finite(),
                "spike onset must be non-negative and its duration positive"
            );
            reference_thinned(n, rng, base.max(spike), move |t| {
                if t >= start && t < start + dur {
                    spike
                } else {
                    base
                }
            })
        }
    }
}

/// The eager thinning sampler behind [`reference_sample`].
fn reference_thinned(
    n: usize,
    rng: &mut StdRng,
    rate_max: f64,
    rate: impl Fn(f64) -> f64,
) -> Vec<f64> {
    debug_assert!(rate_max > 0.0);
    let mut out = Vec::with_capacity(n);
    let mut t = 0.0f64;
    while out.len() < n {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -u.ln() / rate_max;
        let accept: f64 = rng.gen_range(0.0..1.0);
        if accept * rate_max < rate(t) {
            out.push(t);
        }
    }
    out
}

/// The eager `TraceSpec::generate` the lazy generator replaced.
fn reference_generate(spec: &TraceSpec) -> Trace {
    let mut arrival_rng = StdRng::seed_from_u64(spec.seed);
    let arrivals = reference_sample(&spec.arrival, spec.num_requests, &mut arrival_rng);
    let mut generator =
        RequestGenerator::new(spec.profile, spec.length_jitter, spec.seed.wrapping_add(1));
    let requests = arrivals
        .into_iter()
        .enumerate()
        .map(|(i, t)| generator.sample(i as u64, t))
        .collect();
    Trace { requests }
}

/// `WorkloadMix::sample_class`, the class draw of [`reference_mix_generate`].
fn reference_sample_class(mix: &WorkloadMix, rng: &mut StdRng) -> u32 {
    let total: f64 = mix.classes.iter().map(|c| c.weight).sum();
    let mut draw: f64 = rng.gen_range(0.0..total);
    for (i, c) in mix.classes.iter().enumerate() {
        if draw < c.weight {
            return i as u32;
        }
        draw -= c.weight;
    }
    (mix.classes.len() - 1) as u32
}

/// The eager `MixTraceSpec::generate` the lazy generator replaced.
fn reference_mix_generate(spec: &MixTraceSpec) -> Trace {
    let mut arrival_rng = StdRng::seed_from_u64(spec.seed);
    let arrivals = reference_sample(&spec.arrival, spec.num_requests, &mut arrival_rng);
    let mut class_rng = StdRng::seed_from_u64(spec.seed.wrapping_add(CLASS_SEED_OFFSET));
    // One generator per class, each with its own stream, so adding a
    // class never perturbs another class's length draws.
    let mut generators: Vec<RequestGenerator> = spec
        .mix
        .classes
        .iter()
        .enumerate()
        .map(|(i, c)| {
            RequestGenerator::new(
                c.profile,
                c.length_jitter,
                spec.seed.wrapping_add(1 + i as u64),
            )
        })
        .collect();
    let requests = arrivals
        .into_iter()
        .enumerate()
        .map(|(i, t)| {
            let class = if spec.mix.classes.len() == 1 {
                0
            } else {
                reference_sample_class(&spec.mix, &mut class_rng)
            };
            let mut r = generators[class as usize].sample(i as u64, t);
            r.class = class;
            r
        })
        .collect();
    Trace { requests }
}

/// One process of every variant, parameterized by the drawn values.
fn every_variant(rate: f64, burst_size: u32, period: f64) -> Vec<ArrivalProcess> {
    vec![
        ArrivalProcess::Poisson { rate_rps: rate },
        ArrivalProcess::Bursts {
            burst_size,
            period_s: period,
        },
        ArrivalProcess::Instantaneous,
        ArrivalProcess::PiecewiseRate {
            segments: vec![
                RateSegment::new(period, rate),
                RateSegment::new(2.0 * period, 0.0),
                RateSegment::new(period, 3.0 * rate),
            ],
        },
        ArrivalProcess::Diurnal {
            base_rps: 0.1 * rate,
            peak_rps: rate,
            period_s: 10.0 * period,
        },
        ArrivalProcess::Spike {
            base_rps: rate,
            spike_rps: 8.0 * rate,
            start_s: period,
            duration_s: 2.0 * period,
        },
    ]
}

fn bits(trace: &[rago_workloads::Request]) -> Vec<(u64, u64, u32, u32, u32, u32)> {
    trace
        .iter()
        .map(|r| {
            (
                r.id,
                r.arrival_s.to_bits(),
                r.question_tokens,
                r.prefix_tokens,
                r.decode_tokens,
                r.class,
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Lazy timestamps equal the eager sampler's, bit for bit, for every
    /// variant — and the eager entry point (now a `collect()`) agrees too.
    #[test]
    fn lazy_times_equal_the_eager_sampler(
        n in 0usize..600,
        rate in 0.5f64..300.0,
        burst_size in 1u32..32,
        period in 0.01f64..5.0,
        seed in 0u64..10_000,
    ) {
        for process in every_variant(rate, burst_size, period) {
            let reference = reference_sample(&process, n, &mut StdRng::seed_from_u64(seed));
            let times = process.times(n, StdRng::seed_from_u64(seed));
            prop_assert_eq!(times.len(), n);
            let lazy: Vec<u64> = times.map(f64::to_bits).collect();
            let expected: Vec<u64> = reference.iter().map(|t| t.to_bits()).collect();
            prop_assert_eq!(&lazy, &expected);
            let eager: Vec<u64> = process
                .sample(n, &mut StdRng::seed_from_u64(seed))
                .iter()
                .map(|t| t.to_bits())
                .collect();
            prop_assert_eq!(&eager, &expected);
        }
    }

    /// `TraceSpec::requests` yields exactly the eager trace, for every
    /// arrival variant.
    #[test]
    fn lazy_trace_requests_equal_the_eager_trace(
        n in 0usize..400,
        rate in 0.5f64..300.0,
        burst_size in 1u32..32,
        period in 0.01f64..5.0,
        jitter in 0.0f64..0.9,
        seed in 0u64..10_000,
    ) {
        for arrival in every_variant(rate, burst_size, period) {
            let spec = TraceSpec {
                num_requests: n,
                profile: SequenceProfile::paper_default().with_decode_tokens(48),
                arrival,
                length_jitter: jitter,
                seed,
            };
            let reference = reference_generate(&spec);
            let lazy: Vec<_> = spec.requests().collect();
            prop_assert_eq!(bits(&lazy), bits(&reference.requests));
            prop_assert_eq!(spec.generate(), reference);
        }
    }

    /// `MixTraceSpec::requests` yields exactly the eager tagged trace for a
    /// multi-class mix, class draws included.
    #[test]
    fn lazy_mix_requests_equal_the_eager_trace(
        n in 0usize..400,
        rate in 0.5f64..300.0,
        classes in 2usize..5,
        period in 0.01f64..5.0,
        seed in 0u64..10_000,
    ) {
        let mix = WorkloadMix::new(
            (0..classes)
                .map(|c| {
                    RequestClass::new(
                        format!("class{c}"),
                        1.0 + c as f64,
                        SequenceProfile::paper_default().with_decode_tokens(16 << c),
                        0.1 * c as f64,
                        SloTarget::paper_default(),
                    )
                })
                .collect(),
        );
        for arrival in every_variant(rate, 4, period) {
            let spec = MixTraceSpec {
                num_requests: n,
                mix: mix.clone(),
                arrival,
                seed,
            };
            let reference = reference_mix_generate(&spec);
            let lazy: Vec<_> = spec.requests().collect();
            prop_assert_eq!(bits(&lazy), bits(&reference.requests));
            prop_assert_eq!(spec.generate(), reference);
        }
    }
}
