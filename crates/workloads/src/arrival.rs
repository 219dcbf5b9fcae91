//! Request arrival processes: stationary (Poisson, bursts, instantaneous)
//! and time-varying (piecewise-rate, diurnal, spike).
//!
//! The time-varying variants are sampled as non-homogeneous Poisson
//! processes by thinning: candidate arrivals are drawn at the peak rate and
//! accepted with probability `rate(t) / rate_max`, which is exact for any
//! bounded rate function and stays deterministic in the RNG stream.
//! Sampling is lazy ([`ArrivalProcess::times`]): a timestamp is drawn only
//! when it is pulled.

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::borrow::BorrowMut;

/// One piecewise-constant segment of a time-varying offered-rate profile.
///
/// Also the unit of capacity-profile planning in `rago-core`, where a
/// replica *schedule* assigns a fleet size to each segment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RateSegment {
    /// Segment length, in seconds.
    pub duration_s: f64,
    /// Mean offered rate during the segment, in requests per second.
    pub rate_rps: f64,
}

impl RateSegment {
    /// Creates a segment.
    ///
    /// # Panics
    ///
    /// Panics if the segment is invalid (see [`RateSegment::validate`]).
    pub fn new(duration_s: f64, rate_rps: f64) -> Self {
        let segment = Self {
            duration_s,
            rate_rps,
        };
        if let Err(reason) = segment.validate() {
            panic!("{reason}");
        }
        segment
    }

    /// Checks the segment: the duration must be positive and finite, the
    /// rate non-negative and finite. The single source of truth for
    /// segment validity — sampling and the capacity-profile planner in
    /// `rago-core` both defer to it.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when the segment is invalid.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.duration_s > 0.0 && self.duration_s.is_finite()) {
            return Err("segment duration must be positive and finite".into());
        }
        if !(self.rate_rps >= 0.0 && self.rate_rps.is_finite()) {
            return Err("segment rate must be non-negative and finite".into());
        }
        Ok(())
    }
}

/// How requests arrive at the serving system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Poisson arrivals at `rate_rps` requests per second (exponential
    /// inter-arrival times).
    Poisson {
        /// Mean arrival rate in requests per second.
        rate_rps: f64,
    },
    /// Bursts of `burst_size` simultaneous requests every `period_s` seconds —
    /// the regime of the paper's micro-batching study (Figure 19).
    Bursts {
        /// Requests arriving together in each burst.
        burst_size: u32,
        /// Time between bursts, in seconds.
        period_s: f64,
    },
    /// All requests arrive at time zero (offline / batch evaluation).
    Instantaneous,
    /// A piecewise-constant non-homogeneous Poisson process. The profile
    /// repeats after its last segment, so any request count terminates.
    PiecewiseRate {
        /// The rate segments, applied in order and then cycled.
        segments: Vec<RateSegment>,
    },
    /// A sinusoidal day/night cycle: the rate starts at `base_rps` (the
    /// trough), peaks at `peak_rps` half a period later, and returns —
    /// `rate(t) = base + (peak − base) · (1 − cos(2πt / period)) / 2`.
    Diurnal {
        /// Trough rate, in requests per second.
        base_rps: f64,
        /// Peak rate, in requests per second.
        peak_rps: f64,
        /// Full cycle length, in seconds.
        period_s: f64,
    },
    /// A constant base rate with one rectangular surge — flash-crowd
    /// traffic: `spike_rps` during `[start_s, start_s + duration_s)`,
    /// `base_rps` elsewhere.
    Spike {
        /// Rate outside the spike, in requests per second. Must be
        /// strictly positive: the spike window is finite and never
        /// recurs, so a zero base rate would leave a request count that
        /// exceeds the spike's arrivals unsatisfiable (sampling would
        /// never terminate). Model an isolated burst with
        /// [`ArrivalProcess::Bursts`] instead.
        base_rps: f64,
        /// Rate inside the spike, in requests per second.
        spike_rps: f64,
        /// Spike onset, in seconds.
        start_s: f64,
        /// Spike length, in seconds.
        duration_s: f64,
    },
}

impl ArrivalProcess {
    /// Generates `n` arrival timestamps (seconds, non-decreasing): the
    /// collected [`Self::times`].
    ///
    /// # Examples
    ///
    /// ```
    /// use rago_workloads::ArrivalProcess;
    /// use rand::rngs::StdRng;
    /// use rand::SeedableRng;
    ///
    /// let mut rng = StdRng::seed_from_u64(1);
    /// let times = ArrivalProcess::Poisson { rate_rps: 100.0 }.sample(500, &mut rng);
    /// assert_eq!(times.len(), 500);
    /// assert!(times.windows(2).all(|w| w[1] >= w[0]));
    ///
    /// let bursts = ArrivalProcess::Bursts { burst_size: 4, period_s: 1.0 }.sample(8, &mut rng);
    /// assert_eq!(bursts, vec![0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0]);
    /// ```
    ///
    /// # Panics
    ///
    /// As [`Self::times`].
    pub fn sample(&self, n: usize, rng: &mut StdRng) -> Vec<f64> {
        self.times(n, rng).collect()
    }

    /// Lazily generates `n` arrival timestamps (seconds, non-decreasing),
    /// one per `next()`, drawing from `rng` in exactly the order
    /// [`Self::sample`] does — so a day-long trace can be replayed without
    /// holding its timestamps.
    ///
    /// The time-varying processes are sampled by thinning (Lewis &
    /// Shedler): candidates arrive as a homogeneous process at the peak
    /// rate and are kept with probability `rate(t) / rate_max`.
    ///
    /// ```
    /// use rago_workloads::ArrivalProcess;
    /// use rand::rngs::StdRng;
    /// use rand::SeedableRng;
    ///
    /// let process = ArrivalProcess::Poisson { rate_rps: 100.0 };
    /// let lazy: Vec<f64> = process.times(50, StdRng::seed_from_u64(1)).collect();
    /// assert_eq!(lazy, process.sample(50, &mut StdRng::seed_from_u64(1)));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if a Poisson rate or burst period is not positive, a burst
    /// size is zero, or a time-varying profile is degenerate (no segments,
    /// zero peak rate, non-positive period, peak below base, a
    /// non-positive spike duration, or a non-positive spike *base* rate —
    /// the spike window is finite, so only a positive base guarantees any
    /// request count terminates).
    pub fn times<R: BorrowMut<StdRng>>(&self, n: usize, rng: R) -> ArrivalTimes<'_, R> {
        let rate_max = match self {
            ArrivalProcess::Poisson { rate_rps } => {
                assert!(*rate_rps > 0.0, "Poisson rate must be positive");
                *rate_rps
            }
            ArrivalProcess::Bursts {
                burst_size,
                period_s,
            } => {
                assert!(*burst_size > 0, "burst size must be at least 1");
                assert!(*period_s > 0.0, "burst period must be positive");
                0.0
            }
            ArrivalProcess::Instantaneous => 0.0,
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
                let rate_max = segments.iter().map(|s| s.rate_rps).fold(0.0f64, f64::max);
                assert!(
                    rate_max > 0.0,
                    "a piecewise rate profile needs at least one positive-rate segment"
                );
                rate_max
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
                peak
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
                base.max(spike)
            }
        };
        ArrivalTimes {
            process: self,
            rng,
            remaining: n,
            index: 0,
            t: 0.0,
            rate_max,
        }
    }

    /// The instantaneous offered rate at time `t`, in requests per second,
    /// for the rate-driven processes; `None` for [`Bursts`] and
    /// [`Instantaneous`], whose intensity is not a bounded function of time.
    ///
    /// [`Bursts`]: ArrivalProcess::Bursts
    /// [`Instantaneous`]: ArrivalProcess::Instantaneous
    pub fn rate_at(&self, t: f64) -> Option<f64> {
        match self {
            ArrivalProcess::Poisson { rate_rps } => Some(*rate_rps),
            ArrivalProcess::Bursts { .. } | ArrivalProcess::Instantaneous => None,
            ArrivalProcess::PiecewiseRate { segments } => {
                let total: f64 = segments.iter().map(|s| s.duration_s).sum();
                if segments.is_empty() || total <= 0.0 {
                    return None;
                }
                let mut rem = t.rem_euclid(total);
                for s in segments {
                    if rem < s.duration_s {
                        return Some(s.rate_rps);
                    }
                    rem -= s.duration_s;
                }
                segments.last().map(|s| s.rate_rps)
            }
            ArrivalProcess::Diurnal {
                base_rps,
                peak_rps,
                period_s,
            } => Some(
                base_rps
                    + (peak_rps - base_rps)
                        * 0.5
                        * (1.0 - (2.0 * std::f64::consts::PI * t / period_s).cos()),
            ),
            ArrivalProcess::Spike {
                base_rps,
                spike_rps,
                start_s,
                duration_s,
            } => Some(if t >= *start_s && t < start_s + duration_s {
                *spike_rps
            } else {
                *base_rps
            }),
        }
    }
}

/// The lazy timestamps of [`ArrivalProcess::times`].
#[derive(Debug)]
pub struct ArrivalTimes<'a, R> {
    process: &'a ArrivalProcess,
    rng: R,
    remaining: usize,
    /// Timestamps yielded so far.
    index: u64,
    /// The latest arrival (or thinning candidate).
    t: f64,
    /// The Poisson rate, or the thinning bound `rate_at(t) <= rate_max`.
    rate_max: f64,
}

impl<R: BorrowMut<StdRng>> ArrivalTimes<'_, R> {
    /// One exponential gap at the rate bound, added to the clock.
    fn step(&mut self) -> f64 {
        let u: f64 = self.rng.borrow_mut().gen_range(f64::EPSILON..1.0);
        self.t += -u.ln() / self.rate_max;
        self.t
    }
}

impl<R: BorrowMut<StdRng>> Iterator for ArrivalTimes<'_, R> {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let i = self.index;
        self.index += 1;
        Some(match self.process {
            ArrivalProcess::Poisson { .. } => self.step(),
            ArrivalProcess::Bursts {
                burst_size,
                period_s,
            } => (i / u64::from(*burst_size)) as f64 * *period_s,
            ArrivalProcess::Instantaneous => 0.0,
            _ => loop {
                let t = self.step();
                let accept: f64 = self.rng.borrow_mut().gen_range(0.0..1.0);
                let rate = self.process.rate_at(t).expect("a thinned rate");
                if accept * self.rate_max < rate {
                    break t;
                }
            },
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<R: BorrowMut<StdRng>> ExactSizeIterator for ArrivalTimes<'_, R> {}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    #[test]
    fn poisson_rate_matches_mean_interarrival() {
        let times = ArrivalProcess::Poisson { rate_rps: 50.0 }.sample(5_000, &mut rng());
        let mean_gap = times.last().unwrap() / times.len() as f64;
        assert!((mean_gap - 0.02).abs() < 0.003, "mean gap {mean_gap}");
        assert!(times.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    fn bursts_arrive_in_groups() {
        let times = ArrivalProcess::Bursts {
            burst_size: 8,
            period_s: 1.0,
        }
        .sample(20, &mut rng());
        assert_eq!(times.iter().filter(|&&t| t == 0.0).count(), 8);
        assert_eq!(times.iter().filter(|&&t| t == 1.0).count(), 8);
        assert_eq!(times.iter().filter(|&&t| t == 2.0).count(), 4);
    }

    #[test]
    fn instantaneous_is_all_zero() {
        let times = ArrivalProcess::Instantaneous.sample(5, &mut rng());
        assert_eq!(times, vec![0.0; 5]);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_panics() {
        let _ = ArrivalProcess::Poisson { rate_rps: 0.0 }.sample(1, &mut rng());
    }

    #[test]
    fn piecewise_rate_concentrates_arrivals_in_fast_segments() {
        // 10 s at 1 rps then 10 s at 50 rps: the overwhelming majority of a
        // long sample lands in the second half of each 20 s cycle.
        let process = ArrivalProcess::PiecewiseRate {
            segments: vec![RateSegment::new(10.0, 1.0), RateSegment::new(10.0, 50.0)],
        };
        let times = process.sample(2_000, &mut rng());
        assert_eq!(times.len(), 2_000);
        assert!(times.windows(2).all(|w| w[1] >= w[0]));
        let in_fast =
            times.iter().filter(|&&t| (t % 20.0) >= 10.0).count() as f64 / times.len() as f64;
        assert!(in_fast > 0.9, "fast-segment share {in_fast}");
        assert_eq!(process.rate_at(5.0), Some(1.0));
        assert_eq!(process.rate_at(15.0), Some(50.0));
        assert_eq!(process.rate_at(25.0), Some(1.0)); // cycles
    }

    #[test]
    fn diurnal_peaks_mid_period() {
        let process = ArrivalProcess::Diurnal {
            base_rps: 2.0,
            peak_rps: 40.0,
            period_s: 100.0,
        };
        // Rate shape: trough at t = 0 and t = period, peak at period / 2.
        assert!((process.rate_at(0.0).unwrap() - 2.0).abs() < 1e-9);
        assert!((process.rate_at(50.0).unwrap() - 40.0).abs() < 1e-9);
        assert!((process.rate_at(100.0).unwrap() - 2.0).abs() < 1e-9);
        // Arrivals concentrate around the peak: the middle half of the first
        // cycle holds well over half of its arrivals.
        let times = process.sample(3_000, &mut rng());
        assert!(times.windows(2).all(|w| w[1] >= w[0]));
        let first_cycle: Vec<f64> = times.iter().copied().filter(|&t| t < 100.0).collect();
        let mid = first_cycle
            .iter()
            .filter(|&&t| (25.0..75.0).contains(&t))
            .count() as f64
            / first_cycle.len() as f64;
        assert!(mid > 0.6, "mid-cycle share {mid}");
    }

    #[test]
    fn spike_surges_within_its_window() {
        let process = ArrivalProcess::Spike {
            base_rps: 1.0,
            spike_rps: 100.0,
            start_s: 10.0,
            duration_s: 5.0,
        };
        assert_eq!(process.rate_at(0.0), Some(1.0));
        assert_eq!(process.rate_at(12.0), Some(100.0));
        assert_eq!(process.rate_at(15.0), Some(1.0)); // half-open window
        let times = process.sample(600, &mut rng());
        let in_spike = times.iter().filter(|&&t| (10.0..15.0).contains(&t)).count() as f64
            / times.len() as f64;
        assert!(in_spike > 0.8, "spike share {in_spike}");
    }

    #[test]
    fn sampling_is_deterministic_in_the_rng_stream() {
        let process = ArrivalProcess::Diurnal {
            base_rps: 1.0,
            peak_rps: 20.0,
            period_s: 30.0,
        };
        assert_eq!(
            process.sample(200, &mut rng()),
            process.sample(200, &mut rng())
        );
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn empty_piecewise_profile_panics() {
        let _ = ArrivalProcess::PiecewiseRate { segments: vec![] }.sample(1, &mut rng());
    }

    #[test]
    #[should_panic(expected = "positive-rate segment")]
    fn all_zero_piecewise_profile_panics() {
        let _ = ArrivalProcess::PiecewiseRate {
            segments: vec![RateSegment::new(1.0, 0.0)],
        }
        .sample(1, &mut rng());
    }

    #[test]
    #[should_panic(expected = "at least the base")]
    fn inverted_diurnal_panics() {
        let _ = ArrivalProcess::Diurnal {
            base_rps: 10.0,
            peak_rps: 5.0,
            period_s: 60.0,
        }
        .sample(1, &mut rng());
    }

    #[test]
    #[should_panic(expected = "duration must be positive")]
    fn degenerate_rate_segment_panics() {
        let _ = RateSegment::new(0.0, 1.0);
    }

    /// Regression: a zero base rate used to hang `sample` once the finite
    /// spike window closed (thinning rejects every candidate against a
    /// zero rate); it must be rejected up front instead.
    #[test]
    #[should_panic(expected = "base rate must be positive")]
    fn zero_base_spike_panics_instead_of_hanging() {
        let _ = ArrivalProcess::Spike {
            base_rps: 0.0,
            spike_rps: 10.0,
            start_s: 0.0,
            duration_s: 1.0,
        }
        .sample(100, &mut rng());
    }
}
