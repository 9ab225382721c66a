//! Seeded stochastic event sources.
//!
//! Three processes feed the queue, all drawing from independent,
//! deterministically derived RNG streams so a scenario replayed with the
//! same seed produces a byte-identical event log:
//!
//! * **flow churn** — per aggregate and epoch, Poisson arrivals with
//!   mean `rate · baseline · diurnal(t)` and Binomial departures, each
//!   event placed uniformly at random inside the epoch; neither draw's
//!   cost grows with the flow count past a fixed size;
//! * **link failures** — Weibull inter-failure and repair times, victims
//!   drawn uniformly among currently healthy duplex links;
//! * **diurnal modulation** — a deterministic sinusoid scaling the
//!   arrival mean (no RNG of its own).

use crate::spec::{ArrivalSpec, DepartureSpec, DiurnalSpec, FailureSpec};
use fubar_topology::Delay;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Inverse-CDF Weibull draw: `scale · (−ln(1−u))^(1/shape)`, or `None`
/// when that overflows — a small shape or a huge scale can draw a time
/// past every representable one, which no run reaches.
pub fn sample_weibull<R: Rng>(rng: &mut R, shape: f64, scale: Delay) -> Option<Delay> {
    let u: f64 = rng.gen();
    // 1−u ∈ (0, 1]; clamp away from 0 so ln stays finite.
    let t = (-(1.0 - u).max(1e-12).ln()).powf(1.0 / shape);
    let secs = scale.secs() * t;
    secs.is_finite().then(|| Delay::from_secs(secs))
}

/// The demand multiplier at time `t`: `1 + A·sin(2πt/T)`, or 1 when no
/// diurnal modulation is configured.
pub fn diurnal_factor(spec: Option<&DiurnalSpec>, t: Delay) -> f64 {
    match spec {
        None => 1.0,
        Some(d) => {
            1.0 + d.amplitude * (2.0 * std::f64::consts::PI * t.secs() / d.period.secs()).sin()
        }
    }
}

/// Largest mean [`sample_poisson`] draws by Knuth's product method.
/// `exp(-mean)` underflows to zero past mean ≈ 745, and the method's
/// cost grows with the mean. Every committed spec's means stay far
/// below it, so their logs keep Knuth's draws.
const KNUTH_MAX_MEAN: f64 = 500.0;

/// Draws a Poisson variate with the given mean — the memoryless law of
/// flow arrivals. Knuth's product method, exact, up to
/// [`KNUTH_MAX_MEAN`]; above it, Hörmann's transformed rejection,
/// PTRS ("The transformed rejection method for generating Poisson
/// random variables", Insurance: Math. Econ. 12, 1993), whose expected
/// number of trials stays near 1.15 pairs of draws at any mean. A draw
/// past `u64::MAX` saturates to it.
///
/// # Panics
///
/// Panics on a negative or non-finite mean.
fn sample_poisson<R: Rng>(rng: &mut R, mean: f64) -> u64 {
    assert!(mean >= 0.0 && mean.is_finite(), "mean must be non-negative");
    if mean <= KNUTH_MAX_MEAN {
        let limit = (-mean).exp();
        let mut k = 0;
        let mut product = rng.gen::<f64>();
        while product > limit {
            k += 1;
            product *= rng.gen::<f64>();
        }
        return k;
    }
    let b = 0.931 + 2.53 * mean.sqrt();
    let a = -0.059 + 0.02483 * b;
    let inv_alpha = 1.1239 + 1.1328 / (b - 3.4);
    let v_r = 0.9277 - 3.6224 / (b - 2.0);
    let ln_sqrt_2pi = 0.5 * (2.0 * std::f64::consts::PI).ln();
    loop {
        let u = rng.gen::<f64>() - 0.5;
        let v = rng.gen::<f64>();
        let us = 0.5 - u.abs();
        let k = ((2.0 * a / us + b) * u + mean + 0.43).floor();
        if us >= 0.07 && v <= v_r {
            return k as u64;
        }
        if k < 0.0 || (us < 0.013 && v > us) {
            continue;
        }
        // ln(meanᵏ e^−mean / k!), with ln k! through `stirling_tail`,
        // so that nothing overflows at any finite mean.
        let k1 = k + 1.0;
        let ln_p =
            k * (mean / k1).ln() - 0.5 * k1.ln() + (k1 - mean) - ln_sqrt_2pi - stirling_tail(k);
        if (v * inv_alpha / (a / (us * us) + b)).ln() <= ln_p {
            return k as u64;
        }
    }
}

/// Most live flows [`sample_departures`] draws one uniform each for.
/// Every committed spec stays far below it (live counts there are in
/// the hundreds), so their logs keep the per-flow draws.
const PER_FLOW_DEPARTURES: u64 = 1 << 16;

/// Draws how many of `live` flows depart, each independently with
/// probability `prob` — Binomial(live, prob): as explicit Bernoulli
/// trials, one draw per live flow, up to [`PER_FLOW_DEPARTURES`] flows,
/// and by [`sample_binomial`], whose cost does not grow with `live`,
/// above.
///
/// # Panics
///
/// Panics when `prob` is outside `[0, 1]`.
fn sample_departures<R: Rng>(rng: &mut R, live: u64, prob: f64) -> u64 {
    assert!(
        (0.0..=1.0).contains(&prob),
        "departure probability must be in [0,1]"
    );
    if live <= PER_FLOW_DEPARTURES {
        return (0..live).filter(|_| rng.gen::<f64>() < prob).count() as u64;
    }
    sample_binomial(rng, live, prob)
}

/// Draws Binomial(`n`, `p`) at a cost that does not grow with `n`. For
/// `p > 1/2` it draws the failures instead. While `np < 10` it counts
/// successes by their geometric waiting times (about `np + 1` draws);
/// above, it runs Hörmann's transformed rejection with squeeze, BTRS
/// ("The generation of binomial random variates", J. Statist. Comput.
/// Simul. 46, 1993), whose expected number of trials stays near 1.15
/// pairs of draws at any `n`.
fn sample_binomial<R: Rng>(rng: &mut R, n: u64, p: f64) -> u64 {
    if p > 0.5 {
        return n - sample_binomial(rng, n, 1.0 - p);
    }
    let (nf, q) = (n as f64, 1.0 - p);
    if nf * p < 10.0 {
        let log_q = (-p).ln_1p();
        let (mut k, mut at) = (0, 0.0);
        loop {
            // 1 − u ∈ (0, 1]: the next success is this many trials on.
            at += ((1.0 - rng.gen::<f64>()).ln() / log_q).floor() + 1.0;
            if at > nf {
                return k;
            }
            k += 1;
        }
    }
    let spq = (nf * p * q).sqrt();
    let b = 1.15 + 2.53 * spq;
    let a = -0.0873 + 0.0248 * b + 0.01 * p;
    let c = nf * p + 0.5;
    let v_r = 0.92 - 4.2 / b;
    let r = p / q;
    let alpha = (2.83 + 5.1 / b) * spq;
    let m = ((nf + 1.0) * p).floor();
    loop {
        let u = rng.gen::<f64>() - 0.5;
        let v = rng.gen::<f64>();
        let us = 0.5 - u.abs();
        let k = ((2.0 * a / us + b) * u + c).floor();
        if !(0.0..=nf).contains(&k) {
            continue;
        }
        if us >= 0.07 && v <= v_r {
            return k as u64;
        }
        let v = (v * alpha / (a / (us * us) + b)).ln();
        let h = (m + 0.5) * ((m + 1.0) / (r * (nf - m + 1.0))).ln()
            + (nf + 1.0) * ((nf - m + 1.0) / (nf - k + 1.0)).ln()
            + (k + 0.5) * (r * (nf - k + 1.0) / (k + 1.0)).ln()
            + stirling_tail(m)
            + stirling_tail(nf - m)
            - stirling_tail(k)
            - stirling_tail(nf - k);
        if v <= h {
            return k as u64;
        }
    }
}

/// `ln k! − ((k + ½) ln(k + 1) − (k + 1) + ½ ln 2π)` for a whole `k ≥
/// 0`: summed exactly below 10, by its series above.
fn stirling_tail(k: f64) -> f64 {
    let k1 = k + 1.0;
    if k < 10.0 {
        let ln_fact: f64 = (2..=k as u32).map(|i| f64::from(i).ln()).sum();
        let ln_sqrt_2pi = 0.5 * (2.0 * std::f64::consts::PI).ln();
        return ln_fact - ((k + 0.5) * k1.ln() - k1 + ln_sqrt_2pi);
    }
    let k1sq = k1 * k1;
    (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / 1260.0 / k1sq) / k1sq) / k1
}

/// One sampled churn event, relative to nothing — the engine schedules
/// it at the absolute time.
#[derive(Clone, Copy, Debug)]
pub struct ChurnDraw {
    /// Offset inside the epoch.
    pub offset: Delay,
    /// Index of the affected aggregate.
    pub aggregate: usize,
    /// Positive: arrivals; negative: departures.
    pub delta: i64,
}

/// The seeded flow-churn source.
pub struct ChurnSource {
    rng: StdRng,
    arrivals: Option<ArrivalSpec>,
    departures: Option<DepartureSpec>,
    diurnal: Option<DiurnalSpec>,
}

impl ChurnSource {
    /// Builds the source from the spec pieces, on its own RNG stream.
    pub fn new(
        seed: u64,
        arrivals: Option<ArrivalSpec>,
        departures: Option<DepartureSpec>,
        diurnal: Option<DiurnalSpec>,
    ) -> Self {
        ChurnSource {
            // Distinct fixed stream tags keep the three sources
            // independent of each other for a given run seed.
            rng: StdRng::seed_from_u64(seed ^ 0xC0FF_EE00_0000_0001),
            arrivals,
            departures,
            diurnal,
        }
    }

    /// Samples every churn event for the epoch starting at `epoch_start`
    /// of length `epoch`. `baseline[i]` is aggregate `i`'s target flow
    /// count (including surge factors) and `live[i]` its current count.
    /// Draw order is fixed (aggregate-major: departures, then arrivals,
    /// then offsets), so the stream consumption is reproducible.
    pub fn epoch_events(
        &mut self,
        epoch_start: Delay,
        epoch: Delay,
        baseline: &[f64],
        live: &[u32],
    ) -> Vec<ChurnDraw> {
        let mut draws = Vec::new();
        let diurnal = diurnal_factor(self.diurnal.as_ref(), epoch_start);
        for (i, (&base, &cur)) in baseline.iter().zip(live).enumerate() {
            if let Some(d) = &self.departures {
                let n = sample_departures(&mut self.rng, u64::from(cur), d.probability);
                if n > 0 {
                    let offset = epoch * self.rng.gen::<f64>();
                    draws.push(ChurnDraw {
                        offset,
                        aggregate: i,
                        delta: -(n as i64),
                    });
                }
            }
            if let Some(a) = &self.arrivals {
                // A surge factor can push the product past f64::MAX (or
                // to NaN against a zero rate, which draws nothing);
                // the ceiling below decides either way, so hand the
                // sampler a finite mean.
                let mean = a.rate * base * diurnal;
                let mean = if mean.is_nan() {
                    0.0
                } else {
                    mean.clamp(0.0, f64::MAX)
                };
                // Cap at the configured ceiling (arrivals beyond it are
                // turned away by admission control).
                let room = u64::from(a.max_flows.saturating_sub(cur));
                let n = sample_poisson(&mut self.rng, mean).min(room);
                if n > 0 {
                    let offset = epoch * self.rng.gen::<f64>();
                    draws.push(ChurnDraw {
                        offset,
                        aggregate: i,
                        delta: n as i64,
                    });
                }
            }
        }
        draws
    }
}

/// The seeded Weibull failure/repair source.
pub struct FailureSource {
    rng: StdRng,
    spec: FailureSpec,
}

impl FailureSource {
    /// Builds the source on its own RNG stream.
    pub fn new(seed: u64, spec: FailureSpec) -> Self {
        FailureSource {
            rng: StdRng::seed_from_u64(seed ^ 0xC0FF_EE00_0000_0002),
            spec,
        }
    }

    /// Time from `now` to the next stochastic failure; `None` past every
    /// representable time.
    pub fn next_failure_in(&mut self) -> Option<Delay> {
        sample_weibull(&mut self.rng, self.spec.shape, self.spec.scale)
    }

    /// How long the next failure stays down; `None` past every
    /// representable time.
    pub fn repair_in(&mut self) -> Option<Delay> {
        sample_weibull(
            &mut self.rng,
            self.spec.repair_shape,
            self.spec.repair_scale,
        )
    }

    /// Picks a victim among `healthy` candidates (uniform). Draws from
    /// the stream even when empty, so stream position does not depend on
    /// the (state-dependent) candidate count staying nonzero.
    pub fn pick_victim<T: Copy>(&mut self, healthy: &[T]) -> Option<T> {
        let roll: f64 = self.rng.gen();
        if healthy.is_empty() {
            return None;
        }
        let idx = ((roll * healthy.len() as f64) as usize).min(healthy.len() - 1);
        Some(healthy[idx])
    }

    /// Concurrent stochastic failure budget.
    pub fn max_down(&self) -> usize {
        self.spec.max_down
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weibull_shape_one_is_exponential_mean_scale() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 20_000;
        let total: f64 = (0..n)
            .map(|_| sample_weibull(&mut rng, 1.0, Delay::from_secs(100.0)))
            .map(|d| d.expect("finite").secs())
            .sum();
        let mean = total / n as f64;
        assert!((mean - 100.0).abs() < 5.0, "mean {mean}");
    }

    #[test]
    fn weibull_is_positive_and_deterministic() {
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..50)
                .map(|_| sample_weibull(&mut rng, 1.7, Delay::from_secs(30.0)))
                .map(|d| d.expect("finite").secs())
                .collect::<Vec<_>>()
        };
        let a = draw(7);
        assert_eq!(a, draw(7));
        assert_ne!(a, draw(8));
        assert!(a.iter().all(|&t| t >= 0.0 && t.is_finite()));
    }

    #[test]
    fn diurnal_cycles_around_one() {
        let spec = DiurnalSpec {
            amplitude: 0.5,
            period: Delay::from_secs(100.0),
        };
        assert!((diurnal_factor(Some(&spec), Delay::ZERO) - 1.0).abs() < 1e-12);
        assert!((diurnal_factor(Some(&spec), Delay::from_secs(25.0)) - 1.5).abs() < 1e-12);
        assert!((diurnal_factor(Some(&spec), Delay::from_secs(75.0)) - 0.5).abs() < 1e-12);
        assert_eq!(diurnal_factor(None, Delay::from_secs(3.0)), 1.0);
    }

    /// The Poisson draw has mean and variance `mean` on both sides of
    /// [`KNUTH_MAX_MEAN`]; past `exp(-mean)`'s underflow, where Knuth's
    /// method saturated near 745; and at `u32::MAX`-scale means (an
    /// aggregate's flow ceiling) and beyond, where a draw takes a
    /// handful of uniforms, not one per arrival.
    #[test]
    fn poisson_sampler_has_the_right_mean() {
        let mut rng = StdRng::seed_from_u64(9);
        for (mean, draws) in [
            (0.5, 20_000),
            (2.0, 20_000),
            (8.0, 20_000),
            (KNUTH_MAX_MEAN - 1.0, 20_000),
            (KNUTH_MAX_MEAN, 20_000),
            (KNUTH_MAX_MEAN + 1.0, 200_000),
            (2_000.0, 200_000),
            (f64::from(u32::MAX), 200_000),
            (1e15, 200_000),
        ] {
            let counts: Vec<f64> = (0..draws)
                .map(|_| sample_poisson(&mut rng, mean) as f64)
                .collect();
            let n = f64::from(draws);
            let observed = counts.iter().sum::<f64>() / n;
            let var = counts.iter().map(|k| (k - observed).powi(2)).sum::<f64>() / n;
            assert!(
                (observed - mean).abs() < 5.0 * (mean / n).sqrt(),
                "poisson mean {mean}: observed {observed}"
            );
            // The sample variance's relative standard error is
            // sqrt((2 + 1/mean) / draws) for a Poisson law.
            assert!(
                (var / mean - 1.0).abs() < 5.0 * ((2.0 + 1.0 / mean) / n).sqrt(),
                "poisson mean {mean}: variance {var}"
            );
        }
        assert_eq!(sample_poisson(&mut rng, 0.0), 0);
        assert_eq!(sample_poisson(&mut rng, f64::MAX), u64::MAX);
    }

    #[test]
    fn departure_sampler_is_binomial_shaped() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 5_000;
        let total: u64 = (0..n).map(|_| sample_departures(&mut rng, 40, 0.25)).sum();
        let observed = total as f64 / n as f64;
        assert!((observed - 10.0).abs() < 0.5, "observed {observed}");
        assert_eq!(sample_departures(&mut rng, 0, 0.5), 0);
        assert_eq!(sample_departures(&mut rng, 17, 1.0), 17);
    }

    /// Above the per-flow range the departure count is still
    /// Binomial-shaped — in both of `sample_binomial`'s regimes and
    /// through its `p > 1/2` symmetry — and at `u32::MAX` live flows a
    /// draw takes a handful of uniforms, not four billion.
    #[test]
    fn departure_sampler_is_binomial_at_any_live_count() {
        let mut rng = StdRng::seed_from_u64(12);
        let live = u64::from(u32::MAX);
        for (n, p, draws) in [
            (live, 0.1, 2_000),
            (live, 1e-9, 20_000),
            (PER_FLOW_DEPARTURES + 1, 0.9, 2_000),
            (1 << 24, 3e-7, 20_000),
        ] {
            let counts: Vec<f64> = (0..draws)
                .map(|_| sample_departures(&mut rng, n, p) as f64)
                .collect();
            let mean = counts.iter().sum::<f64>() / f64::from(draws);
            let var = counts.iter().map(|k| (k - mean).powi(2)).sum::<f64>() / f64::from(draws);
            let (mu, sigma2) = (n as f64 * p, n as f64 * p * (1.0 - p));
            let se = (sigma2 / f64::from(draws)).sqrt();
            assert!(
                (mean - mu).abs() < 5.0 * se,
                "n {n} p {p}: mean {mean}, want {mu}"
            );
            assert!(
                (var / sigma2 - 1.0).abs() < 0.15,
                "n {n} p {p}: variance {var}, want {sigma2}"
            );
            assert!(counts.iter().all(|&k| k <= n as f64));
        }
        assert_eq!(sample_departures(&mut rng, live, 0.0), 0);
        assert_eq!(sample_departures(&mut rng, live, 1.0), live);
        // The series and the exact sum meet at 10 (the first term the
        // series drops is 1 / (1680 · 11⁷) ≈ 3e-11).
        let exact_10: f64 = (2..=10).map(|i| f64::from(i).ln()).sum::<f64>()
            - (10.5 * 11f64.ln() - 11.0 + 0.5 * (2.0 * std::f64::consts::PI).ln());
        assert!((stirling_tail(10.0) - exact_10).abs() < 1e-10);
    }

    #[test]
    fn churn_respects_max_flows_and_determinism() {
        let arr = ArrivalSpec {
            rate: 2.0,
            max_flows: 10,
        };
        let dep = DepartureSpec { probability: 0.1 };
        let run = |seed| {
            let mut src = ChurnSource::new(seed, Some(arr.clone()), Some(dep.clone()), None);
            src.epoch_events(
                Delay::ZERO,
                Delay::from_secs(10.0),
                &[5.0, 5.0, 5.0],
                &[9, 10, 2],
            )
            .iter()
            .map(|d| (d.aggregate, d.delta, d.offset.secs()))
            .collect::<Vec<_>>()
        };
        let a = run(3);
        assert_eq!(a, run(3), "same seed, same draws");
        assert_ne!(a, run(4));
        for &(agg, delta, off) in &a {
            assert!((0.0..10.0).contains(&off));
            if delta > 0 {
                // Aggregate 1 is already at the cap.
                assert_ne!(agg, 1, "arrivals above max-flows must be dropped");
            }
        }
        // An overflowing target (`surge x1e308`) fills to the ceiling
        // instead of tripping the sampler's finite-mean assert.
        let mut src = ChurnSource::new(3, Some(arr), None, None);
        let draws = src.epoch_events(Delay::ZERO, Delay::from_secs(10.0), &[f64::INFINITY], &[4]);
        assert_eq!(draws.len(), 1);
        assert_eq!(draws[0].delta, 6);
    }

    #[test]
    fn victim_choice_consumes_stream_uniformly() {
        let spec = FailureSpec {
            shape: 1.0,
            scale: Delay::from_secs(100.0),
            repair_shape: 1.0,
            repair_scale: Delay::from_secs(10.0),
            max_down: 1,
        };
        let mut src = FailureSource::new(1, spec);
        assert_eq!(src.pick_victim::<u32>(&[]), None);
        let mut seen = [false; 4];
        for _ in 0..200 {
            let v = src.pick_victim(&[0usize, 1, 2, 3]).unwrap();
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all candidates reachable");
    }
}
