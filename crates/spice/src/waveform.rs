//! Sampled voltage waveforms and the measurements CTS cares about.

use crate::units::PS;
use std::fmt;

/// A piecewise-linear voltage waveform `v(t)`.
///
/// Waveforms serve two roles: *inputs* (ideal ramps or previously simulated
/// buffer outputs driving the next stage — the paper's key observation is
/// that these differ, Fig. 3.2) and *outputs* (simulated node voltages on
/// which delay and slew are measured).
///
/// Samples are strictly increasing in time; between samples the waveform is
/// linear; before the first sample it holds the first value and after the
/// last sample it holds the last value.
///
/// ```
/// use cts_spice::{units::*, Waveform};
/// let ramp = Waveform::rising_ramp_10_90(0.0, 80.0 * PS, 1.1);
/// assert!((ramp.slew_10_90(1.1).unwrap() - 80.0 * PS).abs() < 0.1 * PS);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Waveform {
    times: Vec<f64>,
    values: Vec<f64>,
}

impl Waveform {
    /// Creates a waveform from parallel sample vectors.
    ///
    /// # Panics
    ///
    /// Panics if the vectors differ in length, are empty, or times are not
    /// strictly increasing and finite.
    pub fn from_samples(times: Vec<f64>, values: Vec<f64>) -> Waveform {
        assert_eq!(times.len(), values.len(), "sample vectors must match");
        assert!(!times.is_empty(), "waveform needs at least one sample");
        for w in times.windows(2) {
            assert!(
                w[1] > w[0] && w[0].is_finite() && w[1].is_finite(),
                "times must be strictly increasing and finite"
            );
        }
        assert!(
            values.iter().all(|v| v.is_finite()),
            "waveform values must be finite"
        );
        Waveform { times, values }
    }

    /// A constant (DC) waveform.
    pub fn constant(level: f64) -> Waveform {
        Waveform::from_samples(vec![0.0], vec![level])
    }

    /// An ideal rising ramp from 0 to `vdd` whose **10–90 % slew** is
    /// `slew`, starting its 0→vdd transition at `t_start`.
    ///
    /// The full 0–100 % ramp time is `slew / 0.8` (an ideal ramp spends 80 %
    /// of its rise between the 10 % and 90 % levels).
    pub fn rising_ramp_10_90(t_start: f64, slew: f64, vdd: f64) -> Waveform {
        assert!(slew > 0.0, "slew must be positive");
        let full = slew / 0.8;
        Waveform::from_samples(
            vec![t_start - 1.0 * PS, t_start, t_start + full],
            vec![0.0, 0.0, vdd],
        )
    }

    /// An ideal falling ramp from `vdd` to 0 with the given 10–90 % slew.
    pub fn falling_ramp_10_90(t_start: f64, slew: f64, vdd: f64) -> Waveform {
        assert!(slew > 0.0, "slew must be positive");
        let full = slew / 0.8;
        Waveform::from_samples(
            vec![t_start - 1.0 * PS, t_start, t_start + full],
            vec![vdd, vdd, 0.0],
        )
    }

    /// The sample times (seconds).
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// The sample values (volts).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Value at time `t` with linear interpolation and constant
    /// extrapolation.
    pub fn value_at(&self, t: f64) -> f64 {
        match self.times.binary_search_by(|x| x.partial_cmp(&t).unwrap()) {
            Ok(i) => self.values[i],
            Err(0) => self.values[0],
            Err(i) if i == self.times.len() => *self.values.last().unwrap(),
            Err(i) => {
                let (t0, t1) = (self.times[i - 1], self.times[i]);
                let (v0, v1) = (self.values[i - 1], self.values[i]);
                v0 + (v1 - v0) * (t - t0) / (t1 - t0)
            }
        }
    }

    /// Appends a sample after the last one, extending the waveform in
    /// time.
    ///
    /// # Panics
    ///
    /// Panics unless `t` is finite and later than the last sample and `v`
    /// is finite.
    pub fn push(&mut self, t: f64, v: f64) {
        let last = *self.times.last().expect("a waveform has samples");
        assert!(
            t > last && t.is_finite(),
            "times must be strictly increasing and finite"
        );
        assert!(v.is_finite(), "waveform values must be finite");
        self.times.push(t);
        self.values.push(v);
    }

    /// The waveform as a borrowed [`WaveformRef`].
    pub fn view(&self) -> WaveformRef<'_> {
        WaveformRef {
            times: &self.times,
            values: &self.values,
        }
    }

    /// First time at which the waveform crosses `level` in the given
    /// direction (`rising`: from below to at-or-above), with linear
    /// interpolation between samples. `None` if it never does.
    pub fn first_crossing(&self, level: f64, rising: bool) -> Option<f64> {
        self.view().first_crossing(level, rising)
    }

    /// Direction of the dominant transition: `true` if the final value is
    /// above the initial value.
    pub fn is_rising(&self) -> bool {
        self.view().is_rising()
    }

    /// Time of the 50 % (`vdd/2`) crossing of the dominant transition.
    ///
    /// This is the timestamp delay measurements are taken at (the paper
    /// measures delays between 50 % crossings).
    pub fn t50(&self, vdd: f64) -> Option<f64> {
        self.view().t50(vdd)
    }

    /// The 10–90 % transition time ("slew") of the dominant transition.
    ///
    /// For a rising edge this is `t(90 %) − t(10 %)`; for a falling edge
    /// `t(10 %) − t(90 %)`. Returns `None` if the waveform does not complete
    /// the transition within its samples.
    pub fn slew_10_90(&self, vdd: f64) -> Option<f64> {
        self.view().slew_10_90(vdd)
    }

    /// 50 %-to-50 % delay from `input` to `self` (positive when `self`
    /// switches later). Returns `None` when either waveform never crosses
    /// 50 %.
    pub fn delay_50_from(&self, input: &Waveform, vdd: f64) -> Option<f64> {
        Some(self.t50(vdd)? - input.t50(vdd)?)
    }

    /// Shifts the waveform by `dt` (positive: later).
    pub fn shifted(&self, dt: f64) -> Waveform {
        Waveform {
            times: self.times.iter().map(|t| t + dt).collect(),
            values: self.values.clone(),
        }
    }

    /// Maximum absolute difference from `other`, sampled on the union of
    /// both time grids. Used by tests and by the curve-vs-ramp experiment.
    pub fn max_abs_diff(&self, other: &Waveform) -> f64 {
        let mut worst: f64 = 0.0;
        for &t in self.times.iter().chain(other.times.iter()) {
            worst = worst.max((self.value_at(t) - other.value_at(t)).abs());
        }
        worst
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Returns `true` if the waveform has exactly one sample (a constant).
    pub fn is_empty(&self) -> bool {
        false // from_samples enforces >= 1 sample; Clippy pairs len/is_empty.
    }
}

/// A waveform borrowed from parallel time and value slices — a simulated
/// node read in place — with [`Waveform`]'s measurements. Each measurement
/// gives the same bits as on the owned [`Waveform`] of the same samples.
#[derive(Debug, Clone, Copy)]
pub struct WaveformRef<'a> {
    times: &'a [f64],
    values: &'a [f64],
}

impl<'a> WaveformRef<'a> {
    /// Borrows parallel sample slices. Unlike [`Waveform::from_samples`]
    /// the times are not checked for order; they are taken to be strictly
    /// increasing.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or are empty.
    pub fn new(times: &'a [f64], values: &'a [f64]) -> WaveformRef<'a> {
        assert_eq!(times.len(), values.len(), "sample slices must match");
        assert!(!times.is_empty(), "waveform needs at least one sample");
        WaveformRef { times, values }
    }

    /// As [`Waveform::first_crossing`].
    pub fn first_crossing(&self, level: f64, rising: bool) -> Option<f64> {
        for i in 1..self.times.len() {
            let (v0, v1) = (self.values[i - 1], self.values[i]);
            let crossed = if rising {
                v0 < level && v1 >= level
            } else {
                v0 > level && v1 <= level
            };
            if crossed {
                let f = (level - v0) / (v1 - v0);
                return Some(self.times[i - 1] + f * (self.times[i] - self.times[i - 1]));
            }
        }
        // A waveform that starts exactly at the level and moves away never
        // "crosses"; one that sits at the level throughout also doesn't.
        None
    }

    /// As [`Waveform::is_rising`].
    pub fn is_rising(&self) -> bool {
        self.values[self.values.len() - 1] > self.values[0]
    }

    /// As [`Waveform::t50`].
    pub fn t50(&self, vdd: f64) -> Option<f64> {
        self.first_crossing(0.5 * vdd, self.is_rising())
    }

    /// As [`Waveform::slew_10_90`].
    pub fn slew_10_90(&self, vdd: f64) -> Option<f64> {
        let rising = self.is_rising();
        let (lo, hi) = (0.1 * vdd, 0.9 * vdd);
        if rising {
            let t_lo = self.first_crossing(lo, true)?;
            let t_hi = self.first_crossing(hi, true)?;
            Some(t_hi - t_lo)
        } else {
            let t_hi = self.first_crossing(hi, false)?;
            let t_lo = self.first_crossing(lo, false)?;
            Some(t_lo - t_hi)
        }
    }
}

impl fmt::Display for Waveform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "waveform[{} samples, {:.1}..{:.1} ps, {:.3}..{:.3} V]",
            self.len(),
            self.times[0] / PS,
            self.times.last().unwrap() / PS,
            self.values.iter().cloned().fold(f64::INFINITY, f64::min),
            self.values
                .iter()
                .cloned()
                .fold(f64::NEG_INFINITY, f64::max),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const VDD: f64 = 1.1;

    #[test]
    fn ramp_has_requested_slew() {
        for slew_ps in [20.0, 80.0, 150.0] {
            let w = Waveform::rising_ramp_10_90(10.0 * PS, slew_ps * PS, VDD);
            let s = w.slew_10_90(VDD).unwrap();
            assert!((s - slew_ps * PS).abs() < 1e-3 * PS, "slew {s}");
        }
    }

    #[test]
    fn falling_ramp_slew_and_t50() {
        let w = Waveform::falling_ramp_10_90(0.0, 100.0 * PS, VDD);
        assert!(!w.is_rising());
        assert!((w.slew_10_90(VDD).unwrap() - 100.0 * PS).abs() < 1e-3 * PS);
        let t50 = w.t50(VDD).unwrap();
        // Midpoint of the full ramp: half of 125 ps.
        assert!((t50 - 62.5 * PS).abs() < 1e-3 * PS);
    }

    #[test]
    fn value_interpolation_and_extrapolation() {
        let w = Waveform::from_samples(vec![0.0, 1.0, 2.0], vec![0.0, 2.0, 2.0]);
        assert_eq!(w.value_at(-1.0), 0.0);
        assert_eq!(w.value_at(0.5), 1.0);
        assert_eq!(w.value_at(5.0), 2.0);
    }

    #[test]
    fn crossing_detects_direction() {
        let w = Waveform::from_samples(vec![0.0, 1.0, 2.0], vec![0.0, 1.0, 0.0]);
        assert_eq!(w.first_crossing(0.5, true), Some(0.5));
        assert_eq!(w.first_crossing(0.5, false), Some(1.5));
        assert_eq!(w.first_crossing(2.0, true), None);
    }

    #[test]
    fn delay_between_shifted_ramps() {
        let a = Waveform::rising_ramp_10_90(0.0, 50.0 * PS, VDD);
        let b = a.shifted(30.0 * PS);
        let d = b.delay_50_from(&a, VDD).unwrap();
        assert!((d - 30.0 * PS).abs() < 1e-3 * PS);
    }

    #[test]
    fn constant_has_no_crossings() {
        let w = Waveform::constant(VDD);
        assert_eq!(w.t50(VDD), None);
        assert_eq!(w.slew_10_90(VDD), None);
    }

    #[test]
    fn max_abs_diff_of_identical_is_zero() {
        let w = Waveform::rising_ramp_10_90(0.0, 50.0 * PS, VDD);
        assert_eq!(w.max_abs_diff(&w.clone()), 0.0);
        let shifted = w.shifted(10.0 * PS);
        assert!(w.max_abs_diff(&shifted) > 0.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_times() {
        let _ = Waveform::from_samples(vec![0.0, 0.0], vec![1.0, 2.0]);
    }
}
