//! Slice statistics. Every timing is taken per fixed-work slice, and
//! the value reported is the best slice: on the shared box interference
//! only ever adds time, and it comes in episodes that slow every slice
//! of a child, or of a run, by a sixth or more, so that no quantile of
//! a run stands still (README, "Slices and the best slice"). min/p25/p50
//! go into the run file as the spread.

/// The `q` quantile of an ascending slice (nearest rank).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

pub fn sort(v: &mut [f64]) {
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
}

pub fn median(v: &mut [f64]) -> f64 {
    sort(v);
    quantile(v, 0.5)
}

/// The best slice: the least of the samples, zero when there are none.
pub fn best(v: &[f64]) -> f64 {
    v.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Spread of one timing over the slices of one child.
#[derive(Clone, Copy, Debug, Default)]
pub struct Spread {
    pub min: f64,
    pub p25: f64,
    pub p50: f64,
    pub n: usize,
}

impl Spread {
    pub fn of(samples: &mut [f64]) -> Spread {
        sort(samples);
        Spread {
            min: samples.first().copied().unwrap_or(0.0),
            p25: quantile(samples, 0.25),
            p50: quantile(samples, 0.5),
            n: samples.len(),
        }
    }

    /// Few slices ran undisturbed: even the fastest quarter took twice the
    /// best slice.
    pub fn noisy(&self) -> bool {
        self.n > 0 && self.p25 > 2.0 * self.min
    }
}
