//! Sample sets, order statistics, and the metric list a run prints.

use std::time::Duration;

/// Latency samples in nanoseconds. A failed or refused operation is
/// recorded as [`Samples::FAILED`], so it counts as missing every
/// latency limit: it sorts above every real sample.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub const FAILED: u64 = u64::MAX;

    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_nanos().min(u64::MAX as u128 - 1) as u64);
    }

    pub fn push_failed(&mut self) {
        self.0.push(Self::FAILED);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank quantile `q` in 0..=1, in microseconds (0 when empty).
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        let rank = ((v.len() - 1) as f64 * q).round() as usize;
        let (_, x, _) = v.select_nth_unstable(rank);
        if *x == Self::FAILED {
            f64::INFINITY
        } else {
            *x as f64 / 1e3
        }
    }

    pub fn median_us(&self) -> f64 {
        self.quantile_us(0.5)
    }

    /// Arithmetic mean in microseconds over successful samples.
    pub fn mean_us(&self) -> f64 {
        let ok: Vec<u64> = self
            .0
            .iter()
            .copied()
            .filter(|&x| x != Self::FAILED)
            .collect();
        if ok.is_empty() {
            return 0.0;
        }
        ok.iter().map(|&x| x as f64).sum::<f64>() / ok.len() as f64 / 1e3
    }

    /// Sum of successful samples in seconds.
    pub fn total_s(&self) -> f64 {
        self.0
            .iter()
            .filter(|&&x| x != Self::FAILED)
            .map(|&x| x as f64)
            .sum::<f64>()
            / 1e9
    }
}

/// Geometric mean of positive values (0 when any is missing).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0) {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Geometric mean of `stat` over the non-empty sample sets: every cell
/// (adapter × read kind) weighs the same, whatever its op count, and a
/// class statistic never falls into the gap between two kinds' latency
/// ranges the way a pooled quantile can.
pub fn geomean_of<'a>(
    sets: impl IntoIterator<Item = &'a Samples>,
    stat: impl Fn(&Samples) -> f64,
) -> f64 {
    let xs: Vec<f64> = sets.into_iter().filter(|s| s.len() > 0).map(stat).collect();
    geomean(&xs)
}

/// Median of a small set of values (set-up repeats).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Named metric values; units come from the catalog.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// A finite JSON number with all its digits (non-finite values, which
/// only a failed sample can produce, print as a very large number so
/// the line stays valid JSON and the failure still shows).
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "1e300".to_string()
    }
}

/// Minimal JSON string escaping for names and notes.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_samples_sort_last_and_poison_the_tail() {
        let mut s = Samples::default();
        for us in [1u64, 2, 3] {
            s.push(Duration::from_micros(us));
        }
        assert_eq!(s.median_us(), 2.0);
        s.push_failed();
        assert_eq!(s.quantile_us(1.0), f64::INFINITY);
        assert_eq!(s.mean_us(), 2.0);
    }

    #[test]
    fn geomean_and_median() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[1.0, 0.0]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
