//! Shared harness for the experiment binaries (one per paper
//! table/figure — see DESIGN.md §3).
//!
//! All binaries are configured through environment variables so the
//! whole suite can run unattended:
//!
//! | variable | default | meaning |
//! |---|---|---|
//! | `SNB_SF3_PERSONS` | 900 | persons in the "SF3" dataset |
//! | `SNB_SF10_PERSONS` | 3000 | persons in the "SF10" dataset |
//! | `SNB_SAMPLES` | 100 | executions per query class (Tables 2/3) |
//! | `SNB_BUDGET_SECS` | 60 | per-class time budget before "-" |
//! | `SNB_READERS` | 32 | concurrent readers (Figure 3) |
//! | `SNB_DURATION_SECS` | 10 | measured window (Figure 3) |
//! | `SNB_SYSTEMS` | all | comma-separated substring filter |
//! | `SNB_SEED` | fixed | data/parameter seed |

use snb_core::metrics::TextTable;
use snb_datagen::{generate, GeneratedData, GeneratorConfig};
use snb_driver::adapter::{build_adapter, SutAdapter, SutKind, ALL_SUT_KINDS};

/// Read an environment variable with a default.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Read a float environment variable with a default.
pub fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Zipfian index sampler over `0..n` with exponent `s` — the skewed
/// read mode behind `SNB_READ_SKEW` (PR 9): social reads concentrate on
/// hot profiles, which is what a frequency-admitted result cache is
/// for. Cumulative weights are precomputed once, so drawing a sample is
/// one SplitMix64 step plus a binary search; the stream is fully
/// deterministic for a given seed.
pub struct Zipf {
    cdf: Vec<f64>,
    state: u64,
}

impl Zipf {
    /// Sampler over `0..n` with exponent `s` (`s = 0` is uniform).
    pub fn new(n: usize, s: f64, seed: u64) -> Self {
        assert!(n > 0, "Zipf needs a non-empty index space");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for w in &mut cdf {
            *w /= acc;
        }
        Zipf { cdf, state: seed ^ 0x9E37_79B9_7F4A_7C15 }
    }

    /// Next sampled index (rank 0 is the hottest).
    pub fn next(&mut self) -> usize {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let u = (z >> 11) as f64 / (1u64 << 53) as f64;
        let i = self.cdf.partition_point(|&c| c < u);
        i.min(self.cdf.len() - 1)
    }
}

/// The scaled-down dataset standing in for a paper scale factor (see
/// DESIGN.md §1 "Scale-factor substitution").
pub fn sf_config(sf: u32) -> GeneratorConfig {
    let mut cfg = GeneratorConfig::scale_factor(sf);
    cfg.persons = match sf {
        3 => env_u64("SNB_SF3_PERSONS", cfg.persons as u64) as usize,
        10 => env_u64("SNB_SF10_PERSONS", cfg.persons as u64) as usize,
        _ => cfg.persons,
    };
    cfg.seed = env_u64("SNB_SEED", cfg.seed);
    cfg
}

/// Generate (and time) a dataset for a scale factor.
pub fn dataset(sf: u32) -> GeneratedData {
    let cfg = sf_config(sf);
    let t0 = std::time::Instant::now();
    let data = generate(&cfg);
    eprintln!(
        "[gen] SF{sf}: {} snapshot vertices, {} snapshot edges, {} update ops ({:.1}s)",
        data.snapshot.vertices.len(),
        data.snapshot.edges.len(),
        data.updates.len(),
        t0.elapsed().as_secs_f64()
    );
    data
}

/// The systems selected by `SNB_SYSTEMS` (substring match on the
/// display name), in paper order.
pub fn selected_kinds() -> Vec<SutKind> {
    let filter = std::env::var("SNB_SYSTEMS").unwrap_or_default();
    ALL_SUT_KINDS
        .iter()
        .copied()
        .filter(|k| {
            filter.is_empty()
                || filter
                    .split(',')
                    .any(|f| k.display().to_lowercase().contains(&f.trim().to_lowercase()))
        })
        .collect()
}

/// Build and bulk-load one adapter, reporting the load time.
pub fn loaded_adapter(kind: SutKind, data: &GeneratedData) -> Box<dyn SutAdapter> {
    let adapter = build_adapter(kind);
    let t0 = std::time::Instant::now();
    adapter.load(&data.snapshot).unwrap_or_else(|e| panic!("{}: load failed: {e}", kind.display()));
    eprintln!("[load] {}: {:.1}s", adapter.name(), t0.elapsed().as_secs_f64());
    adapter
}

/// Print a table with a heading, paper-style.
pub fn print_table(title: &str, table: &TextTable) {
    println!("\n=== {title} ===");
    println!("{}", table.render());
}

/// Render a per-second series compactly (`v0 v1 v2 ...`).
pub fn series(xs: &[u64]) -> String {
    xs.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_default_applies() {
        assert_eq!(env_u64("SNB_DOES_NOT_EXIST", 7), 7);
    }

    #[test]
    fn sf_config_scales() {
        assert!(sf_config(10).persons > sf_config(3).persons);
    }

    #[test]
    fn all_kinds_selected_by_default() {
        assert_eq!(selected_kinds().len(), ALL_SUT_KINDS.len());
    }

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let mut z = Zipf::new(100, 1.0, 7);
        let mut head = 0usize;
        for _ in 0..10_000 {
            if z.next() < 10 {
                head += 1;
            }
        }
        // s=1 puts H(10)/H(100) ~ 56% of the mass on the top decile.
        assert!(head > 4_000, "zipf s=1 head mass too light: {head}/10000");
        let mut u = Zipf::new(100, 0.0, 7);
        let mut head = 0usize;
        for _ in 0..10_000 {
            if u.next() < 10 {
                head += 1;
            }
        }
        assert!(head < 2_000, "s=0 must be ~uniform: {head}/10000");
    }
}

/// Tables 2/3 implementation.
pub mod tables;

/// The million-vertex scale run (streaming build + CSR accounting +
/// complex-read throughput) behind `scale_smoke`.
pub mod scale;
