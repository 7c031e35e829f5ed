//! Order statistics and metric-name rules shared by every workload.

/// Nearest-rank percentile of `samples` (`p` in `[0, 100]`): the smallest
/// sample with at least `p`% of the samples at or below it. Returns `None`
/// for an empty sample set, so a caller can never mistake "no data" for a
/// latency of zero.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Nearest-rank median (`percentile(samples, 50)`).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// A percentile together with the number of samples it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The nearest-rank value.
    pub value: f64,
    /// Samples the value was ranked among.
    pub n: usize,
}

/// [`percentile`] carrying its sample count; `None` when empty.
pub fn quantile(samples: &[f64], p: f64) -> Option<Quantile> {
    percentile(samples, p).map(|value| Quantile {
        value,
        n: samples.len(),
    })
}

/// Whether `name` is a legal metric name: starts with a letter or digit,
/// at most 64 characters of letters, digits, `_`, `.` and `-`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit: 1 to 16 characters of letters, digits,
/// `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Peak resident set size of this process in MiB (`VmHWM`), `None` where
/// `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_pick_real_samples() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(5.0));
        assert_eq!(percentile(&s, 90.0), Some(9.0));
        assert_eq!(percentile(&s, 99.0), Some(10.0));
        assert_eq!(percentile(&s, 100.0), Some(10.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        // order of input does not matter
        let rev: Vec<f64> = s.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 50.0), Some(5.0));
    }

    #[test]
    fn percentiles_carry_their_sample_count() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(quantile(&[], 99.0), None);
        assert_eq!(quantile(&[3.0], 99.0), Some(Quantile { value: 3.0, n: 1 }));
        // p99 of 1000 samples is the 990th smallest: ten samples lie beyond it
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(
            quantile(&s, 99.0),
            Some(Quantile {
                value: 990.0,
                n: 1000
            })
        );
        assert_eq!(median(&[2.0, 1.0]), Some(1.0));
    }

    #[test]
    fn metric_names_and_units_follow_the_charset() {
        for ok in [
            "setup_s",
            "core.plan_ms",
            "gpusim.h2d_bytes",
            "9lives",
            "a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "ünï",
            "a/b",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "%", "GFLOP/s", "flop/B"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "seventeen-letters"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }
}
