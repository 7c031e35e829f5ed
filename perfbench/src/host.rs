//! The host-speed reference the end-to-end times are scaled by.
//!
//! The benchmark shares its cores, and their caches, with other tenants,
//! and how fast the same code runs drifts by up to about 1.5× from one
//! stretch of minutes to the next. A plain arithmetic loop does not feel
//! this; sorting a fixed array larger than a core's L2 cache does, the
//! way the planner, analysis, kernels and daemon do (the eviction scans
//! do not: see [`crate::Workload::host_scaled`]). So a run sorts the same
//! keys between its operations and reports each operation's time as it
//! would read on a nominal host on which that sort takes
//! [`NOMINAL_REF_MS`]. The reference is the benchmark's own code, fixed
//! and independent of the seed, so a change to the program moves the
//! scaled times exactly as it moves the raw ones.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::stats;

/// Keys per reference sort: 16 MB of `u64`, larger than a core's L2.
const KEYS: usize = 2_000_000;

/// Capacity of the key buffer: above glibc's 32 MiB ceiling for moving its
/// mmap threshold, so every buffer is mapped fresh and unmapped on drop
/// instead of staying resident in the heap. Only `KEYS` are touched.
const CAPACITY: usize = 5_000_000;

/// The reference sort's time on the nominal host every end-to-end time
/// is scaled to.
pub const NOMINAL_REF_MS: f64 = 50.0;

/// The same keys every time, from a fixed xorshift sequence.
fn keys() -> Vec<u64> {
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut keys = Vec::with_capacity(CAPACITY);
    keys.extend((0..KEYS).map(|_| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }));
    keys
}

/// The highest resident-set high-water mark (`VmHWM`, MiB as `f64` bits)
/// seen just before a reference sample reset it.
static PEAK_BEFORE_SAMPLES: AtomicU64 = AtomicU64::new(0);

/// Peak resident set of the program in MiB, leaving out the reference's
/// keys: the larger of the high-water mark now and every one seen before
/// a sample reset it. `None` where `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let now = stats::peak_rss_mb()?;
    Some(now.max(f64::from_bits(PEAK_BEFORE_SAMPLES.load(Ordering::Relaxed))))
}

/// Every reference sample a run took.
#[derive(Debug, Default)]
pub(crate) struct HostRef {
    samples: Vec<f64>,
}

impl HostRef {
    /// No samples yet.
    pub(crate) fn new() -> HostRef {
        HostRef::default()
    }

    /// Generate the keys and sort them; returns (and records) the sort's
    /// wall time in ms. Generating is not timed. The high-water mark is
    /// kept before and reset after (`/proc/self/clear_refs`), so the keys
    /// never count toward [`peak_rss_mb`]; where the reset is refused,
    /// they do.
    pub(crate) fn sample(&mut self) -> f64 {
        if let Some(mb) = stats::peak_rss_mb() {
            // a non-negative f64 orders like its bits
            PEAK_BEFORE_SAMPLES.fetch_max(mb.to_bits(), Ordering::Relaxed);
        }
        let mut keys = keys();
        let t0 = Instant::now();
        keys.sort_unstable();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        std::hint::black_box(&keys);
        drop(keys);
        let _ = std::fs::write("/proc/self/clear_refs", "5");
        self.samples.push(ms);
        ms
    }

    /// Every sample taken so far, in ms.
    pub(crate) fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// A time `raw` measured while the reference took `ref_ms`, as it would
/// read on the nominal host.
pub(crate) fn scaled(raw: f64, ref_ms: f64) -> f64 {
    raw * NOMINAL_REF_MS / ref_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_sorts_the_same_distinct_keys_every_time() {
        let k = keys();
        assert_eq!(k, keys());
        assert_eq!(k.len(), KEYS);
        let mut sorted = k.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), KEYS, "keys repeat");
        let mut host = HostRef::new();
        assert!(host.sample() > 0.0 && host.sample() > 0.0);
        assert_eq!(host.samples().len(), 2);
    }

    #[test]
    fn the_keys_do_not_count_toward_the_peak() {
        let before = peak_rss_mb().expect("VmHWM");
        HostRef::new().sample();
        let after = peak_rss_mb().expect("VmHWM");
        assert!(after >= before, "the peak before a sample is kept");
    }

    #[test]
    fn scaling_is_relative_to_the_nominal_host() {
        assert_eq!(scaled(10.0, NOMINAL_REF_MS), 10.0);
        assert_eq!(scaled(10.0, 2.0 * NOMINAL_REF_MS), 5.0);
    }
}
