//! The MICCO stack's layered benchmark.
//!
//! One command runs a named workload from a seed, checks every output it
//! produces, and prints every metric by name with its unit. Each layer is
//! measured from outside, by timing calls into the public functions of
//! the crate that owns it; see `README.md` beside this package for the
//! workloads, the metric table and the host facts.
//!
//! A run either measures the end-to-end metrics with the benchmark's own
//! tracing off (`trace = false`), or records a span around every layer
//! call and reports the per-layer metrics (`trace = true`). End-to-end
//! times are scaled to a nominal host speed on every workload but
//! `batch_evict` (see [`host`]).

pub mod host;
pub mod spans;
pub mod stats;

mod batch;
mod redstar;
mod serve;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use spans::Tracer;

/// The end-to-end metrics `(name, unit)`: what a user of the stack sees.
/// Every workload reports every one of them (see `README.md` for what an
/// operation is on each workload). Where [`Workload::host_scaled`], the
/// times, and the rate, are scaled to the nominal host of
/// [`host::NOMINAL_REF_MS`].
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("tasks_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics `(name, unit)`, named `<crate>.<quantity>` after
/// the crate that owns the layer. A workload that never calls a layer
/// reports its metrics as 0 (see [`Workload::calls`]).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.generate_ms", "ms"),
    ("redstar.stage_ms", "ms"),
    ("core.plan_ms", "ms"),
    ("core.assign_ms", "ms"),
    ("gpusim.execute_ms", "ms"),
    ("gpusim.makespan_ms", "ms"),
    ("gpusim.h2d_bytes", "B"),
    ("gpusim.d2d_bytes", "B"),
    ("gpusim.cross_island_bytes", "B"),
    ("gpusim.evictions", "count"),
    ("gpusim.reuse_hit_ratio", "ratio"),
    ("gpusim.idle_share", "ratio"),
    ("gpusim.imbalance", "ratio"),
    ("analysis.lint_ms", "ms"),
    ("analysis.certify_ms", "ms"),
    ("analysis.lint_warnings", "count"),
    ("analysis.lint_errors", "count"),
    ("analysis.certify_errors", "count"),
    ("obs.record_ms", "ms"),
    ("obs.trace_events", "count"),
    ("store.persist_ms", "ms"),
    ("store.reopen_ms", "ms"),
    ("store.hit_ms", "ms"),
    ("store.disk_bytes", "B"),
    ("exec.wall_ms", "ms"),
    ("exec.real_gflops", "GFLOP/s"),
    ("exec.busy_share", "ratio"),
    ("exec.worker_imbalance", "ratio"),
    ("tensor.kernel_gflops", "GFLOP/s"),
    ("tensor.flops", "flop"),
    ("tensor.bytes", "B"),
    ("tensor.flops_per_byte", "flop/B"),
    ("serve.latency_p50_ms", "ms"),
    ("serve.latency_p99_ms", "ms"),
    ("serve.latency_samples", "count"),
    ("serve.submit_rtt_p50_ms", "ms"),
    ("serve.submit_rtt_p99_ms", "ms"),
    ("serve.wait_p50_ms", "ms"),
    ("serve.wait_p99_ms", "ms"),
    ("serve.plan_warm_p50_ms", "ms"),
    ("serve.plan_cold_p50_ms", "ms"),
    ("serve.exec_p50_ms", "ms"),
    ("serve.warm_share", "ratio"),
    ("serve.rejected", "count"),
    ("serve.failed", "count"),
    ("load.lag_p99_ms", "ms"),
    ("bench.ops", "count"),
    ("bench.failed_share", "ratio"),
    ("bench.trace_overhead_share", "ratio"),
    ("bench.reconcile_gap_share", "ratio"),
    ("bench.host_ref_ms", "ms"),
    ("bench.raw_latency_p50_ms", "ms"),
];

/// How far the layer spans of one operation may fall short of (or exceed)
/// its wall time before the run reports a reconciliation mismatch.
pub(crate) const RECONCILE_TOLERANCE: f64 = 0.05;

/// The serve p50 is compared with the sum of its phases' medians, which
/// need not add up exactly; a wider gap than this is reported.
pub(crate) const SERVE_RECONCILE_TOLERANCE: f64 = 0.25;

/// Set-up repetitions before the window opens; `setup_s` is the median of
/// these and of the one repetition that follows every batch pass and
/// Redstar evaluation, so it samples the host across the whole run. Each
/// is scaled by the host reference taken just before it.
pub(crate) const SETUP_REPS: usize = 9;

/// The benchmark's workloads. Each exists because it is the only one on
/// which its layers do most of the work (`README.md` has the rationale).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Offline batch on an NVLink-island machine; working set fits.
    BatchFit,
    /// Offline batch on a flat machine under memory oversubscription.
    BatchEvict,
    /// The Table VI `al_rhopi` correlator executed with real kernels.
    RedstarReal,
    /// An in-process daemon under an open-loop warm/cold job mix.
    ServeMix,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] = [
        Workload::BatchFit,
        Workload::BatchEvict,
        Workload::RedstarReal,
        Workload::ServeMix,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchFit => "batch_fit",
            Workload::BatchEvict => "batch_evict",
            Workload::RedstarReal => "redstar_real",
            Workload::ServeMix => "serve_mix",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether this workload's end-to-end times are scaled by the host
    /// reference. `batch_evict` is not: its victim scans run in cache and
    /// did not follow the reference, which only added its own noise
    /// (run-to-run spread 9-10 % scaled against 4-6 % unscaled).
    pub fn host_scaled(self) -> bool {
        self != Workload::BatchEvict
    }

    /// Whether this workload calls the layer that `metric` measures. A
    /// metric of a layer the workload never calls is reported as 0; one
    /// of a layer it does call must have been measured.
    pub fn calls(self, metric: &str) -> bool {
        let layer = metric.split('.').next().unwrap_or(metric);
        if metric.starts_with("bench.") || !metric.contains('.') {
            return true;
        }
        match self {
            Workload::BatchFit | Workload::BatchEvict => matches!(
                layer,
                "workload" | "core" | "gpusim" | "analysis" | "obs" | "store"
            ),
            Workload::RedstarReal => {
                matches!(layer, "redstar" | "core" | "gpusim" | "exec" | "tensor")
            }
            Workload::ServeMix => {
                matches!(layer, "serve" | "load")
                    || matches!(
                        metric,
                        "store.reopen_ms" | "store.hit_ms" | "store.disk_bytes"
                    )
            }
        }
    }
}

/// Input size: `Full` is the benchmark; `Tiny` runs the same code paths on
/// inputs small enough for the self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `README.md` documents.
    Full,
    /// Minimal inputs with the same structure.
    Tiny,
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measurement window in seconds (operations start only inside it;
    /// at least two always run).
    pub seconds: f64,
    /// Record spans and report the per-layer metrics instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
    /// Private scratch directory (stores, span files); created and
    /// removed by [`run`].
    pub work_dir: PathBuf,
}

/// Measured values by metric name, filled in by a workload.
#[derive(Debug, Default)]
pub(crate) struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Record `value` under `name` (a name from [`END_TO_END`] or
    /// [`PER_LAYER`]).
    pub(crate) fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unregistered metric {name}"
        );
        self.0.insert(name, value);
    }

    /// The recorded value of `name`.
    pub(crate) fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Failures printed in full per run; the rest are only counted.
const MAX_REPORTED_FAILURES: u64 = 5;

/// Count of operations and of those that failed a check. An operation is
/// one batch pass, one Redstar evaluation or one served job.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    /// Operations started.
    pub attempted: u64,
    /// Operations that errored or failed any correctness check.
    pub failed: u64,
}

impl Tally {
    /// Count one operation; a failed one is reported on stderr and the
    /// run goes on.
    pub(crate) fn record(&mut self, workload: Workload, op: u64, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.failed += 1;
            if self.failed <= MAX_REPORTED_FAILURES {
                eprintln!("perfbench: {} op {op} FAILED: {msg}", workload.name());
            }
        }
    }

    /// Failed share of attempted operations.
    pub(crate) fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// What one workload run measured.
#[derive(Debug)]
pub(crate) struct Measured {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Every metric the workload took.
    pub metrics: Metrics,
    /// The benchmark's own spans (empty when tracing is off).
    pub tracer: Tracer,
}

/// The printed result of a run.
#[derive(Debug)]
pub struct Report {
    /// Every check passed and no operation failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// `(name, value, unit)` for every metric of the selected list.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// The result line: one JSON object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite f64 with every digit (Rust's shortest round-trip form); a
/// non-finite value becomes 0 and is reported by [`run`] as a failure.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_owned()
    }
}

/// Run one workload and assemble its report.
///
/// # Errors
/// Set-up failures (bad inputs, a daemon that does not start, an
/// unwritable scratch directory) and a metric the workload should have
/// measured but did not.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let started = Instant::now();
    std::fs::create_dir_all(&cfg.work_dir)
        .map_err(|e| format!("create {}: {e}", cfg.work_dir.display()))?;
    let measured = match cfg.workload {
        Workload::BatchFit => batch::run(cfg, false),
        Workload::BatchEvict => batch::run(cfg, true),
        Workload::RedstarReal => redstar::run(cfg),
        Workload::ServeMix => serve::run(cfg),
    };
    let cleanup = std::fs::remove_dir_all(&cfg.work_dir);
    let Measured {
        tally,
        mut metrics,
        tracer,
    } = measured?;
    cleanup.map_err(|e| format!("remove {}: {e}", cfg.work_dir.display()))?;
    metrics.set("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0));
    metrics.set("bench.failed_share", tally.failed_share());
    if cfg.trace {
        let path = span_file(cfg);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        std::fs::write(&path, tracer.to_chrome_json())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!(
            "perfbench: {} spans written to {}",
            tracer.spans().len(),
            path.display()
        );
    }
    let list = if cfg.trace { PER_LAYER } else { END_TO_END };
    let mut out = Vec::with_capacity(list.len());
    let mut correct = tally.failed == 0;
    for &(name, unit) in list {
        let value = match metrics.get(name) {
            Some(v) => v,
            None if cfg.workload.calls(name) => {
                return Err(format!("{} did not measure {name}", cfg.workload.name()))
            }
            None => 0.0,
        };
        if !value.is_finite() {
            eprintln!("perfbench: {name} is not finite ({value})");
            correct = false;
        }
        out.push((name, value, unit));
    }
    eprintln!(
        "perfbench: {} seed {} {} in {:.1} s",
        cfg.workload.name(),
        cfg.seed,
        if cfg.trace { "traced" } else { "untraced" },
        started.elapsed().as_secs_f64()
    );
    Ok(Report {
        correct,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: out,
    })
}

/// Where a traced run writes its spans: beside the scratch directory,
/// which is removed at the end of the run.
pub fn span_file(cfg: &Config) -> PathBuf {
    let name = format!("spans-{}-{}.json", cfg.workload.name(), cfg.seed);
    cfg.work_dir
        .parent()
        .map_or_else(|| PathBuf::from(&name), |p| p.join(&name))
}

/// Whether a new operation may start: always the first two (a traced run
/// alternates untraced and traced operations and needs one of each), then
/// only while the window lasts.
pub(crate) fn window_open(started: Instant, seconds: f64, ops: u64) -> bool {
    ops < 2 || started.elapsed().as_secs_f64() < seconds
}

/// Median of `samples`, or an error naming what was never sampled.
pub(crate) fn median_of(samples: &[f64], what: &str) -> Result<f64, String> {
    stats::median(samples).ok_or_else(|| format!("no samples of {what}"))
}

/// The worst reconciliation gap over every `root` span (see
/// [`Tracer::reconcile_gaps`]); a gap beyond [`RECONCILE_TOLERANCE`] is
/// reported on stderr, never hidden.
pub(crate) fn worst_gap(tr: &Tracer, root: &str) -> f64 {
    let worst = tr.reconcile_gaps(root).into_iter().fold(0.0, f64::max);
    if worst > RECONCILE_TOLERANCE {
        eprintln!(
            "perfbench: reconcile MISMATCH: the layer spans of a {root} differ from its wall time by {:.1}% (tolerance {:.0}%)",
            worst * 100.0,
            RECONCILE_TOLERANCE * 100.0
        );
    }
    worst
}

/// Run one set-up repetition, recording in `secs` its wall time, scaled
/// by `ref_ms` (the host reference taken just before it) when given.
pub(crate) fn set_up<T>(secs: &mut Vec<f64>, ref_ms: Option<f64>, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    let secs_taken = t0.elapsed().as_secs_f64();
    secs.push(ref_ms.map_or(secs_taken, |r| host::scaled(secs_taken, r)));
    out
}

/// Tasks per second over every operation of `tasks` tasks that took
/// `walls_ms`: total work over total time, so a run that straddles a slow
/// and a fast stretch of the host reads between the two.
pub(crate) fn throughput(tasks: f64, walls_ms: &[f64]) -> f64 {
    tasks * walls_ms.len() as f64 / (walls_ms.iter().sum::<f64>() / 1e3)
}

/// The per-layer record of the host scaling: the median reference time
/// and the median unscaled operation time.
pub(crate) fn host_metrics(
    m: &mut Metrics,
    host: &host::HostRef,
    raw_ms: &[f64],
) -> Result<(), String> {
    m.set(
        "bench.host_ref_ms",
        median_of(host.samples(), "host reference")?,
    );
    m.set(
        "bench.raw_latency_p50_ms",
        median_of(raw_ms, "raw operations")?,
    );
    Ok(())
}

/// Print a sample set on stderr, so a run's spread can be inspected.
pub(crate) fn log_samples(what: &str, samples: &[f64]) {
    let shown: Vec<String> = samples.iter().map(|v| format!("{v:.1}")).collect();
    eprintln!(
        "perfbench: {what} (n={}): {}",
        samples.len(),
        shown.join(" ")
    );
}

/// `Err(msg)` unless `ok`: the shape of every correctness check.
pub(crate) fn ensure(ok: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(msg())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_and_unit_is_legal_and_unique() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (name, unit) in &all {
            assert!(stats::valid_metric_name(name), "{name}");
            assert!(stats::valid_unit(unit), "{name}: {unit}");
        }
        let mut names: Vec<_> = all.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(stats::valid_metric_name(w.name()));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn result_line_is_one_json_object_with_exact_keys() {
        let r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("setup_s", 0.5, "s"), ("tasks_per_s", 1234.0625, "1/s")],
        };
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"tasks_per_s\": {\"value\": 1234.0625, \"unit\": \"1/s\"}}}"
        );
    }
}
