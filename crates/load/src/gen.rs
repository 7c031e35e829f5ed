//! The open-loop driver: synthetic tenant mixes with Poisson arrivals.
//!
//! **Open loop** means arrivals do not wait for completions — each
//! tenant submits on its own exponential inter-arrival clock regardless
//! of how the daemon is keeping up, which is what exposes queueing
//! behaviour (a closed loop self-throttles and hides it). Inter-arrival
//! gaps are `−ln(u)/λ` draws from a deterministic splitmix64 stream, so
//! a given `(seed, mix)` replays the same arrival schedule. Sends are due
//! at absolute times (start + Σ gaps): a submit that blocks delays only the
//! sends that fall due meanwhile, which then go out at once, and never
//! shifts or thins the rest of the schedule.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use micco_core::SessionConfig;
use micco_obs::Value;

use crate::client::{ApiError, Client};
use crate::stats::LatencyRecorder;

/// Deterministic splitmix64 — the same generator the workload crates
/// use for reproducible synthetic inputs.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeded generator.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `(0, 1]` (never 0, so `ln` is safe).
    pub fn next_unit(&mut self) -> f64 {
        (((self.next_u64() >> 11) + 1) as f64) / (1u64 << 53) as f64
    }

    /// Exponential inter-arrival gap for rate `lambda` (events/sec).
    pub fn next_exp(&mut self, lambda: f64) -> Duration {
        Duration::from_secs_f64(-self.next_unit().ln() / lambda.max(1e-9))
    }
}

/// One tenant's load profile.
#[derive(Debug, Clone)]
pub struct TenantLoad {
    /// Tenant name submitted with every job.
    pub tenant: String,
    /// Optional per-job priority override (`high`/`normal`/`low`).
    pub priority: Option<String>,
    /// Mean arrival rate, jobs per second (Poisson process).
    pub rate: f64,
    /// The job config every submission carries.
    pub config: SessionConfig,
}

impl TenantLoad {
    /// A tenant submitting `rate` jobs/sec of `config`.
    pub fn new(tenant: impl Into<String>, rate: f64, config: SessionConfig) -> TenantLoad {
        TenantLoad {
            tenant: tenant.into(),
            priority: None,
            rate,
            config,
        }
    }

    /// Set the per-job priority override.
    pub fn with_priority(mut self, priority: impl Into<String>) -> TenantLoad {
        self.priority = Some(priority.into());
        self
    }
}

/// Per-tenant outcome of one load run.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant name.
    pub tenant: String,
    /// Jobs the generator tried to submit.
    pub submitted: usize,
    /// Jobs that reached `done`.
    pub completed: usize,
    /// Submissions the daemon rejected (queue full / memory / bad).
    pub rejected: usize,
    /// Jobs that ended canceled or preempted.
    pub evicted: usize,
    /// Jobs that ended failed.
    pub failed: usize,
    /// End-to-end latency (submit → terminal, server-measured) of
    /// completed jobs.
    pub latency: LatencyRecorder,
    /// Completed jobs per second of submission window.
    pub jobs_per_sec: f64,
}

/// Whole-run outcome: per-tenant reports plus the wall-clock window.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// One report per tenant, in input order.
    pub tenants: Vec<TenantReport>,
    /// Wall-clock seconds from first submission to last terminal job.
    pub wall_secs: f64,
}

impl LoadReport {
    /// Total completed jobs per wall-clock second.
    pub fn total_jobs_per_sec(&self) -> f64 {
        let done: usize = self.tenants.iter().map(|t| t.completed).sum();
        if self.wall_secs > 0.0 {
            done as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// The report for `tenant`, if present.
    pub fn tenant(&self, tenant: &str) -> Option<&TenantReport> {
        self.tenants.iter().find(|t| t.tenant == tenant)
    }
}

/// Open-loop load run: every tenant submits on its own Poisson clock
/// for `duration`, then the run waits (up to `drain`) for all submitted
/// jobs to reach a terminal state and collects server-side latencies.
pub fn run_open_loop(
    addr: SocketAddr,
    tenants: &[TenantLoad],
    duration: Duration,
    drain: Duration,
    seed: u64,
) -> Result<LoadReport, String> {
    let client = Client::new(addr);
    client
        .healthz()
        .map_err(|e| format!("daemon not ready: {e}"))?;
    let t0 = Instant::now();
    let results: Vec<(usize, SubmitLog)> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (i, load) in tenants.iter().enumerate() {
            let client = &client;
            handles.push(scope.spawn(move || {
                (
                    i,
                    submit_loop(client, load, duration, seed ^ (i as u64 + 1)),
                )
            }));
        }
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                // a panicked submitter contributes an empty log; the
                // caller sees 0 submissions rather than a crash
                Err(_) => (usize::MAX, SubmitLog::default()),
            })
            .collect()
    });
    // drain: poll every outstanding job until terminal or timeout
    let deadline = Instant::now() + drain;
    let mut reports: Vec<TenantReport> = tenants
        .iter()
        .map(|t| TenantReport {
            tenant: t.tenant.clone(),
            submitted: 0,
            completed: 0,
            rejected: 0,
            evicted: 0,
            failed: 0,
            latency: LatencyRecorder::new(),
            jobs_per_sec: 0.0,
        })
        .collect();
    for (i, log) in results {
        let Some(report) = reports.get_mut(i) else {
            continue;
        };
        report.submitted = log.submitted;
        report.rejected = log.rejected;
        for id in log.ids {
            match poll_terminal(&client, id, deadline) {
                Some(job) => {
                    let state = job.get("state").and_then(Value::as_str).unwrap_or("");
                    match state {
                        "done" => {
                            report.completed += 1;
                            if let Some(ms) = job.get("total_ms").and_then(Value::as_f64) {
                                report.latency.record(ms);
                            }
                        }
                        "failed" => report.failed += 1,
                        _ => report.evicted += 1,
                    }
                }
                None => report.failed += 1, // never settled within drain
            }
        }
    }
    let wall_secs = t0.elapsed().as_secs_f64();
    for report in &mut reports {
        report.jobs_per_sec = report.completed as f64 / duration.as_secs_f64().max(1e-9);
    }
    Ok(LoadReport {
        tenants: reports,
        wall_secs,
    })
}

#[derive(Debug, Default)]
struct SubmitLog {
    submitted: usize,
    rejected: usize,
    ids: Vec<u64>,
}

fn submit_loop(client: &Client, load: &TenantLoad, duration: Duration, seed: u64) -> SubmitLog {
    let mut log = SubmitLog::default();
    let t0 = Instant::now();
    for due in due_times(load.rate, duration, seed) {
        // sleep until the due time; a send that is already late (a previous
        // submit stalled) goes out at once, and later sends stay on schedule
        std::thread::sleep(due.saturating_sub(t0.elapsed()));
        log.submitted += 1;
        match client.submit(&load.tenant, load.priority.as_deref(), &load.config) {
            Ok(id) => log.ids.push(id),
            Err(ApiError::Server { .. }) => log.rejected += 1,
            Err(ApiError::Transport(_)) => log.rejected += 1,
        }
    }
    log
}

/// The open-loop send schedule: due times `Σ gaps` after the start, one
/// per Poisson arrival strictly inside `duration`. It depends only on
/// `(rate, duration, seed)`, never on how long submits take.
fn due_times(rate: f64, duration: Duration, seed: u64) -> impl Iterator<Item = Duration> {
    let mut rng = SplitMix64::new(seed);
    let mut due = Duration::ZERO;
    std::iter::from_fn(move || {
        due += rng.next_exp(rate);
        (due < duration).then_some(due)
    })
}

fn poll_terminal(client: &Client, id: u64, deadline: Instant) -> Option<Value> {
    loop {
        if let Ok(job) = client.job(id) {
            let state = job.get("state").and_then(Value::as_str).unwrap_or("");
            if matches!(state, "done" | "failed" | "canceled" | "preempted") {
                return Some(job);
            }
        }
        if Instant::now() >= deadline {
            return None;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_exp_has_the_right_mean() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // mean of Exp(λ=10) is 0.1s; 10k draws land close
        let mut rng = SplitMix64::new(7);
        let mean: f64 = (0..10_000)
            .map(|_| rng.next_exp(10.0).as_secs_f64())
            .sum::<f64>()
            / 10_000.0;
        assert!((mean - 0.1).abs() < 0.01, "mean {mean}");
    }

    /// Send times of a simulated submit loop whose `i`-th submit blocks
    /// for `latency(i)`: each send waits for its due time, or goes out at
    /// once if the previous submit ran past it.
    fn simulated_sends(
        rate: f64,
        duration: Duration,
        seed: u64,
        latency: impl Fn(usize) -> Duration,
    ) -> Vec<(Duration, Duration)> {
        let mut now = Duration::ZERO;
        due_times(rate, duration, seed)
            .enumerate()
            .map(|(i, due)| {
                now += due.saturating_sub(now);
                let sent = now;
                now += latency(i);
                (due, sent)
            })
            .collect()
    }

    #[test]
    fn open_loop_schedule_ignores_submit_latency() {
        let (rate, duration) = (100.0, Duration::from_secs(20));
        let prompt = simulated_sends(rate, duration, 5, |_| Duration::ZERO);
        assert!(prompt.iter().all(|&(due, sent)| sent == due));
        // the 11th submit stalls for 2 s, past many later due times
        let stall = Duration::from_secs(2);
        let stalled = simulated_sends(rate, duration, 5, |i| {
            if i == 10 {
                stall
            } else {
                Duration::ZERO
            }
        });
        assert_eq!(prompt.len(), stalled.len(), "send count moved with latency");
        let stall_end = stalled[10].1 + stall;
        for (i, &(due, sent)) in stalled.iter().enumerate() {
            // sends due during the stall go out the moment it ends; every
            // later send goes out exactly on time (no drift)
            let expect = if i > 10 { due.max(stall_end) } else { due };
            assert_eq!(sent, expect, "send {i}");
        }
        // Poisson count: mean λT = 2000, sd ≈ 45; allow 4 sd
        let expected = rate * duration.as_secs_f64();
        for seed in [1, 2, 3] {
            let n = due_times(rate, duration, seed).count() as f64;
            assert!(
                (n - expected).abs() < 4.0 * expected.sqrt(),
                "seed {seed}: {n} sends"
            );
        }
    }

    #[test]
    fn unit_draws_stay_in_half_open_interval() {
        let mut rng = SplitMix64::new(1);
        for _ in 0..10_000 {
            let u = rng.next_unit();
            assert!(u > 0.0 && u <= 1.0, "u = {u}");
        }
    }
}
