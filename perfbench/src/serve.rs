//! `serve_mix`: an in-process `micco-serve` daemon under an open loop.
//!
//! One client thread sends jobs on absolute due times drawn from a seeded
//! Poisson schedule (`micco_load::SplitMix64`) through `micco_load::Client`.
//! Three jobs in four repeat one of a few hot configs, whose plans set-up
//! put in the daemon's store, so they are warm store reads; the rest carry
//! fresh seeds, so each is a cold plan plus a write-ahead-log append. (With
//! an even split the median would sit between the warm and the cold mode
//! and jump with the sampled share; see `README.md`.)
//!
//! A job is timed from its due time, not from when it was sent, so a
//! stalled client counts against latency instead of hiding it. Its
//! latency is `(submit returned − due) + total_ms`, where `total_ms` is the
//! daemon's admission-to-terminal time; the submit response leg after
//! admission is therefore counted twice, a few microseconds.

use std::path::Path;
use std::time::{Duration, Instant};

use micco_core::{DurablePlanCache, PlanCache, PlanKey, SchedulePlan, SessionConfig};
use micco_load::{Client, SplitMix64};
use micco_obs::Value;
use micco_serve::{ServeConfig, Service};

use crate::host::{scaled, HostRef};
use crate::spans::Tracer;
use crate::stats::{self, percentile, quantile};
use crate::{ensure, median_of, set_up, Config, Measured, Metrics, Scale, Tally, SETUP_REPS};

/// Mean arrival rate of the open loop, jobs per second. Well below the
/// knee even when the shared host runs slow: at 200 jobs/s the median
/// tripled in slow stretches of the host (see `README.md`).
const RATE: f64 = 100.0;
/// Configs whose plans are warm in the daemon's store.
const HOT: u64 = 8;
/// Simulated GPUs in the daemon's pool; each job asks for half.
const POOL_GPUS: usize = 8;
/// Admission queue bound, far above what the rate needs, so the mix
/// measures latency rather than rejections.
const MAX_QUEUE: usize = 256;
/// How long the daemon gets to settle every job after the window.
const DRAIN: Duration = Duration::from_secs(60);
const TENANT: &str = "perfbench";

/// A 640-task job on 4 GPUs (16 at `Scale::Tiny`) with the given seed.
fn job_config(seed: u64, scale: Scale) -> SessionConfig {
    let mut c = SessionConfig::new();
    c.vector_size = 64;
    c.vectors = 10;
    c.gpus = POOL_GPUS / 2;
    c.seed = seed;
    if scale == Scale::Tiny {
        c.vector_size = 8;
        c.vectors = 2;
    }
    c
}

/// Job seeds travel as JSON numbers, exact below 2^53. Hot seeds have
/// bit 52 clear and fresh seeds have it set, so no fresh job can hit a
/// hot plan.
const FRESH_BIT: u64 = 1 << 52;

fn hot_seed(run_seed: u64, k: u64) -> u64 {
    run_seed.wrapping_mul(HOT).wrapping_add(k) % FRESH_BIT
}

fn fresh_seed(run_seed: u64, job: u64) -> u64 {
    FRESH_BIT | (((run_seed << 24) ^ job) % FRESH_BIT)
}

/// One scheduled job: when it is due (from the window's start) and which
/// config it carries (`hot = Some(k)` for the k-th hot config).
struct Arrival {
    due: Duration,
    hot: Option<u64>,
    seed: u64,
}

/// The seeded open-loop schedule for a window of `seconds`.
fn schedule(run_seed: u64, seconds: f64) -> Vec<Arrival> {
    let mut rng = SplitMix64::new(run_seed ^ 0x5e5e_5e5e);
    let mut due = Duration::ZERO;
    let mut out = Vec::new();
    loop {
        due += rng.next_exp(RATE);
        if due.as_secs_f64() >= seconds && out.len() >= 2 {
            return out;
        }
        let job = out.len() as u64;
        // three jobs in four are hot
        let warm = !rng.next_u64().is_multiple_of(4);
        let hot = warm.then(|| rng.next_u64() % HOT);
        let seed = hot.map_or_else(|| fresh_seed(run_seed, job), |k| hot_seed(run_seed, k));
        out.push(Arrival { due, hot, seed });
    }
}

/// Start a daemon over the store in `dir` and warm it with every hot
/// config: the set-up a service operator pays once.
fn start(dir: &Path, run_seed: u64, scale: Scale) -> Result<Service, String> {
    let service = Service::start(
        "127.0.0.1:0",
        ServeConfig {
            pool_gpus: POOL_GPUS,
            max_queue: MAX_QUEUE,
            store: Some(dir.to_path_buf()),
            time_scale: 0.0,
            ..ServeConfig::default()
        },
    )?;
    let client = Client::new(service.addr());
    client.healthz()?;
    for k in 0..HOT {
        client
            .submit(TENANT, None, &job_config(hot_seed(run_seed, k), scale))
            .map_err(|e| format!("warm-up submit: {e}"))?;
    }
    ensure(service.scheduling().wait_idle(DRAIN), || {
        "warm-up jobs did not settle".to_owned()
    })?;
    Ok(service)
}

/// Digest of a plan's decisions: the plan text with the measured
/// planning time zeroed, since two runs of one decision differ only there.
fn decision_digest(plan: &SchedulePlan) -> u64 {
    SchedulePlan {
        overhead_secs: 0.0,
        ..plan.clone()
    }
    .digest()
}

/// Seconds of the schedule between two host references. At each boundary
/// the loop lets the daemon drain, sorts the reference keys, and resumes
/// the schedule shifted by the pause; within a segment the loop is open.
const SEGMENT_S: f64 = 1.0;

/// What the client saw of one job.
struct Sent {
    arrival: Arrival,
    /// The schedule segment the job was due in.
    segment: usize,
    traced: bool,
    lag_ms: f64,
    rtt_ms: f64,
    /// Submit returned − due.
    returned_ms: f64,
    id: Result<u64, String>,
}

/// What the daemon reported for one completed job.
struct Done {
    latency_ms: f64,
    wait_ms: f64,
    plan_ms: f64,
    exec_ms: f64,
    /// Plan + exec, scaled by the host references around its segment.
    service_ms: f64,
    tasks: f64,
    warm: bool,
}

fn num(v: &Value, path: &[&str]) -> Result<f64, String> {
    path.iter()
        .try_fold(v, |v, key| v.get(key))
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("job record lacks {}", path.join(".")))
}

/// Check one job's final record against what the client expects of it.
fn settle(sent: &Sent, job: &Value, hot_ms: &[f64], ref_ms: f64) -> Result<Done, String> {
    let state = job.get("state").and_then(Value::as_str).unwrap_or("?");
    ensure(state == "done", || {
        format!("job ended {state}: {:?}", job.get("error"))
    })?;
    let warm = job
        .get("result")
        .and_then(|r| r.get("warm"))
        .and_then(Value::as_bool)
        .ok_or("job record lacks result.warm")?;
    ensure(warm == sent.arrival.hot.is_some(), || {
        format!("hot config {:?} served warm = {warm}", sent.arrival.hot)
    })?;
    let sim_ms = num(job, &["result", "sim_elapsed_ms"])?;
    if let Some(k) = sent.arrival.hot {
        let expected = hot_ms[k as usize];
        ensure(sim_ms.to_bits() == expected.to_bits(), || {
            format!("hot config {k} simulated {sim_ms} ms, in-process Session {expected} ms")
        })?;
    }
    let plan_ms = num(job, &["result", "plan_ms"])?;
    let exec_ms = num(job, &["result", "exec_ms"])?;
    Ok(Done {
        latency_ms: sent.returned_ms + num(job, &["total_ms"])?,
        wait_ms: num(job, &["wait_ms"])?,
        plan_ms,
        exec_ms,
        service_ms: scaled(plan_ms + exec_ms, ref_ms),
        tasks: num(job, &["result", "plan_tasks"])?,
        warm,
    })
}

/// The daemon's store after shutdown: reopen it and read a hot plan back,
/// which must be the plan an in-process `Session` decides. Returns the
/// store's size on disk.
fn reread_store(tr: &mut Tracer, dir: &Path, key: PlanKey, digest: u64) -> Result<f64, String> {
    let mut cache = tr
        .span("store.reopen", 0, |_| DurablePlanCache::open(dir))
        .map_err(|e| format!("reopen: {e}"))?;
    let hit = tr.span("store.hit", 0, |_| cache.lookup(key).map(decision_digest));
    ensure(hit == Some(digest), || {
        format!("reopened daemon store served {hit:?} for a hot config, in-process plan {digest}")
    })?;
    Ok(cache.stats().store.disk_bytes as f64)
}

pub(crate) fn run(cfg: &Config) -> Result<Measured, String> {
    let mut tr = Tracer::new(cfg.trace);
    // Set-up runs before the window and again after it, so `setup_s`
    // samples the host at both ends of the run; the last daemon started
    // before the window serves it. A host reference precedes each.
    let mut host = HostRef::new();
    let mut setup_secs = Vec::with_capacity(2 * SETUP_REPS);
    let mut setup = |tr: &mut Tracer, host: &mut HostRef, name: String| {
        let dir = cfg.work_dir.join(name);
        let ref_ms = host.sample();
        set_up(&mut setup_secs, Some(ref_ms), || {
            tr.span("setup", 0, |_| start(&dir, cfg.seed, cfg.scale))
        })
        .map(|service| (service, dir))
    };
    for rep in 1..SETUP_REPS {
        Service::shutdown(setup(&mut tr, &mut host, format!("store-{rep}"))?.0);
    }
    let (service, store_dir) = setup(&mut tr, &mut host, "store".to_owned())?;

    // The in-process answer for every hot config, and the store key and
    // plan digest of the first: checks, so outside the set-up clock.
    let mut hot_ms = Vec::new();
    let mut hot_key = None;
    for k in 0..HOT {
        let config = job_config(hot_seed(cfg.seed, k), cfg.scale);
        let stream = config.stream().map_err(|e| e.to_string())?;
        let session = config.session(&stream).map_err(|e| e.to_string())?;
        let mut scheduler = config.build_scheduler().map_err(|e| e.to_string())?;
        let planned = session
            .plan(scheduler.as_mut(), &stream)
            .map_err(|e| e.to_string())?;
        let report = planned.execute(&stream).map_err(|e| e.to_string())?;
        hot_ms.push(report.elapsed_secs() * 1e3);
        if hot_key.is_none() {
            let key = PlanCache::key_for_with_topology(
                scheduler.as_ref(),
                &stream,
                session.config(),
                *session.options(),
                session.topology(),
            );
            hot_key = Some((key, decision_digest(planned.plan())));
        }
    }

    let client = Client::new(service.addr());
    let mut sent = Vec::new();
    // refs[k] and refs[k + 1] are the host references around segment k
    let mut refs = vec![host.sample()];
    let mut started = Instant::now();
    for (i, arrival) in schedule(cfg.seed, cfg.seconds).into_iter().enumerate() {
        let segment = (arrival.due.as_secs_f64() / SEGMENT_S) as usize;
        while refs.len() <= segment {
            let paused = Instant::now();
            service.scheduling().wait_idle(DRAIN);
            refs.push(host.sample());
            started += paused.elapsed();
        }
        let due = started + arrival.due;
        if let Some(ahead) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(ahead);
        }
        let config = job_config(arrival.seed, cfg.scale);
        // a traced run traces every other job, so the tracing overhead is
        // measured under the same load
        let traced = cfg.trace && i % 2 == 1;
        tr.set_on(traced);
        let t_send = Instant::now();
        let id = tr
            .span("load.submit", i as u64, |_| {
                client.submit(TENANT, None, &config)
            })
            .map_err(|e| e.to_string());
        let t_ret = Instant::now();
        tr.set_on(cfg.trace);
        sent.push(Sent {
            arrival,
            segment,
            traced,
            lag_ms: t_send.duration_since(due).as_secs_f64() * 1e3,
            rtt_ms: t_ret.duration_since(t_send).as_secs_f64() * 1e3,
            returned_ms: t_ret.duration_since(due).as_secs_f64() * 1e3,
            id,
        });
    }
    let drained = service.scheduling().wait_idle(DRAIN);
    refs.push(host.sample());

    let mut tally = Tally::default();
    let mut done: Vec<(bool, Done)> = Vec::new();
    let mut rejected = 0u64;
    for (i, s) in sent.iter().enumerate() {
        let outcome = match &s.id {
            Err(e) => {
                rejected += 1;
                Err(format!("submit rejected: {e}"))
            }
            Ok(id) => tr
                .span("serve.status", i as u64, |_| client.job(*id))
                .map_err(|e| format!("status: {e}"))
                .and_then(|job| {
                    let ref_ms = (refs[s.segment] + refs[s.segment + 1]) / 2.0;
                    settle(s, &job, &hot_ms, ref_ms)
                })
                .map(|d| done.push((s.traced, d))),
        };
        tally.record(cfg.workload, i as u64, outcome);
    }
    Service::shutdown(service);
    if !drained {
        eprintln!("perfbench: serve_mix: jobs still running after {DRAIN:?}");
    }

    let (key, digest) = hot_key.ok_or("no hot config")?;
    let mut disk_bytes = 0.0;
    let store_check = reread_store(&mut tr, &store_dir, key, digest).map(|b| disk_bytes = b);
    tally.record(cfg.workload, sent.len() as u64, store_check);
    for rep in 0..SETUP_REPS {
        Service::shutdown(setup(&mut tr, &mut host, format!("store-after-{rep}"))?.0);
    }

    let mut metrics = Metrics::default();
    metrics.set("setup_s", median_of(&setup_secs, "set-up")?);
    let all = |f: fn(&Done) -> f64| done.iter().map(|(_, d)| f(d)).collect::<Vec<f64>>();
    let untraced: Vec<f64> = done
        .iter()
        .filter(|(traced, _)| !traced)
        .map(|(_, d)| d.latency_ms)
        .collect();
    let p50 = median_of(&untraced, "untraced job latencies")?;
    // The gated latency is the daemon's service time (plan + exec): from
    // the due time, the p50 rides on how fast this shared host wakes idle
    // threads, which swings 2-10 ms within one run (see README.md).
    let untraced_service = |f: fn(&Done) -> f64| -> Vec<f64> {
        done.iter()
            .filter(|(traced, _)| !traced)
            .map(|(_, d)| f(d))
            .collect()
    };
    let raw_service_p50 = median_of(
        &untraced_service(|d| d.plan_ms + d.exec_ms),
        "untraced job service times",
    )?;
    crate::log_samples("host reference ms", host.samples());
    eprintln!(
        "perfbench: serve_mix latency p50 {p50:.3} ms, service p50 {raw_service_p50:.3} ms over n={} untraced jobs",
        untraced.len()
    );
    metrics.set(
        "latency_p50_ms",
        median_of(&untraced_service(|d| d.service_ms), "service times")?,
    );
    // Each job is charged its class's median service time (warm store
    // read or cold plan): a plain sum let a few jobs stalled by the host
    // for tens of ms move the rate by a third from run to run.
    let mut busy_ms = 0.0;
    for warm in [true, false] {
        let class: Vec<f64> = done
            .iter()
            .filter(|(_, d)| d.warm == warm)
            .map(|(_, d)| d.service_ms)
            .collect();
        if let Some(med) = stats::median(&class) {
            busy_ms += med * class.len() as f64;
        }
    }
    let tasks: f64 = all(|d| d.tasks).iter().sum();
    metrics.set("tasks_per_s", tasks / (busy_ms / 1e3));
    if cfg.trace {
        let m = &mut metrics;
        let latency = all(|d| d.latency_ms);
        let p99 = quantile(&latency, 99.0).ok_or("no completed jobs")?;
        m.set("serve.latency_p50_ms", p50);
        m.set("serve.latency_p99_ms", p99.value);
        m.set("serve.latency_samples", p99.n as f64);
        let rtt: Vec<f64> = sent
            .iter()
            .filter(|s| s.id.is_ok())
            .map(|s| s.rtt_ms)
            .collect();
        let wait = all(|d| d.wait_ms);
        let plan = all(|d| d.plan_ms);
        let exec = all(|d| d.exec_ms);
        let pct = |v: &[f64], p: f64| percentile(v, p).unwrap_or(0.0);
        m.set("serve.submit_rtt_p50_ms", pct(&rtt, 50.0));
        m.set("serve.submit_rtt_p99_ms", pct(&rtt, 99.0));
        m.set("serve.wait_p50_ms", pct(&wait, 50.0));
        m.set("serve.wait_p99_ms", pct(&wait, 99.0));
        let plan_of = |warm: bool| -> Vec<f64> {
            done.iter()
                .filter(|(_, d)| d.warm == warm)
                .map(|(_, d)| d.plan_ms)
                .collect()
        };
        m.set("serve.plan_warm_p50_ms", pct(&plan_of(true), 50.0));
        m.set("serve.plan_cold_p50_ms", pct(&plan_of(false), 50.0));
        m.set("serve.exec_p50_ms", pct(&exec, 50.0));
        m.set(
            "serve.warm_share",
            plan_of(true).len() as f64 / done.len().max(1) as f64,
        );
        m.set("serve.rejected", rejected as f64);
        m.set(
            "serve.failed",
            (sent.len() as u64 - rejected - done.len() as u64) as f64,
        );
        let lag: Vec<f64> = sent.iter().map(|s| s.lag_ms).collect();
        m.set("load.lag_p99_ms", pct(&lag, 99.0));
        m.set(
            "store.reopen_ms",
            median_of(&tr.durations_ms("store.reopen"), "reopen")?,
        );
        m.set(
            "store.hit_ms",
            median_of(&tr.durations_ms("store.hit"), "hit")?,
        );
        m.set("store.disk_bytes", disk_bytes);
        m.set("bench.ops", done.len() as f64);
        let traced: Vec<f64> = done
            .iter()
            .filter(|(traced, _)| *traced)
            .map(|(_, d)| d.latency_ms)
            .collect();
        m.set(
            "bench.trace_overhead_share",
            median_of(&traced, "traced job latencies")? / p50 - 1.0,
        );
        // p50 against the sum of its parts' medians: client lateness,
        // submit round trip, queue wait, planning and simulation
        let parts = pct(&lag, 50.0)
            + pct(&rtt, 50.0)
            + pct(&wait, 50.0)
            + pct(&plan, 50.0)
            + pct(&exec, 50.0);
        let all_p50 = pct(&latency, 50.0);
        let gap = (all_p50 - parts).abs() / all_p50;
        if gap > crate::SERVE_RECONCILE_TOLERANCE {
            eprintln!(
                "perfbench: reconcile MISMATCH: serve p50 {all_p50:.3} ms vs lag+rtt+wait+plan+exec p50s {parts:.3} ms ({:.1}%, tolerance {:.0}%)",
                gap * 100.0,
                crate::SERVE_RECONCILE_TOLERANCE * 100.0
            );
        }
        m.set("bench.reconcile_gap_share", gap);
        m.set(
            "bench.host_ref_ms",
            median_of(host.samples(), "host reference")?,
        );
        m.set("bench.raw_latency_p50_ms", raw_service_p50);
    }
    Ok(Measured {
        tally,
        metrics,
        tracer: tr,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_repeat_per_seed_and_keep_hot_and_fresh_apart() {
        let a = schedule(7, 4.0);
        let b = schedule(7, 4.0);
        assert_eq!(
            a.iter().map(|x| (x.due, x.seed)).collect::<Vec<_>>(),
            b.iter().map(|x| (x.due, x.seed)).collect::<Vec<_>>()
        );
        // about RATE jobs per second, about three in four of them hot
        assert!((300..500).contains(&a.len()), "{} jobs", a.len());
        let hot = a.iter().filter(|x| x.hot.is_some()).count() as f64 / a.len() as f64;
        assert!((0.65..0.85).contains(&hot), "{hot} hot");
        for x in &a {
            assert_eq!(x.hot.is_some(), x.seed & FRESH_BIT == 0);
            assert!(x.seed < 1 << 53);
            assert!(x.due.as_secs_f64() < 4.0);
        }
        let mut fresh: Vec<u64> = a
            .iter()
            .filter(|x| x.hot.is_none())
            .map(|x| x.seed)
            .collect();
        let n = fresh.len();
        fresh.sort_unstable();
        fresh.dedup();
        assert_eq!(fresh.len(), n, "fresh seeds repeat");
    }
}
