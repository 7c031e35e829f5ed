//! `batch_fit` and `batch_evict`: one offline correlator batch per pass.
//!
//! A pass is `Session::plan` → `analyze_plan_with_topology` → simulated
//! execution under a `Recorder` (the trace certification needs) →
//! `certify_trace_with` → `DurablePlanCache::persist`, reopen and log hit.
//! The two workloads share the pass and differ in the machine: `batch_fit`
//! fits in memory on two NVLink islands, `batch_evict` oversubscribes a
//! flat machine so the eviction path does the work.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use micco_analysis::{
    analyze_plan_with_topology, certify_trace_with, AnalysisConfig, CertifyConfig,
};
use micco_core::{
    execute_plan_with_topology, DriverOptions, DurablePlanCache, PlanCache, SchedulePlan,
    ScheduleReport, Session, SessionConfig,
};
use micco_gpusim::{LinkTopology, MachineConfig, SimMachine};
use micco_obs::{Recorder, SpanObserver};
use micco_workload::TensorPairStream;

use crate::host::{scaled, HostRef};
use crate::spans::Tracer;
use crate::{
    ensure, median_of, set_up, window_open, Config, Measured, Metrics, Scale, Tally, SETUP_REPS,
};

/// The job a batch user submits: a Gaussian-reuse correlator stream.
fn session_config(seed: u64, evict: bool, scale: Scale) -> SessionConfig {
    let mut c = SessionConfig::new();
    c.vector_size = 1000;
    c.tensor_size = 64;
    c.rate = 0.6;
    c.dist = "gaussian".to_owned();
    c.seed = seed;
    c.gpus = 8;
    if evict {
        c.vectors = 20;
        c.oversub = 1.5;
    } else {
        c.vectors = 100;
        c.topology = Some("nvlink{gpus:8, island:2}".to_owned());
        c.topology_aware = true;
    }
    if scale == Scale::Tiny {
        c.vector_size = 40;
        c.vectors = 4;
    }
    c
}

/// Everything a pass needs, built once in set-up.
struct Job {
    config: SessionConfig,
    stream: TensorPairStream,
    machine: MachineConfig,
    topology: Option<LinkTopology>,
    options: DriverOptions,
}

impl Job {
    fn build(config: SessionConfig, tr: &mut Tracer) -> Result<Job, String> {
        config.validate().map_err(|e| e.to_string())?;
        let stream = tr
            .span("workload.generate", 0, |_| config.stream())
            .map_err(|e| e.to_string())?;
        let machine = config.machine(&stream);
        let topology = config.link_topology().map_err(|e| e.to_string())?;
        let mut options = DriverOptions::default();
        if config.topology_aware {
            options = options.with_topology_aware();
        }
        Ok(Job {
            config,
            stream,
            machine,
            topology,
            options,
        })
    }

    /// A fresh simulator for this job's machine and topology.
    fn sim(&self, options: DriverOptions) -> SimMachine {
        let mut m = SimMachine::new(options.apply(&self.machine));
        m.set_topology(self.topology.clone());
        m
    }
}

/// What one pass produced, for the per-layer counts.
struct PassOut {
    plan: SchedulePlan,
    report: ScheduleReport,
    cross_island_bytes: u64,
    lint_warnings: usize,
    trace_events: usize,
    disk_bytes: u64,
    assign_secs: f64,
}

/// Lint and certify errors summed over every pass of a run.
#[derive(Debug, Default)]
struct Errors {
    lint: usize,
    certify: usize,
}

/// One checked pass. `measure` additionally times `Scheduler::assign`
/// (traced runs only: the per-call clock reads are tracing cost).
fn pass(
    job: &Job,
    tr: &mut Tracer,
    op: u64,
    measure: bool,
    dir: &Path,
    errors: &mut Errors,
) -> Result<PassOut, String> {
    let options = if measure {
        job.options.with_measure_overhead()
    } else {
        job.options
    };
    let run_cfg = options.apply(&job.machine);
    let topo = job.topology.as_ref();
    tr.span("pass", op, |tr| {
        let mut scheduler = job.config.build_scheduler().map_err(|e| e.to_string())?;
        let mut session = Session::new(job.machine).with_options(options);
        if let Some(t) = topo {
            session = session.with_topology(t.clone());
        }
        let planned = tr
            .span("core.plan", op, |_| {
                session.plan(scheduler.as_mut(), &job.stream)
            })
            .map_err(|e| format!("plan: {e}"))?;
        let plan = planned.plan();
        tr.span("check.validate", op, |_| plan.validate(&job.stream))
            .map_err(|e| format!("plan does not validate: {e}"))?;

        let lint = tr.span("analysis.lint", op, |_| {
            analyze_plan_with_topology(
                plan,
                &job.stream,
                &run_cfg,
                &AnalysisConfig::default(),
                topo,
            )
        });
        errors.lint += lint.errors();
        ensure(lint.errors() == 0, || {
            format!("lint errors:\n{}", lint.render_text())
        })?;

        let recorder = Recorder::shared();
        let (report, cross_island_bytes) = tr
            .span("gpusim.execute_traced", op, |_| {
                let mut machine = job.sim(options);
                machine.set_observer(Box::new(SpanObserver::new(
                    Arc::clone(&recorder) as Arc<dyn micco_obs::TraceSink>
                )));
                execute_plan_with_topology(plan, &job.stream, &mut machine, options, topo)
                    .map(|r| (r, machine.cross_island_traffic().1))
            })
            .map_err(|e| format!("simulate: {e}"))?;
        // the recorder and its events are dropped inside the span, so the
        // pass's wall time stays covered by its layer spans
        let (cert, trace_events) = tr.span("analysis.certify", op, move |_| {
            let events = recorder.events();
            let cert = certify_trace_with(
                plan,
                &job.stream,
                &run_cfg,
                &CertifyConfig::default(),
                topo,
                &events,
            );
            (cert, events.len())
        });
        errors.certify += cert.errors();
        ensure(cert.errors() == 0, || {
            format!("certify errors:\n{}", cert.render_text())
        })?;
        ensure(
            report.stats.total_tasks() == job.stream.total_tasks() as u64,
            || "simulator ran a different number of tasks".to_owned(),
        )?;

        let key = tr
            .span("store.persist", op, |_| {
                let key = PlanCache::key_for_with_topology(
                    scheduler.as_ref(),
                    &job.stream,
                    &job.machine,
                    options,
                    topo,
                );
                let mut cache = DurablePlanCache::open(dir)?;
                cache.persist(key, plan).map(|()| key)
            })
            .map_err(|e| format!("persist: {e}"))?;
        let mut cache = tr
            .span("store.reopen", op, |_| DurablePlanCache::open(dir))
            .map_err(|e| format!("reopen: {e}"))?;
        let digest = tr.span("store.hit", op, |_| {
            cache.lookup(key).map(SchedulePlan::digest)
        });
        ensure(
            digest == Some(plan.digest()) && cache.log_hits() == 1,
            || {
                format!(
                    "reopened store served {digest:?} ({} log hits), planned {}",
                    cache.log_hits(),
                    plan.digest()
                )
            },
        )?;
        Ok(PassOut {
            report,
            cross_island_bytes,
            lint_warnings: lint.warnings(),
            trace_events,
            disk_bytes: cache.stats().store.disk_bytes,
            assign_secs: plan.overhead_secs,
            plan: planned.into_plan(),
        })
    })
}

pub(crate) fn run(cfg: &Config, evict: bool) -> Result<Measured, String> {
    let mut tr = Tracer::new(cfg.trace);
    let config = session_config(cfg.seed, evict, cfg.scale);
    let scale = cfg.workload.host_scaled();
    let mut host = HostRef::new();
    let mut setup_secs = Vec::new();
    let setup = |tr: &mut Tracer, secs: &mut Vec<f64>, ref_ms: f64, op: u64| {
        set_up(secs, Some(ref_ms).filter(|_| scale), || {
            tr.span("setup", op, |tr| Job::build(config.clone(), tr))
        })
    };
    for _ in 1..SETUP_REPS {
        let ref_ms = host.sample();
        setup(&mut tr, &mut setup_secs, ref_ms, 0)?;
    }
    let mut ref_before = host.sample();
    let mut job = setup(&mut tr, &mut setup_secs, ref_before, 0)?;
    let tasks = job.stream.total_tasks() as f64;

    let mut metrics = Metrics::default();
    let mut tally = Tally::default();
    // pass times scaled by the mean of the host references taken just
    // before and just after the pass; the raw ones for the log
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut raw_ms = Vec::new();
    let mut last = None;
    let mut errors = Errors::default();
    let started = Instant::now();
    let mut op = 0u64;
    while window_open(started, cfg.seconds, op) {
        op += 1;
        let dir = cfg.work_dir.join(format!("store-{op}"));
        // A traced run alternates untraced and traced passes, so the
        // tracing overhead is measured on the same machine state.
        let traced = cfg.trace && op.is_multiple_of(2);
        tr.set_on(traced);
        let t0 = Instant::now();
        let out = pass(&job, &mut tr, op, traced, &dir, &mut errors);
        let raw = t0.elapsed().as_secs_f64() * 1e3;
        tr.set_on(cfg.trace);
        let ref_after = host.sample();
        let wall_ms = if scale {
            scaled(raw, (ref_before + ref_after) / 2.0)
        } else {
            raw
        };
        ref_before = ref_after;
        std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
        let outcome = out.and_then(|o| {
            if !traced {
                untraced_ms.push(wall_ms);
                raw_ms.push(raw);
                return Ok(());
            }
            traced_ms.push(wall_ms);
            // the untraced simulator time, for obs.record_ms
            tr.span("gpusim.execute", op, |_| {
                let mut machine = job.sim(job.options);
                execute_plan_with_topology(
                    &o.plan,
                    &job.stream,
                    &mut machine,
                    job.options,
                    job.topology.as_ref(),
                )
            })
            .map_err(|e| format!("untraced simulate: {e}"))?;
            last = Some(o);
            Ok(())
        });
        tally.record(cfg.workload, op, outcome);
        job = setup(&mut tr, &mut setup_secs, ref_after, op)?;
    }

    crate::log_samples("operation wall ms", &raw_ms);
    crate::log_samples("host reference ms", host.samples());
    metrics.set("setup_s", median_of(&setup_secs, "set-up")?);
    let latency_ms = median_of(&untraced_ms, "untraced passes")?;
    metrics.set("latency_p50_ms", latency_ms);
    metrics.set("tasks_per_s", crate::throughput(tasks, &untraced_ms));
    if cfg.trace {
        layer_metrics(&tr, &mut metrics, last.as_ref(), latency_ms, &traced_ms)?;
        crate::host_metrics(&mut metrics, &host, &raw_ms)?;
        metrics.set("analysis.lint_errors", errors.lint as f64);
        metrics.set("analysis.certify_errors", errors.certify as f64);
    }
    Ok(Measured {
        tally,
        metrics,
        tracer: tr,
    })
}

fn layer_metrics(
    tr: &Tracer,
    m: &mut Metrics,
    out: Option<&PassOut>,
    untraced_ms: f64,
    traced_ms: &[f64],
) -> Result<(), String> {
    let out = out.ok_or("no traced pass succeeded")?;
    let med = |name: &str| median_of(&tr.durations_ms(name), name);
    m.set("workload.generate_ms", med("workload.generate")?);
    m.set("core.plan_ms", med("core.plan")?);
    m.set("core.assign_ms", out.assign_secs * 1e3);
    let execute_ms = med("gpusim.execute")?;
    m.set("gpusim.execute_ms", execute_ms);
    m.set("obs.record_ms", med("gpusim.execute_traced")? - execute_ms);
    m.set("obs.trace_events", out.trace_events as f64);
    sim_counts(m, &out.report);
    m.set("gpusim.cross_island_bytes", out.cross_island_bytes as f64);
    m.set("analysis.lint_ms", med("analysis.lint")?);
    m.set("analysis.certify_ms", med("analysis.certify")?);
    m.set("analysis.lint_warnings", out.lint_warnings as f64);
    m.set("store.persist_ms", med("store.persist")?);
    m.set("store.reopen_ms", med("store.reopen")?);
    m.set("store.hit_ms", med("store.hit")?);
    m.set("store.disk_bytes", out.disk_bytes as f64);
    m.set("bench.ops", traced_ms.len() as f64);
    m.set(
        "bench.trace_overhead_share",
        median_of(traced_ms, "traced passes")? / untraced_ms - 1.0,
    );
    m.set("bench.reconcile_gap_share", crate::worst_gap(tr, "pass"));
    Ok(())
}

/// The simulator's deterministic counts for one executed plan.
pub(crate) fn sim_counts(m: &mut Metrics, report: &ScheduleReport) {
    let s = &report.stats;
    let sum = |f: fn(&micco_gpusim::GpuStats) -> u64| s.per_gpu.iter().map(f).sum::<u64>() as f64;
    m.set("gpusim.makespan_ms", s.elapsed_secs * 1e3);
    m.set("gpusim.h2d_bytes", sum(|g| g.h2d_bytes));
    m.set("gpusim.d2d_bytes", sum(|g| g.d2d_bytes));
    m.set("gpusim.evictions", s.total_evictions() as f64);
    let hits = s.total_reuse_hits() as f64;
    let fetches = (s.total_h2d() + s.total_d2d()) as f64;
    m.set("gpusim.reuse_hit_ratio", hits / (hits + fetches).max(1.0));
    m.set(
        "gpusim.idle_share",
        s.total_idle_secs() / (s.elapsed_secs * s.per_gpu.len() as f64).max(f64::MIN_POSITIVE),
    );
    m.set("gpusim.imbalance", s.imbalance());
}
