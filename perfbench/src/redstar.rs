//! `redstar_real`: the Table VI `al_rhopi` correlator on real kernels.
//!
//! Set-up stages the correlator with `build_correlator` and generates its
//! input (leaf) tensors from the seed. Each evaluation plans it with MICCO
//! onto two devices and runs the plan with `micco_exec::execute_plan` on
//! two worker threads, starting from a store that holds only the inputs.
//! The checksum must be bit-identical to a single-worker reference
//! computed once before the window opens.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use micco_core::{DriverOptions, MiccoScheduler, ReuseBounds, SchedulePlan, Session};
use micco_exec::{execute_plan, ExecOptions, ExecOutcome, TensorStore};
use micco_gpusim::MachineConfig;
use micco_redstar::{al_rhopi, build_correlator, CorrelatorProgram, PresetScale};
use micco_tensor::{contraction_flops, BatchedMatrix, Complex64, ContractionKind};
use micco_workload::TensorId;

use crate::host::{scaled, HostRef};
use crate::spans::Tracer;
use crate::{
    ensure, median_of, set_up, window_open, Config, Measured, Metrics, Scale, Tally, SETUP_REPS,
};

/// Devices the correlator is planned onto, and worker threads it runs on.
const DEVICES: usize = 2;
/// Calls behind the `tensor.kernel_gflops` median.
const KERNEL_REPS: usize = 9;

fn plan(
    program: &CorrelatorProgram,
    devices: usize,
    measure: bool,
) -> Result<SchedulePlan, String> {
    let mut options = DriverOptions::default();
    if measure {
        options = options.with_measure_overhead();
    }
    Session::new(MachineConfig::mi100_like(devices))
        .with_options(options)
        .plan(
            &mut MiccoScheduler::new(ReuseBounds::new(0, 2, 0)),
            &program.stream,
        )
        .map(micco_core::Planned::into_plan)
        .map_err(|e| format!("plan: {e}"))
}

/// The correlator's inputs: every operand no task produces, generated
/// from the seed.
struct Inputs {
    shape: (usize, usize),
    seed: u64,
    leaves: Vec<(TensorId, Arc<BatchedMatrix>)>,
}

impl Inputs {
    fn generate(program: &CorrelatorProgram, shape: (usize, usize), seed: u64) -> Inputs {
        let tasks = || program.stream.vectors.iter().flat_map(|v| &v.tasks);
        let produced: HashSet<TensorId> = tasks().map(|t| t.out.id).collect();
        let mut seen = HashSet::new();
        let generator = TensorStore::new(shape.0, shape.1, seed);
        let leaves = tasks()
            .flat_map(|t| [t.a.id, t.b.id])
            .filter(|id| !produced.contains(id) && seen.insert(*id))
            .map(|id| (id, generator.fetch(id)))
            .collect();
        Inputs {
            shape,
            seed,
            leaves,
        }
    }

    /// A store holding the inputs and nothing else.
    fn store(&self) -> TensorStore {
        let store = TensorStore::new(self.shape.0, self.shape.1, self.seed);
        for (id, leaf) in &self.leaves {
            store.insert(*id, Arc::clone(leaf));
        }
        store
    }
}

fn bits(c: Complex64) -> (u64, u64) {
    (c.re.to_bits(), c.im.to_bits())
}

/// One checked evaluation: plan, execute on real kernels, compare the
/// checksum with the reference.
fn evaluate(
    program: &CorrelatorProgram,
    inputs: &Inputs,
    reference: Complex64,
    tr: &mut Tracer,
    op: u64,
    measure: bool,
) -> Result<(SchedulePlan, ExecOutcome), String> {
    tr.span("pass", op, |tr| {
        let plan = tr.span("core.plan", op, |_| plan(program, DEVICES, measure))?;
        tr.span("check.validate", op, |_| plan.validate(&program.stream))
            .map_err(|e| format!("plan does not validate: {e}"))?;
        let out = tr
            .span("exec.execute", op, |_| {
                execute_plan(
                    &program.stream,
                    &plan,
                    &inputs.store(),
                    &ExecOptions::default(),
                )
            })
            .map_err(|e| format!("execute: {e}"))?;
        ensure(
            bits(out.checksum) == bits(reference) && out.kernels == program.stream.total_tasks(),
            || {
                format!(
                    "checksum {:?} over {} kernels, reference {:?}",
                    out.checksum, out.kernels, reference
                )
            },
        )?;
        Ok((plan, out))
    })
}

pub(crate) fn run(cfg: &Config) -> Result<Measured, String> {
    let mut tr = Tracer::new(cfg.trace);
    let scale = match cfg.scale {
        Scale::Full => PresetScale::Paper,
        Scale::Tiny => PresetScale::Ci,
    };
    let spec = al_rhopi(scale);
    let shape = (spec.batch, spec.tensor_dim);
    let mut host = HostRef::new();
    let mut setup_secs = Vec::new();
    let setup = |tr: &mut Tracer, secs: &mut Vec<f64>, ref_ms: f64, op: u64| {
        set_up(secs, Some(ref_ms), || {
            tr.span("setup", op, |tr| {
                let program = tr.span("redstar.stage", op, |_| build_correlator(&spec));
                let inputs = tr.span("redstar.inputs", op, |_| {
                    Inputs::generate(&program, shape, cfg.seed)
                });
                (program, inputs)
            })
        })
    };
    for _ in 1..SETUP_REPS {
        let ref_ms = host.sample();
        setup(&mut tr, &mut setup_secs, ref_ms, 0);
    }
    let ref_ms = host.sample();
    let (mut program, mut inputs) = setup(&mut tr, &mut setup_secs, ref_ms, 0);

    // The reference is a check, not set-up: it runs after the set-up
    // clock stopped, on one worker.
    let reference = tr.span("check.reference", 0, |_| {
        let one = plan(&program, 1, false)?;
        execute_plan(
            &program.stream,
            &one,
            &inputs.store(),
            &ExecOptions::default(),
        )
        .map(|o| o.checksum)
        .map_err(|e| format!("reference execute: {e}"))
    })?;

    let mut metrics = Metrics::default();
    let mut tally = Tally::default();
    // evaluation times scaled by the mean of the host references taken
    // just before and just after the evaluation; the raw ones for the log
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut raw_ms = Vec::new();
    let mut exec_ms = Vec::new();
    let mut last = None;
    let mut ref_before = host.sample();
    let started = Instant::now();
    let mut op = 0u64;
    while window_open(started, cfg.seconds, op) {
        op += 1;
        let traced = cfg.trace && op.is_multiple_of(2);
        tr.set_on(traced);
        let t0 = Instant::now();
        let out = evaluate(&program, &inputs, reference, &mut tr, op, traced);
        let raw = t0.elapsed().as_secs_f64() * 1e3;
        tr.set_on(cfg.trace);
        let ref_after = host.sample();
        let wall_ms = scaled(raw, (ref_before + ref_after) / 2.0);
        ref_before = ref_after;
        let outcome = out.map(|(plan, exec)| {
            if traced {
                traced_ms.push(wall_ms);
                exec_ms.push(exec.wall_secs * 1e3);
                last = Some((plan, exec));
            } else {
                untraced_ms.push(wall_ms);
                raw_ms.push(raw);
            }
        });
        tally.record(cfg.workload, op, outcome);
        (program, inputs) = setup(&mut tr, &mut setup_secs, ref_after, op);
    }

    crate::log_samples("operation wall ms", &raw_ms);
    crate::log_samples("host reference ms", host.samples());
    metrics.set("setup_s", median_of(&setup_secs, "set-up")?);
    let latency_ms = median_of(&untraced_ms, "untraced evaluations")?;
    metrics.set("latency_p50_ms", latency_ms);
    metrics.set(
        "tasks_per_s",
        crate::throughput(program.stream.total_tasks() as f64, &untraced_ms),
    );
    if cfg.trace {
        let (plan, exec) = last.ok_or("no traced evaluation succeeded")?;
        let report = tr
            .span("gpusim.execute", op, |_| {
                Session::new(MachineConfig::mi100_like(DEVICES)).replay(&plan, &program.stream)
            })
            .map_err(|e| format!("simulate: {e}"))?;
        let kernel_gflops = kernel_gflops(&mut tr, &inputs)?;
        let m = &mut metrics;
        let med = |name: &str| median_of(&tr.durations_ms(name), name);
        m.set("redstar.stage_ms", med("redstar.stage")?);
        m.set("core.plan_ms", med("core.plan")?);
        m.set("core.assign_ms", plan.overhead_secs * 1e3);
        m.set("gpusim.execute_ms", med("gpusim.execute")?);
        crate::batch::sim_counts(m, &report);
        m.set("gpusim.cross_island_bytes", 0.0);

        let flops = program.stream.total_flops() as f64;
        let wall_ms = median_of(&exec_ms, "executions")?;
        m.set("exec.wall_ms", wall_ms);
        m.set("exec.real_gflops", flops / (wall_ms / 1e3) / 1e9);
        let busy: f64 = exec.per_worker_busy_secs.iter().sum();
        let workers = exec.per_worker_busy_secs.len().max(1) as f64;
        m.set("exec.busy_share", busy / (workers * exec.wall_secs));
        let max_busy = exec
            .per_worker_busy_secs
            .iter()
            .copied()
            .fold(0.0, f64::max);
        m.set("exec.worker_imbalance", max_busy / (busy / workers));

        let bytes: u64 = program
            .stream
            .vectors
            .iter()
            .flat_map(|v| &v.tasks)
            .map(|t| t.a.bytes + t.b.bytes + t.out.bytes)
            .sum();
        m.set("tensor.flops", flops);
        m.set("tensor.bytes", bytes as f64);
        m.set("tensor.flops_per_byte", flops / bytes as f64);
        m.set("tensor.kernel_gflops", kernel_gflops);

        m.set("bench.ops", traced_ms.len() as f64);
        m.set(
            "bench.trace_overhead_share",
            median_of(&traced_ms, "traced evaluations")? / latency_ms - 1.0,
        );
        m.set("bench.reconcile_gap_share", crate::worst_gap(&tr, "pass"));
        crate::host_metrics(m, &host, &raw_ms)?;
    }
    Ok(Measured {
        tally,
        metrics,
        tracer: tr,
    })
}

/// GFLOP/s of one batched GEMM of the workload's shape on two of its
/// input tensors, called directly.
fn kernel_gflops(tr: &mut Tracer, inputs: &Inputs) -> Result<f64, String> {
    let [(_, a), (_, b), ..] = inputs.leaves.as_slice() else {
        return Err("the correlator has fewer than two inputs".to_owned());
    };
    for rep in 0..KERNEL_REPS {
        let c = tr
            .span("tensor.gemm", rep as u64, |_| {
                a.matmul(std::hint::black_box(b))
            })
            .map_err(|e| format!("gemm: {e:?}"))?;
        std::hint::black_box(c);
    }
    let ms = median_of(&tr.durations_ms("tensor.gemm"), "tensor.gemm")?;
    let (batch, dim) = inputs.shape;
    Ok(contraction_flops(ContractionKind::Meson, batch, dim) as f64 / (ms / 1e3) / 1e9)
}
