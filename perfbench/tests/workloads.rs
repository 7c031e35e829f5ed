//! Every workload, at a tiny size, emits its full metric set with every
//! correctness check passing, traced and untraced.

use std::path::PathBuf;

use micco_perfbench::{run, span_file, Config, Scale, Workload, END_TO_END, PER_LAYER};

fn tiny(workload: Workload, trace: bool) -> Config {
    Config {
        workload,
        seed: 3,
        seconds: 0.3,
        trace,
        scale: Scale::Tiny,
        work_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!(
                "test-{}-{trace}-{}",
                workload.name(),
                std::process::id()
            )),
    }
}

fn check(workload: Workload, trace: bool) {
    let cfg = tiny(workload, trace);
    let report = run(&cfg).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    assert!(report.correct, "{}: {report:?}", workload.name());
    assert!(report.attempted >= 1);
    assert_eq!(report.failed, 0);
    let expected = if trace { PER_LAYER } else { END_TO_END };
    let names: Vec<_> = report.metrics.iter().map(|(n, _, _)| *n).collect();
    let want: Vec<_> = expected.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, want, "{}", workload.name());
    for (name, value, unit) in &report.metrics {
        assert!(value.is_finite(), "{name} = {value}");
        assert_eq!(
            Some(unit),
            expected.iter().find(|(n, _)| n == name).map(|(_, u)| u)
        );
        // end-to-end metrics are never 0; a per-layer time of a layer the
        // workload calls is never 0 either
        if !trace || (workload.calls(name) && unit.ends_with("ms") && *name != "core.assign_ms") {
            assert!(*value > 0.0, "{}: {name} = {value}", workload.name());
        }
    }
    assert!(!cfg.work_dir.exists(), "scratch directory left behind");
    let line = report.to_json();
    assert!(line.starts_with("{\"correct\": true") && !line.contains('\n'));
    if trace {
        let spans = span_file(&cfg);
        let text = std::fs::read_to_string(&spans).expect("span file written");
        assert!(text.contains("\"parent\""));
        std::fs::remove_file(spans).expect("remove span file");
    }
}

#[test]
fn batch_fit_emits_every_metric() {
    check(Workload::BatchFit, false);
    check(Workload::BatchFit, true);
}

#[test]
fn batch_evict_emits_every_metric() {
    check(Workload::BatchEvict, false);
    check(Workload::BatchEvict, true);
}

#[test]
fn redstar_real_emits_every_metric() {
    check(Workload::RedstarReal, false);
    check(Workload::RedstarReal, true);
}

#[test]
fn serve_mix_emits_every_metric() {
    check(Workload::ServeMix, false);
    check(Workload::ServeMix, true);
}
