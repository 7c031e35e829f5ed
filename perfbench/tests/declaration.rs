//! `BENCHMARK.json` at the repository root declares exactly the metrics
//! the benchmark prints, with the same units, and stays within the
//! declaration's limits.

use micco_obs::Value;
use micco_perfbench::{stats, Workload, END_TO_END, PER_LAYER};

fn declaration() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    assert!(text.len() <= 64 * 1024);
    Value::parse(&text).expect("BENCHMARK.json parses")
}

fn metrics(decl: &Value, key: &str) -> Vec<(String, String)> {
    decl.get(key)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_owned();
            let better = field("better");
            assert!(better == "higher" || better == "lower", "{better}");
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
        .collect()
}

#[test]
fn declared_metrics_are_the_printed_metrics() {
    let decl = declaration();
    assert_eq!(metrics(&decl, "end_to_end"), owned(END_TO_END));
    assert_eq!(metrics(&decl, "per_layer"), owned(PER_LAYER));
    for m in decl
        .get("end_to_end")
        .and_then(Value::as_arr)
        .expect("list")
    {
        let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
    }
    let setup = decl
        .get("end_to_end")
        .and_then(Value::as_arr)
        .and_then(|l| {
            l.iter()
                .find(|m| m.get("name").and_then(Value::as_str) == Some("setup_s"))
        })
        .expect("setup_s declared");
    assert_eq!(setup.get("better").and_then(Value::as_str), Some("lower"));
}

#[test]
fn declared_workloads_are_the_runnable_workloads() {
    let decl = declaration();
    let names: Vec<&str> = decl
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            let why = w.get("why").and_then(Value::as_str).expect("why");
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
            w.get("name").and_then(Value::as_str).expect("name")
        })
        .collect();
    let runnable: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, runnable);
    for name in names {
        assert!(stats::valid_metric_name(name));
    }
    let seconds = decl
        .get("run_seconds")
        .and_then(Value::as_u64)
        .expect("run_seconds");
    assert!((1..=60).contains(&seconds));
}
