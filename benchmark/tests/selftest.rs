//! Self-tests of the benchmark: tiny runs of every workload, the
//! output checks, the rung checks, seeded inputs, and the metric list
//! in `BENCHMARK.json`. Run with `cargo test --release` from this
//! directory (the AST oracle is slow in a debug build).

use brook_benchmark::check::{Samples, Tally};
use brook_benchmark::kernels::{rows, Bound, Kernels, Rung};
use brook_benchmark::trace::Tracer;
use brook_benchmark::{
    compile, end_to_end_metrics, per_layer_metrics, run, serve, stream, Config, Scale, Workload,
};

fn smoke(workload: Workload, seed: u64, trace: bool) -> brook_benchmark::Outcome {
    let cfg = Config {
        workload,
        seed,
        seconds: 0.05,
        trace,
        scale: Scale::SMOKE,
    };
    run(&cfg).unwrap_or_else(|e| panic!("{}: {e}", workload.name()))
}

#[test]
fn every_workload_runs_clean_and_reports_every_metric() {
    let want = end_to_end_metrics();
    for w in Workload::ALL {
        let out = smoke(w, 7, false);
        assert_eq!(out.tally.failed, 0, "{}: failed operations", w.name());
        assert!(out.tally.attempted > 0);
        let got: Vec<_> = out.metrics.iter().map(|m| (m.name.clone(), m.unit)).collect();
        assert_eq!(got, want, "{}", w.name());
        assert!(
            out.metrics.iter().all(|m| m.value > 0.0),
            "{}: a zero metric",
            w.name()
        );
    }
}

#[test]
fn traced_run_reports_every_per_layer_metric() {
    let out = smoke(Workload::Stream, 7, true);
    assert_eq!(out.tally.failed, 0);
    let got: Vec<_> = out.metrics.iter().map(|m| (m.name.clone(), m.unit)).collect();
    assert_eq!(got, per_layer_metrics());
    let spans = out.tracer.spans();
    assert!(spans
        .iter()
        .any(|s| s.name == "core.run_us" && s.label == "65536"));
    assert!(spans.iter().all(|s| s.start_ns <= s.end_ns));
}

#[test]
fn seeds_change_inputs_but_not_verdicts() {
    let (a, b) = (rows(1), rows(2));
    let differ = a
        .iter()
        .zip(&b)
        .filter(|(x, y)| x.input_data() != y.input_data())
        .count();
    // Every row but mandelbrot (fixed region) has seeded inputs.
    assert_eq!(differ, a.len() - 1);
    for seed in [1, 2] {
        let out = smoke(Workload::Kernels, seed, false);
        assert_eq!(
            (out.tally.failed, out.tally.attempted > 0),
            (0, true),
            "seed {seed}"
        );
    }
}

#[test]
fn corrupted_outputs_fail_every_workload() {
    let tr = Tracer::new(false);
    let mut s = Samples::default();

    let mut k = Kernels::setup(3).expect("kernels");
    k.iterate(&mut s, &mut Tally::new(false), &tr);
    let mut bad = Tally::new(true);
    k.iterate(&mut s, &mut bad, &tr);
    assert_eq!((bad.attempted, bad.failed), (10, 10));

    let mut st = stream::StreamBench::setup(3).expect("stream");
    let mut bad = Tally::new(true);
    st.iterate(&mut s, &mut bad, &tr);
    assert!(bad.attempted >= 5);
    assert_eq!(bad.failed, bad.attempted);

    let mut c = compile::Compile::setup();
    c.iterate(&mut s, &mut Tally::new(false), &tr);
    let mut bad = Tally::new(true);
    c.iterate(&mut s, &mut bad, &tr);
    assert_eq!((bad.attempted, bad.failed), (11, 11));

    let mut sv = serve::Serve::setup(3).expect("serve");
    let mut bad = Tally::new(true);
    sv.load(serve::Stop::Runs(10), &mut s, &mut bad, &tr);
    // Per connection: ten runs (not output-checked) and one corrupted
    // read.
    let conns = serve::CONNS as u64;
    assert_eq!((bad.attempted, bad.failed), (11 * conns, conns));
}

#[test]
fn a_rung_running_another_engine_is_rejected() {
    let rows = rows(5);
    let sgemm = &rows[1];
    for rung in Rung::ALL {
        let b = Bound::new(sgemm, rung.context()).expect("bind");
        rung.check(b.backend(), b.report(), sgemm).expect("own engine");
        for other in Rung::ALL.into_iter().filter(|o| *o != rung) {
            assert!(
                other.check(b.backend(), b.report(), sgemm).is_err(),
                "{rung:?} context passed as {other:?}"
            );
        }
    }
}

/// `(name, unit)` pairs of one list in `BENCHMARK.json`.
fn listed(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("list closes")];
    let field = |obj: &str, f: &str| -> String {
        let at = obj.find(&format!("\"{f}\"")).expect("field") + f.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("value") + 1;
        rest[open..open + rest[open..].find('"').expect("value closes")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let owned = |v: Vec<(String, &str)>| -> Vec<(String, String)> {
        v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
    };
    assert_eq!(listed(&json, "end_to_end"), owned(end_to_end_metrics()));
    assert_eq!(listed(&json, "per_layer"), owned(per_layer_metrics()));
    let workloads: Vec<_> = json
        .split("\"workloads\"")
        .nth(1)
        .expect("workloads")
        .split(']')
        .next()
        .expect("list")
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().expect("name").to_string())
        .collect();
    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, names);
}
