//! One seeded benchmark over the Brook Auto public API.
//!
//! Four workloads stress different layers: `compile` (front end,
//! certification, analysis, planners), `kernels` (the execution
//! engines), `stream` (launch and transfer path) and `serve` (wire,
//! shards, admission, module cache, stream lifecycle). A run measures
//! its chosen workload for the requested time and, in slices spread
//! evenly over that time, a fixed small amount of the other three, so
//! every end-to-end metric is reported on every workload.
//!
//! The end-to-end run has tracing off. The traced run records a span
//! around every call into a layer, derives the per-layer metrics from
//! the spans, and alternates traced and untraced iterations of the
//! chosen workload to measure the tracing overhead.

pub mod check;
pub mod compile;
pub mod host;
pub mod kernels;
pub mod serve;
pub mod stats;
pub mod stream;
pub mod trace;

use check::{Samples, Tally};
use kernels::Rung;
use stats::Summary;
use std::time::{Duration, Instant};
use trace::Tracer;

/// A workload: what the run's main loop repeats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Compile all eleven app kernel sources.
    Compile,
    /// Dispatch the five compute rows on the serial and parallel CPU.
    Kernels,
    /// `b = a + 1.0` write/run/read over five stream lengths.
    Stream,
    /// Closed-loop saxpy requests against an in-process server.
    Serve,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::Compile,
        Workload::Kernels,
        Workload::Stream,
        Workload::Serve,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Compile => "compile",
            Workload::Kernels => "kernels",
            Workload::Stream => "stream",
            Workload::Serve => "serve",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much fixed-count work a run does besides its main loop.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Set-ups per run (`setup_s` is their median).
    pub setup_reps: usize,
    /// Slices of the other workloads spread over the main loop.
    pub side_slices: usize,
    /// Suite compiles per side slice.
    pub compile_rounds: usize,
    /// Kernel rounds per side slice.
    pub kernel_rounds: usize,
    /// Stream iterations per side slice.
    pub stream_rounds: usize,
    /// Saxpy runs per connection per side slice.
    pub serve_runs: usize,
    /// Repetitions of each ladder rung (traced run).
    pub ladder_reps: usize,
    /// Repetitions of the compile phase probe (traced run).
    pub phase_reps: usize,
    /// Repetitions of the small probes (traced run).
    pub probe_reps: usize,
    /// Plain/armed pairs of the idle-hook probe (traced run).
    pub hook_pairs: usize,
}

impl Scale {
    /// The measured configuration.
    pub const FULL: Scale = Scale {
        setup_reps: 21,
        side_slices: 30,
        compile_rounds: 4,
        kernel_rounds: 2,
        stream_rounds: 8,
        serve_runs: 200,
        ladder_reps: 3,
        phase_reps: 10,
        probe_reps: 2000,
        hook_pairs: 20_000,
    };

    /// The self-tests' configuration: every code path, tiny counts.
    pub const SMOKE: Scale = Scale {
        setup_reps: 1,
        side_slices: 1,
        compile_rounds: 1,
        kernel_rounds: 1,
        stream_rounds: 1,
        serve_runs: 70,
        ladder_reps: 1,
        phase_reps: 1,
        probe_reps: 3,
        hook_pairs: 4,
    };
}

/// One run's configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// The main loop's workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Main-loop duration.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Fixed-count work.
    pub scale: Scale,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// The reported value (a median, a derived figure or a count).
    pub value: f64,
    /// The samples' summary, where the value is a median of samples.
    pub summary: Option<Summary>,
}

/// A finished run.
pub struct Outcome {
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// The drift probe over the run, ns per element.
    pub host_loop: Option<Summary>,
    /// Process start (approximately: `run` entry) to the first timed
    /// iteration, s.
    pub first_setup_s: f64,
    /// The traced run's spans.
    pub tracer: Tracer,
}

/// The five rows of the `kernels` workload.
pub const ROWS: [&str; 5] = ["mandelbrot", "sgemm", "flops", "image_filter", "reduce_min"];

/// End-to-end metrics and their units, in `BENCHMARK.json` order.
pub fn end_to_end_metrics() -> Vec<(String, &'static str)> {
    let mut v = vec![("setup_s".to_string(), "s"), ("compile_suite_ms".into(), "ms")];
    v.extend(ROWS.iter().map(|a| (format!("kernel_ms.{a}"), "ms")));
    for (n, u) in [
        ("kernel_parallel_ms", "ms"),
        ("roundtrip_us", "us"),
        ("roundtrip_ns_per_elem", "ns"),
        ("serve_p50_us", "us"),
        ("serve_p90_us", "us"),
        ("serve_req_per_s", "1/s"),
        ("peak_rss_mb", "MiB"),
    ] {
        v.push((n.into(), u));
    }
    v
}

/// Per-layer metrics and their units, in `BENCHMARK.json` order.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let named = |names: &[&str], unit: &'static str| -> Vec<(String, &'static str)> {
        names.iter().map(|n| (n.to_string(), unit)).collect()
    };
    let us = |names: &[&str]| named(names, "us");
    let mut v = us(&[
        "lang.parse_check_us",
        "cert.certify_us",
        "cert.ir_check_us",
        "cert.passes_us",
        "cert.absint_us",
    ]);
    v.extend(named(&["cert.passes_applied"], "count"));
    v.extend(named(&["cert.gather_proof_ratio"], "ratio"));
    v.extend(us(&[
        "ir.lower_us",
        "ir.lane_plan_us",
        "ir.tier_compile_us",
        "ir.reduce_plan_us",
    ]));
    v.extend(named(&["ir.insts_lowered", "ir.insts_optimized"], "count"));
    v.extend(named(&["ir.tier_admit_ratio", "ir.reduce_admit_ratio"], "ratio"));
    v.extend(us(&["core.adopt_us"]));
    for rung in Rung::ALL {
        for app in ROWS {
            // Only the scalar and the vectorized fold run the reduce.
            if app != "reduce_min" || matches!(rung, Rung::Interp | Rung::Simd) {
                v.push((format!("{}.{app}", rung.metric()), "ms"));
            }
        }
    }
    v.extend(ROWS.iter().map(|a| (format!("cpu_parallel.ms.{a}"), "ms")));
    for call in ["core.write_us", "core.run_us", "core.read_us"] {
        v.extend(stream::SIZES.iter().map(|(_, n)| (format!("{call}.{n}"), "us")));
    }
    v.extend(us(&["ir.verify_us"]));
    v.extend(named(&["ir.tier_direct_ns_per_elem"], "ns"));
    v.extend(us(&[
        "inject.idle_hook_us",
        "inject.idle_hook_q1_us",
        "inject.idle_hook_q3_us",
    ]));
    v.extend(us(&[
        "serve.run_us",
        "serve.read_us",
        "serve.write_us",
        "serve.create_us",
        "serve.drop_us",
        "serve.encode_us",
        "serve.decode_us",
        "serve.engine_us",
    ]));
    v.extend(named(
        &["serve.busy_rejected", "serve.coalesced_runs", "serve.errors"],
        "count",
    ));
    v.extend(named(&["serve.cache_hit_ratio"], "ratio"));
    v.extend(named(&["serve.rss_growth_mb"], "MiB"));
    v.extend(named(
        &[
            "gles2.draw_calls",
            "gles2.tex_fetches",
            "gles2.alu_ops",
            "gles2.bytes_moved",
        ],
        "count",
    ));
    v.extend(named(&["host.loop_ns_per_elem"], "ns"));
    v.extend(named(&["trace.overhead_pct"], "%"));
    v
}

/// Everything a run drives, set up once per set-up rep.
struct Bench {
    compile: compile::Compile,
    kernels: kernels::Kernels,
    stream: stream::StreamBench,
    serve: serve::Serve,
}

impl Bench {
    fn setup(seed: u64) -> Result<Bench, String> {
        Ok(Bench {
            compile: compile::Compile::setup(),
            kernels: kernels::Kernels::setup(seed)?,
            stream: stream::StreamBench::setup(seed)?,
            serve: serve::Serve::setup(seed)?,
        })
    }

    /// One main-loop iteration of `w`; the serve iteration is one
    /// slice of closed-loop load, cut short at `deadline`.
    fn iterate(&mut self, w: Workload, deadline: Instant, s: &mut Samples, tally: &mut Tally, tr: &Tracer) {
        match w {
            Workload::Compile => self.compile.iterate(s, tally, tr),
            Workload::Kernels => self.kernels.iterate(s, tally, tr),
            Workload::Stream => self.stream.iterate(s, tally, tr),
            Workload::Serve => {
                let stop = deadline.min(Instant::now() + serve::SLICE);
                self.serve.load(serve::Stop::At(stop), s, tally, tr);
            }
        }
    }

    /// A fixed amount of every workload but `main`.
    fn side_slice(&mut self, main: Workload, scale: &Scale, s: &mut Samples, tally: &mut Tally, tr: &Tracer) {
        for w in Workload::ALL.into_iter().filter(|w| *w != main) {
            match w {
                Workload::Compile => {
                    (0..scale.compile_rounds).for_each(|_| self.compile.iterate(s, tally, tr))
                }
                Workload::Kernels => {
                    (0..scale.kernel_rounds).for_each(|_| self.kernels.iterate(s, tally, tr))
                }
                Workload::Stream => (0..scale.stream_rounds).for_each(|_| self.stream.iterate(s, tally, tr)),
                Workload::Serve => {
                    // The server's threads sleep between slices; wake them
                    // first so the cold requests stay out of the latencies.
                    self.serve
                        .load(serve::Stop::Runs(20), &mut Samples::default(), tally, tr);
                    let mut left = scale.serve_runs;
                    while left > 0 {
                        let runs = left.min(serve::CHUNK_RUNS);
                        self.serve.load(serve::Stop::Runs(runs), s, tally, tr);
                        left -= runs;
                    }
                }
            }
        }
    }
}

/// Runs one benchmark pass.
///
/// # Errors
/// A set-up failure, a ladder rung that ran the wrong engine, or a
/// metric the run failed to produce.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let t_entry = Instant::now();
    let tr = Tracer::new(cfg.trace);
    let mut tally = Tally::default();

    let mut setup_s = Vec::new();
    let mut bench = None;
    for _ in 0..cfg.scale.setup_reps.max(1) {
        drop(bench.take());
        let t = Instant::now();
        bench = Some(Bench::setup(cfg.seed)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("at least one set-up");

    // Warm-up: one untraced iteration of everything, its samples
    // discarded; the first outputs become the references later outputs
    // are checked against.
    Tracer::set_thread_active(false);
    let far = Instant::now() + Duration::from_secs(3600);
    let mut warm = Samples::default();
    for w in [Workload::Compile, Workload::Kernels, Workload::Stream] {
        bench.iterate(w, far, &mut warm, &mut tally, &tr);
    }
    bench
        .serve
        .load(serve::Stop::Runs(20), &mut warm, &mut tally, &tr);
    Tracer::set_thread_active(true);
    let mut s = Samples::default();
    let first_setup_s = t_entry.elapsed().as_secs_f64();

    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(cfg.seconds);
    let slice_every = cfg.seconds / cfg.scale.side_slices.max(1) as f64;
    let mut slices = 0;
    let mut iter = 0usize;
    let mut host_buf = vec![0.0f32; host::LOOP_ELEMS];
    let mut last_probe: Option<Instant> = None;
    while Instant::now() < deadline {
        // The traced run alternates traced and untraced iterations; the
        // serve workload alternates within each slice instead.
        let traced = iter.is_multiple_of(2);
        if cfg.trace && cfg.workload != Workload::Serve {
            Tracer::set_thread_active(traced);
        }
        let t = Instant::now();
        bench.iterate(cfg.workload, deadline, &mut s, &mut tally, &tr);
        let it = t.elapsed().as_secs_f64();
        if cfg.trace {
            s.push(if traced { "iter_traced_s" } else { "iter_plain_s" }, it);
            Tracer::set_thread_active(true);
        }
        iter += 1;
        if last_probe.is_none_or(|p| p.elapsed() >= Duration::from_millis(10)) {
            s.push("host.loop_ns_per_elem", host::loop_ns_per_elem(&mut host_buf));
            last_probe = Some(Instant::now());
        }
        let due = start + Duration::from_secs_f64(slice_every * (slices as f64 + 0.5));
        if slices < cfg.scale.side_slices && Instant::now() >= due {
            bench.side_slice(cfg.workload, &cfg.scale, &mut s, &mut tally, &tr);
            slices += 1;
        }
    }
    while slices < cfg.scale.side_slices {
        bench.side_slice(cfg.workload, &cfg.scale, &mut s, &mut tally, &tr);
        slices += 1;
    }

    let oracle = kernels::oracle_outputs(bench.kernels.rows());
    let metrics = match cfg.trace {
        true => layer_metrics(cfg, &mut bench, &oracle, &s, &mut tally, &tr)?,
        false => end_to_end(&s, &setup_s),
    };
    bench.kernels.verify_oracle(&oracle, &mut tally);
    let host_loop = Summary::of(s.get("host.loop_ns_per_elem"));
    drop(bench);

    let expected = match cfg.trace {
        true => per_layer_metrics(),
        false => end_to_end_metrics(),
    };
    let mut ordered = Vec::with_capacity(expected.len());
    for (name, unit) in expected {
        let m = metrics
            .iter()
            .find(|m| m.name == name)
            .ok_or_else(|| format!("the run produced no value for `{name}`"))?;
        if !m.value.is_finite() {
            return Err(format!("`{name}` is not finite: {}", m.value));
        }
        ordered.push(Metric { unit, ..m.clone() });
    }
    Ok(Outcome {
        metrics: ordered,
        tally,
        host_loop,
        first_setup_s,
        tracer: tr,
    })
}

/// A metric computed from its samples by `stat`, scaled by `scale`,
/// with the samples' summary.
fn sampled(
    name: &str,
    unit: &'static str,
    samples: &[f64],
    scale: f64,
    stat: impl Fn(&[f64]) -> Option<f64>,
) -> Option<Metric> {
    let sum = Summary::of(samples)?;
    Some(Metric {
        name: name.into(),
        unit,
        value: stat(samples)? * scale,
        summary: Some(Summary {
            median: sum.median * scale,
            q1: sum.q1 * scale,
            q3: sum.q3 * scale,
            tail: sum.tail.map(|(p, v)| (p, v * scale)),
            ..sum
        }),
    })
}

/// A metric that is the median of its samples (scaled by `scale`).
fn median_metric(name: &str, unit: &'static str, samples: &[f64], scale: f64) -> Option<Metric> {
    sampled(name, unit, samples, scale, stats::median)
}

/// The percentile single-threaded per-operation timings report. On a
/// shared host their distribution is bimodal — phases where a neighbour
/// contends for the core and phases where none does — so the median
/// falls between the modes and drifts by up to 2x from run to run,
/// while the 10th percentile follows the uncontended mode within a few
/// percent. The printed table still shows the median and quartiles.
pub const FAST_PERCENTILE: f64 = 10.0;

/// A metric that is the [`FAST_PERCENTILE`] of its samples.
fn fast_metric(name: &str, unit: &'static str, samples: &[f64], scale: f64) -> Option<Metric> {
    sampled(name, unit, samples, scale, |x| {
        stats::percentile(x, FAST_PERCENTILE)
    })
}

/// A metric that is a single derived figure or count.
fn value_metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
        summary: None,
    }
}

fn end_to_end(s: &Samples, setup_s: &[f64]) -> Vec<Metric> {
    let mut m = Vec::new();
    m.extend(median_metric("setup_s", "s", setup_s, 1.0));
    m.extend(fast_metric(
        "compile_suite_ms",
        "ms",
        s.get("compile_suite_ms"),
        1.0,
    ));
    for app in ROWS {
        let name = format!("kernel_ms.{app}");
        m.extend(fast_metric(&name, "ms", s.get(&name), 1.0));
    }
    // Parallel dispatches are the exception: whether the second core is
    // free sets their time, and the median is the steady figure.
    let parallel: Option<Vec<f64>> = ROWS
        .iter()
        .map(|a| stats::median(s.get(&format!("kernel_parallel_ms.{a}"))))
        .collect();
    if let Some(g) = parallel.as_deref().and_then(stats::geomean) {
        m.push(value_metric("kernel_parallel_ms", "ms", g));
    }
    m.extend(fast_metric("roundtrip_us", "us", s.get("roundtrip_ns.1"), 1e-3));
    let (n, label) = stream::SIZES[stream::SIZES.len() - 1];
    m.extend(fast_metric(
        "roundtrip_ns_per_elem",
        "ns",
        s.get(&format!("roundtrip_ns.{label}")),
        1.0 / n as f64,
    ));
    let lat = s.get("serve_lat_us");
    m.extend(median_metric("serve_p50_us", "us", lat, 1.0));
    m.extend(sampled("serve_p90_us", "us", lat, 1.0, |x| {
        stats::percentile(x, 90.0)
    }));
    m.extend(median_metric(
        "serve_req_per_s",
        "1/s",
        s.get("serve_req_per_s"),
        1.0,
    ));
    m.push(value_metric("peak_rss_mb", "MiB", host::peak_rss_mib()));
    m
}

/// The unit a span name ends in (`core.run_us` → `us`) and the factor
/// from ns to it.
fn span_unit(name: &str) -> (&'static str, f64) {
    match name.rsplit(['.', '_']).next() {
        Some("ms") => ("ms", 1e-6),
        Some("us") => ("us", 1e-3),
        _ => ("ns", 1.0),
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    match den {
        0 => 0.0,
        d => num as f64 / d as f64,
    }
}

/// The traced run's extra probes and the per-layer metrics.
fn layer_metrics(
    cfg: &Config,
    bench: &mut Bench,
    oracle: &[Option<Vec<f32>>],
    s: &Samples,
    tally: &mut Tally,
    tr: &Tracer,
) -> Result<Vec<Metric>, String> {
    let sc = &cfg.scale;
    let mut m = Vec::new();

    let sources = brook_bench::analysis::app_sources();
    let sources: Vec<&str> = sources.iter().map(|(_, s)| s.as_str()).collect();
    let mut counts = compile::PhaseCounts::default();
    for _ in 0..sc.phase_reps {
        counts = compile::phases(&sources, tr)?.1;
    }
    m.push(value_metric(
        "cert.passes_applied",
        "count",
        counts.passes_applied as f64,
    ));
    m.push(value_metric(
        "cert.gather_proof_ratio",
        "ratio",
        ratio(counts.proven_gathers, counts.total_gathers),
    ));
    m.push(value_metric(
        "ir.insts_lowered",
        "count",
        counts.insts_lowered as f64,
    ));
    m.push(value_metric(
        "ir.insts_optimized",
        "count",
        counts.insts_optimized as f64,
    ));
    m.push(value_metric(
        "ir.tier_admit_ratio",
        "ratio",
        ratio(counts.tier_admitted, counts.tier_total),
    ));
    m.push(value_metric(
        "ir.reduce_admit_ratio",
        "ratio",
        ratio(counts.reduce_admitted, counts.reduce_total),
    ));

    kernels::ladder(bench.kernels.rows(), oracle, sc.ladder_reps, tally, tr)?;
    let tier_ns = stream::engine_probe(cfg.seed, sc.probe_reps, tally, tr)?;
    m.push(value_metric("ir.tier_direct_ns_per_elem", "ns", tier_ns));
    let deltas = stream::idle_hook_deltas(cfg.seed, sc.hook_pairs, tally)?;
    let hook = Summary::of(&deltas).ok_or("idle hook: no pairs")?;
    m.push(Metric {
        summary: Some(hook),
        ..value_metric("inject.idle_hook_us", "us", hook.median)
    });
    m.push(value_metric("inject.idle_hook_q1_us", "us", hook.q1));
    m.push(value_metric("inject.idle_hook_q3_us", "us", hook.q3));

    bench.serve.wire_probe(sc.probe_reps, tally, tr);
    serve::engine_floor(cfg.seed, sc.probe_reps, tally, tr)?;
    let stats = bench.serve.stats();
    let stat = |k: &str| stats.iter().find(|(n, _)| n == k).map_or(0, |(_, v)| *v);
    for k in ["busy_rejected", "coalesced_runs", "errors"] {
        m.push(value_metric(&format!("serve.{k}"), "count", stat(k) as f64));
    }
    let (hits, misses) = (stat("cache_hits"), stat("cache_misses"));
    m.push(value_metric(
        "serve.cache_hit_ratio",
        "ratio",
        ratio(hits as usize, (hits + misses) as usize),
    ));
    m.push(value_metric(
        "serve.rss_growth_mb",
        "MiB",
        bench.serve.rss_growth_per_100(),
    ));

    let g = kernels::gles2_counts(cfg.seed)?;
    for (name, v) in ["draw_calls", "tex_fetches", "alu_ops", "bytes_moved"]
        .iter()
        .zip(g)
    {
        m.push(value_metric(&format!("gles2.{name}"), "count", v as f64));
    }
    m.extend(median_metric(
        "host.loop_ns_per_elem",
        "ns",
        s.get("host.loop_ns_per_elem"),
        1.0,
    ));

    let (traced, plain) = match cfg.workload {
        Workload::Serve => (s.get("serve_lat_traced_us"), s.get("serve_lat_plain_us")),
        _ => (s.get("iter_traced_s"), s.get("iter_plain_s")),
    };
    if let (Some(t), Some(p)) = (stats::median(traced), stats::median(plain)) {
        m.push(value_metric("trace.overhead_pct", "%", (t / p - 1.0) * 100.0));
    }

    for ((name, label), durs) in tr.durations() {
        let (unit, scale) = span_unit(name);
        let metric = match label {
            "" => name.to_string(),
            l => format!("{name}.{l}"),
        };
        m.extend(median_metric(&metric, unit, &durs, scale));
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_units_follow_the_name_suffix() {
        assert_eq!(span_unit("core.run_us"), ("us", 1e-3));
        assert_eq!(span_unit("cpu_parallel.ms"), ("ms", 1e-6));
        assert_eq!(span_unit("ir.interp_ms"), ("ms", 1e-6));
    }

    #[test]
    fn metric_lists_have_unique_names() {
        for list in [end_to_end_metrics(), per_layer_metrics()] {
            let mut names: Vec<_> = list.iter().map(|(n, _)| n.clone()).collect();
            names.sort();
            names.dedup();
            assert_eq!(names.len(), list.len());
        }
        assert!(per_layer_metrics().len() <= 128);
    }
}
