//! Command-line entry point:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <compile|kernels|stream|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a table of every metric (the reported value, then the
//! samples' median, quartiles, count and the highest percentile with
//! ten samples beyond it), a JSON line with
//! the host fingerprint, and as its last line the result object. The
//! traced run also writes its spans to
//! `.bench_out/trace-<workload>-<seed>.jsonl`. Exits 1 when any output
//! was wrong, 2 on a usage error.

use brook_benchmark::{host, run, Config, Outcome, Scale, Workload};
use std::fmt::Write as _;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("usage: --workload <compile|kernels|stream|serve> --seed <n> --seconds <s> --trace <0|1>");
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: Workload::Kernels,
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::FULL,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => cfg.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                cfg.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or(format!("bad seconds `{value}`"))?;
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    cfg.workload = workload.ok_or("`--workload` is required")?;
    Ok(cfg)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn print_table(out: &Outcome) {
    println!(
        "{:<34} {:>6} {:>14} {:>14} {:>14} {:>14} {:>8}  tail",
        "metric", "unit", "value", "median", "q1", "q3", "n"
    );
    for m in &out.metrics {
        match &m.summary {
            Some(s) => println!(
                "{:<34} {:>6} {:>14.4} {:>14.4} {:>14.4} {:>14.4} {:>8}  {}",
                m.name,
                m.unit,
                m.value,
                s.median,
                s.q1,
                s.q3,
                s.n,
                s.tail.map_or("-".into(), |(p, v)| format!("p{p} {v:.4}")),
            ),
            None => println!("{:<34} {:>6} {:>14.4}", m.name, m.unit, m.value),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(c) => c,
        Err(e) => return usage(&e),
    };
    let out = match run(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if cfg.trace {
        let path = format!(".bench_out/trace-{}-{}.jsonl", cfg.workload.name(), cfg.seed);
        let written = std::fs::create_dir_all(".bench_out")
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|f| out.tracer.write_jsonl(&mut std::io::BufWriter::new(f)));
        if let Err(e) = written {
            eprintln!("benchmark failed: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    print_table(&out);
    let fp = host::Fingerprint::detect();
    let t = &out.tally;
    let fail_rate = t.failed as f64 / t.attempted.max(1) as f64;
    let loop_ns = out.host_loop.map_or("null".into(), |s| {
        format!(
            "{{\"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
            s.median, s.q1, s.q3, s.n
        )
    });
    println!(
        "{{\"schema\": {}, \"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"seconds\": {}, \
         \"host\": {{\"cpu_model\": {}, \"nproc\": {}, \"simd\": \"{}\"}}, \
         \"host.loop_ns_per_elem\": {loop_ns}, \"first_setup_s\": {}, \"fail_rate\": {fail_rate}}}",
        host::SCHEMA_VERSION,
        cfg.workload.name(),
        cfg.seed,
        u8::from(cfg.trace),
        cfg.seconds,
        json_str(&fp.cpu_model),
        fp.nproc,
        fp.simd,
        out.first_setup_s,
    );
    let correct = t.failed == 0 && t.attempted > 0;
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.attempted,
        t.failed,
        metrics.join(", ")
    );
    match correct {
        true => ExitCode::SUCCESS,
        false => ExitCode::FAILURE,
    }
}
