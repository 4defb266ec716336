//! `hambench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path hambench/Cargo.toml -- \
//!     --workload <solo_large|online_churn|paper_eval> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's inputs from `--seed`, sets it up (several times;
//! `setup_s` is the median), drives the system through its public APIs for
//! `--seconds`, checks every response and a sample against a naive oracle,
//! and prints one JSON result as the last line of standard output: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A traced run measures the untraced phase first, repeats it
//! with spans recorded, replays the recorded requests through the public
//! stage calls, and writes the span log to `hambench/out/`. A malformed
//! response or an oracle disagreement makes the command exit non-zero.

mod online;
mod oracle;
mod paper;
mod report;
mod serving;
mod trace;
mod util;

use report::{JsonObject, Outcome, Values};
use std::process::ExitCode;

/// Environment switches that silently change the serving tier or add work;
/// the benchmark refuses to run with any of them set.
const PINNED_ENV: &[&str] = &["HAM_FAULTS", "HAM_TELEMETRY", "HAM_RETRIEVAL", "HAM_IVF_NPROBE", "HAM_KERNEL_TIER"];

const WORKLOADS: &[&str] = &["solo_large", "online_churn", "paper_eval"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload} (one of {})", WORKLOADS.join(", ")));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args { workload, seed: seed.unwrap_or(1), seconds, trace: trace.unwrap_or(false) })
}

/// Traced-minus-untraced difference of the client-facing figures, as a
/// percentage of the untraced value (positive = tracing cost).
pub fn overhead(values: &mut Values, untraced: (f64, f64, f64), traced: (f64, f64, f64)) {
    let pct = |cost: f64, base: f64| if base > 0.0 { 100.0 * cost / base } else { 0.0 };
    values.set("trace.overhead_throughput_pct", pct(untraced.0 - traced.0, untraced.0));
    values.set("trace.overhead_latency_p50_pct", pct(traced.1 - untraced.1, untraced.1));
    values.set("trace.overhead_latency_p99_pct", pct(traced.2 - untraced.2, untraced.2));
}

/// Where span logs go, relative to the repository root the benchmark runs
/// from.
fn out_dir() -> std::path::PathBuf {
    std::path::PathBuf::from("hambench/out")
}

fn run_header(args: &Args) -> JsonObject {
    let mut header = JsonObject::new();
    header
        .str("workload", &args.workload)
        .num("seed", args.seed as f64)
        .num("seconds", args.seconds)
        .raw("trace", args.trace.to_string())
        .num("nproc", util::nproc() as f64)
        .str("kernel_tier", ham_tensor::kernels::active_tier().as_str());
    header
}

/// Writes the span log of a traced run with its self-time tables.
pub fn write_trace(args: &Args, spans: &trace::SpanBuf, values: &Values) {
    let mut header = run_header(args);
    for (name, value) in &values.0 {
        header.num(name, *value);
    }
    let path = out_dir().join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    let written = std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, spans.to_json(header)));
    match written {
        Ok(()) => eprintln!("hambench: span log written to {}", path.display()),
        Err(e) => eprintln!("hambench: could not write the span log: {e}"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("hambench: {e}");
            return ExitCode::from(2);
        }
    };
    let set: Vec<&str> = PINNED_ENV.iter().copied().filter(|v| std::env::var_os(v).is_some()).collect();
    if !set.is_empty() {
        eprintln!("hambench: refusing to run with {} set: it changes the measured program", set.join(", "));
        return ExitCode::from(2);
    }
    let tier = ham_tensor::kernels::active_tier();
    let mut outcome: Outcome = match args.workload.as_str() {
        "solo_large" => serving::run(&args),
        "online_churn" => online::run(&args),
        "paper_eval" => paper::run(&args),
        _ => unreachable!("workload validated by parse_args"),
    };
    if outcome.attempted == 0 {
        outcome.correct = false;
        (outcome.attempted, outcome.failed) = (1, 1);
        outcome.notes.push("no operation was attempted".to_string());
    }

    // Human-readable summary: every value the run produced, end-to-end and
    // per-layer alike, with the run's environment.
    println!(
        "hambench: workload={} seed={} seconds={} trace={} nproc={} kernel_tier={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        util::nproc(),
        tier.as_str()
    );
    for (name, value) in &outcome.values.0 {
        let unit = report::END_TO_END.iter().chain(report::PER_LAYER).find(|(n, _)| n == name).map_or("", |(_, u)| u);
        println!("  {name:<34} {value:>16.6} {unit}");
    }
    for note in &outcome.notes {
        println!("  FAILED CHECK: {note}");
    }
    println!("{}", report::result_line(&outcome, args.trace));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
