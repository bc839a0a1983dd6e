//! The Wave-PIM benchmark. One process runs one workload once:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload pim_l4x4 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! traced variant and prints the per-layer metrics. The last line of
//! standard output is the result object; progress goes to standard
//! error. See `README.md` for the workloads and the metric table.

mod floor;
mod metrics;
mod native;
mod pim;
mod probe;
mod spans;
mod stats;
mod workload;

use std::process::ExitCode;

use metrics::{Values, END_TO_END};
use stats::{median, Report};
use workload::Workload;

/// Worker threads every workload runs with.
const THREADS: &str = "2";

/// What a workload run hands back to be reported.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// A check outside the per-step ones failed.
    pub check_failed: bool,
    /// Host seconds of each timed step.
    pub step_s: Vec<f64>,
    /// Host seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Per-layer values (traced runs only).
    pub values: Values,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    for pair in args.chunks(2) {
        let [flag, value] = pair else { return Err(format!("missing value after {}", pair[0])) };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds must be a non-negative number, not {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The process's peak resident set (`VmHWM`), MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn report(args: &Args, out: Outcome) -> Report {
    let mut r = Report::new(out.attempted, out.failed, out.check_failed);
    if args.trace {
        let catalogue = metrics::per_layer();
        let unknown: Vec<&str> = out.values.unknown(&catalogue).collect();
        assert!(unknown.is_empty(), "values outside the catalogue: {unknown:?}");
        for (name, unit) in &catalogue {
            r.push(name, out.values.get(name), unit);
        }
    } else {
        let step = median(&out.step_s).expect("timed steps ran");
        let setup = median(&out.setup_s).expect("set-ups ran");
        let rss = peak_rss_mib().expect("VmHWM readable from /proc/self/status");
        for ((name, unit), value) in END_TO_END.iter().zip([step, setup, rss]) {
            r.push(name, value, unit);
        }
    }
    r
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <pim_l4x4|halo_l4x16_narrow|native_l6> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    // Pin the worker pool before anything reads it; no other thread
    // exists yet.
    std::env::set_var("RAYON_NUM_THREADS", THREADS);

    let w = args.workload;
    let out = match (w, args.trace) {
        (Workload::NativeL6, false) => native::run(w, args.seed, args.seconds),
        (Workload::NativeL6, true) => native::run_traced(w, args.seed, args.seconds),
        (_, false) => pim::run(w, args.seed, args.seconds),
        (_, true) => pim::run_traced(w, args.seed, args.seconds),
    };
    eprintln!(
        "{} seed {}: {} timed steps (median {:.4} s), {} set-ups, {}/{} operations failed",
        w.name(),
        args.seed,
        out.step_s.len(),
        median(&out.step_s).unwrap_or(0.0),
        out.setup_s.len(),
        out.failed,
        out.attempted,
    );
    let r = report(&args, out);
    println!("{}", r.to_json());
    if r.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
