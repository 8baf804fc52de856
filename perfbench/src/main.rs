//! End-to-end and per-layer benchmark of the Parallax compiler.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold-table3 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One process runs one workload (see `workloads`). The workload's inputs
//! are generated from `--seed`; the compiler crates receive only those
//! inputs, through their public APIs. `--trace 0` measures the end-to-end
//! metrics untraced. `--trace 1` splits the time into an untraced phase
//! and a traced phase: the benchmark records spans around its calls into
//! each layer, prints a self-time table, writes the spans to
//! `perfbench/out/`, and reports the per-layer metrics plus the tracing
//! overhead (traced median latency minus untraced). Every output is
//! checked outside the timed region; the last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.

mod checks;
mod counters;
mod report;
mod spans;
mod stats;
mod workloads;

use std::time::Instant;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    let outcome =
        match workloads::run(&args.workload, args.seed, args.seconds, args.trace, process_start) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        };
    let line = report::print(&args.workload, args.seed, &outcome);
    println!("{line}");
}
