//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_all|live_hits|live_churn> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Runs one workload for about `S` seconds and prints, as the last line
//! of stdout, one JSON object: `correct` (every correctness gate
//! passed), `attempted`, `failed`, and `metrics` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Human-readable lines go to stderr. See `perfbench/README.md`.

#![deny(unsafe_code)]

mod alloc;
mod client;
mod host;
mod layers;
mod live;
mod paper;
mod report;
mod stats;

use std::process::ExitCode;

use report::{Report, END_TO_END, PER_LAYER};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], not {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        traced: traced.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <paper_all|live_hits|live_churn> \
                 --seed N --seconds S --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    alloc::mark_own_thread();
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} | nproc {} | profile {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.traced),
        host::nproc(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    let mut r = Report::default();
    let outcome = match args.workload.as_str() {
        "paper_all" => {
            paper::run(args.seed, args.seconds, args.traced, &mut r);
            Ok(())
        }
        "live_hits" => live::run(
            live::Kind::Hits,
            args.seed,
            args.seconds,
            args.traced,
            &mut r,
        ),
        "live_churn" => live::run(
            live::Kind::Churn,
            args.seed,
            args.seconds,
            args.traced,
            &mut r,
        ),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    let catalogue = if args.traced { PER_LAYER } else { END_TO_END };
    eprint!("{}", r.describe(catalogue));
    match r.render(catalogue, args.traced) {
        Ok(line) => {
            println!("{line}");
            if r.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
