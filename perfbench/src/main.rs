//! One run of one benchmark workload; `run.py` builds this binary, runs
//! it and turns its output into the result line.
//!
//! ```text
//! perfbench --workload <tcp_contended|tcp_uncontended|sim_token_loss>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Exits non-zero, printing the reason to stderr, when a correctness or
//! workload-shape check fails.

mod hostspeed;
mod procfs;
mod report;
mod sim;
mod tcp;
mod wire;

use report::Report;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    match args.workload.as_str() {
        "tcp_contended" => tcp::run(
            tcp::Shape::Contended,
            args.seed,
            args.seconds,
            args.trace,
            report,
        ),
        "tcp_uncontended" => tcp::run(
            tcp::Shape::Uncontended,
            args.seed,
            args.seconds,
            args.trace,
            report,
        ),
        "sim_token_loss" => sim::run(args.seed, args.seconds, args.trace, report),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    if let Err(e) = run(&args, &mut report) {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        std::process::exit(1);
    }
    report.print();
}
