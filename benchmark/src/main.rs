//! White Mirror benchmark: one command per workload.
//!
//! ```sh
//! bash benchmark/run.sh --workload paper_e2e --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each run generates its inputs from `--seed`, sets up (training,
//! simulating the captures a workload replays), measures for
//! `--seconds`, checks every output, and prints one JSON line last:
//! the end-to-end metrics untraced (`--trace 0`), or the per-layer
//! metrics from a separate traced run (`--trace 1`). A failed check
//! exits nonzero. See `benchmark/README.md`.

mod alloc;
mod batch;
mod fleet;
mod inputs;
mod report;
mod stats;
mod trace;

use std::process::ExitCode;

use inputs::Ctx;
use report::{per_layer, END_TO_END};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const WORKLOADS: [&str; 4] = [
    "paper_e2e",
    "attack_replay",
    "fleet_replay",
    "fleet_process_chaos",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.max(1),
            "--trace" => match value.as_str() {
                "0" => parsed.trace = false,
                "1" => parsed.trace = true,
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "usage: wm-benchmark --workload <name> [--seed N] [--seconds N] [--trace 0|1]\n{e}"
            );
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        graph: wm_bench::graph(),
        seed: args.seed,
        workers: wm_pool::default_workers(),
    };
    eprintln!(
        "workload {} seed {} seconds {} trace {} workers {}",
        args.workload, args.seed, args.seconds, args.trace as u8, ctx.workers
    );
    let result = match args.workload.as_str() {
        "paper_e2e" => batch::paper_e2e(&ctx, args.seconds, args.trace),
        "attack_replay" => batch::attack_replay(&ctx, args.seconds, args.trace),
        "fleet_replay" => fleet::run(&ctx, fleet::Kind::Replay, args.seconds, args.trace),
        _ => fleet::run(&ctx, fleet::Kind::ProcessChaos, args.seconds, args.trace),
    };
    let (outcome, spans) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(spans) = spans {
        // Spans go next to the binary, inside the build directory.
        if let Ok(exe) = std::env::current_exe() {
            let path = exe.with_file_name(format!("spans-{}-{}.tsv", args.workload, args.seed));
            match spans.write_tsv(&path) {
                Ok(()) => eprintln!("spans written to {}", path.display()),
                Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
            }
        }
    }
    let catalogue = match args.trace {
        true => per_layer(args.workload.starts_with("fleet_")),
        false => END_TO_END.to_vec(),
    };
    println!("{}", outcome.json(&catalogue));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "correctness check failed: {} of {} sessions failed",
            outcome.failed, outcome.attempted
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse(&args(
            "--workload fleet_replay --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "fleet_replay");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        let d = parse(&args("--workload paper_e2e")).unwrap();
        assert_eq!((d.seed, d.seconds, d.trace), (1, 10, false));
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--workload paper_e2e --seed x")).is_err());
        assert!(parse(&args("--workload paper_e2e --trace 2")).is_err());
        assert!(parse(&args("--workload paper_e2e --seed")).is_err());
        assert!(parse(&args("--seed 1")).is_err());
    }
}
