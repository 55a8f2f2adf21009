#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
//! `ftcg` — command-line front end for the fault-tolerant CG library.
//!
//! ```console
//! $ ftcg solve --gen poisson2d:40 --scheme correction --alpha 0.0625
//! $ ftcg solve --matrix system.mtx --scheme online --alpha 0.01 --seed 7
//! $ ftcg solve --gen paper:1848 --alpha 1/16
//! $ ftcg stats --gen random:2000:0.005
//! $ ftcg campaign --spec sweep.campaign --out results.jsonl --threads 8
//! $ ftcg campaign --gen poisson2d:24 --schemes detection,correction --alphas 0,1/16
//! $ ftcg campaign --spec sweep.campaign --journal run.jsonl --resume
//! $ ftcg campaign --spec sweep.campaign --shard 0/4 --journal shard0.jsonl
//! $ ftcg merge --spec sweep.campaign shard0.jsonl shard1.jsonl --out results.jsonl
//! $ ftcg campaign --spec sweep.campaign --journal run.jsonl --trace run.trace.jsonl
//! $ ftcg report run.trace.jsonl run.metrics.jsonl run.jsonl --spec sweep.campaign
//! $ ftcg report run.trace.jsonl run.metrics.jsonl --perfetto timeline.json
//! $ bash benchmark/run.sh --seed 1 --out run1.json
//! $ ftcg bench record run1.json run2.json run3.json --out BENCH_2026-10-02.json --pr 20
//! $ ftcg bench compare new.json BENCH_2026-10-02.json --threshold 5
//! $ ftcg table1 --scale 32 --reps 20
//! $ ftcg figure1 --scale 32 --reps 20 --points 6 --matrices 3
//! ```

mod args;
mod bench;
mod commands;
mod progress;

/// Exit code of a subcommand: 0, or 1 after printing its error.
fn exit_code(result: Result<(), String>) -> i32 {
    match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let rest = argv.get(1..).unwrap_or_default();
    let code = match argv.first().map(String::as_str) {
        Some("solve") => exit_code(commands::solve(rest)),
        Some("bench") => bench::bench(rest),
        Some("stats") => exit_code(commands::stats(rest)),
        Some("campaign") => exit_code(commands::campaign(rest)),
        Some("merge") => exit_code(commands::merge(rest)),
        Some("report") => exit_code(commands::report(rest)),
        Some("table1") => exit_code(commands::table1(rest)),
        Some("figure1") => exit_code(commands::figure1(rest)),
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{}", commands::USAGE);
            0
        }
        Some(other) => {
            eprintln!("unknown command `{other}`\n");
            eprint!("{}", commands::USAGE);
            2
        }
    };
    std::process::exit(code);
}
