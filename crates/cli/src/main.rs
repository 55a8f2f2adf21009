#![forbid(unsafe_code)]
//! `ftcg` — command-line front end for the fault-tolerant CG library.
//!
//! ```console
//! $ ftcg solve --gen poisson2d:40 --scheme correction --alpha 0.0625
//! $ ftcg solve --matrix system.mtx --scheme online --alpha 0.01 --seed 7
//! $ ftcg solve --gen poisson2d:64 --kernel auto
//! $ ftcg solve --gen random:4000:0.004 --kernel csr-par --threads 8
//! $ ftcg solve --kernel list
//! $ ftcg stats --gen random:2000:0.005
//! $ ftcg campaign --spec sweep.campaign --out results.jsonl --threads 8
//! $ ftcg campaign --gen poisson2d:24 --schemes detection,correction --alphas 0,1/16
//! $ ftcg campaign --gen poisson2d:24 --kernels csr,bcsr:2,sell --alphas 1/16
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

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        Some("solve") => commands::solve(&argv[1..]),
        Some("bench") => bench::bench(&argv[1..]),
        Some("stats") => commands::stats(&argv[1..]),
        Some("campaign") => commands::campaign(&argv[1..]),
        Some("merge") => commands::merge(&argv[1..]),
        Some("report") => commands::report(&argv[1..]),
        Some("table1") => commands::table1(&argv[1..]),
        Some("figure1") => commands::figure1(&argv[1..]),
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
