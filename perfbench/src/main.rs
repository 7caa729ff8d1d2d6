//! `perfbench --workload serve|replay|plan --seed N --seconds S --trace 0|1`
//!
//! Run from the repository root. Prints a human-readable report and,
//! as its last line, one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (end-to-end metrics untraced, per-layer metrics
//! traced). Exits 1 when any output check fails, 2 on bad arguments.

use perfbench::{Options, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

fn usage(why: &str) -> ExitCode {
    eprintln!("perfbench: {why}");
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

/// The run's scratch directory (journals run to hundreds of MB);
/// removed on the way out, panics included.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let Some(workload) = flag("--workload").filter(|w| WORKLOADS.contains(w)) else {
        return usage("--workload names one of the workloads");
    };
    let Some(seed) = flag("--seed").and_then(|s| s.parse::<u64>().ok()) else {
        return usage("--seed takes a whole number");
    };
    let Some(seconds) = flag("--seconds")
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| *s > 0.0 && *s <= 600.0)
    else {
        return usage("--seconds takes a positive number");
    };
    let trace = match flag("--trace") {
        Some("1") => true,
        Some("0") | None => false,
        Some(_) => return usage("--trace takes 0 or 1"),
    };

    let work =
        WorkDir(PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id())));
    std::fs::create_dir_all(&work.0).expect("work directory is creatable");
    let opts = Options {
        workload: workload.to_string(),
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
        work: work.0.clone(),
    };
    println!(
        "perfbench {workload} seed={seed} seconds={seconds} trace={} threads-available={}",
        u8::from(trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let run = perfbench::run(&opts);
    drop(work);
    print!("{}", run.table(workload, trace));
    println!("{}", run.json(trace));
    if run.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
