//! The repo's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! fsi-benchmark --workload W --seed N --seconds S --trace 0|1 [--out FILE]
//!     one run; the last line of standard output is the driver's JSON
//! fsi-benchmark [--seed N] [--seconds S] [--out FILE]
//!     every workload, untraced then traced; prints `workload metric value unit`
//! fsi-benchmark compare A.json[,A2.json…] B.json[,B2.json…]
//!     applies the bounds to the medians of two sets of result files
//! ```

mod gate;
mod loadgen;
mod metrics;
mod replay;
mod report;
mod run;
mod stats;
mod system;
mod trace;
mod workload;

use report::Conditions;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Workload, WORKLOADS};

/// Where the full run leaves its files, relative to the repo root.
const OUT_DIR: &str = "benchmark/out";

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 20,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                parsed.workload =
                    Some(workload::by_name(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.max(1),
            "--trace" => parsed.trace = number()? != 0,
            "--out" => parsed.out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn conditions(args: &Args) -> Conditions {
    // `run.sh` asks git and rustc; a bare binary does not know.
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
    Conditions {
        seed: args.seed,
        seconds: args.seconds,
        commit: env("FSI_BENCHMARK_COMMIT"),
        rustc: env("FSI_BENCHMARK_RUSTC"),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        simd: fsi_kernels::SimdLevel::active().name(),
    }
}

fn write_out(path: &std::path::Path, text: &str) -> Result<(), String> {
    report::create(path)
        .and_then(|mut file| std::io::Write::write_all(&mut file, text.as_bytes()))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

fn benchmark(args: &Args) -> Result<(), String> {
    let corpus = system::corpus(system::FULL, args.seed);
    let one = |w: &Workload, traced: bool| {
        eprintln!("{} trace {}: {}", w.name, u8::from(traced), w.why);
        if traced {
            let path = PathBuf::from(OUT_DIR).join(format!("trace.{}.jsonl", w.name));
            run::run_traced(
                w,
                system::FULL,
                &corpus,
                args.seed,
                args.seconds,
                Some(&path),
            )
        } else {
            run::run_untraced(w, system::FULL, &corpus, args.seed, args.seconds)
        }
    };
    let (runs, out) = match args.workload {
        Some(w) => (vec![one(w, args.trace)?], args.out.clone()),
        None => {
            let mut runs = Vec::new();
            for traced in [false, true] {
                for w in &WORKLOADS {
                    runs.push(one(w, traced)?);
                }
            }
            let default = PathBuf::from(OUT_DIR).join("result.json");
            (runs, Some(args.out.clone().unwrap_or(default)))
        }
    };
    if let Some(path) = &out {
        write_out(path, &report::result_json(&conditions(args), &runs))?;
    }
    // Nothing is printed before every run has passed its checks.
    print!("{}", report::table(&runs));
    if args.workload.is_some() {
        println!("{}", report::contract_line(&runs[0]));
    }
    Ok(())
}

fn compare(sides: &[String]) -> Result<bool, String> {
    let [before, after] = sides else {
        return Err("compare takes two arguments: A.json[,…] B.json[,…]".to_string());
    };
    let read = |side: &String| -> Result<Vec<String>, String> {
        side.split(',')
            .map(|path| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}")))
            .collect()
    };
    let verdicts = report::compare(&read(before)?, &read(after)?)?;
    for v in &verdicts {
        // A share of the first side, except from zero (`failed_share`).
        let change = if v.before == 0.0 {
            format!("{:+}", v.after - v.before)
        } else {
            format!("{:+.1}%", (v.after - v.before) / v.before * 100.0)
        };
        println!(
            "{} {} {} -> {} ({change}) {}",
            v.workload, v.metric, v.before, v.after, v.verdict
        );
    }
    Ok(verdicts.iter().all(|v| v.verdict != "regressed"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((first, rest)) if first == "compare" => compare(rest),
        _ => parse(&args).and_then(|a| benchmark(&a)).map(|()| true),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("fsi-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
