//! Benchmark baseline emitter.
//!
//! ```text
//! cargo run --release -p nli-bench --bin baseline -- --iters 200 --out BENCH_baseline.json
//! cargo run --release -p nli-bench --bin baseline -- --check BENCH_baseline.json
//! ```
//!
//! Emit mode runs the headless `sql_engine` suite ([`nli_bench::baseline`])
//! and writes the JSON document; `--check` instead validates an existing
//! file against the checked-in schema check and exits non-zero on any
//! mismatch. `scripts/ci.sh` chains both with a tiny `--iters` as a smoke
//! test.

use nli_bench::baseline;
use std::process::ExitCode;

struct Args {
    iters: usize,
    out: String,
    check: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        iters: 200,
        out: "BENCH_baseline.json".to_string(),
        check: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{what} needs a value"));
        match flag.as_str() {
            "--iters" => {
                args.iters = value("--iters")?
                    .parse::<usize>()
                    .map_err(|e| format!("--iters: {e}"))?
            }
            "--out" => args.out = value("--out")?,
            "--check" => args.check = Some(value("--check")?),
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    if args.iters == 0 {
        return Err("--iters must be >= 1".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("baseline: {e}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(path) = &args.check {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("baseline: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let doc = match serde_json::from_str(&text) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("baseline: {path} is not valid JSON: {e}");
                return ExitCode::FAILURE;
            }
        };
        return match baseline::validate(&doc) {
            Ok(()) => {
                println!("{path}: valid baseline");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("baseline: {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let doc = baseline::run(args.iters);
    if let Err(e) = baseline::validate(&doc) {
        eprintln!("baseline: emitted document failed its own schema check: {e}");
        return ExitCode::FAILURE;
    }
    let text = serde_json::to_string_pretty(&doc).expect("baseline document always prints");
    if let Err(e) = std::fs::write(&args.out, text + "\n") {
        eprintln!("baseline: cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    let n = doc
        .get("benchmarks")
        .and_then(serde_json::Value::as_array)
        .map_or(0, <[serde_json::Value]>::len);
    println!(
        "wrote {} ({n} benchmarks, {} iters each)",
        args.out, args.iters
    );
    ExitCode::SUCCESS
}
