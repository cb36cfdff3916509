//! Scaled vectorization-ladder emitter.
//!
//! ```text
//! cargo run --release -p nli-bench --bin scaled -- --iters 30 --out BENCH_scaled.json
//! cargo run --release -p nli-bench --bin scaled -- --full --iters 10
//! cargo run --release -p nli-bench --bin scaled -- --check BENCH_scaled.json
//! cargo run --release -p nli-bench --bin scaled -- --rungs 10000 --iters 3
//! ```
//!
//! Emit mode runs the tree-walk-vs-vectorized ladder ([`nli_bench::scaled`])
//! over the committed rungs (10 k and 100 k sales rows; `--full` adds the
//! 1 M rung) and writes the JSON document. `--check` validates an existing
//! file against the checked-in schema check and exits non-zero on any
//! mismatch; `scripts/ci.sh` chains a single-rung emit and a `--check`
//! as a smoke test.

use nli_bench::scaled;
use std::process::ExitCode;

struct Args {
    iters: usize,
    out: String,
    check: Option<String>,
    rungs: Vec<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        iters: 30,
        out: "BENCH_scaled.json".to_string(),
        check: None,
        rungs: scaled::DEFAULT_RUNGS.to_vec(),
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
            "--full" => {
                if !args.rungs.contains(&scaled::FULL_RUNG) {
                    args.rungs.push(scaled::FULL_RUNG);
                }
            }
            "--rungs" => {
                args.rungs = value("--rungs")?
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<usize>()
                            .map_err(|e| format!("--rungs: {e}"))
                    })
                    .collect::<Result<_, _>>()?;
                if args.rungs.is_empty() {
                    return Err("--rungs needs at least one row count".into());
                }
            }
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
            eprintln!("scaled: {e}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(path) = &args.check {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("scaled: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let doc = match serde_json::from_str(&text) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("scaled: {path} is not valid JSON: {e}");
                return ExitCode::FAILURE;
            }
        };
        return match scaled::validate(&doc) {
            Ok(()) => {
                println!("{path}: valid scaled ladder");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("scaled: {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let doc = scaled::run(&args.rungs, args.iters);
    if let Err(e) = scaled::validate(&doc) {
        eprintln!("scaled: emitted document failed its own schema check: {e}");
        return ExitCode::FAILURE;
    }
    let text = serde_json::to_string_pretty(&doc).expect("scaled document always prints");
    if let Err(e) = std::fs::write(&args.out, text + "\n") {
        eprintln!("scaled: cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    // per-rung speedup summary on stdout, so a terminal run is readable
    // without opening the JSON
    if let Some(rungs) = doc.get("rungs").and_then(serde_json::Value::as_array) {
        for rung in rungs {
            let rows = rung
                .get("rows")
                .and_then(serde_json::Value::as_i64)
                .unwrap_or(0);
            let mut parts = Vec::new();
            if let Some(benchmarks) = rung.get("benchmarks").and_then(serde_json::Value::as_array) {
                for b in benchmarks {
                    let name = b
                        .get("name")
                        .and_then(serde_json::Value::as_str)
                        .unwrap_or("?");
                    let speedup = b
                        .get("speedup")
                        .and_then(serde_json::Value::as_f64)
                        .unwrap_or(0.0);
                    let idx = b
                        .get("index_speedup")
                        .and_then(serde_json::Value::as_f64)
                        .unwrap_or(0.0);
                    parts.push(format!("{name}={speedup:.1}x(idx {idx:.1}x)"));
                }
            }
            println!("{rows} rows: {}", parts.join(" "));
        }
    }
    println!("wrote {} ({} iters per query)", args.out, args.iters);
    ExitCode::SUCCESS
}
