//! The `nli-server-loadgen` binary: closed-loop load generation and the
//! `BENCH_server.json` emitter.
//!
//! ```text
//! cargo run --release -p nli-server --bin nli-server-loadgen -- \
//!     --clients 8 --requests 100 --out BENCH_server.json
//! cargo run --release -p nli-server --bin nli-server-loadgen -- \
//!     --check BENCH_server.json
//! ```
//!
//! Emit mode starts an in-process server, runs the client fleet
//! ([`nli_server::loadgen`]), and writes the JSON document; `--dump PATH`
//! additionally writes the concatenated per-client response transcripts
//! (the determinism probe `scripts/ci.sh` byte-compares across worker
//! counts). `--check` validates an existing
//! document and exits non-zero on any mismatch.

use nli_server::{bench, run_loadgen, run_loadgen_against, LoadgenConfig};
use std::io::Write;
use std::process::ExitCode;

struct Args {
    cfg: LoadgenConfig,
    out: String,
    dump: Option<String>,
    check: Option<String>,
    /// Drive an already-running server at this address instead of
    /// starting an in-process one (the CI admin smoke uses this so the
    /// server's `STATS` counters survive the run).
    connect: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cfg: LoadgenConfig::default(),
        out: "BENCH_server.json".to_string(),
        dump: None,
        check: None,
        connect: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{what} needs a value"));
        let parse = |what: &str, v: String| v.parse::<usize>().map_err(|e| format!("{what}: {e}"));
        match flag.as_str() {
            "--clients" => args.cfg.clients = parse("--clients", value("--clients")?)?,
            "--requests" => {
                args.cfg.requests_per_client = parse("--requests", value("--requests")?)?
            }
            "--admission" => {
                args.cfg.admission_limit = parse("--admission", value("--admission")?)?
            }
            "--batch-max" => args.cfg.batch_max = parse("--batch-max", value("--batch-max")?)?,
            "--exec-workers" => {
                args.cfg.exec_workers = parse("--exec-workers", value("--exec-workers")?)?
            }
            "--slow-threshold-us" => {
                args.cfg.slow_threshold_micros = Some(
                    value("--slow-threshold-us")?
                        .parse::<u64>()
                        .map_err(|e| format!("--slow-threshold-us: {e}"))?,
                )
            }
            "--connect" => args.connect = Some(value("--connect")?),
            "--out" => args.out = value("--out")?,
            "--dump" => args.dump = Some(value("--dump")?),
            "--check" => args.check = Some(value("--check")?),
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    if args.cfg.clients == 0
        || args.cfg.requests_per_client == 0
        || args.cfg.admission_limit == 0
        || args.cfg.batch_max == 0
        || args.cfg.exec_workers == 0
    {
        return Err("all numeric flags must be >= 1".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loadgen: {e}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(path) = &args.check {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("loadgen: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let doc = match serde_json::from_str(&text) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("loadgen: {path} is not valid JSON: {e}");
                return ExitCode::FAILURE;
            }
        };
        return match bench::validate(&doc) {
            Ok(()) => {
                println!("{path}: valid server benchmark");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("loadgen: {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }

    // NLI_TRACE=path.json captures the in-process server's observability
    // snapshot on exit; see docs/trace-format.md.
    nli_core::obs::enable_trace_events_from_env();
    let result = match &args.connect {
        Some(addr) => match addr.parse() {
            Ok(addr) => run_loadgen_against(addr, &args.cfg),
            Err(e) => {
                eprintln!("loadgen: --connect {addr}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => run_loadgen(&args.cfg),
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("loadgen: run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let text = serde_json::to_string_pretty(&report.doc).expect("document always prints");
    if let Err(e) = std::fs::write(&args.out, text + "\n") {
        eprintln!("loadgen: cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    if let Some(path) = &args.dump {
        let write_dump = || -> std::io::Result<()> {
            let mut f = std::fs::File::create(path)?;
            for (i, dump) in report.dumps.iter().enumerate() {
                writeln!(f, "== client {i} ==")?;
                f.write_all(dump)?;
            }
            Ok(())
        };
        if let Err(e) = write_dump() {
            eprintln!("loadgen: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "wrote {} ({} clients x {} requests, {} BUSY retries)",
        args.out, args.cfg.clients, args.cfg.requests_per_client, report.rejected_busy_retries
    );
    if let Err(e) = nli_core::obs::export_trace_if_requested() {
        eprintln!("failed to write NLI_TRACE: {e}");
    }
    ExitCode::SUCCESS
}
