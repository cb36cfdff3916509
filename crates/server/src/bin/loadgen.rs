//! The `nli-server-loadgen` binary: closed-loop load generation.
//!
//! ```text
//! cargo run --release -p nli-server --bin nli-server-loadgen -- \
//!     --clients 8 --requests 100
//! ```
//!
//! Starts an in-process server (or, with `--connect ADDR`, drives one
//! already running), runs the client fleet ([`nli_server::loadgen`]), and
//! prints its summary: a `latency` line (p50/p95/p99/min/max/mean µs)
//! for all requests and per query name, then throughput and `BUSY`
//! retries. `--dump PATH` additionally writes the concatenated
//! per-client response transcripts (the determinism probe
//! `scripts/ci.sh` byte-compares across worker counts).

use nli_server::{run_loadgen, run_loadgen_against, LoadgenConfig};
use std::io::Write;
use std::process::ExitCode;

struct Args {
    cfg: LoadgenConfig,
    dump: Option<String>,
    /// Drive an already-running server at this address instead of
    /// starting an in-process one (the CI admin smoke uses this so the
    /// server's `STATS` counters survive the run).
    connect: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cfg: LoadgenConfig::default(),
        dump: None,
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
            "--dump" => args.dump = Some(value("--dump")?),
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
        "loadgen clients={} requests_per_client={}",
        args.cfg.clients, args.cfg.requests_per_client
    );
    for line in report.summary_lines() {
        println!("{line}");
    }
    if let Err(e) = nli_core::obs::export_trace_if_requested() {
        eprintln!("failed to write NLI_TRACE: {e}");
    }
    ExitCode::SUCCESS
}
