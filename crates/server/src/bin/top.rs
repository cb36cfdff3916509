//! The `nli-top` monitor: a terminal client for the admin plane.
//!
//! ```text
//! cargo run --release -p nli-server --bin nli-top -- \
//!     --addr 127.0.0.1:7433 --once
//! ```
//!
//! Connects as the admin tenant and renders one consolidated view of the
//! server's live observability surface — `HEALTH`, server-wide `STATS`,
//! `STATS TENANT <id>` for every registered tenant, and the `SLOWLOG`
//! ring — over the exact same `nli/1` frames any other client could
//! send (the frames are specified in `docs/server-protocol.md` §8).
//!
//! Two modes:
//!
//! * `--once` prints a single snapshot and exits. The output is
//!   line-oriented and deterministic in shape, so CI can parse it; the
//!   `--expect-requests N` / `--require-slowlog` flags turn the snapshot
//!   into assertions (exit non-zero on mismatch), which is how
//!   `scripts/ci.sh` reconciles per-tenant counts against the load
//!   generator's totals.
//! * default (live) mode redraws the snapshot every `--interval-ms`
//!   until the server goes away or the process is interrupted.

use nli_server::proto::unescape_field;
use nli_server::Client;
use std::net::SocketAddr;
use std::process::ExitCode;

struct Args {
    addr: String,
    admin: String,
    once: bool,
    interval_ms: u64,
    /// Assert the per-tenant `requests.total` values (admin excluded)
    /// sum to exactly this many requests.
    expect_requests: Option<u64>,
    /// Assert the slow-query ring is non-empty.
    require_slowlog: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7433".to_string(),
        admin: "admin".to_string(),
        once: false,
        interval_ms: 1000,
        expect_requests: None,
        require_slowlog: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{what} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--admin" => args.admin = value("--admin")?,
            "--once" => args.once = true,
            "--interval-ms" => {
                args.interval_ms = value("--interval-ms")?
                    .parse::<u64>()
                    .map_err(|e| format!("--interval-ms: {e}"))?
            }
            "--expect-requests" => {
                args.expect_requests = Some(
                    value("--expect-requests")?
                        .parse::<u64>()
                        .map_err(|e| format!("--expect-requests: {e}"))?,
                )
            }
            "--require-slowlog" => args.require_slowlog = true,
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    if args.interval_ms == 0 {
        return Err("--interval-ms must be >= 1".into());
    }
    Ok(args)
}

/// Parse an `OK stats` body into (key, value) pairs (row order kept).
fn parse_stats(lines: &[String]) -> Result<Vec<(String, String)>, String> {
    let head = lines.first().ok_or("empty response")?;
    if !head.starts_with("OK stats ") {
        return Err(format!("expected OK stats, got {head:?}"));
    }
    let mut pairs = Vec::new();
    for line in &lines[1..lines.len().saturating_sub(1)] {
        let row = line
            .strip_prefix("ROW ")
            .ok_or_else(|| format!("expected ROW, got {line:?}"))?;
        let (k, v) = row
            .split_once('\t')
            .ok_or_else(|| format!("ROW without value: {line:?}"))?;
        pairs.push((unescape_field(k), unescape_field(v)));
    }
    Ok(pairs)
}

struct Monitor {
    client: Client,
}

impl Monitor {
    fn connect(addr: SocketAddr, admin: &str) -> Result<Monitor, String> {
        let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        client
            .expect("HELLO nli/1", "OK nli/1 ready")
            .map_err(|e| e.to_string())?;
        client
            .expect(&format!("TENANT {admin}"), &format!("OK tenant {admin}"))
            .map_err(|e| e.to_string())?;
        Ok(Monitor { client })
    }

    /// One full admin sweep; returns the rendered snapshot plus what the
    /// assertion flags need (request sum and slowlog length).
    fn snapshot(&mut self, admin: &str) -> Result<(String, u64, u64), String> {
        let mut out = String::new();
        let health = self
            .client
            .request("HEALTH")
            .map_err(|e| format!("HEALTH: {e}"))?;
        let health = health.first().cloned().unwrap_or_default();
        if !health.starts_with("OK health ") {
            return Err(format!(
                "HEALTH refused: {health:?} (not the admin tenant?)"
            ));
        }
        out.push_str(&format!("health: {}\n", &health["OK health ".len()..]));

        let stats = self
            .client
            .request("STATS")
            .map_err(|e| format!("STATS: {e}"))?;
        let pairs = parse_stats(&stats).map_err(|e| format!("STATS: {e}"))?;
        out.push_str("server:\n");
        let mut tenant_ids: Vec<String> = Vec::new();
        for (k, v) in &pairs {
            out.push_str(&format!("  {k} = {v}\n"));
            if k == "tenants" && v != "-" {
                tenant_ids = v.split(' ').map(str::to_string).collect();
            }
        }

        let mut request_sum = 0u64;
        for id in &tenant_ids {
            let resp = self
                .client
                .request(&format!("STATS TENANT {id}"))
                .map_err(|e| format!("STATS TENANT {id}: {e}"))?;
            let pairs = parse_stats(&resp).map_err(|e| format!("STATS TENANT {id}: {e}"))?;
            out.push_str(&format!("tenant {id}:\n"));
            for (k, v) in &pairs {
                out.push_str(&format!("  {k} = {v}\n"));
                if k == "requests.total" && id != admin {
                    request_sum += v.parse::<u64>().unwrap_or(0);
                }
            }
        }

        let slow = self
            .client
            .request("SLOWLOG")
            .map_err(|e| format!("SLOWLOG: {e}"))?;
        let head = slow.first().cloned().unwrap_or_default();
        let slow_count: u64 = head
            .strip_prefix("OK slowlog ")
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| format!("expected OK slowlog, got {head:?}"))?;
        out.push_str(&format!("slowlog ({slow_count} retained):\n"));
        for line in &slow[1..slow.len().saturating_sub(1)] {
            let Some(row) = line.strip_prefix("ROW ") else {
                continue;
            };
            let fields: Vec<&str> = row.splitn(7, '\t').collect();
            if fields.len() == 7 {
                // seq tenant verb micros statement (profile/tree stay in
                // SLOWLOG itself; the monitor shows the one-line summary)
                out.push_str(&format!(
                    "  #{} {} {} {}us {}\n",
                    fields[0],
                    unescape_field(fields[1]),
                    fields[2],
                    fields[3],
                    unescape_field(fields[4]).replace('\n', " "),
                ));
            }
        }
        Ok((out, request_sum, slow_count))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nli-top: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr: SocketAddr = match args.addr.parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nli-top: --addr {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    let mut monitor = match Monitor::connect(addr, &args.admin) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("nli-top: {e}");
            return ExitCode::FAILURE;
        }
    };
    loop {
        let (snapshot, request_sum, slow_count) = match monitor.snapshot(&args.admin) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("nli-top: {e}");
                return ExitCode::FAILURE;
            }
        };
        if args.once {
            print!("{snapshot}");
            if let Some(want) = args.expect_requests {
                if request_sum != want {
                    eprintln!(
                        "nli-top: per-tenant requests.total sum to {request_sum}, expected {want}"
                    );
                    return ExitCode::FAILURE;
                }
                println!("expect-requests: ok ({request_sum})");
            }
            if args.require_slowlog && slow_count == 0 {
                eprintln!("nli-top: slowlog is empty but --require-slowlog was given");
                return ExitCode::FAILURE;
            }
            return ExitCode::SUCCESS;
        }
        // Live mode: clear the screen between redraws.
        print!("\x1b[2J\x1b[H{snapshot}");
        use std::io::Write;
        let _ = std::io::stdout().flush();
        std::thread::sleep(std::time::Duration::from_millis(args.interval_ms));
    }
}
