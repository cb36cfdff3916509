//! Closed-loop load generator: N concurrent protocol clients against an
//! in-process server.
//!
//! Each client is its own tenant, opens one real loopback TCP connection,
//! and walks the same deterministic request script: the seven-query
//! [`nli_bench::baseline::QUERIES`] ladder round-robin via `SQL`, with
//! every eighth request an `EXEC` of a per-tenant prepared hot query. The
//! loop is *closed*: a client sends its next request only after the
//! previous response fully arrived, and retries (unrecorded) on `BUSY`.
//!
//! Two outputs per run: latency samples per query name, which
//! [`LoadgenReport::summary_lines`] reduces to the p50/p95/p99,
//! throughput and `BUSY`-retry lines `nli-server-loadgen` prints
//! (machine-dependent), and per-client response transcripts (byte-exact,
//! scheduling-independent). The transcripts are the determinism probe
//! `scripts/ci.sh` byte-compares across executor-worker counts; `BUSY`
//! lines are excluded from them because rejection counts legitimately
//! vary with scheduling.

use crate::server::{self, ServerConfig};
use nli_bench::baseline;
use nli_bench::summary::Summary;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

/// The prepared hot statement every client binds as `hot`.
pub const HOT_QUERY: &str = "SELECT name FROM products WHERE price > 100";

/// Load-generator shape: the client fleet, plus the knobs of the
/// in-process server [`run_loadgen`] starts.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    pub clients: usize,
    pub requests_per_client: usize,
    pub admission_limit: usize,
    pub batch_max: usize,
    pub exec_workers: usize,
    /// Slow-query capture threshold forwarded to the in-process server
    /// ([`run_loadgen`] mode only; [`run_loadgen_against`] drives a server
    /// somebody else configured).
    pub slow_threshold_micros: Option<u64>,
}

impl Default for LoadgenConfig {
    fn default() -> LoadgenConfig {
        LoadgenConfig {
            clients: 4,
            requests_per_client: 50,
            admission_limit: 32,
            batch_max: 16,
            exec_workers: 2,
            slow_threshold_micros: None,
        }
    }
}

/// Everything one run produced.
pub struct LoadgenReport {
    /// Per-client response transcripts, client order; `BUSY` lines
    /// excluded. Byte-identical across executor-worker counts.
    pub dumps: Vec<Vec<u8>>,
    /// Total `BUSY` rejections retried by the closed loop (each retry
    /// eventually produced a recorded response; this counts the extra
    /// round-trips, which legitimately vary with scheduling).
    pub rejected_busy_retries: u64,
    /// Send-to-full-response latency samples (µs) per query name.
    latencies: BTreeMap<String, Vec<f64>>,
    /// Wall-clock of the whole client phase, µs.
    elapsed_micros: f64,
}

impl LoadgenReport {
    /// The summary `nli-server-loadgen` prints: one latency line for all
    /// samples and one per query name, then throughput and `BUSY`
    /// retries.
    pub fn summary_lines(&self) -> Vec<String> {
        let all: Vec<f64> = self.latencies.values().flatten().copied().collect();
        let responses = all.len();
        let mut lines = vec![latency_line("all", all)];
        for (name, samples) in &self.latencies {
            lines.push(latency_line(name, samples.clone()));
        }
        let rps = if self.elapsed_micros > 0.0 {
            responses as f64 / (self.elapsed_micros / 1_000_000.0)
        } else {
            0.0
        };
        lines.push(format!(
            "throughput rps={rps:.1} responses={responses} elapsed_ms={:.1}",
            self.elapsed_micros / 1000.0
        ));
        lines.push(format!("busy_retries {}", self.rejected_busy_retries));
        lines
    }
}

fn latency_line(name: &str, samples: Vec<f64>) -> String {
    let n = samples.len();
    let s = Summary::from_samples(samples);
    format!(
        "latency {name} n={n} p50_us={:.0} p95_us={:.0} p99_us={:.0} \
         min_us={:.0} max_us={:.0} mean_us={:.0}",
        s.p50, s.p95, s.p99, s.min, s.max, s.mean
    )
}

/// A blocking protocol client over one TCP connection. Also used by the
/// integration tests, so test traffic and load traffic speak through the
/// same code path.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connect and return a raw (pre-handshake) client.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { writer, reader })
    }

    /// Send one frame line (newline appended).
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(format!("{line}\n").as_bytes())
    }

    /// Read one response line (newline stripped). EOF is an error.
    pub fn read_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    /// Read one full response: a single line, or — for `OK table`,
    /// `OK chart`, `OK clarify`, `OK stats`, and `OK slowlog` — every
    /// line through `END`.
    pub fn read_response(&mut self) -> std::io::Result<Vec<String>> {
        let head = self.read_line()?;
        let multi = head.starts_with("OK table ")
            || head.starts_with("OK chart ")
            || head.starts_with("OK clarify ")
            || head.starts_with("OK stats ")
            || head.starts_with("OK slowlog ");
        let mut lines = vec![head];
        if multi {
            loop {
                let line = self.read_line()?;
                let done = line == "END";
                lines.push(line);
                if done {
                    break;
                }
            }
        }
        Ok(lines)
    }

    /// Send a frame and read its full response.
    pub fn request(&mut self, line: &str) -> std::io::Result<Vec<String>> {
        self.send(line)?;
        self.read_response()
    }

    /// Send a frame and assert a single-line response equal to `want`.
    pub fn expect(&mut self, line: &str, want: &str) -> std::io::Result<()> {
        let got = self.request(line)?;
        if got.len() != 1 || got[0] != want {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("sent {line:?}, wanted {want:?}, got {got:?}"),
            ));
        }
        Ok(())
    }
}

struct ClientOutcome {
    samples: Vec<(&'static str, f64)>,
    dump: Vec<u8>,
    busy: u64,
}

fn run_client(addr: SocketAddr, index: usize, requests: usize) -> std::io::Result<ClientOutcome> {
    let mut client = Client::connect(addr)?;
    let mut dump = Vec::new();
    let record = |lines: &[String], dump: &mut Vec<u8>| {
        for line in lines {
            dump.extend_from_slice(line.as_bytes());
            dump.push(b'\n');
        }
    };
    client.expect("HELLO nli/1", "OK nli/1 ready")?;
    client.expect(
        &format!("TENANT client-{index}"),
        &format!("OK tenant client-{index}"),
    )?;
    client.expect(&format!("PREPARE hot {HOT_QUERY}"), "OK prepared hot")?;
    let mut samples = Vec::with_capacity(requests);
    let mut busy = 0u64;
    for j in 0..requests {
        let (name, frame) = if j % 8 == 7 {
            ("exec_hot", "EXEC hot".to_string())
        } else {
            let (name, sql) = baseline::QUERIES[j % baseline::QUERIES.len()];
            (name, format!("SQL {sql}"))
        };
        loop {
            let start = Instant::now();
            client.send(&frame)?;
            let lines = client.read_response()?;
            if lines.len() == 1 && lines[0].starts_with("BUSY ") {
                busy += 1;
                continue; // closed-loop retry; not recorded anywhere
            }
            samples.push((name, start.elapsed().as_micros() as f64));
            record(&lines, &mut dump);
            break;
        }
    }
    client.expect("QUIT", "OK bye")?;
    Ok(ClientOutcome {
        samples,
        dump,
        busy,
    })
}

/// Start an in-process server on a fresh loopback port, run the client
/// fleet against it, shut the server down, and reduce the measurements.
pub fn run_loadgen(cfg: &LoadgenConfig) -> std::io::Result<LoadgenReport> {
    let db = Arc::new(baseline::baseline_db());
    let mut server_cfg = ServerConfig::new(db);
    server_cfg.admission_limit = cfg.admission_limit;
    server_cfg.batch_max = cfg.batch_max;
    server_cfg.exec_workers = cfg.exec_workers;
    server_cfg.slow_threshold_micros = cfg.slow_threshold_micros;
    let handle = server::start(server_cfg)?;
    let report = run_loadgen_against(handle.addr(), cfg);
    handle.shutdown();
    report
}

/// Run the client fleet against an *already running* server (the
/// `--connect` mode of `nli-server-loadgen`, and what the admin-plane CI
/// smoke uses so `STATS TENANT` counts can be reconciled before the
/// server drains). The caller owns the server's lifecycle; only the
/// `clients` and `requests_per_client` fields of `cfg` apply here.
pub fn run_loadgen_against(
    addr: SocketAddr,
    cfg: &LoadgenConfig,
) -> std::io::Result<LoadgenReport> {
    let started = Instant::now();
    let outcomes: Vec<std::io::Result<ClientOutcome>> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..cfg.clients.max(1))
            .map(|i| scope.spawn(move || run_client(addr, i, cfg.requests_per_client.max(1))))
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });
    let elapsed_micros = started.elapsed().as_micros() as f64;

    let mut latencies: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut dumps = Vec::with_capacity(outcomes.len());
    let mut rejected_busy_retries = 0u64;
    for outcome in outcomes {
        let outcome = outcome?;
        rejected_busy_retries += outcome.busy;
        for (name, micros) in outcome.samples {
            latencies.entry(name.to_string()).or_default().push(micros);
        }
        dumps.push(outcome.dump);
    }
    Ok(LoadgenReport {
        dumps,
        rejected_busy_retries,
        latencies,
        elapsed_micros,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_lines_report_percentiles_throughput_and_retries() {
        let report = LoadgenReport {
            dumps: Vec::new(),
            rejected_busy_retries: 2,
            latencies: BTreeMap::from([
                ("scan".to_string(), vec![10.0, 20.0, 30.0, 40.0]),
                ("exec_hot".to_string(), vec![1.0, 2.0, 3.0]),
            ]),
            elapsed_micros: 3_500.0,
        };
        assert_eq!(
            report.summary_lines(),
            [
                "latency all n=7 p50_us=10 p95_us=40 p99_us=40 min_us=1 max_us=40 mean_us=15",
                "latency exec_hot n=3 p50_us=2 p95_us=3 p99_us=3 min_us=1 max_us=3 mean_us=2",
                "latency scan n=4 p50_us=20 p95_us=40 p99_us=40 min_us=10 max_us=40 mean_us=25",
                // 7 responses over 3.5 ms
                "throughput rps=2000.0 responses=7 elapsed_ms=3.5",
                "busy_retries 2",
            ]
        );
    }
}
