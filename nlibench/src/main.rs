//! `nlibench`: the repository benchmark. Runs one workload against an
//! in-process `nli-server` over loopback TCP and prints its metrics; see
//! README.md for the workloads and what each metric means.
//!
//! ```text
//! nlibench --workload <analyst|dashboard|ingest> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and the metrics `BENCHMARK.json` lists for the mode
//! (`end_to_end` with `--trace 0`, `per_layer` with `--trace 1`). Every other
//! measurement is printed on the lines before it. The exit code is non-zero
//! when any answer was wrong or an acknowledged write did not survive.

mod stats;
mod trace;
mod wire;
mod workload;

use stats::{median, percentile, CpuTimes, StealSampler, Window};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use wire::{Sample, Tally};
use workload::{Class, Kind, Workload};

/// Set-ups per measured run; `setup_s` is their median.
const SETUPS: usize = 9;
/// `Store::open` repetitions behind `recovery_ms`.
const RECOVERY_OPENS: usize = 5;
/// A run that has not finished by then is stopped with an error.
const WATCHDOG: Duration = Duration::from_secs(170);
/// The closed phase sends a fixed count of requests, but stops after this
/// many times `--seconds`, so a run on a slow host still ends in time.
const CLOSED_CAP: f64 = 1.25;
/// Phases are cut into windows of this length, and the hypervisor's CPU
/// steal is read at every window boundary.
const WINDOW: Duration = Duration::from_secs(1);
/// A window with at most this steal share always counts.
const QUIET_STEAL: f64 = 0.02;
/// When steal is higher, the phase metrics still come from at least this
/// share of the windows, the least stolen ones.
const KEEP_SHARE: f64 = 1.0 / 3.0;
/// Largest allowed |sum of self times - request time| per traced request.
const SELF_TIME_TOLERANCE_NS: i64 = 1_000;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                flags.insert(&k[2..], v);
            }
            _ => return Err(format!("expected --flag value pairs, got {argv:?}")),
        }
    }
    let get = |k: &str| flags.get(k).copied().ok_or(format!("missing --{k}"));
    let kind = Kind::parse(get("workload")?).ok_or("unknown --workload")?;
    let seed = get("seed")?
        .parse()
        .map_err(|_| "--seed must be an integer")?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".to_string());
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".to_string()),
    };
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
    })
}

/// What `BENCHMARK.json` fixes for a run: the workload's open-phase arrival
/// rate and latency limit (stated in its `why`), and the metrics to emit.
struct Spec {
    open_rps: f64,
    limit_ms: f64,
    end_to_end: Vec<(String, String)>,
    per_layer: Vec<(String, String)>,
}

fn number_after(text: &str, prefix: &str, suffix: &str) -> Option<f64> {
    let rest = &text[text.find(prefix)? + prefix.len()..];
    rest[..rest.find(suffix)?].trim().parse().ok()
}

fn read_spec(kind: Kind) -> Result<Spec, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
    let doc = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let why = doc
        .get("workloads")
        .and_then(|w| w.as_array())
        .and_then(|ws| {
            ws.iter()
                .find(|w| w.get("name").and_then(|n| n.as_str()) == Some(kind.name()))
        })
        .and_then(|w| w.get("why"))
        .and_then(|w| w.as_str())
        .ok_or_else(|| format!("BENCHMARK.json has no workload {}", kind.name()))?;
    let metrics = |key: &str| -> Result<Vec<(String, String)>, String> {
        doc.get(key)
            .and_then(|m| m.as_array())
            .ok_or(format!("BENCHMARK.json has no {key}"))?
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).map(str::to_string);
                field("name")
                    .zip(field("unit"))
                    .ok_or(format!("malformed {key} entry"))
            })
            .collect()
    };
    Ok(Spec {
        open_rps: number_after(why, "open phase at ", "req/s")
            .ok_or("workload why must state 'open phase at <n> req/s'")?,
        limit_ms: number_after(why, "latency limit ", "ms")
            .ok_or("workload why must state 'latency limit <n> ms'")?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

/// Measured values by metric name: value, unit, and the sample count.
#[derive(Default)]
struct Metrics(BTreeMap<String, (f64, &'static str, usize)>);

impl Metrics {
    /// Record a metric. One without samples is not reached by this
    /// workload's traffic and is left out.
    fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        if samples == 0 || !value.is_finite() {
            return;
        }
        self.0.insert(name.to_string(), (value, unit, samples));
        println!("metric {name} {value} {unit} n={samples}");
    }

    /// `<prefix>_p50_ms` and `<prefix>_p99_ms` of the samples that `keep`
    /// selects.
    fn latency(&mut self, prefix: &str, samples: &[Sample], keep: impl Fn(&Sample) -> bool) {
        let mut ms: Vec<f64> = samples.iter().filter(|s| keep(s)).map(|s| s.ms).collect();
        let n = ms.len();
        self.put(&format!("{prefix}_p50_ms"), median(&mut ms), "ms", n);
        self.put(
            &format!("{prefix}_p99_ms"),
            percentile(&mut ms, 99.0),
            "ms",
            n,
        );
    }

    /// The result line: exactly the metrics `wanted` names, with the units
    /// it gives them.
    fn result_line(
        &self,
        wanted: &[(String, String)],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        let mut fields = Vec::new();
        for (name, unit) in wanted {
            let (value, got_unit, _) = self
                .0
                .get(name)
                .ok_or(format!("metric {name} was not measured on this workload"))?;
            if got_unit != unit {
                return Err(format!(
                    "metric {name} is in {got_unit}, BENCHMARK.json says {unit}"
                ));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            fields.join(", ")
        ))
    }
}

/// The windows a phase's metrics come from. Of the sampled windows that end
/// by `span_s`, every one counts whose steal share is at most `QUIET_STEAL`,
/// or at most that of the `KEEP_SHARE` least stolen. Stolen time is time the
/// program could not run, so on a loaded host the metrics come from the
/// stretches where it got the CPU. A phase shorter than one window is one
/// window.
fn quiet_windows(sampled: &[Window], span_s: f64) -> Vec<Window> {
    let whole: Vec<Window> = sampled.iter().filter(|w| w.to <= span_s).copied().collect();
    if whole.is_empty() {
        return vec![Window {
            from: 0.0,
            to: span_s,
            steal: 0.0,
        }];
    }
    let mut shares: Vec<f64> = whole.iter().map(|w| w.steal).collect();
    let cut = percentile(&mut shares, KEEP_SHARE * 100.0).max(QUIET_STEAL);
    whole.into_iter().filter(|w| w.steal <= cut).collect()
}

/// Whether a sample was sent (closed phase) or due (open phase) within one
/// of `windows`.
fn within(windows: &[Window]) -> impl Fn(&Sample) -> bool + '_ {
    |s| windows.iter().any(|w| w.from <= s.at && s.at < w.to)
}

fn print_windows(phase: &str, sampled: &[Window], kept: &[Window]) {
    let shown: Vec<String> = sampled.iter().map(|w| format!("{:.3}", w.steal)).collect();
    let worst = kept.iter().map(|w| w.steal).fold(0.0, f64::max);
    println!(
        "windows {phase} kept={} kept_steal_max={worst:.4} steal={}",
        kept.len(),
        shown.join(",")
    );
}

fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn print_header(args: &Args, spec: &Spec, w: &Workload) {
    println!(
        "nlibench workload={} seed={} seconds={} trace={} connections={} open_rps={} limit_ms={}",
        w.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workload::CONNECTIONS,
        spec.open_rps,
        spec.limit_ms
    );
    println!(
        "hash script={:016x} expected={:016x}",
        w.script_hash, w.expected_hash
    );
}

fn print_env(cpu: Option<(CpuTimes, CpuTimes)>) {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let steal = cpu.map_or(f64::NAN, |(a, b)| a.steal_share(&b));
    println!(
        "env available_parallelism={parallelism} cpu_steal_share={steal:.4} commit={} rustc=\"{}\" profile={}",
        commit(),
        env!("NLIBENCH_RUSTC"),
        env!("NLIBENCH_PROFILE")
    );
}

fn print_phase(name: &str, t: &Tally, extra: &str) {
    println!(
        "phase {name} attempted={} failed={}{extra}",
        t.attempted, t.failed
    );
    for e in &t.examples {
        println!("failure {name} {e}");
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nlibench: {e}");
            std::process::exit(2);
        }
    };
    let tmp =
        PathBuf::from(".nlibench_tmp").join(format!("{}-{}", args.kind.name(), std::process::id()));
    let watchdog_tmp = tmp.clone();
    std::thread::spawn(move || {
        std::thread::sleep(WATCHDOG);
        eprintln!("nlibench: run exceeded {WATCHDOG:?}");
        let _ = std::fs::remove_dir_all(&watchdog_tmp);
        std::process::exit(3);
    });
    let result = read_spec(args.kind).and_then(|spec| {
        if args.trace {
            traced(&args, &spec, &tmp)
        } else {
            measured(&args, &spec, &tmp)
        }
    });
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(".nlibench_tmp");
    match result {
        Ok((line, correct)) => {
            println!("{line}");
            std::process::exit(if correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("nlibench: {e}");
            std::process::exit(2);
        }
    }
}

fn build(args: &Args, spec: &Spec) -> Result<Workload, String> {
    let t = Instant::now();
    let w = workload::build(args.kind, args.seed, args.seconds, spec.open_rps)?;
    print_header(args, spec, &w);
    println!("script_build_s {}", t.elapsed().as_secs_f64());
    Ok(w)
}

/// The untraced run: set-up (several times), closed phase, open phase, and
/// for the durable workload the recovery and durability check.
fn measured(args: &Args, spec: &Spec, tmp: &Path) -> Result<(String, bool), String> {
    let w = build(args, spec)?;
    let mut setup = Tally::default();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut served = None;
    for i in 0..SETUPS {
        let dir = w.kind.durable().then(|| tmp.join(format!("store-{i}")));
        let t = Instant::now();
        let s = wire::set_up(&w, dir.as_deref(), &mut setup).map_err(|e| format!("set-up: {e}"))?;
        setup_s.push(t.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            s.shut_down();
            if let Some(dir) = dir {
                let _ = std::fs::remove_dir_all(dir);
            }
        } else {
            served = Some(s);
        }
    }
    let mut served = served.expect("at least one set-up");
    let n = w.conns.len();
    let mut positions = vec![0usize; n];
    let cpu0 = CpuTimes::read();
    let start = Instant::now();
    let sampler = StealSampler::start(start, WINDOW);
    let (closed, closed_s) = wire::closed_phase(
        &mut served.clients,
        &w.conns,
        &mut positions,
        w.closed_per_conn,
        spec.limit_ms,
        start,
        start + Duration::from_secs_f64(args.seconds * CLOSED_CAP),
    );
    let closed_sampled = sampler.finish();
    let capped = positions.iter().any(|&p| p < w.closed_per_conn);
    let start = Instant::now() + Duration::from_millis(20);
    let sampler = StealSampler::start(start, WINDOW);
    let open = wire::open_phase(
        &mut served.clients,
        &w.conns,
        &mut positions,
        spec.open_rps,
        w.open_per_conn,
        start,
    );
    let open_sampled = sampler.finish();
    let cpu1 = CpuTimes::read();
    let acked: Vec<Vec<usize>> = closed
        .iter()
        .zip(&open)
        .map(|(a, b)| a.acked.iter().chain(&b.acked).copied().collect())
        .collect();
    let data_dir = served.data_dir.clone();
    served.shut_down();
    let durability = match &data_dir {
        Some(dir) => Some(wire::check_durability(&w, dir, &acked, RECOVERY_OPENS)?),
        None => None,
    };

    print_env(cpu0.zip(cpu1));
    // The closed-phase metrics cover the time both connections were busy:
    // once the first has sent its last request, the other runs alone.
    let both_s = closed
        .iter()
        .map(|t| t.last_sent)
        .fold(f64::INFINITY, f64::min);
    let closed = Tally::merge(closed);
    let mut open = Tally::merge(open);
    let each: Vec<String> = setup_s.iter().map(|t| format!("{t:.5}")).collect();
    print_phase(
        "setup",
        &setup,
        &format!(" runs={SETUPS} seconds={}", each.join(",")),
    );
    let good = closed.samples.iter().filter(|s| s.good).count();
    print_phase(
        "closed",
        &closed,
        &format!(
            " seconds={closed_s:.3} both_busy_seconds={both_s:.3} good={good} capped={capped}"
        ),
    );
    let lateness = format!(
        " rate_rps={} lateness_p50_ms={:.4} lateness_p99_ms={:.4} lateness_max_ms={:.4} n={}",
        spec.open_rps,
        median(&mut open.lateness),
        percentile(&mut open.lateness, 99.0),
        percentile(&mut open.lateness, 100.0),
        open.lateness.len(),
    );
    print_phase("open", &open, &lateness);
    let mut m = Metrics::default();
    m.put("setup_s", median(&mut setup_s), "s", setup_s.len());
    let closed_w = quiet_windows(&closed_sampled, both_s);
    print_windows("closed", &closed_sampled, &closed_w);
    let counted = within(&closed_w);
    // Goodput is the median over the windows that count.
    let mut goodput: Vec<f64> = closed_w
        .iter()
        .map(|win| {
            let good = closed
                .samples
                .iter()
                .filter(|s| s.good && win.from <= s.at && s.at < win.to)
                .count();
            good as f64 / (win.to - win.from)
        })
        .collect();
    let shown: Vec<String> = goodput.iter().map(|v| format!("{v:.1}")).collect();
    println!("goodput_windows {}", shown.join(","));
    let good = closed
        .samples
        .iter()
        .filter(|s| s.good && counted(s))
        .count();
    m.put("goodput_rps", median(&mut goodput), "req/s", good);
    for (prefix, class) in [
        ("ask", Class::Ask),
        ("read", Class::Read),
        ("write", Class::Write),
    ] {
        m.latency(prefix, &closed.samples, |s| s.class == class && counted(s));
    }
    let open_s = (w.open_per_conn * w.conns.len()) as f64 / spec.open_rps;
    let open_w = quiet_windows(&open_sampled, open_s);
    print_windows("open", &open_sampled, &open_w);
    m.latency("open", &open.samples, within(&open_w));
    let mut mismatched = 0;
    if let Some((mut opens, rows)) = durability {
        println!(
            "phase recovery opens={} rows_mismatched={rows}",
            opens.len()
        );
        m.put("recovery_ms", median(&mut opens), "ms", opens.len());
        mismatched = rows;
    }
    let rss = stats::peak_rss_mib().unwrap_or(f64::NAN);
    m.put("peak_rss_mb", rss, "MiB", 1);
    let attempted = setup.attempted + closed.attempted + open.attempted;
    let failed = setup.failed + closed.failed + open.failed + mismatched;
    let correct = failed == 0 && !closed.dead && !open.dead;
    Ok((
        m.result_line(&spec.end_to_end, correct, attempted, failed)?,
        correct,
    ))
}

/// The traced run: a short wire phase that leaves the server's registry
/// counters behind and gives the untraced per-request time, then the
/// in-process replay that gives the per-layer numbers.
fn traced(args: &Args, spec: &Spec, tmp: &Path) -> Result<(String, bool), String> {
    let w = build(args, spec)?;
    let mut setup = Tally::default();
    let dir = w.kind.durable().then(|| tmp.join("store"));
    let mut served =
        wire::set_up(&w, dir.as_deref(), &mut setup).map_err(|e| format!("set-up: {e}"))?;
    // Both the wire phase and the replay send the first third of the
    // closed-phase script.
    let count = (w.closed_per_conn / 3).max(1);
    let registry = nli_core::obs::global();
    let before = registry.snapshot();
    let cpu0 = CpuTimes::read();
    let mut positions = vec![0usize; w.conns.len()];
    let start = Instant::now();
    let (wire_tallies, wire_s) = wire::closed_phase(
        &mut served.clients,
        &w.conns,
        &mut positions,
        count,
        spec.limit_ms,
        start,
        start + Duration::from_secs_f64(args.seconds * CLOSED_CAP),
    );
    let after = registry.snapshot();
    served.shut_down();
    let replay = trace::replay(&w, count, tmp)?;
    let cpu1 = CpuTimes::read();
    print_env(cpu0.zip(cpu1));
    let wire = Tally::merge(wire_tallies);
    print_phase("setup", &setup, " runs=1");
    print_phase("wire", &wire, &format!(" seconds={wire_s:.3}"));
    let replay_tally = Tally {
        attempted: replay.attempted,
        failed: replay.failed,
        examples: replay.examples.clone(),
        ..Tally::default()
    };
    print_phase(
        "replay",
        &replay_tally,
        &format!(" spans={}", replay.spans.len()),
    );

    // Registry counters the wire phase left behind.
    let delta = after.delta(&before);
    for (k, v) in delta.counters.iter().chain(&delta.scheduling) {
        if ["plan_cache.", "storage.wal.", "sql.index.", "server."]
            .iter()
            .any(|p| k.starts_with(p))
            && *v > 0
        {
            println!("registry {k} {v}");
        }
    }
    let batch = |s: &nli_core::obs::Snapshot| {
        s.values
            .get("server.batch_size")
            .map_or((0, 0), |h| (h.count, h.sum))
    };
    let (c1, s1) = batch(&after);
    let (c0, s0) = batch(&before);
    let counter = |name: &str| {
        delta
            .counters
            .get(name)
            .or_else(|| delta.scheduling.get(name))
            .copied()
            .unwrap_or(0)
    };

    let selfs = trace::self_times(&replay.spans);
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (s, &ns) in replay.spans.iter().zip(&selfs) {
        by_name.entry(s.name).or_default().push(ns as f64 / 1e3);
    }
    let mut m = Metrics::default();
    let mut span_metric = |m: &mut Metrics, metric: &str, span: &str| {
        let v = by_name.get_mut(span).map_or(&mut [][..], |v| &mut v[..]);
        let n = v.len();
        m.put(metric, median(v), "us", n);
    };
    span_metric(&mut m, "proto.parse_us", "proto.parse");
    span_metric(&mut m, "proto.render_us", "proto.render");
    let mut bytes: Vec<f64> = replay.bytes_out.iter().map(|&b| b as f64).collect();
    m.put("proto.bytes_out", median(&mut bytes), "B", bytes.len());
    let mut wait: Vec<f64> = replay
        .batch_wait_ns
        .iter()
        .map(|&n| n as f64 / 1e3)
        .collect();
    m.put("batch.wait_us", median(&mut wait), "us", wait.len());
    m.put(
        "batch.jobs_per_exec",
        (s1 - s0) as f64 / (c1 - c0).max(1) as f64,
        "jobs",
        (c1 - c0) as usize,
    );
    span_metric(&mut m, "session.ask_us", "session.ask");
    span_metric(&mut m, "text2sql.parse_us", "text2sql.parse");
    span_metric(&mut m, "text2vis.parse_us", "text2vis.parse");
    span_metric(&mut m, "vql.execute_us", "vql.execute");
    let asks: Vec<bool> = w
        .conns
        .iter()
        .flat_map(|c| c.body.iter())
        .filter(|r| r.class == Class::Ask)
        .map(|r| r.expect.answered())
        .collect();
    m.put(
        "session.answered_ratio",
        asks.iter().filter(|&&a| a).count() as f64 / asks.len().max(1) as f64,
        "ratio",
        asks.len(),
    );
    span_metric(&mut m, "sql.prepare_hit_us", "sql.prepare_hit");
    span_metric(&mut m, "sql.prepare_miss_us", "sql.prepare_miss");
    let (hits, misses) = (counter("plan_cache.hits"), counter("plan_cache.misses"));
    m.put(
        "sql.plan_cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
        (hits + misses) as usize,
    );
    span_metric(&mut m, "sql.execute_us", "sql.execute");
    let (examined, statements) = rows_examined_per_row(&w, &replay.final_db)?;
    m.put("sql.rows_examined_per_row", examined, "rows", statements);
    span_metric(&mut m, "sql.dml_op_us", "sql.dml_op");
    span_metric(&mut m, "database.clone_us", "database.clone");
    span_metric(&mut m, "database.derive_us", "database.derive");
    span_metric(&mut m, "storage.commit_us", "storage.commit");
    let commits = counter("storage.wal.commits");
    m.put(
        "storage.wal_bytes_per_write",
        counter("storage.wal.bytes_appended") as f64 / commits.max(1) as f64,
        "B",
        commits as usize,
    );
    let mut opens = replay.open_ms.clone();
    m.put("storage.open_ms", median(&mut opens), "ms", opens.len());
    span_metric(&mut m, "db.dml_us", "db.dml");

    // Tracing overhead: traced request time beside the untraced wire time.
    for (name, class) in [
        ("ask", Class::Ask),
        ("read", Class::Read),
        ("write", Class::Write),
    ] {
        let Some(traced) = replay.request_ms.get(name) else {
            continue;
        };
        let mut traced = traced.clone();
        let mut wire_ms: Vec<f64> = wire
            .samples
            .iter()
            .filter(|s| s.class == class)
            .map(|s| s.ms)
            .collect();
        let (t50, w50) = (median(&mut traced), median(&mut wire_ms));
        println!(
            "overhead {name} traced_p50_ms={t50:.4} wire_p50_ms={w50:.4} traced_over_wire={:.3} n={}",
            t50 / w50,
            traced.len()
        );
    }
    let gaps = trace::self_time_gaps(&replay.spans, &selfs);
    let worst = gaps.iter().map(|g| g.abs()).max().unwrap_or(0);
    let violations = gaps
        .iter()
        .filter(|g| g.abs() > SELF_TIME_TOLERANCE_NS)
        .count();
    println!(
        "self_time_check trees={} max_gap_us={:.3} tolerance_us={:.3} violations={violations}",
        gaps.len(),
        worst as f64 / 1e3,
        SELF_TIME_TOLERANCE_NS as f64 / 1e3
    );
    let spans_path = PathBuf::from(".nlibench_out").join(format!("spans-{}.jsonl", w.kind.name()));
    trace::write_spans(&spans_path, &replay.spans)
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    println!("spans {}", spans_path.display());

    let attempted = setup.attempted + wire.attempted + replay.attempted;
    let failed = setup.failed + wire.failed + replay.failed;
    let correct = failed == 0 && violations == 0 && !wire.dead;
    Ok((
        m.result_line(&spec.per_layer, correct, attempted, failed)?,
        correct,
    ))
}

/// Rows the scans read per result row returned, from `EXPLAIN ANALYZE` of
/// the first 100 reads of each connection's script, planned as the server
/// plans them. A count, so it repeats exactly for a fixed seed.
fn rows_examined_per_row(w: &Workload, db: &nli_core::Database) -> Result<(f64, usize), String> {
    let engine = nli_sql::SqlEngine::new();
    let (mut scanned, mut returned, mut statements) = (0u64, 0u64, 0usize);
    for conn in &w.conns {
        let prepared: BTreeMap<String, String> = conn
            .setup
            .iter()
            .filter_map(|r| match nli_server::parse_frame(&r.frame) {
                Ok(nli_server::Frame::Prepare { name, sql }) => Some((name, sql)),
                _ => None,
            })
            .collect();
        for req in conn
            .body
            .iter()
            .filter(|r| r.class == Class::Read)
            .take(100)
        {
            let sql = match req.frame.strip_prefix("EXEC ") {
                Some(name) => prepared
                    .get(name)
                    .ok_or(format!("unprepared {name}"))?
                    .as_str(),
                None => &req.frame["SQL ".len()..],
            };
            let analyzed = engine
                .prepare(sql, &db.schema)
                .and_then(|p| p.explain_analyze(db))
                .map_err(|e| format!("explain analyze {sql:?}: {e}"))?;
            analyzed.profile.each_op(&mut |op, s| {
                if op == "scan" {
                    scanned += s.rows_in;
                }
            });
            returned += analyzed.result.rows.len() as u64;
            statements += 1;
        }
    }
    Ok((scanned as f64 / returned.max(1) as f64, statements))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sampled(steal: &[f64]) -> Vec<Window> {
        steal
            .iter()
            .enumerate()
            .map(|(k, &steal)| Window {
                from: k as f64,
                to: (k + 1) as f64,
                steal,
            })
            .collect()
    }

    #[test]
    fn quiet_windows_keep_every_window_on_a_quiet_host() {
        let kept = quiet_windows(&sampled(&[0.0, 0.01, 0.0, 0.02, 0.0]), 4.5);
        // Four windows end by 4.5 s; the fifth runs past it.
        assert_eq!(kept, sampled(&[0.0, 0.01, 0.0, 0.02]));
    }

    #[test]
    fn quiet_windows_keep_the_least_stolen_third_on_a_loaded_host() {
        let kept: Vec<f64> = quiet_windows(&sampled(&[0.3, 0.01, 0.4, 0.35, 0.3, 0.32]), 6.0)
            .iter()
            .map(|w| w.steal)
            .collect();
        assert_eq!(kept, vec![0.3, 0.01, 0.3]);
    }

    #[test]
    fn a_phase_shorter_than_a_window_is_one_window() {
        let kept = quiet_windows(&sampled(&[0.5]), 0.4);
        assert_eq!(
            kept,
            vec![Window {
                from: 0.0,
                to: 0.4,
                steal: 0.0
            }]
        );
    }
}
