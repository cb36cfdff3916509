//! Admin-plane integration tests: the `STATS` / `STATS TENANT` /
//! `SLOWLOG` / `HEALTH` frames against a live loopback server.
//!
//! Coverage matches the guarantees `docs/server-protocol.md` §8 and
//! DESIGN.md §3.9 claim: all four frames answer with grammar-valid
//! responses, non-admin tenants are refused with `E_ADMIN`, `STATS
//! TENANT` is a lookup (it never creates the tenant it names),
//! per-tenant request counts reconcile exactly with the load generator's
//! totals, slow-log entries carry full `EXPLAIN ANALYZE` profiles, and
//! the slow-query ring is byte-identical across executor-worker counts
//! once the one nondeterministic field (wall-clock micros) is stripped.

use nli_bench::baseline;
use nli_server::{run_loadgen_against, start, Client, LoadgenConfig, ServerConfig, ServerHandle};
use std::sync::Arc;

fn start_baseline(configure: impl FnOnce(&mut ServerConfig)) -> ServerHandle {
    let mut cfg = ServerConfig::new(Arc::new(baseline::baseline_db()));
    configure(&mut cfg);
    start(cfg).expect("server starts on a loopback port")
}

fn handshake(handle: &ServerHandle, tenant: &str) -> Client {
    let mut c = Client::connect(handle.addr()).unwrap();
    c.expect("HELLO nli/1", "OK nli/1 ready").unwrap();
    c.expect(&format!("TENANT {tenant}"), &format!("OK tenant {tenant}"))
        .unwrap();
    c
}

/// Parse an `OK stats` body into (key, value) pairs.
fn stats_pairs(lines: &[String]) -> Vec<(String, String)> {
    assert!(
        lines[0].starts_with("OK stats "),
        "expected OK stats head, got {lines:?}"
    );
    assert_eq!(lines.last().unwrap(), "END");
    lines[1..lines.len() - 1]
        .iter()
        .map(|l| {
            let row = l.strip_prefix("ROW ").expect("stats body is ROW lines");
            let (k, v) = row.split_once('\t').expect("stats ROW is key\\tvalue");
            (k.to_string(), v.to_string())
        })
        .collect()
}

fn stat(pairs: &[(String, String)], key: &str) -> String {
    pairs
        .iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("missing stats key {key:?} in {pairs:?}"))
        .1
        .clone()
}

#[test]
fn all_four_admin_frames_answer_grammatically() {
    let handle = start_baseline(|cfg| cfg.slow_threshold_micros = Some(0));
    // generate some traffic first so the stats have something to report
    let mut user = handshake(&handle, "alice");
    let lines = user.request("SQL SELECT COUNT(*) FROM products").unwrap();
    assert!(lines[0].starts_with("OK table "), "{lines:?}");

    let mut admin = handshake(&handle, "admin");
    for frame in ["STATS", "STATS TENANT alice", "SLOWLOG", "HEALTH"] {
        let lines = admin.request(frame).unwrap();
        assert!(lines[0].starts_with("OK "), "{frame} refused: {lines:?}");
        for line in &lines {
            nli_server::validate_server_line(line)
                .unwrap_or_else(|e| panic!("{frame} -> {line:?}: {e}"));
        }
    }

    // spot-check the content behind the grammar
    let pairs = stats_pairs(&admin.request("STATS").unwrap());
    assert_eq!(stat(&pairs, "requests.sql"), "1");
    assert!(stat(&pairs, "tenants").contains("alice"));
    assert_eq!(stat(&pairs, "slowlog.threshold_us"), "0");
    // the window is this server's own: it saw alice's one request, and no
    // other server's in this process
    assert_eq!(stat(&pairs, "window.count"), "1");

    let pairs = stats_pairs(&admin.request("STATS TENANT alice").unwrap());
    assert_eq!(stat(&pairs, "tenant"), "alice");
    assert_eq!(stat(&pairs, "requests.total"), "1");
    assert_eq!(stat(&pairs, "requests.sql"), "1");
    assert_eq!(stat(&pairs, "rows_out"), "1");

    let health = admin.request("HEALTH").unwrap();
    assert_eq!(health.len(), 1);
    let fields: Vec<&str> = health[0].split(' ').collect();
    assert_eq!(&fields[..3], &["OK", "health", "serving"]);
    handle.shutdown();
}

#[test]
fn admin_frames_are_gated_on_the_admin_tenant() {
    let handle = start_baseline(|cfg| cfg.admin_tenant = "ops".to_string());
    let mut user = handshake(&handle, "alice");
    for frame in ["STATS", "STATS TENANT alice", "SLOWLOG", "HEALTH"] {
        let lines = user.request(frame).unwrap();
        assert_eq!(lines.len(), 1, "{frame}: {lines:?}");
        assert!(lines[0].starts_with("ERR E_ADMIN "), "{frame}: {lines:?}");
        nli_server::validate_server_line(&lines[0]).unwrap();
    }
    // the default "admin" id is just another tenant on this server
    let mut fake = handshake(&handle, "admin");
    let lines = fake.request("HEALTH").unwrap();
    assert!(lines[0].starts_with("ERR E_ADMIN "), "{lines:?}");
    // the configured id is admitted
    let mut ops = handshake(&handle, "ops");
    let lines = ops.request("HEALTH").unwrap();
    assert!(lines[0].starts_with("OK health serving "), "{lines:?}");
    handle.shutdown();
}

#[test]
fn stats_tenant_is_a_lookup_not_an_upsert() {
    let handle = start_baseline(|_| {});
    let mut admin = handshake(&handle, "admin");
    let lines = admin.request("STATS TENANT ghost").unwrap();
    assert!(lines[0].starts_with("ERR E_TENANT "), "{lines:?}");
    // asking about a tenant must not have registered it
    assert!(!handle.pool().tenant_ids().iter().any(|t| t == "ghost"));
    // a second ask still fails the same way
    let lines = admin.request("STATS TENANT ghost").unwrap();
    assert!(lines[0].starts_with("ERR E_TENANT "), "{lines:?}");
    handle.shutdown();
}

/// The acceptance-bar reconciliation: after a full loadgen run against a
/// live server, `STATS TENANT client-<i>` counts must sum exactly to the
/// fleet's `clients x requests_per_client`, with per-verb splits intact.
#[test]
fn per_tenant_counts_reconcile_with_loadgen_totals() {
    let handle = start_baseline(|cfg| cfg.slow_threshold_micros = Some(0));
    let cfg = LoadgenConfig {
        clients: 3,
        requests_per_client: 16,
        ..LoadgenConfig::default()
    };
    let report = run_loadgen_against(handle.addr(), &cfg).unwrap();
    assert_eq!(report.dumps.len(), 3);

    let mut admin = handshake(&handle, "admin");
    let mut total = 0u64;
    for i in 0..cfg.clients {
        let pairs = stats_pairs(&admin.request(&format!("STATS TENANT client-{i}")).unwrap());
        let requests: u64 = stat(&pairs, "requests.total").parse().unwrap();
        let sqls: u64 = stat(&pairs, "requests.sql").parse().unwrap();
        let execs: u64 = stat(&pairs, "requests.exec").parse().unwrap();
        // every 8th request is an EXEC of the prepared hot query
        assert_eq!(requests, cfg.requests_per_client as u64);
        assert_eq!(execs, (cfg.requests_per_client / 8) as u64);
        assert_eq!(sqls + execs, requests, "verb split covers every request");
        assert_eq!(stat(&pairs, "prepares"), "1", "one PREPARE hot per client");
        assert!(
            stat(&pairs, "rows_out").parse::<u64>().unwrap() > 0,
            "clients received result rows"
        );
        total += requests;
    }
    assert_eq!(
        total,
        (cfg.clients * cfg.requests_per_client) as u64,
        "per-tenant totals reconcile with the fleet's request count"
    );

    // batching is metered per tenant: every admitted SQL/EXEC goes
    // through the batcher, so the joins sum to the request total too
    let mut joined = 0u64;
    for i in 0..cfg.clients {
        let pairs = stats_pairs(&admin.request(&format!("STATS TENANT client-{i}")).unwrap());
        joined += stat(&pairs, "batches_joined").parse::<u64>().unwrap();
    }
    assert_eq!(joined, total, "every request joined exactly one batch");
    handle.shutdown();
}

/// Split a `SLOWLOG` ROW into its seven fields.
fn slow_fields(line: &str) -> Vec<String> {
    let row = line
        .strip_prefix("ROW ")
        .expect("slowlog body is ROW lines");
    let fields: Vec<String> = row.splitn(7, '\t').map(str::to_string).collect();
    assert_eq!(fields.len(), 7, "slowlog ROW has 7 fields: {line:?}");
    fields
}

#[test]
fn slow_entries_carry_explain_analyze_profiles() {
    let handle = start_baseline(|cfg| cfg.slow_threshold_micros = Some(0));
    let mut user = handshake(&handle, "alice");
    user.request("SQL SELECT name FROM products WHERE price > 100")
        .unwrap();

    let mut admin = handshake(&handle, "admin");
    let lines = admin.request("SLOWLOG").unwrap();
    assert!(lines[0].starts_with("OK slowlog "), "{lines:?}");
    let rows: Vec<&String> = lines[1..lines.len() - 1].iter().collect();
    assert!(!rows.is_empty(), "threshold 0 captures every request");

    let fields = slow_fields(rows.last().unwrap());
    assert_eq!(fields[1], "alice");
    assert_eq!(fields[2], "SQL");
    let statement = nli_server::proto::unescape_field(&fields[4]);
    assert!(
        statement.contains("SELECT name FROM products"),
        "{statement}"
    );
    // the profile is a full EXPLAIN ANALYZE operator tree, with the
    // per-operator row counters but no wall-clock timings
    let profile = nli_server::proto::unescape_field(&fields[5]);
    assert!(profile.contains("rows_out="), "no profile in {profile:?}");
    assert!(!profile.contains("time="), "profile must be timing-free");
    // and the span tree from the thread-scoped capture rides along
    let tree = nli_server::proto::unescape_field(&fields[6]);
    assert_ne!(tree, "", "span tree field present");
    handle.shutdown();
}

/// One run's slow-query ring, with the single nondeterministic field
/// (wall-clock micros, field 4) blanked out of every row.
fn timing_stripped_slowlog(exec_workers: usize) -> Vec<String> {
    let handle = start_baseline(|cfg| {
        cfg.exec_workers = exec_workers;
        cfg.slow_threshold_micros = Some(0);
        cfg.slowlog_capacity = 256;
    });
    // a single closed-loop client keeps capture order deterministic
    let cfg = LoadgenConfig {
        clients: 1,
        requests_per_client: 24,
        exec_workers,
        ..LoadgenConfig::default()
    };
    run_loadgen_against(handle.addr(), &cfg).unwrap();
    let mut admin = handshake(&handle, "admin");
    let lines = admin.request("SLOWLOG").unwrap();
    let rows = lines[1..lines.len() - 1]
        .iter()
        .map(|l| {
            let mut fields = slow_fields(l);
            fields[3] = "-".to_string(); // micros: the one wall-clock field
            fields.join("\t")
        })
        .collect();
    handle.shutdown();
    rows
}

#[test]
fn slowlog_is_byte_identical_across_worker_counts_sans_timings() {
    let serial = timing_stripped_slowlog(1);
    let parallel = timing_stripped_slowlog(4);
    assert_eq!(serial.len(), 24, "threshold 0 captured every request");
    for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
        assert!(
            a == b,
            "slowlog entry {i} differs across worker counts:\n  1 worker: {a}\n  4 workers: {b}"
        );
    }
    assert_eq!(serial.len(), parallel.len());
}
