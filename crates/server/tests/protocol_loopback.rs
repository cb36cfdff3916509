//! Loopback integration tests: a real server on a real (loopback) TCP
//! port, driven through the same [`Client`] the load generator uses.
//!
//! Coverage matches the guarantees DESIGN.md §3.7 claims: handshake
//! ordering, multi-tenant isolation (dialogue state *and* prepared
//! statements), malformed/oversized-frame handling, `BUSY` under a
//! saturated admission gate, graceful drain (also past a client that
//! never reads), and byte-identical transcripts across executor-worker
//! counts.

use nli_core::{Column, DataType, Database, Schema, Table, Value};
use nli_server::{run_loadgen, start, Client, ExecGate, LoadgenConfig, ServerConfig, ServerHandle};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// Small hand-built retail table whose NL questions the session pipeline
/// resolves deterministically (same data as the pool tests).
fn shop_db() -> Arc<Database> {
    let schema = Schema::new(
        "shop",
        vec![Table::new(
            "sales",
            vec![
                Column::new("id", DataType::Int).primary(),
                Column::new("category", DataType::Text),
                Column::new("amount", DataType::Float),
            ],
        )],
    );
    let mut d = Database::empty(schema);
    d.insert_all(
        "sales",
        vec![
            vec![1.into(), "Tools".into(), 100.0.into()],
            vec![2.into(), "Toys".into(), 50.0.into()],
            vec![3.into(), "Tools".into(), 70.0.into()],
        ],
    )
    .unwrap();
    Arc::new(d)
}

fn start_shop(configure: impl FnOnce(&mut ServerConfig)) -> ServerHandle {
    let mut cfg = ServerConfig::new(shop_db());
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

#[test]
fn handshake_queries_and_conversation_work_end_to_end() {
    let handle = start_shop(|_| {});
    let mut c = handshake(&handle, "alice");
    assert_eq!(c.request("PING").unwrap(), ["OK pong"]);

    // stateless SQL
    let lines = c.request("SQL SELECT COUNT(*) FROM sales").unwrap();
    assert_eq!(lines[0], "OK table 1 1");
    assert_eq!(lines[2], "ROW 3");
    assert_eq!(lines[3], "END");

    // prepared statements
    c.expect(
        "PREPARE big SELECT id FROM sales WHERE amount > 60",
        "OK prepared big",
    )
    .unwrap();
    let lines = c.request("EXEC big").unwrap();
    assert_eq!(lines[0], "OK table 2 1");

    // conversational ASK: base turn then a refinement that needs history
    let lines = c.request("ASK How many sales are there?").unwrap();
    assert_eq!(lines[0], "OK table 1 1");
    assert_eq!(lines[2], "ROW 3");
    let lines = c
        .request("ASK Only those with amount greater than 60.")
        .unwrap();
    assert_eq!(lines[2], "ROW 2", "{lines:?}");

    // RESET forgets the dialogue: the refinement now fails
    c.expect("RESET", "OK reset").unwrap();
    let lines = c
        .request("ASK Only those with amount greater than 60.")
        .unwrap();
    assert!(lines[0].starts_with("ERR "), "{lines:?}");

    c.expect("QUIT", "OK bye").unwrap();
    handle.shutdown();
}

#[test]
fn hello_violations_close_the_connection() {
    let handle = start_shop(|_| {});

    // wrong version
    let mut c = Client::connect(handle.addr()).unwrap();
    c.send("HELLO nli/2").unwrap();
    assert!(c.read_line().unwrap().starts_with("ERR E_VERSION "));
    assert!(c.read_line().is_err(), "connection must be closed");

    // a query before HELLO
    let mut c = Client::connect(handle.addr()).unwrap();
    c.send("SQL SELECT 1").unwrap();
    assert!(c.read_line().unwrap().starts_with("ERR E_ORDER "));
    assert!(c.read_line().is_err());

    // queries between HELLO and TENANT are refused but the connection
    // survives — the client can still complete the handshake
    let mut c = Client::connect(handle.addr()).unwrap();
    c.expect("HELLO nli/1", "OK nli/1 ready").unwrap();
    let line = c.request("SQL SELECT COUNT(*) FROM sales").unwrap();
    assert!(line[0].starts_with("ERR E_ORDER "), "{line:?}");
    c.expect("TENANT late", "OK tenant late").unwrap();
    assert_eq!(
        c.request("SQL SELECT COUNT(*) FROM sales").unwrap()[0],
        "OK table 1 1"
    );
    handle.shutdown();
}

#[test]
fn tenants_are_isolated_but_shared_across_connections() {
    let handle = start_shop(|_| {});
    let mut alice = handshake(&handle, "alice");
    let mut bob = handshake(&handle, "bob");

    // alice's prepared statement is invisible to bob...
    alice
        .expect("PREPARE q1 SELECT category FROM sales", "OK prepared q1")
        .unwrap();
    let lines = bob.request("EXEC q1").unwrap();
    assert!(lines[0].starts_with("ERR E_PREPARE "), "{lines:?}");

    // ...but visible to a *second connection* binding the same tenant
    let mut alice2 = handshake(&handle, "alice");
    assert_eq!(alice2.request("EXEC q1").unwrap()[0], "OK table 3 1");

    // dialogue state is per tenant too: alice's refinement works on the
    // second connection, bob's identical refinement fails cold
    alice.request("ASK How many sales are there?").unwrap();
    let lines = alice2
        .request("ASK Only those with amount greater than 60.")
        .unwrap();
    assert_eq!(lines[0], "OK table 1 1", "{lines:?}");
    let lines = bob
        .request("ASK Only those with amount greater than 60.")
        .unwrap();
    assert!(lines[0].starts_with("ERR "), "{lines:?}");

    assert_eq!(handle.pool().tenant_ids(), ["alice", "bob"]);
    handle.shutdown();
}

#[test]
fn malformed_and_oversized_frames_are_rejected() {
    let handle = start_shop(|cfg| cfg.max_frame_bytes = 256);
    let mut c = handshake(&handle, "alice");

    // malformed frame after the handshake: error, connection stays up
    let lines = c.request("FROBNICATE now").unwrap();
    assert!(lines[0].starts_with("ERR E_PROTO "), "{lines:?}");
    assert_eq!(c.request("PING").unwrap(), ["OK pong"]);

    // bad tenant id and bad statement name use their own codes
    let lines = c.request("TENANT bad/id").unwrap();
    assert!(lines[0].starts_with("ERR E_TENANT "), "{lines:?}");
    let lines = c.request("EXEC no-such-name!").unwrap();
    assert!(lines[0].starts_with("ERR E_PREPARE "), "{lines:?}");

    // oversized frame: error, then the connection closes
    let big = format!(
        "SQL SELECT * FROM sales WHERE category = '{}'",
        "x".repeat(400)
    );
    c.send(&big).unwrap();
    assert!(c.read_line().unwrap().starts_with("ERR E_TOOBIG "));
    assert!(c.read_line().is_err(), "connection must be closed");
    handle.shutdown();
}

#[test]
fn saturated_admission_answers_busy_immediately() {
    let gate = ExecGate::new();
    gate.close();
    let handle = start_shop(|cfg| {
        cfg.admission_limit = 1;
        cfg.exec_gate = Some(gate.clone());
    });
    let mut blocked = handshake(&handle, "alice");
    let mut rejected = handshake(&handle, "bob");

    // first request holds the only permit (its execution is gated)
    blocked.send("SQL SELECT COUNT(*) FROM sales").unwrap();
    // wait until the job is actually in flight before probing
    std::thread::sleep(Duration::from_millis(100));

    // second request is shed, not queued; control frames still answer
    let lines = rejected.request("SQL SELECT COUNT(*) FROM sales").unwrap();
    assert_eq!(lines, ["BUSY 1"]);
    assert_eq!(rejected.request("PING").unwrap(), ["OK pong"]);

    // releasing the gate completes the admitted request
    gate.open();
    let lines = blocked.read_response().unwrap();
    assert_eq!(lines[0], "OK table 1 1");
    assert_eq!(lines[2], "ROW 3");

    // and the permit is free again
    let lines = rejected.request("SQL SELECT COUNT(*) FROM sales").unwrap();
    assert_eq!(lines[0], "OK table 1 1");
    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_work() {
    let gate = ExecGate::new();
    gate.close();
    let handle = start_shop(|cfg| cfg.exec_gate = Some(gate.clone()));
    let mut in_flight = handshake(&handle, "alice");
    let mut late = handshake(&handle, "bob");

    in_flight.send("SQL SELECT category FROM sales").unwrap();
    std::thread::sleep(Duration::from_millis(100));
    handle.begin_shutdown();
    std::thread::sleep(Duration::from_millis(100));

    // the draining server refuses late work: whether the frame races the
    // drain notice or not, the client reads E_SHUTDOWN and then EOF
    let _ = late.send("SQL SELECT COUNT(*) FROM sales");
    assert!(late.read_line().unwrap().starts_with("ERR E_SHUTDOWN "));
    assert!(late.read_line().is_err());

    // the admitted request still completes, in full
    gate.open();
    let lines = in_flight.read_response().unwrap();
    assert_eq!(lines[0], "OK table 3 1");
    assert_eq!(lines.last().unwrap(), "END");
    handle.shutdown();
}

#[test]
fn drain_finishes_past_a_client_that_never_reads() {
    // Thousands of pipelined requests whose responses are never read fill
    // both socket buffers and stall the connection thread's write. The
    // stalled write must end the connection, or shutdown joins it forever.
    let handle = start(ServerConfig::new(Arc::new(
        nli_bench::baseline::baseline_db(),
    )))
    .unwrap();
    let mut lazy = TcpStream::connect(handle.addr()).unwrap();
    lazy.set_write_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut frames = String::from("HELLO nli/1\nTENANT lazy\n");
    for _ in 0..3000 {
        frames.push_str("SQL SELECT * FROM sales\n");
    }
    lazy.write_all(frames.as_bytes()).unwrap();

    // wait until the connection thread is stuck in a write: its admitted
    // request count stops moving short of the 3000 sent
    let tenant = loop {
        match handle.pool().get_tenant("lazy") {
            Some(t) => break t,
            None => std::thread::sleep(Duration::from_millis(10)),
        }
    };
    let mut admitted = tenant.stats().requests.get();
    loop {
        std::thread::sleep(Duration::from_millis(300));
        let now = tenant.stats().requests.get();
        if now == admitted {
            break;
        }
        admitted = now;
    }
    assert!(admitted < 3000, "every response fit in the socket buffers");

    // watchdog: a drain that hangs fails the test instead of hanging it
    let (drained, done) = std::sync::mpsc::channel();
    let drainer = std::thread::spawn(move || {
        handle.shutdown();
        let _ = drained.send(());
    });
    done.recv_timeout(Duration::from_secs(20))
        .expect("shutdown did not return within 20 s");
    drainer.join().unwrap();
}

#[test]
fn transcripts_are_byte_identical_across_worker_counts() {
    // slow capture at threshold 0 profiles every request; it must never
    // leak into the response stream (capture runs after the reply)
    let run = |workers: usize| {
        run_loadgen(&LoadgenConfig {
            clients: 3,
            requests_per_client: 16,
            exec_workers: workers,
            slow_threshold_micros: Some(0),
            ..LoadgenConfig::default()
        })
        .unwrap()
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(serial.dumps.len(), parallel.dumps.len());
    for (i, (a, b)) in serial.dumps.iter().zip(&parallel.dumps).enumerate() {
        assert!(a == b, "client {i} transcript differs across worker counts");
        assert!(!a.is_empty());
    }
}

#[test]
fn server_counters_classify_by_determinism() {
    // run against a private check of the obs export contract: request
    // counters are deterministic, BUSY rejections are scheduling-class
    let snapshot = nli_core::obs::global().snapshot();
    let json = snapshot.to_json();
    let deterministic = snapshot.deterministic_json();
    // this test runs in the same process as the others, so the counters
    // exist by now; assert the classification, not the values
    if json.contains("server.rejected_busy") {
        assert!(
            !deterministic.contains("server.rejected_busy"),
            "BUSY counts must stay out of the deterministic view"
        );
    }
    if json.contains("server.batch_size") {
        assert!(
            !deterministic.contains("server.batch_size"),
            "batch-size histograms must stay out of the deterministic view"
        );
    }
}

#[test]
fn ask_falls_back_to_clarification_or_chart_rendering() {
    // a VIS-flavoured question produces a chart response frame
    let handle = start_shop(|_| {});
    let mut c = handshake(&handle, "viz");
    let lines = c
        .request("ASK Show a bar chart of the total amount for each category.")
        .unwrap();
    assert!(lines[0].starts_with("OK chart BAR "), "{lines:?}");
    assert_eq!(lines.last().unwrap(), "END");
    for line in &lines {
        nli_server::validate_server_line(line).unwrap();
    }
    handle.shutdown();
}

/// Every response line the server ever writes must satisfy the response
/// grammar the protocol document specifies.
#[test]
fn all_responses_are_grammatical() {
    let handle = start_shop(|_| {});
    let mut c = handshake(&handle, "gram");
    for frame in [
        "PING",
        "SQL SELECT * FROM sales",
        "SQL SELECT nope FROM sales",
        "SQL SELEC",
        "PREPARE p SELECT id FROM sales",
        "EXEC p",
        "EXEC missing",
        "ASK How many sales are there?",
        "RESET",
        "GARBAGE",
        "QUIT",
    ] {
        for line in c.request(frame).unwrap() {
            nli_server::validate_server_line(&line)
                .unwrap_or_else(|e| panic!("{frame:?} -> {line:?}: {e}"));
        }
    }
    handle.shutdown();
}

#[test]
fn values_survive_field_escaping_on_the_wire() {
    // a text value containing a tab and a newline must come back as one
    // ROW line with intact field structure
    let schema = Schema::new(
        "notes",
        vec![Table::new(
            "notes",
            vec![
                Column::new("id", DataType::Int).primary(),
                Column::new("body", DataType::Text),
            ],
        )],
    );
    let mut d = Database::empty(schema);
    d.insert_all(
        "notes",
        vec![vec![
            Value::Int(1),
            Value::Text("tab\there\nand newline".into()),
        ]],
    )
    .unwrap();
    let mut cfg = ServerConfig::new(Arc::new(d));
    cfg.addr = "127.0.0.1:0".into();
    let handle = start(cfg).unwrap();
    let mut c = handshake(&handle, "esc");
    let lines = c.request("SQL SELECT id, body FROM notes").unwrap();
    assert_eq!(lines[0], "OK table 1 2");
    let row = lines[2].strip_prefix("ROW ").unwrap();
    let fields: Vec<&str> = row.split('\t').collect();
    assert_eq!(fields.len(), 2, "escaped tab must not split the field");
    assert_eq!(
        nli_server::proto::unescape_field(fields[1]),
        "tab\there\nand newline"
    );
    handle.shutdown();
}
