//! The TCP server: accept loop, per-connection protocol state machine,
//! and graceful drain.
//!
//! Threading model (one of the three determinism-relevant layers DESIGN.md
//! §3.7 documents): one accept thread, one thread per live connection, and
//! a small [`crate::batch`] executor pool. Connection threads run the
//! handshake and all control frames themselves; stateful `ASK` turns
//! execute inline on the connection thread (serialized per tenant by the
//! [`Tenant`] session lock); stateless `SQL`/`EXEC` statements are handed
//! to the executor pool where identical statements batch.
//!
//! Shutdown is a drain, not an abort: [`ServerHandle::begin_shutdown`]
//! flips one flag, frames *read after* the flag flips are answered
//! `ERR E_SHUTDOWN` and the connection closes, but every request already
//! admitted runs to completion and its response is delivered before
//! [`ServerHandle::shutdown`] returns.
//!
//! ## The admin plane
//!
//! Connections bound to [`ServerConfig::admin_tenant`] may additionally
//! send `STATS`, `STATS TENANT <id>`, `SLOWLOG`, and `HEALTH` — the
//! live-observability frames `docs/server-protocol.md` §8 specifies and
//! the `nli-top` binary consumes. Admin frames are *control* frames:
//! they bypass admission (an operator must be able to look at a
//! saturated server), are never counted as tenant requests, and read
//! only observational state — per-tenant [`TenantStats`], the
//! [`SlowLog`] ring, the rolling request-latency window — so enabling
//! them cannot perturb query results (the determinism contract of
//! DESIGN.md §3.9 is tested with the admin plane switched on).

use crate::admission::Admission;
use crate::batch::{BatchQueue, Batcher, ExecGate};
use crate::db::{is_dml_text, DbHandle};
use crate::proto::{self, ErrorCode, Frame, ProtoError};
use crate::slowlog::SlowLog;
use nli_core::obs::{Counter, WindowedHistogram, WINDOW_SLOTS};
use nli_core::{Database, NlQuestion, Store};
use nli_systems::{ParSessionPool, Tenant, TenantStats};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything a server needs to start. `ServerConfig::new` picks the
/// defaults the capacity runbook documents; tests override freely.
pub struct ServerConfig {
    /// Bind address; `127.0.0.1:0` asks the OS for a free loopback port
    /// (read the real one back from [`ServerHandle::addr`]).
    pub addr: String,
    /// The database every tenant queries. With no [`ServerConfig::data_dir`]
    /// this image is served read-only; with one it only *seeds* a store
    /// directory that does not exist yet (persisted state wins otherwise).
    pub db: Arc<Database>,
    /// Durable storage directory. `Some` turns DML on: statements journal
    /// to the store's WAL and tenants see the recovered state on restart.
    pub data_dir: Option<std::path::PathBuf>,
    /// Max concurrently admitted `ASK`/`SQL`/`EXEC` requests; excess gets
    /// an immediate `BUSY` (see [`Admission`]).
    pub admission_limit: usize,
    /// Max identical statements one executor batch may claim.
    pub batch_max: usize,
    /// Executor worker threads for stateless statements.
    pub exec_workers: usize,
    /// Per-frame size limit in bytes (default [`proto::MAX_FRAME_BYTES`]).
    pub max_frame_bytes: usize,
    /// Test-only executor pause switch; `None` in production.
    pub exec_gate: Option<ExecGate>,
    /// Slow-query capture threshold in µs (`None` disables capture).
    /// Requests *strictly slower* than this retain their statement,
    /// profile, and span tree in the [`SlowLog`] ring.
    pub slow_threshold_micros: Option<u64>,
    /// Max retained slow-log entries before oldest-first eviction.
    pub slowlog_capacity: usize,
    /// The tenant id whose connections may speak the admin plane
    /// (`STATS`/`SLOWLOG`/`HEALTH`); everyone else gets `ERR E_ADMIN`.
    pub admin_tenant: String,
    /// Per-request latency objective in µs: requests slower than this
    /// increment the `server.slo_breaches` burn counter and the drain-time
    /// SLO report.
    pub slo_micros: u64,
}

impl ServerConfig {
    pub fn new(db: Arc<Database>) -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            db,
            data_dir: None,
            admission_limit: 32,
            batch_max: 16,
            exec_workers: 2,
            max_frame_bytes: proto::MAX_FRAME_BYTES,
            exec_gate: None,
            slow_threshold_micros: None,
            slowlog_capacity: 128,
            admin_tenant: "admin".to_string(),
            slo_micros: 50_000,
        }
    }
}

/// A running server. Dropping the handle without calling
/// [`ServerHandle::shutdown`] leaves the threads running for the process
/// lifetime — always shut down explicitly.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    batcher: Option<Batcher>,
    pool: Arc<ParSessionPool>,
    slowlog: Arc<SlowLog>,
    slo_micros: u64,
}

impl ServerHandle {
    /// The actual bound address (resolves the `:0` port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The tenant registry this server fronts.
    pub fn pool(&self) -> &ParSessionPool {
        &self.pool
    }

    /// The slow-query ring (outlives shutdown — the `nli-server` binary
    /// flushes it into the event journal and SLO report after drain).
    pub fn slowlog(&self) -> Arc<SlowLog> {
        Arc::clone(&self.slowlog)
    }

    /// The configured per-request latency objective in µs.
    pub fn slo_micros(&self) -> u64 {
        self.slo_micros
    }

    /// Flip the drain flag and wake the accept loop. Returns immediately;
    /// in-flight requests keep running.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        // Wake the (blocking) accept call with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
    }

    /// Drain and stop: begin shutdown, join every connection thread (each
    /// finishes its in-flight request first), then drain and join the
    /// executor pool.
    pub fn shutdown(mut self) {
        self.begin_shutdown();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let conns = std::mem::take(&mut *self.conns.lock().unwrap());
        for c in conns {
            let _ = c.join();
        }
        if let Some(b) = self.batcher.take() {
            b.shutdown();
        }
    }
}

struct Shared {
    pool: Arc<ParSessionPool>,
    db: Arc<DbHandle>,
    admission: Admission,
    queue: BatchQueue,
    shutdown: Arc<AtomicBool>,
    max_frame_bytes: usize,
    slowlog: Arc<SlowLog>,
    admin_tenant: String,
    slo_micros: u64,
    /// Rolling request-latency window (`server.request.window` in the
    /// registry); every admitted request records its duration here.
    win: WindowedHistogram,
}

/// Open (or create, seeded from `config.db`) the durable store when a
/// data dir is configured; read-only handle otherwise. Existing persisted
/// state always wins over the seed image.
fn open_handle(config: &ServerConfig) -> std::io::Result<DbHandle> {
    let Some(dir) = &config.data_dir else {
        return Ok(DbHandle::read_only(Arc::clone(&config.db)));
    };
    let store = if Store::exists(dir) {
        Store::open(dir)
    } else {
        Store::create(dir, (*config.db).clone())
    };
    store.map(DbHandle::durable).map_err(std::io::Error::other)
}

/// Bind, spawn the accept loop, and return the handle.
pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let pool = Arc::new(ParSessionPool::new());
    let db = Arc::new(open_handle(&config)?);
    let batcher = Batcher::start(
        pool.engine().clone(),
        Arc::clone(&db),
        config.exec_workers,
        config.batch_max,
        config.exec_gate.clone(),
    );
    let shutdown = Arc::new(AtomicBool::new(false));
    let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let slowlog = Arc::new(SlowLog::new(
        config.slow_threshold_micros,
        config.slowlog_capacity,
    ));
    let shared = Arc::new(Shared {
        pool: Arc::clone(&pool),
        db,
        admission: Admission::new(config.admission_limit),
        queue: batcher.queue(),
        shutdown: Arc::clone(&shutdown),
        max_frame_bytes: config.max_frame_bytes,
        slowlog: Arc::clone(&slowlog),
        admin_tenant: config.admin_tenant.clone(),
        slo_micros: config.slo_micros,
        win: nli_core::obs::global().windowed_histogram("server.request.window"),
    });
    let accept_conns = Arc::clone(&conns);
    let accept_thread = std::thread::Builder::new()
        .name("nli-server-accept".to_string())
        .spawn(move || {
            for stream in listener.incoming() {
                if shared.shutdown.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                nli_core::obs::global().counter("server.accepts").inc();
                let shared = Arc::clone(&shared);
                let handle = std::thread::Builder::new()
                    .name("nli-server-conn".to_string())
                    .spawn(move || handle_conn(stream, &shared))
                    .expect("spawn connection thread");
                accept_conns.lock().unwrap().push(handle);
            }
        })?;
    Ok(ServerHandle {
        addr,
        shutdown,
        accept_thread: Some(accept_thread),
        conns,
        batcher: Some(batcher),
        pool,
        slowlog,
        slo_micros: config.slo_micros,
    })
}

/// One event from the framed reader.
enum ReadEvent {
    /// A complete frame line (newline stripped).
    Line(String),
    /// Read timeout tick — time to poll the drain flag.
    Tick,
    /// Peer closed the connection.
    Eof,
    /// The pending line exceeded the frame-size limit.
    TooBig,
    /// The pending line is not valid UTF-8.
    BadUtf8,
}

/// Incremental line reader over a read-timeout socket. Partial lines stay
/// buffered across timeout ticks, so a slow writer is never corrupted —
/// and a line that grows past `max` is rejected before it is complete.
struct FrameReader {
    stream: TcpStream,
    pending: Vec<u8>,
    max: usize,
}

impl FrameReader {
    fn next_event(&mut self) -> ReadEvent {
        loop {
            if let Some(pos) = self.pending.iter().position(|&b| b == b'\n') {
                if pos > self.max {
                    return ReadEvent::TooBig;
                }
                let line: Vec<u8> = self.pending.drain(..=pos).take(pos).collect();
                return match String::from_utf8(line) {
                    Ok(s) => ReadEvent::Line(s),
                    Err(_) => ReadEvent::BadUtf8,
                };
            }
            if self.pending.len() > self.max {
                return ReadEvent::TooBig;
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return ReadEvent::Eof,
                Ok(n) => self.pending.extend_from_slice(&chunk[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return ReadEvent::Tick
                }
                Err(_) => return ReadEvent::Eof,
            }
        }
    }
}

fn write_lines(stream: &mut TcpStream, lines: &[String]) -> std::io::Result<()> {
    let mut out = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
    for line in lines {
        out.push_str(line);
        out.push('\n');
    }
    stream.write_all(out.as_bytes())
}

fn write_line(stream: &mut TcpStream, line: &str) -> std::io::Result<()> {
    stream.write_all(format!("{line}\n").as_bytes())
}

enum ConnState {
    ExpectHello,
    ExpectTenant,
    /// Bound to a tenant; the id is kept alongside the handle because the
    /// admin gate and the slow-log attribute by id, not by handle.
    Ready(String, Arc<Tenant>),
}

fn handle_conn(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(25)));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = FrameReader {
        stream,
        pending: Vec::new(),
        max: shared.max_frame_bytes,
    };
    let registry = nli_core::obs::global();
    let mut state = ConnState::ExpectHello;
    loop {
        let line = match reader.next_event() {
            ReadEvent::Line(line) => line,
            ReadEvent::Tick => {
                // Idle connection during drain: tell the peer why the
                // connection is going away, then close.
                if shared.shutdown.load(Ordering::Acquire) {
                    let err = ProtoError {
                        code: ErrorCode::Shutdown,
                        message: "server is draining".to_string(),
                    };
                    let _ = write_line(&mut writer, &err.line());
                    return;
                }
                continue;
            }
            ReadEvent::Eof => return,
            ReadEvent::TooBig => {
                registry.counter("server.frames_oversized").inc();
                let err = ProtoError {
                    code: ErrorCode::TooBig,
                    message: format!("frame exceeds {} bytes", shared.max_frame_bytes),
                };
                let _ = write_line(&mut writer, &err.line());
                return;
            }
            ReadEvent::BadUtf8 => {
                registry.counter("server.frames_malformed").inc();
                let err = ProtoError {
                    code: ErrorCode::Proto,
                    message: "frame is not valid UTF-8".to_string(),
                };
                let _ = write_line(&mut writer, &err.line());
                return;
            }
        };
        // Frames read after drain began are refused; in-flight work was
        // already answered before we got back here to read.
        if shared.shutdown.load(Ordering::Acquire) {
            let err = ProtoError {
                code: ErrorCode::Shutdown,
                message: "server is draining".to_string(),
            };
            let _ = write_line(&mut writer, &err.line());
            return;
        }
        let frame = match proto::parse_frame(&line) {
            Ok(f) => f,
            Err(err) => {
                registry.counter("server.frames_malformed").inc();
                let _ = write_line(&mut writer, &err.line());
                // Before a successful HELLO nothing is negotiated — close.
                if matches!(state, ConnState::ExpectHello) {
                    return;
                }
                continue;
            }
        };
        // Control frames valid in any post-handshake state (a repeated
        // HELLO is idempotent).
        match &frame {
            Frame::Ping if !matches!(state, ConnState::ExpectHello) => {
                let _ = write_line(&mut writer, "OK pong");
                continue;
            }
            Frame::Quit if !matches!(state, ConnState::ExpectHello) => {
                let _ = write_line(&mut writer, "OK bye");
                return;
            }
            Frame::Hello if !matches!(state, ConnState::ExpectHello) => {
                let _ = write_line(
                    &mut writer,
                    &format!("OK {} ready", proto::PROTOCOL_VERSION),
                );
                continue;
            }
            _ => {}
        }
        match state {
            ConnState::ExpectHello => match frame {
                Frame::Hello => {
                    let _ = write_line(
                        &mut writer,
                        &format!("OK {} ready", proto::PROTOCOL_VERSION),
                    );
                    state = ConnState::ExpectTenant;
                }
                _ => {
                    let err = ProtoError {
                        code: ErrorCode::Order,
                        message: "HELLO must be the first frame".to_string(),
                    };
                    let _ = write_line(&mut writer, &err.line());
                    return;
                }
            },
            ConnState::ExpectTenant => match frame {
                Frame::Tenant(id) => {
                    let tenant = shared.pool.tenant(&id);
                    let _ = write_line(&mut writer, &format!("OK tenant {id}"));
                    state = ConnState::Ready(id, tenant);
                }
                _ => {
                    let err = ProtoError {
                        code: ErrorCode::Order,
                        message: "TENANT must precede queries".to_string(),
                    };
                    let _ = write_line(&mut writer, &err.line());
                    state = ConnState::ExpectTenant;
                }
            },
            ConnState::Ready(ref tid, ref tenant) => {
                let tid = tid.clone();
                let tenant = Arc::clone(tenant);
                match frame {
                    Frame::Tenant(id) => {
                        // Rebinding mid-connection is allowed: subsequent
                        // frames address the new tenant.
                        let next = shared.pool.tenant(&id);
                        let _ = write_line(&mut writer, &format!("OK tenant {id}"));
                        state = ConnState::Ready(id, next);
                        continue;
                    }
                    // Admin plane. Control frames, not requests: no
                    // admission permit (an operator must get answers out
                    // of a saturated server), no tenant accounting, and
                    // nothing here mutates query-visible state.
                    Frame::Stats(_) | Frame::Slowlog | Frame::Health
                        if tid != shared.admin_tenant =>
                    {
                        let err = ProtoError {
                            code: ErrorCode::Admin,
                            message: format!(
                                "admin frames require the {} tenant",
                                shared.admin_tenant
                            ),
                        };
                        let _ = write_line(&mut writer, &err.line());
                        state = ConnState::Ready(tid, tenant);
                        continue;
                    }
                    Frame::Stats(None) => {
                        let _ = write_lines(&mut writer, &server_stats(shared));
                        state = ConnState::Ready(tid, tenant);
                        continue;
                    }
                    Frame::Stats(Some(id)) => {
                        // Lookup only — asking about a tenant must not
                        // register it.
                        let lines = match shared.pool.get_tenant(&id) {
                            Some(t) => tenant_stats(&id, t.stats()),
                            None => vec![ProtoError {
                                code: ErrorCode::Tenant,
                                message: format!("no such tenant {id}"),
                            }
                            .line()],
                        };
                        let _ = write_lines(&mut writer, &lines);
                        state = ConnState::Ready(tid, tenant);
                        continue;
                    }
                    Frame::Slowlog => {
                        let _ = write_lines(&mut writer, &shared.slowlog.render_response());
                        state = ConnState::Ready(tid, tenant);
                        continue;
                    }
                    Frame::Health => {
                        // `draining` is reachable only in the window where
                        // the flag flips after this frame was read.
                        let status = if shared.shutdown.load(Ordering::Acquire) {
                            "draining"
                        } else {
                            "serving"
                        };
                        let _ = write_line(
                            &mut writer,
                            &format!(
                                "OK health {status} {} {} {}",
                                shared.pool.tenant_count(),
                                shared.admission.in_flight(),
                                shared.slowlog.len()
                            ),
                        );
                        state = ConnState::Ready(tid, tenant);
                        continue;
                    }
                    Frame::Prepare { name, sql } => {
                        registry.counter("server.requests.prepare").inc();
                        tenant.stats().prepares.inc();
                        match shared
                            .pool
                            .engine()
                            .prepare(&sql, &shared.db.snapshot().schema)
                        {
                            Ok(_) => {
                                tenant.prepare(&name, sql);
                                let _ = write_line(&mut writer, &format!("OK prepared {name}"));
                            }
                            Err(e) => {
                                let err = ProtoError {
                                    code: ErrorCode::Prepare,
                                    message: e.to_string(),
                                };
                                tenant.stats().record_error(ErrorCode::Prepare.name());
                                let _ = write_line(&mut writer, &err.line());
                            }
                        }
                        state = ConnState::Ready(tid, tenant);
                        continue;
                    }
                    Frame::Reset => {
                        registry.counter("server.requests.reset").inc();
                        tenant.stats().resets.inc();
                        tenant.reset();
                        let _ = write_line(&mut writer, "OK reset");
                        state = ConnState::Ready(tid, tenant);
                        continue;
                    }
                    Frame::Ask(_) | Frame::Sql(_) | Frame::Exec(_) => {
                        let stats = Arc::clone(tenant.stats());
                        let Some(permit) = shared.admission.try_acquire() else {
                            registry.scheduling_counter("server.rejected_busy").inc();
                            stats.busy_rejections.inc();
                            let _ = write_line(
                                &mut writer,
                                &format!("BUSY {}", shared.admission.limit()),
                            );
                            state = ConnState::Ready(tid, tenant);
                            continue;
                        };
                        let started = Instant::now();
                        let _span = registry.span("server.request");
                        stats.requests.inc();
                        // Besides the response, keep what the slow-log
                        // needs: the verb, the statement text, and (when
                        // the request ran SQL) the text to re-profile.
                        let (lines, verb, statement, profiled) = match frame {
                            Frame::Ask(question) => {
                                registry.counter("server.requests.ask").inc();
                                stats.asks.inc();
                                let _trace = registry.trace_span("server.request");
                                match tenant.ask(&NlQuestion::new(&question), &shared.db.snapshot())
                                {
                                    Ok(resp) => {
                                        let profiled = resp.program.clone();
                                        (proto::render_response(&resp), "ASK", question, profiled)
                                    }
                                    Err(e) => (vec![proto::error_line(&e)], "ASK", question, None),
                                }
                            }
                            // DML runs inline on the connection thread —
                            // never batched (identical-statement dedup
                            // would collapse two intentional inserts into
                            // one) — and serializes on the store lock.
                            Frame::Sql(sql) if is_dml_text(&sql) => {
                                registry.counter("server.requests.dml").inc();
                                stats.dmls.inc();
                                let _trace = registry.trace_span("server.request");
                                let lines =
                                    match shared.db.execute_dml_metered(shared.pool.engine(), &sql)
                                    {
                                        Ok(receipt) => {
                                            stats.wal_bytes.add(receipt.wal_bytes);
                                            vec![format!("OK affected {}", receipt.affected)]
                                        }
                                        Err(e) => vec![proto::error_line(&e)],
                                    };
                                (lines, "DML", sql, None)
                            }
                            Frame::Sql(sql) => {
                                registry.counter("server.requests.sql").inc();
                                stats.sqls.inc();
                                let lines = recv_batched(&shared.queue, sql.clone(), &stats);
                                (lines, "SQL", sql.clone(), Some(sql))
                            }
                            Frame::Exec(name) => {
                                registry.counter("server.requests.exec").inc();
                                stats.execs.inc();
                                match tenant.prepared_sql(&name) {
                                    Some(sql) => {
                                        let lines =
                                            recv_batched(&shared.queue, sql.clone(), &stats);
                                        (lines, "EXEC", sql.clone(), Some(sql))
                                    }
                                    None => {
                                        let err = ProtoError {
                                            code: ErrorCode::Prepare,
                                            message: format!("no prepared statement {name:?}"),
                                        };
                                        (vec![err.line()], "EXEC", name, None)
                                    }
                                }
                            }
                            _ => unreachable!("outer match covers the rest"),
                        };
                        // The work is done once the response exists: the
                        // socket write and any slow capture hold no slot.
                        drop(permit);
                        account_response(&stats, &lines);
                        let micros = started.elapsed().as_micros() as u64;
                        shared.win.record(micros);
                        if micros > shared.slo_micros {
                            registry.scheduling_counter("server.slo_breaches").inc();
                        }
                        let _ = write_lines(&mut writer, &lines);
                        // Slow capture happens *after* the response went
                        // out: the profiling re-run costs the operator,
                        // never the waiting client.
                        if shared.slowlog.is_slow(micros) {
                            registry.scheduling_counter("server.slow_captured").inc();
                            let (profile, tree) = match profiled.as_deref() {
                                Some(sql) => profile_statement(shared, sql),
                                None => ("-".to_string(), "-".to_string()),
                            };
                            shared
                                .slowlog
                                .push(&tid, verb, micros, &statement, profile, tree);
                        }
                        state = ConnState::Ready(tid, tenant);
                        continue;
                    }
                    Frame::Hello | Frame::Ping | Frame::Quit => {
                        unreachable!("handled as control frames")
                    }
                }
            }
        }
    }
}

fn recv_batched(queue: &BatchQueue, sql: String, stats: &Arc<TenantStats>) -> Vec<String> {
    match queue.submit(sql, Some(Arc::clone(stats))).recv() {
        Ok(lines) => lines.as_ref().clone(),
        Err(_) => vec![ProtoError {
            code: ErrorCode::Shutdown,
            message: "server is draining".to_string(),
        }
        .line()],
    }
}

/// Charge a rendered response to the issuing tenant: result rows out of
/// `OK table`/`OK chart` heads, error codes out of `ERR` heads. Parsing
/// the head line keeps accounting entirely out of the execution paths —
/// what the tenant is charged is exactly what went over the wire.
fn account_response(stats: &TenantStats, lines: &[String]) {
    let Some(head) = lines.first() else { return };
    if let Some(rest) = head.strip_prefix("OK table ") {
        if let Some(rows) = rest.split(' ').next().and_then(|t| t.parse::<u64>().ok()) {
            stats.rows_out.add(rows);
        }
    } else if let Some(rest) = head.strip_prefix("OK chart ") {
        let mut fields = rest.split(' ');
        let _chart_type = fields.next();
        if let Some(points) = fields.next().and_then(|t| t.parse::<u64>().ok()) {
            stats.rows_out.add(points);
        }
    } else if let Some(rest) = head.strip_prefix("ERR ") {
        if let Some(code) = rest.split(' ').next() {
            stats.record_error(code);
        }
    }
}

/// The server-wide `STATS` response body (sorted key order).
fn server_stats(shared: &Shared) -> Vec<String> {
    let cache = shared.pool.engine().cache_stats();
    let win = shared.win.summary(WINDOW_SLOTS as u64);
    let ids = shared.pool.tenant_ids();
    // Sum this server's tenant books: the global registry's
    // `server.requests.*` counters also count every other server in the
    // process.
    let books: Vec<_> = ids
        .iter()
        .filter_map(|id| shared.pool.get_tenant(id))
        .collect();
    let requests = |verb: fn(&TenantStats) -> &Counter| {
        let total: u64 = books.iter().map(|t| verb(t.stats()).get()).sum();
        total.to_string()
    };
    let tenants = if ids.is_empty() {
        "-".to_string()
    } else {
        ids.join(" ")
    };
    let threshold = match shared.slowlog.threshold_micros() {
        Some(t) => t.to_string(),
        None => "off".to_string(),
    };
    let pairs: Vec<(String, String)> = [
        (
            "admission.in_flight",
            shared.admission.in_flight().to_string(),
        ),
        ("admission.limit", shared.admission.limit().to_string()),
        ("plan_cache.hits", cache.hits.to_string()),
        ("plan_cache.misses", cache.misses.to_string()),
        ("pool.tenants", shared.pool.tenant_count().to_string()),
        ("requests.ask", requests(|b| &b.asks)),
        ("requests.dml", requests(|b| &b.dmls)),
        ("requests.exec", requests(|b| &b.execs)),
        ("requests.prepare", requests(|b| &b.prepares)),
        ("requests.reset", requests(|b| &b.resets)),
        ("requests.sql", requests(|b| &b.sqls)),
        ("slowlog.entries", shared.slowlog.len().to_string()),
        ("slowlog.evicted", shared.slowlog.evicted().to_string()),
        ("slowlog.threshold_us", threshold),
        ("tenants", tenants),
        ("window.count", win.count.to_string()),
        ("window.max_us", win.max_micros.to_string()),
        ("window.p50_us", win.p50_micros.to_string()),
        ("window.p95_us", win.p95_micros.to_string()),
        ("window.p99_us", win.p99_micros.to_string()),
        ("window.rps_x1000", win.rps_x1000.to_string()),
        ("window.secs", win.window_secs.to_string()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    proto::render_stats(&pairs)
}

/// The `STATS TENANT <id>` response body (sorted key order).
fn tenant_stats(id: &str, stats: &TenantStats) -> Vec<String> {
    let mut pairs: Vec<(String, String)> = vec![
        (
            "batches_joined".into(),
            stats.batches_joined.get().to_string(),
        ),
        (
            "busy_rejections".into(),
            stats.busy_rejections.get().to_string(),
        ),
    ];
    for (code, n) in stats.errors() {
        pairs.push((format!("errors.{code}"), n.to_string()));
    }
    pairs.extend([
        (
            "plan_cache_hits".into(),
            stats.plan_cache_hits.get().to_string(),
        ),
        ("prepares".into(), stats.prepares.get().to_string()),
        ("requests.ask".into(), stats.asks.get().to_string()),
        ("requests.dml".into(), stats.dmls.get().to_string()),
        ("requests.exec".into(), stats.execs.get().to_string()),
        ("requests.sql".into(), stats.sqls.get().to_string()),
        ("requests.total".into(), stats.requests.get().to_string()),
        ("resets".into(), stats.resets.get().to_string()),
        ("rows_out".into(), stats.rows_out.get().to_string()),
        ("tenant".into(), id.to_string()),
        ("wal_bytes".into(), stats.wal_bytes.get().to_string()),
    ]);
    proto::render_stats(&pairs)
}

/// Re-run a statement under `EXPLAIN ANALYZE` to attach its deterministic
/// profile and span tree to a slow-log entry. Runs on the connection
/// thread after the response was delivered, so the capture cost lands on
/// the operator's budget, not the client's latency. Thread-scoped trace
/// capture ([`nli_core::obs::Registry::capture_thread_traces`]) records
/// the tree even with registry tracing disabled and without touching the
/// registry's bounded tree store.
fn profile_statement(shared: &Shared, sql: &str) -> (String, String) {
    let registry = nli_core::obs::global();
    let db = shared.db.snapshot();
    let engine = shared.pool.engine();
    let (rendered, trees) = registry.capture_thread_traces(|| {
        engine
            .prepare(sql, &db.schema)
            .and_then(|stmt| stmt.explain_analyze(&db))
            .map(|analyzed| analyzed.render())
    });
    // An unprofilable program (e.g. an ASK that resolved to a chart
    // expression) still gets a slow-log entry, just without a plan.
    let profile = rendered.unwrap_or_else(|_| "-".to_string());
    let tree = if trees.is_empty() {
        "-".to_string()
    } else {
        trees
            .iter()
            .map(|t| t.render(false))
            .collect::<Vec<_>>()
            .join("\n")
    };
    (profile, tree)
}
