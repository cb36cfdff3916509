//! The traced run: an in-process replay of a workload's script that makes,
//! for each request, the public calls the server makes, in the same order,
//! with a span from this file around every call.
//!
//! Spans carry a name, start, end, parent and the id of the request they
//! belong to. They stay in memory and are written out when the run ends.
//! A layer's self time is its span's duration minus the part its children
//! cover.
//!
//! Two parts of a request run where this file cannot put a span: inside the
//! batch executor's worker thread, and inside `DbHandle::execute_dml_metered`.
//! The replay times those calls whole (`batch.roundtrip`, `db.dml`) and then
//! repeats their inner calls on a shadow copy, under a separate `shadow`
//! root with the same request id: `SqlEngine::prepare` and
//! `PreparedSql::execute` on a second engine that has seen the same
//! statements, `render_table`, and, for writes, `compute_dml_op`,
//! `Store::commit` and the snapshot clone on a second store. Shadow time is
//! not part of the traced request time.

use crate::workload::{Class, ConnScript, Expect, Workload};
use nli_core::{Database, ExecutionEngine, NlQuestion, NliError, Store};
use nli_server::proto::{error_line, render_chart, render_table};
use nli_server::{parse_frame, BatchQueue, Batcher, DbHandle, Frame, ServerConfig};
use nli_sql::{parse_statement, SqlEngine};
use nli_systems::architectures::wants_chart;
use nli_text2sql::{DialogueParser, GrammarConfig};
use nli_text2vis::VisDialogueParser;
use nli_vql::VisEngine;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span. Times are ns since the replay's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-thread span recorder.
struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Recorder {
    fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            request: self.request,
            parent: self.stack.last().copied(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.stack.push(id);
        id
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close in LIFO order");
    }

    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let r = f();
        self.close(id);
        r
    }
}

/// The session layer's turn, made of the same public calls `Tenant::ask`
/// makes through `Session::ask`, so each gets its own span.
struct SessionReplica {
    sql: DialogueParser,
    vis: VisDialogueParser,
    last_was_chart: bool,
}

impl SessionReplica {
    fn new() -> SessionReplica {
        SessionReplica {
            sql: DialogueParser::new(GrammarConfig::llm_reasoner()),
            vis: VisDialogueParser::new(),
            last_was_chart: false,
        }
    }

    fn reset(&mut self) {
        self.sql.reset();
        self.vis.reset();
        self.last_was_chart = false;
    }

    fn ask(
        &mut self,
        rec: &mut Recorder,
        engine: &SqlEngine,
        text: &str,
        db: &Database,
    ) -> Vec<String> {
        let question = NlQuestion::new(text);
        let span = rec.open("session.ask");
        let out = self.turn(rec, engine, &question, db);
        rec.close(span);
        rec.time("proto.render", || match out {
            Ok(Answer::Table(rs)) => render_table(&rs),
            Ok(Answer::Chart(chart)) => render_chart(&chart),
            Err(e) => vec![error_line(&e)],
        })
    }

    fn turn(
        &mut self,
        rec: &mut Recorder,
        engine: &SqlEngine,
        question: &NlQuestion,
        db: &Database,
    ) -> Result<Answer, NliError> {
        if wants_chart(&question.text) || self.last_was_chart {
            if let Ok(v) = rec.time("text2vis.parse", || self.vis.parse_turn(question, db)) {
                let chart = rec.time("vql.execute", || VisEngine::new().execute(&v, db))?;
                self.last_was_chart = true;
                return Ok(Answer::Chart(chart));
            }
        }
        let q = rec.time("text2sql.parse", || self.sql.parse_turn(question, db))?;
        let key = q.to_string();
        let name = if engine.plan_cached(&key, &db.schema) {
            "sql.prepare_hit"
        } else {
            "sql.prepare_miss"
        };
        let prepared = rec.time(name, || engine.prepare_ast(&q, &db.schema))?;
        let rs = rec.time("sql.execute", || prepared.execute(db))?;
        self.last_was_chart = false;
        Ok(Answer::Table(rs))
    }
}

enum Answer {
    Table(nli_sql::ResultSet),
    Chart(nli_vql::Chart),
}

/// The server-side state both replay threads share.
struct Replica {
    /// The pool engine: `ASK` turns and the shadow of batched reads.
    engine: SqlEngine,
    /// The real executor pool, on an engine of its own.
    queue: BatchQueue,
    db: Arc<DbHandle>,
    /// Shadow store for the inner calls of a write (ingest only).
    shadow: Option<Mutex<Store>>,
}

/// What the replay measured.
pub struct Replay {
    pub spans: Vec<Span>,
    /// Per read request: batch round trip minus the shadow's execution, ns.
    pub batch_wait_ns: Vec<u64>,
    /// Response bytes per request.
    pub bytes_out: Vec<u64>,
    /// Traced request time by class, ms.
    pub request_ms: BTreeMap<&'static str, Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    pub examples: Vec<String>,
    /// `Store::open` on the replay's data directory, ms (ingest only).
    pub open_ms: Vec<f64>,
    /// The database the replay ended with.
    pub final_db: Arc<Database>,
}

/// Replay each connection's warm-up and then the first `count` requests of
/// its body.
pub fn replay(w: &Workload, count: usize, tmp: &Path) -> Result<Replay, String> {
    let defaults = ServerConfig::new(Arc::clone(&w.db));
    let real_dir = tmp.join("replay");
    let shadow_dir = tmp.join("replay-shadow");
    let (db, shadow) = if w.kind.durable() {
        let real = Store::create(&real_dir, (*w.db).clone()).map_err(|e| e.to_string())?;
        let shadow = Store::create(&shadow_dir, (*w.db).clone()).map_err(|e| e.to_string())?;
        (DbHandle::durable(real), Some(Mutex::new(shadow)))
    } else {
        (DbHandle::read_only(Arc::clone(&w.db)), None)
    };
    let db = Arc::new(db);
    let batcher = Batcher::start(
        SqlEngine::new(),
        Arc::clone(&db),
        defaults.exec_workers,
        defaults.batch_max,
        None,
    );
    let replica = Replica {
        engine: SqlEngine::new(),
        queue: batcher.queue(),
        db,
        shadow,
    };
    let epoch = Instant::now();
    let outcomes: Vec<Result<Thread, String>> = std::thread::scope(|s| {
        let threads: Vec<_> = w
            .conns
            .iter()
            .enumerate()
            .map(|(c, conn)| {
                let replica = &replica;
                s.spawn(move || replay_conn(replica, conn, c as u64, epoch, count))
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("replay thread panicked"))
            .collect()
    });
    batcher.shutdown();
    let final_db = replica.db.snapshot();
    drop(replica);
    let mut out = Replay {
        spans: Vec::new(),
        batch_wait_ns: Vec::new(),
        bytes_out: Vec::new(),
        request_ms: BTreeMap::new(),
        attempted: 0,
        failed: 0,
        examples: Vec::new(),
        open_ms: Vec::new(),
        final_db,
    };
    for outcome in outcomes {
        let t = outcome?;
        // Re-base parent indices onto the merged span list.
        let base = out.spans.len();
        out.spans.extend(t.rec.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        out.batch_wait_ns.extend(t.batch_wait_ns);
        out.bytes_out.extend(t.bytes_out);
        for (class, ms) in t.request_ms {
            out.request_ms.entry(class).or_default().extend(ms);
        }
        out.attempted += t.attempted;
        out.failed += t.failed;
        out.examples.extend(t.examples);
    }
    if w.kind.durable() {
        for _ in 0..3 {
            let t = Instant::now();
            let store = Store::open(&real_dir).map_err(|e| e.to_string())?;
            out.open_ms.push(t.elapsed().as_secs_f64() * 1e3);
            drop(store);
        }
    }
    Ok(out)
}

struct Thread {
    rec: Recorder,
    batch_wait_ns: Vec<u64>,
    bytes_out: Vec<u64>,
    request_ms: BTreeMap<&'static str, Vec<f64>>,
    attempted: u64,
    failed: u64,
    examples: Vec<String>,
}

fn replay_conn(
    replica: &Replica,
    conn: &ConnScript,
    c: u64,
    epoch: Instant,
    count: usize,
) -> Result<Thread, String> {
    let mut t = Thread {
        rec: Recorder {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        },
        batch_wait_ns: Vec::new(),
        bytes_out: Vec::new(),
        request_ms: BTreeMap::new(),
        attempted: 0,
        failed: 0,
        examples: Vec::new(),
    };
    let mut session = SessionReplica::new();
    let mut prepared: HashMap<String, String> = HashMap::new();
    // Set-up frames: what the server does for them, untraced.
    for req in &conn.setup {
        if let Ok(Frame::Prepare { name, sql }) = parse_frame(&req.frame) {
            replica
                .engine
                .prepare(&sql, &replica.db.snapshot().schema)
                .map_err(|e| format!("PREPARE {name}: {e}"))?;
            prepared.insert(name, sql);
        }
    }
    let mut seq = 0u64;
    let body = (0..count).map(|i| &conn.body[i % conn.body.len()]);
    for req in conn.warmup.iter().chain(body) {
        seq += 1;
        t.rec.request = (c << 40) | seq;
        let root = t.rec.open("request");
        let frame = t.rec.time("proto.parse", || parse_frame(&req.frame));
        let mut shadow_sql: Option<String> = None;
        let mut roundtrip_ns = 0u64;
        let lines: Vec<String> = match frame {
            Ok(Frame::Ask(text)) => {
                let snapshot = replica.db.snapshot();
                session.ask(&mut t.rec, &replica.engine, &text, &snapshot)
            }
            Ok(Frame::Reset) => {
                session.reset();
                vec!["OK reset".to_string()]
            }
            Ok(Frame::Sql(sql)) if nli_server::db::is_dml_text(&sql) => {
                let receipt = t.rec.time("db.dml", || {
                    replica.db.execute_dml_metered(&replica.engine, &sql)
                });
                shadow_sql = Some(sql);
                match receipt {
                    Ok(r) => vec![format!("OK affected {}", r.affected)],
                    Err(e) => vec![error_line(&e)],
                }
            }
            Ok(Frame::Sql(sql)) => {
                let (lines, ns) = batched(&mut t.rec, replica, &sql);
                (shadow_sql, roundtrip_ns) = (Some(sql), ns);
                lines
            }
            Ok(Frame::Exec(name)) => match prepared.get(&name) {
                Some(sql) => {
                    let (lines, ns) = batched(&mut t.rec, replica, sql);
                    (shadow_sql, roundtrip_ns) = (Some(sql.clone()), ns);
                    lines
                }
                None => vec![format!("ERR E_PREPARE no prepared statement {name:?}")],
            },
            Ok(other) => vec![format!("ERR E_PROTO replay does not handle {other:?}")],
            Err(e) => vec![e.line()],
        };
        t.rec.close(root);
        let root_ms = t.rec.spans[root].dur() as f64 / 1e6;
        t.attempted += 1;
        if !req.expect.matches(&lines) {
            t.failed += 1;
            if t.examples.len() < 3 {
                t.examples
                    .push(format!("{:?} -> {:?}", req.frame, lines.first()));
            }
        }
        if req.class == Class::Control {
            continue;
        }
        let class = match req.class {
            Class::Ask => "ask",
            Class::Read => "read",
            _ => "write",
        };
        t.request_ms.entry(class).or_default().push(root_ms);
        t.bytes_out
            .push(lines.iter().map(|l| l.len() as u64 + 1).sum());
        if let Some(sql) = shadow_sql {
            let shadow = t.rec.open("shadow");
            if req.class == Class::Write {
                shadow_write(&mut t.rec, replica, &sql)?;
            } else {
                let exec_ns = shadow_read(&mut t.rec, replica, &sql, &req.expect)?;
                t.batch_wait_ns.push(roundtrip_ns.saturating_sub(exec_ns));
            }
            t.rec.close(shadow);
        }
    }
    Ok(t)
}

/// A stateless statement through the real executor pool, timed whole.
/// Returns the reply and the round trip in ns.
fn batched(rec: &mut Recorder, replica: &Replica, sql: &str) -> (Vec<String>, u64) {
    let id = rec.open("batch.roundtrip");
    let reply = replica.queue.submit(sql.to_string(), None).recv();
    rec.close(id);
    let lines = match reply {
        Ok(lines) => lines.as_ref().clone(),
        Err(_) => vec!["ERR E_SHUTDOWN server is draining".to_string()],
    };
    (lines, rec.spans[id].dur())
}

/// The executor worker's calls for one statement, on the pool engine.
/// Returns the ns they took.
fn shadow_read(
    rec: &mut Recorder,
    replica: &Replica,
    sql: &str,
    expect: &Expect,
) -> Result<u64, String> {
    let db = replica.db.snapshot();
    let name = if replica.engine.plan_cached(sql, &db.schema) {
        "sql.prepare_hit"
    } else {
        "sql.prepare_miss"
    };
    let first = rec.spans.len();
    let prepared = rec
        .time(name, || replica.engine.prepare(sql, &db.schema))
        .map_err(|e| format!("shadow prepare {sql:?}: {e}"))?;
    let rs = rec
        .time("sql.execute", || prepared.execute(&db))
        .map_err(|e| format!("shadow execute {sql:?}: {e}"))?;
    let lines = rec.time("proto.render", || render_table(&rs));
    if !expect.matches(&lines) {
        return Err(format!(
            "shadow read of {sql:?} disagrees with the expected answer"
        ));
    }
    Ok(rec.spans[first..].iter().map(Span::dur).sum())
}

/// The inner calls of `DbHandle::execute_dml_metered` on the shadow store,
/// then the first derived-view build on the snapshot it publishes.
fn shadow_write(rec: &mut Recorder, replica: &Replica, sql: &str) -> Result<(), String> {
    let shadow = replica
        .shadow
        .as_ref()
        .ok_or("write on a read-only workload")?;
    let stmt = parse_statement(sql).map_err(|e| e.to_string())?;
    let snapshot = {
        let mut store = shadow.lock().expect("shadow store lock poisoned");
        let op = rec
            .time("sql.dml_op", || {
                replica.engine.compute_dml_op(&stmt, store.db())
            })
            .map_err(|e| format!("shadow dml {sql:?}: {e}"))?;
        rec.time("storage.commit", || store.commit(&op))
            .map_err(|e| format!("shadow commit {sql:?}: {e}"))?;
        rec.time("database.clone", || Arc::new(store.db().clone()))
    };
    rec.time("database.derive", || {
        for ti in 0..snapshot.schema.tables.len() {
            std::hint::black_box(snapshot.columnar(ti));
        }
        std::hint::black_box(snapshot.stats());
    });
    Ok(())
}

/// Self time of every span: its duration minus the part of it that its
/// children cover (children clipped to the parent's interval).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            covered[p] += end.saturating_sub(start);
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.dur().saturating_sub(c))
        .collect()
}

/// Per root span (`request` or `shadow`): the sum of the self times in its
/// tree minus the root's duration, in ns. Zero when children nest inside
/// their parents and do not overlap.
pub fn self_time_gaps(spans: &[Span], selfs: &[u64]) -> Vec<i64> {
    let mut root_of = vec![0usize; spans.len()];
    let mut sums: BTreeMap<usize, u64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        // Parents precede children within a thread's list.
        root_of[i] = match s.parent {
            Some(p) => root_of[p],
            None => i,
        };
        *sums.entry(root_of[i]).or_default() += selfs[i];
    }
    sums.into_iter()
        .map(|(root, sum)| sum as i64 - spans[root].dur() as i64)
        .collect()
}

/// Write the spans as JSON lines.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"request\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            request: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_sums_to_the_root() {
        let spans = vec![
            span("request", None, 0, 100),
            span("proto.parse", Some(0), 5, 15),
            span("session.ask", Some(0), 20, 90),
            span("text2sql.parse", Some(2), 30, 60),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![20, 10, 40, 30]);
        assert_eq!(self_time_gaps(&spans, &selfs), vec![0]);
    }

    #[test]
    fn a_child_leaking_out_of_its_parent_shows_as_a_gap() {
        let spans = vec![
            span("request", None, 0, 50),
            span("db.dml", Some(0), 40, 70),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![40, 30]);
        assert_eq!(self_time_gaps(&spans, &selfs), vec![20]);
    }
}
