//! The three workloads: seeded request scripts and their expected answers.
//!
//! Everything here is a pure function of the workload seed. The server only
//! ever sees the generated frames; the expected answers come from code paths
//! other than the one under test: the `interp` tree-walk interpreter, a model
//! of the rows a connection owns, a direct lookup in the seed image, or an
//! in-process tenant replaying the same turns in the same order.

use crate::stats::Fnv;
use nli_bench::{baseline, scaled};
use nli_core::{DataType, Database, NlQuestion, Prng, Value};
use nli_data::builder::generate_examples;
use nli_data::nl_gen::NlStyle;
use nli_data::nvbench_like::{realize_vis, sample_vis_plan, vis_plan_to_vql, VisKind};
use nli_data::sql_gen::SqlProfile;
use nli_server::proto::{error_line, render_response, unescape_field};
use nli_sql::interp::run_tree_walk;
use nli_sql::parse_query;
use nli_systems::ParSessionPool;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Client connections, one client thread each. Fixed here rather than read
/// from the machine, so every run of a workload offers the same concurrency.
pub const CONNECTIONS: usize = 2;

/// Per analyst tenant: questions and chart requests in its pool, and the
/// passes over that pool that make one cycle.
const ANALYST_QUESTIONS: usize = 24;
const ANALYST_CHARTS: usize = 8;
const ANALYST_ROUNDS: usize = 2;
/// Dashboard cycle per connection: reports (a third of each shape), point
/// lookups and range lookups. Every fifth slot is a report.
const DASHBOARD_REPORTS_PER_SHAPE: usize = 25;
const DASHBOARD_POINTS: usize = 180;
const DASHBOARD_RANGES: usize = 120;
/// Fact rows of the dashboard database.
pub const DASHBOARD_ROWS: usize = 100_000;
/// Rows each ingest connection keeps live in its key range.
const INGEST_LIVE_ROWS: usize = 100;
/// First key of connection `c`'s ingest range is `(c + 1) * INGEST_KEY_SPAN`.
const INGEST_KEY_SPAN: i64 = 1_000_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Analyst,
    Dashboard,
    Ingest,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Analyst, Kind::Dashboard, Kind::Ingest];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Analyst => "analyst",
            Kind::Dashboard => "dashboard",
            Kind::Ingest => "ingest",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The seed image the server starts from (not seed-dependent).
    pub fn database(self) -> Database {
        match self {
            Kind::Analyst | Kind::Ingest => baseline::baseline_db(),
            Kind::Dashboard => scaled::scaled_db(DASHBOARD_ROWS),
        }
    }

    pub fn durable(self) -> bool {
        self == Kind::Ingest
    }

    /// Closed-phase requests per connection and per `--seconds`: a little
    /// under what one connection completes per second on a quiet 2-vCPU VM,
    /// so the closed phase lasts roughly `--seconds`. A fixed count, not a fixed
    /// time, keeps the benchmark's own bookkeeping (and so the peak RSS)
    /// the same however fast the server is.
    fn closed_per_conn_second(self) -> f64 {
        match self {
            Kind::Analyst => 2000.0,
            Kind::Dashboard => 250.0,
            Kind::Ingest => 550.0,
        }
    }
}

/// What a request is, for latency accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `ASK` turn.
    Ask,
    /// `SQL` select or `EXEC`.
    Read,
    /// `SQL` insert, update or delete.
    Write,
    /// Handshake, `PREPARE` and `RESET`: checked, never timed.
    Control,
}

/// The answer a request must get.
#[derive(Debug, PartialEq)]
pub enum Expect {
    /// These exact response lines.
    Lines(Vec<String>),
    /// An `OK table` with these canonical rows. Row order counts only when
    /// `ordered`; floats compare to a relative 1e-9, since the engines may
    /// sum in different orders.
    Table {
        ncols: usize,
        rows: Vec<Vec<String>>,
        ordered: bool,
    },
}

impl Expect {
    fn table(rs: &nli_sql::ResultSet) -> Expect {
        let mut rows: Vec<Vec<String>> = rs
            .rows
            .iter()
            .map(|r| r.iter().map(Value::canonical).collect())
            .collect();
        if !rs.ordered {
            rows.sort();
        }
        Expect::Table {
            ncols: rs.columns.len(),
            rows,
            ordered: rs.ordered,
        }
    }

    fn ok(line: &str) -> Arc<Expect> {
        Arc::new(Expect::Lines(vec![line.to_string()]))
    }

    /// Whether `reply` is this answer.
    pub fn matches(&self, reply: &[String]) -> bool {
        match self {
            Expect::Lines(lines) => lines.as_slice() == reply,
            Expect::Table {
                ncols,
                rows,
                ordered,
            } => {
                let Some(head) = reply.first() else {
                    return false;
                };
                if *head != format!("OK table {} {}", rows.len(), ncols)
                    || reply.len() != rows.len() + 3
                    || reply.last().map(String::as_str) != Some("END")
                {
                    return false;
                }
                let mut got: Vec<Vec<String>> = Vec::with_capacity(rows.len());
                for line in &reply[2..reply.len() - 1] {
                    let Some(payload) = line.strip_prefix("ROW ") else {
                        return false;
                    };
                    got.push(payload.split('\t').map(unescape_field).collect());
                }
                if !ordered {
                    got.sort();
                }
                got.len() == rows.len()
                    && got.iter().zip(rows).all(|(g, w)| {
                        g.len() == w.len() && g.iter().zip(w).all(|(a, b)| same_cell(a, b))
                    })
            }
        }
    }

    /// Whether this is a successful answer (not an `ERR`).
    pub fn answered(&self) -> bool {
        match self {
            Expect::Lines(lines) => !lines.first().is_some_and(|l| l.starts_with("ERR ")),
            Expect::Table { .. } => true,
        }
    }

    fn hash_into(&self, h: &mut Fnv) {
        match self {
            Expect::Lines(lines) => lines.iter().for_each(|l| h.line(l)),
            Expect::Table {
                ncols,
                rows,
                ordered,
            } => {
                h.line(&format!("table {ncols} {ordered}"));
                rows.iter().for_each(|r| h.line(&r.join("\t")));
            }
        }
    }
}

fn same_cell(a: &str, b: &str) -> bool {
    if a == b {
        return true;
    }
    match (a.parse::<f64>(), b.parse::<f64>()) {
        (Ok(x), Ok(y)) => (x - y).abs() <= 1e-9 * x.abs().max(y.abs()),
        _ => false,
    }
}

/// A write's effect on the rows its connection owns, for the model the
/// durability check rebuilds from acknowledged writes.
#[derive(Debug, Clone)]
pub enum Effect {
    Put(Vec<Value>),
    Delete(i64),
}

#[derive(Debug, Clone)]
pub struct Request {
    /// The frame line sent (no newline).
    pub frame: String,
    pub class: Class,
    pub expect: Arc<Expect>,
    pub effect: Option<Effect>,
}

/// One connection's script.
pub struct ConnScript {
    /// Handshake and `PREPARE`s, sent once per connection before timing.
    pub setup: Vec<Request>,
    /// Requests that warm the server's caches during set-up.
    pub warmup: Vec<Request>,
    /// The measured requests, played in order: the closed phase sends the
    /// first `Workload::closed_per_conn`, the open phase the next
    /// `Workload::open_per_conn`. Analyst and dashboard bodies are a cycle,
    /// played round and round; an ingest body holds exactly those requests,
    /// so it is played once.
    pub body: Vec<Request>,
}

pub struct Workload {
    pub kind: Kind,
    pub db: Arc<Database>,
    pub conns: Vec<ConnScript>,
    pub closed_per_conn: usize,
    pub open_per_conn: usize,
    /// Hash of every frame of every script.
    pub script_hash: u64,
    /// Hash of every expected answer.
    pub expected_hash: u64,
}

/// Share of `--seconds` the open phase lasts. Its metrics are printed but
/// not gated, so the closed phase gets most of the run.
const OPEN_SHARE: f64 = 1.0 / 3.0;

/// Open-phase requests per connection: the phase lasts `OPEN_SHARE` of
/// `seconds` at the workload's arrival rate.
pub fn open_per_conn(open_rps: f64, seconds: f64) -> usize {
    (open_rps * seconds * OPEN_SHARE / CONNECTIONS as f64).round() as usize
}

/// Build a workload's scripts and expected answers from `seed`, with
/// phases sized from `seconds` and the open-phase rate `open_rps`.
pub fn build(kind: Kind, seed: u64, seconds: f64, open_rps: f64) -> Result<Workload, String> {
    let db = Arc::new(kind.database());
    let closed = ((kind.closed_per_conn_second() * seconds).round() as usize).max(1);
    let open = open_per_conn(open_rps, seconds).max(1);
    let conns = match kind {
        Kind::Analyst => analyst(&db, seed)?,
        Kind::Dashboard => dashboard(&db, seed)?,
        Kind::Ingest => ingest(&db, seed, closed, open)?,
    };
    let mut frames = Fnv::new();
    let mut answers = Fnv::new();
    for c in &conns {
        for r in c.setup.iter().chain(&c.warmup).chain(&c.body) {
            frames.line(&r.frame);
            r.expect.hash_into(&mut answers);
        }
    }
    Ok(Workload {
        kind,
        db,
        conns,
        closed_per_conn: closed,
        open_per_conn: open,
        script_hash: frames.finish(),
        expected_hash: answers.finish(),
    })
}

fn handshake(tenant: &str) -> Vec<Request> {
    vec![
        control("HELLO nli/1", "OK nli/1 ready"),
        control(&format!("TENANT {tenant}"), &format!("OK tenant {tenant}")),
    ]
}

fn control(frame: &str, reply: &str) -> Request {
    Request {
        frame: frame.to_string(),
        class: Class::Control,
        expect: Expect::ok(reply),
        effect: None,
    }
}

/// Expected answers for reads, from the tree-walk reference interpreter,
/// computed once per distinct statement.
struct Oracle<'a> {
    db: &'a Database,
    memo: HashMap<String, Arc<Expect>>,
}

impl<'a> Oracle<'a> {
    fn new(db: &'a Database) -> Oracle<'a> {
        Oracle {
            db,
            memo: HashMap::new(),
        }
    }

    fn expect(&mut self, sql: &str) -> Result<Arc<Expect>, String> {
        if let Some(e) = self.memo.get(sql) {
            return Ok(Arc::clone(e));
        }
        let q = parse_query(sql).map_err(|e| format!("oracle cannot parse {sql:?}: {e}"))?;
        let rs =
            run_tree_walk(&q, self.db).map_err(|e| format!("oracle failed on {sql:?}: {e}"))?;
        let e = Arc::new(Expect::table(&rs));
        self.memo.insert(sql.to_string(), Arc::clone(&e));
        Ok(e)
    }

    fn read(&mut self, frame: String, sql: &str) -> Result<Request, String> {
        Ok(Request {
            frame,
            class: Class::Read,
            expect: self.expect(sql)?,
            effect: None,
        })
    }
}

/// One conversational unit of the analyst script: the turns plus the gold
/// SQL of the data they are about.
struct Episode {
    asks: Vec<String>,
    gold: String,
}

fn analyst_pool(db: &Database, rng: &mut Prng) -> Vec<Episode> {
    let mut episodes = Vec::new();
    let examples = generate_examples(
        std::slice::from_ref(db),
        0..1,
        &SqlProfile::spider(),
        NlStyle::plain(),
        ANALYST_QUESTIONS,
        rng,
    );
    for (i, ex) in examples.into_iter().enumerate() {
        let mut asks = vec![ex.question.text.clone()];
        // Follow-up refinements on a numeric column of the main table.
        let main = ex
            .gold
            .tables()
            .first()
            .and_then(|t| db.schema.table_index(t));
        if let Some(ti) = main {
            let table = &db.schema.tables[ti];
            let numeric: Vec<usize> = (0..table.columns.len())
                .filter(|&ci| {
                    matches!(table.columns[ci].dtype, DataType::Int | DataType::Float) && ci != 0
                })
                .collect();
            if !numeric.is_empty() {
                let ci = numeric[rng.below(numeric.len())];
                let display = &table.columns[ci].display;
                let rows = db.rows(ti);
                let value = rows[rng.below(rows.len())][ci].canonical();
                match i % 3 {
                    0 => asks.push(format!("Only those with {display} greater than {value}.")),
                    1 => asks.push(format!("Sort them by {display} in descending order.")),
                    _ => asks.push("How many are there?".to_string()),
                }
            }
        }
        episodes.push(Episode {
            asks,
            gold: ex.gold.to_string(),
        });
    }
    let mut charts = 0;
    for attempt in 0..100u64 {
        if charts == ANALYST_CHARTS {
            break;
        }
        let mut r = rng.fork(attempt);
        let Some(plan) = sample_vis_plan(db, &mut r) else {
            continue;
        };
        let question = realize_vis(db, &plan, NlStyle::plain(), &mut r);
        let vql = vis_plan_to_vql(db, &plan);
        let refinement = match (&plan.kind, r.below(2)) {
            (VisKind::Temporal { .. }, 0) => "Binned by month.".to_string(),
            _ => {
                let other = match vql.chart.name() {
                    "PIE" => "bar",
                    _ => "pie",
                };
                format!("Make it a {other} chart instead.")
            }
        };
        episodes.push(Episode {
            asks: vec![question.text, refinement],
            gold: vql.query.to_string(),
        });
        charts += 1;
    }
    episodes
}

/// `analyst`: one tenant per connection holding a conversation over the
/// 600-row baseline database. About half the requests are `ASK` turns, the
/// rest their gold SQL and `EXEC`s of prepared hot statements, all from a
/// per-tenant pool small enough that every plan stays in the plan cache.
fn analyst(db: &Arc<Database>, seed: u64) -> Result<Vec<ConnScript>, String> {
    let mut oracle = Oracle::new(db);
    let pool = ParSessionPool::new();
    let mut root = Prng::new(seed ^ 0xA11A_0001);
    let mut conns = Vec::new();
    for c in 0..CONNECTIONS {
        let tenant = format!("analyst-{c}");
        let mut rng = root.fork(c as u64);
        let episodes = analyst_pool(db, &mut rng);
        if episodes.is_empty() {
            return Err("analyst pool came out empty".to_string());
        }
        // Every tenant prepares the whole baseline ladder and cycles through
        // it, so the prepared-statement mix is the same for every seed.
        let hot: Vec<(String, &str)> = baseline::QUERIES
            .iter()
            .map(|(name, sql)| (name.to_string(), *sql))
            .collect();
        let mut setup = handshake(&tenant);
        for (name, sql) in &hot {
            setup.push(control(
                &format!("PREPARE {name} {sql}"),
                &format!("OK prepared {name}"),
            ));
        }
        // The cycle opens with RESET, so every pass of it replays the same
        // conversation and gets the same answers.
        let mut turns: Vec<(Class, String)> = vec![(Class::Control, "RESET".to_string())];
        let mut execs = 0;
        for _ in 0..ANALYST_ROUNDS {
            let mut order: Vec<usize> = (0..episodes.len()).collect();
            rng.shuffle(&mut order);
            for (k, &e) in order.iter().enumerate() {
                let ep = &episodes[e];
                for q in &ep.asks {
                    turns.push((Class::Ask, q.clone()));
                }
                turns.push((Class::Read, format!("SQL {}", ep.gold)));
                if k % 2 == 1 {
                    let (name, _) = &hot[execs % hot.len()];
                    turns.push((Class::Read, format!("EXEC {name}")));
                    execs += 1;
                }
            }
        }
        // Expected ASK answers: an in-process tenant replays the same turns
        // in the same order. Two passes check that the cycle repeats.
        let tenant_ref = pool.tenant(&tenant);
        let mut passes: Vec<Vec<Arc<Expect>>> = Vec::new();
        for _ in 0..2 {
            let mut answers = Vec::new();
            for (class, frame) in &turns {
                answers.push(match class {
                    Class::Control => {
                        tenant_ref.reset();
                        Expect::ok("OK reset")
                    }
                    Class::Ask => {
                        let lines = match tenant_ref.ask(&NlQuestion::new(frame), db) {
                            Ok(resp) => render_response(&resp),
                            Err(e) => vec![error_line(&e)],
                        };
                        Arc::new(Expect::Lines(lines))
                    }
                    _ => Expect::ok("-"),
                });
            }
            passes.push(answers);
        }
        if passes[0] != passes[1] {
            return Err(format!(
                "{tenant}: the conversation does not repeat after RESET"
            ));
        }
        let prepared: BTreeMap<&str, &str> = hot.iter().map(|(n, s)| (n.as_str(), *s)).collect();
        let mut body = Vec::with_capacity(turns.len());
        for ((class, text), answer) in turns.iter().zip(&passes[0]) {
            body.push(match class {
                Class::Ask => Request {
                    frame: format!("ASK {text}"),
                    class: Class::Ask,
                    expect: Arc::clone(answer),
                    effect: None,
                },
                Class::Read => {
                    let sql = match text.strip_prefix("EXEC ") {
                        Some(name) => prepared[name],
                        None => &text["SQL ".len()..],
                    };
                    oracle.read(text.clone(), sql)?
                }
                _ => control(text, "OK reset"),
            });
        }
        for (i, r) in body.iter().enumerate() {
            if r.frame.contains('\n') || r.frame.len() > nli_server::proto::MAX_FRAME_BYTES {
                return Err(format!("{tenant}: request {i} is not a valid frame"));
            }
        }
        conns.push(ConnScript {
            setup,
            // One pass of the cycle warms every plan it uses.
            warmup: body.clone(),
            body,
        });
    }
    Ok(conns)
}

/// Report shapes from the scaled ladder: group-by and joins that scan every
/// row whatever the planner does.
const DASHBOARD_REPORTS: [&str; 3] = ["group", "join_group", "three_way"];

fn scaled_query(name: &str) -> &'static str {
    scaled::QUERIES
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, sql)| *sql)
        .expect("report name is in the scaled ladder")
}

/// `dashboard`: `SQL` and `EXEC` over 100k sales rows. Point and 100-row
/// range lookups carry seeded literals, far more distinct texts than the plan
/// cache holds; the reports are sent identically by both connections.
fn dashboard(db: &Arc<Database>, seed: u64) -> Result<Vec<ConnScript>, String> {
    let sales = db.schema.table_index("sales").expect("scaled db has sales");
    let amount_by_id: HashMap<i64, Value> = db
        .rows(sales)
        .iter()
        .map(|r| match r[0] {
            Value::Int(id) => (id, r[3].clone()),
            _ => unreachable!("sales.id is an Int primary key"),
        })
        .collect();
    let n = DASHBOARD_ROWS as i64;
    let mut oracle = Oracle::new(db);
    let mut root = Prng::new(seed ^ 0xDA5B_0002);
    // Report slots are shared by both connections: same position, same
    // statement, same verb.
    let mut shared = root.fork(99);
    let mut reports: Vec<(usize, bool)> = (0..DASHBOARD_REPORTS.len()
        * DASHBOARD_REPORTS_PER_SHAPE)
        .map(|i| (i % DASHBOARD_REPORTS.len(), i % 2 == 0))
        .collect();
    shared.shuffle(&mut reports);
    let mut lookups: Vec<(String, Arc<Expect>)> = Vec::new();
    let mut conns = Vec::new();
    for c in 0..CONNECTIONS {
        let tenant = format!("dashboard-{c}");
        let mut rng = root.fork(c as u64);
        let mut setup = handshake(&tenant);
        for name in DASHBOARD_REPORTS {
            setup.push(control(
                &format!("PREPARE {name} {}", scaled_query(name)),
                &format!("OK prepared {name}"),
            ));
        }
        let mut points: Vec<bool> = (0..DASHBOARD_POINTS + DASHBOARD_RANGES)
            .map(|i| i < DASHBOARD_POINTS)
            .collect();
        rng.shuffle(&mut points);
        let mut lookup_kinds = points.into_iter();
        let mut report_slots = reports.iter();
        let cycle = reports.len() + DASHBOARD_POINTS + DASHBOARD_RANGES;
        let mut body = Vec::with_capacity(cycle);
        for i in 0..cycle {
            let slot = if i % 5 == 4 {
                report_slots.next()
            } else {
                None
            };
            let point = slot.is_none() && lookup_kinds.next().expect("one kind per lookup slot");
            body.push(match slot {
                Some((r, exec)) => {
                    let name = DASHBOARD_REPORTS[*r];
                    let sql = scaled_query(name);
                    let frame = if *exec {
                        format!("EXEC {name}")
                    } else {
                        format!("SQL {sql}")
                    };
                    oracle.read(frame, sql)?
                }
                None if point => {
                    let id = 1 + rng.below(n as usize) as i64;
                    let sql = format!("SELECT amount FROM sales WHERE id = {id}");
                    let expect = Arc::new(Expect::Table {
                        ncols: 1,
                        rows: vec![vec![amount_by_id[&id].canonical()]],
                        ordered: false,
                    });
                    lookups.push((sql.clone(), Arc::clone(&expect)));
                    read(sql, expect)
                }
                None => {
                    let lo = 1 + rng.below(n as usize - 99) as i64;
                    let sql = format!("SELECT id FROM sales WHERE id BETWEEN {lo} AND {}", lo + 99);
                    let mut rows: Vec<Vec<String>> =
                        (lo..lo + 100).map(|id| vec![id.to_string()]).collect();
                    rows.sort();
                    let expect = Arc::new(Expect::Table {
                        ncols: 1,
                        rows,
                        ordered: false,
                    });
                    lookups.push((sql.clone(), Arc::clone(&expect)));
                    read(sql, expect)
                }
            });
        }
        let mut warmup: Vec<Request> = Vec::new();
        for name in DASHBOARD_REPORTS {
            warmup.push(oracle.read(format!("EXEC {name}"), scaled_query(name))?);
        }
        warmup.extend(
            body.iter()
                .filter(|r| r.frame.contains(" id "))
                .take(2)
                .cloned(),
        );
        conns.push(ConnScript {
            setup,
            warmup,
            body,
        });
    }
    // The lookups' answers come straight from the seed rows; check that
    // shortcut against the reference interpreter on a seeded sample.
    let mut check = root.fork(7);
    for i in check.sample_indices(lookups.len(), 24) {
        let (sql, expect) = &lookups[i];
        if oracle.expect(sql)? != *expect {
            return Err(format!("lookup oracle disagrees with interp on {sql:?}"));
        }
    }
    Ok(conns)
}

fn read(sql: String, expect: Arc<Expect>) -> Request {
    Request {
        frame: format!("SQL {sql}"),
        class: Class::Read,
        expect,
        effect: None,
    }
}

/// The ingest table's columns, in insert order.
const SALES_COLUMNS: &str = "id, product_id, store_id, amount, sold_on, quantity";

/// The store-wide aggregate: it scans every sales row, but only the seed
/// rows, which no connection writes, pass its filter.
const INGEST_AGGREGATE: &str = "SELECT products.category, COUNT(*), SUM(sales.quantity) \
     FROM sales JOIN products ON sales.product_id = products.id \
     WHERE sales.id <= 200 GROUP BY products.category";

fn model_rows(
    model: &BTreeMap<i64, Vec<Value>>,
    lo: i64,
    hi: i64,
    cols: &[usize],
) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = model
        .range(lo..=hi)
        .map(|(_, r)| cols.iter().map(|&c| r[c].canonical()).collect())
        .collect();
    rows.sort();
    rows
}

/// `ingest`: the baseline database behind a durable server. Each connection
/// owns a disjoint key range of `sales`; 40% of its requests insert, update
/// or delete its own rows, the rest read its own keys back or run the
/// store-wide aggregate. The script is played once, so the WAL it leaves has
/// the same length on every commit.
fn ingest(
    db: &Arc<Database>,
    seed: u64,
    closed: usize,
    open: usize,
) -> Result<Vec<ConnScript>, String> {
    let sales = db
        .schema
        .table_index("sales")
        .expect("baseline db has sales");
    let columns: Vec<&str> = db.schema.tables[sales]
        .columns
        .iter()
        .map(|c| c.name.as_str())
        .collect();
    if columns.join(", ") != SALES_COLUMNS {
        return Err(format!("unexpected sales columns {columns:?}"));
    }
    let max_seed_id = db
        .rows(sales)
        .iter()
        .filter_map(|r| match r[0] {
            Value::Int(id) => Some(id),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    if max_seed_id != 200 {
        return Err(format!(
            "aggregate filter assumes 200 seed rows, found {max_seed_id}"
        ));
    }
    let mut oracle = Oracle::new(db);
    let aggregate = oracle.expect(INGEST_AGGREGATE)?;
    let products = db
        .rows(db.schema.table_index("products").expect("products"))
        .len();
    let stores = db
        .rows(db.schema.table_index("stores").expect("stores"))
        .len();
    let mut root = Prng::new(seed ^ 0x1A6E_0003);
    let affected = Expect::ok("OK affected 1");
    let mut conns = Vec::new();
    for c in 0..CONNECTIONS {
        let tenant = format!("ingest-{c}");
        let mut rng = root.fork(c as u64);
        let first = (c as i64 + 1) * INGEST_KEY_SPAN;
        let mut next = first;
        let mut model: BTreeMap<i64, Vec<Value>> = BTreeMap::new();
        let mut body = Vec::with_capacity(closed + open);
        let pick = |model: &BTreeMap<i64, Vec<Value>>, rng: &mut Prng| {
            *model.keys().nth(rng.below(model.len())).expect("non-empty")
        };
        while body.len() < closed + open {
            let roll = rng.below(100);
            // Inserts and deletes share 28% and hold each connection near
            // INGEST_LIVE_ROWS rows, so the table, and with it the cost of a
            // write, stays level through the run.
            let grow = model.len() < INGEST_LIVE_ROWS;
            let req = if (roll < 28 && grow) || (roll < 40 && model.is_empty()) {
                let id = next;
                next += 1;
                let (product, store) = (1 + rng.below(products), 1 + rng.below(stores));
                let (whole, cents) = (1 + rng.below(2000), rng.below(100));
                let (month, day) = (1 + rng.below(12) as u8, 1 + rng.below(28) as u8);
                let quantity = 1 + rng.below(50);
                let amount = format!("{whole}.{cents:02}");
                let row_sql = format!(
                    "{id}, {product}, {store}, {amount}, '2025-{month:02}-{day:02}', {quantity}"
                );
                let row = vec![
                    Value::Int(id),
                    Value::Int(product as i64),
                    Value::Int(store as i64),
                    Value::Float(amount.parse().expect("formatted as a decimal")),
                    Value::Date(nli_core::Date::new(2025, month, day)),
                    Value::Int(quantity as i64),
                ];
                model.insert(id, row.clone());
                Request {
                    frame: format!("SQL INSERT INTO sales ({SALES_COLUMNS}) VALUES ({row_sql})"),
                    class: Class::Write,
                    expect: Arc::clone(&affected),
                    effect: Some(Effect::Put(row)),
                }
            } else if (28..40).contains(&roll) {
                let id = pick(&model, &mut rng);
                let quantity = 1 + rng.below(50) as i64;
                let row = model.get_mut(&id).expect("picked from the model");
                row[5] = Value::Int(quantity);
                Request {
                    frame: format!("SQL UPDATE sales SET quantity = {quantity} WHERE id = {id}"),
                    class: Class::Write,
                    expect: Arc::clone(&affected),
                    effect: Some(Effect::Put(row.clone())),
                }
            } else if roll < 28 {
                let id = pick(&model, &mut rng);
                model.remove(&id);
                Request {
                    frame: format!("SQL DELETE FROM sales WHERE id = {id}"),
                    class: Class::Write,
                    expect: Arc::clone(&affected),
                    effect: Some(Effect::Delete(id)),
                }
            } else if roll < 70 {
                // A point read of one of this connection's keys: mostly a
                // live one, sometimes one it has deleted or not yet written.
                let id = if !model.is_empty() && rng.chance(0.8) {
                    pick(&model, &mut rng)
                } else {
                    first + rng.below((next - first + 1) as usize) as i64
                };
                let sql = format!("SELECT id, amount, quantity FROM sales WHERE id = {id}");
                let rows = model_rows(&model, id, id, &[0, 3, 5]);
                read(
                    sql,
                    Arc::new(Expect::Table {
                        ncols: 3,
                        rows,
                        ordered: false,
                    }),
                )
            } else if roll < 88 {
                let lo = first + rng.below((next - first + 1) as usize) as i64;
                let hi = lo + 49;
                let sql = format!("SELECT id, quantity FROM sales WHERE id BETWEEN {lo} AND {hi}");
                let rows = model_rows(&model, lo, hi, &[0, 5]);
                read(
                    sql,
                    Arc::new(Expect::Table {
                        ncols: 2,
                        rows,
                        ordered: false,
                    }),
                )
            } else {
                read(INGEST_AGGREGATE.to_string(), Arc::clone(&aggregate))
            };
            body.push(req);
        }
        conns.push(ConnScript {
            setup: handshake(&tenant),
            warmup: vec![
                read(INGEST_AGGREGATE.to_string(), Arc::clone(&aggregate)),
                oracle.read(
                    "SQL SELECT id, amount, quantity FROM sales WHERE id = 1".to_string(),
                    "SELECT id, amount, quantity FROM sales WHERE id = 1",
                )?,
            ],
            body,
        });
    }
    Ok(conns)
}

/// Sales rows keyed by id, as canonical strings.
pub fn sales_rows(db: &Database) -> BTreeMap<i64, Vec<String>> {
    let sales = db.schema.table_index("sales").expect("sales");
    db.rows(sales)
        .iter()
        .filter_map(|r| match r[0] {
            Value::Int(id) => Some((id, r.iter().map(Value::canonical).collect())),
            _ => None,
        })
        .collect()
}
