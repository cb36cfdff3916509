//! Concurrent session serving over a shared engine.
//!
//! AskYourDB-class deployments serve many users at once, each holding an
//! independent conversation. [`ParSessionPool`] models that workload: every
//! script (one user's sequence of questions) runs in its own [`Session`]
//! with its own dialogue state, scripts fan out across the
//! [`nli_core::par`] runtime, and all sessions execute through *one*
//! [`SqlEngine`] — so the plan cache warmed by one user serves every other
//! user asking the same question of the same schema.
//!
//! Determinism: sessions never communicate, each transcript depends only on
//! its own script, and transcripts come back in script order — serving in
//! parallel returns exactly what serving serially would (latency fields
//! aside).

use crate::architectures::SystemResponse;
use crate::session::Session;
use nli_core::obs::Counter;
use nli_core::{par, Database, NlQuestion, Result};
use nli_sql::SqlEngine;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Per-tenant resource accounting, shared by every connection bound to
/// the tenant. All cells are plain [`Counter`]s (relaxed atomics) —
/// strictly observational, never read back by any execution path, so the
/// determinism contract is untouched. The server increments these on its
/// connection threads and in the batcher; the admin `STATS TENANT <id>`
/// frame renders them.
///
/// `requests` counts *admitted* query-path frames (`ASK`/`SQL`/`EXEC`/
/// DML): exactly the requests a closed-loop load generator counts, so the
/// two totals reconcile. Control frames (`PREPARE`/`RESET`/admin) and
/// shed `BUSY` responses are metered separately.
#[derive(Debug, Default)]
pub struct TenantStats {
    /// Admitted query-path requests (`asks + sqls + execs + dmls`).
    pub requests: Counter,
    pub asks: Counter,
    pub sqls: Counter,
    pub execs: Counter,
    pub dmls: Counter,
    pub prepares: Counter,
    pub resets: Counter,
    /// Result rows returned to this tenant (table rows + chart points).
    pub rows_out: Counter,
    /// Requests that went through the identical-statement batcher.
    pub batches_joined: Counter,
    /// Batched statements whose plan was already cached when the batch
    /// ran. Scheduling class: whether a plan is cached when a given
    /// request arrives depends on cross-tenant interleaving.
    pub plan_cache_hits: Counter,
    /// WAL bytes this tenant's DML appended (durability cost).
    pub wal_bytes: Counter,
    /// Requests shed with `BUSY` before admission. Scheduling class.
    pub busy_rejections: Counter,
    /// Error responses by protocol code (`E_PARSE`, `E_EXEC`, ...).
    errors: Mutex<BTreeMap<String, u64>>,
}

impl TenantStats {
    /// Count one error response carrying protocol code `code`.
    pub fn record_error(&self, code: &str) {
        *self.errors.lock().entry(code.to_string()).or_insert(0) += 1;
    }

    /// Error counts by code, sorted by code.
    pub fn errors(&self) -> BTreeMap<String, u64> {
        self.errors.lock().clone()
    }
}

/// One long-lived tenant: a conversational [`Session`] plus the tenant's
/// named prepared statements, both behind locks so any number of server
/// connections can address the tenant concurrently.
///
/// Statefulness is scoped exactly here: the dialogue history and the
/// prepared-statement names belong to *this* tenant and are invisible to
/// every other tenant, while the [`SqlEngine`] (and therefore the plan
/// cache) is shared pool-wide — one tenant preparing a query warms the
/// cache for all of them, but never leaks a name or a conversation turn.
///
/// **Per-tenant serialization:** [`Tenant::ask`] holds the session lock
/// for the whole turn, so concurrent stateful requests for one tenant
/// execute in some serial order. With each tenant's stateful traffic
/// issued in a fixed order (e.g. one connection per tenant), responses are
/// a pure function of that order — the server's determinism contract
/// (DESIGN.md §3.7) builds on this.
pub struct Tenant {
    session: Mutex<Session>,
    prepared: Mutex<BTreeMap<String, String>>,
    stats: Arc<TenantStats>,
}

impl Tenant {
    fn new(engine: SqlEngine) -> Tenant {
        Tenant {
            session: Mutex::new(Session::with_engine(engine)),
            prepared: Mutex::new(BTreeMap::new()),
            stats: Arc::new(TenantStats::default()),
        }
    }

    /// This tenant's resource accounting (shared — clone the `Arc` to
    /// meter from another thread, e.g. the batcher).
    pub fn stats(&self) -> &Arc<TenantStats> {
        &self.stats
    }

    /// Run one conversational turn (question or refinement) against `db`,
    /// holding the tenant's session lock for the duration.
    pub fn ask(&self, question: &NlQuestion, db: &Database) -> Result<SystemResponse> {
        self.session.lock().ask(question, db)
    }

    /// Forget the tenant's dialogue history (prepared statements survive —
    /// they are declarations, not conversation).
    pub fn reset(&self) {
        self.session.lock().reset();
    }

    /// Number of turns in the tenant's dialogue history.
    pub fn history_len(&self) -> usize {
        self.session.lock().history().len()
    }

    /// Record (or replace) the named prepared statement. Returns `true`
    /// when `name` was already bound and has been replaced.
    pub fn prepare(&self, name: &str, sql: String) -> bool {
        self.prepared.lock().insert(name.to_string(), sql).is_some()
    }

    /// The SQL text bound to `name`, if this tenant prepared it.
    pub fn prepared_sql(&self, name: &str) -> Option<String> {
        self.prepared.lock().get(name).cloned()
    }

    /// Number of named prepared statements this tenant holds.
    pub fn prepared_count(&self) -> usize {
        self.prepared.lock().len()
    }
}

/// A pool that serves independent conversational sessions concurrently
/// over one shared engine (and plan cache), plus a registry of named
/// long-lived [`Tenant`]s for serving workloads (`nli-server`).
pub struct ParSessionPool {
    engine: SqlEngine,
    tenants: Mutex<BTreeMap<String, Arc<Tenant>>>,
}

impl ParSessionPool {
    pub fn new() -> ParSessionPool {
        ParSessionPool::with_engine(SqlEngine::new())
    }

    /// A pool executing through a caller-supplied engine.
    pub fn with_engine(engine: SqlEngine) -> ParSessionPool {
        ParSessionPool {
            engine,
            tenants: Mutex::new(BTreeMap::new()),
        }
    }

    /// The shared engine (e.g. for cache statistics).
    pub fn engine(&self) -> &SqlEngine {
        &self.engine
    }

    /// Get — or lazily create — the long-lived [`Tenant`] named `id`.
    /// Every caller asking for the same id shares one tenant (and its
    /// dialogue state); all tenants share the pool's engine and plan
    /// cache. Creation is counted in the `pool.tenants_created` counter;
    /// the registry itself is only locked for the map lookup, never for
    /// the tenant's work.
    pub fn tenant(&self, id: &str) -> Arc<Tenant> {
        let mut tenants = self.tenants.lock();
        if let Some(t) = tenants.get(id) {
            return Arc::clone(t);
        }
        nli_core::obs::global()
            .counter("pool.tenants_created")
            .inc();
        let t = Arc::new(Tenant::new(self.engine.clone()));
        tenants.insert(id.to_string(), Arc::clone(&t));
        t
    }

    /// The tenant named `id` if it already exists — never creates. The
    /// admin `STATS TENANT` path uses this so *asking about* a tenant
    /// cannot register one (which would perturb tenant counts).
    pub fn get_tenant(&self, id: &str) -> Option<Arc<Tenant>> {
        self.tenants.lock().get(id).map(Arc::clone)
    }

    /// Number of registered tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.lock().len()
    }

    /// Registered tenant ids, sorted.
    pub fn tenant_ids(&self) -> Vec<String> {
        self.tenants.lock().keys().cloned().collect()
    }

    /// Drop the named tenant (its dialogue state and prepared statements).
    /// Returns `false` when no such tenant exists. Handles already held
    /// elsewhere stay usable — eviction only unlinks the registry entry.
    pub fn evict_tenant(&self, id: &str) -> bool {
        self.tenants.lock().remove(id).is_some()
    }

    /// Serve `scripts[i]` in its own fresh session; transcript `i` holds
    /// the per-turn responses of script `i`, in turn order.
    pub fn serve(
        &self,
        db: &Database,
        scripts: &[Vec<NlQuestion>],
    ) -> Vec<Vec<Result<SystemResponse>>> {
        let registry = nli_core::obs::global();
        let _span = nli_core::obs::span!("pool.serve");
        registry.counter("pool.sessions").add(scripts.len() as u64);
        registry
            .counter("pool.turns")
            .add(scripts.iter().map(|s| s.len() as u64).sum());
        par::par_map(scripts, |_, script| {
            // Per-session trace tree; shape is worker-count independent.
            let _span = nli_core::obs::span!("pool.session");
            let mut session = Session::with_engine(self.engine.clone());
            script.iter().map(|q| session.ask(q, db)).collect()
        })
    }
}

impl Default for ParSessionPool {
    fn default() -> Self {
        ParSessionPool::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::architectures::SystemOutput;
    use nli_core::{Column, DataType, Schema, Table, Value};

    fn db() -> Database {
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
        d
    }

    fn scripts(n: usize) -> Vec<Vec<NlQuestion>> {
        (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    vec![
                        NlQuestion::new("How many sales are there?"),
                        NlQuestion::new("Only those with amount greater than 60."),
                    ]
                } else {
                    vec![NlQuestion::new("How many sales are there?")]
                }
            })
            .collect()
    }

    fn programs(transcripts: &[Vec<Result<SystemResponse>>]) -> Vec<Vec<Option<String>>> {
        transcripts
            .iter()
            .map(|t| {
                t.iter()
                    .map(|r| r.as_ref().ok().and_then(|resp| resp.program.clone()))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn concurrent_sessions_keep_independent_dialogue_state() {
        let pool = ParSessionPool::new();
        let d = db();
        let transcripts = pool.serve(&d, &scripts(8));
        assert_eq!(transcripts.len(), 8);
        for (i, t) in transcripts.iter().enumerate() {
            // turn 1 of every session: COUNT over all three rows
            match &t[0].as_ref().unwrap().output {
                SystemOutput::Table(rs) => assert_eq!(rs.rows[0][0], Value::Int(3)),
                other => panic!("session {i}: {other:?}"),
            }
            // turn 2 (even sessions): the refinement sees only 2 rows,
            // proving the neighbour sessions' turns didn't leak in
            if t.len() == 2 {
                match &t[1].as_ref().unwrap().output {
                    SystemOutput::Table(rs) => assert_eq!(rs.rows[0][0], Value::Int(2)),
                    other => panic!("session {i}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn parallel_serving_matches_serial_serving() {
        let d = db();
        let s = scripts(6);
        let serial = nli_core::with_threads(1, || ParSessionPool::new().serve(&d, &s));
        let parallel = nli_core::with_threads(4, || ParSessionPool::new().serve(&d, &s));
        assert_eq!(programs(&serial), programs(&parallel));
    }

    #[test]
    fn tenants_are_shared_by_id_and_isolated_between_ids() {
        let pool = ParSessionPool::new();
        let d = db();
        let alice = pool.tenant("alice");
        let bob = pool.tenant("bob");
        assert_eq!(pool.tenant_count(), 2);
        assert_eq!(pool.tenant_ids(), vec!["alice", "bob"]);

        // dialogue state: alice's refinement works because *her* session
        // saw the base question; bob's identical refinement fails cold
        alice
            .ask(&NlQuestion::new("How many sales are there?"), &d)
            .unwrap();
        assert!(alice
            .ask(
                &NlQuestion::new("Only those with amount greater than 60."),
                &d
            )
            .is_ok());
        assert!(bob
            .ask(
                &NlQuestion::new("Only those with amount greater than 60."),
                &d
            )
            .is_err());

        // prepared statements: names bind per tenant, not per pool
        alice.prepare("q1", "SELECT COUNT(*) FROM sales".to_string());
        assert_eq!(
            pool.tenant("alice").prepared_sql("q1").as_deref(),
            Some("SELECT COUNT(*) FROM sales")
        );
        assert_eq!(bob.prepared_sql("q1"), None);
        assert_eq!(bob.prepared_count(), 0);

        // same id → same tenant (the registry shares, not clones)
        assert_eq!(pool.tenant("alice").history_len(), 2);
    }

    #[test]
    fn tenant_reset_keeps_prepared_statements() {
        let pool = ParSessionPool::new();
        let d = db();
        let t = pool.tenant("carol");
        t.prepare("hot", "SELECT id FROM sales".to_string());
        t.ask(&NlQuestion::new("How many sales are there?"), &d)
            .unwrap();
        t.reset();
        assert_eq!(t.history_len(), 0);
        assert_eq!(t.prepared_count(), 1, "declarations survive a reset");
    }

    #[test]
    fn evicted_tenant_restarts_cold() {
        let pool = ParSessionPool::new();
        let d = db();
        pool.tenant("dave")
            .ask(&NlQuestion::new("How many sales are there?"), &d)
            .unwrap();
        assert!(pool.evict_tenant("dave"));
        assert!(!pool.evict_tenant("dave"), "second eviction is a no-op");
        assert_eq!(pool.tenant("dave").history_len(), 0);
    }

    #[test]
    fn concurrent_turns_for_one_tenant_serialize() {
        let pool = ParSessionPool::new();
        let d = db();
        let t = pool.tenant("shared");
        t.ask(&NlQuestion::new("How many sales are there?"), &d)
            .unwrap();
        // 8 threads hammer the same tenant with the same refinement; the
        // session lock serializes them, so every turn sees a consistent
        // history and all answers agree.
        std::thread::scope(|s| {
            for _ in 0..8 {
                let t = &t;
                let d = &d;
                s.spawn(move || {
                    let r = t
                        .ask(
                            &NlQuestion::new("Only those with amount greater than 60."),
                            d,
                        )
                        .unwrap();
                    match r.output {
                        SystemOutput::Table(rs) => assert_eq!(rs.rows[0][0], Value::Int(2)),
                        other => panic!("{other:?}"),
                    }
                });
            }
        });
        assert_eq!(t.history_len(), 9);
    }

    #[test]
    fn tenant_stats_are_per_tenant_and_shared_by_handle() {
        let pool = ParSessionPool::new();
        let erin = pool.tenant("erin");
        erin.stats().requests.inc();
        erin.stats().asks.inc();
        erin.stats().record_error("E_PARSE");
        erin.stats().record_error("E_PARSE");
        // Same id → same stats cell; different id → fresh zeros.
        assert_eq!(pool.tenant("erin").stats().requests.get(), 1);
        assert_eq!(pool.tenant("erin").stats().errors()["E_PARSE"], 2);
        assert_eq!(pool.tenant("frank").stats().requests.get(), 0);
        assert!(pool.tenant("frank").stats().errors().is_empty());
        // get_tenant never creates.
        assert!(pool.get_tenant("erin").is_some());
        assert!(pool.get_tenant("nobody").is_none());
        assert_eq!(pool.tenant_count(), 2);
    }

    #[test]
    fn sessions_share_one_plan_cache() {
        let pool = ParSessionPool::new();
        let d = db();
        pool.serve(&d, &scripts(8));
        let stats = pool.engine().cache_stats();
        // 8 sessions ask the same first question; the plan compiles far
        // fewer times than it executes
        assert!(stats.hits > 0, "{stats:?}");
        assert!(stats.hit_rate() > 0.0);
        assert!(stats.hit_rate().is_finite());
    }
}
