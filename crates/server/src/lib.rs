//! # nli-server
//!
//! A long-running, multi-tenant natural-language query server over the
//! shared [`nli_systems::ParSessionPool`] — the deployment shape the
//! survey's §5 systems discussion assumes (many users, one warm engine)
//! made concrete: a zero-heavy-dep TCP line protocol, per-tenant
//! conversational state, a pool-wide plan cache, bounded admission with
//! explicit `BUSY` shedding, cross-connection batching of identical
//! stateless statements, and graceful drain on shutdown.
//!
//! The crate is five layers, each documented where it lives:
//!
//! * [`proto`] — the `nli/1` frame grammar and error-code taxonomy
//!   (specified field-by-field in `docs/server-protocol.md`; the
//!   `doc_examples` test keeps spec and parser in lockstep),
//! * [`admission`] — the bounded in-flight gate behind `BUSY`,
//! * [`batch`] — the stateless-statement executor pool that collapses
//!   identical queued statements into one execution,
//! * [`slowlog`] — the bounded slow-query capture ring served over the
//!   admin `SLOWLOG` frame and flushed as a JSONL event journal at drain,
//! * [`server`] — the accept loop, per-connection state machine, admin
//!   plane (`STATS`/`SLOWLOG`/`HEALTH`), and drain protocol.
//!
//! [`loadgen`] closes the loop: a closed-loop concurrent client fleet
//! whose `nli-server-loadgen` binary prints per-query latency percentiles
//! and throughput (`docs/capacity-runbook.md` §5 reads them). The
//! repository benchmark that gates changes is `nlibench`
//! (`BENCHMARK.json`), which drives this crate over the same wire.
//!
//! ## Example
//!
//! ```
//! use nli_server::{start, Client, ServerConfig};
//! use std::sync::Arc;
//!
//! let db = Arc::new(nli_bench::baseline::baseline_db());
//! let handle = start(ServerConfig::new(db)).unwrap();
//!
//! let mut client = Client::connect(handle.addr()).unwrap();
//! client.expect("HELLO nli/1", "OK nli/1 ready").unwrap();
//! client.expect("TENANT demo", "OK tenant demo").unwrap();
//! let lines = client.request("SQL SELECT COUNT(*) FROM products").unwrap();
//! assert_eq!(lines[0], "OK table 1 1");
//! client.expect("QUIT", "OK bye").unwrap();
//! handle.shutdown();
//! ```

pub mod admission;
pub mod batch;
pub mod db;
pub mod loadgen;
pub mod proto;
pub mod server;
pub mod slowlog;

pub use admission::{Admission, Permit};
pub use batch::{BatchQueue, Batcher, ExecGate};
pub use db::{DbHandle, DmlReceipt};
pub use loadgen::{run_loadgen, run_loadgen_against, Client, LoadgenConfig, LoadgenReport};
pub use proto::{parse_frame, render_stats, validate_server_line, ErrorCode, Frame, ProtoError};
pub use server::{start, ServerConfig, ServerHandle};
pub use slowlog::{SlowEntry, SlowLog};
