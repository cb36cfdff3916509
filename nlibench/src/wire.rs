//! Traffic over the `nli/1` wire: server set-up, the closed and open phases,
//! and the durability check after drain.

use crate::workload::{sales_rows, Class, ConnScript, Effect, Request, Workload};
use nli_core::Store;
use nli_server::{start, Client, ServerConfig, ServerHandle};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One timed request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When it was sent (closed phase) or due (open phase), in seconds
    /// from the start of the phase.
    pub at: f64,
    pub class: Class,
    /// Latency in ms; in the open phase, from the due time.
    pub ms: f64,
    /// Correct and within the latency limit.
    pub good: bool,
}

/// What one connection saw in one phase.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Every timed request (control frames are checked, not timed).
    pub samples: Vec<Sample>,
    /// Open phase: how late each send was against its due time, in ms.
    pub lateness: Vec<f64>,
    /// Body indices of acknowledged writes, in order.
    pub acked: Vec<usize>,
    /// A few failed exchanges, for the report.
    pub examples: Vec<String>,
    /// Set when the connection broke; the phase stops for it.
    pub dead: bool,
    /// When the connection sent its last request of the phase, in seconds
    /// from the start of the phase.
    pub last_sent: f64,
}

impl Tally {
    /// Record one exchange. Returns whether the answer was right.
    fn record(
        &mut self,
        req: &Request,
        reply: std::io::Result<Vec<String>>,
        at: f64,
        ms: f64,
        limit_ms: f64,
    ) -> bool {
        self.attempted += 1;
        let ok = match &reply {
            Ok(lines) => req.expect.matches(lines),
            Err(_) => {
                self.dead = true;
                false
            }
        };
        if !ok {
            self.failed += 1;
            if self.examples.len() < 3 {
                let got = match &reply {
                    Ok(lines) => lines
                        .iter()
                        .take(4)
                        .cloned()
                        .collect::<Vec<_>>()
                        .join(" | "),
                    Err(e) => format!("no reply: {e}"),
                };
                self.examples.push(format!("{:?} -> {got}", req.frame));
            }
        }
        if req.class != Class::Control {
            self.samples.push(Sample {
                at,
                class: req.class,
                ms,
                good: ok && ms <= limit_ms,
            });
        }
        ok
    }

    /// A tally with room for `requests` timed requests, allocated and
    /// written once up front, so the benchmark's own resident memory is the
    /// same however many requests a phase gets through.
    fn with_capacity(requests: usize) -> Tally {
        let blank = Sample {
            at: 0.0,
            class: Class::Control,
            ms: 0.0,
            good: false,
        };
        let mut samples = vec![blank; requests];
        std::hint::black_box(&mut samples[..]);
        samples.clear();
        Tally {
            samples,
            ..Tally::default()
        }
    }

    /// Pool the connections' tallies for the phase totals. `acked` stays
    /// per connection and is not pooled.
    pub fn merge(tallies: Vec<Tally>) -> Tally {
        let mut all = Tally::with_capacity(tallies.iter().map(|t| t.samples.capacity()).sum());
        all.lateness = Vec::with_capacity(tallies.iter().map(|t| t.lateness.len()).sum());
        for t in tallies {
            all.attempted += t.attempted;
            all.failed += t.failed;
            all.samples.extend(t.samples);
            all.lateness.extend(t.lateness);
            all.examples.extend(t.examples);
            all.dead |= t.dead;
        }
        all
    }
}

/// A running server with one connected, handshaken client per script.
pub struct Served {
    pub handle: ServerHandle,
    pub clients: Vec<Client>,
    pub data_dir: Option<PathBuf>,
}

fn exchange(client: &mut Client, req: &Request, tally: &mut Tally) {
    let t = Instant::now();
    let reply = client.request(&req.frame);
    tally.record(
        req,
        reply,
        0.0,
        t.elapsed().as_secs_f64() * 1e3,
        f64::INFINITY,
    );
}

/// Build the database, start the server with the runbook defaults (plus a
/// data directory for a durable workload), connect, hand-shake and warm the
/// caches. Everything a user waits for before the first measured request.
pub fn set_up(w: &Workload, data_dir: Option<&Path>, tally: &mut Tally) -> std::io::Result<Served> {
    let db = Arc::new(w.kind.database());
    let mut cfg = ServerConfig::new(db);
    cfg.data_dir = data_dir.map(Path::to_path_buf);
    let handle = start(cfg)?;
    let mut clients = Vec::with_capacity(w.conns.len());
    for conn in &w.conns {
        let mut client = Client::connect(handle.addr())?;
        for req in &conn.setup {
            exchange(&mut client, req, tally);
        }
        clients.push(client);
    }
    for (client, conn) in clients.iter_mut().zip(&w.conns) {
        for req in &conn.warmup {
            exchange(client, req, tally);
        }
    }
    Ok(Served {
        handle,
        clients,
        data_dir: data_dir.map(Path::to_path_buf),
    })
}

impl Served {
    /// Say goodbye on every connection, then drain and stop the server.
    pub fn shut_down(mut self) {
        for client in &mut self.clients {
            let _ = client.request("QUIT");
        }
        self.clients.clear();
        self.handle.shutdown();
    }
}

/// Closed loop: each connection sends its next request when the previous
/// reply arrives, until it has sent `count` or the clock passes `until`.
/// `positions` carry each connection's place in its script into the next
/// phase. Send times count from `start`, the phase's beginning. Returns
/// per-connection tallies and the phase's wall time in seconds.
pub fn closed_phase(
    clients: &mut [Client],
    conns: &[ConnScript],
    positions: &mut [usize],
    count: usize,
    limit_ms: f64,
    start: Instant,
    until: Instant,
) -> (Vec<Tally>, f64) {
    let tallies = std::thread::scope(|s| {
        let threads: Vec<_> = clients
            .iter_mut()
            .zip(conns)
            .zip(positions.iter_mut())
            .map(|((client, conn), pos)| {
                s.spawn(move || {
                    let mut tally = Tally::with_capacity(count.saturating_sub(*pos));
                    while *pos < count && !tally.dead {
                        let t = Instant::now();
                        if t >= until {
                            break;
                        }
                        let index = *pos % conn.body.len();
                        let req = &conn.body[index];
                        *pos += 1;
                        let reply = client.request(&req.frame);
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        let at = t.duration_since(start).as_secs_f64();
                        tally.last_sent = at;
                        if tally.record(req, reply, at, ms, limit_ms) && req.class == Class::Write {
                            tally.acked.push(index);
                        }
                    }
                    tally
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("closed-phase client thread panicked"))
            .collect()
    });
    (tallies, start.elapsed().as_secs_f64())
}

/// Open loop: `per_conn` requests per connection at a fixed total arrival
/// rate from `start` on, connection `c` taking every `c`-th slot of the
/// schedule. Each connection keeps one request in flight, so a slow reply
/// delays the sends behind it; every latency is measured from the request's
/// due time, which charges that delay to the requests that waited.
pub fn open_phase(
    clients: &mut [Client],
    conns: &[ConnScript],
    positions: &mut [usize],
    rate_rps: f64,
    per_conn: usize,
    start: Instant,
) -> Vec<Tally> {
    let n = clients.len() as f64;
    std::thread::scope(|s| {
        let threads: Vec<_> = clients
            .iter_mut()
            .zip(conns)
            .zip(positions.iter_mut())
            .enumerate()
            .map(|(c, ((client, conn), pos))| {
                s.spawn(move || {
                    let mut tally = Tally::with_capacity(per_conn);
                    tally.lateness.reserve_exact(per_conn);
                    for k in 0..per_conn {
                        if tally.dead {
                            break;
                        }
                        // Control frames (RESET) are not part of the
                        // schedule; send them as soon as they come up.
                        while conn.body[*pos % conn.body.len()].class == Class::Control {
                            let req = &conn.body[*pos % conn.body.len()];
                            *pos += 1;
                            let reply = client.request(&req.frame);
                            tally.record(req, reply, 0.0, 0.0, f64::INFINITY);
                        }
                        let index = *pos % conn.body.len();
                        let req = &conn.body[index];
                        *pos += 1;
                        let slot = (k as f64 * n + c as f64) / rate_rps;
                        let due = start + Duration::from_secs_f64(slot);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let sent = Instant::now();
                        let reply = client.request(&req.frame);
                        let done = Instant::now();
                        let from_due = done.duration_since(due).as_secs_f64() * 1e3;
                        tally
                            .lateness
                            .push(sent.duration_since(due).as_secs_f64() * 1e3);
                        if tally.record(req, reply, slot, from_due, f64::INFINITY)
                            && req.class == Class::Write
                        {
                            tally.acked.push(index);
                        }
                    }
                    tally
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("open-phase client thread panicked"))
            .collect()
    })
}

/// After drain: time `Store::open` on the data directory (median of
/// `opens`), then compare the recovered store row by row with the seed image
/// plus every acknowledged write. Returns the open times in ms and the
/// number of rows that differ.
pub fn check_durability(
    w: &Workload,
    dir: &Path,
    acked: &[Vec<usize>],
    opens: usize,
) -> Result<(Vec<f64>, u64), String> {
    let mut times = Vec::with_capacity(opens);
    let mut store = None;
    for _ in 0..opens.max(1) {
        drop(store.take());
        let t = Instant::now();
        let opened = Store::open(dir).map_err(|e| format!("reopen {}: {e}", dir.display()))?;
        times.push(t.elapsed().as_secs_f64() * 1e3);
        store = Some(opened);
    }
    let store = store.expect("opened at least once");
    let mut want = sales_rows(&w.db);
    for (conn, indices) in w.conns.iter().zip(acked) {
        for &i in indices {
            match &conn.body[i].effect {
                Some(Effect::Put(row)) => {
                    let id = match row[0] {
                        nli_core::Value::Int(id) => id,
                        _ => unreachable!("sales ids are ints"),
                    };
                    want.insert(id, row.iter().map(nli_core::Value::canonical).collect());
                }
                Some(Effect::Delete(id)) => {
                    want.remove(id);
                }
                None => {}
            }
        }
    }
    let got = sales_rows(store.db());
    let mut keys: BTreeMap<i64, ()> = want.keys().map(|&k| (k, ())).collect();
    keys.extend(got.keys().map(|&k| (k, ())));
    let mut mismatched = keys.keys().filter(|k| want.get(k) != got.get(k)).count() as u64;
    // Tables no connection writes must come back as they were seeded.
    for (ti, t) in w.db.schema.tables.iter().enumerate() {
        if t.name != "sales" && store.db().rows(ti) != w.db.rows(ti) {
            mismatched += 1;
        }
    }
    Ok((times, mismatched))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Expect, Request};
    use nli_server::ExecGate;

    fn ping() -> Request {
        Request {
            frame: "PING".to_string(),
            class: Class::Read,
            expect: Arc::new(Expect::Lines(vec!["OK pong".to_string()])),
            effect: None,
        }
    }

    /// Closing the executor gate stalls one batched statement; the open
    /// loop must charge that stall to every request scheduled behind it on
    /// the connection, not only to the one that hit it.
    #[test]
    fn a_stall_is_counted_against_the_requests_queued_behind_it() {
        let db = Arc::new(nli_bench::baseline::baseline_db());
        let gate = ExecGate::new();
        let mut cfg = ServerConfig::new(db);
        cfg.exec_gate = Some(gate.clone());
        let handle = start(cfg).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        client.expect("HELLO nli/1", "OK nli/1 ready").unwrap();
        client.expect("TENANT t", "OK tenant t").unwrap();
        let count = Request {
            frame: "SQL SELECT COUNT(*) FROM products".to_string(),
            class: Class::Read,
            expect: Arc::new(Expect::Lines(vec![
                "OK table 1 1".to_string(),
                "COL count(*)".to_string(),
                "ROW 200".to_string(),
                "END".to_string(),
            ])),
            effect: None,
        };
        // The statement goes first; the pings behind it never touch the
        // executor, so any time they lose is time spent waiting their turn.
        let body: Vec<Request> = std::iter::once(count)
            .chain((0..9).map(|_| ping()))
            .collect();
        let conns = vec![ConnScript {
            setup: Vec::new(),
            warmup: Vec::new(),
            body,
        }];
        const STALL: Duration = Duration::from_millis(300);
        const RATE: f64 = 100.0; // one request due every 10 ms
        gate.close();
        let opener = std::thread::spawn(move || {
            std::thread::sleep(STALL);
            gate.open();
        });
        let mut clients = vec![client];
        let start = Instant::now() + Duration::from_millis(20);
        let tally = open_phase(&mut clients, &conns, &mut [0], RATE, 10, start).remove(0);
        opener.join().unwrap();
        handle.shutdown();
        assert_eq!(
            (tally.attempted, tally.failed),
            (10, 0),
            "{:?}",
            tally.examples
        );
        let stall_ms = STALL.as_secs_f64() * 1e3;
        // The gate closed before the first request was due (20 ms after the
        // phase began), so it holds that request for about STALL - 20 ms.
        let from_due: Vec<f64> = tally.samples.iter().map(|s| s.ms).collect();
        assert!(from_due[0] >= stall_ms - 50.0, "{from_due:?}");
        for k in 1..10 {
            let due_ms = k as f64 * 1e3 / RATE;
            // Every later ping was due while the statement was stalled, so
            // it was sent late, and its latency counts from its due time.
            assert!(
                tally.lateness[k] >= stall_ms - 50.0 - due_ms,
                "{:?}",
                tally.lateness
            );
            assert!(from_due[k] >= tally.lateness[k], "{from_due:?}");
        }
    }
}
