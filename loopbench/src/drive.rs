//! The closed-loop load generator, over TCP or the in-process fleet.
//!
//! Each connection is one client thread with one request in flight: it
//! submits the next only when a reply comes back, so the connection
//! count sets the load, not a send rate.

use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use cc_core::Outcome;
use cc_net::{CcClient, NetError, NetServer, NetServerConfig};
use cc_server::{ServerError, ServiceHandle};

use crate::check::{Rounds, Tally};
use crate::workload::{Prepared, Workload};

/// One request/reply exchange, submit to reply.
pub struct Exchange {
    pub slot: usize,
    pub start: Instant,
    pub end: Instant,
}

/// What a set of clients did.
#[derive(Default)]
pub struct Drive {
    pub exchanges: Vec<Exchange>,
    pub tally: Tally,
    pub start: Option<Instant>,
    pub end: Option<Instant>,
}

/// When the clients stop submitting.
#[derive(Clone, Copy)]
pub enum Stop {
    /// Run until this long after the common start.
    After(Duration),
    /// Each client submits its share of one pass over the pool.
    OnePass,
}

/// One client connection, over whichever transport.
trait Conn {
    /// Sends one request and blocks for its reply; returns when the
    /// request was handed over (after any copy the transport needs) and
    /// the reply: the outer error means the connection is gone, the
    /// inner one is the server's answer to this request.
    fn call(&mut self, prepared: &Prepared) -> (Instant, Result<Answer, String>);
}

/// The server's answer to one request.
type Answer = Result<Outcome, String>;

impl Conn for CcClient {
    fn call(&mut self, prepared: &Prepared) -> (Instant, Result<Answer, String>) {
        let start = Instant::now();
        let reply = match CcClient::call(self, &prepared.request) {
            Ok(outcome) => Ok(Ok(outcome)),
            Err(NetError::Server(e)) => Ok(Err(e.to_string())),
            Err(e) => Err(e.to_string()),
        };
        (start, reply)
    }
}

/// An in-process caller: `ServiceHandle::call` takes the request by
/// value, so the copy is made before the clock starts.
impl Conn for ServiceHandle {
    fn call(&mut self, prepared: &Prepared) -> (Instant, Result<Answer, String>) {
        let request = prepared.request.clone();
        let start = Instant::now();
        let reply = match ServiceHandle::call(self, request) {
            Ok(outcome) => Ok(Ok(outcome)),
            Err(ServerError::ShutDown) => Err(ServerError::ShutDown.to_string()),
            Err(e) => Ok(Err(e.to_string())),
        };
        (start, reply)
    }
}

/// Binds a server with the shipped defaults on an ephemeral loopback
/// port.
pub fn bind() -> NetServer {
    NetServer::bind("127.0.0.1:0", NetServerConfig::default()).expect("loopback bind")
}

/// Drives the workload's clients over TCP against `addr`.
pub fn over_tcp(
    addr: SocketAddr,
    workload: Workload,
    pool: &[Prepared],
    stop: Stop,
    rounds: &Rounds,
) -> Drive {
    drive(workload, pool, stop, rounds, || {
        CcClient::connect(addr).expect("connect to the loopback server")
    })
}

/// Drives the workload's clients through in-process `ServiceHandle`s.
pub fn in_process(
    handle: &ServiceHandle,
    workload: Workload,
    pool: &[Prepared],
    stop: Stop,
    rounds: &Rounds,
) -> Drive {
    drive(workload, pool, stop, rounds, || handle.clone())
}

fn drive<C: Conn>(
    workload: Workload,
    pool: &[Prepared],
    stop: Stop,
    rounds: &Rounds,
    connect: impl Fn() -> C + Sync,
) -> Drive {
    let conns = workload.connections();
    let ready = Barrier::new(conns);
    let runs: Vec<Drive> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..conns)
            .map(|t| {
                let (ready, connect) = (&ready, &connect);
                s.spawn(move || {
                    let mut conn = connect();
                    ready.wait();
                    client_loop(&mut conn, t, conns, pool, stop, rounds)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = Drive::default();
    for run in runs {
        all.start = match (all.start, run.start) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        all.end = all.end.max(run.end);
        all.exchanges.extend(run.exchanges);
        all.tally.absorb(&run.tally);
    }
    all
}

/// Client `t` of `conns` takes pool slots `t, t + conns, …`, cycling,
/// one request at a time.
fn client_loop<C: Conn>(
    conn: &mut C,
    t: usize,
    conns: usize,
    pool: &[Prepared],
    stop: Stop,
    rounds: &Rounds,
) -> Drive {
    let share = (pool.len() + conns - 1 - t) / conns;
    let start = Instant::now();
    let mut run = Drive {
        start: Some(start),
        ..Drive::default()
    };
    for k in 0.. {
        let more = match stop {
            Stop::After(d) => start.elapsed() < d,
            Stop::OnePass => k < share,
        };
        if !more {
            break;
        }
        let slot = (t + k * conns) % pool.len();
        let p = &pool[slot];
        let (sent, reply) = conn.call(p);
        let end = Instant::now();
        let label = format!("slot {slot} (n = {})", p.request.n());
        let answer = reply
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|a| a.as_ref().map_err(Clone::clone));
        run.tally
            .record(&label, p.entry, &p.expected, answer, rounds);
        if reply.is_err() {
            // The connection is gone: nothing more to measure on it.
            break;
        }
        run.exchanges.push(Exchange {
            slot,
            start: sent,
            end,
        });
        run.end = Some(end);
    }
    run
}

/// The first pool slot of each clique size: its cold request.
pub fn first_of_each_size(pool: &[Prepared]) -> Vec<usize> {
    first_slots(pool, |p| p.request.n())
}

/// The first pool slot of every distinct `(entry, size)` pair: one
/// request each warms every session and code path.
pub fn first_of_each_kind(pool: &[Prepared]) -> Vec<usize> {
    first_slots(pool, |p| (Some(p.entry), p.request.n()))
}

fn first_slots<K: PartialEq>(pool: &[Prepared], key: impl Fn(&Prepared) -> K) -> Vec<usize> {
    let mut seen = Vec::new();
    let mut slots = Vec::new();
    for (slot, p) in pool.iter().enumerate() {
        let k = key(p);
        if !seen.contains(&k) {
            seen.push(k);
            slots.push(slot);
        }
    }
    slots
}

/// Calls `slots` one at a time on `client`, checking every reply.
pub fn call_each(
    client: &mut CcClient,
    pool: &[Prepared],
    slots: &[usize],
    tally: &mut Tally,
    rounds: &Rounds,
) {
    for &slot in slots {
        let p = &pool[slot];
        let reply = client.call(&p.request).map_err(|e| e.to_string());
        tally.record(
            &format!("warm-up slot {slot}"),
            p.entry,
            &p.expected,
            reply.as_ref().map_err(|e| e.clone()),
            rounds,
        );
    }
}
