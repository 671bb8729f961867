//! The traced run: the workload's request pool replayed through each
//! layer's public functions, one span per call the benchmark makes into
//! a layer, every per-layer metric derived from the spans (plus the
//! server's own stats snapshot for the stages inside the server).

use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use cc_coloring::{color_exact, pad_demands_to_regular, verify_proper, BipartiteMultigraph};
use cc_core::obs::Snapshot;
use cc_core::routing::RoutingInstance;
use cc_core::{CliqueService, Outcome};
use cc_net::codec::{self, Frame};
use cc_net::CcClient;
use cc_server::{QueryServer, Request, ServerConfig, ServiceHandle};
use cc_sim::{CliqueSession, CliqueSpec, Ctx, Inbox, NodeMachine, Step};
use cc_workloads::{EntryPoint, ENTRY_POINTS};

use crate::check::{Rounds, Tally};
use crate::drive::{self, Stop};
use crate::workload::{prepare_one, slot_seed, Prepared, Workload};

/// One call into a layer: its name, the request (or clique size) it
/// served, the phase span that caused it, its interval, and a count
/// measured at the same boundary (bytes, messages or keys).
struct Span {
    name: &'static str,
    req: u64,
    parent: Option<usize>,
    start: Instant,
    end: Instant,
    count: u64,
}

/// Spans kept in memory until the run ends.
#[derive(Default)]
struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    fn open(&mut self, name: &'static str) -> usize {
        let now = Instant::now();
        self.push(name, 0, None, now, now, 0)
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end = Instant::now();
    }

    fn push(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
        count: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            req,
            parent,
            start,
            end,
            count,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a leaf span; `f` returns its value and the span's
    /// count.
    fn leaf<R>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: usize,
        f: impl FnOnce() -> (R, u64),
    ) -> R {
        let start = Instant::now();
        let (value, count) = f();
        let end = Instant::now();
        self.push(name, req, Some(parent), start, end, count);
        value
    }

    /// Each span's self time: its duration minus the part of its interval
    /// its child spans cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(Instant, Instant)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort();
                let mut covered = 0u128;
                let mut reach = s.start;
                for (a, b) in kids {
                    let a = a.max(reach);
                    if b > a {
                        covered += (b - a).as_nanos();
                        reach = b;
                    }
                }
                ((s.end - s.start).as_nanos().saturating_sub(covered)) as u64
            })
            .collect()
    }
}

/// Aggregates over the spans of one name.
struct Totals {
    spans: u64,
    self_ns: u64,
    count: u64,
}

impl Totals {
    fn mean_ns(&self) -> f64 {
        self.self_ns as f64 / self.spans.max(1) as f64
    }
}

struct Trace {
    tracer: Tracer,
    self_ns: Vec<u64>,
}

impl Trace {
    fn totals(&self, keep: impl Fn(&Span) -> bool) -> Totals {
        let mut t = Totals {
            spans: 0,
            self_ns: 0,
            count: 0,
        };
        for (s, &ns) in self.tracer.spans.iter().zip(&self.self_ns) {
            if keep(s) {
                t.spans += 1;
                t.self_ns += ns;
                t.count += s.count;
            }
        }
        t
    }

    fn named(&self, name: &str) -> Totals {
        self.totals(|s| s.name == name)
    }

    /// Writes every span as one tab-separated line.
    fn write(&self, path: &PathBuf) -> std::io::Result<()> {
        let epoch = self.tracer.spans.iter().map(|s| s.start).min();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "id\tparent\tname\treq\tstart_ns\tend_ns\tself_ns\tcount"
        )?;
        for (id, (s, ns)) in self.tracer.spans.iter().zip(&self.self_ns).enumerate() {
            let at = |t: Instant| (t - epoch.expect("spans exist")).as_nanos();
            let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}\t{ns}\t{}",
                s.name,
                s.req,
                at(s.start),
                at(s.end),
                s.count
            )?;
        }
        out.flush()
    }
}

/// The per-entry service span names.
fn service_span(entry: EntryPoint) -> &'static str {
    match entry {
        EntryPoint::Route => "service.route",
        EntryPoint::RouteOptimized => "service.route_optimized",
        EntryPoint::Sort => "service.sort",
        EntryPoint::GlobalIndices => "service.global_indices",
        EntryPoint::Select => "service.select",
        EntryPoint::Mode => "service.mode",
        EntryPoint::SmallKeyCensus => "service.small_key_census",
    }
}

/// Requests drawn per entry point the workload does not carry, so every
/// traced run reports every `service.*` metric.
const PROBES_PER_ENTRY: usize = 4;

/// Stats round trips timed for `obs.stats_probe_us`.
const STATS_PROBES: u64 = 20;

/// Broadcast rounds and clique size of the delivery-only machine.
const ALL_TO_ALL_ROUNDS: u32 = 8;
const ALL_TO_ALL_N: usize = 128;

/// Timed repetitions of the engine-level probes.
const ENGINE_REPS: u64 = 5;

/// One metric line: name, unit, value.
pub type Metric = (&'static str, &'static str, f64);

/// Replays `workload`'s pool through every layer and returns the
/// per-layer metrics, the reply tally, and the span file written.
pub fn run(workload: Workload, seed: u64) -> (Vec<Metric>, Tally, PathBuf) {
    let mut r = Replay {
        workload,
        seed,
        pool: workload.prepare(seed),
        rounds: Rounds::default(),
        tally: Tally::default(),
        t: Tracer::default(),
    };
    let tcp = r.tcp_phase();
    let fleet = r.fleet_phase();
    let direct = std::thread::scope(|scope| {
        // Served on a thread of its own, as a shard worker serves: on
        // the main thread the same calls read 20-40 % slower.
        scope
            .spawn(|| r.service_phase(&fleet.handle()))
            .join()
            .expect("service thread")
    });
    fleet.shutdown();
    r.codec_phase(&direct.outcomes);
    r.sim_phase();
    r.coloring_phase(&direct.probe_routes);

    let trace = Trace {
        self_ns: r.t.self_ns(),
        tracer: r.t,
    };
    let path = span_path(workload, seed);
    if let Err(e) = trace.write(&path) {
        eprintln!("could not write spans to {}: {e}", path.display());
    }
    let metrics = metrics(&trace, &tcp, &direct, r.pool.len() as u64);
    (metrics, r.tally, path)
}

/// The replay's inputs and what it has recorded so far.
struct Replay {
    workload: Workload,
    seed: u64,
    pool: Vec<Prepared>,
    rounds: Rounds,
    tally: Tally,
    t: Tracer,
}

/// What the TCP phase read from the server itself.
struct ServerSide {
    before: Snapshot,
    after: Snapshot,
    fleet: cc_server::FleetStats,
}

/// What the direct-service phase leaves for the later phases.
struct Direct {
    /// The stream's checked outcomes, for the reply codec.
    outcomes: Vec<Outcome>,
    /// The paper's currencies over the stream.
    sim: SimTotals,
    /// The id of the phase span the stream's service spans hang off.
    phase: usize,
    /// Routing instances drawn for entry points the workload lacks.
    probe_routes: Vec<RoutingInstance>,
}

impl Replay {
    /// One pass over the pool through `CcClient`s at the workload's
    /// connection count, bracketed by two server stats snapshots.
    fn tcp_phase(&mut self) -> ServerSide {
        let phase = self.t.open("phase.tcp");
        let server = drive::bind();
        let mut probe = CcClient::connect(server.local_addr()).expect("connect");
        let warm = drive::first_of_each_kind(&self.pool);
        drive::call_each(&mut probe, &self.pool, &warm, &mut self.tally, &self.rounds);
        let before = probe.stats().expect("stats probe");
        let d = drive::over_tcp(
            server.local_addr(),
            self.workload,
            &self.pool,
            Stop::OnePass,
            &self.rounds,
        );
        self.tally.absorb(&d.tally);
        let after = probe.stats().expect("stats probe");
        for x in &d.exchanges {
            self.t.push(
                "net.tcp_call",
                x.slot as u64,
                Some(phase),
                x.start,
                x.end,
                0,
            );
        }
        for i in 0..STATS_PROBES {
            self.t.leaf("obs.stats_probe", i, phase, || {
                (probe.stats().expect("stats probe"), 0)
            });
        }
        let fleet = server.stats().fleet;
        drop(probe);
        server.shutdown();
        self.t.close(phase);
        ServerSide {
            before,
            after,
            fleet,
        }
    }

    /// The same pass through in-process `ServiceHandle`s at the same
    /// concurrency; the fleet stays up for the service phase.
    fn fleet_phase(&mut self) -> QueryServer {
        let phase = self.t.open("phase.fleet");
        let fleet = QueryServer::new(ServerConfig::default()).expect("fleet");
        let handle = fleet.handle();
        for slot in drive::first_of_each_kind(&self.pool) {
            self.fleet_call(&handle, slot, None);
        }
        let d = drive::in_process(
            &handle,
            self.workload,
            &self.pool,
            Stop::OnePass,
            &self.rounds,
        );
        self.tally.absorb(&d.tally);
        for x in &d.exchanges {
            self.t
                .push("fleet.call", x.slot as u64, Some(phase), x.start, x.end, 0);
        }
        self.t.close(phase);
        fleet
    }

    /// One checked `ServiceHandle::call`; a `fleet.call_seq` span under
    /// `phase` when one is given.
    fn fleet_call(&mut self, handle: &ServiceHandle, slot: usize, phase: Option<usize>) {
        let p = &self.pool[slot];
        let request = p.request.clone();
        let start = Instant::now();
        let reply = handle.call(request).map_err(|e| e.to_string());
        let end = Instant::now();
        if phase.is_some() {
            self.t
                .push("fleet.call_seq", slot as u64, phase, start, end, 0);
        }
        let reply = reply.as_ref().map_err(Clone::clone);
        self.tally
            .record(&"fleet", p.entry, &p.expected, reply, &self.rounds);
    }

    /// Direct `Request::serve_on` calls: the cold start of each size, a
    /// warm-up pass, then the stream with each request served both
    /// through `fleet` and directly, back to back, so the two spans of a
    /// request differ by the fleet's dispatch alone; and a few small
    /// requests of each entry point the workload lacks.
    fn service_phase(&mut self, fleet: &ServiceHandle) -> Direct {
        let phase = self.t.open("phase.service");
        let mut services: Vec<CliqueService> = Vec::new();
        for slot in drive::first_of_each_size(&self.pool) {
            let p = &self.pool[slot];
            let n = p.request.n();
            let (service, reply) = self.t.leaf("service.cold_start", n as u64, phase, || {
                let mut service = CliqueService::new(n).expect("service");
                let reply = p.request.serve_on(&mut service);
                ((service, reply), 0)
            });
            let reply = reply.as_ref().map_err(|e| e.to_string());
            self.tally
                .record(&"cold start", p.entry, &p.expected, reply, &self.rounds);
            services.push(service);
        }
        for slot in 0..self.pool.len() {
            let p = &self.pool[slot];
            let reply = p
                .request
                .serve_on(service_for(&mut services, p.request.n()));
            let reply = reply.as_ref().map_err(|e| e.to_string());
            self.tally.record(
                &"service warm-up",
                p.entry,
                &p.expected,
                reply,
                &self.rounds,
            );
        }
        let mut outcomes = Vec::with_capacity(self.pool.len());
        let mut sim = SimTotals::default();
        for slot in 0..self.pool.len() {
            // Alternate which side of the pair runs first, so neither
            // pays for the other's cache footprint more often.
            if slot % 2 == 0 {
                self.fleet_call(fleet, slot, Some(phase));
            }
            let p = &self.pool[slot];
            let service = service_for(&mut services, p.request.n());
            let reply = serve(&mut self.t, phase, slot as u64, p, service);
            let verdict = reply.as_ref().map_err(|e| e.to_string());
            if self
                .tally
                .record(&"service", p.entry, &p.expected, verdict, &self.rounds)
            {
                let outcome = reply.expect("checked");
                sim.add(&outcome);
                outcomes.push(outcome);
            }
            if slot % 2 == 1 {
                self.fleet_call(fleet, slot, Some(phase));
            }
        }
        drop(services);
        self.t.close(phase);

        let probe_phase = self.t.open("phase.probe");
        let mut probe_routes = Vec::new();
        for (k, entry) in ENTRY_POINTS.into_iter().enumerate() {
            if self.pool.iter().any(|p| p.entry == entry) {
                continue;
            }
            let n = if entry == EntryPoint::SmallKeyCensus {
                128
            } else {
                16
            };
            let probes: Vec<Prepared> = (0..PROBES_PER_ENTRY)
                .map(|i| {
                    let slot = (1 << 32) + (k * PROBES_PER_ENTRY + i) as u64;
                    prepare_one(entry, n, slot_seed(self.seed, slot))
                })
                .collect();
            let mut service = CliqueService::new(n).expect("service");
            let _ = probes[0].request.serve_on(&mut service);
            for (i, p) in probes.iter().enumerate() {
                let reply = serve(&mut self.t, probe_phase, i as u64, p, &mut service);
                let reply = reply.as_ref().map_err(|e| e.to_string());
                self.tally
                    .record(&"probe", p.entry, &p.expected, reply, &self.rounds);
            }
            probe_routes.extend(probes.into_iter().filter_map(|p| match p.request {
                Request::Route(inst) | Request::RouteOptimized(inst) => Some(inst),
                _ => None,
            }));
        }
        self.t.close(probe_phase);
        Direct {
            outcomes,
            sim,
            phase,
            probe_routes,
        }
    }

    /// Encode and decode of every request and every reply, three times.
    fn codec_phase(&mut self, outcomes: &[Outcome]) {
        let phase = self.t.open("phase.codec");
        for _ in 0..3 {
            for (slot, p) in self.pool.iter().enumerate() {
                let id = slot as u64;
                let bytes = self.t.leaf("codec.encode_request", id, phase, || {
                    let b = codec::encode_request(id, &p.request);
                    let len = b.len() as u64;
                    (b, len)
                });
                let frame = self.t.leaf("codec.decode_request", id, phase, || {
                    (codec::decode_frame(&bytes), 0)
                });
                if !matches!(&frame, Ok(Frame::Request { request, .. }) if *request == p.request) {
                    layer_failed(&mut self.tally, "request codec", slot);
                }
            }
            for (slot, outcome) in outcomes.iter().enumerate() {
                let id = slot as u64;
                let result = Ok(outcome.clone());
                let bytes = self.t.leaf("codec.encode_reply", id, phase, || {
                    let b = codec::encode_reply(id, &result);
                    let len = b.len() as u64;
                    (b, len)
                });
                let frame = self.t.leaf("codec.decode_reply", id, phase, || {
                    (codec::decode_frame(&bytes), 0)
                });
                if !matches!(&frame, Ok(Frame::Reply { result: Ok(o), .. }) if o == outcome) {
                    layer_failed(&mut self.tally, "reply codec", slot);
                }
            }
        }
        self.t.close(phase);
    }

    /// Engine-level probes: delivery alone, and the radix sort on n²
    /// keys for the workload's largest n. Repetition 0 warms.
    fn sim_phase(&mut self) {
        let phase = self.t.open("phase.sim");
        let mut session = CliqueSession::new();
        let spec = CliqueSpec::new(ALL_TO_ALL_N).expect("spec");
        for rep in 0..=ENGINE_REPS {
            let report = self.t.leaf("sim.all_to_all", rep, phase, || {
                let report = session
                    .run_protocol(spec.clone(), |_| Broadcast {
                        left: ALL_TO_ALL_ROUNDS,
                    })
                    .expect("all-to-all run");
                let messages = report.metrics.total_messages();
                (report, messages)
            });
            if report.metrics.comm_rounds() != u64::from(ALL_TO_ALL_ROUNDS) {
                layer_failed(&mut self.tally, "all-to-all run", rep as usize);
            }
        }
        let n = self.workload.sizes().into_iter().max().expect("sizes");
        let mut state = slot_seed(self.seed, 1 << 40);
        let keys: Vec<u64> = (0..n * n)
            .map(|_| {
                state = slot_seed(state, 1);
                state
            })
            .collect();
        for rep in 0..=ENGINE_REPS {
            let mut items = keys.clone();
            self.t.leaf("sim.radix_sort", rep, phase, || {
                session.sort_by_u64_key(&mut items, |&k| k);
                ((), items.len() as u64)
            });
            if !items.windows(2).all(|w| w[0] <= w[1]) {
                layer_failed(&mut self.tally, "radix sort", rep as usize);
            }
        }
        self.t.close(phase);
    }

    /// `color_exact` on each routing instance's padded demand graph: the
    /// stream's, or the probes' when the stream routes nothing.
    fn coloring_phase(&mut self, probe_routes: &[RoutingInstance]) {
        let phase = self.t.open("phase.coloring");
        let mut instances: Vec<&RoutingInstance> = self
            .pool
            .iter()
            .filter_map(|p| match &p.request {
                Request::Route(inst) | Request::RouteOptimized(inst) => Some(inst),
                _ => None,
            })
            .collect();
        if instances.is_empty() {
            instances = probe_routes.iter().collect();
        }
        for (i, inst) in instances.into_iter().enumerate() {
            let graph = padded_demand_graph(inst);
            let coloring = self.t.leaf("coloring.color_exact", i as u64, phase, || {
                let edges = graph.num_edges() as u64;
                (color_exact(&graph), edges)
            });
            if !matches!(coloring, Ok(c) if verify_proper(&graph, &c).is_ok()) {
                layer_failed(&mut self.tally, "edge coloring", i);
            }
        }
        self.t.close(phase);
    }
}

/// Every per-layer metric, from the spans, the server's snapshots and
/// the stream's outcomes.
fn metrics(trace: &Trace, server: &ServerSide, direct: &Direct, requests: u64) -> Vec<Metric> {
    let mean_us = |name: &str| trace.named(name).mean_ns() / 1e3;
    let mean_ms = |name: &str| trace.named(name).mean_ns() / 1e6;
    let per_unit = |t: Totals| t.self_ns as f64 / t.count.max(1) as f64;
    let mean_count_kb = |name: &str| {
        let t = trace.named(name);
        t.count as f64 / t.spans.max(1) as f64 / 1e3
    };
    // Engine probes skip repetition 0, which warms.
    let timed = |name: &'static str| trace.totals(move |s| s.name == name && s.req > 0);
    let delta = Delta {
        before: &server.before,
        after: &server.after,
    };
    let per_req = |v: u64| v as f64 / requests as f64;
    let stream = trace.totals(|s| {
        s.parent == Some(direct.phase)
            && s.name.starts_with("service.")
            && s.name != "service.cold_start"
    });
    let sim = &direct.sim;
    let served = sim.requests.max(1) as f64;

    let mut metrics: Vec<Metric> = vec![
        (
            "net.codec.decode_request_us",
            "us",
            mean_us("codec.decode_request"),
        ),
        (
            "net.codec.encode_request_us",
            "us",
            mean_us("codec.encode_request"),
        ),
        (
            "net.codec.encode_reply_us",
            "us",
            mean_us("codec.encode_reply"),
        ),
        (
            "net.codec.decode_reply_us",
            "us",
            mean_us("codec.decode_reply"),
        ),
        (
            "net.request_kb",
            "kB",
            mean_count_kb("codec.encode_request"),
        ),
        ("net.reply_kb", "kB", mean_count_kb("codec.encode_reply")),
        (
            "net.server_decode_ms",
            "ms",
            delta.mean_ns("net.decode_ns") / 1e6,
        ),
        (
            "net.server_write_ms",
            "ms",
            delta.mean_ns("net.write_ns") / 1e6,
        ),
        (
            "net.reactor.wakeups_per_req",
            "count",
            per_req(delta.counter("net.reactor.wakeups")),
        ),
        (
            "net.reactor.polls_per_req",
            "count",
            per_req(
                delta.counter("net.reactor.polls.epoll") + delta.counter("net.reactor.polls.poll"),
            ),
        ),
        (
            "net.reactor.loop_us",
            "us",
            delta.mean_ns("net.reactor.loop_ns") / 1e3,
        ),
        (
            "net.tax_ms",
            "ms",
            mean_ms("net.tcp_call") - mean_ms("fleet.call"),
        ),
        (
            "fleet.queue_wait_ms",
            "ms",
            delta.mean_ns("fleet.queue_wait_ns") / 1e6,
        ),
        (
            "fleet.session_run_ms",
            "ms",
            delta.mean_ns("fleet.session_run_ns") / 1e6,
        ),
        (
            "fleet.mean_batch_len",
            "count",
            server.fleet.mean_batch_len(),
        ),
        (
            "fleet.peak_queue_depth",
            "count",
            server.fleet.peak_queue_depth() as f64,
        ),
        (
            "fleet.dispatch_us",
            "us",
            (trace.named("fleet.call_seq").mean_ns() - stream.mean_ns()) / 1e3,
        ),
    ];
    for entry in ENTRY_POINTS {
        metrics.push((service_metric(entry), "ms", mean_ms(service_span(entry))));
    }
    metrics.extend([
        ("service.cold_start_ms", "ms", mean_ms("service.cold_start")),
        ("sim.rounds_per_req", "rounds", sim.rounds as f64 / served),
        (
            "sim.messages_per_req",
            "messages",
            sim.messages as f64 / served,
        ),
        ("sim.kbits_per_req", "kbit", sim.bits as f64 / served / 1e3),
        ("sim.max_edge_bits", "bits", sim.max_edge_bits as f64),
        ("sim.ns_per_message", "ns", per_unit(stream)),
        (
            "sim.all_to_all_ms",
            "ms",
            timed("sim.all_to_all").mean_ns() / 1e6,
        ),
        (
            "sim.radix_ns_per_key",
            "ns",
            per_unit(timed("sim.radix_sort")),
        ),
        (
            "coloring.color_exact_ms",
            "ms",
            mean_ms("coloring.color_exact"),
        ),
        ("obs.stats_probe_us", "us", mean_us("obs.stats_probe")),
    ]);
    metrics
}

/// A layer probe whose own output was wrong counts as a failed operation.
fn layer_failed(tally: &mut Tally, what: &str, index: usize) {
    tally.attempted += 1;
    tally.failed += 1;
    eprintln!("FAILED {what} #{index} came back wrong");
}

/// One warm `Request::serve_on`, as a `service.<entry>` span counting
/// the run's simulated messages.
fn serve(
    t: &mut Tracer,
    phase: usize,
    req: u64,
    p: &Prepared,
    service: &mut CliqueService,
) -> Result<Outcome, cc_core::CoreError> {
    t.leaf(service_span(p.entry), req, phase, || {
        let reply = p.request.serve_on(service);
        let messages = reply.as_ref().map_or(0, |o| o.metrics().total_messages());
        (reply, messages)
    })
}

fn service_for(services: &mut [CliqueService], n: usize) -> &mut CliqueService {
    services
        .iter_mut()
        .find(|s| s.n() == n)
        .expect("every size has a service")
}

fn service_metric(entry: EntryPoint) -> &'static str {
    match entry {
        EntryPoint::Route => "service.route_ms",
        EntryPoint::RouteOptimized => "service.route_optimized_ms",
        EntryPoint::Sort => "service.sort_ms",
        EntryPoint::GlobalIndices => "service.global_indices_ms",
        EntryPoint::Select => "service.select_ms",
        EntryPoint::Mode => "service.mode_ms",
        EntryPoint::SmallKeyCensus => "service.small_key_census_ms",
    }
}

/// The paper's currencies summed over the stream's outcomes.
#[derive(Default)]
struct SimTotals {
    requests: u64,
    rounds: u64,
    messages: u64,
    bits: u64,
    max_edge_bits: u64,
}

impl SimTotals {
    fn add(&mut self, outcome: &Outcome) {
        let m = outcome.metrics();
        self.requests += 1;
        self.rounds += m.comm_rounds();
        self.messages += m.total_messages();
        self.bits += m.total_bits();
        self.max_edge_bits = self.max_edge_bits.max(m.max_edge_bits());
    }
}

/// Every node broadcasts one word per round: n² messages a round and no
/// protocol computation, so a run prices delivery alone.
struct Broadcast {
    left: u32,
}

impl NodeMachine for Broadcast {
    type Msg = u64;
    type Output = u64;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        ctx.broadcast(1);
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &mut Inbox<u64>) -> Step<u64> {
        let sum: u64 = inbox.drain().map(|(_, m)| m).sum();
        self.left -= 1;
        if self.left == 0 {
            return Step::Done(sum);
        }
        ctx.broadcast(1);
        Step::Continue
    }
}

/// The instance's n × n demand matrix padded to a regular multigraph of
/// its maximum line sum, the shape the routers color.
fn padded_demand_graph(inst: &RoutingInstance) -> BipartiteMultigraph {
    let n = inst.n();
    let mut demands = vec![0u32; n * n];
    for (src, sends) in inst.all_sends().iter().enumerate() {
        for m in sends {
            demands[src * n + m.dst.index()] += 1;
        }
    }
    let line = |i: usize| {
        let row: u32 = demands[i * n..(i + 1) * n].iter().sum();
        let col: u32 = (0..n).map(|r| demands[r * n + i]).sum();
        row.max(col)
    };
    let degree = (0..n).map(line).max().unwrap_or(0);
    let extra = pad_demands_to_regular(n, n, &demands, degree).expect("line sums within degree");
    let padded: Vec<u32> = demands.iter().zip(&extra).map(|(a, b)| a + b).collect();
    BipartiteMultigraph::from_demands(n, n, &padded).expect("n × n shape")
}

/// Where the span file goes: `out/` beside the benchmark's manifest,
/// inside the checkout it was built from.
fn span_path(workload: Workload, seed: u64) -> PathBuf {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let _ = std::fs::create_dir_all(&dir);
    dir.join(format!("spans-{}-seed{seed}.tsv", workload.name()))
}

/// Differences between two server stats snapshots.
struct Delta<'a> {
    before: &'a Snapshot,
    after: &'a Snapshot,
}

impl Delta<'_> {
    fn counter(&self, name: &str) -> u64 {
        let get = |s: &Snapshot| s.counter(name).unwrap_or(0);
        get(self.after).saturating_sub(get(self.before))
    }

    /// The exact mean (sum over count) of the samples recorded between
    /// the two snapshots; never the power-of-two percentiles.
    fn mean_ns(&self, name: &str) -> f64 {
        let get = |s: &Snapshot| s.histogram(name).map_or((0, 0), |h| (h.sum, h.count()));
        let (s0, c0) = get(self.before);
        let (s1, c1) = get(self.after);
        s1.saturating_sub(s0) as f64 / c1.saturating_sub(c0).max(1) as f64
    }
}
