//! Loopback benchmark of the serving stack.
//!
//! ```text
//! loopbench --workload <census_wire|engine_route_sort|mixed_fleet>
//!           --seed <n> --seconds <s> --trace <0|1> [--repeat <k>]
//! ```
//!
//! `--trace 0` binds a `NetServer` with the shipped defaults on loopback,
//! measures set-up, warms every clique size, drives the workload through
//! `CcClient` connections for `--seconds`, checks every reply and prints
//! the end-to-end metrics. `--trace 1` replays the same inputs through
//! each layer's public functions and prints the per-layer metrics.
//! `--repeat k` runs the untraced benchmark `k` times on seeds
//! `seed, seed + 1, …` in child processes and prints each metric's
//! spread. The last line of standard output is always one JSON object.

mod check;
mod drive;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use cc_net::{CcClient, NetServer, NetServerConfig};
use cc_sim::ExecMode;

use check::{Rounds, Tally};
use drive::Stop;
use trace::Metric;
use workload::Workload;

/// Set-ups measured per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Switches that select a non-default path; a run under any of them
/// would not measure the shipped configuration.
const OVERRIDES: [&str; 3] = ["CC_REACTOR", "CC_RADIX", "CC_OBS"];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: Option<u32>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut repeat = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            "--repeat" => repeat = Some(u32::try_from(number()?.clamp(1, 100)).expect("clamped")),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        repeat,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("loopbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("meta {}", metadata(&args));
    let set: Vec<&str> = OVERRIDES
        .into_iter()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!("loopbench: {set:?} set; unset them to measure the shipped configuration");
        return ExitCode::from(3);
    }
    if let Some(k) = args.repeat {
        return steadiness(&args, k);
    }
    let (metrics, tally) = if args.trace {
        let (metrics, tally, path) = trace::run(args.workload, args.seed);
        println!("spans {}", path.display());
        (metrics, tally)
    } else {
        end_to_end(args.workload, args.seed, args.seconds)
    };
    println!("{}", result_json(&tally, &metrics));
    ExitCode::SUCCESS
}

/// Run metadata: the host, the resolved serving configuration and the
/// override switches' values.
fn metadata(args: &Args) -> String {
    let config = NetServerConfig::default();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers: Vec<String> = args
        .workload
        .sizes()
        .iter()
        .map(|&n| format!("\"{n}\": {}", ExecMode::Auto.worker_threads(n)))
        .collect();
    let env: Vec<String> = OVERRIDES
        .iter()
        .map(|v| match std::env::var(v) {
            Ok(value) => format!("\"{v}\": \"{}\"", value.escape_default()),
            Err(_) => format!("\"{v}\": null"),
        })
        .collect();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"nproc\": {nproc}, \"reactor_backend\": \"{:?}\", \
         \"reactor_threads\": {}, \"shards\": {}, \"connections\": {}, \
         \"distinct_inputs\": {}, \"worker_threads\": {{{}}}, {}}}",
        args.workload.name(),
        args.seed,
        config.resolved_reactor_backend(),
        config.reactor_threads(),
        config.fleet().shards(),
        args.workload.connections(),
        args.workload.schedule().len(),
        workers.join(", "),
        env.join(", ")
    )
}

/// The untraced run: set-up, warm-up, then the timed closed loop.
fn end_to_end(workload: Workload, seed: u64, seconds: u64) -> (Vec<Metric>, Tally) {
    let rss_before = status_mib("VmRSS:");
    let pool = workload.prepare(seed);
    eprintln!(
        "prepared {} inputs and their answers: resident memory {:.1} -> {:.1} MiB",
        pool.len(),
        rss_before,
        status_mib("VmRSS:")
    );
    let rounds = Rounds::default();
    let mut tally = Tally::default();

    // Set-up: bind plus the first (cold) request on each clique size,
    // on a fresh server each time; the last one serves the run.
    let cold = drive::first_of_each_size(&pool);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut server: Option<NetServer> = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = server.take() {
            old.shutdown();
        }
        let start = Instant::now();
        let fresh = drive::bind();
        let mut client = CcClient::connect(fresh.local_addr()).expect("connect");
        drive::call_each(&mut client, &pool, &cold, &mut tally, &rounds);
        setups.push(start.elapsed().as_secs_f64());
        server = Some(fresh);
    }
    let server = server.expect("at least one set-up");

    let mut client = CcClient::connect(server.local_addr()).expect("connect");
    drive::call_each(
        &mut client,
        &pool,
        &drive::first_of_each_kind(&pool),
        &mut tally,
        &rounds,
    );
    drop(client);

    let cpu0 = cpu_seconds();
    let run = drive::over_tcp(
        server.local_addr(),
        workload,
        &pool,
        Stop::After(Duration::from_secs(seconds)),
        &rounds,
    );
    server.shutdown();
    tally.absorb(&run.tally);

    let mut latencies: Vec<f64> = run
        .exchanges
        .iter()
        .map(|x| (x.end - x.start).as_secs_f64() * 1e3)
        .collect();
    latencies.sort_by(f64::total_cmp);
    let elapsed = match (run.start, run.end) {
        (Some(start), Some(end)) => (end - start).as_secs_f64(),
        _ => f64::INFINITY,
    };
    // The tail is printed but not reported: on a shared host it swings
    // with the host's steal time by more than any bound could absorb.
    eprintln!(
        "{} replies in {elapsed:.3} s, {:.3} s of process CPU; latency p90 {:.4} ms",
        latencies.len(),
        cpu_seconds() - cpu0,
        nearest_rank(&latencies, 0.90)
    );
    let metrics = vec![
        (
            "throughput_rps",
            "1/s",
            run.exchanges.len() as f64 / elapsed,
        ),
        ("latency_p50_ms", "ms", nearest_rank(&latencies, 0.50)),
        ("setup_s", "s", median(&mut setups)),
        ("peak_rss_mb", "MiB", status_mib("VmHWM:")),
    ];
    (metrics, tally)
}

/// The `p` quantile of sorted samples by the nearest-rank rule.
fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// A memory line of this process's status (`VmHWM:` is the peak
/// resident set, `VmRSS:` the current one) in MiB. The process hosts
/// the server, the clients and the prepared inputs alike.
fn status_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// User plus system CPU time of this process so far, from
/// `/proc/self/stat` (clock ticks of 10 ms).
fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
            let ticks = |i: usize| fields.get(i)?.parse::<f64>().ok();
            Some((ticks(11)? + ticks(12)?) / 100.0)
        })
        .unwrap_or(f64::NAN)
}

fn result_json(tally: &Tally, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() {
            format!("{value}")
        } else {
            "null".to_owned()
        };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    let correct = tally.failed == 0 && metrics.iter().all(|m| m.2.is_finite());
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        tally.attempted, tally.failed
    )
}

/// Runs the untraced benchmark `k` times, each in its own process on its
/// own seed, and prints every metric's median, quartiles, quartile
/// spread as a share of the median, and max/min ratio.
fn steadiness(args: &Args, k: u32) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable");
    let mut runs: Vec<Vec<(String, f64)>> = Vec::new();
    let mut failed = 0u64;
    for i in 0..u64::from(k) {
        let seed = args.seed + i;
        let out = std::process::Command::new(&exe)
            .args(["--workload", args.workload.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", "0"])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("run the benchmark");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or_default().to_owned();
        println!("seed {seed}: {last}");
        if !out.status.success() || !last.contains("\"correct\": true") {
            failed += 1;
        }
        runs.push(parse_metrics(&last));
    }
    let mut summary = String::new();
    let names: Vec<String> = runs
        .first()
        .map_or(Vec::new(), |r| r.iter().map(|m| m.0.clone()).collect());
    for name in &names {
        let mut values: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.iter().find(|m| &m.0 == name).map(|m| m.1))
            .collect();
        values.sort_by(f64::total_cmp);
        let (q1, med, q3) = quartiles(&values);
        let spread = (q3 - q1) / med;
        let ratio = values[values.len() - 1] / values[0];
        println!(
            "{name:<16} median {med:>12.4}  q1 {q1:>12.4}  q3 {q3:>12.4}  iqr/median {spread:.4}  max/min {ratio:.4}"
        );
        let sep = if summary.is_empty() { "" } else { ", " };
        let _ = write!(
            summary,
            "{sep}\"{name}\": {{\"median\": {med}, \"q1\": {q1}, \"q3\": {q3}, \"iqr_share\": {spread}, \"max_min\": {ratio}}}"
        );
    }
    println!(
        "{{\"workload\": \"{}\", \"runs\": {k}, \"failed_runs\": {failed}, \"spread\": {{{summary}}}}}",
        args.workload.name()
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the exclusive method), for sorted `values`.
fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let len = sorted.len();
    if len < 2 {
        let v = sorted.first().copied().unwrap_or(f64::NAN);
        return (v, v, v);
    }
    let m = len + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Reads `"name": {"value": v` pairs back out of a result line.
fn parse_metrics(line: &str) -> Vec<(String, f64)> {
    let Some(body) = line.split("\"metrics\": {").nth(1) else {
        return Vec::new();
    };
    body.split("}, ")
        .filter_map(|entry| {
            let (name, rest) = entry
                .trim_start_matches('{')
                .split_once("\": {\"value\": ")?;
            let value = rest.split(',').next()?.parse().ok()?;
            Some((name.trim_start_matches('"').to_owned(), value))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
    }

    #[test]
    fn result_lines_parse_back() {
        let tally = Tally {
            attempted: 3,
            failed: 0,
        };
        let line = result_json(&tally, &[("a_ms", "ms", 1.25), ("b", "1/s", 2.0)]);
        assert_eq!(
            parse_metrics(&line),
            vec![("a_ms".to_owned(), 1.25), ("b".to_owned(), 2.0)]
        );
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
    }
}
