//! `ptsim loadgen`: the load-test harness for the simulation daemon.
//!
//! ```sh
//! # Spawn a 4-worker daemon, hammer it for 10 s, write reports/loadgen.json:
//! ptsim loadgen --spawn --workers 4 --conns 8 --duration 10 --mix cached
//!
//! # Against an already-running daemon, open-loop at 200 req/s:
//! ptsim loadgen --addr 127.0.0.1:8080 --rps 200 --duration 30 --mix mixed:20
//!
//! # CI smoke: spawn, one /healthz + one /v1/simulate, graceful shutdown:
//! ptsim loadgen --smoke
//! ```
//!
//! Without `--addr` it spawns `ptsim serve --port 0` from its own
//! executable. Defaults: 4 workers, queue depth 64, 32 MiB result cache for
//! the spawned daemon; 4 connections for 10 s, closed loop (`--rps 0`),
//! `--mix cached`, `--out reports/loadgen.json`. Exit code is 1 on
//! transport errors, simulation failures, or (in `--smoke` mode) any
//! deviation from the expected handshake.

use crate::cli::{Args, Error};
use ptsim_common::json::ToJson;
use ptsim_serve::client::HttpClient;
use ptsim_serve::loadgen::{self, LoadgenConfig, Mix};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::Duration;

struct Options {
    addr: Option<SocketAddr>,
    smoke: bool,
    workers: usize,
    queue_depth: usize,
    result_cache_mb: usize,
    conns: usize,
    duration_s: f64,
    rps: f64,
    mix: Mix,
    out: String,
}

/// A spawned `ptsim serve`, shut down gracefully on drop paths.
struct SpawnedServer {
    child: Child,
    addr: SocketAddr,
}

/// Re-executes this binary as `ptsim serve --port 0` and waits for the
/// address it announces.
fn spawn_server(
    workers: usize,
    queue_depth: usize,
    result_cache_mb: usize,
) -> Result<SpawnedServer, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(me)
        .args([
            "serve",
            "--port",
            "0",
            "--workers",
            &workers.to_string(),
            "--queue-depth",
            &queue_depth.to_string(),
            "--result-cache-mb",
            &result_cache_mb.to_string(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn ptsim serve: {e}"))?;
    let stdout = child.stdout.take().ok_or("no stdout from ptsim serve")?;
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        match lines.next() {
            Some(Ok(line)) => {
                println!("[ptsim serve] {line}");
                if let Some(rest) = line.strip_prefix("listening on http://") {
                    break rest.parse().map_err(|e| format!("bad server address: {e}"))?;
                }
            }
            _ => return Err("ptsim serve exited before announcing its address".into()),
        }
    };
    // Keep draining the child's stdout so it never blocks on a full pipe.
    std::thread::spawn(move || {
        for line in lines.map_while(Result::ok) {
            println!("[ptsim serve] {line}");
        }
    });
    Ok(SpawnedServer { child, addr })
}

fn shutdown_server(mut server: SpawnedServer) -> Result<(), String> {
    let mut client = HttpClient::new(server.addr);
    let resp = client.post("/admin/shutdown", "")?;
    if resp.status != 200 {
        return Err(format!("shutdown returned {}", resp.status));
    }
    drop(client);
    let status = server.child.wait().map_err(|e| format!("wait: {e}"))?;
    if !status.success() {
        return Err(format!("ptsim serve exited with {status}"));
    }
    Ok(())
}

fn smoke(addr: SocketAddr) -> Result<(), String> {
    let mut client = HttpClient::new(addr).with_timeout(Duration::from_secs(60));
    let health = client.get("/healthz")?;
    if health.status != 200 {
        return Err(format!("healthz returned {}", health.status));
    }
    let parsed = ptsim_common::json::parse_json(&health.body)
        .map_err(|e| format!("healthz body is not JSON: {e}"))?;
    if parsed.req_str("status").map_err(|e| e.to_string())? != "ok" {
        return Err(format!("healthz not ok: {}", health.body));
    }
    let sim = client.post("/v1/simulate", r#"{"model":{"kind":"gemm","n":16}}"#)?;
    if sim.status != 200 {
        return Err(format!("simulate returned {}: {}", sim.status, sim.body));
    }
    let report = ptsim_common::json::parse_json(&sim.body)
        .map_err(|e| format!("simulate body is not JSON: {e}"))?;
    let cycles = report
        .req("report")
        .and_then(|r| r.req_u64("total_cycles"))
        .map_err(|e| format!("simulate body shape: {e}"))?;
    if cycles == 0 {
        return Err("simulate reported zero cycles".into());
    }
    // /metrics speaks Prometheus text exposition; every line must be a
    // `# TYPE` comment or a `name[{labels}] value` sample, and at least one
    // histogram family (the per-endpoint latencies) must be present.
    let metrics = client.get("/metrics")?;
    if metrics.status != 200 {
        return Err(format!("metrics returned {}", metrics.status));
    }
    let mut saw_histogram = false;
    for line in metrics.body.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ptsim_") {
            saw_histogram |= rest.ends_with(" histogram");
            continue;
        }
        let mut parts = line.rsplitn(2, ' ');
        let value = parts.next().unwrap_or("");
        let name = parts.next().unwrap_or("");
        if !name.starts_with("ptsim_") || value.parse::<f64>().is_err() {
            return Err(format!("bad Prometheus sample line: {line:?}"));
        }
    }
    if !saw_histogram {
        return Err("no histogram family in /metrics".into());
    }
    // The structured view moved to /metrics.json; it must stay valid JSON.
    let metrics_json = client.get("/metrics.json")?;
    ptsim_common::json::parse_json(&metrics_json.body)
        .map_err(|e| format!("metrics.json body is not JSON: {e}"))?;
    println!("smoke: healthz ok, gemm(16) simulated in {cycles} cycles, metrics valid");
    Ok(())
}

fn run(args: &Options) -> Result<(), String> {
    let (addr, server) = match args.addr {
        Some(addr) => (addr, None),
        None => {
            let server = spawn_server(args.workers, args.queue_depth, args.result_cache_mb)?;
            (server.addr, Some(server))
        }
    };
    let result = if args.smoke {
        smoke(addr)
    } else {
        let cfg = LoadgenConfig {
            addr,
            conns: args.conns,
            duration: Duration::from_secs_f64(args.duration_s),
            rps: args.rps,
            mix: args.mix,
        };
        loadgen::run(&cfg).and_then(|report| {
            println!("{}", report.summary());
            if let Some(dir) = std::path::Path::new(&args.out).parent() {
                std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {dir:?}: {e}"))?;
            }
            std::fs::write(&args.out, report.to_json().render())
                .map_err(|e| format!("write {}: {e}", args.out))?;
            println!("wrote {}", args.out);
            if report.transport_errors > 0 {
                return Err(format!("{} transport errors", report.transport_errors));
            }
            if report.ok == 0 {
                return Err("no successful request".into());
            }
            Ok(())
        })
    };
    match server {
        Some(server) => {
            let shut = shutdown_server(server);
            result.and(shut)
        }
        None => result,
    }
}

pub fn loadgen(args: &mut Args) -> Result<ExitCode, Error> {
    let addr = args.value("--addr")?;
    args.flag("--spawn"); // spawning is what happens without --addr
    let opts = Options {
        addr,
        smoke: args.flag("--smoke"),
        workers: args.value("--workers")?.unwrap_or(4),
        queue_depth: args.value("--queue-depth")?.unwrap_or(64),
        result_cache_mb: args.value("--result-cache-mb")?.unwrap_or(32),
        conns: args.value("--conns")?.unwrap_or(4),
        duration_s: args.value("--duration")?.unwrap_or(10.0),
        rps: args.value("--rps")?.unwrap_or(0.0),
        mix: args.value_with("--mix", Mix::parse)?.unwrap_or(Mix::Cached),
        out: args.value("--out")?.unwrap_or_else(|| "reports/loadgen.json".to_string()),
    };
    args.finish()?;
    match run(&opts) {
        Ok(()) => Ok(ExitCode::SUCCESS),
        Err(e) => {
            eprintln!("ptsim loadgen: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}
