//! `ptsim serve`: the simulation daemon.
//!
//! ```sh
//! ptsim serve --port 8080 --workers 4 --queue-depth 64 \
//!     --result-cache-mb 32 --deadline-ms 30000
//! ```
//!
//! Prints one `listening on http://ADDR` line once ready (`--port 0`
//! resolves an OS-assigned port, which `ptsim loadgen --spawn` parses),
//! then serves until `POST /admin/shutdown` drains it. Defaults: host
//! 127.0.0.1, port 8080, the rest from [`ServeConfig::default`].

use crate::cli::{Args, Error};
use ptsim_serve::server::{start, ServeConfig};
use std::io::Write;
use std::process::ExitCode;

pub fn serve(args: &mut Args) -> Result<ExitCode, Error> {
    let host = args.value("--host")?.unwrap_or_else(|| "127.0.0.1".to_string());
    let port: u16 = args.value("--port")?.unwrap_or(8080);
    let d = ServeConfig::default();
    let cfg = ServeConfig {
        addr: format!("{host}:{port}"),
        workers: args.value("--workers")?.unwrap_or(d.workers),
        queue_depth: args.value("--queue-depth")?.unwrap_or(d.queue_depth),
        result_cache_mb: args.value("--result-cache-mb")?.unwrap_or(d.result_cache_mb),
        deadline_ms: args.value("--deadline-ms")?.unwrap_or(d.deadline_ms),
        shutdown_grace_ms: args.value("--shutdown-grace-ms")?.unwrap_or(d.shutdown_grace_ms),
    };
    args.finish()?;
    // Validate here too, so a bad flag reads as "invalid configuration:
    // ..." rather than a bind error.
    if let Err(e) = cfg.validate() {
        eprintln!("ptsim serve: {e}");
        return Ok(ExitCode::FAILURE);
    }
    let handle = match start(cfg.clone()) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("ptsim serve: bind {}: {e}", cfg.addr);
            return Ok(ExitCode::FAILURE);
        }
    };
    println!(
        "ptsim serve: {} workers, queue depth {}, result cache {} MiB, deadline {} ms, \
         shutdown grace {} ms",
        cfg.workers, cfg.queue_depth, cfg.result_cache_mb, cfg.deadline_ms, cfg.shutdown_grace_ms
    );
    println!("listening on http://{}", handle.addr());
    let _ = std::io::stdout().flush();
    handle.join();
    println!("ptsim serve: drained, bye");
    Ok(ExitCode::SUCCESS)
}
