//! The `ptsim` command line is a contract: `--json` prints one JSON
//! document the workspace's own parser reads back, a malformed line exits 2
//! naming the bad token before any simulation runs, and the service
//! subcommands talk to each other through the real binary.

use ptsim_common::json::parse_json;
use std::process::{Command, Output};

fn ptsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ptsim")).args(args).output().expect("ptsim runs")
}

#[test]
fn table1_json_parses_with_ten_rows() {
    let out = ptsim(&["table1", "--json"]);
    assert!(
        out.status.success(),
        "ptsim table1 --json exited {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf-8 output");
    let doc = parse_json(&text).expect("output parses");
    let rows = doc.as_arr().expect("an array of rows");
    assert_eq!(rows.len(), 10);
    for row in rows {
        assert!(row.req_str("feature").is_ok() && row.req_str("status").is_ok(), "{row:?}");
    }
}

/// Each line would run a paper-scale figure, a trace or nothing at all if
/// the bad token were ignored; each must instead exit 2 at once, print
/// nothing on stdout, and name the token on stderr.
#[test]
fn malformed_lines_exit_2_naming_the_token() {
    for (line, token) in [
        (&["fig5", "--bnech"][..], "--bnech"),
        (&["fig5", "--jobs", "x"], "\"x\""),
        (&["trace", "--trace"], "--trace"),
        (&["nosuch"], "nosuch"),
    ] {
        let out = ptsim(line);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{line:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{line:?} printed {}", String::from_utf8_lossy(&out.stdout));
        assert!(stderr.contains(token) && stderr.contains("usage: ptsim"), "{line:?}: {stderr}");
    }
}

/// `loadgen --smoke` spawns `ptsim serve --port 0` from the same binary and
/// checks the handshake, one simulation, `/metrics` and graceful shutdown.
#[test]
fn loadgen_smoke_drives_a_spawned_server() {
    let out = ptsim(&["loadgen", "--smoke"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("smoke: healthz ok"), "{stdout}");
}
