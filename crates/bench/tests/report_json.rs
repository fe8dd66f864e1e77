//! `--json` on the report bins is a contract: the output is one JSON
//! document that the workspace's own parser reads back.

use ptsim_common::json::parse_json;
use std::process::Command;

#[test]
fn report_table1_json_parses_with_ten_rows() {
    let out = Command::new(env!("CARGO_BIN_EXE_report_table1"))
        .arg("--json")
        .output()
        .expect("report_table1 runs");
    assert!(
        out.status.success(),
        "report_table1 --json exited {:?}: {}",
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
