//! Fig. 6's shape at `--bench` scale: both TLS modes beat ILS on every
//! workload, and the ILS column's functional outputs match eager execution.
//! Ordering only — speedup ratios depend on the host and are never asserted.

use ptsim_bench::{fig6, Scale};

#[test]
fn tls_beats_ils_on_every_row_and_ils_outputs_match_eager() {
    let rows = fig6::run(Scale::Bench, 1);
    let times: Vec<_> = rows.iter().map(|r| (&r.name, r.tls_sn, r.tls_cn, r.ils)).collect();
    assert!(fig6::shape_holds(&rows), "(name, tls_sn, tls_cn, ils) seconds: {times:?}");
    for r in &rows {
        assert!(r.outputs.is_ok(), "{}: {:?}", r.name, r.outputs);
    }
}
