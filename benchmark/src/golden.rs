//! Committed golden results and the checker that compares against them.
//!
//! `golden.json` pins, for every simulated result the benchmark produces
//! (the sim workloads, each kernel of `kernels_ils` at both fidelities, and
//! the 64 serve catalog specs), the numbers a host-speed change must leave
//! identical: total cycles, DRAM reads / writes / row hits / row
//! conflicts, and NoC messages. A one-cycle difference fails the operation.

use pytorchsim::common::json::{parse_json, Json};
use pytorchsim::togsim::SimReport;
use std::collections::BTreeMap;

/// The pinned numbers of one simulated result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Golden {
    pub total_cycles: u64,
    pub dram_reads: u64,
    pub dram_writes: u64,
    pub dram_row_hits: u64,
    pub dram_row_conflicts: u64,
    pub noc_messages: u64,
}

impl Golden {
    /// The pinned fields of `report`.
    pub fn of(report: &SimReport) -> Golden {
        Golden {
            total_cycles: report.total_cycles,
            dram_reads: report.dram.reads,
            dram_writes: report.dram.writes,
            dram_row_hits: report.dram.row_hits,
            dram_row_conflicts: report.dram.row_conflicts,
            noc_messages: report.noc.messages,
        }
    }

    fn fields(&self) -> [(&'static str, u64); 6] {
        [
            ("total_cycles", self.total_cycles),
            ("dram_reads", self.dram_reads),
            ("dram_writes", self.dram_writes),
            ("dram_row_hits", self.dram_row_hits),
            ("dram_row_conflicts", self.dram_row_conflicts),
            ("noc_messages", self.noc_messages),
        ]
    }

    fn to_json(self) -> Json {
        self.fields().iter().fold(Json::obj(), |j, (k, v)| j.set(k, Json::u64(*v)))
    }

    fn from_json(v: &Json) -> Result<Golden, String> {
        Ok(Golden {
            total_cycles: v.req_u64("total_cycles")?,
            dram_reads: v.req_u64("dram_reads")?,
            dram_writes: v.req_u64("dram_writes")?,
            dram_row_hits: v.req_u64("dram_row_hits")?,
            dram_row_conflicts: v.req_u64("dram_row_conflicts")?,
            noc_messages: v.req_u64("noc_messages")?,
        })
    }

    /// `Ok` when `got` equals `self`, else every differing field.
    pub fn compare(&self, got: &Golden) -> Result<(), String> {
        let diffs: Vec<String> = self
            .fields()
            .iter()
            .zip(got.fields())
            .filter(|((_, want), (_, have))| want != have)
            .map(|((name, want), (_, have))| format!("{name}: golden {want}, got {have}"))
            .collect();
        if diffs.is_empty() {
            Ok(())
        } else {
            Err(diffs.join("; "))
        }
    }
}

/// Every golden, by key (`bert_s512`, `kernels_ils/gemm512/ils`,
/// `catalog/17`, ...).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Goldens(BTreeMap<String, Golden>);

impl Goldens {
    /// The goldens committed beside the benchmark, compiled in so a run
    /// never depends on where it is started from.
    pub fn committed() -> Result<Goldens, String> {
        Goldens::parse(include_str!("../golden.json"))
    }

    /// Parses the `golden.json` format: one object of key → six fields.
    pub fn parse(text: &str) -> Result<Goldens, String> {
        let Json::Obj(fields) = parse_json(text)? else {
            return Err("golden.json must be an object".into());
        };
        let mut map = BTreeMap::new();
        for (key, value) in &fields {
            let golden = Golden::from_json(value).map_err(|e| format!("golden {key:?}: {e}"))?;
            map.insert(key.clone(), golden);
        }
        Ok(Goldens(map))
    }

    /// Records a result (used by `--write-golden`).
    pub fn insert(&mut self, key: &str, golden: Golden) {
        self.0.insert(key.to_string(), golden);
    }

    /// The golden for `key`.
    pub fn get(&self, key: &str) -> Result<&Golden, String> {
        self.0.get(key).ok_or_else(|| format!("golden.json has no entry {key:?}"))
    }

    /// Checks `report` against the golden for `key`.
    pub fn check(&self, key: &str, report: &SimReport) -> Result<(), String> {
        self.get(key)?.compare(&Golden::of(report)).map_err(|e| format!("{key}: {e}"))
    }

    /// The file form: one entry per line, keys sorted.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (key, golden)) in self.0.iter().enumerate() {
            let sep = if i + 1 == self.0.len() { "" } else { "," };
            out.push_str(&format!(
                "  {}: {}{sep}\n",
                Json::str(key).render(),
                golden.to_json().render()
            ));
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const G: Golden = Golden {
        total_cycles: 1_708_444,
        dram_reads: 2_000_000,
        dram_writes: 657_856,
        dram_row_hits: 2_500_000,
        dram_row_conflicts: 1_234,
        noc_messages: 42,
    };

    #[test]
    fn a_one_cycle_difference_fails_and_names_the_field() {
        assert_eq!(G.compare(&G), Ok(()));
        let off = Golden { total_cycles: G.total_cycles + 1, ..G };
        let err = G.compare(&off).unwrap_err();
        assert_eq!(err, "total_cycles: golden 1708444, got 1708445");
        let off = Golden { dram_row_conflicts: 1_233, noc_messages: 43, ..G };
        let err = G.compare(&off).unwrap_err();
        assert!(err.contains("dram_row_conflicts") && err.contains("noc_messages"), "{err}");
    }

    #[test]
    fn file_form_round_trips_and_reports_missing_keys() {
        let mut goldens = Goldens::default();
        goldens.insert("bert_s512", G);
        goldens.insert("catalog/03", Golden { noc_messages: 0, ..G });
        let back = Goldens::parse(&goldens.render()).unwrap();
        assert_eq!(back, goldens);
        assert!(back.get("nope").unwrap_err().contains("nope"));
        assert!(Goldens::parse("[]").is_err());
        assert!(Goldens::parse(r#"{"k":{"total_cycles":1}}"#).unwrap_err().contains("\"k\""));
    }

    #[test]
    fn committed_goldens_parse() {
        assert!(Goldens::committed().is_ok());
    }
}
