//! `--summarize A.json B.json ...`: what `repeat.sh` prints after running
//! the full pass several times. For every workload and metric it shows
//! the median and the run-to-run spread (inter-quartile distance over the
//! median, as Python's `statistics.quantiles(values, n=4)` gives it), and
//! it fails when
//!
//! * the last result of an end-to-end metric is worse than the first by
//!   more than the metric's bound in `BENCHMARK.json`, or
//! * a deterministic per-layer metric ([`EXACT`]) differs at all.
//!
//! A metric whose spread exceeds 0.10 (or its own bound) is printed as
//! `UNSTEADY`: it should be demoted to the per-layer list, or its bound
//! re-set from at least five measured sets, before the bound is trusted.

use crate::metrics::EXACT;
use crate::stats::{median, spread};
use pytorchsim::common::json::{parse_json, Json};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// `better` and `bound` of one end-to-end metric.
struct Gate {
    higher_is_better: bool,
    bound: f64,
}

fn load(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn gates() -> Result<BTreeMap<String, Gate>, String> {
    let doc = load(&PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))?;
    let list =
        doc.get("end_to_end").and_then(Json::as_arr).ok_or("BENCHMARK.json: no end_to_end")?;
    list.iter()
        .map(|m| {
            let gate = Gate {
                higher_is_better: m.req_str("better")? == "higher",
                bound: m.req_num("bound")?,
            };
            Ok((m.req_str("name")?.to_string(), gate))
        })
        .collect()
}

/// By how much `last` is worse than `first`, as a share of `first`
/// (negative when it is better).
pub fn worsening(first: f64, last: f64, higher_is_better: bool) -> f64 {
    if first == 0.0 {
        return 0.0;
    }
    let change = (last - first) / first.abs();
    if higher_is_better {
        -change
    } else {
        change
    }
}

/// `workload → metric → one value per file`, in file order.
fn collect(docs: &[Json]) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let mut out: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for doc in docs {
        let Some(Json::Obj(workloads)) = doc.get("workloads") else {
            return Err("result file has no \"workloads\" object".into());
        };
        for (workload, result) in workloads {
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                return Err(format!("{workload}: result has no metrics"));
            };
            for (name, m) in metrics {
                out.entry(workload.clone())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(m.req_num("value")?);
            }
        }
    }
    Ok(out)
}

/// Prints the summary; `Ok(false)` when a gate failed.
pub fn summarize(files: &[String]) -> Result<bool, String> {
    if files.len() < 2 {
        return Err("--summarize needs at least two result files".into());
    }
    let docs: Vec<Json> = files.iter().map(|f| load(Path::new(f))).collect::<Result<_, _>>()?;
    let gates = gates()?;
    let mut ok = docs.iter().all(|d| d.get("correct").and_then(Json::as_bool) == Some(true));
    if !ok {
        println!("FAIL  a pass reported incorrect results");
    }
    println!(
        "{:<12} {:<30} {:>14} {:>8} {:>8} {:>9}  verdict",
        "workload", "metric", "median", "spread", "bound", "worsened"
    );
    for (workload, metrics) in collect(&docs)? {
        for (name, values) in metrics {
            if values.len() != docs.len() {
                return Err(format!("{workload}/{name} is missing from some files"));
            }
            let s = spread(&values);
            let (first, last) = (values[0], values[values.len() - 1]);
            let mut verdict = Vec::new();
            let (mut bound_txt, mut worse_txt) = (String::from("-"), String::from("-"));
            if let Some(gate) = gates.get(&name) {
                let w = worsening(first, last, gate.higher_is_better);
                bound_txt = format!("{:.3}", gate.bound);
                worse_txt = format!("{w:+.3}");
                if w > gate.bound {
                    verdict.push("REGRESSED");
                    ok = false;
                }
                if s > gate.bound.min(0.10) {
                    verdict.push("UNSTEADY");
                }
            } else if EXACT.contains(&name.as_str()) && values.iter().any(|v| *v != first) {
                verdict.push("NOT EXACT");
                ok = false;
            }
            println!(
                "{workload:<12} {name:<30} {:>14.6} {s:>8.4} {bound_txt:>8} {worse_txt:>9}  {}",
                median(&values),
                if verdict.is_empty() { "ok".to_string() } else { verdict.join(" ") }
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(100.0, 110.0, false) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, true) + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, true) - 0.10).abs() < 1e-12);
        assert_eq!(worsening(0.0, 5.0, false), 0.0);
    }

    #[test]
    fn values_are_collected_per_workload_and_metric_in_file_order() {
        let doc = |v: f64| {
            parse_json(&format!(
                r#"{{"correct":true,"workloads":{{"w":{{"metrics":{{"p50_ms":{{"value":{v},"unit":"ms"}}}}}}}}}}"#
            ))
            .unwrap()
        };
        let got = collect(&[doc(1.5), doc(2.5)]).unwrap();
        assert_eq!(got["w"]["p50_ms"], vec![1.5, 2.5]);
        assert!(collect(&[parse_json("{}").unwrap()]).is_err());
    }

    #[test]
    fn gates_come_from_benchmark_json() {
        let gates = gates().unwrap();
        assert!(gates["ops_per_s"].higher_is_better);
        assert!(!gates["setup_s"].higher_is_better);
        assert!(gates.values().all(|g| g.bound > 0.0 && g.bound <= 0.25));
    }
}
