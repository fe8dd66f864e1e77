//! Experiment harness reproducing every table and figure of the paper's
//! evaluation (§4–§5). Each `figN` module exposes a `run(scale)` function
//! returning the figure's rows; the `report_figN` binaries print them at
//! paper scale, or at reduced scale with `--bench`.
//!
//! Absolute numbers are not expected to match the paper (the substrate is a
//! from-scratch simulator, not the authors' testbed); the *shape* — who
//! wins, by roughly what factor, where crossovers fall — is the
//! reproduction target. See `EXPERIMENTS.md` for paper-vs-measured notes.

pub mod fig10;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;

/// Experiment scale selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced sizes for CI and `--bench`.
    Bench,
    /// The paper's workload sizes (minutes of wall time).
    Full,
}

/// Parses the report binaries' shared command line: `--bench` selects the
/// reduced scale, `--jobs N` sets the sweep worker count (default 1 —
/// results are bit-identical at any count, see `pytorchsim::sweep`).
pub fn cli_scale_and_jobs() -> (Scale, usize) {
    let args: Vec<String> = std::env::args().collect();
    let scale = if args.iter().any(|a| a == "--bench") { Scale::Bench } else { Scale::Full };
    let jobs = args
        .iter()
        .position(|a| a == "--jobs")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().unwrap_or_else(|_| panic!("--jobs expects a number, got {v:?}")))
        .unwrap_or(1);
    (scale, jobs)
}

/// Formats a ratio as `x.xx×`.
pub fn fmt_x(r: f64) -> String {
    format!("{r:.2}x")
}

/// Prints a markdown-style table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    println!("| {} |", header.join(" | "));
    println!("|{}|", header.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt_x(2.0), "2.00x");
    }
}
