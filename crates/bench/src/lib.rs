//! Experiment harness reproducing every table and figure of the paper's
//! evaluation (§4–§5). Each `figN` module exposes a `run(scale)` function
//! returning the figure's rows; `ptsim figN` prints them at paper scale, or
//! at reduced scale with `--bench`.
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
