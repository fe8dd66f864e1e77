//! Seed-deterministic differential & property-fuzz harness for the
//! PyTorchSim-rs stack.
//!
//! One `u64` seed expands into a complete randomized scenario — a model-zoo
//! workload, a mutated machine configuration, a multi-tenant request mix,
//! and a set of adversarial inputs ([`gen::CheckCase`]) — which every
//! [`oracle`] then cross-examines: engine-vs-reference bit-identity,
//! cross-fidelity agreement, functional-vs-eager numerics, sweep
//! determinism, trace well-formedness, metamorphic resource/batch
//! monotonicity, and typed-error robustness on untrusted inputs.
//!
//! On a failure the case is greedily reduced by [`shrink()`] while the same
//! oracle keeps failing, and the finding carries a one-line replay handle: the seed is
//! the whole reproduction recipe.
//!
//! ```sh
//! cargo run --release -p ptsim-bench --bin ptsim -- check --seeds 50
//! cargo run --release -p ptsim-bench --bin ptsim -- check --replay 1234
//! ```
//!
//! # Examples
//!
//! ```
//! let outcome = ptsim_check::run_seed(0);
//! assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
//! ```

pub mod gen;
pub mod oracle;
pub mod shrink;

pub use gen::CheckCase;
pub use oracle::{Oracle, ORACLES};
pub use shrink::shrink;

use ptsim_common::json::escape;

/// One confirmed finding: which oracle failed on which seed, with the
/// shrunk reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct Failure {
    /// The generating seed (the replay handle).
    pub seed: u64,
    /// Name of the failing oracle.
    pub oracle: &'static str,
    /// The oracle's finding on the original case.
    pub message: String,
    /// One-line summary of the shrunk case.
    pub shrunk: String,
}

impl Failure {
    /// The one-line replay command for this finding.
    pub fn replay_command(&self) -> String {
        format!("cargo run --release -p ptsim-bench --bin ptsim -- check --replay {}", self.seed)
    }
}

/// Every oracle's verdict on one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct SeedOutcome {
    /// The seed checked.
    pub seed: u64,
    /// One-line summary of the generated case.
    pub case: String,
    /// Confirmed findings (empty when every oracle passed).
    pub failures: Vec<Failure>,
}

/// Generates the case for `seed` and runs the full oracle set against it,
/// shrinking every failure.
pub fn run_seed(seed: u64) -> SeedOutcome {
    run_seed_filtered(seed, None)
}

/// [`run_seed`] restricted to the single oracle named `oracle` (all of
/// them when `None`) — how CI smoke-tests one property over many seeds
/// without paying for the whole set.
pub fn run_seed_filtered(seed: u64, oracle: Option<&str>) -> SeedOutcome {
    let case = CheckCase::from_seed(seed);
    let mut failures = Vec::new();
    for o in ORACLES {
        if oracle.is_some_and(|name| name != o.name) {
            continue;
        }
        if let Err(message) = (o.run)(&case) {
            let shrunk = shrink(&case, |candidate| (o.run)(candidate).is_err());
            failures.push(Failure { seed, oracle: o.name, message, shrunk: shrunk.summary() });
        }
    }
    SeedOutcome { seed, case: case.summary(), failures }
}

/// Aggregated result of a suite run.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteReport {
    /// Per-seed outcomes, in input order.
    pub outcomes: Vec<SeedOutcome>,
}

impl SuiteReport {
    /// All findings across the suite.
    pub fn failures(&self) -> Vec<&Failure> {
        self.outcomes.iter().flat_map(|o| &o.failures).collect()
    }

    /// Whether every oracle passed on every seed.
    pub fn passed(&self) -> bool {
        self.outcomes.iter().all(|o| o.failures.is_empty())
    }

    /// The report as compact JSON text.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"seeds\":{},\"failures\":[", self.outcomes.len()));
        for (i, f) in self.failures().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"seed\":{},\"oracle\":\"{}\",\"message\":\"{}\",\"shrunk\":\"{}\"}}",
                f.seed,
                escape(f.oracle),
                escape(&f.message),
                escape(&f.shrunk)
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Runs the oracle set over a range of seeds.
pub fn run_suite(seeds: impl IntoIterator<Item = u64>) -> SuiteReport {
    SuiteReport { outcomes: seeds.into_iter().map(run_seed).collect() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_json_is_well_formed_and_escaped() {
        let report = SuiteReport {
            outcomes: vec![SeedOutcome {
                seed: 3,
                case: "x".into(),
                failures: vec![Failure {
                    seed: 3,
                    oracle: "demo",
                    message: "a \"quoted\"\nfinding".into(),
                    shrunk: "tiny".into(),
                }],
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\\\"quoted\\\"\\n"));
        // The trace validator ships a strict JSON parser; reuse it to prove
        // the hand-formatted output parses.
        let doc = pytorchsim::trace::validate::parse_json(&json).expect("report JSON must parse");
        assert_eq!(doc.get("seeds").and_then(|v| v.as_num()), Some(1.0));
    }

    #[test]
    fn replay_command_names_the_seed() {
        let f = Failure { seed: 77, oracle: "o", message: String::new(), shrunk: String::new() };
        assert!(f.replay_command().ends_with("--replay 77"));
    }
}
