//! Affine address expressions over loop variables.

use std::collections::HashMap;

/// An affine expression `base + Σ coeff_v · var_v` over loop variables,
/// used for DMA addresses in a TOG (§3.7: "addresses for the DMA nodes can
/// be calculated from the loop index variables, base address ... and
/// statically determined tile sizes and strides").
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AddrExpr {
    /// Constant base address, bytes.
    pub base: u64,
    /// `(loop variable id, stride in bytes)` terms.
    pub terms: Vec<(u32, u64)>,
}

impl AddrExpr {
    /// A constant address.
    pub fn new(base: u64) -> Self {
        AddrExpr { base, terms: Vec::new() }
    }

    /// Adds a `stride · var` term (builder style).
    pub fn with_term(mut self, var: u32, stride: u64) -> Self {
        self.terms.push((var, stride));
        self
    }

    /// Evaluates the expression under a loop-variable binding; unbound
    /// variables contribute zero.
    pub fn eval(&self, binding: &HashMap<u32, u64>) -> u64 {
        self.base
            + self
                .terms
                .iter()
                .map(|&(v, s)| s * binding.get(&v).copied().unwrap_or(0))
                .sum::<u64>()
    }

    /// The loop variables this expression reads.
    pub fn vars(&self) -> impl Iterator<Item = u32> + '_ {
        self.terms.iter().map(|&(v, _)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_applies_binding() {
        let e = AddrExpr::new(100).with_term(0, 10).with_term(1, 1000);
        let mut b = HashMap::new();
        b.insert(0, 3);
        b.insert(1, 2);
        assert_eq!(e.eval(&b), 100 + 30 + 2000);
    }

    #[test]
    fn unbound_vars_are_zero() {
        let e = AddrExpr::new(5).with_term(9, 100);
        assert_eq!(e.eval(&HashMap::new()), 5);
    }
}
