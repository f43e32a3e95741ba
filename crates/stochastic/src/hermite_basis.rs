//! Multi-dimensional Hermite polynomial basis.

use vaem_numeric::poly::{hermite_norm_sqr, hermite_values_upto};

/// A multi-index `(i₁, …, i_D)` identifying the product Hermite polynomial
/// `H_{i₁}(ζ₁)·…·H_{i_D}(ζ_D)` of the paper's eq. (4).
pub type MultiIndex = Vec<u8>;

/// The D-dimensional probabilists' Hermite basis truncated at a total order.
///
/// # Example
/// ```
/// use vaem_stochastic::HermiteBasis;
/// let basis = HermiteBasis::new(3, 2);
/// // 1 constant + 3 linear + 3 squares + 3 cross terms = 10
/// assert_eq!(basis.len(), 10);
/// let row = basis.evaluate(&[0.5, -1.0, 2.0]);
/// assert_eq!(row[0], 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HermiteBasis {
    dim: usize,
    order: u8,
    indices: Vec<MultiIndex>,
}

impl HermiteBasis {
    /// Builds the basis of all multi-indices with total order ≤ `order` in
    /// `dim` variables. The first basis function is always the constant.
    pub fn new(dim: usize, order: u8) -> Self {
        let mut indices: Vec<MultiIndex> = Vec::new();
        let mut current = vec![0u8; dim];
        collect_indices(&mut indices, &mut current, 0, order);
        // Sort by total order then lexicographically for a stable layout with
        // the constant term first.
        indices.sort_by_key(|idx| {
            let total: u32 = idx.iter().map(|&v| v as u32).sum();
            (total, idx.clone())
        });
        Self {
            dim,
            order,
            indices,
        }
    }

    /// Number of random dimensions D.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Maximum total order of the basis.
    pub fn order(&self) -> u8 {
        self.order
    }

    /// Number of basis functions
    /// (`(D + order)! / (D!·order!)`, e.g. `1 + D + D(D+1)/2` for order 2).
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Returns `true` when the basis is empty (never happens for `dim ≥ 0`).
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// The multi-indices in basis order.
    pub fn indices(&self) -> &[MultiIndex] {
        &self.indices
    }

    /// Squared norm `⟨Ψ_α²⟩ = Π α_i!` of basis function `alpha`.
    pub fn norm_sqr(&self, alpha: usize) -> f64 {
        self.indices[alpha]
            .iter()
            .map(|&o| hermite_norm_sqr(o as usize))
            .product()
    }

    /// Evaluates every basis function at the point `zeta`.
    ///
    /// # Panics
    /// Panics if `zeta.len() != self.dim()`.
    pub fn evaluate(&self, zeta: &[f64]) -> Vec<f64> {
        let mut row = vec![0.0; self.len()];
        self.evaluate_into(zeta, &mut row);
        row
    }

    /// Writes every basis function at the point `zeta` into `out`, e.g. one
    /// row of a regression design matrix.
    ///
    /// # Panics
    /// Panics if `zeta.len() != self.dim()` or `out.len() != self.len()`.
    pub(crate) fn evaluate_into(&self, zeta: &[f64], out: &mut [f64]) {
        assert_eq!(
            zeta.len(),
            self.dim,
            "basis evaluation: wrong point dimension"
        );
        assert_eq!(out.len(), self.len(), "basis evaluation: wrong row length");
        // Per-dimension 1-D Hermite values up to the max order.
        let per_dim: Vec<Vec<f64>> = zeta
            .iter()
            .map(|&z| hermite_values_upto(self.order as usize, z))
            .collect();
        for (value, idx) in out.iter_mut().zip(&self.indices) {
            *value = idx
                .iter()
                .enumerate()
                .map(|(d, &o)| per_dim[d][o as usize])
                .product();
        }
    }
}

fn collect_indices(out: &mut Vec<MultiIndex>, current: &mut MultiIndex, pos: usize, budget: u8) {
    if pos == current.len() {
        out.push(current.clone());
        return;
    }
    for o in 0..=budget {
        current[pos] = o;
        collect_indices(out, current, pos + 1, budget - o);
    }
    current[pos] = 0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaem_numeric::poly::GaussHermite;

    #[test]
    fn basis_size_formula_for_order_two() {
        for d in 1..=6 {
            let basis = HermiteBasis::new(d, 2);
            assert_eq!(basis.len(), 1 + d + d * (d + 1) / 2, "dim {d}");
        }
    }

    #[test]
    fn first_function_is_the_constant() {
        let basis = HermiteBasis::new(4, 2);
        assert_eq!(basis.indices()[0], vec![0, 0, 0, 0]);
        let row = basis.evaluate(&[1.0, 2.0, -3.0, 0.1]);
        assert_eq!(row[0], 1.0);
    }

    #[test]
    fn norms_are_products_of_factorials() {
        let basis = HermiteBasis::new(2, 2);
        for (a, idx) in basis.indices().iter().enumerate() {
            let expected: f64 = idx
                .iter()
                .map(|&o| match o {
                    0 => 1.0,
                    1 => 1.0,
                    2 => 2.0,
                    _ => unreachable!(),
                })
                .product();
            assert_eq!(basis.norm_sqr(a), expected);
        }
    }

    #[test]
    fn basis_functions_are_orthogonal_under_gaussian_measure() {
        // Tensor 4-point Gauss-Hermite integrates products of order-2 chaos
        // polynomials exactly in 2 dimensions.
        let basis = HermiteBasis::new(2, 2);
        let rule = GaussHermite::new(4).unwrap();
        let m = basis.len();
        for a in 0..m {
            for b in 0..m {
                let mut integral = 0.0;
                for (&xa, &wa) in rule.nodes().iter().zip(rule.weights()) {
                    for (&xb, &wb) in rule.nodes().iter().zip(rule.weights()) {
                        let rows = basis.evaluate(&[xa, xb]);
                        integral += wa * wb * rows[a] * rows[b];
                    }
                }
                let expected = if a == b { basis.norm_sqr(a) } else { 0.0 };
                assert!(
                    (integral - expected).abs() < 1e-9,
                    "a={a} b={b}: {integral} vs {expected}"
                );
            }
        }
    }

    #[test]
    fn evaluation_matches_manual_quadratic() {
        let basis = HermiteBasis::new(1, 2);
        let z = 1.7;
        let row = basis.evaluate(&[z]);
        assert_eq!(row.len(), 3);
        assert_eq!(row[0], 1.0);
        assert!((row[1] - z).abs() < 1e-14);
        assert!((row[2] - (z * z - 1.0)).abs() < 1e-14);
    }
}
