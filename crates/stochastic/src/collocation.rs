//! The sparse stochastic collocation driver (SSCM).

use crate::pce::ChaosDesign;
use crate::{CollocationGrid, HermiteBasis, PolynomialChaos};
use std::sync::OnceLock;
use vaem_numeric::NumericError;

/// SSCM driver: owns the collocation grid and fits one [`PolynomialChaos`]
/// per output quantity from the deterministic solver runs.
///
/// The intended workflow mirrors the paper:
/// 1. reduce the correlated variations to `d` independent factors
///    (PFA / wPFA),
/// 2. run the deterministic coupled solver once per collocation point
///    ([`SparseCollocation::points`], `2d² + 3d + 1` runs),
/// 3. fit the quadratic chaos ([`SparseCollocation::fit`]) and read off the
///    statistics.
///
/// The regression design depends only on the grid and the order, so the
/// first fit evaluates the basis once per point, QR-factors the design and
/// keeps the factorization. Every quantity of every later fit (each
/// frequency point and refinement wave of a sweep) is then one
/// least-squares solve, with the same coefficient bits as an independent
/// [`PolynomialChaos::fit`].
///
/// # Example
/// ```
/// use vaem_stochastic::SparseCollocation;
/// let sscm = SparseCollocation::new(3);
/// // Pretend the "solver" returns two outputs per run.
/// let runs: Vec<Vec<f64>> = sscm
///     .points()
///     .iter()
///     .map(|z| vec![z[0] + z[1], 1.0 + z[2] * z[2]])
///     .collect();
/// let pces = sscm.fit(&runs)?;
/// assert_eq!(pces.len(), 2);
/// assert!((pces[0].variance() - 2.0).abs() < 1e-9);
/// assert!((pces[1].mean() - 2.0).abs() < 1e-9);
/// # Ok::<(), vaem_numeric::NumericError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SparseCollocation {
    grid: CollocationGrid,
    order: u8,
    /// The factored design, built by the first fit and shared by the rest.
    design: OnceLock<Result<ChaosDesign, NumericError>>,
}

impl SparseCollocation {
    /// Creates the driver for `dim` reduced variables with the paper's
    /// second-order chaos.
    ///
    /// # Panics
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        Self {
            grid: CollocationGrid::level2(dim),
            order: 2,
            design: OnceLock::new(),
        }
    }

    /// Number of reduced random variables.
    pub fn dim(&self) -> usize {
        self.grid.dim()
    }

    /// Number of deterministic solver runs required.
    pub fn run_count(&self) -> usize {
        self.grid.len()
    }

    /// The collocation points (in the reduced standard-normal space) at which
    /// the deterministic solver must be evaluated.
    pub fn points(&self) -> &[Vec<f64>] {
        self.grid.points()
    }

    /// Fits one polynomial chaos per output quantity: one least-squares
    /// solve each against the design factored once per grid.
    ///
    /// `outputs[i]` holds the output vector of the solver run at
    /// `points()[i]`; every run must produce the same number of outputs.
    ///
    /// # Errors
    /// * [`NumericError::DimensionMismatch`] when the number of runs does not
    ///   match the number of points or the runs have inconsistent lengths.
    /// * Propagates regression failures.
    pub fn fit(&self, outputs: &[Vec<f64>]) -> Result<Vec<PolynomialChaos>, NumericError> {
        if outputs.len() != self.grid.len() {
            return Err(NumericError::DimensionMismatch {
                detail: format!(
                    "expected {} solver runs, got {}",
                    self.grid.len(),
                    outputs.len()
                ),
            });
        }
        let n_out = outputs.first().map(|o| o.len()).unwrap_or(0);
        if outputs.iter().any(|o| o.len() != n_out) {
            return Err(NumericError::DimensionMismatch {
                detail: "solver runs returned inconsistent output counts".to_string(),
            });
        }
        let design = self
            .design
            .get_or_init(|| {
                let basis = HermiteBasis::new(self.dim(), self.order);
                ChaosDesign::new(basis, self.grid.points())
            })
            .as_ref()
            .map_err(Clone::clone)?;
        let mut models = Vec::with_capacity(n_out);
        let mut values = vec![0.0; outputs.len()];
        for q in 0..n_out {
            for (value, run) in values.iter_mut().zip(outputs) {
                *value = run[q];
            }
            models.push(design.fit(&values)?);
        }
        Ok(models)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_point_count;

    #[test]
    fn run_count_matches_paper_formula() {
        let sscm = SparseCollocation::new(22);
        assert_eq!(sscm.run_count(), paper_point_count(22));
        assert_eq!(sscm.run_count(), 1035);
    }

    #[test]
    fn multi_output_fit_recovers_each_quantity() {
        let sscm = SparseCollocation::new(4);
        let runs: Vec<Vec<f64>> = sscm
            .points()
            .iter()
            .map(|z| vec![1.0 + z[0], z[1] * z[2], 2.0 - 0.5 * z[3] * z[3]])
            .collect();
        let pces = sscm.fit(&runs).unwrap();
        assert_eq!(pces.len(), 3);
        assert!((pces[0].mean() - 1.0).abs() < 1e-10);
        assert!((pces[0].variance() - 1.0).abs() < 1e-9);
        assert!(pces[1].mean().abs() < 1e-10);
        assert!((pces[1].variance() - 1.0).abs() < 1e-9);
        assert!((pces[2].mean() - 1.5).abs() < 1e-10);
        assert!((pces[2].variance() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn shared_design_fit_is_bit_identical_to_independent_fits() {
        let sscm = SparseCollocation::new(12);
        let runs: Vec<Vec<f64>> = sscm
            .points()
            .iter()
            .map(|z| {
                (0..4)
                    .map(|q| {
                        let linear: f64 = z
                            .iter()
                            .enumerate()
                            .map(|(i, x)| x * (1 + (i + q) % 3) as f64)
                            .sum();
                        1.0 + linear + 0.1 * z[q] * z[(q + 5) % 12] + (q as f64) * z[0] * z[0]
                    })
                    .collect()
            })
            .collect();
        // Twice: the second call reuses the design factored by the first.
        for _ in 0..2 {
            let shared = sscm.fit(&runs).unwrap();
            assert_eq!(shared.len(), 4);
            for (q, pce) in shared.iter().enumerate() {
                let values: Vec<f64> = runs.iter().map(|r| r[q]).collect();
                let alone =
                    PolynomialChaos::fit(HermiteBasis::new(12, 2), sscm.points(), &values).unwrap();
                assert_eq!(pce.basis(), alone.basis());
                let bits = |p: &PolynomialChaos| -> Vec<u64> {
                    p.coefficients().iter().map(|c| c.to_bits()).collect()
                };
                assert_eq!(bits(pce), bits(&alone), "quantity {q}");
            }
        }
    }

    #[test]
    fn mismatched_run_count_is_rejected() {
        let sscm = SparseCollocation::new(2);
        let runs = vec![vec![1.0]; 3];
        assert!(sscm.fit(&runs).is_err());
    }

    #[test]
    fn inconsistent_output_lengths_are_rejected() {
        let sscm = SparseCollocation::new(2);
        let mut runs: Vec<Vec<f64>> = sscm.points().iter().map(|_| vec![1.0, 2.0]).collect();
        runs[3] = vec![1.0];
        assert!(sscm.fit(&runs).is_err());
    }
}
