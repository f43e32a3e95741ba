//! Dense numerical kernels for the variation-aware EM–semiconductor solver.
//!
//! This crate is the lowest layer of the VAEM workspace. It provides, from
//! scratch (no external linear-algebra dependencies):
//!
//! * [`Complex64`] — double-precision complex arithmetic used by the
//!   frequency-domain coupled solver.
//! * [`Scalar`] — a small trait abstracting over `f64` and [`Complex64`] so
//!   that matrix assembly and linear solvers can be written once.
//! * [`dense`] — dense matrices plus Cholesky, QR, symmetric Jacobi
//!   eigendecomposition and one-sided Jacobi SVD (used by the PFA/wPFA
//!   variable-reduction step, the Gauss–Hermite rule construction and the
//!   least-squares chaos fit).
//! * [`poly`] — probabilists' Hermite polynomials and Gauss–Hermite
//!   quadrature rules (the backbone of the spectral stochastic collocation
//!   method).
//! * [`stats`] — running statistics (Welford), sample moments and comparison
//!   helpers used when comparing SSCM against Monte Carlo.
//!
//! # Example
//!
//! ```
//! use vaem_numeric::{Complex64, dense::DMatrix};
//!
//! let a = DMatrix::from_rows(&[
//!     vec![Complex64::new(2.0, 0.0), Complex64::new(0.0, 1.0)],
//!     vec![Complex64::new(0.0, -1.0), Complex64::new(3.0, 0.0)],
//! ]);
//! // `a` is Hermitian.
//! assert_eq!(a.conj_transpose().as_slice(), a.as_slice());
//! let y = a.matvec(&[Complex64::ONE, Complex64::ZERO]);
//! assert_eq!(y, vec![Complex64::new(2.0, 0.0), Complex64::new(0.0, -1.0)]);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod complex;
pub mod dense;
pub mod error;
pub mod panel;
pub mod poly;
pub mod scalar;
pub mod stats;
pub mod vecops;

pub use complex::Complex64;
pub use error::NumericError;
pub use scalar::Scalar;
