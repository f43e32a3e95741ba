//! Coupled electromagnetic–semiconductor finite-volume solver.
//!
//! This crate implements the deterministic "A–V solver" substrate of the
//! paper (Section II.A): the structure is meshed into (possibly perturbed)
//! cubes, the scalar potential `V` and the carrier densities live on the
//! nodes, the vector potential `A` on the links, and the discretized
//! Gauss / current-continuity / carrier-continuity / Ampère equations are
//! solved for the hybrid metal–insulator–semiconductor structure.
//!
//! Organisation:
//!
//! * [`terminals`] — labels every metal node with the terminal (contact) that
//!   reaches it through metal links.
//! * [`DcSolution`] / [`CoupledSolver::solve_dc`] — nonlinear Poisson
//!   equilibrium solve (Newton–Raphson with damping, the nonlinearity coming
//!   from the Boltzmann carrier statistics), producing the DC operating
//!   point: node potentials and carrier densities.
//! * [`AcSolution`] / [`CoupledSolver::solve_ac`] — frequency-domain coupled
//!   solve around the operating point ([`CoupledSolver::prepare_ac`] returns
//!   an [`AcSweepOperator`] that factorizes once and solves every terminal
//!   excitation against the cached factorization). The default
//!   [`EmMode::ElectroQuasiStatic`] solves the complex potential equation
//!   with the full admittivity `σ + jωε` (metal conduction, dielectric
//!   displacement, semiconductor small-signal conduction); the
//!   [`EmMode::FullWave`] mode additionally carries the vector-potential
//!   block of eq. (3) on the links.
//! * [`postprocess`] — terminal currents, interface currents (Table I),
//!   capacitance matrix columns (Table II), and potential maps on cross
//!   sections (Fig. 2b).
//!
//! # Example
//!
//! ```
//! use vaem_fvm::{CoupledSolver, SolverOptions};
//! use vaem_mesh::structures::metalplug::{build_metalplug_structure, MetalPlugConfig};
//! use vaem_physics::DopingProfile;
//!
//! let structure = build_metalplug_structure(&MetalPlugConfig::coarse());
//! let semis = structure.semiconductor_nodes();
//! let doping = DopingProfile::uniform_donor(structure.mesh.node_count(), &semis, 1.0e5);
//! let solver = CoupledSolver::new(&structure, &doping, SolverOptions::default())?;
//! let dc = solver.solve_dc()?;
//! let ac = solver.solve_ac(&dc, "plug1", 1.0e9)?;
//! let current = vaem_fvm::postprocess::interface_current(&solver, &ac, "plug1")?;
//! assert!(current.abs() > 0.0);
//! # Ok::<(), vaem_fvm::FvmError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod ac;
mod coefficients;
mod dc;
mod error;
pub mod postprocess;
mod solver;
pub mod terminals;

pub use ac::AcSolution;
pub use dc::DcSolution;
pub use error::FvmError;
pub use solver::{
    AcSweepOperator, CoupledSolver, EmMode, SeedReuseStats, Seeding, SolverOptions, SolverTopology,
};
