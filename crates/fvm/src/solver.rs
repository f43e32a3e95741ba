//! The high-level coupled solver.

use crate::coefficients::{link_admittivity, link_permittivity, node_admittivity};
use crate::terminals::{label_terminals, TerminalMap};
use crate::{AcSolution, DcSolution, FvmError};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use vaem_mesh::{Axis, LinkId, Material, NodeId, Structure};
use vaem_numeric::{Complex64, Scalar};
use vaem_physics::{constants, DopingProfile, MaterialTable, SiliconParams};
use vaem_sparse::{
    CsrMatrix, IluSeed, LinearSolver, PreparedSolver, SolveReport, SolverKind, SparsityPattern,
    SymbolicLu, TripletMatrix,
};

/// Electromagnetic modelling depth of the AC stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EmMode {
    /// Electro-quasi-static: complex potential equation with the full
    /// admittivity `σ + jωε` (metal conduction, dielectric displacement,
    /// semiconductor small-signal conduction). This is the default for the
    /// statistical sweeps.
    #[default]
    ElectroQuasiStatic,
    /// Additionally computes the magnetic vector potential on the links from
    /// the conduction/displacement current distribution (one-way coupled
    /// approximation of the paper's eq. 3).
    FullWave,
}

/// Configuration of the coupled solver.
#[derive(Debug, Clone)]
pub struct SolverOptions {
    /// Bulk material properties.
    pub materials: MaterialTable,
    /// Silicon carrier-statistics parameters.
    pub silicon: SiliconParams,
    /// Electromagnetic modelling depth.
    pub em_mode: EmMode,
    /// Linear solver strategy for both stages.
    pub linear_solver: SolverKind,
    /// Maximum Newton iterations of the DC stage.
    pub newton_max_iterations: usize,
    /// Newton convergence tolerance on the potential update (V).
    pub newton_tolerance: f64,
    /// How this solver takes part in the cross-sample reuse of the shared
    /// [`SolverTopology`]'s donor factorizations (see [`Seeding`]).
    pub seeding: Seeding,
}

impl Default for SolverOptions {
    fn default() -> Self {
        Self {
            materials: MaterialTable::default(),
            silicon: SiliconParams::default(),
            em_mode: EmMode::ElectroQuasiStatic,
            linear_solver: SolverKind::Auto,
            newton_max_iterations: 60,
            newton_tolerance: 1e-9,
            seeding: Seeding::Publish,
        }
    }
}

/// How a solver uses the donor factorizations published on its shared
/// [`SolverTopology`]: the symbolic LU phase (ordering selection + pivot
/// structure), so direct factorizations are numeric-only, and the DC
/// Jacobian's ILU(0) values, so an iterative Newton solve starts from the
/// donor's preconditioner (its lazy refresh policy rebuilding only when it
/// degrades).
///
/// Seeded direct results are bit-identical to unseeded ones whenever an
/// unseeded factorization would pick the donor's pivot sequence. Otherwise
/// the seeded refactorization keeps the donor's sequence while its pivots
/// stay usable (checked per column, re-pivoting locally when they do not),
/// and the two agree to rounding — e.g. an AC operator first factorized at
/// another frequency than the donor's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seeding {
    /// Every solve runs its own full analysis; the donors are neither read
    /// nor written (stale re-pivots are still counted).
    Off,
    /// Start from the published donors but never publish. When many
    /// solvers share a topology **concurrently**, all but one designated
    /// donor (the nominal sample, solved before the fan-out) must consume
    /// only — otherwise which pivot sequence fills the slot depends on
    /// thread timing, and with it the bitwise results of every later seeded
    /// solve. The analysis layer runs its sample workers this way.
    Consume,
    /// Consume, and fill an empty donor slot with this solve's own
    /// factorization (the first publisher wins for good), so sequentially
    /// shared topologies self-seed. The default.
    Publish,
}

/// The cross-sample state of one operator (the DC Jacobian or the AC
/// operator) on a shared [`SolverTopology`]: its sparsity pattern (the
/// unknown ordering is topology-only, so it is shared across samples and
/// iterations) and the donor symbolic LU.
///
/// The donor is write-once: the first solve that prepares a direct
/// strategy and publishes — the nominal sample, when the analysis layer
/// solves it before fanning the samples out — fills the slot for good, and
/// every later solver's first factorization is seeded from it. A seeded
/// direct factorization whose pivots go stale re-pivots locally and is
/// counted in `stale`.
#[derive(Debug, Default)]
struct SharedOperator {
    pattern: OnceLock<SparsityPattern>,
    symbolic: OnceLock<SymbolicLu>,
    /// Stale-pivot re-pivots reported by every solver of this operator.
    stale: AtomicU64,
}

/// One solver's factorization of an operator whose pattern and donors live
/// in a [`SharedOperator`]: the CSR on the fixed pattern, the prepared
/// linear solver and its stale-pivot fallbacks already reported (the
/// prepared solver's counter is cumulative).
#[derive(Debug, Clone, Default)]
struct OperatorState<T: Scalar> {
    matrix: Option<CsrMatrix<T>>,
    prepared: Option<PreparedSolver<T>>,
    reported_stale: u64,
}

impl SharedOperator {
    /// Assembles `triplets` into `state`'s matrix and factorizes it. The
    /// first call builds the CSR on the shared pattern (publishing the
    /// pattern when none is cached) and prepares the linear solver, seeded
    /// from the published symbolic donor and from `ilu` unless `seeding` is
    /// off; later calls only re-assemble the values and refactorize
    /// numerically.
    fn factor<'p, T: Scalar>(
        &self,
        state: &'p mut OperatorState<T>,
        triplets: &TripletMatrix<T>,
        linear: &LinearSolver,
        seeding: Seeding,
        ilu: Option<&IluSeed<T>>,
    ) -> Result<&'p mut PreparedSolver<T>, FvmError> {
        let matrix = match state.matrix.as_mut() {
            Some(cached) => {
                triplets.assemble_into(cached)?;
                &*cached
            }
            None => {
                let n = triplets.rows();
                let built = match self.pattern.get() {
                    Some(p) if p.rows() == n && p.cols() == n => {
                        let mut m = p.zeros();
                        triplets.assemble_into(&mut m)?;
                        m
                    }
                    _ => {
                        let m = triplets.to_csr();
                        let _ = self.pattern.set(SparsityPattern::of(&m));
                        m
                    }
                };
                &*state.matrix.insert(built)
            }
        };
        match state.prepared {
            Some(ref mut p) => {
                p.refactor(matrix)?;
                Ok(p)
            }
            None => {
                let (symbolic, ilu) = match seeding {
                    Seeding::Off => (None, None),
                    Seeding::Consume | Seeding::Publish => (self.symbolic.get(), ilu),
                };
                let p = linear.prepare_seeded(matrix, symbolic, ilu)?;
                Ok(state.prepared.insert(p))
            }
        }
    }

    /// Reports `state`'s new stale-pivot re-pivots into the shared
    /// statistics and, when `seeding` publishes, fills an empty symbolic
    /// donor slot from it.
    fn report<T: Scalar>(&self, state: &mut OperatorState<T>, seeding: Seeding) {
        let Some(prepared) = &state.prepared else {
            return;
        };
        let total = prepared.direct_stale_fallbacks();
        // `saturating_sub`: a replaced factorization (pattern change, Krylov
        // rescue) starts a fresh counter below what was already reported —
        // that must not wrap into a huge bogus delta.
        let delta = total.saturating_sub(state.reported_stale);
        self.stale.fetch_add(delta, Ordering::Relaxed);
        state.reported_stale = total;
        if seeding != Seeding::Publish {
            return;
        }
        if let Some(symbolic) = prepared.direct_symbolic().filter(|s| s.has_structure()) {
            self.symbolic.get_or_init(|| symbolic.seed_from());
        }
    }
}

/// The perturbation-invariant part of a solver setup: terminal labelling,
/// node–link adjacency, contact (Dirichlet) assignment, and the sparsity
/// patterns and donor factorizations of the DC Jacobian and the AC
/// operator.
///
/// Surface-roughness perturbations move node positions but never change the
/// mesh topology, so one `SolverTopology` — wrapped in an [`Arc`] — can be
/// built from the nominal structure and shared read-only across every
/// perturbed-sample solver of a sweep (and across the worker threads of
/// `vaem_parallel`), instead of being rebuilt per sample. The sparsity
/// patterns and donors are populated lazily by the first solve that
/// assembles them.
#[derive(Debug)]
pub struct SolverTopology {
    terminals: TerminalMap,
    /// Links incident to each node.
    node_links: Vec<Vec<LinkId>>,
    /// Contact index of each node (Dirichlet in the AC stage), if any.
    contact_of: Vec<Option<usize>>,
    node_count: usize,
    link_count: usize,
    /// The DC Newton Jacobian.
    dc: SharedOperator,
    /// The DC Jacobian's write-once ILU(0) donor, published after a
    /// Newton solve converged, so it carries the donor's healthy iteration
    /// baseline. The AC operator has no ILU(0) donor: it prepares at its
    /// first frequency, before any solve, so a donation would carry no
    /// baseline and every recipient would rebuild it from its own values
    /// before its first solve anyway.
    dc_ilu: OnceLock<IluSeed<f64>>,
    /// The AC (electro-quasi-static) operator.
    ac: SharedOperator,
}

/// Aggregate symbolic-reuse statistics of one shared [`SolverTopology`]
/// (see [`SolverTopology::seed_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SeedReuseStats {
    /// A DC donor symbolic phase has been published.
    pub dc_seeded: bool,
    /// An AC donor symbolic phase has been published.
    pub ac_seeded: bool,
    /// A DC donor ILU(0) (Krylov-side seed) has been published.
    pub dc_ilu_seeded: bool,
    /// Always `false`: the AC operator publishes no ILU(0) donor (see
    /// [`SolverTopology`]). Kept so readers of these statistics keep their
    /// schema.
    pub ac_ilu_seeded: bool,
    /// Total stale-pivot re-pivoting fallbacks across every DC solve that
    /// reported into this topology.
    pub dc_stale_refactorizations: u64,
    /// Total stale-pivot re-pivoting fallbacks across every AC operator
    /// that reported into this topology.
    pub ac_stale_refactorizations: u64,
    /// Always 0: donors are write-once, so a published DC donor is never
    /// refreshed. Kept so readers of these statistics keep their schema.
    pub dc_donor_refreshes: u64,
    /// Always 0, as `dc_donor_refreshes`.
    pub ac_donor_refreshes: u64,
}

impl SolverTopology {
    /// Builds the shared topology of a structure.
    ///
    /// # Errors
    /// Returns [`FvmError::Configuration`] when the structure has no
    /// contacts.
    pub fn build(structure: &Structure) -> Result<Self, FvmError> {
        let mesh = &structure.mesh;
        if structure.contacts.is_empty() {
            return Err(FvmError::Configuration {
                detail: "structure has no contacts".to_string(),
            });
        }
        let terminals = label_terminals(structure);
        let mut node_links: Vec<Vec<LinkId>> = vec![Vec::new(); mesh.node_count()];
        for lid in mesh.link_ids() {
            let link = mesh.link(lid);
            node_links[link.from.index()].push(lid);
            node_links[link.to.index()].push(lid);
        }
        let mut contact_of = vec![None; mesh.node_count()];
        for (k, contact) in structure.contacts.iter().enumerate() {
            for &n in &contact.nodes {
                contact_of[n.index()] = Some(k);
            }
        }
        Ok(Self {
            terminals,
            node_links,
            contact_of,
            node_count: mesh.node_count(),
            link_count: mesh.link_count(),
            dc: SharedOperator::default(),
            dc_ilu: OnceLock::new(),
            ac: SharedOperator::default(),
        })
    }

    /// Terminal (conductor) labelling of the structure.
    pub fn terminals(&self) -> &TerminalMap {
        &self.terminals
    }

    /// Aggregate symbolic-reuse statistics: whether DC/AC donors have been
    /// published and how many stale-pivot re-pivots the solvers sharing
    /// this topology have reported.
    pub fn seed_stats(&self) -> SeedReuseStats {
        SeedReuseStats {
            dc_seeded: self.dc.symbolic.get().is_some(),
            ac_seeded: self.ac.symbolic.get().is_some(),
            dc_ilu_seeded: self.dc_ilu.get().is_some(),
            ac_ilu_seeded: false,
            dc_stale_refactorizations: self.dc.stale.load(Ordering::Relaxed),
            ac_stale_refactorizations: self.ac.stale.load(Ordering::Relaxed),
            dc_donor_refreshes: 0,
            ac_donor_refreshes: 0,
        }
    }

    /// Number of mesh nodes the topology was built for.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of mesh links the topology was built for.
    pub fn link_count(&self) -> usize {
        self.link_count
    }
}

/// The coupled EM–semiconductor FVM solver bound to one (possibly perturbed)
/// structure and doping profile.
///
/// See the crate-level documentation for the two-stage workflow
/// (DC operating point, then frequency-domain solve).
#[derive(Debug, Clone)]
pub struct CoupledSolver<'a> {
    structure: &'a Structure,
    doping: &'a DopingProfile,
    options: SolverOptions,
    /// Shared perturbation-invariant topology (see [`SolverTopology`]).
    topology: Arc<SolverTopology>,
    /// Geometric factor `dual_area / length` per link (µm) — geometry
    /// dependent, rebuilt per (perturbed) structure.
    link_factor: Vec<f64>,
}

impl<'a> CoupledSolver<'a> {
    /// Binds the solver to a structure and doping profile, building a fresh
    /// private [`SolverTopology`].
    ///
    /// # Errors
    /// Returns [`FvmError::Configuration`] when the doping profile does not
    /// cover the mesh or the structure has no contacts.
    pub fn new(
        structure: &'a Structure,
        doping: &'a DopingProfile,
        options: SolverOptions,
    ) -> Result<Self, FvmError> {
        let topology = Arc::new(SolverTopology::build(structure)?);
        Self::with_topology(structure, doping, options, topology)
    }

    /// Binds the solver to a structure re-using a shared [`SolverTopology`]
    /// built from a topologically identical (e.g. nominal, unperturbed)
    /// structure. Sample sweeps use this so terminal labelling, adjacency
    /// and the cached sparsity patterns are built once per analysis instead
    /// of once per sample.
    ///
    /// # Errors
    /// Returns [`FvmError::Configuration`] when the doping profile or the
    /// topology do not match the mesh.
    // vaem-lint: cold solver construction, once per sample
    pub fn with_topology(
        structure: &'a Structure,
        doping: &'a DopingProfile,
        options: SolverOptions,
        topology: Arc<SolverTopology>,
    ) -> Result<Self, FvmError> {
        let mesh = &structure.mesh;
        // Every comparison against a NaN tolerance is false, so a NaN would
        // pass a non-converged operating point as converged.
        let tolerance = options.newton_tolerance;
        if !(tolerance.is_finite() && tolerance > 0.0) || options.newton_max_iterations == 0 {
            return Err(FvmError::Configuration {
                detail: format!(
                    "Newton settings need a finite tolerance > 0 and at least one iteration; \
                     got tolerance {tolerance} and {} iterations",
                    options.newton_max_iterations
                ),
            });
        }
        if doping.len() != mesh.node_count() {
            return Err(FvmError::Configuration {
                detail: format!(
                    "doping profile covers {} nodes but the mesh has {}",
                    doping.len(),
                    mesh.node_count()
                ),
            });
        }
        if topology.node_count != mesh.node_count() || topology.link_count != mesh.link_count() {
            return Err(FvmError::Configuration {
                detail: format!(
                    "topology was built for {} nodes / {} links but the mesh has {} / {}",
                    topology.node_count,
                    topology.link_count,
                    mesh.node_count(),
                    mesh.link_count()
                ),
            });
        }
        let mut link_factor = vec![0.0; mesh.link_count()];
        for lid in mesh.link_ids() {
            let length = mesh.link_length(lid);
            link_factor[lid.index()] = if length > 1e-12 {
                mesh.dual_area(lid) / length
            } else {
                0.0
            };
        }
        Ok(Self {
            structure,
            doping,
            options,
            topology,
            link_factor,
        })
    }

    /// The structure the solver is bound to.
    pub fn structure(&self) -> &Structure {
        self.structure
    }

    /// Solver options.
    pub fn options(&self) -> &SolverOptions {
        &self.options
    }

    /// Terminal (conductor) labelling used by the solver.
    pub fn terminals(&self) -> &TerminalMap {
        &self.topology.terminals
    }

    /// The shared perturbation-invariant topology.
    pub fn topology(&self) -> &Arc<SolverTopology> {
        &self.topology
    }

    fn material(&self, node: NodeId) -> Material {
        self.structure.materials.material(node)
    }

    /// Solves the equilibrium (all terminals grounded) operating point.
    ///
    /// # Errors
    /// See [`CoupledSolver::solve_dc_with_biases`].
    pub fn solve_dc(&self) -> Result<DcSolution, FvmError> {
        self.solve_dc_with_biases(&BTreeMap::new())
    }

    /// Solves the DC operating point with the given terminal biases (V);
    /// terminals not listed are grounded.
    ///
    /// # Errors
    /// * [`FvmError::Linear`] when the inner linear solve fails.
    /// * [`FvmError::NewtonDidNotConverge`] when the Newton iteration stalls.
    pub fn solve_dc_with_biases(
        &self,
        biases: &BTreeMap<String, f64>,
    ) -> Result<DcSolution, FvmError> {
        let mesh = &self.structure.mesh;
        let n_nodes = mesh.node_count();
        let si = &self.options.silicon;
        let vt = si.thermal_voltage;
        let q = constants::ELEMENTARY_CHARGE;

        let bias_of = |contact: usize| -> f64 {
            let name = self.topology.terminals.name(contact);
            biases.get(name).copied().unwrap_or(0.0)
        };

        // Dirichlet values: every metal node pinned at its terminal bias;
        // non-metal contact nodes pinned at bias (+ built-in potential on
        // semiconductor ohmic contacts).
        // vaem-lint: allow(H1) Dirichlet mask construction, once per DC solve
        let mut dirichlet: Vec<Option<f64>> = vec![None; n_nodes];
        for node in mesh.node_ids() {
            let mat = self.material(node);
            if mat.is_metal() {
                if let Some(t) = self.topology.terminals.terminal(node) {
                    dirichlet[node.index()] = Some(bias_of(t));
                }
            } else if let Some(c) = self.topology.contact_of[node.index()] {
                let mut v = bias_of(c);
                if mat.is_semiconductor() {
                    v += si.built_in_potential(self.doping.donor(node), self.doping.acceptor(node));
                }
                dirichlet[node.index()] = Some(v);
            }
        }

        // Unknown numbering.
        // vaem-lint: allow(H1) unknown-numbering setup, once per DC solve
        let mut unknown_index: Vec<Option<usize>> = vec![None; n_nodes];
        // vaem-lint: allow(H1) unknown-numbering setup, once per DC solve
        let mut unknowns: Vec<NodeId> = Vec::new();
        for node in mesh.node_ids() {
            if dirichlet[node.index()].is_none() {
                unknown_index[node.index()] = Some(unknowns.len());
                unknowns.push(node);
            }
        }

        // Initial guess: built-in potential in the semiconductor, Dirichlet
        // elsewhere prescribed, zero in the dielectric.
        let mut potential: Vec<f64> = (0..n_nodes)
            .map(|i| {
                let node = NodeId(i);
                if let Some(v) = dirichlet[i] {
                    v
                } else if self.material(node).is_semiconductor() {
                    si.built_in_potential(self.doping.donor(node), self.doping.acceptor(node))
                } else {
                    0.0
                }
            })
            // vaem-lint: allow(H1) bias-table materialization, once per DC solve
            .collect();

        let clamp_exp = |x: f64| x.clamp(-60.0, 60.0);
        let linear = LinearSolver::new(self.options.linear_solver);

        // The Jacobian stencil is geometry-only: per unknown, the link
        // coefficient, the neighbour node and (when the neighbour is itself
        // an unknown) its column. Precomputing it keeps the per-iteration
        // assembly to pure arithmetic, and the structural pattern fixed.
        let stencils: Vec<Vec<(f64, usize, Option<usize>)>> = unknowns
            .iter()
            .map(|&node| {
                let mat_i = self.material(node);
                self.topology.node_links[node.index()]
                    .iter()
                    .map(|&lid| {
                        let link = mesh.link(lid);
                        let other = if link.from == node {
                            link.to
                        } else {
                            link.from
                        };
                        let eps =
                            link_permittivity(mat_i, self.material(other), &self.options.materials);
                        let c = eps * self.link_factor[lid.index()];
                        (c, other.index(), unknown_index[other.index()])
                    })
                    // vaem-lint: allow(H1) stencil precomputation keeps per-iteration assembly allocation-free
                    .collect()
            })
            // vaem-lint: allow(H1) stencil precomputation keeps per-iteration assembly allocation-free
            .collect();
        // Charge term data per unknown: (q·volume, net doping) for
        // semiconductor nodes, None elsewhere.
        let charge: Vec<Option<(f64, f64)>> = unknowns
            .iter()
            .map(|&node| {
                self.material(node)
                    .is_semiconductor()
                    .then(|| (q * mesh.node_volume(node), self.doping.net(node)))
            })
            // vaem-lint: allow(H1) charge-term table, once per DC solve
            .collect();

        let n_unknown = unknowns.len();
        // vaem-lint: allow(H1) Newton workspace sized once per DC solve, reused across iterations
        let mut rhs = vec![0.0_f64; n_unknown];
        let mut jac = TripletMatrix::with_capacity(n_unknown, n_unknown, n_unknown * 7);
        // The Jacobian on the topology's shared pattern and its linear
        // solver, prepared on the first iteration (seeded from the donors
        // published by the nominal sample, so perturbed samples skip the
        // ordering/DFS/pivot search or the ILU(0) build); every later Newton
        // step only re-assembles the values and refactorizes numerically.
        let mut jacobian = OperatorState::default();

        let mut iterations = 0usize;
        let mut update_norm = f64::INFINITY;
        while iterations < self.options.newton_max_iterations {
            iterations += 1;
            jac.clear();

            for (ui, &node) in unknowns.iter().enumerate() {
                let vi = potential[node.index()];
                let mut diag = 0.0;
                let mut residual = 0.0;
                for &(c, other, uj) in &stencils[ui] {
                    residual += c * (potential[other] - vi);
                    diag -= c;
                    if let Some(uj) = uj {
                        jac.push(ui, uj, c);
                    }
                }
                if let Some((qvol, net)) = charge[ui] {
                    let n = si.intrinsic_density * clamp_exp(vi / vt).exp();
                    let p = si.intrinsic_density * clamp_exp(-vi / vt).exp();
                    residual += qvol * (p - n + net);
                    diag -= qvol * (n + p) / vt;
                }
                jac.push(ui, ui, diag);
                // Solve J·δ = -F.
                rhs[ui] = -residual;
            }

            let (mut delta, _report) = self
                .topology
                .dc
                .factor(
                    &mut jacobian,
                    &jac,
                    &linear,
                    self.options.seeding,
                    self.topology.dc_ilu.get(),
                )?
                .solve(&rhs)?;

            // A non-finite update poisons the operating point silently:
            // `f64::max` ignores NaN, so an all-NaN delta would pass both
            // the damping and the convergence norm below as 0.0 and the
            // garbage would only surface factorizations later. Fail here,
            // where the cause is still attributable to this solve.
            if delta.iter().any(|d| !d.is_finite()) {
                return Err(FvmError::NonFinite {
                    // vaem-lint: allow(H1) non-finite-update error message, failure path only
                    detail: format!(
                        "DC Newton update contains non-finite entries at iteration {iterations}"
                    ),
                });
            }
            // Damp large Newton steps (potential updates beyond 1 V are
            // truncated, preserving direction).
            let max_step = delta.iter().fold(0.0_f64, |m, d| m.max(d.abs()));
            if max_step > 1.0 {
                let scale = 1.0 / max_step;
                for d in &mut delta {
                    *d *= scale;
                }
            }
            for (ui, &node) in unknowns.iter().enumerate() {
                potential[node.index()] += delta[ui];
            }
            update_norm = delta.iter().fold(0.0_f64, |m, d| m.max(d.abs()));
            if !update_norm.is_finite() {
                return Err(FvmError::NewtonDidNotConverge {
                    iterations,
                    update_norm,
                });
            }
            if update_norm < self.options.newton_tolerance {
                break;
            }
        }
        if update_norm >= self.options.newton_tolerance && update_norm > 1e-6 {
            return Err(FvmError::NewtonDidNotConverge {
                iterations,
                update_norm,
            });
        }

        // Publish this solve's factorization for later samples (the first
        // publisher wins for good — the nominal, when the analysis pre-runs
        // it) and report stale-pivot re-pivots into the shared statistics.
        self.topology.dc.report(&mut jacobian, self.options.seeding);
        if self.options.seeding == Seeding::Publish && self.topology.dc_ilu.get().is_none() {
            if let Some(seed) = jacobian.prepared.as_ref().and_then(|p| p.ilu_donor()) {
                self.topology.dc_ilu.get_or_init(|| seed);
            }
        }

        // Carrier densities from the converged potential.
        // vaem-lint: allow(H1) carrier-density output arrays, once per converged DC solve
        let mut electron_density = vec![0.0; n_nodes];
        // vaem-lint: allow(H1) carrier-density output arrays, once per converged DC solve
        let mut hole_density = vec![0.0; n_nodes];
        for node in mesh.node_ids() {
            if self.material(node).is_semiconductor() {
                let v = potential[node.index()];
                electron_density[node.index()] = si.intrinsic_density * clamp_exp(v / vt).exp();
                hole_density[node.index()] = si.intrinsic_density * clamp_exp(-v / vt).exp();
            }
        }

        Ok(DcSolution {
            potential,
            electron_density,
            hole_density,
            newton_iterations: iterations,
            final_update_norm: update_norm,
        })
    }

    /// Solves the frequency-domain problem with 1 V applied to
    /// `driven_terminal` and 0 V on every other contact. Other excitations
    /// (complex, several contacts at once) go through
    /// [`AcSweepOperator::solve`] on [`CoupledSolver::prepare_ac`].
    ///
    /// # Errors
    /// * [`FvmError::Configuration`] for an unknown terminal name.
    /// * [`FvmError::Linear`] when the linear solve fails.
    pub fn solve_ac(
        &self,
        dc: &DcSolution,
        driven_terminal: &str,
        frequency: f64,
    ) -> Result<AcSolution, FvmError> {
        self.prepare_ac(dc, frequency)?
            .solve_terminal(driven_terminal)
    }

    /// Assembles and factorizes the frequency-domain operator once for a
    /// given operating point and frequency.
    ///
    /// The AC system matrix depends only on `(dc, frequency)` — every
    /// contact node is a Dirichlet node regardless of which terminal is
    /// driven, so only the right-hand side changes between excitations. The
    /// returned operator therefore amortizes the assembly and the ILU/LU
    /// setup across all terminal solves at this frequency (the
    /// capacitance-matrix extraction and the wPFA weight solve reuse it).
    ///
    /// Equivalent to [`CoupledSolver::prepare_ac_sweep`] followed by
    /// [`AcSweepOperator::set_frequency`]; use the sweep operator directly
    /// to walk a whole frequency grid against one assembly.
    ///
    /// # Errors
    /// * [`FvmError::Linear`] when the factorization fails.
    pub fn prepare_ac<'s>(
        &'s self,
        dc: &DcSolution,
        frequency: f64,
    ) -> Result<AcSweepOperator<'s, 'a>, FvmError> {
        let mut operator = self.prepare_ac_sweep(dc)?;
        operator.set_frequency(frequency)?;
        Ok(operator)
    }

    /// Prepares the frequency-agnostic part of the AC operator for one DC
    /// operating point: the Dirichlet structure, the assembly stencils, the
    /// semiconductor small-signal conductivities and the workspaces.
    ///
    /// The returned [`AcSweepOperator`] walks a frequency grid by rebuilding
    /// only the frequency-dependent values into the cached CSR pattern
    /// (`assemble_into`) and refactorizing numerically against the cached
    /// symbolic phase; [`AcSweepOperator::sweep_terminal`] additionally
    /// warm-starts every point from the previous solution.
    ///
    /// # Errors
    /// Never fails today; returns `Result` for forward compatibility with
    /// configuration validation.
    // vaem-lint: cold sweep preparation, once per sample
    pub fn prepare_ac_sweep<'s>(
        &'s self,
        dc: &DcSolution,
    ) -> Result<AcSweepOperator<'s, 'a>, FvmError> {
        let mesh = &self.structure.mesh;
        let n_nodes = mesh.node_count();
        let si = &self.options.silicon;

        // Frequency-independent: the semiconductor small-signal conductivity
        // of the operating point.
        let sigma_semi: Vec<f64> = (0..n_nodes)
            .map(|i| {
                let node = NodeId(i);
                if self.material(node).is_semiconductor() {
                    si.bulk_conductivity(dc.electron_at(node), dc.hole_at(node))
                } else {
                    0.0
                }
            })
            .collect();

        // Dirichlet structure: every contact node, whatever its excitation.
        let mut unknown_index: Vec<Option<usize>> = vec![None; n_nodes];
        let mut unknowns: Vec<NodeId> = Vec::new();
        for node in mesh.node_ids() {
            if self.topology.contact_of[node.index()].is_none() {
                unknown_index[node.index()] = Some(unknowns.len());
                unknowns.push(node);
            }
        }

        // Assembly stencil per unknown row: the incident links and, when the
        // neighbour is itself an unknown, its column. Couplings into
        // Dirichlet neighbours move to the right-hand side per excitation.
        let n_unknown = unknowns.len();
        let mut stencils: Vec<Vec<(LinkId, Option<usize>)>> = Vec::with_capacity(n_unknown);
        let mut boundary: Vec<(usize, LinkId, usize)> = Vec::new();
        for (ui, &node) in unknowns.iter().enumerate() {
            let links = &self.topology.node_links[node.index()];
            let mut row = Vec::with_capacity(links.len());
            for &lid in links {
                let link = mesh.link(lid);
                let other = if link.from == node {
                    link.to
                } else {
                    link.from
                };
                let uj = unknown_index[other.index()];
                if uj.is_none() {
                    let contact = self.topology.contact_of[other.index()]
                        .expect("non-unknown node is a contact");
                    boundary.push((ui, lid, contact));
                }
                row.push((lid, uj));
            }
            stencils.push(row);
        }

        Ok(AcSweepOperator {
            solver: self,
            sigma_semi,
            unknowns,
            unknown_index,
            stencils,
            boundary,
            node_y: vec![Complex64::ZERO; n_nodes],
            link_admittance: vec![Complex64::ZERO; mesh.link_count()],
            triplets: TripletMatrix::with_capacity(n_unknown, n_unknown, n_unknown * 7),
            operator: OperatorState::default(),
            warm: None,
            omega: f64::NAN,
        })
    }

    /// One-way coupled vector-potential solve (simplified eq. 3): each
    /// Cartesian component of `A` satisfies a Poisson-type equation on the
    /// link graph with the link currents as sources,
    /// `Σ (A_m − A_l)/µ_r + K·I_l = 0`, with `A = 0` on boundary links.
    fn solve_vector_potential(
        &self,
        mesh: &vaem_mesh::CartesianMesh,
        potential: &[Complex64],
        link_admittance: &[Complex64],
    ) -> Result<Vec<Complex64>, FvmError> {
        // Lookup from (axis, from-node) to link id for neighbour search.
        let mut by_from: HashMap<(usize, usize), usize> = HashMap::new(); // vaem-lint: allow(D1) lookup-only: filled once, then queried via .get(); never iterated, so no order dependence
        for lid in mesh.link_ids() {
            let link = mesh.link(lid);
            by_from.insert((link.axis.as_usize(), link.from.index()), lid.index());
        }
        let n_links = mesh.link_count();
        let mut matrix = TripletMatrix::with_capacity(n_links, n_links, n_links * 7);
        // vaem-lint: allow(H1) AC assembly workspace, once per frequency solve
        let mut rhs = vec![Complex64::ZERO; n_links];
        // Scaling constant K of the paper's eq. (3): µ0 here (SI, µm units).
        let k_scale = constants::VACUUM_PERMEABILITY;

        for lid in mesh.link_ids() {
            let l = lid.index();
            let link = mesh.link(lid);
            // Boundary links (touching the domain boundary) are pinned to 0.
            if mesh.is_boundary(link.from) || mesh.is_boundary(link.to) {
                matrix.push(l, l, Complex64::ONE);
                continue;
            }
            let mut diag = Complex64::ZERO;
            for axis in Axis::ALL {
                for forward in [false, true] {
                    let neighbour_from = mesh.neighbor(link.from, axis, forward);
                    if let Some(nf) = neighbour_from {
                        if let Some(&m) = by_from.get(&(link.axis.as_usize(), nf.index())) {
                            matrix.push(l, m, Complex64::ONE);
                            diag -= Complex64::ONE;
                        }
                    }
                }
            }
            matrix.push(l, l, diag);
            // Source: link current (conduction + displacement) times K.
            let current =
                link_admittance[l] * (potential[link.from.index()] - potential[link.to.index()]);
            rhs[l] = -(current.scale(k_scale));
        }

        let linear = LinearSolver::new(self.options.linear_solver);
        let (a, _report) = linear.solve(&matrix.to_csr(), &rhs)?;
        Ok(a)
    }
}

/// A sweep-aware factorized frequency-domain operator bound to one DC
/// operating point (see [`CoupledSolver::prepare_ac_sweep`]).
///
/// At one frequency, each [`AcSweepOperator::solve`] call only rebuilds the
/// right-hand side from the excitations and runs the cached
/// direct/ILU-preconditioned solve, so sweeping every terminal of a
/// structure costs one assembly and one factorization in total. Across
/// frequencies, [`AcSweepOperator::set_frequency`] rebuilds only the
/// frequency-dependent values into the cached CSR pattern and refactorizes
/// numerically (the symbolic phase and all workspaces are kept), and
/// [`AcSweepOperator::sweep_terminal`] warm-starts each point from the
/// previous solution.
#[derive(Debug, Clone)]
pub struct AcSweepOperator<'s, 'a> {
    solver: &'s CoupledSolver<'a>,
    /// Semiconductor small-signal conductivity per node (ω-independent).
    sigma_semi: Vec<f64>,
    unknowns: Vec<NodeId>,
    unknown_index: Vec<Option<usize>>,
    /// Per unknown row: incident links and the column of the neighbour when
    /// it is itself an unknown (`None` = Dirichlet neighbour).
    stencils: Vec<Vec<(LinkId, Option<usize>)>>,
    /// Couplings of unknown rows into Dirichlet (contact) neighbours:
    /// `(row, link, contact index)`.
    boundary: Vec<(usize, LinkId, usize)>,
    /// Scratch: per-node admittivity at the current frequency.
    node_y: Vec<Complex64>,
    /// Link admittance `y·g` (S) at the current frequency.
    link_admittance: Vec<Complex64>,
    /// Reused assembly buffer.
    triplets: TripletMatrix<Complex64>,
    /// The operator on the topology's shared pattern and its linear
    /// solver, prepared at the first frequency and refactorized since.
    operator: OperatorState<Complex64>,
    /// Solution (on the unknown nodes) of the most recent
    /// [`AcSweepOperator::solve_at`], used to warm-start the next one.
    warm: Option<Vec<Complex64>>,
    /// Angular frequency of the current factorization (NaN before the first
    /// [`AcSweepOperator::set_frequency`]).
    omega: f64,
}

impl AcSweepOperator<'_, '_> {
    /// Angular frequency ω (rad/s) of the current factorization.
    pub fn omega(&self) -> f64 {
        self.omega
    }

    /// Number of unknown (non-contact) nodes.
    pub fn unknown_count(&self) -> usize {
        self.unknowns.len()
    }

    /// Re-targets the operator to a new frequency: recomputes the node/link
    /// admittances, rebuilds the matrix values into the cached sparsity
    /// pattern and refactorizes numerically against the cached symbolic
    /// phase of the linear solver.
    ///
    /// # Errors
    /// * [`FvmError::Configuration`] for a non-finite or negative frequency.
    /// * [`FvmError::Linear`] when the refactorization fails.
    pub fn set_frequency(&mut self, frequency: f64) -> Result<(), FvmError> {
        if !frequency.is_finite() || frequency < 0.0 {
            return Err(FvmError::Configuration {
                // vaem-lint: allow(H1) frequency-update failure message, error path only
                detail: format!("invalid AC frequency {frequency} Hz"),
            });
        }
        let solver = self.solver;
        let mesh = &solver.structure.mesh;
        let omega = 2.0 * std::f64::consts::PI * frequency;

        for (i, y) in self.node_y.iter_mut().enumerate() {
            *y = node_admittivity(
                solver.material(NodeId(i)),
                self.sigma_semi[i],
                omega,
                &solver.options.materials,
            );
        }
        for lid in mesh.link_ids() {
            let link = mesh.link(lid);
            let y = link_admittivity(self.node_y[link.from.index()], self.node_y[link.to.index()]);
            self.link_admittance[lid.index()] = y.scale(solver.link_factor[lid.index()]);
        }

        // Only the values change between frequencies: push the new ones and
        // re-assemble into the fixed pattern.
        self.triplets.clear();
        for (ui, row) in self.stencils.iter().enumerate() {
            let mut diag = Complex64::ZERO;
            for &(lid, uj) in row {
                let ya = self.link_admittance[lid.index()];
                diag -= ya;
                if let Some(uj) = uj {
                    self.triplets.push(ui, uj, ya);
                }
            }
            self.triplets.push(ui, ui, diag);
        }
        // Only the first frequency prepares (seeded from the symbolic donor
        // the nominal sample's sweep published; there is no AC ILU(0)
        // donor); later points merely refactorize this operator's own
        // (possibly re-recorded) structure.
        let linear = LinearSolver::new(solver.options.linear_solver);
        let ac = &solver.topology.ac;
        ac.factor(
            &mut self.operator,
            &self.triplets,
            &linear,
            solver.options.seeding,
            None,
        )?;
        ac.report(&mut self.operator, solver.options.seeding);
        self.omega = omega;
        Ok(())
    }

    /// Solves for a 1 V excitation on `driven_terminal` with every other
    /// contact grounded: the one-element case of
    /// [`AcSweepOperator::solve_terminals`].
    ///
    /// # Errors
    /// Same conditions as [`AcSweepOperator::solve`].
    pub fn solve_terminal(&mut self, driven_terminal: &str) -> Result<AcSolution, FvmError> {
        let mut solved =
            self.solve_terminals(std::slice::from_ref(&driven_terminal.to_string()))?;
        Ok(solved.remove(0))
    }

    /// Solves one column per entry of `driven`: a 1 V excitation on that
    /// terminal with every other contact grounded, in order.
    ///
    /// The columns share this operator's factorization and go through
    /// [`PreparedSolver::solve_many`], which runs them in lockstep chunks
    /// against one ILU(0) when the operator is iterative. Every solution is
    /// bit-identical to a [`AcSweepOperator::solve_terminal`] call for its
    /// terminal. All returned solutions are alive at once, each with its
    /// own copy of the link-admittance table, so callers with many
    /// terminals (see [`crate::postprocess::capacitance_matrix`]) pass a
    /// few at a time.
    ///
    /// # Errors
    /// Same conditions as [`AcSweepOperator::solve`]; the first failing
    /// column fails the call.
    pub fn solve_terminals(&mut self, driven: &[String]) -> Result<Vec<AcSolution>, FvmError> {
        // A missing frequency is reported before the excitations are checked.
        self.prepared()?;
        let excitations: Vec<BTreeMap<String, Complex64>> = driven
            .iter()
            .map(|name| BTreeMap::from([(name.clone(), Complex64::ONE)]))
            .collect();
        let rhs = excitations
            .iter()
            .map(|e| self.rhs_for(e))
            .collect::<Result<Vec<_>, _>>()?;
        let solved = self.prepared()?.solve_many(&rhs)?;
        drop(rhs);
        excitations
            .iter()
            .zip(driven)
            .zip(solved)
            .map(|((e, name), (solution, report))| self.solution_from(e, name, &solution, &report))
            .collect()
    }

    /// Solves the prepared system for one set of complex contact excitations
    /// (unlisted contacts are grounded).
    ///
    /// # Errors
    /// * [`FvmError::Configuration`] for an unknown terminal name or when no
    ///   frequency has been set.
    /// * [`FvmError::Linear`] when the cached solve fails.
    pub fn solve(
        &mut self,
        excitations: &BTreeMap<String, Complex64>,
        driven_label: &str,
    ) -> Result<AcSolution, FvmError> {
        self.solve_inner(excitations, driven_label, None)
            .map(|(ac, _)| ac)
    }

    /// Walks a frequency grid for one driven terminal (1 V, every other
    /// contact grounded), refactorizing numerically per point and
    /// warm-starting each solve from the previous point's solution.
    ///
    /// Returns one [`AcSolution`] per entry of `frequencies`, in order.
    ///
    /// # Errors
    /// Propagates the first per-point failure.
    pub fn sweep_terminal(
        &mut self,
        frequencies: &[f64],
        driven_terminal: &str,
    ) -> Result<Vec<AcSolution>, FvmError> {
        // Each grid walk starts cold, so back-to-back sweeps of the same
        // operator reproduce each other exactly.
        self.warm = None;
        let mut out = Vec::with_capacity(frequencies.len());
        for &frequency in frequencies {
            out.push(self.solve_at(frequency, driven_terminal)?);
        }
        Ok(out)
    }

    /// Out-of-order single-point solve for adaptive refinement: re-targets
    /// the operator to `frequency` (values rebuilt into the cached CSR
    /// pattern, numeric refactorization against the cached/seeded symbolic
    /// phase) and solves for a 1 V excitation on `driven_terminal`,
    /// warm-starting from the most recent `solve_at` solution.
    ///
    /// Unlike [`AcSweepOperator::sweep_terminal`] the points may arrive in
    /// any order — a refinement wave inserts midpoints between already
    /// solved frequencies — and each point costs the same as one grid point
    /// of a dense sweep.
    ///
    /// # Errors
    /// Same conditions as [`AcSweepOperator::set_frequency`] and
    /// [`AcSweepOperator::solve`].
    pub fn solve_at(
        &mut self,
        frequency: f64,
        driven_terminal: &str,
    ) -> Result<AcSolution, FvmError> {
        self.set_frequency(frequency)?;
        let mut excitations = BTreeMap::new();
        // vaem-lint: allow(H1) terminal-label key for the excitation map, once per frequency solve
        excitations.insert(driven_terminal.to_string(), Complex64::ONE);
        let guess = self.warm.take();
        let (ac, solution) = self.solve_inner(&excitations, driven_terminal, guess.as_deref())?;
        self.warm = Some(solution);
        Ok(ac)
    }

    /// Shared solve path; returns the solution restricted to the unknown
    /// nodes alongside the assembled [`AcSolution`] so sweeps can warm-start
    /// the next point.
    fn solve_inner(
        &mut self,
        excitations: &BTreeMap<String, Complex64>,
        driven_label: &str,
        guess: Option<&[Complex64]>,
    ) -> Result<(AcSolution, Vec<Complex64>), FvmError> {
        // A missing frequency is reported before the excitations are checked.
        self.prepared()?;
        let rhs = self.rhs_for(excitations)?;
        let (solution, report) = self.prepared()?.solve_with_guess(&rhs, guess)?;
        let ac = self.solution_from(excitations, driven_label, &solution, &report)?;
        Ok((ac, solution))
    }

    /// The prepared linear solver of the current frequency.
    fn prepared(&mut self) -> Result<&mut PreparedSolver<Complex64>, FvmError> {
        self.operator
            .prepared
            .as_mut()
            .ok_or_else(|| FvmError::Configuration {
                // vaem-lint: allow(H1) configuration-error message, failure path only
                detail: "AC operator has no frequency set (call set_frequency first)".to_string(),
            })
    }

    /// The applied potential of `contact` under `excitations` (grounded
    /// when unlisted).
    fn excitation_of(
        &self,
        excitations: &BTreeMap<String, Complex64>,
        contact: usize,
    ) -> Complex64 {
        excitations
            .get(self.solver.terminals().name(contact))
            .copied()
            .unwrap_or(Complex64::ZERO)
    }

    /// The right-hand side of one set of contact excitations: couplings of
    /// the unknown rows into their Dirichlet neighbours.
    fn rhs_for(
        &self,
        excitations: &BTreeMap<String, Complex64>,
    ) -> Result<Vec<Complex64>, FvmError> {
        for name in excitations.keys() {
            if self.solver.terminals().index_of(name).is_none() {
                return Err(FvmError::Configuration {
                    // vaem-lint: allow(H1) unknown-terminal error message, failure path only
                    detail: format!("unknown terminal '{name}'"),
                });
            }
        }
        // vaem-lint: allow(H1) AC right-hand side sized once per frequency solve
        let mut rhs = vec![Complex64::ZERO; self.unknowns.len()];
        for &(ui, lid, contact) in &self.boundary {
            rhs[ui] -= self.link_admittance[lid.index()] * self.excitation_of(excitations, contact);
        }
        Ok(rhs)
    }

    /// Assembles the [`AcSolution`] of one solved column: scatters the
    /// unknowns' `solution` into node space next to the contact
    /// excitations and, in full-wave mode, solves the vector potential.
    fn solution_from(
        &self,
        excitations: &BTreeMap<String, Complex64>,
        driven_label: &str,
        solution: &[Complex64],
        report: &SolveReport,
    ) -> Result<AcSolution, FvmError> {
        let solver = self.solver;
        let mesh = &solver.structure.mesh;
        // vaem-lint: allow(H1) solution scatter into node space, once per frequency solve
        let mut potential = vec![Complex64::ZERO; mesh.node_count()];
        for node in mesh.node_ids() {
            let i = node.index();
            potential[i] = match self.unknown_index[i] {
                Some(ui) => solution[ui],
                None => {
                    let contact =
                        solver.topology.contact_of[i].expect("non-unknown node is a contact");
                    self.excitation_of(excitations, contact)
                }
            };
        }

        let vector_potential = match solver.options.em_mode {
            EmMode::ElectroQuasiStatic => None,
            EmMode::FullWave => {
                Some(solver.solve_vector_potential(mesh, &potential, &self.link_admittance)?)
            }
        };

        Ok(AcSolution {
            potential,
            // vaem-lint: allow(H2) the solution record owns its admittance table; one copy per frequency solve
            link_admittance: self.link_admittance.clone(),
            vector_potential,
            omega: self.omega,
            // vaem-lint: allow(H1) terminal-label copy into the solution record, once per frequency solve
            driven_terminal: driven_label.to_string(),
            solver_strategy: report.strategy,
            linear_residual: report.residual_norm,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaem_mesh::{BoxRegion, StructureBuilder};

    /// Parallel-plate capacitor: two metal plates separated by dielectric.
    fn parallel_plate(spacing: f64) -> Structure {
        StructureBuilder::new(Material::Insulator)
            .with_max_spacing(spacing)
            .add_box(BoxRegion::new(
                [0.0, 0.0, 0.0],
                [4.0, 4.0, 1.0],
                Material::Metal,
            ))
            .add_box(BoxRegion::new(
                [0.0, 0.0, 3.0],
                [4.0, 4.0, 4.0],
                Material::Metal,
            ))
            .add_contact_box("bottom", [0.0, 0.0, 0.0], [4.0, 4.0, 0.0])
            .add_contact_box("top", [0.0, 0.0, 4.0], [4.0, 4.0, 4.0])
            .build()
    }

    #[test]
    fn dc_equilibrium_converges_on_a_doped_block() {
        use vaem_mesh::structures::metalplug::{build_metalplug_structure, MetalPlugConfig};
        let s = build_metalplug_structure(&MetalPlugConfig::coarse());
        let semis = s.semiconductor_nodes();
        let doping = DopingProfile::uniform_donor(s.mesh.node_count(), &semis, 1.0e5);
        let solver = CoupledSolver::new(&s, &doping, SolverOptions::default()).unwrap();
        let dc = solver.solve_dc().unwrap();
        assert!(dc.newton_iterations < 40);
        // Bulk silicon sits near the built-in potential.
        let vbi = SiliconParams::default().built_in_potential(1.0e5, 0.0);
        let bulk = semis.iter().map(|&n| dc.potential_at(n)).sum::<f64>() / semis.len() as f64;
        assert!((bulk - vbi).abs() < 0.15, "bulk {bulk} vs vbi {vbi}");
        // Carrier densities follow the doping in the bulk.
        let n_mean: f64 =
            semis.iter().map(|&n| dc.electron_at(n)).sum::<f64>() / semis.len() as f64;
        assert!(n_mean > 1.0e4, "mean electron density {n_mean}");
    }

    #[test]
    fn ac_parallel_plate_capacitance_matches_analytic_estimate() {
        let s = parallel_plate(0.5);
        let doping = DopingProfile::undoped(s.mesh.node_count());
        let solver = CoupledSolver::new(&s, &doping, SolverOptions::default()).unwrap();
        let dc = solver.solve_dc().unwrap();
        let freq = 1.0e6;
        let ac = solver.solve_ac(&dc, "top", freq).unwrap();
        let i_top = crate::postprocess::terminal_current(&solver, &ac, "top").unwrap();
        let c_self = i_top.im / ac.omega;
        // Ideal C = eps0*eps_ox*A/d with A = 16 µm², d = 2 µm (fringing adds a bit).
        let ideal = constants::VACUUM_PERMITTIVITY * constants::OXIDE_REL_PERMITTIVITY * 16.0 / 2.0;
        assert!(
            c_self > 0.8 * ideal && c_self < 2.5 * ideal,
            "C = {c_self}, ideal = {ideal}"
        );
        // Coupling to the other plate is negative and of similar magnitude.
        let i_bottom = crate::postprocess::terminal_current(&solver, &ac, "bottom").unwrap();
        let c_mutual = i_bottom.im / ac.omega;
        assert!(c_mutual < 0.0);
        assert!(c_mutual.abs() > 0.5 * c_self);
    }

    #[test]
    fn unknown_terminal_is_a_configuration_error() {
        let s = parallel_plate(1.0);
        let doping = DopingProfile::undoped(s.mesh.node_count());
        let solver = CoupledSolver::new(&s, &doping, SolverOptions::default()).unwrap();
        let dc = solver.solve_dc().unwrap();
        assert!(matches!(
            solver.solve_ac(&dc, "does-not-exist", 1e9),
            Err(FvmError::Configuration { .. })
        ));
    }

    #[test]
    fn mismatched_doping_length_is_rejected() {
        let s = parallel_plate(1.0);
        let doping = DopingProfile::undoped(3);
        assert!(matches!(
            CoupledSolver::new(&s, &doping, SolverOptions::default()),
            Err(FvmError::Configuration { .. })
        ));
    }

    #[test]
    fn full_wave_mode_produces_vector_potential() {
        let s = parallel_plate(1.0);
        let doping = DopingProfile::undoped(s.mesh.node_count());
        let options = SolverOptions {
            em_mode: EmMode::FullWave,
            ..SolverOptions::default()
        };
        let solver = CoupledSolver::new(&s, &doping, options).unwrap();
        let dc = solver.solve_dc().unwrap();
        let ac = solver.solve_ac(&dc, "top", 1.0e9).unwrap();
        let a = ac.vector_potential.as_ref().expect("full wave stores A");
        assert_eq!(a.len(), s.mesh.link_count());
        assert!(a.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn frequency_sweep_matches_per_frequency_solves() {
        let s = parallel_plate(0.5);
        let doping = DopingProfile::undoped(s.mesh.node_count());
        let solver = CoupledSolver::new(&s, &doping, SolverOptions::default()).unwrap();
        let dc = solver.solve_dc().unwrap();
        let frequencies = [1.0e6, 1.0e7, 1.0e8, 1.0e9];
        let mut sweep = solver.prepare_ac_sweep(&dc).unwrap();
        let swept = sweep.sweep_terminal(&frequencies, "top").unwrap();
        assert_eq!(swept.len(), frequencies.len());
        for (freq, ac) in frequencies.iter().zip(swept.iter()) {
            let reference = solver.solve_ac(&dc, "top", *freq).unwrap();
            assert_eq!(ac.omega, reference.omega);
            let mut max_diff = 0.0_f64;
            let mut max_ref = 0.0_f64;
            for (a, b) in ac.potential.iter().zip(reference.potential.iter()) {
                max_diff = max_diff.max((*a - *b).abs());
                max_ref = max_ref.max(b.abs());
            }
            assert!(
                max_diff <= 1e-8 * max_ref.max(1e-30),
                "potentials diverged at {freq} Hz: {max_diff:.3e} vs scale {max_ref:.3e}"
            );
        }
    }

    #[test]
    fn shared_topology_solver_matches_a_private_one() {
        let s = parallel_plate(0.5);
        let doping = DopingProfile::undoped(s.mesh.node_count());
        let topology = Arc::new(SolverTopology::build(&s).unwrap());
        let shared =
            CoupledSolver::with_topology(&s, &doping, SolverOptions::default(), topology.clone())
                .unwrap();
        let private = CoupledSolver::new(&s, &doping, SolverOptions::default()).unwrap();
        let dc_shared = shared.solve_dc().unwrap();
        let dc_private = private.solve_dc().unwrap();
        for (a, b) in dc_shared.potential.iter().zip(dc_private.potential.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
        // A second shared-topology solver re-uses the cached patterns.
        let again =
            CoupledSolver::with_topology(&s, &doping, SolverOptions::default(), topology).unwrap();
        let dc_again = again.solve_dc().unwrap();
        assert_eq!(dc_shared.potential, dc_again.potential);
    }

    #[test]
    fn topology_publishes_seeds_and_seeded_solves_match_unseeded_bits() {
        // Coarse enough that both stages stay below the Auto direct-LU
        // threshold (an iterative strategy has no symbolic phase to seed).
        let s = parallel_plate(1.0);
        let doping = DopingProfile::undoped(s.mesh.node_count());
        let topology = Arc::new(SolverTopology::build(&s).unwrap());
        assert!(!topology.seed_stats().dc_seeded);

        // The first (donor) solver publishes its DC and AC symbolic phases.
        let donor =
            CoupledSolver::with_topology(&s, &doping, SolverOptions::default(), topology.clone())
                .unwrap();
        let dc_donor = donor.solve_dc().unwrap();
        let _ = donor.solve_ac(&dc_donor, "top", 1.0e9).unwrap();
        let stats = topology.seed_stats();
        assert!(stats.dc_seeded && stats.ac_seeded, "stats {stats:?}");
        assert_eq!(stats.dc_stale_refactorizations, 0);
        assert_eq!(stats.ac_stale_refactorizations, 0);

        // A second solver on the shared topology consumes the seeds...
        let seeded =
            CoupledSolver::with_topology(&s, &doping, SolverOptions::default(), topology.clone())
                .unwrap();
        let dc_seeded = seeded.solve_dc().unwrap();
        let ac_seeded = seeded.solve_ac(&dc_seeded, "top", 1.0e9).unwrap();

        // ...and must reproduce an unseeded solver bit for bit.
        let unseeded_options = SolverOptions {
            seeding: Seeding::Off,
            ..SolverOptions::default()
        };
        let private = CoupledSolver::new(&s, &doping, unseeded_options).unwrap();
        let dc_ref = private.solve_dc().unwrap();
        let ac_ref = private.solve_ac(&dc_ref, "top", 1.0e9).unwrap();
        assert_eq!(
            dc_seeded
                .potential
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            dc_ref
                .potential
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            "seeded DC potentials diverged from the unseeded path"
        );
        let ac_bits = |ac: &AcSolution| {
            ac.potential
                .iter()
                .flat_map(|v| [v.re.to_bits(), v.im.to_bits()])
                .collect::<Vec<_>>()
        };
        assert_eq!(
            ac_bits(&ac_seeded),
            ac_bits(&ac_ref),
            "seeded AC potentials diverged from the unseeded path"
        );
    }

    #[test]
    fn iterative_strategies_publish_and_consume_ilu_donations() {
        // Force the Krylov path so the topology shares ILU(0) values
        // instead of symbolic LU phases.
        let s = parallel_plate(0.5);
        let doping = DopingProfile::undoped(s.mesh.node_count());
        let options = SolverOptions {
            linear_solver: SolverKind::IluBiCgStab,
            ..SolverOptions::default()
        };
        let topology = Arc::new(SolverTopology::build(&s).unwrap());
        assert!(!topology.seed_stats().dc_ilu_seeded);

        let donor =
            CoupledSolver::with_topology(&s, &doping, options.clone(), topology.clone()).unwrap();
        let dc_donor = donor.solve_dc().unwrap();
        let _ = donor.solve_ac(&dc_donor, "top", 1.0e9).unwrap();
        let stats = topology.seed_stats();
        // The converged Newton solve donates its ILU(0); the AC operator
        // prepares before any solve, so it publishes none.
        assert!(stats.dc_ilu_seeded, "DC must donate its ILU(0): {stats:?}");
        assert!(!stats.ac_ilu_seeded, "AC must not donate: {stats:?}");
        // The direct donors stay empty — there was no symbolic phase.
        assert!(!stats.dc_seeded && !stats.ac_seeded, "stats {stats:?}");

        // A sibling on the shared topology starts its Newton solve from the
        // donated preconditioner and reproduces the physics...
        let seeded =
            CoupledSolver::with_topology(&s, &doping, options.clone(), topology.clone()).unwrap();
        let dc_seeded = seeded.solve_dc().unwrap();
        for (a, b) in dc_seeded.potential.iter().zip(dc_donor.potential.iter()) {
            assert!((a - b).abs() < 1e-7, "seeded DC diverged: {a} vs {b}");
        }
        // ...while its AC operator builds its own ILU(0): on the same
        // operating point it matches an unseeded solver bit for bit.
        let ac_seeded = seeded.solve_ac(&dc_seeded, "top", 1.0e9).unwrap();
        let unseeded = SolverOptions {
            seeding: Seeding::Off,
            ..options
        };
        let private = CoupledSolver::new(&s, &doping, unseeded).unwrap();
        let ac_ref = private.solve_ac(&dc_seeded, "top", 1.0e9).unwrap();
        let bits = |ac: &AcSolution| {
            ac.potential
                .iter()
                .flat_map(|v| [v.re.to_bits(), v.im.to_bits()])
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&ac_seeded), bits(&ac_ref));
        assert!(!topology.seed_stats().ac_ilu_seeded);
    }

    #[test]
    fn mismatched_topology_is_rejected() {
        let s = parallel_plate(0.5);
        let other = parallel_plate(1.0); // different mesh resolution
        let doping = DopingProfile::undoped(s.mesh.node_count());
        let topology = Arc::new(SolverTopology::build(&other).unwrap());
        assert!(matches!(
            CoupledSolver::with_topology(&s, &doping, SolverOptions::default(), topology),
            Err(FvmError::Configuration { .. })
        ));
    }

    #[test]
    fn invalid_sweep_frequency_is_rejected() {
        let s = parallel_plate(1.0);
        let doping = DopingProfile::undoped(s.mesh.node_count());
        let solver = CoupledSolver::new(&s, &doping, SolverOptions::default()).unwrap();
        let dc = solver.solve_dc().unwrap();
        let mut sweep = solver.prepare_ac_sweep(&dc).unwrap();
        assert!(matches!(
            sweep.set_frequency(f64::NAN),
            Err(FvmError::Configuration { .. })
        ));
        assert!(matches!(
            sweep.set_frequency(-1.0),
            Err(FvmError::Configuration { .. })
        ));
        // And solving without a frequency is a configuration error.
        let mut fresh = solver.prepare_ac_sweep(&dc).unwrap();
        assert!(matches!(
            fresh.solve_terminal("top"),
            Err(FvmError::Configuration { .. })
        ));
    }

    #[test]
    fn solve_at_matches_set_frequency_plus_solve() {
        let s = parallel_plate(0.5);
        let doping = DopingProfile::undoped(s.mesh.node_count());
        let solver = CoupledSolver::new(&s, &doping, SolverOptions::default()).unwrap();
        let dc = solver.solve_dc().unwrap();
        // Out-of-order refinement pattern: jump around the grid.
        let mut adaptive = solver.prepare_ac_sweep(&dc).unwrap();
        for freq in [1.0e9, 1.0e7, 3.0e8, 1.0e8] {
            let ac = adaptive.solve_at(freq, "top").unwrap();
            let mut reference_op = solver.prepare_ac(&dc, freq).unwrap();
            let reference = reference_op.solve_terminal("top").unwrap();
            assert_eq!(ac.omega, reference.omega);
            let mut max_diff = 0.0_f64;
            let mut max_ref = 0.0_f64;
            for (a, b) in ac.potential.iter().zip(reference.potential.iter()) {
                max_diff = max_diff.max((*a - *b).abs());
                max_ref = max_ref.max(b.abs());
            }
            assert!(
                max_diff <= 1e-8 * max_ref.max(1e-30),
                "solve_at diverged at {freq} Hz: {max_diff:.3e} vs scale {max_ref:.3e}"
            );
        }
    }

    /// 2×2 with a donor-friendly diagonal: the published pivot sequence is
    /// the diagonal one.
    const DONOR: [(usize, usize, f64); 4] = [(0, 0, 10.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 10.0)];

    /// Same pattern, anti-diagonally dominant values: the donor's diagonal
    /// pivots fall below the refactorization tolerance, so every seeded
    /// consumer re-pivots from scratch.
    const HOSTILE: [(usize, usize, f64); 4] =
        [(0, 0, 1.0e-14), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0e-14)];

    fn triplets<T: Scalar>(entries: &[(usize, usize, f64)]) -> TripletMatrix<T> {
        let mut triplets = TripletMatrix::new(2, 2);
        for &(r, c, v) in entries {
            triplets.push(r, c, T::from_f64(v));
        }
        triplets
    }

    /// One fresh direct solver factoring `entries` against `slot` and
    /// reporting into it, as a DC solve does; returns its stale re-pivots.
    fn solve_slot<T: Scalar>(
        slot: &SharedOperator,
        entries: &[(usize, usize, f64)],
        seeding: Seeding,
    ) -> u64 {
        let mut state = OperatorState::default();
        let linear = LinearSolver::new(SolverKind::DirectLu);
        slot.factor(&mut state, &triplets::<T>(entries), &linear, seeding, None)
            .unwrap();
        slot.report(&mut state, seeding);
        state.reported_stale
    }

    #[test]
    fn publishing_consumer_that_repivots_keeps_the_first_donor_and_is_counted() {
        // Donors are write-once: a publishing consumer whose seeded
        // factorization goes stale re-pivots locally and is counted, but the
        // first donor stays for good.
        let topology = SolverTopology::build(&parallel_plate(1.0)).unwrap();
        assert_eq!(solve_slot::<f64>(&topology.dc, &DONOR, Seeding::Publish), 0);
        for _ in 0..3 {
            assert_eq!(
                solve_slot::<f64>(&topology.dc, &HOSTILE, Seeding::Publish),
                1
            );
        }
        let stats = topology.seed_stats();
        assert!(stats.dc_seeded);
        assert_eq!(stats.dc_donor_refreshes, 0);
        assert_eq!(stats.dc_stale_refactorizations, 3);
        // Still the nominal's diagonal pivots: they fit a nominal-like
        // consumer and stay stale for the excursion. An unseeded solve
        // ignores them.
        assert_eq!(solve_slot::<f64>(&topology.dc, &DONOR, Seeding::Consume), 0);
        assert_eq!(
            solve_slot::<f64>(&topology.dc, &HOSTILE, Seeding::Consume),
            1
        );
        assert_eq!(solve_slot::<f64>(&topology.dc, &HOSTILE, Seeding::Off), 0);
    }

    #[test]
    fn infinite_refresh_rate_pins_the_first_donor() {
        // No stale rate ever refreshes a donor: even when every later solve
        // re-pivots, consumers and publishers alike, the first donor stays.
        let topology = SolverTopology::build(&parallel_plate(1.0)).unwrap();
        assert_eq!(
            solve_slot::<Complex64>(&topology.ac, &DONOR, Seeding::Publish),
            0
        );
        for seeding in [Seeding::Consume, Seeding::Publish, Seeding::Consume] {
            assert_eq!(solve_slot::<Complex64>(&topology.ac, &HOSTILE, seeding), 1);
        }
        let stats = topology.seed_stats();
        assert!(stats.ac_seeded);
        assert_eq!(stats.ac_donor_refreshes, 0);
        assert_eq!(stats.ac_stale_refactorizations, 3);
        assert_eq!(
            solve_slot::<Complex64>(&topology.ac, &DONOR, Seeding::Consume),
            0
        );
    }

    #[test]
    fn non_publishing_reports_never_replace_the_donor_and_barrier_clear_engages() {
        // The analysis fan-out: samples report staleness but must not
        // publish, keeping the donor identity independent of worker timing.
        // With write-once donors there is no barrier to clear them, so the
        // donor a non-publisher sees is always the nominal's.
        let topology = SolverTopology::build(&parallel_plate(1.0)).unwrap();
        // Non-publishers never write, not even into an empty slot.
        assert_eq!(
            solve_slot::<f64>(&topology.dc, &HOSTILE, Seeding::Consume),
            0
        );
        assert_eq!(solve_slot::<f64>(&topology.dc, &HOSTILE, Seeding::Off), 0);
        assert!(!topology.seed_stats().dc_seeded);

        assert_eq!(solve_slot::<f64>(&topology.dc, &DONOR, Seeding::Publish), 0);
        assert_eq!(solve_slot::<f64>(&topology.dc, &DONOR, Seeding::Consume), 0);
        for _ in 0..4 {
            assert_eq!(
                solve_slot::<f64>(&topology.dc, &HOSTILE, Seeding::Consume),
                1
            );
        }
        let stats = topology.seed_stats();
        assert!(stats.dc_seeded, "non-publishers must not touch the donor");
        assert_eq!(stats.dc_donor_refreshes, 0);
        assert_eq!(stats.dc_stale_refactorizations, 4);
        // The donor still holds the nominal's pivots.
        assert_eq!(solve_slot::<f64>(&topology.dc, &DONOR, Seeding::Consume), 0);
        assert_eq!(
            solve_slot::<f64>(&topology.dc, &HOSTILE, Seeding::Consume),
            1
        );
    }

    #[test]
    fn sweep_length_does_not_dilute_the_stale_rate() {
        // An AC operator reports once per grid point but consumes the donor
        // only at its first frequency, so a 9-point sweep re-pivots once and
        // is counted once, not once per point.
        let topology = SolverTopology::build(&parallel_plate(1.0)).unwrap();
        assert_eq!(
            solve_slot::<Complex64>(&topology.ac, &DONOR, Seeding::Publish),
            0
        );
        let linear = LinearSolver::new(SolverKind::DirectLu);
        let hostile = triplets::<Complex64>(&HOSTILE);
        let mut sweep = OperatorState::default();
        for _ in 0..9 {
            topology
                .ac
                .factor(&mut sweep, &hostile, &linear, Seeding::Consume, None)
                .unwrap();
            topology.ac.report(&mut sweep, Seeding::Consume);
        }
        let stats = topology.seed_stats();
        assert!(stats.ac_seeded);
        assert_eq!(stats.ac_stale_refactorizations, 1);
        assert_eq!(stats.ac_donor_refreshes, 0);
        assert_eq!(
            solve_slot::<Complex64>(&topology.ac, &DONOR, Seeding::Consume),
            0
        );
    }

    #[test]
    fn invalid_newton_settings_are_a_configuration_error() {
        use vaem_mesh::structures::metalplug::{build_metalplug_structure, MetalPlugConfig};
        let s = build_metalplug_structure(&MetalPlugConfig::tiny());
        let semis = s.semiconductor_nodes();
        let doping = DopingProfile::uniform_donor(s.mesh.node_count(), &semis, 1.0e5);
        let one_step = SolverOptions {
            newton_max_iterations: 1,
            ..SolverOptions::default()
        };
        // Every comparison against NaN is false, so a NaN tolerance would
        // pass this one-step (unconverged) Newton solve as converged.
        for newton_tolerance in [f64::NAN, 0.0, -1.0, f64::INFINITY] {
            let options = SolverOptions {
                newton_tolerance,
                ..one_step.clone()
            };
            assert!(
                matches!(
                    CoupledSolver::new(&s, &doping, options),
                    Err(FvmError::Configuration { .. })
                ),
                "tolerance {newton_tolerance} must be rejected"
            );
        }
        let no_steps = SolverOptions {
            newton_max_iterations: 0,
            ..SolverOptions::default()
        };
        assert!(matches!(
            CoupledSolver::new(&s, &doping, no_steps),
            Err(FvmError::Configuration { .. })
        ));
        let solver = CoupledSolver::new(&s, &doping, one_step).unwrap();
        assert!(matches!(
            solver.solve_dc(),
            Err(FvmError::NewtonDidNotConverge { .. })
        ));
    }

    #[test]
    fn dc_bias_shifts_metal_potentials() {
        let s = parallel_plate(1.0);
        let doping = DopingProfile::undoped(s.mesh.node_count());
        let solver = CoupledSolver::new(&s, &doping, SolverOptions::default()).unwrap();
        let mut biases = BTreeMap::new();
        biases.insert("top".to_string(), 0.5);
        let dc = solver.solve_dc_with_biases(&biases).unwrap();
        let top_nodes = solver
            .terminals()
            .nodes_of(solver.terminals().index_of("top").unwrap());
        for n in top_nodes {
            assert!((dc.potential_at(n) - 0.5).abs() < 1e-12);
        }
    }
}
