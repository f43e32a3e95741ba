//! Preconditioned BiCGSTAB for non-symmetric (complex) systems.

use crate::{CsrMatrix, Ilu0, SparseError};
use vaem_numeric::{vecops, Scalar};

/// Relative near-breakdown threshold of the BiCGSTAB recurrence scalars.
///
/// `ρ = r̂·r` and `r̂·v` contract to (numerically) zero when the shadow
/// residual turns orthogonal to the iteration space — the classic failure
/// mode on rotation-dominated operators. Comparing them against the product
/// of the participating vector norms (instead of an absolute `1e-300`)
/// detects the *near*-breakdown scale-free, so the solver escalates to the
/// direct rescue immediately instead of burning the whole iteration budget
/// on a diverging recurrence and reporting a spurious max-iterations
/// failure.
const BREAKDOWN_REL: f64 = 1e-14;

/// Options of the Krylov solver ([`BiCgStab`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KrylovOptions {
    /// Relative residual tolerance `‖b − A·x‖ / ‖b‖`.
    pub tolerance: f64,
    /// Maximum number of iterations.
    pub max_iterations: usize,
}

impl Default for KrylovOptions {
    fn default() -> Self {
        Self {
            tolerance: 1e-10,
            max_iterations: 2000,
        }
    }
}

/// Preconditioned BiCGSTAB (van der Vorst) with an optional ILU(0)
/// preconditioner.
///
/// This is the work-horse solver for the frequency-domain coupled A–V
/// systems: non-symmetric, complex, with strong coefficient contrast between
/// metal and semiconductor regions (handled by equilibration + ILU(0)).
///
/// There is one recurrence, [`BiCgStab::solve_cols`], which advances `K`
/// right-hand sides of one operator in lockstep; the single-vector
/// [`BiCgStab::solve`] is its `K = 1` instance.
///
/// # Example
/// ```
/// use vaem_sparse::{BiCgStab, CsrMatrix, Ilu0, KrylovOptions};
/// let n = 30;
/// let mut t = Vec::new();
/// for i in 0..n {
///     t.push((i, i, 2.5));
///     if i > 0 { t.push((i, i - 1, -1.0)); }
///     if i + 1 < n { t.push((i, i + 1, -1.0)); }
/// }
/// let a = CsrMatrix::from_triplets(n, n, &t);
/// let ilu = Ilu0::new(&a)?;
/// let b = vec![1.0; n];
/// let solver = BiCgStab::new(KrylovOptions::default());
/// let (x, iters) = solver.solve(&a, &b, Some(&ilu), None)?;
/// assert!(iters <= n);
/// let r = a.residual(&x, &b);
/// assert!(r.iter().map(|v| v * v).sum::<f64>().sqrt() < 1e-8);
/// # Ok::<(), vaem_sparse::SparseError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct BiCgStab {
    options: KrylovOptions,
}

/// Reusable buffers of the BiCGSTAB recurrence (`r`, `r̂`, `v`, `p`, `p̂`,
/// `s`, `ŝ`, `t`), each holding the columns of one [`BiCgStab::solve_cols`]
/// call column-major.
///
/// One Newton/AC solve used to allocate (and drop) eight fresh vectors per
/// call plus two per iteration; keeping a workspace alive across calls makes
/// the inner loop allocation-free. Buffers are resized lazily, so one
/// workspace can serve systems of different sizes and column counts.
#[derive(Debug, Clone, Default)]
pub struct BiCgStabWorkspace<T: Scalar = f64> {
    r: Vec<T>,
    r_hat: Vec<T>,
    v: Vec<T>,
    p: Vec<T>,
    p_hat: Vec<T>,
    s: Vec<T>,
    s_hat: Vec<T>,
    t: Vec<T>,
    /// Length of one column of the last solve.
    dim: usize,
}

impl<T: Scalar> BiCgStabWorkspace<T> {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn reset(&mut self, n: usize, columns: usize) {
        for buf in [
            &mut self.r,
            &mut self.r_hat,
            &mut self.v,
            &mut self.p,
            &mut self.p_hat,
            &mut self.s,
            &mut self.s_hat,
            &mut self.t,
        ] {
            buf.clear();
            buf.resize(n * columns, T::zero());
        }
        self.dim = n;
    }

    /// `A·x` of column `j`'s returned iterate, as its residual verification
    /// computed it (into the column's `r̂`, which a converged column no
    /// longer needs). Valid only after column `j` of the last solve
    /// converged in at least one iteration (a zero-iteration exit verifies
    /// nothing).
    pub(crate) fn verified_product(&self, j: usize) -> &[T] {
        &self.r_hat[j * self.dim..(j + 1) * self.dim]
    }
}

/// One column of a lockstep solve: its right-hand side, iterate and
/// recurrence scalars. Once `done` holds the column's outcome its state
/// stops changing; the shared kernels keep sweeping its frozen buffers
/// until every column of the call is done.
struct Lane<'b, T: Scalar> {
    b: &'b [T],
    x: Vec<T>,
    bnorm: f64,
    r_norm: f64,
    r_hat_norm: f64,
    rho: T,
    rho_new: T,
    alpha: T,
    omega: T,
    /// `Ok(iterations)` once converged, the error once failed.
    done: Option<Result<usize, SparseError>>,
}

impl BiCgStab {
    /// Creates a solver with the given options.
    pub fn new(options: KrylovOptions) -> Self {
        Self { options }
    }

    /// Solver options.
    pub fn options(&self) -> &KrylovOptions {
        &self.options
    }

    /// Solves `A·x = b`, optionally preconditioned by `precond` and starting
    /// from `x0` (zero when `None`).
    ///
    /// Returns the solution and the number of iterations used.
    ///
    /// # Errors
    /// * [`SparseError::DimensionMismatch`] on shape mismatch.
    /// * [`SparseError::Breakdown`] when a recurrence scalar vanishes.
    /// * [`SparseError::NotConverged`] when the tolerance is not met.
    pub fn solve<T: Scalar>(
        &self,
        a: &CsrMatrix<T>,
        b: &[T],
        precond: Option<&Ilu0<T>>,
        x0: Option<&[T]>,
    ) -> Result<(Vec<T>, usize), SparseError> {
        let mut workspace = BiCgStabWorkspace::new();
        self.solve_with_workspace(a, b, precond, x0, &mut workspace)
    }

    /// [`BiCgStab::solve`] with caller-owned buffers; the variant used by
    /// repeated solves (Newton iterations, terminal/frequency sweeps) to
    /// keep the inner loops allocation-free. The `K = 1` instance of
    /// [`BiCgStab::solve_cols`].
    ///
    /// # Errors
    /// Same conditions as [`BiCgStab::solve`].
    pub fn solve_with_workspace<T: Scalar>(
        &self,
        a: &CsrMatrix<T>,
        b: &[T],
        precond: Option<&Ilu0<T>>,
        x0: Option<&[T]>,
        ws: &mut BiCgStabWorkspace<T>,
    ) -> Result<(Vec<T>, usize), SparseError> {
        let [out] = self.solve_cols(a, [b], precond, [x0], ws);
        out
    }

    /// Solves `A·xⱼ = bⱼ` for `K` right-hand sides of one operator in
    /// lockstep: every iteration makes one pass of
    /// [`Ilu0::apply_cols_into`] and [`CsrMatrix::matvec_cols_into`] over
    /// all `K` columns, while each column keeps its own initial guess,
    /// recurrence scalars, breakdown checks, residual verification and
    /// iteration count.
    ///
    /// The kernels accumulate every column in the single-vector order, so
    /// column `j`'s result — solution bits, iteration count or error — is
    /// exactly what [`BiCgStab::solve_with_workspace`] returns for
    /// `(b[j], x0[j])` alone. A column that converges or fails early
    /// stops changing; the kernels keep sweeping its frozen buffers until
    /// the last column is done.
    ///
    /// # Errors
    /// Per column, the conditions of [`BiCgStab::solve`]; a shape mismatch
    /// of any column fails every column.
    ///
    /// # Panics
    /// Panics when an initial guess has the wrong length.
    pub fn solve_cols<T: Scalar, const K: usize>(
        &self,
        a: &CsrMatrix<T>,
        b: [&[T]; K],
        precond: Option<&Ilu0<T>>,
        x0: [Option<&[T]>; K],
        ws: &mut BiCgStabWorkspace<T>,
    ) -> [Result<(Vec<T>, usize), SparseError>; K] {
        let n = a.rows();
        if let Some(bad) = b.iter().find(|b| a.cols() != n || b.len() != n) {
            let err = SparseError::DimensionMismatch {
                // vaem-lint: allow(H1) dimension-mismatch error message, failure path only
                detail: format!(
                    "BiCGSTAB needs square A and matching rhs; got {}x{} with rhs {}",
                    a.rows(),
                    a.cols(),
                    bad.len()
                ),
            };
            // vaem-lint: allow(H2) one error per column, shape-mismatch failure path only
            return std::array::from_fn(|_| Err(err.clone()));
        }
        ws.reset(n, K);
        let tol = self.options.tolerance;
        let col = |j: usize| (j * n, (j + 1) * n);
        let mut lanes: [Lane<'_, T>; K] =
            std::array::from_fn(|j| Lane::start(a, b[j], x0[j], tol, ws, col(j)));

        for iter in 1..=self.options.max_iterations {
            if lanes.iter().all(|lane| lane.done.is_some()) {
                break;
            }
            // p = r + beta (p - omega v)
            for (j, lane) in lanes.iter_mut().enumerate() {
                if lane.done.is_some() {
                    continue;
                }
                let (lo, hi) = col(j);
                lane.rho_new = vecops::dot(&ws.r_hat[lo..hi], &ws.r[lo..hi]);
                if !lane.rho_new.is_finite_scalar()
                    || lane.rho_new.modulus() < BREAKDOWN_REL * lane.r_hat_norm * lane.r_norm
                {
                    lane.break_down("rho (near-)vanished in BiCGSTAB");
                    continue;
                }
                let beta = (lane.rho_new / lane.rho) * (lane.alpha / lane.omega);
                let omega = lane.omega;
                let (p, r, v) = (&mut ws.p[lo..hi], &ws.r[lo..hi], &ws.v[lo..hi]);
                for i in 0..n {
                    p[i] = r[i] + beta * (p[i] - omega * v[i]);
                }
            }
            precondition::<T, K>(precond, &ws.p, &mut ws.p_hat);
            a.matvec_cols_into::<K>(&ws.p_hat, &mut ws.v);
            // Columns that finish the iteration at the `s` check (converged
            // or restarted) skip the second half.
            let mut second_half = [false; K];
            for (j, lane) in lanes.iter_mut().enumerate() {
                if lane.done.is_some() {
                    continue;
                }
                let (lo, hi) = col(j);
                let denom = vecops::dot(&ws.r_hat[lo..hi], &ws.v[lo..hi]);
                if !denom.is_finite_scalar()
                    || denom.modulus()
                        < BREAKDOWN_REL * lane.r_hat_norm * vecops::norm2(&ws.v[lo..hi])
                    || denom.modulus() < 1e-300
                {
                    lane.break_down("r_hat . v (near-)vanished in BiCGSTAB");
                    continue;
                }
                let alpha = lane.rho_new / denom;
                lane.alpha = alpha;
                // s = r - alpha v
                let (s, r, v) = (&mut ws.s[lo..hi], &ws.r[lo..hi], &ws.v[lo..hi]);
                for i in 0..n {
                    s[i] = r[i] - alpha * v[i];
                }
                if vecops::norm2(s) / lane.bnorm <= tol {
                    let p_hat = &ws.p_hat[lo..hi];
                    for i in 0..n {
                        lane.x[i] += alpha * p_hat[i];
                    }
                    if lane.verify_or_restart(a, tol, ws, (lo, hi)) {
                        lane.done = Some(Ok(iter));
                    }
                    continue;
                }
                second_half[j] = true;
            }
            if !second_half.contains(&true) {
                continue;
            }
            precondition::<T, K>(precond, &ws.s, &mut ws.s_hat);
            a.matvec_cols_into::<K>(&ws.s_hat, &mut ws.t);
            for (j, lane) in lanes.iter_mut().enumerate() {
                if !second_half[j] {
                    continue;
                }
                let (lo, hi) = col(j);
                let (s, s_hat, t) = (&ws.s[lo..hi], &ws.s_hat[lo..hi], &ws.t[lo..hi]);
                let tt = vecops::dot(t, t);
                if !tt.is_finite_scalar() || tt.modulus() < 1e-300 {
                    lane.break_down("t . t (near-)vanished in BiCGSTAB");
                    continue;
                }
                let (alpha, omega) = (lane.alpha, vecops::dot(t, s) / tt);
                lane.omega = omega;
                let (p_hat, r) = (&ws.p_hat[lo..hi], &mut ws.r[lo..hi]);
                for i in 0..n {
                    lane.x[i] += alpha * p_hat[i] + omega * s_hat[i];
                    r[i] = s[i] - omega * t[i];
                }
                lane.r_norm = vecops::norm2(r);
                let rel = lane.r_norm / lane.bnorm;
                if !rel.is_finite() {
                    // The recurrence overflowed/NaN-poisoned itself; report a
                    // breakdown now rather than a max-iterations failure later.
                    lane.break_down("residual became non-finite in BiCGSTAB");
                    continue;
                }
                if rel <= tol {
                    if lane.verify_or_restart(a, tol, ws, (lo, hi)) {
                        lane.done = Some(Ok(iter));
                    }
                    continue;
                }
                if !omega.is_finite_scalar() || omega.modulus() < 1e-300 {
                    lane.break_down("omega (near-)vanished in BiCGSTAB");
                    continue;
                }
                lane.rho = lane.rho_new;
            }
        }

        lanes.map(|lane| match lane.done {
            Some(Ok(iterations)) => Ok((lane.x, iterations)),
            Some(Err(err)) => Err(err),
            None => Err(SparseError::NotConverged {
                iterations: self.options.max_iterations,
                residual: vecops::norm2(&a.residual(&lane.x, lane.b)) / lane.bnorm,
            }),
        })
    }
}

/// `out ← M⁻¹·input` over all `K` columns (a copy without a preconditioner).
fn precondition<T: Scalar, const K: usize>(precond: Option<&Ilu0<T>>, input: &[T], out: &mut [T]) {
    match precond {
        Some(m) => m.apply_cols_into::<K>(input, out),
        None => out.copy_from_slice(input),
    }
}

impl<'b, T: Scalar> Lane<'b, T> {
    /// Sets up column `lo..hi` of the workspace: `r = r̂ = b − A·x0` (the matvec
    /// skipped for the zero initial guess), scalars at one, and the column
    /// already done when the initial residual meets `tolerance`.
    fn start(
        a: &CsrMatrix<T>,
        b: &'b [T],
        x0: Option<&[T]>,
        tolerance: f64,
        ws: &mut BiCgStabWorkspace<T>,
        (lo, hi): (usize, usize),
    ) -> Self {
        let n = b.len();
        let bnorm = vecops::norm2(b).max(1e-300);
        let r = &mut ws.r[lo..hi];
        let x = match x0 {
            Some(x0) => {
                assert_eq!(x0.len(), n, "initial guess length mismatch");
                let t = &mut ws.t[lo..hi];
                a.matvec_into(x0, t);
                for i in 0..n {
                    r[i] = b[i] - t[i];
                }
                // vaem-lint: allow(H1) initial-guess copy, once per solve entry
                x0.to_vec()
            }
            None => {
                r.copy_from_slice(b);
                // vaem-lint: allow(H1) zero initial guess, once per solve entry
                vec![T::zero(); n]
            }
        };
        let r_norm = vecops::norm2(r);
        ws.r_hat[lo..hi].copy_from_slice(r);
        Self {
            b,
            x,
            bnorm,
            r_norm,
            r_hat_norm: r_norm,
            rho: T::one(),
            rho_new: T::one(),
            alpha: T::one(),
            omega: T::one(),
            done: (r_norm / bnorm <= tolerance).then_some(Ok(0)),
        }
    }

    fn break_down(&mut self, detail: &str) {
        self.done = Some(Err(SparseError::Breakdown {
            // vaem-lint: allow(H1) breakdown-label construction, failure path only
            detail: detail.to_string(),
        }));
    }

    /// Trust-but-verify step shared by both convergence exits: the
    /// recurrence residual can drift from the true residual once a
    /// near-breakdown has amplified the iterates, so claimed convergence is
    /// only accepted when the explicit residual `b − A·x` confirms it. On
    /// drift the recurrence is restarted from the verified residual
    /// (residual replacement): `r = r̂ = b − A·x`, scalars reset, search
    /// directions zeroed. Returns `true` when `x` is truly converged.
    ///
    /// `A·x` is computed into column `lo..hi` of `r̂`: a converged column never
    /// reads `r̂` again, so the product stays there for
    /// [`BiCgStabWorkspace::verified_product`], and a restart overwrites
    /// `r̂` anyway.
    fn verify_or_restart(
        &mut self,
        a: &CsrMatrix<T>,
        tolerance: f64,
        ws: &mut BiCgStabWorkspace<T>,
        (lo, hi): (usize, usize),
    ) -> bool {
        let (b, ax) = (self.b, &mut ws.r_hat[lo..hi]);
        a.matvec_into(&self.x, ax);
        let mut true_sqr = 0.0;
        for i in 0..b.len() {
            true_sqr += (b[i] - ax[i]).modulus_sqr();
        }
        let true_rel = true_sqr.sqrt() / self.bnorm;
        if true_rel <= tolerance {
            return true;
        }
        let r = &mut ws.r[lo..hi];
        for i in 0..b.len() {
            r[i] = b[i] - ax[i];
        }
        ax.copy_from_slice(r);
        self.r_norm = true_rel * self.bnorm;
        self.r_hat_norm = self.r_norm;
        self.rho = T::one();
        self.alpha = T::one();
        self.omega = T::one();
        ws.p[lo..hi].fill(T::zero());
        ws.v[lo..hi].fill(T::zero());
        false
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use vaem_numeric::Complex64;

    /// Solves the `K` columns in one lockstep call and each alone, and
    /// asserts the outcomes agree exactly: solution bits (the `Debug` form
    /// of an `f64` round-trips, so equal text is equal bits), iteration
    /// counts and errors. Returns the lockstep outcomes.
    pub(crate) fn assert_lockstep_matches_single<T: Scalar, const K: usize>(
        solver: &BiCgStab,
        a: &CsrMatrix<T>,
        precond: Option<&Ilu0<T>>,
        b: [&[T]; K],
        x0: [Option<&[T]>; K],
    ) -> [Result<(Vec<T>, usize), SparseError>; K] {
        // A reused, previously wider workspace must not leak into the call.
        let mut ws = BiCgStabWorkspace::new();
        let _ = solver.solve_cols(a, [b[0]; 4], precond, [None; 4], &mut ws);
        let together = solver.solve_cols(a, b, precond, x0, &mut ws);
        for j in 0..K {
            let alone = solver.solve(a, b[j], precond, x0[j]);
            assert_eq!(
                format!("{:?}", together[j]),
                format!("{alone:?}"),
                "column {j} of a {K}-column lockstep solve"
            );
        }
        together
    }

    fn iterations<T: Scalar>(outcome: &Result<(Vec<T>, usize), SparseError>) -> usize {
        outcome.as_ref().expect("column converges").1
    }

    #[test]
    fn lockstep_columns_equal_single_solves_on_a_real_system() {
        let a = laplacian_2d(14);
        let n = a.rows();
        let ilu = Ilu0::new(&a).unwrap();
        let solver = BiCgStab::new(KrylovOptions {
            tolerance: 1e-12,
            ..Default::default()
        });
        let smooth = a.matvec(&(0..n).map(|i| (i as f64 * 0.1).sin()).collect::<Vec<_>>());
        let zero = vec![0.0; n];
        let rough: Vec<f64> = (0..n).map(|i| ((i * 7919) % 13) as f64 - 6.0).collect();
        let ones = vec![1.0; n];
        for precond in [Some(&ilu), None] {
            let [a1] = assert_lockstep_matches_single(&solver, &a, precond, [&smooth], [None]);
            let [_, z] =
                assert_lockstep_matches_single(&solver, &a, precond, [&smooth, &zero], [None; 2]);
            // A zero right-hand side is done before the first iteration
            // while its neighbours keep iterating.
            assert_eq!(iterations(&z), 0);
            let _ = assert_lockstep_matches_single(
                &solver,
                &a,
                precond,
                [&rough, &zero, &smooth],
                [None; 3],
            );
            let four = assert_lockstep_matches_single(
                &solver,
                &a,
                precond,
                [&ones, &rough, &zero, &smooth],
                [None; 4],
            );
            assert_eq!(iterations(&four[3]), iterations(&a1));
        }
    }

    #[test]
    fn lockstep_columns_equal_single_solves_on_a_complex_system_with_guesses() {
        let base = laplacian_2d(9);
        let n = base.rows();
        let mut t: Vec<(usize, usize, Complex64)> = Vec::new();
        for r in 0..n {
            for (c, v) in base.row_entries(r) {
                t.push((r, c, Complex64::new(v, 0.1 * v)));
            }
            t.push((r, r, Complex64::new(0.0, 0.35)));
        }
        let a = CsrMatrix::from_triplets(n, n, &t);
        let ilu = Ilu0::new(&a).unwrap();
        let solver = BiCgStab::new(KrylovOptions {
            tolerance: 1e-12,
            ..Default::default()
        });
        let x_true: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64 * 0.3).cos(), (i as f64 * 0.17).sin()))
            .collect();
        let b = a.matvec(&x_true);
        let b2: Vec<Complex64> = (0..n).map(|i| Complex64::new(1.0, i as f64)).collect();
        let zero = vec![Complex64::ZERO; n];
        let near: Vec<Complex64> = x_true.iter().map(|v| v.scale(1.0 + 1e-3)).collect();
        // Each column keeps its own initial guess: a near guess, the exact
        // solution (converged before the first iteration) and none.
        let out = assert_lockstep_matches_single(
            &solver,
            &a,
            Some(&ilu),
            [&b, &b, &b2, &zero],
            [Some(&near), Some(&x_true), None, None],
        );
        assert_eq!(iterations(&out[1]), 0);
        assert!(iterations(&out[0]) > 0 && iterations(&out[2]) > 0);
        let _ = assert_lockstep_matches_single(&solver, &a, None, [&b2, &b], [None, Some(&near)]);
    }

    #[test]
    fn lockstep_keeps_breakdowns_and_budget_failures_per_column() {
        // Complex rotation blocks: a real right-hand side makes r̂·v vanish
        // on the first iteration (r·A·r = d·|r|² with d tiny), while one
        // with a phase shift between the two rows of a block does not. So
        // one lockstep call mixes a breakdown with live columns.
        let n_blocks = 20;
        let n = 2 * n_blocks;
        let mut t = Vec::new();
        for k in 0..n_blocks {
            let i = 2 * k;
            let d = Complex64::new(1e-15, 0.0);
            t.push((i, i, d));
            t.push((i, i + 1, Complex64::new(-1.0, 0.0)));
            t.push((i + 1, i, Complex64::ONE));
            t.push((i + 1, i + 1, d));
        }
        let a = CsrMatrix::from_triplets(n, n, &t);
        let real = vec![Complex64::ONE; n];
        let phased: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64 * 0.7).cos(), (i as f64 * 1.3).sin()))
            .collect();
        let solver = BiCgStab::new(KrylovOptions::default());
        let out =
            assert_lockstep_matches_single(&solver, &a, None, [&phased, &real, &phased], [None; 3]);
        assert!(matches!(out[1], Err(SparseError::Breakdown { .. })));

        // An iteration budget that some columns meet and others do not.
        let lap = laplacian_2d(10);
        let tight = BiCgStab::new(KrylovOptions {
            tolerance: 1e-10,
            max_iterations: 3,
        });
        let zero = vec![0.0; lap.rows()];
        let ones = vec![1.0; lap.rows()];
        let out = assert_lockstep_matches_single(&tight, &lap, None, [&ones, &zero], [None; 2]);
        assert!(matches!(out[0], Err(SparseError::NotConverged { .. })));
        assert_eq!(iterations(&out[1]), 0);
    }

    fn laplacian_2d(nx: usize) -> CsrMatrix<f64> {
        let n = nx * nx;
        let idx = |i: usize, j: usize| i * nx + j;
        let mut t = Vec::new();
        for i in 0..nx {
            for j in 0..nx {
                t.push((idx(i, j), idx(i, j), 4.0));
                if i > 0 {
                    t.push((idx(i, j), idx(i - 1, j), -1.0));
                }
                if i + 1 < nx {
                    t.push((idx(i, j), idx(i + 1, j), -1.0));
                }
                if j > 0 {
                    t.push((idx(i, j), idx(i, j - 1), -1.0));
                }
                if j + 1 < nx {
                    t.push((idx(i, j), idx(i, j + 1), -1.0));
                }
            }
        }
        CsrMatrix::from_triplets(n, n, &t)
    }

    #[test]
    fn solves_2d_laplacian_with_ilu() {
        let a = laplacian_2d(12);
        let n = a.rows();
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
        let b = a.matvec(&x_true);
        let ilu = Ilu0::new(&a).unwrap();
        let solver = BiCgStab::new(KrylovOptions {
            tolerance: 1e-12,
            ..Default::default()
        });
        let (x, iters) = solver.solve(&a, &b, Some(&ilu), None).unwrap();
        assert!(iters < 80, "iterations {iters}");
        assert!(vecops::relative_diff(&x, &x_true, 1e-30) < 1e-8);
    }

    #[test]
    fn solves_without_preconditioner() {
        let a = laplacian_2d(6);
        let b = vec![1.0; a.rows()];
        let solver = BiCgStab::new(KrylovOptions::default());
        let (x, _) = solver.solve(&a, &b, None, None).unwrap();
        let r = a.residual(&x, &b);
        assert!(vecops::norm2(&r) < 1e-7);
    }

    #[test]
    fn solves_complex_shifted_laplacian() {
        let base = laplacian_2d(8);
        let n = base.rows();
        let mut t: Vec<(usize, usize, Complex64)> = Vec::new();
        for r in 0..n {
            for (c, v) in base.row_entries(r) {
                t.push((r, c, Complex64::new(v, 0.0)));
            }
            t.push((r, r, Complex64::new(0.0, 0.35)));
        }
        let a = CsrMatrix::from_triplets(n, n, &t);
        let x_true: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64 * 0.3).cos(), (i as f64 * 0.17).sin()))
            .collect();
        let b = a.matvec(&x_true);
        let ilu = Ilu0::new(&a).unwrap();
        let solver = BiCgStab::new(KrylovOptions {
            tolerance: 1e-12,
            ..Default::default()
        });
        let (x, _) = solver.solve(&a, &b, Some(&ilu), None).unwrap();
        assert!(vecops::relative_diff(&x, &x_true, 1e-30) < 1e-8);
    }

    #[test]
    fn workspace_reuse_matches_fresh_solves_across_sizes() {
        let solver = BiCgStab::new(KrylovOptions {
            tolerance: 1e-12,
            ..Default::default()
        });
        let mut ws = BiCgStabWorkspace::new();
        // Shrinking and growing sizes exercise the lazy buffer resize.
        for nx in [10, 6, 12] {
            let a = laplacian_2d(nx);
            let x_true: Vec<f64> = (0..a.rows()).map(|i| (i as f64 * 0.07).sin()).collect();
            let b = a.matvec(&x_true);
            let ilu = Ilu0::new(&a).unwrap();
            let (x_ws, it_ws) = solver
                .solve_with_workspace(&a, &b, Some(&ilu), None, &mut ws)
                .unwrap();
            let (x_fresh, it_fresh) = solver.solve(&a, &b, Some(&ilu), None).unwrap();
            assert_eq!(it_ws, it_fresh, "nx = {nx}");
            assert_eq!(x_ws, x_fresh, "nx = {nx}");
        }
    }

    #[test]
    fn initial_guess_close_to_solution_converges_immediately() {
        let a = laplacian_2d(6);
        let x_true: Vec<f64> = (0..a.rows()).map(|i| i as f64).collect();
        let b = a.matvec(&x_true);
        let solver = BiCgStab::new(KrylovOptions::default());
        let (_, iters) = solver.solve(&a, &b, None, Some(&x_true)).unwrap();
        assert_eq!(iters, 0);
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let a = laplacian_2d(3);
        let solver = BiCgStab::new(KrylovOptions::default());
        assert!(matches!(
            solver.solve(&a, &[1.0, 2.0], None, None),
            Err(SparseError::DimensionMismatch { .. })
        ));
    }

    /// Block-diagonal matrix of near-90° 2×2 rotation blocks — the
    /// rotation-dominated operator on which the BiCGSTAB recurrence scalars
    /// (near-)vanish.
    fn rotation_blocks(n_blocks: usize, diag: f64) -> CsrMatrix<f64> {
        let n = 2 * n_blocks;
        let mut t = Vec::new();
        for k in 0..n_blocks {
            let i = 2 * k;
            t.push((i, i, diag));
            t.push((i, i + 1, -1.0));
            t.push((i + 1, i, 1.0));
            t.push((i + 1, i + 1, diag));
        }
        CsrMatrix::from_triplets(n, n, &t)
    }

    #[test]
    fn rotation_dominated_system_breaks_down_instead_of_burning_the_budget() {
        // diag = 1e-15 puts r_hat·v at ~1e-15·‖r̂‖·‖v̂‖ on the very first
        // iteration: far above the old absolute 1e-300 cutoff (which let the
        // recurrence diverge and mis-report), but below the relative
        // threshold, which must flag the near-breakdown immediately.
        let a = rotation_blocks(20, 1e-15);
        let b = vec![1.0; a.rows()];
        let solver = BiCgStab::new(KrylovOptions::default());
        match solver.solve(&a, &b, None, None) {
            Err(SparseError::Breakdown { .. }) => {}
            other => panic!("expected a breakdown, got {other:?}"),
        }
    }

    #[test]
    fn reports_non_convergence_for_tiny_iteration_budget() {
        let a = laplacian_2d(10);
        let b = vec![1.0; a.rows()];
        let solver = BiCgStab::new(KrylovOptions {
            tolerance: 1e-14,
            max_iterations: 2,
        });
        let out = solver.solve(&a, &b, None, None);
        assert!(matches!(out, Err(SparseError::NotConverged { .. })));
    }
}
