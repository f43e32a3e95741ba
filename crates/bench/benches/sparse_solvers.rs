//! Criterion bench: sparse linear solvers on an FVM-like complex system
//! (design-choice ablation: direct LU vs ILU(0)-preconditioned Krylov).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use vaem_numeric::Complex64;
use vaem_sparse::{CsrMatrix, LinearSolver, SolverKind};

/// 3-D Laplacian-like complex matrix with metal/dielectric contrast.
fn fvm_like_matrix(n_side: usize) -> CsrMatrix<Complex64> {
    let n = n_side * n_side * n_side;
    let idx = |i: usize, j: usize, k: usize| i + n_side * (j + n_side * k);
    let mut t = Vec::new();
    for i in 0..n_side {
        for j in 0..n_side {
            for k in 0..n_side {
                let me = idx(i, j, k);
                let sigma = if (i + j + k) % 9 == 0 { 58.0 } else { 1e-6 };
                let diag = Complex64::new(6.0 * sigma, 1e-7);
                t.push((me, me, diag));
                let mut push = |other: usize| {
                    t.push((me, other, Complex64::new(-sigma, -1e-8)));
                };
                if i > 0 {
                    push(idx(i - 1, j, k));
                }
                if i + 1 < n_side {
                    push(idx(i + 1, j, k));
                }
                if j > 0 {
                    push(idx(i, j - 1, k));
                }
                if j + 1 < n_side {
                    push(idx(i, j + 1, k));
                }
                if k > 0 {
                    push(idx(i, j, k - 1));
                }
                if k + 1 < n_side {
                    push(idx(i, j, k + 1));
                }
            }
        }
    }
    CsrMatrix::from_triplets(n, n, &t)
}

fn bench_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("sparse_solvers");
    group.sample_size(10);
    for &n_side in &[8usize, 12] {
        let a = fvm_like_matrix(n_side);
        let b = vec![Complex64::ONE; a.rows()];
        for kind in [SolverKind::DirectLu, SolverKind::IluBiCgStab] {
            group.bench_with_input(
                BenchmarkId::new(format!("{kind:?}"), a.rows()),
                &(&a, &b),
                |bench, (a, b)| {
                    let solver = LinearSolver::new(kind);
                    bench.iter(|| solver.solve(a, b).expect("solve"));
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_solvers);
criterion_main!(benches);
