//! Swept-frequency experiment: interface-current spectrum of the metal-plug
//! structure (SSCM statistics per frequency point), the nominal input
//! impedance spectrum of the driven plug, and the error-controlled
//! **adaptive** sweep over the same band.
//!
//! Every collocation sample performs one DC solve and one sweep-aware AC
//! pass over the whole grid (one assembly + one symbolic factorization, a
//! numeric refactorization and a warm-started solve per point); samples fan
//! out over `VAEM_THREADS` worker threads with bit-identical results for
//! any thread count. The adaptive pass keeps per-sample state across
//! refinement waves, so each refined point costs the same as a grid point.
//!
//! Environment:
//! * `VAEM_SWEEP_POINTS=<n>` — number of fixed-grid points (default 16; the
//!   CI quick job runs a 4-point smoke). Invalid/zero/negative values clamp
//!   to a 1-point sweep with a warning instead of panicking.
//! * `VAEM_SWEEP_TOL=<t>` — adaptive refinement tolerance (default 0.02).
//! * `VAEM_THREADS=<n>` — worker threads of the sample fan-out.
//! * `VAEM_FAULTS=<plan>` — fault-injection plan; each pass prints its
//!   containment record as a `health:` line.

use vaem::experiments::metalplug::{MetalPlugExperiment, TableOneRow};
use vaem::{AdaptiveSweepOptions, PointOrigin};
use vaem_bench::{format_seconds, log_grid, sweep_points, sweep_tolerance};
use vaem_fvm::{postprocess, CoupledSolver};

fn main() {
    let points = sweep_points(16);
    let frequencies = log_grid(points, 1.0e8, 1.0e10);

    // Doping-only quick setup: a small reduced dimension keeps the
    // collocation count low, so the runtime is dominated by the sweeps.
    let analysis = MetalPlugExperiment::quick()
        .with_row(TableOneRow::DopingOnly)
        .analysis();

    println!("== AC frequency sweep: J(plug1) spectrum, {points} points [0.1, 10] GHz ==");
    let result = match analysis.run_frequency_sweep(&frequencies) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("frequency sweep failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "   ({} collocation sweeps + nominal = {} AC solves, wall clock {})",
        result.collocation_runs,
        result.ac_solve_count(),
        format_seconds(result.seconds)
    );
    println!("health: {}", result.health.summary());
    println!();
    let q = &result.quantities[0];
    println!(
        "{:>12}  {:>14}  {:>14}  {:>12}",
        "f [GHz]", "nominal [uA]", "SSCM mean", "SSCM std"
    );
    for (fi, f) in result.frequencies.iter().enumerate() {
        println!(
            "{:>12.4}  {:>14.6}  {:>14.6}  {:>12.6}",
            f / 1e9,
            q.nominal[fi],
            q.sscm[fi].mean,
            q.sscm[fi].std
        );
    }

    // Adaptive sweep over the same band: a coarse quarter-density grid,
    // refined where the spectra (nominal, SSCM mean, SSCM std) curve away
    // from their log-frequency interpolation.
    let tolerance = sweep_tolerance(0.02);
    let coarse_points = (points / 4).clamp(3, points.max(3));
    let coarse = log_grid(coarse_points, 1.0e8, 1.0e10);
    let options = AdaptiveSweepOptions {
        rel_tolerance: tolerance,
        max_points: points.max(coarse_points),
        ..AdaptiveSweepOptions::default()
    };
    println!();
    println!(
        "== Adaptive sweep: {coarse_points}-point coarse grid, tolerance {tolerance}, \
         budget {} points ==",
        options.max_points
    );
    let adaptive = match analysis.run_adaptive_frequency_sweep(&coarse, &options) {
        Ok(adaptive) => adaptive,
        Err(e) => {
            eprintln!("adaptive frequency sweep failed: {e}");
            std::process::exit(1);
        }
    };
    {
        let sweep = &adaptive.sweep;
        println!(
            "   ({} points after {} refinement wave(s), {} AC solves vs {} on the \
                 fixed grid{}, wall clock {})",
            sweep.frequencies.len(),
            adaptive.waves,
            adaptive.ac_solve_count(),
            result.ac_solve_count(),
            if adaptive.budget_exhausted {
                ", budget exhausted"
            } else {
                ""
            },
            format_seconds(sweep.seconds)
        );
        println!("health: {}", sweep.health.summary());
        let aq = &sweep.quantities[0];
        println!(
            "{:>12}  {:>14}  {:>14}  {:>12}  {:>8}",
            "f [GHz]", "nominal [uA]", "SSCM mean", "SSCM std", "origin"
        );
        for (fi, f) in sweep.frequencies.iter().enumerate() {
            let origin = match adaptive.origins[fi] {
                PointOrigin::Coarse => "coarse".to_string(),
                PointOrigin::Refined { wave, depth } => format!("w{wave}/d{depth}"),
            };
            println!(
                "{:>12.4}  {:>14.6}  {:>14.6}  {:>12.6}  {:>8}",
                f / 1e9,
                aq.nominal[fi],
                aq.sscm[fi].mean,
                aq.sscm[fi].std,
                origin
            );
        }
    }

    // Nominal impedance and capacitance tables off the same sweep
    // machinery, evaluated on the ADAPTIVE grid: the refined points land
    // at error-driven log-frequencies nothing else has touched, so this
    // also exercises the open-circuit and ω > 0 guards of the
    // postprocessors away from the fixed grid.
    let refined = &adaptive.sweep.frequencies;
    let structure = analysis.structure().clone();
    let doping = analysis.nominal_doping();
    let solver = match CoupledSolver::new(&structure, &doping, analysis.config().solver.clone()) {
        Ok(solver) => solver,
        Err(e) => {
            eprintln!("nominal solver failed: {e}");
            std::process::exit(1);
        }
    };
    let tables = solver.solve_dc().and_then(|dc| {
        let mut operator = solver.prepare_ac_sweep(&dc)?;
        // One sweep of the driven plug serves both tables: the impedance
        // spectrum and, per point, one Maxwell capacitance column.
        let sweep = operator.sweep_terminal(refined, "plug1")?;
        let z = postprocess::impedance_spectrum(&solver, &sweep, "plug1")?;
        let mut columns = Vec::with_capacity(sweep.len());
        for ac in &sweep {
            columns.push(postprocess::capacitance_column_from(&solver, ac)?);
        }
        Ok((z, columns))
    });
    match tables {
        Ok((z, columns)) => {
            println!();
            println!(
                "nominal input impedance Z(f) of plug1 on the adaptive grid \
                 ({} points):",
                refined.len()
            );
            println!(
                "{:>12}  {:>14}  {:>10}",
                "f [GHz]", "|Z| [Ohm]", "arg [deg]"
            );
            for (f, zf) in &z {
                println!(
                    "{:>12.4}  {:>14.3e}  {:>10.2}",
                    f / 1e9,
                    zf.abs(),
                    zf.im.atan2(zf.re).to_degrees()
                );
            }
            println!();
            println!(
                "capacitance column of the driven plug C[plug1][·] [fF] on the adaptive grid:"
            );
            let terminals: Vec<&String> = columns[0].keys().collect();
            print!("{:>12}", "f [GHz]");
            for t in &terminals {
                print!("  {t:>12}");
            }
            println!();
            for (fi, f) in refined.iter().enumerate() {
                print!("{:>12.4}", f / 1e9);
                for t in &terminals {
                    print!("  {:>12.4}", columns[fi][*t] * 1.0e15);
                }
                println!();
            }
        }
        Err(e) => {
            eprintln!("nominal impedance/capacitance tables failed: {e}");
            std::process::exit(1);
        }
    }
}
