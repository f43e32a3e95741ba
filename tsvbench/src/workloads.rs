//! The three benchmark workloads: their generated inputs, one operation,
//! the per-operation correctness checks, and the traced replay of one
//! operation through the public calls of the solver crates.

use std::collections::BTreeMap;

use vaem::experiments::metalplug::{MetalPlugExperiment, TableOneRow};
use vaem::experiments::tsv_array::{TsvArrayExperiment, TsvArrayReport, VictimSpectrum};
use vaem::{
    result_digest, AdaptiveSweepOptions, AdaptiveSweepResult, AnalysisResult, FrequencySweepResult,
    HealthReport, SeedReuseStats, VariationalAnalysis,
};
use vaem_bench::log_grid;
use vaem_fvm::{postprocess, AcSolution, CoupledSolver, SolverOptions};
use vaem_mesh::structures::metalplug::build_metalplug_structure;
use vaem_mesh::structures::tsv_array::{build_tsv_array_structure, TsvArrayConfig};
use vaem_mesh::Structure;
use vaem_physics::DopingProfile;
use vaem_stochastic::SparseCollocation;

use crate::trace::Trace;

pub const NOMINAL: &str = "array_nominal_4x4";
pub const VARIATION: &str = "array_variation_2x2";
pub const PLUG: &str = "plug_sweep";
pub const NAMES: [&str; 3] = [NOMINAL, VARIATION, PLUG];

/// Number of distinct generated inputs per seeded workload; the reference
/// file holds one row per variant.
pub const VARIANTS: usize = 16;

/// Donor concentration of `TsvArrayExperiment::nominal_report` (µm⁻³).
const ARRAY_NOMINAL_DONOR: f64 = 1.0e5;

/// Every per-layer metric of the traced run, with its unit. A metric whose
/// name is a span name plus `_ms` is the total time of those spans in one
/// replay (`fvm.sweep_point_ms` is per call); the others are counts and
/// values read from what the calls return. Layers a workload does not reach
/// read 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("mesh.build_ms", "ms"),
    ("fvm.topology_ms", "ms"),
    ("fvm.dc_ms", "ms"),
    ("fvm.dc_newton_iters", "count"),
    ("fvm.ac_prepare_ms", "ms"),
    ("fvm.ac_column_ms", "ms"),
    ("fvm.capacitance_post_ms", "ms"),
    ("fvm.coupling_post_ms", "ms"),
    ("fvm.sweep_prepare_ms", "ms"),
    ("fvm.sweep_point_ms", "ms"),
    ("sparse.unknowns", "count"),
    ("sparse.direct_solves", "count"),
    ("sparse.krylov_solves", "count"),
    ("sparse.max_residual", "ratio"),
    ("sparse.dc_stale_refactors", "count"),
    ("sparse.ac_stale_refactors", "count"),
    ("sparse.donor_refreshes", "count"),
    ("core.sample_ms", "ms"),
    ("core.sscm_ms", "ms"),
    ("core.mc_ms", "ms"),
    ("core.sweep_fixed_ms", "ms"),
    ("core.sweep_adaptive_ms", "ms"),
    ("core.ac_solves", "count"),
    ("core.adaptive_points", "count"),
    ("core.adaptive_waves", "count"),
    ("core.quarantined", "count"),
    ("core.recovered", "count"),
    ("stochastic.collocation_runs", "count"),
    ("stochastic.mc_runs", "count"),
    ("stochastic.fit_ms", "ms"),
    ("variation.reduced_dim", "count"),
    ("parallel.threads", "count"),
    ("parallel.speedup", "x"),
];

/// Per-layer values of one replay, keyed by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// What one operation produced.
pub struct OpOutput {
    /// Every result value, compared with the reference and digested.
    pub values: Vec<f64>,
    /// Deterministic solves the operation performed.
    pub solves: usize,
    /// Failed invariant checks (empty when the result is sound).
    pub problems: Vec<String>,
}

impl OpOutput {
    pub fn digest(&self) -> String {
        result_digest(self.values.iter().copied())
    }
}

/// A set-up workload, ready to run operations.
pub enum Workload {
    Nominal(TsvArrayExperiment),
    Variation(TsvArrayExperiment),
    Plug(Box<PlugSweep>),
}

pub struct PlugSweep {
    experiment: MetalPlugExperiment,
    analysis: VariationalAnalysis,
    grid: Vec<f64>,
    coarse: Vec<f64>,
    options: AdaptiveSweepOptions,
}

/// The input variant a seed selects. `plug_sweep` has a single input: its
/// collocation grid and frequency grids are deterministic.
pub fn variant_of(workload: &str, seed: u64) -> usize {
    if workload == PLUG {
        return 0;
    }
    // SplitMix64 finaliser, so neighbouring seeds pick unrelated variants.
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    ((z ^ (z >> 31)) % VARIANTS as u64) as usize
}

/// Monte-Carlo seed of an `array_variation_2x2` variant; variant 0 is the
/// experiment's default seed.
fn mc_seed(variant: usize) -> u64 {
    2012 + variant as u64
}

impl Workload {
    /// Builds the workload's experiment (and, for `plug_sweep`, its
    /// structure and analysis) for one input variant.
    pub fn setup(name: &str, variant: usize) -> Result<Self, String> {
        match name {
            NOMINAL => {
                let geometry = TsvArrayConfig::coarse(4, 4);
                let aggressor = (variant / geometry.cols, variant % geometry.cols);
                Ok(Self::Nominal(TsvArrayExperiment {
                    geometry,
                    aggressor,
                    ..TsvArrayExperiment::quick()
                }))
            }
            VARIATION => {
                let mut experiment = TsvArrayExperiment::quick();
                experiment.seed = mc_seed(variant);
                Ok(Self::Variation(experiment))
            }
            PLUG => {
                let experiment = MetalPlugExperiment::quick().with_row(TableOneRow::DopingOnly);
                let analysis = experiment.analysis();
                Ok(Self::Plug(Box::new(PlugSweep {
                    experiment,
                    analysis,
                    grid: log_grid(16, 1.0e7, 1.0e12),
                    coarse: log_grid(5, 1.0e7, 1.0e12),
                    options: AdaptiveSweepOptions {
                        rel_tolerance: 0.02,
                        max_points: 33,
                        ..AdaptiveSweepOptions::default()
                    },
                })))
            }
            other => Err(format!(
                "unknown workload {other:?}; known: {}",
                NAMES.join(", ")
            )),
        }
    }

    /// `VAEM_THREADS` the workload runs at.
    pub fn threads(&self) -> usize {
        match self {
            Self::Variation(_) | Self::Plug(_) => 2,
            Self::Nominal(_) => 1,
        }
    }

    /// The generated input, for the run record.
    pub fn input(&self) -> String {
        match self {
            Self::Nominal(e) => format!("aggressor {}", e.aggressor_name()),
            Self::Variation(e) => format!("mc seed {}", e.seed),
            Self::Plug(_) => "seed unused: deterministic collocation grid".to_string(),
        }
    }

    /// One untraced operation.
    pub fn run_op(&self) -> Result<OpOutput, String> {
        match self {
            Self::Nominal(e) => Ok(nominal_output(&e.nominal_report().map_err(text)?)),
            Self::Variation(e) => Ok(variation_output(&e.run().map_err(text)?)),
            Self::Plug(p) => {
                let fixed = p.analysis.run_frequency_sweep(&p.grid).map_err(text)?;
                let adaptive = p
                    .analysis
                    .run_adaptive_frequency_sweep(&p.coarse, &p.options)
                    .map_err(text)?;
                Ok(plug_output(&fixed, &adaptive))
            }
        }
    }

    /// One operation replayed through the public calls of each layer under
    /// an `op` span, followed by layer probes outside it. Returns the
    /// replayed operation's output, which must equal the untraced one.
    pub fn replay(&self, tr: &mut Trace, layers: &mut Layers) -> Result<OpOutput, String> {
        match self {
            Self::Nominal(e) => replay_nominal(e, tr, layers),
            Self::Variation(e) => replay_variation(e, tr, layers),
            Self::Plug(p) => replay_plug(p, tr, layers),
        }
    }
}

fn text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn finite(values: &[f64]) -> bool {
    values.iter().all(|v| v.is_finite())
}

fn health_problems(health: &HealthReport, what: &str, problems: &mut Vec<String>) {
    if !health.is_clean() {
        problems.push(format!("{what} health: {}", health.summary()));
    }
}

fn nominal_output(report: &TsvArrayReport) -> OpOutput {
    let values: Vec<f64> = report
        .coupling
        .iter()
        .flatten()
        .copied()
        .chain(
            report
                .victims
                .iter()
                .flat_map(|v| v.spectrum.iter().map(|&(_, r)| r)),
        )
        .collect();
    let mut problems = Vec::new();
    if !finite(&values) {
        problems.push("non-finite capacitance or coupling ratio".to_string());
    }
    let defect = report.reciprocity_defect();
    if defect.is_nan() || defect >= 1.0e-5 {
        problems.push(format!("reciprocity defect {defect:e} >= 1e-5"));
    }
    for (i, row) in report.coupling.iter().enumerate() {
        for (j, &c) in row.iter().enumerate() {
            if (i == j && c <= 0.0) || (i != j && c >= 0.0) {
                problems.push(format!("C[{i}][{j}] = {c:e} has the wrong sign"));
            }
        }
    }
    let sweep_points = report.victims.first().map_or(0, |v| v.spectrum.len());
    OpOutput {
        solves: report.coupling.len() + sweep_points,
        values,
        problems,
    }
}

fn variation_output(result: &AnalysisResult) -> OpOutput {
    let mut values = vec![result.collocation_runs as f64, result.mc_runs as f64];
    let mut problems = Vec::new();
    for q in &result.quantities {
        let moments = [
            q.sscm.mean,
            q.sscm.std,
            q.monte_carlo.mean,
            q.monte_carlo.std,
        ];
        if !finite(&moments) {
            problems.push(format!("{}: non-finite mean or std", q.label));
        }
        values.push(q.nominal);
        values.extend_from_slice(&moments);
        values.extend_from_slice(&q.main_effects);
    }
    values.extend(result.health.digest_values());
    health_problems(&result.health, "analysis", &mut problems);
    OpOutput {
        values,
        solves: 1 + result.collocation_runs + result.mc_runs,
        problems,
    }
}

fn plug_output(fixed: &FrequencySweepResult, adaptive: &AdaptiveSweepResult) -> OpOutput {
    let sweep = &adaptive.sweep;
    // The adaptive point count leads, so a refinement change is named
    // as such by the reference check.
    let mut values = vec![
        sweep.frequencies.len() as f64,
        adaptive.waves as f64,
        fixed.collocation_runs as f64,
    ];
    for result in [fixed, sweep] {
        values.extend_from_slice(&result.frequencies);
        for q in &result.quantities {
            values.extend_from_slice(&q.nominal);
            values.extend(q.sscm.iter().flat_map(|s| [s.mean, s.std]));
        }
        values.extend(result.health.digest_values());
    }
    let mut problems = Vec::new();
    if !finite(&values) {
        problems.push("non-finite spectrum".to_string());
    }
    health_problems(&fixed.health, "fixed sweep", &mut problems);
    health_problems(&sweep.health, "adaptive sweep", &mut problems);
    OpOutput {
        values,
        solves: fixed.ac_solve_count() + adaptive.ac_solve_count(),
        problems,
    }
}

/// Which capacitance columns an FVM pass extracts at its fixed frequency.
enum Columns<'a> {
    /// Every terminal, in the solver's terminal order.
    All,
    One(&'a str),
}

/// The nominal deterministic pipeline of one structure, call by call.
struct FvmPlan<'a> {
    options: SolverOptions,
    /// Capacitance extraction: frequency and columns.
    capacitance: Option<(f64, Columns<'a>)>,
    /// Frequency sweep of `driven`, then its coupling ratio to each victim.
    sweep: &'a [f64],
    driven: &'a str,
    victims: &'a [String],
}

struct FvmOutput {
    columns: BTreeMap<String, BTreeMap<String, f64>>,
    spectra: Vec<Vec<(f64, f64)>>,
}

/// Runs `plan` through the public `vaem_fvm` calls, one span per call, and
/// records the Newton and linear-solver counts the calls return.
fn fvm_pass(
    tr: &mut Trace,
    layers: &mut Layers,
    structure: &Structure,
    doping: &DopingProfile,
    plan: FvmPlan<'_>,
) -> Result<FvmOutput, String> {
    let solver = tr
        .span("fvm.topology", |_| {
            CoupledSolver::new(structure, doping, plan.options.clone())
        })
        .map_err(text)?;
    let dc = tr.span("fvm.dc", |_| solver.solve_dc()).map_err(text)?;
    *layers.entry("fvm.dc_newton_iters").or_default() += dc.newton_iterations as f64;

    let mut solutions: Vec<AcSolution> = Vec::new();
    let mut unknowns = 0;
    let mut columns = BTreeMap::new();
    if let Some((frequency, which)) = &plan.capacitance {
        let mut operator = tr
            .span("fvm.ac_prepare", |_| solver.prepare_ac(&dc, *frequency))
            .map_err(text)?;
        unknowns = operator.unknown_count();
        let terminals = solver.terminals();
        let driven: Vec<String> = match which {
            Columns::All => (0..terminals.terminal_count())
                .map(|k| terminals.name(k).to_string())
                .collect(),
            Columns::One(name) => vec![name.to_string()],
        };
        for name in driven {
            let ac = tr
                .span("fvm.ac_column", |_| operator.solve_terminal(&name))
                .map_err(text)?;
            let column = tr
                .span("fvm.capacitance_post", |_| {
                    postprocess::capacitance_column_from(&solver, &ac)
                })
                .map_err(text)?;
            columns.insert(name, column);
            solutions.push(ac);
        }
    }

    let mut spectra = Vec::new();
    if !plan.sweep.is_empty() {
        let mut operator = tr
            .span("fvm.sweep_prepare", |_| solver.prepare_ac_sweep(&dc))
            .map_err(text)?;
        let mut sweep = Vec::with_capacity(plan.sweep.len());
        for &frequency in plan.sweep {
            let ac = tr
                .span("fvm.sweep_point", |_| {
                    operator.solve_at(frequency, plan.driven)
                })
                .map_err(text)?;
            sweep.push(ac);
        }
        unknowns = operator.unknown_count();
        for victim in plan.victims {
            let spectrum = tr
                .span("fvm.coupling_post", |_| {
                    postprocess::coupling_ratio_spectrum(&solver, &sweep, plan.driven, victim)
                })
                .map_err(text)?;
            spectra.push(spectrum);
        }
        solutions.extend(sweep);
    }

    let direct = solutions
        .iter()
        .filter(|ac| ac.solver_strategy == "sparse-lu")
        .count();
    *layers.entry("sparse.unknowns").or_default() = unknowns as f64;
    *layers.entry("sparse.direct_solves").or_default() += direct as f64;
    *layers.entry("sparse.krylov_solves").or_default() += (solutions.len() - direct) as f64;
    let residual = layers.entry("sparse.max_residual").or_default();
    for ac in &solutions {
        *residual = residual.max(ac.linear_residual);
    }
    Ok(FvmOutput { columns, spectra })
}

/// `TsvArrayExperiment::nominal_report`, call by call.
fn replay_nominal(
    e: &TsvArrayExperiment,
    tr: &mut Trace,
    layers: &mut Layers,
) -> Result<OpOutput, String> {
    let report = tr.span("op", |tr| -> Result<TsvArrayReport, String> {
        let structure = tr
            .span("mesh.build", |_| build_tsv_array_structure(&e.geometry))
            .map_err(text)?;
        let semis = structure.semiconductor_nodes();
        let doping =
            DopingProfile::uniform_donor(structure.mesh.node_count(), &semis, ARRAY_NOMINAL_DONOR);
        let names = e.geometry.via_names();
        let aggressor = e.aggressor_name();
        let victims: Vec<String> = names.iter().filter(|n| **n != aggressor).cloned().collect();
        let grid = e.sweep_grid();
        let out = fvm_pass(
            tr,
            layers,
            &structure,
            &doping,
            FvmPlan {
                options: SolverOptions::default(),
                capacitance: Some((e.frequency, Columns::All)),
                sweep: &grid,
                driven: &aggressor,
                victims: &victims,
            },
        )?;
        let coupling = names
            .iter()
            .map(|driven| {
                names
                    .iter()
                    .map(|t| out.columns[driven][t] * 1.0e15)
                    .collect()
            })
            .collect();
        let index = |name: &str| names.iter().position(|n| n == name).unwrap_or(0);
        let victims = victims
            .into_iter()
            .zip(out.spectra)
            .map(|(victim, spectrum)| VictimSpectrum {
                grid_distance: e.geometry.grid_distance(index(&aggressor), index(&victim)),
                victim,
                spectrum,
            })
            .collect();
        Ok(TsvArrayReport {
            via_names: names,
            aggressor,
            frequency: e.frequency,
            coupling,
            victims,
        })
    })?;
    Ok(nominal_output(&report))
}

/// `TsvArrayExperiment::run` (analysis build, then the SSCM/MC run), then
/// probes of one cold sample, its FVM pipeline and the PCE fit.
fn replay_variation(
    e: &TsvArrayExperiment,
    tr: &mut Trace,
    layers: &mut Layers,
) -> Result<OpOutput, String> {
    let result = tr.span("op", |tr| {
        let analysis = tr.span("core.analysis", |_| e.analysis()).map_err(text)?;
        tr.span("core.run", |_| analysis.run()).map_err(text)
    })?;

    tr.span("mesh.build", |_| build_tsv_array_structure(&e.geometry))
        .map_err(text)?;
    let analysis = e.analysis().map_err(text)?;
    tr.span("core.sample", |_| analysis.evaluate_sample(&[], &[]))
        .map_err(text)?;
    let aggressor = e.aggressor_name();
    fvm_pass(
        tr,
        layers,
        analysis.structure(),
        &analysis.nominal_doping(),
        FvmPlan {
            options: analysis.config().solver.clone(),
            capacitance: Some((e.frequency, Columns::One(&aggressor))),
            sweep: &[],
            driven: &aggressor,
            victims: &[],
        },
    )?;
    let dim = result.total_reduced_dim();
    fit_probe(tr, dim, result.quantities.len())?;

    layers.insert("core.sscm_ms", result.sscm_seconds * 1.0e3);
    layers.insert("core.mc_ms", result.mc_seconds * 1.0e3);
    layers.insert(
        "stochastic.collocation_runs",
        result.collocation_runs as f64,
    );
    layers.insert("stochastic.mc_runs", result.mc_runs as f64);
    layers.insert("variation.reduced_dim", dim as f64);
    record_run_stats(layers, &result.seed_reuse, &result.health);
    Ok(variation_output(&result))
}

/// The fixed and adaptive sweeps, then probes of the mesh build, the
/// nominal sample's FVM sweep and the PCE fit.
fn replay_plug(p: &PlugSweep, tr: &mut Trace, layers: &mut Layers) -> Result<OpOutput, String> {
    let (fixed, adaptive) = tr.span("op", |tr| -> Result<_, String> {
        let fixed = tr
            .span("core.sweep_fixed", |_| {
                p.analysis.run_frequency_sweep(&p.grid)
            })
            .map_err(text)?;
        let adaptive = tr
            .span("core.sweep_adaptive", |_| {
                p.analysis
                    .run_adaptive_frequency_sweep(&p.coarse, &p.options)
            })
            .map_err(text)?;
        Ok((fixed, adaptive))
    })?;

    tr.span("mesh.build", |_| {
        build_metalplug_structure(&p.experiment.geometry)
    });
    let driven = "plug1";
    fvm_pass(
        tr,
        layers,
        p.analysis.structure(),
        &p.analysis.nominal_doping(),
        FvmPlan {
            options: p.analysis.config().solver.clone(),
            capacitance: None,
            sweep: &p.grid,
            driven,
            victims: &[],
        },
    )?;
    let dim: usize = fixed.reductions.iter().map(|g| g.reduced_dim).sum();
    fit_probe(tr, dim, fixed.quantities.len() * fixed.frequencies.len())?;

    layers.insert(
        "core.ac_solves",
        (fixed.ac_solve_count() + adaptive.ac_solve_count()) as f64,
    );
    layers.insert(
        "core.adaptive_points",
        adaptive.sweep.frequencies.len() as f64,
    );
    layers.insert("core.adaptive_waves", adaptive.waves as f64);
    layers.insert("stochastic.collocation_runs", fixed.collocation_runs as f64);
    layers.insert("variation.reduced_dim", dim as f64);
    record_run_stats(layers, &fixed.seed_reuse, &fixed.health);
    record_run_stats(layers, &adaptive.sweep.seed_reuse, &adaptive.sweep.health);
    Ok(plug_output(&fixed, &adaptive))
}

/// `SparseCollocation::fit` at the workload's reduced dimension and output
/// count, on smooth synthetic outputs.
fn fit_probe(tr: &mut Trace, dim: usize, outputs: usize) -> Result<(), String> {
    if dim == 0 {
        return Ok(());
    }
    let sscm = SparseCollocation::new(dim);
    let runs: Vec<Vec<f64>> = sscm
        .points()
        .iter()
        .map(|z| {
            (0..outputs)
                .map(|q| {
                    let linear: f64 = z
                        .iter()
                        .enumerate()
                        .map(|(i, x)| x * (1 + (i + q) % 3) as f64)
                        .sum();
                    1.0 + linear + 0.1 * z[0] * z[0]
                })
                .collect()
        })
        .collect();
    tr.span("stochastic.fit", |_| sscm.fit(&runs))
        .map_err(text)?;
    Ok(())
}

fn record_run_stats(layers: &mut Layers, seed: &SeedReuseStats, health: &HealthReport) {
    let counts = [
        ("sparse.dc_stale_refactors", seed.dc_stale_refactorizations),
        ("sparse.ac_stale_refactors", seed.ac_stale_refactorizations),
        (
            "sparse.donor_refreshes",
            seed.dc_donor_refreshes + seed.ac_donor_refreshes,
        ),
        ("core.quarantined", health.quarantined.len() as u64),
        ("core.recovered", health.recovered.len() as u64),
    ];
    for (name, n) in counts {
        *layers.entry(name).or_default() += n as f64;
    }
}

/// Fills the span-timed metrics of one replay from its trace.
pub fn span_metrics(tr: &Trace, layers: &mut Layers) {
    for &(name, _) in LAYER_METRICS {
        let Some(span) = name.strip_suffix("_ms") else {
            continue;
        };
        let (seconds, calls) = tr.total(span);
        if calls == 0 {
            continue;
        }
        // One solve_at is the unit of sweep cost; the other spans add up.
        let per = if span == "fvm.sweep_point" {
            calls as f64
        } else {
            1.0
        };
        layers.insert(name, seconds * 1.0e3 / per);
    }
}
