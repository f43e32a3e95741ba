//! Criterion bench: the 64-sample stochastic sweep through the
//! cross-sample factorization-reuse path.
//!
//! `sample_sweep_64` runs a doping-variation analysis (64 Monte-Carlo
//! samples plus the SSCM collocation points) on the `tiny` metal-plug mesh,
//! whose DC and AC systems stay below the `Auto` direct-LU threshold: every
//! sample factorizes direct sparse LUs, so the nominal sample's donated
//! symbolic phase (ordering + pivot structure, shared through the
//! `SolverTopology`) is what each worker starts from. The donor is
//! write-once: the nominal publishes it before the fan-out and it is never
//! replaced, so one run pays 2 cold direct factorizations (the nominal's DC
//! and AC operators) and every other prepare is seeded. `_unseeded` disables
//! the reuse (`SolverOptions::seeding = Seeding::Off`) — the ratio between
//! the two is the per-sample cost of the symbolic analysis and pivot
//! discovery that seeding removes. The results of both variants are
//! bit-identical (tier-1 `seeded_sample_sweep_is_bit_identical...` test).
//!
//! `_t1`/`_t2` pin the worker-thread count with `VAEM_CHUNK=1` (maximal
//! work stealing on the ragged Newton costs); on a multi-core host `_t2`
//! should beat `_t1`, on a single-core container they tie.

use criterion::{criterion_group, criterion_main, Criterion};
use vaem::config::{AnalysisConfig, DopingVariationConfig, QuantitySet, VariationSpec};
use vaem::VariationalAnalysis;
use vaem_fvm::Seeding;
use vaem_mesh::structures::metalplug::{build_metalplug_structure, MetalPlugConfig};

fn sweep_analysis(seeding: Seeding) -> VariationalAnalysis {
    let structure = build_metalplug_structure(&MetalPlugConfig::tiny());
    let mut config = AnalysisConfig::new(QuantitySet::InterfaceCurrent {
        terminal: "plug1".to_string(),
    });
    config.mc_runs = 64;
    config.energy_fraction = 0.9;
    config.max_reduced_per_group = 2;
    config.solver.seeding = seeding;
    config.variations = VariationSpec {
        roughness: None,
        doping: Some(DopingVariationConfig {
            max_nodes: 10,
            ..DopingVariationConfig::paper_default()
        }),
        via_params: None,
    };
    VariationalAnalysis::new(structure, config)
}

fn run(analysis: &VariationalAnalysis) -> usize {
    let result = analysis.run().expect("sample sweep");
    assert_eq!(
        result.seed_reuse.dc_seeded,
        analysis.config().solver.seeding == Seeding::Publish,
        "seed publication must follow the seeding mode"
    );
    result.collocation_runs + result.mc_runs
}

fn bench_sample_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("sample_sweep");
    group.sample_size(2);

    let seeded = sweep_analysis(Seeding::Publish);
    group.bench_function("sample_sweep_64", |b| b.iter(|| run(&seeded)));

    let unseeded = sweep_analysis(Seeding::Off);
    group.bench_function("sample_sweep_64_unseeded", |b| b.iter(|| run(&unseeded)));

    for threads in [1usize, 2] {
        std::env::set_var("VAEM_THREADS", threads.to_string());
        std::env::set_var("VAEM_CHUNK", "1");
        group.bench_function(format!("sample_sweep_64_t{threads}"), |b| {
            b.iter(|| run(&seeded))
        });
    }
    std::env::remove_var("VAEM_THREADS");
    std::env::remove_var("VAEM_CHUNK");
    group.finish();
}

criterion_group!(benches, bench_sample_sweep);
criterion_main!(benches);
