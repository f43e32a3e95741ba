//! Tier-1 guarantee that both frequency sweeps contain a failing sample
//! under one rule: with a fault plan installed, the adaptive sweep (with a
//! tolerance loose enough that no refinement triggers) must report exactly
//! the `HealthReport` and the spectra of the fixed-grid sweep on the same
//! grid, at `VAEM_THREADS=1` and `4`.
//!
//! The plan fails SSCM sample 1 twice over: a one-shot degenerate mesh on
//! its first attempt and a sticky NaN-poisoned solve on every attempt. The
//! sample is therefore quarantined by its single recovery retry, and its
//! first failure is counted once, as `mesh-degenerate`.
//!
//! This file intentionally holds a single test: it mutates the process-wide
//! `VAEM_FAULTS`/`VAEM_THREADS` variables, so no other test may race on
//! them in this binary.

use vaem::config::{AnalysisConfig, DopingVariationConfig, QuantitySet, VariationSpec};
use vaem::health::{FailureKind, SampleStage};
use vaem::{AdaptiveSweepOptions, FrequencySweepResult, HealthReport, VariationalAnalysis};
use vaem_mesh::structures::metalplug::{build_metalplug_structure, MetalPlugConfig};

/// The doping-only metal-plug fixture of the analysis unit tests.
fn tiny_analysis() -> VariationalAnalysis {
    let structure = build_metalplug_structure(&MetalPlugConfig::coarse());
    let mut config = AnalysisConfig::new(QuantitySet::InterfaceCurrent {
        terminal: "plug1".to_string(),
    });
    config.mc_runs = 8;
    config.energy_fraction = 0.85;
    config.max_reduced_per_group = 2;
    config.variations = VariationSpec {
        roughness: None,
        doping: Some(DopingVariationConfig {
            max_nodes: 12,
            ..DopingVariationConfig::paper_default()
        }),
        via_params: None,
    };
    VariationalAnalysis::new(structure, config)
}

/// Bit-level fingerprint of a sweep's spectra.
fn spectra_bits(result: &FrequencySweepResult) -> Vec<u64> {
    let mut bits: Vec<u64> = result.frequencies.iter().map(|f| f.to_bits()).collect();
    for q in &result.quantities {
        bits.extend(q.nominal.iter().map(|v| v.to_bits()));
        for s in &q.sscm {
            bits.extend([s.mean.to_bits(), s.std.to_bits()]);
        }
    }
    bits
}

/// The fixed and the loose-tolerance adaptive sweep over one grid.
fn both_sweeps(analysis: &VariationalAnalysis) -> [(Vec<u64>, HealthReport); 2] {
    let grid = [1.0e8, 1.0e9, 5.0e9];
    let fixed = analysis
        .run_frequency_sweep(&grid)
        .expect("faulted fixed sweep must complete");
    let loose = AdaptiveSweepOptions {
        rel_tolerance: 1.0e9,
        ..AdaptiveSweepOptions::default()
    };
    let adaptive = analysis
        .run_adaptive_frequency_sweep(&grid, &loose)
        .expect("faulted adaptive sweep must complete");
    assert_eq!(adaptive.waves, 0, "the loose tolerance must not refine");
    [
        (spectra_bits(&fixed), fixed.health),
        (spectra_bits(&adaptive.sweep), adaptive.sweep.health),
    ]
}

#[test]
fn adaptive_and_fixed_sweeps_contain_a_failing_sample_identically() {
    let analysis = tiny_analysis();
    std::env::set_var("VAEM_FAULTS", "mesh@sscm:1,nan@sscm:1!");
    std::env::set_var("VAEM_THREADS", "1");
    let [serial_fixed, serial_adaptive] = both_sweeps(&analysis);
    std::env::set_var("VAEM_THREADS", "4");
    let [parallel_fixed, parallel_adaptive] = both_sweeps(&analysis);
    std::env::remove_var("VAEM_FAULTS");
    std::env::remove_var("VAEM_THREADS");

    let health = &serial_fixed.1;
    assert_eq!(
        health.quarantined_indices(SampleStage::Sscm),
        vec![1],
        "{health:?}"
    );
    assert_eq!(health.quarantined.len(), 1, "{health:?}");
    assert_eq!(health.quarantined[0].kind, FailureKind::NonFinite);
    assert!(
        health.recovered.is_empty(),
        "sample 1 must be quarantined only, never also recovered: {health:?}"
    );
    assert_eq!(health.counts.mesh_degenerate, 1, "{health:?}");
    assert_eq!(health.counts.total(), 1, "{health:?}");

    assert_eq!(
        serial_adaptive, serial_fixed,
        "the adaptive sweep contained the failing sample differently"
    );
    assert_eq!(
        parallel_fixed, serial_fixed,
        "the fixed sweep changed between VAEM_THREADS=1 and 4"
    );
    assert_eq!(
        parallel_adaptive, serial_adaptive,
        "the adaptive sweep changed between VAEM_THREADS=1 and 4"
    );
}
