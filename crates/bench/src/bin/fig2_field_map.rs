//! Regenerates **Fig. 2** of the paper: (a) the metal-plug mesh statistics
//! (node/link counts, material breakdown) and (b) the potential map on the
//! metal–semiconductor interface plane, written to `fig2_field.csv`.

use std::fs;
use vaem_fvm::{postprocess, CoupledSolver, SolverOptions};
use vaem_mesh::structures::metalplug::{build_metalplug_structure, MetalPlugConfig};
use vaem_mesh::Axis;
use vaem_physics::DopingProfile;

fn main() {
    let config = MetalPlugConfig::default();
    let structure = build_metalplug_structure(&config);
    let mesh = &structure.mesh;
    let (metal, insulator, semi) = structure.materials.counts();

    println!("== Fig. 2(a): metal-plug structure mesh ==");
    println!(
        "nodes: {}   links: {}",
        mesh.node_count(),
        mesh.link_count()
    );
    println!("  (paper mesh: 1300 nodes, 3540 links)");
    println!("materials: {metal} metal, {insulator} insulator, {semi} semiconductor nodes");
    let (lx, ly, lz) = mesh.link_counts_by_axis();
    println!("links by axis: x {lx}, y {ly}, z {lz}");
    println!();

    let semis = structure.semiconductor_nodes();
    let doping = DopingProfile::uniform_donor(mesh.node_count(), &semis, 1.0e5);
    let solver = CoupledSolver::new(&structure, &doping, SolverOptions::default())
        .expect("solver binds to the structure");
    let dc = solver.solve_dc().expect("equilibrium converges");
    let ac = solver
        .solve_ac(&dc, "plug1", 1.0e9)
        .expect("AC solve at 1 GHz");

    println!(
        "== Fig. 2(b): potential on the metal-semiconductor interface (z = {} um) ==",
        config.silicon_height
    );
    let slice =
        postprocess::potential_slice(&solver, &ac.potential, Axis::Z, config.silicon_height, 1e-6)
            .expect("the AC potential covers every mesh node");
    let min = slice.iter().map(|(_, v)| *v).fold(f64::INFINITY, f64::min);
    let max = slice
        .iter()
        .map(|(_, v)| *v)
        .fold(f64::NEG_INFINITY, f64::max);
    println!(
        "{} interface samples, Re(V) range [{:.4}, {:.4}] V (paper colour scale: 0.49-0.57 V)",
        slice.len(),
        min,
        max
    );

    let mut csv = String::from("x,y,re_v\n");
    for (p, v) in &slice {
        csv.push_str(&format!("{},{},{}\n", p[0], p[1], v));
    }
    match fs::write("fig2_field.csv", csv) {
        Ok(()) => println!("wrote interface potential map to fig2_field.csv"),
        Err(e) => eprintln!("could not write fig2_field.csv: {e}"),
    }
}
