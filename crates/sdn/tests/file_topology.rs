//! File-backed topologies are first-class fabric substrates: a
//! `.topo`-loaded Hurricane Electric core must be indistinguishable —
//! bitwise — from the generator's, all the way through a fabric
//! measurement. This is what makes the committed `topologies/` catalog
//! trustworthy: the exported artifacts are not approximations of the
//! generators, they *are* the generators, through a text round trip.

use fubar_sdn::Fabric;
use fubar_topology::{catalog, format, generators, Bandwidth, Delay};
use fubar_traffic::{workload, WorkloadConfig};

/// The committed `topologies/he-core-31.topo` (embedded in the catalog)
/// is the 100 Mb/s generator export, and a fabric built on it measures
/// bitwise-identically to one built on the generator output directly:
/// same workload, same bundles, same water-filling equilibrium, same
/// utility report — every float equal by bits.
#[test]
fn file_loaded_he_core_measures_bitwise_like_the_generator() {
    let from_generator = generators::he_core(Bandwidth::from_mbps(100.0));
    let from_file = catalog::load("he-core-31").expect("he-core-31 is committed");
    // Structural equality is bitwise on names, coordinates, capacities,
    // delays, and link layout.
    assert_eq!(from_generator, from_file);

    let cfg = WorkloadConfig {
        include_intra_pop: true,
        ..WorkloadConfig::default()
    };
    let seed = 11;
    let epoch = Delay::from_secs(10.0);
    let tm_gen = workload::generate(&from_generator, &cfg, seed);
    let tm_file = workload::generate(&from_file, &cfg, seed);
    assert_eq!(tm_gen.len(), 961, "31^2 aggregates with intra-POP pairs");

    let mut fabric_gen = Fabric::new(from_generator, tm_gen, epoch);
    let mut fabric_file = Fabric::new(from_file, tm_file, epoch);
    let a = fabric_gen.peek();
    let b = fabric_file.peek();
    assert_eq!(
        a.bitwise_mismatch(&b),
        None,
        "file-loaded HE core must measure bitwise like the generator"
    );
    // And through an epoch run (counters, cache reuse) as well.
    let a = fabric_gen.run_epoch();
    let b = fabric_file.run_epoch();
    assert_eq!(a.bitwise_mismatch(&b), None);
}

/// The same fidelity holds for a serialize → parse round trip done in
/// memory (no committed artifact in the loop): exporting any generator
/// and re-importing it changes nothing a fabric can observe.
#[test]
fn in_memory_export_import_preserves_fabric_measurement() {
    let original = generators::abilene(Bandwidth::from_mbps(3.0));
    let reloaded = format::parse(&format::serialize(&original)).expect("export reparses");
    assert_eq!(original, reloaded);

    let cfg = WorkloadConfig {
        include_intra_pop: false,
        flow_count: (2, 6),
        ..WorkloadConfig::default()
    };
    let tm_a = workload::generate(&original, &cfg, 7);
    let tm_b = workload::generate(&reloaded, &cfg, 7);
    let epoch = Delay::from_secs(5.0);
    let a = Fabric::new(original, tm_a, epoch).peek().into_owned();
    let b = Fabric::new(reloaded, tm_b, epoch).peek().into_owned();
    assert_eq!(a.bitwise_mismatch(&b), None);
}
