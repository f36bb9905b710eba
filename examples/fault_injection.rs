//! Fault-injection study: validate the static WCRT bound of Algorithm 1
//! against Monte-Carlo simulation with increasingly aggressive fault
//! injection on the DT-med benchmark.
//!
//! Run with: `cargo run --release --example fault_injection`

use mcmap::benchmarks::dt_med;
use mcmap::core::{analyze, repair_reliability, repair_structure, GenomeSpace};
use mcmap::hardening::harden;
use mcmap::model::AppId;
use mcmap::sched::Mapping;
use mcmap::sim::{monte_carlo, MonteCarloConfig, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let b = dt_med();

    // Build one repaired, reliability-satisfying design.
    let space = GenomeSpace::new(&b.apps, &b.arch);
    let mut rng = StdRng::seed_from_u64(12);
    let mut genome = space.clustered(&mut rng);
    repair_structure(&mut genome, &space, &mut rng);
    assert!(repair_reliability(
        &mut genome,
        &space,
        &b.apps,
        &b.arch,
        &mut rng,
        100
    ));
    let (plan, dropped, bindings) = space.decode(&genome);
    let hsys = harden(&b.apps, &plan, &b.arch).expect("repaired plans are valid");
    let placement = hsys.placement(&bindings);
    let mapping = Mapping::new(&hsys, &b.arch, placement).expect("repaired plans map");

    let mc = analyze(&hsys, &b.arch, &mapping, &b.policies, &dropped);
    println!(
        "design: {} hardened tasks, dropped set T_d = {:?}\n",
        hsys.num_tasks(),
        dropped
    );

    println!(
        "{:>10} {:>8} | per-app max simulated response vs. static bound",
        "boost", "profiles"
    );
    for boost in [1.0, 1e3, 1e5, 1e7] {
        let result = monte_carlo(
            &hsys,
            &b.arch,
            &mapping,
            &b.policies,
            &MonteCarloConfig {
                runs: 400,
                seed: 77,
                boost,
                sim: SimConfig::worst_case(dropped.clone()),
            },
        );
        print!("{boost:>10.0} {:>8}", 400);
        for id in b.apps.app_ids() {
            let sim_wcrt = result.app_wcrt[id.index()];
            let bound = mc.app_wcrt(&hsys, id, &dropped);
            assert!(
                sim_wcrt <= bound,
                "{}: simulation {} exceeded the bound {}",
                b.apps.app(id).name(),
                sim_wcrt,
                bound
            );
            print!(" | {} {}/{}", b.apps.app(id).name(), sim_wcrt, bound);
        }
        println!(
            "  (critical entries: {}, unsafe: {})",
            result.critical_entries, result.unsafe_instances
        );
    }
    println!("\nEvery simulated response stayed within the Algorithm 1 bound.");

    // Empirical reliability cross-check: with unboosted faults the design's
    // unsafe-instance count should be zero over this horizon.
    let baseline = monte_carlo(
        &hsys,
        &b.arch,
        &mapping,
        &b.policies,
        &MonteCarloConfig {
            runs: 400,
            seed: 78,
            boost: 1.0,
            sim: SimConfig::worst_case(dropped.clone()),
        },
    );
    println!(
        "unboosted campaign: {} unsafe instances across {} runs (reliability holds).",
        baseline.unsafe_instances, baseline.runs
    );
    let _ = AppId::new(0);
}
