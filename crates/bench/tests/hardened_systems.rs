//! Pinned hardened systems `T'`: the `Debug` text of every system the
//! sample designs harden, hashed with `fnv1a64`. The hardening plan types
//! can be reshaped freely, but the graph `harden` builds must not move.
//! (The golden-front test of the root `determinism` suite pins the systems
//! its 48×30 explorations harden.)

use mcmap_bench::sample_designs;
use mcmap_benchmarks::by_name;
use mcmap_resilience::fnv1a64;

#[test]
fn sample_designs_harden_to_pinned_systems() {
    let names = [
        "cruise",
        "dt-med",
        "dt-large",
        "synth1",
        "synth2",
        "fleet-small",
    ];
    let got: Vec<String> = names
        .iter()
        .map(|&name| {
            let b = by_name(name).expect("known benchmark");
            let designs = sample_designs(&b, 2, 11);
            assert!(!designs.is_empty(), "{name}: no sample design");
            let systems: String = designs.iter().map(|d| format!("{:?}", d.hsys)).collect();
            format!("{name}: {:#018x}", fnv1a64(systems.as_bytes()))
        })
        .collect();
    assert_eq!(
        got,
        [
            "cruise: 0x7fa2d1c3fe5669a9",
            "dt-med: 0x2b871e21af83fe05",
            "dt-large: 0x5a4caabddecb7387",
            "synth1: 0xa6a2a304cf03f75c",
            "synth2: 0x2d6f1cf78e62e35c",
            "fleet-small: 0x4020fc332e20fbd5",
        ]
    );
}
