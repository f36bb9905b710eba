//! Integration suite for the analyzer: the shipped benchmarks lint clean,
//! and every diagnostic code in [`mcmap_lint::ALL_CODES`] has a mutated
//! counterexample that triggers it through the public API.

use mcmap_benchmarks::{all_benchmarks, cruise, synth1, synth2};
use mcmap_hardening::{harden, Genome, HardeningPlan, TaskGene, TaskHardening};
use mcmap_lint::{inject, lint_system, LintReport, Linter, Severity, ALL_CODES};
use mcmap_model::{
    AppSet, Architecture, Criticality, ExecBounds, Fabric, ProcId, ProcKind, Processor, Task,
    TaskGraph, Time,
};
use proptest::prelude::*;

// --- fixtures -------------------------------------------------------------

fn arch(n: usize, rate: f64) -> Architecture {
    Architecture::builder()
        .homogeneous(n, Processor::new("p", ProcKind::new(0), 5.0, 20.0, rate))
        .build()
        .unwrap()
}

/// A clean one-app system: two chained tasks, comfortable deadline.
fn base_apps() -> AppSet {
    let g = TaskGraph::builder("a", Time::from_ticks(1_000))
        .criticality(Criticality::NonDroppable {
            max_failure_rate: 1e-4,
        })
        .task(Task::new("t0").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(10))))
        .task(Task::new("t1").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(10))))
        .channel(0, 1, 8)
        .build()
        .unwrap();
    AppSet::new(vec![g]).unwrap()
}

fn one_app(g: TaskGraph) -> AppSet {
    AppSet::new_unvalidated(vec![g])
}

fn task(wcet: u64) -> Task {
    Task::new("t").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(wcet)))
}

/// Builds the mutated counterexample for one diagnostic code and lints it.
/// One arm per code keeps the mapping auditable; the meta-test below checks
/// the match stays in sync with [`ALL_CODES`].
fn trigger(code: &str) -> LintReport {
    let a2 = arch(2, 1e-7);
    match code {
        // -- model-mirror codes (MC0001..MC0015) --------------------------
        "MC0001" => lint_system(&inject::with_cycle(&base_apps()), &a2),
        "MC0002" => {
            let g = TaskGraph::builder("x", Time::from_ticks(100))
                .task(task(1))
                .channel(0, 7, 4)
                .build_unvalidated();
            lint_system(&one_app(g), &a2)
        }
        "MC0003" => {
            let g = TaskGraph::builder("x", Time::from_ticks(100))
                .task(task(1))
                .channel(0, 0, 4)
                .build_unvalidated();
            lint_system(&one_app(g), &a2)
        }
        "MC0004" => {
            let g = TaskGraph::builder("x", Time::from_ticks(100))
                .task(Task::new("bare"))
                .build_unvalidated();
            lint_system(&one_app(g), &a2)
        }
        "MC0005" => lint_system(&inject::with_inverted_bounds(&base_apps()), &a2),
        "MC0006" => {
            let g = TaskGraph::builder("x", Time::ZERO)
                .task(task(1))
                .build_unvalidated();
            lint_system(&one_app(g), &a2)
        }
        "MC0007" => {
            let g = TaskGraph::builder("x", Time::from_ticks(100))
                .deadline(Time::ZERO)
                .task(task(1))
                .build_unvalidated();
            lint_system(&one_app(g), &a2)
        }
        "MC0008" => {
            let g = TaskGraph::builder("x", Time::from_ticks(100))
                .criticality(Criticality::NonDroppable {
                    max_failure_rate: 0.0,
                })
                .task(task(1))
                .build_unvalidated();
            lint_system(&one_app(g), &a2)
        }
        "MC0009" => {
            let g = TaskGraph::builder("x", Time::from_ticks(100))
                .criticality(Criticality::Droppable { service: -1.0 })
                .task(task(1))
                .build_unvalidated();
            lint_system(&one_app(g), &a2)
        }
        "MC0010" => lint_system(&base_apps(), &Architecture::builder().build_unvalidated()),
        "MC0011" => {
            let broken = Architecture::builder()
                .homogeneous(2, Processor::new("p", ProcKind::new(0), 5.0, 20.0, 1e-7))
                .fabric(Fabric::new(0))
                .build_unvalidated();
            lint_system(&base_apps(), &broken)
        }
        "MC0012" => {
            let broken = Architecture::builder()
                .homogeneous(2, Processor::new("p", ProcKind::new(0), 5.0, 20.0, -1.0))
                .build_unvalidated();
            lint_system(&base_apps(), &broken)
        }
        "MC0013" => {
            let broken = Architecture::builder()
                .homogeneous(
                    2,
                    Processor::new("p", ProcKind::new(0), f64::NAN, 20.0, 1e-7),
                )
                .build_unvalidated();
            lint_system(&base_apps(), &broken)
        }
        "MC0014" => lint_system(&AppSet::new_unvalidated(vec![]), &a2),
        "MC0015" => {
            let g = TaskGraph::builder("x", Time::from_ticks(100))
                .deadline(Time::from_ticks(200))
                .task(task(1))
                .build_unvalidated();
            lint_system(&one_app(g), &a2)
        }

        // -- lint-only codes (MC0101..) ------------------------------------
        // A fault rate high enough that the best achievable failure
        // probability stays above f64 rounding (1 − p must differ from 1).
        "MC0101" => lint_system(
            &inject::with_unsatisfiable_reliability(&base_apps()),
            &arch(2, 1e-4),
        ),
        "MC0102" => {
            let g = TaskGraph::builder("x", Time::from_ticks(100))
                .task(task(60))
                .task(task(60))
                .channel(0, 1, 1)
                .build()
                .unwrap();
            lint_system(&one_app(g), &arch(4, 0.0))
        }
        "MC0103" => {
            let g = TaskGraph::builder("x", Time::from_ticks(100))
                .task(task(90))
                .task(task(90))
                .build()
                .unwrap();
            lint_system(&one_app(g), &arch(1, 0.0))
        }
        "MC0104" => {
            let lopsided = Architecture::builder()
                .processor(Processor::new("p0", ProcKind::new(0), 1.0, 1.0, 0.0))
                .processor(Processor::new("odd", ProcKind::new(1), 1.0, 1.0, 0.0))
                .build()
                .unwrap();
            lint_system(&base_apps(), &lopsided)
        }
        "MC0105" => {
            let g = TaskGraph::builder("x", Time::from_ticks(100))
                .task(task(0))
                .build()
                .unwrap();
            lint_system(&one_app(g), &a2)
        }
        "MC0106" => Linter::new(&base_apps(), &a2).lint_genome(&Genome {
            alloc: vec![true, false],
            keep: vec![],
            genes: vec![
                TaskGene {
                    binding: ProcId::new(0),
                    hardening: TaskHardening::Active {
                        replicas: vec![ProcId::new(0)],
                        voter: ProcId::new(1), // unallocated voter
                    },
                },
                TaskGene {
                    binding: ProcId::new(0),
                    hardening: TaskHardening::None,
                },
            ],
        }),
        "MC0107" => {
            let mut plan = HardeningPlan::unhardened(&base_apps());
            plan.set_by_flat_index(
                0,
                TaskHardening::Active {
                    replicas: vec![ProcId::new(1), ProcId::new(1)],
                    voter: ProcId::new(0),
                },
            );
            Linter::new(&base_apps(), &a2).lint_plan(&plan)
        }
        "MC0108" => {
            let g = TaskGraph::builder("x", Time::from_ticks(1_000))
                .criticality(Criticality::Droppable { service: 3.0 })
                .task(task(10))
                .build()
                .unwrap();
            let apps = AppSet::new(vec![g]).unwrap();
            let mut plan = HardeningPlan::unhardened(&apps);
            plan.set_by_flat_index(0, TaskHardening::Reexec(1));
            Linter::new(&apps, &a2).lint_plan(&plan)
        }
        "MC0109" => Linter::new(&base_apps(), &a2).lint_plan(&HardeningPlan::from_entries(vec![])),
        "MC0110" => {
            let mut plan = HardeningPlan::unhardened(&base_apps());
            plan.set_by_flat_index(
                0,
                TaskHardening::Active {
                    replicas: vec![ProcId::new(9)],
                    voter: ProcId::new(0),
                },
            );
            Linter::new(&base_apps(), &a2).lint_plan(&plan)
        }
        "MC0111" => Linter::new(&base_apps(), &a2).lint_genome(&Genome {
            alloc: vec![false, false],
            keep: vec![],
            genes: vec![
                TaskGene {
                    binding: ProcId::new(0),
                    hardening: TaskHardening::None,
                },
                TaskGene {
                    binding: ProcId::new(1),
                    hardening: TaskHardening::None,
                },
            ],
        }),
        "MC0112" => {
            let mut plan = HardeningPlan::unhardened(&base_apps());
            plan.set_by_flat_index(0, TaskHardening::Reexec(3));
            Linter::new(&base_apps(), &a2)
                .with_limits(2, 2)
                .lint_plan(&plan)
        }
        "MC0113" => {
            let g = TaskGraph::builder("x", Time::from_ticks(100))
                .task(
                    Task::new("gpu-only")
                        .with_exec(ProcKind::new(5), ExecBounds::exact(Time::from_ticks(1))),
                )
                .build()
                .unwrap();
            lint_system(&one_app(g), &a2)
        }
        // -- interference codes (MC0120..) ---------------------------------
        "MC0120" => {
            // Three apps all bound to p0: every pair shares a PE.
            let apps = AppSet::new_unvalidated(vec![
                clean_app("x", false),
                clean_app("y", false),
                clean_app("z", false),
            ]);
            Linter::new(&apps, &a2).lint_genome(&Genome {
                alloc: vec![true, true],
                keep: vec![],
                genes: vec![bound(0), bound(0), bound(0)],
            })
        }
        "MC0121" => {
            // A re-executed critical task sharing p0 with a droppable app.
            let apps = AppSet::new_unvalidated(vec![clean_app("hi", false), clean_app("lo", true)]);
            Linter::new(&apps, &a2).lint_genome(&Genome {
                alloc: vec![true, true],
                keep: vec![true],
                genes: vec![
                    TaskGene {
                        binding: ProcId::new(0),
                        hardening: TaskHardening::Reexec(1),
                    },
                    bound(0),
                ],
            })
        }
        "MC0122" => {
            // Two apps on disjoint PEs: each is an interference-free island.
            let apps = AppSet::new_unvalidated(vec![clean_app("x", false), clean_app("y", false)]);
            Linter::new(&apps, &a2).lint_genome(&Genome {
                alloc: vec![true, true],
                keep: vec![],
                genes: vec![bound(0), bound(1)],
            })
        }
        other => panic!("no counterexample for {other}; extend trigger()"),
    }
}

/// A clean single-task application with an explicit criticality, for the
/// interference counterexamples.
fn clean_app(name: &str, droppable: bool) -> TaskGraph {
    let crit = if droppable {
        Criticality::Droppable { service: 1.0 }
    } else {
        Criticality::NonDroppable {
            max_failure_rate: 1e-4,
        }
    };
    TaskGraph::builder(name, Time::from_ticks(1_000))
        .criticality(crit)
        .task(task(10))
        .build()
        .unwrap()
}

/// An unhardened gene bound to processor `p`.
fn bound(p: usize) -> TaskGene {
    TaskGene {
        binding: ProcId::new(p),
        hardening: TaskHardening::None,
    }
}

fn assert_fires(code: &str) {
    let report = trigger(code);
    assert!(
        report.has_code(code),
        "{code} did not fire; report:\n{}",
        report.render_text()
    );
}

// --- one mutated counterexample test per diagnostic code ------------------

#[test]
fn mc0001_cyclic_graph() {
    assert_fires("MC0001");
}
#[test]
fn mc0002_dangling_channel() {
    assert_fires("MC0002");
}
#[test]
fn mc0003_self_loop() {
    assert_fires("MC0003");
}
#[test]
fn mc0004_unrunnable_task() {
    assert_fires("MC0004");
}
#[test]
fn mc0005_inverted_bounds() {
    assert_fires("MC0005");
}
#[test]
fn mc0006_zero_period() {
    assert_fires("MC0006");
}
#[test]
fn mc0007_zero_deadline() {
    assert_fires("MC0007");
}
#[test]
fn mc0008_invalid_failure_rate() {
    assert_fires("MC0008");
}
#[test]
fn mc0009_invalid_service() {
    assert_fires("MC0009");
}
#[test]
fn mc0010_empty_architecture() {
    assert_fires("MC0010");
}
#[test]
fn mc0011_zero_bandwidth() {
    assert_fires("MC0011");
}
#[test]
fn mc0012_invalid_fault_rate() {
    assert_fires("MC0012");
}
#[test]
fn mc0013_invalid_power() {
    assert_fires("MC0013");
}
#[test]
fn mc0014_empty_app_set() {
    assert_fires("MC0014");
}
#[test]
fn mc0015_deadline_exceeds_period() {
    assert_fires("MC0015");
}
#[test]
fn mc0101_unsatisfiable_reliability() {
    assert_fires("MC0101");
}
#[test]
fn mc0102_unreachable_deadline() {
    assert_fires("MC0102");
}
#[test]
fn mc0103_utilization_overcommit() {
    assert_fires("MC0103");
}
#[test]
fn mc0104_orphan_pe_is_a_hint() {
    let report = trigger("MC0104");
    assert!(report.has_code("MC0104"));
    assert!(!report.has_errors(), "MC0104 must stay below error level");
}
#[test]
fn mc0105_zero_wcet_is_a_warning() {
    let report = trigger("MC0105");
    assert!(report.has_code("MC0105"));
    assert!(report.count(Severity::Warning) >= 1);
}
#[test]
fn mc0106_voter_placement() {
    assert_fires("MC0106");
}
#[test]
fn mc0107_replica_colocation() {
    assert_fires("MC0107");
}
#[test]
fn mc0108_hardened_droppable_is_a_hint() {
    let report = trigger("MC0108");
    assert!(report.has_code("MC0108"));
    assert!(!report.has_errors());
}
#[test]
fn mc0109_shape_mismatch() {
    assert_fires("MC0109");
}
#[test]
fn mc0110_binding_invalid() {
    assert_fires("MC0110");
}
#[test]
fn mc0111_no_allocated_pe() {
    assert_fires("MC0111");
}
#[test]
fn mc0112_hardening_exceeds_spec() {
    assert_fires("MC0112");
}
#[test]
fn mc0113_unmappable_task() {
    assert_fires("MC0113");
}
#[test]
fn mc0120_interference_clique_is_a_warning() {
    let report = trigger("MC0120");
    assert!(report.has_code("MC0120"));
    assert!(!report.has_errors(), "MC0120 must stay below error level");
}
#[test]
fn mc0121_cross_criticality_hardening_is_a_warning() {
    let report = trigger("MC0121");
    assert!(report.has_code("MC0121"));
    assert!(!report.has_errors(), "MC0121 must stay below error level");
}
#[test]
fn mc0122_interference_island_is_a_hint() {
    let report = trigger("MC0122");
    assert!(report.has_code("MC0122"));
    assert!(!report.has_errors());
    assert!(report.count(Severity::Hint) >= 2, "both apps are islands");
}

/// The per-code tests above and [`ALL_CODES`] must cover the same set: a
/// new diagnostic without a counterexample fails here.
#[test]
fn every_advertised_code_has_a_counterexample() {
    for (code, _) in ALL_CODES {
        let report = trigger(code);
        assert!(
            report.has_code(code),
            "{code} is advertised in ALL_CODES but its counterexample does not fire"
        );
    }
}

// --- the shipped benchmarks lint clean ------------------------------------

#[test]
fn shipped_benchmarks_lint_clean() {
    for b in all_benchmarks(42) {
        let report = lint_system(&b.apps, &b.arch);
        assert!(
            !report.has_errors(),
            "{} must lint clean:\n{}",
            b.name,
            report.render_text()
        );
    }
}

#[test]
fn injections_only_add_the_planted_defect() {
    let b = cruise();
    let clean = lint_system(&b.apps, &b.arch);
    assert!(!clean.has_errors());
    for (mutated, code) in [
        (inject::with_cycle(&b.apps), "MC0001"),
        (inject::with_unsatisfiable_reliability(&b.apps), "MC0101"),
        (inject::with_inverted_bounds(&b.apps), "MC0005"),
    ] {
        let report = lint_system(&mutated, &b.arch);
        assert!(report.has_errors());
        assert!(
            report.error_codes().contains(&code),
            "expected {code}:\n{}",
            report.render_text()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Valid-by-construction synthetic benchmarks never produce error-level
    /// structural diagnostics, whatever the generator seed.
    #[test]
    fn random_synthetic_benchmarks_lint_clean(seed in 0u64..1_000_000) {
        for b in [synth1(seed), synth2(seed)] {
            let report = lint_system(&b.apps, &b.arch);
            prop_assert!(
                !report.has_errors(),
                "{} (seed {seed}):\n{}",
                b.name,
                report.render_text()
            );
        }
    }

    /// The JSON rendering stays well-formed for arbitrary mutated systems:
    /// balanced braces and all three counters present.
    #[test]
    fn json_rendering_is_well_formed(seed in 0u64..1_000_000) {
        let b = synth1(seed);
        let mutated = inject::with_cycle(&b.apps);
        let json = lint_system(&mutated, &b.arch).to_json();
        prop_assert!(json.starts_with('{') && json.ends_with('}'));
        prop_assert_eq!(
            json.matches('{').count(),
            json.matches('}').count()
        );
        prop_assert!(json.contains("\"errors\":"));
        prop_assert!(json.contains("\"warnings\":"));
        prop_assert!(json.contains("\"hints\":"));
    }
}

#[test]
fn mc0110_replica_sharing_the_voter_processor_is_checked() {
    // p1 is of a kind the tasks have no profile for; the replica shares
    // the voter's processor, so only a per-body check can see it.
    let hetero = Architecture::builder()
        .processor(Processor::new("p0", ProcKind::new(0), 5.0, 20.0, 1e-7))
        .processor(Processor::new("p1", ProcKind::new(1), 5.0, 20.0, 1e-7))
        .build()
        .unwrap();
    let report = Linter::new(&base_apps(), &hetero).lint_genome(&Genome {
        alloc: vec![true, true],
        keep: vec![],
        genes: vec![
            TaskGene {
                binding: ProcId::new(0),
                hardening: TaskHardening::Active {
                    replicas: vec![ProcId::new(1)],
                    voter: ProcId::new(1),
                },
            },
            bound(0),
        ],
    });
    assert!(
        report.has_code("MC0110"),
        "replica on the voter's kind-incompatible processor was not flagged:\n{}",
        report.render_text()
    );
}

/// A plan or genome entry is a lint error exactly when `harden` rejects
/// it, under the code of the rule it breaks: MC0110 for a copy on a
/// kind-incompatible processor or a voter on a nonexistent one, MC0109 for
/// a replication with too few copies.
#[test]
fn entries_harden_rejects_are_lint_errors() {
    let hetero = Architecture::builder()
        .processor(Processor::new("p0", ProcKind::new(0), 5.0, 20.0, 1e-7))
        .processor(Processor::new("p1", ProcKind::new(1), 5.0, 20.0, 1e-7))
        .processor(Processor::new("p2", ProcKind::new(0), 5.0, 20.0, 1e-7))
        .build()
        .unwrap();
    let apps = base_apps();
    let p = ProcId::new;
    let cases = [
        (TaskHardening::Reexec(1), None),
        (
            TaskHardening::Active {
                replicas: vec![p(2)],
                voter: p(1),
            },
            None,
        ),
        (
            TaskHardening::Active {
                replicas: vec![p(1)],
                voter: p(0),
            },
            Some("MC0110"),
        ),
        (
            TaskHardening::Active {
                replicas: vec![p(2)],
                voter: p(7),
            },
            Some("MC0110"),
        ),
        (
            TaskHardening::Active {
                replicas: vec![],
                voter: p(0),
            },
            Some("MC0109"),
        ),
        (
            TaskHardening::Passive {
                actives: vec![],
                standbys: vec![p(2)],
                voter: p(0),
            },
            Some("MC0109"),
        ),
        (
            TaskHardening::Passive {
                actives: vec![p(2)],
                standbys: vec![],
                voter: p(0),
            },
            Some("MC0109"),
        ),
    ];
    let linter = Linter::new(&apps, &hetero);
    for (entry, code) in cases {
        let mut plan = HardeningPlan::unhardened(&apps);
        plan.set_by_flat_index(0, entry.clone());
        assert_eq!(
            harden(&apps, &plan, &hetero).is_err(),
            code.is_some(),
            "{entry:?}"
        );
        let genome = Genome {
            alloc: vec![true; 3],
            keep: vec![],
            genes: vec![
                TaskGene {
                    binding: p(0),
                    hardening: entry.clone(),
                },
                bound(0),
            ],
        };
        for report in [linter.lint_plan(&plan), linter.lint_genome(&genome)] {
            let expected: Vec<&str> = code.into_iter().collect();
            assert_eq!(
                report.error_codes(),
                expected,
                "{entry:?}:\n{}",
                report.render_text()
            );
        }
    }
}

/// Every bad copy and voter of one entry is reported, not only the first
/// one `harden` stops at: a kind-incompatible replica, a replica and a
/// voter on nonexistent processors, and a malformed shape next to them.
#[test]
fn every_bad_copy_and_voter_of_an_entry_is_reported() {
    let hetero = Architecture::builder()
        .processor(Processor::new("p0", ProcKind::new(0), 5.0, 20.0, 1e-7))
        .processor(Processor::new("p1", ProcKind::new(1), 5.0, 20.0, 1e-7))
        .processor(Processor::new("p2", ProcKind::new(0), 5.0, 20.0, 1e-7))
        .build()
        .unwrap();
    let apps = base_apps();
    let p = ProcId::new;
    let cases = [
        (
            TaskHardening::Active {
                replicas: vec![p(1), p(5)],
                voter: p(7),
            },
            vec![
                ("MC0110", Some(1)),
                ("MC0110", Some(5)),
                ("MC0110", Some(7)),
            ],
        ),
        (
            TaskHardening::Passive {
                actives: vec![],
                standbys: vec![p(1)],
                voter: p(9),
            },
            vec![("MC0109", None), ("MC0110", Some(1)), ("MC0110", Some(9))],
        ),
    ];
    let linter = Linter::new(&apps, &hetero);
    for (entry, expected) in cases {
        let mut plan = HardeningPlan::unhardened(&apps);
        plan.set_by_flat_index(0, entry.clone());
        let genome = Genome {
            alloc: vec![true; 3],
            keep: vec![],
            genes: vec![
                TaskGene {
                    binding: p(0),
                    hardening: entry.clone(),
                },
                bound(0),
            ],
        };
        for report in [linter.lint_plan(&plan), linter.lint_genome(&genome)] {
            let mut got: Vec<(&str, Option<usize>)> = report
                .iter()
                .filter(|d| d.severity == Severity::Error)
                .map(|d| (d.code, d.entity.proc.map(|q| q.index())))
                .collect();
            got.sort_unstable();
            assert_eq!(got, expected, "{entry:?}:\n{}", report.render_text());
        }
    }
}
