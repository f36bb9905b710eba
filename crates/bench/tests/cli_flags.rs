//! Every command-line entry point answers a usage error — an unknown flag,
//! a missing or malformed value, an extra positional — with its usage text
//! on stderr and exit code 2, and runs nothing.

use std::process::Command;

/// Each `mcmap_cli` verb with an unknown flag, a missing (or, for verbs
/// without a valued flag, malformed) value, and an extra positional; the
/// second member is the token the error message must name.
const CASES: &[(&str, &str)] = &[
    ("dse cruise --scenario-threads 4 6 2", "--scenario-threads"),
    ("dse cruise --no-warm-start 6 2", "--no-warm-start"),
    ("dse cruise --no-prunee 6 2", "--no-prunee"),
    ("dse cruise --fleet fleet-small", "--fleet"),
    // A required value is never the next flag: this once ran 8
    // evaluations with `--threads` taken as the trace path.
    ("dse cruise --trace --threads 1 6 2", "--trace"),
    ("dse cruise --threads x 6 2", "\"x\""),
    ("dse cruise 6 2 9", "\"9\""),
    ("validate cruise --bogus", "--bogus"),
    ("validate cruise --profiles", "--profiles"),
    ("validate cruise 6 2 9", "\"9\""),
    ("serve --bogus", "--bogus"),
    ("serve --workers", "--workers"),
    ("serve --slice 0", "--slice"),
    ("serve extra", "\"extra\""),
    ("client 127.0.0.1:9 submit cruise --bogus", "--bogus"),
    ("client 127.0.0.1:9 submit cruise --seed", "--seed"),
    ("client 127.0.0.1:9 submit cruise 6 2 9", "\"9\""),
    ("client 127.0.0.1:9 status", "<id>"),
    ("client 127.0.0.1:9 list --json", "--json"),
    ("obs query t.jsonl --bogus", "--bogus"),
    ("obs query t.jsonl --name", "--name"),
    ("obs query t.jsonl --kind bogus", "--kind"),
    ("obs query t.jsonl extra", "\"extra\""),
    ("lint cruise --bogus", "--bogus"),
    ("lint cruise --inject", "--inject"),
    ("lint cruise extra", "\"extra\""),
    ("analyze cruise --bogus", "--bogus"),
    ("analyze cruise x", "\"x\""),
    ("analyze cruise 1 2", "\"2\""),
    ("simulate cruise --bogus", "--bogus"),
    ("simulate cruise x", "\"x\""),
    ("simulate cruise 1 2", "\"2\""),
    ("gantt cruise --bogus", "--bogus"),
    ("gantt cruise x", "\"x\""),
    ("gantt cruise 1 2", "\"2\""),
    ("gantt nowhere", "\"nowhere\""),
    ("nonsense", "\"nonsense\""),
];

/// The experiment binaries parse rows of `EvalKnobs`' table and take no
/// positionals.
const EXPERIMENTS: &[&str] = &[
    env!("CARGO_BIN_EXE_table2_wcrt"),
    env!("CARGO_BIN_EXE_sec52_dropping"),
    env!("CARGO_BIN_EXE_fig5_pareto"),
    env!("CARGO_BIN_EXE_fig1_motivation"),
    env!("CARGO_BIN_EXE_ablation_hardening"),
];

fn check(bin: &str, args: &str, names: &str) {
    let out = Command::new(bin)
        .args(args.split_whitespace())
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage"), "{args:?}: {stderr}");
    assert!(
        stderr.contains(names),
        "{args:?} must name {names}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?} must not run anything");
}

/// The binaries that run a fixed work list and no GA.
const WORKLISTS: &[&str] = &[
    env!("CARGO_BIN_EXE_table2_wcrt"),
    env!("CARGO_BIN_EXE_fig1_motivation"),
    env!("CARGO_BIN_EXE_ablation_hardening"),
];

/// The knobs a work-list binary has no use for, each with a valid value.
const WORKLIST_DROPPED: &[&str] = &[
    "--cache-cap 0",
    "--gen-stats",
    "--audit",
    "--checkpoint c",
    "--resume c",
    "--eval-retries 1",
    "--no-prune",
    "--fleet fleet-small",
];

#[test]
fn every_entry_point_rejects_usage_errors_with_exit_2() {
    for (args, names) in CASES {
        check(env!("CARGO_BIN_EXE_mcmap_cli"), args, names);
    }
    for bin in EXPERIMENTS {
        check(bin, "--bogus", "--bogus");
        check(bin, "--threads", "--threads");
        check(bin, "--eval-retries -1", "--eval-retries");
        check(bin, "extra", "\"extra\"");
    }
}

#[test]
fn each_binary_rejects_the_knobs_it_does_not_honor() {
    for bin in WORKLISTS {
        for args in WORKLIST_DROPPED {
            check(bin, args, args.split(' ').next().expect("a flag"));
        }
    }
    // The sweep's explorations would share one checkpoint path.
    let sec52 = env!("CARGO_BIN_EXE_sec52_dropping");
    check(sec52, "--checkpoint c", "--checkpoint");
    check(sec52, "--resume c", "--resume");
    // `--fleet` names one of the three generated presets.
    for bin in [sec52, env!("CARGO_BIN_EXE_fig5_pareto")] {
        check(bin, "--fleet cruise", "--fleet");
        check(bin, "--fleet fleet-huge", "--fleet");
    }
}

#[test]
fn usage_lines_list_exactly_the_table() {
    let usage = |bin: &str| {
        let out = Command::new(bin)
            .arg("--bogus")
            .output()
            .expect("binary runs");
        String::from_utf8_lossy(&out.stderr).into_owned()
    };
    for bin in WORKLISTS {
        let text = usage(bin);
        assert!(text.contains("[--obs-summary [json]]"), "{text}");
        assert!(!text.contains("--gen-stats"), "{text}");
    }
    let text = usage(env!("CARGO_BIN_EXE_sec52_dropping"));
    assert!(
        text.contains("[--no-prune]") && !text.contains("--checkpoint"),
        "{text}"
    );
    let text = usage(env!("CARGO_BIN_EXE_mcmap_cli"));
    assert!(
        text.contains("[--validate [n]]") && !text.contains("--fleet"),
        "{text}"
    );
}
