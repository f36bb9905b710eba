//! What `mcmap_cli` writes when things go sideways: the `obs --json`
//! reports of a trace whose names need escaping, the error of a
//! validation against a portfolio written for another benchmark, and the
//! exit codes of a resume from an unreadable checkpoint.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mcmap_cli_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mcmap_cli"))
        .args(args)
        .output()
        .expect("mcmap_cli runs")
}

fn path(p: &Path) -> &str {
    p.to_str().expect("UTF-8 temp path")
}

#[test]
fn obs_json_reports_escape_names_and_keys() {
    let dir = scratch("obs_json");
    let (a, b) = (dir.join("a.jsonl"), dir.join("b.jsonl"));
    let run = cli(&["dse", "cruise", "6", "2", "--trace", path(&a)]);
    assert!(run.status.success(), "{run:?}");
    // The same trace with a `"` in a span name and in a counter's name.
    let text = std::fs::read_to_string(&a).unwrap();
    let quoted = text
        .replace("\"name\":\"eval.batch\"", "\"name\":\"eval.\\\"batch\"")
        .replace(
            "\"name\":\"sched.analyze\"",
            "\"name\":\"sched.\\\"analyze\"",
        );
    assert_ne!(quoted, text, "the trace has the renamed events");
    std::fs::write(&b, quoted).unwrap();

    for args in [
        vec!["obs", path(&b), "--json"],
        vec!["obs", "critical-path", path(&b), "--json"],
        vec!["obs", "diff", path(&a), path(&b), "--json"],
    ] {
        // `obs diff` exits 1 on traces that differ, as these do.
        let out = cli(&args);
        assert!(
            matches!(out.status.code(), Some(0 | 1)),
            "{args:?}: {out:?}"
        );
        let stdout = String::from_utf8(out.stdout).unwrap();
        let json = mcmap_obs::parse_json(stdout.trim())
            .unwrap_or_else(|e| panic!("{args:?} wrote invalid JSON ({e}): {stdout}"));
        let rendered = format!("{json:?}");
        assert!(rendered.contains("eval.\\\"batch"), "{args:?}: {rendered}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn validating_a_foreign_portfolio_names_the_file() {
    let dir = scratch("foreign_portfolio");
    let portfolio = dir.join("cruise.portfolio");
    let p = path(&portfolio);
    // Written by a cruise validation (whatever its campaign verdict) ...
    let _ = cli(&[
        "validate",
        "cruise",
        "8",
        "2",
        "--portfolio",
        p,
        "--profiles",
        "1",
    ]);
    assert!(portfolio.exists());
    // ... and refused by a DT-med one, naming the file.
    let out = cli(&["validate", "dt-med", "8", "2", "--portfolio", p]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains(&format!(
            "validate: {p}: written for a different run configuration"
        )),
        "{stderr}"
    );
    assert!(!stderr.contains("malformed"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_unreadable_resume_checkpoint_exits_1_with_or_without_a_trace() {
    let dir = scratch("failed_resume");
    let (missing, trace) = (dir.join("missing.ckpt"), dir.join("t.jsonl"));
    std::fs::write(&trace, "kept\n").unwrap();
    let resume = ["dse", "cruise", "6", "2", "--resume", path(&missing)];
    for extra in [vec![], vec!["--trace", path(&trace)]] {
        let out = cli(&[&resume[..], &extra].concat());
        assert_eq!(out.status.code(), Some(1), "{extra:?}: {out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.contains(&format!(
                "checkpoint/resume failed: read {}",
                path(&missing)
            )),
            "{extra:?}: {stderr}"
        );
    }
    // The failed resume left the trace alone.
    assert_eq!(std::fs::read_to_string(&trace).unwrap(), "kept\n");
    // A trace that cannot be created stays a usage error.
    let nowhere = dir.join("no-such-dir").join("t.jsonl");
    let out = cli(&["dse", "cruise", "6", "2", "--trace", path(&nowhere)]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    std::fs::remove_dir_all(&dir).ok();
}
