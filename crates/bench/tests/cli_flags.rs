//! `mcmap_cli dse` rejects flags it does not know instead of skipping them
//! and reading their value as the `[pop gens]` budget.

use std::process::Command;

#[test]
fn dse_rejects_unknown_flags_with_usage() {
    for flags in [
        &["--scenario-threads", "4"][..],
        &["--no-warm-start"],
        &["--no-prunee"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_mcmap_cli"))
            .args(["dse", "cruise"])
            .args(flags)
            .args(["6", "2"])
            .output()
            .expect("mcmap_cli runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flags:?}: {stderr}");
        assert!(stderr.contains(flags[0]), "{flags:?}: {stderr}");
        assert!(stderr.contains("usage: mcmap_cli"), "{flags:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{flags:?} must not run the DSE");
    }
}
