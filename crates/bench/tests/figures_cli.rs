//! The `figures` binary's exit codes: scripts (and CI) rely on a bad
//! `--exp` id failing the run instead of being skipped with a warning.

use std::process::Command;

fn figures(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("spawn figures")
}

#[test]
fn unknown_experiment_id_fails_before_running_anything() {
    let out = figures(&["--exp", "e5,e99", "--scale", "small"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no report printed before the bad id");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown experiment id: e99"), "{err}");
    // The usage list comes from `experiments::ALL`, ablations included.
    assert!(err.contains("a3 "), "{err}");
}

#[test]
fn known_experiment_id_succeeds() {
    let out = figures(&["--exp", "e5", "--scale", "small"]);
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("E5"));
}
