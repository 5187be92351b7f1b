//! `aq-sweep` on a closed stdout (`aq-sweep list | head -1`): the output
//! ends quietly, without a panic, and the command's own exit code stands —
//! a gate result is never turned into success.

use std::path::PathBuf;
use std::process::{Command, Stdio};

/// Run `aq-sweep args` with stdout a pipe whose reader is already gone;
/// the exit code and stderr.
fn run_with_closed_stdout(args: &[&str]) -> (Option<i32>, String) {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_aq-sweep"))
        .args(args)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("aq-sweep starts");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    (out.status.code(), stderr)
}

fn expected(spec: &str) -> String {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let dir = root.join("baselines/expected").join(spec);
    dir.to_str().expect("utf-8 path").to_string()
}

#[test]
fn list_exits_0_on_a_closed_pipe() {
    assert_eq!(run_with_closed_stdout(&["list"]).0, Some(0));
}

#[test]
fn check_keeps_its_exit_code_on_a_closed_pipe() {
    let (code, stderr) = run_with_closed_stdout(&["check", &expected("smoke")]);
    assert_eq!(code, Some(0), "{stderr}");
}

#[test]
fn a_failed_gate_still_fails_on_a_closed_pipe() {
    let (code, stderr) =
        run_with_closed_stdout(&["diff", &expected("smoke"), &expected("extended")]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("violation(s)"), "{stderr}");
}
