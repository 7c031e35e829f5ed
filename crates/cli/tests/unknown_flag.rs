//! A mistyped option must fail the command line instead of running a
//! different request than the one asked for.

use std::process::Command;

#[test]
fn unknown_option_exits_2_and_names_it() {
    let out = Command::new(env!("CARGO_BIN_EXE_micco"))
        .args(["synthetic", "--vector-size", "8", "--tensor-size", "64"])
        .args(["--gpu", "2"])
        .output()
        .expect("spawn micco");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--gpu"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "nothing may run: {out:?}");
}
