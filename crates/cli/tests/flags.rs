//! The command line refuses what it does not read: a flag the command
//! does not know, or a value that does not parse, exits 2 with the
//! usage and names the flag, before the command touches the network or
//! the disk.

use std::path::PathBuf;
use std::process::{Command, Output};

fn sofia_cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sofia-cli"))
        .args(args)
        .output()
        .expect("run sofia-cli")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sofia-cli-flags-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `base` plus `--<flag> <value>`: it must exit 2 with the usage,
/// naming the flag.
fn assert_refused(base: &[&str], flag: &str, value: &str) {
    let flag = format!("--{flag}");
    let args = [base, &[flag.as_str(), value]].concat();
    let out = sofia_cli(&args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains(&flag),
        "{args:?} should name {flag}: {stderr}"
    );
    assert!(stderr.contains("usage:"), "{args:?} should print the usage");
}

#[test]
fn unknown_flags_and_malformed_values_exit_2_naming_the_flag() {
    let dir = scratch("refused");
    let d = dir.to_str().expect("utf-8 temp path");
    let fleet = ["fleet", "--streams", "2", "--shards", "1", "--steps", "2"];
    // An address no server can bind: were a flag let through, `serve`
    // would fail at once instead of serving until shut down.
    let serve = ["serve", "--bind", "127.0.0.1:no-port", "--empty", "true"];
    let run = ["run", "--dir", d, "--rank", "2"];
    let generate = ["generate", "--dir", d, "--dataset", "intel"];
    // Flags no command reads (a typo, a deleted flag).
    assert_refused(&fleet, "checkpoint-dirr", "/nonexistent");
    assert_refused(&fleet, "mix", "smf");
    assert_refused(&serve, "mix", "smf");
    assert_refused(&["client", "--connect", "127.0.0.1:1"], "dim", "4,3");
    // Values that do not parse.
    assert_refused(&fleet, "streams", "two");
    assert_refused(&run, "seed", "abc");
    assert_refused(&run, "forecast", "xyz");
    assert_refused(&["run", "--dir", d], "rank", "two");
    assert_refused(&generate, "scale", "big");
    assert_refused(&generate, "steps", "-4");
    assert_refused(&generate, "setting", "200,20,5");
    assert_refused(&["resume", "--checkpoint", d, "--dir", d], "forecast", "-1");
    assert_refused(&["cluster", "--nodes", "3"], "rebalance", "yes");
    assert!(!dir.exists(), "a refused command touched the disk");
}

#[test]
fn a_small_valid_fleet_runs_and_recovers() {
    let dir = scratch("fleet");
    let d = dir.to_str().expect("utf-8 temp path");
    let out = sofia_cli(&[
        "fleet",
        "--streams",
        "2",
        "--shards",
        "1",
        "--steps",
        "2",
        "--checkpoint-dir",
        d,
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("recovery: 2 of 2 streams restored from checkpoints, 4 total steps"),
        "{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
