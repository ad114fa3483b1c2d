//! The `cmpqos` front end fails loudly on misuse: every subcommand rejects
//! an unknown flag with exit 2 and its usage, and prints its usage for
//! `--help` without running.

use std::process::{Command, Output};

const SUBCOMMANDS: [&str; 8] = [
    "list", "solo", "run", "bench", "recover", "conform", "explore", "traffic",
];

/// Runs `cmpqos` with `args` and no `CMPQOS_*` settings inherited.
fn cmpqos(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_cmpqos"));
    for var in [
        "CMPQOS_SCALE",
        "CMPQOS_WORK",
        "CMPQOS_SEED",
        "CMPQOS_JOBS",
        "CMPQOS_EVENTS",
    ] {
        cmd.env_remove(var);
    }
    cmd.args(args).envs(env.iter().copied());
    cmd.output().expect("cmpqos runs")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn every_subcommand_rejects_an_unknown_flag_with_exit_2_and_usage() {
    for sub in SUBCOMMANDS {
        let out = cmpqos(&[sub, "--no-such-flag", "1"], &[]);
        let err = text(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{sub}: {err}");
        assert!(
            err.contains("unknown flag `--no-such-flag`"),
            "{sub}: {err}"
        );
        assert!(err.contains(&format!("cmpqos {sub}")), "{sub} usage: {err}");
        assert!(out.stdout.is_empty(), "{sub} ran: {}", text(&out.stdout));
    }
}

#[test]
fn every_subcommand_prints_its_usage_for_help_without_running() {
    for sub in SUBCOMMANDS {
        for help in ["--help", "-h"] {
            // Flags before `--help` are not run either.
            let out = cmpqos(&[sub, "--seed", "3", help], &[]);
            let usage = text(&out.stdout);
            assert_eq!(out.status.code(), Some(0), "{sub} {help}");
            assert!(usage.starts_with("usage:"), "{sub} {help}: {usage}");
            assert!(usage.contains(&format!("cmpqos {sub}")), "{sub}: {usage}");
            assert_eq!(usage.lines().filter(|l| l.contains("cmpqos ")).count(), 1);
        }
    }
}

#[test]
fn a_misspelt_must_fail_injection_is_a_usage_error_not_a_pass() {
    let out = cmpqos(
        &["conform", "--only", "guard", "--injct", "broken-guard"],
        &[],
    );
    assert_eq!(out.status.code(), Some(2), "{}", text(&out.stderr));
}

#[test]
fn missing_and_malformed_values_are_usage_errors() {
    for args in [
        &["solo", "--bench", "bzip2", "--ways"][..],
        &["solo", "--bench", "bzip2", "--work", "lots"],
        &["solo", "--bench", "no-such-bench"],
        &["solo"],
        &["explore", "--kind", "gac"],
        &["recover", "--journal", "x.jsonl", "--kind", "nope"],
        &["traffic", "--spec", "--emit-toml"],
        &["run", "--workload", "mix1"],
        &["list", "extra"],
    ] {
        let out = cmpqos(args, &[]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?}: {}",
            text(&out.stderr)
        );
    }
}

#[test]
fn no_command_or_an_unknown_one_exits_2_and_top_level_help_exits_0() {
    assert_eq!(cmpqos(&[], &[]).status.code(), Some(2));
    assert_eq!(cmpqos(&["frobnicate"], &[]).status.code(), Some(2));
    let help = cmpqos(&["--help"], &[]);
    assert_eq!(help.status.code(), Some(0));
    let usage = text(&help.stdout);
    for sub in SUBCOMMANDS {
        assert!(usage.contains(&format!("cmpqos {sub}")), "{sub}: {usage}");
    }
}

#[test]
fn switches_take_no_value() {
    let out = cmpqos(&["traffic", "--emit-toml", "--seed", "2"], &[]);
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    assert!(text(&out.stdout).contains("seed = 2"));
}

#[test]
fn solo_honours_the_environment_and_flags_take_precedence() {
    let env = [
        ("CMPQOS_SCALE", "16"),
        ("CMPQOS_WORK", "5000"),
        ("CMPQOS_SEED", "3"),
    ];
    let from_env = cmpqos(&["solo", "--bench", "bzip2"], &env);
    let line = text(&from_env.stdout);
    assert_eq!(
        from_env.status.code(),
        Some(0),
        "{}",
        text(&from_env.stderr)
    );
    assert!(line.contains("scale 1/16, 5000 instr"), "{line}");

    let flagged = cmpqos(&["solo", "--bench", "bzip2", "--work", "2000"], &env);
    let line = text(&flagged.stdout);
    assert!(line.contains("scale 1/16, 2000 instr"), "{line}");

    // CMPQOS_SEED reaches the run: the explicit seed 3 reproduces it and
    // seed 1 does not.
    let seeded = cmpqos(&["solo", "--bench", "bzip2", "--seed", "3"], &env);
    let seed1 = cmpqos(&["solo", "--bench", "bzip2", "--seed", "1"], &env);
    assert_eq!(text(&seeded.stdout), text(&from_env.stdout));
    assert_ne!(text(&seed1.stdout), text(&from_env.stdout));
}

#[test]
fn list_runs() {
    let out = cmpqos(&["list"], &[]);
    assert_eq!(out.status.code(), Some(0));
    assert!(text(&out.stdout).contains("bzip2"));
}
