//! Every experiment binary parses its command line with the one strict
//! parser: an unknown flag, a malformed value, a malformed `CMPQOS_*`
//! value or an unusable event log exits 2 with the usage on stderr before
//! anything runs, and `--help` prints the usage and exits 0. The docs
//! show no flag a binary does not declare. (`tests/cli.rs` at the
//! workspace root covers the `cmpqos` front end.)

use std::collections::BTreeSet;
use std::process::{Command, Output};

macro_rules! bins {
    ($($bin:literal),*) => { [$(($bin, env!(concat!("CARGO_BIN_EXE_", $bin)))),*] };
}

/// Every experiment binary: name and path.
const BINARIES: [(&str, &str); 18] = bins! {
    "ablations", "all_experiments", "chaos", "extensions", "fig1", "fig3", "fig4", "fig5", "fig6",
    "fig7", "fig8", "fig9", "lac_overhead", "overload", "slo", "table1", "traffic", "variance"
};

const CHAOS_MODES: &[&str] = &["", "--net", "--churn"];

/// One binary in one mode (`chaos` declares one table per mode).
struct Case {
    bin: &'static str,
    path: &'static str,
    mode: &'static str,
}

impl Case {
    /// Runs it with `args` after the mode switch and no `CMPQOS_*`
    /// variable but `env`.
    fn run(&self, args: &[&str], env: &[(&str, &str)]) -> Output {
        let mut cmd = Command::new(self.path);
        for (var, _) in std::env::vars().filter(|(v, _)| v.starts_with("CMPQOS_")) {
            cmd.env_remove(var);
        }
        cmd.args(self.mode.split_whitespace()).args(args);
        cmd.envs(env.iter().copied()).output().expect("binary runs")
    }

    /// It ran nothing: exit 2, the usage on stderr, an empty stdout.
    fn assert_refused(&self, out: &Output, what: &str) {
        let err = String::from_utf8_lossy(&out.stderr);
        let ctx = format!("{} {} {what}: {err}", self.bin, self.mode);
        assert_eq!(out.status.code(), Some(2), "{ctx}");
        assert!(err.contains(&format!("usage: {}", self.bin)), "{ctx}");
        assert!(out.stdout.is_empty(), "{ctx}");
    }

    /// The `--flag`s of its usage synopsis, plus `--help`.
    fn declared(&self) -> BTreeSet<String> {
        let usage = String::from_utf8(self.run(&["--help"], &[]).stdout).expect("utf-8");
        let synopsis = usage.lines().next().unwrap_or_default().split_whitespace();
        let flags = synopsis.map(|t| t.trim_matches(|c| c == '[' || c == ']'));
        flags
            .filter(|t| t.starts_with("--"))
            .chain(["--help"])
            .map(String::from)
            .collect()
    }
}

fn cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for (bin, path) in BINARIES {
        let modes = if bin == "chaos" { CHAOS_MODES } else { &[""] };
        cases.extend(modes.iter().map(|&mode| Case { bin, path, mode }));
    }
    cases
}

#[test]
fn an_unknown_flag_is_refused_and_help_runs_nothing() {
    for case in cases() {
        let out = case.run(&["--no-such-flag", "1"], &[]);
        case.assert_refused(&out, "unknown flag");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag `--no-such-flag`"));
        let out = case.run(&["--help"], &[]);
        let usage = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{} {}", case.bin, case.mode);
        assert!(
            usage.starts_with(&format!("usage: {}", case.bin)),
            "{usage}"
        );
        assert!(out.stderr.is_empty(), "{} {}", case.bin, case.mode);
    }
}

#[test]
fn malformed_values_and_variables_are_refused() {
    for case in cases().iter().filter(|c| c.bin != "fig3") {
        let chaos = case.bin == "chaos";
        let bad = [if chaos { "--seed" } else { "--jobs" }, "abc"];
        case.assert_refused(&case.run(&bad, &[]), "malformed value");
        let vars = ["CMPQOS_SEED", "CMPQOS_SCALE", "CMPQOS_WORK", "CMPQOS_JOBS"];
        for var in &vars[..if chaos { 1 } else { 4 }] {
            case.assert_refused(&case.run(&[], &[(var, "abc")]), var);
        }
    }
    // `fig3` takes no flags at all.
    let fig3 = cases().into_iter().find(|c| c.bin == "fig3").expect("fig3");
    fig3.assert_refused(&fig3.run(&["--jobs", "4"], &[]), "any flag");
}

#[test]
fn an_event_log_that_cannot_be_opened_is_refused_before_the_run() {
    let bad = std::env::temp_dir().join("cmpqos-no-such-dir/events.jsonl");
    let bad = bad.to_string_lossy();
    let takes_events = |c: &&Case| c.mode.is_empty() && c.bin != "fig3";
    for case in cases().iter().filter(takes_events) {
        for out in [
            case.run(&["--events", &bad], &[]),
            case.run(&[], &[("CMPQOS_EVENTS", &bad)]),
        ] {
            case.assert_refused(&out, "unusable event log");
            assert!(String::from_utf8_lossy(&out.stderr).contains(bad.as_ref()));
        }
    }
}

/// The code of a markdown file: fenced lines (with `\` continuations
/// joined) and inline code spans (which may wrap across lines).
fn code_snippets(markdown: &str) -> Vec<String> {
    let (mut snippets, mut prose, mut pending) = (Vec::new(), String::new(), String::new());
    let mut fenced = false;
    for line in markdown.lines().map(str::trim_end) {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if fenced {
            pending = pending + line.trim_end_matches('\\') + " ";
            if !line.ends_with('\\') {
                snippets.push(std::mem::take(&mut pending));
            }
        } else {
            prose = prose + line + " ";
        }
    }
    snippets.extend(prose.split('`').skip(1).step_by(2).map(String::from));
    snippets
}

#[test]
fn the_docs_show_only_flags_the_binaries_declare() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../");
    let cases = cases();
    let (mut checked, mut drift) = (BTreeSet::new(), Vec::new());
    for doc in ["README.md", ".claude/skills/verify/SKILL.md"] {
        let markdown = std::fs::read_to_string(format!("{root}{doc}")).expect("doc readable");
        for snippet in code_snippets(&markdown) {
            // An invocation is `--bin NAME`, or NAME as the snippet's first
            // word; its flags run to the end of the command.
            let tokens: Vec<&str> = snippet.split_whitespace().collect();
            for i in 0..tokens.len() {
                let named = i == 0 || tokens[i - 1] == "--bin";
                if !named || !cases.iter().any(|c| c.bin == tokens[i]) {
                    continue;
                }
                let command = tokens[i + 1..]
                    .iter()
                    .take_while(|t| !["|", ">", "&&"].contains(t));
                let flags: Vec<&str> = command
                    .filter(|t| t.starts_with("--") && **t != "--")
                    .map(|t| t.split('=').next().unwrap_or(t))
                    .collect();
                let mode = ["--net", "--churn"].into_iter().find(|m| flags.contains(m));
                let case = (cases.iter())
                    .find(|c| c.bin == tokens[i] && c.mode == mode.unwrap_or_default())
                    .expect("every binary and mode has a case");
                let declared = case.declared();
                let undeclared = flags.iter().filter(|f| !declared.contains(**f));
                drift.extend(undeclared.map(|f| format!("{doc}: `{}` shows {f}", snippet.trim())));
                checked.insert(format!("{} {}", case.bin, case.mode));
            }
        }
    }
    assert!(
        drift.is_empty(),
        "undeclared flags in the docs:\n{}",
        drift.join("\n")
    );
    for expected in ["chaos ", "chaos --net", "chaos --churn", "fig7 "] {
        assert!(
            checked.contains(expected),
            "no `{expected}` in the docs: {checked:?}"
        );
    }
}
