//! The one command-line parser of every `cmpqos` binary.
//!
//! A binary declares what it accepts as a [`Command`]: a table of
//! [`Flag`]s, each with a typed [`Value`], an optional `CMPQOS_*`
//! environment fallback (the command line wins) and a help line. [`parse`]
//! checks the command line and the environment against that table before
//! anything runs: an unknown flag, a missing or malformed value, a
//! malformed environment value or an event log that cannot be opened for
//! append prints the error and the usage to stderr and exits 2. `--help`
//! (or `-h`) prints the usage, generated from the same table, and exits 0.
//!
//! Values are written `--flag value` or `--flag=value`; a [`Value::Switch`]
//! is a bare `--flag`. When a flag is given twice, the last one wins.

use std::collections::HashMap;
use std::path::PathBuf;

/// What a flag's value must look like.
#[derive(Debug, Clone, Copy)]
pub enum Value {
    /// A bare switch that takes no value.
    Switch,
    /// A non-negative integer.
    Number,
    /// A comma-separated, non-empty list of non-negative integers.
    Numbers,
    /// Any text; the string names it in the usage (e.g. `<path>`).
    Text(&'static str),
    /// Exactly one of these words.
    OneOf(&'static [&'static str]),
    /// A JSONL event log: a path that opens for append (created if missing).
    EventLog,
    /// Text the predicate accepts; the string names its form in the usage.
    Checked(&'static str, fn(&str) -> bool),
}

impl Value {
    fn metavar(self) -> String {
        match self {
            Value::Switch => String::new(),
            Value::Number => "N".into(),
            Value::Numbers => "N,N,...".into(),
            Value::Text(m) | Value::Checked(m, _) => m.into(),
            Value::OneOf(words) => words.join("|"),
            Value::EventLog => "<path>".into(),
        }
    }

    /// Checks `raw`, given as `source` (`--flag` or `CMPQOS_*`).
    fn check(self, source: &str, raw: &str) -> Result<(), String> {
        let expected = match self {
            Value::Number if raw.trim().parse::<u64>().is_err() => "a number".into(),
            Value::Numbers if parse_numbers(raw).is_none() => "a list of numbers".into(),
            Value::OneOf(words) if !words.contains(&raw) => format!("one of {}", self.metavar()),
            Value::Checked(form, accepts) if !accepts(raw) => form.into(),
            Value::Switch if !raw.is_empty() => return Err(format!("{source} takes no value")),
            Value::EventLog => {
                let open = std::fs::OpenOptions::new()
                    .append(true)
                    .create(true)
                    .open(raw);
                return open
                    .map(drop)
                    .map_err(|e| format!("{source}: cannot open event log `{raw}`: {e}"));
            }
            _ => return Ok(()),
        };
        Err(format!("{source} expects {expected}, got `{raw}`"))
    }
}

fn parse_numbers(raw: &str) -> Option<Vec<u64>> {
    raw.split(',').map(|s| s.trim().parse().ok()).collect()
}

/// One entry of a command's flag table.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The flag's name without the leading `--`.
    pub name: &'static str,
    value: Value,
    env: Option<&'static str>,
    on_command_line: bool,
    required: bool,
    help: &'static str,
}

impl Flag {
    /// An optional command-line flag with no environment fallback.
    #[must_use]
    pub const fn new(name: &'static str, value: Value, help: &'static str) -> Self {
        let (env, on_command_line, required) = (None, true, false);
        Self {
            name,
            value,
            env,
            on_command_line,
            required,
            help,
        }
    }

    /// Falls back to the variable `var` when the flag is not given.
    #[must_use]
    pub const fn env(mut self, var: &'static str) -> Self {
        self.env = Some(var);
        self
    }

    /// Read from [`Flag::env`] only; the command line does not take it.
    #[must_use]
    pub const fn env_only(mut self) -> Self {
        self.on_command_line = false;
        self
    }

    /// The command refuses to run without it.
    #[must_use]
    pub const fn required(mut self) -> Self {
        self.required = true;
        self
    }

    fn spelled(&self) -> String {
        match self.value {
            Value::Switch => format!("--{}", self.name),
            v => format!("--{} {}", self.name, v.metavar()),
        }
    }
}

/// A binary (or subcommand) and the flags it accepts.
#[derive(Debug, Clone, Copy)]
pub struct Command {
    /// How it is invoked, e.g. `fig1` or `cmpqos solo`.
    pub name: &'static str,
    /// What it does, shown under the synopsis (may span lines).
    pub about: &'static str,
    /// Everything it accepts.
    pub flags: &'static [Flag],
}

impl Command {
    /// The name and every command-line flag, optional ones in brackets.
    #[must_use]
    pub fn synopsis(&self) -> String {
        let mut line = self.name.to_string();
        for f in self.flags.iter().filter(|f| f.on_command_line) {
            let (open, close) = if f.required { ("", "") } else { ("[", "]") };
            line += &format!(" {open}{}{close}", f.spelled());
        }
        line
    }

    /// The synopsis, the description and one line per flag and variable.
    #[must_use]
    pub fn usage(&self) -> String {
        let rows: Vec<(String, String)> = self
            .flags
            .iter()
            .map(|f| match (f.on_command_line, f.env) {
                (true, Some(var)) => (f.spelled(), format!("{} [{var}]", f.help)),
                (true, None) => (f.spelled(), f.help.to_string()),
                (false, var) => {
                    let left = format!("{}={}", var.unwrap_or(f.name), f.value.metavar());
                    (left, f.help.to_string())
                }
            })
            .collect();
        let width = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
        let mut out = format!("usage: {}", self.synopsis());
        for line in self.about.lines() {
            out += &format!("\n  {line}");
        }
        for (left, help) in rows {
            out += &format!("\n  {left:<width$}  {help}");
        }
        out
    }

    /// Prints `error` and the usage to stderr and exits 2.
    pub fn fail(&self, error: &str) -> ! {
        eprintln!("error: {error}\n{}", self.usage());
        std::process::exit(2)
    }
}

/// The values a command was given, checked against its table.
#[derive(Debug, Clone, Default)]
pub struct Args(HashMap<&'static str, String>);

impl Args {
    /// Whether the flag (or its variable) was given.
    #[must_use]
    pub fn has(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }

    /// The raw value.
    #[must_use]
    pub fn text(&self, name: &str) -> Option<&str> {
        self.0.get(name).map(String::as_str)
    }

    /// The value as a path.
    #[must_use]
    pub fn path(&self, name: &str) -> Option<PathBuf> {
        self.text(name).map(PathBuf::from)
    }

    /// The value as a number (`None` when absent or not numeric).
    #[must_use]
    pub fn num(&self, name: &str) -> Option<u64> {
        self.text(name)?.trim().parse().ok()
    }

    /// A [`Value::Numbers`] list (`None` for any other kind).
    #[must_use]
    pub fn nums(&self, name: &str) -> Option<Vec<u64>> {
        parse_numbers(self.text(name)?)
    }
}

/// Checks `args` (without the program name) and the variables `env`
/// yields against `command`'s table; `Ok(None)` when `--help`/`-h` is
/// among `args`.
///
/// # Errors
///
/// A message naming the first argument or variable that does not fit.
pub fn try_parse(
    command: &Command,
    args: &[String],
    env: impl Fn(&str) -> Option<String>,
) -> Result<Option<Args>, String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(None);
    }
    let mut parsed = Args::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let spelled = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got `{arg}`"))?;
        let (name, inline) = match spelled.split_once('=') {
            Some((name, value)) => (name, Some(value.to_string())),
            None => (spelled, None),
        };
        let flag = (command.flags.iter())
            .find(|f| f.on_command_line && f.name == name)
            .ok_or_else(|| format!("unknown flag `--{name}` for `{}`", command.name))?;
        let value = match (flag.value, inline) {
            (_, Some(value)) => value,
            (Value::Switch, None) => String::new(),
            (_, None) => match it.next() {
                Some(v) if !v.starts_with("--") => v.clone(),
                _ => return Err(format!("--{name} expects a value")),
            },
        };
        flag.value.check(&format!("--{name}"), &value)?;
        parsed.0.insert(flag.name, value);
    }
    for flag in command.flags {
        if parsed.has(flag.name) {
            continue;
        }
        // An empty variable counts as unset.
        let var = flag
            .env
            .and_then(|var| Some((var, env(var)?.trim().to_string())));
        match var {
            Some((var, value)) if !value.is_empty() => {
                flag.value.check(var, &value)?;
                parsed.0.insert(flag.name, value);
            }
            _ if flag.required => return Err(format!("--{} is required", flag.name)),
            _ => {}
        }
    }
    Ok(Some(parsed))
}

/// [`try_parse`] over the process environment: prints the usage and exits
/// 0 on `--help`; prints the error and the usage and exits 2 on misuse.
#[must_use]
pub fn parse(command: &Command, args: &[String]) -> Args {
    match try_parse(command, args, |var| std::env::var(var).ok()) {
        Ok(Some(parsed)) => parsed,
        Ok(None) => {
            println!("{}", command.usage());
            std::process::exit(0)
        }
        Err(e) => command.fail(&e),
    }
}

/// The process's arguments without the program name.
#[must_use]
pub fn args() -> Vec<String> {
    std::env::args().skip(1).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The binaries' tests (`tests/cli.rs` here and at the workspace root)
    // cover unknown flags, `--help`, missing and malformed values and
    // variables, required flags and event logs; these cover the rest.
    const DEMO: Command = Command {
        name: "demo",
        about: "A demonstration.",
        flags: &[
            Flag::new("seeds", Value::Numbers, "replay seeds").env("DEMO_SEEDS"),
            Flag::new("dry", Value::Switch, "do nothing"),
            Flag::new("scale", Value::Number, "scale")
                .env("DEMO_SCALE")
                .env_only(),
        ],
    };

    fn demo(args: &[&str], var: &str) -> Result<Option<Args>, String> {
        let args: Vec<String> = args.iter().map(|s| (*s).to_string()).collect();
        try_parse(&DEMO, &args, |_| Some(var.to_string()))
    }

    #[test]
    fn spellings_empty_variables_and_the_generated_usage() {
        let a = demo(&["--seeds=1, 2", "--dry"], "")
            .unwrap()
            .expect("no --help");
        assert_eq!(
            (a.nums("seeds"), a.has("dry"), a.has("scale")),
            (Some(vec![1, 2]), true, false)
        );
        assert_eq!(demo(&["--dry=1"], "").unwrap_err(), "--dry takes no value");
        assert!(demo(&["--scale", "4"], "")
            .unwrap_err()
            .contains("unknown flag `--scale`"));
        assert_eq!(
            demo(&[], "7").unwrap().expect("no --help").nums("seeds"),
            Some(vec![7])
        );
        let usage = DEMO.usage();
        let head = "usage: demo [--seeds N,N,...] [--dry]\n  A demonstration.\n";
        assert!(usage.starts_with(head), "{usage}");
        assert!(usage.contains("replay seeds [DEMO_SEEDS]") && usage.contains("DEMO_SCALE=N"));
    }
}
