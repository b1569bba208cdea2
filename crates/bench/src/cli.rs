//! The `reproduce` command-line grammar: one flag loop for every
//! subcommand.
//!
//! [`parse`] turns the arguments after the subcommand name into an
//! [`Opts`] or an error message; it never exits and never panics, so the
//! binary's `main` is the only place a bad command line ends the
//! process. Each subcommand declares which flags it accepts, spelled as
//! its usage line shows them (`"<name>"` stands for the one positional
//! preset name). Numeric flags land in `Option`s the subcommand resolves
//! against its own defaults *after* parsing, so an explicit
//! `--seconds`/`--seed` wins over `--smoke`/`--full` in any order.

use poi360_sim::time::SimDuration;
use std::path::PathBuf;

/// A parsed `reproduce <subcommand> ...` command line.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Opts {
    /// The positional preset / scenario / study name.
    pub name: Option<String>,
    /// `--smoke`: the CI-scale variant.
    pub smoke: bool,
    /// `--full`: the paper-scale variant (figures).
    pub full: bool,
    /// `--seconds N`: run length override.
    pub seconds: Option<u64>,
    /// `--repeats N`: repetitions per user (figures).
    pub repeats: Option<u64>,
    /// `--seed N`: seed override.
    pub seed: Option<u64>,
    /// `--baseline <dir>` (study).
    pub baseline: Option<PathBuf>,
}

/// One usage line for a subcommand accepting `accepted`.
pub fn usage_line(name: &str, accepted: &[&str]) -> String {
    let flags: String = accepted.iter().map(|flag| format!(" [{flag}]")).collect();
    format!("reproduce {name}{flags}")
}

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("{flag} needs a non-negative integer, got {value:?}"))
}

/// [`number`], with zero a usage error too: a zero-length run or zero
/// repeats has nothing to report.
fn positive<T: std::str::FromStr + Default + PartialEq>(
    flag: &str,
    value: &str,
) -> Result<T, String> {
    match number(flag, value)? {
        n if n == T::default() => Err(format!("{flag} needs a positive integer")),
        n => Ok(n),
    }
}

/// Parse the arguments that follow a subcommand name. `accepted` lists
/// what this subcommand takes, spelled as in its usage line: `"<name>"`
/// for the positional, `"--flag"` or `"--flag VALUE"` otherwise.
pub fn parse(args: &[String], accepted: &[&str]) -> Result<Opts, String> {
    let mut o = Opts::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let flag = if arg.starts_with('-') { arg.as_str() } else { "<name>" };
        let accepts = |f| accepted.iter().any(|a| a.split(' ').next() == Some(f));
        if flag == "<name>" && (o.name.is_some() || !accepts(flag)) {
            return Err(format!("unexpected argument {arg:?}"));
        }
        if !accepts(flag) {
            return Err(format!("{flag} is not a flag of this subcommand"));
        }
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag {
            "<name>" => o.name = Some(arg.clone()),
            "--smoke" => o.smoke = true,
            "--full" => o.full = true,
            "--seconds" => {
                let seconds = positive(flag, value()?)?;
                SimDuration::checked_from_secs(seconds)
                    .ok_or_else(|| format!("--seconds {seconds} overflows the simulation clock"))?;
                o.seconds = Some(seconds)
            }
            "--repeats" => o.repeats = Some(positive(flag, value()?)?),
            "--seed" => o.seed = Some(number(flag, value()?)?),
            "--baseline" => o.baseline = Some(PathBuf::from(value()?)),
            other => return Err(format!("{other} is not a reproduce flag")),
        }
    }
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    const RUN: [&str; 4] = ["<name>", "--smoke", "--seconds N", "--seed N"];

    fn p(args: &[&str], accepted: &[&str]) -> Result<Opts, String> {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>(), accepted)
    }

    #[test]
    fn explicit_numbers_survive_smoke_in_either_order() {
        let a = p(&["--seconds", "9", "--smoke", "--seed", "4"], &RUN).unwrap();
        let b = p(&["--smoke", "--seed", "4", "--seconds", "9"], &RUN).unwrap();
        assert_eq!(a, b);
        assert_eq!((a.smoke, a.seconds, a.seed), (true, Some(9), Some(4)));
        let bare = p(&["rlf", "--smoke"], &RUN).unwrap();
        assert_eq!((bare.name.as_deref(), bare.seconds), (Some("rlf"), None));
    }

    #[test]
    fn garbage_at_every_edge_is_an_error_message_never_a_panic() {
        for (args, accepted, needle) in [
            (&["--seconds"][..], &RUN[..], "--seconds needs a value"),
            (&["--seconds", "soon"], &RUN, "--seconds needs a non-negative integer, got \"soon\""),
            (&["--seed", "-1"], &RUN, "--seed needs a non-negative integer"),
            (&["--seconds", "0"], &RUN, "--seconds needs a positive integer"),
            (&["--seconds", "18446744073710"], &RUN, "overflows the simulation clock"),
            (&["--repeats", "0"], &["--repeats N"], "--repeats needs a positive integer"),
            (&["--threads", "2"], &RUN, "--threads is not a flag of this subcommand"),
            (&["--frobnicate"], &RUN, "--frobnicate is not a flag of this subcommand"),
            (&["--repeats", "3"], &RUN, "--repeats is not a flag of this subcommand"),
            (&["--frobnicate"], &["--frobnicate"], "--frobnicate is not a reproduce flag"),
            (
                &["--compare", "b.json"],
                &["--compare <b.json>"],
                "--compare is not a reproduce flag",
            ),
            (&["rlf", "stacked"], &RUN, "unexpected argument \"stacked\""),
            (&["rlf"], &["--full"], "unexpected argument \"rlf\""),
            (&["--baseline"], &["--baseline <dir>"], "--baseline needs a value"),
        ] {
            let err = p(args, accepted).expect_err(&format!("{args:?} must be rejected"));
            assert!(err.contains(needle), "{args:?}: {err:?} lacks {needle:?}");
        }
    }

    #[test]
    fn usage_lines_list_exactly_the_accepted_flags() {
        assert_eq!(
            usage_line("study", &["<name>", "--smoke", "--baseline <dir>"]),
            "reproduce study [<name>] [--smoke] [--baseline <dir>]"
        );
    }
}
