//! The one command-line flag parser behind every entry point of this crate.
//!
//! Each entry point declares its flags once, in a table of [`Flag`]s, and
//! hands its arguments to [`parse`]. A token starting with `--` must name a
//! flag of the table; every other token is a positional. A flag's [`Arity`]
//! says what may follow it: nothing, a required value, or an optional value
//! from a fixed set. Anything else — an unknown flag, a missing or
//! malformed value, one positional too many — is a [`UsageError`] naming
//! the offending token, which every entry point answers with its usage
//! text and exit code 2 before any work runs. [`synopsis`] renders a table
//! back into that usage text, so the two cannot drift apart.

use std::fmt;
use std::str::FromStr;

/// What follows a flag on the command line. A value carries the name the
/// usage text shows for it (`n` renders as `--threads <n>`).
#[derive(Debug, Clone, Copy)]
pub enum Arity {
    /// Nothing: the flag is a switch.
    Switch,
    /// A required value, which the predicate must accept.
    Value(&'static str, fn(&str) -> bool),
    /// An optional value: the next token is the flag's value when the
    /// predicate accepts it, and an argument of its own otherwise.
    Optional(&'static str, fn(&str) -> bool),
}

/// One row of a flag table: the flag as typed, `--` included, and what
/// follows it.
pub type Flag = (&'static str, Arity);

/// Admits any non-empty value (a path, an address, a name).
pub fn text(v: &str) -> bool {
    !v.is_empty()
}

/// Admits values that parse as a `T`.
pub fn number<T: FromStr>(v: &str) -> bool {
    v.parse::<T>().is_ok()
}

/// Admits the values of the report flags (`--eval-stats [json]` and its
/// siblings): `json` or `text` picks the format, `off` or `0` turns the
/// report off.
pub fn report_format(v: &str) -> bool {
    matches!(v, "json" | "text" | "off" | "0")
}

/// A rejected command line, naming the offending token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// A parsed command line: the flags given, with their values, and the
/// positionals in order.
#[derive(Debug, Clone, Default)]
pub struct Args {
    flags: Vec<(&'static str, Option<String>)>,
    positionals: Vec<String>,
}

impl Args {
    /// Whether `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| *n == name)
    }

    /// The value of the last `name` given, when it carried one.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// The value of `name` as a `T`. The flag's table row must admit only
    /// values that parse (declare it with [`number::<T>`]).
    pub fn get<T: FromStr>(&self, name: &str) -> Option<T> {
        self.value(name).map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("the table admitted {v:?} for {name}"))
        })
    }

    /// Positional `i` as a `T`, or `default` when it is absent.
    ///
    /// # Errors
    ///
    /// A positional that does not parse as a `T`.
    pub fn positional<T: FromStr>(&self, i: usize, default: T) -> Result<T, UsageError> {
        match self.positionals.get(i) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| UsageError(format!("malformed argument {v:?}"))),
        }
    }

    /// Positional `i`, which the command requires.
    ///
    /// # Errors
    ///
    /// The positional is absent; `what` names it in the message.
    pub fn required(&self, i: usize, what: &str) -> Result<&str, UsageError> {
        self.positionals
            .get(i)
            .map(String::as_str)
            .ok_or_else(|| UsageError(format!("missing {what}")))
    }
}

/// Parses `args` against `table`, admitting at most `max_positionals`
/// positionals. A later occurrence of a flag overrides an earlier one.
///
/// # Errors
///
/// An unknown flag, a required value that is missing (absent, or another
/// flag in its place) or that the table does not admit, and a positional
/// past `max_positionals`.
pub fn parse(args: &[String], table: &[Flag], max_positionals: usize) -> Result<Args, UsageError> {
    let mut out = Args::default();
    let mut tokens = args.iter().peekable();
    while let Some(token) = tokens.next() {
        if !token.starts_with("--") {
            if out.positionals.len() == max_positionals {
                return Err(UsageError(format!("unexpected argument {token:?}")));
            }
            out.positionals.push(token.clone());
            continue;
        }
        let Some(&(name, arity)) = table.iter().find(|(name, _)| name == token) else {
            return Err(UsageError(format!("unknown flag {token}")));
        };
        let next = tokens.peek().filter(|v| !v.starts_with("--"));
        let value = match arity {
            Arity::Switch => None,
            Arity::Value(_, accepts) => match next {
                None => return Err(UsageError(format!("{token} needs a value"))),
                Some(v) if !accepts(v) => {
                    return Err(UsageError(format!("malformed value {v:?} for {token}")))
                }
                Some(_) => tokens.next().cloned(),
            },
            Arity::Optional(_, accepts) => match next {
                Some(v) if accepts(v) => tokens.next().cloned(),
                _ => None,
            },
        };
        out.flags.push((name, value));
    }
    Ok(out)
}

/// Renders `table` as usage text: one `[--flag <value>]` item per row, in
/// table order, wrapped before column 80 with every continuation line
/// starting with `indent`.
pub fn synopsis(table: &[Flag], indent: &str) -> String {
    let mut lines = vec![String::new()];
    for (name, arity) in table {
        let item = match arity {
            Arity::Switch => format!("[{name}]"),
            Arity::Value(meta, _) => format!("[{name} <{meta}>]"),
            Arity::Optional(meta, _) => format!("[{name} [{meta}]]"),
        };
        let line = lines.last_mut().expect("a line");
        if line.is_empty() {
            *line = item;
        } else if indent.len() + line.len() + 1 + item.len() > 80 {
            lines.push(item);
        } else {
            *line += &format!(" {item}");
        }
    }
    lines.join(&format!("\n{indent}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use Arity::{Optional, Switch, Value};

    const TABLE: &[Flag] = &[
        ("--json", Switch),
        ("--threads", Value("n", number::<usize>)),
        ("--trace", Value("path.jsonl", text)),
        ("--eval-stats", Optional("json", report_format)),
    ];

    fn parsed(args: &str) -> Result<Args, String> {
        let args: Vec<String> = args.split_whitespace().map(String::from).collect();
        parse(&args, TABLE, 2).map_err(|e| e.to_string())
    }

    #[test]
    fn flags_values_and_positionals_separate() {
        let a = parsed("6 --json --threads 4 --threads 3 2").unwrap();
        assert!(a.has("--json") && !a.has("--trace"));
        assert_eq!(a.get::<usize>("--threads"), Some(3), "the last one wins");
        assert_eq!(a.positionals, ["6", "2"]);
        assert_eq!(a.positional(0, 40usize), Ok(6));
        assert_eq!(a.positional(5, 40usize), Ok(40));
        // An optional value the table does not admit stays a positional.
        let a = parsed("--eval-stats 6").unwrap();
        assert_eq!(
            (a.value("--eval-stats"), &a.positionals[..]),
            (None, &["6".to_string()][..])
        );
    }

    #[test]
    fn usage_errors_name_the_offending_token() {
        let err = |args| parsed(args).expect_err("usage error");
        assert_eq!(err("--bogus"), "unknown flag --bogus");
        assert_eq!(err("--threads"), "--threads needs a value");
        assert_eq!(err("--threads x"), "malformed value \"x\" for --threads");
        assert_eq!(err("1 2 3"), "unexpected argument \"3\"");
        // A required value is never another flag: this is the command
        // line that once ran with `--threads` swallowed as the trace path.
        assert_eq!(err("--trace --threads 1 6 2"), "--trace needs a value");
        let a = parsed("x").unwrap();
        assert_eq!(
            a.positional::<usize>(0, 1),
            Err(UsageError("malformed argument \"x\"".into()))
        );
        assert_eq!(a.required(1, "<b>"), Err(UsageError("missing <b>".into())));
    }

    #[test]
    fn the_synopsis_renders_every_row_and_wraps() {
        assert_eq!(
            synopsis(TABLE, "  "),
            "[--json] [--threads <n>] [--trace <path.jsonl>] [--eval-stats [json]]"
        );
        let wide: Vec<Flag> = TABLE.iter().cycle().take(8).copied().collect();
        let text = synopsis(&wide, "  ");
        assert!(text.lines().count() > 1, "{text}");
        for line in text.lines().skip(1) {
            assert!(line.starts_with("  [") && line.len() <= 80, "{line:?}");
        }
        assert_eq!(text.matches("[--").count(), 8);
    }
}
