//! The one command-line parser behind every `ptsim` subcommand.
//!
//! A subcommand asks [`Args`] for what it takes — a `--flag`, a
//! `--flag value` parsed to a type, a positional token — then calls
//! [`Args::finish`], which rejects any token nobody asked for. Every parse
//! error therefore surfaces before the subcommand does any work, and
//! [`Error::report`] answers it with the one [`USAGE`] text and exit 2.

use std::fmt;
use std::process::ExitCode;
use std::str::FromStr;

/// The usage text, printed by `--help` and after every parse error.
const USAGE: &str = "\
usage: ptsim <command> [options]

Figures and tables (paper scale unless --bench; --jobs N runs sweeps on N
threads, results are identical at any count; --json prints one JSON document):
  fig5 | fig6 | fig7 | fig8 | fig9 | fig10  [--bench] [--jobs N] [--json]
  table1                                    [--bench] [--json]
  sweep    [--bench] [--jobs N] [--json] [--dram-sweep N]

One model (gemm, bert or resnet):
  compile  [MODEL] [--json]                 (default gemm)
  trace    [MODEL] [--bench] [--json] [--trace PATH]           (default bert)
  profile  [MODEL] [--bench] [--json] [--trace PATH] [--top N]
           [--bucket CYCLES] [--guard] [--max-overhead RATIO]  (default bert)

Property-fuzz checks:
  check    [--seeds N] [--start S] [--replay SEED] [--json] [--oracle NAME]

Simulation service:
  serve    [--host H] [--port P] [--workers N] [--queue-depth D]
           [--result-cache-mb M] [--deadline-ms T] [--shutdown-grace-ms G]
  loadgen  [--addr HOST:PORT | --spawn] [--smoke] [--workers N]
           [--queue-depth D] [--result-cache-mb M] [--conns C]
           [--duration S] [--rps R] [--mix cached|distinct|mixed:NN] [--out F]
";

/// Why a command line was not accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// `--help` or `-h` was given.
    Help,
    /// The first token is not a subcommand (empty when there is none).
    Command(String),
    /// A `--flag` that takes a value was given without one.
    Missing(String),
    /// A value that does not parse as what its flag or position expects.
    Invalid { what: String, value: String, reason: String },
    /// A token no option of the subcommand consumed.
    Leftover(String),
}

impl Error {
    /// A value rejected for `reason`.
    pub fn invalid(what: &str, value: &str, reason: impl fmt::Display) -> Self {
        Error::Invalid {
            what: what.to_string(),
            value: value.to_string(),
            reason: reason.to_string(),
        }
    }

    /// The process exit code: 0 for `--help`, 2 for every parse error.
    fn code(&self) -> u8 {
        if *self == Error::Help {
            0
        } else {
            2
        }
    }

    /// Prints the usage text (after the error, on stderr, unless this is
    /// `--help`) and returns the exit code.
    pub fn report(&self) -> ExitCode {
        if *self == Error::Help {
            print!("{USAGE}");
        } else {
            eprint!("ptsim: {self}\n\n{USAGE}");
        }
        ExitCode::from(self.code())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Help => write!(f, "help requested"),
            Error::Command(c) if c.is_empty() => write!(f, "missing command"),
            Error::Command(c) => write!(f, "unknown command {c:?}"),
            Error::Missing(flag) => write!(f, "{flag} needs a value"),
            Error::Invalid { what, value, reason } => write!(f, "{what} {value:?}: {reason}"),
            Error::Leftover(token) => write!(f, "unexpected argument {token:?}"),
        }
    }
}

/// The tokens after the program name; each is consumed at most once.
#[derive(Debug)]
pub struct Args {
    tokens: Vec<Option<String>>,
}

impl Args {
    pub fn new(tokens: impl IntoIterator<Item = String>) -> Self {
        Args { tokens: tokens.into_iter().map(Some).collect() }
    }

    /// Takes the subcommand name, the first token. `--help` or `-h`
    /// anywhere on the line wins over everything else.
    pub fn command(&mut self) -> Result<String, Error> {
        if self.flag("--help") || self.flag("-h") {
            return Err(Error::Help);
        }
        match self.tokens.first_mut().and_then(Option::take) {
            Some(c) if !c.starts_with('-') => Ok(c),
            other => Err(Error::Command(other.unwrap_or_default())),
        }
    }

    /// Consumes `name` and reports whether it was given.
    pub fn flag(&mut self, name: &str) -> bool {
        self.take(name).is_some()
    }

    /// Consumes `name` and the token after it, parsed as `T`.
    pub fn value<T: FromStr>(&mut self, name: &str) -> Result<Option<T>, Error>
    where
        T::Err: fmt::Display,
    {
        self.value_with(name, str::parse)
    }

    /// Consumes `name` and the token after it, converted by `parse`.
    pub fn value_with<T, E: fmt::Display>(
        &mut self,
        name: &str,
        parse: impl FnOnce(&str) -> Result<T, E>,
    ) -> Result<Option<T>, Error> {
        let Some(i) = self.take(name) else { return Ok(None) };
        let value = match self.tokens.get_mut(i + 1) {
            Some(slot) if slot.as_deref().is_some_and(|v| !v.starts_with("--")) => slot.take(),
            _ => None,
        };
        let value = value.ok_or_else(|| Error::Missing(name.to_string()))?;
        parse(&value).map(Some).map_err(|e| Error::invalid(name, &value, e))
    }

    /// Consumes the first token that is not a flag. Ask for every
    /// `--flag value` first, so that no flag's value is taken for it.
    pub fn positional(&mut self) -> Option<String> {
        self.tokens.iter_mut().find(|t| t.as_deref().is_some_and(|t| !t.starts_with('-')))?.take()
    }

    /// Fails on the first token no option consumed.
    pub fn finish(&self) -> Result<(), Error> {
        match self.tokens.iter().flatten().next() {
            Some(token) => Err(Error::Leftover(token.clone())),
            None => Ok(()),
        }
    }

    fn take(&mut self, name: &str) -> Option<usize> {
        let i = self.tokens.iter().position(|t| t.as_deref() == Some(name))?;
        self.tokens[i] = None;
        Some(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Args {
        Args::new(line.split_whitespace().map(String::from))
    }

    #[test]
    fn a_typed_value_parses_and_is_consumed() {
        let mut a = args("fig5 --jobs 4 --bench");
        assert_eq!(a.command().unwrap(), "fig5");
        assert_eq!(a.value::<usize>("--jobs").unwrap(), Some(4));
        assert!(a.flag("--bench"));
        assert_eq!(a.value::<usize>("--seeds").unwrap(), None);
        a.finish().unwrap();

        let err = args("--jobs x").value::<usize>("--jobs").unwrap_err();
        assert!(
            matches!(&err, Error::Invalid { what, value, .. } if what == "--jobs" && value == "x")
        );
        assert_eq!(err.code(), 2);
    }

    #[test]
    fn a_missing_value_is_an_error() {
        assert_eq!(
            args("--trace").value::<String>("--trace"),
            Err(Error::Missing("--trace".into()))
        );
        // The next flag is not taken for the value.
        let mut a = args("--trace --json");
        assert_eq!(a.value::<String>("--trace"), Err(Error::Missing("--trace".into())));
        assert!(a.flag("--json"));
    }

    #[test]
    fn a_leftover_token_is_named() {
        let mut a = args("trace gemm extra --bnech");
        assert_eq!(a.command().unwrap(), "trace");
        assert_eq!(a.positional().as_deref(), Some("gemm"));
        assert_eq!(a.finish(), Err(Error::Leftover("extra".into())));
        assert_eq!(args("--bnech").finish(), Err(Error::Leftover("--bnech".into())));
        assert_eq!(args("nosuch").command(), Ok("nosuch".into()));
        assert_eq!(args("").command(), Err(Error::Command(String::new())));
    }

    #[test]
    fn help_exits_zero_from_any_position() {
        for line in ["--help", "-h", "fig5 --jobs x --help"] {
            let err = args(line).command().unwrap_err();
            assert_eq!(err, Error::Help, "{line}");
            assert_eq!(err.code(), 0);
        }
    }
}
