//! Minimal, dependency-free command-line parsing for `fase-cli`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A parsed command line: a subcommand plus `--key value` options and
/// value-less boolean `--flag`s.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ParsedArgs {
    /// The subcommand (first positional argument).
    pub command: String,
    options: BTreeMap<String, String>,
    flags: BTreeSet<String>,
}

/// Errors from parsing or validating arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// No subcommand was supplied.
    MissingCommand,
    /// An option flag had no value.
    MissingValue(String),
    /// A token that is not a `--flag` appeared where one was expected.
    UnexpectedToken(String),
    /// A required option was absent.
    MissingOption(String),
    /// An option value failed to parse.
    BadValue {
        /// The option name.
        option: String,
        /// The offending value.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
    /// The subcommand is unknown.
    UnknownCommand(String),
    /// The subcommand does not read this option or flag.
    UnknownOption(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingCommand => write!(f, "no subcommand given"),
            ArgError::MissingValue(k) => write!(f, "option --{k} needs a value"),
            ArgError::UnexpectedToken(t) => write!(f, "unexpected argument '{t}'"),
            ArgError::MissingOption(k) => write!(f, "required option --{k} is missing"),
            ArgError::BadValue {
                option,
                value,
                expected,
            } => {
                write!(f, "option --{option}: '{value}' is not a valid {expected}")
            }
            ArgError::UnknownCommand(c) => write!(f, "unknown subcommand '{c}'"),
            ArgError::UnknownOption(k) => write!(f, "unknown option --{k}"),
        }
    }
}

impl std::error::Error for ArgError {}

/// The subcommand: the first argument, which must not be a `--flag`.
///
/// # Errors
///
/// [`ArgError::MissingCommand`] when there is none.
pub fn command(args: &[String]) -> Result<&str, ArgError> {
    match args.first() {
        Some(command) if !command.starts_with("--") => Ok(command),
        _ => Err(ArgError::MissingCommand),
    }
}

impl ParsedArgs {
    /// Parses `command --key value … --flag …`. Only the names in
    /// `options` (which take a value) and `flags` (which do not) are
    /// accepted, written without the `--` prefix.
    ///
    /// # Errors
    ///
    /// Returns an [`ArgError`] for a missing command, an option without a
    /// value, a name in neither list, or a stray positional token.
    pub fn parse(
        args: &[String],
        options: &[&str],
        flags: &[&str],
    ) -> Result<ParsedArgs, ArgError> {
        let command = command(args)?.to_owned();
        let mut parsed = ParsedArgs {
            command,
            ..ParsedArgs::default()
        };
        let mut iter = args.iter().skip(1);
        while let Some(token) = iter.next() {
            let Some(key) = token.strip_prefix("--") else {
                return Err(ArgError::UnexpectedToken(token.clone()));
            };
            if flags.contains(&key) {
                parsed.flags.insert(key.to_owned());
                continue;
            }
            if !options.contains(&key) {
                return Err(ArgError::UnknownOption(key.to_owned()));
            }
            let value = iter
                .next()
                .ok_or_else(|| ArgError::MissingValue(key.to_owned()))?;
            parsed.options.insert(key.to_owned(), value.clone());
        }
        Ok(parsed)
    }

    /// The raw string value of an option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// True when the boolean `--key` flag was present.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.contains(key)
    }

    /// A required string option.
    ///
    /// # Errors
    ///
    /// [`ArgError::MissingOption`] when absent.
    pub fn required(&self, key: &str) -> Result<&str, ArgError> {
        self.get(key)
            .ok_or_else(|| ArgError::MissingOption(key.to_owned()))
    }

    /// A frequency option (supports `k`/`M`/`G` suffixes), with a default.
    ///
    /// # Errors
    ///
    /// [`ArgError::BadValue`] when present but unparsable.
    pub fn frequency_or(&self, key: &str, default: f64) -> Result<f64, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => parse_frequency(v).ok_or(ArgError::BadValue {
                option: key.to_owned(),
                value: v.to_owned(),
                expected: "frequency (e.g. 43.3k, 2M, 100)",
            }),
        }
    }

    /// A required frequency option.
    ///
    /// # Errors
    ///
    /// [`ArgError::MissingOption`] or [`ArgError::BadValue`].
    pub fn frequency(&self, key: &str) -> Result<f64, ArgError> {
        let v = self.required(key)?;
        parse_frequency(v).ok_or(ArgError::BadValue {
            option: key.to_owned(),
            value: v.to_owned(),
            expected: "frequency (e.g. 43.3k, 2M, 100)",
        })
    }

    /// An integer option with a default.
    ///
    /// # Errors
    ///
    /// [`ArgError::BadValue`] when present but unparsable.
    pub fn integer_or(&self, key: &str, default: u64) -> Result<u64, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::BadValue {
                option: key.to_owned(),
                value: v.to_owned(),
                expected: "integer",
            }),
        }
    }

    /// An optional integer option (`None` when absent).
    ///
    /// # Errors
    ///
    /// [`ArgError::BadValue`] when present but unparsable.
    pub fn integer_opt(&self, key: &str) -> Result<Option<u64>, ArgError> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|_| ArgError::BadValue {
                option: key.to_owned(),
                value: v.to_owned(),
                expected: "integer",
            }),
        }
    }

    /// A plain floating-point option (e.g. a probability), with a default.
    ///
    /// # Errors
    ///
    /// [`ArgError::BadValue`] when present but unparsable or non-finite.
    pub fn float_or(&self, key: &str, default: f64) -> Result<f64, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse::<f64>()
                .ok()
                .filter(|x| x.is_finite())
                .ok_or(ArgError::BadValue {
                    option: key.to_owned(),
                    value: v.to_owned(),
                    expected: "number",
                }),
        }
    }
}

/// Parses `"43.3k"`, `"2M"`, `"1.2G"`, or plain hertz values.
pub fn parse_frequency(text: &str) -> Option<f64> {
    let text = text.trim();
    if text.is_empty() {
        return None;
    }
    let (number, multiplier) = match text.chars().last()? {
        'k' | 'K' => (&text[..text.len() - 1], 1e3),
        'M' => (&text[..text.len() - 1], 1e6),
        'G' => (&text[..text.len() - 1], 1e9),
        _ => (text, 1.0),
    };
    let value: f64 = number.parse().ok()?;
    (value.is_finite() && value >= 0.0).then_some(value * multiplier)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    const SCAN: &[&str] = &["system", "lo", "hi", "avg", "alts", "res"];

    #[test]
    fn parses_command_and_options() {
        let p = ParsedArgs::parse(&argv("scan --system i7 --lo 60k --hi 2M"), SCAN, &[]).unwrap();
        assert_eq!(p.command, "scan");
        assert_eq!(p.get("system"), Some("i7"));
        assert_eq!(p.frequency("lo").unwrap(), 60_000.0);
        assert_eq!(p.frequency("hi").unwrap(), 2_000_000.0);
    }

    #[test]
    fn parse_errors() {
        assert_eq!(
            ParsedArgs::parse(&[], SCAN, &[]).unwrap_err(),
            ArgError::MissingCommand
        );
        assert_eq!(
            ParsedArgs::parse(&argv("--lo 60k"), SCAN, &[]).unwrap_err(),
            ArgError::MissingCommand
        );
        assert_eq!(
            ParsedArgs::parse(&argv("scan --lo"), SCAN, &[]).unwrap_err(),
            ArgError::MissingValue("lo".into())
        );
        assert_eq!(
            ParsedArgs::parse(&argv("scan stray"), SCAN, &[]).unwrap_err(),
            ArgError::UnexpectedToken("stray".into())
        );
        assert_eq!(
            ParsedArgs::parse(&argv("scan --lo 60k --bandz 2"), SCAN, &[]).unwrap_err(),
            ArgError::UnknownOption("bandz".into())
        );
    }

    #[test]
    fn boolean_flags_take_no_value() {
        let p = ParsedArgs::parse(
            &argv("scan --timings --system i7 --lo 60k --hi 2M"),
            SCAN,
            &["timings"],
        )
        .unwrap();
        assert!(p.flag("timings"));
        assert!(!p.flag("metrics-out"));
        assert_eq!(p.get("system"), Some("i7"));
        // An unregistered flag is refused, not taken as an option.
        assert_eq!(
            ParsedArgs::parse(&argv("scan --timings"), SCAN, &[]).unwrap_err(),
            ArgError::UnknownOption("timings".into())
        );
    }

    #[test]
    fn frequency_suffixes() {
        assert_eq!(parse_frequency("100"), Some(100.0));
        assert_eq!(parse_frequency("43.3k"), Some(43_300.0));
        assert_eq!(parse_frequency("2M"), Some(2.0e6));
        assert_eq!(parse_frequency("1.2G"), Some(1.2e9));
        assert_eq!(parse_frequency("315.66K"), Some(315_660.0));
        assert_eq!(parse_frequency(""), None);
        assert_eq!(parse_frequency("abc"), None);
        assert_eq!(parse_frequency("-5k"), None);
    }

    #[test]
    fn defaults_and_requirements() {
        let p = ParsedArgs::parse(&argv("scan --avg 8"), SCAN, &[]).unwrap();
        assert_eq!(p.integer_or("avg", 4).unwrap(), 8);
        assert_eq!(p.integer_or("alts", 5).unwrap(), 5);
        assert_eq!(p.frequency_or("res", 100.0).unwrap(), 100.0);
        assert!(matches!(
            p.required("system"),
            Err(ArgError::MissingOption(_))
        ));
        let bad = ParsedArgs::parse(&argv("scan --avg nope"), SCAN, &[]).unwrap();
        assert!(matches!(
            bad.integer_or("avg", 4),
            Err(ArgError::BadValue { .. })
        ));
    }

    #[test]
    fn floats_and_optional_integers() {
        let faults = &["fault-rate", "fail-alt"];
        let p =
            ParsedArgs::parse(&argv("scan --fault-rate 0.05 --fail-alt 2"), faults, &[]).unwrap();
        assert_eq!(p.float_or("fault-rate", 0.0).unwrap(), 0.05);
        assert_eq!(p.float_or("other-rate", 0.25).unwrap(), 0.25);
        assert_eq!(p.integer_opt("fail-alt").unwrap(), Some(2));
        assert_eq!(p.integer_opt("absent").unwrap(), None);
        let bad =
            ParsedArgs::parse(&argv("scan --fault-rate nan --fail-alt x"), faults, &[]).unwrap();
        assert!(matches!(
            bad.float_or("fault-rate", 0.0),
            Err(ArgError::BadValue { .. })
        ));
        assert!(matches!(
            bad.integer_opt("fail-alt"),
            Err(ArgError::BadValue { .. })
        ));
    }

    #[test]
    fn error_display() {
        let e = ArgError::BadValue {
            option: "lo".into(),
            value: "x".into(),
            expected: "frequency (e.g. 43.3k, 2M, 100)",
        };
        assert!(format!("{e}").contains("--lo"));
        let e = ArgError::UnknownOption("bandz".into());
        assert_eq!(format!("{e}"), "unknown option --bandz");
    }
}
