//! Strict environment grammars for the bench and test-suite settings:
//! the error every `APENET_*` reader returns for a malformed value, and
//! the reader they share. No simulator crate reads the environment.
//!
//! No env grammar falls back to a default on a malformed value: a typo
//! such as `APENET_GATE_TOL=O.25` fails naming the variable, the value
//! and the grammar instead of running with a setting nobody asked for.
//! Unset and empty values read as the grammar's default.

/// A malformed env value, naming the variable, the value and the
/// grammar it had to match: no env grammar falls back to a default.
#[derive(Debug, PartialEq, Eq)]
pub struct EnvError {
    /// The env var.
    pub var: &'static str,
    /// The rejected value.
    pub value: String,
    /// The grammar the value had to match.
    pub grammar: &'static str,
}

impl EnvError {
    /// The error for `var=value` against `grammar`.
    pub fn new(var: &'static str, value: &str, grammar: &'static str) -> Self {
        EnvError {
            var,
            value: value.to_string(),
            grammar,
        }
    }
}

impl std::fmt::Display for EnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let EnvError {
            var,
            value,
            grammar,
        } = self;
        write!(f, "{var}={value:?} is malformed; expected {grammar}")
    }
}

impl std::error::Error for EnvError {}

/// Read env var `name` (unset reads as empty) through its grammar.
///
/// # Panics
///
/// On a malformed value, with the [`EnvError`] message.
pub fn env_var<T>(name: &'static str, parse: impl Fn(&str) -> Result<T, EnvError>) -> T {
    parse(&std::env::var(name).unwrap_or_default()).unwrap_or_else(|e| panic!("{e}"))
}
