//! Std-only flag parsing shared by every driver binary in the workspace.
//!
//! One tiny convention everywhere: `--flag value` or `--flag=value` plus
//! bare positional arguments, e.g.
//!
//! ```console
//! $ lexforensica serve specs.jsonl --workers 8 --policy reject
//! $ cargo run --release -p bench --bin service_load -- --overload 3 --seed 7
//! ```
//!
//! This module is the single source of truth: the `lexforensica` CLI and
//! the `bench` drivers parse with the same code, so the two vocabularies
//! cannot drift.

use std::collections::BTreeMap;

/// Parsed command-line arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    flags: BTreeMap<String, String>,
    positional: Vec<String>,
}

impl Args {
    /// Parses the process arguments (after the binary name).
    ///
    /// # Panics
    ///
    /// Panics with a readable message when a `--flag` is missing its
    /// value — drivers want loud, immediate feedback, not silent
    /// defaults for a typo.
    pub fn parse() -> Self {
        Args::parse_from(std::env::args().skip(1))
    }

    /// Parses from an explicit argument iterator (used by tests and by
    /// subcommands that strip their own name first).
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Self {
        let mut out = Args::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if let Some(name) = arg.strip_prefix("--") {
                if let Some((key, value)) = name.split_once('=') {
                    out.flags.insert(key.to_string(), value.to_string());
                } else {
                    let value = args
                        .next()
                        .unwrap_or_else(|| panic!("flag --{name} is missing its value"));
                    out.flags.insert(name.to_string(), value);
                }
            } else {
                out.positional.push(arg);
            }
        }
        out
    }

    /// The raw value of `--name`, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// The `i`-th positional argument, if present.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positional.get(i).map(String::as_str)
    }

    /// `--name` parsed as `u64`, or `default` when absent.
    ///
    /// # Panics
    ///
    /// Panics when the value is present but not a valid `u64`.
    pub fn u64_flag(&self, name: &str, default: u64) -> u64 {
        self.parsed(name).unwrap_or(default)
    }

    /// `--name` parsed as `usize`, or `default` when absent.
    ///
    /// # Panics
    ///
    /// Panics when the value is present but not a valid `usize`.
    pub fn usize_flag(&self, name: &str, default: usize) -> usize {
        self.parsed(name).unwrap_or(default)
    }

    /// `--name` parsed as `f64`, or `default` when absent.
    ///
    /// # Panics
    ///
    /// Panics when the value is present but not a valid `f64`.
    pub fn f64_flag(&self, name: &str, default: f64) -> f64 {
        self.parsed(name).unwrap_or(default)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.get(name).map(|v| {
            v.parse().unwrap_or_else(|_| {
                panic!("flag --{name} has invalid value {v:?}");
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::parse_from(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_both_flag_styles_and_positionals() {
        let a = args(&["100", "--trials", "8", "--seed=42", "extra"]);
        assert_eq!(a.u64_flag("trials", 1), 8);
        assert_eq!(a.u64_flag("seed", 0), 42);
        assert_eq!(a.positional(0), Some("100"));
        assert_eq!(a.positional(1), Some("extra"));
        assert_eq!(a.positional(2), None);
    }

    #[test]
    fn defaults_apply_when_flags_absent() {
        let a = args(&[]);
        assert_eq!(a.u64_flag("trials", 16), 16);
        assert_eq!(a.usize_flag("threads", 4), 4);
        assert_eq!(a.get("seed"), None);
    }

    #[test]
    fn f64_flags_parse() {
        let a = args(&["--rate", "2.5"]);
        assert_eq!(a.f64_flag("rate", 1.0), 2.5);
        assert_eq!(a.f64_flag("missing", 0.5), 0.5);
    }

    #[test]
    #[should_panic(expected = "missing its value")]
    fn missing_value_panics() {
        args(&["--trials"]);
    }

    #[test]
    #[should_panic(expected = "invalid value")]
    fn malformed_value_panics() {
        args(&["--trials", "lots"]).u64_flag("trials", 1);
    }
}
