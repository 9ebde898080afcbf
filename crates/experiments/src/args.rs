//! A tiny flag parser shared by `bgpcomm` and the experiment binaries (no
//! external dependency needed for `--key value` pairs and boolean
//! switches). Every command declares, once, the flags it acts on; parsing
//! refuses anything else.

/// A group of declared flags, each list written as space-separated names:
/// value flags take the next token as their value, switches take none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flags {
    values: &'static str,
    switches: &'static str,
}

impl Flags {
    /// Declare `values` (like `"seed days"`) and `switches` (like
    /// `"quick"`).
    pub const fn new(values: &'static str, switches: &'static str) -> Flags {
        Flags { values, switches }
    }

    /// The value flags' names.
    pub fn values(&self) -> impl Iterator<Item = &'static str> {
        self.values.split_whitespace()
    }

    /// The switches' names.
    pub fn switches(&self) -> impl Iterator<Item = &'static str> {
        self.switches.split_whitespace()
    }
}

/// Parsed command-line arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    pairs: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Args {
    /// Parse `args` (excluding the program name) against the declared flag
    /// groups. A positional argument, an undeclared flag, and a value flag
    /// without a value (at the end, or followed by another flag) are
    /// refused with a message naming the flag.
    pub fn parse<I: IntoIterator<Item = String>>(
        args: I,
        declared: &[Flags],
    ) -> Result<Self, String> {
        let mut out = Args::default();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("unexpected positional argument {arg:?}"));
            };
            if declared.iter().any(|f| f.switches().any(|s| s == key)) {
                out.switches.push(key.to_string());
            } else if declared.iter().any(|f| f.values().any(|v| v == key)) {
                let value = iter
                    .next_if(|next| !next.starts_with("--"))
                    .ok_or_else(|| format!("--{key} needs a value"))?;
                out.pairs.push((key.to_string(), value));
            } else {
                return Err(format!("unknown flag --{key}"));
            }
        }
        Ok(out)
    }

    /// Parse the process's own arguments against the declared flags.
    pub fn from_env(declared: &[Flags]) -> Result<Self, String> {
        Args::parse(std::env::args().skip(1), declared)
    }

    /// A boolean switch like `--quick`.
    pub fn flag(&self, name: &str) -> bool {
        self.switches.iter().any(|f| f == name)
    }

    /// A typed value like `--seed 42`, with a default.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get_str(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("invalid value {raw:?} for --{name}")),
        }
    }

    /// An optional string value like `--json out.json`.
    ///
    /// For a repeated key this returns the last occurrence; use
    /// [`Args::get_all`] for keys that accept multiple values.
    pub fn get_str(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Every value given for a repeatable key like `--mrt a --mrt b`,
    /// in command-line order.
    pub fn get_all(&self, name: &str) -> Vec<&str> {
        self.pairs
            .iter()
            .filter(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST_FLAGS: Flags = Flags::new("seed scale days json csv mrt", "quick verbose");

    fn try_parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from), &[TEST_FLAGS])
    }

    fn parse(s: &str) -> Args {
        try_parse(s).unwrap()
    }

    #[test]
    fn values_flags_and_defaults() {
        let a = parse("--seed 42 --quick --scale 0.5");
        assert_eq!(a.get("seed", 0u64).unwrap(), 42);
        assert_eq!(a.get("scale", 1.0f64).unwrap(), 0.5);
        assert_eq!(a.get("days", 7u32).unwrap(), 7);
        assert!(a.flag("quick"));
        assert!(!a.flag("verbose"));
    }

    #[test]
    fn trailing_flag() {
        let a = parse("--quick");
        assert!(a.flag("quick"));
    }

    #[test]
    fn string_values() {
        let a = parse("--json out.json");
        assert_eq!(a.get_str("json"), Some("out.json"));
        assert_eq!(a.get_str("csv"), None);
    }

    #[test]
    fn repeated_keys_keep_every_value() {
        let a = parse("--mrt rib.mrt --mrt updates.mrt --seed 1");
        assert_eq!(a.get_all("mrt"), vec!["rib.mrt", "updates.mrt"]);
        assert_eq!(a.get_str("mrt"), Some("updates.mrt"));
        assert!(a.get_all("json").is_empty());
    }

    #[test]
    fn errors() {
        assert!(try_parse("positional").is_err());
        let a = parse("--seed abc");
        assert!(a.get("seed", 0u64).is_err());
    }

    #[test]
    fn undeclared_flags_are_refused_by_name() {
        assert_eq!(try_parse("--sed 42").unwrap_err(), "unknown flag --sed");
        assert_eq!(try_parse("--quik").unwrap_err(), "unknown flag --quik");
        assert_eq!(try_parse("--").unwrap_err(), "unknown flag --");
    }

    #[test]
    fn a_value_flag_needs_a_value() {
        assert_eq!(try_parse("--seed").unwrap_err(), "--seed needs a value");
        // A following flag is not its value.
        assert_eq!(
            try_parse("--days --json out.json").unwrap_err(),
            "--days needs a value"
        );
        // A switch never takes one.
        assert!(try_parse("--quick 1").is_err());
    }
}
