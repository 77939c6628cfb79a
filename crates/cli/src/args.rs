//! Hand-rolled argument parsing (no external dependency): `--key value`
//! options and `--flag` booleans after a subcommand word.

use std::collections::BTreeMap;

use crate::{CliError, Result};

/// The parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedArgs {
    /// Which subcommand.
    pub command: Command,
    /// `--key value` options.
    options: BTreeMap<String, String>,
    /// bare `--flag`s.
    flags: Vec<String>,
}

/// The `nidc` subcommands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Generate a synthetic corpus.
    Generate,
    /// Print per-window statistics.
    Stats,
    /// Cluster a time range.
    Cluster,
    /// Replay the stream incrementally.
    Stream,
    /// Evaluate a window against labels.
    Eval,
    /// Render per-lineage timelines from an event stream.
    Inspect,
}

/// Options every command accepts: `run` handles them before dispatch.
const COMMON_OPTIONS: &[&str] = &["log-level", "alloc-stats"];

impl Command {
    /// The `--key value` options and bare `--flag`s this command reads,
    /// besides [`COMMON_OPTIONS`].
    fn options(self) -> &'static [&'static str] {
        match self {
            Command::Generate => &["out", "scale", "seed"],
            Command::Stats => &["input"],
            Command::Cluster => &[
                "input",
                "k",
                "seed",
                "beta",
                "gamma",
                "from",
                "to",
                "top",
                "json",
                "metrics",
                "metrics-format",
                "events",
                "trace",
                "trace-summary",
            ],
            Command::Stream => &[
                "input",
                "k",
                "seed",
                "beta",
                "gamma",
                "every",
                "state",
                "shards",
                "stitch",
                "stitch-threshold",
                "threads",
                "metrics",
                "metrics-format",
                "events",
                "trace",
                "trace-summary",
            ],
            Command::Eval => &[
                "input",
                "window",
                "k",
                "seed",
                "beta",
                "gamma",
                "threads",
                "shards",
                "stitch",
                "stitch-threshold",
                "metrics",
                "metrics-format",
                "trace",
                "trace-summary",
            ],
            Command::Inspect => &["events", "top"],
        }
    }

    fn parse(word: &str) -> Option<Command> {
        match word {
            "generate" => Some(Command::Generate),
            "stats" => Some(Command::Stats),
            "cluster" => Some(Command::Cluster),
            "stream" => Some(Command::Stream),
            "eval" => Some(Command::Eval),
            "inspect" => Some(Command::Inspect),
            _ => None,
        }
    }
}

/// Options that never take a value.
const BOOLEAN_FLAGS: &[&str] = &["json", "trace-summary", "alloc-stats"];

impl ParsedArgs {
    /// Parses `args` (without the program name).
    pub fn parse<I, S>(args: I) -> Result<ParsedArgs>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut iter = args.into_iter().map(Into::into).peekable();
        let word = iter
            .next()
            .ok_or_else(|| CliError::Usage("missing command".into()))?;
        let command = Command::parse(&word)
            .ok_or_else(|| CliError::Usage(format!("unknown command '{word}'")))?;
        let mut options = BTreeMap::new();
        let mut flags = Vec::new();
        while let Some(tok) = iter.next() {
            let Some(key) = tok.strip_prefix("--") else {
                return Err(CliError::Usage(format!("unexpected argument '{tok}'")));
            };
            if !command.options().contains(&key) && !COMMON_OPTIONS.contains(&key) {
                return Err(CliError::Usage(format!(
                    "unknown option '--{key}' for '{word}'"
                )));
            }
            if BOOLEAN_FLAGS.contains(&key) {
                flags.push(key.to_owned());
                continue;
            }
            let value = iter
                .next()
                .ok_or_else(|| CliError::Usage(format!("--{key} requires a value")))?;
            options.insert(key.to_owned(), value);
        }
        Ok(ParsedArgs {
            command,
            options,
            flags,
        })
    }

    /// A string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// A required string option.
    pub fn require(&self, key: &str) -> Result<&str> {
        self.get(key)
            .ok_or_else(|| CliError::Usage(format!("--{key} is required")))
    }

    /// A numeric option with a default.
    pub fn get_f64(&self, key: &str, default: f64) -> Result<f64> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("--{key}: '{v}' is not a number"))),
        }
    }

    /// An integer option with a default.
    pub fn get_usize(&self, key: &str, default: usize) -> Result<usize> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("--{key}: '{v}' is not an integer"))),
        }
    }

    /// A u64 option with a default.
    pub fn get_u64(&self, key: &str, default: u64) -> Result<u64> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("--{key}: '{v}' is not an integer"))),
        }
    }

    /// Whether a boolean `--flag` was given.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_command_options_and_flags() {
        let a =
            ParsedArgs::parse(["cluster", "--input", "c.jsonl", "--k", "12", "--json"]).unwrap();
        assert_eq!(a.command, Command::Cluster);
        assert_eq!(a.get("input"), Some("c.jsonl"));
        assert_eq!(a.get_usize("k", 24).unwrap(), 12);
        assert!(a.flag("json"));
        assert!(!a.flag("verbose"));
    }

    #[test]
    fn defaults_apply_when_options_absent() {
        let a = ParsedArgs::parse(["cluster", "--input", "x"]).unwrap();
        assert_eq!(a.get_f64("beta", 7.0).unwrap(), 7.0);
        assert_eq!(a.get_u64("seed", 42).unwrap(), 42);
    }

    #[test]
    fn missing_command_is_an_error() {
        assert!(matches!(
            ParsedArgs::parse(Vec::<String>::new()),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(matches!(
            ParsedArgs::parse(["frobnicate"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn option_without_value_is_an_error() {
        assert!(matches!(
            ParsedArgs::parse(["cluster", "--input"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn non_numeric_value_is_an_error() {
        let a = ParsedArgs::parse(["cluster", "--k", "many"]).unwrap();
        assert!(matches!(a.get_usize("k", 1), Err(CliError::Usage(_))));
    }

    #[test]
    fn required_option() {
        let a = ParsedArgs::parse(["stats"]).unwrap();
        assert!(matches!(a.require("input"), Err(CliError::Usage(_))));
    }

    #[test]
    fn stray_positional_is_an_error() {
        assert!(matches!(
            ParsedArgs::parse(["cluster", "positional"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn unknown_options_are_rejected_naming_option_and_command() {
        for (argv, key, word) in [
            (&["stream", "--shard", "3"][..], "--shard", "stream"),
            (&["cluster", "--threads", "2"][..], "--threads", "cluster"),
            (&["eval", "--events", "e.jsonl"][..], "--events", "eval"),
            (&["stats", "--json"][..], "--json", "stats"),
        ] {
            match ParsedArgs::parse(argv.iter().copied()) {
                Err(CliError::Usage(msg)) => assert!(
                    msg.contains(key) && msg.contains(word),
                    "{argv:?}: message '{msg}' must name {key} and {word}"
                ),
                other => panic!("{argv:?} must be a usage error, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_option_in_the_usage_text_parses() {
        // Each command's block in COMMANDS: its own line, then the indented
        // option lines up to the next command or the blank line.
        let commands = crate::USAGE
            .split("COMMANDS:\n")
            .nth(1)
            .and_then(|rest| rest.split("\n\n").next())
            .expect("USAGE has a COMMANDS section");
        let mut blocks: Vec<(String, String)> = Vec::new();
        for line in commands.lines() {
            match line.strip_prefix("    ").filter(|l| !l.starts_with(' ')) {
                Some(head) => {
                    let (word, rest) = head.split_once(' ').unwrap_or((head, ""));
                    blocks.push((word.to_owned(), rest.to_owned()));
                }
                None => blocks.last_mut().expect("a command line first").1 += line,
            }
        }
        assert_eq!(blocks.len(), 6, "one block per command");
        for (word, text) in &blocks {
            let keys: Vec<&str> = text
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .filter_map(|t| t.strip_prefix("--"))
                .collect();
            assert!(!keys.is_empty(), "{word} lists no options");
            for key in keys {
                let opt = format!("--{key}");
                let mut argv = vec![word.as_str(), opt.as_str()];
                if !BOOLEAN_FLAGS.contains(&key) {
                    argv.push("1");
                }
                if let Err(e) = ParsedArgs::parse(argv.iter().copied()) {
                    panic!("`nidc {word} --{key}` from USAGE does not parse: {e}");
                }
            }
        }
    }

    #[test]
    fn all_commands_parse() {
        for (w, c) in [
            ("generate", Command::Generate),
            ("stats", Command::Stats),
            ("cluster", Command::Cluster),
            ("stream", Command::Stream),
            ("eval", Command::Eval),
            ("inspect", Command::Inspect),
        ] {
            assert_eq!(ParsedArgs::parse([w]).unwrap().command, c);
        }
    }
}
