//! Minimal hand-rolled argument parsing (no external dependencies).

use std::collections::HashMap;

/// Parsed command line: a subcommand, positional arguments, and
/// `--key value` / `--flag` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedArgs {
    pub command: String,
    pub positional: Vec<String>,
    pub options: HashMap<String, String>,
    pub flags: Vec<String>,
}

/// Parse `argv[1..]`. Tokens starting with `--` are options; an option
/// consumes the next token as its value unless it is followed by another
/// option or nothing (then it is a bare flag).
pub fn parse(args: &[String]) -> Result<ParsedArgs, String> {
    let mut it = args.iter().peekable();
    let command = it
        .next()
        .cloned()
        .ok_or_else(|| "missing subcommand".to_string())?;
    if command.starts_with("--") {
        return Err(format!("expected subcommand, got option {command}"));
    }
    let mut positional = Vec::new();
    let mut options = HashMap::new();
    let mut flags = Vec::new();
    while let Some(tok) = it.next() {
        if let Some(name) = tok.strip_prefix("--") {
            if name.is_empty() {
                return Err("empty option name".into());
            }
            match it.peek() {
                Some(next) if !next.starts_with("--") => {
                    options.insert(name.to_string(), it.next().unwrap().clone());
                }
                _ => flags.push(name.to_string()),
            }
        } else {
            positional.push(tok.clone());
        }
    }
    Ok(ParsedArgs {
        command,
        positional,
        options,
        flags,
    })
}

impl ParsedArgs {
    /// The `i`-th positional argument or an error naming it.
    pub fn pos(&self, i: usize, name: &str) -> Result<&str, String> {
        self.positional
            .get(i)
            .map(|s| s.as_str())
            .ok_or_else(|| format!("missing required argument <{name}>"))
    }

    /// The value of a required option, or an error naming it with the
    /// `hint` of what it takes (`--out DIR`).
    pub fn required(&self, name: &str, hint: &str) -> Result<&str, String> {
        self.options
            .get(name)
            .map(|s| s.as_str())
            .ok_or_else(|| format!("missing required option --{name} {hint}"))
    }

    /// Typed option with a default.
    pub fn opt<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.options.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("option --{name}: cannot parse {v:?}")),
        }
    }

    /// Whether a bare flag was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

/// Parse a human byte size: a decimal count with an optional `k`/`m`/
/// `g`/`t` suffix (binary multiples, case-insensitive) — `512m`, `4g`,
/// `1048576`. [`ParsedArgs::opt`] goes through `FromStr`, which cannot
/// carry the suffix, so sized options parse through this instead.
pub fn parse_byte_size(s: &str) -> Result<u64, String> {
    let s = s.trim();
    let (digits, shift) = match s.as_bytes().last() {
        Some(b'k' | b'K') => (&s[..s.len() - 1], 10),
        Some(b'm' | b'M') => (&s[..s.len() - 1], 20),
        Some(b'g' | b'G') => (&s[..s.len() - 1], 30),
        Some(b't' | b'T') => (&s[..s.len() - 1], 40),
        _ => (s, 0),
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("cannot parse {s:?} as a byte size (try 512m, 4g, or plain bytes)"))?;
    n.checked_shl(shift)
        .filter(|v| v >> shift == n)
        .ok_or_else(|| format!("byte size {s:?} overflows 64 bits"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn split(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn basic_parse() {
        let p = parse(&split("gen clique --n 10 -o")).unwrap();
        assert_eq!(p.command, "gen");
        assert_eq!(p.positional, vec!["clique", "-o"]);
        assert_eq!(p.options["n"], "10");
    }

    #[test]
    fn flags_vs_options() {
        let p = parse(&split("stats a.tsv b.tsv --loops-b --name test")).unwrap();
        assert!(p.flag("loops-b"));
        assert_eq!(p.options["name"], "test");
        assert_eq!(p.positional.len(), 2);
    }

    #[test]
    fn trailing_flag() {
        let p = parse(&split("validate a b --full")).unwrap();
        assert!(p.flag("full"));
    }

    #[test]
    fn typed_options_and_defaults() {
        let p = parse(&split("gen er --n 100 --p 0.5")).unwrap();
        assert_eq!(p.opt("n", 0usize).unwrap(), 100);
        assert_eq!(p.opt("p", 0.0f64).unwrap(), 0.5);
        assert_eq!(p.opt("seed", 7u64).unwrap(), 7);
        assert!(p.opt::<usize>("p", 0).is_err());
    }

    #[test]
    fn missing_command_is_error() {
        assert!(parse(&[]).is_err());
        assert!(parse(&split("--help")).is_err());
    }

    #[test]
    fn positional_accessor() {
        let p = parse(&split("egonet a.tsv b.tsv 42")).unwrap();
        assert_eq!(p.pos(2, "vertex").unwrap(), "42");
        assert!(p.pos(3, "missing").is_err());
    }

    #[test]
    fn byte_sizes_parse_with_suffixes() {
        assert_eq!(parse_byte_size("0").unwrap(), 0);
        assert_eq!(parse_byte_size("1048576").unwrap(), 1 << 20);
        assert_eq!(parse_byte_size("512k").unwrap(), 512 << 10);
        assert_eq!(parse_byte_size("512M").unwrap(), 512 << 20);
        assert_eq!(parse_byte_size("4g").unwrap(), 4 << 30);
        assert_eq!(parse_byte_size("2T").unwrap(), 2 << 40);
        assert!(parse_byte_size("").is_err());
        assert!(parse_byte_size("m").is_err());
        assert!(parse_byte_size("12q").is_err());
        assert!(parse_byte_size("-5m").is_err());
        let err = parse_byte_size("999999999999g").unwrap_err();
        assert!(err.contains("overflow"), "{err}");
    }
}
