//! Tiny dependency-free flag parsing (clap is outside the allowed
//! offline dependency set).

/// Returns the value following `flag`, if present.
pub(crate) fn value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Parses the value following `flag`, falling back to `default` when
/// the flag is absent; a present-yet-unparseable value errors instead
/// of silently keeping the default.
pub(crate) fn parse_strict<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    default: T,
) -> Result<T, String> {
    match value(args, flag) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad {flag} `{v}`")),
    }
}

/// Rejects any `--flag` outside a subcommand's grammar, a value flag
/// with nothing after it, and a value flag given twice: a misspelt
/// `--repz 50` or a second `--gen` would otherwise run with the default
/// or one of the two values and write an artifact the user believes
/// came from other parameters. A flag of a removed feature is unknown
/// like any other.
pub(crate) fn check_flags(
    args: &[String],
    value_flags: &[&str],
    switches: &[&str],
) -> Result<(), String> {
    let mut skip = false;
    let mut seen: Vec<&str> = Vec::new();
    for a in args {
        if std::mem::take(&mut skip) || !a.starts_with("--") {
            continue;
        }
        if value_flags.contains(&a.as_str()) {
            if seen.contains(&a.as_str()) {
                return Err(format!("`{a}` given twice"));
            }
            seen.push(a);
            skip = true;
        } else if !switches.contains(&a.as_str()) {
            return Err(format!("unknown flag `{a}` (try `ftcg help`)"));
        }
    }
    match args.last() {
        Some(last) if skip => Err(format!("`{last}` needs a value")),
        _ => Ok(()),
    }
}

/// Parses a fault rate: plain float (`0.0625`) or a fraction (`1/16`).
/// One grammar for the whole workspace: delegates to the engine's
/// spec parser.
pub(crate) fn parse_alpha(s: &str) -> Option<f64> {
    ftcg_engine::spec::parse_alpha(s).ok()
}

/// Collects positional (non-flag) arguments: everything that is not a
/// `--flag` and not the value of one of the `value_flags`. Used by
/// `ftcg merge`, whose journal paths are positional.
pub(crate) fn positionals(args: &[String], value_flags: &[&str]) -> Vec<String> {
    let mut out = Vec::new();
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with("--") {
            skip = value_flags.iter().any(|f| f == a);
            continue;
        }
        out.push(a.clone());
    }
    out
}

/// Parses `--matrix FILE` or `--gen SPEC` into the engine's
/// [`MatrixSource`](ftcg_engine::MatrixSource) — one source grammar for
/// the whole workspace (`ftcg solve`, `ftcg stats`, and `ftcg
/// campaign` all accept the same generators, including `paper:` via
/// the sim resolver).
pub(crate) fn matrix_source(args: &[String]) -> Result<ftcg_engine::MatrixSource, String> {
    if let Some(f) = value(args, "--matrix") {
        return Ok(ftcg_engine::MatrixSource::File(f.to_string()));
    }
    let Some(g) = value(args, "--gen") else {
        return Err("need --matrix FILE or --gen SPEC (try `ftcg help`)".into());
    };
    ftcg_engine::MatrixSource::parse(g).map_err(|e| format!("--gen: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn value_lookup() {
        let a = sv(&["--scheme", "correction", "--seed", "7"]);
        assert_eq!(value(&a, "--scheme"), Some("correction"));
        assert_eq!(value(&a, "--seed"), Some("7"));
        assert_eq!(value(&a, "--alpha"), None);
    }

    #[test]
    fn parse_strict_defaults_and_rejects() {
        let a = sv(&["--reps", "12"]);
        assert_eq!(parse_strict(&a, "--reps", 50usize), Ok(12));
        assert_eq!(parse_strict(&a, "--scale", 16usize), Ok(16));
        let e = parse_strict(&sv(&["--reps", "xx"]), "--reps", 5usize).unwrap_err();
        assert!(e.contains("--reps") && e.contains("xx"), "{e}");
    }

    #[test]
    fn value_flag_without_value_is_rejected() {
        let e = check_flags(
            &sv(&["--gen", "poisson2d:4", "--seed"]),
            &["--gen", "--seed"],
            &[],
        )
        .unwrap_err();
        assert!(e.contains("`--seed` needs a value"), "{e}");
    }

    #[test]
    fn value_flag_given_twice_is_rejected() {
        // `value` takes the first occurrence; silently running with it
        // (or with the last) is what this guards against.
        let args = sv(&["--gen", "poisson2d:4", "--gen", "poisson2d:40"]);
        let e = check_flags(&args, &["--gen", "--seed"], &[]).unwrap_err();
        assert_eq!(e, "`--gen` given twice");
        // A repeated value is not a repeated flag.
        let args = sv(&["--name", "--gen", "--gen", "poisson2d:4"]);
        assert!(check_flags(&args, &["--gen", "--name"], &[]).is_ok());
    }

    #[test]
    fn alpha_fraction_and_float() {
        assert_eq!(parse_alpha("1/16"), Some(0.0625));
        assert_eq!(parse_alpha("0.25"), Some(0.25));
        assert_eq!(parse_alpha("3 / 4"), Some(0.75));
        assert_eq!(parse_alpha("1/0"), None);
        assert_eq!(parse_alpha("abc"), None);
    }

    #[test]
    fn generator_specs() {
        use ftcg_engine::MatrixSource;
        assert!(matches!(
            matrix_source(&sv(&["--gen", "poisson2d:30"])),
            Ok(MatrixSource::Poisson2d(30))
        ));
        assert!(matches!(
            matrix_source(&sv(&["--gen", "random:500:0.01:9"])),
            Ok(MatrixSource::Random(500, _, 9))
        ));
        // Unknown heads become Named sources for the campaign resolver
        // (paper: resolves via ftcg-sim, bogus: errors at resolve time).
        assert!(matches!(
            matrix_source(&sv(&["--gen", "paper:341:32"])),
            Ok(MatrixSource::Named(_))
        ));
        assert!(matrix_source(&sv(&[])).is_err());
    }

    #[test]
    fn positionals_skip_flags_and_their_values() {
        let a = sv(&[
            "--spec",
            "s.campaign",
            "a.jsonl",
            "--quiet",
            "b.jsonl",
            "--out",
            "m.jsonl",
        ]);
        assert_eq!(
            positionals(&a, &["--spec", "--out"]),
            vec!["a.jsonl".to_string(), "b.jsonl".to_string()]
        );
        assert!(positionals(&sv(&["--spec", "x"]), &["--spec"]).is_empty());
    }

    #[test]
    fn file_source() {
        assert!(matches!(
            matrix_source(&sv(&["--matrix", "m.mtx"])),
            Ok(ftcg_engine::MatrixSource::File(_))
        ));
    }
}
