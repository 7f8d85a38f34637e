//! Shared `--threads` handling for the figure/table binaries.
//!
//! Every binary that runs a parallel-capable measure accepts
//! `--threads <serial|auto|N>`; the default is `auto` (use the machine),
//! which is safe for figure reproduction because the engine in
//! [`ugraph::par`] returns bit-identical results for every setting.

use ugraph::par::Parallelism;

use crate::cli::flag_value;

/// Parse `--threads <serial|auto|N>` from an argument list, defaulting to
/// [`Parallelism::auto`].
///
/// Accepts both `--threads 4` and `--threads=4` (`0` and `1` mean serial).
/// An unrecognized value falls back to the default with a loud stderr
/// warning rather than aborting a long harness run, and the binaries print
/// the effective setting — a typo cannot silently change what a recorded
/// timing measured without leaving both lines in the log.
pub fn parallelism_from(args: &[String]) -> Parallelism {
    let Some(value) = flag_value(args, "--threads") else {
        return Parallelism::auto();
    };
    Parallelism::parse(&value).unwrap_or_else(|e| {
        eprintln!("[warn] {e}; using auto");
        Parallelism::auto()
    })
}

/// [`parallelism_from`] over [`std::env::args`] — what the binaries call.
pub fn parallelism_from_args() -> Parallelism {
    let args: Vec<String> = std::env::args().collect();
    parallelism_from(&args)
}

/// Parse `--parallelism <a,b,c>` — a comma-separated list of
/// [`Parallelism::parse`] settings (e.g. `serial,2,4x128`) — falling back to
/// `default` when the flag is absent.
///
/// Unlike [`parallelism_from`], a malformed entry is a hard `Err` carrying
/// the offending token: the scale ladder records baselines, and a typo'd
/// setting must abort the run rather than silently measure something else.
pub fn parallelism_list_from(args: &[String], default: &str) -> Result<Vec<Parallelism>, String> {
    let value = flag_value(args, "--parallelism").unwrap_or_else(|| default.to_string());
    let settings: Vec<Parallelism> = value
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| Parallelism::parse(s).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    if settings.is_empty() {
        return Err(value);
    }
    Ok(settings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_both_flag_forms() {
        assert_eq!(parallelism_from(&argv(&["bin", "--threads", "4"])), Parallelism::Threads(4));
        assert_eq!(parallelism_from(&argv(&["bin", "--threads=2"])), Parallelism::Threads(2));
        assert_eq!(parallelism_from(&argv(&["bin", "--threads", "serial"])), Parallelism::Serial);
        assert_eq!(parallelism_from(&argv(&["bin", "--threads=1"])), Parallelism::Serial);
        assert_eq!(parallelism_from(&argv(&["bin", "--threads", "0"])), Parallelism::Serial);
    }

    #[test]
    fn parses_parallelism_lists_strictly() {
        let list =
            parallelism_list_from(&argv(&["bin", "--parallelism", "serial,2,4x128"]), "serial")
                .unwrap();
        assert_eq!(
            list,
            vec![
                Parallelism::Serial,
                Parallelism::Threads(2),
                Parallelism::Wide { threads: 4, width: 128 }
            ]
        );
        // Absent flag: the default string is parsed instead.
        assert_eq!(
            parallelism_list_from(&argv(&["bin"]), "serial,2").unwrap(),
            vec![Parallelism::Serial, Parallelism::Threads(2)]
        );
        // A typo is a hard error carrying the typed parse message (which
        // names the bad token), not a fallback.
        let err = parallelism_list_from(&argv(&["bin", "--parallelism=serial,bogus"]), "serial")
            .unwrap_err();
        assert!(err.contains("\"bogus\""), "error should name the bad token: {err}");
        assert!(err.contains("expected"), "error should list accepted forms: {err}");
        assert!(parallelism_list_from(&argv(&["bin", "--parallelism", ","]), "serial").is_err());
    }

    #[test]
    fn defaults_to_auto_when_absent_or_malformed() {
        let auto = Parallelism::auto();
        assert_eq!(parallelism_from(&argv(&["bin"])), auto);
        assert_eq!(parallelism_from(&argv(&["bin", "--large"])), auto);
        assert_eq!(parallelism_from(&argv(&["bin", "--threads", "bogus"])), auto);
        assert_eq!(parallelism_from(&argv(&["bin", "--threads"])), auto);
    }
}
