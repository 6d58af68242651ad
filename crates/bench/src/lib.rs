//! Shared plumbing for the benchmark binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! DATE'15 CIM paper (see DESIGN.md's experiment index) and writes its
//! data series as CSV under `results/`. The criterion benches under
//! `benches/` measure the simulator itself and carry the ablation
//! studies.

use std::fs;
use std::path::{Path, PathBuf};

/// Returns the `results/` directory at the workspace root, creating it
/// if needed.
///
/// # Panics
///
/// Panics if the directory cannot be created.
pub fn results_dir() -> PathBuf {
    // The binaries run from the workspace root via `cargo run`; fall
    // back to the manifest's grandparent for direct invocation.
    let dir = if Path::new("Cargo.toml").exists() {
        PathBuf::from("results")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
    };
    fs::create_dir_all(&dir).expect("create results directory");
    dir
}

/// Writes `contents` to `results/<name>` and reports the path on stdout;
/// `name` may lead with a subdirectory (`smoke/table2.csv`), created if
/// needed.
///
/// # Panics
///
/// Panics on I/O errors — benches should fail loudly.
pub fn write_csv(name: &str, contents: &str) {
    let path = results_dir().join(name);
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir).expect("create results subdirectory");
    }
    fs::write(&path, contents).expect("write results csv");
    println!("\n[written] {}", path.display());
}

/// Resolves `name` against the workspace root (where `BENCH_*.json`
/// snapshots are checked in), whether the binary runs via `cargo run`
/// from the root or directly from the target directory.
pub fn repo_root_file(name: &str) -> PathBuf {
    if Path::new("Cargo.toml").exists() {
        PathBuf::from(name)
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(name)
    }
}

/// The numeric value of `field` in a hand-written `BENCH_*.json`
/// snapshot (`"field": <number>`), or `None` when the field is absent
/// or its value does not parse as a number. The `--check` mode of every
/// snapshot binary validates its fields through this one reader.
pub fn snapshot_number(body: &str, field: &str) -> Option<f64> {
    let key = format!("\"{field}\":");
    let rest = body[body.find(&key)? + key.len()..].trim_start();
    let end = rest
        .find(|c: char| matches!(c, ',' | '}') || c.is_whitespace())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The `"field": value` pairs of a hand-written `BENCH_*.json`
/// snapshot, in file order, each value as its raw text (a trailing comma
/// dropped).
fn snapshot_fields(body: &str) -> Vec<(&str, &str)> {
    body.lines()
        .filter_map(|line| {
            let (key, value) = line.trim().strip_prefix('"')?.split_once("\":")?;
            Some((key, value.trim().trim_end_matches(',')))
        })
        .collect()
}

/// Compares a freshly regenerated snapshot against the checked-in one:
/// every field except the `host_*` wall clocks and core counts must be
/// byte-identical, and both bodies must carry the same fields.
///
/// # Errors
///
/// Names the first field (in checked-in order, then any field only the
/// fresh run has) whose raw text differs, with both values.
pub fn compare_modelled_fields(checked_in: &str, fresh: &str) -> Result<(), String> {
    fn lookup<'a>(fields: &[(&str, &'a str)], key: &str) -> &'a str {
        fields
            .iter()
            .find(|(k, _)| *k == key)
            .map_or("<absent>", |(_, v)| v)
    }
    let ours = snapshot_fields(checked_in);
    let theirs = snapshot_fields(fresh);
    let keys = ours.iter().chain(&theirs).map(|(k, _)| *k);
    for key in keys.filter(|k| !k.starts_with("host_")) {
        let (old, new) = (lookup(&ours, key), lookup(&theirs, key));
        if old != new {
            return Err(format!(
                "field '{key}' differs: checked-in {old}, fresh {new}"
            ));
        }
    }
    Ok(())
}

/// Minimal flag scanner for the bench binaries: `has("--flag")` and
/// `value("--key")`.
#[derive(Debug, Clone)]
pub struct Args {
    argv: Vec<String>,
}

impl Args {
    /// Captures the process arguments.
    pub fn capture() -> Self {
        Self {
            argv: std::env::args().skip(1).collect(),
        }
    }

    /// Builds from an explicit list (tests).
    pub fn from_list(argv: &[&str]) -> Self {
        Self {
            argv: argv.iter().map(|s| (*s).to_string()).collect(),
        }
    }

    /// True if the flag is present.
    pub fn has(&self, flag: &str) -> bool {
        self.argv.iter().any(|a| a == flag)
    }

    /// The value following `key`, if any.
    pub fn value(&self, key: &str) -> Option<&str> {
        self.argv
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.argv.get(i + 1))
            .map(String::as_str)
    }

    /// A numeric flag value: `default` when absent, exits with status 2
    /// on garbage (the `--threads` convention shared by every bench
    /// front-end — an unparseable value must never fall back silently).
    pub fn numeric(&self, key: &str, default: usize) -> usize {
        match self.value(key) {
            None => default,
            Some(raw) => raw.parse().unwrap_or_else(|_| {
                eprintln!("error: {key} expects a non-negative integer, got `{raw}`");
                std::process::exit(2);
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_flags_and_values() {
        let args = Args::from_list(&["--fast", "--n", "32"]);
        assert!(args.has("--fast"));
        assert!(!args.has("--slow"));
        assert_eq!(args.value("--n"), Some("32"));
        assert_eq!(args.value("--missing"), None);
    }

    #[test]
    fn snapshot_numbers_parse_plain_and_exponent_values_only() {
        let body = "{\n  \"schema\": \"x/1\",\n  \"cores\": 2,\n  \"energy_j\": 6.677e-8\n}\n";
        assert_eq!(snapshot_number(body, "cores"), Some(2.0));
        assert_eq!(snapshot_number(body, "energy_j"), Some(6.677e-8));
        assert_eq!(snapshot_number(body, "schema"), None);
        assert_eq!(snapshot_number(body, "missing"), None);
    }

    #[test]
    fn modelled_comparison_ignores_host_fields_and_names_the_first_difference() {
        let checked_in =
            "{\n  \"schema\": \"x/1\",\n  \"host_wall_ns\": 10,\n  \"p50_ns\": 49.2,\n  \"energy_j\": 6.677e-8\n}\n";
        let host_only = checked_in.replace("10,", "99,");
        assert_eq!(compare_modelled_fields(checked_in, &host_only), Ok(()));
        let drifted = checked_in.replace("49.2", "49.3");
        let err = compare_modelled_fields(checked_in, &drifted).expect_err("p50 drifted");
        assert!(err.contains("'p50_ns'") && err.contains("49.2") && err.contains("49.3"));
        // Same number, different text: still a difference.
        let respelled = checked_in.replace("6.677e-8", "6.6770e-8");
        assert!(compare_modelled_fields(checked_in, &respelled)
            .expect_err("respelled")
            .contains("'energy_j'"));
        let missing = checked_in.replace("  \"p50_ns\": 49.2,\n", "");
        assert!(compare_modelled_fields(checked_in, &missing)
            .expect_err("missing field")
            .contains("<absent>"));
        let extra = checked_in.replace("{\n", "{\n  \"added\": 1,\n");
        assert!(compare_modelled_fields(checked_in, &extra)
            .expect_err("extra field")
            .contains("'added'"));
    }

    #[test]
    fn results_dir_exists_after_call() {
        let dir = results_dir();
        assert!(dir.exists());
    }
}
