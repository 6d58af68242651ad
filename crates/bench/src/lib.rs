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

/// One value of a [`Snapshot`] field.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A JSON string.
    Text(String),
    /// A non-negative integer, written as one.
    Int(u64),
    /// A finite `f64`, written in shortest round-trip form.
    Real(f64),
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Self::Text(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Self::Text(v)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Self::Int(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Self::Int(v as u64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Self::Real(v)
    }
}

/// A `BENCH_*.json` snapshot: an ordered list of `key → value` fields,
/// each tagged where it is produced as **modelled** (host-independent,
/// must reproduce byte for byte) or **host** (a wall clock, a measured
/// ratio or a core count of the machine that ran it).
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// `(key, host?, rendered JSON token)` in output order.
    fields: Vec<(String, bool, String)>,
}

impl Snapshot {
    /// Appends a modelled field.
    ///
    /// # Panics
    ///
    /// Panics on a key that is not `[a-z0-9_]+` or a non-finite value.
    pub fn modelled(&mut self, key: &str, value: impl Into<Value>) -> &mut Self {
        self.push(key, false, value.into())
    }

    /// Appends a host field (see [`Snapshot::modelled`] for panics).
    pub fn host(&mut self, key: &str, value: impl Into<Value>) -> &mut Self {
        self.push(key, true, value.into())
    }

    fn push(&mut self, key: &str, host: bool, value: Value) -> &mut Self {
        assert!(
            !key.is_empty()
                && key
                    .bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_'),
            "snapshot key `{key}` is not [a-z0-9_]+"
        );
        let token = match value {
            // Rust's string escapes are JSON's for `"`, `\`, `\n`, `\r`
            // and `\t`.
            Value::Text(text) => format!("{text:?}"),
            Value::Int(v) => v.to_string(),
            Value::Real(v) => {
                assert!(v.is_finite(), "snapshot field `{key}` is not finite: {v}");
                format!("{v:e}")
            }
        };
        self.fields.push((key.to_string(), host, token));
        self
    }

    /// The snapshot as a flat JSON object, one field per line.
    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(key, _, token)| format!("  \"{key}\": {token}"))
            .collect();
        format!("{{\n{}\n}}\n", body.join(",\n"))
    }

    /// Reads a rendered snapshot back as `(key, raw JSON token)` pairs
    /// in file order; a string token keeps its quotes and escapes.
    ///
    /// # Errors
    ///
    /// Anything but a flat JSON object of unique string keys whose
    /// values are strings or finite numbers, with the byte offset.
    pub fn parse(body: &str) -> Result<Vec<(String, String)>, String> {
        let err = |rest: &str, what: &str| {
            let at = body.len() - rest.len();
            format!("malformed snapshot at byte {at}: {what}")
        };
        let start = body.trim_start();
        let mut rest = start
            .strip_prefix('{')
            .ok_or_else(|| err(start, "expected '{'"))?;
        let mut fields: Vec<(String, String)> = Vec::new();
        rest = rest.trim_start();
        if let Some(tail) = rest.strip_prefix('}') {
            rest = tail;
        } else {
            loop {
                let (key, tail) = string_token(rest).ok_or_else(|| err(rest, "expected a key"))?;
                let key = &key[1..key.len() - 1];
                let tail = tail.trim_start();
                let tail = tail
                    .strip_prefix(':')
                    .ok_or_else(|| err(tail, "expected ':'"))?;
                let tail = tail.trim_start();
                let (value, tail) = string_token(tail)
                    .or_else(|| number_token(tail))
                    .ok_or_else(|| err(tail, "expected a string or a finite number"))?;
                if fields.iter().any(|(k, _)| k == key) {
                    return Err(err(rest, &format!("duplicate field '{key}'")));
                }
                fields.push((key.to_string(), value.to_string()));
                rest = tail.trim_start();
                if let Some(tail) = rest.strip_prefix('}') {
                    rest = tail;
                    break;
                }
                rest = rest
                    .strip_prefix(',')
                    .ok_or_else(|| err(rest, "expected ',' or '}'"))?
                    .trim_start();
            }
        }
        if rest.trim_start().is_empty() {
            Ok(fields)
        } else {
            Err(err(rest, "text after the closing brace"))
        }
    }

    /// Compares this fresh snapshot against a checked-in body: the same
    /// keys in the same order, every modelled value byte-identical, and
    /// every host value present and numeric.
    ///
    /// # Errors
    ///
    /// Names the first field, in order, that breaks one of those rules.
    pub fn check(&self, checked_in: &str) -> Result<(), String> {
        let ours = Self::parse(checked_in)?;
        for (i, (key, host, fresh)) in self.fields.iter().enumerate() {
            let Some((old_key, old)) = ours.get(i) else {
                return Err(format!(
                    "field '{key}' is missing from the checked-in snapshot"
                ));
            };
            if old_key != key {
                return Err(format!(
                    "field #{i} is '{old_key}' in the checked-in snapshot but '{key}' in a \
                     fresh run"
                ));
            }
            if *host && old.starts_with('"') {
                return Err(format!("host field '{key}' is not numeric: {old}"));
            }
            if !*host && old != fresh {
                return Err(format!(
                    "field '{key}' differs: checked-in {old}, fresh {fresh}"
                ));
            }
        }
        match ours.get(self.fields.len()) {
            Some((extra, _)) => Err(format!(
                "checked-in field '{extra}' is not produced by a fresh run"
            )),
            None => Ok(()),
        }
    }

    /// Ends a snapshot tool's run. Without `--check` it writes the
    /// snapshot to `path`. With `--check` it writes nothing: it
    /// compares `self` against the file (see [`Snapshot::check`]) and
    /// exits 1 naming the first field that differs.
    pub fn finish(&self, path: &Path, args: &Args) {
        if !args.has("--check") {
            fs::write(path, self.render())
                .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
            println!("\n[written] {}", path.display());
            return;
        }
        let verdict = fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))
            .and_then(|body| self.check(&body));
        if let Err(e) = verdict {
            eprintln!("[fail] {}: {e}", path.display());
            std::process::exit(1);
        }
        let host = self.fields.iter().filter(|(_, host, _)| *host).count();
        println!(
            "[ok] {}: a fresh run reproduces all {} modelled fields byte for byte ({host} host \
             fields numeric)",
            path.display(),
            self.fields.len() - host
        );
    }
}

/// Splits a leading string token, quotes included, off `s`. A
/// backslash escapes the next character, and a raw control character
/// ends the scan unmatched.
fn string_token(s: &str) -> Option<(&str, &str)> {
    let mut chars = s.char_indices();
    if chars.next()?.1 != '"' {
        return None;
    }
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Some(s.split_at(i + 1)),
            '\\' => {
                chars.next().filter(|&(_, escaped)| escaped >= ' ')?;
            }
            c if c < ' ' => return None,
            _ => {}
        }
    }
    None
}

/// Splits a leading finite number token off `s`.
fn number_token(s: &str) -> Option<(&str, &str)> {
    let end = s
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(s.len());
    let (token, rest) = s.split_at(end);
    token.parse::<f64>().ok().filter(|v| v.is_finite())?;
    Some((token, rest))
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

    /// Captures the process arguments strictly (see [`Args::strict`]),
    /// exiting with status 2 and the accepted flags on an error.
    pub fn capture_strict(switches: &[&str], values: &[&str]) -> Self {
        Self::strict(std::env::args().skip(1), switches, values).unwrap_or_else(|e| {
            let accepted: Vec<String> = switches
                .iter()
                .map(|s| (*s).to_string())
                .chain(values.iter().map(|v| format!("{v} <value>")))
                .collect();
            eprintln!("error: {e} (accepted: {})", accepted.join(", "));
            std::process::exit(2);
        })
    }

    /// Builds from `argv`, accepting only the given `switches` and
    /// `values` flags, each value flag followed by a value that is not
    /// itself a `--flag`.
    ///
    /// # Errors
    ///
    /// Names an unknown argument or a value flag without its value.
    pub fn strict<S: Into<String>>(
        argv: impl IntoIterator<Item = S>,
        switches: &[&str],
        values: &[&str],
    ) -> Result<Self, String> {
        let argv: Vec<String> = argv.into_iter().map(Into::into).collect();
        let mut rest = argv.iter().map(String::as_str);
        while let Some(arg) = rest.next() {
            if switches.contains(&arg) {
                continue;
            }
            if !values.contains(&arg) {
                return Err(format!("unexpected argument `{arg}`"));
            }
            if rest.next().is_none_or(|v| v.starts_with("--")) {
                return Err(format!("{arg} expects a value"));
            }
        }
        Ok(Self { argv })
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
    use proptest::prelude::*;

    #[test]
    fn args_parse_flags_and_values() {
        let args = Args::from_list(&["--fast", "--n", "32"]);
        assert!(args.has("--fast"));
        assert!(!args.has("--slow"));
        assert_eq!(args.value("--n"), Some("32"));
        assert_eq!(args.value("--missing"), None);
    }

    #[test]
    fn strict_args_reject_unknown_flags_and_missing_values() {
        let strict =
            |argv: &[&str]| Args::strict(argv.iter().copied(), &["--check"], &["--threads"]);
        let args = strict(&["--threads", "4", "--check"]).expect("valid flags");
        assert_eq!(args.numeric("--threads", 0), 4);
        assert!(args.has("--check"));
        assert!(strict(&[]).is_ok());
        let err = strict(&["--chek"]).expect_err("mistyped switch");
        assert!(err.contains("`--chek`"), "{err}");
        let err = strict(&["--threads"]).expect_err("trailing value flag");
        assert!(err.contains("--threads expects a value"), "{err}");
        let err = strict(&["--threads", "--check"]).expect_err("flag as a value");
        assert!(err.contains("--threads expects a value"), "{err}");
    }

    /// A snapshot of the shape every tool writes: a schema, a host wall
    /// clock, and two modelled numbers.
    fn sample() -> Snapshot {
        let mut s = Snapshot::default();
        s.modelled("schema", "x/1")
            .host("host_wall_ns", 10u64)
            .modelled("p50_ns", 49.2)
            .modelled("energy_j", 6.677e-8);
        s
    }

    #[test]
    fn render_writes_flat_json_in_shortest_round_trip_form() {
        let mut s = sample();
        s.modelled("label", "a \"b\" \\ \n");
        let body = s.render();
        assert_eq!(
            body,
            "{\n  \"schema\": \"x/1\",\n  \"host_wall_ns\": 10,\n  \"p50_ns\": 4.92e1,\n  \
             \"energy_j\": 6.677e-8,\n  \"label\": \"a \\\"b\\\" \\\\ \\n\"\n}\n"
        );
        let parsed = Snapshot::parse(&body).expect("rendered body parses");
        assert_eq!(parsed[1], ("host_wall_ns".to_string(), "10".to_string()));
        assert_eq!(parsed[4].1, "\"a \\\"b\\\" \\\\ \\n\"");
        assert_eq!(s.check(&body), Ok(()));
        assert_eq!(
            Snapshot::default().check(&Snapshot::default().render()),
            Ok(())
        );
    }

    #[test]
    fn check_names_the_first_differing_field() {
        let fresh = sample();
        let checked_in = fresh.render();
        let check = |body: String| fresh.check(&body);
        // A host value may change; it only has to stay numeric.
        assert_eq!(check(checked_in.replace(": 10,", ": 99,")), Ok(()));
        assert_eq!(check(checked_in.replace(": 10,", ": 9.9e1,")), Ok(()));
        let err = check(checked_in.replace(": 10,", ": \"10\",")).expect_err("string host");
        assert!(
            err.contains("host field 'host_wall_ns' is not numeric"),
            "{err}"
        );
        // A modelled value must match byte for byte: a drift, a one-ulp
        // change, and the same number spelled differently all fail.
        let err = check(checked_in.replace("4.92e1", "4.93e1")).expect_err("p50 drifted");
        assert!(err.contains("'p50_ns'") && err.contains("4.93e1") && err.contains("4.92e1"));
        let ulp = f64::from_bits(6.677e-8f64.to_bits() + 1);
        let err = check(checked_in.replace("6.677e-8", &format!("{ulp:e}"))).expect_err("ulp");
        assert!(err.contains("'energy_j'"), "{err}");
        let err = check(checked_in.replace("6.677e-8", "6.6770e-8")).expect_err("respelled");
        assert!(err.contains("'energy_j'"), "{err}");
        // Key set and order.
        let reordered = checked_in.replace(
            "  \"p50_ns\": 4.92e1,\n  \"energy_j\": 6.677e-8\n",
            "  \"energy_j\": 6.677e-8,\n  \"p50_ns\": 4.92e1\n",
        );
        let err = check(reordered).expect_err("reordered");
        assert!(
            err.contains("field #2 is 'energy_j'") && err.contains("'p50_ns'"),
            "{err}"
        );
        let err = check(checked_in.replace("  \"p50_ns\": 4.92e1,\n", "")).expect_err("missing");
        assert!(
            err.contains("'energy_j'") && err.contains("'p50_ns'"),
            "{err}"
        );
        let err = check(checked_in.replace(",\n  \"energy_j\": 6.677e-8", "")).expect_err("tail");
        assert!(err.contains("'energy_j' is missing"), "{err}");
        let err = check(checked_in.replace("{\n", "{\n  \"added\": 1,\n")).expect_err("extra");
        assert!(err.contains("'added'"), "{err}");
        let err = check(checked_in.replace("\n}", ",\n  \"added\": 1\n}")).expect_err("extra");
        assert!(err.contains("checked-in field 'added'"), "{err}");
        assert!(check(checked_in.replace('}', "")).is_err());
    }

    /// A rendered snapshot of `values.len()` numeric fields, the first
    /// string-valued.
    fn body_of(values: &[u64]) -> String {
        let mut s = Snapshot::default();
        s.modelled("schema", "cim-bench-x/1");
        for (i, &v) in values.iter().enumerate() {
            s.modelled(&format!("f{i}"), v);
        }
        s.render()
    }

    proptest! {
        #[test]
        fn finite_f64_round_trip_through_render_and_parse(
            bits in prop_oneof![
                any::<u64>(),
                // Zero exponent: subnormals and signed zeros.
                any::<u64>().prop_map(|b| b & 0x800F_FFFF_FFFF_FFFF),
            ]
            .prop_filter("finite", |b| f64::from_bits(*b).is_finite())
        ) {
            let mut s = Snapshot::default();
            s.modelled("v", f64::from_bits(bits));
            let parsed = Snapshot::parse(&s.render()).expect("rendered body parses");
            let back: f64 = parsed[0].1.parse().expect("numeric token");
            prop_assert_eq!(back.to_bits(), bits);
        }

        #[test]
        fn parse_rejects_garbage_without_panicking(
            values in prop::collection::vec(any::<u64>(), 0..6),
            kind in 0usize..5,
            pick in any::<usize>(),
            noise in prop::collection::vec(any::<u8>(), 0..40),
        ) {
            let body = body_of(&values);
            let at = |pattern: char| -> Vec<usize> {
                body.match_indices(pattern).map(|(i, _)| i).collect()
            };
            let remove = |positions: Vec<usize>| {
                let mut garbage = body.clone();
                garbage.remove(positions[pick % positions.len()]);
                garbage
            };
            let garbage = match kind {
                // Truncated anywhere before the closing brace is kept.
                0 => body[..pick % body.rfind('}').unwrap_or(0).max(1)].to_string(),
                1 => remove(at('"')),
                2 => remove(at(':')),
                // A stray comma: leading, trailing, or doubled.
                3 => {
                    let mut spots = vec![1, body.rfind('}').unwrap_or(0)];
                    spots.extend(at(','));
                    let mut garbage = body.clone();
                    garbage.insert(spots[pick % spots.len()], ',');
                    garbage
                }
                _ => {
                    let bad = ["abc", "1.2.3", "--1", "0x10", "inf", "NaN", "1e", "", "1e999", "+"];
                    body.replacen("\"cim-bench-x/1\"", bad[pick % bad.len()], 1)
                }
            };
            prop_assert!(Snapshot::parse(&garbage).is_err(), "accepted {:?}", garbage);
            // Arbitrary bytes must never panic, whatever the verdict.
            let _ = Snapshot::parse(&String::from_utf8_lossy(&noise));
            let _ = Snapshot::parse(&format!("{{\"k\": {}", String::from_utf8_lossy(&noise)));
        }
    }

    #[test]
    fn results_dir_exists_after_call() {
        let dir = results_dir();
        assert!(dir.exists());
    }
}
