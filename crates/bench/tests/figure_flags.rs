//! The five figure binaries, `table2` and the four `bench_*` snapshot
//! tools parse their flags strictly: a mistyped or unknown flag, a value
//! flag without its value, or a value that does not parse exits with
//! status 2 before anything runs, so nothing is printed and no CSV or
//! `BENCH_*.json` is written. A flag that selects a different run, such
//! as `table2 --ablate-comparator`, does not skip the check. A valid
//! `table2 --ablate-overhead` run, in the same kind of scratch root,
//! writes the checked-in Ablation A5 CSV byte for byte.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

/// A per-test scratch root. Binaries run in it, or in directories under
/// it, that hold only a `Cargo.toml`, which the tools take for the
/// workspace root: any CSV or snapshot they write lands there.
fn scratch_root(test: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cim-figure-flags-{test}-{}", std::process::id()))
}

#[test]
fn figure_binaries_reject_unknown_flags_before_running() {
    let cases: [(&str, &[&str]); 15] = [
        (env!("CARGO_BIN_EXE_fig1_workingset"), &["--smoke"]),
        (env!("CARGO_BIN_EXE_fig2_machines"), &["--check"]),
        (env!("CARGO_BIN_EXE_fig3_sneak"), &["--bias-swep"]),
        (env!("CARGO_BIN_EXE_fig3_sneak"), &["--threads"]),
        (
            env!("CARGO_BIN_EXE_fig3_sneak"),
            &["--threads", "--bias-sweep"],
        ),
        (env!("CARGO_BIN_EXE_fig4_iv"), &["-v"]),
        (env!("CARGO_BIN_EXE_fig5_imp"), &["--threads", "2"]),
        (env!("CARGO_BIN_EXE_bench_logic"), &["--chek"]),
        (env!("CARGO_BIN_EXE_bench_serve"), &["--threads"]),
        (
            env!("CARGO_BIN_EXE_bench_dispatch"),
            &["--threads", "--check"],
        ),
        (env!("CARGO_BIN_EXE_bench_solver"), &["-v"]),
        (env!("CARGO_BIN_EXE_table2"), &["--hit-ratio", "bogus"]),
        (env!("CARGO_BIN_EXE_table2"), &["--threads", "x"]),
        (
            env!("CARGO_BIN_EXE_table2"),
            &["--ablate-comparator", "--threads", "x"],
        ),
        (
            env!("CARGO_BIN_EXE_table2"),
            &["--ablate-overhead", "--hit-ratio", "bogus"],
        ),
    ];
    let root = scratch_root("flags");
    for (case, (binary, argv)) in cases.into_iter().enumerate() {
        let dir = root.join(case.to_string());
        fs::create_dir_all(&dir).expect("create scratch directory");
        fs::write(dir.join("Cargo.toml"), "").expect("write root marker");
        let out = Command::new(binary)
            .args(argv)
            .current_dir(&dir)
            .output()
            .expect("binary starts");
        assert_eq!(out.status.code(), Some(2), "{binary} {argv:?}");
        assert!(out.stdout.is_empty(), "{binary} {argv:?} ran");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("error: "), "{binary} {argv:?}: {stderr}");
        let written: Vec<_> = fs::read_dir(&dir)
            .expect("list scratch directory")
            .map(|entry| entry.expect("directory entry").file_name())
            .filter(|name| name != "Cargo.toml")
            .collect();
        assert!(written.is_empty(), "{binary} {argv:?} wrote {written:?}");
    }
    fs::remove_dir_all(&root).expect("remove scratch directory");
}

/// Ablation A5 writes exactly the checked-in `results/ablation_overhead.csv`.
#[test]
fn ablate_overhead_writes_the_checked_in_csv() {
    let root = scratch_root("ablate-overhead");
    fs::create_dir_all(&root).expect("create scratch directory");
    fs::write(root.join("Cargo.toml"), "").expect("write root marker");
    let out = Command::new(env!("CARGO_BIN_EXE_table2"))
        .arg("--ablate-overhead")
        .current_dir(&root)
        .output()
        .expect("table2 starts");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let written = fs::read(root.join("results/ablation_overhead.csv")).expect("CSV written");
    let checked_in = fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/ablation_overhead.csv"
    ))
    .expect("checked-in CSV");
    assert!(
        written == checked_in,
        "table2 --ablate-overhead wrote:\n{}",
        String::from_utf8_lossy(&written)
    );
    fs::remove_dir_all(&root).expect("remove scratch directory");
}
