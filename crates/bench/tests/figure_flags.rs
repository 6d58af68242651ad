//! The five figure binaries, `table2` and the four `bench_*` snapshot
//! tools parse their flags strictly: a mistyped or unknown flag, a value
//! flag without its value, or a value that does not parse exits with
//! status 2 before anything runs, so nothing is printed and no CSV or
//! `BENCH_*.json` is written.

use std::process::Command;

#[test]
fn figure_binaries_reject_unknown_flags_before_running() {
    let cases: [(&str, &[&str]); 13] = [
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
    ];
    for (binary, argv) in cases {
        let out = Command::new(binary)
            .args(argv)
            .output()
            .expect("binary starts");
        assert_eq!(out.status.code(), Some(2), "{binary} {argv:?}");
        assert!(out.stdout.is_empty(), "{binary} {argv:?} ran");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("error: "), "{binary} {argv:?}: {stderr}");
    }
}
