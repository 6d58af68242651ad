//! `cimlint` rejects a `--wear-skew` threshold that is not a finite
//! number with exit status 2, before linting anything. A NaN or
//! infinite threshold would otherwise switch the endurance pass off
//! silently, since no skew compares greater than either.

use std::process::Command;

#[test]
fn wear_skew_rejects_non_finite_and_missing_values() {
    let cases: [&[&str]; 5] = [
        &["--wear-skew", "nan"],
        &["--wear-skew", "inf"],
        &["--wear-skew", "-inf"],
        &["--deny-warnings", "--wear-skew", "NaN"],
        &["--wear-skew"],
    ];
    for argv in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_cimlint"))
            .args(argv)
            .output()
            .expect("cimlint starts");
        assert_eq!(out.status.code(), Some(2), "{argv:?}");
        assert!(out.stdout.is_empty(), "{argv:?} linted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--wear-skew needs a numeric threshold"),
            "{argv:?}: {stderr}"
        );
    }
}
