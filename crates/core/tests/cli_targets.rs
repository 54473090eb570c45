//! The `smartfeat` binary rejects targets SMARTFEAT cannot score before
//! the pipeline starts: a CSV with no data rows, and a target column
//! without exactly two distinct non-null values. Each case exits 1 with a
//! message naming the target, prints no run summary and writes no
//! metrics report, so no FM call was billed. `--help`/`-h` print the
//! option list and exit 0; a bad argument exits 2 and points at `--help`.

use std::path::PathBuf;
use std::process::Command;

fn temp(case: &str, name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "smartfeat_cli_targets_{}_{case}_{name}",
        std::process::id()
    ))
}

/// Run the binary on `csv_text` with target `label` and assert it refuses
/// before the pipeline runs; returns stderr.
fn rejected(case: &str, csv_text: &str) -> String {
    let csv = temp(case, "input.csv");
    let metrics = temp(case, "metrics.json");
    std::fs::write(&csv, csv_text).expect("write csv");
    let _ = std::fs::remove_file(&metrics);
    let out = Command::new(env!("CARGO_BIN_EXE_smartfeat"))
        .arg("--csv")
        .arg(&csv)
        .args(["--target", "label", "--metrics-out"])
        .arg(&metrics)
        .output()
        .expect("spawn smartfeat");
    let _ = std::fs::remove_file(&csv);
    let wrote_metrics = metrics.exists();
    let _ = std::fs::remove_file(&metrics);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "{case}: {stderr}");
    assert!(stderr.contains("\"label\""), "{case}: {stderr}");
    assert!(out.stdout.is_empty(), "{case}: the pipeline ran");
    assert!(
        !wrote_metrics,
        "{case}: the pipeline wrote a metrics report"
    );
    stderr
}

#[test]
fn header_only_csv_is_rejected() {
    let err = rejected("empty", "age,city,label\n");
    assert!(err.contains("no data rows"), "{err}");
}

#[test]
fn single_class_target_is_rejected() {
    let err = rejected("single", "age,city,label\n31,SF,1\n45,LA,1\n52,SF,1\n");
    assert!(err.contains("1 distinct non-null value(s)"), "{err}");
}

#[test]
fn multiclass_target_is_rejected() {
    let err = rejected(
        "multi",
        "age,city,label\n31,SF,cat\n45,LA,dog\n52,SF,bird\n27,LA,cat\n",
    );
    assert!(err.contains("3 distinct non-null value(s)"), "{err}");
}

#[test]
fn help_prints_the_option_list_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let out = Command::new(env!("CARGO_BIN_EXE_smartfeat"))
            .arg(flag)
            .output()
            .expect("spawn smartfeat");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{flag}: {stdout}");
        assert!(
            stdout.starts_with("usage: smartfeat --csv"),
            "{flag}: {stdout}"
        );
        for option in ["--target NAME", "--cascade", "--metrics-out PATH"] {
            assert!(stdout.contains(option), "{flag}: missing {option}");
        }
        assert!(out.stderr.is_empty(), "{flag}");
    }
}

#[test]
fn unknown_argument_exits_two_and_points_at_help() {
    let out = Command::new(env!("CARGO_BIN_EXE_smartfeat"))
        .arg("--no-such-flag")
        .output()
        .expect("spawn smartfeat");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("unknown argument --no-such-flag"),
        "{stderr}"
    );
    assert!(stderr.contains("smartfeat --help"), "{stderr}");
    assert!(out.stdout.is_empty());
}
