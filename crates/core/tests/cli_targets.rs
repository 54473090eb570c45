//! The `smartfeat` binary rejects targets SMARTFEAT cannot score before
//! the pipeline starts: a CSV with no data rows, and a target column
//! without exactly two distinct non-null values. Each case exits 1 with a
//! message naming the target, prints no run summary and writes no
//! metrics report, so no FM call was billed. `--help`/`-h` print the
//! option list and exit 0; a bad argument, or flags that make an invalid
//! configuration, exit 2 and point at `--help` before any file is read.
//! An `--out`, `--metrics-out` or `--trace-out` path that cannot be
//! written exits 1 naming it before the run starts. A run's output does not depend on `SMARTFEAT_THREADS`.

use std::path::{Path, PathBuf};
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

#[test]
fn invalid_configuration_exits_two_before_reading_the_csv() {
    // The CSV path does not exist: a run that read it would exit 1 with
    // "error reading", so exit 2 shows the configuration was checked first.
    let missing = temp("invalid_config", "missing.csv");
    let _ = std::fs::remove_file(&missing);
    for (flags, message) in [
        (
            &["--backend", "gpt-4", "--cascade"][..],
            "--backend and --cascade are mutually exclusive",
        ),
        (&["--budget", "0"][..], "--budget must be positive"),
        (&["--beam-width", "0"][..], "--beam-width must be positive"),
        (&["--beam-depth", "0"][..], "--beam-depth must be positive"),
        (
            &["--generations", "0"][..],
            "--generations must be positive",
        ),
        (
            &["--population", "1"][..],
            "--population must be at least 2",
        ),
        (
            &["--react-turns", "0"][..],
            "--react-turns must be positive",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_smartfeat"))
            .arg("--csv")
            .arg(&missing)
            .args(["--target", "label"])
            .args(flags)
            .output()
            .expect("spawn smartfeat");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flags:?}: {stderr}");
        assert!(stderr.contains(message), "{flags:?}: {stderr}");
        assert!(
            stderr.contains("usage: smartfeat --csv"),
            "{flags:?}: {stderr}"
        );
        assert!(stderr.contains("smartfeat --help"), "{flags:?}: {stderr}");
        assert!(!stderr.contains("error reading"), "{flags:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{flags:?}");
    }
}

#[test]
fn removed_threads_flag_is_an_unknown_argument() {
    let out = Command::new(env!("CARGO_BIN_EXE_smartfeat"))
        .args(["--threads", "4"])
        .output()
        .expect("spawn smartfeat");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown argument --threads"), "{stderr}");
    assert!(out.stdout.is_empty());
}

/// A small CSV with a binary target: numeric, categorical and boolean-ish
/// columns, so several operator families have something to build on.
fn sample_csv() -> String {
    let mut text = String::from("age,income,city,visits,label\n");
    for i in 0..60u32 {
        let age = 20 + (i * 7) % 45;
        let income = 18_000 + (i * 3_517) % 70_000;
        let city = ["SF", "LA", "NY", "SEA"][(i % 4) as usize];
        let visits = (i * 5) % 11;
        let label = u8::from(age + visits * 3 > 45);
        text.push_str(&format!("{age},{income},{city},{visits},{label}\n"));
    }
    text
}

/// Run the binary on `csv` with the extra arguments `args` at `threads`
/// worker threads; returns stdout, the `--out` CSV bytes and the
/// `--metrics-out` report bytes. `case` names the temporary files.
fn run_at(case: &str, csv: &Path, args: &[&str], threads: &str) -> (Vec<u8>, Vec<u8>, Vec<u8>) {
    let (out_csv, metrics) = (temp(case, "out.csv"), temp(case, "metrics.json"));
    let out = Command::new(env!("CARGO_BIN_EXE_smartfeat"))
        .env("SMARTFEAT_THREADS", threads)
        .env_remove("SMARTFEAT_OBS_WALLCLOCK")
        .arg("--csv")
        .arg(csv)
        .args([
            "--target",
            "label",
            "--describe",
            "age=age in years",
            "--describe",
            "income=yearly income in USD",
            "--out",
        ])
        .arg(&out_csv)
        .arg("--metrics-out")
        .arg(&metrics)
        .args(args)
        .output()
        .expect("spawn smartfeat");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{case}, {threads} threads: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let written = std::fs::read(&out_csv).expect("--out written");
    let report = std::fs::read(&metrics).expect("--metrics-out written");
    let _ = std::fs::remove_file(&out_csv);
    let _ = std::fs::remove_file(&metrics);
    (out.stdout, written, report)
}

#[test]
fn output_is_byte_identical_across_smartfeat_threads() {
    // SMARTFEAT_THREADS is the CLI's only thread setting, and it is read
    // once per process, so each count needs its own process. The beam
    // case runs the batched CV scorer.
    let csv = temp("threads", "input.csv");
    std::fs::write(&csv, sample_csv()).expect("write csv");
    for (case, args) in [
        ("threads_default", &[][..]),
        ("threads_beam", &["--strategy", "beam"][..]),
    ] {
        let serial = run_at(case, &csv, args, "1");
        let parallel = run_at(case, &csv, args, "4");
        let header = serial.1.split(|&b| b == b'\n').next().unwrap_or_default();
        assert!(
            header.len() > "age,income,city,visits,label".len(),
            "{case}: the run generated no feature: {}",
            String::from_utf8_lossy(&serial.0)
        );
        assert_eq!(
            String::from_utf8_lossy(&serial.0),
            String::from_utf8_lossy(&parallel.0),
            "{case}: stdout"
        );
        assert!(
            serial.1 == parallel.1,
            "{case}: --out CSV differs between 1 and 4 threads"
        );
        assert_eq!(
            String::from_utf8_lossy(&serial.2),
            String::from_utf8_lossy(&parallel.2),
            "{case}: --metrics-out report"
        );
        if case == "threads_beam" {
            let report = String::from_utf8_lossy(&serial.2);
            assert!(
                report.contains("\"ml.cv.fold\""),
                "{case}: no CV fold ran: {report}"
            );
        }
    }
    let _ = std::fs::remove_file(&csv);
}

#[test]
fn unwritable_observability_output_exits_one_naming_the_path() {
    let csv = temp("unwritable", "input.csv");
    std::fs::write(&csv, sample_csv()).expect("write csv");
    let missing_dir = temp("unwritable", "no_such_dir");
    let _ = std::fs::remove_dir_all(&missing_dir);
    for flag in ["--out", "--metrics-out", "--trace-out"] {
        let path = missing_dir.join("report.json");
        let out = Command::new(env!("CARGO_BIN_EXE_smartfeat"))
            .arg("--csv")
            .arg(&csv)
            .args(["--target", "label", flag])
            .arg(&path)
            .output()
            .expect("spawn smartfeat");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag}: {stderr}");
        assert!(
            stderr.contains(&format!("error writing {}: ", path.display())),
            "{flag}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{flag}: the pipeline ran");
        assert!(!path.exists(), "{flag}: wrote into a missing directory");
    }
    let _ = std::fs::remove_file(&csv);
}
