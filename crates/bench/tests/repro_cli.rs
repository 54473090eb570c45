//! `repro`'s argv gives a result or an error, never a panic or a silent
//! clamp. `--help`/`-h` print the command list and exit 0; a bad value
//! exits 2 with an `error:` line. Every bad case names a cheap command, so
//! a regression that accepts it runs no method grid.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

#[test]
fn help_lists_every_command_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let out = repro(&[flag]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{flag}: {stdout}");
        assert!(stdout.starts_with("usage: repro"), "{flag}: {stdout}");
        for command in [
            "fig1",
            "table3",
            "table4",
            "table5",
            "efficiency",
            "table6",
            "table7",
            "descriptions",
            "ablations",
            "all",
        ] {
            assert!(
                stdout.lines().any(|l| l.trim_start().starts_with(command)),
                "{flag}: missing {command}"
            );
        }
        for option in ["--scale F", "--seed N", "--deadline SECS", "--full"] {
            assert!(stdout.contains(option), "{flag}: missing {option}");
        }
        assert!(out.stderr.is_empty(), "{flag}");
    }
}

/// Assert `args` is refused before any command runs; returns stderr.
fn rejected(args: &[&str]) -> String {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(stderr.contains("repro --help"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?}: a command ran");
    stderr
}

#[test]
fn negative_or_non_finite_deadline_is_an_error() {
    for secs in ["-1", "nan", "inf"] {
        let err = rejected(&["--deadline", secs, "table3"]);
        assert!(err.contains("bad --deadline"), "{secs}: {err}");
    }
}

#[test]
fn scale_that_is_not_finite_and_positive_is_an_error() {
    for scale in ["0", "-1", "nan", "inf"] {
        let err = rejected(&["--scale", scale, "table3"]);
        assert!(err.contains("bad --scale"), "{scale}: {err}");
    }
}

#[test]
fn second_command_is_an_error() {
    let err = rejected(&["fig1", "table3"]);
    assert!(err.contains("fig1") && err.contains("table3"), "{err}");
}

#[test]
fn unknown_command_is_an_error() {
    let err = rejected(&["table9"]);
    assert!(err.contains("unknown command table9"), "{err}");
}
