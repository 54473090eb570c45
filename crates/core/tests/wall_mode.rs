//! Wall-clock observability mode keeps DESIGN §9's promise: every
//! wall-derived number sits under `volatile`. The `smartfeat` binary runs
//! the same beam search twice with `--metrics-out`, once on the default
//! logical clock and once with `SMARTFEAT_OBS_WALLCLOCK=1`. Without
//! `clock`, `volatile` and the spans' logical `ticks`, the two reports
//! must be byte-identical.

use std::path::{Path, PathBuf};
use std::process::Command;

use smartfeat_frame::json::JsonValue;

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("smartfeat_wall_mode_{}_{name}", std::process::id()))
}

/// A small insurance-like CSV: 48 rows, numeric and categorical columns.
fn write_csv(path: &Path) {
    let cities = ["SF", "LA", "SEA"];
    let mut text = String::from("age,car_age,city,claims,safe\n");
    for i in 0..48usize {
        let claims = i % 4;
        text.push_str(&format!(
            "{},{},{},{},{}\n",
            18 + (i * 7) % 50,
            1 + (i * 3) % 15,
            cities[i % 3],
            claims,
            u8::from(claims != 0 && i % 5 != 0)
        ));
    }
    std::fs::write(path, text).expect("write csv");
}

/// Run the binary and return its parsed metrics report.
fn metrics(csv: &Path, wall: bool) -> JsonValue {
    let out = temp(if wall { "wall.json" } else { "logical.json" });
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_smartfeat"));
    cmd.arg("--csv")
        .arg(csv)
        .args(["--target", "safe", "--strategy", "beam", "--metrics-out"])
        .arg(&out)
        .env_remove("SMARTFEAT_OBS_WALLCLOCK");
    if wall {
        cmd.env("SMARTFEAT_OBS_WALLCLOCK", "1");
    }
    let status = cmd.status().expect("spawn smartfeat");
    assert!(status.success(), "smartfeat failed (wall={wall})");
    let text = std::fs::read_to_string(&out).expect("metrics written");
    let _ = std::fs::remove_file(&out);
    JsonValue::parse(&text).expect("metrics parse")
}

/// The report without `clock`, `volatile` and each span's `ticks`.
fn logical_part(report: &JsonValue) -> String {
    let JsonValue::Object(mut map) = report.clone() else {
        panic!("metrics report is an object");
    };
    map.remove("clock");
    map.remove("volatile");
    if let Some(JsonValue::Object(spans)) = map.get_mut("spans") {
        for span in spans.values_mut() {
            if let JsonValue::Object(fields) = span {
                fields.remove("ticks");
            }
        }
    }
    JsonValue::Object(map).emit()
}

#[test]
fn wall_report_differs_from_logical_only_in_volatile_fields() {
    let csv = temp("input.csv");
    write_csv(&csv);
    let logical = metrics(&csv, false);
    let wall = metrics(&csv, true);
    let _ = std::fs::remove_file(&csv);

    assert_eq!(
        logical.get("clock").and_then(JsonValue::as_str),
        Some("logical")
    );
    assert_eq!(wall.get("clock").and_then(JsonValue::as_str), Some("wall"));
    assert!(logical.get("volatile").is_none());
    let volatile = wall.get("volatile").expect("wall report has volatile");
    for key in ["span_ns", "work_ns", "pool_workers_spawned"] {
        assert!(volatile.get(key).is_some(), "volatile.{key} missing");
    }
    assert!(
        volatile.get("span_ns").and_then(|s| s.get("run")).is_some(),
        "the run span's nanoseconds are reported"
    );
    assert!(
        logical
            .get("work")
            .and_then(|w| w.get("ml.cv.fold"))
            .is_some(),
        "beam search records its CV folds"
    );
    assert_eq!(logical_part(&logical), logical_part(&wall));
}
