//! CI gate for the sharded scaling report's **hardware-transferable**
//! metric.
//!
//! The E12 report carries two families of numbers: wall-clock throughput
//! (pinned to the runner's core count — one-core CI runners report ~1×
//! regardless of how well the front-end scales) and the per-stage critical
//! path (the slower of the coordinator's scatter pass and the slowest
//! shard ingest, each measured in isolation), which is the wall clock the
//! pipelined runtime attains once `cores > shards` and therefore transfers
//! across hosts. This gate always enforces a floor on the critical-path
//! speedup at a chosen shard count; the wall-clock leg is gated **only
//! when the report's recorded `cores` covers the shard count** (the
//! speedup is physically unattainable below that), and is a logged skip
//! otherwise, so multi-core runners enforce real end-to-end scaling while
//! starved runners stay green without weakening the gate.
//!
//! ```text
//! sharded_gate --report sharded.json [--shards 4] [--min-speedup 2.0] \
//!     [--min-wall-speedup 2.0] [--out decision.json]
//! ```
//!
//! Exits 0 when every applicable floor holds, 1 on regression, 2 on
//! malformed inputs. With `--out`, the gate also records its decision —
//! the runner's core count, both measured speedups, and whether the
//! wall-clock floor actually fired or was skipped as unattainable — as a
//! small JSON file for the CI artifact, so a green run on a starved
//! one-core runner is distinguishable from a green run that really
//! enforced end-to-end scaling.

#![forbid(unsafe_code)]

use tps_bench::json::JsonValue;

fn fail_usage(msg: &str) -> ! {
    eprintln!("sharded_gate: {msg}");
    eprintln!(
        "usage: sharded_gate --report <sharded.json> [--shards 4] [--min-speedup 2.0] \
         [--min-wall-speedup 2.0] [--out decision.json]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut report_path = None;
    let mut out_path = None;
    let mut shards = 4.0f64;
    let mut min_speedup = 2.0f64;
    let mut min_wall_speedup = 2.0f64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--report" => report_path = it.next().cloned(),
            "--out" => out_path = it.next().cloned(),
            "--shards" => {
                shards = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| fail_usage("--shards needs a number"));
            }
            "--min-speedup" => {
                min_speedup = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| fail_usage("--min-speedup needs a number"));
            }
            "--min-wall-speedup" => {
                min_wall_speedup = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| fail_usage("--min-wall-speedup needs a number"));
            }
            other => fail_usage(&format!("unknown argument `{other}`")),
        }
    }
    let report_path = report_path.unwrap_or_else(|| fail_usage("--report is required"));
    let text = std::fs::read_to_string(&report_path)
        .unwrap_or_else(|e| fail_usage(&format!("cannot read {report_path}: {e}")));
    let doc = JsonValue::parse(&text)
        .unwrap_or_else(|e| fail_usage(&format!("cannot parse {report_path}: {e}")));

    // Accept both the bare CI report (`report -- --sharded --json`) and the
    // committed baseline file, which nests the report under
    // `sharded_report` (the same convention bench_regression follows for
    // `quick_report`).
    let section = doc
        .get_path("sharded_report.e12_sharded")
        .or_else(|| doc.get("e12_sharded"))
        .unwrap_or_else(|| fail_usage(&format!("{report_path}: no e12_sharded section")));
    let rows = match section.get("rows") {
        Some(JsonValue::Arr(rows)) if !rows.is_empty() => rows,
        _ => fail_usage(&format!("{report_path}: no e12_sharded.rows array")),
    };
    let cores = section
        .get("cores")
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| fail_usage(&format!("{report_path}: missing cores")));
    let row = rows
        .iter()
        .find(|row| row.get("shards").and_then(JsonValue::as_f64) == Some(shards))
        .unwrap_or_else(|| fail_usage(&format!("{report_path}: no row for {shards} shard(s)")));
    let speedup = row
        .get("critical_path_speedup")
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| fail_usage(&format!("{report_path}: missing critical_path_speedup")));
    let wall = row
        .get("speedup_vs_single")
        .and_then(JsonValue::as_f64)
        .unwrap_or(f64::NAN);
    if !speedup.is_finite() || speedup <= 0.0 {
        fail_usage(&format!(
            "{report_path}: critical_path_speedup = {speedup} is not positive"
        ));
    }

    let wall_gated = cores >= shards;
    println!(
        "{shards:.0} shards on a {cores:.0}-core runner: critical-path speedup {speedup:.2}x \
         (floor {min_speedup:.2}x), wall-clock {wall:.2}x ({})",
        if wall_gated {
            format!("floor {min_wall_speedup:.2}x")
        } else {
            "informational: runner has fewer cores than shards, wall floor skipped".to_string()
        }
    );
    let mut regressed = false;
    if speedup < min_speedup {
        eprintln!(
            "REGRESSION: critical-path speedup {speedup:.2}x at {shards:.0} shards fell below \
             the {min_speedup:.2}x floor"
        );
        regressed = true;
    }
    if wall_gated && (wall.is_nan() || wall < min_wall_speedup) {
        eprintln!(
            "REGRESSION: wall-clock speedup {wall:.2}x at {shards:.0} shards fell below the \
             {min_wall_speedup:.2}x floor on a {cores:.0}-core runner"
        );
        regressed = true;
    }
    // Record the decision before any exit: which floors fired on this
    // runner, at what core count, with what measured numbers. `wall_gated:
    // false` in the artifact is the tell that a green run never actually
    // enforced the wall-clock floor.
    if let Some(path) = out_path {
        let decision = format!(
            "{{\"cores\":{cores},\"shards\":{shards},\
             \"critical_path_speedup\":{speedup},\"wall_speedup\":{wall},\
             \"min_speedup\":{min_speedup},\"min_wall_speedup\":{min_wall_speedup},\
             \"wall_gated\":{wall_gated},\"result\":\"{}\"}}\n",
            if regressed { "regression" } else { "ok" },
            wall = if wall.is_finite() {
                wall.to_string()
            } else {
                "null".to_string()
            },
        );
        std::fs::write(&path, decision)
            .unwrap_or_else(|e| fail_usage(&format!("cannot write {path}: {e}")));
    }
    if regressed {
        std::process::exit(1);
    }
    println!(
        "OK: critical-path scaling floor holds{}",
        if wall_gated {
            ", wall-clock floor holds"
        } else {
            " (wall-clock floor skipped: cores < shards)"
        }
    );
}
