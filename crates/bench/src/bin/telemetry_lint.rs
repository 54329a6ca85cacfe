//! CI gate for telemetry artifacts: validates every journal and metrics
//! dump a `--telemetry` run produced.
//!
//! Checks, per file in the target directory:
//!
//! * `*.jsonl` — every line parses as a JSON object whose first field is
//!   the monotonically increasing `seq` and whose second is a non-empty
//!   `kind` string, and the first record is the `schema` header carrying
//!   a `schema_version`; every `health` event must carry non-empty
//!   `detector` and `verdict` strings (schema v2 monitor records).
//!   Journals are streamed through
//!   [`rayfade_telemetry::JournalReader`], so linting a 100 MB journal
//!   needs memory for one line, not the file;
//! * `*_metrics.prom` — non-empty, every non-comment line is
//!   `name value`, and at least one `rayfade_`-prefixed sample exists;
//! * `*_trace.json` — a Chrome-trace JSON with balanced `B`/`E` events
//!   and per-thread monotone timestamps
//!   (via [`rayfade_telemetry::trace::validate_chrome_trace`]); a trace
//!   whose `otherData.dropped_spans` is positive draws a warning (the
//!   file is structurally valid but incomplete).
//!
//! All problems are reported, not just the first. With `--json` the
//! report is a single machine-readable JSON document on stdout
//! (`problems` and `warnings` arrays with `file` / `message` fields)
//! instead of human-readable lines on stderr.
//!
//! Exit codes: `0` all artifacts clean, `1` violations found (or no
//! artifacts at all), `2` usage error.
//!
//! Usage: `telemetry_lint --telemetry <dir> [--json]`
//! (falls back to `--out <dir>`, default `results`).

use rayfade_telemetry::{JournalReader, Json};
use std::path::{Path, PathBuf};

/// A machine-readable non-fatal warning.
struct Warning {
    file: String,
    kind: &'static str,
    message: String,
    value: i64,
}

/// Validate one JSONL journal in a single streaming pass; returns
/// problem messages (without the path prefix).
fn lint_journal(path: &Path) -> Vec<String> {
    let mut problems = Vec::new();
    let reader = match JournalReader::open(path) {
        Ok(reader) => reader,
        Err(e) => return vec![format!("unreadable journal: {e}")],
    };
    let mut count = 0usize;
    for (i, event) in reader.enumerate() {
        let ev = match event {
            Ok(ev) => ev,
            Err(e) => {
                // A malformed line poisons everything after it; stop.
                problems.push(format!("unreadable journal: {e}"));
                break;
            }
        };
        count += 1;
        if i == 0 {
            if ev.get("kind").and_then(|v| v.as_str()) != Some("schema") {
                problems.push("first record is not the schema header".to_string());
            } else {
                match ev.get("schema_version").and_then(|v| v.as_i64()) {
                    Some(v) if v >= 1 => {}
                    _ => problems
                        .push("schema header has no positive integer schema_version".to_string()),
                }
            }
        }
        match ev.get("seq").and_then(|v| v.as_i64()) {
            Some(seq) if seq == i as i64 => {}
            Some(seq) => problems.push(format!("event {i} has seq {seq}, expected {i}")),
            None => problems.push(format!("event {i} has no integer seq")),
        }
        match ev.get("kind").and_then(|v| v.as_str()) {
            Some(kind) if !kind.is_empty() => {}
            _ => problems.push(format!("event {i} has no non-empty kind")),
        }
        if ev.get("kind").and_then(|v| v.as_str()) == Some("health") {
            for field in ["detector", "verdict"] {
                match ev.get(field).and_then(|v| v.as_str()) {
                    Some(value) if !value.is_empty() => {}
                    _ => problems.push(format!("health event {i} has no non-empty {field}")),
                }
            }
        }
    }
    if count == 0 && problems.is_empty() {
        problems.push("journal is empty".to_string());
    }
    problems
}

/// Validate one Prometheus-text metrics dump.
fn lint_prom(path: &Path) -> Vec<String> {
    let mut problems = Vec::new();
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => return vec![format!("unreadable: {e}")],
    };
    let mut samples = 0usize;
    let mut rayfade_samples = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // Sample lines are `name[{labels}] value`.
        let Some((name, value)) = line.rsplit_once(' ') else {
            problems.push(format!(
                "line {}: not a `name value` sample: {line:?}",
                lineno + 1
            ));
            continue;
        };
        if value.parse::<f64>().is_err() {
            problems.push(format!(
                "line {}: non-numeric sample value {value:?}",
                lineno + 1
            ));
        }
        samples += 1;
        if name.starts_with("rayfade_") {
            rayfade_samples += 1;
        }
    }
    if samples == 0 {
        problems.push("no metric samples".to_string());
    } else if rayfade_samples == 0 {
        problems.push(format!("no rayfade_-prefixed samples among {samples}"));
    }
    problems
}

/// Validate one Chrome-trace JSON export; dropped spans are a warning,
/// not a problem (the file is valid but the profile is incomplete).
fn lint_trace(path: &Path, warnings: &mut Vec<Warning>) -> Vec<String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => return vec![format!("unreadable: {e}")],
    };
    let problems = match rayfade_telemetry::trace::validate_chrome_trace(&text) {
        Ok(stats) if stats.spans == 0 => vec!["trace contains no spans".to_string()],
        Ok(_) => Vec::new(),
        Err(e) => vec![format!("invalid trace: {e}")],
    };
    let dropped = Json::parse(&text)
        .ok()
        .and_then(|doc| doc.get("otherData")?.get("dropped_spans")?.as_i64())
        .unwrap_or(0);
    if dropped > 0 {
        warnings.push(Warning {
            file: path.display().to_string(),
            kind: "dropped_spans",
            message: format!("trace reports {dropped} dropped span(s); profile is incomplete"),
            value: dropped,
        });
    }
    problems
}

fn usage() -> ! {
    eprintln!("usage: telemetry_lint [--telemetry <dir>] [--out <dir>] [--json]");
    std::process::exit(2)
}

/// Parsed options: the directory to lint and the output format.
struct Options {
    dir: PathBuf,
    json: bool,
}

fn parse_args() -> Options {
    let mut telemetry: Option<PathBuf> = None;
    let mut out = PathBuf::from("results");
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--telemetry" => match args.next() {
                Some(dir) => telemetry = Some(PathBuf::from(dir)),
                None => usage(),
            },
            "--out" => match args.next() {
                Some(dir) => out = PathBuf::from(dir),
                None => usage(),
            },
            "--json" => json = true,
            // Accepted for `all`-runner compatibility; no effect here.
            "--quick" => {}
            _ => usage(),
        }
    }
    Options {
        dir: telemetry.unwrap_or(out),
        json,
    }
}

fn main() {
    let opts = parse_args();
    let dir = &opts.dir;
    let mut entries: Vec<_> = match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .map(|entry| entry.expect("directory entry").path())
            .collect(),
        Err(e) => {
            eprintln!("telemetry_lint: cannot read {}: {e}", dir.display());
            std::process::exit(2);
        }
    };
    entries.sort();

    // (file, message) pairs so the JSON report can attribute cleanly.
    let mut problems: Vec<(String, String)> = Vec::new();
    let mut warnings: Vec<Warning> = Vec::new();
    let mut checked = 0usize;
    for path in &entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let file_problems = if name.ends_with(".jsonl") {
            lint_journal(path)
        } else if name.ends_with("_metrics.prom") {
            lint_prom(path)
        } else if name.ends_with("_trace.json") {
            lint_trace(path, &mut warnings)
        } else {
            continue;
        };
        checked += 1;
        if !opts.json {
            if file_problems.is_empty() {
                eprintln!("ok   {}", path.display());
            } else {
                for p in &file_problems {
                    eprintln!("FAIL {}: {p}", path.display());
                }
            }
        }
        let file = path.display().to_string();
        problems.extend(file_problems.into_iter().map(|p| (file.clone(), p)));
    }

    if checked == 0 {
        problems.push((
            dir.display().to_string(),
            "no telemetry artifacts (*.jsonl, *_metrics.prom, *_trace.json) found".to_string(),
        ));
    }

    if opts.json {
        let entry = |file: &str, message: &str| {
            Json::Obj(vec![
                ("file".to_string(), Json::Str(file.to_string())),
                ("message".to_string(), Json::Str(message.to_string())),
            ])
        };
        let doc = Json::Obj(vec![
            ("schema_version".to_string(), Json::Num(1.0)),
            ("dir".to_string(), Json::Str(dir.display().to_string())),
            ("checked".to_string(), Json::Num(checked as f64)),
            ("clean".to_string(), Json::Bool(problems.is_empty())),
            (
                "problems".to_string(),
                Json::Arr(problems.iter().map(|(f, m)| entry(f, m)).collect()),
            ),
            (
                "warnings".to_string(),
                Json::Arr(
                    warnings
                        .iter()
                        .map(|w| {
                            Json::Obj(vec![
                                ("file".to_string(), Json::Str(w.file.clone())),
                                ("kind".to_string(), Json::Str(w.kind.to_string())),
                                ("message".to_string(), Json::Str(w.message.clone())),
                                ("value".to_string(), Json::Num(w.value as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        println!("{doc}");
    } else {
        for w in &warnings {
            eprintln!("warn {}: {}", w.file, w.message);
        }
        eprintln!(
            "\nchecked {checked} telemetry artifact(s) in {}: {}",
            dir.display(),
            if problems.is_empty() {
                "all clean".to_string()
            } else {
                format!("{} problem(s)", problems.len())
            }
        );
    }
    if !problems.is_empty() {
        std::process::exit(1);
    }
}
