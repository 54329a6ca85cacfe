//! The online health monitor must tell the same stability story as the
//! post-hoc analysis — on the committed artifacts and live.
//!
//! Two closures of the loop:
//!
//! * `results/stability_health.jsonl` (written by `stability_exp
//!   --monitor`) carries one `lambda_stability` summary per sweep cell,
//!   pairing the *online* drift-detector verdict with the post-hoc one.
//!   Every row of the committed `results/stability.csv` must have a
//!   matching summary whose online verdict agrees with the published
//!   verdict — regenerating one artifact without the other fails here.
//! * A live quick sweep run twice — plain and monitored — must produce
//!   bit-equal reports, and the monitored journal must be byte-identical
//!   to the plain one once the inserted `health` records are dropped and
//!   the `seq` renumbering they cause is masked. Monitoring observes;
//!   it never steers.

use rayfade_dynamic::{
    ArrivalProcess, DynamicConfig, LambdaSweep, MonitorSpec, PolicyKind, SlotModelKind,
    SuccessModelKind,
};
use rayfade_geometry::PaperTopology;
use rayfade_sinr::SinrParams;
use rayfade_telemetry::{JournalReader, Json, Telemetry};
use std::collections::BTreeMap;
use std::path::PathBuf;

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results")
}

fn str_field<'a>(ev: &'a Json, key: &str) -> &'a str {
    ev.get(key)
        .and_then(|v| v.as_str())
        .unwrap_or_else(|| panic!("event missing string field {key:?}: {ev:?}"))
}

fn num_field(ev: &Json, key: &str) -> f64 {
    ev.get(key)
        .and_then(|v| v.as_f64())
        .unwrap_or_else(|| panic!("event missing numeric field {key:?}: {ev:?}"))
}

/// λ appears as an f64 in journal events and with 4 decimals in the CSV;
/// keying on micro-λ units makes the two collide exactly.
fn lambda_key(lambda: f64) -> i64 {
    (lambda * 1e6).round() as i64
}

type CellKey = (String, String, i64);

#[test]
fn committed_health_journal_agrees_with_committed_stability_csv() {
    let dir = results_dir();
    let health_path = dir.join("stability_health.jsonl");
    let csv_path = dir.join("stability.csv");
    // -- One streaming pass: check the header, keep only the per-cell
    //    lambda_stability summaries (memory independent of journal size).
    let reader = JournalReader::open(&health_path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", health_path.display()));
    let mut summaries: BTreeMap<CellKey, (String, String)> = BTreeMap::new();
    for (i, event) in reader.enumerate() {
        let ev = event.unwrap_or_else(|e| panic!("{}: {e}", health_path.display()));
        if i == 0 {
            assert_eq!(
                str_field(&ev, "kind"),
                "schema",
                "health journal starts with the schema header"
            );
        }
        if str_field(&ev, "kind") != "health"
            || ev.get("detector").and_then(|d| d.as_str()) != Some("lambda_stability")
        {
            continue;
        }
        let key = (
            str_field(&ev, "policy").to_string(),
            str_field(&ev, "model").to_string(),
            lambda_key(num_field(&ev, "lambda")),
        );
        let online = str_field(&ev, "verdict").to_string();
        let posthoc = str_field(&ev, "posthoc_verdict").to_string();
        // The online drift must respect the recorded threshold rule.
        let drift = num_field(&ev, "drift");
        let threshold = num_field(&ev, "threshold");
        assert_eq!(
            online == "stable",
            drift <= threshold,
            "{key:?}: online verdict {online} contradicts drift {drift} vs threshold {threshold}"
        );
        let prev = summaries.insert(key.clone(), (online, posthoc));
        assert!(prev.is_none(), "duplicate lambda_stability summary {key:?}");
    }
    assert!(!summaries.is_empty(), "health journal has no summaries");

    // -- Every committed CSV row must have an agreeing summary.
    let csv = std::fs::read_to_string(&csv_path).unwrap_or_else(|e| panic!("cannot read CSV: {e}"));
    let mut lines = csv.lines();
    let head: Vec<&str> = lines.next().expect("CSV header").split(',').collect();
    let col = |name: &str| {
        head.iter()
            .position(|h| *h == name)
            .unwrap_or_else(|| panic!("CSV missing column {name}"))
    };
    let (pc, mc, lc, vc) = (col("policy"), col("model"), col("lambda"), col("verdict"));
    let mut rows = 0;
    for line in lines.filter(|l| !l.trim().is_empty()) {
        let f: Vec<&str> = line.split(',').collect();
        let key = (
            f[pc].to_string(),
            f[mc].to_string(),
            lambda_key(f[lc].parse::<f64>().expect("λ parses")),
        );
        let (online, posthoc) = summaries
            .get(&key)
            .unwrap_or_else(|| panic!("CSV row {key:?} has no lambda_stability summary"));
        assert_eq!(
            online, f[vc],
            "{key:?}: online verdict disagrees with the committed CSV"
        );
        assert_eq!(
            posthoc, f[vc],
            "{key:?}: journaled post-hoc verdict disagrees with the committed CSV"
        );
        rows += 1;
    }
    assert_eq!(
        rows,
        summaries.len(),
        "health journal covers exactly the CSV's cells"
    );
}

fn quick_sweep() -> LambdaSweep {
    let base = DynamicConfig {
        links: 10,
        networks: 2,
        slots: 600,
        arrival: ArrivalProcess::Bernoulli { rate: 0.05 },
        policy: PolicyKind::MaxWeight,
        model: SuccessModelKind::Rayleigh,
        slot_model: SlotModelKind::MonteCarlo,
        topology: PaperTopology {
            links: 10,
            ..PaperTopology::figure1()
        },
        params: SinrParams::figure1(),
        sample_every: 50,
        seed: 0x8ea1,
    };
    LambdaSweep::linear(base, 0.2, 3)
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("rayfade-health-consistency");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(format!("{name}-{}", std::process::id()))
}

/// Masks the `seq` counter at the head of a journal line: inserted
/// health records renumber everything after them, so byte comparison
/// must ignore the counter while keeping every other byte significant.
fn strip_seq(line: &str) -> String {
    let rest = line
        .strip_prefix("{\"seq\":")
        .unwrap_or_else(|| panic!("journal line does not start with seq: {line}"));
    let comma = rest.find(',').expect("seq is not the only field");
    format!("{{{}", &rest[comma + 1..])
}

#[test]
fn monitored_journal_is_byte_identical_modulo_health_records() {
    let sweep = quick_sweep();

    let plain_path = scratch("plain.jsonl");
    let tele = Telemetry::with_journal(&plain_path).expect("create plain journal");
    let plain = sweep.run_with_telemetry(Some(&tele), None).report;
    tele.flush();
    drop(tele);

    let mon_path = scratch("monitored.jsonl");
    let tele = Telemetry::with_journal(&mon_path).expect("create monitored journal");
    let monitored = sweep.run_with_telemetry(Some(&tele), Some(&MonitorSpec::default()));
    tele.flush();
    drop(tele);

    // Monitoring observes the run; it must not steer it.
    assert_eq!(plain, monitored.report, "monitored report diverged");
    let (agree, total) = monitored.verdict_agreement();
    assert_eq!(agree, total, "online verdicts disagree with post-hoc fits");

    let plain_lines: Vec<String> = std::fs::read_to_string(&plain_path)
        .expect("read plain journal")
        .lines()
        .map(strip_seq)
        .collect();
    let monitored_lines: Vec<String> = std::fs::read_to_string(&mon_path)
        .expect("read monitored journal")
        .lines()
        .filter(|l| !l.contains("\"kind\":\"health\""))
        .map(strip_seq)
        .collect();
    let _ = std::fs::remove_file(&plain_path);
    let _ = std::fs::remove_file(&mon_path);

    assert!(!plain_lines.is_empty(), "plain journal is empty");
    assert_eq!(
        monitored_lines, plain_lines,
        "monitored journal differs from plain beyond the inserted health records"
    );
}
