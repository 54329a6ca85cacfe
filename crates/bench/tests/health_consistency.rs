//! The online health monitor's records, on the committed artifacts and
//! live.
//!
//! * `results/stability_journal.jsonl` (written by `stability_exp
//!   --telemetry results --monitor`) carries exactly one watermark, one
//!   throughput and one delay-SLO `health` record, in that order, for
//!   every replication of every cell the committed `results/stability.csv`
//!   lists — regenerating one artifact without the other fails here.
//! * A quick monitored sweep's detector records are pinned by digest.
//! * A live quick sweep run twice — plain and monitored — must produce
//!   bit-equal reports, and the monitored journal must be byte-identical
//!   to the plain one once the inserted `health` records are dropped and
//!   the `seq` renumbering they cause is masked. Monitoring observes;
//!   it never steers.

use rayfade_dynamic::{
    ArrivalProcess, DynamicConfig, LambdaSweep, PolicyKind, SlotModelKind, SuccessModelKind,
};
use rayfade_geometry::PaperTopology;
use rayfade_sinr::SinrParams;
use rayfade_telemetry::{JournalReader, Json, MonitorConfig, Telemetry};
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

/// (policy, model, micro-λ, replication).
type ReplicationKey = (String, String, i64, i64);

#[test]
fn committed_journal_has_the_three_detectors_for_every_csv_replication() {
    let dir = results_dir();
    let journal_path = dir.join("stability_journal.jsonl");
    let csv_path = dir.join("stability.csv");
    // -- One streaming pass: read the replication count from the sweep
    //    header and keep only each replication's detector sequence.
    let reader = JournalReader::open(&journal_path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", journal_path.display()));
    let mut networks = None;
    let mut detectors: BTreeMap<ReplicationKey, Vec<String>> = BTreeMap::new();
    for event in reader {
        let ev = event.unwrap_or_else(|e| panic!("{}: {e}", journal_path.display()));
        match str_field(&ev, "kind") {
            "stability_config" => {
                networks = ev.get("networks").and_then(|v| v.as_i64());
            }
            "health" => {
                let verdict = str_field(&ev, "verdict");
                assert!(verdict == "ok" || verdict == "alert", "{ev:?}");
                let key = (
                    str_field(&ev, "policy").to_string(),
                    str_field(&ev, "model").to_string(),
                    lambda_key(num_field(&ev, "lambda")),
                    ev.get("net").and_then(|v| v.as_i64()).expect("net"),
                );
                detectors
                    .entry(key)
                    .or_default()
                    .push(str_field(&ev, "detector").to_string());
            }
            _ => {}
        }
    }
    let networks = networks.expect("journal has a stability_config header");

    // -- Every committed CSV row implies `networks` replications, each
    //    with exactly the three detectors, and nothing else.
    let csv = std::fs::read_to_string(&csv_path).unwrap_or_else(|e| panic!("cannot read CSV: {e}"));
    let mut lines = csv.lines();
    let head: Vec<&str> = lines.next().expect("CSV header").split(',').collect();
    let col = |name: &str| {
        head.iter()
            .position(|h| *h == name)
            .unwrap_or_else(|| panic!("CSV missing column {name}"))
    };
    let (pc, mc, lc) = (col("policy"), col("model"), col("lambda"));
    let mut replications = 0;
    for line in lines.filter(|l| !l.trim().is_empty()) {
        let f: Vec<&str> = line.split(',').collect();
        for net in 0..networks {
            let key = (
                f[pc].to_string(),
                f[mc].to_string(),
                lambda_key(f[lc].parse::<f64>().expect("λ parses")),
                net,
            );
            let seen = detectors
                .get(&key)
                .unwrap_or_else(|| panic!("replication {key:?} has no health records"));
            assert_eq!(seen, &["watermark", "throughput", "delay_slo"], "{key:?}");
            replications += 1;
        }
    }
    assert_eq!(
        replications,
        detectors.len(),
        "the journal's health records cover exactly the CSV's replications"
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

/// FNV-1a over the watermark, throughput and delay-SLO `health` lines of
/// a quick monitored sweep, `seq` masked: adding or removing another
/// detector must not move a byte of these three.
const DETECTOR_RECORDS_DIGEST: u64 = 0x387a_70f0_27e3_328a;

#[test]
fn watermark_throughput_and_slo_records_are_pinned() {
    let sweep = quick_sweep();
    let path = scratch("pinned.jsonl");
    let tele = Telemetry::with_journal(&path).expect("create monitored journal");
    let report = sweep.run_with_telemetry(Some(&tele), Some(&MonitorConfig::default()));
    tele.flush();
    drop(tele);
    let text = std::fs::read_to_string(&path).expect("read monitored journal");
    let _ = std::fs::remove_file(&path);

    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut records = 0;
    for line in text.lines().filter(|l| l.contains("\"kind\":\"health\"")) {
        let kept = ["watermark", "throughput", "delay_slo"]
            .iter()
            .any(|d| line.contains(&format!("\"detector\":\"{d}\"")));
        if !kept {
            continue;
        }
        records += 1;
        for b in strip_seq(line).bytes().chain([b'\n']) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    }
    let networks = sweep.base.networks;
    assert_eq!(records, report.cells.len() * networks * 3);
    assert_eq!(
        hash, DETECTOR_RECORDS_DIGEST,
        "detector records moved: digest {hash:#018x}"
    );
}

#[test]
fn monitored_journal_is_byte_identical_modulo_health_records() {
    let sweep = quick_sweep();

    let plain_path = scratch("plain.jsonl");
    let tele = Telemetry::with_journal(&plain_path).expect("create plain journal");
    let plain = sweep.run_with_telemetry(Some(&tele), None);
    tele.flush();
    drop(tele);

    let mon_path = scratch("monitored.jsonl");
    let tele = Telemetry::with_journal(&mon_path).expect("create monitored journal");
    let monitored = sweep.run_with_telemetry(Some(&tele), Some(&MonitorConfig::default()));
    tele.flush();
    drop(tele);

    // Monitoring observes the run; it must not steer it.
    assert_eq!(plain, monitored, "monitored report diverged");

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
