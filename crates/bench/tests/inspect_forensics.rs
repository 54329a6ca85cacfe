//! End-to-end forensics: the `rayfade-inspect` toolkit against the
//! committed artifacts and against live runs.
//!
//! * Self-diff of the committed stability journal must be
//!   byte-identical, and self-perf-diff of `BENCH_perf.json` must show
//!   zero regressions — the acceptance criteria of the O4 experiment.
//! * The committed Chrome trace must fold into a non-empty, well-formed
//!   collapsed-stack flamegraph.
//! * Corrupting a single `dyn_slot` field of a freshly generated quick
//!   sweep journal must be attributed to exactly that record's `seq`
//!   and the exact JSON path (`dyn_slot.backlog`), proving divergence
//!   attribution works on real engine output, not just golden files.
//! * A traced+journaled single-threaded quick run must correlate: every
//!   `dynamic/replication` span joins its `dyn_net` record and every
//!   sampled-slot phase group its `dyn_slot` record.

use rayfade_dynamic::{
    ArrivalProcess, DynamicConfig, LambdaSweep, PolicyKind, SlotModelKind, SuccessModelKind,
};
use rayfade_geometry::PaperTopology;
use rayfade_inspect::{
    correlate, derive_timeline, diff_files, flamegraph_from_chrome, parse_perf, perf_diff, Query,
    DEFAULT_TOLERANCE,
};
use rayfade_sinr::SinrParams;
use rayfade_telemetry::{Json, Telemetry};
use std::path::PathBuf;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("rayfade-inspect-forensics");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(format!("{name}-{}", std::process::id()))
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

#[test]
fn committed_journal_self_diff_is_byte_identical() {
    let journal = repo_root().join("results/stability_journal.jsonl");
    let report = diff_files(&journal, &journal).expect("diff committed journal");
    assert!(
        report.byte_identical,
        "committed journal must self-diff clean"
    );
    assert!(report.identical());
    assert!(report.lines_compared > 1000, "full-run journal is large");
}

#[test]
fn committed_perf_baseline_self_diff_has_zero_regressions() {
    let text = std::fs::read_to_string(repo_root().join("BENCH_perf.json"))
        .expect("read committed perf baseline");
    let baseline = parse_perf(&text).expect("committed baseline parses as schema 2");
    let diff = perf_diff(&baseline, &baseline, DEFAULT_TOLERANCE).expect("hashes match");
    assert!(diff.clean(), "self-comparison can never regress");
    assert_eq!(diff.regressions(), 0);
    assert_eq!(diff.improvements(), 0);
    assert!(!diff.deltas.is_empty());
    for d in &diff.deltas {
        assert_eq!(d.ratio, Some(1.0), "workload {} ratio", d.name);
    }
    let doc = Json::parse(&diff.to_json().to_string()).expect("verdict JSON parses");
    assert_eq!(doc.get("verdict").and_then(Json::as_str), Some("ok"));
}

#[test]
fn committed_trace_folds_into_a_wellformed_flamegraph() {
    let text = std::fs::read_to_string(repo_root().join("results/stability_trace.json"))
        .expect("read committed trace");
    let flame = flamegraph_from_chrome(&text).expect("committed trace folds");
    assert!(!flame.is_empty());
    let mut total = 0u64;
    for line in flame.lines() {
        let (stack, value) = line.rsplit_once(' ').expect("`stack value` shape");
        assert!(!stack.is_empty());
        total += value.parse::<u64>().expect("numeric self-time");
    }
    assert!(total > 0, "positive total self time");
    assert!(
        flame.contains("stability/cell;dynamic/replication"),
        "replication spans nest under the cell span: {flame}"
    );
}

#[test]
fn committed_journal_timeline_obeys_conservation_law() {
    let journal = repo_root().join("results/stability_journal.jsonl");
    let rows = derive_timeline(&journal, &Query::default()).expect("derive timeline");
    assert!(!rows.is_empty());
    for r in &rows {
        assert_eq!(
            r.backlog,
            r.derived_backlog(),
            "{}/{} λ={} slot {}: backlog must equal cum_arrivals - cum_departures",
            r.policy,
            r.model,
            r.lambda,
            r.slot
        );
    }
}

#[test]
fn corrupting_one_dyn_slot_is_attributed_to_exact_seq_and_path() {
    let sweep = quick_sweep();
    let reference = scratch("reference.jsonl");
    let corrupted = scratch("corrupted.jsonl");
    for path in [&reference, &corrupted] {
        let tele = Telemetry::with_journal(path).expect("create journal");
        sweep.run_with_telemetry(Some(&tele), None);
        tele.flush();
    }
    // Sanity: deterministic engine, identical journals before corruption.
    let report = diff_files(&reference, &corrupted).expect("pre-corruption diff");
    assert!(report.byte_identical, "same seed must journal identically");

    // Corrupt the 10th dyn_slot record: backlog += 1.
    let text = std::fs::read_to_string(&corrupted).expect("read journal");
    let mut expected_seq = None;
    let mut expected_line = None;
    let mut dyn_slots = 0usize;
    let rewritten: Vec<String> = text
        .lines()
        .enumerate()
        .map(|(lineno, line)| {
            let ev = Json::parse(line).expect("journal line parses");
            if ev.get("kind").and_then(Json::as_str) != Some("dyn_slot") || expected_seq.is_some() {
                dyn_slots += usize::from(ev.get("kind").and_then(Json::as_str) == Some("dyn_slot"));
                return line.to_string();
            }
            dyn_slots += 1;
            if dyn_slots < 10 {
                return line.to_string();
            }
            let backlog = ev
                .get("backlog")
                .and_then(Json::as_i64)
                .expect("dyn_slot has backlog");
            expected_seq = Some(ev.get("seq").and_then(Json::as_i64).expect("seq"));
            expected_line = Some(lineno + 1);
            let needle = format!("\"backlog\":{backlog}");
            let patched = line.replacen(&needle, &format!("\"backlog\":{}", backlog + 1), 1);
            assert_ne!(patched, line, "corruption must change the line");
            patched
        })
        .collect();
    std::fs::write(&corrupted, rewritten.join("\n") + "\n").expect("write corrupted journal");
    let expected_seq = expected_seq.expect("found a dyn_slot to corrupt");

    let report = diff_files(&reference, &corrupted).expect("post-corruption diff");
    let d = report.divergence.expect("corruption must be detected");
    assert_eq!(
        d.seq,
        Some(expected_seq),
        "exact seq of the corrupted record"
    );
    assert_eq!(d.line, expected_line.unwrap());
    assert_eq!(d.kind.as_deref(), Some("dyn_slot"));
    assert_eq!(
        d.fields.len(),
        1,
        "exactly one field was corrupted: {:?}",
        d.fields
    );
    assert_eq!(d.fields[0].path, "dyn_slot.backlog", "exact JSON path");
    let left: i64 = d.fields[0].left.as_deref().unwrap().parse().unwrap();
    let right: i64 = d.fields[0].right.as_deref().unwrap().parse().unwrap();
    assert_eq!(right, left + 1);

    let _ = std::fs::remove_file(&reference);
    let _ = std::fs::remove_file(&corrupted);
}

#[test]
fn traced_quick_run_correlates_spans_onto_journal_records() {
    let sweep = quick_sweep();
    let journal = scratch("traced.jsonl");
    let tele = Telemetry::with_journal(&journal)
        .expect("create journal")
        .with_tracing();
    // The positional join needs all spans on one thread: pin the pool.
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap()
        .install(|| sweep.run_with_telemetry(Some(&tele), None));
    tele.flush();
    let trace = tele.tracer().expect("tracer attached").snapshot();
    assert_eq!(trace.dropped, 0, "quick run must fit the span rings");
    let trace_text = trace.to_chrome_json();

    let corr = correlate(&trace_text, &journal).expect("correlate trace with journal");
    // 3 policies x 2 models x 3 λ cells, 2 networks each, 600 slots
    // sampled every 50.
    assert_eq!(corr.replications.len(), 36);
    assert_eq!(corr.slots.len(), 36 * 12);
    for r in &corr.replications {
        assert!(
            r.wall_ms > 0.0,
            "replication {}/{} net {}",
            r.policy,
            r.model,
            r.net
        );
        assert!(r.throughput_per_link.is_finite());
    }
    for s in &corr.slots {
        assert!(s.wall_us >= 0.0);
        assert!(s.backlog >= 0, "journal backlogs are counts");
        assert_eq!(s.slot % 50, 0, "sampled slots only");
    }
    // Top-k ranking is a permutation prefix by wall time.
    let top = corr.slowest_replications(3);
    assert_eq!(top.len(), 3);
    assert!(top[0].wall_ms >= top[1].wall_ms && top[1].wall_ms >= top[2].wall_ms);
    // CSV exports carry one row per joined record (plus headers).
    assert_eq!(corr.replications_csv().lines().count(), 1 + 36);
    assert_eq!(corr.slots_csv().lines().count(), 1 + 432);

    let _ = std::fs::remove_file(&journal);
}
