//! Thread-count invariance: with the real work-stealing pool behind the
//! rayon facade, every committed artifact format — journal bytes,
//! stability CSV rows, sparse CSR contents — must be **byte-identical**
//! at pool sizes 1, 2, and 8. Parallelism may only change wall-clock
//! time.
//!
//! This is the acceptance test for the determinism contract: indexed
//! collects reassemble parallel map outputs in input order, journaling
//! happens post-collect in deterministic order, and grouping-sensitive
//! float reductions stay sequential.

use rayfade_core::SPARSE_CROSSOVER;
use rayfade_dynamic::{
    ArrivalProcess, DynamicConfig, DynamicEngine, LambdaSweep, PolicyKind, SlotModelKind,
    StabilityReport, SuccessModelKind,
};
use rayfade_geometry::PaperTopology;
use rayfade_sinr::{PowerAssignment, SinrParams};
use rayfade_spatial::{build_sparse_ratios_stats, SparseBuildStats};
use rayfade_telemetry::{MonitorConfig, Telemetry};
use std::path::PathBuf;

const POOL_SIZES: [usize; 3] = [1, 2, 8];

fn at_pool_size<R>(threads: usize, op: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(op)
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("rayfade-thread-invariance");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(format!("{name}-{}", std::process::id()))
}

fn sweep() -> LambdaSweep {
    let base = DynamicConfig {
        links: 12,
        networks: 2,
        slots: 150,
        arrival: ArrivalProcess::Bernoulli { rate: 0.05 },
        policy: PolicyKind::MaxWeight,
        model: SuccessModelKind::Rayleigh,
        slot_model: SlotModelKind::MonteCarlo,
        topology: PaperTopology {
            links: 12,
            ..PaperTopology::figure1()
        },
        params: SinrParams::figure1(),
        sample_every: 25,
        seed: 0x1417,
    };
    LambdaSweep::linear(base, 0.2, 3)
}

/// The stability CSV rows derived from a report, formatted the way
/// `stability_exp` publishes them (λ and drift to 4 decimals).
fn csv_rows(report: &StabilityReport) -> Vec<String> {
    report
        .cells
        .iter()
        .map(|c| {
            format!(
                "{},{},{:.4},{:.4},{}",
                c.policy.label(),
                c.model.label(),
                c.lambda,
                c.drift,
                c.verdict.label()
            )
        })
        .collect()
}

#[test]
fn stability_sweep_journal_and_csv_rows_identical_at_pool_sizes_1_2_8() {
    let sweep = sweep();
    let mut journals: Vec<(usize, Vec<u8>)> = Vec::new();
    let mut reports: Vec<(usize, StabilityReport)> = Vec::new();
    for &threads in &POOL_SIZES {
        let path = scratch(&format!("stability-{threads}.jsonl"));
        let tele = Telemetry::with_journal(&path).expect("create journal");
        let report = at_pool_size(threads, || sweep.run_with_telemetry(Some(&tele), None));
        tele.flush();
        journals.push((threads, std::fs::read(&path).expect("read journal")));
        reports.push((threads, report));
        let _ = std::fs::remove_file(&path);
    }

    let (_, ref_journal) = &journals[0];
    assert!(!ref_journal.is_empty(), "journal must not be empty");
    for (threads, bytes) in &journals[1..] {
        assert_eq!(
            bytes, ref_journal,
            "journal bytes differ between pool size 1 and {threads}"
        );
    }

    let (_, ref_report) = &reports[0];
    let ref_rows = csv_rows(ref_report);
    assert!(!ref_rows.is_empty(), "sweep produced no cells");
    for (threads, report) in &reports[1..] {
        // Full bitwise equality of every cell (drift, throughput,
        // delays), not just the printed rows.
        assert_eq!(
            report, ref_report,
            "stability report differs between pool size 1 and {threads}"
        );
        assert_eq!(csv_rows(report), ref_rows);
    }
}

#[test]
fn monitored_sweep_journal_identical_at_pool_sizes_1_4_8() {
    const MONITOR_POOL_SIZES: [usize; 3] = [1, 4, 8];
    let sweep = sweep();
    let monitor = MonitorConfig::default();
    let mut journals: Vec<(usize, Vec<u8>)> = Vec::new();
    let mut reports: Vec<(usize, StabilityReport)> = Vec::new();
    for &threads in &MONITOR_POOL_SIZES {
        let path = scratch(&format!("monitored-{threads}.jsonl"));
        let tele = Telemetry::with_journal(&path).expect("create journal");
        let report = at_pool_size(threads, || {
            sweep.run_with_telemetry(Some(&tele), Some(&monitor))
        });
        tele.flush();
        journals.push((threads, std::fs::read(&path).expect("read journal")));
        reports.push((threads, report));
        let _ = std::fs::remove_file(&path);
    }

    // The journal carries every detector report (watermarks, rates, SLO
    // counts) as `health` records, so its bytes cover the monitor too.
    let (_, ref_journal) = &journals[0];
    assert!(
        String::from_utf8_lossy(ref_journal).contains("\"kind\":\"health\""),
        "monitored journal must carry health records"
    );
    for (threads, bytes) in &journals[1..] {
        assert_eq!(
            bytes, ref_journal,
            "monitored journal bytes differ between pool size 1 and {threads}"
        );
    }

    let (_, ref_report) = &reports[0];
    for (threads, report) in &reports[1..] {
        assert_eq!(
            report, ref_report,
            "monitored report differs between pool size 1 and {threads}"
        );
    }
}

#[test]
fn sparse_csr_identical_at_pool_sizes_1_2_8() {
    // 4 000 receivers make 16 of the builder's 256-receiver chunks, so
    // every worker of the largest pool builds at least one fragment.
    let links = 4000;
    let topology = PaperTopology {
        links,
        side: (links as f64 * 1e6).sqrt(),
        min_length: 20.0,
        max_length: 40.0,
    };
    let net = topology.generate(0xc5_7e);
    let params = SinrParams::new(4.0, 2.5, 4e-7);
    let power = PowerAssignment::figure1_uniform();

    /// One row's exact content: column indices, value bits, noise-factor
    /// bits, certificate (τᵢ) bits.
    type RowPrint = (Vec<u32>, Vec<u64>, u64, u64);

    /// Exact CSR content: per-row column indices plus the bit patterns
    /// of every float the evaluator reads, and the build statistics.
    fn fingerprint(
        (ratios, stats): (rayfade_sinr::SparseInterferenceRatios, SparseBuildStats),
    ) -> (usize, Vec<RowPrint>, [u64; 4]) {
        let rows = (0..ratios.len())
            .map(|i| {
                let (cols, vals) = ratios.row(i);
                (
                    cols.to_vec(),
                    vals.iter().map(|v| v.to_bits()).collect(),
                    ratios.noise_factor(i).to_bits(),
                    ratios.tau(i).to_bits(),
                )
            })
            .collect();
        let stats = [
            stats.examined,
            stats.retained,
            stats.truncated,
            stats.tau_max.to_bits(),
        ];
        (ratios.nnz(), rows, stats)
    }

    let build = || fingerprint(build_sparse_ratios_stats(&net, &power, &params, 5e-2, None));
    let reference = at_pool_size(POOL_SIZES[0], build);
    assert!(reference.0 > 0, "sparse build produced no entries");
    for &threads in &POOL_SIZES[1..] {
        let fresh = at_pool_size(threads, build);
        assert_eq!(
            fresh, reference,
            "sparse CSR contents differ between pool size 1 and {threads}"
        );
    }
}

#[test]
fn sparse_analytic_replication_identical_at_pool_sizes_1_2_8() {
    // At the crossover the analytic resolver's cache comes from the
    // rayon-parallel spatial-grid builder, so one replication runs on
    // the pool.
    let n = SPARSE_CROSSOVER;
    let engine = DynamicEngine::new(DynamicConfig {
        links: n,
        networks: 1,
        slots: 300,
        arrival: ArrivalProcess::Bernoulli { rate: 0.05 },
        policy: PolicyKind::Aloha,
        model: SuccessModelKind::Rayleigh,
        slot_model: SlotModelKind::Analytic,
        topology: PaperTopology {
            links: n,
            side: (n as f64 * 1e6).sqrt(),
            min_length: 20.0,
            max_length: 40.0,
        },
        params: SinrParams::new(4.0, 2.5, 4e-7),
        sample_every: 50,
        seed: 0x5107,
    });
    let reference = at_pool_size(POOL_SIZES[0], || engine.run_network(0));
    assert!(
        reference.sparse_accuracy.is_some(),
        "the replication must resolve on the sparse cache"
    );
    for &threads in &POOL_SIZES[1..] {
        let outcome = at_pool_size(threads, || engine.run_network(0));
        assert_eq!(
            outcome, reference,
            "analytic outcome differs between pool size 1 and {threads}"
        );
    }
}
