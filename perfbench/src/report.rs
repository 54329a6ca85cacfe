//! The result line (operations attempted and failed, named metrics with
//! units) and the timing loop of the untraced measurement.

use rayfade_telemetry::Json;
use std::time::Instant;

/// Operations, failures and metrics of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Counts one operation (a replication, a sweep cell or a q-point
    /// evaluation); an output that fails its check counts as failed.
    pub fn op(&mut self, checked: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = checked {
            self.fail(e);
        }
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        eprintln!("perfbench: check failed: {why}");
    }

    /// Records a metric; non-finite values are reported as failures.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.fail(format!("metric {name} is not finite ({value})"));
        }
        self.metrics.push((name.to_string(), value, unit));
    }

    /// The JSON object the benchmark prints as its last line.
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let entry = Json::Obj(vec![
                    (
                        "value".into(),
                        Json::Num(if value.is_finite() { *value } else { 0.0 }),
                    ),
                    ("unit".into(), Json::Str((*unit).into())),
                ]);
                (name.clone(), entry)
            })
            .collect();
        Json::Obj(vec![
            (
                "correct".into(),
                Json::Bool(self.failed == 0 && self.attempted > 0),
            ),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .to_string()
    }
}

/// Peak resident set size of this process in MB (10⁶ bytes), from
/// `VmHWM` in `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// Median of a non-empty sample (mean of the middle two for even sizes).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The fastest of a run's operation times. Load from other tenants of a
/// shared machine only ever slows an operation, and shifts the median of
/// a 10-second run by up to a third, while the fastest of many repeats
/// stays within a few percent from run to run.
pub fn fastest(times: &[f64]) -> f64 {
    times.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Alternates timed setups with timed operations on the latest setup's
/// product until there are at least `min_setups` setups and `seconds` of
/// operations, spreading both over the whole run so a stretch of load on
/// the machine shifts neither statistic. Returns the setup times, the
/// operation times and the last product.
///
/// Also records `peak_rss_mb`, read after the first setup and its
/// operations: the footprint of the workload itself. Later setups and
/// operations only repeat it, but in an order that depends on the
/// machine's speed, and the allocator's high-water mark depends on that
/// order.
pub fn alternate<T>(
    min_setups: usize,
    seconds: f64,
    report: &mut Report,
    mut setup: impl FnMut(&mut Report) -> T,
    mut op: impl FnMut(&mut T, &mut Report),
) -> (Vec<f64>, Vec<f64>, T) {
    let (mut setups, mut ops) = (Vec::new(), Vec::new());
    let mut op_wall = 0.0;
    let mut product = None;
    while setups.len() < min_setups || op_wall < seconds {
        // Free the previous product before building the next one.
        drop(product.take());
        let start = Instant::now();
        let mut built = setup(report);
        setups.push(start.elapsed().as_secs_f64());
        let share = seconds * setups.len() as f64 / min_setups as f64;
        while op_wall < share.min(seconds) || ops.is_empty() {
            let start = Instant::now();
            op(&mut built, report);
            let took = start.elapsed().as_secs_f64();
            op_wall += took;
            ops.push(took);
        }
        product = Some(built);
        if setups.len() == 1 {
            match peak_rss_mb() {
                Some(mb) => report.metric("peak_rss_mb", mb, "MB"),
                None => report.fail("peak RSS unavailable: /proc/self/status has no VmHWM".into()),
            }
        }
    }
    (setups, ops, product.expect("at least one setup ran"))
}
