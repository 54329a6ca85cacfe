//! Progress reporting for long-running sweeps.
//!
//! The full Figure 1 run evaluates 40 networks × 4 curves × 20 grid points
//! × 250 seeded slots; on slower machines that's minutes of silence
//! without feedback. Rayon workers report each finished unit through
//! [`ProgressSink::tick`], which adds it to the count under one mutex and
//! writes a line whenever the count passes another `report_every` units.
//! Units are coarse (one per network), so the lock is taken a few dozen
//! times per run.

use std::io::Write;
use std::sync::Mutex;

/// Counts completed units and writes progress lines to a sink. Shared by
/// reference across worker threads.
pub struct ProgressSink {
    total: u64,
    label: String,
    report_every: u64,
    state: Mutex<State>,
}

struct State {
    done: u64,
    out: Box<dyn Write + Send>,
}

impl ProgressSink {
    /// Creates a sink expecting `total` units, labelled `label`, writing
    /// to `out`. A line is written each time the count passes another
    /// `report_every` units, and when it reaches `total`.
    pub fn new<W: Write + Send + 'static>(
        total: u64,
        label: &str,
        report_every: u64,
        out: W,
    ) -> Self {
        assert!(report_every > 0, "report_every must be positive");
        ProgressSink {
            total,
            label: label.to_string(),
            report_every,
            state: Mutex::new(State {
                done: 0,
                out: Box::new(out),
            }),
        }
    }

    /// A sink writing to stderr.
    pub fn stderr(total: u64, label: &str, report_every: u64) -> Self {
        Self::new(total, label, report_every, std::io::stderr())
    }

    /// Reports `units` newly completed work items. Write errors are
    /// ignored: progress lines are advisory.
    pub fn tick(&self, units: u64) {
        let mut state = self.state.lock().expect("a progress tick panicked");
        let before = state.done;
        state.done += units;
        let done = state.done;
        let passed_step = done / self.report_every > before / self.report_every;
        let reached_total = before < self.total && done >= self.total;
        if passed_step || reached_total {
            let _ = writeln!(state.out, "{}: {done}/{}", self.label, self.total);
        }
    }

    /// Flushes the sink and returns the total units reported.
    pub fn finish(self) -> u64 {
        let mut state = self.state.into_inner().expect("a progress tick panicked");
        let _ = state.out.flush();
        state.done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A Write implementation collecting into a shared buffer.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl SharedBuf {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn rate_limiting_reduces_lines() {
        let buf = SharedBuf::default();
        let sink = ProgressSink::new(100, "w", 50, buf.clone());
        for _ in 0..100 {
            sink.tick(1);
        }
        sink.finish();
        let text = buf.text();
        let lines = text.lines().count();
        assert!(lines <= 4, "expected few lines, got {lines}: {text}");
    }

    #[test]
    fn concurrent_ticks_from_many_threads() {
        let buf = SharedBuf::default();
        let sink = ProgressSink::new(400, "par", 50, buf.clone());
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        sink.tick(1);
                    }
                });
            }
        });
        assert_eq!(sink.finish(), 400, "every tick is counted");
        let text = buf.text();
        let counts: Vec<u64> = text
            .lines()
            .map(|line| {
                let rest = line.strip_prefix("par: ").expect("labelled line");
                let (done, total) = rest.split_once('/').expect("done/total");
                assert_eq!(total, "400");
                done.parse().expect("numeric count")
            })
            .collect();
        assert!(
            counts.windows(2).all(|w| w[0] < w[1]),
            "printed counts must increase: {text}"
        );
        assert_eq!(text.lines().last(), Some("par: 400/400"), "{text}");
    }

    #[test]
    #[should_panic(expected = "report_every must be positive")]
    fn zero_report_interval_rejected() {
        let _ = ProgressSink::new(1, "x", 0, std::io::sink());
    }
}
