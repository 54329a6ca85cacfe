//! Streaming journal query engine.
//!
//! Journals can run to hundreds of thousands of records, so every
//! operation here is a single forward pass over a [`JournalReader`] in
//! constant memory (except [`derive_timeline`], which retains one row
//! per *matching* `dyn_slot` record — bounded by the query, not the
//! file).
//!
//! A [`Query`] is a conjunction of optional filters: event kinds, a
//! `seq` range, a cell selector (policy / model / λ), and a slot range.
//! Events that lack a filtered field do not match that filter — asking
//! for `--slot-range 0..100` selects only events that *have* a `slot`.
//! λ matching is exact after scaling to integer micro-units
//! (`(λ · 1e6).round()`), the same key convention the analysis suite
//! uses, so `0.02` matches `0.02` regardless of decimal rendering.

use rayfade_telemetry::{JournalReader, Json};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// An inclusive integer range `lo..=hi`, parsed from `A..B` syntax.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangeFilter {
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
}

impl RangeFilter {
    /// Parses `"A..B"`, `"A.."`, `"..B"`, or a single `"N"` (meaning
    /// `N..=N`). Bounds are inclusive.
    pub fn parse(text: &str) -> Result<RangeFilter, String> {
        let parse_bound = |s: &str, default: i64| -> Result<i64, String> {
            if s.is_empty() {
                Ok(default)
            } else {
                s.parse::<i64>()
                    .map_err(|_| format!("invalid range bound {s:?}"))
            }
        };
        let range = if let Some((lo, hi)) = text.split_once("..") {
            RangeFilter {
                lo: parse_bound(lo, i64::MIN)?,
                hi: parse_bound(hi, i64::MAX)?,
            }
        } else {
            let n = parse_bound(text, 0)?;
            RangeFilter { lo: n, hi: n }
        };
        if range.lo > range.hi {
            return Err(format!("empty range {text:?} (lo > hi)"));
        }
        Ok(range)
    }

    /// Whether `v` lies inside the inclusive range.
    pub fn contains(&self, v: i64) -> bool {
        self.lo <= v && v <= self.hi
    }
}

/// Selects journal events belonging to one sweep cell. Each component
/// is optional (`*` in the CLI syntax); λ is matched exactly in integer
/// micro-units.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellFilter {
    /// Policy label (`max_weight`, ...), or `None` for any.
    pub policy: Option<String>,
    /// Success-model label (`rayleigh`, `non_fading`), or `None` for any.
    pub model: Option<String>,
    /// λ in micro-units (`(λ · 1e6).round()`), or `None` for any.
    pub lambda_micro: Option<i64>,
}

/// The micro-unit integer key for a float λ, mirroring the analysis
/// suite's exact-match convention.
pub fn lambda_key(lambda: f64) -> i64 {
    (lambda * 1e6).round() as i64
}

impl CellFilter {
    /// Parses `"policy,model,lambda"` where any component may be `*`
    /// (or empty) to mean "any" — e.g. `"max_weight,*,0.02"`.
    pub fn parse(text: &str) -> Result<CellFilter, String> {
        let parts: Vec<&str> = text.split(',').collect();
        if parts.len() != 3 {
            return Err(format!(
                "cell filter {text:?} must be policy,model,lambda (use * for any)"
            ));
        }
        let opt = |s: &str| {
            if s.is_empty() || s == "*" {
                None
            } else {
                Some(s.to_string())
            }
        };
        let lambda_micro = match opt(parts[2]) {
            None => None,
            Some(s) => Some(
                s.parse::<f64>()
                    .map(lambda_key)
                    .map_err(|_| format!("invalid lambda {s:?}"))?,
            ),
        };
        Ok(CellFilter {
            policy: opt(parts[0]),
            model: opt(parts[1]),
            lambda_micro,
        })
    }

    /// Whether `event` carries matching cell fields. A constrained
    /// component requires the field to be present *and* equal.
    pub fn matches(&self, event: &Json) -> bool {
        let field_eq = |key: &str, want: &Option<String>| match want {
            None => true,
            Some(w) => event.get(key).and_then(Json::as_str) == Some(w.as_str()),
        };
        let lambda_ok = match self.lambda_micro {
            None => true,
            Some(want) => event.get("lambda").and_then(Json::as_f64).map(lambda_key) == Some(want),
        };
        field_eq("policy", &self.policy) && field_eq("model", &self.model) && lambda_ok
    }
}

/// A conjunction of filters over journal events.
#[derive(Debug, Clone, Default)]
pub struct Query {
    /// Keep only these `kind`s (empty = all kinds).
    pub kinds: Vec<String>,
    /// Keep only events whose `seq` falls in this range.
    pub seq: Option<RangeFilter>,
    /// Keep only events of one sweep cell.
    pub cell: Option<CellFilter>,
    /// Keep only events whose `slot` field falls in this range
    /// (implicitly restricts to slot-carrying kinds such as `dyn_slot`).
    pub slot_range: Option<RangeFilter>,
}

impl Query {
    /// Whether `event` passes every filter.
    pub fn matches(&self, event: &Json) -> bool {
        if !self.kinds.is_empty() {
            let kind = event.get("kind").and_then(Json::as_str).unwrap_or("");
            if !self.kinds.iter().any(|k| k == kind) {
                return false;
            }
        }
        if let Some(seq) = &self.seq {
            match event.get("seq").and_then(Json::as_i64) {
                Some(s) if seq.contains(s) => {}
                _ => return false,
            }
        }
        if let Some(cell) = &self.cell {
            if !cell.matches(event) {
                return false;
            }
        }
        if let Some(slots) = &self.slot_range {
            match event.get("slot").and_then(Json::as_i64) {
                Some(s) if slots.contains(s) => {}
                _ => return false,
            }
        }
        true
    }
}

/// Counters reported by a completed [`run_query`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Events read from the journal.
    pub scanned: u64,
    /// Events that passed the query and were handed to the sink.
    pub matched: u64,
}

/// Streams the journal at `path`, invoking `sink` on every event that
/// matches `query`. Constant memory; the sink borrows each event only
/// for the duration of the call.
pub fn run_query<P, F>(path: P, query: &Query, mut sink: F) -> io::Result<QueryStats>
where
    P: AsRef<Path>,
    F: FnMut(&Json),
{
    let mut stats = QueryStats::default();
    for event in JournalReader::open(path)? {
        let event = event?;
        stats.scanned += 1;
        if query.matches(&event) {
            stats.matched += 1;
            sink(&event);
        }
    }
    Ok(stats)
}

/// Renders one journal event as a CSV row of the given fields. Missing
/// fields render empty; strings are emitted bare (journal labels never
/// contain commas or quotes).
pub fn project_csv_row(event: &Json, fields: &[String]) -> String {
    let mut row = String::new();
    for (i, field) in fields.iter().enumerate() {
        if i > 0 {
            row.push(',');
        }
        match event.get(field) {
            None | Some(Json::Null) => {}
            Some(Json::Str(s)) => row.push_str(s),
            Some(other) => {
                let _ = write!(row, "{other}");
            }
        }
    }
    row
}

/// One per-cell, per-slot row of a derived backlog timeline, aggregated
/// over the replications (networks) of the cell.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineRow {
    /// Policy label of the cell.
    pub policy: String,
    /// Success-model label of the cell.
    pub model: String,
    /// Arrival rate λ of the cell.
    pub lambda: f64,
    /// Slot index (a sampled slot).
    pub slot: i64,
    /// Replications contributing to this row.
    pub nets: u64,
    /// Total queued packets across links and replications at this slot.
    pub backlog: i64,
    /// Cumulative arrivals across links and replications.
    pub cum_arrivals: i64,
    /// Cumulative departures across links and replications.
    pub cum_departures: i64,
}

impl TimelineRow {
    /// Backlog recomputed from the conservation law
    /// `arrivals − departures`; equals [`TimelineRow::backlog`] on any
    /// uncorrupted journal, and the timeline exposes both precisely so
    /// a mismatch is visible.
    pub fn derived_backlog(&self) -> i64 {
        self.cum_arrivals - self.cum_departures
    }
}

/// Derives a per-cell backlog timeline from the `dyn_slot` records of
/// the journal at `path`, restricted by `query` (kind filters are
/// ignored — this always reads `dyn_slot`). Rows aggregate the
/// replications of each cell and arrive sorted by (policy, model, λ,
/// slot) in journal order, which is already sorted for well-formed
/// journals.
pub fn derive_timeline<P: AsRef<Path>>(path: P, query: &Query) -> io::Result<Vec<TimelineRow>> {
    let mut slot_query = query.clone();
    slot_query.kinds = vec!["dyn_slot".to_string()];
    let mut rows: Vec<TimelineRow> = Vec::new();
    let missing = |field: &str, seq: i64| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("dyn_slot seq={seq} missing field {field:?}"),
        )
    };
    let mut result = Ok(());
    run_query(path, &slot_query, |event| {
        if result.is_err() {
            return;
        }
        let seq = event.get("seq").and_then(Json::as_i64).unwrap_or(-1);
        let str_field = |f: &str| event.get(f).and_then(Json::as_str).map(str::to_string);
        let int_field = |f: &str| event.get(f).and_then(Json::as_i64);
        let (policy, model) = match (str_field("policy"), str_field("model")) {
            (Some(p), Some(m)) => (p, m),
            (None, _) => return result = Err(missing("policy", seq)),
            (_, None) => return result = Err(missing("model", seq)),
        };
        let lambda = match event.get("lambda").and_then(Json::as_f64) {
            Some(l) => l,
            None => return result = Err(missing("lambda", seq)),
        };
        let (slot, backlog, arr, dep) = match (
            int_field("slot"),
            int_field("backlog"),
            int_field("cum_arrivals"),
            int_field("cum_departures"),
        ) {
            (Some(s), Some(b), Some(a), Some(d)) => (s, b, a, d),
            (None, ..) => return result = Err(missing("slot", seq)),
            (_, None, ..) => return result = Err(missing("backlog", seq)),
            (_, _, None, _) => return result = Err(missing("cum_arrivals", seq)),
            (_, _, _, None) => return result = Err(missing("cum_departures", seq)),
        };
        // Journal order is cell-major then net-major, so each cell's
        // replications revisit the same ascending slots: merge into the
        // existing row for (cell, slot) when one exists.
        let hit = rows.iter_mut().rev().take_while(|r| {
            r.policy == policy && r.model == model && lambda_key(r.lambda) == lambda_key(lambda)
        });
        if let Some(row) = hit.into_iter().find(|r| r.slot == slot) {
            row.nets += 1;
            row.backlog += backlog;
            row.cum_arrivals += arr;
            row.cum_departures += dep;
        } else {
            rows.push(TimelineRow {
                policy,
                model,
                lambda,
                slot,
                nets: 1,
                backlog,
                cum_arrivals: arr,
                cum_departures: dep,
            });
        }
    })?;
    result?;
    rows.sort_by(|a, b| {
        (&a.policy, &a.model, lambda_key(a.lambda), a.slot).cmp(&(
            &b.policy,
            &b.model,
            lambda_key(b.lambda),
            b.slot,
        ))
    });
    Ok(rows)
}

/// Renders timeline rows as CSV, including the recomputed
/// conservation-law backlog alongside the journaled one.
pub fn timeline_csv(rows: &[TimelineRow]) -> String {
    let mut out = String::from(
        "policy,model,lambda,slot,nets,backlog,cum_arrivals,cum_departures,derived_backlog\n",
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{}",
            r.policy,
            r.model,
            r.lambda,
            r.slot,
            r.nets,
            r.backlog,
            r.cum_arrivals,
            r.cum_departures,
            r.derived_backlog()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    /// Writes `lines` to a temp journal named after the calling test, so
    /// tests running concurrently never share a file.
    fn write_journal(test: &str, lines: &[&str]) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!(
            "rayfade_query_test_{}_{test}.jsonl",
            std::process::id()
        ));
        fs::write(&path, lines.join("\n")).unwrap();
        path
    }

    #[test]
    fn range_filter_parses_all_forms() {
        assert_eq!(
            RangeFilter::parse("3..7").unwrap(),
            RangeFilter { lo: 3, hi: 7 }
        );
        assert_eq!(RangeFilter::parse("3..").unwrap().lo, 3);
        assert_eq!(RangeFilter::parse("..7").unwrap().hi, 7);
        assert_eq!(
            RangeFilter::parse("5").unwrap(),
            RangeFilter { lo: 5, hi: 5 }
        );
        assert!(RangeFilter::parse("7..3").is_err());
        assert!(RangeFilter::parse("x..3").is_err());
        assert!(RangeFilter::parse("3..7").unwrap().contains(7));
        assert!(!RangeFilter::parse("3..7").unwrap().contains(8));
    }

    #[test]
    fn cell_filter_parses_wildcards_and_matches_micro_exact() {
        let f = CellFilter::parse("max_weight,*,0.02").unwrap();
        assert_eq!(f.policy.as_deref(), Some("max_weight"));
        assert_eq!(f.model, None);
        assert_eq!(f.lambda_micro, Some(20_000));
        let ev = Json::parse(
            r#"{"kind":"dyn_slot","policy":"max_weight","model":"rayleigh","lambda":0.020000000000000004}"#,
        )
        .unwrap();
        assert!(f.matches(&ev), "float-noise lambda must still match");
        let other = Json::parse(r#"{"kind":"dyn_slot","policy":"greedy","lambda":0.02}"#).unwrap();
        assert!(!f.matches(&other));
        assert!(CellFilter::parse("a,b").is_err());
    }

    #[test]
    fn query_filters_compose_and_stream() {
        let path = write_journal(
            "query_filters_compose_and_stream",
            &[
                r#"{"seq":0,"kind":"schema","schema_version":2}"#,
                r#"{"seq":1,"kind":"dyn_slot","policy":"p","model":"m","lambda":0.1,"net":0,"slot":0,"backlog":1,"cum_arrivals":2,"cum_departures":1}"#,
                r#"{"seq":2,"kind":"dyn_slot","policy":"p","model":"m","lambda":0.1,"net":0,"slot":50,"backlog":3,"cum_arrivals":5,"cum_departures":2}"#,
                r#"{"seq":3,"kind":"dyn_net","policy":"p","model":"m","lambda":0.1,"net":0}"#,
            ],
        );
        let query = Query {
            kinds: vec!["dyn_slot".into()],
            seq: Some(RangeFilter { lo: 0, hi: 2 }),
            cell: Some(CellFilter::parse("p,m,0.1").unwrap()),
            slot_range: Some(RangeFilter { lo: 0, hi: 10 }),
        };
        let mut seen = Vec::new();
        let stats = run_query(&path, &query, |ev| {
            seen.push(ev.get("seq").and_then(Json::as_i64).unwrap());
        })
        .unwrap();
        assert_eq!(stats.scanned, 4);
        assert_eq!(stats.matched, 1);
        assert_eq!(seen, vec![1]);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn timeline_aggregates_nets_and_exposes_conservation_law() {
        let path = write_journal(
            "timeline_aggregates_nets_and_exposes_conservation_law",
            &[
                r#"{"seq":0,"kind":"dyn_slot","policy":"p","model":"m","lambda":0.1,"net":0,"slot":0,"backlog":1,"cum_arrivals":2,"cum_departures":1}"#,
                r#"{"seq":1,"kind":"dyn_slot","policy":"p","model":"m","lambda":0.1,"net":0,"slot":50,"backlog":0,"cum_arrivals":4,"cum_departures":4}"#,
                r#"{"seq":2,"kind":"dyn_slot","policy":"p","model":"m","lambda":0.1,"net":1,"slot":0,"backlog":2,"cum_arrivals":3,"cum_departures":1}"#,
                r#"{"seq":3,"kind":"dyn_slot","policy":"p","model":"m","lambda":0.1,"net":1,"slot":50,"backlog":1,"cum_arrivals":6,"cum_departures":5}"#,
            ],
        );
        let rows = derive_timeline(&path, &Query::default()).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].slot, 0);
        assert_eq!(rows[0].nets, 2);
        assert_eq!(rows[0].backlog, 3);
        assert_eq!(rows[0].derived_backlog(), 3);
        assert_eq!(rows[1].slot, 50);
        assert_eq!(rows[1].backlog, 1);
        assert_eq!(rows[1].cum_arrivals, 10);
        let csv = timeline_csv(&rows);
        assert!(csv.starts_with("policy,model,lambda,slot,"));
        assert!(csv.contains("p,m,0.1,0,2,3,5,2,3"));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn csv_projection_renders_missing_fields_empty() {
        let ev = Json::parse(r#"{"seq":7,"kind":"dyn_net","lambda":0.25}"#).unwrap();
        let fields: Vec<String> = ["seq", "kind", "net", "lambda"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(project_csv_row(&ev, &fields), "7,dyn_net,,0.25");
    }
}
