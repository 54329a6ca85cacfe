//! Slot-churn-amortized Theorem 1 products with exact rebuild equality.
//!
//! The dynamic slot loop flips a handful of links in and out of the
//! transmit set every slot and then needs every receiver's interference
//! product again. [`SuccessAccumulator`](crate::SuccessAccumulator)
//! already makes one flip O(n), but its float log-sums are *order
//! dependent*: a product reached through a churn history differs in the
//! last ulps from the same product rebuilt from scratch, so "persistent
//! accumulator ≡ fresh rebuild" cannot be checked bitwise — exactly the
//! invariant a differential conformance harness wants.
//!
//! [`AmortizedAccumulator`] removes the order dependence by accumulating
//! *quantized* logarithms in 64-bit integers: each Theorem 1 factor
//! `1 − ρ(j→i)·q_j` contributes `round(ln(factor) · 2³⁸)`, and integer
//! addition is exact, associative, and commutative, so any churn history
//! that ends in the same probability vector lands on the *same bits* as a
//! from-scratch rebuild. The quantization costs at most `0.5 / 2³⁸`
//! absolute error in the log per factor (≈ 1.8·10⁻¹² relative per
//! factor, `n`× that per product) — far inside the 1e-9 conformance
//! tolerance at check sizes and statistically invisible to the Bernoulli
//! sampling the analytic slot resolver does with these probabilities.
//!
//! The log rows are *sender-major* (the transpose of
//! [`InterferenceRatios`]): the full-activation log row of sender `j`
//! against every receiver is contiguous, so the common slot operations —
//! `insert(j)` / `remove(j)` on queue churn — are a single linear pass
//! over one row: a loop of plain adds for `insert`, a loop of plain
//! subtracts for `remove`. Neither multiplies: baseline x86-64 (SSE2) has
//! packed 64-bit adds and subtracts (`paddq`, `psubq`) but no packed
//! 64-bit multiply, so one `acc += sign · row` loop vectorizes with each
//! multiply built from three 32-bit `pmuludq` partial products plus
//! shifts and adds, and takes about twice as long per row (criterion
//! `evaluator/amortized_flip`). The from-scratch
//! [`set_probs`](AmortizedAccumulator::set_probs) rebuild accumulates
//! row-blocks the same way instead of striding the receiver-major matrix.
//!
//! # Two layouts of the log table
//!
//! Every full-activation log `round(ln(1 − ρ(j→i))·2³⁸)` is ≤ 0, and a
//! distant sender's is tiny: under α = 4 path loss, `ρ` falls with the
//! fourth power of the distance, and `|log|` fits in 16 bits whenever
//! `ρ ≲ 2.4·10⁻⁷`. At one link per 10⁶ area units (perfbench
//! `regret_1k`'s density) 99.07% of the off-diagonal entries of a
//! 10³-link table fit, 91.1% at 10² links and 99.5% at 2 047; in the
//! Figure 1 geometry none do, and 2% in Figure 2's. The table therefore
//! has two layouts:
//!
//! - **wide**: one `i64` per entry, 8 B;
//! - **narrow**: each entry negated as a `u16` (2 B; 0 where it does not
//!   fit), plus, per sender, the *near* entries that do not fit as
//!   `(receiver, i64)` pairs in ascending receiver order (16 B each).
//!
//! The byte rule: the table is narrow when it has at most 2¹⁶ links and
//! at most one entry in eight is near. Then its bytes
//! (`2·n² + 16·near`) are at most half of the wide table's `8·n²`. Half,
//! not merely fewer, because a near entry is a scattered add rather than
//! part of a streamed row. The rule reads only the table's own entries;
//! there is nothing to configure. [`new`](AmortizedAccumulator::new)
//! starts narrow and widens the part built so far once the near count
//! passes the budget, so a near-field table costs one early conversion,
//! not a second pass of logarithms. The layout changes how the same
//! integers are stored, never their values, so either layout lands on the
//! same accumulators.
//!
//! # Batch switches
//!
//! Because the sums are exact integers, a caller moving from one transmit
//! set to another may either churn (one row pass per flipped link) or
//! [`reset`](AmortizedAccumulator::reset) and insert the new set (one row
//! pass per new transmitter, plus an O(n) clear) and land on the same
//! bits. The analytic slot resolver does the cheaper of the two
//! (`rayfade_core::NetworkEvaluator::switch_transmit_set`), so a slot
//! costs O(min(flips, k)·n) for k transmitters instead of O(flips·n).
//! Both routes run [`churn`](AmortizedAccumulator::churn), which on the
//! narrow layout sums the joining rows, and apart from them the leaving
//! rows, four at a time into `u32` block sums over tiles of 1 024
//! receivers kept on the stack, folds each tile's two blocks
//! into the `i64` accumulators once, and then adds the near entries. A
//! block cannot overflow: it takes each joining (or each leaving) link's
//! row once, so at most `n ≤ 2¹⁶` rows of values below 2¹⁶ go into it
//! before it is flushed, and `2¹⁶·(2¹⁶ − 1) < 2³²`. The wide layout adds
//! and subtracts its rows one at a time, as `insert` and `remove` do.
//!
//! Capacity: nonzero factors are at least `2⁻⁵³` (the smallest gap below
//! 1.0), so one quantized log is at most `53·ln 2·2³⁸ ≈ 1.0·10¹³` in
//! magnitude. A receiver's sum therefore cannot overflow `i64` unless
//! more than `i64::MAX / (53·ln 2·2³⁸) ≈ 9.1·10⁵` senders all contribute
//! that worst case at it, and at that n the n² `i64` table alone would
//! need ≈ 6.7 TB. This type is routed only below the sparse crossover.

use crate::gain::GainMatrix;
use crate::params::SinrParams;
use crate::ratio::InterferenceRatios;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Fixed-point scale of the quantized logarithms: 2³⁸.
const LOG_SCALE: f64 = (1u64 << 38) as f64;

/// Most links a table may have and still take the narrow layout: a
/// [`churn`](AmortizedAccumulator::churn) block then sums at most 2¹⁶
/// rows of 16-bit values, which cannot overflow its `u32` (module docs).
const NARROW_MAX_LINKS: usize = 1 << 16;

/// Receivers per block of the batch kernel: two 4 KiB `u32` blocks on the
/// stack, which stay in L1 while the rows stream past them.
const TILE: usize = 1024;

/// Quantized log of the Theorem 1 factor `1 − ρ·q`, or `None` when the
/// factor is exactly zero (tracked by count, never accumulated).
#[inline]
fn quantized_log_factor(rho: f64, q: f64) -> Option<i64> {
    let factor = 1.0 - rho * q;
    debug_assert!(factor >= 0.0, "ρ·q must not exceed 1");
    if factor == 0.0 {
        None
    } else {
        Some((factor.ln() * LOG_SCALE).round() as i64)
    }
}

/// Sender-major quantized logs at full activation,
/// `round(ln(1 − ρ(j→i)) · 2³⁸)` for sender `j` at receiver `i`: 0 on
/// the diagonal and wherever the factor is 1 or exactly 0 (the latter
/// tracked in `AmortizedAccumulator::zero_receivers`). The two layouts
/// and the rule between them are in the [module docs](self).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum LogRows {
    /// `log[j·n + i]`.
    Wide(Vec<i64>),
    /// `far[j·n + i] = −log` where that fits in a `u16`, else 0; `near[j]`
    /// holds sender `j`'s other entries as `(i, log)`, ascending in `i`.
    Narrow {
        far: Vec<u16>,
        near: Vec<Vec<(u32, i64)>>,
    },
}

impl LogRows {
    /// The wide table holding the same logs as a narrow one.
    fn widened(n: usize, far: &[u16], near: &[Vec<(u32, i64)>]) -> Self {
        let mut wide: Vec<i64> = far.iter().map(|&v| -i64::from(v)).collect();
        for (j, entries) in near.iter().enumerate() {
            for &(i, log) in entries {
                wide[j * n + i as usize] = log;
            }
        }
        LogRows::Wide(wide)
    }
}

/// Churn-amortized per-receiver Theorem 1 products over integer-quantized
/// logs (see the [module docs](self) for the exactness argument).
///
/// Methods take the same [`InterferenceRatios`] the accumulator was built
/// from, mirroring the [`SuccessAccumulator`](crate::SuccessAccumulator)
/// convention; the constructor additionally precomputes the sender-major
/// full-activation log rows that make [`insert`](Self::insert) /
/// [`remove`](Self::remove) a contiguous row add.
///
/// Equality compares the semantic state (probabilities, integer sums,
/// zero counts) and the log table, which depends only on the ratios: two
/// accumulators over one ratio cache that agree were driven to the same
/// probability vector, regardless of the churn order — the invariant the
/// `amortized-ratios` conformance check certifies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AmortizedAccumulator {
    n: usize,
    /// Sender-major quantized logs at full activation.
    rows: LogRows,
    /// Per sender `j`: receivers whose full-activation factor is exactly
    /// zero (`ρ(j→i) = 1`), excluded from `rows`.
    zero_receivers: Vec<Vec<u32>>,
    /// Current transmission probabilities.
    q: Vec<f64>,
    /// Per-receiver `Σ` quantized logs over senders with `q_j > 0` and a
    /// nonzero factor.
    acc: Vec<i64>,
    /// Number of exactly-zero factors at each receiver.
    zeros: Vec<u32>,
}

impl AmortizedAccumulator {
    /// Precomputes the sender-major log rows — O(n²), once per ratio
    /// cache — in the layout the byte rule of the [module docs](self)
    /// picks. All probabilities start at 0.
    pub fn new(ratios: &InterferenceRatios) -> Self {
        let n = ratios.len();
        Self::build(ratios, (n <= NARROW_MAX_LINKS).then_some(n * n / 8))
    }

    /// Builds the log rows narrow while at most `near_budget` entries are
    /// near, wide once more are or when the budget is `None`.
    fn build(ratios: &InterferenceRatios, near_budget: Option<usize>) -> Self {
        let n = ratios.len();
        let mut rows = match near_budget {
            Some(_) => LogRows::Narrow {
                far: vec![0; n * n],
                near: vec![Vec::new(); n],
            },
            None => LogRows::Wide(vec![0; n * n]),
        };
        let mut near_count = 0;
        let mut zero_receivers = vec![Vec::new(); n];
        for i in 0..n {
            for (j, &rho) in ratios.at_receiver(i).iter().enumerate() {
                if rho == 0.0 {
                    continue;
                }
                let Some(log) = quantized_log_factor(rho, 1.0) else {
                    zero_receivers[j].push(i as u32);
                    continue;
                };
                match &mut rows {
                    LogRows::Wide(wide) => wide[j * n + i] = log,
                    LogRows::Narrow { far, near } => match u16::try_from(-log) {
                        Ok(v) => far[j * n + i] = v,
                        Err(_) => {
                            near[j].push((i as u32, log));
                            near_count += 1;
                        }
                    },
                }
            }
            if near_budget.is_some_and(|budget| near_count > budget) {
                if let LogRows::Narrow { far, near } = &rows {
                    rows = LogRows::widened(n, far, near);
                }
            }
        }
        AmortizedAccumulator {
            n,
            rows,
            zero_receivers,
            q: vec![0.0; n],
            acc: vec![0i64; n],
            zeros: vec![0u32; n],
        }
    }

    /// Convenience: builds the ratio cache and the accumulator together.
    pub fn from_gain(gain: &GainMatrix, params: &SinrParams) -> (InterferenceRatios, Self) {
        let ratios = InterferenceRatios::new(gain, params);
        let acc = AmortizedAccumulator::new(&ratios);
        (ratios, acc)
    }

    /// Number of links.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the instance has no links.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Whether the log table took the narrow layout: 16-bit far-field
    /// entries plus per-sender near lists (the byte rule in the
    /// [module docs](self)).
    pub fn is_narrow(&self) -> bool {
        matches!(self.rows, LogRows::Narrow { .. })
    }

    /// Current transmission probabilities.
    #[inline]
    pub fn probs(&self) -> &[f64] {
        &self.q
    }

    /// Current transmission probability of link `j`.
    #[inline]
    pub fn prob(&self, j: usize) -> f64 {
        self.q[j]
    }

    /// Resets every probability to 0 — O(n).
    pub fn reset(&mut self) {
        self.q.fill(0.0);
        self.acc.fill(0);
        self.zeros.fill(0);
    }

    /// Adds (`sign = +1`) or retires (`sign = -1`) sender `j`'s
    /// contribution at probability `q`. The full-activation fast path is
    /// one contiguous row add or subtract (no multiply, see the
    /// [module docs](self)); fractional probabilities quantize the row on
    /// the fly (same deterministic f64 → i64 map either way, so a retire
    /// always cancels its apply exactly).
    fn accumulate(&mut self, ratios: &InterferenceRatios, j: usize, q: f64, sign: i64) {
        if q == 0.0 {
            return;
        }
        if q == 1.0 {
            let n = self.n;
            match &self.rows {
                LogRows::Wide(wide) => {
                    let row = &wide[j * n..(j + 1) * n];
                    if sign > 0 {
                        for (a, &log) in self.acc.iter_mut().zip(row) {
                            *a += log;
                        }
                    } else {
                        for (a, &log) in self.acc.iter_mut().zip(row) {
                            *a -= log;
                        }
                    }
                }
                LogRows::Narrow { far, near } => {
                    let row = &far[j * n..(j + 1) * n];
                    if sign > 0 {
                        for (a, &v) in self.acc.iter_mut().zip(row) {
                            *a -= i64::from(v);
                        }
                    } else {
                        for (a, &v) in self.acc.iter_mut().zip(row) {
                            *a += i64::from(v);
                        }
                    }
                    for &(i, log) in &near[j] {
                        self.acc[i as usize] += sign * log;
                    }
                }
            }
            self.count_zeros(j, sign);
            return;
        }
        for i in 0..self.n {
            let rho = ratios.rho(j, i);
            if rho == 0.0 {
                continue;
            }
            match quantized_log_factor(rho, q) {
                Some(ql) => self.acc[i] += sign * ql,
                None => self.zeros[i] = (self.zeros[i] as i64 + sign) as u32,
            }
        }
    }

    /// Adds `sign` to the zero count of every receiver at which sender
    /// `j`'s full-activation factor is exactly zero.
    fn count_zeros(&mut self, j: usize, sign: i64) {
        for &i in &self.zero_receivers[j] {
            let i = i as usize;
            self.zeros[i] = (self.zeros[i] as i64 + sign) as u32;
        }
    }

    /// Changes one probability — O(n), a row add per side.
    pub fn set_prob(&mut self, ratios: &InterferenceRatios, j: usize, q: f64) {
        debug_assert_eq!(ratios.len(), self.n, "ratio cache mismatch");
        assert!((0.0..=1.0).contains(&q), "probability out of range");
        let old = self.q[j];
        if old == q {
            return;
        }
        self.accumulate(ratios, j, old, -1);
        self.accumulate(ratios, j, q, 1);
        self.q[j] = q;
    }

    /// Sets `q_j = 1` (link joins the transmit set) — the slot-churn fast
    /// path: one contiguous row add.
    pub fn insert(&mut self, ratios: &InterferenceRatios, j: usize) {
        self.set_prob(ratios, j, 1.0);
    }

    /// Sets `q_j = 0` (link leaves the transmit set).
    pub fn remove(&mut self, ratios: &InterferenceRatios, j: usize) {
        self.set_prob(ratios, j, 0.0);
    }

    /// [`insert`](Self::insert)s every link of `joins`, then
    /// [`remove`](Self::remove)s every link of `leaves`, and lands on the
    /// state those calls reach: the batch kernel of a transmit-set switch
    /// (module docs). Each join must find its link idle (`q = 0`) and each
    /// leave must find it transmitting (`q = 1`), so neither list repeats
    /// a link; anything else panics. Walks each list once per tile of
    /// 1 024 receivers and allocates nothing.
    pub fn churn<J, L>(&mut self, ratios: &InterferenceRatios, joins: J, leaves: L)
    where
        J: Iterator<Item = usize> + Clone,
        L: Iterator<Item = usize> + Clone,
    {
        debug_assert_eq!(ratios.len(), self.n, "ratio cache mismatch");
        for j in joins.clone() {
            assert!(self.q[j] == 0.0, "link {j} joins but is not idle");
            self.q[j] = 1.0;
        }
        for j in leaves.clone() {
            assert!(self.q[j] == 1.0, "link {j} leaves but does not transmit");
            self.q[j] = 0.0;
        }
        let LogRows::Narrow { far, near } = &self.rows else {
            // Wide rows: the row passes `insert` and `remove` make.
            for j in joins {
                self.accumulate(ratios, j, 1.0, 1);
            }
            for j in leaves {
                self.accumulate(ratios, j, 1.0, -1);
            }
            return;
        };
        let n = self.n;
        for (t, acc) in self.acc.chunks_mut(TILE).enumerate() {
            let tile = t * TILE..t * TILE + acc.len();
            let (mut joined, mut left) = ([0u32; TILE], [0u32; TILE]);
            let joined = &mut joined[..acc.len()];
            let left = &mut left[..acc.len()];
            sum_far_rows(far, n, &tile, joins.clone(), joined);
            sum_far_rows(far, n, &tile, leaves.clone(), left);
            for ((a, &x), &y) in acc.iter_mut().zip(&*joined).zip(&*left) {
                *a += i64::from(y) - i64::from(x);
            }
        }
        for j in joins.clone() {
            for &(i, log) in &near[j] {
                self.acc[i as usize] += log;
            }
        }
        for j in leaves.clone() {
            for &(i, log) in &near[j] {
                self.acc[i as usize] -= log;
            }
        }
        for j in joins {
            self.count_zeros(j, 1);
        }
        for j in leaves {
            self.count_zeros(j, -1);
        }
    }

    /// Replaces the whole probability vector: reset plus a blocked
    /// sender-major rebuild (one row accumulation per active sender, in
    /// index order). Lands on exactly the bits any churn history ending
    /// in `probs` lands on.
    pub fn set_probs(&mut self, ratios: &InterferenceRatios, probs: &[f64]) {
        assert_eq!(probs.len(), self.n, "probability vector length mismatch");
        self.reset();
        for (j, &q) in probs.iter().enumerate() {
            assert!((0.0..=1.0).contains(&q), "probability out of range");
            self.accumulate(ratios, j, q, 1);
            self.q[j] = q;
        }
    }

    /// Interference product `Π_{j≠i, q_j>0} (1 − ρ(j→i)·q_j)` of receiver
    /// `i`, up to log-quantization (module docs).
    #[inline]
    pub fn interference_product(&self, i: usize) -> f64 {
        if self.zeros[i] > 0 {
            0.0
        } else {
            (self.acc[i] as f64 / LOG_SCALE).exp()
        }
    }

    /// Theorem 1 success probability of link `i` under the current
    /// probability vector.
    pub fn success_probability(&self, ratios: &InterferenceRatios, i: usize) -> f64 {
        self.q[i] * self.conditional_success_probability(ratios, i)
    }

    /// Success probability of link `i` conditioned on transmitting
    /// (`q_i` read as 1; `i`'s own diagonal ratio is 0, so its factor
    /// never enters its own product). This is the exact Bernoulli
    /// parameter of the analytic slot resolver — for active links the
    /// realized success, for idle links the counterfactual one.
    #[inline]
    pub fn conditional_success_probability(&self, ratios: &InterferenceRatios, i: usize) -> f64 {
        ratios.noise_factor(i) * self.interference_product(i)
    }

    /// All Theorem 1 success probabilities — O(n).
    pub fn success_probabilities(&self, ratios: &InterferenceRatios) -> Vec<f64> {
        (0..self.n)
            .map(|i| self.success_probability(ratios, i))
            .collect()
    }
}

/// Adds columns `tile` of the 16-bit far-field rows `rows` into `block`,
/// four rows per pass over it, then the one to three rows left over one
/// at a time.
fn sum_far_rows(
    far: &[u16],
    n: usize,
    tile: &Range<usize>,
    rows: impl Iterator<Item = usize>,
    block: &mut [u32],
) {
    let row = |j: usize| &far[j * n + tile.start..j * n + tile.end];
    let mut quad = [0usize; 4];
    let mut held = 0;
    for j in rows {
        quad[held] = j;
        held += 1;
        if held == 4 {
            held = 0;
            let (r0, r1, r2, r3) = (row(quad[0]), row(quad[1]), row(quad[2]), row(quad[3]));
            for ((((s, &a), &b), &c), &d) in block.iter_mut().zip(r0).zip(r1).zip(r2).zip(r3) {
                *s += u32::from(a) + u32::from(b) + u32::from(c) + u32::from(d);
            }
        }
    }
    for &j in &quad[..held] {
        for (s, &a) in block.iter_mut().zip(row(j)) {
            *s += u32::from(a);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ratio::SuccessAccumulator;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ratios4() -> InterferenceRatios {
        let gm = GainMatrix::from_raw(
            4,
            vec![
                10.0, 2.0, 1.0, 0.0, //
                2.0, 8.0, 0.5, 1.0, //
                1.0, 0.5, 12.0, 3.0, //
                0.0, 1.0, 3.0, 9.0,
            ],
        );
        InterferenceRatios::new(&gm, &SinrParams::new(2.0, 1.5, 0.2))
    }

    /// Ratios of `n` links with unit own signals and β = 1, so that the
    /// ratio of a cross gain `s` is `s/(1 + s)`; `gain(j, i)` is the
    /// cross gain of sender `j` at receiver `i`.
    fn ratios_from(n: usize, gain: impl Fn(usize, usize) -> f64) -> InterferenceRatios {
        let mut g = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                g[i * n + j] = if i == j { 1.0 } else { gain(j, i) };
            }
        }
        InterferenceRatios::new(&GainMatrix::from_raw(n, g), &SinrParams::new(2.0, 1.0, 0.1))
    }

    /// The cross gain whose full-activation log quantizes to `log`.
    fn gain_for_log(log: i64) -> f64 {
        let rho = -(log as f64 / LOG_SCALE).exp_m1();
        rho / (1.0 - rho)
    }

    /// A far-field instance of `n` links: every cross gain small enough to
    /// fit in 16 bits, except about one pair in eleven, which is near, and
    /// one exactly-zero factor.
    fn far_field(n: usize) -> InterferenceRatios {
        ratios_from(n, |j, i| match (i + 2 * j) % 11 {
            _ if (j, i) == (1, 0) => 1e300,
            0 => 0.01 * (1 + j % 3) as f64,
            k => 1e-8 * k as f64,
        })
    }

    /// Builds both layouts of the log table over `ratios`.
    fn both_layouts(ratios: &InterferenceRatios) -> [AmortizedAccumulator; 2] {
        let narrow = AmortizedAccumulator::build(ratios, Some(usize::MAX));
        let wide = AmortizedAccumulator::build(ratios, None);
        assert!(narrow.is_narrow() && !wide.is_narrow());
        [narrow, wide]
    }

    /// Sender `j`'s full-activation log at receiver `i`, read back from
    /// whichever layout `acc` has; `None` for an exactly-zero factor.
    fn full_log(acc: &AmortizedAccumulator, j: usize, i: usize) -> Option<i64> {
        if acc.zero_receivers[j].contains(&(i as u32)) {
            return None;
        }
        Some(match &acc.rows {
            LogRows::Wide(wide) => wide[j * acc.n + i],
            LogRows::Narrow { far, near } => match near[j].iter().find(|e| e.0 as usize == i) {
                Some(&(_, log)) => log,
                None => -i64::from(far[j * acc.n + i]),
            },
        })
    }

    /// `k` distinct links of `0..n` drawn from `rng`, outside `avoid`.
    fn distinct(rng: &mut StdRng, n: usize, k: usize, avoid: &[usize]) -> Vec<usize> {
        let mut set = Vec::new();
        while set.len() < k {
            let j = rng.gen_range(0..n);
            if !set.contains(&j) && !avoid.contains(&j) {
                set.push(j);
            }
        }
        set
    }

    #[test]
    fn full_activation_logs_read_back_from_either_layout() {
        let planted = |j: usize, i: usize| match (j, i) {
            (0, 1) => gain_for_log(-65_535),
            (0, 2) => gain_for_log(-65_536),
            (1, 0) => 1e300, // ρ = 1: an exactly-zero factor
            (1, 2) => 0.0,   // ρ = 0
            (3, _) => 0.05,
            _ => 1e-8 * (1 + (i + j) % 7) as f64,
        };
        let ratios = ratios_from(6, planted);
        assert_eq!(quantized_log_factor(ratios.rho(0, 1), 1.0), Some(-65_535));
        assert_eq!(quantized_log_factor(ratios.rho(0, 2), 1.0), Some(-65_536));
        assert_eq!(quantized_log_factor(ratios.rho(1, 0), 1.0), None);
        assert_eq!(ratios.rho(1, 2), 0.0);
        let [narrow, wide] = both_layouts(&ratios);
        let LogRows::Narrow { far, near } = &narrow.rows else {
            unreachable!()
        };
        assert_eq!(far[1], u16::MAX, "−65 535 is the last log that fits");
        assert_eq!(
            near[0],
            vec![(2, -65_536)],
            "−65 536 is the first that does not"
        );
        for acc in [&narrow, &wide, &AmortizedAccumulator::new(&ratios)] {
            for j in 0..6 {
                for i in 0..6 {
                    assert_eq!(
                        full_log(acc, j, i),
                        quantized_log_factor(ratios.rho(j, i), 1.0),
                        "sender {j} at receiver {i}, narrow: {}",
                        acc.is_narrow()
                    );
                }
            }
        }
    }

    #[test]
    fn layout_follows_the_byte_rule() {
        // n = 8 allows n²/8 = 8 near entries. The near pairs are the first
        // `count` off-diagonal entries in receiver order, so a ninth widens
        // the table after the second receiver, mid-build.
        let with_near = |count: usize| {
            ratios_from(8, move |j, i| {
                let k = i * 7 + j - usize::from(j > i);
                if k < count {
                    0.1
                } else {
                    1e-8
                }
            })
        };
        for (count, narrow) in [(0, true), (8, true), (9, false), (30, false)] {
            let ratios = with_near(count);
            let acc = AmortizedAccumulator::new(&ratios);
            assert_eq!(acc.is_narrow(), narrow, "{count} near entries");
            assert_eq!(
                acc,
                AmortizedAccumulator::build(&ratios, narrow.then_some(usize::MAX)),
                "{count} near entries: a widened table equals one built wide"
            );
        }
        assert!(!AmortizedAccumulator::new(&ratios4()).is_narrow());
        assert!(AmortizedAccumulator::new(&far_field(24)).is_narrow());
    }

    #[test]
    fn blocked_insert_equals_row_by_row_insert() {
        let ratios = far_field(24);
        let mut rng = StdRng::seed_from_u64(0x6b);
        for fresh in both_layouts(&ratios) {
            for k in 0..=9 {
                let set = distinct(&mut rng, 24, k, &[]);
                let mut blocked = fresh.clone();
                blocked.churn(&ratios, set.iter().copied(), std::iter::empty());
                let mut rowwise = fresh.clone();
                for &j in &set {
                    rowwise.insert(&ratios, j);
                }
                assert_eq!(blocked, rowwise, "{k} rows, narrow: {}", fresh.is_narrow());
            }
        }
    }

    #[test]
    fn blocked_churn_equals_row_by_row_flips() {
        let ratios = far_field(24);
        let mut rng = StdRng::seed_from_u64(0xc4);
        for fresh in both_layouts(&ratios) {
            for (joining, leaving) in (0..=9).flat_map(|a| (0..=9).map(move |b| (a, b))) {
                // Ten random transmitters, `leaving` of which leave while
                // `joining` idle links join.
                let start = distinct(&mut rng, 24, 10, &[]);
                let leaves = &start[..leaving];
                let joins = distinct(&mut rng, 24, joining, &start);
                let (mut blocked, mut rowwise) = (fresh.clone(), fresh.clone());
                blocked.churn(&ratios, start.iter().copied(), std::iter::empty());
                for &j in &start {
                    rowwise.insert(&ratios, j);
                }
                blocked.churn(&ratios, joins.iter().copied(), leaves.iter().copied());
                for &j in leaves {
                    rowwise.remove(&ratios, j);
                }
                for &j in &joins {
                    rowwise.insert(&ratios, j);
                }
                assert_eq!(
                    blocked,
                    rowwise,
                    "+{joins:?} −{leaves:?}, narrow: {}",
                    fresh.is_narrow()
                );
            }
        }
    }

    #[test]
    fn blocked_churn_spans_receiver_tiles() {
        // More receivers than one tile holds, so the kernel walks a full
        // tile and a partial one.
        let n = TILE + 37;
        let ratios = ratios_from(n, |j, i| {
            if (i + j) % 97 == 0 {
                0.02
            } else {
                1e-9 * (1 + (i * 7 + j) % 13) as f64
            }
        });
        let mut rng = StdRng::seed_from_u64(0x711e);
        let [narrow, _] = both_layouts(&ratios);
        let start = distinct(&mut rng, n, 13, &[]);
        let joins = distinct(&mut rng, n, 7, &start);
        let (mut blocked, mut rowwise) = (narrow.clone(), narrow);
        blocked.churn(&ratios, start.iter().copied(), std::iter::empty());
        blocked.churn(&ratios, joins.iter().copied(), start[..6].iter().copied());
        for &j in start.iter().chain(&joins) {
            rowwise.insert(&ratios, j);
        }
        for &j in &start[..6] {
            rowwise.remove(&ratios, j);
        }
        assert_eq!(blocked, rowwise);
    }

    #[test]
    #[should_panic(expected = "joins but is not idle")]
    fn churn_rejects_a_join_that_already_transmits() {
        let ratios = far_field(8);
        let mut acc = AmortizedAccumulator::new(&ratios);
        acc.churn(&ratios, [2, 5, 2].into_iter(), std::iter::empty());
    }

    #[test]
    fn matches_float_accumulator_within_quantization() {
        let ratios = ratios4();
        let mut amortized = AmortizedAccumulator::new(&ratios);
        let mut float = SuccessAccumulator::new(4);
        let probs = [0.7, 0.0, 1.0, 0.3];
        amortized.set_probs(&ratios, &probs);
        float.set_probs(&ratios, &probs);
        for i in 0..4 {
            let a = amortized.success_probability(&ratios, i);
            let f = float.success_probability(&ratios, i);
            assert!(
                (a - f).abs() <= 1e-10 * f.max(1e-12),
                "link {i}: {a} vs {f}"
            );
            let ac = amortized.conditional_success_probability(&ratios, i);
            let fc = float.conditional_success_probability(&ratios, i);
            assert!((ac - fc).abs() <= 1e-10 * fc.max(1e-12), "link {i}");
        }
    }

    #[test]
    fn churn_is_bit_equal_to_rebuild() {
        for ratios in [ratios4(), far_field(12)] {
            let n = ratios.len();
            let mut churned = AmortizedAccumulator::new(&ratios);
            let mut rng = StdRng::seed_from_u64(7);
            for step in 0..200 {
                let j = rng.gen_range(0..n);
                match rng.gen_range(0..4) {
                    0 => churned.insert(&ratios, j),
                    1 => churned.remove(&ratios, j),
                    2 => churned.set_prob(&ratios, j, rng.gen::<f64>()),
                    _ => churned.set_prob(&ratios, j, [0.0, 1.0, 1e-12, 1.0 - 1e-12][step % 4]),
                }
                let mut rebuilt = AmortizedAccumulator::new(&ratios);
                rebuilt.set_probs(&ratios, churned.probs());
                assert_eq!(
                    churned, rebuilt,
                    "n = {n}, step {step}: churn diverged from rebuild"
                );
            }
        }
    }

    #[test]
    fn zero_factors_round_trip_exactly() {
        // Overwhelming cross gain drives ρ(0→1) to round to exactly 1,
        // so sender 0's factor at receiver 1 is exactly 0 at q = 1 — the
        // zero-count path must round-trip bitwise, product included.
        let gm = GainMatrix::from_raw(2, vec![1.0, 1e-30, 1e300, 1.0]);
        let ratios = InterferenceRatios::new(&gm, &SinrParams::new(2.0, 1.0, 0.0));
        assert_eq!(ratios.rho(0, 1), 1.0, "crafted exact-1 ratio");
        let mut acc = AmortizedAccumulator::new(&ratios);
        let fresh = acc.clone();
        acc.insert(&ratios, 0);
        assert_eq!(acc.conditional_success_probability(&ratios, 1), 0.0);
        acc.insert(&ratios, 1);
        acc.remove(&ratios, 0);
        assert!(acc.conditional_success_probability(&ratios, 1) > 0.0);
        acc.remove(&ratios, 1);
        assert_eq!(acc, fresh, "full churn cycle must return to the start");
    }

    #[test]
    fn mask_flip_fast_path_equals_fractional_path() {
        let ratios = ratios4();
        let mut via_insert = AmortizedAccumulator::new(&ratios);
        via_insert.insert(&ratios, 2);
        let mut via_set = AmortizedAccumulator::new(&ratios);
        via_set.set_prob(&ratios, 2, 0.5);
        via_set.set_prob(&ratios, 2, 1.0);
        assert_eq!(via_insert, via_set);
    }

    #[test]
    fn empty_set_gives_noise_only_probabilities() {
        let ratios = ratios4();
        let acc = AmortizedAccumulator::new(&ratios);
        for i in 0..4 {
            assert_eq!(acc.success_probability(&ratios, i), 0.0, "q_i = 0");
            assert_eq!(
                acc.conditional_success_probability(&ratios, i),
                ratios.noise_factor(i),
                "no interference: conditional success is the noise factor"
            );
        }
    }

    #[test]
    fn set_probs_matches_sequential_set_prob() {
        let ratios = ratios4();
        let probs = [0.25, 1.0, 0.0, 0.9];
        let mut bulk = AmortizedAccumulator::new(&ratios);
        bulk.set_probs(&ratios, &probs);
        let mut seq = AmortizedAccumulator::new(&ratios);
        for (j, &q) in probs.iter().enumerate() {
            seq.set_prob(&ratios, j, q);
        }
        assert_eq!(bulk, seq);
        assert_eq!(bulk.probs(), &probs);
    }
}
