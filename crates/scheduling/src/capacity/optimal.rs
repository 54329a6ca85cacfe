//! Reference optima: exact branch-and-bound and randomized local search.
//!
//! The paper benchmarks its learning dynamics against "the optimal set of
//! sending links under uniform powers" (Sec. 7, 49.75 successes on the
//! Figure 1 networks). The paper does not say how that optimum was
//! computed; we provide an exact solver for small instances and a strong
//! multi-restart local search for the 100-link networks (see DESIGN.md,
//! substitution notes).

use super::{CapacityAlgorithm, CapacityInstance};
use crate::capacity::greedy::RayleighGreedy;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayfade_sinr::{Affectance, InterferenceRatios, SuccessAccumulator};
use serde::{Deserialize, Serialize};

/// Exact maximum-weight feasible set via depth-first branch-and-bound.
///
/// Feasibility is tracked incrementally through unclipped affectance sums,
/// which is exact (see `rayfade_sinr::affectance`). Worst-case exponential;
/// intended for `n ≲ 30`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExactCapacity {
    /// Hard limit on instance size; larger instances panic rather than
    /// silently hang. Defaults to 30.
    pub max_links: usize,
}

impl Default for ExactCapacity {
    fn default() -> Self {
        ExactCapacity { max_links: 30 }
    }
}

struct BnB<'a> {
    inst: &'a CapacityInstance<'a>,
    aff: Affectance,
    order: Vec<usize>,
    /// Suffix weight sums for pruning: `suffix[k]` = total weight of
    /// `order[k..]` (counting only links feasible alone).
    suffix: Vec<f64>,
    best: Vec<usize>,
    best_weight: f64,
}

impl BnB<'_> {
    fn run(&mut self) {
        let mut chosen = Vec::new();
        let mut cur_in = vec![0.0; self.inst.len()];
        self.dfs(0, 0.0, &mut chosen, &mut cur_in);
    }

    fn dfs(&mut self, k: usize, weight: f64, chosen: &mut Vec<usize>, cur_in: &mut [f64]) {
        if weight > self.best_weight {
            self.best_weight = weight;
            self.best = chosen.clone();
        }
        if k == self.order.len() {
            return;
        }
        // Prune: even taking every remaining link cannot beat the best.
        if weight + self.suffix[k] <= self.best_weight {
            return;
        }
        let i = self.order[k];
        // Branch 1: include i, if it keeps the partial set feasible.
        if self.aff.feasible_alone(i) && self.inst.weight(i) > 0.0 {
            let mut in_i = 0.0;
            let mut ok = true;
            for &j in chosen.iter() {
                in_i += self.aff.get_unclipped(j, i);
                if in_i > 1.0 {
                    ok = false;
                    break;
                }
            }
            if ok {
                for &j in chosen.iter() {
                    if cur_in[j] + self.aff.get_unclipped(i, j) > 1.0 {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                for &j in chosen.iter() {
                    cur_in[j] += self.aff.get_unclipped(i, j);
                }
                cur_in[i] = in_i;
                chosen.push(i);
                self.dfs(k + 1, weight + self.inst.weight(i), chosen, cur_in);
                chosen.pop();
                for &j in chosen.iter() {
                    cur_in[j] -= self.aff.get_unclipped(i, j);
                }
                cur_in[i] = 0.0;
            }
        }
        // Branch 2: exclude i.
        self.dfs(k + 1, weight, chosen, cur_in);
    }
}

impl CapacityAlgorithm for ExactCapacity {
    fn name(&self) -> &str {
        "exact-bnb"
    }

    fn select(&self, inst: &CapacityInstance<'_>) -> Vec<usize> {
        assert!(
            inst.len() <= self.max_links,
            "exact solver limited to {} links (got {}); raise max_links explicitly if you \
             accept exponential runtime",
            self.max_links,
            inst.len()
        );
        let aff = Affectance::new(inst.gain, inst.params);
        // Heaviest-first ordering makes the weight bound bite early.
        let mut order: Vec<usize> = (0..inst.len()).collect();
        // total_cmp: NaN weights order deterministically instead of
        // aborting; the include-branch guard (`weight(i) > 0.0`) already
        // keeps them out of the solution.
        order.sort_by(|&a, &b| inst.weight(b).total_cmp(&inst.weight(a)).then(a.cmp(&b)));
        let mut suffix = vec![0.0; order.len() + 1];
        for k in (0..order.len()).rev() {
            let i = order[k];
            let w = if aff.feasible_alone(i) {
                inst.weight(i)
            } else {
                0.0
            };
            suffix[k] = suffix[k + 1] + w;
        }
        let mut bnb = BnB {
            inst,
            aff,
            order,
            suffix,
            best: Vec::new(),
            best_weight: 0.0,
        };
        bnb.run();
        let mut best = bnb.best;
        best.sort_unstable();
        best
    }
}

/// Multi-restart randomized local search for large instances.
///
/// Each restart builds a feasible set greedily in a random order, then
/// alternates add-moves (insert any link that keeps the set feasible) and
/// 1-swap moves (replace one member by one non-member of strictly larger
/// weight, or of equal weight to diversify) until no move improves.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LocalSearchCapacity {
    /// Number of random restarts.
    pub restarts: usize,
    /// RNG seed (restarts derive their own streams).
    pub seed: u64,
    /// Maximum improvement sweeps per restart.
    pub max_sweeps: usize,
}

impl Default for LocalSearchCapacity {
    fn default() -> Self {
        LocalSearchCapacity {
            restarts: 8,
            seed: 0x5eed,
            max_sweeps: 50,
        }
    }
}

impl LocalSearchCapacity {
    fn greedy_in_order(
        inst: &CapacityInstance<'_>,
        aff: &Affectance,
        order: &[usize],
    ) -> (Vec<usize>, Vec<f64>) {
        let mut chosen: Vec<usize> = Vec::new();
        let mut cur_in = vec![0.0; inst.len()];
        for &i in order {
            Self::try_add(inst, aff, i, &mut chosen, &mut cur_in);
        }
        (chosen, cur_in)
    }

    fn greedy_random_order(
        inst: &CapacityInstance<'_>,
        aff: &Affectance,
        rng: &mut StdRng,
    ) -> (Vec<usize>, Vec<f64>) {
        let n = inst.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(rng);
        Self::greedy_in_order(inst, aff, &order)
    }

    /// Peeling construction: start from every eligible link and repeatedly
    /// evict the worst offender (the link radiating the most affectance
    /// onto currently-violated links, plus its own violation) until the
    /// set is feasible. On dense instances with a low threshold this lands
    /// much closer to the maximum than any insertion order.
    fn greedy_peel(inst: &CapacityInstance<'_>, aff: &Affectance) -> (Vec<usize>, Vec<f64>) {
        let n = inst.len();
        let mut member: Vec<bool> = (0..n)
            .map(|i| aff.feasible_alone(i) && inst.weight(i) > 0.0)
            .collect();
        // Incoming unclipped affectance of each member from all members.
        let mut cur_in = vec![0.0; n];
        for i in 0..n {
            if member[i] {
                cur_in[i] = (0..n)
                    .filter(|&j| member[j] && j != i)
                    .map(|j| aff.get_unclipped(j, i))
                    .sum();
            }
        }
        loop {
            let violated: Vec<usize> = (0..n).filter(|&i| member[i] && cur_in[i] > 1.0).collect();
            if violated.is_empty() {
                break;
            }
            // Evict the member most responsible for the violations,
            // discounted by its weight.
            let mut worst = usize::MAX;
            let mut worst_score = f64::NEG_INFINITY;
            for i in 0..n {
                if !member[i] {
                    continue;
                }
                let mut s: f64 = violated
                    .iter()
                    .filter(|&&v| v != i)
                    .map(|&v| aff.get_unclipped(i, v))
                    .sum();
                if cur_in[i] > 1.0 {
                    s += cur_in[i] - 1.0;
                }
                let s = s / inst.weight(i).max(1e-12);
                if s > worst_score {
                    worst_score = s;
                    worst = i;
                }
            }
            debug_assert!(worst != usize::MAX);
            member[worst] = false;
            cur_in[worst] = 0.0;
            for i in 0..n {
                if member[i] && i != worst {
                    cur_in[i] -= aff.get_unclipped(worst, i);
                }
            }
        }
        let chosen: Vec<usize> = (0..n).filter(|&i| member[i]).collect();
        (chosen, cur_in)
    }

    /// Least-conflicting-first construction: links are added in ascending
    /// order of their total (clipped) affectance exchange with all other
    /// links. On dense instances this beats random orders by a wide
    /// margin — low-conflict links block few others.
    fn greedy_conflict_order(
        inst: &CapacityInstance<'_>,
        aff: &Affectance,
    ) -> (Vec<usize>, Vec<f64>) {
        let n = inst.len();
        let mut score = vec![0.0f64; n];
        for (i, s) in score.iter_mut().enumerate() {
            for j in 0..n {
                if j != i {
                    *s += aff.get(j, i) + aff.get(i, j);
                }
            }
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| score[a].total_cmp(&score[b]).then(a.cmp(&b)));
        Self::greedy_in_order(inst, aff, &order)
    }

    /// Adds `i` to the set when feasible; returns whether it was added.
    fn try_add(
        inst: &CapacityInstance<'_>,
        aff: &Affectance,
        i: usize,
        chosen: &mut Vec<usize>,
        cur_in: &mut [f64],
    ) -> bool {
        // `strictly_positive` rather than `w <= 0`: it also rejects NaN weights.
        if chosen.contains(&i)
            || !aff.feasible_alone(i)
            || !crate::capacity::strictly_positive(inst.weight(i))
        {
            return false;
        }
        let mut in_i = 0.0;
        for &j in chosen.iter() {
            in_i += aff.get_unclipped(j, i);
            if in_i > 1.0 {
                return false;
            }
        }
        for &j in chosen.iter() {
            if cur_in[j] + aff.get_unclipped(i, j) > 1.0 {
                return false;
            }
        }
        for &j in chosen.iter() {
            cur_in[j] += aff.get_unclipped(i, j);
        }
        cur_in[i] = in_i;
        chosen.push(i);
        true
    }

    fn remove(aff: &Affectance, i: usize, chosen: &mut Vec<usize>, cur_in: &mut [f64]) {
        let pos = chosen.iter().position(|&x| x == i).expect("member");
        chosen.swap_remove(pos);
        for &j in chosen.iter() {
            cur_in[j] -= aff.get_unclipped(i, j);
        }
        cur_in[i] = 0.0;
    }
}

impl CapacityAlgorithm for LocalSearchCapacity {
    fn name(&self) -> &str {
        "local-search"
    }

    fn select(&self, inst: &CapacityInstance<'_>) -> Vec<usize> {
        let n = inst.len();
        if n == 0 {
            return Vec::new();
        }
        let aff = Affectance::new(inst.gain, inst.params);
        let mut best: Vec<usize> = Vec::new();
        let mut best_weight = -1.0;
        for r in 0..self.restarts.max(1) {
            let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(r as u64));
            // The first restarts use deterministic constructions
            // (least-conflicting-first insertion, then peeling); later
            // restarts explore random insertion orders.
            let (mut chosen, mut cur_in) = match r {
                0 => Self::greedy_conflict_order(inst, &aff),
                1 => Self::greedy_peel(inst, &aff),
                _ => Self::greedy_random_order(inst, &aff, &mut rng),
            };
            for _sweep in 0..self.max_sweeps {
                let mut improved = false;
                // Add moves.
                let mut outside: Vec<usize> = (0..n).filter(|i| !chosen.contains(i)).collect();
                outside.shuffle(&mut rng);
                for i in outside {
                    if Self::try_add(inst, &aff, i, &mut chosen, &mut cur_in) {
                        improved = true;
                    }
                }
                // 1-swap moves: pull one member, try to add two (or one
                // heavier) outsiders.
                let members = chosen.clone();
                for &m in &members {
                    if !chosen.contains(&m) {
                        continue;
                    }
                    Self::remove(&aff, m, &mut chosen, &mut cur_in);
                    let before = inst.total_weight(&chosen) + inst.weight(m);
                    let mut added = Vec::new();
                    let mut outside: Vec<usize> =
                        (0..n).filter(|i| !chosen.contains(i) && *i != m).collect();
                    outside.shuffle(&mut rng);
                    for i in outside {
                        if Self::try_add(inst, &aff, i, &mut chosen, &mut cur_in) {
                            added.push(i);
                        }
                    }
                    let after = inst.total_weight(&chosen);
                    if after > before + 1e-12 {
                        improved = true;
                    } else {
                        // Roll back: remove what we added, re-insert m.
                        for &i in &added {
                            Self::remove(&aff, i, &mut chosen, &mut cur_in);
                        }
                        let ok = Self::try_add(inst, &aff, m, &mut chosen, &mut cur_in);
                        debug_assert!(ok, "re-inserting a removed member must succeed");
                    }
                }
                if !improved {
                    break;
                }
            }
            let w = inst.total_weight(&chosen);
            if w > best_weight {
                best_weight = w;
                best = chosen;
            }
        }
        best.sort_unstable();
        best
    }
}

/// Local search on the *Rayleigh* objective `Σ_i w_i·Q_i` (Theorem 1):
/// greedy construction ([`RayleighGreedy`]) followed by add and 1-swap
/// improvement sweeps, all scored incrementally through the cached
/// [`InterferenceRatios`] so one candidate evaluation costs O(n).
///
/// Like [`RayleighGreedy`] this maximizes a stochastic objective and does
/// not promise non-fading feasibility, so it is not a
/// [`CapacityAlgorithm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RayleighLocalSearch {
    /// Maximum improvement sweeps after the greedy construction.
    pub max_sweeps: usize,
}

impl Default for RayleighLocalSearch {
    fn default() -> Self {
        RayleighLocalSearch { max_sweeps: 50 }
    }
}

impl RayleighLocalSearch {
    /// Local search with the default sweep budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects a transmit set by greedy construction plus add/1-swap
    /// improvement on `Σ w_i·Q_i`. NaN or non-positive weights exclude a
    /// link.
    pub fn select(&self, inst: &CapacityInstance<'_>) -> Vec<usize> {
        let ratios = InterferenceRatios::new(inst.gain, inst.params);
        let n = inst.len();
        let mut acc = SuccessAccumulator::new(n);
        for &i in &RayleighGreedy::new().select_with_ratios(&ratios, inst.weights) {
            acc.insert(&ratios, i);
        }
        for _sweep in 0..self.max_sweeps {
            let mut improved = false;
            // Add moves: any silent link with a positive marginal gain.
            for j in 0..n {
                if acc.prob(j) != 0.0 || !crate::capacity::strictly_positive(inst.weight(j)) {
                    continue;
                }
                if acc.activation_gain(&ratios, inst.weights, j) > 1e-12 {
                    acc.insert(&ratios, j);
                    improved = true;
                }
            }
            // 1-swap moves: for each member, check whether some outsider
            // is worth strictly more in its place.
            for m in 0..n {
                if acc.prob(m) == 0.0 {
                    continue;
                }
                acc.remove(&ratios, m);
                let regain = acc.activation_gain(&ratios, inst.weights, m);
                let mut best: Option<(usize, f64)> = None;
                for j in 0..n {
                    if j == m
                        || acc.prob(j) != 0.0
                        || !crate::capacity::strictly_positive(inst.weight(j))
                    {
                        continue;
                    }
                    let g = acc.activation_gain(&ratios, inst.weights, j);
                    if best.is_none_or(|(_, b)| g.total_cmp(&b).is_gt()) {
                        best = Some((j, g));
                    }
                }
                match best {
                    Some((j, g)) if g > regain + 1e-12 => {
                        acc.insert(&ratios, j);
                        improved = true;
                    }
                    _ => {
                        acc.insert(&ratios, m);
                    }
                }
            }
            if !improved {
                break;
            }
        }
        (0..n).filter(|&i| acc.prob(i) != 0.0).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayfade_geometry::PaperTopology;
    use rayfade_sinr::{is_feasible, GainMatrix, PowerAssignment, SinrParams};

    fn paper_instance(seed: u64, n: usize) -> (GainMatrix, SinrParams) {
        let net = PaperTopology {
            links: n,
            side: 400.0,
            min_length: 20.0,
            max_length: 40.0,
        }
        .generate(seed);
        let params = SinrParams::figure1();
        let gm = GainMatrix::from_geometry(&net, &PowerAssignment::figure1_uniform(), params.alpha);
        (gm, params)
    }

    #[test]
    fn exact_solves_tiny_instances() {
        // 0-1 conflict, 2 free: optimum is {0 or 1} + {2} -> size 2.
        let gm = GainMatrix::from_raw(
            3,
            vec![
                10.0, 9.0, 1e-6, //
                9.0, 10.0, 1e-6, //
                1e-6, 1e-6, 5.0,
            ],
        );
        let params = SinrParams::new(2.0, 2.0, 0.0);
        let set = ExactCapacity::default().select(&CapacityInstance::unweighted(&gm, &params));
        assert_eq!(set.len(), 2);
        assert!(set.contains(&2));
        assert!(is_feasible(&gm, &params, &set));
    }

    #[test]
    fn exact_respects_weights() {
        // Link 0 alone outweighs {1, 2} together.
        let gm = GainMatrix::from_raw(
            3,
            vec![
                10.0, 9.0, 9.0, //
                9.0, 10.0, 1e-6, //
                9.0, 1e-6, 10.0,
            ],
        );
        let params = SinrParams::new(2.0, 2.0, 0.0);
        let w = vec![10.0, 1.0, 1.0];
        let set = ExactCapacity::default().select(&CapacityInstance::weighted(&gm, &params, &w));
        assert_eq!(set, vec![0]);
        // With unit weights the pair {1, 2} wins.
        let set = ExactCapacity::default().select(&CapacityInstance::unweighted(&gm, &params));
        assert_eq!(set, vec![1, 2]);
    }

    #[test]
    fn exact_beats_or_matches_greedy_and_local_search() {
        use crate::capacity::greedy::GreedyCapacity;
        for seed in 0..4 {
            let (gm, params) = paper_instance(seed, 14);
            let inst = CapacityInstance::unweighted(&gm, &params);
            let exact = ExactCapacity::default().select(&inst);
            let greedy = GreedyCapacity::new().select(&inst);
            let ls = LocalSearchCapacity::default().select(&inst);
            assert!(is_feasible(&gm, &params, &exact));
            assert!(exact.len() >= greedy.len(), "seed {seed}");
            assert!(exact.len() >= ls.len(), "seed {seed}");
            // Local search should also never lose to plain greedy by much;
            // on these small instances it typically matches the optimum.
            assert!(ls.len() + 2 >= exact.len(), "seed {seed}");
        }
    }

    #[test]
    fn local_search_output_is_feasible() {
        let (gm, params) = paper_instance(5, 60);
        let inst = CapacityInstance::unweighted(&gm, &params);
        let set = LocalSearchCapacity {
            restarts: 3,
            ..LocalSearchCapacity::default()
        }
        .select(&inst);
        assert!(is_feasible(&gm, &params, &set));
        assert!(!set.is_empty());
    }

    #[test]
    fn local_search_is_deterministic_per_seed() {
        let (gm, params) = paper_instance(6, 40);
        let inst = CapacityInstance::unweighted(&gm, &params);
        let alg = LocalSearchCapacity {
            restarts: 2,
            seed: 99,
            max_sweeps: 10,
        };
        assert_eq!(alg.select(&inst), alg.select(&inst));
    }

    #[test]
    fn nan_weight_does_not_abort_solvers() {
        // Regression: the BnB weight sort and the conflict-order score
        // sort both panicked on NaN via partial_cmp().expect(...).
        let gm = GainMatrix::from_raw(
            3,
            vec![
                10.0, 1e-6, 1e-6, //
                1e-6, 10.0, 1e-6, //
                1e-6, 1e-6, 10.0,
            ],
        );
        let params = SinrParams::new(2.0, 2.0, 0.1);
        let w = vec![2.0, f64::NAN, 1.0];
        let inst = CapacityInstance::weighted(&gm, &params, &w);
        let mut exact = ExactCapacity::default().select(&inst);
        exact.sort_unstable();
        assert_eq!(exact, vec![0, 2], "NaN-weighted link must be dropped");
        let mut ls = LocalSearchCapacity::default().select(&inst);
        ls.sort_unstable();
        assert_eq!(ls, vec![0, 2]);
    }

    #[test]
    fn rayleigh_local_search_never_loses_to_rayleigh_greedy() {
        use crate::capacity::greedy::RayleighGreedy;
        /// Scratch Theorem 1 objective, independent of the accumulator.
        fn objective(gm: &GainMatrix, params: &SinrParams, set: &[usize]) -> f64 {
            let beta = params.beta;
            set.iter()
                .map(|&i| {
                    let s_ii = gm.signal(i);
                    if s_ii == 0.0 {
                        return 0.0;
                    }
                    let mut p = (-beta * params.noise / s_ii).exp();
                    for &j in set {
                        let s_ji = gm.gain(j, i);
                        if j != i && s_ji != 0.0 {
                            p *= 1.0 - beta / (beta + s_ii / s_ji);
                        }
                    }
                    p
                })
                .sum()
        }
        for seed in 0..3 {
            let (gm, params) = paper_instance(seed, 25);
            let inst = CapacityInstance::unweighted(&gm, &params);
            let greedy = RayleighGreedy::new().select(&inst);
            let ls = RayleighLocalSearch::new().select(&inst);
            let g_obj = objective(&gm, &params, &greedy);
            let ls_obj = objective(&gm, &params, &ls);
            assert!(
                ls_obj >= g_obj - 1e-9,
                "seed {seed}: local search {ls_obj} < greedy {g_obj}"
            );
            assert_eq!(
                ls,
                RayleighLocalSearch::new().select(&inst),
                "deterministic"
            );
        }
    }

    #[test]
    fn rayleigh_local_search_skips_nan_weights() {
        let gm = GainMatrix::from_raw(
            2,
            vec![
                10.0, 1e-6, //
                1e-6, 10.0,
            ],
        );
        let params = SinrParams::new(2.0, 2.0, 0.0);
        let w = vec![f64::NAN, 1.0];
        let inst = CapacityInstance::weighted(&gm, &params, &w);
        assert_eq!(RayleighLocalSearch::new().select(&inst), vec![1]);
    }

    #[test]
    #[should_panic(expected = "exact solver limited")]
    fn exact_guards_instance_size() {
        let (gm, params) = paper_instance(0, 40);
        let _ = ExactCapacity { max_links: 30 }.select(&CapacityInstance::unweighted(&gm, &params));
    }

    #[test]
    fn empty_instances() {
        let gm = GainMatrix::from_raw(0, vec![]);
        let params = SinrParams::new(2.0, 1.0, 0.0);
        let inst = CapacityInstance::unweighted(&gm, &params);
        assert!(ExactCapacity::default().select(&inst).is_empty());
        assert!(LocalSearchCapacity::default().select(&inst).is_empty());
    }
}
