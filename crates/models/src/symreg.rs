//! Genetic-programming symbolic regression — BE-SST's second modeling
//! method (Chenna et al., "Multi-parameter performance modeling using
//! symbolic regression", HPCS 2019).
//!
//! "In the symbolic regression method, the benchmarking data is split into
//! training data and testing data. The training data is used as input to
//! our symbolic regression tool to create models through an iterative
//! process. The testing data is used to evaluate model accuracy at each
//! iteration." (§III-A)
//!
//! The fitter is a conventional Koza-style GP: tournament selection,
//! subtree crossover, point/subtree mutation, MAPE fitness with a
//! parsimony pressure, plus a hill-climbing constant-refinement pass on
//! the incumbent. Everything is seeded and deterministic. Evolution runs
//! on the flat prefix-order [`Genome`] and the column-wise fitness kernel
//! of [`crate::genome`]; only the winner becomes an [`Expr`]. A fit is
//! sequential: callers fan out over independent fits (restarts) instead.

use crate::expr::{BinOp, Expr, UnOp};
use crate::genome::{Columns, Genome, Node};
use crate::stats::mape;
use besst_des::buggify::SplitMix64;

/// A regression dataset: rows of inputs and their targets.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Input rows (each of the same arity).
    pub x: Vec<Vec<f64>>,
    /// Targets (strictly positive — runtimes).
    pub y: Vec<f64>,
}

impl Dataset {
    /// Build and validate.
    pub fn new(x: Vec<Vec<f64>>, y: Vec<f64>) -> Self {
        assert_eq!(x.len(), y.len(), "row count mismatch");
        assert!(!x.is_empty(), "dataset is empty");
        let arity = x[0].len();
        assert!(arity >= 1, "need at least one input column");
        assert!(x.iter().all(|r| r.len() == arity), "ragged input rows");
        assert!(
            y.iter().all(|&v| v.is_finite() && v > 0.0),
            "targets must be finite and positive (runtimes)"
        );
        Dataset { x, y }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True when empty (never, post-construction).
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Input arity.
    pub fn arity(&self) -> usize {
        self.x[0].len()
    }

    /// Select a subset of rows by index.
    pub fn subset(&self, idx: &[usize]) -> Dataset {
        Dataset::new(
            idx.iter().map(|&i| self.x[i].clone()).collect(),
            idx.iter().map(|&i| self.y[i]).collect(),
        )
    }
}

/// GP hyper-parameters.
#[derive(Debug, Clone)]
pub struct SymRegConfig {
    /// Individuals per generation.
    pub population: usize,
    /// Generations to evolve.
    pub generations: usize,
    /// Maximum tree depth for generated/created trees.
    pub max_depth: usize,
    /// Tournament size for selection.
    pub tournament: usize,
    /// Probability an offspring comes from crossover (else mutation).
    pub crossover_prob: f64,
    /// Range for randomly generated constants.
    pub const_range: (f64, f64),
    /// Fitness penalty per tree node, in MAPE percentage points.
    pub parsimony: f64,
    /// RNG seed — same seed, same model.
    pub seed: u64,
}

impl Default for SymRegConfig {
    fn default() -> Self {
        SymRegConfig {
            population: 256,
            generations: 40,
            max_depth: 6,
            tournament: 5,
            crossover_prob: 0.7,
            const_range: (-10.0, 10.0),
            parsimony: 0.02,
            seed: 0xBE57,
        }
    }
}

/// The outcome of a fit.
#[derive(Debug, Clone)]
pub struct SymRegResult {
    /// The best expression found (simplified).
    pub expr: Expr,
    /// MAPE on the training set, percent.
    pub train_mape: f64,
    /// MAPE on the test set, percent (when a test set was given).
    pub test_mape: Option<f64>,
    /// Best raw fitness per generation (for convergence plots).
    pub history: Vec<f64>,
}

fn tournament_select<'a>(
    pop: &'a [(Genome, f64)],
    k: usize,
    rng: &mut SplitMix64,
) -> &'a Genome {
    let mut best: Option<&(Genome, f64)> = None;
    for _ in 0..k {
        let cand = &pop[rng.next_below(pop.len() as u64) as usize];
        if best.is_none_or(|b| cand.1 < b.1) {
            best = Some(cand);
        }
    }
    // lint: allow(panic-path) -- callers pass k >= 1, so one candidate was drawn
    &best.expect("tournament of k >= 1").0
}

/// Keep `child` unless it is deeper than `max_depth + 2` (bloat).
fn unless_bloated(child: Genome, parent: &Genome, max_depth: usize) -> Genome {
    if child.depth() > max_depth + 2 {
        parent.clone()
    } else {
        child
    }
}

fn crossover(a: &Genome, b: &Genome, max_depth: usize, rng: &mut SplitMix64) -> Genome {
    let donor_idx = rng.next_below(b.size() as u64) as usize;
    let target_idx = rng.next_below(a.size() as u64) as usize;
    unless_bloated(a.splice(target_idx, b.subtree(donor_idx)), a, max_depth)
}

fn mutate(a: &Genome, cfg: &SymRegConfig, n_vars: usize, rng: &mut SplitMix64) -> Genome {
    match rng.next_below(3) {
        // Subtree replacement.
        0 => {
            let idx = rng.next_below(a.size() as u64) as usize;
            let sub = Genome::grow(rng, n_vars, 3, cfg.const_range);
            unless_bloated(a.splice(idx, sub.nodes()), a, cfg.max_depth)
        }
        // Constant jitter.
        1 => {
            let consts = a.const_count();
            if consts == 0 {
                Genome::grow(rng, n_vars, cfg.max_depth, cfg.const_range)
            } else {
                let i = rng.next_below(consts as u64) as usize;
                let scale = 1.0 + rng.uniform(-0.3, 0.3);
                let mut child = a.clone();
                child.map_const(i, |c| c * scale + rng.uniform(-0.5, 0.5));
                child
            }
        }
        // Fresh individual (keeps diversity up).
        _ => Genome::grow(rng, n_vars, cfg.max_depth, cfg.const_range),
    }
}

/// Hill-climb the constants of `g`, whose fitness is `fit`, against
/// `data` (a few rounds of multiplicative and additive probes per
/// constant, each rewriting one `Const` slot of a copy in place).
fn refine_constants(
    (g, fit): &(Genome, f64),
    data: &Columns,
    parsimony: f64,
) -> (Genome, f64) {
    let mut best = g.clone();
    let mut best_fit = *fit;
    // Rewrite constant `k` with `f`; keep the rewrite if fitness improves.
    let mut probe = |best: &mut Genome, k: usize, f: &dyn Fn(f64) -> f64| -> bool {
        let old = best.map_const(k, f);
        let fit = data.fitness(best, parsimony);
        if fit < best_fit {
            best_fit = fit;
            true
        } else {
            best.map_const(k, |_| old);
            false
        }
    };
    for _ in 0..4 {
        let mut improved = false;
        for k in 0..best.const_count() {
            for step in [1.1, 0.9, 1.01, 0.99] {
                improved |= probe(&mut best, k, &|c| c * step);
            }
            for delta in [0.1, -0.1] {
                improved |= probe(&mut best, k, &|c| c + delta);
            }
        }
        if !improved {
            break;
        }
    }
    (best, best_fit)
}

/// Fit an expression to `train`; report accuracy on `test` when given.
///
/// Inputs are normalized per-column (divided by the column mean) and
/// targets by their geometric mean before evolution — runtimes and
/// parameters span orders of magnitude and GP constants do not. The
/// returned expression has the normalization folded back in and evaluates
/// on *raw* inputs.
pub fn fit(train: &Dataset, test: Option<&Dataset>, cfg: &SymRegConfig) -> SymRegResult {
    assert!(cfg.population >= 4, "population too small");
    assert!(cfg.tournament >= 1, "tournament size must be >= 1");
    let n_vars = train.arity();

    // Normalization: x'_i = x_i / mean_i, y' = y / geomean(y).
    let x_mean: Vec<f64> = (0..n_vars)
        .map(|d| {
            let m = train.x.iter().map(|r| r[d].abs()).sum::<f64>() / train.len() as f64;
            if m > 0.0 {
                m
            } else {
                1.0
            }
        })
        .collect();
    let y_scale = (train.y.iter().map(|v| v.ln()).sum::<f64>() / train.len() as f64).exp();
    let norm = Dataset::new(
        train
            .x
            .iter()
            .map(|r| r.iter().zip(&x_mean).map(|(v, m)| v / m).collect())
            .collect(),
        train.y.iter().map(|v| v / y_scale).collect(),
    );
    let raw_train = train;
    let train = Columns::new(&norm);
    let mut rng = SplitMix64::new(cfg.seed);

    // Initial population: ramped random trees plus seeded templates —
    // the bare variables and the product/power shapes that dominate HPC
    // runtime models (xᵢ³, xᵢ·xⱼ, xᵢ³·log xⱼ, ...). Seeding priors is
    // standard GP practice and costs nothing: bad seeds die in one
    // generation.
    use Node::{Bin, Const, Un, Var};
    let mut seeds: Vec<Genome> = Vec::new();
    for i in 0..n_vars {
        seeds.push(Genome::new(vec![Var(i)]));
        for op in [UnOp::Cube, UnOp::Sq, UnOp::Sqrt, UnOp::Log] {
            seeds.push(Genome::new(vec![Un(op), Var(i)]));
        }
        let cube_i_times = [Bin(BinOp::Mul), Un(UnOp::Cube), Var(i)];
        for j in (0..n_vars).filter(|&j| j != i) {
            seeds.push(Genome::new(vec![Bin(BinOp::Mul), Var(i), Var(j)]));
            for shape in [UnOp::Log, UnOp::Sqrt] {
                seeds.push(Genome::new([&cube_i_times[..], &[Un(shape), Var(j)]].concat()));
            }
            // c·xᵢ³·(1 + d·log xⱼ) — weak multiplicative correction.
            let correction =
                [Bin(BinOp::Add), Const(1.0), Bin(BinOp::Mul), Const(0.1), Un(UnOp::Log), Var(j)];
            seeds.push(Genome::new([&cube_i_times[..], &correction[..]].concat()));
        }
    }
    seeds.truncate(cfg.population / 2);
    while seeds.len() < cfg.population {
        let depth = rng.range_inclusive(2, cfg.max_depth as u64) as usize;
        seeds.push(Genome::grow(&mut rng, n_vars, depth, cfg.const_range));
    }

    let score = |g: Genome| {
        let f = train.fitness(&g, cfg.parsimony);
        (g, f)
    };
    let mut pop: Vec<(Genome, f64)> = seeds.into_iter().map(score).collect();
    let mut history = Vec::with_capacity(cfg.generations);

    for gen in 0..cfg.generations {
        pop.sort_by(|a, b| a.1.total_cmp(&b.1));
        history.push(pop[0].1);

        // Elitism: the incumbent survives, and every fifth generation a
        // copy with refined constants joins it.
        let mut next = Vec::with_capacity(cfg.population);
        next.push(pop[0].clone());
        if gen % 5 == 4 {
            next.push(refine_constants(&pop[0], &train, cfg.parsimony));
        }
        while next.len() < cfg.population {
            let child = if rng.chance(cfg.crossover_prob) {
                let a = tournament_select(&pop, cfg.tournament, &mut rng);
                let b = tournament_select(&pop, cfg.tournament, &mut rng);
                crossover(a, b, cfg.max_depth, &mut rng)
            } else {
                let a = tournament_select(&pop, cfg.tournament, &mut rng);
                mutate(a, cfg, n_vars, &mut rng)
            };
            next.push(score(child));
        }
        pop = next;
    }

    pop.sort_by(|a, b| a.1.total_cmp(&b.1));
    let best_norm = refine_constants(&pop[0], &train, cfg.parsimony).0.to_expr().simplify();

    // Fold the normalization back in: best(x) = y_scale * best'(x / mean).
    let inv_scales: Vec<f64> = x_mean.iter().map(|m| 1.0 / m).collect();
    let best = Expr::Binary(
        BinOp::Mul,
        Box::new(Expr::Const(y_scale)),
        Box::new(best_norm.scale_inputs(&inv_scales)),
    )
    .simplify();

    let predict_all = |d: &Dataset| -> Vec<f64> { d.x.iter().map(|r| best.eval(r)).collect() };
    let train_mape = mape(&predict_all(raw_train), &raw_train.y);
    let test_mape = test.map(|t| mape(&predict_all(t), &t.y));
    SymRegResult { expr: best, train_mape, test_mape, history }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(seed: u64) -> SymRegConfig {
        SymRegConfig { population: 128, generations: 25, seed, ..Default::default() }
    }

    fn dataset_from(f: impl Fn(&[f64]) -> f64, rows: &[Vec<f64>]) -> Dataset {
        let y = rows.iter().map(|r| f(r)).collect();
        Dataset::new(rows.to_vec(), y)
    }

    fn grid2(xs: &[f64], ys: &[f64]) -> Vec<Vec<f64>> {
        let mut rows = Vec::new();
        for &a in xs {
            for &b in ys {
                rows.push(vec![a, b]);
            }
        }
        rows
    }

    #[test]
    fn recovers_linear_relationship() {
        let rows = grid2(&[1.0, 2.0, 3.0, 4.0, 5.0], &[1.0, 2.0, 3.0]);
        let d = dataset_from(|r| 3.0 * r[0] + 2.0, &rows);
        let res = fit(&d, None, &quick_cfg(11));
        assert!(res.train_mape < 5.0, "MAPE {} expr {}", res.train_mape, res.expr);
    }

    #[test]
    fn recovers_multiplicative_relationship() {
        let rows = grid2(&[1.0, 2.0, 4.0, 8.0], &[1.0, 3.0, 9.0]);
        let d = dataset_from(|r| r[0] * r[1], &rows);
        let res = fit(&d, None, &quick_cfg(5));
        assert!(res.train_mape < 5.0, "MAPE {} expr {}", res.train_mape, res.expr);
    }

    #[test]
    fn approximates_cubic_scaling() {
        // The LULESH shape: work ~ epr^3.
        let rows: Vec<Vec<f64>> = [5.0, 10.0, 15.0, 20.0, 25.0].iter().map(|&e| vec![e]).collect();
        let d = dataset_from(|r| 1e-4 * r[0] * r[0] * r[0] + 0.01, &rows);
        let res = fit(&d, None, &quick_cfg(7));
        assert!(res.train_mape < 10.0, "MAPE {} expr {}", res.train_mape, res.expr);
    }

    #[test]
    fn fit_is_deterministic_per_seed() {
        let rows = grid2(&[1.0, 2.0, 3.0], &[1.0, 2.0]);
        let d = dataset_from(|r| r[0] + r[1], &rows);
        let a = fit(&d, None, &quick_cfg(99));
        let b = fit(&d, None, &quick_cfg(99));
        assert_eq!(a.expr, b.expr);
        assert_eq!(a.train_mape, b.train_mape);
    }

    #[test]
    fn test_split_reported() {
        let rows = grid2(&[1.0, 2.0, 3.0, 4.0], &[1.0, 2.0, 3.0]);
        let d = dataset_from(|r| 2.0 * r[0] + r[1], &rows);
        let (tr, te) = crate::stats::train_test_split(d.len(), 0.25, 1);
        let res = fit(&d.subset(&tr), Some(&d.subset(&te)), &quick_cfg(3));
        let tm = res.test_mape.expect("test set given");
        assert!(tm < 25.0, "test MAPE {tm}");
    }

    #[test]
    fn history_is_monotone_nonincreasing() {
        let rows = grid2(&[1.0, 2.0, 3.0], &[1.0, 2.0]);
        let d = dataset_from(|r| r[0] * 5.0 + r[1], &rows);
        let res = fit(&d, None, &quick_cfg(21));
        for w in res.history.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "elitism guarantees monotonicity: {:?}", res.history);
        }
    }

    #[test]
    fn noisy_targets_still_fit_trend() {
        // Deterministic pseudo-noise; the fitter should land near the trend.
        let rows = grid2(&[1.0, 2.0, 3.0, 4.0, 5.0], &[2.0, 4.0]);
        let d = dataset_from(
            |r| (10.0 * r[0] + r[1]) * (1.0 + 0.05 * ((r[0] * 7.0 + r[1]).sin())),
            &rows,
        );
        let res = fit(&d, None, &quick_cfg(13));
        assert!(res.train_mape < 12.0, "MAPE {}", res.train_mape);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn dataset_rejects_nonpositive_targets() {
        Dataset::new(vec![vec![1.0]], vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn dataset_rejects_ragged_rows() {
        Dataset::new(vec![vec![1.0], vec![1.0, 2.0]], vec![1.0, 1.0]);
    }
}
