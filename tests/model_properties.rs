//! Property tests for the performance-model layer: interpolation bounds,
//! metric invariants, expression semantics, and fit determinism.

use besst::models::genome::{Columns, Genome, Node};
use besst::models::{
    mape, powerlaw, quantile, r_squared, symreg, train_test_split, Dataset, Expr, Interpolation,
    PerfModel, SampleTable, SymRegConfig,
};
use besst_des::buggify::SplitMix64;
use common::{check, vec_of};

mod common;

const CASES: u64 = 64;

/// Multilinear interpolation of a 1-D table stays within the convex
/// hull of the recorded sample means for in-range queries.
#[test]
fn interpolation_stays_in_hull() {
    check("interpolation_stays_in_hull", CASES, |g| {
        let values = vec_of(g, 2..8, |g| g.uniform(0.001, 1000.0));
        let query_t = g.next_f64();
        let mut table = SampleTable::new(&["x"], Interpolation::Multilinear);
        for (i, &v) in values.iter().enumerate() {
            table.insert(&[i as f64], v);
        }
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let x = query_t * (values.len() - 1) as f64;
        let p = table.predict(&[x]);
        assert!(p >= lo - 1e-9 && p <= hi + 1e-9, "{p} outside [{lo}, {hi}]");
    });
}

/// Out-of-hull queries clamp to the edge values.
#[test]
fn interpolation_clamps_outside_hull() {
    check("interpolation_clamps_outside_hull", CASES, |g| {
        let (a, b) = (g.uniform(0.1, 10.0), g.uniform(0.1, 10.0));
        let beyond = g.uniform(1.0, 100.0);
        let mut table = SampleTable::new(&["x"], Interpolation::Multilinear);
        table.insert(&[0.0], a);
        table.insert(&[1.0], b);
        assert!((table.predict(&[-beyond]) - a).abs() < 1e-12);
        assert!((table.predict(&[1.0 + beyond]) - b).abs() < 1e-12);
    });
}

/// MAPE is zero iff predictions equal actuals; scale-invariant; and
/// permutation-invariant.
#[test]
fn mape_invariants() {
    check("mape_invariants", CASES, |g| {
        let actual = vec_of(g, 1..20, |g| g.uniform(0.01, 1e6));
        let scale = g.uniform(0.001, 1000.0);
        let noise = vec_of(g, 1..20, |g| g.uniform(0.5, 2.0));
        assert!(mape(&actual, &actual).abs() < 1e-12);
        let pred: Vec<f64> = actual.iter().zip(noise.iter().cycle()).map(|(a, n)| a * n).collect();
        let m1 = mape(&pred, &actual);
        // Scale both sides: MAPE unchanged.
        let sa: Vec<f64> = actual.iter().map(|v| v * scale).collect();
        let sp: Vec<f64> = pred.iter().map(|v| v * scale).collect();
        let m2 = mape(&sp, &sa);
        assert!((m1 - m2).abs() < 1e-6 * m1.max(1.0), "{m1} vs {m2}");
        assert!(m1 >= 0.0);
    });
}

/// Quantiles are monotone in q and bounded by min/max.
#[test]
fn quantile_monotone() {
    check("quantile_monotone", CASES, |g| {
        let samples = vec_of(g, 1..50, |g| g.uniform(-1e6, 1e6));
        let (q1, q2) = (g.next_f64(), g.next_f64());
        let (lo, hi) = (q1.min(q2), q1.max(q2));
        let v1 = quantile(&samples, lo);
        let v2 = quantile(&samples, hi);
        assert!(v1 <= v2 + 1e-9);
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(v1 >= min - 1e-9 && v2 <= max + 1e-9);
    });
}

/// Expression simplification preserves evaluation on random trees and
/// never grows them.
#[test]
fn simplify_sound() {
    check("simplify_sound", CASES, |g| {
        let mut rng = SplitMix64::new(g.next_u64());
        let (x0, x1) = (g.uniform(-100.0, 100.0), g.uniform(-100.0, 100.0));
        let e = Expr::random(&mut rng, 2, 6, (-8.0, 8.0));
        let s = e.clone().simplify();
        let a = e.eval(&[x0, x1]);
        let b = s.eval(&[x0, x1]);
        assert!(
            (a - b).abs() <= 1e-9 * a.abs().max(1.0) || (a.is_nan() && b.is_nan()),
            "{e} -> {s}: {a} vs {b}"
        );
        assert!(s.size() <= e.size());
    });
}

/// Power-law fitting recovers positive monotone trends: predictions
/// at larger inputs are >= predictions at smaller inputs when the
/// data is monotone.
#[test]
fn powerlaw_preserves_monotone_trends() {
    check("powerlaw_preserves_monotone_trends", CASES, |g| {
        let (c, a) = (g.uniform(0.001, 10.0), g.uniform(0.2, 2.5));
        let xs: Vec<Vec<f64>> = (1..=8).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = xs.iter().map(|r| c * r[0].powf(a)).collect();
        let law = powerlaw::fit(&xs, &ys);
        let mut prev = 0.0;
        for i in 1..=12 {
            let p = law.eval(&[i as f64]);
            assert!(p >= prev - 1e-9, "non-monotone at {i}: {p} < {prev}");
            prev = p;
        }
    });
}

/// Regression-model Monte-Carlo draws have the residual spread the
/// training data showed: empirical CV of draws ≈ calibrated sigma.
#[test]
fn regression_sampling_matches_residual_spread() {
    let x: Vec<Vec<f64>> = (1..=40).map(|i| vec![i as f64]).collect();
    // 20% multiplicative wobble around 2x.
    let y: Vec<f64> = x
        .iter()
        .enumerate()
        .map(|(i, r)| 2.0 * r[0] * (1.0 + 0.2 * ((i as f64 * 1.7).sin())))
        .collect();
    let expr = Expr::Binary(
        besst::models::expr::BinOp::Mul,
        Box::new(Expr::Const(2.0)),
        Box::new(Expr::Var(0)),
    );
    let model = PerfModel::from_expr(expr, &x, &y);
    let sigma = model.residual_sigma();
    assert!(sigma > 0.05 && sigma < 0.3, "calibrated sigma {sigma}");
    let mut rng = SplitMix64::new(5);
    let draws: Vec<f64> = (0..30_000).map(|_| model.sample(&[10.0], &mut rng)).collect();
    let mean = draws.iter().sum::<f64>() / draws.len() as f64;
    let var = draws.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / draws.len() as f64;
    let cv = var.sqrt() / mean;
    assert!(
        (cv / sigma - 1.0).abs() < 0.15,
        "draw CV {cv} should track sigma {sigma}"
    );
}

/// Symbolic regression is bit-deterministic per seed: a fit is sequential
/// and draws every random choice from its own seeded stream, so repeated
/// fits (and fits running side by side, as calibration's restarts do)
/// agree exactly.
#[test]
fn symreg_parallel_determinism() {
    let x: Vec<Vec<f64>> = (1..=12).map(|i| vec![i as f64, (i * i) as f64]).collect();
    let y: Vec<f64> = x.iter().map(|r| 0.5 * r[0] + 0.01 * r[1]).collect();
    let data = Dataset::new(x, y);
    let cfg = SymRegConfig { population: 64, generations: 10, seed: 99, ..Default::default() };
    let results: Vec<_> = (0..3).map(|_| symreg::fit(&data, None, &cfg)).collect();
    assert_eq!(results[0].expr, results[1].expr);
    assert_eq!(results[1].expr, results[2].expr);
    assert_eq!(results[0].train_mape, results[2].train_mape);
}

/// R² of a reasonable fit beats R² of the mean predictor, which is 0.
#[test]
fn r_squared_ranks_models() {
    let actual: Vec<f64> = (1..=20).map(|i| i as f64).collect();
    let good: Vec<f64> = actual.iter().map(|a| a * 1.05).collect();
    let mean = vec![10.5; 20];
    assert!(r_squared(&good, &actual) > 0.9);
    assert!(r_squared(&mean, &actual).abs() < 1e-9);
}

/// Model bundles survive JSON round-trips with identical predictions —
/// the Model Development artifact contract.
#[test]
fn bundle_persistence_preserves_predictions() {
    use besst::models::ModelBundle;
    let x: Vec<Vec<f64>> = (1..=10).map(|i| vec![i as f64]).collect();
    let y: Vec<f64> = x.iter().map(|r| 3.0 + r[0].powf(1.7)).collect();
    let law = powerlaw::fit(&x, &y);
    let mut bundle = ModelBundle::new();
    bundle.insert("kernel", PerfModel::from_power_law(law, &x, &y));
    let mut table = SampleTable::new(&["x"], Interpolation::Multilinear);
    table.insert_all(&[1.0], &[0.5, 0.6]);
    table.insert_all(&[2.0], &[1.0, 1.1]);
    bundle.insert("table_kernel", PerfModel::Table(table));
    let mut rng = SplitMix64::new(0x5EED);
    let expr = Expr::random(&mut rng, 1, 6, (-8.0, 8.0));
    bundle.insert("expr_kernel", PerfModel::from_expr(expr, &x, &y));

    let json = bundle.to_json();
    let back = ModelBundle::from_json(&json).expect("parse");
    for name in ["kernel", "table_kernel", "expr_kernel"] {
        for q in [1.0, 1.5, 2.0, 5.0, 0.1 + 1.0 / 3.0] {
            let a = bundle.get(name).unwrap().predict(&[q]);
            let b = back.get(name).unwrap().predict(&[q]);
            assert_eq!(a.to_bits(), b.to_bits(), "{name} at {q}");
        }
    }
}

/// The GP fitness of `e` computed row by row with [`Expr::eval`]: the
/// reference the column-wise kernel must reproduce bit for bit.
fn row_fitness(e: &Expr, data: &Dataset, parsimony: f64) -> f64 {
    let mut total = 0.0;
    for (row, &target) in data.x.iter().zip(&data.y) {
        let p = e.eval(row);
        if !p.is_finite() {
            return f64::INFINITY;
        }
        total += ((p - target) / target).abs();
    }
    100.0 * total / data.len() as f64 + parsimony * e.size() as f64
}

/// An input value that is ordinary most of the time and otherwise zero,
/// a (near-)zero divisor, NaN or large enough to overflow.
fn awkward_input(g: &mut SplitMix64) -> f64 {
    match g.next_below(10) {
        0 => 0.0,
        1 => 1e-13,
        2 => f64::NAN,
        3 => 1e120,
        4 => -1e120,
        _ => g.uniform(-20.0, 20.0),
    }
}

/// The column-wise fitness kernel equals the row loop over
/// `Expr::eval` on the same tree, bit for bit, on random genomes over
/// data with zero and NaN divisors and overflow to ±inf.
#[test]
fn genome_fitness_kernel_matches_row_eval() {
    let (mut finite, mut infinite) = (0, 0);
    check("genome_fitness_kernel_matches_row_eval", 256, |g| {
        let n_vars = 1 + g.next_below(3) as usize;
        let rows = 1 + g.next_below(24) as usize;
        let x: Vec<Vec<f64>> =
            (0..rows).map(|_| (0..n_vars).map(|_| awkward_input(g)).collect()).collect();
        let y: Vec<f64> = (0..rows).map(|_| g.uniform(0.01, 100.0)).collect();
        let data = Dataset::new(x, y);
        let depth = 1 + g.next_below(7) as usize;
        let grown = Genome::grow(g, n_vars, depth, (-10.0, 10.0));
        // Zero some constants, so protected division takes both branches.
        let mut nodes = grown.nodes().to_vec();
        for n in &mut nodes {
            if let Node::Const(c) = n {
                if g.chance(0.3) {
                    *c = 0.0;
                }
            }
        }
        let genome = Genome::new(nodes);
        let parsimony = g.uniform(0.0, 0.1);
        let kernel = Columns::new(&data).fitness(&genome, parsimony);
        let e = genome.to_expr();
        let reference = row_fitness(&e, &data, parsimony);
        assert_eq!(kernel.to_bits(), reference.to_bits(), "{e}: {kernel} vs {reference}");
        if kernel.is_finite() {
            finite += 1;
        } else {
            infinite += 1;
        }
    });
    assert!(finite > 0 && infinite > 0, "{finite} finite, {infinite} infinite fitnesses");
}

/// Flattening an expression and rebuilding it is the identity, and the
/// genome's size and depth are the tree's.
#[test]
fn genome_roundtrips_expr() {
    check("genome_roundtrips_expr", CASES * 4, |g| {
        let n_vars = 1 + g.next_below(3) as usize;
        let depth = 1 + g.next_below(8) as usize;
        let e = Expr::random(g, n_vars, depth, (-8.0, 8.0));
        let genome = Genome::flatten(&e);
        assert_eq!(genome.to_expr(), e);
        assert_eq!(genome.size(), e.size(), "{e}");
        assert_eq!(genome.depth(), e.depth(), "{e}");
    });
}

/// Calibration fits its restarts in parallel; the expression it keeps is
/// the one a sequential loop of `symreg::fit` over the same restarts,
/// splits and seeds picks (first lowest held-out MAPE wins).
#[test]
fn calibration_restarts_match_sequential_fits() {
    use besst::experiments::calibration::{calibrate, CalibrationConfig};
    use besst::experiments::paper;
    use besst::machine::presets;

    let machine = presets::quartz();
    let grid = [(5, 8), (10, 8), (15, 8), (5, 64), (10, 64), (15, 64), (20, 64)];
    let cfg = CalibrationConfig {
        samples_per_point: 4,
        symreg: SymRegConfig { population: 48, generations: 8, ..Default::default() },
        symreg_restarts: 3,
        ..paper::default_calibration()
    };
    let cal = calibrate(&machine, paper::regions(&machine), &grid, &cfg);
    assert!(!cal.kernels.is_empty());
    for k in &cal.kernels {
        let x: Vec<Vec<f64>> = k.point_means.iter().map(|(p, _)| p.clone()).collect();
        let y: Vec<f64> = k.point_means.iter().map(|(_, v)| *v).collect();
        let data = Dataset::new(x, y);
        let mut best: Option<(f64, Expr)> = None;
        for restart in 0..cfg.symreg_restarts {
            let (tr, te) =
                train_test_split(data.len(), cfg.test_frac, cfg.seed ^ (u64::from(restart) * 7919));
            let mut sr = cfg.symreg.clone();
            sr.seed = cfg.symreg.seed.wrapping_add(u64::from(restart) * 0x5EED);
            let r = symreg::fit(&data.subset(&tr), Some(&data.subset(&te)), &sr);
            let score = r.test_mape.unwrap_or(r.train_mape);
            if best.as_ref().is_none_or(|(s, _)| score < *s) {
                best = Some((score, r.expr));
            }
        }
        let Some(PerfModel::Regression { expr, .. }) = cal.bundle.get(&k.kernel) else {
            panic!("{}: not a regression model", k.kernel);
        };
        assert_eq!(*expr, best.expect("restarts ran").1, "{}", k.kernel);
    }
}
