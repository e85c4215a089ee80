//! Expression trees for symbolic regression.
//!
//! The model type the genetic-programming fitter in [`crate::symreg`]
//! produces (it evolves the flat [`crate::genome::Genome`] form):
//! arithmetic expression trees over input variables, constants, and a set
//! of protected operators. "Protected" means every operator is total —
//! division by (near-)zero, logs of non-positive numbers, etc. return
//! defined values instead of NaN, the standard Koza-style convention that
//! keeps evolution from drowning in invalid individuals.

use besst_des::buggify::SplitMix64;
use std::fmt;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Protected division: `a/b`, but `a` when `|b| < 1e-12`.
    Div,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Protected square root: `sqrt(|x|)`.
    Sqrt,
    /// Protected natural log: `ln(|x| + 1)` (zero at zero, monotone).
    Log,
    /// Square.
    Sq,
    /// Cube.
    Cube,
}

impl BinOp {
    /// Every binary operator.
    pub const ALL: [BinOp; 4] = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div];

    /// Infix symbol, as displayed and serialized.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        }
    }

    /// Apply the operator to `a` (left) and `b` (right).
    #[inline]
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            // `<`, not `>=`: a NaN divisor still divides.
            BinOp::Div => {
                if b.abs() < 1e-12 {
                    a
                } else {
                    a / b
                }
            }
        }
    }
}

impl UnOp {
    /// Every unary operator.
    pub const ALL: [UnOp; 4] = [UnOp::Sqrt, UnOp::Log, UnOp::Sq, UnOp::Cube];

    /// Function name, as displayed and serialized.
    pub fn name(self) -> &'static str {
        match self {
            UnOp::Sqrt => "sqrt",
            UnOp::Log => "log1p",
            UnOp::Sq => "sq",
            UnOp::Cube => "cube",
        }
    }

    /// Apply the operator.
    #[inline]
    pub fn apply(self, v: f64) -> f64 {
        match self {
            UnOp::Sqrt => v.abs().sqrt(),
            UnOp::Log => (v.abs() + 1.0).ln(),
            UnOp::Sq => v * v,
            UnOp::Cube => v * v * v,
        }
    }
}

/// An expression tree node.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A constant.
    Const(f64),
    /// Input variable by index.
    Var(usize),
    /// Unary application.
    Unary(UnOp, Box<Expr>),
    /// Binary application.
    Binary(BinOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Evaluate on an input vector. Panics if a variable index is out of
    /// range (a genome referencing unknown variables is a construction
    /// bug, not a data condition).
    pub fn eval(&self, x: &[f64]) -> f64 {
        match self {
            Expr::Const(c) => *c,
            Expr::Var(i) => {
                assert!(*i < x.len(), "variable {i} out of range for {} inputs", x.len());
                x[*i]
            }
            Expr::Unary(op, a) => op.apply(a.eval(x)),
            Expr::Binary(op, a, b) => op.apply(a.eval(x), b.eval(x)),
        }
    }

    /// Number of nodes.
    pub fn size(&self) -> usize {
        match self {
            Expr::Const(_) | Expr::Var(_) => 1,
            Expr::Unary(_, a) => 1 + a.size(),
            Expr::Binary(_, a, b) => 1 + a.size() + b.size(),
        }
    }

    /// Tree depth (leaf = 1).
    pub fn depth(&self) -> usize {
        match self {
            Expr::Const(_) | Expr::Var(_) => 1,
            Expr::Unary(_, a) => 1 + a.depth(),
            Expr::Binary(_, a, b) => 1 + a.depth().max(b.depth()),
        }
    }

    /// Rewrite every `Var(i)` as `Var(i) * scales[i]` — used to undo input
    /// normalization so a model fitted on scaled inputs evaluates on raw
    /// ones.
    pub fn scale_inputs(&self, scales: &[f64]) -> Expr {
        match self {
            Expr::Const(c) => Expr::Const(*c),
            Expr::Var(i) => {
                assert!(*i < scales.len(), "no scale for variable {i}");
                Expr::Binary(
                    BinOp::Mul,
                    Box::new(Expr::Const(scales[*i])),
                    Box::new(Expr::Var(*i)),
                )
            }
            Expr::Unary(op, a) => Expr::Unary(*op, Box::new(a.scale_inputs(scales))),
            Expr::Binary(op, a, b) => Expr::Binary(
                *op,
                Box::new(a.scale_inputs(scales)),
                Box::new(b.scale_inputs(scales)),
            ),
        }
    }

    /// Structural simplification: constant folding plus the cheap identity
    /// rules (x±0, x·1, x·0, x/1, 0/x). Semantics-preserving given the
    /// protected operators.
    pub fn simplify(self) -> Expr {
        match self {
            Expr::Unary(op, a) => {
                let a = a.simplify();
                if let Expr::Const(c) = a {
                    return Expr::Const(op.apply(c));
                }
                Expr::Unary(op, Box::new(a))
            }
            Expr::Binary(op, a, b) => {
                let a = a.simplify();
                let b = b.simplify();
                match (&a, &b) {
                    (Expr::Const(ca), Expr::Const(cb)) => return Expr::Const(op.apply(*ca, *cb)),
                    (_, Expr::Const(c)) if *c == 0.0 && matches!(op, BinOp::Add | BinOp::Sub) => {
                        return a;
                    }
                    (Expr::Const(c), _) if *c == 0.0 && matches!(op, BinOp::Add) => return b,
                    (_, Expr::Const(c)) if *c == 1.0 && matches!(op, BinOp::Mul | BinOp::Div) => {
                        return a;
                    }
                    (Expr::Const(c), _) if *c == 1.0 && matches!(op, BinOp::Mul) => return b,
                    (Expr::Const(c), _) if *c == 0.0 && matches!(op, BinOp::Mul | BinOp::Div) => {
                        return Expr::Const(0.0);
                    }
                    (_, Expr::Const(c)) if *c == 0.0 && matches!(op, BinOp::Mul) => {
                        return Expr::Const(0.0);
                    }
                    _ => {}
                }
                Expr::Binary(op, Box::new(a), Box::new(b))
            }
            leaf => leaf,
        }
    }

    /// Generate a random tree with the "grow" method: leaves become more
    /// likely as depth increases, hard cap at `max_depth`
    /// ([`Genome::grow`](crate::genome::Genome::grow), as a tree).
    pub fn random(
        rng: &mut SplitMix64,
        n_vars: usize,
        max_depth: usize,
        const_range: (f64, f64),
    ) -> Expr {
        crate::genome::Genome::grow(rng, n_vars, max_depth, const_range).to_expr()
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(c) => write!(f, "{c:.4}"),
            Expr::Var(i) => write!(f, "x{i}"),
            Expr::Unary(op, a) => write!(f, "{}({a})", op.name()),
            Expr::Binary(op, a, b) => write!(f, "({a} {} {b})", op.symbol()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x0() -> Expr {
        Expr::Var(0)
    }

    fn c(v: f64) -> Expr {
        Expr::Const(v)
    }

    fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr::Binary(op, Box::new(a), Box::new(b))
    }

    #[test]
    fn eval_arithmetic() {
        // (x0 + 2) * x1
        let e = bin(BinOp::Mul, bin(BinOp::Add, x0(), c(2.0)), Expr::Var(1));
        assert_eq!(e.eval(&[3.0, 4.0]), 20.0);
    }

    #[test]
    fn protected_division() {
        let e = bin(BinOp::Div, c(5.0), c(0.0));
        assert_eq!(e.eval(&[]), 5.0);
        let e = bin(BinOp::Div, c(6.0), c(2.0));
        assert_eq!(e.eval(&[]), 3.0);
    }

    #[test]
    fn protected_unaries_are_total() {
        for v in [-10.0, -1.0, 0.0, 1.0, 10.0] {
            for op in UnOp::ALL {
                let out = Expr::Unary(op, Box::new(c(v))).eval(&[]);
                assert!(out.is_finite(), "{op:?}({v}) = {out}");
            }
        }
    }

    #[test]
    fn size_and_depth() {
        let e = bin(BinOp::Add, x0(), bin(BinOp::Mul, c(2.0), x0()));
        assert_eq!(e.size(), 5);
        assert_eq!(e.depth(), 3);
    }

    #[test]
    fn simplify_preserves_semantics() {
        let mut rng = SplitMix64::new(17);
        for _ in 0..200 {
            let e = Expr::random(&mut rng, 2, 5, (-5.0, 5.0));
            let s = e.clone().simplify();
            for x in [[1.0, 2.0], [0.0, 0.0], [-3.0, 7.5], [100.0, 0.001]] {
                let a = e.eval(&x);
                let b = s.eval(&x);
                assert!(
                    (a - b).abs() <= 1e-9 * a.abs().max(1.0) || (a.is_nan() && b.is_nan()),
                    "simplify changed {e} -> {s} at {x:?}: {a} vs {b}"
                );
            }
            assert!(s.size() <= e.size(), "simplify grew the tree");
        }
    }

    #[test]
    fn simplify_folds_constants() {
        let e = bin(BinOp::Add, c(2.0), c(3.0));
        assert_eq!(e.simplify(), c(5.0));
        let e = bin(BinOp::Mul, x0(), c(0.0));
        assert_eq!(e.simplify(), c(0.0));
        let e = bin(BinOp::Mul, x0(), c(1.0));
        assert_eq!(e.simplify(), x0());
        let e = bin(BinOp::Add, x0(), c(0.0));
        assert_eq!(e.simplify(), x0());
    }

    #[test]
    fn random_respects_depth_cap() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..100 {
            let e = Expr::random(&mut rng, 3, 4, (-1.0, 1.0));
            assert!(e.depth() <= 4);
        }
    }

    #[test]
    fn display_is_parseable_shape() {
        let e = bin(BinOp::Div, Expr::Unary(UnOp::Sqrt, Box::new(x0())), c(2.0));
        assert_eq!(format!("{e}"), "(sqrt(x0) / 2.0000)");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn eval_unknown_var_panics() {
        Expr::Var(2).eval(&[1.0]);
    }
}
