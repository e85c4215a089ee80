//! The symbolic-regression fitter's working representation: a flat
//! prefix-order genome and the column-wise fitness kernel.
//!
//! A [`Genome`] stores an expression tree as a `Vec` of `Copy` nodes in
//! pre-order, so a subtree is a contiguous slice. Size is the length,
//! crossover and subtree mutation are one slice splice, and constants are
//! rewritten in place. [`Expr`] stays the public model type: the fitter
//! converts only its winner, with [`Genome::to_expr`].
//!
//! [`Columns`] holds a dataset column-major. [`Columns::fitness`] walks a
//! genome in reverse on a stack of whole columns, one loop over the rows
//! per node, and computes bit for bit what a row-by-row [`Expr::eval`]
//! loop over [`Genome::to_expr`] computes.

use crate::expr::{BinOp, Expr, UnOp};
use crate::symreg::Dataset;
use besst_des::buggify::SplitMix64;
use std::cell::RefCell;

/// One genome node, in pre-order (an operator precedes its operands).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Node {
    /// A constant.
    Const(f64),
    /// Input variable by index.
    Var(usize),
    /// Unary operator; its operand follows.
    Un(UnOp),
    /// Binary operator; its left operand follows, then its right.
    Bin(BinOp),
}

impl Node {
    fn arity(self) -> usize {
        match self {
            Node::Const(_) | Node::Var(_) => 0,
            Node::Un(_) => 1,
            Node::Bin(_) => 2,
        }
    }
}

/// An expression tree as a prefix-order node array.
#[derive(Debug, Clone, PartialEq)]
pub struct Genome {
    nodes: Vec<Node>,
}

impl Genome {
    /// Wrap a prefix-order node array. Panics unless it is exactly one
    /// well-formed tree.
    pub fn new(nodes: Vec<Node>) -> Genome {
        assert!(!nodes.is_empty(), "empty genome");
        let need =
            nodes.iter().try_fold(1usize, |need, n| (need > 0).then(|| need + n.arity() - 1));
        assert_eq!(need, Some(0), "malformed prefix genome");
        Genome { nodes }
    }

    /// Flatten an expression tree.
    pub fn flatten(e: &Expr) -> Genome {
        fn walk(e: &Expr, out: &mut Vec<Node>) {
            match e {
                Expr::Const(c) => out.push(Node::Const(*c)),
                Expr::Var(i) => out.push(Node::Var(*i)),
                Expr::Unary(op, a) => {
                    out.push(Node::Un(*op));
                    walk(a, out);
                }
                Expr::Binary(op, a, b) => {
                    out.push(Node::Bin(*op));
                    walk(a, out);
                    walk(b, out);
                }
            }
        }
        let mut nodes = Vec::with_capacity(e.size());
        walk(e, &mut nodes);
        Genome { nodes }
    }

    /// Rebuild the expression tree.
    pub fn to_expr(&self) -> Expr {
        fn build(nodes: &[Node], i: &mut usize) -> Expr {
            let node = nodes[*i];
            *i += 1;
            match node {
                Node::Const(c) => Expr::Const(c),
                Node::Var(v) => Expr::Var(v),
                Node::Un(op) => Expr::Unary(op, Box::new(build(nodes, i))),
                Node::Bin(op) => {
                    let a = build(nodes, i);
                    let b = build(nodes, i);
                    Expr::Binary(op, Box::new(a), Box::new(b))
                }
            }
        }
        build(&self.nodes, &mut 0)
    }

    /// Generate a random tree with the "grow" method: leaves become more
    /// likely as depth increases, hard cap at `max_depth`. An operator is
    /// drawn before its operands, the left operand before the right.
    pub fn grow(
        rng: &mut SplitMix64,
        n_vars: usize,
        max_depth: usize,
        const_range: (f64, f64),
    ) -> Genome {
        let mut nodes = Vec::new();
        grow_into(&mut nodes, rng, n_vars, max_depth, const_range);
        // Populations hold thousands of genomes: keep none of the growth slack.
        nodes.shrink_to_fit();
        Genome { nodes }
    }

    /// The nodes, in pre-order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn size(&self) -> usize {
        self.nodes.len()
    }

    /// Tree depth (leaf = 1).
    pub fn depth(&self) -> usize {
        /// End and depth of the subtree at `i`.
        fn span(nodes: &[Node], i: usize) -> (usize, usize) {
            match nodes[i] {
                Node::Const(_) | Node::Var(_) => (i + 1, 1),
                Node::Un(_) => {
                    let (end, d) = span(nodes, i + 1);
                    (end, d + 1)
                }
                Node::Bin(_) => {
                    let (mid, da) = span(nodes, i + 1);
                    let (end, db) = span(nodes, mid);
                    (end, 1 + da.max(db))
                }
            }
        }
        span(&self.nodes, 0).1
    }

    /// One past the last node of the subtree at `i`.
    fn subtree_end(&self, i: usize) -> usize {
        let mut need = 1;
        let mut j = i;
        while need > 0 {
            need = need + self.nodes[j].arity() - 1;
            j += 1;
        }
        j
    }

    /// The subtree at `i`, as a slice.
    pub(crate) fn subtree(&self, i: usize) -> &[Node] {
        &self.nodes[i..self.subtree_end(i)]
    }

    /// Number of constants.
    pub(crate) fn const_count(&self) -> usize {
        self.nodes.iter().filter(|n| matches!(n, Node::Const(_))).count()
    }

    /// Rewrite the `k`-th constant (in pre-order) in place with `f`;
    /// returns its old value.
    pub(crate) fn map_const(&mut self, k: usize, f: impl FnOnce(f64) -> f64) -> f64 {
        let mut consts = self.nodes.iter_mut().filter_map(|n| match n {
            Node::Const(c) => Some(c),
            _ => None,
        });
        // lint: allow(panic-path) -- callers take `k` below `const_count()`
        let c = consts.nth(k).expect("constant index in range");
        let old = *c;
        *c = f(old);
        old
    }

    /// A copy with the subtree at `i` replaced by `sub`.
    pub(crate) fn splice(&self, i: usize, sub: &[Node]) -> Genome {
        let end = self.subtree_end(i);
        let mut nodes = Vec::with_capacity(self.nodes.len() - (end - i) + sub.len());
        nodes.extend_from_slice(&self.nodes[..i]);
        nodes.extend_from_slice(sub);
        nodes.extend_from_slice(&self.nodes[end..]);
        Genome { nodes }
    }
}

fn grow_into(
    out: &mut Vec<Node>,
    rng: &mut SplitMix64,
    n_vars: usize,
    max_depth: usize,
    const_range: (f64, f64),
) {
    assert!(n_vars >= 1, "need at least one input variable");
    assert!(max_depth >= 1, "depth must be at least 1");
    if max_depth == 1 || rng.chance(0.3) {
        // Leaf: variable-biased (constants are refined later).
        if rng.chance(0.6) {
            out.push(Node::Var(rng.next_below(n_vars as u64) as usize));
        } else {
            out.push(Node::Const(rng.uniform_inclusive(const_range.0, const_range.1)));
        }
    } else if rng.chance(0.25) {
        out.push(Node::Un(UnOp::ALL[rng.next_below(4) as usize]));
        grow_into(out, rng, n_vars, max_depth - 1, const_range);
    } else {
        out.push(Node::Bin(BinOp::ALL[rng.next_below(4) as usize]));
        grow_into(out, rng, n_vars, max_depth - 1, const_range);
        grow_into(out, rng, n_vars, max_depth - 1, const_range);
    }
}

thread_local! {
    /// The fitness kernel's operand stack: `rows`-long columns, end to end.
    static STACK: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// A dataset stored column-major, for [`Columns::fitness`].
#[derive(Debug, Clone)]
pub struct Columns {
    rows: usize,
    /// Input column `d` is `x[d * rows..(d + 1) * rows]`.
    x: Vec<f64>,
    y: Vec<f64>,
}

impl Columns {
    /// Transpose `data`.
    pub fn new(data: &Dataset) -> Columns {
        let x = (0..data.arity()).flat_map(|d| data.x.iter().map(move |r| r[d])).collect();
        Columns { rows: data.len(), x, y: data.y.clone() }
    }

    /// GP fitness of `g`: the mean absolute percentage error over the
    /// rows, summed in row order, plus `parsimony` per node; infinite
    /// when any prediction is not finite.
    pub fn fitness(&self, g: &Genome, parsimony: f64) -> f64 {
        let rows = self.rows;
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Reverse pre-order: both operands are on the stack before
            // their operator, the left one on top.
            let mut top = 0;
            for node in g.nodes.iter().rev() {
                match *node {
                    Node::Const(c) => {
                        push(&mut stack, top, rows).fill(c);
                        top += 1;
                    }
                    Node::Var(v) => {
                        let inputs = self.x.len() / rows;
                        assert!(v < inputs, "variable {v} out of range for {inputs} inputs");
                        push(&mut stack, top, rows)
                            .copy_from_slice(&self.x[v * rows..(v + 1) * rows]);
                        top += 1;
                    }
                    Node::Un(op) => {
                        for v in &mut stack[(top - 1) * rows..top * rows] {
                            *v = op.apply(*v);
                        }
                    }
                    Node::Bin(op) => {
                        let (right, left) = stack[(top - 2) * rows..top * rows].split_at_mut(rows);
                        for (b, &a) in right.iter_mut().zip(left.iter()) {
                            *b = op.apply(a, *b);
                        }
                        top -= 1;
                    }
                }
            }
            let mut total = 0.0;
            for (&p, &target) in stack[..rows].iter().zip(&self.y) {
                if !p.is_finite() {
                    return f64::INFINITY;
                }
                total += ((p - target) / target).abs();
            }
            100.0 * total / rows as f64 + parsimony * g.size() as f64
        })
    }
}

/// Stack slot `k` (`rows` long), growing the stack to hold it.
fn push(stack: &mut Vec<f64>, k: usize, rows: usize) -> &mut [f64] {
    if stack.len() < (k + 1) * rows {
        stack.resize((k + 1) * rows, 0.0);
    }
    &mut stack[k * rows..(k + 1) * rows]
}
