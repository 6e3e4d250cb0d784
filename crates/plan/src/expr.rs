//! Symbolic integer expressions over `(p, rank, peer, loop variables)`.
//!
//! One [`Expr`] tree describes a value — a peer rank, a tag, a payload size,
//! a loop trip count — for *every* world size at once; the analyses in
//! [`crate::check`] evaluate it per rank at a concrete `p`, and
//! [`crate::lower`] evaluates it inside a live [`mps::Ctx`]. Evaluation is
//! total over checked 64-bit arithmetic: division by zero, overflow and
//! unbound variables surface as [`EvalError`] (which the static checker
//! turns into shape findings) rather than panics.
//!
//! [`CommPlan::specialize`](crate::CommPlan::specialize) folds an
//! expression to one world size and tabulates each maximal subtree that
//! reads only the rank, or only the peer, into an [`Expr::Tabulated`]
//! table over `0..p`, so a cursor reads one entry instead of walking the
//! tree. An O(p)-message collective's size that is then a product of a
//! rank part and a peer part splits into a [`PeerProduct`]: its size at
//! every peer is one multiply, and its sum over a rank's exchanges is
//! O(1), from the peer table's total.

use std::fmt;
use std::ops;
use std::sync::Arc;

/// A symbolic integer expression.
///
/// Arithmetic is exact signed 64-bit with checked overflow. Division and
/// remainder truncate toward zero, which coincides with floor semantics for
/// the non-negative quantities plans compute (lengths, ranks, distances).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// An integer literal.
    Const(i64),
    /// The world size `p`.
    P,
    /// The executing rank.
    Rank,
    /// The peer variable bound by collective size expressions: the chunk's
    /// *destination* rank in [`crate::Op::AllToAll`] and the chunk's
    /// *originating* rank in [`crate::Op::AllGather`]. Unbound elsewhere.
    Peer,
    /// A loop variable in De Bruijn style: `Var(0)` is the index of the
    /// innermost enclosing [`crate::Op::Loop`], `Var(1)` the next one out.
    Var(usize),
    /// `a + b`.
    Add(Box<Expr>, Box<Expr>),
    /// `a - b`.
    Sub(Box<Expr>, Box<Expr>),
    /// `a * b`.
    Mul(Box<Expr>, Box<Expr>),
    /// `a / b`, truncating; error when `b == 0`.
    Div(Box<Expr>, Box<Expr>),
    /// `a % b`; error when `b == 0`.
    Mod(Box<Expr>, Box<Expr>),
    /// `min(a, b)`.
    Min(Box<Expr>, Box<Expr>),
    /// `max(a, b)`.
    Max(Box<Expr>, Box<Expr>),
    /// Bitwise `a ^ b` (the recursive-doubling partner pattern).
    Xor(Box<Expr>, Box<Expr>),
    /// `2^e`; error unless `0 <= e < 63`.
    Pow2(Box<Expr>),
    /// `floor(log2 e)`; error unless `e > 0`.
    Log2(Box<Expr>),
    /// A subtree that varies only with the rank, or only with the peer,
    /// tabulated over `0..p` of one world size by
    /// [`CommPlan::specialize`](crate::CommPlan::specialize): `table` holds
    /// `expr`'s value (or error) at each index. Only specialization builds
    /// it.
    Tabulated {
        /// What the table is indexed by.
        by: Axis,
        /// The folded subtree, evaluated directly at an index outside the
        /// table, or when the peer is unbound.
        expr: Box<Expr>,
        /// `expr` at every index of the world it was folded for.
        table: Table,
    },
    /// Length of block `idx` when `total` items are split over `parts`
    /// ranks with the remainder spread over the low indices — the NPB
    /// `block_range` length: `total/parts + (idx < total % parts)`.
    BlockLen {
        /// Items to distribute.
        total: Box<Expr>,
        /// Number of blocks.
        parts: Box<Expr>,
        /// Which block.
        idx: Box<Expr>,
    },
}

/// Why an expression failed to evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalError {
    /// Division or remainder by zero.
    DivByZero,
    /// 64-bit overflow.
    Overflow,
    /// `Log2` of a non-positive value, or `Pow2` outside `[0, 63)`.
    BadLog,
    /// `Var(depth)` with fewer than `depth + 1` enclosing loops.
    UnboundVar(usize),
    /// `Peer` outside a collective size expression.
    PeerUnavailable,
    /// `BlockLen` with non-positive `parts` or negative `total`/`idx`.
    BadBlock,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DivByZero => write!(f, "division by zero"),
            Self::Overflow => write!(f, "64-bit overflow"),
            Self::BadLog => write!(f, "log2/pow2 domain error"),
            Self::UnboundVar(d) => write!(f, "unbound loop variable Var({d})"),
            Self::PeerUnavailable => write!(f, "Peer used outside a collective size expression"),
            Self::BadBlock => write!(f, "BlockLen with invalid total/parts/idx"),
        }
    }
}

/// The variable an [`Expr::Tabulated`] subtree varies with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// The executing rank ([`Env::rank`]).
    Rank,
    /// The collective peer ([`Env::peer`]).
    Peer,
}

/// The values of one [`Expr::Tabulated`] subtree at the indices `0..p`.
/// Shared between the identical subtrees of one specialized plan.
#[derive(Clone, PartialEq, Eq)]
pub struct Table {
    values: Arc<[Result<i64, EvalError>]>,
    /// The sum and the largest of the values, when every value is a
    /// non-negative `Ok` and the sum fits.
    totals: Option<(u64, u64)>,
}

impl Table {
    fn new(values: Arc<[Result<i64, EvalError>]>) -> Self {
        let totals = values.iter().try_fold((0u64, 0u64), |(sum, max), v| {
            let v = u64::try_from(v.ok()?).ok()?;
            Some((sum.checked_add(v)?, max.max(v)))
        });
        Self { values, totals }
    }

    /// The value at `index`, `None` outside the table.
    #[inline]
    fn get(&self, index: i64) -> Option<Result<i64, EvalError>> {
        usize::try_from(index)
            .ok()
            .and_then(|i| self.values.get(i).copied())
    }
}

impl fmt::Debug for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Table({} entries)", self.values.len())
    }
}

/// One rank's collective size split into a factor that does not read the
/// peer and one that reads only the peer ([`Expr::peer_product`]): the
/// size at peer `q` is `scale · f(q)`.
#[derive(Debug, Clone, Copy)]
pub struct PeerProduct<'e> {
    scale: u64,
    peer: PeerFactor<'e>,
    /// The world size: peers are `0..p`.
    p: u64,
}

/// The factor of a [`PeerProduct`] that reads the peer.
#[derive(Debug, Clone, Copy)]
enum PeerFactor<'e> {
    /// None does: `f(q) = 1`.
    One,
    /// `f(q) = q`.
    Peer,
    /// A peer table whose entries are all non-negative `Ok`s.
    Table(&'e Table),
}

impl PeerProduct<'_> {
    /// The size at `peer`, one of `0..p`.
    #[inline]
    #[must_use]
    pub fn at(&self, peer: usize) -> u64 {
        // `Expr::peer_product` bounded every product of the factors.
        self.scale * self.factor(peer)
    }

    /// `f(peer)`.
    #[inline]
    fn factor(&self, peer: usize) -> u64 {
        match self.peer {
            PeerFactor::One => 1,
            PeerFactor::Peer => peer as u64,
            PeerFactor::Table(t) => match t.values[peer] {
                Ok(v) => v.unsigned_abs(),
                Err(_) => unreachable!("a product's table holds values only"),
            },
        }
    }

    /// The sum of the sizes at every peer of `0..p` but `skip`; `None`
    /// when it overflows.
    #[must_use]
    pub fn sum_except(&self, skip: usize) -> Option<u64> {
        let total = match self.peer {
            PeerFactor::One => self.p,
            PeerFactor::Peer => self.p.checked_mul(self.p - 1)? / 2,
            PeerFactor::Table(t) => t.totals?.0,
        };
        self.scale.checked_mul(total - self.factor(skip))
    }
}

/// The tables built while specializing one plan, keyed by the subtree
/// they tabulate, so identical subtrees share one table.
#[derive(Default)]
pub(crate) struct Tables(Vec<(Expr, Table)>);

impl Tables {
    fn get_or_build(&mut self, by: Axis, expr: &Expr, p: i64) -> Table {
        if let Some((_, table)) = self.0.iter().find(|(e, _)| e == expr) {
            return table.clone();
        }
        // `expr` reads `by` and no other variable, so binding only `by`
        // gives its value at every index exactly.
        let at = |i: i64| match by {
            Axis::Rank => Env {
                p,
                rank: i,
                peer: None,
                vars: &[],
            },
            Axis::Peer => Env {
                p,
                rank: 0,
                peer: Some(i),
                vars: &[],
            },
        };
        let table = Table::new((0..p).map(|i| expr.eval(&at(i))).collect());
        self.0.push((expr.clone(), table.clone()));
        table
    }
}

/// The evaluation environment: one rank's view of the world.
#[derive(Debug, Clone, Copy)]
pub struct Env<'a> {
    /// World size.
    pub p: i64,
    /// Executing rank.
    pub rank: i64,
    /// The bound peer, inside collective size expressions.
    pub peer: Option<i64>,
    /// Loop variable stack, outermost first (`Var(0)` reads the last).
    pub vars: &'a [i64],
}

impl Env<'_> {
    /// The value of `by`: the rank, or the peer if one is bound.
    #[inline]
    fn index(&self, by: Axis) -> Option<i64> {
        match by {
            Axis::Rank => Some(self.rank),
            Axis::Peer => self.peer,
        }
    }
}

/// Which variables an expression reads ([`Expr::reads`]).
#[derive(Debug, Clone, Copy, Default)]
struct Reads {
    rank: bool,
    peer: bool,
    var: bool,
}

impl Expr {
    /// Evaluate against `env`.
    ///
    /// Constants, the rank and tabulated subtrees are answered inline:
    /// after [`CommPlan::specialize`](crate::CommPlan::specialize) almost
    /// every plan expression is one of them or a product of a few, and the
    /// plan cursor evaluates expressions on every step. Every other node
    /// takes the recursive walk, whose children come back through here.
    /// This function never calls itself, or it would not be inlined.
    #[inline]
    pub fn eval(&self, env: &Env) -> Result<i64, EvalError> {
        match self {
            Self::Const(v) => Ok(*v),
            Self::Rank => Ok(env.rank),
            Self::Tabulated { by, expr, table } => env
                .index(*by)
                .and_then(|i| table.get(i))
                .unwrap_or_else(|| expr.eval_node(env)),
            _ => self.eval_node(env),
        }
    }

    /// The recursive walk behind [`Expr::eval`].
    #[inline(never)]
    fn eval_node(&self, env: &Env) -> Result<i64, EvalError> {
        match self {
            Self::Const(v) => Ok(*v),
            Self::P => Ok(env.p),
            Self::Rank => Ok(env.rank),
            Self::Peer => env.peer.ok_or(EvalError::PeerUnavailable),
            Self::Tabulated { by, expr, table } => env
                .index(*by)
                .and_then(|i| table.get(i))
                .unwrap_or_else(|| expr.eval(env)),
            Self::Var(d) => {
                let n = env.vars.len();
                if *d < n {
                    Ok(env.vars[n - 1 - d])
                } else {
                    Err(EvalError::UnboundVar(*d))
                }
            }
            Self::Add(a, b) => a
                .eval(env)?
                .checked_add(b.eval(env)?)
                .ok_or(EvalError::Overflow),
            Self::Sub(a, b) => a
                .eval(env)?
                .checked_sub(b.eval(env)?)
                .ok_or(EvalError::Overflow),
            Self::Mul(a, b) => a
                .eval(env)?
                .checked_mul(b.eval(env)?)
                .ok_or(EvalError::Overflow),
            Self::Div(a, b) => {
                let d = b.eval(env)?;
                if d == 0 {
                    return Err(EvalError::DivByZero);
                }
                a.eval(env)?.checked_div(d).ok_or(EvalError::Overflow)
            }
            Self::Mod(a, b) => {
                let d = b.eval(env)?;
                if d == 0 {
                    return Err(EvalError::DivByZero);
                }
                a.eval(env)?.checked_rem(d).ok_or(EvalError::Overflow)
            }
            Self::Min(a, b) => Ok(a.eval(env)?.min(b.eval(env)?)),
            Self::Max(a, b) => Ok(a.eval(env)?.max(b.eval(env)?)),
            Self::Xor(a, b) => Ok(a.eval(env)? ^ b.eval(env)?),
            Self::Pow2(e) => {
                let v = e.eval(env)?;
                if (0..63).contains(&v) {
                    Ok(1i64 << v)
                } else {
                    Err(EvalError::BadLog)
                }
            }
            Self::Log2(e) => {
                let v = e.eval(env)?;
                if v > 0 {
                    Ok(i64::from(63 - v.leading_zeros()))
                } else {
                    Err(EvalError::BadLog)
                }
            }
            Self::BlockLen { total, parts, idx } => {
                let total = total.eval(env)?;
                let parts = parts.eval(env)?;
                let idx = idx.eval(env)?;
                if total < 0 || parts <= 0 || idx < 0 {
                    return Err(EvalError::BadBlock);
                }
                Ok(total / parts + i64::from(idx < total % parts))
            }
        }
    }

    /// `self` at `env`'s rank and loop variables, with the peer bound to
    /// any `q` of `0..env.p`, as `scale · f(q)` ([`PeerProduct`]), when
    /// that is exactly what [`Expr::eval`] gives and it gives a
    /// non-negative value at every peer. That holds when `self` is a
    /// product (a tree of `Mul`) of factors that do not read the peer and
    /// evaluate to non-negative values at `env`, and of at most one
    /// factor that reads only the peer: `Peer`, or a peer table of a
    /// specialized plan whose entries are all non-negative `Ok`s; and the
    /// product of the factors' largest values, each at least 1, fits an
    /// `i64`, so that no partial product of any evaluation order
    /// overflows. `None` otherwise.
    #[must_use]
    pub fn peer_product(&self, env: &Env) -> Option<PeerProduct<'_>> {
        let mut out = PeerProduct {
            scale: 1,
            peer: PeerFactor::One,
            p: u64::try_from(env.p).ok().filter(|&p| p > 0)?,
        };
        let mut bound = 1i64;
        self.split_product(env, &mut out, &mut bound)?;
        Some(out)
    }

    /// Multiply `self`'s factors into `out`, and their largest values
    /// (each at least 1) into `bound`.
    fn split_product<'e>(
        &'e self,
        env: &Env,
        out: &mut PeerProduct<'e>,
        bound: &mut i64,
    ) -> Option<()> {
        // The factor's largest value, and its value if it reads no peer.
        let (max, value) = match self {
            Self::Mul(a, b) => {
                a.split_product(env, out, bound)?;
                return b.split_product(env, out, bound);
            }
            Self::Peer if matches!(out.peer, PeerFactor::One) => {
                out.peer = PeerFactor::Peer;
                (env.p - 1, 1)
            }
            Self::Tabulated {
                by: Axis::Peer,
                table,
                ..
            } if matches!(out.peer, PeerFactor::One)
                && table.values.len() == usize::try_from(env.p).ok()? =>
            {
                out.peer = PeerFactor::Table(table);
                (i64::try_from(table.totals?.1).ok()?, 1)
            }
            _ if !self.reads().peer => {
                let v = self.eval(env).ok().filter(|v| *v >= 0)?;
                (v, v)
            }
            _ => return None,
        };
        *bound = bound.checked_mul(max.max(1))?;
        // `scale` is at most `bound`.
        out.scale *= value.unsigned_abs();
        Some(())
    }

    /// Specialize to world size `p`: replace [`Expr::P`] with `Const(p)`,
    /// then collapse every node whose children are all constants into its
    /// value — but only when that evaluation succeeds. A failing subtree
    /// (division by zero, overflow, log/pow2 domain) stays verbatim, so
    /// the folded expression evaluates to exactly the same `Ok` value or
    /// [`EvalError`] as `self` in every environment with `env.p == p`.
    /// `Rank`, `Peer` and `Var` are left alone.
    #[must_use]
    pub fn fold(&self, p: i64) -> Expr {
        let bin = |mk: fn(Box<Expr>, Box<Expr>) -> Expr, a: &Expr, b: &Expr| {
            mk(Box::new(a.fold(p)), Box::new(b.fold(p)))
        };
        let folded = match self {
            Self::P => return Self::Const(p),
            Self::Const(_) | Self::Rank | Self::Peer | Self::Var(_) | Self::Tabulated { .. } => {
                return self.clone()
            }
            Self::Add(a, b) => bin(Self::Add, a, b),
            Self::Sub(a, b) => bin(Self::Sub, a, b),
            Self::Mul(a, b) => bin(Self::Mul, a, b),
            Self::Div(a, b) => bin(Self::Div, a, b),
            Self::Mod(a, b) => bin(Self::Mod, a, b),
            Self::Min(a, b) => bin(Self::Min, a, b),
            Self::Max(a, b) => bin(Self::Max, a, b),
            Self::Xor(a, b) => bin(Self::Xor, a, b),
            Self::Pow2(e) => e.fold(p).pow2(),
            Self::Log2(e) => e.fold(p).log2(),
            Self::BlockLen { total, parts, idx } => {
                Self::block_len(total.fold(p), parts.fold(p), idx.fold(p))
            }
        };
        let is_const = |e: &Expr| matches!(e, Self::Const(_));
        let children_const = match &folded {
            Self::Add(a, b)
            | Self::Sub(a, b)
            | Self::Mul(a, b)
            | Self::Div(a, b)
            | Self::Mod(a, b)
            | Self::Min(a, b)
            | Self::Max(a, b)
            | Self::Xor(a, b) => is_const(a) && is_const(b),
            Self::Pow2(e) | Self::Log2(e) => is_const(e),
            Self::BlockLen { total, parts, idx } => {
                is_const(total) && is_const(parts) && is_const(idx)
            }
            Self::Const(_)
            | Self::P
            | Self::Rank
            | Self::Peer
            | Self::Var(_)
            | Self::Tabulated { .. } => false,
        };
        // With constant children the node reads nothing from the
        // environment, so any `Env` gives the value every rank would see.
        let env = Env {
            p,
            rank: 0,
            peer: None,
            vars: &[],
        };
        match children_const.then(|| folded.eval(&env)) {
            Some(Ok(v)) => Self::Const(v),
            _ => folded,
        }
    }

    /// Replace each maximal compound subtree that reads exactly one of the
    /// rank and the peer, and no loop variable, by its [`Expr::Tabulated`]
    /// table over `0..p`, the second half of
    /// [`CommPlan::specialize`](crate::CommPlan::specialize) after
    /// [`Expr::fold`]. The result evaluates exactly like `self` in every
    /// environment with `env.p == p`: a table entry is the subtree's own
    /// `Ok` value or [`EvalError`] at that index, and an index outside the
    /// table, or an unbound peer, walks the subtree.
    pub(crate) fn tabulate(self, p: i64, tables: &mut Tables) -> Expr {
        let by = match self.reads() {
            _ if !self.is_compound() => None,
            Reads {
                rank: true,
                peer: false,
                var: false,
            } => Some(Axis::Rank),
            Reads {
                rank: false,
                peer: true,
                var: false,
            } => Some(Axis::Peer),
            _ => None,
        };
        let Some(by) = by else {
            return self.map_children(|child| child.tabulate(p, tables));
        };
        let table = tables.get_or_build(by, &self, p);
        Self::Tabulated {
            by,
            expr: Box::new(self),
            table,
        }
    }

    /// Whether `self` is an operator node, not a leaf or a table.
    fn is_compound(&self) -> bool {
        !matches!(
            self,
            Self::Const(_)
                | Self::P
                | Self::Rank
                | Self::Peer
                | Self::Var(_)
                | Self::Tabulated { .. }
        )
    }

    /// Which variables evaluating `self` reads.
    fn reads(&self) -> Reads {
        let or = |a: Reads, b: Reads| Reads {
            rank: a.rank || b.rank,
            peer: a.peer || b.peer,
            var: a.var || b.var,
        };
        let none = Reads::default();
        match self {
            Self::Const(_) | Self::P => none,
            Self::Rank | Self::Tabulated { by: Axis::Rank, .. } => Reads { rank: true, ..none },
            Self::Peer | Self::Tabulated { by: Axis::Peer, .. } => Reads { peer: true, ..none },
            Self::Var(_) => Reads { var: true, ..none },
            Self::Add(a, b)
            | Self::Sub(a, b)
            | Self::Mul(a, b)
            | Self::Div(a, b)
            | Self::Mod(a, b)
            | Self::Min(a, b)
            | Self::Max(a, b)
            | Self::Xor(a, b) => or(a.reads(), b.reads()),
            Self::Pow2(e) | Self::Log2(e) => e.reads(),
            Self::BlockLen { total, parts, idx } => {
                or(or(total.reads(), parts.reads()), idx.reads())
            }
        }
    }

    /// Whether evaluating `self` reads the loop variable `Var(depth)`.
    pub(crate) fn reads_var(&self, depth: usize) -> bool {
        match self {
            Self::Var(d) => *d == depth,
            Self::Const(_) | Self::P | Self::Rank | Self::Peer | Self::Tabulated { .. } => false,
            Self::Add(a, b)
            | Self::Sub(a, b)
            | Self::Mul(a, b)
            | Self::Div(a, b)
            | Self::Mod(a, b)
            | Self::Min(a, b)
            | Self::Max(a, b)
            | Self::Xor(a, b) => a.reads_var(depth) || b.reads_var(depth),
            Self::Pow2(e) | Self::Log2(e) => e.reads_var(depth),
            Self::BlockLen { total, parts, idx } => {
                total.reads_var(depth) || parts.reads_var(depth) || idx.reads_var(depth)
            }
        }
    }

    /// Rebuild `self` with `f` applied to each direct child.
    fn map_children(self, mut f: impl FnMut(Expr) -> Expr) -> Expr {
        let mut g = |e: Box<Expr>| Box::new(f(*e));
        match self {
            Self::Add(a, b) => Self::Add(g(a), g(b)),
            Self::Sub(a, b) => Self::Sub(g(a), g(b)),
            Self::Mul(a, b) => Self::Mul(g(a), g(b)),
            Self::Div(a, b) => Self::Div(g(a), g(b)),
            Self::Mod(a, b) => Self::Mod(g(a), g(b)),
            Self::Min(a, b) => Self::Min(g(a), g(b)),
            Self::Max(a, b) => Self::Max(g(a), g(b)),
            Self::Xor(a, b) => Self::Xor(g(a), g(b)),
            Self::Pow2(e) => Self::Pow2(g(e)),
            Self::Log2(e) => Self::Log2(g(e)),
            Self::BlockLen { total, parts, idx } => Self::BlockLen {
                total: g(total),
                parts: g(parts),
                idx: g(idx),
            },
            leaf @ (Self::Const(_)
            | Self::P
            | Self::Rank
            | Self::Peer
            | Self::Var(_)
            | Self::Tabulated { .. }) => leaf,
        }
    }

    /// `min(self, other)`.
    #[must_use]
    pub fn min_of(self, other: Expr) -> Expr {
        Expr::Min(Box::new(self), Box::new(other))
    }

    /// `max(self, other)`.
    #[must_use]
    pub fn max_of(self, other: Expr) -> Expr {
        Expr::Max(Box::new(self), Box::new(other))
    }

    /// `self ^ other` (bitwise).
    #[must_use]
    pub fn xor(self, other: Expr) -> Expr {
        Expr::Xor(Box::new(self), Box::new(other))
    }

    /// `2^self`.
    #[must_use]
    pub fn pow2(self) -> Expr {
        Expr::Pow2(Box::new(self))
    }

    /// `floor(log2 self)`.
    #[must_use]
    pub fn log2(self) -> Expr {
        Expr::Log2(Box::new(self))
    }

    /// NPB block length: `total/parts + (idx < total % parts)`.
    #[must_use]
    pub fn block_len(total: Expr, parts: Expr, idx: Expr) -> Expr {
        Expr::BlockLen {
            total: Box::new(total),
            parts: Box::new(parts),
            idx: Box::new(idx),
        }
    }
}

impl From<i64> for Expr {
    fn from(v: i64) -> Self {
        Expr::Const(v)
    }
}

macro_rules! expr_binop {
    ($trait:ident, $method:ident, $variant:ident) => {
        impl ops::$trait for Expr {
            type Output = Expr;
            fn $method(self, rhs: Expr) -> Expr {
                Expr::$variant(Box::new(self), Box::new(rhs))
            }
        }
    };
}

expr_binop!(Add, add, Add);
expr_binop!(Sub, sub, Sub);
expr_binop!(Mul, mul, Mul);
expr_binop!(Div, div, Div);
expr_binop!(Rem, rem, Mod);

/// A boolean condition over the same environment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Cond {
    /// `a == b`.
    Eq(Expr, Expr),
    /// `a != b`.
    Ne(Expr, Expr),
    /// `a < b`.
    Lt(Expr, Expr),
    /// `a <= b`.
    Le(Expr, Expr),
    /// Conjunction.
    And(Box<Cond>, Box<Cond>),
    /// Disjunction.
    Or(Box<Cond>, Box<Cond>),
    /// Negation.
    Not(Box<Cond>),
}

impl Cond {
    /// Evaluate against `env`.
    pub fn eval(&self, env: &Env) -> Result<bool, EvalError> {
        match self {
            Self::Eq(a, b) => Ok(a.eval(env)? == b.eval(env)?),
            Self::Ne(a, b) => Ok(a.eval(env)? != b.eval(env)?),
            Self::Lt(a, b) => Ok(a.eval(env)? < b.eval(env)?),
            Self::Le(a, b) => Ok(a.eval(env)? <= b.eval(env)?),
            Self::And(a, b) => Ok(a.eval(env)? && b.eval(env)?),
            Self::Or(a, b) => Ok(a.eval(env)? || b.eval(env)?),
            Self::Not(c) => Ok(!c.eval(env)?),
        }
    }

    /// [`Expr::fold`] applied to every operand: evaluates exactly like
    /// `self` in every environment with `env.p == p`.
    #[must_use]
    pub fn fold(&self, p: i64) -> Cond {
        match self {
            Self::Eq(a, b) => Self::Eq(a.fold(p), b.fold(p)),
            Self::Ne(a, b) => Self::Ne(a.fold(p), b.fold(p)),
            Self::Lt(a, b) => Self::Lt(a.fold(p), b.fold(p)),
            Self::Le(a, b) => Self::Le(a.fold(p), b.fold(p)),
            Self::And(a, b) => Self::And(Box::new(a.fold(p)), Box::new(b.fold(p))),
            Self::Or(a, b) => Self::Or(Box::new(a.fold(p)), Box::new(b.fold(p))),
            Self::Not(c) => Self::Not(Box::new(c.fold(p))),
        }
    }

    /// Whether evaluating `self` reads the loop variable `Var(depth)`.
    pub(crate) fn reads_var(&self, depth: usize) -> bool {
        match self {
            Self::Eq(a, b) | Self::Ne(a, b) | Self::Lt(a, b) | Self::Le(a, b) => {
                a.reads_var(depth) || b.reads_var(depth)
            }
            Self::And(a, b) | Self::Or(a, b) => a.reads_var(depth) || b.reads_var(depth),
            Self::Not(c) => c.reads_var(depth),
        }
    }

    /// [`Expr::tabulate`] applied to every operand.
    pub(crate) fn tabulate(self, p: i64, tables: &mut Tables) -> Cond {
        match self {
            Self::Eq(a, b) => Self::Eq(a.tabulate(p, tables), b.tabulate(p, tables)),
            Self::Ne(a, b) => Self::Ne(a.tabulate(p, tables), b.tabulate(p, tables)),
            Self::Lt(a, b) => Self::Lt(a.tabulate(p, tables), b.tabulate(p, tables)),
            Self::Le(a, b) => Self::Le(a.tabulate(p, tables), b.tabulate(p, tables)),
            Self::And(a, b) => Self::And(
                Box::new(a.tabulate(p, tables)),
                Box::new(b.tabulate(p, tables)),
            ),
            Self::Or(a, b) => Self::Or(
                Box::new(a.tabulate(p, tables)),
                Box::new(b.tabulate(p, tables)),
            ),
            Self::Not(c) => Self::Not(Box::new(c.tabulate(p, tables))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(p: i64, rank: i64) -> Env<'static> {
        Env {
            p,
            rank,
            peer: None,
            vars: &[],
        }
    }

    #[test]
    fn arithmetic_and_builders() {
        let e = (Expr::Rank + Expr::Const(3)) * Expr::Const(2);
        assert_eq!(e.eval(&env(8, 5)), Ok(16));
        let e = Expr::P / Expr::Const(2) - Expr::Const(1);
        assert_eq!(e.eval(&env(8, 0)), Ok(3));
        assert_eq!((Expr::Rank % Expr::Const(3)).eval(&env(8, 7)), Ok(1));
        assert_eq!(Expr::Rank.xor(Expr::Const(1)).eval(&env(8, 6)), Ok(7));
        assert_eq!(
            Expr::Const(5).min_of(Expr::Const(9)).eval(&env(1, 0)),
            Ok(5)
        );
        assert_eq!(
            Expr::Const(5).max_of(Expr::Const(9)).eval(&env(1, 0)),
            Ok(9)
        );
    }

    #[test]
    fn pow2_log2_roundtrip() {
        for v in [1i64, 2, 3, 7, 8, 1024] {
            let lg = Expr::Const(v).log2().eval(&env(1, 0)).unwrap();
            assert_eq!(lg, i64::from(63 - v.leading_zeros()));
            let back = Expr::Const(lg).pow2().eval(&env(1, 0)).unwrap();
            assert!(back <= v && v < back * 2);
        }
        assert_eq!(
            Expr::Const(0).log2().eval(&env(1, 0)),
            Err(EvalError::BadLog)
        );
        assert_eq!(
            Expr::Const(64).pow2().eval(&env(1, 0)),
            Err(EvalError::BadLog)
        );
    }

    #[test]
    fn block_len_matches_npb_block_range() {
        // Mirror of npb's block_range length for a few (total, parts).
        for (total, parts) in [(16i64, 4i64), (7, 3), (16, 5), (8, 12)] {
            let mut sum = 0;
            for idx in 0..parts {
                let len = Expr::block_len(Expr::Const(total), Expr::Const(parts), Expr::Const(idx))
                    .eval(&env(1, 0))
                    .unwrap();
                let base = total / parts;
                let extra = total % parts;
                assert_eq!(len, base + i64::from(idx < extra));
                sum += len;
            }
            assert_eq!(sum, total, "blocks must cover total exactly");
        }
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        assert_eq!(
            (Expr::Const(1) / Expr::Const(0)).eval(&env(1, 0)),
            Err(EvalError::DivByZero)
        );
        assert_eq!(
            (Expr::Const(i64::MAX) + Expr::Const(1)).eval(&env(1, 0)),
            Err(EvalError::Overflow)
        );
        assert_eq!(Expr::Peer.eval(&env(4, 0)), Err(EvalError::PeerUnavailable));
        assert_eq!(Expr::Var(0).eval(&env(4, 0)), Err(EvalError::UnboundVar(0)));
    }

    #[test]
    fn fold_collapses_p_only_subtrees_and_keeps_failing_ones() {
        let nprow = (Expr::P.log2() / Expr::Const(2)).pow2();
        assert_eq!(nprow.fold(256), Expr::Const(16));
        let row = Expr::Rank / (Expr::P / nprow);
        assert_eq!(row.fold(256), Expr::Rank / Expr::Const(16));
        let bad = Expr::Const(1) / (Expr::P - Expr::Const(4));
        assert_eq!(bad.fold(8), Expr::Const(0));
        assert_eq!(
            bad.fold(4),
            Expr::Const(1) / Expr::Const(0),
            "a failing subtree stays verbatim"
        );
        assert_eq!(bad.fold(4).eval(&env(4, 0)), Err(EvalError::DivByZero));
        let c = Cond::Lt(Expr::Rank, Expr::P * Expr::Const(2));
        assert_eq!(c.fold(3), Cond::Lt(Expr::Rank, Expr::Const(6)));
    }

    #[test]
    fn tabulate_replaces_rank_only_subtrees_and_keeps_their_errors() {
        let tab = |e: &Expr, p: i64| e.fold(p).tabulate(p, &mut Tables::default());
        let by_rank = |e: &Expr| matches!(e, Expr::Tabulated { by: Axis::Rank, .. });
        let slab = Expr::block_len(Expr::Const(16), Expr::P, Expr::Rank) * Expr::Const(256);
        let t = tab(&slab, 64);
        assert!(by_rank(&t), "{t:?}");
        for rank in [-1, 0, 15, 16, 63, 64] {
            assert_eq!(
                t.eval(&env(64, rank)),
                slab.eval(&env(64, rank)),
                "rank {rank}"
            );
        }
        // Only the rank-only half of a loop-variable expression is tabulated.
        let partner = (Expr::Rank / Expr::Const(4)).xor(Expr::Var(0));
        let Expr::Xor(a, b) = tab(&partner, 16) else {
            panic!("the loop-variable node stays")
        };
        assert!(by_rank(&a));
        assert_eq!(*b, Expr::Var(0));
        // A subtree failing on every rank keeps its error, per rank.
        let bad = Expr::Rank / (Expr::P - Expr::Const(4));
        let t = tab(&bad, 4);
        assert!(by_rank(&t), "{t:?}");
        assert_eq!(t.eval(&env(4, 2)), Err(EvalError::DivByZero));
        // A bare rank is already a leaf.
        assert_eq!(tab(&Expr::Rank, 8), Expr::Rank);
    }

    #[test]
    fn tabulate_gives_peer_only_subtrees_their_own_table() {
        let tab = |e: &Expr, p: i64| e.fold(p).tabulate(p, &mut Tables::default());
        // FT's inverse transpose size: a peer-only factor times a
        // rank-only one.
        let my_nx = Expr::block_len(Expr::Const(64), Expr::P, Expr::Rank);
        let size = Expr::block_len(Expr::Const(64), Expr::P, Expr::Peer) * Expr::Const(64) * my_nx;
        let Expr::Mul(a, b) = tab(&size, 12) else {
            panic!("the mixed product stays")
        };
        assert!(matches!(*a, Expr::Tabulated { by: Axis::Peer, .. }));
        assert!(matches!(*b, Expr::Tabulated { by: Axis::Rank, .. }));
        let t = Expr::Mul(a, b);
        for rank in [0, 5, 11] {
            for peer in [None, Some(-1), Some(0), Some(7), Some(11), Some(12)] {
                let e = Env {
                    p: 12,
                    rank,
                    peer,
                    vars: &[],
                };
                assert_eq!(t.eval(&e), size.eval(&e), "rank {rank} peer {peer:?}");
            }
        }
        assert_eq!(
            t.eval(&env(12, 0)),
            Err(EvalError::PeerUnavailable),
            "an unbound peer walks the subtree"
        );
    }

    #[test]
    fn de_bruijn_vars_read_innermost_first() {
        let vars = [10i64, 20, 30];
        let e = Env {
            p: 4,
            rank: 0,
            peer: None,
            vars: &vars,
        };
        assert_eq!(Expr::Var(0).eval(&e), Ok(30));
        assert_eq!(Expr::Var(1).eval(&e), Ok(20));
        assert_eq!(Expr::Var(2).eval(&e), Ok(10));
    }

    #[test]
    fn conds() {
        let e = env(8, 3);
        assert!(Cond::Eq(Expr::Rank, Expr::Const(3)).eval(&e).unwrap());
        assert!(Cond::Ne(Expr::Rank, Expr::P).eval(&e).unwrap());
        assert!(Cond::Lt(Expr::Rank, Expr::P).eval(&e).unwrap());
        assert!(Cond::Not(Box::new(Cond::Le(Expr::P, Expr::Rank)))
            .eval(&e)
            .unwrap());
        assert!(Cond::And(
            Box::new(Cond::Le(Expr::Const(0), Expr::Rank)),
            Box::new(Cond::Lt(Expr::Rank, Expr::P)),
        )
        .eval(&e)
        .unwrap());
        assert!(Cond::Or(
            Box::new(Cond::Eq(Expr::Rank, Expr::Const(99))),
            Box::new(Cond::Lt(Expr::Rank, Expr::P)),
        )
        .eval(&e)
        .unwrap());
    }
}
