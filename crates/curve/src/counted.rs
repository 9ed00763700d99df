//! A test field that logs every datapath operation and masked selection.
//!
//! Unit tests run production formulas on [`Counted`] to pin their
//! operation counts, and record whole multiplications to check that the
//! sequence of operations and selections does not depend on the secret
//! scalar. Unlike a timing test, that check cannot pass by luck on a slow
//! or single-thread host.

use crate::affine::AffinePoint;
use crate::decompose::Recoded;
use crate::engine::{masked_entry, EngineSelect};
use crate::extended::{CachedPoint, ExtendedPoint};
use fourq_fp::{Choice, CtSelect, Fp2, Fp2Like};
use std::cell::RefCell;

/// One logged operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Op {
    Mul,
    Sqr,
    /// Addition, subtraction or negation.
    Add,
    Conj,
    /// A masked selection, with the table slot of the candidate it may
    /// fold in (`None` for a computed candidate).
    Select(Option<u8>),
}

thread_local! {
    static LOG: RefCell<Vec<Op>> = const { RefCell::new(Vec::new()) };
}

/// An `F_p²` element that logs the operations applied to it. Elements
/// lifted from a table carry their slot, so a logged selection shows which
/// slot a scan read.
#[derive(Clone)]
pub(crate) struct Counted {
    v: Fp2,
    slot: Option<u8>,
}

impl Counted {
    /// A value outside any table.
    pub(crate) fn new(v: Fp2) -> Counted {
        Counted { v, slot: None }
    }

    /// A coordinate of the table entry in `slot`.
    pub(crate) fn in_slot(v: Fp2, slot: u8) -> Counted {
        Counted {
            v,
            slot: Some(slot),
        }
    }

    fn op(op: Op, v: Fp2) -> Counted {
        LOG.with(|log| log.borrow_mut().push(op));
        Counted::new(v)
    }
}

/// A value lifted into the counting field, outside any table.
impl From<Fp2> for Counted {
    fn from(v: Fp2) -> Counted {
        Counted::new(v)
    }
}

/// The affine point that a counted projective result stands for.
pub(crate) fn values(p: &ExtendedPoint<Counted>) -> AffinePoint {
    AffinePoint::from_extended(&ExtendedPoint {
        x: p.x.v,
        y: p.y.v,
        z: p.z.v,
        ta: p.ta.v,
        tb: p.tb.v,
    })
}

/// Runs `f` and returns its result with the operations it logged.
pub(crate) fn record<R>(f: impl FnOnce() -> R) -> (R, Vec<Op>) {
    LOG.with(|log| log.borrow_mut().clear());
    let out = f();
    (out, LOG.with(|log| log.take()))
}

/// `[mul, sqr, add/sub/neg, conj]` in `log`.
pub(crate) fn tally(log: &[Op]) -> [usize; 4] {
    let count = |want: Op| log.iter().filter(|&&op| op == want).count();
    [
        count(Op::Mul),
        count(Op::Sqr),
        count(Op::Add),
        count(Op::Conj),
    ]
}

impl Fp2Like for Counted {
    fn add(&self, rhs: &Self) -> Self {
        Counted::op(Op::Add, self.v + rhs.v)
    }
    fn sub(&self, rhs: &Self) -> Self {
        Counted::op(Op::Add, self.v - rhs.v)
    }
    fn mul(&self, rhs: &Self) -> Self {
        Counted::op(Op::Mul, self.v * rhs.v)
    }
    fn sqr(&self) -> Self {
        Counted::op(Op::Sqr, self.v.square())
    }
    fn neg(&self) -> Self {
        Counted::op(Op::Add, -self.v)
    }
    fn conj(&self) -> Self {
        Counted::op(Op::Conj, self.v.conj())
    }
    fn value(&self) -> Fp2 {
        self.v
    }
}

impl CtSelect for Counted {
    fn ct_select(a: &Self, b: &Self, c: Choice) -> Self {
        Counted::op(Op::Select(b.slot), Fp2::ct_select(&a.v, &b.v, c))
    }
}

/// The masked choices of [`Fp2`], so Algorithm 1's loop can be counted.
impl EngineSelect for Counted {
    fn constant(_one: &Counted, _name: &'static str, value: Fp2) -> Counted {
        Counted::new(value)
    }

    fn table_entry(
        table: &[CachedPoint<Counted>; 8],
        recoded: &Recoded,
        i: usize,
    ) -> CachedPoint<Counted> {
        masked_entry(table, recoded, i)
    }

    fn parity_pick(
        a: &CachedPoint<Counted>,
        b: &CachedPoint<Counted>,
        c: Choice,
    ) -> CachedPoint<Counted> {
        CachedPoint::ct_select(a, b, c)
    }
}
