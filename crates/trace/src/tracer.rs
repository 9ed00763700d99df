//! The recording field type and the trace data model.

use core::cell::RefCell;
use core::fmt;
use fourq_baselines::mont::{FeLike, MontField};
use fourq_baselines::{p256::P256, x25519::X25519};
use fourq_curve::{CachedPoint, CurveId, EngineSelect, Recoded};
use fourq_fp::{Choice, Fp2, Fp2Like, U256};
use std::collections::HashMap;
use std::rc::Rc;

/// Identifier of a value in a trace. Ids `0..inputs.len()` are the inputs
/// (and lifted constants); ids `inputs.len()..` are operation results, in
/// issue order.
pub type NodeId = usize;

/// The microinstruction kinds of the two-unit datapath (Fig. 1(a)).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OpKind {
    /// `F_p²` multiplication (Karatsuba multiplier unit).
    Mul,
    /// `F_p²` squaring (multiplier unit).
    Sqr,
    /// `F_p²` addition (adder/subtractor unit).
    Add,
    /// `F_p²` subtraction (adder/subtractor unit).
    Sub,
    /// Negation (adder/subtractor unit).
    Neg,
    /// Complex conjugation (adder/subtractor unit — negates the imaginary
    /// half).
    Conj,
}

/// Which arithmetic unit executes an operation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Unit {
    /// The pipelined Karatsuba `F_p²` multiplier.
    Multiplier,
    /// The `F_p²` adder/subtractor.
    AddSub,
}

impl OpKind {
    /// The unit this operation issues on.
    pub fn unit(self) -> Unit {
        match self {
            OpKind::Mul | OpKind::Sqr => Unit::Multiplier,
            _ => Unit::AddSub,
        }
    }

    /// Human-readable mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            OpKind::Mul => "mul",
            OpKind::Sqr => "sqr",
            OpKind::Add => "add",
            OpKind::Sub => "sub",
            OpKind::Neg => "neg",
            OpKind::Conj => "conj",
        }
    }
}

/// An operand of a microinstruction: either a concrete trace value or the
/// output of an operand multiplexer (the datapath's select network).
///
/// Muxes are how the trace stays *uniform* across scalars: instead of
/// baking the winner of a secret-indexed table lookup into the SSA, the
/// instruction reads through a [`Mux`] whose select lines are driven by
/// the runtime digit stream. One program therefore serves every
/// (base, scalar) pair.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Operand {
    /// A value by id (input or operation result).
    Val(NodeId),
    /// The output of `trace.muxes[i]`.
    Mux(usize),
}

/// What drives a multiplexer's select lines at execution time.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Selector {
    /// 8-way select by the table index of recoded digit `d`
    /// (candidate `indices[d]`).
    TableIndex(usize),
    /// 2-way select by the sign of recoded digit `d`: candidate 0 when
    /// the digit is positive, candidate 1 when negative.
    SignNeg(usize),
    /// 2-way select by the decomposition's parity-correction flag:
    /// candidate 0 when no correction is needed, candidate 1 when the
    /// scalar was parity-corrected.
    Corrected,
}

impl Selector {
    /// The number of candidates this selector chooses among.
    pub fn arity(&self) -> usize {
        match self {
            Selector::TableIndex(_) => 8,
            Selector::SignNeg(_) | Selector::Corrected => 2,
        }
    }

    /// The candidate index this selector picks for a given digit stream.
    ///
    /// # Panics
    ///
    /// Panics if the selector's digit position is out of range for
    /// `digits` (a malformed trace; see [`Trace::validate`]).
    pub fn select(&self, digits: &DigitStream) -> usize {
        match *self {
            Selector::TableIndex(d) => digits.indices[d] as usize,
            Selector::SignNeg(d) => digits.neg[d] as usize,
            Selector::Corrected => digits.corrected as usize,
        }
    }
}

/// One operand multiplexer: a selector plus its candidate operands.
///
/// Muxes live in a side table ([`Trace::muxes`]) and are referenced only
/// from operand positions — they consume no [`NodeId`], no register and
/// no datapath cycle, exactly like the operand-select lines of the
/// paper's architecture.
#[derive(Clone, Debug)]
pub struct Mux {
    /// What drives the select lines.
    pub sel: Selector,
    /// Candidate operands; `sel.arity()` of them. Candidates may route
    /// through earlier muxes (e.g. a sign select over a table-index
    /// select) but never through later ones.
    pub cands: Vec<Operand>,
}

/// The per-execution digit inputs that drive every mux select line: the
/// recoded table indices and sign bits plus the parity-correction flag.
///
/// This is the *runtime* half of a compiled kernel's input (the other
/// half being the base-point coordinates); the trace itself stores the
/// representative stream its values were recorded under.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DigitStream {
    /// Table index per digit position, each `< 8`.
    pub indices: Vec<u8>,
    /// Sign per digit position: `true` when the digit is negative.
    pub neg: Vec<bool>,
    /// Parity-correction flag of the decomposition.
    pub corrected: bool,
}

impl DigitStream {
    /// An empty stream, for programs without data-dependent routing.
    pub fn empty() -> DigitStream {
        DigitStream::default()
    }
}

/// The Montgomery-field context a base-field curve's trace values live in.
///
/// Traces store base-field elements in Montgomery form so every recorded
/// `Mul` costs exactly one hardware Montgomery multiplication — the same
/// cost model the paper's Table II competitors (\[17\]/\[18\]) are built on.
///
/// # Panics
///
/// Panics for [`CurveId::FourQ`], whose traces carry `F_p²` words instead.
pub fn mont_field(curve: CurveId) -> &'static MontField {
    use std::sync::OnceLock;
    static X25519_FIELD: OnceLock<MontField> = OnceLock::new();
    static P256_FIELD: OnceLock<MontField> = OnceLock::new();
    match curve {
        CurveId::FourQ => panic!("Fourℚ traces use F_p² words, not a Montgomery base field"),
        CurveId::X25519 => X25519_FIELD.get_or_init(|| *X25519::new().field()),
        CurveId::P256 => P256_FIELD.get_or_init(|| P256::new().field),
    }
}

/// A value recorded in a trace: an `F_p²` element for Fourℚ programs, or a
/// base-field element in Montgomery form for X25519 / P-256 programs.
///
/// Every value of one trace is the same variant — the datapath word width
/// is a property of the compiled kernel, not of individual registers — and
/// [`Trace::validate`] relies on [`Word::eval`] to enforce it dynamically
/// (mixed-variant arithmetic panics).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Word {
    /// An `F_p²` element (Fourℚ).
    Fp2(Fp2),
    /// A base-field element of `curve`'s field, Montgomery form.
    Fe(CurveId, U256),
}

impl Word {
    /// The additive identity in `curve`'s word type.
    pub fn zero(curve: CurveId) -> Word {
        match curve {
            CurveId::FourQ => Word::Fp2(Fp2::ZERO),
            c => Word::Fe(c, U256::ZERO),
        }
    }

    /// The `F_p²` payload.
    ///
    /// # Panics
    ///
    /// Panics if this is a base-field word.
    pub fn as_fp2(self) -> Fp2 {
        match self {
            Word::Fp2(v) => v,
            Word::Fe(c, _) => panic!("word is a {c} base-field element, not F_p²"),
        }
    }

    /// The base-field payload (Montgomery form).
    ///
    /// # Panics
    ///
    /// Panics if this is an `F_p²` word.
    pub fn as_fe(self) -> U256 {
        match self {
            Word::Fe(_, v) => v,
            Word::Fp2(_) => panic!("word is an F_p² element, not a base-field element"),
        }
    }

    /// Applies one microinstruction to concrete words — the single
    /// arithmetic definition shared by [`Trace::self_check`], the
    /// scheduler simulators and kernel replay, so every layer computes
    /// with identical semantics.
    ///
    /// `Conj` on a base field is the identity (conjugation is an `F_p²`
    /// notion); base-field programs simply never emit it.
    ///
    /// # Panics
    ///
    /// Panics on a missing/extra second operand or mixed-variant operands.
    ///
    /// Inline: this sits on the kernel replay hot path (one call per
    /// microinstruction), where the variant tag is loop-invariant and the
    /// field arithmetic must inline into the caller.
    #[inline]
    pub fn eval(kind: OpKind, a: Word, b: Option<Word>) -> Word {
        match a {
            Word::Fp2(x) => {
                let rhs = |b: Option<Word>| b.expect("binary op needs a second operand").as_fp2();
                Word::Fp2(match kind {
                    OpKind::Mul => x.mul_karatsuba(&rhs(b)),
                    OpKind::Add => x + rhs(b),
                    OpKind::Sub => x - rhs(b),
                    OpKind::Sqr => x.square(),
                    OpKind::Neg => -x,
                    OpKind::Conj => x.conj(),
                })
            }
            Word::Fe(c, x) => {
                let f = mont_field(c);
                let rhs = |b: Option<Word>| match b.expect("binary op needs a second operand") {
                    Word::Fe(c2, v) => {
                        assert_eq!(c2, c, "operands belong to different base fields");
                        v
                    }
                    Word::Fp2(_) => panic!("mixed F_p²/base-field operands"),
                };
                Word::Fe(
                    c,
                    match kind {
                        OpKind::Mul => f.mul(x, rhs(b)),
                        OpKind::Add => f.add(x, rhs(b)),
                        OpKind::Sub => f.sub(x, rhs(b)),
                        OpKind::Sqr => f.sqr(x),
                        OpKind::Neg => f.neg(x),
                        OpKind::Conj => x,
                    },
                )
            }
        }
    }
}

/// One recorded microinstruction.
#[derive(Clone, Debug)]
pub struct Node {
    /// Operation kind.
    pub kind: OpKind,
    /// First operand.
    pub a: Operand,
    /// Second operand (`None` for unary `Neg`/`Conj`/`Sqr`).
    pub b: Option<Operand>,
}

/// Operation-count statistics of a trace (for the paper's "57 % of
/// operations are `F_p²` multiplications" profiling claim).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Count of `Mul` ops.
    pub mul: usize,
    /// Count of `Sqr` ops.
    pub sqr: usize,
    /// Count of `Add` ops.
    pub add: usize,
    /// Count of `Sub` ops.
    pub sub: usize,
    /// Count of `Neg` ops.
    pub neg: usize,
    /// Count of `Conj` ops.
    pub conj: usize,
}

impl OpStats {
    /// Total operations.
    pub fn total(&self) -> usize {
        self.mul + self.sqr + self.add + self.sub + self.neg + self.conj
    }

    /// Operations issuing on the multiplier unit.
    pub fn multiplier_ops(&self) -> usize {
        self.mul + self.sqr
    }

    /// Fraction of operations issuing on the multiplier unit.
    pub fn multiplier_fraction(&self) -> f64 {
        self.multiplier_ops() as f64 / self.total() as f64
    }
}

impl fmt::Display for OpStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mul {} + sqr {} | add {} sub {} neg {} conj {} (multiplier {:.1}%)",
            self.mul,
            self.sqr,
            self.add,
            self.sub,
            self.neg,
            self.conj,
            100.0 * self.multiplier_fraction()
        )
    }
}

/// A structural defect found by [`Trace::validate`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// `values.len()` disagrees with `inputs.len() + nodes.len()`.
    ValueCountMismatch,
    /// A node operand references a value at or after the node itself
    /// (the SSA list is not a DAG).
    OperandOutOfRange {
        /// Offending operation index.
        node: usize,
    },
    /// A node or mux references a mux index outside `muxes`.
    MuxOutOfRange {
        /// Offending operation index (or mux index for mux→mux edges).
        node: usize,
    },
    /// A mux candidate routes through a mux recorded later.
    ForwardMuxReference {
        /// Offending mux index.
        mux: usize,
    },
    /// A mux has the wrong number of candidates for its selector.
    MuxArity {
        /// Offending mux index.
        mux: usize,
        /// `sel.arity()`.
        expected: usize,
        /// Actual candidate count.
        got: usize,
    },
    /// A selector's digit position is outside the representative digit
    /// stream (the trace cannot even replay its own recording).
    DigitOutOfRange {
        /// Offending mux index.
        mux: usize,
    },
    /// A binary operation is missing its second operand.
    MissingOperand {
        /// Offending operation index.
        node: usize,
    },
    /// A unary operation carries a second operand.
    UnexpectedOperand {
        /// Offending operation index.
        node: usize,
    },
    /// An output references a nonexistent value id.
    OutputOutOfRange {
        /// Offending output index.
        output: usize,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::ValueCountMismatch => {
                write!(f, "stored value count disagrees with inputs + nodes")
            }
            TraceError::OperandOutOfRange { node } => {
                write!(f, "operation {node} reads a value defined at or after it")
            }
            TraceError::MuxOutOfRange { node } => {
                write!(f, "operation {node} references a nonexistent mux")
            }
            TraceError::ForwardMuxReference { mux } => {
                write!(f, "mux {mux} routes through a later mux")
            }
            TraceError::MuxArity { mux, expected, got } => {
                write!(
                    f,
                    "mux {mux} has {got} candidates, selector wants {expected}"
                )
            }
            TraceError::DigitOutOfRange { mux } => {
                write!(
                    f,
                    "mux {mux} selects on a digit position outside the stream"
                )
            }
            TraceError::MissingOperand { node } => {
                write!(f, "binary operation {node} is missing its second operand")
            }
            TraceError::UnexpectedOperand { node } => {
                write!(f, "unary operation {node} carries a second operand")
            }
            TraceError::OutputOutOfRange { output } => {
                write!(f, "output {output} references a nonexistent value")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// A finished execution trace: named inputs, SSA operation list, operand
/// muxes, named outputs, and the concrete value of every id under the
/// representative digit stream (for functional checks).
#[derive(Clone, Debug)]
pub struct Trace {
    /// The curve this program computes on; fixes the word type of every
    /// input, value and output ([`Word::Fp2`] for Fourℚ, [`Word::Fe`]
    /// otherwise).
    pub curve: CurveId,
    /// Named inputs and lifted constants.
    pub inputs: Vec<(String, Word)>,
    /// Ids of inputs that are bound fresh on every execution (the base
    /// point's coordinates); the remaining inputs are lifted constants
    /// baked into a compiled kernel's register file image.
    pub runtime_ids: Vec<NodeId>,
    /// The recorded operations.
    pub nodes: Vec<Node>,
    /// The operand multiplexers, referenced from operand positions.
    pub muxes: Vec<Mux>,
    /// Named outputs (`(name, id)`). Outputs are always concrete values,
    /// never muxes.
    pub outputs: Vec<(String, NodeId)>,
    /// Value of every id (inputs followed by node results), as recorded
    /// under [`Trace::digits`].
    pub values: Vec<Word>,
    /// The representative digit stream the values were recorded under.
    pub digits: DigitStream,
}

impl Trace {
    /// The id of the first operation (inputs come before).
    pub fn first_op_id(&self) -> NodeId {
        self.inputs.len()
    }

    /// The zero word of this trace's curve (the register-file reset value
    /// simulators use for uninitialised registers).
    pub fn zero_word(&self) -> Word {
        Word::zero(self.curve)
    }

    /// Operation-count statistics.
    pub fn stats(&self) -> OpStats {
        let mut s = OpStats::default();
        for n in &self.nodes {
            match n.kind {
                OpKind::Mul => s.mul += 1,
                OpKind::Sqr => s.sqr += 1,
                OpKind::Add => s.add += 1,
                OpKind::Sub => s.sub += 1,
                OpKind::Neg => s.neg += 1,
                OpKind::Conj => s.conj += 1,
            }
        }
        s
    }

    /// Resolves an operand to a concrete value id by walking the mux
    /// network under a digit stream.
    pub fn resolve(&self, op: Operand, digits: &DigitStream) -> NodeId {
        let mut cur = op;
        loop {
            match cur {
                Operand::Val(id) => return id,
                Operand::Mux(m) => {
                    let mx = &self.muxes[m];
                    cur = mx.cands[mx.sel.select(digits)];
                }
            }
        }
    }

    /// For every mux, the set of value ids reachable through its
    /// candidate network (sorted, deduplicated).
    ///
    /// This is the conservative footprint a scheduler and register
    /// allocator must honour: *any* of these values may be the one a
    /// consuming instruction reads at runtime, so all of them must be
    /// computed before the read and stay live until it.
    pub fn mux_reach(&self) -> Vec<Vec<NodeId>> {
        let mut reach: Vec<Vec<NodeId>> = Vec::with_capacity(self.muxes.len());
        for mx in &self.muxes {
            let mut ids = Vec::new();
            for c in &mx.cands {
                match *c {
                    Operand::Val(id) => ids.push(id),
                    Operand::Mux(j) => {
                        assert!(j < reach.len(), "mux routes through a later mux");
                        ids.extend_from_slice(&reach[j]);
                    }
                }
            }
            ids.sort_unstable();
            ids.dedup();
            reach.push(ids);
        }
        reach
    }

    /// Structural validation: operand ranges, DAG property (through the
    /// mux network), mux arity and digit coverage, operand arity per op
    /// kind, and output ids.
    pub fn validate(&self) -> Result<(), TraceError> {
        let base = self.first_op_id();
        let total = base + self.nodes.len();
        if self.values.len() != total {
            return Err(TraceError::ValueCountMismatch);
        }
        // Muxes first: arity, digit coverage, and backward-only routing.
        // `max_reach[m]` is the largest value id reachable through mux m.
        let mut max_reach: Vec<NodeId> = Vec::with_capacity(self.muxes.len());
        for (m, mx) in self.muxes.iter().enumerate() {
            let expected = mx.sel.arity();
            if mx.cands.len() != expected {
                return Err(TraceError::MuxArity {
                    mux: m,
                    expected,
                    got: mx.cands.len(),
                });
            }
            let in_digits = match mx.sel {
                Selector::TableIndex(d) => d < self.digits.indices.len(),
                Selector::SignNeg(d) => d < self.digits.neg.len(),
                Selector::Corrected => true,
            };
            if !in_digits {
                return Err(TraceError::DigitOutOfRange { mux: m });
            }
            let mut hi = 0usize;
            for c in &mx.cands {
                match *c {
                    Operand::Val(id) => {
                        if id >= total {
                            return Err(TraceError::OperandOutOfRange { node: m });
                        }
                        hi = hi.max(id);
                    }
                    Operand::Mux(j) => {
                        if j >= self.muxes.len() {
                            return Err(TraceError::MuxOutOfRange { node: m });
                        }
                        if j >= m {
                            return Err(TraceError::ForwardMuxReference { mux: m });
                        }
                        hi = hi.max(max_reach[j]);
                    }
                }
            }
            max_reach.push(hi);
        }
        // Nodes: every operand (through muxes) defined strictly before.
        for (i, n) in self.nodes.iter().enumerate() {
            let id = base + i;
            match (n.kind, n.b) {
                (OpKind::Mul | OpKind::Add | OpKind::Sub, None) => {
                    return Err(TraceError::MissingOperand { node: i });
                }
                (OpKind::Sqr | OpKind::Neg | OpKind::Conj, Some(_)) => {
                    return Err(TraceError::UnexpectedOperand { node: i });
                }
                _ => {}
            }
            for op in core::iter::once(n.a).chain(n.b) {
                let hi = match op {
                    Operand::Val(v) => {
                        if v >= total {
                            return Err(TraceError::OperandOutOfRange { node: i });
                        }
                        v
                    }
                    Operand::Mux(m) => {
                        if m >= self.muxes.len() {
                            return Err(TraceError::MuxOutOfRange { node: i });
                        }
                        max_reach[m]
                    }
                };
                if hi >= id {
                    return Err(TraceError::OperandOutOfRange { node: i });
                }
            }
        }
        for (o, (_, id)) in self.outputs.iter().enumerate() {
            if *id >= total {
                return Err(TraceError::OutputOutOfRange { output: o });
            }
        }
        Ok(())
    }

    /// Re-evaluates the whole trace from the inputs under the
    /// representative digit stream and checks every stored value; returns
    /// `false` on any mismatch. This is the independent functional audit
    /// of the recording itself.
    pub fn self_check(&self) -> bool {
        let mut vals: Vec<Word> = self.inputs.iter().map(|(_, v)| *v).collect();
        for n in &self.nodes {
            let a = vals[self.resolve(n.a, &self.digits)];
            let b = n.b.map(|b| vals[self.resolve(b, &self.digits)]);
            vals.push(Word::eval(n.kind, a, b));
        }
        vals == self.values
    }

    /// Renders the program as an assembler-style listing (one SSA
    /// microinstruction per line), e.g. for inspecting the recorded
    /// program ROM contents. Mux-routed operands print as `mN`; the mux
    /// table follows the instruction listing.
    pub fn disassemble(&self) -> String {
        use core::fmt::Write as _;
        let base = self.first_op_id();
        let name = |op: Operand| -> String {
            match op {
                Operand::Val(id) if id < base => self.inputs[id].0.clone(),
                Operand::Val(id) => format!("v{}", id - base),
                Operand::Mux(m) => format!("m{m}"),
            }
        };
        let mut out = String::new();
        for (id, (n, _)) in self.inputs.iter().enumerate() {
            let _ = writeln!(out, "; input r{id} = {n}");
        }
        for (i, node) in self.nodes.iter().enumerate() {
            match node.b {
                Some(b) => {
                    let _ = writeln!(
                        out,
                        "v{i:<5} = {:<4} {}, {}",
                        node.kind.mnemonic(),
                        name(node.a),
                        name(b)
                    );
                }
                None => {
                    let _ = writeln!(
                        out,
                        "v{i:<5} = {:<4} {}",
                        node.kind.mnemonic(),
                        name(node.a)
                    );
                }
            }
        }
        for (m, mx) in self.muxes.iter().enumerate() {
            let cands: Vec<String> = mx.cands.iter().map(|&c| name(c)).collect();
            let _ = writeln!(out, "; m{m:<4} = {:?} ? [{}]", mx.sel, cands.join(", "));
        }
        for (n, id) in &self.outputs {
            let _ = writeln!(out, "; output {n} = {}", name(Operand::Val(*id)));
        }
        out
    }
}

struct TraceBuilder {
    curve: CurveId,
    inputs: Vec<(String, Word)>,
    runtime_ids: Vec<NodeId>,
    nodes: Vec<Node>,
    muxes: Vec<Mux>,
    outputs: Vec<(String, NodeId)>,
    values: Vec<Word>,
    digits: DigitStream,
    /// Structural CSE map: (kind, a, b) -> existing id. The paper's ROM
    /// stores each microinstruction once; re-recorded identical ops (e.g.
    /// lifted constants reused across formulas) should not duplicate.
    /// Mux operands carry the mux *index*, which is unique per recorded
    /// mux, so instructions reading different muxes never merge.
    memo: HashMap<(OpKind, Operand, Option<Operand>), NodeId>,
}

/// The value type a [`Traced`] handle carries — [`Fp2`] for Fourℚ
/// programs, a Montgomery-form base-field element ([`U256`]) for X25519
/// and P-256 programs — mapped to and from its trace [`Word`].
pub trait TraceValue: Copy + fmt::Debug {
    /// The word of `curve`'s datapath that holds this value.
    ///
    /// # Panics
    ///
    /// Panics if `curve`'s datapath carries the other kind of word.
    fn to_word(self, curve: CurveId) -> Word;
    /// The value `w` holds.
    fn from_word(w: Word) -> Self;
}

impl TraceValue for Fp2 {
    fn to_word(self, curve: CurveId) -> Word {
        assert!(
            curve == CurveId::FourQ,
            "F_p² words require a Fourℚ tracer, not {curve}"
        );
        Word::Fp2(self)
    }
    fn from_word(w: Word) -> Fp2 {
        w.as_fp2()
    }
}

impl TraceValue for U256 {
    fn to_word(self, curve: CurveId) -> Word {
        assert!(
            curve != CurveId::FourQ,
            "base-field words require an X25519 or P-256 tracer"
        );
        Word::Fe(curve, self)
    }
    fn from_word(w: Word) -> U256 {
        w.as_fe()
    }
}

/// Records microinstructions executed through [`Traced`] handles.
///
/// Cloneable handle; all clones share the same underlying trace. The
/// default tracer records a Fourℚ program with no digit stream.
#[derive(Clone)]
pub struct Tracer {
    inner: Rc<RefCell<TraceBuilder>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new(CurveId::FourQ, DigitStream::empty())
    }
}

impl Tracer {
    /// Creates a tracer for `curve`'s program — [`TracedFp2`] values for
    /// Fourℚ, [`TracedFe`] values otherwise — carrying the representative
    /// digit stream that selects mux candidates while recording. The
    /// stream is stored in the finished [`Trace`] so the recording can be
    /// audited.
    pub fn new(curve: CurveId, digits: DigitStream) -> Tracer {
        Tracer {
            inner: Rc::new(RefCell::new(TraceBuilder {
                curve,
                inputs: Vec::new(),
                runtime_ids: Vec::new(),
                nodes: Vec::new(),
                muxes: Vec::new(),
                outputs: Vec::new(),
                values: Vec::new(),
                digits,
                memo: HashMap::new(),
            })),
        }
    }

    /// Registers a named *runtime* input — rebound on every execution of
    /// a compiled kernel (the base point's coordinates) — and returns its
    /// handle.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not the tracer's word type, or once an
    /// operation has been recorded.
    pub fn input<V: TraceValue>(&self, name: &str, value: V) -> Traced<V> {
        self.register(name, value, true)
    }

    /// Registers a named lifted *constant* — baked into the program and
    /// identical for every execution — and returns its handle.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Tracer::input`].
    pub fn constant<V: TraceValue>(&self, name: &str, value: V) -> Traced<V> {
        self.register(name, value, false)
    }

    fn register<V: TraceValue>(&self, name: &str, value: V, runtime: bool) -> Traced<V> {
        let mut b = self.inner.borrow_mut();
        assert!(
            b.nodes.is_empty(),
            "inputs must be registered before any operation is recorded"
        );
        let word = value.to_word(b.curve);
        let id = b.inputs.len();
        b.inputs.push((name.to_string(), word));
        b.values.push(word);
        if runtime {
            b.runtime_ids.push(id);
        }
        self.handle(Operand::Val(id), value)
    }

    /// Records an operand multiplexer over `cands` and returns its
    /// handle. No microinstruction is recorded — the ASIC's select lines
    /// steer which value feeds the next operation without consuming a
    /// cycle on either arithmetic unit — so a trace's op *sequence* stays
    /// fixed while the operand routing varies with the (secret) digits.
    ///
    /// The handle's concrete value is the candidate picked by the
    /// tracer's representative digit stream.
    ///
    /// # Panics
    ///
    /// Panics if `cands.len() != sel.arity()`, if any candidate belongs
    /// to a different tracer, or if the representative stream does not
    /// cover the selector's digit position.
    pub fn mux<V: TraceValue>(&self, sel: Selector, cands: &[&Traced<V>]) -> Traced<V> {
        assert_eq!(cands.len(), sel.arity(), "mux arity mismatch");
        cands.iter().for_each(|c| self.check_owner(c));
        let mut t = self.inner.borrow_mut();
        let pick = sel.select(&t.digits);
        assert!(pick < cands.len(), "representative digit out of range");
        let m = t.muxes.len();
        t.muxes.push(Mux {
            sel,
            cands: cands.iter().map(|c| c.op).collect(),
        });
        self.handle(Operand::Mux(m), cands[pick].value)
    }

    /// Marks a value as a named output of the program.
    ///
    /// # Panics
    ///
    /// Panics if `v` belongs to a different tracer or is a raw mux output
    /// — route it through an operation first (outputs must be concrete
    /// register values).
    pub fn mark_output<V>(&self, name: &str, v: &Traced<V>) {
        self.check_owner(v);
        let Operand::Val(id) = v.op else {
            panic!("outputs must be concrete values, not mux routes");
        };
        self.inner.borrow_mut().outputs.push((name.to_string(), id));
    }

    /// Finishes recording and returns the trace.
    pub fn finish(&self) -> Trace {
        let b = self.inner.borrow();
        Trace {
            curve: b.curve,
            inputs: b.inputs.clone(),
            runtime_ids: b.runtime_ids.clone(),
            nodes: b.nodes.clone(),
            muxes: b.muxes.clone(),
            outputs: b.outputs.clone(),
            values: b.values.clone(),
            digits: b.digits.clone(),
        }
    }

    /// Records `kind` on `a` (and `b`) — or returns the structurally
    /// identical op already recorded — computing the value with
    /// [`Word::eval`], the arithmetic every replay of the trace uses.
    fn record<V: TraceValue>(
        &self,
        kind: OpKind,
        a: &Traced<V>,
        b: Option<&Traced<V>>,
    ) -> Traced<V> {
        self.check_owner(a);
        b.iter().for_each(|b| self.check_owner(b));
        let key = (kind, a.op, b.map(|b| b.op));
        let mut t = self.inner.borrow_mut();
        let id = match t.memo.get(&key) {
            Some(&id) => id,
            None => {
                let curve = t.curve;
                let value = Word::eval(
                    kind,
                    a.value.to_word(curve),
                    b.map(|b| b.value.to_word(curve)),
                );
                let id = t.inputs.len() + t.nodes.len();
                t.nodes.push(Node {
                    kind,
                    a: key.1,
                    b: key.2,
                });
                t.values.push(value);
                t.memo.insert(key, id);
                id
            }
        };
        self.handle(Operand::Val(id), V::from_word(t.values[id]))
    }

    fn handle<V>(&self, op: Operand, value: V) -> Traced<V> {
        Traced {
            op,
            value,
            tracer: self.clone(),
        }
    }

    fn check_owner<V>(&self, v: &Traced<V>) {
        assert!(
            Rc::ptr_eq(&self.inner, &v.tracer.inner),
            "values belong to different tracers"
        );
    }
}

/// A value that records every operation applied to it, with its concrete
/// value under the tracer's representative digit stream.
///
/// [`TracedFp2`] implements [`Fp2Like`], so every formula of
/// `fourq-curve` runs on it unchanged; [`TracedFe`] implements
/// [`FeLike`], so the X25519 and P-256 programs of `fourq-baselines` run
/// on it — the code the host baselines execute is what gets recorded.
#[derive(Clone)]
pub struct Traced<V> {
    op: Operand,
    value: V,
    tracer: Tracer,
}

/// A traced `F_p²` element (Fourℚ programs).
pub type TracedFp2 = Traced<Fp2>;

/// A traced base-field element in Montgomery form (X25519 and P-256
/// programs).
pub type TracedFe = Traced<U256>;

impl<V: Copy> Traced<V> {
    /// The trace id of this value.
    ///
    /// # Panics
    ///
    /// Panics for mux-routed handles, which have no single id.
    pub fn id(&self) -> NodeId {
        match self.op {
            Operand::Val(id) => id,
            Operand::Mux(m) => panic!("mux route m{m} has no value id"),
        }
    }

    /// The concrete value under the representative digit stream.
    pub fn value(&self) -> V {
        self.value
    }
}

impl<V: fmt::Debug> fmt::Debug for Traced<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Traced({:?} = {:?})", self.op, self.value)
    }
}

impl Fp2Like for TracedFp2 {
    fn add(&self, rhs: &Self) -> Self {
        self.tracer.record(OpKind::Add, self, Some(rhs))
    }
    fn sub(&self, rhs: &Self) -> Self {
        self.tracer.record(OpKind::Sub, self, Some(rhs))
    }
    fn mul(&self, rhs: &Self) -> Self {
        self.tracer.record(OpKind::Mul, self, Some(rhs))
    }
    fn sqr(&self) -> Self {
        self.tracer.record(OpKind::Sqr, self, None)
    }
    fn neg(&self) -> Self {
        self.tracer.record(OpKind::Neg, self, None)
    }
    fn conj(&self) -> Self {
        self.tracer.record(OpKind::Conj, self, None)
    }
    fn value(&self) -> Fp2 {
        self.value
    }
}

/// The engine's secret choices as recorded operand multiplexers: the
/// select lines read the tracer's digit stream, so the digits stay runtime
/// inputs instead of collapsing into the SSA, and the recorded program is
/// the same for every scalar. The `recoded` and `c` arguments are not
/// consulted — the stream the tracer was created with carries the same
/// digits.
impl EngineSelect for TracedFp2 {
    /// A lifted program constant of `one`'s tracer.
    fn constant(one: &TracedFp2, name: &'static str, value: Fp2) -> TracedFp2 {
        one.tracer.constant(name, value)
    }

    /// `s_i · T[v_i]` as four 8-way table-index muxes (one per cached
    /// coordinate), an always-computed `−2dT`, and three 2-way sign muxes
    /// (swap `Y+X`/`Y−X`, pick `±2dT`; `2Z` is sign-invariant).
    fn table_entry(
        table: &[CachedPoint<TracedFp2>; 8],
        _recoded: &Recoded,
        i: usize,
    ) -> CachedPoint<TracedFp2> {
        let tracer = &table[0].y_plus_x.tracer;
        let pick8 = |coord: fn(&CachedPoint<TracedFp2>) -> &TracedFp2| {
            let cands: Vec<&TracedFp2> = table.iter().map(coord).collect();
            tracer.mux(Selector::TableIndex(i), &cands)
        };
        let ypx = pick8(|e| &e.y_plus_x);
        let ymx = pick8(|e| &e.y_minus_x);
        let z2 = pick8(|e| &e.z2);
        let t2d = pick8(|e| &e.t2d);
        let neg_t2d = t2d.neg();
        CachedPoint {
            y_plus_x: tracer.mux(Selector::SignNeg(i), &[&ypx, &ymx]),
            y_minus_x: tracer.mux(Selector::SignNeg(i), &[&ymx, &ypx]),
            z2,
            t2d: tracer.mux(Selector::SignNeg(i), &[&t2d, &neg_t2d]),
        }
    }

    /// One 2-way parity-flag mux per cached coordinate.
    fn parity_pick(
        a: &CachedPoint<TracedFp2>,
        b: &CachedPoint<TracedFp2>,
        _c: Choice,
    ) -> CachedPoint<TracedFp2> {
        let tracer = &a.y_plus_x.tracer;
        let pick = |x: &TracedFp2, y: &TracedFp2| tracer.mux(Selector::Corrected, &[x, y]);
        CachedPoint {
            y_plus_x: pick(&a.y_plus_x, &b.y_plus_x),
            y_minus_x: pick(&a.y_minus_x, &b.y_minus_x),
            z2: pick(&a.z2, &b.z2),
            t2d: pick(&a.t2d, &b.t2d),
        }
    }
}

impl FeLike for TracedFe {
    fn add(&self, rhs: &Self) -> Self {
        self.tracer.record(OpKind::Add, self, Some(rhs))
    }
    fn sub(&self, rhs: &Self) -> Self {
        self.tracer.record(OpKind::Sub, self, Some(rhs))
    }
    fn mul(&self, rhs: &Self) -> Self {
        self.tracer.record(OpKind::Mul, self, Some(rhs))
    }
    fn sqr(&self) -> Self {
        self.tracer.record(OpKind::Sqr, self, None)
    }
    /// A 2-way [`Selector::SignNeg`] mux on digit position `step`; `c` is
    /// not consulted — the tracer's digit stream carries the same bits.
    fn select(step: usize, _c: Choice, a: &Self, b: &Self) -> Self {
        a.tracer.mux(Selector::SignNeg(step), &[a, b])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_ops_in_order() {
        let t = Tracer::default();
        let a = t.input("a", Fp2::from(2u64));
        let b = t.input("b", Fp2::from(3u64));
        let c = a.mul(&b); // id 2
        let d = c.add(&a); // id 3
        t.mark_output("d", &d);
        let tr = t.finish();
        assert_eq!(tr.inputs.len(), 2);
        assert_eq!(tr.runtime_ids, vec![0, 1]);
        assert_eq!(tr.nodes.len(), 2);
        assert_eq!(tr.outputs, vec![("d".to_string(), 3)]);
        assert_eq!(tr.values[3].as_fp2(), Fp2::from(8u64));
        assert!(tr.self_check());
        assert!(tr.validate().is_ok());
    }

    #[test]
    fn cse_deduplicates_identical_ops() {
        let t = Tracer::default();
        let a = t.input("a", Fp2::from(2u64));
        let b = t.input("b", Fp2::from(3u64));
        let c1 = a.mul(&b);
        let c2 = a.mul(&b);
        assert_eq!(c1.id(), c2.id());
        assert_eq!(t.finish().nodes.len(), 1);
    }

    #[test]
    fn unit_mapping() {
        assert_eq!(OpKind::Mul.unit(), Unit::Multiplier);
        assert_eq!(OpKind::Sqr.unit(), Unit::Multiplier);
        assert_eq!(OpKind::Add.unit(), Unit::AddSub);
        assert_eq!(OpKind::Conj.unit(), Unit::AddSub);
    }

    #[test]
    #[should_panic(expected = "different tracers")]
    fn cross_tracer_ops_panic() {
        let t1 = Tracer::default();
        let t2 = Tracer::default();
        let a = t1.input("a", Fp2::from(1u64));
        let b = t2.input("b", Fp2::from(2u64));
        let _ = a.add(&b);
    }

    #[test]
    fn stats_count() {
        let t = Tracer::default();
        let a = t.input("a", Fp2::from(2u64));
        let b = a.sqr();
        let c = b.add(&a);
        let _ = c.mul(&b).conj();
        let s = t.finish().stats();
        assert_eq!(s.sqr, 1);
        assert_eq!(s.add, 1);
        assert_eq!(s.mul, 1);
        assert_eq!(s.conj, 1);
        assert_eq!(s.total(), 4);
        assert_eq!(s.multiplier_ops(), 2);
    }

    #[test]
    fn constants_are_not_runtime_inputs() {
        let t = Tracer::default();
        let a = t.input("a", Fp2::from(2u64));
        let c = t.constant("c", Fp2::from(7u64));
        let _ = a.mul(&c);
        let tr = t.finish();
        assert_eq!(tr.inputs.len(), 2);
        assert_eq!(tr.runtime_ids, vec![0]);
    }

    #[test]
    fn mux_routes_operand_without_recording_an_op() {
        let digits = DigitStream {
            indices: vec![3],
            neg: vec![true],
            corrected: false,
        };
        let t = Tracer::new(CurveId::FourQ, digits.clone());
        let a = t.input("a", Fp2::from(10u64));
        let b = t.input("b", Fp2::from(20u64));
        // 2-way sign select; representative digit 0 is negative → picks b.
        let m = t.mux(Selector::SignNeg(0), &[&a, &b]);
        assert_eq!(m.value(), Fp2::from(20u64));
        let c = m.add(&a); // the only recorded op
        t.mark_output("c", &c);
        let tr = t.finish();
        assert_eq!(tr.nodes.len(), 1);
        assert_eq!(tr.muxes.len(), 1);
        assert_eq!(tr.values[2].as_fp2(), Fp2::from(30u64));
        assert!(tr.self_check());
        assert!(tr.validate().is_ok());
        // Resolution under the opposite digit picks a instead.
        let flipped = DigitStream {
            indices: vec![3],
            neg: vec![false],
            corrected: false,
        };
        assert_eq!(tr.resolve(Operand::Mux(0), &flipped), 0);
        assert_eq!(tr.resolve(Operand::Mux(0), &digits), 1);
        assert_eq!(tr.mux_reach(), vec![vec![0, 1]]);
    }

    #[test]
    fn ops_reading_distinct_muxes_never_merge() {
        let digits = DigitStream {
            indices: vec![0, 0],
            neg: vec![false, false],
            corrected: false,
        };
        let t = Tracer::new(CurveId::FourQ, digits);
        let a = t.input("a", Fp2::from(1u64));
        let b = t.input("b", Fp2::from(2u64));
        let m0 = t.mux(Selector::SignNeg(0), &[&a, &b]);
        let m1 = t.mux(Selector::SignNeg(1), &[&a, &b]);
        let _ = m0.neg();
        let _ = m1.neg();
        // Same (kind, picked value) but different mux routes: both stay.
        assert_eq!(t.finish().nodes.len(), 2);
    }

    #[test]
    fn validate_rejects_malformed_traces() {
        let t = Tracer::default();
        let a = t.input("a", Fp2::from(2u64));
        let _ = a.sqr();
        let good = t.finish();
        assert!(good.validate().is_ok());

        let mut bad = good.clone();
        bad.nodes[0].a = Operand::Val(99);
        assert_eq!(
            bad.validate(),
            Err(TraceError::OperandOutOfRange { node: 0 })
        );

        let mut bad = good.clone();
        bad.nodes[0].b = Some(Operand::Val(0));
        assert_eq!(
            bad.validate(),
            Err(TraceError::UnexpectedOperand { node: 0 })
        );

        let mut bad = good.clone();
        bad.nodes[0] = Node {
            kind: OpKind::Mul,
            a: Operand::Val(0),
            b: None,
        };
        assert_eq!(bad.validate(), Err(TraceError::MissingOperand { node: 0 }));

        let mut bad = good.clone();
        bad.values.pop();
        assert_eq!(bad.validate(), Err(TraceError::ValueCountMismatch));

        let mut bad = good.clone();
        bad.outputs.push(("x".to_string(), 77));
        assert_eq!(
            bad.validate(),
            Err(TraceError::OutputOutOfRange { output: 0 })
        );

        let mut bad = good.clone();
        bad.muxes.push(Mux {
            sel: Selector::TableIndex(0),
            cands: vec![Operand::Val(0); 3],
        });
        assert_eq!(
            bad.validate(),
            Err(TraceError::MuxArity {
                mux: 0,
                expected: 8,
                got: 3
            })
        );

        // A selector whose digit position the representative stream does
        // not cover.
        let mut bad = good.clone();
        bad.muxes.push(Mux {
            sel: Selector::SignNeg(5),
            cands: vec![Operand::Val(0); 2],
        });
        assert_eq!(bad.validate(), Err(TraceError::DigitOutOfRange { mux: 0 }));
    }

    #[test]
    fn fe_words_record_and_self_check() {
        let t = Tracer::new(CurveId::P256, DigitStream::empty());
        let f = mont_field(CurveId::P256);
        let a = t.input("a", f.enter(U256::from_u64(7)));
        let b = t.constant("b", f.enter(U256::from_u64(9)));
        let c = a.mul(&b).add(&a).sqr(); // ((7·9)+7)² = 4900
        t.mark_output("c", &c);
        let tr = t.finish();
        assert_eq!(tr.curve, CurveId::P256);
        assert_eq!(tr.runtime_ids, vec![0]);
        assert_eq!(tr.nodes.len(), 3);
        assert!(tr.self_check());
        assert!(tr.validate().is_ok());
        assert_eq!(f.leave(c.value()), U256::from_u64(4900));
        assert_eq!(tr.zero_word(), Word::Fe(CurveId::P256, U256::ZERO));
    }

    #[test]
    fn fe_mux_routes_by_digit_stream() {
        let digits = DigitStream {
            indices: vec![],
            neg: vec![true],
            corrected: false,
        };
        let t = Tracer::new(CurveId::X25519, digits);
        let f = mont_field(CurveId::X25519);
        let a = t.input("a", f.enter(U256::from_u64(10)));
        let b = t.input("b", f.enter(U256::from_u64(20)));
        let m = t.mux(Selector::SignNeg(0), &[&a, &b]);
        assert_eq!(f.leave(m.value()), U256::from_u64(20));
        let c = m.add(&a);
        t.mark_output("c", &c);
        let tr = t.finish();
        assert_eq!(tr.nodes.len(), 1);
        assert_eq!(tr.muxes.len(), 1);
        assert!(tr.self_check());
        assert!(tr.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "base-field words")]
    fn fe_inputs_require_base_field_tracer() {
        let t = Tracer::default();
        let _ = t.input("a", U256::ONE);
    }

    #[test]
    #[should_panic(expected = "concrete values")]
    fn mux_output_cannot_be_program_output() {
        let t = Tracer::new(
            CurveId::FourQ,
            DigitStream {
                indices: vec![],
                neg: vec![false],
                corrected: false,
            },
        );
        let a = t.input("a", Fp2::from(1u64));
        let b = t.input("b", Fp2::from(2u64));
        let m = t.mux(Selector::SignNeg(0), &[&a, &b]);
        t.mark_output("m", &m);
    }
}
