//! The compile tier: lowering filter programs to specialized forms at
//! insert time.
//!
//! The interpreter in [`crate::vm`] is the *specification* of filter
//! semantics; this module is the fast path. Every program is lowered
//! once, when it is installed, to one of two artifacts:
//!
//! - a **fast-path recognizer** for the canonical session-filter shape
//!   emitted by [`crate::compile::compile_endpoint`] — a conjunction of
//!   (possibly masked) 16-bit field compares ending in a constant
//!   verdict. The recognizer executes as a handful of direct slice
//!   reads with no operand stack and no per-run allocation;
//! - a **direct-threaded fallback** for every other program: the
//!   instruction stream pre-decoded into a dense op array executed over
//!   a fixed-size stack, again with no per-run allocation.
//!
//! A CSPF table does not run its recognizers one by one. Every session
//! filter's recognizer is a prefix of one layout, the [`SessionShape`],
//! so the table keeps each filter as a row of compare values, reads the
//! shape's words out of a frame once, and compares every row against
//! them with the recognizer's step bookkeeping.
//!
//! All of these reproduce the interpreter's observable behavior
//! *exactly* — the accept/reject verdict, the executed-instruction
//! count (`steps`, which the kernel charges to virtual time and the
//! census), and the abnormal-termination cause (out-of-bounds reads,
//! stack underflow, budget exhaustion). `tests/filter_equivalence.rs`
//! enforces this with seeded differential fuzzing; any divergence is a
//! bug in this module, never in the interpreter.

use std::sync::LazyLock;

use crate::vm::{Binop, FilterOutcome, Insn, Program, VmError, MAX_STEPS};

/// Which execution tier a [`crate::demux::DemuxTable`] dispatches
/// through.
///
/// The engines are observationally equivalent — identical verdicts,
/// identical step counts, identical error causes — so switching engine
/// never changes simulated output; it only changes how much host
/// wall-clock time classification costs (`filterbench` measures the
/// difference).
///
/// The compiled tier is the default; the interpreter stays reachable as
/// the specification every differential test checks the compiled tier
/// against.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum FilterEngine {
    /// Run programs on the stack-machine interpreter (the spec).
    Interpret,
    /// Run programs through their compiled artifacts.
    #[default]
    Compiled,
}

/// One lowered field comparison of the fast-path recognizer:
/// `word(off) & mask == value`, else the filter rejects.
///
/// The step fields fit a byte because recognizers are never lowered
/// from programs longer than [`MAX_STEPS`], and every group is followed
/// by at least the two-instruction tail.
#[derive(Clone, Copy, Debug)]
struct FieldCheck {
    /// Byte offset of the big-endian word in the packet.
    off: u16,
    /// Mask applied before comparing (`0xFFFF` for unmasked checks).
    mask: u16,
    /// Required value after masking.
    value: u16,
    /// Instructions the interpreter executes before this check's group
    /// starts (for exact `steps` reporting).
    steps_before: u8,
    /// Instructions in this check's group: 3 unmasked, 5 masked.
    steps_len: u8,
}

// Every installed filter owns its checks, so their size is per-filter
// memory at every session count.
const _: () = assert!(std::mem::size_of::<FieldCheck>() == 8);

/// A pre-decoded instruction for the direct-threaded fallback. Mirrors
/// [`Insn`] with packet offsets widened to `usize` at compile time.
#[derive(Clone, Copy, Debug)]
enum ThreadedOp {
    Lit(u16),
    Word(usize),
    Bin(Binop),
    COr(Binop),
    CAnd(Binop),
    Ret,
}

#[derive(Debug)]
enum Tier {
    /// Conjunctive field-compare chain with a constant verdict.
    Recognizer {
        checks: Box<[FieldCheck]>,
        /// Verdict when every check passes (the lowered tail's literal).
        tail_accept: bool,
        /// Instructions in the whole program (the `steps` of a full
        /// pass, literal and `Ret` included).
        total_steps: u16,
    },
    /// Pre-decoded general program.
    Threaded { ops: Box<[ThreadedOp]> },
}

/// A filter program lowered at insert time. See the module docs for the
/// equivalence contract.
#[derive(Debug)]
pub struct CompiledFilter {
    tier: Tier,
}

impl CompiledFilter {
    /// Lowers a program. Never fails: programs outside the recognizable
    /// shape fall back to the direct-threaded tier.
    pub fn compile(program: &Program) -> CompiledFilter {
        if let Some(tier) = try_lower_recognizer(program) {
            return CompiledFilter { tier };
        }
        let ops = program
            .insns
            .iter()
            .map(|insn| match *insn {
                Insn::PushLit(v) => ThreadedOp::Lit(v),
                Insn::PushWord(off) => ThreadedOp::Word(usize::from(off)),
                Insn::Op(op) => ThreadedOp::Bin(op),
                Insn::CombineOr(op) => ThreadedOp::COr(op),
                Insn::CombineAnd(op) => ThreadedOp::CAnd(op),
                Insn::Ret => ThreadedOp::Ret,
            })
            .collect();
        CompiledFilter {
            tier: Tier::Threaded { ops },
        }
    }

    /// True when the program lowered to the fast-path recognizer (the
    /// canonical session-filter shape).
    pub fn is_fast_path(&self) -> bool {
        matches!(self.tier, Tier::Recognizer { .. })
    }

    /// Runs the compiled artifact against a packet. Returns exactly
    /// what [`Program::run`] returns on the same inputs.
    pub fn run(&self, packet: &[u8]) -> FilterOutcome {
        match &self.tier {
            Tier::Recognizer {
                checks,
                tail_accept,
                total_steps,
            } => run_recognizer(checks, *tail_accept, usize::from(*total_steps), packet),
            Tier::Threaded { ops } => run_threaded(ops, packet),
        }
    }
}

fn accepted(steps: usize) -> FilterOutcome {
    FilterOutcome {
        accepted: true,
        steps,
        error: None,
    }
}

fn rejected(steps: usize, error: Option<VmError>) -> FilterOutcome {
    FilterOutcome {
        accepted: false,
        steps,
        error,
    }
}

/// Attempts the fast-path lowering: a sequence of
/// `PushWord off; PushLit v; CombineAnd(Eq)` or
/// `PushWord off; PushLit m; Op(And); PushLit v; CombineAnd(Eq)`
/// groups terminated by `PushLit k; Ret`. This is precisely the shape
/// [`crate::compile::compile_endpoint`] emits. Programs longer than
/// [`MAX_STEPS`] are never lowered this way, so the recognizer can
/// ignore the step budget (a conjunctive chain executes each
/// instruction at most once, in order).
fn try_lower_recognizer(program: &Program) -> Option<Tier> {
    let insns = &program.insns;
    if insns.len() > MAX_STEPS {
        return None;
    }
    let mut checks = Vec::new();
    let mut i = 0usize;
    let before = |i: usize| u8::try_from(i).expect("recognizer groups start below MAX_STEPS");
    loop {
        match insns[i..] {
            [Insn::PushWord(off), Insn::PushLit(v), Insn::CombineAnd(Binop::Eq), ..] => {
                checks.push(FieldCheck {
                    off,
                    mask: 0xFFFF,
                    value: v,
                    steps_before: before(i),
                    steps_len: 3,
                });
                i += 3;
            }
            [Insn::PushWord(off), Insn::PushLit(m), Insn::Op(Binop::And), Insn::PushLit(v), Insn::CombineAnd(Binop::Eq), ..] =>
            {
                checks.push(FieldCheck {
                    off,
                    mask: m,
                    value: v,
                    steps_before: before(i),
                    steps_len: 5,
                });
                i += 5;
            }
            [Insn::PushLit(k), Insn::Ret] => {
                return Some(Tier::Recognizer {
                    checks: checks.into_boxed_slice(),
                    tail_accept: k != 0,
                    total_steps: (i + 2) as u16,
                });
            }
            _ => return None,
        }
    }
}

/// Executes a lowered conjunctive chain. Steps reporting matches the
/// interpreter instruction for instruction: an out-of-bounds packet
/// read stops at the group's `PushWord` (one instruction in), a failed
/// compare stops at the group's `CombineAnd` (the whole group), and a
/// full pass executes every instruction including the verdict literal
/// and `Ret`.
fn run_recognizer(
    checks: &[FieldCheck],
    tail_accept: bool,
    total_steps: usize,
    packet: &[u8],
) -> FilterOutcome {
    for c in checks {
        let Some(word) = read_word(packet, c.off) else {
            return rejected(c.oob_steps(), Some(VmError::OutOfBounds));
        };
        if word & c.mask != c.value {
            return rejected(c.fail_steps(), None);
        }
    }
    if tail_accept {
        accepted(total_steps)
    } else {
        rejected(total_steps, None)
    }
}

/// The big-endian word at byte offset `off`, or `None` when it runs past
/// the packet.
#[inline]
fn read_word(packet: &[u8], off: u16) -> Option<u16> {
    let off = usize::from(off);
    match packet.get(off..off + 2)? {
        &[hi, lo] => Some(u16::from_be_bytes([hi, lo])),
        _ => None,
    }
}

impl FieldCheck {
    /// `steps` when this check's word lies past the packet: the group's
    /// `PushWord` is the last instruction executed.
    fn oob_steps(&self) -> usize {
        usize::from(self.steps_before) + 1
    }

    /// `steps` when this check's compare fails: the whole group runs.
    fn fail_steps(&self) -> usize {
        usize::from(self.steps_before) + usize::from(self.steps_len)
    }

    /// Same word, mask and step bookkeeping; the compare value may
    /// differ.
    fn same_layout(&self, other: &FieldCheck) -> bool {
        (self.off, self.mask, self.steps_before, self.steps_len)
            == (other.off, other.mask, other.steps_before, other.steps_len)
    }
}

/// Checks in the widest session-filter lowering: the connected layout
/// (three prefix checks, protocol, destination address and port, source
/// address and port). A wildcard lowers to its first seven.
pub(crate) const SHAPE_CHECKS: usize = 10;

/// The table-wide check layout of session filters, for the dense CSPF
/// plan.
///
/// Every program [`crate::compile::compile_endpoint`] emits lowers to a
/// recognizer whose checks are a prefix of one layout: the same word
/// offsets, masks and step bookkeeping, differing only in the compare
/// values. A CSPF scan can therefore read and mask the layout's words
/// out of a frame once ([`SessionShape::load`]) and then match each
/// installed filter by comparing its values ([`ShapeRow`]) against
/// those words, charging exactly the steps [`run_recognizer`] would.
#[derive(Debug)]
pub(crate) struct SessionShape {
    /// The layout; the `value` fields are unused.
    checks: [FieldCheck; SHAPE_CHECKS],
    /// `steps` of a full pass over the first `n` checks, indexed by `n`:
    /// the checks' groups plus the verdict literal and `Ret`.
    pass_steps: [u16; SHAPE_CHECKS + 1],
}

/// One installed session filter as a row of the dense CSPF plan: the
/// compare values of its prefix of the [`SessionShape`].
#[derive(Debug)]
pub(crate) struct ShapeRow {
    values: [u16; SHAPE_CHECKS],
    /// Checks in the filter's prefix.
    len: u8,
}

/// The [`SessionShape`]'s words read out of one frame.
pub(crate) struct ShapeWords<'a> {
    shape: &'a SessionShape,
    /// Masked frame word per shape check, up to `readable`, packed by
    /// [`pack`].
    words: [u64; 3],
    /// Index of the first check whose word lies past the frame
    /// (`SHAPE_CHECKS` when every word is readable).
    readable: usize,
}

impl SessionShape {
    /// The layout, lowered once per process.
    pub(crate) fn get() -> &'static SessionShape {
        static SHAPE: LazyLock<SessionShape> = LazyLock::new(SessionShape::lower);
        &SHAPE
    }

    /// Lowers the connected session-filter layout.
    fn lower() -> SessionShape {
        let any = std::net::Ipv4Addr::UNSPECIFIED;
        let widest = crate::compile::compile_endpoint(&crate::compile::EndpointSpec::connected(
            psd_wire::IpProto::Udp,
            any,
            0,
            any,
            0,
        ));
        let Some(Tier::Recognizer { checks, .. }) = try_lower_recognizer(&widest) else {
            unreachable!("session filters lower to recognizers");
        };
        let checks: [FieldCheck; SHAPE_CHECKS] = (*checks)
            .try_into()
            .expect("the connected layout has SHAPE_CHECKS checks");
        let mut pass_steps = [2u16; SHAPE_CHECKS + 1];
        for (n, c) in checks.iter().enumerate() {
            pass_steps[n + 1] = c.fail_steps() as u16 + 2;
        }
        SessionShape { checks, pass_steps }
    }

    /// The plan row of an installed filter.
    ///
    /// # Panics
    ///
    /// If the filter is not an accepting recognizer over a prefix of
    /// this shape. Session filters always are; there is no fallback.
    pub(crate) fn row(&self, filter: &CompiledFilter) -> ShapeRow {
        let Tier::Recognizer {
            checks,
            tail_accept,
            total_steps,
        } = &filter.tier
        else {
            panic!("filter is not a recognizer: {filter:?}");
        };
        assert!(
            *tail_accept
                && checks.len() <= SHAPE_CHECKS
                && checks
                    .iter()
                    .zip(&self.checks)
                    .all(|(c, s)| c.same_layout(s))
                && *total_steps == self.pass_steps[checks.len()],
            "filter does not fit the session shape: {filter:?}"
        );
        let mut values = [0u16; SHAPE_CHECKS];
        for (v, c) in values.iter_mut().zip(checks.iter()) {
            *v = c.value;
        }
        ShapeRow {
            values,
            len: checks.len() as u8,
        }
    }

    /// Reads and masks the shape's words out of a frame, stopping at the
    /// first word past its end.
    pub(crate) fn load(&self, frame: &[u8]) -> ShapeWords<'_> {
        let mut words = [0u16; SHAPE_CHECKS];
        let mut readable = SHAPE_CHECKS;
        for (i, c) in self.checks.iter().enumerate() {
            match read_word(frame, c.off) {
                Some(w) => words[i] = w & c.mask,
                None => {
                    readable = i;
                    break;
                }
            }
        }
        ShapeWords {
            shape: self,
            words: pack(&words),
            readable,
        }
    }
}

impl ShapeWords<'_> {
    /// Runs one row against the loaded frame. Returns exactly what
    /// [`CompiledFilter::run`] returns for the row's filter on the same
    /// frame: the first failing compare charges its whole group, a row
    /// that reaches an unreadable word charges through that word's
    /// `PushWord`, and a full pass charges the whole program.
    ///
    /// Only the first mismatch matters: lanes past the row's length or
    /// past the readable words never take part in its verdict.
    #[inline]
    pub(crate) fn run(&self, row: &ShapeRow) -> FilterOutcome {
        let n = usize::from(row.len);
        let reach = n.min(self.readable);
        let mismatch = first_mismatch(&self.words, &pack(&row.values));
        if mismatch < reach {
            rejected(self.shape.checks[mismatch].fail_steps(), None)
        } else if reach < n {
            rejected(
                self.shape.checks[reach].oob_steps(),
                Some(VmError::OutOfBounds),
            )
        } else {
            accepted(usize::from(self.shape.pass_steps[n]))
        }
    }
}

/// Packs the shape's ten 16-bit lanes into three words, lane `i` at bit
/// `16 * (i % 4)` of word `i / 4`, so a row compares in three XORs
/// rather than ten data-dependent branches.
#[inline]
fn pack(v: &[u16; SHAPE_CHECKS]) -> [u64; 3] {
    let lane = |i: usize| u64::from(v[i]) << (16 * (i % 4));
    [
        lane(0) | lane(1) | lane(2) | lane(3),
        lane(4) | lane(5) | lane(6) | lane(7),
        lane(8) | lane(9),
    ]
}

/// The first lane in which two packed rows differ (`SHAPE_CHECKS` when
/// they are equal).
#[inline]
fn first_mismatch(a: &[u64; 3], b: &[u64; 3]) -> usize {
    a.iter()
        .zip(b)
        .enumerate()
        .find_map(|(k, (x, y))| {
            let diff = x ^ y;
            (diff != 0).then(|| 4 * k + diff.trailing_zeros() as usize / 16)
        })
        .unwrap_or(SHAPE_CHECKS)
}

/// Executes a pre-decoded program over a fixed-size operand stack. The
/// loop structure is a transliteration of [`Program::run`]; the wins
/// are the dense op array, the pre-widened offsets, and the absence of
/// the per-run heap allocation for the stack. The stack cannot
/// overflow: each instruction pushes at most one word and at most
/// [`MAX_STEPS`] instructions execute.
fn run_threaded(ops: &[ThreadedOp], packet: &[u8]) -> FilterOutcome {
    let mut stack = [0u16; MAX_STEPS];
    let mut sp = 0usize;
    let mut steps = 0usize;
    for op in ops {
        steps += 1;
        if steps > MAX_STEPS {
            return rejected(steps, Some(VmError::StepBudget));
        }
        match *op {
            ThreadedOp::Lit(v) => {
                stack[sp] = v;
                sp += 1;
            }
            ThreadedOp::Word(off) => {
                if off + 2 > packet.len() {
                    return rejected(steps, Some(VmError::OutOfBounds));
                }
                stack[sp] = u16::from_be_bytes([packet[off], packet[off + 1]]);
                sp += 1;
            }
            ThreadedOp::Bin(op) => {
                if sp < 2 {
                    return rejected(steps, Some(VmError::StackUnderflow));
                }
                sp -= 1;
                stack[sp - 1] = op.apply(stack[sp - 1], stack[sp]);
            }
            ThreadedOp::COr(op) => {
                if sp < 2 {
                    return rejected(steps, Some(VmError::StackUnderflow));
                }
                sp -= 2;
                if op.apply(stack[sp], stack[sp + 1]) != 0 {
                    return accepted(steps);
                }
            }
            ThreadedOp::CAnd(op) => {
                if sp < 2 {
                    return rejected(steps, Some(VmError::StackUnderflow));
                }
                sp -= 2;
                if op.apply(stack[sp], stack[sp + 1]) == 0 {
                    return rejected(steps, None);
                }
            }
            ThreadedOp::Ret => {
                let accept = sp > 0 && stack[sp - 1] != 0;
                return if accept {
                    accepted(steps)
                } else {
                    rejected(steps, None)
                };
            }
        }
    }
    let accept = sp > 0 && stack[sp - 1] != 0;
    if accept {
        accepted(steps)
    } else {
        rejected(steps, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{catch_all_ip, compile_endpoint, EndpointSpec};
    use psd_wire::IpProto;
    use std::net::Ipv4Addr;

    fn outcomes_match(p: &Program, packet: &[u8]) {
        let interpreted = p.run(packet);
        let compiled = CompiledFilter::compile(p).run(packet);
        assert_eq!(
            interpreted, compiled,
            "tiers diverge on {p:?} over {packet:02x?}"
        );
    }

    #[test]
    fn session_filters_lower_to_the_fast_path() {
        let spec = EndpointSpec::connected(
            IpProto::Udp,
            Ipv4Addr::new(10, 0, 0, 2),
            7000,
            Ipv4Addr::new(10, 0, 0, 1),
            1234,
        );
        let p = compile_endpoint(&spec);
        assert!(CompiledFilter::compile(&p).is_fast_path());
        let wild = compile_endpoint(&EndpointSpec::unconnected(
            IpProto::Tcp,
            Ipv4Addr::LOCALHOST,
            80,
        ));
        assert!(CompiledFilter::compile(&wild).is_fast_path());
    }

    #[test]
    fn catch_all_falls_back_to_threaded() {
        assert!(!CompiledFilter::compile(&catch_all_ip()).is_fast_path());
    }

    #[test]
    fn recognizer_reports_interpreter_steps_on_every_path() {
        let spec = EndpointSpec::unconnected(IpProto::Udp, Ipv4Addr::new(10, 0, 0, 2), 7000);
        let p = compile_endpoint(&spec);
        // Accept, mid-chain mismatch, OOB at various truncations.
        let mut frame = vec![0u8; 64];
        frame[12] = 0x08; // IPv4 ethertype
        frame[14] = 0x45;
        frame[23] = 17; // UDP
        frame[30..34].copy_from_slice(&[10, 0, 0, 2]);
        frame[36..38].copy_from_slice(&7000u16.to_be_bytes());
        outcomes_match(&p, &frame);
        frame[37] = 0; // wrong port
        outcomes_match(&p, &frame);
        frame[12] = 0; // wrong ethertype: first group fails
        outcomes_match(&p, &frame);
        for len in 0..40 {
            outcomes_match(&p, &vec![0u8; len]);
        }
    }

    #[test]
    fn threaded_matches_interpreter_on_edge_programs() {
        let programs = [
            Program::default(),
            Program::new(vec![Insn::Ret]),
            Program::new(vec![Insn::Op(Binop::Eq)]),
            Program::new(vec![Insn::CombineOr(Binop::Lt)]),
            Program::new(vec![Insn::PushLit(1), Insn::CombineAnd(Binop::Eq)]),
            Program::new(vec![Insn::PushLit(1); MAX_STEPS + 5]),
            Program::new(vec![Insn::PushWord(0xFFFF), Insn::Ret]),
            catch_all_ip(),
        ];
        for p in &programs {
            for packet in [&[][..], &[1, 2, 3], &[0u8; 64]] {
                outcomes_match(p, packet);
            }
        }
    }

    #[test]
    fn long_conjunctive_chains_are_not_lowered_past_the_budget() {
        // A recognizer-shaped program longer than the budget must take
        // the threaded tier so budget exhaustion still reproduces.
        let mut insns = Vec::new();
        for _ in 0..(MAX_STEPS / 3 + 1) {
            insns.push(Insn::PushWord(0));
            insns.push(Insn::PushLit(0));
            insns.push(Insn::CombineAnd(Binop::Eq));
        }
        insns.push(Insn::PushLit(1));
        insns.push(Insn::Ret);
        let p = Program::new(insns);
        let c = CompiledFilter::compile(&p);
        assert!(!c.is_fast_path());
        outcomes_match(&p, &[0u8; 4]);
        outcomes_match(&p, &[1u8; 4]);
    }

    #[test]
    fn shape_rows_reproduce_the_recognizer_on_every_path() {
        let shape = SessionShape::get();
        let b = Ipv4Addr::new(10, 0, 0, 2);
        for spec in [
            EndpointSpec::unconnected(IpProto::Udp, b, 7000),
            EndpointSpec::connected(IpProto::Tcp, b, 80, Ipv4Addr::new(10, 0, 0, 1), 1234),
        ] {
            let p = compile_endpoint(&spec);
            let row = shape.row(&CompiledFilter::compile(&p));
            let mut frame = vec![0u8; 64];
            frame[12] = 0x08;
            frame[14] = 0x45;
            frame[23] = spec.proto.to_u8();
            frame[26..30].copy_from_slice(&[10, 0, 0, 1]);
            frame[30..34].copy_from_slice(&[10, 0, 0, 2]);
            frame[34..36].copy_from_slice(&1234u16.to_be_bytes());
            frame[36..38].copy_from_slice(&spec.local_port.to_be_bytes());
            assert!(p.run(&frame).accepted);
            // Every truncation and every single-bit flip of the header.
            for len in 0..=frame.len() {
                let f = &frame[..len];
                assert_eq!(shape.load(f).run(&row), p.run(f), "len {len}");
            }
            for bit in 0..38 * 8 {
                let mut f = frame.clone();
                f[bit / 8] ^= 1 << (bit % 8);
                assert_eq!(shape.load(&f).run(&row), p.run(&f), "bit {bit}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a recognizer")]
    fn shape_rejects_non_session_filters() {
        SessionShape::get().row(&CompiledFilter::compile(&catch_all_ip()));
    }

    #[test]
    #[should_panic(expected = "does not fit the session shape")]
    fn shape_rejects_recognizers_off_the_layout() {
        let p = Program::new(vec![
            Insn::PushWord(0),
            Insn::PushLit(1),
            Insn::CombineAnd(Binop::Eq),
            Insn::PushLit(1),
            Insn::Ret,
        ]);
        SessionShape::get().row(&CompiledFilter::compile(&p));
    }

    #[test]
    fn constant_false_tail_is_recognized() {
        // `PushLit 0; Ret` after the checks: always rejects, but only
        // after charging the whole chain (catch-alls end this way).
        let p = Program::new(vec![
            Insn::PushWord(0),
            Insn::PushLit(0x0102),
            Insn::CombineAnd(Binop::Eq),
            Insn::PushLit(0),
            Insn::Ret,
        ]);
        let c = CompiledFilter::compile(&p);
        assert!(c.is_fast_path());
        outcomes_match(&p, &[1, 2, 3, 4]);
        outcomes_match(&p, &[9, 9]);
    }
}
