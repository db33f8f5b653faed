//! Interpreter ≡ compiled-tier equivalence (the compile-tier contract).
//!
//! The compile tier (`psd::filter::compiled`) promises *observational
//! identity*: for every program and every byte string, the compiled
//! artifact reproduces the interpreter's entire `FilterOutcome` —
//! verdict, step count, and abnormal-termination cause — bit for bit.
//! Everything downstream (demux owner choice, census charging, virtual
//! time, traces) follows from that triple, so proving the triple equal
//! proves the engines indistinguishable.
//!
//! These tests attack the contract with seeded differential fuzzing:
//! adversarial programs (mutated canonical filters, random instruction
//! soup, budget bursters, underflow-prone combine chains) crossed with
//! adversarial frames (runts, fragments, IP options, ARP, maximal, and
//! raw random bytes), well past ten thousand program×frame cases; plus
//! demux-table-level equivalence under both strategies, insert/remove
//! interleavings pinning incremental artifact maintenance to a fresh
//! rebuild, and a property test on the endpoint compiler's lowering.
//!
//! Every generator is driven by the seeded `psd::sim::Rng`, so a
//! failure reproduces exactly from the seed printed in the panic.

use psd::filter::{
    catch_all_ip, compile_endpoint, Binop, CompiledFilter, DemuxStrategy, DemuxTable, EndpointSpec,
    FilterEngine, FilterId, Insn, Program, VmError, MAX_STEPS,
};
use psd::sim::Rng;
use psd::wire::{
    EtherAddr, EtherType, EthernetHeader, IpProto, Ipv4Header, TcpFlags, TcpHeader, UdpHeader,
};
use std::net::Ipv4Addr;

/// Runs `body` for `cases` deterministic cases, each with its own
/// forked stream. The per-case seed appears in panic messages.
fn cases(base_seed: u64, cases: u32, mut body: impl FnMut(&mut Rng)) {
    let mut root = Rng::new(base_seed);
    for case in 0..cases {
        let seed = root.next_u64();
        let mut rng = Rng::new(seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(e) = result {
            eprintln!("property failed at case {case} (seed {seed:#x})");
            std::panic::resume_unwind(e);
        }
    }
}

const HOST_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

// ---------------------------------------------------------------------
// Program generators
// ---------------------------------------------------------------------

const ALL_BINOPS: [Binop; 11] = [
    Binop::Eq,
    Binop::Ne,
    Binop::Lt,
    Binop::Le,
    Binop::Gt,
    Binop::Ge,
    Binop::And,
    Binop::Or,
    Binop::Xor,
    Binop::Add,
    Binop::Sub,
];

fn rand_binop(rng: &mut Rng) -> Binop {
    ALL_BINOPS[rng.below(ALL_BINOPS.len() as u64) as usize]
}

/// A random instruction. Word offsets are biased toward the header
/// region (in bounds for ordinary frames) with a tail of wild offsets
/// that are out of bounds for everything.
fn rand_insn(rng: &mut Rng) -> Insn {
    match rng.below(12) {
        0..=2 => Insn::PushLit(rng.next_u64() as u16),
        3..=5 => Insn::PushWord(if rng.chance(0.8) {
            rng.below(64) as u16
        } else {
            rng.below(3000) as u16
        }),
        6 | 7 => Insn::Op(rand_binop(rng)),
        8 => Insn::CombineOr(rand_binop(rng)),
        9 | 10 => Insn::CombineAnd(rand_binop(rng)),
        _ => Insn::Ret,
    }
}

fn rand_spec(rng: &mut Rng) -> EndpointSpec {
    let proto = if rng.chance(0.3) {
        IpProto::Tcp
    } else {
        IpProto::Udp
    };
    let lport = rng.range(1000, 1040) as u16;
    if rng.chance(0.5) {
        EndpointSpec::connected(
            proto,
            HOST_IP,
            lport,
            Ipv4Addr::new(10, 0, 0, rng.range(1, 4) as u8),
            rng.range(2000, 2007) as u16,
        )
    } else {
        EndpointSpec::unconnected(proto, HOST_IP, lport)
    }
}

/// Applies one structure-breaking mutation to a canonical program.
/// Each mutation can knock the program off the recognizer fast path,
/// change its verdict, or leave it semantically identical — all three
/// outcomes must still agree between the engines.
fn mutate(rng: &mut Rng, insns: &mut Vec<Insn>) {
    if insns.is_empty() {
        insns.push(rand_insn(rng));
        return;
    }
    let i = rng.below(insns.len() as u64) as usize;
    match rng.below(7) {
        0 => {
            // Flip bits in a literal (or replace the insn otherwise).
            if let Insn::PushLit(v) = insns[i] {
                insns[i] = Insn::PushLit(v ^ (1 << rng.below(16)));
            } else {
                insns[i] = rand_insn(rng);
            }
        }
        1 => {
            // Perturb a word offset, possibly past the packet end.
            if let Insn::PushWord(off) = insns[i] {
                insns[i] = Insn::PushWord(off.wrapping_add(rng.range(1, 2000) as u16));
            } else {
                insns[i] = rand_insn(rng);
            }
        }
        2 => insns[i] = rand_insn(rng),
        3 => {
            let j = rng.below(insns.len() as u64) as usize;
            insns.swap(i, j);
        }
        4 => insns.truncate(i), // may drop the Ret entirely
        5 => {
            insns.remove(i);
        }
        _ => insns.insert(i, rand_insn(rng)),
    }
}

/// One adversarial program drawn from the six classes. Returns the
/// class index so the harness can prove each class was exercised.
fn rand_program(rng: &mut Rng) -> (Program, usize) {
    let class = rng.below(6) as usize;
    let insns = match class {
        // Canonical session filters and the catch-all: the recognizer's
        // home turf.
        0 => {
            if rng.chance(0.15) {
                catch_all_ip().insns
            } else {
                compile_endpoint(&rand_spec(rng)).insns
            }
        }
        // Mutated canonical: near misses of the recognizable shape.
        1 => {
            let mut insns = compile_endpoint(&rand_spec(rng)).insns;
            for _ in 0..rng.range(1, 3) {
                mutate(rng, &mut insns);
            }
            insns
        }
        // Random instruction soup, Ret included.
        2 => (0..rng.below(40)).map(|_| rand_insn(rng)).collect(),
        // Budget bursters: lengths straddling MAX_STEPS, built from
        // pushes so execution reaches the budget edge (a Ret or an
        // underflow would end the run early).
        3 => {
            let len = rng.range(MAX_STEPS as u64 - 4, MAX_STEPS as u64 + 16) as usize;
            (0..len)
                .map(|_| {
                    if rng.chance(0.1) {
                        Insn::PushWord(rng.below(40) as u16)
                    } else {
                        Insn::PushLit(rng.next_u64() as u16)
                    }
                })
                .collect()
        }
        // Combine-heavy: operators outnumber pushes, so underflow is
        // the common ending.
        4 => (0..rng.range(1, 24))
            .map(|_| match rng.below(4) {
                0 => Insn::PushLit(rng.next_u64() as u16),
                1 => Insn::Op(rand_binop(rng)),
                2 => Insn::CombineOr(rand_binop(rng)),
                _ => Insn::CombineAnd(rand_binop(rng)),
            })
            .collect(),
        // No terminator: exercises the implicit fall-off-the-end Ret.
        _ => (0..rng.below(20))
            .map(|_| loop {
                let i = rand_insn(rng);
                if i != Insn::Ret {
                    return i;
                }
            })
            .collect(),
    };
    (Program::new(insns), class)
}

// ---------------------------------------------------------------------
// Frame generators
// ---------------------------------------------------------------------

struct FrameSpec {
    tcp: bool,
    src: (Ipv4Addr, u16),
    dst: (Ipv4Addr, u16),
    frag_offset: u16,
    more_fragments: bool,
    truncate: Option<usize>,
}

fn build_frame(fs: &FrameSpec) -> Vec<u8> {
    let proto = if fs.tcp { IpProto::Tcp } else { IpProto::Udp };
    let tl = if fs.tcp { 20 } else { 8 };
    let mut ip = Ipv4Header::new(fs.src.0, fs.dst.0, proto, tl);
    ip.frag_offset = fs.frag_offset;
    ip.more_fragments = fs.more_fragments;
    let eth = EthernetHeader {
        dst: EtherAddr::local(2),
        src: EtherAddr::local(1),
        ethertype: EtherType::Ipv4,
    };
    let mut f = eth.encode().to_vec();
    f.extend_from_slice(&ip.encode());
    if fs.tcp {
        let h = TcpHeader {
            src_port: fs.src.1,
            dst_port: fs.dst.1,
            seq: 0,
            ack: 0,
            flags: TcpFlags::ACK,
            window: 0,
            urgent: 0,
            mss: None,
        };
        f.extend_from_slice(&h.encode());
    } else {
        f.extend_from_slice(&UdpHeader::new(fs.src.1, fs.dst.1, 0).encode());
    }
    if let Some(len) = fs.truncate {
        f.truncate(len);
    }
    f
}

/// The well-formed frame a given endpoint spec accepts.
fn matching_frame(spec: &EndpointSpec) -> Vec<u8> {
    let (rip, rport) = spec.remote.unwrap_or((Ipv4Addr::new(10, 0, 0, 3), 2004));
    build_frame(&FrameSpec {
        tcp: spec.proto == IpProto::Tcp,
        src: (rip, rport),
        dst: (spec.local_ip, spec.local_port),
        frag_offset: 0,
        more_fragments: false,
        truncate: None,
    })
}

/// Rewrites a frame to carry a 4-byte IP option: IHL bumped to 6 and a
/// no-op option word spliced in after the fixed header. The session
/// prefix's version/IHL check must reject it; the engines must agree.
fn with_ip_options(frame: &[u8]) -> Vec<u8> {
    let mut f = frame.to_vec();
    if f.len() < 34 {
        return f;
    }
    f[14] = 0x46; // version 4, IHL 6
                  // NOP, NOP, NOP, EOL.
    let options = [0x01, 0x01, 0x01, 0x00];
    let insert_at = 14 + 20;
    for (i, b) in options.iter().enumerate() {
        f.insert(insert_at + i, *b);
    }
    f
}

fn arp_frame() -> Vec<u8> {
    let p = psd::wire::ArpPacket::request(EtherAddr::local(1), Ipv4Addr::new(10, 0, 0, 1), HOST_IP);
    let eth = EthernetHeader {
        dst: EtherAddr::BROADCAST,
        src: EtherAddr::local(1),
        ethertype: EtherType::Arp,
    };
    let mut f = eth.encode().to_vec();
    f.extend_from_slice(&p.encode());
    f
}

/// One adversarial frame drawn from the seven classes.
fn rand_adversarial_frame(rng: &mut Rng) -> Vec<u8> {
    let base = FrameSpec {
        tcp: rng.chance(0.3),
        src: (
            Ipv4Addr::new(10, 0, 0, rng.range(1, 5) as u8),
            rng.range(2000, 2009) as u16,
        ),
        dst: (HOST_IP, rng.range(1000, 1044) as u16),
        frag_offset: 0,
        more_fragments: false,
        truncate: None,
    };
    match rng.below(7) {
        // Runts: every length from empty to just past the headers.
        0 => {
            let mut f = build_frame(&base);
            f.truncate(rng.below(43) as usize);
            f
        }
        // Fragments.
        1 => {
            let mut fs = base;
            fs.frag_offset = rng.range(1, 100) as u16 * 8;
            fs.more_fragments = rng.chance(0.5);
            build_frame(&fs)
        }
        // IP options.
        2 => with_ip_options(&build_frame(&base)),
        // ARP.
        3 => arp_frame(),
        // Maximal: padded to the classic 1514-byte Ethernet MTU frame.
        4 => {
            let mut f = build_frame(&base);
            while f.len() < 1514 {
                f.push(rng.next_u64() as u8);
            }
            f
        }
        // Raw random bytes: no structure at all.
        5 => (0..rng.below(120)).map(|_| rng.next_u64() as u8).collect(),
        // Well-formed, in-range frames (the happy path must agree too).
        _ => build_frame(&base),
    }
}

// ---------------------------------------------------------------------
// The headline differential harness
// ---------------------------------------------------------------------

/// ≥10,000 adversarial program×frame cases: the compiled artifact must
/// reproduce the interpreter's `FilterOutcome` — verdict, steps, and
/// error — exactly, on every case. Vacuity guards prove the corpus
/// actually reached accepts, ordinary rejects, all three abnormal
/// causes, both compiled tiers, and every program class.
#[test]
fn compiled_tier_matches_interpreter_on_adversarial_corpus() {
    const PROGRAMS: u32 = 1500;
    const FRAMES_PER_PROGRAM: usize = 8;

    let mut total = 0u64;
    let mut accepts = 0u64;
    let mut plain_rejects = 0u64;
    let mut oob = 0u64;
    let mut underflow = 0u64;
    let mut budget = 0u64;
    let mut fast_path_programs = 0u64;
    let mut threaded_programs = 0u64;
    let mut class_seen = [0u64; 6];

    cases(0xf11e_c0de, PROGRAMS, |rng| {
        let (program, class) = rand_program(rng);
        let compiled = CompiledFilter::compile(&program);
        class_seen[class] += 1;
        if compiled.is_fast_path() {
            fast_path_programs += 1;
        } else {
            threaded_programs += 1;
        }
        for _ in 0..FRAMES_PER_PROGRAM {
            let frame = rand_adversarial_frame(rng);
            let reference = program.run(&frame);
            let observed = compiled.run(&frame);
            assert_eq!(
                reference, observed,
                "engines diverge on program {:?} frame {:02x?}",
                program.insns, frame
            );
            total += 1;
            if reference.accepted {
                accepts += 1;
            }
            match reference.error {
                None if !reference.accepted => plain_rejects += 1,
                Some(VmError::OutOfBounds) => oob += 1,
                Some(VmError::StackUnderflow) => underflow += 1,
                Some(VmError::StepBudget) => budget += 1,
                None => {}
            }
        }
    });

    // Vacuity guards: the corpus must be adversarial in fact, not just
    // in intent. A generator regression that stops producing one of
    // these outcomes turns the whole harness into a no-op.
    assert!(total >= 10_000, "only {total} cases ran");
    assert!(accepts > 0, "corpus never accepted");
    assert!(plain_rejects > 0, "corpus never ordinarily rejected");
    assert!(oob > 0, "corpus never hit OutOfBounds");
    assert!(underflow > 0, "corpus never hit StackUnderflow");
    assert!(budget > 0, "corpus never hit StepBudget");
    assert!(fast_path_programs > 0, "recognizer tier never exercised");
    assert!(threaded_programs > 0, "threaded tier never exercised");
    for (class, seen) in class_seen.iter().enumerate() {
        assert!(*seen > 0, "program class {class} never generated");
    }
}

/// The recognizer's step accounting is the subtle half of the
/// contract: a dedicated sweep pins it on canonical programs, where
/// every reject path (prefix miss, endpoint miss, out-of-bounds read)
/// must charge exactly the interpreter's short-circuit step count.
#[test]
fn recognizer_step_accounting_matches_on_canonical_programs() {
    cases(0xf11e_57e9, 400, |rng| {
        let spec = rand_spec(rng);
        let program = compile_endpoint(&spec);
        let compiled = CompiledFilter::compile(&program);
        assert!(compiled.is_fast_path(), "canonical shape must lower");
        // The matching frame, every prefix of it, and mutations of
        // every single byte: each probes a different reject point.
        let matching = matching_frame(&spec);
        for len in 0..=matching.len() {
            let f = &matching[..len];
            assert_eq!(program.run(f), compiled.run(f), "prefix len {len}");
        }
        for _ in 0..24 {
            let mut f = matching.clone();
            let i = rng.below(f.len() as u64) as usize;
            f[i] ^= 1 << rng.below(8);
            assert_eq!(program.run(&f), compiled.run(&f), "flip at byte {i}");
        }
    });
}

// ---------------------------------------------------------------------
// Demux-table-level equivalence
// ---------------------------------------------------------------------

fn grow_engine_pair(
    rng: &mut Rng,
    strategy: DemuxStrategy,
    n: usize,
) -> (DemuxTable<usize>, DemuxTable<usize>) {
    let mut interp: DemuxTable<usize> = DemuxTable::with_engine(strategy, FilterEngine::Interpret);
    let mut comp: DemuxTable<usize> = DemuxTable::with_engine(strategy, FilterEngine::Compiled);
    let mut seen = std::collections::HashSet::new();
    let mut owner = 0usize;
    while owner < n {
        let spec = rand_spec(rng);
        if !seen.insert(spec) {
            continue;
        }
        interp.install(spec, owner);
        comp.install(spec, owner);
        owner += 1;
    }
    (interp, comp)
}

/// Under either strategy, a table running the compiled tier classifies
/// every frame to the same owner with the same charged step count as a
/// table running the interpreter.
#[test]
fn demux_owners_and_steps_identical_under_either_engine() {
    for strategy in [DemuxStrategy::Cspf, DemuxStrategy::Mpf] {
        for n in [4usize, 16, 64] {
            cases(0xf11e_0000 + n as u64, 12, |rng| {
                let (interp, comp) = grow_engine_pair(rng, strategy, n);
                assert_eq!(comp.compiled_artifacts(), comp.len());
                for _ in 0..48 {
                    let frame = rand_adversarial_frame(rng);
                    let a = interp.classify(&frame);
                    let b = comp.classify(&frame);
                    assert_eq!(
                        a.owner, b.owner,
                        "{strategy:?} N={n}: owners diverge on {frame:02x?}"
                    );
                    assert_eq!(
                        a.steps, b.steps,
                        "{strategy:?} N={n}: charged steps diverge on {frame:02x?}"
                    );
                }
            });
        }
    }
}

/// Toggling the engine on a live, fully-populated table is free: the
/// artifacts were built at install time, so classification is
/// identical before and after the flip — in both directions.
#[test]
fn engine_toggle_on_live_table_is_invisible() {
    for strategy in [DemuxStrategy::Cspf, DemuxStrategy::Mpf] {
        cases(0xf11e_1062 + strategy as u64, 8, |rng| {
            let (mut table, _) = grow_engine_pair(rng, strategy, 32);
            let frames: Vec<Vec<u8>> = (0..32).map(|_| rand_adversarial_frame(rng)).collect();
            let before: Vec<_> = frames
                .iter()
                .map(|f| {
                    let r = table.classify(f);
                    (r.owner, r.steps)
                })
                .collect();
            table.set_engine(FilterEngine::Compiled);
            for (f, want) in frames.iter().zip(&before) {
                let r = table.classify(f);
                assert_eq!(
                    (r.owner, r.steps),
                    *want,
                    "{strategy:?}: flip changed result"
                );
            }
            table.set_engine(FilterEngine::Interpret);
            for (f, want) in frames.iter().zip(&before) {
                let r = table.classify(f);
                assert_eq!(
                    (r.owner, r.steps),
                    *want,
                    "{strategy:?}: flip back changed result"
                );
            }
        });
    }
}

/// Random install/remove interleavings under the compiled engine: the
/// incrementally-maintained table classifies exactly like a fresh
/// rebuild of the survivors, and its artifact table never leaks (one
/// artifact per live filter, no more, after every step).
#[test]
fn incremental_compiled_artifacts_match_fresh_rebuild() {
    cases(0xf11e_2222, 12, |rng| {
        for strategy in [DemuxStrategy::Cspf, DemuxStrategy::Mpf] {
            let mut live: DemuxTable<usize> =
                DemuxTable::with_engine(strategy, FilterEngine::Compiled);
            let mut ids: Vec<(FilterId, EndpointSpec, usize)> = Vec::new();
            for step in 0..rng.range(50, 250) as usize {
                if !ids.is_empty() && rng.chance(0.4) {
                    let idx = rng.below(ids.len() as u64) as usize;
                    let (id, _, _) = ids.swap_remove(idx);
                    assert!(live.remove(id));
                    assert!(!live.remove(id), "double remove must fail");
                } else {
                    let spec = rand_spec(rng);
                    let id = live.install(spec, step);
                    ids.push((id, spec, step));
                }
                // The artifact table tracks the live set exactly: a
                // leak (artifact outliving its filter) or a miss
                // (filter without an artifact) both fail here.
                assert_eq!(live.compiled_artifacts(), live.len());
            }
            ids.sort_by_key(|(id, _, _)| id.0);
            let mut fresh: DemuxTable<usize> =
                DemuxTable::with_engine(strategy, FilterEngine::Compiled);
            for (_, spec, owner) in &ids {
                fresh.install(*spec, *owner);
            }
            assert_eq!(live.len(), fresh.len());
            assert_eq!(live.compiled_artifacts(), fresh.compiled_artifacts());
            for _ in 0..48 {
                let frame = rand_adversarial_frame(rng);
                let a = live.classify(&frame);
                let b = fresh.classify(&frame);
                assert_eq!(a.owner.map(|o| o.1), b.owner.map(|o| o.1), "{strategy:?}");
                assert_eq!(a.steps, b.steps, "{strategy:?}: steps diverge");
            }
        }
    });
}

// ---------------------------------------------------------------------
// Endpoint-lowering property (satellite: compile.rs § recognizer)
// ---------------------------------------------------------------------

/// Every compiled endpoint spec lowers to the recognizer fast path and
/// accepts exactly its own frames: the matching frame passes, and the
/// fragment / IP-options / wrong-protocol / wrong-port variants all
/// fail — under both engines, with identical outcomes.
#[test]
fn endpoint_lowering_accepts_own_frames_and_rejects_variants() {
    cases(0xf11e_3333, 300, |rng| {
        let spec = rand_spec(rng);
        let program = compile_endpoint(&spec);
        let compiled = CompiledFilter::compile(&program);
        assert!(compiled.is_fast_path(), "endpoint programs must lower");

        let good = matching_frame(&spec);
        assert!(program.run(&good).accepted, "own frame must match");
        assert_eq!(program.run(&good), compiled.run(&good));

        // Fragment variant: set a nonzero fragment offset.
        let mut frag = good.clone();
        frag[20] = 0x00;
        frag[21] = 0x08;
        assert!(!program.run(&frag).accepted, "fragments never match");
        assert_eq!(program.run(&frag), compiled.run(&frag));

        // IP-options variant.
        let opts = with_ip_options(&good);
        assert!(!program.run(&opts).accepted, "options never match");
        assert_eq!(program.run(&opts), compiled.run(&opts));

        // Wrong transport protocol (UDP <-> TCP in the proto byte; the
        // port words keep their offsets, only the proto check differs).
        let mut wrong_proto = good.clone();
        wrong_proto[23] = if spec.proto == IpProto::Udp { 6 } else { 17 };
        assert!(!program.run(&wrong_proto).accepted);
        assert_eq!(program.run(&wrong_proto), compiled.run(&wrong_proto));

        // Wrong destination port.
        let mut wrong_port = good.clone();
        wrong_port[37] ^= 0x01;
        assert!(!program.run(&wrong_port).accepted);
        assert_eq!(program.run(&wrong_port), compiled.run(&wrong_port));

        // Connected sessions also reject a wrong remote.
        if spec.remote.is_some() {
            let mut wrong_remote = good.clone();
            wrong_remote[29] ^= 0x40;
            assert!(!program.run(&wrong_remote).accepted);
            assert_eq!(program.run(&wrong_remote), compiled.run(&wrong_remote));
        }
    });
}

// ---------------------------------------------------------------------
// Dense CSPF plan ≡ interpreter table
// ---------------------------------------------------------------------

/// Byte offset and mask of each word the connected session filter
/// reads, in program order. A wildcard filter reads the first seven.
const SHAPE_WORDS: [(usize, u16); 10] = [
    (12, 0xFFFF),
    (14, 0xFF00),
    (20, 0x3FFF),
    (22, 0x00FF),
    (30, 0xFFFF),
    (32, 0xFFFF),
    (36, 0xFFFF),
    (26, 0xFFFF),
    (28, 0xFFFF),
    (34, 0xFFFF),
];

/// How one session filter's run ended, by shape index.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum RowEnd {
    Accept,
    CompareFail(usize),
    OutOfBounds(usize),
}

/// The interpreter's `steps` when a session filter stops at each shape
/// index: `(out of bounds, failed compare)` per index, from the group
/// boundaries of the connected program. An out-of-bounds read stops
/// one instruction into a group, a failed compare at the group's end.
fn shape_stop_steps() -> Vec<(usize, usize)> {
    let widest = compile_endpoint(&EndpointSpec::connected(
        IpProto::Udp,
        HOST_IP,
        1,
        HOST_IP,
        1,
    ));
    let at = |want: fn(&Insn) -> bool| -> Vec<usize> {
        (0..widest.insns.len())
            .filter(|&i| want(&widest.insns[i]))
            .collect()
    };
    let starts = at(|i| matches!(i, Insn::PushWord(_)));
    let ends = at(|i| matches!(i, Insn::CombineAnd(_)));
    starts
        .iter()
        .zip(&ends)
        .map(|(s, e)| (s + 1, e + 1))
        .collect()
}

/// Maps an interpreter outcome of a session filter back to the shape
/// index it stopped at.
fn row_end(stops: &[(usize, usize)], out: &psd::filter::FilterOutcome) -> RowEnd {
    let index = |pick: fn(&(usize, usize)) -> usize| {
        stops
            .iter()
            .position(|s| pick(s) == out.steps)
            .expect("session filters stop at a group boundary")
    };
    match out.error {
        _ if out.accepted => RowEnd::Accept,
        Some(VmError::OutOfBounds) => RowEnd::OutOfBounds(index(|s| s.0)),
        None => RowEnd::CompareFail(index(|s| s.1)),
        Some(e) => panic!("session filter ended with {e:?}"),
    }
}

/// A spec for a table of about `n` filters: TCP and UDP interleaved,
/// wildcards and connected sessions mixed, over a port range narrow
/// enough that duplicates and connected/wildcard overlaps occur.
fn rand_table_spec(rng: &mut Rng, n: usize) -> EndpointSpec {
    let proto = if rng.chance(0.3) {
        IpProto::Tcp
    } else {
        IpProto::Udp
    };
    let lport = rng.range(1000, 1000 + (n as u64 / 4).max(4)) as u16;
    if rng.chance(0.4) {
        EndpointSpec::connected(
            proto,
            HOST_IP,
            lport,
            Ipv4Addr::new(10, 0, 0, rng.range(1, 4) as u8),
            rng.range(2000, 2007) as u16,
        )
    } else {
        EndpointSpec::unconnected(proto, HOST_IP, lport)
    }
}

/// The CSPF table on the default (compiled, dense-plan) engine
/// classifies exactly like a table running the interpreter — same
/// owner, same charged steps — at N ∈ {1, 64, 4096} live filters grown
/// through install/remove churn (free-slot reuse, duplicate specs,
/// mixed specificities, TCP/UDP interleaving).
///
/// The frames are a matching frame for every live filter, matching
/// frames truncated at every length 0..=42, matching frames with each
/// shape word flipped under its mask, and the adversarial corpus. At
/// N = 4096 the truncation and flip sweeps cover a seeded sample of 32
/// live filters, which keeps the interpreter side of the test in
/// seconds; the smaller tables sweep every filter.
///
/// The vacuity guard replays the scan filter by filter on the
/// interpreter for the smaller tables and requires an accept, a failed
/// compare at each of the ten shape indices, and an out-of-bounds read
/// at each of the first seven. Words 7–9 (source address and port) lie
/// inside bytes 0..38, which word 6 (the destination port) has already
/// read, so no frame can run out of bounds there.
#[test]
fn cspf_plan_matches_interpreter_table_under_churn() {
    let stops = shape_stop_steps();
    assert_eq!(stops.len(), SHAPE_WORDS.len());
    let mut seen = std::collections::HashSet::new();
    for n in [1usize, 64, 4096] {
        cases(0xf11e_9a00 + n as u64, 1, |rng| {
            let mut plan: DemuxTable<usize> = DemuxTable::new(DemuxStrategy::Cspf);
            let mut interp: DemuxTable<usize> =
                DemuxTable::with_engine(DemuxStrategy::Cspf, FilterEngine::Interpret);
            assert_eq!(plan.engine(), FilterEngine::Compiled, "default engine");
            let mut live: Vec<(FilterId, EndpointSpec)> = Vec::new();
            let mut owner = 0usize;
            let mut removed = 0usize;
            while live.len() < n {
                if !live.is_empty() && rng.chance(0.25) {
                    let (id, _) = live.swap_remove(rng.below(live.len() as u64) as usize);
                    assert!(plan.remove(id) && interp.remove(id));
                    removed += 1;
                    continue;
                }
                let spec = if !live.is_empty() && rng.chance(0.1) {
                    live[rng.below(live.len() as u64) as usize].1
                } else {
                    rand_table_spec(rng, n)
                };
                let id = plan.install(spec, owner);
                assert_eq!(interp.install(spec, owner), id);
                live.push((id, spec));
                owner += 1;
            }
            assert!(n == 1 || removed > 0, "churn never removed");
            assert_eq!(plan.len(), n);
            assert_eq!(plan.compiled_artifacts(), plan.len());

            let swept: Vec<EndpointSpec> = if n > 64 {
                (0..32)
                    .map(|_| live[rng.below(live.len() as u64) as usize].1)
                    .collect()
            } else {
                live.iter().map(|(_, s)| *s).collect()
            };
            let mut frames: Vec<Vec<u8>> = live.iter().map(|(_, s)| matching_frame(s)).collect();
            for spec in &swept {
                let good = matching_frame(spec);
                frames.extend((0..=42).map(|len| good[..len.min(good.len())].to_vec()));
                for (i, &(off, mask)) in SHAPE_WORDS.iter().enumerate() {
                    let mut f = good.clone();
                    let bit = 1u16 << (i % 16);
                    let flip = if mask & bit != 0 {
                        bit
                    } else {
                        mask & mask.wrapping_neg()
                    };
                    f[off] ^= (flip >> 8) as u8;
                    f[off + 1] ^= flip as u8;
                    frames.push(f);
                }
            }
            frames.extend((0..64).map(|_| rand_adversarial_frame(rng)));

            let mut order = live.clone();
            order.sort_by_key(|(id, s)| (std::cmp::Reverse(s.specificity()), id.0));
            let programs: Vec<Program> = order.iter().map(|(_, s)| compile_endpoint(s)).collect();
            for frame in &frames {
                let a = interp.classify(frame);
                let b = plan.classify(frame);
                assert_eq!(
                    (a.owner, a.steps),
                    (b.owner, b.steps),
                    "N={n}: plan diverges from the interpreter on {frame:02x?}"
                );
                if n > 64 {
                    continue;
                }
                // Replay the scan in CSPF order on the interpreter.
                for program in &programs {
                    let end = row_end(&stops, &program.run(frame));
                    seen.insert(end);
                    if end == RowEnd::Accept {
                        break;
                    }
                }
            }
        });
    }
    assert!(seen.contains(&RowEnd::Accept), "no row ever accepted");
    for i in 0..10 {
        assert!(
            seen.contains(&RowEnd::CompareFail(i)),
            "no failed compare at shape index {i}"
        );
    }
    for i in 0..7 {
        assert!(
            seen.contains(&RowEnd::OutOfBounds(i)),
            "no out-of-bounds read at shape index {i}"
        );
    }
}
