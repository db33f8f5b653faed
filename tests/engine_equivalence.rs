//! Event-engine equivalence suite: the timer wheel vs the retained
//! `BinaryHeap` reference model.
//!
//! The timer-wheel rework of `psd_sim::Sim` is only admissible if it is
//! *observationally identical* to the queue it replaced — every archived
//! results table depends on events firing in exactly the old
//! `(time, seq)` order. This suite drives both engines with the same
//! seeded adversarial schedules — random interleavings of `at`/`after`/
//! `cancel` with in-event scheduling and cancellation, same-instant
//! bursts, far-future timers, cancel-after-fire and cancel-twice — and
//! asserts a byte-identical fire log, executed count, and final clock.
//!
//! It also pins the two structural improvements the wheel makes:
//! cancelling fired handles stores nothing (the reference model leaks a
//! `HashSet` entry per cancel), and slab-slot reuse cannot alias stale
//! handles onto new events (generation tags).

use std::cell::RefCell;
use std::rc::Rc;

use psd::sim::{BaselineHandle, BaselineQueue, Rng, Sim, SimHandle, SimTime};

/// What an event does when it fires, beyond logging: optionally arm a
/// later id, optionally cancel whatever handle an id currently maps to.
#[derive(Clone, Copy)]
struct Action {
    spawn: Option<(usize, u64)>, // (child id, delay ns)
    cancel: Option<usize>,
}

/// One scripted top-level operation.
#[derive(Clone, Copy, Debug)]
enum Op {
    At { id: usize, t: u64 },
    After { id: usize, d: u64 },
    Cancel { id: usize },
    Run { limit: u64 },
    RunUntil { t: u64 },
}

struct Script {
    ops: Vec<Op>,
    actions: Vec<Action>,
}

/// Generates a seeded adversarial schedule. Spawn targets always have a
/// larger id than their parent, so in-event scheduling chains are
/// finite; everything else — burst collisions, cancels of unarmed,
/// fired, or already-cancelled ids, far-future expiries — is fair game.
fn generate(seed: u64, n_ids: usize, n_ops: usize) -> Script {
    let mut rng = Rng::new(seed);
    let actions = (0..n_ids)
        .map(|id| Action {
            spawn: if id + 1 < n_ids && rng.chance(0.3) {
                let child = id + 1 + rng.below((n_ids - id - 1) as u64) as usize;
                // Zero-delay spawns probe the run-after-current-batch rule.
                let delay = if rng.chance(0.3) { 0 } else { rng.below(2_000) };
                Some((child, delay))
            } else {
                None
            },
            cancel: if rng.chance(0.35) {
                Some(rng.below(n_ids as u64) as usize)
            } else {
                None
            },
        })
        .collect();
    let mut ops = Vec::with_capacity(n_ops);
    let mut deadline = 0u64;
    for _ in 0..n_ops {
        let id = rng.below(n_ids as u64) as usize;
        ops.push(match rng.below(100) {
            // Absolute times drawn from a coarse grid force same-instant
            // bursts; `at` in the past exercises the clamp-to-now rule.
            0..=34 => Op::At {
                id,
                t: rng.below(60) * 100,
            },
            35..=49 => Op::After {
                id,
                d: rng.below(3_000),
            },
            // Far-future timers sit at the wheel's top levels; most are
            // later cancelled without ever cascading down.
            50..=54 => Op::After {
                id,
                d: (1 << 40) + rng.below(1 << 20),
            },
            55..=74 => Op::Cancel { id },
            75..=89 => Op::Run {
                limit: rng.below(8),
            },
            _ => {
                deadline += rng.below(1_500);
                Op::RunUntil { t: deadline }
            }
        });
    }
    Script { ops, actions }
}

/// A delay drawn log-uniformly over [2^0, 2^34) ns: every wheel level
/// from 0 to 5 is about equally likely.
fn log_uniform_delay(rng: &mut Rng) -> u64 {
    let bits = rng.below(34);
    (1 << bits) + rng.below(1 << bits)
}

/// Generates a sparse schedule: `chains` timer chains (1–3 live timers
/// at any instant), each event re-arming its chain's next id after a
/// log-uniform delay, so most entries sit alone in their bucket at
/// level 2 or above. Every fire time is known up front (chains start
/// with absolute `at`s and re-arm relative to their own fire time), so
/// `RunUntil` horizons land just before, exactly at, or just after an
/// expiry. After each horizon, two probes expose an engine that pops
/// past it or stops short of it: a cancel of the latest id due by then
/// (a no-op, as it has already fired) and a fresh id armed relative to
/// the clock. Every id therefore fires exactly once.
fn generate_sparse(seed: u64, chains: usize, len: usize) -> Script {
    let mut rng = Rng::new(seed);
    let mut actions = vec![
        Action {
            spawn: None,
            cancel: None,
        };
        chains * len
    ];
    let mut ops = Vec::new();
    let mut fires = Vec::new(); // (expiry, id)
    for c in 0..chains {
        let mut t = log_uniform_delay(&mut rng);
        ops.push(Op::At { id: c, t });
        fires.push((t, c));
        for k in 0..len - 1 {
            let id = k * chains + c;
            let d = log_uniform_delay(&mut rng);
            actions[id].spawn = Some((id + chains, d));
            t += d;
            fires.push((t, id + chains));
        }
    }
    fires.sort_unstable();
    let mut last = 0;
    for (i, &(e, _)) in fires.iter().enumerate() {
        let horizon = match rng.below(4) {
            // Inside the entry's slot, or further back.
            0 => e - 1 - rng.below(e.min(1 << 20)),
            1 => e,
            2 => e + 1,
            _ => continue,
        };
        last = horizon.max(last);
        ops.push(Op::RunUntil { t: last });
        if let Some(&(_, due)) = fires[..=i].iter().rev().find(|(t, _)| *t <= last) {
            ops.push(Op::Cancel { id: due });
        }
        ops.push(Op::After {
            id: actions.len(),
            d: rng.below(64),
        });
        actions.push(Action {
            spawn: None,
            cancel: None,
        });
    }
    Script { ops, actions }
}

/// (fire time ns, event id) — the observable the two engines must agree on.
type FireLog = Vec<(u64, usize)>;

struct SimCtx {
    log: Rc<RefCell<FireLog>>,
    handles: Rc<RefCell<Vec<Option<SimHandle>>>>,
    actions: Rc<Vec<Action>>,
}

fn arm_sim(sim: &mut Sim, id: usize, when: SimTime, ctx: &SimCtx) {
    let c = SimCtx {
        log: ctx.log.clone(),
        handles: ctx.handles.clone(),
        actions: ctx.actions.clone(),
    };
    let h = sim.at(when, move |s| {
        c.log.borrow_mut().push((s.now().as_nanos(), id));
        let act = c.actions[id];
        if let Some((child, delay)) = act.spawn {
            let when = s.now() + SimTime::from_nanos(delay);
            arm_sim(s, child, when, &c);
        }
        if let Some(victim) = act.cancel {
            let h = c.handles.borrow()[victim];
            if let Some(h) = h {
                s.cancel(h);
            }
        }
    });
    ctx.handles.borrow_mut()[id] = Some(h);
}

/// Runs `script` on the wheel engine: fire log, executed count, final
/// clock, and the number of entries the wheel cascaded.
fn run_sim(script: &Script) -> (FireLog, u64, u64, u64) {
    let mut sim = Sim::new(7);
    let ctx = SimCtx {
        log: Rc::new(RefCell::new(Vec::new())),
        handles: Rc::new(RefCell::new(vec![None; script.actions.len()])),
        actions: Rc::new(script.actions.clone()),
    };
    for &op in &script.ops {
        match op {
            Op::At { id, t } => arm_sim(&mut sim, id, SimTime::from_nanos(t), &ctx),
            Op::After { id, d } => {
                let when = sim.now() + SimTime::from_nanos(d);
                arm_sim(&mut sim, id, when, &ctx);
            }
            Op::Cancel { id } => {
                let h = ctx.handles.borrow()[id];
                if let Some(h) = h {
                    sim.cancel(h);
                }
            }
            Op::Run { limit } => {
                sim.run(limit);
            }
            Op::RunUntil { t } => {
                sim.run_until(SimTime::from_nanos(t));
            }
        }
    }
    sim.run_to_idle();
    let log = ctx.log.borrow().clone();
    let cascaded = sim.queue_stats().cascaded;
    (log, sim.executed(), sim.now().as_nanos(), cascaded)
}

struct BaseCtx {
    log: Rc<RefCell<FireLog>>,
    handles: Rc<RefCell<Vec<Option<BaselineHandle>>>>,
    actions: Rc<Vec<Action>>,
}

fn arm_base(q: &mut BaselineQueue, id: usize, when: SimTime, ctx: &BaseCtx) {
    let c = BaseCtx {
        log: ctx.log.clone(),
        handles: ctx.handles.clone(),
        actions: ctx.actions.clone(),
    };
    let h = q.at(when, move |s| {
        c.log.borrow_mut().push((s.now().as_nanos(), id));
        let act = c.actions[id];
        if let Some((child, delay)) = act.spawn {
            let when = s.now() + SimTime::from_nanos(delay);
            arm_base(s, child, when, &c);
        }
        if let Some(victim) = act.cancel {
            let h = c.handles.borrow()[victim];
            if let Some(h) = h {
                s.cancel(h);
            }
        }
    });
    ctx.handles.borrow_mut()[id] = Some(h);
}

fn run_base(script: &Script) -> (FireLog, u64, u64) {
    let mut q = BaselineQueue::new();
    let ctx = BaseCtx {
        log: Rc::new(RefCell::new(Vec::new())),
        handles: Rc::new(RefCell::new(vec![None; script.actions.len()])),
        actions: Rc::new(script.actions.clone()),
    };
    for &op in &script.ops {
        match op {
            Op::At { id, t } => arm_base(&mut q, id, SimTime::from_nanos(t), &ctx),
            Op::After { id, d } => {
                let when = q.now() + SimTime::from_nanos(d);
                arm_base(&mut q, id, when, &ctx);
            }
            Op::Cancel { id } => {
                let h = ctx.handles.borrow()[id];
                if let Some(h) = h {
                    q.cancel(h);
                }
            }
            Op::Run { limit } => {
                q.run(limit);
            }
            Op::RunUntil { t } => {
                q.run_until(SimTime::from_nanos(t));
            }
        }
    }
    q.run_to_idle();
    let log = ctx.log.borrow().clone();
    (log, q.executed(), q.now().as_nanos())
}

/// Asserts both engines agree on `script`; returns (executed, cascaded).
fn assert_script_equivalent(seed: u64, script: &Script) -> (u64, u64) {
    let (wheel_log, wheel_exec, wheel_now, cascaded) = run_sim(script);
    let (base_log, base_exec, base_now) = run_base(script);
    assert_eq!(wheel_log, base_log, "fire order diverged for seed {seed}");
    assert_eq!(
        wheel_exec, base_exec,
        "executed count diverged for seed {seed}"
    );
    assert_eq!(wheel_now, base_now, "final clock diverged for seed {seed}");
    assert!(
        wheel_exec > 0,
        "seed {seed} executed nothing — schedule too thin"
    );
    (wheel_exec, cascaded)
}

fn assert_equivalent(seed: u64, n_ids: usize, n_ops: usize) -> (u64, u64) {
    assert_script_equivalent(seed, &generate(seed, n_ids, n_ops))
}

#[test]
fn wheel_matches_reference_across_seeds() {
    let mut cascaded = 0;
    for seed in 0..40 {
        cascaded += assert_equivalent(seed, 48, 400).1;
    }
    assert!(cascaded > 0, "the dense schedules must still cascade");
}

#[test]
fn wheel_matches_reference_on_dense_bursts() {
    // Many ids on a tiny time grid: nearly every slot is a same-instant
    // burst, so ordering rests entirely on the seq tie-break.
    let mut cascaded = 0;
    for seed in 100..110 {
        cascaded += assert_equivalent(seed, 160, 1_200).1;
    }
    assert!(cascaded > 0, "the dense schedules must still cascade");
}

#[test]
fn wheel_matches_reference_on_long_runs() {
    for seed in 200..204 {
        assert_equivalent(seed, 96, 3_000);
    }
}

#[test]
fn wheel_matches_reference_on_sparse_high_level_timers() {
    // Lone entries at levels up to 5 pop directly, without cascading;
    // horizons cut just before, at and after their expiries.
    let (mut executed, mut cascaded) = (0, 0);
    for seed in 300..340 {
        let script = generate_sparse(seed, 1 + (seed % 3) as usize, 200);
        let (e, c) = assert_script_equivalent(seed, &script);
        assert_eq!(
            e,
            script.actions.len() as u64,
            "seed {seed}: every id fires once"
        );
        executed += e;
        cascaded += c;
    }
    // Direct pops keep this near 0.3 cascades per pop (mostly probes
    // filed into an expiring entry's bucket); cascading lone entries
    // one level per scan, as the wheel used to, costs about 1.8.
    assert!(
        cascaded * 2 < executed,
        "sparse timers should pop with few cascades: {cascaded} cascaded over {executed} pops"
    );
}

#[test]
fn cancelling_100k_fired_handles_is_memory_free() {
    // The leak the rework fixes: the old engine parked one `HashSet`
    // entry per cancel of an already-fired handle, forever.
    let mut sim = Sim::new(11);
    let mut handles = Vec::with_capacity(100_000);
    for i in 0..100_000u64 {
        handles.push(sim.after(SimTime::from_nanos(i % 64), |_| {}));
    }
    sim.run_to_idle();
    assert_eq!(sim.executed(), 100_000);
    for h in handles {
        sim.cancel(h);
    }
    let stats = sim.queue_stats();
    assert_eq!(stats.live, 0);
    assert_eq!(
        stats.cancelled_pending, 0,
        "cancels of fired handles must store nothing: {stats:?}"
    );
    // Slab high-water mark reflects peak concurrency, not cancel volume.
    assert_eq!(stats.slab_slots, stats.free_slots, "all slots returned");

    // The reference model demonstrates the leak this replaces.
    let mut q = BaselineQueue::new();
    let mut handles = Vec::with_capacity(100_000);
    for i in 0..100_000u64 {
        handles.push(q.after(SimTime::from_nanos(i % 64), |_| {}));
    }
    q.run_to_idle();
    for h in handles {
        q.cancel(h);
    }
    assert_eq!(q.cancelled_set_len(), 100_000, "the old engine leaked");
}

#[test]
fn stale_handles_never_alias_reused_slots() {
    // ABA probe: fire an event, let its slab slot be reused by a new
    // event, then cancel through the stale handle — the new event must
    // still run.
    let mut sim = Sim::new(13);
    let fired = Rc::new(RefCell::new(Vec::new()));
    for round in 0..1_000u64 {
        let stale = {
            let fired = fired.clone();
            sim.after(SimTime::from_nanos(1), move |_| {
                fired.borrow_mut().push((round, 0));
            })
        };
        sim.run_to_idle();
        let fresh = {
            let fired = fired.clone();
            sim.after(SimTime::from_nanos(1), move |_| {
                fired.borrow_mut().push((round, 1));
            })
        };
        sim.cancel(stale); // stale: must not touch the reused slot
        sim.run_to_idle();
        let _ = fresh;
    }
    let log = fired.borrow();
    assert_eq!(log.len(), 2_000, "every event ran despite stale cancels");
    for round in 0..1_000u64 {
        assert_eq!(log[2 * round as usize], (round, 0));
        assert_eq!(log[2 * round as usize + 1], (round, 1));
    }
}
