//! Deterministic interleaving explorer for the parallel executor.
//!
//! The morsel-driven worker pool (`crate::parallel`) merges per-morsel
//! results in morsel order, and its lock order is audited statically
//! by the `trac-analyze` concurrency pass (TRAC020). This module
//! proves the determinism claim dynamically: a seeded,
//! deterministic schedule controller that serializes a multi-threaded
//! execution onto one runnable thread at a time and explores many
//! distinct interleavings of the instrumented *yield points* — morsel
//! handoff, plan-cache read/write, and change-stream publications.
//!
//! # How it works
//!
//! Exploration is cooperative token passing. Exactly one participating
//! thread holds the *schedule token* at any instant; everyone else is
//! parked on a condition variable. At each yield point the holder
//! releases the token and the controller picks the next runnable thread
//! — by a replayed decision prefix (exhaustive mode), or by a seeded
//! xorshift generator (random mode). Because only one thread ever runs
//! between decisions, a schedule is fully determined by its decision
//! sequence: any divergence or assertion failure is replayable from the
//! recorded choices.
//!
//! Threads opt in: [`yield_point`] is a no-op on any thread without an
//! active exploration (two thread-local reads), so production code pays
//! nothing. The worker pool checks [`active`] and wraps its scoped
//! workers in [`participate`]; the coordinator releases the token around
//! the pool join via [`Controller::suspend`]/[`Controller::resume`].
//! Writers in `trac-storage` reach [`yield_point`] on their change-stream
//! publish path through the publish yield hook installed by [`explore`],
//! keeping the storage crate free of any executor dependency.
//!
//! Exhaustive mode runs a bounded depth-first search over decision
//! sequences: schedule *k+1* replays the longest prefix of schedule *k*
//! whose last decision can still be incremented. Single-option decisions
//! are not recorded (they cannot branch), so the search tree is exactly
//! the tree of real scheduling choices. The whole explorer is a single
//! process on one core — it needs no OS preemption to hit a given
//! interleaving, which is what makes it usable on a 1-CPU host.

use std::any::Any;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Maximum time a participant waits for the schedule token before the
/// schedule is declared deadlocked (generous: scheduled sections are
/// microseconds of real work).
const DEADLOCK_TIMEOUT: Duration = Duration::from_secs(5);

/// Instrumented program points where a participating thread offers the
/// scheduler a chance to switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// A participant entering the exploration (before its first step).
    Start,
    /// A worker about to claim the next morsel from the shared counter.
    MorselClaim,
    /// A worker about to deposit a finished morsel into its result slot.
    MorselPark,
    /// A session about to consult the prepared-plan cache.
    CacheRead,
    /// A session about to install a freshly built plan in the cache.
    CacheWrite,
    /// A writer about to publish a change event (including the
    /// suppressed raw legs of a heartbeat upsert).
    Publish,
    /// A session about to fold the change stream into maintained
    /// report state (after taking the state out of the plan cache,
    /// before reading the stream).
    DeltaFold,
}

/// How many schedules to run and how to choose at each decision point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Seeded pseudo-random walks: `schedules` independent schedules,
    /// each deterministic given (`seed`, schedule index).
    Random {
        /// Base seed; schedule `i` derives its generator from `seed + i`.
        seed: u64,
        /// Number of schedules to run.
        schedules: usize,
    },
    /// Bounded depth-first enumeration of all decision sequences,
    /// stopping early after `max_schedules` if the tree is larger.
    Exhaustive {
        /// Upper bound on schedules run (budget for CI).
        max_schedules: usize,
    },
}

/// Outcome of an [`explore`] run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Schedules actually executed.
    pub schedules: usize,
    /// First failing schedule, if any (exploration stops at the first).
    pub failure: Option<Failure>,
}

impl Report {
    /// True when every explored schedule passed.
    pub fn is_clean(&self) -> bool {
        self.failure.is_none()
    }
}

/// A failing schedule: the decision sequence that reproduces it plus
/// the assertion or panic message it produced.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Zero-based index of the failing schedule.
    pub schedule: usize,
    /// The chosen branch at each multi-option decision point, in order.
    pub choices: Vec<usize>,
    /// The assertion failure or panic message.
    pub message: String,
}

struct CtlState {
    /// Thread currently holding the schedule token.
    granted: Option<usize>,
    /// Threads parked at a yield point, awaiting the token.
    parked: BTreeSet<usize>,
    /// Registered participants that have not finished.
    live: usize,
    /// Announced (via `expect_workers`) but not yet registered
    /// participants; no scheduling decision is taken while > 0, so a
    /// decision always sees the full set of runnable threads.
    pending: usize,
    /// Next participant id to hand out.
    next_tid: usize,
    /// Prescribed choices to replay (exhaustive mode).
    prefix: Vec<usize>,
    /// Decisions taken this schedule: (options, chosen) per
    /// multi-option point.
    decisions: Vec<(usize, usize)>,
    /// xorshift64 state (random mode).
    rng: u64,
    /// Random (true) vs exhaustive/replay (false) choice rule.
    random: bool,
}

impl CtlState {
    fn idle() -> CtlState {
        CtlState {
            granted: None,
            parked: BTreeSet::new(),
            live: 0,
            pending: 0,
            next_tid: 1,
            prefix: Vec::new(),
            decisions: Vec::new(),
            rng: 1,
            random: false,
        }
    }

    /// Grants the token to one parked thread if a decision is due:
    /// nobody holds the token, every announced participant has
    /// registered, and every live participant is parked.
    fn maybe_pick(&mut self) -> bool {
        if self.granted.is_some()
            || self.pending > 0
            || self.live == 0
            || self.parked.len() < self.live
        {
            return false;
        }
        let options: Vec<usize> = self.parked.iter().copied().collect();
        let chosen = if options.len() == 1 {
            0
        } else if self.decisions.len() < self.prefix.len() {
            // Replay. Modulo guards against divergence when an earlier
            // different choice changed the option count.
            self.prefix[self.decisions.len()] % options.len()
        } else if self.random {
            (xorshift(&mut self.rng) as usize) % options.len()
        } else {
            0
        };
        if options.len() > 1 {
            self.decisions.push((options.len(), chosen));
        }
        self.granted = Some(options[chosen]);
        true
    }
}

/// The schedule controller shared by the coordinator and its workers
/// for the duration of an [`explore`] run.
pub struct Controller {
    state: Mutex<CtlState>,
    cvar: Condvar,
}

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Controller>, usize)>> = const { RefCell::new(None) };
}

impl Controller {
    fn lock_state(&self) -> MutexGuard<'_, CtlState> {
        // A panicking participant (a failing schedule under
        // catch_unwind) must not wedge the explorer.
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Blocks until `tid` is granted the token. `st` must already have
    /// `tid` parked.
    fn wait_granted(&self, mut st: MutexGuard<'_, CtlState>, tid: usize, site: Site) {
        self.cvar.notify_all();
        loop {
            if st.maybe_pick() {
                self.cvar.notify_all();
            }
            if st.granted == Some(tid) {
                st.parked.remove(&tid);
                return;
            }
            let (guard, timeout) = self
                .cvar
                .wait_timeout(st, DEADLOCK_TIMEOUT)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            st = guard;
            if timeout.timed_out() {
                panic!(
                    "interleaving explorer deadlock at {site:?}: granted={:?} \
                     live={} pending={} parked={:?}",
                    st.granted, st.live, st.pending, st.parked
                );
            }
        }
    }

    fn yield_at(&self, tid: usize, site: Site) {
        let mut st = self.lock_state();
        debug_assert_eq!(
            st.granted,
            Some(tid),
            "yield from a thread that does not hold the schedule token"
        );
        st.granted = None;
        st.parked.insert(tid);
        self.wait_granted(st, tid, site);
    }

    fn register(&self, tid: usize) {
        let mut st = self.lock_state();
        st.pending -= 1;
        st.live += 1;
        st.parked.insert(tid);
        self.wait_granted(st, tid, Site::Start);
    }

    fn finish(&self, tid: usize) {
        let mut st = self.lock_state();
        if st.granted == Some(tid) {
            st.granted = None;
        }
        st.parked.remove(&tid);
        st.live -= 1;
        st.maybe_pick();
        self.cvar.notify_all();
    }

    /// Announces `n` future participants and returns the first of their
    /// `n` consecutive ids. Call before spawning so no scheduling
    /// decision fires until all of them have registered.
    pub fn expect_workers(&self, n: usize) -> usize {
        let mut st = self.lock_state();
        let base = st.next_tid;
        st.next_tid += n;
        st.pending += n;
        base
    }

    /// Releases the calling participant's token while it blocks outside
    /// the explorer's control (e.g. joining a worker scope). Pair with
    /// [`Controller::resume`].
    pub fn suspend(&self) {
        // PANIC-OK: explorer API misuse by a test harness, never reachable from a query.
        let tid = current_tid().expect("suspend outside an active exploration");
        let mut st = self.lock_state();
        debug_assert_eq!(st.granted, Some(tid));
        st.granted = None;
        st.live -= 1;
        st.maybe_pick();
        self.cvar.notify_all();
    }

    /// Re-enters the exploration after [`Controller::suspend`], blocking
    /// until the token comes back.
    pub fn resume(&self) {
        // PANIC-OK: explorer API misuse by a test harness, never reachable from a query.
        let tid = current_tid().expect("resume outside an active exploration");
        let mut st = self.lock_state();
        st.live += 1;
        st.parked.insert(tid);
        self.wait_granted(st, tid, Site::Start);
    }
}

/// Runs `f` as participant `tid` of `ctl` (an id from
/// [`Controller::expect_workers`]): registers, waits for the first
/// grant, exposes the controller to [`yield_point`] on this thread, and
/// deregisters on the way out even if `f` panics.
pub fn participate<R>(ctl: &Arc<Controller>, tid: usize, f: impl FnOnce() -> R) -> R {
    ctl.register(tid);
    CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(ctl), tid)));
    let out = catch_unwind(AssertUnwindSafe(f));
    CURRENT.with(|c| *c.borrow_mut() = None);
    ctl.finish(tid);
    match out {
        Ok(v) => v,
        Err(payload) => resume_unwind(payload),
    }
}

/// The controller of the exploration this thread participates in, if
/// any. The worker pool uses this to decide whether to run scheduled.
pub fn active() -> Option<Arc<Controller>> {
    CURRENT.with(|c| c.borrow().as_ref().map(|(ctl, _)| Arc::clone(ctl)))
}

fn current_tid() -> Option<usize> {
    CURRENT.with(|c| c.borrow().as_ref().map(|&(_, tid)| tid))
}

/// Offers the scheduler a switch at `site`. No-op unless the calling
/// thread is a participant of an active exploration.
pub fn yield_point(site: Site) {
    let cur = CURRENT.with(|c| c.borrow().clone());
    if let Some((ctl, tid)) = cur {
        ctl.yield_at(tid, site);
    }
}

/// The hook [`explore`] installs into `trac-storage` so change-stream
/// publications become schedule points without a storage→exec
/// dependency.
fn publish_hook() {
    yield_point(Site::Publish);
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// SplitMix64 finalizer: turns (seed + schedule index) into a
/// well-mixed, nonzero xorshift state.
fn mix_seed(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x | 1
}

fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "participant panicked".to_string()
    }
}

/// Explores interleavings of `body` under `strategy`. The calling
/// thread is participant 0 and starts holding the token; `body` spawns
/// further participants via [`Controller::expect_workers`] +
/// [`participate`] (the parallel executor does this automatically for
/// its worker pool whenever an exploration is active). `body` reports a
/// schedule-level assertion failure by returning `Err`; panics inside
/// the schedule are caught and reported the same way. Exploration stops
/// at the first failing schedule.
pub fn explore<F>(strategy: Strategy, mut body: F) -> Report
where
    F: FnMut(&Arc<Controller>) -> Result<(), String>,
{
    trac_storage::set_publish_yield_hook(publish_hook);
    let ctl = Arc::new(Controller {
        state: Mutex::new(CtlState::idle()),
        cvar: Condvar::new(),
    });
    let (random, budget, seed) = match strategy {
        Strategy::Random { seed, schedules } => (true, schedules, seed),
        Strategy::Exhaustive { max_schedules } => (false, max_schedules, 0),
    };
    let mut prefix: Vec<usize> = Vec::new();
    let mut schedules = 0usize;
    let mut failure = None;
    while schedules < budget {
        {
            let mut st = ctl.lock_state();
            *st = CtlState {
                granted: Some(0),
                live: 1,
                prefix: if random { Vec::new() } else { prefix.clone() },
                rng: mix_seed(seed.wrapping_add(schedules as u64)),
                random,
                ..CtlState::idle()
            };
        }
        CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(&ctl), 0)));
        let outcome = catch_unwind(AssertUnwindSafe(|| body(&ctl)));
        CURRENT.with(|c| *c.borrow_mut() = None);
        let decisions = ctl.lock_state().decisions.clone();
        let message = match outcome {
            Ok(Ok(())) => None,
            Ok(Err(msg)) => Some(msg),
            Err(payload) => Some(panic_message(payload)),
        };
        if let Some(message) = message {
            failure = Some(Failure {
                schedule: schedules,
                choices: decisions.iter().map(|&(_, c)| c).collect(),
                message,
            });
            schedules += 1;
            break;
        }
        schedules += 1;
        if !random {
            // Depth-first backtrack: increment the deepest decision
            // that still has an unexplored branch, dropping everything
            // after it.
            let mut next = decisions;
            loop {
                match next.last_mut() {
                    None => break,
                    Some(last) if last.1 + 1 < last.0 => {
                        last.1 += 1;
                        break;
                    }
                    Some(_) => {
                        next.pop();
                    }
                }
            }
            if next.is_empty() {
                break; // tree fully enumerated
            }
            prefix = next.iter().map(|&(_, c)| c).collect();
        }
    }
    Report { schedules, failure }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet as Set;

    /// Two workers each push their id once, with a yield before the
    /// push: exhaustive mode must see both orders and terminate.
    #[test]
    fn exhaustive_enumerates_both_orders_of_two_workers() {
        let mut seen: Set<Vec<usize>> = Set::new();
        let report = explore(Strategy::Exhaustive { max_schedules: 64 }, |ctl| {
            let order = Mutex::new(Vec::new());
            let base = ctl.expect_workers(2);
            std::thread::scope(|s| {
                for w in 0..2 {
                    let ctl = Arc::clone(ctl);
                    let order = &order;
                    s.spawn(move || {
                        participate(&ctl, base + w, || {
                            yield_point(Site::MorselClaim);
                            order.lock().unwrap().push(w);
                        });
                    });
                }
                ctl.suspend();
            });
            ctl.resume();
            seen.insert(order.into_inner().unwrap());
            Ok(())
        });
        assert!(report.is_clean(), "{:?}", report.failure);
        assert!(seen.contains(&vec![0, 1]) && seen.contains(&vec![1, 0]));
        assert!(
            report.schedules >= 2 && report.schedules < 64,
            "DFS should enumerate a small finite tree, ran {}",
            report.schedules
        );
    }

    /// Pins the writer's schedule points. A first heartbeat for a source
    /// yields twice on the publish path: once for the suppressed raw
    /// heartbeat-table insert, once for the semantic `HeartbeatUpsert`.
    /// Interleaving its three segments with a peer's two gives exactly
    /// C(5, 2) = 10 schedules; a lost hook would give 3, and a hook
    /// moved past the suppress check 6.
    #[test]
    fn heartbeat_publish_path_yields_are_schedule_points() {
        use trac_types::{SourceId, Timestamp};
        let report = explore(Strategy::Exhaustive { max_schedules: 64 }, |ctl| {
            let db = trac_storage::Database::new();
            let beat = |w: &trac_storage::WriteTxn| {
                w.heartbeat(&SourceId::new("m1"), Timestamp::from_secs(1))
            };
            let base = ctl.expect_workers(2);
            std::thread::scope(|s| {
                let (ctl_w, db) = (Arc::clone(ctl), &db);
                s.spawn(move || participate(&ctl_w, base, || db.with_write(beat).unwrap()));
                let ctl_p = Arc::clone(ctl);
                s.spawn(move || participate(&ctl_p, base + 1, || yield_point(Site::MorselClaim)));
                ctl.suspend();
            });
            ctl.resume();
            Ok(())
        });
        assert!(report.is_clean(), "{:?}", report.failure);
        assert_eq!(report.schedules, 10);
    }

    /// A schedule-dependent assertion: random exploration finds the
    /// interleaving where worker 1 runs first, and reports a replayable
    /// decision trace.
    #[test]
    fn random_finds_a_schedule_dependent_failure() {
        let report = explore(
            Strategy::Random {
                seed: 7,
                schedules: 32,
            },
            |ctl| {
                let order = Mutex::new(Vec::new());
                let base = ctl.expect_workers(2);
                std::thread::scope(|s| {
                    for w in 0..2 {
                        let ctl = Arc::clone(ctl);
                        let order = &order;
                        s.spawn(move || {
                            participate(&ctl, base + w, || {
                                order.lock().unwrap().push(w);
                            });
                        });
                    }
                    ctl.suspend();
                });
                ctl.resume();
                let order = order.into_inner().unwrap();
                if order == [1, 0] {
                    return Err("worker 1 overtook worker 0".into());
                }
                Ok(())
            },
        );
        let failure = report.failure.expect("the bad order must be reachable");
        assert!(failure.message.contains("overtook"));
        assert!(!failure.choices.is_empty());
    }

    /// The same seed replays the same schedules (byte-identical
    /// decision traces), and yield points outside an exploration no-op.
    #[test]
    fn exploration_is_deterministic_and_yield_is_noop_outside() {
        yield_point(Site::CacheRead); // must not block or panic
        let run = || {
            let mut orders = Vec::new();
            let report = explore(
                Strategy::Random {
                    seed: 42,
                    schedules: 8,
                },
                |ctl| {
                    let order = Mutex::new(Vec::new());
                    let base = ctl.expect_workers(3);
                    std::thread::scope(|s| {
                        for w in 0..3 {
                            let ctl = Arc::clone(ctl);
                            let order = &order;
                            s.spawn(move || {
                                participate(&ctl, base + w, || {
                                    yield_point(Site::MorselClaim);
                                    order.lock().unwrap().push(w);
                                });
                            });
                        }
                        ctl.suspend();
                    });
                    ctl.resume();
                    orders.push(order.into_inner().unwrap());
                    Ok(())
                },
            );
            assert!(report.is_clean());
            orders
        };
        assert_eq!(run(), run(), "same seed must replay the same schedules");
    }
}
