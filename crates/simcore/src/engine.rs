//! The simulation driver: a virtual clock plus an event queue, executing
//! events against a user-supplied world state.
//!
//! The simulators in this workspace are sequential and deterministic: the
//! engine pops the earliest event, advances the clock to its timestamp, and
//! fires it. Events may schedule further events (invalidation callbacks,
//! retry timers, TTL expiries) through the [`Scheduler`] they receive.
//!
//! The queued payload is a concrete type implementing [`Dispatch`] —
//! typically a small `Copy` enum with one variant per event kind — so
//! scheduling an event allocates nothing and firing one is a plain
//! `match`, not a virtual call. See `webcache::sim`.

use std::marker::PhantomData;

use crate::queue::{EventHandle, EventQueue};
use crate::time::{SimDuration, SimTime};

/// How a queued event payload executes against the world `W`.
pub trait Dispatch<W>: Sized {
    /// Execute the event. `sched.now()` is the instant it fires at;
    /// `sched` may be used to schedule follow-up events.
    fn dispatch(self, world: &mut W, sched: &mut Scheduler<W, Self>);
}

/// The scheduling surface handed to firing events: the current instant and
/// the ability to enqueue or cancel future events. `E` is the queued
/// payload type.
pub struct Scheduler<W, E> {
    now: SimTime,
    queue: EventQueue<E>,
    _world: PhantomData<fn(&mut W)>,
}

impl<W, E> Scheduler<W, E> {
    fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            _world: PhantomData,
        }
    }

    /// The current virtual instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule the payload `event` at the absolute instant `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past — an event cannot rewrite history.
    pub fn schedule_event_at(&mut self, at: SimTime, event: E) -> EventHandle {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={}, at={at}",
            self.now
        );
        self.queue.schedule(at, event)
    }

    /// Schedule the payload `event` to fire `delay` after the current
    /// instant.
    pub fn schedule_event_in(&mut self, delay: SimDuration, event: E) -> EventHandle {
        let at = self.now.saturating_add(delay);
        self.queue.schedule(at, event)
    }

    /// Cancel a pending event. Returns `true` iff it had neither fired nor
    /// been cancelled already (the distinction is exact; see
    /// [`EventQueue::cancel`]).
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        self.queue.cancel(handle)
    }

    /// Whether `handle`'s event is still pending. O(1).
    pub fn is_pending(&self, handle: EventHandle) -> bool {
        self.queue.is_pending(handle)
    }

    /// Number of live pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

/// A complete simulation: world state plus driver.
///
/// ```
/// use simcore::{Dispatch, Scheduler, SimDuration, SimTime, Simulation};
///
/// #[derive(Clone, Copy)]
/// enum Tick {
///     First,
///     Second,
/// }
///
/// impl Dispatch<Vec<u64>> for Tick {
///     fn dispatch(self, log: &mut Vec<u64>, sched: &mut Scheduler<Vec<u64>, Tick>) {
///         log.push(sched.now().as_secs());
///         if let Tick::First = self {
///             sched.schedule_event_in(SimDuration::from_secs(5), Tick::Second);
///         }
///     }
/// }
///
/// let mut sim: Simulation<Vec<u64>, Tick> = Simulation::new(Vec::new());
/// sim.scheduler().schedule_event_at(SimTime::from_secs(10), Tick::First);
/// sim.run_to_completion();
/// assert_eq!(sim.into_world(), vec![10, 15]);
/// ```
pub struct Simulation<W, E> {
    world: W,
    sched: Scheduler<W, E>,
    fired: u64,
}

impl<W, E: Dispatch<W>> Simulation<W, E> {
    /// Wrap `world` in a fresh simulation starting at time zero.
    pub fn new(world: W) -> Self {
        Simulation {
            world,
            sched: Scheduler::new(),
            fired: 0,
        }
    }

    /// The current virtual instant.
    pub fn now(&self) -> SimTime {
        self.sched.now
    }

    /// Total number of events fired so far.
    pub fn events_fired(&self) -> u64 {
        self.fired
    }

    /// Shared access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Exclusive access to the world (for seeding state between runs).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Access the scheduler to seed the initial event set.
    pub fn scheduler(&mut self) -> &mut Scheduler<W, E> {
        &mut self.sched
    }

    /// Fire the single next event, if any. Returns `true` if an event fired.
    pub fn step(&mut self) -> bool {
        match self.sched.queue.pop() {
            Some((at, event)) => {
                debug_assert!(at >= self.sched.now, "event queue violated time order");
                self.sched.now = at;
                event.dispatch(&mut self.world, &mut self.sched);
                self.fired += 1;
                true
            }
            None => false,
        }
    }

    /// Run until the queue is exhausted. Returns the number of events fired.
    pub fn run_to_completion(&mut self) -> u64 {
        let start = self.fired;
        while self.step() {}
        self.fired - start
    }

    /// [`Simulation::run_to_completion`] with an observation hook: after
    /// every dispatched event, `observe` receives the world, the clock,
    /// and the remaining queue depth. The hook runs strictly *between*
    /// events (never during a dispatch), so it can read — and, for
    /// probes stored inside the world, borrow mutably — without ever
    /// racing the event logic. Returns the number of events fired.
    pub fn run_to_completion_observed<F>(&mut self, mut observe: F) -> u64
    where
        F: FnMut(&mut W, SimTime, usize),
    {
        let start = self.fired;
        while self.step() {
            observe(&mut self.world, self.sched.now, self.sched.queue.len());
        }
        self.fired - start
    }

    /// Run until the queue is exhausted or the next event would fire after
    /// `deadline`; the clock is then advanced to `deadline`. Returns the
    /// number of events fired.
    ///
    /// Each iteration makes a single queue probe: `pop_at_or_before`
    /// combines the peek (is the head within the deadline?) and the pop,
    /// instead of probing the head twice per event.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let start = self.fired;
        while let Some((at, event)) = self.sched.queue.pop_at_or_before(deadline) {
            debug_assert!(at >= self.sched.now, "event queue violated time order");
            self.sched.now = at;
            event.dispatch(&mut self.world, &mut self.sched);
            self.fired += 1;
        }
        if self.sched.now < deadline {
            self.sched.now = deadline;
        }
        self.fired - start
    }

    /// Consume the simulation and return the final world state.
    pub fn into_world(self) -> W {
        self.world
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct World {
        log: Vec<(u64, &'static str)>,
    }

    fn at(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// The engine tests' event alphabet.
    #[derive(Clone, Copy)]
    enum Ev {
        /// Log the label at the firing instant.
        Mark(&'static str),
        /// Log the label, then schedule `Mark(then)` `after` seconds on.
        MarkThen(&'static str, u64, &'static str),
        /// Try to schedule an event five seconds in the past.
        Rewind,
    }

    impl Dispatch<World> for Ev {
        fn dispatch(self, world: &mut World, sched: &mut Scheduler<World, Ev>) {
            let now = sched.now();
            match self {
                Ev::Mark(label) => world.log.push((now.as_secs(), label)),
                Ev::MarkThen(label, after, then) => {
                    world.log.push((now.as_secs(), label));
                    sched.schedule_event_in(SimDuration::from_secs(after), Ev::Mark(then));
                }
                Ev::Rewind => {
                    sched.schedule_event_at(SimTime::from_secs(now.as_secs() - 5), Ev::Mark("x"));
                }
            }
        }
    }

    fn sim() -> Simulation<World, Ev> {
        Simulation::new(World::default())
    }

    #[test]
    fn events_fire_in_time_order_with_clock_advancing() {
        let mut sim = sim();
        sim.scheduler().schedule_event_at(at(20), Ev::Mark("b"));
        sim.scheduler().schedule_event_at(at(10), Ev::Mark("a"));
        assert_eq!(sim.run_to_completion(), 2);
        assert_eq!(sim.world().log, vec![(10, "a"), (20, "b")]);
        assert_eq!(sim.now(), at(20));
    }

    #[test]
    fn events_can_schedule_followups() {
        let mut sim = sim();
        sim.scheduler()
            .schedule_event_at(at(5), Ev::MarkThen("first", 7, "second"));
        sim.run_to_completion();
        assert_eq!(sim.world().log, vec![(5, "first"), (12, "second")]);
    }

    #[test]
    fn run_until_stops_at_deadline_and_advances_clock() {
        let mut sim = sim();
        for s in [10u64, 20, 30] {
            sim.scheduler().schedule_event_at(at(s), Ev::Mark("e"));
        }
        assert_eq!(sim.run_until(at(25)), 2);
        assert_eq!(sim.now(), at(25));
        assert_eq!(sim.run_until(at(100)), 1);
        assert_eq!(sim.now(), at(100));
        assert_eq!(sim.events_fired(), 3);
    }

    #[test]
    fn cancellation_prevents_firing() {
        let mut sim = sim();
        let h = sim.scheduler().schedule_event_at(at(10), Ev::Mark("never"));
        assert!(sim.scheduler().cancel(h));
        sim.run_to_completion();
        assert!(sim.world().log.is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut sim = sim();
        sim.scheduler().schedule_event_at(at(10), Ev::Rewind);
        sim.run_to_completion();
    }

    #[test]
    fn typed_enum_events_chain() {
        let mut sim = sim();
        sim.scheduler()
            .schedule_event_at(at(10), Ev::MarkThen("chain", 3, "tail"));
        sim.scheduler().schedule_event_at(at(5), Ev::Mark("head"));
        assert_eq!(sim.run_to_completion(), 3);
        assert_eq!(
            sim.world().log,
            vec![(5, "head"), (10, "chain"), (13, "tail")]
        );
    }

    #[test]
    fn typed_events_can_borrow_non_static_state() {
        // Event payloads carry no `'static` bound: a world borrowing local
        // state is legal. This is what lets simulators share a workload by
        // reference across a sweep instead of cloning it per point.
        struct Borrowing<'a> {
            weights: &'a [u64],
            total: u64,
        }
        #[derive(Clone, Copy)]
        struct Add(usize);
        impl<'a> Dispatch<Borrowing<'a>> for Add {
            fn dispatch(self, world: &mut Borrowing<'a>, _: &mut Scheduler<Borrowing<'a>, Add>) {
                world.total += world.weights[self.0];
            }
        }

        let weights = vec![3, 5, 7];
        let mut sim: Simulation<Borrowing<'_>, Add> = Simulation::new(Borrowing {
            weights: &weights,
            total: 0,
        });
        for i in 0..weights.len() {
            sim.scheduler().schedule_event_at(at(i as u64), Add(i));
        }
        sim.run_to_completion();
        assert_eq!(sim.into_world().total, 15);
    }

    #[test]
    fn same_instant_fifo_holds_across_nesting() {
        let mut sim = sim();
        // `outer1` schedules `nested` for its own instant: it queues
        // behind `outer2`, which was scheduled first.
        sim.scheduler()
            .schedule_event_at(at(10), Ev::MarkThen("outer1", 0, "nested"));
        sim.scheduler()
            .schedule_event_at(at(10), Ev::Mark("outer2"));
        sim.run_to_completion();
        assert_eq!(
            sim.world().log,
            vec![(10, "outer1"), (10, "outer2"), (10, "nested")]
        );
    }
}
