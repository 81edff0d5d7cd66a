//! Wait/notify primitive for simulation tasks.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use crate::executor::{Inner, TaskId};
use crate::time::Cycle;

/// Who caused a wake-up, as reported by the opener.
///
/// The engine treats the origin as an opaque payload delivered verbatim to
/// every waiter the open releases: `label` identifies the producing actor
/// in whatever encoding the upper layer chooses (the cpu crate packs
/// `tid << 32 | core`), and `at` is the cycle the producing event
/// completed. The default origin (`label == 0`) means "unattributed" —
/// exactly what [`Gate::open`] and [`Gate::open_at`] deliver — so
/// dependency-edge capture can distinguish attributed wake-ups without a
/// side channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WakeOrigin {
    /// Opener-defined producer identity; 0 = unattributed.
    pub label: u64,
    /// Cycle at which the producing event completed.
    pub at: Cycle,
}

/// Sentinel for "no slot" in the arena free list.
const NO_SLOT: u32 = u32::MAX;

/// Handle to one waiter slot: index plus the generation the slot had when
/// the waiter parked. A stale handle (the slot was released and recycled,
/// bumping the generation) simply stops matching, which makes release and
/// drop idempotent without any shared ownership.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WaiterKey {
    idx: u32,
    gen: u32,
}

/// What one arena slot currently holds.
enum SlotState {
    /// Recycled: next free slot index (or [`NO_SLOT`]).
    Free { next_free: u32 },
    /// A parked task and the cycle it parked at (for the engine's
    /// gate-wait histogram).
    Parked { task: TaskId, since: Cycle },
    /// Woken; the owning [`Wait`] collects the origin at next poll.
    Woken { origin: WakeOrigin },
}

struct Slot {
    gen: u32,
    state: SlotState,
}

/// Slab arena for waiter slots: slots are recycled through an intrusive
/// free list and identified by generation-tagged indices, so steady-state
/// `wait()`/`open()` traffic never touches the heap (the slot vector and
/// the park-order queue grow to their high-water mark once and are then
/// reused).
struct WaiterArena {
    slots: Vec<Slot>,
    free_head: u32,
}

impl Default for WaiterArena {
    fn default() -> Self {
        WaiterArena {
            slots: Vec::new(),
            free_head: NO_SLOT,
        }
    }
}

impl WaiterArena {
    /// Claims a slot for a parked task, recycling a free one when possible.
    fn park(&mut self, task: TaskId, since: Cycle) -> WaiterKey {
        let state = SlotState::Parked { task, since };
        let idx = if self.free_head != NO_SLOT {
            let idx = self.free_head;
            let slot = &mut self.slots[idx as usize];
            match slot.state {
                SlotState::Free { next_free } => self.free_head = next_free,
                _ => unreachable!("free list points at a live slot"),
            }
            slot.state = state;
            idx
        } else {
            self.slots.push(Slot { gen: 0, state });
            self.slots.len() as u32 - 1
        };
        WaiterKey {
            idx,
            gen: self.slots[idx as usize].gen,
        }
    }

    /// The slot's state, if `key` is still current.
    fn state(&self, key: WaiterKey) -> Option<&SlotState> {
        let slot = &self.slots[key.idx as usize];
        (slot.gen == key.gen).then_some(&slot.state)
    }

    /// Marks a parked slot woken and returns its task plus the cycle it
    /// parked at. Callers pass only keys they just took from the
    /// park-order queue, which holds exactly the currently-parked waiters.
    fn wake(&mut self, key: WaiterKey, origin: WakeOrigin) -> (TaskId, Cycle) {
        let slot = &mut self.slots[key.idx as usize];
        debug_assert_eq!(slot.gen, key.gen, "queue entry went stale");
        match slot.state {
            SlotState::Parked { task, since } => {
                slot.state = SlotState::Woken { origin };
                (task, since)
            }
            _ => unreachable!("queued waiter is not parked"),
        }
    }

    /// Returns the slot to the free list (no-op when `key` is stale).
    fn release(&mut self, key: WaiterKey) {
        let slot = &mut self.slots[key.idx as usize];
        if slot.gen != key.gen {
            return;
        }
        slot.gen = slot.gen.wrapping_add(1);
        slot.state = SlotState::Free {
            next_free: self.free_head,
        };
        self.free_head = key.idx;
    }
}

#[derive(Default)]
struct GateState {
    arena: WaiterArena,
    /// Every task currently parked on this gate, in park order.
    queue: Vec<WaiterKey>,
}

/// A broadcast wait/notify point.
///
/// Tasks park on a gate with [`Gate::wait`]; another task releases all of
/// them with [`Gate::open`] (wake at the current cycle) or
/// [`Gate::open_at`] (wake at a later cycle, e.g. when the store that
/// satisfies a blocked versioned load completes).
///
/// Gates implement the *stall* behaviour of O-structure operations: a blocked
/// `LOAD-VERSION` parks on the gate of its O-structure's address and re-checks
/// its condition each time a `STORE-VERSION` / `UNLOCK-VERSION` to that
/// address opens the gate. Spurious wake-ups are therefore part of the
/// contract — callers must re-check and re-wait in a loop.
#[derive(Clone)]
pub struct Gate {
    engine: Rc<RefCell<Inner>>,
    state: Rc<RefCell<GateState>>,
}

impl Gate {
    pub(crate) fn new(engine: Rc<RefCell<Inner>>) -> Self {
        Gate {
            engine,
            state: Rc::default(),
        }
    }

    /// Parks the calling task until the next [`Gate::open`].
    pub fn wait(&self) -> Wait {
        Wait {
            gate: self.clone(),
            key: None,
        }
    }

    /// Registers the calling task on the gate *immediately* and returns a
    /// future that resolves once the gate opens.
    ///
    /// Unlike [`Gate::wait`] (which registers at first poll), a ticket
    /// taken synchronously right after checking a condition cannot miss a
    /// wake-up that lands before the task actually suspends — the
    /// check-then-park race that blocked versioned operations would
    /// otherwise have while they sleep off their attempt latency.
    pub fn ticket(&self) -> Wait {
        let (task, now) = {
            let engine = self.engine.borrow();
            (engine.current_task(), engine.now())
        };
        let mut st = self.state.borrow_mut();
        let key = st.arena.park(task, now);
        st.queue.push(key);
        Wait {
            gate: self.clone(),
            key: Some(key),
        }
    }

    /// Wakes every task currently parked on this gate at the current cycle.
    pub fn open(&self) {
        let now = self.engine.borrow().now();
        self.open_at(now);
    }

    /// Wakes every task currently parked on this gate at cycle `at`
    /// (clamped to the present).
    pub fn open_at(&self, at: Cycle) {
        self.open_at_from(at, WakeOrigin::default());
    }

    /// [`Gate::open_at`] carrying a [`WakeOrigin`] identifying the
    /// producing actor, which every woken waiter receives from its `Wait`
    /// future, so waiters can record *who* released them.
    pub fn open_at_from(&self, at: Cycle, origin: WakeOrigin) {
        let st = &mut *self.state.borrow_mut();
        if st.queue.is_empty() {
            return;
        }
        let mut engine = self.engine.borrow_mut();
        let eff_at = at.max(engine.now());
        let fanout = st.queue.len() as u64;
        for key in st.queue.drain(..) {
            let (task, since) = st.arena.wake(key, origin);
            engine.record_gate_wait(eff_at.saturating_sub(since));
            engine.schedule(at, task);
        }
        engine.record_wake_fanout(fanout);
    }

    /// Number of tasks currently parked.
    pub fn waiting(&self) -> usize {
        self.state.borrow().queue.len()
    }
}

/// Future returned by [`Gate::wait`] / [`Gate::ticket`]; resolves to the
/// [`WakeOrigin`] of the `open` that released it.
pub struct Wait {
    gate: Gate,
    key: Option<WaiterKey>,
}

impl Future for Wait {
    type Output = WakeOrigin;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<WakeOrigin> {
        let this = self.get_mut();
        match this.key {
            Some(key) => {
                let mut st = this.gate.state.borrow_mut();
                match st.arena.state(key) {
                    Some(&SlotState::Woken { origin }) => {
                        st.arena.release(key);
                        // The slot is recycled; forget the key so Drop
                        // cannot release a future occupant.
                        this.key = None;
                        Poll::Ready(origin)
                    }
                    Some(SlotState::Parked { .. }) => Poll::Pending,
                    _ => unreachable!("waiter slot recycled while the Wait was live"),
                }
            }
            None => {
                let (task, now) = {
                    let engine = this.gate.engine.borrow();
                    (engine.current_task(), engine.now())
                };
                let mut st = this.gate.state.borrow_mut();
                let key = st.arena.park(task, now);
                st.queue.push(key);
                this.key = Some(key);
                Poll::Pending
            }
        }
    }
}

impl Drop for Wait {
    /// Deregisters a waiter that was parked but never woken, and returns
    /// its slot to the arena's free list.
    ///
    /// Without the deregistration, a ticket taken and then abandoned (its
    /// task finished another way, or the whole simulation was torn down
    /// mid-wait) would leave a dead entry in the gate's park queue; the
    /// next `open` would "wake" it — scheduling a spurious event for a
    /// task that is no longer parked here. A woken-but-never-collected
    /// slot only needs releasing; its queue entry was consumed by the
    /// open that woke it.
    fn drop(&mut self) {
        let Some(key) = self.key else { return };
        let mut st = self.gate.state.borrow_mut();
        if matches!(st.arena.state(key), Some(SlotState::Parked { .. })) {
            st.queue.retain(|&k| k != key);
        }
        st.arena.release(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sim;
    use std::cell::Cell;

    #[test]
    fn open_wakes_all_waiters_at_given_time() {
        let sim = Sim::new();
        let h = sim.handle();
        let gate = h.gate();
        let woken = Rc::new(RefCell::new(Vec::new()));
        for id in 0..3u32 {
            let h = sim.handle();
            let gate = gate.clone();
            let woken = Rc::clone(&woken);
            sim.spawn(async move {
                gate.wait().await;
                woken.borrow_mut().push((id, h.now()));
            });
        }
        {
            let h = sim.handle();
            let gate = gate.clone();
            sim.spawn(async move {
                h.sleep(50).await;
                gate.open_at(h.now() + 4);
            });
        }
        assert_eq!(sim.run(), Ok(54));
        assert_eq!(*woken.borrow(), vec![(0, 54), (1, 54), (2, 54)]);
    }

    #[test]
    fn open_with_no_waiters_is_noop() {
        let sim = Sim::new();
        let h = sim.handle();
        let gate = h.gate();
        sim.spawn(async move {
            gate.open();
            assert_eq!(gate.waiting(), 0);
        });
        assert_eq!(sim.run(), Ok(0));
    }

    #[test]
    fn wait_loop_recheck_pattern() {
        // The canonical blocked-versioned-load shape: re-check a condition
        // after every wake until it holds.
        let sim = Sim::new();
        let h = sim.handle();
        let gate = h.gate();
        let value = Rc::new(Cell::new(0u32));
        {
            let h = sim.handle();
            let gate = gate.clone();
            let value = Rc::clone(&value);
            sim.spawn(async move {
                while value.get() < 3 {
                    gate.wait().await;
                }
                assert_eq!(h.now(), 30);
            });
        }
        {
            let h = sim.handle();
            let gate = gate.clone();
            let value = Rc::clone(&value);
            sim.spawn(async move {
                for _ in 0..3 {
                    h.sleep(10).await;
                    value.set(value.get() + 1);
                    gate.open();
                }
            });
        }
        assert_eq!(sim.run(), Ok(30));
    }

    #[test]
    fn ticket_taken_before_open_survives_a_sleep() {
        // The lost-wakeup regression: check state, take a ticket, sleep,
        // then await the ticket. An open() landing during the sleep must
        // still wake the waiter.
        let sim = Sim::new();
        let h = sim.handle();
        let gate = h.gate();
        {
            let gate = gate.clone();
            let h = h.clone();
            sim.spawn(async move {
                let ticket = gate.ticket();
                h.sleep(100).await; // opener fires at t=10, mid-sleep
                ticket.await;
                assert_eq!(h.now(), 100);
            });
        }
        {
            let gate = gate.clone();
            let h = h.clone();
            sim.spawn(async move {
                h.sleep(10).await;
                gate.open();
            });
        }
        assert_eq!(sim.run(), Ok(100));
    }

    #[test]
    fn wake_origins_reach_waiters() {
        let sim = Sim::new();
        let h = sim.handle();
        let gate = h.gate();
        let got = Rc::new(RefCell::new(Vec::new()));
        {
            let gate = gate.clone();
            let got = Rc::clone(&got);
            sim.spawn(async move {
                let first = gate.wait().await;
                got.borrow_mut().push((0u32, first));
                // Parked after the attributed open: released by the
                // plain one, which carries no origin.
                let second = gate.wait().await;
                got.borrow_mut().push((0, second));
            });
        }
        {
            let gate = gate.clone();
            let got = Rc::clone(&got);
            sim.spawn(async move {
                let origin = gate.ticket().await;
                got.borrow_mut().push((1, origin));
            });
        }
        let origin = WakeOrigin {
            label: 0xabcd,
            at: 3,
        };
        {
            let gate = gate.clone();
            let h = h.clone();
            sim.spawn(async move {
                h.sleep(4).await;
                gate.open_at_from(h.now(), origin);
                h.sleep(1).await;
                gate.open();
            });
        }
        assert_eq!(sim.run(), Ok(5));
        // Both waiters receive the opener's origin, in park order.
        assert_eq!(
            *got.borrow(),
            vec![(0, origin), (1, origin), (0, WakeOrigin::default())]
        );
    }

    #[test]
    fn dropped_ticket_leaves_no_waiter_behind() {
        let sim = Sim::new();
        let h = sim.handle();
        let gate = h.gate();
        {
            let gate = gate.clone();
            let h = h.clone();
            sim.spawn(async move {
                let ticket = gate.ticket();
                assert_eq!(gate.waiting(), 1);
                drop(ticket); // abandoned without being awaited
                assert_eq!(gate.waiting(), 0, "dropped ticket must deregister");
                h.sleep(1).await;
            });
        }
        {
            let gate = gate.clone();
            let h = h.clone();
            sim.spawn(async move {
                h.sleep(2).await;
                gate.open(); // nothing left to wake
                assert_eq!(gate.waiting(), 0);
            });
        }
        assert!(sim.run().is_ok());
    }

    #[test]
    fn woken_ticket_drop_does_not_disturb_other_waiters() {
        // A ticket that was woken and then dropped (after resolving) must
        // not remove a *different* waiter's slot.
        let sim = Sim::new();
        let h = sim.handle();
        let gate = h.gate();
        let woken = Rc::new(Cell::new(0u32));
        for _ in 0..2 {
            let gate = gate.clone();
            let woken = Rc::clone(&woken);
            sim.spawn(async move {
                gate.ticket().await;
                woken.set(woken.get() + 1);
            });
        }
        {
            let gate = gate.clone();
            let h = h.clone();
            sim.spawn(async move {
                h.sleep(1).await;
                gate.open();
            });
        }
        assert!(sim.run().is_ok());
        assert_eq!(woken.get(), 2);
    }

    #[test]
    fn waiters_parked_after_open_are_not_woken_by_it() {
        let sim = Sim::new();
        let h = sim.handle();
        let gate = h.gate();
        {
            let gate = gate.clone();
            let h = h.clone();
            sim.spawn(async move {
                h.sleep(5).await;
                gate.open();
            });
        }
        {
            let gate = gate.clone();
            let h = h.clone();
            sim.spawn(async move {
                h.sleep(10).await;
                h.set_wait_info(crate::WaitInfo {
                    label: 42,
                    resource: 0xbeef,
                    target: 7,
                    kind: "missing-version",
                    holder: None,
                });
                gate.wait().await; // parked after the only open() — deadlock
            });
        }
        let err = sim.run().unwrap_err();
        let crate::RunError::Deadlock { now, blocked } = &err else {
            panic!("expected deadlock, got {err:?}");
        };
        assert_eq!(*now, 10);
        assert_eq!(blocked.len(), 1);
        assert_eq!(blocked[0].task, 1);
        assert_eq!(blocked[0].since, Some(10));
        let info = blocked[0].info.as_ref().expect("wait record registered");
        assert_eq!(info.label, 42);
        assert_eq!(info.resource, 0xbeef);
        assert_eq!(info.target, 7);
        assert_eq!(info.kind, "missing-version");
        assert_eq!(info.holder, None);
        // The Display form names the wait target, not just a count.
        let msg = err.to_string();
        assert!(msg.contains("task 42"), "{msg}");
        assert!(msg.contains("version 7"), "{msg}");
    }
}
