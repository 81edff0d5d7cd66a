//! The software task scheduler (§IV-A).
//!
//! The paper's runtime divides sequential code into tasks and assigns them
//! to cores statically ("a static assignment of tasks to cores. This policy
//! imposes a minimal runtime overhead, but neglects load imbalance"). Task
//! ids reflect sequential program order, which is what makes versions
//! reflect program order (garbage-collection rule 1).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;

use osim_engine::Sim;

use crate::ctx::TaskCtx;
use crate::machine::MachineState;

/// A boxed task body.
pub type TaskFuture = Pin<Box<dyn Future<Output = ()>>>;

/// A task: a closure from its execution context to its body.
pub type TaskFn = Box<dyn FnOnce(TaskCtx) -> TaskFuture>;

/// Wraps an async closure as a [`TaskFn`].
///
/// ```ignore
/// let t = task(|ctx| async move { ctx.work(10).await; });
/// ```
pub fn task<F, Fut>(f: F) -> TaskFn
where
    F: FnOnce(TaskCtx) -> Fut + 'static,
    Fut: Future<Output = ()> + 'static,
{
    Box::new(move |ctx| Box::pin(f(ctx)))
}

/// Spawns one driver per core onto `sim`. Task `i` (zero-based) gets id
/// `first_tid + i` and runs on core `i % cores`; each driver executes its
/// tasks in order, bracketing them with `TASK-BEGIN`/`TASK-END`.
///
/// Each core's first task begins here, in id order, before any driver
/// runs: a driver's first poll happens at the phase's start cycle, and a
/// shake seed may order those polls any way, so a lazy first begin could
/// start task `k+1` while task `k` has not begun (GC rule 3).
pub(crate) fn spawn_static(
    sim: &Sim,
    st: Rc<RefCell<MachineState>>,
    cores: usize,
    first_tid: u32,
    tasks: Vec<TaskFn>,
) {
    let mut queues: Vec<VecDeque<(u32, TaskFn)>> = (0..cores).map(|_| VecDeque::new()).collect();
    for (i, t) in tasks.into_iter().enumerate() {
        queues[i % cores].push_back((first_tid + i as u32, t));
    }
    for (core, mut queue) in queues.into_iter().enumerate() {
        let Some((tid, mut body)) = queue.pop_front() else {
            continue;
        };
        let handle = sim.handle();
        let mut ctx = TaskCtx::new(core, tid, Rc::clone(&st), handle.clone());
        ctx.task_begin();
        let st = Rc::clone(&st);
        sim.spawn(async move {
            // `TASK-END` of task k is issued *after* `TASK-BEGIN` of task
            // k+P on the same core. Per-core queues run in ascending id
            // order, so every queued task is protected by a still-active
            // lower-id task: the collector's active window can never slide
            // past a task that has not begun (GC rule 3 at creation
            // granularity), yet it does slide forward as cores retire
            // tasks, enabling on-the-fly collection phases.
            loop {
                let began = handle.now();
                body(ctx.clone()).await;
                let quantum = handle.now() - began;
                st.borrow_mut().hist_run_quantum.record(quantum);
                let Some((tid, next)) = queue.pop_front() else {
                    break;
                };
                let next_ctx = TaskCtx::new(core, tid, Rc::clone(&st), handle.clone());
                next_ctx.task_begin();
                ctx.task_end();
                (ctx, body) = (next_ctx, next);
            }
            ctx.task_end();
        });
    }
}
