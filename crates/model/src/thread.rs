//! Shim threads. Inside an exploration, `spawn` creates a *modeled*
//! thread (a real OS thread serialized by the scheduler token) whose
//! interleavings the explorer controls; outside one it is
//! [`std::thread::spawn`].

use std::sync::{Arc, Mutex as StdMutex};

use crate::exec::{current, Ctx};

enum Inner<T> {
    Real(std::thread::JoinHandle<T>),
    Model {
        ctx: Ctx,
        child: usize,
        result: Arc<StdMutex<Option<T>>>,
    },
}

/// Handle on a spawned shim thread.
pub struct JoinHandle<T>(Inner<T>);

impl<T> JoinHandle<T> {
    /// Wait for the thread to finish and take its result. Under
    /// exploration this is a blocking scheduling point (and joins the
    /// child's vector clock: everything the child did happens-before the
    /// join's return).
    pub fn join(self) -> std::thread::Result<T> {
        match self.0 {
            Inner::Real(handle) => handle.join(),
            Inner::Model { ctx, child, result } => {
                if ctx.exec.aborted() {
                    // Execution teardown: the child is unwinding too and
                    // will never store a result; report it as panicked
                    // instead of re-entering the scheduler.
                    return Err(Box::new(
                        "modeled thread aborted during execution teardown".to_string(),
                    ));
                }
                ctx.exec.join_thread(ctx.id, child);
                let value = result
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .take()
                    .expect("modeled thread finished without storing its result");
                Ok(value)
            }
        }
    }
}

/// Spawn a thread. See the module docs for the two behaviors.
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    match current() {
        Some(ctx) if !ctx.exec.aborted() => {
            let result: Arc<StdMutex<Option<T>>> = Arc::new(StdMutex::new(None));
            let slot = Arc::clone(&result);
            let body: Box<dyn FnOnce() + Send> = Box::new(move || {
                let value = f();
                *slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(value);
            });
            let child = ctx.exec.spawn_thread(ctx.id, body);
            JoinHandle(Inner::Model { ctx, child, result })
        }
        _ => JoinHandle(Inner::Real(std::thread::spawn(f))),
    }
}
