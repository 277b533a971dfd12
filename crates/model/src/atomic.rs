//! Shim atomics. Inside an exploration every operation is a scheduling
//! point and the supplied [`Ordering`] is *honored by the model*: relaxed
//! and acquire loads may observe stale values from the modification
//! order (within their vector-clock visibility window), acquire loads of
//! release stores synchronize-with them, and `SeqCst` reads the newest
//! store. Outside an exploration the shims delegate to the real `std`
//! atomics verbatim.
//!
//! Model writes are written through to the real atomic (the exploration
//! is serialized, so plain `SeqCst` write-through is race-free); the real
//! cell therefore always holds the newest modification-order value, which
//! doubles as the registration snapshot for objects living in `static`s
//! across executions.
//!
//! Every operation falls back to the real atomic when the execution has
//! already been torn down (`Execution::aborted`) so destructors running
//! during the `ExecAbort` unwind never re-enter the scheduler.

pub use std::sync::atomic::Ordering;

use crate::exec::{current, ObjInit, ObjRef};

macro_rules! model_atomic_int {
    ($(#[$doc:meta])* $name:ident, $real:ty, $prim:ty) => {
        $(#[$doc])*
        #[derive(Debug, Default)]
        pub struct $name {
            obj: ObjRef,
            real: $real,
        }

        impl $name {
            pub const fn new(value: $prim) -> Self {
                $name { obj: ObjRef::new(), real: <$real>::new(value) }
            }

            fn resolve(&self, ctx: &crate::exec::Ctx) -> usize {
                self.obj.resolve(ctx, || ObjInit::Atomic(self.real.load(Ordering::SeqCst) as u64))
            }

            pub fn load(&self, ord: Ordering) -> $prim {
                match current() {
                    Some(ctx) if !ctx.exec.aborted() => {
                        let obj = self.resolve(&ctx);
                        ctx.exec.atomic_load(ctx.id, obj, ord) as $prim
                    }
                    _ => self.real.load(ord),
                }
            }

            pub fn store(&self, value: $prim, ord: Ordering) {
                match current() {
                    Some(ctx) if !ctx.exec.aborted() => {
                        let obj = self.resolve(&ctx);
                        ctx.exec.atomic_store(ctx.id, obj, ord, value as u64);
                        self.real.store(value, Ordering::SeqCst);
                    }
                    _ => self.real.store(value, ord),
                }
            }

            pub fn swap(&self, value: $prim, ord: Ordering) -> $prim {
                match current() {
                    Some(ctx) if !ctx.exec.aborted() => {
                        let obj = self.resolve(&ctx);
                        let (old, new) =
                            ctx.exec.atomic_rmw(ctx.id, obj, ord, |_| value as u64, "swap");
                        self.real.store(new as $prim, Ordering::SeqCst);
                        old as $prim
                    }
                    _ => self.real.swap(value, ord),
                }
            }

            pub fn fetch_add(&self, value: $prim, ord: Ordering) -> $prim {
                match current() {
                    Some(ctx) if !ctx.exec.aborted() => {
                        let obj = self.resolve(&ctx);
                        let (old, new) = ctx.exec.atomic_rmw(
                            ctx.id,
                            obj,
                            ord,
                            |v| (v as $prim).wrapping_add(value) as u64,
                            "fetch_add",
                        );
                        self.real.store(new as $prim, Ordering::SeqCst);
                        old as $prim
                    }
                    _ => self.real.fetch_add(value, ord),
                }
            }

            pub fn fetch_sub(&self, value: $prim, ord: Ordering) -> $prim {
                match current() {
                    Some(ctx) if !ctx.exec.aborted() => {
                        let obj = self.resolve(&ctx);
                        let (old, new) = ctx.exec.atomic_rmw(
                            ctx.id,
                            obj,
                            ord,
                            |v| (v as $prim).wrapping_sub(value) as u64,
                            "fetch_sub",
                        );
                        self.real.store(new as $prim, Ordering::SeqCst);
                        old as $prim
                    }
                    _ => self.real.fetch_sub(value, ord),
                }
            }

            pub fn fetch_max(&self, value: $prim, ord: Ordering) -> $prim {
                match current() {
                    Some(ctx) if !ctx.exec.aborted() => {
                        let obj = self.resolve(&ctx);
                        let (old, new) = ctx.exec.atomic_rmw(
                            ctx.id,
                            obj,
                            ord,
                            |v| (v as $prim).max(value) as u64,
                            "fetch_max",
                        );
                        self.real.store(new as $prim, Ordering::SeqCst);
                        old as $prim
                    }
                    _ => self.real.fetch_max(value, ord),
                }
            }
        }
    };
}

model_atomic_int!(
    /// Shim for [`std::sync::atomic::AtomicUsize`].
    AtomicUsize,
    std::sync::atomic::AtomicUsize,
    usize
);
model_atomic_int!(
    /// Shim for [`std::sync::atomic::AtomicU64`].
    AtomicU64,
    std::sync::atomic::AtomicU64,
    u64
);

/// Shim for [`std::sync::atomic::AtomicBool`].
#[derive(Debug, Default)]
pub struct AtomicBool {
    obj: ObjRef,
    real: std::sync::atomic::AtomicBool,
}

impl AtomicBool {
    pub const fn new(value: bool) -> Self {
        AtomicBool { obj: ObjRef::new(), real: std::sync::atomic::AtomicBool::new(value) }
    }

    fn resolve(&self, ctx: &crate::exec::Ctx) -> usize {
        self.obj.resolve(ctx, || ObjInit::Atomic(self.real.load(Ordering::SeqCst) as u64))
    }

    pub fn load(&self, ord: Ordering) -> bool {
        match current() {
            Some(ctx) if !ctx.exec.aborted() => {
                let obj = self.resolve(&ctx);
                ctx.exec.atomic_load(ctx.id, obj, ord) != 0
            }
            _ => self.real.load(ord),
        }
    }

    pub fn store(&self, value: bool, ord: Ordering) {
        match current() {
            Some(ctx) if !ctx.exec.aborted() => {
                let obj = self.resolve(&ctx);
                ctx.exec.atomic_store(ctx.id, obj, ord, value as u64);
                self.real.store(value, Ordering::SeqCst);
            }
            _ => self.real.store(value, ord),
        }
    }

    pub fn swap(&self, value: bool, ord: Ordering) -> bool {
        match current() {
            Some(ctx) if !ctx.exec.aborted() => {
                let obj = self.resolve(&ctx);
                let (old, new) = ctx.exec.atomic_rmw(ctx.id, obj, ord, |_| value as u64, "swap");
                self.real.store(new != 0, Ordering::SeqCst);
                old != 0
            }
            _ => self.real.swap(value, ord),
        }
    }
}
