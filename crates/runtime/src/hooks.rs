//! Native hooks: workload semantics behind the IR.
//!
//! An interpreted program handles *allocation structure* (who allocates what,
//! where, through which call path); what the objects then *mean* — inserted
//! into a memtable, linked into an index, flushed, evicted — is workload
//! logic implemented as Rust closures registered here. Hooks get mutable
//! access to the heap's reference graph and root table plus a typed workload
//! state, so object lifetimes are driven by real data-structure dynamics.

use std::any::Any;
use std::collections::HashMap;
use std::fmt;

use polm2_gc::ThreadId;
use polm2_heap::{Heap, ObjectId};
use polm2_metrics::SimTime;

use crate::loader::HookNames;
use crate::RuntimeError;

/// Everything a hook may touch.
pub struct HookCtx<'a> {
    /// The heap: reference graph, root table, object queries.
    pub heap: &'a mut Heap,
    /// The executing thread.
    pub thread: ThreadId,
    /// The current frame's accumulator (most recent allocation or callee
    /// result). Hooks may read it (to link the object somewhere) or replace
    /// it (to "return" a looked-up object).
    pub acc: &'a mut Option<ObjectId>,
    /// Workload-defined state; downcast with [`HookCtx::state`].
    pub raw_state: &'a mut dyn Any,
    /// The current simulated time.
    pub now: SimTime,
}

impl fmt::Debug for HookCtx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HookCtx")
            .field("thread", &self.thread)
            .field("acc", &self.acc)
            .field("now", &self.now)
            .finish_non_exhaustive()
    }
}

impl HookCtx<'_> {
    /// Downcasts the workload state.
    ///
    /// # Panics
    ///
    /// Panics if the state is not a `S` — a wiring bug, not a runtime
    /// condition.
    pub fn state<S: 'static>(&mut self) -> &mut S {
        self.raw_state
            .downcast_mut::<S>()
            .expect("workload state has unexpected type")
    }
}

/// An action hook's effect on the interpreter, all fields optional.
#[derive(Debug, Clone, Copy, Default)]
pub struct HookAction {
    /// Extra mutator time to charge (models I/O or computation the workload
    /// performs besides allocation).
    pub cost: Option<polm2_metrics::SimDuration>,
}

type HookFn<R> = Box<dyn FnMut(&mut HookCtx<'_>) -> R>;

/// Registry of named hooks, by kind.
///
/// * **action** hooks run for [`Instr::Native`];
/// * **cond** hooks decide [`Instr::Branch`];
/// * **size** hooks compute [`SizeSpec::Hook`] allocation sizes;
/// * **count** hooks compute [`CountSpec::Hook`] trip counts.
///
/// Names are looked up once, when a [`JvmBuilder`](crate::JvmBuilder)
/// builds: it binds each hook name the loaded program uses to an index, and
/// the interpreter calls hooks by index from then on.
///
/// [`Instr::Native`]: crate::Instr::Native
/// [`Instr::Branch`]: crate::Instr::Branch
/// [`SizeSpec::Hook`]: crate::SizeSpec::Hook
/// [`CountSpec::Hook`]: crate::CountSpec::Hook
#[derive(Default)]
pub struct HookRegistry {
    actions: HashMap<String, HookFn<HookAction>>,
    conds: HashMap<String, HookFn<bool>>,
    sizes: HashMap<String, HookFn<u32>>,
    counts: HashMap<String, HookFn<u32>>,
}

impl fmt::Debug for HookRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names: Vec<&str> = self.actions.keys().map(String::as_str).collect();
        names.sort_unstable();
        f.debug_struct("HookRegistry")
            .field("actions", &names)
            .field("conds", &self.conds.len())
            .field("sizes", &self.sizes.len())
            .field("counts", &self.counts.len())
            .finish()
    }
}

impl HookRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        HookRegistry::default()
    }

    /// Registers an action hook (replaces any previous one of that name).
    pub fn register_action(
        &mut self,
        name: impl Into<String>,
        hook: impl FnMut(&mut HookCtx<'_>) -> HookAction + 'static,
    ) {
        self.actions.insert(name.into(), Box::new(hook));
    }

    /// Registers a condition hook (replaces any previous one of that name).
    pub fn register_cond(
        &mut self,
        name: impl Into<String>,
        hook: impl FnMut(&mut HookCtx<'_>) -> bool + 'static,
    ) {
        self.conds.insert(name.into(), Box::new(hook));
    }

    /// Registers a size hook (replaces any previous one of that name).
    pub fn register_size(
        &mut self,
        name: impl Into<String>,
        hook: impl FnMut(&mut HookCtx<'_>) -> u32 + 'static,
    ) {
        self.sizes.insert(name.into(), Box::new(hook));
    }

    /// Registers a count hook (replaces any previous one of that name).
    pub fn register_count(
        &mut self,
        name: impl Into<String>,
        hook: impl FnMut(&mut HookCtx<'_>) -> u32 + 'static,
    ) {
        self.counts.insert(name.into(), Box::new(hook));
    }

    /// Binds the hooks `names` uses into index-addressed tables; hooks the
    /// program never names are dropped.
    pub(crate) fn bind(mut self, names: &HookNames) -> BoundHooks {
        BoundHooks {
            actions: HookTable::bind(&mut self.actions, &names.actions),
            conds: HookTable::bind(&mut self.conds, &names.conds),
            sizes: HookTable::bind(&mut self.sizes, &names.sizes),
            counts: HookTable::bind(&mut self.counts, &names.counts),
        }
    }
}

/// The hooks of one kind, indexed by the loader's hook ids. An id nobody
/// registered keeps its name, for the error raised if it ever runs.
pub(crate) struct HookTable<R>(Vec<Result<HookFn<R>, String>>);

impl<R> HookTable<R> {
    fn bind(registered: &mut HashMap<String, HookFn<R>>, names: &[String]) -> Self {
        HookTable(
            names
                .iter()
                .map(|name| registered.remove(name).ok_or_else(|| name.clone()))
                .collect(),
        )
    }

    /// Runs hook `id`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnknownHook`] if no hook of this kind was registered
    /// under the id's name.
    pub(crate) fn call(&mut self, id: u16, ctx: &mut HookCtx<'_>) -> Result<R, RuntimeError> {
        match &mut self.0[id as usize] {
            Ok(hook) => Ok(hook(ctx)),
            Err(name) => Err(RuntimeError::UnknownHook { hook: name.clone() }),
        }
    }
}

/// A [`HookRegistry`] bound to one loaded program.
pub(crate) struct BoundHooks {
    pub(crate) actions: HookTable<HookAction>,
    pub(crate) conds: HookTable<bool>,
    pub(crate) sizes: HookTable<u32>,
    pub(crate) counts: HookTable<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use polm2_heap::HeapConfig;

    /// What a hook context borrows; the workload state is a `u32` at 7.
    struct Parts {
        heap: Heap,
        acc: Option<ObjectId>,
        state: u32,
    }

    impl Parts {
        fn new() -> Self {
            Parts {
                heap: Heap::new(HeapConfig::small()),
                acc: None,
                state: 7,
            }
        }

        fn ctx(&mut self) -> HookCtx<'_> {
            HookCtx {
                heap: &mut self.heap,
                thread: ThreadId::new(0),
                acc: &mut self.acc,
                raw_state: &mut self.state,
                now: SimTime::ZERO,
            }
        }
    }

    fn names(actions: &[&str], conds: &[&str], sizes: &[&str], counts: &[&str]) -> HookNames {
        let owned = |v: &[&str]| v.iter().map(|s| s.to_string()).collect();
        HookNames {
            actions: owned(actions),
            conds: owned(conds),
            sizes: owned(sizes),
            counts: owned(counts),
        }
    }

    #[test]
    fn hooks_round_trip_through_the_bound_table() {
        let mut reg = HookRegistry::new();
        reg.register_action("bump", |ctx| {
            *ctx.state::<u32>() += 1;
            HookAction::default()
        });
        reg.register_cond("is_big", |ctx| *ctx.state::<u32>() > 5);
        reg.register_size("sz", |ctx| *ctx.state::<u32>() * 2);
        reg.register_count("n", |_| 3);
        let mut bound = reg.bind(&names(&["bump"], &["is_big"], &["sz"], &["n"]));

        let mut parts = Parts::new();
        let mut ctx = parts.ctx();
        bound.actions.call(0, &mut ctx).unwrap();
        assert!(bound.conds.call(0, &mut ctx).unwrap());
        assert_eq!(bound.sizes.call(0, &mut ctx).unwrap(), 16);
        assert_eq!(bound.counts.call(0, &mut ctx).unwrap(), 3);
        assert_eq!(parts.state, 8);
    }

    #[test]
    fn unbound_ids_error_with_their_name() {
        let mut reg = HookRegistry::new();
        // Registered, but as the wrong kind: binding is per kind.
        reg.register_cond("missing", |_| true);
        let mut bound = reg.bind(&names(&["missing"], &["c"], &["s"], &["n"]));
        let mut parts = Parts::new();
        let mut ctx = parts.ctx();
        assert_eq!(
            bound.actions.call(0, &mut ctx).unwrap_err(),
            RuntimeError::UnknownHook {
                hook: "missing".into()
            }
        );
        assert!(bound.conds.call(0, &mut ctx).is_err());
        assert!(bound.sizes.call(0, &mut ctx).is_err());
        assert!(bound.counts.call(0, &mut ctx).is_err());
    }

    #[test]
    fn ids_follow_the_name_table_not_registration_order() {
        let mut reg = HookRegistry::new();
        reg.register_size("a", |_| 1);
        reg.register_size("b", |_| 2);
        let mut bound = reg.bind(&names(&[], &[], &["b", "a"], &[]));
        let mut parts = Parts::new();
        assert_eq!(bound.sizes.call(0, &mut parts.ctx()).unwrap(), 2);
        assert_eq!(bound.sizes.call(1, &mut parts.ctx()).unwrap(), 1);
    }

    #[test]
    fn re_registering_a_name_replaces_the_hook() {
        let mut reg = HookRegistry::new();
        reg.register_action("bump", |ctx| {
            *ctx.state::<u32>() += 1;
            HookAction::default()
        });
        reg.register_action("bump", |ctx| {
            *ctx.state::<u32>() += 100;
            HookAction::default()
        });
        reg.register_count("n", |_| 1);
        reg.register_count("n", |_| 2);
        let mut bound = reg.bind(&names(&["bump"], &[], &[], &["n"]));
        let mut parts = Parts::new();
        bound.actions.call(0, &mut parts.ctx()).unwrap();
        assert_eq!(bound.counts.call(0, &mut parts.ctx()).unwrap(), 2);
        assert_eq!(parts.state, 107, "only the later registration runs");
    }

    #[test]
    fn hooks_can_manipulate_the_heap_and_acc() {
        let mut parts = Parts::new();
        let class = parts.heap.classes_mut().intern("T");
        let obj = parts
            .heap
            .allocate(class, 64, polm2_heap::SiteId::new(0), Heap::YOUNG_SPACE)
            .unwrap();
        parts.acc = Some(obj);
        let mut reg = HookRegistry::new();
        reg.register_action("park", |ctx| {
            let obj = ctx.acc.expect("acc set");
            let slot = ctx.heap.roots_mut().create_slot("parked");
            ctx.heap.roots_mut().push(slot, obj);
            *ctx.acc = None;
            HookAction::default()
        });
        let mut bound = reg.bind(&names(&["park"], &[], &[], &[]));
        bound.actions.call(0, &mut parts.ctx()).unwrap();
        assert!(parts.acc.is_none());
        assert_eq!(parts.heap.roots().root_count(), 1);
    }

    #[test]
    #[should_panic(expected = "unexpected type")]
    fn wrong_state_type_panics() {
        let mut parts = Parts::new();
        let _: &mut String = parts.ctx().state::<String>();
    }
}
