//! The simulated managed runtime ("the JVM") for the POLM2 reproduction.
//!
//! POLM2 is a pair of Java agents plus an offline analyzer: it observes
//! *allocation sites and stack traces*, rewrites *bytecode at load time*, and
//! reacts to *GC cycles*. This crate provides a runtime with exactly those
//! observation and interception points:
//!
//! * [`Program`] — a structured bytecode IR: classes containing methods
//!   containing instructions ([`Instr`]), including allocation sites with
//!   source lines, calls, branches, loops, native hooks, and the NG2C
//!   generation instructions the Instrumenter injects.
//! * [`ClassTransformer`] — the Java-agent analogue: transformers rewrite
//!   [`ClassDef`]s while the [`Loader`] loads them, before execution, exactly
//!   like ASM agents rewrite classfiles at load time.
//! * [`Jvm`] — the facade wiring a [`Heap`], a [`Collector`], the loaded
//!   program, native hooks, mutator threads with real call stacks (frame
//!   roots keep in-flight objects alive across safepoints), a simulated
//!   clock, and the GC event log. Allocation events — the stack trace as a
//!   node of the shared [`TraceTrie`] plus the object's identity hash — are
//!   buffered per thread in columnar [`AllocEventBuffer`]s for the Recorder
//!   to drain ([`Jvm::drain_alloc_batches`]).
//!
//! [`Heap`]: polm2_heap::Heap
//! [`Collector`]: polm2_gc::Collector
//!
//! # Examples
//!
//! Build a two-method program, load it, run it, observe the allocation:
//!
//! ```
//! use polm2_runtime::{Instr, Jvm, MethodDef, ClassDef, Program, RuntimeConfig, SizeSpec};
//!
//! let mut program = Program::new();
//! program.add_class(ClassDef::new("App").with_method(
//!     MethodDef::new("main")
//!         .push(Instr::call("App", "make", 3))
//! ).with_method(
//!     MethodDef::new("make")
//!         .push(Instr::alloc("Buffer", SizeSpec::Fixed(128), 7))
//! ));
//!
//! let mut jvm = Jvm::builder(RuntimeConfig::small()).build(program)?;
//! let thread = jvm.spawn_thread();
//! jvm.invoke(thread, "App", "main")?;
//! assert_eq!(jvm.heap().stats().allocated_objects, 1);
//! # Ok::<(), polm2_runtime::RuntimeError>(())
//! ```

#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

mod clock;
mod config;
mod error;
mod events;
mod hooks;
mod interp;
mod ir;
mod jvm;
mod loader;
mod thread;
mod trie;

pub use clock::SimClock;
pub use config::RuntimeConfig;
pub use error::RuntimeError;
pub use events::{AllocEventBuffer, TraceFrame};
pub use hooks::{HookAction, HookCtx, HookRegistry};
pub use ir::{ClassDef, CodeLoc, CountSpec, Instr, MethodDef, Program, SizeSpec};
pub use jvm::{Jvm, JvmBuilder};
pub use loader::{ClassTransformer, LoadedProgram, Loader, SiteInfo, SiteTable};
pub use thread::MutatorThread;
pub use trie::{TraceNodeId, TraceTrie};
