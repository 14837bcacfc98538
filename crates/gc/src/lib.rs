//! Garbage collectors for the simulated heap.
//!
//! The paper evaluates three collectors; this crate implements all of them
//! against the [`polm2-heap`] substrate plus the shared cost model that turns
//! collection *work* (bytes traced, copied, promoted, compacted) into
//! simulated stop-the-world pause durations:
//!
//! * [`G1Collector`] — the OpenJDK default: two generations, copying young
//!   collections with a tenuring threshold, incremental mixed collections
//!   that compact fragmented old regions. Middle-lived data is promoted and
//!   compacted en masse — the pathology the paper attacks.
//! * [`Ng2cCollector`] — NG2C (Bruno et al., ISMM '17): a [`G1Collector`]
//!   plus N dynamic generations and the pretenuring API (`new_generation`,
//!   `get_target_gen`, `set_target_gen`, and the `@Gen`-style pretenured
//!   allocation path). Its young, mixed and full collections are G1's, with
//!   mixed and full pauses reclaiming every generation. Objects with similar
//!   lifetimes co-locate, so whole regions die together and the collector
//!   reclaims them without copying.
//! * [`C4Collector`] — Azul's continuously concurrent compacting collector:
//!   sub-10 ms bounded pauses, a read/write-barrier throughput tax on every
//!   mutator operation, and full heap pre-reservation.
//!
//! All three climb one allocation ladder (collect first under pool
//! pressure, try, collect and retry, one emergency collection, then the
//! out-of-memory verdict) and share one young and one full collection
//! routine.
//!
//! [`polm2-heap`]: ../polm2_heap/index.html
//!
//! # Examples
//!
//! ```
//! use polm2_gc::{Collector, G1Collector, GcConfig, AllocRequest, SafepointRoots, ThreadId};
//! use polm2_heap::{Heap, HeapConfig, SiteId};
//!
//! let mut heap = Heap::new(HeapConfig::small());
//! let mut gc = G1Collector::new(GcConfig::default());
//! gc.attach(&mut heap);
//! let class = heap.classes_mut().intern("Row");
//! let req = AllocRequest {
//!     class,
//!     size: 256,
//!     site: SiteId::new(0),
//!     pretenure: false,
//!     thread: ThreadId::new(0),
//! };
//! let outcome = gc.alloc(&mut heap, req, &SafepointRoots::none())?;
//! assert!(heap.object(outcome.object).is_some());
//! # Ok::<(), polm2_gc::GcError>(())
//! ```

#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

mod c4;
mod collector;
mod config;
mod costs;
mod error;
mod events;
mod g1;
mod ng2c;

pub use c4::C4Collector;
pub use collector::{AllocOutcome, AllocRequest, Collector, SafepointRoots, ThreadId};
pub use config::GcConfig;
pub use costs::{CostModel, GcWork};
pub use error::GcError;
pub use events::{GcEvent, GcKind, GcLog, PauseEvent};
pub use g1::G1Collector;
pub use ng2c::Ng2cCollector;
