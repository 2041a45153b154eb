//! # tm — the STAMP transactional-memory engine
//!
//! This crate models the six transactional-memory system designs that the
//! STAMP paper (Cao Minh et al., *STAMP: Stanford Transactional
//! Applications for Multi-Processing*, IISWC 2008) evaluates in §IV:
//!
//! * **Lazy HTM** — TCC-style: lazy versioning in cache, commit-time
//!   line-granularity conflict detection via coherence, overflow
//!   serializes execution, immediate restart.
//! * **Eager HTM** — LogTM-style: undo-log versioning, encounter-time
//!   detection, requester loses, priority promotion after 32 aborts,
//!   overflow into a Bloom-filter signature (false conflicts possible).
//! * **Lazy STM** — TL2: redo write buffer, commit-time locking,
//!   word-granularity detection, randomized linear backoff.
//! * **Eager STM** — TL2 variant with undo log and encounter-time
//!   locking.
//! * **Lazy / Eager Hybrid** — SigTM-style: software versioning with
//!   2048-bit hardware-signature conflict detection and strong isolation.
//!
//! Because the paper's numbers come from an execution-driven simulator
//! (Table V), the engine always runs as a *time-ordered simulation*: the
//! logical threads of a run are real OS threads whose interleaving is
//! constrained to simulated-time order by the turn scheduler
//! ([`sched`], the one place a thread blocks), and every barrier, memory
//! access, and unit of application work advances a per-thread cycle
//! clock using the Table V cost model. Reported times are simulated
//! cycles, so speedup curves over 1–16 logical processors are
//! meaningful on any host.
//!
//! ## Quick example
//!
//! ```
//! use tm::{SystemKind, TmConfig, TmRuntime};
//!
//! // A shared counter incremented transactionally by 4 threads.
//! let rt = TmRuntime::new(TmConfig::new(SystemKind::LazyStm, 4));
//! let counter = rt.heap().alloc_cell(0u64);
//! let report = rt.run(|ctx| {
//!     for _ in 0..100 {
//!         ctx.atomic(|txn| {
//!             let v = txn.read(&counter)?;
//!             txn.write(&counter, v + 1)
//!         });
//!     }
//! });
//! assert_eq!(rt.heap().load_cell(&counter), 400);
//! assert_eq!(report.stats.commits, 400);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod addr;
pub mod cache;
pub mod cm;
pub mod config;
pub mod directory;
pub mod fault;
pub mod fxhash;
pub mod heap;
pub mod locks;
pub mod prof;
pub mod runtime;
pub mod sched;
pub mod signature;
pub mod sim;
pub mod stats;
pub mod trace;
pub mod txn;
pub mod verify;

pub use addr::{LineAddr, WordAddr, LINE_BYTES, WORDS_PER_LINE, WORD_BYTES};
pub use cm::{AbortAction, CmCtx, CmPolicy, CmShared, ContentionManager};
pub use config::{
    CacheGeometry, CostModel, Granularity, HtmConflictPolicy, MutationHook, SystemKind, TmConfig,
};
pub use fault::{FaultConfig, FaultKind, SplitMix64, WatchdogConfig};
pub use heap::{TArray, TCell, TmHeap, TmValue};
pub use prof::{ConflictPair, HotLine, ProfBucket, ProfReport, ProfThreadReport, PROF_BUCKETS};
pub use runtime::{RunReport, ThreadCtx, TmRuntime};
pub use sched::{SchedMode, Scheduler, DEFAULT_PCT_GAP, DEFAULT_SCHED_SEED};
pub use sim::XorShift64;
pub use stats::{RunStats, TxnRecord, VerifyCost};
pub use trace::TraceLevel;
pub use txn::{Abort, TxResult, Txn};
pub use verify::{VerifyReport, Violation};
