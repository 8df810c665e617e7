//! P-Cube: the signature measure and the signature-guided preference query
//! processor (Xin & Han, ICDE 2008).
//!
//! A **signature** summarizes, for one cube cell (a boolean selection such as
//! `A = a1`), which parts of a shared R-tree partition contain tuples of that
//! cell: one bit per node slot, mirroring the R-tree's topology (§IV-B). The
//! **P-Cube** materializes signatures for a set of cuboids (by default the
//! atomic, one-dimensional ones), compressed per node and decomposed into
//! page-sized *partial signatures* indexed by `(cell id, subtree-root SID)`.
//!
//! At query time, Algorithm 1 runs a branch-and-bound search over the R-tree
//! that pushes **both** prunings into the traversal:
//!
//! * *preference pruning* — dominance against discovered skylines, or ranking
//!   lower bounds against the current top-k;
//! * *boolean pruning* — a node or tuple whose signature bit is 0 cannot
//!   contribute to the selection, so its subtree is skipped without touching
//!   the R-tree or the base table.
//!
//! The crate is organized as the paper's §IV–V:
//!
//! | module | paper | contents |
//! |---|---|---|
//! | [`signature`] | IV-B.1 | [`Signature`]: generation, union, intersection; [`NodeTable`], the one in-memory form of node bits |
//! | [`encode`] | IV-B.1 | node-level compression + page-sized decomposition |
//! | [`store`] | IV-B.2 | on-disk partial signatures, lazy [`SignatureCursor`], the probe ([`BooleanProbe`]: one cursor per conjunct, loaded lazily or all up front) |
//! | [`pcube`] | IV, IV-B.3 | [`PCube`] build + incremental maintenance, [`PCubeDb`] |
//! | [`rank`] | III, V-B | ranking functions with MBR lower bounds |
//! | [`query`] | V, VII | Algorithm 1 once, one driver around it (a serial run is a fan-out of one worker; [`ParallelOptions`] carries workers, budget and cancel), every query class through it, drill-down/roll-up |
//! | [`boolean_index`] | VI-A | [`BooleanIndexSet`]: the comparison methods' B+-trees, index-vs-scan selection |
//! | [`plan`] | VI | cost-based planner over the four engines of §VI-A behind one seam ([`Engine`]) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod boolean_index;
pub mod durable;
pub mod encode;
pub mod pcube;
pub mod persist;
pub mod plan;
pub mod query;
pub mod rank;
pub mod scrub;
pub mod signature;
pub mod store;

pub use admission::{AdmissionError, AdmissionGate, AdmissionPermit};
pub use boolean_index::{BooleanIndexSet, SelectRoute};
pub use durable::{
    CheckpointImage, CheckpointOutcome, CommitError, CommitQueue, CommitQueuePolicy,
    CommitReceipt, DurabilityError, DurabilityOptions, DurableDb, DurableState, EpochReader,
    EpochSnapshot, GroupCommitStats, MaintenanceOp, RecoveryReport, RepairOutcome,
};
pub use pcube::{PCube, PCubeConfig, PCubeDb, SigTouch};
pub use persist::PersistError;
pub use plan::{CostEstimate, EngineKind, PlanDecision, PlanError, Planner};
pub use query::{
    run_class_engine, CancelToken, ClassOutcome, DynamicSkylineClass, Engine, HullClass,
    PSkylineClass, ParallelOptions, PriorityGraph, PriorityGraphError, Progress, QueryBudget,
    QueryClass, QueryOutcome, QueryStats, SavedState, SkyPoint, SkylineClass, StageTimes,
    StopReason, SubspaceSkylineClass, TopKClass,
};
pub use rank::{LinearFn, MinCoordSum, RankingFunction, WeightedDistanceFn};
pub use scrub::{scrub, ScrubFinding, ScrubReport};
pub use signature::{NodeTable, Signature};
pub use store::{BooleanProbe, SignatureCursor, SignatureStore};
