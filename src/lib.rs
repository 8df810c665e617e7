//! **pcube** — a reproduction of *P-Cube: Answering Preference Queries in
//! Multi-Dimensional Space* (Dong Xin, Jiawei Han; ICDE 2008).
//!
//! P-Cube answers **preference queries** (top-k and skyline) carrying
//! **multi-dimensional boolean selections** by materializing a *signature*
//! per data-cube cell over a shared R-tree partition of the preference
//! dimensions, then pushing boolean and preference pruning into one
//! branch-and-bound search.
//!
//! # Quickstart
//!
//! ```
//! use pcube::prelude::*;
//!
//! // A used-car table: boolean dims (type, color), preference dims
//! // (price, mileage) — the paper's Example 1.
//! let mut cars = Relation::new(Schema::new(&["type", "color"], &["price", "mileage"]));
//! cars.push(&["sedan", "red"], &[0.30, 0.20]);
//! cars.push(&["sedan", "blue"], &[0.10, 0.90]);
//! cars.push(&["suv", "red"], &[0.20, 0.40]);
//! cars.push(&["sedan", "red"], &[0.25, 0.35]);
//! cars.push(&["sedan", "red"], &[0.90, 0.80]);
//!
//! let db = PCubeDb::build(cars, &PCubeConfig::default());
//!
//! // Skyline of red sedans over (price, mileage).
//! let sel = db.selection(&[("type", "sedan"), ("color", "red")]);
//! let out = db.run(&sel, &SkylineClass::new(vec![0, 1]));
//! let mut tids: Vec<u64> = out.rows.iter().map(|p| p.0).collect();
//! tids.sort();
//! assert_eq!(tids, vec![0, 3]);
//!
//! // Top-1 red sedan closest to (price 0.25, mileage 0.30).
//! let f = WeightedDistanceFn::new(vec![0.25, 0.30], vec![1.0, 1.0]);
//! let top = db.run(&sel, &TopKClass::new(1, &f));
//! assert_eq!(top.rows[0].0, 3);
//! ```
//!
//! # Crate map
//!
//! | re-export | crate | contents |
//! |---|---|---|
//! | [`core`] | `pcube-core` | signatures, P-Cube, Algorithm 1 |
//! | [`cube`] | `pcube-cube` | relation, dictionaries, cuboids, cells |
//! | [`rtree`] | `pcube-rtree` | the shared R*-tree partition |
//! | [`bptree`] | `pcube-bptree` | disk B+-tree (indexes + directories; internal pages pinned) |
//! | [`bitmap`] | `pcube-bitmap` | bit arrays, compression, Bloom filters |
//! | [`storage`] | `pcube-storage` | counted pager, buffer pool, cost model |
//! | [`baselines`] | `pcube-baselines` | reference algorithms (BNL, SFS, naive top-k) + re-exports |
//! | [`data`] | `pcube-data` | synthetic + CoverType-surrogate generators |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod sql;

pub use pcube_baselines as baselines;
pub use pcube_bitmap as bitmap;
pub use pcube_bptree as bptree;
pub use pcube_core as core;
pub use pcube_cube as cube;
pub use pcube_data as data;
pub use pcube_rtree as rtree;
pub use pcube_storage as storage;

/// One-stop imports for applications.
pub mod prelude {
    pub use pcube_core::{
        run_class_engine, BooleanIndexSet, ClassOutcome, CommitReceipt, CostEstimate,
        DurabilityError, DurabilityOptions, DurableDb, DurableState, DynamicSkylineClass, Engine,
        EngineKind, EpochReader, EpochSnapshot, HullClass, LinearFn, MaintenanceOp, MinCoordSum,
        PCube, PCubeConfig, PCubeDb, PSkylineClass, ParallelOptions, PlanDecision, Planner,
        PriorityGraph, PriorityGraphError, QueryClass, QueryStats, RankingFunction,
        RecoveryReport, RepairOutcome, SavedState, SelectRoute, Signature, SkylineClass,
        SubspaceSkylineClass, TopKClass, WeightedDistanceFn,
    };
    pub use pcube_core::{scrub, QueryBudget, ScrubFinding, ScrubReport, StopReason};
    pub use pcube_core::{CommitError, CommitQueue, CommitQueuePolicy, GroupCommitStats};
    pub use pcube_cube::{
        CellKey, CuboidMask, MaterializationPlan, Predicate, Relation, Schema, Selection,
    };
    pub use pcube_storage::{
        CostModel, Counter, CrashPlan, CrashPoint, FaultPlan, IoCategory, WalDamage, WalSyncError,
    };
}
