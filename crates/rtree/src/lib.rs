//! A paged R*-tree over the preference dimensions.
//!
//! This is the shared *partition template* of the P-Cube model (§IV-A, third
//! proposal): the preference dimensions are partitioned once, and every cube
//! cell is summarized by a signature over this single tree. Three properties
//! set this implementation apart from a generic R-tree library and exist
//! specifically for signatures:
//!
//! * **Stable slots.** "Every node (including leaf) in R-tree can hold up to
//!   M entries. We assume each node keeps track of its free entries. When a
//!   new tuple is added, the first free entry is assigned" (§IV-B.3). Entries
//!   never shift within a node; an occupancy bitmap tracks free slots. A
//!   signature bit therefore keeps meaning the same child across inserts, and
//!   a non-splitting insert changes only the new tuple's path.
//! * **Paths and SIDs.** Every node and tuple has a [`Path`] — the 1-based
//!   slot positions from the root — and paths map to signature IDs
//!   ([`Path::sid`]) exactly as in the paper:
//!   `SID = p0·(M+1)^l + p1·(M+1)^(l-1) + … + p(l-1)`.
//! * **Tracked mutation.** [`RTree::insert_tracked`] reports which tuple
//!   paths changed (old → new), including under node splits, by traversing
//!   the affected subtree before and after the structural change — the
//!   paper's own recipe for incremental signature maintenance.
//!
//! Nodes live on counted [`pcube_storage::Pager`] pages, so every node visit
//! is a measured "R-tree block retrieval" (the `DBlock`/`SBlock` series of
//! Fig 9). The tree has one read path: [`RTree::read_node`] charges the read
//! and hands out a borrowed [`NodeView`] that parses the page in place, and
//! every whole-tree pass — [`RTree::for_each_tuple`], the tracked insert's
//! before/after paths, the delete's search, [`RTree::check_invariants`] — is
//! one private depth-first walk over an explicit stack, reading uncounted.
//! Construction offers both one-at-a-time insertion and STR bulk loading
//! ([`RTree::bulk_load_points`] over one flat point set, in [`str_order`];
//! [`RTree::bulk_load`] over owned points).
//!
//! # Example
//!
//! ```
//! use pcube_rtree::{RTree, RTreeConfig};
//! use pcube_storage::{IoCategory, IoStats, Pager, PAGE_SIZE};
//!
//! let pager = Pager::new(PAGE_SIZE, IoCategory::RtreeBlock, IoStats::new_shared());
//! let mut tree = RTree::new(pager, RTreeConfig::for_page(2, PAGE_SIZE));
//! let delta = tree.insert_tracked(7, &[0.25, 0.75]);
//! let (tid, path) = delta.inserted.unwrap();
//! assert_eq!(tid, 7);
//! assert_eq!(path.depth(), 1, "root is a leaf; the tuple sits in slot {}", path.0[0]);
//! assert!(tree.read_node(tree.root_pid()).is_leaf());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod geom;
mod node;
mod path;
mod split;
mod tree;

pub use geom::Mbr;
pub use node::NodeView;
pub use path::{Path, Sid, SidBuildHasher, SidHasher};
pub use tree::{str_order, PathDelta, RTree, RTreeConfig};

// Parallel branch-and-bound shares one tree across scoped worker threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<RTree>();
};
