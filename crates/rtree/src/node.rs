//! Slotted on-page node layout.
//!
//! Unlike a textbook R-tree, entries occupy *stable slots*: a node is an
//! array of `M` fixed positions plus an occupancy bitmap, and removing an
//! entry leaves a hole rather than shifting its neighbours. Signature bits
//! are indexed by slot position, so stability is what keeps signatures valid
//! across unrelated inserts (§IV-B.3 of the paper).
//!
//! Page layout (`D` = dimensions, `M` = slots per node):
//!
//! ```text
//! [type:u8][reserved:u8][occupancy bitmap: ceil(M/8) bytes][pad to 8]
//! leaf slot i:     tid:u64, coords: D × f64          (8 + 8D bytes)
//! internal slot i: child:u32, pad:u32, min: D × f64, max: D × f64
//!                                                     (8 + 16D bytes)
//! ```

use pcube_storage::{read_f64, read_u32, read_u64, write_f64, write_u32, write_u64, PageId};

use crate::geom::Mbr;

const TYPE_LEAF: u8 = 0;
const TYPE_INTERNAL: u8 = 1;
const BITMAP_OFF: usize = 2;

/// Precomputed offsets for one tree's node layout.
#[derive(Debug, Clone, Copy)]
pub struct Layout {
    pub dims: usize,
    pub m_max: usize,
    entries_off: usize,
    leaf_stride: usize,
    internal_stride: usize,
}

impl Layout {
    /// Builds the layout for `m_max` slots of `dims`-dimensional entries and
    /// verifies it fits in `page_size` bytes.
    ///
    /// # Panics
    /// Panics if the layout does not fit.
    pub fn new(dims: usize, m_max: usize, page_size: usize) -> Layout {
        assert!(dims >= 1, "at least one dimension");
        assert!(m_max >= 2, "fanout must be at least 2");
        let bitmap_len = m_max.div_ceil(8);
        let entries_off = (BITMAP_OFF + bitmap_len).next_multiple_of(8);
        let leaf_stride = 8 + 8 * dims;
        let internal_stride = 8 + 16 * dims;
        let need = entries_off + m_max * leaf_stride.max(internal_stride);
        assert!(
            need <= page_size,
            "node layout needs {need} bytes > page size {page_size} (dims={dims}, M={m_max})"
        );
        Layout { dims, m_max, entries_off, leaf_stride, internal_stride }
    }

    /// Largest `M` that fits `dims`-dimensional nodes in `page_size` bytes.
    pub fn max_capacity(dims: usize, page_size: usize) -> usize {
        let stride = 8 + 16 * dims; // internal entries are the larger kind
        let mut m = (page_size.saturating_sub(16)) / stride;
        while m >= 2 {
            let bitmap_len = m.div_ceil(8);
            let entries_off = (BITMAP_OFF + bitmap_len).next_multiple_of(8);
            if entries_off + m * stride <= page_size {
                return m;
            }
            m -= 1;
        }
        panic!("page size {page_size} too small for any {dims}-dimensional R-tree node");
    }

    fn leaf_off(&self, slot: usize) -> usize {
        self.entries_off + slot * self.leaf_stride
    }

    fn internal_off(&self, slot: usize) -> usize {
        self.entries_off + slot * self.internal_stride
    }
}

pub fn init_node(page: &mut [u8], is_leaf: bool) {
    page.fill(0);
    page[0] = if is_leaf { TYPE_LEAF } else { TYPE_INTERNAL };
}

pub fn is_leaf(page: &[u8]) -> bool {
    page[0] == TYPE_LEAF
}

pub fn occupied(page: &[u8], slot: usize) -> bool {
    page[BITMAP_OFF + slot / 8] >> (slot % 8) & 1 == 1
}

pub fn set_occupied(page: &mut [u8], slot: usize, value: bool) {
    if value {
        page[BITMAP_OFF + slot / 8] |= 1 << (slot % 8);
    } else {
        page[BITMAP_OFF + slot / 8] &= !(1 << (slot % 8));
    }
}

/// "When a new tuple is added, the first free entry is assigned."
pub fn first_free_slot(page: &[u8], layout: &Layout) -> Option<usize> {
    (0..layout.m_max).find(|&s| !occupied(page, s))
}

pub fn write_leaf_entry(page: &mut [u8], layout: &Layout, slot: usize, tid: u64, coords: &[f64]) {
    debug_assert_eq!(coords.len(), layout.dims);
    let off = layout.leaf_off(slot);
    write_u64(page, off, tid);
    for (d, &c) in coords.iter().enumerate() {
        write_f64(page, off + 8 + 8 * d, c);
    }
    set_occupied(page, slot, true);
}

pub fn write_internal_entry(page: &mut [u8], layout: &Layout, slot: usize, child: PageId, mbr: &Mbr) {
    debug_assert_eq!(mbr.dims(), layout.dims);
    let off = layout.internal_off(slot);
    write_u32(page, off, child.0);
    for d in 0..layout.dims {
        write_f64(page, off + 8 + 8 * d, mbr.min[d]);
        write_f64(page, off + 8 + 8 * (layout.dims + d), mbr.max[d]);
    }
    set_occupied(page, slot, true);
}

/// A borrowed view over one node's page — the one place the page layout is
/// read, and the one form in which the tree hands a node out. Entries are
/// parsed in place: occupancy straight from the bitmap, ids by offset,
/// coordinates and MBR corners into a caller-owned buffer that is reused
/// from entry to entry. A branch-and-bound expansion scores and prunes
/// children from the view and allocates only for the few it keeps.
#[derive(Debug, Clone, Copy)]
pub struct NodeView<'a> {
    page: &'a [u8],
    layout: &'a Layout,
}

impl<'a> NodeView<'a> {
    pub(crate) fn new(page: &'a [u8], layout: &'a Layout) -> Self {
        NodeView { page, layout }
    }

    /// `true` if the node is a leaf (its entries are tuples).
    pub fn is_leaf(&self) -> bool {
        is_leaf(self.page)
    }

    /// Occupied slots (0-based; the 1-based path position is `slot + 1`) in
    /// slot order.
    pub fn slots(&self) -> impl Iterator<Item = usize> + 'a {
        let page = self.page;
        (0..self.layout.m_max).filter(move |&slot| occupied(page, slot))
    }

    /// Tuple id stored in `slot` of a leaf.
    pub fn tid(&self, slot: usize) -> u64 {
        debug_assert!(self.is_leaf());
        read_u64(self.page, self.layout.leaf_off(slot))
    }

    /// Child page stored in `slot` of an internal node.
    pub fn child(&self, slot: usize) -> PageId {
        debug_assert!(!self.is_leaf());
        PageId(read_u32(self.page, self.layout.internal_off(slot)))
    }

    /// Reads the coordinates of the tuple in `slot` of a leaf into `out`
    /// (cleared first; no allocation once `out` has grown to the tree's
    /// dimensionality).
    pub fn coords_into(&self, slot: usize, out: &mut Vec<f64>) {
        debug_assert!(self.is_leaf());
        let off = self.layout.leaf_off(slot) + 8;
        out.clear();
        out.extend((0..self.layout.dims).map(|d| read_f64(self.page, off + 8 * d)));
    }

    /// Reads the bounding rectangle of the child in `slot` of an internal
    /// node into `out`, reusing its two corner vectors.
    pub fn mbr_into(&self, slot: usize, out: &mut Mbr) {
        debug_assert!(!self.is_leaf());
        let dims = self.layout.dims;
        let off = self.layout.internal_off(slot) + 8;
        out.min.clear();
        out.min.extend((0..dims).map(|d| read_f64(self.page, off + 8 * d)));
        out.max.clear();
        out.max.extend((0..dims).map(|d| read_f64(self.page, off + 8 * (dims + d))));
    }

    /// The tight bounding rectangle over the node's entries ([`Mbr::empty`]
    /// for a node with none).
    pub fn mbr(&self) -> Mbr {
        let dims = self.layout.dims;
        let mut out = Mbr::empty(dims);
        if self.is_leaf() {
            let mut coords = Vec::with_capacity(dims);
            for slot in self.slots() {
                self.coords_into(slot, &mut coords);
                out.expand_point(&coords);
            }
        } else {
            let mut mbr = Mbr::empty(dims);
            for slot in self.slots() {
                self.mbr_into(slot, &mut mbr);
                out.expand(&mbr);
            }
        }
        out
    }

    /// The entry in `slot`, owned: what a split moves.
    pub(crate) fn entry(&self, slot: usize) -> DecodedEntry {
        if self.is_leaf() {
            let mut coords = Vec::with_capacity(self.layout.dims);
            self.coords_into(slot, &mut coords);
            DecodedEntry::Tuple { tid: self.tid(slot), coords }
        } else {
            let mut mbr = Mbr::empty(self.layout.dims);
            self.mbr_into(slot, &mut mbr);
            DecodedEntry::Child { child: self.child(slot), mbr }
        }
    }
}

/// One entry of a node, owned — the form a split moves entries in.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum DecodedEntry {
    /// A data tuple stored in a leaf.
    Tuple {
        /// Tuple identifier (row id in the base table).
        tid: u64,
        /// Coordinates on the preference dimensions.
        coords: Vec<f64>,
    },
    /// A child pointer stored in an internal node.
    Child {
        /// Page of the child node.
        child: PageId,
        /// Bounding rectangle of the child's subtree.
        mbr: Mbr,
    },
}

impl DecodedEntry {
    /// The bounding rectangle of this entry (degenerate for tuples).
    pub fn mbr(&self) -> Mbr {
        match self {
            DecodedEntry::Tuple { coords, .. } => Mbr::point(coords),
            DecodedEntry::Child { mbr, .. } => mbr.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_is_reasonable_for_paper_page_size() {
        // 4 KB, 2 preference dimensions: around a hundred entries per node,
        // the same order of magnitude as the paper's M = 204 (they assume
        // 4-byte coordinates; we store f64).
        let m2 = Layout::max_capacity(2, 4096);
        assert!((90..=120).contains(&m2), "M for 2 dims = {m2}");
        let m5 = Layout::max_capacity(5, 4096);
        assert!((40..=50).contains(&m5), "M for 5 dims = {m5}");
        // The computed capacity must actually fit.
        let _ = Layout::new(2, m2, 4096);
        let _ = Layout::new(5, m5, 4096);
    }

    #[test]
    fn leaf_entries_roundtrip_with_stable_slots() {
        let layout = Layout::new(3, 10, 1024);
        let mut page = vec![0u8; 1024];
        init_node(&mut page, true);
        assert!(is_leaf(&page));
        write_leaf_entry(&mut page, &layout, 4, 77, &[0.1, 0.2, 0.3]);
        write_leaf_entry(&mut page, &layout, 0, 11, &[1.0, 2.0, 3.0]);
        assert_eq!(NodeView::new(&page, &layout).slots().count(), 2);
        assert_eq!(first_free_slot(&page, &layout), Some(1));
        let view = NodeView::new(&page, &layout);
        assert_eq!(view.slots().collect::<Vec<_>>(), vec![0, 4]);
        assert_eq!(
            view.entry(4),
            DecodedEntry::Tuple { tid: 77, coords: vec![0.1, 0.2, 0.3] }
        );
        // The in-place read reuses the caller's buffer from entry to entry.
        let mut coords = vec![9.0; 7];
        view.coords_into(0, &mut coords);
        assert_eq!((view.tid(0), coords), (11, vec![1.0, 2.0, 3.0]));
        set_occupied(&mut page, 0, false);
        assert_eq!(first_free_slot(&page, &layout), Some(0));
        assert_eq!(NodeView::new(&page, &layout).slots().count(), 1);
    }

    #[test]
    fn internal_entries_roundtrip() {
        let layout = Layout::new(2, 8, 512);
        let mut page = vec![0u8; 512];
        init_node(&mut page, false);
        assert!(!is_leaf(&page));
        let mbr = Mbr { min: vec![0.0, 1.0], max: vec![2.0, 3.0] };
        write_internal_entry(&mut page, &layout, 3, PageId(99), &mbr);
        let view = NodeView::new(&page, &layout);
        assert_eq!(view.entry(3), DecodedEntry::Child { child: PageId(99), mbr: mbr.clone() });
        let mut got = Mbr::empty(5);
        view.mbr_into(3, &mut got);
        assert_eq!((view.child(3), got), (PageId(99), mbr));
    }

    #[test]
    fn view_skips_holes_and_computes_mbr() {
        let layout = Layout::new(2, 6, 512);
        let mut page = vec![0u8; 512];
        init_node(&mut page, true);
        write_leaf_entry(&mut page, &layout, 1, 1, &[0.0, 0.0]);
        write_leaf_entry(&mut page, &layout, 5, 2, &[1.0, 2.0]);
        let node = NodeView::new(&page, &layout);
        assert!(node.is_leaf());
        assert_eq!(node.slots().collect::<Vec<_>>(), vec![1, 5]);
        let mbr = node.mbr();
        assert_eq!(mbr.min, vec![0.0, 0.0]);
        assert_eq!(mbr.max, vec![1.0, 2.0]);
    }

    #[test]
    fn full_node_has_no_free_slot() {
        let layout = Layout::new(2, 3, 512);
        let mut page = vec![0u8; 512];
        init_node(&mut page, true);
        for s in 0..3 {
            write_leaf_entry(&mut page, &layout, s, s as u64, &[0.0, 0.0]);
        }
        assert_eq!(first_free_slot(&page, &layout), None);
    }

    #[test]
    #[should_panic]
    fn oversized_layout_panics() {
        let _ = Layout::new(5, 100, 512);
    }
}
