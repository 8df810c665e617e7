//! The dominance window of the skyline family (§V-A): the points accepted so
//! far, in domination space, asked one question — *does a member dominate
//! this candidate?* — for every child of every expanded node.
//!
//! Members are stored projected onto the class's preference dimensions, flat
//! and member-major. A small window answers by scanning them and keeps
//! nothing else. From [`Window::INDEX_MIN`] members on it also keeps, per
//! dimension, the members in ascending order of that coordinate, and a test
//! reads only the *stop-point prefix* of one dimension — the members with
//! `r[d] ≤ p[d]`, among which every dominator of `p` lies whatever `d` is —
//! on the dimension where that prefix is shortest (Liu's SDI framework,
//! arXiv 1908.04083).

/// The accepted points of one skyline search, answering dominance tests.
#[derive(Debug, Clone)]
pub struct Window {
    stride: usize,
    /// Projected coordinates, `stride` per member, in push order.
    flat: Vec<f64>,
    /// Per dimension, the first `indexed` members sorted by that coordinate;
    /// the next test files the rest (a window that is only ever iterated
    /// keeps no order at all).
    sorted: Vec<SortedDim>,
    indexed: usize,
    /// The member that dominated the last candidate found dominated: the
    /// children of one node tend to share their dominator, so it is tried
    /// first.
    last: u32,
}

/// One dimension's sorted order: the coordinates ascending, and beside each
/// the member it belongs to.
#[derive(Debug, Clone, Default)]
struct SortedDim {
    keys: Vec<f64>,
    ids: Vec<u32>,
}

/// `true` if `r` dominates `p`: `r ≤ p` everywhere and `r < p` somewhere.
#[inline]
fn dominates(r: &[f64], p: &[f64]) -> bool {
    let mut strict = false;
    for (x, y) in r.iter().zip(p) {
        if x > y {
            return false;
        }
        strict |= x < y;
    }
    strict
}

/// Writes `full` projected onto `dims` into `out` — the form the window
/// stores and tests points in.
pub(crate) fn project(full: &[f64], dims: &[usize], out: &mut Vec<f64>) {
    out.clear();
    out.extend(dims.iter().map(|&d| full[d]));
}

impl Window {
    /// Members below which the window is a plain scan with no index to keep.
    pub const INDEX_MIN: usize = 32;

    /// An empty window over points of `stride` coordinates.
    ///
    /// # Panics
    /// Panics if `stride` is 0.
    pub fn new(stride: usize) -> Self {
        assert!(stride > 0, "a window needs at least one dimension");
        let sorted = vec![SortedDim::default(); stride];
        Window { stride, flat: Vec::new(), sorted, indexed: 0, last: 0 }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.flat.len() / self.stride
    }

    /// `true` if nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.flat.is_empty()
    }

    /// The members in push order.
    pub fn members(&self) -> impl Iterator<Item = &[f64]> {
        self.flat.chunks_exact(self.stride)
    }

    /// Appends a member.
    pub fn push(&mut self, p: &[f64]) {
        debug_assert_eq!(p.len(), self.stride);
        self.flat.extend_from_slice(p);
    }

    /// `true` if some member dominates `p` — the verdict of
    /// `members().any(|r| r dominates p)`, reading fewer members.
    pub fn dominated(&mut self, p: &[f64]) -> bool {
        debug_assert_eq!(p.len(), self.stride);
        if self.len() < Self::INDEX_MIN {
            return self.members().any(|r| dominates(r, p));
        }
        while self.indexed < self.len() {
            self.index_next();
        }
        let (stride, flat) = (self.stride, &self.flat);
        let member = |id: u32| &flat[id as usize * stride..][..stride];
        if dominates(member(self.last), p) {
            return true;
        }
        // The stop point of each dimension; the shortest prefix wins. It is
        // read from the stop point downwards: a member just below `p` on
        // this dimension is free on the others, one at the far end is
        // extreme here and so, on a front, large elsewhere.
        let prefix = self
            .sorted
            .iter()
            .zip(p)
            .map(|(dim, &x)| &dim.ids[..dim.keys.partition_point(|&key| key <= x)])
            .min_by_key(|prefix| prefix.len())
            .unwrap_or_default();
        match prefix.iter().rev().find(|&&id| dominates(member(id), p)) {
            Some(&id) => {
                self.last = id;
                true
            }
            None => false,
        }
    }

    /// Files the oldest member not yet in the sorted orders into each.
    fn index_next(&mut self) {
        let member = &self.flat[self.indexed * self.stride..][..self.stride];
        for (dim, &x) in self.sorted.iter_mut().zip(member) {
            let at = dim.keys.partition_point(|&key| key <= x);
            dim.keys.insert(at, x);
            dim.ids.insert(at, self.indexed as u32);
        }
        self.indexed += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_points_and_signed_zeros_do_not_dominate() {
        let mut w = Window::new(2);
        w.push(&[0.0, 1.0]);
        assert!(!w.dominated(&[0.0, 1.0]));
        assert!(!w.dominated(&[-0.0, 1.0]), "-0.0 == 0.0");
        assert!(w.dominated(&[0.0, 1.5]));
        assert!(!w.dominated(&[-1.0, 9.0]));
    }

    #[test]
    fn the_indexed_window_answers_like_the_scan() {
        // A front of mutually incomparable points plus duplicates, pushed in
        // an order unrelated to any coordinate, probed across rebuilds.
        let mut w = Window::new(3);
        let mut x = 9u32;
        let mut next = || {
            x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            f64::from((x >> 8) % 32) / 32.0
        };
        for i in 0..20 * Window::INDEX_MIN {
            let (a, b) = (next(), next());
            w.push(&[a, b, 2.0 - a - b]);
            let p = [next(), next(), 2.0 - next() - next()];
            let scan = w.members().any(|r| dominates(r, &p));
            assert_eq!(w.dominated(&p), scan, "{p:?} against {} members", i + 1);
        }
        assert_eq!(w.indexed, w.len());
    }
}
