//! The signature layout, pinned — the oracle of the write path.
//!
//! Every read-side count in this repository (`blocks_per_query`,
//! `partials_loaded`, `bytes_per_tuple`) is a function of *which bytes sit on
//! which signature page*: which nodes each partial holds, in which order,
//! under which per-node encoding, packed onto which page, referenced from
//! which directory entry. A change to the write path (the codecs, the
//! decomposition walk, cube generation, incremental maintenance) must leave
//! all of that byte-identical, and this file says so with literals.
//!
//! Three seeded tables (uniform, anti-correlated, CoverType surrogate) at two
//! page sizes (4096, and 512 so that every cell spans many partials): an
//! FNV-1a digest over every signature page, every directory entry and every
//! directory page — after the build, and after 200 seeded inserts and deletes
//! (in-place bit sets, their overflow fallback, new cells, node splits, the
//! clear → `load_full` → `write_signature` path, emptied cells). The literals
//! were computed on the commit *before* the write path was rewritten (PR 18's
//! parent). The same script through `DurableDb`, crashed and recovered, must
//! replay to the same pages.
//!
//! Last, the decomposition itself against the definition it replaced: the
//! `Path`-and-`HashSet` breadth-first search of §IV-B.1, kept here as the
//! reference, on random signatures at payload limits 32…4096 — same
//! partials, same node order, same bytes.

use std::collections::{HashMap, HashSet, VecDeque};

use pcube::bitmap::{write_varint, AdaptiveCodec, BitArray, Codec};
use pcube::core::encode::{decode_record, for_each_partial};
use pcube::core::{
    DurabilityOptions, DurableDb, MaintenanceOp, NodeTable, PCubeConfig, PCubeDb, Signature,
};
use pcube::cube::Relation;
use pcube::data::{covertype_surrogate, synthetic, Distribution, SyntheticSpec};
use pcube::rtree::{Path, Sid};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ------------------------------------------------------------- the digest --

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Everything the signature store persists: page ids and bytes of every live
/// signature page, the directory's `(cell, reference SID) → locator` entries
/// in key order, the directory's own pages, and the shape they were built
/// for.
fn layout_digest(db: &PCubeDb) -> u64 {
    let (sig_pager, directory, m_max, height) = db.pcube().store().parts_ref();
    let mut h = Fnv::new();
    h.word(m_max as u64);
    h.word(height as u64);
    h.word(db.pcube().registry().len() as u64);
    for pid in sig_pager.live_page_ids() {
        h.word(u64::from(pid.0));
        h.bytes(sig_pager.page_bytes(pid).expect("a live page"));
    }
    for (key, locator) in directory.range(..) {
        h.word(key);
        h.word(locator);
    }
    for pid in directory.pager().live_page_ids() {
        h.word(u64::from(pid.0));
        h.bytes(directory.pager().page_bytes(pid).expect("a live page"));
    }
    h.0
}

// ------------------------------------------------------------- the tables --

#[derive(Clone, Copy, Debug)]
enum Table {
    Uniform,
    AntiCorrelated,
    CoverType,
}

fn relation(table: Table) -> Relation {
    match table {
        Table::Uniform => synthetic(&SyntheticSpec {
            n_tuples: 5_000,
            n_bool: 3,
            n_pref: 2,
            cardinality: 20,
            distribution: Distribution::Uniform,
            seed: 1801,
        }),
        Table::AntiCorrelated => synthetic(&SyntheticSpec {
            n_tuples: 4_000,
            n_bool: 3,
            n_pref: 3,
            cardinality: 12,
            distribution: Distribution::AntiCorrelated,
            seed: 1802,
        }),
        Table::CoverType => covertype_surrogate(2_500, 1803),
    }
}

/// 200 seeded maintenance operations: inserts (every tenth with a value no
/// row had, so a cell is born) and deletes of live rows (the born cells die
/// again a few operations later).
fn script(relation: &Relation) -> Vec<MaintenanceOp> {
    let mut rng = StdRng::seed_from_u64(0x18_1a70);
    let n_bool = relation.schema().n_bool();
    let n_pref = relation.schema().n_pref();
    let cards: Vec<u32> = (0..n_bool)
        .map(|d| relation.bool_column(d).max().map_or(1, |c| c + 1))
        .collect();
    let mut live: Vec<u64> = (0..relation.len() as u64).collect();
    let mut next_tid = relation.len() as u64;
    let mut newborn: Vec<u64> = Vec::new();
    let mut ops = Vec::new();
    for i in 0..200u32 {
        if i % 10 == 7 {
            if let Some(tid) = newborn.pop() {
                live.retain(|&t| t != tid);
                ops.push(MaintenanceOp::Delete { tid });
                continue;
            }
        }
        if rng.gen_bool(0.5) {
            let mut codes: Vec<u32> = cards.iter().map(|&c| rng.gen_range(0..c)).collect();
            if i % 10 == 3 {
                codes[0] = cards[0] + i;
                newborn.push(next_tid);
            }
            // Every other insert lands in one small box: those pile into few
            // leaves and force node splits (moved paths) at the small page
            // size; the rest spread over every page of the cell.
            let (lo, width) = if i % 2 == 0 { (0.3, 0.05) } else { (0.0, 1.0) };
            let coords: Vec<f64> =
                (0..n_pref).map(|_| lo + rng.gen::<f64>() * width).collect();
            ops.push(MaintenanceOp::Insert { codes, coords });
            live.push(next_tid);
            next_tid += 1;
        } else {
            let tid = live.swap_remove(rng.gen_range(0..live.len()));
            ops.push(MaintenanceOp::Delete { tid });
        }
    }
    ops
}

fn config(page_size: usize) -> PCubeConfig {
    PCubeConfig { page_size, ..PCubeConfig::default() }
}

/// `(digest after build, digest after the script)` through bare `PCubeDb`
/// maintenance.
fn direct(table: Table, page_size: usize) -> (u64, u64) {
    let relation = relation(table);
    let ops = script(&relation);
    let mut db = PCubeDb::build(relation, &config(page_size));
    let built = layout_digest(&db);
    for op in &ops {
        match op {
            MaintenanceOp::Insert { codes, coords } => {
                db.insert_coded(codes, coords);
            }
            MaintenanceOp::Delete { tid } => assert!(db.delete(*tid), "delete of {tid}"),
        }
    }
    (built, layout_digest(&db))
}

/// The script as 50 four-operation transactions through the durable engine,
/// then recovery from the bytes a crash would leave: the replayed pages.
fn replayed(table: Table, page_size: usize) -> u64 {
    let relation = relation(table);
    let ops = script(&relation);
    let mut db = DurableDb::create(relation, &config(page_size), DurabilityOptions::default());
    for txn in ops.chunks(4) {
        db.apply(txn).expect("no crash plan is armed");
    }
    let (recovered, report) =
        DurableDb::open_or_recover_from_state(&db.durable_state(), DurabilityOptions::default())
            .expect("recovery of a clean log");
    assert_eq!(report.txns_replayed, 50, "every transaction is replayed from the log");
    assert_eq!(layout_digest(recovered.db()), layout_digest(db.db()), "replay == live");
    layout_digest(recovered.db())
}

/// `(table, page size, digest after build, digest after the script)`,
/// computed on the parent of the write-path rewrite.
const PINNED: &[(Table, usize, u64, u64)] = &[
    (Table::Uniform, 4096, 0xaf1826f39f8b8fa4, 0x21bbf8527f502d02),
    (Table::Uniform, 512, 0xead4ebed4e3ee1c1, 0x8f564068583df5b2),
    (Table::AntiCorrelated, 4096, 0x0749c027f4de0a5a, 0xf25023eeb72ee36d),
    (Table::AntiCorrelated, 512, 0x835d46cabbfac401, 0xad562b535dd0e474),
    (Table::CoverType, 4096, 0xe67bc66be3eeb5cb, 0x2ae09a5d07b466dc),
    (Table::CoverType, 512, 0xffac408123ab0376, 0x9b74b6bcb0749a4d),
];

#[test]
fn build_and_maintenance_write_the_pinned_pages() {
    let actual: Vec<(Table, usize, u64, u64)> = PINNED
        .iter()
        .map(|&(table, page_size, _, _)| {
            let (built, maintained) = direct(table, page_size);
            (table, page_size, built, maintained)
        })
        .collect();
    let show = |rows: &[(Table, usize, u64, u64)]| -> String {
        rows.iter()
            .map(|(t, p, b, m)| format!("    (Table::{t:?}, {p}, {b:#018x}, {m:#018x}),\n"))
            .collect()
    };
    assert_eq!(show(&actual), show(PINNED), "actual layout:\n{}", show(&actual));
}

#[test]
fn recovery_replays_to_the_pinned_pages() {
    for &(table, page_size, _, maintained) in PINNED {
        assert_eq!(
            replayed(table, page_size),
            maintained,
            "{table:?} at {page_size}-byte pages: replay diverges from the pinned layout"
        );
    }
}

// ------------------------------------------- the decomposition's definition --

fn varint(v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    write_varint(&mut out, v);
    out
}

/// A partial of the reference decomposition: the SID of its root and its
/// nodes, in breadth-first order, each with its bit array.
#[derive(Debug, PartialEq)]
struct Partial {
    root_sid: Sid,
    nodes: Vec<(Sid, BitArray)>,
}

/// A partial as the parent serialized it: `[root_sid][n_nodes]`, then
/// `[sid][adaptively encoded bits]` per node.
fn reference_record(partial: &Partial) -> Vec<u8> {
    let mut out = varint(partial.root_sid.0);
    out.extend(varint(partial.nodes.len() as u64));
    for (sid, bits) in &partial.nodes {
        out.extend(varint(sid.0));
        out.extend(AdaptiveCodec.encode(bits));
    }
    out
}

/// §IV-B.1 as the parent ran it: a breadth-first traversal from the root,
/// cut when the page fills, restarted from the root's first child, then its
/// following children, then the next level, skipping nodes already coded —
/// over `Path`s, a queue and a hash set, every node sized by encoding it.
fn reference_decompose(sig: &Signature, height: usize, payload_limit: usize) -> Vec<Partial> {
    let m = sig.m_max();
    let arrays: HashMap<Sid, BitArray> = sig.iter_nodes().collect();
    let mut partials = Vec::new();
    let mut coded: HashSet<Sid> = HashSet::new();
    let mut frontier: Vec<Path> = vec![Path::root()];
    while !frontier.is_empty() && coded.len() < sig.node_count() {
        let mut next: Vec<Path> = Vec::new();
        for root in &frontier {
            let root_sid = root.sid(m);
            let header = varint(root_sid.0).len() + 3;
            let mut queue: VecDeque<Path> = VecDeque::from([root.clone()]);
            let mut nodes: Vec<(Sid, BitArray)> = Vec::new();
            let mut size = header;
            'bfs: while let Some(p) = queue.pop_front() {
                let sid = p.sid(m);
                let Some(bits) = arrays.get(&sid) else { continue };
                if !coded.contains(&sid) {
                    let len = varint(sid.0).len() + AdaptiveCodec.encode(bits).len();
                    assert!(header + len <= payload_limit, "node larger than the payload");
                    if size + len > payload_limit {
                        break 'bfs;
                    }
                    size += len;
                    coded.insert(sid);
                    nodes.push((sid, bits.clone()));
                }
                if p.depth() + 1 < height {
                    queue.extend(bits.iter_ones().map(|pos| p.child(pos as u16 + 1)));
                }
            }
            if !nodes.is_empty() {
                partials.push(Partial { root_sid, nodes });
            }
            if root.depth() + 1 < height {
                if let Some(bits) = arrays.get(&root_sid) {
                    next.extend(bits.iter_ones().map(|pos| root.child(pos as u16 + 1)));
                }
            }
        }
        frontier = next;
    }
    assert_eq!(coded.len(), sig.node_count(), "the reference covers every node");
    partials
}

/// A signature of `n` random tuple paths of depth `height` under fanout `m`,
/// clustered (a few hot subtrees) so that dense, sparse and single-bit node
/// arrays all occur.
fn random_signature(rng: &mut StdRng, m: usize, height: usize, n: usize) -> Signature {
    let paths: Vec<Path> = (0..n)
        .map(|_| {
            let hot = rng.gen_bool(0.6);
            Path(
                (0..height)
                    .map(|_| rng.gen_range(1..=if hot { m.min(3) } else { m }) as u16)
                    .collect(),
            )
        })
        .collect();
    Signature::from_paths(m, paths.iter())
}

#[test]
fn decomposition_equals_the_breadth_first_definition() {
    let mut rng = StdRng::seed_from_u64(0x18_dec0);
    // (fanout, payload limits): the smallest limit still holds any one node.
    let shapes: [(usize, &[usize]); 4] = [
        (3, &[32, 40, 64, 128, 1000, 4096]),
        (16, &[32, 48, 100, 508, 4092]),
        (60, &[32, 64, 250, 4092]),
        (204, &[64, 128, 508, 4092]),
    ];
    for (m, limits) in shapes {
        for height in 1..=4usize {
            for n in [0usize, 1, 7, 60, 400] {
                let sig = random_signature(&mut rng, m, height, n);
                sig.validate(height);
                for &limit in limits {
                    let what = format!("M {m}, height {height}, {n} paths, limit {limit}");
                    let expect = reference_decompose(&sig, height, limit);
                    let mut records: Vec<(Sid, Vec<u8>)> = Vec::new();
                    for_each_partial(&sig, height, limit, |root, record| {
                        records.push((root, record.to_vec()));
                    });
                    assert_eq!(records.len(), expect.len(), "{what}");
                    for ((root, record), partial) in records.iter().zip(&expect) {
                        assert_eq!(*root, partial.root_sid, "{what}");
                        assert_eq!(record, &reference_record(partial), "{what}");
                        assert!(record.len() <= limit, "{what}");
                        // Read back: the reference's SIDs, lengths and words.
                        let (mut table, mut nodes) = (NodeTable::new(m), Vec::new());
                        let root_sid = decode_record(record, m, &mut table, &mut nodes);
                        assert_eq!(root_sid, Some(partial.root_sid), "{what}");
                        let shape: Vec<(Sid, usize)> =
                            partial.nodes.iter().map(|(sid, bits)| (*sid, bits.len())).collect();
                        assert_eq!(nodes, shape, "{what}");
                        for (k, (_, bits)) in partial.nodes.iter().enumerate() {
                            assert_eq!(table.row(k), bits.words(), "{what}, node {k}");
                        }
                    }
                }
            }
        }
    }
}
