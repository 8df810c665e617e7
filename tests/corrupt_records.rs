//! A corrupt stored record is a typed error, never an abort.
//!
//! Checksums are off on the query path, so a partial-signature record read
//! back from a page is decoded as it is. Its length fields (the node count,
//! every node's bit length) are varints a single flipped bit can turn into
//! 2^45: a decoder that sizes a buffer from one of them before checking it
//! dies in the allocator (`memory allocation of 4398046511104 bytes failed`)
//! and takes the process with it. The decoder therefore refuses a node count
//! the record cannot hold and a node longer than the fanout *before* it
//! sizes anything; the store turns the refusal into `Malformed`, quarantines
//! the page, and the cursor degrades.
//!
//! Checked here on real stored records: every single-bit flip and every
//! truncation yields a typed error or a valid decode, with no panic and no
//! single allocation above a few pages.
//!
//! This file is its own test binary because it installs the measuring
//! `#[global_allocator]` of `support/measuring_allocator.rs`.

#[path = "support/measuring_allocator.rs"]
mod measuring_allocator;

use measuring_allocator::largest_allocation_of;
use pcube::bptree::composite_key;
use pcube::core::encode::decode_record;
use pcube::core::{NodeTable, PCubeConfig, PCubeDb};
use pcube::data::{synthetic, Distribution, SyntheticSpec};
use pcube::rtree::{Path, Sid};
use pcube::storage::{read_u32, PageId, StorageError};

const PAGE_SIZE: usize = 512;
/// "A few pages": a decoded partial's rows and node vector are sized from a
/// node count already checked against the record, so they are bounded by
/// the page.
const ALLOCATION_BOUND: usize = 16 * PAGE_SIZE;
const RECORD_HEADER: usize = 4;

/// A small table at 512-byte pages: every cell spans several partials and
/// the records fill their pages.
fn database() -> PCubeDb {
    let relation = synthetic(&SyntheticSpec {
        n_tuples: 3_000,
        n_bool: 2,
        n_pref: 2,
        cardinality: 4,
        distribution: Distribution::Uniform,
        seed: 1804,
    });
    PCubeDb::build(relation, &PCubeConfig { page_size: PAGE_SIZE, ..PCubeConfig::default() })
}

/// `(reference SID, page, offset of the length header, record length)` of
/// every partial of `cell`.
fn records_of(db: &PCubeDb, cell: u32) -> Vec<(Sid, PageId, usize, usize)> {
    let (sig_pager, directory, _, _) = db.pcube().store().parts_ref();
    directory
        .range(composite_key(cell, 0)..=composite_key(cell, u32::MAX))
        .map(|(key, locator)| {
            let (pid, offset) = (PageId((locator >> 32) as u32), (locator & 0xFFFF_FFFF) as usize);
            let len = read_u32(sig_pager.page_bytes(pid).expect("a live page"), offset) as usize;
            (Sid(key & 0xFFFF_FFFF), pid, offset, len)
        })
        .collect()
}

#[test]
fn every_flip_and_truncation_of_a_record_decodes_or_is_refused() {
    let db = database();
    let (sig_pager, _, m_max, _) = db.pcube().store().parts_ref();
    let records = records_of(&db, 0);
    assert!(records.len() >= 3, "the cell spans several partials");
    let mut refused = 0usize;
    for &(_, pid, offset, len) in &records {
        let start = offset + RECORD_HEADER;
        let record = sig_pager.page_bytes(pid).expect("a live page")[start..start + len].to_vec();
        // The record's nodes, `(SID, bit length)`, decoded into a scratch
        // table of fresh rows.
        let decode = |bytes: &[u8]| {
            let (mut table, mut nodes) = (NodeTable::new(m_max), Vec::new());
            decode_record(bytes, m_max, &mut table, &mut nodes).map(|_| nodes)
        };
        assert!(decode(&record).is_some(), "the stored record decodes");
        let mut check = |bytes: &[u8], what: String| {
            let (decoded, largest) = largest_allocation_of(|| decode(bytes));
            assert!(largest <= ALLOCATION_BOUND, "{what}: one allocation of {largest} bytes");
            if let Some(nodes) = &decoded {
                assert!(nodes.iter().all(|&(_, len)| len <= m_max), "{what}");
            }
            refused += usize::from(decoded.is_none());
        };
        for bit in 0..len * 8 {
            let mut flipped = record.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            check(&flipped, format!("bit {bit} of the record at {pid:?}+{offset}"));
        }
        for cut in 0..len {
            check(&record[..cut], format!("the first {cut} bytes of the record at {pid:?}+{offset}"));
        }
    }
    assert!(refused > 0, "some corruption must be detectable");
}

#[test]
fn a_flipped_stored_record_is_malformed_quarantined_and_degrades_the_cursor() {
    let mut db = database();
    let records = records_of(&db, 0);
    let mut malformed = 0usize;
    // Every bit of every record of the cell, its length header included, one
    // at a time through the store's own read path.
    for &(ref_sid, pid, offset, len) in &records {
        for bit in 0..(RECORD_HEADER + len) * 8 {
            let (at, mask) = (offset + bit / 8, 1u8 << (bit % 8));
            db.signature_store_mut().sig_pager_mut().corrupt_page(pid, at, mask).expect("live page");
            let store = db.pcube().store();
            let (loaded, largest) = largest_allocation_of(|| store.try_load_partial(0, ref_sid));
            assert!(largest <= ALLOCATION_BOUND, "bit {bit}: one allocation of {largest} bytes");
            match loaded {
                Ok(partial) => assert!(partial.is_some(), "the directory still lists the record"),
                Err(StorageError::Malformed { pid: bad, .. }) => {
                    assert_eq!(bad, pid);
                    assert!(store.parts_ref().0.is_quarantined(pid), "bit {bit}: not quarantined");
                    malformed += 1;
                }
                Err(other) => panic!("bit {bit}: unexpected error {other}"),
            }
            // Heal the page for the next flip.
            let pager = db.signature_store_mut().sig_pager_mut();
            pager.corrupt_page(pid, at, mask).expect("live page");
            pager.clear_quarantine(pid);
        }
    }
    assert!(malformed > 0, "some corruption must be detectable");

    // The reproduction from the issue, on the cell's root record: its first
    // node's bit length becomes 2^45. The cursor must keep answering — with
    // no false negative — instead of aborting in the allocator.
    let (root_sid, pid, offset, _) = records[0];
    assert_eq!(root_sid, Sid::ROOT);
    let poisoned: Vec<u8> = {
        let mut bytes = vec![0, 1, 0, 1]; // root SID 0, one node, SID 0, RLE tag
        pcube::bitmap::write_varint(&mut bytes, 1 << 45);
        bytes
    };
    let pager = db.signature_store_mut().sig_pager_mut();
    for (i, &byte) in poisoned.iter().enumerate() {
        let at = offset + RECORD_HEADER + i;
        let old = pager.page_bytes(pid).expect("a live page")[at];
        pager.corrupt_page(pid, at, old ^ byte).expect("live page");
    }
    let mut tuple_paths: Vec<Path> = Vec::new();
    db.rtree().for_each_tuple(|tid, path, _| {
        if db.relation().bool_code(tid, 0) == db.pcube().registry().key(0).expect("cell 0").values[0] {
            tuple_paths.push(path.clone());
        }
    });
    let (_, largest) = largest_allocation_of(|| {
        let mut cursor = db.pcube().store().cursor(0);
        for path in &tuple_paths {
            assert!(cursor.contains(path), "a degraded cursor prunes nothing it cannot prove empty");
        }
        assert!(cursor.is_degraded());
    });
    // The cursor's node map holds every node of the cell it has seen.
    assert!(largest <= 8 * ALLOCATION_BOUND, "one allocation of {largest} bytes");
    assert!(db.pcube().store().parts_ref().0.is_quarantined(pid));
}
