//! The two durable byte strings, pinned, and their decoder against any bytes.
//!
//! The image and the WAL are *formats*: what an older build wrote, this
//! build must read, and what this build writes must be what the older build
//! would have written. The first test says so with literals — an FNV-1a
//! digest of `durable_state().checkpoint` and of `.wal` at seven points of
//! one seeded script (after `create`, after commits, after a checkpoint,
//! after more commits, after recovery and another checkpoint, after a repair
//! of rotten signature pages, after a checkpoint that follows it). The first
//! five literals were computed on the commit *before* the checkpoint image
//! stopped keeping its own copy of every page, the repair rows before
//! commit, recovery and repair shared one apply function; none may be
//! edited for a refactor. A saved database is the same image:
//! `save_to_bytes()` of a fresh build *is* the checkpoint `create` captures,
//! after any checkpoint
//! the two agree past the 44-byte watermark header, and a saved buffer with
//! an empty log recovers clean.
//!
//! The second test feeds `DurableDb::open_or_recover_from_state` — the one
//! image decoder, with a log to replay on top — every truncation of a real
//! image, a bit flip at every sampled offset, seeded zeroed and overwritten
//! ranges, and — so that the page-table codec itself sees hostile bytes, not
//! just the section checksum in front of it — the same flips inside the
//! three page-table sections with the section checksum recomputed. Each one
//! is a typed error naming a section or a store that answers like the
//! original: no panic, no allocation beyond a few images' worth.
//!
//! This file is its own test binary because it installs the measuring
//! `#[global_allocator]` of `support/measuring_allocator.rs`.

#[path = "support/measuring_allocator.rs"]
mod measuring_allocator;

use measuring_allocator::largest_allocation_of;
use pcube::core::{
    DurabilityError, DurabilityOptions, DurableDb, DurableState, MaintenanceOp, MinCoordSum,
    PCubeConfig, PCubeDb, QueryBudget, SkylineClass, TopKClass,
};
use pcube::cube::Relation;
use pcube::data::{synthetic, Distribution, SyntheticSpec};
use pcube::storage::crc32;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ------------------------------------------------------------- the script --

fn fnv(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

fn relation(n_tuples: usize) -> Relation {
    synthetic(&SyntheticSpec {
        n_tuples,
        n_bool: 3,
        n_pref: 2,
        cardinality: 8,
        distribution: Distribution::Uniform,
        seed: 2101,
    })
}

/// `n_txns` seeded transactions of four operations each: inserts (every
/// tenth with a value no row had, so a cell is born and pages are allocated)
/// and deletes of live rows (the born cells die again, so pages are freed
/// and the free lists are not empty).
fn script(relation: &Relation, n_txns: usize) -> Vec<Vec<MaintenanceOp>> {
    let mut rng = StdRng::seed_from_u64(0x21_c4ec);
    let n_bool = relation.schema().n_bool();
    let n_pref = relation.schema().n_pref();
    let mut live: Vec<u64> = (0..relation.len() as u64).collect();
    let mut next_tid = relation.len() as u64;
    let mut newborn: Vec<u64> = Vec::new();
    let mut ops = Vec::new();
    for i in 0..4 * n_txns as u32 {
        if i % 10 == 7 {
            if let Some(tid) = newborn.pop() {
                live.retain(|&t| t != tid);
                ops.push(MaintenanceOp::Delete { tid });
                continue;
            }
        }
        if rng.gen_bool(0.5) {
            let mut codes: Vec<u32> = (0..n_bool).map(|_| rng.gen_range(0..8)).collect();
            if i % 10 == 3 {
                codes[0] = 8 + i;
                newborn.push(next_tid);
            }
            let coords: Vec<f64> = (0..n_pref).map(|_| rng.gen::<f64>()).collect();
            ops.push(MaintenanceOp::Insert { codes, coords });
            live.push(next_tid);
            next_tid += 1;
        } else {
            let tid = live.swap_remove(rng.gen_range(0..live.len()));
            ops.push(MaintenanceOp::Delete { tid });
        }
    }
    // A transaction may not delete a row it inserts itself.
    let txns: Vec<Vec<MaintenanceOp>> = ops.chunks(4).map(<[MaintenanceOp]>::to_vec).collect();
    let mut base = relation.len() as u64;
    for txn in &txns {
        for op in txn {
            if let MaintenanceOp::Delete { tid } = op {
                assert!(*tid < base, "the script deletes row {tid} in the transaction that inserts it");
            }
        }
        base += txn.iter().filter(|op| matches!(op, MaintenanceOp::Insert { .. })).count() as u64;
    }
    txns
}

fn config(page_size: usize) -> PCubeConfig {
    PCubeConfig { page_size, ..PCubeConfig::default() }
}

// ----------------------------------------------------------- pinned bytes --

/// `(point, checkpoint length, checkpoint digest, WAL length, WAL digest)`.
type Pin = (&'static str, usize, u64, usize, u64);

fn pin(point: &'static str, db: &DurableDb) -> Pin {
    let state = db.durable_state();
    (point, state.checkpoint.len(), fnv(&state.checkpoint), state.wal.len(), fnv(&state.wal))
}

/// Byte length of the image's magic and watermark header: what a checkpoint
/// advances and a save resets to generation zero.
const HEADER_LEN: usize = 8 + 36;

/// Right after a checkpoint, saving the live database writes the installed
/// image again, watermarks aside.
fn assert_saved_is_the_checkpoint(point: &str, db: &DurableDb) {
    let (saved, checkpoint) = (db.db().save_to_bytes(), db.durable_state().checkpoint);
    assert!(saved[HEADER_LEN..] == checkpoint[HEADER_LEN..], "{point}: saved and installed image differ");
}

/// The first five rows computed before the image stopped copying every
/// page; the two repair rows before commit, recovery and repair shared one
/// apply function.
const PINNED: &[Pin] = &[
    ("create", 527889, 0x67817150ac0947ec, 0, 0xcbf29ce484222325),
    ("20 commits", 527889, 0x67817150ac0947ec, 65998, 0x8535fc1101fad7a1),
    ("checkpoint", 531168, 0xf610dc6b73db516c, 33, 0xf05dc072b2ac8125),
    ("20 more commits", 531168, 0xf610dc6b73db516c, 67947, 0x9259a9f6a19d3704),
    ("recovered + checkpoint", 534928, 0x4ed9880fdd6e71e1, 33, 0xa9fb56ddee0d9762),
    ("repair", 534928, 0x4ed9880fdd6e71e1, 8239, 0x1f722cb9d5cca750),
    ("repair + checkpoint", 530832, 0x186e44d5d6f10a85, 33, 0xce4e5682f22484ae),
];

/// Flips one bit in every seventh live signature page of the master,
/// bypassing the log as media decay would, and returns how many it hit.
fn rot_some_signature_pages(db: &mut DurableDb) -> usize {
    let pager = db.signature_store_mut().sig_pager_mut();
    pager.set_checksums(true);
    let pages: Vec<_> = pager.live_page_ids().into_iter().step_by(7).collect();
    for (i, &pid) in pages.iter().enumerate() {
        pager.corrupt_page(pid, 29 + 13 * i, 0x10).expect("live page accepts corruption");
    }
    pages.len()
}

#[test]
fn checkpoint_wal_and_persist_bytes_are_the_parents() {
    let table = relation(4_000);
    let txns = script(&table, 40);
    let saved = PCubeDb::build(table.clone(), &config(512)).save_to_bytes();
    let mut db = DurableDb::create(table, &config(512), DurabilityOptions::default());
    assert!(saved == db.durable_state().checkpoint, "a saved fresh build is the checkpoint `create` captures");
    assert_saved_is_the_checkpoint("create", &db);
    let mut actual = vec![pin("create", &db)];
    for txn in &txns[..20] {
        db.apply(txn).expect("no crash plan is armed");
    }
    actual.push(pin("20 commits", &db));
    db.checkpoint().expect("checkpoint");
    actual.push(pin("checkpoint", &db));
    assert_saved_is_the_checkpoint("checkpoint", &db);
    for txn in &txns[20..] {
        db.apply(txn).expect("no crash plan is armed");
    }
    actual.push(pin("20 more commits", &db));
    let (mut recovered, report) =
        DurableDb::open_or_recover_from_state(&db.durable_state(), DurabilityOptions::default())
            .expect("recovery of a clean log");
    assert_eq!(report.txns_replayed, 20);
    assert_eq!(pin("20 more commits", &recovered), actual[3], "replay == live, byte for byte");
    recovered.checkpoint().expect("checkpoint after recovery");
    actual.push(pin("recovered + checkpoint", &recovered));
    assert_saved_is_the_checkpoint("recovered + checkpoint", &recovered);

    // A saved database is a checkpoint with an empty log.
    let state = DurableState { checkpoint: recovered.db().save_to_bytes(), wal: Vec::new() };
    let (reopened, report) = DurableDb::open_or_recover_from_state(&state, DurabilityOptions::default())
        .expect("a saved image opens as generation zero");
    assert!(report.clean, "{report}");
    assert_eq!((report.checkpoint_epoch, report.checkpoint_txns), (1, 0));
    assert_eq!(answers(reopened.db()), answers(recovered.db()));

    // Repair logs one `SigRebuild` per damaged cell and rewrites those
    // cells' pages; replaying that transaction rewrites the same bytes.
    let damaged = rot_some_signature_pages(&mut recovered);
    let scrubbed = recovered.scrub(&QueryBudget::unlimited());
    assert_eq!(scrubbed.newly_quarantined as usize, damaged, "{scrubbed}");
    let outcome = recovered.repair().expect("repair");
    assert!(outcome.cells_rebuilt > 0, "{outcome}");
    actual.push(pin("repair", &recovered));
    let (replayed, report) =
        DurableDb::open_or_recover_from_state(&recovered.durable_state(), DurabilityOptions::default())
            .expect("recovery of a repair");
    assert_eq!(report.txns_replayed, 1);
    assert_eq!(answers(replayed.db()), answers(reopened.db()));
    recovered.checkpoint().expect("checkpoint after repair");
    actual.push(pin("repair + checkpoint", &recovered));
    assert_saved_is_the_checkpoint("repair + checkpoint", &recovered);
    let mut replayed = replayed;
    replayed.checkpoint().expect("checkpoint after the replayed repair");
    assert_eq!(pin("repair + checkpoint", &replayed), actual[6], "replayed repair == live, byte for byte");

    let show = |rows: &[Pin]| -> String {
        rows.iter()
            .map(|(p, cl, cd, wl, wd)| format!("    ({p:?}, {cl}, {cd:#018x}, {wl}, {wd:#018x}),\n"))
            .collect()
    };
    assert_eq!(show(&actual), show(PINNED), "actual bytes:\n{}", show(&actual));
}

// ------------------------------------------------------ any bytes, typed --

/// A skyline and a top-5, as printed rows.
fn answers(db: &PCubeDb) -> String {
    let f = MinCoordSum::new(vec![0, 1]);
    format!(
        "{:?}\n{:?}",
        db.run(&Vec::new(), &SkylineClass::new(vec![0, 1])).rows,
        db.run(&Vec::new(), &TopKClass::new(5, &f)).rows
    )
}

/// `(offset of the payload, payload length)` of each framed section of a
/// checkpoint image: `magic 8 | watermarks 36 | [tag u8][len u64][payload]
/// [crc32 u32] …`.
fn sections(image: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut pos = HEADER_LEN;
    while pos < image.len() {
        let len = u64::from_le_bytes(image[pos + 1..pos + 9].try_into().expect("8 bytes")) as usize;
        out.push((pos + 9, len));
        pos += 9 + len + 4;
    }
    assert_eq!(pos, image.len(), "the image is exactly its sections");
    out
}

#[test]
fn any_bytes_are_a_typed_error_or_the_same_store() {
    let table = relation(60);
    let txns = script(&table, 6);
    let mut db = DurableDb::create(table, &config(256), DurabilityOptions::default());
    for txn in &txns[..4] {
        db.apply(txn).expect("apply");
    }
    db.checkpoint().expect("checkpoint");
    for txn in &txns[4..] {
        db.apply(txn).expect("apply");
    }
    let clean = db.durable_state();
    let want = answers(db.db());
    let want_unreplayed = answers(&PCubeDb::load_from_bytes(&clean.checkpoint).expect("the clean image"));
    let bound = 4 * clean.checkpoint.len();

    // `true` when the bytes opened (as the same store), `false` when they
    // were refused with a typed error. `load_from_bytes` is the same decoder
    // without the log: it loads what recovery opens and refuses what
    // recovery refuses, with the same error.
    let opens = |checkpoint: Vec<u8>, what: String| -> bool {
        let state = DurableState { checkpoint, wal: clean.wal.clone() };
        let (result, largest) = largest_allocation_of(|| {
            DurableDb::open_or_recover_from_state(&state, DurabilityOptions::default())
        });
        assert!(largest <= bound, "{what}: one allocation of {largest} bytes (image {})", bound / 4);
        match result {
            Ok((recovered, _)) => {
                assert_eq!(answers(recovered.db()), want, "{what}: opened, answers differ");
                let loaded = PCubeDb::load_from_bytes(&state.checkpoint);
                let loaded = loaded.unwrap_or_else(|e| panic!("{what}: opened, but does not load: {e}"));
                assert_eq!(answers(&loaded), want_unreplayed, "{what}: loaded, answers differ");
                true
            }
            Err(DurabilityError::Persist(e)) => {
                assert!(e.section.starts_with("checkpoint-"), "{what}: {e} names no section of the image");
                assert!(e.offset <= state.checkpoint.len() && !e.cause.is_empty(), "{what}: {e}");
                assert_eq!(PCubeDb::load_from_bytes(&state.checkpoint).err(), Some(e), "{what}");
                false
            }
            Err(other) => panic!("{what}: unexpected error {other}"),
        }
    };

    assert!(opens(clean.checkpoint.clone(), "the clean image".to_string()));

    // Every truncation.
    for cut in 0..clean.checkpoint.len() {
        let what = format!("the first {cut} bytes");
        assert!(!opens(clean.checkpoint[..cut].to_vec(), what.clone()), "{what} opened");
    }

    // A bit flip at every sampled offset (every bit of the header and of the
    // first section header; one bit of every third byte after them): each is
    // caught by a checksum.
    for at in (0..64).chain((64..clean.checkpoint.len()).step_by(3)) {
        for bit in if at < 64 { 0..8 } else { (at % 8)..(at % 8 + 1) } {
            let mut flipped = clean.checkpoint.clone();
            flipped[at] ^= 1 << bit;
            let what = format!("bit {bit} of byte {at}");
            assert!(!opens(flipped, what.clone()), "{what} opened");
        }
    }

    // Seeded zeroed ranges and random overwrites: refused, or — when the
    // range held those bytes already — the same store.
    for seed in 0..300u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mutated = clean.checkpoint.clone();
        let start = rng.gen_range(0..mutated.len());
        let len = rng.gen_range(1..256usize).min(mutated.len() - start);
        for b in &mut mutated[start..start + len] {
            *b = if seed % 2 == 0 { 0 } else { rng.gen::<u8>() };
        }
        opens(mutated, format!("seed {seed}: {len} bytes from {start} overwritten"));
    }

    // The same flips inside the three page-table sections with the section
    // checksum recomputed, so the page-table codec decodes them: a flipped
    // page byte fails its page checksum, a flipped tag or count no longer
    // adds up to the section, a flipped free-list entry opens a store whose
    // live pages are the original's.
    let page_tables = sections(&clean.checkpoint)[1..].to_vec();
    assert_eq!(page_tables.len(), 3, "meta, then R-tree, signature and directory pages");
    let mut refused = 0usize;
    for (start, len) in page_tables {
        for at in (start..start + len).step_by(5).chain(start..start + 16) {
            let mut flipped = clean.checkpoint.clone();
            flipped[at] ^= 1 << (at % 8);
            let sum = crc32(&flipped[start..start + len]);
            flipped[start + len..start + len + 4].copy_from_slice(&sum.to_le_bytes());
            refused += usize::from(!opens(flipped, format!("byte {at} re-framed")));
        }
    }
    assert!(refused > 0, "some corruption must be detectable");
}
