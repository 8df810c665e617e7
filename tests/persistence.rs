//! Save/open roundtrips: a reloaded database must answer every query
//! identically and accept further maintenance. A saved database is a
//! checkpoint image of generation zero (`pcube::core::persist`), so the
//! sections errors name are that format's.

use pcube::core::{LinearFn, PCubeConfig, PCubeDb, SkylineClass, TopKClass};
use pcube::data::{sample_selection, synthetic, SyntheticSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn build() -> PCubeDb {
    let spec = SyntheticSpec {
        n_tuples: 1500,
        n_bool: 3,
        n_pref: 2,
        cardinality: 8,
        ..Default::default()
    };
    PCubeDb::build(synthetic(&spec), &PCubeConfig::default())
}

#[test]
fn bytes_roundtrip_preserves_every_answer() {
    let db = build();
    let bytes = db.save_to_bytes();
    let reloaded = PCubeDb::load_from_bytes(&bytes).expect("loads");
    assert_eq!(reloaded.relation().len(), db.relation().len());
    assert_eq!(reloaded.rtree().height(), db.rtree().height());
    assert_eq!(reloaded.pcube().registry().len(), db.pcube().registry().len());
    reloaded.rtree().check_invariants();

    let mut rng = StdRng::seed_from_u64(1);
    let f = LinearFn::new(vec![0.6, 0.4]);
    for n_preds in 0..=2 {
        for _ in 0..3 {
            let sel = sample_selection(db.relation(), n_preds, &mut rng);
            let a = db.run(&sel, &SkylineClass::new(vec![0, 1]));
            let b = reloaded.run(&sel, &SkylineClass::new(vec![0, 1]));
            let mut ta: Vec<u64> = a.rows.iter().map(|p| p.0).collect();
            let mut tb: Vec<u64> = b.rows.iter().map(|p| p.0).collect();
            ta.sort_unstable();
            tb.sort_unstable();
            assert_eq!(ta, tb, "skyline mismatch for {sel:?}");

            let x = db.run(&sel, &TopKClass::new(5, &f));
            let y = reloaded.run(&sel, &TopKClass::new(5, &f));
            assert_eq!(x.rows.len(), y.rows.len());
            for (p, q) in x.rows.iter().zip(&y.rows) {
                assert!((p.2 - q.2).abs() < 1e-12);
            }
        }
    }
}

#[test]
fn reloaded_database_accepts_inserts() {
    let db = build();
    let mut reloaded = PCubeDb::load_from_bytes(&db.save_to_bytes()).unwrap();
    for i in 0..40u64 {
        let f = i as f64;
        reloaded.insert_coded(&[i as u32 % 8, 0, 1], &[(f * 0.37) % 1.0, (f * 0.61) % 1.0]);
    }
    reloaded.rtree().check_invariants();
    assert_eq!(reloaded.relation().len(), 1540);
    // New rows are findable.
    let sel = vec![pcube::cube::Predicate { dim: 2, value: 1 }];
    let out = reloaded.run(&sel, &SkylineClass::new(vec![0, 1]));
    assert!(!out.rows.is_empty());
    // Second roundtrip after maintenance.
    let again = PCubeDb::load_from_bytes(&reloaded.save_to_bytes()).unwrap();
    let out2 = again.run(&sel, &SkylineClass::new(vec![0, 1]));
    assert_eq!(out.rows.len(), out2.rows.len());
}

#[test]
fn file_roundtrip() {
    let db = build();
    let path = std::env::temp_dir().join(format!("pcube_test_{}.db", std::process::id()));
    db.save(&path).expect("save");
    let reloaded = PCubeDb::open(&path).expect("open");
    assert_eq!(reloaded.relation().len(), db.relation().len());
    // String dictionaries survive: selection by name still binds.
    let out = reloaded.run(&Vec::new(), &SkylineClass::new(vec![0, 1]));
    assert!(!out.rows.is_empty());
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupt_images_are_rejected_not_panicking() {
    let db = build();
    let bytes = db.save_to_bytes();
    assert!(PCubeDb::load_from_bytes(b"not a database").is_err());
    assert!(PCubeDb::load_from_bytes(&bytes[..bytes.len() / 2]).is_err());
    let mut wrong_magic = bytes.clone();
    wrong_magic[0] = b'X';
    assert!(PCubeDb::load_from_bytes(&wrong_magic).is_err());
    let mut trailing = bytes.clone();
    trailing.push(0);
    assert!(PCubeDb::load_from_bytes(&trailing).is_err());
}

fn load_err(buf: &[u8]) -> pcube::core::PersistError {
    match PCubeDb::load_from_bytes(buf) {
        Err(e) => e,
        Ok(_) => panic!("expected the load to fail"),
    }
}

#[test]
fn persist_errors_pinpoint_section_and_offset() {
    let db = build();
    let bytes = db.save_to_bytes();

    // Zero-length buffer.
    let e = load_err(&[]);
    assert_eq!(e.section, "checkpoint-header");
    assert!(e.cause.contains("shorter than the header"), "{e}");

    // Wrong magic, short and long; an unknown version byte is a wrong magic.
    let mut future = bytes.clone();
    future[7] = b'9';
    for wrong in [&b"NOTADB99"[..], &[b'x'; 64][..], &future[..]] {
        let e = load_err(wrong);
        assert_eq!((e.section, e.offset), ("checkpoint-header", 0), "{e}");
    }

    // The two retired formats are refused by name, from the header alone or
    // in front of a whole file.
    let mut old_file = bytes.clone();
    old_file[..8].copy_from_slice(b"PCUBEDB2");
    for (legacy, version) in [(&b"PCUBEDB1"[..], 1), (&b"PCUBEDB2"[..], 2), (&old_file[..], 2)] {
        let e = load_err(legacy);
        assert_eq!((e.section, e.offset), ("checkpoint-header", 7), "{e}");
        assert!(e.cause.contains(&format!("unsupported format version {version}")), "{e}");
    }

    // A flipped watermark is caught by the header's own checksum.
    let mut skewed = bytes.clone();
    skewed[16] ^= 1;
    let e = load_err(&skewed);
    assert_eq!(e.section, "checkpoint-header");
    assert!(e.cause.contains("watermark checksum mismatch"), "{e}");

    // Truncation inside a section.
    let e = load_err(&bytes[..bytes.len() - 10]);
    assert!(!e.section.is_empty());
    assert!(e.offset <= bytes.len(), "{e}");

    // A bit flip anywhere in a section payload trips that section's CRC.
    for &at in &[60usize, bytes.len() / 3, bytes.len() / 2, bytes.len() - 20] {
        let mut flipped = bytes.clone();
        flipped[at] ^= 0x10;
        let e = load_err(&flipped);
        assert!(
            e.cause.contains("checksum mismatch")
                || e.cause.contains("section")
                || e.cause.contains("truncated"),
            "byte {at}: unexpected error {e}"
        );
        assert!(!e.section.is_empty(), "byte {at}: error must name a section");
    }
}

#[test]
fn truncated_trailing_section_names_the_section_not_a_length_error() {
    // A partial write that cuts the *last* section short — the classic
    // torn-file shape — must be reported as a truncation of that section
    // by name ("checkpoint-directory", the trailing section of the image),
    // not as a generic length complaint against the whole image.
    let db = build();
    let bytes = db.save_to_bytes();

    // Find where the trailing directory section begins: its 9-byte header
    // (tag 4 + u64 length) is the last section header in the image.
    // Walk the framing from the front to locate it robustly.
    let mut pos = 8 + 36; // magic, watermarks and their checksum
    let mut last_body = 0usize;
    while pos + 9 <= bytes.len() {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&bytes[pos + 1..pos + 9]);
        let len = u64::from_le_bytes(raw) as usize;
        last_body = pos + 9;
        pos = pos + 9 + len + 4;
    }
    assert_eq!(pos, bytes.len(), "walked framing must land on the image end");
    assert_eq!(bytes[last_body - 9], 4, "trailing section must be the directory tag");

    // Cut at several depths inside the trailing section: just after the
    // header, mid-payload, and one byte short of complete.
    for cut in [last_body, last_body + (bytes.len() - last_body) / 2, bytes.len() - 1] {
        let e = load_err(&bytes[..cut]);
        assert_eq!(
            e.section, "checkpoint-directory",
            "cut at {cut}: wrong section named: {e}"
        );
        assert!(
            e.cause.contains("truncated"),
            "cut at {cut}: cause must say the section is truncated, got: {e}"
        );
        assert!(
            !e.cause.contains("implausible"),
            "cut at {cut}: a clean truncation must not be reported as corruption: {e}"
        );
    }

    // Cutting *inside the header itself* is still attributed to the
    // directory section at the header's offset.
    let e = load_err(&bytes[..last_body - 5]);
    assert_eq!(e.section, "checkpoint-directory", "header cut: {e}");
}

#[test]
fn quiescent_fault_plan_does_not_perturb_roundtrip() {
    // An installed-but-zero-probability fault plan must be a no-op: the
    // saved image (frozen clones of the pagers, which carry no plan) and
    // every reloaded answer stay identical.
    let mut db = build();
    let clean_bytes = db.save_to_bytes();
    db.signature_store_mut()
        .sig_pager_mut()
        .set_fault_plan(pcube::storage::FaultPlan::seeded(99));
    let with_plan = db.save_to_bytes();
    assert_eq!(clean_bytes, with_plan, "quiescent plan changed the image");

    let reloaded = PCubeDb::load_from_bytes(&with_plan).expect("loads");
    let mut rng = StdRng::seed_from_u64(7);
    for n_preds in 0..=2 {
        let sel = sample_selection(db.relation(), n_preds, &mut rng);
        let a = db.run(&sel, &SkylineClass::new(vec![0, 1]));
        let b = reloaded.run(&sel, &SkylineClass::new(vec![0, 1]));
        let mut ta: Vec<u64> = a.rows.iter().map(|p| p.0).collect();
        let mut tb: Vec<u64> = b.rows.iter().map(|p| p.0).collect();
        ta.sort_unstable();
        tb.sort_unstable();
        assert_eq!(ta, tb, "skyline mismatch for {sel:?}");
    }
    assert_eq!(
        db.signature_store_mut().sig_pager_mut().fault_counts().map_or(0, |c| c.total()),
        0,
        "a quiescent plan must never fire"
    );
}
