//! The image: one on-disk format for a built database, whether it was saved
//! by hand or installed by a checkpoint.
//!
//! Building a P-Cube over millions of rows takes seconds; reloading a saved
//! one takes a memcpy. A [`CheckpointImage`] is the non-paged metadata
//! (relation, cell registry, cuboid list, tree scalars) plus one frozen
//! copy-on-write [`Pager`] per paged store (R-tree, signatures, signature
//! directory). [`PCubeDb::save_to_bytes`] captures one at generation zero —
//! a saved database *is* a checkpoint with an empty log, so
//! `DurableDb::open_or_recover_from_state` opens it as is — and
//! [`PCubeDb::load_from_bytes`] is [`CheckpointImage::from_bytes`] followed
//! by a restore. `DurableDb::checkpoint` keeps the same image current and
//! writes the same bytes. File-path convenience wrappers are provided.
//!
//! The format is versioned, little-endian and length-prefixed — deliberately
//! hand-rolled so the workspace keeps its tiny dependency footprint:
//!
//! ```text
//! "PCUBECK2" | epoch u64 | txns u64 | next_txn u64 | next_lsn u64 | crc32 u32
//! then four sections, each [tag u8][len u64][payload][crc32(payload) u32]:
//!   1 checkpoint-meta        relation, cube, R-tree / store / directory scalars
//!   2 checkpoint-rtree       page table (`Pager::write_table`)
//!   3 checkpoint-signatures  page table
//!   4 checkpoint-directory   page table
//! ```
//!
//! A corrupt, truncated or oversized image yields a [`PersistError`] naming
//! the failing section and the absolute byte offset, never a panic and never
//! an allocation sized by an unchecked count; the files of the two retired
//! formats (`PCUBEDB1`, `PCUBEDB2`) are refused by name. See `DESIGN.md`
//! §10.3.
//!
//! # Example
//!
//! ```
//! use pcube_core::{PCubeConfig, PCubeDb};
//! use pcube_cube::{Relation, Schema};
//!
//! let mut r = Relation::new(Schema::new(&["kind"], &["x", "y"]));
//! r.push(&["a"], &[0.1, 0.9]);
//! r.push(&["b"], &[0.7, 0.2]);
//! let db = PCubeDb::build(r, &PCubeConfig::default());
//!
//! let image = db.save_to_bytes();
//! let again = PCubeDb::load_from_bytes(&image).unwrap();
//! assert_eq!(again.relation().len(), 2);
//! ```

use std::path::{Path, PathBuf};
use std::sync::Arc;

use pcube_cube::{CellKey, CuboidMask, Relation, Schema};
use pcube_rtree::{RTree, RTreeConfig};
use pcube_bptree::BPlusTree;
use pcube_storage::{crc32, IoCategory, IoStats, Lsn, PageId, Pager, SharedStats};

use crate::pcube::{PCube, PCubeDb};
use crate::store::SignatureStore;

/// 8-byte magic of an image; the version is the last byte.
const MAGIC: &[u8; 8] = b"PCUBECK2";
/// What the files of the two retired formats (persist-v1, persist-v2) start
/// with; their version is the byte after it.
const LEGACY_MAGIC_PREFIX: &[u8; 7] = b"PCUBEDB";
/// Where the watermark header ends: the magic, four u64 watermarks (epoch,
/// txns, next_txn, next_lsn) and their CRC32.
const HEADER_END: usize = 8 + 32 + 4;
/// Bytes of section framing in front of a payload: `[tag u8][len u64]`.
const SECTION_HEAD_LEN: usize = 1 + 8;
/// Section tags, in file order: the metadata, then one page table per store.
const TAG_META: u8 = 1;
const PAGE_SECTIONS: [(u8, &str, IoCategory); 3] = [
    (2, "checkpoint-rtree", IoCategory::RtreeBlock),
    (3, "checkpoint-signatures", IoCategory::SignaturePage),
    (4, "checkpoint-directory", IoCategory::BptreePage),
];

/// A serialization or deserialization failure, pinpointing the failing
/// section and the absolute byte offset in the image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistError {
    /// Which part of the image failed: `checkpoint-header`,
    /// `checkpoint-meta`, `checkpoint-rtree`, `checkpoint-signatures`,
    /// `checkpoint-directory`, `checkpoint-image` (bytes after the last
    /// section), or `file` (I/O wrappers).
    pub section: &'static str,
    /// Absolute byte offset in the image where the failure was detected.
    pub offset: usize,
    /// Human-readable description of what went wrong.
    pub cause: String,
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "persist error: {} section, byte {}: {}", self.section, self.offset, self.cause)
    }
}

impl std::error::Error for PersistError {}

fn fail<T>(section: &'static str, offset: usize, cause: impl Into<String>) -> Result<T, PersistError> {
    Err(PersistError { section, offset, cause: cause.into() })
}

// ------------------------------------------------------------ wire format --

/// Reads one section's payload, carrying the section name and the payload's
/// absolute position so every error can name an exact image offset.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'static str,
    /// Absolute offset of `buf[0]` within the whole image.
    base: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, which sits at byte `base` of the image.
    fn over(buf: &'a [u8], section: &'static str, base: usize) -> Self {
        Reader { buf, pos: 0, section, base }
    }

    fn err<T>(&self, cause: impl Into<String>) -> Result<T, PersistError> {
        fail(self.section, self.base + self.pos, cause)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let out = &self.buf[self.pos..end];
                self.pos = end;
                Ok(out)
            }
            None => self.err("truncated input"),
        }
    }

    /// Everything from the current position to the end of the payload,
    /// consuming it.
    fn remaining_bytes(&mut self) -> &'a [u8] {
        let out = &self.buf[self.pos..];
        self.pos = self.buf.len();
        out
    }

    fn u32(&mut self) -> Result<u32, PersistError> {
        let mut raw = [0u8; 4];
        raw.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(raw))
    }

    fn u64(&mut self) -> Result<u64, PersistError> {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(raw))
    }

    fn f64(&mut self) -> Result<f64, PersistError> {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(self.take(8)?);
        Ok(f64::from_le_bytes(raw))
    }

    fn string(&mut self) -> Result<String, PersistError> {
        let len = self.count(8, 1, "string length")?;
        let bytes = self.take(len)?;
        match String::from_utf8(bytes.to_vec()) {
            Ok(s) => Ok(s),
            Err(_) => {
                self.pos -= len; // point the error at the string, not past it
                self.err("bad utf-8")
            }
        }
    }

    /// Reads a count (u32 when `width == 4`, u64 when `width == 8`) and
    /// rejects it if `count * min_elem_size` exceeds the remaining payload —
    /// the guard that keeps a bit-flipped length field from turning into a
    /// multi-gigabyte `Vec::with_capacity`.
    fn count(&mut self, width: usize, min_elem_size: usize, what: &str) -> Result<usize, PersistError> {
        let start = self.pos;
        let raw = match width {
            4 => u64::from(self.u32()?),
            _ => self.u64()?,
        };
        let remaining = self.buf.len() - self.pos;
        let plausible = usize::try_from(raw)
            .ok()
            .and_then(|c| c.checked_mul(min_elem_size))
            .is_some_and(|need| need <= remaining);
        if !plausible {
            self.pos = start;
            return self.err(format!("{what} {raw} exceeds the remaining section bytes"));
        }
        Ok(raw as usize)
    }

    /// Parses an embedded page table ([`Pager::read_table`]) starting at the
    /// current position, translating its [`pcube_storage::ImageError`]
    /// offset into an absolute image offset.
    fn pager(&mut self, category: IoCategory, stats: SharedStats) -> Result<Pager, PersistError> {
        match Pager::read_table(&self.buf[self.pos..], category, stats) {
            Ok((pager, used)) => {
                self.pos += used;
                Ok(pager)
            }
            Err(e) => fail(self.section, self.base + self.pos + e.offset, e.cause),
        }
    }

    /// Fails unless the whole payload was consumed.
    fn finish(self) -> Result<(), PersistError> {
        if self.pos != self.buf.len() {
            return self.err("trailing bytes inside the section");
        }
        Ok(())
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Appends one framed section, `[tag][len][payload][crc32(payload)]`. The
/// payload is written straight into `out` by `write` and its length patched
/// in afterwards, so no byte of it is copied twice.
fn put_section(out: &mut Vec<u8>, tag: u8, write: impl FnOnce(&mut Vec<u8>)) {
    out.push(tag);
    put_u64(out, 0);
    let body = out.len();
    write(out);
    let len = (out.len() - body) as u64;
    out[body - 8..body].copy_from_slice(&len.to_le_bytes());
    let sum = crc32(&out[body..]);
    put_u32(out, sum);
}

/// Validates the framing of the next section (`tag`, length, CRC) and hands
/// back a [`Reader`] over its payload.
fn open_section<'a>(
    image: &'a [u8],
    pos: &mut usize,
    tag: u8,
    name: &'static str,
) -> Result<Reader<'a>, PersistError> {
    let header = *pos;
    if image.len() - header < SECTION_HEAD_LEN {
        return fail(name, header, "image truncated before the section header");
    }
    if image[header] != tag {
        return fail(name, header, format!("unexpected section tag {}", image[header]));
    }
    let body = header + SECTION_HEAD_LEN;
    let len = Reader::over(&image[header + 1..body], name, header + 1).u64()?;
    let avail = image.len() - body;
    // Distinguish a *truncated* section (a partial write cut the payload or
    // trailing checksum short — the length field itself is fine) from an
    // *implausible* length (corruption of the length field): recovery
    // tooling treats the two very differently.
    match usize::try_from(len).ok().and_then(|l| l.checked_add(4)) {
        None => {
            return fail(name, header + 1, format!("implausible section length {len}"));
        }
        Some(need) if need > avail => {
            return fail(
                name,
                header + 1,
                format!(
                    "section truncated: {len}-byte payload plus checksum needs {need} bytes, \
                     only {avail} remain in the image"
                ),
            );
        }
        Some(_) => {}
    }
    let len = len as usize;
    let payload = &image[body..body + len];
    let stored = Reader::over(&image[body + len..], name, body + len).u32()?;
    let computed = crc32(payload);
    if stored != computed {
        return fail(
            name,
            body + len,
            format!("section checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"),
        );
    }
    *pos = body + len + 4;
    Ok(Reader::over(payload, name, body))
}

/// Serializes a relation (schema, dictionaries, columns) into `payload`.
fn write_relation_payload(relation: &Relation, payload: &mut Vec<u8>) {
    let schema = relation.schema();
    put_u32(payload, schema.n_bool() as u32);
    for d in 0..schema.n_bool() {
        put_string(payload, schema.bool_name(d));
    }
    put_u32(payload, schema.n_pref() as u32);
    for d in 0..schema.n_pref() {
        put_string(payload, schema.pref_name(d));
    }
    for d in 0..schema.n_bool() {
        let values = relation.dictionary(d).values();
        put_u64(payload, values.len() as u64);
        for v in values {
            put_string(payload, v);
        }
    }
    put_u64(payload, relation.len() as u64);
    for d in 0..schema.n_bool() {
        for c in relation.bool_column(d) {
            put_u32(payload, c);
        }
    }
    for d in 0..schema.n_pref() {
        for x in relation.pref_column(d) {
            put_f64(payload, x);
        }
    }
}

/// Restores a relation written by [`write_relation_payload`]. The returned
/// relation has no I/O ledger attached yet.
fn read_relation_payload(r: &mut Reader<'_>) -> Result<Relation, PersistError> {
    let n_bool = r.count(4, 8, "boolean dimension count")?;
    let mut bool_names = Vec::with_capacity(n_bool);
    for _ in 0..n_bool {
        bool_names.push(r.string()?);
    }
    let n_pref = r.count(4, 8, "preference dimension count")?;
    if n_pref == 0 {
        return r.err("no preference dimensions");
    }
    let mut pref_names = Vec::with_capacity(n_pref);
    for _ in 0..n_pref {
        pref_names.push(r.string()?);
    }
    let schema = Schema::new(
        &bool_names.iter().map(String::as_str).collect::<Vec<_>>(),
        &pref_names.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    let mut relation = Relation::new(schema);
    for d in 0..n_bool {
        let n_values = r.count(8, 8, "dictionary size")?;
        let mut values = Vec::with_capacity(n_values);
        for _ in 0..n_values {
            values.push(r.string()?);
        }
        relation.restore_dictionary(d, &values);
    }
    let n_rows = r.count(8, (n_bool * 4 + n_pref * 8).max(1), "row count")?;
    let mut bool_cols = vec![Vec::with_capacity(n_rows); n_bool];
    for col in bool_cols.iter_mut() {
        for _ in 0..n_rows {
            col.push(r.u32()?);
        }
    }
    let mut pref_cols = vec![Vec::with_capacity(n_rows); n_pref];
    for col in pref_cols.iter_mut() {
        for _ in 0..n_rows {
            col.push(r.f64()?);
        }
    }
    let mut row = 0;
    relation.append_rows(n_rows, |codes, coords| {
        for (c, col) in codes.iter_mut().zip(&bool_cols) {
            *c = col[row];
        }
        for (x, col) in coords.iter_mut().zip(&pref_cols) {
            *x = col[row];
        }
        row += 1;
    });
    Ok(relation)
}

/// Makes live exactly the rows the R-tree holds. An image stores every row
/// ever appended and no live set: a deleted row is the one the tree no
/// longer indexes.
fn restore_live_rows(relation: &mut Relation, rtree: &RTree) -> Result<(), PersistError> {
    let mut tids = Vec::new();
    rtree.for_each_tuple(|tid, _, _| tids.push(tid));
    relation.restore_live(tids).or_else(|tid| {
        fail("checkpoint-rtree", 0, format!("the R-tree indexes tuple {tid}, which is not a row of the relation"))
    })
}

/// Serializes the cube metadata (cuboid list + cell registry in code order)
/// into `payload`.
fn write_cube_payload(pcube: &PCube, payload: &mut Vec<u8>) {
    put_u64(payload, pcube.cuboids.len() as u64);
    for m in &pcube.cuboids {
        put_u32(payload, m.0);
    }
    put_u64(payload, pcube.registry.len() as u64);
    for code in 0..pcube.registry.len() as u32 {
        let key = pcube.registry.key(code).expect("dense codes");
        put_u32(payload, key.mask.0);
        put_u64(payload, key.values.len() as u64);
        for &v in &key.values {
            put_u32(payload, v);
        }
    }
}

/// Restores the cuboid list and registry written by [`write_cube_payload`].
fn read_cube_payload(
    r: &mut Reader<'_>,
) -> Result<(Vec<CuboidMask>, pcube_cube::CellRegistry), PersistError> {
    let n_cuboids = r.count(8, 4, "cuboid count")?;
    let mut cuboids = Vec::with_capacity(n_cuboids);
    for _ in 0..n_cuboids {
        cuboids.push(CuboidMask(r.u32()?));
    }
    let n_cells = r.count(8, 4 + 8, "cell count")?;
    let mut registry = pcube_cube::CellRegistry::new();
    for expected in 0..n_cells as u32 {
        let mask = CuboidMask(r.u32()?);
        let n_values = r.count(8, 4, "cell value count")?;
        let mut values = Vec::with_capacity(n_values);
        for _ in 0..n_values {
            values.push(r.u32()?);
        }
        let code = registry.intern(CellKey { mask, values });
        if code != expected {
            return r.err("registry codes are not dense");
        }
    }
    Ok((cuboids, registry))
}

/// Serializes the non-paged state of a database — the `checkpoint-meta`
/// payload: relation, cube, then the scalars of the R-tree (`dims`, `m_max`,
/// `m_min`, `root`, `height`, `len`), of the signature store (`m_max`,
/// `height`) and of its directory B+-tree (`root`, `height`, `len`).
pub(crate) fn meta_payload(db: &PCubeDb) -> Vec<u8> {
    let mut meta = Vec::new();
    write_relation_payload(&db.relation, &mut meta);
    write_cube_payload(&db.pcube, &mut meta);
    let (root, height, len) = db.rtree.parts();
    put_u32(&mut meta, db.rtree.dims() as u32);
    put_u32(&mut meta, db.rtree.m_max() as u32);
    put_u32(&mut meta, db.rtree.m_min() as u32);
    put_u32(&mut meta, root.0);
    put_u64(&mut meta, height as u64);
    put_u64(&mut meta, len);
    let (_, directory, sig_m_max, sig_height) = db.pcube.store.parts_ref();
    put_u64(&mut meta, sig_m_max as u64);
    put_u64(&mut meta, sig_height as u64);
    let (root, height, len) = directory.parts();
    put_u32(&mut meta, root.0);
    put_u64(&mut meta, height as u64);
    put_u64(&mut meta, len);
    meta
}

// -------------------------------------------------------------- the image --

/// A database image: metadata (relation, registry, cuboids, tree scalars)
/// plus one *frozen* [`Pager`] per paged store (R-tree, signatures,
/// directory). A frozen pager is a copy-on-write clone of the database's: it
/// shares every page the database has not rewritten since, keeps the CRC32
/// each page had when it entered, carries no fault plan and no dirty set,
/// and is never read through a counted path. [`PCubeDb::save_to_bytes`]
/// captures one and serializes it; a `DurableDb` holds one as its checkpoint,
/// re-points the dirty slots at every checkpoint and installs it atomically.
#[derive(Debug, Clone)]
pub struct CheckpointImage {
    pub(crate) epoch: u64,
    /// Committed transactions whose effects the image contains — the replay
    /// cutoff: recovery re-executes only transactions beyond this.
    pub(crate) txns: u64,
    pub(crate) next_txn: u64,
    pub(crate) next_lsn: Lsn,
    pub(crate) meta: Vec<u8>,
    /// R-tree, signature and directory pages, in `PAGE_SECTIONS` order.
    pub(crate) pagers: [Pager; 3],
}

impl CheckpointImage {
    /// Full capture of `db` at generation zero (epoch 1, no transaction, an
    /// empty log): three frozen pager clones, checksummed once — a pager
    /// that already keeps checksums brings the sums it holds, so a page that
    /// rotted in memory is refused on load rather than laundered.
    pub(crate) fn capture(db: &PCubeDb) -> Self {
        let (sig_pager, directory, ..) = db.pcube.store.parts_ref();
        let pagers = [db.rtree.pager(), sig_pager, directory.pager()].map(|pager| {
            let mut frozen = pager.clone();
            frozen.take_fault_plan();
            frozen.take_dirty();
            frozen.set_read_delay(None);
            if !frozen.checksums_enabled() {
                frozen.set_checksums(true);
            }
            frozen
        });
        CheckpointImage { epoch: 1, txns: 0, next_txn: 1, next_lsn: 1, meta: meta_payload(db), pagers }
    }

    /// The committed-transaction watermark (the replay cutoff).
    pub fn txns(&self) -> u64 {
        self.txns
    }

    /// The epoch the image was installed at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Serializes the image (magic, watermarks, framed sections). Page
    /// checksums are the ones the frozen pagers hold.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        for word in [self.epoch, self.txns, self.next_txn, self.next_lsn] {
            put_u64(&mut out, word);
        }
        // The sections below are CRC-framed; the watermarks need their own
        // checksum or a flipped bit silently skews the replay cutoff.
        let head_crc = crc32(&out[MAGIC.len()..]);
        put_u32(&mut out, head_crc);
        put_section(&mut out, TAG_META, |out| out.extend_from_slice(&self.meta));
        for ((tag, _, _), pager) in PAGE_SECTIONS.iter().zip(&self.pagers) {
            put_section(&mut out, *tag, |out| pager.write_table(out));
        }
        out
    }

    /// Parses an image serialized by [`CheckpointImage::to_bytes`],
    /// verifying the watermark checksum, every section's framing and
    /// checksum, and every live page against its stored CRC32.
    pub fn from_bytes(image: &[u8]) -> Result<CheckpointImage, PersistError> {
        const HEADER: &str = "checkpoint-header";
        if let Some(&version) = image.strip_prefix(LEGACY_MAGIC_PREFIX).and_then(<[u8]>::first) {
            let v = version as char;
            return fail(
                HEADER,
                LEGACY_MAGIC_PREFIX.len(),
                format!("unsupported format version {v} (a persist-v{v} file; this build reads PCUBECK2 images only)"),
            );
        }
        if image.len() < HEADER_END {
            return fail(HEADER, 0, "image shorter than the header");
        }
        if &image[..MAGIC.len()] != MAGIC {
            return fail(HEADER, 0, "not a pcube database image");
        }
        let mut r = Reader::over(&image[MAGIC.len()..HEADER_END], HEADER, MAGIC.len());
        let (epoch, txns, next_txn, next_lsn) = (r.u64()?, r.u64()?, r.u64()?, r.u64()?);
        let actual = crc32(&image[MAGIC.len()..HEADER_END - 4]);
        let stored = r.u32()?;
        if actual != stored {
            return fail(
                HEADER,
                HEADER_END - 4,
                format!("watermark checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"),
            );
        }
        if next_lsn == 0 || next_txn == 0 || txns >= next_txn {
            return fail(
                HEADER,
                MAGIC.len(),
                format!("implausible watermarks (txns {txns}, next_txn {next_txn}, next_lsn {next_lsn})"),
            );
        }
        let mut pos = HEADER_END;
        let meta = open_section(image, &mut pos, TAG_META, "checkpoint-meta")?.remaining_bytes().to_vec();
        // The ledger of the database this image will be restored into: the
        // frozen pagers hold it but never charge it.
        let stats = IoStats::new_shared();
        let mut page_table = |(tag, name, category): (u8, &'static str, IoCategory)| {
            let mut r = open_section(image, &mut pos, tag, name)?;
            let pager = r.pager(category, stats.clone())?;
            r.finish()?;
            Ok::<Pager, PersistError>(pager)
        };
        let pagers = [
            page_table(PAGE_SECTIONS[0])?,
            page_table(PAGE_SECTIONS[1])?,
            page_table(PAGE_SECTIONS[2])?,
        ];
        if pos != image.len() {
            return fail("checkpoint-image", pos, "trailing bytes after the image");
        }
        Ok(CheckpointImage { epoch, txns, next_txn, next_lsn, meta, pagers })
    }

    /// Restores the image into a fresh, queryable database whose pagers
    /// share every page with the image (checksums off, as a built database
    /// has them) and charge one fresh ledger; the live rows are the ones the
    /// R-tree holds. Returns the database and the number of live pages —
    /// each verified against its CRC32 when the image was parsed.
    pub(crate) fn restore(&self) -> Result<(PCubeDb, u64), PersistError> {
        // The metadata is the first section of every image.
        let mut r = Reader::over(&self.meta, "checkpoint-meta", HEADER_END + SECTION_HEAD_LEN);
        let mut relation = read_relation_payload(&mut r)?;
        let (cuboids, registry) = read_cube_payload(&mut r)?;
        let (dims, m_max, m_min) = (r.u32()? as usize, r.u32()? as usize, r.u32()? as usize);
        let (root, height, len) = (PageId(r.u32()?), r.u64()? as usize, r.u64()?);
        if dims != relation.schema().n_pref() {
            return r.err("R-tree dimensionality does not match the schema");
        }
        // What `RTreeConfig::explicit` would assert on.
        if m_max < 2 || m_min == 0 || 2 * m_min > m_max + 1 {
            return r.err(format!("implausible R-tree fanout (m_min {m_min}, m_max {m_max})"));
        }
        let (sig_m_max, sig_height) = (r.u64()? as usize, r.u64()? as usize);
        let (dir_root, dir_height, dir_len) = (PageId(r.u32()?), r.u64()? as usize, r.u64()?);
        r.finish()?;

        let [rtree_pager, sig_pager, dir_pager] = self.pagers.each_ref().map(|frozen| {
            let mut pager = frozen.clone();
            pager.set_checksums(false);
            pager
        });
        let stats = rtree_pager.stats().clone();
        relation.attach_stats(stats.clone());
        let rtree =
            RTree::from_parts(rtree_pager, RTreeConfig::explicit(dims, m_min, m_max), root, height, len);
        restore_live_rows(&mut relation, &rtree)?;
        let directory = BPlusTree::from_parts(dir_pager, dir_root, dir_height, dir_len);
        let store = SignatureStore::from_parts(sig_pager, directory, sig_m_max, sig_height);
        let pcube = PCube { registry: Arc::new(registry), store, cuboids };
        let db = PCubeDb::from_parts(relation, rtree, pcube, stats);
        let pages_verified = self.pagers.iter().map(|p| p.live_pages() as u64).sum();
        Ok((db, pages_verified))
    }
}

/// Replaces the file at `path` with `bytes` — written to `<path>.tmp`, then
/// renamed over `path`, so a crash mid-write leaves the old file, never half
/// of the new one. An error comes with the path the failing call named.
pub(crate) fn replace_file(path: &Path, bytes: &[u8]) -> Result<(), (PathBuf, std::io::Error)> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, bytes).map_err(|e| (tmp.clone(), e))?;
    std::fs::rename(&tmp, path).map_err(|e| (path.to_path_buf(), e))
}

impl PCubeDb {
    /// Serializes the whole database (relation, R-tree, signatures,
    /// registry) into one buffer: a [`CheckpointImage`] of generation zero.
    pub fn save_to_bytes(&self) -> Vec<u8> {
        CheckpointImage::capture(self).to_bytes()
    }

    /// Restores a database saved by [`PCubeDb::save_to_bytes`] (or
    /// checkpointed by a `DurableDb`; its log is not consulted). The restored
    /// instance has a fresh (zeroed) I/O ledger.
    ///
    /// Never panics on hostile input: truncation, bit flips, a wrong magic
    /// or a retired format version all surface as a [`PersistError`] naming
    /// the failing section and byte offset.
    pub fn load_from_bytes(image: &[u8]) -> Result<PCubeDb, PersistError> {
        Ok(CheckpointImage::from_bytes(image)?.restore()?.0)
    }

    /// Saves the database to a file, replacing what was there.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        replace_file(path.as_ref(), &self.save_to_bytes())
            .map_err(|(_, e)| PersistError { section: "file", offset: 0, cause: e.to_string() })
    }

    /// Opens a database saved with [`PCubeDb::save`].
    pub fn open(path: impl AsRef<Path>) -> Result<PCubeDb, PersistError> {
        let bytes = std::fs::read(path)
            .map_err(|e| PersistError { section: "file", offset: 0, cause: e.to_string() })?;
        Self::load_from_bytes(&bytes)
    }
}
