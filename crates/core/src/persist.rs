//! Checkpointing a built database to a single file and re-opening it.
//!
//! Building a P-Cube over millions of rows takes seconds; reloading a saved
//! one takes a memcpy. [`PCubeDb::save_to_bytes`] serializes the relation
//! (schema, dictionaries, columns), the shared R-tree (pager image +
//! structural metadata), the cell registry, and the signature store (pager
//! image + directory B+-tree image) into one self-describing buffer;
//! [`PCubeDb::load_from_bytes`] restores an identical database. File-path
//! convenience wrappers are provided.
//!
//! The format is a versioned, little-endian, length-prefixed layout —
//! deliberately hand-rolled so the workspace keeps its tiny dependency
//! footprint. Version 2 (this build) frames the image into four sections
//! (`relation`, `rtree`, `cube`, `signatures`), each `[tag u8][len u64]
//! [payload][crc32 u32]`. A corrupt, truncated or oversized image yields a
//! [`PersistError`] naming the failing section and the absolute byte offset,
//! never a panic; see `DESIGN.md` §6.
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

use std::sync::Arc;

use pcube_cube::{CellKey, CuboidMask, Relation, Schema};
use pcube_rtree::{RTree, RTreeConfig};
use pcube_bptree::BPlusTree;
use pcube_storage::{crc32, ImageError, IoCategory, IoStats, PageId, Pager, SharedStats};

use crate::pcube::{PCube, PCubeDb};
use crate::store::SignatureStore;

/// 7-byte file magic; the following byte is the format version.
const MAGIC_PREFIX: &[u8; 7] = b"PCUBEDB";
/// The format version this build writes and reads.
const VERSION: u8 = b'2';

/// Section tags, in file order.
const TAG_RELATION: u8 = 1;
const TAG_RTREE: u8 = 2;
const TAG_CUBE: u8 = 3;
const TAG_SIGNATURES: u8 = 4;

/// A serialization or deserialization failure, pinpointing the failing
/// section and the absolute byte offset in the image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistError {
    /// Which part of the image failed: `header`, `relation`, `rtree`,
    /// `cube`, `signatures`, `image` (framing), or `file` (I/O wrappers).
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

pub(crate) fn fail<T>(section: &'static str, offset: usize, cause: impl Into<String>) -> Result<T, PersistError> {
    Err(PersistError { section, offset, cause: cause.into() })
}

// ------------------------------------------------------------ wire format --

/// How a [`Reader`] parses an embedded page table:
/// [`Pager::try_deserialize_from`] or [`Pager::read_table`].
type PagerParser = fn(&[u8], IoCategory, SharedStats) -> Result<(Pager, usize), ImageError>;

/// Reads one section's payload, carrying the section name and the payload's
/// absolute position so every error can name an exact image offset.
///
/// Crate-visible: the durable checkpoint image (`crate::durable`) reuses it
/// to parse the metadata payloads it shares with this format.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'static str,
    /// Absolute offset of `buf[0]` within the whole image.
    base: usize,
}

impl<'a> Reader<'a> {
    /// A reader over a standalone payload (no surrounding image).
    pub(crate) fn over(buf: &'a [u8], section: &'static str) -> Self {
        Reader { buf, pos: 0, section, base: 0 }
    }

    pub(crate) fn err<T>(&self, cause: impl Into<String>) -> Result<T, PersistError> {
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
    pub(crate) fn remaining_bytes(&mut self) -> &'a [u8] {
        let out = &self.buf[self.pos..];
        self.pos = self.buf.len();
        out
    }

    pub(crate) fn u32(&mut self) -> Result<u32, PersistError> {
        let mut raw = [0u8; 4];
        raw.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(raw))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, PersistError> {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(raw))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, PersistError> {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(self.take(8)?);
        Ok(f64::from_le_bytes(raw))
    }

    pub(crate) fn string(&mut self) -> Result<String, PersistError> {
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
    pub(crate) fn count(&mut self, width: usize, min_elem_size: usize, what: &str) -> Result<usize, PersistError> {
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

    /// Parses an embedded page table starting at the current position with
    /// `parse` — [`Pager::try_deserialize_from`] for persist-v2, whose pager
    /// images end in their own checksum, [`Pager::read_table`] for a
    /// checkpoint section — translating its [`pcube_storage::ImageError`]
    /// offset into an absolute image offset.
    pub(crate) fn pager(
        &mut self,
        parse: PagerParser,
        category: IoCategory,
        stats: SharedStats,
    ) -> Result<Pager, PersistError> {
        match parse(&self.buf[self.pos..], category, stats) {
            Ok((pager, used)) => {
                self.pos += used;
                Ok(pager)
            }
            Err(e) => fail(self.section, self.base + self.pos + e.offset, e.cause),
        }
    }

    /// Fails unless the whole payload was consumed.
    pub(crate) fn finish(self) -> Result<(), PersistError> {
        if self.pos != self.buf.len() {
            return self.err("trailing bytes inside the section");
        }
        Ok(())
    }
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_string(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Appends one framed section: `[tag][len][payload][crc32(payload)]`.
pub(crate) fn put_section(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    out.push(tag);
    put_u64(out, payload.len() as u64);
    out.extend_from_slice(payload);
    put_u32(out, crc32(payload));
}

/// Validates the framing of the next section (`tag`, length, CRC) and hands
/// back a [`Reader`] over its payload.
pub(crate) fn open_section<'a>(
    image: &'a [u8],
    pos: &mut usize,
    tag: u8,
    name: &'static str,
) -> Result<Reader<'a>, PersistError> {
    let header = *pos;
    if image.len() - header < 1 + 8 {
        return fail(name, header, "image truncated before the section header");
    }
    if image[header] != tag {
        return fail(name, header, format!("unexpected section tag {}", image[header]));
    }
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&image[header + 1..header + 9]);
    let len = u64::from_le_bytes(raw);
    let body = header + 9;
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
    let mut raw = [0u8; 4];
    raw.copy_from_slice(&image[body + len..body + len + 4]);
    let stored = u32::from_le_bytes(raw);
    let computed = crc32(payload);
    if stored != computed {
        return fail(
            name,
            body + len,
            format!("section checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"),
        );
    }
    *pos = body + len + 4;
    Ok(Reader { buf: payload, pos: 0, section: name, base: body })
}

/// Serializes a relation (schema, dictionaries, columns) into `payload` —
/// the body of the `relation` section, shared with the durable checkpoint
/// image.
pub(crate) fn write_relation_payload(relation: &Relation, payload: &mut Vec<u8>) {
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
pub(crate) fn read_relation_payload(r: &mut Reader<'_>) -> Result<Relation, PersistError> {
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
    let mut codes = vec![0u32; n_bool];
    let mut coords = vec![0f64; n_pref];
    for row in 0..n_rows {
        for (d, c) in codes.iter_mut().enumerate() {
            *c = bool_cols[d][row];
        }
        for (d, x) in coords.iter_mut().enumerate() {
            *x = pref_cols[d][row];
        }
        relation.push_coded(&codes, &coords);
    }
    Ok(relation)
}

/// Makes live exactly the rows the R-tree holds. An image stores every row
/// ever appended and no live set: a deleted row is the one the tree no
/// longer indexes.
fn restore_live_rows(relation: &mut Relation, rtree: &RTree) -> Result<(), PersistError> {
    let mut tids = Vec::new();
    rtree.for_each_tuple(|tid, _, _| tids.push(tid));
    relation.restore_live(tids).or_else(|tid| {
        fail("rtree", 0, format!("the R-tree indexes tuple {tid}, which is not a row of the relation"))
    })
}

/// Serializes the cube metadata (cuboid list + cell registry in code order)
/// into `payload` — the body of the `cube` section, shared with the durable
/// checkpoint image.
pub(crate) fn write_cube_payload(pcube: &PCube, payload: &mut Vec<u8>) {
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
pub(crate) fn read_cube_payload(
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

/// The R-tree's structural scalars: `(dims, m_max, m_min, root, height,
/// len)`, stored in front of its page table by both image formats.
pub(crate) type RtreeScalars = (usize, usize, usize, PageId, usize, u64);

pub(crate) fn write_rtree_scalars(rtree: &RTree, payload: &mut Vec<u8>) {
    let (root, height, len) = rtree.parts();
    put_u32(payload, rtree.dims() as u32);
    put_u32(payload, rtree.m_max() as u32);
    put_u32(payload, rtree.m_min() as u32);
    put_u32(payload, root.0);
    put_u64(payload, height as u64);
    put_u64(payload, len);
}

/// Reads what [`write_rtree_scalars`] wrote for a relation of `n_pref`
/// preference dimensions, refusing a shape [`RTreeConfig::explicit`] would
/// assert on.
pub(crate) fn read_rtree_scalars(r: &mut Reader<'_>, n_pref: usize) -> Result<RtreeScalars, PersistError> {
    let dims = r.u32()? as usize;
    let m_max = r.u32()? as usize;
    let m_min = r.u32()? as usize;
    let root = PageId(r.u32()?);
    let height = r.u64()? as usize;
    let len = r.u64()?;
    if dims != n_pref {
        return r.err("R-tree dimensionality does not match the schema");
    }
    if m_max < 2 || m_min == 0 || 2 * m_min > m_max + 1 {
        return r.err(format!("implausible R-tree fanout (m_min {m_min}, m_max {m_max})"));
    }
    Ok((dims, m_max, m_min, root, height, len))
}

/// The signature store's `(m_max, height)`.
pub(crate) fn read_store_scalars(r: &mut Reader<'_>) -> Result<(usize, usize), PersistError> {
    Ok((r.u64()? as usize, r.u64()? as usize))
}

pub(crate) fn write_directory_scalars(directory: &BPlusTree, payload: &mut Vec<u8>) {
    let (root, height, len) = directory.parts();
    put_u32(payload, root.0);
    put_u64(payload, height as u64);
    put_u64(payload, len);
}

/// The directory B+-tree's `(root, height, len)`.
pub(crate) fn read_directory_scalars(r: &mut Reader<'_>) -> Result<(PageId, usize, u64), PersistError> {
    Ok((PageId(r.u32()?), r.u64()? as usize, r.u64()?))
}

/// Builds a database from the parts either image format stores: the decoded
/// relation and cube metadata, and each paged structure's scalars with its
/// pager. Every part charges `stats`; the live rows are the ones the R-tree
/// holds.
pub(crate) fn assemble(
    mut relation: Relation,
    (cuboids, registry): (Vec<CuboidMask>, pcube_cube::CellRegistry),
    ((dims, m_max, m_min, root, height, len), rtree_pager): (RtreeScalars, Pager),
    ((sig_m_max, sig_height), sig_pager): ((usize, usize), Pager),
    ((dir_root, dir_height, dir_len), dir_pager): ((PageId, usize, u64), Pager),
    stats: SharedStats,
) -> Result<PCubeDb, PersistError> {
    relation.attach_stats(stats.clone());
    let config = RTreeConfig::explicit(dims, m_min, m_max);
    let rtree = RTree::from_parts(rtree_pager, config, root, height, len);
    restore_live_rows(&mut relation, &rtree)?;
    let directory = BPlusTree::from_parts(dir_pager, dir_root, dir_height, dir_len);
    let store = SignatureStore::from_parts(sig_pager, directory, sig_m_max, sig_height);
    Ok(PCubeDb {
        relation,
        rtree,
        pcube: PCube { registry: Arc::new(registry), store, cuboids },
        stats,
        // Admission control is runtime configuration, not data: a reopened
        // database starts ungated.
        admission: None,
        derived: Default::default(),
    })
}

impl PCubeDb {
    /// Serializes the whole database (relation, R-tree, signatures,
    /// registry) into one buffer in format version 2.
    pub fn save_to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC_PREFIX);
        out.push(VERSION);

        // --- relation ---
        let mut payload = Vec::new();
        write_relation_payload(&self.relation, &mut payload);
        put_section(&mut out, TAG_RELATION, &payload);

        // --- R-tree ---
        payload.clear();
        write_rtree_scalars(&self.rtree, &mut payload);
        self.rtree.pager().serialize_into(&mut payload);
        put_section(&mut out, TAG_RTREE, &payload);

        // --- cube: cuboids + registry (code order) ---
        payload.clear();
        write_cube_payload(&self.pcube, &mut payload);
        put_section(&mut out, TAG_CUBE, &payload);

        // --- signature store ---
        payload.clear();
        let (sig_pager, directory, m_max, s_height) = self.pcube.store.parts_ref();
        put_u64(&mut payload, m_max as u64);
        put_u64(&mut payload, s_height as u64);
        sig_pager.serialize_into(&mut payload);
        write_directory_scalars(directory, &mut payload);
        directory.pager().serialize_into(&mut payload);
        put_section(&mut out, TAG_SIGNATURES, &payload);

        out
    }

    /// Restores a database saved by [`PCubeDb::save_to_bytes`]. The restored
    /// instance has a fresh (zeroed) I/O ledger.
    ///
    /// Never panics on hostile input: truncation, bit flips, a wrong magic,
    /// or a future format version all surface as a [`PersistError`] naming
    /// the failing section and byte offset.
    pub fn load_from_bytes(image: &[u8]) -> Result<PCubeDb, PersistError> {
        if image.len() < 8 {
            return fail("header", 0, "image shorter than the magic header");
        }
        if &image[..7] != MAGIC_PREFIX {
            return fail("header", 0, "not a pcube database file");
        }
        match image[7] {
            VERSION => {}
            b'1' => {
                return fail(
                    "header",
                    7,
                    "unsupported format version 1 (this build reads version 2)",
                )
            }
            v => return fail("header", 7, format!("unknown future format version {:?}", v as char)),
        }
        let stats = IoStats::new_shared();
        let mut pos = 8usize;

        // --- relation ---
        let mut r = open_section(image, &mut pos, TAG_RELATION, "relation")?;
        let relation = read_relation_payload(&mut r)?;
        r.finish()?;

        // --- R-tree ---
        let mut r = open_section(image, &mut pos, TAG_RTREE, "rtree")?;
        let rtree_scalars = read_rtree_scalars(&mut r, relation.schema().n_pref())?;
        let rtree_pager = r.pager(Pager::try_deserialize_from, IoCategory::RtreeBlock, stats.clone())?;
        r.finish()?;

        // --- cube ---
        let mut r = open_section(image, &mut pos, TAG_CUBE, "cube")?;
        let cube = read_cube_payload(&mut r)?;
        r.finish()?;

        // --- signature store ---
        let mut r = open_section(image, &mut pos, TAG_SIGNATURES, "signatures")?;
        let store_scalars = read_store_scalars(&mut r)?;
        let sig_pager = r.pager(Pager::try_deserialize_from, IoCategory::SignaturePage, stats.clone())?;
        let dir_scalars = read_directory_scalars(&mut r)?;
        let dir_pager = r.pager(Pager::try_deserialize_from, IoCategory::BptreePage, stats.clone())?;
        r.finish()?;
        if pos != image.len() {
            return fail("image", pos, "trailing bytes after database image");
        }
        assemble(
            relation,
            cube,
            (rtree_scalars, rtree_pager),
            (store_scalars, sig_pager),
            (dir_scalars, dir_pager),
            stats,
        )
    }

    /// Saves the database to a file.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), PersistError> {
        std::fs::write(path, self.save_to_bytes())
            .map_err(|e| PersistError { section: "file", offset: 0, cause: e.to_string() })
    }

    /// Opens a database saved with [`PCubeDb::save`].
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<PCubeDb, PersistError> {
        let bytes = std::fs::read(path)
            .map_err(|e| PersistError { section: "file", offset: 0, cause: e.to_string() })?;
        Self::load_from_bytes(&bytes)
    }
}
