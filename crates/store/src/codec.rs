//! Binary codec for store payloads: a growable little-endian encoder, a
//! bounds-checked decoder, a CRC-32 checksum, and the typed row codec
//! over [`sqlkit::Value`] plus the schema codec over
//! [`sqlkit::schema::DbSchema`].
//!
//! Everything is hand-rolled — the store must not depend on external
//! serialisation crates — and every decode path returns a typed
//! [`CodecError`] instead of panicking, because decoders run over bytes
//! that fsck and crash recovery deliberately corrupt.

use sqlkit::ast::TypeName;
use sqlkit::index::ColumnIndex;
use sqlkit::schema::{ColumnInfo, DbSchema, ForeignKey, TableInfo};
use sqlkit::value::{Row, Value};
use std::fmt;

/// A decode failure: what was being decoded and why it failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

fn err<T>(msg: impl Into<String>) -> Result<T, CodecError> {
    Err(CodecError(msg.into()))
}

// ---- CRC-32 (IEEE 802.3, reflected) ------------------------------------

/// The reflected IEEE 802.3 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slice-by-16 lookup tables (16 KiB), built at compile time.
/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is
/// the register after byte `b` is followed by `k` zero bytes, so one
/// lookup per input byte, XORed together, advances the CRC 16 bytes.
const TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 of a byte slice (IEEE polynomial, the checksum used by every
/// page header and WAL record).
pub fn crc32(bytes: &[u8]) -> u32 {
    // borrowed once: a promoted `'static`, never a 16 KiB copy per use
    let tables: &'static [[u32; 256]; 16] = &TABLES;
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(16);
    for chunk in &mut chunks {
        let (lo, hi) = chunk.split_at(8);
        let lo = u64::from_le_bytes(lo.try_into().expect("8 bytes")) ^ u64::from(crc);
        let hi = u64::from_le_bytes(hi.try_into().expect("8 bytes"));
        // byte i of the chunk is followed by 15 - i more bytes
        crc = (0..8).fold(0, |acc, i| {
            acc ^ tables[15 - i][usize::from((lo >> (8 * i)) as u8)]
                ^ tables[7 - i][usize::from((hi >> (8 * i)) as u8)]
        });
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ tables[0][usize::from(crc as u8 ^ b)];
    }
    !crc
}

// ---- encoder -----------------------------------------------------------

/// A growable little-endian byte encoder.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Self {
        Enc::default()
    }

    /// Finish, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `i64`, little-endian.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a length-prefixed byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

// ---- decoder -----------------------------------------------------------

/// A bounds-checked little-endian decoder over a byte slice.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return err(format!("need {n} bytes, {} remain", self.remaining()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Read a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Read an `f64` bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a length-prefixed byte slice.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.get_u32()? as usize;
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, CodecError> {
        let bytes = self.get_bytes()?;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s.to_owned()),
            Err(_) => err("invalid UTF-8 in string"),
        }
    }
}

// ---- value / row codec -------------------------------------------------

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_REAL: u8 = 2;
const TAG_TEXT: u8 = 3;

/// Encode one value (tag byte + payload).
pub fn put_value(enc: &mut Enc, v: &Value) {
    match v {
        Value::Null => enc.put_u8(TAG_NULL),
        Value::Int(i) => {
            enc.put_u8(TAG_INT);
            enc.put_i64(*i);
        }
        Value::Real(r) => {
            enc.put_u8(TAG_REAL);
            enc.put_f64(*r);
        }
        Value::Text(t) => {
            enc.put_u8(TAG_TEXT);
            enc.put_str(t);
        }
    }
}

/// Decode one value.
pub fn get_value(dec: &mut Dec<'_>) -> Result<Value, CodecError> {
    match dec.get_u8()? {
        TAG_NULL => Ok(Value::Null),
        TAG_INT => Ok(Value::Int(dec.get_i64()?)),
        TAG_REAL => Ok(Value::Real(dec.get_f64()?)),
        TAG_TEXT => Ok(Value::Text(dec.get_str()?)),
        tag => err(format!("unknown value tag {tag}")),
    }
}

/// Encode a table's rows: row count, then each row's values in schema
/// order (arity is implied by the schema, so rows carry no per-row
/// header — only per-value type tags).
pub fn encode_rows(rows: &[Row], arity: usize) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.put_u64(rows.len() as u64);
    enc.put_u32(arity as u32);
    for row in rows {
        debug_assert_eq!(row.len(), arity, "rows match schema arity");
        for v in row {
            put_value(&mut enc, v);
        }
    }
    enc.into_bytes()
}

/// Decode a table's rows, checking the recorded arity against the schema.
pub fn decode_rows(bytes: &[u8], expect_arity: usize) -> Result<Vec<Row>, CodecError> {
    let mut dec = Dec::new(bytes);
    let n = dec.get_u64()? as usize;
    let arity = dec.get_u32()? as usize;
    if arity != expect_arity {
        return err(format!("row arity {arity} does not match schema arity {expect_arity}"));
    }
    let mut rows = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let mut row = Vec::with_capacity(arity);
        for _ in 0..arity {
            row.push(get_value(&mut dec)?);
        }
        rows.push(row);
    }
    if dec.remaining() != 0 {
        return err(format!("{} trailing bytes after rows", dec.remaining()));
    }
    Ok(rows)
}

// ---- index codec -------------------------------------------------------

/// A decoded secondary-index section: the declaration, plus the sorted
/// entries and the indexed table's row count at build time when the
/// index was usable (`None` marks a column persisted as unbuildable,
/// e.g. it contained a NaN).
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedIndex {
    /// Indexed table name.
    pub table: String,
    /// Indexed column name.
    pub column: String,
    /// `Some((entries, table_rows))` for a usable index, `None` for a
    /// declaration-only section.
    pub built: Option<(Vec<(Value, u32)>, u64)>,
}

/// Encode a secondary-index section: a usable flag, the declaration,
/// and (for usable indexes) the table's row count at build time plus
/// the sorted `(value, rid)` entries. Unusable indexes persist as
/// declaration-only sections so the planning fingerprint survives a
/// round trip through the store.
pub fn encode_index(table: &str, column: &str, index: Option<&ColumnIndex>) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.put_u8(u8::from(index.is_some()));
    enc.put_str(table);
    enc.put_str(column);
    if let Some(ix) = index {
        enc.put_u64(ix.table_rows() as u64);
        enc.put_u64(ix.len() as u64);
        for (v, rid) in ix.entries() {
            put_value(&mut enc, v);
            enc.put_u32(*rid);
        }
    }
    enc.into_bytes()
}

/// Decode a secondary-index section.
pub fn decode_index(bytes: &[u8]) -> Result<DecodedIndex, CodecError> {
    let mut dec = Dec::new(bytes);
    let usable = match dec.get_u8()? {
        0 => false,
        1 => true,
        f => return err(format!("unknown index usable flag {f}")),
    };
    let table = dec.get_str()?;
    let column = dec.get_str()?;
    let built = if usable {
        let table_rows = dec.get_u64()?;
        let n = dec.get_u64()? as usize;
        if (n as u64) > table_rows {
            return err(format!("index holds {n} entries over {table_rows} rows"));
        }
        let mut entries = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let v = get_value(&mut dec)?;
            let rid = dec.get_u32()?;
            if u64::from(rid) >= table_rows {
                return err(format!("index rid {rid} out of range ({table_rows} rows)"));
            }
            entries.push((v, rid));
        }
        Some((entries, table_rows))
    } else {
        None
    };
    if dec.remaining() != 0 {
        return err(format!("{} trailing bytes after index", dec.remaining()));
    }
    Ok(DecodedIndex { table, column, built })
}

// ---- schema codec ------------------------------------------------------

fn type_tag(ty: TypeName) -> u8 {
    match ty {
        TypeName::Integer => 0,
        TypeName::Real => 1,
        TypeName::Text => 2,
        TypeName::Blob => 3,
    }
}

fn tag_type(tag: u8) -> Result<TypeName, CodecError> {
    match tag {
        0 => Ok(TypeName::Integer),
        1 => Ok(TypeName::Real),
        2 => Ok(TypeName::Text),
        3 => Ok(TypeName::Blob),
        t => err(format!("unknown type tag {t}")),
    }
}

/// Encode a whole-database schema: name, tables (with column names,
/// affinities, descriptions, PK flags), and foreign keys.
pub fn encode_schema(schema: &DbSchema) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.put_str(&schema.name);
    enc.put_u32(schema.tables.len() as u32);
    for t in &schema.tables {
        enc.put_str(&t.name);
        enc.put_u32(t.columns.len() as u32);
        for c in &t.columns {
            enc.put_str(&c.name);
            enc.put_u8(type_tag(c.ty));
            enc.put_u8(u8::from(c.primary_key));
            enc.put_str(&c.description);
        }
    }
    enc.put_u32(schema.foreign_keys.len() as u32);
    for fk in &schema.foreign_keys {
        enc.put_str(&fk.table);
        enc.put_str(&fk.column);
        enc.put_str(&fk.ref_table);
        enc.put_str(&fk.ref_column);
    }
    enc.into_bytes()
}

/// Decode a whole-database schema.
pub fn decode_schema(bytes: &[u8]) -> Result<DbSchema, CodecError> {
    let mut dec = Dec::new(bytes);
    let mut schema = DbSchema::new(dec.get_str()?);
    let n_tables = dec.get_u32()? as usize;
    for _ in 0..n_tables {
        let name = dec.get_str()?;
        let n_cols = dec.get_u32()? as usize;
        let mut columns = Vec::with_capacity(n_cols.min(4096));
        for _ in 0..n_cols {
            let cname = dec.get_str()?;
            let ty = tag_type(dec.get_u8()?)?;
            let primary_key = dec.get_u8()? != 0;
            let description = dec.get_str()?;
            columns.push(ColumnInfo { name: cname, ty, description, primary_key });
        }
        schema.tables.push(TableInfo { name, columns });
    }
    let n_fks = dec.get_u32()? as usize;
    for _ in 0..n_fks {
        schema.foreign_keys.push(ForeignKey {
            table: dec.get_str()?,
            column: dec.get_str()?,
            ref_table: dec.get_str()?,
            ref_column: dec.get_str()?,
        });
    }
    if dec.remaining() != 0 {
        return err(format!("{} trailing bytes after schema", dec.remaining()));
    }
    Ok(schema)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
    }

    /// The bit-at-a-time loop `crc32` was before the table kernel, kept
    /// verbatim as the oracle the kernel is checked against.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// 1 MiB of a seeded xorshift64 stream, plus 2,000 seeded slices of
    /// it with log-uniform lengths up to 64 KiB and arbitrary starts.
    fn crc_corpus() -> (Vec<u8>, Vec<(usize, usize)>) {
        let mut state = 0x9E37_79B9_7F4A_7C15;
        let mut stream = Vec::with_capacity(1 << 20);
        while stream.len() < 1 << 20 {
            stream.extend_from_slice(&xorshift(&mut state).to_le_bytes());
        }
        let slices = (0..2_000)
            .map(|_| {
                let r = xorshift(&mut state);
                let len = (r >> 8) as usize % (1usize << (r % 17));
                let start = xorshift(&mut state) as usize % (stream.len() - len + 1);
                (start, len)
            })
            .collect();
        (stream, slices)
    }

    #[test]
    fn crc32_equals_the_bitwise_reference_at_every_length_and_offset() {
        let (stream, slices) = crc_corpus();
        // up to four 16-byte chunks plus every tail length, at every
        // start alignment
        for start in 0..8 {
            for len in 0..=72 {
                let bytes = &stream[start..start + len];
                assert_eq!(crc32(bytes), crc32_bitwise(bytes), "start {start}, len {len}");
            }
        }
        for &(start, len) in &slices {
            let bytes = &stream[start..start + len];
            assert_eq!(crc32(bytes), crc32_bitwise(bytes), "start {start}, len {len}");
        }
        assert_eq!(crc32(&stream), crc32_bitwise(&stream), "the whole stream");
    }

    #[test]
    fn crc32_digest_over_the_corpus_is_frozen() {
        // FNV-1a over every slice's checksum and the whole stream's,
        // recorded with the bitwise loop on 035e019
        let (stream, slices) = crc_corpus();
        let mut digest = 0xCBF2_9CE4_8422_2325u64;
        let crcs = slices.iter().map(|&(start, len)| crc32(&stream[start..start + len]));
        for crc in crcs.chain([crc32(&stream)]) {
            for b in crc.to_le_bytes() {
                digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
            }
        }
        assert_eq!(digest, 0x9AF6_277B_9159_DF69, "crc32 digest {digest:#018x}");
    }

    #[test]
    fn scalar_round_trips() {
        let mut enc = Enc::new();
        enc.put_u8(7);
        enc.put_u32(0xDEAD_BEEF);
        enc.put_u64(u64::MAX - 1);
        enc.put_i64(-42);
        enc.put_f64(2.5);
        enc.put_str("héllo");
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        assert_eq!(dec.get_u8().unwrap(), 7);
        assert_eq!(dec.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(dec.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(dec.get_i64().unwrap(), -42);
        assert_eq!(dec.get_f64().unwrap(), 2.5);
        assert_eq!(dec.get_str().unwrap(), "héllo");
        assert_eq!(dec.remaining(), 0);
    }

    #[test]
    fn decoder_is_bounds_checked() {
        let mut dec = Dec::new(&[1, 2]);
        assert!(dec.get_u32().is_err());
        // a corrupt length prefix cannot over-read
        let mut enc = Enc::new();
        enc.put_u32(1_000_000);
        let bytes = enc.into_bytes();
        assert!(Dec::new(&bytes).get_bytes().is_err());
    }

    #[test]
    fn values_round_trip_all_tags() {
        let vals = [
            Value::Null,
            Value::Int(i64::MIN),
            Value::Real(-0.125),
            Value::Real(f64::INFINITY),
            Value::text(""),
            Value::text("quoted 'text' with\nnewline"),
        ];
        let mut enc = Enc::new();
        for v in &vals {
            put_value(&mut enc, v);
        }
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        for v in &vals {
            assert_eq!(&get_value(&mut dec).unwrap(), v);
        }
    }

    #[test]
    fn rows_round_trip_and_check_arity() {
        let rows = vec![
            vec![Value::Int(1), Value::text("a"), Value::Null],
            vec![Value::Int(2), Value::text("b"), Value::Real(1.5)],
        ];
        let bytes = encode_rows(&rows, 3);
        assert_eq!(decode_rows(&bytes, 3).unwrap(), rows);
        assert!(decode_rows(&bytes, 2).is_err(), "arity mismatch is detected");
        assert!(decode_rows(&bytes[..bytes.len() - 1], 3).is_err(), "truncation is detected");
    }

    #[test]
    fn index_sections_round_trip() {
        let rows =
            vec![vec![Value::Int(3)], vec![Value::Int(1)], vec![Value::Null], vec![Value::Int(1)]];
        let ix = ColumnIndex::build(&rows, 0).unwrap();
        let bytes = encode_index("t", "c", Some(&ix));
        let dec = decode_index(&bytes).unwrap();
        assert_eq!((dec.table.as_str(), dec.column.as_str()), ("t", "c"));
        let (entries, table_rows) = dec.built.unwrap();
        assert_eq!(table_rows, 4);
        assert_eq!(entries, ix.entries().to_vec());

        let decl_only = encode_index("t", "c", None);
        assert_eq!(decode_index(&decl_only).unwrap().built, None);
        assert!(decode_index(&decl_only[..decl_only.len() - 1]).is_err());
        assert!(decode_index(&bytes[..bytes.len() - 2]).is_err(), "truncation is detected");
    }

    #[test]
    fn schema_round_trips_with_descriptions() {
        let mut schema = DbSchema::new("clinic");
        schema.tables.push(TableInfo {
            name: "Patient".into(),
            columns: vec![
                ColumnInfo {
                    name: "ID".into(),
                    ty: TypeName::Integer,
                    description: "unique id of the patient".into(),
                    primary_key: true,
                },
                ColumnInfo::new("First Date", TypeName::Text),
            ],
        });
        schema.foreign_keys.push(ForeignKey {
            table: "Lab".into(),
            column: "ID".into(),
            ref_table: "Patient".into(),
            ref_column: "ID".into(),
        });
        let bytes = encode_schema(&schema);
        assert_eq!(decode_schema(&bytes).unwrap(), schema);
        // flipping any byte is either an error or a different schema
        let mut bad = bytes.clone();
        bad[4] ^= 0xFF;
        if let Ok(other) = decode_schema(&bad) {
            assert_ne!(other, schema);
        }
    }
}
