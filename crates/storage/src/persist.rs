//! Snapshot persistence: save the committed state to a file, load it back.
//!
//! The paper's deployments hold operational/historical grid state that
//! should survive a monitor restart. This module serializes a consistent
//! snapshot — schemas (with domains and CHECK constraint sources), index
//! definitions, and every visible row — in a simple length-prefixed
//! binary format (`TRAC` magic + format version), closed by a CRC-32 of
//! every byte before it, so a damaged file fails to load instead of
//! loading other data. Version history is
//! deliberately *not* persisted: a fresh load is equivalent to a vacuumed
//! database at the snapshot point.
//!
//! CHECK constraints live behind the [`trac_types::RowCheck`] trait whose
//! concrete type belongs to a higher layer, so loading takes a *check
//! binder* callback that re-binds each `(name, sql)` pair against the
//! loaded schema (the `trac` umbrella crate wires this to the expression
//! layer's `parse_check`).

use crate::db::Database;
use crate::schema::{ColumnDef, TableSchema};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::path::Path;
use trac_types::{ColumnDomain, DataType, Result, RowCheckRef, Timestamp, TracError, Value};

const MAGIC: &[u8; 4] = b"TRAC";
const FORMAT_VERSION: u16 = 2;

/// CRC-32 (IEEE 802.3, reflected) lookup table.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 == 1 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// The CRC-32 of `data`: it catches every single-bit flip and every
/// burst of up to 32 bits.
fn crc32(data: &[u8]) -> u32 {
    !data.iter().fold(!0u32, |crc, b| {
        CRC_TABLE[((crc ^ u32::from(*b)) & 0xff) as usize] ^ (crc >> 8)
    })
}

/// Re-binds a persisted CHECK constraint `(name, sql)` against its table.
pub type CheckBinder<'a> = &'a dyn Fn(&TableSchema, &str, &str) -> Result<RowCheckRef>;

/// Serializes the database's currently-committed state to `path`.
///
/// Temp tables are skipped (they are session-scoped by definition). The
/// snapshot is taken once, so concurrent writers don't tear it.
pub fn save_snapshot(db: &Database, path: &Path) -> Result<()> {
    let txn = db.begin_read();
    let mut buf = BytesMut::with_capacity(64 * 1024);
    buf.put_slice(MAGIC);
    buf.put_u16(FORMAT_VERSION);
    let names: Vec<String> = txn
        .table_names()
        .into_iter()
        .filter(|n| !txn.is_temp_table(n))
        .collect();
    buf.put_u32(names.len() as u32);
    for name in &names {
        let tid = txn.table_id(name)?;
        let schema = txn.schema(tid)?;
        put_str(&mut buf, &schema.name);
        buf.put_u16(schema.columns.len() as u16);
        for c in &schema.columns {
            put_str(&mut buf, &c.name);
            buf.put_u8(type_tag(c.ty));
            buf.put_u8(c.nullable as u8);
            put_domain(&mut buf, &c.domain);
        }
        match schema.source_column {
            Some(i) => {
                buf.put_u8(1);
                buf.put_u16(i as u16);
            }
            None => buf.put_u8(0),
        }
        buf.put_u16(schema.checks.len() as u16);
        for check in &schema.checks {
            put_str(&mut buf, check.name());
            put_str(&mut buf, &check.display_sql());
        }
        let index_cols = txn.index_columns(tid);
        buf.put_u16(index_cols.len() as u16);
        for c in &index_cols {
            buf.put_u16(*c as u16);
        }
        let rows = txn.scan(tid)?;
        buf.put_u64(rows.len() as u64);
        for row in rows {
            for v in row.iter() {
                put_value(&mut buf, v);
            }
        }
    }
    let crc = crc32(&buf);
    buf.put_u32(crc);
    std::fs::write(path, &buf)
        .map_err(|e| TracError::Storage(format!("cannot write snapshot {}: {e}", path.display())))
}

/// Loads a snapshot into a fresh [`Database`]. `bind_check` rebuilds each
/// persisted CHECK constraint; pass a closure erroring out to refuse
/// databases with constraints.
pub fn load_snapshot(path: &Path, bind_check: CheckBinder<'_>) -> Result<Database> {
    let data = std::fs::read(path)
        .map_err(|e| TracError::Storage(format!("cannot read snapshot {}: {e}", path.display())))?;
    decode_snapshot(data, bind_check)
}

/// Decodes the bytes of a snapshot file. Every field is untrusted: a
/// malformed file ends in [`TracError::Storage`], never in a panic or
/// an allocation sized by a count it has not yet backed with bytes. The
/// checksum trailer is checked before any field is read.
fn decode_snapshot(mut data: Vec<u8>, bind_check: CheckBinder<'_>) -> Result<Database> {
    let corrupt = |what: &str| TracError::Storage(format!("corrupt snapshot: {what}"));
    let body = data
        .len()
        .checked_sub(4)
        .ok_or_else(|| corrupt("checksum"))?;
    if Bytes::from(data.split_off(body)).get_u32() != crc32(&data) {
        return Err(corrupt("checksum"));
    }
    let mut buf = Bytes::from(data);
    if buf.remaining() < 6 || &buf.copy_to_bytes(4)[..] != MAGIC {
        return Err(corrupt("bad magic"));
    }
    let version = buf.get_u16();
    if version != FORMAT_VERSION {
        return Err(TracError::Storage(format!(
            "unsupported snapshot format version {version}"
        )));
    }
    let db = Database::new();
    let n_tables = checked_u32(&mut buf, "table count")?;
    let mut pending_indexes: Vec<(String, String)> = Vec::new();
    let txn = db.begin_write();
    for _ in 0..n_tables {
        let name = get_str(&mut buf)?;
        let n_cols = checked_u16(&mut buf, "column count")?;
        let mut columns = Vec::with_capacity(n_cols as usize);
        for _ in 0..n_cols {
            let col_name = get_str(&mut buf)?;
            let ty = type_from_tag(get_u8(&mut buf)?).ok_or_else(|| corrupt("bad type tag"))?;
            let nullable = get_u8(&mut buf)? != 0;
            let domain = get_domain(&mut buf)?;
            if domain.data_type() != ty {
                return Err(corrupt("domain type mismatch"));
            }
            let mut def = ColumnDef::new(col_name, ty).with_domain(domain);
            if nullable {
                def = def.nullable();
            }
            columns.push(def);
        }
        let source_column = if get_u8(&mut buf)? == 1 {
            Some(checked_u16(&mut buf, "source column")? as usize)
        } else {
            None
        };
        let source_name =
            source_column.map(|i| columns.get(i).map(|c| c.name.clone()).unwrap_or_default());
        let mut schema = TableSchema::new(name.clone(), columns, source_name.as_deref())?;
        let n_checks = checked_u16(&mut buf, "check count")?;
        for _ in 0..n_checks {
            let check_name = get_str(&mut buf)?;
            let sql = get_str(&mut buf)?;
            let check = bind_check(&schema, &check_name, &sql)?;
            schema = schema.with_check(check);
        }
        let arity = schema.arity();
        let n_indexes = checked_u16(&mut buf, "index count")?;
        for _ in 0..n_indexes {
            let col = checked_u16(&mut buf, "index column")? as usize;
            let col_name = schema
                .columns
                .get(col)
                .ok_or_else(|| corrupt("index column out of range"))?
                .name
                .clone();
            pending_indexes.push((name.clone(), col_name));
        }
        // The bootstrap heartbeat table already exists; replace it so the
        // persisted domain and contents win.
        if db.begin_read().table_id(&name).is_ok() {
            db.drop_table(&name)?;
        }
        let tid = db.create_table(schema)?;
        let n_rows = buf_get_u64(&mut buf)?;
        for _ in 0..n_rows {
            let mut row = Vec::with_capacity(arity);
            for _ in 0..arity {
                row.push(get_value(&mut buf)?);
            }
            txn.insert(tid, row)?;
        }
    }
    if buf.has_remaining() {
        return Err(corrupt("trailing bytes"));
    }
    txn.commit();
    for (table, column) in pending_indexes {
        db.create_index(&table, &column)?;
    }
    Ok(db)
}

fn type_tag(ty: DataType) -> u8 {
    match ty {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Text => 2,
        DataType::Bool => 3,
        DataType::Timestamp => 4,
    }
}

fn type_from_tag(tag: u8) -> Option<DataType> {
    Some(match tag {
        0 => DataType::Int,
        1 => DataType::Float,
        2 => DataType::Text,
        3 => DataType::Bool,
        4 => DataType::Timestamp,
        _ => return None,
    })
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut Bytes) -> Result<String> {
    let len = checked_u32(buf, "string length")? as usize;
    if buf.remaining() < len {
        return Err(TracError::Storage(
            "corrupt snapshot: truncated string".into(),
        ));
    }
    String::from_utf8(buf.copy_to_bytes(len).to_vec())
        .map_err(|_| TracError::Storage("corrupt snapshot: invalid utf-8".into()))
}

fn get_u8(buf: &mut Bytes) -> Result<u8> {
    if !buf.has_remaining() {
        return Err(TracError::Storage("corrupt snapshot: truncated".into()));
    }
    Ok(buf.get_u8())
}

fn checked_u16(buf: &mut Bytes, what: &str) -> Result<u16> {
    if buf.remaining() < 2 {
        return Err(TracError::Storage(format!(
            "corrupt snapshot: truncated {what}"
        )));
    }
    Ok(buf.get_u16())
}

fn checked_u32(buf: &mut Bytes, what: &str) -> Result<u32> {
    if buf.remaining() < 4 {
        return Err(TracError::Storage(format!(
            "corrupt snapshot: truncated {what}"
        )));
    }
    Ok(buf.get_u32())
}

fn buf_get_u64(buf: &mut Bytes) -> Result<u64> {
    if buf.remaining() < 8 {
        return Err(TracError::Storage("corrupt snapshot: truncated u64".into()));
    }
    Ok(buf.get_u64())
}

fn put_domain(buf: &mut BytesMut, d: &ColumnDomain) {
    match d {
        ColumnDomain::Any(ty) => {
            buf.put_u8(0);
            buf.put_u8(type_tag(*ty));
        }
        ColumnDomain::IntRange { lo, hi } => {
            buf.put_u8(1);
            buf.put_i64(*lo);
            buf.put_i64(*hi);
        }
        ColumnDomain::TextSet(set) => {
            buf.put_u8(2);
            buf.put_u32(set.len() as u32);
            for s in set.iter() {
                put_str(buf, s);
            }
        }
        ColumnDomain::TimestampRange { lo, hi } => {
            buf.put_u8(3);
            buf.put_i64(lo.micros());
            buf.put_i64(hi.micros());
        }
        ColumnDomain::Bools => buf.put_u8(4),
    }
}

fn get_domain(buf: &mut Bytes) -> Result<ColumnDomain> {
    Ok(match get_u8(buf)? {
        0 => ColumnDomain::Any(
            type_from_tag(get_u8(buf)?)
                .ok_or_else(|| TracError::Storage("corrupt snapshot: bad domain type".into()))?,
        ),
        1 => ColumnDomain::IntRange {
            lo: get_i64(buf)?,
            hi: get_i64(buf)?,
        },
        2 => {
            let n = checked_u32(buf, "text set size")?;
            // Each entry needs at least its 4-byte length, so the bytes
            // left bound what an honest count can ask for.
            let mut items = Vec::with_capacity((n as usize).min(buf.remaining() / 4));
            for _ in 0..n {
                items.push(get_str(buf)?);
            }
            ColumnDomain::text_set(items)
        }
        3 => ColumnDomain::TimestampRange {
            lo: Timestamp::from_micros(get_i64(buf)?),
            hi: Timestamp::from_micros(get_i64(buf)?),
        },
        4 => ColumnDomain::Bools,
        _ => {
            return Err(TracError::Storage(
                "corrupt snapshot: bad domain tag".into(),
            ))
        }
    })
}

fn get_i64(buf: &mut Bytes) -> Result<i64> {
    if buf.remaining() < 8 {
        return Err(TracError::Storage("corrupt snapshot: truncated i64".into()));
    }
    Ok(buf.get_i64())
}

fn put_value(buf: &mut BytesMut, v: &Value) {
    match v {
        Value::Null => buf.put_u8(0),
        Value::Bool(b) => {
            buf.put_u8(1);
            buf.put_u8(*b as u8);
        }
        Value::Int(i) => {
            buf.put_u8(2);
            buf.put_i64(*i);
        }
        Value::Float(f) => {
            buf.put_u8(3);
            buf.put_f64(*f);
        }
        Value::Text(s) => {
            buf.put_u8(4);
            put_str(buf, s);
        }
        Value::Timestamp(t) => {
            buf.put_u8(5);
            buf.put_i64(t.micros());
        }
    }
}

fn get_value(buf: &mut Bytes) -> Result<Value> {
    Ok(match get_u8(buf)? {
        0 => Value::Null,
        1 => Value::Bool(get_u8(buf)? != 0),
        2 => Value::Int(get_i64(buf)?),
        3 => {
            if buf.remaining() < 8 {
                return Err(TracError::Storage("corrupt snapshot: truncated f64".into()));
            }
            Value::Float(buf.get_f64())
        }
        4 => Value::Text(get_str(buf)?),
        5 => Value::Timestamp(Timestamp::from_micros(get_i64(buf)?)),
        _ => return Err(TracError::Storage("corrupt snapshot: bad value tag".into())),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use trac_types::SourceId;

    fn no_checks(_: &TableSchema, name: &str, _: &str) -> Result<RowCheckRef> {
        Err(TracError::Storage(format!(
            "test binder refuses check {name}"
        )))
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("trac_persist_{name}_{}", std::process::id()))
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let db = Database::new();
        let schema = TableSchema::new(
            "activity",
            vec![
                ColumnDef::new("mach_id", DataType::Text)
                    .with_domain(ColumnDomain::text_set(["m1", "m2"])),
                ColumnDef::new("value", DataType::Text).nullable(),
                ColumnDef::new("n", DataType::Int)
                    .with_domain(ColumnDomain::IntRange { lo: 0, hi: 9 })
                    .nullable(),
                ColumnDef::new("t", DataType::Timestamp).nullable(),
                ColumnDef::new("f", DataType::Float).nullable(),
                ColumnDef::new("b", DataType::Bool).nullable(),
            ],
            Some("mach_id"),
        )
        .unwrap();
        db.create_table(schema).unwrap();
        db.create_index("activity", "mach_id").unwrap();
        let tid = db.begin_read().table_id("activity").unwrap();
        db.with_write(|w| {
            w.heartbeat(&SourceId::new("m1"), Timestamp::from_secs(50))?;
            w.insert(
                tid,
                vec![
                    Value::text("m1"),
                    Value::text("idle"),
                    Value::Int(3),
                    Value::Timestamp(Timestamp::from_secs(99)),
                    Value::Float(2.5),
                    Value::Bool(true),
                ],
            )?;
            w.insert(
                tid,
                vec![
                    Value::text("m2"),
                    Value::Null,
                    Value::Null,
                    Value::Null,
                    Value::Null,
                    Value::Null,
                ],
            )
        })
        .unwrap();
        // A row deleted before the save must not reappear.
        let (slot, _) = db
            .begin_read()
            .scan_slots(tid)
            .unwrap()
            .into_iter()
            .find(|(_, r)| r[0] == Value::text("m2"))
            .unwrap();
        db.with_write(|w| w.delete(tid, slot)).unwrap();

        let path = tmp("roundtrip");
        save_snapshot(&db, &path).unwrap();
        let loaded = load_snapshot(&path, &no_checks).unwrap();
        std::fs::remove_file(&path).ok();

        let txn = loaded.begin_read();
        let tid2 = txn.table_id("activity").unwrap();
        let schema2 = txn.schema(tid2).unwrap();
        assert_eq!(schema2.source_column, Some(0));
        assert_eq!(
            schema2.columns[0].domain,
            ColumnDomain::text_set(["m1", "m2"])
        );
        assert!(txn.has_index(tid2, 0), "index definitions persist");
        let rows = txn.scan(tid2).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::text("m1"));
        assert_eq!(rows[0][4], Value::Float(2.5));
        // The heartbeat table came along too.
        assert_eq!(
            crate::heartbeat::recency_of(&txn, &SourceId::new("m1")).unwrap(),
            Some(Timestamp::from_secs(50))
        );
    }

    #[test]
    fn temp_tables_are_not_persisted() {
        let db = Database::new();
        let session = db.new_session_id();
        let schema =
            TableSchema::new("scratch", vec![ColumnDef::new("x", DataType::Int)], None).unwrap();
        db.create_temp_table(schema, session).unwrap();
        let path = tmp("temps");
        save_snapshot(&db, &path).unwrap();
        let loaded = load_snapshot(&path, &no_checks).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(loaded.begin_read().table_id("scratch").is_err());
    }

    /// `body` closed by its valid checksum trailer.
    fn sealed(body: &[u8]) -> Vec<u8> {
        [body, &crc32(body).to_be_bytes()].concat()
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn rejects_garbage_files() {
        let path = tmp("garbage");
        std::fs::write(&path, b"not a snapshot at all").unwrap();
        let err = load_snapshot(&path, &no_checks).err().expect("must fail");
        assert!(err.message().contains("checksum"), "{err}");
        std::fs::write(&path, sealed(b"not a snapshot at all")).unwrap();
        let err = load_snapshot(&path, &no_checks).err().expect("must fail");
        assert!(err.message().contains("bad magic"), "{err}");
        std::fs::write(&path, sealed(b"TRAC\x00\x63")).unwrap(); // version 99
        let err = load_snapshot(&path, &no_checks).err().expect("must fail");
        assert!(err.message().contains("version"), "{err}");
        // Truncated after a valid header.
        std::fs::write(&path, sealed(b"TRAC\x00\x02\x00\x00\x00\x05")).unwrap();
        let err = load_snapshot(&path, &no_checks).err().expect("must fail");
        assert!(err.message().contains("truncated"), "{err}");
        // One TEXT column whose text set declares 2^32 - 1 entries that
        // the file cannot hold: no allocation may be sized by the count.
        let mut huge = b"TRAC\x00\x02\x00\x00\x00\x01".to_vec();
        huge.extend_from_slice(b"\x00\x00\x00\x01t\x00\x01"); // table `t`, 1 column
        huge.extend_from_slice(b"\x00\x00\x00\x01c\x02\x00"); // `c` TEXT NOT NULL
        huge.extend_from_slice(b"\x02\xff\xff\xff\xff"); // text set, count
        std::fs::write(&path, sealed(&huge)).unwrap();
        let err = load_snapshot(&path, &no_checks).err().expect("must fail");
        assert!(err.message().contains("truncated"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn damaged_snapshots_load_to_errors_not_panics() {
        // Every value tag, every domain kind and one index, in a file
        // small enough to damage at every bit.
        let db = Database::new();
        let ts = Timestamp::from_secs;
        let schema = TableSchema::new(
            "t",
            vec![
                ColumnDef::new("s", DataType::Text).with_domain(ColumnDomain::text_set(["a"])),
                ColumnDef::new("i", DataType::Int)
                    .with_domain(ColumnDomain::IntRange { lo: 0, hi: 9 })
                    .nullable(),
                ColumnDef::new("f", DataType::Float).nullable(),
                ColumnDef::new("b", DataType::Bool)
                    .with_domain(ColumnDomain::Bools)
                    .nullable(),
                ColumnDef::new("ts", DataType::Timestamp)
                    .with_domain(ColumnDomain::TimestampRange {
                        lo: ts(0),
                        hi: ts(100),
                    })
                    .nullable(),
            ],
            Some("s"),
        )
        .unwrap();
        let tid = db.create_table(schema).unwrap();
        db.create_index("t", "i").unwrap();
        let full = vec![
            Value::text("a"),
            Value::Int(3),
            Value::Float(2.5),
            Value::Bool(true),
            Value::Timestamp(ts(99)),
        ];
        let nulls = [vec![Value::text("a")], vec![Value::Null; 4]].concat();
        db.with_write(|w| w.insert(tid, full).and_then(|_| w.insert(tid, nulls)))
            .unwrap();
        let path = tmp("damaged");
        save_snapshot(&db, &path).unwrap();
        let file = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(file.len() < 512, "{} bytes", file.len());

        let rows = |db: &Database| {
            let txn = db.begin_read();
            txn.scan(txn.table_id("t").unwrap()).unwrap()
        };
        let loaded = decode_snapshot(file.clone(), &no_checks).unwrap();
        assert_eq!(rows(&loaded), rows(&db));
        for len in 0..file.len() {
            assert!(
                decode_snapshot(file[..len].to_vec(), &no_checks).is_err(),
                "a {len}-byte prefix loaded"
            );
        }
        for bit in 0..file.len() * 8 {
            let mut flipped = file.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let load = std::panic::catch_unwind(|| decode_snapshot(flipped, &no_checks).is_ok());
            assert_eq!(
                load.ok(),
                Some(false),
                "flipping bit {bit} loaded or panicked"
            );
        }
    }

    #[test]
    fn snapshot_excludes_uncommitted_writes() {
        let db = Database::new();
        let txn = db.begin_write();
        txn.heartbeat(&SourceId::new("ghost"), Timestamp::from_secs(1))
            .unwrap();
        let path = tmp("uncommitted");
        save_snapshot(&db, &path).unwrap();
        txn.abort();
        let loaded = load_snapshot(&path, &no_checks).unwrap();
        std::fs::remove_file(&path).ok();
        let r = loaded.begin_read();
        assert_eq!(
            crate::heartbeat::recency_of(&r, &SourceId::new("ghost")).unwrap(),
            None
        );
    }
}
