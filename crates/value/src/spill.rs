//! Length-prefixed [`Value`] serialization for spill runs.
//!
//! The runtime's pipeline breakers (hash-join builds, distinct seen-sets,
//! buffered join inners) overflow to disk when their memory budget
//! trips.  What they write is a *run*: a sequence of records, each record
//! a short vector of [`Value`]s (a join row's key plus frames, a distinct
//! candidate).  This module defines that on-disk
//! format and the [`RunWriter`]/[`RunReader`] pair that streams it.
//!
//! # Format
//!
//! Every number is little-endian and fixed-width.  A record is a `u32`
//! value count followed by that many values.  A value is a one-byte
//! variant tag followed by its payload:
//!
//! | tag | variant | payload |
//! |-----|---------|---------|
//! | 0 | `Null`   | — |
//! | 1 | `Bool`   | 1 byte (0/1) |
//! | 2 | `Int`    | 8 bytes (`i64`) |
//! | 3 | `Float`  | 8 bytes (`f64` bit pattern, NaN payloads preserved) |
//! | 4 | `Str`    | `u32` byte length + UTF-8 bytes |
//! | 5 | `Struct` | `u32` field count + per field (`u32` name length + name bytes + value) |
//! | 6 | `List`   | `u32` element count + elements |
//! | 7 | `Bag`    | `u32` element count + elements |
//!
//! Deserialization reconstructs exactly the value that was written —
//! floats round-trip bit-for-bit via [`f64::to_bits`], struct field order
//! is preserved — so a spilled row compares, hashes and displays exactly
//! like its in-memory original.  Sharing is *not* preserved: two clones of
//! one `Arc<str>` serialize as two copies and deserialize as distinct
//! allocations.  Spill files are private to one operator within one
//! process and are deleted after the run is drained, so the format needs
//! no versioning, endian negotiation, or cross-process stability.
//!
//! Errors are [`std::io::Error`]; corrupt input (unknown tag, invalid
//! UTF-8, truncated payload, duplicate struct field) surfaces as
//! [`std::io::ErrorKind::InvalidData`] / `UnexpectedEof` rather than a
//! panic.

use std::io::{self, Read, Write};
use std::sync::Arc;

use crate::{Bag, StructValue, Value};

/// Variant tags of the on-disk value encoding.
const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_FLOAT: u8 = 3;
const TAG_STR: u8 = 4;
const TAG_STRUCT: u8 = 5;
const TAG_LIST: u8 = 6;
const TAG_BAG: u8 = 7;

fn write_u32<W: Write>(w: &mut W, n: usize) -> io::Result<()> {
    let n = u32::try_from(n)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "spill length exceeds u32"))?;
    w.write_all(&n.to_le_bytes())
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<usize> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf) as usize)
}

/// Serializes one value in the spill encoding.
///
/// # Errors
///
/// Propagates I/O errors from `w`; a string or collection longer than
/// `u32::MAX` is rejected as [`std::io::ErrorKind::InvalidData`].
pub fn write_value<W: Write>(w: &mut W, value: &Value) -> io::Result<()> {
    match value {
        Value::Null => w.write_all(&[TAG_NULL]),
        Value::Bool(b) => w.write_all(&[TAG_BOOL, u8::from(*b)]),
        Value::Int(i) => {
            w.write_all(&[TAG_INT])?;
            w.write_all(&i.to_le_bytes())
        }
        Value::Float(x) => {
            w.write_all(&[TAG_FLOAT])?;
            w.write_all(&x.to_bits().to_le_bytes())
        }
        Value::Str(s) => {
            w.write_all(&[TAG_STR])?;
            write_u32(w, s.len())?;
            w.write_all(s.as_bytes())
        }
        Value::Struct(s) => {
            w.write_all(&[TAG_STRUCT])?;
            write_u32(w, s.len())?;
            for (name, field) in s.iter() {
                write_u32(w, name.len())?;
                w.write_all(name.as_bytes())?;
                write_value(w, field)?;
            }
            Ok(())
        }
        Value::List(items) => {
            w.write_all(&[TAG_LIST])?;
            write_u32(w, items.len())?;
            for item in items.iter() {
                write_value(w, item)?;
            }
            Ok(())
        }
        Value::Bag(bag) => {
            w.write_all(&[TAG_BAG])?;
            write_u32(w, bag.len())?;
            for item in bag.iter() {
                write_value(w, item)?;
            }
            Ok(())
        }
    }
}

fn read_string<R: Read>(r: &mut R) -> io::Result<Arc<str>> {
    let len = read_u32(r)?;
    let mut bytes = vec![0u8; len];
    r.read_exact(&mut bytes)?;
    let s = String::from_utf8(bytes)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "spill string is not UTF-8"))?;
    Ok(Arc::from(s))
}

/// Deserializes one value written by [`write_value`].
///
/// # Errors
///
/// Propagates I/O errors; truncated input yields
/// [`std::io::ErrorKind::UnexpectedEof`] and a malformed payload yields
/// [`std::io::ErrorKind::InvalidData`].
pub fn read_value<R: Read>(r: &mut R) -> io::Result<Value> {
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    match tag[0] {
        TAG_NULL => Ok(Value::Null),
        TAG_BOOL => {
            let mut b = [0u8; 1];
            r.read_exact(&mut b)?;
            Ok(Value::Bool(b[0] != 0))
        }
        TAG_INT => {
            let mut b = [0u8; 8];
            r.read_exact(&mut b)?;
            Ok(Value::Int(i64::from_le_bytes(b)))
        }
        TAG_FLOAT => {
            let mut b = [0u8; 8];
            r.read_exact(&mut b)?;
            Ok(Value::Float(f64::from_bits(u64::from_le_bytes(b))))
        }
        TAG_STR => Ok(Value::Str(read_string(r)?)),
        TAG_STRUCT => {
            let len = read_u32(r)?;
            let mut fields = Vec::with_capacity(len.min(MAX_PREALLOC));
            for _ in 0..len {
                let name = read_string(r)?;
                let value = read_value(r)?;
                fields.push((name, value));
            }
            let s = StructValue::new(fields).map_err(|_| {
                io::Error::new(io::ErrorKind::InvalidData, "spill struct repeats a field")
            })?;
            Ok(Value::Struct(s))
        }
        TAG_LIST => {
            let len = read_u32(r)?;
            let mut items = Vec::with_capacity(len.min(MAX_PREALLOC));
            for _ in 0..len {
                items.push(read_value(r)?);
            }
            Ok(Value::List(Arc::new(items)))
        }
        TAG_BAG => {
            let len = read_u32(r)?;
            let mut items = Vec::with_capacity(len.min(MAX_PREALLOC));
            for _ in 0..len {
                items.push(read_value(r)?);
            }
            Ok(Value::Bag(Bag::from(items)))
        }
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unknown spill value tag {other}"),
        )),
    }
}

/// Cap on speculative `Vec::with_capacity` during reads, so a corrupt
/// length prefix cannot request an absurd allocation before the decode
/// fails naturally on EOF.
const MAX_PREALLOC: usize = 1 << 16;

/// Approximate in-memory footprint of a value, in bytes.
///
/// This is the currency of the runtime's spill [`MemoryBudget`] — an
/// *estimate*, not an allocator measurement: it counts the inline enum
/// plus reachable heap payloads (string bytes, struct field vectors and
/// names, list/bag element vectors).  Values sharing an `Arc` are counted
/// once per reference, which overstates truly shared storage; the budget
/// only needs monotone, order-of-magnitude accounting to decide when to
/// spill, so erring toward overcounting is the safe direction.
///
/// [`MemoryBudget`]: https://docs.rs/disco-runtime
#[must_use]
pub fn approx_value_bytes(value: &Value) -> usize {
    let inline = std::mem::size_of::<Value>();
    match value {
        Value::Null | Value::Bool(_) | Value::Int(_) | Value::Float(_) => inline,
        Value::Str(s) => inline + s.len(),
        Value::Struct(s) => {
            inline
                + s.iter()
                    .map(|(n, v)| std::mem::size_of::<(Arc<str>, Value)>() + n.len() + heap_only(v))
                    .sum::<usize>()
        }
        Value::List(items) => {
            inline
                + items
                    .iter()
                    .map(|v| std::mem::size_of::<Value>() + heap_only(v))
                    .sum::<usize>()
        }
        Value::Bag(bag) => {
            inline
                + bag
                    .iter()
                    .map(|v| std::mem::size_of::<Value>() + heap_only(v))
                    .sum::<usize>()
        }
    }
}

/// Heap payload of `value` excluding its inline enum size (which the
/// containing vector already accounts for).
fn heap_only(value: &Value) -> usize {
    approx_value_bytes(value) - std::mem::size_of::<Value>()
}

/// Streams records (short `Value` vectors) into a spill run.
///
/// A run is append-only: [`push`](RunWriter::push) serializes one record,
/// [`finish`](RunWriter::finish) flushes and hands the inner writer back.
/// The writer tracks how many rows and encoded bytes it has emitted so
/// the runtime can account spilled bytes without re-measuring the file.
#[derive(Debug)]
pub struct RunWriter<W: Write> {
    inner: W,
    rows: u64,
    bytes: u64,
}

/// Byte-counting shim so [`RunWriter`] can report encoded sizes without
/// serializing each record twice.
struct CountingWriter<'a, W: Write> {
    inner: &'a mut W,
    written: u64,
}

impl<W: Write> Write for CountingWriter<'_, W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl<W: Write> RunWriter<W> {
    /// Wraps `inner` (typically a `BufWriter<File>`) as a run writer.
    pub fn new(inner: W) -> Self {
        RunWriter {
            inner,
            rows: 0,
            bytes: 0,
        }
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; on error the run is in an undefined state
    /// and should be discarded.
    pub fn push(&mut self, record: &[Value]) -> io::Result<()> {
        let mut counting = CountingWriter {
            inner: &mut self.inner,
            written: 0,
        };
        write_u32(&mut counting, record.len())?;
        for value in record {
            write_value(&mut counting, value)?;
        }
        self.bytes += counting.written;
        self.rows += 1;
        Ok(())
    }

    /// Number of records written so far.
    #[must_use]
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Number of encoded bytes written so far.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Flushes and returns the inner writer.
    ///
    /// # Errors
    ///
    /// Propagates the flush error.
    pub fn finish(mut self) -> io::Result<W> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

/// Streams records back out of a spill run written by [`RunWriter`].
#[derive(Debug)]
pub struct RunReader<R: Read> {
    inner: R,
}

impl<R: Read> RunReader<R> {
    /// Wraps `inner` (typically a `BufReader<File>` positioned at the
    /// start of a run) as a run reader.
    pub fn new(inner: R) -> Self {
        RunReader { inner }
    }

    /// Reads the next record, or `None` at a clean end of run.
    ///
    /// # Errors
    ///
    /// A record truncated mid-payload is an error
    /// ([`std::io::ErrorKind::UnexpectedEof`]), not a clean end.
    pub fn next_record(&mut self) -> io::Result<Option<Vec<Value>>> {
        let mut len_buf = [0u8; 4];
        // EOF exactly at a record boundary is the clean end of the run.
        match self.inner.read(&mut len_buf)? {
            0 => return Ok(None),
            n if n < 4 => self.inner.read_exact(&mut len_buf[n..])?,
            _ => {}
        }
        let len = u32::from_le_bytes(len_buf) as usize;
        let mut record = Vec::with_capacity(len.min(MAX_PREALLOC));
        for _ in 0..len {
            record.push(read_value(&mut self.inner)?);
        }
        Ok(Some(record))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(values: Vec<Value>) {
        let mut buf = Vec::new();
        let mut writer = RunWriter::new(&mut buf);
        writer.push(&values).unwrap();
        let bytes = writer.bytes();
        writer.finish().unwrap();
        assert_eq!(bytes, buf.len() as u64);
        let mut reader = RunReader::new(buf.as_slice());
        let back = reader.next_record().unwrap().unwrap();
        assert_eq!(back, values);
        assert!(reader.next_record().unwrap().is_none());
    }

    #[test]
    fn scalars_round_trip() {
        round_trip(vec![
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Float(1.5),
            Value::Float(f64::NEG_INFINITY),
            Value::from("héllo — utf8"),
            Value::from(""),
        ]);
    }

    #[test]
    fn float_bit_patterns_round_trip() {
        let nan = f64::from_bits(0x7ff8_0000_dead_beef);
        let mut buf = Vec::new();
        write_value(&mut buf, &Value::Float(nan)).unwrap();
        write_value(&mut buf, &Value::Float(-0.0)).unwrap();
        let mut r = buf.as_slice();
        match read_value(&mut r).unwrap() {
            Value::Float(x) => assert_eq!(x.to_bits(), nan.to_bits()),
            other => panic!("expected float, got {other:?}"),
        }
        match read_value(&mut r).unwrap() {
            Value::Float(x) => assert_eq!(x.to_bits(), (-0.0f64).to_bits()),
            other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn nested_values_round_trip() {
        let row = Value::new_struct(vec![
            ("name", Value::from("Mary")),
            ("tags", Value::list(vec![Value::Int(1), Value::Null])),
            (
                "inner",
                Value::new_struct(vec![("x", Value::Float(2.5))]).unwrap(),
            ),
            (
                "bag",
                Value::Bag(Bag::from(vec![Value::from("a"), Value::from("a")])),
            ),
        ])
        .unwrap();
        round_trip(vec![row.clone(), Value::Int(7), row]);
    }

    #[test]
    fn struct_field_order_is_preserved() {
        let s = Value::new_struct(vec![("b", Value::Int(2)), ("a", Value::Int(1))]).unwrap();
        let mut buf = Vec::new();
        write_value(&mut buf, &s).unwrap();
        let back = read_value(&mut buf.as_slice()).unwrap();
        let back = back.as_struct().unwrap();
        assert_eq!(back.field_names().collect::<Vec<_>>(), vec!["b", "a"]);
    }

    #[test]
    fn multiple_records_stream_in_order() {
        let mut buf = Vec::new();
        let mut writer = RunWriter::new(&mut buf);
        for i in 0..10i64 {
            writer
                .push(&[Value::Int(i), Value::from(format!("r{i}"))])
                .unwrap();
        }
        assert_eq!(writer.rows(), 10);
        writer.finish().unwrap();
        let mut reader = RunReader::new(buf.as_slice());
        for i in 0..10i64 {
            let rec = reader.next_record().unwrap().unwrap();
            assert_eq!(rec[0], Value::Int(i));
        }
        assert!(reader.next_record().unwrap().is_none());
    }

    #[test]
    fn empty_record_round_trips() {
        let mut buf = Vec::new();
        let mut writer = RunWriter::new(&mut buf);
        writer.push(&[]).unwrap();
        writer.finish().unwrap();
        let mut reader = RunReader::new(buf.as_slice());
        assert_eq!(reader.next_record().unwrap().unwrap(), Vec::<Value>::new());
        assert!(reader.next_record().unwrap().is_none());
    }

    #[test]
    fn truncated_record_is_an_error_not_a_clean_end() {
        let mut buf = Vec::new();
        let mut writer = RunWriter::new(&mut buf);
        writer.push(&[Value::from("payload")]).unwrap();
        writer.finish().unwrap();
        buf.truncate(buf.len() - 3);
        let mut reader = RunReader::new(buf.as_slice());
        let err = reader.next_record().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn unknown_tag_is_invalid_data() {
        let buf = [42u8];
        let err = read_value(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn approx_bytes_grows_with_payload() {
        let small = approx_value_bytes(&Value::from("ab"));
        let large = approx_value_bytes(&Value::from("a".repeat(1000).as_str()));
        assert!(large > small + 900);
        let nested = Value::new_struct(vec![("k", Value::from("a".repeat(100).as_str()))]).unwrap();
        assert!(approx_value_bytes(&nested) > 100);
        assert!(approx_value_bytes(&Value::Int(1)) >= std::mem::size_of::<Value>());
    }
}
