//! Byte-level encoding shared by the WAL, the pager, and the leaf lists.
//!
//! Everything on disk is little-endian and length-prefixed; decoding is
//! bounds-checked and returns an error instead of panicking, because the
//! bytes being decoded may have survived a crash.

use crate::value::Value;

/// A decode failure: the bytes do not parse as the expected structure.
/// The recovery layer maps this to `RecoveryError::ChecksumMismatch` /
/// `Corrupt` depending on where it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CodecError(pub String);

pub(crate) type CodecResult<T> = std::result::Result<T, CodecError>;

pub(crate) fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Cell values: tag byte, then the payload. NULL has no payload.
pub(crate) fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => put_u8(out, 0),
        Value::Int(n) => {
            put_u8(out, 1);
            out.extend_from_slice(&n.to_le_bytes());
        }
        Value::Text(s) => {
            put_u8(out, 2);
            put_str(out, s);
        }
    }
}

pub(crate) fn put_row(out: &mut Vec<u8>, row: &[Value]) {
    put_u32(out, row.len() as u32);
    for v in row {
        put_value(out, v);
    }
}

/// Bounds-checked reader over a byte slice.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn take(&mut self, n: usize) -> CodecResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(CodecError(format!(
                "need {n} bytes at offset {} but only {} remain",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> CodecResult<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> CodecResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    pub(crate) fn u32(&mut self) -> CodecResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    pub(crate) fn u64(&mut self) -> CodecResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    pub(crate) fn i64(&mut self) -> CodecResult<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    pub(crate) fn bytes(&mut self) -> CodecResult<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    pub(crate) fn str(&mut self) -> CodecResult<String> {
        let bytes = self.bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError("invalid utf-8".into()))
    }

    pub(crate) fn value(&mut self) -> CodecResult<Value> {
        match self.u8()? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Int(self.i64()?)),
            2 => Ok(Value::Text(self.str()?)),
            tag => Err(CodecError(format!("unknown value tag {tag}"))),
        }
    }

    /// A row: its cell count, then each cell. The cells go into a `Vec`
    /// of exactly that capacity — the row's one allocation besides its
    /// strings — which a count past the bytes left cannot size: every
    /// cell takes at least its tag byte, so such a count is refused first.
    pub(crate) fn row(&mut self) -> CodecResult<Vec<Value>> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(CodecError(format!(
                "row claims {n} cells, only {} bytes",
                self.remaining()
            )));
        }
        let mut row = Vec::with_capacity(n);
        for _ in 0..n {
            row.push(self.value()?);
        }
        Ok(row)
    }
}

/// FNV-1a 64-bit — the canonical-state fingerprint the crash harness
/// compares across recoveries. Not cryptographic; collision resistance at
/// test scale is all that is needed.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_round_trip() {
        let values =
            [Value::Null, Value::Int(-42), Value::Int(i64::MAX), Value::Text("née".into())];
        let mut buf = Vec::new();
        put_row(&mut buf, &values);
        let mut r = Reader::new(&buf);
        assert_eq!(r.row().unwrap(), values);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncated_input_errors_instead_of_panicking() {
        let mut buf = Vec::new();
        put_str(&mut buf, "hello");
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            assert!(r.str().is_err(), "cut at {cut} must fail cleanly");
        }
    }
}
