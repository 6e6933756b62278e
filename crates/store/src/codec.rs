//! Little-endian binary encoding primitives shared by the file codec.

use crate::{Result, StoreError};
use bytes::{Buf, BufMut};

pub fn put_str(buf: &mut impl BufMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

pub fn get_str(buf: &mut impl Buf) -> Result<String> {
    let len = get_u32(buf)? as usize;
    if buf.remaining() < len {
        return Err(StoreError::Corrupt("string overruns buffer".into()));
    }
    let mut bytes = vec![0u8; len];
    buf.copy_to_slice(&mut bytes);
    String::from_utf8(bytes).map_err(|_| StoreError::Corrupt("invalid utf8 string".into()))
}

pub fn get_u8(buf: &mut impl Buf) -> Result<u8> {
    if buf.remaining() < 1 {
        return Err(StoreError::Corrupt("truncated u8".into()));
    }
    Ok(buf.get_u8())
}

pub fn get_u32(buf: &mut impl Buf) -> Result<u32> {
    if buf.remaining() < 4 {
        return Err(StoreError::Corrupt("truncated u32".into()));
    }
    Ok(buf.get_u32_le())
}

pub fn get_u64(buf: &mut impl Buf) -> Result<u64> {
    if buf.remaining() < 8 {
        return Err(StoreError::Corrupt("truncated u64".into()));
    }
    Ok(buf.get_u64_le())
}

pub fn get_i64(buf: &mut impl Buf) -> Result<i64> {
    if buf.remaining() < 8 {
        return Err(StoreError::Corrupt("truncated i64".into()));
    }
    Ok(buf.get_i64_le())
}

pub fn get_f64(buf: &mut impl Buf) -> Result<f64> {
    if buf.remaining() < 8 {
        return Err(StoreError::Corrupt("truncated f64".into()));
    }
    Ok(buf.get_f64_le())
}

pub fn get_bytes(buf: &mut impl Buf, len: usize) -> Result<Vec<u8>> {
    if buf.remaining() < len {
        return Err(StoreError::Corrupt(format!(
            "payload of {len} bytes overruns buffer ({} left)",
            buf.remaining()
        )));
    }
    let out = buf.chunk()[..len].to_vec();
    buf.advance(len);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    #[test]
    fn string_roundtrip() {
        let mut buf = BytesMut::new();
        put_str(&mut buf, "héllo/wörld");
        let mut rd = buf.freeze();
        assert_eq!(get_str(&mut rd).unwrap(), "héllo/wörld");
    }

    #[test]
    fn truncation_is_detected() {
        let mut buf = BytesMut::new();
        put_str(&mut buf, "abcdef");
        let b = buf.freeze();
        let mut rd = b.slice(0..5); // cut mid-string
        assert!(get_str(&mut rd).is_err());
        let mut empty = bytes::Bytes::new();
        assert!(get_u64(&mut empty).is_err());
        assert!(get_u8(&mut empty).is_err());
    }

    #[test]
    fn numeric_roundtrip() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(42);
        buf.put_u64_le(1 << 40);
        buf.put_i64_le(-7);
        buf.put_f64_le(2.5);
        let mut rd = buf.freeze();
        assert_eq!(get_u32(&mut rd).unwrap(), 42);
        assert_eq!(get_u64(&mut rd).unwrap(), 1 << 40);
        assert_eq!(get_i64(&mut rd).unwrap(), -7);
        assert_eq!(get_f64(&mut rd).unwrap(), 2.5);
    }
}
