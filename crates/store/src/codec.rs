//! Length-prefixed strings over the frame layer's checked [`Cursor`].

use crate::frame::Cursor;
use crate::{Result, StoreError};

pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend((s.len() as u32).to_le_bytes());
    buf.extend(s.as_bytes());
}

pub fn get_str(buf: &mut Cursor) -> Result<String> {
    let len = buf.u32()? as usize;
    let bytes = buf.take(len)?.to_vec();
    String::from_utf8(bytes).map_err(|_| StoreError::Corrupt("invalid utf8 string".into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_roundtrip() {
        let mut buf = Vec::new();
        put_str(&mut buf, "héllo/wörld");
        let mut rd = Cursor::new(&buf);
        assert_eq!(get_str(&mut rd).unwrap(), "héllo/wörld");
    }

    #[test]
    fn truncation_is_detected() {
        let mut buf = Vec::new();
        put_str(&mut buf, "abcdef");
        let mut rd = Cursor::new(&buf[..5]); // cut mid-string
        assert!(get_str(&mut rd).is_err());
        let mut empty = Cursor::new(&[]);
        let short = StoreError::from(empty.u64().unwrap_err());
        assert!(matches!(short, StoreError::Corrupt(_)));
        assert!(empty.u8().is_err());
    }

    #[test]
    fn numeric_roundtrip() {
        let mut buf = Vec::new();
        buf.extend(42u32.to_le_bytes());
        buf.extend((1u64 << 40).to_le_bytes());
        buf.extend((-7i64).to_le_bytes());
        buf.extend(2.5f64.to_le_bytes());
        let mut rd = Cursor::new(&buf);
        assert_eq!(rd.u32(), Ok(42));
        assert_eq!(rd.u64(), Ok(1 << 40));
        assert_eq!(rd.i64(), Ok(-7));
        assert_eq!(rd.f64(), Ok(2.5));
    }
}
