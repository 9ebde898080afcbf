//! Checked byte cursor used by every decoder in this crate.
//!
//! `bytes::Buf` panics on underflow; wire parsers must instead surface
//! truncation as an error, so this thin wrapper performs bounds-checked
//! reads that return [`MrtError::Truncated`].

use crate::error::MrtError;

/// A bounds-checked reader over a byte slice.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Wrap a slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether all bytes were consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Take the next `n` bytes as a slice.
    pub fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], MrtError> {
        if self.remaining() < n {
            return Err(MrtError::Truncated {
                context,
                needed: n - self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Split off a sub-cursor over the next `n` bytes.
    pub fn slice(&mut self, n: usize, context: &'static str) -> Result<Cursor<'a>, MrtError> {
        Ok(Cursor::new(self.take(n, context)?))
    }

    /// Read one byte.
    pub fn u8(&mut self, context: &'static str) -> Result<u8, MrtError> {
        Ok(self.take(1, context)?[0])
    }

    /// Read a big-endian `u16`.
    pub fn u16(&mut self, context: &'static str) -> Result<u16, MrtError> {
        let b = self.take(2, context)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    /// Read a big-endian `u32`.
    pub fn u32(&mut self, context: &'static str) -> Result<u32, MrtError> {
        let b = self.take(4, context)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_in_order() {
        let data = [0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07];
        let mut c = Cursor::new(&data);
        assert_eq!(c.u8("a").unwrap(), 1);
        assert_eq!(c.u16("b").unwrap(), 0x0203);
        assert_eq!(c.u32("c").unwrap(), 0x0405_0607);
        assert!(c.is_empty());
    }

    #[test]
    fn truncation_reports_needed_bytes() {
        let mut c = Cursor::new(&[0x01]);
        match c.u32("field") {
            Err(MrtError::Truncated { context, needed }) => {
                assert_eq!(context, "field");
                assert_eq!(needed, 3);
            }
            other => panic!("expected truncation, got {other:?}"),
        }
    }

    #[test]
    fn slice_limits_sub_reads() {
        let data = [1, 2, 3, 4];
        let mut c = Cursor::new(&data);
        let mut sub = c.slice(2, "sub").unwrap();
        assert_eq!(sub.u16("x").unwrap(), 0x0102);
        assert!(sub.u8("y").is_err());
        assert_eq!(c.remaining(), 2);
    }

    #[test]
    fn a_failed_read_consumes_nothing() {
        let data = [0xab, 0xcd];
        let mut c = Cursor::new(&data);
        assert!(c.u32("wide").is_err());
        assert!(c.slice(3, "sub").is_err());
        assert_eq!(c.remaining(), 2);
        assert_eq!(c.u16("narrow").unwrap(), 0xabcd);
        assert!(c.is_empty());
    }

    #[test]
    fn zero_length_reads_always_succeed() {
        let mut c = Cursor::new(&[]);
        assert!(c.is_empty());
        assert_eq!(c.take(0, "nothing").unwrap(), &[] as &[u8]);
        let sub = c.slice(0, "nothing").unwrap();
        assert!(sub.is_empty());
        assert!(matches!(
            c.u8("one"),
            Err(MrtError::Truncated { needed: 1, .. })
        ));
    }
}
