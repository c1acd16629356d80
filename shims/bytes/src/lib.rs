//! Offline shim for the `bytes` crate.
//!
//! `Bytes` is a cheaply clonable immutable byte buffer (an `Arc<Vec<u8>>`
//! plus a range, so `clone` and slicing are O(1) and `From<Vec<u8>>`
//! takes the vector over without copying it, like the real crate);
//! `BytesMut` is a growable buffer with `advance`/`freeze`. Only the
//! API surface the workspace uses is provided.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Shared Debug body: print as an ASCII-escaped byte string like the
/// real crate, so test failure output stays readable.
macro_rules! fmt_bytes_debug {
    () => {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "b\"")?;
            for &b in self.as_ref().iter() {
                match b {
                    b'"' => write!(f, "\\\"")?,
                    b'\\' => write!(f, "\\\\")?,
                    b'\n' => write!(f, "\\n")?,
                    b'\r' => write!(f, "\\r")?,
                    b'\t' => write!(f, "\\t")?,
                    0x20..=0x7e => write!(f, "{}", b as char)?,
                    _ => write!(f, "\\x{b:02x}")?,
                }
            }
            write!(f, "\"")
        }
    };
}

/// Byte-cursor trait (subset of the real `bytes::Buf`).
pub trait Buf {
    fn remaining(&self) -> usize;
    fn chunk(&self) -> &[u8];
    fn advance(&mut self, cnt: usize);

    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past end of buffer");
        self.start += cnt;
    }
}

impl Buf for BytesMut {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.buf.len(), "advance past end of buffer");
        self.buf.drain(..cnt);
    }
}

/// Immutable, cheaply clonable byte buffer.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn from_static(slice: &'static [u8]) -> Self {
        Self::copy_from_slice(slice)
    }

    pub fn copy_from_slice(slice: &[u8]) -> Self {
        Bytes::from(slice.to_vec())
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    /// O(1) sub-slice sharing the same allocation.
    pub fn slice(&self, range: impl std::ops::RangeBounds<usize>) -> Bytes {
        use std::ops::Bound;
        let len = self.len();
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(lo <= hi && hi <= len, "slice out of bounds");
        Bytes {
            data: self.data.clone(),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes {
            start: 0,
            end: v.len(),
            data: Arc::new(v),
        }
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::copy_from_slice(s.as_bytes())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::copy_from_slice(s)
    }
}

impl From<BytesMut> for Bytes {
    fn from(b: BytesMut) -> Self {
        Bytes::from(b.buf)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fmt_bytes_debug!();
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.to_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// Growable byte buffer; `freeze` converts to `Bytes`.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            buf: Vec::with_capacity(cap),
        }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    pub fn clear(&mut self) {
        self.buf.clear();
    }

    pub fn extend_from_slice(&mut self, slice: &[u8]) {
        self.buf.extend_from_slice(slice);
    }

    pub fn put_slice(&mut self, slice: &[u8]) {
        self.buf.extend_from_slice(slice);
    }

    pub fn put_u8(&mut self, b: u8) {
        self.buf.push(b);
    }

    /// Splits off and returns the first `n` bytes.
    pub fn split_to(&mut self, n: usize) -> BytesMut {
        assert!(n <= self.buf.len(), "split_to past end of buffer");
        let tail = self.buf.split_off(n);
        let head = std::mem::replace(&mut self.buf, tail);
        BytesMut { buf: head }
    }

    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self.buf.clone()
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl From<&[u8]> for BytesMut {
    fn from(s: &[u8]) -> Self {
        BytesMut { buf: s.to_vec() }
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(v: Vec<u8>) -> Self {
        BytesMut { buf: v }
    }
}

impl Extend<u8> for BytesMut {
    fn extend<I: IntoIterator<Item = u8>>(&mut self, iter: I) {
        self.buf.extend(iter);
    }
}

impl<'a> Extend<&'a u8> for BytesMut {
    fn extend<I: IntoIterator<Item = &'a u8>>(&mut self, iter: I) {
        self.buf.extend(iter.into_iter().copied());
    }
}

impl fmt::Debug for BytesMut {
    fmt_bytes_debug!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_roundtrip_and_slice() {
        let b = Bytes::from(vec![1, 2, 3, 4]);
        assert_eq!(b.len(), 4);
        let s = b.slice(1..3);
        assert_eq!(&s[..], &[2, 3]);
        let c = b.clone();
        assert_eq!(b, c);
    }

    #[test]
    fn from_vec_takes_the_allocation_over() {
        let v = vec![1u8, 2, 3, 4];
        let at = v.as_ptr();
        let mut b = Bytes::from(v);
        assert_eq!(b.as_ptr(), at, "no copy");
        assert_eq!(b.clone().as_ptr(), at);
        assert_eq!(b.slice(1..).as_ptr(), at.wrapping_add(1));
        b.advance(2);
        assert_eq!(b.as_ptr(), at.wrapping_add(2));
        assert_eq!(&b[..], &[3, 4]);
    }

    #[test]
    fn bytesmut_advance_and_freeze() {
        let mut m = BytesMut::from(&b"hello world"[..]);
        m.advance(6);
        assert_eq!(&m[..], b"world");
        m.extend_from_slice(b"!");
        assert_eq!(m.freeze(), Bytes::from_static(b"world!"));
    }
}
