//! Length-prefixed exact binary codec for controller checkpoints.
//!
//! The crash–recovery subsystem (DESIGN.md §17) must restore controller
//! state *byte-identically*: a recovered run's predictions, votes and
//! actuations are asserted equal to an uninterrupted referee, so the
//! codec cannot tolerate any round-trip wobble. Everything is written in
//! fixed little-endian layouts — `f64` travels as [`f64::to_bits`], so
//! subnormals, signed zeros and integer-valued counts near 2^53 all
//! survive exactly — and every composite carries an explicit length or
//! tag so a torn or truncated buffer is detected, never misread.
//!
//! The no-serde rule (workspace `Cargo.toml`) is why this is hand-rolled;
//! the JSON module ([`crate::json`]) stays the human-readable trace
//! format, this module is the machine-exact state format.
//!
//! **Sparse count slices.** Count arenas (Markov transition counts, TAN
//! marginal and joint counts) are mostly zeros holding small integers, so
//! they travel through [`Writer::put_sparse_f64s`] instead of one raw
//! word each: a zero bitmap of `ceil(len / 8)` bytes (bit `i % 8` of byte
//! `i / 8` set when word `i` is non-zero, padding bits clear), then every
//! non-zero word in order. A word that is a positive integer below 2^53
//! is a LEB128 varint of `v << 1` (low bit clear); any other non-zero
//! word is the tag byte `1` followed by its 8 raw bits. The slice length
//! is not written — the caller's already-decoded shape implies it — and
//! [`Reader::get_sparse_f64s`] accepts only this canonical form, so a
//! decoded slice re-encodes to exactly the bytes it came from.

use crate::{Duration, MetricSample, MetricVector, Timestamp, ATTRIBUTE_COUNT};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// A decode failure. Encoding is infallible; decoding is not, because the
/// buffer may be torn (crash mid-write), truncated, or from a different
/// format version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The buffer ended before the value it promised.
    Truncated {
        /// What was being decoded when the bytes ran out.
        what: &'static str,
    },
    /// A magic number or version did not match.
    BadMagic {
        /// The magic/version actually read.
        found: u64,
        /// The magic/version required.
        expected: u64,
    },
    /// A frame checksum did not match its contents (torn tail).
    BadChecksum,
    /// An enum tag byte had no corresponding variant.
    BadTag {
        /// The enum being decoded.
        what: &'static str,
        /// The unrecognized tag.
        tag: u8,
    },
    /// A decoded value violated a structural invariant.
    Invalid(&'static str),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Truncated { what } => {
                write!(f, "buffer truncated while decoding {what}")
            }
            PersistError::BadMagic { found, expected } => {
                write!(f, "bad magic/version {found:#x} (expected {expected:#x})")
            }
            PersistError::BadChecksum => write!(f, "checksum mismatch (torn or corrupt frame)"),
            PersistError::BadTag { what, tag } => write!(f, "unknown tag {tag} for {what}"),
            PersistError::Invalid(what) => write!(f, "invalid value: {what}"),
        }
    }
}

impl std::error::Error for PersistError {}

/// Largest integer (exclusive) a sparse word carries as a varint: every
/// integer below 2^53 is exactly representable, so the varint form loses
/// nothing.
const SPARSE_INT_LIMIT: u64 = 1 << 53;

/// Mantissa bits of an `f64`.
const MANTISSA_BITS: u32 = 52;

/// Exponent bias of an `f64`.
const EXPONENT_BIAS: u64 = 1023;

/// The integer an `f64` bit pattern holds when it is a positive integer
/// below 2^53, decided on the bits alone (no float comparison).
fn positive_integer(bits: u64) -> Option<u64> {
    // Sign clear and a biased exponent in [1023, 1023 + 52]: the value
    // lies in [1, 2^53).
    let exponent = (bits >> MANTISSA_BITS).checked_sub(EXPONENT_BIAS)?;
    if exponent > u64::from(MANTISSA_BITS) {
        return None;
    }
    let fraction_bits = u64::from(MANTISSA_BITS) - exponent;
    let significand = (bits & ((1 << MANTISSA_BITS) - 1)) | (1 << MANTISSA_BITS);
    if significand & ((1 << fraction_bits) - 1) != 0 {
        return None;
    }
    Some(significand >> fraction_bits)
}

/// The exact `f64` bit pattern of an integer in `[1, 2^53)` (the inverse
/// of [`positive_integer`]).
fn integer_bits(v: u64) -> u64 {
    debug_assert!((1..SPARSE_INT_LIMIT).contains(&v));
    let exponent = u64::from(63 - v.leading_zeros());
    let fraction_bits = u64::from(MANTISSA_BITS) - exponent;
    ((exponent + EXPONENT_BIAS) << MANTISSA_BITS)
        | ((v << fraction_bits) & ((1 << MANTISSA_BITS) - 1))
}

/// An append-only byte sink with fixed little-endian primitive layouts.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// An empty writer with room for `bytes` bytes before it reallocates.
    pub fn with_capacity(bytes: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (layout-stable across platforms).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` as its exact bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends raw bytes with no length prefix (caller frames them).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Overwrites the little-endian `u64` at byte offset `at` — the
    /// length placeholder of a frame whose payload is now complete.
    ///
    /// # Panics
    ///
    /// Panics if `at + 8` exceeds the bytes written so far (a framing bug,
    /// never a property of the data).
    pub fn patch_u64(&mut self, at: usize, v: u64) {
        self.buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Appends `len` count words in the sparse encoding (module docs):
    /// the zero bitmap, then each non-zero word. `words` must yield
    /// exactly `len` values; the length itself is not written.
    pub fn put_sparse_f64s(&mut self, len: usize, words: impl IntoIterator<Item = f64>) {
        let bitmap = self.buf.len();
        self.buf.resize(bitmap + len.div_ceil(8), 0);
        let mut i = 0usize;
        // Internal iteration: callers pass nested `flatten` chains, which
        // `for_each` walks without re-checking every level per word.
        words.into_iter().for_each(|v| {
            let bits = v.to_bits();
            if bits != 0 {
                if let Some(byte) = self.buf.get_mut(bitmap + i / 8) {
                    *byte |= 1 << (i % 8);
                }
                match positive_integer(bits) {
                    Some(n) => self.put_varint(n << 1),
                    None => {
                        self.put_u8(1);
                        self.put_u64(bits);
                    }
                }
            }
            i += 1;
        });
        debug_assert_eq!(i, len, "sparse slice length");
    }

    /// Appends `v` as an unsigned LEB128 varint.
    fn put_varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.put_u8(v.to_le_bytes()[0] | 0x80);
            v >>= 7;
        }
        self.put_u8(v.to_le_bytes()[0]);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// View of the accumulated bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, yielding the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Drops every byte written, keeping the allocation.
    pub fn clear(&mut self) {
        self.buf.clear();
    }
}

/// A cursor over an encoded buffer; every read is bounds-checked so a
/// truncated buffer errors instead of panicking.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf` starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Current offset into the buffer.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(PersistError::Truncated { what });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`PersistError::Truncated`] at end of buffer.
    pub fn get_u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`PersistError::Truncated`] at end of buffer.
    pub fn get_u32(&mut self) -> Result<u32, PersistError> {
        let b = self.take(4, "u32")?;
        let arr: [u8; 4] = b
            .try_into()
            .map_err(|_| PersistError::Truncated { what: "u32 bytes" })?;
        Ok(u32::from_le_bytes(arr))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`PersistError::Truncated`] at end of buffer.
    pub fn get_u64(&mut self) -> Result<u64, PersistError> {
        let b = self.take(8, "u64")?;
        let arr: [u8; 8] = b
            .try_into()
            .map_err(|_| PersistError::Truncated { what: "u64 bytes" })?;
        Ok(u64::from_le_bytes(arr))
    }

    /// Reads a `usize` (stored as `u64`).
    ///
    /// # Errors
    ///
    /// [`PersistError::Truncated`] at end of buffer, or
    /// [`PersistError::Invalid`] when the value exceeds the platform's
    /// `usize`.
    pub fn get_usize(&mut self) -> Result<usize, PersistError> {
        usize::try_from(self.get_u64()?).map_err(|_| PersistError::Invalid("usize overflow"))
    }

    /// Reads an `f64` from its exact bit pattern.
    ///
    /// # Errors
    ///
    /// [`PersistError::Truncated`] at end of buffer.
    pub fn get_f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a bool, rejecting any byte other than 0/1.
    ///
    /// # Errors
    ///
    /// [`PersistError::Truncated`] or [`PersistError::BadTag`] on a
    /// non-boolean byte.
    pub fn get_bool(&mut self) -> Result<bool, PersistError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(PersistError::BadTag { what: "bool", tag }),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`PersistError::Truncated`] or [`PersistError::Invalid`] on
    /// malformed UTF-8.
    pub fn get_str(&mut self) -> Result<String, PersistError> {
        let len = self.get_usize()?;
        let bytes = self.take(len, "string bytes")?;
        String::from_utf8(bytes.to_vec()).map_err(|_| PersistError::Invalid("non-UTF-8 string"))
    }

    /// Reads `n` raw bytes (caller knows the framing).
    ///
    /// # Errors
    ///
    /// [`PersistError::Truncated`] at end of buffer.
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        self.take(n, "raw bytes")
    }

    /// Reads `len` count words written by [`Writer::put_sparse_f64s`].
    /// The bitmap is taken (bounds-checked) before the output is
    /// allocated, so a corrupt `len` fails as truncation, never as a huge
    /// allocation.
    ///
    /// # Errors
    ///
    /// [`PersistError::Truncated`] at end of buffer;
    /// [`PersistError::Invalid`] for set bitmap padding bits, a literal
    /// that decodes to `+0.0`, a varint that is over-long, overflows or
    /// carries an integer that is not below 2^53, and a raw literal that
    /// should have been a varint; [`PersistError::BadTag`] for a raw
    /// literal tag other than `1`.
    pub fn get_sparse_f64s(&mut self, len: usize) -> Result<Vec<f64>, PersistError> {
        let bitmap = self.take(len.div_ceil(8), "sparse bitmap")?;
        let tail_bits = len % 8;
        if tail_bits != 0 && bitmap.last().is_some_and(|&b| b >> tail_bits != 0) {
            return Err(PersistError::Invalid("sparse bitmap padding bits"));
        }
        let mut out = Vec::with_capacity(len);
        for &byte in bitmap {
            let width = (len - out.len()).min(8);
            if byte == 0 {
                out.resize(out.len() + width, 0.0);
                continue;
            }
            for bit in 0..width {
                out.push(if (byte >> bit) & 1 == 0 {
                    0.0
                } else {
                    f64::from_bits(self.get_sparse_word()?)
                });
            }
        }
        Ok(out)
    }

    /// Reads one non-zero sparse word, returning its bit pattern.
    fn get_sparse_word(&mut self) -> Result<u64, PersistError> {
        let first = self.get_u8()?;
        if first & 1 == 1 {
            if first != 1 {
                return Err(PersistError::BadTag {
                    what: "sparse literal",
                    tag: first,
                });
            }
            let bits = self.get_u64()?;
            if bits == 0 {
                return Err(PersistError::Invalid("sparse literal is +0.0"));
            }
            if positive_integer(bits).is_some() {
                return Err(PersistError::Invalid("sparse literal not canonical"));
            }
            return Ok(bits);
        }
        let tagged = self.get_varint(first)?;
        let v = tagged >> 1;
        if v == 0 {
            return Err(PersistError::Invalid("sparse literal is +0.0"));
        }
        if v >= SPARSE_INT_LIMIT {
            return Err(PersistError::Invalid("sparse literal not canonical"));
        }
        Ok(integer_bits(v))
    }

    /// Reads the rest of an unsigned LEB128 varint whose first byte is
    /// `first`, rejecting over-long (more than 10 bytes or a redundant
    /// zero final byte) and overflowing encodings.
    fn get_varint(&mut self, first: u8) -> Result<u64, PersistError> {
        let mut value = u64::from(first & 0x7f);
        let mut byte = first;
        // Bit offset of the byte just read; the tenth byte sits at 63.
        let mut shift = 0u32;
        while byte & 0x80 != 0 {
            if shift == 63 {
                return Err(PersistError::Invalid("varint longer than 10 bytes"));
            }
            byte = self.get_u8()?;
            shift += 7;
            let chunk = u64::from(byte & 0x7f);
            if shift == 63 && chunk > 1 {
                return Err(PersistError::Invalid("varint overflows u64"));
            }
            value |= chunk << shift;
        }
        if shift > 0 && byte == 0 {
            return Err(PersistError::Invalid("varint not canonical"));
        }
        Ok(value)
    }
}

/// Exact binary serialization: `load(store(x)) == x` down to the bit
/// pattern of every float.
pub trait Persist: Sized {
    /// Appends this value's encoding to `w`.
    fn store(&self, w: &mut Writer);

    /// Decodes one value from `r`.
    ///
    /// # Errors
    ///
    /// Any [`PersistError`] when the buffer is truncated, torn, or
    /// structurally invalid.
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError>;
}

/// Round-trips a value through the codec (convenience for tests and
/// state-fingerprint comparisons).
pub fn to_bytes<T: Persist>(value: &T) -> Vec<u8> {
    let mut w = Writer::new();
    value.store(&mut w);
    w.into_bytes()
}

/// Decodes a value from a complete buffer, requiring full consumption.
///
/// # Errors
///
/// Any decode error, or [`PersistError::Invalid`] when trailing bytes
/// remain (a sign the buffer holds a different format).
pub fn from_bytes<T: Persist>(bytes: &[u8]) -> Result<T, PersistError> {
    let mut r = Reader::new(bytes);
    let v = T::load(&mut r)?;
    if !r.is_exhausted() {
        return Err(PersistError::Invalid("trailing bytes after value"));
    }
    Ok(v)
}

impl Persist for u8 {
    fn store(&self, w: &mut Writer) {
        w.put_u8(*self);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        r.get_u8()
    }
}

impl Persist for u32 {
    fn store(&self, w: &mut Writer) {
        w.put_u32(*self);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        r.get_u32()
    }
}

impl Persist for u64 {
    fn store(&self, w: &mut Writer) {
        w.put_u64(*self);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        r.get_u64()
    }
}

impl Persist for usize {
    fn store(&self, w: &mut Writer) {
        w.put_usize(*self);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        r.get_usize()
    }
}

impl Persist for bool {
    fn store(&self, w: &mut Writer) {
        w.put_bool(*self);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        r.get_bool()
    }
}

impl Persist for f64 {
    fn store(&self, w: &mut Writer) {
        w.put_f64(*self);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        r.get_f64()
    }
}

impl Persist for String {
    fn store(&self, w: &mut Writer) {
        w.put_str(self);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        r.get_str()
    }
}

impl<T: Persist> Persist for Option<T> {
    fn store(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.store(w);
            }
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::load(r)?)),
            tag => Err(PersistError::BadTag {
                what: "Option",
                tag,
            }),
        }
    }
}

impl<T: Persist> Persist for Vec<T> {
    fn store(&self, w: &mut Writer) {
        w.put_usize(self.len());
        for v in self {
            v.store(w);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let len = r.get_usize()?;
        // Bound the pre-allocation by what the buffer could possibly
        // hold, so a corrupt length cannot trigger an OOM before the
        // Truncated error surfaces.
        let mut out = Vec::with_capacity(len.min(r.remaining()));
        for _ in 0..len {
            out.push(T::load(r)?);
        }
        Ok(out)
    }
}

impl<T: Persist> Persist for VecDeque<T> {
    fn store(&self, w: &mut Writer) {
        w.put_usize(self.len());
        for v in self {
            v.store(w);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let len = r.get_usize()?;
        let mut out = VecDeque::with_capacity(len.min(r.remaining()));
        for _ in 0..len {
            out.push_back(T::load(r)?);
        }
        Ok(out)
    }
}

impl<K: Persist + Ord, V: Persist> Persist for BTreeMap<K, V> {
    fn store(&self, w: &mut Writer) {
        w.put_usize(self.len());
        for (k, v) in self {
            k.store(w);
            v.store(w);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let len = r.get_usize()?;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::load(r)?;
            let v = V::load(r)?;
            // Keys are stored ascending; anything else would re-encode
            // differently (or silently drop a duplicate).
            if out.last_key_value().is_some_and(|(last, _)| *last >= k) {
                return Err(PersistError::Invalid("map keys not strictly ascending"));
            }
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<T: Persist + Ord> Persist for BTreeSet<T> {
    fn store(&self, w: &mut Writer) {
        w.put_usize(self.len());
        for v in self {
            v.store(w);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let len = r.get_usize()?;
        let mut out = BTreeSet::new();
        for _ in 0..len {
            let v = T::load(r)?;
            if out.last().is_some_and(|last| *last >= v) {
                return Err(PersistError::Invalid("set items not strictly ascending"));
            }
            out.insert(v);
        }
        Ok(out)
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    fn store(&self, w: &mut Writer) {
        self.0.store(w);
        self.1.store(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok((A::load(r)?, B::load(r)?))
    }
}

impl<A: Persist, B: Persist, C: Persist> Persist for (A, B, C) {
    fn store(&self, w: &mut Writer) {
        self.0.store(w);
        self.1.store(w);
        self.2.store(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok((A::load(r)?, B::load(r)?, C::load(r)?))
    }
}

impl<T: Persist, const N: usize> Persist for [T; N] {
    fn store(&self, w: &mut Writer) {
        for v in self {
            v.store(w);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::load(r)?);
        }
        out.try_into()
            .map_err(|_| PersistError::Invalid("array arity"))
    }
}

impl Persist for Timestamp {
    fn store(&self, w: &mut Writer) {
        w.put_u64(self.as_secs());
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(Timestamp::from_secs(r.get_u64()?))
    }
}

impl Persist for Duration {
    fn store(&self, w: &mut Writer) {
        w.put_u64(self.as_secs());
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(Duration::from_secs(r.get_u64()?))
    }
}

impl Persist for crate::VmId {
    fn store(&self, w: &mut Writer) {
        w.put_usize(self.0);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(crate::VmId(r.get_usize()?))
    }
}

impl Persist for crate::AttributeKind {
    fn store(&self, w: &mut Writer) {
        w.put_u8(self.index() as u8);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let tag = r.get_u8()?;
        crate::AttributeKind::from_index(tag as usize).ok_or(PersistError::BadTag {
            what: "AttributeKind",
            tag,
        })
    }
}

impl Persist for MetricVector {
    fn store(&self, w: &mut Writer) {
        for &v in self.as_slice() {
            w.put_f64(v);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let values: [f64; ATTRIBUTE_COUNT] = Persist::load(r)?;
        Ok(MetricVector::from(values))
    }
}

impl Persist for MetricSample {
    fn store(&self, w: &mut Writer) {
        self.time.store(w);
        self.values.store(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(MetricSample::new(
            Timestamp::load(r)?,
            MetricVector::load(r)?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AttributeKind;

    fn round_trip<T: Persist + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = to_bytes(v);
        let back: T = from_bytes(&bytes).expect("decodes");
        assert_eq!(&back, v);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(&0u8);
        round_trip(&u8::MAX);
        round_trip(&u32::MAX);
        round_trip(&u64::MAX);
        round_trip(&usize::MAX);
        round_trip(&true);
        round_trip(&false);
        round_trip(&String::from("hello — ünïcode"));
        round_trip(&String::new());
    }

    #[test]
    fn extreme_floats_round_trip_bit_exactly() {
        for &f in &[
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0, // subnormal
            5e-324,                  // smallest subnormal
            f64::MAX,
            f64::MIN,
            9_007_199_254_740_992.0, // 2^53
            9_007_199_254_740_991.0, // 2^53 - 1
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.0 / 3.0,
        ] {
            let bytes = to_bytes(&f);
            let back: f64 = from_bytes(&bytes).expect("decodes");
            assert_eq!(back.to_bits(), f.to_bits(), "{f}");
        }
    }

    #[test]
    fn negative_zero_is_preserved() {
        let bytes = to_bytes(&-0.0f64);
        let back: f64 = from_bytes(&bytes).unwrap();
        assert!(back.is_sign_negative());
        assert_eq!(back.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn composites_round_trip() {
        round_trip(&Some(3u64));
        round_trip(&Option::<u64>::None);
        round_trip(&vec![1.5f64, -2.0, 0.0]);
        round_trip(&Vec::<u64>::new());
        round_trip(&VecDeque::from([true, false, true]));
        round_trip(&BTreeMap::from([(1u64, 2.0f64), (3, 4.0)]));
        round_trip(&BTreeSet::from([crate::VmId(0), crate::VmId(7)]));
        round_trip(&(1u64, 2.0f64));
        round_trip(&(1u64, 2.0f64, String::from("x")));
        round_trip(&[1.0f64, 2.0]);
        round_trip(&Timestamp::from_secs(42));
        round_trip(&Duration::from_secs(5));
    }

    #[test]
    fn domain_types_round_trip() {
        for a in AttributeKind::ALL {
            round_trip(&a);
        }
        let mut v = MetricVector::zeros();
        v.set(AttributeKind::FreeMem, -0.0);
        v.set(AttributeKind::NetIn, f64::MAX);
        let bytes = to_bytes(&v);
        let back: MetricVector = from_bytes(&bytes).unwrap();
        for a in AttributeKind::ALL {
            assert_eq!(back.get(a).to_bits(), v.get(a).to_bits());
        }
        round_trip(&MetricSample::new(Timestamp::from_secs(9), v));
    }

    #[test]
    fn truncated_buffers_error_not_panic() {
        let bytes = to_bytes(&vec![1u64, 2, 3]);
        for cut in 0..bytes.len() {
            let res: Result<Vec<u64>, _> = from_bytes(&bytes[..cut]);
            assert!(res.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn corrupt_length_is_bounded() {
        // A length claiming 2^60 elements must error, not allocate.
        let mut w = Writer::new();
        w.put_u64(1u64 << 60);
        let res: Result<Vec<u64>, _> = from_bytes(&w.into_bytes());
        assert!(matches!(res, Err(PersistError::Truncated { .. })));
    }

    #[test]
    fn bad_tags_are_rejected() {
        let mut w = Writer::new();
        w.put_u8(7);
        let res: Result<Option<u64>, _> = from_bytes(w.bytes());
        assert!(matches!(res, Err(PersistError::BadTag { .. })));
        let mut w = Writer::new();
        w.put_u8(2);
        let res: Result<bool, _> = from_bytes(&w.into_bytes());
        assert!(matches!(res, Err(PersistError::BadTag { .. })));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = to_bytes(&7u64);
        bytes.push(0);
        let res: Result<u64, _> = from_bytes(&bytes);
        assert_eq!(
            res,
            Err(PersistError::Invalid("trailing bytes after value"))
        );
    }

    fn sparse(words: &[f64]) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_sparse_f64s(words.len(), words.iter().copied());
        w.into_bytes()
    }

    fn unsparse(bytes: &[u8], len: usize) -> Result<Vec<f64>, PersistError> {
        let mut r = Reader::new(bytes);
        let out = r.get_sparse_f64s(len)?;
        if !r.is_exhausted() {
            return Err(PersistError::Invalid("trailing bytes after value"));
        }
        Ok(out)
    }

    #[test]
    fn sparse_slices_round_trip_bit_exactly() {
        let words = [
            0.0,
            -0.0,
            1.0,
            63.0,
            64.0,
            127.0,
            128.0,
            0.5,
            1.5,
            4_503_599_627_370_497.0, // 2^52 + 1: no fraction bits left
            9_007_199_254_740_991.0, // 2^53 - 1: largest varint
            9_007_199_254_740_992.0, // 2^53: raw
            -3.0,
            f64::NAN,
            f64::INFINITY,
            f64::MIN_POSITIVE / 2.0,
            5e-324,
            f64::MAX,
        ];
        for len in 0..=words.len() {
            let back = unsparse(&sparse(&words[..len]), len).expect("decodes");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&back), bits(&words[..len]), "len {len}");
        }
    }

    #[test]
    fn sparse_sizes_are_pinned() {
        // An all-zero slice of N words is its bitmap alone.
        for n in [0usize, 1, 7, 8, 9, 64, 1000] {
            assert_eq!(sparse(&vec![0.0; n]).len(), n.div_ceil(8), "{n} zeros");
        }
        // A count below 64 is one byte; 64..8192 is two.
        for v in [1.0, 2.0, 63.0] {
            assert_eq!(sparse(&[v]).len(), 1 + 1, "{v}");
        }
        assert_eq!(sparse(&[64.0]).len(), 1 + 2);
        assert_eq!(sparse(&[8191.0]).len(), 1 + 2);
        assert_eq!(sparse(&[8192.0]).len(), 1 + 3);
        assert_eq!(sparse(&[9_007_199_254_740_991.0]).len(), 1 + 8);
        // A non-integer (or otherwise non-count) word is a tag plus 8 bytes.
        for v in [0.5, -1.0, -0.0, 9_007_199_254_740_992.0, f64::NAN] {
            assert_eq!(sparse(&[v]).len(), 1 + 9, "{v}");
        }
        // A 10-bin Markov row with two small counts.
        let mut row = [0.0; 10];
        row[3] = 4.0;
        row[9] = 1.0;
        assert_eq!(sparse(&row).len(), 2 + 1 + 1);
    }

    #[test]
    fn sparse_rejects_non_canonical_bytes() {
        // Padding bits past `len` in the last bitmap byte.
        assert_eq!(
            unsparse(&[0b0000_1000], 3),
            Err(PersistError::Invalid("sparse bitmap padding bits"))
        );
        // A varint literal of zero, and a raw literal of +0.0.
        assert_eq!(
            unsparse(&[1, 0], 1),
            Err(PersistError::Invalid("sparse literal is +0.0"))
        );
        let mut raw_zero = vec![1, 1];
        raw_zero.extend_from_slice(&0u64.to_le_bytes());
        assert_eq!(
            unsparse(&raw_zero, 1),
            Err(PersistError::Invalid("sparse literal is +0.0"))
        );
        // A varint of eleven bytes.
        let mut long = vec![1];
        long.extend_from_slice(&[0x80; 10]);
        long.push(0);
        assert_eq!(
            unsparse(&long, 1),
            Err(PersistError::Invalid("varint longer than 10 bytes"))
        );
        // A ten-byte varint that overflows u64.
        let mut over = vec![1];
        over.extend_from_slice(&[0x82; 9]);
        over.push(0x02);
        assert_eq!(
            unsparse(&over, 1),
            Err(PersistError::Invalid("varint overflows u64"))
        );
        // A varint with a redundant zero final byte.
        assert_eq!(
            unsparse(&[1, 0x82, 0x00], 1),
            Err(PersistError::Invalid("varint not canonical"))
        );
        // A varint carrying 2^53, which must travel raw.
        let mut big = Writer::new();
        big.put_u8(1);
        big.put_varint((1u64 << 53) << 1);
        assert_eq!(
            unsparse(big.bytes(), 1),
            Err(PersistError::Invalid("sparse literal not canonical"))
        );
        // A raw literal that should have been a varint.
        let mut raw_one = vec![1, 1];
        raw_one.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
        assert_eq!(
            unsparse(&raw_one, 1),
            Err(PersistError::Invalid("sparse literal not canonical"))
        );
        // Raw-literal tags other than 1.
        for tag in [3u8, 0x81, 0xff] {
            let mut bad = vec![1, tag];
            bad.extend_from_slice(&0.5f64.to_bits().to_le_bytes());
            assert_eq!(
                unsparse(&bad, 1),
                Err(PersistError::BadTag {
                    what: "sparse literal",
                    tag
                })
            );
        }
        // A bitmap promising more words than the buffer holds, and a
        // length whose bitmap alone overruns the buffer.
        assert!(matches!(
            unsparse(&[0b11], 2),
            Err(PersistError::Truncated { .. })
        ));
        assert!(matches!(
            unsparse(&[0; 4], 1 << 40),
            Err(PersistError::Truncated { .. })
        ));
    }

    #[test]
    fn maps_and_sets_reject_unordered_keys() {
        let mut w = Writer::new();
        w.put_usize(2);
        for k in [3u64, 1] {
            w.put_u64(k);
            w.put_u64(0);
        }
        let res: Result<BTreeMap<u64, u64>, _> = from_bytes(w.bytes());
        assert_eq!(
            res,
            Err(PersistError::Invalid("map keys not strictly ascending"))
        );
        let mut w = Writer::new();
        w.put_usize(2);
        w.put_u64(4);
        w.put_u64(4);
        let res: Result<BTreeSet<u64>, _> = from_bytes(w.bytes());
        assert_eq!(
            res,
            Err(PersistError::Invalid("set items not strictly ascending"))
        );
    }

    #[test]
    fn errors_display() {
        let errs: Vec<PersistError> = vec![
            PersistError::Truncated { what: "u64" },
            PersistError::BadMagic {
                found: 1,
                expected: 2,
            },
            PersistError::BadChecksum,
            PersistError::BadTag {
                what: "bool",
                tag: 9,
            },
            PersistError::Invalid("x"),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
