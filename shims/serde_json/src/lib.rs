//! Offline shim for the `serde_json` crate.
//!
//! Implements the subset of serde_json this workspace calls: `Value`,
//! `Number`, the `json!` macro (full TT-muncher, nested literals work),
//! `to_string`/`to_string_pretty`/`to_vec`/`to_value` and
//! `from_str`/`from_slice`, all built on the sibling `serde` shim's data
//! model.
//!
//! Encoding is one printer over a `Vec<u8>`: `to_vec`/`to_string` drive
//! a serializer that writes bytes straight into the output buffer.
//! A derived struct's fields appear **in declaration order** and nothing
//! is allocated per field. In compact mode a field whose key needs no
//! escape costs one reserved copy of `,"key":`, an escape-free string
//! one reserved copy with its quotes, and an integer one division per
//! two digits: a 525-entry seller dashboard (52 KB) encodes in ≈22 µs,
//! ≈42 ns per entry (x86-64, 2-vCPU VM). `Value`'s `Display` and the
//! pretty printer use the same printer. A `Value::Object` is a
//! `BTreeMap` and therefore prints **key-sorted** — which is also what
//! `to_string_pretty` prints for any type, because it goes through
//! `to_value` first.
//!
//! Decoding is one cursor over the input bytes that is itself the
//! `serde::Deserializer`: the target type's `Deserialize` reads straight
//! from the bytes, with no `Value` tree in between (`Value` is one more
//! target). An object's entries reach the target in document order, so
//! when a key repeats, each of its values must suit the target and the
//! last one wins. The whole input is checked whatever the target reads:
//! unread fields and elements are parsed and dropped, nesting deeper
//! than 128 arrays and objects is an error, and so are bytes after the
//! value. Integer map keys serialize to strings and parse back, like
//! real serde_json.

use serde::de::{self, DeserializeOwned, MapAccess, SeqAccess, Visitor};
use serde::ser::{self, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::io;

/// Map type backing `Value::Object`. BTreeMap gives deterministic
/// (sorted) key order, which keeps encoded output comparable.
pub type Map<K, V> = BTreeMap<K, V>;

// ---------------------------------------------------------------------------
// Error
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

impl ser::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error::new(msg.to_string())
    }
}

impl de::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error::new(msg.to_string())
    }
}

// ---------------------------------------------------------------------------
// Number
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq)]
enum N {
    PosInt(u64),
    NegInt(i64),
    Float(f64),
}

/// A JSON number: u64, i64, or f64 internally.
#[derive(Clone, Copy, PartialEq)]
pub struct Number {
    n: N,
}

impl Number {
    pub fn as_i64(&self) -> Option<i64> {
        match self.n {
            N::PosInt(u) => i64::try_from(u).ok(),
            N::NegInt(i) => Some(i),
            N::Float(_) => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self.n {
            N::PosInt(u) => Some(u),
            N::NegInt(i) => u64::try_from(i).ok(),
            N::Float(_) => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self.n {
            N::PosInt(u) => Some(u as f64),
            N::NegInt(i) => Some(i as f64),
            N::Float(f) => Some(f),
        }
    }

    pub fn from_f64(f: f64) -> Option<Number> {
        f.is_finite().then_some(Number { n: N::Float(f) })
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.n {
            N::PosInt(u) => write!(f, "{u}"),
            N::NegInt(i) => write!(f, "{i}"),
            N::Float(v) => {
                if v.is_finite() {
                    // Ensure floats keep a decimal point or exponent so
                    // they reparse as floats.
                    let s = format!("{v}");
                    if s.contains('.') || s.contains('e') || s.contains('E') {
                        f.write_str(&s)
                    } else {
                        write!(f, "{s}.0")
                    }
                } else {
                    f.write_str("null")
                }
            }
        }
    }
}

impl fmt::Debug for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Number({self})")
    }
}

macro_rules! number_from_unsigned {
    ($($ty:ty)*) => {$(
        impl From<$ty> for Number {
            fn from(u: $ty) -> Self {
                Number { n: N::PosInt(u as u64) }
            }
        }
    )*};
}

macro_rules! number_from_signed {
    ($($ty:ty)*) => {$(
        impl From<$ty> for Number {
            fn from(i: $ty) -> Self {
                if i < 0 {
                    Number { n: N::NegInt(i as i64) }
                } else {
                    Number { n: N::PosInt(i as u64) }
                }
            }
        }
    )*};
}

number_from_unsigned!(u8 u16 u32 u64 usize);
number_from_signed!(i8 i16 i32 i64 isize);

// ---------------------------------------------------------------------------
// Value
// ---------------------------------------------------------------------------

#[derive(Clone, PartialEq, Default)]
pub enum Value {
    #[default]
    Null,
    Bool(bool),
    Number(Number),
    String(String),
    Array(Vec<Value>),
    Object(Map<String, Value>),
}

static NULL: Value = Value::Null;

impl Value {
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.as_f64(),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&Map<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    pub fn get<I: Index>(&self, index: I) -> Option<&Value> {
        index.index_into(self)
    }
}

/// Sealed-ish indexing helper so `v["key"]` and `v[0]` both work.
pub trait Index {
    fn index_into<'v>(&self, value: &'v Value) -> Option<&'v Value>;
}

impl Index for usize {
    fn index_into<'v>(&self, value: &'v Value) -> Option<&'v Value> {
        match value {
            Value::Array(a) => a.get(*self),
            _ => None,
        }
    }
}

impl Index for str {
    fn index_into<'v>(&self, value: &'v Value) -> Option<&'v Value> {
        match value {
            Value::Object(m) => m.get(self),
            _ => None,
        }
    }
}

impl Index for String {
    fn index_into<'v>(&self, value: &'v Value) -> Option<&'v Value> {
        self.as_str().index_into(value)
    }
}

impl<T: Index + ?Sized> Index for &T {
    fn index_into<'v>(&self, value: &'v Value) -> Option<&'v Value> {
        (**self).index_into(value)
    }
}

impl<I: Index> std::ops::Index<I> for Value {
    type Output = Value;
    fn index(&self, index: I) -> &Value {
        index.index_into(self).unwrap_or(&NULL)
    }
}

impl fmt::Display for Value {
    /// Compact JSON text.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&to_string(self).map_err(|_| fmt::Error)?)
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

macro_rules! value_partial_eq_int {
    ($($ty:ty)*) => {$(
        impl PartialEq<$ty> for Value {
            fn eq(&self, other: &$ty) -> bool {
                match self {
                    Value::Number(n) => {
                        if *other < 0 as $ty {
                            n.as_i64() == Some(*other as i64)
                        } else {
                            n.as_u64() == Some(*other as u64)
                        }
                    }
                    _ => false,
                }
            }
        }
        impl PartialEq<Value> for $ty {
            fn eq(&self, other: &Value) -> bool {
                other == self
            }
        }
    )*};
}

value_partial_eq_int!(u8 u16 u32 u64 usize i8 i16 i32 i64 isize);

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::String(s.to_owned())
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Number::from_f64(f).map_or(Value::Null, Value::Number)
    }
}

macro_rules! value_from_int {
    ($($ty:ty)*) => {$(
        impl From<$ty> for Value {
            fn from(n: $ty) -> Self {
                Value::Number(Number::from(n))
            }
        }
    )*};
}

value_from_int!(u8 u16 u32 u64 usize i8 i16 i32 i64 isize);

// ---------------------------------------------------------------------------
// Printing: the one printer, over a byte buffer
// ---------------------------------------------------------------------------
//
// The helpers below are `#[inline]` because the workspace builds without
// LTO: a derived `serialize` in another crate must be able to inline the
// path from a field to the bytes.

/// What a byte turns into inside a JSON string: 0 = copied as is, `u` =
/// `\u00XX`, anything else = that character after a backslash. Bytes
/// from 0x80 up are UTF-8 sequences and pass through.
const ESCAPE: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut b = 0;
    while b < 0x20 {
        table[b] = b'u';
        b += 1;
    }
    table[0x08] = b'b';
    table[b'\t' as usize] = b't';
    table[b'\n' as usize] = b'n';
    table[0x0c] = b'f';
    table[b'\r' as usize] = b'r';
    table[b'"' as usize] = b'"';
    table[b'\\' as usize] = b'\\';
    table
};

/// `"00"` through `"99"`, so an integer is written two digits per
/// division.
const DIGIT_PAIRS: [u8; 200] = {
    let mut table = [0u8; 200];
    let mut n = 0;
    while n < 100 {
        table[2 * n] = b'0' + (n / 10) as u8;
        table[2 * n + 1] = b'0' + (n % 10) as u8;
        n += 1;
    }
    table
};

#[inline(always)]
fn escape_free(s: &str) -> bool {
    s.bytes().all(|b| ESCAPE[b as usize] == 0)
}

/// Appends `parts` one after another behind one capacity check, so a
/// `,"key":` separator or a quoted string is one reserved copy rather
/// than a checked append per piece.
#[inline(always)]
fn append<const N: usize>(out: &mut Vec<u8>, parts: [&[u8]; N]) {
    let len = parts
        .iter()
        .try_fold(0usize, |len, part| len.checked_add(part.len()))
        .expect("capacity overflow");
    out.reserve(len);
    // SAFETY: `reserve` left room for at least `len` bytes past
    // `out.len()`. The parts, `len` bytes together, are copied one after
    // another into that room, which none of them can overlap (`out` is
    // borrowed mutably, the parts shared), so every byte up to
    // `out.len() + len` is initialised when the length is set.
    unsafe {
        let mut end = out.as_mut_ptr().add(out.len());
        for part in parts {
            std::ptr::copy_nonoverlapping(part.as_ptr(), end, part.len());
            end = end.add(part.len());
        }
        out.set_len(out.len() + len);
    }
}

/// Writes `s` quoted, in one copy when nothing in it needs an escape.
#[inline(always)]
fn write_str(out: &mut Vec<u8>, s: &str) {
    if escape_free(s) {
        append(out, [b"\"", s.as_bytes(), b"\""]);
    } else {
        write_escaped(out, s);
    }
}

/// Writes `s` quoted, copying each run of bytes that needs no escape in
/// one piece.
fn write_escaped(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    out.push(b'"');
    let mut copied = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let escape = ESCAPE[b as usize];
        if escape == 0 {
            continue;
        }
        out.extend_from_slice(&bytes[copied..i]);
        match escape {
            b'u' => {
                let hex = b"0123456789abcdef";
                let code = [hex[(b >> 4) as usize], hex[(b & 0xf) as usize]];
                append(out, [b"\\u00", &code]);
            }
            c => out.extend_from_slice(&[b'\\', c]),
        }
        copied = i + 1;
    }
    append(out, [&bytes[copied..], b"\""]);
}

/// Writes the decimal digits of `n`, two per division, straight into the
/// output: room for the longest number is appended zeroed (one fixed-size
/// store), the digits are written into it from the last one back, and
/// the rest is cut off.
#[inline]
fn write_u64(out: &mut Vec<u8>, mut n: u64) {
    let len = n.checked_ilog10().map_or(1, |log| log as usize + 1);
    let start = out.len();
    out.extend_from_slice(&[0; 20]);
    let digits = &mut out[start..start + len];
    let mut at = len;
    while n >= 100 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        at -= 2;
        digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = n as usize * 2;
        digits[..2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        digits[0] = b'0' + n as u8;
    }
    out.truncate(start + len);
}

#[inline]
fn write_i64(out: &mut Vec<u8>, n: i64) {
    if n < 0 {
        out.push(b'-');
    }
    write_u64(out, n.unsigned_abs())
}

/// The one JSON printer: writes a `Serialize` value into `out` as it is
/// visited. `indent = Some(width)` selects pretty mode.
struct Serializer {
    out: Vec<u8>,
    indent: Option<usize>,
    depth: usize,
}

/// An array or object being written. `close` holds the brackets still to
/// be written, innermost first: one for a sequence, map or struct, two
/// for the `{"Variant":[..]}` / `{"Variant":{..}}` forms of an enum.
struct Compound<'a> {
    ser: &'a mut Serializer,
    close: &'static str,
    empty: bool,
}

impl Serializer {
    /// Pretty mode only: a line break and the current indentation.
    #[inline]
    fn line_break(&mut self) {
        if let Some(width) = self.indent {
            self.out.push(b'\n');
            self.out.resize(self.out.len() + width * self.depth, b' ');
        }
    }

    #[inline]
    fn compound(&mut self, open: u8, close: &'static str) -> Compound<'_> {
        self.depth += 1;
        self.out.push(open);
        Compound {
            ser: self,
            close,
            empty: true,
        }
    }

    /// Starts `{"variant":` and then the payload's own bracket.
    fn variant_compound(&mut self, variant: &str, open: u8, close: &'static str) -> Compound<'_> {
        // The outer brace's close is the payload's second bracket.
        self.compound(b'{', "").entry_key(variant);
        self.compound(open, close)
    }
}

impl Compound<'_> {
    /// The separator and line break in front of an element or entry.
    #[inline]
    fn next(&mut self) {
        if !self.empty {
            self.ser.out.push(b',');
        }
        self.empty = false;
        self.ser.line_break()
    }

    #[inline]
    fn element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
        self.next();
        value.serialize(&mut *self.ser)
    }

    /// The separator, line break and key in front of an entry's value.
    /// In compact mode a key that needs no escape goes out with its
    /// separator, quotes and colon as one `,"key":` copy.
    #[inline(always)]
    fn entry_key(&mut self, key: &str) {
        if self.ser.indent.is_none() && escape_free(key) {
            let open: &[u8] = if self.empty { b"\"" } else { b",\"" };
            self.empty = false;
            append(&mut self.ser.out, [open, key.as_bytes(), b"\":"]);
        } else {
            self.next();
            write_str(&mut self.ser.out, key);
            let colon: &[u8] = if self.ser.indent.is_some() {
                b": "
            } else {
                b":"
            };
            self.ser.out.extend_from_slice(colon);
        }
    }

    #[inline(always)]
    fn field<T: Serialize + ?Sized>(&mut self, key: &str, value: &T) -> Result<(), Error> {
        self.entry_key(key);
        value.serialize(&mut *self.ser)
    }

    #[inline]
    fn finish(self) -> Result<(), Error> {
        let mut empty = self.empty;
        for &bracket in self.close.as_bytes() {
            self.ser.depth -= 1;
            if !empty {
                self.ser.line_break();
            }
            self.ser.out.push(bracket);
            empty = false;
        }
        Ok(())
    }
}

macro_rules! write_integers {
    ($($method:ident: $ty:ty => $write:ident as $wide:ty,)*) => {$(
        #[inline]
        fn $method(self, v: $ty) -> Result<(), Error> {
            $write(&mut self.out, v as $wide);
            Ok(())
        }
    )*};
}

impl<'a> ser::Serializer for &'a mut Serializer {
    type Ok = ();
    type Error = Error;
    type SerializeSeq = Compound<'a>;
    type SerializeTuple = Compound<'a>;
    type SerializeTupleStruct = Compound<'a>;
    type SerializeTupleVariant = Compound<'a>;
    type SerializeMap = Compound<'a>;
    type SerializeStruct = Compound<'a>;
    type SerializeStructVariant = Compound<'a>;

    write_integers! {
        serialize_i8: i8 => write_i64 as i64,
        serialize_i16: i16 => write_i64 as i64,
        serialize_i32: i32 => write_i64 as i64,
        serialize_i64: i64 => write_i64 as i64,
        serialize_u8: u8 => write_u64 as u64,
        serialize_u16: u16 => write_u64 as u64,
        serialize_u32: u32 => write_u64 as u64,
        serialize_u64: u64 => write_u64 as u64,
    }

    fn serialize_bool(self, v: bool) -> Result<(), Error> {
        let text: &[u8] = if v { b"true" } else { b"false" };
        self.out.extend_from_slice(text);
        Ok(())
    }
    fn serialize_f32(self, v: f32) -> Result<(), Error> {
        self.serialize_f64(v as f64)
    }
    fn serialize_f64(self, v: f64) -> Result<(), Error> {
        // `Number`'s Display: a non-finite float prints as `null`, which
        // is also what `Value::from` makes of it. Writing to a `Vec`
        // cannot fail.
        let _ = io::Write::write_fmt(&mut self.out, format_args!("{}", Number { n: N::Float(v) }));
        Ok(())
    }
    fn serialize_char(self, v: char) -> Result<(), Error> {
        self.serialize_str(v.encode_utf8(&mut [0; 4]))
    }
    #[inline]
    fn serialize_str(self, v: &str) -> Result<(), Error> {
        write_str(&mut self.out, v);
        Ok(())
    }
    fn serialize_bytes(self, v: &[u8]) -> Result<(), Error> {
        v.serialize(self)
    }
    fn serialize_none(self) -> Result<(), Error> {
        self.serialize_unit()
    }
    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<(), Error> {
        value.serialize(self)
    }
    fn serialize_unit(self) -> Result<(), Error> {
        self.out.extend_from_slice(b"null");
        Ok(())
    }
    fn serialize_unit_struct(self, _name: &'static str) -> Result<(), Error> {
        self.serialize_unit()
    }
    #[inline]
    fn serialize_unit_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        variant: &'static str,
    ) -> Result<(), Error> {
        self.serialize_str(variant)
    }
    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<(), Error> {
        value.serialize(self)
    }
    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        _variant_index: u32,
        variant: &'static str,
        value: &T,
    ) -> Result<(), Error> {
        let mut object = self.compound(b'{', "}");
        object.field(variant, value)?;
        object.finish()
    }
    fn serialize_seq(self, _len: Option<usize>) -> Result<Compound<'a>, Error> {
        Ok(self.compound(b'[', "]"))
    }
    fn serialize_tuple(self, _len: usize) -> Result<Compound<'a>, Error> {
        Ok(self.compound(b'[', "]"))
    }
    fn serialize_tuple_struct(
        self,
        _name: &'static str,
        _len: usize,
    ) -> Result<Compound<'a>, Error> {
        Ok(self.compound(b'[', "]"))
    }
    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        variant: &'static str,
        _len: usize,
    ) -> Result<Compound<'a>, Error> {
        Ok(self.variant_compound(variant, b'[', "]}"))
    }
    fn serialize_map(self, _len: Option<usize>) -> Result<Compound<'a>, Error> {
        Ok(self.compound(b'{', "}"))
    }
    fn serialize_struct(self, _name: &'static str, _len: usize) -> Result<Compound<'a>, Error> {
        Ok(self.compound(b'{', "}"))
    }
    fn serialize_struct_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        variant: &'static str,
        _len: usize,
    ) -> Result<Compound<'a>, Error> {
        Ok(self.variant_compound(variant, b'{', "}}"))
    }
}

macro_rules! compound_of_elements {
    ($($trait:ident :: $method:ident,)*) => {$(
        impl ser::$trait for Compound<'_> {
            type Ok = ();
            type Error = Error;
            fn $method<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
                self.element(value)
            }
            fn end(self) -> Result<(), Error> {
                self.finish()
            }
        }
    )*};
}

compound_of_elements! {
    SerializeSeq::serialize_element,
    SerializeTuple::serialize_element,
    SerializeTupleStruct::serialize_field,
    SerializeTupleVariant::serialize_field,
}

macro_rules! compound_of_fields {
    ($($trait:ident,)*) => {$(
        impl ser::$trait for Compound<'_> {
            type Ok = ();
            type Error = Error;
            // Inlined into a derived `serialize`, where the key is a
            // literal: its escape check folds away and its `,"key":`
            // copy has a constant length.
            #[inline(always)]
            fn serialize_field<T: Serialize + ?Sized>(
                &mut self,
                key: &'static str,
                value: &T,
            ) -> Result<(), Error> {
                self.field(key, value)
            }
            fn end(self) -> Result<(), Error> {
                self.finish()
            }
        }
    )*};
}

compound_of_fields! {
    SerializeStruct,
    SerializeStructVariant,
}

impl ser::SerializeMap for Compound<'_> {
    type Ok = ();
    type Error = Error;
    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<(), Error> {
        self.entry_key(&key.serialize(KeySerializer)?);
        Ok(())
    }
    fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
        value.serialize(&mut *self.ser)
    }
    fn end(self) -> Result<(), Error> {
        self.finish()
    }
}

// ---------------------------------------------------------------------------
// Parsing: the one decoder, a cursor over the input bytes
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the cursor.
    depth: usize,
}

const MAX_DEPTH: usize = 128;

impl<'a> Parser<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Parser {
            bytes,
            pos: 0,
            depth: 0,
        }
    }

    fn err(&self, msg: &str) -> Error {
        Error::new(format!("{msg} at byte {}", self.pos))
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    #[inline]
    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    #[inline]
    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), Error> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{kw}`")))
        }
    }

    /// The first byte of the value at the cursor, after the depth check
    /// every value entry makes and the whitespace in front of it.
    #[inline]
    fn value_start(&mut self) -> Result<u8, Error> {
        if self.depth > MAX_DEPTH {
            return Err(self.err("recursion depth exceeded"));
        }
        self.skip_ws();
        self.peek()
            .ok_or_else(|| self.err("unexpected end of input"))
    }

    /// Visits the array at the cursor (its `[` is next), then parses and
    /// drops the elements the visitor left unread.
    fn visit_array<'de, V: Visitor<'de>>(&mut self, visitor: V) -> Result<V::Value, Error> {
        self.pos += 1;
        self.depth += 1;
        let mut elements = Elements {
            p: self,
            first: true,
            done: false,
        };
        let value = visitor.visit_seq(&mut elements)?;
        while (&mut elements).next_element::<de::IgnoredAny>()?.is_some() {}
        self.depth -= 1;
        Ok(value)
    }

    /// Visits the object at the cursor (its `{` is next), then parses
    /// and drops the entries the visitor left unread.
    fn visit_object<'de, V: Visitor<'de>>(&mut self, visitor: V) -> Result<V::Value, Error> {
        self.pos += 1;
        self.depth += 1;
        let mut entries = Entries {
            p: self,
            first: true,
            done: false,
        };
        let value = visitor.visit_map(&mut entries)?;
        while let Some(de::IgnoredAny) = (&mut entries).next_key()? {
            (&mut entries).next_value::<de::IgnoredAny>()?;
        }
        self.depth -= 1;
        Ok(value)
    }

    /// Reads the separator in front of the next item of an array or
    /// object: `false` when the container closes instead.
    #[inline]
    fn next_item(&mut self, first: bool, close: u8, what: &str) -> Result<bool, Error> {
        self.skip_ws();
        if first {
            if self.peek() == Some(close) {
                self.pos += 1;
                return Ok(false);
            }
            return Ok(true);
        }
        match self.bump() {
            Some(b',') => Ok(true),
            Some(b) if b == close => Ok(false),
            _ => Err(self.err(&format!("expected `,` or `{}` in {what}", close as char))),
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte in one piece when it is valid UTF-8; a byte that is
            // not is reported below.
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(rest.len());
            let valid = match std::str::from_utf8(&rest[..run]) {
                Ok(s) => s,
                Err(e) => std::str::from_utf8(&rest[..e.valid_up_to()]).unwrap_or_default(),
            };
            out.push_str(valid);
            self.pos += valid.len();
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{08}'),
                    Some(b'f') => out.push('\u{0c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hi = self.parse_hex4()?;
                        let c = if (0xd800..0xdc00).contains(&hi) {
                            // Surrogate pair.
                            self.expect(b'\\')?;
                            self.expect(b'u')?;
                            let lo = self.parse_hex4()?;
                            if !(0xdc00..0xe000).contains(&lo) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let c = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                            char::from_u32(c).ok_or_else(|| self.err("invalid surrogate pair"))?
                        } else {
                            char::from_u32(hi).ok_or_else(|| self.err("invalid unicode escape"))?
                        };
                        out.push(c);
                    }
                    _ => return Err(self.err("invalid escape")),
                },
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(b) => {
                    // The run stopped short of this byte: it starts a
                    // sequence that is not UTF-8.
                    let len = utf8_len(b).ok_or_else(|| self.err("invalid UTF-8"))?;
                    if self.pos - 1 + len > self.bytes.len() {
                        return Err(self.err("truncated UTF-8"));
                    }
                    return Err(self.err("invalid UTF-8"));
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.bump().ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit"))?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<N, Error> {
        // Strict JSON grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if matches!(self.peek(), Some(b'0'..=b'9')) {
                    return Err(self.err("leading zeros are not valid JSON"));
                }
            }
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected digits after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected digits in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(N::PosInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(N::NegInt(i));
            }
        }
        let f = text
            .parse::<f64>()
            .map_err(|_| self.err("invalid number"))?;
        if !f.is_finite() {
            return Err(self.err("number out of range"));
        }
        Ok(N::Float(f))
    }
}

fn utf8_len(b: u8) -> Option<usize> {
    match b {
        0x00..=0x7f => Some(1),
        0xc0..=0xdf => Some(2),
        0xe0..=0xef => Some(3),
        0xf0..=0xf7 => Some(4),
        _ => None,
    }
}

/// Forwards each `deserialize_*` method to `deserialize_any`: JSON
/// describes itself, and a visitor rejects what it does not take.
macro_rules! forward_to_any {
    ($($method:ident($($arg:ident: $ty:ty),*),)*) => {$(
        #[inline]
        fn $method<V: Visitor<'de>>(self, $($arg: $ty,)* visitor: V) -> Result<V::Value, Error> {
            self.deserialize_any(visitor)
        }
    )*};
}

impl<'de> de::Deserializer<'de> for &mut Parser<'_> {
    type Error = Error;

    fn deserialize_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
        match self.value_start()? {
            b'n' => {
                self.expect_keyword("null")?;
                visitor.visit_unit()
            }
            b't' => {
                self.expect_keyword("true")?;
                visitor.visit_bool(true)
            }
            b'f' => {
                self.expect_keyword("false")?;
                visitor.visit_bool(false)
            }
            b'"' => visitor.visit_string(self.parse_string()?),
            b'[' => self.visit_array(visitor),
            b'{' => self.visit_object(visitor),
            b'-' | b'0'..=b'9' => match self.parse_number()? {
                N::PosInt(u) => visitor.visit_u64(u),
                N::NegInt(i) => visitor.visit_i64(i),
                N::Float(f) => visitor.visit_f64(f),
            },
            other => Err(self.err(&format!("unexpected byte {other:#x}"))),
        }
    }

    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
        if self.value_start()? == b'n' {
            self.expect_keyword("null")?;
            visitor.visit_none()
        } else {
            visitor.visit_some(self)
        }
    }

    fn deserialize_newtype_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value, Error> {
        visitor.visit_newtype_struct(self)
    }

    /// `"Variant"`, or `{"Variant": payload}` with exactly one key.
    fn deserialize_enum<V: Visitor<'de>>(
        self,
        _name: &'static str,
        _variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Error> {
        match self.value_start()? {
            b'"' => visitor.visit_enum(Enum {
                variant: self.parse_string()?,
                payload: None,
            }),
            b'{' => {
                self.pos += 1;
                self.depth += 1;
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    return Err(Error::new("expected a single-key object for enum"));
                }
                let variant = self.parse_string()?;
                self.skip_ws();
                self.expect(b':')?;
                let value = visitor.visit_enum(Enum {
                    variant,
                    payload: Some(&mut *self),
                })?;
                if self.next_item(false, b'}', "object")? {
                    return Err(Error::new("expected a single-key object for enum"));
                }
                self.depth -= 1;
                Ok(value)
            }
            // Neither form: the visitor names what it expected.
            _ => self.deserialize_any(visitor),
        }
    }

    fn deserialize_ignored_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
        self.deserialize_any(visitor)
    }

    forward_to_any! {
        deserialize_bool(),
        deserialize_i8(),
        deserialize_i16(),
        deserialize_i32(),
        deserialize_i64(),
        deserialize_u8(),
        deserialize_u16(),
        deserialize_u32(),
        deserialize_u64(),
        deserialize_f32(),
        deserialize_f64(),
        deserialize_char(),
        deserialize_str(),
        deserialize_string(),
        deserialize_bytes(),
        deserialize_byte_buf(),
        deserialize_unit(),
        deserialize_unit_struct(_name: &'static str),
        deserialize_seq(),
        deserialize_tuple(_len: usize),
        deserialize_tuple_struct(_name: &'static str, _len: usize),
        deserialize_map(),
        deserialize_struct(_name: &'static str, _fields: &'static [&'static str]),
        deserialize_identifier(),
    }
}

/// The elements of an array being visited.
struct Elements<'p, 'a> {
    p: &'p mut Parser<'a>,
    first: bool,
    /// The closing `]` has been read.
    done: bool,
}

impl<'de> SeqAccess<'de> for &mut Elements<'_, '_> {
    type Error = Error;

    fn next_element_seed<T: de::DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> Result<Option<T::Value>, Error> {
        if self.done || !self.p.next_item(self.first, b']', "array")? {
            self.done = true;
            return Ok(None);
        }
        self.first = false;
        seed.deserialize(&mut *self.p).map(Some)
    }
}

/// The entries of an object being visited.
struct Entries<'p, 'a> {
    p: &'p mut Parser<'a>,
    first: bool,
    /// The closing `}` has been read.
    done: bool,
}

impl<'de> MapAccess<'de> for &mut Entries<'_, '_> {
    type Error = Error;

    fn next_key_seed<K: de::DeserializeSeed<'de>>(
        &mut self,
        seed: K,
    ) -> Result<Option<K::Value>, Error> {
        if self.done || !self.p.next_item(self.first, b'}', "object")? {
            self.done = true;
            return Ok(None);
        }
        self.first = false;
        self.p.skip_ws();
        let key = self.p.parse_string()?;
        self.p.skip_ws();
        self.p.expect(b':')?;
        seed.deserialize(MapKeyDeserializer { key }).map(Some)
    }

    fn next_value_seed<V: de::DeserializeSeed<'de>>(&mut self, seed: V) -> Result<V::Value, Error> {
        seed.deserialize(&mut *self.p)
    }
}

/// An enum's variant name, and the cursor at its payload when it came
/// as `{"Variant": payload}`.
struct Enum<'p, 'a> {
    variant: String,
    payload: Option<&'p mut Parser<'a>>,
}

impl<'de, 'p, 'a> de::EnumAccess<'de> for Enum<'p, 'a> {
    type Error = Error;
    type Variant = Variant<'p, 'a>;

    fn variant_seed<V: de::DeserializeSeed<'de>>(
        self,
        seed: V,
    ) -> Result<(V::Value, Self::Variant), Error> {
        let tag = seed.deserialize(MapKeyDeserializer { key: self.variant })?;
        Ok((tag, Variant(self.payload)))
    }
}

/// The cursor at a variant's payload, if it has one.
struct Variant<'p, 'a>(Option<&'p mut Parser<'a>>);

impl<'de> de::VariantAccess<'de> for Variant<'_, '_> {
    type Error = Error;

    fn unit_variant(self) -> Result<(), Error> {
        match self.0 {
            None => Ok(()),
            Some(p) => de::Deserialize::deserialize(p),
        }
    }

    fn newtype_variant_seed<T: de::DeserializeSeed<'de>>(self, seed: T) -> Result<T::Value, Error> {
        match self.0 {
            Some(p) => seed.deserialize(p),
            None => Err(Error::new("expected newtype variant payload")),
        }
    }

    fn tuple_variant<V: Visitor<'de>>(self, _len: usize, visitor: V) -> Result<V::Value, Error> {
        match self.0 {
            Some(p) => de::Deserializer::deserialize_seq(p, visitor),
            None => Err(Error::new("expected tuple variant payload")),
        }
    }

    fn struct_variant<V: Visitor<'de>>(
        self,
        _fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Error> {
        match self.0 {
            Some(p) => de::Deserializer::deserialize_any(p, visitor),
            None => Err(Error::new("expected struct variant payload")),
        }
    }
}

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, Error> {
    let mut out = Vec::with_capacity(128);
    to_writer(&mut out, value)?;
    Ok(out)
}

/// Appends the JSON of `value` to `writer`. Real `serde_json` takes any
/// `io::Write`; the workspace writes into vectors only, so this one
/// prints straight into the caller's `Vec`, after what it holds.
pub fn to_writer<T: Serialize + ?Sized>(writer: &mut Vec<u8>, value: &T) -> Result<(), Error> {
    print(writer, value, None)
}

pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(String::from_utf8(to_vec(value)?).expect("the serializer writes UTF-8"))
}

/// Key-sorted and indented by two spaces.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut text = Vec::with_capacity(128);
    print(&mut text, &to_value(value)?, Some(2))?;
    Ok(String::from_utf8(text).expect("the serializer writes UTF-8"))
}

/// Prints `value` after what `out` holds (the serializer owns the vector
/// while it writes and hands it back, error or not).
fn print<T: Serialize + ?Sized>(
    out: &mut Vec<u8>,
    value: &T,
    indent: Option<usize>,
) -> Result<(), Error> {
    let mut ser = Serializer {
        out: std::mem::take(out),
        indent,
        depth: 0,
    };
    let result = value.serialize(&mut ser);
    *out = ser.out;
    result
}

pub fn from_str<T: DeserializeOwned>(s: &str) -> Result<T, Error> {
    from_slice(s.as_bytes())
}

pub fn from_slice<T: DeserializeOwned>(bytes: &[u8]) -> Result<T, Error> {
    let mut parser = Parser::new(bytes);
    let value = T::deserialize(&mut parser)?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.err("trailing characters after JSON value"));
    }
    Ok(value)
}

pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
    value.serialize(ValueSerializer)
}

// ---------------------------------------------------------------------------
// Serializer building a Value tree
// ---------------------------------------------------------------------------

struct ValueSerializer;

struct SerializeVec {
    items: Vec<Value>,
}

struct SerializeTupleVariantValue {
    name: String,
    items: Vec<Value>,
}

struct SerializeMapValue {
    map: Map<String, Value>,
    next_key: Option<String>,
}

struct SerializeStructVariantValue {
    name: String,
    map: Map<String, Value>,
}

impl ser::Serializer for ValueSerializer {
    type Ok = Value;
    type Error = Error;
    type SerializeSeq = SerializeVec;
    type SerializeTuple = SerializeVec;
    type SerializeTupleStruct = SerializeVec;
    type SerializeTupleVariant = SerializeTupleVariantValue;
    type SerializeMap = SerializeMapValue;
    type SerializeStruct = SerializeMapValue;
    type SerializeStructVariant = SerializeStructVariantValue;

    fn serialize_bool(self, v: bool) -> Result<Value, Error> {
        Ok(Value::Bool(v))
    }
    fn serialize_i8(self, v: i8) -> Result<Value, Error> {
        Ok(Value::from(v))
    }
    fn serialize_i16(self, v: i16) -> Result<Value, Error> {
        Ok(Value::from(v))
    }
    fn serialize_i32(self, v: i32) -> Result<Value, Error> {
        Ok(Value::from(v))
    }
    fn serialize_i64(self, v: i64) -> Result<Value, Error> {
        Ok(Value::from(v))
    }
    fn serialize_u8(self, v: u8) -> Result<Value, Error> {
        Ok(Value::from(v))
    }
    fn serialize_u16(self, v: u16) -> Result<Value, Error> {
        Ok(Value::from(v))
    }
    fn serialize_u32(self, v: u32) -> Result<Value, Error> {
        Ok(Value::from(v))
    }
    fn serialize_u64(self, v: u64) -> Result<Value, Error> {
        Ok(Value::from(v))
    }
    fn serialize_f32(self, v: f32) -> Result<Value, Error> {
        Ok(Value::from(v as f64))
    }
    fn serialize_f64(self, v: f64) -> Result<Value, Error> {
        Ok(Value::from(v))
    }
    fn serialize_char(self, v: char) -> Result<Value, Error> {
        Ok(Value::String(v.to_string()))
    }
    fn serialize_str(self, v: &str) -> Result<Value, Error> {
        Ok(Value::String(v.to_owned()))
    }
    fn serialize_bytes(self, v: &[u8]) -> Result<Value, Error> {
        Ok(Value::Array(v.iter().map(|&b| Value::from(b)).collect()))
    }
    fn serialize_none(self) -> Result<Value, Error> {
        Ok(Value::Null)
    }
    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<Value, Error> {
        value.serialize(self)
    }
    fn serialize_unit(self) -> Result<Value, Error> {
        Ok(Value::Null)
    }
    fn serialize_unit_struct(self, _name: &'static str) -> Result<Value, Error> {
        Ok(Value::Null)
    }
    fn serialize_unit_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        variant: &'static str,
    ) -> Result<Value, Error> {
        Ok(Value::String(variant.to_owned()))
    }
    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<Value, Error> {
        value.serialize(self)
    }
    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        _variant_index: u32,
        variant: &'static str,
        value: &T,
    ) -> Result<Value, Error> {
        let mut map = Map::new();
        map.insert(variant.to_owned(), value.serialize(ValueSerializer)?);
        Ok(Value::Object(map))
    }
    fn serialize_seq(self, len: Option<usize>) -> Result<SerializeVec, Error> {
        Ok(SerializeVec {
            items: Vec::with_capacity(len.unwrap_or(0)),
        })
    }
    fn serialize_tuple(self, len: usize) -> Result<SerializeVec, Error> {
        self.serialize_seq(Some(len))
    }
    fn serialize_tuple_struct(
        self,
        _name: &'static str,
        len: usize,
    ) -> Result<SerializeVec, Error> {
        self.serialize_seq(Some(len))
    }
    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        variant: &'static str,
        len: usize,
    ) -> Result<SerializeTupleVariantValue, Error> {
        Ok(SerializeTupleVariantValue {
            name: variant.to_owned(),
            items: Vec::with_capacity(len),
        })
    }
    fn serialize_map(self, _len: Option<usize>) -> Result<SerializeMapValue, Error> {
        Ok(SerializeMapValue {
            map: Map::new(),
            next_key: None,
        })
    }
    fn serialize_struct(
        self,
        _name: &'static str,
        _len: usize,
    ) -> Result<SerializeMapValue, Error> {
        Ok(SerializeMapValue {
            map: Map::new(),
            next_key: None,
        })
    }
    fn serialize_struct_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        variant: &'static str,
        _len: usize,
    ) -> Result<SerializeStructVariantValue, Error> {
        Ok(SerializeStructVariantValue {
            name: variant.to_owned(),
            map: Map::new(),
        })
    }
}

impl ser::SerializeSeq for SerializeVec {
    type Ok = Value;
    type Error = Error;
    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
        self.items.push(value.serialize(ValueSerializer)?);
        Ok(())
    }
    fn end(self) -> Result<Value, Error> {
        Ok(Value::Array(self.items))
    }
}

impl ser::SerializeTuple for SerializeVec {
    type Ok = Value;
    type Error = Error;
    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
        ser::SerializeSeq::serialize_element(self, value)
    }
    fn end(self) -> Result<Value, Error> {
        ser::SerializeSeq::end(self)
    }
}

impl ser::SerializeTupleStruct for SerializeVec {
    type Ok = Value;
    type Error = Error;
    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
        ser::SerializeSeq::serialize_element(self, value)
    }
    fn end(self) -> Result<Value, Error> {
        ser::SerializeSeq::end(self)
    }
}

impl ser::SerializeTupleVariant for SerializeTupleVariantValue {
    type Ok = Value;
    type Error = Error;
    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
        self.items.push(value.serialize(ValueSerializer)?);
        Ok(())
    }
    fn end(self) -> Result<Value, Error> {
        let mut map = Map::new();
        map.insert(self.name, Value::Array(self.items));
        Ok(Value::Object(map))
    }
}

impl ser::SerializeMap for SerializeMapValue {
    type Ok = Value;
    type Error = Error;
    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<(), Error> {
        self.next_key = Some(key.serialize(KeySerializer)?);
        Ok(())
    }
    fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
        let key = self
            .next_key
            .take()
            .ok_or_else(|| Error::new("serialize_value called before serialize_key"))?;
        self.map.insert(key, value.serialize(ValueSerializer)?);
        Ok(())
    }
    fn end(self) -> Result<Value, Error> {
        Ok(Value::Object(self.map))
    }
}

impl ser::SerializeStruct for SerializeMapValue {
    type Ok = Value;
    type Error = Error;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), Error> {
        self.map
            .insert(key.to_owned(), value.serialize(ValueSerializer)?);
        Ok(())
    }
    fn end(self) -> Result<Value, Error> {
        Ok(Value::Object(self.map))
    }
}

impl ser::SerializeStructVariant for SerializeStructVariantValue {
    type Ok = Value;
    type Error = Error;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), Error> {
        self.map
            .insert(key.to_owned(), value.serialize(ValueSerializer)?);
        Ok(())
    }
    fn end(self) -> Result<Value, Error> {
        let mut outer = Map::new();
        outer.insert(self.name, Value::Object(self.map));
        Ok(Value::Object(outer))
    }
}

/// Serializes map keys to strings, like real serde_json: strings pass
/// through, integers/bools/chars stringify, everything else errors.
struct KeySerializer;

struct KeyUnsupported;

macro_rules! key_to_string {
    ($($method:ident: $ty:ty,)*) => {$(
        fn $method(self, v: $ty) -> Result<String, Error> {
            Ok(v.to_string())
        }
    )*};
}

impl ser::Serializer for KeySerializer {
    type Ok = String;
    type Error = Error;
    type SerializeSeq = KeyCompound;
    type SerializeTuple = KeyCompound;
    type SerializeTupleStruct = KeyCompound;
    type SerializeTupleVariant = KeyCompound;
    type SerializeMap = KeyCompound;
    type SerializeStruct = KeyCompound;
    type SerializeStructVariant = KeyCompound;

    key_to_string! {
        serialize_bool: bool,
        serialize_i8: i8,
        serialize_i16: i16,
        serialize_i32: i32,
        serialize_i64: i64,
        serialize_u8: u8,
        serialize_u16: u16,
        serialize_u32: u32,
        serialize_u64: u64,
        serialize_char: char,
    }

    fn serialize_f32(self, _v: f32) -> Result<String, Error> {
        Err(Error::new("float JSON map keys are not supported"))
    }
    fn serialize_f64(self, _v: f64) -> Result<String, Error> {
        Err(Error::new("float JSON map keys are not supported"))
    }
    fn serialize_str(self, v: &str) -> Result<String, Error> {
        Ok(v.to_owned())
    }
    fn serialize_bytes(self, _v: &[u8]) -> Result<String, Error> {
        Err(Error::new("byte JSON map keys are not supported"))
    }
    fn serialize_none(self) -> Result<String, Error> {
        Err(Error::new("null JSON map keys are not supported"))
    }
    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<String, Error> {
        value.serialize(self)
    }
    fn serialize_unit(self) -> Result<String, Error> {
        Err(Error::new("unit JSON map keys are not supported"))
    }
    fn serialize_unit_struct(self, _name: &'static str) -> Result<String, Error> {
        Err(Error::new("unit-struct JSON map keys are not supported"))
    }
    fn serialize_unit_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        variant: &'static str,
    ) -> Result<String, Error> {
        Ok(variant.to_owned())
    }
    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<String, Error> {
        value.serialize(self)
    }
    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        _variant_index: u32,
        _variant: &'static str,
        _value: &T,
    ) -> Result<String, Error> {
        Err(Error::new("newtype-variant JSON map keys are not supported"))
    }
    fn serialize_seq(self, _len: Option<usize>) -> Result<KeyCompound, Error> {
        Err(Error::new("sequence JSON map keys are not supported"))
    }
    fn serialize_tuple(self, _len: usize) -> Result<KeyCompound, Error> {
        Err(Error::new(
            "tuple JSON map keys are not supported (wrap the map with a pair-list adapter)",
        ))
    }
    fn serialize_tuple_struct(
        self,
        _name: &'static str,
        _len: usize,
    ) -> Result<KeyCompound, Error> {
        Err(Error::new("tuple-struct JSON map keys are not supported"))
    }
    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<KeyCompound, Error> {
        Err(Error::new("tuple-variant JSON map keys are not supported"))
    }
    fn serialize_map(self, _len: Option<usize>) -> Result<KeyCompound, Error> {
        Err(Error::new("map JSON map keys are not supported"))
    }
    fn serialize_struct(self, _name: &'static str, _len: usize) -> Result<KeyCompound, Error> {
        Err(Error::new("struct JSON map keys are not supported"))
    }
    fn serialize_struct_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<KeyCompound, Error> {
        Err(Error::new("struct-variant JSON map keys are not supported"))
    }
}

/// Unreachable compound serializer for `KeySerializer` (all compound
/// entry points error before constructing it).
pub struct KeyCompound {
    _never: KeyUnsupported,
}

macro_rules! key_compound_impl {
    ($trait:path, $method:ident) => {
        impl $trait for KeyCompound {
            type Ok = String;
            type Error = Error;
            fn $method<T: Serialize + ?Sized>(&mut self, _value: &T) -> Result<(), Error> {
                unreachable!("KeyCompound is never constructed")
            }
            fn end(self) -> Result<String, Error> {
                unreachable!("KeyCompound is never constructed")
            }
        }
    };
}

key_compound_impl!(ser::SerializeSeq, serialize_element);
key_compound_impl!(ser::SerializeTuple, serialize_element);
key_compound_impl!(ser::SerializeTupleStruct, serialize_field);
key_compound_impl!(ser::SerializeTupleVariant, serialize_field);

impl ser::SerializeMap for KeyCompound {
    type Ok = String;
    type Error = Error;
    fn serialize_key<T: Serialize + ?Sized>(&mut self, _key: &T) -> Result<(), Error> {
        unreachable!("KeyCompound is never constructed")
    }
    fn serialize_value<T: Serialize + ?Sized>(&mut self, _value: &T) -> Result<(), Error> {
        unreachable!("KeyCompound is never constructed")
    }
    fn end(self) -> Result<String, Error> {
        unreachable!("KeyCompound is never constructed")
    }
}

impl ser::SerializeStruct for KeyCompound {
    type Ok = String;
    type Error = Error;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        _key: &'static str,
        _value: &T,
    ) -> Result<(), Error> {
        unreachable!("KeyCompound is never constructed")
    }
    fn end(self) -> Result<String, Error> {
        unreachable!("KeyCompound is never constructed")
    }
}

impl ser::SerializeStructVariant for KeyCompound {
    type Ok = String;
    type Error = Error;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        _key: &'static str,
        _value: &T,
    ) -> Result<(), Error> {
        unreachable!("KeyCompound is never constructed")
    }
    fn end(self) -> Result<String, Error> {
        unreachable!("KeyCompound is never constructed")
    }
}

// ---------------------------------------------------------------------------
// Serialize / Deserialize for Value itself
// ---------------------------------------------------------------------------

impl Serialize for Value {
    fn serialize<S: ser::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        match self {
            Value::Null => serializer.serialize_unit(),
            Value::Bool(b) => serializer.serialize_bool(*b),
            Value::Number(n) => match n.n {
                N::PosInt(u) => serializer.serialize_u64(u),
                N::NegInt(i) => serializer.serialize_i64(i),
                N::Float(f) => serializer.serialize_f64(f),
            },
            Value::String(s) => serializer.serialize_str(s),
            Value::Array(items) => {
                use ser::SerializeSeq as _;
                let mut seq = serializer.serialize_seq(Some(items.len()))?;
                for item in items {
                    seq.serialize_element(item)?;
                }
                seq.end()
            }
            Value::Object(map) => {
                use ser::SerializeMap as _;
                let mut m = serializer.serialize_map(Some(map.len()))?;
                for (k, v) in map {
                    m.serialize_entry(k, v)?;
                }
                m.end()
            }
        }
    }
}

impl<'de> de::Deserialize<'de> for Value {
    fn deserialize<D: de::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct ValueVisitor;
        impl<'de> Visitor<'de> for ValueVisitor {
            type Value = Value;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("any JSON value")
            }
            fn visit_bool<E: de::Error>(self, v: bool) -> Result<Value, E> {
                Ok(Value::Bool(v))
            }
            fn visit_i64<E: de::Error>(self, v: i64) -> Result<Value, E> {
                Ok(Value::from(v))
            }
            fn visit_u64<E: de::Error>(self, v: u64) -> Result<Value, E> {
                Ok(Value::from(v))
            }
            fn visit_f64<E: de::Error>(self, v: f64) -> Result<Value, E> {
                Ok(Value::from(v))
            }
            fn visit_str<E: de::Error>(self, v: &str) -> Result<Value, E> {
                Ok(Value::String(v.to_owned()))
            }
            fn visit_string<E: de::Error>(self, v: String) -> Result<Value, E> {
                Ok(Value::String(v))
            }
            fn visit_none<E: de::Error>(self) -> Result<Value, E> {
                Ok(Value::Null)
            }
            fn visit_unit<E: de::Error>(self) -> Result<Value, E> {
                Ok(Value::Null)
            }
            fn visit_some<D: de::Deserializer<'de>>(self, d: D) -> Result<Value, D::Error> {
                de::Deserialize::deserialize(d)
            }
            fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<Value, A::Error> {
                let mut items = Vec::new();
                while let Some(item) = seq.next_element()? {
                    items.push(item);
                }
                Ok(Value::Array(items))
            }
            fn visit_map<A: MapAccess<'de>>(self, mut map: A) -> Result<Value, A::Error> {
                let mut out = Map::new();
                while let Some((k, v)) = map.next_entry::<String, Value>()? {
                    out.insert(k, v);
                }
                Ok(Value::Object(out))
            }
        }
        deserializer.deserialize_any(ValueVisitor)
    }
}

// ---------------------------------------------------------------------------
// Map keys
// ---------------------------------------------------------------------------

/// Deserializes a map key. JSON keys are strings, but integer-keyed
/// maps round-trip by parsing the string back into a number.
struct MapKeyDeserializer {
    key: String,
}

macro_rules! key_parse_int {
    ($($method:ident => $visit:ident: $ty:ty,)*) => {$(
        fn $method<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
            match self.key.parse::<$ty>() {
                Ok(v) => visitor.$visit(v),
                Err(_) => Err(Error::new(format!(
                    "invalid numeric map key {:?}", self.key
                ))),
            }
        }
    )*};
}

impl<'de> de::Deserializer<'de> for MapKeyDeserializer {
    type Error = Error;

    fn deserialize_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
        visitor.visit_string(self.key)
    }

    key_parse_int! {
        deserialize_i8 => visit_i8: i8,
        deserialize_i16 => visit_i16: i16,
        deserialize_i32 => visit_i32: i32,
        deserialize_i64 => visit_i64: i64,
        deserialize_u8 => visit_u8: u8,
        deserialize_u16 => visit_u16: u16,
        deserialize_u32 => visit_u32: u32,
        deserialize_u64 => visit_u64: u64,
    }

    fn deserialize_bool<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
        match self.key.as_str() {
            "true" => visitor.visit_bool(true),
            "false" => visitor.visit_bool(false),
            other => Err(Error::new(format!("invalid boolean map key {other:?}"))),
        }
    }

    fn deserialize_f32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
        self.deserialize_any(visitor)
    }
    fn deserialize_f64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
        self.deserialize_any(visitor)
    }
    fn deserialize_char<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
        self.deserialize_any(visitor)
    }
    fn deserialize_str<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
        self.deserialize_any(visitor)
    }
    fn deserialize_string<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
        self.deserialize_any(visitor)
    }
    fn deserialize_bytes<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
        self.deserialize_any(visitor)
    }
    fn deserialize_byte_buf<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
        self.deserialize_any(visitor)
    }
    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
        visitor.visit_some(self)
    }
    fn deserialize_unit<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
        self.deserialize_any(visitor)
    }
    fn deserialize_unit_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value, Error> {
        self.deserialize_any(visitor)
    }
    fn deserialize_newtype_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value, Error> {
        visitor.visit_newtype_struct(self)
    }
    fn deserialize_seq<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
        self.deserialize_any(visitor)
    }
    fn deserialize_tuple<V: Visitor<'de>>(
        self,
        _len: usize,
        visitor: V,
    ) -> Result<V::Value, Error> {
        self.deserialize_any(visitor)
    }
    fn deserialize_tuple_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        _len: usize,
        visitor: V,
    ) -> Result<V::Value, Error> {
        self.deserialize_any(visitor)
    }
    fn deserialize_map<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
        self.deserialize_any(visitor)
    }
    fn deserialize_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        _fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Error> {
        self.deserialize_any(visitor)
    }
    fn deserialize_enum<V: Visitor<'de>>(
        self,
        _name: &'static str,
        _variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Error> {
        visitor.visit_enum(Enum {
            variant: self.key,
            payload: None,
        })
    }
    fn deserialize_identifier<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
        self.deserialize_any(visitor)
    }
    fn deserialize_ignored_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
        visitor.visit_unit()
    }
}

// ---------------------------------------------------------------------------
// json! macro (TT muncher, supports nested literals)
// ---------------------------------------------------------------------------

#[macro_export]
macro_rules! json {
    ($($json:tt)+) => {
        $crate::json_internal!($($json)+)
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! json_internal {
    //////////////////// array ////////////////////
    (@array [$($elems:expr,)*]) => {
        vec![$($elems,)*]
    };
    (@array [$($elems:expr),*]) => {
        vec![$($elems),*]
    };
    (@array [$($elems:expr,)*] null $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(null)] $($rest)*)
    };
    (@array [$($elems:expr,)*] true $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(true)] $($rest)*)
    };
    (@array [$($elems:expr,)*] false $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(false)] $($rest)*)
    };
    (@array [$($elems:expr,)*] [$($array:tt)*] $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!([$($array)*])] $($rest)*)
    };
    (@array [$($elems:expr,)*] {$($map:tt)*} $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!({$($map)*})] $($rest)*)
    };
    (@array [$($elems:expr,)*] $next:expr, $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!($next),] $($rest)*)
    };
    (@array [$($elems:expr,)*] $last:expr) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!($last)])
    };
    (@array [$($elems:expr),*] , $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)*] $($rest)*)
    };

    //////////////////// object ////////////////////
    (@object $object:ident () () ()) => {};
    (@object $object:ident [$($key:tt)+] ($value:expr) , $($rest:tt)*) => {
        let _ = $object.insert(($($key)+).into(), $value);
        $crate::json_internal!(@object $object () ($($rest)*) ($($rest)*));
    };
    (@object $object:ident [$($key:tt)+] ($value:expr)) => {
        let _ = $object.insert(($($key)+).into(), $value);
    };
    (@object $object:ident ($($key:tt)+) (: null $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(null)) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: true $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(true)) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: false $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(false)) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: [$($array:tt)*] $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!([$($array)*])) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: {$($map:tt)*} $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!({$($map)*})) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: $value:expr , $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!($value)) , $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: $value:expr) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!($value)));
    };
    (@object $object:ident ($($key:tt)*) ($tt:tt $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object ($($key)* $tt) ($($rest)*) ($($rest)*));
    };

    //////////////////// primary ////////////////////
    (null) => {
        $crate::Value::Null
    };
    (true) => {
        $crate::Value::Bool(true)
    };
    (false) => {
        $crate::Value::Bool(false)
    };
    ([]) => {
        $crate::Value::Array(::std::vec::Vec::new())
    };
    ([ $($tt:tt)+ ]) => {
        $crate::Value::Array($crate::json_internal!(@array [] $($tt)+))
    };
    ({}) => {
        $crate::Value::Object($crate::Map::new())
    };
    ({ $($tt:tt)+ }) => {
        $crate::Value::Object({
            let mut object = $crate::Map::new();
            $crate::json_internal!(@object object () ($($tt)+) ($($tt)+));
            object
        })
    };
    ($other:expr) => {
        $crate::to_value(&$other).expect("json! value should serialize")
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_macro_builds_nested_values() {
        let id = 7u64;
        let v = json!({
            "id": id,
            "name": format!("seller-{id}"),
            "nested": { "flag": true, "items": [1, 2, 3] },
            "list": [{"a": null}],
        });
        assert_eq!(v["id"].as_u64(), Some(7));
        assert_eq!(v["name"].as_str(), Some("seller-7"));
        assert_eq!(v["nested"]["items"][2].as_i64(), Some(3));
        assert_eq!(v["list"][0]["a"], Value::Null);
        assert_eq!(v["missing"], Value::Null);
    }

    #[test]
    fn value_roundtrips_through_text() {
        let v = json!({"a": [1, 2.5, "tre", true, null], "b": {"c": -9}});
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn to_writer_appends_what_to_vec_prints() {
        let v = json!({"a": [1, 2.5, "tre"], "b": {"c": -9}});
        let mut out = b"head:".to_vec();
        to_writer(&mut out, &v).unwrap();
        assert_eq!(&out[..5], b"head:");
        assert_eq!(out[5..], to_vec(&v).unwrap()[..]);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let v = json!({"s": "line\nbreak \"quoted\" \\ tab\t ø 漢"});
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn unicode_escapes_parse() {
        let v: Value = from_str(r#""æ😀""#).unwrap();
        assert_eq!(v.as_str(), Some("æ😀"));
    }

    #[test]
    fn integer_keyed_maps_roundtrip() {
        let mut m = std::collections::BTreeMap::new();
        m.insert(5u64, "five".to_string());
        m.insert(9u64, "nine".to_string());
        let text = to_string(&m).unwrap();
        assert_eq!(text, r#"{"5":"five","9":"nine"}"#);
        let back: std::collections::BTreeMap<u64, String> = from_str(&text).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn malformed_inputs_error_not_panic() {
        for bad in [
            "", "{", "[1,", "{\"a\"}", "tru", "\"unterminated", "1e", "nul",
            // Strict JSON number grammar: no leading zeros, no bare
            // trailing point, no out-of-range literals silently
            // becoming null.
            "01", "1.", "-", "1e999", ".5",
        ] {
            assert!(from_str::<Value>(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn empty_braced_struct_derives_roundtrip() {
        #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
        struct Empty {}
        let text = to_string(&Empty {}).unwrap();
        assert_eq!(text, "{}");
        assert_eq!(from_str::<Empty>(&text).unwrap(), Empty {});
    }

    #[test]
    fn absent_option_fields_default_to_none() {
        #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
        struct Body {
            customer: u64,
            note: Option<String>,
        }
        let v: Body = from_str(r#"{"customer": 7}"#).unwrap();
        assert_eq!(
            v,
            Body {
                customer: 7,
                note: None
            }
        );
        // Required fields still error when absent.
        assert!(from_str::<Body>(r#"{"note": "x"}"#).is_err());
    }

    #[test]
    fn integers_print_every_digit_count() {
        let mut edges = vec![u64::MAX];
        for k in 0..20 {
            let p = 10u64.pow(k);
            edges.extend([p - 1, p, p + 1]);
        }
        for n in edges {
            assert_eq!(to_string(&n).unwrap(), n.to_string());
        }
        for n in [i64::MIN, i64::MIN + 1, -100, -99, -10, -9, -1, 0] {
            assert_eq!(to_string(&n).unwrap(), n.to_string());
        }
    }

    #[test]
    fn pretty_printing_is_indented_and_reparses() {
        let v = json!({"a": {"b": [1]}});
        let text = to_string_pretty(&v).unwrap();
        assert!(text.contains("\n  "));
        assert_eq!(from_str::<Value>(&text).unwrap(), v);
    }
}
