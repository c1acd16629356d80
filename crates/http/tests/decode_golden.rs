//! What the JSON decoder accepts, and what it decodes it to, pinned.
//!
//! The gateway decodes every request body with `serde_json::from_slice`
//! into one of its body types. This test decodes a curated set of
//! documents into each body type and a few container types, and lists one
//! line per (document, type): `ok <Debug>` or `err`. Error text is not
//! listed. The curated documents are marketbench's bodies and the edges of
//! the grammar: keys in another order, unknown fields, missing fields,
//! every enum form, a struct given as an array, escapes, surrogates, bad
//! UTF-8, leading zeros, exponents, integers past `u64::MAX`, trailing
//! bytes, nesting around the depth bound and far past it, repeated keys.
//!
//! Then 20 000 seeded byte mutations of the curated documents that are
//! JSON are decoded into every type and summarised per type: how many
//! decoded and how many were rejected, and an FNV-1a digest of the ok
//! lines.
//!
//! Every decode is also compared with decoding the document's canonical
//! form: its `Value` tree printed back, where each object holds a key once
//! (the last value wins) and keys are sorted. The two may differ only for
//! a document that repeats a key in some object; each summary line counts
//! those documents (`repeated_key_diffs`).
//!
//! The listing is compared with `decode_golden.golden`, generated once
//! and checked in: a difference is a change of what the gateway accepts
//! from a client, not a fixture to regenerate.

use om_common::checksum::crc32;
use om_common::entity::{Customer, Seller};
use om_common::rng::SplitMix64;
use om_http::gateway::{CheckoutBody, IngestProductBody, PriceUpdateBody};
use om_marketplace::api::{CheckoutItem, CheckoutOutcome};
use serde::de::{Deserialize, DeserializeOwned, Deserializer, MapAccess, SeqAccess, Visitor};
use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{self, Debug, Write as _};

const MUTANTS: usize = 20_000;

/// `Some(Debug)` when `doc` decodes as a `T`, `None` when it is rejected.
fn decode<T: DeserializeOwned + Debug>(doc: &[u8]) -> Option<String> {
    serde_json::from_slice::<T>(doc)
        .ok()
        .map(|v| format!("{v:?}"))
}

/// `decode` of the document's canonical form: its `Value` tree printed.
fn decode_canonical<T: DeserializeOwned + Debug>(doc: &[u8]) -> Option<String> {
    let tree: Value = serde_json::from_slice(doc).ok()?;
    decode::<T>(&serde_json::to_vec(&tree).expect("a Value prints"))
}

type Decode = fn(&[u8]) -> Option<String>;

macro_rules! targets {
    ($($name:literal => $ty:ty,)*) => {
        [$(($name, decode::<$ty> as Decode, decode_canonical::<$ty> as Decode),)*]
    };
}

/// The target types, by the name the listing gives them.
fn targets() -> [(&'static str, Decode, Decode); 12] {
    targets! {
        "Seller" => Seller,
        "Customer" => Customer,
        "IngestProductBody" => IngestProductBody,
        "CheckoutItem" => CheckoutItem,
        "CheckoutBody" => CheckoutBody,
        "PriceUpdateBody" => PriceUpdateBody,
        "CheckoutOutcome" => CheckoutOutcome,
        "Value" => Value,
        "Vec<u64>" => Vec<u64>,
        "Option<u32>" => Option<u32>,
        "BTreeMap<u64,u64>" => BTreeMap<u64, u64>,
        "(u64,u64,u64)" => (u64, u64, u64),
    }
}

/// Whether some object in the document names one key twice. Integer
/// keys count as repeated when they parse to the same number (`"1"`,
/// `"01"`, `"+1"`), as an integer-keyed map reads them.
struct RepeatsKey(bool);

impl<'de> Deserialize<'de> for RepeatsKey {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        struct Scan;
        impl<'de> Visitor<'de> for Scan {
            type Value = RepeatsKey;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("any JSON value")
            }
            fn visit_bool<E: serde::de::Error>(self, _: bool) -> Result<RepeatsKey, E> {
                Ok(RepeatsKey(false))
            }
            fn visit_i64<E: serde::de::Error>(self, _: i64) -> Result<RepeatsKey, E> {
                Ok(RepeatsKey(false))
            }
            fn visit_u64<E: serde::de::Error>(self, _: u64) -> Result<RepeatsKey, E> {
                Ok(RepeatsKey(false))
            }
            fn visit_f64<E: serde::de::Error>(self, _: f64) -> Result<RepeatsKey, E> {
                Ok(RepeatsKey(false))
            }
            fn visit_str<E: serde::de::Error>(self, _: &str) -> Result<RepeatsKey, E> {
                Ok(RepeatsKey(false))
            }
            fn visit_unit<E: serde::de::Error>(self) -> Result<RepeatsKey, E> {
                Ok(RepeatsKey(false))
            }
            fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<RepeatsKey, A::Error> {
                let mut repeats = false;
                while let Some(RepeatsKey(inner)) = seq.next_element()? {
                    repeats |= inner;
                }
                Ok(RepeatsKey(repeats))
            }
            fn visit_map<A: MapAccess<'de>>(self, mut map: A) -> Result<RepeatsKey, A::Error> {
                let mut repeats = false;
                let mut seen = BTreeSet::new();
                while let Some(key) = map.next_key::<String>()? {
                    let key = key.parse::<u64>().map_or(key, |n| n.to_string());
                    repeats |= !seen.insert(key);
                    repeats |= map.next_value::<RepeatsKey>()?.0;
                }
                Ok(RepeatsKey(repeats))
            }
        }
        d.deserialize_any(Scan)
    }
}

fn repeats_key(doc: &[u8]) -> bool {
    serde_json::from_slice::<RepeatsKey>(doc).is_ok_and(|r| r.0)
}

fn nested(open: &str, inner: &str, close: &str, depth: usize) -> Vec<u8> {
    [open.repeat(depth), inner.to_string(), close.repeat(depth)]
        .concat()
        .into_bytes()
}

/// The curated documents.
fn documents() -> Vec<Vec<u8>> {
    let mut docs: Vec<Vec<u8>> = [
        // marketbench's bodies, as its request stream and ingest send them
        r#"{"id":3,"name":"seller-3","city":"cph","order_entry_count":0,"delivered_package_count":0,"revenue":0}"#,
        r#"{"id":7,"name":"customer-7","address":"street 7","success_payment_count":0,"failed_payment_count":0,"delivery_count":0,"abandoned_cart_count":0,"total_spent":0}"#,
        r#"{"product":{"id":31,"seller":3,"name":"product-31","category":"bench","description":"","price":1299,"freight_value":100,"version":0,"active":true},"initial_stock":1000000}"#,
        r#"{"seller":3,"product":31,"quantity":2}"#,
        r#"{"items":[{"seller":3,"product":31,"quantity":2},{"seller":1,"product":7,"quantity":1},{"seller":9,"product":95,"quantity":3}],"method":"CreditCard"}"#,
        r#"{"price":4242}"#,
        // keys in another order, whitespace, unknown and missing fields
        r#"{"quantity":2,"product":31,"seller":3}"#,
        " {\n\t\"seller\" : 3 ,\r\n \"product\":31, \"quantity\" :2 } ",
        r#"{"seller":3,"product":31,"quantity":2,"note":{"a":[1,{"b":null}],"c":"d"},"x":-1.5e3}"#,
        r#"{"seller":3,"product":31}"#,
        r#"{"seller":3,"product":31,"quantity":null}"#,
        r#"{"price":4242,"currency":"EUR"}"#,
        r#"{"items":[],"method":"Boleto","extra":[[],{}]}"#,
        r#"{"items":[{"seller":3,"product":31}],"method":"Voucher"}"#,
        r#"{"method":"DebitCard","items":[]}"#,
        r#"{"items":[]}"#,
        // every enum form
        r#"{"items":[],"method":{"Voucher":null}}"#,
        r#"{"items":[],"method":{}}"#,
        r#"{"items":[],"method":{"Voucher":null,"Boleto":null}}"#,
        r#"{"items":[],"method":{"Voucher":1}}"#,
        r#"{"items":[],"method":"Cash"}"#,
        r#"{"items":[],"method":["Voucher"]}"#,
        r#"{"items":[],"method":null}"#,
        r#"{"Placed":{"order":42,"total":12345}}"#,
        r#"{"Placed":{"order":null,"total":null}}"#,
        r#"{"Placed":{}}"#,
        r#"{"Placed":[42,12345]}"#,
        r#"{"Placed":null}"#,
        r#"{"Rejected":"out of stock: \"lamp\""}"#,
        r#"{"Rejected":7}"#,
        r#""Rejected""#,
        r#""Placed""#,
        r#"{"Rejected":"a","Placed":{}}"#,
        // a struct given as an array, and arrays of other lengths
        "[3,31,2]",
        "[3,31]",
        "[3,31,2,4]",
        "[[3,31,2]]",
        r#"{"items":[[3,31,2]],"method":"Boleto"}"#,
        r#"[[],"Voucher"]"#,
        "[4242]",
        // escapes, surrogates and UTF-8
        r#"{"id":3,"name":"a\"b\\c\/d\b\f\n\r\t","city":"æ漢😀","order_entry_count":0,"delivered_package_count":0,"revenue":0}"#,
        r#"{"id":3,"name":"ø 漢 😀","city":"","order_entry_count":0,"delivered_package_count":0,"revenue":0}"#,
        r#""\ud800""#,
        r#""\udc00""#,
        r#""\ud800A""#,
        r#""\ud800x""#,
        r#""\u12""#,
        r#""\u12g4""#,
        r#""\x""#,
        r#""tab	inside""#,
        r#"{"price":5}"#,
        r#"{"price":5,"price":6}"#,
        // numbers
        "0",
        "-0",
        "01",
        "-01",
        "1.",
        ".5",
        "1e2",
        "1E+2",
        "1e-2",
        "-1",
        "1.5",
        "4294967295",
        "4294967296",
        "18446744073709551615",
        "18446744073709551616",
        "-9223372036854775808",
        "-9223372036854775809",
        "1e400",
        "-",
        "+1",
        "NaN",
        r#"{"price":1e2}"#,
        r#"{"price":-5}"#,
        r#"{"price":0}"#,
        r#"{"price":9223372036854775807}"#,
        r#"{"price":9223372036854775808}"#,
        r#"{"price":-9223372036854775808}"#,
        r#"{"price":"5"}"#,
        r#"{"seller":3,"product":31,"quantity":4294967295}"#,
        r#"{"seller":3,"product":31,"quantity":4294967296}"#,
        r#"{"seller":18446744073709551615,"product":31,"quantity":1}"#,
        r#"{"seller":18446744073709551616,"product":31,"quantity":1}"#,
        r#"{"seller":-1,"product":31,"quantity":1}"#,
        r#"{"seller":3.0,"product":31,"quantity":1}"#,
        "[18446744073709551615,0,1]",
        "[18446744073709551616,0,1]",
        // trailing bytes
        r#"{"price":1} "#,
        " {\"price\":1}\n",
        r#"{"price":1} x"#,
        r#"{"price":1}}"#,
        r#"{"price":1}{"price":2}"#,
        "[1,2,3]]",
        "null null",
        "1 2",
        // containers and scalars
        "",
        "   ",
        "null",
        "true",
        "false",
        "nul",
        "tru",
        r#""x""#,
        "5",
        "[]",
        "{}",
        "[1,2,3]",
        "[1,,2]",
        "[1,]",
        "[,]",
        r#"{"a":1,}"#,
        "{,}",
        r#"{"a"}"#,
        r#"{"a" 1}"#,
        "{1:2}",
        r#"{"1":2,"3":4}"#,
        r#"{"01":1,"+2":2,"3":3}"#,
        r#"{"a":1}"#,
        r#"{"-1":1}"#,
        r#"{"18446744073709551616":1}"#,
        "[1",
        r#"{"a":1"#,
        r#""unterminated"#,
        // repeated keys
        r#"{"price":1,"price":2}"#,
        r#"{"price":"x","price":2}"#,
        r#"{"price":2,"price":"x"}"#,
        r#"{"seller":3,"product":31,"quantity":"x","quantity":5}"#,
        r#"{"seller":3,"product":31,"quantity":5,"quantity":"x"}"#,
        r#"{"items":[],"method":"Boleto","method":"Voucher"}"#,
        r#"{"items":[],"method":"Cash","method":"Voucher"}"#,
        r#"{"1":2,"1":3}"#,
        r#"{"1":2,"01":3}"#,
        r#"{"a":1,"a":{"b":2}}"#,
    ]
    .iter()
    .map(|s| s.as_bytes().to_vec())
    .collect();
    // bad UTF-8 inside strings
    for bad in [
        &b"\"\xff\""[..],
        b"\"\xc3\"",
        b"\"\xc3\x28\"",
        b"\"\xc0\xaf\"",
        b"\"\xed\xa0\x80\"",
        b"\"\xf4\x90\x80\x80\"",
        b"\"\xe6\xbc\"",
        b"{\"seller\":3,\"product\":31,\"quantity\":2,\"\xff\":1}",
        b"\xef\xbb\xbf{\"price\":1}",
    ] {
        docs.push(bad.to_vec());
    }
    // nesting around the depth bound, bare and as an unknown field
    for depth in 127..=130 {
        docs.push(nested("[", "", "]", depth));
        docs.push(nested("[", "1", "]", depth));
        docs.push(nested(r#"{"a":"#, "1", "}", depth));
        let mut unknown = br#"{"price":1,"x":"#.to_vec();
        unknown.extend(nested("[", "", "]", depth - 1));
        unknown.push(b'}');
        docs.push(unknown);
    }
    docs.push(nested("[", "", "]", 5_000));
    docs.push(nested("[", "", "", 5_000));
    docs.push(nested(r#"{"a":"#, "null", "}", 5_000));
    docs
}

/// Bytes a mutation likes to write: JSON's punctuation, the first bytes
/// of its keywords and numbers, and a few bytes that are never valid.
const INTERESTING: &[u8] = b"{}[]\":,0123456789-+.eE\\/ntfu \t\n\x00\x1f\x7f\xc3\xff";

/// One random edit of `doc`, or two one time in four: overwrite, insert,
/// delete, or copy a slice of it elsewhere (which repeats keys and nests
/// values).
fn mutate(doc: &[u8], rng: &mut SplitMix64) -> Vec<u8> {
    let mut out = doc.to_vec();
    for _ in 0..1 + rng.chance(0.25) as u32 {
        let at = rng.next_bounded(out.len() as u64 + 1) as usize;
        let byte = if rng.chance(0.75) {
            *rng.pick(INTERESTING)
        } else {
            rng.next_u64() as u8
        };
        match rng.next_bounded(5) {
            0 | 1 if at < out.len() => out[at] = byte,
            2 if at < out.len() => {
                out.remove(at);
            }
            3 if !out.is_empty() => {
                let from = rng.next_bounded(out.len() as u64) as usize;
                let len = rng.range_inclusive(1, 24).min((out.len() - from) as u64) as usize;
                let slice = out[from..from + len].to_vec();
                out.splice(at..at, slice);
            }
            _ => out.insert(at, byte),
        }
    }
    out
}

/// How a document is shown in the listing: escaped, or by length and
/// CRC-32 when long.
fn shown(doc: &[u8]) -> String {
    if doc.len() <= 160 {
        format!("\"{}\"", doc.escape_ascii())
    } else {
        format!("len={} crc32={:08x}", doc.len(), crc32(doc))
    }
}

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// The decode of `doc` as the target, after checking it against the
/// decode of the canonical form. Returns whether the two differ.
fn checked(name: &str, decode: Decode, canonical: Decode, doc: &[u8]) -> (Option<String>, bool) {
    let direct = decode(doc);
    let differs = direct != canonical(doc);
    assert!(
        !differs || repeats_key(doc),
        "{name} decodes {} otherwise than its canonical form, which repeats no key",
        shown(doc)
    );
    (direct, differs)
}

fn listing() -> String {
    let mut out = String::new();
    let docs = documents();
    for (i, doc) in docs.iter().enumerate() {
        let _ = writeln!(out, "--- doc {i} {}", shown(doc));
        for (name, decode, canonical) in targets() {
            match checked(name, decode, canonical, doc).0 {
                Some(debug) => {
                    let _ = writeln!(out, "{name} ok {debug}");
                }
                None => {
                    let _ = writeln!(out, "{name} err");
                }
            }
        }
    }
    // Mutants start from the documents that are JSON, so that one edit
    // often leaves JSON behind.
    let bases: Vec<&Vec<u8>> = docs
        .iter()
        .filter(|doc| serde_json::from_slice::<Value>(doc).is_ok())
        .collect();
    let mut rng = SplitMix64::new(64);
    let mutants: Vec<Vec<u8>> = (0..MUTANTS)
        .map(|_| {
            let base = *rng.pick(&bases);
            mutate(base, &mut rng)
        })
        .collect();
    let _ = writeln!(out, "--- {MUTANTS} mutants, seed 64");
    for (name, decode, canonical) in targets() {
        let (mut ok, mut err, mut diffs) = (0, 0, 0);
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for doc in &mutants {
            let (direct, differs) = checked(name, decode, canonical, doc);
            diffs += differs as usize;
            match direct {
                Some(debug) => {
                    ok += 1;
                    hash = fnv1a(hash, format!("{}\t{debug}\n", shown(doc)).as_bytes());
                }
                None => err += 1,
            }
        }
        let _ = writeln!(
            out,
            "{name} ok={ok} err={err} fnv1a={hash:016x} repeated_key_diffs={diffs}"
        );
    }
    out
}

#[test]
fn decodes_match_the_golden_listing() {
    let listing = listing();
    let golden = include_str!("decode_golden.golden");
    for (at, (got, want)) in listing.lines().zip(golden.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "what the decoder accepts changed at line {}",
            at + 1
        );
    }
    assert_eq!(listing, golden, "what the decoder accepts changed");
}
