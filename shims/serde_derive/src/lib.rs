//! Offline shim for `serde_derive`.
//!
//! Implements `#[derive(Serialize)]` and `#[derive(Deserialize)]` by
//! parsing the item's token stream by hand (the environment has no
//! `syn`/`quote`) and emitting impls against the sibling `serde` shim's
//! data model. Supported shapes are exactly what this workspace uses:
//! non-generic structs (named / tuple / unit) and enums (all four
//! variant shapes), plus the `#[serde(transparent)]` attribute. Anything
//! else panics at compile time rather than silently mis-serializing.

use proc_macro::{Delimiter, TokenStream, TokenTree};

// ---------------------------------------------------------------------------
// Input model
// ---------------------------------------------------------------------------

struct Field {
    /// `None` for tuple fields.
    name: Option<String>,
    ty: String,
}

struct Variant {
    name: String,
    style: Style,
    fields: Vec<Field>,
}

#[derive(PartialEq, Clone, Copy)]
enum Style {
    Named,
    Tuple,
    Unit,
}

enum Kind {
    Struct {
        style: Style,
        fields: Vec<Field>,
        transparent: bool,
    },
    Enum {
        variants: Vec<Variant>,
    },
}

struct Input {
    name: String,
    kind: Kind,
}

// ---------------------------------------------------------------------------
// Token-stream parsing
// ---------------------------------------------------------------------------

fn is_punct(tree: &TokenTree, ch: char) -> bool {
    matches!(tree, TokenTree::Punct(p) if p.as_char() == ch)
}

fn is_ident(tree: &TokenTree, word: &str) -> bool {
    matches!(tree, TokenTree::Ident(i) if i.to_string() == word)
}

/// Consumes leading `#[...]` attributes; the flag is whether one of them
/// is `#[serde(transparent)]`.
fn skip_attributes(tokens: &[TokenTree], mut idx: usize) -> (usize, bool) {
    let mut transparent = false;
    while idx < tokens.len() && is_punct(&tokens[idx], '#') {
        let TokenTree::Group(group) = &tokens[idx + 1] else {
            panic!("expected [...] after # in attribute");
        };
        let inner: Vec<TokenTree> = group.stream().into_iter().collect();
        if !inner.is_empty() && is_ident(&inner[0], "serde") {
            let TokenTree::Group(args) = &inner[1] else {
                panic!("expected parenthesized args in #[serde(...)]");
            };
            for arg in args.stream() {
                match arg {
                    TokenTree::Ident(id) if id.to_string() == "transparent" => transparent = true,
                    TokenTree::Punct(p) if p.as_char() == ',' => {}
                    other => panic!(
                        "unsupported #[serde({other})] attribute — the offline serde shim \
                         supports only `transparent`"
                    ),
                }
            }
        }
        idx += 2;
    }
    (idx, transparent)
}

/// Consumes an optional `pub` / `pub(...)` visibility.
fn skip_visibility(tokens: &[TokenTree], mut idx: usize) -> usize {
    if idx < tokens.len() && is_ident(&tokens[idx], "pub") {
        idx += 1;
        if idx < tokens.len() {
            if let TokenTree::Group(g) = &tokens[idx] {
                if g.delimiter() == Delimiter::Parenthesis {
                    idx += 1;
                }
            }
        }
    }
    idx
}

/// Collects type tokens until a comma at angle-bracket depth zero.
fn collect_type(tokens: &[TokenTree], mut idx: usize) -> (usize, String) {
    let mut depth: i32 = 0;
    let mut collected: Vec<TokenTree> = Vec::new();
    while idx < tokens.len() {
        match &tokens[idx] {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => break,
            _ => {}
        }
        collected.push(tokens[idx].clone());
        idx += 1;
    }
    // Round-trip through a TokenStream so `::` and friends keep their
    // joint spacing when stringified.
    let stream: TokenStream = collected.into_iter().collect();
    (idx, stream.to_string())
}

fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut idx = 0;
    while idx < tokens.len() {
        let (next, _) = skip_attributes(&tokens, idx);
        idx = skip_visibility(&tokens, next);
        let name = tokens[idx].to_string();
        idx += 1;
        assert!(is_punct(&tokens[idx], ':'), "expected `:` after field name");
        idx += 1;
        let (next, ty) = collect_type(&tokens, idx);
        idx = next;
        if idx < tokens.len() && is_punct(&tokens[idx], ',') {
            idx += 1;
        }
        fields.push(Field {
            name: Some(name),
            ty,
        });
    }
    fields
}

fn parse_tuple_fields(stream: TokenStream) -> Vec<Field> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut idx = 0;
    while idx < tokens.len() {
        let (next, _) = skip_attributes(&tokens, idx);
        idx = skip_visibility(&tokens, next);
        let (next, ty) = collect_type(&tokens, idx);
        idx = next;
        if idx < tokens.len() && is_punct(&tokens[idx], ',') {
            idx += 1;
        }
        fields.push(Field { name: None, ty });
    }
    fields
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut idx = 0;
    while idx < tokens.len() {
        let (next, _attrs) = skip_attributes(&tokens, idx);
        idx = next;
        let name = tokens[idx].to_string();
        idx += 1;
        let (style, fields) = if idx < tokens.len() {
            match &tokens[idx] {
                TokenTree::Group(g) if g.delimiter() == Delimiter::Parenthesis => {
                    idx += 1;
                    (Style::Tuple, parse_tuple_fields(g.stream()))
                }
                TokenTree::Group(g) if g.delimiter() == Delimiter::Brace => {
                    idx += 1;
                    (Style::Named, parse_named_fields(g.stream()))
                }
                _ => (Style::Unit, Vec::new()),
            }
        } else {
            (Style::Unit, Vec::new())
        };
        if idx < tokens.len() && is_punct(&tokens[idx], '=') {
            panic!("explicit enum discriminants are not supported by the serde shim derive");
        }
        if idx < tokens.len() && is_punct(&tokens[idx], ',') {
            idx += 1;
        }
        variants.push(Variant {
            name,
            style,
            fields,
        });
    }
    variants
}

fn parse_input(input: TokenStream) -> Input {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let (idx, transparent) = skip_attributes(&tokens, 0);
    let mut idx = skip_visibility(&tokens, idx);

    let is_struct = if is_ident(&tokens[idx], "struct") {
        true
    } else if is_ident(&tokens[idx], "enum") {
        false
    } else {
        panic!("serde shim derive supports only structs and enums");
    };
    idx += 1;

    let name = tokens[idx].to_string();
    idx += 1;

    if idx < tokens.len() && is_punct(&tokens[idx], '<') {
        panic!("generic types are not supported by the offline serde shim derive");
    }

    if is_struct {
        match tokens.get(idx) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Input {
                name,
                kind: Kind::Struct {
                    style: Style::Named,
                    fields: parse_named_fields(g.stream()),
                    transparent,
                },
            },
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => Input {
                name,
                kind: Kind::Struct {
                    style: Style::Tuple,
                    fields: parse_tuple_fields(g.stream()),
                    transparent,
                },
            },
            Some(t) if is_punct(t, ';') => Input {
                name,
                kind: Kind::Struct {
                    style: Style::Unit,
                    fields: Vec::new(),
                    transparent: false,
                },
            },
            other => panic!("unexpected token after struct name: {other:?}"),
        }
    } else {
        match tokens.get(idx) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Input {
                name,
                kind: Kind::Enum {
                    variants: parse_variants(g.stream()),
                },
            },
            other => panic!("unexpected token after enum name: {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Serialize codegen
// ---------------------------------------------------------------------------

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let input = parse_input(input);
    let name = &input.name;
    let body = match &input.kind {
        Kind::Struct {
            style,
            fields,
            transparent,
        } => serialize_struct_body(name, *style, fields, *transparent),
        Kind::Enum { variants } => serialize_enum_body(name, variants),
    };
    let out = format!(
        "#[automatically_derived]\n\
         impl serde::ser::Serialize for {name} {{\n\
             fn serialize<__S: serde::ser::Serializer>(&self, __serializer: __S)\n\
                 -> ::std::result::Result<__S::Ok, __S::Error> {{\n\
                 {body}\n\
             }}\n\
         }}"
    );
    out.parse().expect("serialize impl should parse")
}

/// Emits `__st.serialize_field(...)` for one field of a struct.
fn ser_field(idx: usize, field: &Field) -> String {
    match &field.name {
        Some(n) => format!("__st.serialize_field(\"{n}\", &self.{n})?;"),
        None => format!("__st.serialize_field(&self.{idx})?;"),
    }
}

fn serialize_struct_body(name: &str, style: Style, fields: &[Field], transparent: bool) -> String {
    match style {
        Style::Unit => format!("serde::ser::Serializer::serialize_unit_struct(__serializer, \"{name}\")"),
        Style::Tuple if transparent || fields.len() == 1 => {
            if transparent {
                "serde::ser::Serialize::serialize(&self.0, __serializer)".to_string()
            } else {
                format!(
                    "serde::ser::Serializer::serialize_newtype_struct(__serializer, \"{name}\", &self.0)"
                )
            }
        }
        Style::Tuple => {
            let n = fields.len();
            let mut body = format!(
                "use serde::ser::SerializeTupleStruct as _;\n\
                 let mut __st = serde::ser::Serializer::serialize_tuple_struct(__serializer, \"{name}\", {n})?;\n"
            );
            for (i, f) in fields.iter().enumerate() {
                body.push_str(&ser_field(i, f));
                body.push('\n');
            }
            body.push_str("__st.end()");
            body
        }
        Style::Named if transparent => {
            assert!(
                fields.len() == 1,
                "#[serde(transparent)] requires exactly one field"
            );
            let f = fields[0].name.as_ref().unwrap();
            format!("serde::ser::Serialize::serialize(&self.{f}, __serializer)")
        }
        Style::Named => {
            let n = fields.len();
            let mut body = format!(
                "use serde::ser::SerializeStruct as _;\n\
                 let mut __st = serde::ser::Serializer::serialize_struct(__serializer, \"{name}\", {n})?;\n"
            );
            for (i, f) in fields.iter().enumerate() {
                body.push_str(&ser_field(i, f));
                body.push('\n');
            }
            body.push_str("__st.end()");
            body
        }
    }
}

fn serialize_enum_body(name: &str, variants: &[Variant]) -> String {
    let mut arms = String::new();
    for (vi, v) in variants.iter().enumerate() {
        let vname = &v.name;
        match v.style {
            Style::Unit => {
                arms.push_str(&format!(
                    "{name}::{vname} => serde::ser::Serializer::serialize_unit_variant(\
                         __serializer, \"{name}\", {vi}u32, \"{vname}\"),\n"
                ));
            }
            Style::Tuple if v.fields.len() == 1 => {
                arms.push_str(&format!(
                    "{name}::{vname}(__f0) => serde::ser::Serializer::serialize_newtype_variant(\
                         __serializer, \"{name}\", {vi}u32, \"{vname}\", __f0),\n"
                ));
            }
            Style::Tuple => {
                let n = v.fields.len();
                let binders: Vec<String> = (0..n).map(|i| format!("__f{i}")).collect();
                let mut arm = format!(
                    "{name}::{vname}({binds}) => {{\n\
                         use serde::ser::SerializeTupleVariant as _;\n\
                         let mut __st = serde::ser::Serializer::serialize_tuple_variant(\
                             __serializer, \"{name}\", {vi}u32, \"{vname}\", {n})?;\n",
                    binds = binders.join(", ")
                );
                for b in &binders {
                    arm.push_str(&format!("__st.serialize_field({b})?;\n"));
                }
                arm.push_str("__st.end()\n},\n");
                arms.push_str(&arm);
            }
            Style::Named => {
                let n = v.fields.len();
                let names: Vec<&String> =
                    v.fields.iter().map(|f| f.name.as_ref().unwrap()).collect();
                let mut arm = format!(
                    "{name}::{vname} {{ {binds} }} => {{\n\
                         use serde::ser::SerializeStructVariant as _;\n\
                         let mut __st = serde::ser::Serializer::serialize_struct_variant(\
                             __serializer, \"{name}\", {vi}u32, \"{vname}\", {n})?;\n",
                    binds = names
                        .iter()
                        .map(|s| s.as_str())
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                for f in &names {
                    arm.push_str(&format!("__st.serialize_field(\"{f}\", {f})?;\n"));
                }
                arm.push_str("__st.end()\n},\n");
                arms.push_str(&arm);
            }
        }
    }
    format!("match self {{\n{arms}\n}}")
}

// ---------------------------------------------------------------------------
// Deserialize codegen
// ---------------------------------------------------------------------------

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let input = parse_input(input);
    let name = &input.name;
    let body = match &input.kind {
        Kind::Struct {
            style,
            fields,
            transparent,
        } => deserialize_struct_body(name, *style, fields, *transparent),
        Kind::Enum { variants } => deserialize_enum_body(name, variants),
    };
    let out = format!(
        "#[automatically_derived]\n\
         impl<'de> serde::de::Deserialize<'de> for {name} {{\n\
             fn deserialize<__D: serde::de::Deserializer<'de>>(__deserializer: __D)\n\
                 -> ::std::result::Result<Self, __D::Error> {{\n\
                 {body}\n\
             }}\n\
         }}"
    );
    out.parse().expect("deserialize impl should parse")
}

/// `visit_seq` body constructing `ctor` from positional fields.
/// `named` distinguishes braced from tuple/unit construction when the
/// field list is empty (`Name {}` vs `Name`).
fn visit_seq_body(ctor: &str, expect: &str, fields: &[Field], named: bool) -> String {
    let mut body = String::new();
    for (i, f) in fields.iter().enumerate() {
        let ty = &f.ty;
        body.push_str(&format!(
            "let __f{i}: {ty} = match serde::de::SeqAccess::next_element::<{ty}>(&mut __seq)? {{\n\
                 Some(__v) => __v,\n\
                 None => return Err(serde::de::Error::invalid_length({i}usize, &\"{expect}\")),\n\
             }};\n"
        ));
    }
    let args: Vec<String> = (0..fields.len()).map(|i| format!("__f{i}")).collect();
    let construct = if named {
        let parts: Vec<String> = fields
            .iter()
            .enumerate()
            .map(|(i, f)| format!("{}: __f{i}", f.name.as_ref().unwrap()))
            .collect();
        format!("{ctor} {{ {} }}", parts.join(", "))
    } else if fields.is_empty() {
        ctor.to_string()
    } else {
        format!("{ctor}({})", args.join(", "))
    };
    body.push_str(&format!("Ok({construct})"));
    body
}

/// True when a field's (stringified) type is `Option<...>` under any
/// of its usual spellings.
fn is_option_type(ty: &str) -> bool {
    let compact: String = ty.chars().filter(|c| !c.is_whitespace()).collect();
    compact.starts_with("Option<")
        || compact.starts_with("std::option::Option<")
        || compact.starts_with("::std::option::Option<")
        || compact.starts_with("core::option::Option<")
        || compact.starts_with("::core::option::Option<")
}

/// `visit_map` body for named fields: match keys by name, error on
/// missing (except `Option`, which defaults to `None`), skip unknown.
fn visit_map_body(ctor: &str, fields: &[Field]) -> String {
    let mut body = String::new();
    for (i, f) in fields.iter().enumerate() {
        let ty = &f.ty;
        body.push_str(&format!(
            "let mut __f{i}: ::std::option::Option<{ty}> = ::std::option::Option::None;\n"
        ));
    }
    body.push_str(
        "while let Some(__key) = serde::de::MapAccess::next_key::<::std::string::String>(&mut __map)? {\n\
             match __key.as_str() {\n",
    );
    for (i, f) in fields.iter().enumerate() {
        let fname = f.name.as_ref().unwrap();
        body.push_str(&format!(
            "\"{fname}\" => {{ __f{i} = ::std::option::Option::Some(\
                 serde::de::MapAccess::next_value(&mut __map)?); }}\n"
        ));
    }
    body.push_str(
        "_ => { let _ = serde::de::MapAccess::next_value::<serde::de::IgnoredAny>(&mut __map)?; }\n\
             }\n\
         }\n",
    );
    let parts: Vec<String> = fields
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let fname = f.name.as_ref().unwrap();
            if is_option_type(&f.ty) {
                // Real serde treats an absent `Option<T>` field as None
                // rather than a missing-field error.
                format!("{fname}: __f{i}.unwrap_or(::std::option::Option::None)")
            } else {
                format!(
                    "{fname}: match __f{i} {{\n\
                         ::std::option::Option::Some(__v) => __v,\n\
                         ::std::option::Option::None => \
                             return Err(serde::de::Error::missing_field(\"{fname}\")),\n\
                     }}"
                )
            }
        })
        .collect();
    body.push_str(&format!("Ok({ctor} {{ {} }})", parts.join(", ")));
    body
}

fn deserialize_struct_body(
    name: &str,
    style: Style,
    fields: &[Field],
    transparent: bool,
) -> String {
    match style {
        Style::Unit => format!(
            "struct __Visitor;\n\
             impl<'de> serde::de::Visitor<'de> for __Visitor {{\n\
                 type Value = {name};\n\
                 fn expecting(&self, __f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {{\n\
                     __f.write_str(\"unit struct {name}\")\n\
                 }}\n\
                 fn visit_unit<__E: serde::de::Error>(self) -> ::std::result::Result<{name}, __E> {{\n\
                     Ok({name})\n\
                 }}\n\
             }}\n\
             serde::de::Deserializer::deserialize_unit_struct(__deserializer, \"{name}\", __Visitor)"
        ),
        Style::Tuple if transparent || fields.len() == 1 => {
            if transparent {
                format!("Ok({name}(serde::de::Deserialize::deserialize(__deserializer)?))")
            } else {
                let ty = &fields[0].ty;
                format!(
                    "struct __Visitor;\n\
                     impl<'de> serde::de::Visitor<'de> for __Visitor {{\n\
                         type Value = {name};\n\
                         fn expecting(&self, __f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {{\n\
                             __f.write_str(\"newtype struct {name}\")\n\
                         }}\n\
                         fn visit_newtype_struct<__D2: serde::de::Deserializer<'de>>(self, __d: __D2)\n\
                             -> ::std::result::Result<{name}, __D2::Error> {{\n\
                             Ok({name}(<{ty} as serde::de::Deserialize>::deserialize(__d)?))\n\
                         }}\n\
                         fn visit_seq<__A: serde::de::SeqAccess<'de>>(self, mut __seq: __A)\n\
                             -> ::std::result::Result<{name}, __A::Error> {{\n\
                             match serde::de::SeqAccess::next_element::<{ty}>(&mut __seq)? {{\n\
                                 Some(__v) => Ok({name}(__v)),\n\
                                 None => Err(serde::de::Error::invalid_length(0usize, &\"newtype struct {name}\")),\n\
                             }}\n\
                         }}\n\
                     }}\n\
                     serde::de::Deserializer::deserialize_newtype_struct(__deserializer, \"{name}\", __Visitor)"
                )
            }
        }
        Style::Tuple => {
            let n = fields.len();
            let seq = visit_seq_body(name, &format!("tuple struct {name}"), fields, false);
            format!(
                "struct __Visitor;\n\
                 impl<'de> serde::de::Visitor<'de> for __Visitor {{\n\
                     type Value = {name};\n\
                     fn expecting(&self, __f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {{\n\
                         __f.write_str(\"tuple struct {name}\")\n\
                     }}\n\
                     fn visit_seq<__A: serde::de::SeqAccess<'de>>(self, mut __seq: __A)\n\
                         -> ::std::result::Result<{name}, __A::Error> {{\n\
                         {seq}\n\
                     }}\n\
                 }}\n\
                 serde::de::Deserializer::deserialize_tuple_struct(__deserializer, \"{name}\", {n}, __Visitor)"
            )
        }
        Style::Named if transparent => {
            let f = fields[0].name.as_ref().unwrap();
            format!(
                "Ok({name} {{ {f}: serde::de::Deserialize::deserialize(__deserializer)? }})"
            )
        }
        Style::Named => {
            let seq = visit_seq_body(name, &format!("struct {name}"), fields, true);
            let map = visit_map_body(name, fields);
            let field_names: Vec<String> = fields
                .iter()
                .map(|f| format!("\"{}\"", f.name.as_ref().unwrap()))
                .collect();
            format!(
                "const __FIELDS: &'static [&'static str] = &[{field_list}];\n\
                 struct __Visitor;\n\
                 impl<'de> serde::de::Visitor<'de> for __Visitor {{\n\
                     type Value = {name};\n\
                     fn expecting(&self, __f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {{\n\
                         __f.write_str(\"struct {name}\")\n\
                     }}\n\
                     fn visit_seq<__A: serde::de::SeqAccess<'de>>(self, mut __seq: __A)\n\
                         -> ::std::result::Result<{name}, __A::Error> {{\n\
                         {seq}\n\
                     }}\n\
                     fn visit_map<__A: serde::de::MapAccess<'de>>(self, mut __map: __A)\n\
                         -> ::std::result::Result<{name}, __A::Error> {{\n\
                         {map}\n\
                     }}\n\
                 }}\n\
                 serde::de::Deserializer::deserialize_struct(__deserializer, \"{name}\", __FIELDS, __Visitor)",
                field_list = field_names.join(", ")
            )
        }
    }
}

fn deserialize_enum_body(name: &str, variants: &[Variant]) -> String {
    let n = variants.len();
    let variant_names: Vec<String> = variants.iter().map(|v| format!("\"{}\"", v.name)).collect();

    // Variant-identifier deserializer: accepts an index (binary formats)
    // or a name string (self-describing formats).
    let str_arms: String = variants
        .iter()
        .enumerate()
        .map(|(i, v)| format!("\"{}\" => Ok(__VariantTag({i}u32)),\n", v.name))
        .collect();

    let mut match_arms = String::new();
    for (vi, v) in variants.iter().enumerate() {
        let vname = &v.name;
        let arm_body = match v.style {
            Style::Unit => format!(
                "{{ serde::de::VariantAccess::unit_variant(__access)?; Ok({name}::{vname}) }}"
            ),
            Style::Tuple if v.fields.len() == 1 => {
                let ty = &v.fields[0].ty;
                format!(
                    "{{ Ok({name}::{vname}(serde::de::VariantAccess::newtype_variant::<{ty}>(__access)?)) }}"
                )
            }
            Style::Tuple => {
                let len = v.fields.len();
                let seq = visit_seq_body(
                    &format!("{name}::{vname}"),
                    &format!("tuple variant {name}::{vname}"),
                    &v.fields,
                    false,
                );
                format!(
                    "{{\n\
                         struct __TupleVisitor{vi};\n\
                         impl<'de> serde::de::Visitor<'de> for __TupleVisitor{vi} {{\n\
                             type Value = {name};\n\
                             fn expecting(&self, __f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {{\n\
                                 __f.write_str(\"tuple variant {name}::{vname}\")\n\
                             }}\n\
                             fn visit_seq<__A2: serde::de::SeqAccess<'de>>(self, mut __seq: __A2)\n\
                                 -> ::std::result::Result<{name}, __A2::Error> {{\n\
                                 {seq}\n\
                             }}\n\
                         }}\n\
                         serde::de::VariantAccess::tuple_variant(__access, {len}usize, __TupleVisitor{vi})\n\
                     }}"
                )
            }
            Style::Named => {
                let seq = visit_seq_body(
                    &format!("{name}::{vname}"),
                    &format!("struct variant {name}::{vname}"),
                    &v.fields,
                    true,
                );
                let map = visit_map_body(&format!("{name}::{vname}"), &v.fields);
                let field_names: Vec<String> = v
                    .fields
                    .iter()
                    .map(|f| format!("\"{}\"", f.name.as_ref().unwrap()))
                    .collect();
                format!(
                    "{{\n\
                         struct __StructVisitor{vi};\n\
                         impl<'de> serde::de::Visitor<'de> for __StructVisitor{vi} {{\n\
                             type Value = {name};\n\
                             fn expecting(&self, __f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {{\n\
                                 __f.write_str(\"struct variant {name}::{vname}\")\n\
                             }}\n\
                             fn visit_seq<__A2: serde::de::SeqAccess<'de>>(self, mut __seq: __A2)\n\
                                 -> ::std::result::Result<{name}, __A2::Error> {{\n\
                                 {seq}\n\
                             }}\n\
                             fn visit_map<__A2: serde::de::MapAccess<'de>>(self, mut __map: __A2)\n\
                                 -> ::std::result::Result<{name}, __A2::Error> {{\n\
                                 {map}\n\
                             }}\n\
                         }}\n\
                         serde::de::VariantAccess::struct_variant(__access, &[{fields}], __StructVisitor{vi})\n\
                     }}",
                    fields = field_names.join(", ")
                )
            }
        };
        match_arms.push_str(&format!("{vi}u32 => {arm_body},\n"));
    }

    format!(
        "const __VARIANTS: &'static [&'static str] = &[{variant_list}];\n\
         struct __VariantTag(u32);\n\
         impl<'de> serde::de::Deserialize<'de> for __VariantTag {{\n\
             fn deserialize<__D2: serde::de::Deserializer<'de>>(__d: __D2)\n\
                 -> ::std::result::Result<Self, __D2::Error> {{\n\
                 struct __TagVisitor;\n\
                 impl<'de> serde::de::Visitor<'de> for __TagVisitor {{\n\
                     type Value = __VariantTag;\n\
                     fn expecting(&self, __f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {{\n\
                         __f.write_str(\"variant identifier\")\n\
                     }}\n\
                     fn visit_u64<__E: serde::de::Error>(self, __v: u64)\n\
                         -> ::std::result::Result<__VariantTag, __E> {{\n\
                         if __v < {n}u64 {{ Ok(__VariantTag(__v as u32)) }}\n\
                         else {{ Err(serde::de::Error::unknown_variant(&__v.to_string(), __VARIANTS)) }}\n\
                     }}\n\
                     fn visit_str<__E: serde::de::Error>(self, __v: &str)\n\
                         -> ::std::result::Result<__VariantTag, __E> {{\n\
                         match __v {{\n\
                             {str_arms}\n\
                             _ => Err(serde::de::Error::unknown_variant(__v, __VARIANTS)),\n\
                         }}\n\
                     }}\n\
                 }}\n\
                 serde::de::Deserializer::deserialize_identifier(__d, __TagVisitor)\n\
             }}\n\
         }}\n\
         struct __Visitor;\n\
         impl<'de> serde::de::Visitor<'de> for __Visitor {{\n\
             type Value = {name};\n\
             fn expecting(&self, __f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {{\n\
                 __f.write_str(\"enum {name}\")\n\
             }}\n\
             fn visit_enum<__A: serde::de::EnumAccess<'de>>(self, __data: __A)\n\
                 -> ::std::result::Result<{name}, __A::Error> {{\n\
                 let (__tag, __access) = serde::de::EnumAccess::variant::<__VariantTag>(__data)?;\n\
                 match __tag.0 {{\n\
                     {match_arms}\n\
                     _ => ::std::unreachable!(\"variant tag already validated\"),\n\
                 }}\n\
             }}\n\
         }}\n\
         serde::de::Deserializer::deserialize_enum(__deserializer, \"{name}\", __VARIANTS, __Visitor)",
        variant_list = variant_names.join(", ")
    )
}
