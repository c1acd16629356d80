//! Incremental HTTP/1.1 request parsing.
//!
//! The parser is *incremental*: it is handed the connection's receive
//! buffer and either yields a complete [`Request`] (consuming exactly the
//! bytes that form it, so pipelined requests survive in the buffer) or
//! reports that more bytes are needed. Nothing is consumed on
//! `Ok(None)`, which makes the parser restartable after every read.
//!
//! Supported framing (`body_framing`): `Content-Length` bodies,
//! `Transfer-Encoding` whose final coding is `chunked` (with trailers),
//! and body-less requests. Header names are normalized to lowercase; the
//! request target is percent-decoded and its query string parsed.

use crate::error::HttpError;
use bytes::{Buf, Bytes, BytesMut};
use std::fmt;

/// HTTP request methods implemented by the gateway.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// `GET`: read a resource.
    Get,
    /// `POST`: create or submit.
    Post,
    /// `PUT`: replace a resource.
    Put,
    /// `PATCH`: update part of a resource.
    Patch,
    /// `DELETE`: remove a resource.
    Delete,
    /// `HEAD`: a `GET` answered without its body.
    Head,
    /// `OPTIONS`: ask what a resource allows.
    Options,
}

impl Method {
    /// Parses the method token of a request line.
    pub fn from_token(token: &str) -> Result<Method, HttpError> {
        match token {
            "GET" => Ok(Method::Get),
            "POST" => Ok(Method::Post),
            "PUT" => Ok(Method::Put),
            "PATCH" => Ok(Method::Patch),
            "DELETE" => Ok(Method::Delete),
            "HEAD" => Ok(Method::Head),
            "OPTIONS" => Ok(Method::Options),
            other => Err(HttpError::UnsupportedMethod(other.to_string())),
        }
    }

    /// Canonical token.
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Put => "PUT",
            Method::Patch => "PATCH",
            Method::Delete => "DELETE",
            Method::Head => "HEAD",
            Method::Options => "OPTIONS",
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// HTTP protocol versions the layer speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Version {
    /// `HTTP/1.0`: closes after each response unless asked to keep alive.
    Http10,
    /// `HTTP/1.1`: keeps the connection alive unless asked to close.
    Http11,
}

impl Version {
    /// Parses the version token of a request or status line.
    pub fn from_token(token: &str) -> Result<Version, HttpError> {
        match token {
            "HTTP/1.1" => Ok(Version::Http11),
            "HTTP/1.0" => Ok(Version::Http10),
            other => Err(HttpError::UnsupportedVersion(other.to_string())),
        }
    }

    /// Canonical token.
    pub fn as_str(self) -> &'static str {
        match self {
            Version::Http10 => "HTTP/1.0",
            Version::Http11 => "HTTP/1.1",
        }
    }

    /// HTTP/1.1 defaults to persistent connections; 1.0 to close.
    pub fn default_keep_alive(self) -> bool {
        matches!(self, Version::Http11)
    }
}

/// An ordered multimap of headers with lowercase names.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Headers(Vec<(String, String)>);

impl Headers {
    /// No headers.
    pub fn new() -> Self {
        Headers(Vec::new())
    }

    /// Appends a header; the name is lowercased.
    pub fn insert(&mut self, name: &str, value: impl Into<String>) {
        self.0.push((name.to_ascii_lowercase(), value.into()));
    }

    /// First value of `name` (case-insensitive).
    pub fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// All values of `name` (case-insensitive), in insertion order.
    pub fn get_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> {
        self.0
            .iter()
            .filter(move |(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Number of header lines, repeats included.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether there are no headers.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Every `(name, value)` in insertion order, names lowercase.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.0.iter().map(|(n, v)| (n.as_str(), v.as_str()))
    }
}

/// A fully parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The request method.
    pub method: Method,
    /// Percent-decoded path component of the target (no query string).
    pub path: String,
    /// The target exactly as it appeared on the request line.
    pub raw_target: String,
    /// Decoded query parameters in order of appearance.
    pub query: Vec<(String, String)>,
    /// The protocol version of the request line.
    pub version: Version,
    /// The header fields, names lowercase.
    pub headers: Headers,
    /// The body, de-chunked.
    pub body: Bytes,
}

impl Request {
    /// First query parameter named `key`.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection should stay open after this exchange. Every
    /// `Connection` line is a comma-separated token list (RFC 9110
    /// §7.6.1): a `close` token anywhere closes, and `keep-alive` keeps an
    /// HTTP/1.0 connection open.
    pub fn keep_alive(&self) -> bool {
        let mut asked = false;
        for token in self
            .headers
            .get_all("connection")
            .flat_map(|v| v.split(','))
        {
            let token = token.trim();
            if token.eq_ignore_ascii_case("close") {
                return false;
            }
            asked |= token.eq_ignore_ascii_case("keep-alive");
        }
        asked || self.version.default_keep_alive()
    }

    /// Serializes the request into wire format (used by the in-memory
    /// client and by round-trip property tests). Always emits an explicit
    /// `Content-Length`.
    pub fn write_to(&self, out: &mut BytesMut) {
        use std::fmt::Write as _;
        let mut head = String::with_capacity(128);
        let _ = write!(
            head,
            "{} {} {}\r\n",
            self.method,
            if self.raw_target.is_empty() {
                encode_target(&self.path, &self.query)
            } else {
                self.raw_target.clone()
            },
            self.version.as_str()
        );
        let mut wrote_len = false;
        for (n, v) in self.headers.iter() {
            if n == "content-length" {
                wrote_len = true;
                let _ = write!(head, "content-length: {}\r\n", self.body.len());
            } else if n == "transfer-encoding" {
                // The serializer always uses Content-Length framing.
                continue;
            } else {
                let _ = write!(head, "{n}: {v}\r\n");
            }
        }
        if !wrote_len && (!self.body.is_empty() || matches!(self.method, Method::Post | Method::Put | Method::Patch)) {
            let _ = write!(head, "content-length: {}\r\n", self.body.len());
        }
        head.push_str("\r\n");
        out.extend_from_slice(head.as_bytes());
        out.extend_from_slice(&self.body);
    }
}

/// Limits applied while parsing; defaults are generous for a benchmark
/// gateway yet small enough to bound memory per connection.
#[derive(Debug, Clone)]
pub struct ParserConfig {
    /// Maximum size of the request line + headers in bytes.
    pub max_head_bytes: usize,
    /// Maximum number of headers (including chunked trailers).
    pub max_headers: usize,
    /// Maximum body size in bytes after de-chunking.
    pub max_body_bytes: usize,
}

impl Default for ParserConfig {
    fn default() -> Self {
        ParserConfig {
            max_head_bytes: 16 * 1024,
            max_headers: 64,
            max_body_bytes: 1024 * 1024,
        }
    }
}

/// Outcome of one incremental parse step, internal to the crate.
pub(crate) enum Step<T> {
    /// A complete message; `.1` is the total number of bytes it occupied.
    Done(T, usize),
    /// More bytes are required.
    Partial,
}

/// Attempts to parse one request from the front of `buf`.
///
/// On success the request's bytes are consumed from `buf` (pipelined
/// successors remain). Returns `Ok(None)` when the buffer holds only a
/// prefix of a request.
pub fn parse_request(buf: &mut BytesMut, cfg: &ParserConfig) -> Result<Option<Request>, HttpError> {
    match parse_request_inner(&buf[..], cfg)? {
        Step::Done(req, consumed) => {
            buf.advance(consumed);
            Ok(Some(req))
        }
        Step::Partial => Ok(None),
    }
}

fn parse_request_inner(input: &[u8], cfg: &ParserConfig) -> Result<Step<Request>, HttpError> {
    let Some(head_end) = find_head_end(input, cfg.max_head_bytes)? else {
        return Ok(Step::Partial);
    };
    let head = &input[..head_end];
    let mut lines = split_crlf_lines(head);

    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::BadRequestLine("empty head".into()))?;
    let request_line = std::str::from_utf8(request_line)
        .map_err(|_| HttpError::BadRequestLine("non-UTF-8 request line".into()))?;
    let mut parts = request_line.split(' ');
    let method_tok = parts
        .next()
        .filter(|s| !s.is_empty())
        .ok_or_else(|| HttpError::BadRequestLine(request_line.into()))?;
    let target = parts
        .next()
        .filter(|s| !s.is_empty())
        .ok_or_else(|| HttpError::BadRequestLine(request_line.into()))?;
    let version_tok = parts
        .next()
        .ok_or_else(|| HttpError::BadRequestLine(request_line.into()))?;
    if parts.next().is_some() {
        return Err(HttpError::BadRequestLine(format!(
            "extra token after version: {request_line}"
        )));
    }
    validate_method_token(method_tok)?;
    let method = Method::from_token(method_tok)?;
    let version = Version::from_token(version_tok)?;
    if !target.starts_with('/') {
        return Err(HttpError::BadRequestLine(format!(
            "target must be origin-form: {target}"
        )));
    }

    let mut headers = Headers::new();
    parse_header_lines(&mut lines, &mut headers, cfg)?;

    let (path, query) = decode_target(target)?;

    let body_start = head_end + 4;
    let (body, body_len) =
        match read_body(&input[body_start..], body_framing(&headers)?, cfg, &mut headers)? {
            Step::Done(body, n) => (body, n),
            Step::Partial => return Ok(Step::Partial),
        };

    Ok(Step::Done(
        Request {
            method,
            path,
            raw_target: target.to_string(),
            query,
            version,
            headers,
            body,
        },
        body_start + body_len,
    ))
}

/// How the body after a message head is delimited (RFC 9112 §6.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Framing {
    /// The final transfer coding is `chunked`.
    Chunked,
    /// `Content-Length` bytes.
    Length(usize),
    /// No framing header: no body.
    Empty,
}

/// The framing `headers` declare. `Transfer-Encoding` is a list of
/// codings over all its lines, read case-insensitively: a final
/// `chunked` frames a chunked body, and any other non-empty list is
/// `BadFraming` (a 400, RFC 9112 §6.3 rule 4), as is a chunked body
/// that also carries a `Content-Length` (a smuggling vector).
pub(crate) fn body_framing(headers: &Headers) -> Result<Framing, HttpError> {
    let last_coding = headers
        .get_all("transfer-encoding")
        .flat_map(|v| v.split(','))
        .map(str::trim)
        .filter(|coding| !coding.is_empty())
        .last();
    match last_coding {
        None => Ok(parse_content_length(headers)?.map_or(Framing::Empty, Framing::Length)),
        Some(coding) if !coding.eq_ignore_ascii_case("chunked") => Err(HttpError::BadFraming(
            format!("final transfer coding {coding:?} is not chunked"),
        )),
        Some(_) if headers.get("content-length").is_some() => Err(HttpError::BadFraming(
            "both Transfer-Encoding and Content-Length present".into(),
        )),
        Some(_) => Ok(Framing::Chunked),
    }
}

/// Reads the body `framing` delimits from `input`, the bytes after the
/// head; `Done` carries the body and the bytes it took. Chunked
/// trailers are appended to `headers`.
pub(crate) fn read_body(
    input: &[u8],
    framing: Framing,
    cfg: &ParserConfig,
    headers: &mut Headers,
) -> Result<Step<Bytes>, HttpError> {
    match framing {
        Framing::Chunked => decode_chunked(input, cfg, headers),
        Framing::Length(len) if len > cfg.max_body_bytes => Err(HttpError::BodyTooLarge {
            limit: cfg.max_body_bytes,
        }),
        Framing::Length(len) if input.len() < len => Ok(Step::Partial),
        Framing::Length(len) => Ok(Step::Done(Bytes::copy_from_slice(&input[..len]), len)),
        Framing::Empty => Ok(Step::Done(Bytes::new(), 0)),
    }
}

/// Finds the end of the message head (`\r\n\r\n`), enforcing the size cap.
pub(crate) fn find_head_end(input: &[u8], max_head: usize) -> Result<Option<usize>, HttpError> {
    let window = &input[..input.len().min(max_head + 4)];
    if let Some(pos) = find_subsequence(window, b"\r\n\r\n") {
        if pos > max_head {
            return Err(HttpError::HeadTooLarge { limit: max_head });
        }
        return Ok(Some(pos));
    }
    if input.len() > max_head + 4 {
        return Err(HttpError::HeadTooLarge { limit: max_head });
    }
    Ok(None)
}

pub(crate) fn find_subsequence(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack
        .windows(needle.len())
        .position(|window| window == needle)
}

/// Iterates `\r\n`-separated lines of a message head.
pub(crate) fn split_crlf_lines(head: &[u8]) -> impl Iterator<Item = &[u8]> {
    head.split_inclusive_2crlf()
}

// A tiny extension trait so the line splitter reads naturally above while
// handling the detail that `slice::split` on a two-byte separator does not
// exist in std.
trait SplitCrlf {
    fn split_inclusive_2crlf(&self) -> CrlfLines<'_>;
}

impl SplitCrlf for [u8] {
    fn split_inclusive_2crlf(&self) -> CrlfLines<'_> {
        CrlfLines { rest: self }
    }
}

pub(crate) struct CrlfLines<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for CrlfLines<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if self.rest.is_empty() {
            return None;
        }
        match find_subsequence(self.rest, b"\r\n") {
            Some(pos) => {
                let line = &self.rest[..pos];
                self.rest = &self.rest[pos + 2..];
                Some(line)
            }
            None => {
                let line = self.rest;
                self.rest = &[];
                Some(line)
            }
        }
    }
}

/// Parses `name: value` lines into `headers`.
pub(crate) fn parse_header_lines<'a>(
    lines: &mut impl Iterator<Item = &'a [u8]>,
    headers: &mut Headers,
    cfg: &ParserConfig,
) -> Result<(), HttpError> {
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let line = std::str::from_utf8(line)
            .map_err(|_| HttpError::BadHeader("non-UTF-8 header".into()))?;
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::BadHeader(format!("missing colon: {line}")))?;
        if name.is_empty() || name.contains(' ') || name.contains('\t') {
            return Err(HttpError::BadHeader(format!("invalid field name: {name:?}")));
        }
        if headers.len() >= cfg.max_headers {
            return Err(HttpError::TooManyHeaders {
                limit: cfg.max_headers,
            });
        }
        headers.insert(name, value.trim().to_string());
    }
    Ok(())
}

fn validate_method_token(token: &str) -> Result<(), HttpError> {
    if token.is_empty()
        || !token
            .bytes()
            .all(|b| b.is_ascii_uppercase() || b == b'-')
    {
        return Err(HttpError::BadRequestLine(format!(
            "invalid method token: {token:?}"
        )));
    }
    Ok(())
}

/// Parses the (possibly repeated but identical) `Content-Length` values
/// of `headers`; `None` when there is none.
fn parse_content_length(headers: &Headers) -> Result<Option<usize>, HttpError> {
    let mut values = headers.get_all("content-length").map(str::trim);
    let Some(first) = values.next() else {
        return Ok(None);
    };
    if values.any(|v| v != first) {
        return Err(HttpError::BadFraming(
            "conflicting Content-Length values".into(),
        ));
    }
    first
        .parse::<usize>()
        .map(Some)
        .map_err(|_| HttpError::BadFraming(format!("unparsable Content-Length: {first:?}")))
}

/// Decodes a chunked body starting at `input[0]`.
///
/// Returns the assembled body and the number of raw bytes consumed
/// (including the terminating chunk and trailer section). Trailer headers
/// are appended to `headers`.
fn decode_chunked(
    input: &[u8],
    cfg: &ParserConfig,
    headers: &mut Headers,
) -> Result<Step<Bytes>, HttpError> {
    let mut pos = 0usize;
    let mut body = BytesMut::new();
    loop {
        let Some(line_end) = find_subsequence(&input[pos..], b"\r\n") else {
            return Ok(Step::Partial);
        };
        let size_line = std::str::from_utf8(&input[pos..pos + line_end])
            .map_err(|_| HttpError::BadChunk("non-UTF-8 chunk size".into()))?;
        // Chunk extensions (";ext=val") are legal; ignore them.
        let size_tok = size_line.split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_tok, 16)
            .map_err(|_| HttpError::BadChunk(format!("bad chunk size {size_tok:?}")))?;
        pos += line_end + 2;
        if size == 0 {
            // Trailer section: zero or more header lines, then CRLF.
            let Some(trailer_end) = find_subsequence(&input[pos..], b"\r\n") else {
                return Ok(Step::Partial);
            };
            if trailer_end == 0 {
                // No trailers.
                return Ok(Step::Done(body.freeze(), pos + 2));
            }
            // There are trailers: find the blank line terminating them.
            let Some(all_end) = find_subsequence(&input[pos..], b"\r\n\r\n") else {
                return Ok(Step::Partial);
            };
            let trailer_block = &input[pos..pos + all_end];
            let mut lines = split_crlf_lines(trailer_block);
            parse_header_lines(&mut lines, headers, cfg)?;
            return Ok(Step::Done(body.freeze(), pos + all_end + 4));
        }
        if body.len() + size > cfg.max_body_bytes {
            return Err(HttpError::BodyTooLarge {
                limit: cfg.max_body_bytes,
            });
        }
        if input.len() < pos + size + 2 {
            return Ok(Step::Partial);
        }
        body.extend_from_slice(&input[pos..pos + size]);
        if &input[pos + size..pos + size + 2] != b"\r\n" {
            return Err(HttpError::BadChunk("chunk data not CRLF-terminated".into()));
        }
        pos += size + 2;
    }
}

/// Splits a request target into a decoded path and query parameters.
pub(crate) fn decode_target(target: &str) -> Result<(String, Vec<(String, String)>), HttpError> {
    let (path_raw, query_raw) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path = percent_decode(path_raw, false)?;
    let mut query = Vec::new();
    if let Some(q) = query_raw {
        for pair in q.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = match pair.split_once('=') {
                Some((k, v)) => (k, v),
                None => (pair, ""),
            };
            query.push((percent_decode(k, true)?, percent_decode(v, true)?));
        }
    }
    Ok((path, query))
}

/// Percent-decodes `input`; in query context `+` decodes to space.
pub(crate) fn percent_decode(input: &str, plus_is_space: bool) -> Result<String, HttpError> {
    let bytes = input.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                if i + 2 >= bytes.len() {
                    return Err(HttpError::BadPercentEncoding(input.to_string()));
                }
                let hi = hex_val(bytes[i + 1]);
                let lo = hex_val(bytes[i + 2]);
                match (hi, lo) {
                    (Some(h), Some(l)) => out.push(h * 16 + l),
                    _ => return Err(HttpError::BadPercentEncoding(input.to_string())),
                }
                i += 3;
            }
            b'+' if plus_is_space => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| HttpError::BadPercentEncoding(input.to_string()))
}

/// Percent-encodes a path + query back into a request target.
pub(crate) fn encode_target(path: &str, query: &[(String, String)]) -> String {
    fn enc(s: &str, out: &mut String, is_query: bool) {
        for &b in s.as_bytes() {
            let safe = b.is_ascii_alphanumeric()
                || matches!(b, b'-' | b'_' | b'.' | b'~')
                || (b == b'/' && !is_query);
            if safe {
                out.push(b as char);
            } else {
                out.push('%');
                out.push(char::from_digit((b >> 4) as u32, 16).unwrap().to_ascii_uppercase());
                out.push(char::from_digit((b & 0xf) as u32, 16).unwrap().to_ascii_uppercase());
            }
        }
    }
    let mut target = String::new();
    enc(path, &mut target, false);
    if target.is_empty() {
        target.push('/');
    }
    if !query.is_empty() {
        target.push('?');
        for (i, (k, v)) in query.iter().enumerate() {
            if i > 0 {
                target.push('&');
            }
            enc(k, &mut target, true);
            target.push('=');
            enc(v, &mut target, true);
        }
    }
    target
}

fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// `Transfer-Encoding` lines and whether the body behind them
    /// decodes as chunked; every other list must be `BadFraming` (RFC
    /// 9112 §6.3 rule 4), not a body-less message whose body bytes parse
    /// as the next one. The response parser runs the same table.
    pub(crate) const TRANSFER_CODINGS: [(&[&str], bool); 6] = [
        (&["chunked, gzip"], false),
        (&["gzip"], false),
        (&["xchunked"], false),
        (&["gzip, chunked"], true),
        (&["Chunked"], true),
        (&["gzip", "chunked"], true),
    ];

    /// A message head (`start`), its `transfer-encoding` lines and the
    /// chunked body `hi`.
    pub(crate) fn with_codings(start: &str, codings: &[&str]) -> BytesMut {
        let mut wire = format!("{start}\r\n");
        for coding in codings {
            wire.push_str(&format!("transfer-encoding: {coding}\r\n"));
        }
        wire.push_str("\r\n2\r\nhi\r\n0\r\n\r\n");
        BytesMut::from(wire.as_bytes())
    }

    fn parse_str(s: &str) -> Result<Option<Request>, HttpError> {
        let mut buf = BytesMut::from(s.as_bytes());
        parse_request(&mut buf, &ParserConfig::default())
    }

    #[test]
    fn parses_minimal_get() {
        let req = parse_str("GET /sellers/1/dashboard HTTP/1.1\r\nhost: om\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.path, "/sellers/1/dashboard");
        assert!(req.query.is_empty());
        assert_eq!(req.headers.get("Host"), Some("om"));
        assert!(req.body.is_empty());
        assert!(req.keep_alive());
    }

    #[test]
    fn parses_content_length_body_and_preserves_pipeline() {
        let wire = "POST /checkout HTTP/1.1\r\ncontent-length: 4\r\n\r\nabcdGET / HTTP/1.1\r\n\r\n";
        let mut buf = BytesMut::from(wire.as_bytes());
        let cfg = ParserConfig::default();
        let first = parse_request(&mut buf, &cfg).unwrap().unwrap();
        assert_eq!(&first.body[..], b"abcd");
        let second = parse_request(&mut buf, &cfg).unwrap().unwrap();
        assert_eq!(second.method, Method::Get);
        assert_eq!(second.path, "/");
        assert!(buf.is_empty());
    }

    #[test]
    fn partial_head_returns_none_and_consumes_nothing() {
        let mut buf = BytesMut::from(&b"GET /x HTTP/1.1\r\nhost: a"[..]);
        let before = buf.len();
        assert!(parse_request(&mut buf, &ParserConfig::default())
            .unwrap()
            .is_none());
        assert_eq!(buf.len(), before);
    }

    #[test]
    fn partial_body_returns_none() {
        let mut buf = BytesMut::from(&b"POST /x HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc"[..]);
        assert!(parse_request(&mut buf, &ParserConfig::default())
            .unwrap()
            .is_none());
        assert_eq!(&buf[..4], b"POST", "nothing consumed");
    }

    #[test]
    fn rejects_bad_method_and_version() {
        assert!(matches!(
            parse_str("BREW /x HTTP/1.1\r\n\r\n"),
            Err(HttpError::UnsupportedMethod(_))
        ));
        assert!(matches!(
            parse_str("GET /x HTTP/2\r\n\r\n"),
            Err(HttpError::UnsupportedVersion(_))
        ));
        assert!(matches!(
            parse_str("get /x HTTP/1.1\r\n\r\n"),
            Err(HttpError::BadRequestLine(_))
        ));
    }

    #[test]
    fn rejects_non_origin_form_target() {
        assert!(matches!(
            parse_str("GET http://evil/ HTTP/1.1\r\n\r\n"),
            Err(HttpError::BadRequestLine(_))
        ));
    }

    #[test]
    fn rejects_conflicting_content_lengths() {
        let e = parse_str("POST /x HTTP/1.1\r\ncontent-length: 3\r\ncontent-length: 4\r\n\r\nabc");
        assert!(matches!(e, Err(HttpError::BadFraming(_))));
    }

    #[test]
    fn accepts_repeated_identical_content_length() {
        let r = parse_str("POST /x HTTP/1.1\r\ncontent-length: 3\r\ncontent-length: 3\r\n\r\nabc")
            .unwrap()
            .unwrap();
        assert_eq!(&r.body[..], b"abc");
    }

    #[test]
    fn rejects_te_plus_content_length_smuggling() {
        let e = parse_str(
            "POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\ncontent-length: 3\r\n\r\n0\r\n\r\n",
        );
        assert!(matches!(e, Err(HttpError::BadFraming(_))));
    }

    #[test]
    fn decodes_chunked_body() {
        let r = parse_str(
            "POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n4\r\nWiki\r\n5\r\npedia\r\n0\r\n\r\n",
        )
        .unwrap()
        .unwrap();
        assert_eq!(&r.body[..], b"Wikipedia");
    }

    #[test]
    fn decodes_chunked_with_extensions_and_trailers() {
        let r = parse_str(
            "POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n3;x=y\r\nabc\r\n0\r\nx-sum: 1\r\n\r\n",
        )
        .unwrap()
        .unwrap();
        assert_eq!(&r.body[..], b"abc");
        assert_eq!(r.headers.get("x-sum"), Some("1"));
    }

    #[test]
    fn only_a_final_chunked_coding_frames_a_body() {
        for (codings, chunked) in TRANSFER_CODINGS {
            let mut wire = with_codings("POST /x HTTP/1.1", codings);
            match parse_request(&mut wire, &ParserConfig::default()) {
                Ok(Some(r)) if chunked => assert_eq!(&r.body[..], b"hi", "{codings:?}"),
                Err(HttpError::BadFraming(_)) if !chunked => {}
                other => panic!("{codings:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn chunked_partial_returns_none() {
        let mut buf =
            BytesMut::from(&b"POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n4\r\nWi"[..]);
        assert!(parse_request(&mut buf, &ParserConfig::default())
            .unwrap()
            .is_none());
    }

    #[test]
    fn enforces_head_size_limit() {
        let cfg = ParserConfig {
            max_head_bytes: 32,
            ..Default::default()
        };
        let mut buf = BytesMut::from(
            format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(64)).as_bytes(),
        );
        assert!(matches!(
            parse_request(&mut buf, &cfg),
            Err(HttpError::HeadTooLarge { .. })
        ));
    }

    #[test]
    fn enforces_body_size_limit() {
        let cfg = ParserConfig {
            max_body_bytes: 8,
            ..Default::default()
        };
        let mut buf =
            BytesMut::from(&b"POST /x HTTP/1.1\r\ncontent-length: 100\r\n\r\n"[..]);
        assert!(matches!(
            parse_request(&mut buf, &cfg),
            Err(HttpError::BodyTooLarge { .. })
        ));
    }

    #[test]
    fn enforces_header_count_limit() {
        let cfg = ParserConfig {
            max_headers: 2,
            ..Default::default()
        };
        let mut buf = BytesMut::from(
            &b"GET /x HTTP/1.1\r\na: 1\r\nb: 2\r\nc: 3\r\n\r\n"[..],
        );
        assert!(matches!(
            parse_request(&mut buf, &cfg),
            Err(HttpError::TooManyHeaders { .. })
        ));
    }

    #[test]
    fn decodes_percent_encoding_and_query() {
        let r = parse_str("GET /products/a%20b?name=caf%C3%A9&flag&x=1+2 HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(r.path, "/products/a b");
        assert_eq!(r.query_param("name"), Some("café"));
        assert_eq!(r.query_param("flag"), Some(""));
        assert_eq!(r.query_param("x"), Some("1 2"));
    }

    #[test]
    fn rejects_invalid_percent_encoding() {
        assert!(matches!(
            parse_str("GET /a%zz HTTP/1.1\r\n\r\n"),
            Err(HttpError::BadPercentEncoding(_))
        ));
        assert!(matches!(
            parse_str("GET /a%2 HTTP/1.1\r\n\r\n"),
            Err(HttpError::BadPercentEncoding(_))
        ));
    }

    #[test]
    fn connection_close_overrides_default() {
        for (head, keep_alive) in [
            ("GET / HTTP/1.1\r\nconnection: close\r\n", false),
            ("GET / HTTP/1.0\r\n", false),
            ("GET / HTTP/1.0\r\nconnection: keep-alive\r\n", true),
            // `Connection` is a token list, and `close` anywhere wins.
            ("GET / HTTP/1.1\r\nconnection: keep-alive, close\r\n", false),
            ("GET / HTTP/1.1\r\nConnection: TE, close\r\n", false),
            ("GET / HTTP/1.1\r\nconnection: te\r\nconnection: Close\r\n", false),
            ("GET / HTTP/1.0\r\nConnection: Keep-Alive, TE\r\n", true),
        ] {
            let r = parse_str(&format!("{head}\r\n")).unwrap().unwrap();
            assert_eq!(r.keep_alive(), keep_alive, "{head:?}");
        }
    }

    #[test]
    fn header_lookup_is_case_insensitive_and_multivalued() {
        let r = parse_str("GET / HTTP/1.1\r\nX-Tag: a\r\nx-tag: b\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(r.headers.get("X-TAG"), Some("a"));
        let all: Vec<_> = r.headers.get_all("x-tag").collect();
        assert_eq!(all, vec!["a", "b"]);
        let all: Vec<_> = r.headers.get_all("x-Tag").collect();
        assert_eq!(all, vec!["a", "b"]);
    }

    #[test]
    fn write_to_then_parse_roundtrips() {
        let mut headers = Headers::new();
        headers.insert("x-req-id", "42");
        let req = Request {
            method: Method::Post,
            path: "/customers/7/checkout".into(),
            raw_target: String::new(),
            query: vec![("dry".into(), "1".into())],
            version: Version::Http11,
            headers,
            body: Bytes::from_static(b"{\"k\":1}"),
        };
        let mut wire = BytesMut::new();
        req.write_to(&mut wire);
        let back = parse_request(&mut wire, &ParserConfig::default())
            .unwrap()
            .unwrap();
        assert_eq!(back.method, Method::Post);
        assert_eq!(back.path, req.path);
        assert_eq!(back.query, req.query);
        assert_eq!(back.body, req.body);
        assert_eq!(back.headers.get("x-req-id"), Some("42"));
    }
}
