//! HTTP response construction, serialization, and (client-side) parsing.

use crate::error::HttpError;
use crate::request::{
    body_framing, find_head_end, parse_header_lines, read_body, split_crlf_lines, Framing,
    Headers, ParserConfig, Step, Version,
};
use bytes::{Buf, Bytes, BytesMut};
use serde::Serialize;

/// An HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The protocol version of the status line.
    pub version: Version,
    /// The status code.
    pub status: u16,
    /// The reason phrase of the status line.
    pub reason: String,
    /// The header fields, names lowercase; framing headers are the
    /// writer's to set.
    pub headers: Headers,
    /// The body.
    pub body: Bytes,
}

impl Response {
    /// Starts a response with the canonical reason phrase for `status`.
    pub fn new(status: u16) -> Self {
        Response {
            version: Version::Http11,
            status,
            reason: reason_phrase(status).to_string(),
            headers: Headers::new(),
            body: Bytes::new(),
        }
    }

    /// A response whose body is the JSON encoding of `value`.
    pub fn json<T: Serialize>(status: u16, value: &T) -> Self {
        Response::json_encoded(status, json_bytes(value))
    }

    /// A response whose body is `body`, JSON text already encoded.
    pub fn json_encoded(status: u16, body: impl Into<Bytes>) -> Self {
        let mut resp = Response::new(status);
        resp.headers.insert("content-type", "application/json");
        resp.body = body.into();
        resp
    }

    /// A plain-text response (used for errors).
    pub fn text(status: u16, message: impl Into<String>) -> Self {
        let mut resp = Response::new(status);
        resp.headers
            .insert("content-type", "text/plain; charset=utf-8");
        resp.body = Bytes::from(message.into());
        resp
    }

    /// An empty-bodied response.
    pub fn empty(status: u16) -> Self {
        Response::new(status)
    }

    /// Adds a header (builder style).
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Self {
        self.headers.insert(name, value);
        self
    }

    /// Whether the status is 2xx.
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// Deserializes the JSON body.
    pub fn json_body<T: serde::de::DeserializeOwned>(&self) -> Result<T, serde_json::Error> {
        serde_json::from_slice(&self.body)
    }

    /// Serializes the response into wire format with explicit
    /// `Content-Length` framing.
    pub fn write_to(&self, out: &mut BytesMut) {
        self.write_head_lines(out);
        out.extend_from_slice(&self.body);
    }

    /// Serializes the response to a HEAD request: identical status line
    /// and headers — including the *entity's* `content-length`, per RFC
    /// 9110 §9.3.2 — but no body bytes on the wire.
    pub fn write_head_to(&self, out: &mut BytesMut) {
        self.write_head_lines(out);
    }

    /// Status line + headers + blank line, with `content-length` set to
    /// the entity length (shared by GET and HEAD serialization, which is
    /// exactly what gives the two header parity).
    fn write_head_lines(&self, out: &mut BytesMut) {
        use std::fmt::Write as _;
        let mut head = String::with_capacity(96);
        let _ = write!(
            head,
            "{} {} {}\r\n",
            self.version.as_str(),
            self.status,
            self.reason
        );
        for (n, v) in self.headers.iter() {
            if n == "content-length" || n == "transfer-encoding" {
                continue; // framing is ours to decide
            }
            let _ = write!(head, "{n}: {v}\r\n");
        }
        let _ = write!(head, "content-length: {}\r\n\r\n", self.body.len());
        out.extend_from_slice(head.as_bytes());
    }
}

/// The JSON encoding of `value` as a message body — the one place a body
/// is encoded: the serializer writes into the buffer that `Bytes` then
/// takes over, so the text exists once.
pub(crate) fn json_bytes<T: Serialize + ?Sized>(value: &T) -> Bytes {
    Bytes::from(serde_json::to_vec(value).expect("serializable JSON body"))
}

/// Attempts to parse one response from the front of `buf` (client side).
///
/// Same incremental contract as
/// [`parse_request`](crate::request::parse_request).
pub fn parse_response(
    buf: &mut BytesMut,
    cfg: &ParserConfig,
) -> Result<Option<Response>, HttpError> {
    match parse_response_inner(&buf[..], cfg, true)? {
        Step::Done(resp, consumed) => {
            buf.advance(consumed);
            Ok(Some(resp))
        }
        Step::Partial => Ok(None),
    }
}

/// Parses a response to a **HEAD** request: `content-length` describes
/// the entity the server *would* have sent, but no body bytes follow on
/// the wire (RFC 9110 §9.3.2), so only the head is consumed and the
/// returned body is always empty.
pub fn parse_head_response(
    buf: &mut BytesMut,
    cfg: &ParserConfig,
) -> Result<Option<Response>, HttpError> {
    match parse_response_inner(&buf[..], cfg, false)? {
        Step::Done(resp, consumed) => {
            buf.advance(consumed);
            Ok(Some(resp))
        }
        Step::Partial => Ok(None),
    }
}

fn parse_response_inner(
    input: &[u8],
    cfg: &ParserConfig,
    body_follows: bool,
) -> Result<Step<Response>, HttpError> {
    let Some(head_end) = find_head_end(input, cfg.max_head_bytes)? else {
        return Ok(Step::Partial);
    };
    let head = &input[..head_end];
    let mut lines = split_crlf_lines(head);

    let status_line = lines
        .next()
        .ok_or_else(|| HttpError::BadRequestLine("empty response head".into()))?;
    let status_line = std::str::from_utf8(status_line)
        .map_err(|_| HttpError::BadRequestLine("non-UTF-8 status line".into()))?;
    let mut parts = status_line.splitn(3, ' ');
    let version = Version::from_token(
        parts
            .next()
            .ok_or_else(|| HttpError::BadRequestLine(status_line.into()))?,
    )?;
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .filter(|s| (100..600).contains(s))
        .ok_or_else(|| HttpError::BadRequestLine(format!("bad status: {status_line}")))?;
    let reason = parts.next().unwrap_or("").to_string();

    let mut headers = Headers::new();
    parse_header_lines(&mut lines, &mut headers, cfg)?;

    let body_start = head_end + 4;
    // A HEAD response's framing headers describe the entity; the wire
    // carries no body bytes. Our in-memory server always frames with
    // Content-Length, so a message with neither header has an empty
    // body rather than one read to close.
    let framing = if body_follows {
        body_framing(&headers)?
    } else {
        Framing::Empty
    };
    let (body, body_len) = match read_body(&input[body_start..], framing, cfg, &mut headers)? {
        Step::Done(body, n) => (body, n),
        Step::Partial => return Ok(Step::Partial),
    };

    Ok(Step::Done(
        Response {
            version,
            status,
            reason,
            headers,
            body,
        },
        body_start + body_len,
    ))
}

/// Canonical reason phrases for the status codes the gateway emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        204 => "No Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_roundtrip() {
        let resp = Response::json(200, &serde_json::json!({"ok": true}))
            .with_header("x-trace", "7");
        let mut wire = BytesMut::new();
        resp.write_to(&mut wire);
        let back = parse_response(&mut wire, &ParserConfig::default())
            .unwrap()
            .unwrap();
        assert_eq!(back.status, 200);
        assert_eq!(back.reason, "OK");
        assert_eq!(back.headers.get("content-type"), Some("application/json"));
        assert_eq!(back.headers.get("x-trace"), Some("7"));
        let v: serde_json::Value = back.json_body().unwrap();
        assert_eq!(v["ok"], true);
        assert!(wire.is_empty());
    }

    #[test]
    fn parses_chunked_response() {
        let wire = "HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n2\r\nhi\r\n0\r\n\r\n";
        let mut buf = BytesMut::from(wire.as_bytes());
        let resp = parse_response(&mut buf, &ParserConfig::default())
            .unwrap()
            .unwrap();
        assert_eq!(&resp.body[..], b"hi");
    }

    #[test]
    fn response_framing_runs_the_request_table() {
        use crate::request::tests::{with_codings, TRANSFER_CODINGS};
        for (codings, chunked) in TRANSFER_CODINGS {
            let mut wire = with_codings("HTTP/1.1 200 OK", codings);
            match parse_response(&mut wire, &ParserConfig::default()) {
                Ok(Some(r)) if chunked => assert_eq!(&r.body[..], b"hi", "{codings:?}"),
                Err(HttpError::BadFraming(_)) if !chunked => {}
                other => panic!("{codings:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn partial_response_returns_none() {
        let mut buf = BytesMut::from(&b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\nab"[..]);
        assert!(parse_response(&mut buf, &ParserConfig::default())
            .unwrap()
            .is_none());
    }

    #[test]
    fn rejects_garbage_status() {
        let mut buf = BytesMut::from(&b"HTTP/1.1 two OK\r\n\r\n"[..]);
        assert!(parse_response(&mut buf, &ParserConfig::default()).is_err());
        let mut buf = BytesMut::from(&b"HTTP/1.1 999999 OK\r\n\r\n"[..]);
        assert!(parse_response(&mut buf, &ParserConfig::default()).is_err());
    }

    #[test]
    fn reason_phrases_cover_gateway_statuses() {
        for s in [200, 201, 202, 204, 400, 404, 405, 408, 409, 413, 422, 431, 500, 501, 503, 505] {
            assert_ne!(reason_phrase(s), "Unknown", "status {s} needs a phrase");
        }
        assert_eq!(reason_phrase(599), "Unknown");
    }

    #[test]
    fn head_serialization_keeps_entity_content_length() {
        let resp = Response::text(200, "hello world").with_header("x-trace", "9");
        let mut get_wire = BytesMut::new();
        resp.write_to(&mut get_wire);
        let mut head_wire = BytesMut::new();
        resp.write_head_to(&mut head_wire);
        // The HEAD wire is exactly the GET wire minus the body bytes.
        assert_eq!(&get_wire[..head_wire.len()], &head_wire[..]);
        assert_eq!(get_wire.len(), head_wire.len() + resp.body.len());
        let head = std::str::from_utf8(&head_wire).unwrap();
        assert!(
            head.contains("content-length: 11\r\n"),
            "HEAD must advertise the entity length, got:\n{head}"
        );
        let parsed = parse_head_response(&mut head_wire, &ParserConfig::default())
            .unwrap()
            .unwrap();
        assert!(parsed.body.is_empty());
        assert_eq!(parsed.headers.get("content-length"), Some("11"));
        assert!(head_wire.is_empty(), "head fully consumed");
    }

    #[test]
    fn head_parse_does_not_eat_following_response() {
        // A HEAD response immediately followed by a pipelined GET
        // response: the HEAD parse must stop at its blank line.
        let mut buf = BytesMut::from(
            &b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\nHTTP/1.1 204 No Content\r\ncontent-length: 0\r\n\r\n"[..],
        );
        let cfg = ParserConfig::default();
        let head = parse_head_response(&mut buf, &cfg).unwrap().unwrap();
        assert_eq!(head.status, 200);
        assert!(head.body.is_empty());
        let next = parse_response(&mut buf, &cfg).unwrap().unwrap();
        assert_eq!(next.status, 204);
        assert!(buf.is_empty());
    }

    #[test]
    fn is_success_bounds() {
        assert!(Response::new(200).is_success());
        assert!(Response::new(299).is_success());
        assert!(!Response::new(199).is_success());
        assert!(!Response::new(300).is_success());
    }
}
