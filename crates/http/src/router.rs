//! Path-pattern routing.
//!
//! Routes are declared with literal and `{param}` segments, e.g.
//! `"/customers/{customer}/checkout"`. Matching extracts the parameter
//! values positionally; the router is generic over the endpoint type it
//! resolves to, so the gateway can keep its endpoints as a plain enum.

use crate::request::Method;
use std::collections::BTreeSet;
use std::fmt;

/// One segment of a route pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Segment {
    Literal(String),
    Param(String),
}

/// A parsed route pattern.
#[derive(Debug, Clone)]
struct Route<E> {
    method: Method,
    segments: Vec<Segment>,
    endpoint: E,
}

/// Parameters captured while matching a path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PathParams(Vec<(String, String)>);

impl PathParams {
    /// The captured value of `{name}`.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.0.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// Parses the captured value of `{name}` as a `u64` id.
    pub fn id(&self, name: &str) -> Result<u64, RouteError> {
        let raw = self
            .get(name)
            .ok_or_else(|| RouteError::MissingParam(name.to_string()))?;
        raw.parse()
            .map_err(|_| RouteError::BadParam(name.to_string(), raw.to_string()))
    }

    /// Number of captured parameters.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the matched pattern captured nothing.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Routing failures, distinguished so the gateway can answer 404 vs 405.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// No route matches the path at all.
    NotFound,
    /// The path exists, but not with this method. Carries the allowed
    /// methods for the `Allow` header.
    MethodNotAllowed(Vec<Method>),
    /// A `{param}` the handler needs was not captured (programming error).
    MissingParam(String),
    /// A captured parameter failed to parse (e.g. non-numeric id).
    BadParam(String, String),
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::NotFound => write!(f, "no matching route"),
            RouteError::MethodNotAllowed(allowed) => {
                write!(f, "method not allowed; allowed: ")?;
                for (i, m) in allowed.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{m}")?;
                }
                Ok(())
            }
            RouteError::MissingParam(p) => write!(f, "missing path parameter {{{p}}}"),
            RouteError::BadParam(p, v) => write!(f, "bad path parameter {{{p}}}: {v:?}"),
        }
    }
}

impl std::error::Error for RouteError {}

/// A method+pattern → endpoint table.
#[derive(Debug, Clone)]
pub struct Router<E> {
    routes: Vec<Route<E>>,
}

impl<E: Clone> Router<E> {
    /// A router with no routes.
    pub fn new() -> Self {
        Router { routes: Vec::new() }
    }

    /// Registers `pattern` for `method`.
    ///
    /// # Panics
    /// On malformed patterns (not starting with `/`, empty segment,
    /// unclosed `{`) or a duplicate method+pattern registration — both are
    /// construction-time programming errors.
    pub fn route(mut self, method: Method, pattern: &str, endpoint: E) -> Self {
        let segments = parse_pattern(pattern);
        let shape: Vec<_> = segments
            .iter()
            .map(|s| match s {
                Segment::Literal(l) => format!("L:{l}"),
                Segment::Param(_) => "P".to_string(),
            })
            .collect();
        for existing in &self.routes {
            let existing_shape: Vec<_> = existing
                .segments
                .iter()
                .map(|s| match s {
                    Segment::Literal(l) => format!("L:{l}"),
                    Segment::Param(_) => "P".to_string(),
                })
                .collect();
            assert!(
                !(existing.method == method && existing_shape == shape),
                "duplicate route: {method} {pattern}"
            );
        }
        self.routes.push(Route {
            method,
            segments,
            endpoint,
        });
        self
    }

    /// Resolves `method path` to an endpoint and its captured parameters.
    pub fn resolve(&self, method: Method, path: &str) -> Result<(E, PathParams), RouteError> {
        let segments: Vec<&str> = split_path(path);
        let mut allowed: BTreeSet<&'static str> = BTreeSet::new();
        let mut allowed_methods: Vec<Method> = Vec::new();
        for route in &self.routes {
            if let Some(params) = match_segments(&route.segments, &segments) {
                if route.method == method {
                    return Ok((route.endpoint.clone(), params));
                }
                if allowed.insert(route.method.as_str()) {
                    allowed_methods.push(route.method);
                }
            }
        }
        if allowed_methods.is_empty() {
            Err(RouteError::NotFound)
        } else {
            Err(RouteError::MethodNotAllowed(allowed_methods))
        }
    }
}

impl<E: Clone> Default for Router<E> {
    fn default() -> Self {
        Self::new()
    }
}

fn parse_pattern(pattern: &str) -> Vec<Segment> {
    assert!(
        pattern.starts_with('/'),
        "route pattern must start with '/': {pattern}"
    );
    split_path(pattern)
        .into_iter()
        .map(|seg| {
            if let Some(inner) = seg.strip_prefix('{') {
                let name = inner
                    .strip_suffix('}')
                    .unwrap_or_else(|| panic!("unclosed param in pattern {pattern}"));
                assert!(!name.is_empty(), "empty param name in pattern {pattern}");
                Segment::Param(name.to_string())
            } else {
                assert!(!seg.is_empty(), "empty segment in pattern {pattern}");
                Segment::Literal(seg.to_string())
            }
        })
        .collect()
}

/// Splits a path into segments, ignoring a single trailing slash.
fn split_path(path: &str) -> Vec<&str> {
    path.trim_start_matches('/')
        .trim_end_matches('/')
        .split('/')
        .filter(|s| !s.is_empty())
        .collect()
}

fn match_segments(pattern: &[Segment], path: &[&str]) -> Option<PathParams> {
    if pattern.len() != path.len() {
        return None;
    }
    let mut params = PathParams::default();
    for (seg, &actual) in pattern.iter().zip(path) {
        match seg {
            Segment::Literal(lit) => {
                if lit != actual {
                    return None;
                }
            }
            Segment::Param(name) => params.0.push((name.clone(), actual.to_string())),
        }
    }
    Some(params)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Ep {
        Dash,
        Checkout,
        Price,
        Root,
    }

    fn router() -> Router<Ep> {
        Router::new()
            .route(Method::Get, "/sellers/{seller}/dashboard", Ep::Dash)
            .route(Method::Post, "/customers/{customer}/checkout", Ep::Checkout)
            .route(
                Method::Patch,
                "/products/{seller}/{product}/price",
                Ep::Price,
            )
            .route(Method::Get, "/", Ep::Root)
    }

    #[test]
    fn resolves_literal_and_params() {
        let r = router();
        let (ep, params) = r.resolve(Method::Get, "/sellers/42/dashboard").unwrap();
        assert_eq!(ep, Ep::Dash);
        assert_eq!(params.id("seller").unwrap(), 42);

        let (ep, params) = r
            .resolve(Method::Patch, "/products/1/99/price")
            .unwrap();
        assert_eq!(ep, Ep::Price);
        assert_eq!(params.id("seller").unwrap(), 1);
        assert_eq!(params.id("product").unwrap(), 99);
    }

    #[test]
    fn resolves_root_and_trailing_slash() {
        let r = router();
        assert_eq!(r.resolve(Method::Get, "/").unwrap().0, Ep::Root);
        assert_eq!(
            r.resolve(Method::Get, "/sellers/7/dashboard/").unwrap().0,
            Ep::Dash
        );
    }

    #[test]
    fn distinguishes_not_found_from_method_not_allowed() {
        let r = router();
        assert_eq!(
            r.resolve(Method::Get, "/nope").unwrap_err(),
            RouteError::NotFound
        );
        match r.resolve(Method::Delete, "/sellers/1/dashboard").unwrap_err() {
            RouteError::MethodNotAllowed(allowed) => assert_eq!(allowed, vec![Method::Get]),
            other => panic!("expected MethodNotAllowed, got {other:?}"),
        }
    }

    #[test]
    fn segment_count_must_match() {
        let r = router();
        assert_eq!(
            r.resolve(Method::Get, "/sellers/1/dashboard/extra").unwrap_err(),
            RouteError::NotFound
        );
        assert_eq!(
            r.resolve(Method::Get, "/sellers/1").unwrap_err(),
            RouteError::NotFound
        );
    }

    #[test]
    fn bad_id_param_reports_name_and_value() {
        let r = router();
        let (_, params) = r.resolve(Method::Get, "/sellers/abc/dashboard").unwrap();
        match params.id("seller").unwrap_err() {
            RouteError::BadParam(name, value) => {
                assert_eq!(name, "seller");
                assert_eq!(value, "abc");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "duplicate route")]
    fn duplicate_registration_panics() {
        let _ = Router::new()
            .route(Method::Get, "/a/{x}", Ep::Root)
            .route(Method::Get, "/a/{y}", Ep::Dash);
    }

    #[test]
    #[should_panic(expected = "must start with '/'")]
    fn pattern_without_slash_panics() {
        let _: Router<Ep> = Router::new().route(Method::Get, "x", Ep::Root);
    }
}
