//! Structured API errors: every non-2xx route outcome is an [`ApiError`]
//! that serializes to a stable JSON body
//! `{"error":{"status":N,"code":"...","message":"...","param":"..."}}`.
//!
//! The typed error values from the lower layers map straight in:
//! [`measures::ParseParallelismError`] and [`terrain::UnknownExporterError`]
//! become 400s that name the offending query parameter and echo the
//! library's own message (which lists the accepted values) — the unit tests
//! here pin that mapping so a library rewording can't silently turn a 400
//! into a 500.

use std::fmt;

use crate::http::{HttpError, Response};
use graph_terrain::TerrainError;
use measures::ParseParallelismError;
use terrain::UnknownExporterError;

/// A route failure with an HTTP status, a machine-readable code, and a
/// human-readable message. `param` names the query parameter at fault, when
/// there is one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ApiError {
    /// The HTTP status to respond with.
    pub status: u16,
    /// Stable machine-readable code (`invalid_parameter`, `not_found`, ...).
    pub code: &'static str,
    /// Human-readable description.
    pub message: String,
    /// The query parameter at fault, if any.
    pub param: Option<&'static str>,
}

impl ApiError {
    /// A new error with no parameter attribution.
    pub fn new(status: u16, code: &'static str, message: impl Into<String>) -> Self {
        ApiError { status, code, message: message.into(), param: None }
    }

    /// Attribute the error to a query parameter (builder style).
    pub fn for_param(mut self, name: &'static str) -> Self {
        self.param = Some(name);
        self
    }

    /// 400 with code `invalid_parameter`.
    pub fn invalid_parameter(name: &'static str, message: impl Into<String>) -> Self {
        ApiError::new(400, "invalid_parameter", message).for_param(name)
    }

    /// 404 with code `not_found`.
    pub fn not_found(message: impl Into<String>) -> Self {
        ApiError::new(404, "not_found", message)
    }

    /// The JSON body for this error.
    pub fn to_json(&self) -> String {
        let mut body = format!(
            "{{\"error\":{{\"status\":{},\"code\":{},\"message\":{}",
            self.status,
            json_string(self.code),
            json_string(&self.message)
        );
        if let Some(param) = self.param {
            body.push_str(&format!(",\"param\":{}", json_string(param)));
        }
        body.push_str("}}");
        body
    }

    /// The full HTTP response for this error.
    pub fn into_response(self) -> Response {
        Response::json(self.status, self.to_json())
    }
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}: {}", self.status, self.code, self.message)
    }
}

impl std::error::Error for ApiError {}

impl From<ParseParallelismError> for ApiError {
    fn from(e: ParseParallelismError) -> Self {
        ApiError::invalid_parameter("threads", e.to_string())
    }
}

impl From<UnknownExporterError> for ApiError {
    fn from(e: UnknownExporterError) -> Self {
        ApiError::invalid_parameter("format", e.to_string())
    }
}

impl From<TerrainError> for ApiError {
    fn from(e: TerrainError) -> Self {
        // Every TerrainError a route can hit is caused by the request (a
        // body that fails to parse as a graph, a config combination the
        // pipeline rejects) — the server's own defaults are exercised by
        // the test battery, so blame the input.
        ApiError::new(400, "invalid_input", e.to_string())
    }
}

/// The response owed for a request that failed HTTP parsing, or `None` when
/// the connection should be dropped without a reply. Reuses the [`ApiError`]
/// JSON body shape so all error responses look alike; 405s carry an `Allow`
/// header.
pub fn http_error_response(e: &HttpError) -> Option<Response> {
    let status = e.response_status()?;
    let response = ApiError::new(status, e.code(), e.to_string()).into_response();
    Some(if status == 405 { response.header("Allow", "GET, POST") } else { response })
}

/// Serialize a JSON string literal (quotes, backslashes, control bytes).
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Format an `f64` for a JSON body (JSON has no NaN/inf; clamp to null).
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use measures::Parallelism;
    use terrain::exporter_by_name;

    #[test]
    fn parallelism_parse_errors_become_400_naming_the_threads_param() {
        let err: ApiError = Parallelism::parse("8x0").unwrap_err().into();
        assert_eq!(err.status, 400);
        assert_eq!(err.code, "invalid_parameter");
        assert_eq!(err.param, Some("threads"));
        assert!(err.message.contains("8x0"), "message should echo the input: {}", err.message);
        assert!(
            err.message.contains("serial"),
            "message should list accepted forms: {}",
            err.message
        );
        let response = err.into_response();
        assert_eq!(response.status, 400);
        let body = String::from_utf8(response.body.to_vec()).unwrap();
        assert!(body.contains("\"param\":\"threads\""), "{body}");
        assert!(body.contains("\"code\":\"invalid_parameter\""), "{body}");
    }

    #[test]
    fn unknown_exporter_errors_become_400_naming_the_format_param() {
        let err: ApiError = match exporter_by_name("gif") {
            Err(e) => e.into(),
            Ok(_) => panic!("gif must not resolve to a backend"),
        };
        assert_eq!(err.status, 400);
        assert_eq!(err.param, Some("format"));
        for backend in ["svg", "treemap", "obj", "ply", "ascii", "json"] {
            assert!(
                err.message.contains(backend),
                "message should list {backend}: {}",
                err.message
            );
        }
    }

    #[test]
    fn error_bodies_are_valid_json_even_with_quotes_in_the_message() {
        let err = ApiError::invalid_parameter("measure", "unknown measure \"bogus\"\n");
        let value = serde_json::from_str(&err.to_json()).expect("body parses as JSON");
        let inner = value.get("error").unwrap();
        assert_eq!(inner.get("status").unwrap().as_u64(), Some(400));
        assert_eq!(inner.get("param").unwrap().as_str(), Some("measure"));
        assert_eq!(inner.get("message").unwrap().as_str(), Some("unknown measure \"bogus\"\n"));
    }

    #[test]
    fn http_errors_without_a_status_produce_no_response() {
        assert!(http_error_response(&HttpError::ConnectionClosed).is_none());
        let resp = http_error_response(&HttpError::UnsupportedMethod("PUT".into())).unwrap();
        assert_eq!(resp.status, 405);
        assert_eq!(resp.header_value("allow"), Some("GET, POST"));
    }
}
