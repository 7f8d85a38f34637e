//! The workspace-wide error type for terrain builds.
//!
//! Everything below the terrain layer reports [`ugraph::GraphError`]; the
//! layout, mesh and SVG stages add failure modes of their own (inverted
//! layout domains, non-finite height scales, coloring data that does not
//! match the scalar field). [`TerrainError`] unifies both so that a whole
//! pipeline run — `graph-terrain`'s `TerrainPipeline` session — propagates
//! one non-panicking error type from every stage.

use std::fmt;
use ugraph::GraphError;

/// Result alias for terrain construction and the staged pipeline.
pub type TerrainResult<T> = std::result::Result<T, TerrainError>;

/// Any failure of a staged terrain build: an invalid scalar field or graph
/// (wrapped [`GraphError`]), an invalid layout configuration, or mesh
/// inputs that do not fit the tree they are meant to color.
#[derive(Debug)]
pub enum TerrainError {
    /// The graph / scalar-field substrate rejected its input.
    Graph(GraphError),
    /// The 2D layout configuration is invalid (non-finite or non-positive
    /// domain, out-of-range margin fraction).
    Layout {
        /// Human readable description of the violated constraint.
        message: String,
    },
    /// The mesh configuration or coloring data is invalid (non-finite
    /// height scale or baseline, secondary scalar / class vector whose
    /// length does not match the element count, layout built for a
    /// different tree).
    Mesh {
        /// Human readable description of the violated constraint.
        message: String,
    },
    /// A pipeline-level configuration parameter is out of range (e.g. an
    /// SVG size that is not a positive finite number of pixels).
    Config {
        /// The parameter that was rejected.
        what: &'static str,
        /// Human readable description of the violated constraint.
        message: String,
    },
}

impl fmt::Display for TerrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TerrainError::Graph(e) => write!(f, "{e}"),
            TerrainError::Layout { message } => write!(f, "invalid layout: {message}"),
            TerrainError::Mesh { message } => write!(f, "invalid mesh input: {message}"),
            TerrainError::Config { what, message } => {
                write!(f, "invalid configuration for {what}: {message}")
            }
        }
    }
}

impl std::error::Error for TerrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TerrainError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for TerrainError {
    fn from(e: GraphError) -> Self {
        TerrainError::Graph(e)
    }
}

/// Streaming exporters write into arbitrary [`std::io::Write`] sinks; their
/// I/O failures ride the existing [`GraphError::Io`] wrapping so the whole
/// pipeline keeps a single error type.
impl From<std::io::Error> for TerrainError {
    fn from(e: std::io::Error) -> Self {
        TerrainError::Graph(GraphError::Io(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = TerrainError::Layout { message: "width must be positive, got -1".into() };
        assert!(e.to_string().contains("invalid layout"));
        assert!(e.to_string().contains("-1"));

        let e =
            TerrainError::Mesh { message: "secondary scalar has 3 entries, field has 5".into() };
        assert!(e.to_string().contains("invalid mesh input"));

        let e =
            TerrainError::Config { what: "svg size", message: "width_px must be finite".into() };
        assert!(e.to_string().contains("svg size"));
    }

    #[test]
    fn graph_errors_convert_and_chain() {
        let g = GraphError::LengthMismatch { what: "vertices", expected: 3, actual: 4 };
        let display = g.to_string();
        let e: TerrainError = g.into();
        assert!(matches!(e, TerrainError::Graph(_)));
        assert_eq!(e.to_string(), display);
        assert!(std::error::Error::source(&e).is_some());
    }
}
