//! # parcfl-frontend — mini-Java IR and PAG extraction
//!
//! The paper analyses Java programs represented by Soot as Pointer
//! Assignment Graphs. This crate is our substitution for that pipeline: a
//! typed mini-Java intermediate representation ([`ir`]), a textual `.mj`
//! format ([`parser`], [`pretty`]), class-hierarchy resolution and CHA
//! virtual dispatch ([`hierarchy`]), call-graph construction with
//! recursion-cycle detection ([`callgraph`]), PAG extraction ([`extract()`]),
//! and points-to cycle elimination ([`cycles`]).
//!
//! The quickest entry points are [`build_pag`] and [`build_pag_collapsed`]:
//!
//! ```
//! let src = "class Obj { }
//!            class A { method m() { var x: Obj; x = new Obj; } }";
//! let e = parcfl_frontend::build_pag(src).unwrap();
//! assert!(e.pag.node_by_name("x@A.m").is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod cycles;
pub mod extract;
pub mod hierarchy;
pub mod ir;
pub mod lexer;
pub mod parser;
pub mod pretty;

pub use extract::{extract, ExtractError, Extraction};
pub use parser::{parse, ParseError};

use std::fmt;

/// Any error the frontend pipeline can produce.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrontendError {
    /// Lexing/parsing failed.
    Parse(ParseError),
    /// Extraction failed.
    Extract(ExtractError),
}

impl fmt::Display for FrontendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrontendError::Parse(e) => write!(f, "parse error: {e}"),
            FrontendError::Extract(e) => write!(f, "extraction error: {e}"),
        }
    }
}

impl std::error::Error for FrontendError {}

impl From<ParseError> for FrontendError {
    fn from(e: ParseError) -> Self {
        FrontendError::Parse(e)
    }
}

impl From<ExtractError> for FrontendError {
    fn from(e: ExtractError) -> Self {
        FrontendError::Extract(e)
    }
}

/// Parses `.mj` source and extracts its PAG.
pub fn build_pag(src: &str) -> Result<Extraction, FrontendError> {
    let program = parser::parse(src)?;
    Ok(extract::extract(&program)?)
}

/// Parses `.mj` source, extracts its PAG, and collapses points-to
/// (`assign_l`) cycles — the full preprocessing pipeline the paper's
/// evaluation uses.
pub fn build_pag_collapsed(src: &str) -> Result<cycles::Collapsed, FrontendError> {
    let e = build_pag(src)?;
    Ok(cycles::collapse_assign_cycles(&e.pag))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_helpers() {
        let src = "class Obj { }
                   class A { method m() { var x: Obj; var y: Obj; x = new Obj; x = y; y = x; } }";
        let e = build_pag(src).unwrap();
        let c = build_pag_collapsed(src).unwrap();
        assert_eq!(c.merged_nodes, 1);
        assert_eq!(c.pag.node_count(), e.pag.node_count() - 1);
    }

    #[test]
    fn pipeline_surfaces_parse_errors() {
        assert!(matches!(
            build_pag("class {").unwrap_err(),
            FrontendError::Parse(_)
        ));
    }

    #[test]
    fn pipeline_surfaces_extract_errors() {
        let err = build_pag("class A { method m() { q = r; } }").unwrap_err();
        assert!(matches!(err, FrontendError::Extract(_)));
        assert!(err.to_string().contains("undeclared"));
    }
}
