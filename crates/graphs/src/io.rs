//! Graph file I/O: whitespace edge lists and DIMACS `p edge` format.
//!
//! Lets the CLI (and downstream users) run the coloring algorithms on
//! their own network topologies.

use crate::{Graph, GraphBuilder, NodeId};
use std::fmt;
use std::io::{BufRead, Write};

/// Errors from graph parsing.
#[derive(Debug)]
pub enum ParseError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line did not match the expected format.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// Structural problem (self-loop / out-of-range endpoint).
    Graph(crate::GraphError),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "i/o error: {e}"),
            ParseError::Malformed { line, reason } => {
                write!(f, "line {line}: {reason}")
            }
            ParseError::Graph(e) => write!(f, "invalid graph: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<std::io::Error> for ParseError {
    fn from(e: std::io::Error) -> Self {
        ParseError::Io(e)
    }
}

impl From<crate::GraphError> for ParseError {
    fn from(e: crate::GraphError) -> Self {
        ParseError::Graph(e)
    }
}

/// Parses a whitespace edge list: one `u v` pair per line; `#` comments
/// and blank lines ignored; `n` is inferred as `max endpoint + 1`.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed lines or structural problems.
pub fn read_edge_list<R: BufRead>(reader: R) -> Result<Graph, ParseError> {
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    let mut max_node: NodeId = 0;
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut it = line.split_whitespace();
        let (a, b) = (it.next(), it.next());
        let (a, b) = match (a, b) {
            (Some(a), Some(b)) => (a, b),
            _ => {
                return Err(ParseError::Malformed {
                    line: i + 1,
                    reason: "expected two endpoints".into(),
                })
            }
        };
        let parse = |s: &str, line: usize| {
            let id = s.parse::<u64>().map_err(|_| ParseError::Malformed {
                line,
                reason: format!("bad node id {s:?}"),
            })?;
            // Ids run below NodeId::MAX so the node count fits too.
            NodeId::try_from(id)
                .ok()
                .filter(|&id| id < NodeId::MAX)
                .ok_or_else(|| ParseError::Malformed {
                    line,
                    reason: format!("node id {id} is out of range (max {})", NodeId::MAX - 1),
                })
        };
        let (u, v) = (parse(a, i + 1)?, parse(b, i + 1)?);
        max_node = max_node.max(u).max(v);
        edges.push((u, v));
    }
    let n = if edges.is_empty() {
        0
    } else {
        max_node as usize + 1
    };
    let mut b = GraphBuilder::new(n);
    for (u, v) in edges {
        b.add_edge(u, v);
    }
    Ok(b.build()?)
}

/// Parses DIMACS `p edge n m` format (1-based `e u v` lines, one `p`
/// line before them).
///
/// # Errors
///
/// Returns [`ParseError`] on malformed lines (a repeated `p` line
/// included) or structural problems.
pub fn read_dimacs<R: BufRead>(reader: R) -> Result<Graph, ParseError> {
    let mut builder: Option<GraphBuilder> = None;
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        let mut it = line.split_whitespace();
        match it.next() {
            None | Some("c") => {}
            Some("p") => {
                if builder.is_some() {
                    // A second header would silently discard every edge
                    // read so far.
                    return Err(ParseError::Malformed {
                        line: i + 1,
                        reason: "repeated p-line".into(),
                    });
                }
                let _fmt = it.next();
                let n: u64 = it.next().and_then(|s| s.parse().ok()).ok_or_else(|| {
                    ParseError::Malformed {
                        line: i + 1,
                        reason: "p-line missing node count".into(),
                    }
                })?;
                if n > u64::from(NodeId::MAX) {
                    return Err(ParseError::Malformed {
                        line: i + 1,
                        reason: format!("node count {n} is out of range (max {})", NodeId::MAX),
                    });
                }
                builder = Some(GraphBuilder::new(n as usize));
            }
            Some("e") => {
                let b = builder.as_mut().ok_or_else(|| ParseError::Malformed {
                    line: i + 1,
                    reason: "e-line before p-line".into(),
                })?;
                let mut endpoint = |tag: &str| -> Result<NodeId, ParseError> {
                    it.next()
                        .and_then(|s| s.parse::<NodeId>().ok())
                        .filter(|&x| x >= 1)
                        .map(|x| x - 1)
                        .ok_or_else(|| ParseError::Malformed {
                            line: i + 1,
                            reason: format!("bad {tag} endpoint"),
                        })
                };
                let u = endpoint("first")?;
                let v = endpoint("second")?;
                b.add_edge(u, v);
            }
            Some(other) => {
                return Err(ParseError::Malformed {
                    line: i + 1,
                    reason: format!("unknown record {other:?}"),
                })
            }
        }
    }
    Ok(builder.unwrap_or_else(|| GraphBuilder::new(0)).build()?)
}

/// Writes a coloring as `node color` lines.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_coloring<W: Write>(colors: &[u32], mut w: W) -> std::io::Result<()> {
    for (v, &c) in colors.iter().enumerate() {
        writeln!(w, "{v} {c}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_list_parses_comments_and_blanks() {
        let text = "# header\n\n0 1  # inline\n1 2\n";
        let g = read_edge_list(std::io::Cursor::new(text)).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 2);
    }

    #[test]
    fn edge_list_rejects_garbage() {
        let err = read_edge_list(std::io::Cursor::new("0 x\n")).unwrap_err();
        assert!(err.to_string().contains("bad node id"));
        let err = read_edge_list(std::io::Cursor::new("7\n")).unwrap_err();
        assert!(err.to_string().contains("two endpoints"));
        let err = read_edge_list(std::io::Cursor::new("3 3\n")).unwrap_err();
        assert!(matches!(err, ParseError::Graph(_)));
    }

    #[test]
    fn edge_list_rejects_ids_outside_the_node_id_range() {
        for (text, line) in [
            ("0 4294967296\n", 1),
            ("0 1\n0 18446744073709551615\n", 2),
            ("4294967295 1\n", 1),
        ] {
            match read_edge_list(std::io::Cursor::new(text)) {
                Err(ParseError::Malformed { line: l, reason }) => {
                    assert_eq!(l, line, "{text:?}");
                    assert!(reason.contains("out of range"), "{reason}");
                }
                other => panic!("{text:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn dimacs_rejects_node_counts_outside_the_node_id_range() {
        let err =
            read_dimacs(std::io::Cursor::new("c big\np edge 5000000000 1\ne 1 2\n")).unwrap_err();
        assert!(
            matches!(&err, ParseError::Malformed { line: 2, reason } if reason.contains("out of range")),
            "{err:?}"
        );
    }

    #[test]
    fn dimacs_basics() {
        let text = "c comment\np edge 4 3\ne 1 2\ne 2 3\ne 3 4\n";
        let g = read_dimacs(std::io::Cursor::new(text)).unwrap();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 3);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(2, 3));
    }

    #[test]
    fn dimacs_rejects_edge_before_header() {
        let err = read_dimacs(std::io::Cursor::new("e 1 2\n")).unwrap_err();
        assert!(err.to_string().contains("before p-line"));
    }

    #[test]
    fn dimacs_rejects_a_repeated_header() {
        let text = "p edge 5 4\ne 1 2\ne 2 3\ne 3 4\ne 4 5\np edge 3 0\n";
        let err = read_dimacs(std::io::Cursor::new(text)).unwrap_err();
        assert!(
            matches!(&err, ParseError::Malformed { line: 6, reason } if reason.contains("repeated p-line")),
            "{err:?}"
        );
    }

    #[test]
    fn dimacs_rejects_zero_based_ids() {
        let err = read_dimacs(std::io::Cursor::new("p edge 3 1\ne 0 1\n")).unwrap_err();
        assert!(err.to_string().contains("bad first endpoint"));
    }

    #[test]
    fn coloring_output_format() {
        let mut buf = Vec::new();
        write_coloring(&[2, 0, 1], &mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), "0 2\n1 0\n2 1\n");
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(read_edge_list(std::io::Cursor::new("")).unwrap().n(), 0);
        assert_eq!(read_dimacs(std::io::Cursor::new("")).unwrap().n(), 0);
    }
}
