//! Graph (de)serialisation.
//!
//! Two formats:
//!
//! * **binary CSR** (`.hcsr`) — the arrays dumped little-endian behind a
//!   small header; loads with two reads and no parsing. This is the format
//!   a production deployment would preprocess into (the paper's hub sorting
//!   is likewise a preprocessing step whose output is stored).
//! * **text edge list** — `src dst [weight]` per line, `#` comments; the
//!   interchange format of SNAP/KONECT where the paper's datasets live.

use crate::{Csr, EdgeList, GraphError, VertexId, Weight};
use bytes::{Buf, BufMut};
use std::io::{self, Read};
use std::path::Path;

/// Magic bytes identifying a binary CSR file.
const MAGIC: [u8; 4] = *b"HCSR";
/// Binary format version.
const VERSION: u32 = 1;

/// Serialise `graph` into a byte vector (binary CSR format).
// hyt-lint: allow(unreached-pub) -- graph loader: the binary CSR round trip is proptested in tests/properties.rs
pub fn to_bytes(graph: &Csr) -> Vec<u8> {
    let mut buf = Vec::with_capacity(
        24 + graph.row_offset().len() * 8
            + graph.col_index().len() * 4
            + graph.weights().map_or(0, |w| w.len() * 4),
    );
    buf.put_slice(&MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u32_le(graph.num_vertices());
    buf.put_u8(graph.is_weighted() as u8);
    buf.put_u64_le(graph.num_edges());
    for &o in graph.row_offset() {
        buf.put_u64_le(o);
    }
    for &c in graph.col_index() {
        buf.put_u32_le(c);
    }
    if let Some(ws) = graph.weights() {
        for &w in ws {
            buf.put_u32_le(w);
        }
    }
    buf
}

/// Deserialise a binary CSR produced by [`to_bytes`].
///
/// # Errors
///
/// [`GraphError::Format`] on bad magic/version, truncated payloads, or
/// violated CSR invariants.
// hyt-lint: allow(unreached-pub) -- graph loader: the binary CSR round trip is proptested in tests/properties.rs
pub fn from_bytes(mut data: &[u8]) -> Result<Csr, GraphError> {
    let fail = |reason: String| GraphError::Format { reason };
    if data.len() < 21 {
        return Err(fail("truncated header".into()));
    }
    let mut magic = [0u8; 4];
    data.copy_to_slice(&mut magic);
    if magic != MAGIC {
        return Err(fail(format!("bad magic {magic:?}")));
    }
    let version = data.get_u32_le();
    if version != VERSION {
        return Err(fail(format!("unsupported version {version}")));
    }
    let nv = data.get_u32_le();
    let weighted = data.get_u8() != 0;
    let ne = data.get_u64_le();
    let need = (nv as usize + 1) * 8 + ne as usize * 4 + if weighted { ne as usize * 4 } else { 0 };
    if data.remaining() < need {
        return Err(fail(format!("truncated body: need {need}, have {}", data.remaining())));
    }
    let mut row_offset = Vec::with_capacity(nv as usize + 1);
    for _ in 0..=nv {
        row_offset.push(data.get_u64_le());
    }
    let mut col_index = Vec::with_capacity(ne as usize);
    for _ in 0..ne {
        col_index.push(data.get_u32_le());
    }
    let weights = if weighted {
        let mut w = Vec::with_capacity(ne as usize);
        for _ in 0..ne {
            w.push(data.get_u32_le());
        }
        Some(w)
    } else {
        None
    };
    Csr::from_parts(nv, row_offset, col_index, weights).map_err(fail)
}

/// Read a binary CSR file.
pub fn load(path: &Path) -> io::Result<Csr> {
    let mut f = std::fs::File::open(path)?;
    let mut buf = Vec::new();
    f.read_to_end(&mut buf)?;
    from_bytes(&buf).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// Parse a text edge list: one `src dst [weight]` triple per line,
/// whitespace-separated; lines starting with `#` or `%` are comments.
/// The vertex id space is `0..=max_id_seen`.
///
/// # Errors
///
/// [`GraphError::Parse`] with the 1-based line number on malformed
/// lines; [`GraphError::VertexOutOfRange`] if an id escapes the derived
/// space (unreachable for well-formed input, but the checked
/// [`EdgeList::try_push`] path guards it rather than debug-asserting).
// hyt-lint: allow(unreached-pub) -- graph loader: reads the SNAP/KONECT text format the paper's datasets ship in
pub fn parse_edge_list(text: &str) -> Result<EdgeList, GraphError> {
    let mut edges: Vec<(VertexId, VertexId, Option<Weight>)> = Vec::new();
    let mut max_id = 0u32;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let fail = |reason: String| GraphError::Parse { line: lineno + 1, reason };
        let mut it = line.split_whitespace();
        let src: VertexId = it
            .next()
            .ok_or_else(|| fail("missing src".into()))?
            .parse()
            .map_err(|e| fail(format!("bad src ({e})")))?;
        let dst: VertexId = it
            .next()
            .ok_or_else(|| fail("missing dst".into()))?
            .parse()
            .map_err(|e| fail(format!("bad dst ({e})")))?;
        let w = match it.next() {
            Some(tok) => {
                Some(tok.parse::<Weight>().map_err(|e| fail(format!("bad weight ({e})")))?)
            }
            None => None,
        };
        max_id = max_id.max(src).max(dst);
        edges.push((src, dst, w));
    }
    let nv = if edges.is_empty() { 0 } else { max_id + 1 };
    let mut el = EdgeList::with_capacity(nv, edges.len());
    for (s, d, w) in edges {
        match w {
            Some(w) => el.try_push_weighted(s, d, w)?,
            None => el.try_push(s, d)?,
        }
    }
    Ok(el)
}

/// Render an edge list as text (the inverse of [`parse_edge_list`]).
// hyt-lint: allow(unreached-pub) -- the text loader's writer: what `parse_edge_list` reads back
pub fn format_edge_list(el: &EdgeList) -> String {
    let mut out = String::new();
    for (i, &(s, d)) in el.edges().iter().enumerate() {
        if el.is_weighted() {
            out.push_str(&format!("{s} {d} {}\n", el.weight(i)));
        } else {
            out.push_str(&format!("{s} {d}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn binary_round_trip_weighted() {
        let g = generators::rmat(8, 6.0, 5, true);
        let bytes = to_bytes(&g);
        let g2 = from_bytes(&bytes).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn binary_round_trip_unweighted() {
        let g = generators::rmat(8, 6.0, 5, false);
        assert_eq!(from_bytes(&to_bytes(&g)).unwrap(), g);
    }

    #[test]
    fn binary_rejects_garbage() {
        assert!(from_bytes(b"").is_err());
        assert!(from_bytes(b"NOPE00000000000000000000000").is_err());
        let g = generators::chain(4, false);
        let mut bytes = to_bytes(&g);
        bytes.truncate(bytes.len() - 1);
        assert!(from_bytes(&bytes).is_err());
    }

    #[test]
    fn file_round_trip() {
        let g = generators::rmat(7, 4.0, 2, true);
        let dir = std::env::temp_dir().join("hyt_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.hcsr");
        std::fs::write(&path, to_bytes(&g)).unwrap();
        let g2 = load(&path).unwrap();
        assert_eq!(g, g2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn text_round_trip() {
        let text = "# comment\n0 1 5\n1 2 3\n2 0 1\n";
        let el = parse_edge_list(text).unwrap();
        assert_eq!(el.len(), 3);
        assert!(el.is_weighted());
        assert_eq!(format_edge_list(&el), "0 1 5\n1 2 3\n2 0 1\n");
    }

    #[test]
    fn text_unweighted_and_comments() {
        let el = parse_edge_list("% konect style\n3 1\n\n0 2\n").unwrap();
        assert!(!el.is_weighted());
        assert_eq!(el.num_vertices(), 4);
        let g = el.to_csr();
        assert_eq!(g.neighbors(3), &[1]);
    }

    #[test]
    fn text_errors_are_located_and_typed() {
        let err = parse_edge_list("0 1\nx 2\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }), "{err}");
        assert!(err.to_string().contains("line 2"), "{err}");
        let err = parse_edge_list("0\n").unwrap_err();
        assert!(err.to_string().contains("missing dst"), "{err}");
        let err = parse_edge_list("1 2 notaweight\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }), "{err}");
    }

    #[test]
    fn binary_errors_are_typed() {
        assert!(matches!(from_bytes(b"").unwrap_err(), GraphError::Format { .. }));
        let g = generators::chain(3, true);
        let mut bytes = to_bytes(&g);
        bytes.truncate(bytes.len() - 2);
        assert!(matches!(from_bytes(&bytes).unwrap_err(), GraphError::Format { .. }));
    }

    #[test]
    fn empty_text_gives_empty_graph() {
        let el = parse_edge_list("# nothing\n").unwrap();
        assert!(el.is_empty());
        assert_eq!(el.to_csr().num_vertices(), 0);
    }
}
