//! Graph serialization: text edge lists and a compact binary format.
//!
//! The text format is one `u v w` triple per line (whitespace separated,
//! `#` comments allowed) — interoperable with common edge-list corpora.
//! The binary format is a little-endian dump of the CSR arrays behind a
//! magic header, analogous in spirit to the "HavoqGT binary graph format"
//! whose sizes Table III reports.
//!
//! Both readers reject a corrupt file with an [`io::ErrorKind::InvalidData`]
//! error instead of a wrong graph or a panic: vertex ids past the id
//! space or the declared vertex count, zero weights, a vertex count past
//! the id space and, in the binary format, a truncated file.

use crate::builder::GraphBuilder;
use crate::csr::{CsrGraph, Vertex, Weight};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"STGRAPH1";

/// Most undirected edges [`read_binary`] reserves room for up front, so a
/// corrupt header's edge count cannot reserve memory the file does not
/// back; a larger graph grows past it as it is read.
const MAX_RESERVED_EDGES: usize = 1 << 20;

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Checks a vertex count against the id space.
fn check_num_vertices(n: u64) -> io::Result<usize> {
    if n > Vertex::MAX as u64 {
        return Err(invalid(format!(
            "{n} vertices exceed the {}-vertex id space",
            Vertex::MAX
        )));
    }
    Ok(n as usize)
}

/// Writes `g` as a text edge list (each undirected edge once).
pub fn write_edge_list<W: Write>(g: &CsrGraph, mut out: W) -> io::Result<()> {
    writeln!(out, "# vertices {}", g.num_vertices())?;
    for (u, v, w) in g.undirected_edges() {
        writeln!(out, "{u} {v} {w}")?;
    }
    Ok(())
}

/// Reads a text edge list. The vertex count is taken from a
/// `# vertices N` header if present, otherwise `max id + 1`.
pub fn read_edge_list<R: Read>(input: R) -> io::Result<CsrGraph> {
    let reader = BufReader::new(input);
    let mut edges: Vec<(Vertex, Vertex, Weight)> = Vec::new();
    let mut declared_n: Option<usize> = None;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix('#') {
            let mut it = rest.split_whitespace();
            if it.next() == Some("vertices") {
                if let Some(n) = it.next().and_then(|s| s.parse().ok()) {
                    declared_n = Some(check_num_vertices(n)?);
                }
            }
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let parse = |tok: Option<&str>| -> io::Result<u64> {
            tok.ok_or_else(|| bad_line(lineno))?
                .parse()
                .map_err(|_| bad_line(lineno))
        };
        // `max id + 1` must itself fit the id space.
        let id = |tok| match parse(tok)? {
            x if x < Vertex::MAX as u64 => Ok(x as Vertex),
            x => Err(invalid(format!(
                "vertex id {x} at line {} exceeds the id space",
                lineno + 1
            ))),
        };
        let (u, v) = (id(it.next())?, id(it.next())?);
        let w = match it.next() {
            Some(tok) => tok.parse().map_err(|_| bad_line(lineno))?,
            None => 1,
        };
        if w == 0 {
            return Err(invalid(format!("zero weight at line {}", lineno + 1)));
        }
        edges.push((u, v, w));
    }
    let max_id = edges
        .iter()
        .map(|&(u, v, _)| u.max(v) as usize + 1)
        .max()
        .unwrap_or(0);
    let n = declared_n.unwrap_or(max_id).max(max_id);
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    b.extend_edges(edges);
    Ok(b.build())
}

fn bad_line(lineno: usize) -> io::Error {
    invalid(format!("malformed edge list at line {}", lineno + 1))
}

/// Writes `g` in the compact binary CSR format.
pub fn write_binary<W: Write>(g: &CsrGraph, mut out: W) -> io::Result<()> {
    out.write_all(MAGIC)?;
    let n = g.num_vertices() as u64;
    let m = g.num_arcs() as u64;
    out.write_all(&n.to_le_bytes())?;
    out.write_all(&m.to_le_bytes())?;
    let mut buf = BufWriter::new(out);
    for v in g.vertices() {
        for (t, w) in g.edges(v) {
            buf.write_all(&(v as u64).to_le_bytes())?;
            buf.write_all(&(t as u64).to_le_bytes())?;
            buf.write_all(&w.to_le_bytes())?;
        }
    }
    buf.flush()
}

/// Reads a graph written by [`write_binary`].
pub fn read_binary<R: Read>(input: R) -> io::Result<CsrGraph> {
    let mut reader = BufReader::new(input);
    // A short read anywhere is a truncated file, not an I/O failure.
    let mut read = |buf: &mut [u8]| {
        reader.read_exact(buf).map_err(|e| match e.kind() {
            io::ErrorKind::UnexpectedEof => invalid("truncated STGRAPH1 file".to_string()),
            _ => e,
        })
    };
    let mut magic = [0u8; 8];
    read(&mut magic)?;
    if &magic != MAGIC {
        return Err(invalid("bad magic: not an STGRAPH1 file".to_string()));
    }
    let mut word = [0u8; 8];
    read(&mut word)?;
    let n64 = u64::from_le_bytes(word);
    let n = check_num_vertices(n64)?;
    read(&mut word)?;
    let m = u64::from_le_bytes(word);
    let reserve = (m / 2).min(MAX_RESERVED_EDGES as u64) as usize;
    let mut b = GraphBuilder::with_capacity(n, reserve);
    for i in 0..m {
        let mut rec = [0u8; 24];
        read(&mut rec)?;
        let u = u64::from_le_bytes(rec[0..8].try_into().unwrap());
        let v = u64::from_le_bytes(rec[8..16].try_into().unwrap());
        let w = u64::from_le_bytes(rec[16..24].try_into().unwrap());
        if u >= n64 || v >= n64 || w == 0 {
            return Err(invalid(format!(
                "arc {i} ({u}, {v}, weight {w}) is not an arc of a {n}-vertex graph"
            )));
        }
        // Arcs appear in both directions; add each undirected edge once.
        if u < v {
            b.add_edge(u as Vertex, v as Vertex, w);
        }
    }
    Ok(b.build())
}

/// Convenience: writes the binary format to `path`.
pub fn save_binary(g: &CsrGraph, path: &Path) -> io::Result<()> {
    write_binary(g, std::fs::File::create(path)?)
}

/// Convenience: reads the binary format from `path`.
pub fn load_binary(path: &Path) -> io::Result<CsrGraph> {
    read_binary(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrGraph {
        let mut b = GraphBuilder::new(5);
        b.extend_edges([(0, 1, 3), (1, 2, 5), (2, 3, 7), (3, 4, 2), (0, 4, 11)]);
        b.build()
    }

    fn graphs_equal(a: &CsrGraph, b: &CsrGraph) -> bool {
        a.num_vertices() == b.num_vertices()
            && a.undirected_edges().collect::<Vec<_>>() == b.undirected_edges().collect::<Vec<_>>()
    }

    #[test]
    fn edge_list_roundtrip() {
        let g = sample();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..]).unwrap();
        assert!(graphs_equal(&g, &g2));
    }

    #[test]
    fn edge_list_default_weight_is_one() {
        let g = read_edge_list("0 1\n1 2\n".as_bytes()).unwrap();
        assert_eq!(g.edge_weight(0, 1), Some(1));
        assert_eq!(g.num_vertices(), 3);
    }

    #[test]
    fn edge_list_respects_declared_vertices() {
        let g = read_edge_list("# vertices 10\n0 1 2\n".as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 10);
    }

    #[test]
    fn edge_list_rejects_garbage() {
        assert!(read_edge_list("0 x 2\n".as_bytes()).is_err());
    }

    #[test]
    fn binary_roundtrip() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let g2 = read_binary(&buf[..]).unwrap();
        assert!(graphs_equal(&g, &g2));
    }

    #[test]
    fn binary_rejects_bad_magic() {
        assert!(read_binary(&b"NOTAGRPH........"[..]).is_err());
    }

    /// A binary file with the given header and `(u, v, w)` arc records.
    fn binary_file(n: u64, m: u64, arcs: &[(u64, u64, u64)]) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        for word in [n, m]
            .into_iter()
            .chain(arcs.iter().flat_map(|&(u, v, w)| [u, v, w]))
        {
            buf.extend_from_slice(&word.to_le_bytes());
        }
        buf
    }

    fn assert_invalid<T: std::fmt::Debug>(r: io::Result<T>, what: &str) {
        let err = r.expect_err(what);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
    }

    #[test]
    fn binary_rejects_ids_past_the_id_space() {
        // 2^32 + 3 must not wrap to vertex 3.
        let big = (1u64 << 32) + 3;
        let file = binary_file(5, 2, &[(0, big, 1), (big, 0, 1)]);
        assert_invalid(read_binary(&file[..]), "id past u32");
    }

    #[test]
    fn binary_rejects_endpoints_past_the_vertex_count() {
        let file = binary_file(5, 2, &[(1, 5, 1), (5, 1, 1)]);
        assert_invalid(read_binary(&file[..]), "endpoint >= n");
    }

    #[test]
    fn binary_rejects_zero_weights() {
        let file = binary_file(5, 2, &[(1, 2, 0), (2, 1, 0)]);
        assert_invalid(read_binary(&file[..]), "zero weight");
    }

    #[test]
    fn binary_rejects_vertex_counts_past_the_id_space() {
        let file = binary_file(1 << 33, 0, &[]);
        assert_invalid(read_binary(&file[..]), "n > u32::MAX");
    }

    #[test]
    fn binary_with_a_corrupt_edge_count_fails_without_reserving_it() {
        // A header claiming 2^60 arcs over a file holding two.
        let file = binary_file(5, 1 << 60, &[(1, 2, 3), (2, 1, 3)]);
        assert_invalid(read_binary(&file[..]), "corrupt m");
    }

    #[test]
    fn binary_rejects_truncated_files() {
        let mut buf = Vec::new();
        write_binary(&sample(), &mut buf).unwrap();
        for len in [4, 12, 30, buf.len() - 1] {
            assert_invalid(read_binary(&buf[..len]), &format!("truncated at {len}"));
        }
    }

    #[test]
    fn edge_list_rejects_ids_past_the_id_space() {
        assert_invalid(read_edge_list("0 4294967299 1\n".as_bytes()), "id past u32");
        assert_invalid(
            read_edge_list("0 4294967295 1\n".as_bytes()),
            "max id + 1 past u32",
        );
    }

    #[test]
    fn edge_list_rejects_zero_weights() {
        assert_invalid(read_edge_list("0 1 0\n".as_bytes()), "zero weight");
    }

    #[test]
    fn edge_list_rejects_vertex_counts_past_the_id_space() {
        let text = "# vertices 8589934592\n0 1 2\n";
        assert_invalid(read_edge_list(text.as_bytes()), "declared n > u32::MAX");
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let g = read_edge_list("# hello\n\n0 1 4\n# more\n1 2 6\n".as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 2);
    }
}
