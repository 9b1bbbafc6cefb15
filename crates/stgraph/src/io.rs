//! Graph serialization: text edge lists and a compact binary format.
//!
//! The text format is one `u v w` triple per line (whitespace separated,
//! `#` comments allowed) — interoperable with common edge-list corpora.
//! The binary format is a little-endian dump of the CSR arrays behind a
//! magic header, analogous in spirit to the "HavoqGT binary graph format"
//! whose sizes Table III reports.
//!
//! Both readers treat their input as untrusted: a vertex id outside the
//! graph's id range, a zero weight, or a vertex count beyond the id space
//! is an [`io::ErrorKind::InvalidData`] error that names the offending line
//! or record, never a panic or a silently truncated id, and no buffer is
//! sized from a header count before the records behind it are read.

use crate::builder::GraphBuilder;
use crate::csr::{CsrGraph, Vertex, Weight};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"STGRAPH1";

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
                if let Some(n) = it.next().and_then(|s| s.parse::<u64>().ok()) {
                    declared_n = Some(check_vertex_count(n)?);
                }
            }
            continue;
        }
        let at = || format!("line {}", lineno + 1);
        let mut it = trimmed.split_whitespace();
        let parse = |tok: Option<&str>| -> io::Result<u64> {
            tok.ok_or_else(|| bad_line(lineno))?
                .parse()
                .map_err(|_| bad_line(lineno))
        };
        let u = check_id(parse(it.next())?, MAX_VERTEX_COUNT as u64, &at)?;
        let v = check_id(parse(it.next())?, MAX_VERTEX_COUNT as u64, &at)?;
        let w = match it.next() {
            Some(tok) => check_weight(tok.parse().map_err(|_| bad_line(lineno))?, &at)?,
            None => 1,
        };
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

/// The largest vertex count a graph can have: ids are `Vertex` values
/// below `Vertex::MAX`, which the solver reserves as its "no vertex"
/// sentinel.
const MAX_VERTEX_COUNT: usize = Vertex::MAX as usize;

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn check_vertex_count(n: u64) -> io::Result<usize> {
    if n > MAX_VERTEX_COUNT as u64 {
        return Err(invalid(format!(
            "vertex count {n} exceeds the id space (at most {MAX_VERTEX_COUNT})"
        )));
    }
    Ok(n as usize)
}

/// `id` as a vertex of a graph with `n` vertices; `at` names the record.
fn check_id(id: u64, n: u64, at: &dyn Fn() -> String) -> io::Result<Vertex> {
    if id >= n {
        return Err(invalid(format!(
            "{}: vertex id {id} out of range for {n} vertices",
            at()
        )));
    }
    Ok(id as Vertex)
}

fn check_weight(w: Weight, at: &dyn Fn() -> String) -> io::Result<Weight> {
    if w == 0 {
        return Err(invalid(format!(
            "{}: edge weight 0 (weights must be positive)",
            at()
        )));
    }
    Ok(w)
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
pub fn read_binary<R: Read>(mut input: R) -> io::Result<CsrGraph> {
    let mut magic = [0u8; 8];
    input.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad magic: not an STGRAPH1 file",
        ));
    }
    let mut word = [0u8; 8];
    input.read_exact(&mut word)?;
    let n = check_vertex_count(u64::from_le_bytes(word))?;
    input.read_exact(&mut word)?;
    let m = u64::from_le_bytes(word);
    let mut reader = BufReader::new(input);
    // `m` is untrusted: the edge list grows as records arrive, so a huge
    // header count costs nothing until the file really holds the records.
    let mut b = GraphBuilder::new(n);
    for i in 0..m {
        let mut rec = [0u8; 24];
        reader.read_exact(&mut rec)?;
        let field = |k: usize| u64::from_le_bytes(rec[8 * k..8 * k + 8].try_into().unwrap());
        let at = || format!("record {i}");
        let u = check_id(field(0), n as u64, &at)?;
        let v = check_id(field(1), n as u64, &at)?;
        let w = check_weight(field(2), &at)?;
        // Arcs appear in both directions; add each undirected edge once.
        if u < v {
            b.add_edge(u, v, w);
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

    #[test]
    fn comments_and_blank_lines_ignored() {
        let g = read_edge_list("# hello\n\n0 1 4\n# more\n1 2 6\n".as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 2);
    }
}
