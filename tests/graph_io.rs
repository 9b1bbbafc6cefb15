//! Graph readers on crafted, malformed input (tier 1): every bad id,
//! weight or vertex count is an `InvalidData` error naming the record,
//! never a panic and never a silently truncated id, and `steiner-cli
//! stats` reports it as a one-line error with a non-zero exit.

use std::io::ErrorKind;
use std::process::Command;
use stgraph::io::{read_binary, read_edge_list};

/// An `STGRAPH1` file with header `(n, m)` followed by `records`.
fn binary(n: u64, m: u64, records: &[(u64, u64, u64)]) -> Vec<u8> {
    let mut out = b"STGRAPH1".to_vec();
    out.extend(n.to_le_bytes());
    out.extend(m.to_le_bytes());
    for &(u, v, w) in records {
        out.extend(u.to_le_bytes());
        out.extend(v.to_le_bytes());
        out.extend(w.to_le_bytes());
    }
    out
}

/// A valid 3-vertex path with `bad` appended as its last arc.
fn with_bad_record(bad: (u64, u64, u64)) -> Vec<u8> {
    let records = [(0, 1, 2), (1, 0, 2), (1, 2, 3), (2, 1, 3), bad];
    binary(3, records.len() as u64, &records)
}

/// The crafted binary files, each with a phrase its error must contain.
fn crafted_binaries() -> Vec<(&'static str, Vec<u8>, &'static str)> {
    vec![
        (
            "id-2^32+1",
            with_bad_record((0, (1 << 32) + 1, 4)),
            "record 4: vertex id 4294967297 out of range for 3 vertices",
        ),
        (
            "endpoint-ge-n",
            with_bad_record((3, 0, 4)),
            "record 4: vertex id 3 out of range for 3 vertices",
        ),
        (
            "zero-weight",
            with_bad_record((0, 2, 0)),
            "record 4: edge weight 0",
        ),
        (
            "n-2^40",
            binary(1 << 40, 0, &[]),
            "vertex count 1099511627776 exceeds the id space",
        ),
    ]
}

fn assert_invalid(result: std::io::Result<stgraph::CsrGraph>, expect: &str) {
    match result {
        Ok(g) => panic!(
            "expected InvalidData ({expect}), got a graph of {} vertices",
            g.num_vertices()
        ),
        Err(e) => {
            assert_eq!(e.kind(), ErrorKind::InvalidData, "{e}");
            assert!(e.to_string().contains(expect), "{e:?} lacks {expect:?}");
        }
    }
}

#[test]
fn binary_reader_rejects_bad_ids_weights_and_counts() {
    for (name, bytes, expect) in crafted_binaries() {
        let result = std::panic::catch_unwind(|| read_binary(&bytes[..]))
            .unwrap_or_else(|_| panic!("{name}: the reader panicked"));
        assert_invalid(result, expect);
    }
}

#[test]
fn binary_reader_does_not_trust_the_edge_count() {
    // A header claiming 2^60 arcs over a file holding one: the reader must
    // fail on the missing records, not reserve room for the claimed ones.
    let bytes = binary(3, 1 << 60, &[(0, 1, 2)]);
    let err = read_binary(&bytes[..]).expect_err("truncated file");
    assert_eq!(err.kind(), ErrorKind::UnexpectedEof, "{err}");
}

#[test]
fn binary_reader_still_reads_valid_files() {
    let bytes = binary(3, 4, &[(0, 1, 2), (1, 0, 2), (1, 2, 3), (2, 1, 3)]);
    let g = read_binary(&bytes[..]).expect("valid file");
    assert_eq!(g.num_vertices(), 3);
    assert_eq!(g.edge_weight(1, 2), Some(3));
}

#[test]
fn edge_list_reader_rejects_bad_ids_weights_and_counts() {
    let cases = [
        (
            "0 1 2\n1 4294967297 3\n",
            "line 2: vertex id 4294967297 out of range",
        ),
        ("0 1 2\n1 2 0\n", "line 2: edge weight 0"),
        (
            "# vertices 1099511627776\n0 1 2\n",
            "vertex count 1099511627776 exceeds the id space",
        ),
        // u32::MAX itself is the solver's "no vertex" sentinel.
        (
            "0 4294967295 1\n",
            "line 1: vertex id 4294967295 out of range",
        ),
    ];
    for (text, expect) in cases {
        let result = std::panic::catch_unwind(|| read_edge_list(text.as_bytes()))
            .unwrap_or_else(|_| panic!("{text:?}: the reader panicked"));
        assert_invalid(result, expect);
    }
}

#[test]
fn cli_stats_reports_crafted_files_without_a_backtrace() {
    let dir = std::env::temp_dir().join(format!("steiner-graph-io-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    for (name, bytes, expect) in crafted_binaries() {
        let path = dir.join(format!("{name}.bin"));
        std::fs::write(&path, bytes).expect("write crafted file");
        let out = Command::new(env!("CARGO_BIN_EXE_steiner-cli"))
            .args(["stats", "--graph", path.to_str().unwrap()])
            .output()
            .expect("spawn steiner-cli");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{name}: stats must fail");
        assert_ne!(out.status.code(), Some(101), "{name}: exit code of a panic");
        assert!(
            stderr.starts_with("error: loading ") && stderr.contains(expect),
            "{name}: stderr lacks the cause {expect:?}:\n{stderr}"
        );
        assert!(
            !stderr.contains("panicked") && !stderr.contains("backtrace"),
            "{name}: stderr shows a panic:\n{stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
