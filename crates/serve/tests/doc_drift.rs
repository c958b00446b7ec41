//! Doc-drift guard: the wire-protocol facts quoted in
//! `docs/PROTOCOL.md` must match the constants in
//! `crates/serve/src/proto.rs`.
//!
//! The document is normative prose for humans; this suite parses its
//! code-literal tables (frame kinds, error codes, the payload cap, the
//! limits table, the protocol version, the EVENTS record and PREDICTIONS outcome layouts,
//! the snapshot state version) and compares them against the implementation, so neither can
//! change without the other.

use std::path::Path;

use paco_serve::{ErrorCode, FrameKind, PROTOCOL_VERSION};

fn protocol_md() -> String {
    // The doc lives at the repo root; the test runs with the crate as
    // its working directory.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/PROTOCOL.md");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// Parses markdown-table rows whose first cell is a code literal:
/// `| 0x01 | HELLO | ... |` → `(0x01, "HELLO")`.
fn code_name_rows(doc: &str, radix: u32) -> Vec<(u8, String)> {
    let mut rows = Vec::new();
    for line in doc.lines() {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        // A table row renders as ["", first, second, ..., ""].
        if cells.len() < 4 || !cells[0].is_empty() {
            continue;
        }
        // Hex rows must be spelled 0xNN, decimal rows must not be —
        // keeps the frame-kind scan from swallowing the error-code
        // table and vice versa.
        let code_text = if radix == 16 {
            let Some(stripped) = cells[1].strip_prefix("0x") else {
                continue;
            };
            stripped
        } else if cells[1].starts_with("0x") {
            continue;
        } else {
            cells[1]
        };
        let Ok(code) = u8::from_str_radix(code_text, radix) else {
            continue;
        };
        let name = cells[2].to_string();
        if name.is_empty() || name.chars().any(|c| c.is_lowercase()) {
            continue; // prose cell, not a NAME column
        }
        rows.push((code, name));
    }
    rows
}

#[test]
fn frame_kind_table_matches_proto() {
    let doc = protocol_md();
    let rows = code_name_rows(&doc, 16);
    let expected: &[(FrameKind, &str)] = &[
        (FrameKind::Hello, "HELLO"),
        (FrameKind::Welcome, "WELCOME"),
        (FrameKind::Events, "EVENTS"),
        (FrameKind::Predictions, "PREDICTIONS"),
        (FrameKind::SnapshotReq, "SNAPSHOT_REQ"),
        (FrameKind::Snapshot, "SNAPSHOT"),
        (FrameKind::Bye, "BYE"),
        (FrameKind::StatsReq, "STATS_REQ"),
        (FrameKind::Stats, "STATS"),
        (FrameKind::Migrate, "MIGRATE"),
        (FrameKind::Error, "ERROR"),
    ];
    for &(kind, name) in expected {
        let documented = rows
            .iter()
            .find(|(_, n)| n == name)
            .unwrap_or_else(|| panic!("docs/PROTOCOL.md: no table row for frame {name}"));
        assert_eq!(
            documented.0, kind as u8,
            "docs/PROTOCOL.md documents {name} as {:#04x}, proto.rs says {:#04x}",
            documented.0, kind as u8
        );
    }
    // And nothing undocumented: every hex-coded row must name a known
    // frame (catches a doc that invents or retains a stale opcode).
    for (code, name) in &rows {
        if name.chars().all(|c| c.is_ascii_uppercase() || c == '_') && !name.is_empty() {
            assert!(
                expected.iter().any(|(_, n)| n == name),
                "docs/PROTOCOL.md documents unknown frame {name} ({code:#04x})"
            );
        }
    }
}

#[test]
fn error_code_table_matches_proto() {
    let doc = protocol_md();
    let rows = code_name_rows(&doc, 10);
    let expected: &[(ErrorCode, &str)] = &[
        (ErrorCode::ProtocolMismatch, "PROTOCOL_MISMATCH"),
        (ErrorCode::ConfigInvalid, "CONFIG_INVALID"),
        (ErrorCode::ConfigHashMismatch, "CONFIG_HASH_MISMATCH"),
        (ErrorCode::UnknownSession, "UNKNOWN_SESSION"),
        (ErrorCode::BadState, "BAD_STATE"),
        (ErrorCode::Malformed, "MALFORMED"),
        (ErrorCode::UnknownFamily, "UNKNOWN_FAMILY"),
    ];
    for &(code, name) in expected {
        let documented = rows
            .iter()
            .find(|(_, n)| n == name)
            .unwrap_or_else(|| panic!("docs/PROTOCOL.md: no table row for error {name}"));
        assert_eq!(
            documented.0, code as u8,
            "docs/PROTOCOL.md documents {name} as {}, proto.rs says {}",
            documented.0, code as u8
        );
        // The documented byte must decode back to the same typed code.
        assert_eq!(ErrorCode::from_byte(documented.0), Some(code));
    }
}

#[test]
fn payload_cap_matches_proto() {
    let doc = protocol_md();
    // The framing section quotes the cap as "<= N MiB".
    let quoted_mib: usize = doc
        .lines()
        .find_map(|l| {
            let (before, _) = l.split_once("MiB")?;
            let (_, num) = before.rsplit_once("<=")?;
            num.trim().parse().ok()
        })
        .expect("docs/PROTOCOL.md must quote the payload cap as `<= N MiB`");
    assert_eq!(
        quoted_mib << 20,
        paco_serve::proto::MAX_FRAME_PAYLOAD,
        "docs/PROTOCOL.md quotes a {quoted_mib} MiB payload cap, proto.rs caps at {} bytes",
        paco_serve::proto::MAX_FRAME_PAYLOAD
    );
}

#[test]
fn limit_table_matches_proto() {
    let doc = protocol_md();
    let documented: Vec<(String, usize)> = doc
        .lines()
        .filter_map(|line| {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            let name = cells.get(1)?.strip_prefix('`')?.strip_suffix('`')?;
            Some((name.to_string(), cells.get(2)?.parse().ok()?))
        })
        .collect();
    let expected = [
        ("MAX_FRAME_PAYLOAD", paco_serve::proto::MAX_FRAME_PAYLOAD),
        ("MAX_EVENTS_PER_FRAME", paco_serve::MAX_EVENTS_PER_FRAME),
        ("MAX_FAMILY_NAME", paco_serve::proto::MAX_FAMILY_NAME),
    ];
    for (name, value) in expected {
        let row = documented
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("docs/PROTOCOL.md: no limit row for {name}"));
        assert_eq!(
            row.1, value,
            "docs/PROTOCOL.md documents {name} as {}, proto.rs says {value}",
            row.1
        );
    }
    assert_eq!(
        documented.len(),
        expected.len(),
        "docs/PROTOCOL.md documents a limit proto.rs lacks: {documented:?}"
    );
}

#[test]
fn protocol_version_matches_proto() {
    let doc = protocol_md();
    // The HELLO section pins the version: "must equal N".
    let quoted: u32 = doc
        .lines()
        .find_map(|l| {
            let (_, after) = l.split_once("must equal")?;
            after.split_whitespace().next()?.parse().ok()
        })
        .expect("docs/PROTOCOL.md must pin the protocol version as `must equal N`");
    assert_eq!(
        quoted, PROTOCOL_VERSION,
        "docs/PROTOCOL.md pins protocol version {quoted}, proto.rs speaks {PROTOCOL_VERSION}"
    );
    // The title quotes it too: "(version N)".
    assert!(
        doc.lines()
            .next()
            .is_some_and(|l| l.contains(&format!("(version {PROTOCOL_VERSION})"))),
        "docs/PROTOCOL.md title must name the current protocol version"
    );
}

#[test]
fn snapshot_state_version_matches_the_pipeline() {
    let doc = protocol_md();
    // The snapshot section heading pins it: "(state version `N`)".
    let quoted: u8 = doc
        .lines()
        .find_map(|l| {
            let (_, after) = l.split_once("(state version `")?;
            after.split_once('`')?.0.parse().ok()
        })
        .expect("docs/PROTOCOL.md must pin the snapshot blob as `(state version `N`)`");
    let config = paco_sim::OnlineConfig::tiny(paco_sim::EstimatorKind::None);
    let mut blob = Vec::new();
    paco_sim::OnlinePipeline::new(&config).save_state(&mut blob);
    assert_eq!(
        quoted, blob[0],
        "docs/PROTOCOL.md pins state version {quoted}, snapshots carry {}",
        blob[0]
    );
}

/// The field names of a `name :=` layout block: one field per line at
/// the column of the first field; continuation lines are indented
/// further.
fn layout_fields<'a>(doc: &'a str, head: &str) -> Vec<&'a str> {
    let mut lines = doc.lines().skip_while(|l| !l.starts_with(head));
    let first = lines
        .next()
        .unwrap_or_else(|| panic!("docs/PROTOCOL.md must spell a `{head} ...` layout block"));
    let column = first[head.len()..]
        .find(|c: char| !c.is_whitespace())
        .map(|i| i + head.len())
        .unwrap_or_else(|| panic!("the `{head}` block names a first field"));
    std::iter::once(&first[column..])
        .chain(lines.take_while(|l| !l.starts_with("```")).filter_map(|l| {
            let rest = l.get(column..)?;
            (l[..column].trim().is_empty() && !rest.starts_with(' ')).then_some(rest)
        }))
        .filter_map(|rest| rest.split_whitespace().next())
        .map(|name| name.trim_matches(['[', ']']))
        .collect()
}

#[test]
fn predictions_outcome_layout_matches_proto() {
    let doc = protocol_md();
    let fields = layout_fields(&doc, "outcome :=");
    assert_eq!(
        fields,
        ["flags", "score"],
        "docs/PROTOCOL.md documents outcome fields {fields:?}; proto.rs encodes flags + score"
    );

    // The decode formula quotes the fixed-point scale.
    let quoted: u32 = doc
        .split_once("2^(−score/")
        .and_then(|(_, rest)| rest.split(')').next()?.parse().ok())
        .expect("docs/PROTOCOL.md must quote the decode as `2^(−score/N)`");
    assert_eq!(
        quoted,
        paco::EncodedProb::SCALE,
        "docs/PROTOCOL.md decodes with scale {quoted}, EncodedProb::SCALE is {}",
        paco::EncodedProb::SCALE
    );
}

#[test]
fn events_record_layout_matches_proto() {
    let doc = protocol_md();
    let fields = layout_fields(&doc, "event :=");
    assert_eq!(
        fields,
        ["flags", "pc_delta"],
        "docs/PROTOCOL.md documents event fields {fields:?}; proto.rs encodes flags + pc_delta"
    );

    // The flags field quotes the taken bit as "bit N: taken".
    let block: Vec<&str> = doc
        .lines()
        .skip_while(|l| !l.starts_with("event :="))
        .take_while(|l| !l.starts_with("```"))
        .collect();
    let bit: u32 = block
        .iter()
        .find_map(|l| {
            let (before, _) = l.split_once(": taken")?;
            before.rsplit_once("bit ")?.1.trim().parse().ok()
        })
        .expect("docs/PROTOCOL.md must quote the event's taken bit as `bit N: taken`");
    assert_eq!(
        1u8 << bit,
        paco_serve::proto::EVENT_FLAG_TAKEN,
        "docs/PROTOCOL.md puts taken at bit {bit}, proto.rs at {:#04x}",
        paco_serve::proto::EVENT_FLAG_TAKEN
    );
}
