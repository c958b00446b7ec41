//! Binary branch-trace record/replay for the PaCo reproduction.
//!
//! The simulator normally regenerates every instruction stream from
//! synthetic CFG walks on each run. This crate adds the missing
//! substrate of trace-driven methodology: **record** the goodpath
//! instruction stream of any workload (or of a live simulation, via the
//! simulator's `TraceSink` hook) into a compact binary file, then
//! **replay** it through any simulator entry point via
//! [`paco_workloads::TraceWorkload`] — bit-for-bit identical to the live
//! run, including wrong-path excursions, which are re-synthesized from
//! parameters carried in the trace header.
//!
//! # On-disk format (version 1)
//!
//! All integers are little-endian. A trace is a fixed header followed by
//! independent, checksummed chunks:
//!
//! ```text
//! file   := header chunk*
//! header := magic        8 bytes   b"PACOTRAC"
//!           version      u32       1
//!           header_len   u32       72 + name_len
//!           record_count u64       total records; 0xFFFF…FF until finalized
//!           code_base    u64       wrong-path code footprint base address
//!           code_bytes   u64       wrong-path code footprint size
//!           data_base    u64       wrong-path data region base address
//!           data_footprint u64     wrong-path data footprint size
//!           data_locality u64      f64 bits, stream locality in [0,1]
//!           data_streams u32       number of sequential data streams
//!           name_len     u32       workload name length (bytes)
//!           name         name_len  workload name, UTF-8
//! chunk  := record_count u32       records in this chunk (≤ 4096, > 0)
//!           payload_len  u32       encoded payload bytes
//!           crc32        u32       CRC-32 (IEEE) of the payload
//!           payload      payload_len bytes
//! ```
//!
//! Each chunk's payload is a sequence of records; the delta-coding state
//! resets at every chunk boundary, so chunks decode independently and
//! files stream without being loaded into memory. Per record:
//!
//! ```text
//! record := flags        u8        bits 0–3: instruction-class code
//!                                  (paco_types::InstrClass::code);
//!                                  bit 4: taken, bit 5: has memory
//!                                  address, bit 6: has dependencies
//!           pc_delta     uvarint   zigzag(pc − previous record's pc)
//!          [deps         2×uvarint dependency distances, if bit 6]
//!          [mem_delta    uvarint   zigzag(addr − previous memory
//!                                  address), if bit 5]
//!          [target_delta uvarint   zigzag(target − pc), if the class is
//!                                  control flow]
//! ```
//!
//! `uvarint` is LEB128; `zigzag` maps signed deltas to unsigned
//! (`(v << 1) ^ (v >> 63)`). Sequential straight-line code costs two
//! bytes per instruction (flags + a one-byte +4 PC delta); in practice
//! whole traces land around 3–4 bytes per retired instruction.
//!
//! # Record, then replay
//!
//! ```
//! use std::io::Cursor;
//! use paco_trace::{workload_from_bytes, TraceMeta, TraceWriter};
//! use paco_workloads::{BenchmarkId, Workload};
//!
//! // Record 10k instructions of the gzip model…
//! let mut live = BenchmarkId::Gzip.build(42);
//! let mut writer =
//!     TraceWriter::new(Cursor::new(Vec::new()), &TraceMeta::for_workload(&live)).unwrap();
//! for _ in 0..10_000 {
//!     writer.push_instr(&live.next_instr()).unwrap();
//! }
//! let (summary, cursor) = writer.finish().unwrap();
//! assert_eq!(summary.records, 10_000);
//!
//! // …and replay them: the streams are identical.
//! let mut replay = workload_from_bytes(cursor.into_inner()).unwrap();
//! let mut check = BenchmarkId::Gzip.build(42);
//! for _ in 0..10_000 {
//!     assert_eq!(replay.next_instr(), check.next_instr());
//! }
//! ```
//!
//! The `paco-trace` binary (`src/bin/paco_trace.rs`) wraps this into
//! `record`, `replay`, `info` and `diff` subcommands.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod format;
mod reader;
mod record;
mod workload;
mod writer;

pub use error::TraceError;
pub use format::{
    crc32, read_uvarint, unzigzag, write_uvarint, zigzag, TraceMeta, CHUNK_RECORDS, COUNT_UNKNOWN,
    FORMAT_VERSION, MAGIC,
};
pub use reader::{Records, TraceReader};
pub use record::{decode_record, encode_record, DeltaState, TraceRecord};
pub use workload::{
    collect_records, load_workload, open_workload, workload_from_bytes, FileReplaySource,
    TraceReplaySource,
};
pub use writer::{TraceRecorder, TraceSummary, TraceWriter};
