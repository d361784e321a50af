//! Versioned crash-resume snapshots for the streaming fleet replay.
//!
//! `FleetSimulator::run_stream_resumable` chains exact-carry epochs
//! sequentially and, at every epoch boundary, hands the caller
//! a [`ReplaySnapshot`]: the trace stream's resumable position
//! ([`crate::stream::StreamCheckpoint`]), the carried simulation state
//! (in-flight ledger, controller state, partial observation epoch), and
//! the metering of everything replayed so far. Feeding the snapshot back
//! as the `resume` argument replays the remaining epochs and produces a
//! [`crate::fleet::FleetReport`] **bit-identical** to an uninterrupted
//! run — kill the process at any epoch, reload the last snapshot, and
//! the report cannot tell.
//!
//! # What a version-6 snapshot holds
//!
//! An invocation is *settled* at a boundary when it lies below the
//! watermark `min(in-flight indices, pending retry/hedge indices,
//! events consumed)`: no attempt of it is in flight and no retry or
//! hedge of it is pending, so nothing later can re-bill, reclassify or
//! re-time it. The metering holds settled invocations only as fixed-size
//! accumulators — arrival-order sums of cost and latency inflation,
//! class counts, SLO violations — plus the sorted `(inflation, count)`
//! runs the p95 is selected from, one entry per distinct value. Beside
//! them it keeps the per-invocation records of the short unsettled tail,
//! the outcome adjustments still aimed at that tail, every retry and
//! hedge record and attempt ≥ 2 adjustment (their costs add after all
//! first-attempt costs, so they wait for the final reduction), and the
//! per-tick control samples (report output). A snapshot therefore grows
//! with in-flight work, distinct inflation values, ticks, and retry and
//! hedge records, not with the events replayed. Decoding checks every
//! invariant the fold relies on — ascending positive runs, class codes,
//! counts that add up to the settled invocations, tail length, and the
//! indices adjustments and in-flight or pending work target — so a
//! corrupt file is an error, never a panic.
//!
//! The stream checkpoint of a CSV trace is two integers: the row cursor
//! at the start of the minute that holds the next event (the rows of
//! every earlier minute, over all files of the scan's row table), and
//! how many of that minute's events were emitted. A resume reads no
//! trace input and re-expands at most one minute's events wherever it
//! lands, the middle of a gzip member included.
//!
//! # Wire format
//!
//! Snapshots serialize to a hand-rolled little-endian binary layout (no
//! external serialization crates): magic, [`SNAPSHOT_VERSION`], a replay
//! fingerprint (strategy + config + trace shape + cadence, so a snapshot
//! cannot silently resume a *different* replay), then the epoch header
//! and the length-prefixed checkpoint/carry/metering sections, closed by
//! a trailing FNV-64 checksum over every preceding byte. Floats travel
//! as IEEE-754 bit patterns — bit-identity survives the disk round-trip
//! by construction. Decoding validates the checksum first, then magic,
//! version, and exact length; truncation, bit flips, and version skew
//! are each a clean [`FreedomError::InvalidArgument`], never a panic or
//! a partial state.

use std::path::Path;

use crate::fleet::{Carry, EpochMetering};
use crate::stream::StreamCheckpoint;
use crate::{FreedomError, Result};

/// Current snapshot wire-format version. Bumped on any layout change;
/// decoders reject other versions rather than guessing. Version 2 added
/// the file index to CSV stream checkpoints (multi-file traces); version
/// 3 added the pending-retry heap and retry-budget carry state plus the
/// trailing FNV-64 integrity checksum; version 4 replaced the
/// per-invocation metering prefix with the settled accumulators plus
/// the unsettled tail; version 5 replaced the CSV checkpoint's file
/// index, byte offset and line number with one cursor into the scan's
/// row table; version 6 shrank the CSV checkpoint to that cursor, now at
/// the start of a minute (the rows of every earlier minute), plus the
/// emitted count of that minute, dropping the lookahead state and the
/// open rows.
pub const SNAPSHOT_VERSION: u32 = 6;

/// File magic: "FDSN" little-endian.
const MAGIC: u32 = u32::from_le_bytes(*b"FDSN");

/// FNV-1a 64-bit over `bytes` — the snapshot's integrity checksum. Not
/// cryptographic; it exists to turn torn writes and bit rot into clean
/// decode errors instead of silently resuming corrupt state.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A resumable position in a streaming fleet replay, taken at an epoch
/// boundary. Opaque outside the crate: produce one with
/// `FleetSimulator::run_stream_resumable`'s snapshot callback, persist
/// it with [`ReplaySnapshot::write_to`] (or [`ReplaySnapshot::to_bytes`]),
/// and feed it back as the `resume` argument after a crash.
#[derive(Debug, Clone)]
pub struct ReplaySnapshot {
    /// Wire-format version this snapshot was encoded with.
    pub(crate) version: u32,
    /// Fingerprint of the replay (strategy, config, fleet shape, trace
    /// shape, snapshot cadence) this position belongs to.
    pub(crate) fingerprint: u64,
    /// Next epoch index to simulate: epochs `0..epoch` are folded
    /// into `metering`, the stream checkpoint sits at the first event
    /// of epoch `epoch`.
    pub(crate) epoch: u64,
    /// Snapshot cadence in integer nanoseconds (the epoch length).
    pub(crate) epoch_nanos: u64,
    /// Trace events consumed by the folded prefix.
    pub(crate) events_consumed: u64,
    /// The trace stream's position at the boundary.
    pub(crate) checkpoint: StreamCheckpoint,
    /// Everything crossing the boundary: in-flight ledger, controller
    /// state, partial observation epoch.
    pub(crate) carry: Carry,
    /// Metering of epochs `0..epoch`: settled invocations folded into
    /// fixed-size accumulators plus inflation runs, the unsettled tail
    /// as per-invocation records, and the retry/hedge records, attempt
    /// ≥ 2 adjustments and control samples the final reduction needs.
    pub(crate) metering: EpochMetering,
}

impl ReplaySnapshot {
    /// Next epoch index to simulate on resume.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Trace events already consumed by the snapshotted prefix.
    pub fn events_consumed(&self) -> u64 {
        self.events_consumed
    }

    /// Snapshot cadence (epoch length) in integer nanoseconds.
    pub fn epoch_nanos(&self) -> u64 {
        self.epoch_nanos
    }

    /// Fingerprint of the replay this snapshot belongs to; resuming
    /// under a different strategy/config/trace is rejected.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Serializes the snapshot to its versioned wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Wire::new();
        w.u32(MAGIC);
        w.u32(self.version);
        w.u64(self.fingerprint);
        w.u64(self.epoch);
        w.u64(self.epoch_nanos);
        w.u64(self.events_consumed);
        self.checkpoint.save(&mut w);
        self.carry.save(&mut w);
        self.metering.save(&mut w);
        let mut bytes = w.into_bytes();
        let checksum = fnv64(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        bytes
    }

    /// Decodes a snapshot, validating the trailing checksum first, then
    /// magic, version, and exact length.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let Some(body_len) = bytes.len().checked_sub(8) else {
            return Err(FreedomError::InvalidArgument(
                "snapshot: too short to hold the integrity checksum".into(),
            ));
        };
        let stored = u64::from_le_bytes(bytes[body_len..].try_into().unwrap());
        if stored != fnv64(&bytes[..body_len]) {
            return Err(FreedomError::InvalidArgument(
                "snapshot: checksum mismatch (truncated, torn, or bit-flipped)".into(),
            ));
        }
        let mut r = Unwire::new(&bytes[..body_len]);
        if r.u32()? != MAGIC {
            return Err(FreedomError::InvalidArgument(
                "snapshot: bad magic (not a replay snapshot)".into(),
            ));
        }
        let version = r.u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(FreedomError::InvalidArgument(format!(
                "snapshot: version {version} is not the supported {SNAPSHOT_VERSION}"
            )));
        }
        let (fingerprint, epoch, epoch_nanos) = (r.u64()?, r.u64()?, r.u64()?);
        let events_consumed = r.u64()?;
        let checkpoint = StreamCheckpoint::load(&mut r)?;
        let carry = Carry::load(&mut r)?;
        let metering = EpochMetering::load(&mut r, events_consumed, &carry)?;
        let snap = Self {
            version,
            fingerprint,
            epoch,
            epoch_nanos,
            events_consumed,
            checkpoint,
            carry,
            metering,
        };
        r.finish()?;
        Ok(snap)
    }

    /// Writes the snapshot to `path` atomically: encode to a sibling
    /// temporary file, then rename over the target — a crash mid-write
    /// leaves either the previous snapshot or none, never a torn one.
    pub fn write_to(&self, path: impl AsRef<Path>) -> Result<()> {
        let path = path.as_ref();
        let io_err = |what: &str, e: std::io::Error| {
            FreedomError::InvalidArgument(format!("snapshot {what} {}: {e}", path.display()))
        };
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(".tmp.{}", std::process::id()));
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::write(&tmp, self.to_bytes()).map_err(|e| io_err("write", e))?;
        std::fs::rename(&tmp, path).map_err(|e| {
            std::fs::remove_file(&tmp).ok();
            io_err("rename", e)
        })
    }

    /// Reads and decodes a snapshot previously written with
    /// [`ReplaySnapshot::write_to`].
    pub fn read_from(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|e| {
            FreedomError::InvalidArgument(format!("snapshot read {}: {e}", path.display()))
        })?;
        Self::from_bytes(&bytes)
    }
}

/// Little-endian byte writer for the snapshot wire format.
pub(crate) struct Wire {
    buf: Vec<u8>,
}

impl Wire {
    pub(crate) fn new() -> Self {
        Self { buf: Vec::new() }
    }

    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Floats travel as IEEE-754 bit patterns: the round-trip is the
    /// identity on every value, NaN payloads and signed zeros included.
    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Length prefix for a following sequence.
    pub(crate) fn len(&mut self, n: usize) {
        self.u64(n as u64);
    }
}

/// Checked little-endian reader over a snapshot byte buffer.
pub(crate) struct Unwire<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Unwire<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        let Some(end) = end else {
            return Err(FreedomError::InvalidArgument(
                "snapshot: truncated (unexpected end of data)".into(),
            ));
        };
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    pub(crate) fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(FreedomError::InvalidArgument(format!(
                "snapshot: invalid bool byte {v}"
            ))),
        }
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A length prefix, sanity-capped so a corrupt prefix cannot drive
    /// a giant pre-allocation: every element of every sequence in the
    /// format occupies at least one byte, so a plausible length never
    /// exceeds the bytes remaining.
    pub(crate) fn len(&mut self) -> Result<usize> {
        let n = self.u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if n > remaining {
            return Err(FreedomError::InvalidArgument(format!(
                "snapshot: length prefix {n} exceeds the {remaining} bytes remaining"
            )));
        }
        Ok(n as usize)
    }

    /// Requires the buffer to be fully consumed.
    pub(crate) fn finish(&self) -> Result<()> {
        if self.pos != self.buf.len() {
            return Err(FreedomError::InvalidArgument(format!(
                "snapshot: {} trailing bytes after the decoded state",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn wire_round_trips_every_primitive() {
        let mut w = Wire::new();
        w.u8(0xAB);
        w.bool(true);
        w.bool(false);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 7);
        w.f64(-0.0);
        w.f64(f64::from_bits(0x7FF8_0000_0000_1234)); // NaN payload
        w.len(3);
        w.u8(1);
        w.u8(2);
        w.u8(3);
        let bytes = w.into_bytes();
        let mut r = Unwire::new(&bytes);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 7);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64().unwrap().to_bits(), 0x7FF8_0000_0000_1234);
        let n = r.len().unwrap();
        assert_eq!(n, 3);
        for expected in 1..=3u8 {
            assert_eq!(r.u8().unwrap(), expected);
        }
        // Exhaustion and truncation are clean errors:
        assert!(r.finish().is_ok());
        assert!(r.u8().is_err());
        let mut r2 = Unwire::new(&bytes[..2]);
        r2.u8().unwrap();
        assert!(r2.u32().is_err());
    }

    /// Seals a raw body with the trailing checksum the decoder expects,
    /// so header-validation tests get past the integrity layer.
    pub(crate) fn sealed(body: Vec<u8>) -> Vec<u8> {
        let mut bytes = body;
        let checksum = fnv64(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        bytes
    }

    #[test]
    fn corrupt_headers_are_rejected() {
        assert!(ReplaySnapshot::from_bytes(b"").is_err());
        assert!(ReplaySnapshot::from_bytes(b"NOPE").is_err());
        // Wrong magic and version skew each fail cleanly even when the
        // checksum itself is intact.
        let mut w = Wire::new();
        w.u32(u32::from_le_bytes(*b"XXXX"));
        w.u32(SNAPSHOT_VERSION);
        assert!(ReplaySnapshot::from_bytes(&sealed(w.into_bytes())).is_err());
        let mut w = Wire::new();
        w.u32(MAGIC);
        w.u32(SNAPSHOT_VERSION + 1);
        assert!(ReplaySnapshot::from_bytes(&sealed(w.into_bytes())).is_err());
        // A giant length prefix fails cleanly instead of allocating.
        let mut w = Wire::new();
        w.u64(u64::MAX);
        let bytes = w.into_bytes();
        assert!(Unwire::new(&bytes).len().is_err());
    }

    #[test]
    fn every_single_bit_flip_breaks_the_checksum() {
        // A sealed header: any one-bit corruption anywhere in the file —
        // body or checksum — must be rejected before decoding begins.
        let mut w = Wire::new();
        w.u32(MAGIC);
        w.u32(SNAPSHOT_VERSION);
        w.u64(0x1234_5678_9abc_def0);
        let bytes = sealed(w.into_bytes());
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[byte] ^= 1 << bit;
                let err =
                    ReplaySnapshot::from_bytes(&flipped).expect_err("bit flip must not decode");
                assert!(
                    format!("{err}").contains("checksum"),
                    "flip at byte {byte} bit {bit} failed past the checksum: {err}"
                );
            }
        }
    }

    #[test]
    fn missing_files_and_bad_paths_are_clean_errors() {
        assert!(ReplaySnapshot::read_from("/nonexistent/replay.snap").is_err());
    }
}
