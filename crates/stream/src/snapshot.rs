//! Versioned binary engine snapshots.
//!
//! A snapshot freezes the *restart-relevant* state of a maintenance
//! engine: the authoritative edge set, the certificate anchors, the
//! incumbent witness, and — for sketch-bearing engines — the subsampling
//! level and admission seed. Everything else (degree trackers, retained
//! samples, witness edge counts) is a **pure function** of those, so a
//! restore recomputes it instead of trusting bytes: deterministic seeded
//! admission means the retained sample never needs to be serialized at
//! all, which is the property that keeps snapshots `O(m)` rather than
//! `O(m + state)` and makes the round-trip identity testable
//! (`snapshot(restore(s)) == s` byte for byte, because every serialized
//! list is written in canonical sorted order).
//!
//! # Format (version 2)
//!
//! Version 2 widens both payloads with the engines' lifetime metric
//! counters (ingest tallies and resolve-cause splits), so a restored
//! engine's `dds_*_total` series continue from where the snapshotted run
//! left off instead of restarting at zero.
//!
//! ```text
//! magic   4 bytes  "DDSS"
//! version u32      2
//! kind    u8       0 = StreamEngine, 1 = ShardedEngine, 2 = cluster worker
//! cursor  u64      byte offset into the source event file (0 if unused);
//!                  follow-mode checkpoints resume tailing from here
//! payload          kind-specific (see the engine's snapshot method)
//! ```
//!
//! All integers are little-endian; `f64`s are serialized as their IEEE-754
//! bit patterns (bit-exact round trips — a certificate anchor must come
//! back as *the same float*, not a re-parsed approximation); lists are a
//! `u64` count followed by the elements.

use std::fmt;
use std::fs::File;
use std::io::Read;
use std::path::Path;

use dds_graph::{Pair, VertexId};

/// The four magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"DDSS";

/// The current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Which engine wrote the snapshot (byte 8 of the header).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotKind {
    /// A [`crate::StreamEngine`] snapshot.
    Stream = 0,
    /// A `dds-shard` `ShardedEngine` snapshot.
    Shard = 1,
    /// A `dds-cluster` worker-partition snapshot.
    ClusterWorker = 2,
}

impl SnapshotKind {
    fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(SnapshotKind::Stream),
            1 => Some(SnapshotKind::Shard),
            2 => Some(SnapshotKind::ClusterWorker),
            _ => None,
        }
    }
}

/// Errors from snapshot encode/decode.
#[derive(Debug)]
pub enum SnapshotError {
    /// An underlying IO failure.
    Io(std::io::Error),
    /// The bytes do not parse as the expected snapshot.
    Format(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::Format(msg) => write!(f, "snapshot format error: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// Builds a snapshot byte stream (header written on construction).
#[derive(Debug)]
pub struct SnapshotWriter {
    bytes: Vec<u8>,
}

impl SnapshotWriter {
    /// Starts a snapshot of `kind`, recording the source-stream `cursor`
    /// (byte offset a follow loop should resume from; 0 if unused).
    #[must_use]
    pub fn new(kind: SnapshotKind, cursor: u64) -> Self {
        let mut w = SnapshotWriter { bytes: Vec::new() };
        w.bytes.extend_from_slice(&SNAPSHOT_MAGIC);
        w.put_u32(SNAPSHOT_VERSION);
        w.put_u8(kind as u8);
        w.put_u64(cursor);
        w
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.bytes.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its exact bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends an edge list in **canonical order** (sorts in place first,
    /// so identical edge sets always serialize to identical bytes
    /// regardless of hash-iteration order).
    pub fn put_edges(&mut self, edges: &mut [(VertexId, VertexId)]) {
        edges.sort_unstable();
        self.put_u64(edges.len() as u64);
        for &(u, v) in edges.iter() {
            self.put_u32(u);
            self.put_u32(v);
        }
    }

    /// Appends an optional pair (presence byte, then the sorted sides the
    /// [`Pair`] invariant already maintains).
    pub fn put_pair(&mut self, pair: Option<&Pair>) {
        match pair {
            None => self.put_u8(0),
            Some(pair) => {
                self.put_u8(1);
                self.put_u64(pair.s().len() as u64);
                for &u in pair.s() {
                    self.put_u32(u);
                }
                self.put_u64(pair.t().len() as u64);
                for &v in pair.t() {
                    self.put_u32(v);
                }
            }
        }
    }

    /// The finished byte stream.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        self.bytes
    }
}

/// Writes snapshot bytes to `path` atomically ([`dds_obs::write_atomic`]:
/// a `<path>.tmp` sibling, then a rename) — a crashed checkpoint never
/// leaves a half-written snapshot where a restore would find it, and
/// checkpoints that differ only in extension (`shard.0`, `shard.1`) never
/// share a staging file.
///
/// # Errors
/// Returns [`SnapshotError::Io`] on write/rename failure.
pub fn write_snapshot_file(bytes: &[u8], path: impl AsRef<Path>) -> Result<(), SnapshotError> {
    Ok(dds_obs::write_atomic(path.as_ref(), bytes)?)
}

/// Parses a snapshot byte stream (header validated on open).
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// Opens a snapshot, validating magic/version and that it was written
    /// by the expected engine `kind`. Returns the reader positioned at the
    /// payload plus the stored cursor.
    ///
    /// # Errors
    /// Returns [`SnapshotError::Format`] on bad magic, unknown version, or
    /// a kind mismatch.
    pub fn open(bytes: &'a [u8], kind: SnapshotKind) -> Result<(Self, u64), SnapshotError> {
        let mut r = SnapshotReader { bytes, pos: 0 };
        let magic: [u8; 4] = [r.take_u8()?, r.take_u8()?, r.take_u8()?, r.take_u8()?];
        if magic != SNAPSHOT_MAGIC {
            return Err(SnapshotError::Format(format!(
                "bad magic {magic:?} (not a dds snapshot)"
            )));
        }
        let version = r.take_u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::Format(format!(
                "unsupported snapshot version {version} (this build reads {SNAPSHOT_VERSION})"
            )));
        }
        let raw_kind = r.take_u8()?;
        let found = SnapshotKind::from_u8(raw_kind)
            .ok_or_else(|| SnapshotError::Format(format!("unknown engine kind {raw_kind}")))?;
        if found != kind {
            return Err(SnapshotError::Format(format!(
                "snapshot was written by a {found:?} engine, expected {kind:?}"
            )));
        }
        let cursor = r.take_u64()?;
        Ok((r, cursor))
    }

    fn need(&self, len: usize) -> Result<(), SnapshotError> {
        // Checked: `len` can come straight from a corrupt length prefix
        // near usize::MAX, and overflow here must be a Format error, not
        // a panic (or a wrapped-past-the-guard capacity abort).
        let ok = self
            .pos
            .checked_add(len)
            .is_some_and(|end| end <= self.bytes.len());
        if !ok {
            return Err(SnapshotError::Format(format!(
                "truncated snapshot: wanted {len} bytes at offset {}, have {}",
                self.pos,
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }

    /// Reads one byte.
    ///
    /// # Errors
    /// Returns [`SnapshotError::Format`] past end of input.
    pub fn take_u8(&mut self) -> Result<u8, SnapshotError> {
        self.need(1)?;
        let v = self.bytes[self.pos];
        self.pos += 1;
        Ok(v)
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    /// Returns [`SnapshotError::Format`] past end of input.
    pub fn take_u32(&mut self) -> Result<u32, SnapshotError> {
        self.need(4)?;
        let v = u32::from_le_bytes(self.bytes[self.pos..self.pos + 4].try_into().unwrap());
        self.pos += 4;
        Ok(v)
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    /// Returns [`SnapshotError::Format`] past end of input.
    pub fn take_u64(&mut self) -> Result<u64, SnapshotError> {
        self.need(8)?;
        let v = u64::from_le_bytes(self.bytes[self.pos..self.pos + 8].try_into().unwrap());
        self.pos += 8;
        Ok(v)
    }

    /// Reads an `f64` from its exact bit pattern.
    ///
    /// # Errors
    /// Returns [`SnapshotError::Format`] past end of input.
    pub fn take_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads an edge list.
    ///
    /// # Errors
    /// Returns [`SnapshotError::Format`] on truncation or an implausible
    /// length prefix.
    pub fn take_edges(&mut self) -> Result<Vec<(VertexId, VertexId)>, SnapshotError> {
        let len = self.take_u64()? as usize;
        // 8 bytes per edge: reject length prefixes the buffer cannot hold
        // before allocating.
        self.need(len.saturating_mul(8))?;
        let mut edges = Vec::with_capacity(len);
        for _ in 0..len {
            let u = self.take_u32()?;
            let v = self.take_u32()?;
            edges.push((u, v));
        }
        Ok(edges)
    }

    /// Reads an optional pair.
    ///
    /// # Errors
    /// Returns [`SnapshotError::Format`] on truncation or a bad presence
    /// byte.
    pub fn take_pair(&mut self) -> Result<Option<Pair>, SnapshotError> {
        match self.take_u8()? {
            0 => Ok(None),
            1 => {
                let s_len = self.take_u64()? as usize;
                self.need(s_len.saturating_mul(4))?;
                let s: Vec<VertexId> = (0..s_len)
                    .map(|_| self.take_u32())
                    .collect::<Result<_, _>>()?;
                let t_len = self.take_u64()? as usize;
                self.need(t_len.saturating_mul(4))?;
                let t: Vec<VertexId> = (0..t_len)
                    .map(|_| self.take_u32())
                    .collect::<Result<_, _>>()?;
                Ok(Some(Pair::new(s, t)))
            }
            other => Err(SnapshotError::Format(format!(
                "bad pair presence byte {other}"
            ))),
        }
    }

    /// Asserts the payload was consumed exactly (a length-drifted reader
    /// is a format bug, not a tolerable condition).
    ///
    /// # Errors
    /// Returns [`SnapshotError::Format`] if bytes remain.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.pos != self.bytes.len() {
            return Err(SnapshotError::Format(format!(
                "{} trailing bytes after the payload",
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// Reads a whole snapshot file into memory (snapshots are `O(m)` — a few
/// MB at the scales this stack targets).
///
/// # Errors
/// Returns [`SnapshotError::Io`] on read failure.
pub fn read_snapshot_file(path: impl AsRef<Path>) -> Result<Vec<u8>, SnapshotError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapshotWriter::new(SnapshotKind::Stream, 42);
        w.put_u8(7);
        w.put_u32(123_456);
        w.put_u64(u64::MAX - 3);
        w.put_f64(std::f64::consts::PI);
        let mut edges = vec![(5, 6), (1, 2), (3, 4)];
        w.put_edges(&mut edges);
        w.put_pair(None);
        w.put_pair(Some(&Pair::new(vec![2, 0], vec![9])));
        let bytes = w.finish();

        let (mut r, cursor) = SnapshotReader::open(&bytes, SnapshotKind::Stream).unwrap();
        assert_eq!(cursor, 42);
        assert_eq!(r.take_u8().unwrap(), 7);
        assert_eq!(r.take_u32().unwrap(), 123_456);
        assert_eq!(r.take_u64().unwrap(), u64::MAX - 3);
        assert_eq!(
            r.take_f64().unwrap().to_bits(),
            std::f64::consts::PI.to_bits()
        );
        assert_eq!(r.take_edges().unwrap(), vec![(1, 2), (3, 4), (5, 6)]);
        assert_eq!(r.take_pair().unwrap(), None);
        let pair = r.take_pair().unwrap().unwrap();
        assert_eq!((pair.s(), pair.t()), (&[0, 2][..], &[9][..]));
        r.finish().unwrap();
    }

    #[test]
    fn header_validation_rejects_garbage() {
        assert!(matches!(
            SnapshotReader::open(b"nope", SnapshotKind::Stream),
            Err(SnapshotError::Format(_))
        ));
        // Wrong kind.
        let bytes = SnapshotWriter::new(SnapshotKind::Shard, 0).finish();
        let err = SnapshotReader::open(&bytes, SnapshotKind::Stream).unwrap_err();
        assert!(err.to_string().contains("Shard"), "{err}");
        // Wrong version.
        let mut bytes = SnapshotWriter::new(SnapshotKind::Stream, 0).finish();
        bytes[4] = 99;
        let err = SnapshotReader::open(&bytes, SnapshotKind::Stream).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = SnapshotWriter::new(SnapshotKind::Stream, 0);
        w.put_u64(10); // announces 10 edges, provides none
        let bytes = w.finish();
        let (mut r, _) = SnapshotReader::open(&bytes, SnapshotKind::Stream).unwrap();
        assert!(matches!(r.take_edges(), Err(SnapshotError::Format(_))));
    }

    #[test]
    fn absurd_length_prefixes_error_instead_of_aborting() {
        // A corrupt count near u64::MAX must be a Format error — not an
        // addition overflow or a with_capacity abort.
        for count in [u64::MAX, u64::MAX / 8, 1u64 << 61] {
            let mut w = SnapshotWriter::new(SnapshotKind::Stream, 0);
            w.put_u64(count);
            let bytes = w.finish();
            let (mut r, _) = SnapshotReader::open(&bytes, SnapshotKind::Stream).unwrap();
            assert!(
                matches!(r.take_edges(), Err(SnapshotError::Format(_))),
                "count {count}"
            );
        }
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let mut w = SnapshotWriter::new(SnapshotKind::Stream, 0);
        w.put_u8(1);
        let bytes = w.finish();
        let (r, _) = SnapshotReader::open(&bytes, SnapshotKind::Stream).unwrap();
        assert!(matches!(r.finish(), Err(SnapshotError::Format(_))));
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dds_snapshot_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_to_is_atomic_and_readable() {
        let dir = temp_dir("atomic");
        let path = dir.join("engine.snap");
        let mut w = SnapshotWriter::new(SnapshotKind::Stream, 9);
        w.put_u32(77);
        write_snapshot_file(&w.finish(), &path).unwrap();
        let bytes = read_snapshot_file(&path).unwrap();
        let (mut r, cursor) = SnapshotReader::open(&bytes, SnapshotKind::Stream).unwrap();
        assert_eq!((cursor, r.take_u32().unwrap()), (9, 77));
        assert!(
            !dir.join("engine.snap.tmp").exists(),
            "temp must be renamed"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Checkpoints that differ only in extension (`ck.0`, `ck.1`, one per
    /// cluster worker) are written concurrently; each writer must read
    /// back exactly its own bytes, never a failed rename or the other
    /// writer's snapshot. A barrier starts every pair of writes together,
    /// and each writer finishes its loop before failing, so neither is
    /// left waiting on the barrier.
    #[test]
    fn concurrent_writers_to_sibling_paths_read_back_their_own_bytes() {
        const WRITES: u64 = 500;
        let dir = temp_dir("siblings");
        let together = std::sync::Barrier::new(2);
        let faults: Vec<String> = std::thread::scope(|scope| {
            let writers: Vec<_> = (0..2u32)
                .map(|slot| {
                    let (path, together) = (dir.join(format!("ck.{slot}")), &together);
                    scope.spawn(move || {
                        let mut faults = Vec::new();
                        for i in 0..WRITES {
                            let mut w = SnapshotWriter::new(SnapshotKind::ClusterWorker, i);
                            w.put_u32(slot);
                            let mut edges: Vec<(VertexId, VertexId)> =
                                (0..1_024).map(|e| (slot, e)).collect();
                            w.put_edges(&mut edges);
                            let bytes = w.finish();
                            together.wait();
                            let fault = match write_snapshot_file(&bytes, &path) {
                                Err(e) => Some(format!("write failed: {e}")),
                                Ok(()) => match read_snapshot_file(&path) {
                                    Err(e) => Some(format!("read failed: {e}")),
                                    Ok(back) if back != bytes => Some("foreign bytes".into()),
                                    Ok(_) => None,
                                },
                            };
                            if let Some(fault) = fault {
                                faults.push(format!("ck.{slot} write {i}: {fault}"));
                            }
                        }
                        faults
                    })
                })
                .collect();
            writers
                .into_iter()
                .flat_map(|w| w.join().expect("writer thread"))
                .collect()
        });
        std::fs::remove_dir_all(&dir).ok();
        assert!(
            faults.is_empty(),
            "{} faults, first: {:?}",
            faults.len(),
            &faults[..faults.len().min(3)]
        );
    }
}
