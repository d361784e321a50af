//! The streaming trace pipeline: lazy event production.
//!
//! [`Trace`] materializes every arrival up front — per-function `Vec`s
//! plus a merged event view — which caps replay horizons at what fits in
//! memory. This module produces the same events *lazily*: a
//! [`StreamTrace`] holds the trace's **specification** plus what one
//! scan pass recorded — generator parameters and O(functions) metadata,
//! or for CSV input a packed table of its data rows, 16 bytes each —
//! and an [`EventStream`] pulls arrivals one at a time in the same order
//! and tie-break contract (time, then function index) as the
//! materialized view's k-way merge. Trace input is therefore
//! O(functions) for generated traces and O(rows) for CSV ones; the
//! stream itself holds one pending event per function, or the rows of
//! the minute being emitted plus one capped batch of its events, never
//! `O(total events)`.
//!
//! # The streaming cursor contract
//!
//! - **Bit-identity.** `StreamTrace::open().events()` yields exactly the
//!   events of [`StreamTrace::materialize`], same `f64` bits, same
//!   order. Synthetic sources guarantee it by construction (both paths
//!   drain the same [`GenCursor`](crate::trace)); the CSV scan shares
//!   the materialized parser's row grammar and spread formula and sorts
//!   each file's rows by minute once, and the reader merges one minute's
//!   rows at a time with one sort, which is exact for every file the
//!   scan accepts.
//! - **Checkpoint / resume.** [`EventStream::checkpoint`] captures the
//!   stream's position (per-function generator states and pending
//!   events; for CSV, the row cursor at the start of the minute that
//!   holds the next event plus how many of that minute's events were
//!   emitted, so equal positions give equal bytes);
//!   [`StreamTrace::open_at`] reopens the stream there, replaying the
//!   identical suffix, and a CSV resume re-expands at most one minute's
//!   events. The resumable fleet replay stores one in every snapshot and
//!   resumes from it without ever holding the merged view. `open_at`
//!   rejects a checkpoint that does not fit the trace, so no accepted
//!   checkpoint can emit events out of time order.
//! - **Row order.** CSV rows may arrive in any minute order, within a
//!   file and across file seams: the scan sorts each file's rows by
//!   minute and the reader takes the lowest minute across files, so the
//!   streaming reader accepts exactly the rows the materialized
//!   [`TraceSource::from_csv`] accepts.
//! - **Multi-file and gzip inputs.** [`StreamTrace::from_csv_files`]
//!   replays N per-day files as one logical trace: files are scanned in
//!   parallel, per-file key lists merge in file order (bit-identical to
//!   scanning the concatenation), and each file may carry its own header
//!   row. Files whose first bytes are the gzip magic are decompressed
//!   through the vendored [`flate`] inflater while the scan reads them.
//!   Only the scan reads input: a replay or resume reads the row table,
//!   so gz ≡ plain ≡ materialized, bit for bit, and the files may be
//!   gone by the time the trace replays.
//!
//! Construction performs the one **scan pass** (generation or parsing
//! only, no simulation) recording the event count and horizon — what
//! the fleet engine needs before replay — so `open()` itself is
//! allocation-light and replays never re-derive metadata.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::trace::{
    event_nanos, minute_event, parse_csv_row, stream_seed, GenCursor, Trace, TraceEvent,
    TraceSource, MAX_MINUTE,
};
use crate::{FreedomError, Result};

/// Default chunk size of the scan's CSV byte reader. Tests shrink it to
/// force records across chunk boundaries.
const CSV_CHUNK_BYTES: usize = 64 * 1024;

/// Where the CSV bytes live: read by the scan, and again only by
/// [`StreamTrace::materialize`].
#[derive(Debug, Clone)]
enum CsvBytes {
    Mem(Arc<[u8]>),
    File(PathBuf),
}

/// One input file of a (possibly multi-file) CSV trace.
#[derive(Debug, Clone)]
struct CsvFile {
    bytes: CsvBytes,
    /// Decompress through the vendored inflater before line splitting.
    gz: bool,
    /// Human-readable name used in error attribution ("" for a single
    /// in-memory input, preserving the historical message format).
    label: String,
}

/// A lazily-evaluated arrival trace: the specification plus what the
/// scan pass recorded, never the events.
#[derive(Debug, Clone)]
pub struct StreamTrace {
    spec: StreamSpec,
    n_functions: usize,
    len: usize,
    horizon_nanos: u64,
    /// Wall timings of the construction-time scan pass, one entry per
    /// scanned unit (file, part, or the synthetic count pass), offsets
    /// relative to the scan's start. Replayed into a telemetry recorder
    /// by [`StreamTrace::record_scan`].
    scan: Arc<Vec<ScanTiming>>,
}

/// Wall timing of one scan-phase unit, captured while the trace was
/// constructed.
#[derive(Debug, Clone, Copy)]
struct ScanTiming {
    /// Offset from the start of the scan pass, in wall nanoseconds.
    start_nanos: u64,
    dur_nanos: u64,
    /// Whether the unit was gzip-decompressed while scanning.
    gz: bool,
}

#[derive(Debug, Clone)]
enum StreamSpec {
    Synthetic {
        source: TraceSource,
        duration_secs: f64,
        seed: u64,
    },
    Csv {
        files: Vec<CsvFile>,
        /// The scan's packed row table, one `Vec` per file in file
        /// order: every data row with arrivals, sorted by minute, so a
        /// minute's rows form one contiguous run in each file. A replay
        /// reads only this; a checkpoint's cursor counts rows of all
        /// files in minute order.
        table: Arc<Vec<Vec<Row>>>,
    },
}

/// One scanned CSV data row, packed into 16 bytes. `function` is the
/// global index of the row's `(app, func)` key, assigned in order of
/// first appearance across the file sequence — the same assignment the
/// materialized reader makes over the concatenated text.
#[derive(Debug, Clone, Copy)]
struct Row {
    minute: u64,
    function: u32,
    /// At most `MAX_COUNT_PER_MINUTE`, which the scan enforces.
    count: u32,
}

/// Multiply-xor string hasher for the scan's composite-key maps: the
/// scan probes a map once per CSV row, and for such short keys SipHash's
/// setup/finalization dominates the lookup. Not DoS-hardened, which is
/// acceptable for trace-derived keys; nothing observable depends on hash
/// order (the maps are probed, never iterated).
#[derive(Clone, Default)]
struct FxHasher {
    hash: u64,
}

impl std::hash::Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        const SEED: u64 = 0x517c_c1b7_2722_0a95;
        let mut h = self.hash;
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            h = (h.rotate_left(5) ^ word).wrapping_mul(SEED);
        }
        let mut tail = 0u64;
        for &b in chunks.remainder().iter().rev() {
            tail = (tail << 8) | b as u64;
        }
        h = (h.rotate_left(5) ^ tail).wrapping_mul(SEED);
        self.hash = h;
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

type FxBuild = std::hash::BuildHasherDefault<FxHasher>;
type KeyMap = HashMap<String, u32, FxBuild>;

/// Builds the unambiguous `(app, func)` composite key in `scratch`:
/// the app length prefix makes `("ab","c")` distinct from `("a","bc")`
/// without allocating per lookup. The length is formatted by hand —
/// `write!` drags the whole `fmt` machinery into the per-row path.
fn composite_key(scratch: &mut String, app: &str, func: &str) {
    scratch.clear();
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    let mut n = app.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    scratch.push_str(std::str::from_utf8(&digits[i..]).expect("ASCII digits"));
    scratch.push(':');
    scratch.push_str(app);
    scratch.push_str(func);
}

/// Prefixes `trace CSV line N: ...` messages with the file label so
/// multi-file errors attribute the exact file (`trace CSV day2.csv.gz
/// line N: ...`).
fn qualify_err(e: FreedomError, label: &str) -> FreedomError {
    if label.is_empty() {
        return e;
    }
    match e {
        FreedomError::InvalidArgument(msg) => {
            FreedomError::InvalidArgument(match msg.strip_prefix("trace CSV ") {
                Some(rest) => format!("trace CSV {label} {rest}"),
                None => format!("{label}: {msg}"),
            })
        }
        other => other,
    }
}

fn csv_line_prefix(label: &str, lineno: usize) -> String {
    if label.is_empty() {
        format!("trace CSV line {}", lineno + 1)
    } else {
        format!("trace CSV {label} line {}", lineno + 1)
    }
}

/// Per-file scan result, merged in file order into the trace metadata.
struct FileScan {
    /// Composite keys in first-appearance order within this file.
    keys: Vec<String>,
    /// The file's data rows with arrivals, sorted by minute, `function`
    /// holding the local key id; remapped in place to global indices at
    /// merge time.
    rows: Vec<Row>,
    len: usize,
    last: f64,
}

fn scan_file(file: &CsvFile, chunk: usize) -> Result<FileScan> {
    let mut reader = ChunkedLines::open(file, chunk)?;
    let mut local = KeyMap::default();
    let mut keys = Vec::new();
    let mut rows: Vec<Row> = Vec::new();
    let mut scratch = String::new();
    let mut len = 0usize;
    let mut last = f64::NEG_INFINITY;
    while let Some((lineno, line)) = reader.next_line()? {
        let Some(row) = parse_csv_row(line, lineno).map_err(|e| qualify_err(e, &file.label))?
        else {
            continue;
        };
        composite_key(&mut scratch, row.app, row.func);
        let local_id = match local.get(scratch.as_str()) {
            Some(&id) => id,
            None => {
                let id = keys.len() as u32;
                local.insert(scratch.clone(), id);
                keys.push(scratch.clone());
                id
            }
        };
        // A zero-count row only registers its key.
        if row.count == 0 {
            continue;
        }
        rows.push(Row {
            minute: row.minute,
            function: local_id,
            count: row.count as u32,
        });
        len += row.count as usize;
        last = last.max(minute_event(row.minute, row.count - 1, row.count));
    }
    // One sort makes each minute's rows a contiguous run, however far
    // out of order they came; rows already in minute order (a
    // per-minute export) cost one pass.
    rows.sort_unstable_by_key(|row| row.minute);
    rows.shrink_to_fit();
    Ok(FileScan {
        keys,
        rows,
        len,
        last,
    })
}

fn detect_gz(bytes: &CsvBytes) -> Result<bool> {
    match bytes {
        CsvBytes::Mem(data) => Ok(flate::is_gzip(data)),
        CsvBytes::File(path) => {
            let file = std::fs::File::open(path).map_err(|e| {
                FreedomError::InvalidArgument(format!(
                    "cannot read trace CSV {}: {e}",
                    path.display()
                ))
            })?;
            let mut magic = Vec::with_capacity(2);
            file.take(2).read_to_end(&mut magic).map_err(|e| {
                FreedomError::InvalidArgument(format!(
                    "cannot read trace CSV {}: {e}",
                    path.display()
                ))
            })?;
            Ok(flate::is_gzip(&magic))
        }
    }
}

impl StreamTrace {
    /// A lazy trace over `n_functions` independent generator streams —
    /// the streaming counterpart of [`TraceSource::generate`]. Performs
    /// the scan pass sequentially.
    pub fn generate(
        source: TraceSource,
        n_functions: usize,
        duration_secs: f64,
        seed: u64,
    ) -> Result<Self> {
        Self::generate_sharded(source, n_functions, duration_secs, seed, 1)
    }

    /// Like [`StreamTrace::generate`] with the scan pass fanned out over
    /// `threads` workers. Streams are pure functions of
    /// `(seed, function index)`, so the metadata — and every event later
    /// pulled — is bit-identical for every thread count.
    pub fn generate_sharded(
        source: TraceSource,
        n_functions: usize,
        duration_secs: f64,
        seed: u64,
        threads: usize,
    ) -> Result<Self> {
        source.validate(n_functions, duration_secs)?;
        let scan_epoch = std::time::Instant::now();
        let per_fn = freedom_parallel::par_run(n_functions, threads, |f| {
            let mut cursor = GenCursor::new(&source, duration_secs, stream_seed(seed, f));
            let mut count = 0usize;
            let mut last = f64::NEG_INFINITY;
            while let Some(t) = cursor.next_arrival() {
                count += 1;
                last = t;
            }
            (count, last)
        });
        let len = per_fn.iter().map(|&(c, _)| c).sum();
        // The merged view's last event is the max over per-function last
        // arrivals — same float, same nanos as the materialized path.
        let horizon_nanos = per_fn
            .iter()
            .filter(|&&(c, _)| c > 0)
            .map(|&(_, last)| event_nanos(last))
            .max()
            .unwrap_or(0);
        let scan = vec![ScanTiming {
            start_nanos: 0,
            dur_nanos: scan_epoch.elapsed().as_nanos() as u64,
            gz: false,
        }];
        Ok(Self {
            spec: StreamSpec::Synthetic {
                source,
                duration_secs,
                seed,
            },
            n_functions,
            len,
            horizon_nanos,
            scan: Arc::new(scan),
        })
    }

    /// Streaming counterpart of [`TraceSource::from_csv`]: scans the
    /// rows once (validating the grammar, building the `(app, func)` key
    /// map) into the packed row table replays read. Rows may come in any
    /// minute order.
    pub fn from_csv(csv: &str) -> Result<Self> {
        Self::from_csv_parts(&[csv.as_bytes()])
    }

    /// A multi-file trace: `paths` replay back to back as one logical
    /// event stream, in the given order (for the Azure dataset, one file
    /// per day). Each file is scanned in parallel, in
    /// `CSV_CHUNK_BYTES` chunks, may carry its own header row, and is
    /// gzip-decompressed when its first bytes are the gzip magic. A
    /// file's rows may trail those of earlier files by any number of
    /// minutes; errors name the exact file and line. Replays read the
    /// scanned rows, never the files again; only
    /// [`StreamTrace::materialize`] does.
    pub fn from_csv_files<P: AsRef<Path>>(paths: &[P]) -> Result<Self> {
        let mut files = Vec::with_capacity(paths.len());
        for path in paths {
            let bytes = CsvBytes::File(path.as_ref().to_path_buf());
            let gz = detect_gz(&bytes)?;
            files.push(CsvFile {
                bytes,
                gz,
                label: path.as_ref().display().to_string(),
            });
        }
        Self::from_parts(files, CSV_CHUNK_BYTES)
    }

    /// In-memory multi-file trace: each part is one logical file
    /// (gzip-detected independently, own header allowed), replayed back
    /// to back. Errors attribute parts as `part 1`, `part 2`, … when
    /// there is more than one.
    pub fn from_csv_parts(parts: &[&[u8]]) -> Result<Self> {
        Self::from_csv_parts_chunked(parts, CSV_CHUNK_BYTES)
    }

    /// [`StreamTrace::from_csv_parts`] with an explicit reader chunk
    /// size (clamped to ≥ 1 byte). Chunking is observable only in I/O
    /// granularity — records straddling chunk boundaries parse
    /// identically — which is exactly what tests pin down by shrinking
    /// the chunk to a few bytes.
    pub fn from_csv_parts_chunked(parts: &[&[u8]], chunk_bytes: usize) -> Result<Self> {
        let files = parts
            .iter()
            .enumerate()
            .map(|(i, part)| CsvFile {
                bytes: CsvBytes::Mem(Arc::from(*part)),
                gz: flate::is_gzip(part),
                label: if parts.len() > 1 {
                    format!("part {}", i + 1)
                } else {
                    String::new()
                },
            })
            .collect();
        Self::from_parts(files, chunk_bytes)
    }

    fn from_parts(files: Vec<CsvFile>, chunk: usize) -> Result<Self> {
        if files.is_empty() {
            return Err(FreedomError::InvalidArgument(
                "trace CSV file list is empty".into(),
            ));
        }
        // Per-file scans are independent (grammar, first-appearance key
        // list, rows sorted by minute), so they fan out like the k-way
        // cursor scan; the sequential merge below touches each row once,
        // to remap its function in place.
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(files.len());
        let scan_epoch = std::time::Instant::now();
        let scans = freedom_parallel::par_run(files.len(), threads, |i| {
            let started = scan_epoch.elapsed().as_nanos() as u64;
            let out = scan_file(&files[i], chunk);
            let dur = (scan_epoch.elapsed().as_nanos() as u64).saturating_sub(started);
            (out, started, dur)
        });
        let mut scan_timings = Vec::with_capacity(files.len());
        let mut keys = KeyMap::default();
        let mut table: Vec<Vec<Row>> = Vec::with_capacity(files.len());
        let mut len = 0usize;
        let mut last = f64::NEG_INFINITY;
        for (file, (scan, started, dur)) in files.iter().zip(scans) {
            let mut scan = scan?;
            scan_timings.push(ScanTiming {
                start_nanos: started,
                dur_nanos: dur,
                gz: file.gz,
            });
            // Folding per-file first-appearance lists in file order
            // assigns exactly the indices a scan of the concatenation
            // would: a key's first appearance overall is its first
            // appearance in the first file that contains it. `remap`
            // carries local → global ids into the file's rows, in place:
            // the table is never copied.
            let mut remap = Vec::with_capacity(scan.keys.len());
            for key in scan.keys {
                let next_index = keys.len() as u32;
                remap.push(*keys.entry(key).or_insert(next_index));
            }
            for row in &mut scan.rows {
                row.function = remap[row.function as usize];
            }
            table.push(scan.rows);
            len += scan.len;
            last = last.max(scan.last);
        }
        if keys.is_empty() {
            return Err(FreedomError::InvalidArgument(
                "trace CSV has no data rows".into(),
            ));
        }
        let horizon_nanos = if len == 0 { 0 } else { event_nanos(last) };
        Ok(Self {
            n_functions: keys.len(),
            len,
            horizon_nanos,
            spec: StreamSpec::Csv {
                files,
                table: Arc::new(table),
            },
            scan: Arc::new(scan_timings),
        })
    }

    /// Number of functions with a (possibly empty) stream.
    pub fn n_functions(&self) -> usize {
        self.n_functions
    }

    /// Total number of arrivals the stream will yield.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the trace has no arrivals.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Arrival time of the last event in integer nanoseconds (0 for an
    /// empty trace) — the replay horizon supply steps and controller
    /// ticks are capped at.
    pub fn horizon_nanos(&self) -> u64 {
        self.horizon_nanos
    }

    /// Replays the construction-time scan timings into a telemetry
    /// recorder as wall spans: one `Scan` span covering the whole scan
    /// pass (arg = number of scanned units), plus one span per unit —
    /// `GzDecompress` for gzip'd files, `Scan` otherwise (arg = unit
    /// index). The spans are anchored so the pass ends at the
    /// recorder's current wall clock; call this right after
    /// constructing the trace.
    pub fn record_scan<R: freedom_telemetry::Recorder>(&self, rec: &mut R) {
        if !R::ENABLED || self.scan.is_empty() {
            return;
        }
        let total = self
            .scan
            .iter()
            .map(|t| t.start_nanos + t.dur_nanos)
            .max()
            .unwrap_or(0);
        let base = rec.now_nanos().saturating_sub(total);
        rec.span_wall_at(
            freedom_telemetry::Span::Scan,
            base,
            total,
            self.scan.len() as u64,
        );
        if self.scan.len() == 1 && !self.scan[0].gz {
            return; // the umbrella span already is the single unit
        }
        for (i, t) in self.scan.iter().enumerate() {
            let kind = if t.gz {
                freedom_telemetry::Span::GzDecompress
            } else {
                freedom_telemetry::Span::Scan
            };
            rec.span_wall_at(kind, base + t.start_nanos, t.dur_nanos, i as u64);
        }
    }

    /// Opens the event stream at position 0.
    pub fn open(&self) -> Result<EventStream<'_>> {
        match &self.spec {
            StreamSpec::Synthetic {
                source,
                duration_secs,
                seed,
            } => {
                let mut cursors = Vec::with_capacity(self.n_functions);
                let mut pending = Vec::with_capacity(self.n_functions);
                for f in 0..self.n_functions {
                    let mut c = GenCursor::new(source, *duration_secs, stream_seed(*seed, f));
                    pending.push(c.next_arrival());
                    cursors.push(c);
                }
                Ok(EventStream {
                    imp: StreamImp::Merge(MergeStream::new(cursors, pending)),
                })
            }
            StreamSpec::Csv { table, .. } => Ok(EventStream {
                imp: StreamImp::Csv(CsvStream::new(table, vec![0; table.len()])),
            }),
        }
    }

    /// Reopens the stream at a checkpoint previously taken from one of
    /// this trace's streams, replaying the identical suffix — the
    /// resumable replay's restart position. Returns
    /// [`FreedomError::InvalidArgument`] when the checkpoint belongs to
    /// the other stream kind or does not fit this trace: a cursor count
    /// other than the function count, a generator whose parameters or
    /// clock are not this trace's, a CSV row cursor past the row table or
    /// inside a minute's run of rows, or an emitted count at or past that
    /// minute's events. A CSV resume re-expands at most one minute.
    pub fn open_at(&self, cp: &StreamCheckpoint) -> Result<EventStream<'_>> {
        let misfit = || {
            Err(FreedomError::InvalidArgument(
                "stream checkpoint does not fit this trace".into(),
            ))
        };
        match (&self.spec, &cp.imp) {
            (
                StreamSpec::Synthetic {
                    source,
                    duration_secs,
                    seed,
                },
                CpImp::Merge { cursors, pending },
            ) => {
                let fits = cursors.len() == self.n_functions
                    && cursors.iter().enumerate().all(|(f, c)| {
                        c.fits(&GenCursor::new(
                            source,
                            *duration_secs,
                            stream_seed(*seed, f),
                        ))
                    });
                if !fits {
                    return misfit();
                }
                Ok(EventStream {
                    imp: StreamImp::Merge(MergeStream::new(cursors.clone(), pending.clone())),
                })
            }
            (StreamSpec::Csv { table, .. }, &CpImp::Csv { cursor, emitted }) => {
                // Each file's first row of a minute at or past `m`, and
                // how many rows of all files come before them.
                let heads = |m: u64| {
                    table
                        .iter()
                        .map(move |rows| rows.partition_point(|row| row.minute < m))
                };
                let before = |m: u64| heads(m).sum::<usize>() as u64;
                // The cursor must count the rows of every minute before
                // some minute: the smallest minute whose predecessors
                // reach the cursor, if they do not pass it.
                let (mut lo, mut hi) = (0, MAX_MINUTE + 1);
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    if before(mid) < cursor {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                let mut stream = CsvStream::new(table, heads(lo).collect());
                stream.start_minute();
                // Fewer of the minute's events must be emitted than it
                // holds; at the table's end only a count of 0 fits.
                if before(lo) != cursor || emitted >= stream.events.max(1) {
                    return misfit();
                }
                for _ in 0..emitted {
                    stream.next();
                }
                Ok(EventStream {
                    imp: StreamImp::Csv(stream),
                })
            }
            _ => Err(FreedomError::InvalidArgument(
                "stream checkpoint does not belong to this trace kind".into(),
            )),
        }
    }

    /// The escape hatch: builds the fully materialized [`Trace`] of the
    /// same specification. Tests diff the streaming pipeline against it;
    /// callers that need random access pay the O(events) memory
    /// knowingly. For CSV input this re-reads the original bytes through
    /// [`TraceSource::from_csv`], independently of the scan, so the
    /// files must still be there.
    pub fn materialize(&self) -> Result<Trace> {
        match &self.spec {
            StreamSpec::Synthetic {
                source,
                duration_secs,
                seed,
            } => source.generate(self.n_functions, *duration_secs, *seed),
            StreamSpec::Csv { files, .. } => {
                let mut text = String::new();
                for (i, file) in files.iter().enumerate() {
                    let raw = match &file.bytes {
                        CsvBytes::Mem(data) => data.to_vec(),
                        CsvBytes::File(path) => std::fs::read(path).map_err(|e| {
                            FreedomError::InvalidArgument(format!(
                                "cannot read trace CSV {}: {e}",
                                path.display()
                            ))
                        })?,
                    };
                    let raw = if file.gz {
                        flate::gunzip(&raw).map_err(|e| {
                            qualify_err(
                                FreedomError::InvalidArgument(format!("trace CSV {e}")),
                                &file.label,
                            )
                        })?
                    } else {
                        raw
                    };
                    let mut part = std::str::from_utf8(&raw).map_err(|e| {
                        qualify_err(
                            FreedomError::InvalidArgument(format!("trace CSV {e}")),
                            &file.label,
                        )
                    })?;
                    // Each file may carry its own header (line 0, per
                    // the streaming grammar); the concatenation only
                    // tolerates one at the top, so strip the others with
                    // the exact same header-detection rule.
                    if i > 0 {
                        let first = part.lines().next().unwrap_or("");
                        if !first.trim().is_empty() && matches!(parse_csv_row(first, 0), Ok(None)) {
                            part = match part.split_once('\n') {
                                Some((_, rest)) => rest,
                                None => "",
                            };
                        }
                    }
                    if !text.is_empty() && !text.ends_with('\n') {
                        text.push('\n');
                    }
                    text.push_str(part);
                }
                TraceSource::from_csv(&text)
            }
        }
    }
}

/// A resumable position in an [`EventStream`] — cheap to clone, `Send`,
/// and `O(functions)` (synthetic) or two integers (CSV) in size.
#[derive(Debug, Clone)]
pub struct StreamCheckpoint {
    imp: CpImp,
}

impl StreamCheckpoint {
    /// Serializes the checkpoint into a crash-resume snapshot
    /// ([`crate::snapshot`]): per-function generator states and pending
    /// events for synthetic traces, the row cursor and the emitted count
    /// of its minute for CSV ones.
    /// [`StreamCheckpoint::load`] restores a checkpoint that
    /// [`StreamTrace::open_at`] resumes to the identical suffix.
    pub(crate) fn save(&self, w: &mut crate::snapshot::Wire) {
        match &self.imp {
            CpImp::Merge { cursors, pending } => {
                w.u8(0);
                w.len(cursors.len());
                for c in cursors {
                    c.save(w);
                }
                debug_assert_eq!(pending.len(), cursors.len());
                for p in pending {
                    match p {
                        None => w.u8(0),
                        Some(t) => {
                            w.u8(1);
                            w.f64(*t);
                        }
                    }
                }
            }
            &CpImp::Csv { cursor, emitted } => {
                w.u8(1);
                w.u64(cursor);
                w.u64(emitted);
            }
        }
    }

    /// Restores a checkpoint serialized with [`StreamCheckpoint::save`].
    pub(crate) fn load(r: &mut crate::snapshot::Unwire) -> Result<Self> {
        let imp = match r.u8()? {
            0 => {
                let n = r.len()?;
                let mut cursors = Vec::with_capacity(n);
                for _ in 0..n {
                    cursors.push(GenCursor::load(r)?);
                }
                let mut pending = Vec::with_capacity(n);
                for _ in 0..n {
                    pending.push(match r.u8()? {
                        0 => None,
                        1 => Some(r.f64()?),
                        tag => {
                            return Err(FreedomError::InvalidArgument(format!(
                                "snapshot: invalid pending-event tag {tag}"
                            )))
                        }
                    });
                }
                CpImp::Merge { cursors, pending }
            }
            1 => CpImp::Csv {
                cursor: r.u64()?,
                emitted: r.u64()?,
            },
            tag => {
                return Err(FreedomError::InvalidArgument(format!(
                    "snapshot: unknown stream-checkpoint tag {tag}"
                )))
            }
        };
        Ok(Self { imp })
    }
}

#[derive(Debug, Clone)]
enum CpImp {
    Merge {
        cursors: Vec<GenCursor>,
        pending: Vec<Option<f64>>,
    },
    /// The first row of the minute that holds the next event, and how
    /// many of that minute's events were emitted.
    Csv { cursor: u64, emitted: u64 },
}

/// A lazily-merged view of one trace's events, in the materialized
/// order: time ascending, ties broken by lower function index.
pub struct EventStream<'a> {
    imp: StreamImp<'a>,
}

enum StreamImp<'a> {
    Merge(MergeStream),
    Csv(CsvStream<'a>),
}

impl<'a> EventStream<'a> {
    /// The next event without consuming it. May work ahead (expanding a
    /// CSV minute, generator draws) but never emits.
    pub fn peek(&mut self) -> Option<TraceEvent> {
        match &mut self.imp {
            StreamImp::Merge(m) => m.peek(),
            StreamImp::Csv(c) => c.ready(),
        }
    }

    /// Consumes and returns the next event.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<TraceEvent> {
        match &mut self.imp {
            StreamImp::Merge(m) => m.next(),
            StreamImp::Csv(c) => c.next(),
        }
    }

    /// Captures the current position for [`StreamTrace::open_at`].
    pub fn checkpoint(&self) -> StreamCheckpoint {
        match &self.imp {
            StreamImp::Merge(m) => StreamCheckpoint {
                imp: CpImp::Merge {
                    cursors: m.cursors.clone(),
                    pending: m.pending.clone(),
                },
            },
            StreamImp::Csv(c) => {
                let (cursor, emitted) = c.position();
                StreamCheckpoint {
                    imp: CpImp::Csv { cursor, emitted },
                }
            }
        }
    }

    /// Draining iterator over the remaining events.
    pub fn events<'s>(&'s mut self) -> impl Iterator<Item = TraceEvent> + use<'s, 'a> {
        std::iter::from_fn(move || self.next())
    }

    /// Peak number of events this stream ever held resident: one pending
    /// arrival per cursor (synthetic) or one per row of the largest
    /// minute it expanded (CSV). The cursor term of the replay's
    /// peak-memory bound. A CSV stream also holds the batch of the minute
    /// it emits, at most 4096 events plus one per row of that minute.
    pub fn peak_resident(&self) -> usize {
        match &self.imp {
            StreamImp::Merge(m) => m.cursors.len(),
            StreamImp::Csv(c) => c.peak_rows,
        }
    }

    /// Events in the CSV reader's current batch, emitted ones included.
    #[cfg(test)]
    fn batch_len(&self) -> usize {
        match &self.imp {
            StreamImp::Csv(c) => c.batch.len(),
            StreamImp::Merge(_) => 0,
        }
    }
}

/// K-way heap merge over per-function generator cursors — the lazy
/// equivalent of `Trace::from_streams`, with the identical
/// `(time bits, function index)` heap key and tie-break.
struct MergeStream {
    cursors: Vec<GenCursor>,
    /// Each cursor's generated-but-unconsumed arrival; mirrors the heap
    /// so checkpoints can capture it without draining.
    pending: Vec<Option<f64>>,
    heap: BinaryHeap<Reverse<(u64, usize)>>,
}

impl MergeStream {
    fn new(cursors: Vec<GenCursor>, pending: Vec<Option<f64>>) -> Self {
        let heap = pending
            .iter()
            .enumerate()
            .filter_map(|(f, &t)| t.map(|t| Reverse((t.to_bits(), f))))
            .collect();
        Self {
            cursors,
            pending,
            heap,
        }
    }

    fn peek(&self) -> Option<TraceEvent> {
        self.heap.peek().map(|&Reverse((bits, f))| TraceEvent {
            at_secs: f64::from_bits(bits),
            function: f,
        })
    }

    fn next(&mut self) -> Option<TraceEvent> {
        let mut top = self.heap.peek_mut()?;
        let Reverse((bits, f)) = *top;
        let refill = self.cursors[f].next_arrival();
        self.pending[f] = refill;
        // Replace-top + one sift instead of pop + push: the refilled
        // cursor usually stays near the front, so this halves the heap
        // work on the hot path.
        match refill {
            Some(t) => *top = Reverse((t.to_bits(), f)),
            None => {
                std::collections::binary_heap::PeekMut::pop(top);
            }
        }
        Some(TraceEvent {
            at_secs: f64::from_bits(bits),
            function: f,
        })
    }
}

/// A row of the minute being emitted, with arrivals `j..count` still to
/// expand, the next at `next_bits`.
#[derive(Debug, Clone, Copy)]
struct Slot {
    next_bits: u64,
    function: u32,
    count: u32,
    j: u32,
}

/// Events a batch expands before its minute is cut into time slices.
const BATCH_EVENTS: u64 = 4096;

/// The end of a slice's chain of rows.
const NO_SLOT: u32 = u32::MAX;

/// Row-table event source, merged a minute at a time.
///
/// The scan sorted each file's rows by minute, so a minute's rows form
/// one contiguous run in each file, and every arrival of minute m lies
/// strictly inside `(60m, 60m + 60)` (`MAX_MINUTE` keeps it so): the
/// reader takes the lowest minute at any file's cursor, expands its rows
/// into one array of `(time bits, function, slot)` keys, sorts it once,
/// and emits it by index, in the materialized view's order. It holds one
/// minute's rows at a time ([`EventStream::peak_resident`]).
struct CsvStream<'a> {
    /// The scan's per-file row tables, each in minute order.
    table: &'a [Vec<Row>],
    /// Per file, its first row of a minute not yet taken.
    next: Vec<usize>,
    /// Rows of all files in minutes before the batch minute: the
    /// checkpoint cursor while the minute is emitted.
    start: u64,
    /// The minute being emitted, its events, and its rows, each advanced
    /// past the arrivals expanded so far.
    minute: u64,
    events: u64,
    slots: Vec<Slot>,
    /// The minute's time slices, how many are expanded so far, and per
    /// slice the first row whose next arrival falls in it, the rest
    /// chained through `chain`: a slice visits only its own rows.
    slices: u64,
    slice: u64,
    wake: Vec<u32>,
    chain: Vec<u32>,
    /// The current slice's events as sorted `(time bits, function,
    /// slot)` keys; `batch[pos..]` are still to emit, and the minute's
    /// earlier slices held `earlier` events.
    batch: Vec<u128>,
    pos: usize,
    earlier: u64,
    peak_rows: usize,
}

impl<'a> CsvStream<'a> {
    /// A reader whose next minute starts at row `next[f]` of each file
    /// `f`.
    fn new(table: &'a [Vec<Row>], next: Vec<usize>) -> Self {
        Self {
            table,
            next,
            start: 0,
            minute: 0,
            events: 0,
            slots: Vec::new(),
            slices: 0,
            slice: 0,
            wake: Vec::new(),
            chain: Vec::new(),
            batch: Vec::new(),
            pos: 0,
            earlier: 0,
            peak_rows: 0,
        }
    }

    /// Expands rows until an event is ready to emit (or the table
    /// ends); returns it without consuming.
    fn ready(&mut self) -> Option<TraceEvent> {
        while self.pos == self.batch.len() {
            if self.slice < self.slices {
                self.expand_slice();
            } else if !self.start_minute() {
                return None;
            }
        }
        let key = self.batch[self.pos];
        Some(TraceEvent {
            at_secs: f64::from_bits((key >> 64) as u64),
            function: (key >> 32) as u32 as usize,
        })
    }

    fn next(&mut self) -> Option<TraceEvent> {
        let event = self.ready()?;
        self.pos += 1;
        Some(event)
    }

    /// The checkpoint position: the rows of all minutes before the one
    /// that holds the next event, and how many of that minute's events
    /// were emitted. A fully emitted minute hands over to the next, so
    /// the position does not depend on whether the stream peeked.
    fn position(&self) -> (u64, u64) {
        let emitted = self.earlier + self.pos as u64;
        if emitted < self.events {
            (self.start, emitted)
        } else {
            (self.next.iter().sum::<usize>() as u64, 0)
        }
    }

    /// Takes the lowest minute at any file's cursor as the batch minute,
    /// its run of rows from every file that has one, or returns `false`
    /// at the end of the table. A minute whose rows hold `n` >
    /// [`BATCH_EVENTS`] events in all is cut into `⌈n / BATCH_EVENTS⌉`
    /// equal time slices. Rows spread their events evenly, so a slice
    /// holds at most `BATCH_EVENTS` events plus one per row.
    fn start_minute(&mut self) -> bool {
        let heads = self.table.iter().zip(&self.next);
        let Some(minute) = heads
            .filter_map(|(rows, &n)| rows.get(n))
            .map(|r| r.minute)
            .min()
        else {
            return false;
        };
        self.start = self.next.iter().sum::<usize>() as u64;
        // Slot order only breaks ties between identical events of rows
        // of one function, so the order rows are taken in is free.
        self.slots.clear();
        for (rows, next) in self.table.iter().zip(&mut self.next) {
            let run = &rows[*next..];
            let run = &run[..run.partition_point(|row| row.minute == minute)];
            *next += run.len();
            self.slots.extend(run.iter().map(|row| Slot {
                next_bits: minute_event(minute, 0, row.count.into()).to_bits(),
                function: row.function,
                count: row.count,
                j: 0,
            }));
        }
        self.peak_rows = self.peak_rows.max(self.slots.len());
        self.minute = minute;
        self.events = self.slots.iter().map(|r| u64::from(r.count)).sum();
        self.earlier = 0;
        self.batch.clear();
        self.pos = 0;
        self.slices = self.events.div_ceil(BATCH_EVENTS).max(1);
        self.slice = 0;
        self.wake.clear();
        self.wake.resize(self.slices as usize, NO_SLOT);
        self.chain.clear();
        self.chain.resize(self.slots.len(), NO_SLOT);
        for s in (0..self.slots.len() as u32).rev() {
            let k = self.slice_of(f64::from_bits(self.slots[s as usize].next_bits));
            self.wake_at(k, s);
        }
        true
    }

    /// Exclusive upper time bound of slice `k`, `60m + 60(k+1)/K` in
    /// `f64`; the last slice is unbounded.
    fn slice_end(&self, k: u64) -> f64 {
        if k + 1 == self.slices {
            f64::INFINITY
        } else {
            (self.minute * 60) as f64 + ((k + 1) * 60) as f64 / self.slices as f64
        }
    }

    /// The slice an arrival at `t` belongs to: the first whose end lies
    /// above `t`. The guess is exact but for rounding, which the two
    /// walks settle against the bounds themselves.
    fn slice_of(&self, t: f64) -> u64 {
        let offset = t - (self.minute * 60) as f64;
        let mut k = ((offset * self.slices as f64 / 60.0) as u64).min(self.slices - 1);
        while k > 0 && t < self.slice_end(k - 1) {
            k -= 1;
        }
        while t >= self.slice_end(k) {
            k += 1;
        }
        k
    }

    /// Chains slot `s` into slice `k`'s rows.
    fn wake_at(&mut self, k: u64, s: u32) {
        self.chain[s as usize] = self.wake[k as usize];
        self.wake[k as usize] = s;
    }

    /// Expands the batch minute's next time slice and sorts it. Each row
    /// of the slice expands its arrivals up to the slice's end, then
    /// chains into the slice of its next arrival, so slices concatenate
    /// in exact time order.
    fn expand_slice(&mut self) {
        let k = self.slice;
        self.slice += 1;
        let end = self.slice_end(k);
        self.earlier += self.batch.len() as u64;
        self.batch.clear();
        self.pos = 0;
        let mut s = std::mem::replace(&mut self.wake[k as usize], NO_SLOT);
        while s != NO_SLOT {
            let after = self.chain[s as usize];
            let row = &mut self.slots[s as usize];
            let mut t = f64::from_bits(row.next_bits);
            while t < end {
                self.batch.push(
                    u128::from(t.to_bits()) << 64 | u128::from(row.function) << 32 | u128::from(s),
                );
                row.j += 1;
                if row.j == row.count {
                    break;
                }
                t = minute_event(self.minute, row.j.into(), row.count.into());
            }
            row.next_bits = t.to_bits();
            if row.j < row.count {
                let next = self.slice_of(t);
                self.wake_at(next, s);
            }
            s = after;
        }
        self.batch.sort_unstable();
    }
}

/// Raw (possibly compressed) byte source of the scan: fills the buffer
/// and returns how many bytes it wrote, 0 at end of input.
type ByteSrc = Box<dyn FnMut(&mut [u8]) -> std::result::Result<usize, String>>;

fn raw_src(bytes: &CsvBytes) -> Result<ByteSrc> {
    match bytes {
        CsvBytes::Mem(data) => {
            let data = Arc::clone(data);
            let mut read = 0usize;
            Ok(Box::new(move |buf: &mut [u8]| {
                let n = (data.len() - read).min(buf.len());
                buf[..n].copy_from_slice(&data[read..read + n]);
                read += n;
                Ok(n)
            }))
        }
        CsvBytes::File(path) => {
            let mut file = std::fs::File::open(path).map_err(|e| {
                FreedomError::InvalidArgument(format!(
                    "cannot read trace CSV {}: {e}",
                    path.display()
                ))
            })?;
            Ok(Box::new(move |buf: &mut [u8]| {
                file.read(buf).map_err(|e| e.to_string())
            }))
        }
    }
}

/// The decompressed-byte feed behind a [`ChunkedLines`].
enum ChunkSrc {
    Plain(ByteSrc),
    /// Boxed: the inflater's window dwarfs the plain source.
    Gz(Box<flate::GzReader<ByteSrc>>),
}

/// The scan's line reader over in-memory, file-backed, or gzip'd bytes:
/// reads fixed-size chunks, assembles lines across chunk boundaries,
/// and numbers them for error attribution. Lines are borrowed from the
/// internal buffer — the read path allocates nothing per line.
struct ChunkedLines {
    src: ChunkSrc,
    /// Bytes read but not yet emitted as lines; `buf[..pos]` is
    /// consumed.
    buf: Vec<u8>,
    pos: usize,
    /// 0-based number of the next line.
    lineno: usize,
    chunk: usize,
    eof: bool,
    label: String,
}

impl ChunkedLines {
    fn open(file: &CsvFile, chunk: usize) -> Result<Self> {
        let src = raw_src(&file.bytes)?;
        Ok(Self {
            src: if file.gz {
                ChunkSrc::Gz(Box::new(flate::GzReader::new(src)))
            } else {
                ChunkSrc::Plain(src)
            },
            buf: Vec::new(),
            pos: 0,
            lineno: 0,
            chunk: chunk.max(1),
            eof: false,
            label: file.label.clone(),
        })
    }

    /// The next `(0-based line number, line)`, or `None` at end of
    /// input. The final line may lack a trailing newline, exactly like
    /// `str::lines`; a `\r` before the newline is stripped.
    fn next_line(&mut self) -> Result<Option<(usize, &str)>> {
        let (end, skip) = loop {
            if let Some(nl) = self.buf[self.pos..].iter().position(|&b| b == b'\n') {
                break (self.pos + nl, 1);
            }
            if self.eof {
                if self.pos == self.buf.len() {
                    return Ok(None);
                }
                break (self.buf.len(), 0);
            }
            self.refill()?;
        };
        let start = self.pos;
        let stop = if skip > 0 && end > start && self.buf[end - 1] == b'\r' {
            end - 1
        } else {
            end
        };
        self.pos = end + skip;
        let lineno = self.lineno;
        self.lineno += 1;
        let line = std::str::from_utf8(&self.buf[start..stop]).map_err(|e| {
            FreedomError::InvalidArgument(format!(
                "{}: invalid UTF-8: {e}",
                csv_line_prefix(&self.label, lineno)
            ))
        })?;
        Ok(Some((lineno, line)))
    }

    fn gz_err(&self, msg: &str) -> FreedomError {
        FreedomError::InvalidArgument(format!(
            "{} near line {}: {msg}",
            if self.label.is_empty() {
                "trace CSV".to_string()
            } else {
                format!("trace CSV {}", self.label)
            },
            self.lineno + 1
        ))
    }

    fn refill(&mut self) -> Result<()> {
        // Drop the consumed prefix before growing the carry.
        self.buf.drain(..self.pos);
        self.pos = 0;
        let before = self.buf.len();
        let more = match &mut self.src {
            ChunkSrc::Plain(src) => {
                self.buf.resize(before + self.chunk, 0);
                let n = src(&mut self.buf[before..])
                    .map_err(|e| FreedomError::InvalidArgument(format!("trace CSV read: {e}")))?;
                self.buf.truncate(before + n);
                n > 0
            }
            ChunkSrc::Gz(reader) => match reader.read_chunk(&mut self.buf, self.chunk) {
                Ok(more) => more,
                Err(e) => {
                    let msg = e.to_string();
                    return Err(self.gz_err(&msg));
                }
            },
        };
        self.eof = !more && self.buf.len() == before;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flate::{gzip_compress, CompressMode};

    const SOURCES: [TraceSource; 4] = [
        TraceSource::Poisson {
            rps_per_function: 0.8,
        },
        TraceSource::Bursty {
            calm_rps: 0.2,
            burst_rps: 4.0,
            mean_calm_secs: 40.0,
            mean_burst_secs: 5.0,
        },
        TraceSource::Diurnal {
            mean_rps: 0.8,
            peak_to_trough: 4.0,
            period_secs: 120.0,
        },
        TraceSource::HeavyTail {
            mean_rps: 0.8,
            alpha: 1.5,
        },
    ];

    const AZURE_FIXTURE: &str = include_str!("../testdata/azure_sample.csv");
    /// Golden gzip fixture: `azure_sample.csv` compressed with a
    /// reference implementation (dynamic-Huffman blocks) — known bytes
    /// that must decode to known rows.
    const AZURE_FIXTURE_GZ: &[u8] = include_bytes!("../testdata/azure_sample.csv.gz");

    fn drain(stream: &mut EventStream<'_>) -> Vec<TraceEvent> {
        stream.events().collect()
    }

    #[test]
    fn every_source_streams_the_materialized_events_bit_for_bit() {
        for source in SOURCES {
            let lazy = StreamTrace::generate(source, 10, 200.0, 7).unwrap();
            let full = lazy.materialize().unwrap();
            assert_eq!(lazy.n_functions(), full.n_functions(), "{source:?}");
            assert_eq!(lazy.len(), full.len(), "{source:?}");
            assert_eq!(
                lazy.horizon_nanos(),
                event_nanos(full.events().last().unwrap().at_secs),
                "{source:?}"
            );
            let events = drain(&mut lazy.open().unwrap());
            assert_eq!(events.as_slice(), full.events(), "{source:?}");
            // The scan pass fans out bit-identically.
            let sharded = StreamTrace::generate_sharded(source, 10, 200.0, 7, 8).unwrap();
            assert_eq!(sharded.len(), lazy.len());
            assert_eq!(sharded.horizon_nanos(), lazy.horizon_nanos());
        }
    }

    #[test]
    fn checkpoints_replay_identical_suffixes() {
        let lazy = StreamTrace::generate(SOURCES[3], 6, 120.0, 3).unwrap();
        let mut stream = lazy.open().unwrap();
        let all = drain(&mut lazy.open().unwrap());
        for split in [0usize, 1, 7, all.len() - 1, all.len()] {
            let mut stream2 = lazy.open().unwrap();
            for _ in 0..split {
                stream2.next();
            }
            let cp = stream2.checkpoint();
            // Rewind twice: the checkpoint is reusable, not consumed.
            for _ in 0..2 {
                let suffix = drain(&mut lazy.open_at(&cp).unwrap());
                assert_eq!(suffix.as_slice(), &all[split..], "split at {split}");
            }
        }
        // A checkpoint taken after peeking is position-identical to one
        // taken before.
        stream.next();
        let before = stream.checkpoint();
        stream.peek();
        let after = stream.checkpoint();
        assert_eq!(
            drain(&mut lazy.open_at(&before).unwrap()),
            drain(&mut lazy.open_at(&after).unwrap()),
        );
    }

    #[test]
    fn boundary_checkpoints_reopen_onto_their_epoch() {
        // A resumable replay checkpoints the stream at every epoch
        // boundary by draining up to it; reopening each checkpoint must
        // replay exactly the suffix of the merged view from the
        // boundary's first arrival — for synthetic cursors and the CSV
        // row cursor alike.
        let epoch = event_nanos(25.0);
        let traces = [
            StreamTrace::generate(SOURCES[1], 6, 120.0, 9).unwrap(),
            StreamTrace::from_csv(AZURE_FIXTURE).unwrap(),
        ];
        for lazy in traces {
            let all = drain(&mut lazy.open().unwrap());
            let mut stream = lazy.open().unwrap();
            for k in 0..6u64 {
                let boundary = k * epoch;
                while stream
                    .peek()
                    .is_some_and(|e| event_nanos(e.at_secs) < boundary)
                {
                    stream.next();
                }
                let first = all.partition_point(|e| event_nanos(e.at_secs) < boundary);
                let suffix = drain(&mut lazy.open_at(&stream.checkpoint()).unwrap());
                assert_eq!(suffix.as_slice(), &all[first..], "boundary {k}");
            }
        }
    }

    #[test]
    fn misfit_checkpoints_are_rejected() {
        // A checkpoint from a trace with a different fleet size or
        // generator does not fit, and neither does a CSV position past
        // the scanned lines.
        let lazy = StreamTrace::generate(SOURCES[0], 6, 60.0, 1).unwrap();
        for other in [
            StreamTrace::generate(SOURCES[0], 5, 60.0, 1).unwrap(),
            StreamTrace::generate(SOURCES[3], 6, 60.0, 1).unwrap(),
            StreamTrace::generate(SOURCES[0], 6, 90.0, 1).unwrap(),
        ] {
            let cp = other.open().unwrap().checkpoint();
            assert!(lazy.open_at(&cp).is_err());
        }
        let csv = StreamTrace::from_csv("a,f,0,2\nb,g,1,3\n").unwrap();
        let short = StreamTrace::from_csv("a,f,0,2\n").unwrap();
        let mut stream = csv.open().unwrap();
        while stream.next().is_some() {}
        assert!(short.open_at(&stream.checkpoint()).is_err());
    }

    #[test]
    fn csv_checkpoints_the_scan_never_produced_do_not_resume() {
        // A CSV checkpoint is the row cursor at the start of the minute
        // holding the next event plus how many of that minute's events
        // were emitted. Anything else is rejected up front, so no
        // accepted checkpoint can emit out of time order.
        let csv: String = (0..30u64)
            .flat_map(|minute| (0..4u64).map(move |f| format!("a,f{f},{minute},{}\n", 1 + f)))
            .collect();
        let lazy = StreamTrace::from_csv(&csv).unwrap();
        let all = drain(&mut lazy.open().unwrap());
        let at = |cursor: u64, emitted: u64| StreamCheckpoint {
            imp: CpImp::Csv { cursor, emitted },
        };
        // Each minute is a run of 4 rows holding 10 events.
        let rows = 30 * 4;
        for (cursor, emitted) in [(0, 0), (4, 9), (rows - 4, 3), (rows, 0)] {
            let skip = (10 * cursor / 4 + emitted) as usize;
            assert_eq!(
                drain(&mut lazy.open_at(&at(cursor, emitted)).unwrap()),
                all[skip..],
                "cursor {cursor}, {emitted} emitted"
            );
        }
        let misfits = [
            ("row cursor past the table", at(rows + 1, 0)),
            ("row cursor inside a minute's run", at(5, 0)),
            ("all of the minute's events emitted", at(4, 10)),
            ("more events emitted than the minute holds", at(4, u64::MAX)),
            ("events emitted at the table's end", at(rows, 1)),
        ];
        for (what, cp) in misfits {
            assert!(lazy.open_at(&cp).is_err(), "{what} resumed");
        }
    }

    #[test]
    fn checkpoints_are_canonical_for_their_position() {
        // A checkpoint depends only on how many events were emitted,
        // whether the stream got there uninterrupted or resumed from an
        // earlier checkpoint, and whether it peeked past the position
        // or not, wherever it falls: mid-minute, at a minute's end,
        // inside a capped minute's slice, or between two identical
        // events of one function (`t` arrives at 150 s as arrival 0 of
        // 1 and 1 of 3).
        let csv = "a,f,0,3\na,g,0,2\na,t,2,1\na,t,2,3\na,big,3,9000\na,f,3,5\na,g,12,2\n\
                   a,f,30,1\n";
        let lazy = StreamTrace::from_csv(csv).unwrap();
        let all = drain(&mut lazy.open().unwrap());
        let tie = all.iter().position(|e| e.at_secs == 150.0).unwrap();
        assert_eq!(all[tie], all[tie + 1]);
        let first_at = |secs: f64| all.iter().position(|e| e.at_secs >= secs).unwrap();
        // Minute 3 holds 9005 events, so it expands in 3 slices of 20 s.
        let positions = [
            0,
            1,
            4,
            first_at(60.0),
            tie,
            tie + 1,
            first_at(180.0) + 1,
            first_at(190.0),
            first_at(200.0) - 1,
            first_at(200.0),
            first_at(220.0) + 7,
            all.len() - 1,
            all.len(),
        ];
        let bytes = |stream: &EventStream<'_>| {
            let mut wire = crate::snapshot::Wire::new();
            stream.checkpoint().save(&mut wire);
            wire.into_bytes()
        };
        let at = |from: Option<&StreamCheckpoint>, skip: usize| {
            let mut stream = match from {
                Some(cp) => lazy.open_at(cp).unwrap(),
                None => lazy.open().unwrap(),
            };
            for _ in 0..skip {
                stream.next().unwrap();
            }
            let before = bytes(&stream);
            stream.peek();
            assert_eq!(bytes(&stream), before, "a peek moved the checkpoint");
            (stream.checkpoint(), before)
        };
        for (i, &p) in positions.iter().enumerate() {
            let (cp, bytes) = at(None, p);
            for &q in &positions[..i] {
                let (earlier, _) = at(None, q);
                let (_, resumed) = at(Some(&earlier), p - q);
                assert_eq!(resumed, bytes, "position {p} resumed from {q}");
            }
            assert_eq!(
                drain(&mut lazy.open_at(&cp).unwrap()),
                all[p..],
                "position {p}"
            );
        }
    }

    #[test]
    fn rows_in_any_minute_order_replay_and_resume_at_every_event() {
        // Rows trail the highest minute before them by up to 40 minutes,
        // within a file and across the seam. The scan accepts them, the
        // stream equals the materialized reader, and a checkpoint taken
        // at any event resumes onto the identical suffix.
        let part1 = "a,f,40,3\nb,g,20,2\na,f,0,1\n";
        let part2 = "b,g,39,2\nc,h,1,4\na,f,20,2\n";
        let lazy = StreamTrace::from_csv_parts(&[part1.as_bytes(), part2.as_bytes()]).unwrap();
        let all = drain(&mut lazy.open().unwrap());
        assert_eq!(all.as_slice(), lazy.materialize().unwrap().events());
        assert_eq!(all.len(), 14);
        // In minute order the rows are 0, 1, 20, 20, 39, 40, the two of
        // minute 20 in different files: a cursor between them is inside
        // that minute.
        for (cursor, fits) in [(2, true), (3, false), (4, true)] {
            let cp = StreamCheckpoint {
                imp: CpImp::Csv { cursor, emitted: 0 },
            };
            assert_eq!(lazy.open_at(&cp).is_ok(), fits, "cursor {cursor}");
        }
        let mut stream = lazy.open().unwrap();
        for i in 0..=all.len() {
            assert_eq!(
                drain(&mut lazy.open_at(&stream.checkpoint()).unwrap()),
                all[i..],
                "resumed at {i}"
            );
            stream.next();
        }
    }

    #[test]
    fn a_million_event_minute_drains_in_capped_batches() {
        // One 1e6-count row would expand to 16 MB of keys in one batch;
        // the reader cuts its minute into time slices of at most the cap.
        let lazy = StreamTrace::from_csv("a,f,7,1000000\n").unwrap();
        let full = lazy.materialize().unwrap();
        let mut stream = lazy.open().unwrap();
        let mut largest = 0;
        for (i, expect) in full.events().iter().enumerate() {
            let got = stream.next().expect("stream ended early");
            assert_eq!(got.at_secs.to_bits(), expect.at_secs.to_bits(), "event {i}");
            assert_eq!(got.function, expect.function, "event {i}");
            largest = largest.max(stream.batch_len());
        }
        assert!(stream.next().is_none());
        assert!(
            (1..=BATCH_EVENTS as usize).contains(&largest),
            "a batch held {largest} events"
        );
    }

    #[test]
    fn slice_of_finds_the_first_slice_ending_above_an_arrival() {
        // Arrivals on and next to every slice end, where the guess can
        // round to either neighbour of the slice that holds them.
        let mut c = CsvStream::new(&[], Vec::new());
        for minute in [0, 1, 4321, MAX_MINUTE] {
            for slices in [2, 3, 7, 245, 4097] {
                c.minute = minute;
                c.slices = slices;
                for k in 0..slices - 1 {
                    let end = c.slice_end(k);
                    for t in [end.next_down(), end, end.next_up()] {
                        let (mut lo, mut hi) = (0, slices - 1);
                        while lo < hi {
                            let mid = (lo + hi) / 2;
                            if t < c.slice_end(mid) {
                                hi = mid;
                            } else {
                                lo = mid + 1;
                            }
                        }
                        assert_eq!(c.slice_of(t), lo, "minute {minute}, {slices} slices, {t}");
                    }
                }
            }
        }
    }

    #[test]
    fn sparse_rows_of_a_sliced_minute_join_only_their_own_slices() {
        // 100 602 arrivals cut minute 4 into 25 slices. The 300 small
        // rows hold 1 or 3 arrivals each, so each joins only the slices
        // its arrivals fall in, and a resume from inside a slice picks
        // every row up where it stood.
        let mut csv = String::from("a,big,4,100000\n");
        for f in 0..300 {
            csv += &format!("a,f{f},4,{}\n", 1 + 2 * (f % 2));
        }
        csv += "a,f7,6,2\n";
        let lazy = StreamTrace::from_csv(&csv).unwrap();
        let all = drain(&mut lazy.open().unwrap());
        assert_eq!(all.as_slice(), lazy.materialize().unwrap().events());
        let mut stream = lazy.open().unwrap();
        let mut largest = 0;
        for i in 0..all.len() {
            if i % 24_989 == 1 {
                let cp = stream.checkpoint();
                assert_eq!(
                    drain(&mut lazy.open_at(&cp).unwrap()),
                    all[i..],
                    "resumed at {i}"
                );
            }
            stream.next().unwrap();
            largest = largest.max(stream.batch_len());
        }
        assert!(
            largest <= BATCH_EVENTS as usize + 301,
            "a batch held {largest} events"
        );
    }

    #[test]
    fn a_minute_past_the_bound_fails_both_readers_alike() {
        let last = format!("a,f,{MAX_MINUTE},3\n");
        let lazy = StreamTrace::from_csv(&last).unwrap();
        let full = TraceSource::from_csv(&last).unwrap();
        assert_eq!(drain(&mut lazy.open().unwrap()).as_slice(), full.events());
        let past = format!("{last}a,f,{},3\n", MAX_MINUTE + 1);
        let msg = |res: Result<()>| match res {
            Err(FreedomError::InvalidArgument(msg)) => msg,
            other => panic!("expected InvalidArgument, got {other:?}"),
        };
        let streamed = msg(StreamTrace::from_csv(&past).map(drop));
        let materialized = msg(TraceSource::from_csv(&past).map(drop));
        assert_eq!(streamed, materialized);
        assert!(streamed.contains("line 2"), "{streamed}");
        assert!(streamed.contains("minute exceeds"), "{streamed}");
    }

    #[test]
    fn csv_stream_matches_materialized_reader() {
        for chunk in [3usize, 17, 64 * 1024] {
            let lazy =
                StreamTrace::from_csv_parts_chunked(&[AZURE_FIXTURE.as_bytes()], chunk).unwrap();
            let full = TraceSource::from_csv(AZURE_FIXTURE).unwrap();
            assert_eq!(lazy.n_functions(), 6);
            assert_eq!(lazy.len(), 113);
            assert_eq!(
                lazy.horizon_nanos(),
                event_nanos(full.events().last().unwrap().at_secs)
            );
            let events = drain(&mut lazy.open().unwrap());
            assert_eq!(events.as_slice(), full.events(), "chunk {chunk}");
            // Mid-stream checkpoints re-seek exactly.
            let mut stream = lazy.open().unwrap();
            for _ in 0..40 {
                stream.next();
            }
            let cp = stream.checkpoint();
            let suffix = drain(&mut lazy.open_at(&cp).unwrap());
            assert_eq!(suffix.as_slice(), &events[40..]);
            // A drained stream held the rows of one minute at a time.
            let StreamSpec::Csv { table, .. } = &lazy.spec else {
                unreachable!("a CSV trace");
            };
            let largest_minute = table[0]
                .chunk_by(|a, b| a.minute == b.minute)
                .map(<[Row]>::len)
                .max()
                .unwrap();
            let mut drained = lazy.open().unwrap();
            assert_eq!(drain(&mut drained).len(), 113);
            assert_eq!(drained.peak_resident(), largest_minute, "chunk {chunk}");
        }
    }

    #[test]
    fn csv_negative_paths_report_accurate_line_numbers() {
        let err = |csv: &str, chunk: usize| match StreamTrace::from_csv_parts_chunked(
            &[csv.as_bytes()],
            chunk,
        ) {
            Err(FreedomError::InvalidArgument(msg)) => msg,
            other => panic!("expected InvalidArgument, got {other:?}"),
        };
        // A truncated final line — the file ends mid-record, no trailing
        // newline — is a malformed row at its own line number, even when
        // the chunk boundary lands inside it.
        for chunk in [1usize, 4, 1 << 16] {
            let msg = err("a,f,0,3\nb,g,1,2\na,f,2", chunk);
            assert!(msg.contains("line 3"), "chunk {chunk}: {msg}");
            assert!(msg.contains("4 columns"), "chunk {chunk}: {msg}");
        }
        // A record split mid-field across a chunk boundary still parses
        // as one line; when malformed, the error names that line.
        for chunk in 1..12 {
            let msg = err("a,f,0,3\na,f,1,not-a-count\na,f,2,1\n", chunk);
            assert!(msg.contains("line 2"), "chunk {chunk}: {msg}");
        }
        // Functions interleaved out of minute order across chunk
        // boundaries stream like the materialized reader, however far a
        // row trails.
        for (csv, chunk) in [
            ("a,f,9,1\nb,g,2,1\na,f,10,1\n", 5),
            ("a,f,30,1\nb,g,2,1\n", 4),
        ] {
            let lazy = StreamTrace::from_csv_parts_chunked(&[csv.as_bytes()], chunk).unwrap();
            let full = TraceSource::from_csv(csv).unwrap();
            assert_eq!(drain(&mut lazy.open().unwrap()).as_slice(), full.events());
        }
        // Scan-time grammar errors match the materialized reader's.
        assert!(StreamTrace::from_csv("").is_err());
        assert!(StreamTrace::from_csv("app,func,minute,count\n").is_err());
        assert!(StreamTrace::from_csv("a,f,0,1000001\n").is_err());
        assert!(StreamTrace::from_csv_files(&["/nonexistent/trace.csv"]).is_err());
    }

    #[test]
    fn csv_streaming_handles_headers_zero_counts_and_crlf() {
        // Header skipped, zero-count rows register their function, CRLF
        // endings tolerated — all matching the materialized reader.
        let csv = "app,func,minute,count\r\na,f,0,3\r\nb,g,1,0\r\n";
        let lazy = StreamTrace::from_csv(csv).unwrap();
        assert_eq!(lazy.n_functions(), 2);
        assert_eq!(lazy.len(), 3);
        let full = TraceSource::from_csv(csv).unwrap();
        assert_eq!(drain(&mut lazy.open().unwrap()).as_slice(), full.events());
        // An empty trace of registered functions is well-formed.
        let empty = StreamTrace::from_csv("a,f,0,0\n").unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.horizon_nanos(), 0);
        assert!(drain(&mut empty.open().unwrap()).is_empty());
    }

    #[test]
    fn file_backed_streams_checkpoint_and_reopen() {
        let dir = std::env::temp_dir().join(format!("freedom_stream_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("azure.csv");
        std::fs::write(&path, AZURE_FIXTURE).unwrap();
        let lazy = StreamTrace::from_csv_files(&[&path]).unwrap();
        let full = TraceSource::from_csv(AZURE_FIXTURE).unwrap();
        let events = drain(&mut lazy.open().unwrap());
        assert_eq!(events.as_slice(), full.events());
        let mut stream = lazy.open().unwrap();
        for _ in 0..25 {
            stream.next();
        }
        let cp = stream.checkpoint();
        assert_eq!(
            drain(&mut lazy.open_at(&cp).unwrap()).as_slice(),
            &events[25..]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_row_table_holds_16_bytes_per_data_row() {
        // Trace input is O(rows): the scan keeps one packed 16-byte row
        // per data row with arrivals (a zero-count row only registers
        // its function), and nothing for headers, blank lines or events.
        // A multi-part, partly gzip'd input of a few thousand rows also
        // checks that no part keeps the slack of a growing table.
        assert_eq!(std::mem::size_of::<Row>(), 16);
        let mut parts: Vec<Vec<u8>> = Vec::new();
        for part in 0..3u64 {
            let mut csv = String::from("app,func,minute,count\n");
            for minute in 10 * part..10 * (part + 1) {
                for f in 0..333 {
                    csv.push_str(&format!("app,f{f},{minute},{}\n", (minute + f) % 4));
                }
                csv.push('\n');
            }
            parts.push(if part == 1 {
                gzip_compress(csv.as_bytes(), CompressMode::FixedHuffman)
            } else {
                csv.into_bytes()
            });
        }
        let refs: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
        let trace = StreamTrace::from_csv_parts(&refs).unwrap();
        let StreamSpec::Csv { table, .. } = &trace.spec else {
            unreachable!("a CSV trace");
        };
        let with_arrivals = (0..30u64)
            .flat_map(|minute| (0..333).filter(move |f| (minute + f) % 4 != 0))
            .count();
        assert_eq!(table.iter().map(Vec::len).sum::<usize>(), with_arrivals);
        assert_eq!(trace.n_functions(), 333);
        let bytes: usize = table
            .iter()
            .map(|rows| rows.capacity() * std::mem::size_of::<Row>())
            .sum();
        assert_eq!(bytes, 16 * with_arrivals);
    }

    #[test]
    fn checkpoint_kind_mismatch_is_rejected() {
        let synthetic = StreamTrace::generate(SOURCES[0], 3, 30.0, 1).unwrap();
        let csv = StreamTrace::from_csv("a,f,0,2\n").unwrap();
        let cp = synthetic.open().unwrap().checkpoint();
        assert!(csv.open_at(&cp).is_err());
        let cp = csv.open().unwrap().checkpoint();
        assert!(synthetic.open_at(&cp).is_err());
    }

    // ---- gzip and multi-file ingestion ------------------------------

    #[test]
    fn golden_gz_fixture_decodes_to_known_rows() {
        // Known bytes → known rows: the checked-in gzip fixture must
        // replay exactly like its plain-text source, through both the
        // file-backed and in-memory paths, each detecting the gzip magic.
        let plain = StreamTrace::from_csv(AZURE_FIXTURE).unwrap();
        let reference = drain(&mut plain.open().unwrap());
        let gz = StreamTrace::from_csv_parts(&[AZURE_FIXTURE_GZ]).unwrap();
        assert!(gz.scan[0].gz && !plain.scan[0].gz);
        assert_eq!(gz.n_functions(), plain.n_functions());
        assert_eq!(gz.len(), plain.len());
        assert_eq!(gz.horizon_nanos(), plain.horizon_nanos());
        assert_eq!(drain(&mut gz.open().unwrap()), reference);
        let dir = std::env::temp_dir().join(format!("freedom_gz_golden_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("azure.csv.gz");
        std::fs::write(&path, AZURE_FIXTURE_GZ).unwrap();
        let from_file = StreamTrace::from_csv_files(&[&path]).unwrap();
        assert!(from_file.scan[0].gz);
        assert_eq!(drain(&mut from_file.open().unwrap()), reference);
        // And the materialized escape hatch agrees.
        let full = from_file.materialize().unwrap();
        assert_eq!(reference.as_slice(), full.events());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gz_streams_match_plain_for_both_compress_modes() {
        for mode in [CompressMode::Stored, CompressMode::FixedHuffman] {
            let gz_bytes = gzip_compress(AZURE_FIXTURE.as_bytes(), mode);
            let gz = StreamTrace::from_csv_parts(&[&gz_bytes]).unwrap();
            let plain = StreamTrace::from_csv(AZURE_FIXTURE).unwrap();
            let reference = drain(&mut plain.open().unwrap());
            assert_eq!(drain(&mut gz.open().unwrap()), reference, "{mode:?}");
            // Checkpoints into the middle of the gzip stream reopen at
            // their row cursor.
            let mut stream = gz.open().unwrap();
            for _ in 0..50 {
                stream.next();
            }
            let cp = stream.checkpoint();
            assert_eq!(
                drain(&mut gz.open_at(&cp).unwrap()).as_slice(),
                &reference[50..],
                "{mode:?}"
            );
        }
    }

    #[test]
    fn gz_negative_paths_are_file_qualified_and_line_accurate() {
        let gz = gzip_compress(AZURE_FIXTURE.as_bytes(), CompressMode::FixedHuffman);
        let err = |bytes: &[u8]| match StreamTrace::from_csv_parts(&[bytes]) {
            Err(FreedomError::InvalidArgument(msg)) => msg,
            other => panic!("expected InvalidArgument, got {other:?}"),
        };
        // A bad member header after the gzip magic: an unknown
        // compression method.
        let mut bad_method = gz.clone();
        bad_method[2] = 7;
        let msg = err(&bad_method);
        assert!(
            msg.contains("unsupported gzip compression method 7"),
            "{msg}"
        );
        assert!(msg.contains("near line 1"), "{msg}");
        // Truncated stream: decode dies mid-file with the line reached.
        let msg = err(&gz[..gz.len() / 2]);
        assert!(msg.contains("truncated gzip stream"), "{msg}");
        assert!(msg.contains("near line"), "{msg}");
        // Bad CRC: the trailer check fires after the last line.
        let mut bad_crc = gz.clone();
        let n = bad_crc.len();
        bad_crc[n - 6] ^= 0xff;
        let msg = err(&bad_crc);
        assert!(msg.contains("CRC mismatch"), "{msg}");
        // Corrupt block: an invalid symbol inside the deflate stream.
        let mut corrupt = gz.clone();
        for b in corrupt.iter_mut().skip(20).take(16) {
            *b = 0xff;
        }
        let res = StreamTrace::from_csv_parts(&[&corrupt]);
        assert!(res.is_err(), "corrupted block must not scan cleanly");
        // File-backed errors carry the path.
        let dir = std::env::temp_dir().join(format!("freedom_gz_neg_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("broken.csv.gz");
        std::fs::write(&path, &gz[..gz.len() - 3]).unwrap();
        match StreamTrace::from_csv_files(&[&path]) {
            Err(FreedomError::InvalidArgument(msg)) => {
                assert!(msg.contains("broken.csv.gz"), "{msg}");
                assert!(msg.contains("truncated gzip stream"), "{msg}");
            }
            other => panic!("expected InvalidArgument, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn multi_file_parts_replay_like_the_concatenation() {
        // Three "daily" files, the middle one gzip'd with its own
        // header, split mid-minute — the logical trace is the row
        // concatenation.
        let part1 = "app,func,minute,count\na,f,0,3\nb,g,1,2\na,f,2,1\n";
        let part2_plain = "app,func,minute,count\na,f,2,2\nc,h,3,4\n";
        let part2 = gzip_compress(part2_plain.as_bytes(), CompressMode::FixedHuffman);
        let part3 = "b,g,4,1\na,f,5,2\n";
        let concat = "app,func,minute,count\na,f,0,3\nb,g,1,2\na,f,2,1\na,f,2,2\nc,h,3,4\n\
                      b,g,4,1\na,f,5,2\n";
        let reference_trace = StreamTrace::from_csv(concat).unwrap();
        let reference = drain(&mut reference_trace.open().unwrap());
        for chunk in [3usize, 64 * 1024] {
            let multi = StreamTrace::from_csv_parts_chunked(
                &[part1.as_bytes(), &part2, part3.as_bytes()],
                chunk,
            )
            .unwrap();
            assert_eq!(multi.n_functions(), reference_trace.n_functions());
            assert_eq!(multi.len(), reference_trace.len());
            assert_eq!(multi.horizon_nanos(), reference_trace.horizon_nanos());
            assert_eq!(
                drain(&mut multi.open().unwrap()),
                reference,
                "chunk {chunk}"
            );
            // The materialized escape hatch strips the per-file headers
            // and agrees too.
            assert_eq!(
                drain(&mut multi.open().unwrap()).as_slice(),
                multi.materialize().unwrap().events(),
                "chunk {chunk}"
            );
            // Checkpoints landing inside any file re-seek exactly.
            for split in [0usize, 2, 5, reference.len() - 1, reference.len()] {
                let mut stream = multi.open().unwrap();
                for _ in 0..split {
                    stream.next();
                }
                let cp = stream.checkpoint();
                assert_eq!(
                    drain(&mut multi.open_at(&cp).unwrap()).as_slice(),
                    &reference[split..],
                    "chunk {chunk}, split {split}"
                );
            }
        }
    }

    #[test]
    fn file_seam_disorder_replays_and_errors_name_their_part() {
        // A later file may open any number of minutes behind the earlier
        // files' rows, its trailing row need not be its first, and the
        // parts replay like their concatenation and the materialized
        // reader.
        for (first, second) in [
            ("a,f,9,1\n", "b,g,2,1\na,f,10,1\n"),
            ("a,f,30,1\n", "x,y,29,1\nb,g,21,1\n"),
        ] {
            let multi =
                StreamTrace::from_csv_parts(&[first.as_bytes(), second.as_bytes()]).unwrap();
            let concat = StreamTrace::from_csv(&format!("{first}{second}")).unwrap();
            let events = drain(&mut multi.open().unwrap());
            assert_eq!(events, drain(&mut concat.open().unwrap()));
            assert_eq!(events.as_slice(), multi.materialize().unwrap().events());
        }
        // In-file grammar errors name their part.
        let good = "a,f,0,1\n";
        let malformed = "a,f,1,1\nbroken-row\n";
        match StreamTrace::from_csv_parts(&[good.as_bytes(), malformed.as_bytes()]) {
            Err(FreedomError::InvalidArgument(msg)) => {
                assert!(msg.contains("part 2"), "{msg}");
                assert!(msg.contains("line 2"), "{msg}");
            }
            other => panic!("expected InvalidArgument, got {other:?}"),
        }
    }

    #[test]
    fn multi_file_key_assignment_matches_first_appearance() {
        // A function appearing in several files keeps the index of its
        // first appearance; new functions in later files extend the map.
        let part1 = "appA,f1,0,1\nappB,f2,0,1\n";
        let part2 = "appB,f2,1,1\nappC,f3,1,1\nappA,f1,1,1\n";
        let multi = StreamTrace::from_csv_parts(&[part1.as_bytes(), part2.as_bytes()]).unwrap();
        assert_eq!(multi.n_functions(), 3);
        let concat = StreamTrace::from_csv(
            "appA,f1,0,1\nappB,f2,0,1\nappB,f2,1,1\nappC,f3,1,1\nappA,f1,1,1\n",
        )
        .unwrap();
        assert_eq!(
            drain(&mut multi.open().unwrap()),
            drain(&mut concat.open().unwrap())
        );
        // The composite key disambiguates app/func boundaries:
        // ("ab","c") and ("a","bc") are distinct functions.
        let tricky = StreamTrace::from_csv("ab,c,0,1\na,bc,0,1\n").unwrap();
        assert_eq!(tricky.n_functions(), 2);
    }

    #[test]
    fn file_backed_multi_file_gz_checkpoints_reopen() {
        let dir = std::env::temp_dir().join(format!("freedom_multi_gz_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Day 1 plain, day 2 gz — mixed inputs on disk.
        let day1 = dir.join("day1.csv");
        let day2 = dir.join("day2.csv.gz");
        let half = AZURE_FIXTURE.lines().count() / 2;
        let part1: String = AZURE_FIXTURE
            .lines()
            .take(half)
            .map(|l| format!("{l}\n"))
            .collect();
        let part2: String = AZURE_FIXTURE
            .lines()
            .skip(half)
            .map(|l| format!("{l}\n"))
            .collect();
        std::fs::write(&day1, &part1).unwrap();
        std::fs::write(
            &day2,
            gzip_compress(part2.as_bytes(), CompressMode::FixedHuffman),
        )
        .unwrap();
        let multi = StreamTrace::from_csv_files(&[&day1, &day2]).unwrap();
        let reference = drain(
            &mut StreamTrace::from_csv(AZURE_FIXTURE)
                .unwrap()
                .open()
                .unwrap(),
        );
        let events = drain(&mut multi.open().unwrap());
        assert_eq!(events, reference);
        // A checkpoint inside the gz'd second file reopens exactly.
        let into_second = events.len() - 10;
        let mut stream = multi.open().unwrap();
        for _ in 0..into_second {
            stream.next();
        }
        let cp = stream.checkpoint();
        assert_eq!(
            drain(&mut multi.open_at(&cp).unwrap()).as_slice(),
            &reference[into_second..]
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
