//! Follow mode: tail a growing event file and seal epochs on batch
//! boundaries — the serving loop that turns the replay engines into a
//! restartable process.
//!
//! [`follow_events`] owns the file-side mechanics only: incremental reads
//! from a byte cursor, partial-line carry (a producer may be mid-`write`
//! when we poll), batch assembly, and idle detection. What to *do* with
//! each batch is the caller's closure — the CLI drives a
//! [`crate::StreamEngine`] or a `dds-shard` engine through it and
//! checkpoints on its own cadence.
//!
//! The cursor handed to the callback is the byte offset **just past the
//! last event of that batch**: persisting it (snapshots reserve a header
//! field for exactly this) lets a restarted process resume tailing with
//! no event replayed twice and none skipped, because batches are always
//! cut at event boundaries and events at line boundaries.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::ops::ControlFlow;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::events::{parse_event_line, Batch, StreamError, TimedEvent};

/// Configuration of [`follow_events`].
#[derive(Clone, Copy, Debug)]
pub struct FollowConfig {
    /// Events per sealed batch. Must be positive.
    pub batch: usize,
    /// How long to sleep between polls of the file size.
    pub poll: Duration,
    /// Stop once a read finds nothing new this long after the file last
    /// grew — measured from when that growth's batches were sealed, so
    /// time spent in the callback never counts as silence; a final short
    /// batch flushes whatever is pending first. `None` follows forever
    /// (stop from the callback with [`ControlFlow::Break`]).
    pub idle_exit: Option<Duration>,
    /// Byte offset to start tailing from (0 for a fresh file; a restored
    /// snapshot's cursor to resume).
    pub cursor: u64,
}

impl Default for FollowConfig {
    /// 25-event batches (the replay default), 200 ms polls, exit after 2 s
    /// of silence, from the start of the file.
    fn default() -> Self {
        FollowConfig {
            batch: 25,
            poll: Duration::from_millis(200),
            idle_exit: Some(Duration::from_secs(2)),
            cursor: 0,
        }
    }
}

/// What a finished follow loop saw.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FollowOutcome {
    /// Byte offset just past the last consumed event.
    pub cursor: u64,
    /// Events consumed (parsed mutations; comments/blanks excluded).
    pub events: u64,
    /// Batches handed to the callback.
    pub epochs: u64,
    /// Whether the loop ended because the callback broke (vs idling out).
    pub stopped_by_callback: bool,
}

/// Tails `path`, handing `on_batch` one [`Batch`] of `config.batch` events
/// at a time together with the byte cursor just past that batch's last
/// event. See the module docs for the resume contract.
///
/// # Errors
/// Returns [`StreamError::Io`] on file errors and [`StreamError::Tail`]
/// on a malformed line — the tail variant carries the byte offset where
/// the offending line begins and the index of the next event, so an
/// operator can fix the producer and resume from a cursor just before the
/// damage. The reported line number counts from the start cursor, not the
/// start of the file (a resumed tail never reads the bytes before its
/// cursor, so it cannot know their line count) — it is absolute exactly
/// when `config.cursor == 0`.
///
/// # Panics
/// Panics if `config.batch` is zero.
pub fn follow_events<F>(
    path: impl AsRef<Path>,
    config: FollowConfig,
    mut on_batch: F,
) -> Result<FollowOutcome, StreamError>
where
    F: FnMut(Batch, u64) -> ControlFlow<()>,
{
    assert!(config.batch > 0, "batch size must be positive");
    let path = path.as_ref();
    let mut file = File::open(path)?;
    file.seek(SeekFrom::Start(config.cursor))?;

    // `line_start` is the byte offset where the current (possibly still
    // incomplete) line begins; `carry` holds its bytes read so far.
    let mut line_start = config.cursor;
    let mut carry: Vec<u8> = Vec::new();
    let mut lineno = 0usize; // counts from the cursor (see the Errors doc)
    let mut pending: VecDeque<(TimedEvent, u64)> = VecDeque::new();
    let mut outcome = FollowOutcome {
        cursor: config.cursor,
        events: 0,
        epochs: 0,
        stopped_by_callback: false,
    };
    let mut last_growth = Instant::now();
    let mut chunk = vec![0u8; 64 * 1024];

    loop {
        // Drain everything currently readable.
        let mut grew = false;
        loop {
            let read = file.read(&mut chunk)?;
            if read == 0 {
                break;
            }
            grew = true;
            let mut slice = &chunk[..read];
            while let Some(nl) = slice.iter().position(|&b| b == b'\n') {
                carry.extend_from_slice(&slice[..nl]);
                slice = &slice[nl + 1..];
                let begins_at = line_start;
                let end = line_start + carry.len() as u64 + 1;
                lineno += 1;
                let line = String::from_utf8_lossy(&carry).into_owned();
                carry.clear();
                line_start = end;
                let parsed = parse_event_line(&line, lineno)
                    .map_err(|e| tail_error(e, begins_at, outcome.events + pending.len() as u64))?;
                if let Some(ev) = parsed {
                    pending.push_back((ev, end));
                }
            }
            carry.extend_from_slice(slice);
        }

        // Seal full batches.
        while pending.len() >= config.batch {
            if seal(&mut pending, config.batch, &mut outcome, &mut on_batch) {
                return Ok(outcome);
            }
        }
        if grew {
            // The silence starts after the callbacks, and only a read
            // that finds nothing new may end the loop: read again now.
            last_growth = Instant::now();
            continue;
        }

        if let Some(idle) = config.idle_exit {
            if last_growth.elapsed() >= idle {
                // A final line without a trailing newline is complete once
                // the producer has gone idle — parse it like `read_events`
                // would, so a replay through the tail loop and a bulk load
                // see the same events.
                if !carry.is_empty() {
                    lineno += 1;
                    let line = String::from_utf8_lossy(&carry).into_owned();
                    let end = line_start + carry.len() as u64;
                    carry.clear();
                    let parsed = parse_event_line(&line, lineno).map_err(|e| {
                        tail_error(e, line_start, outcome.events + pending.len() as u64)
                    })?;
                    if let Some(ev) = parsed {
                        pending.push_back((ev, end));
                    }
                }
                // Flush the short tail, if any, then stop.
                let k = pending.len();
                if k > 0 {
                    seal(&mut pending, k, &mut outcome, &mut on_batch);
                }
                return Ok(outcome);
            }
        }
        std::thread::sleep(config.poll);
    }
}

/// Hands the first `k` pending events to `on_batch` as one batch, with the
/// cursor just past the last of them, and returns whether the callback
/// broke. Draining from the front of the deque costs `O(k)`, whatever
/// backlog stays pending behind the batch.
fn seal<F>(
    pending: &mut VecDeque<(TimedEvent, u64)>,
    k: usize,
    outcome: &mut FollowOutcome,
    on_batch: &mut F,
) -> bool
where
    F: FnMut(Batch, u64) -> ControlFlow<()>,
{
    let cursor = pending[k - 1].1;
    let events: Vec<TimedEvent> = pending.drain(..k).map(|(ev, _)| ev).collect();
    outcome.events += k as u64;
    outcome.epochs += 1;
    outcome.cursor = cursor;
    outcome.stopped_by_callback = on_batch(Batch::from_events(events), cursor).is_break();
    outcome.stopped_by_callback
}

/// Upgrades a [`StreamError::Parse`] from the line parser to the richer
/// [`StreamError::Tail`], pinning the byte offset where the offending line
/// begins and the index of the next event.
fn tail_error(err: StreamError, byte: u64, event: u64) -> StreamError {
    match err {
        StreamError::Parse { line, msg } => StreamError::Tail {
            line,
            byte,
            event,
            msg,
        },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::Event;
    use std::io::Write;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "dds_follow_{tag}_{}_{:?}.events",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    fn quick(batch: usize, cursor: u64) -> FollowConfig {
        FollowConfig {
            batch,
            poll: Duration::from_millis(5),
            idle_exit: Some(Duration::from_millis(50)),
            cursor,
        }
    }

    #[test]
    fn static_file_is_consumed_in_batches_then_idles_out() {
        let path = temp_path("static");
        let mut text = String::from("# header\n");
        for i in 0..7u32 {
            text.push_str(&format!("{i} + {i} {}\n", i + 100));
        }
        std::fs::write(&path, &text).unwrap();
        let mut batches = Vec::new();
        let outcome = follow_events(&path, quick(3, 0), |batch, cursor| {
            batches.push((batch.events.len(), cursor));
            ControlFlow::Continue(())
        })
        .unwrap();
        assert_eq!(outcome.events, 7);
        assert_eq!(outcome.epochs, 3, "3 + 3 + flush(1)");
        assert!(!outcome.stopped_by_callback);
        assert_eq!(
            batches.iter().map(|&(n, _)| n).collect::<Vec<_>>(),
            vec![3, 3, 1]
        );
        assert_eq!(outcome.cursor, text.len() as u64, "cursor reaches EOF");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resuming_from_a_batch_cursor_replays_nothing_and_skips_nothing() {
        let path = temp_path("resume");
        let mut text = String::new();
        for i in 0..6u32 {
            text.push_str(&format!("{i} + {i} {}\n", i + 50));
        }
        std::fs::write(&path, &text).unwrap();
        // First pass: stop after the first 2-event batch.
        let mut first_cursor = 0;
        let outcome = follow_events(&path, quick(2, 0), |_, cursor| {
            first_cursor = cursor;
            ControlFlow::Break(())
        })
        .unwrap();
        assert!(outcome.stopped_by_callback);
        assert_eq!(outcome.events, 2);
        // Second pass from the persisted cursor: exactly the other 4.
        let mut seen = Vec::new();
        let outcome = follow_events(&path, quick(2, first_cursor), |batch, _| {
            seen.extend(batch.events.iter().map(|ev| ev.event));
            ControlFlow::Continue(())
        })
        .unwrap();
        assert_eq!(outcome.events, 4);
        assert_eq!(
            seen,
            (2..6u32)
                .map(|i| Event::Insert(i, i + 50))
                .collect::<Vec<_>>()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn growing_file_is_tailed_across_partial_lines() {
        let path = temp_path("grow");
        std::fs::write(&path, "0 + 1 2\n").unwrap();
        let writer_path = path.clone();
        // A producer that appends with a mid-line pause, so the tail loop
        // must carry a partial line across polls.
        let writer = std::thread::spawn(move || {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&writer_path)
                .unwrap();
            std::thread::sleep(Duration::from_millis(15));
            write!(f, "1 + 3").unwrap();
            f.flush().unwrap();
            std::thread::sleep(Duration::from_millis(15));
            writeln!(f, " 4").unwrap();
            writeln!(f, "2 - 1 2").unwrap();
            f.flush().unwrap();
        });
        let mut seen = Vec::new();
        let outcome = follow_events(
            &path,
            FollowConfig {
                batch: 1,
                poll: Duration::from_millis(5),
                idle_exit: Some(Duration::from_millis(120)),
                cursor: 0,
            },
            |batch, _| {
                seen.extend(batch.events.iter().map(|ev| ev.event));
                ControlFlow::Continue(())
            },
        )
        .unwrap();
        writer.join().unwrap();
        assert_eq!(outcome.events, 3);
        assert_eq!(
            seen,
            vec![
                Event::Insert(1, 2),
                Event::Insert(3, 4),
                Event::Delete(1, 2)
            ]
        );
        std::fs::remove_file(&path).ok();
    }

    /// Time spent in the callback is not silence: an event the producer
    /// appends while a batch is being handled — for longer than
    /// `idle_exit` — is read before the loop idles out.
    #[test]
    fn appends_during_a_slow_callback_are_read_before_idling_out() {
        let path = temp_path("slow_callback");
        std::fs::write(&path, "0 + 1 2\n1 + 3 4\n").unwrap();
        let config = quick(1, 0);
        let idle = config.idle_exit.expect("quick configs idle out");
        let mut seen = Vec::new();
        let outcome = follow_events(&path, config, |batch, _| {
            if seen.is_empty() {
                let mut f = std::fs::OpenOptions::new()
                    .append(true)
                    .open(&path)
                    .unwrap();
                writeln!(f, "2 + 5 6").unwrap();
                std::thread::sleep(2 * idle);
            }
            seen.extend(batch.events.iter().map(|ev| ev.event));
            ControlFlow::Continue(())
        })
        .unwrap();
        assert_eq!(
            seen,
            vec![
                Event::Insert(1, 2),
                Event::Insert(3, 4),
                Event::Insert(5, 6)
            ]
        );
        assert_eq!(outcome.events, 3);
        std::fs::remove_file(&path).ok();
    }

    /// The resume contract after an idle-exit on an unterminated final
    /// line. The flush gives that line a cursor *excluding* its eventual
    /// trailing newline (it has not been written yet). When the producer
    /// later appends `\n` + more events and the follower resumes from the
    /// stored cursor, the first byte it reads is that stray `\n`: an empty
    /// line, which `parse_event_line` skips like any blank — so the tail
    /// event is neither replayed nor does the resume error. Only the
    /// (documented, cursor-relative) line numbering shifts by one.
    #[test]
    fn resume_after_unterminated_tail_neither_double_counts_nor_errors() {
        let path = temp_path("resume_unterminated");
        let head = "0 + 1 2\n1 + 3 4"; // no trailing newline
        std::fs::write(&path, head).unwrap();
        let mut seen = Vec::new();
        let outcome = follow_events(&path, quick(10, 0), |batch, _| {
            seen.extend(batch.events.iter().map(|ev| ev.event));
            ControlFlow::Continue(())
        })
        .unwrap();
        assert_eq!(outcome.events, 2, "the unterminated tail line flushes");
        assert_eq!(seen, vec![Event::Insert(1, 2), Event::Insert(3, 4)]);
        assert_eq!(
            outcome.cursor,
            head.len() as u64,
            "cursor stops before the missing newline"
        );

        // The producer finishes the line and appends one more event.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        write!(f, "\n2 + 5 6\n").unwrap();
        drop(f);

        let mut resumed = Vec::new();
        let outcome2 = follow_events(&path, quick(10, outcome.cursor), |batch, _| {
            resumed.extend(batch.events.iter().map(|ev| ev.event));
            ControlFlow::Continue(())
        })
        .expect("the stray newline must not be a tail error");
        assert_eq!(
            outcome2.events, 1,
            "exactly the new event, nothing replayed"
        );
        assert_eq!(resumed, vec![Event::Insert(5, 6)]);
        assert_eq!(
            outcome2.cursor,
            head.len() as u64 + "\n2 + 5 6\n".len() as u64,
            "resumed cursor reaches the new EOF"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn parse_errors_surface_with_line_numbers() {
        let path = temp_path("bad");
        std::fs::write(&path, "0 + 1 2\n1 * 3 4\n").unwrap();
        let err = follow_events(&path, quick(10, 0), |_, _| ControlFlow::Continue(()))
            .expect_err("malformed line must fail");
        assert!(err.to_string().contains("line 2"), "{err}");
        // The tail variant pins the stream position: the bad line starts
        // at byte 8 and one event decoded before it.
        match err {
            StreamError::Tail {
                line, byte, event, ..
            } => {
                assert_eq!((line, byte, event), (2, 8, 1));
            }
            other => panic!("expected a tail error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn idle_flush_parse_errors_pin_the_tail_position() {
        let path = temp_path("bad_tail");
        // The final line has no trailing newline: it parses at idle-exit
        // time, and its error must still carry cursor and event index.
        std::fs::write(&path, "0 + 1 2\n1 + 3 4\n2 * 5 6").unwrap();
        let err = follow_events(&path, quick(10, 0), |_, _| ControlFlow::Continue(()))
            .expect_err("malformed unterminated line must fail");
        match err {
            StreamError::Tail {
                line, byte, event, ..
            } => {
                assert_eq!((line, byte, event), (3, 16, 2));
            }
            other => panic!("expected a tail error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_is_rejected() {
        // The batch check runs before the file is opened, so no file is
        // written (a panicking test would leave it behind).
        let _ = follow_events(
            temp_path("zero"),
            FollowConfig {
                batch: 0,
                ..quick(1, 0)
            },
            |_, _| ControlFlow::Continue(()),
        );
    }
}
