//! The serve journal: an append-only flat-JSON log of every *terminal*
//! task outcome, the daemon's source of crash-recovery truth.
//!
//! Record kinds (one object per line, [`rds_par::wire`] format):
//!
//! - `serve-meta` — first line; config digest + params. Resuming
//!   against a journal written under a different config is rejected.
//! - `done` — task completed: seq, arrival/start/finish, machine,
//!   attempts.
//! - `shed` — task dropped by deadline-based load shedding: seq,
//!   arrival, deadline, shed time.
//! - `failed` — task exhausted its retry budget: seq, arrival, attempts.
//! - `drain` — terminator: the run quiesced cleanly with these counts.
//!
//! ## Durability and recovery model
//!
//! Appends are buffered in memory and written + fsync'd every
//! [`fsync_every`](crate::ServeConfig::fsync_every) records (and at
//! drain). A SIGKILL therefore loses at most the unsynced tail — never
//! corrupts the prefix. Recovery does **deterministic replay with
//! dedup**: the daemon is a pure function of its config, so a resumed
//! run re-simulates the identical stream and simply skips appending any
//! terminal record whose seq is already on disk. The journal ends up
//! with exactly one terminal record per admitted task — none lost, none
//! doubled — which is the invariant the property tests and the CI
//! SIGKILL smoke assert.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use rds_core::{Error, Result};
use rds_par::wire::{parse_flat_object, push_f64, push_json_string, Value};

use crate::config::ServeConfig;

/// How an admitted task left the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TerminalKind {
    /// Completed successfully.
    Done,
    /// Dropped by deadline-based shedding.
    Shed,
    /// Exhausted its retry budget.
    Failed,
}

impl TerminalKind {
    fn tag(self) -> &'static str {
        match self {
            TerminalKind::Done => "done",
            TerminalKind::Shed => "shed",
            TerminalKind::Failed => "failed",
        }
    }

    fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "done" => Some(TerminalKind::Done),
            "shed" => Some(TerminalKind::Shed),
            "failed" => Some(TerminalKind::Failed),
            _ => None,
        }
    }
}

/// One terminal record read back from disk.
#[derive(Debug, Clone, PartialEq)]
pub struct TerminalRecord {
    /// Admission sequence number.
    pub seq: u64,
    /// How the task left the system.
    pub kind: TerminalKind,
    /// Arrival time.
    pub arrival: f64,
    /// Completion / shed / give-up time.
    pub at: f64,
    /// Attempts consumed (0 for sheds).
    pub attempts: u32,
    /// Machine that completed it (`done` only).
    pub machine: Option<usize>,
}

/// The drain terminator, when the run quiesced cleanly.
#[derive(Debug, Clone, PartialEq)]
pub struct DrainRecord {
    /// Virtual time of quiescence.
    pub at: f64,
    /// Tasks admitted over the run.
    pub admitted: u64,
    /// Terminal counts: completed, shed, failed.
    pub completed: u64,
    /// Tasks shed.
    pub shed: u64,
    /// Tasks that exhausted retries.
    pub failed: u64,
}

/// Everything a journal file contains.
#[derive(Debug)]
pub struct ServeLog {
    /// Terminal records in append order (dedup already applied on read:
    /// first record per seq wins).
    pub records: Vec<TerminalRecord>,
    /// The drain terminator, if the run quiesced.
    pub drain: Option<DrainRecord>,
    /// Raw on-disk records that shared a seq with an earlier one. The
    /// writer's dedup makes this 0 in any journal it produced; the
    /// exactly-once property tests assert exactly that.
    pub duplicates: usize,
}

impl ServeLog {
    /// Seqs that completed, sorted.
    pub fn done_seqs(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .records
            .iter()
            .filter(|r| r.kind == TerminalKind::Done)
            .map(|r| r.seq)
            .collect();
        v.sort_unstable();
        v
    }
}

fn io_err(op: &'static str, path: &Path, e: &std::io::Error) -> Error {
    Error::Io {
        op,
        path: path.display().to_string(),
        why: e.to_string(),
    }
}

fn meta_line(cfg: &ServeConfig) -> String {
    let mut s = String::from("{\"v\":1,\"kind\":\"serve-meta\",\"digest\":");
    push_json_string(&mut s, &format!("{:016x}", cfg.digest()));
    s.push_str(",\"params\":");
    push_json_string(&mut s, &cfg.params());
    s.push_str("}\n");
    s
}

fn terminal_line(rec: &TerminalRecord) -> String {
    let mut s = String::from("{\"kind\":");
    push_json_string(&mut s, rec.kind.tag());
    s.push_str(&format!(",\"seq\":{}", rec.seq));
    s.push_str(",\"arrival\":");
    push_f64(&mut s, rec.arrival);
    s.push_str(",\"at\":");
    push_f64(&mut s, rec.at);
    s.push_str(&format!(",\"attempts\":{}", rec.attempts));
    if let Some(m) = rec.machine {
        s.push_str(&format!(",\"machine\":{m}"));
    }
    s.push_str("}\n");
    s
}

fn drain_line(rec: &DrainRecord) -> String {
    let mut s = String::from("{\"kind\":\"drain\",\"at\":");
    push_f64(&mut s, rec.at);
    s.push_str(&format!(
        ",\"admitted\":{},\"completed\":{},\"shed\":{},\"failed\":{}}}\n",
        rec.admitted, rec.completed, rec.shed, rec.failed
    ));
    s
}

fn terminal_from_map(map: &std::collections::BTreeMap<String, Value>) -> Option<TerminalRecord> {
    Some(TerminalRecord {
        seq: map.get("seq")?.as_u64()?,
        kind: TerminalKind::from_tag(map.get("kind")?.as_str()?)?,
        arrival: map.get("arrival")?.as_f64()?,
        at: map.get("at")?.as_f64()?,
        attempts: map.get("attempts")?.as_u64()? as u32,
        machine: match map.get("machine") {
            Some(v) => Some(v.as_u64()? as usize),
            None => None,
        },
    })
}

fn drain_from_map(map: &std::collections::BTreeMap<String, Value>) -> Option<DrainRecord> {
    Some(DrainRecord {
        at: map.get("at")?.as_f64()?,
        admitted: map.get("admitted")?.as_u64()?,
        completed: map.get("completed")?.as_u64()?,
        shed: map.get("shed")?.as_u64()?,
        failed: map.get("failed")?.as_u64()?,
    })
}

struct Scan {
    digest: String,
    records: Vec<TerminalRecord>,
    drain: Option<DrainRecord>,
    good_bytes: u64,
    torn: bool,
}

/// Parses a journal file, tolerating a torn final line (crash artifact)
/// but rejecting corruption anywhere else.
///
/// The file is read as bytes: a SIGKILL can cut a multibyte character,
/// so invalid UTF-8 in the final fragment is a torn tail like any other
/// unparsable last line, while invalid UTF-8 followed by more lines is
/// corruption. Only the valid prefix is decoded and split into lines.
fn scan(path: &Path) -> Result<Scan> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| io_err("read", path, &e))?;
    let text = match std::str::from_utf8(&bytes) {
        Ok(text) => text,
        Err(e) => {
            let cut = e.valid_up_to();
            if bytes[cut..].contains(&b'\n') {
                return Err(Error::JournalCorrupt {
                    line: bytes[..cut].iter().filter(|&&b| b == b'\n').count() + 1,
                    why: "invalid utf-8 before the final line".to_string(),
                });
            }
            std::str::from_utf8(&bytes[..cut]).expect("validated prefix")
        }
    };

    let mut digest = None;
    let mut records: Vec<TerminalRecord> = Vec::new();
    let mut drain = None;
    let mut good_bytes = 0u64;
    let mut offset = 0usize;
    let mut line_no = 0usize;
    let mut rest = text;
    while !rest.is_empty() {
        line_no += 1;
        let (line, consumed, terminated) = match rest.find('\n') {
            Some(i) => (&rest[..i], i + 1, true),
            None => (rest, rest.len(), false),
        };
        let is_last = offset + consumed >= text.len();
        let parsed = parse_flat_object(line).and_then(|map| {
            if line_no == 1 {
                if map.get("kind")?.as_str()? != "serve-meta" {
                    return None;
                }
                digest = Some(map.get("digest")?.as_str()?.to_string());
                Some(())
            } else if map.get("kind")?.as_str() == Some("drain") {
                drain = Some(drain_from_map(&map)?);
                Some(())
            } else {
                records.push(terminal_from_map(&map)?);
                Some(())
            }
        });
        match parsed {
            Some(()) if terminated => {
                good_bytes = (offset + consumed) as u64;
            }
            Some(()) => {
                // Parsable but the newline terminator was cut off: torn.
                if line_no == 1 {
                    digest = None;
                } else if drain.take().is_none() {
                    records.pop();
                }
            }
            None if is_last => {}
            None => {
                return Err(Error::JournalCorrupt {
                    line: line_no,
                    why: if line_no == 1 {
                        "first line is not a valid serve-meta record".to_string()
                    } else {
                        "unparsable serve record before the final line".to_string()
                    },
                });
            }
        }
        offset += consumed;
        rest = &text[offset..];
    }

    let digest = digest.ok_or(Error::JournalCorrupt {
        line: 1,
        why: "journal has no serve-meta line".to_string(),
    })?;
    let torn = good_bytes < bytes.len() as u64;
    Ok(Scan {
        digest,
        records,
        drain,
        good_bytes,
        torn,
    })
}

/// Buffered, batch-fsync'd writer over the serve journal.
#[derive(Debug)]
pub struct ServeJournal {
    file: File,
    path: PathBuf,
    buf: String,
    buffered: usize,
    fsync_every: usize,
    /// Terminal kinds already on disk, keyed by seq — the dedup set
    /// replay consults before appending.
    already: HashMap<u64, TerminalKind>,
}

impl ServeJournal {
    /// Creates (truncating) a fresh journal: meta line written and
    /// synced immediately, so even an instant crash leaves a valid file.
    ///
    /// # Errors
    /// [`Error::Io`] on any filesystem failure.
    pub fn create(path: impl Into<PathBuf>, cfg: &ServeConfig) -> Result<ServeJournal> {
        let path = path.into();
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| io_err("create-dir", &path, &e))?;
        }
        let mut file = File::create(&path).map_err(|e| io_err("create", &path, &e))?;
        file.write_all(meta_line(cfg).as_bytes())
            .and_then(|()| file.sync_data())
            .map_err(|e| io_err("append", &path, &e))?;
        Ok(ServeJournal {
            file,
            path,
            buf: String::new(),
            buffered: 0,
            fsync_every: cfg.fsync_every.max(1),
            already: HashMap::new(),
        })
    }

    /// Opens an existing journal for crash recovery (creates a fresh one
    /// when the file does not exist). A torn final line is truncated
    /// away; the dedup set is loaded from the surviving records.
    ///
    /// # Errors
    /// - [`Error::JournalCorrupt`] for mid-file corruption;
    /// - [`Error::InvalidInstance`] when the on-disk digest disagrees
    ///   with `cfg` (the journal belongs to a different run);
    /// - [`Error::Io`] on filesystem failures.
    pub fn resume(path: impl Into<PathBuf>, cfg: &ServeConfig) -> Result<ServeJournal> {
        let path = path.into();
        if !path.exists() {
            return Self::create(path, cfg);
        }
        let scanned = scan(&path)?;
        let expect = format!("{:016x}", cfg.digest());
        if scanned.digest != expect {
            return Err(Error::InvalidInstance {
                why: format!(
                    "serve journal {} was written under config digest {} \
                     but this run has digest {expect}",
                    path.display(),
                    scanned.digest,
                ),
            });
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| io_err("open", &path, &e))?;
        if scanned.torn {
            file.set_len(scanned.good_bytes)
                .map_err(|e| io_err("truncate", &path, &e))?;
        }
        file.seek(SeekFrom::End(0))
            .map_err(|e| io_err("seek", &path, &e))?;
        let mut already = HashMap::new();
        for r in &scanned.records {
            already.entry(r.seq).or_insert(r.kind);
        }
        Ok(ServeJournal {
            file,
            path,
            buf: String::new(),
            buffered: 0,
            fsync_every: cfg.fsync_every.max(1),
            already,
        })
    }

    /// The terminal kind already journaled for `seq`, if any.
    pub fn already(&self, seq: u64) -> Option<TerminalKind> {
        self.already.get(&seq).copied()
    }

    /// Number of terminal records known (on disk + buffered).
    pub fn terminal_count(&self) -> usize {
        self.already.len()
    }

    /// Appends a terminal record unless `seq` already has one (the
    /// replay dedup). Returns `true` when the record was actually
    /// appended.
    ///
    /// # Errors
    /// [`Error::Io`] if the batch flush fails.
    pub fn append_terminal(&mut self, rec: &TerminalRecord) -> Result<bool> {
        if self.already.contains_key(&rec.seq) {
            return Ok(false);
        }
        self.already.insert(rec.seq, rec.kind);
        self.buf.push_str(&terminal_line(rec));
        self.buffered += 1;
        if rds_obs::enabled() {
            rds_obs::global().counter("serve.journal.appends").inc();
        }
        if self.buffered >= self.fsync_every {
            self.sync()?;
        }
        Ok(true)
    }

    /// Appends the drain terminator and syncs everything to disk.
    ///
    /// # Errors
    /// [`Error::Io`] on any filesystem failure.
    pub fn seal(&mut self, rec: &DrainRecord) -> Result<()> {
        self.buf.push_str(&drain_line(rec));
        self.buffered += 1;
        self.sync()
    }

    /// Flushes the buffered batch with one write + fsync.
    ///
    /// # Errors
    /// [`Error::Io`] on any filesystem failure.
    pub fn sync(&mut self) -> Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let obs = rds_obs::enabled().then(|| rds_obs::global().histogram("serve.journal.fsync"));
        let started = std::time::Instant::now();
        self.file
            .write_all(self.buf.as_bytes())
            .and_then(|()| self.file.sync_data())
            .map_err(|e| io_err("append", &self.path, &e))?;
        if let Some(h) = obs {
            h.record(started.elapsed());
        }
        self.buf.clear();
        self.buffered = 0;
        Ok(())
    }

    /// Drops the unsynced buffer — the test hook that emulates SIGKILL
    /// (a killed process loses exactly its in-memory batch; the synced
    /// prefix survives).
    pub fn drop_unsynced(&mut self) {
        self.buf.clear();
        self.buffered = 0;
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Reads a journal without opening it for writing, deduping by seq
    /// (first record wins, matching replay semantics).
    ///
    /// # Errors
    /// Same corruption/io errors as [`ServeJournal::resume`].
    pub fn read(path: impl AsRef<Path>) -> Result<ServeLog> {
        let scanned = scan(path.as_ref())?;
        let raw = scanned.records.len();
        let mut seen = std::collections::HashSet::new();
        let records: Vec<TerminalRecord> = scanned
            .records
            .into_iter()
            .filter(|r| seen.insert(r.seq))
            .collect();
        Ok(ServeLog {
            duplicates: raw - records.len(),
            records,
            drain: scanned.drain,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rds-serve-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn cfg() -> ServeConfig {
        ServeConfig::poisson(4, 2, 2.0, 100)
    }

    fn rec(seq: u64, kind: TerminalKind) -> TerminalRecord {
        TerminalRecord {
            seq,
            kind,
            arrival: 0.25 * seq as f64,
            at: 1.0 + seq as f64,
            attempts: 1,
            machine: (kind == TerminalKind::Done).then_some(seq as usize % 4),
        }
    }

    #[test]
    fn round_trips_records_and_drain() {
        let path = tmp("roundtrip.jsonl");
        let c = cfg();
        let mut j = ServeJournal::create(&path, &c).unwrap();
        assert!(j.append_terminal(&rec(0, TerminalKind::Done)).unwrap());
        assert!(j.append_terminal(&rec(1, TerminalKind::Shed)).unwrap());
        assert!(j.append_terminal(&rec(2, TerminalKind::Failed)).unwrap());
        j.seal(&DrainRecord {
            at: 9.0,
            admitted: 3,
            completed: 1,
            shed: 1,
            failed: 1,
        })
        .unwrap();
        let log = ServeJournal::read(&path).unwrap();
        assert_eq!(log.records.len(), 3);
        assert_eq!(log.records[0], rec(0, TerminalKind::Done));
        assert_eq!(log.records[1].machine, None);
        assert_eq!(log.drain.as_ref().unwrap().admitted, 3);
        assert_eq!(log.done_seqs(), vec![0]);
    }

    #[test]
    fn dedup_skips_existing_seqs_across_resume() {
        let path = tmp("dedup.jsonl");
        let c = cfg();
        let mut j = ServeJournal::create(&path, &c).unwrap();
        j.append_terminal(&rec(0, TerminalKind::Done)).unwrap();
        j.append_terminal(&rec(1, TerminalKind::Done)).unwrap();
        j.sync().unwrap();
        drop(j);
        let mut j = ServeJournal::resume(&path, &c).unwrap();
        assert_eq!(j.already(1), Some(TerminalKind::Done));
        // Replay re-produces seq 1; the append is suppressed.
        assert!(!j.append_terminal(&rec(1, TerminalKind::Done)).unwrap());
        assert!(j.append_terminal(&rec(2, TerminalKind::Done)).unwrap());
        j.sync().unwrap();
        let log = ServeJournal::read(&path).unwrap();
        assert_eq!(log.done_seqs(), vec![0, 1, 2]);
    }

    #[test]
    fn unsynced_tail_is_lost_and_replay_heals_it() {
        let path = tmp("tail.jsonl");
        let mut c = cfg();
        c.fsync_every = 100; // keep everything buffered
        let mut j = ServeJournal::create(&path, &c).unwrap();
        j.append_terminal(&rec(0, TerminalKind::Done)).unwrap();
        j.sync().unwrap();
        j.append_terminal(&rec(1, TerminalKind::Done)).unwrap();
        j.drop_unsynced(); // SIGKILL
        drop(j);
        let log = ServeJournal::read(&path).unwrap();
        assert_eq!(log.done_seqs(), vec![0]);
        // Resume replays both; only seq 1 is re-appended.
        let mut j = ServeJournal::resume(&path, &c).unwrap();
        assert!(!j.append_terminal(&rec(0, TerminalKind::Done)).unwrap());
        assert!(j.append_terminal(&rec(1, TerminalKind::Done)).unwrap());
        j.sync().unwrap();
        assert_eq!(ServeJournal::read(&path).unwrap().done_seqs(), vec![0, 1]);
    }

    #[test]
    fn torn_final_line_is_truncated_on_resume() {
        let path = tmp("torn.jsonl");
        let c = cfg();
        let mut j = ServeJournal::create(&path, &c).unwrap();
        j.append_terminal(&rec(0, TerminalKind::Done)).unwrap();
        j.sync().unwrap();
        drop(j);
        // Simulate a write cut mid-record.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"kind\":\"done\",\"seq\":1,\"arr").unwrap();
        drop(f);
        let j = ServeJournal::resume(&path, &c).unwrap();
        assert_eq!(j.already(0), Some(TerminalKind::Done));
        assert_eq!(j.already(1), None);
        drop(j);
        assert_eq!(ServeJournal::read(&path).unwrap().records.len(), 1);
    }

    #[test]
    fn resume_survives_a_cut_at_every_byte_of_a_multibyte_record() {
        let path = tmp("utf8.jsonl");
        let c = cfg();
        let mut j = ServeJournal::create(&path, &c).unwrap();
        j.append_terminal(&rec(0, TerminalKind::Done)).unwrap();
        j.sync().unwrap();
        drop(j);
        // A record carrying multibyte characters in a field the reader
        // ignores, so cuts land inside 2-, 3- and 4-byte sequences.
        let mut line = terminal_line(&rec(1, TerminalKind::Done));
        line.insert_str(line.len() - 2, ",\"note\":\"é→𝛼\"");
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(line.as_bytes()).unwrap();
        drop(f);
        let full = std::fs::read(&path).unwrap();
        assert_eq!(ServeJournal::read(&path).unwrap().records.len(), 2);
        let meta_end = meta_line(&c).len();
        let first_end = meta_end + terminal_line(&rec(0, TerminalKind::Done)).len();
        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let resumed = ServeJournal::resume(&path, &c);
            if cut < meta_end {
                // No complete meta line: a typed corruption error.
                assert!(
                    matches!(resumed, Err(Error::JournalCorrupt { line: 1, .. })),
                    "cut at {cut}: {resumed:?}"
                );
                continue;
            }
            let j = resumed.unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
            let (records, good) = if cut == full.len() {
                (2, full.len())
            } else if cut >= first_end {
                (1, first_end)
            } else {
                (0, meta_end)
            };
            assert_eq!(j.terminal_count(), records, "cut at {cut}");
            drop(j);
            // The torn tail was truncated back to the last whole line.
            assert_eq!(std::fs::read(&path).unwrap(), &full[..good], "cut at {cut}");
        }
    }

    #[test]
    fn invalid_utf8_before_the_final_line_is_corruption() {
        let path = tmp("utf8-mid.jsonl");
        let c = cfg();
        drop(ServeJournal::create(&path, &c).unwrap());
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"{\"kind\":\"done\",\xF0\x9D}\n");
        bytes.extend_from_slice(terminal_line(&rec(1, TerminalKind::Done)).as_bytes());
        std::fs::write(&path, bytes).unwrap();
        assert!(matches!(
            ServeJournal::read(&path),
            Err(Error::JournalCorrupt { line: 2, .. })
        ));
    }

    #[test]
    fn config_mismatch_is_rejected() {
        let path = tmp("mismatch.jsonl");
        let c = cfg();
        drop(ServeJournal::create(&path, &c).unwrap());
        let mut other = c.clone();
        other.seed = 777;
        let err = ServeJournal::resume(&path, &other).unwrap_err();
        assert!(matches!(err, Error::InvalidInstance { .. }));
    }

    #[test]
    fn mid_file_corruption_is_fatal() {
        let path = tmp("corrupt.jsonl");
        let c = cfg();
        let mut j = ServeJournal::create(&path, &c).unwrap();
        j.append_terminal(&rec(0, TerminalKind::Done)).unwrap();
        j.sync().unwrap();
        drop(j);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("garbage line\n");
        text.push_str(&terminal_line(&rec(1, TerminalKind::Done)));
        std::fs::write(&path, text).unwrap();
        assert!(matches!(
            ServeJournal::read(&path),
            Err(Error::JournalCorrupt { line: 3, .. })
        ));
    }
}
