//! The fleet's per-shard checkpoint file.
//!
//! A fleet worker grading a shard persists the shard's verdict slots
//! after every batch, so a killed or stolen attempt loses at most one
//! batch: the retry restores the graded prefix and grades only the
//! rest. [`fleet`](crate::fleet)'s `execute_shard` is the one place a
//! file is restored, and it trusts a file only when its
//! [`fingerprint`] matches the shard's fault slice, its config matches
//! the ECU's fingerprint and it holds one slot per fault; any other
//! file is counted as rejected and the shard is graded from scratch.
//!
//! [`Checkpoint::to_json`] and [`Checkpoint::from_json`] map a
//! checkpoint to and from a [`Json`] value; the workspace's one codec,
//! `sbst_obs::json`, renders and parses the file, keeping both 64-bit
//! fingerprints exact:
//!
//! ```json
//! {"version":2,"fingerprint":1234567890123,"config":9876543210,"verdicts":["hang",null]}
//! ```
//!
//! `verdicts[i]` is `null` while fault `i` is still ungraded, else the
//! stable tag of [`Verdict`] (see [`Verdict::tag`]). A version 1 file
//! has no `config` and loads as [`CONFIG_UNBOUND`], which no ECU
//! fingerprint equals; any other version, a missing or unknown key, an
//! unknown tag or a number that is not an unsigned integer is
//! [`CheckpointError::Malformed`]. Writes go through a temp file +
//! rename so a crash mid-write never corrupts the last good
//! checkpoint.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use sbst_fault::{FaultList, Verdict};
use sbst_obs::{parse_json, Json};

/// Current checkpoint file format version.
pub const CHECKPOINT_VERSION: u32 = 2;

/// The config fingerprint of a version 1 file, which predates config
/// binding. [`EcuSpec::fingerprint`](crate::fleet::EcuSpec::fingerprint)
/// never returns it, so a version 1 file never restores a shard.
pub const CONFIG_UNBOUND: u64 = 0;

/// The persisted verdict slots of one (possibly partial) fleet shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Fingerprint of the fault list this checkpoint belongs to.
    pub fingerprint: u64,
    /// Fingerprint of the ECU configuration the verdicts were graded
    /// under ([`CONFIG_UNBOUND`] in a version 1 file).
    pub config: u64,
    /// Per-fault verdict slots, in fault-list order.
    pub verdicts: Vec<Option<Verdict>>,
}

/// Why a checkpoint could not be used.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure.
    Io(io::Error),
    /// The file is not a valid checkpoint (message says where).
    Malformed(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O: {e}"),
            CheckpointError::Malformed(m) => write!(f, "malformed checkpoint: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> CheckpointError {
        CheckpointError::Io(e)
    }
}

/// FNV-1a over a byte stream.
pub(crate) fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// Stable fingerprint of a fault list (FNV-1a over the `Debug`
/// rendering of each site, in order, plus the length).
pub fn fingerprint(faults: &FaultList) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    fnv(&mut h, &(faults.len() as u64).to_le_bytes());
    for site in faults.iter() {
        fnv(&mut h, format!("{site:?}").as_bytes());
    }
    h
}

impl Checkpoint {
    /// A fresh, fully ungraded checkpoint for `faults`, graded under
    /// the SoC configuration with fingerprint `config`.
    pub fn with_config(faults: &FaultList, config: u64) -> Checkpoint {
        Checkpoint {
            fingerprint: fingerprint(faults),
            config,
            verdicts: vec![None; faults.len()],
        }
    }

    /// Number of graded slots.
    pub fn completed(&self) -> usize {
        self.verdicts.iter().filter(|v| v.is_some()).count()
    }

    /// The checkpoint as a JSON value (schema in the module doc).
    pub fn to_json(&self) -> Json {
        let tag = |v: &Option<Verdict>| v.map_or(Json::Null, |v| Json::Str(v.tag().into()));
        Json::Obj(vec![
            ("version".into(), Json::int(CHECKPOINT_VERSION.into())),
            ("fingerprint".into(), Json::int(self.fingerprint)),
            ("config".into(), Json::int(self.config)),
            ("verdicts".into(), Json::Arr(self.verdicts.iter().map(tag).collect())),
        ])
    }

    /// Reads a checkpoint from its JSON value. Version 1, which
    /// predates config binding, reads as [`CONFIG_UNBOUND`].
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Malformed`] naming the first
    /// offending field.
    pub fn from_json(doc: &Json) -> Result<Checkpoint, CheckpointError> {
        expect_keys(doc, &["version", "fingerprint", "config", "verdicts"])?;
        match integer(doc, "version")? {
            1 => {}
            v if v == u64::from(CHECKPOINT_VERSION) => {}
            v => return Err(malformed(&format!("unsupported version {v}"))),
        }
        Ok(Checkpoint {
            fingerprint: integer(doc, "fingerprint")?,
            config: match doc.get("config") {
                Some(_) => integer(doc, "config")?,
                None => CONFIG_UNBOUND,
            },
            verdicts: verdict_slots(doc)?,
        })
    }

    /// Atomically and durably writes the checkpoint to `path`: temp
    /// file, fsync, rename, then (unix) fsync of the parent directory.
    /// Without the syncs a crash *after* the rename could still leave a
    /// complete-looking but truncated file (data not yet written back)
    /// or resurrect the old file (rename not yet journaled).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let tmp = tmp_path(path);
        {
            let mut f = fs::File::create(&tmp)?;
            io::Write::write_all(&mut f, (self.to_json().render() + "\n").as_bytes())?;
            f.sync_all()?;
        }
        fs::rename(&tmp, path)?;
        // The rename itself must reach the directory's metadata.
        // Best-effort: not every filesystem lets a directory be synced.
        #[cfg(unix)]
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(d) = fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    /// Loads a checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors and format violations.
    pub fn load(path: &Path) -> Result<Checkpoint, CheckpointError> {
        Checkpoint::from_json(&parse(&fs::read_to_string(path)?)?)
    }
}

pub(crate) fn malformed(msg: &str) -> CheckpointError {
    CheckpointError::Malformed(msg.to_string())
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    PathBuf::from(tmp)
}

// Decoding helpers shared with the fleet's shard-result files, which
// use the same vocabulary.

/// Parses a checkpoint or shard-result file; a torn or truncated file
/// is [`CheckpointError::Malformed`].
pub(crate) fn parse(text: &str) -> Result<Json, CheckpointError> {
    parse_json(text).map_err(|e| malformed(&e.to_string()))
}

/// Checks that `doc` is an object whose keys are distinct and all
/// `known`.
pub(crate) fn expect_keys(doc: &Json, known: &[&str]) -> Result<(), CheckpointError> {
    let Json::Obj(fields) = doc else { return Err(malformed("expected an object")) };
    for (i, (key, _)) in fields.iter().enumerate() {
        if !known.contains(&key.as_str()) {
            return Err(malformed(&format!("unknown key {key:?}")));
        }
        if fields[..i].iter().any(|(k, _)| k == key) {
            return Err(malformed(&format!("duplicate key {key:?}")));
        }
    }
    Ok(())
}

/// The unsigned integer field `key` of `doc`.
pub(crate) fn integer(doc: &Json, key: &str) -> Result<u64, CheckpointError> {
    let value = doc.get(key).ok_or_else(|| malformed(&format!("missing {key}")))?;
    value.as_u64().ok_or_else(|| malformed(&format!("{key} is not an unsigned integer")))
}

/// The `verdicts` array of `doc`: `null` for an ungraded slot, else a
/// verdict tag.
pub(crate) fn verdict_slots(doc: &Json) -> Result<Vec<Option<Verdict>>, CheckpointError> {
    let slots = doc.get("verdicts").ok_or_else(|| malformed("missing verdicts"))?;
    let slots = slots.as_arr().ok_or_else(|| malformed("verdicts is not an array"))?;
    slots
        .iter()
        .map(|slot| match slot {
            Json::Null => Ok(None),
            Json::Str(tag) => Verdict::from_tag(tag)
                .map(Some)
                .ok_or_else(|| malformed(&format!("unknown verdict tag {tag:?}"))),
            _ => Err(malformed("verdict is neither null nor a tag")),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbst_fault::{Element, FaultSite, Polarity, Unit};

    fn list(n: u16) -> FaultList {
        (0..n)
            .map(|i| FaultSite {
                unit: Unit::Hdcu,
                instance: i,
                element: Element::CmpOut,
                polarity: Polarity::StuckAt0,
            })
            .collect()
    }

    #[test]
    fn json_round_trip_preserves_every_slot() {
        let mut cp = Checkpoint::with_config(&list(7), 0xdead_beef);
        cp.verdicts[0] = Some(Verdict::Hang);
        cp.verdicts[3] = Some(Verdict::Undetected);
        cp.verdicts[6] = Some(Verdict::SimError);
        let back = decode(&cp.to_json().render()).expect("parses");
        assert_eq!(cp, back);
        assert_eq!(back.config, 0xdead_beef);
    }

    fn decode(text: &str) -> Result<Checkpoint, CheckpointError> {
        Checkpoint::from_json(&parse(text)?)
    }

    /// A file written by the hand-built renderer this codec replaced:
    /// both fingerprints are above 2^53, where an `f64` would round.
    #[test]
    fn version_2_files_of_the_previous_renderer_load_unchanged() {
        let text = "{\n  \"version\": 2,\n  \"fingerprint\": 14695981039346656037,\n  \
                    \"config\": 16045690984503098381,\n  \"verdicts\": [null, \"wrong-signature\", \
                    \"test-fail\", \"unexpected-trap\", \"hang\", \"undetected\", \"sim-error\", null]\n}\n";
        let expected = Checkpoint {
            fingerprint: 14_695_981_039_346_656_037,
            config: 16_045_690_984_503_098_381,
            verdicts: vec![
                None,
                Some(Verdict::WrongSignature),
                Some(Verdict::TestFail),
                Some(Verdict::UnexpectedTrap),
                Some(Verdict::Hang),
                Some(Verdict::Undetected),
                Some(Verdict::SimError),
                None,
            ],
        };
        assert_eq!(decode(text).expect("loads"), expected);
        assert_eq!(decode(&expected.to_json().render()).expect("round trips"), expected);
    }

    #[test]
    fn version_1_checkpoints_parse_as_config_unbound() {
        let text = "{\"version\": 1, \"fingerprint\": 42, \"verdicts\": [\"hang\", null]}";
        let cp = decode(text).expect("v1 parses");
        assert_eq!(cp.config, CONFIG_UNBOUND);
        assert_eq!(cp.fingerprint, 42);
        assert_eq!(cp.verdicts, vec![Some(Verdict::Hang), None]);
    }

    #[test]
    fn empty_list_round_trips() {
        let cp = Checkpoint::with_config(&FaultList::new(), 7);
        let back = decode(&cp.to_json().render()).expect("parses");
        assert_eq!(cp, back);
        assert_eq!(back.completed(), back.verdicts.len(), "an empty list is fully graded");
    }

    #[test]
    fn fingerprint_tracks_order_and_content() {
        let a = list(5);
        let b = list(6);
        assert_ne!(fingerprint(&a), fingerprint(&b));
        let mut rev: Vec<_> = a.iter().copied().collect();
        rev.reverse();
        assert_ne!(fingerprint(&a), fingerprint(&rev.into_iter().collect()));
        assert_eq!(fingerprint(&a), fingerprint(&list(5)));
    }

    /// A fresh scratch directory under the system temp directory,
    /// removed when the test ends, pass or fail.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Scratch {
            let dir = std::env::temp_dir().join(format!("det-sbst-{tag}-{}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).expect("scratch dir");
            Scratch(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn save_is_durable_atomic_and_leaves_no_temp_file() {
        let scratch = Scratch::new("cp");
        let path = scratch.0.join("chk.json");
        let mut cp = Checkpoint::with_config(&list(4), 7);
        cp.verdicts[1] = Some(Verdict::Hang);
        cp.save(&path).expect("saves");
        assert_eq!(Checkpoint::load(&path).expect("loads"), cp);
        assert!(!tmp_path(&path).exists(), "temp file must not linger");
        // Overwriting replaces the previous checkpoint wholesale.
        cp.verdicts[2] = Some(Verdict::Undetected);
        cp.save(&path).expect("saves again");
        assert_eq!(Checkpoint::load(&path).expect("reloads"), cp);
        assert!(!tmp_path(&path).exists());
    }

    #[test]
    fn malformed_checkpoints_are_rejected() {
        for bad in [
            "",
            "{",
            "{}",
            "{\"version\": 2}",
            "{\"version\": 99, \"fingerprint\": 1, \"verdicts\": []}",
            "{\"version\": 2, \"fingerprint\": 1, \"verdicts\": [\"bogus\"]}",
            "{\"version\": 2, \"fingerprint\": 1, \"verdicts\": [], \"extra\": 0}",
            "{\"version\": 2, \"fingerprint\": 1.5, \"verdicts\": []}",
            "{\"version\": 2, \"fingerprint\": -1, \"verdicts\": []}",
            "{\"version\": 2, \"fingerprint\": 1e3, \"verdicts\": []}",
            "{\"version\": 2, \"fingerprint\": 18446744073709551616, \"verdicts\": []}",
            "{\"version\": 2, \"fingerprint\": \"1\", \"verdicts\": []}",
            "{\"version\": 2, \"fingerprint\": 1, \"config\": null, \"verdicts\": []}",
            "{\"version\": 2, \"fingerprint\": 1, \"fingerprint\": 2, \"verdicts\": []}",
            "{\"version\": 2, \"fingerprint\": 1, \"verdicts\": [1]}",
            "[]",
        ] {
            assert!(decode(bad).is_err(), "accepted {bad:?}");
        }
    }

    /// Torn-write regression: a worker killed mid-save must never leave
    /// a truncated/corrupt checkpoint where the last good one was. The
    /// save protocol (write to a same-directory temp file, then rename
    /// over the target) means a crash can only ever leave (a) the old
    /// intact file plus a partial temp file, or (b) the new intact
    /// file — never a torn target.
    #[test]
    fn torn_write_cannot_corrupt_the_last_good_checkpoint() {
        let scratch = Scratch::new("torn");
        let path = scratch.0.join("torn.ckpt.json");
        let mut good = Checkpoint::with_config(&list(6), 7);
        good.verdicts[2] = Some(Verdict::WrongSignature);
        good.save(&path).expect("saves");

        // Simulate a crash mid-save of a *newer* checkpoint: the temp
        // file holds a torn prefix, the rename never happened.
        let mut newer = good.clone();
        newer.verdicts[4] = Some(Verdict::Hang);
        let text = newer.to_json().render();
        let torn = &text[..text.len() / 2];
        fs::write(tmp_path(&path), torn).expect("write torn temp");
        assert_eq!(
            Checkpoint::load(&path).expect("last good checkpoint intact"),
            good,
            "a torn temp file must never shadow the target"
        );

        // The next save replaces the leftover temp file and completes.
        newer.save(&path).expect("saves over leftover temp");
        assert_eq!(Checkpoint::load(&path).expect("loads"), newer);
        assert!(!tmp_path(&path).exists());

        // And a directly torn *target* (the failure mode the temp+rename
        // protocol exists to prevent) is rejected as malformed, never
        // silently half-parsed.
        fs::write(&path, torn).expect("write torn target");
        assert!(matches!(
            Checkpoint::load(&path),
            Err(CheckpointError::Malformed(_))
        ));
    }
}
