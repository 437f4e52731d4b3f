//! Master checkpoint/restore: crash the master, restart it, and resume
//! training at the step it was on instead of starting over.
//!
//! The checkpoint deliberately contains *only* what the master cannot
//! rederive from its [`crate::NetConfig`]: the next step index, the current
//! model parameters, and the (possibly repaired) partition assignments.
//! Everything else — dataset, mini-batches, decode tie-breaks — is already a
//! pure function of `(seed, step)`, which is what makes a resumed run
//! byte-identical to an uninterrupted one from the restart point onward.
//!
//! The on-disk format is a self-framed binary blob (magic, version,
//! fingerprint, payload) written atomically via rename, so a crash *during*
//! checkpointing leaves the previous checkpoint intact rather than a torn
//! file.

use std::fs;
use std::io;
use std::path::Path;

use crate::wire::{f64_le, put_f64_vec, put_u32, put_u64, put_u64_vec, u64_le, Cursor, WireError};
use crate::NetError;

/// Leading bytes of a checkpoint file.
pub const CKPT_MAGIC: [u8; 8] = *b"ISGCCKPT";

/// Checkpoint format version; bumped on any incompatible change.
///
/// v2 appends the degradation-ladder counter (consecutive degraded steps)
/// after the step index. v1 files are still accepted and decode with a
/// counter of zero, which matches what every v1 run actually had: the
/// ladder did not exist yet, so no run could have been mid-streak.
pub const CKPT_VERSION: u8 = 2;

/// Everything a restarted master needs to resume mid-training.
#[derive(Debug, Clone, PartialEq)]
pub struct MasterCheckpoint {
    /// Seed of the run that wrote this checkpoint (resume fingerprint).
    pub seed: u64,
    /// Cluster size of the run (resume fingerprint).
    pub n: u64,
    /// Storage factor of the run (resume fingerprint).
    pub c: u64,
    /// The next step to execute.
    pub step: u64,
    /// Consecutive degraded (approx/skipped) steps entering that step, so a
    /// resumed run replays [`isgc_engine::DegradePolicy`] escalation
    /// decisions bit-for-bit instead of resetting the streak.
    pub consecutive_degraded: u64,
    /// Model parameters entering that step.
    pub params: Vec<f64>,
    /// Current per-worker partition lists (differs from the configured
    /// placement once placement repair has run; empty list = worker was
    /// declared permanently dead and stripped of its partitions).
    pub assignments: Vec<Vec<u64>>,
}

impl MasterCheckpoint {
    /// Serializes the checkpoint to its on-disk byte format.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&CKPT_MAGIC);
        buf.push(CKPT_VERSION);
        for x in [
            self.seed,
            self.n,
            self.c,
            self.step,
            self.consecutive_degraded,
        ] {
            put_u64(&mut buf, x);
        }
        put_f64_vec(&mut buf, &self.params);
        put_u32(&mut buf, self.assignments.len() as u32);
        for list in &self.assignments {
            put_u64_vec(&mut buf, list);
        }
        buf
    }

    /// Parses a checkpoint from its on-disk byte format.
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] on any structural problem — wrong magic or
    /// version, truncation, trailing bytes — never a panic.
    pub fn decode(bytes: &[u8]) -> Result<Self, NetError> {
        let short = |_: WireError| NetError::Protocol("truncated checkpoint".into());
        let mut r = Cursor::new(bytes);
        let magic = r.take(8).map_err(short)?;
        if magic != CKPT_MAGIC {
            return Err(NetError::Protocol(format!(
                "checkpoint magic mismatch: {magic:02x?}"
            )));
        }
        let version = r.take(1).map_err(short)?[0];
        if version != 1 && version != CKPT_VERSION {
            return Err(NetError::Protocol(format!(
                "unsupported checkpoint version {version}"
            )));
        }
        let seed = r.u64().map_err(short)?;
        let n = r.u64().map_err(short)?;
        let c = r.u64().map_err(short)?;
        let step = r.u64().map_err(short)?;
        let consecutive_degraded = if version >= 2 {
            r.u64().map_err(short)?
        } else {
            0
        };
        let plen = r.u32().map_err(short)? as usize;
        let params = r
            .words(plen, f64_le)
            .map_err(|_| NetError::Protocol("truncated checkpoint params".into()))?;
        let alen = r.u32().map_err(short)? as usize;
        if alen > 1 << 20 {
            return Err(NetError::Protocol("implausible worker count".into()));
        }
        let mut assignments = Vec::with_capacity(alen);
        for _ in 0..alen {
            let k = r.u32().map_err(short)? as usize;
            let list = r
                .words(k, u64_le)
                .map_err(|_| NetError::Protocol("truncated checkpoint assignment".into()))?;
            assignments.push(list);
        }
        if r.remaining() != 0 {
            return Err(NetError::Protocol(format!(
                "{} trailing bytes after checkpoint",
                r.remaining()
            )));
        }
        Ok(MasterCheckpoint {
            seed,
            n,
            c,
            step,
            consecutive_degraded,
            params,
            assignments,
        })
    }

    /// Writes the checkpoint atomically: a temp file in the same directory,
    /// then a rename over `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors as [`NetError::Io`].
    pub fn save(&self, path: &Path) -> Result<(), NetError> {
        let tmp = path.with_extension("tmp");
        fs::write(&tmp, self.encode())?;
        fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Loads a checkpoint if `path` exists; `Ok(None)` when it does not.
    ///
    /// # Errors
    ///
    /// Filesystem errors other than not-found, and any decode failure.
    pub fn load(path: &Path) -> Result<Option<Self>, NetError> {
        match fs::read(path) {
            Ok(bytes) => Ok(Some(Self::decode(&bytes)?)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(NetError::Io(e)),
        }
    }

    /// Checks that this checkpoint belongs to the run described by
    /// `(seed, n, c)`.
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] naming the mismatched field.
    pub fn verify_fingerprint(&self, seed: u64, n: usize, c: usize) -> Result<(), NetError> {
        if self.seed != seed || self.n != n as u64 || self.c != c as u64 {
            return Err(NetError::Protocol(format!(
                "checkpoint fingerprint mismatch: file has (seed={}, n={}, c={}), \
                 run has (seed={seed}, n={n}, c={c})",
                self.seed, self.n, self.c
            )));
        }
        if self.assignments.len() != n {
            return Err(NetError::Protocol(format!(
                "checkpoint carries {} assignment lists for n={n}",
                self.assignments.len()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MasterCheckpoint {
        MasterCheckpoint {
            seed: 42,
            n: 4,
            c: 2,
            step: 7,
            consecutive_degraded: 3,
            params: vec![1.5, -2.25, f64::MIN_POSITIVE],
            assignments: vec![vec![0, 1], vec![1, 2], vec![2, 3, 0], vec![]],
        }
    }

    #[test]
    fn roundtrips_bit_exactly() {
        let ck = sample();
        let decoded = MasterCheckpoint::decode(&ck.encode()).expect("decode");
        assert_eq!(decoded, ck);
    }

    #[test]
    fn every_truncation_is_an_error() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(
                MasterCheckpoint::decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn decodes_v1_files_with_a_zero_ladder_counter() {
        // A v1 checkpoint is the v2 layout minus the ladder counter, with
        // the old version byte. Build one by hand and check it still loads.
        let ck = sample();
        let v2 = ck.encode();
        let mut v1 = Vec::new();
        v1.extend_from_slice(&v2[..8]);
        v1.push(1);
        v1.extend_from_slice(&v2[9..9 + 32]); // seed, n, c, step
        v1.extend_from_slice(&v2[9 + 40..]); // skip consecutive_degraded
        let decoded = MasterCheckpoint::decode(&v1).expect("v1 decode");
        assert_eq!(decoded.consecutive_degraded, 0);
        assert_eq!(
            decoded,
            MasterCheckpoint {
                consecutive_degraded: 0,
                ..ck
            }
        );
        // Trailing bytes are still rejected for v1 framing too.
        v1.push(0);
        assert!(MasterCheckpoint::decode(&v1).is_err());
    }

    #[test]
    fn rejects_bad_magic_version_and_trailing() {
        let mut b = sample().encode();
        b[0] = b'X';
        assert!(MasterCheckpoint::decode(&b).is_err());
        let mut b = sample().encode();
        b[8] = 99;
        assert!(MasterCheckpoint::decode(&b).is_err());
        let mut b = sample().encode();
        b.push(0);
        assert!(MasterCheckpoint::decode(&b).is_err());
    }

    #[test]
    fn fingerprint_guards_resume() {
        let ck = sample();
        assert!(ck.verify_fingerprint(42, 4, 2).is_ok());
        assert!(ck.verify_fingerprint(43, 4, 2).is_err());
        assert!(ck.verify_fingerprint(42, 5, 2).is_err());
        assert!(ck.verify_fingerprint(42, 4, 3).is_err());
    }

    #[test]
    fn save_and_load_roundtrip_atomically() {
        let dir = std::env::temp_dir().join(format!("isgc-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("master.ckpt");
        assert!(MasterCheckpoint::load(&path).unwrap().is_none());
        let ck = sample();
        ck.save(&path).unwrap();
        assert_eq!(MasterCheckpoint::load(&path).unwrap(), Some(ck.clone()));
        // Overwrite with a later step; the rename replaces in place.
        let later = MasterCheckpoint { step: 9, ..ck };
        later.save(&path).unwrap();
        assert_eq!(
            MasterCheckpoint::load(&path).unwrap().map(|c| c.step),
            Some(9)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
