//! Checkpoint / resume for long campaigns: a versioned on-disk manifest
//! of completed points, committed atomically as the campaign streams,
//! so a killed run resumes exactly where it stopped — and produces the
//! byte-identical report a fresh run would have.
//!
//! # The manifest
//!
//! A manifest is one line of strict JSON, written and read by one
//! `record!` table (`Document` below):
//!
//! ```text
//! {"record": "campaign_checkpoint", "version": 1, "campaign": ...,
//!  "spec_hash": ..., "seed": ..., "replicates": ..., "total_points": ...,
//!  "completed": "<hex bitmap>", "points": [...]}
//! ```
//!
//! * `spec_hash` fingerprints the campaign (its `SpecIdentity` table:
//!   name, seed, replicates, axes), so resuming against an edited spec
//!   fails loudly instead of stitching incompatible halves together.
//! * `completed` is a little-endian-bit hex bitmap over point indices
//!   (bit `i % 8` of byte `i / 8`), cross-checked against the point
//!   records on load.
//! * `points` holds the lossless per-point records of
//!   [`crate::report::CampaignReport::to_record_json`], in index order.
//!
//! # Atomic commit
//!
//! Every commit writes `<path>.tmp`, syncs it, then renames over the
//! manifest. A crash mid-write leaves either the previous manifest or a
//! stray `.tmp` — never a torn manifest — so resume always sees a
//! consistent prefix of the campaign.
//!
//! # Determinism
//!
//! Per-point seeds are pure functions of the campaign seed and the
//! point index ([`crate::derive_seed`]), and every checkpointed run
//! uses the same streaming fold, so a resumed report equals an
//! uninterrupted checkpointed run byte for byte (JSON record and CSV
//! alike). Checkpointing is the [`RunOptions::checkpoint`] option of
//! [`Campaign::run`].
//!
//! [`RunOptions::checkpoint`]: crate::campaign::RunOptions::checkpoint

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::campaign::Campaign;
use crate::json::{record, Field, Json, JsonError};
use crate::report::PointReport;
use crate::space::Axis;

/// Schema version of the checkpoint manifest. Bumped on any
/// incompatible change; loading surfaces a mismatch instead of
/// guessing.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Where and how often a checkpointed campaign commits its manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointConfig {
    path: PathBuf,
    every: usize,
}

impl CheckpointConfig {
    /// Checkpoints to `path`, committing every 16 newly completed
    /// points (and always once at the end of a run).
    pub fn new(path: impl Into<PathBuf>) -> CheckpointConfig {
        CheckpointConfig {
            path: path.into(),
            every: 16,
        }
    }

    /// Commits the manifest every `every` newly completed points.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn every(mut self, every: usize) -> CheckpointConfig {
        assert!(every >= 1, "checkpoint interval must be at least 1");
        self.every = every;
        self
    }

    /// The manifest path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The commit interval, in newly completed points.
    pub fn interval(&self) -> usize {
        self.every
    }
}

/// Why a checkpointed run could not load, validate or commit its
/// manifest.
///
/// Stores rendered I/O messages rather than `std::io::Error` (which is
/// neither `Clone` nor `PartialEq`) so callers can derive both.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointError {
    /// The filesystem refused an operation on the manifest.
    Io {
        /// The path involved.
        path: String,
        /// Which operation failed (`"read"`, `"create"`, `"write"`,
        /// `"sync"`, `"rename"`, `"create dir"`).
        op: &'static str,
        /// The rendered `std::io::Error`.
        message: String,
    },
    /// The manifest is not a valid checkpoint document.
    Corrupt {
        /// The path involved.
        path: String,
        /// What the strict JSON codec rejected.
        source: JsonError,
    },
    /// The manifest is well-formed but does not belong to this
    /// campaign (wrong spec hash, totals, seed, …) or is internally
    /// inconsistent (bitmap disagrees with the point records).
    Mismatch {
        /// The path involved.
        path: String,
        /// What disagreed.
        problem: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, op, message } => {
                write!(f, "checkpoint {op} failed for {path}: {message}")
            }
            CheckpointError::Corrupt { path, source } => {
                write!(f, "corrupt checkpoint manifest {path}: {source}")
            }
            CheckpointError::Mismatch { path, problem } => {
                write!(f, "checkpoint manifest {path} does not match: {problem}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Corrupt { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// The manifest document.
struct Document {
    campaign: String,
    spec_hash: u64,
    seed: u64,
    replicates: u32,
    total_points: usize,
    completed: String,
    points: Vec<PointReport>,
}

/// What `spec_hash` fingerprints: the campaign's name, seed,
/// replicates and axes.
struct SpecIdentity {
    campaign: String,
    seed: u64,
    replicates: u32,
    axes: Vec<Axis>,
}

record! {
    Document "checkpoint manifest" envelope "campaign_checkpoint" CHECKPOINT_VERSION {
        campaign, spec_hash, seed, replicates, total_points, completed, points,
    }
    SpecIdentity "spec identity" { campaign, seed, replicates, axes }
}

/// The manifest codec bound to one campaign and one path — the
/// persistence behind [`RunOptions::checkpoint`].
///
/// [`RunOptions::checkpoint`]: crate::campaign::RunOptions::checkpoint
pub(crate) struct Manifest<'a> {
    campaign: &'a Campaign,
    path: &'a Path,
    /// The campaign's fingerprint: its [`SpecIdentity`] document hashed
    /// with [`crate::digest_str`], the primitive behind
    /// `qic_core::scenario::SpecDigest`. Not cryptographic — it guards
    /// against *accidental* spec drift between the run that wrote a
    /// manifest and the run resuming it.
    spec_hash: u64,
}

impl<'a> Manifest<'a> {
    pub(crate) fn new(campaign: &'a Campaign, path: &'a Path) -> Manifest<'a> {
        let identity = SpecIdentity {
            campaign: campaign.name().to_string(),
            seed: campaign.campaign_seed(),
            replicates: campaign.replicate_count(),
            axes: campaign.space().axes().to_vec(),
        };
        Manifest {
            campaign,
            path,
            spec_hash: crate::digest_str(&identity.encode().emit()),
        }
    }

    fn path_string(&self) -> String {
        self.path.display().to_string()
    }

    fn io(&self, op: &'static str, e: &std::io::Error) -> CheckpointError {
        CheckpointError::Io {
            path: self.path_string(),
            op,
            message: e.to_string(),
        }
    }

    /// Loads the manifest into index-addressed slots; all-`None` when
    /// no manifest exists yet (a fresh campaign).
    pub(crate) fn load(&self, total: usize) -> Result<Vec<Option<PointReport>>, CheckpointError> {
        let mut slots: Vec<Option<PointReport>> = Vec::new();
        slots.resize_with(total, || None);
        if !self.path.exists() {
            return Ok(slots);
        }
        let text = fs::read_to_string(self.path).map_err(|e| self.io("read", &e))?;
        let corrupt = |source: JsonError| CheckpointError::Corrupt {
            path: self.path_string(),
            source,
        };
        let mismatch = |problem: String| CheckpointError::Mismatch {
            path: self.path_string(),
            problem,
        };

        let doc = Json::parse(&text)
            .and_then(|v| Document::decode(&v, "checkpoint manifest"))
            .map_err(corrupt)?;

        // Does this manifest belong to this campaign? The spec hash
        // covers the axes; the rest is checked in the clear.
        let found = (
            doc.campaign.as_str(),
            doc.seed,
            doc.replicates,
            doc.total_points,
            doc.spec_hash,
        );
        let expected = (
            self.campaign.name(),
            self.campaign.campaign_seed(),
            self.campaign.replicate_count(),
            total,
            self.spec_hash,
        );
        if found != expected {
            return Err(mismatch(format!(
                "manifest (campaign, seed, replicates, points, spec hash) is {found:?}, \
                 this campaign is {expected:?}"
            )));
        }

        // Is the manifest internally consistent?
        let bitmap = decode_bitmap(&doc.completed, total).map_err(mismatch)?;
        let mut from_records = vec![false; total];
        for point in doc.points {
            let index = point.index;
            if index >= total {
                return Err(mismatch(format!(
                    "point record index {index} out of range for {total} points"
                )));
            }
            if from_records[index] {
                return Err(mismatch(format!(
                    "duplicate point record for index {index}"
                )));
            }
            from_records[index] = true;
            slots[index] = Some(point);
        }
        if bitmap != from_records {
            return Err(mismatch(
                "completed bitmap disagrees with the point records".into(),
            ));
        }
        Ok(slots)
    }

    /// Atomically commits the manifest: write `<path>.tmp`, sync,
    /// rename over the manifest.
    pub(crate) fn commit(&self, slots: &[Option<PointReport>]) -> Result<(), CheckpointError> {
        let text = self.encode(slots);
        let tmp = PathBuf::from(format!("{}.tmp", self.path.display()));
        let mut file = fs::File::create(&tmp).map_err(|e| self.io("create", &e))?;
        file.write_all(text.as_bytes())
            .map_err(|e| self.io("write", &e))?;
        file.write_all(b"\n").map_err(|e| self.io("write", &e))?;
        file.sync_all().map_err(|e| self.io("sync", &e))?;
        drop(file);
        fs::rename(&tmp, self.path).map_err(|e| self.io("rename", &e))
    }

    fn encode(&self, slots: &[Option<PointReport>]) -> String {
        let bitmap: Vec<bool> = slots.iter().map(Option::is_some).collect();
        Document {
            campaign: self.campaign.name().to_string(),
            spec_hash: self.spec_hash,
            seed: self.campaign.campaign_seed(),
            replicates: self.campaign.replicate_count(),
            total_points: slots.len(),
            completed: encode_bitmap(&bitmap),
            points: slots.iter().flatten().cloned().collect(),
        }
        .encode()
        .emit()
    }
}

/// Encodes a completion bitmap as lowercase hex: bit `i % 8` of byte
/// `i / 8` is point `i`, bytes in order, two hex digits per byte.
fn encode_bitmap(bits: &[bool]) -> String {
    let mut bytes = vec![0u8; bits.len().div_ceil(8)];
    for (i, &set) in bits.iter().enumerate() {
        if set {
            bytes[i / 8] |= 1 << (i % 8);
        }
    }
    let mut out = String::with_capacity(bytes.len() * 2);
    for byte in bytes {
        let _ = fmt::Write::write_fmt(&mut out, format_args!("{byte:02x}"));
    }
    out
}

/// Decodes [`encode_bitmap`]'s output back into `total` bits, rejecting
/// wrong lengths, non-hex digits, and set bits past `total`.
fn decode_bitmap(text: &str, total: usize) -> Result<Vec<bool>, String> {
    let expected_len = total.div_ceil(8) * 2;
    if text.len() != expected_len {
        return Err(format!(
            "completed bitmap has {} hex digits, expected {expected_len} for {total} points",
            text.len()
        ));
    }
    let mut bits = vec![false; total];
    for (b, pair) in text.as_bytes().chunks(2).enumerate() {
        let hex = std::str::from_utf8(pair).expect("chunks of ASCII hex");
        let byte = u8::from_str_radix(hex, 16)
            .map_err(|_| format!("completed bitmap has non-hex digits {hex:?}"))?;
        for bit in 0..8 {
            let index = b * 8 + bit;
            let set = byte & (1 << bit) != 0;
            if index < total {
                bits[index] = set;
            } else if set {
                return Err(format!(
                    "completed bitmap sets bit {index}, past the last point {}",
                    total - 1
                ));
            }
        }
    }
    Ok(bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_round_trips_every_pattern_of_a_small_space() {
        for total in 0..12usize {
            for pattern in 0..(1u32 << total) {
                let bits: Vec<bool> = (0..total).map(|i| pattern & (1 << i) != 0).collect();
                let hex = encode_bitmap(&bits);
                assert_eq!(hex.len(), total.div_ceil(8) * 2);
                assert_eq!(decode_bitmap(&hex, total), Ok(bits));
            }
        }
    }

    #[test]
    fn bitmap_rejects_bad_lengths_digits_and_stray_bits() {
        assert!(decode_bitmap("0", 3).is_err(), "odd/short length");
        assert!(decode_bitmap("0000", 3).is_err(), "too long");
        assert!(decode_bitmap("zz", 3).is_err(), "not hex");
        // Bit 3 set in a 3-point campaign: byte 0b0000_1000 = "08".
        assert!(decode_bitmap("08", 3).is_err(), "bit past the last point");
        assert_eq!(decode_bitmap("07", 3), Ok(vec![true; 3]));
    }

    #[test]
    fn bitmap_uses_little_endian_bit_order() {
        // Point 0 only → bit 0 of byte 0 → "01".
        assert_eq!(encode_bitmap(&[true, false, false]), "01");
        // Points 0 and 9 → "01" then bit 1 of byte 1 → "0102".
        let mut bits = vec![false; 10];
        bits[0] = true;
        bits[9] = true;
        assert_eq!(encode_bitmap(&bits), "0102");
    }
}
