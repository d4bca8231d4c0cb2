//! The on-disk result cache: [`CacheDir`].
//!
//! One file per scenario identity, named by its digest
//! (`{digest:016x}.result.json`), each a versioned record that embeds
//! both the canonical identity document it was keyed on and the
//! campaign report's lossless record, as an object:
//!
//! ```json
//! {"record": "serve_result", "version": 2, "digest": "…16 hex…",
//!  "scenario": "<canonical identity JSON>",
//!  "report": {"record": "campaign_report", "version": 1, …}}
//! ```
//!
//! The report is encoded once, so a load parses the file once. Records
//! of any other version — including version 1, whose report was an
//! escaped string — fail the version check and are recomputed.
//!
//! The record's fields are one `record!` table (`Record` below), so the
//! writer and the strict reader cannot drift apart. Embedding the
//! identity makes corruption *checkable*: a load checks the envelope,
//! re-hashes the embedded identity, and compares it against both the
//! digest field and the identity the caller asked for — all on the
//! parsed document — and only then decodes the embedded report.
//! Any mismatch — truncation, a doctored digest, a hash collision
//! between two different identities — is a structured [`CacheError`]
//! the service counts and treats as a miss (recompute), never a wrong
//! report.
//!
//! Writes are atomic: the record lands in a `.tmp` sibling first and is
//! renamed into place, so a crashed writer leaves either the old record
//! or none — readers never observe a half-written file.

use std::borrow::Cow;
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use qic_core::scenario::{ScenarioSpec, SpecDigest};
use qic_sweep::json::{check_envelope, get, quote, record, Field, Json, JsonError};
use qic_sweep::CampaignReport;

/// The record-envelope version this build reads and writes. Bump on
/// incompatible change; records with any other version are structured
/// misses (old caches are recomputed, not misread).
pub const CACHE_VERSION: u32 = 2;

/// The record document. A stored record borrows the report it encodes;
/// a loaded one owns the report it decoded.
struct Record<'a> {
    digest: String,
    scenario: String,
    report: Cow<'a, CampaignReport>,
}

record! {
    Record<'a> "cache record" envelope "serve_result" CACHE_VERSION { digest, scenario, report }
}

/// The record's name in error messages.
const CTX: &str = "cache record";

/// Why a cache operation failed. `Corrupt` and `Mismatch` are the
/// *structured miss* outcomes the service recomputes through; `Io`
/// covers the filesystem itself misbehaving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheError {
    /// A filesystem operation failed.
    Io {
        /// The path involved.
        path: String,
        /// Which operation (`create dir`, `read`, `write`, `rename`).
        op: &'static str,
        /// The OS error text.
        message: String,
    },
    /// The record exists but cannot be trusted: unparsable, wrong
    /// envelope, wrong version, or an embedded digest that does not
    /// match the embedded identity.
    Corrupt {
        /// The record's path.
        path: String,
        /// What check failed.
        problem: String,
    },
    /// A well-formed record whose identity is not the one asked for —
    /// a digest collision or a renamed file. Served reports must never
    /// cross identities, so this is a miss, not a hit.
    Mismatch {
        /// The record's path.
        path: String,
    },
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::Io { path, op, message } => {
                write!(f, "cache {op} failed for {path}: {message}")
            }
            CacheError::Corrupt { path, problem } => {
                write!(f, "corrupt cache record {path}: {problem}")
            }
            CacheError::Mismatch { path } => {
                write!(f, "cache record {path} holds a different scenario identity")
            }
        }
    }
}

impl std::error::Error for CacheError {}

/// A directory of content-addressed result records.
#[derive(Debug, Clone)]
pub struct CacheDir {
    dir: PathBuf,
}

impl CacheDir {
    /// Opens (creating if needed) a cache directory.
    ///
    /// # Errors
    ///
    /// [`CacheError::Io`] if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<CacheDir, CacheError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| CacheError::Io {
            path: dir.display().to_string(),
            op: "create dir",
            message: e.to_string(),
        })?;
        Ok(CacheDir { dir })
    }

    /// The record path for a digest: `{dir}/{digest:016x}.result.json`.
    pub fn path_of(&self, digest: SpecDigest) -> PathBuf {
        self.dir.join(format!("{digest}.result.json"))
    }

    /// Stores a report under its spec's digest, atomically
    /// (tmp + rename). Overwrites any existing record — records are
    /// pure functions of the identity, so a rewrite can only refresh
    /// identical bytes or repair corruption.
    ///
    /// # Errors
    ///
    /// [`CacheError::Io`] if writing or renaming fails.
    pub fn store(
        &self,
        spec: &ScenarioSpec,
        report: &CampaignReport,
    ) -> Result<PathBuf, CacheError> {
        let digest = SpecDigest::of(spec);
        let record = Record {
            digest: digest.to_string(),
            scenario: SpecDigest::identity_json(spec),
            report: Cow::Borrowed(report),
        }
        .encode()
        .emit();
        let path = self.path_of(digest);
        let tmp = path.with_extension("json.tmp");
        let io_err = |op: &'static str, p: &Path| {
            let p = p.display().to_string();
            move |e: std::io::Error| CacheError::Io {
                path: p.clone(),
                op,
                message: e.to_string(),
            }
        };
        let mut file = std::fs::File::create(&tmp).map_err(io_err("write", &tmp))?;
        file.write_all(record.as_bytes())
            .and_then(|()| file.sync_all())
            .map_err(io_err("write", &tmp))?;
        drop(file);
        std::fs::rename(&tmp, &path).map_err(io_err("rename", &path))?;
        Ok(path)
    }

    /// Loads the report cached for `spec`'s identity, fully verified.
    ///
    /// Returns `Ok(None)` when no record exists (a plain miss).
    ///
    /// # Errors
    ///
    /// [`CacheError::Corrupt`] for an untrustworthy record,
    /// [`CacheError::Mismatch`] for a trustworthy record of a
    /// *different* identity, [`CacheError::Io`] if reading fails.
    pub fn load(&self, spec: &ScenarioSpec) -> Result<Option<CampaignReport>, CacheError> {
        let digest = SpecDigest::of(spec);
        let path = self.path_of(digest);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => {
                return Err(CacheError::Io {
                    path: path.display().to_string(),
                    op: "read",
                    message: e.to_string(),
                })
            }
        };
        let corrupt = |problem: String| CacheError::Corrupt {
            path: path.display().to_string(),
            problem,
        };
        let value = Json::parse(&text).map_err(|e| corrupt(e.to_string()))?;
        let (claimed, scenario) = header(&value).map_err(|e| corrupt(e.to_string()))?;
        // The embedded digest must be the hash of the embedded identity
        // — otherwise one of the two was doctored or damaged.
        let actual = SpecDigest::from_u64(qic_sweep::digest_str(scenario));
        match SpecDigest::parse_hex(claimed) {
            Some(d) if d == actual => {}
            Some(_) => {
                return Err(corrupt(
                    "digest field does not match the embedded identity".into(),
                ))
            }
            None => return Err(corrupt(format!("unparsable digest {}", quote(claimed)))),
        }
        // A self-consistent record can still be the *wrong* record: the
        // file name collided or was renamed onto this digest.
        if actual != digest || scenario != SpecDigest::identity_json(spec) {
            return Err(CacheError::Mismatch {
                path: path.display().to_string(),
            });
        }
        let Record { report, .. } =
            Record::decode(&value, CTX).map_err(|e| corrupt(e.to_string()))?;
        Ok(Some(report.into_owned()))
    }
}

/// The digest and identity fields of a parsed record, after its envelope
/// check: what a load verifies before it decodes the embedded report.
/// They are the `record!` table's fields, read off the tree by name.
fn header(value: &Json) -> Result<(&str, &str), JsonError> {
    let fields = value.obj_of(CTX)?;
    check_envelope(fields, "serve_result", CACHE_VERSION, CTX)?;
    let digest = get(fields, "digest", CTX)?.str_of("digest")?;
    let scenario = get(fields, "scenario", CTX)?.str_of("scenario")?;
    Ok((digest, scenario))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qic_core::scenario::{self, ScenarioRegistry, ScenarioScale};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("qic_serve_cache_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spec() -> ScenarioSpec {
        ScenarioRegistry::builtin()
            .spec("topology_faceoff", ScenarioScale::SmallTest)
            .expect("a registered preset")
    }

    #[test]
    fn round_trips_a_report_byte_for_byte() {
        let cache = CacheDir::open(tmpdir("round_trip")).unwrap();
        let spec = spec();
        let direct = scenario::run(&spec).unwrap();
        assert_eq!(cache.load(&spec).unwrap(), None, "empty cache misses");
        let path = cache.store(&spec, &direct.report).unwrap();
        assert!(path.exists());
        let loaded = cache.load(&spec).unwrap().expect("stored record loads");
        assert_eq!(loaded, direct.report, "wall_ns excluded, all else equal");
        assert_eq!(loaded.to_json(), direct.report.to_json());
        assert_eq!(loaded.to_csv(), direct.report.to_csv());
        assert_eq!(loaded.to_record_json(), direct.report.to_record_json());
    }

    #[test]
    fn truncated_and_doctored_records_are_structured_misses() {
        let cache = CacheDir::open(tmpdir("corrupt")).unwrap();
        let spec = spec();
        let report = scenario::run(&spec).unwrap().report;
        let path = cache.store(&spec, &report).unwrap();
        let original = std::fs::read_to_string(&path).unwrap();

        // Truncation: unparsable → Corrupt.
        std::fs::write(&path, &original[..original.len() / 2]).unwrap();
        assert!(matches!(cache.load(&spec), Err(CacheError::Corrupt { .. })));

        // A doctored digest field → Corrupt (digest ≠ embedded identity).
        let digest = SpecDigest::of(&spec).to_string();
        let doctored = original.replacen(&digest, &"0".repeat(16), 1);
        assert_ne!(doctored, original);
        std::fs::write(&path, doctored).unwrap();
        assert!(matches!(cache.load(&spec), Err(CacheError::Corrupt { .. })));

        // A different scenario's (self-consistent) record renamed onto
        // this digest → Mismatch.
        let other = spec.clone().with_seed(spec.seed.wrapping_add(1));
        cache.store(&other, &report).unwrap();
        std::fs::rename(cache.path_of(SpecDigest::of(&other)), &path).unwrap();
        assert!(matches!(
            cache.load(&spec),
            Err(CacheError::Mismatch { .. })
        ));

        // Damage the embedded report as well: still Mismatch, since the
        // identity is checked before the report is decoded. The same
        // damage in this scenario's own record is Corrupt.
        let renamed = std::fs::read_to_string(&path).unwrap();
        let damage = |text: &str| text.replacen("\"campaign_report\"", "\"campaign_rep0rt\"", 1);
        assert_ne!(damage(&renamed), renamed);
        std::fs::write(&path, damage(&renamed)).unwrap();
        assert!(matches!(
            cache.load(&spec),
            Err(CacheError::Mismatch { .. })
        ));
        std::fs::write(&path, damage(&original)).unwrap();
        assert!(matches!(cache.load(&spec), Err(CacheError::Corrupt { .. })));

        // A wrong envelope version → Corrupt, not a misread.
        std::fs::write(
            &path,
            original.replacen("\"version\": 2", "\"version\": 99", 1),
        )
        .unwrap();
        let err = cache.load(&spec).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");

        // Restoring the original bytes restores the hit.
        std::fs::write(&path, &original).unwrap();
        assert_eq!(cache.load(&spec).unwrap().unwrap(), report);
    }
}
