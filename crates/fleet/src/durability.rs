//! Durable per-stream checkpoints: the v2 envelope on disk, atomic
//! rotation, restore, and crash recovery.
//!
//! Each SOFIA stream owns one file `<dir>/<encoded-id>.ckpt` holding a
//! tagged **v2 checkpoint envelope** (`sofia-checkpoint v2` /
//! `model sofia` / `steps <n>` / the v1 text of
//! [`sofia_core::checkpoint::save`] — see [`sofia_core::snapshot`]).
//! Restore refuses an envelope of any other kind as
//! [`FleetError::Corrupt`]. Bare **v1** files (pre-envelope SOFIA
//! checkpoints) still load bit-exactly: the envelope parser recognizes
//! the v1 header and reports them as `kind = "sofia"`.
//!
//! Writes go through a temp file in the same directory followed by an
//! atomic `rename`, so a crash mid-write never damages the previous good
//! checkpoint — on restart every `.ckpt` file in the directory is either
//! the old state or the new state, never a torn mix. Stray `.ckpt.tmp`
//! files left by such a crash are explicitly ignored (and cleaned up) by
//! recovery; they can never shadow a good checkpoint because only exact
//! `.ckpt` names are ever loaded.

use crate::error::FleetError;
use crate::model::ModelHandle;
use sofia_core::checkpoint;
use sofia_core::snapshot::{self, SOFIA_KIND};
use std::path::{Path, PathBuf};

/// When and where the engine checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Directory holding one `.ckpt` file per stream (created on engine
    /// start if absent).
    pub dir: PathBuf,
    /// Checkpoint a stream after this many steps since its last durable
    /// checkpoint. `1` checkpoints every step; large values trade
    /// durability lag for throughput.
    pub every_steps: u64,
}

impl CheckpointPolicy {
    /// Checkpoints into `dir` every `every_steps` steps per stream.
    pub fn new(dir: impl Into<PathBuf>, every_steps: u64) -> Self {
        assert!(every_steps > 0, "checkpoint interval must be positive");
        CheckpointPolicy {
            dir: dir.into(),
            every_steps,
        }
    }
}

/// Whether [`encode_stream_id`] copies byte `b` through unescaped.
fn passes_through(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.')
}

/// The digits of a `%XX` escape, uppercase: the one spelling
/// [`encode_stream_id`] writes and [`decode_stream_id`] reads.
const ESCAPE_DIGITS: &[u8; 16] = b"0123456789ABCDEF";

/// Percent-encodes a stream id into a filesystem-safe file stem.
///
/// Alphanumerics, `-`, `_`, and `.` pass through; everything else becomes
/// `%XX` per byte. The encoding is injective, so distinct stream ids
/// never collide on disk, and the output contains no path separators, so
/// ids like `../x` cannot escape the checkpoint directory.
pub fn encode_stream_id(id: &str) -> String {
    let mut out = String::with_capacity(id.len());
    for b in id.bytes() {
        if passes_through(b) {
            out.push(char::from(b));
        } else {
            out.push('%');
            out.push(char::from(ESCAPE_DIGITS[usize::from(b >> 4)]));
            out.push(char::from(ESCAPE_DIGITS[usize::from(b & 0xf)]));
        }
    }
    out
}

/// Inverse of [`encode_stream_id`] that accepts only its output, so
/// every id has exactly one spelling on disk and on the wire. `None` for
/// a byte the encoder escapes, a malformed or lowercase escape, or an
/// escape of a byte the encoder passes through (`stream%2D0000` is not
/// `stream-0000`).
pub fn decode_stream_id(stem: &str) -> Option<String> {
    let nibble = |d: u8| ESCAPE_DIGITS.iter().position(|&e| e == d).map(|n| n as u8);
    let mut bytes = stem.bytes();
    let mut out = Vec::with_capacity(stem.len());
    while let Some(b) = bytes.next() {
        if b == b'%' {
            let escaped = nibble(bytes.next()?)? << 4 | nibble(bytes.next()?)?;
            if passes_through(escaped) {
                return None;
            }
            out.push(escaped);
        } else if passes_through(b) {
            out.push(b);
        } else {
            return None;
        }
    }
    String::from_utf8(out).ok()
}

/// Path of a stream's checkpoint file under `dir`.
pub fn checkpoint_path(dir: &Path, stream_id: &str) -> PathBuf {
    dir.join(format!("{}.ckpt", encode_stream_id(stream_id)))
}

/// Path of the temp file a checkpoint write rotates through. Derived by
/// appending `.tmp` to the final name (never `Path::with_extension`,
/// whose last-extension semantics get surprising for encoded ids
/// containing dots).
fn temp_path(dir: &Path, stream_id: &str) -> PathBuf {
    dir.join(format!("{}.ckpt.tmp", encode_stream_id(stream_id)))
}

/// Writes `text` as `stream_id`'s checkpoint with atomic temp+rename
/// rotation.
pub fn write_checkpoint(dir: &Path, stream_id: &str, text: &str) -> Result<(), FleetError> {
    use std::io::Write as _;
    let final_path = checkpoint_path(dir, stream_id);
    // The temp file lives in the same directory so the rename cannot
    // cross a filesystem boundary (rename is only atomic within one).
    let tmp_path = temp_path(dir, stream_id);
    let mut file = std::fs::File::create(&tmp_path)?;
    file.write_all(text.as_bytes())?;
    // Flush data blocks before the rename: without this, a power loss
    // can journal the rename's metadata ahead of the data and replace
    // the previous good checkpoint with an empty/torn file. (A paranoid
    // implementation would also fsync the directory; per-stream loss on
    // that window is bounded by the checkpoint interval, so we stop at
    // the file.)
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp_path, &final_path)?;
    Ok(())
}

/// Removes a stream's checkpoint file (and any stale temp next to it)
/// from `dir`, if present. Used when a stream is deregistered — e.g.
/// migrated to another process — so a later recovery cannot resurrect
/// it here; a missing file is not an error (transient models never had
/// one).
pub fn remove_checkpoint(dir: &Path, stream_id: &str) -> Result<(), FleetError> {
    let _ = std::fs::remove_file(temp_path(dir, stream_id));
    match std::fs::remove_file(checkpoint_path(dir, stream_id)) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e.into()),
    }
}

/// Restores a SOFIA handle from raw checkpoint text (v2 envelope or bare
/// v1 SOFIA); an envelope of any other kind is refused.
fn restore_from_text(text: &str) -> Result<ModelHandle, String> {
    let env = snapshot::parse(text).map_err(|e| e.to_string())?;
    if env.kind != SOFIA_KIND {
        return Err(format!("unknown model kind `{}`", env.kind));
    }
    let model = checkpoint::load(&env.payload).map_err(|e| e.to_string())?;
    Ok(ModelHandle::sofia(model).with_steps(env.steps))
}

/// Restores a model handle from checkpoint-envelope text, reporting
/// failures as [`FleetError::Corrupt`] against `stream_id`.
///
/// This is the deserialization half of the envelope's second life as a
/// **wire form**: a `sofia-net` client registers a stream over TCP by
/// sending exactly the text [`ModelHandle::checkpoint_text`] produces,
/// and the server turns it back into a servable handle here — the same
/// bit-exact path crash recovery uses.
pub fn restore_handle(stream_id: &str, text: &str) -> Result<ModelHandle, FleetError> {
    restore_from_text(text).map_err(|reason| FleetError::Corrupt {
        stream: stream_id.to_string(),
        reason,
    })
}

/// Loads one stream's checkpoint from `dir`, if present. Used by shard
/// workers to lazily restore an evicted stream on its next ingest/query.
pub fn load_stream(dir: &Path, stream_id: &str) -> Result<Option<ModelHandle>, FleetError> {
    let path = checkpoint_path(dir, stream_id);
    if !path.exists() {
        return Ok(None);
    }
    let text = std::fs::read_to_string(&path)?;
    restore_from_text(&text)
        .map(Some)
        .map_err(|reason| FleetError::Corrupt {
            stream: stream_id.to_string(),
            reason,
        })
}

/// One recovered stream: id plus its restored model handle.
#[derive(Debug)]
pub struct RecoveredStream {
    /// Decoded stream id.
    pub id: String,
    /// Model restored bit-exactly from its checkpoint.
    pub handle: ModelHandle,
}

/// Loads every checkpoint under `dir`, sorted by stream id for
/// deterministic registration order. Stale `.ckpt.tmp` files from a crash
/// mid-write are removed (they are possibly-torn staging files, never
/// authoritative state, and must not shadow the good `.ckpt` next to
/// them); malformed `.ckpt` files are hard errors (a serving engine must
/// not silently drop a stream's state).
pub fn recover_all(dir: &Path) -> Result<Vec<RecoveredStream>, FleetError> {
    let mut recovered = Vec::new();
    if !dir.exists() {
        return Ok(recovered);
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = match path.file_name().and_then(|n| n.to_str()) {
            Some(n) => n,
            None => continue,
        };
        if name.ends_with(".ckpt.tmp") {
            // A crash between write and rename left a torn temp file; the
            // previous good checkpoint (if any) is still intact.
            let _ = std::fs::remove_file(&path);
            continue;
        }
        let Some(stem) = name.strip_suffix(".ckpt") else {
            continue;
        };
        let id = decode_stream_id(stem).ok_or_else(|| FleetError::Corrupt {
            stream: stem.to_string(),
            reason: format!("undecodable file name `{name}`"),
        })?;
        let text = std::fs::read_to_string(&path)?;
        let handle = restore_from_text(&text).map_err(|reason| FleetError::Corrupt {
            stream: id.clone(),
            reason,
        })?;
        recovered.push(RecoveredStream { id, handle });
    }
    recovered.sort_by(|a, b| a.id.cmp(&b.id));
    Ok(recovered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::tests::{small_sofia, sofia_slice, STARTUP};
    use crate::model::LastStep;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sofia-fleet-durability-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// An envelope of the `smf` kind, as earlier builds wrote and
    /// restored it (one SMF model on 2×2 slices, rank 1, period 2).
    const SMF_ENVELOPE: &str = "sofia-checkpoint v2\nmodel smf\nsteps 1\nsmf v1\n\
        hyper 3fb999999999999a 3fc999999999999a\nfactors 2\nfactor 2 1\n\
        data 3fe36311e3c00300 3fe9760e05584607\nfactor 2 1\n\
        data 3fe511497c7a06a3 3fe8164e5d85cb41\ndrift be27d10600000000\nseasonal 2\n\
        z 401320666df238fe\nz 400667a6ea8ef31a\n";

    /// An envelope of the `online-sgd` kind, as earlier builds wrote and
    /// restored it (one OnlineSGD model on 2×2 slices, rank 1).
    const ONLINE_SGD_ENVELOPE: &str = "sofia-checkpoint v2\nmodel online-sgd\nsteps 1\n\
        online-sgd v1\nhyper 3fb999999999999a\nsteps 1\nfactors 2\nfactor 2 1\n\
        data 3ff017b8d5907c96 3ff7f02f71c36e9a\nfactor 2 1\n\
        data 3ff017b8d5907c96 3ff3ed05bbae3de6\n";

    #[test]
    fn id_encoding_roundtrips() {
        for id in [
            "plain",
            "with/slash",
            "dots.and-dashes_ok",
            "spaces and % signs",
            "unicode-ßµ",
            "..",
            "../escape",
            "",
        ] {
            let enc = encode_stream_id(id);
            assert!(
                enc.bytes().all(|b| b.is_ascii_alphanumeric()
                    || b == b'-'
                    || b == b'_'
                    || b == b'.'
                    || b == b'%'),
                "unsafe byte in {enc:?}"
            );
            assert_eq!(decode_stream_id(&enc).as_deref(), Some(id));
        }
    }

    #[test]
    fn distinct_ids_never_collide() {
        let ids = ["a/b", "a%2Fb", "a_b", "a b", "a%b"];
        let encs: Vec<String> = ids.iter().map(|i| encode_stream_id(i)).collect();
        for i in 0..encs.len() {
            for j in i + 1..encs.len() {
                assert_ne!(encs[i], encs[j], "{} vs {}", ids[i], ids[j]);
            }
        }
    }

    #[test]
    fn tricky_ids_map_to_unique_in_dir_paths() {
        // Ids with separators, traversal attempts, spaces, non-ASCII, and
        // near-collisions must each get their own file *inside* dir.
        let dir = PathBuf::from("/ckpt");
        let ids = [
            "a/b",
            "a%2Fb",
            "..",
            "../a",
            ". .",
            "käse",
            "a b",
            "a.ckpt",
            "a.ckpt.tmp",
            "a",
        ];
        let mut seen = HashSet::new();
        for id in ids {
            let p = checkpoint_path(&dir, id);
            assert_eq!(p.parent(), Some(dir.as_path()), "{id:?} escaped: {p:?}");
            assert!(seen.insert(p.clone()), "collision on {p:?} for {id:?}");
            // The temp file stays alongside and distinct too.
            let t = temp_path(&dir, id);
            assert_eq!(t.parent(), Some(dir.as_path()));
            assert!(seen.insert(t), "temp collision for {id:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn encoding_roundtrips_arbitrary_ids(bytes in prop::collection::vec(0u8..128, 0..24)) {
            // Drawn from the full ASCII range (so slashes, dots, controls,
            // spaces, and '%' all appear), plus a non-ASCII suffix.
            let id: String = bytes.iter().map(|&b| b as char).collect::<String>() + "µ";
            let enc = encode_stream_id(&id);
            prop_assert_eq!(decode_stream_id(&enc).as_deref(), Some(id.as_str()));
            // No separators survive encoding: the file stays inside dir.
            prop_assert!(!enc.contains('/'));
            let p = checkpoint_path(Path::new("/d"), &id);
            prop_assert_eq!(p.parent(), Some(Path::new("/d")));
        }
    }

    /// Characters for [`decode_accepts_only_what_encode_emits`], heavy
    /// in escape material: `%`, digits of both cases, signs, bytes the
    /// encoder passes through and bytes it escapes.
    const DECODE_ALPHABET: [char; 24] = [
        '%', '%', '%', '2', '0', '4', '1', 'C', '3', 'D', 'F', 'd', 'f', '+', '-', '_', '.', 'a',
        'Z', ' ', '/', 'µ', '\t', '9',
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn decode_accepts_only_what_encode_emits(
            picks in prop::collection::vec(0usize..DECODE_ALPHABET.len(), 0..16)
        ) {
            let stem: String = picks.iter().map(|&i| DECODE_ALPHABET[i]).collect();
            let again = decode_stream_id(&stem).map(|id| encode_stream_id(&id));
            prop_assert!(
                again.is_none() || again.as_deref() == Some(stem.as_str()),
                "{stem:?} decoded and re-encoded to {again:?}"
            );
        }
    }

    #[test]
    fn decode_rejects_malformed() {
        assert_eq!(decode_stream_id("%zz"), None);
        assert_eq!(decode_stream_id("%4"), None);
        assert_eq!(decode_stream_id("ok%20fine"), Some("ok fine".into()));
        // Spellings the encoder never writes: a signed escape, a
        // lowercase one, and an escape of a pass-through byte (`A`).
        assert_eq!(decode_stream_id("%+f"), None);
        assert_eq!(decode_stream_id("%2f"), None);
        assert_eq!(decode_stream_id("%41"), None);
    }

    #[test]
    fn write_is_atomic_and_recoverable() {
        let dir = tmpdir("atomic");
        write_checkpoint(&dir, "s/1", "sofia-checkpoint v1\ngarbage-for-this-test\n").unwrap();
        // The temp file must not linger.
        assert!(std::fs::read_dir(&dir).unwrap().all(|e| !e
            .unwrap()
            .file_name()
            .to_string_lossy()
            .ends_with(".tmp")));
        // Overwrite rotates atomically.
        write_checkpoint(&dir, "s/1", "second\n").unwrap();
        let text = std::fs::read_to_string(checkpoint_path(&dir, "s/1")).unwrap();
        assert_eq!(text, "second\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_skips_temp_and_flags_corrupt() {
        let dir = tmpdir("recover");
        // A torn temp file from a crash mid-write: cleaned up, not loaded.
        std::fs::write(dir.join("torn.ckpt.tmp"), "half a checkpo").unwrap();
        assert!(recover_all(&dir).unwrap().is_empty());
        assert!(!dir.join("torn.ckpt.tmp").exists());
        // A malformed real checkpoint is a hard error.
        std::fs::write(dir.join("bad.ckpt"), "not a checkpoint\n").unwrap();
        assert!(matches!(recover_all(&dir), Err(FleetError::Corrupt { .. })));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A copied-in `stream%2D0000.ckpt` would register `stream-0000`,
    /// whose later checkpoints land in `stream-0000.ckpt`: two files for
    /// one stream, of which deregistering removes only the second.
    /// Recovery refuses the non-canonical name instead.
    #[test]
    fn recover_refuses_a_non_canonical_file_name() {
        let dir = tmpdir("non-canonical");
        let text = ModelHandle::sofia(small_sofia(1))
            .checkpoint_text()
            .unwrap();
        std::fs::write(dir.join("stream%2D0000.ckpt"), text).unwrap();
        match recover_all(&dir) {
            Err(FleetError::Corrupt { stream, reason }) => {
                assert_eq!(stream, "stream%2D0000");
                assert!(reason.contains("stream%2D0000.ckpt"), "{reason}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn leftover_temp_never_shadows_the_good_checkpoint() {
        // The satellite case: a crash mid-rotation leaves BOTH the good
        // `.ckpt` and a torn `.ckpt.tmp` for the *same* stream. Recovery
        // must load the good state untouched and clean up the temp.
        let dir = tmpdir("shadow");
        let mut handle = ModelHandle::sofia(small_sofia(7));
        handle.step(&sofia_slice(7, STARTUP));
        write_checkpoint(&dir, "s1", &handle.checkpoint_text().unwrap()).unwrap();
        std::fs::write(temp_path(&dir, "s1"), "sofia-checkpoint v2\nmodel sof").unwrap();

        let recovered = recover_all(&dir).unwrap();
        assert_eq!(recovered.len(), 1, "exactly the good checkpoint loads");
        assert_eq!(recovered[0].id, "s1");
        assert_eq!(recovered[0].handle.model_steps(), 1);
        assert!(!temp_path(&dir, "s1").exists(), "temp cleaned up");
        // The restored model is bit-exact against the original.
        let mut restored = match load_stream(&dir, "s1").unwrap() {
            Some(h) => h,
            None => panic!("stream exists"),
        };
        let next = sofia_slice(7, STARTUP + 1);
        match (handle.step(&next), restored.step(&next)) {
            (
                (
                    LastStep::Sofia {
                        temporal: ua,
                        outliers: oa,
                    },
                    da,
                ),
                (
                    LastStep::Sofia {
                        temporal: ub,
                        outliers: ob,
                    },
                    db,
                ),
            ) => {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&ua), bits(&ub), "u_t");
                let (oa, ob) = (oa.to_dense(), ob.to_dense());
                assert_eq!(bits(oa.data()), bits(ob.data()), "outliers");
                assert_eq!(da.map(f64::to_bits), db.map(f64::to_bits), "drift");
                assert!(da.is_some(), "a SOFIA step reports its drift");
            }
            _ => panic!("a SOFIA model takes a SOFIA step"),
        }
        // And the whole state after it, factors included, bit for bit.
        assert_eq!(handle.checkpoint_text(), restored.checkpoint_text());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// SOFIA is the one kind that restores: an envelope of a kind no
    /// build ever wrote, and the `smf` and `online-sgd` envelopes that
    /// earlier builds wrote, are each refused as corrupt, naming the
    /// stream and the kind.
    #[test]
    fn restore_dispatches_by_kind_and_rejects_unknown() {
        let dir = tmpdir("dispatch");
        write_checkpoint(
            &dir,
            "sofia",
            &ModelHandle::sofia(small_sofia(1))
                .checkpoint_text()
                .unwrap(),
        )
        .unwrap();
        for (id, kind, text) in [
            (
                "alien",
                "from-the-future",
                "sofia-checkpoint v2\nmodel from-the-future\nsteps 3\npayload\n",
            ),
            ("smf", "smf", SMF_ENVELOPE),
            ("sgd", "online-sgd", ONLINE_SGD_ENVELOPE),
        ] {
            std::fs::write(checkpoint_path(&dir, id), text).unwrap();
            match recover_all(&dir) {
                Err(FleetError::Corrupt { stream, reason }) => {
                    assert_eq!(stream, id);
                    assert!(
                        reason.contains(&format!("unknown model kind `{kind}`")),
                        "{reason}"
                    );
                }
                other => panic!("expected Corrupt for {id}, got {other:?}"),
            }
            assert!(matches!(
                restore_handle(id, text),
                Err(FleetError::Corrupt { .. })
            ));
            std::fs::remove_file(checkpoint_path(&dir, id)).unwrap();
        }
        let recovered = recover_all(&dir).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].handle.name(), "SOFIA");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_stream_missing_is_none() {
        let dir = tmpdir("lazy-missing");
        assert!(load_stream(&dir, "nope").unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_missing_dir_is_empty() {
        let dir = std::env::temp_dir().join("sofia-fleet-never-created-dir");
        assert!(recover_all(&dir).unwrap().is_empty());
    }
}
