//! Property tests for checkpoint crash-consistency: any single-byte
//! corruption of a published fragment — anywhere in the file, including
//! the frame header — is caught by verify-on-load, quarantined, and the
//! owning stage invalidated; likewise any torn (truncated) write. Damage
//! to the MANIFEST itself is a typed error or loses exactly the damaged
//! stage commit and those after it.

use std::fs;
use std::path::{Path, PathBuf};

use papar_mr::{CheckpointSession, MrError};
use papar_record::wire::{self, Reader};
use proptest::prelude::*;

fn tmpdir(tag: &str, case: u64) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "papar-ckpt-prop-{tag}-{}-{case}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(&d).unwrap();
    d
}

/// Write one committed stage with a single fragment and return the
/// fragment file's path.
fn publish_one(dir: &Path, payload: &[u8]) -> PathBuf {
    let mut s = CheckpointSession::create(dir, 0xC0FFEE).unwrap();
    s.stage_fragment("/out", 0, 0, payload.to_vec());
    s.commit_stage(0, "stage", &Default::default()).unwrap();
    let r = CheckpointSession::resume(dir, 0xC0FFEE).unwrap();
    assert!(r.corruption_events().is_empty());
    dir.join(r.completed()[0].fragments[0].file.clone())
}

/// Assert the damaged checkpoint resumes with the stage invalidated, the
/// fragment quarantined as evidence, and a second resume coming up clean.
fn assert_caught(dir: &Path, frag: &Path) -> Result<(), TestCaseError> {
    let r = CheckpointSession::resume(dir, 0xC0FFEE).unwrap();
    prop_assert!(
        !r.corruption_events().is_empty(),
        "corruption went undetected"
    );
    prop_assert!(matches!(
        r.corruption_events()[0],
        MrError::CheckpointCorrupt { .. }
    ));
    prop_assert!(!r.is_complete(0), "corrupt stage still marked complete");
    let mut q = frag.as_os_str().to_owned();
    q.push(".quarantine");
    prop_assert!(
        PathBuf::from(q).exists(),
        "corrupt fragment was not quarantined"
    );
    // The manifest was rewritten to the intact prefix, so a second resume
    // sees a consistent (empty) checkpoint with no further incidents.
    let clean = CheckpointSession::resume(dir, 0xC0FFEE).unwrap();
    prop_assert!(clean.corruption_events().is_empty());
    prop_assert!(clean.completed().is_empty());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flipping any single byte of a fragment file — length prefix, frame
    /// checksum, or payload — is always caught on resume.
    #[test]
    fn single_byte_corruption_is_always_caught(
        payload in prop::collection::vec(any::<u8>(), 1..256),
        pos_seed in any::<usize>(),
        flip_seed in any::<u8>(),
    ) {
        let dir = tmpdir("flip", pos_seed as u64 ^ payload.len() as u64);
        let frag = publish_one(&dir, &payload);

        let mut bytes = fs::read(&frag).unwrap();
        let pos = pos_seed % bytes.len();
        let flip = flip_seed | 1; // nonzero mask: the byte is guaranteed to change
        bytes[pos] ^= flip;
        fs::write(&frag, &bytes).unwrap();

        assert_caught(&dir, &frag)?;
        let _ = fs::remove_dir_all(&dir);
    }

    /// A torn write — the fragment file truncated at any point short of
    /// its full length — is always caught on resume.
    #[test]
    fn torn_fragment_write_is_always_caught(
        payload in prop::collection::vec(any::<u8>(), 1..256),
        cut_seed in any::<usize>(),
    ) {
        let dir = tmpdir("torn", cut_seed as u64 ^ payload.len() as u64);
        let frag = publish_one(&dir, &payload);

        let full = fs::read(&frag).unwrap();
        let cut = cut_seed % full.len(); // 0..len, strictly shorter
        fs::write(&frag, &full[..cut]).unwrap();

        assert_caught(&dir, &frag)?;
        let _ = fs::remove_dir_all(&dir);
    }
}

/// The MANIFEST of a checkpoint committing one stage per payload (its one
/// fragment), and the end offset of each of its frames (header first).
fn committed(dir: &Path, payloads: &[Vec<u8>]) -> (Vec<u8>, Vec<usize>) {
    let mut s = CheckpointSession::create(dir, 0xC0FFEE).unwrap();
    for (i, payload) in payloads.iter().enumerate() {
        s.stage_fragment("/out", i as u32 % 2, 0, payload.clone());
        s.commit_stage(i as u32, &format!("stage{i}"), &Default::default())
            .unwrap();
    }
    let manifest = fs::read(dir.join(papar_mr::checkpoint::MANIFEST)).unwrap();
    let mut r = Reader::new(&manifest);
    let mut ends = Vec::new();
    while r.remaining() > 0 {
        wire::decode_frame(&mut r).unwrap();
        ends.push(r.position());
    }
    assert_eq!(ends.len(), payloads.len() + 1);
    (manifest, ends)
}

/// Resume from `manifest` written in place of the checkpoint's MANIFEST:
/// a typed error, or the number of stages the session kept. A session
/// must keep a prefix of the committed stages, in order.
fn resume_from(dir: &Path, manifest: &[u8]) -> Result<usize, MrError> {
    fs::write(dir.join(papar_mr::checkpoint::MANIFEST), manifest).unwrap();
    let fingerprint = CheckpointSession::fingerprint_of(dir);
    let session = CheckpointSession::resume(dir, 0xC0FFEE)?;
    assert_eq!(fingerprint.ok(), Some(0xC0FFEE));
    for (i, stage) in session.completed().iter().enumerate() {
        assert_eq!(stage.index as usize, i);
        assert_eq!(stage.stage_id, format!("stage{i}"));
    }
    Ok(session.completed().len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The MANIFEST decoder is total: arbitrary bytes, every truncation and
    /// every single-byte flip of a valid MANIFEST either fail with a typed
    /// error or resume exactly the stages whose frames are intact.
    #[test]
    fn manifest_damage_is_an_error_or_the_intact_prefix(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..32), 2..4),
        garbage in prop::collection::vec(any::<u8>(), 0..96),
        flip in 1u8..255,
    ) {
        let dir = tmpdir("manifest", garbage.len() as u64 ^ (payloads.len() as u64) << 8);
        let (manifest, ends) = committed(&dir, &payloads);
        // Frames wholly inside `len` bytes, header excluded; without the
        // header no stage can be trusted.
        let intact = |len: usize| {
            (len >= ends[0]).then(|| ends[1..].iter().filter(|&&e| e <= len).count())
        };

        let _ = resume_from(&dir, &garbage);
        let mut tailed = manifest.clone();
        tailed.extend_from_slice(&garbage);
        let kept = resume_from(&dir, &tailed);
        prop_assert!(kept.is_ok());
        prop_assert!(kept.unwrap() <= payloads.len());

        for cut in 0..manifest.len() {
            let kept = resume_from(&dir, &manifest[..cut]).ok();
            prop_assert_eq!(kept, intact(cut), "cut at {}", cut);
        }
        for at in 0..manifest.len() {
            let mut damaged = manifest.clone();
            damaged[at] ^= flip;
            // The first frame the flip lands in, and every frame after
            // it, is lost.
            let frame = ends.iter().position(|&e| at < e).unwrap();
            let want = (frame > 0).then(|| frame - 1);
            prop_assert_eq!(resume_from(&dir, &damaged).ok(), want, "flip at {}", at);
        }
        prop_assert_eq!(resume_from(&dir, &manifest).ok(), Some(payloads.len()));
        let _ = fs::remove_dir_all(&dir);
    }
}
