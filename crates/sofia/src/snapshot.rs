//! The versioned **v2 checkpoint envelope** that carries a SOFIA model
//! on disk and on the wire, plus the float codec every text payload
//! shares.
//!
//! The v1 checkpoint format ([`crate::checkpoint`]) serializes a SOFIA
//! model bit for bit. The serving layer wraps it in a tagged envelope
//!
//! ```text
//! sofia-checkpoint v2
//! model sofia
//! steps <n>
//! <the v1 text of checkpoint::save>
//! ```
//!
//! which adds the serving layer's applied-steps counter. SOFIA is the one
//! durable model kind: its tag is [`SOFIA_KIND`], and a restore refuses
//! any other. [`parse`] also accepts bare **v1** files (header
//! `sofia-checkpoint v1`) and reports them as `kind = "sofia"` with the
//! whole text as payload, so checkpoints written before the envelope
//! existed keep loading bit-exactly.
//!
//! Payloads are line-oriented text with floats encoded as IEEE 754 bit
//! patterns (see [`wire`]), so a restore is **bit-exact**.

use crate::checkpoint::CheckpointError;

/// The workspace's one float codec: every `f64` written to a checkpoint,
/// a fleet protocol reply, a sketch block or a `sofia-net` frame goes
/// through these functions.
///
/// A float travels as its IEEE 754 bit pattern in exactly 16 lowercase
/// hex digits, so round-trips are bit-exact; integers as plain decimal.
/// A float line is `label`, then one 17-byte token per value: one
/// space, then the 16 digits. Decoding is strict: anything else — a
/// sign, an uppercase digit, a short or long token, a tab, a second
/// space, trailing whitespace — is [`CheckpointError::Malformed`].
/// Both directions go through 256-entry tables, without `fmt`.
pub mod wire {
    use super::CheckpointError;

    /// Bytes of one float on a line: a space and 16 digits.
    const TOKEN: usize = 17;

    /// Tokens staged on the stack per `push_str` by [`push_f64s`].
    const CHUNK: usize = 64;

    /// `HEX_PAIRS[b]` spells byte `b` as two lowercase hex digits.
    const HEX_PAIRS: [[u8; 2]; 256] = {
        let digits = b"0123456789abcdef";
        let mut table = [[0; 2]; 256];
        let mut b = 0;
        while b < 256 {
            table[b] = [digits[b >> 4], digits[b & 0xf]];
            b += 1;
        }
        table
    };

    /// Entry of [`NIBBLES`] for a byte that is not a lowercase hex digit.
    const NOT_HEX: u8 = 0xff;

    /// `NIBBLES[c]` is the value of lowercase hex digit `c`, else
    /// [`NOT_HEX`].
    const NIBBLES: [u8; 256] = {
        let digits = b"0123456789abcdef";
        let mut table = [NOT_HEX; 256];
        let mut d = 0;
        while d < 16 {
            table[digits[d] as usize] = d as u8;
            d += 1;
        }
        table
    };

    /// The 16 digits of `v`'s bit pattern. Inlined into the callers'
    /// crates, where [`push_f64s`] is instantiated.
    #[inline]
    fn digits(v: f64) -> [u8; 16] {
        let mut out = [0; 16];
        for (pair, byte) in out.chunks_exact_mut(2).zip(v.to_bits().to_be_bytes()) {
            pair.copy_from_slice(&HEX_PAIRS[usize::from(byte)]);
        }
        out
    }

    /// The float whose bit pattern `digits` spells, or `None` unless
    /// all 16 bytes are lowercase hex digits.
    fn from_digits(digits: &[u8; 16]) -> Option<f64> {
        let mut bits = 0u64;
        let mut seen = 0u8;
        for &c in digits {
            let nibble = NIBBLES[usize::from(c)];
            seen |= nibble;
            bits = bits << 4 | u64::from(nibble & 0xf);
        }
        (seen != NOT_HEX).then(|| f64::from_bits(bits))
    }

    /// The staged tokens as text (they are ASCII by construction).
    fn ascii(bytes: &[u8]) -> &str {
        std::str::from_utf8(bytes).expect("hex digits and spaces are ASCII")
    }

    /// Appends `label v1 v2 …\n` with each float as its bit pattern.
    pub fn push_f64s(out: &mut String, label: &str, values: impl IntoIterator<Item = f64>) {
        let values = values.into_iter();
        out.reserve(label.len() + TOKEN * values.size_hint().0 + 1);
        out.push_str(label);
        // Every token's first byte stays the separating space.
        let mut chunk = [b' '; TOKEN * CHUNK];
        let mut filled = 0;
        for v in values {
            chunk[filled + 1..filled + TOKEN].copy_from_slice(&digits(v));
            filled += TOKEN;
            if filled == chunk.len() {
                out.push_str(ascii(&chunk));
                filled = 0;
            }
        }
        out.push_str(ascii(&chunk[..filled]));
        out.push('\n');
    }

    /// Parses a `label v1 v2 …` line written by [`push_f64s`].
    pub fn parse_f64s(line: &str, label: &str) -> Result<Vec<f64>, CheckpointError> {
        let rest = line
            .strip_prefix(label)
            .ok_or_else(|| CheckpointError::Malformed(format!("expected `{label}`")))?;
        let bad = || CheckpointError::Malformed(format!("bad float in `{label}`"));
        let tokens = rest.as_bytes().chunks_exact(TOKEN);
        if !tokens.remainder().is_empty() {
            return Err(bad());
        }
        let mut values = Vec::with_capacity(tokens.len());
        for token in tokens {
            let (&space, digits) = token.split_first().expect("tokens are not empty");
            match from_digits(digits.try_into().expect("a token holds 16 digits")) {
                Some(v) if space == b' ' => values.push(v),
                _ => return Err(bad()),
            }
        }
        Ok(values)
    }

    /// Appends one float as a bare 16-digit token, for a value that
    /// shares its line with other fields (a quantile's `q`, its answer).
    pub fn push_f64(out: &mut String, v: f64) {
        out.push_str(ascii(&digits(v)));
    }

    /// Reads a token written by [`push_f64`]: `None` unless `token` is
    /// exactly 16 lowercase hex digits.
    pub fn parse_f64(token: &str) -> Option<f64> {
        from_digits(token.as_bytes().try_into().ok()?)
    }

    /// Parses a `label n1 n2 …` line of decimal integers.
    pub fn parse_usizes(line: &str, label: &str) -> Result<Vec<usize>, CheckpointError> {
        let rest = line
            .strip_prefix(label)
            .ok_or_else(|| CheckpointError::Malformed(format!("expected `{label}`")))?;
        rest.split_whitespace()
            .map(|tok| {
                tok.parse()
                    .map_err(|_| CheckpointError::Malformed(format!("bad integer in `{label}`")))
            })
            .collect()
    }
}

/// Header line of the v2 envelope.
pub const V2_HEADER: &str = "sofia-checkpoint v2";
/// Header line of the bare v1 SOFIA format (accepted by [`parse`]).
pub const V1_HEADER: &str = "sofia-checkpoint v1";
/// Kind tag of a SOFIA model, the one kind the serving layer restores.
pub const SOFIA_KIND: &str = "sofia";

/// A parsed checkpoint envelope: which model kind the payload belongs to,
/// the applied-steps counter at snapshot time, and the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Model kind tag ([`SOFIA_KIND`] for every envelope this workspace
    /// writes).
    pub kind: String,
    /// Streaming steps the model had applied when the snapshot was taken
    /// (the serving layer's applied-steps counter).
    pub steps: u64,
    /// The model-specific payload, byte-for-byte as written.
    pub payload: String,
}

/// Wraps a model payload in the v2 envelope.
pub fn wrap(kind: &str, steps: u64, payload: &str) -> String {
    assert!(
        !kind.is_empty() && kind.chars().all(|c| c.is_ascii_graphic()),
        "kind tag must be non-empty printable ASCII: {kind:?}"
    );
    let mut out = String::with_capacity(payload.len() + 64);
    out.push_str(V2_HEADER);
    out.push('\n');
    out.push_str("model ");
    out.push_str(kind);
    out.push('\n');
    out.push_str("steps ");
    out.push_str(&steps.to_string());
    out.push('\n');
    out.push_str(payload);
    out
}

/// Splits off the first line, returning `(line, rest)` with the newline
/// consumed. Byte-offset based so the remainder is passed through
/// untouched (payloads must stay byte-exact).
fn split_line(text: &str) -> (&str, &str) {
    match text.find('\n') {
        Some(i) => (&text[..i], &text[i + 1..]),
        None => (text, ""),
    }
}

/// Parses a checkpoint file into an [`Envelope`].
///
/// Accepts both the tagged v2 format and bare v1 SOFIA files: a v1 file
/// comes back as `kind = "sofia"` whose payload is the entire original
/// text (v1 never had an envelope, so the payload *is* the file), with
/// `steps` read from the v1 trailer line.
pub fn parse(text: &str) -> Result<Envelope, CheckpointError> {
    let (header, rest) = split_line(text);
    match header.trim_end() {
        V2_HEADER => {
            let (model_line, rest) = split_line(rest);
            let kind = model_line
                .strip_prefix("model ")
                .map(str::trim)
                .filter(|k| !k.is_empty())
                .ok_or_else(|| CheckpointError::Malformed("envelope `model` line".into()))?;
            let (steps_line, payload) = split_line(rest);
            let steps = steps_line
                .strip_prefix("steps ")
                .and_then(|s| s.trim().parse().ok())
                .ok_or_else(|| CheckpointError::Malformed("envelope `steps` line".into()))?;
            Ok(Envelope {
                kind: kind.to_string(),
                steps,
                payload: payload.to_string(),
            })
        }
        V1_HEADER => {
            // Pre-envelope SOFIA file: the v1 format ends with a
            // `steps <n>` trailer; surface it as the envelope counter.
            let steps = text
                .lines()
                .rev()
                .find_map(|l| l.strip_prefix("steps "))
                .and_then(|s| s.trim().parse().ok())
                .ok_or_else(|| CheckpointError::Malformed("v1 `steps` trailer".into()))?;
            Ok(Envelope {
                kind: SOFIA_KIND.to_string(),
                steps,
                payload: text.to_string(),
            })
        }
        _ => Err(CheckpointError::BadHeader),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_roundtrips_payload_bytes() {
        let payload = "alpha 1 2 3\nbeta\n\ntail without newline";
        let text = wrap("demo-kind", 42, payload);
        let env = parse(&text).expect("parse");
        assert_eq!(env.kind, "demo-kind");
        assert_eq!(env.steps, 42);
        assert_eq!(env.payload, payload);
    }

    #[test]
    fn empty_payload_allowed() {
        let env = parse(&wrap("k", 0, "")).expect("parse");
        assert_eq!(env.kind, "k");
        assert_eq!(env.steps, 0);
        assert_eq!(env.payload, "");
    }

    #[test]
    fn v1_text_parses_as_sofia_envelope() {
        // A minimal structurally-v1 text: only the header and trailer
        // matter to the envelope layer.
        let text = "sofia-checkpoint v1\nconfig 1 2 3 4 5 6\nsteps 17\n";
        let env = parse(text).expect("parse");
        assert_eq!(env.kind, SOFIA_KIND);
        assert_eq!(env.steps, 17);
        assert_eq!(env.payload, text, "v1 payload is the whole file");
    }

    #[test]
    fn malformed_envelopes_rejected() {
        assert!(matches!(
            parse("garbage\n"),
            Err(CheckpointError::BadHeader)
        ));
        assert!(matches!(parse(""), Err(CheckpointError::BadHeader)));
        assert!(parse("sofia-checkpoint v2\nnot-model\nsteps 0\n").is_err());
        assert!(parse("sofia-checkpoint v2\nmodel x\nsteps nope\n").is_err());
        assert!(parse("sofia-checkpoint v2\nmodel \nsteps 1\n").is_err());
        // v1 without its steps trailer cannot express the counter.
        assert!(parse("sofia-checkpoint v1\nconfig 1\n").is_err());
    }

    #[test]
    #[should_panic(expected = "kind tag")]
    fn wrap_rejects_unprintable_kind() {
        wrap("two words", 0, "");
    }

    #[test]
    fn wire_roundtrips_special_floats() {
        let values = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1.5e-300];
        let mut line = String::new();
        wire::push_f64s(&mut line, "v", values.iter().copied());
        let back = wire::parse_f64s(line.trim_end(), "v").expect("parse");
        for (a, b) in values.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    mod codec {
        //! The table-driven codec against the `fmt` encoder it replaced,
        //! which survives here as the oracle.
        use super::*;
        use proptest::prelude::*;

        /// All ones, a signalling NaN, −0.0, the smallest subnormal, ±∞.
        const PINNED: [u64; 6] = [
            u64::MAX,
            0x7ff0_0000_0000_0001,
            0x8000_0000_0000_0000,
            1,
            0x7ff0_0000_0000_0000,
            0xfff0_0000_0000_0000,
        ];

        /// Encodes `bits` through the codec and asserts the bytes equal
        /// the `fmt` encoder's, then decodes them back to equal bits.
        fn assert_byte_identical(bits: &[u64]) {
            let mut line = String::new();
            wire::push_f64s(&mut line, "v", bits.iter().map(|&b| f64::from_bits(b)));
            let oracle: String = bits.iter().map(|b| format!(" {b:016x}")).collect();
            assert_eq!(line, format!("v{oracle}\n"));
            let back = wire::parse_f64s(line.strip_suffix('\n').expect("newline"), "v");
            let back: Vec<u64> = back.expect("parse").iter().map(|v| v.to_bits()).collect();
            assert_eq!(back, bits);
            for &b in bits {
                let mut token = String::new();
                wire::push_f64(&mut token, f64::from_bits(b));
                assert_eq!(token, format!("{b:016x}"));
                assert_eq!(wire::parse_f64(&token).map(f64::to_bits), Some(b));
            }
        }

        #[test]
        fn pinned_patterns_match_the_fmt_encoder() {
            assert_byte_identical(&PINNED);
            assert_byte_identical(&[]);
            // Several stack chunks' worth, ending mid-chunk.
            let long: Vec<u64> = (0..200u64)
                .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .collect();
            assert_byte_identical(&long);
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn random_patterns_match_the_fmt_encoder(
                bits in prop::collection::vec(0u64..u64::MAX, 0..64)
            ) {
                let all: Vec<u64> = bits.iter().copied().chain(PINNED).collect();
                assert_byte_identical(&all);
            }
        }

        /// One case per input form `u64::from_str_radix` over
        /// `split_whitespace` accepted and no writer emits.
        #[test]
        fn decoder_rejects_every_non_canonical_form() {
            for line in [
                "v +3ff0000000000000",
                "v 3FF0000000000000",
                "v 3ff000000000000",
                "v 03ff0000000000000",
                "v 3ff0000000000000  3ff0000000000000",
                "v 3ff0000000000000\t3ff0000000000000",
                "v\t3ff0000000000000",
                "v 3ff0000000000000 ",
                "v ",
                "v3ff0000000000000",
            ] {
                assert!(
                    matches!(
                        wire::parse_f64s(line, "v"),
                        Err(CheckpointError::Malformed(_))
                    ),
                    "{line:?}"
                );
            }
            for token in [
                "+3ff000000000000",
                "3FF0000000000000",
                "3ff000000000000",
                "03ff0000000000000",
                " 3ff000000000000",
                "3ff000000000000 ",
                "",
            ] {
                assert_eq!(wire::parse_f64(token), None, "{token:?}");
            }
        }
    }
}
