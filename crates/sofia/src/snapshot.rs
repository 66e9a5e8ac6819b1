//! The text dialect that a SOFIA checkpoint, a fleet protocol reply, a
//! sketch block and a `sofia-net` frame share: its [`wire`] codec.
//!
//! A SOFIA model on disk, in a `register` frame and in a `snapshot`
//! reply is one text, the one [`crate::checkpoint::save`] writes and
//! [`crate::checkpoint::load`] reads; the serving layer adds nothing
//! around it (its applied-steps counter is the text's own `steps <n>`
//! trailer).

/// The workspace's one codec for the line-oriented text dialect: every
/// float, integer and line of a checkpoint, a fleet protocol reply, a
/// sketch block or a `sofia-net` frame is read back through these
/// functions.
///
/// A float travels as its IEEE 754 bit pattern in exactly 16 lowercase
/// hex digits, so round-trips are bit-exact. A float line is `label`,
/// then one 17-byte token per value: one space, then the 16 digits.
/// Decoding is strict: anything else — a sign, an uppercase digit, a
/// short or long token, a tab, a second space, trailing whitespace — is
/// a [`WireError`](wire::WireError). Both directions go through
/// 256-entry tables, without `fmt`. An integer travels as plain decimal
/// in one spelling ([`parse_int`](wire::parse_int)), and a reader takes
/// its lines through a [`LineCursor`](wire::LineCursor), which refuses
/// a missing line and, at the end, a line too many.
pub mod wire {
    /// A malformed payload: what the parser expected and what it found.
    /// Deliberately a plain diagnostic — transport code maps it onto its
    /// own error type.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct WireError {
        /// Parser diagnostic.
        pub reason: String,
    }

    impl WireError {
        /// A wire error with the given diagnostic (public so transport
        /// crates report their own parse failures through the same
        /// type).
        pub fn new(reason: impl Into<String>) -> Self {
            WireError {
                reason: reason.into(),
            }
        }
    }

    impl std::fmt::Display for WireError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "malformed wire payload: {}", self.reason)
        }
    }

    impl std::error::Error for WireError {}

    /// Line-at-a-time reader over a text; every consumer states what it
    /// expects so truncation errors name the missing piece.
    #[derive(Debug, Clone)]
    pub struct LineCursor<'a> {
        lines: std::str::Lines<'a>,
    }

    impl<'a> LineCursor<'a> {
        /// A cursor over `text`'s lines.
        pub fn new(text: &'a str) -> Self {
            LineCursor {
                lines: text.lines(),
            }
        }

        /// The next line, or a truncation error naming `what`.
        pub fn next(&mut self, what: &str) -> Result<&'a str, WireError> {
            self.lines
                .next()
                .ok_or_else(|| WireError::new(format!("truncated: expected {what}")))
        }

        /// The next line as `key value…`: the rest of the line after
        /// `key ` (or empty when the line is exactly `key`).
        pub fn field(&mut self, key: &str) -> Result<&'a str, WireError> {
            let line = self.next(key)?;
            if line == key {
                return Ok("");
            }
            line.strip_prefix(key)
                .and_then(|r| r.strip_prefix(' '))
                .ok_or_else(|| WireError::new(format!("expected `{key}`, got `{line}`")))
        }

        /// Rejects trailing content after a complete parse.
        pub fn finish(mut self) -> Result<(), WireError> {
            match self.lines.next() {
                Some(extra) => Err(WireError::new(format!("trailing line `{extra}`"))),
                None => Ok(()),
            }
        }
    }

    /// Parses an integer of the dialect — a count, offset, dimension,
    /// counter or request field — in its one canonical spelling: decimal
    /// digits, no sign, no leading zero. `what` names it in the error.
    pub fn parse_int<T: std::str::FromStr>(tok: &str, what: &str) -> Result<T, WireError> {
        let bad = || WireError::new(format!("bad {what} `{tok}`"));
        let canonical = !tok.is_empty()
            && tok.bytes().all(|b| b.is_ascii_digit())
            && (tok == "0" || !tok.starts_with('0'));
        if !canonical {
            return Err(bad());
        }
        tok.parse().map_err(|_| bad())
    }

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
    pub fn parse_f64s(line: &str, label: &str) -> Result<Vec<f64>, WireError> {
        let rest = line
            .strip_prefix(label)
            .ok_or_else(|| WireError::new(format!("expected `{label}`")))?;
        let bad = || WireError::new(format!("bad float in `{label}`"));
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
}

#[cfg(test)]
mod tests {
    use super::*;

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
                assert!(wire::parse_f64s(line, "v").is_err(), "{line:?}");
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
