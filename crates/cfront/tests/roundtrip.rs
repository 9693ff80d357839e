//! Randomized tests for the frontend: token spell/relex round-trips and
//! preprocessor robustness over generated inputs.
//!
//! Inputs come from a fixed-seed SplitMix64 stream, so every run checks the
//! same corpus and failures reproduce exactly.

use cla_cfront::lexer::lex;
use cla_cfront::pp::{self, spell, MemoryFs, PpOptions};
use cla_cfront::span::FileId;
use cla_cfront::token::{TokenKind, TokenStream};

fn spell_all(ts: &TokenStream) -> Vec<String> {
    ts.iter().map(|t| spell(t, ts.interner())).collect()
}

/// Minimal deterministic RNG (SplitMix64) — kept local because cla-cfront
/// sits below cla-workload in the dependency order.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A string of `len` characters drawn from `charset`.
    fn string_from(&mut self, charset: &[u8], len: usize) -> String {
        (0..len)
            .map(|_| charset[self.below(charset.len())] as char)
            .collect()
    }
}

/// One token that spells unambiguously when separated by spaces.
fn token_text(rng: &mut Rng) -> String {
    const FIXED: &[&str] = &[
        "(",
        ")",
        "{",
        "}",
        ";",
        ",",
        "->",
        "<<=",
        "...",
        "&&",
        "==",
        "*",
        "\"str lit\"",
        "'c'",
    ];
    match rng.below(FIXED.len() + 2) {
        0 => {
            // Identifier: [a-zA-Z_][a-zA-Z0-9_]{0,8}
            const HEAD: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_";
            const TAIL: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_";
            let mut s = String::new();
            s.push(HEAD[rng.below(HEAD.len())] as char);
            let extra = rng.below(9);
            s.push_str(&rng.string_from(TAIL, extra));
            s
        }
        1 => (rng.next_u64() % 1_000_000).to_string(),
        k => FIXED[k - 2].to_string(),
    }
}

/// Lexing space-separated tokens, spelling them back, and relexing yields
/// the same token kinds.
#[test]
fn lex_spell_relex() {
    let mut rng = Rng(0xf00d_0001);
    for _case in 0..256 {
        let n = rng.below(40);
        let tokens: Vec<String> = (0..n).map(|_| token_text(&mut rng)).collect();
        let src = tokens.join(" ");
        let first = lex(&src, FileId(0)).unwrap();
        let spelled = spell_all(&first).join(" ");
        let second = lex(&spelled, FileId(0)).unwrap();
        // Symbols belong to their stream's interner; spellings compare across.
        assert_eq!(spell_all(&first), spell_all(&second), "spelled: {spelled}");
        let shapes = |ts: &TokenStream| -> Vec<std::mem::Discriminant<TokenKind>> {
            ts.iter().map(|t| std::mem::discriminant(&t.kind)).collect()
        };
        assert_eq!(shapes(&first), shapes(&second), "spelled: {spelled}");
    }
}

/// The lexer never panics on arbitrary ASCII input (it may error).
#[test]
fn lexer_total_on_ascii() {
    let printable: Vec<u8> = (b' '..=b'~').chain([b'\n', b'\t']).collect();
    let mut rng = Rng(0xf00d_0002);
    for _case in 0..256 {
        let len = rng.below(201);
        let src = rng.string_from(&printable, len);
        let _ = lex(&src, FileId(0));
    }
}

/// The preprocessor never panics on arbitrary directive-shaped input.
#[test]
fn preprocessor_total() {
    const CHARSET: &[u8] =
        b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_ #\n(),";
    let mut rng = Rng(0xf00d_0003);
    for _case in 0..256 {
        let len = rng.below(201);
        let body = rng.string_from(CHARSET, len);
        let mut fs = MemoryFs::new();
        fs.add("f.c", body);
        let _ = pp::preprocess(&fs, "f.c", &PpOptions::default());
    }
}

/// Object-like macro definitions + uses always terminate and produce
/// relexable output.
#[test]
fn macros_terminate() {
    const BODY_CHARSET: &[u8] =
        b"abcdefghijklmnopqrstuvwxyz0123456789+ ()ABCDEFGHIJKLMNOPQRSTUVWXYZ";
    let mut rng = Rng(0xf00d_0004);
    for _case in 0..256 {
        let nbodies = 1 + rng.below(4);
        let bodies: Vec<String> = (0..nbodies)
            .map(|_| {
                let len = rng.below(17);
                rng.string_from(BODY_CHARSET, len)
            })
            .collect();
        let nuses = rng.below(10);
        let mut src = String::new();
        for (i, b) in bodies.iter().enumerate() {
            src.push_str(&format!("#define M{i} {b}\n"));
        }
        src.push_str("int sink[] = {");
        for _ in 0..nuses {
            src.push_str(&format!(" M{} ,", rng.below(5) % bodies.len()));
        }
        src.push_str(" 0 };\n");
        let mut fs = MemoryFs::new();
        fs.add("m.c", src);
        let _ = pp::preprocess(&fs, "m.c", &PpOptions::default());
    }
}

/// Deterministic regression corpus for odd-but-valid inputs.
#[test]
fn regression_corpus() {
    for src in [
        "a//\nb",
        "a/**/b",
        "x\\\ny",
        "0x1fULL_not_a_suffix", // pp-number that fails to classify -> error ok
        "1.e5",
        ".5f",
        "'\\377'",
        "\"\\x41\\n\"",
        "a+++b", // lexes as a ++ + b
        "a---b",
        "x<<<<y",
    ] {
        let _ = lex(src, FileId(0));
    }
    // Greedy punctuation: a+++b == a ++ + b.
    let ts = lex("a+++b", FileId(0)).unwrap();
    assert_eq!(spell_all(&ts), vec!["a", "++", "+", "b"]);
}
