//! Parser round-trip property: for EVERY source file in the workspace,
//! the item tree's spans must slice the original source back together
//! byte-identically (siblings ordered and disjoint, children nested,
//! gaps preserved). A dependency-free xorshift fuzzer then drives the
//! same property over adversarial pseudo-random inputs — the parser's
//! contract is that it never fails, never panics, and never loses bytes,
//! no matter how mangled the input.

use std::path::Path;
use vaem_lint::{lexer, parse};

fn roundtrip(name: &str, source: &str) {
    let lexed = lexer::lex(source);
    let items = parse::parse(&lexed.toks);
    if let Err(e) = parse::check_roundtrip(source, &items) {
        panic!("span round-trip failed for {name}: {e}");
    }
}

#[test]
fn every_workspace_file_round_trips() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = vaem_lint::collect_files(&root).expect("collect workspace files");
    assert!(
        files.len() > 50,
        "workspace walk looks wrong: only {} files",
        files.len()
    );
    for rel in &files {
        let source = std::fs::read_to_string(root.join(rel)).expect("read source");
        roundtrip(rel, &source);
    }
}

#[test]
fn fixtures_round_trip_too() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("fixture dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "rs") {
            let source = std::fs::read_to_string(&path).expect("read fixture");
            roundtrip(&path.display().to_string(), &source);
            seen += 1;
        }
    }
    assert!(seen >= 10, "expected the seeded fixtures, saw {seen}");
}

#[test]
fn closure_return_type_in_body_is_not_the_fn_return_type() {
    let source = include_str!("fixtures/closure_return_type.rs");
    let lexed = lexer::lex(source);
    let items = parse::parse(&lexed.toks);
    let f = items
        .iter()
        .find(|item| item.kind == parse::ItemKind::Fn && item.name == "f")
        .expect("the fixture's fn parses");
    assert!(f.body.is_some());
    assert!(!f.returns_result);
    roundtrip("closure_return_type.rs", source);
}

/// Deterministic xorshift64* stream — the property-test shim (the
/// workspace is offline, so no proptest crate; the generator is seeded
/// and fully reproducible).
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

#[test]
fn random_token_soup_never_breaks_the_span_contract() {
    // Fragments chosen to hit every parser path: item keywords, orphan
    // closers, unterminated strings, attribute/visibility prefixes,
    // lifetimes vs char literals, nested groups and raw idents.
    const FRAGMENTS: &[&str] = &[
        "fn ",
        "impl ",
        "mod ",
        "use ",
        "pub ",
        "pub(crate) ",
        "#[inline] ",
        "#![allow(x)] ",
        "{",
        "}",
        "(",
        ")",
        "[",
        "]",
        "<",
        ">",
        "->",
        "=>",
        "::",
        ";",
        ",",
        "where ",
        "for ",
        "const ",
        "unsafe ",
        "extern \"C\" ",
        "async ",
        "trait ",
        "struct ",
        "a",
        "Result<T, E>",
        "'a",
        "'x'",
        "\"str\"",
        "r#\"raw\"#",
        "// line\n",
        "/* block */",
        "b'\\n'",
        "1.5e-3",
        "0xfe",
        "let _ = f();",
        ".ok();",
        "Err(_) => {}",
        "|x| x + 1",
        "r#fn",
        "\u{1F980}",
        "\\",
        "\"unterminated",
    ];
    let mut rng = XorShift(0x5eed_cafe_d00d_f00d);
    for case in 0..500 {
        let len = (rng.next() % 40) as usize;
        let mut src = String::new();
        for _ in 0..len {
            src.push_str(FRAGMENTS[(rng.next() as usize) % FRAGMENTS.len()]);
        }
        roundtrip(&format!("random case {case}"), &src);
    }
}
