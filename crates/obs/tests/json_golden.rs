//! Golden tests for the JSON string codec: byte-exact writer output,
//! exact parse error offsets and messages, and a seeded round-trip
//! property over strings dense in the bytes that need escaping. The
//! expected values are literals, not derived from the code under test,
//! so a change to the writer or the parser that alters a single byte
//! or offset fails here.

use obs::json::{parse, Json, ParseError};

/// Every code point 0x00–0x7F in one string, as the writer emits it.
const ASCII_GOLDEN: &str = concat!(
    r#""\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007\b\t\n\u000b\f\r\u000e\u000f"#,
    r#"\u0010\u0011\u0012\u0013\u0014\u0015\u0016\u0017\u0018\u0019\u001a\u001b\u001c\u001d\u001e\u001f"#,
    r##" !\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_`abcdefghijklmnopqrstuvwxyz{|}~"##,
    "\u{7f}\""
);

#[test]
fn every_ascii_code_point_is_written_exactly() {
    let ascii: String = (0u8..0x80).map(char::from).collect();
    assert_eq!(Json::from(ascii.as_str()).to_compact_string(), ASCII_GOLDEN);
    assert_eq!(parse(ASCII_GOLDEN), Ok(Json::from(ascii)));
}

#[test]
fn each_ascii_code_point_alone_is_written_exactly() {
    let short = |b: u8| match b {
        0x08 => Some("\\b"),
        0x09 => Some("\\t"),
        0x0A => Some("\\n"),
        0x0C => Some("\\f"),
        0x0D => Some("\\r"),
        b'"' => Some("\\\""),
        b'\\' => Some("\\\\"),
        _ => None,
    };
    for b in 0u8..0x80 {
        let expected = match short(b) {
            Some(esc) => format!("\"{esc}\""),
            None if b < 0x20 => format!("\"\\u{:04x}\"", b),
            None => format!("\"{}\"", b as char),
        };
        let text = (b as char).to_string();
        assert_eq!(
            Json::from(text.as_str()).to_compact_string(),
            expected,
            "byte 0x{b:02x}"
        );
        // and embedded between clean runs on both sides
        let padded = format!("ab{text}cd");
        assert_eq!(
            Json::from(padded.as_str()).to_compact_string(),
            format!("\"ab{}cd\"", &expected[1..expected.len() - 1]),
            "byte 0x{b:02x} mid-run"
        );
    }
}

#[test]
fn multi_byte_and_astral_scalars_pass_through_raw() {
    let text = "p\u{e4}iv\u{e4} \u{7ff}\u{800}\u{20ac}\u{2028}\u{2029}\u{fffd}\u{ffff} \u{10000}\u{1d11e}\u{1f600}\u{10ffff}";
    let written = Json::from(text).to_compact_string();
    assert_eq!(written, format!("\"{text}\""));
    assert_eq!(written.len(), text.len() + 2);
    assert_eq!(parse(&written), Ok(Json::from(text)));
    // escapes next to multi-byte scalars
    assert_eq!(
        Json::from("\u{e4}\"\u{1f600}\n\u{20ac}\\").to_compact_string(),
        "\"\u{e4}\\\"\u{1f600}\\n\u{20ac}\\\\\""
    );
    // \u escapes decode to the same scalars, surrogate pairs included
    assert_eq!(
        parse(r#""\u00e4\u07FF\u0800\u20AC\ud834\udd1e\uDBFF\uDFFF\u0000""#),
        Ok(Json::from(
            "\u{e4}\u{7ff}\u{800}\u{20ac}\u{1d11e}\u{10ffff}\u{0}"
        ))
    );
}

#[test]
fn empty_and_escape_only_strings() {
    assert_eq!(Json::from("").to_compact_string(), r#""""#);
    assert_eq!(Json::from("\"\"\\").to_compact_string(), r#""\"\"\\""#);
    assert_eq!(parse(r#""""#), Ok(Json::from("")));
    assert_eq!(
        parse(r#""\/\b\f\n\r\t\"\\""#),
        Ok(Json::from("/\u{8}\u{c}\n\r\t\"\\"))
    );
}

#[test]
fn ints_and_floats_are_written_exactly() {
    let cases: [(Json, &str); 16] = [
        (Json::Int(0), "0"),
        (Json::Int(-1), "-1"),
        (Json::Int(i64::MAX), "9223372036854775807"),
        (Json::Int(i64::MIN), "-9223372036854775808"),
        (Json::from(u64::MAX), "18446744073709552000"),
        (Json::Float(0.0), "0.0"),
        (Json::Float(-0.0), "-0.0"),
        (Json::Float(1.0), "1.0"),
        (Json::Float(-2.5), "-2.5"),
        (Json::Float(0.1), "0.1"),
        (Json::Float(1e15), "1000000000000000"),
        (Json::Float(1e16), "10000000000000000"),
        (Json::Float(1e-7), "0.0000001"),
        (Json::Float(123_456.789), "123456.789"),
        (Json::Float(f64::NAN), "null"),
        (Json::Float(f64::NEG_INFINITY), "null"),
    ];
    for (value, expected) in cases {
        assert_eq!(value.to_compact_string(), expected, "{value:?}");
    }
}

#[test]
fn nested_pretty_output_is_exact() {
    let doc = Json::object_from([
        ("name", Json::from("a\tb")),
        ("empty_list", Json::Array(vec![])),
        ("empty_obj", Json::object()),
        (
            "list",
            Json::array([
                Json::Int(1),
                Json::Float(2.5),
                Json::Null,
                Json::array([Json::Bool(true), Json::Bool(false)]),
            ]),
        ),
        (
            "nested",
            Json::object_from([(
                "k\"ey",
                Json::object_from([("deep", Json::from("\u{1f600}"))]),
            )]),
        ),
    ]);
    let expected = concat!(
        "{\n",
        "  \"name\": \"a\\tb\",\n",
        "  \"empty_list\": [],\n",
        "  \"empty_obj\": {},\n",
        "  \"list\": [\n",
        "    1,\n",
        "    2.5,\n",
        "    null,\n",
        "    [\n",
        "      true,\n",
        "      false\n",
        "    ]\n",
        "  ],\n",
        "  \"nested\": {\n",
        "    \"k\\\"ey\": {\n",
        "      \"deep\": \"\u{1f600}\"\n",
        "    }\n",
        "  }\n",
        "}\n",
    );
    assert_eq!(doc.to_pretty_string(), expected);
    assert_eq!(
        doc.to_compact_string(),
        concat!(
            r#"{"name":"a\tb","empty_list":[],"empty_obj":{},"list":[1,2.5,null,[true,false]],"#,
            "\"nested\":{\"k\\\"ey\":{\"deep\":\"\u{1f600}\"}}}"
        )
    );
    assert_eq!(parse(expected), Ok(doc));
}

fn err(offset: usize, message: &str) -> ParseError {
    ParseError {
        offset,
        message: message.to_string(),
    }
}

#[test]
fn malformed_documents_fail_at_exact_offsets() {
    let cases: [(&str, ParseError); 15] = [
        ("", err(0, "unexpected end of input")),
        ("{", err(1, "expected `\"`")),
        ("[1,", err(3, "unexpected end of input")),
        ("{\"a\":}", err(5, "unexpected byte 0x7d")),
        ("{'a':1}", err(1, "expected `\"`")),
        ("[1 2]", err(3, "expected `,` or `]`")),
        ("01", err(1, "trailing characters after document")),
        ("1.", err(2, "digit required after decimal point")),
        ("1e", err(2, "digit required in exponent")),
        ("\"\\x\"", err(3, "invalid escape `\\x`")),
        ("\"\\ud800\"", err(7, "lone high surrogate")),
        ("tru", err(0, "expected `true`")),
        ("nullx", err(4, "trailing characters after document")),
        ("[1]]", err(3, "trailing characters after document")),
        (
            "\"raw\u{01}control\"",
            err(4, "raw control character in string"),
        ),
    ];
    for (doc, expected) in cases {
        assert_eq!(parse(doc), Err(expected), "{doc:?}");
    }
}

/// 8000 bytes of clean string body: ASCII, a 2-byte and a 4-byte
/// scalar per repeat, so offsets are checked as byte offsets.
fn long_run() -> String {
    "ab\u{e4}\u{1f600}".repeat(1000)
}

#[test]
fn errors_after_a_long_clean_run_keep_their_offsets() {
    let run = long_run();
    assert_eq!(run.len(), 8000);
    // the document is `["` + run + tail; the run starts at byte 2
    let cases: [(&str, ParseError); 11] = [
        ("\u{01}\"]", err(8002, "raw control character in string")),
        ("\n\"]", err(8002, "raw control character in string")),
        ("\u{1f}\"]", err(8002, "raw control character in string")),
        ("\\x\"]", err(8004, "invalid escape `\\x`")),
        ("\\u12\"]", err(8006, "non-hex digit in \\u escape")),
        ("\\u12", err(8006, "truncated \\u escape")),
        ("\\ud800\"]", err(8008, "lone high surrogate")),
        ("\\ud800x\"]", err(8008, "lone high surrogate")),
        ("\\udc00\"]", err(8008, "lone low surrogate")),
        ("\\ud800\\u0041\"]", err(8014, "invalid low surrogate")),
        ("", err(8002, "unterminated string")),
    ];
    for (tail, expected) in cases {
        let doc = format!("[\"{run}{tail}");
        assert_eq!(parse(&doc), Err(expected), "tail {tail:?}");
    }
    // a dangling backslash at end of input
    assert_eq!(
        parse(&format!("\"{run}\\")),
        Err(err(8002, "unterminated escape"))
    );
    // DEL is not a control character in JSON
    let doc = format!("[\"{run}\u{7f}\"]");
    assert_eq!(
        parse(&doc),
        Ok(Json::array([Json::from(format!("{run}\u{7f}"))]))
    );
}

/// xorshift64*: a fixed-seed generator, so the property is reproducible.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random string drawn mostly from the characters the codec treats
/// specially, with clean runs and multi-byte scalars in between.
fn special_rich_string(rng: &mut Rng) -> String {
    const SPECIAL: [char; 12] = [
        '"', '\\', '\n', '\r', '\t', '\u{8}', '\u{c}', '\u{0}', '\u{1f}', '/', '\u{7f}', 'u',
    ];
    const WIDE: [char; 6] = [
        '\u{e4}',
        '\u{7ff}',
        '\u{800}',
        '\u{2028}',
        '\u{ffff}',
        '\u{1f600}',
    ];
    let len = rng.below(64) as usize;
    let mut s = String::new();
    for _ in 0..len {
        match rng.below(10) {
            0..=4 => s.push(SPECIAL[rng.below(SPECIAL.len() as u64) as usize]),
            5 => s.push(WIDE[rng.below(WIDE.len() as u64) as usize]),
            6 => s.push(char::from(rng.below(0x20) as u8)),
            7 => {
                let run = rng.below(40) as usize;
                s.extend((0..run).map(|i| char::from(b'a' + (i % 26) as u8)));
            }
            _ => {
                let c = char::from_u32(rng.below(0x11_0000) as u32).unwrap_or('\u{fffd}');
                s.push(c);
            }
        }
    }
    s
}

#[test]
fn seeded_strings_rich_in_escapes_roundtrip() {
    let mut rng = Rng(0x5eed_c0de_cafe_f00d);
    for _ in 0..4000 {
        let s = special_rich_string(&mut rng);
        let written = Json::from(s.as_str()).to_compact_string();
        assert!(
            !written.bytes().any(|b| b < 0x20),
            "raw control byte in {written:?}"
        );
        assert_eq!(parse(&written), Ok(Json::Str(s.clone())), "{s:?}");
        // as an object key inside a nested document too
        let doc = Json::object_from([(s.clone(), Json::array([Json::from(s.as_str())]))]);
        assert_eq!(parse(&doc.to_compact_string()), Ok(doc.clone()));
        assert_eq!(parse(&doc.to_pretty_string()), Ok(doc));
    }
}
