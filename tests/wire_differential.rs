//! Differential tests of the wire's fast paths against the code they
//! replaced, kept here as test-only oracles:
//!
//! * the slice writer (`serde_json::write_f64_array`) and the tree writer
//!   must both produce, byte for byte, what the previous float rule produced
//!   (`{x:.1}` for integral floats below 1e15, `{x}` otherwise, `null` for
//!   non-finite values), and scanning the text back must return the input
//!   bits;
//! * `parse_request`, which now reads the n-length arrays straight into
//!   vectors on one walk over the line, must return the same `Request` or
//!   the same `(id, code, message)` as the previous composition — parse the
//!   whole line into a `Value`, then look each field up.

use serde::Value;
use sts_k::core::PrecisionPolicy;
use sts_k::serve::protocol::{
    float_array, parse_request, render, usize_array, ErrorCode, Request, RequestError, SolveMode,
    PROTOCOL_VERSION,
};

/// The float arm of the previous `write_value`.
fn previous_float_text(x: f64) -> String {
    if x.is_finite() {
        if x.fract() == 0.0 && x.abs() < 1e15 {
            format!("{x:.1}")
        } else {
            format!("{x}")
        }
    } else {
        "null".to_string()
    }
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn float_corpus() -> Vec<f64> {
    let mut xs = vec![
        0.0,
        -0.0,
        5e-324,
        -5e-324,
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 2.0,
        2.225073858507201e-308,
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        999_999_999_999_999.0,
        -999_999_999_999_999.0,
        999_999_999_999_999.9,
        1e15,
        -1e15,
        1e15 + 2.0,
        1_000_000_000_000_001.0,
        9_007_199_254_740_992.0,
        9_007_199_254_740_993.0,
        1.0,
        -1.0,
        4.0,
        123_456.0,
        0.1,
        0.5,
        1.0000000000000002,
        1.0 / 3.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    for exp in -320..=308 {
        let p: f64 = format!("1e{exp}").parse().expect("a power of ten");
        xs.extend([p, -p]);
    }
    // Every power of two, and the value just below each: the bounds of
    // every binade, where the gap below a value is half the gap above.
    for exp in -1074i64..=1023 {
        let bits = if exp < -1022 {
            1u64 << (exp + 1074)
        } else {
            ((exp + 1023) as u64) << 52
        };
        let (p, below) = (f64::from_bits(bits), f64::from_bits(bits - 1));
        xs.extend([p, -p, below, -below]);
    }
    // Both sides of the subnormal/normal boundary and the ends of the
    // subnormal range.
    for bits in [1u64, 2, 3, 0x000F_FFFF_FFFF_FFFE, 0x000F_FFFF_FFFF_FFFF] {
        xs.extend([f64::from_bits(bits), -f64::from_bits(bits)]);
    }
    for step in 0..4 {
        let bits = f64::MIN_POSITIVE.to_bits() + step;
        xs.extend([f64::from_bits(bits), -f64::from_bits(bits)]);
    }
    xs.push(f64::from_bits(f64::MAX.to_bits() - 1));
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    // Exact ties: between 2^50 and 2^51 the spacing is 0.25, so k + 0.25
    // and k + 0.75 lie exactly halfway between two 17-digit candidates
    // (no 16-digit one is close enough); the one larger in magnitude is
    // the text, as in 1658206780088562.25 -> 1658206780088562.3.
    let tie = 1_658_206_780_088_562.0 + 0.25;
    xs.extend([tie, -tie]);
    for _ in 0..2_000 {
        let k = ((1u64 << 50) + xorshift(&mut state) % (1u64 << 50)) as f64;
        xs.extend([k + 0.25, k + 0.75, -(k + 0.25), -(k + 0.75)]);
    }
    for _ in 0..100_000 {
        xs.push(f64::from_bits(xorshift(&mut state)));
    }
    // Solution-like values: full-precision doubles in [-0.5, 1.5].
    for _ in 0..20_000 {
        let unit = (xorshift(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
        xs.push(2.0 * unit - 0.5);
    }
    // Integral values of every magnitude below and around 1e15.
    for _ in 0..2_000 {
        let r = xorshift(&mut state);
        let magnitude = ((r % 2_000_000_000_000_000) >> (r % 51)) as f64;
        xs.extend([magnitude, -magnitude]);
    }
    xs
}

/// The byte-identity check on 10^8 random bit patterns, chunk by chunk.
/// Minutes in a debug build; run it in release:
/// `cargo test --release --test wire_differential -- --ignored`.
#[test]
#[ignore]
fn float_text_matches_the_previous_writer_on_a_hundred_million_random_bit_patterns() {
    const CHUNK: usize = 100_000;
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let (mut text, mut expected) = (String::new(), String::new());
    for _ in 0..1_000 {
        let xs: Vec<f64> = (0..CHUNK)
            .map(|_| f64::from_bits(xorshift(&mut state)))
            .collect();
        text.clear();
        serde_json::write_f64_array(&xs, &mut text);
        expected.clear();
        expected.push('[');
        for (i, &x) in xs.iter().enumerate() {
            if i > 0 {
                expected.push(',');
            }
            expected.push_str(&previous_float_text(x));
        }
        expected.push(']');
        if text != expected {
            let first = xs
                .iter()
                .find(|&&x| {
                    let mut one = String::new();
                    serde_json::write_f64_array(&[x], &mut one);
                    one != format!("[{}]", previous_float_text(x))
                })
                .expect("a differing value");
            panic!(
                "{first:e} (bits {:#018x}) drifted from the previous float rule",
                first.to_bits()
            );
        }
    }
}

#[test]
fn float_text_is_byte_identical_to_the_previous_writer_and_reads_back_bitwise() {
    let xs = float_corpus();
    let expected = format!(
        "[{}]",
        xs.iter()
            .map(|&x| previous_float_text(x))
            .collect::<Vec<_>>()
            .join(",")
    );

    let mut from_slice = String::new();
    serde_json::write_f64_array(&xs, &mut from_slice);
    assert!(
        from_slice == expected,
        "the slice writer drifted from the previous float rule"
    );
    assert!(
        render(&float_array(&xs)) == expected,
        "the tree writer drifted from the previous float rule"
    );

    // Both readers return the input bits; a non-finite value went out as
    // `null`, which is not a number on the way back.
    let finite: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    let mut text = String::new();
    serde_json::write_f64_array(&finite, &mut text);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut parser = serde_json::Parser::new(&text);
    let scanned = parser
        .f64_array()
        .expect("the writer's output parses")
        .expect("an array of numbers");
    parser.end().expect("nothing follows the array");
    assert_eq!(bits(&scanned), bits(&finite));
    let tree = serde_json::from_str(&text).expect("the writer's output parses");
    let lifted: Vec<f64> = tree
        .as_array()
        .expect("an array")
        .iter()
        .map(|v| v.as_f64().expect("a number"))
        .collect();
    assert_eq!(bits(&lifted), bits(&finite));

    let mut parser = serde_json::Parser::new(&from_slice);
    assert!(
        parser.f64_array().expect("well-formed").is_none(),
        "an array holding null is not an array of numbers"
    );
}

#[test]
fn index_text_is_byte_identical_and_reads_back() {
    let xs = [0usize, 1, 9, 10, 4_294_967_295, 4_294_967_296, usize::MAX];
    let mut text = String::new();
    serde_json::write_usize_array(&xs, &mut text);
    assert_eq!(text, render(&usize_array(&xs)));
    assert_eq!(
        text,
        format!(
            "[{}]",
            xs.iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join(",")
        )
    );
    let mut parser = serde_json::Parser::new(&text);
    assert_eq!(parser.usize_array().unwrap().unwrap(), xs);
    for not_indices in [
        "[1,2.0]",
        "[1,-2]",
        "[1,\"2\"]",
        "[[1]]",
        "7",
        "[1,18446744073709551616]",
    ] {
        let mut parser = serde_json::Parser::new(not_indices);
        assert!(
            parser.usize_array().expect("well-formed").is_none(),
            "{not_indices}"
        );
        parser.end().expect("the whole value was read");
    }
}

// ----- the previous parse_request, verbatim, as the oracle -----------------

fn missing(id: u64, field: &str) -> RequestError {
    RequestError {
        id,
        code: ErrorCode::MissingField,
        message: format!("missing or mistyped field '{field}'"),
    }
}

fn get_usize(v: &Value, id: u64, field: &str) -> Result<usize, RequestError> {
    v.get(field)
        .and_then(Value::as_usize)
        .ok_or_else(|| missing(id, field))
}

fn get_str(v: &Value, id: u64, field: &str) -> Result<String, RequestError> {
    v.get(field)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| missing(id, field))
}

fn get_usize_array(v: &Value, id: u64, field: &str) -> Result<Vec<usize>, RequestError> {
    let items = v
        .get(field)
        .and_then(Value::as_array)
        .ok_or_else(|| missing(id, field))?;
    items
        .iter()
        .map(|x| x.as_usize())
        .collect::<Option<Vec<usize>>>()
        .ok_or_else(|| missing(id, field))
}

fn get_float_array(v: &Value, id: u64, field: &str) -> Result<Vec<f64>, RequestError> {
    let items = v
        .get(field)
        .and_then(Value::as_array)
        .ok_or_else(|| missing(id, field))?;
    items
        .iter()
        .map(|x| x.as_f64())
        .collect::<Option<Vec<f64>>>()
        .ok_or_else(|| missing(id, field))
}

fn get_precision(v: &Value, id: u64) -> Result<Option<PrecisionPolicy>, RequestError> {
    match v.get("precision") {
        None => Ok(None),
        Some(x) => match x.as_str() {
            Some("f64") => Ok(Some(PrecisionPolicy::ValuesF64)),
            Some("f32") => Ok(Some(PrecisionPolicy::ValuesF32WithRefinement)),
            Some(other) => Err(RequestError {
                id,
                code: ErrorCode::BadRequest,
                message: format!("unknown precision '{other}' (expected 'f64' or 'f32')"),
            }),
            None => Err(missing(id, "precision")),
        },
    }
}

fn previous_parse_request(line: &str) -> Result<(u64, Request), RequestError> {
    let v = serde_json::from_str(line).map_err(|e| RequestError {
        id: 0,
        code: ErrorCode::ParseError,
        message: format!("request is not valid JSON: {e}"),
    })?;
    let id = v.get("id").and_then(Value::as_u64).unwrap_or(0);
    match v.get("v").and_then(Value::as_u64) {
        Some(PROTOCOL_VERSION) => {}
        Some(other) => {
            return Err(RequestError {
                id,
                code: ErrorCode::VersionMismatch,
                message: format!(
                    "protocol version {other} is not supported (this is v{PROTOCOL_VERSION})"
                ),
            });
        }
        None => return Err(missing(id, "v")),
    }
    let op = get_str(&v, id, "op")?;
    let request = match op.as_str() {
        "submit_pattern" => Request::SubmitPattern {
            n: get_usize(&v, id, "n")?,
            row_ptr: get_usize_array(&v, id, "row_ptr")?,
            col_idx: get_usize_array(&v, id, "col_idx")?,
            method: get_str(&v, id, "method")?,
            rows_per_super_row: get_usize(&v, id, "rows_per_super_row")?,
        },
        "submit_values" => Request::SubmitValues {
            pattern: get_str(&v, id, "pattern")?,
            values: get_float_array(&v, id, "values")?,
            precision: get_precision(&v, id)?.unwrap_or(PrecisionPolicy::ValuesF64),
        },
        "solve" => {
            let mode = match v.get("mode").and_then(Value::as_str) {
                None | Some("single") => SolveMode::Single,
                Some("batch") => SolveMode::Batch,
                Some("block") => SolveMode::Block,
                Some(other) => {
                    return Err(RequestError {
                        id,
                        code: ErrorCode::BadRequest,
                        message: format!("unknown solve mode '{other}'"),
                    });
                }
            };
            let nrhs = match v.get("nrhs") {
                None => 1,
                Some(x) => x.as_usize().ok_or_else(|| missing(id, "nrhs"))?,
            };
            let tolerance = match v.get("tolerance") {
                None => None,
                Some(x) => Some(x.as_f64().ok_or_else(|| missing(id, "tolerance"))?),
            };
            let max_iterations = match v.get("max_iterations") {
                None => None,
                Some(x) => Some(x.as_usize().ok_or_else(|| missing(id, "max_iterations"))?),
            };
            Request::Solve {
                pattern: get_str(&v, id, "pattern")?,
                b: get_float_array(&v, id, "b")?,
                mode,
                nrhs,
                tolerance,
                max_iterations,
                precision: get_precision(&v, id)?,
            }
        }
        "stats" => Request::Stats,
        "metrics" => Request::Metrics,
        "shutdown" => Request::Shutdown,
        other => {
            return Err(RequestError {
                id,
                code: ErrorCode::UnknownOp,
                message: format!("unknown op '{other}'"),
            });
        }
    };
    Ok((id, request))
}

// ----- the corpus ----------------------------------------------------------

/// Each op's request as (key, value text) members, with every optional
/// field present.
fn base_requests() -> Vec<Vec<(&'static str, &'static str)>> {
    let envelope = |op: &'static str| vec![("v", "1"), ("id", "7"), ("op", op)];
    let mut submit_pattern = envelope("\"submit_pattern\"");
    submit_pattern.extend([
        ("n", "2"),
        ("row_ptr", "[0,2,4]"),
        ("col_idx", "[0,1,0,1]"),
        ("method", "\"STS-3\""),
        ("rows_per_super_row", "8"),
    ]);
    let mut submit_values = envelope("\"submit_values\"");
    submit_values.extend([
        ("pattern", "\"3a01c88fcf03e808\""),
        ("values", "[4.0,-1.0,-1.0,4.0]"),
        ("precision", "\"f32\""),
    ]);
    let mut solve = envelope("\"solve\"");
    solve.extend([
        ("pattern", "\"3a01c88fcf03e808\""),
        ("b", "[3.0,-0.5,1e-7,2]"),
        ("mode", "\"batch\""),
        ("nrhs", "2"),
        ("tolerance", "1e-10"),
        ("max_iterations", "50"),
        ("precision", "\"f64\""),
    ]);
    vec![
        submit_pattern,
        submit_values,
        solve,
        envelope("\"stats\""),
        envelope("\"metrics\""),
        envelope("\"shutdown\""),
    ]
}

fn join(members: &[(&str, &str)], open: &str, colon: &str, comma: &str, close: &str) -> String {
    let body: Vec<String> = members
        .iter()
        .map(|(k, v)| format!("\"{k}\"{colon}{v}"))
        .collect();
    format!("{open}{}{close}", body.join(comma))
}

fn line(members: &[(&str, &str)]) -> String {
    join(members, "{", ":", ",", "}")
}

/// Values of the wrong type, the wrong range or the wrong shape for some
/// field, and values that are not JSON at all.
const REPLACEMENTS: &[&str] = &[
    "\"text\"",
    "\"\"",
    "\"single\"",
    "\"block\"",
    "\"triangular\"",
    "\"f16\"",
    "null",
    "true",
    "false",
    "0",
    "1",
    "2",
    "-1",
    "-0",
    "2.5",
    "1e3",
    "1e999",
    "-1e999",
    "18446744073709551615",
    "18446744073709551616",
    "-9223372036854775809",
    "+5",
    ".5",
    "5.",
    "{}",
    "{\"b\":[1.0]}",
    "[]",
    "[ ]",
    "[1]",
    "[1, 2 ,3]",
    "[1.5,2]",
    "[-1,2]",
    "[-0]",
    "[1e999]",
    "[1,\"2\"]",
    "[1,null]",
    "[1,true]",
    "[1,[2]]",
    "[1,{\"a\":2}]",
    "[[1.0,2.0]]",
    "[1,2",
    "[1,2,",
    "[1,,2]",
    "[1 2]",
    "[,1]",
    "[1,]",
    "[",
    "]",
    "[1.2.3]",
    "[--1]",
    "[1e]",
    "[0x10]",
    "[NaN]",
    "[Infinity]",
    "[1]]",
    "tru",
    "nul",
    "\"open",
    "\"bad\\escape\"",
    "\"\\u00e9\\n\\t\\\"\"",
    "\"caf\u{e9} \u{2603}\"",
    "\"\\ud800\"",
    "",
];

fn corpus() -> Vec<String> {
    let bases = base_requests();
    let mut lines: Vec<String> = Vec::new();
    for base in &bases {
        let whole = line(base);
        // Every truncation of the line, and garbage after it.
        for cut in 0..whole.len() {
            if whole.is_char_boundary(cut) {
                lines.push(whole[..cut].to_string());
            }
        }
        for tail in ["", " ", "\t\r\n", "}", " x", ",", "{}", "[]", "\"", "0"] {
            lines.push(format!("{whole}{tail}"));
        }
        // Whitespace between all tokens.
        lines.push(join(base, " { ", " : ", " , ", " } "));
        lines.push(join(base, "\t{\n", "\r:\n", "\n,\t", "\n}\r\n"));
        // Only the required members, and then each member dropped, swapped
        // for every replacement, doubled, or shadowed by a first duplicate.
        for i in 0..base.len() {
            let mut dropped = base.clone();
            dropped.remove(i);
            lines.push(line(&dropped));
            for replacement in REPLACEMENTS {
                let mut swapped = base.clone();
                swapped[i].1 = replacement;
                lines.push(line(&swapped));
                let mut shadowed = base.clone();
                shadowed.insert(0, (base[i].0, replacement));
                lines.push(line(&shadowed));
                let mut trailed = base.clone();
                trailed.push((base[i].0, replacement));
                lines.push(line(&trailed));
            }
        }
        // Unknown members, before and after, flat and nested, holding the
        // names the walk looks for.
        for unknown in [
            ("extra", "1"),
            ("extra", "[1,2,3]"),
            (
                "extra",
                "{\"b\":[1,2],\"values\":\"x\",\"deep\":{\"row_ptr\":[[{}]]}}",
            ),
            ("extra", "[{\"b\":[\"x\"]},[[[]]],null]"),
            ("x", "[1.0,2.0]"),
            ("B", "[1.0]"),
            ("", "[1.0]"),
            ("extra", "{\"open\":[1,2}"),
            ("extra", "{\"k\" 1}"),
            ("extra", "{1:2}"),
        ] {
            let mut before = base.clone();
            before.insert(0, unknown);
            lines.push(line(&before));
            let mut after = base.clone();
            after.push(unknown);
            lines.push(line(&after));
        }
        // Array-typed names on ops that do not read them.
        for stray in [
            ("b", "\"x\""),
            ("values", "[1,\"x\"]"),
            ("row_ptr", "[1.5]"),
            ("col_idx", "{}"),
        ] {
            let mut with = base.clone();
            with.push(stray);
            lines.push(line(&with));
        }
    }
    // Keys spelt with escapes are the same keys.
    lines.push(r#"{"v":1,"id":3,"\u006fp":"solve","pattern":"k","\u0062":[1.0,2.0]}"#.to_string());
    lines
        .push(r#"{"v":1,"id":3,"op":"solve","pattern":"k","b\u0000":[1.0],"b":[2.0]}"#.to_string());
    // Envelope fields of the wrong kind, and lines that are not objects.
    for other in [
        r#"{"v":2,"id":8,"op":"stats"}"#,
        r#"{"v":1.0,"id":8,"op":"stats"}"#,
        r#"{"v":"1","id":8,"op":"stats"}"#,
        r#"{"v":1,"id":-8,"op":"stats"}"#,
        r#"{"v":1,"id":8.5,"op":"stats"}"#,
        r#"{"v":1,"id":"8","op":"stats"}"#,
        r#"{"id":8,"op":"stats"}"#,
        r#"{"v":1,"op":"stats"}"#,
        r#"{"v":1,"id":9}"#,
        r#"{"v":1,"id":9,"op":7}"#,
        r#"{"v":1,"id":10,"op":"conjure","b":[1,"x"]}"#,
        r#"{"v":1,"v":2,"id":1,"id":2,"op":"stats","op":"solve"}"#,
        "{}",
        "{ }",
        "[]",
        "[1,2,3]",
        r#"[{"v":1,"id":1,"op":"stats"}]"#,
        "3",
        "-3.5",
        "\"stats\"",
        "null",
        "true",
        "",
        " ",
        "this is not json",
        "{",
        "}",
        "{,}",
        "{\"v\"}",
        "{\"v\":}",
        "{\"v\":1,}",
        "{\"v\":1 \"id\":2}",
        "{v:1}",
        "{'v':1}",
        "\u{feff}{}",
        "{\"v\":1,\"id\":1,\"op\":\"st\u{e9}ts\"}",
    ] {
        lines.push(other.to_string());
    }
    lines
}

#[test]
fn parse_request_agrees_with_the_previous_composition_on_every_line() {
    let lines = corpus();
    assert!(lines.len() > 5_000, "the corpus is the product it claims");
    let (mut accepted, mut rejected) = (0usize, [0usize; 6]);
    for line in &lines {
        let expected = previous_parse_request(line);
        let actual = parse_request(line);
        match (&expected, &actual) {
            (Ok(e), Ok(a)) => {
                // Debug text tells -0.0 from 0.0 and NaN from NaN.
                assert_eq!(format!("{e:?}"), format!("{a:?}"), "line: {line}");
                accepted += 1;
            }
            (Err(e), Err(a)) => {
                assert_eq!(
                    (e.id, e.code, &e.message),
                    (a.id, a.code, &a.message),
                    "line: {line}"
                );
                let slot = [
                    ErrorCode::ParseError,
                    ErrorCode::VersionMismatch,
                    ErrorCode::MissingField,
                    ErrorCode::BadRequest,
                    ErrorCode::UnknownOp,
                ]
                .iter()
                .position(|c| *c == e.code)
                .unwrap_or(5);
                rejected[slot] += 1;
            }
            _ => panic!("line: {line}\nexpected: {expected:?}\nactual:   {actual:?}"),
        }
    }
    // The corpus reaches every outcome parsing can have.
    assert!(accepted > 500, "accepted {accepted}");
    assert!(
        rejected[..5].iter().all(|&n| n > 0) && rejected[5] == 0,
        "rejections by code: {rejected:?}"
    );
}
