//! A JSON writer small enough to own: result files, the chrome trace and
//! the one-line result the driver reads. (Reading goes through
//! `kifmm_testkit::json`.)

/// A JSON value under construction. Object members keep insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum J {
    Bool(bool),
    /// Written with every digit needed to read the same `f64` back;
    /// non-finite values have no JSON form and are written as `null`.
    Num(f64),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl J {
    pub fn str(s: impl Into<String>) -> J {
        J::Str(s.into())
    }

    pub fn nums(values: &[f64]) -> J {
        J::Arr(values.iter().map(|&v| J::Num(v)).collect())
    }

    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, J)>) -> J {
        J::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Compact single-line text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            J::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            J::Num(v) if v.is_finite() => {
                // Whole numbers in the exactly-representable range print as
                // integers (`attempted`, counts); everything else in the
                // shortest form that round-trips.
                if v.fract() == 0.0 && v.abs() < 9.0e15 {
                    out.push_str(&format!("{}", *v as i64));
                } else {
                    out.push_str(&format!("{v}"));
                }
            }
            J::Num(_) => out.push_str("null"),
            J::Str(s) => write_str(s, out),
            J::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            J::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use kifmm_testkit::json::Json;

    #[test]
    fn round_trips_through_the_testkit_parser() {
        let doc = J::obj([
            ("name", J::str("quote \" slash \\ tab \t newline \n bell \u{7} µs")),
            ("ok", J::Bool(true)),
            ("count", J::Num(1_234_567.0)),
            ("tiny", J::Num(3.357_291_206_753_953_7e-7)),
            ("third", J::Num(1.0 / 3.0)),
            ("neg", J::Num(-0.25)),
            ("nan", J::Num(f64::NAN)),
            ("samples", J::nums(&[1.5, 2.0, 1e-12])),
            ("nested", J::obj([("empty", J::Arr(vec![]))])),
        ]);
        let text = doc.render();
        assert!(!text.contains('\n'), "one line: {text}");
        let parsed = Json::parse(&text).expect("writer output parses");
        assert_eq!(
            parsed.get("name").and_then(Json::as_str),
            Some("quote \" slash \\ tab \t newline \n bell \u{7} µs")
        );
        assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(parsed.get("count").and_then(Json::as_f64), Some(1_234_567.0));
        // Every digit survives: the parsed value is the same f64.
        assert_eq!(parsed.get("tiny").and_then(Json::as_f64), Some(3.357_291_206_753_953_7e-7));
        assert_eq!(parsed.get("third").and_then(Json::as_f64), Some(1.0 / 3.0));
        assert_eq!(parsed.get("neg").and_then(Json::as_f64), Some(-0.25));
        assert_eq!(parsed.get("nan"), Some(&Json::Null));
        let samples: Vec<f64> = parsed
            .get("samples")
            .and_then(Json::as_arr)
            .expect("array")
            .iter()
            .filter_map(Json::as_f64)
            .collect();
        assert_eq!(samples, vec![1.5, 2.0, 1e-12]);
        assert_eq!(
            parsed.get("nested").and_then(|n| n.get("empty")).and_then(Json::as_arr),
            Some(&[][..])
        );
        assert!(text.contains("\"count\":1234567,"), "whole numbers print as integers: {text}");
    }
}
