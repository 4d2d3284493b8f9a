//! Independent answer checking: each model is checked against the
//! template's own definition ([`Truth`]), never with the solver's code.

use crate::gen::{Class, Truth};

/// A check-sat verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `sat`
    Sat,
    /// `unsat`
    Unsat,
    /// `unknown`
    Unknown,
}

impl Verdict {
    /// Parses `sat` / `unsat` / `unknown`.
    pub fn parse(text: &str) -> Option<Verdict> {
        match text.trim() {
            "sat" => Some(Verdict::Sat),
            "unsat" => Some(Verdict::Unsat),
            "unknown" => Some(Verdict::Unknown),
            _ => None,
        }
    }
}

/// A model value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// A string.
    Str(String),
    /// An integer.
    Int(i64),
}

/// One answer as the program gave it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    /// The verdict.
    pub verdict: Verdict,
    /// Variable assignments.
    pub model: Vec<(String, Value)>,
}

/// Parses `qsmt solve` standard output: a verdict line, then an
/// optional `(model …)` block of `(define-fun NAME () _ VALUE)` lines.
/// String values are printed with Rust's debug escapes.
///
/// # Errors
/// Describes the first line that does not fit that shape.
pub fn parse_cli_output(stdout: &str) -> Result<Answer, String> {
    let mut lines = stdout.lines().filter(|l| !l.starts_with(';'));
    let first = lines.next().ok_or("empty output")?;
    let verdict = Verdict::parse(first).ok_or_else(|| format!("bad verdict line {first:?}"))?;
    let mut model = Vec::new();
    for line in lines {
        let line = line.trim();
        if line == "(model" || line == ")" || line.is_empty() {
            continue;
        }
        let rest = line
            .strip_prefix("(define-fun ")
            .and_then(|r| r.strip_suffix(')'))
            .ok_or_else(|| format!("bad model line {line:?}"))?;
        let (name, value) = rest
            .split_once(" () _ ")
            .ok_or_else(|| format!("bad model line {line:?}"))?;
        model.push((name.to_string(), parse_cli_value(value)?));
    }
    Ok(Answer { verdict, model })
}

fn parse_cli_value(text: &str) -> Result<Value, String> {
    if text == "(- 1)" {
        return Ok(Value::Int(-1));
    }
    if let Ok(n) = text.parse::<i64>() {
        return Ok(Value::Int(n));
    }
    let body = text
        .strip_prefix('"')
        .and_then(|t| t.strip_suffix('"'))
        .ok_or_else(|| format!("bad model value {text:?}"))?;
    unescape_debug(body).map(Value::Str)
}

/// Undoes Rust's `{:?}` string escaping.
fn unescape_debug(body: &str) -> Result<String, String> {
    let mut out = String::with_capacity(body.len());
    let mut chars = body.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('0') => out.push('\0'),
            Some(c @ ('\\' | '"' | '\'')) => out.push(c),
            Some('u') => {
                let hex: String = chars.by_ref().skip(1).take_while(|&c| c != '}').collect();
                let code = u32::from_str_radix(&hex, 16)
                    .ok()
                    .and_then(char::from_u32)
                    .ok_or_else(|| format!("bad escape \\u{{{hex}}}"))?;
                out.push(code);
            }
            other => return Err(format!("bad escape \\{other:?}")),
        }
    }
    Ok(out)
}

/// How one answer scores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Score {
    /// Sat with a model that passes the check, or unsat on an unsat script.
    Decided,
    /// `unknown`: honest, but not an answer.
    Undecided,
    /// A wrong verdict, or a model that fails the check.
    Wrong(String),
}

/// Scores `answer` for the script whose ground truth is `truth` and
/// whose constrained constant is `var`.
pub fn score(truth: &Truth, var: &str, answer: &Answer) -> Score {
    match (answer.verdict, truth) {
        (Verdict::Unknown, _) => Score::Undecided,
        (Verdict::Unsat, Truth::Unsat) => Score::Decided,
        (Verdict::Unsat, _) => Score::Wrong("unsat on a satisfiable script".into()),
        (Verdict::Sat, Truth::Unsat) => Score::Wrong("sat on an unsatisfiable script".into()),
        (Verdict::Sat, _) => {
            let Some((_, value)) = answer.model.iter().find(|(name, _)| name == var) else {
                return Score::Wrong(format!("sat without a value for {var}"));
            };
            match check_value(truth, value) {
                Ok(()) => Score::Decided,
                Err(why) => Score::Wrong(why),
            }
        }
    }
}

fn check_value(truth: &Truth, value: &Value) -> Result<(), String> {
    let text = match (truth, value) {
        (Truth::Index(want), Value::Int(got)) => {
            return if usize::try_from(*got).ok() == Some(*want) {
                Ok(())
            } else {
                Err(format!("index {got}, expected {want}"))
            };
        }
        (Truth::Index(_), Value::Str(s)) => return Err(format!("string {s:?} for an Int")),
        (_, Value::Int(n)) => return Err(format!("integer {n} for a String")),
        (_, Value::Str(s)) => s,
    };
    let chars: Vec<char> = text.chars().collect();
    let ok = match truth {
        Truth::Equals(want) => text == want,
        Truth::Palindrome { len, prefix } => {
            chars.len() == *len && chars.iter().eq(chars.iter().rev()) && text.starts_with(prefix)
        }
        Truth::Positions(classes) => {
            chars.len() == classes.len()
                && chars.iter().zip(classes).all(|(&c, class)| match *class {
                    Class::Any => true,
                    Class::Range(lo, hi) => (lo..=hi).contains(&c),
                    Class::Is(want) => c == want,
                })
        }
        Truth::Affix {
            len,
            prefix,
            suffix,
        } => chars.len() == *len && text.starts_with(prefix) && text.ends_with(suffix),
        Truth::Index(_) | Truth::Unsat => unreachable!("handled above"),
    };
    if ok {
        Ok(())
    } else {
        Err(format!("model {text:?} violates {truth:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_cli_models_with_escapes() {
        let out = "sat\n(model\n  (define-fun s () _ \"a\\\"b\\u{7f}\")\n)\n";
        let a = parse_cli_output(out).unwrap();
        assert_eq!(a.verdict, Verdict::Sat);
        assert_eq!(a.model, vec![("s".into(), Value::Str("a\"b\u{7f}".into()))]);
        let idx = parse_cli_output("sat\n(model\n  (define-fun i () _ (- 1))\n)\n").unwrap();
        assert_eq!(idx.model[0].1, Value::Int(-1));
    }

    #[test]
    fn scores_against_the_definition() {
        let sat = |v: &str| Answer {
            verdict: Verdict::Sat,
            model: vec![("s".into(), Value::Str(v.into()))],
        };
        let pal = Truth::Palindrome {
            len: 5,
            prefix: "ab".into(),
        };
        assert_eq!(score(&pal, "s", &sat("abxba")), Score::Decided);
        assert!(matches!(score(&pal, "s", &sat("abxbb")), Score::Wrong(_)));
        let unsat = Answer {
            verdict: Verdict::Unsat,
            model: vec![],
        };
        assert_eq!(score(&Truth::Unsat, "s", &unsat), Score::Decided);
        assert!(matches!(score(&pal, "s", &unsat), Score::Wrong(_)));
    }
}
