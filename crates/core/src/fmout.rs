//! Parsing FM output back into structure (the role LangChain's output
//! parsers play in the original system).
//!
//! The parsers are deliberately tolerant — real models drift in formatting —
//! but they *fail closed*: anything unparseable becomes `None`, which the
//! selector counts against the generation-error threshold.

use std::collections::BTreeMap;

/// Confidence levels of the proposal strategy's template.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Confidence {
    /// Lowest.
    Low,
    /// Medium.
    Medium,
    /// High.
    High,
    /// Highest.
    Certain,
}

impl Confidence {
    /// Parse from the FM's parenthesized label.
    pub fn parse(text: &str) -> Option<Confidence> {
        match text.trim().to_ascii_lowercase().as_str() {
            "certain" => Some(Confidence::Certain),
            "high" => Some(Confidence::High),
            "medium" => Some(Confidence::Medium),
            "low" => Some(Confidence::Low),
            _ => None,
        }
    }
}

/// One line of a unary-proposal response.
#[derive(Debug, Clone, PartialEq)]
pub struct ProposalLine {
    /// Operator name (`bucketize`, `normalize`, …).
    pub op: String,
    /// Stated confidence.
    pub confidence: Confidence,
    /// Operator description (becomes the feature description).
    pub description: String,
}

/// Parse a numbered proposal list:
/// `1. bucketize (certain): group ages into bands`.
pub fn parse_proposals(text: &str) -> Vec<ProposalLine> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        // Strip the leading `N.` ordinal if present.
        let body = match line.split_once('.') {
            Some((num, rest)) if num.trim().parse::<usize>().is_ok() => rest.trim(),
            _ => line,
        };
        let Some(open) = body.find('(') else { continue };
        let Some(close) = body[open..].find(')').map(|i| i + open) else {
            continue;
        };
        let op = body[..open].trim().to_string();
        if op.is_empty() || op.contains(' ') {
            continue;
        }
        let Some(confidence) = Confidence::parse(&body[open + 1..close]) else {
            continue;
        };
        let description = body[close + 1..].trim_start_matches(':').trim().to_string();
        out.push(ProposalLine {
            op,
            confidence,
            description,
        });
    }
    out
}

/// A value in the tolerant JSON-ish dict the sampling strategy returns.
#[derive(Debug, Clone, PartialEq)]
pub enum DictValue {
    /// A string.
    Str(String),
    /// A number.
    Num(f64),
    /// A boolean.
    Bool(bool),
    /// A flat list of strings/numbers (rendered to strings).
    List(Vec<String>),
}

impl DictValue {
    /// String view (numbers render).
    pub fn as_str(&self) -> Option<String> {
        match self {
            DictValue::Str(s) => Some(s.clone()),
            DictValue::Num(n) => Some(format!("{n}")),
            DictValue::Bool(b) => Some(b.to_string()),
            DictValue::List(_) => None,
        }
    }

    /// List view: a scalar string becomes a one-element list.
    pub fn as_list(&self) -> Vec<String> {
        match self {
            DictValue::List(v) => v.clone(),
            DictValue::Str(s) => vec![s.clone()],
            DictValue::Num(n) => vec![format!("{n}")],
            DictValue::Bool(b) => vec![b.to_string()],
        }
    }
}

/// Parse one flat JSON-ish object (`{"k": "v", "l": [1, 2], "b": true}`).
/// Returns `None` on structural damage (the truncation failure mode).
pub fn parse_dict(text: &str) -> Option<BTreeMap<String, DictValue>> {
    let text = text.trim();
    let start = text.find('{')?;
    let end = text.rfind('}')?;
    if end <= start {
        return None;
    }
    let inner = &text[start + 1..end];
    let mut out = BTreeMap::new();
    let mut chars = inner.char_indices().peekable();
    loop {
        skip_ws(inner, &mut chars);
        let Some(&(_, c)) = chars.peek() else { break };
        if c == ',' {
            chars.next();
            continue;
        }
        let key = parse_string(inner, &mut chars)?;
        skip_ws(inner, &mut chars);
        match chars.next() {
            Some((_, ':')) => {}
            _ => return None,
        }
        skip_ws(inner, &mut chars);
        let value = parse_value(inner, &mut chars)?;
        out.insert(key, value);
    }
    (!out.is_empty()).then_some(out)
}

type CharIter<'a> = std::iter::Peekable<std::str::CharIndices<'a>>;

fn skip_ws(_s: &str, chars: &mut CharIter) {
    while matches!(chars.peek(), Some((_, c)) if c.is_whitespace()) {
        chars.next();
    }
}

fn parse_string(s: &str, chars: &mut CharIter) -> Option<String> {
    skip_ws(s, chars);
    match chars.next() {
        Some((_, '"')) => {
            let mut out = String::new();
            for (_, c) in chars.by_ref() {
                if c == '"' {
                    return Some(out);
                }
                out.push(c);
            }
            None // unterminated
        }
        _ => None,
    }
}

fn parse_value(s: &str, chars: &mut CharIter) -> Option<DictValue> {
    skip_ws(s, chars);
    match chars.peek().copied() {
        Some((_, '"')) => parse_string(s, chars).map(DictValue::Str),
        Some((_, '[')) => {
            chars.next();
            let mut items = Vec::new();
            loop {
                skip_ws(s, chars);
                match chars.peek().copied() {
                    Some((_, ']')) => {
                        chars.next();
                        return Some(DictValue::List(items));
                    }
                    Some((_, ',')) => {
                        chars.next();
                    }
                    Some((_, '"')) => {
                        items.push(parse_string(s, chars)?);
                    }
                    Some(_) => {
                        let tok = parse_bare(s, chars)?;
                        items.push(tok);
                    }
                    None => return None, // truncated list
                }
            }
        }
        Some(_) => {
            let tok = parse_bare(s, chars)?;
            if tok == "true" {
                Some(DictValue::Bool(true))
            } else if tok == "false" {
                Some(DictValue::Bool(false))
            } else if let Ok(n) = tok.parse::<f64>() {
                Some(DictValue::Num(n))
            } else {
                Some(DictValue::Str(tok))
            }
        }
        None => None,
    }
}

fn parse_bare(_s: &str, chars: &mut CharIter) -> Option<String> {
    let mut out = String::new();
    while let Some(&(_, c)) = chars.peek() {
        if c == ',' || c == ']' || c == '}' || c.is_whitespace() {
            break;
        }
        out.push(c);
        chars.next();
    }
    (!out.is_empty()).then_some(out)
}

/// A parsed function-generation response.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionSpec {
    /// The declared function kind (`bucketize`, `arithmetic`, …).
    pub function: String,
    /// Declared input columns.
    pub inputs: Vec<String>,
    /// `key=value` parameters.
    pub params: BTreeMap<String, String>,
    /// Optional data-source suggestion (the unavailable path).
    pub source: Option<String>,
    /// Optional free-text note.
    pub note: Option<String>,
}

/// Parse the structured `FUNCTION:` block a function-generation prompt
/// elicits.
pub fn parse_function_spec(text: &str) -> Option<FunctionSpec> {
    let mut function = None;
    let mut inputs = Vec::new();
    let mut params = BTreeMap::new();
    let mut source = None;
    let mut note = None;
    for line in text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("FUNCTION:") {
            function = Some(rest.trim().to_string());
        } else if let Some(rest) = line.strip_prefix("INPUT:") {
            inputs = rest
                .split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect();
        } else if let Some(rest) = line.strip_prefix("PARAMS:") {
            for pair in rest.split(';') {
                if let Some((k, v)) = pair.split_once('=') {
                    params.insert(k.trim().to_string(), v.trim().to_string());
                }
            }
        } else if let Some(rest) = line.strip_prefix("SOURCE:") {
            source = Some(rest.trim().to_string());
        } else if let Some(rest) = line.strip_prefix("NOTE:") {
            note = Some(rest.trim().to_string());
        }
    }
    let function = function?;
    if function.is_empty() {
        return None;
    }
    Some(FunctionSpec {
        function,
        inputs,
        params,
        source,
        note,
    })
}

/// Parse a comma-separated list of floats (bucket boundaries, weights).
pub fn parse_float_list(text: &str) -> Option<Vec<f64>> {
    let vals: Vec<f64> = text
        .split(',')
        .map(|s| s.trim().parse::<f64>())
        .collect::<std::result::Result<_, _>>()
        .ok()?;
    (!vals.is_empty()).then_some(vals)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proposals_parse_and_preserve_order() {
        let text = "1. bucketize (certain): group ages into bands\n\
                    2. normalize (high): scale to [0,1]\n\
                    3. square (low): probably useless\n";
        let p = parse_proposals(text);
        assert_eq!(p.len(), 3);
        assert_eq!(p[0].op, "bucketize");
        assert_eq!(p[0].confidence, Confidence::Certain);
        assert!(p[0].description.contains("bands"));
        assert_eq!(p[2].confidence, Confidence::Low);
    }

    #[test]
    fn proposals_skip_garbage_lines() {
        let text = "Here are some ideas:\n1. bucketize (certain): ok\nrandom prose\n\
                    2. bad op no parens\n3. two words (high): nope\n";
        let p = parse_proposals(text);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn proposals_reject_unknown_confidence() {
        let p = parse_proposals("1. log (very sure): yes\n");
        assert!(p.is_empty());
    }

    #[test]
    fn confidence_ordering_supports_filtering() {
        assert!(Confidence::Certain > Confidence::High);
        assert!(Confidence::High > Confidence::Medium);
    }

    #[test]
    fn dict_parses_strings_lists_numbers_bools() {
        let d = parse_dict(
            "{\"left\": \"Age\", \"op\": \"-\", \"cols\": [\"a\", \"b\"], \
             \"weights\": [1, -1], \"normalize\": true, \"n\": 3.5}",
        )
        .unwrap();
        assert_eq!(d["left"].as_str().unwrap(), "Age");
        assert_eq!(d["cols"].as_list(), vec!["a", "b"]);
        assert_eq!(d["weights"].as_list(), vec!["1", "-1"]);
        assert_eq!(d["normalize"], DictValue::Bool(true));
        assert_eq!(d["n"], DictValue::Num(3.5));
    }

    #[test]
    fn dict_rejects_truncation() {
        assert!(parse_dict("{\"left\": \"Age\", \"op\": ").is_none());
        assert!(parse_dict("no braces at all").is_none());
        assert!(parse_dict("{}").is_none());
    }

    #[test]
    fn dict_tolerates_prose_around_it() {
        let d = parse_dict("Sure! Here's a feature:\n{\"a\": \"b\"}\nHope that helps.").unwrap();
        assert_eq!(d["a"].as_str().unwrap(), "b");
    }

    #[test]
    fn dict_rejects_unterminated_string() {
        assert!(parse_dict("{\"a\": \"oops}").is_none());
    }

    #[test]
    fn function_spec_full_block() {
        let spec = parse_function_spec(
            "FUNCTION: bucketize\nINPUT: Age\nPARAMS: boundaries=18,21,25\nNOTE: standard bands\n",
        )
        .unwrap();
        assert_eq!(spec.function, "bucketize");
        assert_eq!(spec.inputs, vec!["Age"]);
        assert_eq!(spec.params["boundaries"], "18,21,25");
        assert_eq!(spec.note.as_deref(), Some("standard bands"));
    }

    #[test]
    fn function_spec_unavailable_with_source() {
        let spec = parse_function_spec("FUNCTION: unavailable\nSOURCE: https://data.census.gov\n")
            .unwrap();
        assert_eq!(spec.function, "unavailable");
        assert!(spec.source.unwrap().contains("census"));
    }

    #[test]
    fn function_spec_requires_function_line() {
        assert!(parse_function_spec("INPUT: Age\n").is_none());
        assert!(parse_function_spec("I'm sorry, I can't do that.").is_none());
    }

    #[test]
    fn float_list_parsing() {
        assert_eq!(parse_float_list("1, 2.5, -3"), Some(vec![1.0, 2.5, -3.0]));
        assert!(parse_float_list("1, x").is_none());
        assert!(parse_float_list("").is_none());
    }

    #[test]
    fn multi_param_spec() {
        let spec = parse_function_spec(
            "FUNCTION: weighted_index\nINPUT: a, b\nPARAMS: weights=1,-1; normalize=true\n",
        )
        .unwrap();
        assert_eq!(spec.params["weights"], "1,-1");
        assert_eq!(spec.params["normalize"], "true");
        assert_eq!(spec.inputs, vec!["a", "b"]);
    }
}
