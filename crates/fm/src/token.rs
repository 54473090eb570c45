//! Approximate tokenizer for usage accounting.
//!
//! Real BPE is unnecessary for reproducing the paper's cost curves; what
//! matters is that token counts grow linearly with serialized data volume
//! (the row-level-vs-feature-level axis of Figure 1). We use the standard
//! "≈ 4 characters or ≈ ¾ words per token" heuristic, taking the larger of
//! the two estimates so code-dense and prose-dense text both count sanely.

/// Approximate the number of tokens in `text`.
pub fn approx_tokens(text: &str) -> usize {
    if text.is_empty() {
        return 0;
    }
    let chars = text.chars().count();
    let words = text.split_whitespace().count();
    let by_chars = chars.div_ceil(4);
    let by_words = words + words / 3;
    by_chars.max(by_words)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_zero() {
        assert_eq!(approx_tokens(""), 0);
    }

    #[test]
    fn grows_with_length() {
        let short = approx_tokens("age of the policyholder");
        let long = approx_tokens(&"age of the policyholder ".repeat(10));
        assert!(long > short * 8);
    }

    #[test]
    fn word_floor_applies_to_terse_text() {
        // 10 one-char words: char estimate would be 5, word estimate 13.
        let t = approx_tokens("a b c d e f g h i j");
        assert!(t >= 10);
    }

    #[test]
    fn char_estimate_applies_to_long_words() {
        // One 40-char word: word estimate 1, char estimate 10.
        let t = approx_tokens(&"x".repeat(40));
        assert_eq!(t, 10);
    }
}
