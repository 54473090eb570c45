//! Chat transcript recording: wraps any [`FoundationModel`] and captures
//! every (prompt, response) exchange.
//!
//! The original system's repository ships its prompt logs; this wrapper
//! provides the same visibility — the `custom_dataset` example prints a
//! transcript, and tests use it to assert on exact dialogue shapes.

use std::cell::RefCell;

use crate::oracle::{FmError, FmResponse, FoundationModel};
use crate::stats::{RoutingSnapshot, UsageMeter};

/// One prompt/response exchange.
#[derive(Debug, Clone, PartialEq)]
pub struct Exchange {
    /// The prompt sent.
    pub prompt: String,
    /// The model's text answer.
    pub response: String,
    /// Tokens billed for this exchange (prompt + completion).
    pub tokens: usize,
}

/// A recording wrapper around any foundation model.
pub struct Transcribing<M> {
    inner: M,
    log: RefCell<Vec<Exchange>>,
}

impl<M: FoundationModel> Transcribing<M> {
    /// Wrap a model.
    pub fn new(inner: M) -> Self {
        Transcribing {
            inner,
            log: RefCell::new(Vec::new()),
        }
    }

    /// Clone of all recorded exchanges, in call order.
    pub fn transcript(&self) -> Vec<Exchange> {
        self.log.borrow().clone()
    }

    /// Number of recorded exchanges.
    pub fn len(&self) -> usize {
        self.log.borrow().len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.log.borrow().is_empty()
    }

    /// Render the transcript as readable text (prompts truncated to
    /// `prompt_chars` characters).
    pub fn render(&self, prompt_chars: usize) -> String {
        let mut out = String::new();
        for (i, e) in self.log.borrow().iter().enumerate() {
            let prompt: String = e.prompt.chars().take(prompt_chars).collect();
            let ellipsis = if e.prompt.chars().count() > prompt_chars {
                "…"
            } else {
                ""
            };
            out.push_str(&format!(
                "--- exchange {} ({} tokens) ---\n> {}{}\n< {}\n",
                i + 1,
                e.tokens,
                prompt.replace('\n', "\n> "),
                ellipsis,
                e.response.trim_end().replace('\n', "\n< "),
            ));
        }
        out
    }
}

impl<M: FoundationModel> FoundationModel for Transcribing<M> {
    fn model_name(&self) -> &str {
        self.inner.model_name()
    }

    fn complete(&self, prompt: &str) -> Result<FmResponse, FmError> {
        let response = self.inner.complete(prompt)?;
        self.log.borrow_mut().push(Exchange {
            prompt: prompt.to_string(),
            response: response.text.clone(),
            tokens: response.prompt_tokens + response.completion_tokens,
        });
        Ok(response)
    }

    fn meter(&self) -> &UsageMeter {
        self.inner.meter()
    }

    fn routing(&self) -> Option<RoutingSnapshot> {
        self.inner.routing()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::SimulatedFm;

    #[test]
    fn records_every_exchange_in_order() {
        let fm = Transcribing::new(SimulatedFm::gpt4(1));
        assert!(fm.is_empty());
        fm.complete("first prompt").unwrap();
        fm.complete("second prompt").unwrap();
        let t = fm.transcript();
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].prompt, "first prompt");
        assert_eq!(t[1].prompt, "second prompt");
        assert!(t.iter().all(|e| e.tokens > 0));
        assert_eq!(fm.len(), 2);
    }

    #[test]
    fn render_truncates_prompts() {
        let fm = Transcribing::new(SimulatedFm::gpt35(2));
        fm.complete(&"x".repeat(500)).unwrap();
        let text = fm.render(40);
        assert!(text.contains("exchange 1"));
        assert!(text.contains('…'));
        assert!(!text.contains(&"x".repeat(100)));
    }

    #[test]
    fn passthrough_preserves_accounting_and_errors() {
        use crate::cost::ModelSpec;
        use crate::oracle::FmConfig;
        let inner = SimulatedFm::new(
            ModelSpec::gpt4(),
            FmConfig {
                seed: 0,
                call_budget: Some(1),
                ..FmConfig::default()
            },
        );
        let fm = Transcribing::new(inner);
        fm.complete("ok").unwrap();
        assert!(matches!(
            fm.complete("over budget"),
            Err(FmError::BudgetExhausted { .. })
        ));
        assert_eq!(fm.meter().snapshot().calls, 1);
        assert_eq!(fm.len(), 1, "failed calls are not recorded");
    }
}
