//! The simulated foundation model: reads SMARTFEAT's natural-language
//! prompts, consults the [`crate::knowledge`] base, and writes back
//! natural-language-ish structured text for the caller to parse.

use std::cell::RefCell;
use std::rc::Rc;

use smartfeat_rng::Rng;

use crate::backend::KnowledgeCoverage;
use crate::cost::ModelSpec;
use crate::knowledge::{self, Concept};
use crate::parse::{field_after, ConceptMemo, FeatureInfo, PromptContext};
use crate::stats::{CallRecord, RoutingSnapshot, UsageMeter};
use crate::token::approx_tokens;

/// Classify a prompt by the task template it carries. The label feeds
/// the accounting log and the cascade router's eligibility/acceptance
/// policies, so it is part of the crate's public surface.
pub fn prompt_kind(prompt: &str) -> &'static str {
    if prompt.contains("Consider the unary operators on the attribute") {
        "unary_proposal"
    } else if prompt.contains("Propose one binary arithmetic feature") {
        "binary_sample"
    } else if prompt.contains("Generate a groupby feature") {
        "highorder_sample"
    } else if prompt.contains("Propose one extractor feature") {
        "extractor_sample"
    } else if prompt.contains("Provide an executable transformation function") {
        "function_generation"
    } else if prompt.contains("Complete the value of the last field") {
        "row_completion"
    } else if prompt.contains("unlikely to help predict") {
        "feature_removal"
    } else if prompt.contains("Mutate the candidate feature") {
        "mutation"
    } else if prompt.contains("Combine the two parent features") {
        "crossover"
    } else if prompt.contains("Decide the next exploration action") {
        "react_decision"
    } else {
        "generic"
    }
}

/// Transport-level errors. Output-quality problems (malformed text,
/// refusals, repeats) are *not* errors — they arrive as ordinary responses
/// the caller must cope with, exactly like a real API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FmError {
    /// The configured hard call budget was exhausted.
    BudgetExhausted {
        /// Budget that was configured.
        budget: usize,
    },
}

impl std::fmt::Display for FmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FmError::BudgetExhausted { budget } => {
                write!(f, "API call budget of {budget} exhausted")
            }
        }
    }
}

impl std::error::Error for FmError {}

/// One completion with its accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct FmResponse {
    /// The model's text output.
    pub text: String,
    /// Prompt tokens billed.
    pub prompt_tokens: usize,
    /// Completion tokens billed.
    pub completion_tokens: usize,
    /// USD billed for this call.
    pub cost_usd: f64,
    /// Simulated latency for this call.
    pub latency: std::time::Duration,
}

/// Anything that answers prompts — lets tests substitute canned models.
pub trait FoundationModel {
    /// Model identifier.
    fn model_name(&self) -> &str;

    /// Answer one prompt.
    fn complete(&self, prompt: &str) -> Result<FmResponse, FmError>;

    /// Shared usage meter.
    fn meter(&self) -> &UsageMeter;

    /// Per-backend routing stats, when this model routes between several
    /// backends (see `CascadeFm`). Plain single-model FMs return `None`.
    fn routing(&self) -> Option<RoutingSnapshot> {
        None
    }
}

/// Boxed trait objects answer prompts like the model they wrap, so
/// callers can pick a backend at runtime and still use `&dyn`-based APIs.
impl<M: FoundationModel + ?Sized> FoundationModel for Box<M> {
    fn model_name(&self) -> &str {
        (**self).model_name()
    }

    fn complete(&self, prompt: &str) -> Result<FmResponse, FmError> {
        (**self).complete(prompt)
    }

    fn meter(&self) -> &UsageMeter {
        (**self).meter()
    }

    fn routing(&self) -> Option<RoutingSnapshot> {
        (**self).routing()
    }
}

/// Configuration of a [`SimulatedFm`].
#[derive(Debug, Clone)]
pub struct FmConfig {
    /// RNG seed; identical call sequences reproduce identical transcripts.
    pub seed: u64,
    /// Sampling temperature in [0, 2]: 0 ⇒ near-argmax, higher ⇒ more
    /// diverse sampling-strategy outputs.
    pub temperature: f64,
    /// Probability of emitting a degraded output (malformed / refusal /
    /// repetition) on any call. Exercises the paper's generation-error
    /// threshold.
    pub error_rate: f64,
    /// Optional hard cap on total calls.
    pub call_budget: Option<usize>,
    /// How much of the [`crate::knowledge`] base this model family can
    /// see. Shallow models parrot the answer formats but hedge on the
    /// domain facts behind them.
    pub coverage: KnowledgeCoverage,
}

impl Default for FmConfig {
    fn default() -> Self {
        FmConfig {
            seed: 0,
            temperature: 0.7,
            error_rate: 0.0,
            call_budget: None,
            coverage: KnowledgeCoverage::Deep,
        }
    }
}

/// The simulated FM.
///
/// ```
/// use smartfeat_fm::{FoundationModel, SimulatedFm};
/// let fm = SimulatedFm::gpt35(0);
/// let r = fm.complete("Complete the value of the last field.\nCity: SF, Density: ?").unwrap();
/// assert_eq!(r.text, "7272");
/// assert_eq!(fm.meter().snapshot().calls, 1);
/// ```
pub struct SimulatedFm {
    spec: ModelSpec,
    config: FmConfig,
    meter: Rc<UsageMeter>,
    state: RefCell<OracleState>,
}

struct OracleState {
    rng: Rng,
    last_text: Option<String>,
    calls: usize,
    /// Each card feature's concepts, detected once per model on the
    /// first answer that reads them.
    concepts: ConceptMemo,
}

impl SimulatedFm {
    /// Build with an owned meter.
    pub fn new(spec: ModelSpec, config: FmConfig) -> Self {
        Self::with_meter(spec, config, Rc::new(UsageMeter::new()))
    }

    /// Build sharing an existing meter (so the selector's GPT-4 and the
    /// generator's GPT-3.5 can bill one budget, as the paper's setup does).
    pub fn with_meter(spec: ModelSpec, config: FmConfig, meter: Rc<UsageMeter>) -> Self {
        let seed = config.seed;
        SimulatedFm {
            spec,
            config,
            meter,
            state: RefCell::new(OracleState {
                rng: Rng::seed_from_u64(seed),
                last_text: None,
                calls: 0,
                concepts: ConceptMemo::new(),
            }),
        }
    }

    /// GPT-4 defaults (operator-selector role).
    pub fn gpt4(seed: u64) -> Self {
        SimulatedFm::new(
            ModelSpec::gpt4(),
            FmConfig {
                seed,
                ..FmConfig::default()
            },
        )
    }

    /// GPT-3.5-turbo defaults (function-generator role).
    pub fn gpt35(seed: u64) -> Self {
        SimulatedFm::new(
            ModelSpec::gpt35_turbo(),
            FmConfig {
                seed,
                ..FmConfig::default()
            },
        )
    }

    fn answer(&self, prompt: &str, rng: &mut Rng, concepts: &ConceptMemo) -> String {
        let ctx = PromptContext::parse_with(prompt, concepts);
        let kind = prompt_kind(prompt);
        let text = match kind {
            "unary_proposal" => answer_unary(prompt, &ctx),
            "binary_sample" => answer_binary(&ctx, rng, self.config.temperature),
            "highorder_sample" => answer_highorder(&ctx, rng, self.config.temperature),
            "extractor_sample" => answer_extractor(&ctx, rng),
            "function_generation" => answer_funcgen(prompt, &ctx),
            "row_completion" => answer_row_completion(prompt),
            "feature_removal" => answer_removal(&ctx),
            "mutation" => answer_mutation(prompt, &ctx, rng, self.config.temperature),
            "crossover" => answer_crossover(prompt, &ctx, rng, self.config.temperature),
            "react_decision" => answer_react(prompt),
            _ => "I need more context to help with this request. Please describe the dataset \
                  features, the prediction target, and the downstream model."
                .to_string(),
        };
        match self.config.coverage {
            KnowledgeCoverage::Deep => text,
            KnowledgeCoverage::Shallow => shallow_degrade(kind, text),
        }
    }

    fn degrade(&self, text: String, rng: &mut Rng, last: &Option<String>) -> String {
        // Three real-world failure modes, equally likely.
        match rng.gen_range(0..3u8) {
            0 => {
                // Truncation: drop the tail (lost closing brace, cut list).
                let mut cut = text.len() * 2 / 3;
                while cut > 0 && !text.is_char_boundary(cut) {
                    cut -= 1;
                }
                let mut t = text;
                t.truncate(cut);
                t
            }
            1 => "I'm sorry, I can't produce a structured answer for this request.".to_string(),
            _ => last.clone().unwrap_or(text), // verbatim repetition
        }
    }
}

impl FoundationModel for SimulatedFm {
    fn model_name(&self) -> &str {
        self.spec.name
    }

    fn complete(&self, prompt: &str) -> Result<FmResponse, FmError> {
        let mut state = self.state.borrow_mut();
        if let Some(budget) = self.config.call_budget {
            if state.calls >= budget {
                return Err(FmError::BudgetExhausted { budget });
            }
        }
        state.calls += 1;

        // Split borrow of state fields.
        let OracleState {
            rng,
            last_text,
            concepts,
            ..
        } = &mut *state;
        let mut text = self.answer(prompt, rng, concepts);
        if self.config.error_rate > 0.0 && rng.gen_f64() < self.config.error_rate {
            text = self.degrade(text, rng, last_text);
        }
        *last_text = Some(text.clone());

        let prompt_tokens = approx_tokens(prompt);
        let completion_tokens = approx_tokens(&text);
        let cost_usd = self.spec.cost_usd(prompt_tokens, completion_tokens);
        let latency = self.spec.latency(prompt_tokens, completion_tokens);
        self.meter.record(CallRecord {
            prompt_tokens,
            completion_tokens,
            cost_usd,
            latency,
        });
        Ok(FmResponse {
            text,
            prompt_tokens,
            completion_tokens,
            cost_usd,
            latency,
        })
    }

    fn meter(&self) -> &UsageMeter {
        &self.meter
    }
}

// ---------------------------------------------------------------------------
// Task answers
// ---------------------------------------------------------------------------

/// Shallow-coverage degradation: the cheap base-model family knows the
/// answer *formats* but not the domain facts behind them, so its output
/// is well-formed yet hedged — exactly what a cascade's confidence and
/// completeness checks exist to catch.
fn shallow_degrade(kind: &str, text: String) -> String {
    match kind {
        // Domain confidence collapses: nothing is "certain" or "high"
        // without the knowledge base behind the proposal.
        "unary_proposal" => text
            .replace("(certain)", "(medium)")
            .replace("(high)", "(medium)"),
        // World-knowledge lookups are simply absent.
        "row_completion" => "unknown".to_string(),
        // Domain bucket boundaries degrade to the "auto" placeholder.
        "function_generation" => match text.find("boundaries=") {
            Some(pos) => {
                let start = pos + "boundaries=".len();
                let end = text[start..]
                    .find('\n')
                    .map(|i| start + i)
                    .unwrap_or(text.len());
                let mut t = text;
                t.replace_range(start..end, "auto");
                t
            }
            None => text,
        },
        _ => text,
    }
}

/// Confidence labels matching the paper's prompt template.
fn conf(level: u8) -> &'static str {
    match level {
        3 => "certain",
        2 => "high",
        1 => "medium",
        _ => "low",
    }
}

fn answer_unary(prompt: &str, ctx: &PromptContext) -> String {
    let Some(attr) = field_after(prompt, "the attribute") else {
        return "Which attribute should I consider?".to_string();
    };
    let Some(feature) = ctx.feature(&attr) else {
        return format!("The attribute '{attr}' does not appear in the dataset description.");
    };
    let concepts = feature.concepts();
    let mut proposals: Vec<(String, u8, String)> = Vec::new();
    let mut add = |op: &str, level: u8, why: String| {
        if !proposals.iter().any(|(o, _, _)| o == op) {
            proposals.push((op.to_string(), level, why));
        }
    };
    for c in concepts {
        match c {
            Concept::Age => {
                add(
                    "bucketize",
                    3,
                    format!(
                        "group {attr} into insurance-style age bands (under 18, 18-21, 21-25, \
                         25-35, 35-45, 45-55, 55-65, 65+); the 21-year threshold is widely \
                         used in practice"
                    ),
                );
                add(
                    "normalize",
                    2,
                    format!("scale {attr} to [0, 1] for distance-based models"),
                );
            }
            Concept::ObjectAge => {
                add(
                    "years_since",
                    3,
                    format!(
                        "derive the manufacturing year as {} minus {attr}",
                        knowledge::current_year()
                    ),
                );
                add(
                    "bucketize",
                    2,
                    format!("band {attr} into new/recent/old (3, 5, 10 years)"),
                );
            }
            Concept::YearOfEvent => {
                // Only a column whose *values* are calendar years can be
                // differenced against the current year; counts or amounts
                // that merely mention "year" in their description are not.
                let value_like_year = !concepts.iter().any(|c| {
                    matches!(
                        c,
                        Concept::Count
                            | Concept::Money
                            | Concept::RatePercentage
                            | Concept::SmokingIntensity
                            | Concept::Hours
                    )
                });
                if value_like_year {
                    add(
                        "years_since",
                        3,
                        format!(
                            "derive elapsed years as {} minus {attr}",
                            knowledge::current_year()
                        ),
                    );
                }
            }
            Concept::DateLike => {
                add(
                    "date_split",
                    3,
                    format!("split {attr} into year, month and weekday components"),
                );
            }
            c if c.is_clinical() => {
                let bounds = knowledge::bucket_boundaries(*c)
                    .map(|b| {
                        b.iter()
                            .map(|v| format!("{v}"))
                            .collect::<Vec<_>>()
                            .join(", ")
                    })
                    .unwrap_or_default();
                add(
                    "bucketize",
                    3,
                    format!("bucketize {attr} at clinically standard thresholds ({bounds})"),
                );
            }
            Concept::Money => {
                add(
                    "log",
                    3,
                    format!("log-transform {attr}: monetary amounts are heavy-tailed"),
                );
                add(
                    "normalize",
                    2,
                    format!("scale {attr} for comparability across features"),
                );
            }
            Concept::RatePercentage => {
                add(
                    "normalize",
                    2,
                    format!("{attr} is already bounded; min-max scale it"),
                );
            }
            Concept::Count => {
                add(
                    "log",
                    2,
                    format!("log(1+{attr}) tames the skew of count data"),
                );
            }
            Concept::Hours => {
                add(
                    "bucketize",
                    2,
                    format!("band {attr} into part-time/full-time/overtime"),
                );
            }
            Concept::PersonCategory
            | Concept::Education
            | Concept::Occupation
            | Concept::GeoRegion
            | Concept::SpeciesOrStation => {
                if feature.distinct.is_some_and(|d| d > 20) {
                    // Too many categories for one-hot; frequency encoding
                    // keeps the column usable for every model class.
                    add(
                        "frequency",
                        2,
                        format!("frequency-encode {attr}: too many categories for one-hot"),
                    );
                } else if !feature.is_numeric() || feature.distinct.is_some_and(|d| d <= 20) {
                    // One-hot expansion helps linear/distance models; tree
                    // ensembles split categorical codes natively and only
                    // get diluted by dozens of extra columns.
                    let level = match ctx.model.as_deref() {
                        Some("LR") | Some("DNN") | Some("KNN") | Some("NB") => 2,
                        _ => 1,
                    };
                    add(
                        "dummies",
                        level,
                        format!("one-hot encode {attr} for linear models"),
                    );
                }
            }
            Concept::GeoCity => {
                add(
                    "dummies",
                    1,
                    format!("one-hot encode {attr}; a density lookup may be more informative"),
                );
            }
            Concept::Identifier => {
                add(
                    "none",
                    0,
                    format!("{attr} is an identifier; no unary transform is helpful"),
                );
            }
            Concept::AcademicScore => {
                add(
                    "normalize",
                    2,
                    format!("z-score {attr} so scores are comparable across scales"),
                );
            }
            Concept::SportsStat | Concept::WinLoss => {
                // Scaling only helps scale-sensitive downstream models;
                // tree ensembles are invariant to it.
                let level = match ctx.model.as_deref() {
                    Some("LR") | Some("DNN") | Some("KNN") => 2,
                    _ => 1,
                };
                add(
                    "normalize",
                    level,
                    format!("scale {attr} so match statistics are comparable across matches"),
                );
            }
            Concept::Temperature => {
                add(
                    "bucketize",
                    3,
                    format!("bucketize {attr} at biological activity thresholds (50, 65, 75)"),
                );
            }
            Concept::WeekOfYear => {
                add(
                    "bucketize",
                    3,
                    format!("band {attr} into seasonal windows; weeks 27-40 are peak season"),
                );
            }
            _ => {}
        }
    }
    if proposals.is_empty() {
        if feature.is_numeric() {
            proposals.push((
                "normalize".into(),
                1,
                format!("no domain-specific transform is evident; scaling {attr} may still help"),
            ));
        } else {
            proposals.push((
                "dummies".into(),
                1,
                format!("treat {attr} as a plain categorical and one-hot encode it"),
            ));
        }
    }
    let mut out = String::new();
    for (i, (op, level, why)) in proposals.iter().enumerate() {
        out.push_str(&format!("{}. {} ({}): {}\n", i + 1, op, conf(*level), why));
    }
    out
}

/// Weighted choice with temperature: weight^(1/max(t, 0.05)).
fn weighted_pick<'a, T>(items: &'a [(T, f64)], rng: &mut Rng, temperature: f64) -> Option<&'a T> {
    if items.is_empty() {
        return None;
    }
    if temperature <= 0.05 {
        // Greedy decoding: the highest-weighted item, first on ties.
        let mut best = &items[0];
        for item in &items[1..] {
            if item.1 > best.1 {
                best = item;
            }
        }
        return Some(&best.0);
    }
    let power = 1.0 / temperature.max(0.05);
    let adjusted: Vec<f64> = items.iter().map(|(_, w)| w.max(1e-9).powf(power)).collect();
    let total: f64 = adjusted.iter().sum();
    let mut draw = rng.gen_f64() * total;
    for (item, w) in items.iter().map(|(i, _)| i).zip(&adjusted) {
        draw -= w;
        if draw <= 0.0 {
            return Some(item);
        }
    }
    items.last().map(|(i, _)| i)
}

/// Polarity of a sports statistic: +1 good, −1 bad, 0 neutral. Mirrored
/// opponent stats (a `.2` suffix when the target concerns player 1) flip
/// sign — the opponent's aces hurt player 1's chances.
fn stat_polarity(f: &FeatureInfo) -> f64 {
    let text = format!("{} {}", f.name, f.description).to_ascii_lowercase();
    const BAD: &[&str] = &["fault", "error", "unforced", "double", "loss", "dropped"];
    const GOOD: &[&str] = &["won", "winner", "ace", "point", "serve", "break", "net"];
    let base = if BAD.iter().any(|k| text.contains(k)) {
        -1.0
    } else if GOOD.iter().any(|k| text.contains(k)) {
        1.0
    } else {
        0.0
    };
    if f.name.ends_with(".2") {
        -base
    } else {
        base
    }
}

/// Player-pair detection: `FSW.1` ↔ `FSW.2` style mirrored stats.
fn mirror_pair<'a>(a: &'a FeatureInfo, feats: &'a [FeatureInfo]) -> Option<&'a FeatureInfo> {
    let (stem, suffix) = a.name.rsplit_once('.')?;
    let other = match suffix {
        "1" => "2",
        "2" => "1",
        _ => return None,
    };
    let target = format!("{stem}.{other}");
    feats.iter().find(|f| f.name == target)
}

fn answer_binary(ctx: &PromptContext, rng: &mut Rng, temperature: f64) -> String {
    let numeric: Vec<&FeatureInfo> = ctx
        .numeric_features()
        .into_iter()
        .filter(|f| {
            Some(f.name.as_str()) != ctx.target.as_deref()
                && !f.concepts().contains(&Concept::Identifier)
                // Raw quantities only: arithmetic on bucket codes, dummies,
                // or aggregate outputs is meaningless.
                && !f.is_derived_code()
        })
        .collect();
    if numeric.len() < 2 {
        return "{\"error\": \"fewer than two numeric attributes are available\"}".to_string();
    }
    // Score candidate (left, right, op) triples by conceptual affinity.
    let mut candidates: Vec<((String, String, char, String), f64)> = Vec::new();
    for (i, a) in numeric.iter().enumerate() {
        if let Some(b) = mirror_pair(a, &ctx.features) {
            if a.name < b.name {
                candidates.push((
                    (
                        a.name.clone(),
                        b.name.clone(),
                        '-',
                        format!(
                            "difference between the two players' {}",
                            if a.description.is_empty() {
                                &a.name
                            } else {
                                &a.description
                            }
                        ),
                    ),
                    20.0,
                ));
            }
        }
        for b in numeric.iter().skip(i + 1) {
            let ca = a.concepts();
            let cb = b.concepts();
            let both = |c: Concept| ca.contains(&c) && cb.contains(&c);
            if both(Concept::Money) {
                candidates.push((
                    (
                        a.name.clone(),
                        b.name.clone(),
                        '-',
                        format!("net amount: {} minus {}", a.name, b.name),
                    ),
                    5.0,
                ));
            }
            if both(Concept::Count)
                || (ca.contains(&Concept::WinLoss) && cb.contains(&Concept::WinLoss))
            {
                candidates.push((
                    (
                        a.name.clone(),
                        b.name.clone(),
                        '/',
                        format!("rate of {} per {}", a.name, b.name),
                    ),
                    4.0,
                ));
            }
            if (ca.contains(&Concept::Money) && cb.contains(&Concept::Hours))
                || (ca.contains(&Concept::Hours) && cb.contains(&Concept::Money))
            {
                let (m, h) = if ca.contains(&Concept::Money) {
                    (a, b)
                } else {
                    (b, a)
                };
                candidates.push((
                    (
                        m.name.clone(),
                        h.name.clone(),
                        '/',
                        format!("{} per hour of {}", m.name, h.name),
                    ),
                    5.0,
                ));
            }
            if (ca.contains(&Concept::SportsStat) || ca.contains(&Concept::WinLoss))
                && (cb.contains(&Concept::SportsStat) || cb.contains(&Concept::WinLoss))
            {
                candidates.push((
                    (
                        a.name.clone(),
                        b.name.clone(),
                        '/',
                        format!("ratio of {} to {}", a.name, b.name),
                    ),
                    1.0,
                ));
            }
            // Pack-years: smoking intensity × age, the classic exposure
            // measure every medical model knows.
            let smoke_age = (ca.contains(&Concept::SmokingIntensity) && cb.contains(&Concept::Age))
                || (cb.contains(&Concept::SmokingIntensity) && ca.contains(&Concept::Age));
            if smoke_age {
                let (s_col, a_col) = if ca.contains(&Concept::SmokingIntensity) {
                    (a, b)
                } else {
                    (b, a)
                };
                candidates.push((
                    (
                        s_col.name.clone(),
                        a_col.name.clone(),
                        '*',
                        format!(
                            "pack-years style exposure: {} times {}",
                            s_col.name, a_col.name
                        ),
                    ),
                    12.0,
                ));
            }
            let a_clinical = ca.iter().any(|c| c.is_clinical());
            let b_clinical = cb.iter().any(|c| c.is_clinical());
            if a_clinical && b_clinical {
                candidates.push((
                    (
                        a.name.clone(),
                        b.name.clone(),
                        '/',
                        format!("clinical ratio of {} to {}", a.name, b.name),
                    ),
                    2.0,
                ));
            }
            if both(Concept::HousingSize) || both(Concept::Coordinate) {
                candidates.push((
                    (
                        a.name.clone(),
                        b.name.clone(),
                        '/',
                        format!("{} per {}", a.name, b.name),
                    ),
                    4.0,
                ));
            }
        }
    }
    // Always admit a weakly-weighted random pair so the space stays rich.
    let i = rng.gen_range(0..numeric.len());
    let j = (i + 1 + rng.gen_range(0..numeric.len() - 1)) % numeric.len();
    let (a, b) = (numeric[i], numeric[j]);
    let op = ['+', '-', '*', '/'][rng.gen_range(0..4usize)];
    candidates.push((
        (
            a.name.clone(),
            b.name.clone(),
            op,
            format!("combination of {} and {}", a.name, b.name),
        ),
        0.5,
    ));
    let Some((left, right, op, desc)) = weighted_pick(&candidates, rng, temperature).cloned()
    else {
        return "{\"error\": \"no candidate pair found\"}".to_string();
    };
    format!(
        "{{\"left\": \"{left}\", \"op\": \"{op}\", \"right\": \"{right}\", \"description\": \"{desc}\"}}"
    )
}

fn answer_highorder(ctx: &PromptContext, rng: &mut Rng, temperature: f64) -> String {
    let target = ctx.target.clone().unwrap_or_default();
    let groupable: Vec<&FeatureInfo> = ctx
        .groupable_features()
        .into_iter()
        .filter(|f| {
            const NON_KEY_PREFIXES: &[&str] = &[
                "Normalized_",
                "Log_",
                "Sqrt_",
                "Squared_",
                "Abs_",
                "Reciprocal_",
                "YearsSince_",
                "Frequency_",
            ];
            f.name != target
                && !f.concepts().contains(&Concept::Identifier)
                // Bucket codes and date parts group well; continuous
                // transforms and aggregate outputs do not.
                && !f.is_aggregate_output()
                && !NON_KEY_PREFIXES.iter().any(|p| f.name.starts_with(p))
        })
        .collect();
    let aggregable: Vec<&FeatureInfo> = ctx
        .numeric_features()
        .into_iter()
        .filter(|f| f.name != target && !f.is_derived_code())
        .collect();
    if groupable.is_empty() || aggregable.is_empty() {
        return "{\"error\": \"no valid groupby/aggregate column combination\"}".to_string();
    }
    // Group keys: prefer conceptual grouping columns; entity identifiers
    // like species or station labels are the canonical surveillance keys.
    let g_weights: Vec<(&FeatureInfo, f64)> = groupable
        .iter()
        .map(|f| {
            let c = f.concepts();
            let w = if c.contains(&Concept::SpeciesOrStation)
                || c.contains(&Concept::ProductModel)
                || c.contains(&Concept::Occupation)
            {
                7.0
            } else if c.iter().any(|cc| cc.is_grouping()) {
                4.0
            } else {
                1.0
            };
            (*f, w)
        })
        .collect();
    // Aggregates: prefer flags/rates (historical outcomes), and columns
    // that share a concept with the prediction target (aggregating an
    // income-like column to predict income, a count of insects to predict
    // infestation, …).
    let target_concepts = ctx
        .target
        .as_deref()
        .map(|t| crate::knowledge::detect(t, ""))
        .unwrap_or_default();
    let a_weights: Vec<(&FeatureInfo, f64)> = aggregable
        .iter()
        .map(|f| {
            let c = f.concepts();
            let mut w = if c.contains(&Concept::BinaryFlag) || c.contains(&Concept::RatePercentage)
            {
                5.0
            } else if c.contains(&Concept::Count) || c.contains(&Concept::Money) {
                2.0
            } else {
                1.0
            };
            if c.iter()
                .any(|cc| *cc != Concept::Generic && target_concepts.contains(cc))
            {
                w *= 4.0;
            }
            (*f, w)
        })
        .collect();
    let Some(gcol) = weighted_pick(&g_weights, rng, temperature).copied() else {
        return "{\"error\": \"no groupby column\"}".to_string();
    };
    // Conditional judgment: given the chosen key, re-weight aggregates.
    // Counts aggregated per entity (insects per trap/species, purchases
    // per product) are the canonical per-group summary.
    let gcol_concepts = gcol.concepts();
    let a_weights: Vec<(&FeatureInfo, f64)> = a_weights
        .into_iter()
        .map(|(f, mut w)| {
            if gcol_concepts.contains(&Concept::SpeciesOrStation)
                && f.concepts().contains(&Concept::Count)
            {
                w *= 6.0;
            }
            (f, w)
        })
        .collect();
    let Some(acol) = weighted_pick(&a_weights, rng, temperature).copied() else {
        return "{\"error\": \"no aggregate column\"}".to_string();
    };
    if gcol.name == acol.name
        || gcol.name.contains(acol.name.as_str())
        || acol.name.contains(gcol.name.as_str())
    {
        // Aggregating a column over (a derivative of) itself is a step
        // function of itself; fall back to a group-size feature.
        return format!(
            "{{\"groupby_col\": [\"{}\"], \"agg_col\": \"{}\", \"function\": \"count\"}}",
            gcol.name, acol.name
        );
    }
    let acol_concepts = acol.concepts();
    let func_weights: Vec<(&str, f64)> = if acol_concepts.contains(&Concept::BinaryFlag)
        || acol_concepts.contains(&Concept::RatePercentage)
    {
        vec![("mean", 6.0), ("sum", 1.0), ("max", 0.5)]
    } else if acol_concepts.contains(&Concept::Count) {
        vec![("mean", 3.0), ("sum", 2.0), ("max", 1.0)]
    } else {
        vec![("mean", 3.0), ("max", 1.0), ("min", 1.0), ("std", 0.5)]
    };
    let func = weighted_pick(&func_weights, rng, temperature)
        .copied()
        .unwrap_or("mean");
    // Occasionally group by two keys when a second grouping column exists
    // (a temperature-dependent exploration move; never at greedy decoding).
    let second = if g_weights.len() > 1 && rng.gen_f64() < 0.25 * temperature.min(1.0) {
        g_weights
            .iter()
            .map(|(f, _)| *f)
            .find(|f| f.name != gcol.name)
    } else {
        None
    };
    let gcols = match second {
        Some(s) => format!("\"{}\", \"{}\"", gcol.name, s.name),
        None => format!("\"{}\"", gcol.name),
    };
    format!(
        "{{\"groupby_col\": [{gcols}], \"agg_col\": \"{}\", \"function\": \"{func}\"}}",
        acol.name
    )
}

fn answer_extractor(ctx: &PromptContext, rng: &mut Rng) -> String {
    let target = ctx.target.clone().unwrap_or_default();
    // 1. City present ⇒ the paper's F4: population-density lookup.
    if let Some(city) = ctx
        .features
        .iter()
        .find(|f| f.concepts().contains(&Concept::GeoCity) && f.name != target)
    {
        return format!(
            "{{\"kind\": \"external_lookup\", \"name\": \"{}_population_density\", \
             \"columns\": [\"{}\"], \"knowledge\": \"city_population_density\", \
             \"description\": \"approximate population density of {} in people per square km\"}}",
            city.name, city.name, city.name
        );
    }
    // 2. Several sports statistics ⇒ a weighted performance index.
    let stats: Vec<&FeatureInfo> = ctx
        .features
        .iter()
        .filter(|f| {
            f.is_numeric()
                && f.name != target
                && !f.is_derived_code()
                && stat_polarity(f) != 0.0
                && f.concepts()
                    .iter()
                    .any(|c| matches!(c, Concept::SportsStat | Concept::WinLoss))
        })
        .collect();
    if stats.len() >= 3 {
        let mut chosen = stats.clone();
        // Keep the index focused: at most 12 components, stable order
        // (covers both players' stat blocks in head-to-head data).
        chosen.truncate(12);
        let cols: Vec<String> = chosen.iter().map(|f| format!("\"{}\"", f.name)).collect();
        let weights: Vec<String> = chosen
            .iter()
            .map(|f| format!("{}", stat_polarity(f)))
            .collect();
        return format!(
            "{{\"kind\": \"weighted_index\", \"name\": \"Performance_index\", \
             \"columns\": [{}], \"weights\": [{}], \"normalize\": true, \
             \"description\": \"standardized weighted performance index combining positive and negative match statistics\"}}",
            cols.join(", "),
            weights.join(", ")
        );
    }
    // 3. Several clinical measurements ⇒ a health-risk index.
    let clinical: Vec<&FeatureInfo> = ctx
        .features
        .iter()
        .filter(|f| {
            f.is_numeric()
                && f.name != target
                && !f.is_derived_code()
                && f.concepts().iter().any(|c| c.is_clinical())
        })
        .collect();
    if clinical.len() >= 2 {
        let cols: Vec<String> = clinical.iter().map(|f| format!("\"{}\"", f.name)).collect();
        let weights: Vec<String> = clinical.iter().map(|_| "1".to_string()).collect();
        return format!(
            "{{\"kind\": \"weighted_index\", \"name\": \"Health_risk_index\", \
             \"columns\": [{}], \"weights\": [{}], \"normalize\": true, \
             \"description\": \"sum of standardized clinical risk measurements\"}}",
            cols.join(", "),
            weights.join(", ")
        );
    }
    // 4. Money + size ⇒ per-unit value.
    let money: Vec<&FeatureInfo> = ctx
        .features
        .iter()
        .filter(|f| {
            f.is_numeric()
                && f.name != target
                && !f.is_derived_code()
                && f.concepts().contains(&Concept::Money)
        })
        .collect();
    let size: Vec<&FeatureInfo> = ctx
        .features
        .iter()
        .filter(|f| {
            f.is_numeric()
                && f.name != target
                && !f.is_derived_code()
                && f.concepts()
                    .iter()
                    .any(|c| matches!(c, Concept::HousingSize | Concept::Count | Concept::Hours))
        })
        .collect();
    if !money.is_empty() && !size.is_empty() {
        let m = money[rng.gen_range(0..money.len())];
        let s = size[rng.gen_range(0..size.len())];
        return format!(
            "{{\"kind\": \"per_unit\", \"name\": \"{}_per_{}\", \"columns\": [\"{}\", \"{}\"], \
             \"description\": \"{} divided by {}\"}}",
            m.name, s.name, m.name, s.name, m.name, s.name
        );
    }
    "{\"kind\": \"none\", \"description\": \"no further extractor feature is evident\"}".to_string()
}

/// Prefix a sampling-dict answer with the `family` tag the evolutionary
/// offspring parser routes on. Error dicts get tagged too; the router
/// still rejects them on their missing fields.
fn tag_family(json: String, family: &str) -> String {
    json.replacen('{', &format!("{{\"family\": \"{family}\", "), 1)
}

/// Mutation: re-draw from the parent's family over the current agenda —
/// the family is preserved, the ingredients are re-sampled, which is
/// exactly a one-ingredient neighborhood move in this operator space.
fn answer_mutation(prompt: &str, ctx: &PromptContext, rng: &mut Rng, temperature: f64) -> String {
    match field_after(prompt, "Parent family:").as_deref() {
        Some("High-order") => tag_family(answer_highorder(ctx, rng, temperature), "HighOrder"),
        Some("Extractor") => tag_family(answer_extractor(ctx, rng), "Extractor"),
        _ => tag_family(answer_binary(ctx, rng, temperature), "Binary"),
    }
}

/// Crossover: inherit one parent's family (an even seeded coin) and
/// re-draw its ingredients over the agenda both parents enriched.
fn answer_crossover(prompt: &str, ctx: &PromptContext, rng: &mut Rng, temperature: f64) -> String {
    let a = field_after(prompt, "Parent A family:").unwrap_or_default();
    let b = field_after(prompt, "Parent B family:").unwrap_or_default();
    let pick = if rng.gen_bool(0.5) { a } else { b };
    match pick.as_str() {
        "High-order" => tag_family(answer_highorder(ctx, rng, temperature), "HighOrder"),
        "Extractor" => tag_family(answer_extractor(ctx, rng), "Extractor"),
        _ => tag_family(answer_binary(ctx, rng, temperature), "Binary"),
    }
}

/// ReAct decision policy: deterministic in the observation. Give up
/// after repeated failures, clear the unary backlog first, then rotate
/// through the sampled families by turn number.
fn answer_react(prompt: &str) -> String {
    let turn: usize = field_after(prompt, "Turn:")
        .and_then(|t| t.parse().ok())
        .unwrap_or(0);
    let failures: usize = field_after(prompt, "Consecutive failures:")
        .and_then(|t| t.parse().ok())
        .unwrap_or(0);
    let first_unexplored = field_after(prompt, "Unexplored attributes:").unwrap_or_default();
    if failures >= 3 {
        return "{\"action\": \"stop\"}".to_string();
    }
    // Fresh streak and attributes left: explore them first. After a
    // failure the policy switches to sampling rather than burning the
    // remaining turns on fruitless proposals.
    if failures == 0 && !first_unexplored.is_empty() && first_unexplored != "none" {
        return format!("{{\"action\": \"propose_unary\", \"attribute\": \"{first_unexplored}\"}}");
    }
    match turn % 3 {
        0 => "{\"action\": \"sample_binary\"}",
        1 => "{\"action\": \"sample_highorder\"}",
        _ => "{\"action\": \"sample_extractor\"}",
    }
    .to_string()
}

fn answer_funcgen(prompt: &str, ctx: &PromptContext) -> String {
    let hint = field_after(prompt, "Operator hint:").unwrap_or_default();
    let columns: Vec<String> = prompt
        .lines()
        .find_map(|l| l.trim().strip_prefix("Relevant columns:"))
        .map(|s| {
            s.split(',')
                .map(|c| c.trim().to_string())
                .filter(|c| !c.is_empty())
                .collect()
        })
        .unwrap_or_default();
    let first_col = columns.first().cloned().unwrap_or_default();
    let feature_meta = ctx.feature(&first_col);

    match hint.as_str() {
        "bucketize" => {
            let bounds = feature_meta
                .and_then(|f| {
                    f.concepts()
                        .iter()
                        .copied()
                        .find_map(knowledge::bucket_boundaries)
                })
                .map(|b| {
                    b.iter()
                        .map(|v| format!("{v}"))
                        .collect::<Vec<_>>()
                        .join(",")
                })
                .unwrap_or_else(|| "auto".to_string());
            format!("FUNCTION: bucketize\nINPUT: {first_col}\nPARAMS: boundaries={bounds}\n")
        }
        "normalize" => {
            let kind = match ctx.model.as_deref() {
                Some("LR") | Some("DNN") => "zscore",
                _ => "minmax",
            };
            format!("FUNCTION: normalize\nINPUT: {first_col}\nPARAMS: kind={kind}\n")
        }
        "log" => format!("FUNCTION: log\nINPUT: {first_col}\nPARAMS: \n"),
        "dummies" => format!("FUNCTION: dummies\nINPUT: {first_col}\nPARAMS: \n"),
        "frequency" => format!("FUNCTION: frequency\nINPUT: {first_col}\nPARAMS: \n"),
        "date_split" => {
            format!("FUNCTION: date_split\nINPUT: {first_col}\nPARAMS: parts=year,month,weekday\n")
        }
        "years_since" => format!(
            "FUNCTION: affine\nINPUT: {first_col}\nPARAMS: scale=-1; offset={}\n",
            knowledge::current_year()
        ),
        "arithmetic" => {
            let op = field_after(prompt, "Arithmetic operator:").unwrap_or_else(|| "+".into());
            format!(
                "FUNCTION: arithmetic\nINPUT: {}\nPARAMS: op={}\n",
                columns.join(", "),
                op
            )
        }
        "groupby" => {
            // The paper notes high-order functions need no FM round-trip;
            // answered here anyway for completeness.
            let agg = field_after(prompt, "Aggregate function:").unwrap_or_else(|| "mean".into());
            format!(
                "FUNCTION: groupby\nINPUT: {}\nPARAMS: agg={}\n",
                columns.join(", "),
                agg
            )
        }
        "weighted_index" => {
            let weights = prompt
                .lines()
                .find_map(|l| l.trim().strip_prefix("Component weights:"))
                .map(str::trim)
                .unwrap_or("");
            let weights = if weights.is_empty() {
                columns
                    .iter()
                    .map(|_| "1".to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            } else {
                weights.to_string()
            };
            format!(
                "FUNCTION: weighted_index\nINPUT: {}\nPARAMS: weights={}; normalize=true\n",
                columns.join(", "),
                weights
            )
        }
        "per_unit" => format!(
            "FUNCTION: arithmetic\nINPUT: {}\nPARAMS: op=/\n",
            columns.join(", ")
        ),
        "external_lookup" => {
            let table = field_after(prompt, "Knowledge source:").unwrap_or_default();
            if table == "city_population_density" {
                format!(
                    "FUNCTION: row_completion\nINPUT: {first_col}\nPARAMS: knowledge={table}\n\
                     NOTE: no closed-form transformation exists; values must be completed \
                     per distinct city via the model\n"
                )
            } else {
                "FUNCTION: unavailable\nSOURCE: https://data.census.gov (American Community \
                 Survey) or https://www.openstreetmap.org extracts\n"
                    .to_string()
            }
        }
        _ => {
            // No hint: fall back on the feature description keywords.
            let desc = prompt
                .lines()
                .find_map(|l| l.trim().strip_prefix("Feature description:"))
                .unwrap_or("")
                .to_ascii_lowercase();
            if desc.contains("bucket") || desc.contains("band") || desc.contains("bin") {
                format!("FUNCTION: bucketize\nINPUT: {first_col}\nPARAMS: boundaries=auto\n")
            } else if desc.contains("normal") || desc.contains("scale") {
                format!("FUNCTION: normalize\nINPUT: {first_col}\nPARAMS: kind=minmax\n")
            } else if desc.contains("density") || desc.contains("population") {
                format!(
                    "FUNCTION: row_completion\nINPUT: {first_col}\nPARAMS: knowledge=city_population_density\n"
                )
            } else {
                "FUNCTION: unavailable\nSOURCE: please provide an operator hint or a richer \
                 feature description\n"
                    .to_string()
            }
        }
    }
}

/// Feature-removal judgment: identifiers and opaque columns whose name
/// and description give the model nothing to work with.
fn answer_removal(ctx: &PromptContext) -> String {
    let removable: Vec<&str> = ctx
        .features
        .iter()
        .filter(|f| {
            let concepts = f.concepts();
            let is_identifier = concepts.contains(&Concept::Identifier);
            // An undescribed, conceptless column that is explicitly a
            // sampling artifact (e.g. a census weight) is noise as far as
            // the model can tell. Whole-word match: "weighted index"
            // features must not trip this.
            let opaque = concepts == [Concept::Generic]
                && crate::knowledge::words(&f.description)
                    .iter()
                    .any(|w| w == "weight" || w == "weights");
            is_identifier || opaque
        })
        .map(|f| f.name.as_str())
        .collect();
    if removable.is_empty() {
        "none".to_string()
    } else {
        removable.join(", ")
    }
}

fn answer_row_completion(prompt: &str) -> String {
    // The serialized row is the last non-empty line:
    // `A1: v1, A2: v2, …, NewFeature: ?`
    let Some(row_line) = prompt.lines().rev().find(|l| l.contains(": ?")) else {
        return "unknown".to_string();
    };
    let fields: Vec<(String, String)> = row_line
        .split(", ")
        .filter_map(|pair| {
            let (k, v) = pair.split_once(':')?;
            Some((k.trim().to_string(), v.trim().to_string()))
        })
        .collect();
    let Some((new_name, _)) = fields.iter().find(|(_, v)| v == "?") else {
        return "unknown".to_string();
    };
    let lower = new_name.to_ascii_lowercase();
    if lower.contains("density") || lower.contains("population") {
        // Find the city-ish source value among the known fields.
        if let Some((_, city)) = fields
            .iter()
            .find(|(k, v)| v != "?" && knowledge::detect(k, "").contains(&Concept::GeoCity))
        {
            return format!("{}", knowledge::city_population_density(city));
        }
        // Fallback: any non-numeric value might be the city.
        if let Some((_, v)) = fields
            .iter()
            .find(|(_, v)| v != "?" && v.parse::<f64>().is_err())
        {
            return format!("{}", knowledge::city_population_density(v));
        }
    }
    "unknown".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    const CARD: &str = "Dataset features:\n\
        - Age (int, distinct=47): Age of the policyholder in years\n\
        - Age_of_car (int, distinct=15): Age of the insured vehicle in years\n\
        - Make_Model (str, distinct=12): Make and model of the car\n\
        - Claim (int, distinct=2): Whether a claim was filed in the last 6 months\n\
        - City (str, distinct=3): City where the policyholder lives\n\
        Prediction target: Safe\n\
        Downstream model: RF\n";

    fn fm() -> SimulatedFm {
        SimulatedFm::gpt4(42)
    }

    #[test]
    fn unary_proposal_for_age_has_certain_bucketize() {
        let prompt = format!(
            "{CARD}Consider the unary operators on the attribute 'Age' that can generate \
             helpful features to predict Safe. List all possible appropriate operators."
        );
        let r = fm().complete(&prompt).unwrap();
        assert!(r.text.contains("bucketize (certain)"), "{}", r.text);
        assert!(r.text.contains("21"));
    }

    #[test]
    fn concepts_are_detected_once_per_feature() {
        let fm = fm();
        let mut prompts: Vec<String> = ["Age", "Age_of_car", "Make_Model", "Claim", "City"]
            .iter()
            .map(|a| format!("{CARD}Consider the unary operators on the attribute '{a}'."))
            .collect();
        for task in [
            "Propose one binary arithmetic feature for predicting Safe.",
            "Generate a groupby feature for predicting Safe.",
            "Propose one extractor feature for predicting Safe.",
            "Name the features unlikely to help predict Safe.",
        ] {
            prompts.push(format!("{CARD}{task}"));
            prompts.push(format!("{CARD}{task}"));
        }
        for prompt in &prompts {
            fm.complete(prompt).unwrap();
        }
        assert_eq!(fm.meter().snapshot().calls, prompts.len());
        // Five card features, each detected once across 13 prompts.
        assert_eq!(fm.state.borrow().concepts.len(), 5);
        fm.complete(
            "Dataset features:\n- Age (int): age of the driver\n\
             Consider the unary operators on the attribute 'Age'.",
        )
        .unwrap();
        assert_eq!(
            fm.state.borrow().concepts.len(),
            6,
            "a new description is a new pair"
        );
    }

    #[test]
    fn generator_detects_only_the_columns_it_reads() {
        let fm = SimulatedFm::gpt35(42);
        let funcgen = |name: &str, column: &str, hint: &str| {
            format!(
                "{CARD}Provide an executable transformation function for the feature '{name}'.\n\
                 Feature name: {name}\n\
                 Relevant columns: {column}\n\
                 Feature description: derived from {column}\n\
                 Operator hint: {hint}\n"
            )
        };
        // Only bucketize reads its input column's concepts.
        for (name, column, hint) in [
            ("Normalized_Claim", "Claim", "normalize"),
            ("Dummies_City", "City", "dummies"),
            ("Log_Age_of_car", "Age_of_car", "log"),
        ] {
            fm.complete(&funcgen(name, column, hint)).unwrap();
        }
        assert!(fm.state.borrow().concepts.is_empty());
        let bucketize = funcgen("Bucketized_Age", "Age", "bucketize");
        for _ in 0..3 {
            let r = fm.complete(&bucketize).unwrap();
            assert!(r.text.contains("boundaries=18,21"), "{}", r.text);
        }
        // Of the five card features, only `Age` was read, and it was
        // detected once.
        assert_eq!(fm.state.borrow().concepts.len(), 1);
        assert_eq!(fm.meter().snapshot().calls, 6);
    }

    #[test]
    fn unary_proposal_for_unknown_attribute_is_unhelpful() {
        let prompt =
            format!("{CARD}Consider the unary operators on the attribute 'Nonexistent' now.");
        let r = fm().complete(&prompt).unwrap();
        assert!(r.text.contains("does not appear"));
    }

    #[test]
    fn binary_sampling_returns_parseable_dict() {
        let prompt = format!("{CARD}Propose one binary arithmetic feature for predicting Safe.");
        let r = fm().complete(&prompt).unwrap();
        assert!(r.text.starts_with('{'), "{}", r.text);
        assert!(r.text.contains("\"left\""));
        assert!(r.text.contains("\"op\""));
    }

    #[test]
    fn highorder_prefers_grouping_and_flag_agg() {
        let prompt = format!(
            "{CARD}Generate a groupby feature for predicting Safe by applying \
            'df.groupby(groupby_col)[agg_col].transform(function)'."
        );
        // Sample several times: the flag aggregate and conceptual group key
        // should dominate.
        let model = fm();
        let mut claim_hits = 0;
        for _ in 0..20 {
            let r = model.complete(&prompt).unwrap();
            assert!(r.text.contains("groupby_col"), "{}", r.text);
            if r.text.contains("\"agg_col\": \"Claim\"") {
                claim_hits += 1;
            }
        }
        assert!(claim_hits >= 10, "claim picked {claim_hits}/20");
    }

    #[test]
    fn extractor_proposes_city_density() {
        let prompt = format!("{CARD}Propose one extractor feature for predicting Safe.");
        let r = fm().complete(&prompt).unwrap();
        assert!(r.text.contains("external_lookup"), "{}", r.text);
        assert!(r.text.contains("city_population_density"));
    }

    #[test]
    fn extractor_weighted_index_for_sports() {
        let card = "Dataset features:\n\
            - FSP.1 (float, distinct=60): First serve percentage for player 1\n\
            - ACE.1 (int, distinct=20): Aces won by player 1\n\
            - DBF.1 (int, distinct=12): Double faults committed by player 1\n\
            - UFE.1 (int, distinct=40): Unforced errors by player 1\n\
            Prediction target: Result\n\
            Downstream model: RF\n";
        let prompt = format!("{card}Propose one extractor feature for predicting Result.");
        let r = fm().complete(&prompt).unwrap();
        assert!(r.text.contains("weighted_index"), "{}", r.text);
        assert!(
            r.text.contains("-1"),
            "negative polarity for faults: {}",
            r.text
        );
    }

    #[test]
    fn mutation_preserves_parent_family_tag() {
        let prompt = format!(
            "{CARD}Mutate the candidate feature below into a different feature for predicting \
             Safe.\n\
             Parent family: High-order\n\
             Parent name: GroupBy_City_mean_Claim\n\
             Parent columns: City, Claim\n\
             Parent description: df.groupby([City])[Claim].transform(mean)\n"
        );
        let r = fm().complete(&prompt).unwrap();
        assert!(r.text.contains("\"family\": \"HighOrder\""), "{}", r.text);
        assert!(r.text.contains("groupby_col"), "{}", r.text);
    }

    #[test]
    fn crossover_inherits_a_parent_family() {
        let prompt = format!(
            "{CARD}Combine the two parent features below into one offspring feature for \
             predicting Safe.\n\
             Parent A family: Binary\n\
             Parent A name: Age_div_Age_of_car\n\
             Parent A columns: Age, Age_of_car\n\
             Parent B family: Binary\n\
             Parent B name: Age_plus_Claim\n\
             Parent B columns: Age, Claim\n"
        );
        let r = fm().complete(&prompt).unwrap();
        assert!(r.text.contains("\"family\": \"Binary\""), "{}", r.text);
        assert!(r.text.contains("\"left\""), "{}", r.text);
    }

    #[test]
    fn react_policy_is_deterministic_in_the_observation() {
        let observe = |turn: usize, unexplored: &str, failures: usize| {
            format!(
                "{CARD}Decide the next exploration action for predicting Safe.\n\
                 Observation:\n\
                 Turn: {turn}/8\n\
                 Features generated: 3\n\
                 Unexplored attributes: {unexplored}\n\
                 Last action: start\n\
                 Last outcome: n/a\n\
                 Last feature score: n/a\n\
                 Consecutive failures: {failures}\n"
            )
        };
        let model = fm();
        // Repeated failures end the search.
        let r = model.complete(&observe(3, "none", 3)).unwrap();
        assert!(r.text.contains("\"action\": \"stop\""), "{}", r.text);
        // On a clean streak an unexplored attribute is proposed, by name.
        let r = model.complete(&observe(1, "City, Age", 0)).unwrap();
        assert!(
            r.text.contains("\"action\": \"propose_unary\""),
            "{}",
            r.text
        );
        assert!(r.text.contains("\"attribute\": \"City\""), "{}", r.text);
        // After a failure the policy samples instead of re-proposing.
        let r = model.complete(&observe(3, "City, Age", 1)).unwrap();
        assert!(r.text.contains("sample_binary"), "{}", r.text);
        // Otherwise the sampled families rotate with the turn number.
        let r = model.complete(&observe(3, "none", 0)).unwrap();
        assert!(r.text.contains("sample_binary"), "{}", r.text);
        let r = model.complete(&observe(4, "none", 0)).unwrap();
        assert!(r.text.contains("sample_highorder"), "{}", r.text);
        let r = model.complete(&observe(5, "none", 0)).unwrap();
        assert!(r.text.contains("sample_extractor"), "{}", r.text);
    }

    #[test]
    fn funcgen_bucketize_uses_domain_boundaries() {
        let prompt = format!(
            "{CARD}Provide an executable transformation function for the feature 'Bucketized_Age'.\n\
             Feature name: Bucketized_Age\n\
             Relevant columns: Age\n\
             Feature description: group ages into insurance bands\n\
             Operator hint: bucketize\n"
        );
        let r = fm().complete(&prompt).unwrap();
        assert!(r.text.contains("FUNCTION: bucketize"));
        assert!(r.text.contains("21"), "{}", r.text);
    }

    #[test]
    fn funcgen_years_since_uses_frozen_year() {
        let prompt = format!(
            "{CARD}Provide an executable transformation function for the feature 'Manufacturing_year'.\n\
             Feature name: Manufacturing_year\n\
             Relevant columns: Age_of_car\n\
             Feature description: manufacturing year of the car\n\
             Operator hint: years_since\n"
        );
        let r = fm().complete(&prompt).unwrap();
        assert!(r.text.contains("offset=2024"), "{}", r.text);
    }

    #[test]
    fn row_completion_answers_density() {
        let prompt = "Complete the value of the last field.\n\
            City: SF, City_population_density: ?";
        let r = fm().complete(prompt).unwrap();
        assert_eq!(r.text, "7272");
    }

    #[test]
    fn row_completion_unknown_without_city() {
        let prompt = "Complete the value of the last field.\n\
            Age: 31, Mystery: ?";
        let r = fm().complete(prompt).unwrap();
        assert_eq!(r.text, "unknown");
    }

    #[test]
    fn meter_accumulates_and_budget_enforced() {
        let model = SimulatedFm::new(
            ModelSpec::gpt4(),
            FmConfig {
                seed: 1,
                call_budget: Some(2),
                ..FmConfig::default()
            },
        );
        model.complete("hello").unwrap();
        model.complete("hello").unwrap();
        assert!(matches!(
            model.complete("hello"),
            Err(FmError::BudgetExhausted { budget: 2 })
        ));
        let snap = model.meter().snapshot();
        assert_eq!(snap.calls, 2);
        assert!(snap.cost_usd > 0.0);
        assert!(snap.prompt_tokens > 0);
    }

    #[test]
    fn deterministic_transcripts() {
        let p = format!("{CARD}Propose one binary arithmetic feature for predicting Safe.");
        let run = |seed| {
            let m = SimulatedFm::gpt4(seed);
            (0..5)
                .map(|_| m.complete(&p).unwrap().text)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn error_injection_degrades_some_outputs() {
        let m = SimulatedFm::new(
            ModelSpec::gpt4(),
            FmConfig {
                seed: 3,
                error_rate: 1.0,
                ..FmConfig::default()
            },
        );
        let p = format!("{CARD}Propose one binary arithmetic feature for predicting Safe.");
        let good = SimulatedFm::gpt4(3).complete(&p).unwrap().text;
        let bad = m.complete(&p).unwrap().text;
        assert_ne!(good, bad);
    }

    #[test]
    fn shallow_coverage_hedges_knowledge_heavy_answers() {
        let shallow = SimulatedFm::new(
            ModelSpec::babbage_002(),
            FmConfig {
                seed: 42,
                coverage: KnowledgeCoverage::Shallow,
                ..FmConfig::default()
            },
        );
        // Domain confidence collapses to medium.
        let unary = format!(
            "{CARD}Consider the unary operators on the attribute 'Age' that can generate \
             helpful features to predict Safe. List all possible appropriate operators."
        );
        let r = shallow.complete(&unary).unwrap();
        assert!(!r.text.contains("(certain)"), "{}", r.text);
        assert!(!r.text.contains("(high)"), "{}", r.text);
        assert!(r.text.contains("(medium)"), "{}", r.text);
        // World-knowledge lookups are absent.
        let row = "Complete the value of the last field.\n\
            City: SF, City_population_density: ?";
        assert_eq!(shallow.complete(row).unwrap().text, "unknown");
        // Bucket boundaries degrade to the auto placeholder.
        let funcgen = format!(
            "{CARD}Provide an executable transformation function for the feature 'Bucketized_Age'.\n\
             Feature name: Bucketized_Age\n\
             Relevant columns: Age\n\
             Feature description: group ages into insurance bands\n\
             Operator hint: bucketize\n"
        );
        let r = shallow.complete(&funcgen).unwrap();
        assert!(r.text.contains("boundaries=auto"), "{}", r.text);
    }

    #[test]
    fn generic_prompt_gets_generic_answer() {
        let r = fm().complete("What's the weather like?").unwrap();
        assert!(r.text.contains("more context"));
    }

    #[test]
    fn temperature_zero_is_argmaxish() {
        let m = SimulatedFm::new(
            ModelSpec::gpt4(),
            FmConfig {
                seed: 5,
                temperature: 0.0,
                ..FmConfig::default()
            },
        );
        let p = format!(
            "{CARD}Generate a groupby feature for predicting Safe by applying \
            'df.groupby(groupby_col)[agg_col].transform(function)'."
        );
        let texts: Vec<String> = (0..10).map(|_| m.complete(&p).unwrap().text).collect();
        let first = &texts[0];
        // Near-argmax sampling: the modal answer strongly dominates.
        let same = texts.iter().filter(|t| *t == first).count();
        assert!(same >= 7, "only {same}/10 identical at T=0");
    }
}
