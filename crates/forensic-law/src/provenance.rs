//! Decision provenance: the ordered list of rule firings behind a verdict.
//!
//! The paper's framework only matters if an investigator can show *why*
//! a verdict came out the way it did — which authority (Fourth
//! Amendment / Wiretap Act / SCA / Pen-Trap) governed, which exception
//! applied, and which process tier was selected. A [`Provenance`] is
//! that audit trail: every rule the engine evaluated that changed (or
//! could have changed) the outcome appends a [`RuleFiring`], in
//! evaluation order. **The firing order is part of the contract** — it
//! mirrors the engine's layering (privacy calculus, then statutes, then
//! the constitutional layer and its exceptions, then the final fold)
//! and is pinned by a golden test.
//!
//! Firings are deliberately flat and `Copy` (static rule ids, static
//! effect strings, a typed authority and process tier) so a provenance
//! record clones as one `memcpy`-able vector and serializes to JSON
//! without escaping surprises.

use crate::casebook::CitationId;
use crate::process::LegalProcess;
use std::fmt;

/// One rule firing: a stable rule identifier, the authority it rests
/// on, what it did to the outcome, and the process tier it demanded or
/// waived (when the rule speaks to process at all).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleFiring {
    rule: &'static str,
    authority: Option<CitationId>,
    effect: &'static str,
    process: Option<LegalProcess>,
}

impl RuleFiring {
    /// The stable, dot-namespaced rule identifier (e.g.
    /// `"statute.wiretap"`, `"exception.consent"`, `"verdict.final"`).
    pub fn rule(&self) -> &'static str {
        self.rule
    }

    /// The primary authority the rule rests on, if one is on point.
    pub fn authority(&self) -> Option<CitationId> {
        self.authority
    }

    /// What the firing did to the outcome, in one static phrase.
    pub fn effect(&self) -> &'static str {
        self.effect
    }

    /// The process tier this firing demanded (or waived, as
    /// [`LegalProcess::None`]), when the rule speaks to process.
    pub fn process(&self) -> Option<LegalProcess> {
        self.process
    }

    fn write_json(&self, out: &mut String) {
        out.push_str("{\"rule\":\"");
        push_escaped(out, self.rule);
        out.push('"');
        if let Some(authority) = self.authority {
            out.push_str(",\"authority\":\"");
            push_escaped(out, &format!("{authority:?}"));
            out.push('"');
        }
        out.push_str(",\"effect\":\"");
        push_escaped(out, self.effect);
        out.push('"');
        if let Some(process) = self.process {
            out.push_str(",\"process\":\"");
            push_escaped(out, &process.to_string());
            out.push('"');
        }
        out.push('}');
    }
}

impl fmt::Display for RuleFiring {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.rule, self.effect)?;
        if let Some(authority) = self.authority {
            write!(f, " [{authority:?}]")?;
        }
        if let Some(process) = self.process {
            write!(f, " -> {process}")?;
        }
        Ok(())
    }
}

/// Appends `s` to `out` escaped for a JSON string literal: `"` and `\`
/// are backslash-escaped and every control character becomes `\u00XX`.
/// The one escaper behind every hand-written JSONL record in the
/// workspace (provenance, explain sinks), so their bytes agree.
pub fn push_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// The ordered rule firings that produced one verdict.
///
/// # Examples
///
/// ```
/// use forensic_law::prelude::*;
///
/// let engine = ComplianceEngine::new();
/// let action = InvestigativeAction::builder(
///     Actor::law_enforcement(),
///     DataSpec::new(
///         ContentClass::Content,
///         Temporality::stored_opened(),
///         DataLocation::SuspectDevice,
///     ),
/// )
/// .build();
/// let assessment = engine.assess(&action);
/// let provenance = assessment.provenance();
/// assert!(!provenance.is_empty());
/// // The last firing always states the final verdict.
/// assert_eq!(provenance.firings().last().unwrap().rule(), "verdict.final");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Provenance {
    firings: Vec<RuleFiring>,
}

impl Provenance {
    /// An empty record ready for firings.
    pub fn new() -> Provenance {
        Provenance::default()
    }

    /// Appends a firing. Engine-internal; order of calls is the order
    /// of the record.
    pub(crate) fn fire(
        &mut self,
        rule: &'static str,
        authority: Option<CitationId>,
        effect: &'static str,
        process: Option<LegalProcess>,
    ) {
        self.firings.push(RuleFiring {
            rule,
            authority,
            effect,
            process,
        });
    }

    /// The firings, in evaluation order.
    pub fn firings(&self) -> &[RuleFiring] {
        &self.firings
    }

    /// Number of firings recorded.
    pub fn len(&self) -> usize {
        self.firings.len()
    }

    /// Whether no rule fired (never true for an engine-produced record).
    pub fn is_empty(&self) -> bool {
        self.firings.is_empty()
    }

    /// The record as one JSON array, e.g.
    /// `[{"rule":"privacy.rep","authority":"KatzVUnitedStates",...}]`.
    /// Stable across runs for a given action: same firings, same order,
    /// same bytes.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 * self.firings.len() + 2);
        out.push('[');
        for (i, firing) in self.firings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            firing.write_json(&mut out);
        }
        out.push(']');
        out
    }
}

/// `Display` walks the firings one per line, numbered — the terminal
/// rendering of the audit chain.
impl fmt::Display for Provenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, firing) in self.firings.iter().enumerate() {
            writeln!(f, "  {}. {firing}", i + 1)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Provenance {
        let mut p = Provenance::new();
        p.fire(
            "privacy.rep",
            Some(CitationId::KatzVUnitedStates),
            "reasonable expectation of privacy found",
            None,
        );
        p.fire(
            "verdict.final",
            None,
            "most demanding requirement selected",
            Some(LegalProcess::SearchWarrant),
        );
        p
    }

    #[test]
    fn firings_keep_order_and_fields() {
        let p = sample();
        assert_eq!(p.len(), 2);
        assert_eq!(p.firings()[0].rule(), "privacy.rep");
        assert_eq!(
            p.firings()[0].authority(),
            Some(CitationId::KatzVUnitedStates)
        );
        assert_eq!(p.firings()[1].process(), Some(LegalProcess::SearchWarrant));
    }

    #[test]
    fn json_is_stable_and_well_formed() {
        let p = sample();
        let json = p.to_json();
        assert!(json.starts_with('['));
        assert!(json.ends_with(']'));
        assert!(json.contains("\"rule\":\"privacy.rep\""));
        assert!(json.contains("\"authority\":\"KatzVUnitedStates\""));
        assert!(json.contains("\"process\":\"search warrant\""));
        assert_eq!(json, p.to_json(), "serialization must be deterministic");
    }

    #[test]
    fn empty_record_serializes_to_empty_array() {
        assert_eq!(Provenance::new().to_json(), "[]");
        assert!(Provenance::new().is_empty());
    }

    #[test]
    fn escaping_handles_quotes_and_controls() {
        let mut out = String::new();
        push_escaped(&mut out, "a\"b\\c\nd");
        assert_eq!(out, "a\\\"b\\\\c\\u000ad");
    }

    #[test]
    fn display_numbers_the_chain() {
        let text = sample().to_string();
        assert!(text.contains("1. privacy.rep"));
        assert!(text.contains("2. verdict.final"));
        assert!(text.contains("-> search warrant"));
    }
}
