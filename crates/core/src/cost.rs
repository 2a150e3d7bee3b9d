//! Per-module time and token accounting (reproduces paper Table 6).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Pipeline modules charged in the ledger, mirroring Table 6's rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Module {
    /// Extraction stage total (entity & column + retrieval).
    Extraction,
    /// LLM entity/column extraction call.
    EntityColumn,
    /// Vector value/column retrieval.
    Retrieval,
    /// Generation stage.
    Generation,
    /// Refinement stage total.
    Refinement,
    /// Execution-guided correction.
    Correction,
    /// Static analysis of each statement refinement is about to execute.
    Analyze,
    /// Self-consistency & vote.
    Vote,
    /// All alignments together.
    Alignments,
    /// SELECT-style alignment (runs every time).
    SelectAlign,
    /// Agent alignment.
    AgentAlign,
    /// Style alignment.
    StyleAlign,
    /// Function alignment.
    FunctionAlign,
}

impl Module {
    /// All modules in report order.
    pub fn all() -> [Module; 13] {
        use Module::*;
        [
            Extraction, EntityColumn, Retrieval, Generation, Refinement, Correction, Analyze,
            Vote, Alignments, SelectAlign, AgentAlign, StyleAlign, FunctionAlign,
        ]
    }

    /// Display name matching the paper's Table 6 rows.
    pub fn as_str(&self) -> &'static str {
        match self {
            Module::Extraction => "Extraction",
            Module::EntityColumn => "Entity & Column",
            Module::Retrieval => "Retrieval",
            Module::Generation => "Generation",
            Module::Refinement => "Refinement",
            Module::Correction => "Correction",
            Module::Analyze => "Static Analysis",
            Module::Vote => "Self-consistency & Vote",
            Module::Alignments => "Alignments",
            Module::SelectAlign => "SELECT Alignment",
            Module::AgentAlign => "Agent Alignment",
            Module::StyleAlign => "Style Alignment",
            Module::FunctionAlign => "Function Alignment",
        }
    }
}

/// Accumulated cost of one module.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ModuleCost {
    /// Modelled + measured time in milliseconds.
    pub time_ms: f64,
    /// LLM tokens (prompt + completion).
    pub tokens: u64,
    /// Number of charges.
    pub calls: u64,
}

/// The per-run (or aggregated) cost ledger.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CostLedger {
    entries: BTreeMap<Module, ModuleCost>,
}

impl CostLedger {
    /// Empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge a module.
    pub fn charge(&mut self, module: Module, time_ms: f64, tokens: u64) {
        let e = self.entries.entry(module).or_default();
        e.time_ms += time_ms;
        e.tokens += tokens;
        e.calls += 1;
    }

    /// Cost of one module.
    pub fn get(&self, module: Module) -> ModuleCost {
        self.entries.get(&module).copied().unwrap_or_default()
    }

    /// Merge another ledger into this one.
    pub fn merge(&mut self, other: &CostLedger) {
        self.add(other, true);
    }

    /// Merge another ledger's `calls` and `tokens` but none of its time:
    /// what a candidate that reused shared work records for it.
    pub fn merge_counts(&mut self, other: &CostLedger) {
        self.add(other, false);
    }

    fn add(&mut self, other: &CostLedger, timed: bool) {
        for (m, c) in &other.entries {
            let e = self.entries.entry(*m).or_default();
            if timed {
                e.time_ms += c.time_ms;
            }
            e.tokens += c.tokens;
            e.calls += c.calls;
        }
    }

    /// Whole-pipeline totals (sum of top-level stages, not sub-modules).
    pub fn pipeline_total(&self) -> ModuleCost {
        let mut total = ModuleCost::default();
        for m in [Module::Extraction, Module::Generation, Module::Refinement, Module::Alignments] {
            let c = self.get(m);
            total.time_ms += c.time_ms;
            total.tokens += c.tokens;
            total.calls += c.calls;
        }
        total
    }

    /// Iterate entries in report order.
    pub fn iter(&self) -> impl Iterator<Item = (Module, ModuleCost)> + '_ {
        self.entries.iter().map(|(m, c)| (*m, *c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_accumulates() {
        let mut l = CostLedger::new();
        l.charge(Module::Generation, 10.0, 100);
        l.charge(Module::Generation, 5.0, 50);
        let c = l.get(Module::Generation);
        assert_eq!(c.calls, 2);
        assert_eq!(c.tokens, 150);
        assert!((c.time_ms - 15.0).abs() < 1e-9);
    }

    #[test]
    fn merge_and_total() {
        let mut a = CostLedger::new();
        a.charge(Module::Extraction, 2.0, 10);
        let mut b = CostLedger::new();
        b.charge(Module::Extraction, 3.0, 20);
        b.charge(Module::Generation, 7.0, 70);
        a.merge(&b);
        assert_eq!(a.get(Module::Extraction).tokens, 30);
        let total = a.pipeline_total();
        assert_eq!(total.tokens, 100);
        assert!((total.time_ms - 12.0).abs() < 1e-9);
    }

    #[test]
    fn merge_counts_leaves_time_out() {
        let mut work = CostLedger::new();
        work.charge(Module::Analyze, 0.3, 0);
        work.charge(Module::Correction, 40.0, 120);
        let mut l = CostLedger::new();
        l.charge(Module::Analyze, 0.1, 0);
        l.merge_counts(&work);
        assert_eq!(l.get(Module::Analyze), ModuleCost { time_ms: 0.1, tokens: 0, calls: 2 });
        assert_eq!(l.get(Module::Correction), ModuleCost { time_ms: 0.0, tokens: 120, calls: 1 });
    }

    #[test]
    fn unknown_module_is_zero() {
        let l = CostLedger::new();
        assert_eq!(l.get(Module::Vote), ModuleCost::default());
    }
}
