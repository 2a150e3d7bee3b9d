//! The Extraction stage (paper §3.4): entity extraction, value retrieval,
//! column filtering, and Info Alignment.

use crate::config::PipelineConfig;
use crate::cost::{CostLedger, Module};
use crate::preprocess::Preprocessed;
use crate::retrieval::ValueHit;
use llmsim::proto;
use llmsim::{ChatRequest, LanguageModel};
use sqlkit::SchemaSubset;
use std::time::Instant;

/// Everything Extraction hands to Generation.
#[derive(Debug, Default)]
pub struct ExtractionOutput {
    /// Selected schema subset (`None` = use the full schema).
    pub subset: Option<SchemaSubset>,
    /// Retrieved similar values.
    pub value_hits: Vec<ValueHit>,
    /// Entity mentions extracted from the question.
    pub entities: Vec<String>,
    /// Expected number of SELECT items (from SELECT-style alignment).
    pub expected_select: Option<usize>,
}

/// Run the Extraction stage.
pub fn run_extraction(
    pre: &Preprocessed,
    llm: &dyn LanguageModel,
    config: &PipelineConfig,
    db_id: &str,
    question: &str,
    evidence: &str,
    ledger: &mut CostLedger,
) -> ExtractionOutput {
    let mut out = ExtractionOutput::default();
    let Some(db) = pre.db(db_id) else {
        return out;
    };
    let Some(assets) = pre.assets(db_id) else {
        return out;
    };
    let stage_start = Instant::now();

    if config.extraction {
        // --- entity & column extraction (LLM)
        let prompt = format!(
            "{} {}\n{} {}\n{}\n{}\n{}\n/* Answer the following: {} */\n",
            proto::TASK_PREFIX,
            proto::TASK_EXTRACTION,
            proto::DB_PREFIX,
            db_id,
            proto::SCHEMA_HEADER,
            assets.schema_text,
            evidence_line(evidence),
            question
        );
        let resp = llm.complete(&ChatRequest::once(prompt));
        ledger.charge(
            Module::EntityColumn,
            resp.latency_ms,
            (resp.prompt_tokens + resp.completion_tokens) as u64,
        );
        let text = resp.texts.first().map(String::as_str).unwrap_or("");
        out.entities = parse_list(proto::parse_field(text, "entities").unwrap_or(""));
        let llm_columns = parse_list(proto::parse_field(text, "columns").unwrap_or(""));

        // --- value retrieval (vector + scan multi-path)
        if config.values_retrieval {
            let t0 = Instant::now();
            for entity in &out.entities {
                for hit in assets.values.retrieve(
                    entity,
                    config.retrieval_top_k,
                    config.retrieval_threshold,
                ) {
                    if !out
                        .value_hits
                        .iter()
                        .any(|h: &ValueHit| h.table == hit.table && h.column == hit.column && h.stored == hit.stored)
                    {
                        out.value_hits.push(hit);
                    }
                }
            }
            ledger.charge(Module::Retrieval, t0.elapsed().as_secs_f64() * 1e3, 0);
        }

        // --- column filtering: LLM picks ∪ value-hit columns ∪ vector recall
        if config.column_filtering {
            let t0 = Instant::now();
            let mut subset = SchemaSubset::new();
            for qualified in &llm_columns {
                if let Some((t, c)) = qualified.split_once('.') {
                    if db.col_meta(t.trim(), c.trim()).is_some() {
                        subset.insert(t.trim(), c.trim());
                    }
                }
            }
            for hit in &out.value_hits {
                subset.insert(&hit.table, &hit.column);
            }
            for entity in &out.entities {
                for (t, c) in assets.columns.retrieve(entity, 2, 0.5) {
                    subset.insert(&t, &c);
                }
            }
            ledger.charge(Module::Retrieval, t0.elapsed().as_secs_f64() * 1e3, 0);
            if config.table_level_linking {
                let tables: Vec<String> = db
                    .tables
                    .iter()
                    .filter(|t| subset.contains_table(&t.name))
                    .map(|t| t.name.clone())
                    .collect();
                for t in tables {
                    if let Some(meta) = db.table_meta(&t) {
                        for c in &meta.cols {
                            subset.insert(&t, &c.name);
                        }
                    }
                }
            }
            if !subset.is_empty() {
                out.subset = Some(subset);
            }
        }
    }

    // --- Info Alignment: schema expansion + SELECT-style alignment
    if config.info_alignment {
        if let Some(subset) = &mut out.subset {
            subset.expand_for_alignment(&db.database.schema);
        }
        let prompt = format!(
            "{} {}\n{} {}\n{}\n/* Answer the following: {} */\n",
            proto::TASK_PREFIX,
            proto::TASK_SELECT_ALIGN,
            proto::DB_PREFIX,
            db_id,
            evidence_line(evidence),
            question
        );
        let resp = llm.complete(&ChatRequest::once(prompt));
        ledger.charge(
            Module::SelectAlign,
            resp.latency_ms,
            (resp.prompt_tokens + resp.completion_tokens) as u64,
        );
        out.expected_select = resp
            .texts
            .first()
            .and_then(|t| proto::parse_field(t, "select_count"))
            .and_then(|s| s.parse::<usize>().ok());
    }

    ledger.charge(Module::Extraction, stage_start.elapsed().as_secs_f64() * 1e3, 0);
    out
}

/// Render the values block of a generation/correction prompt.
pub fn values_block(hits: &[ValueHit]) -> String {
    if hits.is_empty() {
        return String::new();
    }
    let mut out = String::from(proto::VALUES_HEADER);
    out.push('\n');
    for h in hits {
        out.push_str(&format!(
            "# {}.{} = '{}'\n",
            h.table,
            h.column,
            h.stored.replace('\'', "''")
        ));
    }
    out
}

/// Render the evidence line ("" stays empty).
pub fn evidence_line(evidence: &str) -> String {
    if evidence.is_empty() {
        String::new()
    } else {
        format!("{} {}", proto::EVIDENCE_PREFIX, evidence)
    }
}

fn parse_list(s: &str) -> Vec<String> {
    s.split('|')
        .map(str::trim)
        .filter(|x| !x.is_empty())
        .map(str::to_owned)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{generate, Profile};
    use llmsim::{ModelProfile, Oracle, SimLlm};
    use std::sync::Arc;

    fn fixture() -> (Preprocessed, SimLlm) {
        let bench = Arc::new(generate(&Profile::tiny()));
        let oracle = Arc::new(Oracle::new(bench.clone()));
        let llm = SimLlm::new(oracle.clone(), ModelProfile::gpt_4o(), 3);
        let pre = Preprocessed::run(bench, &llm);
        (pre, llm)
    }

    #[test]
    fn full_extraction_produces_subset_and_values() {
        let (pre, llm) = fixture();
        let config = PipelineConfig::full();
        let mut got_values = 0;
        let mut got_subset = 0;
        let mut ledger = CostLedger::new();
        for ex in pre.benchmark.dev.clone().iter().take(8) {
            let out = run_extraction(
                &pre, &llm, &config, &ex.db_id, &ex.question, &ex.evidence, &mut ledger,
            );
            if !out.value_hits.is_empty() {
                got_values += 1;
            }
            if let Some(s) = &out.subset {
                got_subset += 1;
                assert!(!s.is_empty());
            }
            // expected select comes from info alignment
            assert!(out.expected_select.is_some());
        }
        assert!(got_subset >= 6, "subsets {got_subset}/8");
        assert!(got_values >= 1, "value hits {got_values}/8");
        assert!(ledger.get(Module::EntityColumn).calls >= 8);
        assert!(ledger.get(Module::Extraction).time_ms > 0.0);
    }

    #[test]
    fn disabled_extraction_returns_full_schema_mode() {
        let (pre, llm) = fixture();
        let config = PipelineConfig::full().without_extraction();
        let ex = &pre.benchmark.dev[0].clone();
        let mut ledger = CostLedger::new();
        let out = run_extraction(
            &pre, &llm, &config, &ex.db_id, &ex.question, &ex.evidence, &mut ledger,
        );
        assert!(out.subset.is_none());
        assert!(out.value_hits.is_empty());
        // info alignment still aligns SELECT style
        assert!(out.expected_select.is_some());
    }

    #[test]
    fn subset_contains_needed_columns_usually() {
        let (pre, llm) = fixture();
        let config = PipelineConfig::full();
        let mut ledger = CostLedger::new();
        let mut covered = 0usize;
        let mut total = 0usize;
        for ex in pre.benchmark.dev.clone().iter().take(10) {
            let out = run_extraction(
                &pre, &llm, &config, &ex.db_id, &ex.question, &ex.evidence, &mut ledger,
            );
            if let Some(subset) = &out.subset {
                for (t, c) in ex.spec.columns_used() {
                    total += 1;
                    if subset.contains(&t, &c) {
                        covered += 1;
                    }
                }
            }
        }
        assert!(total > 0);
        let recall = covered as f64 / total as f64;
        assert!(recall > 0.8, "column recall {recall}");
    }

    #[test]
    fn values_block_renders_protocol_lines() {
        let hits = vec![ValueHit {
            table: "Patient".into(),
            column: "City".into(),
            stored: "OSL".into(),
            score: 0.9,
        }];
        let block = values_block(&hits);
        let parsed = proto::parse_values_block(&block);
        assert_eq!(parsed, vec![("patient".into(), "city".into(), "OSL".into())]);
        assert!(values_block(&[]).is_empty());
    }
}
