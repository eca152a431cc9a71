//! The Assistant: FISQL's NL2SQL front end (§3.2).
//!
//! For each question the Assistant retrieves query-relevant
//! demonstrations (RAG), asks the model, executes the SQL against the
//! database, and returns the four outputs of the paper: (a) the execution
//! result, (b) a reformulation of the question, (c) a step-by-step NL
//! explanation, and (d) the SQL itself ("Show source").

use crate::explain::{explain_query, reformulate};
use fisql_engine::{Database, ResultSet};
use fisql_llm::{DemoStore, Demonstration, GenMode, GenRequest, SimLlm};
use fisql_spider::{Corpus, Example};
use fisql_sqlkit::{normalize_query, print_query, print_query_spanned, Query, SpannedSql};

/// One Assistant response.
#[derive(Debug, Clone)]
pub struct AssistantTurn {
    /// The generated query, normalized (the pipeline's working form).
    pub query: Query,
    /// Rendered SQL (the "Show source" view).
    pub sql_text: String,
    /// Rendered SQL with clause spans, for highlighting.
    pub spanned: SpannedSql,
    /// The Assistant's reformulation of the question.
    pub reformulation: String,
    /// Step-by-step explanation.
    pub explanation: String,
    /// Execution result or error message ("We found nothing for your
    /// query" style failures surface here).
    pub result: Result<ResultSet, String>,
    /// Diagnostic: error channels that fired in the simulated model.
    pub fired: Vec<&'static str>,
}

/// The Assistant configuration.
#[derive(Debug, Clone)]
pub struct Assistant {
    /// The backing (simulated) LLM.
    pub llm: SimLlm,
    /// RAG demonstration store.
    pub store: DemoStore,
    /// Demonstrations per prompt (0 = zero-shot, Figure 1).
    pub demos_k: usize,
}

impl Assistant {
    /// Builds an Assistant whose demonstration pool is sampled from the
    /// corpus itself (every fourth example — a stand-in for the paper's
    /// separate training split; retrieval never sees the example under
    /// evaluation because demos are keyed by question text and the
    /// simulated model only consumes the *count*).
    pub fn for_corpus(corpus: &Corpus, llm: SimLlm, demos_k: usize) -> Assistant {
        let demos: Vec<Demonstration> = corpus
            .examples
            .iter()
            .step_by(4)
            .map(|e| Demonstration {
                question: e.question.clone(),
                sql: print_query(&e.gold),
            })
            .collect();
        Assistant {
            llm,
            store: DemoStore::new(demos),
            demos_k,
        }
    }

    /// Answers `example` against `db`. `salt` distinguishes repeated
    /// generations (attempt number).
    pub fn answer(&self, db: &Database, example: &Example, salt: u64) -> AssistantTurn {
        // Row-budget guard only (no wall-clock deadline): the rendered
        // grid participates in deterministic replay, so the outcome must
        // not depend on machine load.
        let guard = fisql_engine::ExecLimits {
            max_rows: fisql_engine::ExecLimits::interactive().max_rows,
            deadline_ms: None,
        };
        self.answer_with(db, example, salt, |db, q| {
            fisql_engine::execute_with_limits(db, q, guard).map_err(|e| e.to_string())
        })
    }

    /// [`answer`](Assistant::answer) with the render's engine call
    /// abstracted out (see [`present_with`](Assistant::present_with)).
    pub fn answer_with(
        &self,
        db: &Database,
        example: &Example,
        salt: u64,
        exec: impl FnMut(&Database, &Query) -> Result<ResultSet, String>,
    ) -> AssistantTurn {
        // The model reads how many demonstrations were retrieved.
        let retrieved = self.store.retrieve(&example.question, self.demos_k);
        let generation = self.llm.generate_sql(&GenRequest {
            example,
            demos: retrieved.len(),
            hint_text: "",
            salt,
            mode: GenMode::Initial,
        });
        let query = normalize_query(&generation.query);
        self.present_with(db, query, generation.fired, exec)
    }

    /// Packages a query into the four-output Assistant turn, executing it
    /// through `exec`, so a serve session can route the render through
    /// its result cache. The executor must reproduce `execute_with_limits`
    /// under the interactive row budget byte-for-byte for presented turns
    /// to stay bit-identical.
    pub fn present_with(
        &self,
        db: &Database,
        query: Query,
        fired: Vec<&'static str>,
        mut exec: impl FnMut(&Database, &Query) -> Result<ResultSet, String>,
    ) -> AssistantTurn {
        let sql_text = print_query(&query);
        let spanned = print_query_spanned(&query);
        let reformulation = reformulate(&query);
        let explanation = explain_query(&query);
        let result = exec(db, &query);
        AssistantTurn {
            query,
            sql_text,
            spanned,
            reformulation,
            explanation,
            result,
            fired,
        }
    }

    /// Renders the turn the way the chat surface would (Figure 4's
    /// Assistant bubble).
    pub fn render_turn(turn: &AssistantTurn) -> String {
        let mut out = String::new();
        match &turn.result {
            Ok(rs) if rs.is_empty() => out.push_str("We found nothing for your query.\n\n"),
            Ok(rs) => {
                out.push_str(&rs.render_grid(10));
                out.push('\n');
            }
            Err(e) => out.push_str(&format!("We could not run your query: {e}\n\n")),
        }
        out.push_str("Based on your question, here is the crafted query:\n");
        out.push_str(&format!("{}\n\n", turn.reformulation));
        out.push_str("Here is how we got the results:\n");
        out.push_str(&turn.explanation);
        out.push_str("\n\n[Show source]\n");
        out.push_str(&turn.sql_text);
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fisql_llm::LlmConfig;
    use fisql_spider::{build_aep, AepConfig};

    fn setup() -> (Corpus, Assistant) {
        let corpus = build_aep(&AepConfig {
            n_examples: 30,
            seed: 4,
        });
        let assistant = Assistant::for_corpus(&corpus, SimLlm::new(LlmConfig::default()), 3);
        (corpus, assistant)
    }

    #[test]
    fn answer_produces_all_four_outputs() {
        let (corpus, assistant) = setup();
        let e = &corpus.examples[0];
        let turn = assistant.answer(corpus.database(e), e, 0);
        assert!(!turn.sql_text.is_empty());
        assert!(!turn.reformulation.is_empty());
        assert!(turn.explanation.contains("First"));
    }

    #[test]
    fn answers_are_deterministic() {
        let (corpus, assistant) = setup();
        let e = &corpus.examples[1];
        let a = assistant.answer(corpus.database(e), e, 0);
        let b = assistant.answer(corpus.database(e), e, 0);
        assert_eq!(a.sql_text, b.sql_text);
    }

    #[test]
    fn zero_shot_answer_when_no_demos() {
        let (corpus, _) = setup();
        let assistant = Assistant {
            llm: SimLlm::new(LlmConfig::default()),
            store: DemoStore::new(vec![]),
            demos_k: 0,
        };
        let e = &corpus.examples[0];
        let turn = assistant.answer(corpus.database(e), e, 0);
        assert!(!turn.sql_text.is_empty());
    }

    #[test]
    fn render_turn_includes_chat_elements() {
        let (corpus, assistant) = setup();
        let e = &corpus.examples[0];
        let turn = assistant.answer(corpus.database(e), e, 0);
        let rendered = Assistant::render_turn(&turn);
        assert!(rendered.contains("Based on your question"));
        assert!(rendered.contains("[Show source]"));
    }
}
