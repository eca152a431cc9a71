//! Conversation sessions: the chat surface of Figures 3-4.
//!
//! A [`Session`] strings Assistant turns and feedback turns together,
//! maintaining the transcript a user of the tool would see. The example
//! binaries use it to replay the paper's walkthroughs, and `fisql serve`
//! hosts one per connected client.
//!
//! The transcript is a stream of typed, serde-serializable
//! [`SessionEvent`]s — the single interaction surface shared by the wire
//! protocol ([`crate::serve::protocol`]), [`Session::render_transcript`],
//! and the test suites. Consumers read structure off the events instead
//! of scraping the rendered chat text.

use crate::assistant::{Assistant, AssistantTurn};
use crate::pipeline::{
    try_incorporate, GateOutcome, IncorporateContext, IncorporateOutcome, Strategy,
};
use fisql_engine::Database;
use fisql_feedback::Feedback;
use fisql_llm::{BackendError, FallibleLanguageModel};
use fisql_spider::Example;
use fisql_sqlkit::Span;
use serde::{Deserialize, Serialize};

/// One event in the session's transcript.
///
/// Every variant is serde-serializable, so the same stream drives the
/// chat rendering, the `fisql serve` wire protocol, and the
/// journal-replay bit-identity checks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SessionEvent {
    /// Something the user typed.
    User(String),
    /// An Assistant response: the rendered chat bubble plus the SQL it
    /// presented (structured, so consumers never scrape the rendering).
    Assistant {
        /// The rendered four-output bubble (Figure 4).
        rendered: String,
        /// The SQL shown under "[Show source]".
        sql: String,
    },
    /// A feedback turn: the user's utterance plus an optional highlight
    /// over the previously shown SQL.
    Feedback {
        /// The feedback utterance.
        text: String,
        /// Highlighted span of the rendered SQL, if any.
        highlight: Option<Span>,
    },
    /// The static-analysis gate's verdict on one feedback round's
    /// candidate query.
    Gate {
        /// Which feedback round (0-based) produced the candidate.
        round: u64,
        /// The analyzer outcome (diagnostics, repair, executions saved).
        outcome: GateOutcome,
    },
    /// A feedback round whose backend calls failed past the resilience
    /// layer's patience: the session kept the previous round's SQL
    /// instead of crashing (graceful degradation).
    Degraded {
        /// Which feedback round (0-based) degraded.
        round: u64,
        /// The rendered backend error chain (outermost first).
        error: String,
    },
    /// A feedback round whose incorporation *panicked* (a bug in the
    /// backend client or pipeline, not a reported error). The session
    /// contains the panic at the round boundary and keeps the previous
    /// round's SQL, the same recovery shape as [`SessionEvent::Degraded`].
    Crashed {
        /// Which feedback round (0-based) crashed.
        round: u64,
        /// The captured panic message (with source location when known).
        message: String,
    },
}

/// An interactive FISQL session over one database.
pub struct Session<'a> {
    /// The database under conversation.
    pub db: &'a Database,
    /// The Assistant front end.
    pub assistant: Assistant,
    /// The feedback-incorporation strategy.
    pub strategy: Strategy,
    /// The running transcript.
    pub transcript: Vec<SessionEvent>,
    /// The current example and state, once a question was asked.
    state: Option<State>,
    round: u64,
    /// Per-session result cache (exact-print lane): re-presenting the
    /// same SQL — degraded rounds, repeated feedback, replayed questions
    /// — replays the byte-identical grid without re-executing. On by
    /// default; [`Session::semantic_cache`] disables it.
    semcache: crate::semcache::SemanticCache,
}

struct State {
    question: String,
    current: fisql_sqlkit::Query,
}

impl<'a> Session<'a> {
    /// Opens a session (result cache on).
    pub fn new(db: &'a Database, assistant: Assistant, strategy: Strategy) -> Self {
        Session {
            db,
            assistant,
            strategy,
            transcript: Vec::new(),
            state: None,
            round: 0,
            semcache: crate::semcache::SemanticCache::new(true),
        }
    }

    /// Enables or disables the per-session result cache (builder-style;
    /// presented turns are byte-identical either way).
    pub fn semantic_cache(mut self, on: bool) -> Self {
        self.semcache = crate::semcache::SemanticCache::new(on);
        self
    }

    /// Hit/miss counters of the per-session result cache.
    pub fn cache_stats(&self) -> fisql_llm::CacheStats {
        self.semcache.stats
    }

    /// The typed event stream so far.
    pub fn events(&self) -> &[SessionEvent] {
        &self.transcript
    }

    /// The events appended since a cursor previously taken from
    /// `self.events().len()` — how the serve layer streams each turn's
    /// new events to its client.
    pub fn events_since(&self, cursor: usize) -> &[SessionEvent] {
        &self.transcript[cursor.min(self.transcript.len())..]
    }

    /// Feedback rounds taken on the current question (0 before any
    /// feedback; resets when a new question is asked).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The active question (once [`Session::ask`] has run) as currently
    /// phrased: Query Rewrite folds each feedback into it, every other
    /// strategy leaves it as asked.
    pub fn question(&self) -> Option<&str> {
        self.state.as_ref().map(|s| s.question.as_str())
    }

    /// Asks the example's question; returns the Assistant's turn.
    pub fn ask(&mut self, example: &Example) -> AssistantTurn {
        self.transcript
            .push(SessionEvent::User(example.question.clone()));
        let assistant = &self.assistant;
        let semcache = &mut self.semcache;
        let turn = assistant.answer_with(self.db, example, 0, |db, q| semcache.execute_view(db, q));
        self.push_assistant(&turn);
        self.state = Some(State {
            question: example.question.clone(),
            current: turn.query.clone(),
        });
        self.round = 0;
        turn
    }

    /// Sends natural-language feedback (optionally with a highlight over
    /// the last shown SQL) through `llm` — the single, backend-generic
    /// feedback entry point. [`SimLlm`](fisql_llm::SimLlm) and fallible
    /// stacks (a [`Resilient`](fisql_llm::Resilient) middleware over a
    /// remote or fault-injected client) all implement
    /// [`FallibleLanguageModel`] and plug in directly.
    ///
    /// Failure containment is always on: a backend error **degrades** the
    /// round ([`SessionEvent::Degraded`], previous SQL kept) and a panic
    /// in the backend or pipeline is contained at the round boundary
    /// ([`SessionEvent::Crashed`], same recovery shape). The session
    /// never unwinds.
    ///
    /// # Panics
    /// Panics if called before [`Session::ask`].
    pub fn give_feedback<L: FallibleLanguageModel + ?Sized>(
        &mut self,
        llm: &L,
        example: &Example,
        text: &str,
        highlight: Option<Span>,
    ) -> AssistantTurn {
        let state = self.state.as_ref().expect("ask() before give_feedback()");
        self.transcript.push(SessionEvent::Feedback {
            text: text.to_string(),
            highlight,
        });
        let feedback = Feedback {
            text: text.to_string(),
            highlight,
            intended: vec![],
            misaligned: false,
        };
        let round = self.round;
        match crate::isolate::run_isolated(|| {
            try_incorporate(
                self.strategy,
                llm,
                &IncorporateContext {
                    db: self.db,
                    example,
                    question: &state.question,
                    previous: &state.current,
                    feedback: &feedback,
                    round,
                    conformance_gate: false,
                },
            )
        }) {
            Ok(Ok(outcome)) => self.absorb(outcome),
            Ok(Err(err)) => self.degrade(err),
            Err(message) => self.crash(message),
        }
    }

    /// Commits one successful incorporation outcome to the session.
    fn absorb(&mut self, outcome: IncorporateOutcome) -> AssistantTurn {
        let state = self
            .state
            .as_mut()
            .expect("absorb() requires an active question");
        state.current = outcome.query.clone();
        state.question.clone_from(&outcome.question);
        self.transcript.push(SessionEvent::Gate {
            round: self.round,
            outcome: outcome.gate.clone(),
        });
        self.round += 1;
        let turn = self.present_cached(outcome.query);
        self.push_assistant(&turn);
        turn
    }

    /// Degrades one feedback round: records the error and re-presents
    /// the previous SQL unchanged.
    fn degrade(&mut self, err: BackendError) -> AssistantTurn {
        self.transcript.push(SessionEvent::Degraded {
            round: self.round,
            error: err.chain(),
        });
        self.repeat_previous()
    }

    /// Contains a panicked feedback round: records the panic message and
    /// re-presents the previous SQL unchanged, exactly like a degrade.
    fn crash(&mut self, message: String) -> AssistantTurn {
        self.transcript.push(SessionEvent::Crashed {
            round: self.round,
            message,
        });
        self.repeat_previous()
    }

    /// Closes a failed round: bumps the round counter and re-presents
    /// the previous round's SQL unchanged.
    fn repeat_previous(&mut self) -> AssistantTurn {
        self.round += 1;
        let current = self
            .state
            .as_ref()
            .expect("a failed round requires an active question")
            .current
            .clone();
        let turn = self.present_cached(current);
        self.push_assistant(&turn);
        turn
    }

    /// Presents a query through the session's result cache: the render
    /// re-executes only on the first sighting of each exact SQL text.
    fn present_cached(&mut self, query: fisql_sqlkit::Query) -> AssistantTurn {
        let assistant = &self.assistant;
        let semcache = &mut self.semcache;
        assistant.present_with(self.db, query, vec![], |db, q| semcache.execute_view(db, q))
    }

    /// Appends the structured Assistant event for `turn`.
    fn push_assistant(&mut self, turn: &AssistantTurn) {
        self.transcript.push(SessionEvent::Assistant {
            rendered: Assistant::render_turn(turn),
            sql: turn.sql_text.clone(),
        });
    }

    /// Renders the whole transcript.
    ///
    /// Feedback turns render as user lines; gate events render only when
    /// the analyzer actually found or repaired something (a clean gate is
    /// invisible in the chat, as in the paper's Figure 4).
    pub fn render_transcript(&self) -> String {
        render_events(&self.transcript)
    }
}

/// Renders a [`SessionEvent`] stream the way the chat surface would —
/// shared by [`Session::render_transcript`] and the serve client's
/// transcript dump.
pub fn render_events(events: &[SessionEvent]) -> String {
    let mut out = String::new();
    for event in events {
        match event {
            SessionEvent::User(t) => out.push_str(&format!("User> {t}\n\n")),
            SessionEvent::Assistant { rendered, .. } => {
                out.push_str(&format!("Assistant>\n{rendered}\n"));
            }
            SessionEvent::Feedback { text, .. } => {
                out.push_str(&format!("User> Here is my feedback: {text}\n\n"));
            }
            SessionEvent::Gate { round, outcome } if outcome.has_errors() || outcome.repaired => {
                out.push_str(&format!(
                    "[analyzer] round {round}: {} diagnostic(s){}\n\n",
                    outcome.diagnostics.len(),
                    if outcome.repaired {
                        ", auto-repaired"
                    } else {
                        ""
                    },
                ));
            }
            SessionEvent::Gate { .. } => {}
            SessionEvent::Degraded { round, error } => {
                out.push_str(&format!(
                    "[degraded] round {round}: kept previous SQL ({error})\n\n"
                ));
            }
            SessionEvent::Crashed { round, message } => {
                out.push_str(&format!(
                    "[crashed] round {round}: kept previous SQL ({message})\n\n"
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fisql_llm::{Calibration, FaultConfig, FaultyBackend, LlmConfig, SimLlm};
    use fisql_spider::{build_aep, AepConfig, Corpus, Example};
    use fisql_sqlkit::structurally_equal;

    /// The Figure 4 fixture: a corpus whose first example keeps only its
    /// year-default channel, plus an over-firing model that reliably
    /// produces the wrong-year query.
    fn figure4_fixture() -> (Corpus, Example, SimLlm) {
        let corpus = build_aep(&AepConfig {
            n_examples: 3,
            seed: 44,
        });
        let mut e = corpus.examples[0].clone();
        e.channels.retain(|wc| wc.channel.kind() == "year-default");
        let llm = SimLlm::new(LlmConfig {
            seed: 9,
            calibration: Calibration {
                base_fire_rate: 10.0,
                max_fire_prob: 1.0,
                router_noise: 0.0,
                edit_apply_with_routing: 1.0,
                ..Default::default()
            },
        });
        (corpus, e, llm)
    }

    /// Sums `executions_saved` over the transcript's gate events — the
    /// transcript fold the deprecated `executions_saved()` shim used to
    /// wrap.
    fn saved_from_events(events: &[SessionEvent]) -> u64 {
        events
            .iter()
            .map(|e| match e {
                SessionEvent::Gate { outcome, .. } => outcome.executions_saved,
                _ => 0,
            })
            .sum()
    }

    #[test]
    fn figure4_walkthrough_end_to_end() {
        // Force the Figure 4 failure mode: every channel fires, so the
        // year default lands on 2023.
        let (corpus, e, failing) = figure4_fixture();
        let e = &e;
        let assistant = Assistant {
            llm: failing.clone(),
            store: fisql_llm::DemoStore::new(vec![]),
            demos_k: 0,
        };
        let mut session = Session::new(
            corpus.database(e),
            assistant,
            Strategy::Fisql {
                routing: true,
                highlighting: false,
            },
        );
        let first = session.ask(e);
        assert!(
            first.sql_text.contains("2023"),
            "expected the wrong-year query, got {}",
            first.sql_text
        );
        let revised = session.give_feedback(&failing, e, "we are in 2024", None);
        assert!(
            structurally_equal(&revised.query, &e.gold),
            "feedback did not fix the query: {}",
            revised.sql_text
        );
        let transcript = session.render_transcript();
        assert!(transcript.contains("Here is my feedback: we are in 2024"));
        assert!(transcript.matches("Assistant>").count() == 2);

        // The feedback turn and the gate verdict are structured events.
        assert!(session.events().iter().any(|e| matches!(
            e,
            SessionEvent::Feedback { text, highlight: None } if text == "we are in 2024"
        )));
        let gates: Vec<_> = session
            .events()
            .iter()
            .filter_map(|e| match e {
                SessionEvent::Gate { round, outcome } => Some((*round, outcome)),
                _ => None,
            })
            .collect();
        assert_eq!(gates.len(), 1);
        assert_eq!(gates[0].0, 0);

        // The Assistant events carry the presented SQL in structure: the
        // last one matches the revised query without scraping.
        let last_sql = session
            .events()
            .iter()
            .rev()
            .find_map(|e| match e {
                SessionEvent::Assistant { sql, .. } => Some(sql.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(last_sql, revised.sql_text);
    }

    /// The typed event stream round-trips through serde — the wire
    /// protocol, the session store, and the replay bit-identity checks
    /// all ride on this.
    #[test]
    fn session_events_roundtrip_serde() {
        let (corpus, e, llm) = figure4_fixture();
        let assistant = Assistant {
            llm: llm.clone(),
            store: fisql_llm::DemoStore::new(vec![]),
            demos_k: 0,
        };
        let mut session = Session::new(
            corpus.database(&e),
            assistant,
            Strategy::Fisql {
                routing: true,
                highlighting: false,
            },
        );
        session.ask(&e);
        session.give_feedback(&llm, &e, "we are in 2024", None);

        let json = serde_json::to_string(&session.transcript).unwrap();
        let back: Vec<SessionEvent> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, session.transcript);
        // The shared renderer agrees with the session's own.
        assert_eq!(render_events(&back), session.render_transcript());
    }

    /// The Figure-4 walkthrough again, but corrected by the static
    /// repair search instead of the prompting pipeline: the session
    /// surface is strategy-agnostic, and `SearchRefine` must fix the
    /// wrong-year query without any model edit application.
    #[test]
    fn search_refine_session_fixes_figure4() {
        let (corpus, e, failing) = figure4_fixture();
        let e = &e;
        let assistant = Assistant {
            llm: failing.clone(),
            store: fisql_llm::DemoStore::new(vec![]),
            demos_k: 0,
        };
        let mut session = Session::new(corpus.database(e), assistant, Strategy::SearchRefine);
        let first = session.ask(e);
        assert!(
            first.sql_text.contains("2023"),
            "expected the wrong-year query, got {}",
            first.sql_text
        );
        let revised = session.give_feedback(&failing, e, "we are in 2024", None);
        assert!(
            structurally_equal(&revised.query, &e.gold),
            "search did not fix the query: {}",
            revised.sql_text
        );
    }

    /// Replaying a question restarts the round counter, so gate events
    /// reuse round numbers — the transcript must still hold one gate
    /// event per feedback turn, and the executions-saved fold over it
    /// counts each exactly once.
    #[test]
    fn replayed_questions_keep_one_gate_event_per_feedback_turn() {
        let (corpus, e, llm) = figure4_fixture();
        let assistant = Assistant {
            llm: llm.clone(),
            store: fisql_llm::DemoStore::new(vec![]),
            demos_k: 0,
        };
        let mut session = Session::new(
            corpus.database(&e),
            assistant,
            Strategy::Fisql {
                routing: true,
                highlighting: false,
            },
        );
        session.ask(&e);
        session.give_feedback(&llm, &e, "we are in 2024", None);
        let after_round_one = saved_from_events(session.events());
        session.give_feedback(&llm, &e, "we are in 2024", None);
        // Replay: re-asking resets the round counter to 0, so the next
        // gate event reuses round number 0 — it must still appear once.
        session.ask(&e);
        session.give_feedback(&llm, &e, "we are in 2024", None);

        let gate_rounds: Vec<u64> = session
            .events()
            .iter()
            .filter_map(|ev| match ev {
                SessionEvent::Gate { round, .. } => Some(*round),
                _ => None,
            })
            .collect();
        assert_eq!(
            gate_rounds,
            vec![0, 1, 0],
            "one gate event per feedback turn"
        );
        assert!(saved_from_events(session.events()) >= after_round_one);
    }

    /// A degraded round records `SessionEvent::Degraded` — never a gate
    /// event — keeps the previous SQL, and adds nothing to the
    /// executions-saved fold.
    #[test]
    fn degraded_rounds_keep_sql_and_add_no_gate_events() {
        let (corpus, e, llm) = figure4_fixture();
        // Every non-calibration call faults, so incorporation always
        // exhausts into a degrade.
        let broken = FaultyBackend::new(llm.clone(), FaultConfig::uniform(1.0));
        let assistant = Assistant {
            llm,
            store: fisql_llm::DemoStore::new(vec![]),
            demos_k: 0,
        };
        let mut session = Session::new(
            corpus.database(&e),
            assistant,
            Strategy::Fisql {
                routing: true,
                highlighting: false,
            },
        );
        let first = session.ask(&e);
        let saved_before = saved_from_events(session.events());

        let revised = session.give_feedback(&broken, &e, "we are in 2024", None);
        assert!(
            structurally_equal(&revised.query, &first.query),
            "a degraded round must keep the previous round's SQL"
        );
        let degraded: Vec<u64> = session
            .events()
            .iter()
            .filter_map(|ev| match ev {
                SessionEvent::Degraded { round, .. } => Some(*round),
                _ => None,
            })
            .collect();
        assert_eq!(degraded, vec![0]);
        assert!(
            !session
                .events()
                .iter()
                .any(|ev| matches!(ev, SessionEvent::Gate { .. })),
            "degraded rounds must not fabricate gate events"
        );
        assert_eq!(saved_from_events(session.events()), saved_before);
        assert!(session
            .render_transcript()
            .contains("[degraded] round 0: kept previous SQL"));
    }

    /// A panicking backend must not unwind through the session: the round
    /// is contained as `SessionEvent::Crashed` and the previous SQL is
    /// kept.
    #[test]
    fn crashed_rounds_are_contained_and_keep_sql() {
        let (corpus, e, llm) = figure4_fixture();
        let crashing = FaultyBackend::new(
            llm.clone(),
            FaultConfig {
                panic: 1.0,
                ..FaultConfig::default()
            },
        );
        let assistant = Assistant {
            llm,
            store: fisql_llm::DemoStore::new(vec![]),
            demos_k: 0,
        };
        let mut session = Session::new(
            corpus.database(&e),
            assistant,
            Strategy::Fisql {
                routing: true,
                highlighting: false,
            },
        );
        let first = session.ask(&e);
        let revised = session.give_feedback(&crashing, &e, "we are in 2024", None);
        assert!(
            structurally_equal(&revised.query, &first.query),
            "a crashed round must keep the previous round's SQL"
        );
        let crashed: Vec<&str> = session
            .events()
            .iter()
            .filter_map(|ev| match ev {
                SessionEvent::Crashed { round: 0, message } => Some(message.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(crashed.len(), 1);
        assert!(
            crashed[0].contains("injected backend panic"),
            "panic message should survive capture: {}",
            crashed[0]
        );
        assert!(session
            .render_transcript()
            .contains("[crashed] round 0: kept previous SQL"));

        // The session is still usable after containment.
        let healthy = session.assistant.llm.clone();
        let again = session.give_feedback(&healthy, &e, "we are in 2024", None);
        assert!(structurally_equal(&again.query, &e.gold));
    }
}
