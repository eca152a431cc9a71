//! Prompt templates, mirroring the paper's Figures 1, 5, and 6.
//!
//! The simulated model reads counts, queries and edit lists, not prompt
//! text, so no pipeline path renders these templates. They document the
//! method a real-LLM backend would send, and golden tests pin their text.
//! The schema block is read from the database's memoized
//! [`fisql_engine::DbContext`], so it is rendered once per schema, not
//! once per prompt.

use crate::retrieval::Demonstration;
use fisql_engine::Database;
use fisql_sqlkit::OpClass;

/// The zero-shot NL2SQL prompt of Figure 1: generic instructions plus full
/// schema definitions, no in-context examples.
pub fn zero_shot_prompt(db: &Database, question: &str) -> String {
    format!(
        "You are an expert SQL assistant. Given the database schema below, \
         write a single SQL query that answers the user question. \
         Return only the SQL query.\n\n\
         Schema:\n{}\n\
         Question: {question}\n\
         Query:",
        db.context().schema_text
    )
}

/// The few-shot NL2SQL prompt: Figure 1's skeleton extended with RAG
/// demonstrations (§3.2).
pub fn few_shot_prompt(db: &Database, demos: &[&Demonstration], question: &str) -> String {
    let mut out = String::from(
        "You are an expert SQL assistant. Given the database schema below, \
         write a single SQL query that answers the user question. \
         Return only the SQL query.\n\n",
    );
    out.push_str("Schema:\n");
    out.push_str(&db.context().schema_text);
    if !demos.is_empty() {
        out.push_str("\nHere are some examples:\n");
        for d in demos {
            out.push_str(&format!("Question: {}\nQuery: {}\n\n", d.question, d.sql));
        }
    }
    out.push_str(&format!("Question: {question}\nQuery:"));
    out
}

/// One feedback demonstration, rendered in the Figure 5 format.
pub fn feedback_demo(question: &str, query: &str, feedback: &str, revised: &str) -> String {
    format!(
        "Question: {question}\n\
         Query: {query}\n\
         The SQL query you have generated has received the following feedback: {feedback}\n\
         Taking into account the feedback, please rewrite the SQL query.\n\
         Query: {revised}\n"
    )
}

/// The feedback-incorporation prompt of Figure 6: the standard NL2SQL
/// prompt minimally extended with the previous query and the user
/// feedback. `type_demos` are the routed demonstrations for the predicted
/// feedback type (§3.3); pass an empty slice for the FISQL(−Routing)
/// ablation.
pub fn feedback_prompt(
    db: &Database,
    rag_demos: &[&Demonstration],
    type_demos: &[String],
    question: &str,
    previous_query: &str,
    feedback: &str,
) -> String {
    let mut out = String::from(
        "You are an expert SQL assistant. Given the database schema below, \
         write a single SQL query that answers the user question. \
         Return only the SQL query.\n\n",
    );
    out.push_str("Schema:\n");
    out.push_str(&db.context().schema_text);
    if !rag_demos.is_empty() || !type_demos.is_empty() {
        out.push_str("\nHere are some examples:\n");
        for d in rag_demos {
            out.push_str(&format!("Question: {}\nQuery: {}\n\n", d.question, d.sql));
        }
        for d in type_demos {
            out.push_str(d);
            out.push('\n');
        }
    }
    out.push_str(&format!(
        "Here is the question you need to answer:\n\
         Question: {question}\n\
         Query: {previous_query}\n\
         The SQL query you have generated has received the following feedback: {feedback}\n\
         Taking into account the feedback, please rewrite the SQL query.\n\
         Query:"
    ));
    out
}

/// The feedback-type identification prompt (§3.3): few-shot
/// classification of feedback into Add / Remove / Edit, with the paper's
/// Table 1 examples as demonstrations.
pub fn router_prompt(feedback: &str) -> String {
    format!(
        "Classify the user feedback on a SQL query into one of three \
         operation types: Add (the feedback suggests adding a SQL \
         operation), Remove (the feedback suggests removing a SQL \
         operation), or Edit (the feedback updates arguments of an \
         existing SQL operation).\n\n\
         Feedback: order the names in ascending order.\nType: Add\n\n\
         Feedback: do not give descriptions\nType: Remove\n\n\
         Feedback: we are in 2024\nType: Edit\n\n\
         Feedback: {feedback}\nType:"
    )
}

/// The query-rewrite prompt (§4.1 baseline): a paraphrasing model merges
/// the original question and the feedback into one refreshed question.
pub fn rewrite_prompt(question: &str, feedback: &str) -> String {
    format!(
        "Rewrite the user's question so that it also reflects their \
         follow-up feedback. Return a single self-contained question.\n\n\
         Question: how many audiences were created in January?\n\
         Feedback: we are in 2024\n\
         Rewritten: how many audiences were created in January 2024?\n\n\
         Question: {question}\n\
         Feedback: {feedback}\n\
         Rewritten:"
    )
}

/// The fixed demonstration set retrieved for each routed feedback type
/// (§3.3: "we retrieve a fixed set of examples that illustrate how to
/// revise SQL queries based on the predicted feedback type").
pub fn type_demonstrations(class: OpClass) -> Vec<String> {
    match class {
        OpClass::Add => vec![
            feedback_demo(
                "List the names of all customers.",
                "SELECT name FROM customer",
                "order the names in ascending order.",
                "SELECT name FROM customer ORDER BY name ASC",
            ),
            feedback_demo(
                "Show products in the toys category.",
                "SELECT product_name FROM product",
                "only include products in the toys category",
                "SELECT product_name FROM product WHERE category = 'Toys'",
            ),
        ],
        OpClass::Remove => vec![
            feedback_demo(
                "List the names of employees.",
                "SELECT name, description FROM employee",
                "do not give descriptions",
                "SELECT name FROM employee",
            ),
            feedback_demo(
                "How many orders are there?",
                "SELECT COUNT(*) FROM order_record WHERE status = 'open'",
                "count all orders, not just open ones",
                "SELECT COUNT(*) FROM order_record",
            ),
        ],
        OpClass::Edit => vec![
            feedback_demo(
                "how many audiences were created in January?",
                "SELECT COUNT(*) AS segmentCount FROM hkg_dim_segment \
                 WHERE createdTime >= '2023-01-01' and createdTime < '2023-02-01'",
                "we are in 2024",
                "SELECT COUNT(*) AS segmentCount FROM hkg_dim_segment \
                 WHERE createdTime >= '2024-01-01' and createdTime < '2024-02-01'",
            ),
            feedback_demo(
                "Show the name and the release year of the song by the youngest singer.",
                "SELECT Name, Song_release_year FROM singer \
                 WHERE Age = (SELECT min(Age) FROM singer)",
                "Provide song name instead of singer name",
                "SELECT Song_Name, Song_release_year FROM singer \
                 WHERE Age = (SELECT min(Age) FROM singer)",
            ),
        ],
        OpClass::Rewrite => vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fisql_engine::{Column, DataType, Table};

    fn db() -> Database {
        let mut db = Database::new("d");
        db.add_table(Table::new(
            "singer",
            vec![
                Column::new("singer_id", DataType::Int),
                Column::new("name", DataType::Text),
            ],
        ));
        db
    }

    #[test]
    fn zero_shot_contains_schema_and_question() {
        let p = zero_shot_prompt(&db(), "how many singers?");
        assert!(p.contains("CREATE TABLE singer"));
        assert!(p.contains("how many singers?"));
        assert!(!p.contains("examples"), "zero-shot must carry no demos");
    }

    #[test]
    fn feedback_prompt_matches_figure6_shape() {
        let p = feedback_prompt(
            &db(),
            &[],
            &[],
            "how many audiences were created in January?",
            "SELECT COUNT(*) FROM hkg_dim_segment WHERE createdTime >= '2023-01-01'",
            "we are in 2024",
        );
        assert!(p.contains("has received the following feedback: we are in 2024"));
        assert!(p.contains("Taking into account the feedback, please rewrite the SQL query."));
    }

    #[test]
    fn router_prompt_carries_table1_examples() {
        let p = router_prompt("change to 2024");
        assert!(p.contains("order the names in ascending order."));
        assert!(p.contains("do not give descriptions"));
        assert!(p.contains("we are in 2024"));
        assert!(p.ends_with("Type:"));
    }

    #[test]
    fn type_demos_exist_for_all_three_classes() {
        for class in [OpClass::Add, OpClass::Remove, OpClass::Edit] {
            assert!(!type_demonstrations(class).is_empty());
        }
        assert!(type_demonstrations(OpClass::Rewrite).is_empty());
    }
}
