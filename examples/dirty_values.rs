//! Dirty values: why Extraction's value retrieval and the Agent Alignment
//! exist (paper §3.4, Listing 6).
//!
//! The generated databases store values in mangled forms ('OSL' for
//! "Oslo", 'C_tier_two' for "tier two"). This example shows the retrieval
//! index bridging question wording to stored forms, and the alignment
//! agent repairing a hallucinated WHERE literal and a misused aggregate —
//! the exact repairs of the paper's Listing 6.
//!
//! ```sh
//! cargo run --release --example dirty_values
//! ```

use opensearch_sql::{align_candidate, CostLedger, ValueIndex};

fn main() {
    // a quirk-heavy healthcare database
    let theme = &datagen::domain::themes()[0];
    let db = datagen::build::build_db(
        theme,
        "clinic",
        "healthcare",
        datagen::RowScale::tiny(),
        0.9, // almost every text column stores mangled values
        0xD1277,
    );
    let values = ValueIndex::build(&db);
    println!("indexed {} stored string values\n", values.len());
    let schema = &db.database.schema;
    let mut ledger = CostLedger::new();
    // what the pipeline's refinement does to a candidate: parse, analyse,
    // align (`None`: no aligner fired)
    let mut align = |sql: &str| {
        let stmt = sqlkit::parse_select(sql).expect("the example SQL parses");
        let unresolved = sqlkit::analyze(schema, &stmt).unresolved;
        align_candidate(&stmt, &unresolved, schema, &values, None, &mut ledger)
    };

    // 1. value retrieval: question wording → stored forms
    for (table, col) in [("Patient", "City"), ("Treatment", "Status")] {
        let stored = db.stored_values(table, col);
        let Some(first) = stored.first() else { continue };
        let display = db.display_form(table, col, first).unwrap_or(first);
        let hits = values.retrieve(display, 5, 0.4);
        println!("question says {display:?}; retrieval finds:");
        for h in hits.iter().take(3) {
            println!("    {}.{} = '{}' (score {:.2})", h.table, h.column, h.stored, h.score);
        }
    }
    println!();

    // 2. Agent Alignment repairs a wrong-case literal (Listing 6, first
    //    example) and a mangled column name
    let stored_city = db.stored_values("Patient", "City")[0].clone();
    let display_city = db.display_form("Patient", "City", &stored_city).unwrap().to_owned();
    let broken = format!(
        "SELECT First_Date FROM Patient WHERE City = '{display_city}'"
    );
    let fixed = align(&broken).expect("alignment repairs it");
    println!("raw SQL:     {broken}");
    println!("aligned SQL: {fixed}");
    db.database.query(&fixed).expect("aligned SQL executes");

    // 3. Function + Style Alignment (Listing 6, second and third examples)
    let broken = "SELECT Name FROM Patient ORDER BY MAX(Age)";
    let fixed = align(broken).unwrap_or_else(|| broken.to_owned());
    println!("\nraw SQL:     {broken}");
    println!("aligned SQL: {fixed}");

    let broken = "SELECT Name FROM Patient WHERE Age = (SELECT MAX(Age) FROM Patient)";
    let fixed = align(broken).unwrap_or_else(|| broken.to_owned());
    println!("\nraw SQL:     {broken}");
    println!("aligned SQL: {fixed}");
    db.database.query(&fixed).expect("aligned SQL executes");
}
