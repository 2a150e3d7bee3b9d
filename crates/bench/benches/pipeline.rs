//! The alignment passes in isolation. (A whole question through the
//! pipeline, and the vote, are `perfbench` layer metrics.)

use criterion::{criterion_group, criterion_main, Criterion};
use datagen::Profile;
use opensearch_sql::retrieval::ValueIndex;
use opensearch_sql::{align_candidate, CostLedger};
use osql_bench::World;

fn bench_alignment(c: &mut Criterion) {
    let world = World::build(&Profile::tiny());
    let db = &world.benchmark.dbs[0];
    let values = ValueIndex::build(db);
    let table = &db.tables[0].name;
    let col = &db.tables[0].cols[1].name;
    let sql = format!(
        "SELECT {c} FROM {t} WHERE {c} = 'nonexistent value' ORDER BY MAX({c}) DESC",
        t = table,
        c = col
    );
    c.bench_function("alignment_pass", |b| {
        b.iter(|| {
            let mut ledger = CostLedger::new();
            std::hint::black_box(align_candidate(
                &sql,
                &db.database.schema,
                &values,
                Some(1),
                &mut ledger,
            ))
        })
    });
}

criterion_group!(benches, bench_alignment);
criterion_main!(benches);
