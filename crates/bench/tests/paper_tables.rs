//! The closed-form paper tables, pinned byte for byte: Table 1, Table 2,
//! Sec. 2, Sec. 5.4, Sec. 5.5, the area model and Fig. 7(a) come from the
//! SoC and power models and the package flows, so a moved digit there
//! shows here.

#[test]
fn paper_tables_match_the_golden() {
    let golden = include_str!("../../../tests/golden/paper_tables.txt");
    let rendered = apc_bench::paper_tables();
    for (i, (got, want)) in rendered.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "line {} of tests/golden/paper_tables.txt", i + 1);
    }
    assert_eq!(
        rendered, golden,
        "regenerate with `cargo bench -p apc-bench --bench paper_tables > tests/golden/paper_tables.txt`"
    );
}
