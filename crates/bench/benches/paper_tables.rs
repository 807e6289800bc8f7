//! Regenerates the closed-form artefacts of the paper: Table 1, Table 2,
//! the Sec. 2 savings model, the Sec. 5.4 power derivation, the Sec. 5.5
//! transition latency, the Sec. 5.1–5.3 area overhead and the Fig. 7(a)
//! idle power (also the idle row of Fig. 7(b)).
//!
//! Run with: `cargo bench -p apc-bench --bench paper_tables`

fn main() {
    print!("{}", apc_bench::paper_tables());
}
