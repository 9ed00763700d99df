//! Regenerates the paper's §III-B profiling claim: the fraction of `F_p²`
//! operations that are multiplications in one FourQ scalar multiplication
//! (paper: ≈57 %, motivating the one-mul-per-cycle pipelined multiplier).

use fourq_fp::Scalar;
use fourq_trace::trace_scalar_mul;

fn main() {
    println!("== Profiling of FourQ scalar multiplication (paper SIII-B) ==\n");
    let ks = [
        Scalar::from_u64(0x0123_4567_89ab_cdef),
        Scalar::from_u64(3),
        Scalar::from_u256(
            fourq_fp::U256::from_hex(
                "a1b2c3d4e5f60718293a4b5c6d7e8f9aabbccddeeff001122334455667788990",
            )
            .unwrap(),
        ),
    ];
    let mut agg_mul = 0usize;
    let mut agg_total = 0usize;
    for (i, k) in ks.iter().enumerate() {
        let t = trace_scalar_mul(k);
        let s = t.trace.stats();
        println!("scalar #{i}: {s}");
        println!(
            "  program: {} microinstructions, self-check: {}",
            t.trace.nodes.len(),
            t.trace.self_check()
        );
        agg_mul += s.multiplier_ops();
        agg_total += s.total();
    }
    let frac = 100.0 * agg_mul as f64 / agg_total as f64;
    println!("\nmultiplier-unit operations : {agg_mul} / {agg_total} = {frac:.1}%");
    println!("paper's reported profile   : ~57% F_p^2 multiplications");
    println!(
        "note: the setup evaluates the endomorphisms psi7/psi8 (DESIGN.md S3);\n\
         normalisation and table build add relatively more add/subs."
    );

    // Per-phase breakdown from the loop body alone:
    let body = fourq_trace::trace_double_add_iteration();
    let bs = body.stats();
    println!(
        "\ndouble-and-add loop body   : {} mult-unit + {} addsub ops \
         (paper: 15 + 13)",
        bs.multiplier_ops(),
        bs.total() - bs.multiplier_ops()
    );
}
