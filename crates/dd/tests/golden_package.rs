//! Golden pin of the package's observable behaviour: every `DdStats`
//! counter, both arena sizes, the memory breakdown, a digest of the
//! amplitude (or matrix-entry) bits, and the full DOT text of two small
//! diagrams. Any change to normalisation, table keys, cache policy or
//! edge arithmetic moves at least one of these numbers, so a refactor
//! of the node tables that passes this file unchanged is bit-exact.

use qdt_circuit::{generators, Circuit, Gate};
use qdt_complex::Complex;
use qdt_dd::DdPackage;

/// FNV-1a over the bit patterns of a sequence of complex numbers.
fn digest(values: &[Complex]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for c in values {
        let (re, im) = c.to_bits();
        for word in [re, im] {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// The package's counters, arena sizes and memory breakdown, one
/// `name=value` per line.
fn package_lines(p: &DdPackage) -> String {
    let s = p.stats();
    let m = p.memory_breakdown();
    format!(
        "unique_lookups={}\nunique_hits={}\ncompute_lookups={}\ncompute_hits={}\n\
         ctable_lookups={}\nctable_hits={}\nctable_entries={}\n\
         vector_arena={}\nmatrix_arena={}\n\
         mem.arena={}\nmem.unique_tables={}\nmem.complex_table={}\nmem.compute_tables={}\n",
        s.unique_lookups,
        s.unique_hits,
        s.compute_lookups,
        s.compute_hits,
        s.ctable_lookups,
        s.ctable_hits,
        s.ctable_entries,
        p.vector_arena_size(),
        p.matrix_arena_size(),
        m.arena,
        m.unique_tables,
        m.complex_table,
        m.compute_tables,
    )
}

#[test]
fn ghz16_run_and_projection_are_pinned() {
    let mut p = DdPackage::new();
    let mut v = p.run_circuit(&generators::ghz(16)).unwrap();
    let amps = p.to_amplitudes(&v);
    let run = format!(
        "{}nodes={}\ndigest={:#018x}\n",
        package_lines(&p),
        p.vector_node_count(&v),
        digest(&amps)
    );
    let prob = p.project_qubit(&mut v, 5, true);
    let amps = p.to_amplitudes(&v);
    let projected = format!(
        "{}nodes={}\nprob={:#018x}\ndigest={:#018x}\n",
        package_lines(&p),
        p.vector_node_count(&v),
        prob.to_bits(),
        digest(&amps)
    );
    assert_eq!(run, GHZ16_RUN);
    assert_eq!(projected, GHZ16_PROJECTED);
}

/// A product layer of unequal `Ry` rotations followed by QFT-6: every
/// amplitude differs in magnitude, so the 2% budget prunes edges.
fn skewed_qft6() -> Circuit {
    let mut qc = Circuit::new(6);
    for q in 0..6 {
        qc.ry(0.2 + 0.15 * q as f64, q);
    }
    qc.append(&generators::qft(6, true));
    qc
}

#[test]
fn qft6_run_and_approximation_are_pinned() {
    let mut p = DdPackage::new();
    let mut v = p.run_circuit(&skewed_qft6()).unwrap();
    let amps = p.to_amplitudes(&v);
    let run = format!(
        "{}nodes={}\ndigest={:#018x}\n",
        package_lines(&p),
        p.vector_node_count(&v),
        digest(&amps)
    );
    let r = p.approximate(&mut v, 0.02);
    assert!(r.pruned_edges > 0, "the pin must exercise pruning");
    let amps = p.to_amplitudes(&v);
    let approximated = format!(
        "{}lost={:#018x}\npruned={}\nnodes_before={}\nnodes_after={}\ndigest={:#018x}\n",
        package_lines(&p),
        r.lost_mass.to_bits(),
        r.pruned_edges,
        r.nodes_before,
        r.nodes_after,
        digest(&amps)
    );
    assert_eq!(run, QFT6_RUN);
    assert_eq!(approximated, QFT6_APPROXIMATED);
}

#[test]
fn qft8_miter_is_pinned() {
    // Build U = g_m···g_1 with `circuit_dd`, then peel it back to λI by
    // multiplying g_1†, g_2†, … in from the right.
    let mut p = DdPackage::new();
    let qc = generators::qft(8, true);
    let u = p.circuit_dd(&qc).unwrap();
    let u_nodes = p.matrix_node_count(&u);
    let u_entries = p.to_matrix(&u);
    let entries: Vec<Complex> = (0..256)
        .flat_map(|r| (0..256).map(move |c| (r, c)))
        .map(|(r, c)| u_entries.get(r, c))
        .collect();
    let mut miter = u;
    let inverse = qc.inverse().unwrap();
    for inst in inverse.instructions().iter().rev() {
        let g = p.instruction_dd(inst, 8).unwrap();
        miter = p.multiply(&miter, &g).unwrap();
    }
    let lambda = p.identity_phase(&miter, 1e-8).expect("U·U† = λI");
    let (re, im) = lambda.to_bits();
    let pinned = format!(
        "{}u_nodes={u_nodes}\nmiter_nodes={}\nlambda={re:#018x},{im:#018x}\nu_digest={:#018x}\n",
        package_lines(&p),
        p.matrix_node_count(&miter),
        digest(&entries)
    );
    assert_eq!(pinned, QFT8_MITER);
}

#[test]
fn bell_and_cx_dot_text_is_pinned() {
    let mut p = DdPackage::new();
    let bell = p.run_circuit(&generators::bell()).unwrap();
    assert_eq!(p.vector_to_dot(&bell), BELL_DOT);
    let cx = p.gate_dd(&Gate::X.matrix(), 2, 0, &[1]);
    assert_eq!(p.matrix_to_dot(&cx), CX_DOT);
}

const GHZ16_RUN: &str = r#"unique_lookups=630
unique_hits=283
compute_lookups=220
compute_hits=26
ctable_lookups=2597
ctable_hits=2586
ctable_entries=11
vector_arena=167
matrix_arena=180
mem.arena=28072
mem.unique_tables=30848
mem.complex_table=176
mem.compute_tables=8256
nodes=31
digest=0x56fcf94e60707c9d
"#;
const GHZ16_PROJECTED: &str = r#"unique_lookups=641
unique_hits=293
compute_lookups=220
compute_hits=26
ctable_lookups=2631
ctable_hits=2620
ctable_entries=11
vector_arena=168
matrix_arena=180
mem.arena=28128
mem.unique_tables=30912
mem.complex_table=176
mem.compute_tables=8768
nodes=16
prob=0x3fe0000000000000
digest=0x58a82ef2608c55f8
"#;
const QFT6_RUN: &str = r#"unique_lookups=1290
unique_hits=517
compute_lookups=1373
compute_hits=434
ctable_lookups=8679
ctable_hits=7788
ctable_entries=891
vector_arena=587
matrix_arena=186
mem.arena=52216
mem.unique_tables=58400
mem.complex_table=14256
mem.compute_tables=37664
nodes=63
digest=0xae983f4c8de740f4
"#;
const QFT6_APPROXIMATED: &str = r#"unique_lookups=1353
unique_hits=555
compute_lookups=1373
compute_hits=434
ctable_lookups=9020
ctable_hits=8128
ctable_entries=892
vector_arena=612
matrix_arena=186
mem.arena=53616
mem.unique_tables=60000
mem.complex_table=14272
mem.compute_tables=39088
lost=0x3f92db938e0c43f6
pruned=13
nodes_before=63
nodes_after=51
digest=0xf8c6e26a97ea8f1c
"#;
const QFT8_MITER: &str = r#"unique_lookups=92841
unique_hits=24620
compute_lookups=134963
compute_hits=41750
ctable_lookups=1129274
ctable_hits=1128748
ctable_entries=526
vector_arena=0
matrix_arena=68221
mem.arena=7094984
mem.unique_tables=7640752
mem.complex_table=8416
mem.compute_tables=3943632
u_nodes=21845
miter_nodes=8
lambda=0x3ff0000000000000,0x0000000000000000
u_digest=0x14d364c7eee36465
"#;
const BELL_DOT: &str = r#"digraph vectordd {
  rankdir=TB;
  node [shape=circle];
  T [shape=box, label="1"];
  root [shape=point]; root -> v5 [label="0.7071"];
  v5 [label="q1"];
  v5 -> v0 [style=dashed];
  v5 -> v4 [style=solid];
  v4 [label="q0"];
  v4_z0 [shape=none, label="0"];
  v4 -> v4_z0 [style=dashed];
  v4 -> T [style=solid];
  v0 [label="q0"];
  v0 -> T [style=dashed];
  v0_z1 [shape=none, label="0"];
  v0 -> v0_z1 [style=solid];
}
"#;
const CX_DOT: &str = r#"digraph matrixdd {
  rankdir=TB;
  node [shape=circle];
  T [shape=box, label="1"];
  root [shape=point]; root -> m7 [label=""];
  m7 [label="q1"];
  m7 -> m6 [label="00"];
  m7 -> m5 [label="11"];
  m5 [label="q0"];
  m5 -> T [label="01"];
  m5 -> T [label="10"];
  m6 [label="q0"];
  m6 -> T [label="00"];
  m6 -> T [label="11"];
}
"#;
