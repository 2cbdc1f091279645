//! Property-based tests for the analysis primitives in `helium-core`:
//! buffer structure reconstruction (paper §3.2), affine index recovery
//! (paper §4.10), tree canonicalization (paper §4.7), buffer layouts
//! (paper §4.3) and the per-byte shadow tables of the trace analyses
//! (paper §4.5).

use helium_core::extract::{Loc, Shadow, FP_SPACE, REG_SPACE};
use helium_core::linalg::{access_rank, fit_affine, AffineFit};
use helium_core::regions::{reconstruct, region_containing};
use helium_core::trees::{Leaf, Tree, TreeNode, TreeOp};
use helium_core::{BufferLayout, BufferRole};
use helium_dbi::MemTraceEntry;
use helium_machine::{ExternFn, Width};
use proptest::prelude::*;
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// Affine index recovery (paper §4.10)
// ---------------------------------------------------------------------------

/// Generate `n` distinct access vectors spanning a small D-dimensional grid.
fn grid_points(dims: usize, n: usize) -> Vec<Vec<i64>> {
    // A deterministic, full-rank spread: the origin, the unit vectors, and a
    // few diagonal points.
    let mut pts = Vec::new();
    pts.push(vec![0i64; dims]);
    for d in 0..dims {
        let mut p = vec![0i64; dims];
        p[d] = 1;
        pts.push(p.clone());
        p[d] = 3;
        pts.push(p);
    }
    let mut k = 1i64;
    while pts.len() < n {
        let p: Vec<i64> = (0..dims).map(|d| k + d as i64 * 2).collect();
        pts.push(p);
        k += 1;
    }
    pts.truncate(n);
    pts
}

proptest! {
    /// Observations generated by a genuine affine index function are recovered
    /// exactly by `fit_affine`.
    #[test]
    fn affine_functions_are_recovered(
        dims in 1usize..4,
        coeffs in prop::collection::vec(-4i64..5, 3),
        constant in -16i64..17,
        extra in 0usize..6,
    ) {
        let coeffs: Vec<i64> = coeffs[..dims].to_vec();
        prop_assume!(coeffs.iter().any(|&c| c != 0));
        let rows = grid_points(dims, 2 * dims + 1 + extra);
        let rhs: Vec<i64> = rows
            .iter()
            .map(|r| r.iter().zip(&coeffs).map(|(x, c)| x * c).sum::<i64>() + constant)
            .collect();
        match fit_affine(&rows, &rhs) {
            AffineFit::Affine { coefficients, constant: c } => {
                prop_assert_eq!(coefficients, coeffs);
                prop_assert_eq!(c, constant);
            }
            other => prop_assert!(false, "expected affine fit, got {other:?}"),
        }
    }

    /// A constant right-hand side is reported as a constant index, never as a
    /// spurious affine function.
    #[test]
    fn constant_observations_are_reported_constant(
        dims in 1usize..4,
        value in -100i64..100,
        n in 3usize..10,
    ) {
        let rows = grid_points(dims, n);
        let rhs = vec![value; rows.len()];
        prop_assert_eq!(fit_affine(&rows, &rhs), AffineFit::Constant(value));
    }

    /// Quadratic index functions (the paper's non-affine error case, e.g.
    /// radial indexing) are rejected rather than mis-fit.
    #[test]
    fn quadratic_functions_are_rejected(dims in 1usize..3, scale in 1i64..4) {
        let rows = grid_points(dims, 2 * dims + 4);
        let rhs: Vec<i64> = rows.iter().map(|r| scale * r[0] * r[0] + r.iter().sum::<i64>()).collect();
        let fit = fit_affine(&rows, &rhs);
        prop_assert!(
            matches!(fit, AffineFit::NotAffine | AffineFit::RankDeficient),
            "quadratic rhs must not produce an affine fit: {fit:?}"
        );
    }

    /// Duplicated access vectors cannot pin down a unique affine function:
    /// the solver must report rank deficiency instead of guessing.
    #[test]
    fn duplicate_rows_are_rank_deficient(dims in 2usize..4, v in -5i64..6, n in 3usize..8) {
        let row: Vec<i64> = (0..dims).map(|d| v + d as i64).collect();
        let rows = vec![row; n];
        // Distinct rhs values so the constant-index fast path does not fire.
        let rhs: Vec<i64> = (0..n as i64).collect();
        let fit = fit_affine(&rows, &rhs);
        prop_assert!(
            matches!(fit, AffineFit::RankDeficient | AffineFit::NotAffine),
            "identical access vectors must not fit: {fit:?}"
        );
    }

    /// The rank of the augmented access matrix never exceeds D + 1, and a
    /// well-spread grid of access vectors achieves exactly D + 1 (the paper's
    /// well-posedness check).
    #[test]
    fn access_rank_is_bounded_and_achieved(dims in 1usize..4, n in 0usize..12) {
        let rows = grid_points(dims, n);
        let rank = access_rank(&rows);
        prop_assert!(rank <= dims + 1);
        if n > 2 * dims {
            prop_assert_eq!(rank, dims + 1);
        }
    }
}

// ---------------------------------------------------------------------------
// Buffer structure reconstruction (paper §3.2, Fig. 3)
// ---------------------------------------------------------------------------

/// Build a memory trace that touches `rows` scanlines of `row_bytes` bytes
/// with `stride` bytes between scanline starts, starting at `base`, as a
/// single static instruction would.
fn strided_trace(
    base: u32,
    rows: u32,
    row_bytes: u32,
    stride: u32,
    instr: u32,
) -> Vec<MemTraceEntry> {
    let mut out = Vec::new();
    for r in 0..rows {
        for b in 0..row_bytes {
            out.push(MemTraceEntry {
                instr_addr: instr,
                addr: base + r * stride + b,
                width: Width::B1,
                is_write: false,
            });
        }
    }
    out
}

proptest! {
    /// Every traced address is contained in exactly one reconstructed region,
    /// and regions never overlap.
    #[test]
    fn reconstruction_covers_trace_without_overlap(
        bases in prop::collection::btree_set(0x1000u32..0x4000, 1..5),
        len in 1u32..40,
    ) {
        let mut trace = Vec::new();
        for (i, &b) in bases.iter().enumerate() {
            for off in 0..len {
                trace.push(MemTraceEntry {
                    instr_addr: 0x100 + i as u32 * 4,
                    addr: b * 8, // spread the bases out
                    width: Width::B1,
                    is_write: i % 2 == 0,
                });
                trace.push(MemTraceEntry {
                    instr_addr: 0x100 + i as u32 * 4,
                    addr: b * 8 + off,
                    width: Width::B1,
                    is_write: i % 2 == 0,
                });
            }
        }
        let regions = reconstruct(&trace);
        // Coverage: every traced byte falls in some region.
        for e in &trace {
            prop_assert!(
                region_containing(&regions, e.addr).is_some(),
                "address {:#x} not covered",
                e.addr
            );
        }
        // Disjointness: no byte belongs to two regions.
        for (i, a) in regions.iter().enumerate() {
            for b in regions.iter().skip(i + 1) {
                prop_assert!(
                    a.end <= b.start || b.end <= a.start,
                    "regions [{:#x},{:#x}) and [{:#x},{:#x}) overlap",
                    a.start, a.end, b.start, b.end
                );
            }
        }
    }

    /// A strided scanline access pattern (>= 3 rows with padding between rows)
    /// is linked into one region whose recorded stride and count match the
    /// generator, and whose grouping depth is 1 (a 2-D buffer).
    #[test]
    fn strided_rows_are_linked_with_correct_stride(
        rows in 3u32..12,
        row_bytes in 4u32..32,
        pad in 1u32..16,
    ) {
        let stride = row_bytes + pad;
        let trace = strided_trace(0x10_0000, rows, row_bytes, stride, 0x400);
        let regions = reconstruct(&trace);
        prop_assert_eq!(regions.len(), 1, "rows separated by constant stride must coalesce");
        let r = &regions[0];
        prop_assert_eq!(r.start, 0x10_0000);
        prop_assert_eq!(r.end, 0x10_0000 + (rows - 1) * stride + row_bytes);
        prop_assert_eq!(r.grouping_levels(), 1);
        prop_assert_eq!(r.group_strides[0], (stride, rows));
        prop_assert!(r.read);
        prop_assert!(!r.written);
    }

    /// Without padding the scanlines are contiguous: reconstruction produces a
    /// single flat region with no grouping levels (the paper's "no gaps ⇒
    /// treated as single-dimensional" case).
    #[test]
    fn contiguous_rows_collapse_to_one_flat_region(rows in 3u32..10, row_bytes in 4u32..32) {
        let trace = strided_trace(0x20_0000, rows, row_bytes, row_bytes, 0x400);
        let regions = reconstruct(&trace);
        prop_assert_eq!(regions.len(), 1);
        prop_assert_eq!(regions[0].grouping_levels(), 0);
        prop_assert_eq!(regions[0].len(), rows * row_bytes);
    }

    /// An unrolled loop whose individual instructions each touch every other
    /// element still reconstructs to one contiguous region (the paper's
    /// motivation for merging ranges across instructions).
    #[test]
    fn unrolled_accesses_merge_across_instructions(elems in 6u32..64) {
        let mut trace = Vec::new();
        for e in 0..elems {
            trace.push(MemTraceEntry {
                instr_addr: if e % 2 == 0 { 0x500 } else { 0x504 },
                addr: 0x30_0000 + e,
                width: Width::B1,
                is_write: true,
            });
        }
        let regions = reconstruct(&trace);
        prop_assert_eq!(regions.len(), 1);
        prop_assert_eq!(regions[0].len(), elems);
        prop_assert!(regions[0].written);
        prop_assert_eq!(regions[0].instructions.len(), 2);
    }

    /// The inferred element width is the most common access width, so a buffer
    /// read mostly as 4-byte words with a few byte-wide probes is classified
    /// as a 4-byte-element buffer.
    #[test]
    fn element_width_is_majority_vote(words in 8u32..32, byte_probes in 0u32..4) {
        prop_assume!(byte_probes < words);
        let mut trace = Vec::new();
        for w in 0..words {
            trace.push(MemTraceEntry {
                instr_addr: 0x600,
                addr: 0x40_0000 + w * 4,
                width: Width::B4,
                is_write: false,
            });
        }
        for b in 0..byte_probes {
            trace.push(MemTraceEntry {
                instr_addr: 0x604,
                addr: 0x40_0000 + b,
                width: Width::B1,
                is_write: false,
            });
        }
        let regions = reconstruct(&trace);
        prop_assert_eq!(regions.len(), 1);
        prop_assert_eq!(regions[0].element_width, 4);
    }
}

/// Two levels of padding (channel stride and scanline stride) produce two
/// levels of recursive grouping — the paper's interleaved-RGB-with-aligned-
/// scanlines example.
#[test]
fn two_level_grouping_detects_both_strides() {
    // 8 scanlines; each scanline holds 5 "pixels" of which we touch 1 byte per
    // 3-byte pixel; scanlines are 18 bytes apart (15 rounded up to 18).
    let mut trace = Vec::new();
    for row in 0..8u32 {
        for px in 0..5u32 {
            trace.push(MemTraceEntry {
                instr_addr: 0x700,
                addr: 0x50_0000 + row * 18 + px * 3,
                width: Width::B1,
                is_write: false,
            });
        }
    }
    let regions = reconstruct(&trace);
    assert_eq!(regions.len(), 1, "regions: {regions:#?}");
    let r = &regions[0];
    assert_eq!(r.grouping_levels(), 2);
    assert_eq!(
        r.group_strides[0],
        (3, 5),
        "inner stride is the pixel stride"
    );
    assert_eq!(
        r.group_strides[1],
        (18, 8),
        "outer stride is the scanline stride"
    );
}

// ---------------------------------------------------------------------------
// Tree canonicalization (paper §4.7)
// ---------------------------------------------------------------------------

/// Build a small tree `op(leaf_0, ..., leaf_{n-1})` with the leaves in the
/// given order.
fn flat_tree(op: TreeOp, leaves: &[Leaf]) -> Tree {
    let output = Leaf::Mem {
        addr: 0xD000_0000,
        width: 1,
        value: 0,
    };
    let mut tree = Tree {
        nodes: Vec::new(),
        root: 0,
        output,
        output_width: 1,
    };
    let children: Vec<usize> = leaves
        .iter()
        .map(|l| tree.push(TreeNode::Leaf(l.clone())))
        .collect();
    let root = tree.push(TreeNode::Op {
        op,
        children,
        width: 4,
    });
    tree.root = root;
    tree
}

/// A strategy producing simple buffer-reference and constant leaves.
fn leaf_strategy() -> impl Strategy<Value = Leaf> {
    prop_oneof![
        (0u8..3, -4i64..5, -4i64..5).prop_map(|(b, x, y)| Leaf::BufferRef {
            buffer: format!("input_{}", b + 1),
            indices: vec![x, y],
        }),
        (-100i64..100).prop_map(Leaf::Const),
    ]
}

proptest! {
    /// Canonicalization of a commutative node is order-insensitive: any
    /// permutation of the operands produces the same structural key, and the
    /// multiset of leaves is preserved.
    #[test]
    fn canonicalization_is_order_insensitive(
        leaves in prop::collection::vec(leaf_strategy(), 2..6),
        seed in any::<u64>(),
    ) {
        let mut a = flat_tree(TreeOp::Add, &leaves);
        // A deterministic pseudo-shuffle of the operand order.
        let mut shuffled = leaves.clone();
        let n = shuffled.len();
        let mut state = seed;
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            shuffled.swap(i, j);
        }
        let mut b = flat_tree(TreeOp::Add, &shuffled);

        a.canonicalize();
        b.canonicalize();
        prop_assert_eq!(a.structure_key(), b.structure_key());

        let count = |t: &Tree| {
            let mut v: Vec<String> = t.leaves_in_order().iter().map(|l| format!("{l:?}")).collect();
            v.sort();
            v
        };
        prop_assert_eq!(count(&a), count(&b), "canonicalization must not lose leaves");
    }

    /// Canonicalization is idempotent.
    #[test]
    fn canonicalization_is_idempotent(leaves in prop::collection::vec(leaf_strategy(), 2..6)) {
        let mut t = flat_tree(TreeOp::Mul, &leaves);
        t.canonicalize();
        let once = t.clone();
        t.canonicalize();
        prop_assert_eq!(t, once);
    }

    /// Non-commutative operations are left untouched by canonicalization.
    #[test]
    fn non_commutative_operands_keep_their_order(a in -50i64..50, b in -50i64..50) {
        let leaves = [Leaf::Const(a), Leaf::Const(b)];
        let mut t = flat_tree(TreeOp::Sub, &leaves);
        let before = t.render();
        t.canonicalize();
        prop_assert_eq!(t.render(), before);
    }

    /// The structural key used for clustering ignores constant values and
    /// concrete indices but distinguishes different buffers and operations.
    #[test]
    fn structure_key_ignores_values_but_not_shape(
        c1 in -100i64..100,
        c2 in -100i64..100,
        x in -4i64..5,
        y in -4i64..5,
    ) {
        let t1 = flat_tree(
            TreeOp::Add,
            &[
                Leaf::BufferRef { buffer: "input_1".into(), indices: vec![x, y] },
                Leaf::Const(c1),
            ],
        );
        let t2 = flat_tree(
            TreeOp::Add,
            &[
                Leaf::BufferRef { buffer: "input_1".into(), indices: vec![x + 1, y - 1] },
                Leaf::Const(c2),
            ],
        );
        prop_assert_eq!(t1.structure_key(), t2.structure_key());

        let different_buffer = flat_tree(
            TreeOp::Add,
            &[
                Leaf::BufferRef { buffer: "input_2".into(), indices: vec![x, y] },
                Leaf::Const(c1),
            ],
        );
        prop_assert_ne!(t1.structure_key(), different_buffer.structure_key());

        let different_op = flat_tree(
            TreeOp::Mul,
            &[
                Leaf::BufferRef { buffer: "input_1".into(), indices: vec![x, y] },
                Leaf::Const(c1),
            ],
        );
        prop_assert_ne!(t1.structure_key(), different_op.structure_key());
    }
}

// ---------------------------------------------------------------------------
// Buffer layouts (paper §4.3)
// ---------------------------------------------------------------------------

proptest! {
    /// `index_of` inverts the addressing function `base + y*stride + x*elem`
    /// for every in-bounds coordinate of a 2-D layout.
    #[test]
    fn layout_index_of_inverts_addressing(
        width in 1u32..48,
        height in 1u32..32,
        pad in 0u32..17,
        base in (0x1000u32..0x8000).prop_map(|b| b * 16),
    ) {
        let stride = width + pad;
        // Address decomposition is only unambiguous when the scanline stride
        // is strictly larger than the element stride.
        prop_assume!(stride > 1);
        let layout = BufferLayout {
            name: "input_1".into(),
            role: BufferRole::Input,
            base,
            end: base + stride * height,
            element_size: 1,
            strides: vec![1, stride],
            extents: vec![width, height],
        };
        prop_assert_eq!(layout.dims(), 2);
        for &(x, y) in &[(0, 0), (width - 1, 0), (0, height - 1), (width - 1, height - 1), (width / 2, height / 2)] {
            let addr = base + y * stride + x;
            prop_assert_eq!(layout.index_of(addr), Some(vec![x as i64, y as i64]));
        }
        prop_assert!(layout.contains(base));
        prop_assert!(!layout.contains(base + stride * height));
        prop_assert!(layout.index_of(base.wrapping_sub(1)).is_none());
        prop_assert_eq!(layout.byte_len(), stride * height);
    }

    /// A 3-D layout (planes of padded scanlines) also inverts correctly, with
    /// the innermost dimension first as the rest of the pipeline assumes.
    #[test]
    fn layout_index_of_inverts_3d_addressing(
        nx in 1u32..16,
        ny in 2u32..8,
        nz in 1u32..6,
        pad in 0u32..5,
    ) {
        let sx = 4u32; // 4-byte elements
        let sy = (nx + pad) * sx;
        let sz = sy * ny;
        // Strides must be strictly ordered for the decomposition to be unique.
        prop_assume!(sy > sx && sz > sy);
        let base = 0x0100_0000u32;
        let layout = BufferLayout {
            name: "input_1".into(),
            role: BufferRole::Input,
            base,
            end: base + sz * nz,
            element_size: 4,
            strides: vec![sx, sy, sz],
            extents: vec![nx, ny, nz],
        };
        for &(x, y, z) in &[(0, 0, 0), (nx - 1, ny - 1, nz - 1), (nx / 2, ny / 2, nz / 2)] {
            let addr = base + z * sz + y * sy + x * sx;
            prop_assert_eq!(layout.index_of(addr), Some(vec![x as i64, y as i64, z as i64]));
        }
    }
}

/// A copy of the canonicalizer the lifter used before keys were built
/// bottom-up: every commutative node re-renders each child's subtree and
/// sorts `(key, node)` pairs. The memoized one must match it exactly.
mod reference {
    use helium_core::trees::{Leaf, Tree, TreeNode, TreeOp};

    pub fn structure_of(tree: &Tree, node: usize, out: &mut String) {
        match &tree.nodes[node] {
            TreeNode::Leaf(l) => {
                let tag = match l {
                    Leaf::Mem { .. } => "M",
                    Leaf::BufferRef { buffer, .. } => buffer.as_str(),
                    Leaf::SymbolicRef { buffer, .. } => buffer.as_str(),
                    Leaf::Const(_) | Leaf::ConstF(_) => "C",
                    Leaf::Param { name, .. } => name.as_str(),
                    Leaf::RecursiveRef { .. } => "R",
                };
                out.push('(');
                out.push_str(tag);
                out.push(')');
            }
            TreeNode::Op { op, children, .. } => {
                out.push('(');
                match op {
                    TreeOp::Extern(e) => out.push_str(&e.to_string()),
                    other => out.push_str(&format!("{other:?}")),
                }
                for &c in children {
                    structure_of(tree, c, out);
                }
                out.push(')');
            }
        }
    }

    pub fn canonicalize(tree: &mut Tree, node: usize) {
        if let TreeNode::Op { children, op, .. } = tree.nodes[node].clone() {
            for &c in &children {
                canonicalize(tree, c);
            }
            if op.is_commutative() && children.len() > 1 {
                let mut keyed: Vec<(String, usize)> = children
                    .iter()
                    .map(|&c| {
                        let mut s = String::new();
                        structure_of(tree, c, &mut s);
                        (s, c)
                    })
                    .collect();
                keyed.sort();
                if let TreeNode::Op { children, .. } = &mut tree.nodes[node] {
                    *children = keyed.into_iter().map(|(_, c)| c).collect();
                }
            }
        }
    }
}

/// The shape of a random tree before it is laid out in an arena.
#[derive(Debug, Clone)]
enum Shape {
    Leaf(Leaf),
    /// An operation, its operands, and whether the operands are pushed into
    /// the arena last to first (so node order and operand order disagree).
    Op(TreeOp, Vec<Shape>, bool),
}

fn shape_leaf() -> impl Strategy<Value = Shape> {
    prop_oneof![
        (0u64..4).prop_map(|a| Leaf::Mem {
            addr: 0x1000 + a,
            width: 1,
            value: 0
        }),
        (-3i64..3).prop_map(Leaf::Const),
        (0u8..2).prop_map(|b| Leaf::BufferRef {
            buffer: format!("input_{}", b + 1),
            indices: vec![b as i64],
        }),
        (0u8..2).prop_map(|p| Leaf::Param {
            name: format!("p_{p}"),
            value: 0,
            width: 4,
            is_float: false,
        }),
        Just(Leaf::RecursiveRef {
            buffer: "output_1".into()
        }),
    ]
    .prop_map(Shape::Leaf)
}

fn shape() -> BoxedStrategy<Shape> {
    let ops = prop::sample::select(vec![
        TreeOp::Add,
        TreeOp::Sub,
        TreeOp::Mul,
        TreeOp::And,
        TreeOp::Or,
        TreeOp::Xor,
        TreeOp::Shr,
        TreeOp::Sar,
        TreeOp::Shl,
        TreeOp::Neg,
        TreeOp::Not,
        TreeOp::Move,
        TreeOp::SignExtend,
        TreeOp::Downcast,
        TreeOp::FAdd,
        TreeOp::FSub,
        TreeOp::FMul,
        TreeOp::FDiv,
        TreeOp::IntToFloat,
        TreeOp::FloatToIntRound,
        TreeOp::Extern(ExternFn::Sqrt),
        TreeOp::Extern(ExternFn::Pow),
        TreeOp::IndirectLoad,
    ]);
    shape_leaf().prop_recursive(4, 32, 3, move |inner| {
        (
            ops.clone(),
            prop::collection::vec(inner, 1..4),
            any::<bool>(),
        )
            .prop_map(|(op, children, rev)| Shape::Op(op, children, rev))
    })
}

/// Lay `shape` out in `tree`, children before their parent, and return its
/// node id.
fn lay_out(tree: &mut Tree, shape: &Shape) -> usize {
    match shape {
        Shape::Leaf(l) => tree.push(TreeNode::Leaf(l.clone())),
        Shape::Op(op, children, rev) => {
            let mut ids: Vec<(usize, usize)> = Vec::new();
            let order: Vec<usize> = if *rev {
                (0..children.len()).rev().collect()
            } else {
                (0..children.len()).collect()
            };
            for i in order {
                ids.push((i, lay_out(tree, &children[i])));
            }
            ids.sort();
            tree.push(TreeNode::Op {
                op: *op,
                children: ids.into_iter().map(|(_, id)| id).collect(),
                width: 4,
            })
        }
    }
}

fn tree_of(shape: &Shape) -> Tree {
    let mut tree = Tree {
        nodes: Vec::new(),
        root: 0,
        output: Leaf::Const(0),
        output_width: 4,
    };
    tree.root = lay_out(&mut tree, shape);
    tree
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The memoized canonicalizer orders every node's children exactly as
    /// the re-rendering one did, ties included, and yields the same key.
    #[test]
    fn memoized_canonicalization_matches_the_reference(shape in shape()) {
        let mut fast = tree_of(&shape);
        let mut slow = fast.clone();
        fast.canonicalize();
        let root = slow.root;
        reference::canonicalize(&mut slow, root);
        prop_assert_eq!(&fast.nodes, &slow.nodes);
        let mut key = String::new();
        reference::structure_of(&slow, root, &mut key);
        prop_assert_eq!(fast.structure_key(), key);
    }
}

// ---------------------------------------------------------------------------
// Shadow tables (paper §4.5)
// ---------------------------------------------------------------------------

/// A location in one of the address-space zones the shadow table treats
/// differently: straddling a memory page boundary, at the top of memory
/// (running into the register space, as byte addresses do), elsewhere in
/// memory, in the register space and in the FP slots.
fn zone_loc() -> impl Strategy<Value = Loc> {
    (0u8..5, 0u64..64, 1u32..9).prop_map(|(zone, offset, width)| {
        let (addr, room) = match zone {
            0 => (0x0001_2ff8 + offset % 16, 8),
            1 => (0xffff_fff8 + offset % 8, 8),
            2 => (0x8000_0000 + offset * 3, 8),
            3 => (REG_SPACE + offset, 64 - offset),
            _ => (FP_SPACE + offset, 64 - offset),
        };
        Loc {
            addr,
            width: width.min(room as u32),
        }
    })
}

#[derive(Debug, Clone)]
enum ShadowOp {
    Set(Loc, u8),
    Get(Loc, u32),
    Max(Loc),
}

fn shadow_op() -> impl Strategy<Value = ShadowOp> {
    prop_oneof![
        (zone_loc(), any::<u8>()).prop_map(|(l, v)| ShadowOp::Set(l, v)),
        (zone_loc(), 0u32..8).prop_map(|(l, i)| ShadowOp::Get(l, i)),
        zone_loc().prop_map(ShadowOp::Max),
    ]
}

proptest! {
    /// Every read of a shadow table agrees with a byte-keyed map after any
    /// sequence of writes.
    #[test]
    fn shadow_table_matches_a_byte_map(ops in prop::collection::vec(shadow_op(), 1..200)) {
        let mut shadow: Shadow<u8> = Shadow::new();
        let mut reference: BTreeMap<u64, u8> = BTreeMap::new();
        let bytes = |l: &Loc| l.addr..l.addr + l.width as u64;
        for op in &ops {
            match op {
                ShadowOp::Set(l, v) => {
                    shadow.set(*l, *v);
                    for b in bytes(l) {
                        reference.insert(b, *v);
                    }
                }
                ShadowOp::Get(l, i) => {
                    let addr = l.addr + (*i % l.width) as u64;
                    let want = reference.get(&addr).copied().unwrap_or(0);
                    prop_assert_eq!(shadow.get(addr), want, "byte {:#x}", addr);
                }
                ShadowOp::Max(l) => {
                    let want = bytes(l)
                        .map(|b| reference.get(&b).copied().unwrap_or(0))
                        .max()
                        .unwrap_or(0);
                    prop_assert_eq!(shadow.max(*l), want, "{:?}", l);
                }
            }
        }
    }
}
