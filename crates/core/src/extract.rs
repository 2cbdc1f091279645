//! Expression extraction: trace preprocessing, forward analysis for
//! input-dependent conditionals, and backward analysis that builds concrete
//! data-dependency trees (paper §4.5–§4.7).
//!
//! Both trace analyses keep per-byte state over the unified address space of
//! paper §4.5: memory below [`REG_SPACE`], then the general-purpose
//! registers, then the x87 stack slots. That state lives in a [`Shadow`]
//! table: the registers and FP slots in fixed arrays, memory in 4 KiB pages
//! found through a flat page directory. Reading or writing a [`Loc`] costs
//! one directory lookup per page it touches (at most two, since a location
//! is at most eight bytes wide) and a pass over its bytes, with no per-byte
//! map probe.
//!
//! Lowering allocates nothing per instruction: a step keeps its definitions
//! and each memory argument its address registers inline, sized to the ISA's
//! maximum arity (two each), and the arguments of every step go into one
//! table per trace. [`prepare_trace`] records on every location an
//! instruction reads (definition arguments, address registers and flag
//! operands) the [`Reaching`] definition of that location, so the backward
//! analysis follows each def-use link in O(1).

use crate::layout::{BufferLayout, BufferRole};
use crate::trees::{GuardedTree, Leaf, Predicate, PredicateCmp, Tree, TreeNode, TreeOp};
use helium_dbi::InstructionTrace;
use helium_machine::cpu::StepRecord;
use helium_machine::isa::{AluOp, Cond, FpSrc, Instr, Operand, Reg, RegRef, ShiftOp};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::{Deref, DerefMut};

/// Shadow address space base for general-purpose registers (paper §4.5 maps
/// registers into memory so the analysis treats them uniformly).
pub const REG_SPACE: u64 = 0x1_0000_0000;
/// Shadow address space base for x87 physical stack slots.
pub const FP_SPACE: u64 = 0x1_0100_0000;
/// Bytes of each shadow register space: eight 8-byte slots.
const SLOT_BYTES: usize = 64;

/// A byte range in the unified (memory + shadow register) address space.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Loc {
    /// Start address.
    pub addr: u64,
    /// Width in bytes.
    pub width: u32,
}

impl Loc {
    /// A memory location.
    pub fn mem(addr: u32, width: u32) -> Loc {
        Loc {
            addr: addr as u64,
            width,
        }
    }

    /// The shadow location of a register view.
    pub fn reg(r: RegRef) -> Loc {
        Loc {
            addr: REG_SPACE + (r.reg.index() as u64) * 8 + r.lo as u64,
            width: r.width.bytes(),
        }
    }

    /// The shadow location of an x87 physical stack slot.
    pub fn fp(phys_slot: u8) -> Loc {
        Loc {
            addr: FP_SPACE + phys_slot as u64 * 8,
            width: 8,
        }
    }

    /// Returns `true` if this location is a real memory address.
    pub fn is_memory(&self) -> bool {
        self.addr < REG_SPACE
    }

    fn overlaps(&self, other: &Loc) -> bool {
        self.addr < other.addr + other.width as u64 && other.addr < self.addr + self.width as u64
    }
}

// ---------------------------------------------------------------------------
// Shadow state
// ---------------------------------------------------------------------------

/// Address bits covered by one shadow memory page.
const PAGE_BITS: u32 = 12;
const PAGE: usize = 1 << PAGE_BITS;
/// Directory entries: one per page of the 32-bit memory space. A location
/// running past its top continues into the register space, as byte
/// addresses do.
const DIRECTORY_LEN: usize = 1 << (32 - PAGE_BITS);

/// A value of type `T` for every byte of the unified address space, all
/// starting at `T::default()`, which must be the least value of `T`.
#[derive(Debug, Clone)]
pub struct Shadow<T> {
    regs: [T; SLOT_BYTES],
    fp: [T; SLOT_BYTES],
    /// Memory page number -> 1 + its index in `pages` (0: never written).
    directory: Vec<u32>,
    /// The written memory pages, `PAGE` values each.
    pages: Vec<T>,
}

impl<T: Copy + Default + Ord> Default for Shadow<T> {
    fn default() -> Self {
        Shadow::new()
    }
}

impl<T: Copy + Default + Ord> Shadow<T> {
    /// A table with every byte at `T::default()`.
    pub fn new() -> Shadow<T> {
        Shadow {
            regs: [T::default(); SLOT_BYTES],
            fp: [T::default(); SLOT_BYTES],
            directory: vec![0; DIRECTORY_LEN],
            pages: Vec::new(),
        }
    }

    /// The value of the byte at `addr`.
    pub fn get(&self, addr: u64) -> T {
        self.max(Loc { addr, width: 1 })
    }

    /// The largest value over the bytes of `loc` (`T::default()` when
    /// `loc` is empty).
    pub fn max(&self, loc: Loc) -> T {
        let mut out = T::default();
        for (addr, len) in pieces(loc) {
            if let Some(bytes) = self.slice(addr, len) {
                for &v in bytes {
                    out = out.max(v);
                }
            }
        }
        out
    }

    /// Set every byte of `loc` to `value`.
    pub fn set(&mut self, loc: Loc, value: T) {
        for (addr, len) in pieces(loc) {
            self.slice_mut(addr, len).fill(value);
        }
    }

    /// The values of `len` bytes from `addr` within one page or register
    /// space, or `None` for a memory page never written.
    fn slice(&self, addr: u64, len: usize) -> Option<&[T]> {
        let (table, offset) = if addr >= FP_SPACE {
            (&self.fp[..], (addr - FP_SPACE) as usize)
        } else if addr >= REG_SPACE {
            (&self.regs[..], (addr - REG_SPACE) as usize)
        } else {
            let page = self.directory[(addr >> PAGE_BITS) as usize] as usize;
            if page == 0 {
                return None;
            }
            (
                &self.pages[..],
                (page - 1) * PAGE + (addr as usize & (PAGE - 1)),
            )
        };
        debug_assert!(offset + len <= table.len(), "{len} bytes at {addr:#x}");
        Some(&table[offset..offset + len])
    }

    fn slice_mut(&mut self, addr: u64, len: usize) -> &mut [T] {
        let (table, offset) = if addr >= FP_SPACE {
            (&mut self.fp[..], (addr - FP_SPACE) as usize)
        } else if addr >= REG_SPACE {
            (&mut self.regs[..], (addr - REG_SPACE) as usize)
        } else {
            let entry = &mut self.directory[(addr >> PAGE_BITS) as usize];
            if *entry == 0 {
                self.pages.resize(self.pages.len() + PAGE, T::default());
                *entry = (self.pages.len() / PAGE) as u32;
            }
            let page = *entry as usize;
            (
                &mut self.pages[..],
                (page - 1) * PAGE + (addr as usize & (PAGE - 1)),
            )
        };
        debug_assert!(offset + len <= table.len(), "{len} bytes at {addr:#x}");
        &mut table[offset..offset + len]
    }
}

/// Split `loc` into `(addr, len)` pieces that each lie within one memory
/// page or one register space (the second piece is empty unless `loc`
/// crosses a page boundary).
fn pieces(loc: Loc) -> [(u64, usize); 2] {
    let end = loc.addr + loc.width as u64;
    let page_end = (loc.addr | (PAGE as u64 - 1)) + 1;
    if loc.addr >= REG_SPACE || end <= page_end {
        [(loc.addr, loc.width as usize), (end, 0)]
    } else {
        [
            (loc.addr, (page_end - loc.addr) as usize),
            (page_end, (end - page_end) as usize),
        ]
    }
}

/// The reaching definition of a read: the latest dynamic step that wrote
/// any byte of the location before the reading step, if any. Ordered so
/// that "none" is least and later steps are greater.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Reaching(u32);

impl Reaching {
    fn at(step: usize) -> Reaching {
        Reaching(u32::try_from(step + 1).expect("trace length fits in u32"))
    }

    /// The dynamic index of the defining step.
    pub fn step(self) -> Option<usize> {
        self.0.checked_sub(1).map(|s| s as usize)
    }
}

// ---------------------------------------------------------------------------
// Lowered instructions
// ---------------------------------------------------------------------------

/// Inline storage for at most `N` items.
#[derive(Clone, Copy)]
pub struct Inline<T, const N: usize> {
    len: u8,
    items: [T; N],
}

impl<T: Copy + Default, const N: usize> Default for Inline<T, N> {
    fn default() -> Self {
        Inline {
            len: 0,
            items: [T::default(); N],
        }
    }
}

impl<T: Copy + Default, const N: usize> Inline<T, N> {
    fn push(&mut self, item: T) {
        assert!((self.len as usize) < N, "more than {N} items");
        self.items[self.len as usize] = item;
        self.len += 1;
    }
}

impl<T, const N: usize> Deref for Inline<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.items[..self.len as usize]
    }
}

impl<T, const N: usize> DerefMut for Inline<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.items[..self.len as usize]
    }
}

impl<T: std::fmt::Debug, const N: usize> std::fmt::Debug for Inline<T, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: PartialEq, const N: usize> PartialEq for Inline<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

/// Most definitions one instruction performs (`fxch` writes two slots).
const MAX_DEFS: usize = 2;
/// Most arguments of one definition (`lea`: base, index, displacement).
const MAX_ARGS: usize = 3;
/// Most registers in one address expression (base and index).
const MAX_ADDR_REGS: usize = 2;

/// A register that contributed to the address of a memory access.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AddrReg {
    /// The register (its full 32-bit view).
    pub reg: Reg,
    /// The definition of the register that reaches the access.
    pub def: Reaching,
}

impl Default for AddrReg {
    fn default() -> Self {
        AddrReg {
            reg: Reg::Eax,
            def: Reaching::default(),
        }
    }
}

impl AddrReg {
    /// The register's shadow location.
    pub fn loc(&self) -> Loc {
        Loc::reg(RegRef::full(self.reg))
    }
}

/// An argument of a lowered micro-operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MicroArg {
    /// An immediate integer.
    Imm(i64),
    /// A location (register shadow, FP slot or memory) with its observed value.
    Loc {
        /// The location read.
        loc: Loc,
        /// Raw bits observed in the trace (memory reads only; 0 otherwise).
        value: u64,
        /// Registers that formed the address when the location is a memory
        /// access through registers (`base + scale*index`). Empty for
        /// direct accesses.
        addr_regs: Inline<AddrReg, MAX_ADDR_REGS>,
        /// The definition of `loc` that reaches this read.
        def: Reaching,
    },
}

impl MicroArg {
    fn simple(loc: Loc) -> MicroArg {
        MicroArg::Loc {
            loc,
            value: 0,
            addr_regs: Inline::default(),
            def: Reaching::default(),
        }
    }

    fn mem(acc: &helium_machine::MemAccess) -> MicroArg {
        MicroArg::Loc {
            loc: Loc::mem(acc.addr, acc.width.bytes()),
            value: acc.value,
            addr_regs: Inline::default(),
            def: Reaching::default(),
        }
    }
}

/// A run of consecutive arguments in a lowered trace's argument table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Args {
    start: u32,
    len: u8,
}

impl Args {
    /// The arguments in `table`.
    pub fn of(self, table: &[MicroArg]) -> &[MicroArg] {
        &table[self.start as usize..self.start as usize + self.len as usize]
    }
}

/// Append `args` to `table` and return their span.
fn push_args(table: &mut Vec<MicroArg>, args: impl IntoIterator<Item = MicroArg>) -> Args {
    let start = table.len();
    table.extend(args);
    let len = table.len() - start;
    debug_assert!(len <= MAX_ARGS, "{len} arguments");
    Args {
        start: u32::try_from(start).expect("argument table fits in u32"),
        len: len as u8,
    }
}

/// One lowered definition event (a value written to a location).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DefEvent {
    /// Destination location.
    pub dst: Loc,
    /// Operation producing the value.
    pub op: TreeOp,
    /// Arguments.
    pub args: Args,
}

impl Default for DefEvent {
    fn default() -> Self {
        DefEvent {
            dst: Loc::default(),
            op: TreeOp::Move,
            args: Args::default(),
        }
    }
}

/// A preprocessed dynamic instruction.
#[derive(Debug, Clone, Default)]
pub struct MicroStep {
    /// Static instruction address.
    pub addr: u32,
    /// Value definitions performed by the instruction.
    pub defs: Inline<DefEvent, MAX_DEFS>,
    /// The two operands the flags were set from, if the instruction sets
    /// flags from two operands.
    pub flags: Option<Args>,
    /// For conditional jumps: the condition and whether it was taken.
    pub branch: Option<(Cond, bool)>,
}

/// Errors produced during expression extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExtractError {
    /// An instruction could not be lowered for analysis.
    Unsupported(String),
    /// No output buffer writes were found in the trace.
    NoOutputs,
}

impl std::fmt::Display for ExtractError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExtractError::Unsupported(s) => write!(f, "unsupported instruction for analysis: {s}"),
            ExtractError::NoOutputs => write!(f, "no writes to output buffers found in the trace"),
        }
    }
}

impl std::error::Error for ExtractError {}

// ---------------------------------------------------------------------------
// Trace preprocessing: lowering to micro-ops (paper §4.5)
// ---------------------------------------------------------------------------

fn operand_loc(op: &Operand, rec: &StepRecord, want_write: bool) -> MicroArg {
    match op {
        Operand::Reg(r) => MicroArg::simple(Loc::reg(*r)),
        Operand::Imm(v) => MicroArg::Imm(*v),
        Operand::Mem(_) => {
            // Find the matching access in the record.
            let acc = rec
                .mem
                .iter()
                .find(|m| m.is_write == want_write)
                .or_else(|| rec.mem.first())
                .expect("memory operand must have a recorded access");
            // A scale of zero contributes nothing to the address (an encoding
            // artifact of `[reg + reg*0 + disp]` forms); keeping it would
            // double-count the register in indirect-access index expressions
            // (e.g. lookup tables indexed by a pixel value).
            let index = acc.expr.index.filter(|_| acc.expr.scale != 0);
            let mut addr_regs = Inline::default();
            for reg in acc.expr.base.into_iter().chain(index) {
                addr_regs.push(AddrReg {
                    reg,
                    def: Reaching::default(),
                });
            }
            MicroArg::Loc {
                loc: Loc::mem(acc.addr, acc.width.bytes()),
                value: acc.value,
                addr_regs,
                def: Reaching::default(),
            }
        }
    }
}

fn fp_arg(src: &FpSrc, rec: &StepRecord, top: u8) -> MicroArg {
    match src {
        FpSrc::St(i) => MicroArg::simple(Loc::fp((top + i) % 8)),
        FpSrc::MemF32(_) | FpSrc::MemF64(_) | FpSrc::MemI32(_) => MicroArg::mem(
            rec.mem
                .iter()
                .find(|m| !m.is_write)
                .expect("fp memory read recorded"),
        ),
    }
}

fn alu_tree_op(op: AluOp) -> TreeOp {
    match op {
        AluOp::Add | AluOp::Adc => TreeOp::Add,
        AluOp::Sub | AluOp::Sbb => TreeOp::Sub,
        AluOp::And => TreeOp::And,
        AluOp::Or => TreeOp::Or,
        AluOp::Xor => TreeOp::Xor,
        AluOp::Imul => TreeOp::Mul,
    }
}

/// A step being lowered, with the argument table its events point into.
struct Lowering<'t> {
    step: MicroStep,
    args: &'t mut Vec<MicroArg>,
}

impl Lowering<'_> {
    fn def(&mut self, dst: Loc, op: TreeOp, args: impl IntoIterator<Item = MicroArg>) {
        let args = push_args(self.args, args);
        self.step.defs.push(DefEvent { dst, op, args });
    }

    fn flags(&mut self, a: MicroArg, b: MicroArg) -> Args {
        let args = push_args(self.args, [a, b]);
        self.step.flags = Some(args);
        args
    }
}

/// Lower one dynamic instruction into definition/flag events, appending
/// their arguments to `args`.
pub fn lower_step(rec: &StepRecord, args: &mut Vec<MicroArg>) -> Result<MicroStep, ExtractError> {
    let top = rec.fpu_top_before;
    let mut l = Lowering {
        step: MicroStep {
            addr: rec.addr,
            ..MicroStep::default()
        },
        args,
    };
    let write = rec.mem.iter().find(|m| m.is_write);
    match &rec.instr {
        Instr::Mov { dst, src } => {
            let s = operand_loc(src, rec, false);
            if let MicroArg::Loc { loc, .. } = operand_loc(dst, rec, true) {
                l.def(loc, TreeOp::Move, [s]);
            }
        }
        Instr::Movzx { dst, src } => {
            l.def(Loc::reg(*dst), TreeOp::Move, [operand_loc(src, rec, false)]);
        }
        Instr::Movsx { dst, src } => {
            l.def(
                Loc::reg(*dst),
                TreeOp::SignExtend,
                [operand_loc(src, rec, false)],
            );
        }
        Instr::Lea { dst, addr } => {
            // lea computes an address without accessing memory: model it as
            // an addition of its register parts and displacement.
            let regs = addr.base.into_iter().chain(addr.index);
            let args = regs
                .map(|r| MicroArg::simple(Loc::reg(RegRef::full(r))))
                .chain([MicroArg::Imm(addr.disp as i64)]);
            l.def(Loc::reg(*dst), TreeOp::Add, args);
        }
        Instr::Alu { op, dst, src } => {
            // The flags compare the same two operands the result combines.
            let args = l.flags(operand_loc(dst, rec, false), operand_loc(src, rec, false));
            if let MicroArg::Loc { loc, .. } = operand_loc(dst, rec, true) {
                l.step.defs.push(DefEvent {
                    dst: loc,
                    op: alu_tree_op(*op),
                    args,
                });
            }
        }
        Instr::Shift { op, dst, amount } => {
            let d_read = operand_loc(dst, rec, false);
            let amt = operand_loc(amount, rec, false);
            let tree_op = match op {
                ShiftOp::Shl => TreeOp::Shl,
                ShiftOp::Shr => TreeOp::Shr,
                ShiftOp::Sar => TreeOp::Sar,
            };
            if let MicroArg::Loc { loc, .. } = operand_loc(dst, rec, true) {
                l.def(loc, tree_op, [d_read, amt]);
            }
        }
        Instr::Inc { dst } => {
            let d_read = operand_loc(dst, rec, false);
            l.flags(d_read, MicroArg::Imm(-1));
            if let MicroArg::Loc { loc, .. } = operand_loc(dst, rec, true) {
                l.def(loc, TreeOp::Add, [d_read, MicroArg::Imm(1)]);
            }
        }
        Instr::Dec { dst } => {
            let d_read = operand_loc(dst, rec, false);
            l.flags(d_read, MicroArg::Imm(1));
            if let MicroArg::Loc { loc, .. } = operand_loc(dst, rec, true) {
                l.def(loc, TreeOp::Sub, [d_read, MicroArg::Imm(1)]);
            }
        }
        Instr::Neg { dst } => {
            let d_read = operand_loc(dst, rec, false);
            if let MicroArg::Loc { loc, .. } = operand_loc(dst, rec, true) {
                l.def(loc, TreeOp::Neg, [d_read]);
            }
        }
        Instr::Not { dst } => {
            let d_read = operand_loc(dst, rec, false);
            if let MicroArg::Loc { loc, .. } = operand_loc(dst, rec, true) {
                l.def(loc, TreeOp::Not, [d_read]);
            }
        }
        Instr::Cmp { a, b } | Instr::Test { a, b } => {
            l.flags(operand_loc(a, rec, false), operand_loc(b, rec, false));
        }
        Instr::Jcc { cond, .. } => {
            l.step.branch = Some((*cond, rec.branch_taken.unwrap_or(false)));
        }
        Instr::Push { src } => {
            let s = operand_loc(src, rec, false);
            if let Some(w) = write {
                l.def(Loc::mem(w.addr, w.width.bytes()), TreeOp::Move, [s]);
            }
        }
        Instr::Pop { dst } => {
            if let Some(r) = rec.mem.iter().find(|m| !m.is_write) {
                let s = MicroArg::mem(r);
                match dst {
                    Operand::Reg(reg) => l.def(Loc::reg(*reg), TreeOp::Move, [s]),
                    Operand::Mem(_) => {
                        if let Some(w) = write {
                            l.def(Loc::mem(w.addr, w.width.bytes()), TreeOp::Move, [s]);
                        }
                    }
                    Operand::Imm(_) => {}
                }
            }
        }
        Instr::Fld { src } => {
            let arg = fp_arg(src, rec, top);
            let new_top = (top + 7) % 8;
            let op = match src {
                FpSrc::MemI32(_) => TreeOp::IntToFloat,
                _ => TreeOp::Move,
            };
            l.def(Loc::fp(new_top), op, [arg]);
        }
        Instr::Fst { dst, .. } => {
            let src = MicroArg::simple(Loc::fp(top));
            match dst {
                FpSrc::St(i) => l.def(Loc::fp((top + i) % 8), TreeOp::Move, [src]),
                _ => {
                    if let Some(w) = write {
                        l.def(Loc::mem(w.addr, w.width.bytes()), TreeOp::Move, [src]);
                    }
                }
            }
        }
        Instr::Fistp { .. } => {
            let src = MicroArg::simple(Loc::fp(top));
            if let Some(w) = write {
                l.def(
                    Loc::mem(w.addr, w.width.bytes()),
                    TreeOp::FloatToIntRound,
                    [src],
                );
            }
        }
        Instr::Farith {
            op,
            src,
            reverse_dst,
            ..
        } => {
            let tree_op = match op {
                helium_machine::FpOp::Add => TreeOp::FAdd,
                helium_machine::FpOp::Sub => TreeOp::FSub,
                helium_machine::FpOp::Mul => TreeOp::FMul,
                helium_machine::FpOp::Div => TreeOp::FDiv,
            };
            let top_arg = MicroArg::simple(Loc::fp(top));
            if *reverse_dst {
                let slot = match src {
                    FpSrc::St(i) => (top + i) % 8,
                    _ => top,
                };
                let dst = Loc::fp(slot);
                l.def(dst, tree_op, [MicroArg::simple(dst), top_arg]);
            } else {
                l.def(Loc::fp(top), tree_op, [top_arg, fp_arg(src, rec, top)]);
            }
        }
        Instr::Fxch { slot } => {
            let a = Loc::fp(top);
            let b = Loc::fp((top + slot) % 8);
            l.def(a, TreeOp::Move, [MicroArg::simple(b)]);
            l.def(b, TreeOp::Move, [MicroArg::simple(a)]);
        }
        Instr::CallExtern { func } => {
            // Arguments are consumed from the FP stack, result pushed back.
            let arity = func.arity() as u8;
            let result_slot = (top + arity - 1) % 8;
            let args = (0..arity).map(|i| MicroArg::simple(Loc::fp((top + i) % 8)));
            l.def(Loc::fp(result_slot), TreeOp::Extern(*func), args);
        }
        Instr::Jmp { .. } | Instr::Call { .. } | Instr::Ret | Instr::Nop | Instr::Halt => {}
    }
    Ok(l.step)
}

// ---------------------------------------------------------------------------
// Forward analysis (paper §4.6)
// ---------------------------------------------------------------------------

/// Result of the forward pass over one trace.
#[derive(Debug, Clone, Default)]
pub struct ForwardInfo {
    /// Static addresses of input-dependent conditional jumps.
    pub input_dep_jccs: BTreeSet<u32>,
    /// For each static instruction executed after some input-dependent
    /// conditional: those conditionals (static jcc address) and the branch
    /// direction required to reach it, when that direction is consistent
    /// across the whole trace.
    pub requirements: BTreeMap<u32, BTreeMap<u32, bool>>,
    /// Static instructions performing indirect (data-dependent) memory access.
    pub indirect_access: BTreeSet<u32>,
    /// For every dynamic index of an input-dependent jcc: the dynamic index of
    /// the instruction that defined the flags it tested.
    pub jcc_flag_writer: HashMap<usize, usize>,
    /// Dynamic indices of input-dependent jccs, per static address, in order.
    pub jcc_dynamic: BTreeMap<u32, Vec<(usize, bool)>>,
}

/// Run the forward taint analysis over lowered steps.
pub fn forward_analysis(
    steps: &[MicroStep],
    args: &[MicroArg],
    input_buffers: &[BufferLayout],
) -> ForwardInfo {
    let mut info = ForwardInfo::default();
    let mut tainted: Shadow<bool> = Shadow::new();
    let mut flags_tainted = false;
    let mut last_flag_writer: Option<usize> = None;
    // Last outcome of each input-dependent jcc (static addr -> (outcome)).
    let mut last_outcome: BTreeMap<u32, bool> = BTreeMap::new();
    // Accumulated requirement state: Some(dir) = consistent, None = mixed.
    let mut req: BTreeMap<u32, BTreeMap<u32, Option<bool>>> = BTreeMap::new();

    let loc_in_inputs = |loc: &Loc| -> bool {
        loc.is_memory() && input_buffers.iter().any(|b| b.contains(loc.addr as u32))
    };
    // Whether an argument carries input data: read from an input buffer or
    // from a tainted location.
    let arg_input = |tainted: &Shadow<bool>, arg: &MicroArg| -> bool {
        match arg {
            MicroArg::Imm(_) => false,
            MicroArg::Loc { loc, .. } => tainted.max(*loc) || loc_in_inputs(loc),
        }
    };

    for (idx, step) in steps.iter().enumerate() {
        // Record requirements for this static instruction, once some
        // input-dependent conditional has an outcome.
        if !last_outcome.is_empty() {
            let entry = req.entry(step.addr).or_default();
            for (jcc, outcome) in &last_outcome {
                entry
                    .entry(*jcc)
                    .and_modify(|e| {
                        if *e != Some(*outcome) {
                            *e = None;
                        }
                    })
                    .or_insert(Some(*outcome));
            }
        }

        // Taint propagation through defs.
        for def in step.defs.iter() {
            let mut t = false;
            for arg in def.args.of(args) {
                t |= arg_input(&tainted, arg);
                // Indirect access: an address register is tainted.
                if let MicroArg::Loc { addr_regs, .. } = arg {
                    if addr_regs.iter().any(|r| tainted.max(r.loc())) {
                        info.indirect_access.insert(step.addr);
                    }
                }
            }
            tainted.set(def.dst, t);
        }
        // Flags.
        if let Some(flags) = step.flags {
            flags_tainted = flags.of(args).iter().any(|a| arg_input(&tainted, a));
            last_flag_writer = Some(idx);
        }
        // Conditional jumps on tainted flags are input-dependent conditionals.
        if let Some((_, taken)) = &step.branch {
            if flags_tainted {
                info.input_dep_jccs.insert(step.addr);
                last_outcome.insert(step.addr, *taken);
                if let Some(fw) = last_flag_writer {
                    info.jcc_flag_writer.insert(idx, fw);
                }
                info.jcc_dynamic
                    .entry(step.addr)
                    .or_default()
                    .push((idx, *taken));
            }
        }
    }
    info.requirements = req
        .into_iter()
        .map(|(addr, m)| {
            (
                addr,
                m.into_iter()
                    .filter_map(|(j, v)| v.map(|d| (j, d)))
                    .collect::<BTreeMap<_, _>>(),
            )
        })
        .collect();
    info
}

// ---------------------------------------------------------------------------
// Backward analysis (paper §4.7)
// ---------------------------------------------------------------------------

/// Preprocessed trace: lowered steps whose reads carry their reaching
/// definitions.
#[derive(Debug)]
pub struct PreparedTrace {
    /// Lowered steps.
    pub steps: Vec<MicroStep>,
    /// The arguments of every step's events, in trace order.
    args: Vec<MicroArg>,
    /// Forward-analysis results.
    pub forward: ForwardInfo,
}

impl PreparedTrace {
    /// The arguments a span of this trace refers to.
    pub fn args(&self, span: Args) -> &[MicroArg] {
        span.of(&self.args)
    }
}

/// Lower the whole instruction trace, run the forward analysis and record
/// the reaching definition of every location each step reads.
pub fn prepare_trace(
    trace: &InstructionTrace,
    input_buffers: &[BufferLayout],
) -> Result<PreparedTrace, ExtractError> {
    let mut steps = Vec::with_capacity(trace.records.len());
    let mut args = Vec::with_capacity(2 * trace.records.len());
    // The latest step that wrote each byte.
    let mut last_def: Shadow<Reaching> = Shadow::new();
    for (idx, rec) in trace.records.iter().enumerate() {
        let first_arg = args.len();
        let step = lower_step(rec, &mut args)?;
        // Every read of the step sees the definitions made before it, so
        // all reads resolve before any of the step's own writes land. A
        // read spanning several definitions takes the latest of them.
        for arg in &mut args[first_arg..] {
            if let MicroArg::Loc {
                loc,
                addr_regs,
                def,
                ..
            } = arg
            {
                *def = last_def.max(*loc);
                for r in addr_regs.iter_mut() {
                    r.def = last_def.max(r.loc());
                }
            }
        }
        for def in step.defs.iter() {
            last_def.set(def.dst, Reaching::at(idx));
        }
        steps.push(step);
    }
    let forward = forward_analysis(&steps, &args, input_buffers);
    Ok(PreparedTrace {
        steps,
        args,
        forward,
    })
}

/// Context for building concrete trees.
pub struct TreeBuilder<'a> {
    prepared: &'a PreparedTrace,
    buffers: &'a [BufferLayout],
}

/// The state of building one tree: the tree itself, the output buffer it
/// writes (an index into the builder's buffers), whether it reads that
/// buffer back, and the branch directions its instructions require.
struct Walk {
    tree: Tree,
    out_buffer: usize,
    recursive: bool,
    required: BTreeMap<u32, bool>,
}

impl Walk {
    fn new(output: Leaf, output_width: u32, out_buffer: usize) -> Walk {
        Walk {
            tree: Tree {
                nodes: Vec::new(),
                root: 0,
                output,
                output_width,
            },
            out_buffer,
            recursive: false,
            required: BTreeMap::new(),
        }
    }

    fn leaf(&mut self, leaf: Leaf) -> usize {
        self.tree.push(TreeNode::Leaf(leaf))
    }

    fn op(&mut self, op: TreeOp, children: Vec<usize>, width: u32) -> usize {
        self.tree.push(TreeNode::Op {
            op,
            children,
            width,
        })
    }

    /// Set the root and canonicalize.
    fn finish(mut self, root: usize) -> (Tree, bool, BTreeMap<u32, bool>) {
        self.tree.root = root;
        self.tree.canonicalize();
        (self.tree, self.recursive, self.required)
    }
}

impl<'a> TreeBuilder<'a> {
    /// Create a builder over a prepared trace and the inferred buffer layouts.
    pub fn new(prepared: &'a PreparedTrace, buffers: &'a [BufferLayout]) -> Self {
        TreeBuilder { prepared, buffers }
    }

    /// Index of the buffer containing `addr`.
    fn buffer_of(&self, addr: u64) -> Option<usize> {
        if addr >= REG_SPACE {
            return None;
        }
        self.buffers.iter().position(|b| b.contains(addr as u32))
    }

    /// Build the concrete guarded tree for the output write performed by the
    /// def `def_idx` of dynamic step `idx`.
    pub fn build_output_tree(&self, idx: usize, def_idx: usize) -> Option<GuardedTree> {
        let def = &self.prepared.steps[idx].defs[def_idx];
        let out_buffer = self.buffer_of(def.dst.addr)?;
        let output = Leaf::Mem {
            addr: def.dst.addr,
            width: def.dst.width,
            value: 0,
        };
        let mut walk = Walk::new(output, def.dst.width, out_buffer);
        let root = self.expand(&mut walk, idx, def_idx, 0);
        let (tree, recursive, required) = walk.finish(root);

        // Build predicate trees for the requirements collected along the way.
        let predicates = required
            .into_iter()
            .filter_map(|(jcc_addr, dir)| self.build_predicate(idx, jcc_addr, dir, out_buffer))
            .collect();
        Some(GuardedTree {
            tree,
            predicates,
            recursive,
        })
    }

    /// Expand the def `def_idx` of dynamic step `idx` into `walk`, returning
    /// the node computing its value.
    fn expand(&self, walk: &mut Walk, idx: usize, def_idx: usize, depth: usize) -> usize {
        let step = &self.prepared.steps[idx];
        let def = &step.defs[def_idx];
        // Record control requirements of this instruction.
        if let Some(reqs) = self.prepared.forward.requirements.get(&step.addr) {
            walk.required.extend(reqs);
        }
        if depth > 512 {
            return walk.leaf(Leaf::Const(0));
        }
        let indirect = self.prepared.forward.indirect_access.contains(&step.addr);
        let args = self.prepared.args(def.args);
        let children: Vec<usize> = args
            .iter()
            .map(|arg| self.expand_arg(walk, arg, depth, indirect))
            .collect();
        // Collapse pure moves with a single child to keep trees small, but
        // keep width-changing moves as explicit downcast nodes.
        if def.op == TreeOp::Move && children.len() == 1 {
            let src_width = match &args[0] {
                MicroArg::Loc { loc, .. } => loc.width,
                MicroArg::Imm(_) => def.dst.width,
            };
            if src_width == def.dst.width {
                return children[0];
            }
            let op = if def.dst.width < src_width {
                TreeOp::Downcast
            } else {
                TreeOp::Move
            };
            return walk.op(op, children, def.dst.width);
        }
        walk.op(def.op, children, def.dst.width)
    }

    fn expand_arg(&self, walk: &mut Walk, arg: &MicroArg, depth: usize, indirect: bool) -> usize {
        let (loc, value, addr_regs, def) = match arg {
            MicroArg::Imm(v) => return walk.leaf(Leaf::Const(*v)),
            MicroArg::Loc {
                loc,
                value,
                addr_regs,
                def,
            } => (*loc, *value, addr_regs, *def),
        };
        // Recursive reference to the output buffer?
        let out = &self.buffers[walk.out_buffer];
        if out.role == BufferRole::Output && self.buffer_of(loc.addr) == Some(walk.out_buffer) {
            walk.recursive = true;
            let rec_leaf = walk.leaf(Leaf::RecursiveRef {
                buffer: out.name.clone(),
            });
            // Indirectly addressed recursive outputs (histograms) keep the
            // address-calculation expression so the reduction domain can be
            // inferred from it (paper §4.9).
            if indirect && !addr_regs.is_empty() {
                let index = self.index_expr(walk, addr_regs, depth);
                return walk.op(TreeOp::IndirectLoad, vec![rec_leaf, index], loc.width);
            }
            return rec_leaf;
        }
        // Indirect (table) access: wrap the leaf in an IndirectLoad whose
        // child is the index expression built from the address registers.
        if indirect && loc.is_memory() && !addr_regs.is_empty() {
            let index = self.index_expr(walk, addr_regs, depth);
            let mem_leaf = walk.leaf(Leaf::Mem {
                addr: loc.addr,
                width: loc.width,
                value,
            });
            return walk.op(TreeOp::IndirectLoad, vec![mem_leaf, index], loc.width);
        }
        // Follow the reaching definition if there is one.
        let Some(di) = def.step() else {
            return walk.leaf(Leaf::Mem {
                addr: loc.addr,
                width: loc.width,
                value,
            });
        };
        let (child, def_width) = self.expand_def_of(walk, di, loc, depth + 1);
        if loc.width < def_width {
            walk.op(TreeOp::Downcast, vec![child], loc.width)
        } else {
            child
        }
    }

    /// Expand the def of dynamic step `di` that wrote (part of) `loc`: the
    /// first one overlapping it. Returns the node and the def's width.
    fn expand_def_of(&self, walk: &mut Walk, di: usize, loc: Loc, depth: usize) -> (usize, u32) {
        let defs = &self.prepared.steps[di].defs;
        let dd = defs.iter().position(|d| d.dst.overlaps(&loc)).unwrap_or(0);
        (self.expand(walk, di, dd, depth), defs[dd].dst.width)
    }

    /// The index expression of an indirect access: the sum of its address
    /// registers' values.
    fn index_expr(&self, walk: &mut Walk, addr_regs: &[AddrReg], depth: usize) -> usize {
        let children: Vec<usize> = addr_regs
            .iter()
            .map(|r| {
                let loc = r.loc();
                match r.def.step() {
                    Some(di) => self.expand_def_of(walk, di, loc, depth + 1).0,
                    None => walk.leaf(Leaf::Mem {
                        addr: loc.addr,
                        width: loc.width,
                        value: 0,
                    }),
                }
            })
            .collect();
        if children.len() == 1 {
            children[0]
        } else {
            walk.op(TreeOp::Add, children, 4)
        }
    }

    /// Build the predicate tree for the most recent dynamic occurrence of the
    /// input-dependent conditional `jcc_addr` before `before_idx`.
    fn build_predicate(
        &self,
        before_idx: usize,
        jcc_addr: u32,
        taken: bool,
        out_buffer: usize,
    ) -> Option<Predicate> {
        let dynamics = self.prepared.forward.jcc_dynamic.get(&jcc_addr)?;
        let (jcc_idx, _) = dynamics
            .iter()
            .rev()
            .find(|(i, _)| *i <= before_idx)
            .or_else(|| dynamics.first())?;
        let flag_idx = *self.prepared.forward.jcc_flag_writer.get(jcc_idx)?;
        let flags = self.prepared.args(self.prepared.steps[flag_idx].flags?);
        let (cond, _) = self.prepared.steps[*jcc_idx].branch?;
        let cmp = cond_to_cmp(cond);
        let cmp = if taken { cmp } else { cmp.negate() };
        let lhs = self.build_flag_side(&flags[0], out_buffer);
        let rhs = self.build_flag_side(&flags[1], out_buffer);
        Some(Predicate { cmp, lhs, rhs })
    }

    /// The tree of one flag operand, followed through its reaching
    /// definition.
    fn build_flag_side(&self, arg: &MicroArg, out_buffer: usize) -> Tree {
        let mut walk = Walk::new(Leaf::Const(0), 4, out_buffer);
        let root = match arg {
            MicroArg::Imm(v) => walk.leaf(Leaf::Const(*v)),
            MicroArg::Loc {
                loc, value, def, ..
            } => match def.step() {
                Some(di) => self.expand_def_of(&mut walk, di, *loc, 0).0,
                None => walk.leaf(Leaf::Mem {
                    addr: loc.addr,
                    width: loc.width,
                    value: *value,
                }),
            },
        };
        walk.finish(root).0
    }

    /// Enumerate all output-buffer writes in the trace as `(step, def)` pairs.
    pub fn output_writes(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (i, step) in self.prepared.steps.iter().enumerate() {
            for (d, def) in step.defs.iter().enumerate() {
                if let Some(b) = self.buffer_of(def.dst.addr) {
                    if self.buffers[b].role == BufferRole::Output {
                        out.push((i, d));
                    }
                }
            }
        }
        out
    }
}

fn cond_to_cmp(cond: Cond) -> PredicateCmp {
    match cond {
        Cond::Z => PredicateCmp::Eq,
        Cond::Nz => PredicateCmp::Ne,
        Cond::B | Cond::L => PredicateCmp::Lt,
        Cond::Nb | Cond::Ge => PredicateCmp::Ge,
        Cond::Be | Cond::Le => PredicateCmp::Le,
        Cond::A | Cond::G => PredicateCmp::Gt,
        Cond::S => PredicateCmp::Lt,
        Cond::Ns => PredicateCmp::Ge,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helium_machine::isa::regs;
    use helium_machine::{AddrExpr, MemAccess, Width};

    fn mem_access(addr: u32, width: Width, is_write: bool, value: u64) -> MemAccess {
        MemAccess {
            addr,
            width,
            is_write,
            value,
            expr: AddrExpr {
                base: None,
                base_value: 0,
                index: None,
                index_value: 0,
                scale: 1,
                disp: addr as i32,
            },
        }
    }

    fn record(instr: Instr, mem: Vec<MemAccess>) -> StepRecord {
        StepRecord {
            addr: 0x1000,
            instr,
            mem,
            branch_taken: None,
            call_target: None,
            is_ret: false,
            extern_call: None,
            fpu_top_before: 0,
            next_pc: 0x1004,
        }
    }

    #[test]
    fn lowering_mov_and_alu() {
        let rec = record(
            Instr::Mov {
                dst: Operand::Reg(regs::eax()),
                src: Operand::Imm(5),
            },
            vec![],
        );
        let mut args = Vec::new();
        let step = lower_step(&rec, &mut args).unwrap();
        assert_eq!(step.defs.len(), 1);
        assert_eq!(step.defs[0].op, TreeOp::Move);

        let rec = record(
            Instr::Alu {
                op: AluOp::Add,
                dst: Operand::Reg(regs::eax()),
                src: Operand::Mem(helium_machine::MemRef::absolute(0x9000, Width::B4)),
            },
            vec![mem_access(0x9000, Width::B4, false, 42)],
        );
        let step = lower_step(&rec, &mut args).unwrap();
        assert_eq!(step.defs[0].op, TreeOp::Add);
        assert_eq!(step.defs[0].args.of(&args).len(), 2);
        // The flags compare the operands the sum combines.
        assert_eq!(step.flags, Some(step.defs[0].args));
        assert!(matches!(
            step.defs[0].args.of(&args)[1],
            MicroArg::Loc { value: 42, .. }
        ));
    }

    #[test]
    fn lowering_fp_uses_physical_slots() {
        let rec = StepRecord {
            fpu_top_before: 3,
            ..record(
                Instr::Fld {
                    src: FpSrc::MemF64(helium_machine::MemRef::absolute(0x9100, Width::B8)),
                },
                vec![mem_access(0x9100, Width::B8, false, 0)],
            )
        };
        let step = lower_step(&rec, &mut Vec::new()).unwrap();
        // Push decrements the top: physical slot 2.
        assert_eq!(step.defs[0].dst, Loc::fp(2));
    }

    #[test]
    fn reads_resolve_to_the_latest_definition_of_any_byte() {
        let mov = |dst, v| {
            record(
                Instr::Mov {
                    dst: Operand::Reg(dst),
                    src: Operand::Imm(v),
                },
                vec![],
            )
        };
        let trace = InstructionTrace {
            records: vec![
                mov(regs::eax(), 1),
                mov(regs::ah(), 2),
                record(
                    Instr::Alu {
                        op: AluOp::Add,
                        dst: Operand::Reg(regs::ecx()),
                        src: Operand::Reg(regs::eax()),
                    },
                    vec![],
                ),
            ],
            invocations: vec![(0, 3)],
        };
        let prepared = prepare_trace(&trace, &[]).unwrap();
        let reaching: Vec<Option<usize>> = prepared
            .args(prepared.steps[2].defs[0].args)
            .iter()
            .map(|a| match a {
                MicroArg::Loc { def, .. } => def.step(),
                MicroArg::Imm(_) => None,
            })
            .collect();
        // ecx was never written; eax's second byte was last written by step 1.
        assert_eq!(reaching, vec![None, Some(1)]);
    }

    #[test]
    fn loc_helpers() {
        let r = Loc::reg(regs::ah());
        assert!(!r.is_memory());
        assert_eq!(r.width, 1);
        let m = Loc::mem(0x1000, 4);
        assert!(m.is_memory());
        assert!(m.overlaps(&Loc::mem(0x1002, 4)));
        assert!(!m.overlaps(&Loc::mem(0x1004, 4)));
    }

    #[test]
    fn cond_mapping() {
        assert_eq!(cond_to_cmp(Cond::A), PredicateCmp::Gt);
        assert_eq!(cond_to_cmp(Cond::Z), PredicateCmp::Eq);
        assert_eq!(cond_to_cmp(Cond::B), PredicateCmp::Lt);
    }
}
