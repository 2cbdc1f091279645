//! The end-to-end lifting driver (paper §2, Fig. 1).
//!
//! The user runs the program five times per lifted stencil: two coverage runs
//! (with and without the kernel), one profiling run of the coverage
//! difference, and the detailed instruction-trace run of the filter function
//! (plus the original, uninstrumented run that produced the known output
//! data). [`Lifter::lift`] orchestrates those runs over `helium-dbi`, performs
//! code localization and expression extraction, and returns a
//! [`LiftedStencil`] carrying both the Halide C++ source text and executable
//! [`helium_halide::Pipeline`]s.

use crate::codegen::{generate_kernels, CodegenError, GeneratedKernel};
use crate::extract::{ExtractError, PreparedTrace, TreeBuilder};
use crate::layout::{infer_from_known_data, infer_generic, BufferLayout, BufferRole, KnownData};
use crate::localize::{localize, Localization, LocalizeError};
use crate::regions::reconstruct_filtered;
use crate::symbolic::{
    abstract_guarded, cluster_trees, solve_cluster, SymbolicCluster, SymbolicError,
};
use crate::trees::GuardedTree;
use helium_dbi::{InstrumentError, Instrumenter, MemTraceEntry};
use helium_halide::{CodegenOptions, Pipeline};
use helium_machine::program::Program;
use helium_machine::Cpu;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::fmt;
use std::time::{Duration, Instant};

/// Everything the lifter needs to know about the target program.
#[derive(Debug, Clone, Default)]
pub struct LiftRequest {
    /// Known input data (one entry per input buffer), if available.
    pub known_inputs: Vec<KnownData>,
    /// Known output data (one entry per output buffer), if available.
    pub known_outputs: Vec<KnownData>,
    /// Estimated size of the data the kernel processes (used to pick candidate
    /// instructions; always available: the user knows roughly how big their
    /// image or grid is).
    pub approx_data_size: usize,
}

/// Errors produced by the lifting pipeline.
#[derive(Debug)]
pub enum LiftError {
    /// An instrumented execution failed.
    Instrument(InstrumentError),
    /// Code localization failed.
    Localize(LocalizeError),
    /// Expression extraction failed.
    Extract(ExtractError),
    /// Symbolic tree generation failed.
    Symbolic(SymbolicError),
    /// Halide code generation failed.
    Codegen(CodegenError),
    /// No output buffers could be identified.
    NoOutputBuffers,
}

impl fmt::Display for LiftError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LiftError::Instrument(e) => write!(f, "instrumentation failed: {e}"),
            LiftError::Localize(e) => write!(f, "code localization failed: {e}"),
            LiftError::Extract(e) => write!(f, "expression extraction failed: {e}"),
            LiftError::Symbolic(e) => write!(f, "symbolic tree generation failed: {e}"),
            LiftError::Codegen(e) => write!(f, "code generation failed: {e}"),
            LiftError::NoOutputBuffers => write!(f, "no output buffers identified"),
        }
    }
}

impl std::error::Error for LiftError {}

impl From<InstrumentError> for LiftError {
    fn from(e: InstrumentError) -> Self {
        LiftError::Instrument(e)
    }
}
impl From<LocalizeError> for LiftError {
    fn from(e: LocalizeError) -> Self {
        LiftError::Localize(e)
    }
}
impl From<ExtractError> for LiftError {
    fn from(e: ExtractError) -> Self {
        LiftError::Extract(e)
    }
}
impl From<SymbolicError> for LiftError {
    fn from(e: SymbolicError) -> Self {
        LiftError::Symbolic(e)
    }
}
impl From<CodegenError> for LiftError {
    fn from(e: CodegenError) -> Self {
        LiftError::Codegen(e)
    }
}

/// Statistics mirroring the paper's Fig. 6 columns.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct LiftStats {
    /// Total static basic blocks executed.
    pub total_basic_blocks: usize,
    /// Basic blocks surviving coverage differencing.
    pub diff_basic_blocks: usize,
    /// Basic blocks in the selected filter function.
    pub filter_function_blocks: usize,
    /// Static instructions in the filter function.
    pub static_instruction_count: usize,
    /// Size of the memory dump in bytes.
    pub memory_dump_bytes: usize,
    /// Dynamic instructions captured in the filter-function trace.
    pub dynamic_instruction_count: usize,
    /// Node counts of representative computational trees, one per cluster.
    pub tree_sizes: Vec<usize>,
    /// Wall time of each lifting phase.
    pub phases: LiftPhases,
}

/// Wall time of each phase of one [`Lifter::lift`], in pipeline order. The
/// phases do not overlap, so their sum is at most the lift's wall time.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LiftPhases {
    /// Coverage runs with and without the kernel, and their difference.
    pub coverage: Duration,
    /// Profiling run of the difference blocks.
    pub profile: Duration,
    /// Filter-function selection (paper §3).
    pub localize: Duration,
    /// Instruction trace and memory dump of the filter function.
    pub trace: Duration,
    /// Buffer structure reconstruction (paper §4.2).
    pub regions: Duration,
    /// Buffer layout inference and input/output selection (paper §4.3–§4.4).
    pub layout: Duration,
    /// Lowering, forward analysis and reaching definitions (paper §4.5–§4.6).
    pub prepare_trace: Duration,
    /// Concrete tree building, canonicalization and abstraction (paper §4.7).
    pub trees: Duration,
    /// Tree clustering (paper §4.8).
    pub cluster: Duration,
    /// Symbolic solve of each cluster (paper §4.9–§4.10).
    pub solve: Duration,
    /// Halide code generation (paper §4.11).
    pub codegen: Duration,
}

impl LiftPhases {
    /// The phases with their names, in pipeline order.
    pub fn named(&self) -> [(&'static str, Duration); 11] {
        [
            ("coverage", self.coverage),
            ("profile", self.profile),
            ("localize", self.localize),
            ("trace", self.trace),
            ("regions", self.regions),
            ("layout", self.layout),
            ("prepare_trace", self.prepare_trace),
            ("trees", self.trees),
            ("cluster", self.cluster),
            ("solve", self.solve),
            ("codegen", self.codegen),
        ]
    }

    /// Sum of all phases.
    pub fn total(&self) -> Duration {
        self.named().iter().map(|(_, d)| *d).sum()
    }
}

/// The result of lifting one stencil.
#[derive(Debug, Clone)]
pub struct LiftedStencil {
    /// The generated kernels, one per output buffer.
    pub kernels: Vec<GeneratedKernel>,
    /// The symbolic clusters the kernels were generated from.
    pub clusters: Vec<SymbolicCluster>,
    /// The inferred buffer layouts.
    pub buffers: Vec<BufferLayout>,
    /// Localization and extraction statistics (paper Fig. 6).
    pub stats: LiftStats,
    /// The code-localization result.
    pub localization: Localization,
}

impl LiftedStencil {
    /// The Halide C++ source text for all lifted kernels (paper Fig. 2(h)).
    pub fn halide_source(&self) -> String {
        let mut out = String::new();
        for (i, k) in self.kernels.iter().enumerate() {
            let options = CodegenOptions {
                output_name: format!("halide_out_{i}"),
                emit_main: i == 0,
            };
            out.push_str(&helium_halide::generate_halide_source(
                &k.pipeline,
                &options,
            ));
            out.push('\n');
        }
        out
    }

    /// The executable pipelines, keyed by output buffer name.
    pub fn pipelines(&self) -> BTreeMap<String, &Pipeline> {
        self.kernels
            .iter()
            .map(|k| (k.output.clone(), &k.pipeline))
            .collect()
    }

    /// The primary (first) generated kernel.
    ///
    /// # Panics
    /// Panics if no kernels were generated (construction guarantees at least one).
    pub fn primary(&self) -> &GeneratedKernel {
        self.kernels
            .first()
            .expect("lifting produces at least one kernel")
    }

    /// Layout of the buffer with the given lifted name.
    pub fn buffer(&self, name: &str) -> Option<&BufferLayout> {
        self.buffers.iter().find(|b| b.name == name)
    }
}

/// The lifting driver.
#[derive(Debug, Clone)]
pub struct Lifter {
    instrumenter: Instrumenter,
    seed: u64,
    min_table_bytes: u32,
}

impl Default for Lifter {
    fn default() -> Self {
        Lifter::new()
    }
}

impl Lifter {
    /// Create a lifter with default settings.
    pub fn new() -> Lifter {
        Lifter {
            instrumenter: Instrumenter::new(),
            seed: 0x48_45_4c_49,
            min_table_bytes: 128,
        }
    }

    /// Use a specific random seed for the §4.10 tree sampling.
    pub fn with_seed(mut self, seed: u64) -> Lifter {
        self.seed = seed;
        self
    }

    /// Set the minimum region size treated as a buffer rather than a parameter.
    pub fn with_min_table_bytes(mut self, bytes: u32) -> Lifter {
        self.min_table_bytes = bytes;
        self
    }

    /// Lift the kernel from `program`.
    ///
    /// `make_cpu(with_kernel)` prepares one run of the program (the analogue
    /// of the user clicking through the GUI with or without applying the
    /// filter); it is invoked once per instrumented execution.
    ///
    /// # Errors
    /// Returns a [`LiftError`] describing which stage failed.
    pub fn lift(
        &self,
        program: &Program,
        request: &LiftRequest,
        mut make_cpu: impl FnMut(bool) -> Cpu,
    ) -> Result<LiftedStencil, LiftError> {
        let mut phases = LiftPhases::default();
        let mut clock = Instant::now();
        let mut lap = || {
            let now = Instant::now();
            std::mem::replace(&mut clock, now).elapsed()
        };
        // Runs 1 & 2: coverage with and without the kernel (paper §3.1).
        let with = self.instrumenter.coverage(program, &mut make_cpu(true))?;
        let without = self.instrumenter.coverage(program, &mut make_cpu(false))?;
        let diff = with.difference(&without);
        phases.coverage = lap();
        // Run 3: profiling of the difference blocks.
        let profile = self
            .instrumenter
            .profile(program, &mut make_cpu(true), &diff)?;
        phases.profile = lap();
        let localization = localize(program, &with, &without, &profile, request.approx_data_size)?;
        phases.localize = lap();

        // Run 4: instruction trace + memory dump of the filter function.
        let (trace, dump) = self.instrumenter.function_trace(
            program,
            &mut make_cpu(true),
            localization.filter_function,
            &localization.candidate_instructions,
        )?;
        phases.trace = lap();

        // Buffer structure reconstruction over the filter-function accesses
        // (paper §4.2), excluding the stack.
        let trace_entries: Vec<MemTraceEntry> = trace
            .records
            .iter()
            .flat_map(|r| {
                r.mem.iter().map(move |m| MemTraceEntry {
                    instr_addr: r.addr,
                    addr: m.addr,
                    width: m.width,
                    is_write: m.is_write,
                })
            })
            .collect();
        let stack_top = helium_machine::cpu::DEFAULT_STACK_TOP;
        let regions = reconstruct_filtered(&trace_entries, |e| {
            e.addr < stack_top - 0x10_0000 || e.addr > stack_top
        });
        phases.regions = lap();

        // Dimensionality / stride / extent inference (paper §4.3) and
        // input/output buffer selection (paper §4.4).
        let mut buffers: Vec<BufferLayout> = Vec::new();
        let mut input_count = 0usize;
        let mut output_count = 0usize;
        for known in &request.known_inputs {
            input_count += 1;
            if let Some(layout) = infer_from_known_data(
                known,
                &dump,
                &regions,
                false,
                &format!("input_{input_count}"),
                BufferRole::Input,
            ) {
                buffers.push(layout);
            }
        }
        for known in &request.known_outputs {
            output_count += 1;
            if let Some(layout) = infer_from_known_data(
                known,
                &dump,
                &regions,
                true,
                &format!("output_{output_count}"),
                BufferRole::Output,
            ) {
                buffers.push(layout);
            }
        }
        // Fragmented inputs (paper §4.3, generic inference for grids with
        // ghost zones): a stencil's read set can leave gaps inside the input
        // buffer, splitting it into many small read-only regions none of which
        // individually looks data-sized. Group nearby unclaimed read-only
        // fragments and, when a group's span is data-sized, fall back to a
        // linear layout over the whole span (flat offsets are still affine in
        // the output coordinates, so the §4.10 solve remains exact).
        let mut table_count = 0usize;
        {
            const SPAN_GAP: u32 = 4096;
            let big = |len: u32| len as f64 >= request.approx_data_size as f64 * 0.5;
            let mut fragments: Vec<&crate::regions::Region> = regions
                .iter()
                .filter(|r| {
                    r.read
                        && !r.written
                        && !big(r.len())
                        && r.len() >= 16
                        && !buffers.iter().any(|b| b.contains(r.start))
                })
                .collect();
            fragments.sort_by_key(|r| r.start);
            let mut group: Vec<&crate::regions::Region> = Vec::new();
            let flush = |group: &mut Vec<&crate::regions::Region>,
                         buffers: &mut Vec<BufferLayout>,
                         input_count: &mut usize| {
                if group.len() >= 2 {
                    let start = group.first().expect("non-empty").start;
                    let end = group.last().expect("non-empty").end;
                    if big(end - start) {
                        *input_count += 1;
                        buffers.push(crate::layout::infer_linear_span(
                            group,
                            &format!("input_{input_count}"),
                            BufferRole::Input,
                        ));
                    }
                }
                group.clear();
            };
            for region in &fragments {
                match group.last() {
                    Some(prev) if region.start.saturating_sub(prev.end) <= SPAN_GAP => {
                        group.push(region);
                    }
                    Some(_) => {
                        flush(&mut group, &mut buffers, &mut input_count);
                        group.push(region);
                    }
                    None => group.push(region),
                }
            }
            flush(&mut group, &mut buffers, &mut input_count);

            // Lookup tables touched sparsely (paper §4.6/§4.7, indirect buffer
            // access): a table indexed by data values is only read at the
            // entries the input happens to select, so its trace fragments into
            // small pieces with tiny gaps. Merge read-only fragments separated
            // by less than one cache line into a single table buffer when the
            // combined span is table-sized.
            const TABLE_GAP: u32 = 64;
            let mut table_group: Vec<&crate::regions::Region> = Vec::new();
            let flush_table = |group: &mut Vec<&crate::regions::Region>,
                               buffers: &mut Vec<BufferLayout>,
                               table_count: &mut usize| {
                if group.len() >= 2 {
                    let start = group.first().expect("non-empty").start;
                    let end = group.last().expect("non-empty").end;
                    if end - start >= self.min_table_bytes && !big(end - start) {
                        *table_count += 1;
                        buffers.push(crate::layout::infer_linear_span(
                            group,
                            &format!("buffer_{table_count}"),
                            BufferRole::Table,
                        ));
                    }
                }
                group.clear();
            };
            let unclaimed: Vec<&crate::regions::Region> = fragments
                .iter()
                .copied()
                .filter(|r| !buffers.iter().any(|b| b.contains(r.start)))
                .collect();
            for region in &unclaimed {
                match table_group.last() {
                    Some(prev) if region.start.saturating_sub(prev.end) <= TABLE_GAP => {
                        table_group.push(region);
                    }
                    Some(_) => {
                        flush_table(&mut table_group, &mut buffers, &mut table_count);
                        table_group.push(region);
                    }
                    None => table_group.push(region),
                }
            }
            flush_table(&mut table_group, &mut buffers, &mut table_count);
        }

        // Remaining data-sized or table-sized regions not covered by known
        // data: classify generically.
        for region in &regions {
            if buffers.iter().any(|b| b.contains(region.start)) {
                continue;
            }
            if region.len() < self.min_table_bytes {
                continue;
            }
            let big = region.len() as f64 >= request.approx_data_size as f64 * 0.5;
            if region.written && big {
                output_count += 1;
                buffers.push(infer_generic(
                    region,
                    &format!("output_{output_count}"),
                    BufferRole::Output,
                ));
            } else if region.read && !region.written && big {
                input_count += 1;
                buffers.push(infer_generic(
                    region,
                    &format!("input_{input_count}"),
                    BufferRole::Input,
                ));
            } else if region.read && !region.written {
                table_count += 1;
                buffers.push(infer_generic(
                    region,
                    &format!("buffer_{table_count}"),
                    BufferRole::Table,
                ));
            } else if region.written && region.len() >= self.min_table_bytes {
                // Small written regions (e.g. histograms) are outputs too.
                output_count += 1;
                buffers.push(infer_generic(
                    region,
                    &format!("output_{output_count}"),
                    BufferRole::Output,
                ));
            }
        }
        if !buffers.iter().any(|b| b.role == BufferRole::Output) {
            return Err(LiftError::NoOutputBuffers);
        }

        // Expression extraction (paper §4.5–§4.7).
        let input_layouts: Vec<BufferLayout> = buffers
            .iter()
            .filter(|b| b.role != BufferRole::Output)
            .cloned()
            .collect();
        phases.layout = lap();
        let prepared: PreparedTrace = crate::extract::prepare_trace(&trace, &input_layouts)?;
        phases.prepare_trace = lap();
        let builder = TreeBuilder::new(&prepared, &buffers);
        let writes = builder.output_writes();
        if writes.is_empty() {
            return Err(LiftError::Extract(ExtractError::NoOutputs));
        }
        let mut guarded: Vec<GuardedTree> = Vec::new();
        for (i, d) in writes {
            if let Some(tree) = builder.build_output_tree(i, d) {
                guarded.push(abstract_guarded(&tree, &buffers));
            }
        }
        phases.trees = lap();

        // Clustering and symbolic tree generation (paper §4.8–§4.10).
        let clusters = cluster_trees(guarded);
        phases.cluster = lap();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut symbolic = Vec::new();
        let mut tree_sizes = Vec::new();
        for c in &clusters {
            let s = solve_cluster(c, &buffers, &mut rng)?;
            tree_sizes.push(s.tree.node_count());
            symbolic.push(s);
        }
        phases.solve = lap();

        // Halide code generation (paper §4.11).
        let kernels = generate_kernels(&symbolic, &buffers)?;
        phases.codegen = lap();

        let stats = LiftStats {
            total_basic_blocks: localization.total_blocks,
            diff_basic_blocks: localization.diff_blocks.len(),
            filter_function_blocks: localization.filter_blocks.len(),
            static_instruction_count: localization.filter_static_instructions,
            memory_dump_bytes: dump.size_bytes(),
            dynamic_instruction_count: trace.len(),
            tree_sizes,
            phases,
        };

        Ok(LiftedStencil {
            kernels,
            clusters: symbolic,
            buffers,
            stats,
            localization,
        })
    }
}
