//! Benchmark and table-generation harness for the DAC 2021 reproduction.
//!
//! [`paper`] holds one function per table or figure of the paper, each
//! returning its model-vs-paper text; the bench target of the same name
//! (`cargo bench -p saber-bench --bench <name>`) prints it, and
//! `tests/paper_goldens.rs` diffs it against the committed
//! `golden/<name>.txt`. See DESIGN.md §4 for the experiment index. The
//! numbers are cycles, LUTs and watts from the models; only
//! `timing_leakage` reads a clock, as the leakage detector's input.
//! perfbench (`perfbench/`) is the repository's only performance timer.
//!
//! | bench target | reproduces |
//! |---|---|
//! | `table1` | Table 1 (cycles / clock / LUT / FF / DSP) |
//! | `lw_schedule` | §4.1 cycle accounting (16 384 compute, memory overhead, HS 213) |
//! | `macs_sweep` | §4.2 MAC-count trade-off sweep |
//! | `hs_comparison` | §5.2 high-speed comparisons (−22 %/−24 %/−46 %, \[12\], \[11\]) |
//! | `lw_comparison` | §5.1 lightweight comparisons (\[9\], \[6\], \[14\]) |
//! | `kem_breakdown` | §1 motivation (multiplication share of Saber) |
//! | `lw_power` | §5 power breakdown (0.106 W, 89 % IO) |
//! | `coprocessor_projection` | §5.2 full-coprocessor area/performance projection |
//! | `ablation` | HS-II correction network, centralization and DSP pipeline depth |
//! | `kem_programs` | §1 motivation, measured on executed coprocessor programs |
//! | `leakage` | §3.1 side-channel argument (value-trace equality, TVLA) |
//! | `timing_leakage` | constant-time record of the software engine (`BENCH_timing.json`) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coprocessor;
pub mod literature;
pub mod paper;
pub mod simulated;
pub mod tables;
