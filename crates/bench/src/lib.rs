//! Benchmark and table-generation harness for the DAC 2021 reproduction.
//!
//! Each Criterion bench target regenerates one table or figure of the
//! paper (printing the model-vs-paper comparison before timing the
//! underlying simulations); see DESIGN.md §4 for the experiment index:
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

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coprocessor;
pub mod microbench;
pub mod literature;
pub mod simulated;
pub mod tables;
