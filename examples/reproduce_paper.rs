//! One command, the whole evaluation: prints every paper table and
//! figure next to this workspace's measured/modeled counterpart.
//!
//! ```sh
//! cargo run --release --example reproduce_paper
//! ```
//!
//! The output is the eleven `saber-bench` paper tables in
//! `saber_bench::paper::ALL` order, each exactly as its bench target
//! prints it and as `crates/bench/golden/` holds it.

fn main() {
    for artifact in &saber_bench::paper::ALL {
        print!("{}", (artifact.write)());
    }
}
