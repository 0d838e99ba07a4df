//! §5.2 high-speed comparisons: prints [`saber_bench::paper::hs_comparison`].
fn main() {
    print!("{}", saber_bench::paper::hs_comparison());
}
