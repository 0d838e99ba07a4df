//! §5.1 lightweight comparisons: prints [`saber_bench::paper::lw_comparison`].
fn main() {
    print!("{}", saber_bench::paper::lw_comparison());
}
