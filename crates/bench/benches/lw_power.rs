//! §5 power breakdown: prints [`saber_bench::paper::lw_power`].
fn main() {
    print!("{}", saber_bench::paper::lw_power());
}
