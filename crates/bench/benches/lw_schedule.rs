//! §4.1 cycle accounting: prints [`saber_bench::paper::lw_schedule`].
fn main() {
    print!("{}", saber_bench::paper::lw_schedule());
}
