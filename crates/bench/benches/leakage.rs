//! §3.1 side-channel argument: prints [`saber_bench::paper::leakage`].
fn main() {
    print!("{}", saber_bench::paper::leakage());
}
