//! §4.2 MAC-count sweep: prints [`saber_bench::paper::macs_sweep`].
fn main() {
    print!("{}", saber_bench::paper::macs_sweep());
}
