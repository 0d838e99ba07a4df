//! design-choice ablations: prints [`saber_bench::paper::ablation`].
fn main() {
    print!("{}", saber_bench::paper::ablation());
}
