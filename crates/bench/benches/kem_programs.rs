//! §1 multiplication share, programs: prints [`saber_bench::paper::kem_programs`].
fn main() {
    print!("{}", saber_bench::paper::kem_programs());
}
