//! §1 multiplication share, cost model: prints [`saber_bench::paper::kem_breakdown`].
fn main() {
    print!("{}", saber_bench::paper::kem_breakdown());
}
