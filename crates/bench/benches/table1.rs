//! Table 1: prints [`saber_bench::paper::table1`].
fn main() {
    print!("{}", saber_bench::paper::table1());
}
