//! §5.2 coprocessor projection: prints [`saber_bench::paper::coprocessor_projection`].
fn main() {
    print!("{}", saber_bench::paper::coprocessor_projection());
}
