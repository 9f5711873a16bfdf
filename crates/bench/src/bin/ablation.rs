//! Runs the design-choice ablations.
fn main() {
    let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let rates = scarecrow_bench::ablation::deception_breadth(200, workers);
    let wannacry = scarecrow_bench::ablation::wannacry_sinkhole();
    let profiles = scarecrow_bench::ablation::profile_conflicts();
    println!("{}", scarecrow_bench::ablation::render(&rates, &wannacry, &profiles));
}
