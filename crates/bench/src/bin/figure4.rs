//! Regenerates Figure 4 (full 1,054-sample corpus).
use harness::RunLimits;
use tracer::flight::{attribution_json, chrome_trace_json};
use tracer::{FlightConfig, ToJson};

fn main() {
    let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let report =
        scarecrow_bench::figure4::run(RunLimits::default(), workers, FlightConfig::enabled());
    println!("{}", scarecrow_bench::figure4::render(&report));
    scarecrow_bench::json::maybe_write("figure4", &report.to_json().pretty());
    if let Some(telemetry) = report.telemetry() {
        scarecrow_bench::json::maybe_write("figure4_telemetry", &telemetry.to_json().pretty());
    }
    if let Some(flight) = report.flight() {
        scarecrow_bench::json::maybe_write("figure4_trace", &chrome_trace_json(flight));
        scarecrow_bench::json::maybe_write("figure4_attribution", &attribution_json(flight));
    }
}
