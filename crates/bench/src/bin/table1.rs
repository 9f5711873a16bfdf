//! Regenerates Table I.
use tracer::flight::{attribution_json, chrome_trace_json};
use tracer::ToJson;

fn main() {
    let (rows, telemetry, flight) = scarecrow_bench::table1::run();
    println!("{}", scarecrow_bench::table1::render(&rows));
    scarecrow_bench::json::maybe_write("table1", &rows.to_json().pretty());
    scarecrow_bench::json::maybe_write("table1_telemetry", &telemetry.to_json().pretty());
    scarecrow_bench::json::maybe_write("table1_trace", &chrome_trace_json(&flight));
    scarecrow_bench::json::maybe_write("table1_attribution", &attribution_json(&flight));
}
