#!/bin/sh
# Regenerates every table/figure artifact into results/, or gates a change.
#
#   ./regen-results.sh              # regenerate results/*.txt, results/*.json
#                                   # and the Figure 4 attribution and trace
#                                   # digests
#   ./regen-results.sh --check      # CI gate: no crate dependency its
#                                   # code does not name, cargo fmt
#                                   # --check, clippy
#                                   # --all-targets -D warnings, rustdoc with
#                                   # -D warnings, the whole
#                                   # workspace test suite, a perfbench build
#                                   # (it calls the crates' public API), the
#                                   # eight experiment binaries' stdout, the
#                                   # seven JSON artifacts, the two golden
#                                   # attribution sidecars and the golden
#                                   # `scarecrowctl rules --json` listing
#                                   # byte-equal to results/, the SHA-256
#                                   # of Figure 4's attribution sidecar
#                                   # and of its trace sidecar (wall-clock
#                                   # costs zeroed) equal to the committed
#                                   # digests, the
#                                   # telemetry / flight / rules sidecars
#                                   # present with their schema keys, and
#                                   # every examples/*.rs built and run to
#                                   # a zero exit
set -e
cd "$(dirname "$0")"

experiments="table1 table2 table3 figure4 case_studies benign_impact figure5_space ablation"
# the experiments that also write a committed <name>.json
json_artifacts="table1 table2 table3 figure4 case_studies benign_impact figure5_space"
# sidecars committed as goldens: Table I's attribution chains,
# `scarecrowctl explain case:kasidet` (both on the virtual clock), and the
# default configuration's rule listing, `scarecrowctl rules --json`
golden_sidecars="table1_attribution scarecrowctl_attribution scarecrowctl_rules"
# Figure 4's attribution sidecar (every sample's deception chain, ~3.6 MB)
# is gated by its SHA-256 rather than committed whole
figure4_digest="results/figure4_attribution.sha256"
# and so is its Chrome trace, once each span's wall-clock cost is zeroed:
# the recorder keeps the same whole samples for any worker count
figure4_trace_digest="results/figure4_trace.sha256"

sha256() {
    sha256sum "$1" | cut -d' ' -f1
}

# the SHA-256 of a Chrome trace with its run-to-run `wall_ns` values zeroed
trace_sha256() {
    sed 's/"wall_ns":[0-9]*/"wall_ns":0/g' "$1" | sha256sum | cut -d' ' -f1
}

require_sidecar() {
    if [ ! -s "$1" ]; then
        echo "FAIL: expected metrics sidecar $1 was not written (or is empty)" >&2
        exit 1
    fi
    echo "ok: $1"
}

require_key() {
    if ! grep -q "$2" "$1"; then
        echo "FAIL: sidecar $1 is missing required key $2" >&2
        exit 1
    fi
}

require_same() {
    if ! cmp -s "$1" "$2"; then
        echo "FAIL: $1 diverged from committed $2" >&2
        diff "$2" "$1" | head -20 >&2
        exit 1
    fi
    echo "ok: $1 matches $2"
}

if [ "${1:-}" = "--check" ]; then
    echo "== crate dependencies named by their code =="
    unused=0
    for manifest in crates/*/Cargo.toml; do
        dir="$(dirname "$manifest")"
        # entry names of the [dependencies] and [dev-dependencies] tables
        deps="$(awk '/^\[/ { in_deps = ($0 == "[dependencies]" || $0 == "[dev-dependencies]"); next }
                     in_deps && /^[A-Za-z0-9_-]+[ \t.=]/ { sub(/[ \t.=].*/, ""); print }' "$manifest")"
        code_dirs=""
        for d in src tests benches examples; do
            if [ -d "$dir/$d" ]; then code_dirs="$code_dirs $dir/$d"; fi
        done
        for dep in $deps; do
            ident="$(echo "$dep" | tr - _)"
            # shellcheck disable=SC2086 # code_dirs is a list of paths
            if ! grep -rqE "(^|[^A-Za-z0-9_])$ident(::|;)" $code_dirs; then
                echo "FAIL: $manifest declares $dep, which no file under$code_dirs names" >&2
                unused=1
            fi
        done
    done
    if [ "$unused" -ne 0 ]; then
        exit 1
    fi
    echo "ok: every crate's dependencies are named by its code"
    echo "== cargo fmt --check =="
    cargo fmt --all --check
    echo "== cargo clippy --all-targets -D warnings =="
    cargo clippy --workspace --all-targets -- -D warnings
    echo "== cargo doc -D warnings =="
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
    echo "== cargo test --workspace =="
    cargo test --workspace -q --no-fail-fast
    echo "== building perfbench =="
    CARGO_TARGET_DIR=.bench_build cargo build --release --offline --manifest-path perfbench/Cargo.toml
    echo "== building experiment binaries and examples =="
    cargo build --release -p scarecrow-bench --bins
    cargo build --release --examples
    check_dir="$(mktemp -d)"
    trap 'rm -rf "$check_dir"' EXIT
    echo "== running examples =="
    for src in examples/*.rs; do
        ex="$(basename "$src" .rs)"
        if ! SCARECROW_RESULTS_DIR="$check_dir" ./target/release/examples/$ex >/dev/null; then
            echo "FAIL: example $ex exited non-zero" >&2
            exit 1
        fi
        echo "ok: example $ex"
    done
    echo "== verifying JSON + telemetry sidecars (into $check_dir) =="
    for b in $experiments; do
        SCARECROW_RESULTS_DIR="$check_dir" ./target/release/$b >"$check_dir/$b.stdout.txt"
    done
    ctl() {
        SCARECROW_RESULTS_DIR="$check_dir" ./target/release/scarecrowctl "$@" >/dev/null
    }
    # the committed Figure 4 md5s must name samples of the seeded corpus
    first_md5="$(grep -m1 '"md5"' results/figure4.json | cut -d'"' -f4)"
    if ! ctl explain "$first_md5"; then
        echo "FAIL: scarecrowctl cannot resolve $first_md5 from results/figure4.json" >&2
        exit 1
    fi
    echo "ok: scarecrowctl explain $first_md5"
    # last explain run, so its attribution sidecar is the golden one
    ctl explain case:kasidet
    ctl trace case:kasidet
    ctl run case:kasidet
    ctl rules --json
    for f in table1 table1_telemetry figure4 figure4_telemetry \
             table1_trace table1_attribution figure4_trace figure4_attribution \
             scarecrowctl_trace scarecrowctl_attribution scarecrowctl_run_telemetry; do
        require_sidecar "$check_dir/$f.json"
    done
    # telemetry sidecars: both snapshot sections and the per-API counts
    for f in table1_telemetry figure4_telemetry scarecrowctl_run_telemetry; do
        require_key "$check_dir/$f.json" '"deterministic"'
        require_key "$check_dir/$f.json" '"api_calls"'
        require_key "$check_dir/$f.json" '"wall"'
    done
    # flight-recorder sidecar schemas: Chrome traces must carry the
    # traceEvents array, attribution files the v1 schema tag + chains
    for f in table1_trace figure4_trace scarecrowctl_trace; do
        require_key "$check_dir/$f.json" '"traceEvents"'
    done
    for f in table1_attribution figure4_attribution scarecrowctl_attribution; do
        require_key "$check_dir/$f.json" '"schema":"scarecrow.attribution.v1"'
        require_key "$check_dir/$f.json" '"chain"'
    done
    # rule-registry sidecar: schema tag, per-rule entries, and the derived
    # hook list must all be present
    require_sidecar "$check_dir/scarecrowctl_rules.json"
    require_key "$check_dir/scarecrowctl_rules.json" '"schema": "scarecrow.rules.v1"'
    require_key "$check_dir/scarecrowctl_rules.json" '"rules"'
    require_key "$check_dir/scarecrowctl_rules.json" '"hooked_apis"'
    # refactors must not perturb the deterministic experiment output:
    # stdout and the JSON artifacts are byte-compared against results/
    for b in $experiments; do
        require_same "$check_dir/$b.stdout.txt" "results/$b.txt"
    done
    for b in $json_artifacts $golden_sidecars; do
        require_same "$check_dir/$b.json" "results/$b.json"
    done
    sha256 "$check_dir/figure4_attribution.json" >"$check_dir/figure4_attribution.sha256"
    require_same "$check_dir/figure4_attribution.sha256" "$figure4_digest"
    trace_sha256 "$check_dir/figure4_trace.json" >"$check_dir/figure4_trace.sha256"
    require_same "$check_dir/figure4_trace.sha256" "$figure4_trace_digest"
    echo "check passed"
    exit 0
fi

cargo build --release -p scarecrow-bench --bins
out_dir="$(mktemp -d)"
trap 'rm -rf "$out_dir"' EXIT
mkdir -p results
for b in $experiments; do
    echo "== $b =="
    SCARECROW_RESULTS_DIR="$out_dir" ./target/release/$b | tee "results/$b.txt"
done
SCARECROW_RESULTS_DIR="$out_dir" ./target/release/scarecrowctl explain case:kasidet >/dev/null
SCARECROW_RESULTS_DIR="$out_dir" ./target/release/scarecrowctl rules --json >/dev/null
for b in $json_artifacts $golden_sidecars; do
    cp "$out_dir/$b.json" "results/$b.json"
done
sha256 "$out_dir/figure4_attribution.json" >"$figure4_digest"
trace_sha256 "$out_dir/figure4_trace.json" >"$figure4_trace_digest"
