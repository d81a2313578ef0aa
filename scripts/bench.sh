#!/usr/bin/env bash
# bench.sh measures the performance-critical paths and writes
# machine-readable reports:
#
#   BENCH_batchdecode.json — the batch-decoding suite (DESIGN.md §9):
#                            Aggregate batch vs per-slot, DecodeBatch vs
#                            Decode, cached-weights encode, lazy-reduction
#                            dot kernel. When a previous report exists it
#                            doubles as the regression baseline: benchreport
#                            -compare fails the run on >20% ns/op growth
#                            (tolerance widened in --quick mode, where 1x
#                            timings are noise).
#   BENCH_obs.json         — the observability-overhead suite (DESIGN.md
#                            §10): Aggregate with obs off / counters only /
#                            counters+tracer. The same -compare gate keeps
#                            the mode=off timing pinned to the baseline, so
#                            instrumentation cost cannot creep into the
#                            disabled path.
#
#   BENCH_pipeline.json    — the round-engine suite (DESIGN.md §14):
#                            BenchmarkRoundPipelined vs
#                            BenchmarkRoundLockstep under a seeded
#                            straggler distribution (two vehicles sleep
#                            40ms before every upload). benchreport
#                            derives pipelined_vs_lockstep and enforces
#                            the >=1.5x round-latency floor; the floor is
#                            sleep-driven, so it holds on any core count.
#
#   BENCH_fleet.json       — the fleet fan-in suite (DESIGN.md §16):
#                            BenchmarkFleetFanIn session latency with
#                            direct legs (mode=flat) and through edge
#                            relays (mode=relay), gated against the
#                            previous report like the suites above.
#
#   BENCH_multicore.json   — (--matrix only) the speedup matrix: the
#                            workers sweeps (Fig. 3 end to end, Lagrange
#                            vector encode), the batch-decode suite and the
#                            wire codec at GOMAXPROCS 1/2/4 (capped at
#                            nproc), each setting kept as a /procs=N name
#                            segment. benchreport gates the result: the
#                            best workers speedup must reach the
#                            host-scaled target (skipped, loudly, below 2
#                            cores — never a silent target_met:false) and
#                            the derived batch_vs_perslot ratio must clear
#                            its floor on every host.
#
#   scripts/bench.sh            # full measurement (benchtime 3x)
#   scripts/bench.sh --quick    # CI smoke: 1 iteration, exercises the
#                               # whole pipeline without meaningful timings
#   scripts/bench.sh --matrix   # GOMAXPROCS sweep + gated speedup matrix,
#                               # the only run that measures the workers
#                               # sweeps
#
# The reports record the host core count — interpret speedup ratios
# against it (a 1-core host cannot show wall-clock speedup by construction).
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime="${BENCHTIME:-3x}"
max_regress="${MAX_REGRESS:-0.20}"
quick=0
matrix=0
for arg in "$@"; do
    case "$arg" in
    --quick) quick=1 ;;
    --matrix) matrix=1 ;;
    *)
        echo "unknown argument: $arg" >&2
        exit 2
        ;;
    esac
done
if [[ "$quick" == 1 ]]; then
    benchtime=1x
    # Single-iteration timings swing wildly; keep the compare step as a
    # pipeline/schema check that only catches order-of-magnitude blowups.
    max_regress=10
fi

batch_out="${BENCH_BATCH_OUT:-BENCH_batchdecode.json}"
obs_out="${BENCH_OBS_OUT:-BENCH_obs.json}"
pipe_out="${BENCH_PIPELINE_OUT:-BENCH_pipeline.json}"
fleet_out="${BENCH_FLEET_OUT:-BENCH_fleet.json}"
matrix_out="${BENCH_MATRIX_OUT:-BENCH_multicore.json}"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

if [[ "$matrix" == 1 ]]; then
    cores="$(nproc)"
    : >"$raw"
    for p in 1 2 4; do
        if ((p > cores && p > 1)); then
            echo "== skipping GOMAXPROCS=$p (host has $cores core(s))"
            continue
        fi
        echo "== GOMAXPROCS=$p go test -bench matrix suite -benchtime $benchtime"
        GOMAXPROCS="$p" go test -run NONE \
            -bench 'Workers|AggregateBatch|DecodeBatch|WireCodec' \
            -benchtime "$benchtime" ./... | tee -a "$raw"
    done

    # The workers-speedup gate self-skips below 2 cores and scales its
    # target to the host inside benchreport; the derived-ratio gate is
    # core-count independent and always enforced. Measured headroom is
    # wide (batch ~20x vs the 1.5 floor), so the floor holds even under
    # --quick's single-iteration noise — but quick timings are too
    # unstable for a wall-clock speedup verdict, so that gate is disabled
    # there.
    require_speedup="${REQUIRE_SPEEDUP:-2.0}"
    if [[ "$quick" == 1 ]]; then
        echo "== quick mode: workers-speedup gate disabled (1x timings are noise)"
        require_speedup=0
    fi
    matrix_compare_args=()
    if [[ -f "$matrix_out" ]]; then
        echo "== benchreport -> $matrix_out (regression gate vs previous, max +${max_regress})"
        matrix_compare_args=(-compare "$matrix_out" -max-regress "$max_regress")
    else
        echo "== benchreport -> $matrix_out (no baseline yet)"
    fi
    go run ./cmd/benchreport -procs -out "$matrix_out" \
        -require-speedup "$require_speedup" \
        -min-ratio batch_vs_perslot=1.5 \
        "${matrix_compare_args[@]}" <"$raw"
    exit 0
fi

echo "== go test -bench batch-decode suite -benchtime $benchtime"
go test -run NONE -bench 'AggregateBatch|DecodeBatch|EncodeVectorsCached|DotAcc' \
    -benchtime "$benchtime" ./... | tee "$raw"

compare_args=()
if [[ -f "$batch_out" ]]; then
    echo "== benchreport -> $batch_out (regression gate vs previous, max +${max_regress})"
    compare_args=(-compare "$batch_out" -max-regress "$max_regress")
else
    echo "== benchreport -> $batch_out (no baseline yet)"
fi
go run ./cmd/benchreport -out "$batch_out" "${compare_args[@]}" < "$raw"

echo "== go test -bench observability-overhead suite -benchtime $benchtime"
go test -run NONE -bench 'AggregateObs' -benchtime "$benchtime" . | tee "$raw"

obs_compare_args=()
if [[ -f "$obs_out" ]]; then
    echo "== benchreport -> $obs_out (regression gate vs previous, max +${max_regress})"
    obs_compare_args=(-compare "$obs_out" -max-regress "$max_regress")
else
    echo "== benchreport -> $obs_out (no baseline yet)"
fi
go run ./cmd/benchreport -out "$obs_out" "${obs_compare_args[@]}" < "$raw"

echo "== go test -bench pipeline suite -benchtime $benchtime"
go test -run NONE -bench 'RoundPipelined|RoundLockstep' \
    -benchtime "$benchtime" ./internal/node | tee "$raw"

# The pipelined-vs-lockstep floor is driven by injected 40ms straggler
# sleeps, not by parallel compute, so it is enforced even in --quick mode
# and on single-core hosts.
pipe_compare_args=()
if [[ -f "$pipe_out" ]]; then
    echo "== benchreport -> $pipe_out (regression gate vs previous, max +${max_regress})"
    pipe_compare_args=(-compare "$pipe_out" -max-regress "$max_regress")
else
    echo "== benchreport -> $pipe_out (no baseline yet)"
fi
go run ./cmd/benchreport -out "$pipe_out" \
    -min-ratio pipelined_vs_lockstep=1.5 \
    "${pipe_compare_args[@]}" < "$raw"

echo "== go test -bench fleet fan-in suite -benchtime $benchtime"
go test -run NONE -bench 'FleetFanIn' -benchtime "$benchtime" ./internal/node | tee "$raw"

fleet_compare_args=()
if [[ -f "$fleet_out" ]]; then
    echo "== benchreport -> $fleet_out (regression gate vs previous, max +${max_regress})"
    fleet_compare_args=(-compare "$fleet_out" -max-regress "$max_regress")
else
    echo "== benchreport -> $fleet_out (no baseline yet)"
fi
go run ./cmd/benchreport -out "$fleet_out" "${fleet_compare_args[@]}" < "$raw"
