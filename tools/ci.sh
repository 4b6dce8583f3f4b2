#!/usr/bin/env sh
# CI entry point: build and test the release, asan-ubsan and tsan
# presets.
#
# The tier-1 command (cmake -B build -S . && cmake --build build &&
# ctest) is unchanged; this script is a superset used to shake out
# memory and UB errors in the persistence / fault-injection paths
# and data races in the exec/ scheduler and in src/obs/ (the tsan
# test preset runs the scheduler, parallel-campaign determinism,
# and observability suites under ThreadSanitizer, and the tsan leg
# then repeats the Scheduler tests 20 times, --repeat
# until-fail:20, to shake out lost wake-ups and cancel races in the
# shared-index pool).
#
# After the release preset passes, a 2-core smoke campaign archives
# sample observability artifacts (metrics.json and trace.json,
# docs/OBSERVABILITY.md) under build-release/obs-smoke/, and
# table3_sim_speed records the trace-store hot-path throughput
# (cells/sec at --jobs 1/8 plus the trace_store.* counter snapshot,
# docs/PERFORMANCE.md) to build-release/BENCH_trace_store.json;
# fig5_inverse_cv_population records the population-engine numbers
# (old-vs-streamed cells/sec and the 8-core streamed run, docs/
# PERFORMANCE.md "Population campaigns") to
# build-release/BENCH_population.json, and the batched-cell-engine
# sweep (docs/PERFORMANCE.md "Batched execution") to
# build-release/BENCH_batch.json, which doubles as a throughput
# floor check: batch=32 must not run slower than batch=1.
#
# Every sanitizer preset also runs a capped `wsel_cli population`
# smoke, exercising the streamed campaign_v3 writer, the parallel
# shard runner, and the one-pass statistics under asan/ubsan and
# tsan — twice, at --batch-cells 1 and --batch-cells 8, with a
# byte-compare of the shards (the sim/batch.hh identity contract
# under the sanitizer), then as one 64-row shard at --jobs 1 and
# --jobs 4, byte-compared too (rows of one shard written
# concurrently into one payload) — plus a
# `wsel_cli adaptive` smoke (sequential
# stopping rule with a resume pass, docs/SAMPLING.md), both
# adaptive and hybrid smokes running their cells through the
# batched engine; the release leg archives the adaptive-vs-fixed
# cell counts to build-release/BENCH_adaptive.json.
#
# The mixed-fidelity layer (docs/FIDELITY.md) gets a smoke on every
# sanitizer preset — calibrate, SIGKILL a hybrid campaign at the
# `fidelity.escalate` kill point, resume to a committed report, then
# a --jobs 1 vs --jobs 4 twin whose fidelity batches, bitmap, shards
# and hybrid.bin are byte-compared — and the release leg archives hybrid_fidelity's escalation-budget
# vs ranking-accuracy sweep to build-release/BENCH_hybrid.json.
#
# The release leg also reruns the whole test suite three times at
# -j nproc (--repeat until-fail:3) to catch tests that share state
# across the processes ctest runs them in.
#
# Usage: tools/ci.sh [preset ...]   (default: release asan-ubsan
#        tsan)

set -eu

cd "$(dirname "$0")/.."

presets="${*:-release asan-ubsan tsan}"

for preset in $presets; do
    echo "==> configure: $preset"
    cmake --preset "$preset"
    echo "==> build: $preset"
    cmake --build --preset "$preset" -j "$(nproc 2>/dev/null || echo 4)"
    echo "==> test: $preset"
    ctest --preset "$preset"

    case "$preset" in
      release)   bindir="build-release" ;;
      asan-ubsan) bindir="build-asan" ;;
      tsan)      bindir="build-tsan" ;;
      *)         bindir="build-$preset" ;;
    esac

    if [ "$preset" = "release" ]; then
        # The whole suite three more times at full parallelism:
        # ctest runs each test in its own process, so a test that
        # shares a path or other state with a sibling flakes here.
        echo "==> repeated parallel test: $preset"
        ctest --test-dir "$bindir" --output-on-failure \
            -j "$(nproc 2>/dev/null || echo 4)" \
            --repeat until-fail:3
    fi

    if [ "$preset" = "tsan" ]; then
        # The scheduler tests 20 more times under ThreadSanitizer:
        # which thread claims which index changes from run to run,
        # so a lost wake-up or a race on the cancel path may only
        # show on some runs.
        echo "==> repeated scheduler test: $preset"
        ctest --test-dir "$bindir" --output-on-failure \
            -R '^Scheduler\.' --repeat until-fail:20
    fi

    if [ "$preset" = "asan-ubsan" ] || [ "$preset" = "tsan" ]; then
        echo "==> population smoke: $preset"
        popdir="$bindir/population-smoke"
        rm -rf "$popdir"
        WSEL_CACHE_DIR="$popdir/cache" \
            "./$bindir/tools/wsel_cli" population \
            --out "$popdir/pop.v3" \
            --insns 5000 --limit 64 --shard-size 80 --jobs 4 \
            --batch-cells 1
        test -s "$popdir/pop.v3/manifest.bin"
        # Batched twin of the same campaign: the batched engine
        # (sim/batch.hh) must produce bitwise-identical shards under
        # the sanitizer too.
        WSEL_CACHE_DIR="$popdir/cache" \
            "./$bindir/tools/wsel_cli" population \
            --out "$popdir/pop-batched.v3" \
            --insns 5000 --limit 64 --shard-size 80 --jobs 4 \
            --batch-cells 8
        test -s "$popdir/pop-batched.v3/manifest.bin"
        for shard in "$popdir"/pop.v3/shard-*.bin; do
            cmp "$shard" "$popdir/pop-batched.v3/${shard##*/}"
        done
        # One-shard twin: --shard-size 65536 puts all 64 rows in one
        # shard, so at --jobs 4 four threads write rows into the same
        # payload; its shard must match the --jobs 1 run's.
        for jobs in 1 4; do
            WSEL_CACHE_DIR="$popdir/cache" \
                "./$bindir/tools/wsel_cli" population \
                --out "$popdir/pop-one-j$jobs.v3" \
                --insns 5000 --limit 64 --shard-size 65536 \
                --jobs "$jobs"
            test -s "$popdir/pop-one-j$jobs.v3/manifest.bin"
        done
        for shard in "$popdir"/pop-one-j1.v3/shard-*.bin; do
            cmp "$shard" "$popdir/pop-one-j4.v3/${shard##*/}"
        done
        rm -rf "$popdir"
        echo "==> population smoke (serial + batched + one shard) passed under $preset"

        # Adaptive sequential campaign smoke (docs/SAMPLING.md):
        # live stopping rule, batch artifacts and a resume of the
        # finished run, all under the sanitizer.
        echo "==> adaptive smoke: $preset"
        adadir="$bindir/adaptive-smoke"
        rm -rf "$adadir"
        WSEL_CACHE_DIR="$adadir/cache" \
            "./$bindir/tools/wsel_cli" adaptive \
            --out "$adadir/run" \
            --insns 5000 --cores 2 --batch 16 --budget 64 --jobs 4 \
            --batch-cells 8
        test -s "$adadir/run/adaptive.bin"
        WSEL_CACHE_DIR="$adadir/cache" \
            "./$bindir/tools/wsel_cli" adaptive \
            --out "$adadir/run" \
            --insns 5000 --cores 2 --batch 16 --budget 64 --jobs 4 \
            --batch-cells 8 --resume 1
        rm -rf "$adadir"
        echo "==> adaptive smoke passed under $preset"

        # Mixed-fidelity campaign smoke (docs/FIDELITY.md):
        # calibrate an error profile, start a hybrid campaign that
        # is SIGKILLed at the 3rd escalated detailed cell (after
        # the escalation set committed, mid detailed batch), then
        # resume it to a committed hybrid.bin report — all under
        # the sanitizer.
        echo "==> hybrid fidelity smoke: $preset"
        hybdir="$bindir/hybrid-smoke"
        rm -rf "$hybdir"
        if WSEL_CACHE_DIR="$hybdir/cache" \
            WSEL_KILL_POINT=fidelity.escalate:3 \
            "./$bindir/tools/wsel_cli" hybrid \
            --out "$hybdir/run" \
            --insns 5000 --cores 2 --limit 24 --calibrate 8 \
            --budget-frac 0.25 --batch-rows 2 --jobs 4 \
            --batch-cells 8; then
            echo "hybrid smoke: kill point never fired" >&2
            exit 1
        fi
        test -s "$hybdir/run/fidelity-bitmap.bin"
        test ! -e "$hybdir/run/hybrid.bin"
        WSEL_CACHE_DIR="$hybdir/cache" \
            "./$bindir/tools/wsel_cli" hybrid \
            --out "$hybdir/run" \
            --insns 5000 --cores 2 --limit 24 --calibrate 8 \
            --budget-frac 0.25 --batch-rows 2 --jobs 4 \
            --batch-cells 8
        test -s "$hybdir/run/hybrid.bin"
        # Escalated cells fan out per (row, policy) over the pool and
        # the thread finishing a batch's last cell writes it: 4-row
        # batches at --jobs 4 must match --jobs 1 byte for byte.
        # Each run learns into its own copy of the same profile.
        for jobs in 1 4; do
            cp "$hybdir/cache/error_profile.bin" "$hybdir/profile-j$jobs.bin"
            WSEL_CACHE_DIR="$hybdir/cache" \
                "./$bindir/tools/wsel_cli" hybrid \
                --out "$hybdir/run-j$jobs" \
                --profile "$hybdir/profile-j$jobs.bin" \
                --insns 5000 --cores 2 --limit 24 \
                --budget-frac 0.25 --batch-rows 4 --jobs "$jobs" \
                --batch-cells 8
            test -s "$hybdir/run-j$jobs/hybrid.bin"
        done
        test -s "$hybdir/run-j1/fidelity-batch-000000.bin"
        for f in "$hybdir"/run-j1/fidelity-*.bin \
                 "$hybdir"/run-j1/shard-*.bin \
                 "$hybdir/run-j1/hybrid.bin"; do
            cmp "$f" "$hybdir/run-j4/${f##*/}"
        done
        rm -rf "$hybdir"
        echo "==> hybrid smoke (kill/resume + jobs 1 vs 4) passed under $preset"

        # Distributed campaign smoke (docs/ROBUSTNESS.md): a
        # wsel_serve daemon, four workers — one of which SIGKILLs
        # itself mid-shard — and a client submission that must
        # still complete with a committed manifest.  It runs twice:
        # with --jobs 1 workers and with default-jobs workers, which
        # fan each leased shard's rows out over every hardware
        # thread.  Both stores' shards must match an in-process
        # `wsel_cli population` run of the same campaign (seed, rank
        # range and --shard-size) byte for byte.
        echo "==> distributed campaign smoke: $preset"
        servedir="$bindir/serve-smoke"
        rm -rf "$servedir"
        mkdir -p "$servedir"
        WSEL_CACHE_DIR="$servedir/cache" \
            "./$bindir/tools/wsel_cli" population \
            --out "$servedir/inproc" \
            --insns 5000 --cores 2 --limit 40 --shard-size 16
        test -s "$servedir/inproc/manifest.bin"
        for jobs in 1 default; do
            jobs_arg=""
            [ "$jobs" = default ] || jobs_arg="--jobs $jobs"
            store="$servedir/store-$jobs"
            "./$bindir/tools/wsel_serve" \
                --socket "$servedir/serve.sock" \
                --store "$store" \
                --cache-dir "$servedir/cache" &
            serve_pid=$!
            worker_pids=""
            for i in 1 2 3; do
                # shellcheck disable=SC2086 # jobs_arg is two words or none
                "./$bindir/tools/wsel_worker" \
                    --socket "$servedir/serve.sock" \
                    --cache-dir "$servedir/cache" $jobs_arg &
                worker_pids="$worker_pids $!"
            done
            # shellcheck disable=SC2086
            WSEL_KILL_POINT=population.cell:3 \
                "./$bindir/tools/wsel_worker" \
                --socket "$servedir/serve.sock" \
                --cache-dir "$servedir/cache" $jobs_arg &
            victim_pid=$!
            "./$bindir/tools/wsel_cli" serve submit \
                --socket "$servedir/serve.sock" \
                --insns 5000 --cores 2 --limit 40 --shard-size 16 \
                --wait 1
            kill -TERM "$serve_pid"
            wait "$serve_pid"
            for pid in $worker_pids; do
                wait "$pid" || true
            done
            wait "$victim_pid" && exit 1 || true # must have died
            test -s "$store"/c-*/manifest.bin
            for shard in "$servedir"/inproc/shard-*.bin; do
                cmp "$shard" "$store"/c-*/"${shard##*/}"
            done
        done
        rm -rf "$servedir"
        echo "==> distributed smoke (jobs 1 + default, vs in-process) passed under $preset"
    fi

    if [ "$preset" = "release" ]; then
        echo "==> obs smoke artifacts: $preset"
        smoke="build-release/obs-smoke"
        rm -rf "$smoke"
        mkdir -p "$smoke"
        WSEL_CACHE_DIR="$smoke/cache" \
            ./build-release/tools/wsel_cli campaign \
            --cores 2 --insns 5000 --limit 12 --jobs 2 \
            --out "$smoke/campaign" \
            --metrics-out "$smoke/metrics.json" \
            --trace-out "$smoke/trace.json"
        test -s "$smoke/metrics.json"
        test -s "$smoke/trace.json"
        ./build-release/tools/wsel_cli analyze \
            --campaign "$smoke/campaign" --x LRU --y DIP
        rm -rf "$smoke/cache"
        echo "==> obs artifacts archived in $smoke"

        echo "==> trace-store bench: $preset"
        WSEL_CACHE_DIR="$smoke/cache" \
        WSEL_INSNS=20000 \
        WSEL_SPEED_REPS=2 \
        WSEL_SCALE_WORKLOADS=8 \
        WSEL_TS_WORKLOADS=12 \
        WSEL_BENCH_JSON="build-release/BENCH_trace_store.json" \
            ./build-release/bench/table3_sim_speed
        test -s "build-release/BENCH_trace_store.json"
        rm -rf "$smoke/cache"
        echo "==> bench archived in build-release/BENCH_trace_store.json"

        echo "==> population bench: $preset"
        WSEL_CACHE_DIR="$smoke/cache" \
        WSEL_INSNS=20000 \
        WSEL_POP_LIMIT=400 \
        WSEL_POP_BENCH_ROWS=400 \
        WSEL_POP8_ROWS=300 \
        WSEL_BENCH_JSON="build-release/BENCH_population.json" \
        WSEL_BENCH_JSON_BATCH="build-release/BENCH_batch.json" \
            ./build-release/bench/fig5_inverse_cv_population
        test -s "build-release/BENCH_population.json"
        test -s "build-release/BENCH_batch.json"
        # Throughput floor: the batched engine at its default batch
        # size must not run slower than batch=1 on the same 4-core
        # range. 10% head-room absorbs shared-runner noise without
        # masking a real pessimization.
        python3 - build-release/BENCH_batch.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
points = {p["batch"]: p["cells_per_sec"] for p in doc["points"]}
serial, batched = points[1], points[32]
print(f"batch floor: batch=32 {batched:.0f} vs "
      f"batch=1 {serial:.0f} cells/sec")
if batched < 0.9 * serial:
    sys.exit("batched engine slower than batch=1: regression")
EOF

        rm -rf "$smoke/cache"
        echo "==> benches archived in build-release/BENCH_population.json and BENCH_batch.json"

        echo "==> adaptive stopping bench: $preset"
        WSEL_CACHE_DIR="$smoke/cache" \
        WSEL_INSNS=20000 \
        WSEL_BENCH_JSON="build-release/BENCH_adaptive.json" \
            ./build-release/bench/adaptive_stopping
        test -s "build-release/BENCH_adaptive.json"
        rm -rf "$smoke/cache"
        echo "==> bench archived in build-release/BENCH_adaptive.json"

        echo "==> hybrid fidelity bench: $preset"
        WSEL_CACHE_DIR="$smoke/cache" \
        WSEL_INSNS=20000 \
        WSEL_HYBRID_BENCHES=4 \
        WSEL_BENCH_JSON="build-release/BENCH_hybrid.json" \
            ./build-release/bench/hybrid_fidelity
        test -s "build-release/BENCH_hybrid.json"
        rm -rf "$smoke/cache"
        echo "==> bench archived in build-release/BENCH_hybrid.json"

        echo "==> serve scaling bench: $preset"
        WSEL_CACHE_DIR="$smoke/cache" \
        WSEL_INSNS=20000 \
        WSEL_SERVE_ROWS=96 \
        WSEL_BENCH_JSON="build-release/BENCH_serve.json" \
            ./build-release/bench/serve_scaling
        test -s "build-release/BENCH_serve.json"
        rm -rf "$smoke/cache"
        echo "==> bench archived in build-release/BENCH_serve.json"
    fi
done

echo "ci: all presets passed"
