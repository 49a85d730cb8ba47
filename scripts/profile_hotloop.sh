#!/usr/bin/env sh
# Profile the simulator hot loop with whichever profiler this machine
# actually has. Tries, in order:
#
#   1. perf record   (kernel support + perf_event access required;
#                     probed with a real one-shot collection, since
#                     the binary often exists where the syscall is
#                     forbidden)
#   2. gprofng       (binutils >= 2.39; userspace-only, works in
#                     containers)
#   3. gprof         (needs the binary built with -pg; detected by
#                     the run leaving a gmon.out behind)
#
# and exits 2 with a clear message when none of the three can
# profile here. HYMM_PROFILER=perf|gprofng|gprof skips the probe
# order and demands that one profiler (failing loudly if it cannot
# run instead of silently falling through).
#
# Usage:
#     scripts/profile_hotloop.sh [BINARY [ARGS...]]
#
# Defaults to the perf-gate configuration — serial, CR+CS, the same
# cells the wall-clock criterion is measured on:
#     HYMM_DATASETS=CR,CS HYMM_THREADS=1 build/bench/perf_regression \
#         --rev profile --out /tmp/hymm_profile
#
# Knobs:
#     HYMM_PROFILER      force one backend: perf | gprofng | gprof
#     HYMM_PROFILE_DIR   perf.data / experiment output location
#                        (default: a fresh /tmp/hymm_hotloop.<pid>.*)
#     HYMM_NO_FASTFWD=1  profile the legacy per-cycle loop instead —
#                        useful to see what the fast-forward removed
#
# Reading the output: sort by exclusive CPU time. The known hot spots
# and their fixes are catalogued in docs/architecture.md
# ("Fast-forward and the host-side hot path"). RWP/HyMM cells cost
# more per simulated cycle than OP cells because their dense-row loads
# queue behind the DMB's MSHRs; the LSQ retries those loads only on
# DMB events (the join journal), so a retry that cannot succeed costs
# no DenseMatrixBuffer::read probe.
#
# Sampling profilers can capture far less CPU time than the run used
# (timer signals get coalesced on some VMs). The script therefore
# prints the profiled process's own CPU seconds (user + sys, from the
# shell's child-process times) and, for gprofng and gprof, the
# profile's sampled total beside them, with a WARNING when the
# profile covers less than half. Treat an undersampled profile's
# *distribution* as indicative at best.

set -eu

if [ "$#" -gt 0 ]; then
    : # explicit binary + args given
elif [ -x build/bench/perf_regression ]; then
    HYMM_DATASETS="${HYMM_DATASETS:-CR,CS}"
    HYMM_THREADS="${HYMM_THREADS:-1}"
    export HYMM_DATASETS HYMM_THREADS
    set -- build/bench/perf_regression --rev profile --out /tmp/hymm_profile
else
    echo "profile_hotloop.sh: build/bench/perf_regression missing;" \
         "build first (cmake --build build) or pass a binary" >&2
    exit 2
fi

# Sets cpu_now to the CPU seconds (user + sys) used so far by this
# shell's finished children. `times` must run in this shell: in a
# $(...) subshell it would see none of them.
children_cpu() {
    times > "$times_file"
    cpu_now=$(awk 'NR == 2 {
        n = split($0, f, /[ms ]+/)
        printf "%.3f", f[1] * 60 + f[2] + f[3] * 60 + f[4]
    }' "$times_file")
}
times_file=$(mktemp)
trap 'rm -f "$times_file"' EXIT

# Runs "$@" and sets cpu_s to the CPU seconds it used.
run_timed() {
    children_cpu
    cpu_before=$cpu_now
    "$@"
    children_cpu
    cpu_s=$(awk -v a="$cpu_now" -v b="$cpu_before" \
        'BEGIN { printf "%.2f", a - b }')
}

# Prints the process CPU beside the profile's sampled total and warns
# below 50 % coverage.
report_coverage() {
    sampled="$1"
    echo "== coverage: profile sampled ${sampled} s of ${cpu_s} s" \
         "process CPU"
    if awk -v s="$sampled" -v c="$cpu_s" 'BEGIN { exit !(s < 0.5 * c) }'; then
        echo "WARNING: the profile covers less than 50 % of the" \
             "process's CPU time; it is undersampled" >&2
    fi
}

# A profiler "is available" only if it can actually collect here —
# perf in particular is often installed where perf_event_open is
# forbidden (containers, perf_event_paranoid), so probe with a real
# one-shot collection, not just command -v.
perf_works() {
    command -v perf >/dev/null 2>&1 &&
        perf record -o /dev/null --quiet -- true >/dev/null 2>&1
}

run_perf() {
    data="${HYMM_PROFILE_DIR:-/tmp/hymm_hotloop.$$.perf.data}"
    echo "== collecting (perf record): $* -> $data" >&2
    run_timed perf record -g -o "$data" -- "$@"
    echo "== process CPU: ${cpu_s} s"
    echo "== flat profile (exclusive CPU time)"
    perf report --stdio --no-children -i "$data" | head -60
    echo "== hottest call chains"
    perf report --stdio -g --no-demangle=no -i "$data" | head -80
    echo "profile kept at $data (rerun views with:" \
         "perf report -i $data)" >&2
}

run_gprofng() {
    experiment="${HYMM_PROFILE_DIR:-/tmp/hymm_hotloop.$$.er}"
    rm -rf "$experiment"
    echo "== collecting (gprofng): $* -> $experiment" >&2
    run_timed gprofng collect app -o "$experiment" "$@"
    functions=$(gprofng display text -functions "$experiment")
    report_coverage "$(printf '%s\n' "$functions" |
        awk '/<Total>/ { print $1; exit }')"
    echo "== flat profile (exclusive CPU time)"
    printf '%s\n' "$functions"
    echo "== callers/callees of the top frame"
    gprofng display text -callers-callees "$experiment" | head -60
    echo "experiment kept at $experiment (rerun views with:" \
         "gprofng display text -functions $experiment)" >&2
}

run_gprof() {
    # gmon.out lands in the process's working directory, so run from
    # the profile dir — which means the binary path must be absolute.
    binary=$(realpath "$1"); shift
    workdir="${HYMM_PROFILE_DIR:-/tmp/hymm_hotloop.$$.gprof}"
    mkdir -p "$workdir"
    echo "== collecting (gprof): $binary $* -> $workdir/gmon.out" >&2
    run_timed sh -c 'cd "$1" && shift && exec "$@"' sh \
        "$workdir" "$binary" "$@"
    # gprof needs an instrumented binary: an un-instrumented run
    # leaves no gmon.out, which is a configuration error, not a
    # profile of zero samples.
    if [ ! -s "$workdir/gmon.out" ]; then
        echo "profile_hotloop.sh: $binary produced no gmon.out —" \
             "rebuild with -pg for gprof" \
             "(cmake -DCMAKE_CXX_FLAGS=-pg -DCMAKE_EXE_LINKER_FLAGS=-pg)" >&2
        exit 2
    fi
    # The flat profile's last row carries the cumulative sampled total.
    report_coverage "$(gprof -b -p "$binary" "$workdir/gmon.out" |
        awk '$2 ~ /^[0-9.]+$/ { total = $2 } END { print total + 0 }')"
    echo "== flat profile (exclusive CPU time)"
    gprof -b "$binary" "$workdir/gmon.out" | head -80
    echo "profile kept at $workdir/gmon.out (rerun views with:" \
         "gprof $binary $workdir/gmon.out)" >&2
}

backend="${HYMM_PROFILER:-}"
if [ -z "$backend" ]; then
    if perf_works; then
        backend=perf
    elif command -v gprofng >/dev/null 2>&1; then
        backend=gprofng
    elif command -v gprof >/dev/null 2>&1; then
        backend=gprof
    else
        echo "profile_hotloop.sh: no usable profiler found — need one of:" >&2
        echo "  perf    (linux-tools; also needs perf_event access)" >&2
        echo "  gprofng (binutils >= 2.39)" >&2
        echo "  gprof   (binutils; binary must be built with -pg)" >&2
        exit 2
    fi
fi

case "$backend" in
    perf)
        if ! perf_works; then
            echo "profile_hotloop.sh: HYMM_PROFILER=perf but perf cannot" \
                 "collect here (missing binary or perf_event access denied)" >&2
            exit 2
        fi
        run_perf "$@" ;;
    gprofng)
        if ! command -v gprofng >/dev/null 2>&1; then
            echo "profile_hotloop.sh: HYMM_PROFILER=gprofng but gprofng" \
                 "not found (binutils >= 2.39)" >&2
            exit 2
        fi
        run_gprofng "$@" ;;
    gprof)
        if ! command -v gprof >/dev/null 2>&1; then
            echo "profile_hotloop.sh: HYMM_PROFILER=gprof but gprof" \
                 "not found" >&2
            exit 2
        fi
        run_gprof "$@" ;;
    *)
        echo "profile_hotloop.sh: unknown HYMM_PROFILER '$backend'" \
             "(expected perf, gprofng or gprof)" >&2
        exit 2 ;;
esac
