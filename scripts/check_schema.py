#!/usr/bin/env python3
"""Validate HyMM JSON artifacts against their declared schema.

Usage:
    check_schema.py FILE [FILE ...]

Each file must declare a supported schema and satisfy that schema's
structural requirements:

  hymm-run-report/8       "results" array; every result carries the
                          required run keys and a "stats" object with
                          a stall breakdown. A "spatial" object's
                          per-region cell arrays must match the
                          declared grid geometry, with "pe" counters
                          and an "imbalance" summary present; a
                          result labeled "sampled": true must carry a
                          "sample" object with per-phase band counts
                          and error bars.
  hymm-bench/1|2|3        "runs" array; every run carries abbrev,
                          flow, cycles and a stall breakdown; /2 runs
                          also the per-phase breakdown; /3 runs also
                          the "sampled" label (sampled runs carry
                          sample_fraction and sample_rel_error_bound).
  hymm-serve-report/2     serve_bench output: "config", "classes",
                          "summary" (latency quantile blocks),
                          "queue_depth" and one "requests" record per
                          arrival. Per request, re-checked here:
                          arrivals are non-decreasing in id order,
                          start >= arrival, and latency_cycles ==
                          wait_cycles + service_cycles.

Prints one OK/FAIL line per file with every problem found. Exit
status: 0 when all files validate, 1 when any file fails, 2 on usage
errors or unreadable files.
"""

import json
import sys

RUN_REPORT_SCHEMAS = {"hymm-run-report/8": 8}
BENCH_SCHEMAS = {"hymm-bench/1": 1, "hymm-bench/2": 2, "hymm-bench/3": 3}
SAMPLE_PHASE_KEYS = ("bands_total", "bands_simulated", "nnz_total",
                     "nnz_simulated", "cycles_estimate", "cycles_stderr")
SERVE_REPORT_SCHEMAS = {"hymm-serve-report/2": 2}

RESULT_KEYS = ("dataset", "abbrev", "scale", "flow", "cycles", "verified")
SPATIAL_CELL_KEYS = ("nnz", "macs", "dmb_hits", "dmb_misses",
                     "dram_bytes", "cycles")
BENCH_RUN_KEYS = ("abbrev", "flow", "cycles")
SERVE_CONFIG_KEYS = ("arrival_rate_rps", "requests", "queue_capacity")
SERVE_CLASS_KEYS = ("name", "weight", "nodes", "standalone_cycles",
                    "standalone_dram_bytes", "verified")
SERVE_SUMMARY_KEYS = ("served", "dropped", "makespan_cycles",
                      "busy_cycles", "utilization", "throughput_rps")
SERVE_QUANTILE_BLOCKS = ("latency_cycles", "wait_cycles", "service_cycles")
SERVE_QUANTILE_KEYS = ("count", "mean", "p50", "p90", "p99", "max")
SERVE_REQUEST_TIMING_KEYS = ("start", "completion", "service_cycles",
                             "wait_cycles", "latency_cycles")


def check_stalls(obj, where, problems):
    stalls = obj.get("stalls")
    if not isinstance(stalls, dict) or not stalls:
        problems.append(f"{where}: missing or empty \"stalls\" object")
        return
    for cause, cycles in stalls.items():
        if not isinstance(cycles, (int, float)):
            problems.append(f"{where}: stall {cause!r} is not a number")


def check_spatial(spatial, where, problems):
    rows = spatial.get("grid_rows")
    cols = spatial.get("grid_cols")
    if not isinstance(rows, int) or not isinstance(cols, int) \
            or rows <= 0 or cols <= 0:
        problems.append(f"{where}: spatial grid geometry is invalid")
        return
    cells = rows * cols
    regions = spatial.get("regions")
    if not isinstance(regions, dict):
        problems.append(f"{where}: spatial has no \"regions\" object")
    else:
        for name, region in regions.items():
            for key in SPATIAL_CELL_KEYS:
                column = region.get(key)
                if not isinstance(column, list) or len(column) != cells:
                    problems.append(
                        f"{where}: spatial region {name!r} array {key!r} "
                        f"is not a {cells}-cell list")
    if not isinstance(spatial.get("residual"), dict):
        problems.append(f"{where}: spatial has no \"residual\" object")
    pe = spatial.get("pe")
    if not isinstance(pe, dict) or \
            not isinstance(pe.get("busy_cycles"), list) or \
            not isinstance(pe.get("mac_ops"), list):
        problems.append(f"{where}: spatial has no per-PE counter arrays")
    if not isinstance(spatial.get("imbalance"), dict):
        problems.append(f"{where}: spatial has no \"imbalance\" object")


def check_sample(sample, where, problems):
    for key in ("fraction", "seed", "cycles_estimate", "cycles_stderr",
                "rel_error_bound"):
        if not isinstance(sample.get(key), (int, float)):
            problems.append(f"{where}: {key!r} is not a number")
    for phase in ("combination", "aggregation"):
        obj = sample.get(phase)
        if not isinstance(obj, dict):
            problems.append(f"{where}: missing per-phase object {phase!r}")
            continue
        for key in SAMPLE_PHASE_KEYS:
            if not isinstance(obj.get(key), (int, float)):
                problems.append(f"{where}.{phase}: {key!r} is not a number")
        bands = obj.get("bands_total")
        simulated = obj.get("bands_simulated")
        if isinstance(bands, int) and isinstance(simulated, int) \
                and simulated > bands:
            problems.append(
                f"{where}.{phase}: bands_simulated {simulated} exceeds "
                f"bands_total {bands}")


def check_run_report(doc, _version, problems):
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        problems.append("missing or empty \"results\" array")
        return
    for i, result in enumerate(results):
        where = f"results[{i}]"
        if not isinstance(result, dict):
            problems.append(f"{where}: not an object")
            continue
        for key in RESULT_KEYS:
            if key not in result:
                problems.append(f"{where}: missing key {key!r}")
        stats = result.get("stats")
        if not isinstance(stats, dict):
            problems.append(f"{where}: missing \"stats\" object")
        else:
            check_stalls(stats, f"{where}.stats", problems)
        spatial = result.get("spatial")
        if isinstance(spatial, dict):
            check_spatial(spatial, where, problems)
        if result.get("sampled"):
            sample = result.get("sample")
            if not isinstance(sample, dict):
                problems.append(
                    f"{where}: \"sampled\" is true but there is no "
                    "\"sample\" object")
            else:
                check_sample(sample, f"{where}.sample", problems)


def check_bench(doc, version, problems):
    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        problems.append("missing or empty \"runs\" array")
        return
    for i, run in enumerate(runs):
        where = f"runs[{i}]"
        if not isinstance(run, dict):
            problems.append(f"{where}: not an object")
            continue
        for key in BENCH_RUN_KEYS:
            if key not in run:
                problems.append(f"{where}: missing key {key!r}")
        check_stalls(run, where, problems)
        if version >= 2:
            for phase in ("combination", "aggregation"):
                obj = run.get(phase)
                if not isinstance(obj, dict):
                    problems.append(
                        f"{where}: missing per-phase object {phase!r} "
                        f"(required by hymm-bench/2)")
                else:
                    check_stalls(obj, f"{where}.{phase}", problems)
        if version >= 3:
            sampled = run.get("sampled")
            if not isinstance(sampled, bool):
                problems.append(
                    f"{where}: missing boolean \"sampled\" label "
                    f"(required by hymm-bench/3)")
            elif sampled:
                for key in ("sample_fraction", "sample_rel_error_bound"):
                    if not isinstance(run.get(key), (int, float)):
                        problems.append(
                            f"{where}: sampled run: {key!r} is not a "
                            "number")


def check_serve_requests(requests, problems):
    """Per-request invariants of the single-server FIFO schedule."""
    previous_arrival = None
    for i, request in enumerate(requests):
        where = f"requests[{i}]"
        if not isinstance(request, dict):
            problems.append(f"{where}: not an object")
            continue
        arrival = request.get("arrival")
        if not isinstance(arrival, int):
            problems.append(f"{where}: \"arrival\" is not an integer")
            continue
        if previous_arrival is not None and arrival < previous_arrival:
            problems.append(
                f"{where}: arrival {arrival} precedes the previous "
                f"request's {previous_arrival} (arrival clock wrapped?)")
        previous_arrival = arrival
        if request.get("dropped") is True:
            continue
        timing = {key: request.get(key) for key in SERVE_REQUEST_TIMING_KEYS}
        missing = [k for k, v in timing.items() if not isinstance(v, int)]
        if missing:
            problems.append(f"{where}: served request lacks integer "
                            f"{', '.join(missing)}")
            continue
        if timing["start"] < arrival:
            problems.append(
                f"{where}: start {timing['start']} precedes arrival "
                f"{arrival}")
        if timing["latency_cycles"] != \
                timing["wait_cycles"] + timing["service_cycles"]:
            problems.append(
                f"{where}: latency_cycles {timing['latency_cycles']} != "
                f"wait_cycles {timing['wait_cycles']} + service_cycles "
                f"{timing['service_cycles']}")


def check_serve_report(doc, _version, problems):
    config = doc.get("config")
    if not isinstance(config, dict):
        problems.append("missing \"config\" object")
    else:
        for key in SERVE_CONFIG_KEYS:
            if key not in config:
                problems.append(f"config: missing key {key!r}")

    classes = doc.get("classes")
    if not isinstance(classes, list) or not classes:
        problems.append("missing or empty \"classes\" array")
    else:
        for i, cls in enumerate(classes):
            where = f"classes[{i}]"
            if not isinstance(cls, dict):
                problems.append(f"{where}: not an object")
                continue
            for key in SERVE_CLASS_KEYS:
                if key not in cls:
                    problems.append(f"{where}: missing key {key!r}")
            if cls.get("verified") is not True:
                problems.append(f"{where}: class is not verified")

    summary = doc.get("summary")
    if not isinstance(summary, dict):
        problems.append("missing \"summary\" object")
    else:
        for key in SERVE_SUMMARY_KEYS:
            if key not in summary:
                problems.append(f"summary: missing key {key!r}")
        for block in SERVE_QUANTILE_BLOCKS:
            quantiles = summary.get(block)
            if not isinstance(quantiles, dict):
                problems.append(f"summary: missing quantile block {block!r}")
                continue
            for key in SERVE_QUANTILE_KEYS:
                if not isinstance(quantiles.get(key), (int, float)):
                    problems.append(
                        f"summary.{block}: {key!r} is not a number")

    if not isinstance(doc.get("queue_depth"), list):
        problems.append("missing \"queue_depth\" array")
    requests = doc.get("requests")
    if not isinstance(requests, list) or not requests:
        problems.append("missing or empty \"requests\" array")
        return
    check_serve_requests(requests, problems)
    if isinstance(summary, dict) and \
            isinstance(summary.get("served"), int) and \
            isinstance(summary.get("dropped"), int):
        if summary["served"] + summary["dropped"] != len(requests):
            problems.append(
                "summary: served + dropped != len(requests): "
                f"{summary['served']} + {summary['dropped']} != "
                f"{len(requests)}")


def check_file(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"FAIL {path}: cannot read: {err}")
        return 2
    if not isinstance(doc, dict):
        print(f"FAIL {path}: top level is not an object")
        return 1
    schema = doc.get("schema")
    problems = []
    if schema in RUN_REPORT_SCHEMAS:
        check_run_report(doc, RUN_REPORT_SCHEMAS[schema], problems)
    elif schema in BENCH_SCHEMAS:
        check_bench(doc, BENCH_SCHEMAS[schema], problems)
    elif schema in SERVE_REPORT_SCHEMAS:
        check_serve_report(doc, SERVE_REPORT_SCHEMAS[schema], problems)
    else:
        problems.append(f"unsupported schema {schema!r}")
    if problems:
        print(f"FAIL {path} ({schema}):")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(f"OK   {path} ({schema})")
    return 0


def main(argv):
    if len(argv) < 2:
        sys.exit(__doc__)
    status = 0
    for path in argv[1:]:
        status = max(status, check_file(path))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
