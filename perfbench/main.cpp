// The benchmark binary. perfbench/run.py builds and runs it; see
// README.md in this directory.
//
//   perfbench --workload physics-comb|yelp-agg|photo-dse [--seed N]
//             [--seconds S] [--trace 0|1] [--out-dir DIR] [--revision REV]
//
// stdout: a {"meta": ...} line, then the result as the last line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Untraced runs (--trace 0) report the end-to-end metrics, traced runs
// the per-layer metrics. Exit 0 when every check passed, 1 when one
// failed or the run threw, 2 on a bad command line.
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "adapter.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using perfbench::RunOptions;
using perfbench::RunResult;

struct Args {
  RunOptions run;
  bool trace = false;
  std::string out_dir;
  std::string revision = "unknown";
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem << "\n"
            << "usage: perfbench --workload physics-comb|yelp-agg|photo-dse "
               "[--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR] "
               "[--revision REV]\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text,
                        std::uint64_t lo, std::uint64_t hi) {
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc() || end != text.data() + text.size() || v < lo || v > hi) {
    usage("invalid value '" + text + "' for " + flag);
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  a.run.workers = std::min(nproc, 4u);
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      if (!perfbench::is_workload(value)) usage("unknown workload '" + value + "'");
      a.run.workload = value;
    } else if (flag == "--seed") {
      a.run.seed = parse_u64(flag, value, 0, UINT32_MAX);
    } else if (flag == "--seconds") {
      a.run.seconds = static_cast<double>(parse_u64(flag, value, 1, 600));
    } else if (flag == "--trace") {
      a.trace = parse_u64(flag, value, 0, 1) == 1;
    } else if (flag == "--out-dir") {
      a.out_dir = value;
    } else if (flag == "--revision") {
      a.revision = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.run.workload.empty()) usage("--workload is required");
  return a;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

bool optimized_build() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : fallback;
}

std::string meta_json(const Args& a, const std::string& run_id) {
  std::ostringstream m;
  m << "{\"workload\":" << perfbench::json_quote(a.run.workload)
    << ",\"seed\":" << a.run.seed << ",\"seconds\":" << json_number(a.run.seconds)
    << ",\"trace\":" << (a.trace ? 1 : 0) << ",\"run_id\":" << perfbench::json_quote(run_id)
    << ",\"revision\":" << perfbench::json_quote(a.revision)
    << ",\"build_type\":" << perfbench::json_quote(PERFBENCH_BUILD_TYPE)
    << ",\"optimized\":" << (optimized_build() ? "true" : "false")
    << ",\"compiler\":" << perfbench::json_quote(PERFBENCH_COMPILER)
    << ",\"nproc\":" << std::thread::hardware_concurrency()
    << ",\"workers\":" << a.run.workers
    << ",\"fast_forward\":" << perfbench::json_quote(perfbench::fast_forward_mode())
    << ",\"HYMM_NO_FASTFWD\":" << perfbench::json_quote(env_or("HYMM_NO_FASTFWD", ""))
    << ",\"HYMM_FASTFWD_CHECK\":" << perfbench::json_quote(env_or("HYMM_FASTFWD_CHECK", ""))
    << "}";
  return m.str();
}

std::string result_json(const RunResult& r) {
  std::ostringstream out;
  out << "{\"correct\": " << (r.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    out << (i > 0 ? ", " : "") << perfbench::json_quote(m.name)
        << ": {\"value\": " << json_number(m.value)
        << ", \"unit\": " << perfbench::json_quote(m.unit) << "}";
  }
  out << "}}";
  return out.str();
}

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  if (!out) throw std::runtime_error("failed to write " + path.string());
  std::cerr << "perfbench: wrote " << path.string() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::string run_id = args.run.workload + "-seed" +
                             std::to_string(args.run.seed) + "-trace" +
                             (args.trace ? "1" : "0") + "-pid" +
                             std::to_string(getpid());
  const std::string meta = meta_json(args, run_id);
  if (!optimized_build()) {
    std::cerr << "perfbench: WARNING: non-optimized build (" << PERFBENCH_BUILD_TYPE
              << "); host times are not representative\n";
  }
  try {
    perfbench::Tracer tracer(run_id);
    const RunResult result = args.trace ? perfbench::run_traced(args.run, tracer)
                                        : perfbench::run_untraced(args.run);

    for (const std::string& problem : result.failures) {
      std::cerr << "perfbench: CHECK FAILED: " << problem << "\n";
    }
    for (const perfbench::Metric& m : result.metrics) {
      std::fprintf(stderr, "  %-34s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    if (args.trace) tracer.print_self_time_table(std::cerr);

    const std::string json = result_json(result);
    if (!args.out_dir.empty()) {
      const std::filesystem::path dir(args.out_dir);
      std::filesystem::create_directories(dir);
      std::ostringstream failures;
      for (std::size_t i = 0; i < result.failures.size(); ++i) {
        failures << (i > 0 ? "," : "") << perfbench::json_quote(result.failures[i]);
      }
      const std::string stem = args.run.workload + "-seed" + std::to_string(args.run.seed);
      write_file(dir / (stem + "-trace" + (args.trace ? "1" : "0") + ".json"),
                 "{\"meta\":" + meta + ",\"failures\":[" + failures.str() +
                     "],\"result\":" + json + "}\n");
      if (args.trace) {
        std::ostringstream trace;
        tracer.write_chrome_json(trace, meta);
        write_file(dir / (stem + ".trace.json"), trace.str());
      }
    }
    std::cout << "{\"meta\": " << meta << "}\n" << json << std::endl;
    return result.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << "\n";
    return 1;
  }
}
