#include "serve/report.hpp"

#include <ostream>

#include "common/table.hpp"
#include "common/version.hpp"
#include "obs/json.hpp"

namespace hymm {

namespace {

void write_quantiles(JsonWriter& w, const char* name,
                     const LogHistogram& h) {
  w.key(name);
  w.begin_object();
  w.field("count", h.count());
  w.field("mean", h.mean());
  w.field("p50", h.quantile(0.50));
  w.field("p90", h.quantile(0.90));
  w.field("p99", h.quantile(0.99));
  w.field("max", h.max());
  w.end_object();
}

std::string quantile_line(const LogHistogram& h) {
  return "p50 " + std::to_string(h.quantile(0.50)) + "  p90 " +
         std::to_string(h.quantile(0.90)) + "  p99 " +
         std::to_string(h.quantile(0.99)) + "  max " +
         std::to_string(h.max());
}

}  // namespace

void print_serve_summary(const ServeResult& result,
                         const ServeConfig& config,
                         const ServeReportMeta& meta, std::ostream& out) {
  out << "Serving " << meta.spec.name << " (x" << meta.scale << " scale, "
      << to_string(config.flow) << ", seed " << meta.seed << ")\n"
      << "  open loop: " << config.arrival_rate << " req/s, "
      << config.requests << " arrivals, queue cap "
      << config.queue_capacity << "\n\n";

  Table classes({"Class", "Nodes", "Standalone cycles", "DRAM",
                 "Mix weight", "Verified"});
  for (const ClassCost& cost : result.class_costs) {
    classes.add_row(
        {cost.name, std::to_string(cost.nodes),
         std::to_string(cost.standalone_cycles),
         Table::fmt_bytes(static_cast<double>(cost.standalone_dram_bytes)),
         Table::fmt(cost.weight, 1), cost.verified ? "yes" : "NO"});
  }
  classes.print(out);

  const double clock = config.accel.clock_ghz;
  out << "\nserved " << result.served << " / dropped " << result.dropped
      << "; makespan " << result.makespan << " cycles ("
      << Table::fmt(static_cast<double>(result.makespan) / (clock * 1e6), 2)
      << " ms @" << clock << "GHz)\n"
      << "throughput " << Table::fmt(result.throughput_rps(clock), 1)
      << " req/s, utilization "
      << Table::fmt_percent(result.utilization(), 1) << "\n"
      << "latency (cycles):  " << quantile_line(result.latency) << "\n"
      << "queue wait:        " << quantile_line(result.wait) << "\n"
      << "service:           " << quantile_line(result.service) << "\n";
}

void write_serve_csv(const ServeResult& result, std::ostream& out) {
  out << "id,class,arrival,dropped,start,completion,service_cycles,"
         "wait_cycles,latency_cycles\n";
  for (const RequestRecord& r : result.requests) {
    out << r.id << ',' << result.class_costs[r.class_index].name << ','
        << r.arrival << ',' << (r.dropped ? 1 : 0) << ',';
    if (r.dropped) {
      out << ",,,,\n";
      continue;
    }
    out << r.start << ',' << r.completion << ',' << r.service_cycles << ','
        << r.wait_cycles << ',' << r.latency_cycles << '\n';
  }
}

void write_serve_json(const ServeResult& result, const ServeConfig& config,
                      const ServeReportMeta& meta, std::ostream& out) {
  JsonWriter w(out);
  w.begin_object();
  w.field("schema", kServeReportSchema);
  w.field("dataset", meta.spec.name);
  w.field("abbrev", meta.spec.abbrev);
  w.field("scale", meta.scale);
  w.field("flow", to_string(config.flow));
  w.field("seed", meta.seed);
  w.field("clock_ghz", config.accel.clock_ghz);

  w.key("config");
  w.begin_object();
  w.field("arrival_rate_rps", config.arrival_rate);
  w.field("requests", config.requests);
  w.field("queue_capacity", std::uint64_t{config.queue_capacity});
  w.end_object();

  w.key("classes");
  w.begin_array();
  for (const ClassCost& cost : result.class_costs) {
    w.begin_object();
    w.field("name", cost.name);
    w.field("weight", cost.weight);
    w.field("nodes", std::uint64_t{cost.nodes});
    w.field("standalone_cycles", std::uint64_t{cost.standalone_cycles});
    w.field("standalone_dram_bytes", cost.standalone_dram_bytes);
    w.field("preprocess_ms", cost.preprocess_ms);
    w.field("verified", cost.verified);
    w.field("max_abs_err", cost.max_abs_err);
    w.end_object();
  }
  w.end_array();

  w.key("summary");
  w.begin_object();
  w.field("served", result.served);
  w.field("dropped", result.dropped);
  w.field("makespan_cycles", std::uint64_t{result.makespan});
  w.field("busy_cycles", std::uint64_t{result.busy_cycles});
  w.field("utilization", result.utilization());
  w.field("throughput_rps", result.throughput_rps(config.accel.clock_ghz));
  write_quantiles(w, "latency_cycles", result.latency);
  write_quantiles(w, "wait_cycles", result.wait);
  write_quantiles(w, "service_cycles", result.service);
  w.end_object();

  w.key("queue_depth");
  w.begin_array();
  for (const QueueSample& s : result.queue_depth) {
    w.begin_object();
    w.field("cycle", std::uint64_t{s.cycle});
    w.field("depth", s.depth);
    w.field("in_flight", s.in_flight);
    w.end_object();
  }
  w.end_array();

  w.key("requests");
  w.begin_array();
  for (const RequestRecord& r : result.requests) {
    w.begin_object();
    w.field("id", r.id);
    w.field("class", result.class_costs[r.class_index].name);
    w.field("arrival", std::uint64_t{r.arrival});
    w.field("dropped", r.dropped);
    if (!r.dropped) {
      w.field("start", std::uint64_t{r.start});
      w.field("completion", std::uint64_t{r.completion});
      w.field("service_cycles", std::uint64_t{r.service_cycles});
      w.field("wait_cycles", std::uint64_t{r.wait_cycles});
      w.field("latency_cycles", std::uint64_t{r.latency_cycles});
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << '\n';
}

}  // namespace hymm
