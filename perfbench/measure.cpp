// perfbench_measure: runs one workload of the end-to-end benchmark and
// prints its raw samples as one JSON object on the last line of stdout.
//
//   perfbench_measure --workload NAME --seed N --seconds S --trace 0|1
//                    --workdir DIR
//
// perfbench/run.py builds and calls this binary; see perfbench/README.md
// for the workloads and the metrics derived from the samples.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid]
                           : 0.5 * (values[mid - 1] + values[mid]);
}

void Report::attempt(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  if (failures.size() < 8) failures.push_back(what);
}

void Report::layer(const std::string& name, double value) {
  layers.emplace_back(name, value);
}

void SpanTotals::harvest() {
  for (const treesched::obs::SpanRecord& span :
       treesched::obs::collect_spans())
    ms_[std::string(span.category) + "/" + span.name] += ms_of_ns(span.dur_ns);
}

double SpanTotals::ms(const std::string& key) const {
  const auto it = ms_.find(key);
  return it == ms_.end() ? 0.0 : it->second;
}

double worker_busy_share() {
  auto& registry = treesched::obs::MetricsRegistry::global();
  const auto busy =
      static_cast<double>(registry.counter("engine.worker_busy_ns").value());
  const auto idle =
      static_cast<double>(registry.counter("engine.worker_idle_ns").value());
  return busy + idle > 0.0 ? busy / (busy + idle) : 0.0;
}

double largest_component_size() {
  return static_cast<double>(treesched::obs::MetricsRegistry::global()
                                 .histogram("engine.component_size")
                                 .max());
}

double offered_profit(const treesched::Problem& problem,
                      const std::vector<char>* live) {
  std::vector<char> offered(static_cast<std::size_t>(problem.num_demands()),
                            live == nullptr ? 1 : 0);
  if (live != nullptr)
    for (treesched::InstanceId i = 0; i < problem.num_instances(); ++i)
      if ((*live)[static_cast<std::size_t>(i)])
        offered[static_cast<std::size_t>(problem.instance(i).demand)] = 1;
  double total = 0.0;
  for (treesched::DemandId d = 0; d < problem.num_demands(); ++d)
    if (offered[static_cast<std::size_t>(d)]) total += problem.demand(d).profit;
  return total;
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_numbers(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i)
    out += (i ? "," : "") + json_number(values[i]);
  return out + "]";
}

std::string json_laps(const std::vector<std::vector<double>>& laps) {
  std::string out = "[";
  for (std::size_t i = 0; i < laps.size(); ++i)
    out += (i ? "," : "") + json_numbers(laps[i]);
  return out + "]";
}

void print_json(const Report& r, const Options& options) {
  std::ostringstream os;
  os << "{\"workload\":" << json_string(options.workload)
     << ",\"seed\":" << options.seed
     << ",\"setup_s\":" << json_numbers(r.setup_s)
     << ",\"laps\":" << json_laps(r.laps)
     << ",\"traced_laps\":" << json_laps(r.traced_laps)
     << ",\"events\":" << json_numbers(r.events)
     << ",\"profit_share\":" << json_number(r.profit_share)
     << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
     << ",\"failures\":[";
  for (std::size_t i = 0; i < r.failures.size(); ++i)
    os << (i ? "," : "") << json_string(r.failures[i]);
  os << "],\"peak_rss_mb\":" << json_number(peak_rss_mb()) << ",\"layers\":{";
  for (std::size_t i = 0; i < r.layers.size(); ++i)
    os << (i ? "," : "") << json_string(r.layers[i].first) << ":"
       << json_number(r.layers[i].second);
  os << "}}";
  std::cout << os.str() << std::endl;
}

Options parse_options(int argc, char** argv) {
  Options options;
  for (int a = 1; a + 1 < argc; a += 2) {
    const std::string key = argv[a];
    const std::string value = argv[a + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::stoull(value);
    } else if (key == "--seconds") {
      options.seconds = std::stod(value);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--workdir") {
      options.workdir = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (options.workdir.empty() || !(options.seconds > 0.0))
    throw std::invalid_argument(
        "--workdir and a positive --seconds are required");
  std::filesystem::create_directories(options.workdir);
  return options;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Options options = parse_options(argc, argv);
    Report report;
    if (options.workload == "batch-line")
      report = run_batch_line(options);
    else if (options.workload == "online-dense")
      report = run_online(options, /*dense=*/true);
    else if (options.workload == "online-sparse")
      report = run_online(options, /*dense=*/false);
    else if (options.workload == "protocol-wire")
      report = run_protocol_wire(options);
    else
      throw std::invalid_argument("unknown workload '" + options.workload +
                                  "'");
    print_json(report, options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_measure: %s\n", e.what());
    return 2;
  }
  return 0;
}
