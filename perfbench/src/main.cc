// Serving benchmark driver: replays one workload through the real serve
// path and prints its metrics. Normally started by perfbench/run.py:
//
//   perfbench --workload web-mix --seed 1 --seconds 20 --trace 0 --root .
//
// --trace 0 prints the end-to-end metrics of one untraced window. --trace 1
// runs an untraced and a traced window of half the time each and prints the
// per-layer metrics (plus the tracing overhead). The last line of stdout is
// one JSON object; a human-readable summary goes to stderr and a full
// report (environment, fixture, operations, every metric) to
// <root>/.bench_build/perfbench-out/reports/. Exits 1 when any answered
// score fails the output check.

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "fixture.h"
#include "kernels.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricDef {
  std::string name;
  const char* unit;
};

// Must match BENCHMARK.json's end_to_end and per_layer lists.
const std::vector<MetricDef> kEndToEnd = {
    {"latency_p50_ms", "ms"}, {"latency_p99_ms", "ms"},
    {"slo_met_rate", "fraction"}, {"goodput_qps", "req/s"},
    {"ndcg10", "ndcg"}, {"cpu_ms_per_req", "ms/req"},
    {"serve_heap_mb", "MB"}, {"setup_s", "s"},
};

std::vector<MetricDef> PerLayer() {
  std::vector<MetricDef> defs;
  for (const std::string rung : {"student", "cascade", "teacher-subset"}) {
    defs.push_back({"rung." + rung + ".attempts", "count"});
    defs.push_back({"rung." + rung + ".busy_s", "s"});
    for (const char* n : {"10", "128", "1024"}) {
      defs.push_back({"rung." + rung + ".us_per_doc.n" + n, "us"});
    }
    defs.push_back({"engine.drift." + rung, "ratio"});
  }
  static const std::vector<MetricDef> rest = {
      {"mm.sdmm.l0.us_per_call", "us"},
      {"mm.sdmm.l0.us_per_call.n10", "us"},
      {"mm.sdmm.l0.gflops", "GFLOP/s"},
      {"mm.sdmm.l0.bytes_per_call", "bytes"},
      {"mm.gemm.l1.us_per_call", "us"},
      {"mm.gemm.l1.us_per_call.n10", "us"},
      {"mm.gemm.l1.gflops", "GFLOP/s"},
      {"mm.gemm.l1.bytes_per_call", "bytes"},
      {"mm.gemm.l2.us_per_call", "us"},
      {"mm.gemm.l2.us_per_call.n10", "us"},
      {"mm.gemm.l2.gflops", "GFLOP/s"},
      {"mm.gemm.l2.bytes_per_call", "bytes"},
      {"mm.gemm.l3.us_per_call", "us"},
      {"mm.gemm.l3.us_per_call.n10", "us"},
      {"mm.gemm.l3.gflops", "GFLOP/s"},
      {"mm.gemm.l3.bytes_per_call", "bytes"},
      {"mm.gemm.l4.us_per_call", "us"},
      {"mm.gemm.l4.us_per_call.n10", "us"},
      {"mm.gemm.l4.gflops", "GFLOP/s"},
      {"mm.gemm.l4.bytes_per_call", "bytes"},
      {"data.normalize.ns_per_doc", "ns"},
      {"forest.subset.us_per_doc.n10", "us"},
      {"forest.subset.us_per_doc.n128", "us"},
      {"forest.subset.us_per_doc.n1024", "us"},
      {"engine.queue_wait_us.p50", "us"},
      {"engine.queue_wait_us.p99", "us"},
      {"engine.service_us.p50", "us"},
      {"engine.residual_us.p50", "us"},
      {"engine.shed_rate", "fraction"},
      {"engine.rung0_share", "fraction"},
      {"engine.rung1_share", "fraction"},
      {"engine.rung2_share", "fraction"},
      {"engine.retries", "count"},
      {"engine.deadline_exceeded", "count"},
      {"cache.hit_rate", "fraction"},
      {"cache.evictions_per_req", "count/req"},
      {"cache.hit_us.p50", "us"},
      {"cache.fingerprint_us_per_doc", "us"},
      {"router.overhead_us.p50", "us"},
      {"router.quota_rejected", "count"},
      {"router.failover_picks", "count"},
      {"mem.rss_growth_mb", "MB"},
      {"bundle.load_ms", "ms"},
      {"servable.golden_ms", "ms"},
      {"replay.lag_us.p50", "us"},
      {"replay.lag_us.p99", "us"},
      {"trace.overhead_p50_ms", "ms"},
      {"trace.residual_violations", "count"},
  };
  defs.insert(defs.end(), rest.begin(), rest.end());
  return defs;
}

std::string Number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string MetricsJson(const std::vector<MetricDef>& defs,
                        const MetricMap& values) {
  std::ostringstream json;
  json << "{";
  for (size_t i = 0; i < defs.size(); ++i) {
    const auto it = values.find(defs[i].name);
    if (it == values.end()) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   defs[i].name.c_str());
      std::exit(2);
    }
    json << (i ? ", " : "") << "\"" << defs[i].name << "\": {\"value\": "
         << Number(it->second) << ", \"unit\": \"" << defs[i].unit << "\"}";
  }
  json << "}";
  return json.str();
}

std::string MapJson(const MetricMap& values) {
  std::ostringstream json;
  json << "{";
  bool first = true;
  for (const auto& [name, value] : values) {
    json << (first ? "" : ", ") << "\"" << name << "\": " << Number(value);
    first = false;
  }
  json << "}";
  return json.str();
}

std::string OpsJson(const WindowResult& w) {
  std::ostringstream json;
  json << "{\"sent\": " << w.sent << ", \"ok\": " << w.ok
       << ", \"failed\": " << w.failed << ", \"wrong\": " << w.wrong
       << ", \"slo_missed\": " << w.missed
       << ", \"latency_samples\": " << w.samples
       << ", \"checked_references\": " << w.references
       << ", \"harness_overflow\": " << w.harness_overflow
       << ", \"host_steal_s\": " << Number(w.steal_s)
       << ", \"slices_kept\": " << w.slices_kept << "}";
  return json.str();
}

void PrintSummary(const char* label, const WindowResult& w) {
  std::fprintf(stderr,
               "[%s] ops.sent=%llu ok=%llu failed=%llu wrong=%llu "
               "slo_missed=%llu samples=%llu references=%llu "
               "host_steal_s=%.3f slices_kept=%u\n",
               label, static_cast<unsigned long long>(w.sent),
               static_cast<unsigned long long>(w.ok),
               static_cast<unsigned long long>(w.failed),
               static_cast<unsigned long long>(w.wrong),
               static_cast<unsigned long long>(w.missed),
               static_cast<unsigned long long>(w.samples),
               static_cast<unsigned long long>(w.references), w.steal_s,
               w.slices_kept);
  for (const auto& [name, value] : w.end_to_end) {
    std::fprintf(stderr, "[%s]   %-24s %.6g\n", label, name.c_str(), value);
  }
  std::fprintf(stderr,
               "[%s]   hit_rate=%.4f rung shares=%.4f/%.4f/%.4f "
               "shed_rate=%.4f replay.lag_us.p50=%.1f\n",
               label, w.layer.at("cache.hit_rate"),
               w.layer.at("engine.rung0_share"),
               w.layer.at("engine.rung1_share"),
               w.layer.at("engine.rung2_share"),
               w.layer.at("engine.shed_rate"),
               w.layer.at("replay.lag_us.p50"));
  if (!w.first_error.empty()) {
    std::fprintf(stderr, "[%s]   first output error: %s\n", label,
                 w.first_error.c_str());
  }
}

int Usage() {
  std::string names;
  for (const std::string& name : WorkloadNames()) names += " " + name;
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--root DIR] [--source ID]\n"
               "workloads:%s\n",
               names.c_str());
  return 2;
}

int Main(int argc, char** argv) {
  // Pin glibc's mmap threshold at its default. Left dynamic, it rises to
  // 32 MiB once the fixture frees its dataset, and the serve path's larger
  // allocations would then come from the heap only in this process.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  std::map<std::string, std::string> args = {
      {"--seed", "1"}, {"--seconds", "20"}, {"--trace", "0"},
      {"--root", "."}, {"--source", "unknown"}};
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc % 2 == 0 || !args.count("--workload")) return Usage();
  const WorkloadSpec* spec = FindWorkload(args["--workload"]);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args["--workload"].c_str());
    return Usage();
  }
  const uint64_t seed = std::strtoull(args["--seed"].c_str(), nullptr, 10);
  const double seconds = std::strtod(args["--seconds"].c_str(), nullptr);
  const bool trace = args["--trace"] == "1";
  const std::string root = args["--root"];
  const std::string out = root + "/.bench_build/perfbench-out";
  if (!(seconds >= 1.0)) return Usage();
  if (!IsReleaseBuild()) {
    std::fprintf(stderr, "perfbench: refusing to report numbers from a %s "
                 "build; configure with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }

  const uint64_t fixture_start = NowNanos();
  dnlr::Result<Fixture> fixture = Fixture::Build(root, out + "/fixture");
  if (!fixture.ok()) {
    std::fprintf(stderr, "perfbench: fixture: %s\n",
                 fixture.status().ToString().c_str());
    return 1;
  }
  const double fixture_s = static_cast<double>(NowNanos() - fixture_start) *
                           1e-9;
  std::error_code mkdir_error;
  std::filesystem::create_directories(out + "/reports", mkdir_error);
  const std::string env = EnvironmentJson(args["--source"]);
  std::fprintf(stderr,
               "perfbench: %s seed %llu, %g s, trace %d; bundle %s "
               "(%llu bytes, crc32 %08x); fixture built in %.2f s\n",
               spec->name.c_str(), static_cast<unsigned long long>(seed),
               seconds, trace ? 1 : 0, fixture->bundle_path().c_str(),
               static_cast<unsigned long long>(fixture->bundle_bytes()),
               fixture->bundle_crc(), fixture_s);

  std::vector<WindowResult> windows;
  std::string metrics_json;
  std::string trace_json;
  constexpr double kWarmupSeconds = 1.0;
  if (!trace) {
    windows.push_back(
        RunWindow(*fixture, *spec, seed, seconds, kWarmupSeconds, 21, nullptr));
    PrintSummary("untraced", windows[0]);
    metrics_json = MetricsJson(kEndToEnd, windows[0].end_to_end);
  } else {
    windows.push_back(RunWindow(*fixture, *spec, seed, seconds / 2,
                                kWarmupSeconds, 3, nullptr));
    SpanLog spans;
    windows.push_back(RunWindow(*fixture, *spec, seed, seconds / 2,
                                kWarmupSeconds, 3, &spans));
    PrintSummary("untraced", windows[0]);
    PrintSummary("traced", windows[1]);
    MetricMap layer = windows[1].layer;
    layer["trace.overhead_p50_ms"] =
        windows[1].end_to_end.at("latency_p50_ms") -
        windows[0].end_to_end.at("latency_p50_ms");
    ReplayKernels(*fixture, 4, &layer);
    metrics_json = MetricsJson(PerLayer(), layer);

    std::ostringstream self;
    self << "[";
    bool first = true;
    for (const SpanLog::LayerTime& t : spans.SelfTimes()) {
      self << (first ? "" : ", ") << "{\"span\": \"" << t.name
           << "\", \"count\": " << t.count
           << ", \"total_s\": " << Number(t.total_s)
           << ", \"self_s\": " << Number(t.self_s) << "}";
      std::fprintf(stderr, "[traced]   span %-22s n=%-8llu total %.4f s "
                   "self %.4f s\n", t.name.c_str(),
                   static_cast<unsigned long long>(t.count), t.total_s,
                   t.self_s);
      first = false;
    }
    self << "]";
    const std::string span_path = out + "/reports/" + spec->name + ".seed" +
                                  std::to_string(seed) + ".spans.csv";
    trace_json = ", \"span_self_times\": " + self.str() +
                 ", \"spans_csv\": \"" + span_path + "\"" +
                 ", \"per_layer\": " + MapJson(layer);
    if (!spans.WriteCsv(span_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", span_path.c_str());
    }
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  std::ostringstream report;
  report << "{\"workload\": \"" << spec->name << "\", \"seed\": " << seed
         << ", \"seconds\": " << Number(seconds) << ", \"trace\": "
         << (trace ? 1 : 0) << ", \"environment\": " << env
         << ", \"fixture\": {\"bundle\": \"" << fixture->bundle_path()
         << "\", \"bytes\": " << fixture->bundle_bytes()
         << ", \"crc32\": " << fixture->bundle_crc()
         << ", \"build_s\": " << Number(fixture_s) << "}"
         << ", \"bytes_per_call_note\": \"mm.*.bytes_per_call are computed "
            "from tensor sizes, not measured\", \"windows\": [";
  for (size_t i = 0; i < windows.size(); ++i) {
    const WindowResult& w = windows[i];
    attempted += w.sent;
    failed += w.failed;
    wrong += w.wrong;
    report << (i ? ", " : "") << "{\"traced\": "
           << (trace && i == 1 ? "true" : "false")
           << ", \"ops\": " << OpsJson(w)
           << ", \"end_to_end\": " << MapJson(w.end_to_end)
           << ", \"layer\": " << MapJson(w.layer) << "}";
  }
  report << "]" << trace_json << "}\n";
  const std::string report_path = out + "/reports/" + spec->name + ".seed" +
                                  std::to_string(seed) + ".trace" +
                                  (trace ? "1" : "0") + ".json";
  std::ofstream(report_path) << report.str();
  std::fprintf(stderr, "perfbench: report %s\n", report_path.c_str());

  const bool correct = wrong == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed + wrong),
              metrics_json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
