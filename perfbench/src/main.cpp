//===- perfbench/src/main.cpp - End-to-end benchmark runner -----*- C++ -*-===//
//
// Runs one named workload from a seed for a fixed number of seconds, checks
// its outputs, and prints every metric by name with its unit. The last line
// of standard output is one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With `--trace 0` the metrics are the end-to-end metrics; with `--trace 1`
// they are the per-layer metrics, and the spans recorded around each layer
// call are written as a Chrome trace-event file (`--trace-out`).
//
//   slp-perfbench --workload suite_verify --seed 3 --seconds 10 --trace 0
//
// perfbench/run.py builds this binary and gives every run private
// directories; see perfbench/README.md for the workloads and metrics.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>

#include <sys/resource.h>
#include <unistd.h>

using namespace perfbench;

namespace {

struct MetricSpec {
  std::string Name;
  std::string Unit;
};

/// Metrics every workload reports from its untraced runs.
std::vector<MetricSpec> endToEndMetrics() {
  return {{"setup_s", "s"},
          {"peak_rss_mb", "MB"},
          {"ok_frac", "ratio"},
          {"op_ms", "cal_ms"}};
}

/// Metrics every traced run reports. A workload that does not exercise a
/// layer reports 0 for it: the prediction there is "no change".
std::vector<MetricSpec> perLayerMetrics() {
  std::vector<MetricSpec> M = {
      {"ir.parse_ms", "ms"},
      {"svc.precheck_us", "us"},
      {"exec.compile_ms", "ms"},
      {"equiv.seed_ms", "ms"},
      {"equiv.run_ms", "ms"},
      {"equiv.compare_ms", "ms"},
      {"equiv.elements_seeded", "count"},
      {"equiv.useful_frac", "ratio"},
  };
  for (const char *Pass : PassNames)
    M.push_back({std::string("pass.") + Pass + "_ms", "ms"});
  std::vector<MetricSpec> Rest = {
      {"pipeline.kernels_vectorized", "count"},
      {"suite.predicted_speedup", "x"},
      {"svc.req_p50_us", "us"},
      {"svc.req_tail_us", "us"},
      {"svc.proto_us", "us"},
      {"svc.mem_lookup_us", "us"},
      {"svc.disk_lookup_us", "us"},
      {"svc.disk_hit_frac", "ratio"},
      {"svc.reply_bytes_per_kernel", "B"},
      {"svc.cold_req_ms", "ms"},
      {"fuzz.mutate_ms", "ms"},
      {"fuzz.compile_ms", "ms"},
      {"fuzz.execute_ms", "ms"},
      {"fuzz.pipeline_runs", "count"},
      {"fuzz.env_reuse_frac", "ratio"},
      {"fuzz.mutant_accept_frac", "ratio"},
      {"native.emit_ms", "ms"},
      {"native.cc_ms", "ms"},
      {"native.load_ms", "ms"},
      {"native.scalar_ns_geomean", "ns"},
      {"native.vector_ns_geomean", "ns"},
      {"native.speedup_geomean", "x"},
      {"native.accepted_slower", "count"},
      {"native.model_error_geomean", "x"},
  };
  M.insert(M.end(), Rest.begin(), Rest.end());
  for (const slp::Workload &W : suiteWorkloads())
    M.push_back({"native.speedup." + W.Name, "x"});
  std::vector<MetricSpec> Diagnostics = {
      {"suite_compile_tail_ms", "ms"},
      {"op.raw_ms", "ms"},
      {"host.cal_per_s", "1/s"},
      {"trace.coverage", "ratio"},
      {"trace.overhead_frac", "ratio"},
  };
  M.insert(M.end(), Diagnostics.begin(), Diagnostics.end());
  return M;
}

const std::vector<std::pair<std::string, void (*)(const Options &, Result &)>>
    Workloads = {{"suite_verify", runSuiteVerify},
                 {"service_mix", runServiceMix},
                 {"fuzz_campaign", runFuzzCampaign},
                 {"native_exec", runNativeExec}};

std::string jsonNumber(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

bool parseU64(const char *Text, uint64_t &Out) {
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(Text, &End, 10);
  if (End == Text || *End != '\0' || errno == ERANGE || Text[0] == '-')
    return false;
  Out = V;
  return true;
}

int usage(const char *Msg) {
  std::fprintf(stderr,
               "slp-perfbench: %s\n"
               "usage: slp-perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\n"
               "         [--workdir DIR] [--trace-out FILE] [--mix-seed N]\n"
               "         [--env-seed N] [--fuzz-seed N] [--fuzz-iterations N]\n"
               "workloads: suite_verify service_mix fuzz_campaign "
               "native_exec\n",
               Msg);
  return 2;
}

void printTable(const char *Title, const std::vector<MetricSpec> &Specs,
                const std::map<std::string, double> &Values) {
  std::printf("%s\n", Title);
  for (const MetricSpec &M : Specs) {
    auto It = Values.find(M.Name);
    std::printf("  %-34s %16.6g %s\n", M.Name.c_str(),
                It == Values.end() ? 0.0 : It->second, M.Unit.c_str());
  }
}

/// Prints \p Totals sorted by self time, largest first.
void printSelfTable(const char *Title,
                    const std::map<std::string, SpanTotals> &Totals) {
  std::vector<std::pair<std::string, SpanTotals>> Rows(Totals.begin(),
                                                       Totals.end());
  std::sort(Rows.begin(), Rows.end(), [](const auto &A, const auto &B) {
    return A.second.SelfMs > B.second.SelfMs;
  });
  double All = 0;
  for (const auto &Row : Rows)
    All += Row.second.SelfMs;
  std::printf("%s (set-up and traced phase)\n", Title);
  std::printf("  %-22s %10s %12s %12s %7s\n", "name", "count", "total_ms",
              "self_ms", "self%");
  for (const auto &[Name, T] : Rows)
    std::printf("  %-22s %10" PRIu64 " %12.3f %12.3f %6.1f%%\n", Name.c_str(),
                T.Count, T.TotalMs, T.SelfMs,
                All > 0 ? 100 * T.SelfMs / All : 0.0);
}

/// Self time per span, then per layer (the span name before the dot).
void printSelfTimes() {
  std::map<std::string, SpanTotals> Spans = Tracer::totals();
  std::map<std::string, SpanTotals> Layers;
  for (const auto &[Name, T] : Spans) {
    SpanTotals &L = Layers[Name.substr(0, Name.find('.'))];
    L.Count += T.Count;
    L.TotalMs += T.TotalMs;
    L.SelfMs += T.SelfMs;
  }
  printSelfTable("span self time", Spans);
  printSelfTable("layer self time", Layers);
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false;
  bool HaveMixSeed = false, HaveEnvSeed = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + Arg).c_str());
    const char *V = Argv[++I];
    uint64_t N = 0;
    if (Arg == "--workload") {
      O.Workload = V;
      HaveWorkload = true;
    } else if (Arg == "--seconds") {
      char *End = nullptr;
      O.Seconds = std::strtod(V, &End);
      if (End == V || *End != '\0' || !(O.Seconds > 0) || O.Seconds > 600)
        return usage("--seconds expects a number in (0, 600]");
      HaveSeconds = true;
    } else if (Arg == "--trace") {
      if (std::strcmp(V, "0") != 0 && std::strcmp(V, "1") != 0)
        return usage("--trace expects 0 or 1");
      O.Trace = V[0] == '1';
      HaveTrace = true;
    } else if (Arg == "--workdir") {
      O.WorkDir = V;
    } else if (Arg == "--trace-out") {
      O.TraceOut = V;
    } else if (!parseU64(V, N)) {
      return usage((Arg + " expects a non-negative integer").c_str());
    } else if (Arg == "--seed") {
      O.Seed = N;
      HaveSeed = true;
    } else if (Arg == "--mix-seed") {
      O.MixSeed = N;
      HaveMixSeed = true;
    } else if (Arg == "--env-seed") {
      O.EnvSeed = N;
      HaveEnvSeed = true;
    } else if (Arg == "--fuzz-seed") {
      O.FuzzSeed = N;
    } else if (Arg == "--fuzz-iterations") {
      if (N == 0)
        return usage("--fuzz-iterations expects a positive integer");
      O.FuzzIterations = N;
    } else {
      return usage(("unknown option " + Arg).c_str());
    }
  }
  if (!HaveWorkload || !HaveSeed || !HaveSeconds || !HaveTrace)
    return usage("--workload, --seed, --seconds and --trace are required");
  // Seeds not given explicitly derive from --seed, so one seed fixes every
  // input; the fuzz campaign keeps its fixed default so that its work (and
  // its deterministic counters) are the same in every run.
  if (!HaveMixSeed)
    O.MixSeed = splitmix64(O.Seed ^ 0x6D6978ULL);
  if (!HaveEnvSeed)
    O.EnvSeed = splitmix64(O.Seed ^ 0x656E76ULL);

  auto Found = std::find_if(Workloads.begin(), Workloads.end(),
                            [&](const auto &W) { return W.first == O.Workload; });
  if (Found == Workloads.end())
    return usage(("unknown workload '" + O.Workload + "'").c_str());
  if (::chdir(O.WorkDir.c_str()) != 0) {
    std::fprintf(stderr, "slp-perfbench: cannot enter --workdir '%s'\n",
                 O.WorkDir.c_str());
    return 2;
  }

  std::printf("perfbench: workload=%s seed=%" PRIu64 " seconds=%g trace=%d "
              "mix_seed=%" PRIu64 " env_seed=%" PRIu64 " fuzz_seed=%" PRIu64
              " fuzz_iterations=%" PRIu64 "\n",
              O.Workload.c_str(), O.Seed, O.Seconds, O.Trace ? 1 : 0,
              O.MixSeed, O.EnvSeed, O.FuzzSeed, O.FuzzIterations);
  std::fflush(stdout);

  // Traced runs record the set-up's spans too (host compiles, cold
  // requests); measurePhases switches recording off for the untraced
  // baseline phase and back on for the traced phase.
  Tracer::setEnabled(O.Trace);
  Result R;
  Found->second(O, R);
  Tracer::setEnabled(false);

  struct rusage Usage;
  ::getrusage(RUSAGE_SELF, &Usage);
  R.EndToEnd["peak_rss_mb"] = static_cast<double>(Usage.ru_maxrss) / 1024.0;
  R.EndToEnd["ok_frac"] =
      R.Attempted ? static_cast<double>(R.Attempted - R.Failed) /
                        static_cast<double>(R.Attempted)
                  : 0;

  std::vector<MetricSpec> Specs = O.Trace ? perLayerMetrics()
                                          : endToEndMetrics();
  std::map<std::string, double> &Values = O.Trace ? R.Layer : R.EndToEnd;
  for (const MetricSpec &M : Specs) {
    auto [It, New] = Values.emplace(M.Name, 0.0); // a layer not exercised
    if (!std::isfinite(It->second)) {
      R.check(false, "metric " + M.Name + " is not a finite number");
      It->second = 0;
    }
  }
  printTable(O.Trace ? "per-layer metrics" : "end-to-end metrics", Specs,
             Values);
  if (!O.Trace && !R.Layer.empty()) {
    std::printf("diagnostics (not compared)\n");
    for (const auto &[Name, V] : R.Layer)
      std::printf("  %-34s %16.6g\n", Name.c_str(), V);
  }
  if (O.Trace) {
    printSelfTimes();
    if (!O.TraceOut.empty()) {
      std::string Meta = "\"workload\":\"" + O.Workload +
                         "\",\"seed\":" + std::to_string(O.Seed);
      if (Tracer::writeChromeTrace(O.TraceOut, Meta))
        std::printf("trace written to %s\n", O.TraceOut.c_str());
      else
        R.check(false, "cannot write the trace file " + O.TraceOut);
    }
  }

  std::string Det;
  for (const auto &[Name, V] : R.Deterministic)
    Det += (Det.empty() ? "" : ", ") + ("\"" + Name + "\": " + jsonNumber(V));
  std::printf("deterministic: {%s}\n", Det.c_str());

  std::string Json = "{\"correct\": ";
  Json += R.correct() ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(R.Attempted);
  Json += ", \"failed\": " + std::to_string(R.Failed);
  Json += ", \"metrics\": {";
  bool First = true;
  for (const MetricSpec &M : Specs) {
    Json += (First ? "\"" : ", \"") + M.Name + "\": {\"value\": " +
            jsonNumber(Values[M.Name]) + ", \"unit\": \"" + M.Unit + "\"}";
    First = false;
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return 0;
}
