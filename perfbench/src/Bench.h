//===- perfbench/src/Bench.h - Shared benchmark infrastructure --*- C++ -*-===//
///
/// \file
/// What every workload of the end-to-end benchmark shares: the command-line
/// options, the frozen calibration loop that calibrated timings are divided
/// by, sample statistics, the span tracer behind `--trace 1`, and the result
/// record that main() prints as the final JSON line.
///
/// The benchmark drives the system only through its public entry points;
/// spans are recorded here, around those calls, never inside the library.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "slp/Pipeline.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

inline double msSince(Clock::time_point A) { return msBetween(A, Clock::now()); }

/// Iterations of one fuzz_campaign campaign: the shortest campaign whose
/// per-iteration cost and compile/execute split match the 1000-iteration
/// campaign (measured in perfbench/README.md, "Fuzz campaign length").
inline constexpr uint64_t DefaultFuzzIterations = 128;

/// Command-line options. Every seed has a default derived from `--seed`
/// (or, for the fuzz campaign, a fixed default) and is echoed in the output.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Private directory for the daemon socket and caches (must exist).
  std::string WorkDir = ".";
  /// Where `--trace 1` writes the Chrome trace-event JSON ("" = nowhere).
  std::string TraceOut;
  uint64_t MixSeed = 0;  ///< service_mix request stream
  uint64_t EnvSeed = 0;  ///< equivalence / native environments
  uint64_t FuzzSeed = 1; ///< the fuzz campaign's seed (fixed default)
  /// Iterations per fuzz campaign (see DefaultFuzzIterations).
  uint64_t FuzzIterations = DefaultFuzzIterations;
};

/// Set-ups per run; setup_s is their median.
inline constexpr unsigned SetupRounds = 5;

/// The canonical passes of Global+Layout, in pipeline order.
inline constexpr const char *PassNames[] = {
    "verify-kernel", "if-convert", "unroll",      "alignment",
    "grouping",      "scheduling", "group-prune", "codegen",
    "simulate",      "layout",     "cost-guard",  "verify-vector"};

//===----------------------------------------------------------------------===//
// Calibration
//===----------------------------------------------------------------------===//

/// What a calibrated time is measured in. Process CPU time (every thread of
/// the process) ignores time the vCPU was not running the benchmark and
/// the wake-up latency of threads handing work to each other; wall time is
/// for calls too short to read a CPU clock around.
enum class TimeBase { Wall, ProcessCpu };

/// Milliseconds on \p Base's clock (thread CPU time for ProcessCpu when
/// \p ThisThread is set).
double nowMs(TimeBase Base, bool ThisThread = false);

/// CPU milliseconds of every thread of the process plus every child
/// process it has waited for (the host compiler runs of native set-up).
double cpuMsWithChildren();

/// The frozen calibration loop. Its code never changes, so its speed only
/// reflects the machine: calibrated metrics divide each operation's time by
/// the time of the calibration blocks run right before and after it, which
/// cancels the multi-second speed phases of a shared vCPU. One block is a
/// fixed amount of work sized to about one millisecond on the machine the
/// benchmark was tuned on; "cal_ms" units count blocks.
class Calibrator {
public:
  /// Blocks are timed on \p Base's clock (thread CPU time for ProcessCpu:
  /// the loop runs on the calling thread alone).
  explicit Calibrator(TimeBase Base);

  TimeBase base() const { return Base; }

  /// Runs \p Blocks blocks and returns the mean milliseconds per block.
  double run(unsigned Blocks);

  /// Every block time measured so far (milliseconds).
  const std::vector<double> &blockMs() const { return BlockMs; }

private:
  TimeBase Base;
  std::vector<uint32_t> Table;
  uint64_t State = 0x9E3779B97F4A7C15ULL;
  double Acc = 0;
  std::vector<double> BlockMs;
};

/// Calibration blocks to run after a measured operation of \p OpMs (and
/// so before the next one): about 2 % of its time, at least two and at most
/// 32.
inline unsigned calBlocksFor(double OpMs) {
  return std::clamp(static_cast<unsigned>(OpMs / 50), 2u, 32u);
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

double median(std::vector<double> V);
/// The highest percentile with at least ten samples beyond it (the sample
/// at rank n-11 of the sorted values); the median when n < 11.
double tailValue(std::vector<double> V);
double geomean(const std::vector<double> &V);
double mean(const std::vector<double> &V);

/// SplitMix64 step: derives independent sub-seeds from one seed.
uint64_t splitmix64(uint64_t X);

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

/// Per-span-name aggregate: how often, total wall time, and self time (the
/// span's duration minus what its child spans cover).
struct SpanTotals {
  uint64_t Count = 0;
  double TotalMs = 0;
  double SelfMs = 0;
};

/// Records spans in memory while tracing is on. Spans of one operation
/// share an operation id: a span opened with no open parent on its thread
/// starts a new operation. Root spans named "op.*" are the operations whose
/// wall time `coverage()` attributes to their child (layer) spans.
class Tracer {
public:
  /// Turns span recording on or off for the whole process (spans opened
  /// while it is off stay no-ops).
  static void setEnabled(bool On);
  static bool enabled();

  /// Aggregates over every thread's finished spans.
  static std::map<std::string, SpanTotals> totals();

  /// Share of "op.*" root wall time covered by their direct children.
  static double coverage();

  /// Writes every recorded span (up to a cap) as Chrome trace-event JSON,
  /// which Perfetto and about:tracing open directly. False on I/O error.
  static bool writeChromeTrace(const std::string &Path,
                               const std::string &Metadata);
};

/// RAII span; free when tracing is off. \p Name must be a string literal.
class Span {
public:
  explicit Span(const char *Name);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  bool Active = false;
};

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

/// What one run reports. End-to-end metrics are printed by untraced runs,
/// per-layer metrics by traced runs; `Deterministic` holds the numbers that
/// must repeat exactly across runs (printed by both, for the steadiness
/// report).
struct Result {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::map<std::string, double> EndToEnd;
  std::map<std::string, double> Layer;
  std::map<std::string, double> Deterministic;

  /// Counts one checked operation; reports the first few failures.
  void check(bool Ok, const std::string &What);
  bool correct() const { return Attempted != 0 && Failed == 0; }
};

/// Runs \p SetUp(Round) SetupRounds times and records setup_s. Every round
/// is bracketed by calibration blocks, like a measured operation, and
/// costed in CPU time (cpuMsWithChildren). setup_s is the median round's
/// cost in calibration blocks, counting 1000 blocks as one second; the
/// median wall time is the diagnostic setup.raw_s. Stops at the first round
/// \p SetUp reports failed and returns false.
template <typename SetUpFn> bool measureSetup(Result &R, SetUpFn &&SetUp) {
  Calibrator Cal(TimeBase::ProcessCpu);
  std::vector<double> Cost, Wall;
  double Before = Cal.run(calBlocksFor(0));
  for (unsigned Round = 0; Round != SetupRounds; ++Round) {
    Clock::time_point T0 = Clock::now();
    double C0 = cpuMsWithChildren();
    bool Ok = SetUp(Round);
    double CpuMs = cpuMsWithChildren() - C0;
    double WallMs = msSince(T0);
    Wall.push_back(WallMs / 1000);
    if (!Ok)
      return false;
    double After = Cal.run(calBlocksFor(WallMs));
    Cost.push_back(CpuMs / (0.5 * (Before + After)) / 1000);
    Before = After;
  }
  R.EndToEnd["setup_s"] = median(Cost);
  R.Layer["setup.raw_s"] = median(Wall);
  return true;
}

/// Adds to \p Env, seeded for \p R's source kernel, what the vector program
/// also reads and writes: unroll clones of scalars and layout replicas of
/// arrays. This is checkEquivalence's candidate environment.
void extendForVectorProgram(const slp::PipelineResult &R,
                            const slp::Kernel &Source, slp::Environment &Env);

/// A fresh candidate environment: Environment(Source, Seed), extended.
slp::Environment makeVectorEnv(const slp::Kernel &Source,
                               const slp::PipelineResult &R, uint64_t Seed);

/// Pairs an operation's time with the calibration around it.
struct CalibratedSample {
  double WallMs = 0; ///< wall time per operation
  double CostMs = 0; ///< time per operation on the calibrator's clock
  double CalMs = 0;  ///< mean calibration block time around the operation
  double calibrated() const { return CalMs > 0 ? CostMs / CalMs : 0; }
};

/// Fills the common per-layer timing diagnostics from \p Samples and the
/// calibrator: op.raw_ms, host.cal_per_s.
void recordHostLayer(Result &R, const std::vector<CalibratedSample> &Samples,
                     const Calibrator &Cal);

/// Records trace.coverage and trace.overhead_frac (traced vs baseline
/// calibrated operation medians).
void recordTraceLayer(Result &R, const std::vector<CalibratedSample> &Baseline,
                      const std::vector<CalibratedSample> &Traced);

/// Median calibrated time per operation: the end-to-end `op_ms`.
double calibratedMedian(const std::vector<CalibratedSample> &Samples);

/// Runs \p Op back to back for \p Seconds, bracketing every call with
/// calibration blocks. \p Op returns how many operations the call
/// completed; each sample is the call's time per operation, on the wall
/// clock and on the calibrator's clock.
template <typename OpFn>
void measureLoop(Calibrator &Cal, double Seconds,
                 std::vector<CalibratedSample> &Out, OpFn &&Op) {
  Clock::time_point Deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(Seconds));
  double Before = Cal.run(calBlocksFor(0));
  do {
    Clock::time_point T0 = Clock::now();
    double C0 = nowMs(Cal.base());
    double Units = Op();
    double Cost = nowMs(Cal.base()) - C0;
    double Wall = msSince(T0);
    double After = Cal.run(calBlocksFor(Wall));
    if (Units > 0)
      Out.push_back(CalibratedSample{Wall / Units, Cost / Units,
                                     0.5 * (Before + After)});
    Before = After;
  } while (Clock::now() < Deadline);
}

/// The measurement phases every workload shares. Untraced runs call
/// \p Op(false) for the whole run. Traced runs first measure an untraced
/// baseline for a third of the run, then turn spans on and call
/// \p Op(true) for the rest, and record trace.coverage/overhead_frac.
/// \p Samples receives every sample; the end-to-end metric uses them only
/// in untraced runs.
template <typename OpFn>
void measurePhases(const Options &O, Calibrator &Cal, Result &R,
                   std::vector<CalibratedSample> &Samples, OpFn &&Op) {
  if (!O.Trace) {
    measureLoop(Cal, O.Seconds, Samples, [&] { return Op(false); });
    R.EndToEnd["op_ms"] = calibratedMedian(Samples);
    recordHostLayer(R, Samples, Cal);
    return;
  }
  std::vector<CalibratedSample> Baseline, Traced;
  Tracer::setEnabled(false);
  measureLoop(Cal, O.Seconds / 3, Baseline, [&] { return Op(false); });
  Tracer::setEnabled(true);
  measureLoop(Cal, O.Seconds * 2 / 3, Traced, [&] { return Op(true); });
  recordTraceLayer(R, Baseline, Traced);
  Samples = Baseline;
  Samples.insert(Samples.end(), Traced.begin(), Traced.end());
  recordHostLayer(R, Samples, Cal);
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// The 19-kernel suite: the 16 Table-3 kernels, then the 3 predicated ones.
std::vector<slp::Workload> suiteWorkloads();

void runSuiteVerify(const Options &O, Result &R);
void runServiceMix(const Options &O, Result &R);
void runFuzzCampaign(const Options &O, Result &R);
void runNativeExec(const Options &O, Result &R);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
