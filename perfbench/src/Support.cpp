//===- perfbench/src/Support.cpp - Calibration, stats, tracing ---*- C++ -*-===//

#include "Bench.h"

#include "ir/Interpreter.h"
#include "layout/Layout.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>

#include <sys/resource.h>
#include <time.h>

using namespace perfbench;

//===----------------------------------------------------------------------===//
// Calibration
//===----------------------------------------------------------------------===//

namespace {

// Frozen: the calibration block is the yardstick every calibrated metric is
// divided by. Changing either constant or the loop body below changes the
// unit; do not edit them.
constexpr unsigned CalTableEntries = 1u << 15; // 128 KiB of uint32
constexpr unsigned CalIterations = 110000;

} // namespace

double perfbench::nowMs(TimeBase Base, bool ThisThread) {
  if (Base == TimeBase::Wall)
    return msBetween(Clock::time_point(), Clock::now());
  struct timespec T;
  ::clock_gettime(ThisThread ? CLOCK_THREAD_CPUTIME_ID
                             : CLOCK_PROCESS_CPUTIME_ID,
                  &T);
  return static_cast<double>(T.tv_sec) * 1e3 +
         static_cast<double>(T.tv_nsec) * 1e-6;
}

double perfbench::cpuMsWithChildren() {
  struct rusage Children;
  ::getrusage(RUSAGE_CHILDREN, &Children);
  auto Ms = [](const struct timeval &T) {
    return static_cast<double>(T.tv_sec) * 1e3 +
           static_cast<double>(T.tv_usec) * 1e-3;
  };
  return nowMs(TimeBase::ProcessCpu) + Ms(Children.ru_utime) +
         Ms(Children.ru_stime);
}

Calibrator::Calibrator(TimeBase Base) : Base(Base), Table(CalTableEntries) {
  for (unsigned I = 0; I != CalTableEntries; ++I)
    Table[I] = I * 2654435761u;
}

double Calibrator::run(unsigned Blocks) {
  double SumMs = 0;
  for (unsigned B = 0; B != Blocks; ++B) {
    double T0 = nowMs(Base, /*ThisThread=*/true);
    // A branchy, table-driven integer loop: the profile of the compiler's
    // own passes (pointer-heavy, unpredictable branches). Measured against
    // a streaming floating-point loop and L3/DRAM pointer chases, this is
    // the profile whose speed tracks every workload's best.
    uint64_t X = State;
    double F = Acc;
    uint32_t *Tab = Table.data();
    for (unsigned I = 0; I != CalIterations; ++I) {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
      uint32_t Slot = static_cast<uint32_t>(X) & (CalTableEntries - 1);
      uint32_t V = Tab[Slot];
      Tab[Slot] = V * 2654435761u + I;
      if (V & 1)
        F = F * 0.999 + 1.0;
      else
        F -= 0.5;
    }
    State = X;
    Acc = F;
    double Ms = nowMs(Base, /*ThisThread=*/true) - T0;
    BlockMs.push_back(Ms);
    SumMs += Ms;
  }
  return Blocks ? SumMs / Blocks : 0;
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

double perfbench::tailValue(std::vector<double> V) {
  if (V.size() < 11)
    return median(std::move(V));
  std::sort(V.begin(), V.end());
  return V[V.size() - 11];
}

double perfbench::geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

double perfbench::mean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double Sum = 0;
  for (double X : V)
    Sum += X;
  return Sum / static_cast<double>(V.size());
}

uint64_t perfbench::splitmix64(uint64_t X) {
  X += 0x9E3779B97F4A7C15ULL;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ULL;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBULL;
  return X ^ (X >> 31);
}

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

namespace {

/// Spans kept per thread for the Chrome trace file; aggregates (self time,
/// coverage) still count every span past the cap.
constexpr size_t MaxEventsPerThread = 40000;

struct Frame {
  const char *Name;
  int64_t StartNs;
  int64_t ChildNs;
  uint64_t Id;
  uint64_t Parent;
  uint64_t Op;
};

struct Event {
  const char *Name;
  int64_t StartNs;
  int64_t DurNs;
  uint64_t Id;
  uint64_t Parent;
  uint64_t Op;
};

struct ThreadState {
  unsigned Tid = 0;
  std::vector<Frame> Stack;
  std::vector<Event> Events;
  uint64_t DroppedEvents = 0;
  std::unordered_map<const char *, SpanTotals> Totals;
  int64_t OpNs = 0;        ///< wall time of "op.*" roots
  int64_t OpCoveredNs = 0; ///< ... covered by their direct children
};

std::atomic<bool> TracingOn{false};
std::atomic<uint64_t> NextSpanId{1};
const Clock::time_point TraceEpoch = Clock::now();

std::mutex RegistryMutex;
std::vector<std::unique_ptr<ThreadState>> Registry;
/// States of threads that have exited, for the next new thread to take
/// over, so threads started per traffic window share a few trace tracks.
std::vector<ThreadState *> FreeStates;

ThreadState &threadState() {
  struct Owner {
    ThreadState *TS = nullptr;
    Owner() = default;
    Owner(const Owner &) = delete;
    Owner &operator=(const Owner &) = delete;
    ~Owner() {
      if (!TS)
        return;
      std::lock_guard<std::mutex> Lock(RegistryMutex);
      FreeStates.push_back(TS);
    }
  };
  thread_local Owner Mine;
  if (!Mine.TS) {
    std::lock_guard<std::mutex> Lock(RegistryMutex);
    if (!FreeStates.empty()) {
      Mine.TS = FreeStates.back();
      FreeStates.pop_back();
    } else {
      Registry.push_back(std::make_unique<ThreadState>());
      Mine.TS = Registry.back().get();
      Mine.TS->Tid = static_cast<unsigned>(Registry.size());
    }
  }
  return *Mine.TS;
}

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              TraceEpoch)
      .count();
}

bool isOpName(const char *Name) {
  return Name[0] == 'o' && Name[1] == 'p' && Name[2] == '.';
}

std::string categoryOf(const std::string &Name) {
  size_t Dot = Name.find('.');
  return Dot == std::string::npos ? Name : Name.substr(0, Dot);
}

} // namespace

void Tracer::setEnabled(bool On) { TracingOn.store(On); }
bool Tracer::enabled() { return TracingOn.load(std::memory_order_relaxed); }

Span::Span(const char *Name) {
  if (!Tracer::enabled())
    return;
  Active = true;
  ThreadState &TS = threadState();
  uint64_t Id = NextSpanId.fetch_add(1, std::memory_order_relaxed);
  uint64_t Parent = TS.Stack.empty() ? 0 : TS.Stack.back().Id;
  uint64_t Op = TS.Stack.empty() ? Id : TS.Stack.back().Op;
  TS.Stack.push_back(Frame{Name, nowNs(), 0, Id, Parent, Op});
}

Span::~Span() {
  if (!Active)
    return;
  ThreadState &TS = threadState();
  Frame F = TS.Stack.back();
  TS.Stack.pop_back();
  int64_t Dur = nowNs() - F.StartNs;
  SpanTotals &T = TS.Totals[F.Name];
  ++T.Count;
  T.TotalMs += Dur * 1e-6;
  T.SelfMs += (Dur - F.ChildNs) * 1e-6;
  if (!TS.Stack.empty()) {
    TS.Stack.back().ChildNs += Dur;
  } else if (isOpName(F.Name)) {
    TS.OpNs += Dur;
    TS.OpCoveredNs += F.ChildNs;
  }
  if (TS.Events.size() < MaxEventsPerThread)
    TS.Events.push_back(Event{F.Name, F.StartNs, Dur, F.Id, F.Parent, F.Op});
  else
    ++TS.DroppedEvents;
}

std::map<std::string, SpanTotals> Tracer::totals() {
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  std::map<std::string, SpanTotals> Out;
  for (const auto &TS : Registry)
    for (const auto &[Name, T] : TS->Totals) {
      SpanTotals &O = Out[Name];
      O.Count += T.Count;
      O.TotalMs += T.TotalMs;
      O.SelfMs += T.SelfMs;
    }
  return Out;
}

double Tracer::coverage() {
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  int64_t Op = 0, Covered = 0;
  for (const auto &TS : Registry) {
    Op += TS->OpNs;
    Covered += TS->OpCoveredNs;
  }
  return Op > 0 ? static_cast<double>(Covered) / static_cast<double>(Op) : 0;
}

bool Tracer::writeChromeTrace(const std::string &Path,
                              const std::string &Metadata) {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  uint64_t Dropped = 0;
  Out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool First = true;
  char Buf[512];
  for (const auto &TS : Registry) {
    Dropped += TS->DroppedEvents;
    std::snprintf(Buf, sizeof(Buf),
                  "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":%u,\"args\":{\"name\":\"bench-thread-%u\"}}",
                  First ? "" : ",\n", TS->Tid, TS->Tid);
    Out << Buf;
    First = false;
    for (const Event &E : TS->Events) {
      std::snprintf(Buf, sizeof(Buf),
                    ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                    "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                    "\"args\":{\"op\":%llu,\"id\":%llu,\"parent\":%llu}}",
                    E.Name, categoryOf(E.Name).c_str(), E.StartNs * 1e-3,
                    E.DurNs * 1e-3, TS->Tid,
                    static_cast<unsigned long long>(E.Op),
                    static_cast<unsigned long long>(E.Id),
                    static_cast<unsigned long long>(E.Parent));
      Out << Buf;
    }
  }
  Out << "\n],\"otherData\":{" << Metadata << ",\"dropped_spans\":"
      << Dropped << "}}\n";
  return static_cast<bool>(Out);
}

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

std::vector<slp::Workload> perfbench::suiteWorkloads() {
  std::vector<slp::Workload> Suite = slp::standardWorkloads();
  for (slp::Workload &W : slp::predicatedWorkloads())
    Suite.push_back(std::move(W));
  return Suite;
}

void Result::check(bool Ok, const std::string &What) {
  ++Attempted;
  if (Ok)
    return;
  if (++Failed <= 5)
    std::fprintf(stderr, "perfbench: check failed: %s\n", What.c_str());
}

void perfbench::extendForVectorProgram(const slp::PipelineResult &R,
                                       const slp::Kernel &Source,
                                       slp::Environment &Env) {
  for (size_t I = Source.Scalars.size(); I != R.Final.Scalars.size(); ++I)
    Env.addScalarStorage(0);
  for (size_t A = Source.Arrays.size(); A != R.Final.Arrays.size(); ++A)
    Env.addArrayStorage(R.Final.Arrays[A].numElements());
  if (R.LayoutApplied)
    slp::initializeReplicas(R.Final, R.Layout, Env);
}

slp::Environment perfbench::makeVectorEnv(const slp::Kernel &Source,
                                          const slp::PipelineResult &R,
                                          uint64_t Seed) {
  slp::Environment Env(Source, Seed);
  extendForVectorProgram(R, Source, Env);
  return Env;
}

void perfbench::recordHostLayer(Result &R,
                                const std::vector<CalibratedSample> &Samples,
                                const Calibrator &Cal) {
  std::vector<double> Wall;
  for (const CalibratedSample &S : Samples)
    Wall.push_back(S.WallMs);
  R.Layer["op.raw_ms"] = median(Wall);
  double BlockMs = median(Cal.blockMs());
  R.Layer["host.cal_per_s"] = BlockMs > 0 ? 1000.0 / BlockMs : 0;
}

double perfbench::calibratedMedian(const std::vector<CalibratedSample> &V) {
  std::vector<double> C;
  for (const CalibratedSample &S : V)
    C.push_back(S.calibrated());
  return median(C);
}

void perfbench::recordTraceLayer(Result &R,
                                 const std::vector<CalibratedSample> &Baseline,
                                 const std::vector<CalibratedSample> &Traced) {
  double Base = calibratedMedian(Baseline);
  R.Layer["trace.overhead_frac"] =
      Base > 0 ? calibratedMedian(Traced) / Base - 1.0 : 0;
  R.Layer["trace.coverage"] = Tracer::coverage();
}
