//===- perfbench/src/NativeExec.cpp - native_exec workload ------*- C++ -*-===//
//
// The only workload that runs generated code. Set-up compiles the 19 suite
// kernels with Global (cost guard off, so every kernel has a vector program
// to measure), emits each kernel's scalar baseline and vector program as C,
// and host-compiles them into a private object cache. The timed loop then
// calls the kernels round-robin, each kernel's scalar and vector batches
// back to back (alternating which goes first), through a native
// ExecEngine. The operation is one vector-program call; the measured
// speedup of each kernel is the median ratio of its interleaved pairs.
//
// Before timing, every kernel's native scalar and vector results must be
// bit-identical to the Reference engine's from the same seeded
// environment, with no native fallback.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "exec/ExecEngine.h"
#include "native/CEmitter.h"
#include "native/NativeBackend.h"
#include "slp/Pipeline.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <thread>

using namespace perfbench;
using namespace slp;

namespace {

/// Kernel-loop iterations per timed batch, so every batch lasts long
/// enough to time; the repetition count is a property of the kernel only.
constexpr int64_t IterationsPerBatch = 1 << 15;
constexpr unsigned CompileThreads = 4;

PipelineOptions nativeOptions(bool CostGuard) {
  PipelineOptions P;
  P.CostModelGuard = CostGuard;
  P.Threads = 1;
  P.VerifyKernel = false;
  P.VerifyVector = false;
  P.Exec = ExecEngineKind::Native;
  return P;
}

/// One set-up: pipelines, emitted C, host-compiled objects, and the
/// native engine's compiled kernels.
struct NativeSetup {
  std::vector<Workload> Suite;
  ModulePipelineResult Compiled; ///< cost guard off
  std::vector<bool> Accepted;    ///< the cost guard would vectorize
  std::vector<std::string> Sources; ///< [2k] scalar, [2k+1] vector C
  std::vector<double> EmitMs, CompileMs, LoadMs;
  std::unique_ptr<ExecEngine> Engine;
  std::vector<CompiledScalarKernel> Scalar;
  std::vector<CompiledVectorKernel> Vector;
  std::string Error;
};

/// compileNativeTU over every source on a small pool; per-TU wall times.
bool compileAll(const std::vector<std::string> &Sources,
                std::vector<double> &Ms, std::string &Error) {
  Ms.assign(Sources.size(), 0);
  std::vector<std::string> Errors(Sources.size());
  std::atomic<size_t> Next{0};
  auto Worker = [&] {
    for (size_t I = Next.fetch_add(1); I < Sources.size();
         I = Next.fetch_add(1)) {
      Span S("native.cc");
      Clock::time_point T0 = Clock::now();
      NativeCompileResult C =
          compileNativeTU(Sources[I], /*ScalarBaseline=*/I % 2 == 0);
      Ms[I] = msSince(T0);
      if (!C.Object)
        Errors[I] = C.Error.empty() ? "no object" : C.Error;
    }
  };
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T != CompileThreads; ++T)
    Pool.emplace_back(Worker);
  for (std::thread &T : Pool)
    T.join();
  for (const std::string &E : Errors)
    if (!E.empty()) {
      Error = "host compile failed: " + E;
      return false;
    }
  return true;
}

bool setUp(NativeSetup &S, unsigned Round) {
  // A fresh private object cache per round, so every round pays for its
  // host compiles.
  std::string Dir = "native" + std::to_string(Round);
  std::filesystem::remove_all(Dir);
  ::setenv("SLP_NATIVE_CACHE_DIR", Dir.c_str(), 1);
  nativeClearMemoryCacheForTesting();

  S.Suite = suiteWorkloads();
  std::vector<Kernel> Kernels;
  for (const Workload &W : S.Suite)
    Kernels.push_back(W.TheKernel.clone());
  {
    Span Sp("slp.pipeline");
    S.Compiled = runPipelineOverModule(Kernels, OptimizerKind::Global,
                                       nativeOptions(false));
    ModulePipelineResult Guarded = runPipelineOverModule(
        Kernels, OptimizerKind::Global, nativeOptions(true));
    for (const PipelineResult &R : Guarded.PerKernel)
      S.Accepted.push_back(R.TransformationApplied);
  }
  for (size_t K = 0; K != Kernels.size(); ++K) {
    const PipelineResult &R = S.Compiled.PerKernel[K];
    if (!R.TransformationApplied) {
      S.Error = "kernel '" + Kernels[K].Name + "' has no vector program";
      return false;
    }
    Span Sp("native.emit");
    Clock::time_point T0 = Clock::now();
    S.Sources.push_back(emitScalarKernelC(S.Suite[K].TheKernel));
    S.Sources.push_back(emitVectorProgramC(R.Final, R.Program));
    S.EmitMs.push_back(msSince(T0) / 2);
  }

  // Cold: host compile + load. Then forget the loaded objects and load
  // them again from the disk cache, which times the load alone.
  if (!compileAll(S.Sources, S.CompileMs, S.Error))
    return false;
  nativeClearMemoryCacheForTesting();
  S.LoadMs.assign(S.Sources.size(), 0);
  for (size_t I = 0; I != S.Sources.size(); ++I) {
    Span Sp("native.load");
    Clock::time_point T0 = Clock::now();
    NativeCompileResult C = compileNativeTU(S.Sources[I], I % 2 == 0);
    S.LoadMs[I] = msSince(T0);
    if (!C.Object || !C.CacheHit) {
      S.Error = "reloading a cached object failed: " + C.Error;
      return false;
    }
  }

  // The engine's lowerings now hit the in-process object map.
  S.Engine = std::make_unique<ExecEngine>(ExecEngineKind::Native);
  for (size_t K = 0; K != Kernels.size(); ++K) {
    const PipelineResult &R = S.Compiled.PerKernel[K];
    S.Scalar.push_back(S.Engine->compileScalar(S.Suite[K].TheKernel));
    S.Vector.push_back(S.Engine->compileVector(R.Final, R.Program));
  }
  if (S.Engine->counters().NativeFallbacks != 0) {
    S.Error = "native lowering fell back to the tape: " +
              S.Engine->nativeDiagnostic();
    return false;
  }
  return true;
}

/// Native results must be bit-identical to the Reference engine's.
void checkAgainstReference(NativeSetup &S, uint64_t Seed, Result &Res) {
  ExecEngine Ref(ExecEngineKind::Reference);
  for (size_t K = 0; K != S.Suite.size(); ++K) {
    const Kernel &Src = S.Suite[K].TheKernel;
    const PipelineResult &R = S.Compiled.PerKernel[K];
    Environment RefEnv(Src, Seed), NatEnv(Src, Seed);
    ScalarExecStats RS = Ref.runKernel(Src, RefEnv);
    ScalarExecStats NS = S.Engine->runScalar(S.Scalar[K], NatEnv);
    Res.check(NatEnv.matches(RefEnv, static_cast<unsigned>(Src.Scalars.size()),
                             static_cast<unsigned>(Src.Arrays.size())) &&
                  RS.totalInstructions() == NS.totalInstructions(),
              "native scalar run of '" + Src.Name +
                  "' differs from the Reference engine");
    Environment RefVec = makeVectorEnv(Src, R, Seed);
    Environment NatVec = makeVectorEnv(Src, R, Seed);
    Ref.runProgram(R.Final, R.Program, RefVec);
    S.Engine->runVector(S.Vector[K], NatVec);
    Res.check(NatVec.matches(RefVec,
                             static_cast<unsigned>(R.Final.Scalars.size()),
                             static_cast<unsigned>(R.Final.Arrays.size())),
              "native vector run of '" + Src.Name +
                  "' differs from the Reference engine");
  }
  Res.check(S.Engine->counters().NativeFallbacks == 0,
            "native engine fell back to the tape");
}

} // namespace

void perfbench::runNativeExec(const Options &O, Result &R) {
  Calibrator Cal(TimeBase::Wall);
  std::string Why;
  if (!nativeBackendAvailable(&Why)) {
    R.check(false, "native backend unavailable: " + Why);
    return;
  }

  std::unique_ptr<NativeSetup> S;
  bool SetUp = measureSetup(R, [&](unsigned Round) {
    S.reset();
    S = std::make_unique<NativeSetup>();
    if (setUp(*S, Round))
      return true;
    R.check(false, S->Error);
    return false;
  });
  if (!SetUp)
    return;
  checkAgainstReference(*S, O.EnvSeed, R);

  const size_t N = S->Suite.size();
  std::vector<Environment> ScalarEnv, VectorEnv;
  std::vector<unsigned> Reps;
  for (size_t K = 0; K != N; ++K) {
    const Kernel &Src = S->Suite[K].TheKernel;
    ScalarEnv.emplace_back(Src, O.EnvSeed);
    VectorEnv.push_back(makeVectorEnv(Src, S->Compiled.PerKernel[K], O.EnvSeed));
    int64_t Iters = std::max<int64_t>(1, Src.totalIterations());
    Reps.push_back(static_cast<unsigned>(
        std::max<int64_t>(1, IterationsPerBatch / Iters)));
  }

  // Per kernel, per round: nanoseconds per call of each side.
  std::vector<std::vector<double>> ScalarNs(N), VectorNs(N);
  size_t Offset = static_cast<size_t>(O.Seed % N);
  uint64_t Rounds = 0;
  ExecEngine &Engine = *S->Engine;
  std::vector<CalibratedSample> Samples;
  measurePhases(O, Cal, R, Samples, [&](bool) {
    Span Op("op.native_exec");
    bool VectorFirst = Rounds++ % 2;
    for (size_t I = 0; I != N; ++I) {
      size_t K = (I + Offset) % N;
      double Ns[2];
      for (int Side = 0; Side != 2; ++Side) {
        bool Vec = (Side == 0) == VectorFirst;
        Span Call(Vec ? "native.call_vector" : "native.call_scalar");
        Clock::time_point T0 = Clock::now();
        if (Vec)
          for (unsigned Rep = 0; Rep != Reps[K]; ++Rep)
            Engine.runVector(S->Vector[K], VectorEnv[K]);
        else
          for (unsigned Rep = 0; Rep != Reps[K]; ++Rep)
            Engine.runScalar(S->Scalar[K], ScalarEnv[K]);
        Ns[Vec] = 1e6 * msSince(T0) / Reps[K];
      }
      ScalarNs[K].push_back(Ns[0]);
      VectorNs[K].push_back(Ns[1]);
    }
    return 1.0;
  });
  R.check(Engine.counters().NativeFallbacks == 0,
          "native engine fell back to the tape during the timed loop");

  // The operation is one vector call: per kernel, the median over rounds
  // of its per-call time divided by the round's calibration; op_ms is the
  // geometric mean over kernels, so every kernel weighs the same.
  std::vector<double> CalVector, ScalarMed, VectorMed, Speedup, ModelError;
  std::vector<double> PerKernelSpeedup(N);
  unsigned AcceptedSlower = 0;
  for (size_t K = 0; K != N; ++K) {
    std::vector<double> CalMs, Ratio;
    for (size_t I = 0; I != VectorNs[K].size(); ++I) {
      CalMs.push_back(1e-6 * VectorNs[K][I] / Samples[I].CalMs);
      Ratio.push_back(ScalarNs[K][I] / VectorNs[K][I]);
    }
    CalVector.push_back(median(CalMs));
    ScalarMed.push_back(median(ScalarNs[K]));
    VectorMed.push_back(median(VectorNs[K]));
    PerKernelSpeedup[K] = median(Ratio);
    Speedup.push_back(PerKernelSpeedup[K]);
    const PipelineResult &PR = S->Compiled.PerKernel[K];
    ModelError.push_back(PR.ScalarSim.Cycles / PR.VectorSim.Cycles /
                         PerKernelSpeedup[K]);
    AcceptedSlower += S->Accepted[K] && PerKernelSpeedup[K] < 1.0;
  }
  if (!O.Trace)
    R.EndToEnd["op_ms"] = geomean(CalVector);
  R.Layer["native.speedup_geomean"] = geomean(Speedup);
  if (!O.Trace)
    return;

  R.Layer["native.scalar_ns_geomean"] = geomean(ScalarMed);
  R.Layer["native.vector_ns_geomean"] = geomean(VectorMed);
  R.Layer["native.accepted_slower"] = AcceptedSlower;
  R.Layer["native.model_error_geomean"] = geomean(ModelError);
  for (size_t K = 0; K != N; ++K)
    R.Layer["native.speedup." + S->Suite[K].Name] = PerKernelSpeedup[K];
  std::vector<double> Cc;
  for (size_t I = 0; I != S->CompileMs.size(); ++I)
    Cc.push_back(S->CompileMs[I] - S->LoadMs[I]);
  R.Layer["native.emit_ms"] = mean(S->EmitMs);
  R.Layer["native.cc_ms"] = mean(Cc);
  R.Layer["native.load_ms"] = mean(S->LoadMs);
}
