//===- perfbench/src/SuiteVerify.cpp - suite_verify workload ----*- C++ -*-===//
//
// The 19-kernel suite compiled back to back on one thread, exactly as
// `slpc` does by default: parse the module, run Global+Layout over it, and
// check every kernel with one equivalence check, all kernels of a module
// sharing one ExecEngine. The operation is one module compile.
//
// The traced run replays checkEquivalence's recipe step by step (compile
// the scalar and vector tapes, seed the two environments from the engine's
// pool, run both, compare) so equivalence time splits into its parts, and
// checks that the replay reaches the same verdict.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "exec/ExecEngine.h"
#include "ir/Interpreter.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "slp/Pipeline.h"

#include <optional>

using namespace perfbench;
using namespace slp;

namespace {

/// slpc's defaults in a Release build, pinned so the environment cannot
/// change what is measured.
PipelineOptions suiteOptions() {
  PipelineOptions P;
  P.Threads = 1;
  P.VerifyKernel = false;
  P.VerifyVector = false;
  P.Exec = ExecEngineKind::Optimized;
  return P;
}

/// What one module compile produced, for the output checks.
struct ModuleOutcome {
  bool Ok = true;
  std::string Error;
  size_t Kernels = 0;
  double ScalarCycles = 0;
  double OptimizedCycles = 0;
  unsigned Vectorized = 0;
  std::vector<bool> Verdicts;
  TimingReport Passes;
  /// Traced compiles: elements (array elements and scalars) the replayed
  /// equivalence checks' environments hold right after the pool seeds them.
  uint64_t ElementsSeeded = 0;
};

/// Distinct elements (array elements and scalars) \p K references: the
/// least an environment for it has to seed.
uint64_t referencedElements(const Kernel &K) {
  std::vector<std::vector<char>> Touched(K.Arrays.size());
  for (size_t A = 0; A != K.Arrays.size(); ++A)
    Touched[A].assign(static_cast<size_t>(K.Arrays[A].numElements()), 0);
  auto Touch = [&](const Operand &Op, const std::vector<int64_t> &Idx) {
    if (Op.isArray())
      Touched[Op.symbol()][static_cast<size_t>(evalArrayOffset(K, Op, Idx))] =
          1;
  };
  forEachIteration(K, [&](const std::vector<int64_t> &Idx) {
    for (unsigned S = 0; S != K.Body.size(); ++S) {
      const Statement &St = K.Body.statement(S);
      Touch(St.lhs(), Idx);
      St.forEachUse([&](const Operand &Op) { Touch(Op, Idx); });
    }
  });
  uint64_t N = K.Scalars.size();
  for (const std::vector<char> &T : Touched)
    for (char C : T)
      N += C;
  return N;
}

/// Elements \p Env holds.
uint64_t elementsOf(const Environment &Env) {
  uint64_t N = Env.numScalars();
  for (unsigned A = 0; A != Env.numArrays(); ++A)
    N += Env.arrayBuffer(A).size();
  return N;
}

/// checkEquivalence's recipe, one layer call per span.
bool replayEquivalence(const Kernel &Source, const PipelineResult &R,
                       uint64_t Seed, ExecEngine &Engine, uint64_t &Seeded) {
  std::optional<CompiledScalarKernel> Scalar;
  std::optional<CompiledVectorKernel> Vector;
  {
    Span S("exec.compile");
    Scalar.emplace(Engine.compileScalar(Source));
    Vector.emplace(Engine.compileVector(R.Final, R.Program));
  }
  // Same order as checkEquivalence: seed and run the reference, then seed
  // (and extend) the candidate and run the vector program.
  EnvironmentPool &Pool = Engine.envPool();
  size_t Mark = Pool.mark();
  Environment *Reference = nullptr;
  Environment *Candidate = nullptr;
  {
    Span S("equiv.seed");
    Reference = &Pool.acquire(Source, Seed);
  }
  Seeded += elementsOf(*Reference);
  {
    Span S("equiv.run");
    Engine.runScalar(*Scalar, *Reference);
  }
  {
    Span S("equiv.seed");
    Candidate = &Pool.acquire(Source, Seed);
    Seeded += elementsOf(*Candidate);
    extendForVectorProgram(R, Source, *Candidate);
  }
  {
    Span S("equiv.run");
    Engine.runVector(*Vector, *Candidate);
  }
  bool Ok;
  {
    Span S("equiv.compare");
    Ok = Candidate->matches(*Reference,
                            static_cast<unsigned>(Source.Scalars.size()),
                            static_cast<unsigned>(Source.Arrays.size()));
  }
  {
    Span S("exec.release");
    Pool.releaseTo(Mark);
    Scalar.reset();
    Vector.reset();
  }
  return Ok;
}

/// One module compile. Untraced it is slpc's sequence of calls; traced it
/// replays the equivalence checks and wraps every layer call in a span.
ModuleOutcome compileModule(const std::string &Text, uint64_t EnvSeed,
                            bool Traced) {
  ModuleOutcome Out;
  std::optional<ModuleParseResult> Parsed;
  {
    Span S("ir.parse");
    Parsed.emplace(parseModule(Text));
  }
  if (!Parsed->succeeded()) {
    Out.Ok = false;
    Out.Error = "suite module failed to parse: " + Parsed->ErrorMessage;
    return Out;
  }
  std::optional<ExecEngine> Engine(std::in_place, ExecEngineKind::Optimized);
  std::optional<ModulePipelineResult> Module;
  {
    Span S("slp.pipeline");
    Module.emplace(runPipelineOverModule(
        Parsed->Kernels, OptimizerKind::GlobalLayout, suiteOptions()));
  }
  Out.Kernels = Parsed->Kernels.size();
  for (size_t I = 0; I != Parsed->Kernels.size(); ++I) {
    const Kernel &K = Parsed->Kernels[I];
    const PipelineResult &R = Module->PerKernel[I];
    bool Ok = R.Simulated;
    if (Ok) {
      if (Traced) {
        Ok = replayEquivalence(K, R, EnvSeed, *Engine, Out.ElementsSeeded);
      } else {
        std::string Error;
        Ok = checkEquivalence(K, R, EnvSeed, &Error, &*Engine);
      }
    }
    Out.Verdicts.push_back(Ok);
    if (!Ok && Out.Ok) {
      Out.Ok = false;
      Out.Error = "kernel '" + K.Name + "' failed its equivalence check";
    }
    Out.Vectorized += R.TransformationApplied;
  }
  Out.ScalarCycles = Module->ScalarCycles;
  Out.OptimizedCycles = Module->OptimizedCycles;
  Out.Passes = Module->PassTimings;
  {
    Span S("exec.release");
    Engine.reset();
    Module.reset();
    Parsed.reset();
  }
  return Out;
}

std::string suiteModuleText() {
  std::string Text;
  for (const Workload &W : suiteWorkloads())
    Text += printKernel(W.TheKernel) + "\n";
  return Text;
}

} // namespace

void perfbench::runSuiteVerify(const Options &O, Result &R) {
  Calibrator Cal(TimeBase::ProcessCpu);

  // Set-up: generate the suite's source text and warm up with one full
  // module compile, whose outputs become the reference for every later
  // compile.
  std::string Text;
  ModuleOutcome Reference;
  measureSetup(R, [&](unsigned) {
    Text = suiteModuleText();
    Reference = compileModule(Text, O.EnvSeed, /*Traced=*/false);
    return true;
  });
  R.check(Reference.Ok, Reference.Error);
  R.check(Reference.Kernels == 19, "the suite module holds " +
                                       std::to_string(Reference.Kernels) +
                                       " kernels, expected 19");

  // The replay must reach checkEquivalence's verdict on every kernel.
  ModuleOutcome Replayed = compileModule(Text, O.EnvSeed, /*Traced=*/true);
  R.check(Replayed.Verdicts == Reference.Verdicts,
          "traced equivalence replay disagrees with checkEquivalence");

  // Set-up compiles record the same span names as the timed ones; per-module
  // layer times subtract what set-up recorded.
  std::map<std::string, SpanTotals> SetupSpans = Tracer::totals();
  std::vector<ModuleOutcome> TracedOutcomes;
  std::vector<CalibratedSample> Samples;
  measurePhases(O, Cal, R, Samples, [&](bool Traced) {
    ModuleOutcome M;
    {
      Span S("op.suite_verify");
      M = compileModule(Text, O.EnvSeed, Traced);
    }
    R.check(M.Ok && M.Verdicts == Reference.Verdicts &&
                M.ScalarCycles == Reference.ScalarCycles &&
                M.OptimizedCycles == Reference.OptimizedCycles &&
                M.Vectorized == Reference.Vectorized &&
                M.ElementsSeeded == (Traced ? Replayed.ElementsSeeded : 0),
            M.Ok ? "module compile diverged from the set-up reference"
                 : M.Error);
    if (Traced)
      TracedOutcomes.push_back(std::move(M));
    return 1.0;
  });

  // Deterministic outputs: the cost model's verdict over the module, and
  // the elements the set-up replay's environments held after seeding
  // against the elements the kernels reference (two environments per
  // check, so each kernel's footprint counts twice).
  uint64_t Referenced = 0;
  for (const Workload &W : suiteWorkloads())
    Referenced += 2 * referencedElements(W.TheKernel);
  R.Deterministic["suite.predicted_speedup"] =
      Reference.ScalarCycles / Reference.OptimizedCycles;
  R.Deterministic["pipeline.kernels_vectorized"] = Reference.Vectorized;
  R.Deterministic["equiv.elements_seeded"] =
      static_cast<double>(Replayed.ElementsSeeded);
  R.Deterministic["equiv.useful_frac"] =
      Replayed.ElementsSeeded ? static_cast<double>(Referenced) /
                                    static_cast<double>(Replayed.ElementsSeeded)
                              : 0;
  if (!O.Trace)
    return;

  for (const auto &[Name, Value] : R.Deterministic)
    R.Layer[Name] = Value;
  std::vector<double> RawMs;
  for (const CalibratedSample &S : Samples)
    RawMs.push_back(S.WallMs);
  R.Layer["suite_compile_tail_ms"] = tailValue(RawMs);

  double Modules = static_cast<double>(TracedOutcomes.size());
  std::map<std::string, SpanTotals> Totals = Tracer::totals();
  auto PerModule = [&](const char *Span) {
    return Modules > 0
               ? (Totals[Span].TotalMs - SetupSpans[Span].TotalMs) / Modules
               : 0;
  };
  R.Layer["ir.parse_ms"] = PerModule("ir.parse");
  R.Layer["exec.compile_ms"] = PerModule("exec.compile");
  R.Layer["equiv.seed_ms"] = PerModule("equiv.seed");
  R.Layer["equiv.run_ms"] = PerModule("equiv.run");
  R.Layer["equiv.compare_ms"] = PerModule("equiv.compare");
  for (const char *Pass : PassNames) {
    double Ms = 0;
    for (const ModuleOutcome &M : TracedOutcomes)
      Ms += 1000 * M.Passes.secondsFor(Pass);
    R.Layer[std::string("pass.") + Pass + "_ms"] =
        Modules > 0 ? Ms / Modules : 0;
  }
}
