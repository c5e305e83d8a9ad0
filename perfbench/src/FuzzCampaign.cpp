//===- perfbench/src/FuzzCampaign.cpp - fuzz_campaign workload --*- C++ -*-===//
//
// runFuzzer at a fixed seed and a fixed iteration count, with the default
// oracles (schedule verifier, equivalence, static translation validation,
// value ranges, engine cross-checks), an in-memory corpus and the native
// cross-check off. The same campaign repeats back to back, so every sample
// is identical work; the operation is one fuzz iteration.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "fuzz/Fuzzer.h"

#include <algorithm>
#include <optional>

using namespace perfbench;
using namespace slp;

namespace {

FuzzConfig campaignConfig(uint64_t Seed, uint64_t Iterations) {
  FuzzConfig C;
  C.Seed = Seed;
  C.Iterations = Iterations;
  C.CorpusDir.clear();
  C.Exec = ExecEngineKind::Optimized;
  C.Native = false;
  return C;
}

/// Every failure and disagreement counter a clean campaign keeps at zero.
std::string campaignProblems(const FuzzOutcome &Out) {
  const FuzzStats &S = Out.Stats;
  std::string P;
  auto Add = [&](const char *Name, uint64_t V) {
    if (V)
      P += std::string(P.empty() ? "" : ", ") + Name + "=" + std::to_string(V);
  };
  Add("failures", Out.Failures.size());
  Add("verifier_failures", S.VerifierFailures);
  Add("equivalence_failures", S.EquivalenceFailures);
  Add("determinism_failures", S.DeterminismFailures);
  Add("oracle_disagreements", S.OracleDisagreements);
  Add("engine_disagreements", S.EngineDisagreements);
  Add("exec_disagreements", S.ExecDisagreements);
  Add("native_disagreements", S.NativeDisagreements);
  Add("range_violations", S.RangeViolations);
  return P;
}

double fraction(uint64_t Part, uint64_t Whole) {
  return Whole ? static_cast<double>(Part) / static_cast<double>(Whole) : 0;
}

} // namespace

void perfbench::runFuzzCampaign(const Options &O, Result &R) {
  Calibrator Cal(TimeBase::ProcessCpu);
  FuzzConfig Config = campaignConfig(O.FuzzSeed, O.FuzzIterations);

  // Set-up: one short warm-up campaign at another seed (first-touch of the
  // allocator, workload tables and code).
  measureSetup(R, [&](unsigned) {
    FuzzOutcome Warm = runFuzzer(campaignConfig(O.FuzzSeed + 1000003, 8));
    std::string P = campaignProblems(Warm);
    R.check(P.empty(), "warm-up campaign: " + P);
    return true;
  });

  std::optional<FuzzStats> First;
  FuzzTimings TracedTimings;
  uint64_t TracedIterations = 0;
  std::vector<CalibratedSample> Samples;
  measurePhases(O, Cal, R, Samples, [&](bool Traced) {
    FuzzOutcome Out;
    {
      Span Op("op.fuzz_campaign");
      Span S("fuzz.run");
      Out = runFuzzer(Config);
    }
    std::string P = campaignProblems(Out);
    R.check(P.empty(), "fuzz campaign: " + P);
    // The campaign is the same work every time: its counters must repeat.
    if (!First)
      First = Out.Stats;
    R.check(Out.Stats.PipelineRuns == First->PipelineRuns &&
                Out.Stats.Iterations == First->Iterations,
            "a repeated fuzz campaign did different work");
    if (Traced) {
      TracedTimings.MutateSeconds += Out.Stats.Timings.MutateSeconds;
      TracedTimings.CompileSeconds += Out.Stats.Timings.CompileSeconds;
      TracedTimings.ExecuteSeconds += Out.Stats.Timings.ExecuteSeconds;
      TracedIterations += Out.Stats.Iterations;
    }
    return static_cast<double>(Out.Stats.Iterations);
  });

  if (First) {
    R.Deterministic["fuzz.pipeline_runs"] =
        static_cast<double>(First->PipelineRuns);
    R.Deterministic["fuzz.env_reuse_frac"] =
        fraction(First->EnvReuses, First->EnvReuses + First->EnvConstructions);
    R.Deterministic["fuzz.mutant_accept_frac"] =
        fraction(First->MutationsApplied,
                 First->MutationsApplied + First->MutantsRejected);
  }
  if (!O.Trace)
    return;
  for (const auto &[Name, Value] : R.Deterministic)
    R.Layer[Name] = Value;
  double Iters = static_cast<double>(std::max<uint64_t>(1, TracedIterations));
  R.Layer["fuzz.mutate_ms"] = 1000 * TracedTimings.MutateSeconds / Iters;
  R.Layer["fuzz.compile_ms"] = 1000 * TracedTimings.CompileSeconds / Iters;
  R.Layer["fuzz.execute_ms"] = 1000 * TracedTimings.ExecuteSeconds / Iters;
}
