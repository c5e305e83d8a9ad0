//===- perfbench/src/ServiceMix.cpp - service_mix workload ------*- C++ -*-===//
//
// An in-process ServiceServer on a private Unix socket with two server
// workers, driven by two client connections in a closed loop. Requests
// carry 1 or 8 kernels drawn from the 19 suite kernels under 4 option
// blocks (intel/amd x global/global+layout): 76 cache keys. Set-up boots
// the server and compiles all 76 keys cold; the memory tier holds fewer
// entries than that, so the timed traffic is all hits, a fixed share of
// them from the disk tier. The operation is one kernel answered.
//
// Every served artifact is compared byte for byte with
// compileServiceArtifact's output for its key. The traced run replays the
// server's per-kernel layer calls from the client side (protocol encode and
// decode, the parse/verify/print precheck, and cache lookups on a probe
// cache over the server's disk directory) so their costs are measured.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "analysis/KernelVerifier.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "service/ArtifactCache.h"
#include "service/Client.h"
#include "service/Server.h"
#include "support/Rng.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>

using namespace perfbench;
using namespace slp;

namespace {

constexpr unsigned Clients = 2;
constexpr unsigned ServerWorkers = 2;
/// Below the 76 keys, so a fixed share of the traffic hits the disk tier.
constexpr size_t MemoryEntries = 48;
constexpr double WindowMs = 100;
/// Traced runs replay the server's layer calls for one request in this
/// many, which bounds how much the replays slow the traffic.
constexpr unsigned ReplayEvery = 8;

/// The 19 kernel texts, the 4 option blocks, and the expected artifact of
/// every (block, kernel) key.
struct Keyspace {
  std::vector<std::string> Texts;
  std::vector<ServiceOptions> Blocks;
  std::vector<std::vector<std::string>> Expected; ///< [block][kernel]

  size_t keys() const { return Texts.size() * Blocks.size(); }
};

Keyspace makeKeyspace() {
  Keyspace KS;
  for (const Workload &W : suiteWorkloads())
    KS.Texts.push_back(printKernel(W.TheKernel));
  for (ServiceMachine M : {ServiceMachine::Intel, ServiceMachine::Amd})
    for (OptimizerKind K : {OptimizerKind::Global, OptimizerKind::GlobalLayout}) {
      ServiceOptions O;
      O.Machine = M;
      O.Kind = K;
      KS.Blocks.push_back(O);
    }
  return KS;
}

/// The output oracle: compileServiceArtifact for every key, on the
/// server's canonical printing of the kernel. Not part of set-up time.
/// Serial, like the cold requests, so the process's peak memory (one
/// equivalence check's environments at a time) is the same in every run.
bool computeExpected(Keyspace &KS, std::string &Error) {
  KS.Expected.assign(KS.Blocks.size(),
                     std::vector<std::string>(KS.Texts.size()));
  for (size_t B = 0; B != KS.Blocks.size(); ++B)
    for (size_t K = 0; K != KS.Texts.size(); ++K) {
      ParseResult Parsed = parseKernel(KS.Texts[K]);
      std::string Err;
      if (!Parsed.succeeded() ||
          !compileServiceArtifact(printKernel(*Parsed.TheKernel), KS.Blocks[B],
                                  KS.Expected[B][K], &Err)) {
        Error = "compileServiceArtifact failed on kernel " +
                std::to_string(K) + ": " + Err;
        return false;
      }
    }
  return true;
}

/// Per-kernel check of a reply against the expected artifacts.
struct CheckTally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  uint64_t MemoryHits = 0;
  /// Disk-tier loads, including requests that waited on a concurrent
  /// load of the same key (CacheStatus::Coalesced).
  uint64_t DiskHits = 0;
  std::string FirstError;

  void fail(const std::string &E) {
    ++Failed;
    if (FirstError.empty())
      FirstError = E;
  }
};

void checkReply(const Keyspace &KS, unsigned Block,
                const std::vector<unsigned> &Kernels, bool RoundTripOk,
                const std::string &Err, const ServiceReply &Reply,
                bool ExpectHit, CheckTally &T) {
  T.Attempted += Kernels.size();
  if (!RoundTripOk || !Reply.Ok || Reply.Results.size() != Kernels.size()) {
    T.Failed += Kernels.size();
    if (T.FirstError.empty())
      T.FirstError = "request failed: " + (Err.empty() ? Reply.Error : Err);
    return;
  }
  for (size_t I = 0; I != Kernels.size(); ++I) {
    const ServiceResult &Res = Reply.Results[I];
    bool Hit = Res.Status != CacheStatus::Miss;
    T.MemoryHits += Res.Status == CacheStatus::MemoryHit;
    T.DiskHits += Res.Status == CacheStatus::DiskHit ||
                  Res.Status == CacheStatus::Coalesced;
    if (Hit != ExpectHit)
      T.fail(std::string("unexpected cache status ") +
             cacheStatusName(Res.Status));
    else if (Res.Artifact != KS.Expected[Block][Kernels[I]])
      T.fail("served artifact differs from compileServiceArtifact for "
             "kernel " +
             std::to_string(Kernels[I]));
  }
}

ServiceRequest makeRequest(const Keyspace &KS, unsigned Block,
                           const std::vector<unsigned> &Kernels) {
  ServiceRequest Req;
  Req.Options = KS.Blocks[Block];
  for (unsigned K : Kernels)
    Req.Kernels.push_back(KS.Texts[K]);
  return Req;
}

/// Client-side replays of the server's layer calls (traced phase only).
struct ReplayTally {
  uint64_t Kernels = 0;
  double PrecheckMs = 0;
  uint64_t MemLookups = 0, DiskLookups = 0;
  double MemLookupMs = 0, DiskLookupMs = 0;
  std::vector<double> RoundTripUs;
};

void replayLayers(const ServiceRequest &Req, const ServiceReply &Reply,
                  ArtifactCache &Probe, ReplayTally &T) {
  Span Root("svc.replay");
  {
    Span S("svc.proto");
    ServiceRequest ReqBack;
    ServiceReply ReplyBack;
    std::string Err;
    parseRequest(serializeRequest(Req), ReqBack, &Err);
    parseReply(serializeReply(Reply), ReplyBack, &Err);
  }
  std::vector<std::string> Canonical;
  {
    Span S("svc.precheck");
    Clock::time_point T0 = Clock::now();
    for (const std::string &Text : Req.Kernels) {
      ParseResult Parsed = parseKernel(Text);
      if (!Parsed.succeeded())
        continue;
      verifyKernel(*Parsed.TheKernel);
      Canonical.push_back(printKernel(*Parsed.TheKernel));
    }
    T.PrecheckMs += msSince(T0);
    T.Kernels += Req.Kernels.size();
  }
  Span S("svc.lookup");
  for (const std::string &Text : Canonical) {
    std::string Material = artifactKeyMaterial(Text, Req.Options);
    CacheStatus Status = CacheStatus::Miss;
    Clock::time_point T0 = Clock::now();
    Probe.lookup(Material, Status);
    double Ms = msSince(T0);
    if (Status == CacheStatus::MemoryHit) {
      ++T.MemLookups;
      T.MemLookupMs += Ms;
    } else if (Status == CacheStatus::DiskHit) {
      ++T.DiskLookups;
      T.DiskLookupMs += Ms;
    }
  }
}

/// One client connection and its seeded request stream.
struct ClientState {
  std::optional<ServiceClient> Conn;
  Rng Stream;
  CheckTally Checks;
  ReplayTally Replay;
  uint64_t Kernels = 0; ///< kernels answered in the current window
  uint64_t Requests = 0;

  explicit ClientState(uint64_t Seed) : Stream(Seed) {}
};

/// Runs closed-loop requests on \p C until \p Deadline.
void driveClient(const Keyspace &KS, ClientState &C, Clock::time_point Deadline,
                 bool Traced, ArtifactCache &Probe) {
  std::vector<unsigned> Order(KS.Texts.size());
  do {
    unsigned Batch = C.Stream.nextBelow(2) ? 8 : 1;
    unsigned Block = static_cast<unsigned>(C.Stream.nextBelow(KS.Blocks.size()));
    for (unsigned I = 0; I != Order.size(); ++I)
      Order[I] = I;
    std::vector<unsigned> Kernels;
    for (unsigned I = 0; I != Batch; ++I) {
      unsigned J = I + static_cast<unsigned>(
                           C.Stream.nextBelow(Order.size() - I));
      std::swap(Order[I], Order[J]);
      Kernels.push_back(Order[I]);
    }
    ServiceRequest Req = makeRequest(KS, Block, Kernels);
    ServiceReply Reply;
    std::string Err;
    {
      Span Op("op.service_mix");
      bool Ok;
      {
        Span S("svc.roundtrip");
        Clock::time_point T0 = Clock::now();
        Ok = C.Conn->roundTrip(Req, Reply, &Err);
        if (Traced)
          C.Replay.RoundTripUs.push_back(1000 * msSince(T0));
      }
      Span S("svc.check");
      checkReply(KS, Block, Kernels, Ok, Err, Reply, /*ExpectHit=*/true,
                 C.Checks);
    }
    C.Kernels += Batch;
    if (Traced && ++C.Requests % ReplayEvery == 0)
      replayLayers(Req, Reply, Probe, C.Replay);
  } while (Clock::now() < Deadline);
}

/// Runs one traffic window of \p Ms, one thread per client; returns the
/// kernels answered.
double window(const Keyspace &KS, std::vector<ClientState> &Clients,
              ArtifactCache &Probe, double Ms, bool Traced) {
  Clock::time_point Deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(Ms));
  std::vector<std::thread> Threads;
  for (ClientState &C : Clients)
    Threads.emplace_back(
        [&, Deadline] { driveClient(KS, C, Deadline, Traced, Probe); });
  for (std::thread &T : Threads)
    T.join();
  double Kernels = 0;
  for (ClientState &C : Clients) {
    Kernels += static_cast<double>(C.Kernels);
    C.Kernels = 0;
  }
  return Kernels;
}

ServerConfig serverConfig(unsigned Round) {
  ServerConfig C;
  C.SocketPath = "svc" + std::to_string(Round) + ".sock";
  C.Threads = ServerWorkers;
  C.Cache.DiskDir = "svc" + std::to_string(Round) + "-cache";
  C.Cache.MaxMemoryEntries = MemoryEntries;
  return C;
}

} // namespace

void perfbench::runServiceMix(const Options &O, Result &R) {
  Calibrator Cal(TimeBase::ProcessCpu);
  Keyspace KS = makeKeyspace();
  std::string Error;
  if (!computeExpected(KS, Error)) {
    R.check(false, Error);
    return;
  }

  // Set-up: boot a server over an empty cache directory, compile all 76
  // keys cold, then warm up with one hit per key. One kernel per set-up
  // request keeps the cold compiles serial, so peak memory repeats. The
  // last round's server takes the timed traffic.
  std::unique_ptr<ServiceServer> Server;
  std::vector<double> ColdMs;
  CheckTally SetupChecks;
  bool SetUp = measureSetup(R, [&](unsigned Round) {
    Server.reset();
    ServerConfig Config = serverConfig(Round);
    std::filesystem::remove_all(Config.Cache.DiskDir); // a cold cache
    Server = std::make_unique<ServiceServer>(Config);
    if (!Server->start(&Error)) {
      R.check(false, "server did not start: " + Error);
      return false;
    }
    std::optional<ServiceClient> Conn =
        ServiceClient::connect(Server->config().SocketPath, &Error);
    if (!Conn) {
      R.check(false, "cannot connect to the server: " + Error);
      return false;
    }
    for (bool Warm : {false, true})
      for (unsigned B = 0; B != KS.Blocks.size(); ++B)
        for (unsigned K = 0; K != KS.Texts.size(); ++K) {
          std::vector<unsigned> Kernels = {K};
          ServiceRequest Req = makeRequest(KS, B, Kernels);
          ServiceReply Reply;
          Span S(Warm ? "svc.warm_req" : "svc.cold_req");
          Clock::time_point R0 = Clock::now();
          bool Ok = Conn->roundTrip(Req, Reply, &Error);
          if (!Warm)
            ColdMs.push_back(msSince(R0));
          checkReply(KS, B, Kernels, Ok, Error, Reply, Warm, SetupChecks);
        }
    return true;
  });
  if (!SetUp)
    return;
  R.check(SetupChecks.Failed == 0,
          "set-up traffic: " + SetupChecks.FirstError);

  std::vector<ClientState> ClientStates;
  for (unsigned I = 0; I != Clients; ++I) {
    ClientStates.emplace_back(splitmix64(O.MixSeed + I));
    ClientStates.back().Conn =
        ServiceClient::connect(Server->config().SocketPath, &Error);
    if (!ClientStates.back().Conn) {
      R.check(false, "cannot connect to the server: " + Error);
      return;
    }
  }
  ArtifactCacheConfig ProbeConfig = Server->config().Cache;
  ArtifactCache Probe(ProbeConfig);

  std::vector<CalibratedSample> Samples;
  measurePhases(O, Cal, R, Samples, [&](bool Traced) {
    return window(KS, ClientStates, Probe, WindowMs, Traced);
  });

  CheckTally All;
  ReplayTally Replay;
  for (ClientState &C : ClientStates) {
    All.Attempted += C.Checks.Attempted;
    All.Failed += C.Checks.Failed;
    All.MemoryHits += C.Checks.MemoryHits;
    All.DiskHits += C.Checks.DiskHits;
    if (All.FirstError.empty())
      All.FirstError = C.Checks.FirstError;
    Replay.Kernels += C.Replay.Kernels;
    Replay.PrecheckMs += C.Replay.PrecheckMs;
    Replay.MemLookups += C.Replay.MemLookups;
    Replay.DiskLookups += C.Replay.DiskLookups;
    Replay.MemLookupMs += C.Replay.MemLookupMs;
    Replay.DiskLookupMs += C.Replay.DiskLookupMs;
    Replay.RoundTripUs.insert(Replay.RoundTripUs.end(),
                              C.Replay.RoundTripUs.begin(),
                              C.Replay.RoundTripUs.end());
  }
  R.Attempted += All.Attempted;
  R.Failed += All.Failed;
  if (All.Failed)
    std::fprintf(stderr, "perfbench: timed traffic: %llu failed kernel(s), "
                 "first: %s\n",
                 static_cast<unsigned long long>(All.Failed),
                 All.FirstError.c_str());
  ClientStates.clear();
  Server->stop();

  // Deterministic: the mean size of a one-kernel reply over all 76 keys.
  double ReplyBytes = 0;
  for (const std::vector<std::string> &Block : KS.Expected)
    for (const std::string &Artifact : Block) {
      ServiceReply One;
      One.Ok = true;
      One.Results.push_back(ServiceResult{CacheStatus::MemoryHit, Artifact});
      ReplyBytes += static_cast<double>(serializeReply(One).size());
    }
  R.Deterministic["svc.reply_bytes_per_kernel"] =
      ReplyBytes / static_cast<double>(KS.keys());
  R.Layer["svc.disk_hit_frac"] =
      static_cast<double>(All.DiskHits) /
      static_cast<double>(std::max<uint64_t>(1, All.MemoryHits + All.DiskHits));
  if (!O.Trace)
    return;

  R.Layer["svc.reply_bytes_per_kernel"] =
      R.Deterministic["svc.reply_bytes_per_kernel"];
  R.Layer["svc.cold_req_ms"] = median(ColdMs);
  R.Layer["svc.req_p50_us"] = median(Replay.RoundTripUs);
  R.Layer["svc.req_tail_us"] = tailValue(Replay.RoundTripUs);
  std::map<std::string, SpanTotals> Totals = Tracer::totals();
  const SpanTotals &Proto = Totals["svc.proto"];
  R.Layer["svc.proto_us"] =
      Proto.Count ? 1000 * Proto.TotalMs / static_cast<double>(Proto.Count)
                  : 0;
  auto PerUs = [](double Ms, uint64_t N) {
    return N ? 1000 * Ms / static_cast<double>(N) : 0;
  };
  R.Layer["svc.precheck_us"] = PerUs(Replay.PrecheckMs, Replay.Kernels);
  R.Layer["svc.mem_lookup_us"] = PerUs(Replay.MemLookupMs, Replay.MemLookups);
  R.Layer["svc.disk_lookup_us"] =
      PerUs(Replay.DiskLookupMs, Replay.DiskLookups);
}
