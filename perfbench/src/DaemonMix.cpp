//===- DaemonMix.cpp - Workload daemon_mix: asdfd, wire line to response --===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A real Server on a unix socket (workers = nproc) under a closed loop:
/// nproc client threads each own one ServiceClient connection and wait for
/// every reply before sending the next request. The seeded request stream:
///
///   - ~45% compiles of a hot set — the §8.1 programs at N=4..12 (Grover
///     at N=3..5), emitting qasm, qir, circuit or qwerty-ir — compiled
///     once during set-up, so these hit the cache;
///   - ~20% compiles of BV with fresh random secrets at N=16..48, which
///     miss the cache;
///   - ~25% runs with jobs = 1: period finding N=4..5 on sv (32 shots),
///     Simon N=8..16 on stab (64 shots), and Grover N=3..4 on sv (32
///     shots), so all three engine programs appear;
///   - ~10% 8-point bind-run sweeps of the rotation ansatz of
///     sweep_throughput.
///
/// It is asdfd from wire line to response: decode, queue, cache probe,
/// compile on a miss, fuse or rebind, run, format and encode. The requests
/// are light enough that the service layers show. Every response must be
/// byte-identical (up to the id, cache-hit flag and compile time) to a
/// serial, single-worker AsdfService reference, and every executed run
/// must give its closed-form answer.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "compiler/CompileSession.h"
#include "service/Client.h"
#include "service/Server.h"
#include "support/Hash.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <thread>

using namespace asdf;

namespace perfbench {
namespace {

const char *const HotEmits[] = {"qasm", "qir", "circuit", "qwerty-ir"};
/// Run seeds and sweep grids come from small pools, so the reference
/// answers each distinct run once however long the window is.
const unsigned SeedPool = 16, SweepPool = 8, SweepPoints = 8;
/// Requests in the traced run's replayed slice: enough for a p99 of the
/// in-process handle times with ten samples beyond it.
const size_t SliceRequests = 6000;

/// The sweep subject of sweep_throughput: rotation layers over each basis
/// family interleaved with basis translations.
const char *AnsatzSource =
    "qpu kernel[N]() -> bit[N] {\n"
    "    return 'p'[N] | std[N].rotate($a) | pm[N].rotate($b) | "
    "ij[N].rotate($c) | pm[N] >> std[N] | std[N].rotate($c) | "
    "pm[N].rotate($a) | ij[N].rotate($b) | pm[N] >> std[N] | "
    "std[N].rotate($b) | pm[N].rotate($c) | ij[N].rotate($a) | "
    "std[N].measure\n"
    "}\n";

struct RunConfig {
  BenchAlgorithm Alg;
  unsigned N;
  const char *Backend;
  unsigned Shots;
  BenchProgram P;
};

struct MixInputs {
  std::vector<BenchProgram> Hot;
  std::vector<RunConfig> Runs; ///< Period 4..5, Grover 3..4, Simon 8..16.
  std::vector<ProgramBindings> Ansatz; ///< N = 4..6.
};

MixInputs makeInputs() {
  MixInputs In;
  for (BenchAlgorithm Alg : AllAlgorithms) {
    bool Grover = Alg == BenchAlgorithm::Grover;
    for (unsigned N = Grover ? 3 : 4; N <= (Grover ? 5u : 12u); ++N)
      In.Hot.push_back(makeBenchProgram(Alg, N));
  }
  for (unsigned N : {4u, 5u})
    In.Runs.push_back({BenchAlgorithm::PeriodFinding, N, "sv", 32,
                       makeBenchProgram(BenchAlgorithm::PeriodFinding, N)});
  for (unsigned N : {3u, 4u})
    In.Runs.push_back({BenchAlgorithm::Grover, N, "sv", 32,
                       makeBenchProgram(BenchAlgorithm::Grover, N)});
  for (unsigned N = 8; N <= 16; ++N)
    In.Runs.push_back({BenchAlgorithm::Simon, N, "stab", 64,
                       makeBenchProgram(BenchAlgorithm::Simon, N)});
  for (int N = 4; N <= 6; ++N) {
    ProgramBindings B;
    B.DimVars["N"] = N;
    In.Ansatz.push_back(B);
  }
  return In;
}

enum class MixClass : uint8_t { CompileHot, CompileFresh, Run, BindRun };

struct MixRequest {
  ServiceRequest Req;
  MixClass Cls = MixClass::CompileHot;
  BenchAlgorithm Alg = BenchAlgorithm::BV; ///< Run requests.
  unsigned N = 0;
};

/// A uniform double in [0, 1) from the top 53 bits (portable, unlike
/// std::uniform_real_distribution).
double unit(std::mt19937_64 &Rng) { return double(Rng() >> 11) * 0x1.0p-53; }

MixRequest nextRequest(const MixInputs &In, std::mt19937_64 &Rng) {
  MixRequest M;
  double U = unit(Rng);
  const char *Emit = HotEmits[Rng() % std::size(HotEmits)];
  if (U < 0.45) {
    M.Req = compileRequest(In.Hot[Rng() % In.Hot.size()], Emit, "default");
  } else if (U < 0.65) {
    unsigned N = 16 + Rng() % 33;
    std::string Secret(N, '0');
    for (char &C : Secret)
      C = (Rng() & 1) ? '1' : '0';
    Secret[Rng() % N] = '1';
    M.Req = compileRequest(bvWithSecret(N, Secret), Emit, "default");
    M.Cls = MixClass::CompileFresh;
  } else if (U < 0.90) {
    // Period finding 10%, Grover 5%, Simon 10% of all requests.
    double V = unit(Rng);
    size_t I = V < 0.4 ? Rng() % 2 : V < 0.6 ? 2 + Rng() % 2 : 4 + Rng() % 9;
    const RunConfig &C = In.Runs[I];
    M.Req = runRequest(C.P, C.Backend, C.Shots, 1 + Rng() % SeedPool, 1);
    M.Cls = MixClass::Run;
    M.Alg = C.Alg;
    M.N = C.N;
  } else {
    ServiceRequest &R = M.Req;
    R.TheKind = ServiceRequest::Kind::BindRun;
    R.Source = AnsatzSource;
    R.Bindings = In.Ansatz[Rng() % In.Ansatz.size()];
    R.SweepParams = {"a", "b", "c"};
    double Grid = 7.5 * double(Rng() % SweepPool);
    for (unsigned P = 0; P < SweepPoints; ++P)
      R.Points.push_back({Grid + 45.0 * P + 0.5, Grid + 22.5 * P + 0.25,
                          Grid + 11.25 * P + 0.125});
    R.Shots = 4;
    R.Seed = 1 + Rng() % SeedPool;
    R.Jobs = 1;
    M.Cls = MixClass::BindRun;
  }
  return M;
}

/// What a response must reproduce, hashed: every field but the id, the
/// cache-hit flag and the compile time.
std::array<uint64_t, 2> payloadDigest(const ServiceResponse &R) {
  ContentHasher H;
  H.u64(R.Ok);
  H.str(R.Error.Kind);
  H.str(R.Artifact);
  H.str(R.Key);
  H.u64(R.Results.size());
  for (const std::string &S : R.Results)
    H.str(S);
  H.u64(R.Counts.size());
  for (const auto &[Bits, N] : R.Counts) {
    H.str(Bits);
    H.u64(N);
  }
  H.u64(R.PointResults.size());
  for (const std::vector<std::string> &Point : R.PointResults) {
    H.u64(Point.size());
    for (const std::string &S : Point)
      H.str(S);
  }
  return H.digest();
}

std::string requestKey(ServiceRequest R) {
  R.Id = 0;
  return R.toJson().write();
}

uint64_t shotsOf(const ServiceResponse &R) {
  uint64_t Shots = R.Results.size();
  for (const std::vector<std::string> &Point : R.PointResults)
    Shots += Point.size();
  return Shots;
}

//===--- Set-up: a live daemon, connected clients, a warm hot set ---------===//

class MixSetup {
public:
  MixSetup(const Options &O, const MixInputs &In, Result &R) {
    std::string Template = O.Scratch + "/mixXXXXXX";
    std::vector<char> Buf(Template.begin(), Template.end());
    Buf.push_back('\0');
    if (!R.check(::mkdtemp(Buf.data()) != nullptr,
                 "cannot create a socket directory under " + O.Scratch))
      return;
    Dir = Buf.data();
    ServerOptions SO;
    SO.SocketPath = Dir + "/asdfd.sock";
    SO.Service.Workers = O.Nproc;
    Srv = std::make_unique<Server>(SO);
    std::string Error;
    if (!R.check(Srv->start(Error), "daemon start: " + Error)) {
      Srv.reset();
      return;
    }
    ServeThread = std::thread([this] { Srv->serve(); });
    for (unsigned C = 0; C < O.Nproc; ++C) {
      Clients.push_back(std::make_unique<ServiceClient>());
      if (!R.check(Clients.back()->connect(SO.SocketPath, Error),
                   "client connect: " + Error))
        return;
    }
    uint64_t Id = 0;
    for (const BenchProgram &P : In.Hot)
      for (const char *Emit : HotEmits) {
        ServiceRequest Req = compileRequest(P, Emit, "default");
        Req.Id = ++Id;
        ServiceResponse Resp = Srv->service().handle(Req);
        R.check(Resp.Ok, "hot-set compile: " + Resp.Error.Message);
      }
    Ready = true;
  }

  ~MixSetup() {
    Clients.clear();
    if (Srv) {
      Srv->requestShutdown();
      if (ServeThread.joinable())
        ServeThread.join();
      Srv.reset();
    }
    if (!Dir.empty())
      ::rmdir(Dir.c_str());
  }
  MixSetup(const MixSetup &) = delete;
  MixSetup &operator=(const MixSetup &) = delete;

  bool Ready = false;
  std::string Dir;
  std::unique_ptr<Server> Srv;
  std::vector<std::unique_ptr<ServiceClient>> Clients;

private:
  std::thread ServeThread;
};

//===--- Closed-loop clients ----------------------------------------------===//

/// One client's record of the requests it sent, in order.
struct ClientLog {
  std::vector<double> Secs;
  std::vector<std::array<uint64_t, 2>> Digests;
  std::vector<uint8_t> Ok, Hit;
  std::vector<double> CompileSecs;
  uint64_t Shots = 0, Compiles = 0;
  std::string TransportError;
};

/// Sends requests from \p Next until it returns false, waiting for each
/// reply before sending the next.
void clientLoop(ServiceClient &C,
                const std::function<bool(MixRequest &)> &Next,
                ClientLog &Log) {
  MixRequest M;
  ServiceResponse Resp;
  std::string Error;
  while (Next(M)) {
    double T0 = now();
    bool Sent = C.call(M.Req, Resp, Error, 60.0);
    double Secs = now() - T0;
    if (!Sent) {
      Log.TransportError = Error;
      return;
    }
    Log.Secs.push_back(Secs);
    Log.Digests.push_back(payloadDigest(Resp));
    Log.Ok.push_back(Resp.Ok);
    Log.Hit.push_back(Resp.CacheHit);
    Log.CompileSecs.push_back(Resp.CompileSecs);
    Log.Shots += shotsOf(Resp);
    Log.Compiles += M.Req.TheKind == ServiceRequest::Kind::Compile;
  }
}

//===--- The reference ----------------------------------------------------===//

/// Distinct requests and the serial single-worker reference answer to
/// each. The distinct requests are split across nproc independent
/// reference services, each answering its share serially; every executed
/// run is also checked against its closed-form answer.
class Reference {
public:
  /// Index of \p M's distinct request, adding it when new.
  size_t add(const MixRequest &M) {
    auto [It, New] = Index.emplace(requestKey(M.Req), Distinct.size());
    if (New)
      Distinct.push_back(M);
    return It->second;
  }

  void answer(unsigned Threads, Result &R) {
    Digests.assign(Distinct.size(), {});
    std::vector<std::string> Why(Distinct.size());
    std::vector<uint8_t> Ok(Distinct.size(), 0);
    std::vector<std::thread> Workers;
    for (unsigned T = 0; T < Threads; ++T)
      Workers.emplace_back([&, T] {
        ServiceOptions SO;
        SO.Workers = 1;
        AsdfService Svc(SO);
        for (size_t I = T; I < Distinct.size(); I += Threads) {
          ServiceResponse Resp = Svc.handle(Distinct[I].Req);
          Digests[I] = payloadDigest(Resp);
          Ok[I] = Resp.Ok;
          if (!Resp.Ok)
            Why[I] = "reference: " + Resp.Error.Message;
          else if (Distinct[I].Cls == MixClass::Run &&
                   !checkAnswers(Distinct[I].Alg, Distinct[I].N, "",
                                 Resp.Results, Why[I]))
            Ok[I] = false;
        }
      });
    for (std::thread &W : Workers)
      W.join();
    for (size_t I = 0; I < Distinct.size(); ++I)
      R.check(Ok[I], Why[I]);
  }

  std::vector<MixRequest> Distinct;
  std::vector<std::array<uint64_t, 2>> Digests;

private:
  std::map<std::string, size_t> Index;
};

/// Compares one client's answers with the reference; \p Keys are the
/// distinct-request indices of what it sent, in order.
void checkAgainst(const Reference &Ref, const std::vector<size_t> &Keys,
                  const ClientLog &Log, Result &R) {
  size_t Mismatches = 0;
  for (size_t K = 0; K < Log.Secs.size(); ++K) {
    R.op(Log.Ok[K]);
    if (Log.Ok[K] && Log.Digests[K] != Ref.Digests[Keys[K]])
      ++Mismatches;
  }
  R.check(Mismatches == 0, std::to_string(Mismatches) +
                               " response(s) differ from the serial "
                               "reference");
}

//===--- Runs -------------------------------------------------------------===//

void untracedRun(const Options &O, Result &R) {
  MixInputs In = makeInputs();
  EndToEnd E;
  std::unique_ptr<MixSetup> S;
  for (unsigned K = 0; K < SetUpRepeats; ++K) {
    S.reset();
    double T0 = K == 0 ? processStart() : now();
    S = std::make_unique<MixSetup>(O, In, R);
    E.SetupSecs.push_back(now() - T0);
    if (!S->Ready)
      return;
  }
  {
    std::vector<Circuit> Flats = compileFlats(In.Hot, R);
    std::vector<const Circuit *> Ptrs;
    for (const Circuit &C : Flats)
      Ptrs.push_back(&C);
    addResources(E, Ptrs);
  }

  std::vector<ClientLog> Logs(O.Nproc);
  std::vector<std::thread> Threads;
  double WindowStart = now();
  double Deadline = WindowStart + O.Seconds;
  for (unsigned C = 0; C < O.Nproc; ++C)
    Threads.emplace_back([&, C] {
      std::mt19937_64 Rng = makeRng(O.Seed, 100 + C);
      uint64_t Id = uint64_t(C) << 40;
      clientLoop(
          *S->Clients[C],
          [&](MixRequest &M) {
            if (now() >= Deadline)
              return false;
            M = nextRequest(In, Rng);
            M.Req.Id = ++Id;
            return true;
          },
          Logs[C]);
    });
  for (std::thread &T : Threads)
    T.join();
  double Wall = now() - WindowStart;
  E.PeakRssMiB = peakRssMiB();
  S.reset();

  // Regenerate each client's stream to learn what it sent, answer every
  // distinct request on the reference, and compare.
  Reference Ref;
  std::vector<std::vector<size_t>> Keys(O.Nproc);
  uint64_t Responses = 0, Shots = 0, Compiles = 0;
  for (unsigned C = 0; C < O.Nproc; ++C) {
    R.check(Logs[C].TransportError.empty(),
            "client " + std::to_string(C) + ": " + Logs[C].TransportError);
    std::mt19937_64 Rng = makeRng(O.Seed, 100 + C);
    for (size_t K = 0; K < Logs[C].Secs.size(); ++K)
      Keys[C].push_back(Ref.add(nextRequest(In, Rng)));
    E.LatencySecs.insert(E.LatencySecs.end(), Logs[C].Secs.begin(),
                         Logs[C].Secs.end());
    Responses += Logs[C].Secs.size();
    Shots += Logs[C].Shots;
    Compiles += Logs[C].Compiles;
  }
  double T0 = now();
  Ref.answer(O.Nproc, R);
  for (unsigned C = 0; C < O.Nproc; ++C)
    checkAgainst(Ref, Keys[C], Logs[C], R);
  std::printf("%llu responses in %.3f s from %u clients; %zu distinct "
              "requests answered by the reference in %.3f s\n",
              static_cast<unsigned long long>(Responses), Wall, O.Nproc,
              Ref.Distinct.size(), now() - T0);

  E.RequestsPerSec = double(Responses) / Wall;
  E.CompilesPerSec = double(Compiles) / Wall;
  E.ShotsPerSec = double(Shots) / Wall;
  emitEndToEnd(E, R);
}

/// Runs \p Body(Thread, Index) for every index of a shared slice on
/// \p Threads threads pulling from one counter; returns the wall time.
double replay(unsigned Threads, size_t Count,
              const std::function<void(unsigned, size_t)> &Body) {
  std::atomic<size_t> Next{0};
  std::vector<std::thread> Workers;
  double T0 = now();
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      for (size_t I = Next++; I < Count; I = Next++)
        Body(T, I);
    });
  for (std::thread &W : Workers)
    W.join();
  return now() - T0;
}

/// A service warmed with the hot set, as the daemon is after set-up.
std::unique_ptr<AsdfService> warmService(const MixInputs &In) {
  ServiceOptions SO;
  SO.Workers = 1; // handle() runs on the calling threads.
  auto Svc = std::make_unique<AsdfService>(SO);
  for (const BenchProgram &P : In.Hot)
    for (const char *Emit : HotEmits)
      Svc->handle(compileRequest(P, Emit, "default"));
  return Svc;
}

void tracedRun(const Options &O, Result &R) {
  MixInputs In = makeInputs();
  auto S = std::make_unique<MixSetup>(O, In, R);
  if (!S->Ready)
    return;
  std::mt19937_64 Rng = makeRng(O.Seed, 99);
  std::vector<MixRequest> Slice;
  std::vector<std::string> Lines;
  Reference Ref;
  std::vector<size_t> Keys;
  for (size_t I = 0; I < SliceRequests; ++I) {
    Slice.push_back(nextRequest(In, Rng));
    Slice.back().Req.Id = I + 1;
    Lines.push_back(Slice.back().Req.toJson().write());
    Keys.push_back(Ref.add(Slice.back()));
  }
  Ref.answer(O.Nproc, R);
  LayerReport L;

  // The slice through the daemon: client-side latency per op class.
  {
    std::atomic<size_t> Next{0};
    std::vector<ClientLog> Logs(O.Nproc);
    std::vector<std::vector<size_t>> Sent(O.Nproc);
    std::vector<std::thread> Threads;
    for (unsigned C = 0; C < O.Nproc; ++C)
      Threads.emplace_back([&, C] {
        clientLoop(
            *S->Clients[C],
            [&](MixRequest &M) {
              size_t I = Next++;
              if (I >= Slice.size())
                return false;
              M = Slice[I];
              Sent[C].push_back(I);
              return true;
            },
            Logs[C]);
      });
    for (std::thread &T : Threads)
      T.join();
    for (unsigned C = 0; C < O.Nproc; ++C) {
      std::vector<size_t> SentKeys;
      for (size_t K = 0; K < Logs[C].Secs.size(); ++K) {
        const ServiceRequest &Req = Slice[Sent[C][K]].Req;
        ServiceResponse Resp;
        Resp.Ok = Logs[C].Ok[K];
        Resp.CacheHit = Logs[C].Hit[K];
        Resp.CompileSecs = Logs[C].CompileSecs[K];
        addClassLatency(L, Req, Resp, Logs[C].Secs[K]);
        SentKeys.push_back(Keys[Sent[C][K]]);
      }
      checkAgainst(Ref, SentKeys, Logs[C], R);
    }
  }
  S.reset();

  // The same slice in-process from nproc threads: untraced, then with
  // decode, handle and encode spans. Each replay gets a fresh service
  // warmed with the hot set, so the fresh-secret compiles miss in both.
  std::vector<std::array<uint64_t, 2>> Untraced(Slice.size()),
      Traced(Slice.size());
  std::vector<std::unique_ptr<SpanLog>> Logs;
  for (unsigned T = 0; T < O.Nproc; ++T)
    Logs.push_back(std::make_unique<SpanLog>(true, T));
  std::vector<std::vector<double>> Handle(O.Nproc);
  double UntracedSecs, TracedSecs;
  {
    std::unique_ptr<AsdfService> Svc = warmService(In);
    UntracedSecs = replay(O.Nproc, Slice.size(), [&](unsigned, size_t I) {
      SpanLog Off(false, 0);
      std::string Encoded;
      double Secs;
      Untraced[I] =
          payloadDigest(serveByLayers(*Svc, Lines[I], I, Off, Encoded, Secs));
    });
  }
  {
    std::unique_ptr<AsdfService> Svc = warmService(In);
    std::vector<std::unique_ptr<Span>> Roots;
    for (auto &Log : Logs)
      Roots.push_back(std::make_unique<Span>(*Log, "replay.service", 0));
    TracedSecs = replay(O.Nproc, Slice.size(), [&](unsigned T, size_t I) {
      std::string Encoded;
      double Secs;
      Traced[I] = payloadDigest(
          serveByLayers(*Svc, Lines[I], I, *Logs[T], Encoded, Secs));
      Handle[T].push_back(Secs);
    });
    Roots.clear();
    addServiceCounters(L, *Svc);
  }
  for (const std::vector<double> &H : Handle)
    L.HandleSecs.insert(L.HandleSecs.end(), H.begin(), H.end());
  size_t Differ = 0;
  for (size_t I = 0; I < Slice.size(); ++I)
    Differ += Traced[I] != Untraced[I] || Traced[I] != Ref.Digests[Keys[I]];
  R.check(Differ == 0, std::to_string(Differ) +
                           " in-process response(s) differ between the "
                           "traced and untraced replays or the reference");

  // The compiler layers on every distinct program the slice compiles, plus
  // the §8.3 tail on their circuits; the hot set is checked byte for byte
  // against CompileSession.
  SpanLog &Log = *Logs[0];
  {
    Span Root(Log, "replay.compile", 0);
    std::map<std::string, BenchProgram> Programs;
    for (const BenchProgram &P : In.Hot)
      Programs.emplace(requestKey(compileRequest(P, "", "default")), P);
    size_t HotEnd = Programs.size();
    for (const MixRequest &M : Slice)
      if (M.Cls == MixClass::CompileFresh) {
        ServiceRequest Key = M.Req;
        Key.Emit.clear();
        Programs.emplace(requestKey(Key),
                         BenchProgram{M.Req.Source, M.Req.Bindings,
                                      M.Req.Entry});
      }
    std::printf("compile leg: %zu hot + %zu fresh programs\n", HotEnd,
                Programs.size() - HotEnd);
    uint64_t Id = 0;
    for (const auto &[Key, P] : Programs) {
      LayerCompile LC;
      bool Ok = compileByLayers(P, presetPlan("default"), Log, ++Id, LC);
      R.op(Ok);
      if (!R.check(Ok, "layer-by-layer compile: " + LC.Error))
        continue;
      addCompileSizes(L, LC);
      {
        Span T(Log, "baselines.transpile-o3", Id);
        Circuit O3 = transpileO3(*LC.Flat);
      }
      emitAndEstimate(*LC.Flat, *LC.QCirc, Log, Id);
    }
  }
  for (const BenchProgram &P : In.Hot) {
    LayerCompile LC;
    SpanLog Off(false, 0);
    CompileSession Session(P.Source, P.Bindings);
    Circuit *C = Session.flatCircuit();
    R.check(C && compileByLayers(P, presetPlan("default"), Off, 0, LC) &&
                LC.Flat->str() == C->str(),
            "a hot-set circuit differs between the layer-by-layer compile "
            "and CompileSession");
  }

  // The engine layers on every distinct run configuration in the slice.
  {
    Span Root(Log, "replay.engines", 0);
    std::map<std::pair<int, unsigned>, const MixRequest *> Configs;
    for (const MixRequest &M : Slice)
      if (M.Cls == MixClass::Run)
        Configs.emplace(std::make_pair(int(M.Alg), M.N), &M);
    uint64_t Id = 0;
    for (const auto &[Cfg, M] : Configs) {
      CompileSession Session(M->Req.Source, M->Req.Bindings);
      Circuit *C = Session.flatCircuit();
      if (!R.check(C != nullptr, "compile: " + Session.errorMessage()))
        continue;
      BackendKind Kind = BackendKind::Auto;
      parseBackendKind(M->Req.Backend, Kind);
      EngineRun Run{algName(M->Alg), C, Kind, M->Req.Shots, M->Req.Seed,
                    M->Req.Jobs};
      double FirstShot = probeEngineLayers(Run, Log, ++Id);
      EngineResult E = runEngineLayers(Run, Log, Id);
      R.op(E.Ok);
      std::string Why;
      if (!R.check(E.Ok, E.Error) ||
          !R.check(checkAnswers(M->Alg, M->N, "", E.Bits, Why), Why))
        continue;
      L.Stats.merge(E.Stats);
      L.FormattedShots += E.Bits.size();
      L.PerShotSecs[Run.Prog].push_back((E.BatchSecs - FirstShot) /
                                        double(Run.Shots - 1));
    }
  }

  std::vector<const SpanLog *> All;
  for (const auto &Log : Logs)
    All.push_back(Log.get());
  LayerTotals T = finishTrace(O, R, All, UntracedSecs, TracedSecs);
  emitLayerMetrics(T, L, R);
}

} // namespace

void runDaemonMix(const Options &O, Result &R) {
  if (O.Trace)
    tracedRun(O, R);
  else
    untracedRun(O, R);
}

} // namespace perfbench
