//===- ServiceTest.cpp - Cache, protocol, and service-engine tests --------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Locks down the compile-and-run service subsystem:
///
///   - cache-key stability: identical inputs hash identically (and the key
///     of a fixed request is pinned as a golden value, so a hash change
///     across commits is a deliberate, visible event), every single field
///     change — including whitespace-only source edits — produces a new
///     key, and equivalent pipeline spellings share one;
///   - ArtifactCache LRU/byte-budget behavior and its counters;
///   - NDJSON protocol round-trips, including full-width 64-bit seeds,
///     and strict unknown-field rejection;
///   - JobQueue admission, draining, and counters;
///   - AsdfService request handling: compile artifacts match a direct
///     CompileSession byte-for-byte, run results match a direct
///     runBatch+formatShotBits reference bit-for-bit, repeats hit the
///     cache, errors carry the right machine-readable kind, and expired
///     deadlines time out before any work;
///   - concurrency: many client threads with mixed compile/run requests
///     against one service produce exactly the serial reference results
///     (run under ASan/TSan in CI).
///
//===----------------------------------------------------------------------===//

#include "service/Server.h"
#include "service/Service.h"

#include "codegen/QasmEmitter.h"
#include "compiler/CompileSession.h"
#include "sim/Backend.h"
#include "sim/Simulator.h"
#include "support/BuildInfo.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace asdf;

namespace {

const char *BVSource = R"(
classical f[N](secret: bit[N], x: bit[N]) -> bit {
    return (secret & x).xor_reduce()
}
qpu kernel[N](f: cfunc[N, 1]) -> bit[N] {
    return 'p'[N] | f.sign | pm[N] >> std[N] | std[N].measure
}
)";

const char *CoinSource = R"(
qpu kernel() -> bit {
    return 'p' | std.measure
}
)";

ProgramBindings bvBindings(const std::string &Secret = "1101") {
  ProgramBindings B;
  B.Captures["f"]["secret"] = CaptureValue::bitsFromString(Secret);
  B.Captures["kernel"]["f"] = CaptureValue::classicalFunc("f");
  return B;
}

ServiceRequest bvCompileRequest(uint64_t Id = 1) {
  ServiceRequest R;
  R.TheKind = ServiceRequest::Kind::Compile;
  R.Id = Id;
  R.Source = BVSource;
  R.Bindings = bvBindings();
  return R;
}

ServiceRequest coinRunRequest(uint64_t Id = 1, unsigned Shots = 16,
                              uint64_t Seed = 42) {
  ServiceRequest R;
  R.TheKind = ServiceRequest::Kind::Run;
  R.Id = Id;
  R.Source = CoinSource;
  R.Shots = Shots;
  R.Seed = Seed;
  return R;
}

const char *RotParamSource = R"(
qpu kernel() -> bit {
    return 'p' | std.rotate($theta) | std.measure
}
)";

/// A literal-angle rotation program; bind-run canonicalizes the literal
/// away, so two of these differing only in the angle share a cache key.
std::string rotLiteralSource(const std::string &Angle) {
  return "qpu kernel() -> bit {\n    return 'p' | std.rotate(" + Angle +
         ") | std.measure\n}\n";
}

ServiceRequest bindRunRequest(uint64_t Id,
                              std::vector<std::vector<double>> Points,
                              unsigned Shots = 8, uint64_t Seed = 5) {
  ServiceRequest R;
  R.TheKind = ServiceRequest::Kind::BindRun;
  R.Id = Id;
  R.Source = RotParamSource;
  R.SweepParams = {"theta"};
  R.Points = std::move(Points);
  R.Shots = Shots;
  R.Seed = Seed;
  return R;
}

PipelinePlan defaultPlan() { return presetPlan("default"); }

/// Pinned digest of a fixed request (see CacheKeyTest.DeterministicAndPinned).
#define ASDF_SERVICE_GOLDEN_KEY "f82c055d96378e040d93dbb992da73bb"

/// The serial reference for a run request: the exact computation asdfc
/// performs, with the same formatting.
std::vector<std::string> referenceRun(const ServiceRequest &R) {
  SessionOptions SO;
  SO.Entry = R.Entry;
  PipelinePlan Plan;
  std::string Error;
  EXPECT_TRUE(parsePipelinePlan(R.Pipeline, Plan, Error)) << Error;
  SO.Plan = Plan;
  CompileSession S(R.Source, R.Bindings, SO);
  Circuit *Flat = S.flatCircuit();
  EXPECT_NE(Flat, nullptr) << S.errorMessage();
  BackendKind Kind;
  EXPECT_TRUE(parseBackendKind(R.Backend, Kind));
  SimBackend &B = BackendRegistry::instance().select(*Flat, Kind);
  RunOptions Opts;
  Opts.Jobs = R.Jobs;
  std::vector<std::string> Lines;
  for (const ShotResult &Shot : B.runBatch(*Flat, R.Shots, R.Seed, Opts))
    Lines.push_back(formatShotBits(*Flat, Shot));
  return Lines;
}

/// The recompile-per-point reference for a bind-run request: bind each
/// point by sweep-param name, run with the derived per-point base seed.
/// The backend is selected once from the *parametric* circuit, mirroring
/// the service (a point whose bound circuit happens to be Clifford must
/// not silently switch engines mid-sweep).
std::vector<std::vector<std::string>>
referenceSweep(const ServiceRequest &R) {
  CompileSession S(R.Source, R.Bindings);
  Circuit *Flat = S.flatCircuit();
  EXPECT_NE(Flat, nullptr) << S.errorMessage();
  SimBackend &B =
      BackendRegistry::instance().select(*Flat, BackendKind::Auto);
  RunOptions Opts;
  Opts.Jobs = R.Jobs;
  std::vector<std::vector<std::string>> Out;
  for (size_t P = 0; P < R.Points.size(); ++P) {
    std::map<std::string, double> Vals;
    for (size_t K = 0; K < R.SweepParams.size(); ++K)
      Vals[R.SweepParams[K]] = R.Points[P][K];
    std::string Err;
    std::optional<Circuit> Bound = S.bindParams(Vals, &Err);
    EXPECT_TRUE(Bound) << Err;
    std::vector<std::string> Lines;
    for (const ShotResult &Shot : B.runBatch(
             *Bound, R.Shots, deriveSweepPointSeed(R.Seed, P), Opts))
      Lines.push_back(formatShotBits(*Bound, Shot));
    Out.push_back(std::move(Lines));
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Cache-key stability
//===----------------------------------------------------------------------===//

TEST(CacheKeyTest, DeterministicAndPinned) {
  ServiceRequest R = bvCompileRequest();
  // Same inputs, same key — recomputed from scratch, with the fingerprint
  // held fixed so the pin does not depend on the build machine.
  CacheKey A = computeCacheKey(R, defaultPlan(), "qasm", "pin");
  CacheKey B = computeCacheKey(R, defaultPlan(), "qasm", "pin");
  EXPECT_EQ(A, B);
  EXPECT_EQ(A.hex().size(), 32u);
  // Golden pin: the content-hash function is pure (no pointers, no
  // iteration-order dependence), so this value must be stable across
  // processes, runs, and machines. If an intentional hash change lands,
  // update the pin — the daemon's cache is invalidated at the same moment.
  EXPECT_EQ(A.hex(), ASDF_SERVICE_GOLDEN_KEY);
}

TEST(CacheKeyTest, EverySingleFieldChangesTheKey) {
  ServiceRequest Base = bvCompileRequest();
  CacheKey K0 = computeCacheKey(Base, defaultPlan(), "qasm", "fp");

  // Source text, including a whitespace-only edit: hashing is byte-exact,
  // not semantic, by design.
  ServiceRequest R = Base;
  R.Source += " ";
  EXPECT_FALSE(computeCacheKey(R, defaultPlan(), "qasm", "fp") == K0)
      << "whitespace-only source change must change the key";
  R = Base;
  R.Source = std::string(BVSource) + "\n// comment\n";
  EXPECT_FALSE(computeCacheKey(R, defaultPlan(), "qasm", "fp") == K0);

  // Entry kernel.
  R = Base;
  R.Entry = "other";
  EXPECT_FALSE(computeCacheKey(R, defaultPlan(), "qasm", "fp") == K0);

  // Pipeline plan.
  PipelinePlan NoOpt = presetPlan("no-opt");
  EXPECT_FALSE(computeCacheKey(Base, NoOpt, "qasm", "fp") == K0);

  // Bindings: a different capture value, an added dimvar.
  R = Base;
  R.Bindings = bvBindings("1111");
  EXPECT_FALSE(computeCacheKey(R, defaultPlan(), "qasm", "fp") == K0);
  R = Base;
  R.Bindings.DimVars["N"] = 4;
  EXPECT_FALSE(computeCacheKey(R, defaultPlan(), "qasm", "fp") == K0);

  // Artifact kind and build fingerprint.
  EXPECT_FALSE(computeCacheKey(Base, defaultPlan(), "qir", "fp") == K0);
  EXPECT_FALSE(computeCacheKey(Base, defaultPlan(), "qasm", "fp2") == K0);
}

TEST(CacheKeyTest, EquivalentPlanSpellingsShareAKey) {
  // The key hashes the *parsed* plan, so the preset name and its explicit
  // spec produce the same key even though the request text differs.
  ServiceRequest R = bvCompileRequest();
  PipelinePlan Preset = presetPlan("default");
  PipelinePlan Explicit;
  std::string Error;
  ASSERT_TRUE(parsePipelinePlan(Preset.str(), Explicit, Error)) << Error;
  EXPECT_EQ(computeCacheKey(R, Preset, "qasm", "fp"),
            computeCacheKey(R, Explicit, "qasm", "fp"));
}

TEST(CacheKeyTest, RunVsCompileFieldsDoNotLeakIntoTheKey) {
  // Shots/seed/backend/jobs select *execution*, not the artifact: two runs
  // of the same program with different seeds share one compiled circuit.
  ServiceRequest A = coinRunRequest(1, 16, 1);
  ServiceRequest B = coinRunRequest(2, 999, 0xdeadbeefULL);
  B.Jobs = 7;
  B.Backend = "sv";
  EXPECT_EQ(computeCacheKey(A, defaultPlan(), "flat-circuit", "fp"),
            computeCacheKey(B, defaultPlan(), "flat-circuit", "fp"));
}

//===----------------------------------------------------------------------===//
// ArtifactCache: LRU under a byte budget
//===----------------------------------------------------------------------===//

/// An artifact whose bytes() is exactly \p Bytes, so budget arithmetic in
/// the tests below is precise (bytes() counts the struct + key strings).
std::shared_ptr<const CachedArtifact> textArtifact(size_t Bytes) {
  auto A = std::make_shared<CachedArtifact>();
  A->Kind = "qasm";
  size_t Overhead = sizeof(CachedArtifact) + A->Kind.size();
  EXPECT_GE(Bytes, Overhead);
  A->Text.assign(Bytes - Overhead, 'x');
  return A;
}

CacheKey keyOf(uint64_t N) { return CacheKey{N, ~N}; }

TEST(ArtifactCacheTest, EvictionRespectsTheByteBudget) {
  ArtifactCache Cache(4096);
  for (uint64_t I = 0; I < 16; ++I)
    Cache.put(keyOf(I), textArtifact(1000));
  CacheStats S = Cache.stats();
  EXPECT_LE(S.BytesUsed, 4096u);
  EXPECT_EQ(S.Entries, 4u) << "4 x 1000-byte entries fit a 4096 budget";
  EXPECT_EQ(S.Insertions, 16u);
  EXPECT_EQ(S.Evictions, 12u);
  // The survivors are the most recently inserted.
  EXPECT_EQ(Cache.get(keyOf(0)), nullptr);
  EXPECT_NE(Cache.get(keyOf(15)), nullptr);
}

TEST(ArtifactCacheTest, GetBumpsRecency) {
  ArtifactCache Cache(3000);
  Cache.put(keyOf(1), textArtifact(1000));
  Cache.put(keyOf(2), textArtifact(1000));
  Cache.put(keyOf(3), textArtifact(1000));
  // Touch 1 so 2 becomes the LRU victim.
  EXPECT_NE(Cache.get(keyOf(1)), nullptr);
  Cache.put(keyOf(4), textArtifact(1000));
  EXPECT_NE(Cache.get(keyOf(1)), nullptr);
  EXPECT_EQ(Cache.get(keyOf(2)), nullptr);
  EXPECT_NE(Cache.get(keyOf(3)), nullptr);
  EXPECT_NE(Cache.get(keyOf(4)), nullptr);
}

TEST(ArtifactCacheTest, OversizedArtifactIsNotCached) {
  ArtifactCache Cache(1024);
  Cache.put(keyOf(1), textArtifact(100));
  Cache.put(keyOf(2), textArtifact(4096)); // Bigger than the whole budget.
  EXPECT_EQ(Cache.get(keyOf(2)), nullptr);
  // And it did not evict the incumbent to make room it could never use.
  EXPECT_NE(Cache.get(keyOf(1)), nullptr);
}

TEST(ArtifactCacheTest, EvictedEntryStaysAliveForHolders) {
  ArtifactCache Cache(1024);
  Cache.put(keyOf(1), textArtifact(800));
  std::shared_ptr<const CachedArtifact> Held = Cache.get(keyOf(1));
  ASSERT_NE(Held, nullptr);
  Cache.put(keyOf(2), textArtifact(800)); // Evicts 1.
  EXPECT_EQ(Cache.get(keyOf(1)), nullptr);
  EXPECT_EQ(Held->bytes(), 800u) << "holder's artifact must survive";
}

TEST(ArtifactCacheTest, ShrinkingTheBudgetEvictsImmediately) {
  ArtifactCache Cache(4096);
  for (uint64_t I = 0; I < 4; ++I)
    Cache.put(keyOf(I), textArtifact(1000));
  EXPECT_EQ(Cache.stats().Entries, 4u);
  Cache.setByteBudget(2048);
  CacheStats S = Cache.stats();
  EXPECT_LE(S.BytesUsed, 2048u);
  EXPECT_EQ(S.Entries, 2u);
}

//===----------------------------------------------------------------------===//
// Protocol round-trips
//===----------------------------------------------------------------------===//

TEST(ProtocolTest, RequestRoundTripsExactly) {
  ServiceRequest R;
  R.TheKind = ServiceRequest::Kind::Run;
  R.Id = 0xFFFFFFFFFFFFFFFFull; // Full-width 64-bit ids survive.
  R.Source = "qpu kernel() -> bit {\n return '0' | std.measure\n}";
  R.Entry = "main";
  R.Pipeline = "no-peephole";
  R.Emit = "circuit";
  R.Shots = 12345;
  R.Seed = 0x8000000000000001ull; // > 2^63: must not round through double.
  R.Backend = "stab";
  R.Jobs = 8;
  R.TimeoutSecs = 2.5;
  R.Bindings.DimVars["N"] = 64;
  R.Bindings.Captures["f"]["secret"] = CaptureValue::bitsFromString("101");
  R.Bindings.Captures["kernel"]["f"] = CaptureValue::classicalFunc("f");

  std::string Wire = R.toJson().write();
  ServiceRequest Back;
  uint64_t Id = 0;
  std::string Error;
  ASSERT_TRUE(parseRequestLine(Wire, Back, Id, Error)) << Error;
  EXPECT_EQ(Id, R.Id);
  EXPECT_EQ(Back.TheKind, R.TheKind);
  EXPECT_EQ(Back.Source, R.Source);
  EXPECT_EQ(Back.Entry, R.Entry);
  EXPECT_EQ(Back.Pipeline, R.Pipeline);
  EXPECT_EQ(Back.Shots, R.Shots);
  EXPECT_EQ(Back.Seed, R.Seed);
  EXPECT_EQ(Back.Backend, R.Backend);
  EXPECT_EQ(Back.Jobs, R.Jobs);
  EXPECT_DOUBLE_EQ(Back.TimeoutSecs, R.TimeoutSecs);
  // Bindings survive; the cache key is the strongest equality check.
  EXPECT_EQ(computeCacheKey(Back, defaultPlan(), "k", "fp"),
            computeCacheKey(R, defaultPlan(), "k", "fp"));
  // And re-serializing is byte-stable (canonical field order).
  EXPECT_EQ(Back.toJson().write(), Wire);
}

TEST(ProtocolTest, ResponseRoundTripsExactly) {
  ServiceResponse Resp;
  Resp.Id = 7;
  Resp.Ok = true;
  Resp.Artifact = "OPENQASM 3;\n\"quoted\"\tand\nnewlines\xF0\x9F\x99\x82";
  Resp.CacheHit = true;
  Resp.Key = "00ff00ff00ff00ff00ff00ff00ff00ff";
  Resp.CompileSecs = 0.125;
  Resp.Results = {"0101", "1010"};
  Resp.Counts = {{"0101", 1}, {"1010", 1}};

  std::string Wire = Resp.toJson().write();
  json::Value V;
  std::string Error;
  ASSERT_TRUE(json::parse(Wire, V, Error)) << Error;
  ServiceResponse Back;
  ASSERT_TRUE(ServiceResponse::fromJson(V, Back, Error)) << Error;
  EXPECT_EQ(Back.Id, Resp.Id);
  EXPECT_TRUE(Back.Ok);
  EXPECT_EQ(Back.Artifact, Resp.Artifact);
  EXPECT_TRUE(Back.CacheHit);
  EXPECT_EQ(Back.Key, Resp.Key);
  EXPECT_EQ(Back.Results, Resp.Results);
  EXPECT_EQ(Back.Counts, Resp.Counts);
}

TEST(ProtocolTest, ErrorResponseRoundTrips) {
  ServiceResponse Resp =
      ServiceResponse::failure(3, "compile-error", "line 2: no such basis");
  std::string Wire = Resp.toJson().write();
  json::Value V;
  std::string Error;
  ASSERT_TRUE(json::parse(Wire, V, Error)) << Error;
  ServiceResponse Back;
  ASSERT_TRUE(ServiceResponse::fromJson(V, Back, Error)) << Error;
  EXPECT_FALSE(Back.Ok);
  EXPECT_EQ(Back.Error.Kind, "compile-error");
  EXPECT_EQ(Back.Error.Message, "line 2: no such basis");
  EXPECT_EQ(Back.Error.RetryAfterMs, 0u)
      << "absent retry_after_ms must read back as no hint";
}

TEST(ProtocolTest, RetryAfterMsRoundTrips) {
  ServiceResponse Resp = ServiceResponse::failure(
      9, "overloaded", "request queue is full; back off and retry",
      /*RetryAfterMs=*/125);
  std::string Wire = Resp.toJson().write();
  EXPECT_NE(Wire.find("\"retry_after_ms\""), std::string::npos) << Wire;
  json::Value V;
  std::string Error;
  ASSERT_TRUE(json::parse(Wire, V, Error)) << Error;
  ServiceResponse Back;
  ASSERT_TRUE(ServiceResponse::fromJson(V, Back, Error)) << Error;
  EXPECT_FALSE(Back.Ok);
  EXPECT_EQ(Back.Error.Kind, "overloaded");
  EXPECT_EQ(Back.Error.RetryAfterMs, 125u);
}

TEST(ProtocolTest, BindRunRoundTripsExactly) {
  ServiceRequest R = bindRunRequest(11, {{0.0}, {45.5}, {-90.25}});
  std::string Wire = R.toJson().write();
  ServiceRequest Back;
  uint64_t Id = 0;
  std::string Error;
  ASSERT_TRUE(parseRequestLine(Wire, Back, Id, Error)) << Error;
  EXPECT_EQ(Back.TheKind, ServiceRequest::Kind::BindRun);
  EXPECT_EQ(Back.SweepParams, R.SweepParams);
  EXPECT_EQ(Back.Points, R.Points);
  EXPECT_EQ(Back.Shots, R.Shots);
  EXPECT_EQ(Back.Seed, R.Seed);
  EXPECT_EQ(Back.toJson().write(), Wire) << "canonical field order";

  ServiceResponse Resp;
  Resp.Id = 11;
  Resp.Ok = true;
  Resp.Key = "00ff00ff00ff00ff00ff00ff00ff00ff";
  Resp.PointResults = {{"0", "1"}, {"1", "1"}, {"0", "0"}};
  std::string RespWire = Resp.toJson().write();
  json::Value V;
  ASSERT_TRUE(json::parse(RespWire, V, Error)) << Error;
  ServiceResponse RespBack;
  ASSERT_TRUE(ServiceResponse::fromJson(V, RespBack, Error)) << Error;
  EXPECT_EQ(RespBack.PointResults, Resp.PointResults);
}

TEST(ProtocolTest, SweepFieldsAreOnlyValidForBindRun) {
  ServiceRequest R;
  uint64_t Id = 0;
  std::string Error;
  EXPECT_FALSE(parseRequestLine(
      R"({"id": 5, "op": "run", "source": "x", "params": ["theta"]})", R,
      Id, Error));
  EXPECT_NE(Error.find("bind-run"), std::string::npos) << Error;
  EXPECT_FALSE(parseRequestLine(
      R"({"id": 5, "op": "compile", "source": "x", "points": [[1]]})", R,
      Id, Error));
  EXPECT_NE(Error.find("bind-run"), std::string::npos) << Error;
  // And bind-run itself requires points.
  EXPECT_FALSE(parseRequestLine(
      R"({"id": 5, "op": "bind-run", "source": "x"})", R, Id, Error));
}

TEST(ProtocolTest, UnknownFieldsAreRejected) {
  ServiceRequest R;
  uint64_t Id = 0;
  std::string Error;
  EXPECT_FALSE(parseRequestLine(
      R"({"id": 5, "op": "compile", "source": "x", "shotz": 3})", R, Id,
      Error));
  EXPECT_NE(Error.find("shotz"), std::string::npos) << Error;
  EXPECT_EQ(Id, 5u) << "id recovered best-effort for the error response";
}

TEST(ProtocolTest, IntegerFieldsMustBeWholeNumbersInRange) {
  // Fractions, exponents, signs on unsigned fields and values past the
  // field's range are bad requests that name the field — never truncated
  // or wrapped into some other run.
  const std::string Run = R"({"op": "run", "source": "x", )";
  const std::pair<std::string, std::string> Bad[] = {
      {R"("shots": 2.5})", "\"shots\""},
      {R"("shots": 4294967297})", "\"shots\""},
      {R"("shots": 1e3})", "\"shots\""},
      {R"("shots": -3})", "\"shots\""},
      {R"("jobs": -1})", "\"jobs\""},
      {R"("seed": 18446744073709551617})", "\"seed\""},
      {R"("seed": "7"})", "\"seed\""},
      {R"("bind": {"N": 3.5}})", "bind value for 'N'"},
      {R"("id": 1.5})", "\"id\""},
      {R"("trace": -2})", "\"trace\""},
  };
  for (const auto &[Fields, Field] : Bad) {
    ServiceRequest R;
    uint64_t Id = 0;
    std::string Error;
    EXPECT_FALSE(parseRequestLine(Run + Fields, R, Id, Error)) << Fields;
    EXPECT_NE(Error.find(Field + " must be a whole number"),
              std::string::npos)
        << Fields << ": " << Error;
  }

  // In range, every value is kept exactly: seeds and ids use all 64 bits.
  ServiceRequest R;
  uint64_t Id = 0;
  std::string Error;
  ASSERT_TRUE(parseRequestLine(
      R"({"id": 18446744073709551615, "op": "run", "source": "x", )"
      R"("shots": 4294967295, "seed": 18446744073709551615, "jobs": 0, )"
      R"("trace": 9, "bind": {"N": -3}})",
      R, Id, Error))
      << Error;
  EXPECT_EQ(Id, UINT64_MAX);
  EXPECT_EQ(R.Id, UINT64_MAX);
  EXPECT_EQ(R.Shots, UINT32_MAX);
  EXPECT_EQ(R.Seed, UINT64_MAX);
  EXPECT_EQ(R.Jobs, 0u);
  EXPECT_EQ(R.Trace, 9u);
  EXPECT_EQ(R.Bindings.DimVars["N"], -3);
}

TEST(ProtocolTest, TimeoutMustBeSecondsInRange) {
  // A deadline past steady_clock's range overflowed: 1e10 s was answered
  // at once with "deadline passed", and 1e400, too large for a double,
  // silently meant no timeout.
  const std::string Run = R"({"op": "run", "source": "x", "timeout": )";
  for (const char *Bad : {"1e10", "-1", "1e400", "1000000.5", "\"5\""}) {
    ServiceRequest R;
    uint64_t Id = 0;
    std::string Error;
    EXPECT_FALSE(parseRequestLine(Run + Bad + "}", R, Id, Error)) << Bad;
    EXPECT_NE(Error.find("\"timeout\""), std::string::npos)
        << Bad << ": " << Error;
  }
  const std::pair<const char *, double> Good[] = {
      {"0", 0.0}, {"0.25", 0.25}, {"1000000", 1e6}};
  for (const auto &[Text, Secs] : Good) {
    ServiceRequest R;
    uint64_t Id = 0;
    std::string Error;
    ASSERT_TRUE(parseRequestLine(Run + Text + "}", R, Id, Error)) << Error;
    EXPECT_EQ(R.TimeoutSecs, Secs) << Text;
  }
}

TEST(ProtocolTest, PointValuesMustFitADouble) {
  // A value outside a double's range ran as 0 degrees, where --sweep
  // refuses the same text.
  const std::string BindRun =
      R"({"op": "bind-run", "source": "x", "points": [[)";
  for (const char *Bad : {"1e400", "-1e400", "1e-400", "\"5\""}) {
    ServiceRequest R;
    uint64_t Id = 0;
    std::string Error;
    EXPECT_FALSE(parseRequestLine(BindRun + Bad + "]]}", R, Id, Error))
        << Bad;
    EXPECT_NE(Error.find("\"points\""), std::string::npos)
        << Bad << ": " << Error;
  }
  const std::pair<const char *, double> Good[] = {
      {"45", 45.0}, {"-0.5", -0.5}, {"1e308", 1e308}};
  for (const auto &[Text, Value] : Good) {
    ServiceRequest R;
    uint64_t Id = 0;
    std::string Error;
    ASSERT_TRUE(parseRequestLine(BindRun + Text + "]]}", R, Id, Error))
        << Error;
    ASSERT_EQ(R.Points.size(), 1u) << Text;
    ASSERT_EQ(R.Points[0].size(), 1u) << Text;
    EXPECT_EQ(R.Points[0][0], Value) << Text;
  }
}

TEST(ProtocolTest, MalformedLinesFailWithPosition) {
  ServiceRequest R;
  uint64_t Id = 0;
  std::string Error;
  EXPECT_FALSE(parseRequestLine("{\"id\": 1, ", R, Id, Error));
  EXPECT_FALSE(parseRequestLine("[]", R, Id, Error));
  EXPECT_FALSE(parseRequestLine(
      R"({"id": 1, "op": "transmogrify"})", R, Id, Error));
  EXPECT_NE(Error.find("transmogrify"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// JobQueue
//===----------------------------------------------------------------------===//

TEST(JobQueueTest, RunsEverySubmittedJob) {
  std::atomic<int> Ran{0};
  {
    JobQueue Q(4);
    EXPECT_EQ(Q.workers(), 4u);
    for (int I = 0; I < 100; ++I)
      ASSERT_EQ(Q.submit([&] { Ran.fetch_add(1); }),
                JobQueue::Submit::Accepted);
    Q.drain();
  }
  EXPECT_EQ(Ran.load(), 100);
}

TEST(JobQueueTest, DrainStopsAdmissionButFinishesQueuedWork) {
  std::atomic<int> Ran{0};
  JobQueue Q(2);
  for (int I = 0; I < 10; ++I)
    ASSERT_EQ(Q.submit([&] { Ran.fetch_add(1); }),
              JobQueue::Submit::Accepted);
  Q.drain();
  EXPECT_EQ(Ran.load(), 10) << "queued jobs complete during drain";
  EXPECT_EQ(Q.submit([&] { Ran.fetch_add(1); }),
            JobQueue::Submit::Draining);
  EXPECT_EQ(Ran.load(), 10);
  JobQueue::Counters C = Q.counters();
  EXPECT_EQ(C.Submitted, 10u);
  EXPECT_EQ(C.Executed, 10u);
  EXPECT_EQ(C.Rejected, 1u);
  EXPECT_EQ(C.Pending, 0u);
  Q.drain(); // Idempotent.
}

TEST(JobQueueTest, ZeroMeansHardwareConcurrency) {
  JobQueue Q(0);
  EXPECT_GE(Q.workers(), 1u);
}

TEST(JobQueueTest, BoundedDepthShedsBeyondMaxPending) {
  std::atomic<int> Ran{0};
  JobQueue Q(1, /*MaxPending=*/4);
  Q.pause(); // Freeze pickup so the queue actually fills.
  for (int I = 0; I < 4; ++I)
    ASSERT_EQ(Q.submit([&] { Ran.fetch_add(1); }),
              JobQueue::Submit::Accepted);
  EXPECT_EQ(Q.submit([&] { Ran.fetch_add(1); }),
            JobQueue::Submit::Overloaded)
      << "the 5th job must be shed, not queued";
  JobQueue::Counters C = Q.counters();
  EXPECT_EQ(C.Shed, 1u);
  EXPECT_EQ(C.Pending, 4u);
  Q.resume();
  Q.drain();
  EXPECT_EQ(Ran.load(), 4) << "shed jobs must never run";
  EXPECT_EQ(Q.counters().Executed, 4u);
}

TEST(JobQueueTest, RoundRobinInterleavesClients) {
  // Client A floods 4 jobs before client B's single job arrives; fair
  // pickup still serves B second, not fifth.
  std::vector<std::string> Order;
  std::mutex OrderMu;
  JobQueue Q(1);
  Q.pause();
  auto Job = [&](std::string Tag) {
    return [&, Tag] {
      std::lock_guard<std::mutex> Lock(OrderMu);
      Order.push_back(Tag);
    };
  };
  for (int I = 1; I <= 4; ++I)
    ASSERT_EQ(Q.submit(Job("A" + std::to_string(I)), /*Client=*/100),
              JobQueue::Submit::Accepted);
  ASSERT_EQ(Q.submit(Job("B1"), /*Client=*/200),
            JobQueue::Submit::Accepted);
  Q.resume();
  Q.drain();
  ASSERT_EQ(Order.size(), 5u);
  EXPECT_EQ(Order[0], "A1");
  EXPECT_EQ(Order[1], "B1") << "one hog must not starve other clients";
  EXPECT_EQ(Order[2], "A2");
  EXPECT_EQ(Order[3], "A3");
  EXPECT_EQ(Order[4], "A4");
}

//===----------------------------------------------------------------------===//
// AsdfService: compile
//===----------------------------------------------------------------------===//

TEST(ServiceTest, CompileMatchesDirectSessionByteForByte) {
  AsdfService Service;
  ServiceRequest R = bvCompileRequest();
  ServiceResponse Resp = Service.handle(R);
  ASSERT_TRUE(Resp.Ok) << Resp.Error.Message;
  EXPECT_FALSE(Resp.CacheHit);
  EXPECT_EQ(Resp.Key.size(), 32u);

  CompileSession S(R.Source, R.Bindings);
  Circuit *Flat = S.flatCircuit();
  ASSERT_NE(Flat, nullptr) << S.errorMessage();
  EXPECT_EQ(Resp.Artifact, emitOpenQasm3(*Flat));
}

TEST(ServiceTest, RepeatCompileHitsTheCache) {
  AsdfService Service;
  ServiceRequest R = bvCompileRequest();
  ServiceResponse Cold = Service.handle(R);
  ASSERT_TRUE(Cold.Ok) << Cold.Error.Message;
  ServiceResponse Warm = Service.handle(R);
  ASSERT_TRUE(Warm.Ok) << Warm.Error.Message;
  EXPECT_TRUE(Warm.CacheHit);
  EXPECT_EQ(Warm.Key, Cold.Key);
  EXPECT_EQ(Warm.Artifact, Cold.Artifact) << "hit serves identical bytes";
  EXPECT_EQ(Warm.CompileSecs, 0.0);

  CacheStats CS = Service.cache().stats();
  EXPECT_EQ(CS.Hits, 1u);
  EXPECT_EQ(CS.Misses, 1u);

  // A different emit target of the same program is a distinct entry.
  ServiceRequest Qir = R;
  Qir.Emit = "qir";
  ServiceResponse QirResp = Service.handle(Qir);
  ASSERT_TRUE(QirResp.Ok) << QirResp.Error.Message;
  EXPECT_FALSE(QirResp.CacheHit);
  EXPECT_NE(QirResp.Key, Cold.Key);
}

TEST(ServiceTest, CompileErrorsCarryMachineReadableKinds) {
  AsdfService Service;

  ServiceRequest Bad = bvCompileRequest();
  Bad.Emit = "mlir";
  EXPECT_EQ(Service.handle(Bad).Error.Kind, "bad-request");

  Bad = bvCompileRequest();
  Bad.Pipeline = "turbo";
  ServiceResponse Resp = Service.handle(Bad);
  EXPECT_EQ(Resp.Error.Kind, "bad-request");
  EXPECT_NE(Resp.Error.Message.find("unknown pipeline preset"),
            std::string::npos);

  Bad = bvCompileRequest();
  Bad.Source = "qpu kernel() -> bit { return nonsense }";
  Resp = Service.handle(Bad);
  EXPECT_FALSE(Resp.Ok);
  EXPECT_EQ(Resp.Error.Kind, "compile-error");
  EXPECT_FALSE(Resp.Error.Message.empty());

  // Errors are not cached: a retry recompiles (and fails identically).
  ServiceResponse Again = Service.handle(Bad);
  EXPECT_EQ(Again.Error.Message, Resp.Error.Message);

  Bad = bvCompileRequest();
  Bad.Pipeline = "no-opt"; // Keeps callables: qasm cannot be emitted.
  Resp = Service.handle(Bad);
  EXPECT_EQ(Resp.Error.Kind, "unsupported");
}

//===----------------------------------------------------------------------===//
// AsdfService: run
//===----------------------------------------------------------------------===//

TEST(ServiceTest, RunMatchesAsdfcReferenceBitForBit) {
  AsdfService Service;
  ServiceRequest R = coinRunRequest(1, 64, 0xfeedfaceULL);
  ServiceResponse Resp = Service.handle(R);
  ASSERT_TRUE(Resp.Ok) << Resp.Error.Message;
  ASSERT_EQ(Resp.Results.size(), 64u);
  EXPECT_EQ(Resp.Results, referenceRun(R));

  // Counts aggregate the per-shot lines.
  unsigned Total = 0;
  for (const auto &[Bits, N] : Resp.Counts)
    Total += N;
  EXPECT_EQ(Total, 64u);
}

TEST(ServiceTest, RunIsDeterministicAndCachesTheCircuit) {
  AsdfService Service;
  ServiceRequest R = coinRunRequest(1, 32, 7);
  ServiceResponse First = Service.handle(R);
  ASSERT_TRUE(First.Ok) << First.Error.Message;
  EXPECT_FALSE(First.CacheHit);

  // Same request again: circuit comes from cache, bits are identical.
  ServiceResponse Second = Service.handle(R);
  ASSERT_TRUE(Second.Ok) << Second.Error.Message;
  EXPECT_TRUE(Second.CacheHit);
  EXPECT_EQ(Second.Results, First.Results);

  // Different seed, same circuit (still a hit), different stream is
  // allowed — but the jobs knob must never change the bits.
  ServiceRequest Wide = R;
  Wide.Jobs = 8;
  ServiceResponse Parallel = Service.handle(Wide);
  ASSERT_TRUE(Parallel.Ok) << Parallel.Error.Message;
  EXPECT_TRUE(Parallel.CacheHit);
  EXPECT_EQ(Parallel.Results, First.Results)
      << "worker count changed the bits";
}

TEST(ServiceTest, RunWithBindingsMatchesReference) {
  AsdfService Service;
  ServiceRequest R;
  R.TheKind = ServiceRequest::Kind::Run;
  R.Id = 9;
  R.Source = BVSource;
  R.Bindings = bvBindings("110101");
  R.Shots = 8;
  R.Seed = 3;
  ServiceResponse Resp = Service.handle(R);
  ASSERT_TRUE(Resp.Ok) << Resp.Error.Message;
  EXPECT_EQ(Resp.Results, referenceRun(R));
  // Bernstein-Vazirani: every shot reads back the secret.
  for (const std::string &Bits : Resp.Results)
    EXPECT_EQ(Bits, "110101");
}

TEST(ServiceTest, RunErrorsCarryMachineReadableKinds) {
  AsdfService Service;

  ServiceRequest R = coinRunRequest();
  R.Backend = "gpu";
  EXPECT_EQ(Service.handle(R).Error.Kind, "bad-request");

  R = coinRunRequest();
  R.Pipeline = "no-opt";
  EXPECT_EQ(Service.handle(R).Error.Kind, "unsupported");

  R = coinRunRequest();
  R.Source = "qpu kernel() -> bit { return }";
  EXPECT_EQ(Service.handle(R).Error.Kind, "compile-error");
}

TEST(ServiceTest, RunOfAnUnboundParametricProgramIsABadRequest) {
  // A plain run binds no $-parameters, so it must be refused by name
  // rather than simulate unset angle slots.
  AsdfService Service;
  ServiceRequest R = coinRunRequest();
  R.Source = RotParamSource;
  ServiceResponse Resp = Service.handle(R);
  EXPECT_FALSE(Resp.Ok);
  EXPECT_EQ(Resp.Error.Kind, "bad-request");
  EXPECT_NE(Resp.Error.Message.find("$theta"), std::string::npos)
      << Resp.Error.Message;
}

TEST(ServiceTest, MpsBackendRunsOverTheWire) {
  AsdfService Service;
  ServiceRequest R;
  R.TheKind = ServiceRequest::Kind::Run;
  R.Id = 77;
  R.Source = BVSource;
  R.Bindings = bvBindings("1101");
  R.Shots = 12;
  R.Seed = 21;
  R.Backend = "mps";
  // Round-trip the wire encoding like a real client before handling.
  std::string Wire = R.toJson().write();
  ServiceRequest Back;
  uint64_t Id = 0;
  std::string Error;
  ASSERT_TRUE(parseRequestLine(Wire, Back, Id, Error)) << Error;
  EXPECT_EQ(Back.Backend, "mps");
  ServiceResponse Resp = Service.handle(Back);
  ASSERT_TRUE(Resp.Ok) << Resp.Error.Message;
  EXPECT_EQ(Resp.Results, referenceRun(R));
  // Bernstein-Vazirani on the tensor network still reads back the secret.
  for (const std::string &Bits : Resp.Results)
    EXPECT_EQ(Bits, "1101");

  // bind-run routes parametric sweeps to the tensor network too.
  ServiceRequest BR = bindRunRequest(78, {{0.0}, {45.5}, {90.0}});
  BR.Backend = "mps";
  ServiceResponse Sweep = Service.handle(BR);
  ASSERT_TRUE(Sweep.Ok) << Sweep.Error.Message;
  EXPECT_EQ(Sweep.PointResults.size(), 3u);

  // Unknown engine names stay a bad request on both verbs.
  BR.Backend = "tpu";
  EXPECT_EQ(Service.handle(BR).Error.Kind, "bad-request");
  ServiceRequest BadRun = coinRunRequest(79);
  BadRun.Backend = "tensor";
  EXPECT_EQ(Service.handle(BadRun).Error.Kind, "bad-request");
}

TEST(ServiceTest, ExpiredDeadlineTimesOutBeforeWork) {
  AsdfService Service;
  ServiceRequest R = coinRunRequest();
  // A deadline already in the past: the request must fail as a timeout
  // without compiling anything.
  ServiceResponse Resp = Service.handle(
      R, std::chrono::steady_clock::now() - std::chrono::seconds(1));
  EXPECT_FALSE(Resp.Ok);
  EXPECT_EQ(Resp.Error.Kind, "timeout");
  EXPECT_EQ(Service.cache().stats().Misses, 0u) << "no work was attempted";
}

TEST(ServiceTest, DeadlineBetweenShotsTimesOut) {
  AsdfService Service;
  // Warm the cache so the deliberately-slow run below spends its budget in
  // the simulator, not the compiler.
  ServiceRequest Warm = coinRunRequest(1, 4, 1);
  ASSERT_TRUE(Service.handle(Warm).Ok);

  // A shot count that takes far longer than the deadline: the cooperative
  // check between shot chunks must abort the run with a "timeout" error
  // instead of finishing long after the client gave up.
  ServiceRequest Slow = coinRunRequest(2, 2000000, 1);
  ServiceResponse Resp = Service.handle(
      Slow, std::chrono::steady_clock::now() + std::chrono::milliseconds(10));
  EXPECT_FALSE(Resp.Ok);
  EXPECT_EQ(Resp.Error.Kind, "timeout");
  EXPECT_NE(Resp.Error.Message.find("between shots"), std::string::npos)
      << Resp.Error.Message;
}

//===----------------------------------------------------------------------===//
// AsdfService: bind-run
//===----------------------------------------------------------------------===//

TEST(ServiceTest, BindRunMatchesRecompilePerPointReference) {
  AsdfService Service;
  ServiceRequest R =
      bindRunRequest(1, {{0.0}, {45.5}, {90.0}, {181.25}}, 8, 0xfeedULL);
  ServiceResponse Resp = Service.handle(R);
  ASSERT_TRUE(Resp.Ok) << Resp.Error.Message;
  EXPECT_FALSE(Resp.CacheHit);
  EXPECT_EQ(Resp.PointResults, referenceSweep(R));

  // The same sweep again: the compiled circuit comes from the cache and
  // the bits are identical.
  R.Id = 2;
  ServiceResponse Again = Service.handle(R);
  ASSERT_TRUE(Again.Ok) << Again.Error.Message;
  EXPECT_TRUE(Again.CacheHit);
  EXPECT_EQ(Again.PointResults, Resp.PointResults);

  // The jobs knob must never change the bits.
  R.Id = 3;
  R.Jobs = 4;
  ServiceResponse Wide = Service.handle(R);
  ASSERT_TRUE(Wide.Ok) << Wide.Error.Message;
  EXPECT_EQ(Wide.PointResults, Resp.PointResults);

  ServiceRequest Stats;
  Stats.TheKind = ServiceRequest::Kind::Stats;
  Stats.Id = 4;
  ServiceResponse S = Service.handle(Stats);
  ASSERT_TRUE(S.Ok);
  EXPECT_EQ(S.StatsBody.get("requests")->get("bind_run")->asU64(), 3u);
}

TEST(ServiceTest, BindRunLiftsLiteralsIntoASharedKey) {
  // Two sources that differ only in their rotation-angle literal: the
  // canonicalizer lifts the literal before hashing, so the second request
  // reuses the first's compiled circuit — while each still runs with its
  // own angle.
  AsdfService Service;
  ServiceRequest A;
  A.TheKind = ServiceRequest::Kind::BindRun;
  A.Id = 1;
  A.Source = rotLiteralSource("45.5");
  A.Points = {{}};
  A.Shots = 16;
  A.Seed = 9;
  ServiceRequest B = A;
  B.Id = 2;
  B.Source = rotLiteralSource("170.25");

  ServiceResponse RespA = Service.handle(A);
  ASSERT_TRUE(RespA.Ok) << RespA.Error.Message;
  EXPECT_FALSE(RespA.CacheHit);
  ServiceResponse RespB = Service.handle(B);
  ASSERT_TRUE(RespB.Ok) << RespB.Error.Message;
  EXPECT_TRUE(RespB.CacheHit) << "angle-only edit must share the artifact";
  EXPECT_EQ(RespA.Key, RespB.Key);

  // Each request still gets its own angle's results: bit-identical to a
  // direct compile of its literal source run at the derived point seed.
  for (const ServiceRequest *R : {&A, &B}) {
    CompileSession S(R->Source, ProgramBindings{});
    Circuit *Flat = S.flatCircuit();
    ASSERT_NE(Flat, nullptr) << S.errorMessage();
    SimBackend &Backend =
        *BackendRegistry::instance().lookup("sv"); // Matches the service's
                                                   // parametric dispatch.
    std::vector<std::string> Want;
    for (const ShotResult &Shot : Backend.runBatch(
             *Flat, R->Shots, deriveSweepPointSeed(R->Seed, 0), RunOptions()))
      Want.push_back(formatShotBits(*Flat, Shot));
    const ServiceResponse &Resp = R == &A ? RespA : RespB;
    ASSERT_EQ(Resp.PointResults.size(), 1u);
    EXPECT_EQ(Resp.PointResults[0], Want);
  }
}

TEST(ServiceTest, BindRunOfANonParametricProgramRunsOneEmptyPoint) {
  // One empty point is a valid sweep of a program without parameters: it
  // runs as a plain run at the point-0 seed.
  AsdfService Service;
  ServiceRequest R = coinRunRequest(1, 16, 11);
  R.TheKind = ServiceRequest::Kind::BindRun;
  R.Points = {{}};
  ServiceResponse Resp = Service.handle(R);
  ASSERT_TRUE(Resp.Ok) << Resp.Error.Message;
  ASSERT_EQ(Resp.PointResults.size(), 1u);
  ServiceRequest Plain = coinRunRequest(2, 16, deriveSweepPointSeed(11, 0));
  EXPECT_EQ(Resp.PointResults[0], Service.handle(Plain).Results);
}

TEST(ServiceTest, BindRunErrorsCarryMachineReadableKinds) {
  AsdfService Service;

  // No points at all.
  ServiceRequest R = bindRunRequest(1, {});
  ServiceResponse Resp = Service.handle(R);
  EXPECT_EQ(Resp.Error.Kind, "bad-request");
  EXPECT_NE(Resp.Error.Message.find("at least one point"),
            std::string::npos);

  // Point arity vs "params".
  R = bindRunRequest(2, {{1.0, 2.0}});
  EXPECT_EQ(Service.handle(R).Error.Kind, "bad-request");

  // Unknown sweep parameter.
  R = bindRunRequest(3, {{1.0}});
  R.SweepParams = {"phi"};
  Resp = Service.handle(R);
  EXPECT_EQ(Resp.Error.Kind, "bad-request");
  EXPECT_NE(Resp.Error.Message.find("phi"), std::string::npos);

  // Duplicate sweep parameter.
  R = bindRunRequest(4, {{1.0, 2.0}});
  R.SweepParams = {"theta", "theta"};
  EXPECT_EQ(Service.handle(R).Error.Kind, "bad-request");

  // The reserved lifted-name prefix.
  R = bindRunRequest(5, {{1.0}});
  R.SweepParams = {"__a0"};
  Resp = Service.handle(R);
  EXPECT_EQ(Resp.Error.Kind, "bad-request");
  EXPECT_NE(Resp.Error.Message.find("reserved"), std::string::npos);

  // A declared $param not covered by "params" and not liftable.
  R = bindRunRequest(6, {{}});
  R.SweepParams = {};
  Resp = Service.handle(R);
  EXPECT_EQ(Resp.Error.Kind, "bad-request");
  EXPECT_NE(Resp.Error.Message.find("theta"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Single-flight coalescing: concurrent identical requests compile once
//===----------------------------------------------------------------------===//

TEST(ServiceTest, ConcurrentIdenticalRequestsCompileExactlyOnce) {
  // The cache-stampede fix: N identical cold requests racing through
  // handle() must produce exactly one compilation — the leader's — with
  // every other request either coalescing onto the in-flight compile or
  // hitting the cache the leader populated. Before single-flight, all N
  // compiled the same program in parallel.
  constexpr unsigned N = 8;
  AsdfService Service;
  std::vector<ServiceResponse> Got(N);
  std::vector<std::thread> Threads;
  std::atomic<bool> Go{false};
  for (unsigned I = 0; I < N; ++I)
    Threads.emplace_back([&, I] {
      while (!Go.load())
        std::this_thread::yield();
      Got[I] = Service.handle(bvCompileRequest(I + 1));
    });
  Go.store(true);
  for (std::thread &T : Threads)
    T.join();

  unsigned Misses = 0;
  for (unsigned I = 0; I < N; ++I) {
    ASSERT_TRUE(Got[I].Ok) << Got[I].Error.Message;
    EXPECT_EQ(Got[I].Id, I + 1);
    EXPECT_EQ(Got[I].Artifact, Got[0].Artifact);
    EXPECT_EQ(Got[I].Key, Got[0].Key);
    Misses += !Got[I].CacheHit;
  }
  EXPECT_EQ(Misses, 1u) << "exactly one leader compiles";

  ServiceRequest Stats;
  Stats.TheKind = ServiceRequest::Kind::Stats;
  Stats.Id = 99;
  ServiceResponse S = Service.handle(Stats);
  ASSERT_TRUE(S.Ok);
  const json::Value *Req = S.StatsBody.get("requests");
  ASSERT_NE(Req, nullptr);
  EXPECT_EQ(Req->get("compiled")->asU64(), 1u)
      << "the program must have been compiled exactly once";
  // Every non-leader either coalesced onto the flight or hit the cache.
  EXPECT_EQ(Req->get("coalesced")->asU64() +
                Service.cache().stats().Hits,
            N - 1u);
}

TEST(ServiceTest, StatsReportTheCountersAndFingerprint) {
  AsdfService Service;
  Service.handle(bvCompileRequest(1));
  Service.handle(bvCompileRequest(2)); // Hit.
  Service.handle(coinRunRequest(3, 4, 1));

  ServiceRequest Stats;
  Stats.TheKind = ServiceRequest::Kind::Stats;
  Stats.Id = 4;
  ServiceResponse Resp = Service.handle(Stats);
  ASSERT_TRUE(Resp.Ok);
  const json::Value *Cache = Resp.StatsBody.get("cache");
  ASSERT_NE(Cache, nullptr);
  EXPECT_EQ(Cache->get("hits")->asU64(), 1u);
  EXPECT_EQ(Cache->get("misses")->asU64(), 2u);
  const json::Value *Req = Resp.StatsBody.get("requests");
  ASSERT_NE(Req, nullptr);
  EXPECT_EQ(Req->get("compile")->asU64(), 2u);
  EXPECT_EQ(Req->get("run")->asU64(), 1u);
  EXPECT_EQ(Req->get("shots")->asU64(), 4u);
  EXPECT_EQ(Resp.StatsBody.get("fingerprint")->asString(),
            buildFingerprint());
}

//===----------------------------------------------------------------------===//
// The metric catalog, pinned to docs/observability.md
//===----------------------------------------------------------------------===//

/// One row of the catalog table in docs/observability.md. Path is empty
/// for a series with no place in the stats payload (written "—").
struct CatalogRow {
  std::string Name, Path, Type, Meaning;
};

std::vector<CatalogRow> docCatalogRows() {
  std::ifstream In(ASDF_OBSERVABILITY_DOC);
  EXPECT_TRUE(In) << "cannot read " << ASDF_OBSERVABILITY_DOC;
  auto Trim = [](std::string S, const char *Chars) {
    size_t B = S.find_first_not_of(Chars), E = S.find_last_not_of(Chars);
    return B == std::string::npos ? std::string() : S.substr(B, E - B + 1);
  };
  std::vector<CatalogRow> Rows;
  bool InCatalog = false;
  for (std::string Line; std::getline(In, Line);) {
    if (Line.rfind("## ", 0) == 0)
      InCatalog = Line == "## Metric catalog";
    if (!InCatalog || Line.rfind("| `", 0) != 0)
      continue;
    std::vector<std::string> Cells;
    std::stringstream Cols(Line);
    for (std::string C; std::getline(Cols, C, '|');)
      Cells.push_back(C);
    EXPECT_EQ(Cells.size(), 5u) << Line;
    if (Cells.size() != 5)
      continue;
    std::string Path = Trim(Cells[2], " `");
    Rows.push_back({Trim(Cells[1], " `"), Path == "—" ? "" : Path,
                    Trim(Cells[3], " "), Trim(Cells[4], " ")});
  }
  return Rows;
}

/// One series of a Prometheus exposition: its # TYPE, its # HELP, and its
/// sample (for a histogram, its _count sample).
struct ExposedSeries {
  std::string Type, Help, Sample;
};

void parseExposition(const std::string &Text,
                     std::map<std::string, ExposedSeries> &Out) {
  std::stringstream In(Text);
  for (std::string Line; std::getline(In, Line);) {
    std::string Name, Rest;
    if (Line.rfind("# HELP ", 0) == 0 || Line.rfind("# TYPE ", 0) == 0) {
      size_t Sp = Line.find(' ', 7);
      Name = Line.substr(7, Sp - 7);
      Rest = Sp == std::string::npos ? "" : Line.substr(Sp + 1);
      (Line[2] == 'H' ? Out[Name].Help : Out[Name].Type) = Rest;
      continue;
    }
    size_t Sp = Line.find(' ');
    if (Sp == std::string::npos)
      continue;
    Name = Line.substr(0, Sp);
    if (!Out.count(Name) && Name.ends_with("_count"))
      Name.resize(Name.size() - 6);
    // Buckets, _sum lines and any non-exposition text match no series.
    if (auto It = Out.find(Name); It != Out.end())
      It->second.Sample = Line.substr(Sp + 1);
  }
}

/// Numeric leaves of a stats payload by dotted path; a histogram object
/// (it has "buckets") is one leaf.
void statsLeaves(const json::Value &V, const std::string &Prefix,
                 std::map<std::string, const json::Value *> &Out) {
  for (const auto &[Key, M] : V.members()) {
    std::string Path = Prefix.empty() ? Key : Prefix + "." + Key;
    if (M.isNumber() || M.get("buckets"))
      Out[Path] = &M;
    else if (M.isObject())
      statsLeaves(M, Path, Out);
  }
}

TEST(ServiceTest, ObservabilityDocMatchesTheCatalog) {
  std::string Dir = ::testing::TempDir() + "catalog-" +
                    std::to_string(::getpid()) + ".cache";
  ASSERT_EQ(::system(("rm -rf " + Dir).c_str()), 0);
  ServiceOptions Options;
  Options.Workers = 1;
  Options.CacheBytes = 100000000;
  Options.DiskCacheDir = Dir;
  AsdfService Service(Options);
  ASSERT_NE(Service.diskCache(), nullptr) << Service.diskCacheError();
  ASSERT_TRUE(Service.handle(bvCompileRequest(1)).Ok);
  ASSERT_TRUE(Service.handle(coinRunRequest(2)).Ok);
  ASSERT_TRUE(Service.handle(bindRunRequest(3, {{0.0}, {45.0}})).Ok);
  ServiceRequest Metrics;
  Metrics.TheKind = ServiceRequest::Kind::Metrics;
  Metrics.Id = 4;
  ASSERT_TRUE(Service.handle(Metrics).Ok);

  std::map<std::string, ExposedSeries> Series;
  parseExposition(Service.metricsText(), Series);
  // asdfc's own series, as the binary prints them.
  std::string Coin = ::testing::TempDir() + "catalog-coin.qw";
  std::ofstream(Coin) << CoinSource;
  std::string Cmd = std::string(ASDF_ASDFC_PATH) + " " + Coin +
                    " --emit run --shots 2 --metrics 2>&1 >/dev/null";
  std::string AsdfcText;
  FILE *P = ::popen(Cmd.c_str(), "r");
  ASSERT_NE(P, nullptr);
  char Buf[4096];
  for (size_t N; (N = std::fread(Buf, 1, sizeof(Buf), P)) > 0;)
    AsdfcText.append(Buf, N);
  ASSERT_EQ(::pclose(P), 0) << AsdfcText;
  std::map<std::string, ExposedSeries> AsdfcSeries;
  parseExposition(AsdfcText, AsdfcSeries);
  EXPECT_EQ(AsdfcSeries.size(), 6u) << AsdfcText;
  Series.insert(AsdfcSeries.begin(), AsdfcSeries.end());

  json::Value Stats = Service.statsJson();
  std::map<std::string, const json::Value *> Leaves;
  statsLeaves(Stats, "", Leaves);

  std::vector<CatalogRow> Rows = docCatalogRows();
  std::set<std::string> RowNames, RowPaths, SeriesNames, LeafPaths;
  for (const CatalogRow &Row : Rows) {
    RowNames.insert(Row.Name);
    if (!Row.Path.empty())
      RowPaths.insert(Row.Path);
  }
  for (const auto &S : Series)
    SeriesNames.insert(S.first);
  for (const auto &L : Leaves)
    LeafPaths.insert(L.first);
  EXPECT_EQ(RowNames, SeriesNames)
      << "docs/observability.md rows vs the # TYPE names of metrics and "
         "asdfc --metrics";
  EXPECT_EQ(RowPaths, LeafPaths)
      << "docs/observability.md stats paths vs the numeric stats leaves";

  for (const CatalogRow &Row : Rows) {
    auto It = Series.find(Row.Name);
    if (It == Series.end())
      continue;
    const ExposedSeries &S = It->second;
    EXPECT_EQ(Row.Type, S.Type) << Row.Name;
    EXPECT_EQ(Row.Meaning, S.Help) << Row.Name;
    EXPECT_EQ(Row.Path.empty(), AsdfcSeries.count(Row.Name) == 1)
        << Row.Name << ": every daemon series has a stats path, no asdfc "
        << "series has one";
    auto Leaf = Leaves.find(Row.Path);
    if (Leaf == Leaves.end())
      continue;
    if (Row.Type == "counter") {
      EXPECT_EQ(S.Sample, Leaf->second->write()) << Row.Name;
    }
    if (Row.Type == "histogram") {
      ASSERT_NE(Leaf->second->get("count"), nullptr) << Row.Path;
      EXPECT_EQ(S.Sample, Leaf->second->get("count")->write()) << Row.Name;
    }
  }
  const json::Value *Cache = Stats.get("cache");
  ASSERT_NE(Cache, nullptr);
  ASSERT_NE(Cache->get("byte_budget"), nullptr);
  EXPECT_EQ(Cache->get("byte_budget")->asU64(), 100000000u);
  Service.drain();
  ::system(("rm -rf " + Dir).c_str());
}

TEST(ServiceTest, ShutdownFlipsTheFlagAndSubmitRejects) {
  AsdfService Service;
  ServiceRequest R;
  R.TheKind = ServiceRequest::Kind::Shutdown;
  R.Id = 1;
  EXPECT_FALSE(Service.shuttingDown());
  EXPECT_TRUE(Service.handle(R).Ok);
  EXPECT_TRUE(Service.shuttingDown());
  Service.drain();
  EXPECT_EQ(Service.submit(coinRunRequest(), [](ServiceResponse) {}),
            JobQueue::Submit::Draining)
      << "submit after drain must be rejected without running";
}

TEST(ServiceTest, OverCapRequestLineIsRefusedAndTheConnectionServesOn) {
  // A line one byte over the cap gets one bad-request naming the cap, its
  // bytes are dropped through its newline, and the next request on the
  // same connection is answered. The newline scan resumes where it
  // stopped, so reading the line costs time linear in its length.
  ServerOptions Options;
  Options.SocketPath =
      ::testing::TempDir() + "asdf-long-line-" + std::to_string(::getpid());
  Options.Service.Workers = 1;
  Server S(Options);
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;
  std::thread Serve([&] { S.serve(); });

  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Options.SocketPath.c_str(),
               sizeof(Addr.sun_path) - 1);
  ASSERT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)),
            0);
  std::string Out(Server::MaxRequestLineBytes + 1, 'x');
  Out += "\n{\"id\": 7, \"op\": \"stats\"}\n";
  for (size_t Sent = 0; Sent < Out.size();) {
    ssize_t N = ::send(Fd, Out.data() + Sent, Out.size() - Sent, 0);
    ASSERT_GT(N, 0);
    Sent += static_cast<size_t>(N);
  }
  std::string In;
  char Chunk[4096];
  while (std::count(In.begin(), In.end(), '\n') < 2) {
    ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
    ASSERT_GT(N, 0) << "the connection closed after: " << In;
    In.append(Chunk, static_cast<size_t>(N));
  }
  ::close(Fd);
  S.requestShutdown();
  Serve.join();

  std::string First = In.substr(0, In.find('\n'));
  std::string Second = In.substr(First.size() + 1);
  EXPECT_NE(First.find("\"kind\":\"bad-request\""), std::string::npos)
      << First;
  EXPECT_NE(First.find(std::to_string(Server::MaxRequestLineBytes)),
            std::string::npos)
      << First;
  EXPECT_NE(Second.find("\"id\":7"), std::string::npos) << Second;
  EXPECT_NE(Second.find("\"ok\":true"), std::string::npos) << Second;
}

TEST(ServiceTest, ClosedConnectionsReleaseTheirThreads) {
  // Every connection gets a reader thread. Once its client closes, the
  // thread must be joined, not kept with its stack mapping until the
  // daemon drains: 300 sequential connections would otherwise add about
  // 600 lines (a stack and its guard page each) to the process's maps.
  ServerOptions Options;
  Options.SocketPath =
      ::testing::TempDir() + "asdf-churn-" + std::to_string(::getpid());
  Options.Service.Workers = 1;
  Server S(Options);
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;
  std::thread Serve([&] { S.serve(); });

  // One connect, stats, close cycle; false if any step fails.
  auto StatsOnce = [&] {
    int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0)
      return false;
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    std::strncpy(Addr.sun_path, Options.SocketPath.c_str(),
                 sizeof(Addr.sun_path) - 1);
    std::string Line = "{\"id\": 1, \"op\": \"stats\"}\n";
    bool Ok = ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                        sizeof(Addr)) == 0 &&
              ::send(Fd, Line.data(), Line.size(), 0) ==
                  static_cast<ssize_t>(Line.size());
    std::string In;
    char Chunk[4096];
    while (Ok && In.find('\n') == std::string::npos) {
      ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
      Ok = N > 0;
      if (Ok)
        In.append(Chunk, static_cast<size_t>(N));
    }
    ::close(Fd);
    return Ok && In.find("\"ok\":true") != std::string::npos;
  };
  auto MapLines = [] {
    std::ifstream Maps("/proc/self/maps");
    std::string Line;
    size_t N = 0;
    while (std::getline(Maps, Line))
      ++N;
    return N;
  };

  // Warm up first, so the service's lazily made threads and the
  // allocator's arenas are in place before the count.
  for (int I = 0; I < 20; ++I)
    ASSERT_TRUE(StatsOnce()) << "warm-up connection " << I;
  size_t Before = MapLines();
  for (int I = 0; I < 300; ++I)
    ASSERT_TRUE(StatsOnce()) << "connection " << I;
  size_t After = MapLines();
  S.requestShutdown();
  Serve.join();

  ASSERT_GT(Before, 0u) << "cannot read /proc/self/maps";
  EXPECT_LT(After, Before + 100)
      << "maps grew from " << Before << " to " << After << " lines";
}

//===----------------------------------------------------------------------===//
// Load shedding and admission control
//===----------------------------------------------------------------------===//

TEST(ServiceShedTest, BoundedQueueShedsWithARetryHint) {
  ServiceOptions Options;
  Options.Workers = 1;
  Options.MaxQueueDepth = 2;
  AsdfService Service(Options);
  Service.queue().pause();
  std::atomic<int> Answered{0};
  auto Sink = [&](ServiceResponse) { Answered.fetch_add(1); };
  ASSERT_EQ(Service.submit(coinRunRequest(1), Sink),
            JobQueue::Submit::Accepted);
  ASSERT_EQ(Service.submit(coinRunRequest(2), Sink),
            JobQueue::Submit::Accepted);
  EXPECT_EQ(Service.submit(coinRunRequest(3), Sink),
            JobQueue::Submit::Overloaded);

  // The wire answer the server sends for that outcome: machine-readable
  // kind plus a bounded backoff hint.
  ServiceResponse Shed = Service.overloadedResponse(3);
  EXPECT_FALSE(Shed.Ok);
  EXPECT_EQ(Shed.Id, 3u);
  EXPECT_EQ(Shed.Error.Kind, "overloaded");
  EXPECT_GE(Shed.Error.RetryAfterMs, 25u);
  EXPECT_LE(Shed.Error.RetryAfterMs, 2000u);

  Service.queue().resume();
  Service.drain();
  EXPECT_EQ(Answered.load(), 2) << "accepted jobs still answer";

  ServiceRequest Stats;
  Stats.TheKind = ServiceRequest::Kind::Stats;
  Stats.Id = 9;
  ServiceResponse Resp = Service.handle(Stats);
  ASSERT_TRUE(Resp.Ok);
  EXPECT_EQ(Resp.StatsBody.get("requests")->get("shed_overloaded")->asU64(),
            1u);
  EXPECT_EQ(Resp.StatsBody.get("queue")->get("shed")->asU64(), 1u);
}

TEST(ServiceShedTest, RunMemoryBudgetRefusesOversizedStatevectors) {
  ServiceOptions Options;
  Options.Workers = 1;
  Options.RunMemoryBytes = 16; // One amplitude: even 1 qubit won't fit.
  AsdfService Service(Options);
  ServiceRequest R = coinRunRequest();
  R.Backend = "sv";
  ServiceResponse Resp = Service.handle(R);
  ASSERT_FALSE(Resp.Ok);
  EXPECT_EQ(Resp.Error.Kind, "resource-exhausted");
  EXPECT_NE(Resp.Error.Message.find("--run-mem-mb"), std::string::npos)
      << "the refusal must name the knob that raises the budget: "
      << Resp.Error.Message;

  ServiceRequest Stats;
  Stats.TheKind = ServiceRequest::Kind::Stats;
  Stats.Id = 2;
  ServiceResponse S = Service.handle(Stats);
  ASSERT_TRUE(S.Ok);
  EXPECT_EQ(S.StatsBody.get("requests")->get("shed_memory")->asU64(), 1u);
  Service.drain();
}

TEST(ServiceShedTest, RunMemoryBudgetAdmitsWhatFits) {
  ServiceOptions Options;
  Options.Workers = 1;
  Options.RunMemoryBytes = 1 << 20;
  AsdfService Service(Options);
  ServiceRequest R = coinRunRequest();
  R.Backend = "sv";
  ServiceResponse Resp = Service.handle(R);
  ASSERT_TRUE(Resp.Ok) << Resp.Error.Message;
  // The reservation is released after the run: repeats keep fitting.
  ServiceResponse Again = Service.handle(R);
  EXPECT_TRUE(Again.Ok) << Again.Error.Message;
  EXPECT_EQ(Again.Results, Resp.Results);
  Service.drain();
}

TEST(ServiceShedTest, ExpiredDeadlineCountsAsShed) {
  AsdfService Service(ServiceOptions{1});
  ServiceRequest R = coinRunRequest();
  ServiceResponse Resp = Service.handle(
      R, std::chrono::steady_clock::now() - std::chrono::seconds(1));
  ASSERT_FALSE(Resp.Ok);
  EXPECT_EQ(Resp.Error.Kind, "timeout");
  ServiceRequest Stats;
  Stats.TheKind = ServiceRequest::Kind::Stats;
  Stats.Id = 2;
  ServiceResponse S = Service.handle(Stats);
  ASSERT_TRUE(S.Ok);
  EXPECT_EQ(S.StatsBody.get("requests")->get("shed_expired")->asU64(), 1u);
  Service.drain();
}

//===----------------------------------------------------------------------===//
// Concurrency: N threads x M mixed requests == the serial reference
//===----------------------------------------------------------------------===//

TEST(ServiceConcurrencyTest, MixedLoadIsBitIdenticalToSerial) {
  // A pool of distinct programs (different secrets -> different cache
  // keys) plus per-request seeds: enough variety that hits, misses, and
  // evictions all happen under load.
  constexpr unsigned NumThreads = 8;
  constexpr unsigned PerThread = 12;

  auto makeRequest = [](unsigned T, unsigned I) {
    ServiceRequest R;
    R.Id = T * 1000 + I;
    if (I % 3 == 0) {
      R.TheKind = ServiceRequest::Kind::Compile;
      R.Source = BVSource;
      R.Bindings = bvBindings(I % 2 ? "1011" : "0110");
      R.Emit = (I % 6 == 0) ? std::string("qasm") : std::string("circuit");
    } else {
      R.TheKind = ServiceRequest::Kind::Run;
      R.Source = CoinSource;
      R.Shots = 16 + I;
      R.Seed = uint64_t(T) << 32 | I;
      R.Jobs = 1 + I % 3;
    }
    return R;
  };

  // Serial reference on a fresh service.
  std::vector<std::vector<ServiceResponse>> Want(NumThreads);
  {
    AsdfService Serial(ServiceOptions{1, ArtifactCache::DefaultByteBudget});
    for (unsigned T = 0; T < NumThreads; ++T)
      for (unsigned I = 0; I < PerThread; ++I)
        Want[T].push_back(Serial.handle(makeRequest(T, I)));
  }

  // Concurrent execution of the identical request set.
  AsdfService Service(ServiceOptions{4, ArtifactCache::DefaultByteBudget});
  std::vector<std::vector<ServiceResponse>> Got(NumThreads);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      for (unsigned I = 0; I < PerThread; ++I)
        Got[T].push_back(Service.handle(makeRequest(T, I)));
    });
  for (std::thread &Th : Threads)
    Th.join();

  for (unsigned T = 0; T < NumThreads; ++T)
    for (unsigned I = 0; I < PerThread; ++I) {
      const ServiceResponse &W = Want[T][I], &G = Got[T][I];
      ASSERT_EQ(G.Ok, W.Ok) << "thread " << T << " request " << I << ": "
                            << G.Error.Message;
      EXPECT_EQ(G.Artifact, W.Artifact) << "thread " << T << " req " << I;
      EXPECT_EQ(G.Results, W.Results) << "thread " << T << " req " << I;
      EXPECT_EQ(G.Key, W.Key) << "thread " << T << " req " << I;
    }

  // The duplicate programs across threads must have produced cache hits.
  EXPECT_GT(Service.cache().stats().Hits, 0u);
}

TEST(ServiceConcurrencyTest, SubmitCallbacksFireExactlyOnce) {
  AsdfService Service(ServiceOptions{4, ArtifactCache::DefaultByteBudget});
  constexpr unsigned N = 32;
  std::atomic<unsigned> Fired{0};
  std::vector<ServiceResponse> Out(N);
  std::atomic<unsigned> Done{0};
  for (unsigned I = 0; I < N; ++I)
    ASSERT_EQ(Service.submit(coinRunRequest(I, 8, I),
                             [&, I](ServiceResponse R) {
                               Out[I] = std::move(R);
                               Fired.fetch_add(1);
                               Done.fetch_add(1);
                             }),
              JobQueue::Submit::Accepted);
  Service.drain();
  EXPECT_EQ(Fired.load(), N);
  for (unsigned I = 0; I < N; ++I) {
    ASSERT_TRUE(Out[I].Ok) << Out[I].Error.Message;
    EXPECT_EQ(Out[I].Id, I);
    EXPECT_EQ(Out[I].Results, referenceRun(coinRunRequest(I, 8, I)))
        << "async result diverges from the serial reference";
  }
}

} // namespace
