//===- sweep_throughput.cpp - Parametric sweep vs recompile-per-point -----===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures what parametric compilation buys: a parameter sweep served by
/// the bind-params fast path (compile the $-parameterized program and
/// plan its fusion once, build the fused ops per point)
/// against the honest baseline — a full textual recompile of the program
/// with the literals substituted, once per sweep point.
///
///   - sweep points/sec through runSweep on the precompiled parametric
///     circuit (bar: >= 10x the recompile path's points/sec);
///   - the recompile path's points/sec (compile + run per point);
///   - a bit-identity audit: every fast-path point's shot results must
///     equal the recompiled point's, bit for bit — the fast path is an
///     optimization, never an approximation;
///   - a service leg: the same sweep served as one single-point bind-run
///     request per point through an in-process AsdfService, with client
///     latency quantiles computed through the shared obs::Histogram and
///     checked for exact agreement against the `stats` op's reported
///     bind_run histogram.
///
/// Usage: sweep_throughput [--smoke] [--json <path>] [N] [points] [shots]
///        (default N=6 points=64 shots=1; --smoke shrinks to 16 points)
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "obs/Metrics.h"
#include "service/Service.h"
#include "sim/Backend.h"
#include "sim/Simulator.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace asdf;

namespace {

double now() {
  using namespace std::chrono;
  return duration<double>(steady_clock::now().time_since_epoch()).count();
}

/// The sweep subject: a variational-style ansatz — rotation layers over
/// each basis family interleaved with basis translations — so the flat
/// circuit is rotation-rich (every layer's matrices are rebuilt per point)
/// while the structure — and the fusion plan — is angle-independent.
const char *ParametricSource =
    "qpu kernel[N]() -> bit[N] {\n"
    "    return 'p'[N] | std[N].rotate($a) | pm[N].rotate($b) | "
    "ij[N].rotate($c) | pm[N] >> std[N] | std[N].rotate($c) | "
    "pm[N].rotate($a) | ij[N].rotate($b) | pm[N] >> std[N] | "
    "std[N].rotate($b) | pm[N].rotate($c) | ij[N].rotate($a) | "
    "std[N].measure\n"
    "}\n";

std::string formatAngle(double D) {
  char Buf[64];
  std::to_chars_result R = std::to_chars(Buf, Buf + sizeof(Buf), D);
  return std::string(Buf, R.ptr);
}

/// The literal program for one sweep point: the parametric source with
/// each $param replaced by its decimal value (shortest round-trip form, so
/// the lexer reads back the identical double).
std::string substituteAngles(const std::vector<double> &Point) {
  std::string Src = ParametricSource;
  const char *Names[] = {"$a", "$b", "$c"};
  for (unsigned K = 0; K < 3; ++K) {
    std::string Lit = formatAngle(Point[K]);
    size_t At;
    while ((At = Src.find(Names[K])) != std::string::npos)
      Src.replace(At, 2, Lit);
  }
  return Src;
}

} // namespace

int main(int argc, char **argv) {
  BenchJson Json("sweep_throughput", argc, argv);
  bool Smoke = false;
  std::vector<unsigned> Args;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--smoke") == 0)
      Smoke = true;
    else
      Args.push_back(std::atoi(argv[I]));
  }
  unsigned N = Args.size() > 0 ? Args[0] : 6;
  unsigned NumPoints = Args.size() > 1 ? Args[1] : (Smoke ? 16 : 64);
  unsigned Shots = Args.size() > 2 ? Args[2] : 1;
  const unsigned Reps = Smoke ? 3 : 5;
  const uint64_t Seed = 0x5EEDull;

  Json.config("smoke", Smoke);
  Json.config("qubits", N);
  Json.config("points", NumPoints);
  Json.config("shots", Shots);
  std::printf("=== Sweep throughput (N=%u, %u point(s) x %u shot(s)%s) "
              "===\n\n",
              N, NumPoints, Shots, Smoke ? ", smoke" : "");
  bool Ok = true;

  ProgramBindings Bindings;
  Bindings.DimVars["N"] = static_cast<int>(N);
  std::vector<std::vector<double>> Points;
  for (unsigned P = 0; P < NumPoints; ++P)
    Points.push_back({360.0 * P / NumPoints + 0.5,
                      180.0 * P / NumPoints + 0.25,
                      90.0 * P / NumPoints + 0.125});

  // Serial execution plan: with per-point states this small, worker-pool
  // spin-up would dominate both paths and mask the compile-vs-bind delta
  // the bench exists to measure. Fusion stays on — the fast path's
  // structure memoization is half the point.
  RunOptions Opts;
  Opts.Jobs = 1;

  //===--- Fast path: compile once, bind per point ----------------------===//

  double T0 = now();
  CompileSession Session(ParametricSource, Bindings);
  Circuit *Flat = Session.flatCircuit();
  if (!Flat) {
    std::fprintf(stderr, "FAIL: compile: %s\n",
                 Session.errorMessage().c_str());
    return 1;
  }
  double CompileSecs = now() - T0;
  SimBackend &Backend =
      BackendRegistry::instance().select(*Flat, BackendKind::Auto);

  // Each path runs Reps times and keeps its best wall time — single runs
  // in a shared container swing 3x on scheduler noise, and the bench
  // compares steady-state costs, not scheduling luck. The first rep of
  // each doubles as warm-up; results come from the final rep.
  std::vector<std::vector<ShotResult>> Sweep;
  double SweepSecs = 1e30;
  for (unsigned R = 0; R < Reps; ++R) {
    T0 = now();
    Sweep = Backend.runSweep(*Flat, Points, Shots, Seed, Opts);
    SweepSecs = std::min(SweepSecs, now() - T0);
  }

  //===--- Baseline: full recompile per point ---------------------------===//

  std::vector<std::vector<ShotResult>> Recompiled;
  double RecompileSecs = 1e30;
  for (unsigned R = 0; R < Reps; ++R) {
    Recompiled.clear();
    T0 = now();
    for (unsigned P = 0; P < NumPoints; ++P) {
      CompileSession PointSession(substituteAngles(Points[P]), Bindings);
      Circuit *Bound = PointSession.flatCircuit();
      if (!Bound) {
        std::fprintf(stderr, "FAIL: recompile of point %u: %s\n", P,
                     PointSession.errorMessage().c_str());
        return 1;
      }
      Recompiled.push_back(Backend.runBatch(
          *Bound, Shots, deriveSweepPointSeed(Seed, P), Opts));
    }
    RecompileSecs = std::min(RecompileSecs, now() - T0);
  }

  //===--- Bit-identity audit -------------------------------------------===//

  size_t Mismatches = 0;
  for (unsigned P = 0; P < NumPoints; ++P) {
    if (Sweep[P].size() != Recompiled[P].size()) {
      ++Mismatches;
      continue;
    }
    for (unsigned S = 0; S < Sweep[P].size(); ++S)
      if (Sweep[P][S].Bits != Recompiled[P][S].Bits) {
        ++Mismatches;
        break;
      }
  }
  if (Mismatches) {
    std::fprintf(stderr,
                 "FAIL: %zu of %u fast-path point(s) diverge from the "
                 "recompile reference\n",
                 Mismatches, NumPoints);
    Ok = false;
  } else {
    std::printf("determinism: all %u points bit-identical to the "
                "recompile-per-point reference\n",
                NumPoints);
  }

  //===--- Rates ---------------------------------------------------------===//

  double SweepRate = NumPoints / SweepSecs;
  double RecompileRate = NumPoints / RecompileSecs;
  double Speedup = SweepRate / RecompileRate;
  std::printf("one-time compile: %.2f ms\n", 1e3 * CompileSecs);
  std::printf("%-22s | %10s | %12s\n", "path", "total-ms", "points/sec");
  std::printf("%-22s | %10.2f | %12.1f\n", "bind-params sweep",
              1e3 * SweepSecs, SweepRate);
  std::printf("%-22s | %10.2f | %12.1f\n", "recompile per point",
              1e3 * RecompileSecs, RecompileRate);
  std::printf("\nsweep speedup: %.1fx\n", Speedup);
  Json.metric("compile_ms", 1e3 * CompileSecs, "ms");
  Json.metric("sweep_points_per_sec", SweepRate, "points/sec");
  Json.metric("recompile_points_per_sec", RecompileRate, "points/sec");
  Json.metric("sweep_speedup", Speedup, "x");

  if (Speedup < 10.0) {
    std::fprintf(stderr,
                 "FAIL: bind-params sweep only %.1fx faster than full "
                 "recompile (bar: 10x)\n",
                 Speedup);
    Ok = false;
  }

  //===--- Service leg: one bind-run request per point ------------------===//

  // The daemon-shaped path: each point arrives as its own single-point
  // bind-run request, so the service's parametric cache (compile once,
  // rebind per request) carries the sweep. Client-side latencies go
  // through the same fixed-bucket histogram the service keeps, and the
  // quantiles a client re-derives from the stats op's bucket counts must
  // equal the service-reported ones exactly.
  {
    AsdfService Service(ServiceOptions{1, ArtifactCache::DefaultByteBudget});
    obs::Histogram ClientLat;
    double ServiceSecs = 0.0;
    for (unsigned P = 0; P < NumPoints && Ok; ++P) {
      ServiceRequest R;
      R.TheKind = ServiceRequest::Kind::BindRun;
      R.Id = P + 1;
      R.Source = ParametricSource;
      R.Bindings = Bindings;
      R.Shots = Shots;
      R.Seed = Seed;
      R.Jobs = 1;
      R.SweepParams = {"a", "b", "c"};
      R.Points = {Points[P]};
      double C0 = now();
      ServiceResponse Resp = Service.handle(R);
      double L = now() - C0;
      ServiceSecs += L;
      ClientLat.observe(L);
      if (!Resp.Ok) {
        std::fprintf(stderr, "FAIL: service bind-run of point %u: %s\n", P,
                     Resp.Error.Message.c_str());
        Ok = false;
      }
    }
    double ServiceRate = NumPoints / ServiceSecs;
    double P50Ms = 1e3 * ClientLat.quantile(0.50);
    double P99Ms = 1e3 * ClientLat.quantile(0.99);
    std::printf("\nservice leg: %u bind-run request(s) -> %.1f points/sec; "
                "per-request p50 %.3f ms, p99 %.3f ms\n",
                NumPoints, ServiceRate, P50Ms, P99Ms);
    Json.metric("service_points_per_sec", ServiceRate, "points/sec");
    Json.metric("service_request_p50_ms", P50Ms, "ms");
    Json.metric("service_request_p99_ms", P99Ms, "ms");

    json::Value Stats = Service.statsJson();
    const json::Value *Lat = Stats.get("latency");
    const json::Value *H = Lat ? Lat->get("bind_run") : nullptr;
    obs::Histogram Rebuilt;
    if (!H || !obs::Histogram::fromJson(*H, Rebuilt)) {
      std::fprintf(stderr,
                   "FAIL: stats latency.bind_run missing or malformed\n");
      Ok = false;
    } else if (Rebuilt.count() != NumPoints ||
               Rebuilt.quantile(0.50) != H->get("p50")->asDouble() ||
               Rebuilt.quantile(0.90) != H->get("p90")->asDouble() ||
               Rebuilt.quantile(0.99) != H->get("p99")->asDouble()) {
      std::fprintf(stderr,
                   "FAIL: latency.bind_run disagrees with the stats op "
                   "(count %llu want %u; rebuilt p99 %g reported %g)\n",
                   (unsigned long long)Rebuilt.count(), NumPoints,
                   Rebuilt.quantile(0.99), H->get("p99")->asDouble());
      Ok = false;
    } else {
      std::printf("stats agreement: latency.bind_run count %u, re-derived "
                  "p50/p90/p99 match the reported quantiles\n",
                  NumPoints);
    }
  }

  if (!Ok)
    return 1;
  std::printf("OK\n");
  return 0;
}
