//===- Metrics.cpp - Metric catalog and fixed-bucket histograms -----------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"

#include <cmath>
#include <cstdio>

namespace asdf {
namespace obs {

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

const std::array<double, Histogram::NumFinite> &Histogram::bounds() {
  // 1-2-5 ladder, 1µs through 50s, capped with a 60s bucket (the
  // service's own timeout ceiling).
  static const std::array<double, NumFinite> B = {
      1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4,
      1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1, 2e-1, 5e-1,
      1.0,  2.0,  5.0,  10.0, 20.0, 50.0, 60.0};
  return B;
}

void Histogram::observe(double Seconds) {
  const auto &B = bounds();
  size_t I = 0;
  while (I < NumFinite && Seconds > B[I])
    ++I;
  Buckets[I].fetch_add(1, std::memory_order_relaxed);
  Cnt.fetch_add(1, std::memory_order_relaxed);
  // No atomic fetch_add for double pre-C++20-TS everywhere; CAS loop.
  double Old = Sum.load(std::memory_order_relaxed);
  while (!Sum.compare_exchange_weak(Old, Old + Seconds,
                                    std::memory_order_relaxed))
    ;
}

double Histogram::quantile(double Q) const {
  uint64_t N = count();
  if (N == 0)
    return 0.0;
  if (Q < 0.0)
    Q = 0.0;
  if (Q > 1.0)
    Q = 1.0;
  uint64_t Rank = static_cast<uint64_t>(std::ceil(Q * N));
  if (Rank == 0)
    Rank = 1;
  uint64_t Seen = 0;
  for (size_t I = 0; I < NumBuckets; ++I) {
    Seen += bucketCount(I);
    if (Seen >= Rank)
      return I < NumFinite ? bounds()[I] : bounds()[NumFinite - 1];
  }
  return bounds()[NumFinite - 1];
}

json::Value Histogram::toJson() const {
  json::Value V = json::Value::object();
  json::Value B = json::Value::array();
  for (size_t I = 0; I < NumBuckets; ++I)
    B.push(json::Value::integer(bucketCount(I)));
  V.set("buckets", std::move(B));
  V.set("count", json::Value::integer(count()));
  V.set("sum", json::Value::number(sum()));
  V.set("p50", json::Value::number(quantile(0.50)));
  V.set("p90", json::Value::number(quantile(0.90)));
  V.set("p99", json::Value::number(quantile(0.99)));
  return V;
}

bool Histogram::fromJson(const json::Value &V, Histogram &Out) {
  if (!V.isObject())
    return false;
  const json::Value *B = V.get("buckets");
  const json::Value *Cnt = V.get("count");
  const json::Value *Sum = V.get("sum");
  if (!B || !B->isArray() || B->elements().size() != NumBuckets || !Cnt ||
      !Sum)
    return false;
  uint64_t Total = 0;
  for (size_t I = 0; I < NumBuckets; ++I) {
    uint64_t C = B->elements()[I].asU64();
    Out.Buckets[I].store(C, std::memory_order_relaxed);
    Total += C;
  }
  if (Total != Cnt->asU64())
    return false;
  Out.Cnt.store(Total, std::memory_order_relaxed);
  Out.Sum.store(Sum->asDouble(), std::memory_order_relaxed);
  return true;
}

//===----------------------------------------------------------------------===//
// MetricsRegistry
//===----------------------------------------------------------------------===//

MetricsRegistry::Entry &MetricsRegistry::add(Kind K, const std::string &Name,
                                              const std::string &Path,
                                              const std::string &Help) {
  for (Entry &E : Entries)
    if (E.Name == Name)
      return E;
  return Entries.emplace_back(Entry{Name, Path, Help, K, {}, {}, {}});
}

Histogram &MetricsRegistry::histogram(const std::string &Name,
                                      const std::string &Path,
                                      const std::string &Help) {
  std::lock_guard<std::mutex> Lock(Mu);
  Entry &E = add(Kind::Histogram, Name, Path, Help);
  if (!E.H)
    E.H = std::make_unique<obs::Histogram>();
  return *E.H;
}

void MetricsRegistry::counterFn(const std::string &Name,
                                const std::string &Path,
                                const std::string &Help,
                                std::function<uint64_t()> Fn) {
  std::lock_guard<std::mutex> Lock(Mu);
  Entry &E = add(Kind::Counter, Name, Path, Help);
  if (!E.CFn)
    E.CFn = std::move(Fn);
}

void MetricsRegistry::gaugeFn(const std::string &Name,
                              const std::string &Path,
                              const std::string &Help,
                              std::function<double()> Fn) {
  std::lock_guard<std::mutex> Lock(Mu);
  Entry &E = add(Kind::Gauge, Name, Path, Help);
  if (!E.GFn)
    E.GFn = std::move(Fn);
}

namespace {

/// Shortest %g form that still distinguishes every bucket bound.
std::string formatDouble(double D) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", D);
  // Trim to the shortest representation that round-trips.
  for (int Prec = 1; Prec < 17; ++Prec) {
    char Short[64];
    std::snprintf(Short, sizeof(Short), "%.*g", Prec, D);
    double Back = 0.0;
    std::sscanf(Short, "%lf", &Back);
    if (Back == D)
      return Short;
  }
  return Buf;
}

} // namespace

std::string MetricsRegistry::renderPrometheus() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::string Out;
  Out.reserve(4096);
  auto Line = [&Out](const std::string &S) {
    Out += S;
    Out += '\n';
  };
  for (const Entry &E : Entries) {
    Line("# HELP " + E.Name + " " + E.Help);
    switch (E.K) {
    case Kind::Counter:
      Line("# TYPE " + E.Name + " counter");
      Line(E.Name + " " + std::to_string(E.CFn()));
      break;
    case Kind::Gauge:
      Line("# TYPE " + E.Name + " gauge");
      Line(E.Name + " " + formatDouble(E.GFn()));
      break;
    case Kind::Histogram: {
      Line("# TYPE " + E.Name + " histogram");
      uint64_t Cum = 0;
      for (size_t I = 0; I < obs::Histogram::NumFinite; ++I) {
        Cum += E.H->bucketCount(I);
        Line(E.Name + "_bucket{le=\"" +
             formatDouble(obs::Histogram::bounds()[I]) + "\"} " +
             std::to_string(Cum));
      }
      Cum += E.H->bucketCount(obs::Histogram::NumFinite);
      Line(E.Name + "_bucket{le=\"+Inf\"} " + std::to_string(Cum));
      Line(E.Name + "_sum " + formatDouble(E.H->sum()));
      Line(E.Name + "_count " + std::to_string(E.H->count()));
      break;
    }
    }
  }
  return Out;
}

json::Value MetricsRegistry::toJson() const {
  std::lock_guard<std::mutex> Lock(Mu);
  json::Value Root = json::Value::object();
  for (const Entry &E : Entries) {
    if (E.Path.empty())
      continue;
    json::Value *Obj = &Root;
    std::string Key = E.Path;
    for (size_t Dot = Key.find('.'); Dot != std::string::npos;
         Dot = Key.find('.')) {
      std::string Section = Key.substr(0, Dot);
      Key.erase(0, Dot + 1);
      if (!Obj->get(Section))
        Obj->set(Section, json::Value::object());
      Obj = Obj->get(Section);
    }
    switch (E.K) {
    case Kind::Counter:
      Obj->set(Key, json::Value::integer(E.CFn()));
      break;
    case Kind::Gauge: {
      // Sizes, counts and budgets must stay exact integers: number()
      // writes 100000000 as 1e+08, which asU64 reads back as 1.
      double V = E.GFn();
      Obj->set(Key, std::trunc(V) == V && std::fabs(V) < 0x1p63
                        ? json::Value::integer(static_cast<int64_t>(V))
                        : json::Value::number(V));
      break;
    }
    case Kind::Histogram:
      Obj->set(Key, E.H->toJson());
      break;
    }
  }
  return Root;
}

} // namespace obs
} // namespace asdf
