//===- Trace.cpp - RAII spans over lock-free per-thread rings -------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"

#include "support/Json.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

namespace asdf {
namespace obs {

namespace detail {
std::atomic<bool> TracingEnabled{false};
} // namespace detail

namespace {

struct Event {
  char Name[48];
  char Cat[16];
  uint64_t StartNs;
  uint64_t DurNs;
  uint64_t TraceId;
  uint32_t Tid;
};

/// Single-producer ring: the owning thread writes Slots[Head % Capacity]
/// then release-stores Head; the exporter acquire-loads Head and reads
/// only completed slots. Full ring drops (Head never laps the exporter's
/// view because slots past Capacity are simply not written).
struct Ring {
  static constexpr size_t Capacity = 8192;
  Event Slots[Capacity];
  std::atomic<uint64_t> Head{0};
  std::atomic<uint64_t> Dropped{0};
  uint32_t Tid = 0;

  void push(const Event &E) {
    uint64_t H = Head.load(std::memory_order_relaxed);
    if (H >= Capacity) {
      Dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    Slots[H] = E;
    Head.store(H + 1, std::memory_order_release);
  }
};

/// Every ring ever made, and those whose thread has exited. A ring is one
/// lane: its Tid is its index, and it passes from an exited thread to the
/// next thread that records, so rings number the peak count of threads
/// recording at once rather than every thread ever started.
struct Registry {
  std::mutex Mu;
  std::vector<std::unique_ptr<Ring>> Rings;
  std::vector<Ring *> Free;
};

Registry &registry() {
  // Never destroyed: a thread exiting after static destruction still
  // returns its ring here.
  static Registry *R = new Registry;
  return *R;
}

/// Holds the calling thread's ring; hands it back on thread exit.
struct RingLease {
  Ring *R = nullptr;
  ~RingLease() {
    if (!R)
      return;
    Registry &G = registry();
    std::lock_guard<std::mutex> Lock(G.Mu);
    G.Free.push_back(R);
  }
};

/// The calling thread's ring: a free lane if one exists, else a new one.
/// The registry mutex orders the previous owner's writes before ours.
Ring &myRing() {
  thread_local RingLease L;
  if (!L.R) {
    Registry &G = registry();
    std::lock_guard<std::mutex> Lock(G.Mu);
    if (G.Free.empty()) {
      G.Rings.push_back(std::make_unique<Ring>());
      L.R = G.Rings.back().get();
      L.R->Tid = static_cast<uint32_t>(G.Rings.size() - 1);
    } else {
      L.R = G.Free.back();
      G.Free.pop_back();
    }
  }
  return *L.R;
}

uint64_t originNs() {
  static const uint64_t Origin =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  return Origin;
}

thread_local uint64_t CurrentTraceId = 0;

void copyInto(char *Dst, size_t Cap, const char *Src) {
  size_t Len = std::strlen(Src);
  if (Len >= Cap)
    Len = Cap - 1;
  std::memcpy(Dst, Src, Len);
  Dst[Len] = '\0';
}

} // namespace

void enableTracing() {
  originNs(); // Pin the clock origin before any span reads it.
  detail::TracingEnabled.store(true, std::memory_order_relaxed);
}

void disableTracing() {
  detail::TracingEnabled.store(false, std::memory_order_relaxed);
}

void clearTrace() {
  Registry &G = registry();
  std::lock_guard<std::mutex> Lock(G.Mu);
  for (auto &R : G.Rings) {
    R->Head.store(0, std::memory_order_release);
    R->Dropped.store(0, std::memory_order_relaxed);
  }
}

uint64_t nowNs() {
  uint64_t Now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now().time_since_epoch())
                     .count();
  return Now - originNs();
}

uint64_t currentTraceId() { return CurrentTraceId; }

TraceContext::TraceContext(uint64_t Id) : Saved(CurrentTraceId) {
  CurrentTraceId = Id;
}

TraceContext::~TraceContext() { CurrentTraceId = Saved; }

void emitSpan(const char *Name, const char *Cat, uint64_t StartNs,
              uint64_t DurNs, uint64_t TraceId) {
  if (!traceEnabled())
    return;
  Event E;
  copyInto(E.Name, sizeof(E.Name), Name);
  copyInto(E.Cat, sizeof(E.Cat), Cat);
  E.StartNs = StartNs;
  E.DurNs = DurNs;
  E.TraceId = TraceId;
  Ring &R = myRing();
  E.Tid = R.Tid;
  R.push(E);
}

Span::Span(const char *Name, const char *Cat) {
  if (!traceEnabled())
    return;
  Active = true;
  copyInto(NameBuf, sizeof(NameBuf), Name);
  copyInto(CatBuf, sizeof(CatBuf), Cat);
  StartNs = nowNs();
}

Span::Span(const char *Prefix, const std::string &Name, const char *Cat) {
  if (!traceEnabled())
    return;
  Active = true;
  std::snprintf(NameBuf, sizeof(NameBuf), "%s:%s", Prefix, Name.c_str());
  copyInto(CatBuf, sizeof(CatBuf), Cat);
  StartNs = nowNs();
}

Span::~Span() {
  if (!Active)
    return;
  emitSpan(NameBuf, CatBuf, StartNs, nowNs() - StartNs, CurrentTraceId);
}

std::string exportChromeTrace() {
  std::vector<Event> All;
  {
    Registry &G = registry();
    std::lock_guard<std::mutex> Lock(G.Mu);
    for (auto &R : G.Rings) {
      uint64_t H = R->Head.load(std::memory_order_acquire);
      for (uint64_t I = 0; I < H; ++I)
        All.push_back(R->Slots[I]);
    }
  }
  std::stable_sort(All.begin(), All.end(),
                   [](const Event &A, const Event &B) {
                     return A.StartNs < B.StartNs;
                   });
  json::Value Doc = json::Value::object();
  json::Value Events = json::Value::array();
  for (const Event &E : All) {
    json::Value Ev = json::Value::object();
    Ev.set("name", json::Value::str(E.Name));
    Ev.set("cat", json::Value::str(E.Cat));
    Ev.set("ph", json::Value::str("X"));
    // Chrome wants microseconds; keep sub-µs precision as a fraction.
    Ev.set("ts", json::Value::number(static_cast<double>(E.StartNs) / 1e3));
    Ev.set("dur", json::Value::number(static_cast<double>(E.DurNs) / 1e3));
    Ev.set("pid", json::Value::integer(static_cast<uint64_t>(1)));
    Ev.set("tid", json::Value::integer(static_cast<uint64_t>(E.Tid)));
    json::Value Args = json::Value::object();
    Args.set("trace", json::Value::integer(E.TraceId));
    Ev.set("args", std::move(Args));
    Events.push(std::move(Ev));
  }
  Doc.set("traceEvents", std::move(Events));
  return Doc.write();
}

bool writeChromeTrace(const std::string &Path) {
  std::string Body = exportChromeTrace();
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  size_t Written = std::fwrite(Body.data(), 1, Body.size(), F);
  bool Ok = Written == Body.size() && std::fputc('\n', F) != EOF;
  return std::fclose(F) == 0 && Ok;
}

uint64_t droppedSpanCount() {
  Registry &G = registry();
  std::lock_guard<std::mutex> Lock(G.Mu);
  uint64_t Total = 0;
  for (auto &R : G.Rings)
    Total += R->Dropped.load(std::memory_order_relaxed);
  return Total;
}

} // namespace obs
} // namespace asdf
