//===- Trace.h - RAII spans over lock-free per-thread rings ---------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Zero-dependency tracing spine (docs/observability.md). The model:
///
///   - `Span` is an RAII complete-event recorder: construction stamps the
///     start, destruction stamps the duration and appends one fixed-size
///     event to the calling thread's ring buffer. When tracing is disabled
///     (the default) every operation early-outs on one relaxed atomic
///     load; no allocation, no clock read, no ring traffic.
///   - Each thread owns a single-producer ring. The owner writes the slot
///     and release-stores the head; the exporter acquire-loads heads at a
///     quiescent point (workers joined, daemon drained). Full rings drop
///     new events rather than overwrite — an exporter never races a
///     writer over slot memory. An exited thread's ring, events and all,
///     passes to the next thread that records, so an exported tid names
///     a lane rather than one OS thread.
///   - A 64-bit trace id rides in thread-local storage (`TraceContext`)
///     and stamps every span, correlating one request's spans across the
///     wire decoder, queue worker, compiler passes, and simulator worker
///     threads. Id 0 means "unattributed".
///
/// `exportChromeTrace` renders everything recorded so far as Chrome
/// trace-event JSON, loadable in Perfetto or chrome://tracing.
///
//===----------------------------------------------------------------------===//

#ifndef ASDF_OBS_TRACE_H
#define ASDF_OBS_TRACE_H

#include <atomic>
#include <cstdint>
#include <string>

namespace asdf {
namespace obs {

namespace detail {
extern std::atomic<bool> TracingEnabled;
} // namespace detail

/// One relaxed load; the gate every trace operation checks first.
inline bool traceEnabled() {
  return detail::TracingEnabled.load(std::memory_order_relaxed);
}

void enableTracing();
void disableTracing();

/// Drops every recorded event (and the drop counters). Only safe at a
/// quiescent point — tests call it between cases after joining workers.
void clearTrace();

/// Monotonic nanoseconds since a process-wide origin (first call).
uint64_t nowNs();

/// The calling thread's current trace id (0 = unattributed).
uint64_t currentTraceId();

/// RAII trace-id scope: sets the thread's current id, restores the
/// previous one on destruction. Cheap enough to use unconditionally.
class TraceContext {
public:
  explicit TraceContext(uint64_t Id);
  ~TraceContext();
  TraceContext(const TraceContext &) = delete;
  TraceContext &operator=(const TraceContext &) = delete;

private:
  uint64_t Saved;
};

/// Appends one complete event retroactively — for spans whose bounds are
/// only known after the fact (wire decode learns its trace id from the
/// parsed request; queue wait learns its duration at pickup).
void emitSpan(const char *Name, const char *Cat, uint64_t StartNs,
              uint64_t DurNs, uint64_t TraceId);

/// RAII span: stamps [construction, destruction) as one complete event on
/// the calling thread, tagged with the thread's current trace id. Name
/// and category must either outlive the span or fit the fixed buffer —
/// both ctors copy into member arrays, so any lifetime works.
class Span {
public:
  Span(const char *Name, const char *Cat);
  /// Two-part name ("prefix:name") formatted into the fixed buffer only
  /// when tracing is enabled — callers with dynamic names (pass names)
  /// pay no allocation on the disabled path.
  Span(const char *Prefix, const std::string &Name, const char *Cat);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  char NameBuf[48];
  char CatBuf[16];
  uint64_t StartNs = 0;
  bool Active = false;
};

/// Renders all recorded events as a Chrome trace-event JSON document.
/// Call only at a quiescent point (no threads mid-span).
std::string exportChromeTrace();

/// Writes exportChromeTrace() to \p Path; false on I/O failure.
bool writeChromeTrace(const std::string &Path);

/// Events discarded because a thread's ring filled (diagnostic).
uint64_t droppedSpanCount();

} // namespace obs
} // namespace asdf

#endif // ASDF_OBS_TRACE_H
