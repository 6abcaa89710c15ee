//===- FaultInject.h - Deterministic fault-injection points ---------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Named fault points for testing the service's recovery paths. A fault
/// point is a call to `fault::shouldFail("name")` at the place where a
/// real failure could happen (a disk write, a wire write, a compile
/// allocation); tests arm points by name and count so the Nth disk write
/// fails deterministically, with no timing or /dev/fault dependence.
///
/// The whole harness is compile-gated by ASDF_FAULT_INJECTION: in normal
/// builds every function is an inline no-op (`shouldFail` is a constant
/// false the optimizer deletes), so production binaries carry no fault
/// plumbing. CI builds one configuration with the gate ON and runs the
/// recovery suites against it.
///
/// Arming sources, in priority order:
///  - programmatic: `fault::arm("disk.write=1")` from a test;
///  - environment:  ASDF_FAULTS="disk.write=1,wire.torn-write=2@1"
///    (read once by `armFromEnv()`, which asdfd and asdfc call at startup
///    — the only way to arm a *spawned* process);
///  - wire: the test-only request field "fault" (docs/protocol.md),
///    accepted only by fault-injection builds.
///
/// Spec grammar: comma-separated `point=N` (the next N evaluations of
/// `point` fail) or `point=N@S` (skip S evaluations first, then fail N).
///
/// Points currently wired in (grep for the literal to find the site):
///   disk.write        DiskCache::put: the artifact write fails cleanly.
///   disk.torn-write   DiskCache::put: the file is truncated mid-payload
///                     (a torn write a crash could leave behind).
///   disk.read-corrupt DiskCache::get: a payload byte flips on read, as
///                     if the medium rotted under the checksum.
///   wire.torn-write   Server response write: half the line is sent, then
///                     the connection drops.
///   worker.stall      JobQueue worker: 150 ms stall before the job runs.
///   compile.bad-alloc Service compile: the compiler throws bad_alloc.
///                     asdfc: bad_alloc is thrown before compiling.
///
//===----------------------------------------------------------------------===//

#ifndef ASDF_SUPPORT_FAULTINJECT_H
#define ASDF_SUPPORT_FAULTINJECT_H

#include <cstdint>
#include <string>

namespace asdf {
namespace fault {

#ifdef ASDF_FAULT_INJECTION

inline constexpr bool Compiled = true;

/// Replaces the current arming with \p Spec (see the grammar above; the
/// empty string disarms everything). False + \p Error on a malformed spec.
bool arm(const std::string &Spec, std::string &Error);

/// Arms from $ASDF_FAULTS if set (malformed values abort loudly: a test
/// that mistypes a fault name must not silently pass). Called by asdfd and
/// asdfc at startup.
void armFromEnv();

/// Disarms every point and zeroes all counters.
void reset();

/// True if the named point should fail this evaluation. Every evaluation
/// is counted, armed or not, so tests can assert a path was exercised.
bool shouldFail(const char *Point);

/// How many evaluations of \p Point actually failed.
uint64_t fired(const char *Point);

/// How many times \p Point was evaluated.
uint64_t evaluated(const char *Point);

#else

inline constexpr bool Compiled = false;

inline bool arm(const std::string &, std::string &Error) {
  Error = "fault injection is not compiled into this build "
          "(configure with -DASDF_FAULT_INJECTION=ON)";
  return false;
}
inline void armFromEnv() {}
inline void reset() {}
inline bool shouldFail(const char *) { return false; }
inline uint64_t fired(const char *) { return 0; }
inline uint64_t evaluated(const char *) { return 0; }

#endif // ASDF_FAULT_INJECTION

} // namespace fault
} // namespace asdf

#endif // ASDF_SUPPORT_FAULTINJECT_H
