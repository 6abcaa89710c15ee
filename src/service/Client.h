//===- Client.h - Blocking NDJSON client for asdfd ------------------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal synchronous client for the asdfd protocol: connect to the
/// unix socket, write one request line, read response lines until the one
/// whose `id` matches. asdf-cli is a thin shell around this class, and the
/// integration tests use it to talk to a freshly spawned daemon.
///
/// Transport failures are classified, not just stringified: an EOF or a
/// reset mid-response is `FailKind::ConnectionLost` (the daemon died, was
/// killed, or tore the write) — distinct from a response that parsed but
/// carried an error, and from a response that never parsed. On top of
/// that, `callWithRetry` implements the standard recovery loop: reconnect
/// and replay with exponential backoff plus deterministic jitter, honoring
/// the daemon's `retry_after_ms` hint on overloaded / resource-exhausted
/// errors. Replaying is safe because requests are deterministic and
/// content-keyed — a replay either hits the cache or recomputes the exact
/// same bits (the service determinism contract).
///
//===----------------------------------------------------------------------===//

#ifndef ASDF_SERVICE_CLIENT_H
#define ASDF_SERVICE_CLIENT_H

#include "service/Request.h"

#include <string>

namespace asdf {

class ServiceClient {
public:
  /// Why a call() failed at the transport layer (valid when call()
  /// returned false).
  enum class FailKind {
    None,           ///< The last call succeeded.
    ConnectFailed,  ///< No daemon at the socket (refused / missing path).
    ConnectionLost, ///< EOF, reset, or broken pipe mid-request — the
                    ///< daemon died or restarted under us. Retryable.
    Timeout,        ///< RecvTimeoutSecs elapsed with no response line.
    Malformed,      ///< A full line arrived but was not a valid response.
  };

  /// Knobs for callWithRetry. Defaults retry nothing (MaxRetries 0).
  struct RetryPolicy {
    unsigned MaxRetries = 0;   ///< Retries after the first attempt.
    uint64_t BudgetMs = 10000; ///< Total time across retries; 0 = none.
    uint64_t BaseDelayMs = 25; ///< First backoff step.
    uint64_t MaxDelayMs = 1000;
    uint64_t JitterSeed = 0;   ///< Deterministic jitter stream (tests pin
                               ///< it; 0 derives from the request id).
  };

  ServiceClient() = default;
  ~ServiceClient();

  ServiceClient(const ServiceClient &) = delete;
  ServiceClient &operator=(const ServiceClient &) = delete;

  /// Connects to the daemon at \p SocketPath. False + \p Error on failure
  /// (no daemon, permission, path too long). The path is remembered for
  /// reconnect().
  bool connect(const std::string &SocketPath, std::string &Error);

  /// Re-dials the last connect()ed path (after a lost connection).
  bool reconnect(std::string &Error);

  /// Sends \p R and blocks until the response with the same id arrives.
  /// \p RecvTimeoutSecs bounds the wait for *each* response line
  /// (<= 0: wait forever). False + \p Error on transport failure — a
  /// request the daemon answered with ok=false still returns true here,
  /// with the error in \p Out.Error. On false, failKind() says why; a
  /// ConnectionLost error string is prefixed "connection-lost:" and names
  /// the errno and any partial bytes, never "malformed response".
  bool call(const ServiceRequest &R, ServiceResponse &Out,
            std::string &Error, double RecvTimeoutSecs = 0.0);

  /// call() plus recovery: on ConnectionLost/ConnectFailed, and on daemon
  /// errors with kind overloaded / resource-exhausted / shutting-down,
  /// reconnects and replays up to Policy.MaxRetries times within
  /// Policy.BudgetMs, sleeping max(backoff, server retry_after_ms) with
  /// deterministic jitter between attempts. \p RetriesUsed (optional)
  /// reports how many retries ran. Returns like call(); a final failed
  /// attempt's error/failKind is reported verbatim.
  bool callWithRetry(const ServiceRequest &R, ServiceResponse &Out,
                     std::string &Error, const RetryPolicy &Policy,
                     double RecvTimeoutSecs = 0.0,
                     unsigned *RetriesUsed = nullptr);

  FailKind failKind() const { return LastFail; }
  bool connected() const { return Fd >= 0; }
  void close();

private:
  bool readLine(std::string &Line, std::string &Error,
                double TimeoutSecs);

  int Fd = -1;
  std::string Buffer;
  size_t Scanned = 0; ///< Buffer[0, Scanned) holds no newline.
  std::string Path;
  FailKind LastFail = FailKind::None;
};

} // namespace asdf

#endif // ASDF_SERVICE_CLIENT_H
