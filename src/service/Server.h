//===- Server.h - NDJSON-over-unix-socket server for asdfd ----------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transport layer of asdfd: a SOCK_STREAM unix-domain listener whose
/// wire format is newline-delimited JSON (docs/protocol.md). Each accepted
/// connection gets a reader thread, joined once the connection closes;
/// every complete line becomes a `ServiceRequest` submitted to the shared
/// `AsdfService` worker pool, and the response line is written back under
/// a per-connection mutex — so one client can pipeline many requests and
/// responses come back as each finishes (correlated by `id`), while
/// requests from all connections share the daemon's workers and one
/// artifact cache.
///
/// A request line may hold at most Server::MaxRequestLineBytes bytes. A
/// longer one is answered with one `bad-request` and discarded through its
/// newline; the connection keeps serving.
///
/// When `accept` runs out of descriptors or memory, the accept loop logs
/// one line and backs off (10 ms, doubling to 500 ms), listening only for
/// shutdown, before it tries again; it does not spin on the queued
/// connection it cannot take.
///
/// Shutdown is graceful from either direction: a client `shutdown` op or
/// a SIGTERM/SIGINT (via `requestShutdown`, which is async-signal-safe:
/// one write to a self-pipe). Both paths stop the accept loop, let
/// in-flight requests finish and their responses flush, then remove the
/// socket file and return 0 from serve().
///
//===----------------------------------------------------------------------===//

#ifndef ASDF_SERVICE_SERVER_H
#define ASDF_SERVICE_SERVER_H

#include "service/Service.h"

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace asdf {

struct ServerOptions {
  std::string SocketPath;
  ServiceOptions Service;
  /// Log one line per connection and request to stderr.
  bool Verbose = false;
};

class Server {
public:
  /// The longest request line a connection reads, newline excluded:
  /// 16 MiB.
  static constexpr size_t MaxRequestLineBytes = size_t(16) << 20;

  explicit Server(ServerOptions Options);
  ~Server();

  /// Binds and listens on the socket path. A stale socket file (no daemon
  /// answering) is replaced; a live one is an error — two daemons must
  /// not fight over one path. Returns false with \p Error filled.
  bool start(std::string &Error);

  /// Runs the accept loop until a shutdown is requested, then drains:
  /// stops accepting, joins connection readers, completes queued
  /// requests, flushes responses, unlinks the socket. Returns the process
  /// exit code (0 on a clean drain).
  int serve();

  /// Triggers a graceful drain. Async-signal-safe (one byte to a pipe);
  /// the signal handlers of asdfd call this.
  void requestShutdown();

  const std::string &socketPath() const { return Options.SocketPath; }
  AsdfService &service() { return Service; }

private:
  void connectionMain(int Fd);
  /// Joins the readers that have finished since the last call; only the
  /// accept loop calls it.
  void joinFinishedConnections();

  ServerOptions Options;
  AsdfService Service;
  int ListenFd = -1;
  int WakePipe[2] = {-1, -1};
  std::atomic<bool> Shutdown{false};

  /// Connection readers by thread id. A reader queues its id in
  /// FinishedConns as it exits, and the accept loop joins it there, so a
  /// closed connection's thread and stack do not outlive it.
  std::map<std::thread::id, std::thread> Connections;
  /// Guards LiveConnFds and FinishedConns.
  std::mutex ConnsMu;
  /// Live connection fds, so drain can wake readers blocked in recv.
  std::set<int> LiveConnFds;
  std::vector<std::thread::id> FinishedConns;
};

} // namespace asdf

#endif // ASDF_SERVICE_SERVER_H
