//===- Client.cpp - Blocking NDJSON client for asdfd ----------------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Client.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace asdf;

namespace {

/// splitmix64: the repo's standard cheap deterministic stream (Rng.h uses
/// the same finalizer). Jitter must not consume the process-global RNG.
uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

} // namespace

ServiceClient::~ServiceClient() { close(); }

void ServiceClient::close() {
  if (Fd >= 0)
    ::close(Fd);
  Fd = -1;
  Buffer.clear();
  Scanned = 0;
}

bool ServiceClient::connect(const std::string &SocketPath,
                            std::string &Error) {
  Path = SocketPath;
  return reconnect(Error);
}

bool ServiceClient::reconnect(std::string &Error) {
  close();
  LastFail = FailKind::None;
  if (Path.empty()) {
    LastFail = FailKind::ConnectFailed;
    Error = "no socket path to reconnect to";
    return false;
  }
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    LastFail = FailKind::ConnectFailed;
    Error = "socket path too long";
    return false;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    LastFail = FailKind::ConnectFailed;
    Error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
      0) {
    LastFail = FailKind::ConnectFailed;
    Error = "cannot connect to daemon at " + Path + ": " +
            std::strerror(errno);
    close();
    return false;
  }
  return true;
}

bool ServiceClient::call(const ServiceRequest &R, ServiceResponse &Out,
                         std::string &Error, double RecvTimeoutSecs) {
  LastFail = FailKind::None;
  if (Fd < 0) {
    LastFail = FailKind::ConnectFailed;
    Error = "not connected";
    return false;
  }
  std::string Line = R.toJson().write() + "\n";
  size_t Off = 0;
  while (Off < Line.size()) {
    ssize_t N =
        ::send(Fd, Line.data() + Off, Line.size() - Off, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      if (errno == EPIPE || errno == ECONNRESET) {
        // The daemon went away between our connect and this send (killed,
        // restarted): retryable, and distinct from a protocol error.
        LastFail = FailKind::ConnectionLost;
        Error = std::string("connection-lost: send failed (") +
                std::strerror(errno) + ")";
        return false;
      }
      LastFail = FailKind::ConnectFailed;
      Error = std::string("send: ") + std::strerror(errno);
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  // Read until the matching id: a pipelined peer may interleave other
  // responses first.
  while (true) {
    std::string RespLine;
    if (!readLine(RespLine, Error, RecvTimeoutSecs))
      return false;
    json::Value V;
    if (!json::parse(RespLine, V, Error)) {
      LastFail = FailKind::Malformed;
      Error = "malformed response: " + Error;
      return false;
    }
    ServiceResponse Resp;
    if (!ServiceResponse::fromJson(V, Resp, Error)) {
      LastFail = FailKind::Malformed;
      return false;
    }
    if (Resp.Id == R.Id) {
      Out = std::move(Resp);
      return true;
    }
  }
}

bool ServiceClient::callWithRetry(const ServiceRequest &R,
                                  ServiceResponse &Out, std::string &Error,
                                  const RetryPolicy &Policy,
                                  double RecvTimeoutSecs,
                                  unsigned *RetriesUsed) {
  using Clock = std::chrono::steady_clock;
  Clock::time_point Start = Clock::now();
  uint64_t Seed = Policy.JitterSeed ? Policy.JitterSeed : R.Id + 1;
  if (RetriesUsed)
    *RetriesUsed = 0;
  for (unsigned Attempt = 0;; ++Attempt) {
    bool TransportOk = connected() || reconnect(Error);
    uint64_t HintMs = 0;
    if (TransportOk) {
      if (call(R, Out, Error, RecvTimeoutSecs)) {
        // A daemon-side refusal that promises capacity later is retried
        // like a transport failure; every other error is final.
        bool RetryableErr =
            !Out.Ok && (Out.Error.Kind == "overloaded" ||
                        Out.Error.Kind == "resource-exhausted" ||
                        Out.Error.Kind == "shutting-down");
        if (!RetryableErr)
          return true;
        HintMs = Out.Error.RetryAfterMs;
        Error = Out.Error.Kind + ": " + Out.Error.Message;
      } else if (LastFail != FailKind::ConnectionLost &&
                 LastFail != FailKind::ConnectFailed) {
        return false; // Timeout/malformed: replaying will not help.
      } else {
        close(); // Half-dead socket; the next attempt re-dials.
      }
    }
    if (Attempt >= Policy.MaxRetries)
      return false;
    // Exponential backoff with full jitter, floored by the server hint.
    uint64_t Step = Policy.BaseDelayMs << std::min<unsigned>(Attempt, 20);
    Step = std::min(std::max(Step, Policy.BaseDelayMs), Policy.MaxDelayMs);
    uint64_t Delay = Step / 2 + mix64(Seed + Attempt) % (Step / 2 + 1);
    Delay = std::max(Delay, HintMs);
    if (Policy.BudgetMs) {
      uint64_t ElapsedMs = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              Clock::now() - Start)
              .count());
      if (ElapsedMs + Delay > Policy.BudgetMs) {
        Error += " (retry budget of " + std::to_string(Policy.BudgetMs) +
                 " ms exhausted after " + std::to_string(Attempt + 1) +
                 " attempt(s))";
        return false;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(Delay));
    if (RetriesUsed)
      ++*RetriesUsed;
  }
}

bool ServiceClient::readLine(std::string &Line, std::string &Error,
                             double TimeoutSecs) {
  while (true) {
    size_t Nl = Buffer.find('\n', Scanned);
    if (Nl != std::string::npos) {
      Line = Buffer.substr(0, Nl);
      Buffer.erase(0, Nl + 1);
      Scanned = 0;
      return true;
    }
    Scanned = Buffer.size(); // The next scan resumes here.
    if (TimeoutSecs > 0) {
      pollfd P{Fd, POLLIN, 0};
      int Ready = ::poll(&P, 1, static_cast<int>(TimeoutSecs * 1000));
      if (Ready == 0) {
        LastFail = FailKind::Timeout;
        Error = "timed out waiting for the daemon's response";
        return false;
      }
      if (Ready < 0) {
        if (errno == EINTR)
          continue;
        LastFail = FailKind::ConnectFailed;
        Error = std::string("poll: ") + std::strerror(errno);
        return false;
      }
    }
    char Chunk[4096];
    ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      if (errno == ECONNRESET) {
        LastFail = FailKind::ConnectionLost;
        Error = "connection-lost: connection reset by the daemon";
        return false;
      }
      LastFail = FailKind::ConnectFailed;
      Error = std::string("recv: ") + std::strerror(errno);
      return false;
    }
    if (N == 0) {
      // EOF mid-request — torn write or a killed daemon. This is a
      // transport death, NOT a malformed response: the buffered partial
      // line (if any) must not be fed to the JSON parser and misreported.
      LastFail = FailKind::ConnectionLost;
      Error = Buffer.empty()
                  ? "connection-lost: daemon closed the connection before "
                    "a full response"
                  : "connection-lost: daemon closed the connection mid-"
                    "response (" +
                        std::to_string(Buffer.size()) +
                        " partial byte(s) discarded)";
      Buffer.clear();
      Scanned = 0;
      return false;
    }
    Buffer.append(Chunk, static_cast<size_t>(N));
  }
}
