//===- Server.cpp - NDJSON-over-unix-socket server for asdfd --------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Server.h"

#include "obs/Trace.h"
#include "support/FaultInject.h"

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <set>
#include <system_error>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace asdf;

namespace {

/// Per-connection shared state: the fd, a write lock serializing response
/// lines, and an outstanding-request count the reader waits on before
/// closing — a response callback may fire on a worker thread after the
/// client half-closed.
struct ConnState {
  explicit ConnState(int Fd) : Fd(Fd) {}

  void begin() {
    std::lock_guard<std::mutex> Lock(Mu);
    ++Outstanding;
  }
  void done() {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      --Outstanding;
    }
    Cv.notify_all();
  }
  void waitDrained() {
    std::unique_lock<std::mutex> Lock(Mu);
    Cv.wait(Lock, [this] { return Outstanding == 0; });
  }

  /// Writes one NDJSON line; short writes are continued, EPIPE (client
  /// gone) is swallowed — the request still ran, there is just no one to
  /// tell.
  void writeLine(const std::string &Json) {
    std::lock_guard<std::mutex> Lock(WriteMu);
    std::string Line = Json + "\n";
    if (fault::shouldFail("wire.torn-write")) {
      // Deliver half the line, then kill the connection: the client must
      // classify this as connection-lost, not as malformed JSON.
      size_t Half = Line.size() / 2;
      size_t Sent = 0;
      while (Sent < Half) {
        ssize_t N = ::send(Fd, Line.data() + Sent, Half - Sent,
                           MSG_NOSIGNAL);
        if (N <= 0)
          break;
        Sent += static_cast<size_t>(N);
      }
      ::shutdown(Fd, SHUT_RDWR);
      return;
    }
    size_t Off = 0;
    while (Off < Line.size()) {
      ssize_t N = ::send(Fd, Line.data() + Off, Line.size() - Off,
                         MSG_NOSIGNAL);
      if (N < 0) {
        if (errno == EINTR)
          continue;
        return;
      }
      Off += static_cast<size_t>(N);
    }
  }

  int Fd;
  std::mutex WriteMu;
  std::mutex Mu;
  std::condition_variable Cv;
  unsigned Outstanding = 0;
};

} // namespace

Server::Server(ServerOptions Options)
    : Options(std::move(Options)), Service(this->Options.Service) {}

Server::~Server() {
  if (ListenFd >= 0)
    ::close(ListenFd);
  for (int End : WakePipe)
    if (End >= 0)
      ::close(End);
}

bool Server::start(std::string &Error) {
  const std::string &Path = Options.SocketPath;
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    Error = "socket path too long (" + std::to_string(Path.size()) +
            " bytes; the unix-socket limit is " +
            std::to_string(sizeof(Addr.sun_path) - 1) + ")";
    return false;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);

  if (::pipe(WakePipe) != 0) {
    Error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }

  ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0) {
    Error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr),
             sizeof(Addr)) != 0) {
    if (errno != EADDRINUSE) {
      Error = std::string("bind ") + Path + ": " + std::strerror(errno);
      return false;
    }
    // A socket file exists. If a daemon answers, refuse; otherwise it is
    // a stale file from an unclean exit — reclaim it.
    int Probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    bool Live = Probe >= 0 &&
                ::connect(Probe, reinterpret_cast<sockaddr *>(&Addr),
                          sizeof(Addr)) == 0;
    if (Probe >= 0)
      ::close(Probe);
    if (Live) {
      Error = "another daemon is already serving " + Path;
      return false;
    }
    ::unlink(Path.c_str());
    if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr),
               sizeof(Addr)) != 0) {
      Error = std::string("bind ") + Path + ": " + std::strerror(errno);
      return false;
    }
  }
  if (::listen(ListenFd, 64) != 0) {
    Error = std::string("listen: ") + std::strerror(errno);
    return false;
  }
  return true;
}

void Server::requestShutdown() {
  // Async-signal-safe: set the flag and poke the accept loop.
  Shutdown.store(true);
  char Byte = 1;
  [[maybe_unused]] ssize_t N = ::write(WakePipe[1], &Byte, 1);
}

int Server::serve() {
  // While accept runs out of descriptors or memory, the refused connection
  // stays queued and the listening socket stays readable. So the loop
  // logs once per episode and waits on the wake pipe alone for BackoffMs
  // (doubling up to MaxBackoffMs) before it polls the socket again.
  constexpr int MinBackoffMs = 10, MaxBackoffMs = 500;
  int BackoffMs = 0;
  while (!Shutdown.load()) {
    if (BackoffMs) {
      pollfd Wake = {WakePipe[0], POLLIN, 0};
      if (::poll(&Wake, 1, BackoffMs) > 0)
        break; // Woken for shutdown.
    }
    pollfd Fds[2] = {{ListenFd, POLLIN, 0}, {WakePipe[0], POLLIN, 0}};
    int Ready = ::poll(Fds, 2, -1);
    if (Ready < 0) {
      if (errno == EINTR)
        continue;
      std::fprintf(stderr, "asdfd: poll: %s\n", std::strerror(errno));
      break;
    }
    if (Fds[1].revents)
      break; // Woken for shutdown.
    if (!(Fds[0].revents & POLLIN))
      continue;
    int Conn = ::accept(ListenFd, nullptr, nullptr);
    if (Conn < 0) {
      int Err = errno;
      if (Err == EINTR)
        continue;
      if (Err == EMFILE || Err == ENFILE || Err == ENOBUFS || Err == ENOMEM) {
        if (!BackoffMs)
          std::fprintf(stderr,
                       "asdfd: accept: %s; backing off until resources free "
                       "up\n",
                       std::strerror(Err));
        BackoffMs = std::clamp(2 * BackoffMs, MinBackoffMs, MaxBackoffMs);
        continue;
      }
      std::fprintf(stderr, "asdfd: accept: %s\n", std::strerror(Err));
      continue;
    }
    BackoffMs = 0;
    if (Options.Verbose)
      std::fprintf(stderr, "asdfd: connection fd=%d\n", Conn);
    joinFinishedConnections();
    try {
      std::thread Reader([this, Conn] { connectionMain(Conn); });
      std::thread::id Id = Reader.get_id();
      Connections.emplace(Id, std::move(Reader));
    } catch (const std::system_error &E) {
      // No thread for this connection: refuse it and keep serving.
      std::fprintf(stderr, "asdfd: connection thread: %s\n", E.what());
      ::close(Conn);
    }
  }

  // Graceful drain: no new connections, wake blocked readers, let every
  // accepted request finish and its response flush, then remove the
  // socket so the path is immediately reusable.
  ::close(ListenFd);
  ListenFd = -1;
  {
    std::lock_guard<std::mutex> Lock(ConnsMu);
    for (int Fd : LiveConnFds)
      ::shutdown(Fd, SHUT_RD); // Readers see EOF and finish up.
  }
  for (auto &[Id, Reader] : Connections)
    Reader.join();
  Service.drain();
  ::unlink(Options.SocketPath.c_str());
  if (Options.Verbose)
    std::fprintf(stderr, "asdfd: drained, exiting\n");
  return 0;
}

void Server::connectionMain(int Fd) {
  auto State = std::make_shared<ConnState>(Fd);
  {
    std::lock_guard<std::mutex> Lock(ConnsMu);
    LiveConnFds.insert(Fd);
  }
  std::string Buffer;
  // Buffer[0, Scanned) holds no newline: each scan resumes there, so a
  // long line costs time linear in its length.
  size_t Scanned = 0;
  // Set once an over-cap line is answered: its bytes are dropped through
  // its newline.
  bool Discarding = false;
  auto RefuseLongLine = [&] {
    State->writeLine(
        Service
            .refuse(0, "bad-request",
                    "request line longer than " +
                        std::to_string(MaxRequestLineBytes) +
                        " bytes (16 MiB); discarded through its newline")
            .toJson()
            .write());
  };
  char Chunk[4096];
  bool Open = true;
  while (Open) {
    ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (N == 0)
      break; // EOF (client done, or drain woke us via SHUT_RD).
    Buffer.append(Chunk, static_cast<size_t>(N));
    size_t Start = 0;
    for (size_t Nl = Buffer.find('\n', Scanned); Nl != std::string::npos;
         Nl = Buffer.find('\n', Scanned)) {
      std::string Line = Buffer.substr(Start, Nl - Start);
      Start = Scanned = Nl + 1;
      if (Discarding) {
        Discarding = false; // The over-cap line ends here.
        continue;
      }
      if (Line.size() > MaxRequestLineBytes) {
        RefuseLongLine();
        continue;
      }
      if (Line.empty())
        continue;
      ServiceRequest Req;
      uint64_t Id = 0;
      std::string Error;
      // The trace id lives inside the line being decoded, so the decode
      // span is emitted retroactively once the parse has produced it.
      uint64_t DecodeT0 = obs::traceEnabled() ? obs::nowNs() : 0;
      if (!parseRequestLine(Line, Req, Id, Error)) {
        State->writeLine(
            Service.refuse(Id, "bad-request", Error).toJson().write());
        continue;
      }
      if (DecodeT0) {
        uint64_t Now = obs::nowNs();
        obs::emitSpan("wire.decode", "wire", DecodeT0,
                      Now > DecodeT0 ? Now - DecodeT0 : 0, Req.Trace);
      }
      if (Options.Verbose)
        std::fprintf(stderr, "asdfd: fd=%d request id=%llu\n", Fd,
                     static_cast<unsigned long long>(Id));
      if (Req.TheKind == ServiceRequest::Kind::Shutdown) {
        // Answer before pulling the plug so the client sees the ack.
        State->writeLine(Service.handle(Req).toJson().write());
        requestShutdown();
        continue;
      }
      auto Draining = [&] {
        return Service
            .refuse(Id, "shutting-down",
                    "daemon is draining; resubmit elsewhere")
            .toJson()
            .write();
      };
      if (Service.shuttingDown()) {
        State->writeLine(Draining());
        continue;
      }
      State->begin();
      // The fd keys the queue's per-client fairness: a pipelining
      // connection rotates with everyone else instead of starving them.
      JobQueue::Submit Outcome = Service.submit(
          Req,
          [State](ServiceResponse Resp) {
            State->writeLine(Resp.toJson().write());
            State->done();
          },
          static_cast<uint64_t>(Fd));
      if (Outcome != JobQueue::Submit::Accepted) {
        State->writeLine(Outcome == JobQueue::Submit::Overloaded
                             ? Service.overloadedResponse(Id).toJson().write()
                             : Draining());
        State->done();
      }
    }
    Buffer.erase(0, Start);
    Scanned = Buffer.size();
    if (Buffer.size() > MaxRequestLineBytes || Discarding) {
      // The pending line is over the cap: answer it once, then keep
      // dropping its bytes until its newline arrives.
      if (!Discarding)
        RefuseLongLine();
      Discarding = true;
      Buffer.clear();
      Scanned = 0;
    }
  }
  // Every submitted request must answer before the fd closes.
  State->waitDrained();
  {
    std::lock_guard<std::mutex> Lock(ConnsMu);
    LiveConnFds.erase(Fd);
    FinishedConns.push_back(std::this_thread::get_id());
  }
  ::close(Fd);
}

void Server::joinFinishedConnections() {
  std::vector<std::thread::id> Finished;
  {
    std::lock_guard<std::mutex> Lock(ConnsMu);
    Finished.swap(FinishedConns);
  }
  // Every queued id is in Connections: the accept loop inserts a reader
  // before it next gets here.
  for (std::thread::id Id : Finished) {
    auto It = Connections.find(Id);
    It->second.join();
    Connections.erase(It);
  }
}
