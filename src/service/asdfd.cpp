//===- asdfd.cpp - The persistent compile-and-run daemon ------------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The asdf daemon: a long-lived compile-and-run service over a unix
/// socket, speaking newline-delimited JSON (docs/protocol.md). Repeated
/// submissions of the same (source, pipeline, bindings) pay compile cost
/// once — artifacts are served from a content-hashed LRU cache — and run
/// requests execute on the shared simulation engine with per-request
/// seeds, bit-identical to `asdfc --emit run` on the same request.
///
///   asdfd --socket /run/asdf.sock --workers 8 --cache-mb 256
///
/// SIGTERM/SIGINT drain gracefully: in-flight requests finish, responses
/// flush, the socket file is removed, exit code 0.
///
//===----------------------------------------------------------------------===//

#include "compiler/CommandLine.h"
#include "obs/Trace.h"
#include "service/DiskCache.h"
#include "service/Server.h"
#include "support/BuildInfo.h"
#include "support/FaultInject.h"

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace asdf;

namespace {

Server *ActiveServer = nullptr;

void onSignal(int) {
  if (ActiveServer)
    ActiveServer->requestShutdown(); // Async-signal-safe (pipe write).
}

void usage(FILE *Out) {
  std::fprintf(
      Out,
      "usage: asdfd --socket <path> [options]\n"
      "  -h, --help          print this help and exit\n"
      "  --version           print version, build identity, and the cache\n"
      "                      fingerprint, then exit\n"
      "  --socket <path>     unix socket to listen on (required)\n"
      "  --workers <n>       request worker threads (default 0 = one per\n"
      "                      hardware core)\n"
      "  --cache-mb <n>      artifact-cache byte budget in MiB (default\n"
      "                      256)\n"
      "  --disk-cache <dir>  crash-safe on-disk cache tier: artifacts\n"
      "                      survive restarts (warmed and validated on\n"
      "                      startup; corrupt entries are quarantined)\n"
      "  --disk-cache-mb <n> disk-tier byte budget in MiB (default 1024)\n"
      "  --max-queue <n>     pending-request bound; beyond it requests are\n"
      "                      shed with an 'overloaded' error and a\n"
      "                      retry_after_ms hint (default 0 = unbounded)\n"
      "  --run-mem-mb <n>    dense-statevector memory admission budget in\n"
      "                      MiB across in-flight runs; oversized runs get\n"
      "                      'resource-exhausted' (default 0 = unlimited)\n"
      "  --verbose           log connections and requests to stderr\n"
      "  --trace <path>      record spans for every request and write one\n"
      "                      Chrome trace JSON (Perfetto-loadable) to\n"
      "                      <path> after the drain\n"
      "  --metrics-dump <path>\n"
      "                      write the Prometheus metrics exposition to\n"
      "                      <path> after the drain\n"
      "\n"
      "Protocol: newline-delimited JSON over the socket; ops compile,\n"
      "run, bind-run, stats, metrics, shutdown. See docs/protocol.md.\n"
      "SIGTERM drains gracefully.\n");
}

[[noreturn]] void usageError(const std::string &Message) {
  std::fprintf(stderr, "asdfd: %s\n", Message.c_str());
  std::fprintf(stderr, "run 'asdfd --help' for usage\n");
  std::exit(2);
}

} // namespace

int main(int argc, char **argv) {
  ServerOptions Options;
  std::string TracePath, MetricsPath;
  std::string Error;
  // A MiB count in range for a byte count.
  auto MiB = [&](const std::string &Flag, const char *Value) -> size_t {
    uint64_t Mb = 0;
    if (!parseUnsignedArg(Flag, Value, SIZE_MAX >> 20, Mb, Error))
      usageError(Error);
    return static_cast<size_t>(Mb) << 20;
  };
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= argc)
        usageError("option '" + Arg + "' expects a value");
      return argv[++I];
    };
    if (Arg == "-h" || Arg == "--help") {
      usage(stdout);
      return 0;
    } else if (Arg == "--version") {
      printVersion("asdfd");
      return 0;
    } else if (Arg == "--socket") {
      Options.SocketPath = Next();
    } else if (Arg == "--workers") {
      if (!parseUnsignedArg(Arg, Next(), Options.Service.Workers, Error))
        usageError(Error);
    } else if (Arg == "--cache-mb") {
      Options.Service.CacheBytes = MiB(Arg, Next());
      if (Options.Service.CacheBytes == 0)
        usageError("--cache-mb expects a positive number of MiB");
    } else if (Arg == "--disk-cache") {
      Options.Service.DiskCacheDir = Next();
    } else if (Arg == "--disk-cache-mb") {
      Options.Service.DiskCacheBytes = MiB(Arg, Next());
      if (Options.Service.DiskCacheBytes == 0)
        usageError("--disk-cache-mb expects a positive number of MiB");
    } else if (Arg == "--max-queue") {
      if (!parseUnsignedArg(Arg, Next(), Options.Service.MaxQueueDepth,
                            Error))
        usageError(Error);
    } else if (Arg == "--run-mem-mb") {
      Options.Service.RunMemoryBytes = MiB(Arg, Next());
    } else if (Arg == "--verbose") {
      Options.Verbose = true;
    } else if (Arg == "--trace") {
      TracePath = Next();
    } else if (Arg == "--metrics-dump") {
      MetricsPath = Next();
    } else {
      usageError("unknown option '" + Arg + "'");
    }
  }
  if (Options.SocketPath.empty())
    usageError("--socket <path> is required");

  if (!TracePath.empty())
    obs::enableTracing();

  // Fault-injection builds arm named failure points from $ASDF_FAULTS;
  // production builds compile this to a no-op.
  fault::armFromEnv();

  Server Daemon(Options);
  // A configured disk cache that cannot open is a deployment error — the
  // operator asked for durability they would silently not get.
  if (!Daemon.service().diskCacheError().empty()) {
    std::fprintf(stderr, "asdfd: --disk-cache %s: %s\n",
                 Options.Service.DiskCacheDir.c_str(),
                 Daemon.service().diskCacheError().c_str());
    return 1;
  }
  if (!Daemon.start(Error)) {
    std::fprintf(stderr, "asdfd: %s\n", Error.c_str());
    return 1;
  }

  ActiveServer = &Daemon;
  std::signal(SIGTERM, onSignal);
  std::signal(SIGINT, onSignal);
  std::signal(SIGPIPE, SIG_IGN);

  std::fprintf(stderr,
               "asdfd %s listening on %s (%u worker(s), cache %zu MiB)\n",
               ASDF_VERSION_STRING, Options.SocketPath.c_str(),
               Daemon.service().workers(),
               Options.Service.CacheBytes >> 20);
  if (DiskCache *Disk = Daemon.service().diskCache()) {
    DiskCacheStats DS = Disk->stats();
    std::fprintf(stderr,
                 "asdfd: disk cache %s: warmed %llu entrie(s) (%llu "
                 "byte(s)), quarantined %llu\n",
                 Disk->dir().c_str(),
                 static_cast<unsigned long long>(DS.WarmedEntries),
                 static_cast<unsigned long long>(DS.BytesUsed),
                 static_cast<unsigned long long>(DS.Quarantined));
  }
  int Code = Daemon.serve();
  ActiveServer = nullptr;
  // serve() returns after the drain: connection threads and queue workers
  // have joined, so the rings are quiescent — safe to export.
  if (!TracePath.empty()) {
    if (obs::writeChromeTrace(TracePath))
      std::fprintf(stderr, "asdfd: wrote trace to %s\n", TracePath.c_str());
    else
      std::fprintf(stderr, "asdfd: failed to write trace to %s\n",
                   TracePath.c_str());
  }
  if (!MetricsPath.empty()) {
    std::string Text = Daemon.service().metricsText();
    if (std::FILE *F = std::fopen(MetricsPath.c_str(), "w")) {
      std::fwrite(Text.data(), 1, Text.size(), F);
      std::fclose(F);
      std::fprintf(stderr, "asdfd: wrote metrics to %s\n",
                   MetricsPath.c_str());
    } else {
      std::fprintf(stderr, "asdfd: failed to write metrics to %s\n",
                   MetricsPath.c_str());
    }
  }
  return Code;
}
