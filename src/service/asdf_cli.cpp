//===- asdf_cli.cpp - Thin client for the asdfd daemon --------------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thin command-line client for asdfd. It builds the same
/// `ServiceRequest` struct asdfc-equivalent flags would describe, sends it
/// over the unix socket, and prints results in asdfc's format — so
/// `asdf-cli run prog.qw --shots 100 --seed 7` writes bit-for-bit the
/// stdout of `asdfc prog.qw --emit run --shots 100 --seed 7`, just served
/// from a warm daemon instead of a cold process.
///
///   asdf-cli --socket /run/asdf.sock compile prog.qw --emit qasm
///   asdf-cli --socket /run/asdf.sock run prog.qw --shots 100 --seed 7
///   asdf-cli --socket /run/asdf.sock stats
///   asdf-cli --socket /run/asdf.sock shutdown
///
/// Exit codes follow the toolchain convention: 0 success, 1 runtime or
/// daemon-reported errors, 2 command-line errors.
///
//===----------------------------------------------------------------------===//

#include "compiler/CommandLine.h"
#include "obs/Metrics.h"
#include "service/Client.h"
#include "sim/Simulator.h"
#include "support/BuildInfo.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace asdf;

namespace {

void usage(FILE *Out) {
  std::fprintf(
      Out,
      "usage: asdf-cli [--socket <path>] <command> [options]\n"
      "commands:\n"
      "  compile <file.qw>   compile remotely and print the artifact\n"
      "  run <file.qw>       simulate remotely; prints one output bit\n"
      "                      string per shot, identical to asdfc\n"
      "  bind-run <file.qw>  parameter sweep: the daemon compiles the\n"
      "                      program once (literal rotation angles are\n"
      "                      lifted, so programs differing only in angles\n"
      "                      share a cached circuit), re-binds per point,\n"
      "                      and runs each point's shots\n"
      "  stats               print a summary of daemon statistics (cache\n"
      "                      hit rate, request counts, per-op latency\n"
      "                      quantiles); --json prints the raw payload\n"
      "  metrics             print the daemon's metrics in Prometheus\n"
      "                      text exposition format\n"
      "  shutdown            ask the daemon to drain and exit\n"
      "global options:\n"
      "  -h, --help          print this help and exit\n"
      "  --version           print version, build identity, and the cache\n"
      "                      fingerprint, then exit\n"
      "  --socket <path>     daemon socket (default: $ASDF_SOCKET, else\n"
      "                      /tmp/asdfd.sock)\n"
      "  --timeout <secs>    per-request timeout, also bounding the wait\n"
      "                      for the response (default: none)\n"
      "  --retries <n>       retry a lost connection or an overloaded /\n"
      "                      resource-exhausted / shutting-down answer up\n"
      "                      to n times, reconnecting with exponential\n"
      "                      backoff and honoring the daemon's\n"
      "                      retry_after_ms hint (default 0)\n"
      "  --retry-budget-ms <n>\n"
      "                      total time allowed across retries (default\n"
      "                      10000)\n"
      "  --trace-id <n>      tag the request with a 64-bit trace id; a\n"
      "                      daemon running with --trace records all of\n"
      "                      this request's spans under that id\n"
      "  --json              stats: print the raw JSON payload\n"
      "compile/run options (same meaning as asdfc):\n"
      "  --entry <name>      entry kernel (default: kernel)\n"
      "  --bind <Var>=<int>  bind a dimension variable\n"
      "  --capture <fn>.<param>=<bits|@name>  bind a capture\n"
      "  --pipeline <plan>   pipeline preset or stage:pass spec\n"
      "  --emit qasm|qir|qir-base|qwerty-ir|circuit   (compile only)\n"
      "run options:\n"
      "  --shots <n>         shots (default 1)\n"
      "  --seed <n>          base RNG seed (default 0); results are\n"
      "                      bit-identical to asdfc for the same seed\n"
      "  --backend auto|sv|stab|mps\n"
      "  --jobs <n>          daemon-side worker threads for this run\n"
      "                      (default 1; results identical for any value)\n"
      "bind-run options:\n"
      "  --params <a,b,...>  names of the $-parameters the sweep varies,\n"
      "                      defining the value order within each point\n"
      "  --sweep <spec>      sweep points: semicolon-separated, each a\n"
      "                      comma-separated value list in --params order\n"
      "                      (e.g. --params theta --sweep \"0;45;90\")\n");
}

[[noreturn]] void usageError(const std::string &Message) {
  std::fprintf(stderr, "asdf-cli: %s\n", Message.c_str());
  std::fprintf(stderr, "run 'asdf-cli --help' for usage\n");
  std::exit(2);
}

/// Renders the stats payload as a human summary, one line per section in
/// payload order. A section with hits and misses gains its hit rate; the
/// latency section becomes a quantile table re-derived from the reported
/// bucket counts with the shared Histogram math.
void printStatsSummary(const json::Value &S) {
  // The section's scalar members as "key value" pairs, in payload order.
  auto Fields = [](const json::Value &Section) {
    const json::Value *Hits = Section.get("hits");
    std::string Line;
    for (const auto &[Key, V] : Section.members()) {
      if (V.isObject())
        continue;
      Line += (Line.empty() ? "" : ", ") + Key + " " +
              (V.isString() ? V.asString() : V.write());
      if (Key == "misses" && Hits) {
        double H = double(Hits->asU64()), Total = H + double(V.asU64());
        char Rate[32];
        std::snprintf(Rate, sizeof(Rate), " (%.1f%% hit rate)",
                      Total ? 100.0 * H / Total : 0.0);
        Line += Rate;
      }
    }
    return Line;
  };
  std::printf("daemon: %s\n", Fields(S).c_str());
  for (const auto &[Key, Section] : S.members()) {
    if (!Section.isObject())
      continue;
    if (Key != "latency") {
      std::printf("%s: %s\n", Key.c_str(), Fields(Section).c_str());
      continue;
    }
    std::printf("latency: %-10s %8s %10s %10s %10s\n", "op", "count",
                "p50-ms", "p90-ms", "p99-ms");
    for (const auto &[Op, H] : Section.members()) {
      // Rebuild from the bucket counts: the numbers printed here come
      // from the same Histogram::quantile code the daemon used, so they
      // match the reported p50/p90/p99 exactly.
      obs::Histogram Rebuilt;
      if (!obs::Histogram::fromJson(H, Rebuilt))
        continue;
      std::printf("         %-10s %8llu %10.3f %10.3f %10.3f\n", Op.c_str(),
                  (unsigned long long)Rebuilt.count(),
                  1e3 * Rebuilt.quantile(0.50), 1e3 * Rebuilt.quantile(0.90),
                  1e3 * Rebuilt.quantile(0.99));
    }
  }
}

} // namespace

int main(int argc, char **argv) {
  std::string Socket;
  if (const char *Env = std::getenv("ASDF_SOCKET"))
    Socket = Env;
  if (Socket.empty())
    Socket = "/tmp/asdfd.sock";

  ServiceRequest Req;
  Req.Id = 1;
  std::string Command;
  std::string File;
  double Timeout = 0.0;
  ServiceClient::RetryPolicy Retry;
  bool EmitSet = false;
  bool RawJson = false;
  std::string ParamsArg;
  bool ParamsSet = false, SweepSet = false;
  std::string Error;

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
      printVersion("asdf-cli");
      return 0;
    } else if (Arg == "--socket") {
      Socket = Next();
    } else if (Arg == "--timeout") {
      if (!parseDoubleArg(Next(), Timeout) ||
          !(Timeout > 0 && Timeout <= MaxTimeoutSecs))
        usageError("--timeout expects a number of seconds above 0, at most "
                   "1000000");
    } else if (Arg == "--retries") {
      if (!parseUnsignedArg(Arg, Next(), Retry.MaxRetries, Error))
        usageError(Error);
    } else if (Arg == "--retry-budget-ms") {
      if (!parseUnsignedArg(Arg, Next(), Retry.BudgetMs, Error))
        usageError(Error);
      if (Retry.BudgetMs == 0)
        usageError("--retry-budget-ms expects a positive count");
    } else if (Arg == "--entry") {
      Req.Entry = Next();
    } else if (Arg == "--pipeline") {
      Req.Pipeline = Next();
    } else if (Arg == "--emit") {
      Req.Emit = Next();
      EmitSet = true;
    } else if (Arg == "--bind") {
      if (!parseBindArg(Next(), Req.Bindings, Error))
        usageError(Error);
    } else if (Arg == "--capture") {
      if (!parseCaptureArg(Next(), Req.Bindings, Error))
        usageError(Error);
    } else if (Arg == "--shots") {
      if (!parseUnsignedArg(Arg, Next(), Req.Shots, Error))
        usageError(Error);
    } else if (Arg == "--seed") {
      if (!parseUnsignedArg(Arg, Next(), Req.Seed, Error))
        usageError(Error);
    } else if (Arg == "--backend") {
      Req.Backend = Next();
    } else if (Arg == "--jobs") {
      if (!parseUnsignedArg(Arg, Next(), Req.Jobs, Error))
        usageError(Error);
    } else if (Arg == "--params") {
      ParamsArg = Next();
      ParamsSet = true;
    } else if (Arg == "--sweep") {
      if (!parseSweepSpec(Next(), Req.Points, Error))
        usageError(Error);
      SweepSet = true;
    } else if (Arg == "--trace-id") {
      if (!parseUnsignedArg(Arg, Next(), Req.Trace, Error))
        usageError(Error);
    } else if (Arg == "--json") {
      RawJson = true;
    } else if (!Arg.empty() && Arg[0] == '-') {
      usageError("unknown option '" + Arg + "'");
    } else if (Command.empty()) {
      Command = Arg;
    } else if (File.empty()) {
      File = Arg;
    } else {
      usageError("unexpected argument '" + Arg + "'");
    }
  }

  if (Command.empty())
    usageError("expected a command (compile, run, bind-run, stats, "
               "metrics, or shutdown)");
  if (Command == "compile") {
    Req.TheKind = ServiceRequest::Kind::Compile;
  } else if (Command == "run") {
    Req.TheKind = ServiceRequest::Kind::Run;
    if (EmitSet)
      usageError("--emit applies only to the compile command");
  } else if (Command == "bind-run") {
    Req.TheKind = ServiceRequest::Kind::BindRun;
    if (EmitSet)
      usageError("--emit applies only to the compile command");
    if (!SweepSet)
      usageError("bind-run needs --sweep (the points to run)");
    if (ParamsSet && !ParamsArg.empty())
      for (const std::string &Name : splitOn(ParamsArg, ',')) {
        if (Name.empty())
          usageError("--params has an empty name");
        Req.SweepParams.push_back(Name);
      }
    for (size_t P = 0; P < Req.Points.size(); ++P)
      if (Req.Points[P].size() != Req.SweepParams.size())
        usageError("--sweep point " + std::to_string(P) + " has " +
                   std::to_string(Req.Points[P].size()) +
                   " value(s) but --params names " +
                   std::to_string(Req.SweepParams.size()));
  } else if (Command == "stats") {
    Req.TheKind = ServiceRequest::Kind::Stats;
  } else if (Command == "metrics") {
    Req.TheKind = ServiceRequest::Kind::Metrics;
  } else if (Command == "shutdown") {
    Req.TheKind = ServiceRequest::Kind::Shutdown;
  } else {
    usageError("unknown command '" + Command +
               "' (expected compile, run, bind-run, stats, metrics, or "
               "shutdown)");
  }
  if (RawJson && Req.TheKind != ServiceRequest::Kind::Stats)
    usageError("--json applies only to the stats command");
  if ((ParamsSet || SweepSet) &&
      Req.TheKind != ServiceRequest::Kind::BindRun)
    usageError("--params/--sweep apply only to the bind-run command");

  if (Req.TheKind == ServiceRequest::Kind::Compile ||
      Req.TheKind == ServiceRequest::Kind::Run ||
      Req.TheKind == ServiceRequest::Kind::BindRun) {
    if (File.empty())
      usageError(Command + " expects a .qw file argument");
    std::ifstream In(File);
    if (!In) {
      std::fprintf(stderr, "asdf-cli: cannot open '%s'\n", File.c_str());
      return 1;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Req.Source = Buf.str();
  } else if (!File.empty()) {
    usageError(Command + " takes no file argument");
  }
  Req.TimeoutSecs = Timeout;

  ServiceClient Client;
  if (!Client.connect(Socket, Error) && Retry.MaxRetries == 0) {
    std::fprintf(stderr, "asdf-cli: %s\n", Error.c_str());
    return 1;
  }
  ServiceResponse Resp;
  unsigned RetriesUsed = 0;
  // Give the daemon a little slack past the request's own deadline before
  // declaring the transport dead. callWithRetry reconnects and replays —
  // safe because requests are deterministic and content-keyed.
  if (!Client.callWithRetry(Req, Resp, Error, Retry,
                            Timeout > 0 ? Timeout + 5.0 : 0.0,
                            &RetriesUsed)) {
    std::fprintf(stderr, "asdf-cli: %s\n", Error.c_str());
    return 1;
  }
  if (RetriesUsed)
    std::fprintf(stderr, "asdf-cli: succeeded after %u retr%s\n",
                 RetriesUsed, RetriesUsed == 1 ? "y" : "ies");
  if (!Resp.Ok) {
    std::fprintf(stderr, "asdf-cli: %s: %s\n", Resp.Error.Kind.c_str(),
                 Resp.Error.Message.c_str());
    return 1;
  }

  switch (Req.TheKind) {
  case ServiceRequest::Kind::Compile:
    std::fprintf(stderr, "asdf-cli: cache %s (key %s, compile %.1f ms)\n",
                 Resp.CacheHit ? "hit" : "miss", Resp.Key.c_str(),
                 Resp.CompileSecs * 1e3);
    std::fputs(Resp.Artifact.c_str(), stdout);
    break;
  case ServiceRequest::Kind::Run:
    std::fprintf(stderr, "asdf-cli: cache %s (key %s, compile %.1f ms)\n",
                 Resp.CacheHit ? "hit" : "miss", Resp.Key.c_str(),
                 Resp.CompileSecs * 1e3);
    for (const std::string &Bits : Resp.Results)
      std::printf("%s\n", Bits.c_str());
    break;
  case ServiceRequest::Kind::BindRun: {
    std::fprintf(stderr, "asdf-cli: cache %s (key %s, compile %.1f ms)\n",
                 Resp.CacheHit ? "hit" : "miss", Resp.Key.c_str(),
                 Resp.CompileSecs * 1e3);
    for (size_t P = 0; P < Resp.PointResults.size(); ++P) {
      std::printf(
          "%s\n",
          formatPointHeader(P, Req.SweepParams, Req.Points[P]).c_str());
      for (const std::string &Bits : Resp.PointResults[P])
        std::printf("%s\n", Bits.c_str());
    }
    break;
  }
  case ServiceRequest::Kind::Stats:
    if (RawJson)
      std::printf("%s\n", Resp.StatsBody.write().c_str());
    else
      printStatsSummary(Resp.StatsBody);
    break;
  case ServiceRequest::Kind::Metrics:
    std::fputs(Resp.MetricsText.c_str(), stdout);
    break;
  case ServiceRequest::Kind::Shutdown:
    std::fprintf(stderr, "asdf-cli: daemon draining\n");
    break;
  }
  return 0;
}
