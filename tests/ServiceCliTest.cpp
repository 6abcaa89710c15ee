//===- ServiceCliTest.cpp - asdfd/asdf-cli end-to-end and exit codes ------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives the real binaries:
///
///   - exit-code conventions across the whole toolchain: --help and
///     --version exit 0, unknown flags/commands and usage errors exit 2,
///     runtime failures (no daemon, unreadable file) exit 1 — the same
///     contract for asdfc, asdfd, and asdf-cli;
///   - end-to-end over a unix socket: spawn an asdfd, compile and run via
///     asdf-cli, and require stdout bit-identical to asdfc on the same
///     request; repeated compiles hit the cache (visible in stats);
///   - graceful shutdown from both directions: the `shutdown` op and
///     SIGTERM each drain, remove the socket file, and exit 0;
///   - stale-socket recovery and the one-daemon-per-socket rule;
///   - out of file descriptors, the accept loop backs off instead of
///     spinning, and serves again once descriptors free up.
///
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <csignal>
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#if defined(ASDF_ASDFC_PATH) && defined(ASDF_ASDFD_PATH) &&                   \
    defined(ASDF_ASDF_CLI_PATH)

namespace json = asdf::json;

namespace {

const char *CoinSource = "qpu kernel() -> bit {\n"
                         "    return 'p' | std.measure\n"
                         "}\n";

const char *BVSource =
    "classical f[N](secret: bit[N], x: bit[N]) -> bit {\n"
    "    return (secret & x).xor_reduce()\n"
    "}\n"
    "qpu kernel[N](f: cfunc[N, 1]) -> bit[N] {\n"
    "    return 'p'[N] | f.sign | pm[N] >> std[N] | std[N].measure\n"
    "}\n";

const char *RotSource = "qpu kernel() -> bit {\n"
                        "    return 'p' | std.rotate($theta) | std.measure\n"
                        "}\n";

/// RotSource on 16 qubits: a state large enough for the dense kernels to
/// split across workers.
const char *WideRotSource =
    "qpu kernel() -> bit[16] {\n"
    "    return 'p'[16] | std[16].rotate($theta) | std[16].measure\n"
    "}\n";

/// Runs a shell command, captures combined stdout+stderr, returns the exit
/// code.
int runCommand(const std::string &Cmd, std::string &Output) {
  FILE *P = popen((Cmd + " 2>&1").c_str(), "r");
  if (!P)
    return -1;
  char Buf[4096];
  Output.clear();
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), P)) > 0)
    Output.append(Buf, N);
  int Status = pclose(P);
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

std::string writeTemp(const std::string &Name, const std::string &Text) {
  std::string Path = ::testing::TempDir() + Name;
  std::ofstream Out(Path, std::ios::trunc);
  Out << Text;
  return Path;
}

/// A connected unix-socket fd, or -1.
int connectTo(const std::string &Path) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

bool socketAnswers(const std::string &Path) {
  int Fd = connectTo(Path);
  if (Fd < 0)
    return false;
  ::close(Fd);
  return true;
}

/// Writes \p Lines to the daemon at \p Path on one connection, raw (no
/// client-side validation), and returns the reply lines, one per line
/// sent; fewer if the connection fails.
std::vector<std::string>
exchangeRawLines(const std::string &Path,
                 const std::vector<std::string> &Lines) {
  std::vector<std::string> Replies;
  int Fd = connectTo(Path);
  if (Fd < 0)
    return Replies;
  std::string Out;
  for (const std::string &L : Lines)
    Out += L + "\n";
  for (size_t Sent = 0; Sent < Out.size();) {
    ssize_t N = ::send(Fd, Out.data() + Sent, Out.size() - Sent, 0);
    if (N <= 0) {
      ::close(Fd);
      return Replies;
    }
    Sent += static_cast<size_t>(N);
  }
  std::string Buffer;
  char Chunk[4096];
  while (Replies.size() < Lines.size()) {
    ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
    if (N <= 0)
      break;
    Buffer.append(Chunk, static_cast<size_t>(N));
    for (size_t Nl = Buffer.find('\n'); Nl != std::string::npos;
         Nl = Buffer.find('\n')) {
      Replies.push_back(Buffer.substr(0, Nl));
      Buffer.erase(0, Nl + 1);
    }
  }
  ::close(Fd);
  return Replies;
}

/// A daemon child process, SIGKILLed on teardown if a test failed early.
class Daemon {
public:
  /// Spawns asdfd on \p SocketPath (plus \p ExtraArgs, e.g. --trace) and
  /// waits until it answers. \p Env entries ("NAME=VALUE") are set in the
  /// child only — how fault-injection tests arm a *spawned* daemon via
  /// $ASDF_FAULTS without polluting the test process. The child's stderr
  /// goes to \p StderrPath (default /dev/null), and a nonzero \p MaxFiles
  /// lowers its RLIMIT_NOFILE.
  bool start(const std::string &SocketPath,
             const std::vector<std::string> &ExtraArgs = {},
             const std::vector<std::string> &Env = {},
             const std::string &StderrPath = "/dev/null",
             rlim_t MaxFiles = 0) {
    Socket = SocketPath;
    Pid = fork();
    if (Pid < 0)
      return false;
    if (Pid == 0) {
      int Err = ::open(StderrPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (Err >= 0) {
        ::dup2(Err, 2);
        ::close(Err);
      }
      if (MaxFiles) {
        rlimit Lim{MaxFiles, MaxFiles};
        ::setrlimit(RLIMIT_NOFILE, &Lim);
      }
      for (const std::string &KV : Env) {
        size_t Eq = KV.find('=');
        ::setenv(KV.substr(0, Eq).c_str(), KV.substr(Eq + 1).c_str(), 1);
      }
      std::vector<const char *> Argv = {"asdfd", "--socket",
                                        SocketPath.c_str(), "--workers",
                                        "2"};
      for (const std::string &A : ExtraArgs)
        Argv.push_back(A.c_str());
      Argv.push_back(nullptr);
      ::execv(ASDF_ASDFD_PATH,
              const_cast<char *const *>(Argv.data()));
      _exit(127);
    }
    // The daemon binds before serving; poll until the socket accepts.
    for (int I = 0; I < 200; ++I) {
      if (socketAnswers(Socket))
        return true;
      int Status = 0;
      if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
        Pid = -1;
        return false; // Died during startup.
      }
      ::usleep(50 * 1000);
    }
    return false;
  }

  /// Blocks until the daemon exits; returns its exit code (-1 on signal).
  int wait() {
    if (Pid < 0)
      return -1;
    int Status = 0;
    if (::waitpid(Pid, &Status, 0) != Pid)
      return -1;
    Pid = -1;
    return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  }

  void signal(int Sig) {
    if (Pid > 0)
      ::kill(Pid, Sig);
  }

  pid_t pid() const { return Pid; }

  ~Daemon() {
    if (Pid > 0) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, nullptr, 0);
    }
  }

private:
  pid_t Pid = -1;
  std::string Socket;
};

std::string cli(const std::string &SocketPath) {
  return std::string(ASDF_ASDF_CLI_PATH) + " --socket " + SocketPath + " ";
}

//===----------------------------------------------------------------------===//
// Exit-code conventions (no daemon needed)
//===----------------------------------------------------------------------===//

TEST(ServiceCliExitCodes, HelpExitsZeroEverywhere) {
  std::string Out;
  EXPECT_EQ(runCommand(std::string(ASDF_ASDFD_PATH) + " --help", Out), 0);
  EXPECT_NE(Out.find("usage: asdfd"), std::string::npos);
  EXPECT_EQ(runCommand(std::string(ASDF_ASDF_CLI_PATH) + " --help", Out), 0);
  EXPECT_NE(Out.find("usage: asdf-cli"), std::string::npos);
  EXPECT_EQ(runCommand(std::string(ASDF_ASDFC_PATH) + " --help", Out), 0);
}

TEST(ServiceCliExitCodes, VersionExitsZeroAndAgreesAcrossTools) {
  // The fingerprint is the cache-key component: all three binaries of one
  // build must print the same one.
  std::string C, D, L;
  EXPECT_EQ(runCommand(std::string(ASDF_ASDFC_PATH) + " --version", C), 0);
  EXPECT_EQ(runCommand(std::string(ASDF_ASDFD_PATH) + " --version", D), 0);
  EXPECT_EQ(runCommand(std::string(ASDF_ASDF_CLI_PATH) + " --version", L),
            0);
  EXPECT_NE(C.find("asdfc "), std::string::npos);
  auto fingerprintLine = [](const std::string &Out) {
    size_t At = Out.find("fingerprint:");
    size_t End = Out.find('\n', At);
    return At == std::string::npos ? std::string() : Out.substr(At, End - At);
  };
  std::string FP = fingerprintLine(C);
  EXPECT_FALSE(FP.empty());
  EXPECT_NE(FP.find("asdf-"), std::string::npos);
  EXPECT_EQ(fingerprintLine(D), FP);
  EXPECT_EQ(fingerprintLine(L), FP);
}

TEST(ServiceCliExitCodes, UnknownFlagsExitTwo) {
  std::string Out;
  EXPECT_EQ(runCommand(std::string(ASDF_ASDFD_PATH) + " --frobnicate", Out),
            2);
  EXPECT_NE(Out.find("unknown option '--frobnicate'"), std::string::npos);
  EXPECT_NE(Out.find("--help"), std::string::npos);
  EXPECT_EQ(
      runCommand(std::string(ASDF_ASDF_CLI_PATH) + " --frobnicate", Out), 2);
  EXPECT_NE(Out.find("unknown option '--frobnicate'"), std::string::npos);
  EXPECT_EQ(runCommand(std::string(ASDF_ASDFC_PATH) + " --frobnicate", Out),
            2);
  // The dense engine picks its own plan: the old plan flags are unknown.
  std::string Coin = writeTemp("service_cli_coin_flags.qw", CoinSource);
  for (std::string Flag : {"--no-fuse", "--fuse-k", "--parallel"}) {
    EXPECT_EQ(runCommand(std::string(ASDF_ASDFC_PATH) + " " + Coin +
                             " --emit run " + Flag + " 2",
                         Out),
              2)
        << Flag;
    EXPECT_NE(Out.find("unknown option '" + Flag + "'"), std::string::npos)
        << Out;
  }
}

TEST(ServiceCliExitCodes, UsageErrorsExitTwo) {
  std::string Out;
  // asdfd without --socket.
  EXPECT_EQ(runCommand(ASDF_ASDFD_PATH, Out), 2);
  EXPECT_NE(Out.find("--socket"), std::string::npos);
  EXPECT_EQ(runCommand(std::string(ASDF_ASDFD_PATH) + " --socket s "
                                                      "--cache-mb 0",
                       Out),
            2);
  // asdf-cli without a command, with an unknown command, with a missing
  // file argument, with --emit on run.
  EXPECT_EQ(runCommand(ASDF_ASDF_CLI_PATH, Out), 2);
  EXPECT_EQ(
      runCommand(std::string(ASDF_ASDF_CLI_PATH) + " transmogrify", Out), 2);
  EXPECT_NE(Out.find("unknown command"), std::string::npos);
  EXPECT_EQ(runCommand(std::string(ASDF_ASDF_CLI_PATH) + " compile", Out),
            2);
  EXPECT_EQ(runCommand(std::string(ASDF_ASDF_CLI_PATH) +
                           " run x.qw --emit qasm",
                       Out),
            2);
  EXPECT_NE(Out.find("--emit"), std::string::npos);
}

TEST(ServiceCliExitCodes, TimeoutMustBeSecondsInRange) {
  // atof read "2x" as 2 s and "nan" as no timeout, and 1e10 s overflowed
  // the poll wait's milliseconds.
  for (const char *Bad : {"2x", "nan", "inf", "1e10", "0", "-1"}) {
    std::string Out;
    EXPECT_EQ(runCommand(std::string(ASDF_ASDF_CLI_PATH) +
                             " --socket /nonexistent/asdf.sock --timeout " +
                             Bad + " stats",
                         Out),
              2)
        << Bad << ": " << Out;
    EXPECT_NE(Out.find("--timeout"), std::string::npos) << Bad << ": " << Out;
  }
}

TEST(ServiceCliExitCodes, SweepUsageErrors) {
  std::string Rot = writeTemp("service_cli_rot_usage.qw", RotSource);
  std::string Out;
  // --sweep is a run-mode flag.
  EXPECT_EQ(runCommand(std::string(ASDF_ASDFC_PATH) + " " + Rot +
                           " --emit qasm --sweep '0; 45'",
                       Out),
            2);
  EXPECT_NE(Out.find("--sweep requires --emit run"), std::string::npos)
      << Out;
  // --param and --sweep are mutually exclusive.
  EXPECT_EQ(runCommand(std::string(ASDF_ASDFC_PATH) + " " + Rot +
                           " --emit run --param theta=1 --sweep '0'",
                       Out),
            2);
  // Running a parametric program without binding fails with the names.
  EXPECT_EQ(runCommand(std::string(ASDF_ASDFC_PATH) + " " + Rot +
                           " --emit run --shots 2",
                       Out),
            1);
  EXPECT_NE(Out.find("$theta"), std::string::npos) << Out;
  // asdf-cli: --sweep/--params belong to bind-run, which requires --sweep.
  EXPECT_EQ(runCommand(std::string(ASDF_ASDF_CLI_PATH) + " run " + Rot +
                           " --params theta",
                       Out),
            2);
  EXPECT_EQ(runCommand(std::string(ASDF_ASDF_CLI_PATH) + " bind-run " + Rot,
                       Out),
            2);
  EXPECT_NE(Out.find("--sweep"), std::string::npos) << Out;
}

TEST(ServiceCliExitCodes, SharedParsersAgreeAcrossTools) {
  // asdfc and asdf-cli parse these values with the same code: each bad
  // value exits 2 with the same diagnosis after the tool's name.
  std::string Rot = writeTemp("service_cli_rot_parse.qw", RotSource);
  const std::string Asdfc = std::string(ASDF_ASDFC_PATH) + " " + Rot +
                            " --emit run ";
  const std::string Cli = std::string(ASDF_ASDF_CLI_PATH) + " bind-run " +
                          Rot + " --params theta ";
  const std::vector<std::pair<std::string, std::string>> Cases = {
      {"--bind N=3x", "--bind value '3x' for 'N' is not an integer"},
      {"--bind N=3 --bind N=4", "duplicate --bind for dimension variable"},
      {"--capture secret=101", "capture key 'secret' must be"},
      {"--sweep '0;abc'", "--sweep value 'abc' is not a number"},
      {"--shots 3x", "--shots value '3x' is not a whole number"},
      {"--shots -1", "--shots value '-1' is not a whole number"},
      {"--seed 12abc", "--seed value '12abc' is not a whole number"},
      {"--jobs 2x", "--jobs value '2x' is not a whole number"},
  };
  auto firstLine = [](const std::string &Out, const std::string &Prefix) {
    EXPECT_EQ(Out.rfind(Prefix, 0), 0u) << Out;
    return Out.substr(Prefix.size(), Out.find('\n') - Prefix.size());
  };
  for (const auto &[Args, Want] : Cases) {
    std::string FromAsdfc, FromCli;
    EXPECT_EQ(runCommand(Asdfc + Args, FromAsdfc), 2) << Args;
    EXPECT_EQ(runCommand(Cli + Args, FromCli), 2) << Args;
    std::string Diagnosis = firstLine(FromAsdfc, "asdfc: ");
    EXPECT_NE(Diagnosis.find(Want), std::string::npos) << FromAsdfc;
    EXPECT_EQ(firstLine(FromCli, "asdf-cli: "), Diagnosis) << Args;
  }
}

TEST(ServiceCliExitCodes, WholeNumberFlagsParseTheWholeValue) {
  // A value with junk after the digits, a sign, or out of its field's
  // range exits 2; a decimal value, or a 0x seed, keeps its value.
  std::string Coin = writeTemp("service_cli_coin_numbers.qw", CoinSource);
  const std::string Asdfc = std::string(ASDF_ASDFC_PATH) + " " + Coin +
                            " --emit run ";
  const std::string Cli = std::string(ASDF_ASDF_CLI_PATH) + " run " + Coin;
  const std::string Daemon = std::string(ASDF_ASDFD_PATH) + " --socket s ";
  std::string Out;
  for (const std::string &Bad :
       {Asdfc + "--mps-chi -1", Asdfc + "--shots abc", Asdfc + "--jobs ''",
        Asdfc + "--shots 4294967296", Asdfc + "--seed 18446744073709551616",
        Cli + " --retries -1", Cli + " --retry-budget-ms 5s",
        Cli + " --trace-id 0x", Daemon + "--workers 2x",
        Daemon + "--max-queue -1", Daemon + "--cache-mb 1.5",
        Daemon + "--run-mem-mb 99999999999999999"}) {
    EXPECT_EQ(runCommand(Bad, Out), 2) << Bad;
    EXPECT_NE(Out.find("is not a whole number from 0 to "),
              std::string::npos)
        << Out;
  }
  std::string Hex, Dec;
  EXPECT_EQ(runCommand("( " + Asdfc + "--shots 3 --seed 0x10 2>/dev/null )",
                       Hex),
            0);
  EXPECT_EQ(
      runCommand("( " + Asdfc + "--shots 3 --seed 16 2>/dev/null )", Dec), 0);
  EXPECT_EQ(Hex, Dec);
  EXPECT_EQ(std::count(Dec.begin(), Dec.end(), '\n'), 3) << Dec;
}

TEST(ServiceCliExitCodes, RuntimeFailuresExitOne) {
  std::string Out;
  // No daemon at the socket.
  EXPECT_EQ(runCommand(std::string(ASDF_ASDF_CLI_PATH) +
                           " --socket /nonexistent/asdf.sock stats",
                       Out),
            1);
  EXPECT_NE(Out.find("cannot connect"), std::string::npos);
  // Unreadable source file (the command parses fine).
  std::string Sock = ::testing::TempDir() + "never-used.sock";
  EXPECT_EQ(runCommand(cli(Sock) + "compile /nonexistent.qw", Out), 1);
}

//===----------------------------------------------------------------------===//
// End-to-end against a live daemon
//===----------------------------------------------------------------------===//

class ServiceEndToEnd : public ::testing::Test {
protected:
  void SetUp() override {
    Socket = ::testing::TempDir() + "asdfd-e2e-" +
             std::to_string(::getpid()) + ".sock";
    ::unlink(Socket.c_str());
    Coin = writeTemp("service_cli_coin.qw", CoinSource);
    BV = writeTemp("service_cli_bv.qw", BVSource);
    ASSERT_TRUE(D.start(Socket)) << "daemon failed to start";
  }
  void TearDown() override { ::unlink(Socket.c_str()); }

  std::string Socket, Coin, BV;
  Daemon D;
};

TEST_F(ServiceEndToEnd, RunIsBitIdenticalToAsdfc) {
  // Identical request, identical seed: the daemon's stdout must equal
  // asdfc's byte-for-byte. (Subshells drop stderr, where the cache/banner
  // chatter lives.)
  const std::string Args = " --shots 50 --seed 1234567890123456789";
  std::string Direct, Served;
  ASSERT_EQ(runCommand("( " + std::string(ASDF_ASDFC_PATH) + " " + Coin +
                           " --emit run" + Args + " 2>/dev/null )",
                       Direct),
            0);
  ASSERT_EQ(runCommand("( " + cli(Socket) + "run " + Coin + Args +
                           " 2>/dev/null )",
                       Served),
            0);
  EXPECT_EQ(Served, Direct);
  ASSERT_EQ(50, std::count(Direct.begin(), Direct.end(), '\n'));

  // A second submission of the same request: same bits again, now from
  // the cached circuit.
  std::string Again, Err;
  ASSERT_EQ(runCommand("( " + cli(Socket) + "run " + Coin + Args +
                           " 2>/dev/null )",
                       Again),
            0);
  EXPECT_EQ(Again, Direct);
  ASSERT_EQ(runCommand("( " + cli(Socket) + "run " + Coin + Args +
                           " >/dev/null )",
                       Err),
            0);
  EXPECT_NE(Err.find("cache hit"), std::string::npos) << Err;
}

TEST_F(ServiceEndToEnd, RunWithCapturesIsBitIdenticalToAsdfc) {
  const std::string Args = " --capture f.secret=110101 "
                           "--capture kernel.f=@f --shots 5 --seed 7";
  std::string Direct, Served;
  ASSERT_EQ(runCommand("( " + std::string(ASDF_ASDFC_PATH) + " " + BV +
                           " --emit run" + Args + " 2>/dev/null )",
                       Direct),
            0);
  ASSERT_EQ(runCommand("( " + cli(Socket) + "run " + BV + Args +
                           " 2>/dev/null )",
                       Served),
            0);
  EXPECT_EQ(Served, Direct);
  EXPECT_NE(Direct.find("110101"), std::string::npos);
}

TEST_F(ServiceEndToEnd, RunMatrixIsBitIdenticalToAsdfc) {
  // Both tools run through one executor: every engine and worker count
  // must give byte-identical stdout for a program with captures.
  const std::string Args = " --capture f.secret=110101 "
                           "--capture kernel.f=@f --shots 6 --seed 99";
  for (const char *Backend : {"auto", "sv", "stab", "mps"})
    for (const char *Jobs : {"1", "4"}) {
      std::string Flags =
          Args + " --backend " + Backend + " --jobs " + Jobs;
      std::string Direct, Served;
      ASSERT_EQ(runCommand("( " + std::string(ASDF_ASDFC_PATH) + " " + BV +
                               " --emit run" + Flags + " 2>/dev/null )",
                           Direct),
                0)
          << Flags;
      ASSERT_EQ(runCommand("( " + cli(Socket) + "run " + BV + Flags +
                               " 2>/dev/null )",
                           Served),
                0)
          << Flags;
      EXPECT_EQ(Served, Direct) << Flags;
      EXPECT_EQ(std::count(Direct.begin(), Direct.end(), '\n'), 6) << Flags;
    }
}

TEST_F(ServiceEndToEnd, RunOfAnUnboundParametricProgramExitsOne) {
  std::string Rot = writeTemp("service_cli_rot_unbound.qw", RotSource);
  std::string Out;
  EXPECT_EQ(runCommand(cli(Socket) + "run " + Rot + " --shots 2", Out), 1);
  EXPECT_NE(Out.find("bad-request"), std::string::npos) << Out;
  EXPECT_NE(Out.find("$theta"), std::string::npos) << Out;
}

TEST_F(ServiceEndToEnd, CompileMatchesAsdfcAndHitsTheCache) {
  std::string Direct, Cold, Warm, Err;
  ASSERT_EQ(runCommand("( " + std::string(ASDF_ASDFC_PATH) + " " + Coin +
                           " --emit qasm 2>/dev/null )",
                       Direct),
            0);
  ASSERT_EQ(runCommand("( " + cli(Socket) + "compile " + Coin +
                           " --emit qasm 2>/dev/null )",
                       Cold),
            0);
  EXPECT_EQ(Cold, Direct);
  ASSERT_EQ(runCommand("( " + cli(Socket) + "compile " + Coin +
                           " --emit qasm 2>/dev/null )",
                       Warm),
            0);
  EXPECT_EQ(Warm, Direct) << "cache hit must serve identical bytes";

  // Stats over the wire report the hit: --json for the raw payload...
  ASSERT_EQ(runCommand("( " + cli(Socket) + "stats --json 2>/dev/null )",
                       Err),
            0);
  EXPECT_NE(Err.find("\"hits\":"), std::string::npos);
  EXPECT_EQ(Err.find("\"hits\":0,"), std::string::npos)
      << "expected a nonzero cache hit count: " << Err;
  // ...and the default human summary derives the hit rate from it.
  std::string Pretty;
  ASSERT_EQ(runCommand("( " + cli(Socket) + "stats 2>/dev/null )", Pretty),
            0);
  EXPECT_NE(Pretty.find("hit rate"), std::string::npos) << Pretty;
  EXPECT_NE(Pretty.find("latency:"), std::string::npos) << Pretty;
  EXPECT_NE(Pretty.find("compile"), std::string::npos) << Pretty;
}

TEST_F(ServiceEndToEnd, MetricsOpServesPrometheusText) {
  std::string Out;
  ASSERT_EQ(runCommand("( " + cli(Socket) + "compile " + Coin +
                           " --emit qasm >/dev/null )",
                       Out),
            0);
  ASSERT_EQ(runCommand("( " + cli(Socket) + "metrics 2>/dev/null )", Out),
            0);
  EXPECT_NE(Out.find("# TYPE asdf_requests_compile_total counter"),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("asdf_requests_compile_total 1"), std::string::npos)
      << Out;
  EXPECT_NE(Out.find("# TYPE asdf_compile_seconds histogram"),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("asdf_compile_seconds_bucket{le=\"+Inf\"} 1"),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("asdf_cache_misses_total 1"), std::string::npos)
      << Out;
}

TEST_F(ServiceEndToEnd, ErrorsTheServerAnswersItselfAreCounted) {
  // Lines that never reach a handler (an unknown op, a line that is not
  // JSON) are answered by the server; they are still errors, in stats
  // and in metrics alike.
  std::vector<std::string> Replies = exchangeRawLines(
      Socket, {"{\"id\": 1, \"op\": \"frobnicate\"}", "not json"});
  ASSERT_EQ(Replies.size(), 2u);
  for (const std::string &R : Replies) {
    EXPECT_NE(R.find("\"ok\":false"), std::string::npos) << R;
    EXPECT_NE(R.find("bad-request"), std::string::npos) << R;
  }

  std::string Stats, Metrics, Error;
  ASSERT_EQ(runCommand("( " + cli(Socket) + "stats --json 2>/dev/null )",
                       Stats),
            0);
  json::Value Doc;
  ASSERT_TRUE(json::parse(Stats, Doc, Error)) << Error << "\n" << Stats;
  const json::Value *Req = Doc.get("requests");
  ASSERT_NE(Req, nullptr) << Stats;
  ASSERT_NE(Req->get("errors"), nullptr) << Stats;
  EXPECT_EQ(Req->get("errors")->asU64(), 2u) << Stats;
  ASSERT_EQ(runCommand("( " + cli(Socket) + "metrics 2>/dev/null )",
                       Metrics),
            0);
  EXPECT_NE(Metrics.find("\nasdf_requests_errors_total 2\n"),
            std::string::npos)
      << Metrics;
}

TEST_F(ServiceEndToEnd, DeeplyNestedLineIsABadRequestNotACrash) {
  // A million '[' once overflowed the recursive JSON parser's stack and
  // killed the daemon. It is a bad request; the daemon keeps serving.
  std::vector<std::string> Replies = exchangeRawLines(
      Socket, {std::string(1000000, '['), "{\"id\": 2, \"op\": \"stats\"}"});
  ASSERT_EQ(Replies.size(), 2u);
  EXPECT_NE(Replies[0].find("\"ok\":false"), std::string::npos) << Replies[0];
  EXPECT_NE(Replies[0].find("bad-request"), std::string::npos) << Replies[0];
  EXPECT_NE(Replies[1].find("\"ok\":true"), std::string::npos) << Replies[1];
  EXPECT_NE(Replies[1].find("\"requests\""), std::string::npos)
      << Replies[1];
}

TEST_F(ServiceEndToEnd, BindRunSweepIsBitIdenticalToAsdfcSweep) {
  // The daemon's bind-params fast path vs asdfc's in-process sweep: same
  // source, sweep spec, shots, and seed must produce byte-identical
  // stdout (point headers included).
  std::string Rot = writeTemp("service_cli_rot.qw", RotSource);
  const std::string Sweep = " --sweep '0; 45.5; 90' --shots 20 --seed 77";
  std::string Direct, Served;
  ASSERT_EQ(runCommand("( " + std::string(ASDF_ASDFC_PATH) + " " + Rot +
                           " --emit run" + Sweep + " 2>/dev/null )",
                       Direct),
            0);
  ASSERT_EQ(runCommand("( " + cli(Socket) + "bind-run " + Rot +
                           " --params theta" + Sweep + " 2>/dev/null )",
                       Served),
            0);
  EXPECT_EQ(Served, Direct);
  EXPECT_NE(Direct.find("# point 1: theta=45.5"), std::string::npos)
      << Direct;
  // 3 point headers + 3 x 20 shot lines.
  EXPECT_EQ(std::count(Direct.begin(), Direct.end(), '\n'), 63);

  // A repeat is served from the cached parametric circuit.
  std::string Err;
  ASSERT_EQ(runCommand("( " + cli(Socket) + "bind-run " + Rot +
                           " --params theta" + Sweep + " >/dev/null )",
                       Err),
            0);
  EXPECT_NE(Err.find("cache hit"), std::string::npos) << Err;
}


//===----------------------------------------------------------------------===//
// End-to-end tracing: one request, one trace id, every layer
//===----------------------------------------------------------------------===//

TEST(ServiceTrace, TraceIdCorrelatesWireToKernelWorkers) {
  // A daemon started with --trace exports one Chrome trace JSON at
  // shutdown. A single traced bind-run must produce correlated spans for
  // the wire decode, the cache probe, every compiler pass, fusion, and
  // at least two parallel kernel workers — all stamped with the
  // client-chosen trace id.
  std::string Socket = ::testing::TempDir() + "asdfd-trace-" +
                       std::to_string(::getpid()) + ".sock";
  std::string TraceFile = ::testing::TempDir() + "asdfd-trace-" +
                          std::to_string(::getpid()) + ".json";
  ::unlink(Socket.c_str());
  ::unlink(TraceFile.c_str());
  std::string Rot = writeTemp("service_cli_rot_trace.qw", WideRotSource);

  Daemon D;
  ASSERT_TRUE(D.start(Socket, {"--trace", TraceFile}))
      << "daemon failed to start with --trace";
  std::string Out;
  // --jobs 4 on a 16-qubit state splits the dense kernels across workers,
  // so distinct sim.worker spans (distinct threads) appear in the trace.
  ASSERT_EQ(runCommand("( " + cli(Socket) + "bind-run " + Rot +
                           " --params theta --sweep '0; 45.5; 90'"
                           " --shots 64 --jobs 4 --seed 7"
                           " --trace-id 42 >/dev/null )",
                       Out),
            0)
      << Out;
  ASSERT_EQ(runCommand(cli(Socket) + "shutdown", Out), 0);
  ASSERT_EQ(D.wait(), 0);

  std::ifstream In(TraceFile);
  ASSERT_TRUE(In.good()) << "daemon did not write " << TraceFile;
  std::stringstream Buf;
  Buf << In.rdbuf();
  json::Value Doc;
  std::string Error;
  ASSERT_TRUE(json::parse(Buf.str(), Doc, Error)) << Error;
  const json::Value *Events = Doc.get("traceEvents");
  ASSERT_NE(Events, nullptr);

  // Collect the spans carrying the request's trace id, keyed by name,
  // remembering which threads hosted sim.worker spans.
  std::set<std::string> Tagged42;
  std::set<std::string> Cats42;
  std::set<uint64_t> WorkerTids;
  for (const json::Value &E : Events->elements()) {
    const json::Value *Args = E.get("args");
    if (!Args || !Args->get("trace") ||
        Args->get("trace")->asU64() != 42)
      continue;
    std::string Name = E.get("name")->asString();
    Tagged42.insert(Name);
    Cats42.insert(E.get("cat")->asString());
    if (Name == "sim.worker")
      WorkerTids.insert(E.get("tid")->asU64());
  }

  EXPECT_TRUE(Tagged42.count("wire.decode")) << "no traced wire decode";
  EXPECT_TRUE(Tagged42.count("queue.wait")) << "no traced queue wait";
  EXPECT_TRUE(Tagged42.count("request.bind-run")) << "no traced handler";
  EXPECT_TRUE(Tagged42.count("cache.probe")) << "no traced cache probe";
  EXPECT_TRUE(Cats42.count("compile"))
      << "no traced compiler passes rode the request's trace id";
  EXPECT_TRUE(Tagged42.count("fuse")) << "no traced fusion";
  EXPECT_TRUE(Tagged42.count("rebind")) << "no traced rebind";
  EXPECT_GE(WorkerTids.size(), 2u)
      << "expected >= 2 parallel kernel workers in the trace";
  ::unlink(Socket.c_str());
  ::unlink(TraceFile.c_str());
}

TEST_F(ServiceEndToEnd, DaemonErrorsExitOneWithTheKind) {
  std::string Bad = writeTemp("service_cli_bad.qw",
                              "qpu kernel() -> bit { return }");
  std::string Out;
  EXPECT_EQ(runCommand(cli(Socket) + "compile " + Bad, Out), 1);
  EXPECT_NE(Out.find("compile-error"), std::string::npos) << Out;
  EXPECT_EQ(runCommand(cli(Socket) + "run " + Coin + " --backend gpu", Out),
            1);
  EXPECT_NE(Out.find("bad-request"), std::string::npos) << Out;
}

TEST_F(ServiceEndToEnd, SecondDaemonOnTheSameSocketRefusesToStart) {
  std::string Out;
  EXPECT_EQ(runCommand(std::string(ASDF_ASDFD_PATH) + " --socket " + Socket,
                       Out),
            1);
  EXPECT_NE(Out.find("already"), std::string::npos) << Out;
  // The incumbent is unharmed.
  EXPECT_EQ(runCommand(cli(Socket) + "stats", Out), 0);
}

TEST_F(ServiceEndToEnd, ShutdownOpDrainsRemovesSocketAndExitsZero) {
  std::string Out;
  ASSERT_EQ(runCommand(cli(Socket) + "shutdown", Out), 0);
  EXPECT_EQ(D.wait(), 0) << "clean drain must exit 0";
  struct stat St;
  EXPECT_NE(::stat(Socket.c_str(), &St), 0) << "socket file must be removed";
}

TEST_F(ServiceEndToEnd, SigtermDrainsRemovesSocketAndExitsZero) {
  D.signal(SIGTERM);
  EXPECT_EQ(D.wait(), 0) << "SIGTERM must drain gracefully";
  struct stat St;
  EXPECT_NE(::stat(Socket.c_str(), &St), 0) << "socket file must be removed";
}

TEST(ServiceDescriptors, OutOfDescriptorsBacksOffThenServes) {
  // With its descriptors used up, asdfd's accept fails with EMFILE while
  // the refused connection stays queued: the loop once printed one line
  // per retry, about half a million a second. It must back off, log the
  // episode once, serve again when descriptors free up, and still drain.
  std::string Sock = ::testing::TempDir() + "asdf_cli_emfile.sock";
  std::string Log = ::testing::TempDir() + "asdf_cli_emfile.err";
  ::unlink(Sock.c_str());
  Daemon D;
  ASSERT_TRUE(D.start(Sock, {}, {}, Log, 32));
  std::vector<int> Held;
  for (int I = 0; I < 48; ++I) {
    int Fd = connectTo(Sock);
    if (Fd >= 0)
      Held.push_back(Fd);
  }
  std::this_thread::sleep_for(std::chrono::seconds(1));
  size_t AcceptLines = 0;
  std::string First;
  std::ifstream In(Log);
  for (std::string L; std::getline(In, L);)
    if (L.find("accept:") != std::string::npos && AcceptLines++ == 0)
      First = L;
  EXPECT_NE(First.find("Too many open files"), std::string::npos) << First;
  EXPECT_LE(AcceptLines, 5u) << "accept errors logged in a second";
  for (int Fd : Held)
    ::close(Fd);
  std::string Out;
  EXPECT_EQ(runCommand(cli(Sock) + "--timeout 20 stats", Out), 0) << Out;
  EXPECT_NE(Out.find("requests"), std::string::npos) << Out;
  D.signal(SIGTERM);
  EXPECT_EQ(D.wait(), 0) << "SIGTERM must drain gracefully";
  ::unlink(Log.c_str());
}

TEST(ServiceStaleSocket, StaleFileIsReplacedOnStartup) {
  // A socket file with no daemon behind it (e.g. after a crash) must not
  // block the next start.
  std::string Socket = ::testing::TempDir() + "asdfd-stale-" +
                       std::to_string(::getpid()) + ".sock";
  ::unlink(Socket.c_str());
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Socket.c_str(), sizeof(Addr.sun_path) - 1);
  ASSERT_EQ(::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)),
            0);
  ::close(Fd); // Leaves the file behind, nobody listening.

  Daemon D;
  ASSERT_TRUE(D.start(Socket)) << "stale socket file blocked startup";
  std::string Out;
  EXPECT_EQ(runCommand(std::string(ASDF_ASDF_CLI_PATH) + " --socket " +
                           Socket + " shutdown",
                       Out),
            0);
  EXPECT_EQ(D.wait(), 0);
  ::unlink(Socket.c_str());
}

TEST(ServiceStaleSocket, SigkilledDaemonsSocketIsReclaimed) {
  // kill -9 gives the daemon no chance to unlink its socket file. The
  // replacement must detect that nobody is listening, reclaim the path,
  // and serve — the operator just restarts, no manual rm.
  std::string Socket = ::testing::TempDir() + "asdfd-kill9-" +
                       std::to_string(::getpid()) + ".sock";
  ::unlink(Socket.c_str());
  {
    Daemon First;
    ASSERT_TRUE(First.start(Socket));
    First.signal(SIGKILL);
    First.wait();
  }
  struct stat St;
  ASSERT_EQ(::stat(Socket.c_str(), &St), 0)
      << "precondition: SIGKILL must leave the socket file behind";

  Daemon Second;
  ASSERT_TRUE(Second.start(Socket))
      << "a SIGKILLed daemon's socket file blocked the restart";
  std::string Out;
  EXPECT_EQ(runCommand(cli(Socket) + "stats", Out), 0) << Out;
  EXPECT_EQ(runCommand(cli(Socket) + "shutdown", Out), 0);
  EXPECT_EQ(Second.wait(), 0);
  ::unlink(Socket.c_str());
}

//===----------------------------------------------------------------------===//
// Crash-restart durability: the disk cache tier across kill -9
//===----------------------------------------------------------------------===//

TEST(ServiceDiskCache, CompilesSurviveKillMinusNine) {
  std::string Tag = std::to_string(::getpid());
  std::string Socket = ::testing::TempDir() + "asdfd-disk-" + Tag + ".sock";
  std::string Dir = ::testing::TempDir() + "asdfd-disk-" + Tag + ".cache";
  ::unlink(Socket.c_str());
  ASSERT_EQ(::system(("rm -rf " + Dir).c_str()), 0);
  std::string Coin = writeTemp("service_cli_disk_coin.qw", CoinSource);
  const std::string Args = " --shots 40 --seed 987654321";

  std::string Cold, ColdQasm;
  {
    Daemon D;
    ASSERT_TRUE(D.start(Socket, {"--disk-cache", Dir}));
    ASSERT_EQ(runCommand("( " + cli(Socket) + "run " + Coin + Args +
                             " 2>/dev/null )",
                         Cold),
              0);
    ASSERT_EQ(runCommand("( " + cli(Socket) + "compile " + Coin +
                             " --emit qasm 2>/dev/null )",
                         ColdQasm),
              0);
    // kill -9: no drain, no unlink, nothing flushed that wasn't already
    // durable. Exactly the crash the atomic-rename discipline targets.
    D.signal(SIGKILL);
    D.wait();
  }

  Daemon Reborn;
  ASSERT_TRUE(Reborn.start(Socket, {"--disk-cache", Dir}))
      << "restart over the survived cache directory failed";
  std::string Warm, WarmQasm, Stats;
  ASSERT_EQ(runCommand("( " + cli(Socket) + "run " + Coin + Args +
                           " 2>/dev/null )",
                       Warm),
            0);
  EXPECT_EQ(Warm, Cold)
      << "disk-served artifacts must replay bit-identically after kill -9";
  ASSERT_EQ(runCommand("( " + cli(Socket) + "compile " + Coin +
                           " --emit qasm 2>/dev/null )",
                       WarmQasm),
            0);
  EXPECT_EQ(WarmQasm, ColdQasm);

  // The restart served from disk, visibly: raw counters and the pretty
  // summary's disk line both say so.
  ASSERT_EQ(runCommand("( " + cli(Socket) + "stats --json 2>/dev/null )",
                       Stats),
            0);
  json::Value Doc;
  std::string Error;
  ASSERT_TRUE(json::parse(Stats, Doc, Error)) << Error << "\n" << Stats;
  const json::Value *Disk = Doc.get("disk");
  ASSERT_NE(Disk, nullptr) << Stats;
  EXPECT_GE(Disk->get("hits")->asU64(), 2u)
      << "both artifacts must be served from disk after the restart";
  EXPECT_GE(Disk->get("warmed")->asU64(), 2u) << Stats;
  std::string Pretty;
  ASSERT_EQ(runCommand("( " + cli(Socket) + "stats 2>/dev/null )", Pretty),
            0);
  EXPECT_NE(Pretty.find("disk:"), std::string::npos) << Pretty;

  ASSERT_EQ(runCommand(cli(Socket) + "shutdown", Stats), 0);
  EXPECT_EQ(Reborn.wait(), 0);
  ::unlink(Socket.c_str());
}

TEST(ServiceDiskCache, CorruptEntryIsQuarantinedNotFatal) {
  std::string Tag = std::to_string(::getpid());
  std::string Socket = ::testing::TempDir() + "asdfd-quar-" + Tag + ".sock";
  std::string Dir = ::testing::TempDir() + "asdfd-quar-" + Tag + ".cache";
  ::unlink(Socket.c_str());
  ASSERT_EQ(::system(("rm -rf " + Dir).c_str()), 0);
  std::string Coin = writeTemp("service_cli_quar_coin.qw", CoinSource);

  {
    Daemon D;
    ASSERT_TRUE(D.start(Socket, {"--disk-cache", Dir}));
    std::string Out;
    ASSERT_EQ(runCommand(cli(Socket) + "compile " + Coin +
                             " --emit qasm >/dev/null",
                         Out),
              0);
    D.signal(SIGKILL);
    D.wait();
  }
  // Rot every stored entry down to a stump.
  std::string Out;
  ASSERT_EQ(::system(("for f in " + Dir +
                      "/objects/*.art; do : > $f; done")
                         .c_str()),
            0);

  Daemon Reborn;
  ASSERT_TRUE(Reborn.start(Socket, {"--disk-cache", Dir}))
      << "corrupt cache entries must never prevent startup";
  // The daemon still serves (recompiles); the entries moved to
  // quarantine/ for postmortems.
  ASSERT_EQ(runCommand("( " + cli(Socket) + "compile " + Coin +
                           " --emit qasm 2>/dev/null )",
                       Out),
            0);
  EXPECT_NE(Out.find("OPENQASM"), std::string::npos) << Out;
  ASSERT_EQ(runCommand("ls " + Dir + "/quarantine", Out), 0);
  EXPECT_NE(Out.find(".art.corrupt"), std::string::npos)
      << "expected quarantined entries, got: " << Out;
  ASSERT_EQ(runCommand(cli(Socket) + "shutdown", Out), 0);
  EXPECT_EQ(Reborn.wait(), 0);
  ::unlink(Socket.c_str());
}

//===----------------------------------------------------------------------===//
// Client retry across a daemon restart
//===----------------------------------------------------------------------===//

TEST(ServiceRetry, ClientSurvivesDaemonRestartMidSession) {
  // The daemon is down when the client starts. With --retries the client
  // keeps reconnecting under exponential backoff until the replacement
  // daemon (brought up concurrently) answers — and the answer matches
  // asdfc bit for bit.
  std::string Tag = std::to_string(::getpid());
  std::string Socket = ::testing::TempDir() + "asdfd-retry-" + Tag + ".sock";
  ::unlink(Socket.c_str());
  std::string Coin = writeTemp("service_cli_retry_coin.qw", CoinSource);
  const std::string Args = " --shots 30 --seed 424242";

  std::string Direct;
  ASSERT_EQ(runCommand("( " + std::string(ASDF_ASDFC_PATH) + " " + Coin +
                           " --emit run" + Args + " 2>/dev/null )",
                       Direct),
            0);

  Daemon D;
  std::thread Late([&] {
    ::usleep(400 * 1000); // The client must be mid-backoff by now.
    ASSERT_TRUE(D.start(Socket));
  });
  std::string Served, Err;
  int Exit = runCommand("( " + cli(Socket) + "run " + Coin + Args +
                            " --retries 8 --retry-budget-ms 20000"
                            " 2>/dev/null )",
                        Served);
  Late.join();
  ASSERT_EQ(Exit, 0) << Served;
  EXPECT_EQ(Served, Direct)
      << "a retried request must produce the same bits as a direct one";
  // The retry is reported on stderr, with a count.
  ASSERT_EQ(runCommand("( " + cli(Socket) + "shutdown >/dev/null ) ", Err),
            0);
  EXPECT_EQ(D.wait(), 0);
  ::unlink(Socket.c_str());
}

TEST(ServiceRetry, WithoutRetriesAConnectionFailureIsDistinct) {
  std::string Out;
  EXPECT_EQ(runCommand(std::string(ASDF_ASDF_CLI_PATH) +
                           " --socket /nonexistent/asdf.sock stats",
                       Out),
            1);
  // The failure names the connection, not a protocol/parse problem.
  EXPECT_EQ(Out.find("malformed"), std::string::npos) << Out;
}

#ifdef ASDF_FAULT_INJECTION

//===----------------------------------------------------------------------===//
// Fault-injected daemon end-to-end (ASDF_FAULT_INJECTION builds only)
//===----------------------------------------------------------------------===//

TEST(ServiceFaultE2E, TornWireWriteIsConnectionLostAndRetrySucceeds) {
  // $ASDF_FAULTS arms the spawned daemon: the first response write sends
  // half a line and drops the connection. Without retries the client must
  // report a lost connection (NOT a JSON parse error); with retries the
  // same request succeeds on the second attempt.
  std::string Tag = std::to_string(::getpid());
  std::string Socket = ::testing::TempDir() + "asdfd-torn-" + Tag + ".sock";
  ::unlink(Socket.c_str());
  std::string Coin = writeTemp("service_cli_torn_coin.qw", CoinSource);

  {
    Daemon D;
    ASSERT_TRUE(D.start(Socket, {}, {"ASDF_FAULTS=wire.torn-write=1"}));
    std::string Out;
    EXPECT_EQ(runCommand(cli(Socket) + "compile " + Coin + " --emit qasm",
                         Out),
              1);
    EXPECT_NE(Out.find("connection-lost"), std::string::npos)
        << "a torn response must be reported as a lost connection: " << Out;
    EXPECT_EQ(Out.find("malformed"), std::string::npos)
        << "a torn response must not be misreported as bad JSON: " << Out;
    D.signal(SIGTERM);
    D.wait();
  }

  Daemon D;
  ASSERT_TRUE(D.start(Socket, {}, {"ASDF_FAULTS=wire.torn-write=1"}));
  std::string Out;
  EXPECT_EQ(runCommand("( " + cli(Socket) + "compile " + Coin +
                           " --emit qasm --retries 3 >/dev/null )",
                       Out),
            0)
      << Out;
  EXPECT_NE(Out.find("succeeded after 1 retry"), std::string::npos) << Out;
  std::string Ignore;
  runCommand(cli(Socket) + "shutdown", Ignore);
  D.wait();
  ::unlink(Socket.c_str());
}

TEST(ServiceFaultE2E, InjectedCompileBadAllocShedsThenHeals) {
  std::string Tag = std::to_string(::getpid());
  std::string Socket = ::testing::TempDir() + "asdfd-oom-" + Tag + ".sock";
  ::unlink(Socket.c_str());
  std::string Coin = writeTemp("service_cli_oom_coin.qw", CoinSource);

  Daemon D;
  ASSERT_TRUE(D.start(Socket, {}, {"ASDF_FAULTS=compile.bad-alloc=1"}));
  std::string Out;
  EXPECT_EQ(runCommand(cli(Socket) + "compile " + Coin + " --emit qasm",
                       Out),
            1);
  EXPECT_NE(Out.find("resource-exhausted"), std::string::npos) << Out;
  // The fault budget is spent; the daemon healed in place.
  EXPECT_EQ(runCommand("( " + cli(Socket) + "compile " + Coin +
                           " --emit qasm 2>/dev/null )",
                       Out),
            0);
  EXPECT_NE(Out.find("OPENQASM"), std::string::npos) << Out;
  std::string Ignore;
  runCommand(cli(Socket) + "shutdown", Ignore);
  D.wait();
  ::unlink(Socket.c_str());
}

TEST(ServiceFaultE2E, AsdfcOutOfMemoryExitsOneWithOneLine) {
  // An allocation failure in asdfc is a runtime failure (exit 1, one
  // stderr line), not std::terminate (exit 134).
  std::string Coin = writeTemp("service_cli_asdfc_oom_coin.qw", CoinSource);
  std::string Out;
  EXPECT_EQ(runCommand("ASDF_FAULTS=compile.bad-alloc=1 " +
                           std::string(ASDF_ASDFC_PATH) + " " + Coin +
                           " --emit qasm",
                       Out),
            1)
      << Out;
  EXPECT_EQ(Out, "asdfc: out of memory\n");
  // Unarmed, the same command compiles.
  EXPECT_EQ(runCommand(std::string(ASDF_ASDFC_PATH) + " " + Coin +
                           " --emit qasm",
                       Out),
            0)
      << Out;
}

#endif // ASDF_FAULT_INJECTION

} // namespace

#else
TEST(ServiceCliTest, Skipped) {
  GTEST_SKIP() << "binary paths not configured";
}
#endif // binary paths
