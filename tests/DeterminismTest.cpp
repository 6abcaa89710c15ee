//===- DeterminismTest.cpp - Shot-parallel determinism regression ---------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The determinism contract of the execution plan, pinned hard:
///
///   - runShots/runBatch return identical per-shot bits for jobs=1 and
///     jobs=8 on both engines (the seed-derivation contract from the
///     backend-subsystem PR is what makes shot-parallelism legal);
///   - deriveShotSeed matches a golden table, so the splitmix64 hash can
///     never silently change — that would silently re-randomize every
///     recorded run in every downstream test and artifact.
///
//===----------------------------------------------------------------------===//

#include "sim/CircuitAnalysis.h"
#include "sim/Simulator.h"
#include "sim/StabilizerBackend.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

using namespace asdf;

namespace {

/// A dynamic circuit with mid-circuit measurement, feed-forward, reset,
/// and a non-Clifford tail: every source of per-shot randomness at once.
Circuit dynamicMixedCircuit() {
  Circuit C;
  C.NumQubits = 5;
  C.NumBits = 5;
  C.append(CircuitInstr::gate(GateKind::H, {}, {0}));
  C.append(CircuitInstr::gate(GateKind::RY, {}, {1}, 0.7));
  C.append(CircuitInstr::gate(GateKind::X, {0}, {2}));
  C.append(CircuitInstr::gate(GateKind::T, {}, {2}));
  C.append(CircuitInstr::measure(0, 0));
  CircuitInstr Fix = CircuitInstr::gate(GateKind::X, {}, {3});
  Fix.CondBit = 0;
  C.append(Fix);
  C.append(CircuitInstr::reset(2));
  C.append(CircuitInstr::gate(GateKind::H, {}, {2}));
  C.append(CircuitInstr::gate(GateKind::RZ, {}, {3}, 1.3));
  C.append(CircuitInstr::gate(GateKind::RX, {}, {4}, 2.1));
  for (unsigned Q = 1; Q < 5; ++Q)
    C.append(CircuitInstr::measure(Q, Q));
  return C;
}

/// A Clifford analog for the tableau engine.
Circuit dynamicCliffordCircuit() {
  Circuit C = dynamicMixedCircuit();
  for (CircuitInstr &I : C.Instrs)
    if (I.TheKind == CircuitInstr::Kind::Gate &&
        (I.Gate == GateKind::RY || I.Gate == GateKind::RZ ||
         I.Gate == GateKind::RX || I.Gate == GateKind::T))
      I = CircuitInstr::gate(GateKind::S, {}, {I.Targets[0]});
  return C;
}

TEST(DeterminismTest, JobsDoNotChangePerShotBits) {
  const unsigned Shots = 64;
  struct Case {
    const char *Name;
    Circuit C;
    const SimBackend *B;
  };
  StatevectorBackend Sv;
  StabilizerBackend Stab;
  Circuit Mixed = dynamicMixedCircuit();
  Circuit Cliff = dynamicCliffordCircuit();
  ASSERT_TRUE(analyzeCircuit(Cliff).CliffordOnly);
  const Case Cases[] = {
      {"sv/mixed", Mixed, &Sv},
      {"sv/clifford", Cliff, &Sv},
      {"stab/clifford", Cliff, &Stab},
  };
  for (const Case &TC : Cases) {
    RunOptions J1, J8;
    J1.Jobs = 1;
    J8.Jobs = 8;
    std::vector<ShotResult> A = TC.B->runBatch(TC.C, Shots, 33, J1);
    std::vector<ShotResult> B = TC.B->runBatch(TC.C, Shots, 33, J8);
    ASSERT_EQ(A.size(), B.size());
    for (unsigned S = 0; S < Shots; ++S)
      ASSERT_EQ(A[S].Bits, B[S].Bits) << TC.Name << " shot " << S;
    // And per-shot bits equal independent run() replays.
    for (unsigned S : {0u, 1u, 31u, 63u})
      EXPECT_EQ(A[S].Bits, TC.B->run(TC.C, deriveShotSeed(33, S)).Bits)
          << TC.Name << " shot " << S;
  }
}

TEST(DeterminismTest, RunShotsFacadeIsJobCountInvariant) {
  Circuit C = dynamicMixedCircuit();
  RunOptions J1, J8;
  J1.Jobs = 1;
  J8.Jobs = 8;
  EXPECT_EQ(runShots(C, 200, 5, BackendKind::Auto, J1),
            runShots(C, 200, 5, BackendKind::Auto, J8));
  EXPECT_NE(runShots(C, 200, 5, BackendKind::Auto, J8),
            runShots(C, 200, 6, BackendKind::Auto, J8));
}

TEST(DeterminismTest, DeriveShotSeedMatchesGoldenTable) {
  // Golden splitmix64 outputs. If this test fails, the hash changed and
  // every recorded (circuit, seed, shots) replay breaks: do not update the
  // table without bumping whatever versioning the artifacts carry.
  struct Golden {
    uint64_t Seed, Shot, Want;
  };
  const Golden Table[] = {
      {0ull, 0ull, 0xE220A8397B1DCDAFull},
      {0ull, 1ull, 0x6E789E6AA1B965F4ull},
      {0ull, 2ull, 0x06C45D188009454Full},
      {0ull, 3ull, 0xF88BB8A8724C81ECull},
      {1ull, 0ull, 0x910A2DEC89025CC1ull},
      {7ull, 3ull, 0x953AEB70673E29CBull},
      {42ull, 0ull, 0xBDD732262FEB6E95ull},
      {42ull, 999ull, 0x66091CA85313FA68ull},
      {3735928559ull, 12345ull, 0x48A45C7BD27848D3ull},
      {18446744073709551615ull, 4294967296ull, 0xC5AA1D1D7E827744ull},
  };
  for (const Golden &G : Table)
    EXPECT_EQ(deriveShotSeed(G.Seed, G.Shot), G.Want)
        << "seed " << G.Seed << " shot " << G.Shot;
}

TEST(DeterminismTest, DenseQubitCapDerivation) {
  // The dense cap is no longer a hard-coded 26: the memory-derived cap is
  // sane and the hard cap bounds it.
  unsigned Derived = StatevectorBackend::maxQubits();
  EXPECT_GE(Derived, 10u);
  EXPECT_LE(Derived, StatevectorBackend::HardMaxQubits);

  // supports() must agree with the derived cap.
  StatevectorBackend Sv;
  Circuit Wide;
  Wide.NumQubits = Derived;
  EXPECT_TRUE(Sv.supports(Wide, analyzeCircuit(Wide)));
  Wide.NumQubits = StatevectorBackend::HardMaxQubits + 1;
  EXPECT_FALSE(Sv.supports(Wide, analyzeCircuit(Wide)));
}

TEST(DeterminismTest, ResolveJobCountClamps) {
  EXPECT_EQ(resolveJobCount(3, 100), 3u);
  EXPECT_EQ(resolveJobCount(8, 2), 2u);
  EXPECT_EQ(resolveJobCount(1, 1000), 1u);
  EXPECT_GE(resolveJobCount(0, 1000), 1u); // auto: at least one worker
  EXPECT_EQ(resolveJobCount(5, 0), 1u);    // never below one worker

  // The shot-free overload (the amplitude-parallel worker budget) still
  // honors the 4x-cores oversubscription cap and the floor of one.
  unsigned Cores = std::thread::hardware_concurrency();
  if (Cores == 0)
    Cores = 1;
  EXPECT_GE(resolveJobCount(0), 1u);
  EXPECT_LE(resolveJobCount(1u << 30), Cores * 4);
}

TEST(DeterminismTest, AmplitudeParallelBitIdenticalAcrossJobs) {
  // 14 qubits: 2^13 pairs, enough for the amplitude-parallel kernels to
  // actually split their index ranges. Six shots run shot-parallel at up
  // to 3 workers and one after another on split kernels at 4 and 8. The
  // fixed-chunk reductions must make every jobs count agree with the
  // serial unfused reference on every sampled bit.
  Circuit C;
  C.NumQubits = 14;
  C.NumBits = 14;
  for (unsigned Q = 0; Q < 14; ++Q) {
    C.append(CircuitInstr::gate(GateKind::H, {}, {Q}));
    C.append(CircuitInstr::gate(GateKind::RY, {}, {Q}, 0.2 + 0.15 * Q));
  }
  for (unsigned Q = 1; Q < 14; ++Q)
    C.append(CircuitInstr::gate(GateKind::X, {Q - 1}, {Q}));
  C.append(CircuitInstr::measure(0, 0));
  CircuitInstr Fix = CircuitInstr::gate(GateKind::X, {}, {1});
  Fix.CondBit = 0;
  C.append(Fix);
  C.append(CircuitInstr::gate(GateKind::RZ, {}, {1}, 0.9));
  for (unsigned Q = 1; Q < 14; ++Q)
    C.append(CircuitInstr::measure(Q, Q));

  StatevectorBackend Sv;
  const unsigned Shots = 6;
  for (unsigned Jobs : {1u, 2u, 3u, 4u, 8u}) {
    RunOptions Opts;
    Opts.Jobs = Jobs;
    std::vector<ShotResult> Got = Sv.runBatch(C, Shots, 77, Opts);
    ASSERT_EQ(Got.size(), Shots);
    for (unsigned S = 0; S < Shots; ++S)
      ASSERT_EQ(Got[S].Bits, Sv.run(C, deriveShotSeed(77, S)).Bits)
          << "jobs " << Jobs << " shot " << S;
  }
}

TEST(DeterminismTest, ParallelLoopsNeverSpawnIdleWorkers) {
  // Regression for the Shots < Jobs case: 16 requested workers for 3 work
  // items must run on at most 3 threads — never 13 idle spawns.
  std::mutex Lock;
  std::set<std::thread::id> Ids;
  std::vector<int> ShotRuns(3, 0);
  parallelShotLoop(16, 3, [&](unsigned S) {
    {
      std::lock_guard<std::mutex> G(Lock);
      Ids.insert(std::this_thread::get_id());
    }
    ShotRuns[S]++;
  });
  EXPECT_LE(Ids.size(), 3u);
  for (int R : ShotRuns)
    EXPECT_EQ(R, 1);

  // Worker ids stay dense in [0, Jobs) so per-worker scratch is safe.
  parallelShotLoop(4, 50, [&](unsigned W, unsigned S) {
    EXPECT_LT(W, 4u);
    EXPECT_LT(S, 50u);
  });

  // parallelIndexLoop covers [0, N) exactly once, in disjoint ranges,
  // honoring the chunk floor.
  std::vector<int> Seen(1000, 0);
  parallelIndexLoop(4, 1000, 16, [&](uint64_t B, uint64_t E) {
    ASSERT_LE(B, E);
    ASSERT_LE(E, uint64_t(1000));
    for (uint64_t I = B; I < E; ++I)
      Seen[I]++;
  });
  for (int R : Seen)
    EXPECT_EQ(R, 1);

  // Degenerate sizes: empty and single-item loops.
  unsigned Calls = 0;
  parallelIndexLoop(8, 0, 1, [&](uint64_t, uint64_t) { ++Calls; });
  EXPECT_EQ(Calls, 0u);
  parallelIndexLoop(8, 1, 1, [&](uint64_t B, uint64_t E) {
    EXPECT_EQ(B, 0u);
    EXPECT_EQ(E, 1u);
    ++Calls;
  });
  EXPECT_EQ(Calls, 1u);
}

/// A number no other thread ever had, even one whose std::thread::id is
/// reused after an earlier thread exited.
unsigned threadSerial() {
  static std::atomic<unsigned> Next{0};
  thread_local unsigned Serial = Next.fetch_add(1);
  return Serial;
}

/// Makes a body slow enough that the helpers of a loop claim chunks too,
/// not only the calling thread.
void spinBriefly() {
  auto Until = std::chrono::steady_clock::now() + std::chrono::microseconds(5);
  while (std::chrono::steady_clock::now() < Until) {
  }
}

TEST(DeterminismTest, LoopsBorrowParkedWorkerThreads) {
  // A loop used to create and join its own helper threads on every call,
  // so these 1000 calls ran their bodies on dozens of threads. Parked
  // helpers go back to the set after every loop, and the next loop
  // borrows the same ones.
  std::mutex Lock;
  std::set<unsigned> Serials;
  for (unsigned Call = 0; Call < 1000; ++Call)
    parallelIndexLoop(4, 64, 1, [&](uint64_t, uint64_t) {
      spinBriefly();
      std::lock_guard<std::mutex> G(Lock);
      Serials.insert(threadSerial());
    });
  EXPECT_LE(Serials.size(), 4u);
}

TEST(DeterminismTest, ConcurrentAndNestedLoopsCoverEveryIndexOnce) {
  // Four callers at jobs 4 compete for the parked helpers, and one body
  // of every loop runs a nested jobs-2 loop. A loop runs with whatever
  // helpers it gets, so none may deadlock, and every index of every loop
  // runs exactly once. Shot-loop worker ids stay below the job count.
  constexpr unsigned Callers = 4, Rounds = 50, Outer = 4096, Inner = 256;
  std::atomic<unsigned> Wrong{0}, MaxWorker{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < Callers; ++T)
    Threads.emplace_back([&] {
      for (unsigned Round = 0; Round < Rounds; ++Round) {
        std::vector<int> Seen(Outer, 0), InnerSeen(Inner, 0);
        parallelIndexLoop(4, Outer, 1, [&](uint64_t B, uint64_t E) {
          spinBriefly();
          for (uint64_t I = B; I < E; ++I)
            ++Seen[I];
          if (B == 0)
            parallelIndexLoop(2, Inner, 1, [&](uint64_t IB, uint64_t IE) {
              for (uint64_t I = IB; I < IE; ++I)
                ++InnerSeen[I];
            });
        });
        Wrong += std::count_if(Seen.begin(), Seen.end(),
                               [](int C) { return C != 1; });
        Wrong += std::count_if(InnerSeen.begin(), InnerSeen.end(),
                               [](int C) { return C != 1; });
        std::vector<int> ShotRuns(100, 0);
        parallelShotLoop(3, 100, [&](unsigned W, unsigned S) {
          unsigned Max = MaxWorker.load();
          while (W > Max && !MaxWorker.compare_exchange_weak(Max, W)) {
          }
          ++ShotRuns[S];
        });
        Wrong += std::count_if(ShotRuns.begin(), ShotRuns.end(),
                               [](int C) { return C != 1; });
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Wrong.load(), 0u);
  EXPECT_LT(MaxWorker.load(), 3u);
}

TEST(DeterminismTest, AThrowingBodyRethrowsOnlyInItsOwnCaller) {
  // One caller's bodies throw while another's run to completion on the
  // same parked helpers: only the first sees the exception, and every
  // helper comes back for the loops after it.
  std::atomic<unsigned> Caught{0};
  std::thread Thrower([&] {
    for (unsigned Round = 0; Round < 100; ++Round) {
      try {
        parallelIndexLoop(4, 4096, 1, [](uint64_t B, uint64_t) {
          spinBriefly();
          if (B >= 2048)
            throw std::runtime_error("body failed");
        });
      } catch (const std::runtime_error &) {
        ++Caught;
      }
    }
  });
  unsigned Wrong = 0;
  for (unsigned Round = 0; Round < 100; ++Round) {
    std::vector<int> Seen(4096, 0);
    EXPECT_NO_THROW(parallelIndexLoop(4, 4096, 1, [&](uint64_t B, uint64_t E) {
      spinBriefly();
      for (uint64_t I = B; I < E; ++I)
        ++Seen[I];
    }));
    Wrong += std::count_if(Seen.begin(), Seen.end(),
                           [](int C) { return C != 1; });
  }
  Thrower.join();
  EXPECT_EQ(Caught.load(), 100u);
  EXPECT_EQ(Wrong, 0u);
}

} // namespace
