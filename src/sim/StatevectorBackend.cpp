//===- StatevectorBackend.cpp - Dense state-vector engine -----------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/StatevectorBackend.h"

#include "noise/NoiseModel.h"
#include "obs/Trace.h"
#include "support/BitUtils.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>

#if __has_include(<unistd.h>)
#include <unistd.h>
#endif

using namespace asdf;

namespace {

/// Below this many pairs (or groups) a kernel runs serial: waking the
/// worker pool costs more than the sweep itself.
constexpr uint64_t KernelMinChunk = uint64_t(1) << 13;

/// Fixed reduction granularity, in pairs: probability sums accumulate per
/// chunk and combine in chunk order, so the rounding — and therefore every
/// sampled measurement — is identical for any worker count, including the
/// serial reference.
constexpr uint64_t ReduceChunk = uint64_t(1) << 16;

/// Unpacks the set bits of \p Mask into \p Out, sorted ascending.
unsigned collectBits(uint64_t Mask, uint64_t *Out) {
  unsigned K = 0;
  while (Mask) {
    uint64_t B = Mask & (~Mask + 1);
    Out[K++] = B;
    Mask ^= B;
  }
  return K;
}

/// Visits pair indices [PBegin, PEnd) of the single uncontrolled target
/// \p Bit as maximal contiguous runs: Body(I0, Run) covers low-half
/// indices I0 .. I0+Run-1, with the high halves at +Bit — two
/// unit-stride streams the compiler can vectorize.
template <class Fn>
void forPairRuns(uint64_t PBegin, uint64_t PEnd, uint64_t Bit, Fn &&Body) {
  while (PBegin < PEnd) {
    uint64_t Run = Bit - (PBegin & (Bit - 1));
    if (Run > PEnd - PBegin)
      Run = PEnd - PBegin;
    Body(insertZeroBit(PBegin, Bit), Run);
    PBegin += Run;
  }
}

/// The one summation order of every measurement probability: std::norm of
/// Hi[insertZeroBit(P, Bit)] over pairs P in [0, NumPairs), added in
/// ascending P within chunks of \p ChunkPairs pairs, the chunk sums then
/// combined in chunk order. Fixed chunks make the rounding — and so every
/// sampled outcome — the same for any \p Jobs, including the serial
/// reference. A \p Bit >= NumPairs makes the terms Hi[0 .. NumPairs).
double chunkedNormSum(const Amplitude *Hi, uint64_t NumPairs, uint64_t Bit,
                      uint64_t ChunkPairs, unsigned Jobs) {
  if (NumPairs == 0)
    return 0.0;
  uint64_t NumChunks = (NumPairs + ChunkPairs - 1) / ChunkPairs;
  double PartialBuf[64];
  std::vector<double> PartialVec;
  double *Partial = PartialBuf;
  if (NumChunks > 64) {
    PartialVec.resize(NumChunks);
    Partial = PartialVec.data();
  }
  // Each worker's share spans at least KernelMinChunk pairs, as in the
  // kernels: a sum over a few survivors runs serial.
  const uint64_t MinChunks = std::max<uint64_t>(1, KernelMinChunk / ChunkPairs);
  parallelIndexLoop(Jobs, NumChunks, MinChunks, [&](uint64_t CB, uint64_t CE) {
    for (uint64_t C = CB; C < CE; ++C) {
      uint64_t PB = C * ChunkPairs;
      uint64_t PE = std::min(PB + ChunkPairs, NumPairs);
      double S = 0.0;
      forPairRuns(PB, PE, Bit, [&](uint64_t I0, uint64_t Run) {
        const Amplitude *__restrict P1 = Hi + I0;
        for (uint64_t X = 0; X < Run; ++X)
          S += std::norm(P1[X]);
      });
      Partial[C] = S;
    }
  });
  double P = 0.0;
  for (uint64_t C = 0; C < NumChunks; ++C)
    P += Partial[C];
  return P;
}

/// Samples a measurement against \p P1: one uniform draw.
bool drawOutcome(double P1, std::mt19937_64 &Rng) {
  std::uniform_real_distribution<double> Dist(0.0, 1.0);
  return Dist(Rng) < P1;
}

/// What the kept half of a measurement that drew \p One against \p P1 is
/// divided by.
double keptNorm(double P1, bool One) {
  double Norm = std::sqrt(One ? P1 : 1.0 - P1);
  return Norm < 1e-300 ? 1.0 : Norm;
}

/// One local basis state of four groups: four amplitudes as interleaved
/// re/im pairs in one 64-byte SIMD vector (GCC and Clang vector
/// extension). Lane k holds the group whose two lane bits read k.
typedef double Lanes __attribute__((vector_size(4 * sizeof(Amplitude))));

/// A 2^m x 2^m matrix as the lane kernel reads it: row-major re and im
/// parts, and which entries of each row are nonzero.
struct BlockRows {
  static constexpr unsigned MaxDim = 1u << MaxBlockQubits;
  double Ur[MaxDim * MaxDim], Ui[MaxDim * MaxDim];
  unsigned NonZero[MaxDim]; ///< Bit S of row R: entry (R, S) is nonzero.
};

/// Moves whole amplitudes between memory order and lane order: of two
/// vectors that differ in one lane bit, P keeps the amplitudes whose
/// position bit \p Pos (0 or 1) reads 0 and R those that read 1, each
/// sorted by its lane bits. Self-inverse. It takes references (no vector
/// by value in a signature), so builds without wide registers lower it
/// without ABI warnings.
template <unsigned Pos> inline void exchangeLanes(Lanes &P, Lanes &R) {
  Lanes Lo, Hi;
  if constexpr (Pos == 0) {
    Lo = __builtin_shufflevector(P, R, 0, 1, 8, 9, 4, 5, 12, 13);
    Hi = __builtin_shufflevector(P, R, 2, 3, 10, 11, 6, 7, 14, 15);
  } else {
    Lo = __builtin_shufflevector(P, R, 0, 1, 2, 3, 8, 9, 10, 11);
    Hi = __builtin_shufflevector(P, R, 4, 5, 6, 7, 12, 13, 14, 15);
  }
  P = Lo;
  R = Hi;
}

/// Applies \p Rows (Dim = 2^m) to quads [B, E): four groups at a time, one
/// vector per local basis state. \p Raw[S] is the memory chunk of state S:
/// its offset with the block's index bits 0 and 1 moved onto lane bits, so
/// each chunk is four contiguous amplitudes. \p Lo0 / \p Lo1 say the block
/// holds index bit 0 / 1; the support is sorted, so bit 0 is local bit 0
/// and bit 1 the next local bit, and exchangeLanes trades them for those
/// lane bits. Output row R sums, over its nonzero entries in ascending
/// column order, `Ur * V + Ui * N`, N being V with re and im swapped and
/// the new re negated: lane by lane this is `Ur * Vr - Ui * Vi` and
/// `Ur * Vi + Ui * Vr`, the terms of the scalar row product, and it rounds
/// as they do (the fused multiply-add takes the first product). The loops
/// unroll, so the vectors stay in registers and each nonzero test is one
/// branch that goes the same way for the whole call. Every group rounds
/// the same whatever the chunking.
template <unsigned Dim, bool Lo0, bool Lo1>
void applyBlockLanes(Amplitude *A, const BlockRows &Rows,
                     const uint64_t *Pinned, const uint64_t *Raw, uint64_t B,
                     uint64_t E) {
  constexpr unsigned K = std::countr_zero(Dim) + 2, S1 = Lo0 ? 2 : 1;
  const Lanes NegRe = {-1, 1, -1, 1, -1, 1, -1, 1};
  for (uint64_t Q = B; Q < E; ++Q) {
    uint64_t Base = insertZeroBits(Q, Pinned, K);
    Lanes V[Dim], N[Dim], Out[Dim];
#pragma GCC unroll 8
    for (unsigned S = 0; S < Dim; ++S)
      std::memcpy(&V[S], A + (Base | Raw[S]), sizeof(Lanes));
    if constexpr (Lo0) {
#pragma GCC unroll 8
      for (unsigned S = 0; S < Dim; S += 2)
        exchangeLanes<0>(V[S], V[S + 1]);
    }
    if constexpr (Lo1) {
#pragma GCC unroll 8
      for (unsigned S = 0; S + S1 < Dim; ++S)
        if (!(S & S1))
          exchangeLanes<1>(V[S], V[S + S1]);
    }
#pragma GCC unroll 8
    for (unsigned S = 0; S < Dim; ++S)
      N[S] = __builtin_shufflevector(V[S], V[S], 1, 0, 3, 2, 5, 4, 7, 6) *
             NegRe;
#pragma GCC unroll 8
    for (unsigned R = 0; R < Dim; ++R) {
      Lanes Acc = {};
#pragma GCC unroll 8
      for (unsigned S = 0; S < Dim; ++S)
        if (Rows.NonZero[R] & (1u << S))
          Acc += Rows.Ur[R * Dim + S] * V[S] + Rows.Ui[R * Dim + S] * N[S];
      Out[R] = Acc;
    }
    if constexpr (Lo1) {
#pragma GCC unroll 8
      for (unsigned S = 0; S + S1 < Dim; ++S)
        if (!(S & S1))
          exchangeLanes<1>(Out[S], Out[S + S1]);
    }
    if constexpr (Lo0) {
#pragma GCC unroll 8
      for (unsigned S = 0; S < Dim; S += 2)
        exchangeLanes<0>(Out[S], Out[S + 1]);
    }
#pragma GCC unroll 8
    for (unsigned S = 0; S < Dim; ++S)
      std::memcpy(reinterpret_cast<double *>(A + (Base | Raw[S])), &Out[S],
                  sizeof(Lanes));
  }
}

/// The lane kernel's entry for one Dim: picks the layout.
template <unsigned Dim>
void applyBlockLanes(Amplitude *A, const BlockRows &Rows, bool Lo0, bool Lo1,
                     const uint64_t *Pinned, const uint64_t *Raw, uint64_t B,
                     uint64_t E) {
  if (Lo0 && Lo1)
    applyBlockLanes<Dim, true, true>(A, Rows, Pinned, Raw, B, E);
  else if (Lo0)
    applyBlockLanes<Dim, true, false>(A, Rows, Pinned, Raw, B, E);
  else if (Lo1)
    applyBlockLanes<Dim, false, true>(A, Rows, Pinned, Raw, B, E);
  else
    applyBlockLanes<Dim, false, false>(A, Rows, Pinned, Raw, B, E);
}

/// Applies the 2^m x 2^m row-major matrix \p U to the \p Size amplitudes
/// at \p A. \p Bits[J] is the index bit of local bit m-1-J, descending
/// (Bits[0] owns the local MSB). Each output amplitude is +0 plus the
/// terms of the row's nonzero entries, in ascending column order. An
/// exact-zero entry adds only +-0, which changes no sum that starts at +0
/// (such a sum is never -0), so the result is the full scalar row product
/// bit for bit. States too small for two lane bits take the scalar row
/// product itself.
void applyMatrixLanes(Amplitude *A, uint64_t Size, const uint64_t *Bits,
                      unsigned M, const Amplitude *U, unsigned Jobs) {
  const unsigned Dim = 1u << M;
  BlockRows Rows;
  for (unsigned R = 0; R < Dim; ++R) {
    unsigned &Mask = Rows.NonZero[R];
    Mask = 0;
    for (unsigned S = 0; S < Dim; ++S) {
      Amplitude X = U[R * Dim + S];
      Rows.Ur[R * Dim + S] = X.real();
      Rows.Ui[R * Dim + S] = X.imag();
      if (X.real() != 0.0 || X.imag() != 0.0)
        Mask |= 1u << S;
    }
  }

  // Offset[S] is the index pattern of local basis state S.
  uint64_t Offset[BlockRows::MaxDim], Support = 0;
  for (unsigned S = 0; S < Dim; ++S) {
    uint64_t O = 0;
    for (unsigned J = 0; J < M; ++J)
      if ((S >> (M - 1 - J)) & 1)
        O |= Bits[J];
    Offset[S] = O;
    Support |= O;
  }

  if (Size < (uint64_t(4) << M)) {
    uint64_t Pinned[MaxBlockQubits];
    unsigned K = collectBits(Support, Pinned);
    for (uint64_t G = 0; G < (Size >> M); ++G) {
      uint64_t Base = insertZeroBits(G, Pinned, K);
      double Vr[BlockRows::MaxDim], Vi[BlockRows::MaxDim];
      for (unsigned S = 0; S < Dim; ++S) {
        Vr[S] = A[Base | Offset[S]].real();
        Vi[S] = A[Base | Offset[S]].imag();
      }
      for (unsigned R = 0; R < Dim; ++R) {
        double Ar = 0.0, Ai = 0.0;
        for (unsigned S = 0; S < Dim; ++S) {
          if (!(Rows.NonZero[R] & (1u << S)))
            continue;
          double Ur = Rows.Ur[R * Dim + S], Ui = Rows.Ui[R * Dim + S];
          Ar += Ur * Vr[S] - Ui * Vi[S];
          Ai += Ur * Vi[S] + Ui * Vr[S];
        }
        A[Base | Offset[R]] = Amplitude(Ar, Ai);
      }
    }
    return;
  }

  // The lanes are the two lowest index bits outside the block. In the
  // chunk offsets, the block's bits among index bits 0 and 1 trade places
  // with the lane bits above them, in ascending order, so each chunk is
  // four contiguous amplitudes.
  uint64_t LaneBits = 0;
  for (uint64_t Bit = 1; std::popcount(LaneBits) < 2; Bit <<= 1)
    if (!(Support & Bit))
      LaneBits |= Bit;
  uint64_t Raw[BlockRows::MaxDim];
  for (unsigned S = 0; S < Dim; ++S) {
    Raw[S] = Offset[S] & ~uint64_t(3);
    uint64_t High = LaneBits & ~uint64_t(3);
    for (uint64_t Low = 1; Low <= 2; Low <<= 1)
      if (Support & Low) {
        uint64_t Lane = High & (~High + 1);
        if (Offset[S] & Low)
          Raw[S] |= Lane;
        High ^= Lane;
      }
  }
  const bool Lo0 = Support & 1, Lo1 = Support & 2;
  uint64_t Pinned[MaxBlockQubits + 2];
  collectBits(Support | LaneBits, Pinned);

  parallelIndexLoop(
      Jobs, Size >> (M + 2), KernelMinChunk >> (M + 1),
      [&](uint64_t B, uint64_t E) {
        switch (M) {
        case 1:
          applyBlockLanes<2>(A, Rows, Lo0, Lo1, Pinned, Raw, B, E);
          break;
        case 2:
          applyBlockLanes<4>(A, Rows, Lo0, Lo1, Pinned, Raw, B, E);
          break;
        default:
          applyBlockLanes<8>(A, Rows, Lo0, Lo1, Pinned, Raw, B, E);
          break;
        }
      });
}

} // namespace

StateVector::StateVector(unsigned NumQubits) : NumQubits(NumQubits) {
  assert(NumQubits <= StatevectorBackend::HardMaxQubits &&
         "state vector too large");
  Amp.assign(uint64_t(1) << NumQubits, Amplitude(0.0, 0.0));
  Amp[0] = Amplitude(1.0, 0.0);
}

void StateVector::setBasisState(uint64_t Index) {
  std::fill(Amp.begin(), Amp.end(), Amplitude(0.0, 0.0));
  Amp[Index] = Amplitude(1.0, 0.0);
}

void StateVector::bumpStats(uint64_t Touched, bool Fused, bool Block) const {
  if (!Stats)
    return;
  // Plain increments: each engine instance owns (or exclusively borrows)
  // its SimStats; parallel shot runners merge per-worker copies at join.
  ++(Fused ? Stats->FusedOps : Stats->GatesApplied);
  if (Block)
    ++Stats->FusedBlocks;
  Stats->AmplitudesTouched += Touched;
}

void StateVector::phaseSweep(uint64_t Mask, Amplitude Phase) {
  // Strided: enumerate exactly the 2^(n-k) indices with every Mask bit
  // set by bit insertion — no filtered full scan.
  uint64_t Pinned[64];
  unsigned K = collectBits(Mask, Pinned);
  uint64_t Num = Amp.size() >> K;
  Amplitude *A = Amp.data();
  parallelIndexLoop(ParJobs, Num, KernelMinChunk,
                    [&](uint64_t B, uint64_t E) {
                      for (uint64_t J = B; J < E; ++J)
                        A[insertZeroBits(J, Pinned, K) | Mask] *= Phase;
                    });
}

void StateVector::pairSwap(uint64_t CtlMask, uint64_t Bit) {
  uint64_t Pinned[64];
  unsigned K = collectBits(CtlMask | Bit, Pinned);
  uint64_t Num = Amp.size() >> K;
  Amplitude *A = Amp.data();
  if (CtlMask == 0) {
    parallelIndexLoop(
        ParJobs, Num, KernelMinChunk, [&](uint64_t B, uint64_t E) {
          forPairRuns(B, E, Bit, [&](uint64_t I0, uint64_t Run) {
            Amplitude *__restrict P0 = A + I0;
            Amplitude *__restrict P1 = A + (I0 + Bit);
            for (uint64_t X = 0; X < Run; ++X)
              std::swap(P0[X], P1[X]);
          });
        });
    return;
  }
  parallelIndexLoop(ParJobs, Num, KernelMinChunk,
                    [&](uint64_t B, uint64_t E) {
                      for (uint64_t J = B; J < E; ++J) {
                        uint64_t I0 =
                            insertZeroBits(J, Pinned, K) | CtlMask;
                        std::swap(A[I0], A[I0 | Bit]);
                      }
                    });
}

void StateVector::matrix2Kernel(uint64_t CtlMask, uint64_t Bit,
                                const Mat2 &U) {
  Amplitude *A = Amp.data();
  if (CtlMask == 0) {
    applyMatrixLanes(A, Amp.size(), &Bit, 1, &U.M[0][0], ParJobs);
    return;
  }
  uint64_t Pinned[64];
  unsigned K = collectBits(CtlMask | Bit, Pinned);
  uint64_t Num = Amp.size() >> K;
  const Amplitude U00 = U.M[0][0], U01 = U.M[0][1];
  const Amplitude U10 = U.M[1][0], U11 = U.M[1][1];
  parallelIndexLoop(ParJobs, Num, KernelMinChunk,
                    [&](uint64_t B, uint64_t E) {
                      for (uint64_t J = B; J < E; ++J) {
                        uint64_t I0 =
                            insertZeroBits(J, Pinned, K) | CtlMask;
                        uint64_t I1 = I0 | Bit;
                        Amplitude A0 = A[I0], A1 = A[I1];
                        A[I0] = U00 * A0 + U01 * A1;
                        A[I1] = U10 * A0 + U11 * A1;
                      }
                    });
}

void StateVector::apply(GateKind G, const std::vector<unsigned> &Controls,
                        const std::vector<unsigned> &Targets, double Param) {
  uint64_t CtlMask = 0;
  for (unsigned C : Controls)
    CtlMask |= qubitBit(C);

  if (G == GateKind::Swap) {
    assert(Targets.size() == 2);
    uint64_t BitA = qubitBit(Targets[0]);
    uint64_t BitB = qubitBit(Targets[1]);
    if (CtlMask & (BitA | BitB)) {
      // Degenerate control-overlaps-target swap: keep the historical
      // filtered-loop semantics verbatim (too rare to deserve a kernel).
      for (uint64_t Idx = 0; Idx < Amp.size(); ++Idx) {
        if ((Idx & CtlMask) != CtlMask)
          continue;
        bool A = Idx & BitA, Bb = Idx & BitB;
        if (A && !Bb)
          std::swap(Amp[Idx], Amp[(Idx & ~BitA) | BitB]);
      }
      bumpStats(Amp.size(), false);
      return;
    }
    // Strided: pin the controls high, target A high, target B low — every
    // (|..1..0..>, |..0..1..>) pair enumerated exactly once.
    uint64_t Pinned[64];
    unsigned K = collectBits(CtlMask | BitA | BitB, Pinned);
    uint64_t Num = Amp.size() >> K;
    Amplitude *A = Amp.data();
    parallelIndexLoop(ParJobs, Num, KernelMinChunk,
                      [&](uint64_t B, uint64_t E) {
                        for (uint64_t J = B; J < E; ++J) {
                          uint64_t I = insertZeroBits(J, Pinned, K) |
                                       CtlMask | BitA;
                          std::swap(A[I], A[(I & ~BitA) | BitB]);
                        }
                      });
    bumpStats(2 * Num, false);
    return;
  }

  assert(Targets.size() == 1);
  uint64_t Bit = qubitBit(Targets[0]);
  if (CtlMask & Bit)
    return; // Degenerate control == target: no pair has the control set and
            // the target clear, so this was always a no-op.

  uint64_t NumPairs = Amp.size() >> (1 + std::popcount(CtlMask));

  // Diagonal gates but RZ put 1 on |0>, so they collapse to a single
  // strided phase sweep at any control count: the phase lands exactly
  // where all controls and the target read 1.
  Amplitude P0, P1;
  if (G != GateKind::RZ && diagonalPhases(G, Param, P0, P1)) {
    phaseSweep(CtlMask | Bit, P1);
    bumpStats(NumPairs, false);
    return;
  }

  // X at any control count is a pure pair permutation (X, CX, Toffoli...).
  if (G == GateKind::X) {
    pairSwap(CtlMask, Bit);
    bumpStats(2 * NumPairs, false);
    return;
  }

  // Every other gate (H, Y, RX, RY, RZ) is a 2x2 product.
  matrix2Kernel(CtlMask, Bit, gateMatrix2(G, Param));
  bumpStats(2 * NumPairs, false);
}

void StateVector::applyBlock(const std::vector<unsigned> &Qubits,
                             const std::vector<Amplitude> &U) {
  const unsigned M = static_cast<unsigned>(Qubits.size());
  assert(M >= 1 && M <= MaxBlockQubits && "block support out of range");
  assert(U.size() == (size_t(1) << (2 * M)) && "block matrix size mismatch");
  assert(std::is_sorted(Qubits.begin(), Qubits.end()) &&
         std::adjacent_find(Qubits.begin(), Qubits.end()) == Qubits.end() &&
         "block support not strictly ascending");
  uint64_t Bits[MaxBlockQubits];
  for (unsigned J = 0; J < M; ++J)
    Bits[J] = qubitBit(Qubits[J]);
  applyMatrixLanes(Amp.data(), Amp.size(), Bits, M, U.data(), ParJobs);
  bumpStats(Amp.size(), true, M >= 2);
}

void StateVector::applyDiagSweep(const std::vector<DiagEntry> &Entries) {
  Amplitude *A = Amp.data();
  if (Entries.size() == 1) {
    // A lone entry touches only the 2^(n-c) amplitudes its controls
    // select: strided enumeration, both target halves, branch-free.
    const DiagEntry &D = Entries[0];
    assert(D.TargetBit && "diag entry without a target bit");
    uint64_t Pinned[64];
    unsigned K = collectBits(D.CtlMask | D.TargetBit, Pinned);
    uint64_t Num = Amp.size() >> K;
    const Amplitude P0 = D.Phase0, P1 = D.Phase1;
    parallelIndexLoop(ParJobs, Num, KernelMinChunk,
                      [&](uint64_t B, uint64_t E) {
                        for (uint64_t J = B; J < E; ++J) {
                          uint64_t I0 =
                              insertZeroBits(J, Pinned, K) | D.CtlMask;
                          A[I0] *= P0;
                          A[I0 | D.TargetBit] *= P1;
                        }
                      });
    bumpStats(2 * Num, true);
    return;
  }
  // Coalesced entries: one pass over the amplitudes no matter how many
  // phases were merged — the sweep is memory-bound at scale, so k merged
  // entries cost ~1/k of k separate sweeps. Each index is independent, so
  // the pass splits freely across workers.
  parallelIndexLoop(
      ParJobs, Amp.size(), 2 * KernelMinChunk, [&](uint64_t B, uint64_t E) {
        for (uint64_t Idx = B; Idx < E; ++Idx) {
          Amplitude F(1.0, 0.0);
          bool Touched = false;
          for (const DiagEntry &D : Entries) {
            if ((Idx & D.CtlMask) != D.CtlMask)
              continue;
            F *= (Idx & D.TargetBit) ? D.Phase1 : D.Phase0;
            Touched = true;
          }
          if (Touched)
            A[Idx] *= F;
        }
      });
  bumpStats(Amp.size(), true);
}

void StateVector::applyChannel(unsigned Q, const KrausChannel &Ch,
                               std::mt19937_64 &Rng) {
  // One pass accumulates every branch's probability ||K_k |psi>||^2 —
  // trace preservation (checked at model load) makes them sum to one.
  // Fixed-chunk partial sums combined in chunk order keep the result
  // bit-identical for any worker count.
  size_t NumOps = Ch.Ops.size();
  uint64_t Bit = qubitBit(Q);
  uint64_t NumPairs = Amp.size() >> 1;
  uint64_t NumChunks = (NumPairs + ReduceChunk - 1) / ReduceChunk;
  // Stack fast path for the common shape — a handful of Kraus ops on a
  // small state means one chunk — so trajectory runs on little circuits
  // (thousands of noisy gates per second) never pay two heap
  // allocations per channel application.
  double ProbsBuf[8], PartialBuf[64];
  std::vector<double> ProbsVec, PartialVec;
  double *Probs = ProbsBuf, *Partial = PartialBuf;
  if (NumOps > 8) {
    ProbsVec.assign(NumOps, 0.0);
    Probs = ProbsVec.data();
  } else {
    std::fill(ProbsBuf, ProbsBuf + NumOps, 0.0);
  }
  if (NumChunks * NumOps > 64) {
    PartialVec.assign(NumChunks * NumOps, 0.0);
    Partial = PartialVec.data();
  } else {
    std::fill(PartialBuf, PartialBuf + NumChunks * NumOps, 0.0);
  }
  const Amplitude *A = Amp.data();
  parallelIndexLoop(
      ParJobs, NumChunks, 1, [&](uint64_t CB, uint64_t CE) {
        for (uint64_t C = CB; C < CE; ++C) {
          uint64_t PB = C * ReduceChunk;
          uint64_t PE = PB + ReduceChunk < NumPairs ? PB + ReduceChunk
                                                    : NumPairs;
          double *Acc = Partial + C * NumOps;
          forPairRuns(PB, PE, Bit, [&](uint64_t I0, uint64_t Run) {
            for (uint64_t X = 0; X < Run; ++X) {
              Amplitude A0 = A[I0 + X], A1 = A[I0 + X + Bit];
              for (size_t K = 0; K < NumOps; ++K) {
                const Mat2 &M = Ch.Ops[K];
                Acc[K] += std::norm(M.M[0][0] * A0 + M.M[0][1] * A1) +
                          std::norm(M.M[1][0] * A0 + M.M[1][1] * A1);
              }
            }
          });
        }
      });
  for (uint64_t C = 0; C < NumChunks; ++C)
    for (size_t K = 0; K < NumOps; ++K)
      Probs[K] += Partial[C * NumOps + K];
  double Total = 0.0;
  for (size_t K = 0; K < NumOps; ++K)
    Total += Probs[K];
  // Exactly one uniform draw per application, scaled into the realized
  // total so floating-point drift can never leave the draw unclaimed.
  std::uniform_real_distribution<double> Dist(0.0, 1.0);
  double U = Dist(Rng) * Total;
  size_t Pick = 0;
  bool Found = false;
  double Cum = 0.0;
  for (size_t K = 0; K < NumOps; ++K) {
    if (Probs[K] <= 0.0)
      continue; // A dead branch (zero operator, or annihilated state).
    Pick = K;   // Last live branch absorbs any rounding remainder.
    Found = true;
    Cum += Probs[K];
    if (U < Cum)
      break;
  }
  assert(Found && "channel annihilated the state");
  if (!Found)
    return;
  if (Stats) {
    ++Stats->ChannelApps;
    Stats->ErrorBranches += Pick != 0;
  }
  double Norm = 1.0 / std::sqrt(Probs[Pick]);
  Mat2 U2 = Ch.Ops[Pick];
  for (int I = 0; I < 2; ++I)
    for (int J = 0; J < 2; ++J)
      U2.M[I][J] *= Norm;
  matrix2Kernel(0, Bit, U2);
  bumpStats(2 * Amp.size(), false); // probability pass + branch apply
}

double StateVector::probOne(unsigned Q) const {
  uint64_t Bit = qubitBit(Q);
  return chunkedNormSum(Amp.data() + Bit, Amp.size() >> 1, Bit, ReduceChunk,
                        ParJobs);
}

bool StateVector::measure(unsigned Q, std::mt19937_64 &Rng) {
  double P1 = probOne(Q);
  bool One = drawOutcome(P1, Rng);
  double Norm = keptNorm(P1, One);
  uint64_t Bit = qubitBit(Q);
  // Collapse: scale the kept half, zero the other — two unit-stride
  // streams per pair run, no per-index branch.
  uint64_t KeepOff = One ? Bit : 0, ZeroOff = Bit ^ KeepOff;
  uint64_t NumPairs = Amp.size() >> 1;
  Amplitude *A = Amp.data();
  parallelIndexLoop(
      ParJobs, NumPairs, KernelMinChunk, [&](uint64_t B, uint64_t E) {
        forPairRuns(B, E, Bit, [&](uint64_t I0, uint64_t Run) {
          Amplitude *__restrict Keep = A + (I0 + KeepOff);
          Amplitude *__restrict Zero = A + (I0 + ZeroOff);
          for (uint64_t X = 0; X < Run; ++X) {
            Keep[X] /= Norm;
            Zero[X] = Amplitude(0.0, 0.0);
          }
        });
      });
  // The probability pass reads the upper half; the collapse writes all.
  bumpStats(Amp.size() / 2 + Amp.size(), false);
  return One;
}

void StateVector::reset(unsigned Q, std::mt19937_64 &Rng) {
  if (measure(Q, Rng))
    apply(GateKind::X, {}, {Q}, 0.0);
}

namespace {

/// Where the full-state bit \p Full of a qubit not yet collapsed sits
/// among the survivors' index bits.
uint64_t survivorBit(const CollapsedState &V, uint64_t Full) {
  return uint64_t(1) << (std::countr_zero(Full) -
                         std::popcount(V.FixedMask & (Full - 1)));
}

/// Tail step 1: the probability that the qubit with full-state bit \p Full
/// reads 1, summed as StateVector::probOne sums it — on the full state's
/// chunk grid, seen from the survivors. A chunk holds ReduceChunk pairs of
/// full-state indices with the qubit's bit removed, and the other
/// collapsed qubits pin the low bits among those. A collapsed qubit sums
/// all survivors (collapsed to 1) or nothing (collapsed to 0: every term is
/// an exact zero). Adds the amplitudes read to \p Touched.
double collapsedProbOne(const CollapsedState &V, uint64_t Full,
                        unsigned Jobs, uint64_t &Touched) {
  uint64_t Others = V.FixedMask & ~Full;
  uint64_t PairFixed = ((Others & ~(Full - 1)) >> 1) | (Others & (Full - 1));
  uint64_t Chunk = ReduceChunk >> std::popcount(PairFixed & (ReduceChunk - 1));
  if (!(V.FixedMask & Full)) {
    uint64_t Bit = survivorBit(V, Full);
    Touched += V.Size / 2;
    return chunkedNormSum(V.Amp + Bit, V.Size / 2, Bit, Chunk, Jobs);
  }
  if (!(V.FixedVals & Full))
    return 0.0;
  Touched += V.Size;
  return chunkedNormSum(V.Amp, V.Size, V.Size, Chunk, Jobs);
}

/// The amplitudes collapseTo writes for the qubit with full-state bit
/// \p Full: the kept half of a new qubit, all survivors of a collapsed one.
uint64_t collapsedSize(const CollapsedState &V, uint64_t Full) {
  return V.FixedMask & Full ? V.Size : V.Size / 2;
}

/// Tail step 4: the state a draw of \p One leaves, each kept survivor
/// divided by \p Norm (keptNorm) as StateVector::measure divides it, written
/// into \p Dst (room for collapsedSize amplitudes; \p Dst == V.Amp collapses
/// in place). A new qubit keeps one half. A collapsed qubit that drew
/// against its fixed value leaves only exact zeros; one that drew its value
/// is divided by the norm, or left where it is (the result still reads
/// V.Amp) when the norm is 1. Adds the amplitudes read and written to
/// \p Touched.
CollapsedState collapseTo(const CollapsedState &V, uint64_t Full, bool One,
                          double Norm, Amplitude *Dst, unsigned Jobs,
                          uint64_t &Touched) {
  CollapsedState W = V;
  if (!(V.FixedMask & Full)) {
    // Kept pair P is read at insertZeroBit(P, Bit), plus Bit if One, and
    // written at P.
    const uint64_t Bit = survivorBit(V, Full), Half = V.Size / 2;
    const Amplitude *Src = V.Amp + (One ? Bit : 0);
    auto Keep = [&](uint64_t B, uint64_t E) {
      uint64_t P = B;
      forPairRuns(B, E, Bit, [&](uint64_t I0, uint64_t Run) {
        const Amplitude *From = Src + I0;
        Amplitude *To = Dst + P;
        for (uint64_t X = 0; X < Run; ++X)
          To[X] = From[X] / Norm;
        P += Run;
      });
    };
    if (V.Amp != Dst) {
      parallelIndexLoop(Jobs, Half, KernelMinChunk, Keep);
    } else if (Jobs <= 1 || Half <= KernelMinChunk) {
      Keep(0, Half); // Forward: each write lands at or below its read.
    } else {
      // In place, the pairs below Bit read below 2 Bit, and the pairs
      // [L, 2L) for L >= Bit read [2L, 4L): what the next round writes. So
      // each doubling round splits across workers once the one before it
      // is done.
      for (uint64_t Lo = 0, Hi = Bit; Lo < Half;
           Lo = Hi, Hi = std::min(2 * Hi, Half))
        parallelIndexLoop(Jobs, Hi - Lo, KernelMinChunk,
                          [&](uint64_t B, uint64_t E) {
                            Keep(Lo + B, Lo + E);
                          });
    }
    Touched += V.Size;
    W.Amp = Dst;
    W.Size = V.Size / 2;
    W.FixedMask |= Full;
    if (One)
      W.FixedVals |= Full;
  } else if (One != bool(V.FixedVals & Full)) {
    // The kept half held only exact zeros, so now the whole state does.
    std::fill(Dst, Dst + V.Size, Amplitude(0.0, 0.0));
    Touched += V.Size;
    W.Amp = Dst;
    W.FixedVals ^= Full;
  } else if (Norm != 1.0) {
    for (uint64_t I = 0; I < V.Size; ++I)
      Dst[I] = V.Amp[I] / Norm;
    Touched += 2 * V.Size;
    W.Amp = Dst;
  }
  return W;
}

} // namespace

void CollapsedRegister::begin(const StateVector &S, Amplitude *Dst) {
  NumQubits = S.numQubits();
  State = CollapsedState{S.amplitudes().data(), S.amplitudes().size(), 0, 0};
  Scratch = Dst;
}

void CollapsedRegister::start(const StateVector &S) {
  uint64_t Half = S.amplitudes().size() / 2;
  if (Own.size() < Half)
    Own.resize(Half);
  begin(S, Own.data());
}

void CollapsedRegister::startInPlace(StateVector &S) {
  begin(S, S.amplitudes().data());
}

bool CollapsedRegister::measure(unsigned Q, std::mt19937_64 &Rng) {
  const uint64_t Full = uint64_t(1) << (NumQubits - 1 - Q);
  uint64_t Touched = 0;
  LastProbOne = collapsedProbOne(State, Full, ParJobs, Touched);
  bool One = drawOutcome(LastProbOne, Rng);
  State = collapseTo(State, Full, One, keptNorm(LastProbOne, One), Scratch,
                     ParJobs, Touched);
  return One;
}

void CollapsedRegister::reset(unsigned Q, std::mt19937_64 &Rng) {
  // Q is collapsed after the measure, so the X flips its fixed value.
  if (measure(Q, Rng))
    State.FixedVals ^= uint64_t(1) << (NumQubits - 1 - Q);
}

double StateVector::overlap(const StateVector &Other) const {
  assert(Amp.size() == Other.Amp.size());
  Amplitude Dot(0.0, 0.0);
  for (uint64_t Idx = 0; Idx < Amp.size(); ++Idx)
    Dot += std::conj(Other.Amp[Idx]) * Amp[Idx];
  return std::abs(Dot);
}

namespace {

/// The per-run noise hookup of the trajectory executor: the resolved
/// channel plan plus the model (for readout errors). Null context means
/// ideal execution.
struct TrajectoryContext {
  const NoisePlan *Plan = nullptr;
  const NoiseModel *Model = nullptr;
};

/// Executes the Measure or Reset \p I on \p SV, recording the bit into
/// \p R. With \p Noise, readout error flips the recorded bit only (and
/// counts into SV's SimStats): the collapsed state is untouched, and
/// feed-forward reads the noisy bit. The tail walk
/// (walkMeasureResetTail) keeps the same order of draws.
void executeReadout(const CircuitInstr &I, StateVector &SV, ShotResult &R,
                    std::mt19937_64 &Rng, const TrajectoryContext *Noise) {
  if (I.TheKind == CircuitInstr::Kind::Reset) {
    SV.reset(I.Targets[0], Rng);
    return;
  }
  bool Outcome = SV.measure(I.Targets[0], Rng);
  if (Noise)
    Outcome = applyReadoutError(Noise->Model->readoutFor(I.Targets[0]),
                                Outcome, Rng, SV.stats());
  R.Bits[static_cast<unsigned>(I.Cbit)] = Outcome;
}

/// Executes one instruction on \p SV (honoring its classical condition),
/// recording bits into \p R. Shared by run() and the fused plan so
/// instruction semantics can never diverge between them. \p Noise, if
/// given, makes this a trajectory step: one sampled Kraus branch per
/// channel attached to instruction \p Idx, and readout error on the
/// recorded measurement bit. A condition-skipped gate applies no noise and
/// consumes no randomness.
void executeInstr(const CircuitInstr &I, size_t Idx, StateVector &SV,
                  ShotResult &R, std::mt19937_64 &Rng,
                  const TrajectoryContext *Noise) {
  if (I.CondBit >= 0 &&
      R.Bits[static_cast<unsigned>(I.CondBit)] != I.CondVal)
    return;
  if (I.TheKind != CircuitInstr::Kind::Gate) {
    executeReadout(I, SV, R, Rng, Noise);
    return;
  }
  SV.apply(I.Gate, I.Controls, I.Targets, I.Param);
  if (Noise)
    for (const NoiseOp &Op : Noise->Plan->PerInstr[Idx])
      SV.applyChannel(Op.Qubit, *Op.Channel, Rng);
}

/// Executes every instruction of \p C on \p SV, recording bits into \p R.
void execute(const Circuit &C, StateVector &SV, ShotResult &R,
             std::mt19937_64 &Rng, const TrajectoryContext *Noise = nullptr) {
  for (size_t N = 0; N < C.Instrs.size(); ++N)
    executeInstr(C.Instrs[N], N, SV, R, Rng, Noise);
}

/// Executes fused ops [Begin, End) on \p SV, recording bits into \p R.
void executeFused(const FusedCircuit &FC, size_t Begin, size_t End,
                  StateVector &SV, ShotResult &R, std::mt19937_64 &Rng,
                  const TrajectoryContext *Noise = nullptr) {
  const Circuit &C = *FC.Source;
  for (size_t N = Begin; N < End; ++N) {
    const FusedOp &Op = FC.Ops[N];
    switch (Op.TheKind) {
    case FusedOp::Kind::Diag:
      SV.applyDiagSweep(Op.Diag);
      break;
    case FusedOp::Kind::Block:
      SV.applyBlock(Op.Qubits, Op.BlockU);
      break;
    case FusedOp::Kind::Instr:
      executeInstr(C.Instrs[Op.InstrIndex], Op.InstrIndex, SV, R, Rng,
                   Noise);
      break;
    }
  }
}

/// Available physical memory in bytes, or 0 if the OS won't say. Prefers
/// /proc/meminfo's MemAvailable (free + reclaimable page cache — what an
/// allocation can actually get) over _SC_AVPHYS_PAGES, which counts only
/// truly-free pages and collapses under a warm page cache.
uint64_t availablePhysicalMemory() {
  if (std::ifstream Meminfo{"/proc/meminfo"}) {
    std::string Key;
    uint64_t KiB;
    while (Meminfo >> Key >> KiB) {
      if (Key == "MemAvailable:")
        return KiB * 1024;
      Meminfo.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
    }
  }
#if defined(_SC_AVPHYS_PAGES) && defined(_SC_PAGESIZE)
  long Pages = sysconf(_SC_AVPHYS_PAGES);
  long PageSize = sysconf(_SC_PAGESIZE);
  if (Pages > 0 && PageSize > 0)
    return uint64_t(Pages) * uint64_t(PageSize);
#endif
  return 0;
}

} // namespace

unsigned StatevectorBackend::maxQubits() {
  uint64_t Avail = availablePhysicalMemory();
  if (Avail == 0)
    return 26; // No answer from the OS: the historical fixed cap.
  // The shared prefix state plus one per-shot fork must fit in half of
  // available memory (one state within a quarter), leaving the rest to
  // the process and the OS. runBatch shrinks its worker count to match
  // (fewer forks near the cap), so admitting a circuit here never commits
  // the runner to more memory than this budget.
  uint64_t Budget = Avail / 4;
  unsigned Cap = 0;
  while (Cap < HardMaxQubits &&
         (uint64_t(sizeof(Amplitude)) << (Cap + 1)) <= Budget)
    ++Cap;
  return Cap;
}

bool StatevectorBackend::supports(const Circuit &C,
                                  const CircuitProfile &) const {
  return C.NumQubits <= maxQubits();
}

ShotResult StatevectorBackend::run(const Circuit &C, uint64_t Seed) const {
  assert(!C.isParametric() && "bind parameters before running");
  StateVector SV(C.NumQubits);
  std::mt19937_64 Rng = shotRng(Seed);
  ShotResult R;
  R.Bits.assign(C.NumBits, false);
  execute(C, SV, R, Rng);
  return R;
}

bool StatevectorBackend::supportsNoise(const NoiseModel &) const {
  return true;
}

ShotResult StatevectorBackend::runNoisy(const Circuit &C, uint64_t Seed,
                                        const NoiseModel &Noise) const {
  assert(!C.isParametric() && "bind parameters before running");
  NoisePlan Plan = planNoise(Noise, C);
  TrajectoryContext Ctx{&Plan, &Noise};
  StateVector SV(C.NumQubits);
  std::mt19937_64 Rng = shotRng(Seed);
  ShotResult R;
  R.Bits.assign(C.NumBits, false);
  execute(C, SV, R, Rng, &Ctx);
  return R;
}

namespace {

/// Collects into \p Tail the instructions after the shared prefix of the
/// fused plan \p FC and returns true if every one is an unconditional
/// Measure or Reset.
bool measureResetTail(const FusedCircuit &FC,
                      std::vector<const CircuitInstr *> &Tail) {
  for (size_t N = FC.UnconditionalPrefixOps; N < FC.Ops.size(); ++N) {
    const FusedOp &Op = FC.Ops[N];
    if (Op.TheKind != FusedOp::Kind::Instr)
      return false;
    const CircuitInstr &I = FC.Source->Instrs[Op.InstrIndex];
    if (I.TheKind == CircuitInstr::Kind::Gate || I.CondBit >= 0)
      return false;
    Tail.push_back(&I);
  }
  return true;
}

/// One node of a tail walk: the shots Order[Begin, End) that drew the same
/// outcomes at every tail step before \p Step, and their common register.
struct TailNode {
  CollapsedState State;
  unsigned Step = 0;
  unsigned Begin = 0, End = 0;
  /// The walk may overwrite State.Amp: no other node reads it.
  bool Owned = false;
  /// State.Amp is the top live buffer of the walk's BufferStack.
  bool PopsBuffer = false;
  /// Set once the node's shots have drawn against P1: Order[Begin, Mid)
  /// drew 0 and Order[Mid, End) drew 1.
  bool Drawn = false;
  unsigned Mid = 0;
  double P1 = 0.0;
  /// The next outcome to collapse a child for; 2 when none is left.
  unsigned NextChild = 0;
};

/// Collapse buffers used as a stack; slots above Live are free and keep
/// their storage for reuse.
struct BufferStack {
  std::vector<std::vector<Amplitude>> Slots;
  size_t Live = 0;

  /// The first free slot, with room for \p Need amplitudes.
  Amplitude *next(uint64_t Need) {
    if (Live == Slots.size())
      Slots.emplace_back();
    std::vector<Amplitude> &B = Slots[Live];
    if (B.size() < Need) {
      B.clear();
      B.resize(Need);
    }
    return B.data();
  }
};

/// A node with at most this many survivors runs every kernel serial, and
/// so does each node below it: its subtree is one worker's job.
constexpr uint64_t SmallTailNode = 2 * KernelMinChunk;

/// One batch's walk of a measure/reset tail (walkMeasureResetTail), one
/// group of shots at a time.
struct TailWalk {
  TailWalk(const Circuit &C, const std::vector<const CircuitInstr *> &Tail,
           const RunOptions &Opts, const TrajectoryContext *Noise,
           unsigned Jobs, std::vector<ShotResult> &Results)
      : C(C), Tail(Tail), Opts(Opts), Noise(Noise), Jobs(Jobs),
        Results(Results), WorkerBuffers(Jobs) {}

  const Circuit &C;
  const std::vector<const CircuitInstr *> &Tail;
  const RunOptions &Opts;
  const TrajectoryContext *Noise;
  const unsigned Jobs;
  std::vector<ShotResult> &Results;

  unsigned First = 0;                ///< The group's first shot.
  std::vector<std::mt19937_64> Rngs; ///< Per group shot.
  std::vector<unsigned> Order;       ///< Group shots, grouped by node.
  std::vector<char> DrewOne;         ///< Each group shot's latest draw.
  BufferStack PathBuffers;           ///< The walk from the root.
  std::vector<BufferStack> WorkerBuffers; ///< Subtree walks, per worker.
  std::vector<TailNode> Subtrees;    ///< Small subtrees not yet walked.
  BufferStack SubtreeRoots;          ///< Their roots' survivors.

  /// Walks the trie below \p Root depth first on an explicit stack, each
  /// kernel on \p KernelJobs workers, counting into \p Stats. With
  /// \p Defer, a child small enough to be one worker's job is collapsed
  /// into its own buffer and queued in Subtrees instead.
  void walk(const TailNode &Root, BufferStack &Buffers, unsigned KernelJobs,
            SimStats *Stats, bool Defer);
  /// Walks the queued subtrees in parallel, each on one worker.
  void runSubtrees();
};

void TailWalk::walk(const TailNode &Root, BufferStack &Buffers,
                    unsigned KernelJobs, SimStats *Stats, bool Defer) {
  uint64_t Nodes = 0, Touched = 0;
  std::vector<TailNode> Path;
  Path.reserve(Tail.size() - Root.Step);
  Path.push_back(Root);
  while (!Path.empty()) {
    TailNode &N = Path.back();
    const CircuitInstr &I = *Tail[N.Step];
    const unsigned Q = I.Targets[0];
    const uint64_t Full = uint64_t(1) << (C.NumQubits - 1 - Q);
    if (!N.Drawn) {
      if (Opts.deadlineExpired())
        throw DeadlineExceeded();
      N.P1 = collapsedProbOne(N.State, Full, KernelJobs, Touched);
      for (unsigned K = N.Begin; K < N.End; ++K) {
        const unsigned G = Order[K];
        const bool One = drawOutcome(N.P1, Rngs[G]);
        DrewOne[G] = One;
        if (I.TheKind == CircuitInstr::Kind::Measure)
          Results[First + G].Bits[static_cast<unsigned>(I.Cbit)] =
              Noise ? applyReadoutError(Noise->Model->readoutFor(Q), One,
                                        Rngs[G], Stats)
                    : One;
      }
      N.Mid = static_cast<unsigned>(
          std::partition(Order.begin() + N.Begin, Order.begin() + N.End,
                         [&](unsigned G) { return !DrewOne[G]; }) -
          Order.begin());
      N.Drawn = true;
      ++Nodes;
    }
    // The children in outcome order, skipping one no shot drew.
    unsigned Out = N.NextChild;
    if (Out == 0 && N.Mid == N.Begin)
      Out = 1;
    if (Out == 1 && N.Mid == N.End)
      Out = 2;
    if (Out == 2 || N.Step + 1 == Tail.size()) {
      if (N.PopsBuffer)
        --Buffers.Live;
      Path.pop_back();
      continue;
    }
    N.NextChild = Out + 1;
    const bool InPlace = N.Owned && (Out == 1 || N.Mid == N.End);
    const uint64_t Need = collapsedSize(N.State, Full);
    const bool Subtree = Defer && Need <= SmallTailNode;
    // Every buffer the walk writes is a mutable one: the prefix state's,
    // or a BufferStack slot.
    Amplitude *Dst = Subtree   ? SubtreeRoots.next(Need)
                     : InPlace ? const_cast<Amplitude *>(N.State.Amp)
                               : Buffers.next(Need);
    TailNode Child;
    Child.State = collapseTo(N.State, Full, Out == 1, keptNorm(N.P1, Out == 1),
                             Dst, KernelJobs, Touched);
    if (I.TheKind == CircuitInstr::Kind::Reset && Out == 1)
      Child.State.FixedVals ^= Full; // The reset's X.
    Child.Step = N.Step + 1;
    Child.Begin = Out == 1 ? N.Mid : N.Begin;
    Child.End = Out == 1 ? N.End : N.Mid;
    if (Child.State.Amp == N.State.Amp) {
      // Collapsed in place, or left as it was: still the parent's buffer.
      Child.Owned = InPlace;
      Child.PopsBuffer = InPlace && N.PopsBuffer;
      if (InPlace)
        N.PopsBuffer = false;
    } else if (Subtree) {
      ++SubtreeRoots.Live;
      Child.Owned = true;
      Subtrees.push_back(Child);
      // A few subtrees per worker balance the load, and few enough that
      // their roots are still cached when they run.
      if (Subtrees.size() >= 4 * size_t(Jobs))
        runSubtrees();
      continue;
    } else {
      ++Buffers.Live;
      Child.Owned = Child.PopsBuffer = true;
    }
    Path.push_back(Child); // N dangles from here on.
  }
  if (Stats) {
    Stats->GatesApplied += Nodes;
    Stats->AmplitudesTouched += Touched;
  }
}

void TailWalk::runSubtrees() {
  // Each subtree reads and writes only its own buffers and its own shots'
  // streams, draws and bits.
  parallelShotLoop(Jobs, static_cast<unsigned>(Subtrees.size()),
                   Opts.SimCounters,
                   [&](unsigned W, unsigned T, SimStats *Stats) {
                     walk(Subtrees[T], WorkerBuffers[W], 1, Stats, false);
                   });
  Subtrees.clear();
  SubtreeRoots.Live = 0;
}

/// Runs the measure/reset tail \p Tail of \p C for all \p Shots shots,
/// which start from the prefix state \p Shared, writing Results[S]. Shots
/// that have drawn the same outcomes so far hold identical registers, so
/// each group of TailGroupShots shots walks the trie of its outcome
/// prefixes depth first, on an explicit stack (no tail length can
/// overflow a thread stack). At each node the walk sums the probability
/// once on the node's survivors (collapsedProbOne), lets each of its shots
/// draw from the shot's own stream (drawOutcome, then readout error),
/// splits the shots by outcome, and collapses each child that drew once
/// (collapseTo) — the steps of CollapsedRegister::measure, so every shot
/// sees the arithmetic and the draws of its own register, and so the bits
/// of run(). A child after the last step is not collapsed: nothing reads
/// it. A node's last child collapses in place when no other node reads its
/// parent's buffer (the last group may consume \p Shared), so the walk
/// holds at most one buffer per tail step on its current path.
///
/// Large nodes split their kernels across \p Jobs workers. Below
/// SmallTailNode survivors every kernel runs serial, so with more than one
/// worker those subtrees are queued and walked one per worker, four per
/// worker at a time. Counts one gate kernel per node, and the amplitudes
/// each node reads and writes.
void walkMeasureResetTail(const Circuit &C,
                          const std::vector<const CircuitInstr *> &Tail,
                          StateVector &Shared, unsigned Shots, uint64_t Seed,
                          unsigned Jobs, const RunOptions &Opts,
                          const TrajectoryContext *Noise,
                          std::vector<ShotResult> &Results) {
  TailWalk Walk(C, Tail, Opts, Noise, Jobs, Results);
  const unsigned GroupShots = StatevectorBackend::TailGroupShots;
  unsigned Count = 0; // First + Count never passes Shots, so never wraps.
  for (unsigned First = 0; First < Shots; First += Count) {
    if (Opts.deadlineExpired())
      throw DeadlineExceeded();
    Count = std::min(GroupShots, Shots - First);
    Walk.First = First;
    Walk.Rngs.clear();
    Walk.Order.resize(Count);
    Walk.DrewOne.resize(Count);
    for (unsigned G = 0; G < Count; ++G) {
      Walk.Rngs.push_back(shotRng(deriveShotSeed(Seed, First + G)));
      Walk.Order[G] = G;
      Results[First + G].Bits.assign(C.NumBits, false);
    }
    if (Tail.empty())
      continue;
    TailNode Root;
    Root.State = CollapsedState{Shared.amplitudes().data(),
                                Shared.amplitudes().size(), 0, 0};
    Root.End = Count;
    Root.Owned = First + Count == Shots; // Later groups read Shared.
    Walk.walk(Root, Walk.PathBuffers, Jobs, Opts.SimCounters, Jobs > 1);
    if (!Walk.Subtrees.empty())
      Walk.runSubtrees();
  }
}

/// The batch core behind runBatch and runSweep: executes \p Shots shots
/// of FC.Source under the prebuilt fused plan \p FC, honoring the
/// RunOptions worker budget and deadline. Factoring the plan out of the
/// shot loop is what lets runSweep build one plan per sweep point from
/// its one fusion plan without re-planning, while keeping every
/// scheduling decision, RNG stream, and kernel sequence identical to
/// runBatch.
std::vector<ShotResult> runPlannedBatch(const FusedCircuit &FC,
                                        unsigned Shots, uint64_t Seed,
                                        const RunOptions &Opts,
                                        const TrajectoryContext *Traj) {
  const Circuit &C = *FC.Source;
  const size_t Prefix = FC.UnconditionalPrefixOps;
  if (Shots == 0)
    return {};

  // Decide where the worker budget goes. The budget is resolved against
  // the machine alone — amplitude-level parallelism can use every worker
  // even for a single shot. The shared prefix is one state, so it always
  // runs amplitude-parallel, and so does a measure/reset tail's walk. The
  // rest of each forked shot runs shot-parallel when there are enough
  // shots to keep every worker busy, and also when the state is too small
  // for the kernels to split profitably (below KernelMinChunk pairs they
  // run serial, so amplitude mode would leave the workers idle); otherwise
  // shots run one after another on split kernels (the low-shot/large-n
  // regime). Either way the results are bit-identical: kernels are
  // per-amplitude independent and reductions use fixed chunk order.
  unsigned Workers = resolveJobCount(Opts.Jobs);
  bool ShotParallel = Shots >= 2 * Workers ||
                      (uint64_t(1) << C.NumQubits) < 2 * KernelMinChunk;
  unsigned RestAmpJobs = ShotParallel ? 1 : Workers;

  // The unconditional prefix is identical for every shot and consumes no
  // randomness (and reads no bits): simulate it once on the shared state.
  StateVector Shared(C.NumQubits);
  Shared.setStats(Opts.SimCounters);
  Shared.setParallelJobs(Workers);
  {
    ShotResult Scratch;
    Scratch.Bits.assign(C.NumBits, false);
    std::mt19937_64 Unused = shotRng(0);
    executeFused(FC, 0, Prefix, Shared, Scratch, Unused);
  }

  std::vector<ShotResult> Results(Shots);
  // A remainder of only unconditional measure/reset forks nothing.
  std::vector<const CircuitInstr *> Tail;
  if (measureResetTail(FC, Tail)) {
    walkMeasureResetTail(C, Tail, Shared, Shots, Seed, Workers, Opts, Traj,
                         Results);
    return Results;
  }

  // Runs the post-prefix remainder of shot S on \p State, a fork of the
  // shared state. Shot S always uses deriveShotSeed(Seed, S) and lands at
  // Results[S], so the outcome is independent of worker count and matches
  // the serial path. The shot boundary is also the cooperative deadline
  // check: an expired deadline abandons the batch here (and propagates out
  // of the worker pool) rather than mid-kernel.
  auto runRest = [&](StateVector &State, unsigned S, SimStats *Stats) {
    if (Opts.deadlineExpired())
      throw DeadlineExceeded();
    State.setParallelJobs(RestAmpJobs);
    State.setStats(Stats);
    std::mt19937_64 Rng = shotRng(deriveShotSeed(Seed, S));
    ShotResult R;
    R.Bits.assign(C.NumBits, false);
    executeFused(FC, Prefix, FC.Ops.size(), State, R, Rng, Traj);
    return R;
  };

  if (Shots == 1) {
    // Single shot: finish directly on the shared state, no fork.
    Results[0] = runRest(Shared, 0, Opts.SimCounters);
    return Results;
  }

  // Shot-parallel, each worker runs whole shots; otherwise one worker runs
  // the shots one after another on split kernels (RestAmpJobs).
  unsigned Jobs = ShotParallel ? resolveJobCount(Opts.Jobs, Shots) : 1;
  if (uint64_t Avail = Jobs > 1 ? availablePhysicalMemory() : 0) {
    // Each in-flight shot holds a fork of the shared state, so near the
    // qubit cap shrink the worker count until shared + per-worker states
    // fit in half of available memory — the budget maxQubits admitted the
    // circuit under.
    uint64_t StateBytes = uint64_t(sizeof(Amplitude)) << C.NumQubits;
    uint64_t Budget = Avail / 2;
    uint64_t MaxJobs =
        Budget > StateBytes ? (Budget - StateBytes) / StateBytes : 0;
    if (MaxJobs < Jobs)
      Jobs = MaxJobs > 1 ? static_cast<unsigned>(MaxJobs) : 1;
  }
  // Per-worker fork buffers, hoisted out of the shot loop: each shot
  // copy-assigns the shared prefix state into its worker's buffer, which
  // allocates on the worker's first shot only.
  std::vector<StateVector> WorkerState(Jobs, StateVector(0));
  parallelShotLoop(Jobs, Shots, Opts.SimCounters,
                   [&](unsigned W, unsigned S, SimStats *Stats) {
                     WorkerState[W] = Shared;
                     Results[S] = runRest(WorkerState[W], S, Stats);
                   });
  return Results;
}

} // namespace

std::vector<ShotResult>
StatevectorBackend::runBatch(const Circuit &C, unsigned Shots, uint64_t Seed,
                             const RunOptions &Opts) const {
  assert(!C.isParametric() && "bind parameters before running");
  if (Shots == 0)
    return {};

  // Resolve the noise plan once per batch; per-shot trajectory execution
  // then never touches a map. Noisy gates consume per-shot randomness, so
  // fuseCircuit's channel barriers end the shared prefix at the first.
  const NoiseModel *Noise =
      Opts.Noise && !Opts.Noise->empty() ? Opts.Noise : nullptr;
  FusedCircuit FC = fuseCircuit(C, Noise);
  NoisePlan Plan;
  if (Noise)
    Plan = planNoise(*Noise, C);
  TrajectoryContext Ctx{&Plan, Noise};
  return runPlannedBatch(FC, Shots, Seed, Opts, Noise ? &Ctx : nullptr);
}

std::vector<std::vector<ShotResult>>
StatevectorBackend::runSweep(const Circuit &C,
                             const std::vector<std::vector<double>> &Points,
                             unsigned Shots, uint64_t Seed,
                             const RunOptions &Opts) const {
  const NoiseModel *Noise =
      Opts.Noise && !Opts.Noise->empty() ? Opts.Noise : nullptr;

  // Plan the fusion once: its decisions read no angle. Each point then
  // only builds the plan's matrices and ops for its bound angles.
  FusionPlan Fusion;
  {
    obs::Span Sp("fuse", "fusion");
    Fusion = planFusion(C, Noise);
  }

  // One deep copy of the circuit serves the whole sweep: per point, only
  // the symbolic instructions' concrete Param slots are rewritten —
  // through CircuitInstr::boundParam, the same expression bindCircuit
  // evaluates, so every angle rounds identically to a fresh bind.
  Circuit Bound = C;
  Bound.ParamNames.clear();
  std::vector<size_t> SymbolicAt;
  for (size_t I = 0; I < C.Instrs.size(); ++I)
    if (C.Instrs[I].TheKind == CircuitInstr::Kind::Gate &&
        C.Instrs[I].isSymbolic())
      SymbolicAt.push_back(I);
  for (size_t I : SymbolicAt) {
    Bound.Instrs[I].ParamIdx = -1;
    Bound.Instrs[I].ParamScale = 1.0;
    Bound.Instrs[I].ParamOfs = 0.0;
  }

  // Channels attach by gate kind and qubit, never by angle: one noise
  // plan serves every point too.
  NoisePlan Plan;
  if (Noise)
    Plan = planNoise(*Noise, C);
  TrajectoryContext Ctx{&Plan, Noise};

  std::vector<std::vector<ShotResult>> Results(Points.size());
  for (size_t P = 0; P < Points.size(); ++P) {
    if (Opts.deadlineExpired())
      throw DeadlineExceeded();
    for (size_t I : SymbolicAt)
      Bound.Instrs[I].Param = C.Instrs[I].boundParam(Points[P]);
    FusedCircuit FC;
    {
      obs::Span Sp("rebind", "fusion");
      FC = buildFusedCircuit(Fusion, Bound);
    }
    Results[P] = runPlannedBatch(FC, Shots, deriveSweepPointSeed(Seed, P),
                                 Opts, Noise ? &Ctx : nullptr);
  }
  return Results;
}
