//===- Pass.cpp - Pass context and instrumentation for the Fig. 2 pipeline ===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "compiler/Pass.h"

#include "ast/AST.h"
#include "ir/IR.h"
#include "qcirc/Circuit.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <sstream>

using namespace asdf;

const char *asdf::pipelineStageName(PipelineStage S) {
  switch (S) {
  case PipelineStage::AST:
    return "ast";
  case PipelineStage::Qwerty:
    return "qwerty";
  case PipelineStage::QCirc:
    return "qcirc";
  case PipelineStage::Circuit:
    return "circuit";
  }
  return "?";
}

bool asdf::parsePipelineStage(const std::string &Name, PipelineStage &Out) {
  if (Name == "ast")
    Out = PipelineStage::AST;
  else if (Name == "qwerty")
    Out = PipelineStage::Qwerty;
  else if (Name == "qcirc")
    Out = PipelineStage::QCirc;
  else if (Name == "circuit")
    Out = PipelineStage::Circuit;
  else
    return false;
  return true;
}

//===----------------------------------------------------------------------===//
// Unit statistics, printing, verification
//===----------------------------------------------------------------------===//

std::string UnitStats::str(PipelineStage S) const {
  std::ostringstream OS;
  switch (S) {
  case PipelineStage::AST:
    OS << Functions << " funcs, " << Ops << " stmts";
    break;
  case PipelineStage::Qwerty:
  case PipelineStage::QCirc:
    OS << Functions << " funcs, " << Ops << " ops";
    break;
  case PipelineStage::Circuit:
    OS << Ops << " instrs, " << Qubits << " qubits";
    break;
  }
  return OS.str();
}

UnitStats asdf::unitStats(const Program &P) {
  UnitStats S;
  S.Functions = P.Functions.size();
  for (const auto &F : P.Functions)
    S.Ops += F->Body.size();
  return S;
}

UnitStats asdf::unitStats(const Module &M) {
  UnitStats S;
  S.Functions = M.Functions.size();
  std::function<void(const Block &)> Count = [&](const Block &B) {
    for (const auto &O : B.Ops) {
      ++S.Ops;
      for (const auto &R : O->Regions)
        if (R)
          Count(*R);
    }
  };
  for (const auto &F : M.Functions)
    Count(F->Body);
  return S;
}

UnitStats asdf::unitStats(const Circuit &C) {
  UnitStats S;
  S.Ops = C.Instrs.size();
  S.Qubits = C.NumQubits;
  return S;
}

std::string asdf::unitPrint(const Program &P) { return P.str(); }
std::string asdf::unitPrint(const Module &M) { return M.str(); }
std::string asdf::unitPrint(const Circuit &C) { return C.str(); }

bool asdf::unitVerify(const Program &, DiagnosticEngine &) { return true; }

bool asdf::unitVerify(const Module &M, DiagnosticEngine &Diags) {
  return verifyModule(M, Diags);
}

bool asdf::unitVerify(const Circuit &C, DiagnosticEngine &Diags) {
  bool Ok = true;
  auto Fail = [&](const std::string &Msg) {
    Diags.error(SourceLoc(), Msg);
    Ok = false;
  };
  for (const CircuitInstr &I : C.Instrs) {
    for (unsigned Q : I.Controls)
      if (Q >= C.NumQubits)
        Fail("control index out of range: " + std::to_string(Q));
    for (unsigned Q : I.Targets)
      if (Q >= C.NumQubits)
        Fail("target index out of range: " + std::to_string(Q));
    if (I.TheKind == CircuitInstr::Kind::Measure &&
        (I.Cbit < 0 || static_cast<unsigned>(I.Cbit) >= C.NumBits))
      Fail("measure destination bit out of range");
    if (I.CondBit >= 0 && static_cast<unsigned>(I.CondBit) >= C.NumBits)
      Fail("condition bit out of range");
  }
  return Ok;
}

//===----------------------------------------------------------------------===//
// Instrumentation output
//===----------------------------------------------------------------------===//

void PassContext::dump(const char *When, PipelineStage Stage,
                       const std::string &Name, const std::string &IR) {
  std::string Banner = std::string("// -----// IR Dump ") + When + " " +
                       Name + " (" + pipelineStageName(Stage) +
                       ") //----- //";
  if (PrintSink) {
    PrintSink(Banner, IR);
    return;
  }
  std::fprintf(stderr, "%s\n%s\n", Banner.c_str(), IR.c_str());
}

std::string PassContext::timingReport() const {
  double Total = 0.0;
  for (const PassTiming &T : Timings)
    Total += T.Seconds;
  std::ostringstream OS;
  OS << "===" << std::string(73, '-') << "===\n"
     << "  ... Pass execution timing report ...\n"
     << "===" << std::string(73, '-') << "===\n";
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf), "  Total Execution Time: %.4f seconds\n\n",
                Total);
  OS << Buf;
  OS << "   ---Wall Time---   ---IR Size---      --- Name ---\n";
  for (const PassTiming &T : Timings) {
    double Pct = Total > 0 ? 100.0 * T.Seconds / Total : 0.0;
    std::snprintf(Buf, sizeof(Buf), "   %8.4f (%5.1f%%)  %s -> %s  %s:%s\n",
                  T.Seconds, Pct, T.Before.str(T.Stage).c_str(),
                  T.After.str(T.Stage).c_str(),
                  pipelineStageName(T.Stage), T.PassName.c_str());
    OS << Buf;
  }
  return OS.str();
}
