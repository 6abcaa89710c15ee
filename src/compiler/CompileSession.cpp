//===- CompileSession.cpp - One compilation: source, artifacts, diags -----===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "compiler/CompileSession.h"

#include "ast/AST.h"
#include "ast/Lexer.h"
#include "ast/Parser.h"
#include "qcirc/Convert.h"
#include "qcirc/Flatten.h"
#include "qwerty/Lower.h"

#include <algorithm>
#include <cctype>
#include <chrono>

using namespace asdf;

namespace {

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

} // namespace

CompileSession::CompileSession(std::string Source, ProgramBindings Bindings,
                               SessionOptions Options)
    : Source(std::move(Source)), Bindings(std::move(Bindings)),
      Options(std::move(Options)), Ctx(Diags) {
  Ctx.Entry = this->Options.Entry;
  Ctx.Bindings = &this->Bindings;
  Ctx.CollectTimings = this->Options.CollectTimings;
  Ctx.VerifyEach = this->Options.VerifyEach;
  Ctx.PrintAfter = this->Options.PrintAfter;
  Ctx.PrintBefore = this->Options.PrintBefore;
  Ctx.PrintSink = this->Options.PrintSink;
}

void CompileSession::hashIdentity(ContentHasher &H,
                                  const std::string &Source,
                                  const std::string &Entry,
                                  const PipelinePlan &Plan,
                                  const ProgramBindings &Bindings) {
  // Every field is length-prefixed (ContentHasher::str) and preceded by a
  // tag, so adjacent fields can never alias. The plan hashes via its
  // canonical spec text: two spellings of the same pass list (a preset
  // name vs. the explicit stage:pass spec) are the same compilation.
  H.str("source");
  H.str(Source);
  H.str("entry");
  H.str(Entry);
  H.str("plan");
  H.str(Plan.str());
  H.str("dimvars");
  H.u64(Bindings.DimVars.size());
  for (const auto &[Name, Value] : Bindings.DimVars) {
    H.str(Name);
    H.i64(Value);
  }
  H.str("captures");
  H.u64(Bindings.Captures.size());
  for (const auto &[Func, Params] : Bindings.Captures) {
    H.str(Func);
    H.u64(Params.size());
    for (const auto &[Param, Capture] : Params) {
      H.str(Param);
      if (Capture.TheKind == CaptureValue::Kind::ClassicalFunc) {
        H.str("func");
        H.str(Capture.FuncName);
      } else {
        H.str("bits");
        H.u64(Capture.Bits.size());
        for (bool B : Capture.Bits)
          H.u64(B ? 1 : 0);
      }
    }
  }
}

std::array<uint64_t, 2> CompileSession::contentHash() const {
  ContentHasher H;
  hashIdentity(H, Source, Options.Entry, Options.Plan, Bindings);
  return H.digest();
}

template <typename UnitT>
bool CompileSession::runPassList(PipelineStage Stage,
                                 const std::vector<std::string> &Names,
                                 UnitT &U) {
  for (const std::string &Name : Names) {
    PassFn<UnitT> Fn = findPass<UnitT>(Stage, Name);
    if (!Fn) {
      Diags.error(SourceLoc(), "unknown pass '" + Name + "' in stage '" +
                                   pipelineStageName(Stage) + "'");
      Ctx.noteFailure(Stage, Name);
      return false;
    }
    if (!Ctx.runInstrumented(Stage, Name, U, [&] { return Fn(U, Ctx); }))
      return false;
  }
  return true;
}

bool CompileSession::fail() {
  Failed = true;
  std::string Where =
      Ctx.FailedPass.empty()
          ? std::string("compile")
          : std::string(pipelineStageName(Ctx.FailedStage)) + ":" +
                Ctx.FailedPass;
  ErrorMessage = Where + " failed for entry '" + Options.Entry + "':\n" +
                 Diags.str();
  return false;
}

bool CompileSession::runAstStage() {
  auto T0 = std::chrono::steady_clock::now();
  AST = parseProgram(Source, Diags);
  if (!Ctx.recordCreation(PipelineStage::AST, "parse", secondsSince(T0),
                          AST.get()))
    return fail();
  if (!runPassList(PipelineStage::AST, Options.Plan.Ast, *AST))
    return fail();
  return true;
}

bool CompileSession::runQwertyStage() {
  Ctx.dumpBeforeCreation(PipelineStage::Qwerty, "lower", *AST);
  auto T0 = std::chrono::steady_clock::now();
  QwertyIR = lowerToQwertyIR(*AST, Diags);
  if (!Ctx.recordCreation(PipelineStage::Qwerty, "lower", secondsSince(T0),
                          QwertyIR.get()))
    return fail();
  if (!runPassList(PipelineStage::Qwerty, Options.Plan.Qwerty, *QwertyIR))
    return fail();
  return true;
}

bool CompileSession::runQCircStage() {
  // Conversion is destructive in place; deep-clone so the Qwerty IR
  // artifact stays inspectable without recompiling the front half.
  QCircIR = cloneModule(*QwertyIR);
  bool Converted =
      Ctx.runInstrumented(PipelineStage::QCirc, "convert", *QCircIR, [&] {
        return convertToQCircuit(*QCircIR, *AST, Diags);
      });
  if (!Converted)
    return fail();
  if (!runPassList(PipelineStage::QCirc, Options.Plan.QCirc, *QCircIR))
    return fail();
  return true;
}

bool CompileSession::runCircuitStage() {
  Ctx.dumpBeforeCreation(PipelineStage::Circuit, "flatten", *QCircIR);
  auto T0 = std::chrono::steady_clock::now();
  std::optional<Circuit> C =
      flattenToCircuit(*QCircIR, Options.Entry, Diags);
  if (C)
    Flat = std::move(*C);
  else if (!Options.Plan.producesFlatCircuit())
    // Flatten is attempted regardless of the plan (a custom pipeline may
    // inline under another pass name); explain the likely cause when a
    // non-inlining plan was indeed the problem.
    Diags.note(SourceLoc(),
               "pipeline plan '" + Options.Plan.str() +
                   "' does not include the 'inline' pass, so call/callable "
                   "ops survive to flattening (only Qwerty IR / "
                   "unrestricted QIR can be emitted)");
  if (!Ctx.recordCreation(PipelineStage::Circuit, "flatten",
                          secondsSince(T0), Flat ? &*Flat : nullptr))
    return fail();
  if (!runPassList(PipelineStage::Circuit, Options.Plan.Circuit, *Flat))
    return fail();
  return true;
}

bool CompileSession::runTo(Phase Target) {
  // Cache check first: artifacts a completed stage produced stay
  // inspectable even after a *later* stage fails (the debugging flow the
  // header advertises).
  if (Done >= Target)
    return true;
  if (Failed)
    return false;
  if (Done < Phase::AST) {
    if (!runAstStage())
      return false;
    Done = Phase::AST;
  }
  if (Target == Phase::AST)
    return true;
  if (Done < Phase::Qwerty) {
    if (!runQwertyStage())
      return false;
    Done = Phase::Qwerty;
  }
  if (Target == Phase::Qwerty)
    return true;
  if (Done < Phase::QCirc) {
    if (!runQCircStage())
      return false;
    Done = Phase::QCirc;
  }
  if (Target == Phase::QCirc)
    return true;
  if (Done < Phase::Flat) {
    if (!runCircuitStage())
      return false;
    Done = Phase::Flat;
  }
  return true;
}

Program *CompileSession::ast() {
  return runTo(Phase::AST) ? AST.get() : nullptr;
}

Module *CompileSession::qwertyIR() {
  return runTo(Phase::Qwerty) ? QwertyIR.get() : nullptr;
}

Module *CompileSession::qcircIR() {
  return runTo(Phase::QCirc) ? QCircIR.get() : nullptr;
}

Circuit *CompileSession::flatCircuit() {
  return runTo(Phase::Flat) && Flat ? &*Flat : nullptr;
}

CompileSession::Artifacts CompileSession::takeArtifacts() {
  Artifacts A;
  A.AST = std::move(AST);
  A.QwertyIR = std::move(QwertyIR);
  A.QCircIR = std::move(QCircIR);
  A.Flat = std::move(Flat);
  return A;
}

//===----------------------------------------------------------------------===//
// Parametric compilation
//===----------------------------------------------------------------------===//

const std::vector<std::string> *CompileSession::paramNames() {
  Circuit *C = flatCircuit();
  return C ? &C->ParamNames : nullptr;
}

std::optional<Circuit>
CompileSession::bindParams(const std::vector<double> &Values,
                           std::string *Err) {
  Circuit *C = flatCircuit();
  if (!C) {
    if (Err)
      *Err = ErrorMessage;
    return std::nullopt;
  }
  if (Values.size() != C->ParamNames.size()) {
    if (Err) {
      *Err = "cannot bind " + std::to_string(Values.size()) +
             " value(s) to " + std::to_string(C->ParamNames.size()) +
             " parameter(s)";
      if (!C->ParamNames.empty())
        *Err += " (" + C->paramList() + ")";
    }
    return std::nullopt;
  }
  return bindCircuit(*C, Values);
}

std::optional<Circuit>
CompileSession::bindParams(const std::map<std::string, double> &Values,
                           std::string *Err) {
  Circuit *C = flatCircuit();
  if (!C) {
    if (Err)
      *Err = ErrorMessage;
    return std::nullopt;
  }
  for (const auto &[Name, Value] : Values) {
    (void)Value;
    if (std::find(C->ParamNames.begin(), C->ParamNames.end(), Name) ==
        C->ParamNames.end()) {
      if (Err) {
        *Err = "unknown parameter '$" + Name + "'";
        *Err += C->ParamNames.empty()
                    ? std::string("; the program declares no parameters")
                    : "; the program declares (" +
                          C->paramList() + ")";
      }
      return std::nullopt;
    }
  }
  std::vector<double> Ordered;
  Ordered.reserve(C->ParamNames.size());
  for (const std::string &Name : C->ParamNames) {
    auto It = Values.find(Name);
    if (It == Values.end()) {
      if (Err)
        *Err = "missing value for parameter '$" + Name + "'";
      return std::nullopt;
    }
    Ordered.push_back(It->second);
  }
  return bindCircuit(*C, Ordered);
}

std::optional<ParameterizedSource>
asdf::parameterizeSource(const std::string &Source) {
  // A program that does not lex cannot be canonicalized; the caller hashes
  // the source verbatim instead. The diagnostics are deliberately
  // discarded — the real compile will re-report them with full context.
  DiagnosticEngine Diags;
  Lexer Lex(Source, Diags);
  if (Diags.hadError())
    return std::nullopt;
  const std::vector<Token> &Toks = Lex.tokens();

  // Lifted names share the program's own parameter namespace; refuse
  // sources that already use the reserved prefix rather than risk capture.
  for (const Token &T : Toks)
    if (T.is(Token::Kind::Param) && T.Text.rfind("__a", 0) == 0)
      return std::nullopt;

  // Tokens carry line/column only; rebuild byte offsets from a line-start
  // table, then re-scan each literal's lexeme extent with the lexer's own
  // number syntax (digits, plus a '.' only when a digit follows — no
  // exponents or hex).
  std::vector<size_t> LineStarts{0};
  for (size_t I = 0; I < Source.size(); ++I)
    if (Source[I] == '\n')
      LineStarts.push_back(I + 1);
  auto byteOffset = [&](SourceLoc Loc) -> size_t {
    if (Loc.Line == 0 || Loc.Line > LineStarts.size())
      return std::string::npos;
    size_t Off = LineStarts[Loc.Line - 1] + (Loc.Col ? Loc.Col - 1 : 0);
    return Off <= Source.size() ? Off : std::string::npos;
  };
  auto literalEnd = [&](size_t Begin) {
    size_t I = Begin;
    while (I < Source.size()) {
      char C = Source[I];
      if (std::isdigit(static_cast<unsigned char>(C))) {
        ++I;
        continue;
      }
      if (C == '.' && I + 1 < Source.size() &&
          std::isdigit(static_cast<unsigned char>(Source[I + 1]))) {
        I += 2;
        continue;
      }
      break;
    }
    return I;
  };

  // Match `.rotate(` [ `-` ] <float-or-integer> `)` over the token stream.
  // Anything else inside the parens (a parameter, a compound expression)
  // is left for the real front end to evaluate.
  struct Match {
    size_t Begin, End;
    double Value;
  };
  std::vector<Match> Matches;
  for (size_t I = 0; I + 4 < Toks.size(); ++I) {
    if (!Toks[I].is(Token::Kind::Dot) ||
        !Toks[I + 1].is(Token::Kind::Identifier) ||
        Toks[I + 1].Text != "rotate" || !Toks[I + 2].is(Token::Kind::LParen))
      continue;
    size_t J = I + 3;
    bool Neg = false;
    if (Toks[J].is(Token::Kind::Minus)) {
      Neg = true;
      ++J;
    }
    if (J + 1 >= Toks.size())
      continue;
    const Token &Lit = Toks[J];
    double Value;
    if (Lit.is(Token::Kind::Float))
      Value = Lit.FloatValue;
    else if (Lit.is(Token::Kind::Integer))
      Value = static_cast<double>(Lit.IntValue);
    else
      continue;
    if (!Toks[J + 1].is(Token::Kind::RParen))
      continue;
    size_t Begin = byteOffset(Neg ? Toks[J - 1].Loc : Lit.Loc);
    size_t LitBegin = byteOffset(Lit.Loc);
    if (Begin == std::string::npos || LitBegin == std::string::npos)
      return std::nullopt;
    Matches.push_back({Begin, literalEnd(LitBegin), Neg ? -Value : Value});
  }

  ParameterizedSource PS;
  if (Matches.empty()) {
    PS.Source = Source;
    return PS;
  }

  std::string Out;
  Out.reserve(Source.size());
  size_t Cursor = 0;
  for (size_t K = 0; K < Matches.size(); ++K) {
    const Match &M = Matches[K];
    if (M.Begin < Cursor || M.End > Source.size() || M.End <= M.Begin)
      return std::nullopt; // Extent reconstruction failed; hash verbatim.
    std::string Name = "__a" + std::to_string(K);
    Out.append(Source, Cursor, M.Begin - Cursor);
    Out += "$" + Name;
    Cursor = M.End;
    PS.LiftedNames.push_back(std::move(Name));
    PS.LiftedValues.push_back(M.Value);
  }
  Out.append(Source, Cursor, std::string::npos);
  PS.Source = std::move(Out);
  return PS;
}
