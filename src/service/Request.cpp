//===- Request.cpp - The shared request/job abstraction -------------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Request.h"

#include "support/FaultInject.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <set>

using namespace asdf;

const char *asdf::requestKindName(ServiceRequest::Kind K) {
  switch (K) {
  case ServiceRequest::Kind::Compile:
    return "compile";
  case ServiceRequest::Kind::Run:
    return "run";
  case ServiceRequest::Kind::BindRun:
    return "bind-run";
  case ServiceRequest::Kind::Stats:
    return "stats";
  case ServiceRequest::Kind::Shutdown:
    return "shutdown";
  case ServiceRequest::Kind::Metrics:
    return "metrics";
  }
  return "?";
}

namespace {

const char *kindName(ServiceRequest::Kind K) { return requestKindName(K); }

bool parseKind(const std::string &Name, ServiceRequest::Kind &Out) {
  if (Name == "compile")
    Out = ServiceRequest::Kind::Compile;
  else if (Name == "run")
    Out = ServiceRequest::Kind::Run;
  else if (Name == "bind-run")
    Out = ServiceRequest::Kind::BindRun;
  else if (Name == "stats")
    Out = ServiceRequest::Kind::Stats;
  else if (Name == "shutdown")
    Out = ServiceRequest::Kind::Shutdown;
  else if (Name == "metrics")
    Out = ServiceRequest::Kind::Metrics;
  else
    return false;
  return true;
}

/// Reads \p V into \p Out if it is a whole number in \p Out's range;
/// otherwise names \p Field in \p Error. Seeds and ids keep the full
/// 64-bit range.
template <typename T>
bool wholeField(const json::Value &V, const std::string &Field, T &Out,
                std::string &Error) {
  using Limits = std::numeric_limits<T>;
  if constexpr (Limits::is_signed) {
    int64_t N;
    if (V.toI64(N) && N >= Limits::min() && N <= Limits::max()) {
      Out = static_cast<T>(N);
      return true;
    }
  } else {
    uint64_t N;
    if (V.toU64(N) && N <= Limits::max()) {
      Out = static_cast<T>(N);
      return true;
    }
  }
  Error = Field + " must be a whole number from " +
          std::to_string(Limits::min()) + " to " +
          std::to_string(Limits::max());
  return false;
}

} // namespace

json::Value ServiceRequest::toJson() const {
  json::Value O = json::Value::object();
  O.set("id", json::Value::integer(Id));
  O.set("op", json::Value::str(kindName(TheKind)));
  if (Trace != 0)
    O.set("trace", json::Value::integer(Trace));
  if (!Fault.empty())
    O.set("fault", json::Value::str(Fault));
  if (TheKind == Kind::Stats || TheKind == Kind::Shutdown ||
      TheKind == Kind::Metrics)
    return O;
  O.set("source", json::Value::str(Source));
  if (Entry != "kernel")
    O.set("entry", json::Value::str(Entry));
  if (Pipeline != "default")
    O.set("pipeline", json::Value::str(Pipeline));
  if (!Bindings.DimVars.empty()) {
    json::Value Bind = json::Value::object();
    for (const auto &[Name, Value] : Bindings.DimVars)
      Bind.set(Name, json::Value::integer(static_cast<int64_t>(Value)));
    O.set("bind", std::move(Bind));
  }
  if (!Bindings.Captures.empty()) {
    // Same key syntax as the asdfc flag: "<function>.<param>", with
    // classical-function captures spelled "@name".
    json::Value Cap = json::Value::object();
    for (const auto &[Func, Params] : Bindings.Captures)
      for (const auto &[Param, Capture] : Params) {
        std::string Value;
        if (Capture.TheKind == CaptureValue::Kind::ClassicalFunc) {
          Value = "@" + Capture.FuncName;
        } else {
          Value.reserve(Capture.Bits.size());
          for (bool B : Capture.Bits)
            Value.push_back(B ? '1' : '0');
        }
        Cap.set(Func + "." + Param, json::Value::str(Value));
      }
    O.set("capture", std::move(Cap));
  }
  if (TheKind == Kind::Compile) {
    O.set("emit", json::Value::str(Emit));
  } else {
    O.set("shots", json::Value::integer(static_cast<uint64_t>(Shots)));
    O.set("seed", json::Value::integer(Seed));
    if (Backend != "auto")
      O.set("backend", json::Value::str(Backend));
    if (Jobs != 1)
      O.set("jobs", json::Value::integer(static_cast<uint64_t>(Jobs)));
    if (TheKind == Kind::BindRun) {
      json::Value Params = json::Value::array();
      for (const std::string &Name : SweepParams)
        Params.push(json::Value::str(Name));
      O.set("params", std::move(Params));
      json::Value Pts = json::Value::array();
      for (const std::vector<double> &Point : Points) {
        json::Value P = json::Value::array();
        for (double D : Point)
          P.push(json::Value::number(D));
        Pts.push(std::move(P));
      }
      O.set("points", std::move(Pts));
    }
  }
  if (TimeoutSecs > 0)
    O.set("timeout", json::Value::number(TimeoutSecs));
  return O;
}

bool ServiceRequest::fromJson(const json::Value &V, ServiceRequest &Out,
                              std::string &Error) {
  if (!V.isObject()) {
    Error = "request must be a JSON object";
    return false;
  }
  const json::Value *Op = V.get("op");
  if (!Op || !Op->isString()) {
    Error = "request needs a string \"op\" field";
    return false;
  }
  Out = ServiceRequest();
  if (!parseKind(Op->asString(), Out.TheKind)) {
    Error = "unknown op '" + Op->asString() +
            "' (expected compile, run, bind-run, stats, metrics, or "
            "shutdown)";
    return false;
  }

  static const std::set<std::string> Known = {
      "id",   "op",      "source", "entry",   "pipeline", "bind",
      "capture", "emit", "shots",  "seed",    "backend",  "jobs",
      "timeout", "params", "points", "trace", "fault"};
  for (const auto &[Key, Member] : V.members()) {
    (void)Member;
    if (!Known.count(Key)) {
      Error = "unknown request field \"" + Key + "\"";
      return false;
    }
  }
  if (Out.TheKind != Kind::BindRun && (V.get("params") || V.get("points"))) {
    Error = "\"params\"/\"points\" are only valid for op \"bind-run\"";
    return false;
  }

  if (const json::Value *Id = V.get("id"))
    if (!wholeField(*Id, "\"id\"", Out.Id, Error))
      return false;
  if (const json::Value *T = V.get("timeout")) {
    // A NaN default catches numbers too large for a double (1e400). The cap
    // keeps `now + timeout` inside steady_clock's range.
    double Secs = T->asDouble(std::numeric_limits<double>::quiet_NaN());
    if (!(Secs >= 0 && Secs <= MaxTimeoutSecs)) {
      Error = "\"timeout\" must be a number of seconds from 0 to 1000000";
      return false;
    }
    Out.TimeoutSecs = Secs;
  }
  if (const json::Value *T = V.get("trace"))
    if (!wholeField(*T, "\"trace\"", Out.Trace, Error))
      return false;
  if (const json::Value *F = V.get("fault")) {
    if (!fault::Compiled) {
      Error = "\"fault\" needs a fault-injection build "
              "(-DASDF_FAULT_INJECTION=ON)";
      return false;
    }
    if (!F->isString()) {
      Error = "\"fault\" must be a string fault spec";
      return false;
    }
    Out.Fault = F->asString();
  }
  if (Out.TheKind == Kind::Stats || Out.TheKind == Kind::Shutdown ||
      Out.TheKind == Kind::Metrics)
    return true;

  const json::Value *Source = V.get("source");
  if (!Source || !Source->isString()) {
    Error = std::string(kindName(Out.TheKind)) +
            " request needs a string \"source\" field";
    return false;
  }
  Out.Source = Source->asString();
  if (const json::Value *E = V.get("entry")) {
    if (!E->isString()) {
      Error = "\"entry\" must be a string";
      return false;
    }
    Out.Entry = E->asString();
  }
  if (const json::Value *P = V.get("pipeline")) {
    if (!P->isString()) {
      Error = "\"pipeline\" must be a string";
      return false;
    }
    Out.Pipeline = P->asString();
  }
  if (const json::Value *Bind = V.get("bind")) {
    if (!Bind->isObject()) {
      Error = "\"bind\" must be an object of {var: int}";
      return false;
    }
    for (const auto &[Name, Member] : Bind->members())
      if (!wholeField(Member, "bind value for '" + Name + "'",
                      Out.Bindings.DimVars[Name], Error))
        return false;
  }
  if (const json::Value *Cap = V.get("capture")) {
    if (!Cap->isObject()) {
      Error = "\"capture\" must be an object of {\"fn.param\": value}";
      return false;
    }
    for (const auto &[Key, Member] : Cap->members()) {
      size_t Dot = Key.find('.');
      if (Dot == std::string::npos) {
        Error = "capture key '" + Key + "' must be <function>.<param>";
        return false;
      }
      if (!Member.isString()) {
        Error = "capture value for '" + Key + "' must be a string";
        return false;
      }
      const std::string &Value = Member.asString();
      CaptureValue CV;
      if (!Value.empty() && Value[0] == '@') {
        CV = CaptureValue::classicalFunc(Value.substr(1));
      } else {
        for (char C : Value)
          if (C != '0' && C != '1') {
            Error = "capture value for '" + Key +
                    "' must be a bit string or @function";
            return false;
          }
        CV = CaptureValue::bitsFromString(Value);
      }
      Out.Bindings.Captures[Key.substr(0, Dot)][Key.substr(Dot + 1)] =
          std::move(CV);
    }
  }
  if (Out.TheKind == Kind::Compile) {
    if (const json::Value *E = V.get("emit")) {
      if (!E->isString()) {
        Error = "\"emit\" must be a string";
        return false;
      }
      Out.Emit = E->asString();
    }
    return true;
  }
  // Run.
  if (const json::Value *S = V.get("shots"))
    if (!wholeField(*S, "\"shots\"", Out.Shots, Error))
      return false;
  if (const json::Value *S = V.get("seed"))
    if (!wholeField(*S, "\"seed\"", Out.Seed, Error))
      return false;
  if (const json::Value *B = V.get("backend")) {
    if (!B->isString()) {
      Error = "\"backend\" must be a string";
      return false;
    }
    Out.Backend = B->asString();
  }
  if (const json::Value *J = V.get("jobs"))
    if (!wholeField(*J, "\"jobs\"", Out.Jobs, Error))
      return false;
  if (Out.TheKind != Kind::BindRun)
    return true;
  const json::Value *Params = V.get("params");
  const json::Value *Points = V.get("points");
  if (Params) {
    if (!Params->isArray()) {
      Error = "\"params\" must be an array of parameter names";
      return false;
    }
    for (const json::Value &E : Params->elements()) {
      if (!E.isString()) {
        Error = "\"params\" entries must be strings";
        return false;
      }
      Out.SweepParams.push_back(E.asString());
    }
  }
  if (!Points || !Points->isArray()) {
    Error = "bind-run request needs an array \"points\" field";
    return false;
  }
  for (const json::Value &P : Points->elements()) {
    if (!P.isArray()) {
      Error = "\"points\" entries must be arrays of numbers";
      return false;
    }
    std::vector<double> Point;
    for (const json::Value &D : P.elements()) {
      // A NaN default catches numbers outside a double's range (1e400,
      // 1e-400), as --sweep refuses them.
      double Val = D.asDouble(std::numeric_limits<double>::quiet_NaN());
      if (std::isnan(Val)) {
        Error = "\"points\" values must be numbers in a double's range";
        return false;
      }
      Point.push_back(Val);
    }
    Out.Points.push_back(std::move(Point));
  }
  return true;
}

json::Value ServiceResponse::toJson() const {
  json::Value O = json::Value::object();
  O.set("id", json::Value::integer(Id));
  O.set("ok", json::Value::boolean(Ok));
  if (!Ok) {
    json::Value E = json::Value::object();
    E.set("kind", json::Value::str(Error.Kind));
    E.set("message", json::Value::str(Error.Message));
    if (Error.RetryAfterMs != 0)
      E.set("retry_after_ms", json::Value::integer(Error.RetryAfterMs));
    O.set("error", std::move(E));
    return O;
  }
  if (!StatsBody.isNull()) {
    O.set("stats", StatsBody);
    return O;
  }
  if (!MetricsText.empty()) {
    O.set("metrics", json::Value::str(MetricsText));
    return O;
  }
  if (!Key.empty()) {
    O.set("cache", json::Value::str(CacheHit ? "hit" : "miss"));
    O.set("key", json::Value::str(Key));
    O.set("compile_secs", json::Value::number(CompileSecs));
  }
  if (!Artifact.empty())
    O.set("artifact", json::Value::str(Artifact));
  if (!Results.empty()) {
    json::Value R = json::Value::array();
    for (const std::string &S : Results)
      R.push(json::Value::str(S));
    O.set("results", std::move(R));
    json::Value C = json::Value::object();
    for (const auto &[Bits, N] : Counts)
      C.set(Bits, json::Value::integer(static_cast<uint64_t>(N)));
    O.set("counts", std::move(C));
  }
  if (!PointResults.empty()) {
    json::Value Pts = json::Value::array();
    for (const std::vector<std::string> &Point : PointResults) {
      json::Value P = json::Value::array();
      for (const std::string &S : Point)
        P.push(json::Value::str(S));
      Pts.push(std::move(P));
    }
    O.set("point_results", std::move(Pts));
  }
  return O;
}

bool ServiceResponse::fromJson(const json::Value &V, ServiceResponse &Out,
                               std::string &Error) {
  if (!V.isObject()) {
    Error = "response must be a JSON object";
    return false;
  }
  Out = ServiceResponse();
  if (const json::Value *Id = V.get("id"))
    Out.Id = Id->asU64();
  const json::Value *Ok = V.get("ok");
  if (!Ok || !Ok->isBool()) {
    Error = "response needs a boolean \"ok\" field";
    return false;
  }
  Out.Ok = Ok->asBool();
  if (!Out.Ok) {
    if (const json::Value *E = V.get("error")) {
      if (const json::Value *K = E->get("kind"))
        Out.Error.Kind = K->asString();
      if (const json::Value *M = E->get("message"))
        Out.Error.Message = M->asString();
      if (const json::Value *R = E->get("retry_after_ms"))
        Out.Error.RetryAfterMs = R->asU64();
    }
    if (Out.Error.Kind.empty())
      Out.Error.Kind = "internal";
    return true;
  }
  if (const json::Value *A = V.get("artifact"))
    Out.Artifact = A->asString();
  if (const json::Value *C = V.get("cache"))
    Out.CacheHit = C->asString() == "hit";
  if (const json::Value *K = V.get("key"))
    Out.Key = K->asString();
  if (const json::Value *S = V.get("compile_secs"))
    Out.CompileSecs = S->asDouble();
  if (const json::Value *R = V.get("results"))
    for (const json::Value &E : R->elements())
      Out.Results.push_back(E.asString());
  if (const json::Value *C = V.get("counts"))
    for (const auto &[Bits, N] : C->members())
      Out.Counts[Bits] = static_cast<unsigned>(N.asU64());
  if (const json::Value *P = V.get("point_results"))
    for (const json::Value &Point : P->elements()) {
      std::vector<std::string> Shots;
      for (const json::Value &S : Point.elements())
        Shots.push_back(S.asString());
      Out.PointResults.push_back(std::move(Shots));
    }
  if (const json::Value *S = V.get("stats"))
    Out.StatsBody = *S;
  if (const json::Value *M = V.get("metrics"))
    Out.MetricsText = M->asString();
  return true;
}

ServiceResponse ServiceResponse::failure(uint64_t Id, std::string Kind,
                                         std::string Message,
                                         uint64_t RetryAfterMs) {
  ServiceResponse R;
  R.Id = Id;
  R.Ok = false;
  R.Error.Kind = std::move(Kind);
  R.Error.Message = std::move(Message);
  R.Error.RetryAfterMs = RetryAfterMs;
  return R;
}

bool asdf::parseRequestLine(const std::string &Line, ServiceRequest &Out,
                            uint64_t &IdOut, std::string &Error) {
  IdOut = 0;
  json::Value V;
  if (!json::parse(Line, V, Error))
    return false;
  if (V.isObject())
    if (const json::Value *Id = V.get("id"))
      Id->toU64(IdOut);
  return ServiceRequest::fromJson(V, Out, Error);
}
