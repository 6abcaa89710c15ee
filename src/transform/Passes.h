//===- Passes.h - Qwerty IR transformation passes (§5.4, §6.2) ------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pass pipeline of §5.4: (1) lift all lambdas to module functions
/// referenced by func_const; (2) canonicalize, turning
/// call_indirect(func_const @f) into call @f (folding func_adj/func_pred
/// chains into adj/pred call attributes, and pushing call_indirects into
/// scf.if forks per Appendix C); (3) inline direct calls, generating
/// adjoint/predicated block specializations on demand, re-running the
/// canonicalizer until fixpoint.
///
/// When inlining is disabled (the Asdf (No Opt) configuration of Table 1),
/// function-specialization analysis (§6.2, Algorithm D5) determines which
/// specializations must be emitted for the QIR callables path.
///
//===----------------------------------------------------------------------===//

#ifndef ASDF_TRANSFORM_PASSES_H
#define ASDF_TRANSFORM_PASSES_H

#include "ir/IR.h"

#include <set>
#include <string>
#include <tuple>

namespace asdf {

/// Lifts every lambda op in \p M to a module-level function referenced by a
/// func_const (§5.4 step 1).
void liftLambdas(Module &M);

/// Runs canonicalization patterns and DCE to fixpoint on \p M (§5.4 step 2).
/// Returns true if anything changed.
bool canonicalizeIR(Module &M);

/// Inlines at most one direct call; returns true if one was inlined. Calls
/// marked adj/pred are specialized via adjointBlock/predicateBlock first.
bool inlineOneCall(Module &M);

/// Removes functions that are never referenced (directly or via func_const/
/// callable_create) from any function in \p Keep or its transitive callees.
void removeDeadFunctions(Module &M, const std::set<std::string> &Keep);

/// A required function specialization (§6.2): function name, adjoint flag,
/// and number of predicate/control qubits.
using SpecKey = std::tuple<std::string, bool, unsigned>;

/// Algorithm D5: computes the set of specializations reachable from
/// \p EntryName, including transitive specialized calls.
std::set<SpecKey> analyzeSpecializations(Module &M,
                                         const std::string &EntryName);

/// Generates IR functions for every non-forward specialization in \p Specs,
/// named f__adj, f__ctl<N>, f__adj_ctl<N>. Predicates for generated ctl
/// specializations are all-ones std bases of the given width (the QIR
/// callable convention; Appendix G). Returns false if a body cannot be
/// specialized.
bool generateSpecializations(Module &M, const std::set<SpecKey> &Specs);

/// The mangled symbol for a specialization.
std::string specSymbol(const SpecKey &Key);

} // namespace asdf

#endif // ASDF_TRANSFORM_PASSES_H
