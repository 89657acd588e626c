/// @file verify.hpp
/// The verification layer on top of SFG serialization: golden-corpus
/// checking and structure-aware differential testing, shared by the
/// `psdacc-verify` CLI, tests/test_corpus.cpp, and the fuzz smoke tests.
///
/// Tolerances (the documented contracts):
///  * golden values: each engine named in a document's `expect` section
///    must reproduce its recorded output noise power to 1e-9 relative;
///  * delta parity: `evaluate_delta(v, current format)` must equal the
///    full evaluation to 1e-12 relative on every delta-capable engine
///    (the PR-5 incremental-evaluation contract);
///  * serialization differential: every engine must produce *bit-identical*
///    results on a graph and on its parse(serialize(...)) copy;
///  * cross-engine: on single-rate graphs the hierarchical PSD estimate
///    must stay within the paper's one-bit band of the flat (exact)
///    method — E_d in (-75%, +300%), core::within_one_bit.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "sfg/serialize.hpp"

namespace psdacc::sfg {

/// One failed check. `check` is a stable machine-readable tag
/// ("parse", "canonical", "invalid", "golden:psd", "delta:moment",
/// "differential:flat", "cross:flat-vs-psd", ...); `detail` is for
/// humans. Tags with the "band:" prefix are advisory one-bit-band
/// observations (statistical claims, not per-graph contracts); callers
/// like the fuzz driver count them against a rate threshold instead of
/// treating each as a failure.
struct VerifyIssue {
  std::string check;
  std::string detail;
};

struct VerifyOptions {
  double golden_rel_tol = 1e-9;
  double delta_rel_tol = 1e-12;
  /// Check flat-vs-psd one-bit agreement when both engines run. Only
  /// applied when the document's *recorded* goldens are themselves in
  /// band: graphs with strongly correlated reconvergent noise (e.g.
  /// realization_parallel in the corpus) legitimately violate the
  /// uncorrelated-sources assumption, and their goldens document that.
  bool cross_engine = true;
};

/// Kept under this name for callers that predate sim::engine_options_for.
using sim::engine_options_for;

/// Full golden-corpus verification of one serialized document: parse,
/// canonical byte-identity, every `expect` engine against its golden value,
/// delta-vs-full parity, cross-engine agreement. A graph no engine can
/// evaluate (an unstable block) gets one "invalid" issue instead of the
/// engine checks. Empty result == pass.
std::vector<VerifyIssue> verify_scenario_text(std::string_view text,
                                              const VerifyOptions& opts = {});

/// Recomputes the golden expectations for a scenario: the (kind, power)
/// pairs of sim::evaluate_accuracy over `config.engines` (engines that do
/// not support the graph are skipped) — the `expect` section a corpus file
/// should carry.
/// @throws std::invalid_argument when a block is unstable
///         (core::unstable_block)
std::vector<std::pair<core::EngineKind, double>> evaluate_expected(
    const Scenario& s);

/// Recomputes the optimizer goldens for a scenario: re-runs every
/// `opt_expect` entry (strategy over the graph's noise sources, unit
/// weights, the scenario config's n_psd) and returns the entries with
/// their costs replaced by the freshly searched ones — the section a
/// corpus file should carry after `psdacc-verify regen`. Entries with an
/// unknown strategy or an engine that cannot evaluate the graph are
/// dropped.
std::vector<OptExpectation> evaluate_opt_expected(const Scenario& s);

struct DifferentialOptions {
  /// Spectral resolution for the analytical engines (small: the fuzzer
  /// sweeps many graphs).
  std::size_t n_psd = 128;
  double delta_rel_tol = 1e-12;
  /// Also run Monte-Carlo simulation and band-check the analytical
  /// engines against it (expensive; the fuzzer samples this).
  bool with_simulation = false;
  std::size_t sim_samples = 1u << 14;
};

/// Structure-aware differential check of one graph, the fuzzer's core:
///  1. round-trip: parse(serialize(g)) is structurally equal to g and
///     re-serializes byte-identically;
///  2. serialization differential: flat/moment/psd each produce
///     bit-identical powers on g and on the parsed copy;
///  3. delta parity to `delta_rel_tol` on delta-capable engines;
///  4. cross-engine flat-vs-psd agreement: exact to 1e-9 on adder-free
///     chains (a theorem — hard "cross:chain-exact" issue); with
///     reconvergent joins the one-bit band is advisory ("band:" issue:
///     correlated path contributions can legitimately leave the band on
///     individual graphs, so callers threshold the aggregate rate);
///  5. optionally, advisory one-bit bands of flat/psd vs simulation.
/// Graphs the engines cannot evaluate (no/multiple outputs, no sources,
/// cycles) only get step 1. Empty result == pass.
std::vector<VerifyIssue> differential_check(
    const Graph& g, const DifferentialOptions& opts = {});

}  // namespace psdacc::sfg
