/// @file wordlength_optimizer.hpp
/// Word-length optimization driver — the design-automation loop the paper's
/// fast accuracy evaluation exists to serve.
///
/// The optimizer is engine-agnostic: every probe is one
/// core::AccuracyEngine evaluation, so the same search runs under the
/// proposed PSD method (the default), the flat or moment baselines — the
/// paper's Table-II comparison extended to a *search-quality* axis — or
/// even bit-true simulation. With the default PSD engine a probe is one
/// O(N) sweep — and with incremental probing (the default where the
/// engine's capabilities().delta holds) a probe shrinks further to
/// O(sources): only the changed variable's noise contribution is
/// re-derived, the rest combines from the probe context's cache.
///
/// Probes run on probe contexts: a private graph clone plus an engine
/// bound to it via clone_for_worker (for the psd engine an O(1) binding
/// to the prototype's compiled model). A context remembers the bits it
/// last stamped, so a probe re-stamps only the variables whose bits
/// differ. With `OptimizerConfig::workers > 1` the candidate probes of one
/// full-evaluation round are scored concurrently on a runtime::ThreadPool,
/// one context per concurrent probe. Delta rounds run on the calling
/// thread instead: their probes take tens of nanoseconds, less than
/// forking and joining the pool. Results are bit-identical to the serial
/// search either way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/accuracy_engine.hpp"
#include "core/range_analysis.hpp"
#include "runtime/thread_pool.hpp"
#include "sfg/graph.hpp"

namespace psdacc::opt {

/// Search constraints and cost model for WordlengthOptimizer.
struct OptimizerConfig {
  double noise_budget = 1e-6;  ///< Max output noise power.
  int min_bits = 2;            ///< Lower bound per variable.
  int max_bits = 24;           ///< Upper bound per variable.
  std::size_t n_psd = 512;     ///< Spectral bins for flat/psd probes.
  /// Per-variable cost weight (e.g. multiplier width); empty = all 1.
  std::vector<double> cost_weights;
  /// Concurrency for full-evaluation probe rounds (1 = serial); delta
  /// rounds always run on the calling thread. Any value produces
  /// bit-identical results; the candidate scores are computed on isolated
  /// graph clones and the selection scan always runs in variable order.
  std::size_t workers = 1;
  /// Optional externally owned pool (overrides `workers`). Sharing one
  /// pool across optimizers / a BatchRunner avoids per-optimizer thread
  /// spawns and keeps the workers' thread-local FFT plan caches warm.
  runtime::ThreadPool* pool = nullptr;
  /// Accuracy backend scoring the probes. Any kind works; psd is the
  /// paper's proposal, moment/flat turn the search into the baselines'
  /// version of it, simulation gives a (slow) Monte-Carlo-guided search.
  core::EngineKind engine = core::EngineKind::kPsd;
  /// Remaining backend knobs (moment truncation, interpolation, simulation
  /// plan...). `n_psd` above overrides `engine_opts.n_psd` so existing
  /// drivers keep one resolution knob.
  core::EngineOptions engine_opts;
  /// Probe candidates through AccuracyEngine::evaluate_delta when the
  /// engine supports it (capabilities().delta): a probe then re-derives
  /// only the noise contribution of the changed variable and combines the
  /// rest from the per-worker probe context's cache — O(sources) instead
  /// of O(graph). Engines without the capability (simulation always, psd
  /// with upsamplers, moment under corrected multirate rules) fall back
  /// to full evaluation automatically. Off = always full probes (the
  /// pre-incremental behavior, kept for A/B timing); both settings find
  /// identical word-lengths.
  bool incremental = true;
  /// Cooperative cancellation hook, polled between probe rounds (never
  /// inside one, so a poll always sees a consistent search state): before
  /// each uniform step, each greedy removal round, and each min_plus_one
  /// scan/add round. Return true to stop: the strategy abandons further
  /// probing and returns its current working assignment applied and
  /// re-evaluated, with OptimizerResult::cancelled set. This is the hook
  /// server-side job timeouts ride on (`[deadline] { return now() >=
  /// deadline; }`); unset means never cancelled.
  std::function<bool()> cancel_check;
  /// When set, integer bits of every variable are sized from dynamic-range
  /// analysis (core::analyze_ranges with this input range +
  /// core::required_integer_bits) instead of left at their construction
  /// values. The analysis depends only on topology and coefficients, so it
  /// is hoisted behind the graph's topology revision: computed once and
  /// reused across every apply()/evaluate()/probe of the search
  /// (regression-tested via core::analyze_ranges_calls()).
  std::optional<core::Range> input_range;
};

/// Outcome of one optimization strategy.
struct OptimizerResult {
  std::vector<int> bits;        ///< Per variable, in variable order.
  double cost = 0.0;            ///< Weighted bit total.
  double noise = 0.0;           ///< Estimated output noise power.
  std::size_t evaluations = 0;  ///< PSD evaluations spent.
  bool feasible = false;        ///< noise <= budget.
  /// True when OptimizerConfig::cancel_check stopped the search early. The
  /// other fields then describe the partial state: the assignment the
  /// search held when it was cancelled (applied to the graph, noise
  /// re-evaluated), not a converged optimum.
  bool cancelled = false;
};

/// Minimizes hardware cost (weighted fractional bits) subject to an
/// output-noise budget, probing candidates with any AccuracyEngine.
class WordlengthOptimizer {
 public:
  /// @param g         the system; mutated in place during the search, with
  ///                  the best found assignment left applied
  /// @param variables node ids of QuantizerNodes or quantized BlockNodes
  ///                  in @p g whose fractional bits are free
  /// @param cfg       budget, bit bounds, cost weights, worker count, and
  ///                  the accuracy engine scoring the probes
  /// @throws std::invalid_argument when the configured engine cannot
  ///         evaluate @p g (core::engine_supports), e.g. flat + multirate
  WordlengthOptimizer(sfg::Graph& g, std::vector<sfg::NodeId> variables,
                      OptimizerConfig cfg);
  ~WordlengthOptimizer();

  /// Smallest single uniform d meeting the budget (baseline).
  OptimizerResult uniform();
  /// Start generous, repeatedly remove the bit with the best cost/noise
  /// trade until no removal fits the budget ("max -1 bit" heuristic).
  /// Candidate probes of each full round are scored concurrently.
  OptimizerResult greedy_descent();
  /// Start from each variable's noise-constrained lower bound and add bits
  /// where they help most until the budget is met. On full rounds the
  /// per-variable bound scans and the per-iteration probes run
  /// concurrently.
  OptimizerResult min_plus_one();

  /// Applies an assignment (one entry per variable).
  void apply(const std::vector<int>& bits);
  /// Estimated output noise for the currently applied assignment.
  double evaluate();
  std::size_t evaluations() const { return evaluations_; }
  /// The accuracy backend scoring this search's probes.
  const core::AccuracyEngine& engine() const { return *engine_; }
  /// The system under optimization (the graph the constructor bound).
  const sfg::Graph& graph() const { return graph_; }
  const std::vector<sfg::NodeId>& variables() const { return variables_; }
  std::size_t variable_count() const { return variables_.size(); }
  const OptimizerConfig& config() const { return cfg_; }
  /// Per-variable cost weight (1.0 when cost_weights is empty).
  double cost_weight(std::size_t v) const { return weight(v); }
  /// Weighted cost of an assignment, without touching the graph.
  double cost_of(const std::vector<int>& bits) const;

  /// --- Search-strategy support (src/opt/search) ----------------------
  /// The strategies in opt::search (annealing, tabu, branch-and-bound,
  /// Pareto sweeps) drive the optimizer through this batch-probe surface
  /// instead of the built-in heuristics, inheriting the same probe
  /// contexts, delta path, counters and determinism contract.

  /// One hypothetical single-variable change scored against a baseline.
  struct Candidate {
    std::size_t v = 0;  ///< Variable index (into variables()).
    int bits = 0;       ///< Proposed fractional bits for that variable.
  };
  /// Noise of `baseline` with each candidate applied alone — one probe per
  /// candidate, scored concurrently on the pool (on the calling thread
  /// when probes take the delta path), results returned in candidate
  /// order. Bit-identical for any worker count (each probe runs
  /// on an isolated context; see probe()). evaluations() advances by
  /// candidates.size() on the driving thread after the round.
  std::vector<double> probe_candidates(
      const std::vector<int>& baseline,
      const std::vector<Candidate>& candidates);
  /// Noise of a complete assignment, probed on a leased context — the
  /// driving graph is untouched. Always a full (non-delta) evaluation;
  /// what tree searches use to bound and score subproblems. Call from the
  /// driving thread only (bumps evaluations()).
  double probe_assignment(const std::vector<int>& bits);
  /// apply() + evaluate() + weighted cost, packaged with the same
  /// invariants as the built-in strategies' returns — external strategies
  /// finish through this so their results are indistinguishable.
  OptimizerResult package_result(std::vector<int> bits) {
    return package(std::move(bits));
  }
  /// package_result() with OptimizerResult::cancelled set — the
  /// early-return path when cancel_requested() fires mid-search.
  OptimizerResult cancelled_result(std::vector<int> bits) {
    return cancelled_package(std::move(bits));
  }
  /// True when the config's cancel_check exists and fires. Poll between
  /// probe rounds only, from the driving thread.
  bool cancel_requested() const;
  /// Evaluation accounting aggregated over the prototype engine and every
  /// probe context's engine — the probe-counter hook tests use to assert
  /// probes really took the delta path (or the cache-warm full path). Call
  /// between searches, when no probe is in flight.
  core::AccuracyEngine::EvalCounters probe_counters() const;

 private:
  // One worker's isolated probe state: a private clone of the system plus
  // an engine bound to it (clone_for_worker). NodeIds are indices, so the
  // optimizer's variable ids are valid in the clone. `stamped` records the
  // bits last written to each variable; empty means unknown (a fresh
  // context), and the next stamp then writes every variable.
  struct ProbeContext {
    sfg::Graph graph;
    std::unique_ptr<core::AccuracyEngine> engine;
    std::vector<int> stamped;
    ProbeContext(const sfg::Graph& src,
                 const core::AccuracyEngine& prototype)
        : graph(src), engine(prototype.clone_for_worker(graph)) {}
  };
  // RAII checkout of a ProbeContext from the shared free list.
  class ContextLease;

  double weight(std::size_t v) const;
  OptimizerResult package(std::vector<int> bits);
  /// package() with the cancelled flag set — the early-return path.
  OptimizerResult cancelled_package(std::vector<int> bits);
  /// Noise of `bits` with bits[v] replaced by `candidate_bits`, evaluated
  /// on a checked-out probe context (safe to call concurrently). Takes the
  /// engine's delta path when enabled (see OptimizerConfig::incremental):
  /// the context graph is stamped to the `bits` baseline and the candidate
  /// is evaluated hypothetically, so the context's per-source caches stay
  /// warm across the whole iteration.
  double probe(const std::vector<int>& bits, std::size_t v,
               int candidate_bits);
  /// Brings @p context's graph to `bits`, with @p change applied when
  /// set, writing only the variables whose recorded bits differ.
  void stamp(ProbeContext& context, const std::vector<int>& bits,
             std::optional<Candidate> change = std::nullopt) const;
  /// Runs body(i) for i in [0, n) — one probe round. Full-evaluation
  /// rounds go to the pool; delta rounds stay on the calling thread.
  void probe_round(std::size_t n,
                   const std::function<void(std::size_t)>& body);
  /// Range-analysis hoist: sizes variable integer bits from
  /// cfg_.input_range once per topology revision (no-op when unset or
  /// already current).
  void ensure_integer_bits();

  sfg::Graph& graph_;
  std::vector<sfg::NodeId> variables_;
  OptimizerConfig cfg_;
  std::unique_ptr<core::AccuracyEngine> engine_;
  bool delta_probes_ = false;
  std::uint64_t ranges_topology_ = ~std::uint64_t{0};
  std::size_t evaluations_ = 0;
  std::unique_ptr<runtime::ThreadPool> owned_pool_;
  runtime::ThreadPool* pool_;
  mutable std::mutex contexts_mutex_;
  std::vector<std::unique_ptr<ProbeContext>> free_contexts_;
};

}  // namespace psdacc::opt
