#include "opt/wordlength_optimizer.hpp"

#include <algorithm>
#include <utility>

#include "fixedpoint/noise_model.hpp"
#include "support/assert.hpp"

namespace psdacc::opt {
namespace {

// Sets the fractional bits of a word-length variable node. Reads through
// the const accessor first and stamps via Graph::set_format only on a real
// change: an unchanged stamp must not bump the graph's revision counters,
// or re-stamping a recycled probe context would needlessly invalidate its
// engine's cached per-source contributions and power memo.
void set_bits(sfg::Graph& g, sfg::NodeId id, int bits) {
  const sfg::NodeView node = g.node(id);
  if (const auto* q = std::get_if<sfg::QuantizerNode>(&node.payload)) {
    auto format = q->format;
    format.fractional_bits = bits;
    const auto moments = fxp::continuous_quantization_noise(format);
    // Moments are compared too, not just bits: a quantizer built with
    // caller-supplied moments must still have them replaced by the derived
    // PQN moments the first time the optimizer touches it, exactly as the
    // unconditional assignment always did.
    if (q->format == format && q->moments.mean == moments.mean &&
        q->moments.variance == moments.variance)
      return;
    g.set_format(id, format);
    return;
  }
  if (const auto* b = std::get_if<sfg::BlockNode>(&node.payload)) {
    PSDACC_EXPECTS(b->output_format.has_value());
    if (b->output_format->fractional_bits == bits) return;
    auto format = *b->output_format;
    format.fractional_bits = bits;
    g.set_format(id, format);
    return;
  }
  PSDACC_EXPECTS(false && "variable must be a quantizer or quantized block");
}

// The format a word-length assignment of `bits` would install at `id` —
// what AccuracyEngine::evaluate_delta needs to probe hypothetically.
fxp::FixedPointFormat candidate_format(const sfg::Graph& g, sfg::NodeId id,
                                       int bits) {
  const sfg::NodeView node = g.node(id);
  fxp::FixedPointFormat format;
  if (const auto* q = std::get_if<sfg::QuantizerNode>(&node.payload)) {
    format = q->format;
  } else {
    const auto* b = std::get_if<sfg::BlockNode>(&node.payload);
    PSDACC_EXPECTS(b != nullptr && b->output_format.has_value());
    format = *b->output_format;
  }
  format.fractional_bits = bits;
  return format;
}

}  // namespace

// Checks a ProbeContext out of the optimizer's free list for the duration
// of one probe; contexts are created on demand, so at most one per
// concurrently running probe ever exists.
class WordlengthOptimizer::ContextLease {
 public:
  explicit ContextLease(WordlengthOptimizer& opt) : opt_(opt) {
    {
      std::lock_guard lock(opt_.contexts_mutex_);
      if (!opt_.free_contexts_.empty()) {
        context_ = std::move(opt_.free_contexts_.back());
        opt_.free_contexts_.pop_back();
      }
    }
    // Construct outside the lock: cloning the graph is the expensive part
    // (the engine binds to the prototype's compiled model where it has
    // one, and rebuilds its preprocessing otherwise), and serializing it
    // would stall every worker's first probe. Concurrent construction
    // only reads opt_.graph_ and the prototype engine.
    if (context_ == nullptr)
      context_ =
          std::make_unique<ProbeContext>(opt_.graph_, *opt_.engine_);
  }
  ~ContextLease() {
    std::lock_guard lock(opt_.contexts_mutex_);
    opt_.free_contexts_.push_back(std::move(context_));
  }

  ProbeContext& operator*() { return *context_; }
  ProbeContext* operator->() { return context_.get(); }

 private:
  WordlengthOptimizer& opt_;
  std::unique_ptr<ProbeContext> context_;
};

WordlengthOptimizer::WordlengthOptimizer(sfg::Graph& g,
                                         std::vector<sfg::NodeId> variables,
                                         OptimizerConfig cfg)
    : graph_(g),
      variables_(std::move(variables)),
      cfg_(cfg),
      engine_([&] {
        core::EngineOptions opts = cfg.engine_opts;
        opts.n_psd = cfg.n_psd;  // the one resolution knob drivers set
        return core::make_engine(cfg.engine, g, opts);
      }()),
      owned_pool_(cfg.pool != nullptr
                      ? nullptr
                      : std::make_unique<runtime::ThreadPool>(cfg.workers)),
      pool_(cfg.pool != nullptr ? cfg.pool : owned_pool_.get()) {
  PSDACC_EXPECTS(!variables_.empty());
  PSDACC_EXPECTS(cfg_.min_bits >= 1 && cfg_.min_bits <= cfg_.max_bits);
  PSDACC_EXPECTS(cfg_.cost_weights.empty() ||
                 cfg_.cost_weights.size() == variables_.size());
  delta_probes_ = cfg_.incremental && engine_->capabilities().delta;
  // Before any probe context clones the graph: integer bits sized here are
  // inherited by every clone, so probes only ever vary fractional bits.
  ensure_integer_bits();
}

WordlengthOptimizer::~WordlengthOptimizer() = default;

double WordlengthOptimizer::weight(std::size_t v) const {
  return cfg_.cost_weights.empty() ? 1.0 : cfg_.cost_weights[v];
}

void WordlengthOptimizer::ensure_integer_bits() {
  if (!cfg_.input_range.has_value()) return;
  if (ranges_topology_ == graph_.topology_revision()) return;
  // One range-analysis pass per topology: the bounds depend only on the
  // structure and coefficients, never on the fractional bits the search
  // sweeps, so repeated evaluate()/apply() calls stay cache-warm.
  const auto ranges = core::analyze_ranges(graph_, *cfg_.input_range);
  for (const sfg::NodeId id : variables_) {
    const int integer_bits = core::required_integer_bits(ranges[id]);
    const sfg::NodeView node = graph_.node(id);
    if (const auto* q = std::get_if<sfg::QuantizerNode>(&node.payload)) {
      if (q->format.integer_bits != integer_bits) {
        auto format = q->format;
        format.integer_bits = integer_bits;
        graph_.set_format(id, format);
      }
    } else {
      const auto* b = std::get_if<sfg::BlockNode>(&node.payload);
      PSDACC_EXPECTS(b != nullptr && b->output_format.has_value());
      if (b->output_format->integer_bits != integer_bits) {
        auto format = *b->output_format;
        format.integer_bits = integer_bits;
        graph_.set_format(id, format);
      }
    }
  }
  ranges_topology_ = graph_.topology_revision();
}

void WordlengthOptimizer::apply(const std::vector<int>& bits) {
  PSDACC_EXPECTS(bits.size() == variables_.size());
  ensure_integer_bits();
  for (std::size_t v = 0; v < variables_.size(); ++v)
    set_bits(graph_, variables_[v], bits[v]);
}

double WordlengthOptimizer::evaluate() {
  ensure_integer_bits();
  ++evaluations_;
  return engine_->output_noise_power();
}

core::AccuracyEngine::EvalCounters WordlengthOptimizer::probe_counters()
    const {
  std::lock_guard lock(contexts_mutex_);
  core::AccuracyEngine::EvalCounters total = engine_->eval_counters();
  for (const auto& context : free_contexts_) {
    const auto& c = context->engine->eval_counters();
    total.full += c.full;
    total.cached += c.cached;
    total.delta += c.delta;
  }
  return total;
}

void WordlengthOptimizer::stamp(ProbeContext& context,
                                const std::vector<int>& bits,
                                std::optional<Candidate> change) const {
  // An unknown context goes through set_bits for every variable: set_bits
  // also replaces caller-supplied quantizer moments on first touch.
  const bool known = !context.stamped.empty();
  context.stamped.resize(variables_.size());
  for (std::size_t u = 0; u < variables_.size(); ++u) {
    const int target = change && change->v == u ? change->bits : bits[u];
    if (known && context.stamped[u] == target) continue;
    set_bits(context.graph, variables_[u], target);
    context.stamped[u] = target;
  }
}

double WordlengthOptimizer::probe(const std::vector<int>& bits,
                                  std::size_t v, int candidate_bits) {
  ContextLease context(*this);
  // Stamp the full assignment: a recycled context carries whatever the
  // previous probe left behind, so the probe result depends only on its
  // arguments — never on scheduling. Only variables whose recorded bits
  // differ are written, so within one search iteration a recycled
  // context's revision counters move only where the assignment really
  // differs, and a probe costs O(variables) compares, not set_bits calls.
  if (delta_probes_) {
    // Delta path: hold the context at the iteration's baseline and probe
    // the candidate hypothetically — the engine re-derives one source's
    // contribution and combines the rest from its cache.
    stamp(*context, bits);
    return context->engine->evaluate_delta(
        variables_[v],
        candidate_format(context->graph, variables_[v], candidate_bits));
  }
  stamp(*context, bits, Candidate{v, candidate_bits});
  return context->engine->output_noise_power();
}

void WordlengthOptimizer::probe_round(
    std::size_t n, const std::function<void(std::size_t)>& body) {
  if (delta_probes_) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  pool_->parallel_for(0, n, body);
}

bool WordlengthOptimizer::cancel_requested() const {
  return cfg_.cancel_check && cfg_.cancel_check();
}

double WordlengthOptimizer::cost_of(const std::vector<int>& bits) const {
  PSDACC_EXPECTS(bits.size() == variables_.size());
  double cost = 0.0;
  for (std::size_t v = 0; v < bits.size(); ++v) cost += weight(v) * bits[v];
  return cost;
}

std::vector<double> WordlengthOptimizer::probe_candidates(
    const std::vector<int>& baseline,
    const std::vector<Candidate>& candidates) {
  PSDACC_EXPECTS(baseline.size() == variables_.size());
  ensure_integer_bits();
  std::vector<double> noise(candidates.size());
  probe_round(candidates.size(), [&](std::size_t i) {
    noise[i] = probe(baseline, candidates[i].v, candidates[i].bits);
  });
  evaluations_ += candidates.size();
  return noise;
}

double WordlengthOptimizer::probe_assignment(const std::vector<int>& bits) {
  PSDACC_EXPECTS(bits.size() == variables_.size());
  ensure_integer_bits();
  ContextLease context(*this);
  stamp(*context, bits);
  ++evaluations_;
  return context->engine->output_noise_power();
}

OptimizerResult WordlengthOptimizer::cancelled_package(
    std::vector<int> bits) {
  OptimizerResult r = package(std::move(bits));
  r.cancelled = true;
  return r;
}

OptimizerResult WordlengthOptimizer::package(std::vector<int> bits) {
  apply(bits);
  OptimizerResult r;
  r.noise = evaluate();
  r.bits = std::move(bits);
  r.cost = 0.0;
  for (std::size_t v = 0; v < r.bits.size(); ++v)
    r.cost += weight(v) * r.bits[v];
  r.evaluations = evaluations_;
  r.feasible = r.noise <= cfg_.noise_budget;
  return r;
}

OptimizerResult WordlengthOptimizer::uniform() {
  for (int d = cfg_.min_bits; d <= cfg_.max_bits; ++d) {
    std::vector<int> bits(variables_.size(), d);
    if (cancel_requested()) return cancelled_package(std::move(bits));
    apply(bits);
    if (evaluate() <= cfg_.noise_budget) return package(std::move(bits));
  }
  return package(std::vector<int>(variables_.size(), cfg_.max_bits));
}

OptimizerResult WordlengthOptimizer::greedy_descent() {
  std::vector<int> bits(variables_.size(), cfg_.max_bits);
  apply(bits);
  double current = evaluate();
  if (current > cfg_.noise_budget)
    return package(std::move(bits));  // infeasible even at max
  std::vector<double> probe_noise(variables_.size());
  for (;;) {
    // Between rounds is the cancellation point: the bits vector holds the
    // best feasible assignment found so far — exactly the partial state a
    // timed-out server job should report.
    if (cancel_requested()) return cancelled_package(std::move(bits));
    // Score every candidate single-bit removal (concurrently on full
    // rounds); each probe runs on an isolated context, so the scores match
    // the serial sweep bit for bit.
    probe_round(variables_.size(), [&](std::size_t v) {
      if (bits[v] <= cfg_.min_bits) return;
      probe_noise[v] = probe(bits, v, bits[v] - 1);
    });
    // Candidacy is decided by the bit bounds (the same guard the probe
    // loop used), never by the probe value: entries for non-candidates are
    // stale and must not be read.
    for (std::size_t v = 0; v < variables_.size(); ++v)
      if (bits[v] > cfg_.min_bits) ++evaluations_;

    // Deterministic selection: fixed variable order, same tie-breaking as
    // the serial loop (strictly-better score wins).
    std::size_t best = variables_.size();
    double best_score = 0.0;
    double best_noise = current;
    for (std::size_t v = 0; v < variables_.size(); ++v) {
      if (bits[v] <= cfg_.min_bits) continue;
      const double noise = probe_noise[v];
      // Negated form so a NaN probe is rejected, as in the serial loop's
      // `if (noise <= budget)`.
      if (!(noise <= cfg_.noise_budget)) continue;
      // Prefer the cheapest noise increase per unit cost saved: score on
      // the *marginal* increase over the current noise, not the absolute
      // level — the absolute level is dominated by the shared noise floor
      // and would rank candidates purely by weight.
      const double marginal = std::max(noise - current, 0.0);
      const double score = weight(v) / std::max(marginal, 1e-300);
      if (best == variables_.size() || score > best_score) {
        best = v;
        best_score = score;
        best_noise = noise;
      }
    }
    if (best == variables_.size()) break;
    --bits[best];
    current = best_noise;
  }
  return package(std::move(bits));
}

OptimizerResult WordlengthOptimizer::min_plus_one() {
  // Per-variable lower bound: the fewest bits for variable v with all
  // others at max (the standard "minimum word-length" initialization).
  // Each variable's scan is independent of the others, so full rounds run
  // them concurrently; the evaluation counts are summed in variable order.
  const std::vector<int> all_max(variables_.size(), cfg_.max_bits);
  std::vector<int> lower(variables_.size(), cfg_.min_bits);
  if (cancel_requested()) return cancelled_package(std::move(lower));
  std::vector<std::size_t> scan_evals(variables_.size(), 0);
  probe_round(variables_.size(), [&](std::size_t v) {
    for (int d = cfg_.min_bits; d <= cfg_.max_bits; ++d) {
      ++scan_evals[v];
      if (probe(all_max, v, d) <= cfg_.noise_budget) {
        lower[v] = d;
        return;
      }
      lower[v] = cfg_.max_bits;
    }
  });
  for (std::size_t v = 0; v < variables_.size(); ++v)
    evaluations_ += scan_evals[v];

  // Start from the (usually infeasible) lower bounds and add the most
  // effective bit until feasible.
  std::vector<int> bits = lower;
  apply(bits);
  double noise = evaluate();
  std::vector<double> probe_noise(variables_.size());
  while (noise > cfg_.noise_budget) {
    if (cancel_requested()) return cancelled_package(std::move(bits));
    probe_round(variables_.size(), [&](std::size_t v) {
      if (bits[v] >= cfg_.max_bits) return;
      probe_noise[v] = probe(bits, v, bits[v] + 1);
    });
    std::size_t best = variables_.size();
    double best_gain = 0.0;
    for (std::size_t v = 0; v < variables_.size(); ++v) {
      if (bits[v] >= cfg_.max_bits) continue;  // saturated, not probed
      ++evaluations_;
      const double gain = (noise - probe_noise[v]) / weight(v);
      if (best == variables_.size() || gain > best_gain) {
        best = v;
        best_gain = gain;
      }
    }
    if (best == variables_.size()) break;  // everything saturated
    ++bits[best];
    noise = probe_noise[best];  // the accepted probe already measured this
  }
  return package(std::move(bits));
}

}  // namespace psdacc::opt
