#include "jobs.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <utility>
#include <variant>

#include "core/range_analysis.hpp"
#include "filters/fir_design.hpp"
#include "filters/iir_design.hpp"
#include "filters/transfer_function.hpp"
#include "fixedpoint/format.hpp"
#include "freqfilt/freq_filter.hpp"
#include "sfg/random_graph.hpp"
#include "sfg/serialize.hpp"
#include "sim/error_measurement.hpp"
#include "support/random.hpp"
#include "wavelet/dwt_sfg.hpp"

namespace perfbench {

using namespace psdacc;

namespace {

// Budgets are the graph's own psd noise with every source at this many
// fractional bits: the all-max start (kMaxBits) is always feasible, and a
// search has bits to remove or add on either side.
constexpr int kReferenceBits = 12;

// Monte-Carlo sample counts cycle through this ladder (2^16..2^18).
constexpr std::size_t kSampleLadder[] = {1u << 16, 1u << 17, 1u << 18};
// Monte-Carlo plan carried by served documents (whose engine list leaves
// simulation out, so it only shapes the content hash).
constexpr std::size_t kServeSimSamples = 1u << 14;

struct PaperSystem {
  std::string name;
  sfg::Graph graph;
  std::uint64_t sim_seed = 0;
};

// Streams of mix_seed(): one per generator, so workloads sharing a seed
// still draw independent graphs.
enum Stream : std::uint64_t {
  kDeltaStream = 1,
  kFullStream = 2,
  kMonteCarloStream = 3,
  kServeStream = 4,
};

// Splitmix64 step: the seed-derivation primitive.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t job_seed(std::uint64_t seed, Stream stream, std::size_t job) {
  return mix_seed(mix_seed(seed, stream), job);
}

sfg::Graph fig6_graph() {
  ff::FreqFilterConfig cfg;
  cfg.format = fxp::q_format(8, kReferenceBits);
  return ff::build_freqfilt_sfg(cfg);
}

sfg::Graph dwt_graph(std::size_t levels) {
  return wav::build_dwt1d_codec(
      {.levels = levels, .format = fxp::q_format(4, kReferenceBits)});
}

fxp::FixedPointFormat source_format(const sfg::Graph& g, sfg::NodeId id) {
  const auto& payload = g.node(id).payload;
  if (const auto* q = std::get_if<sfg::QuantizerNode>(&payload))
    return q->format;
  if (const auto* b = std::get_if<sfg::BlockNode>(&payload);
      b != nullptr && b->output_format)
    return *b->output_format;
  throw std::invalid_argument("not a noise source");
}

void set_fractional_bits(sfg::Graph& g, sfg::NodeId id, int frac_bits) {
  fxp::FixedPointFormat f = source_format(g, id);
  f.fractional_bits = frac_bits;
  g.set_format(id, f);
}

// Output noise power of @p g (psd engine, kNpsd bins).
double psd_noise(const sfg::Graph& g) {
  sim::EvaluationConfig cfg;
  cfg.n_psd = kNpsd;
  cfg.engines = {core::EngineKind::kPsd};
  return sim::evaluate_accuracy(g, cfg).power(core::EngineKind::kPsd);
}

// Every noise source at @p frac_bits fractional bits, with integer bits
// sized by worst-case range analysis of a full-scale input, so that no
// document overflows in simulation (the analytical engines assume it
// does not).
sfg::Graph uniform_design(sfg::Graph g, int frac_bits) {
  const std::vector<core::Range> ranges = core::analyze_ranges(g, {-1.0, 1.0});
  const std::vector<sfg::NodeId> sources = g.noise_sources();
  for (const sfg::NodeId id : sources) {
    fxp::FixedPointFormat f = source_format(g, id);
    f.integer_bits = core::required_integer_bits(ranges[id]);
    f.fractional_bits = frac_bits;
    g.set_format(id, f);
  }
  return g;
}

std::string graph_document(const sfg::Graph& g) {
  sfg::Scenario s;
  s.graph = g;
  s.config.n_psd = kNpsd;
  return sfg::serialize(s);
}

SearchJob search_job(std::string name, const sfg::Graph& system,
                     std::string strategy, std::uint64_t anneal_seed,
                     bool paper = false) {
  const sfg::Graph g = uniform_design(system, kReferenceBits);
  const double budget = psd_noise(g);
  return {std::move(name), graph_document(g), std::move(strategy), budget,
          anneal_seed, paper};
}

std::string eval_document(const sfg::Graph& g, std::size_t samples,
                          std::size_t shards, std::uint64_t sim_seed,
                          std::vector<core::EngineKind> engines) {
  sfg::Scenario s;
  s.graph = g;
  s.config.n_psd = kNpsd;
  s.config.sim_samples = samples;
  s.config.shards = shards;
  s.config.seed = sim_seed;
  s.config.engines = std::move(engines);
  return sfg::serialize(s);
}

// in -> Q -> quantized filter block -> out (the Table I system).
sfg::Graph filter_graph(const filt::TransferFunction& tf) {
  sfg::Graph g;
  const auto in = g.add_input();
  const auto q = g.add_quantizer(in, fxp::q_format(4, kReferenceBits));
  g.add_output(g.add_block(q, tf, fxp::q_format(4, kReferenceBits)));
  return g;
}

// Candidates drawn per typical_graph() call.
constexpr std::size_t kCandidates = 8;
// Random SFGs per search job set.
constexpr std::size_t kDeltaJobs = 168;
constexpr std::size_t kFullJobs = 240;
constexpr std::size_t kCodecCopies = 4;

struct Shape {
  double sources = 0.0;
  double nodes = 0.0;
  double taps = 0.0;
};

bool has_upsampler(const sfg::Graph& g) {
  for (sfg::NodeId id = 0; id < g.node_count(); ++id)
    if (std::holds_alternative<sfg::UpsampleNode>(g.node(id).payload))
      return true;
  return false;
}

Shape shape_of(const sfg::Graph& g) {
  Shape s{static_cast<double>(g.noise_sources().size()),
          static_cast<double>(g.node_count()), 0.0};
  for (sfg::NodeId id = 0; id < g.node_count(); ++id)
    if (const auto* b = std::get_if<sfg::BlockNode>(&g.node(id).payload))
      s.taps += static_cast<double>(b->tf.numerator().size() +
                                    b->tf.denominator().size());
  return s;
}

// The random_graph draw (of kCandidates from @p seed) closest to the
// candidates' median shape: noise sources, nodes and filter taps. The
// seed still draws every structure and coefficient, but a job's size
// stays typical of its depth, so the work of a job set, and the metrics,
// do not swing with the seed. Multirate draws without an upsampler are
// skipped: the psd engine still takes delta probes on graphs that only
// downsample, and a multirate job must be off the delta path.
sfg::Graph typical_graph(std::uint64_t seed, int depth, bool multirate) {
  sfg::RandomGraphOptions o;
  o.depth = depth;
  o.multirate = multirate;
  std::vector<sfg::Graph> graphs;
  std::vector<Shape> shapes;
  for (std::size_t i = 0; graphs.size() < kCandidates; ++i) {
    sfg::Graph g = sfg::random_graph(mix_seed(seed, i), o);
    if (multirate && !has_upsampler(g)) continue;
    shapes.push_back(shape_of(g));
    graphs.push_back(std::move(g));
  }
  const auto median = [&shapes](double Shape::*field) {
    std::vector<double> v;
    for (const Shape& s : shapes) v.push_back(s.*field);
    std::nth_element(v.begin(), v.begin() + static_cast<long>(v.size() / 2),
                     v.end());
    return v[v.size() / 2];
  };
  const Shape mid{median(&Shape::sources), median(&Shape::nodes),
                  median(&Shape::taps)};
  std::size_t best = 0;
  double best_distance = 0.0;
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const double d = std::abs(shapes[i].sources - mid.sources) / mid.sources +
                     std::abs(shapes[i].nodes - mid.nodes) / mid.nodes +
                     std::abs(shapes[i].taps - mid.taps) / mid.taps;
    if (i == 0 || d < best_distance) {
      best = i;
      best_distance = d;
    }
  }
  return std::move(graphs[best]);
}

}  // namespace

std::vector<double> sweep_budgets(const SearchJob& job, std::size_t variant) {
  const double scale = 1.0 + 1e-4 * static_cast<double>(variant);
  return {0.25 * job.budget * scale, job.budget * scale,
          4.0 * job.budget * scale};
}

namespace {

// A search job set: @p count random SFGs whose depth and strategy cycle
// through their ladders, so that any prefix of the set mixes every size,
// with @p paper jobs spread evenly through it. Many distinct graphs keep
// the set's total work, and its mean cost, alike across seeds.
std::vector<SearchJob> search_set(std::uint64_t seed, Stream stream,
                                  std::span<const int> depths,
                                  bool multirate,
                                  std::span<const char* const> strategies,
                                  std::size_t count,
                                  std::vector<SearchJob> paper) {
  std::vector<SearchJob> jobs;
  const std::size_t stride = count / std::max<std::size_t>(paper.size(), 1);
  std::size_t next_paper = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (next_paper < paper.size() && i == next_paper * stride)
      jobs.push_back(std::move(paper[next_paper++]));
    const int depth = depths[i % depths.size()];
    const char* strategy =
        strategies[(i / depths.size()) % strategies.size()];
    const std::uint64_t s = job_seed(seed, stream, i);
    jobs.push_back(search_job(std::string(multirate ? "mrate" : "rand") +
                                  std::to_string(i) + "_d" +
                                  std::to_string(depth) + "_" + strategy,
                              typical_graph(s, depth, multirate), strategy,
                              mix_seed(s, 1)));
  }
  return jobs;
}

}  // namespace

// search_delta: random single-rate SFGs plus the fig6 frequency-filtering
// system under greedy, min_plus_one and anneal.
std::vector<SearchJob> make_search_delta_jobs(std::uint64_t seed) {
  static constexpr int kDepths[] = {16, 24, 32, 40, 48, 56, 64};
  static constexpr const char* kStrategies[] = {"greedy", "min_plus_one",
                                                "anneal"};
  std::vector<SearchJob> paper;
  for (const char* strategy : kStrategies)
    paper.push_back(search_job(std::string("fig6_") + strategy, fig6_graph(),
                               strategy, mix_seed(seed, kDeltaStream), true));
  return search_set(seed, kDeltaStream, kDepths, false, kStrategies,
                    kDeltaJobs, std::move(paper));
}

// search_full: random multirate SFGs plus the DWT codecs L1-L3, greedy
// and min_plus_one (the psd engine refuses delta probes on all of them).
// Two greedy jobs per min_plus_one one put the median job inside the
// greedy times rather than on the gap between the two strategies. The
// codec jobs appear kCodecCopies times per pass and the random graphs stay
// small, so the seed-independent codecs carry a fair share of the set's
// work. Many random graphs keep the median job alike across seeds: job
// times spread widely (5-200 ms), and the median of 120 of them moved by
// 20% between seeds.
std::vector<SearchJob> make_search_full_jobs(std::uint64_t seed) {
  static constexpr int kDepths[] = {6, 8};
  static constexpr const char* kStrategies[] = {"greedy", "greedy",
                                                "min_plus_one"};
  std::vector<SearchJob> paper;
  for (std::size_t copy = 0; copy < kCodecCopies; ++copy)
    for (std::size_t levels = 1; levels <= 3; ++levels)
      for (const char* strategy : {"greedy", "min_plus_one"})
        paper.push_back(search_job("dwt_L" + std::to_string(levels) + "_" +
                                       strategy,
                                   dwt_graph(levels), strategy, 0, true));
  return search_set(seed, kFullStream, kDepths, true, kStrategies,
                    kFullJobs, std::move(paper));
}

namespace {

// The paper's systems: Table-I FIR (16..128 taps) and IIR (order 2..10)
// filters, the DWT codecs L1-L3 and the frequency-filtering system.
// Word-lengths follow a fixed ladder (10..14 fractional bits); the seed
// draws response types, band edges and Monte-Carlo seeds.
std::vector<PaperSystem> paper_systems(std::uint64_t seed) {
  static constexpr std::size_t kFirTaps[] = {16, 32, 64, 96, 128};
  static constexpr int kIirOrders[] = {2, 4, 6, 8, 10};
  std::vector<PaperSystem> out;
  const auto add = [&out](std::string name, const sfg::Graph& g,
                          Xoshiro256& rng) {
    const int d = 10 + static_cast<int>(out.size() % 5);
    out.push_back({std::move(name), uniform_design(g, d), rng()});
  };
  std::size_t index = 0;
  for (const std::size_t taps : kFirTaps) {
    Xoshiro256 rng(mix_seed(seed, index++));
    const double lo = rng.uniform(0.06, 0.14);
    const double hi = rng.uniform(0.26, 0.36);
    const auto kind = rng.below(3);
    std::vector<double> b = kind == 0   ? filt::fir_lowpass(taps, hi)
                            : kind == 1 ? filt::fir_highpass(taps, lo)
                                        : filt::fir_bandpass(taps, lo, hi);
    add("fir_" + std::to_string(taps),
        filter_graph(filt::TransferFunction(std::move(b))), rng);
  }
  for (const int order : kIirOrders) {
    Xoshiro256 rng(mix_seed(seed, index++));
    const auto family = rng.below(2) == 0 ? filt::IirFamily::kButterworth
                                          : filt::IirFamily::kChebyshev1;
    const double lo = rng.uniform(0.10, 0.16);
    const double hi = lo + 0.18;
    const auto kind = rng.below(3);
    const filt::TransferFunction tf =
        kind == 0   ? filt::iir_lowpass(family, order, hi)
        : kind == 1 ? filt::iir_highpass(family, order, lo)
                    : filt::iir_bandpass(family, std::max(1, order / 2), lo,
                                         hi);
    add("iir_" + std::to_string(order), filter_graph(tf), rng);
  }
  for (std::size_t levels = 1; levels <= 3; ++levels) {
    Xoshiro256 rng(mix_seed(seed, index++));
    add("dwt_L" + std::to_string(levels), dwt_graph(levels), rng);
  }
  Xoshiro256 rng(mix_seed(seed, index++));
  add("freqfilt", fig6_graph(), rng);
  return out;
}

}  // namespace

std::vector<EvalJob> make_montecarlo_jobs(std::uint64_t seed,
                                          std::size_t shards) {
  const std::vector<core::EngineKind> engines(core::kAllEngineKinds.begin(),
                                              core::kAllEngineKinds.end());
  std::vector<EvalJob> jobs;
  for (PaperSystem& p : paper_systems(mix_seed(seed, kMonteCarloStream))) {
    // The frequency-filtering system sets ed_abs_max; the most samples
    // keep its Monte-Carlo error small.
    const std::size_t samples =
        p.name == "freqfilt"
            ? kSampleLadder[std::size(kSampleLadder) - 1]
            : kSampleLadder[jobs.size() % std::size(kSampleLadder)];
    jobs.push_back({std::move(p.name),
                    eval_document(p.graph, samples, shards, p.sim_seed,
                                  engines)});
  }
  return jobs;
}

// serve_mix: the repeated documents are the paper's systems (designs
// under repeated evaluation); misses, OPTJ and PARJ use small random SFGs
// (what a designer submits interactively). One schedule period of 20
// requests holds 6 hits, 9 misses, 3 OPTJ, 1 PARJ and 1 malformed
// document: the sub-millisecond hits and refusals stay below the median
// and the stalled multi-frame replies (a fifth of the requests) hold the
// 90th percentile, so neither percentile sits on the gap between two
// request classes.
ServeInputs make_serve_inputs(std::uint64_t seed) {
  constexpr std::size_t kBases = 64;
  constexpr std::size_t kUnique = 1024;  // > the server's 256-entry cache
  constexpr std::size_t kOptDocs = 48;
  const std::vector<core::EngineKind> engines = {
      core::EngineKind::kPsd, core::EngineKind::kMoment,
      core::EngineKind::kFlat};
  ServeInputs in;
  std::size_t index = 0;
  const auto small_graph = [&](int depth) {
    return uniform_design(
        typical_graph(job_seed(seed, kServeStream, index++), depth, false),
        kReferenceBits);
  };
  for (const PaperSystem& p : paper_systems(mix_seed(seed, kServeStream)))
    in.hot_eval.push_back(
        eval_document(p.graph, kServeSimSamples, 1, p.sim_seed, engines));
  std::vector<sfg::Graph> bases;
  // One depth for the miss documents keeps the miss latency, where the
  // median request sits, alike across seeds.
  for (std::size_t i = 0; i < kBases; ++i) bases.push_back(small_graph(8));
  Xoshiro256 rng(job_seed(seed, kServeStream, index++));
  for (std::size_t i = 0; i < kUnique; ++i) {
    sfg::Graph g = bases[i % kBases];
    const std::vector<sfg::NodeId> sources = g.noise_sources();
    for (const sfg::NodeId id : sources)
      set_fractional_bits(g, id, 8 + static_cast<int>(rng.below(10)));
    in.unique_eval.push_back(
        eval_document(g, kServeSimSamples, 1, i, engines));
  }
  for (std::size_t i = 0; i < kOptDocs; ++i)
    in.opt.push_back(search_job("opt_" + std::to_string(i),
                                small_graph(6 + 2 * static_cast<int>(i % 4)),
                                "greedy", 0));
  for (std::size_t i = 0; i < kBases; ++i)
    in.sweep.push_back(
        search_job("sweep_" + std::to_string(i), bases[i], "greedy", 0));
  // Malformed: a valid document whose last edge dangles (ParseError).
  for (std::size_t i = 0; i < 4; ++i) {
    std::string doc = in.hot_eval[i];
    const std::size_t pos = doc.rfind("in=[");
    doc.insert(pos + 4, "9999");
    in.malformed.push_back(std::move(doc));
  }
  in.schedule = {kEvalHit,  kEvalMiss, kEvalMiss, kOpt,     kEvalMiss,
                 kEvalHit,  kSweep,    kEvalHit,  kEvalMiss, kRefusal,
                 kEvalMiss, kOpt,      kEvalHit,  kEvalMiss, kEvalMiss,
                 kEvalHit,  kEvalMiss, kOpt,      kEvalMiss, kEvalHit};
  return in;
}

}  // namespace perfbench
