/// @file psd_analyzer.hpp
/// The proposed method (Section III of the paper): hierarchical propagation
/// of quantization-noise PSDs through an acyclic SFG.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/delta_terms.hpp"
#include "core/noise_spectrum.hpp"
#include "sfg/graph.hpp"

namespace psdacc::core {

/// Tuning knobs for PsdAnalyzer.
struct PsdOptions {
  /// Number of PSD bins (the paper's N_PSD); accuracy/cost trade-off.
  std::size_t n_psd = 1024;
  /// Interpolation for fractional bin indices in the multirate fold.
  NoiseSpectrum::Interp interp = NoiseSpectrum::Interp::kLinear;
};

/// Hierarchical PSD accuracy engine.
///
/// Split into the two stages the paper times separately:
///  * compile() ("preprocessing", tau_pp): samples every block's
///    magnitude-squared response and noise transfer function on the N_PSD
///    grid — O(N) per block coefficient, one-time — into an immutable
///    Model;
///  * evaluate() ("evaluation", tau_eval): one topological sweep applying
///    Eqs. 10, 11 and 14 plus the multirate rules — O(N) per node, repeated
///    for every word-length assignment being explored.
///
/// An analyzer is a graph bound to a shared Model plus its own evaluation
/// scratch (workspaces, the per-source delta cache). Binding another
/// graph of the same topology — a worker's clone — to an existing Model
/// costs O(1) and no grid work; that is how parallel drivers pay tau_pp
/// once per search instead of once per worker.
///
/// Thread-safety contract: one analyzer instance carries mutable probe
/// scratch and must be driven from one thread at a time. The Model is
/// immutable and may be shared by analyzers on any number of threads, so
/// distinct analyzers over distinct graphs are fully independent — the
/// parallel runtime (runtime::ThreadPool workloads, the optimizer's
/// concurrent probes) gives every worker its own graph clone + analyzer.
class PsdAnalyzer {
 public:
  /// Per-block grid tables of a Model.
  struct BlockTables {
    std::vector<double> signal_power;  ///< |B/A|^2 on the grid
    double signal_dc = 1.0;
    std::vector<double> noise_power;  ///< |1/A|^2 on the grid (if quantized)
    double noise_dc = 1.0;
  };

  /// Everything preprocessing derives from a graph's topology and block
  /// coefficients. Never mutated after compile(); shared read-only by
  /// every analyzer bound to it.
  struct Model {
    PsdOptions opts;
    std::vector<sfg::NodeId> order;       ///< topological order
    std::vector<std::size_t> topo_pos;    ///< NodeId -> position in order
    std::vector<BlockTables> tables;      ///< by NodeId (empty for most)
    bool delta_supported = false;         ///< see supports_delta()
    std::uint64_t topology_at_build = 0;  ///< Graph::topology_revision()
  };

  /// Preprocesses @p g (must be acyclic; run sfg::collapse_loops first)
  /// into a Model any graph of the same topology can be bound to.
  static std::shared_ptr<const Model> compile(const sfg::Graph& g,
                                              PsdOptions opts = {});

  /// Preprocesses the graph: `PsdAnalyzer(g, compile(g, opts))`.
  /// @param g    the system; must outlive the analyzer. Quantizer moments
  ///             may change between evaluate() calls but the topology and
  ///             block coefficients must not.
  /// @param opts PSD resolution and interpolation settings
  PsdAnalyzer(const sfg::Graph& g, PsdOptions opts = {});

  /// Binds @p g to an already compiled @p model: O(1), no grid work. @p g
  /// must have the topology and block coefficients the model was compiled
  /// from — in practice a copy of that graph (copies keep the revision
  /// counters), with any formats.
  /// @throws std::invalid_argument when @p g's node count or topology
  ///         revision differs from the model's
  PsdAnalyzer(const sfg::Graph& g, std::shared_ptr<const Model> model);

  /// The compiled model this analyzer evaluates with.
  const std::shared_ptr<const Model>& model() const { return model_; }

  /// Propagates noise spectra input -> outputs.
  /// @return one spectrum per node, indexed by NodeId
  std::vector<NoiseSpectrum> evaluate() const;

  /// Propagates into @p spectra, reusing its storage (resized/reset as
  /// needed). This is the allocation-free form the optimizer probes use.
  void evaluate_into(std::vector<NoiseSpectrum>& spectra) const;

  /// Convenience: spectrum at the single Output node (asserts exactly one).
  /// Evaluates into an internal workspace, so repeated probes allocate
  /// nothing after the first call.
  NoiseSpectrum output_spectrum() const;
  /// Convenience: total noise power at the single Output node.
  double output_noise_power() const;

  /// True when incremental (per-source decomposed) evaluation is exact for
  /// this graph. Hierarchical PSD propagation is linear in each source's
  /// (variance, mean) *except* through zero-stuffing expanders, whose
  /// folded image lines carry (mean/L)^2 of the *total* mean at the
  /// expander (NoiseSpectrum::expand) — quadratic, so per-source terms no
  /// longer add. Graphs with upsamplers therefore honestly report
  /// unsupported; downsamplers (linear PSD fold) are fine.
  bool supports_delta() const { return model_->delta_supported; }

  /// Incremental probe: total output noise power as if source @p v
  /// injected the continuous-PQN moments of @p format (the same moments a
  /// word-length assignment would install), every other node unchanged.
  /// The graph is not mutated. Exact up to floating-point reordering
  /// against mutate-then-output_noise_power().
  ///
  /// Cost: O(1) scalar work per call past the first (O(sources) for small
  /// graphs), after a lazily built per-source unit response — one sweep
  /// restricted to sfg::Graph::downstream_cone(v), touching O(|cone|)
  /// spectra rather than O(|graph|), cached until a propagation-affecting
  /// mutation (see core::SourceTermCache for the invalidation rules).
  /// Cached contributions re-derive only for sources whose node revision
  /// moved since the last call. Requires supports_delta().
  double output_noise_power_delta(sfg::NodeId v,
                                  const fxp::FixedPointFormat& format) const;

  const PsdOptions& options() const { return model_->opts; }

 private:
  UnitResponse unit_response(sfg::NodeId source) const;

  const sfg::Graph& graph_;
  std::shared_ptr<const Model> model_;
  // Reused by output_spectrum()/output_noise_power() and the block visitor
  // so per-probe evaluation is allocation-free (hence one analyzer may not
  // be shared across threads; clone the graph and bind one per worker).
  mutable std::vector<NoiseSpectrum> workspace_;
  mutable NoiseSpectrum scratch_;
  // Cone-restricted unit sweeps zero only what the previous sweep touched;
  // a full evaluate_into in between soils everything and sets the flag.
  mutable std::vector<sfg::NodeId> unit_touched_;
  mutable bool workspace_dirty_all_ = true;
  // Shared all-zero spectrum standing in for out-of-cone adder operands.
  NoiseSpectrum zero_;
  // Decomposed per-source delta-probe cache (lazy scratch, same
  // one-thread-at-a-time contract as the workspaces).
  mutable SourceTermCache delta_terms_;
};

}  // namespace psdacc::core
