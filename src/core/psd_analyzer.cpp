#include "core/psd_analyzer.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "support/assert.hpp"

namespace psdacc::core {

std::shared_ptr<const PsdAnalyzer::Model> PsdAnalyzer::compile(
    const sfg::Graph& g, PsdOptions opts) {
  PSDACC_EXPECTS(opts.n_psd >= 2);
  PSDACC_EXPECTS(!g.has_cycles());
  g.validate();
  auto m = std::make_shared<Model>();
  m->opts = opts;
  m->order = g.topological_order();
  m->topo_pos.resize(g.node_count());
  for (std::size_t pos = 0; pos < m->order.size(); ++pos)
    m->topo_pos[m->order[pos]] = pos;
  m->topology_at_build = g.topology_revision();
  m->delta_supported = true;
  for (sfg::NodeId id = 0; id < g.node_count(); ++id)
    if (std::holds_alternative<sfg::UpsampleNode>(g.node(id).payload))
      m->delta_supported = false;  // see supports_delta() for why
  m->tables.resize(g.node_count());
  for (sfg::NodeId id = 0; id < g.node_count(); ++id) {
    const auto* block = std::get_if<sfg::BlockNode>(&g.node(id).payload);
    if (block == nullptr) continue;
    BlockTables& t = m->tables[id];
    t.signal_power = block->tf.power_response_grid(opts.n_psd);
    t.signal_dc = block->tf.dc_gain();
    if (block->output_format.has_value() && !block->tf.is_fir()) {
      // Quantization inside the recursion is shaped by 1/A(z).
      const filt::TransferFunction ntf(std::vector<double>{1.0},
                                       block->tf.denominator());
      t.noise_power = ntf.power_response_grid(opts.n_psd);
      t.noise_dc = ntf.dc_gain();
    } else if (block->output_format.has_value()) {
      t.noise_power.assign(opts.n_psd, 1.0);
      t.noise_dc = 1.0;
    }
  }
  return m;
}

PsdAnalyzer::PsdAnalyzer(const sfg::Graph& g, PsdOptions opts)
    : PsdAnalyzer(g, compile(g, opts)) {}

PsdAnalyzer::PsdAnalyzer(const sfg::Graph& g,
                         std::shared_ptr<const Model> model)
    : graph_(g),
      model_(std::move(model)),
      scratch_(model_->opts.n_psd),
      zero_(model_->opts.n_psd) {
  // Revision counters are per graph, so this refuses any graph that was
  // not copied from the compiled one (or has been edited structurally
  // since) unless its counters coincide; binding an unrelated graph with
  // equal counters is a contract violation it cannot see.
  if (g.node_count() != model_->tables.size() ||
      g.topology_revision() != model_->topology_at_build)
    throw std::invalid_argument(
        "psd model was compiled for a different topology; bind it only to "
        "copies of the graph it was compiled from");
}

void PsdAnalyzer::evaluate_into(std::vector<NoiseSpectrum>& spectra) const {
  const std::size_t n_psd = model_->opts.n_psd;
  if (spectra.size() != graph_.node_count())
    spectra.resize(graph_.node_count(), NoiseSpectrum(n_psd));
  for (auto& s : spectra) s.reset(n_psd);
  if (&spectra == &workspace_) workspace_dirty_all_ = true;
  for (sfg::NodeId id : model_->order) {
    const sfg::NodeView node = graph_.node(id);
    NoiseSpectrum& out = spectra[id];
    struct Visitor {
      const PsdAnalyzer& self;
      sfg::NodeView node;
      sfg::NodeId id;
      std::vector<NoiseSpectrum>& spectra;
      NoiseSpectrum& out;

      const NoiseSpectrum& in(std::size_t port = 0) const {
        return spectra[node.inputs[port]];
      }

      void operator()(const sfg::InputNode&) const {
        // Inputs are noise-free; input quantization is modelled with an
        // explicit QuantizerNode.
      }
      void operator()(const sfg::OutputNode&) const { out = in(); }
      void operator()(const sfg::BlockNode& block) const {
        const auto& t = self.model_->tables[id];
        out = in();
        out.apply_power_response(t.signal_power, t.signal_dc);
        if (block.output_format.has_value()) {
          const auto moments =
              fxp::continuous_quantization_noise(*block.output_format);
          NoiseSpectrum& own = self.scratch_;
          own.reset(self.model_->opts.n_psd);
          own.add_white(moments);
          own.apply_power_response(t.noise_power, t.noise_dc);
          out.add_uncorrelated(own);
        }
      }
      void operator()(const sfg::GainNode& gain) const {
        out = in();
        out.apply_gain(gain.gain);
      }
      void operator()(const sfg::DelayNode&) const {
        out = in();  // |z^-k| == 1: PSD and mean unchanged
      }
      void operator()(const sfg::AdderNode& adder) const {
        for (std::size_t p = 0; p < node.inputs.size(); ++p)
          out.add_uncorrelated(in(p), adder.signs[p]);  // Eq. 14
      }
      void operator()(const sfg::DownsampleNode& d) const {
        out = in();
        out.decimate(d.factor, self.model_->opts.interp);
      }
      void operator()(const sfg::UpsampleNode& u) const {
        out = in();
        out.expand(u.factor);
      }
      void operator()(const sfg::QuantizerNode& q) const {
        out = in();
        out.add_white(q.moments);
      }
    };
    std::visit(Visitor{*this, node, id, spectra, out}, node.payload);
  }
}

std::vector<NoiseSpectrum> PsdAnalyzer::evaluate() const {
  std::vector<NoiseSpectrum> spectra;
  evaluate_into(spectra);
  return spectra;
}

NoiseSpectrum PsdAnalyzer::output_spectrum() const {
  const auto& outputs = graph_.outputs();
  PSDACC_EXPECTS(outputs.size() == 1);
  evaluate_into(workspace_);
  return workspace_[outputs[0]];
}

double PsdAnalyzer::output_noise_power() const {
  const auto& outputs = graph_.outputs();
  PSDACC_EXPECTS(outputs.size() == 1);
  evaluate_into(workspace_);
  return workspace_[outputs[0]].power();
}

// Propagates a unit injection (mean 1, variance 1; blocks shape it through
// their noise transfer table first, exactly as evaluate_into injects own
// noise) from the source to the output, along the signal path only — no
// other source injects. Restricted to the downstream cone: only its
// members are swept (in topological order), only spectra the previous
// sweep touched are re-zeroed, and out-of-cone adder operands read a
// shared zero spectrum — O(|cone|) work, not O(|graph|). The resulting
// scalars are format-independent; the shared SourceTermCache decides when
// they must be re-derived.
UnitResponse PsdAnalyzer::unit_response(sfg::NodeId source) const {
  const sfg::ConeView cone = graph_.downstream_cone(source);

  const std::size_t n_psd = model_->opts.n_psd;
  if (workspace_.size() != graph_.node_count()) {
    workspace_.resize(graph_.node_count(), NoiseSpectrum(n_psd));
    workspace_dirty_all_ = true;
  }
  if (workspace_dirty_all_) {
    for (auto& s : workspace_) s.reset(n_psd);
    workspace_dirty_all_ = false;
  } else {
    for (sfg::NodeId id : unit_touched_) workspace_[id].reset(n_psd);
  }
  unit_touched_.assign(cone.begin(), cone.end());
  const std::vector<std::size_t>& topo_pos = model_->topo_pos;
  std::sort(unit_touched_.begin(), unit_touched_.end(),
            [&topo_pos](sfg::NodeId a, sfg::NodeId b) {
              return topo_pos[a] < topo_pos[b];
            });

  NoiseSpectrum& injected = workspace_[source];
  injected.add_white(fxp::NoiseMoments{1.0, 1.0});
  if (std::holds_alternative<sfg::BlockNode>(graph_.node(source).payload)) {
    const auto& t = model_->tables[source];
    PSDACC_EXPECTS(!t.noise_power.empty());
    injected.apply_power_response(t.noise_power, t.noise_dc);
  }

  for (sfg::NodeId id : unit_touched_) {
    if (id == source) continue;
    const sfg::NodeView node = graph_.node(id);
    NoiseSpectrum& out = workspace_[id];
    struct Visitor {
      const PsdAnalyzer& self;
      const sfg::ConeView& cone;
      sfg::NodeView node;
      sfg::NodeId id;
      NoiseSpectrum& out;

      const NoiseSpectrum& in(std::size_t port = 0) const {
        const sfg::NodeId src = node.inputs[port];
        return cone.contains(src) ? self.workspace_[src] : self.zero_;
      }

      void operator()(const sfg::InputNode&) const {}
      void operator()(const sfg::OutputNode&) const { out = in(); }
      void operator()(const sfg::BlockNode&) const {
        // Signal transfer only: this block's own noise belongs to its own
        // SourceTerm, never to another source's response.
        const auto& t = self.model_->tables[id];
        out = in();
        out.apply_power_response(t.signal_power, t.signal_dc);
      }
      void operator()(const sfg::GainNode& gain) const {
        out = in();
        out.apply_gain(gain.gain);
      }
      void operator()(const sfg::DelayNode&) const { out = in(); }
      void operator()(const sfg::AdderNode& adder) const {
        for (std::size_t p = 0; p < node.inputs.size(); ++p)
          out.add_uncorrelated(in(p), adder.signs[p]);
      }
      void operator()(const sfg::DownsampleNode& d) const {
        out = in();
        out.decimate(d.factor, self.model_->opts.interp);
      }
      void operator()(const sfg::UpsampleNode&) const {
        PSDACC_EXPECTS(false && "delta path is gated off for upsamplers");
      }
      void operator()(const sfg::QuantizerNode&) const { out = in(); }
    };
    std::visit(Visitor{*this, cone, node, id, out}, node.payload);
  }

  const auto& outputs = graph_.outputs();
  PSDACC_EXPECTS(outputs.size() == 1);
  // A source that never reaches the output leaves an all-zero response.
  const sfg::NodeId out_id = outputs[0];
  if (!cone.contains(out_id)) return UnitResponse{};
  return UnitResponse{.power = workspace_[out_id].variance(),
                      .dc = workspace_[out_id].mean()};
}

double PsdAnalyzer::output_noise_power_delta(
    sfg::NodeId v, const fxp::FixedPointFormat& format) const {
  PSDACC_EXPECTS(model_->delta_supported);
  return delta_terms_.power_delta(
      graph_, model_->topology_at_build, v, format,
      [this](sfg::NodeId source) { return unit_response(source); });
}

}  // namespace psdacc::core
