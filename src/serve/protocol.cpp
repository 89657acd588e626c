#include "serve/protocol.hpp"

#include <charconv>
#include <cstring>

#include "opt/search/strategies.hpp"

namespace psdacc::serve {
namespace {

constexpr std::uint32_t tag_of(char a, char b, char c, char d) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24;
}

constexpr std::uint32_t kTagEval = tag_of('E', 'V', 'A', 'L');
constexpr std::uint32_t kTagOpt = tag_of('O', 'P', 'T', 'J');
constexpr std::uint32_t kTagSweep = tag_of('P', 'A', 'R', 'J');
constexpr std::uint32_t kTagStat = tag_of('S', 'T', 'A', 'T');
constexpr std::uint32_t kTagResult = tag_of('R', 'S', 'L', 'T');
constexpr std::uint32_t kTagProgress = tag_of('P', 'R', 'O', 'G');
constexpr std::uint32_t kTagError = tag_of('E', 'R', 'R', 'F');
constexpr std::uint32_t kTagStats = tag_of('S', 'T', 'T', 'S');

void put_u32_le(char* out, std::uint32_t v) {
  out[0] = static_cast<char>(v & 0xff);
  out[1] = static_cast<char>((v >> 8) & 0xff);
  out[2] = static_cast<char>((v >> 16) & 0xff);
  out[3] = static_cast<char>((v >> 24) & 0xff);
}

std::uint32_t get_u32_le(const char* in) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(in[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(in[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(in[2]))
             << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(in[3])) << 24;
}

}  // namespace

std::uint32_t frame_tag(FrameType type) {
  switch (type) {
    case FrameType::kSubmitEval: return kTagEval;
    case FrameType::kSubmitOpt: return kTagOpt;
    case FrameType::kSubmitSweep: return kTagSweep;
    case FrameType::kStatsQuery: return kTagStat;
    case FrameType::kResult: return kTagResult;
    case FrameType::kProgress: return kTagProgress;
    case FrameType::kError: return kTagError;
    case FrameType::kStatsReply: return kTagStats;
  }
  return kTagError;
}

std::optional<FrameType> parse_frame_tag(std::uint32_t tag) {
  switch (tag) {
    case kTagEval: return FrameType::kSubmitEval;
    case kTagOpt: return FrameType::kSubmitOpt;
    case kTagSweep: return FrameType::kSubmitSweep;
    case kTagStat: return FrameType::kStatsQuery;
    case kTagResult: return FrameType::kResult;
    case kTagProgress: return FrameType::kProgress;
    case kTagError: return FrameType::kError;
    case kTagStats: return FrameType::kStatsReply;
    default: return std::nullopt;
  }
}

std::string encode_frame(FrameType type, std::string_view payload) {
  std::string out;
  out.resize(8 + payload.size());
  put_u32_le(out.data(), frame_tag(type));
  put_u32_le(out.data() + 4, static_cast<std::uint32_t>(payload.size()));
  std::memcpy(out.data() + 8, payload.data(), payload.size());
  return out;
}

bool write_frame(const Socket& sock, FrameType type,
                 std::string_view payload) {
  const std::string wire = encode_frame(type, payload);
  return sock.write_all(wire.data(), wire.size(),
                        /*more=*/type == FrameType::kProgress);
}

std::string_view to_string(ReadStatus status) {
  switch (status) {
    case ReadStatus::kOk: return "ok";
    case ReadStatus::kClosed: return "closed";
    case ReadStatus::kTruncated: return "truncated frame";
    case ReadStatus::kBadTag: return "unknown frame tag";
    case ReadStatus::kOversized: return "oversized frame length";
  }
  return "?";
}

ReadStatus read_frame(const Socket& sock, Frame& out) {
  char header[8];
  // First byte separately: EOF here is a clean close, EOF later is a
  // truncated frame — the distinction the robustness tests pin.
  const long first = sock.read_some(header, 1);
  if (first == 0) return ReadStatus::kClosed;
  if (first < 0) return ReadStatus::kTruncated;
  if (!sock.read_exact(header + 1, sizeof(header) - 1))
    return ReadStatus::kTruncated;
  const auto type = parse_frame_tag(get_u32_le(header));
  const std::uint32_t len = get_u32_le(header + 4);
  if (!type.has_value()) return ReadStatus::kBadTag;
  if (len > kMaxFramePayload) return ReadStatus::kOversized;
  out.type = *type;
  out.payload.resize(len);
  if (len > 0 && !sock.read_exact(out.payload.data(), len))
    return ReadStatus::kTruncated;
  return ReadStatus::kOk;
}

// ---------------------------------------------------------------------------
// key=value text
// ---------------------------------------------------------------------------

std::vector<std::pair<std::string, std::string>> parse_kv_lines(
    std::string_view text) {
  std::vector<std::pair<std::string, std::string>> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos || eq == 0) continue;
    out.emplace_back(std::string(line.substr(0, eq)),
                     std::string(line.substr(eq + 1)));
  }
  return out;
}

std::string_view kv_get(
    const std::vector<std::pair<std::string, std::string>>& kv,
    std::string_view key, std::string_view fallback) {
  for (const auto& [k, v] : kv)
    if (k == key) return v;
  return fallback;
}

void append_kv(std::string& out, std::string_view key,
               std::string_view value) {
  out.append(key);
  out.push_back('=');
  out.append(value);
  out.push_back('\n');
}

void append_kv(std::string& out, std::string_view key, double value) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  append_kv(out, key, std::string_view(buf, res.ptr));
}

void append_kv(std::string& out, std::string_view key, std::uint64_t value) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  append_kv(out, key, std::string_view(buf, res.ptr));
}

// ---------------------------------------------------------------------------
// Job envelope
// ---------------------------------------------------------------------------

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t'))
    s.remove_prefix(1);
  while (!s.empty() &&
         (s.back() == ' ' || s.back() == '\t' || s.back() == '\r'))
    s.remove_suffix(1);
  return s;
}

// Next line of `text` starting at `pos`; advances pos past the newline.
std::string_view next_line(std::string_view text, std::size_t& pos) {
  std::size_t end = text.find('\n', pos);
  if (end == std::string_view::npos) end = text.size();
  const std::string_view line = text.substr(pos, end - pos);
  pos = end < text.size() ? end + 1 : text.size();
  return line;
}

double parse_double_value(std::string_view key, std::string_view value) {
  double v = 0.0;
  const auto res =
      std::from_chars(value.data(), value.data() + value.size(), v);
  if (res.ec != std::errc{} || res.ptr != value.data() + value.size())
    throw EnvelopeError("bad numeric value for '" + std::string(key) +
                        "': '" + std::string(value) + "'");
  return v;
}

std::int64_t parse_int_value(std::string_view key, std::string_view value) {
  std::int64_t v = 0;
  const auto res =
      std::from_chars(value.data(), value.data() + value.size(), v);
  if (res.ec != std::errc{} || res.ptr != value.data() + value.size())
    throw EnvelopeError("bad integer value for '" + std::string(key) +
                        "': '" + std::string(value) + "'");
  return v;
}

std::uint64_t parse_u64_value(std::string_view key, std::string_view value) {
  std::uint64_t v = 0;
  const auto res =
      std::from_chars(value.data(), value.data() + value.size(), v);
  if (res.ec != std::errc{} || res.ptr != value.data() + value.size())
    throw EnvelopeError("bad unsigned value for '" + std::string(key) +
                        "': '" + std::string(value) + "'");
  return v;
}

// `[d d d]` — a bracketed, space-separated double list (the serializer's
// list idiom). An empty list `[]` is allowed.
std::vector<double> parse_double_list_value(std::string_view key,
                                            std::string_view value) {
  if (value.size() < 2 || value.front() != '[' || value.back() != ']')
    throw EnvelopeError("expected bracketed list for '" + std::string(key) +
                        "', got '" + std::string(value) + "'");
  std::vector<double> out;
  std::string_view body = value.substr(1, value.size() - 2);
  std::size_t pos = 0;
  while (pos < body.size()) {
    while (pos < body.size() && body[pos] == ' ') ++pos;
    if (pos >= body.size()) break;
    std::size_t end = body.find(' ', pos);
    if (end == std::string_view::npos) end = body.size();
    out.push_back(parse_double_value(key, body.substr(pos, end - pos)));
    pos = end;
  }
  return out;
}

std::string validated_strategy(std::string_view value) {
  std::string name(value);
  if (!opt::search::known_strategy(name))
    throw EnvelopeError("unknown optimizer strategy '" + name + "'");
  return name;
}

core::EngineKind validated_engine(std::string_view value) {
  const auto kind = core::parse_engine_kind(value);
  if (!kind.has_value())
    throw EnvelopeError("unknown engine '" + std::string(value) + "'");
  return *kind;
}

// Parses one `name {` ... `}` header section, dispatching each key=value
// line to `apply`. Unknown keys are skipped by the handlers themselves
// (forward compatibility, matching the serializer's rule).
template <class Apply>
void parse_section(std::string_view payload, std::size_t& pos,
                   std::string_view name, Apply&& apply) {
  for (;;) {
    if (pos >= payload.size())
      throw EnvelopeError("unterminated '" + std::string(name) +
                          "' section (missing '}')");
    const std::string_view line = trim(next_line(payload, pos));
    if (line == "}") return;
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos || eq == 0)
      throw EnvelopeError("expected key=value in '" + std::string(name) +
                          "' section, got '" + std::string(line) + "'");
    apply(trim(line.substr(0, eq)), trim(line.substr(eq + 1)));
  }
}

}  // namespace

JobEnvelope parse_envelope(std::string_view payload) {
  JobEnvelope env;
  std::size_t pos = 0;
  for (;;) {
    const std::size_t line_start = pos;
    if (pos >= payload.size()) break;
    const std::string_view line = trim(next_line(payload, pos));
    if (line.empty()) continue;
    if (line == "job {") {
      parse_section(payload, pos, "job",
                    [&](std::string_view key, std::string_view value) {
                      if (key == "timeout_ms")
                        env.timeout = std::chrono::milliseconds(
                            parse_int_value(key, value));
                    });
      continue;
    }
    if (line == "optimizer {") {
      env.has_optimizer = true;
      parse_section(
          payload, pos, "optimizer",
          [&](std::string_view key, std::string_view value) {
            OptimizerSpec& o = env.optimizer;
            if (key == "strategy") {
              o.strategy = validated_strategy(value);
            } else if (key == "noise_budget") {
              o.noise_budget = parse_double_value(key, value);
            } else if (key == "min_bits") {
              o.min_bits = static_cast<int>(parse_int_value(key, value));
            } else if (key == "max_bits") {
              o.max_bits = static_cast<int>(parse_int_value(key, value));
            } else if (key == "n_psd") {
              o.n_psd =
                  static_cast<std::size_t>(parse_int_value(key, value));
            } else if (key == "engine") {
              o.engine = validated_engine(value);
            } else if (key == "seed") {
              o.seed = parse_u64_value(key, value);
            }
          });
      continue;
    }
    if (line == "sweep {") {
      env.has_sweep = true;
      parse_section(
          payload, pos, "sweep",
          [&](std::string_view key, std::string_view value) {
            SweepSpec& s = env.sweep;
            if (key == "strategy") {
              s.strategy = validated_strategy(value);
            } else if (key == "budgets") {
              s.budgets = parse_double_list_value(key, value);
            } else if (key == "budget_lo") {
              s.budget_lo = parse_double_value(key, value);
            } else if (key == "budget_hi") {
              s.budget_hi = parse_double_value(key, value);
            } else if (key == "points") {
              s.points =
                  static_cast<std::size_t>(parse_int_value(key, value));
            } else if (key == "min_bits") {
              s.min_bits = static_cast<int>(parse_int_value(key, value));
            } else if (key == "max_bits") {
              s.max_bits = static_cast<int>(parse_int_value(key, value));
            } else if (key == "n_psd") {
              s.n_psd =
                  static_cast<std::size_t>(parse_int_value(key, value));
            } else if (key == "engine") {
              s.engine = validated_engine(value);
            } else if (key == "seed") {
              s.seed = parse_u64_value(key, value);
            }
          });
      continue;
    }
    // Not a header section: the document starts at this line.
    env.document = payload.substr(line_start);
    return env;
  }
  env.document = std::string_view();
  return env;
}

std::string encode_envelope_prefix(std::chrono::milliseconds timeout,
                                   const OptimizerSpec* optimizer) {
  std::string out;
  if (timeout.count() > 0) {
    out += "job {\n";
    out += "  ";
    append_kv(out, "timeout_ms",
              static_cast<std::uint64_t>(timeout.count()));
    out += "}\n";
  }
  if (optimizer != nullptr) {
    out += "optimizer {\n";
    const auto field = [&](std::string_view key, auto value) {
      out += "  ";
      append_kv(out, key, value);
    };
    field("strategy", std::string_view(optimizer->strategy));
    field("noise_budget", optimizer->noise_budget);
    field("min_bits", static_cast<std::uint64_t>(optimizer->min_bits));
    field("max_bits", static_cast<std::uint64_t>(optimizer->max_bits));
    if (optimizer->n_psd > 0)
      field("n_psd", static_cast<std::uint64_t>(optimizer->n_psd));
    field("engine", core::to_string(optimizer->engine));
    if (optimizer->seed != 0)
      field("seed", optimizer->seed);
    out += "}\n";
  }
  return out;
}

std::string encode_sweep_section(const SweepSpec& spec) {
  std::string out = "sweep {\n";
  const auto field = [&](std::string_view key, auto value) {
    out += "  ";
    append_kv(out, key, value);
  };
  field("strategy", std::string_view(spec.strategy));
  if (!spec.budgets.empty()) {
    std::string list = "[";
    for (std::size_t i = 0; i < spec.budgets.size(); ++i) {
      if (i > 0) list += ' ';
      char buf[64];
      const auto res =
          std::to_chars(buf, buf + sizeof(buf), spec.budgets[i]);
      list.append(buf, res.ptr);
    }
    list += ']';
    field("budgets", std::string_view(list));
  } else {
    field("budget_lo", spec.budget_lo);
    field("budget_hi", spec.budget_hi);
    field("points", static_cast<std::uint64_t>(spec.points));
  }
  field("min_bits", static_cast<std::uint64_t>(spec.min_bits));
  field("max_bits", static_cast<std::uint64_t>(spec.max_bits));
  if (spec.n_psd > 0)
    field("n_psd", static_cast<std::uint64_t>(spec.n_psd));
  field("engine", core::to_string(spec.engine));
  if (spec.seed != 0)
    field("seed", spec.seed);
  out += "}\n";
  return out;
}

std::string encode_envelope_prefix(std::chrono::milliseconds timeout,
                                   const SweepSpec& sweep) {
  std::string out;
  if (timeout.count() > 0) {
    out += "job {\n";
    out += "  ";
    append_kv(out, "timeout_ms",
              static_cast<std::uint64_t>(timeout.count()));
    out += "}\n";
  }
  out += encode_sweep_section(sweep);
  return out;
}

}  // namespace psdacc::serve
