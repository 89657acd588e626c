/// @file protocol.hpp
/// The psdacc-serve wire protocol: length-prefixed frames whose payloads
/// are text — either a serialized scenario document (job submissions, so
/// the golden corpus doubles as a request corpus) or flat `key=value`
/// lines (results, errors, progress, stats).
///
/// ## Frame grammar
///
///     frame   := tag len payload
///     tag     := 4 ASCII bytes (frame type, e.g. "EVAL")
///     len     := u32 little-endian payload byte count (<= kMaxFramePayload)
///     payload := len bytes
///
/// An oversized len or an unknown tag is a protocol error: the server
/// replies with one ERRF frame (code=PROTOCOL) and closes. A connection
/// that ends mid-frame is a truncated frame — dropped without reply.
///
/// ## Job payloads
///
/// Submission payloads are a sequence of optional header sections followed
/// by the scenario document (whose first line is the `psdacc-sfg v1`
/// version header):
///
///     job {
///       timeout_ms=500
///     }
///     optimizer {
///       strategy=greedy
///       noise_budget=1e-06
///       ...
///     }
///     psdacc-sfg v1
///     graph { ... }
///
/// Unknown section keys are skipped (the serializer's forward-compat
/// rule); malformed values are a BAD_REQUEST error. See docs/SERVING.md
/// for the full protocol description and the job lifecycle.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/accuracy_engine.hpp"
#include "serve/net.hpp"

namespace psdacc::serve {

/// Hard ceiling on one frame's payload. Large enough for a 10^5-node
/// serialized graph, small enough that a garbage length prefix cannot make
/// the server allocate gigabytes.
inline constexpr std::uint32_t kMaxFramePayload = 64u << 20;

enum class FrameType : std::uint32_t {
  // client -> server
  kSubmitEval,   ///< "EVAL": [job header +] scenario document
  kSubmitOpt,    ///< "OPTJ": [job header +] optimizer header + document
  kSubmitSweep,  ///< "PARJ": [job header +] sweep header + document
  kStatsQuery,   ///< "STAT": empty payload
  // server -> client
  kResult,      ///< "RSLT": key=value result lines
  kProgress,    ///< "PROG": key=value lines, one frame per optimizer step
  kError,       ///< "ERRF": key=value lines (code, message, ...)
  kStatsReply,  ///< "STTS": key=value stats text
};

/// The frame's 4-byte wire tag as a host-order u32 (first byte lowest).
std::uint32_t frame_tag(FrameType type);
/// Inverse of frame_tag; empty on unknown tags.
std::optional<FrameType> parse_frame_tag(std::uint32_t tag);

struct Frame {
  FrameType type = FrameType::kError;
  std::string payload;
};

/// Wire encoding of one frame (tag + LE length + payload).
std::string encode_frame(FrameType type, std::string_view payload);
/// Writes one frame with one send; false when the peer is gone. PROG
/// frames go out with the more-to-come hint (Socket::write_all): a PROG
/// frame is never terminal, and the RSLT/ERRF that ends every job flushes
/// the held frames in its own segment.
bool write_frame(const Socket& sock, FrameType type,
                 std::string_view payload);

/// Outcome of reading one frame off a socket.
enum class ReadStatus {
  kOk,         ///< frame read into the out-param
  kClosed,     ///< clean EOF at a frame boundary
  kTruncated,  ///< EOF inside a frame header or payload
  kBadTag,     ///< unknown 4-byte tag
  kOversized,  ///< length prefix exceeds kMaxFramePayload
};
std::string_view to_string(ReadStatus status);

/// Blocking read of the next frame. On kBadTag/kOversized the header has
/// been consumed but the payload has not — the connection is unusable and
/// should be closed after an error reply.
ReadStatus read_frame(const Socket& sock, Frame& out);

// ---------------------------------------------------------------------------
// key=value payload text
// ---------------------------------------------------------------------------

/// Parses flat `key=value` lines (LF-separated; value is everything after
/// the first '='). Lines without '=' and empty lines are skipped.
std::vector<std::pair<std::string, std::string>> parse_kv_lines(
    std::string_view text);
/// First value for @p key, or @p fallback.
std::string_view kv_get(
    const std::vector<std::pair<std::string, std::string>>& kv,
    std::string_view key, std::string_view fallback = "");

/// Appends one `key=value` line. Doubles go through shortest round-trip
/// formatting, so a cached response replayed later is byte-identical to
/// the originally computed one.
void append_kv(std::string& out, std::string_view key,
               std::string_view value);
void append_kv(std::string& out, std::string_view key, double value);
void append_kv(std::string& out, std::string_view key, std::uint64_t value);

/// Stable machine-readable `code=` values carried by ERRF frames.
namespace error_code {
inline constexpr std::string_view kProtocol = "PROTOCOL";
inline constexpr std::string_view kParse = "PARSE";
inline constexpr std::string_view kBadRequest = "BAD_REQUEST";
/// The scenario parsed but cannot be evaluated (an unstable block).
inline constexpr std::string_view kInvalid = "INVALID";
inline constexpr std::string_view kRejectedBusy = "REJECTED_BUSY";
inline constexpr std::string_view kTimeout = "TIMEOUT";
inline constexpr std::string_view kUnsupported = "UNSUPPORTED";
inline constexpr std::string_view kInternal = "INTERNAL";
}  // namespace error_code

// ---------------------------------------------------------------------------
// Job envelope: the header sections in front of the scenario document
// ---------------------------------------------------------------------------

/// Optimizer job parameters (the `optimizer { ... }` header section).
struct OptimizerSpec {
  /// opt::search::known_strategy vocabulary:
  /// uniform | greedy | min_plus_one | anneal | tabu | bnb.
  std::string strategy = "greedy";
  double noise_budget = 1e-6;
  int min_bits = 2;
  int max_bits = 24;
  /// Spectral resolution for the probes; 0 = the scenario config's n_psd.
  std::size_t n_psd = 0;
  core::EngineKind engine = core::EngineKind::kPsd;
  /// Master RNG seed for the annealer; carried (and ignored) by the
  /// deterministic strategies. Emitted only when nonzero, so pinned
  /// pre-seed request bytes are unchanged.
  std::uint64_t seed = 0;
};

/// Pareto-sweep job parameters (the `sweep { ... }` header section of a
/// PARJ frame): one optimizer run per noise budget, dominance-filtered
/// into a front. An explicit `budgets=[...]` list overrides the
/// log-spaced ladder (`budget_lo`/`budget_hi`/`points`).
struct SweepSpec {
  std::string strategy = "greedy";  ///< same vocabulary as OptimizerSpec
  std::vector<double> budgets;      ///< explicit ladder; empty = log-spaced
  double budget_lo = 1e-10;
  double budget_hi = 1e-4;
  std::size_t points = 8;
  int min_bits = 2;
  int max_bits = 24;
  /// Spectral resolution for the probes; 0 = the scenario config's n_psd.
  std::size_t n_psd = 0;
  core::EngineKind engine = core::EngineKind::kPsd;
  std::uint64_t seed = 0;  ///< annealer master seed (see OptimizerSpec)
};

/// A submission payload split into its parts.
struct JobEnvelope {
  /// Requested wall-clock budget; zero means "server default".
  std::chrono::milliseconds timeout{0};
  OptimizerSpec optimizer;
  bool has_optimizer = false;
  SweepSpec sweep;
  bool has_sweep = false;
  /// The scenario document (everything from `psdacc-sfg` on), viewing into
  /// the payload passed to parse_envelope.
  std::string_view document;
};

/// Malformed envelope header (bad number, unterminated section, ...).
class EnvelopeError : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Splits a submission payload into header sections + document.
/// Unknown keys inside `job`/`optimizer` sections are skipped.
/// @throws EnvelopeError on malformed headers
JobEnvelope parse_envelope(std::string_view payload);

/// Client-side encoding: the header sections to prepend to a document.
/// Empty when nothing deviates from the defaults and @p optimizer is null.
std::string encode_envelope_prefix(std::chrono::milliseconds timeout,
                                   const OptimizerSpec* optimizer);
/// PARJ variant: job header (when a timeout is set) + sweep section.
std::string encode_envelope_prefix(std::chrono::milliseconds timeout,
                                   const SweepSpec& sweep);

/// The canonical `sweep { ... }` section text for @p spec — the exact
/// bytes encode_envelope_prefix emits and parse_envelope reads back, and
/// the server's sweep-cache key material (hashed together with the
/// scenario's content hash, so two PARJ submissions collide only when
/// both the sweep parameters and the evaluation are interchangeable).
std::string encode_sweep_section(const SweepSpec& spec);

}  // namespace psdacc::serve
