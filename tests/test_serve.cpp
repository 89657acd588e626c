// Serving-layer tests: wire-protocol robustness (truncated frames,
// oversized length prefixes, unknown tags, malformed payloads), admission
// control and drain semantics of the JobQueue, ResultCache LRU behavior,
// latency histogram quantiles, socket options (TCP_NODELAY), and full
// end-to-end runs against a live in-process server — streamed PROG frame
// order, refusal of unstable scenarios, and the golden corpus submitted
// over a real socket and checked against its recorded expectations at
// 1e-9.
#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <gtest/gtest.h>

#include "serve/client.hpp"
#include "serve/job_queue.hpp"
#include "serve/protocol.hpp"
#include "serve/result_cache.hpp"
#include "serve/server.hpp"
#include "serve/stats.hpp"
#include "sfg/serialize.hpp"

#ifndef PSDACC_CORPUS_DIR
#error "PSDACC_CORPUS_DIR must point at the checked-in corpus"
#endif

namespace {

using namespace psdacc;
using namespace std::chrono_literals;

std::vector<std::string> corpus_files() {
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(PSDACC_CORPUS_DIR)) {
    if (entry.path().extension() == ".sfg")
      files.push_back(entry.path().string());
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// A small scenario document evaluated by the analytical engines in a few
// milliseconds — the standard payload for protocol-level tests.
std::string quick_document() {
  sfg::Graph g;
  const auto in = g.add_input("in");
  const auto q = g.add_quantizer(in, fxp::q_format(4, 12), "q");
  g.add_output(g.add_gain(q, 0.5, "g"));
  sim::EvaluationConfig cfg;
  cfg.n_psd = 64;
  cfg.engines = {core::EngineKind::kPsd, core::EngineKind::kFlat};
  return sfg::serialize(sfg::Scenario{std::move(g), std::move(cfg), {}, {}});
}

// A document whose evaluation takes hundreds of milliseconds (Monte-Carlo
// engines) — used to hold an executor busy or trip deadlines.
std::string slow_document(std::size_t engines = 2,
                          std::size_t samples = 1u << 18) {
  sfg::Graph g;
  const auto in = g.add_input("in");
  const auto q = g.add_quantizer(in, fxp::q_format(4, 12), "q");
  g.add_output(g.add_gain(q, 0.5, "g"));
  sim::EvaluationConfig cfg;
  cfg.n_psd = 64;
  cfg.sim_samples = samples;
  cfg.engines.assign(engines, core::EngineKind::kSimulation);
  return sfg::serialize(sfg::Scenario{std::move(g), std::move(cfg), {}, {}});
}

std::uint64_t stat_of(serve::Client& client, std::string_view key) {
  const auto kv = client.stats();
  return std::strtoull(std::string(serve::kv_get(kv, key, "0")).c_str(),
                       nullptr, 10);
}

// Sends one request frame on @p sock and reads every frame up to and
// including the terminal RSLT/ERRF, in arrival order.
std::vector<serve::Frame> exchange(const serve::Socket& sock,
                                   serve::FrameType type,
                                   const std::string& payload) {
  std::vector<serve::Frame> frames;
  if (!serve::write_frame(sock, type, payload)) return frames;
  for (;;) {
    serve::Frame frame;
    if (serve::read_frame(sock, frame) != serve::ReadStatus::kOk)
      return frames;
    frames.push_back(std::move(frame));
    if (frames.back().type != serve::FrameType::kProgress) return frames;
  }
}

// True when the next frame on @p sock answers a STAT query: nothing of the
// previous reply trails its terminal frame.
bool next_frame_answers_stats(const serve::Socket& sock) {
  const auto frames =
      exchange(sock, serve::FrameType::kStatsQuery, std::string());
  return frames.size() == 1 &&
         frames.front().type == serve::FrameType::kStatsReply;
}

// A block with a pole on the unit circle (an integrator) behind one
// quantizer: it parses, but has no finite power response.
std::string unit_circle_document() {
  return "psdacc-sfg v1\n"
         "graph {\n"
         "  node 0 input name=\"in\"\n"
         "  node 1 quant in=[0] format=sQ4.12/round/sat name=\"q\"\n"
         "  node 2 block in=[1] b=[1] a=[1 -1]\n"
         "  node 3 output in=[2] name=\"out\"\n"
         "}\n";
}

class ServeServerTest : public ::testing::Test {
 protected:
  void start(serve::ServerConfig cfg = {}) {
    cfg.port = 0;  // ephemeral
    server_ = std::make_unique<serve::Server>(cfg);
    server_->start();
  }
  serve::Client connect() { return serve::Client(server_->port()); }

  std::unique_ptr<serve::Server> server_;
};

// ---------------------------------------------------------------------------
// Frame encoding / kv primitives
// ---------------------------------------------------------------------------

TEST(ServeProtocol, FrameTagsRoundTrip) {
  for (const auto type :
       {serve::FrameType::kSubmitEval, serve::FrameType::kSubmitOpt,
        serve::FrameType::kStatsQuery, serve::FrameType::kResult,
        serve::FrameType::kProgress, serve::FrameType::kError,
        serve::FrameType::kStatsReply}) {
    const auto parsed = serve::parse_frame_tag(serve::frame_tag(type));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, type);
  }
  EXPECT_FALSE(serve::parse_frame_tag(0xdeadbeefu).has_value());
}

TEST(ServeProtocol, EncodeFrameLayout) {
  const std::string wire =
      serve::encode_frame(serve::FrameType::kSubmitEval, "abc");
  ASSERT_EQ(wire.size(), 11u);
  EXPECT_EQ(wire.substr(0, 4), "EVAL");
  EXPECT_EQ(static_cast<unsigned char>(wire[4]), 3u);  // LE length
  EXPECT_EQ(static_cast<unsigned char>(wire[7]), 0u);
  EXPECT_EQ(wire.substr(8), "abc");
}

TEST(ServeProtocol, KvLinesRoundTrip) {
  std::string text;
  serve::append_kv(text, "name", "value with = signs");
  serve::append_kv(text, "pi", 3.141592653589793);
  serve::append_kv(text, "count", std::uint64_t{42});
  const auto kv = serve::parse_kv_lines(text);
  EXPECT_EQ(serve::kv_get(kv, "name"), "value with = signs");
  EXPECT_EQ(std::strtod(std::string(serve::kv_get(kv, "pi")).c_str(),
                        nullptr),
            3.141592653589793);
  EXPECT_EQ(serve::kv_get(kv, "count"), "42");
  EXPECT_EQ(serve::kv_get(kv, "missing", "fallback"), "fallback");
}

TEST(ServeProtocol, EnvelopeRoundTrip) {
  serve::OptimizerSpec spec;
  spec.strategy = "min_plus_one";
  spec.noise_budget = 2.5e-7;
  spec.min_bits = 3;
  spec.max_bits = 18;
  spec.engine = core::EngineKind::kMoment;
  const std::string payload =
      serve::encode_envelope_prefix(750ms, &spec) + "psdacc-sfg v1\n";
  const auto env = serve::parse_envelope(payload);
  EXPECT_EQ(env.timeout, 750ms);
  ASSERT_TRUE(env.has_optimizer);
  EXPECT_EQ(env.optimizer.strategy, "min_plus_one");
  EXPECT_EQ(env.optimizer.noise_budget, 2.5e-7);
  EXPECT_EQ(env.optimizer.min_bits, 3);
  EXPECT_EQ(env.optimizer.max_bits, 18);
  EXPECT_EQ(env.optimizer.engine, core::EngineKind::kMoment);
  EXPECT_EQ(env.document, "psdacc-sfg v1\n");
}

TEST(ServeProtocol, EnvelopeRejectsMalformedHeaders) {
  EXPECT_THROW(serve::parse_envelope("job {\n  timeout_ms=abc\n}\ndoc"),
               serve::EnvelopeError);
  EXPECT_THROW(serve::parse_envelope("optimizer {\n  strategy=wat\n}\ndoc"),
               serve::EnvelopeError);
  EXPECT_THROW(serve::parse_envelope("job {\n  timeout_ms=5\n"),
               serve::EnvelopeError);  // unterminated section
  // Unknown keys are skipped (forward compatibility).
  const auto env = serve::parse_envelope(
      "job {\n  timeout_ms=5\n  shiny_new_knob=1\n}\npsdacc-sfg v1\n");
  EXPECT_EQ(env.timeout, 5ms);
}

// ---------------------------------------------------------------------------
// ResultCache
// ---------------------------------------------------------------------------

serve::ContentHash key_of(std::uint64_t n) {
  return serve::ContentHash{n, ~n};
}

TEST(ServeCache, LruEvictionAndCounters) {
  serve::ResultCache cache(2);
  EXPECT_FALSE(cache.lookup(key_of(1)).has_value());
  cache.insert(key_of(1), "one");
  cache.insert(key_of(2), "two");
  EXPECT_EQ(cache.lookup(key_of(1)).value(), "one");  // 1 is now MRU
  cache.insert(key_of(3), "three");                   // evicts 2
  EXPECT_FALSE(cache.lookup(key_of(2)).has_value());
  EXPECT_EQ(cache.lookup(key_of(1)).value(), "one");
  EXPECT_EQ(cache.lookup(key_of(3)).value(), "three");
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(ServeCache, OverwriteRefreshesEntry) {
  serve::ResultCache cache(2);
  cache.insert(key_of(1), "a");
  cache.insert(key_of(2), "b");
  cache.insert(key_of(1), "a2");  // refresh, 2 becomes LRU
  cache.insert(key_of(3), "c");   // evicts 2
  EXPECT_EQ(cache.lookup(key_of(1)).value(), "a2");
  EXPECT_FALSE(cache.lookup(key_of(2)).has_value());
}

TEST(ServeCache, ZeroCapacityDisables) {
  serve::ResultCache cache(0);
  cache.insert(key_of(1), "x");
  EXPECT_FALSE(cache.lookup(key_of(1)).has_value());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.misses(), 0u);  // disabled, not "always missing"
}

// ---------------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------------

TEST(ServeStats, HistogramQuantilesAreBucketUpperBounds) {
  serve::LatencyHistogram h;
  EXPECT_EQ(h.quantile_us(0.5), 0.0);  // empty
  for (int i = 0; i < 90; ++i) h.record_seconds(100e-6);  // bucket [64,128)
  for (int i = 0; i < 10; ++i) h.record_seconds(5000e-6);  // [4096,8192)
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.quantile_us(0.50), 128.0);
  EXPECT_EQ(h.quantile_us(0.95), 8192.0);
}

// ---------------------------------------------------------------------------
// JobQueue admission control and drain
// ---------------------------------------------------------------------------

TEST(ServeQueue, AdmissionControlShedsBeyondDepth) {
  serve::JobQueue queue(/*workers=*/1, /*max_depth=*/1);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  ASSERT_TRUE(queue.try_submit([gate] { gate.wait(); }));
  // Wait for the worker to pick the blocker up.
  for (int i = 0; i < 1000 && queue.running() == 0; ++i)
    std::this_thread::sleep_for(1ms);
  ASSERT_EQ(queue.running(), 1u);
  EXPECT_TRUE(queue.try_submit([] {}));   // fills the backlog
  EXPECT_FALSE(queue.try_submit([] {}));  // REJECTED_BUSY territory
  EXPECT_EQ(queue.depth(), 1u);
  release.set_value();
  queue.drain_and_stop();
  EXPECT_EQ(queue.depth(), 0u);
  EXPECT_FALSE(queue.try_submit([] {}));  // stopped queues admit nothing
}

TEST(ServeQueue, DepthZeroAdmitsOnlyWhatStartsNow) {
  serve::JobQueue queue(/*workers=*/1, /*max_depth=*/0);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  ASSERT_TRUE(queue.try_submit([gate] { gate.wait(); }));
  for (int i = 0; i < 1000 && queue.running() == 0; ++i)
    std::this_thread::sleep_for(1ms);
  EXPECT_FALSE(queue.try_submit([] {}));  // no backlog allowed
  release.set_value();
}

TEST(ServeQueue, DrainRunsEveryAdmittedJob) {
  std::atomic<int> ran{0};
  {
    serve::JobQueue queue(/*workers=*/2, /*max_depth=*/16);
    for (int i = 0; i < 10; ++i)
      ASSERT_TRUE(queue.try_submit([&ran] {
        std::this_thread::sleep_for(2ms);
        ++ran;
      }));
    queue.drain_and_stop();  // must complete all 10, not abandon the queue
  }
  EXPECT_EQ(ran.load(), 10);
}

TEST(ServeQueue, SurvivesThrowingJobs) {
  serve::JobQueue queue(/*workers=*/1, /*max_depth=*/4);
  ASSERT_TRUE(queue.try_submit([] { throw std::runtime_error("boom"); }));
  std::atomic<bool> ran{false};
  ASSERT_TRUE(queue.try_submit([&ran] { ran = true; }));
  queue.drain_and_stop();
  EXPECT_TRUE(ran.load());
}

// ---------------------------------------------------------------------------
// Sockets
// ---------------------------------------------------------------------------

int no_delay_of(const serve::Socket& sock) {
  int value = -1;
  socklen_t len = sizeof(value);
  if (::getsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &value, &len) != 0)
    return -1;
  return value;
}

TEST(ServeNet, DialedAndAcceptedSocketsSetNoDelay) {
  const serve::ListenSocket listener(0);
  const serve::Socket dialed = serve::connect_local(listener.port());
  const serve::Socket accepted = listener.accept_connection();
  ASSERT_TRUE(dialed.valid());
  ASSERT_TRUE(accepted.valid());
  EXPECT_EQ(no_delay_of(dialed), 1);
  EXPECT_EQ(no_delay_of(accepted), 1);
}

// ---------------------------------------------------------------------------
// Live server: protocol robustness
// ---------------------------------------------------------------------------

TEST_F(ServeServerTest, TruncatedFramesDoNotKillTheServer) {
  start();
  {  // EOF inside the 8-byte header
    serve::Socket raw = serve::connect_local(server_->port());
    ASSERT_TRUE(raw.write_all("EVA", 3));
    raw.close();
  }
  {  // EOF inside the payload
    serve::Socket raw = serve::connect_local(server_->port());
    const std::string wire =
        serve::encode_frame(serve::FrameType::kSubmitEval, "psdacc-sfg v1");
    ASSERT_TRUE(raw.write_all(wire.data(), wire.size() - 5));
    raw.close();
  }
  // The server dropped both without replying and still serves.
  serve::Client client = connect();
  EXPECT_TRUE(client.submit_eval(quick_document()).ok);
}

TEST_F(ServeServerTest, OversizedLengthPrefixIsAProtocolError) {
  start();
  serve::Socket raw = serve::connect_local(server_->port());
  std::string header = "EVAL";
  header += '\xff';  // length 0xffffffff, far beyond kMaxFramePayload
  header += '\xff';
  header += '\xff';
  header += '\xff';
  ASSERT_TRUE(raw.write_all(header.data(), header.size()));
  serve::Frame reply;
  ASSERT_EQ(serve::read_frame(raw, reply), serve::ReadStatus::kOk);
  EXPECT_EQ(reply.type, serve::FrameType::kError);
  const auto r = serve::parse_response(reply.type, reply.payload);
  EXPECT_EQ(r.error, "PROTOCOL");
  // The connection is closed after the error reply.
  char byte = 0;
  EXPECT_EQ(raw.read_some(&byte, 1), 0);
}

TEST_F(ServeServerTest, UnknownTagIsAProtocolError) {
  start();
  serve::Socket raw = serve::connect_local(server_->port());
  const std::string header = std::string("NOPE") + std::string(4, '\0');
  ASSERT_TRUE(raw.write_all(header.data(), header.size()));
  serve::Frame reply;
  ASSERT_EQ(serve::read_frame(raw, reply), serve::ReadStatus::kOk);
  const auto r = serve::parse_response(reply.type, reply.payload);
  EXPECT_EQ(r.error, "PROTOCOL");
}

TEST_F(ServeServerTest, MalformedScenarioReportsParsePosition) {
  start();
  serve::Client client = connect();
  // A dangling edge: the parser anchors the diagnostic at the offending
  // node statement (line 4, column 3 — see SerializeErrors).
  const auto r = client.submit_eval(
      "psdacc-sfg v1\ngraph {\n  node 0 input\n  node 1 output in=[99]\n}\n");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "PARSE");
  // The ParseError's 1-based position travels through the wire.
  EXPECT_EQ(r.line, 4u);
  EXPECT_EQ(r.column, 3u);
  // The connection survives a rejected submission.
  EXPECT_TRUE(client.submit_eval(quick_document()).ok);
}

TEST_F(ServeServerTest, MalformedEnvelopeIsBadRequest) {
  start();
  serve::Client client = connect();
  ASSERT_TRUE(serve::write_frame(client.socket(),
                                 serve::FrameType::kSubmitEval,
                                 "job {\n  timeout_ms=oops\n}\ndoc"));
  serve::Frame reply;
  ASSERT_EQ(serve::read_frame(client.socket(), reply),
            serve::ReadStatus::kOk);
  const auto r = serve::parse_response(reply.type, reply.payload);
  EXPECT_EQ(r.error, "BAD_REQUEST");
}

TEST_F(ServeServerTest, ServerToClientTagInARequestIsRejected) {
  start();
  serve::Socket raw = serve::connect_local(server_->port());
  const std::string wire =
      serve::encode_frame(serve::FrameType::kResult, "status=OK\n");
  ASSERT_TRUE(raw.write_all(wire.data(), wire.size()));
  serve::Frame reply;
  ASSERT_EQ(serve::read_frame(raw, reply), serve::ReadStatus::kOk);
  const auto r = serve::parse_response(reply.type, reply.payload);
  EXPECT_EQ(r.error, "PROTOCOL");
}

// ---------------------------------------------------------------------------
// Live server: evaluation, caching, stats
// ---------------------------------------------------------------------------

TEST_F(ServeServerTest, EvaluatesAndCachesWithBitIdenticalReplay) {
  start();
  serve::Client client = connect();
  const std::string doc = quick_document();
  const auto first = client.submit_eval(doc);
  ASSERT_TRUE(first.ok);
  EXPECT_FALSE(first.cache_hit);
  ASSERT_EQ(first.engines.size(), 2u);
  EXPECT_EQ(first.hash.size(), 32u);

  // Resubmission: a cache hit whose engine payload is replayed from the
  // stored bytes — everything after the hash line must be byte-identical.
  const auto second = client.submit_eval(doc);
  ASSERT_TRUE(second.ok);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.hash, first.hash);
  const auto body_of = [](const std::string& raw) {
    const auto pos = raw.find("engines=");
    return pos == std::string::npos ? raw : raw.substr(pos);
  };
  EXPECT_EQ(body_of(second.raw), body_of(first.raw));
  ASSERT_EQ(second.engines.size(), first.engines.size());
  for (std::size_t i = 0; i < first.engines.size(); ++i) {
    EXPECT_EQ(second.engines[i].kind, first.engines[i].kind);
    // Bit-identical, not just close.
    EXPECT_EQ(second.engines[i].power, first.engines[i].power);
  }

  // The hit is observable through the stats frame, and the server hashed
  // the same canonical document the client can hash locally.
  EXPECT_EQ(stat_of(client, "cache_hits"), 1u);
  EXPECT_EQ(stat_of(client, "cache_misses"), 1u);
  const auto scenario = sfg::parse_scenario(doc);
  EXPECT_EQ(first.hash,
            sfg::content_hash(scenario.graph, scenario.config).to_string());

  // The key covers only (graph, config): a resubmission carrying a stale
  // expect section still hits — the canonical form, not the bytes.
  sfg::Scenario stale = sfg::parse_scenario(doc);
  stale.expected = {{core::EngineKind::kPsd, 123.0}};
  const auto third = client.submit_eval(sfg::serialize(stale));
  ASSERT_TRUE(third.ok);
  EXPECT_TRUE(third.cache_hit);
  EXPECT_EQ(third.hash, first.hash);
}

TEST_F(ServeServerTest, StatsCountersTrackTraffic) {
  start();
  serve::Client client = connect();
  ASSERT_TRUE(client.submit_eval(quick_document()).ok);
  EXPECT_FALSE(client.submit_eval("garbage, not a document").ok);
  const auto kv = client.stats();
  EXPECT_GE(std::stoull(std::string(serve::kv_get(kv, "connections"))), 1u);
  EXPECT_GE(std::stoull(std::string(serve::kv_get(kv, "frames"))), 2u);
  EXPECT_EQ(serve::kv_get(kv, "jobs_accepted"), "1");
  EXPECT_EQ(serve::kv_get(kv, "jobs_completed"), "1");
  EXPECT_GE(std::stoull(std::string(serve::kv_get(kv, "latency_count"))),
            1u);
  EXPECT_GT(std::stod(std::string(serve::kv_get(kv, "latency_p95_us"))),
            0.0);
}

TEST_F(ServeServerTest, RejectsWhenTheQueueIsFull) {
  serve::ServerConfig cfg;
  cfg.job_workers = 1;
  cfg.max_queue_depth = 0;  // admit only what can start immediately
  start(cfg);
  // Hold the single executor with a slow Monte-Carlo evaluation...
  std::thread blocker([this] {
    serve::Client slow = connect();
    EXPECT_TRUE(slow.submit_eval(slow_document(1, 1u << 20)).ok);
  });
  serve::Client client = connect();
  for (int i = 0; i < 2000 && stat_of(client, "jobs_running") == 0; ++i)
    std::this_thread::sleep_for(1ms);
  ASSERT_EQ(stat_of(client, "jobs_running"), 1u);
  // ...so a second submission is shed immediately instead of queueing.
  const auto rejected = client.submit_eval(quick_document());
  EXPECT_FALSE(rejected.ok);
  EXPECT_EQ(rejected.error, "REJECTED_BUSY");
  blocker.join();
  EXPECT_EQ(stat_of(client, "jobs_rejected"), 1u);
  // Capacity freed (the executor's bookkeeping may trail the response by
  // a few microseconds): the same submission now succeeds.
  for (int i = 0; i < 2000 && stat_of(client, "jobs_running") != 0; ++i)
    std::this_thread::sleep_for(1ms);
  EXPECT_TRUE(client.submit_eval(quick_document()).ok);
}

TEST_F(ServeServerTest, EvalDeadlineExpiresBetweenEngines) {
  start();
  serve::Client client = connect();
  // Two Monte-Carlo engines, a budget neither fits: the between-engines
  // deadline check must fire and answer TIMEOUT.
  const auto r = client.submit_eval(slow_document(2, 1u << 23), 20ms);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "TIMEOUT");
  // The queue is not stalled: the next job on the same connection runs.
  EXPECT_TRUE(client.submit_eval(quick_document()).ok);
  EXPECT_EQ(stat_of(client, "jobs_timeout"), 1u);
}

TEST_F(ServeServerTest, DisconnectMidJobLeavesTheServerServing) {
  start();
  {
    serve::Client doomed = connect();
    ASSERT_TRUE(serve::write_frame(
        doomed.socket(), serve::FrameType::kSubmitEval, slow_document()));
    // Vanish without reading the response.
  }
  serve::Client client = connect();
  for (int i = 0;
       i < 5000 && stat_of(client, "jobs_completed") +
                           stat_of(client, "jobs_failed") +
                           stat_of(client, "jobs_timeout") ==
                       0;
       ++i)
    std::this_thread::sleep_for(2ms);
  // The orphaned job finished (its response write failed harmlessly) and
  // the server still answers.
  EXPECT_TRUE(client.submit_eval(quick_document()).ok);
}

TEST_F(ServeServerTest, StopDrainsAdmittedJobs) {
  serve::ServerConfig cfg;
  cfg.job_workers = 1;
  cfg.max_queue_depth = 8;
  start(cfg);
  // A response must arrive even when stop() lands while the job waits.
  std::thread submitter([this] {
    serve::Client c = connect();
    EXPECT_TRUE(c.submit_eval(slow_document(1, 1u << 19)).ok);
  });
  serve::Client client = connect();
  for (int i = 0; i < 2000 && stat_of(client, "jobs_accepted") == 0; ++i)
    std::this_thread::sleep_for(1ms);
  server_->stop();  // drain: the in-flight evaluation completes first
  submitter.join();
  EXPECT_GE(server_->stats().jobs_completed, 1u);
}

// ---------------------------------------------------------------------------
// Live server: optimizer jobs
// ---------------------------------------------------------------------------

TEST_F(ServeServerTest, OptimizerJobStreamsProgressAndReturnsAssignment) {
  start();
  serve::Client client = connect();
  serve::OptimizerSpec spec;
  spec.strategy = "greedy";
  spec.noise_budget = 1e-8;
  const auto r =
      client.submit_opt(read_file(std::string(PSDACC_CORPUS_DIR) +
                                  "/fir_lp_direct.sfg"),
                        spec);
  ASSERT_TRUE(r.ok) << r.error << ": " << r.message;
  EXPECT_EQ(r.strategy, "greedy");
  EXPECT_TRUE(r.feasible);
  EXPECT_FALSE(r.cancelled);
  EXPECT_FALSE(r.bits.empty());
  EXPECT_GT(r.evaluations, 0u);
  // One PROG frame per accepted descent round.
  EXPECT_GE(r.progress.size(), 1u);
  const auto kv = serve::parse_kv_lines(r.progress.front());
  EXPECT_EQ(serve::kv_get(kv, "step"), "1");
}

TEST_F(ServeServerTest, OptimizerProgressFramesPrecedeTheResultInOrder) {
  start();
  const serve::Socket sock = serve::connect_local(server_->port());
  serve::OptimizerSpec spec;
  spec.strategy = "greedy";
  spec.noise_budget = 1e-8;
  // pure_chain carries three noise sources (input quantizer and two
  // quantized blocks), so the descent takes many steps.
  const std::string payload =
      serve::encode_envelope_prefix(0ms, &spec) +
      read_file(std::string(PSDACC_CORPUS_DIR) + "/pure_chain.sfg");
  const auto frames =
      exchange(sock, serve::FrameType::kSubmitOpt, payload);
  ASSERT_GE(frames.size(), 3u);
  ASSERT_EQ(frames.back().type, serve::FrameType::kResult)
      << frames.back().payload;
  const auto result = serve::parse_kv_lines(frames.back().payload);
  const std::size_t steps = frames.size() - 1;
  EXPECT_EQ(serve::kv_get(result, "steps"), std::to_string(steps));
  for (std::size_t i = 0; i < steps; ++i) {
    ASSERT_EQ(frames[i].type, serve::FrameType::kProgress);
    const auto kv = serve::parse_kv_lines(frames[i].payload);
    EXPECT_EQ(serve::kv_get(kv, "step"), std::to_string(i + 1));
  }
  EXPECT_TRUE(next_frame_answers_stats(sock));
}

TEST_F(ServeServerTest, OptimizerTimeoutReturnsPartialState) {
  start();
  serve::Client client = connect();
  serve::OptimizerSpec spec;
  spec.strategy = "greedy";
  spec.noise_budget = 1e-10;  // deep search
  spec.engine = core::EngineKind::kSimulation;  // slow, cancellable probes
  const auto r = client.submit_opt(
      read_file(std::string(PSDACC_CORPUS_DIR) + "/fir_lp_direct.sfg"),
      spec, 100ms);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "TIMEOUT");
  EXPECT_TRUE(r.cancelled);
  // The partial state rides on the error frame: the assignment the search
  // held when its deadline fired.
  EXPECT_FALSE(r.bits.empty());
  EXPECT_EQ(stat_of(client, "jobs_timeout"), 1u);
  // The executor is free again.
  EXPECT_TRUE(client.submit_eval(quick_document()).ok);
}

TEST_F(ServeServerTest, OptimizerOnSourcelessGraphIsBadRequest) {
  start();
  serve::Client client = connect();
  sfg::Graph g;
  g.add_output(g.add_gain(g.add_input(), 0.5));
  serve::OptimizerSpec spec;
  const auto r = client.submit_opt(
      sfg::serialize(sfg::Scenario{std::move(g), {}, {}, {}}), spec);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "BAD_REQUEST");
}

TEST_F(ServeServerTest, OptimizerJobRunsSeededAnnealNoWorseThanGreedy) {
  start();
  serve::Client client = connect();
  const std::string doc =
      read_file(std::string(PSDACC_CORPUS_DIR) + "/fir_lp_direct.sfg");
  serve::OptimizerSpec greedy;
  greedy.strategy = "greedy";
  greedy.noise_budget = 1e-8;
  const auto g = client.submit_opt(doc, greedy);
  ASSERT_TRUE(g.ok) << g.error << ": " << g.message;

  serve::OptimizerSpec anneal = greedy;
  anneal.strategy = "anneal";
  anneal.seed = 42;
  const auto a = client.submit_opt(doc, anneal);
  ASSERT_TRUE(a.ok) << a.error << ": " << a.message;
  EXPECT_EQ(a.strategy, "anneal");
  EXPECT_TRUE(a.feasible);
  // Annealing is seeded from greedy and keeps the best-ever assignment,
  // so it can never come back worse.
  EXPECT_LE(a.cost, g.cost);
  // Both optimizer runs fold their probe counters into the lifetime stats.
  EXPECT_GT(stat_of(client, "opt_probes_delta"), 0u);
}

TEST_F(ServeServerTest, OptimizerRejectsUnknownStrategy) {
  start();
  serve::Client client = connect();
  serve::OptimizerSpec spec;
  spec.strategy = "gradient";  // not in the search vocabulary
  const auto r = client.submit_opt(quick_document(), spec);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "BAD_REQUEST");
}

// ---------------------------------------------------------------------------
// Live server: Pareto sweep jobs (PARJ)
// ---------------------------------------------------------------------------

TEST_F(ServeServerTest, SweepJobStreamsOnePointPerBudgetAndReturnsFront) {
  start();
  serve::Client client = connect();
  serve::SweepSpec spec;
  spec.budgets = {1e-9, 1e-8, 1e-7, 1e-6};
  spec.min_bits = 4;
  spec.max_bits = 20;
  const std::string doc =
      read_file(std::string(PSDACC_CORPUS_DIR) + "/fir_lp_direct.sfg");
  const auto r = client.submit_sweep(doc, spec);
  ASSERT_TRUE(r.ok) << r.error << ": " << r.message;
  EXPECT_EQ(r.strategy, "greedy");
  EXPECT_FALSE(r.cache_hit);
  EXPECT_EQ(r.hash.size(), 32u);

  // Every budget produced a point, in ladder order.
  ASSERT_EQ(r.sweep_points.size(), spec.budgets.size());
  for (std::size_t i = 0; i < spec.budgets.size(); ++i) {
    EXPECT_EQ(r.sweep_points[i].index, i);
    EXPECT_EQ(r.sweep_points[i].budget, spec.budgets[i]);
  }
  // The front is non-empty, cost-ascending, and dominance-consistent.
  ASSERT_FALSE(r.front.empty());
  for (std::size_t i = 1; i < r.front.size(); ++i) {
    EXPECT_GT(r.front[i].cost, r.front[i - 1].cost);
    EXPECT_LT(r.front[i].noise, r.front[i - 1].noise);
  }
  for (const auto& p : r.front) EXPECT_TRUE(p.feasible);

  // One PROG frame per completed point, in ladder order (serve sweeps run
  // the ladder serially; the pool accelerates the probes inside a point).
  ASSERT_EQ(r.progress.size(), spec.budgets.size());
  for (std::size_t i = 0; i < r.progress.size(); ++i) {
    const auto kv = serve::parse_kv_lines(r.progress[i]);
    EXPECT_EQ(serve::kv_get(kv, "point"), std::to_string(i));
    EXPECT_FALSE(serve::kv_get(kv, "budget").empty());
    EXPECT_FALSE(serve::kv_get(kv, "cost").empty());
  }

  // The sweep rode the delta probe path: delta >> full re-evaluations.
  EXPECT_GT(r.probes_delta, r.probes_full);
  EXPECT_GT(r.probes_delta, 0u);
}

TEST_F(ServeServerTest, SweepProgressFramesPrecedeTheResultOnePerPoint) {
  start();
  const serve::Socket sock = serve::connect_local(server_->port());
  serve::SweepSpec spec;
  spec.budgets = {1e-9, 1e-8, 1e-7};
  spec.min_bits = 4;
  spec.max_bits = 20;
  const std::string payload =
      serve::encode_envelope_prefix(0ms, spec) +
      read_file(std::string(PSDACC_CORPUS_DIR) + "/pure_chain.sfg");
  const auto frames =
      exchange(sock, serve::FrameType::kSubmitSweep, payload);
  ASSERT_EQ(frames.size(), spec.budgets.size() + 1);
  for (std::size_t i = 0; i < spec.budgets.size(); ++i) {
    ASSERT_EQ(frames[i].type, serve::FrameType::kProgress);
    const auto kv = serve::parse_kv_lines(frames[i].payload);
    EXPECT_EQ(serve::kv_get(kv, "point"), std::to_string(i));
  }
  EXPECT_EQ(frames.back().type, serve::FrameType::kResult)
      << frames.back().payload;
  EXPECT_TRUE(next_frame_answers_stats(sock));
}

TEST_F(ServeServerTest, SweepCacheHitReplaysBitIdenticalWithoutProgress) {
  start();
  serve::Client client = connect();
  serve::SweepSpec spec;
  spec.budgets = {1e-8, 1e-7};
  spec.min_bits = 4;
  spec.max_bits = 20;
  const std::string doc =
      read_file(std::string(PSDACC_CORPUS_DIR) + "/fir_lp_direct.sfg");
  const auto first = client.submit_sweep(doc, spec);
  ASSERT_TRUE(first.ok) << first.error << ": " << first.message;
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.progress.size(), 2u);

  // Replay: same document + same sweep section → stored bytes verbatim,
  // terminal RSLT only (completed points are in the body, not re-streamed).
  const auto second = client.submit_sweep(doc, spec);
  ASSERT_TRUE(second.ok);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_TRUE(second.progress.empty());
  EXPECT_EQ(second.hash, first.hash);
  const auto body_of = [](const std::string& raw) {
    const auto pos = raw.find("strategy=");
    return pos == std::string::npos ? raw : raw.substr(pos);
  };
  EXPECT_EQ(body_of(second.raw), body_of(first.raw));
  EXPECT_EQ(stat_of(client, "cache_hits"), 1u);

  // A different ladder is a different key: miss, not a stale replay.
  spec.budgets = {1e-6};
  const auto third = client.submit_sweep(doc, spec);
  ASSERT_TRUE(third.ok);
  EXPECT_FALSE(third.cache_hit);
  EXPECT_NE(third.hash, first.hash);
}

TEST_F(ServeServerTest, SweepStatsAggregateOptimizerProbeCounters) {
  start();
  serve::Client client = connect();
  serve::SweepSpec spec;
  spec.budgets = {1e-8, 1e-7};
  spec.min_bits = 4;
  spec.max_bits = 20;
  const std::string doc =
      read_file(std::string(PSDACC_CORPUS_DIR) + "/fir_lp_direct.sfg");
  const auto r = client.submit_sweep(doc, spec);
  ASSERT_TRUE(r.ok) << r.error << ": " << r.message;
  // Satellite contract: the lifetime STTS counters equal the one job's
  // response counters on a fresh server — and show delta >> full, the
  // serving-side signature of the delta probe path.
  EXPECT_EQ(stat_of(client, "opt_probes_full"), r.probes_full);
  EXPECT_EQ(stat_of(client, "opt_probes_cached"), r.probes_cached);
  EXPECT_EQ(stat_of(client, "opt_probes_delta"), r.probes_delta);
  EXPECT_GT(stat_of(client, "opt_probes_delta"),
            stat_of(client, "opt_probes_full"));
}

TEST_F(ServeServerTest, SweepRejectsBadSections) {
  start();
  serve::Client client = connect();
  const std::string doc = quick_document();
  {
    serve::SweepSpec spec;
    spec.strategy = "gradient";  // unknown token: rejected at parse
    const auto r = client.submit_sweep(doc, spec);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error, "BAD_REQUEST");
  }
  {
    serve::SweepSpec spec;
    spec.budget_lo = 1e-4;  // inverted ladder
    spec.budget_hi = 1e-9;
    const auto r = client.submit_sweep(doc, spec);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error, "BAD_REQUEST");
  }
  {
    sfg::Graph g;
    g.add_output(g.add_gain(g.add_input(), 0.5));  // no noise sources
    serve::SweepSpec spec;
    const auto r = client.submit_sweep(
        sfg::serialize(sfg::Scenario{std::move(g), {}, {}, {}}), spec);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error, "BAD_REQUEST");
  }
  // The connection survives every rejection.
  EXPECT_TRUE(client.submit_eval(doc).ok);
}

// ---------------------------------------------------------------------------
// Live server: scenarios no engine can evaluate
// ---------------------------------------------------------------------------

TEST_F(ServeServerTest, UnstableBlockIsInvalidAndTheConnectionSurvives) {
  start();
  serve::Client client = connect();
  const std::string doc = unit_circle_document();
  const auto expect_invalid = [](const serve::Response& r) {
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error, "INVALID") << r.message;
    EXPECT_NE(r.message.find("block node 2"), std::string::npos)
        << r.message;
    EXPECT_TRUE(r.progress.empty());
  };
  expect_invalid(client.submit_eval(doc));
  serve::OptimizerSpec opt;
  expect_invalid(client.submit_opt(doc, opt));
  serve::SweepSpec sweep;
  sweep.budgets = {1e-8, 1e-6};
  expect_invalid(client.submit_sweep(doc, sweep));
  // Refused before the cache: nothing was looked up or stored.
  EXPECT_EQ(stat_of(client, "cache_size"), 0u);
  EXPECT_EQ(stat_of(client, "cache_misses"), 0u);

  const auto ok = client.submit_eval(
      read_file(std::string(PSDACC_CORPUS_DIR) + "/fir_lp_direct.sfg"));
  ASSERT_TRUE(ok.ok) << ok.error << ": " << ok.message;
  EXPECT_FALSE(ok.engines.empty());
  EXPECT_EQ(stat_of(client, "cache_size"), 1u);
}

// ---------------------------------------------------------------------------
// Golden corpus over the wire: the end-to-end contract
// ---------------------------------------------------------------------------

class ServeCorpusFile : public ::testing::TestWithParam<std::string> {};

TEST_P(ServeCorpusFile, ServedResultsMatchTheRecordedGoldens) {
  static serve::Server* shared_server = [] {
    static serve::Server server{[] {
      serve::ServerConfig cfg;
      cfg.port = 0;
      return cfg;
    }()};
    server.start();
    return &server;
  }();
  serve::Client client(shared_server->port());
  const std::string text = read_file(GetParam());
  const auto response = client.submit_eval(text);
  ASSERT_TRUE(response.ok) << response.error << ": " << response.message;

  const sfg::Scenario scenario = sfg::parse_scenario(text);
  for (const auto& [kind, golden] : scenario.expected) {
    bool found = false;
    for (const auto& engine : response.engines) {
      if (engine.kind != kind) continue;
      found = true;
      const double rel = std::abs(engine.power - golden) /
                         std::max(std::abs(golden), 1e-300);
      EXPECT_LE(rel, 1e-9)
          << core::to_string(kind) << ": served " << engine.power
          << " vs golden " << golden;
    }
    EXPECT_TRUE(found) << "engine " << core::to_string(kind)
                       << " missing from the served reply";
  }
}

std::string test_name_for(const ::testing::TestParamInfo<std::string>& info) {
  std::string stem = std::filesystem::path(info.param).stem().string();
  for (char& c : stem)
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  return stem;
}

INSTANTIATE_TEST_SUITE_P(Corpus, ServeCorpusFile,
                         ::testing::ValuesIn(corpus_files()),
                         test_name_for);

}  // namespace
