// Golden-corpus regression suite: every checked-in tests/corpus/*.sfg
// document must parse, re-serialize byte-identically, reproduce its
// recorded per-engine noise powers to 1e-9 relative, and satisfy the
// delta-vs-full parity and cross-engine agreement contracts.
//
// To refresh expectations after an intentional engine change:
//   build/psdacc-verify regen tests/corpus/*.sfg   (then inspect the diff)
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/accuracy_engine.hpp"
#include "sfg/verify.hpp"

#ifndef PSDACC_CORPUS_DIR
#error "PSDACC_CORPUS_DIR must point at the checked-in corpus"
#endif

namespace {

using namespace psdacc;

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

class CorpusFile : public ::testing::TestWithParam<std::string> {};

TEST_P(CorpusFile, PassesFullVerification) {
  const auto issues = sfg::verify_scenario_text(read_file(GetParam()));
  for (const auto& issue : issues)
    ADD_FAILURE() << "[" << issue.check << "] " << issue.detail;
}

std::string test_name_for(const ::testing::TestParamInfo<std::string>& info) {
  // GoogleTest names must be alphanumeric/underscore only.
  std::string stem = std::filesystem::path(info.param).stem().string();
  for (char& c : stem)
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  return stem;
}

INSTANTIATE_TEST_SUITE_P(Golden, CorpusFile,
                         ::testing::ValuesIn(corpus_files()),
                         test_name_for);

// The per-engine loop sfg::evaluate_expected ran before it became a
// projection of sim::evaluate_accuracy, kept here as the oracle.
std::vector<std::pair<core::EngineKind, double>> per_engine_loop(
    const sfg::Scenario& s) {
  std::vector<std::pair<core::EngineKind, double>> out;
  const auto opts = sim::engine_options_for(s.config);
  for (const core::EngineKind kind : s.config.engines) {
    if (!core::engine_supports(kind, s.graph)) continue;
    out.emplace_back(kind,
                     core::make_engine(kind, s.graph, opts)
                         ->output_noise_power());
  }
  return out;
}

TEST(AccuracyReport, EvaluateExpectedMatchesThePerEngineLoopOnTheCorpus) {
  for (const std::string& path : corpus_files()) {
    const sfg::Scenario s = sfg::parse_scenario(read_file(path));
    const auto got = sfg::evaluate_expected(s);
    const auto want = per_engine_loop(s);
    ASSERT_EQ(got.size(), want.size()) << path;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].first, want[i].first) << path;
      EXPECT_EQ(got[i].second, want[i].second) << path;  // bitwise
    }
  }
}

// An integrator block (pole on the unit circle) behind one quantizer.
constexpr const char* kUnitCircleDocument =
    "psdacc-sfg v1\n"
    "graph {\n"
    "  node 0 input name=\"in\"\n"
    "  node 1 quant in=[0] format=sQ4.12/round/sat name=\"q\"\n"
    "  node 2 block in=[1] b=[1] a=[1 -1]\n"
    "  node 3 output in=[2] name=\"out\"\n"
    "}\n";

TEST(Verify, UnstableBlockIsAnIssueNotAnAbort) {
  const sfg::Scenario s = sfg::parse_scenario(kUnitCircleDocument);
  EXPECT_THROW(sfg::evaluate_expected(s), std::invalid_argument);

  sfg::Scenario with_goldens = s;
  with_goldens.expected = {{core::EngineKind::kPsd, 1e-8}};
  const auto issues =
      sfg::verify_scenario_text(sfg::serialize(with_goldens));
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].check, "invalid");
  EXPECT_NE(issues[0].detail.find("block node 2"), std::string::npos)
      << issues[0].detail;
}

TEST(Corpus, HasTheFullPopulation) {
  // The corpus is a regression anchor: losing files silently weakens it.
  EXPECT_GE(corpus_files().size(), 20u);
}

}  // namespace
