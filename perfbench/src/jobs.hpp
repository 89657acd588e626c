// Deterministic job generation for the four benchmark workloads.
//
// Every job reaches the library as a serialized `psdacc-sfg v1` document.
// All randomness comes from the workload seed, so the same seed yields
// the same documents byte for byte (checked by the self-test). Job *sizes*
// follow fixed ladders and only structure, band edges and Monte-Carlo
// seeds are drawn, so different seeds load the library alike.
//
// Why each workload exists, and the layer it stresses:
//
//  * search_delta — single word-length searches (greedy, min_plus_one,
//    anneal) with the psd engine on single-rate graphs, where every probe
//    takes the delta path (nanoseconds per probe). Time goes to optimizer
//    construction (per-worker engine rebuilds) and to pool dispatch: the
//    `opt`, `core` model and `runtime` layers. Bypasses `sim` and most of
//    `dsp`.
//  * search_full — the same loop on multirate graphs (DWT codecs, random
//    multirate SFGs), where the psd engine refuses delta probes, so every
//    probe is a full propagation and an nproc pool pays off. Guards against
//    a search_delta speed-up that cuts parallelism or shares engine state.
//  * montecarlo — sim::evaluate_accuracy with every engine on Table-I
//    filters, DWT codecs and the frequency-filtering system. Simulation is
//    most of a job, so `sim` and `dsp::kernels` changes show here and
//    model-layer changes barely do. Also the paper's accuracy check (E_d).
//  * serve_mix — the only path through parse -> hash -> cache -> queue ->
//    socket: repeated EVAL (cache hits), unique EVAL (misses that insert),
//    OPTJ and PARJ (multi-frame replies) and malformed documents.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sfg/graph.hpp"

namespace perfbench {

/// Spectral resolution of every job (the paper's N_PSD).
inline constexpr std::size_t kNpsd = 1024;
/// Fractional-bit bounds of every search. The floor keeps sources whose
/// noise barely reaches the output from dropping to a near-empty word,
/// which would make the mean optimized cost swing with the graph drawn.
inline constexpr int kMinBits = 8;
inline constexpr int kMaxBits = 20;

/// One word-length search: the document plus what an OPTJ header would
/// carry.
struct SearchJob {
  std::string name;
  std::string document;
  std::string strategy;  ///< greedy | min_plus_one | anneal
  double budget = 0.0;   ///< output noise power budget
  std::uint64_t anneal_seed = 0;
  /// One of the paper's systems (fig6, DWT codec). Only these enter the
  /// E_d guard: deep random SFGs attenuate the signal below one LSB, where
  /// the PQN model does not apply.
  bool paper = false;
};

/// One accuracy evaluation: the document's config section holds the
/// engines and the Monte-Carlo plan.
struct EvalJob {
  std::string name;
  std::string document;
};

/// The serve_mix inputs. Unique EVAL documents are drawn from a pool
/// larger than the server's result cache, so they miss even when a long
/// run wraps around.
struct ServeInputs {
  std::vector<std::string> hot_eval;     ///< repeated: cache hits
  std::vector<std::string> unique_eval;  ///< distinct: cache misses
  std::vector<SearchJob> opt;            ///< greedy OPTJ jobs
  /// PARJ bases; request n sweeps sweep_budgets(job, n), so no two
  /// requests share a cache key.
  std::vector<SearchJob> sweep;
  std::vector<std::string> malformed;    ///< answer must be ERRF PARSE
  /// Request class per slot of one schedule period (see ServeClass).
  std::vector<int> schedule;
};

enum ServeClass : int {
  kEvalHit = 0,
  kEvalMiss = 1,
  kOpt = 2,
  kSweep = 3,
  kRefusal = 4,
  kServeClasses = 5,
};

/// Budget ladder of the @p variant-th PARJ request on @p job.
std::vector<double> sweep_budgets(const SearchJob& job, std::size_t variant);

std::vector<SearchJob> make_search_delta_jobs(std::uint64_t seed);
std::vector<SearchJob> make_search_full_jobs(std::uint64_t seed);
std::vector<EvalJob> make_montecarlo_jobs(std::uint64_t seed,
                                          std::size_t shards);
ServeInputs make_serve_inputs(std::uint64_t seed);

}  // namespace perfbench
