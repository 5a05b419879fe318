// dnlr command-line tool: train, distill, prune, score and evaluate ranking
// models on LETOR-format data, and benchmark and gate the serving stack,
// without writing any C++. Commands: gen, train-forest, distill, score,
// evaluate, predict-time, validate, serve-bench and soak-bench (see
// serve_bench.cc), bundle pack/unpack/verify/bench, bench-scaling, stats.
//
// Every command accepts only the flags its usage line lists; anything else
// is a usage error (exit 2). Run `dnlr_cli` with no arguments for usage;
// README.md describes each command.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "bundle/bundle.h"
#include "bundle/mapped_bundle.h"
#include "common/file_util.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/pipeline.h"
#include "core/timing.h"
#include "forest/parallel_scorer.h"
#include "data/letor_io.h"
#include "data/synthetic.h"
#include "data/validate.h"
#include "forest/validate.h"
#include "gbdt/validate.h"
#include "nn/validate.h"
#include "forest/quickscorer.h"
#include "forest/vectorized_quickscorer.h"
#include "forest/wide_quickscorer.h"
#include "gbdt/booster.h"
#include "gbdt/tuner.h"
#include "metrics/metrics.h"
#include "mm/gemm.h"
#include "nn/scorer.h"
#include "obs/metrics.h"
#include "predict/dense_predictor.h"
#include "predict/network_time.h"
#include "predict/sparse_predictor.h"
#include "prune/magnitude.h"
#include "serve_bench.h"

namespace dnlr::cli {
namespace {

/// Parses a comma-separated thread-count list like "1,2,4". Exits on junk.
std::vector<uint32_t> ParseThreadList(const std::string& csv) {
  std::vector<uint32_t> threads;
  std::stringstream stream(csv);
  std::string item;
  while (std::getline(stream, item, ',')) {
    const int value = std::atoi(item.c_str());
    if (value < 1) {
      std::fprintf(stderr, "bad thread count '%s' in --threads\n",
                   item.c_str());
      std::exit(2);
    }
    threads.push_back(static_cast<uint32_t>(value));
  }
  if (threads.empty()) {
    std::fprintf(stderr, "--threads list is empty\n");
    std::exit(2);
  }
  return threads;
}

data::Dataset LoadLetorOrDie(const std::string& path) {
  auto result = data::ReadLetorFile(path);
  if (!result.ok()) {
    std::fprintf(stderr, "failed to read %s: %s\n", path.c_str(),
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

int CmdGen(const Args& args) {
  data::SyntheticConfig config =
      args.Get("style", "msn") == "istella"
          ? data::SyntheticConfig::IstellaLike(1.0)
          : data::SyntheticConfig::MsnLike(1.0);
  config.num_queries = args.GetInt("queries", 300);
  if (args.Has("features")) config.num_features = args.GetInt("features", 136);
  config.seed = args.GetInt("seed", 42);
  const data::Dataset dataset = data::GenerateSynthetic(config);
  const std::string out = args.Require("out");
  if (Failed(data::WriteLetorFile(dataset, out))) return 1;
  std::printf("wrote %u docs / %u queries / %u features to %s\n",
              dataset.num_docs(), dataset.num_queries(),
              dataset.num_features(), out.c_str());
  return 0;
}

int CmdTrainForest(const Args& args) {
  const data::Dataset train = LoadLetorOrDie(args.Require("train"));
  data::Dataset valid;
  const bool has_valid = args.Has("valid");
  if (has_valid) valid = LoadLetorOrDie(args.Get("valid", ""));

  gbdt::Ensemble model;
  if (args.Has("tune")) {
    if (!has_valid) {
      std::fprintf(stderr, "--tune requires --valid\n");
      return 2;
    }
    gbdt::TunerConfig tuner;
    tuner.trials = args.GetInt("tune", 8);
    tuner.num_trees = args.GetInt("trees", 300);
    tuner.num_leaves = args.GetInt("leaves", 64);
    tuner.verbose = true;
    const gbdt::TunerResult result =
        gbdt::TuneLambdaMart(train, valid, tuner);
    std::printf("best trial: lr %.3f min_docs %u l2 %.2f -> NDCG@10 %.4f\n",
                result.best().config.learning_rate,
                result.best().config.min_docs_per_leaf,
                result.best().config.lambda_l2, result.best().valid_ndcg);
    gbdt::Booster booster(result.best().config);
    model = booster.TrainLambdaMart(train, &valid);
  } else {
    gbdt::BoosterConfig config;
    config.num_trees = args.GetInt("trees", 300);
    config.num_leaves = args.GetInt("leaves", 64);
    config.learning_rate = args.GetDouble("lr", 0.06);
    config.min_docs_per_leaf = args.GetInt("min-docs", 40);
    config.lambda_l2 = args.GetDouble("l2", 5.0);
    if (has_valid) {
      config.early_stopping_rounds = 5;
      config.eval_period = 25;
    }
    gbdt::Booster booster(config);
    model = booster.TrainLambdaMart(train, has_valid ? &valid : nullptr);
  }

  const std::string out = args.Require("out");
  if (Failed(model.SaveToFile(out))) return 1;
  std::printf("saved %u trees (max %u leaves) to %s\n", model.num_trees(),
              model.MaxLeaves(), out.c_str());
  return 0;
}

int CmdDistill(const Args& args) {
  const data::Dataset train = LoadLetorOrDie(args.Require("train"));
  auto teacher = gbdt::Ensemble::LoadFromFile(args.Require("teacher"));
  if (Failed(teacher.status())) return 1;
  auto arch =
      predict::Architecture::Parse(args.Require("arch"), train.num_features());
  if (Failed(arch.status())) return 1;

  core::PipelineConfig config;
  config.distill.epochs = args.GetInt("epochs", 40);
  config.distill.batch_size = args.GetInt("batch", 256);
  config.distill.adam.learning_rate = args.GetDouble("lr", 2e-3);
  config.distill.gamma_epochs = {
      static_cast<uint32_t>(config.distill.epochs * 7 / 10),
      static_cast<uint32_t>(config.distill.epochs * 9 / 10)};
  config.prune.target_sparsity = args.GetDouble("prune", 0.0);
  config.prune.train = config.distill;
  config.prune.train.gamma_epochs.clear();
  core::Pipeline pipeline(config);

  const core::DistilledModel model =
      config.prune.target_sparsity > 0.0
          ? pipeline.DistillAndPrune(*arch, train, *teacher)
          : pipeline.DistillDense(*arch, train, *teacher);

  const std::string out = args.Require("out");
  if (Failed(model.mlp.SaveToFile(out))) return 1;
  std::printf("saved %s student to %s (first layer %.1f%% sparse)\n",
              arch->ToString().c_str(), out.c_str(),
              100.0 * model.first_layer_sparsity);
  return 0;
}

/// A forest scorer that owns the ensemble it was built from.
template <typename Scorer, typename... Extra>
struct OwningScorer : Scorer {
  OwningScorer(gbdt::Ensemble* e, Extra... extra)
      : Scorer(*e, extra...), model(e) {}
  std::unique_ptr<gbdt::Ensemble> model;
};

/// Loads either an ensemble or an MLP and builds the matching scorer.
/// Returns nullptr on failure. The normalizer is fitted on `data` when an
/// MLP is loaded (matching how students normalize at deploy time when the
/// training statistics travel with the index).
std::unique_ptr<forest::DocumentScorer> MakeScorer(
    const std::string& model_path, const std::string& engine,
    const data::Dataset& dataset, data::ZNormalizer* normalizer) {
  std::ifstream probe(model_path);
  if (!probe) {
    std::fprintf(stderr, "cannot open %s\n", model_path.c_str());
    return nullptr;
  }
  std::string first_word;
  probe >> first_word;

  if (first_word == "ensemble") {
    auto model = gbdt::Ensemble::LoadFromFile(model_path);
    if (Failed(model.status())) return nullptr;
    // The scorer owns the heap ensemble it was built from (OwningScorer
    // adopts it after the scorer base, which copies or retains it).
    auto* owned = new gbdt::Ensemble(std::move(model).value());
    const uint32_t f = dataset.num_features();
    if (owned->MaxLeaves() > 64 || engine == "wide") {
      return std::make_unique<OwningScorer<forest::WideQuickScorer, uint32_t>>(
          owned, f);
    }
    if (engine == "naive") {
      return std::make_unique<OwningScorer<forest::NaiveTraversalScorer>>(
          owned);
    }
    if (engine == "vqs") {
      return std::make_unique<
          OwningScorer<forest::VectorizedQuickScorer, uint32_t>>(owned, f);
    }
    return std::make_unique<OwningScorer<forest::QuickScorer, uint32_t>>(owned,
                                                                         f);
  }

  if (first_word == "mlp") {
    auto model = nn::Mlp::LoadFromFile(model_path);
    if (Failed(model.status())) return nullptr;
    normalizer->Fit(dataset);
    if (engine == "hybrid" || model->layer(0).weight.Sparsity() >= 0.5) {
      return std::make_unique<nn::HybridNeuralScorer>(*model, normalizer);
    }
    return std::make_unique<nn::NeuralScorer>(*model, normalizer);
  }

  std::fprintf(stderr, "unrecognized model file %s (starts with '%s')\n",
               model_path.c_str(), first_word.c_str());
  return nullptr;
}

int CmdScore(const Args& args) {
  const data::Dataset dataset = LoadLetorOrDie(args.Require("data"));
  data::ZNormalizer normalizer;
  const auto scorer = MakeScorer(args.Require("model"),
                                 args.Get("engine", "auto"), dataset,
                                 &normalizer);
  if (scorer == nullptr) return 1;

  const std::vector<float> scores = scorer->ScoreDataset(dataset);
  const std::string out = args.Get("out", "-");
  if (out == "-") {
    for (const float s : scores) std::printf("%.6f\n", s);
  } else {
    std::ofstream file(out);
    for (const float s : scores) file << s << '\n';
    if (!file) {
      std::fprintf(stderr, "failed to write scores to %s\n", out.c_str());
      return 1;
    }
    std::printf("wrote %zu scores to %s with %s\n", scores.size(), out.c_str(),
                std::string(scorer->name()).c_str());
  }
  if (args.Has("time")) {
    std::printf("scoring time: %.3f us/doc (%s)\n",
                core::MeasureScorerMicrosPerDoc(*scorer, dataset),
                std::string(scorer->name()).c_str());
  }
  return 0;
}

int CmdEvaluate(const Args& args) {
  const data::Dataset dataset = LoadLetorOrDie(args.Require("data"));
  data::ZNormalizer normalizer;
  const auto scorer = MakeScorer(args.Require("model"),
                                 args.Get("engine", "auto"), dataset,
                                 &normalizer);
  if (scorer == nullptr) return 1;
  const std::vector<float> scores = scorer->ScoreDataset(dataset);
  std::printf("engine   %s\n", std::string(scorer->name()).c_str());
  std::printf("NDCG@10  %.4f\n", metrics::MeanNdcg(dataset, scores, 10));
  std::printf("NDCG     %.4f\n", metrics::MeanNdcg(dataset, scores, 0));
  std::printf("MAP      %.4f\n", metrics::MeanAp(dataset, scores));
  std::printf("us/doc   %.3f\n",
              core::MeasureScorerMicrosPerDoc(*scorer, dataset));
  return 0;
}

int CmdPredictTime(const Args& args) {
  const uint32_t features = args.GetInt("features", 136);
  auto arch = predict::Architecture::Parse(args.Require("arch"), features);
  if (Failed(arch.status())) return 1;
  const uint32_t batch = args.GetInt("batch", 64);
  const double sparsity = args.GetDouble("sparsity", 0.95);

  std::fprintf(stderr, "calibrating predictors (seconds)...\n");
  predict::DenseCalibrationConfig dense_config;
  dense_config.m_values = {16, 32, 64, 128, 256, 512, 1024};
  dense_config.k_values = {16, 32, 64, features, 256, 512};
  dense_config.n_values = {16, batch, 256};
  const auto dense = predict::DenseTimePredictor::Calibrate(dense_config);
  const auto sparse = predict::SparseTimePredictor::Calibrate();

  const auto estimate =
      predict::EstimateHybridTime(*arch, batch, sparsity, dense, sparse);
  std::printf("architecture        %s (input %u)\n", arch->ToString().c_str(),
              features);
  std::printf("dense               %.3f us/doc\n", estimate.dense_us_per_doc);
  std::printf("first layer share   %.0f%%\n",
              estimate.first_layer_impact_percent);
  std::printf("pruned (no L1)      %.3f us/doc\n", estimate.pruned_us_per_doc);
  std::printf("hybrid @ %.0f%% L1    %.3f us/doc\n", 100.0 * sparsity,
              estimate.hybrid_us_per_doc);
  return 0;
}

/// The GEMM time split recorded in `registry`, in microseconds: total,
/// kernel, and the A and B packing apart.
constexpr const char* kGemmSplitParts[] = {"total", "kernel", "pack_a",
                                           "pack_b"};
std::vector<double> GemmSplitMicros(obs::MetricsRegistry& registry) {
  std::vector<double> micros;
  for (const char* part : kGemmSplitParts) {
    std::string name = "mm.gemm.";
    name.append(part).append("_us");
    micros.push_back(registry.GetHistogram(name).SumMicros());
  }
  return micros;
}

/// JSON members for a GEMM split, e.g. "gemm_pack_a_us": 12.0. The scorers
/// multiply pre-packed weights, so A-packing shows up only for GEMMs
/// outside the scoring path.
std::string GemmSplitJson(const std::vector<double>& micros) {
  std::ostringstream json;
  for (size_t i = 0; i < micros.size(); ++i) {
    json << (i > 0 ? ", " : "") << "\"gemm_" << kGemmSplitParts[i]
         << "_us\": " << FormatFixed(micros[i], 1);
  }
  return json.str();
}

/// Measures end-to-end docs/s of the dense-NN, hybrid-NN and tree-ensemble
/// rungs, each behind a forest::ParallelScorer, at each requested thread
/// count, next to the parallel efficiency the ladder budgets with, and
/// writes a scaling JSON report — the multi-core counterpart of the paper's
/// single-core efficiency tables: the same engines, sped up by the shared
/// ThreadPool instead of by shrinking the architecture. With
/// --min-t2-ratio R > 0 the command fails (exit 1) when the dense rung's
/// T=2 throughput drops below R times its T=1 throughput, which is the CI
/// smoke gate against threading regressions.
int CmdBenchScaling(const Args& args) {
  const auto features = static_cast<uint32_t>(args.GetInt("features", 136));
  const auto queries = static_cast<uint32_t>(args.GetInt("queries", 60));
  const double sparsity = args.GetDouble("sparsity", 0.98);
  const auto num_trees = static_cast<uint32_t>(args.GetInt("trees", 40));
  const int repeats = args.GetInt("repeats", 3);
  const auto seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  const std::vector<uint32_t> thread_counts =
      ParseThreadList(args.Get("threads", "1,2,4"));
  const double min_t2_ratio = args.GetDouble("min-t2-ratio", 0.0);
  const double min_t2_ratio_small = args.GetDouble("min-t2-ratio-small", 0.0);
  const std::string out = args.Get("out", "out/bench_scaling.json");
  const bool obs_spans = args.GetInt("obs", 0) != 0;
  const std::string obs_out = args.Get("obs-out", "out/bench_scaling_obs.json");

  // Named workload presets. "large" is the tuned throughput config (the
  // --queries/--arch/--trees flags apply to it); "small" is a fixed tiny
  // smoke workload whose per-call batches sit near or below the parallel
  // crossover — its gate checks that threading never taxes small batches.
  struct Preset {
    std::string name;
    uint32_t queries = 0;
    uint32_t trees = 0;
    std::string arch;
  };
  std::vector<Preset> presets;
  const std::string configs_flag = args.Get("configs", "large");
  for (const std::string_view piece : SplitAndSkipEmpty(configs_flag, ',')) {
    if (piece == "large") {
      presets.push_back(
          Preset{"large", queries, num_trees, args.Get("arch", "256x128x64")});
    } else if (piece == "small") {
      presets.push_back(Preset{"small", 8, 5, "32x16"});
    } else {
      std::fprintf(stderr, "unknown --configs entry '%.*s' (small|large)\n",
                   static_cast<int>(piece.size()), piece.data());
      return 2;
    }
  }

  struct Row {
    uint32_t threads = 1;
    double efficiency = 1.0;
    double overhead_us = 0.0;
    uint32_t nn_min_parallel_docs = 0;
    double dense_docs_per_s = 0.0;
    double hybrid_docs_per_s = 0.0;
    double tree_docs_per_s = 0.0;
  };
  struct ConfigReport {
    Preset preset;
    uint32_t docs = 0;
    std::vector<Row> rows;
    double t2_ratio = 0.0;     // dense T=2 / T=1 docs/s; 0 when not measured
    double gate_ratio = 0.0;   // required minimum; 0 when no gate applies
    bool gate_pass = true;
  };
  std::vector<ConfigReport> reports;

  // With --obs 1 the GEMM / scorer spans record during the measurement
  // loop, so the report can say where scoring time went (pack vs kernel),
  // not only how fast it was. Off by default: the gate numbers stay
  // uninstrumented unless asked.
  obs::MetricsRegistry::Global().SetEnabled(obs_spans);

  for (const Preset& preset : presets) {
    auto arch = predict::Architecture::Parse(preset.arch, features);
    if (Failed(arch.status())) return 1;

    // Synthetic corpus: throughput, not ranking quality, is what this bench
    // measures, so the neural rungs keep their random initial weights.
    std::fprintf(stderr, "[%s] workload\n", preset.name.c_str());
    const Corpus corpus(preset.queries, features, seed);
    const data::Dataset& dataset = corpus.dataset;
    const gbdt::Ensemble forest_model = TrainForest(dataset, preset.trees, 32);
    forest::QuickScorer tree_scorer(forest_model, features);

    nn::Mlp dense_mlp(*arch, seed);
    nn::Mlp hybrid_mlp(*arch, seed + 1);
    nn::WeightMasks masks = prune::MakeDenseMasks(hybrid_mlp);
    prune::LevelPruneLayer(&hybrid_mlp, 0, sparsity, &masks);

    ConfigReport report;
    report.preset = preset;
    report.docs = dataset.num_docs();

    // The neural engines pack their weights once; every thread count wraps
    // the same scorers in the one intra-request fan-out.
    const nn::NeuralScorer dense(dense_mlp, &corpus.normalizer);
    const nn::HybridNeuralScorer hybrid(hybrid_mlp, &corpus.normalizer);

    // Serial per-doc costs from the T=1 row feed CrossoverDocs for the
    // T>1 rows, so the crossover the bench applies is the one a production
    // caller would compute from the same measurements.
    double dense_serial_us = 0.0;
    double tree_serial_us = 0.0;

    for (const uint32_t t : thread_counts) {
      common::ThreadPool pool(t);
      common::ThreadPool* pool_ptr = t > 1 ? &pool : nullptr;

      Row row;
      row.threads = t;

      uint32_t nn_crossover = 0;
      uint32_t tree_crossover = 0;
      if (t > 1) {
        const predict::ParallelScaling scaling =
            predict::MeasureParallelScaling(pool_ptr, 256, 256, 64, repeats);
        row.efficiency = scaling.efficiency;
        row.overhead_us = scaling.overhead_us;
        // Each engine gates on its own serial cost; without a T=1 baseline
        // (a --threads list omitting 1) the structural floor stands.
        if (dense_serial_us > 0.0) {
          nn_crossover = scaling.CrossoverDocs(dense_serial_us);
        }
        if (tree_serial_us > 0.0) {
          tree_crossover = scaling.CrossoverDocs(tree_serial_us);
        }
      }
      // Chunks of whole 64-document batches keep the neural scores bitwise;
      // below two of them a call stays serial whatever the crossover.
      row.nn_min_parallel_docs = std::max(2u * 64, nn_crossover);
      const forest::ParallelScorer par_dense(&dense, pool_ptr, 64,
                                             nn_crossover);
      const forest::ParallelScorer par_hybrid(&hybrid, pool_ptr, 64,
                                              nn_crossover);
      const forest::ParallelScorer tree(&tree_scorer, pool_ptr, 64,
                                        tree_crossover);

      const double dense_us =
          core::MeasureScorerMicrosPerDoc(par_dense, dataset, repeats);
      const double hybrid_us =
          core::MeasureScorerMicrosPerDoc(par_hybrid, dataset, repeats);
      const double tree_us =
          core::MeasureScorerMicrosPerDoc(tree, dataset, repeats);
      if (t == 1) {
        dense_serial_us = dense_us;
        tree_serial_us = tree_us;
      }
      row.dense_docs_per_s = 1e6 / dense_us;
      row.hybrid_docs_per_s = 1e6 / hybrid_us;
      row.tree_docs_per_s = 1e6 / tree_us;
      report.rows.push_back(row);
      std::fprintf(stderr,
                   "[%s] T=%u  efficiency %.2f  dense %9.0f  "
                   "hybrid %9.0f  tree %9.0f docs/s\n",
                   preset.name.c_str(), t, row.efficiency,
                   row.dense_docs_per_s, row.hybrid_docs_per_s,
                   row.tree_docs_per_s);
    }
    reports.push_back(std::move(report));
  }

  // Per-config T=2 / T=1 ratios and gates. "small" answers to
  // --min-t2-ratio-small (the no-regression bound); every other config
  // answers to --min-t2-ratio (the must-scale bound).
  bool gates_pass = true;
  for (ConfigReport& report : reports) {
    const Row* t1 = nullptr;
    const Row* t2 = nullptr;
    for (const Row& row : report.rows) {
      if (row.threads == 1 && t1 == nullptr) t1 = &row;
      if (row.threads == 2 && t2 == nullptr) t2 = &row;
    }
    if (t1 != nullptr && t2 != nullptr && t1->dense_docs_per_s > 0.0) {
      report.t2_ratio = t2->dense_docs_per_s / t1->dense_docs_per_s;
    }
    report.gate_ratio =
        report.preset.name == "small" ? min_t2_ratio_small : min_t2_ratio;
    if (report.gate_ratio <= 0.0) continue;
    if (t1 == nullptr || t2 == nullptr) {
      std::fprintf(stderr,
                   "[%s] gate needs both 1 and 2 in --threads\n",
                   report.preset.name.c_str());
      report.gate_pass = false;
      gates_pass = false;
      continue;
    }
    report.gate_pass = report.t2_ratio >= report.gate_ratio;
    if (!report.gate_pass) gates_pass = false;
  }

  // The UINT32_MAX sentinel ("parallelism never wins on this machine") is
  // reported as -1, readable where ten digits would not be.
  const auto or_minus_one = [](uint32_t value) {
    return value == UINT32_MAX ? int64_t{-1} : int64_t{value};
  };
  std::vector<std::string> configs;
  for (const ConfigReport& report : reports) {
    const auto t1 =
        std::find_if(report.rows.begin(), report.rows.end(),
                     [](const Row& row) { return row.threads == 1; });
    const Row& base = t1 != report.rows.end() ? *t1 : report.rows.front();
    std::string results;
    for (const Row& row : report.rows) {
      results += (results.empty() ? "" : ",\n       ") +
                 JsonObject(
                     "threads", row.threads,
                     "parallel_efficiency", Fixed(row.efficiency, 3),
                     "overhead_us", Fixed(row.overhead_us, 2),
                     "nn_min_parallel_docs",
                     or_minus_one(row.nn_min_parallel_docs),
                     "dense_docs_per_s", Fixed(row.dense_docs_per_s, 1),
                     "dense_speedup",
                     Fixed(row.dense_docs_per_s / base.dense_docs_per_s, 3),
                     "hybrid_docs_per_s", Fixed(row.hybrid_docs_per_s, 1),
                     "hybrid_speedup",
                     Fixed(row.hybrid_docs_per_s / base.hybrid_docs_per_s, 3),
                     "tree_docs_per_s", Fixed(row.tree_docs_per_s, 1),
                     "tree_speedup",
                     Fixed(row.tree_docs_per_s / base.tree_docs_per_s, 3));
    }
    std::string config;
    AppendMembers(
        &config, "name", report.preset.name, "config",
        Json{JsonObject("features", features, "queries", report.preset.queries,
                        "docs", report.docs, "arch", report.preset.arch,
                        "sparsity", Fixed(sparsity, 3),
                        "trees", report.preset.trees, "repeats", repeats,
                        "seed", seed)},
        "results", Json{"[\n       " + results + "\n     ]"});
    if (report.gate_ratio > 0.0) {
      AppendMembers(&config, "gate",
                    Json{JsonObject("min_t2_ratio", Fixed(report.gate_ratio, 3),
                                    "t2_ratio", Fixed(report.t2_ratio, 3),
                                    "pass", report.gate_pass)});
    }
    configs.push_back("{" + config + "}");
  }
  std::ostringstream json;
  json << "{\n  \"benchmark\": \"bench-scaling\",\n  \"hardware_threads\": "
       << common::ThreadPool::HardwareThreads() << ",\n  \"gemm_kernel\": "
       << Quote(mm::GemmKernelName()) << ",\n  \"configs\": "
       << JsonArray(configs);
  if (obs_spans) {
    obs::MetricsRegistry::Global().SetEnabled(false);
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    json << ",\n  \"obs\": {\"gemm_calls\": "
         << registry.GetCounter("mm.gemm.calls").Value() << ", "
         << GemmSplitJson(GemmSplitMicros(registry))
         << ", \"stats_file\": " << Quote(obs_out) << "}";
  }
  json << "\n}\n";

  std::printf("%s", json.str().c_str());
  if (!WriteJson(out, json.str())) return 1;
  if (obs_spans &&
      !WriteJson(obs_out, obs::MetricsRegistry::Global().ToJson())) {
    return 1;
  }

  for (const ConfigReport& report : reports) {
    if (report.gate_ratio <= 0.0) continue;
    if (!report.gate_pass) {
      std::fprintf(stderr,
                   "FAIL [%s]: dense rung T=2/T=1 throughput ratio "
                   "%.3f < %.3f\n",
                   report.preset.name.c_str(), report.t2_ratio,
                   report.gate_ratio);
    } else {
      std::printf("scaling gate ok [%s]: dense T=2/T=1 ratio %.3f >= %.3f\n",
                  report.preset.name.c_str(), report.t2_ratio,
                  report.gate_ratio);
    }
  }
  return gates_pass ? 0 : 1;
}

/// Exercises the instrumented scoring stack (dense NN, hybrid NN, tree
/// ensemble over a synthetic corpus) with spans enabled and exports the
/// metrics registry as JSON. Doubles as the CI entry point for the layer's
/// two guarantees:
///   --check 1              scores with spans on must be bitwise identical
///                          to scores with spans off (exit 1 otherwise);
///   --max-overhead-pct X   enabled spans may slow the GEMM microbench by
///                          at most X percent (best-of-trials on both
///                          sides, so scheduler noise cannot fail the gate
///                          spuriously).
/// With --in F it instead validates an exported report file and prints it.
int CmdStats(const Args& args) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();

  if (args.Has("in")) {
    const std::string path = args.Get("in", "");
    auto text = ReadFileToString(path);
    if (Failed(text.status())) return 1;
    const std::string error = obs::CheckJsonSyntax(*text);
    if (!error.empty()) {
      std::fprintf(stderr, "%s: invalid JSON: %s\n", path.c_str(),
                   error.c_str());
      return 1;
    }
    std::printf("%s", text->c_str());
    std::fprintf(stderr, "%s: valid JSON\n", path.c_str());
    return 0;
  }

  const auto features = static_cast<uint32_t>(args.GetInt("features", 64));
  const auto queries = static_cast<uint32_t>(args.GetInt("queries", 24));
  const auto seed = static_cast<uint64_t>(args.GetInt("seed", 7));
  const bool check = args.GetInt("check", 0) != 0;
  const double max_overhead_pct = args.GetDouble("max-overhead-pct", 0.0);
  const int trials = args.GetInt("trials", 3);
  const std::string out = args.Get("out", "-");

  const Corpus corpus(queries, features, seed);
  const data::Dataset& dataset = corpus.dataset;

  // One scorer per instrumented subsystem: the dense MLP drives the GEMM
  // spans, the hybrid MLP the sparse first-layer split, the QuickScorer
  // pair the forest traversal spans. Random weights: this command measures
  // plumbing, not ranking quality.
  const gbdt::Ensemble forest_model = TrainForest(dataset, 10, 16);
  const forest::QuickScorer qs(forest_model, dataset.num_features());
  const forest::BlockwiseQuickScorer bwqs(forest_model, dataset.num_features());
  const predict::Architecture arch(dataset.num_features(), {128, 64});
  nn::Mlp dense_mlp(arch, seed);
  nn::Mlp hybrid_mlp(arch, seed + 1);
  nn::WeightMasks masks = prune::MakeDenseMasks(hybrid_mlp);
  prune::LevelPruneLayer(&hybrid_mlp, 0, 0.95, &masks);
  const nn::NeuralScorer dense(dense_mlp, &corpus.normalizer);
  const nn::HybridNeuralScorer hybrid(hybrid_mlp, &corpus.normalizer);

  const forest::DocumentScorer* scorers[] = {&dense, &hybrid, &qs, &bwqs};
  int failures = 0;

  if (check) {
    for (const forest::DocumentScorer* scorer : scorers) {
      registry.SetEnabled(false);
      const std::vector<float> off = scorer->ScoreDataset(dataset);
      registry.SetEnabled(true);
      const std::vector<float> on = scorer->ScoreDataset(dataset);
      registry.SetEnabled(false);
      const bool identical =
          off.size() == on.size() &&
          std::memcmp(off.data(), on.data(), off.size() * sizeof(float)) == 0;
      std::printf("check %-24s %s\n",
                  std::string(scorer->name()).c_str(),
                  identical ? "bitwise identical" : "MISMATCH");
      if (!identical) ++failures;
    }
  }

  if (max_overhead_pct > 0.0) {
    // GFLOPS is best-of-repeats, i.e. min time; taking the best across
    // trials on both sides compares two near-noise-free minima.
    double off_gflops = 0.0;
    double on_gflops = 0.0;
    for (int trial = 0; trial < std::max(1, trials); ++trial) {
      registry.SetEnabled(false);
      off_gflops = std::max(off_gflops, mm::MeasureGemmGflops(256, 256, 64, 5));
      registry.SetEnabled(true);
      on_gflops = std::max(on_gflops, mm::MeasureGemmGflops(256, 256, 64, 5));
    }
    registry.SetEnabled(false);
    const double overhead_pct = (off_gflops / on_gflops - 1.0) * 100.0;
    registry.GetGauge("obs.gemm_overhead_pct").Set(overhead_pct);
    const bool ok = overhead_pct <= max_overhead_pct;
    std::printf("gemm span overhead %.2f%% (gate %.2f%%): %s\n", overhead_pct,
                max_overhead_pct, ok ? "ok" : "FAIL");
    if (!ok) ++failures;
  }

  // The exported workload: a few instrumented passes so every per-stage
  // histogram has samples.
  std::vector<double> gemm_split = GemmSplitMicros(registry);
  registry.SetEnabled(true);
  for (int pass = 0; pass < 3; ++pass) {
    for (const forest::DocumentScorer* scorer : scorers) {
      scorer->ScoreDataset(dataset);
    }
  }
  registry.SetEnabled(false);
  // The GEMM split of the scoring workload alone (the overhead gate's
  // microbench above packs A per call).
  const std::vector<double> gemm_after = GemmSplitMicros(registry);
  for (size_t i = 0; i < gemm_split.size(); ++i) {
    gemm_split[i] = gemm_after[i] - gemm_split[i];
  }
  std::fprintf(stderr, "gemm kernel: %s\nscoring gemm split: {%s}\n",
               mm::GemmKernelName(), GemmSplitJson(gemm_split).c_str());

  const std::string json = registry.ToJson();
  if (out != "-") return WriteJson(out, json) && failures == 0 ? 0 : 1;
  const std::string error = obs::CheckJsonSyntax(json);
  if (!error.empty()) {
    std::fprintf(stderr, "exported stats are not valid JSON: %s\n",
                 error.c_str());
    return 1;
  }
  std::printf("%s", json.c_str());
  return failures == 0 ? 0 : 1;
}

/// Prints a validation report with a `what: ` prefix; returns true when the
/// report has no errors (warnings are printed but do not fail).
bool PrintReport(const char* what, const dnlr::validate::Report& report) {
  std::printf("%s: %s\n", what, report.ToString().c_str());
  return report.ok();
}

int CmdValidate(const Args& args) {
  if (!args.Has("model") && !args.Has("data")) {
    std::fprintf(stderr, "validate needs --model and/or --data\n");
    return 2;
  }
  const uint32_t features =
      static_cast<uint32_t>(args.GetInt("features", 0));
  bool ok = true;

  if (args.Has("model")) {
    const std::string path = args.Get("model", "");
    std::ifstream probe(path);
    std::string first_word;
    if (!probe || !(probe >> first_word)) {
      std::fprintf(stderr, "cannot read %s\n", path.c_str());
      return 1;
    }
    if (first_word == "ensemble") {
      auto model = gbdt::Ensemble::LoadFromFile(path);
      if (Failed(model.status())) return 1;
      validate::Report report;
      gbdt::ValidateEnsemble(*model, features,
                             validate::Checker(&report, "ensemble"));
      ok = PrintReport("ensemble", report) && ok;
      // QuickScorer eligibility is informational: wide/naive engines accept
      // ensembles the single-word QuickScorer cannot handle.
      validate::Report qs_report;
      forest::ValidateForQuickScorer(*model, features, /*max_leaves=*/64,
                                     validate::Checker(&qs_report, "ensemble"));
      std::printf("quickscorer-eligible: %s\n",
                  qs_report.ok() ? "yes" : qs_report.ToString().c_str());
    } else if (first_word == "mlp") {
      auto model = nn::Mlp::LoadFromFile(path);
      if (Failed(model.status())) return 1;
      validate::Report report;
      nn::ValidateMlp(*model, validate::Checker(&report, "mlp"));
      ok = PrintReport("mlp", report) && ok;
    } else {
      std::fprintf(stderr, "unrecognized model file %s (starts with '%s')\n",
                   path.c_str(), first_word.c_str());
      return 1;
    }
  }

  if (args.Has("data")) {
    auto dataset = data::ReadLetorFile(args.Get("data", ""));
    if (Failed(dataset.status())) return 1;
    validate::Report report;
    data::ValidateDataset(
        *dataset, validate::Checker(&report, "dataset"),
        static_cast<float>(args.GetDouble("max-label", 4.0)));
    ok = PrintReport("dataset", report) && ok;
  }

  return ok ? 0 : 1;
}

/// Parses a --rungs spec "name:kind:us_per_doc,..." (kinds: student,
/// teacher, cascade, teacher-subset; costs non-increasing). Exits on junk
/// shape; semantic validation happens in RungConfig::Serialize.
bundle::RungConfig ParseRungSpec(const std::string& csv) {
  bundle::RungConfig config;
  std::stringstream stream(csv);
  std::string item;
  while (std::getline(stream, item, ',')) {
    const size_t first = item.find(':');
    const size_t second = first == std::string::npos
                              ? std::string::npos
                              : item.find(':', first + 1);
    if (second == std::string::npos) {
      std::fprintf(stderr, "bad rung '%s' in --rungs (want name:kind:us)\n",
                   item.c_str());
      std::exit(2);
    }
    bundle::RungSpec spec;
    spec.name = item.substr(0, first);
    spec.kind = item.substr(first + 1, second - first - 1);
    spec.us_per_doc = std::atof(item.c_str() + second + 1);
    config.rungs.push_back(std::move(spec));
  }
  if (config.rungs.empty()) {
    std::fprintf(stderr, "--rungs spec is empty\n");
    std::exit(2);
  }
  return config;
}

/// bundle pack: collects a teacher ensemble, a student MLP, normalizer
/// statistics (fitted on --norm-data) and a rung configuration into one
/// checksummed bundle file, written crash-safely. --binary 1 writes the v2
/// binary (mmap-able) container instead of v1 text; --in seeds the pack
/// from an existing bundle of either format, so
/// `bundle pack --in text.bundle --out fast.bundle --binary 1` converts.
int CmdBundlePack(const Args& args) {
  const std::string out = args.Require("out");
  const bool binary = args.GetInt("binary", 0) != 0;
  bundle::ModelBundle pack;

  if (args.Has("in")) {
    auto loaded = bundle::ModelBundle::LoadFromFile(args.Get("in", ""));
    if (Failed(loaded.status())) return 1;
    pack = std::move(loaded).value();
  }
  if (args.Has("teacher")) {
    auto teacher = gbdt::Ensemble::LoadFromFile(args.Get("teacher", ""));
    if (Failed(teacher.status())) return 1;
    if (Failed(pack.SetTeacher(*teacher))) return 1;
  }
  if (args.Has("student")) {
    auto student = nn::Mlp::LoadFromFile(args.Get("student", ""));
    if (Failed(student.status())) return 1;
    if (Failed(pack.SetStudent(*student))) return 1;
  }
  if (args.Has("norm-data")) {
    const data::Dataset dataset = LoadLetorOrDie(args.Get("norm-data", ""));
    data::ZNormalizer normalizer;
    normalizer.Fit(dataset);
    if (Failed(pack.SetNormalizer(normalizer))) return 1;
  }
  if (args.Has("rungs")) {
    if (Failed(pack.SetRungs(ParseRungSpec(args.Get("rungs", ""))))) return 1;
  }
  if (pack.sections().empty()) {
    std::fprintf(stderr,
                 "nothing to pack: give --in / --teacher / --student / "
                 "--norm-data / --rungs\n");
    return 2;
  }

  if (!EnsureParentDir(out)) return 1;
  // The container fixes the payload codec: SaveToFile(path, kBinary)
  // re-encodes the text payloads, kText writes them as they are.
  const Status status = pack.SaveToFile(
      out, binary ? bundle::BundleFormat::kBinary : bundle::BundleFormat::kText);
  if (Failed(status)) return 1;
  std::printf("packed %zu section(s) into %s (%s)\n", pack.sections().size(),
              out.c_str(), binary ? "binary" : "text");
  for (const bundle::Section& section : pack.sections()) {
    std::printf("  %-10s %zu bytes\n", section.name.c_str(),
                section.payload.size());
  }
  return 0;
}

/// bundle unpack: verifies a bundle and writes each section back out as the
/// standalone per-model text file it was packed from (crash-safely, so an
/// interrupted unpack never leaves torn model files either). ModelBundle
/// payloads are always the text codecs, so a binary bundle unpacks to the
/// same files its text twin does.
int CmdBundleUnpack(const Args& args) {
  const std::string in = args.Require("in");
  const std::string dir = args.Get("out-dir", ".");
  auto loaded = bundle::ModelBundle::LoadFromFile(in);
  if (Failed(loaded.status())) return 1;
  if (loaded->sections().empty()) {
    std::fprintf(stderr, "%s: bundle has no sections\n", in.c_str());
    return 1;
  }
  for (const bundle::Section& section : loaded->sections()) {
    const std::string path =
        (std::filesystem::path(dir) / (section.name + ".txt")).string();
    if (!EnsureParentDir(path)) return 1;
    if (Failed(AtomicWriteFile(path, section.payload))) return 1;
    std::printf("wrote %s (%zu bytes)\n", path.c_str(),
                section.payload.size());
  }
  return 0;
}

/// bundle verify: structural check (magic, version, section order, lengths,
/// CRC32s) plus a full parse and deep validation of every section — the CI
/// gate proving a packed artifact is servable. The file is read once, and
/// every section is typed through MappedBundle: a binary bundle is mapped
/// and also gets the deferred payload-CRC pass serving skips; a text bundle
/// is converted to the binary codecs in memory, which runs every section's
/// text parser.
int CmdBundleVerify(const Args& args) {
  const std::string in = args.Require("in");
  const auto features = static_cast<uint32_t>(args.GetInt("features", 0));
  const auto fail = [&in](const char* stage, const Status& status) {
    std::fprintf(stderr, "%s: %s%s\n", in.c_str(), stage,
                 status.ToString().c_str());
    return 1;
  };
  auto file = common::MappedFile::Open(in);
  if (!file.ok()) return fail("", file.status());
  const bool binary = bundle::IsBinaryBundle(file->view());
  bundle::ModelBundle text;  // the parsed input, for a text bundle
  auto mapped = [&]() -> Result<bundle::MappedBundle> {
    if (binary) return bundle::MappedBundle::FromFile(std::move(*file));
    auto parsed = bundle::ModelBundle::Deserialize(std::string(file->view()));
    if (!parsed.ok()) return parsed.status();
    text = std::move(parsed).value();
    auto bytes = text.SerializeAs(bundle::BundleFormat::kBinary);
    if (!bytes.ok()) return bytes.status();
    return bundle::MappedBundle::FromBytes(std::move(bytes).value());
  }();
  if (!mapped.ok()) return fail(binary ? "mmap path: " : "", mapped.status());
  if (binary) {
    const Status crcs = mapped->VerifyPayloadCrcs();
    if (!crcs.ok()) return fail("mmap path: ", crcs);
    std::printf("mmap: %s, %zu bytes, payload crcs ok\n",
                mapped->is_mapped() ? "mapped" : "read fallback",
                mapped->file_bytes());
  }
  bool ok = true;
  for (const bundle::BinarySectionRange& section : mapped->layout()) {
    std::string verdict = "ok";
    if (section.name == bundle::kTeacherSection) {
      auto teacher = mapped->Teacher();
      if (teacher.ok()) {
        validate::Report report;
        gbdt::ValidateEnsemble(*teacher, features,
                               validate::Checker(&report, "teacher"));
        if (!report.ok()) verdict = report.ToString();
      } else {
        verdict = teacher.status().ToString();
      }
    } else if (section.name == bundle::kStudentSection) {
      auto student = mapped->Student();
      if (student.ok()) {
        validate::Report report;
        nn::ValidateMlp(*student, validate::Checker(&report, "student"));
        if (!report.ok()) verdict = report.ToString();
      } else {
        verdict = student.status().ToString();
      }
    } else if (section.name == bundle::kNormalizerSection) {
      auto normalizer = mapped->Normalizer();
      if (!normalizer.ok()) verdict = normalizer.status().ToString();
    } else {  // rungs: the layout admits no other section name
      auto rungs = mapped->Rungs();
      if (!rungs.ok()) verdict = rungs.status().ToString();
    }
    // Byte counts are the section sizes as stored in the input file.
    const size_t bytes =
        binary ? section.size : text.FindSection(section.name)->size();
    std::printf("%-10s %8zu bytes  %s\n", section.name.c_str(), bytes,
                verdict.c_str());
    if (verdict != "ok") ok = false;
  }
  std::printf("%s: %s (%s, %zu section(s))\n", in.c_str(),
              ok ? "bundle ok" : "bundle INVALID", binary ? "binary" : "text",
              mapped->layout().size());
  return ok ? 0 : 1;
}

/// Random tree for `bundle bench` (same construction as the bundle tests:
/// structure training rarely makes, but valid by the ensemble invariants).
gbdt::RegressionTree BenchRandomTree(Rng& rng, uint32_t leaves,
                                     uint32_t num_features) {
  if (leaves == 1) {
    return gbdt::RegressionTree({}, {rng.Normal()});
  }
  std::vector<gbdt::TreeNode> nodes;
  std::vector<double> values;
  std::function<int32_t(uint32_t)> build = [&](uint32_t budget) -> int32_t {
    if (budget == 1) {
      values.push_back(rng.Normal());
      return gbdt::TreeNode::EncodeLeaf(
          static_cast<uint32_t>(values.size() - 1));
    }
    const uint32_t left_budget =
        1 + static_cast<uint32_t>(rng.Below(budget - 1));
    const auto index = static_cast<int32_t>(nodes.size());
    nodes.push_back({});
    nodes[index].feature = static_cast<uint32_t>(rng.Below(num_features));
    nodes[index].threshold = static_cast<float>(rng.Normal(0.0, 2.0));
    const int32_t left = build(left_budget);
    nodes[index].left = left;
    const int32_t right = build(budget - left_budget);
    nodes[index].right = right;
    return index;
  };
  build(leaves);
  gbdt::RegressionTree tree(std::move(nodes), std::move(values));
  tree.NormalizeLeafOrder();
  return tree;
}

/// bundle bench: packs one randomly initialized model family as both a v1
/// text bundle and a v2 binary bundle, measures cold bundle-load +
/// model-materialization time for each (text: read + parse; binary: mmap +
/// bounds-checked memcpy decode; best of --iters), and proves the two
/// loads materialize bitwise-identical models by comparing their canonical
/// text serializations. --min-speedup gates the binary/text load-time
/// ratio — the CI evidence for the binary format's load-time claim.
int CmdBundleBench(const Args& args) {
  const auto features = static_cast<uint32_t>(args.GetInt("features", 136));
  const auto trees = static_cast<uint32_t>(args.GetInt("trees", 300));
  const auto leaves = static_cast<uint32_t>(args.GetInt("leaves", 64));
  const std::string arch_spec = args.Get("arch", "512x256x128");
  const int iters = std::max(1, args.GetInt("iters", 7));
  const double min_speedup = args.GetDouble("min-speedup", 0.0);
  const std::string dir = args.Get("dir", "out");
  const auto seed = static_cast<uint64_t>(args.GetInt("seed", 42));

  Rng rng(seed);
  gbdt::Ensemble teacher(rng.Normal());
  for (uint32_t t = 0; t < trees; ++t) {
    const auto tree_leaves = 1 + static_cast<uint32_t>(rng.Below(leaves));
    teacher.AddTree(BenchRandomTree(rng, tree_leaves, features));
  }
  auto arch = predict::Architecture::Parse(arch_spec, features);
  if (Failed(arch.status())) return 1;
  const nn::Mlp student(*arch, seed + 1);
  std::vector<float> mean(features);
  std::vector<float> stddev(features);
  for (uint32_t f = 0; f < features; ++f) {
    mean[f] = static_cast<float>(rng.Normal());
    stddev[f] = static_cast<float>(0.5 + rng.Uniform());
  }
  const data::ZNormalizer normalizer(std::move(mean), std::move(stddev));
  bundle::RungConfig rungs;
  rungs.rungs = {{"student", "student", 3.0},
                 {"cascade", "cascade", 2.0},
                 {"forest-subset", "teacher-subset", 1.0}};

  bundle::ModelBundle pack;
  Status status = pack.SetTeacher(teacher);
  if (status.ok()) status = pack.SetStudent(student);
  if (status.ok()) status = pack.SetNormalizer(normalizer);
  if (status.ok()) status = pack.SetRungs(rungs);
  const std::string text_path =
      (std::filesystem::path(dir) / "bundle_bench_text.dnlr").string();
  const std::string binary_path =
      (std::filesystem::path(dir) / "bundle_bench_binary.dnlr").string();
  if (status.ok() && !EnsureParentDir(text_path)) return 1;
  if (status.ok()) {
    status = pack.SaveToFile(text_path, bundle::BundleFormat::kText);
  }
  if (status.ok()) {
    status = pack.SaveToFile(binary_path, bundle::BundleFormat::kBinary);
  }
  if (Failed(status)) return 1;

  // The canonical text container of the models materialized on the first
  // iteration of each path; equal strings = bitwise-equal parameters (the
  // text codecs print max_digits10).
  const auto fingerprint = [](const auto& teacher, const auto& student,
                              const auto& normalizer,
                              const auto& rungs) -> Result<std::string> {
    bundle::ModelBundle models;
    Status status = models.SetTeacher(*teacher);
    if (status.ok()) status = models.SetStudent(*student);
    if (status.ok()) status = models.SetNormalizer(*normalizer);
    if (status.ok()) status = models.SetRungs(*rungs);
    if (!status.ok()) return status;
    return models.Serialize();
  };

  // Best-of-iters cold load (`load` opens the container) + materialization
  // (`decode` returns the four model decoders' Results over it); the first
  // iteration's models are fingerprinted into `fp`.
  using Clock = std::chrono::steady_clock;
  const auto time_loads = [&](const auto& load, const auto& decode,
                              double* best_us, std::string* fp) {
    *best_us = std::numeric_limits<double>::infinity();
    for (int i = 0; i < iters; ++i) {
      const auto start = Clock::now();
      auto loaded = load();
      if (Failed(loaded.status())) return false;
      const auto models = decode(*loaded);
      if (!std::apply([](const auto&... m) { return (m.ok() && ...); },
                      models)) {
        std::fprintf(stderr, "load failed to materialize a model\n");
        return false;
      }
      const std::chrono::duration<double, std::micro> elapsed =
          Clock::now() - start;
      *best_us = std::min(*best_us, elapsed.count());
      if (i == 0) {
        auto fingerprinted = std::apply(fingerprint, models);
        if (Failed(fingerprinted.status())) return false;
        *fp = std::move(*fingerprinted);
      }
    }
    return true;
  };
  double text_us = 0.0;
  double binary_us = 0.0;
  std::string text_fingerprint;
  std::string binary_fingerprint;
  bool mmap_used = false;
  const auto load_text = [&] {
    return bundle::ModelBundle::LoadFromFile(text_path);
  };
  // The text load: the four text parsers over the container's payloads,
  // stored in canonical order (teacher, student, normalizer, rungs).
  const auto parse_text = [](const bundle::ModelBundle& loaded) {
    const std::vector<bundle::Section>& s = loaded.sections();
    DNLR_CHECK_EQ(s.size(), 4u);
    return std::make_tuple(gbdt::Ensemble::Deserialize(s[0].payload),
                           nn::Mlp::Deserialize(s[1].payload),
                           bundle::DeserializeNormalizer(s[2].payload),
                           bundle::RungConfig::Deserialize(s[3].payload));
  };
  const auto load_binary = [&] {
    auto mapped = bundle::MappedBundle::Map(binary_path);
    mmap_used = mapped.ok() && mapped->is_mapped();
    return mapped;
  };
  const auto decode_binary = [](const bundle::MappedBundle& mapped) {
    return std::make_tuple(mapped.Teacher(), mapped.Student(),
                           mapped.Normalizer(), mapped.Rungs());
  };
  if (!time_loads(load_text, parse_text, &text_us, &text_fingerprint) ||
      !time_loads(load_binary, decode_binary, &binary_us,
                  &binary_fingerprint)) {
    return 1;
  }

  if (text_fingerprint != binary_fingerprint) {
    std::fprintf(stderr,
                 "FAIL: binary load materialized different model parameters "
                 "than the text load\n");
    return 1;
  }

  const auto text_size = std::filesystem::file_size(text_path);
  const auto binary_size = std::filesystem::file_size(binary_path);
  const double speedup = text_us / binary_us;
  std::printf("text    %10ju bytes  load %10.1f us  (%s)\n",
              static_cast<uintmax_t>(text_size), text_us, text_path.c_str());
  std::printf("binary  %10ju bytes  load %10.1f us  (%s, %s)\n",
              static_cast<uintmax_t>(binary_size), binary_us,
              binary_path.c_str(), mmap_used ? "mmap" : "read fallback");
  std::printf("speedup %.1fx, models bitwise identical\n", speedup);
  if (min_speedup > 0.0 && speedup < min_speedup) {
    std::fprintf(stderr, "FAIL: speedup %.1fx below --min-speedup %.1f\n",
                 speedup, min_speedup);
    return 1;
  }
  return 0;
}

/// Every command and its usage line. The --flags a usage line names are
/// exactly the flags the command accepts; serve-bench has one line per mode.
struct Command {
  const char* name;
  const char* usage;
  int (*run)(const Args&);
};
constexpr Command kCommands[] = {
    {"gen", "--out F [--queries N] [--features K] [--style msn|istella] "
            "[--seed S]", CmdGen},
    {"train-forest", "--train F --out M [--valid F] [--trees N] [--leaves L] "
                     "[--lr R] [--min-docs N] [--l2 X] [--tune T]",
     CmdTrainForest},
    {"distill", "--train F --teacher M --arch AxBxC --out M [--prune 0.97] "
                "[--epochs E] [--batch N] [--lr R]", CmdDistill},
    {"score", "--model M --data F [--out F|-] "
              "[--engine qs|vqs|wide|naive|dense|hybrid] [--time 1]",
     CmdScore},
    {"evaluate", "--model M --data F [--engine ...]", CmdEvaluate},
    {"predict-time", "--arch AxBxC [--features K] [--batch N] [--sparsity S]",
     CmdPredictTime},
    {"validate", "[--model M] [--data F] [--features K] [--max-label L]",
     CmdValidate},
    {"serve-bench", kLatencyUsage, CmdServeBench},
    {"serve-bench", kReloadUsage, CmdServeBench},
    {"serve-bench", kShardsUsage, CmdServeBench},
    {"soak-bench", kSoakUsage, CmdSoakBench},
    {"bundle pack", "--out B [--in B] [--binary 1] [--teacher M] "
                    "[--student M] [--norm-data F] [--rungs name:kind:us,...]",
     CmdBundlePack},
    {"bundle unpack", "--in B [--out-dir D]", CmdBundleUnpack},
    {"bundle verify", "--in B [--features K]", CmdBundleVerify},
    {"bundle bench", "[--trees N] [--leaves L] [--arch AxBxC] [--features K] "
                     "[--iters I] [--min-speedup X] [--dir D] [--seed S]",
     CmdBundleBench},
    {"bench-scaling", "[--configs small,large] [--threads 1,2,4] "
                      "[--arch AxBxC] [--features K] [--queries N] "
                      "[--sparsity S] [--trees N] [--repeats R] [--seed S] "
                      "[--min-t2-ratio R] [--min-t2-ratio-small R] [--obs 1] "
                      "[--obs-out F] [--out F]", CmdBenchScaling},
    {"stats", "[--in F] [--check 1] [--max-overhead-pct X] [--trials T] "
              "[--features K] [--queries N] [--seed S] [--out F|-]",
     CmdStats},
};

int Usage() {
  std::fprintf(stderr, "usage: dnlr_cli <command> [--flag value ...]\n");
  for (const Command& command : kCommands) {
    std::fprintf(stderr, "  %-13s %s\n", command.name, command.usage);
  }
  return 2;
}

}  // namespace
}  // namespace dnlr::cli

int main(int argc, char** argv) {
  using namespace dnlr::cli;
  if (argc < 2) return Usage();
  const bool bundle = std::string(argv[1]) == "bundle" && argc > 2;
  const std::string name =
      bundle ? std::string("bundle ") + argv[2] : std::string(argv[1]);
  const Args args(argc, argv, bundle ? 3 : 2);
  // A command may have several usage lines (modes); it accepts their union.
  std::string usage;
  const Command* found = nullptr;
  for (const Command& command : kCommands) {
    if (name != command.name) continue;
    usage.append(command.usage).append(" ");
    found = found != nullptr ? found : &command;
  }
  if (found == nullptr) return Usage();
  args.Accept(usage);
  return found->run(args);
}
