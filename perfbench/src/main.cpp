// perfbench — the repository's benchmark program.
//
//   perfbench --workload lowrank_tall|serve_cold|cluster_hot --seed N
//             --seconds S --trace 0|1 [--rate R] [--smoke] [--perturb]
//             [--out-dir DIR] [--revision REV]
//
// Prints a detail line (metadata, percentile sample counts) and, last, one
// JSON object {"correct","attempted","failed","metrics"}. With --trace 0
// the metrics are the end-to-end set; with --trace 1 the per-layer set,
// taken from spans recorded around calls into each layer. Exits 1 on any
// failed operation or failed correctness check.
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.hpp"

namespace perfbench {
namespace {

struct Spec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json.
constexpr Spec kEndToEnd[] = {
    {"setup_s", "s"},          {"throughput_ops_s", "1/s"},
    {"latency_p50_ms", "ms"},  {"latency_p90_ms", "ms"},
    {"success_ratio", "ratio"}, {"residual_ratio_max", "ratio"},
    {"peak_rss_mb", "MB"},
};

constexpr Spec kPerLayer[] = {
    {"rng.fill_ms", "ms"},
    {"rng.variates_per_s", "1/s"},
    {"la.gemm_sample_ms", "ms"},
    {"la.gemm_sample_gflops", "GFLOP/s"},
    {"la.gemm_power_ms", "ms"},
    {"la.gemm_flops_per_op", "flop"},
    {"la.gemm_bytes_per_op", "B"},
    {"la.pool_split_batches_per_op", "count"},
    {"ortho.rows_ms", "ms"},
    {"ortho.cols_ms", "ms"},
    {"rsvd.step1_ms", "ms"},
    {"rsvd.step23_ms", "ms"},
    {"rsvd.unaccounted_ratio", "ratio"},
    {"rsvd.cholqr_fallbacks", "count"},
    {"qrcp.truncated_ms", "ms"},
    {"qrcp.rqrcp_exec_ms", "ms"},
    {"runtime.queue_wait_p50_ms", "ms"},
    {"runtime.queue_wait_p90_ms", "ms"},
    {"runtime.exec_p50_ms", "ms"},
    {"runtime.batch_size_mean", "count"},
    {"runtime.worker_busy_ratio", "ratio"},
    {"runtime.result_hit_ratio", "ratio"},
    {"runtime.sketch_hit_ratio", "ratio"},
    {"net.overhead_p50_ms", "ms"},
    {"net.overhead_p90_ms", "ms"},
    {"net.decode_inline_us", "us"},
    {"net.decode_generator_us", "us"},
    {"net.encode_result_us", "us"},
    {"net.request_bytes", "B"},
    {"net.reply_bytes", "B"},
    {"net.busy_ratio", "ratio"},
    {"cluster.hop_p50_ms", "ms"},
    {"cluster.shard_skew", "ratio"},
    {"cluster.forward_errors", "count"},
    {"cluster.rerouted", "count"},
    {"bench.late_p90_ms", "ms"},
    {"bench.ops", "count"},
    {"bench.trace_overhead_ratio", "ratio"},
    {"bench.unaccounted_share_p50", "ratio"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "lowrank_tall|serve_cold|cluster_hot --seed N --seconds S "
               "--trace 0|1 [--rate R] [--smoke] [--perturb] [--out-dir DIR] "
               "[--revision REV]\n",
               why);
  return 2;
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const bool has = i + 1 < argc;
    if (k == "--smoke") a.smoke = true;
    else if (k == "--perturb") a.perturb = true;
    else if (!has) return false;
    else if (k == "--workload") a.workload = argv[++i];
    else if (k == "--seed") a.seed = std::strtoull(argv[++i], nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(argv[++i]);
    else if (k == "--trace") a.trace = std::atoi(argv[++i]) != 0;
    else if (k == "--rate") a.rate = std::atof(argv[++i]);
    else if (k == "--out-dir") a.out_dir = argv[++i];
    else if (k == "--revision") a.revision = argv[++i];
    else return false;
  }
  return !a.workload.empty() && a.seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse(argc, argv, args)) return usage("bad arguments");
  const bool serving = args.workload == "serve_cold" || args.workload == "cluster_hot";
  if (serving && !(args.rate > 0)) return usage("--rate is required for this workload");
  mkdir(args.out_dir.c_str(), 0755);

  Report rep;
  if (args.workload == "lowrank_tall") run_lowrank_tall(args, rep);
  else if (args.workload == "serve_cold") run_serve_cold(args, rep);
  else if (args.workload == "cluster_hot") run_cluster_hot(args, rep);
  else return usage("unknown workload");
  if (rep.setup_s.empty()) {
    std::fprintf(stderr, "perfbench: %s did not run\n", args.workload.c_str());
    return 1;
  }

  rep.add("setup_s", median(rep.setup_s), "s");
  rep.add("peak_rss_mb", peak_rss_mb(), "MB");

  std::string detail = "{\"meta\":{" + metadata_json(args) + "}";
  for (const auto& n : rep.notes) detail += "," + n;
  detail += ",\"setup_reps_s\":[";
  for (std::size_t i = 0; i < rep.setup_s.size(); ++i)
    detail += (i ? "," : "") + std::to_string(rep.setup_s[i]);
  detail += "]}";
  std::printf("%s\n", detail.c_str());

  std::string metrics;
  auto emit = [&](const Spec& s, bool required) {
    const Report::Metric* found = nullptr;
    for (const auto& m : rep.metrics)
      if (m.name == s.name) found = &m;
    if (!found && required) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n", s.name);
      rep.correct = false;
    }
    // 0: layer not on this workload's path. A non-finite value (a tail
    // made of failed requests) prints as the largest double, never better.
    double v = found ? found->value : 0.0;
    if (!std::isfinite(v)) v = 1e308;
    char buf[192];
    std::snprintf(buf, sizeof buf, "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  metrics.empty() ? "" : ",", s.name, v,
                  s.unit);
    metrics += buf;
  };
  if (args.trace)
    for (const auto& s : kPerLayer) emit(s, false);
  else
    for (const auto& s : kEndToEnd) emit(s, true);

  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}\n",
              rep.correct ? "true" : "false", (unsigned long long)rep.attempted,
              (unsigned long long)rep.failed, metrics.c_str());
  std::fflush(stdout);
  return rep.correct && rep.failed == 0 ? 0 : 1;
}
