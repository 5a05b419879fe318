// The dnlr_cli serving benchmarks: `serve-bench` (latency ladder,
// --reload-every hot reload, --shards tenant isolation) and `soak-bench`
// (traffic replay with a hot score cache).

#ifndef DNLR_TOOLS_SERVE_BENCH_H_
#define DNLR_TOOLS_SERVE_BENCH_H_

#include "cli.h"

namespace dnlr::cli {

/// Usage lines (and so accepted flags) of each serving scenario.
inline constexpr char kLatencyUsage[] =
    "[--requests N] [--deadline-us U] [--fault-rate P] [--spike-rate P] "
    "[--threads T] [--obs 1] [--queries N] [--trees N] [--out F] "
    "[--obs-out F]";
inline constexpr char kReloadUsage[] =
    "--reload-every N [--requests N] [--binary 1] [--bundle B] [--out F]";
inline constexpr char kShardsUsage[] =
    "--shards N [--tenants M] [--abusive-tenant T] [--soak-ms D] "
    "[--quota-rate R] [--quota-burst B] [--p99-ratio X] [--out F]";
inline constexpr char kSoakUsage[] =
    "[--duration-ms D] [--qps R] [--queries N] [--features K] "
    "[--reload-every-ms D] [--min-hit-rate R] [--letor F] [--bundle B] "
    "[--out F]";

/// `serve-bench`: the latency bench by default, the hot-reload bench with
/// --reload-every N, the sharded tenant-isolation soak with --shards N.
int CmdServeBench(const Args& args);

/// `soak-bench`: traffic replay against one engine with a score cache.
int CmdSoakBench(const Args& args);

}  // namespace dnlr::cli

#endif  // DNLR_TOOLS_SERVE_BENCH_H_
