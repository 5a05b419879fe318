#ifndef DNLR_SERVE_ROUTER_H_
#define DNLR_SERVE_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/hash_ring.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/token_bucket.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "serve/ladder.h"

namespace dnlr::serve {

/// Traffic-steering state of one shard. Mirrors the rung circuit breaker
/// one level up: where a breaker quarantines one rung inside an engine, the
/// router quarantines a whole engine inside the fleet.
///
///   kHealthy     primary traffic flows.
///   kDraining    health score crossed the quarantine threshold: no NEW
///                requests are routed here, in-flight work finishes.
///   kQuarantined fully fenced for quarantine_micros; tenants fail over to
///                the ring's next healthy shard.
///   kProbing     quarantine expired: a bounded number of live requests
///                probe the shard; probe_successes_to_readmit consecutive
///                successes readmit it, one failure re-quarantines it.
enum class ShardState { kHealthy, kDraining, kQuarantined, kProbing };

/// "healthy" / "draining" / "quarantined" / "probing".
const char* ShardStateName(ShardState state);

/// Per-tenant admission allowance: a token bucket refilling at
/// tokens_per_second up to burst (see common::TokenBucket).
struct TenantQuota {
  double tokens_per_second = 1e6;
  double burst = 1e5;
};

/// Tenants without an explicit SetTenantQuota override get the default
/// TenantQuota, which is effectively unlimited: admission control is opt-in.
/// The ring's virtual points per shard, the live probes a probing shard
/// admits and the failover hops per request are constants in router.cc.
struct RouterConfig {
  /// Rolling health window: failure rate is measured over the current and
  /// previous windows of this length.
  uint64_t health_window_micros = 50'000;
  /// Minimum outcomes in the rolling window before the failure rate is
  /// trusted (a single early fault must not quarantine a cold shard).
  uint32_t min_window_requests = 16;
  /// A shard whose health score (windowed failure rate +
  /// saturation_weight * queue-saturation fraction) reaches this starts
  /// draining.
  double quarantine_score = 0.5;
  double saturation_weight = 0.5;
  /// Drain length: how long a draining shard may finish in-flight work
  /// before the fence hardens into quarantine.
  uint64_t drain_micros = 20'000;
  /// Quarantine length before the shard may probe again.
  uint64_t quarantine_micros = 100'000;
  /// Consecutive successful probes that readmit a probing shard; one
  /// failed probe re-quarantines it.
  uint32_t probe_successes_to_readmit = 3;
};

/// Point-in-time copy of the router's own counters (admission, routing and
/// lifecycle events; per-request serving counters live in each shard's
/// engine).
struct RouterCountersSnapshot {
  uint64_t requests = 0;
  uint64_t admitted = 0;
  uint64_t quota_rejected = 0;     // bounced by the tenant's token bucket
  uint64_t failover_picks = 0;     // primary unhealthy, dispatched elsewhere
  uint64_t failover_retries = 0;   // re-dispatched after a shard-side failure
  uint64_t forced_primary = 0;     // nothing healthy: primary tried anyway
  uint64_t no_shard_available = 0; // every shard stopped: request rejected
  uint64_t skipped_stopped = 0;    // candidate skipped: engine not accepting
  uint64_t drains = 0;
  uint64_t quarantines = 0;
  uint64_t probes = 0;
  uint64_t readmissions = 0;
};

/// Lock-free counters (relaxed throughout: independent statistics, never a
/// synchronization point — same contract as ServeCounters).
class RouterCounters {
 public:
  RouterCounters() = default;
  RouterCounters(const RouterCounters&) = delete;
  RouterCounters& operator=(const RouterCounters&) = delete;

  RouterCountersSnapshot Snapshot() const {
    // Relaxed loads: per-counter (not cross-counter) consistency, as in
    // ServeCounters::Snapshot.
    const auto read = [](const std::atomic<uint64_t>& c) {
      return c.load(std::memory_order_relaxed);
    };
    RouterCountersSnapshot snap;
    snap.requests = read(requests);
    snap.admitted = read(admitted);
    snap.quota_rejected = read(quota_rejected);
    snap.failover_picks = read(failover_picks);
    snap.failover_retries = read(failover_retries);
    snap.forced_primary = read(forced_primary);
    snap.no_shard_available = read(no_shard_available);
    snap.skipped_stopped = read(skipped_stopped);
    snap.drains = read(drains);
    snap.quarantines = read(quarantines);
    snap.probes = read(probes);
    snap.readmissions = read(readmissions);
    return snap;
  }

  std::atomic<uint64_t> requests{0};
  std::atomic<uint64_t> admitted{0};
  std::atomic<uint64_t> quota_rejected{0};
  std::atomic<uint64_t> failover_picks{0};
  std::atomic<uint64_t> failover_retries{0};
  std::atomic<uint64_t> forced_primary{0};
  std::atomic<uint64_t> no_shard_available{0};
  std::atomic<uint64_t> skipped_stopped{0};
  std::atomic<uint64_t> drains{0};
  std::atomic<uint64_t> quarantines{0};
  std::atomic<uint64_t> probes{0};
  std::atomic<uint64_t> readmissions{0};
};

/// Per-tenant SLO rollup assembled from the tenant's registry metrics.
struct TenantSlo {
  uint64_t requests = 0;
  uint64_t ok = 0;
  uint64_t errors = 0;          // admitted but failed (shard-side status)
  uint64_t quota_rejected = 0;  // bounced before reaching any shard
  double p50_us = 0.0;
  double p99_us = 0.0;
  double error_rate = 0.0;        // errors / admitted
  double quota_reject_rate = 0.0; // quota_rejected / requests
};

/// Sharded multi-tenant serving front end: owns N ServingEngine shards and
/// routes each tenant's traffic to one of them.
///
/// The request path, in order:
///   1. Admission — the tenant's token bucket (quota refills on the
///      pluggable Clock, so FakeClock tests are deterministic). A tenant
///      over quota is bounced with ResourceExhausted before touching any
///      shard: one abusive caller saturates its own allowance, never the
///      fleet.
///   2. Placement — consistent hash of the tenant id picks the primary
///      shard; the ring's PreferenceOrder is the failover list. Removing or
///      quarantining a shard only moves that shard's tenants.
///   3. Health routing — shards track a rolling failure rate plus queue
///      saturation; an unhealthy shard walks the
///      drain -> quarantine -> half-open-probe -> readmit lifecycle
///      (mirroring the per-rung circuit breakers one level down) and
///      primary traffic fails over to the next healthy shard meanwhile.
///      Stopped engines are recognized distinctly (shed_stopped vs
///      shed_queue_full) and skipped outright rather than probed.
///   4. Dispatch — the request runs on the chosen shard's engine with the
///      caller's deadline; on a shard-side failure with budget left it
///      retries on the next shard in preference order (bounded hops).
///
/// Each shard may pin its own model generation via SwapModelOnShard (the
/// engine's RCU hot swap), which is how per-tenant model generations are
/// served in isolation. Per-tenant counters and latency histograms flow
/// through obs::MetricsRegistry under "router.tenant<id>.*".
///
/// Thread-safe: ScoreSync may be called from any number of tenant threads.
class ShardedRouter {
 public:
  /// One engine per ladder handle; `ladders` must be non-empty and every
  /// handle non-null. All shards share `engine_config` and `clock`.
  ShardedRouter(std::vector<std::shared_ptr<const DegradationLadder>> ladders,
                const ServingConfig& engine_config, RouterConfig config,
                Clock* clock = Clock::Real());
  ~ShardedRouter();

  ShardedRouter(const ShardedRouter&) = delete;
  ShardedRouter& operator=(const ShardedRouter&) = delete;

  struct Response {
    /// The shard's answer; on a quota reject or no-shard-available this
    /// carries the rejection status and no scores.
    ServeResponse serve;
    /// Which shard answered (-1 when the request never reached one).
    int shard = -1;
    /// True when the answering shard is not the tenant's primary.
    bool failover = false;
    /// True when the request was admitted past the tenant's token bucket.
    bool admitted = false;
  };

  /// Scores one request for `tenant` and blocks for the answer (callers
  /// provide concurrency by calling from multiple threads, which is also
  /// what lets the router observe every outcome synchronously for health
  /// accounting).
  Response ScoreSync(uint64_t tenant, const float* docs, uint32_t count,
                     uint32_t stride, uint64_t budget_micros);

  /// Replaces `tenant`'s admission quota (and creates the tenant record if
  /// this is the first sight of it). Takes effect for subsequent requests;
  /// the new bucket starts full.
  void SetTenantQuota(uint64_t tenant, const TenantQuota& quota)
      DNLR_EXCLUDES(tenant_mu_);

  /// Hot-swaps shard `shard`'s model generation (see
  /// ServingEngine::SwapModel — validation gate, RCU publication, breaker
  /// reset). Swapping clears the shard's rolling outcome window (the old
  /// generation's failures are not charged to the new one) but keeps its
  /// lifecycle state: a quarantined shard is not readmitted just because a
  /// generation shipped — the half-open probes must prove the fix.
  Status SwapModelOnShard(size_t shard,
                          std::shared_ptr<const DegradationLadder> next,
                          const ServingEngine::SwapValidator& validate =
                              nullptr) DNLR_EXCLUDES(state_mu_);

  size_t num_shards() const { return shards_.size(); }
  /// The shard `tenant` hashes to when every shard is healthy.
  uint32_t PrimaryShardFor(uint64_t tenant) const;
  /// Failover preference order for `tenant` (primary first).
  std::vector<uint32_t> PreferenceOrderFor(uint64_t tenant) const;

  ShardState shard_state(size_t shard) const DNLR_EXCLUDES(state_mu_);
  /// Windowed failure rate in [0, 1] of shard `shard` right now.
  double shard_failure_rate(size_t shard) const DNLR_EXCLUDES(state_mu_);
  /// failure rate + saturation_weight * queue fraction — the quantity
  /// compared against quarantine_score.
  double shard_health_score(size_t shard) const DNLR_EXCLUDES(state_mu_);

  ServingEngine& shard_engine(size_t shard) { return *shards_[shard].engine; }
  const ServingEngine& shard_engine(size_t shard) const {
    return *shards_[shard].engine;
  }

  const RouterCounters& counters() const { return counters_; }
  Clock& clock() const { return *clock_; }

  /// SLO rollup for one tenant, assembled from its registry metrics.
  TenantSlo TenantSloSnapshot(uint64_t tenant) DNLR_EXCLUDES(tenant_mu_);
  /// Every tenant id the router has seen (quota overrides included).
  std::vector<uint64_t> KnownTenants() const DNLR_EXCLUDES(tenant_mu_);

  /// Stops every shard engine (idempotent; also run by the destructor).
  void Stop();

 private:
  /// Rolling two-bucket outcome window plus lifecycle state of one shard.
  /// All fields guarded by state_mu_ (health decisions are rare and cheap
  /// next to scoring a batch, so one mutex for the fleet is fine).
  struct Health {
    ShardState state = ShardState::kHealthy;
    uint64_t window_start = 0;
    uint64_t cur_ok = 0;
    uint64_t cur_fail = 0;
    uint64_t prev_ok = 0;
    uint64_t prev_fail = 0;
    /// Drain end (kDraining) or quarantine end (kQuarantined).
    uint64_t state_until = 0;
    uint32_t probe_successes = 0;
    uint32_t probes_in_flight = 0;
  };

  struct Shard {
    std::unique_ptr<ServingEngine> engine;
    Health health;  // guarded by state_mu_ (see Health)
  };

  /// Per-tenant admission + metrics record; stable address (unique_ptr in
  /// the map) so the hot path can use it outside tenant_mu_. The metric
  /// pointers are immutable after creation; the bucket is read via a
  /// shared_ptr snapshot (see TenantBucket) so SetTenantQuota can replace
  /// it while requests are in flight.
  struct Tenant {
    /// The pointer (not the bucket) is guarded by tenant_mu_; nested
    /// structs cannot name the outer mutex in an annotation, so the guard
    /// is by convention: every read goes through TenantBucket.
    std::shared_ptr<common::TokenBucket> bucket;
    obs::Counter* requests = nullptr;
    obs::Counter* ok = nullptr;
    obs::Counter* errors = nullptr;
    obs::Counter* quota_rejected = nullptr;
    obs::Histogram* latency = nullptr;
  };

  Tenant& GetTenant(uint64_t id) DNLR_EXCLUDES(tenant_mu_);
  std::shared_ptr<common::TokenBucket> TenantBucket(Tenant& record)
      DNLR_EXCLUDES(tenant_mu_);

  /// Picks the next shard to try for this request: the first admittable
  /// candidate in `prefer` at or after `start_hop`. Returns -1 when no
  /// candidate may take traffic (the caller then forces the primary or
  /// rejects). `*is_probe` is set when the pick claimed a probe slot and
  /// must be resolved by RecordOutcome.
  int PickShard(const std::vector<uint32_t>& prefer, size_t start_hop,
                uint64_t now, bool* is_probe) DNLR_EXCLUDES(state_mu_);

  /// Folds one completed dispatch into the shard's health window and runs
  /// the lifecycle transitions.
  void RecordOutcome(size_t shard, bool failure, bool was_probe,
                     uint64_t now) DNLR_EXCLUDES(state_mu_);

  void RollWindowLocked(Health& health, uint64_t now)
      DNLR_REQUIRES(state_mu_);
  double FailureRateLocked(const Health& health) const
      DNLR_REQUIRES(state_mu_);
  double HealthScoreLocked(const Shard& shard) const DNLR_REQUIRES(state_mu_);
  /// Lazy, clock-driven part of the state machine (drain expiry, quarantine
  /// expiry); called with `now` before reading or admitting.
  void AdvanceStateLocked(Shard& shard, uint64_t now) DNLR_REQUIRES(state_mu_);

  RouterConfig config_;
  ServingConfig engine_config_;
  Clock* clock_;
  common::HashRing ring_;
  /// Registry namespace of this instance's tenant metrics
  /// ("router<instance>.tenant").
  std::string metric_prefix_;
  std::vector<Shard> shards_;
  RouterCounters counters_;

  mutable common::Mutex state_mu_;

  mutable common::Mutex tenant_mu_;
  std::map<uint64_t, std::unique_ptr<Tenant>> tenants_
      DNLR_GUARDED_BY(tenant_mu_);
};

}  // namespace dnlr::serve

#endif  // DNLR_SERVE_ROUTER_H_
