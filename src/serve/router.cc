#include "serve/router.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"
#include "serve/deadline.h"

namespace dnlr::serve {
namespace {

/// Virtual points per shard on the consistent-hash ring.
constexpr uint32_t kVirtualNodes = 64;
/// Live requests allowed onto a probing shard at once.
constexpr uint32_t kMaxProbesInFlight = 1;
/// After a shard-side failure, how many further preference-order shards one
/// request may try before its failure is returned to the caller.
constexpr uint32_t kMaxFailoverHops = 2;

// Relaxed increment: router counters are independent statistics, never a
// synchronization point (see RouterCounters).
void Bump(std::atomic<uint64_t>& counter) {
  counter.fetch_add(1, std::memory_order_relaxed);
}

/// Failures the shard (not the caller) is responsible for: rung faults,
/// shed load and blown deadlines count against shard health; an
/// InvalidArgument request does not.
bool IsShardFault(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInternal:
    case StatusCode::kResourceExhausted:
    case StatusCode::kDeadlineExceeded:
      return true;
    default:
      return false;
  }
}

/// Distinct registry namespace per router instance, so two routers in one
/// process (or two tests in one binary) never fold their tenants' series
/// together.
uint32_t NextRouterInstance() {
  static std::atomic<uint32_t> next{0};
  // Relaxed: a unique-id ticket; no other data is published through it.
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

const char* ShardStateName(ShardState state) {
  switch (state) {
    case ShardState::kHealthy:
      return "healthy";
    case ShardState::kDraining:
      return "draining";
    case ShardState::kQuarantined:
      return "quarantined";
    case ShardState::kProbing:
      return "probing";
  }
  return "unknown";
}

ShardedRouter::ShardedRouter(
    std::vector<std::shared_ptr<const DegradationLadder>> ladders,
    const ServingConfig& engine_config, RouterConfig config, Clock* clock)
    : config_(config),
      engine_config_(engine_config),
      clock_(clock),
      ring_(kVirtualNodes),
      metric_prefix_("router" + std::to_string(NextRouterInstance()) +
                     ".tenant") {
  DNLR_CHECK(clock_ != nullptr);
  DNLR_CHECK_GE(ladders.size(), 1u);
  DNLR_CHECK_GE(config_.health_window_micros, 1u);
  DNLR_CHECK_GE(config_.min_window_requests, 1u);
  DNLR_CHECK_GT(config_.quarantine_score, 0.0);
  DNLR_CHECK_GE(config_.saturation_weight, 0.0);
  DNLR_CHECK_GE(config_.probe_successes_to_readmit, 1u);
  const uint64_t now = clock_->NowMicros();
  shards_.reserve(ladders.size());
  for (size_t i = 0; i < ladders.size(); ++i) {
    DNLR_CHECK(ladders[i] != nullptr);
    Shard shard;
    shard.engine = std::make_unique<ServingEngine>(std::move(ladders[i]),
                                                   engine_config_, clock_);
    shard.health.window_start = now;
    shards_.push_back(std::move(shard));
    ring_.AddShard(static_cast<uint32_t>(i));
  }
}

ShardedRouter::~ShardedRouter() { Stop(); }

void ShardedRouter::Stop() {
  for (Shard& shard : shards_) shard.engine->Stop();
}

uint32_t ShardedRouter::PrimaryShardFor(uint64_t tenant) const {
  return ring_.ShardFor(tenant);
}

std::vector<uint32_t> ShardedRouter::PreferenceOrderFor(
    uint64_t tenant) const {
  return ring_.PreferenceOrder(tenant);
}

void ShardedRouter::SetTenantQuota(uint64_t tenant, const TenantQuota& quota) {
  Tenant& record = GetTenant(tenant);
  auto bucket = std::make_shared<common::TokenBucket>(quota.tokens_per_second,
                                                      quota.burst, clock_);
  common::MutexLock lock(tenant_mu_);
  record.bucket = std::move(bucket);
}

std::shared_ptr<common::TokenBucket> ShardedRouter::TenantBucket(
    Tenant& record) {
  common::MutexLock lock(tenant_mu_);
  return record.bucket;
}

ShardedRouter::Tenant& ShardedRouter::GetTenant(uint64_t id) {
  common::MutexLock lock(tenant_mu_);
  std::unique_ptr<Tenant>& slot = tenants_[id];
  if (slot == nullptr) {
    slot = std::make_unique<Tenant>();
    const TenantQuota unlimited;  // until SetTenantQuota says otherwise
    slot->bucket = std::make_shared<common::TokenBucket>(
        unlimited.tokens_per_second, unlimited.burst, clock_);
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    const std::string prefix = metric_prefix_ + std::to_string(id);
    slot->requests = &registry.GetCounter(prefix + ".requests");
    slot->ok = &registry.GetCounter(prefix + ".ok");
    slot->errors = &registry.GetCounter(prefix + ".errors");
    slot->quota_rejected = &registry.GetCounter(prefix + ".quota_rejected");
    slot->latency = &registry.GetHistogram(prefix + ".latency_us");
  }
  return *slot;
}

Status ShardedRouter::SwapModelOnShard(
    size_t shard, std::shared_ptr<const DegradationLadder> next,
    const ServingEngine::SwapValidator& validate) {
  DNLR_CHECK_LT(shard, shards_.size());
  Status status = shards_[shard].engine->SwapModel(std::move(next), validate);
  if (status.ok()) {
    // A fresh model starts with a fresh outcome window: failures of the
    // retired generation must not be charged to the new one. The lifecycle
    // STATE is kept, though — a quarantined shard does not get readmitted
    // just because a new generation shipped; the half-open probes must
    // prove the swap actually fixed it.
    common::MutexLock lock(state_mu_);
    Health& health = shards_[shard].health;
    health.cur_ok = health.cur_fail = 0;
    health.prev_ok = health.prev_fail = 0;
    health.probe_successes = 0;
    health.window_start = clock_->NowMicros();
  }
  return status;
}

void ShardedRouter::RollWindowLocked(Health& health, uint64_t now) {
  if (now < health.window_start + config_.health_window_micros) return;
  if (now >= health.window_start + 2 * config_.health_window_micros) {
    // More than a whole window of silence: both buckets are stale.
    health.prev_ok = health.prev_fail = 0;
    health.cur_ok = health.cur_fail = 0;
    health.window_start = now;
    return;
  }
  health.prev_ok = health.cur_ok;
  health.prev_fail = health.cur_fail;
  health.cur_ok = health.cur_fail = 0;
  health.window_start += config_.health_window_micros;
}

double ShardedRouter::FailureRateLocked(const Health& health) const {
  const uint64_t fails = health.cur_fail + health.prev_fail;
  const uint64_t total = fails + health.cur_ok + health.prev_ok;
  return total == 0 ? 0.0
                    : static_cast<double>(fails) / static_cast<double>(total);
}

double ShardedRouter::HealthScoreLocked(const Shard& shard) const {
  const double saturation =
      std::min(1.0, static_cast<double>(shard.engine->queue_depth()) /
                        static_cast<double>(engine_config_.queue_capacity));
  return FailureRateLocked(shard.health) +
         config_.saturation_weight * saturation;
}

void ShardedRouter::AdvanceStateLocked(Shard& shard, uint64_t now) {
  Health& health = shard.health;
  switch (health.state) {
    case ShardState::kHealthy: {
      RollWindowLocked(health, now);
      const uint64_t total = health.cur_ok + health.cur_fail +
                             health.prev_ok + health.prev_fail;
      if (total >= config_.min_window_requests &&
          HealthScoreLocked(shard) >= config_.quarantine_score) {
        health.state = ShardState::kDraining;
        health.state_until = now + config_.drain_micros;
        Bump(counters_.drains);
      }
      break;
    }
    case ShardState::kDraining:
      if (now >= health.state_until) {
        health.state = ShardState::kQuarantined;
        health.state_until = now + config_.quarantine_micros;
        Bump(counters_.quarantines);
      }
      break;
    case ShardState::kQuarantined:
      if (now >= health.state_until) {
        health.state = ShardState::kProbing;
        health.probe_successes = 0;
        health.probes_in_flight = 0;
      }
      break;
    case ShardState::kProbing:
      break;
  }
}

int ShardedRouter::PickShard(const std::vector<uint32_t>& prefer,
                             size_t start_hop, uint64_t now, bool* is_probe) {
  common::MutexLock lock(state_mu_);
  for (size_t h = start_hop; h < prefer.size(); ++h) {
    Shard& shard = shards_[prefer[h]];
    if (!shard.engine->accepting()) {
      // A stopped engine is shutdown, not saturation: skip it outright —
      // probing it would only manufacture shed_stopped rejections.
      Bump(counters_.skipped_stopped);
      continue;
    }
    AdvanceStateLocked(shard, now);
    switch (shard.health.state) {
      case ShardState::kHealthy:
        return static_cast<int>(h);
      case ShardState::kDraining:
      case ShardState::kQuarantined:
        continue;
      case ShardState::kProbing:
        if (shard.health.probes_in_flight < kMaxProbesInFlight) {
          ++shard.health.probes_in_flight;
          *is_probe = true;
          Bump(counters_.probes);
          return static_cast<int>(h);
        }
        continue;
    }
  }
  return -1;
}

void ShardedRouter::RecordOutcome(size_t shard_index, bool failure,
                                  bool was_probe, uint64_t now) {
  common::MutexLock lock(state_mu_);
  Shard& shard = shards_[shard_index];
  Health& health = shard.health;
  RollWindowLocked(health, now);
  if (failure) {
    ++health.cur_fail;
  } else {
    ++health.cur_ok;
  }
  if (was_probe) {
    if (health.probes_in_flight > 0) --health.probes_in_flight;
    if (health.state == ShardState::kProbing) {
      if (failure) {
        // Failed probe: back to quarantine for another full window, exactly
        // like a rung breaker's failed half-open probe.
        health.state = ShardState::kQuarantined;
        health.state_until = now + config_.quarantine_micros;
        health.probe_successes = 0;
        Bump(counters_.quarantines);
      } else if (++health.probe_successes >=
                 config_.probe_successes_to_readmit) {
        health.state = ShardState::kHealthy;
        // Readmission starts a fresh window: outcomes recorded during the
        // outage must not immediately re-trip the score.
        health.cur_ok = health.cur_fail = 0;
        health.prev_ok = health.prev_fail = 0;
        health.window_start = now;
        Bump(counters_.readmissions);
      }
    }
    return;
  }
  AdvanceStateLocked(shard, now);
}

ShardState ShardedRouter::shard_state(size_t shard) const {
  common::MutexLock lock(state_mu_);
  return shards_[shard].health.state;
}

double ShardedRouter::shard_failure_rate(size_t shard) const {
  common::MutexLock lock(state_mu_);
  return FailureRateLocked(shards_[shard].health);
}

double ShardedRouter::shard_health_score(size_t shard) const {
  common::MutexLock lock(state_mu_);
  return HealthScoreLocked(shards_[shard]);
}

ShardedRouter::Response ShardedRouter::ScoreSync(uint64_t tenant,
                                                 const float* docs,
                                                 uint32_t count,
                                                 uint32_t stride,
                                                 uint64_t budget_micros) {
  Bump(counters_.requests);
  Tenant& record = GetTenant(tenant);
  record.requests->Add();

  Response resp;
  if (!TenantBucket(record)->TryAcquire()) {
    Bump(counters_.quota_rejected);
    record.quota_rejected->Add();
    resp.serve.status = Status::ResourceExhausted(
        "tenant " + std::to_string(tenant) + " over admission quota");
    return resp;
  }
  resp.admitted = true;
  Bump(counters_.admitted);

  const uint64_t start = clock_->NowMicros();
  const std::vector<uint32_t> prefer = ring_.PreferenceOrder(tenant);

  ServeRequest request;
  request.docs = docs;
  request.count = count;
  request.stride = stride;
  request.deadline = Deadline::AfterMicros(*clock_, budget_micros);

  size_t next_hop = 0;
  uint32_t fail_hops = 0;
  for (;;) {
    bool is_probe = false;
    bool forced = false;
    int hop = PickShard(prefer, next_hop, clock_->NowMicros(), &is_probe);
    if (hop < 0) {
      // Nothing is admittable. Availability beats fence purity: force the
      // first accepting candidate rather than rejecting the tenant — its
      // engine still has its own shedding and rung breakers to lean on.
      for (size_t h = next_hop; h < prefer.size(); ++h) {
        if (shards_[prefer[h]].engine->accepting()) {
          hop = static_cast<int>(h);
          forced = true;
          break;
        }
      }
      if (hop < 0) {
        Bump(counters_.no_shard_available);
        record.errors->Add();
        resp.serve.status =
            Status::ResourceExhausted("no shard is accepting traffic");
        return resp;
      }
      Bump(counters_.forced_primary);
    }
    const auto shard = static_cast<size_t>(prefer[static_cast<size_t>(hop)]);
    if (hop > 0 && next_hop == 0 && !forced) Bump(counters_.failover_picks);

    ServeResponse serve = shards_[shard].engine->Submit(request).get();
    const bool shard_fault = !serve.status.ok() && IsShardFault(serve.status);
    RecordOutcome(shard, shard_fault, is_probe, clock_->NowMicros());

    const bool can_retry =
        shard_fault && !forced && fail_hops < kMaxFailoverHops &&
        static_cast<size_t>(hop) + 1 < prefer.size() &&
        !request.deadline.Expired(*clock_);
    if (!serve.status.ok() && can_retry) {
      ++fail_hops;
      next_hop = static_cast<size_t>(hop) + 1;
      Bump(counters_.failover_retries);
      continue;
    }

    resp.serve = std::move(serve);
    resp.shard = static_cast<int>(shard);
    resp.failover = prefer[static_cast<size_t>(hop)] != prefer[0];
    if (resp.serve.status.ok()) {
      record.ok->Add();
      record.latency->Record(static_cast<double>(clock_->NowMicros() - start));
    } else {
      record.errors->Add();
    }
    return resp;
  }
}

TenantSlo ShardedRouter::TenantSloSnapshot(uint64_t tenant) {
  Tenant& record = GetTenant(tenant);
  TenantSlo slo;
  slo.requests = record.requests->Value();
  slo.ok = record.ok->Value();
  slo.errors = record.errors->Value();
  slo.quota_rejected = record.quota_rejected->Value();
  slo.p50_us = record.latency->ApproxPercentileMicros(50);
  slo.p99_us = record.latency->ApproxPercentileMicros(99);
  const uint64_t admitted = slo.requests - slo.quota_rejected;
  slo.error_rate = admitted == 0 ? 0.0
                                 : static_cast<double>(slo.errors) /
                                       static_cast<double>(admitted);
  slo.quota_reject_rate =
      slo.requests == 0 ? 0.0
                        : static_cast<double>(slo.quota_rejected) /
                              static_cast<double>(slo.requests);
  return slo;
}

std::vector<uint64_t> ShardedRouter::KnownTenants() const {
  common::MutexLock lock(tenant_mu_);
  std::vector<uint64_t> ids;
  ids.reserve(tenants_.size());
  for (const auto& [id, record] : tenants_) ids.push_back(id);
  return ids;
}

}  // namespace dnlr::serve
