#include "core/fault.hpp"

#include <cstdio>

#include "core/env.hpp"
#include "math/rng.hpp"

namespace isr::core {

namespace {

// Domain-separation salt: fault decisions must not correlate with any
// other hash_seed consumer (study jitter, drift-study seeds) sharing a seed.
constexpr std::uint64_t kFaultSalt = 0xFA171E57ull;

}  // namespace

const char* fault_site_name(FaultSite site) {
  switch (site) {
    case FaultSite::kShardEvalThrow: return "eval-throw";
    case FaultSite::kQueueStall: return "queue-stall";
    case FaultSite::kCorpusFitFail: return "fit-fail";
    case FaultSite::kWorkerCrash: return "worker-crash";
    case FaultSite::kCount: break;
  }
  return "?";
}

bool fault_site_from_token(const std::string& token, FaultSite& site) {
  for (int s = 0; s < kFaultSiteCount; ++s) {
    if (token == fault_site_name(static_cast<FaultSite>(s))) {
      site = static_cast<FaultSite>(s);
      return true;
    }
  }
  return false;
}

bool FaultConfig::parse_sites(const std::string& csv, std::uint32_t& mask,
                              std::string& error) {
  std::uint32_t parsed = 0;
  std::size_t start = 0;
  bool any = false;
  while (start <= csv.size()) {
    std::size_t comma = csv.find(',', start);
    if (comma == std::string::npos) comma = csv.size();
    const std::string token = csv.substr(start, comma - start);
    start = comma + 1;
    if (token.empty()) continue;  // tolerate "a,,b" and trailing commas
    if (token == "all") {
      parsed = (1u << kFaultSiteCount) - 1u;
      any = true;
      continue;
    }
    FaultSite site;
    if (!fault_site_from_token(token, site)) {
      error = "unknown fault site \"" + token +
              "\" (expected eval-throw, queue-stall, fit-fail, worker-crash, or all)";
      return false;
    }
    parsed |= 1u << static_cast<int>(site);
    any = true;
  }
  if (!any) {
    error = "empty fault site list";
    return false;
  }
  mask = parsed;
  error.clear();
  return true;
}

FaultConfig FaultConfig::from_env() {
  FaultConfig config;
  const long seed = env_long("ISR_FAULT_SEED", 0, /*require_positive=*/false);
  config.seed = seed > 0 ? static_cast<std::uint64_t>(seed) : 0;
  config.rate = env_double("ISR_FAULT_RATE", config.rate);
  if (config.rate > 1.0) config.rate = 1.0;
  config.stall_ms =
      static_cast<int>(env_long("ISR_FAULT_STALL_MS", config.stall_ms));
  if (const char* sites = std::getenv("ISR_FAULT_SITES")) {
    std::string error;
    if (!parse_sites(sites, config.sites, error)) {
      // Fail safe: a typo must not run half a chaos schedule silently.
      std::fprintf(stderr, "insitu-perf: ignoring ISR_FAULT_SITES=\"%s\" (%s); "
                           "fault injection disabled\n",
                   sites, error.c_str());
      config.seed = 0;
      config.sites = 0;
    }
  } else if (config.seed != 0) {
    config.sites = (1u << kFaultSiteCount) - 1u;  // seed alone = all sites
  }
  return config;
}

bool FaultInjector::should_fire(FaultSite site, std::uint64_t k0, std::uint64_t k1,
                                std::uint64_t k2) {
  if (!config_.armed() || !config_.enabled(site)) return false;
  // hash -> uniform double in [0, 1), the top-53-bits construction Rng
  // uses, so rate 1.0 always fires and rate r fires a deterministic ~r of
  // opportunities.
  const std::uint64_t h = hash_seed(config_.seed, kFaultSalt,
                                    static_cast<std::uint64_t>(site), k0, k1, k2);
  const double unit = static_cast<double>(h >> 11) * 0x1.0p-53;
  if (unit >= config_.rate) return false;
  fired_[static_cast<int>(site)].fetch_add(1, std::memory_order_relaxed);
  return true;
}

long FaultInjector::total_fired() const {
  long total = 0;
  for (int s = 0; s < kFaultSiteCount; ++s)
    total += fired_[s].load(std::memory_order_relaxed);
  return total;
}

}  // namespace isr::core
