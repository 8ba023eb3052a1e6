// The batch workload's market part: the default three-operator market
// under each spectrum split, each report serialized as market_compare
// stores it.

#include <array>

#include "checks.hpp"
#include "leodivide/market/market.hpp"
#include "leodivide/runtime/executor.hpp"
#include "leodivide/snapshot/artifacts.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace leodivide;

struct Policy {
  market::SplitPolicy policy;
  const char* span;
};

constexpr std::array<Policy, 3> kPolicies = {{
    {market::SplitPolicy::kExclusive, "market.run_exclusive"},
    {market::SplitPolicy::kProportional, "market.run_proportional"},
    {market::SplitPolicy::kFairShare, "market.run_fairshare"},
}};

class Market final : public BatchWorkload {
 public:
  explicit Market(const Options& o) : seed_(o.seed) {}

  void setup(Measurement&) override {
    profile_ = seeded_profile(seed_);
    sims_.clear();
    for (const Policy& p : kPolicies) {
      market::MarketConfig config;
      config.operators = market::default_market();
      config.split.policy = p.policy;
      sims_.emplace_back(std::move(config));
    }
    Tracer off;
    unit(off);
    reference_ = output();
  }

  void unit(Tracer& tracer) override {
    for (std::size_t i = 0; i < kPolicies.size(); ++i) {
      const market::MarketReport report = tracer.call(kPolicies[i].span, [&] {
        return sims_[i].run(profile_, runtime::global_executor());
      });
      blobs_[i] = tracer.call("market.serialize",
                              [&] { return snapshot::serialize(report); });
    }
  }

  std::string check(bool) override {
    return check_same("market reports", reference_, output());
  }

 private:
  std::string output() const { return blobs_[0] + blobs_[1] + blobs_[2]; }

  std::uint64_t seed_;
  demand::DemandProfile profile_;
  std::vector<market::MarketSimulation> sims_;
  std::array<std::string, kPolicies.size()> blobs_;
  std::string reference_;
};

}  // namespace

std::unique_ptr<BatchWorkload> make_market(const Options& o) {
  return std::make_unique<Market>(o);
}

}  // namespace perfbench
