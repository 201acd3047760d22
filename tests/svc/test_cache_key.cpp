// Property tests for the result-cache key canonicalization (ISSUE PR-9):
// memoization is only sound if (a) a key is STABLE — the canonical string a
// client-side request produces is bit-identical after any number of
// serialize/parse round-trips through the wire format — and (b) the
// fault_hash component actually separates plans — two different fault plans
// must not collide, or the cache would serve one plan's cells for the other.
#include "svc/cache_key.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "mathlib/rng.hpp"
#include "svc/protocol.hpp"
#include "svc/work_verb.hpp"

namespace ecsim::svc {
namespace {

/// Random but VALID work request: awkward axis values (subnormal-ish
/// magnitudes, negated zeros) are exactly what hexfloat rendering must
/// carry through the wire unchanged.
Request random_request(math::Rng& rng) {
  Request r;
  const Verb verbs[] = {Verb::kSweepTiming, Verb::kSweepArch, Verb::kFaultSweep,
                        Verb::kFaultMc, Verb::kVmMc};
  r.verb = verbs[rng.uniform_int(0, 4)];
  r.backend = rng.bernoulli(0.5) ? "interp" : "native";
  r.ts = std::ldexp(1.0 + rng.uniform(), -static_cast<int>(rng.uniform_int(4, 10)));
  r.t_end = rng.uniform(0.1, 2.0);
  r.seed = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
  const auto axis = [&](std::size_t n) {
    std::vector<double> v;
    for (std::size_t i = 0; i < n; ++i) {
      v.push_back(rng.bernoulli(0.1)
                      ? 0.0
                      : std::ldexp(rng.uniform(0.0, 1.0),
                                   static_cast<int>(rng.uniform_int(-60, 4))));
    }
    return v;
  };
  r.rows = axis(1 + static_cast<std::size_t>(rng.uniform_int(0, 4)));
  r.cols = axis(1 + static_cast<std::size_t>(rng.uniform_int(0, 3)));
  r.loss = rng.uniform(0.0, 0.5);
  r.trials = 1 + static_cast<std::size_t>(rng.uniform_int(0, 16));
  r.iterations = 1 + static_cast<std::size_t>(rng.uniform_int(0, 100));
  r.spec_text = "[algorithm]\nseed " + std::to_string(r.seed) + "\n";
  return r;
}

std::string model_hash_for(const Request& r) {
  return r.verb == Verb::kVmMc ? spec_content_hash(r.spec_text)
                               : "0x00c0ffee00c0ffee";
}

TEST(CacheKeyProperty, CanonicalFormSurvivesWireRoundTrips) {
  math::Rng rng(20260808);
  for (int trial = 0; trial < 200; ++trial) {
    const Request orig = random_request(rng);
    // Two full wire round-trips: client -> daemon -> (hypothetical relay).
    Request once, twice;
    std::string err;
    ASSERT_TRUE(Request::from_fields(orig.to_fields(), once, err)) << err;
    Fields refields;
    ASSERT_TRUE(Fields::parse(once.to_fields().serialize(), refields));
    ASSERT_TRUE(Request::from_fields(refields, twice, err)) << err;
    const std::string hash = model_hash_for(orig);
    ASSERT_EQ(orig.units(), twice.units());
    for (std::size_t u = 0; u < orig.units(); ++u) {
      const ResultKey a = unit_key(orig, hash, u);
      const ResultKey b = unit_key(once, hash, u);
      const ResultKey c = unit_key(twice, hash, u);
      EXPECT_EQ(a.canonical(), b.canonical()) << "trial " << trial;
      EXPECT_EQ(a.canonical(), c.canonical()) << "trial " << trial;
      EXPECT_TRUE(a == c);
    }
  }
}

TEST(CacheKeyProperty, UnitsOfOneRequestNeverCollide) {
  math::Rng rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    Request r = random_request(rng);
    // Distinct axis values are a precondition for distinct cell keys; the
    // random axis draws above collide with probability ~0 but make it sure.
    for (std::size_t i = 0; i < r.rows.size(); ++i) r.rows[i] += double(i);
    for (std::size_t i = 0; i < r.cols.size(); ++i) r.cols[i] += double(i);
    std::set<std::string> keys;
    const std::string hash = model_hash_for(r);
    for (std::size_t u = 0; u < r.units(); ++u) {
      keys.insert(unit_key(r, hash, u).canonical());
    }
    EXPECT_EQ(keys.size(), r.units()) << "trial " << trial;
  }
}

TEST(CacheKeyProperty, RandomizedDifferingFaultPlansNeverCollideOnHash) {
  // 400 structurally random plans, each guaranteed different from every
  // other by a unique seed AND a unique probability perturbation. One shared
  // hash would mean the ledger's fault_plan_hash (and the cache key built on
  // it) can confuse two different injected-degradation schedules.
  math::Rng rng(99);
  std::set<std::uint64_t> hashes;
  std::vector<fault::FaultPlan> plans;
  for (int i = 0; i < 400; ++i) {
    fault::FaultPlan plan;
    plan.seed = static_cast<std::uint64_t>(i + 1);
    const double p = (i + 1) / 1024.0 + rng.uniform() / 4096.0;
    switch (rng.uniform_int(0, 3)) {
      case 0:
        plan.message_loss("bus", p);
        break;
      case 1:
        plan.message_delay("bus", p, rng.uniform(1e-6, 1e-3));
        break;
      case 2:
        plan.op_overrun("ctrl", p, 1.0 + rng.uniform());
        break;
      default:
        plan.node_stop("P1", rng.uniform(0.0, 0.5), 0.5 + rng.uniform());
        break;
    }
    if (rng.bernoulli(0.3)) plan.window(0.0, rng.uniform(0.5, 2.0));
    plans.push_back(plan);
    hashes.insert(fault::hash(plan));
  }
  EXPECT_EQ(hashes.size(), plans.size());
  // The empty plan is pinned to 0 (the ledger's fault-free marker) and no
  // non-empty plan may alias it.
  EXPECT_EQ(fault::hash(fault::FaultPlan{}), 0u);
  EXPECT_EQ(hashes.count(0), 0u);
}

TEST(CacheKeyProperty, HashSeparatesSinglePerturbations) {
  fault::FaultPlan base;
  base.seed = 42;
  base.message_loss("bus", 0.125);
  const std::uint64_t h = fault::hash(base);

  fault::FaultPlan seed_bump = base;
  seed_bump.seed = 43;
  EXPECT_NE(fault::hash(seed_bump), h);

  fault::FaultPlan prob_ulp = base;
  prob_ulp.faults[0].probability =
      std::nextafter(0.125, 1.0);  // one ulp — hexfloat must still separate
  EXPECT_NE(fault::hash(prob_ulp), h);

  fault::FaultPlan other_target = base;
  other_target.faults[0].target = "bus2";
  EXPECT_NE(fault::hash(other_target), h);
}

TEST(CacheKeyProperty, FaultMcTrialsAliasAcrossOverlappingSeedRanges) {
  // Trial t of base seed b IS trial 0 of base seed b+t — the aliasing the
  // daemon exploits so overlapping Monte Carlo ranges share cache entries.
  Request lo;
  lo.verb = Verb::kFaultMc;
  lo.seed = 100;
  lo.trials = 8;
  lo.loss = 0.1;
  Request hi = lo;
  hi.seed = 105;
  const std::string hash = "0x00c0ffee00c0ffee";
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_EQ(unit_key(lo, hash, 5 + t).canonical(),
              unit_key(hi, hash, t).canonical());
  }
  EXPECT_NE(unit_key(lo, hash, 0).canonical(),
            unit_key(hi, hash, 0).canonical());
}

TEST(CacheKeyProperty, KeySeparatesBackendModelAndVerb) {
  Request r;
  r.verb = Verb::kSweepTiming;
  r.rows = {0.1};
  r.cols = {0.2};
  const ResultKey base = unit_key(r, "0xaaaa", 0);

  Request native = r;
  native.backend = "native";
  EXPECT_NE(unit_key(native, "0xaaaa", 0).canonical(), base.canonical());
  EXPECT_NE(unit_key(r, "0xbbbb", 0).canonical(), base.canonical());

  Request arch = r;  // same coordinates, different verb => different axes
  arch.verb = Verb::kSweepArch;
  EXPECT_NE(unit_key(arch, "0xaaaa", 0).canonical(), base.canonical());

  Request ping;  // units() == 0: no work unit exists to key
  EXPECT_THROW(unit_key(ping, "0xaaaa", 0), std::out_of_range);
  EXPECT_THROW(unit_key(r, "0xaaaa", 1), std::out_of_range);
}

TEST(CacheKeyProperty, SweepNetworkUnitsKeyOnLoadAndScenario) {
  Request r;
  r.verb = Verb::kSweepNetwork;
  r.rows = {0.0, 0.4};   // background loads
  r.cols = {0.0, 1.0};   // scenario codes
  const std::string hash = "0x00c0ffee00c0ffee";
  std::set<std::string> keys;
  for (std::size_t u = 0; u < r.units(); ++u) {
    const std::string k = unit_key(r, hash, u).canonical();
    keys.insert(k);
    // The verb's coordinate labels are part of the canonical form, so
    // sweep_network cells can never alias another verb's cells.
    EXPECT_NE(k.find("load"), std::string::npos) << k;
    EXPECT_NE(k.find("scen"), std::string::npos) << k;
  }
  EXPECT_EQ(keys.size(), 4u);

  Request timing = r;  // identical coordinates under a different verb
  timing.verb = Verb::kSweepTiming;
  EXPECT_NE(unit_key(timing, hash, 0).canonical(),
            unit_key(r, hash, 0).canonical());
}

TEST(CacheKeyProperty, FaultVerbsKeyTheLoopModelAtSeedOne) {
  // --seed seeds the fault stream of the fault verbs; their loop model (the
  // model-hash component of every key) stays the seed-1 loop, so fault
  // grids share one model hash whatever their fault seed. The evaluated
  // cells do not depend on it, so only this rule pins it.
  for (const Verb verb : {Verb::kSweepTiming, Verb::kSweepArch,
                          Verb::kSweepNetwork, Verb::kFaultSweep,
                          Verb::kFaultMc, Verb::kVmMc}) {
    Request r;
    r.verb = verb;
    r.seed = 42;
    const bool faults = verb == Verb::kFaultSweep || verb == Verb::kFaultMc;
    EXPECT_EQ(loop_seed(r), faults ? 1u : 42u) << to_string(verb);
  }
}

}  // namespace
}  // namespace ecsim::svc
