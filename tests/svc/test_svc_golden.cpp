// Golden wire table of the sweep service. For every work verb it pins the
// exact request bytes (`Request::to_fields().serialize()`), every unit's
// cache key (`unit_key(...).canonical()`), the encoded result cells and
// Monte Carlo statistics, the reply metadata bytes, and an FNV-1a digest of
// one evaluated unit. The other svc suites only round-trip, so a codec or
// key change that moves encoder and decoder (or client and daemon) together
// would pass them; a daemon and a client built from different commits, or
// a result cache warmed by an older build, would not. A change meant to
// keep the wire byte-identical must pass this table unchanged; the failure
// messages print every new value for an intended recapture.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "mathlib/rng.hpp"
#include "svc/cache_key.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "svc/warm_cache.hpp"

namespace ecsim::svc {
namespace {

std::uint64_t fnv(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llxULL",
                static_cast<unsigned long long>(v));
  return buf;
}

constexpr const char* kServoSpec = R"([algorithm]
name   servo-loop
period 0.01
op  sense sensor   2e-4 @P0
op  ctrl  compute  3e-3 @P1
op  act   actuator 2e-4 @P0
dep sense ctrl 8
dep ctrl  act  8

[architecture]
name  two-ecu
proc  P0 cpu
proc  P1 cpu
bus   can 2e4 2e-4 P0 P1
)";

constexpr Verb kWorkVerbs[] = {Verb::kSweepTiming, Verb::kSweepArch,
                               Verb::kSweepNetwork, Verb::kFaultSweep,
                               Verb::kFaultMc,      Verb::kVmMc};
constexpr std::size_t kNumVerbs = sizeof kWorkVerbs / sizeof kWorkVerbs[0];
constexpr std::size_t kSeededSets = 3;

/// The hand-built request of each verb: small enough that one of its units
/// evaluates in milliseconds.
Request fixed_request(Verb verb) {
  Request r;
  r.verb = verb;
  r.t_end = 0.2;
  switch (verb) {
    case Verb::kSweepTiming:
      r.seed = 3;
      r.rows = {0.0, 0.4};
      r.cols = {0.0, 0.2};
      break;
    case Verb::kSweepArch:
      r.rows = {1e4, 2e3};
      r.cols = {0.5, 2.0};
      break;
    case Verb::kSweepNetwork:
      r.rows = {0.0, 0.4};
      r.cols = {0.0, 1.0};
      break;
    case Verb::kFaultSweep:
      r.seed = 5;
      r.rows = {0.0, 0.2};
      r.cols = {0.0, 0.002};
      break;
    case Verb::kFaultMc:
      r.seed = 11;
      r.loss = 0.2;
      r.trials = 3;
      break;
    default:
      r.seed = 7;
      r.trials = 5;
      r.iterations = 5;
      r.spec_text = kServoSpec;
      break;
  }
  return r;
}

/// A seeded parameter set for `verb`: awkward axis values, both backends,
/// every parameter set whether or not the verb carries it (the encoding must
/// ignore the ones it does not).
Request seeded_request(Verb verb, std::uint64_t seed) {
  math::Rng rng(seed);
  Request r;
  r.verb = verb;
  r.backend = rng.bernoulli(0.5) ? "interp" : "native";
  r.ts = std::ldexp(1.0 + rng.uniform(),
                    -static_cast<int>(rng.uniform_int(4, 10)));
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
  r.rows = axis(1 + static_cast<std::size_t>(rng.uniform_int(0, 3)));
  r.cols = axis(1 + static_cast<std::size_t>(rng.uniform_int(0, 2)));
  if (verb == Verb::kSweepNetwork) {
    for (double& c : r.cols) c = rng.bernoulli(0.5) ? 1.0 : 0.0;
  }
  r.loss = rng.uniform(0.0, 0.5);
  r.trials = 1 + static_cast<std::size_t>(rng.uniform_int(0, 5));
  r.iterations = 1 + static_cast<std::size_t>(rng.uniform_int(0, 100));
  r.spec_text = "[algorithm]\nname s" + std::to_string(r.seed) + "\n";
  return r;
}

std::string model_hash_for(const Request& r) {
  return r.verb == Verb::kVmMc ? spec_content_hash(r.spec_text)
                               : "0x00c0ffee00c0ffee";
}

/// Every unit's canonical key, one per line.
std::string all_keys(const Request& r) {
  std::string out;
  for (std::size_t u = 0; u < r.units(); ++u) {
    out += unit_key(r, model_hash_for(r), u).canonical();
    out += '\n';
  }
  return out;
}

struct GoldenRequest {
  std::uint64_t wire = 0;  // FNV-1a of to_fields().serialize()
  std::uint64_t keys = 0;  // FNV-1a of all_keys()
};

// Per verb (kWorkVerbs order): the fixed request, then seeded sets 1..3.
constexpr GoldenRequest kRequests[kNumVerbs][1 + kSeededSets] = {
    {
        {0xf27cee15b4e9a169ULL, 0x74673cabfb959c8dULL},
        {0xe817f22e4b58c82cULL, 0x80106725ae248d56ULL},
        {0xa87cffb107b1ec79ULL, 0x2069d10beca1ee99ULL},
        {0x70e78d0b7843e6aeULL, 0x7af20f2fd3183cb4ULL},
    },
    {
        {0x1ea1e4ce3e8554deULL, 0xe5109794e7635c8dULL},
        {0xd443b02d03403ddaULL, 0xfc4fa2a72857570cULL},
        {0xb12bb0e4d152bb6bULL, 0xd5b238070ced3927ULL},
        {0x172c29e61a48f6fdULL, 0x70d10191424eeb77ULL},
    },
    {
        {0xba47de21d21f3155ULL, 0x3d09716637279df5ULL},
        {0xe13c695fdde429ddULL, 0x68af9de39476e786ULL},
        {0x799e4247097887eaULL, 0x3aff31fe290cde0fULL},
        {0xce4ecf8061ba19e9ULL, 0x13045ba2872d327cULL},
    },
    {
        {0xeea49f85ad29383aULL, 0xc628e0748b172c77ULL},
        {0x2e0706db6ecd6c4fULL, 0x49e0c54a10ccf684ULL},
        {0x3173e8a06beaef74ULL, 0x42325d0c76c77e6eULL},
        {0x46bf9733d56b4074ULL, 0xca84f558e9a0a6eaULL},
    },
    {
        {0x172771a41491eda3ULL, 0x0798ea02859baef5ULL},
        {0xe19d6d6e7fdb8af2ULL, 0x0a17cb67ae6a5312ULL},
        {0x24b42c2ca183ef23ULL, 0x7255bd1bb3853008ULL},
        {0x0694ad773fbf1a08ULL, 0x92dd0a80e0137dacULL},
    },
    {
        {0x5407bd4bacd6c770ULL, 0xae3d973c1ca77863ULL},
        {0xa01940b08306d1b9ULL, 0xab72e6b91b2d4d59ULL},
        {0x51a13b112595fadfULL, 0xa21631a6181eaa98ULL},
        {0xa5b8e1a970d25e01ULL, 0xdf46db9c54aa67b4ULL},
    },
};

// The fixed request of each verb, byte for byte, and its last unit's key.
const char* const kFixedWire[kNumVerbs] = {
    "verb 12\n"
    "sweep_timing\n"
    "backend 6\n"
    "interp\n"
    "ts 20\n"
    "0x1.47ae147ae147bp-7\n"
    "t_end 20\n"
    "0x1.999999999999ap-3\n"
    "seed 1\n"
    "3\n"
    "rows 27\n"
    "0x0p+0,0x1.999999999999ap-2\n"
    "cols 27\n"
    "0x0p+0,0x1.999999999999ap-3\n",
    "verb 10\n"
    "sweep_arch\n"
    "backend 6\n"
    "interp\n"
    "ts 20\n"
    "0x1.47ae147ae147bp-7\n"
    "t_end 20\n"
    "0x1.999999999999ap-3\n"
    "seed 1\n"
    "1\n"
    "rows 22\n"
    "0x1.388p+13,0x1.f4p+10\n"
    "cols 13\n"
    "0x1p-1,0x1p+1\n",
    "verb 13\n"
    "sweep_network\n"
    "backend 6\n"
    "interp\n"
    "ts 20\n"
    "0x1.47ae147ae147bp-7\n"
    "t_end 20\n"
    "0x1.999999999999ap-3\n"
    "seed 1\n"
    "1\n"
    "rows 27\n"
    "0x0p+0,0x1.999999999999ap-2\n"
    "cols 13\n"
    "0x0p+0,0x1p+0\n",
    "verb 11\n"
    "fault_sweep\n"
    "backend 6\n"
    "interp\n"
    "ts 20\n"
    "0x1.47ae147ae147bp-7\n"
    "t_end 20\n"
    "0x1.999999999999ap-3\n"
    "seed 1\n"
    "5\n"
    "rows 27\n"
    "0x0p+0,0x1.999999999999ap-3\n"
    "cols 27\n"
    "0x0p+0,0x1.0624dd2f1a9fcp-9\n",
    "verb 8\n"
    "fault_mc\n"
    "backend 6\n"
    "interp\n"
    "ts 20\n"
    "0x1.47ae147ae147bp-7\n"
    "t_end 20\n"
    "0x1.999999999999ap-3\n"
    "seed 2\n"
    "11\n"
    "loss 20\n"
    "0x1.999999999999ap-3\n"
    "trials 1\n"
    "3\n",
    "verb 5\n"
    "vm_mc\n"
    "backend 6\n"
    "interp\n"
    "ts 20\n"
    "0x1.47ae147ae147bp-7\n"
    "t_end 20\n"
    "0x1.999999999999ap-3\n"
    "seed 1\n"
    "7\n"
    "trials 1\n"
    "5\n"
    "iterations 1\n"
    "5\n"
    "spec_text 241\n"
    "[algorithm]\n"
    "name   servo-loop\n"
    "period 0.01\n"
    "op  sense sensor   2e-4 @P0\n"
    "op  ctrl  compute  3e-3 @P1\n"
    "op  act   actuator 2e-4 @P0\n"
    "dep sense ctrl 8\n"
    "dep ctrl  act  8\n"
    "\n"
    "[architecture]\n"
    "name  two-ecu\n"
    "proc  P0 cpu\n"
    "proc  P1 cpu\n"
    "bus   can 2e4 2e-4 P0 P1\n"
    "\n",
};
const char* const kFixedLastKey[kNumVerbs] = {
    "k1|0x00c0ffee00c0ffee|interp|3|0x0000000000000000|"
    "v=sweep_timing;ts=0x1.47ae147ae147bp-7;te=0x1.999999999999ap-3;"
    "la=0x1.999999999999ap-2;j=0x1.999999999999ap-3",
    "k1|0x00c0ffee00c0ffee|interp|1|0x0000000000000000|"
    "v=sweep_arch;ts=0x1.47ae147ae147bp-7;te=0x1.999999999999ap-3;"
    "bw=0x1.f4p+10;ws=0x1p+1",
    "k1|0x00c0ffee00c0ffee|interp|1|0x0000000000000000|"
    "v=sweep_network;ts=0x1.47ae147ae147bp-7;te=0x1.999999999999ap-3;"
    "load=0x1.999999999999ap-2;scen=0x1p+0",
    "k1|0x00c0ffee00c0ffee|interp|5|0xad8934dda7fc3680|"
    "v=fault_sweep;ts=0x1.47ae147ae147bp-7;te=0x1.999999999999ap-3;"
    "loss=0x1.999999999999ap-3;delay=0x1.0624dd2f1a9fcp-9",
    "k1|0x00c0ffee00c0ffee|interp|13|0x7ccfd2e65c016a22|"
    "v=fault_mc;ts=0x1.47ae147ae147bp-7;te=0x1.999999999999ap-3;"
    "loss=0x1.999999999999ap-3",
    "k1|spec:0x6c5a518780b00df7|interp|7|0x0000000000000000|"
    "v=vm_mc;ts=0x1.47ae147ae147bp-7;te=0x1.999999999999ap-3;trials=5;"
    "iters=5",
};

TEST(SvcGolden, RequestBytesAndUnitKeys) {
  for (std::size_t v = 0; v < kNumVerbs; ++v) {
    const Verb verb = kWorkVerbs[v];
    const Request fixed = fixed_request(verb);
    const std::string wire = fixed.to_fields().serialize();
    EXPECT_EQ(wire, kFixedWire[v]) << to_string(verb) << " request bytes";
    const std::string last =
        unit_key(fixed, model_hash_for(fixed), fixed.units() - 1).canonical();
    EXPECT_EQ(last, kFixedLastKey[v]) << to_string(verb) << " last unit key";
    for (std::size_t k = 0; k <= kSeededSets; ++k) {
      const Request r =
          k == 0 ? fixed : seeded_request(verb, 100 * (v + 1) + k);
      const GoldenRequest got{fnv(r.to_fields().serialize()),
                              fnv(all_keys(r))};
      EXPECT_EQ(got.wire, kRequests[v][k].wire)
          << to_string(verb) << " set " << k << " wire: got " << hex(got.wire);
      EXPECT_EQ(got.keys, kRequests[v][k].keys)
          << to_string(verb) << " set " << k << " keys: got " << hex(got.keys);
    }
  }
}

const double kInf = std::numeric_limits<double>::infinity();

TEST(SvcGolden, CellCodecBytes) {
  sweep::SweepCell s;
  s.la_frac = 0.4;
  s.jitter_frac = -0.0;
  s.bus_bandwidth = 2e3;
  s.wcet_scale = 1.5;
  s.iae = 0.0123;
  s.ise = 5e-324;
  s.itae = 1e-300;
  s.cost = kInf;
  s.overshoot_pct = 12.5;
  s.act_latency_mean = 0.0042;
  s.act_jitter = 0.001;
  s.stable = false;
  EXPECT_EQ(encode_cell(s),
            "S 3fd999999999999a 8000000000000000 409f400000000000 "
            "3ff8000000000000 3f8930be0ded288d 0000000000000001 "
            "01a56e1fc2f8f359 7ff0000000000000 4029000000000000 "
            "3f713404ea4a8c15 3f50624dd2f1a9fc 0");

  sweep::FaultCell f;
  f.loss_rate = 0.2;
  f.delay = 0.002;
  f.fault_seed = 18446744073709551615ULL;
  f.iae = 0.05;
  f.ise = 0.0025;
  f.itae = -kInf;
  f.cost = 0.0987;
  f.overshoot_pct = 3.25;
  f.messages_lost = 12;
  f.messages_deferred = 7;
  f.stable = true;
  EXPECT_EQ(encode_cell(f),
            "F 3fc999999999999a 3f60624dd2f1a9fc 3fa999999999999a "
            "3f647ae147ae147b fff0000000000000 3fb94467381d7dbf "
            "400a000000000000 18446744073709551615 12 7 1");

  sweep::NetworkCell n;
  n.bus_load = 0.4;
  n.scenario = 1.0;
  n.act_latency_mean = 0.0031;
  n.act_jitter = 0.0007;
  n.nominal_iae = 0.061;
  n.nominal_cost = 0.11;
  n.retuned_iae = 0.052;
  n.retuned_cost = 0.09;
  n.stability_margin = -0.125;
  n.schedulable = false;
  n.stable = true;
  EXPECT_EQ(encode_cell(n),
            "N 3fd999999999999a 3ff0000000000000 3f69652bd3c36113 "
            "3f46f0068db8bac7 3faf3b645a1cac08 3fbc28f5c28f5c29 "
            "3faa9fbe76c8b439 3fb70a3d70a3d70a bfc0000000000000 0 1");

  sweep::MonteCarloResult r;
  r.trials = 200;
  r.deadlocks = 3;
  r.makespan = {197, 1.5, 0.25, 1.0, 2.5, 1.4, 2.2};
  sweep::MonteCarloOpStats op;
  op.op = 4;
  op.sensor = true;
  op.name = "sense";
  op.mean_latency = {197, 1e-4, 2e-5, 5e-5, 3e-4, 9e-5, 2e-4};
  op.max_latency = {197, 2e-4, 1e-5, 9e-5, 4e-4, 2e-4, 3e-4};
  op.jitter = {197, 1e-5, 0.0, 1e-5, 1e-5, 1e-5, 1e-5};
  r.io_ops.push_back(op);
  op.op = 9;
  op.sensor = false;
  op.name = "act";
  r.io_ops.push_back(op);
  r.wall_s = 3.0;  // not encoded
  const std::string mc = encode_mc(r);
  EXPECT_EQ(mc.size(), 773u);
  EXPECT_EQ(fnv(mc), 0x2bcb80eae8603a87ULL) << "got " << hex(fnv(mc));
}

TEST(SvcGolden, ResponseMetaBytes) {
  ResponseMeta ok;
  ok.ok = true;
  ok.model_hash = "0x6c09e9a1787131f3";
  ok.cache_hits = 30;
  ok.cache_units = 35;
  ok.redispatches = 1;
  Fields f;
  meta_to_fields(ok, f);
  EXPECT_EQ(f.serialize(),
            "status 2\nok\nmodel_hash 18\n0x6c09e9a1787131f3\n"
            "cache_hits 2\n30\ncache_units 2\n35\nserved_from_cache 1\n0\n"
            "redispatches 1\n1\n");

  ResponseMeta err;
  err.error = "fault_mc needs trials > 0";
  err.served_from_cache = true;
  Fields g;
  meta_to_fields(err, g);
  EXPECT_EQ(g.serialize(),
            "status 5\nerror\nerror 25\nfault_mc needs trials > 0\n"
            "model_hash 0\n\ncache_hits 1\n0\ncache_units 1\n0\n"
            "served_from_cache 1\n1\nredispatches 1\n0\n");
}

// FNV-1a of the evaluated payload of one unit of each fixed request: unit 1
// of the grids and of the fault Monte Carlo (a trial off the base seed), the
// whole run of the VM Monte Carlo.
constexpr std::uint64_t kEvaluated[kNumVerbs] = {
    0x8f3a0df80a72c4f8ULL, 0x771137820ca1fc12ULL,
    0x461cc3c13efb31f7ULL, 0x0839b9c96daa383fULL,
    0xe1fe7f1134cdadc2ULL, 0x166d37bca9313444ULL,
};

TEST(SvcGolden, EvaluatedUnitDigests) {
  WarmCache warm(nullptr);
  for (std::size_t v = 0; v < kNumVerbs; ++v) {
    const Request r = fixed_request(kWorkVerbs[v]);
    const std::size_t unit = r.units() > 1 ? 1 : 0;
    const std::uint64_t got = fnv(evaluate_unit(r, unit, warm));
    EXPECT_EQ(got, kEvaluated[v])
        << to_string(r.verb) << " unit " << unit << ": got " << hex(got);
  }
}

}  // namespace
}  // namespace ecsim::svc
