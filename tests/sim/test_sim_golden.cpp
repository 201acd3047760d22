// Golden regression table for the hybrid-event loop. Every input — seeded
// random hybrid diagrams (tests/properties/random_graphs.hpp), the servo
// loop under RK4 and RKF45, the 200-chain event workload, and graphs of
// delays of arbitrated buses (TDMA owner slots, CAN with blocking) — runs under
// every driver of the loop: the interpreter (warm, reseeded between runs),
// its full-refresh oracle, the native backend, and the batched lanes at
// widths 1 and 8. Each run's sim::trace_digest must equal the committed
// value for its (input, seed). The property suites compare drivers with
// each other; this table also pins them to the behaviour they had when it
// was captured, so a bug in the shared loop that moves every driver the
// same way still fails here. A change meant to alter traces recaptures the
// table: the failure messages print every new row.
#include <gtest/gtest.h>

#include <array>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "aaa/adequation.hpp"
#include "backend/backend.hpp"
#include "blocks/discrete.hpp"
#include "blocks/examples.hpp"
#include "io/spec.hpp"
#include "properties/random_graphs.hpp"
#include "sim/simulator.hpp"
#include "simd/batched_sim.hpp"
#include "translate/graph_of_delays.hpp"

namespace ecsim::sim {
namespace {

constexpr std::size_t kLanes = 8;
constexpr std::size_t kRandomInputs = 60;
constexpr std::size_t kGodInputs = 3;
using Digests = std::array<std::uint64_t, kLanes>;

struct Input {
  std::string name;
  std::function<std::unique_ptr<Model>()> factory;
  SimOptions base;
};

/// The graph of delays of `alg` scheduled on `arch`, with one EventCounter
/// per operation on its completion so the trace records every instant.
/// Execution times are drawn from [0.5 WCET, WCET], so the lanes differ.
std::unique_ptr<Model> god_model(const aaa::AlgorithmGraph& alg,
                                 const aaa::ArchitectureGraph& arch) {
  auto m = std::make_unique<Model>();
  const aaa::Schedule sched = aaa::adequate(alg, arch);
  translate::GodOptions opts;
  opts.bcet_fraction = 0.5;
  const translate::GraphOfDelays god =
      translate::build_graph_of_delays(*m, alg, arch, sched, opts);
  for (aaa::OpId op = 0; op < alg.num_operations(); ++op) {
    auto& n = m->add<blocks::EventCounter>("done_" + alg.op(op).name);
    translate::wire_completion(*m, god, op, n, 0);
  }
  return m;
}

/// Graph-of-delays inputs: a random DAG on a TDMA bus with 2 owner slots,
/// examples/specs/can_priority.spec, and a contended random DAG on a CAN
/// bus with blocking. None has a conditional operation (EventSelect is
/// opaque to the native backend).
Input god_input(std::size_t g) {
  Input in;
  if (g == 1) {
    in.name = "god_can_spec";
    in.factory = [] {
      const io::ParsedSpec spec =
          io::load_spec(ECSIM_SPEC_DIR "/can_priority.spec");
      return god_model(spec.algorithm, spec.architecture);
    };
    in.base.end_time = 0.2;
    return in;
  }
  const bool can = g == 2;
  in.name = can ? "god_can_random" : "god_tdma2";
  in.factory = [can] {
    math::Rng rng(can ? 7001 : 501);
    const aaa::AlgorithmGraph alg = ecsim::testing::random_dag(rng, 8, 0.25);
    aaa::ArchitectureGraph arch =
        aaa::ArchitectureGraph::bus_architecture(3, 5e3, 1e-4);
    if (can) {
      arch.set_can(0, 5e-4);
    } else {
      arch.set_tdma(0, 5e-4, 2);
    }
    return god_model(alg, arch);
  };
  in.base.end_time = 1.0;
  return in;
}

Input input(std::size_t i) {
  if (i >= kRandomInputs + 3) return god_input(i - kRandomInputs - 3);
  Input in;
  if (i < kRandomInputs) {
    char name[16];
    std::snprintf(name, sizeof name, "random_%02zu", i);
    in.name = name;
    in.factory = [i] {
      math::Rng rng(i + 1);
      return std::make_unique<Model>(ecsim::testing::random_block_model(rng));
    };
    in.base.end_time = 0.5;
    if (i % 3 == 2) {
      in.base.integrator.kind = IntegratorKind::kRkf45;
      in.base.integrator.max_step = 5e-3;
    }
    return in;
  }
  if (i == kRandomInputs + 2) {
    in.name = "chains_200";
    in.factory = [] {
      return std::make_unique<Model>(blocks::examples::make_chains(200));
    };
    in.base.end_time = 0.02;
    return in;
  }
  const bool rkf45 = i == kRandomInputs + 1;
  in.name = rkf45 ? "servo_rkf45" : "servo_rk4";
  in.factory = [] {
    return std::make_unique<Model>(blocks::examples::make_servo());
  };
  in.base.end_time = 0.3;
  in.base.integrator.kind =
      rkf45 ? IntegratorKind::kRkf45 : IntegratorKind::kRk4;
  in.base.integrator.max_step = rkf45 ? 1e-3 : 2e-4;
  return in;
}

std::uint64_t lane_seed(std::size_t i, std::size_t lane) {
  return 1000 * (i + 1) + 7 * lane + 3;
}

Digests run_interp(std::size_t i, const Input& in, bool full_refresh) {
  std::unique_ptr<Model> m = in.factory();
  SimOptions o = in.base;
  o.full_refresh = full_refresh;
  Simulator s(*m, o);
  Digests d{};
  for (std::size_t l = 0; l < kLanes; ++l) {
    s.set_seed(lane_seed(i, l));
    d[l] = trace_digest(s.run());
  }
  return d;
}

Digests run_native(std::size_t i, const Input& in) {
  std::unique_ptr<Model> m = in.factory();
  Digests d{};
  for (std::size_t l = 0; l < kLanes; ++l) {
    backend::RunOptions o;
    o.sim = in.base;
    o.sim.seed = lane_seed(i, l);
    o.kind = backend::Kind::kNative;
    const backend::RunResult r = backend::run(*m, o);
    EXPECT_EQ(r.used, backend::Kind::kNative) << r.fallback_reason;
    d[l] = trace_digest(r.trace);
  }
  return d;
}

Digests run_lanes(std::size_t i, const Input& in, std::size_t width) {
  BatchedSim bs(in.factory, BatchedOptions{in.base, width});
  Digests d{};
  for (std::size_t first = 0; first < kLanes; first += width) {
    std::vector<std::uint64_t> seeds;
    for (std::size_t l = first; l < first + width; ++l) {
      seeds.push_back(lane_seed(i, l));
    }
    bs.run(seeds);
    for (std::size_t l = 0; l < width; ++l) {
      d[first + l] = trace_digest(bs.trace(l));
    }
  }
  return d;
}

std::string row(const std::string& name, const Digests& d) {
  std::string s = "    {\"" + name + "\",\n     {";
  for (std::size_t l = 0; l < kLanes; ++l) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016" PRIx64 "%s", d[l],
                  l + 1 == kLanes ? "}},"
                  : l % 3 == 2    ? ",\n      "
                                  : ", ");
    s += buf;
  }
  return s;
}

struct GoldenRow {
  const char* name;
  Digests digests;
};

// Captured from the two-copy engine (simulator.cpp + native_runtime.hpp)
// before the loop was shared; the god_* rows on the shared loop, before the
// bus-arbitration rules moved into aaa::Medium. god_can_spec and
// god_can_random were recaptured when the graph of delays began charging
// CAN blocking as a wait before the frame queues on the bus.
constexpr GoldenRow kGolden[] = {
    {"random_00",
     {0x11fd85b85e2f5a0b, 0x11fd85b85e2f5a0b, 0x11fd85b85e2f5a0b,
      0x11fd85b85e2f5a0b, 0x11fd85b85e2f5a0b, 0x11fd85b85e2f5a0b,
      0x11fd85b85e2f5a0b, 0x11fd85b85e2f5a0b}},
    {"random_01",
     {0x04b513a5509f22c0, 0x693af6b2cd939bf3, 0x764ac9c19cd81fba,
      0x9519352a112398ba, 0x6bde0b81ad39e929, 0xddf0f88fdd6dd8bd,
      0x117658b0df6fd751, 0xe97943570fc68481}},
    {"random_02",
     {0x2645ccea55cc329e, 0x2645ccea55cc329e, 0x2645ccea55cc329e,
      0x2645ccea55cc329e, 0x2645ccea55cc329e, 0x2645ccea55cc329e,
      0x2645ccea55cc329e, 0x2645ccea55cc329e}},
    {"random_03",
     {0x9ea82c4cd65034cb, 0xcce5bb36c8fe1109, 0x700f0eb33c24de71,
      0x0198670dd363c858, 0x23613b9e955039b7, 0xe8907f5e5925c293,
      0x3515d8f262b1654d, 0x3c5d0271403ea82f}},
    {"random_04",
     {0x9c43b63cade51dd6, 0xceaa2d83ef2eb615, 0x2f95106ef35925de,
      0x0d451ccc29dbe20d, 0x4d4a73db28915da7, 0xca1e8c75f0dbbe64,
      0x24171596ba03616b, 0xda7afb489d68869b}},
    {"random_05",
     {0xf17a1e493c130b44, 0xacd5306d4e87c3ca, 0x0c775e0dad644a81,
      0x1abe967a2a241d6c, 0xb6264c6b8902b565, 0x64ae63a032c7736c,
      0x7d185f65824f16a0, 0x5d372e71dc294b9f}},
    {"random_06",
     {0x38eb36ffe96a0ff3, 0x25e30446a7b34b47, 0xc78a9ee9dd1d862a,
      0xa65889b2a1f72738, 0x3160fffa9a50ee42, 0xf1953f66c5984a26,
      0x6ec22a700749818d, 0x789540ff0c261d60}},
    {"random_07",
     {0xaaefabe22fd66dac, 0x2e4752ea71ad5b49, 0x5e5f7eeb531e12d4,
      0x785d229ca0a25b3f, 0xceec099445ee6922, 0xb627517b347a2688,
      0xd2011d37feaa1d2a, 0xa0b5a19b9e8a3137}},
    {"random_08",
     {0x26928faca75ac794, 0x26928faca75ac794, 0x26928faca75ac794,
      0x26928faca75ac794, 0x26928faca75ac794, 0x26928faca75ac794,
      0x26928faca75ac794, 0x26928faca75ac794}},
    {"random_09",
     {0x5fb97ff019cd150d, 0x198464d5a9a3b2c7, 0x7feac0a436fd9772,
      0x7eded7e12ceb0ff1, 0x8865d81e74b4d8d4, 0x01b4b0ddb3ccd895,
      0x398ea44d19baa1e4, 0x153caaad81925cbe}},
    {"random_10",
     {0x016f87df560aaedf, 0x016f87df560aaedf, 0x016f87df560aaedf,
      0x016f87df560aaedf, 0x016f87df560aaedf, 0x016f87df560aaedf,
      0x016f87df560aaedf, 0x016f87df560aaedf}},
    {"random_11",
     {0xda2e9e6e73ad3190, 0x56170181c31e2951, 0x7ca05e557377305e,
      0x09fdd94e69a0a8dd, 0x87b0756a84ac2489, 0x0532acf2289c7fe2,
      0x54856636a93604a6, 0x81549ab9f43b72d0}},
    {"random_12",
     {0x2fde337ce3fcfde6, 0xef5e182be76207db, 0x5af9fba251ef48e9,
      0xbb17abb0b3f611e7, 0x9588ea83bd48c641, 0xdb21d50dec6b1ebc,
      0x11755992c96c46c7, 0x2ef1a0e424b7cec0}},
    {"random_13",
     {0x93245709b8d93c05, 0x9ca01826e2971025, 0xdefe0365c2debb89,
      0x5ef464c4200894d0, 0x54fa9d248d4dcec3, 0x7f00b5672a477d21,
      0x58a0aebd05da3b95, 0xf948f7bbae7fa8f0}},
    {"random_14",
     {0xcc431406bdb9a0bc, 0xe4e2b5f224d5845c, 0x9ac3b56a1d02780b,
      0x8642130d30a1c812, 0x3bf580b967cc492a, 0xe88ae19a646c8e87,
      0x62b50109c9436821, 0xa68712d3fbab644a}},
    {"random_15",
     {0xf11f57cc8958ffe1, 0x84bed667af4aa011, 0x87a00f6591906d4e,
      0xf5de02f8fe98ef03, 0x400521489ad5cc41, 0x2f982c12e7ec15ff,
      0x21d21c9c134f98bf, 0xaeda759876fa7f15}},
    {"random_16",
     {0xaa65ad3df4a32b40, 0x447067edc23974a7, 0x1ae18826ac79135c,
      0xe46e7426dfe54d18, 0xb800e5d964dca147, 0xa272172f2c96ec83,
      0x315eb74420dd0310, 0xad56b7e0878801ed}},
    {"random_17",
     {0x38bc4adbaf1eda47, 0x38bc4adbaf1eda47, 0x38bc4adbaf1eda47,
      0x38bc4adbaf1eda47, 0x38bc4adbaf1eda47, 0x38bc4adbaf1eda47,
      0x38bc4adbaf1eda47, 0x38bc4adbaf1eda47}},
    {"random_18",
     {0x5fb96a50fe412bdc, 0x5fb96a50fe412bdc, 0x5fb96a50fe412bdc,
      0x5fb96a50fe412bdc, 0x5fb96a50fe412bdc, 0x5fb96a50fe412bdc,
      0x5fb96a50fe412bdc, 0x5fb96a50fe412bdc}},
    {"random_19",
     {0x29e848c04be5867c, 0x26867d1c9eff5894, 0xe57c5098d203141c,
      0x0dfae42ff919e2de, 0x30dcf1abae81ad44, 0xf93084bdda3993e9,
      0xf14263b27cbbc6e6, 0xe0cfadf6ca5a23b5}},
    {"random_20",
     {0x0c179587e3555b71, 0x62f54918d81cf8ba, 0x5306d73ded873708,
      0xfbff72cb4f5c39df, 0xa4e8693b4ddfa46f, 0x1910919b51ad5a4d,
      0x7906489ca9566134, 0x78004e1242b03ad6}},
    {"random_21",
     {0xa2698e4cecc9649e, 0x4408b630c79fefc2, 0x3078f2dad4a37a16,
      0x423808807a430345, 0x15848926afd1b73a, 0xce848501db06d180,
      0x4786969a945068b4, 0x886d45e3b06cd3ad}},
    {"random_22",
     {0x4b694daec8101403, 0xf72d21538f6bd7cb, 0x594b0c1993e0764e,
      0xc33100338caa2b26, 0x9d4360a0ac2370e0, 0xfd39a01f6487be77,
      0x1b8ba90fa93b198a, 0x56e33c21fe59cc3e}},
    {"random_23",
     {0xa9df925ad5a0a53f, 0xa9df925ad5a0a53f, 0xa9df925ad5a0a53f,
      0xa9df925ad5a0a53f, 0xa9df925ad5a0a53f, 0xa9df925ad5a0a53f,
      0xa9df925ad5a0a53f, 0xa9df925ad5a0a53f}},
    {"random_24",
     {0xac40c060332d441e, 0xb0dc9edf36fcdef2, 0x42092c6db900abef,
      0x2407123415f2ab37, 0xce6a28dc9b255650, 0xc46a3cebc787cdf2,
      0x897f9942a67806a8, 0xfaf0a908e20ccb32}},
    {"random_25",
     {0x70a97b44e57c9cad, 0xddccb0663bebb733, 0x49c4b211090c57d6,
      0x91191492db8b07be, 0xc86e81019d7244c8, 0xd03210b47bb0d11d,
      0x78e588338b4c86fc, 0x5a1096fab1a674cf}},
    {"random_26",
     {0x51b7bac4886ed454, 0xe42feab5d82b9df1, 0xd71db28866a443c9,
      0x7818a47562ee2888, 0x5d69cd44b0be0060, 0x25a8386679255619,
      0x8cfd867f62d59c8d, 0xc3c389edc13c5a13}},
    {"random_27",
     {0x7c1e481630c0999b, 0x7c1e481630c0999b, 0x7c1e481630c0999b,
      0x7c1e481630c0999b, 0x7c1e481630c0999b, 0x7c1e481630c0999b,
      0x7c1e481630c0999b, 0x7c1e481630c0999b}},
    {"random_28",
     {0x0e910ad417207715, 0xb2d031656a94dab6, 0xde1f4fe803f5dc92,
      0x26a73fda511695bd, 0xa44696935e4fa91d, 0xea3b9954ba81ab77,
      0x60273efcf9b78d08, 0x96c8de1b5a031927}},
    {"random_29",
     {0x2c813557951279cc, 0x2e010cd37aa359c4, 0x65ab7e4a1afa72a4,
      0x5ee596cee17c5a6f, 0x88ec03051ea5e93a, 0x8999b29e77296751,
      0x14a87d50c9958a88, 0x6bea19d4c5b0645b}},
    {"random_30",
     {0x053afe3199012f83, 0x053afe3199012f83, 0x053afe3199012f83,
      0x053afe3199012f83, 0x053afe3199012f83, 0x053afe3199012f83,
      0x053afe3199012f83, 0x053afe3199012f83}},
    {"random_31",
     {0xa40b88119e2c1aae, 0xa40b88119e2c1aae, 0xa40b88119e2c1aae,
      0xa40b88119e2c1aae, 0xa40b88119e2c1aae, 0xa40b88119e2c1aae,
      0xa40b88119e2c1aae, 0xa40b88119e2c1aae}},
    {"random_32",
     {0x57aae1b9c20fb9e1, 0xc2502408f95f0934, 0xa7f8a379a071cc4b,
      0xade707e93a82711e, 0x8da182b79f6f6aab, 0x62f9008ef0ecb90c,
      0x4a12ba76e93e300b, 0x7641fda1ebce7065}},
    {"random_33",
     {0x067d1741ce03b14d, 0xa4d07a72a8b3fbeb, 0x9749145e75586d9c,
      0xfb3700ff0ce34f08, 0x105a5efff2f0e422, 0xc0a06f252cbc1e80,
      0x8048216b17dbf790, 0x473f6254dd5486c4}},
    {"random_34",
     {0x4b98ff92a52ead8f, 0x6ae57ce717b17f1c, 0x5989e67e39fff6e3,
      0x6c2f330dd3da2a8d, 0xb7960768819c9808, 0x0c2c5ad7887b69c4,
      0x001eee0860144749, 0xbca946e291e877c2}},
    {"random_35",
     {0xebb38c635d307012, 0x62b5ad47572ed275, 0x0c78fd9e91076eff,
      0xe30fd7b7695f7776, 0x85c240efee71688c, 0x23fcd0386fd14748,
      0x204cc5f8f05e3053, 0x2cb46ab5e143deff}},
    {"random_36",
     {0x93167743a34c3eeb, 0x5a649decb3b069fc, 0x1a3f54884466b751,
      0xf945a2592038f0c4, 0x4d58df3557054c61, 0x6bc640e0f2d7e247,
      0xab3dee22f6c3dd73, 0x21119f48694c5e3c}},
    {"random_37",
     {0x14b306d64936673f, 0x7887f8a11dfaf8e1, 0xe378319503b080cc,
      0x7c7a0708a8ab44db, 0xe92dd743fdfe6c84, 0x5e15a512e594c569,
      0xfad1d532bc40d762, 0xe6fbe7da80ca4231}},
    {"random_38",
     {0x64f48daaeeaf93cc, 0xb47f09f124bab366, 0x7b73b70881c544a1,
      0xa48e63956bb7c4c6, 0x74eb0d6f25510c51, 0x9016bcc01f151472,
      0x72bec935f6518f39, 0x93f035431c04a5cd}},
    {"random_39",
     {0x6d5ef4ecfdc56e46, 0x6d5ef4ecfdc56e46, 0x6d5ef4ecfdc56e46,
      0x6d5ef4ecfdc56e46, 0x6d5ef4ecfdc56e46, 0x6d5ef4ecfdc56e46,
      0x6d5ef4ecfdc56e46, 0x6d5ef4ecfdc56e46}},
    {"random_40",
     {0x2cb34e2379a9a9a1, 0x594f0dc86f905135, 0xb3813c358bc77905,
      0x741880df27a53dca, 0x55785b1186601815, 0x18fd0bf783ede5a8,
      0xe273faba64d30595, 0x84476723af4b3698}},
    {"random_41",
     {0xa9cfc37ca5efb114, 0xa94228d67bc9bc6b, 0x0187e0719eebb90a,
      0xc6e5359154ae3fdf, 0xb855b85e53321880, 0x6af186e5695027df,
      0x7efbbac46d52a403, 0x57817137dd977395}},
    {"random_42",
     {0x1d427b91c684dd9f, 0x08fae229f049e73e, 0x7feb2e2cdf7c2913,
      0x0e72a75471341d28, 0x1fe9152c9e3903f6, 0x51efde0488e99195,
      0xc2fb3c3873c47f7c, 0x1b42965cb2b1b6d7}},
    {"random_43",
     {0xfb5d2f629602bc15, 0x790074594931a1bb, 0xaf94a20225091610,
      0x14f9c6036eb380b4, 0x6df5a91f18147f2b, 0x4d1b357b37b4a090,
      0xdd74823a606c6f54, 0x6bf517c275101f42}},
    {"random_44",
     {0x72a769bc887a1b41, 0x33b3764be40b7134, 0x089bc30e52f07604,
      0x793f18aded2e00bc, 0x34ae2b4239fe3fe7, 0xe8547269a281e7a7,
      0x6313177298b3a2a1, 0xc942c2074558b9f1}},
    {"random_45",
     {0x57994dabe00a32cc, 0x57994dabe00a32cc, 0x57994dabe00a32cc,
      0x57994dabe00a32cc, 0x57994dabe00a32cc, 0x57994dabe00a32cc,
      0x57994dabe00a32cc, 0x57994dabe00a32cc}},
    {"random_46",
     {0x85fc926f7acd086f, 0x2f4c6b1cb11612f8, 0xe1d195b8fa7c39e4,
      0xcd568e55e19352dd, 0xaca6e7fc4bed4857, 0x636d1d85a2d88124,
      0x99fdfdd29d3e4040, 0xbd538f4d03e3135a}},
    {"random_47",
     {0x9f3ed6bf6fb48d1d, 0xb84c3b4e29083490, 0x0febcd16d7dbeb86,
      0x695cfa38d8e80455, 0x962d6733b72abd37, 0x7b88ed0dd46bdeff,
      0xa52b02080e71586d, 0x996a85fad74c22b1}},
    {"random_48",
     {0xe35b0f28189a4417, 0xe35b0f28189a4417, 0xe35b0f28189a4417,
      0xe35b0f28189a4417, 0xe35b0f28189a4417, 0xe35b0f28189a4417,
      0xe35b0f28189a4417, 0xe35b0f28189a4417}},
    {"random_49",
     {0xd1699b2c3697c6ae, 0xe7b6268770c38b2b, 0x39b8d04895af3aa3,
      0xf5f33156634e8b8f, 0x8be0cde82b36ee2a, 0x49e465a44770ab38,
      0x51fcb61664e16b7d, 0x786eb605dabcfbae}},
    {"random_50",
     {0x90da505d4f10d5f5, 0x124aa47426fa1e38, 0x8c945d10ae94b33f,
      0x255b83bb9697b66f, 0xc9afaf3346e8c2c4, 0xfd890122f63be73e,
      0x53115e3867330e48, 0x1eedaa06700ba5f9}},
    {"random_51",
     {0x45b6d71d63954721, 0x46d418780830c35e, 0x30bc613515987f3a,
      0x4d2f6f6dc154acd9, 0x7c0a5fec5c450c19, 0xd09ec78608ab6397,
      0x5d24be7f856ea6a9, 0xa2eaffc1783deb83}},
    {"random_52",
     {0x10d784e1648da975, 0xedc15e08fe068d67, 0xb46e51f371deb4d5,
      0x1ff31839f7b4e429, 0xff8e38a099cffe2b, 0xada07d5438c02a8b,
      0x1846ddf8df033d77, 0x46da8827d11094b4}},
    {"random_53",
     {0xe7430b5ea697c303, 0xe7430b5ea697c303, 0xe7430b5ea697c303,
      0xe7430b5ea697c303, 0xe7430b5ea697c303, 0xe7430b5ea697c303,
      0xe7430b5ea697c303, 0xe7430b5ea697c303}},
    {"random_54",
     {0xdbe454adf0589b4e, 0x9895b19040bc8610, 0x9598a57d646e914e,
      0xfa8b047df9a7b84e, 0xdca5c8309753e100, 0xc23bed75cbf599ae,
      0x8261894ce5492a6d, 0x84c8970decef751f}},
    {"random_55",
     {0x6c6b94510dc777c6, 0xdd7fb01dd32dbd43, 0xffca728371d639c8,
      0xf4fd193d700aeeea, 0xb14b1fa4e09de570, 0x5983cdfc3b15d4eb,
      0x71a179716a834938, 0x0f99a2806433d1cb}},
    {"random_56",
     {0x3823bdaf2404289b, 0x708f42e95e5dbbdc, 0x852253bbcf3ac063,
      0x71b7d625146435f2, 0xb38e07ea279c4638, 0x8d9eb265e7d98481,
      0x5f98bf0e70ea33b3, 0x742df12c510780d0}},
    {"random_57",
     {0xa9f1b8fed626538a, 0xa51b646986a630dc, 0x9565068c19c269f4,
      0xb2cc49f128fce890, 0xe9e45f41e4854dd0, 0x1e3413b0be7c900c,
      0x8aab76f32128bbff, 0x22f9a23a18fbb11c}},
    {"random_58",
     {0xcb5ce9564201d992, 0xbd82946fd05f4bf7, 0x548f40426b7446a6,
      0x8c8dea47d0f51432, 0xbb5d388f52b086c0, 0xe7bba54a9f425a6e,
      0x12a964ea621c35d4, 0x3fa3600b20287a79}},
    {"random_59",
     {0x867c8be176656165, 0x867c8be176656165, 0x867c8be176656165,
      0x867c8be176656165, 0x867c8be176656165, 0x867c8be176656165,
      0x867c8be176656165, 0x867c8be176656165}},
    {"servo_rk4",
     {0x2a55cc0e2443418b, 0x2a55cc0e2443418b, 0x2a55cc0e2443418b,
      0x2a55cc0e2443418b, 0x2a55cc0e2443418b, 0x2a55cc0e2443418b,
      0x2a55cc0e2443418b, 0x2a55cc0e2443418b}},
    {"servo_rkf45",
     {0x22b1f5893eaaebcb, 0x22b1f5893eaaebcb, 0x22b1f5893eaaebcb,
      0x22b1f5893eaaebcb, 0x22b1f5893eaaebcb, 0x22b1f5893eaaebcb,
      0x22b1f5893eaaebcb, 0x22b1f5893eaaebcb}},
    {"chains_200",
     {0x6d000e58700e9991, 0x6d000e58700e9991, 0x6d000e58700e9991,
      0x6d000e58700e9991, 0x6d000e58700e9991, 0x6d000e58700e9991,
      0x6d000e58700e9991, 0x6d000e58700e9991}},
    {"god_tdma2",
     {0x05818f7cb95217d9, 0x18ffde1ac31d10fd, 0x34de0cad1e2bced5,
      0x95be53d1fa8351f1, 0x1e97382e4b139a7b, 0x9b63e8a270372ebc,
      0x86c9254e355f5069, 0x2be7e528edfb1839}},
    {"god_can_spec",
     {0x7375a65fd5d37885, 0x5e0d0a46e4922ee9, 0x50d9fcc649ddc160,
      0x4194ea7d15ba055c, 0x41c8f846f68db1de, 0xc31bec0243feebf3,
      0xb7b4aadf529670f6, 0x8518552f3ed547b6}},
    {"god_can_random",
     {0xe2b7535879b41e76, 0x6f0a1ae64dca258f, 0x953a3fbf8c12b718,
      0xd8471e8c08d1df3f, 0xd71b6ce256600618, 0xda4a088b1cb9811b,
      0x8bc96af2af59ccb5, 0xd1a60e5ff813347a}},
};

class SimGolden : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SimGolden, EveryDriverMatchesTable) {
  const std::size_t i = GetParam();
  const Input in = input(i);
  ASSERT_LT(i, std::size(kGolden)) << "no row; interp gives\n"
                                   << row(in.name, run_interp(i, in, false));
  const GoldenRow& want = kGolden[i];
  ASSERT_EQ(in.name, want.name) << row(in.name, run_interp(i, in, false));
  const auto check = [&](const char* driver, const Digests& got) {
    EXPECT_EQ(got, want.digests)
        << in.name << " under " << driver << " now gives\n"
        << row(in.name, got);
  };
  check("interp", run_interp(i, in, false));
  check("full_refresh", run_interp(i, in, true));
  check("native", run_native(i, in));
  check("lanes_w1", run_lanes(i, in, 1));
  check("lanes_w8", run_lanes(i, in, kLanes));
}

INSTANTIATE_TEST_SUITE_P(Inputs, SimGolden,
                         ::testing::Range<std::size_t>(
                             0, kRandomInputs + 3 + kGodInputs),
                         [](const ::testing::TestParamInfo<std::size_t>& p) {
                           return input(p.param).name;
                         });

}  // namespace
}  // namespace ecsim::sim
