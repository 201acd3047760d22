// Golden regression suite for the executive VM. Seeded random workloads on
// CAN buses (with and without background blocking), multi-hop routes that
// cross a CAN medium, CAN mixed with plain and TDMA media, and fault plans
// with loss, delay and duplication on CAN frames (including losses on a
// predecessor hop) are each run twice — exact WCET and random execution
// times — and an FNV-1a digest of the whole VmResult (op instances, comm
// instances, injections, counters, deadlock report) is compared with a
// committed table. The table pins the VM's observable behaviour, so any
// change to its arbitration bookkeeping must reproduce every trace bit for
// bit.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "aaa/adequation.hpp"
#include "aaa/codegen.hpp"
#include "exec/executive_vm.hpp"
#include "properties/random_graphs.hpp"

namespace ecsim::exec {
namespace {

class Fnv {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t digest(const VmResult& vm) {
  Fnv h;
  h.u64(vm.ops.size());
  for (const OpInstance& oi : vm.ops) {
    h.u64(oi.op);
    h.u64(oi.iteration);
    h.u64(oi.proc);
    h.f64(oi.start);
    h.f64(oi.end);
    h.u64(oi.branch);
  }
  h.u64(vm.comms.size());
  for (const CommInstance& ci : vm.comms) {
    h.u64(ci.comm);
    h.u64(ci.iteration);
    h.f64(ci.start);
    h.f64(ci.end);
  }
  h.u64(vm.injections.size());
  for (const fault::Injection& in : vm.injections) {
    h.u64(static_cast<std::uint64_t>(in.kind));
    h.u64(in.fault);
    h.u64(in.comm);
    h.u64(in.op);
    h.u64(in.iteration);
    h.f64(in.at);
  }
  for (const std::size_t c :
       {vm.messages_lost, vm.messages_delayed, vm.messages_duplicated,
        vm.op_overruns, vm.node_stalls, vm.stale_reads, vm.cycles_skipped}) {
    h.u64(c);
  }
  h.u64(vm.deadlock ? 1 : 0);
  h.bytes(vm.deadlock_info.data(), vm.deadlock_info.size());
  return h.value();
}

/// "P3", "l0", ...: appended rather than operator+ so GCC 12 does not raise
/// a spurious -Wrestrict on the inlined concatenation.
std::string named(const char* stem, std::size_t i) {
  std::string s(stem);
  s += std::to_string(i);
  return s;
}

enum class Family { kCan, kCanBlocking, kMultiHop, kMixed, kFaults, kTies };
constexpr std::size_t kFamilies = 6;
constexpr std::size_t kCasesPerFamily = 20;

/// P0..P(n-1) attached to one CAN bus "can0".
aaa::ArchitectureGraph can_bus(math::Rng& rng, std::size_t n, Time blocking) {
  aaa::ArchitectureGraph arch("golden-can");
  const aaa::MediumId bus =
      arch.add_medium("can0", rng.uniform(2e3, 2e4), rng.uniform(0.0, 1e-4));
  for (std::size_t i = 0; i < n; ++i) {
    arch.attach(arch.add_processor(named("P", i)), bus);
  }
  arch.set_can(bus, blocking);
  return arch;
}

/// A line P0 - P1 - ... - P(n-1) of point-to-point media "l0".."l(n-2)",
/// each CAN or plain, at least one CAN. Routes between the ends take n-1
/// hops, so frames on a CAN link wait on predecessor hops that may sit on
/// another CAN link or on a plain one.
aaa::ArchitectureGraph can_line(math::Rng& rng, std::size_t n) {
  aaa::ArchitectureGraph arch("golden-line");
  for (std::size_t i = 0; i < n; ++i) arch.add_processor(named("P", i));
  const std::size_t forced = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 2));
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const aaa::MediumId m = arch.add_medium(
        named("l", i), rng.uniform(2e3, 2e4), rng.uniform(0.0, 1e-4));
    arch.attach(i, m);
    arch.attach(i + 1, m);
    if (i == forced || rng.uniform() < 0.5) {
      arch.set_can(m, rng.uniform() < 0.5 ? 0.0 : rng.uniform(1e-4, 1e-3));
    }
  }
  return arch;
}

/// A CAN bus over P0..P(n-1), a TDMA bus over the upper half and a plain
/// link between the last processor and an extra gateway-only processor.
aaa::ArchitectureGraph mixed_media(math::Rng& rng, std::size_t n) {
  aaa::ArchitectureGraph arch("golden-mixed");
  for (std::size_t i = 0; i <= n; ++i) arch.add_processor(named("P", i));
  const aaa::MediumId can = arch.add_medium("can0", rng.uniform(2e3, 2e4),
                                            rng.uniform(0.0, 1e-4));
  const aaa::MediumId tdma = arch.add_medium("tdma0", rng.uniform(5e3, 5e4));
  const aaa::MediumId link = arch.add_medium("link0", rng.uniform(5e3, 5e4),
                                             rng.uniform(0.0, 1e-4));
  for (std::size_t i = 0; i < n; ++i) arch.attach(i, can);
  for (std::size_t i = n / 2; i < n; ++i) arch.attach(i, tdma);
  arch.attach(n - 1, link);
  arch.attach(n, link);
  arch.set_can(can, rng.uniform() < 0.5 ? 0.0 : rng.uniform(1e-4, 1e-3));
  arch.set_tdma(tdma, rng.uniform(2e-4, 1e-3),
                static_cast<std::size_t>(rng.uniform_int(1, 3)));
  return arch;
}

/// Pins a share of the operations to random processors so cross-processor
/// (and, on lines, multi-hop) traffic is guaranteed.
void bind_some(math::Rng& rng, aaa::AlgorithmGraph& alg, std::size_t procs,
               double share) {
  for (aaa::OpId op = 0; op < alg.num_operations(); ++op) {
    if (rng.uniform() < share) {
      alg.op(op).bound_processor =
          named("P", static_cast<std::size_t>(rng.uniform_int(
                         0, static_cast<std::int64_t>(procs) - 1)));
    }
  }
}

/// Tie-heavy variant of a random graph: WCETs on a 0.1 ms grid plus a few
/// 0.4 ps steps, so start instants reached along different paths tie
/// exactly, to rounding, or within a few kArbEps of each other (where the
/// outcome depends on the slot-order scan), and message priorities from
/// {0, 1, 2}, so equal-priority frames fall through to the comm-index
/// tie-break.
aaa::AlgorithmGraph with_ties(math::Rng& rng, const aaa::AlgorithmGraph& alg) {
  aaa::AlgorithmGraph out(alg.name(), alg.period());
  for (aaa::OpId op = 0; op < alg.num_operations(); ++op) {
    aaa::Operation o = alg.op(op);
    o.wcet["cpu"] = 1e-4 * static_cast<double>(rng.uniform_int(1, 5)) +
                    4e-13 * static_cast<double>(rng.uniform_int(0, 3));
    out.add_operation(std::move(o));
  }
  for (const aaa::DataDep& d : alg.dependencies()) {
    const double size = 4.0 * static_cast<double>(rng.uniform_int(1, 2));
    out.add_dependency(d.from, d.to, size,
                       static_cast<std::size_t>(rng.uniform_int(0, 2)));
  }
  return out;
}

struct GoldenRun {
  std::uint64_t wcet = 0;
  std::uint64_t random = 0;
};

GoldenRun run_case(Family family, std::size_t index) {
  math::Rng rng(1000 * (static_cast<std::uint64_t>(family) + 1) + index);
  const std::size_t n_ops =
      6 + static_cast<std::size_t>(rng.uniform_int(0, 34));
  aaa::AlgorithmGraph alg = testing::random_dag(rng, n_ops, 1.0);
  aaa::ArchitectureGraph arch;
  VmOptions opts;
  switch (family) {
    case Family::kCan:
    case Family::kCanBlocking: {
      const auto n = static_cast<std::size_t>(rng.uniform_int(2, 4));
      const Time blocking =
          family == Family::kCan ? 0.0 : rng.uniform(1e-4, 2e-3);
      arch = can_bus(rng, n, blocking);
      bind_some(rng, alg, n, 0.3);
      break;
    }
    case Family::kMultiHop: {
      const auto n = static_cast<std::size_t>(rng.uniform_int(3, 4));
      arch = can_line(rng, n);
      bind_some(rng, alg, n, 0.5);
      break;
    }
    case Family::kMixed: {
      const auto n = static_cast<std::size_t>(rng.uniform_int(3, 5));
      arch = mixed_media(rng, n);
      bind_some(rng, alg, n + 1, 0.4);
      break;
    }
    case Family::kFaults: {
      // Even cases: a shared CAN bus; odd cases: a line, where a frame lost
      // on one hop propagates as a lost predecessor to the next.
      std::size_t n;
      if (index % 2 == 0) {
        n = static_cast<std::size_t>(rng.uniform_int(2, 4));
        arch = can_bus(rng, n, rng.uniform() < 0.5 ? 0.0 : 5e-4);
      } else {
        n = static_cast<std::size_t>(rng.uniform_int(3, 4));
        arch = can_line(rng, n);
      }
      bind_some(rng, alg, n, 0.5);
      fault::FaultPlan& plan = opts.fault_plan;
      plan.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 20));
      plan.message_loss("", rng.uniform(0.05, 0.4));
      plan.message_delay("", rng.uniform(0.0, 0.4), rng.uniform(1e-4, 5e-3));
      plan.message_duplicate("", rng.uniform(0.0, 0.3),
                             static_cast<std::size_t>(rng.uniform_int(1, 2)));
      if (index % 3 == 0) plan.op_overrun("", 0.2, 1.5);
      opts.fault_policy = index % 4 < 2
                              ? fault::DegradationPolicy::kHoldLastSample
                              : fault::DegradationPolicy::kSkipCycle;
      break;
    }
    case Family::kTies: {
      alg = with_ties(rng, alg);
      std::size_t n;
      if (index % 2 == 0) {
        n = static_cast<std::size_t>(rng.uniform_int(2, 4));
        arch = aaa::ArchitectureGraph("golden-ties");
        const aaa::MediumId bus = arch.add_medium("can0", 2e4, 1e-4);
        for (std::size_t i = 0; i < n; ++i) {
          arch.attach(arch.add_processor(named("P", i)), bus);
        }
        arch.set_can(bus, index % 4 == 0 ? 0.0 : 3e-4);
      } else {
        n = static_cast<std::size_t>(rng.uniform_int(3, 4));
        arch = can_line(rng, n);
      }
      bind_some(rng, alg, n, 0.6);
      break;
    }
  }
  const aaa::Schedule sched = aaa::adequate(alg, arch);
  const aaa::GeneratedCode code = aaa::generate_executives(alg, arch, sched);

  opts.iterations = 4 + static_cast<std::size_t>(rng.uniform_int(0, 6));
  // Every fourth case free-runs (period 0), so iterations overlap on the
  // bus; the rest release at a period at or somewhat above the makespan.
  opts.period =
      index % 4 == 3 ? 0.0 : sched.makespan() * rng.uniform(1.0, 1.5);
  GoldenRun out;
  out.wcet = digest(run_executives(alg, arch, sched, code, opts));
  opts.exec_time = uniform_fraction_exec_time(rng.uniform(0.2, 0.8));
  opts.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));
  out.random = digest(run_executives(alg, arch, sched, code, opts));
  return out;
}

// {WCET run, random-times run} per case, captured from the reference VM.
constexpr GoldenRun kGolden[kFamilies][kCasesPerFamily] = {
    {
        {0x0eef2d0be952656cULL, 0x77e9d72959daa4beULL},
        {0x16f535ef37cf92e5ULL, 0x246b525b40a25194ULL},
        {0xfeff119be2675fc4ULL, 0x2fdd8a95286244b8ULL},
        {0xeae38b536d2735bbULL, 0x2fbe6380b6cfcb3cULL},
        {0x129b9327f723c687ULL, 0xc09621d9c6404598ULL},
        {0x3c4714a2687c6e83ULL, 0x97dd85833e134a06ULL},
        {0x55c3662fcb73ae1dULL, 0x4647920d6d6b98e7ULL},
        {0xdac8ff139200c661ULL, 0x5c7249118f63ecfbULL},
        {0x7c907ece54aa948bULL, 0x81b8a9d7f89b4c5dULL},
        {0x1872b1ed4a2a3672ULL, 0xaa2a89db08ceff5eULL},
        {0x81bea4ffe2850bc2ULL, 0x3032d91c21a73a93ULL},
        {0x90e457bba6af5df0ULL, 0x6ef5960b732247a1ULL},
        {0x7f2d9c522f11da08ULL, 0x0391a736444201b4ULL},
        {0xf7baf6431dd2f2ebULL, 0x88b2d8d441e82a30ULL},
        {0xb43735b013c6c151ULL, 0x19a81f71f083887fULL},
        {0xd6a0e5f0131b91f6ULL, 0x24585646bd3170adULL},
        {0x719ccf2e12df1481ULL, 0x6174f9d3621f4a92ULL},
        {0x871fb945f45a645eULL, 0x9e232b9863da8e26ULL},
        {0x9076680502932e09ULL, 0x07265fead24f4ee4ULL},
        {0x58740c7157fa0c7fULL, 0x241ef83a192dc665ULL},
    },
    {
        {0x497b9e801cd03a16ULL, 0xafa9fbf56fddca3dULL},
        {0xb214921b52ab3d19ULL, 0x31d6bc995959a6fbULL},
        {0x9fa650329c0fd043ULL, 0xbcf01d2ea71d118cULL},
        {0x258635cddf07b05dULL, 0x25c30711f646dd17ULL},
        {0xb8ec00ca412999ceULL, 0xe17ee107c11b7acfULL},
        {0xe61b5cdf3f0ed4fbULL, 0x60a1c046e3d3e7fcULL},
        {0xca7d29879f2e9c35ULL, 0xc9d56c08af1be896ULL},
        {0x410d75edf400c508ULL, 0xb9b9847da6e47631ULL},
        {0xa18397783c90be2aULL, 0x6784c2f7c2850039ULL},
        {0x5a091f052c28e65dULL, 0x5ac741552aecdeecULL},
        {0x9ec24d50b5a2dba7ULL, 0x42dfb0b28d98151dULL},
        {0x8841ada220333658ULL, 0x84e654ce2d1680b8ULL},
        {0x9dbf4dafbd2ab36cULL, 0xccd3945331f09291ULL},
        {0xed09df8a9237c748ULL, 0x7dd0cff33dad996cULL},
        {0x1fe1e513d80e16b2ULL, 0x09eb7c96c64e5d8fULL},
        {0xae67839c180e75d4ULL, 0xa3a0a6a8ba720d8dULL},
        {0xf9c886670fc18384ULL, 0xdc4b130305f3db35ULL},
        {0x2b8f9da5e07174baULL, 0x778c69d9ff97af7bULL},
        {0x85a207ef41c50509ULL, 0x2685a7b0b3315112ULL},
        {0x45be4c634816a6caULL, 0x63109162afa0f8d8ULL},
    },
    {
        {0x996c9047fed790a5ULL, 0x5a3280a659a203adULL},
        {0x5562eb20be915d99ULL, 0x46dec3ff8a85dbf4ULL},
        {0xc3148c2826e8f4c0ULL, 0xdf30a12aff6184b7ULL},
        {0x009290e0468c1ce2ULL, 0x10cc4669dfe21efcULL},
        {0xca5b942279eb584aULL, 0x5e2f004184651b20ULL},
        {0x49e61699790afbcfULL, 0xda4322f81a39168cULL},
        {0x6a01eb0dbc03d288ULL, 0x46005e2bba0ba64cULL},
        {0x35fb94f2ca45dddfULL, 0x82dbc1645a156d48ULL},
        {0x37ffed0fe7c3285bULL, 0x88897b14036be193ULL},
        {0x8987470cba90f2a2ULL, 0x6b584658a7dd3204ULL},
        {0x7f64836c55cea4ddULL, 0x8f893070f4375896ULL},
        {0xd7b2f4f16b1ee00aULL, 0x7c8a2f3ed57d4e82ULL},
        {0x0f895579848f2dc9ULL, 0x1e5c13bb94bcefe8ULL},
        {0xc1821e005bf2fa08ULL, 0x5bd74ccbaab9d04bULL},
        {0x0f468306c4ef533bULL, 0x56e7fdc064e94049ULL},
        {0x2fcf1dacffb431b4ULL, 0xaa5ac2a8c0ad8221ULL},
        {0x5ab9aceda7d6cceeULL, 0xcb7f49f8866f32f4ULL},
        {0xfa966da55a1a7461ULL, 0xf6a6c6ed8c813d82ULL},
        {0xce01cd7ecc28c208ULL, 0x13f92feddf0cdedcULL},
        {0xcc256f0649d628a7ULL, 0xba24a044e41571faULL},
    },
    {
        {0xc4dfdf096f8d18dcULL, 0xca9c798b1b0ace5bULL},
        {0x544aa94a1f7e2554ULL, 0x08fb40c1ad6676f1ULL},
        {0xe4a60dcb5a278161ULL, 0x0a8b47cf84e6acfcULL},
        {0x8cb3cc26486a44a3ULL, 0xd59cc9b292a9075eULL},
        {0x9667f1fbce108a15ULL, 0xfc059fb832d70e4fULL},
        {0x121e82219c76e560ULL, 0x3933fc40c29ddbefULL},
        {0x1c16f49848e45a3fULL, 0xf4953e2001e0e945ULL},
        {0xd271650ba8fee516ULL, 0xea0ff1e43d04ea10ULL},
        {0xb800031a61e3d5a8ULL, 0x9232f5394d783abeULL},
        {0xc25b1646e4648f5cULL, 0x623602bb73cb412cULL},
        {0x1ecc2ee44863ae1dULL, 0x034776ca58703ccdULL},
        {0x6edec2aad5ab46e7ULL, 0xa72ff96dba9c8551ULL},
        {0x11d2b6c309ad6d10ULL, 0x861faeaed139f8c0ULL},
        {0x162f4d1798ac61e0ULL, 0x20f10233916a8be5ULL},
        {0x28537113c813e5a8ULL, 0xb3370b0305c076d8ULL},
        {0x40f73f0882112c2bULL, 0xbcf1c00b8467462aULL},
        {0x051d1b315eac5fe5ULL, 0xa7a69b5e749de34eULL},
        {0x66aa872639ecda40ULL, 0xacb5b424d9ad5a5fULL},
        {0x17a43a264018a70cULL, 0x1392f66c9e521fa2ULL},
        {0xfffd135d1607c9eaULL, 0x521a8a048e75d5ceULL},
    },
    {
        {0x072b9f65c8217014ULL, 0x7dfc24c139ebf218ULL},
        {0x446dc8ea283f97eaULL, 0x58197e0c5ea35e44ULL},
        {0x74c8d44ae1946dd3ULL, 0x9e33cfb8f2c1ca4bULL},
        {0xd8e328d3fd16a4e9ULL, 0x16ff010447283057ULL},
        {0x37a949e2205f3354ULL, 0x91daa1528fc85704ULL},
        {0x71a67e2406663f14ULL, 0xc529fbf84dca7898ULL},
        {0x1bb8190a0c8c811fULL, 0x89a4c1bef1bb9185ULL},
        {0x26994d0b8db01985ULL, 0x3ed86eb69de75603ULL},
        {0x80185aec465ba755ULL, 0x77a2a04fa76926afULL},
        {0xd9fe35e98e4254ceULL, 0x6b79db6d0bdab325ULL},
        {0xd566895fa146333cULL, 0xe8d11816ceda86ebULL},
        {0xc36e4394947a8a30ULL, 0x06ece414b745b111ULL},
        {0xa994a6b1fc817799ULL, 0x0f61bc62f11a84f7ULL},
        {0x68d9f5042918e2ffULL, 0x4dc80255d1c965ebULL},
        {0x79449b01d3f470ebULL, 0x3170fa953b638079ULL},
        {0x221ce3a8ae765f3fULL, 0x2d316fcf3b63ac03ULL},
        {0x2bf0ce36ceb07938ULL, 0x44cddba2b63559a5ULL},
        {0x50d735f7c7732e20ULL, 0x5ec6f3989c6578cbULL},
        {0x0d95b518a7e96d60ULL, 0x454353adf8b42876ULL},
        {0xa1a3950d3a5fe6a4ULL, 0xc1d3f20405882982ULL},
    },
    {
        {0x97350426c418a283ULL, 0x279a3eac7bf87fdfULL},
        {0x59d1420266a15675ULL, 0xa2a850caf90981d2ULL},
        {0xfd35cc227e999e54ULL, 0xd0c4b5c89f89f732ULL},
        {0x15532bb75a256747ULL, 0x72b2afd5eab373cdULL},
        {0x52f3be56be8ab074ULL, 0xb9ac7701c174879aULL},
        {0x487558835a066c48ULL, 0x5346fecb708f973eULL},
        {0x9a652c1af68a1a30ULL, 0x9423fa450a98e4f0ULL},
        {0x912671b879838927ULL, 0x42da658131e7bcf1ULL},
        {0x2d5f0a343a78b6ceULL, 0x1ed5869c2b05f5efULL},
        {0x5a2e343a104ff2a2ULL, 0xf92bf67524d3cf15ULL},
        {0x0e9eaad4180dda9aULL, 0x5d82d6f07ddf268bULL},
        {0xb7af9431616d5186ULL, 0x7371b3cb4cb05273ULL},
        {0x194c38f1aa520df8ULL, 0x024841d2c5a1441aULL},
        {0x2ee6b810ba2eea78ULL, 0x47f226a024c638d9ULL},
        {0x8600bdb9b9ed3ed9ULL, 0x8f24912814b5b187ULL},
        {0x60dadd5021c84953ULL, 0xa5bea54cc6ce6eb0ULL},
        {0x8e07a3632984b062ULL, 0xf0798d2e35f11bf0ULL},
        {0x1c2e4627f5fe3325ULL, 0xefd4b2e8ccd91905ULL},
        {0xdda2538264522714ULL, 0xb06046c519cb9c82ULL},
        {0x958d5fbdc10bab94ULL, 0xc3ae7ca081db7fc1ULL},
    },
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void check_family(Family family) {
  const auto f = static_cast<std::size_t>(family);
  for (std::size_t i = 0; i < kCasesPerFamily; ++i) {
    const GoldenRun got = run_case(family, i);
    EXPECT_EQ(got.wcet, kGolden[f][i].wcet)
        << "family " << f << " case " << i << " WCET run: got "
        << hex(got.wcet);
    EXPECT_EQ(got.random, kGolden[f][i].random)
        << "family " << f << " case " << i << " random run: got "
        << hex(got.random);
  }
}

TEST(VmGolden, CanBusZeroBlocking) { check_family(Family::kCan); }
TEST(VmGolden, CanBusWithBlocking) { check_family(Family::kCanBlocking); }
TEST(VmGolden, MultiHopRoutesAcrossCan) { check_family(Family::kMultiHop); }
TEST(VmGolden, CanMixedWithPlainAndTdma) { check_family(Family::kMixed); }
TEST(VmGolden, FaultPlansOnCanFrames) { check_family(Family::kFaults); }
TEST(VmGolden, TiedStartsAndPriorities) { check_family(Family::kTies); }

/// Three frames whose ready instants lie within about one kArbEps (1 ps)
/// of each other on an idle CAN bus: a (priority 5) at t, b (priority 1) at
/// t + 0.5 ps, c (priority 9) at t - 0.7 ps. The tie relation is not
/// transitive here, so the winner depends on the scan order. In slot order
/// (a, b, c), b ties a and wins on priority, then c undercuts b by more
/// than kArbEps: c goes first. In the order the signals appear (c on P0,
/// b on P1, a on P2), a would tie c, win on priority and go first.
TEST(VmGolden, SlotOrderScanDecidesChainedNearTies) {
  constexpr Time t = 1e-3;
  aaa::AlgorithmGraph alg("near_ties", 0.0);
  const aaa::OpId a = alg.add_simple("a", aaa::OpKind::kSensor, t, "P2");
  const aaa::OpId b =
      alg.add_simple("b", aaa::OpKind::kSensor, t + 0.5e-12, "P1");
  const aaa::OpId c =
      alg.add_simple("c", aaa::OpKind::kSensor, t - 0.7e-12, "P0");
  const aaa::OpId act =
      alg.add_simple("act", aaa::OpKind::kActuator, 1e-4, "P3");
  alg.add_dependency(a, act, 8.0, 5);
  alg.add_dependency(b, act, 8.0, 1);
  alg.add_dependency(c, act, 8.0, 9);
  aaa::ArchitectureGraph arch =
      aaa::ArchitectureGraph::bus_architecture(4, 1e5);
  arch.set_can(0, 0.0);
  const aaa::Schedule sched = aaa::adequate(alg, arch);
  const aaa::GeneratedCode code = aaa::generate_executives(alg, arch, sched);
  const auto sender = [&](std::size_t ci) {
    return alg.dependencies()[sched.comms()[ci].dep_index].from;
  };
  const std::vector<std::size_t>& slots = sched.comms_on(0);
  ASSERT_EQ(slots.size(), 3u);
  ASSERT_EQ(sender(slots[0]), a);
  ASSERT_EQ(sender(slots[1]), b);
  ASSERT_EQ(sender(slots[2]), c);

  const VmResult vm = run_executives(alg, arch, sched, code, VmOptions{});
  ASSERT_FALSE(vm.deadlock) << vm.deadlock_info;
  ASSERT_EQ(vm.comms.size(), 3u);
  EXPECT_EQ(sender(vm.comms[0].comm), c);
  EXPECT_EQ(vm.comms[0].start, t - 0.7e-12);
}

}  // namespace
}  // namespace ecsim::exec
