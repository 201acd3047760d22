#include "svc/protocol.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <unistd.h>

#include "mathlib/rng.hpp"

namespace ecsim::svc {
namespace {

double from_bits(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Doubles across the whole encodable range: normals of mixed magnitude,
/// zeros, denormals, infinities and NaN payloads — the codec ships bit
/// patterns, so all of these must survive.
std::vector<double> awkward_doubles(std::size_t n, std::uint64_t seed) {
  math::Rng rng(seed);
  std::vector<double> v;
  v.reserve(n);
  const double specials[] = {0.0, -0.0, 5e-324,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::nan("0x5ca1ab1e")};
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.bernoulli(0.2)) {
      v.push_back(specials[rng.uniform_int(0, 5)]);
    } else {
      v.push_back(std::ldexp(rng.uniform(-1.0, 1.0),
                             static_cast<int>(rng.uniform_int(-300, 300))));
    }
  }
  return v;
}

TEST(ProtocolFraming, RoundTripsOverAPipe) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  // Largest payload stays under the 64 KiB pipe buffer: writer and reader
  // are the same thread here, so a frame must fit without blocking.
  const std::string payloads[] = {"", "x", std::string("\0\n\xff", 3),
                                  std::string(30000, 'q')};
  for (const std::string& p : payloads) {
    ASSERT_TRUE(write_frame(fds[1], p));
    std::string got;
    ASSERT_TRUE(read_frame(fds[0], got));
    EXPECT_EQ(got, p);
  }
  ::close(fds[1]);
  std::string got;
  EXPECT_FALSE(read_frame(fds[0], got));  // EOF
  ::close(fds[0]);
}

TEST(ProtocolFraming, RejectsOversizedLengthPrefix) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  // Length prefix far beyond kMaxFrameBytes, little-endian.
  const unsigned char prefix[4] = {0xff, 0xff, 0xff, 0x7f};
  ASSERT_EQ(::write(fds[1], prefix, 4), 4);
  ::close(fds[1]);
  std::string got;
  EXPECT_FALSE(read_frame(fds[0], got));
  ::close(fds[0]);
}

TEST(ProtocolFields, RoundTripsBinaryValues) {
  Fields f;
  f.set("spec", "a b\nc d\n\n[section]\n");
  f.set("blob", std::string("\0\x01\xfe\n\n ", 6));
  f.set("empty", "");
  f.set_u64("n", 18446744073709551615ULL);
  f.set_bits("x", -0.0);
  f.set_list("axes", {0.0, 0.1, 1e-300});
  Fields g;
  ASSERT_TRUE(Fields::parse(f.serialize(), g));
  ASSERT_EQ(g.size(), 6u);
  EXPECT_EQ(*g.get("spec"), "a b\nc d\n\n[section]\n");
  EXPECT_EQ(*g.get("blob"), std::string("\0\x01\xfe\n\n ", 6));
  EXPECT_EQ(*g.get("empty"), "");
  std::uint64_t n = 0;
  ASSERT_TRUE(g.get_u64("n", n));
  EXPECT_EQ(n, 18446744073709551615ULL);
  double x = 1.0;
  ASSERT_TRUE(g.get_bits("x", x));
  EXPECT_TRUE(same_bits(x, -0.0));
  std::vector<double> axes;
  ASSERT_TRUE(g.get_list("axes", axes));
  ASSERT_EQ(axes.size(), 3u);
  EXPECT_TRUE(same_bits(axes[2], 1e-300));
  EXPECT_EQ(g.get("missing"), nullptr);
}

TEST(ProtocolFields, ParseRejectsTruncation) {
  Fields f;
  f.set("k", "value");
  const std::string wire = f.serialize();
  Fields g;
  for (std::size_t cut = 1; cut < wire.size(); ++cut) {
    EXPECT_FALSE(Fields::parse(wire.substr(0, cut), g))
        << "accepted truncation at " << cut;
  }
}

TEST(ProtocolFields, ParseRejectsHostileLengths) {
  // A u64 length near ULLONG_MAX wraps `nl + 1 + len + 1`: before the
  // subtraction-form bound this was an out-of-bounds read, and with
  // len == ULLONG_MAX the cursor wrapped into a non-terminating loop.
  Fields g;
  EXPECT_FALSE(Fields::parse("k 18446744073709551615\nv\n", g));
  EXPECT_FALSE(Fields::parse("k 18446744073709551614\nv\n", g));
  EXPECT_FALSE(Fields::parse("k 18446744073709551613\nv\n", g));
  // Off-by-one probing: length one past the actual payload.
  EXPECT_FALSE(Fields::parse("k 2\nv\n", g));
  // Length line as the last bytes of the frame (avail == 0).
  EXPECT_FALSE(Fields::parse("k 0\n", g));
}

TEST(ProtocolCodec, SweepCellBitExactRoundTrip) {
  const std::vector<double> xs = awkward_doubles(11 * 50, 42);
  for (std::size_t t = 0; t < 50; ++t) {
    sweep::SweepCell c;
    double* fields[] = {&c.la_frac,       &c.jitter_frac, &c.bus_bandwidth,
                        &c.wcet_scale,    &c.iae,         &c.ise,
                        &c.itae,          &c.cost,        &c.overshoot_pct,
                        &c.act_latency_mean, &c.act_jitter};
    for (std::size_t i = 0; i < 11; ++i) *fields[i] = xs[t * 11 + i];
    c.stable = (t % 2) == 0;
    sweep::SweepCell d;
    ASSERT_TRUE(decode_cell(encode_cell(c), d));
    for (std::size_t i = 0; i < 11; ++i) {
      EXPECT_TRUE(same_bits(*fields[i], xs[t * 11 + i]));
    }
    EXPECT_TRUE(same_bits(d.cost, c.cost));
    EXPECT_TRUE(same_bits(d.iae, c.iae));
    EXPECT_TRUE(same_bits(d.act_jitter, c.act_jitter));
    EXPECT_EQ(d.stable, c.stable);
  }
}

TEST(ProtocolCodec, FaultCellBitExactRoundTrip) {
  const std::vector<double> xs = awkward_doubles(7, 7);
  sweep::FaultCell c;
  c.loss_rate = xs[0];
  c.delay = xs[1];
  c.iae = xs[2];
  c.ise = xs[3];
  c.itae = xs[4];
  c.cost = xs[5];
  c.overshoot_pct = xs[6];
  c.fault_seed = 0xdeadbeefcafef00dULL;
  c.messages_lost = 123456;
  c.messages_deferred = 7;
  c.stable = false;
  sweep::FaultCell d;
  ASSERT_TRUE(decode_cell(encode_cell(c), d));
  EXPECT_TRUE(same_bits(d.loss_rate, c.loss_rate));
  EXPECT_TRUE(same_bits(d.cost, c.cost));
  EXPECT_TRUE(same_bits(d.overshoot_pct, c.overshoot_pct));
  EXPECT_EQ(d.fault_seed, c.fault_seed);
  EXPECT_EQ(d.messages_lost, c.messages_lost);
  EXPECT_EQ(d.messages_deferred, c.messages_deferred);
  EXPECT_FALSE(d.stable);
}

TEST(ProtocolCodec, NetworkCellBitExactRoundTrip) {
  const std::vector<double> xs = awkward_doubles(9 * 20, 23);
  for (std::size_t t = 0; t < 20; ++t) {
    sweep::NetworkCell c;
    double* fields[] = {&c.bus_load,    &c.scenario,     &c.act_latency_mean,
                        &c.act_jitter,  &c.nominal_iae,  &c.nominal_cost,
                        &c.retuned_iae, &c.retuned_cost, &c.stability_margin};
    for (std::size_t i = 0; i < 9; ++i) *fields[i] = xs[t * 9 + i];
    c.schedulable = (t % 2) == 0;
    c.stable = (t % 3) == 0;
    sweep::NetworkCell d;
    ASSERT_TRUE(decode_cell(encode_cell(c), d));
    double* back[] = {&d.bus_load,    &d.scenario,     &d.act_latency_mean,
                      &d.act_jitter,  &d.nominal_iae,  &d.nominal_cost,
                      &d.retuned_iae, &d.retuned_cost, &d.stability_margin};
    for (std::size_t i = 0; i < 9; ++i) {
      EXPECT_TRUE(same_bits(*back[i], xs[t * 9 + i]));
    }
    EXPECT_EQ(d.schedulable, c.schedulable);
    EXPECT_EQ(d.stable, c.stable);
  }
  // Tag letters keep the cell kinds apart on the wire.
  sweep::NetworkCell n;
  sweep::SweepCell s;
  EXPECT_FALSE(decode_cell(encode_cell(s), n));
  EXPECT_FALSE(decode_cell(encode_cell(n), s));
}

TEST(ProtocolRequest, SweepNetworkRoundTripAndScenarioValidation) {
  Request r;
  r.verb = Verb::kSweepNetwork;
  r.ts = 0.01;
  r.t_end = 1.0;
  r.seed = 1;
  r.rows = {0.0, 0.4, 0.8};
  r.cols = {0.0, 1.0};  // scenario codes: can, tdma
  Request d;
  std::string err;
  ASSERT_TRUE(Request::from_fields(r.to_fields(), d, err)) << err;
  EXPECT_EQ(d.verb, Verb::kSweepNetwork);
  EXPECT_EQ(d.rows, r.rows);
  EXPECT_EQ(d.cols, r.cols);
  EXPECT_EQ(d.units(), 6u);
  Verb v;
  EXPECT_TRUE(parse_verb("sweep_network", v));
  EXPECT_EQ(v, Verb::kSweepNetwork);
  EXPECT_EQ(std::string(to_string(Verb::kSweepNetwork)), "sweep_network");
  // Columns must be valid scenario codes.
  r.cols = {0.0, 2.0};
  EXPECT_FALSE(Request::from_fields(r.to_fields(), d, err));
  EXPECT_NE(err.find("scenario"), std::string::npos) << err;
}

TEST(ProtocolCodec, MonteCarloResultRoundTrip) {
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

  sweep::MonteCarloResult d;
  ASSERT_TRUE(decode_mc(encode_mc(r), d));
  EXPECT_EQ(d.trials, 200u);
  EXPECT_EQ(d.deadlocks, 3u);
  EXPECT_EQ(d.makespan.count, 197u);
  EXPECT_TRUE(same_bits(d.makespan.p95, 2.2));
  ASSERT_EQ(d.io_ops.size(), 2u);
  EXPECT_EQ(d.io_ops[0].name, "sense");
  EXPECT_TRUE(d.io_ops[0].sensor);
  EXPECT_EQ(d.io_ops[1].name, "act");
  EXPECT_FALSE(d.io_ops[1].sensor);
  EXPECT_TRUE(same_bits(d.io_ops[0].mean_latency.max, 3e-4));
  // Timing fields are deliberately NOT shipped: a cached result is the
  // statistics, never the original computation's wall clock.
  EXPECT_EQ(d.wall_s, 0.0);
  EXPECT_EQ(d.batch_width, 1u);
}

TEST(ProtocolCodec, BlobListRoundTrip) {
  const std::vector<std::string> blobs = {"", "a", std::string("x\ny\0z", 5),
                                          std::string(5000, 'b')};
  std::vector<std::string> got;
  ASSERT_TRUE(decode_blob_list(encode_blob_list(blobs), got));
  EXPECT_EQ(got, blobs);
  EXPECT_FALSE(decode_blob_list("2\n1\na\n", got));  // count overruns data
}

TEST(ProtocolCodec, BlobListRejectsHostileCountsAndLengths) {
  // A corrupted reply must fail the decode, not throw from reserve() or
  // read out of bounds via a wrapping `at + len + 1`.
  std::vector<std::string> got;
  EXPECT_FALSE(decode_blob_list("18446744073709551615\n", got));
  EXPECT_FALSE(decode_blob_list("1000000000000\n", got));
  EXPECT_FALSE(decode_blob_list("1\n18446744073709551615\nx\n", got));
  EXPECT_FALSE(decode_blob_list("1\n18446744073709551614\nx\n", got));
  EXPECT_FALSE(decode_blob_list("1\n2\nx\n", got));  // len one past payload
}

TEST(ProtocolCodec, MonteCarloRejectsHostileOpCount) {
  // Valid header (trials, deadlocks, makespan summary) followed by an op
  // count far beyond the remaining tokens: must fail before reserve().
  std::string s = "M 1 0 1";
  for (int i = 0; i < 6; ++i) {
    s += ' ';
    s += bits_of(0.0);
  }
  s += " 18446744073709551615";
  sweep::MonteCarloResult r;
  EXPECT_FALSE(decode_mc(s, r));
}

TEST(ProtocolRequest, RoundTripsEveryWorkVerb) {
  for (Verb verb : {Verb::kSweepTiming, Verb::kSweepArch, Verb::kFaultSweep,
                    Verb::kFaultMc, Verb::kVmMc}) {
    Request r;
    r.verb = verb;
    r.backend = "native";
    r.ts = 0.005;
    r.t_end = 0.75;
    r.seed = 99;
    r.rows = {0.0, 0.25, 0.5};
    r.cols = {0.1, 0.2};
    r.loss = 0.15;
    r.trials = 17;
    r.iterations = 40;
    r.spec_text = "[algorithm]\nname x\n";
    Request d;
    std::string err;
    ASSERT_TRUE(Request::from_fields(r.to_fields(), d, err)) << err;
    EXPECT_EQ(d.verb, verb);
    EXPECT_EQ(d.backend, "native");
    EXPECT_TRUE(same_bits(d.ts, r.ts));
    EXPECT_TRUE(same_bits(d.t_end, r.t_end));
    EXPECT_EQ(d.seed, 99u);
    switch (verb) {
      case Verb::kSweepTiming:
      case Verb::kSweepArch:
      case Verb::kFaultSweep:
        EXPECT_EQ(d.rows, r.rows);
        EXPECT_EQ(d.cols, r.cols);
        EXPECT_EQ(d.units(), 6u);
        break;
      case Verb::kFaultMc:
        EXPECT_TRUE(same_bits(d.loss, 0.15));
        EXPECT_EQ(d.units(), 17u);
        break;
      default:
        EXPECT_EQ(d.spec_text, r.spec_text);
        EXPECT_EQ(d.iterations, 40u);
        EXPECT_EQ(d.units(), 1u);
        break;
    }
  }
}

TEST(ProtocolRequest, RejectsMalformedRequests) {
  Request d;
  std::string err;
  Fields f;
  EXPECT_FALSE(Request::from_fields(f, d, err));  // no verb
  f.set("verb", "sweep_timing");
  EXPECT_FALSE(Request::from_fields(f, d, err));  // no axes
  Fields bad_backend;
  bad_backend.set("verb", "ping");
  bad_backend.set("backend", "gpu");
  EXPECT_FALSE(Request::from_fields(bad_backend, d, err));
  Verb v;
  EXPECT_FALSE(parse_verb("sweeep", v));
  EXPECT_TRUE(parse_verb("kill_worker", v));
  EXPECT_EQ(v, Verb::kKillWorker);
}

TEST(ProtocolRequest, ShapeParametersAreRequiredOrKeepTheirDefaults) {
  Request d;
  std::string err;
  Fields mc;
  mc.set("verb", "fault_mc");
  EXPECT_FALSE(Request::from_fields(mc, d, err));
  EXPECT_EQ(err, "fault_mc needs trials");
  mc.set_u64("trials", 3);
  ASSERT_TRUE(Request::from_fields(mc, d, err)) << err;
  EXPECT_EQ(d.loss, Request().loss);  // an absent double keeps its default
  Fields vm;
  vm.set("verb", "vm_mc");
  vm.set_u64("trials", 2);
  EXPECT_FALSE(Request::from_fields(vm, d, err));
  EXPECT_EQ(err, "vm_mc needs spec_text");
  vm.set("spec_text", "x");
  ASSERT_TRUE(Request::from_fields(vm, d, err)) << err;
  EXPECT_EQ(d.iterations, Request().iterations);
  Fields grid;
  grid.set("verb", "sweep_arch");
  grid.set_list("rows", {1e5});
  grid.set_list("cols", {});
  EXPECT_FALSE(Request::from_fields(grid, d, err));
  EXPECT_EQ(err, "sweep_arch needs cols");
}

TEST(ProtocolRequest, RejectsUnitCountsNoReplyFrameCanCarry) {
  // A ~100-byte fault_mc frame asking for 1e9 trials used to pass and make
  // the daemon value-initialise two units()-long string vectors (~64 GB).
  Request r;
  r.verb = Verb::kFaultMc;
  r.trials = 1000000000;
  Request d;
  std::string err;
  EXPECT_FALSE(Request::from_fields(r.to_fields(), d, err));
  EXPECT_NE(err.find("reply frame"), std::string::npos) << err;
  // Grids are bounded the same way, by rows x cols.
  r.verb = Verb::kSweepTiming;
  r.rows.assign(1000, 0.0);
  r.cols.assign(1000, 0.0);
  EXPECT_FALSE(Request::from_fields(r.to_fields(), d, err));
  // A count that fits passes: 20k trials are well within one frame.
  r.verb = Verb::kFaultMc;
  r.trials = 20000;
  EXPECT_TRUE(Request::from_fields(r.to_fields(), d, err)) << err;
}

TEST(ProtocolMeta, ReplyTooLargeToFrameBecomesAnErrorFrame) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ResponseMeta meta;
  meta.ok = true;
  meta.model_hash = "0x1234";
  meta.cache_units = 7;
  Fields reply;
  meta_to_fields(meta, reply);
  reply.set("units", std::string(kMaxFrameBytes, 'u'));
  // The error frame is small, so it fits the pipe buffer unread.
  ASSERT_TRUE(write_reply(fds[1], reply));
  std::string in;
  ASSERT_TRUE(read_frame(fds[0], in));
  Fields got;
  ASSERT_TRUE(Fields::parse(in, got));
  const ResponseMeta m = meta_from_fields(got);
  EXPECT_FALSE(m.ok);
  EXPECT_NE(m.error.find("frame limit"), std::string::npos) << m.error;
  EXPECT_EQ(m.model_hash, "0x1234");
  EXPECT_EQ(m.cache_units, 7u);
  EXPECT_EQ(got.get("units"), nullptr);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(ProtocolMeta, RoundTrips) {
  ResponseMeta m;
  m.ok = true;
  m.model_hash = "0x1234";
  m.cache_hits = 30;
  m.cache_units = 35;
  m.served_from_cache = false;
  m.redispatches = 2;
  Fields f;
  meta_to_fields(m, f);
  const ResponseMeta d = meta_from_fields(f);
  EXPECT_TRUE(d.ok);
  EXPECT_EQ(d.model_hash, "0x1234");
  EXPECT_EQ(d.cache_hits, 30u);
  EXPECT_EQ(d.cache_units, 35u);
  EXPECT_FALSE(d.served_from_cache);
  EXPECT_EQ(d.redispatches, 2u);
}

TEST(ProtocolBits, DoubleBitHelpersAreExact) {
  for (double v : awkward_doubles(100, 3)) {
    double back = 0.0;
    ASSERT_TRUE(double_of(bits_of(v), back));
    EXPECT_TRUE(same_bits(v, back));
  }
  const double weird = from_bits(0x7ff80000deadbeefULL);  // NaN payload
  double back = 0.0;
  ASSERT_TRUE(double_of(bits_of(weird), back));
  EXPECT_TRUE(same_bits(weird, back));
}

}  // namespace
}  // namespace ecsim::svc
