#include "backend/native_codegen.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "backend/native_abi.hpp"
#include "blocks/duration_spec.hpp"

namespace ecsim::backend {

namespace {

using ir::Attr;
using ir::BlockIr;
using ir::SliceIr;

// ---- literal emission ------------------------------------------------------

/// Double -> C++ literal that reconstructs the exact bit pattern (hexfloat;
/// infinities/NaN via <limits>/<cmath> expressions).
std::string lit(double v) {
  if (std::isnan(v)) return "std::nan(\"\")";
  if (std::isinf(v)) {
    return v > 0 ? "std::numeric_limits<double>::infinity()"
                 : "(-std::numeric_limits<double>::infinity())";
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::string lit(std::size_t v) { return std::to_string(v); }

std::string cstr(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  out += '"';
  return out;
}

// ---- attribute access (same contract as blocks::to_model) ------------------

[[noreturn]] void bad(const BlockIr& b, const std::string& why) {
  throw std::invalid_argument("native codegen: block '" + b.name + "' (" +
                              (b.kind.empty() ? "?" : b.kind) + "): " + why);
}

const Attr& need(const BlockIr& b, const char* key, Attr::Kind kind) {
  const Attr* a = b.find(key);
  if (a == nullptr) bad(b, "missing attr '" + std::string(key) + "'");
  if (a->kind != kind) bad(b, "attr '" + std::string(key) + "' has wrong type");
  return *a;
}

double real_of(const BlockIr& b, const char* key) {
  return need(b, key, Attr::Kind::kReal).r;
}

long long int_of(const BlockIr& b, const char* key) {
  return need(b, key, Attr::Kind::kInt).i;
}

const std::vector<double>& vec_of(const BlockIr& b, const char* key) {
  return need(b, key, Attr::Kind::kRealVec).vec;
}

/// C++ expression rebuilding an EventDelay's DurationSpec through the same
/// validated factories blocks::duration_from_attrs uses.
std::string spec_expr(const BlockIr& b) {
  const long long tag = int_of(b, "dist");
  switch (static_cast<blocks::DurationSpec::Kind>(tag)) {
    case blocks::DurationSpec::Kind::kConstant:
      return "bl::constant_duration(" + lit(real_of(b, "value")) + ")";
    case blocks::DurationSpec::Kind::kUniform:
      return "bl::uniform_duration(" + lit(real_of(b, "bcet")) + ", " +
             lit(real_of(b, "wcet")) + ")";
    case blocks::DurationSpec::Kind::kTruncatedNormal:
      return "bl::truncated_normal_duration(" + lit(real_of(b, "mean")) +
             ", " + lit(real_of(b, "stddev")) + ", " + lit(real_of(b, "bcet")) +
             ", " + lit(real_of(b, "wcet")) + ")";
    case blocks::DurationSpec::Kind::kShiftedUniform:
      return "bl::shifted_uniform_duration(" + lit(real_of(b, "base")) + ", " +
             lit(real_of(b, "jitter")) + ")";
    case blocks::DurationSpec::Kind::kBranches: {
      const std::vector<double>& ws = vec_of(b, "branch_wcets");
      std::string expr = "bl::branch_duration({";
      for (std::size_t j = 0; j < ws.size(); ++j) {
        if (j) expr += ", ";
        expr += lit(ws[j]);
      }
      expr += "}, " + lit(real_of(b, "bcet_fraction")) + ", " +
              (int_of(b, "random_branch") != 0 ? "true" : "false") + ")";
      return expr;
    }
    case blocks::DurationSpec::Kind::kCustom:
      break;
  }
  bad(b, "unregenerable duration distribution (tag " + std::to_string(tag) +
             ")");
}

// ---- emitter ---------------------------------------------------------------

class Emitter {
 public:
  explicit Emitter(const ir::Model& m) : m_(m), lay_(m.layout) {
    if (lay_.eval_order.size() != m.blocks.size() ||
        lay_.out_base.size() != m.blocks.size() + 1) {
      throw std::invalid_argument(
          "native codegen: IR has no finalized layout (run ir::finalize)");
    }
  }

  std::string generate(const std::string& hash_hex);

 private:
  // Arena slices, folded to literals.
  const SliceIr& out_slice(std::size_t b, std::size_t p) const {
    return lay_.out_slices[lay_.out_base[b] + p];
  }
  const SliceIr& in_slice(std::size_t b, std::size_t p) const {
    return lay_.in_slices[lay_.in_base[b] + p];
  }

  void table(const char* name, const std::vector<std::size_t>& v);
  void matrix_member(const std::string& id, const BlockIr& b, const char* key);

  void emit_block(std::size_t i);

  // Per-kind emission appends into the four bodies (+ members).
  std::string members_;
  std::string init_;
  std::string compute_;
  std::string event_;
  std::string deriv_;
  std::string out_;

  const ir::Model& m_;
  const ir::LayoutIr& lay_;
};

void Emitter::table(const char* name, const std::vector<std::size_t>& v) {
  out_ += "  static constexpr std::array<std::size_t, " + lit(v.size()) +
          "> " + name + "{";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out_ += ", ";
    out_ += lit(v[i]);
  }
  out_ += "};\n";
}

/// `ma::Matrix <id> = ...;` member from a matrix attribute.
void Emitter::matrix_member(const std::string& id, const BlockIr& b,
                            const char* key) {
  const Attr& a = need(b, key, Attr::Kind::kMatrix);
  if (a.vec.size() != a.rows * a.cols) bad(b, "matrix attr size mismatch");
  members_ += "  ma::Matrix " + id + " = make_matrix(" + lit(a.rows) + ", " +
              lit(a.cols) + ", {";
  for (std::size_t i = 0; i < a.vec.size(); ++i) {
    if (i) members_ += ", ";
    members_ += lit(a.vec[i]);
  }
  members_ += "});\n";
}

void Emitter::emit_block(std::size_t i) {
  const BlockIr& b = m_.blocks[i];
  if (b.opaque) {
    bad(b, "opaque (behaviour lives in a user closure); interpreter only");
  }
  const std::string B = lit(i);
  const std::string id = "b" + B + "_";
  const std::string& k = b.kind;

  auto out_off = [&](std::size_t p) { return lit(out_slice(i, p).offset); };
  auto in_off = [&](std::size_t p) { return lit(in_slice(i, p).offset); };
  auto case_open = [&](std::string& body) { body += "      case " + B + ": {\n"; };
  auto case_close = [&](std::string& body) { body += "      } break;\n"; };

  if (k == "Clock") {
    init_ += "    e.schedule_self(" + B + ", 0, " + lit(real_of(b, "offset")) +
             ");\n";
    case_open(event_);
    event_ += "        e.emit(" + B + ", 0, 0.0);\n";
    event_ += "        e.schedule_self(" + B + ", 0, " +
              lit(real_of(b, "period")) + ");\n";
    case_close(event_);
    return;
  }
  if (k == "TimetableClock") {
    const std::vector<double>& offs = vec_of(b, "offsets");
    members_ += "  static constexpr std::array<double, " + lit(offs.size()) +
                "> " + id + "offsets{";
    for (std::size_t j = 0; j < offs.size(); ++j) {
      if (j) members_ += ", ";
      members_ += lit(offs[j]);
    }
    members_ += "};\n";
    members_ += "  std::size_t " + id + "next = 0;\n";
    members_ += "  std::size_t " + id + "cycle = 0;\n";
    init_ += "    " + id + "next = 0; " + id + "cycle = 0;\n";
    init_ += "    e.schedule_self(" + B + ", 0, " + id + "offsets.front());\n";
    case_open(event_);
    event_ += "        e.emit(" + B + ", 0, 0.0);\n";
    event_ += "        const double now = static_cast<double>(" + id +
              "cycle) * " + lit(real_of(b, "period")) + " + " + id +
              "offsets[" + id + "next];\n";
    event_ += "        ++" + id + "next;\n";
    event_ += "        if (" + id + "next == " + id + "offsets.size()) { " +
              id + "next = 0; ++" + id + "cycle; }\n";
    event_ += "        const double target = static_cast<double>(" + id +
              "cycle) * " + lit(real_of(b, "period")) + " + " + id +
              "offsets[" + id + "next];\n";
    event_ += "        e.schedule_self(" + B + ", 0, target - now);\n";
    case_close(event_);
    return;
  }
  if (k == "Constant") {
    const std::vector<double>& v = vec_of(b, "value");
    members_ += "  static constexpr std::array<double, " + lit(v.size()) +
                "> " + id + "value{";
    for (std::size_t j = 0; j < v.size(); ++j) {
      if (j) members_ += ", ";
      members_ += lit(v[j]);
    }
    members_ += "};\n";
    case_open(compute_);
    compute_ += "        for (std::size_t j = 0; j < " + lit(v.size()) +
                "; ++j) a[" + out_off(0) + " + j] = " + id + "value[j];\n";
    case_close(compute_);
    return;
  }
  if (k == "Step") {
    case_open(compute_);
    compute_ += "        a[" + out_off(0) + "] = e.time() < " +
                lit(real_of(b, "step_time")) + " ? " +
                lit(real_of(b, "initial")) + " : " + lit(real_of(b, "final")) +
                ";\n";
    case_close(compute_);
    return;
  }
  if (k == "Sine") {
    case_open(compute_);
    compute_ += "        const double w = 2.0 * std::numbers::pi * " +
                lit(real_of(b, "frequency")) + ";\n";
    compute_ += "        a[" + out_off(0) + "] = " +
                lit(real_of(b, "amplitude")) + " * std::sin(w * e.time() + " +
                lit(real_of(b, "phase")) + ") + " + lit(real_of(b, "bias")) +
                ";\n";
    case_close(compute_);
    return;
  }
  if (k == "Pulse") {
    case_open(compute_);
    compute_ += "        const double ph = std::fmod(e.time(), " +
                lit(real_of(b, "period")) + ");\n";
    compute_ += "        a[" + out_off(0) + "] = ph < " +
                lit(real_of(b, "duty")) + " * " + lit(real_of(b, "period")) +
                " ? " + lit(real_of(b, "high")) + " : " +
                lit(real_of(b, "low")) + ";\n";
    case_close(compute_);
    return;
  }
  if (k == "NoiseHold") {
    init_ += "    a[" + out_off(0) + "] = " + lit(real_of(b, "mean")) + ";\n";
    case_open(event_);
    event_ += "        a[" + out_off(0) + "] = e.rng.normal(" +
              lit(real_of(b, "mean")) + ", " + lit(real_of(b, "stddev")) +
              ");\n";
    event_ += "        e.emit(" + B + ", 0, 0.0);\n";
    case_close(event_);
    return;
  }
  if (k == "Gain") {
    matrix_member(id + "k", b, "k");
    case_open(compute_);
    compute_ += "        ma::multiply_into(std::span<double>(a + " +
                out_off(0) + ", " + lit(out_slice(i, 0).width) + "), " + id +
                "k, std::span<const double>(a + " + in_off(0) + ", " +
                lit(in_slice(i, 0).width) + "));\n";
    case_close(compute_);
    return;
  }
  if (k == "Sum") {
    const std::vector<double>& signs = vec_of(b, "signs");
    if (signs.size() != b.in_widths.size()) bad(b, "signs/input count mismatch");
    const std::size_t w = out_slice(i, 0).width;
    case_open(compute_);
    compute_ += "        double* y = a + " + out_off(0) + ";\n";
    compute_ += "        for (std::size_t k = 0; k < " + lit(w) +
                "; ++k) y[k] = 0.0;\n";
    for (std::size_t p = 0; p < signs.size(); ++p) {
      compute_ += "        { const double* u = a + " + in_off(p) +
                  "; for (std::size_t k = 0; k < " + lit(w) +
                  "; ++k) y[k] += " + lit(signs[p]) + " * u[k]; }\n";
    }
    case_close(compute_);
    return;
  }
  if (k == "Saturation") {
    const std::size_t w = in_slice(i, 0).width;
    case_open(compute_);
    compute_ += "        const double* u = a + " + in_off(0) +
                "; double* y = a + " + out_off(0) + ";\n";
    compute_ += "        for (std::size_t k = 0; k < " + lit(w) +
                "; ++k) y[k] = std::clamp(u[k], " + lit(real_of(b, "lo")) +
                ", " + lit(real_of(b, "hi")) + ");\n";
    case_close(compute_);
    return;
  }
  if (k == "Quantizer") {
    const std::size_t w = in_slice(i, 0).width;
    const std::string step = lit(real_of(b, "step"));
    case_open(compute_);
    compute_ += "        const double* u = a + " + in_off(0) +
                "; double* y = a + " + out_off(0) + ";\n";
    compute_ += "        for (std::size_t k = 0; k < " + lit(w) +
                "; ++k) y[k] = std::round(u[k] / " + step + ") * " + step +
                ";\n";
    case_close(compute_);
    return;
  }
  if (k == "Mux") {
    case_open(compute_);
    std::size_t off = 0;
    for (std::size_t p = 0; p < b.in_widths.size(); ++p) {
      const std::size_t w = in_slice(i, p).width;
      compute_ += "        { const double* u = a + " + in_off(p) +
                  "; for (std::size_t k = 0; k < " + lit(w) + "; ++k) a[" +
                  lit(out_slice(i, 0).offset + off) + " + k] = u[k]; }\n";
      off += w;
    }
    case_close(compute_);
    return;
  }
  if (k == "Demux") {
    case_open(compute_);
    std::size_t off = 0;
    for (std::size_t p = 0; p < b.out_widths.size(); ++p) {
      const std::size_t w = out_slice(i, p).width;
      compute_ += "        { double* y = a + " + out_off(p) +
                  "; for (std::size_t k = 0; k < " + lit(w) + "; ++k) y[k] = a[" +
                  lit(in_slice(i, 0).offset + off) + " + k]; }\n";
      off += w;
    }
    case_close(compute_);
    return;
  }
  if (k == "Integrator") {
    const std::vector<double>& x0 = vec_of(b, "x0");
    const std::size_t n = b.state_size;
    const std::string S = lit(lay_.state_offset[i]);
    init_ += "    { double* x = e.x.data() + " + S + ";\n";
    for (std::size_t j = 0; j < n; ++j) {
      init_ += "      x[" + lit(j) + "] = " + lit(x0[j]) + ";\n";
    }
    init_ += "    }\n    compute(e, " + B + ");\n";
    case_open(compute_);
    compute_ += "        const double* x = e.active_x + " + S +
                "; double* y = a + " + out_off(0) + ";\n";
    compute_ += "        for (std::size_t k = 0; k < " + lit(n) +
                "; ++k) y[k] = x[k];\n";
    case_close(compute_);
    deriv_ += "      case " + B + ": {\n";
    deriv_ += "        const double* u = a + " + in_off(0) + ";\n";
    deriv_ += "        for (std::size_t k = 0; k < " + lit(n) +
              "; ++k) dx[k] = u[k];\n";
    deriv_ += "      } break;\n";
    return;
  }
  if (k == "StateSpaceCont") {
    matrix_member(id + "a", b, "a");
    matrix_member(id + "b", b, "b");
    matrix_member(id + "c", b, "c");
    matrix_member(id + "d", b, "d");
    const std::vector<double>& x0 = vec_of(b, "x0");
    const std::size_t n = b.state_size;
    const std::string S = lit(lay_.state_offset[i]);
    if (x0.size() != n) bad(b, "x0 size mismatch");
    init_ += "    { double* x = e.x.data() + " + S + ";\n";
    for (std::size_t j = 0; j < n; ++j) {
      init_ += "      x[" + lit(j) + "] = " + lit(x0[j]) + ";\n";
    }
    init_ += "    }\n    compute(e, " + B + ");\n";
    case_open(compute_);
    compute_ += "        std::span<double> y(a + " + out_off(0) + ", " +
                lit(out_slice(i, 0).width) + ");\n";
    compute_ += "        ma::multiply_into(y, " + id +
                "c, std::span<const double>(e.active_x + " + S + ", " +
                lit(n) + "));\n";
    compute_ += "        ma::multiply_add_into(y, " + id +
                "d, std::span<const double>(a + " + in_off(0) + ", " +
                lit(in_slice(i, 0).width) + "));\n";
    case_close(compute_);
    deriv_ += "      case " + B + ": {\n";
    deriv_ += "        std::span<double> d(dx, " + lit(n) + ");\n";
    deriv_ += "        ma::multiply_into(d, " + id +
              "a, std::span<const double>(e.active_x + " + S + ", " +
              lit(n) + "));\n";
    deriv_ += "        ma::multiply_add_into(d, " + id +
              "b, std::span<const double>(a + " + in_off(0) + ", " +
              lit(in_slice(i, 0).width) + "));\n";
    deriv_ += "      } break;\n";
    return;
  }
  if (k == "StateSpaceDisc") {
    matrix_member(id + "a", b, "a");
    matrix_member(id + "b", b, "b");
    matrix_member(id + "c", b, "c");
    matrix_member(id + "d", b, "d");
    const std::vector<double>& x0 = vec_of(b, "x0");
    members_ += "  std::vector<double> " + id + "x;\n";
    members_ += "  std::vector<double> " + id + "next;\n";
    init_ += "    " + id + "x = {";
    for (std::size_t j = 0; j < x0.size(); ++j) {
      if (j) init_ += ", ";
      init_ += lit(x0[j]);
    }
    init_ += "};\n";
    init_ += "    " + id + "next.assign(" + lit(x0.size()) + ", 0.0);\n";
    init_ += "    { double* y = a + " + out_off(0) +
             "; for (std::size_t k = 0; k < " + lit(out_slice(i, 0).width) +
             "; ++k) y[k] = 0.0; }\n";
    case_open(event_);
    event_ += "        std::span<const double> u(a + " + in_off(0) + ", " +
              lit(in_slice(i, 0).width) + ");\n";
    event_ += "        std::span<double> y(a + " + out_off(0) + ", " +
              lit(out_slice(i, 0).width) + ");\n";
    event_ += "        ma::multiply_into(y, " + id + "c, " + id + "x);\n";
    event_ += "        ma::multiply_add_into(y, " + id + "d, u);\n";
    event_ += "        ma::multiply_into(std::span<double>(" + id + "next), " +
              id + "a, " + id + "x);\n";
    event_ += "        ma::multiply_add_into(std::span<double>(" + id +
              "next), " + id + "b, u);\n";
    event_ += "        std::swap(" + id + "x, " + id + "next);\n";
    event_ += "        e.emit(" + B + ", 0, 0.0);\n";
    case_close(event_);
    return;
  }
  if (k == "PidDiscrete") {
    members_ += "  double " + id + "integral = 0.0;\n";
    members_ += "  double " + id + "deriv = 0.0;\n";
    members_ += "  double " + id + "prev = 0.0;\n";
    init_ += "    " + id + "integral = 0.0; " + id + "deriv = 0.0; " + id +
             "prev = 0.0;\n";
    init_ += "    a[" + out_off(0) + "] = 0.0;\n";
    const std::string kp = lit(real_of(b, "kp")), ki = lit(real_of(b, "ki")),
                      kd = lit(real_of(b, "kd")), ts = lit(real_of(b, "ts")),
                      nn = lit(real_of(b, "n")),
                      umin = lit(real_of(b, "u_min")),
                      umax = lit(real_of(b, "u_max"));
    case_open(event_);
    event_ += "        const double err = a[" + in_off(0) + "];\n";
    event_ += "        " + id + "deriv = (" + kd + " * " + nn + " * (err - " +
              id + "prev) + " + id + "deriv) / (1.0 + " + nn + " * " + ts +
              ");\n";
    event_ += "        double u = " + kp + " * err + " + id + "integral + " +
              id + "deriv;\n";
    event_ += "        const double uc = std::clamp(u, " + umin + ", " + umax +
              ");\n";
    event_ +=
        "        const bool saturating = (u > uc && err > 0.0) || (u < uc && "
        "err < 0.0);\n";
    event_ += "        if (!saturating) " + id + "integral += " + ki + " * " +
              ts + " * err;\n";
    event_ += "        " + id + "prev = err;\n";
    event_ += "        a[" + out_off(0) + "] = uc;\n";
    event_ += "        e.emit(" + B + ", 0, 0.0);\n";
    case_close(event_);
    return;
  }
  if (k == "UnitDelay") {
    const std::vector<double>& init = vec_of(b, "init");
    const std::size_t w = init.size();
    members_ += "  std::vector<double> " + id + "stored;\n";
    init_ += "    " + id + "stored = {";
    for (std::size_t j = 0; j < w; ++j) {
      if (j) init_ += ", ";
      init_ += lit(init[j]);
    }
    init_ += "};\n";
    init_ += "    { double* y = a + " + out_off(0) +
             "; for (std::size_t k = 0; k < " + lit(w) + "; ++k) y[k] = " + id +
             "stored[k]; }\n";
    case_open(event_);
    event_ += "        const double* u = a + " + in_off(0) +
              "; double* y = a + " + out_off(0) + ";\n";
    event_ += "        for (std::size_t k = 0; k < " + lit(w) +
              "; ++k) y[k] = " + id + "stored[k];\n";
    event_ += "        " + id + "stored.assign(u, u + " + lit(w) + ");\n";
    event_ += "        e.emit(" + B + ", 0, 0.0);\n";
    case_close(event_);
    return;
  }
  if (k == "EventCounter") {
    members_ += "  std::size_t " + id + "count = 0;\n";
    init_ += "    " + id + "count = 0;\n";
    init_ += "    a[" + out_off(0) + "] = 0.0;\n";
    case_open(event_);
    event_ += "        ++" + id + "count;\n";
    event_ += "        a[" + out_off(0) + "] = static_cast<double>(" + id +
              "count);\n";
    case_close(event_);
    return;
  }
  if (k == "SampleHold") {
    const std::vector<double>& initial = vec_of(b, "initial");
    const std::size_t w = in_slice(i, 0).width;
    if (initial.size() != w) bad(b, "initial size mismatch");
    for (std::size_t j = 0; j < w; ++j) {
      init_ += "    a[" + lit(out_slice(i, 0).offset + j) + "] = " +
               lit(initial[j]) + ";\n";
    }
    case_open(event_);
    event_ += "        const double* u = a + " + in_off(0) +
              "; double* y = a + " + out_off(0) + ";\n";
    event_ += "        for (std::size_t k = 0; k < " + lit(w) +
              "; ++k) y[k] = u[k];\n";
    event_ += "        e.emit(" + B + ", 0, 0.0);\n";
    case_close(event_);
    return;
  }
  if (k == "Probe") {
    const double period = real_of(b, "record_period");
    members_ += "  std::size_t " + id + "samples = 0;\n";
    init_ += "    " + id + "samples = 0;\n";
    if (period > 0.0) {
      init_ += "    e.schedule_self(" + B + ", 0, 0.0);\n";
    }
    case_open(event_);
    event_ += "        e.trace().record_signal(e.time(), " + B +
              ", std::span<const double>(a + " + in_off(0) + ", " +
              lit(in_slice(i, 0).width) + "));\n";
    event_ += "        ++" + id + "samples;\n";
    if (period > 0.0) {
      event_ += "        e.schedule_self(" + B + ", 0, " + lit(period) + ");\n";
    }
    case_close(event_);
    return;
  }
  if (k == "Synchronization") {
    const std::size_t n = b.n_event_in;
    members_ += "  std::array<bool, " + lit(n) + "> " + id + "received{};\n";
    init_ += "    " + id + "received.fill(false);\n";
    case_open(event_);
    event_ += "        " + id + "received[port] = true;\n";
    event_ += "        bool all = true;\n";
    event_ += "        for (bool v : " + id + "received) all = all && v;\n";
    event_ += "        if (all) { e.emit(" + B + ", 0, 0.0); " + id +
              "received.fill(false); }\n";
    case_close(event_);
    return;
  }
  if (k == "EventDelay") {
    members_ += "  double " + id + "busy = 0.0;\n";
    init_ += "    " + id + "busy = 0.0;\n";
    const auto kind = static_cast<blocks::DurationSpec::Kind>(int_of(b, "dist"));
    case_open(event_);
    event_ += "        const double now = e.time();\n";
    event_ += "        double start = now;\n";
    event_ += "        if (" + id + "busy > now) start = " + id + "busy;\n";
    if (kind == blocks::DurationSpec::Kind::kConstant) {
      // Constant samplers consume no RNG and were validated >= 0 at
      // construction: fold to the literal.
      event_ += "        const double d = " + lit(real_of(b, "value")) + ";\n";
    } else {
      members_ += "  bl::DurationSpec " + id + "spec = " + spec_expr(b) + ";\n";
      event_ += "        const double d = bl::sample_duration(" + id +
                "spec, e.rng);\n";
      event_ +=
          "        if (d < 0.0) throw std::runtime_error(\"EventDelay: "
          "sampler returned < 0\");\n";
    }
    event_ += "        " + id + "busy = start + d;\n";
    event_ += "        e.emit(" + B + ", 0, " + id + "busy - now);\n";
    case_close(event_);
    return;
  }
  if (k == "TdmaGate") {
    // slots/owner are omitted from the IR at the single-slot default.
    const std::string slots =
        b.find("slots") != nullptr ? std::to_string(int_of(b, "slots")) : "1";
    const std::string owner =
        b.find("owner") != nullptr ? std::to_string(int_of(b, "owner")) : "0";
    case_open(event_);
    event_ += "        const double now = e.time();\n";
    event_ += "        const double boundary = aa::Medium::slot_instant(now, " +
              lit(real_of(b, "slot")) + ", " + slots + ", " + owner + ");\n";
    event_ += "        e.emit(" + B + ", 0, std::max(0.0, boundary - now));\n";
    case_close(event_);
    return;
  }
  if (k == "EventMerge") {
    case_open(event_);
    event_ += "        e.emit(" + B + ", 0, 0.0);\n";
    case_close(event_);
    return;
  }
  if (k == "EventFault") {
    const Attr& e = need(b, "entries", Attr::Kind::kMatrix);
    if (e.cols != 7 || e.vec.size() != e.rows * 7) {
      bad(b, "gate entries must be an n x 7 matrix");
    }
    members_ += "  fa::CommGate " + id + "gate = [] {\n";
    members_ += "    fa::CommGate g;\n";
    members_ += "    g.seed = " +
                std::to_string(static_cast<std::uint64_t>(int_of(b, "seed"))) +
                "ULL;\n";
    members_ += "    g.period = " + lit(real_of(b, "period")) + ";\n";
    members_ += "    g.comm_index = " +
                lit(static_cast<std::size_t>(int_of(b, "comm_index"))) + ";\n";
    members_ += "    g.transfer_duration = " +
                lit(real_of(b, "transfer_duration")) + ";\n";
    members_ += "    g.entries.resize(" + lit(e.rows) + ");\n";
    for (std::size_t r = 0; r < e.rows; ++r) {
      const double* row = e.vec.data() + r * 7;
      const int kind_tag = static_cast<int>(row[1]);
      if (kind_tag < 0 || kind_tag > 2) bad(b, "gate entry has unknown kind");
      const char* kind_name = kind_tag == 0   ? "kLoss"
                              : kind_tag == 1 ? "kDelay"
                                              : "kDuplicate";
      const std::string ge = "    g.entries[" + lit(r) + "]";
      members_ += ge + ".fault = " + lit(static_cast<std::size_t>(row[0])) +
                  ";\n";
      members_ += ge + ".kind = fa::CommGateEntry::Kind::" +
                  std::string(kind_name) + ";\n";
      members_ += ge + ".probability = " + lit(row[2]) + ";\n";
      members_ += ge + ".delay = " + lit(row[3]) + ";\n";
      members_ += ge + ".extra_copies = " +
                  lit(static_cast<std::size_t>(row[4])) + ";\n";
      members_ += ge + ".t_start = " + lit(row[5]) + ";\n";
      members_ += ge + ".t_stop = " + lit(row[6]) + ";\n";
    }
    members_ += "    return g;\n  }();\n";
    members_ += "  std::size_t " + id + "count = 0;\n";
    init_ += "    " + id + "count = 0;\n";
    case_open(event_);
    event_ += "        const fa::CommGateAction act = fa::comm_gate_decide(" +
              id + "gate, " + id + "count++);\n";
    event_ += "        if (!act.drop) e.emit(" + B + ", 0, act.defer);\n";
    case_close(event_);
    return;
  }
  if (k == "EventDivider") {
    members_ += "  std::size_t " + id + "count = 0;\n";
    init_ += "    " + id + "count = 0;\n";
    case_open(event_);
    event_ += "        if (" + id + "count % " +
              lit(static_cast<std::size_t>(int_of(b, "divisor"))) + " == " +
              lit(static_cast<std::size_t>(int_of(b, "phase"))) + ") e.emit(" +
              B + ", 0, 0.0);\n";
    event_ += "        ++" + id + "count;\n";
    case_close(event_);
    return;
  }
  bad(b, "unknown kind");
}

std::string Emitter::generate(const std::string& hash_hex) {
  out_.clear();
  out_ +=
      "// Generated by the ecsim native backend (DESIGN.md §3.6). DO NOT "
      "EDIT.\n";
  out_ += "// model: " + cstr(m_.name) + "\n";
  out_ += "// ir hash: " + hash_hex + "\n";
  out_ += R"(#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <numbers>
#include <span>
#include <stdexcept>
#include <vector>

#include "aaa/architecture_graph.hpp"
#include "backend/native_abi.hpp"
#include "backend/native_runtime.hpp"
#include "blocks/duration_spec.hpp"
#include "fault/comm_gate.hpp"
#include "mathlib/matrix.hpp"

// Unity-include the order-sensitive runtime kernels so -O3 inlines trace
// recording, RNG and integrator straight into this module's instantiation of
// the hybrid loop — the main throughput win over the interpreter, whose
// calls to the same kernels stay behind a TU boundary. The kernels are
// compiled from the same sources with the same flags, and no FMA contraction
// is enabled, so the arithmetic stays bit-identical to the interpreter's.
// The runtime archive remains on the link line purely as a lazy fallback:
// every symbol defined here shadows its archive member, which is then never
// pulled in.
#include "blocks/duration_spec.cpp"
#include "fault/comm_gate.cpp"
#include "mathlib/matrix.cpp"
#include "mathlib/rng.cpp"
#include "sim/integrator.cpp"
#include "sim/trace.cpp"

namespace {

namespace aa = ecsim::aaa;
namespace bl = ecsim::blocks;
namespace fa = ecsim::fault;
namespace ma = ecsim::math;
struct Program;
using Host = ecsim::backend::rt::ProgramDispatch<Program>;

ma::Matrix make_matrix(std::size_t rows, std::size_t cols,
                       std::initializer_list<double> row_major) {
  ma::Matrix m(rows, cols);
  std::size_t i = 0;
  for (double v : row_major) m.data()[i++] = v;
  return m;
}

struct Program {
)";
  out_ += "  static constexpr std::size_t kArenaSize = " +
          lit(lay_.arena_size) + ";\n";
  out_ += "  static constexpr std::size_t kTotalState = " +
          lit(lay_.total_state) + ";\n";
  table("kEvalOrder", lay_.eval_order);
  table("kDynamicCone", lay_.dynamic_cone);
  table("kConeBase", lay_.cone_base);
  table("kConeBlocks", lay_.cone_blocks);
  table("kStatefulBlocks", lay_.stateful_blocks);
  table("kStateOffset", lay_.state_offset);
  table("kSinkBase", lay_.sink_base);
  table("kSinkPtr", lay_.sink_ptr);
  {
    std::vector<std::size_t> blocks, ports;
    blocks.reserve(lay_.event_sinks.size());
    ports.reserve(lay_.event_sinks.size());
    for (const ir::PortRefIr& s : lay_.event_sinks) {
      blocks.push_back(s.block);
      ports.push_back(s.port);
    }
    table("kSinkBlock", blocks);
    table("kSinkPort", ports);
  }
  // Block names in block order, for the loop's obs interning (ABI v2):
  // the generated module interns the same strings in the same order the
  // interpreter's init_obs does.
  out_ += "  static constexpr std::array<const char*, " +
          lit(m_.blocks.size()) + "> kBlockNames{";
  for (std::size_t i = 0; i < m_.blocks.size(); ++i) {
    if (i) out_ += ", ";
    out_ += cstr(m_.blocks[i].name);
  }
  out_ += "};\n";
  out_ += "\n";

  for (std::size_t i = 0; i < m_.blocks.size(); ++i) emit_block(i);

  out_ += members_;
  out_ += "\n  void init(Host& e) {\n";
  out_ += "    double* const a = e.arena.data();\n    (void)a;\n";
  out_ += init_;
  out_ += "  }\n\n";
  out_ += "  void compute(Host& e, std::size_t b) {\n";
  out_ += "    double* const a = e.arena.data();\n    (void)a;\n";
  out_ += "    switch (b) {\n";
  out_ += compute_;
  out_ += "      default: break;\n    }\n  }\n\n";
  out_ += "  void on_event(Host& e, std::size_t b, std::size_t "
          "port) {\n";
  out_ += "    double* const a = e.arena.data();\n    (void)a; (void)port;\n";
  out_ += "    switch (b) {\n";
  out_ += event_;
  out_ += "      default: break;\n    }\n  }\n\n";
  out_ += "  void derivatives(Host& e, std::size_t b, double* dx) "
          "{\n";
  out_ += "    double* const a = e.arena.data();\n    (void)a; (void)dx;\n";
  out_ += "    switch (b) {\n";
  out_ += deriv_;
  out_ += "      default: break;\n    }\n  }\n";
  out_ += "};\n\n}  // namespace\n\n";

  // ---- C ABI ---------------------------------------------------------------
  out_ += "extern \"C\" int ecsim_native_abi() { return " +
          std::to_string(kNativeAbiVersion) + "; }\n\n";
  out_ += "extern \"C\" const char* ecsim_native_hash() { return " +
          cstr(hash_hex) + "; }\n\n";
  out_ += R"(extern "C" int ecsim_native_run(
    const ecsim::backend::NativeRunOptions* o, void* trace,
    std::size_t* events_out, char* err, std::size_t errcap) {
  const auto fail = [&](const char* what) {
    if (err != nullptr && errcap > 0) {
      std::strncpy(err, what, errcap - 1);
      err[errcap - 1] = '\0';
    }
    return 1;
  };
  try {
    auto* tr = static_cast<ecsim::sim::Trace*>(trace);
    tr->register_block_names({
)";
  for (const BlockIr& b : m_.blocks) {
    out_ += "        std::string(" + cstr(b.name) + "),\n";
  }
  out_ += R"(    });
    *events_out = ecsim::backend::rt::run<Program>(*o, *tr);
    return 0;
  } catch (const std::exception& ex) {
    return fail(ex.what());
  } catch (...) {
    return fail("native model: unknown exception");
  }
}
)";
  return out_;
}

}  // namespace

std::string generate_native_source(const ir::Model& m) {
  Emitter em(m);
  return em.generate(ir::hash_hex(m));
}

}  // namespace ecsim::backend
