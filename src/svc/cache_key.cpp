#include "svc/cache_key.hpp"

#include <cstdio>
#include <stdexcept>

#include "svc/work_verb.hpp"

namespace ecsim::svc {

std::string ResultKey::canonical() const {
  char buf[64];
  std::string out = "k1|";
  out += model_hash;
  out += '|';
  out += backend;
  out += '|';
  out += std::to_string(seed);
  std::snprintf(buf, sizeof buf, "|0x%016llx|",
                static_cast<unsigned long long>(fault_hash));
  out += buf;
  out += params;
  return out;
}

ResultKey unit_key(const Request& req, const std::string& model_hash,
                   std::size_t unit) {
  if (unit >= req.units()) {
    throw std::out_of_range("unit_key: unit beyond request");
  }
  const WorkVerb& w = *find_work_verb(req.verb);  // units() > 0
  ResultKey key;
  key.model_hash = model_hash;
  key.backend = req.backend;
  key.seed = unit_seed(req, unit);
  if (w.fault_hash != nullptr) key.fault_hash = w.fault_hash(req, unit);
  std::string& p = key.params;
  p = std::string("v=") + to_string(req.verb) + ";ts=" + hexfloat(req.ts) +
      ";te=" + hexfloat(req.t_end);
  if (w.shape == Shape::kGrid) {
    p += std::string(";") + w.row_label + "=" + hexfloat(row_of(req, unit)) +
         ";" + w.col_label + "=" + hexfloat(col_of(req, unit));
  } else if (w.shape == Shape::kTrials) {
    p += ";loss=" + hexfloat(req.loss);
  } else {
    p += ";trials=" + std::to_string(req.trials) +
         ";iters=" + std::to_string(req.iterations);
  }
  return key;
}

std::string spec_content_hash(const std::string& spec_text) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "spec:0x%016llx",
                static_cast<unsigned long long>(fnv1a(spec_text)));
  return buf;
}

}  // namespace ecsim::svc
