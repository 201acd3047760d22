#include "backend/native_backend.hpp"

#include <dlfcn.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>

// Baked in by src/CMakeLists.txt so a generated module is always built by
// the same toolchain, with the same flags, against the same headers as the
// host process — the precondition for passing sim::Trace across the ABI.
#ifndef ECSIM_NATIVE_CXX_DEFAULT
#define ECSIM_NATIVE_CXX_DEFAULT "c++"
#endif
#ifndef ECSIM_NATIVE_CXXFLAGS
#define ECSIM_NATIVE_CXXFLAGS "-O2"
#endif
#ifndef ECSIM_NATIVE_INCLUDE_DIR
#define ECSIM_NATIVE_INCLUDE_DIR "."
#endif
#ifndef ECSIM_NATIVE_RT_ARCHIVE
#define ECSIM_NATIVE_RT_ARCHIVE ""
#endif

namespace ecsim::backend {

namespace {

namespace fs = std::filesystem;

std::string env_or(const char* name, std::string fallback) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0') ? std::string(v) : std::move(fallback);
}

std::uint64_t fnv1a(std::string_view s, std::uint64_t h = 1469598103934665603ULL) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t stamp_file(const fs::path& p, std::uint64_t h) {
  std::error_code ec;
  const auto size = fs::file_size(p, ec);
  if (!ec) h = fnv1a(std::to_string(size), h);
  const auto mtime = fs::last_write_time(p, ec);
  if (!ec) h = fnv1a(std::to_string(mtime.time_since_epoch().count()), h);
  return h;
}

std::string tool_fingerprint(const std::string& cxx, const std::string& flags,
                             const std::string& archive) {
  std::uint64_t h = fnv1a(cxx);
  h = fnv1a(flags, h);
  h = fnv1a(archive, h);
  // Key on size + mtime of everything a module's behaviour depends on beyond
  // its own source text — the runtime archive it links against and the
  // engine/ABI/medium headers it includes — so a rebuilt tree never
  // resurrects a stale .so. (The generated text itself is salted into the
  // key by the caller.)
  h = stamp_file(archive, h);
  const fs::path inc = ECSIM_NATIVE_INCLUDE_DIR;
  h = stamp_file(inc / "backend" / "native_runtime.hpp", h);
  h = stamp_file(inc / "backend" / "native_abi.hpp", h);
  h = stamp_file(inc / "sim" / "hybrid_loop.hpp", h);
  h = stamp_file(inc / "aaa" / "architecture_graph.hpp", h);
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

fs::path cache_dir() {
  const std::string dir = env_or("ECSIM_NATIVE_CACHE", std::string());
  if (!dir.empty()) return dir;
  return fs::temp_directory_path() / "ecsim_native_cache";
}

std::string tail_of(const fs::path& log, std::size_t max_bytes = 2000) {
  std::ifstream in(log);
  if (!in) return std::string();
  std::stringstream ss;
  ss << in.rdbuf();
  std::string s = ss.str();
  if (s.size() > max_bytes) s.erase(0, s.size() - max_bytes);
  return s;
}

[[noreturn]] void fail(const std::string& why) {
  throw std::runtime_error("native backend: " + why);
}

/// Compile `src_path` into `so_path` (atomically, via a temp name). Throws
/// with the tail of the compiler log on a nonzero exit.
void compile_module(const std::string& cxx, const std::string& flags,
                    const std::string& archive, const fs::path& src_path,
                    const fs::path& so_path) {
  const fs::path tmp =
      so_path.string() + ".tmp." + std::to_string(::getpid());
  const fs::path log = so_path.string() + ".log";
  std::string cmd = "\"" + cxx + "\" -std=c++20 " + flags +
                    " -shared -fPIC -I\"" ECSIM_NATIVE_INCLUDE_DIR "\" \"" +
                    src_path.string() + "\" \"" + archive + "\" -o \"" +
                    tmp.string() + "\" > \"" + log.string() + "\" 2>&1";
  const int rc = std::system(cmd.c_str());
  if (rc != 0) {
    std::error_code ec;
    fs::remove(tmp, ec);
    std::string msg = "compile failed (exit " + std::to_string(rc) + ")";
    const std::string t = tail_of(log);
    if (!t.empty()) msg += ":\n" + t;
    fail(msg);
  }
  std::error_code ec;
  fs::rename(tmp, so_path, ec);
  if (ec && !fs::exists(so_path)) {
    fail("cache rename failed: " + ec.message());
  }
}

NativeModule open_module(const fs::path& so_path,
                         const std::string& want_hash) {
  void* h = ::dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (h == nullptr) {
    const char* e = ::dlerror();
    fail(std::string("dlopen failed: ") + (e != nullptr ? e : "?"));
  }
  NativeModule mod;
  mod.so_path = so_path.string();
  mod.abi = reinterpret_cast<EcsimNativeAbiFn>(::dlsym(h, "ecsim_native_abi"));
  mod.hash =
      reinterpret_cast<EcsimNativeHashFn>(::dlsym(h, "ecsim_native_hash"));
  mod.run = reinterpret_cast<EcsimNativeRunFn>(::dlsym(h, "ecsim_native_run"));
  if (mod.abi == nullptr || mod.hash == nullptr || mod.run == nullptr) {
    fail("module is missing an ecsim_native_* symbol (not an ecsim model?)");
  }
  if (mod.abi() != kNativeAbiVersion) {
    fail("ABI mismatch: module " + std::to_string(mod.abi()) + ", host " +
         std::to_string(kNativeAbiVersion));
  }
  if (want_hash != mod.hash()) {
    fail("IR hash mismatch: module " + std::string(mod.hash()) + ", host " +
         want_hash);
  }
  return mod;
}

}  // namespace

bool native_disabled() {
  const char* v = std::getenv("ECSIM_NATIVE_DISABLE");
  return v != nullptr && *v != '\0';
}

const NativeModule& load_native_module(const ir::Model& m,
                                       const std::string& source) {
  // Process-lifetime registry: one load per artifact, never unloaded.
  static std::mutex mu;
  static std::map<std::string, NativeModule> loaded;

  const std::string cxx = env_or("ECSIM_NATIVE_CXX", ECSIM_NATIVE_CXX_DEFAULT);
  const std::string flags = ECSIM_NATIVE_CXXFLAGS;
  const std::string archive = ECSIM_NATIVE_RT_ARCHIVE;
  const std::string hash = ir::hash_hex(m);
  std::string key = "m";
  key += hash.substr(2);
  key += "_abi";
  key += std::to_string(kNativeAbiVersion);
  key += "_t";
  key += tool_fingerprint(cxx, flags, archive);
  {
    // The generator itself evolves: same IR, newer codegen → different
    // module. Key on the generated text so a cache can never serve a .so
    // built by an older generator.
    char buf[24];
    std::snprintf(buf, sizeof buf, "_g%016llx",
                  static_cast<unsigned long long>(fnv1a(source)));
    key += buf;
  }

  std::lock_guard<std::mutex> lock(mu);
  const auto it = loaded.find(key);
  if (it != loaded.end()) return it->second;

  if (archive.empty() || !fs::exists(archive)) {
    fail("runtime archive not found: '" + archive + "'");
  }
  std::error_code ec;
  const fs::path dir = cache_dir();
  fs::create_directories(dir, ec);
  if (ec) fail("cannot create cache dir " + dir.string() + ": " + ec.message());

  const fs::path so_path = dir / (key + ".so");
  if (!fs::exists(so_path)) {
    const fs::path src_path = dir / (key + ".cpp");
    {
      std::ofstream out(src_path, std::ios::trunc);
      if (!out) fail("cannot write " + src_path.string());
      out << source;
    }
    compile_module(cxx, flags, archive, src_path, so_path);
  }
  return loaded.emplace(key, open_module(so_path, hash)).first->second;
}

}  // namespace ecsim::backend
