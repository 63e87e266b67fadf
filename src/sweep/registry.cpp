#include "sweep/registry.hpp"

#include <stdexcept>
#include <utility>

#include "util/parse.hpp"
#include "util/sync.hpp"

namespace h3dfact::sweep {

namespace {

// One process-wide table behind a mutex: registration happens at startup
// (bench mains, sweep_worker, test fixtures) but lookups may come from the
// worker serve loop while tests register concurrently.
struct Registry {
  util::Mutex mutex;
  std::map<std::string, GridBuilder> builders GUARDED_BY(mutex);
};

Registry& registry() {
  static Registry r;
  return r;
}

}  // namespace

void register_grid(const std::string& name, GridBuilder builder) {
  if (name.empty()) throw std::invalid_argument("grid name must be non-empty");
  if (!builder) throw std::invalid_argument("grid builder must be callable");
  Registry& r = registry();
  util::MutexLock lock(r.mutex);
  r.builders[name] = std::move(builder);
}

bool grid_registered(const std::string& name) {
  Registry& r = registry();
  util::MutexLock lock(r.mutex);
  return r.builders.count(name) > 0;
}

SweepSpec build_grid(const GridRef& ref) {
  GridBuilder builder;
  {
    Registry& r = registry();
    util::MutexLock lock(r.mutex);
    auto it = r.builders.find(ref.name);
    if (it == r.builders.end()) {
      throw std::out_of_range("unknown sweep grid '" + ref.name + "'");
    }
    builder = it->second;
  }
  SweepSpec spec = builder(ref.params);
  spec.name = ref.name;  // the registered name IS the spec's identity
  return spec;
}

std::vector<std::string> registered_grids() {
  Registry& r = registry();
  util::MutexLock lock(r.mutex);
  std::vector<std::string> names;
  names.reserve(r.builders.size());
  for (const auto& [name, builder] : r.builders) {
    (void)builder;
    names.push_back(name);
  }
  return names;
}

std::int64_t param_i64(const GridParams& params, const std::string& key,
                       std::int64_t def) {
  auto it = params.find(key);
  if (it == params.end()) return def;
  const auto parsed = util::parse_i64(it->second);
  if (!parsed) {
    throw std::invalid_argument("grid param " + key + "=\"" + it->second +
                                "\" is not a valid integer");
  }
  return *parsed;
}

std::uint64_t param_u64(const GridParams& params, const std::string& key,
                        std::uint64_t def) {
  auto it = params.find(key);
  if (it == params.end()) return def;
  const auto parsed = util::parse_u64(it->second);
  if (!parsed) {
    throw std::invalid_argument("grid param " + key + "=\"" + it->second +
                                "\" is not a valid unsigned integer");
  }
  return *parsed;
}

double param_f64(const GridParams& params, const std::string& key,
                 double def) {
  auto it = params.find(key);
  if (it == params.end()) return def;
  const auto parsed = util::parse_f64(it->second);
  if (!parsed) {
    throw std::invalid_argument("grid param " + key + "=\"" + it->second +
                                "\" is not a valid number");
  }
  return *parsed;
}

bool param_flag(const GridParams& params, const std::string& key, bool def) {
  auto it = params.find(key);
  if (it == params.end()) return def;
  return it->second != "false" && it->second != "0";
}

}  // namespace h3dfact::sweep
