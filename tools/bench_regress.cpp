// Benchmark regression gate for the checked-in throughput baselines.
//
//   bench_regress <baseline.json> <current.json> [--max-regress=0.20]
//
// Four schemas are understood, selected by the files' "schema" field (both
// files must agree):
//
//   bftreg-bench-codec-v1      written by `bench_codec --json=PATH`; points
//                              keyed by (n, f, size, kernel), metrics
//                              encode/decode_clean/decode_adv MB/s, and
//                              channel-MAC points keyed by (mac, size),
//                              metric seal MB/s.
//   bftreg-bench-client-v1     written by `bench_mixed_workload --json=PATH`;
//                              points keyed by (protocol, depth), metric
//                              ops_per_ms of the pipelined client.
//   bftreg-bench-transport-v1  written by `bench_transport --json=PATH`;
//                              points keyed by (transport, size, fanin)
//                              plus "/shards=N" for shard-sweep rows,
//                              metrics msgs_per_sec and mbps of the raw
//                              data plane.
//   bftreg-bench-objects-v1    written by `bench_objects --json=PATH`;
//                              points keyed by (store, workload, dist,
//                              keys, size), metrics ops_per_sec (higher is
//                              better) and bytes_per_object -- the one
//                              CEILING metric: the gate fails when the
//                              current footprint EXCEEDS baseline *
//                              (1 + max_regress).
//
// Every point present in BOTH files is compared metric by metric; if any
// current metric falls below baseline * (1 - max_regress) -- or above
// baseline * (1 + max_regress) for ceiling metrics -- the gate fails
// (exit 1). Points that exist only on one side (e.g. the CI host lacks
// AVX2) are reported but do not fail the gate -- hardware variance is not
// a regression.
//
// The parser below is deliberately minimal: it only understands the flat
// one-object-per-result layout our own writer produces, which keeps this
// tool dependency-free (no JSON library in the image).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

/// One comparable point: metric name -> value. Higher is better for every
/// metric except the ones ceiling_metric() names.
using Point = std::map<std::string, double>;
using PointMap = std::map<std::string, Point>;  // key: schema-specific

/// Metrics where LOWER is better (resource footprints, not throughput):
/// the gate inverts for these and fails on growth past the tolerance.
bool ceiling_metric(const std::string& name) {
  return name == "bytes_per_object";
}

/// Extracts the numeric value following `"key":` in `obj`, or -1.
double find_number(const std::string& obj, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = obj.find(needle);
  if (at == std::string::npos) return -1.0;
  return std::strtod(obj.c_str() + at + needle.size(), nullptr);
}

/// Extracts the quoted string following `"key":` in `obj`, or "".
std::string find_string(const std::string& obj, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  size_t at = obj.find(needle);
  if (at == std::string::npos) return "";
  at = obj.find('"', at + needle.size());
  if (at == std::string::npos) return "";
  const size_t end = obj.find('"', at + 1);
  if (end == std::string::npos) return "";
  return obj.substr(at + 1, end - at - 1);
}

bool load(const std::string& path, PointMap* out, std::string* schema) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_regress: cannot read %s\n", path.c_str());
    return false;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  *schema = find_string(text, "schema");

  // Walk the result objects: each is a brace-delimited span after "results".
  size_t pos = text.find("\"results\"");
  if (pos == std::string::npos) {
    std::fprintf(stderr, "bench_regress: %s has no results array\n", path.c_str());
    return false;
  }
  const bool client_schema = *schema == "bftreg-bench-client-v1";
  const bool transport_schema = *schema == "bftreg-bench-transport-v1";
  const bool objects_schema = *schema == "bftreg-bench-objects-v1";
  while ((pos = text.find('{', pos + 1)) != std::string::npos) {
    const size_t end = text.find('}', pos);
    if (end == std::string::npos) break;
    const std::string obj = text.substr(pos, end - pos + 1);
    pos = end;

    char key[128];
    Point p;
    if (client_schema) {
      const std::string protocol = find_string(obj, "protocol");
      const double depth = find_number(obj, "depth");
      if (protocol.empty() || depth < 0) continue;
      std::snprintf(key, sizeof(key), "protocol=%s/depth=%d", protocol.c_str(),
                    static_cast<int>(depth));
      p["ops_per_ms"] = find_number(obj, "ops_per_ms");
    } else if (transport_schema) {
      const std::string transport = find_string(obj, "transport");
      const double size = find_number(obj, "size");
      if (transport.empty() || size < 0) continue;
      int len = std::snprintf(key, sizeof(key), "transport=%s/size=%d/fanin=%d",
                              transport.c_str(), static_cast<int>(size),
                              static_cast<int>(find_number(obj, "fanin")));
      // Shard-sweep rows carry an extra "shards" field; base-grid rows omit
      // it so their keys keep matching baselines written before the sweep
      // existed.
      const double shards = find_number(obj, "shards");
      if (shards > 0 && len > 0 && static_cast<size_t>(len) < sizeof(key)) {
        std::snprintf(key + len, sizeof(key) - static_cast<size_t>(len),
                      "/shards=%d", static_cast<int>(shards));
      }
      p["msgs_per_sec"] = find_number(obj, "msgs_per_sec");
      p["mbps"] = find_number(obj, "mbps");
    } else if (objects_schema) {
      const std::string store = find_string(obj, "store");
      const std::string workload = find_string(obj, "workload");
      if (store.empty() || workload.empty()) continue;
      std::snprintf(key, sizeof(key),
                    "store=%s/workload=%s/dist=%s/keys=%d/size=%d",
                    store.c_str(), workload.c_str(),
                    find_string(obj, "dist").c_str(),
                    static_cast<int>(find_number(obj, "keys")),
                    static_cast<int>(find_number(obj, "size")));
      // Footprint rows carry bytes_per_object, throughput rows ops_per_sec;
      // find_number's -1 for the absent one is dropped by the <= 0 guard in
      // the comparison loop.
      p["ops_per_sec"] = find_number(obj, "ops_per_sec");
      p["bytes_per_object"] = find_number(obj, "bytes_per_object");
    } else if (const std::string mac = find_string(obj, "mac"); !mac.empty()) {
      std::snprintf(key, sizeof(key), "mac=%s/size=%d", mac.c_str(),
                    static_cast<int>(find_number(obj, "size")));
      p["seal"] = find_number(obj, "seal_mbps");
    } else {
      const std::string kernel = find_string(obj, "kernel");
      const double n = find_number(obj, "n");
      if (kernel.empty() || n < 0) continue;
      std::snprintf(key, sizeof(key), "n=%d/f=%d/size=%d/kernel=%s",
                    static_cast<int>(n), static_cast<int>(find_number(obj, "f")),
                    static_cast<int>(find_number(obj, "size")), kernel.c_str());
      p["encode"] = find_number(obj, "encode_mbps");
      p["decode_clean"] = find_number(obj, "decode_clean_mbps");
      p["decode_adv"] = find_number(obj, "decode_adv_mbps");
    }
    (*out)[key] = p;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string base_path, cur_path;
  double max_regress = 0.20;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--max-regress=", 14) == 0) {
      max_regress = std::strtod(argv[i] + 14, nullptr);
    } else if (base_path.empty()) {
      base_path = argv[i];
    } else if (cur_path.empty()) {
      cur_path = argv[i];
    }
  }
  if (cur_path.empty()) {
    std::fprintf(stderr,
                 "usage: bench_regress <baseline.json> <current.json> "
                 "[--max-regress=0.20]\n");
    return 2;
  }

  PointMap base, cur;
  std::string base_schema, cur_schema;
  if (!load(base_path, &base, &base_schema) || !load(cur_path, &cur, &cur_schema)) {
    return 2;
  }
  if (base_schema != cur_schema) {
    std::fprintf(stderr, "bench_regress: schema mismatch (%s vs %s)\n",
                 base_schema.c_str(), cur_schema.c_str());
    return 2;
  }

  int regressions = 0;
  int compared = 0;
  for (const auto& [key, b] : base) {
    const auto it = cur.find(key);
    if (it == cur.end()) {
      std::printf("SKIP  %-48s (absent in current run)\n", key.c_str());
      continue;
    }
    const Point& c = it->second;
    for (const auto& [name, base_v] : b) {
      if (base_v <= 0) continue;
      const auto cur_it = c.find(name);
      if (cur_it == c.end()) continue;
      const double cur_v = cur_it->second;
      ++compared;
      const double delta = (cur_v - base_v) / base_v * 100.0;
      const bool regressed = ceiling_metric(name)
                                 ? cur_v > base_v * (1.0 + max_regress)
                                 : cur_v < base_v * (1.0 - max_regress);
      if (regressed) {
        ++regressions;
        std::printf("FAIL  %-48s %-13s %8.1f -> %8.1f (%+.1f%%)\n",
                    key.c_str(), name.c_str(), base_v, cur_v, delta);
      } else {
        std::printf("ok    %-48s %-13s %8.1f -> %8.1f (%+.1f%%)\n",
                    key.c_str(), name.c_str(), base_v, cur_v, delta);
      }
    }
  }
  for (const auto& [key, _] : cur) {
    if (!base.count(key)) {
      std::printf("NEW   %-48s (absent in baseline)\n", key.c_str());
    }
  }
  std::printf("bench_regress: %d metrics compared, %d regressed more than %.0f%%\n",
              compared, regressions, max_regress * 100.0);
  return regressions > 0 ? 1 : 0;
}
