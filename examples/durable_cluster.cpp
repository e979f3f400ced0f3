// durable_cluster: servers that survive restarts.
//
// The paper's fail-stop servers never come back; real deployments restart
// them. This example runs BSR with write-ahead-logging servers
// (storage::PersistentRegisterServer), kills and revives one server
// between operations, and shows (a) the revived server resumes from its
// logged state -- making it indistinguishable from a slow-but-honest
// server, which the protocol tolerates by design -- and (b) what the log
// costs and what compaction reclaims.
//
//   ./build/examples/durable_cluster
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include "registers/registers.h"
#include "sim/simulator.h"
#include "storage/persistent_server.h"
#include "workload/workload.h"

using namespace bftreg;

int main() {
  // A directory of this run's own (the pid names it), so concurrent runs
  // never share a WAL; removed again at exit.
  const std::string wal_dir =
      (std::filesystem::temp_directory_path() /
       ("bftreg_durable_example." + std::to_string(::getpid())))
          .string();
  std::filesystem::create_directories(wal_dir);
  struct RemoveAtExit {
    const std::string& dir;
    ~RemoveAtExit() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  } remove_at_exit{wal_dir};

  sim::Simulator sim(sim::SimConfig::with_uniform_delay(17, 500, 1500));
  registers::SystemConfig cfg;
  cfg.n = 5;
  cfg.f = 1;
  // Keep only the two newest versions per server so compaction has
  // superseded log entries to reclaim.
  cfg.max_history = 2;

  auto wal_path = [&](uint32_t i) {
    return wal_dir + "/server-" + std::to_string(i) + ".wal";
  };
  for (uint32_t i = 0; i < cfg.n; ++i) std::remove(wal_path(i).c_str());

  std::vector<std::unique_ptr<storage::PersistentRegisterServer>> servers;
  for (uint32_t i = 0; i < cfg.n; ++i) {
    servers.push_back(std::make_unique<storage::PersistentRegisterServer>(
        ProcessId::server(i), cfg, &sim, Bytes{}, wal_path(i)));
    sim.add_process(ProcessId::server(i), servers.back().get());
  }
  registers::RegisterClient writer(ProcessId::writer(0), cfg, &sim);
  registers::RegisterClient reader(ProcessId::reader(0), cfg, &sim);
  sim.add_process(ProcessId::writer(0), &writer);
  sim.add_process(ProcessId::reader(0), &reader);

  auto write = [&](const std::string& v) {
    bool done = false;
    writer.write(0, Bytes(v.begin(), v.end()),
                 [&](const registers::WriteResult&) { done = true; });
    sim.run_until([&] { return done; });
    sim.run_until_idle();
  };
  auto read = [&] {
    bool done = false;
    std::string out;
    reader.read(0, [&](const registers::ReadResult& r) {
      out.assign(r.value.begin(), r.value.end());
      done = true;
    });
    sim.run_until([&] { return done; });
    return out;
  };

  std::printf("durable BSR cluster (n=5, f=1), one WAL per server\n\n");
  for (int i = 0; i < 20; ++i) write("version-" + std::to_string(i));
  std::printf("after 20 writes: read() -> \"%s\"\n", read().c_str());
  std::printf("server 0 WAL: %ju bytes\n",
              static_cast<uintmax_t>(std::filesystem::file_size(wal_path(0))));

  // Restart server 0: destroy the process object, recover from its WAL.
  std::printf("\nrestarting server 0 ...\n");
  servers[0] = std::make_unique<storage::PersistentRegisterServer>(
      ProcessId::server(0), cfg, &sim, Bytes{}, wal_path(0));
  sim.add_process(ProcessId::server(0), servers[0].get());
  std::printf("  recovered %zu records (%zu torn bytes discarded)\n",
              servers[0]->recovered_records(),
              servers[0]->recovered_truncated_bytes());
  std::printf("  server 0 newest tag: %s\n",
              to_string(servers[0]->max_tag()).c_str());
  std::printf("read() after recovery -> \"%s\"\n", read().c_str());

  // Compaction drops superseded versions.
  const auto before = std::filesystem::file_size(wal_path(0));
  servers[0]->compact();
  const auto after = std::filesystem::file_size(wal_path(0));
  std::printf("\ncompaction: WAL %ju -> %ju bytes\n",
              static_cast<uintmax_t>(before), static_cast<uintmax_t>(after));

  write("after-compaction");
  std::printf("one more write, read() -> \"%s\"\n", read().c_str());
  return 0;
}
