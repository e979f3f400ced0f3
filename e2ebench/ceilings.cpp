#include "ceilings.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <thread>

#include "codec/mds_code.h"
#include "crypto/auth.h"
#include "workload/workload.h"

namespace bftreg::e2e {

namespace {

/// Answers every frame with a fixed reply frame.
class Echo final : public net::IProcess {
 public:
  Echo(ProcessId self, net::Transport* net, Payload reply)
      : self_(self), net_(net), reply_(std::move(reply)) {}
  void on_message(const net::Envelope& env) override {
    net_->send_payload(self_, env.from, reply_);
  }

 private:
  ProcessId self_;
  net::Transport* net_;
  Payload reply_;
};

/// Keeps a window of request frames in flight to every server.
class Source final : public net::IProcess {
 public:
  Source(ProcessId self, net::Transport* net, Payload request,
         const std::atomic<bool>* running)
      : self_(self), net_(net), request_(std::move(request)), running_(running) {}
  void on_message(const net::Envelope& env) override {
    if (running_->load(std::memory_order_relaxed)) {
      net_->send_payload(self_, env.from, request_);
    }
  }
  void kick(size_t servers, size_t window) {
    for (uint32_t s = 0; s < servers; ++s) {
      for (size_t w = 0; w < window; ++w) {
        net_->send_payload(self_, ProcessId::server(s), request_);
      }
    }
  }

 private:
  ProcessId self_;
  net::Transport* net_;
  Payload request_;
  const std::atomic<bool>* running_;
};

/// Keeps the timed seals observable to the optimizer.
volatile uint64_t g_seal_sink = 0;

template <typename Fn>
double median_us(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const int64_t start = now_ns();
    fn();
    t.push_back(static_cast<double>(now_ns() - start) / 1e3);
  }
  std::sort(t.begin(), t.end());
  return t[t.size() / 2];
}

}  // namespace

double transport_frames_per_s(const WorkloadSpec& spec, size_t request_bytes,
                              size_t reply_bytes, double seconds) {
  constexpr size_t kWindow = 16;
  std::atomic<bool> running{true};
  std::unique_ptr<socknet::TcpNetwork> tcp;
  std::unique_ptr<runtime::ThreadNetwork> threads;
  net::Transport* net = nullptr;
  if (spec.net == NetKind::kTcp) {
    tcp = std::make_unique<socknet::TcpNetwork>(socknet::TcpConfig{});
    net = tcp.get();
  } else {
    threads = std::make_unique<runtime::ThreadNetwork>(runtime::RuntimeConfig{});
    net = threads.get();
  }
  const Payload request(Bytes(request_bytes, 0x5a));
  const Payload reply(Bytes(reply_bytes, 0xa5));
  std::vector<std::unique_ptr<Echo>> echoes;
  std::vector<std::unique_ptr<Source>> sources;
  for (uint32_t i = 0; i < spec.n; ++i) {
    echoes.push_back(std::make_unique<Echo>(ProcessId::server(i), net, reply));
    if (tcp) {
      tcp->add_process(ProcessId::server(i), echoes.back().get());
    } else {
      threads->add_process(ProcessId::server(i), echoes.back().get());
    }
  }
  for (uint32_t i = 0; i < spec.readers + spec.writers; ++i) {
    const ProcessId pid = ProcessId::reader(i);
    sources.push_back(std::make_unique<Source>(pid, net, request, &running));
    if (tcp) {
      tcp->add_process(pid, sources.back().get(), /*listen=*/false);
    } else {
      threads->add_process(pid, sources.back().get());
    }
  }
  if (tcp) {
    tcp->start();
  } else {
    threads->start();
  }
  for (auto& s : sources) {
    Source* src = s.get();
    const size_t servers = spec.n;
    net->post(ProcessId::reader(static_cast<uint32_t>(&s - sources.data())),
              [src, servers] { src->kick(servers, kWindow); });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const uint64_t d0 = net->metrics().snapshot().messages_delivered;
  const int64_t t0 = now_ns();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  const uint64_t d1 = net->metrics().snapshot().messages_delivered;
  const int64_t t1 = now_ns();
  running.store(false);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  if (tcp) {
    tcp->stop();
  } else {
    threads->stop();
  }
  return static_cast<double>(d1 - d0) / (static_cast<double>(t1 - t0) / 1e9);
}

double seal_ns(const std::vector<uint32_t>& sizes) {
  if (sizes.empty()) return 0;
  crypto::Authenticator auth{crypto::KeyRegistry(0x5eC4e7B17e5eCBA5ULL)};
  const ProcessId a = ProcessId::reader(0);
  const ProcessId b = ProcessId::server(0);
  auth.precompute({a, b});
  constexpr int kReps = 16;
  const uint32_t largest = *std::max_element(sizes.begin(), sizes.end());
  const Bytes buf(largest, 0x3c);
  uint64_t sink = 0;
  const int64_t start = now_ns();
  for (const uint32_t size : sizes) {
    for (int r = 0; r < kReps; ++r) {
      sink += auth.seal(a, b, BytesView(buf.data(), size));
    }
  }
  const int64_t elapsed = now_ns() - start;
  g_seal_sink = sink;
  return static_cast<double>(elapsed) /
         static_cast<double>(sizes.size() * kReps);
}

CodecTimes codec_times(const WorkloadSpec& spec, uint64_t seed) {
  CodecTimes out;
  if (!spec.coded) return out;
  const codec::MdsCode code = codec::MdsCode::for_bcsr(spec.n, spec.f);
  const Bytes value = workload::make_value(seed, 7, spec.value_size);
  const int reps = 30;
  std::vector<Bytes> elements;
  out.encode_us = median_us(reps, [&] { elements = code.encode(value); });

  // What a read holds: n - f elements, one of them erroneous.
  std::vector<std::optional<Bytes>> received(spec.n);
  for (size_t i = 0; i < spec.n - spec.f; ++i) received[i] = elements[i];
  for (auto& b : *received[0]) b ^= 0x5a;
  std::optional<Bytes> decoded;
  out.decode_us = median_us(reps, [&] { decoded = code.decode(received); });
  if (!decoded || *decoded != value) {
    std::fprintf(stderr, "codec: decode with one erroneous element failed\n");
    std::exit(1);
  }
  return out;
}

}  // namespace bftreg::e2e
