// Standalone per-layer measurements made in the same binary as the
// end-to-end run: each gives the throughput one layer alone would allow.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster.h"

namespace bftreg::e2e {

/// Frames per second the workload's transport moves between the
/// workload's clients and servers with no protocol behind them: every
/// server echoes each request frame with a reply frame, and each client
/// keeps a window of frames in flight per server.
double transport_frames_per_s(const WorkloadSpec& spec, size_t request_bytes,
                              size_t reply_bytes, double seconds);

/// Mean Authenticator::seal cost over the given payload sizes.
double seal_ns(const std::vector<uint32_t>& sizes);

struct CodecTimes {
  double encode_us{0};
  double decode_us{0};
};
/// MdsCode::encode, and decode of n - f elements of which one is
/// erroneous (the Berlekamp-Welch path), on a value of the workload's
/// size. Zero for the replicated workloads.
CodecTimes codec_times(const WorkloadSpec& spec, uint64_t seed);

}  // namespace bftreg::e2e
