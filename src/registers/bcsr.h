// BCSR: Byzantine Coded Safe Register (Section IV, Figs. 4-6).
//
// The client side is RegisterClient with ProtocolVariant::kBcsr (WriteOp
// and BcsrReadOp in protocol_ops.h); servers are RegisterServers seeded
// with the coded initial elements below.
#pragma once

#include <vector>

#include "common/types.h"
#include "registers/config.h"

namespace bftreg::registers {

/// Builds the per-server initial elements Phi_i(v0) that BCSR servers are
/// seeded with (Fig. 6: L initially {(t0, c0^s)}).
std::vector<Bytes> bcsr_initial_elements(const SystemConfig& config);

}  // namespace bftreg::registers
