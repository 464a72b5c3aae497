// Bluetooth L2CAP socket layer (simulated kernel subsystem).
//
// SEQPACKET sockets over AF_BLUETOOTH/BTPROTO_L2CAP: bind to a PSM, listen/
// accept on the server side, connect + configure + data on the client side.
//
// Two planted bugs live here:
//  * Table II #8 (device B, shallow): sending an L2CAP Disconnect request
//    while the channel is still in the CONNECTING state trips
//    "WARNING in l2cap_send_disconn_req" — reachable in three loosely
//    constrained calls, which is why Syzkaller also finds it in the paper.
//  * Table II #11 (device D, deep): the accept queue is freed when the
//    listening socket closes, but accepted children keep a pointer into it;
//    closing the child afterwards touches the freed queue in
//    bt_accept_unlink -> "KASAN: slab-use-after-free Read in
//    bt_accept_unlink". Needs two sockets and a precise 6-call order.
#pragma once

#include <map>

#include "kernel/driver.h"

namespace df::kernel::drivers {

struct L2capBugs {
  bool disconn_warn = false;      // Table II #8 (device B)
  bool accept_unlink_uaf = false;  // Table II #11 (device D)
};

class L2capDriver final : public Driver {
 public:
  // First byte of a sendmsg payload selects the control opcode; anything
  // >= 0x10 is treated as data.
  static constexpr uint8_t kCtlConfigReq = 0x04;
  static constexpr uint8_t kCtlDisconnReq = 0x06;
  static constexpr uint8_t kCtlEchoReq = 0x08;

  explicit L2capDriver(L2capBugs bugs = {}) : bugs_(bugs) {}

  std::string_view name() const override { return "l2cap"; }
  std::vector<SockTriple> socket_protos() const override {
    return {{kAfBluetooth, kSockSeqpacket, kBtProtoL2cap}};
  }
  // Channel states are per-socket; the driver-level machine tracks whichever
  // channel transitioned last, so the matrix records the protocol orderings
  // the fuzzer actually exercised across all sockets.
  std::vector<std::string> state_names() const override {
    return {"closed", "bound", "listening", "connecting", "config",
            "connected"};
  }
  std::vector<DeclaredTransition> declared_transitions() const override {
    return {
        {0, 1, {{"bind$l2cap", {{"psm", 1}}}}},
        {1, 2, {{"listen$l2cap", {{"backlog", 1}}}}},
        // No listener on PSM 25: the connect response never arrives.
        {0, 3, {{"connect$l2cap", {{"psm", 25}}}}},
        {3, 0, {{"sendmsg$l2cap_disconn"}}},
        // A second socket's (instance 1) loopback connect against the
        // listener's PSM: connecting on the listener itself would EBUSY.
        {2, 4, {{"connect$l2cap", {{"psm", 1}}, 1}}},
        {4, 5, {{"sendmsg$l2cap_config", {{"mtu", 1024}}, 1}}},
        {5, 0, {{"sendmsg$l2cap_disconn", {}, 1}}},
    };
  }

  void probe(DriverCtx& ctx) override;
  void reset() override;

  void state(StateArchive& ar) override;
  void file_state(File& f, StateArchive& ar) override;

  int64_t sock_create(DriverCtx& ctx, File& f) override;
  int64_t bind(DriverCtx& ctx, File& f,
               std::span<const uint8_t> addr) override;
  int64_t connect(DriverCtx& ctx, File& f,
                  std::span<const uint8_t> addr) override;
  int64_t listen(DriverCtx& ctx, File& f, uint64_t backlog) override;
  int64_t accept(DriverCtx& ctx, File& listener, File& child) override;
  int64_t setsockopt(DriverCtx& ctx, File& f, uint64_t level, uint64_t opt,
                     std::span<const uint8_t> in) override;
  int64_t sendmsg(DriverCtx& ctx, File& f,
                  std::span<const uint8_t> data) override;
  int64_t recvmsg(DriverCtx& ctx, File& f, size_t n,
                  std::vector<uint8_t>& out) override;
  void release(DriverCtx& ctx, File& f) override;

 private:
  enum class Chan {
    kClosed,
    kBound,
    kListening,
    kConnecting,
    kConfig,
    kConnected,
  };

  struct SockState {
    Chan st = Chan::kClosed;
    uint16_t psm = 0;
    uint32_t mtu = 672;
    uint32_t backlog = 0;
    uint32_t pending = 0;          // queued incoming connections (listener)
    HeapPtr accept_q = kNullHeapPtr;  // listener's accept queue allocation
    HeapPtr parent_q = kNullHeapPtr;  // child's pointer into parent queue
    uint64_t tx = 0;
  };

  void track_chan(Chan c) { enter_state(static_cast<size_t>(c)); }

  L2capBugs bugs_;
  // PSM -> listening socket state (single adapter).
  std::map<uint16_t, SockState*> listeners_;
  // PSMs with a bound (not necessarily listening) socket.
  std::map<uint16_t, uint32_t> bound_;
};

}  // namespace df::kernel::drivers
