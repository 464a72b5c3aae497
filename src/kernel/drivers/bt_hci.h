// Bluetooth HCI raw-socket driver (simulated vendor BT controller stack).
//
// Userspace (and the BT HAL) talks to the controller through an AF_BLUETOOTH
// raw socket: bind to an adapter, bring it up via ioctl, then exchange HCI
// command/event packets via sendmsg/recvmsg. Planted bug (Table II #7): the
// vendor "set codec table" command (0xFC12) sizes the codec buffer from the
// firmware-reported capability (8 entries) but stores the user-supplied
// count; a later Read_Local_Supported_Codecs (0x100B) walks `count` entries
// and reads out of bounds — "KASAN: invalid-access Read in
// hci_read_supported_codecs". Requires: bind + dev-up + two correctly framed
// HCI commands with a count > 8.
#pragma once

#include "kernel/driver.h"

namespace df::kernel::drivers {

struct BtHciBugs {
  bool codec_oob = false;  // Table II #7 (device A2)
};

class BtHciDriver final : public Driver {
 public:
  // ioctls on the HCI socket.
  static constexpr uint64_t kIocDevUp = 0x1001;
  static constexpr uint64_t kIocDevDown = 0x1002;
  static constexpr uint64_t kIocDevReset = 0x1003;
  static constexpr uint64_t kIocDevInfo = 0x1004;

  // HCI opcodes (16-bit, little-endian in the packet).
  static constexpr uint16_t kOpSetEventMask = 0x0c01;
  static constexpr uint16_t kOpReset = 0x0c03;
  static constexpr uint16_t kOpReadLocalVersion = 0x1001;
  static constexpr uint16_t kOpReadBdAddr = 0x1009;
  static constexpr uint16_t kOpReadCodecs = 0x100b;  // read supported codecs
  static constexpr uint16_t kOpInquiry = 0x0401;
  static constexpr uint16_t kOpVsSetCodecTable = 0xfc12;  // vendor specific
  static constexpr uint16_t kOpVsSetBaudrate = 0xfc18;    // vendor specific

  explicit BtHciDriver(BtHciBugs bugs = {}) : bugs_(bugs) {}

  std::string_view name() const override { return "bt_hci"; }
  std::vector<SockTriple> socket_protos() const override {
    return {{kAfBluetooth, kSockRaw, kBtProtoHci}};
  }

  void probe(DriverCtx& ctx) override;
  void reset() override;

  void state(StateArchive& ar) override;
  void file_state(File& f, StateArchive& ar) override;

  std::vector<std::string> state_names() const override {
    return {"down", "up", "vendor_unlocked"};
  }
  std::vector<DeclaredTransition> declared_transitions() const override {
    return {
        // DEVUP only works on a bound socket, so the edge binds first.
        {0, 1, {{"bind$hci", {{"dev", 0}}}, {"ioctl$HCIDEVUP"}}},
        {1, 0, {{"ioctl$HCIDEVDOWN"}}},
        {1, 2, {{"sendmsg$HCI_VS_SET_BAUDRATE", {{"baud", 115200}}}}},
    };
  }

  int64_t sock_create(DriverCtx& ctx, File& f) override;
  int64_t bind(DriverCtx& ctx, File& f,
               std::span<const uint8_t> addr) override;
  int64_t ioctl(DriverCtx& ctx, File& f, uint64_t req,
                std::span<const uint8_t> in,
                std::vector<uint8_t>& out) override {
    const int64_t ret = ioctl_impl(ctx, f, req, in, out);
    enter_state(protocol_state());
    return ret;
  }
  int64_t sendmsg(DriverCtx& ctx, File& f,
                  std::span<const uint8_t> pkt) override {
    const int64_t ret = sendmsg_impl(ctx, f, pkt);
    enter_state(protocol_state());
    return ret;
  }
  int64_t recvmsg(DriverCtx& ctx, File& f, size_t n,
                  std::vector<uint8_t>& out) override;
  void release(DriverCtx& ctx, File& f) override;

 private:
  int64_t ioctl_impl(DriverCtx& ctx, File& f, uint64_t req,
                     std::span<const uint8_t> in, std::vector<uint8_t>& out);
  int64_t sendmsg_impl(DriverCtx& ctx, File& f, std::span<const uint8_t> pkt);
  // Adapter position: vendor surface unlocked > adapter up > down.
  size_t protocol_state() const {
    if (vendor_unlocked_) return 2;
    return adapter_up_ ? 1 : 0;
  }

  struct SockState {
    bool bound = false;
    std::vector<std::vector<uint8_t>> events;  // pending HCI events
  };

  void queue_cmd_complete(SockState& ss, uint16_t opcode,
                          std::span<const uint8_t> params);
  int64_t handle_command(DriverCtx& ctx, SockState& ss, uint16_t opcode,
                         std::span<const uint8_t> params);

  BtHciBugs bugs_;
  // Adapter-global state (shared across sockets, reset on reboot).
  bool adapter_up_ = false;
  uint64_t event_mask_ = 0;
  HeapPtr codec_buf_ = kNullHeapPtr;
  uint32_t codec_count_ = 0;      // count claimed by the VS command
  uint32_t codec_capacity_ = 0;   // entries actually allocated
  uint32_t cmds_handled_ = 0;
  bool vendor_unlocked_ = false;  // VS commands gated on the baudrate cmd
};

}  // namespace df::kernel::drivers
