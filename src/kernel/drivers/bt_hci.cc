#include "kernel/drivers/bt_hci.h"

#include <algorithm>
#include <array>

namespace df::kernel::drivers {

// Block map: 1xx socket/bind, 2xx ioctl, 3xx send framing, 4xx per-opcode,
// 5xx codecs, 6xx recv.

void BtHciDriver::probe(DriverCtx& ctx) {
  ctx.cov(100);
}

void BtHciDriver::reset() {
  adapter_up_ = false;
  event_mask_ = 0;
  codec_buf_ = kNullHeapPtr;
  codec_count_ = codec_capacity_ = 0;
  vendor_unlocked_ = false;
}

int64_t BtHciDriver::sock_create(DriverCtx& ctx, File& f) {
  ctx.cov(110);
  f.make_state<SockState>();
  return 0;
}

int64_t BtHciDriver::bind(DriverCtx& ctx, File& f,
                          std::span<const uint8_t> addr) {
  auto* ss = f.state<SockState>();
  if (ss == nullptr) return err::kEINVAL;
  ctx.cov(120);
  if (addr.empty() || addr[0] != 0) {
    // Only adapter hci0 exists.
    ctx.cov(121);
    return err::kENODEV;
  }
  if (ss->bound) {
    ctx.cov(122);
    return err::kEINVAL;
  }
  ss->bound = true;
  ctx.cov(123);
  return 0;
}

int64_t BtHciDriver::ioctl_impl(DriverCtx& ctx, File& f, uint64_t req,
                           std::span<const uint8_t>, std::vector<uint8_t>& out) {
  auto* ss = f.state<SockState>();
  if (ss == nullptr) return err::kEINVAL;
  switch (req) {
    case kIocDevUp:
      ctx.cov(200);
      if (!ss->bound) {
        ctx.cov(201);
        return err::kEINVAL;
      }
      if (adapter_up_) {
        ctx.cov(202);
        return err::kEBUSY;
      }
      adapter_up_ = true;
      // Controller init: firmware reports an 8-entry codec capability; the
      // host allocates accordingly.
      codec_capacity_ = 8;
      codec_count_ = 2;  // firmware default: CVSD + mSBC
      codec_buf_ = ctx.kmalloc(codec_capacity_ * 4, "bt_hci:codec_buf");
      ctx.cov(203);
      return 0;
    case kIocDevDown:
      ctx.cov(210);
      if (!adapter_up_) return err::kEINVAL;
      adapter_up_ = false;
      ctx.kfree(codec_buf_, "hci_dev_down");
      codec_buf_ = kNullHeapPtr;
      codec_count_ = codec_capacity_ = 0;
      ctx.cov(211);
      return 0;
    case kIocDevReset:
      ctx.cov(220);
      if (!adapter_up_) return err::kEINVAL;
      event_mask_ = 0;
      ctx.cov(221);
      return 0;
    case kIocDevInfo:
      ctx.cov(230);
      put_u32(out, adapter_up_ ? 1 : 0);
      put_u32(out, codec_count_);
      return 0;
    default:
      ctx.cov(2);
      return err::kENOTTY;
  }
}

void BtHciDriver::queue_cmd_complete(SockState& ss, uint16_t opcode,
                                     std::span<const uint8_t> params) {
  // HCI Event: 0x04, code 0x0e (Command Complete), plen, ncmd, opcode, ...
  std::vector<uint8_t> ev{0x04, 0x0e,
                          static_cast<uint8_t>(3 + params.size()), 0x01};
  ev.push_back(static_cast<uint8_t>(opcode & 0xff));
  ev.push_back(static_cast<uint8_t>(opcode >> 8));
  ev.insert(ev.end(), params.begin(), params.end());
  ss.events.push_back(std::move(ev));
}

int64_t BtHciDriver::sendmsg_impl(DriverCtx& ctx, File& f,
                             std::span<const uint8_t> pkt) {
  auto* ss = f.state<SockState>();
  if (ss == nullptr) return err::kEINVAL;
  ctx.cov(300);
  if (!ss->bound) {
    ctx.cov(301);
    return err::kEINVAL;
  }
  if (!adapter_up_) {
    ctx.cov(302);
    return err::kENODEV;
  }
  // Packet framing: [0x01 type][opcode lo][opcode hi][plen][params...].
  if (pkt.size() < 4 || pkt[0] != 0x01) {
    ctx.cov(303);
    return err::kEINVAL;
  }
  const uint16_t opcode = static_cast<uint16_t>(pkt[1] | (pkt[2] << 8));
  const uint8_t plen = pkt[3];
  if (pkt.size() < 4u + plen) {
    ctx.cov(304);
    return err::kEINVAL;
  }
  ++cmds_handled_;
  return handle_command(ctx, *ss, opcode, pkt.subspan(4, plen));
}

int64_t BtHciDriver::handle_command(DriverCtx& ctx, SockState& ss,
                                    uint16_t opcode,
                                    std::span<const uint8_t> params) {
  switch (opcode) {
    case kOpSetEventMask: {
      ctx.cov(400);
      if (params.size() < 8) {
        ctx.cov(401);
        return err::kEINVAL;
      }
      event_mask_ = le_u64(params, 0);
      // Distinct controller config paths per enabled event class.
      for (uint32_t bit = 0; bit < 16; ++bit) {
        if (event_mask_ & (1ull << bit)) ctx.covp(41, bit);
      }
      queue_cmd_complete(ss, opcode, std::array<uint8_t, 1>{0x00});
      return 0;
    }
    case kOpReset:
      ctx.cov(410);
      event_mask_ = 0;
      queue_cmd_complete(ss, opcode, std::array<uint8_t, 1>{0x00});
      return 0;
    case kOpReadLocalVersion: {
      ctx.cov(420);
      std::array<uint8_t, 5> v{0x00, 0x0c, 0x00, 0x0c, 0x00};  // BT 5.3
      queue_cmd_complete(ss, opcode, v);
      return 0;
    }
    case kOpReadBdAddr: {
      ctx.cov(430);
      std::array<uint8_t, 7> v{0x00, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff};
      queue_cmd_complete(ss, opcode, v);
      return 0;
    }
    case kOpInquiry:
      ctx.cov(440);
      if (params.size() < 5) {
        ctx.cov(441);
        return err::kEINVAL;
      }
      ctx.covp(44, params[3] % 16);  // inquiry length paths
      queue_cmd_complete(ss, opcode, std::array<uint8_t, 1>{0x00});
      return 0;
    case kOpVsSetCodecTable: {
      // params: [count][count * 4-byte codec descriptors]
      ctx.cov(450);
      if (!vendor_unlocked_) {
        // Vendor commands are only accepted after the init sequence has
        // configured the transport (VS_SET_BAUDRATE), as on real firmware.
        ctx.cov(454);
        return err::kEPERM;
      }
      if (params.empty()) {
        ctx.cov(451);
        return err::kEINVAL;
      }
      const uint8_t count = params[0];
      if (count == 0) {
        ctx.cov(452);
        return err::kEINVAL;
      }
      if (!bugs_.codec_oob && count > codec_capacity_) {
        // Fixed firmware rejects counts above the allocated capability.
        ctx.cov(453);
        return err::kEINVAL;
      }
      // Vendor bug: count is stored unchecked; only capacity entries are
      // actually written (the rest "come from firmware" later).
      const uint32_t to_write =
          std::min<uint32_t>(count, codec_capacity_);
      for (uint32_t i = 0; i < to_write; ++i) {
        uint8_t entry[4] = {static_cast<uint8_t>(i), 0, 0, 0};
        if (1 + i * 4 + 4 <= params.size()) {
          std::copy_n(params.begin() + 1 + i * 4, 4, entry);
        }
        ctx.mem_write(codec_buf_, i * 4, entry, "hci_vs_set_codec_table");
      }
      codec_count_ = count;
      ctx.covp(45, count % 16);
      queue_cmd_complete(ss, opcode, std::array<uint8_t, 1>{0x00});
      return 0;
    }
    case kOpVsSetBaudrate: {
      ctx.cov(460);
      if (params.size() < 4) return err::kEINVAL;
      const uint32_t baud = le_u32(params, 0);
      // Only the transport rates the vendor firmware supports are accepted;
      // anything else NAKs and leaves vendor commands locked.
      if (baud != 115200 && baud != 921600 && baud != 1500000 &&
          baud != 2000000 && baud != 3000000) {
        ctx.cov(461);
        return err::kEINVAL;
      }
      vendor_unlocked_ = true;
      ctx.covp(46, baud % 8);
      queue_cmd_complete(ss, opcode, std::array<uint8_t, 1>{0x00});
      return 0;
    }
    case kOpReadCodecs: {
      ctx.cov(500);
      std::vector<uint8_t> reply{0x00, static_cast<uint8_t>(codec_count_)};
      // Walks codec_count_ entries; with the vendor bug a count > capacity
      // walks past the allocation into unmapped firmware shared memory ->
      // "KASAN: invalid-access in hci_read_supported_codecs".
      for (uint32_t i = 0; i < codec_count_; ++i) {
        uint8_t entry[4] = {0, 0, 0, 0};
        if (codec_buf_ == kNullHeapPtr || (i + 1) * 4 > codec_capacity_ * 4) {
          ctx.cov(501);
          ctx.kasan_report("invalid-access", "hci_read_supported_codecs",
                           "codec index beyond firmware capability table");
          return err::kEFAULT;
        }
        ctx.mem_read(codec_buf_, i * 4, entry, "hci_read_supported_codecs");
        reply.push_back(entry[0]);
      }
      ctx.covp(51, codec_count_ % 8);
      queue_cmd_complete(ss, opcode, reply);
      return 0;
    }
    default:
      ctx.cov(340);
      return err::kEOPNOTSUPP;
  }
}

int64_t BtHciDriver::recvmsg(DriverCtx& ctx, File& f, size_t,
                             std::vector<uint8_t>& out) {
  auto* ss = f.state<SockState>();
  if (ss == nullptr) return err::kEINVAL;
  ctx.cov(600);
  if (ss->events.empty()) {
    ctx.cov(601);
    return err::kEAGAIN;
  }
  out = std::move(ss->events.front());
  ss->events.erase(ss->events.begin());
  ctx.cov(602);
  return static_cast<int64_t>(out.size());
}

void BtHciDriver::release(DriverCtx& ctx, File&) {
  ctx.cov(130);
}

void BtHciDriver::state(StateArchive& ar) {
  ar.b(adapter_up_);
  ar.u64(event_mask_);
  ar.u64(codec_buf_);
  ar.u32(codec_count_);
  ar.u32(codec_capacity_);
  ar.u32(cmds_handled_);
  ar.b(vendor_unlocked_);
}

void BtHciDriver::file_state(File& f, StateArchive& ar) {
  ar.optional<SockState>(f.priv, [&](SockState& ss) {
    ar.b(ss.bound);
    ar.seq(ss.events, [&](std::vector<uint8_t>& ev) { ar.blob(ev); });
  });
}

}  // namespace df::kernel::drivers
