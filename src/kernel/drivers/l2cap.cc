#include "kernel/drivers/l2cap.h"

namespace df::kernel::drivers {

// Block map: 1xx create/bind, 2xx connect, 3xx listen/accept, 4xx sockopt,
// 5xx send, 6xx recv, 7xx release.

void L2capDriver::probe(DriverCtx& ctx) {
  ctx.cov(100);
}

void L2capDriver::reset() {
  listeners_.clear();
  bound_.clear();
}

int64_t L2capDriver::sock_create(DriverCtx& ctx, File& f) {
  ctx.cov(110);
  f.make_state<SockState>();
  return 0;
}

int64_t L2capDriver::bind(DriverCtx& ctx, File& f,
                          std::span<const uint8_t> addr) {
  auto* ss = f.state<SockState>();
  if (ss == nullptr) return err::kEINVAL;
  ctx.cov(120);
  if (addr.size() < 2) {
    ctx.cov(121);
    return err::kEINVAL;
  }
  const uint16_t psm = le_u16(addr, 0);
  if ((psm & 1) == 0 || psm >= 0x1000) {
    // Valid dynamic PSMs are odd and below 0x1000.
    ctx.cov(122);
    return err::kEINVAL;
  }
  if (ss->st != Chan::kClosed) {
    ctx.cov(123);
    return err::kEINVAL;
  }
  if (bound_.count(psm) != 0) {
    ctx.cov(124);
    return err::kEADDRINUSE;
  }
  ++bound_[psm];
  ss->psm = psm;
  ss->st = Chan::kBound;
  track_chan(ss->st);
  ctx.covp(13, psm % 32);  // PSM hash-bucket paths
  return 0;
}

int64_t L2capDriver::connect(DriverCtx& ctx, File& f,
                             std::span<const uint8_t> addr) {
  auto* ss = f.state<SockState>();
  if (ss == nullptr) return err::kEINVAL;
  ctx.cov(200);
  if (addr.size() < 2) {
    ctx.cov(201);
    return err::kEINVAL;
  }
  if (ss->st != Chan::kClosed && ss->st != Chan::kBound) {
    ctx.cov(202);
    return err::kEBUSY;
  }
  const uint16_t psm = le_u16(addr, 0);
  auto it = listeners_.find(psm);
  if (it != listeners_.end() && it->second->pending < it->second->backlog) {
    // Local loopback connection: queue on the listener, move to CONFIG.
    ++it->second->pending;
    ss->st = Chan::kConfig;
    track_chan(ss->st);
    ss->psm = psm;
    ctx.covp(21, psm % 16);
    return 0;
  }
  // Remote peer: the response never arrives in this simulation, so the
  // channel sits in CONNECTING — exactly the window for bug #8.
  ss->st = Chan::kConnecting;
  track_chan(ss->st);
  ss->psm = psm;
  ctx.cov(220);
  return 0;
}

int64_t L2capDriver::listen(DriverCtx& ctx, File& f, uint64_t backlog) {
  auto* ss = f.state<SockState>();
  if (ss == nullptr) return err::kEINVAL;
  ctx.cov(300);
  if (ss->st != Chan::kBound) {
    ctx.cov(301);
    return err::kEINVAL;
  }
  if (backlog == 0 || backlog > 8) {
    ctx.cov(302);
    return err::kEINVAL;
  }
  ss->backlog = static_cast<uint32_t>(backlog);
  ss->accept_q = ctx.kmalloc(ss->backlog * 16, "l2cap:accept_q");
  ss->st = Chan::kListening;
  track_chan(ss->st);
  listeners_[ss->psm] = ss;
  ctx.covp(31, backlog);
  return 0;
}

int64_t L2capDriver::accept(DriverCtx& ctx, File& listener, File& child) {
  auto* ls = listener.state<SockState>();
  if (ls == nullptr) return err::kEINVAL;
  ctx.cov(310);
  if (ls->st != Chan::kListening) {
    ctx.cov(311);
    return err::kEINVAL;
  }
  if (ls->pending == 0) {
    ctx.cov(312);
    return err::kEAGAIN;
  }
  --ls->pending;
  auto* cs = child.make_state<SockState>();
  cs->st = Chan::kConnected;
  track_chan(cs->st);
  cs->psm = ls->psm;
  if (bugs_.accept_unlink_uaf) {
    // Vendor bug: the child stays linked into the parent's accept queue
    // after accept(); unlink happens lazily at child close.
    cs->parent_q = ls->accept_q;
  }
  ctx.cov(313);
  ctx.covp(35, cs->psm % 16);  // per-PSM child setup paths
  return 0;
}

int64_t L2capDriver::setsockopt(DriverCtx& ctx, File& f, uint64_t level,
                                uint64_t opt, std::span<const uint8_t> in) {
  auto* ss = f.state<SockState>();
  if (ss == nullptr) return err::kEINVAL;
  ctx.cov(400);
  if (level != 6 /*SOL_L2CAP*/) {
    ctx.cov(401);
    return err::kEOPNOTSUPP;
  }
  switch (opt) {
    case 1: {  // L2CAP_OPTIONS: mtu
      const uint32_t mtu = le_u32(in, 0);
      if (mtu < 48 || mtu > 65535) {
        ctx.cov(402);
        return err::kEINVAL;
      }
      ss->mtu = mtu;
      ctx.covp(41, mtu / 4096);
      return 0;
    }
    case 2: {  // channel mode
      const uint32_t mode = le_u32(in, 0);
      if (mode > 3) {
        ctx.cov(403);
        return err::kEINVAL;
      }
      ctx.covp(42, mode);
      return 0;
    }
    default:
      ctx.cov(404);
      return err::kEINVAL;
  }
}

int64_t L2capDriver::sendmsg(DriverCtx& ctx, File& f,
                             std::span<const uint8_t> data) {
  auto* ss = f.state<SockState>();
  if (ss == nullptr) return err::kEINVAL;
  ctx.cov(500);
  if (data.empty()) {
    ctx.cov(501);
    return err::kEINVAL;
  }
  const uint8_t op = data[0];
  switch (op) {
    case kCtlConfigReq:
      ctx.cov(510);
      if (ss->st != Chan::kConfig) {
        ctx.cov(511);
        return err::kEINVAL;
      }
      if (data.size() >= 5) {
        const uint32_t mtu = le_u32(data, 1);
        if (mtu >= 48 && mtu <= 65535) ss->mtu = mtu;  // else keep default
      }
      ss->st = Chan::kConnected;
      track_chan(ss->st);
      ctx.cov(512);
      return 0;
    case kCtlDisconnReq:
      ctx.cov(520);
      if (ss->st == Chan::kConnecting) {
        // Disconnect while the connect response is outstanding: the state
        // machine has no channel to tear down yet and WARNs.
        ctx.cov(521);
        if (bugs_.disconn_warn) {
          ctx.warn("l2cap_send_disconn_req", "chan in BT_CONNECT state");
        }
        ss->st = Chan::kClosed;
        track_chan(ss->st);
        return 0;
      }
      if (ss->st == Chan::kConnected || ss->st == Chan::kConfig) {
        ctx.cov(522);
        ss->st = Chan::kClosed;
        track_chan(ss->st);
        return 0;
      }
      ctx.cov(523);
      return err::kEINVAL;
    case kCtlEchoReq:
      ctx.cov(530);
      if (ss->st != Chan::kConnected) return err::kEINVAL;
      ctx.covp(53, data.size() % 8);
      return 0;
    default:
      // Data plane.
      ctx.cov(540);
      if (ss->st != Chan::kConnected) {
        ctx.cov(541);
        return err::kEPIPE;
      }
      if (data.size() > ss->mtu) {
        ctx.cov(542);
        return err::kEINVAL;
      }
      ++ss->tx;
      ctx.covp(54, data.size() / 64);  // fragmentation paths
      return static_cast<int64_t>(data.size());
  }
}

int64_t L2capDriver::recvmsg(DriverCtx& ctx, File& f, size_t,
                             std::vector<uint8_t>& out) {
  auto* ss = f.state<SockState>();
  if (ss == nullptr) return err::kEINVAL;
  ctx.cov(600);
  if (ss->st != Chan::kConnected || ss->tx == 0) {
    ctx.cov(601);
    return err::kEAGAIN;
  }
  // Loopback echo of the last transmission's sequence number.
  put_u64(out, ss->tx);
  ctx.cov(602);
  return static_cast<int64_t>(out.size());
}

void L2capDriver::release(DriverCtx& ctx, File& f) {
  auto* ss = f.state<SockState>();
  if (ss == nullptr) return;
  ctx.cov(700);
  track_chan(Chan::kClosed);  // socket teardown closes the channel
  if (ss->st == Chan::kBound || ss->st == Chan::kListening) {
    auto it = bound_.find(ss->psm);
    if (it != bound_.end() && --it->second == 0) bound_.erase(it);
  }
  if (ss->st == Chan::kListening) {
    listeners_.erase(ss->psm);
    ctx.kfree(ss->accept_q, "l2cap_sock_release");
    ss->accept_q = kNullHeapPtr;
    ctx.cov(701);
  }
  if (ss->parent_q != kNullHeapPtr) {
    // bt_accept_unlink: drop the child from the parent's accept queue. If
    // the parent already closed, its queue is gone -> use-after-free.
    ctx.cov(702);
    ctx.covp(71, ss->psm % 16);  // per-PSM unlink paths
    ctx.mem_check(ss->parent_q, 0, 8, Access::kRead, "bt_accept_unlink");
    ss->parent_q = kNullHeapPtr;
  }
}

void L2capDriver::state(StateArchive& ar) {
  // listeners_ holds raw pointers into File priv; file_state() re-links it
  // when the listening sockets load.
  ar.map(bound_, [&](uint32_t& n) { ar.u32(n); });
}

void L2capDriver::file_state(File& f, StateArchive& ar) {
  ar.optional<SockState>(f.priv, [&](SockState& ss) {
    ar.enumeration(ss.st);
    ar.u16(ss.psm);
    ar.u32(ss.mtu);
    ar.u32(ss.backlog);
    ar.u32(ss.pending);
    ar.u64(ss.accept_q);
    ar.u64(ss.parent_q);
    ar.u64(ss.tx);
    // Re-link the adapter-global listener table (reset() just cleared it).
    if (ar.loading() && ss.st == Chan::kListening) listeners_[ss.psm] = &ss;
  });
}

}  // namespace df::kernel::drivers
