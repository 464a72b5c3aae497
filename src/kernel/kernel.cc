#include "kernel/kernel.h"

#include "util/log.h"

namespace df::kernel {

const char* sys_name(Sys nr) {
  switch (nr) {
    case Sys::kOpenAt: return "openat";
    case Sys::kClose: return "close";
    case Sys::kRead: return "read";
    case Sys::kWrite: return "write";
    case Sys::kIoctl: return "ioctl";
    case Sys::kMmap: return "mmap";
    case Sys::kMunmap: return "munmap";
    case Sys::kLseek: return "lseek";
    case Sys::kFcntl: return "fcntl";
    case Sys::kDup: return "dup";
    case Sys::kSocket: return "socket";
    case Sys::kBind: return "bind";
    case Sys::kConnect: return "connect";
    case Sys::kListen: return "listen";
    case Sys::kAccept: return "accept";
    case Sys::kSetsockopt: return "setsockopt";
    case Sys::kGetsockopt: return "getsockopt";
    case Sys::kSendmsg: return "sendmsg";
    case Sys::kRecvmsg: return "recvmsg";
    case Sys::kPoll: return "poll";
    case Sys::kFsync: return "fsync";
    case Sys::kCount: break;
  }
  return "?";
}

Kernel::Kernel(KernelConfig cfg)
    : cfg_(std::move(cfg)), rng_(cfg_.seed), dmesg_(), kasan_(dmesg_) {}

Kernel::~Kernel() = default;

Driver& Kernel::register_driver(std::unique_ptr<Driver> drv) {
  drv->driver_id_ = static_cast<uint16_t>(drivers_.size() + 1);  // 0 == core
  drivers_.push_back(std::move(drv));
  return *drivers_.back();
}

void Kernel::boot() {
  registry_.clear();
  Task boot_task;
  boot_task.id = 0;
  boot_task.origin = TaskOrigin::kKernel;
  boot_task.name = "kworker/boot";
  for (auto& drv : drivers_) {
    for (auto& node : drv->nodes()) registry_.add_node(node, drv.get());
    for (auto& triple : drv->socket_protos())
      registry_.add_socket(triple, drv.get());
    drv->state_machine_boot();
    DriverCtx ctx(*this, boot_task, *drv);
    drv->probe(ctx);
  }
  booted_ = true;
}

void Kernel::reboot() {
  // Close every task's open files without running release hooks against
  // half-dead driver state; drivers reset wholesale below.
  for (auto& [tid, task] : tasks_) task->fds.clear();
  for (auto& drv : drivers_) drv->reset();
  kasan_.reset();
  mappings_.clear();
  dmesg_.clear_panic();
  ++reboot_count_;
  boot();
}

TaskId Kernel::create_task(TaskOrigin origin, std::string name) {
  auto t = std::make_unique<Task>();
  t->id = next_task_++;
  t->origin = origin;
  t->name = std::move(name);
  const TaskId id = t->id;
  tasks_.emplace(id, std::move(t));
  return id;
}

void Kernel::exit_task(TaskId tid) {
  auto it = tasks_.find(tid);
  if (it == tasks_.end()) return;
  Task& task = *it->second;
  for (auto& f : task.fds.clear()) {
    if (f.use_count() == 1) close_file(task, f);
  }
  task.alive = false;
  tasks_.erase(it);
}

Task* Kernel::task(TaskId tid) {
  auto it = tasks_.find(tid);
  return it == tasks_.end() ? nullptr : it->second.get();
}

void Kernel::kcov_enable(TaskId tid) {
  if (Task* t = task(tid)) t->kcov.enable();
}

void Kernel::kcov_disable(TaskId tid) {
  if (Task* t = task(tid)) t->kcov.disable();
}

std::vector<uint64_t> Kernel::kcov_collect(TaskId tid) {
  Task* t = task(tid);
  return t ? t->kcov.collect() : std::vector<uint64_t>{};
}

void Kernel::kcov_collect_into(TaskId tid, std::vector<uint64_t>& out) {
  if (Task* t = task(tid)) t->kcov.collect_into(out);
}

int Kernel::attach_tracepoint(Tracepoint hook) {
  const int id = next_tp_++;
  tracepoints_.emplace(id, std::move(hook));
  return id;
}

void Kernel::detach_tracepoint(int id) { tracepoints_.erase(id); }

Driver* Kernel::find_driver(std::string_view name) const {
  for (const auto& d : drivers_) {
    if (d->name() == name) return d.get();
  }
  return nullptr;
}

Kernel::Cursors Kernel::cursors() const {
  Cursors c;
  c.rng = rng_.state();
  c.reboot_count = reboot_count_;
  c.syscall_count = syscall_count_;
  c.next_map = next_map_;
  c.next_task = next_task_;
  c.heap_next = kasan_.heap().next_handle();
  return c;
}

void Kernel::restore_cursors(const Cursors& c) {
  rng_.set_state(c.rng);
  reboot_count_ = c.reboot_count;
  syscall_count_ = c.syscall_count;
  next_map_ = c.next_map;
  next_task_ = c.next_task;
  kasan_.heap().set_next_handle(c.heap_next);
}

void Kernel::live_state(StateArchive& ar) {
  util::RngState rs = rng_.state();
  for (uint64_t& word : rs.s) ar.u64(word);
  if (ar.loading()) rng_.set_state(rs);
  ar.u64(next_map_);
  ar.map(mappings_, [&](uint64_t& v) { ar.u64(v); });
}

void Kernel::task_files(TaskId tid, StateArchive& ar) {
  Task* t = task(tid);
  if (ar.loading()) {
    if (t == nullptr) return ar.fail("no task " + std::to_string(tid));
    // Drop the current table without release hooks (the drivers are
    // restored wholesale by the same snapshot, exactly as in reboot()).
    t->fds.clear();
  }
  // Unique File descriptions in first-appearance fd order (fds() iterates
  // the sorted fd map, so this order is deterministic), then fd -> index.
  std::vector<std::shared_ptr<File>> files;
  std::vector<std::pair<int32_t, uint32_t>> table;
  if (!ar.loading() && t != nullptr) {
    for (const int32_t fd : t->fds.fds()) {
      std::shared_ptr<File> f = t->fds.get(fd);
      uint32_t idx = 0;
      while (idx < files.size() && files[idx] != f) ++idx;
      if (idx == files.size()) files.push_back(std::move(f));
      table.emplace_back(fd, idx);
    }
  }
  ar.seq(files, [&](std::shared_ptr<File>& f) {
    if (f == nullptr) f = std::make_shared<File>();
    uint16_t didx = 0;
    while (didx < drivers_.size() && drivers_[didx].get() != f->drv) ++didx;
    ar.u16(didx);
    if (ar.loading()) {
      if (didx >= drivers_.size()) {
        return ar.fail("file driver index " + std::to_string(didx) +
                       " out of range");
      }
      f->drv = drivers_[didx].get();
    }
    ar.str(f->path);
    ar.u64(f->flags);
    ar.u64(f->pos);
    ar.b(f->is_sock);
    ar.u64(f->sock_type);
    ar.u64(f->sock_proto);
    ar.nested([&](StateArchive& inner) {
      if (f->drv != nullptr) f->drv->file_state(*f, inner);
    });
  });
  ar.seq(table, [&](std::pair<int32_t, uint32_t>& e) {
    ar.i32(e.first);
    ar.u32(e.second);
  });
  int32_t next_fd = t != nullptr ? t->fds.next_fd() : 3;
  ar.i32(next_fd);
  if (!ar.loading() || !ar.ok()) return;
  for (const auto& [fd, idx] : table) {
    if (idx >= files.size()) {
      return ar.fail("fd " + std::to_string(fd) + " names file " +
                     std::to_string(idx) + " of " +
                     std::to_string(files.size()));
    }
    t->fds.restore_install(fd, files[idx]);
  }
  // Every saved File has an fd. One without would be freed right here
  // while a driver side table may already point into it (l2cap listeners).
  for (const auto& f : files) {
    if (f.use_count() == 1) return ar.fail("file without an fd");
  }
  t->fds.set_next_fd(next_fd);
}

void Kernel::close_file(Task& task, const std::shared_ptr<File>& f) {
  if (f && f->drv) {
    DriverCtx ctx(*this, task, *f->drv);
    f->drv->release(ctx, *f);
  }
}

namespace {
// Outcome class for core-kernel path coverage: success and common errno
// families take distinct syscall-entry blocks.
uint64_t outcome_class(int64_t ret) {
  if (ret >= 0) return 0;
  switch (ret) {
    case err::kEBADF: return 1;
    case err::kEINVAL: return 2;
    case err::kENOTTY: return 3;
    case err::kENOENT: return 4;
    case err::kEOPNOTSUPP: return 5;
    default: return 6;
  }
}
}  // namespace

SyscallRes Kernel::syscall(TaskId tid, const SyscallReq& req) {
  Task* t = task(tid);
  if (t == nullptr || !booted_) return {err::kEPERM, {}};
  ++syscall_count_;
  SyscallRes res = dispatch(*t, req);
  // Core-kernel syscall entry/exit path coverage (driver_id 0).
  t->kcov.hit(
      cov_feature(0, static_cast<uint64_t>(req.nr) * 8 + outcome_class(res.ret)));
  for (auto& [id, hook] : tracepoints_) hook(*t, req, res);
  return res;
}

SyscallRes Kernel::dispatch(Task& task, const SyscallReq& req) {
  SyscallRes res;
  // `op` names the driver handler for the driver-op hook; nullptr marks
  // core-kernel paths (lseek/fcntl/fsync) that never enter driver code.
  auto with_file = [&](const char* op, auto&& fn) {
    std::shared_ptr<File> f = task.fds.get(req.fd);
    if (!f) {
      res.ret = err::kEBADF;
      return;
    }
    DriverCtx ctx(*this, task, *f->drv);
    const bool hooked = op != nullptr && driver_op_hook_ != nullptr;
    if (hooked) driver_op_hook_(f->drv->name(), op, true);
    res.ret = fn(ctx, *f);
    if (hooked) driver_op_hook_(f->drv->name(), op, false);
  };

  switch (req.nr) {
    case Sys::kOpenAt: {
      Driver* drv = registry_.resolve(req.path);
      if (drv == nullptr) {
        res.ret = err::kENOENT;
        break;
      }
      auto f = std::make_shared<File>();
      f->drv = drv;
      f->path = req.path;
      f->flags = req.arg;
      DriverCtx ctx(*this, task, *drv);
      if (driver_op_hook_) driver_op_hook_(drv->name(), "open", true);
      const int64_t rc = drv->open(ctx, *f);
      if (driver_op_hook_) driver_op_hook_(drv->name(), "open", false);
      if (rc < 0) {
        res.ret = rc;
        break;
      }
      res.ret = task.fds.install(std::move(f));
      break;
    }
    case Sys::kClose: {
      std::shared_ptr<File> f = task.fds.remove(req.fd);
      if (!f) {
        res.ret = err::kEBADF;
        break;
      }
      if (f.use_count() == 1) close_file(task, f);
      res.ret = 0;
      break;
    }
    case Sys::kDup: {
      std::shared_ptr<File> f = task.fds.get(req.fd);
      if (!f) {
        res.ret = err::kEBADF;
        break;
      }
      res.ret = task.fds.install(std::move(f));
      break;
    }
    case Sys::kRead:
      with_file("read", [&](DriverCtx& ctx, File& f) {
        return f.drv->read(ctx, f, req.size, res.out);
      });
      break;
    case Sys::kWrite:
      with_file("write", [&](DriverCtx& ctx, File& f) {
        return f.drv->write(ctx, f, req.data);
      });
      break;
    case Sys::kIoctl:
      with_file("ioctl", [&](DriverCtx& ctx, File& f) {
        return f.drv->ioctl(ctx, f, req.arg, req.data, res.out);
      });
      break;
    case Sys::kMmap:
      with_file("mmap", [&](DriverCtx& ctx, File& f) -> int64_t {
        const int64_t rc = f.drv->mmap(ctx, f, req.size, req.arg);
        if (rc < 0) return rc;
        const uint64_t handle = next_map_;
        next_map_ += 0x1000;
        mappings_.emplace(handle, static_cast<uint64_t>(rc));
        return static_cast<int64_t>(handle);
      });
      break;
    case Sys::kMunmap:
      res.ret = mappings_.erase(req.arg) ? 0 : err::kEINVAL;
      break;
    case Sys::kLseek:
      with_file(nullptr, [&](DriverCtx&, File& f) -> int64_t {
        f.pos = req.arg;
        return static_cast<int64_t>(f.pos);
      });
      break;
    case Sys::kFcntl:
      with_file(nullptr, [&](DriverCtx&, File& f) -> int64_t {
        if (req.arg == 1 /*F_GETFL*/) return static_cast<int64_t>(f.flags);
        if (req.arg == 2 /*F_SETFL*/) {
          f.flags = req.arg2;
          return 0;
        }
        return err::kEINVAL;
      });
      break;
    case Sys::kFsync:
      with_file(nullptr, [&](DriverCtx&, File&) -> int64_t { return 0; });
      break;
    case Sys::kPoll:
      with_file("poll", [&](DriverCtx& ctx, File& f) {
        return f.drv->poll(ctx, f, req.arg);
      });
      break;
    case Sys::kSocket: {
      Driver* drv = registry_.resolve_socket(req.arg, req.arg2, req.arg3);
      if (drv == nullptr) {
        res.ret = err::kEINVAL;
        break;
      }
      auto f = std::make_shared<File>();
      f->drv = drv;
      f->is_sock = true;
      f->sock_type = req.arg2;
      f->sock_proto = req.arg3;
      f->path = "sock:" + std::to_string(req.arg) + ":" +
                std::to_string(req.arg3);
      DriverCtx ctx(*this, task, *drv);
      if (driver_op_hook_) driver_op_hook_(drv->name(), "socket", true);
      const int64_t rc = drv->sock_create(ctx, *f);
      if (driver_op_hook_) driver_op_hook_(drv->name(), "socket", false);
      if (rc < 0) {
        res.ret = rc;
        break;
      }
      res.ret = task.fds.install(std::move(f));
      break;
    }
    case Sys::kBind:
      with_file("bind", [&](DriverCtx& ctx, File& f) -> int64_t {
        if (!f.is_sock) return err::kEOPNOTSUPP;
        return f.drv->bind(ctx, f, req.data);
      });
      break;
    case Sys::kConnect:
      with_file("connect", [&](DriverCtx& ctx, File& f) -> int64_t {
        if (!f.is_sock) return err::kEOPNOTSUPP;
        return f.drv->connect(ctx, f, req.data);
      });
      break;
    case Sys::kListen:
      with_file("listen", [&](DriverCtx& ctx, File& f) -> int64_t {
        if (!f.is_sock) return err::kEOPNOTSUPP;
        return f.drv->listen(ctx, f, req.arg);
      });
      break;
    case Sys::kAccept: {
      std::shared_ptr<File> f = task.fds.get(req.fd);
      if (!f) {
        res.ret = err::kEBADF;
        break;
      }
      if (!f->is_sock) {
        res.ret = err::kEOPNOTSUPP;
        break;
      }
      auto child = std::make_shared<File>();
      child->drv = f->drv;
      child->is_sock = true;
      child->sock_type = f->sock_type;
      child->sock_proto = f->sock_proto;
      child->path = f->path + ":accepted";
      DriverCtx ctx(*this, task, *f->drv);
      if (driver_op_hook_) driver_op_hook_(f->drv->name(), "accept", true);
      const int64_t rc = f->drv->accept(ctx, *f, *child);
      if (driver_op_hook_) driver_op_hook_(f->drv->name(), "accept", false);
      if (rc < 0) {
        res.ret = rc;
        break;
      }
      res.ret = task.fds.install(std::move(child));
      break;
    }
    case Sys::kSetsockopt:
      with_file("setsockopt", [&](DriverCtx& ctx, File& f) -> int64_t {
        if (!f.is_sock) return err::kEOPNOTSUPP;
        return f.drv->setsockopt(ctx, f, req.arg, req.arg2, req.data);
      });
      break;
    case Sys::kGetsockopt:
      with_file("getsockopt", [&](DriverCtx& ctx, File& f) -> int64_t {
        if (!f.is_sock) return err::kEOPNOTSUPP;
        return f.drv->getsockopt(ctx, f, req.arg, req.arg2, res.out);
      });
      break;
    case Sys::kSendmsg:
      with_file("sendmsg", [&](DriverCtx& ctx, File& f) -> int64_t {
        if (!f.is_sock) return err::kEOPNOTSUPP;
        return f.drv->sendmsg(ctx, f, req.data);
      });
      break;
    case Sys::kRecvmsg:
      with_file("recvmsg", [&](DriverCtx& ctx, File& f) -> int64_t {
        if (!f.is_sock) return err::kEOPNOTSUPP;
        return f.drv->recvmsg(ctx, f, req.size, res.out);
      });
      break;
    case Sys::kCount:
      res.ret = err::kEINVAL;
      break;
  }
  return res;
}

}  // namespace df::kernel
