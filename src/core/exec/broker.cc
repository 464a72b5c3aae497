#include "core/exec/broker.h"

#include "hal/parcel.h"
#include "kernel/driver.h"

namespace df::core {

using dsl::ArgKind;
using dsl::CallClass;
using dsl::ProduceFrom;
using dsl::Slot;
using kernel::Sys;

Broker::Broker(device::Device& dev, const trace::SpecTable& spec)
    : dev_(dev), tracer_(dev.kernel(), spec) {
  native_task_ =
      dev_.kernel().create_task(kernel::TaskOrigin::kNative, "df_executor");
}

Broker::~Broker() { dev_.kernel().exit_task(native_task_); }

device::StateSnapshot Broker::capture_snapshot(
    const device::StateSnapshot* parent) {
  return device::capture_snapshot(dev_, native_task_, parent);
}

bool Broker::restore_snapshot(const device::StateSnapshot& snap,
                              std::string* error) {
  return device::restore_snapshot(dev_, native_task_, snap, error);
}

void Broker::attach_observability(obs::Observability* o,
                                  std::string_view label) {
  obs_ = o;
  label_ = std::string(label);
  spans_ = (o != nullptr && o->spans.enabled()) ? &o->spans : nullptr;
  if (o == nullptr) {
    h_execute_ = nullptr;
    c_programs_ = c_calls_ = c_reboots_ = nullptr;
    dev_.kernel().set_driver_op_hook(nullptr);
    return;
  }
  h_execute_ = &o->registry.histogram("phase.execute", label);
  c_programs_ = &o->registry.counter("broker.programs", label);
  c_calls_ = &o->registry.counter("broker.calls", label);
  c_reboots_ = &o->registry.counter("broker.reboots", label);
  if (spans_ != nullptr) {
    // Driver-handler spans: the kernel cannot link obs, so it calls back
    // into the broker, which owns the open-span id stack for nested ops.
    dev_.kernel().set_driver_op_hook(
        [this](std::string_view driver, const char* op, bool enter) {
          if (enter) {
            std::string name = "driver:";
            name += driver;
            name += '.';
            name += op;
            op_spans_.push_back(spans_->begin(name, label_, executions_));
          } else if (!op_spans_.empty()) {
            spans_->end(op_spans_.back());
            op_spans_.pop_back();
          }
        });
  } else {
    dev_.kernel().set_driver_op_hook(nullptr);
  }
}

uint64_t Broker::resolve(const std::vector<uint64_t>& results,
                         const dsl::Value& v) {
  if (v.ref == dsl::Value::kNoRef) return 0;
  const auto idx = static_cast<size_t>(v.ref);
  return idx < results.size() ? results[idx] : 0;
}

int64_t Broker::run_syscall(const dsl::Call& call,
                            const std::vector<uint64_t>& results,
                            uint64_t& produced) {
  const dsl::CallDesc& d = *call.desc;
  kernel::SyscallReq req;
  req.nr = static_cast<Sys>(d.sys_nr);
  req.arg = d.fixed_arg;
  req.arg2 = d.fixed_arg2;
  req.arg3 = d.fixed_arg3;
  req.path = d.path;
  req.fd = -1;

  for (size_t i = 0; i < call.args.size() && i < d.params.size(); ++i) {
    const dsl::ParamDesc& p = d.params[i];
    const dsl::Value& v = call.args[i];
    switch (p.slot) {
      case Slot::kFd: {
        const uint64_t fd = resolve(results, v);
        req.fd = v.ref == dsl::Value::kNoRef ? -1
                                             : static_cast<int32_t>(fd);
        break;
      }
      case Slot::kSize:
        req.size = static_cast<size_t>(v.scalar);
        break;
      case Slot::kArg:
        req.arg = v.scalar;
        break;
      case Slot::kPayload:
        switch (p.kind) {
          case ArgKind::kU8:
            req.data.push_back(static_cast<uint8_t>(v.scalar));
            break;
          case ArgKind::kU16:
            kernel::put_u16(req.data, static_cast<uint16_t>(v.scalar));
            break;
          case ArgKind::kU32:
          case ArgKind::kEnum:
          case ArgKind::kFlags:
          case ArgKind::kBool:
            kernel::put_u32(req.data, static_cast<uint32_t>(v.scalar));
            break;
          case ArgKind::kU64:
            kernel::put_u64(req.data, v.scalar);
            break;
          case ArgKind::kString:
          case ArgKind::kBlob:
            req.data.insert(req.data.end(), v.bytes.begin(), v.bytes.end());
            break;
          case ArgKind::kHandle:
            kernel::put_u32(req.data,
                            static_cast<uint32_t>(resolve(results, v)));
            break;
        }
        break;
    }
  }

  const kernel::SyscallRes res = dev_.kernel().syscall(native_task_, req);
  switch (d.produce_from) {
    case ProduceFrom::kRet:
      produced = res.ret >= 0 ? static_cast<uint64_t>(res.ret) : 0;
      break;
    case ProduceFrom::kOutU32:
      produced = res.out.size() >= 4 ? kernel::le_u32(res.out, 0) : 0;
      break;
    default:
      break;
  }
  return res.ret;
}

int64_t Broker::run_hal(const dsl::Call& call,
                        const std::vector<uint64_t>& results,
                        uint64_t& produced) {
  const dsl::CallDesc& d = *call.desc;
  hal::Parcel parcel;
  for (size_t i = 0; i < call.args.size() && i < d.params.size(); ++i) {
    const dsl::ParamDesc& p = d.params[i];
    const dsl::Value& v = call.args[i];
    switch (p.kind) {
      case ArgKind::kU8:
      case ArgKind::kU16:
      case ArgKind::kU32:
      case ArgKind::kEnum:
      case ArgKind::kFlags:
      case ArgKind::kBool:
        parcel.write_u32(static_cast<uint32_t>(v.scalar));
        break;
      case ArgKind::kU64:
        parcel.write_u64(v.scalar);
        break;
      case ArgKind::kString:
        parcel.write_string(std::string_view(
            reinterpret_cast<const char*>(v.bytes.data()), v.bytes.size()));
        break;
      case ArgKind::kBlob:
        parcel.write_blob(v.bytes);
        break;
      case ArgKind::kHandle:
        parcel.write_u32(static_cast<uint32_t>(resolve(results, v)));
        break;
    }
  }
  hal::TxResult res =
      dev_.service_manager().call(d.service, d.method_code, parcel);
  if (res.status == hal::kStatusOk &&
      d.produce_from == ProduceFrom::kReplyU32) {
    res.reply.rewind();
    const uint32_t h = res.reply.read_u32();
    if (res.reply.ok()) produced = h;
  }
  return res.status;
}

std::vector<obs::DriverStateCoverage> snapshot_driver_states(
    const kernel::Kernel& k) {
  std::vector<obs::DriverStateCoverage> out;
  for (const auto& d : k.drivers()) {
    obs::DriverStateCoverage c;
    c.driver = std::string(d->name());
    c.states = d->state_names();
    c.current = d->current_state();
    c.visits = d->state_visits();
    c.matrix = d->state_matrix();
    out.push_back(std::move(c));
  }
  return out;
}

ExecResult Broker::execute(const dsl::Program& prog, const ExecOptions& opt) {
  if (fault_ == nullptr) return execute_attempt(prog, opt);

  // Resilient transport loop: one fault decision per attempt. Transport
  // errors are retried with exponential (virtual) backoff up to the policy
  // bound; hangs blow the per-call deadline and spontaneous reboots kill
  // the device outright — both wipe kernel + HAL state, invalidate fds,
  // reset coverage buffers, and lose the execution.
  FaultTotals& t = fault_->totals();
  for (uint32_t attempt = 0;; ++attempt) {
    const device::FaultKind f = fault_->plan().next();
    if (f == device::FaultKind::kNone) {
      ExecResult out = execute_attempt(prog, opt);
      out.retries = attempt;
      if (attempt > 0) out.fault = device::FaultKind::kTransportError;
      return out;
    }
    ++t.injected;
    if (f == device::FaultKind::kTransportError &&
        attempt < fault_->policy().max_retries) {
      ++t.transport_errors;
      ++t.retries;
      t.recovery_virtual_us += fault_->backoff_us(attempt);
      continue;
    }
    // Lost execution: retries exhausted, or the device died under us.
    ExecResult out;
    out.fault = f;
    out.transport_error = true;
    out.retries = attempt;
    ++t.lost_execs;
    if (f == device::FaultKind::kTransportError) {
      ++t.transport_errors;
    } else {
      if (f == device::FaultKind::kHang) {
        ++t.hangs;
        t.recovery_virtual_us += fault_->policy().hang_timeout_us;
      }
      ++t.reboots;
      t.recovery_virtual_us += fault_->policy().reboot_cost_us;
      dev_.reboot();
      out.rebooted = true;
      if (obs_ != nullptr) c_reboots_->inc();
    }
    return out;
  }
}

ExecResult Broker::execute_attempt(const dsl::Program& prog,
                                   const ExecOptions& opt) {
  const obs::ScopedTimer timer(h_execute_);
  ExecResult out;
  ++executions_;
  const obs::ScopedSpan exec_span(spans_, "phase:execute", label_,
                                  executions_);
  auto& k = dev_.kernel();

  // Arm feedback collection.
  tracer_.begin_execution();
  if (opt.collect_cov) {
    k.kcov_enable(native_task_);
    for (const auto& svc : dev_.services()) k.kcov_enable(svc->task());
  }
  const uint64_t dmesg_from = k.dmesg().next_seq();
  crash_marks_.clear();
  for (const auto& svc : dev_.services()) {
    crash_marks_.push_back(svc->crashes().size());
  }

  // Run the sequence. Runtime resource values are indexed by call position.
  results_.assign(prog.calls.size(), 0);
  out.rets.reserve(prog.calls.size());
  for (size_t i = 0; i < prog.calls.size(); ++i) {
    const dsl::Call& call = prog.calls[i];
    if (call.desc == nullptr) continue;
    uint64_t produced = 0;
    const obs::ScopedSpan call_span(spans_, call.desc->name, label_,
                                    executions_);
    const int64_t ret = call.desc->is_hal()
                            ? run_hal(call, results_, produced)
                            : run_syscall(call, results_, produced);
    results_[i] = produced;
    out.rets.push_back(ret);
    ++out.calls_executed;
    if (k.panicked()) break;  // device is wedged; stop the program
  }

  // Collect bonded feedback. The append-into variant drains every task's
  // kcov straight into out.features — one buffer, no per-task vectors.
  if (opt.collect_cov) {
    k.kcov_collect_into(native_task_, out.features);
    for (const auto& svc : dev_.services()) {
      k.kcov_collect_into(svc->task(), out.features);
      k.kcov_disable(svc->task());
    }
    k.kcov_disable(native_task_);
  }
  if (opt.hal_directional) {
    auto dir = tracer_.take_features();
    out.features.insert(out.features.end(), dir.begin(), dir.end());
  } else {
    tracer_.begin_execution();  // discard
  }

  out.kernel_reports = k.dmesg().since(dmesg_from);
  out.kernel_bug = !out.kernel_reports.empty();
  for (size_t s = 0; s < dev_.services().size(); ++s) {
    const auto& cs = dev_.services()[s]->crashes();
    for (size_t i = crash_marks_[s]; i < cs.size(); ++i) {
      out.hal_crashes.push_back(cs[i]);
      out.hal_crash = true;
    }
  }

  // The reboot-after-KASAN policy (fault layer): on a real device a KASAN
  // splat wedges the kernel, so the harness reboots even when the fuzzer's
  // own reboot_on_bug is off.
  bool kasan_reboot = false;
  if (fault_ != nullptr && fault_->reboot_on_kasan() &&
      !(opt.reboot_on_bug && out.any_bug())) {
    for (const auto& rep : out.kernel_reports) {
      if (rep.kind == kernel::ReportKind::kKasan) {
        kasan_reboot = true;
        break;
      }
    }
  }
  if ((opt.reboot_on_bug && out.any_bug()) || kasan_reboot ||
      k.panicked()) {
    // Snapshot crash-time driver states before the reboot wipes them —
    // crash_<hash>.json must record where the state machines *were*, not
    // the post-boot reset.
    out.states_at_crash = snapshot_driver_states(k);
    dev_.reboot();
    out.rebooted = true;
    if (kasan_reboot && fault_ != nullptr) {
      FaultTotals& t = fault_->totals();
      ++t.kasan_reboots;
      ++t.reboots;
      t.recovery_virtual_us += fault_->policy().reboot_cost_us;
    }
  } else if (out.hal_crash) {
    // At minimum restore a usable state.
    dev_.restart_dead_services();
  }
  if (obs_ != nullptr) {
    c_programs_->inc();
    c_calls_->inc(out.calls_executed);
    if (out.rebooted) c_reboots_->inc();
  }
  return out;
}

}  // namespace df::core
