#include "device/snapshot.h"

namespace df::device {

namespace {

using kernel::StateArchive;

// The device's sections in image order: "kernel", "heap", one "drv/<name>"
// per driver, "fds/native", one "fds/svc<i>" and then one "hal/<i>" per
// service.
struct Layout {
  size_t drivers = 0;
  size_t services = 0;

  explicit Layout(Device& dev)
      : drivers(dev.kernel().drivers().size()),
        services(dev.services().size()) {}

  size_t count() const { return 3 + drivers + 2 * services; }
  size_t native_fds() const { return 2 + drivers; }
  size_t first_service_fds() const { return native_fds() + 1; }
  size_t first_hal() const { return first_service_fds() + services; }
};

std::string section_name(Device& dev, const Layout& l, size_t i) {
  if (i == 0) return "kernel";
  if (i == 1) return "heap";
  if (i < l.native_fds()) {
    return "drv/" + std::string(dev.kernel().drivers()[i - 2]->name());
  }
  if (i == l.native_fds()) return "fds/native";
  if (i < l.first_hal()) {
    return "fds/svc" + std::to_string(i - l.first_service_fds());
  }
  return "hal/" + std::to_string(i - l.first_hal());
}

// Walks section `i` in either direction. Loading applies it too: a driver
// is reset before its walk and repositioned after it, and a service's
// native state is wiped before its walk and its dead flag restored after.
void walk_section(Device& dev, kernel::TaskId native_task, const Layout& l,
                  size_t i, StateArchive& ar) {
  kernel::Kernel& k = dev.kernel();
  if (i == 0) return k.live_state(ar);
  if (i == 1) return k.kasan().heap().state(ar);
  if (i < l.native_fds()) {
    kernel::Driver& d = *k.drivers()[i - 2];
    uint64_t current = d.current_state();
    ar.u64(current);
    if (ar.loading()) d.reset();
    d.state(ar);
    if (ar.loading() && ar.ok() && !d.restore_current_state(current)) {
      ar.fail("current state " + std::to_string(current) + " out of range");
    }
    return;
  }
  if (i == l.native_fds()) return k.task_files(native_task, ar);
  if (i < l.first_hal()) {
    return k.task_files(dev.services()[i - l.first_service_fds()]->task(), ar);
  }
  hal::HalService& svc = *dev.services()[i - l.first_hal()];
  bool dead = svc.dead();
  ar.b(dead);
  if (ar.loading()) svc.reset_native_for_snapshot();
  svc.state(ar);
  if (ar.loading()) svc.restore_dead(dead);
}

// Appends `name` with image `bytes`, aliasing the parent's buffer when the
// bytes are identical (the dirty-struct delta).
void add_section(StateSnapshot& snap, const StateSnapshot* parent,
                 std::string name, std::vector<uint8_t>&& bytes) {
  if (parent != nullptr) {
    if (const StateSnapshot::Section* p = parent->find(name)) {
      if (p->bytes != nullptr && *p->bytes == bytes) {
        ++snap.sections_shared;
        snap.bytes_shared += p->bytes->size();
        snap.sections.push_back({std::move(name), p->bytes});
        return;
      }
    }
  }
  snap.sections.push_back(
      {std::move(name),
       std::make_shared<const std::vector<uint8_t>>(std::move(bytes))});
}

bool fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = "snapshot: " + what;
  return false;
}

// The flat image: the bookkeeping counters, then every section as a
// (name, bytes) pair. Saving only reads `snap`.
void walk_image(StateArchive& ar, StateSnapshot& snap) {
  ar.u64(snap.seq);
  ar.u64(snap.estab_calls);
  ar.u64(snap.sections_shared);
  ar.u64(snap.bytes_shared);
  ar.seq(snap.sections, [&](StateSnapshot::Section& s) {
    ar.str(s.name);
    ar.blob(s.bytes);
  });
}

}  // namespace

StateSnapshot capture_snapshot(Device& dev, kernel::TaskId native_task,
                               const StateSnapshot* parent) {
  const Layout layout(dev);
  StateSnapshot snap;
  // Drivers come before fd tables, as in the restore order (a driver's
  // file_state() may re-link side tables its state() walk cleared).
  for (size_t i = 0; i < layout.count(); ++i) {
    StateArchive ar;
    walk_section(dev, native_task, layout, i, ar);
    add_section(snap, parent, section_name(dev, layout, i), ar.take());
  }
  return snap;
}

bool restore_snapshot(Device& dev, kernel::TaskId native_task,
                      const StateSnapshot& snap, std::string* error) {
  const Layout layout(dev);

  // Shape check up front so a mismatched snapshot never half-applies.
  if (snap.sections.size() != layout.count()) {
    return fail(error, "section count mismatch (snapshot " +
                           std::to_string(snap.sections.size()) +
                           ", device " + std::to_string(layout.count()) + ")");
  }
  std::vector<const std::vector<uint8_t>*> images(layout.count());
  for (size_t i = 0; i < layout.count(); ++i) {
    const std::string name = section_name(dev, layout, i);
    const StateSnapshot::Section* s = snap.find(name);
    if (s == nullptr || s->bytes == nullptr) {
      return fail(error, "missing section '" + name + "'");
    }
    images[i] = s->bytes.get();
  }

  // 1. Revive dead services first: restart() mints the fresh kernel task
  //    whose fd table the snapshot is about to repopulate.
  for (const auto& svc : dev.services()) {
    if (svc->dead()) svc->restart();
  }
  dev.kernel().clear_panic();

  auto apply = [&](size_t i) {
    StateArchive ar(*images[i]);
    walk_section(dev, native_task, layout, i, ar);
    if (ar.done()) return true;
    return fail(error, "section '" + section_name(dev, layout, i) + "': " +
                           (ar.ok() ? "trailing bytes" : ar.error()));
  };
  // 2. Drivers: each is reset before it loads, so stale side tables
  //    (l2cap's listener map) never survive; per-file loads re-link them.
  for (size_t i = 0; i < layout.drivers; ++i) {
    if (!apply(2 + i)) return false;
  }
  // 3. Heap, then kernel RNG/mappings. 4. Fd tables (driver per-open state
  //    loads inside). 5. HAL native state last: the fds it caches now refer
  //    to the restored tables.
  if (!apply(1) || !apply(0)) return false;
  for (size_t i = layout.native_fds(); i < layout.count(); ++i) {
    if (!apply(i)) return false;
  }
  return true;
}

std::vector<uint8_t> snapshot_to_bytes(const StateSnapshot& snap) {
  StateArchive ar;
  walk_image(ar, const_cast<StateSnapshot&>(snap));
  return ar.take();
}

bool snapshot_from_bytes(std::span<const uint8_t> data, StateSnapshot* out,
                         std::string* error) {
  StateArchive ar(data);
  StateSnapshot snap;
  walk_image(ar, snap);
  if (!ar.done()) return fail(error, "byte image did not parse cleanly");
  *out = std::move(snap);
  return true;
}

}  // namespace df::device
