#include "core/fuzz/checkpoint.h"

#include <bit>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <ranges>
#include <type_traits>
#include <utility>

#include "core/fuzz/daemon.h"
#include "device/snapshot.h"
#include "dsl/fmt.h"
#include "dsl/parse.h"
#include "kernel/snapshot.h"
#include "obs/analytics.h"
#include "obs/json.h"
#include "obs/json_parse.h"
#include "util/hex.h"
#include "util/log.h"

namespace df::core {

namespace {

using util::hex_u64;

bool fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = "checkpoint: " + what;
  return false;
}

std::string_view name_of(obs::ProgramOrigin o) { return obs::origin_name(o); }
std::string_view name_of(obs::EventKind k) { return obs::kind_name(k); }
bool from_name(std::string_view name, obs::ProgramOrigin* out) {
  const auto o = obs::origin_from_name(name);
  if (o.has_value()) *out = *o;
  return o.has_value();
}
bool from_name(std::string_view name, obs::EventKind* out) {
  return obs::kind_from_name(name, out);
}

// What Load reads a list element into: the range's value type, with a map
// entry's const key made writable.
template <class T>
struct Writable {
  using type = T;
};
template <class K, class V>
struct Writable<std::pair<const K, V>> {
  using type = std::pair<K, V>;
};

// The two archives the checkpoint walk runs over. Each member reads or
// writes one JSON shape; an empty key marks an array item. 64-bit words
// (RNG state, cursors, double bit patterns) travel as "0x..." strings:
// JsonWriter prints doubles with %.6g, which does not round-trip, and u64
// cursors can exceed the 2^53 double-exact range. Byte images travel as
// lowercase hex: JSON has no byte type, and base64 would need a decoder
// obs/json_parse.h does not have.
//
// A list visits one element at a time: Save passes each live element as
// const; Load reads each into a fresh value and hands it to the list's
// sink. get() is the live value on Save and an empty one to read into on
// Load; sink() runs only on Load.

// What both archives compose from their own members.
template <class Self>
class Archive {
 public:
  template <class S>
  bool rng(std::string_view k, S& st) {
    return self().array(k, [&] {
      for (auto& word : st.s) {
        if (!self().hex({}, word)) return false;
      }
      return true;
    });
  }
  template <class... T>
  bool row(std::string_view k, T&... v) {
    return self().array(k, [&] { return (self().u64({}, v) && ...); });
  }
  // Decimal or "0x..." words; Load appends to `v`.
  template <class V>
  bool u64s(std::string_view k, V& v, bool as_hex = false) {
    return self().list(
        k, v,
        [&](auto& x) { return as_hex ? self().hex({}, x) : self().u64({}, x); },
        [&](auto x) { v.push_back(x); });
  }
  template <class R, class V, class S>
  bool objects(std::string_view k, const R& items, V&& visit, S&& sink) {
    return self().list(
        k, items,
        [&](auto& x) { return self().object({}, [&] { return visit(x); }); },
        sink);
  }

 private:
  Self& self() { return static_cast<Self&>(*this); }
};

// Writes through obs::JsonWriter; never fails.
class Save : public Archive<Save> {
 public:
  static constexpr bool kLoad = false;

  explicit Save(obs::JsonWriter& w) : w_(w) {}

  template <class T>
  bool u64(std::string_view k, const T& v) {
    return put(k, static_cast<uint64_t>(v));
  }
  bool hex(std::string_view k, uint64_t v) {
    scratch_.clear();
    util::append_hex_u64(scratch_, v);
    return put(k, scratch_);
  }
  bool bits(std::string_view k, double d) {
    return hex(k, std::bit_cast<uint64_t>(d));
  }
  bool flag(std::string_view k, bool b) { return put(k, b); }
  bool str(std::string_view k, std::string_view s) { return put(k, s); }
  template <class E>
  bool name(std::string_view k, E v, const char*) { return put(k, name_of(v)); }
  bool bytes(std::string_view k, const std::vector<uint8_t>& b, const char*) {
    scratch_.clear();
    util::append_hex_bytes(scratch_, b.data(), b.size());
    return put(k, scratch_);
  }
  bool program(std::string_view k, const dsl::Program& p,
               const dsl::CallTable&) {
    return put(k, dsl::format_program(p));
  }
  bool parse(std::string_view, const dsl::Program&, const dsl::CallTable&,
             const char*) {
    return true;
  }
  // An optional member's key, written when `present`.
  bool has(std::string_view k, bool present) {
    if (present) key(k);
    return true;
  }

  template <class F>
  bool object(std::string_view k, F&& body) {
    key(k);
    w_.begin_object();
    body();
    w_.end_object();
    return true;
  }
  template <class F>
  bool array(std::string_view k, F&& body) {
    key(k);
    w_.begin_array();
    body();
    w_.end_array();
    return true;
  }
  template <class R, class V, class S>
  bool list(std::string_view k, const R& items, V&& visit, S&&) {
    return array(k, [&] {
      for (const auto& item : items) visit(item);
      return true;
    });
  }
  // One item per element of `items`, in order, matched by position on Load.
  template <class R, class V>
  bool each(std::string_view k, R& items, const char*, V&& visit) {
    return array(k, [&] {
      for (auto& item : items) visit(item);
      return true;
    });
  }
  // An optional section, written when its owner is attached.
  template <class T, class V>
  bool section(std::string_view k, T* owner, V&& visit) {
    if (owner != nullptr) {
      key(k);
      visit(*owner);
    }
    return true;
  }

  template <class F>
  auto get(F&& f) { return f(); }
  template <class F>
  bool sink(F&&) { return true; }
  bool at(std::string_view) { return true; }
  bool fail(const std::string&) { return false; }
  bool reject(const std::string&) { return false; }

 private:
  void key(std::string_view k) {
    if (!k.empty()) w_.key(k);
  }
  template <class T>
  bool put(std::string_view k, const T& v) {
    key(k);
    w_.value(v);
    return true;
  }

  obs::JsonWriter& w_;
  std::string scratch_;
};

// Reads through obs::JsonReader in the order Save writes: every key must
// come where Save puts it, and every count decodes strictly. A reader
// failure carries its offset and field; failed() adds where in the document
// it happened, unless a semantic check already described the failure.
class Load : public Archive<Load> {
 public:
  static constexpr bool kLoad = true;

  Load(std::string_view text, std::string* error) : r_(text), error_(error) {}

  // Narrower fields (the kernel's u32 task cursor) are range-checked.
  template <class T>
  bool u64(std::string_view k, T& out) {
    uint64_t v = 0;
    if (!key(k) || !r_.read_u64(&v)) return false;
    if (v > static_cast<uint64_t>(std::numeric_limits<T>::max())) {
      return fail("field '" + std::string(k) + "': " + std::to_string(v) +
                  " exceeds " + std::to_string(std::numeric_limits<T>::max()));
    }
    out = static_cast<T>(v);
    return true;
  }
  bool hex(std::string_view k, uint64_t& out) {
    return key(k) && r_.read_hex_u64(&out);
  }
  bool bits(std::string_view k, double& out) {
    uint64_t v = 0;
    if (!hex(k, v)) return false;
    out = std::bit_cast<double>(v);
    return true;
  }
  bool flag(std::string_view k, bool& out) {
    return key(k) && r_.read_bool(&out);
  }
  bool str(std::string_view k, std::string& out) {
    return key(k) && r_.read_string(&out);
  }
  // The view stays valid until the reader's next string.
  bool str(std::string_view k, std::string_view& out) {
    return key(k) && r_.read_string(&out);
  }
  template <class E>
  bool name(std::string_view k, E& out, const char* what) {
    std::string_view text;
    if (!str(k, text)) return false;
    if (from_name(text, &out)) return true;
    return fail("unknown " + std::string(what) + " '" + std::string(text) +
                "'");
  }
  bool bytes(std::string_view k, std::vector<uint8_t>& out,
             const char* what) {
    std::string_view text;
    if (!str(k, text)) return false;
    if (util::bytes_from_hex(text, &out)) return true;
    return fail(std::string(what) + " is not valid hex");
  }
  bool program(std::string_view k, dsl::Program& out,
               const dsl::CallTable& calls) {
    std::string_view text;
    return str(k, text) && parse(text, out, calls, "program");
  }
  bool parse(std::string_view text, dsl::Program& out,
             const dsl::CallTable& calls, const char* what) {
    auto prog = dsl::parse_program(text, calls);
    if (!prog.has_value()) return fail("unparsable " + std::string(what));
    out = std::move(*prog);
    return true;
  }
  bool has(std::string_view k, bool& present) {
    present = r_.optional_key(k);
    return r_.ok();
  }

  template <class F>
  bool object(std::string_view k, F&& body) {
    return key(k) && r_.begin_object() && body() && r_.end_object();
  }
  template <class F>
  bool array(std::string_view k, F&& body) {
    return key(k) && r_.begin_array() && body() && r_.end_array();
  }
  template <class R, class V, class S>
  bool list(std::string_view k, const R&, V&& visit, S&& sink) {
    using T = typename Writable<std::ranges::range_value_t<R>>::type;
    return array(k, [&] {
      while (r_.more()) {
        T item{};
        if (!visit(item)) return false;
        sink(std::move(item));
      }
      return true;
    });
  }
  template <class R, class V>
  bool each(std::string_view k, R& items, const char* mismatch, V&& visit) {
    if (!key(k) || !r_.begin_array()) return false;
    const Context outer = ctx_;
    size_t i = 0;
    for (auto it = std::begin(items); r_.more(); ++it, ++i) {
      if (i == std::size(items)) return fail(mismatch);
      if (!visit(*it)) return false;
      ctx_ = outer;
    }
    if (i != std::size(items)) return fail(mismatch);
    return r_.end_array();
  }
  // A section the daemon has nothing to restore into is skipped.
  template <class T, class V>
  bool section(std::string_view k, T* owner, V&& visit) {
    if (!r_.optional_key(k)) return r_.ok();
    const Context outer = ctx_;
    within(k);
    if (owner != nullptr ? !visit(*owner) : !r_.skip_value()) return false;
    ctx_ = outer;
    return true;
  }

  template <class F>
  auto get(F&&) { return std::invoke_result_t<F>{}; }
  template <class F>
  bool sink(F&& f) {
    f();
    return true;
  }

  // Where the walk is, for messages. at() names a part of the document: a
  // failure there is the document's ("checkpoint: seed mismatch ...").
  // within() names an object, and a failure there names it ("checkpoint:
  // device A1: unparsable program").
  bool at(std::string_view where) {
    ctx_ = {std::string(where), false};
    return true;
  }
  bool within(std::string_view what, std::string_view id = {}) {
    ctx_ = {std::string(what) + std::string(id), true};
    return true;
  }
  bool fail(const std::string& what) {
    return reject(ctx_.owns_failures ? ctx_.where + ": " + what : what);
  }
  bool reject(const std::string& what) {
    *error_ = "checkpoint: " + what;
    return false;
  }
  bool ok() const { return r_.ok(); }
  bool finish() { return r_.finish(); }
  bool failed() {
    if (!error_->empty()) return false;
    if (ctx_.where.empty()) {
      return reject("not a checkpoint document (" + r_.error() + ")");
    }
    return reject(ctx_.where + ": " + r_.error());
  }

 private:
  struct Context {
    std::string where;
    bool owns_failures = false;
  };

  bool key(std::string_view k) { return k.empty() || r_.expect_key(k); }

  obs::JsonReader r_;
  std::string* error_;
  Context ctx_;
};

// --- observability and the stats reporter -----------------------------------

template <class Ar>
bool visit_obs(Ar& a, obs::Observability& o) {
  obs::Registry& reg = o.registry;
  const obs::Snapshot snap = a.get([&] { return reg.snapshot(); });
  const auto ids = [&](auto& m) {
    return a.str("name", m.name) && a.str("label", m.label);
  };
  uint64_t emitted = o.trace.emitted();
  const auto ring = std::views::iota(size_t{0}, o.trace.size()) |
                    std::views::transform([&](size_t i) -> const auto& {
                      return o.trace.at(i);
                    });
  // The retained-event base depends on how many events follow, so Load
  // collects the events before the ring is reset and refilled.
  std::vector<obs::TraceEvent> events;
  const auto event = [&](auto& ev) {
    return a.name("kind", ev.kind, "event kind") &&
           a.str("device", ev.device) && a.u64("exec", ev.exec_index) &&
           a.objects(
               "fields", ev.fields,
               [&](auto& f) {
                 return a.str("k", f.key) && a.has("n", f.is_num) &&
                        (f.is_num ? a.hex({}, f.num) : a.str("s", f.str));
               },
               [&](auto&& f) { ev.fields.push_back(std::move(f)); });
  };
  return a.object({}, [&] {
    return a.objects(
               "counters", snap.counters,
               [&](auto& c) { return ids(c) && a.u64("value", c.value); },
               [&](auto&& c) {
                 obs::Counter& m = reg.counter(c.name, c.label);
                 m.reset();
                 m.inc(c.value);
               }) &&
           a.objects(
               "gauges", snap.gauges,
               [&](auto& g) { return ids(g) && a.bits("bits", g.value); },
               [&](auto&& g) { reg.gauge(g.name, g.label).set(g.value); }) &&
           a.objects(
               "histogram_counts", snap.histograms,
               [&](auto& h) { return ids(h) && a.u64("count", h.count); },
               [&](auto&& h) {
                 reg.histogram(h.name, h.label).restore_count(h.count);
               }) &&
           a.u64("emitted", emitted) &&
           a.objects("events", ring, event, [&](auto&& ev) {
             events.push_back(std::move(ev));
           });
  }) && a.sink([&] {
    const uint64_t replayed = events.size();
    o.trace.reset_retained(emitted >= replayed ? emitted - replayed : 0);
    for (obs::TraceEvent& ev : events) o.trace.emit(std::move(ev));
  });
}

template <class Ar>
bool visit_reporter(Ar& a, obs::StatsReporter& rep) {
  // A point's secs is wall time, excluded from determinism comparisons;
  // restored points restart the timing axis at 0.
  const auto point = [&](auto& p) {
    auto& s = p.sample;
    return a.u64("executions", s.executions) &&
           a.u64("kernel_coverage", s.kernel_coverage) &&
           a.u64("total_coverage", s.total_coverage) &&
           a.u64("corpus", s.corpus_size) && a.u64("bugs", s.unique_bugs) &&
           a.u64("relation_edges", s.relation_edges) &&
           a.u64("reboots", s.reboots);
  };
  const auto device = [&](auto& dev) {
    return a.str("device", dev) &&
           a.objects("points", rep.series(dev), point,
                     [&](auto&& p) { rep.restore_point(dev, p); });
  };
  const auto watch = [&](auto& ws) {
    return a.str("device", ws.device) &&
           a.u64("best_coverage", ws.best_coverage) &&
           a.u64("last_progress_exec", ws.last_progress_exec) &&
           a.flag("seeded", ws.seeded) && a.flag("stalled", ws.stalled);
  };
  return a.object({}, [&] {
    return a.objects("devices", rep.devices(), device, [](auto&&) {}) &&
           a.objects("watch", rep.watch_states(), watch,
                     [&](auto&& ws) { rep.restore_watch(ws); });
  });
}

}  // namespace

// --- the document ------------------------------------------------------------

template <class Ar>
bool CampaignCheckpoint::visit(Ar& a, Daemon& daemon) {
  return a.object({}, [&] {
    return a.object("checkpoint", [&] {
      a.at("header");
      // The version comes first: a document of another version may be laid
      // out differently from here on.
      uint64_t version = kVersion;
      if (!a.u64("version", version)) return false;
      if (Ar::kLoad && version != kVersion) {
        return a.reject("unsupported version " + std::to_string(version));
      }
      uint64_t seed = daemon.cfg_.seed;
      uint64_t progress = daemon.progress_;
      uint64_t pending_sample = daemon.pending_sample_;
      if (!a.hex("seed", seed) || !a.u64("progress", progress) ||
          !a.u64("pending_sample", pending_sample)) {
        return false;
      }
      if (Ar::kLoad && seed != daemon.cfg_.seed) {
        return a.reject("seed mismatch (checkpoint " + hex_u64(seed) +
                        ", daemon " + hex_u64(daemon.cfg_.seed) + ")");
      }
      a.sink([&] {
        daemon.progress_ = progress;
        daemon.pending_sample_ = pending_sample;
      });
      // Observability comes after the devices: on Load, each device's
      // setup() + reboot() bumped probe/reboot metrics and emitted events,
      // all of which the saved section overwrites.
      return a.each("devices", daemon.engines_, "device set mismatch",
                    [&](auto& s) { return visit_device(a, s.id, *s.eng); }) &&
             a.at("checkpoint") &&
             a.section("obs", daemon.obs_,
                       [&](auto& o) { return visit_obs(a, o); }) &&
             a.section("reporter", daemon.reporter_,
                       [&](auto& r) { return visit_reporter(a, r); });
    });
  });
}

template <class Ar>
bool CampaignCheckpoint::visit_device(Ar& a, const std::string& id,
                                      Engine& eng) {
  using SnapshotPtr = std::shared_ptr<const device::StateSnapshot>;
  kernel::Kernel& k = eng.dev_.kernel();
  const dsl::CallTable& calls = eng.calls();
  a.at("device");
  return a.object({}, [&] {
    std::string_view saved_id = id;
    if (!a.str("id", saved_id)) return false;
    if constexpr (Ar::kLoad) {
      if (saved_id != id) {
        return a.reject("device order mismatch: checkpoint has '" +
                        std::string(saved_id) + "', daemon has '" + id + "'");
      }
      a.within("device ", id);
      // Mirror the save-side sequence: a fully set-up engine on a freshly
      // barrier-rebooted device, then overwrite every cursor/stream.
      eng.setup();
      eng.dev_.reboot();
    }

    util::RngState rng = eng.rng_.state();
    kernel::Kernel::Cursors kc = k.cursors();
    Broker& broker = *eng.broker_;
    kernel::Task* nt = k.task(broker.native_task_);
    uint64_t next_fd = nt != nullptr ? nt->fds.next_fd() : 3;
    if (!a.u64("exec_count", eng.exec_count_) || !a.rng("rng", rng) ||
        !a.object("kernel", [&] {
          return a.rng("rng", kc.rng) && a.u64("reboots", kc.reboot_count) &&
                 a.u64("syscalls", kc.syscall_count) &&
                 a.hex("next_map", kc.next_map) &&
                 a.u64("next_task", kc.next_task) &&
                 a.hex("heap_next", kc.heap_next);
        }) ||
        !a.object("broker", [&] {
          return a.u64("executions", broker.executions_) &&
                 a.u64("next_fd", next_fd);
        })) {
      return false;
    }
    a.sink([&] {
      eng.rng_.set_state(rng);
      k.restore_cursors(kc);
      if (nt != nullptr) nt->fds.set_next_fd(static_cast<int32_t>(next_fd));
    });

    bool has_fault = eng.fault_ != nullptr;
    if (!a.has("fault", has_fault)) return false;
    if (has_fault != (eng.fault_ != nullptr)) {
      return a.fail("fault configuration mismatch");
    }
    if (has_fault) {
      device::FaultPlan& plan = eng.fault_->plan();
      FaultTotals& t = eng.fault_->totals();
      util::RngState frng = plan.rng_state();
      uint64_t decisions = plan.decisions();
      if (!a.object({}, [&] {
            return a.rng("rng", frng) && a.u64("decisions", decisions) &&
                   a.u64("injected", t.injected) && a.u64("hangs", t.hangs) &&
                   a.u64("transport_errors", t.transport_errors) &&
                   a.u64("reboots", t.reboots) &&
                   a.u64("kasan_reboots", t.kasan_reboots) &&
                   a.u64("retries", t.retries) &&
                   a.u64("lost_execs", t.lost_execs) &&
                   a.u64("recovery_virtual_us", t.recovery_virtual_us);
          })) {
        return false;
      }
      a.sink([&] { plan.restore(frng, decisions); });
    }

    // Corpus::add recomputes hash and generation depth; seeds restore in
    // insertion order, so every parent is present before its children and
    // the derived depths match the saved campaign exactly.
    std::vector<uint64_t> features =
        a.get([&] { return eng.features_.values(); });
    uint64_t picks = eng.corpus_.total_picks();
    const auto seed = [&](auto& s) {
      return a.program("prog", s.prog, calls) &&
             a.u64("new_features", s.new_features) &&
             a.u64("exec_index", s.exec_index) && a.u64("hits", s.hits) &&
             a.name("origin", s.origin, "seed origin") &&
             a.hex("parent", s.parent_hash);
    };
    const auto edge = [&](auto& e) {
      return a.array({}, [&] {
        return a.u64({}, e.from) && a.u64({}, e.to) && a.bits({}, e.weight);
      });
    };
    if (!a.u64s("features", features, /*as_hex=*/true) ||
        !a.object("corpus", [&] {
          return a.u64("picks", picks) &&
                 a.objects("seeds", eng.corpus_.seeds(), seed, [&](auto&& s) {
                   eng.corpus_.add(std::move(s));
                 });
        }) ||
        !a.list("relations", eng.rel_.edges(), edge, [&](auto&& e) {
          eng.rel_.restore_edge(e.from, e.to, e.weight);
        })) {
      return false;
    }
    a.sink([&] {
      eng.features_.add_new(features);
      eng.corpus_.restore_picks(picks);
    });

    uint64_t total_reports = eng.crash_log_.total_reports();
    const auto link = [&](auto& l) {
      return a.hex("hash", l.hash) &&
             a.name("origin", l.origin, "lineage origin") &&
             a.u64("exec", l.exec_index) && a.u64("depth", l.depth);
    };
    const auto bug = [&](auto& b) {
      return a.str("title", b.title) && a.str("component", b.component) &&
             a.str("origin", b.origin) && a.str("bug_class", b.bug_class) &&
             a.u64("first_exec", b.first_exec) &&
             a.u64("dup_count", b.dup_count) &&
             a.str("repro", b.repro_text) &&
             a.parse(b.repro_text, b.repro, calls, "bug reproducer") &&
             a.objects("lineage", b.lineage, link,
                       [&](auto&& l) { b.lineage.push_back(l); });
    };
    // Queue entries name their fork snapshot by capture seq (0 = none). The
    // images come after the queue, so Load holds the entries until
    // "snapshots" is read.
    std::vector<std::pair<Engine::QueuedProgram, uint64_t>> queued;
    uint64_t fork_seq = 0;
    const auto queue_entry = [&](auto& q) {
      fork_seq = q.snapshot != nullptr ? q.snapshot->seq : 0;
      return a.program("prog", q.prog, calls) &&
             a.name("origin", q.origin, "plan_queue origin") &&
             a.hex("parent", q.parent_hash) &&
             a.flag("has_target", q.has_target) &&
             a.u64("target_driver", q.target_driver) &&
             a.u64("target_state", q.target_state) &&
             a.u64("snapshot", fork_seq);
    };
    if (!a.object("bugs", [&] {
          return a.u64("total_reports", total_reports) &&
                 a.objects("records", eng.crash_log_.bugs(), bug,
                           [&](auto&& b) {
                             eng.crash_log_.restore_bug(std::move(b));
                           });
        }) ||
        !a.objects("plan_queue", eng.plan_queue_, queue_entry, [&](auto&& q) {
          queued.emplace_back(std::move(q), fork_seq);
        })) {
      return false;
    }
    a.sink([&] { eng.crash_log_.set_total_reports(total_reports); });

    // Live snapshot state (DESIGN.md §13): every distinct snapshot referenced
    // by the COW pool, the fault-recovery anchor, or a queued fork, keyed by
    // capture seq. Byte images re-own their sections on restore — delta
    // sharing is a capture-time optimization, so flattening it here changes
    // nothing observable.
    const auto seq_of = [](const SnapshotPtr& s) -> uint64_t {
      return s != nullptr ? s->seq : 0;
    };
    std::map<uint64_t, SnapshotPtr> by_seq = a.get([&] {
      std::map<uint64_t, SnapshotPtr> m;
      for (const SnapshotPtr& s : eng.snap_pool_) {
        if (s != nullptr) m[s->seq] = s;
      }
      if (eng.last_good_ != nullptr) m[eng.last_good_->seq] = eng.last_good_;
      for (const Engine::QueuedProgram& q : eng.plan_queue_) {
        if (q.snapshot != nullptr) m[q.snapshot->seq] = q.snapshot;
      }
      return m;
    });
    const auto image = [&](auto& entry) {
      auto bytes =
          a.get([&] { return device::snapshot_to_bytes(*entry.second); });
      if (!a.bytes({}, bytes, "snapshot image")) return false;
      if constexpr (Ar::kLoad) {
        device::StateSnapshot snap;
        std::string snap_error;
        if (!device::snapshot_from_bytes(bytes, &snap, &snap_error)) {
          return a.fail("snapshot image (" + snap_error + ")");
        }
        entry.first = snap.seq;
        entry.second =
            std::make_shared<const device::StateSnapshot>(std::move(snap));
      }
      return true;
    };
    std::vector<uint64_t> pool = a.get([&] {
      std::vector<uint64_t> seqs;
      for (const SnapshotPtr& s : eng.snap_pool_) seqs.push_back(seq_of(s));
      return seqs;
    });
    uint64_t last_good = seq_of(eng.last_good_);
    // Config that shapes the snapshot trajectory: a resume-side engine with
    // a different toggle or cadence would fork/capture on a different
    // schedule and silently diverge from the author's continuation.
    uint64_t enabled = eng.cfg_.use_snapshots ? 1 : 0;
    uint64_t every = eng.cfg_.snapshot_every;
    SnapshotStats& st = eng.snap_stats_;
    if (!a.object("snapshots", [&] {
          if (!a.u64("enabled", enabled) || !a.u64("every", every)) {
            return false;
          }
          if (Ar::kLoad &&
              ((enabled != 0) != eng.cfg_.use_snapshots ||
               (enabled != 0 && every != eng.cfg_.snapshot_every))) {
            return a.fail(
                "snapshot configuration mismatch (checkpoint enabled=" +
                std::to_string(enabled) + " every=" + std::to_string(every) +
                ", engine enabled=" +
                std::to_string(eng.cfg_.use_snapshots ? 1 : 0) +
                " every=" + std::to_string(eng.cfg_.snapshot_every) + ")");
          }
          return a.u64("seq", eng.snap_seq_) &&
                 a.row("stats", st.captures, st.restores, st.forks,
                       st.fault_recoveries, st.prefix_execs_saved,
                       st.prefix_calls_saved, st.sections_total,
                       st.sections_shared, st.bytes_total, st.bytes_shared) &&
                 a.list("images", by_seq, image,
                        [&](auto&& e) { by_seq[e.first] = e.second; }) &&
                 a.u64s("pool", pool) && a.u64("last_good", last_good);
        })) {
      return false;
    }
    if constexpr (Ar::kLoad) {
      // Rebuild shared_ptr identity by seq: the pool, the fault-recovery
      // anchor, and queue entries that referenced the same snapshot on the
      // save side share one object again.
      const auto resolve = [&](uint64_t seq, const char* what,
                               SnapshotPtr* out) {
        const auto it = by_seq.find(seq);
        if (it == by_seq.end()) {
          return a.fail(std::string(what) + " references missing snapshot " +
                        std::to_string(seq));
        }
        *out = it->second;
        return true;
      };
      for (uint64_t seq : pool) {
        if (!resolve(seq, "pool", &eng.snap_pool_.emplace_back())) return false;
      }
      if (last_good != 0 && !resolve(last_good, "last_good", &eng.last_good_)) {
        return false;
      }
      for (auto& [q, seq] : queued) {
        if (seq != 0 && !resolve(seq, "plan_queue", &q.snapshot)) return false;
        eng.plan_queue_.push_back(std::move(q));
      }
    }

    // Per-operator yield rows in ProgramOrigin enum order, each
    // [attempts, total_calls, accepts, new_features, new_states, bugs]; then
    // plan attempts in std::map (sorted, deterministic) order.
    const auto plan_attempt = [&](auto& e) {
      auto& pa = e.second;
      return a.u64("driver", e.first.first) &&
             a.u64("state", e.first.second) &&
             a.u64("injected", pa.injected) &&
             a.u64("materialize_failed", pa.materialize_failed) &&
             a.u64("executed_no_visit", pa.executed_no_visit);
    };
    if (!a.array("attribution", [&] {
          for (size_t i = 0; i < obs::kProgramOriginCount; ++i) {
            const auto o = static_cast<obs::ProgramOrigin>(i);
            obs::OperatorYield y = eng.attribution_.row(o);
            if (!a.row({}, y.attempts, y.total_calls, y.accepts,
                       y.new_features, y.new_states, y.bugs)) {
              return false;
            }
            a.sink([&] { eng.attribution_.restore_row(o, y); });
          }
          return true;
        }) ||
        !a.objects("plan_attempts", eng.plan_attempts_, plan_attempt,
                   [&](auto&& e) { eng.plan_attempts_[e.first] = e.second; })) {
      return false;
    }

    // Campaign-cumulative state-machine tallies, in driver registration
    // order (they survive the barrier reboot on the save side, so they must
    // be carried over the fresh boot on the resume side). The live-state
    // blob rides along too: reboot-persistent fields (rt1711's probe
    // counter) influence coverage emitted on later boots, and a fresh
    // resume-side boot would re-derive them from zero instead of the
    // campaign's history.
    return a.each(
        "drivers", k.drivers(), "driver tally count mismatch",
        [&](const std::unique_ptr<kernel::Driver>& d) {
          uint64_t current = d->current_state();
          auto visits = a.get([&] { return d->state_visits(); });
          auto matrix = a.get([&] { return d->state_matrix(); });
          auto blob = a.get([&] {
            kernel::StateArchive sb;
            d->state(sb);
            return sb.take();
          });
          if (!a.object({}, [&] {
                return a.u64("current", current) &&
                       a.u64s("visits", visits) && a.u64s("matrix", matrix) &&
                       a.bytes("state", blob, "driver state blob");
              })) {
            return false;
          }
          if constexpr (Ar::kLoad) {
            // Overwrites the post-reboot live fields with the save side's —
            // both sides are freshly barrier-rebooted here, so only the
            // reboot-persistent fields actually change.
            kernel::StateArchive sr(blob);
            d->state(sr);
            if (!sr.done()) {
              return a.fail("driver state blob does not match driver");
            }
            const size_t n_visits = visits.size();
            const size_t n_cells = matrix.size();
            if (!d->restore_state_tallies(static_cast<size_t>(current),
                                          std::move(visits),
                                          std::move(matrix))) {
              return a.fail(
                  "driver " + std::string(d->name()) + ": tallies (current " +
                  std::to_string(current) + ", " + std::to_string(n_visits) +
                  " visits, " + std::to_string(n_cells) +
                  " matrix cells) do not fit its " +
                  std::to_string(d->state_visits().size()) + " states");
            }
          }
          return true;
        });
  });
}

std::string CampaignCheckpoint::serialize(Daemon& daemon) {
  obs::JsonWriter w;
  Save a(w);
  visit(a, daemon);
  return w.take();
}

bool CampaignCheckpoint::restore(Daemon& daemon, const std::string& json,
                                 std::string* error) {
  std::string local_error;
  if (error == nullptr) error = &local_error;
  error->clear();

  // Syntax first, over the whole text: a malformed or truncated document
  // is rejected before the daemon is touched.
  {
    obs::JsonReader syntax(json);
    if (!syntax.skip_value() || !syntax.finish()) {
      return fail(error, "malformed JSON (" + syntax.error() + ")");
    }
  }

  Load a(json, error);
  if (!visit(a, daemon) || !a.finish()) return a.failed();
  DF_CLOG("checkpoint", kInfo)
      << "resumed campaign at " << daemon.progress_
      << " executions/device across " << daemon.engines_.size() << " devices";
  return true;
}

bool CampaignCheckpoint::write_file(const std::string& path,
                                    const std::string& json,
                                    std::string* error) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path p(path);
  if (p.has_parent_path()) {
    fs::create_directories(p.parent_path(), ec);  // best effort
  }
  const fs::path tmp = p.string() + ".tmp";
  {
    std::ofstream f(tmp, std::ios::trunc | std::ios::binary);
    if (!f.is_open()) {
      return fail(error, "cannot open " + tmp.string() + " for writing");
    }
    f << json;
    f.flush();
    if (!f.good()) return fail(error, "short write to " + tmp.string());
  }
  fs::rename(tmp, p, ec);
  if (ec) {
    return fail(error, "rename " + tmp.string() + " -> " + p.string() +
                           " failed: " + ec.message());
  }
  return true;
}

bool CampaignCheckpoint::read_file(const std::string& path, std::string* out,
                                   std::string* error) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f.is_open()) return fail(error, "cannot open " + path);
  const std::streamoff size = f.tellg();
  if (size < 0) return fail(error, "cannot read " + path);
  out->resize(static_cast<size_t>(size));
  f.seekg(0);
  if (!f.read(out->data(), size)) return fail(error, "cannot read " + path);
  return true;
}

}  // namespace df::core
