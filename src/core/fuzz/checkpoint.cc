#include "core/fuzz/checkpoint.h"

#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>

#include "core/fuzz/daemon.h"
#include "device/snapshot.h"
#include "dsl/fmt.h"
#include "kernel/snapshot.h"
#include "dsl/parse.h"
#include "obs/analytics.h"
#include "obs/json.h"
#include "obs/json_parse.h"
#include "util/log.h"

namespace df::core {

namespace {

// 64-bit values (RNG words, cursors, double bit patterns) are stored as
// "0x..." strings: JsonWriter prints doubles with %.6g, which does not
// round-trip, and u64 cursors can exceed the 2^53 double-exact range.
std::string hex64(uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string bits_of(double d) { return hex64(std::bit_cast<uint64_t>(d)); }

// Snapshot byte images travel as lowercase hex strings: JSON has no byte
// type, and base64 would need a decoder json_parse.h does not have.
std::string hex_bytes(const std::vector<uint8_t>& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (uint8_t b : bytes) {
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0xf]);
  }
  return out;
}

bool bytes_from_hex(const std::string& hex, std::vector<uint8_t>* out) {
  if (hex.size() % 2 != 0) return false;
  const auto nib = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  out->clear();
  out->reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    const int hi = nib(hex[i]);
    const int lo = nib(hex[i + 1]);
    if (hi < 0 || lo < 0) return false;
    out->push_back(static_cast<uint8_t>(hi << 4 | lo));
  }
  return true;
}

void write_rng(obs::JsonWriter& w, std::string_view key,
               const util::RngState& st) {
  w.key(key).begin_array();
  for (uint64_t word : st.s) w.value(hex64(word));
  w.end_array();
}

// --- restore-side accessors: every miss is a hard, described error --------

bool fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = "checkpoint: " + what;
  return false;
}

const obs::JsonValue* member(const obs::JsonValue& obj, const char* key) {
  return obj.is_object() ? obj.find(key) : nullptr;
}

bool get_u64(const obs::JsonValue& obj, const char* key, uint64_t* out,
             std::string* error, const char* ctx) {
  const obs::JsonValue* v = member(obj, key);
  if (v == nullptr || (!v->is_number() && !v->is_string())) {
    return fail(error, std::string(ctx) + ": missing field '" + key + "'");
  }
  *out = v->as_u64();
  return true;
}

bool get_str(const obs::JsonValue& obj, const char* key, std::string* out,
             std::string* error, const char* ctx) {
  const obs::JsonValue* v = member(obj, key);
  if (v == nullptr || !v->is_string()) {
    return fail(error, std::string(ctx) + ": missing field '" + key + "'");
  }
  *out = v->scalar;
  return true;
}

bool get_rng(const obs::JsonValue& obj, const char* key, util::RngState* out,
             std::string* error, const char* ctx) {
  const obs::JsonValue* v = member(obj, key);
  if (v == nullptr || !v->is_array() || v->items.size() != 4) {
    return fail(error,
                std::string(ctx) + ": field '" + key + "' is not rng[4]");
  }
  for (size_t i = 0; i < 4; ++i) out->s[i] = v->items[i].as_u64();
  return true;
}

bool get_u64_array(const obs::JsonValue& obj, const char* key,
                   std::vector<uint64_t>* out, std::string* error,
                   const char* ctx) {
  const obs::JsonValue* v = member(obj, key);
  if (v == nullptr || !v->is_array()) {
    return fail(error,
                std::string(ctx) + ": field '" + key + "' is not an array");
  }
  out->clear();
  out->reserve(v->items.size());
  for (const auto& item : v->items) out->push_back(item.as_u64());
  return true;
}

}  // namespace

// --- per-device serialization ---------------------------------------------

void CampaignCheckpoint::serialize_device(obs::JsonWriter& w,
                                          const std::string& id,
                                          Engine& eng) {
  device::Device& dev = eng.dev_;
  kernel::Kernel& k = dev.kernel();

  w.begin_object();
  w.field("id", id);
  w.field("exec_count", eng.exec_count_);
  write_rng(w, "rng", eng.rng_.state());

  const kernel::Kernel::Cursors kc = k.cursors();
  w.key("kernel").begin_object();
  write_rng(w, "rng", kc.rng);
  w.field("reboots", kc.reboot_count);
  w.field("syscalls", kc.syscall_count);
  w.field("next_map", hex64(kc.next_map));
  w.field("next_task", static_cast<uint64_t>(kc.next_task));
  w.field("heap_next", hex64(kc.heap_next));
  w.end_object();

  w.key("broker").begin_object();
  w.field("executions", eng.broker_->executions_);
  const kernel::Task* nt = k.task(eng.broker_->native_task_);
  w.field("next_fd",
          static_cast<uint64_t>(nt != nullptr ? nt->fds.next_fd() : 3));
  w.end_object();

  if (eng.fault_ != nullptr) {
    const FaultTotals& t = eng.fault_->totals();
    w.key("fault").begin_object();
    write_rng(w, "rng", eng.fault_->plan().rng_state());
    w.field("decisions", eng.fault_->plan().decisions());
    w.field("injected", t.injected);
    w.field("hangs", t.hangs);
    w.field("transport_errors", t.transport_errors);
    w.field("reboots", t.reboots);
    w.field("kasan_reboots", t.kasan_reboots);
    w.field("retries", t.retries);
    w.field("lost_execs", t.lost_execs);
    w.field("recovery_virtual_us", t.recovery_virtual_us);
    w.end_object();
  }

  w.key("features").begin_array();
  for (uint64_t f : eng.features_.values()) w.value(hex64(f));
  w.end_array();

  w.key("corpus").begin_object();
  w.field("picks", eng.corpus_.total_picks());
  w.key("seeds").begin_array();
  for (size_t i = 0; i < eng.corpus_.size(); ++i) {
    const Seed& s = eng.corpus_.at(i);
    w.begin_object();
    w.field("prog", dsl::format_program(s.prog));
    w.field("new_features", static_cast<uint64_t>(s.new_features));
    w.field("exec_index", s.exec_index);
    w.field("hits", s.hits);
    w.field("origin", std::string(obs::origin_name(s.origin)));
    w.field("parent", hex64(s.parent_hash));
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("relations").begin_array();
  for (const RelationGraph::Edge& e : eng.rel_.edges()) {
    w.begin_array();
    w.value(static_cast<uint64_t>(e.from));
    w.value(static_cast<uint64_t>(e.to));
    w.value(bits_of(e.weight));
    w.end_array();
  }
  w.end_array();

  w.key("bugs").begin_object();
  w.field("total_reports", eng.crash_log_.total_reports());
  w.key("records").begin_array();
  for (const BugRecord& b : eng.crash_log_.bugs()) {
    w.begin_object();
    w.field("title", b.title);
    w.field("component", b.component);
    w.field("origin", b.origin);
    w.field("bug_class", b.bug_class);
    w.field("first_exec", b.first_exec);
    w.field("dup_count", b.dup_count);
    w.field("repro", b.repro_text);
    w.key("lineage").begin_array();
    for (const obs::LineageLink& l : b.lineage) {
      w.begin_object();
      w.field("hash", hex64(l.hash));
      w.field("origin", std::string(obs::origin_name(l.origin)));
      w.field("exec", l.exec_index);
      w.field("depth", l.depth);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("plan_queue").begin_array();
  for (const Engine::QueuedProgram& q : eng.plan_queue_) {
    w.begin_object();
    w.field("prog", dsl::format_program(q.prog));
    w.field("origin", std::string(obs::origin_name(q.origin)));
    w.field("parent", hex64(q.parent_hash));
    w.field("has_target", q.has_target);
    w.field("target_driver", static_cast<uint64_t>(q.target_driver));
    w.field("target_state", static_cast<uint64_t>(q.target_state));
    w.field("snapshot", q.snapshot != nullptr ? q.snapshot->seq : 0);
    w.end_object();
  }
  w.end_array();

  // Live snapshot state (DESIGN.md §13): every distinct snapshot referenced
  // by the COW pool, the fault-recovery anchor, or a queued fork, keyed by
  // capture sequence id (seq 0 is reserved for "none"). Byte images re-own
  // their sections on restore — delta sharing is a capture-time
  // optimization, so flattening it here changes nothing observable.
  std::map<uint64_t, const device::StateSnapshot*> images;
  for (const auto& s : eng.snap_pool_) {
    if (s != nullptr) images[s->seq] = s.get();
  }
  if (eng.last_good_ != nullptr) images[eng.last_good_->seq] =
      eng.last_good_.get();
  for (const Engine::QueuedProgram& q : eng.plan_queue_) {
    if (q.snapshot != nullptr) images[q.snapshot->seq] = q.snapshot.get();
  }
  w.key("snapshots").begin_object();
  // Config that shapes the snapshot trajectory: a resume-side engine with a
  // different toggle or cadence would fork/capture on a different schedule
  // and silently diverge from the author's continuation, so both are
  // validated on restore (like the fault configuration).
  w.field("enabled", static_cast<uint64_t>(eng.cfg_.use_snapshots ? 1 : 0));
  w.field("every", eng.cfg_.snapshot_every);
  w.field("seq", eng.snap_seq_);
  const SnapshotStats& st = eng.snap_stats_;
  w.key("stats").begin_array();
  w.value(st.captures);
  w.value(st.restores);
  w.value(st.forks);
  w.value(st.fault_recoveries);
  w.value(st.prefix_execs_saved);
  w.value(st.prefix_calls_saved);
  w.value(st.sections_total);
  w.value(st.sections_shared);
  w.value(st.bytes_total);
  w.value(st.bytes_shared);
  w.end_array();
  w.key("images").begin_array();
  for (const auto& [seq, snap] : images) {
    w.value(hex_bytes(device::snapshot_to_bytes(*snap)));
  }
  w.end_array();
  w.key("pool").begin_array();
  for (const auto& s : eng.snap_pool_) w.value(s != nullptr ? s->seq : 0);
  w.end_array();
  w.field("last_good", eng.last_good_ != nullptr ? eng.last_good_->seq : 0);
  w.end_object();

  // Per-operator yield table, rows in ProgramOrigin enum order, each row
  // [attempts, total_calls, accepts, new_features, new_states, bugs].
  w.key("attribution").begin_array();
  for (size_t i = 0; i < obs::kProgramOriginCount; ++i) {
    const obs::OperatorYield& y =
        eng.attribution_.row(static_cast<obs::ProgramOrigin>(i));
    w.begin_array();
    w.value(y.attempts);
    w.value(y.total_calls);
    w.value(y.accepts);
    w.value(y.new_features);
    w.value(y.new_states);
    w.value(y.bugs);
    w.end_array();
  }
  w.end_array();

  // std::map iteration order is sorted, so this block is deterministic.
  w.key("plan_attempts").begin_array();
  for (const auto& [key, pa] : eng.plan_attempts_) {
    w.begin_object();
    w.field("driver", static_cast<uint64_t>(key.first));
    w.field("state", static_cast<uint64_t>(key.second));
    w.field("injected", pa.injected);
    w.field("materialize_failed", pa.materialize_failed);
    w.field("executed_no_visit", pa.executed_no_visit);
    w.end_object();
  }
  w.end_array();

  // Campaign-cumulative state-machine tallies, in driver registration order
  // (they survive the barrier reboot on the save side, so they must be
  // carried over the fresh boot on the resume side). The live-state blob
  // rides along too: reboot-persistent fields (rt1711's probe counter)
  // influence coverage emitted on later boots, and a fresh restore-side
  // boot would re-derive them from zero instead of the campaign's history.
  w.key("drivers").begin_array();
  for (const auto& d : k.drivers()) {
    w.begin_object();
    w.field("current", static_cast<uint64_t>(d->current_state()));
    w.key("visits").begin_array();
    for (uint64_t v : d->state_visits()) w.value(v);
    w.end_array();
    w.key("matrix").begin_array();
    for (uint64_t v : d->state_matrix()) w.value(v);
    w.end_array();
    kernel::StateBuf sb;
    d->save_state(sb);
    w.field("state", hex_bytes(sb.bytes()));
    w.end_object();
  }
  w.end_array();

  w.end_object();
}

namespace {

bool parse_program_field(const obs::JsonValue& obj, const char* key,
                         Engine& eng, dsl::Program* out, std::string* error,
                         const char* ctx) {
  std::string text;
  if (!get_str(obj, key, &text, error, ctx)) return false;
  auto prog = dsl::parse_program(text, eng.calls());
  if (!prog.has_value()) {
    return fail(error, std::string(ctx) + ": unparsable program");
  }
  *out = std::move(*prog);
  return true;
}

}  // namespace

bool CampaignCheckpoint::restore_device(const obs::JsonValue& d,
                                        const std::string& id, Engine& eng,
                                        std::string* error) {
  const std::string ctx = "device " + id;
  device::Device& dev = eng.dev_;
  kernel::Kernel& k = dev.kernel();

  // Mirror the save-side sequence: a fully set-up engine on a freshly
  // barrier-rebooted device, then overwrite every cursor/stream.
  eng.setup();
  dev.reboot();

  if (!get_u64(d, "exec_count", &eng.exec_count_, error, ctx.c_str())) {
    return false;
  }
  util::RngState rng;
  if (!get_rng(d, "rng", &rng, error, ctx.c_str())) return false;
  eng.rng_.set_state(rng);

  const obs::JsonValue* kv = member(d, "kernel");
  if (kv == nullptr) return fail(error, ctx + ": missing 'kernel'");
  kernel::Kernel::Cursors kc;
  uint64_t next_task = 0;
  if (!get_rng(*kv, "rng", &kc.rng, error, ctx.c_str()) ||
      !get_u64(*kv, "reboots", &kc.reboot_count, error, ctx.c_str()) ||
      !get_u64(*kv, "syscalls", &kc.syscall_count, error, ctx.c_str()) ||
      !get_u64(*kv, "next_map", &kc.next_map, error, ctx.c_str()) ||
      !get_u64(*kv, "next_task", &next_task, error, ctx.c_str()) ||
      !get_u64(*kv, "heap_next", &kc.heap_next, error, ctx.c_str())) {
    return false;
  }
  kc.next_task = static_cast<uint32_t>(next_task);
  k.restore_cursors(kc);

  const obs::JsonValue* bv = member(d, "broker");
  if (bv == nullptr) return fail(error, ctx + ": missing 'broker'");
  uint64_t next_fd = 0;
  if (!get_u64(*bv, "executions", &eng.broker_->executions_, error,
               ctx.c_str()) ||
      !get_u64(*bv, "next_fd", &next_fd, error, ctx.c_str())) {
    return false;
  }
  if (kernel::Task* nt = k.task(eng.broker_->native_task_)) {
    nt->fds.set_next_fd(static_cast<int32_t>(next_fd));
  }

  const obs::JsonValue* fv = member(d, "fault");
  if ((fv != nullptr) != (eng.fault_ != nullptr)) {
    return fail(error, ctx + ": fault configuration mismatch");
  }
  if (fv != nullptr) {
    util::RngState frng;
    uint64_t decisions = 0;
    FaultTotals& t = eng.fault_->totals();
    if (!get_rng(*fv, "rng", &frng, error, ctx.c_str()) ||
        !get_u64(*fv, "decisions", &decisions, error, ctx.c_str()) ||
        !get_u64(*fv, "injected", &t.injected, error, ctx.c_str()) ||
        !get_u64(*fv, "hangs", &t.hangs, error, ctx.c_str()) ||
        !get_u64(*fv, "transport_errors", &t.transport_errors, error,
                 ctx.c_str()) ||
        !get_u64(*fv, "reboots", &t.reboots, error, ctx.c_str()) ||
        !get_u64(*fv, "kasan_reboots", &t.kasan_reboots, error,
                 ctx.c_str()) ||
        !get_u64(*fv, "retries", &t.retries, error, ctx.c_str()) ||
        !get_u64(*fv, "lost_execs", &t.lost_execs, error, ctx.c_str()) ||
        !get_u64(*fv, "recovery_virtual_us", &t.recovery_virtual_us, error,
                 ctx.c_str())) {
      return false;
    }
    eng.fault_->plan().restore(frng, decisions);
  }

  std::vector<uint64_t> features;
  if (!get_u64_array(d, "features", &features, error, ctx.c_str())) {
    return false;
  }
  eng.features_.add_new(features);

  const obs::JsonValue* cv = member(d, "corpus");
  if (cv == nullptr) return fail(error, ctx + ": missing 'corpus'");
  uint64_t picks = 0;
  if (!get_u64(*cv, "picks", &picks, error, ctx.c_str())) return false;
  const obs::JsonValue* seeds = member(*cv, "seeds");
  if (seeds == nullptr || !seeds->is_array()) {
    return fail(error, ctx + ": missing 'corpus.seeds'");
  }
  for (const auto& sv : seeds->items) {
    Seed seed;
    uint64_t nf = 0;
    std::string origin;
    if (!parse_program_field(sv, "prog", eng, &seed.prog, error,
                             ctx.c_str()) ||
        !get_u64(sv, "new_features", &nf, error, ctx.c_str()) ||
        !get_u64(sv, "exec_index", &seed.exec_index, error, ctx.c_str()) ||
        !get_u64(sv, "hits", &seed.hits, error, ctx.c_str()) ||
        !get_str(sv, "origin", &origin, error, ctx.c_str()) ||
        !get_u64(sv, "parent", &seed.parent_hash, error, ctx.c_str())) {
      return false;
    }
    const auto o = obs::origin_from_name(origin);
    if (!o.has_value()) {
      return fail(error, ctx + ": unknown seed origin '" + origin + "'");
    }
    seed.origin = *o;
    seed.new_features = static_cast<size_t>(nf);
    // Corpus::add recomputes hash and generation depth; seeds restore in
    // insertion order, so every parent is present before its children and
    // the derived depths match the saved campaign exactly.
    eng.corpus_.add(std::move(seed));
  }
  eng.corpus_.restore_picks(picks);

  const obs::JsonValue* rv = member(d, "relations");
  if (rv == nullptr || !rv->is_array()) {
    return fail(error, ctx + ": missing 'relations'");
  }
  for (const auto& ev : rv->items) {
    if (!ev.is_array() || ev.items.size() != 3) {
      return fail(error, ctx + ": malformed relation edge");
    }
    eng.rel_.restore_edge(
        static_cast<size_t>(ev.items[0].as_u64()),
        static_cast<size_t>(ev.items[1].as_u64()),
        std::bit_cast<double>(ev.items[2].as_u64()));
  }

  const obs::JsonValue* bugs = member(d, "bugs");
  if (bugs == nullptr) return fail(error, ctx + ": missing 'bugs'");
  uint64_t total_reports = 0;
  if (!get_u64(*bugs, "total_reports", &total_reports, error, ctx.c_str())) {
    return false;
  }
  const obs::JsonValue* records = member(*bugs, "records");
  if (records == nullptr || !records->is_array()) {
    return fail(error, ctx + ": missing 'bugs.records'");
  }
  for (const auto& bv2 : records->items) {
    BugRecord b;
    if (!get_str(bv2, "title", &b.title, error, ctx.c_str()) ||
        !get_str(bv2, "component", &b.component, error, ctx.c_str()) ||
        !get_str(bv2, "origin", &b.origin, error, ctx.c_str()) ||
        !get_str(bv2, "bug_class", &b.bug_class, error, ctx.c_str()) ||
        !get_u64(bv2, "first_exec", &b.first_exec, error, ctx.c_str()) ||
        !get_u64(bv2, "dup_count", &b.dup_count, error, ctx.c_str()) ||
        !get_str(bv2, "repro", &b.repro_text, error, ctx.c_str())) {
      return false;
    }
    auto prog = dsl::parse_program(b.repro_text, eng.calls());
    if (!prog.has_value()) {
      return fail(error, ctx + ": unparsable bug reproducer");
    }
    b.repro = std::move(*prog);
    const obs::JsonValue* lv = member(bv2, "lineage");
    if (lv == nullptr || !lv->is_array()) {
      return fail(error, ctx + ": bug record without 'lineage'");
    }
    for (const auto& linkv : lv->items) {
      obs::LineageLink l;
      std::string oname;
      if (!get_u64(linkv, "hash", &l.hash, error, ctx.c_str()) ||
          !get_str(linkv, "origin", &oname, error, ctx.c_str()) ||
          !get_u64(linkv, "exec", &l.exec_index, error, ctx.c_str()) ||
          !get_u64(linkv, "depth", &l.depth, error, ctx.c_str())) {
        return false;
      }
      const auto lo = obs::origin_from_name(oname);
      if (!lo.has_value()) {
        return fail(error, ctx + ": unknown lineage origin '" + oname + "'");
      }
      l.origin = *lo;
      b.lineage.push_back(l);
    }
    eng.crash_log_.restore_bug(std::move(b));
  }
  eng.crash_log_.set_total_reports(total_reports);

  // Snapshots first: plan_queue entries reference them by seq.
  const obs::JsonValue* snv = member(d, "snapshots");
  if (snv == nullptr) return fail(error, ctx + ": missing 'snapshots'");
  uint64_t snap_enabled = 0;
  uint64_t snap_every = 0;
  if (!get_u64(*snv, "enabled", &snap_enabled, error, ctx.c_str()) ||
      !get_u64(*snv, "every", &snap_every, error, ctx.c_str())) {
    return false;
  }
  if ((snap_enabled != 0) != eng.cfg_.use_snapshots ||
      (snap_enabled != 0 && snap_every != eng.cfg_.snapshot_every)) {
    return fail(error, ctx +
                           ": snapshot configuration mismatch (checkpoint "
                           "enabled=" +
                           std::to_string(snap_enabled) + " every=" +
                           std::to_string(snap_every) + ", engine enabled=" +
                           std::to_string(eng.cfg_.use_snapshots ? 1 : 0) +
                           " every=" +
                           std::to_string(eng.cfg_.snapshot_every) + ")");
  }
  if (!get_u64(*snv, "seq", &eng.snap_seq_, error, ctx.c_str())) {
    return false;
  }
  const obs::JsonValue* stats = member(*snv, "stats");
  if (stats == nullptr || !stats->is_array() || stats->items.size() != 10) {
    return fail(error, ctx + ": missing or malformed 'snapshots.stats'");
  }
  SnapshotStats& st = eng.snap_stats_;
  st.captures = stats->items[0].as_u64();
  st.restores = stats->items[1].as_u64();
  st.forks = stats->items[2].as_u64();
  st.fault_recoveries = stats->items[3].as_u64();
  st.prefix_execs_saved = stats->items[4].as_u64();
  st.prefix_calls_saved = stats->items[5].as_u64();
  st.sections_total = stats->items[6].as_u64();
  st.sections_shared = stats->items[7].as_u64();
  st.bytes_total = stats->items[8].as_u64();
  st.bytes_shared = stats->items[9].as_u64();
  const obs::JsonValue* imgs = member(*snv, "images");
  if (imgs == nullptr || !imgs->is_array()) {
    return fail(error, ctx + ": missing 'snapshots.images'");
  }
  // Rebuild shared_ptr identity by seq: the pool, the fault-recovery
  // anchor, and queue entries that referenced the same snapshot on the
  // save side share one object again after restore.
  std::map<uint64_t, std::shared_ptr<const device::StateSnapshot>> by_seq;
  for (const auto& iv : imgs->items) {
    if (!iv.is_string()) {
      return fail(error, ctx + ": snapshot image is not a hex string");
    }
    std::vector<uint8_t> bytes;
    if (!bytes_from_hex(iv.scalar, &bytes)) {
      return fail(error, ctx + ": snapshot image is not valid hex");
    }
    device::StateSnapshot snap;
    std::string snap_error;
    if (!device::snapshot_from_bytes(bytes, &snap, &snap_error)) {
      return fail(error, ctx + ": snapshot image (" + snap_error + ")");
    }
    const uint64_t seq = snap.seq;
    by_seq[seq] =
        std::make_shared<const device::StateSnapshot>(std::move(snap));
  }
  std::vector<uint64_t> pool_seqs;
  if (!get_u64_array(*snv, "pool", &pool_seqs, error, ctx.c_str())) {
    return false;
  }
  for (uint64_t seq : pool_seqs) {
    const auto it = by_seq.find(seq);
    if (it == by_seq.end()) {
      return fail(error, ctx + ": pool references missing snapshot " +
                             std::to_string(seq));
    }
    eng.snap_pool_.push_back(it->second);
  }
  uint64_t last_good = 0;
  if (!get_u64(*snv, "last_good", &last_good, error, ctx.c_str())) {
    return false;
  }
  if (last_good != 0) {
    const auto it = by_seq.find(last_good);
    if (it == by_seq.end()) {
      return fail(error, ctx + ": last_good references missing snapshot " +
                             std::to_string(last_good));
    }
    eng.last_good_ = it->second;
  }

  const obs::JsonValue* pq = member(d, "plan_queue");
  if (pq == nullptr || !pq->is_array()) {
    return fail(error, ctx + ": missing 'plan_queue'");
  }
  for (const auto& pv : pq->items) {
    Engine::QueuedProgram q;
    std::string oname;
    uint64_t td = 0;
    uint64_t ts = 0;
    uint64_t qsnap = 0;
    const obs::JsonValue* ht = member(pv, "has_target");
    if (!parse_program_field(pv, "prog", eng, &q.prog, error, ctx.c_str()) ||
        !get_str(pv, "origin", &oname, error, ctx.c_str()) ||
        !get_u64(pv, "parent", &q.parent_hash, error, ctx.c_str()) ||
        !get_u64(pv, "target_driver", &td, error, ctx.c_str()) ||
        !get_u64(pv, "target_state", &ts, error, ctx.c_str()) ||
        !get_u64(pv, "snapshot", &qsnap, error, ctx.c_str())) {
      return false;
    }
    if (ht == nullptr) {
      return fail(error, ctx + ": plan_queue entry without 'has_target'");
    }
    const auto qo = obs::origin_from_name(oname);
    if (!qo.has_value()) {
      return fail(error, ctx + ": unknown plan_queue origin '" + oname + "'");
    }
    q.origin = *qo;
    q.has_target = ht->boolean;
    q.target_driver = static_cast<size_t>(td);
    q.target_state = static_cast<size_t>(ts);
    if (qsnap != 0) {
      const auto it = by_seq.find(qsnap);
      if (it == by_seq.end()) {
        return fail(error, ctx + ": plan_queue references missing snapshot " +
                               std::to_string(qsnap));
      }
      q.snapshot = it->second;
    }
    eng.plan_queue_.push_back(std::move(q));
  }

  const obs::JsonValue* av = member(d, "attribution");
  if (av == nullptr || !av->is_array() ||
      av->items.size() != obs::kProgramOriginCount) {
    return fail(error, ctx + ": missing or malformed 'attribution'");
  }
  for (size_t i = 0; i < av->items.size(); ++i) {
    const obs::JsonValue& rowv = av->items[i];
    if (!rowv.is_array() || rowv.items.size() != 6) {
      return fail(error, ctx + ": malformed attribution row");
    }
    obs::OperatorYield y;
    y.attempts = rowv.items[0].as_u64();
    y.total_calls = rowv.items[1].as_u64();
    y.accepts = rowv.items[2].as_u64();
    y.new_features = rowv.items[3].as_u64();
    y.new_states = rowv.items[4].as_u64();
    y.bugs = rowv.items[5].as_u64();
    eng.attribution_.restore_row(static_cast<obs::ProgramOrigin>(i), y);
  }

  const obs::JsonValue* pav = member(d, "plan_attempts");
  if (pav == nullptr || !pav->is_array()) {
    return fail(error, ctx + ": missing 'plan_attempts'");
  }
  for (const auto& pv : pav->items) {
    uint64_t di = 0;
    uint64_t st = 0;
    Engine::PlanAttempt pa;
    if (!get_u64(pv, "driver", &di, error, ctx.c_str()) ||
        !get_u64(pv, "state", &st, error, ctx.c_str()) ||
        !get_u64(pv, "injected", &pa.injected, error, ctx.c_str()) ||
        !get_u64(pv, "materialize_failed", &pa.materialize_failed, error,
                 ctx.c_str()) ||
        !get_u64(pv, "executed_no_visit", &pa.executed_no_visit, error,
                 ctx.c_str())) {
      return false;
    }
    eng.plan_attempts_[{static_cast<size_t>(di), static_cast<size_t>(st)}] =
        pa;
  }

  const obs::JsonValue* dv = member(d, "drivers");
  if (dv == nullptr || !dv->is_array() ||
      dv->items.size() != k.drivers().size()) {
    return fail(error, ctx + ": driver tally count mismatch");
  }
  for (size_t i = 0; i < dv->items.size(); ++i) {
    const obs::JsonValue& tv = dv->items[i];
    uint64_t cur = 0;
    std::vector<uint64_t> visits;
    std::vector<uint64_t> matrix;
    std::string state_hex;
    if (!get_u64(tv, "current", &cur, error, ctx.c_str()) ||
        !get_u64_array(tv, "visits", &visits, error, ctx.c_str()) ||
        !get_u64_array(tv, "matrix", &matrix, error, ctx.c_str()) ||
        !get_str(tv, "state", &state_hex, error, ctx.c_str())) {
      return false;
    }
    std::vector<uint8_t> state_bytes;
    if (!bytes_from_hex(state_hex, &state_bytes)) {
      return fail(error, ctx + ": driver state blob is not valid hex");
    }
    // Overwrites the post-reboot live fields with the save side's — both
    // sides are freshly barrier-rebooted here, so only the
    // reboot-persistent fields actually change.
    kernel::StateReader sr(state_bytes);
    k.drivers()[i]->load_state(sr);
    if (!sr.done()) {
      return fail(error, ctx + ": driver state blob does not match driver");
    }
    k.drivers()[i]->restore_state_tallies(static_cast<size_t>(cur),
                                          std::move(visits),
                                          std::move(matrix));
  }
  return true;
}

// --- observability serialization ------------------------------------------

namespace {

void serialize_obs(obs::JsonWriter& w, const obs::Observability& o) {
  const obs::Snapshot snap = o.registry.snapshot();
  w.key("obs").begin_object();
  w.key("counters").begin_array();
  for (const auto& c : snap.counters) {
    w.begin_object();
    w.field("name", c.name);
    w.field("label", c.label);
    w.field("value", c.value);
    w.end_object();
  }
  w.end_array();
  w.key("gauges").begin_array();
  for (const auto& g : snap.gauges) {
    w.begin_object();
    w.field("name", g.name);
    w.field("label", g.label);
    w.field("bits", bits_of(g.value));
    w.end_object();
  }
  w.end_array();
  w.key("histogram_counts").begin_array();
  for (const auto& h : snap.histograms) {
    w.begin_object();
    w.field("name", h.name);
    w.field("label", h.label);
    w.field("count", h.count);
    w.end_object();
  }
  w.end_array();
  w.field("emitted", o.trace.emitted());
  w.key("events").begin_array();
  const size_t n = o.trace.size();
  for (size_t i = 0; i < n; ++i) {
    const obs::TraceEvent& ev = o.trace.at(i);
    w.begin_object();
    w.field("kind", obs::kind_name(ev.kind));
    w.field("device", ev.device);
    w.field("exec", ev.exec_index);
    w.key("fields").begin_array();
    for (const auto& f : ev.fields) {
      w.begin_object();
      w.field("k", f.key);
      if (f.is_num) {
        w.field("n", hex64(f.num));
      } else {
        w.field("s", f.str);
      }
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

bool restore_obs(const obs::JsonValue& ov, obs::Observability& o,
                 std::string* error) {
  const char* ctx = "obs";
  const obs::JsonValue* counters = member(ov, "counters");
  if (counters == nullptr || !counters->is_array()) {
    return fail(error, "obs: missing 'counters'");
  }
  for (const auto& cv : counters->items) {
    std::string name;
    std::string label;
    uint64_t value = 0;
    if (!get_str(cv, "name", &name, error, ctx) ||
        !get_str(cv, "label", &label, error, ctx) ||
        !get_u64(cv, "value", &value, error, ctx)) {
      return false;
    }
    obs::Counter& c = o.registry.counter(name, label);
    c.reset();
    c.inc(value);
  }
  const obs::JsonValue* gauges = member(ov, "gauges");
  if (gauges == nullptr || !gauges->is_array()) {
    return fail(error, "obs: missing 'gauges'");
  }
  for (const auto& gv : gauges->items) {
    std::string name;
    std::string label;
    uint64_t bits = 0;
    if (!get_str(gv, "name", &name, error, ctx) ||
        !get_str(gv, "label", &label, error, ctx) ||
        !get_u64(gv, "bits", &bits, error, ctx)) {
      return false;
    }
    o.registry.gauge(name, label).set(std::bit_cast<double>(bits));
  }
  const obs::JsonValue* hists = member(ov, "histogram_counts");
  if (hists == nullptr || !hists->is_array()) {
    return fail(error, "obs: missing 'histogram_counts'");
  }
  for (const auto& hv : hists->items) {
    std::string name;
    std::string label;
    uint64_t count = 0;
    if (!get_str(hv, "name", &name, error, ctx) ||
        !get_str(hv, "label", &label, error, ctx) ||
        !get_u64(hv, "count", &count, error, ctx)) {
      return false;
    }
    o.registry.histogram(name, label).restore_count(count);
  }

  const obs::JsonValue* events = member(ov, "events");
  if (events == nullptr || !events->is_array()) {
    return fail(error, "obs: missing 'events'");
  }
  uint64_t emitted = 0;
  if (!get_u64(ov, "emitted", &emitted, error, ctx)) return false;
  const uint64_t replayed = events->items.size();
  o.trace.reset_retained(emitted >= replayed ? emitted - replayed : 0);
  for (const auto& ev : events->items) {
    obs::TraceEvent out;
    std::string kind;
    if (!get_str(ev, "kind", &kind, error, ctx) ||
        !get_str(ev, "device", &out.device, error, ctx) ||
        !get_u64(ev, "exec", &out.exec_index, error, ctx)) {
      return false;
    }
    if (!obs::kind_from_name(kind, &out.kind)) {
      return fail(error, "obs: unknown event kind '" + kind + "'");
    }
    const obs::JsonValue* fields = member(ev, "fields");
    if (fields == nullptr || !fields->is_array()) {
      return fail(error, "obs: event without 'fields'");
    }
    for (const auto& f : fields->items) {
      std::string key;
      if (!get_str(f, "k", &key, error, ctx)) return false;
      if (const obs::JsonValue* num = member(f, "n")) {
        out.with(std::move(key), num->as_u64());
      } else if (const obs::JsonValue* str = member(f, "s")) {
        out.with(std::move(key), str->scalar);
      } else {
        return fail(error, "obs: event field without value");
      }
    }
    o.trace.emit(std::move(out));
  }
  return true;
}

// --- reporter serialization ------------------------------------------------

void serialize_reporter(obs::JsonWriter& w, const obs::StatsReporter& r) {
  w.key("reporter").begin_object();
  w.key("devices").begin_array();
  for (const std::string& dev : r.devices()) {
    w.begin_object();
    w.field("device", dev);
    w.key("points").begin_array();
    for (const obs::StatsReporter::Point& p : r.series(dev)) {
      w.begin_object();
      w.field("executions", p.sample.executions);
      w.field("kernel_coverage", p.sample.kernel_coverage);
      w.field("total_coverage", p.sample.total_coverage);
      w.field("corpus", p.sample.corpus_size);
      w.field("bugs", p.sample.unique_bugs);
      w.field("relation_edges", p.sample.relation_edges);
      w.field("reboots", p.sample.reboots);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("watch").begin_array();
  for (const auto& ws : r.watch_states()) {
    w.begin_object();
    w.field("device", ws.device);
    w.field("best_coverage", ws.best_coverage);
    w.field("last_progress_exec", ws.last_progress_exec);
    w.field("seeded", ws.seeded);
    w.field("stalled", ws.stalled);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

bool restore_reporter(const obs::JsonValue& rv, obs::StatsReporter& r,
                      std::string* error) {
  const char* ctx = "reporter";
  const obs::JsonValue* devices = member(rv, "devices");
  if (devices == nullptr || !devices->is_array()) {
    return fail(error, "reporter: missing 'devices'");
  }
  for (const auto& dv : devices->items) {
    std::string device;
    if (!get_str(dv, "device", &device, error, ctx)) return false;
    const obs::JsonValue* points = member(dv, "points");
    if (points == nullptr || !points->is_array()) {
      return fail(error, "reporter: device without 'points'");
    }
    for (const auto& pv : points->items) {
      obs::StatsReporter::Point p;
      // secs is wall-dependent and excluded from determinism comparisons;
      // restored points restart the timing axis at 0.
      if (!get_u64(pv, "executions", &p.sample.executions, error, ctx) ||
          !get_u64(pv, "kernel_coverage", &p.sample.kernel_coverage, error,
                   ctx) ||
          !get_u64(pv, "total_coverage", &p.sample.total_coverage, error,
                   ctx) ||
          !get_u64(pv, "corpus", &p.sample.corpus_size, error, ctx) ||
          !get_u64(pv, "bugs", &p.sample.unique_bugs, error, ctx) ||
          !get_u64(pv, "relation_edges", &p.sample.relation_edges, error,
                   ctx) ||
          !get_u64(pv, "reboots", &p.sample.reboots, error, ctx)) {
        return false;
      }
      r.restore_point(device, p);
    }
  }
  const obs::JsonValue* watch = member(rv, "watch");
  if (watch == nullptr || !watch->is_array()) {
    return fail(error, "reporter: missing 'watch'");
  }
  for (const auto& wv : watch->items) {
    obs::StatsReporter::WatchState ws;
    const obs::JsonValue* sv = member(wv, "seeded");
    const obs::JsonValue* tv = member(wv, "stalled");
    if (!get_str(wv, "device", &ws.device, error, ctx) ||
        !get_u64(wv, "best_coverage", &ws.best_coverage, error, ctx) ||
        !get_u64(wv, "last_progress_exec", &ws.last_progress_exec, error,
                 ctx) ||
        sv == nullptr || tv == nullptr) {
      return fail(error, "reporter: malformed watch entry");
    }
    ws.seeded = sv->boolean;
    ws.stalled = tv->boolean;
    r.restore_watch(ws);
  }
  return true;
}

}  // namespace

std::string CampaignCheckpoint::serialize(Daemon& daemon) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("checkpoint").begin_object();
  w.field("version", kVersion);
  w.field("seed", hex64(daemon.cfg_.seed));
  w.field("progress", daemon.progress_);
  w.field("pending_sample", daemon.pending_sample_);
  w.key("devices").begin_array();
  for (auto& slot : daemon.engines_) {
    serialize_device(w, slot.id, *slot.eng);
  }
  w.end_array();
  if (daemon.obs_ != nullptr) serialize_obs(w, *daemon.obs_);
  if (daemon.reporter_ != nullptr) serialize_reporter(w, *daemon.reporter_);
  w.end_object();
  w.end_object();
  return w.take();
}

bool CampaignCheckpoint::restore(Daemon& daemon, const std::string& json,
                                 std::string* error) {
  std::string parse_error;
  auto doc = obs::json_parse(json, &parse_error);
  if (!doc.has_value()) {
    return fail(error, "malformed JSON (" + parse_error + ")");
  }
  const obs::JsonValue* cp = member(*doc, "checkpoint");
  if (cp == nullptr) return fail(error, "not a checkpoint document");
  uint64_t version = 0;
  uint64_t seed = 0;
  if (!get_u64(*cp, "version", &version, error, "header") ||
      !get_u64(*cp, "seed", &seed, error, "header") ||
      !get_u64(*cp, "progress", &daemon.progress_, error, "header") ||
      !get_u64(*cp, "pending_sample", &daemon.pending_sample_, error,
               "header")) {
    return false;
  }
  if (version != kVersion) {
    return fail(error, "unsupported version " + std::to_string(version));
  }
  if (seed != daemon.cfg_.seed) {
    return fail(error, "seed mismatch (checkpoint " + hex64(seed) +
                           ", daemon " + hex64(daemon.cfg_.seed) + ")");
  }
  const obs::JsonValue* devices = member(*cp, "devices");
  if (devices == nullptr || !devices->is_array() ||
      devices->items.size() != daemon.engines_.size()) {
    return fail(error, "device set mismatch");
  }
  for (size_t i = 0; i < devices->items.size(); ++i) {
    std::string id;
    if (!get_str(devices->items[i], "id", &id, error, "device")) return false;
    if (id != daemon.engines_[i].id) {
      return fail(error, "device order mismatch: checkpoint has '" + id +
                             "', daemon has '" + daemon.engines_[i].id + "'");
    }
    if (!restore_device(devices->items[i], id, *daemon.engines_[i].eng,
                        error)) {
      return false;
    }
  }
  // Observability restore comes last: the per-device setup()+reboot() above
  // bumped probe/reboot metrics and emitted events, all of which the saved
  // snapshot overwrites.
  if (daemon.obs_ != nullptr) {
    if (const obs::JsonValue* ov = member(*cp, "obs")) {
      if (!restore_obs(*ov, *daemon.obs_, error)) return false;
    }
  }
  if (daemon.reporter_ != nullptr) {
    if (const obs::JsonValue* rv = member(*cp, "reporter")) {
      if (!restore_reporter(*rv, *daemon.reporter_, error)) return false;
    }
  }
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
