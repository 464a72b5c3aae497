#include "core/fuzz/checkpoint.h"

#include <bit>
#include <filesystem>
#include <fstream>
#include <map>

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

// 64-bit values (RNG words, cursors, double bit patterns) are stored as
// "0x..." strings: JsonWriter prints doubles with %.6g, which does not
// round-trip, and u64 cursors can exceed the 2^53 double-exact range.
using util::hex_u64;

std::string bits_of(double d) { return hex_u64(std::bit_cast<uint64_t>(d)); }

// Snapshot byte images travel as lowercase hex strings: JSON has no byte
// type, and base64 would need a decoder obs/json_parse.h does not have.
std::string hex_bytes(const std::vector<uint8_t>& bytes) {
  std::string out;
  util::append_hex_bytes(out, bytes.data(), bytes.size());
  return out;
}

void write_rng(obs::JsonWriter& w, std::string_view key,
               const util::RngState& st) {
  w.key(key).begin_array();
  for (uint64_t word : st.s) w.value(hex_u64(word));
  w.end_array();
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
  w.field("next_map", hex_u64(kc.next_map));
  w.field("next_task", static_cast<uint64_t>(kc.next_task));
  w.field("heap_next", hex_u64(kc.heap_next));
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
  for (uint64_t f : eng.features_.values()) w.value(hex_u64(f));
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
    w.field("origin", obs::origin_name(s.origin));
    w.field("parent", hex_u64(s.parent_hash));
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
      w.field("hash", hex_u64(l.hash));
      w.field("origin", obs::origin_name(l.origin));
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
    w.field("origin", obs::origin_name(q.origin));
    w.field("parent", hex_u64(q.parent_hash));
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

// --- restore side ------------------------------------------------------------
//
// restore() reads the document once, in the order serialize() writes it:
// every key must come where the writer puts it, and every count is decoded
// strictly. A reader failure carries its offset and field; read_fail adds
// where in the document it happened, unless a semantic check already
// described the failure.

namespace {

using obs::JsonReader;

bool fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = "checkpoint: " + what;
  return false;
}

bool read_fail(const JsonReader& r, std::string* error,
               const std::string& ctx) {
  if (error->empty()) fail(error, ctx + ": " + r.error());
  return false;
}

bool u64_field(JsonReader& r, std::string_view key, uint64_t* out) {
  return r.expect_key(key) && r.read_u64(out);
}

bool hex_field(JsonReader& r, std::string_view key, uint64_t* out) {
  return r.expect_key(key) && r.read_hex_u64(out);
}

bool bool_field(JsonReader& r, std::string_view key, bool* out) {
  return r.expect_key(key) && r.read_bool(out);
}

// The view stays valid until the reader's next string.
bool str_field(JsonReader& r, std::string_view key, std::string_view* out) {
  return r.expect_key(key) && r.read_string(out);
}

bool str_field(JsonReader& r, std::string_view key, std::string* out) {
  return r.expect_key(key) && r.read_string(out);
}

bool rng_field(JsonReader& r, std::string_view key, util::RngState* out) {
  if (!r.expect_key(key) || !r.begin_array()) return false;
  for (uint64_t& word : out->s) {
    if (!r.read_hex_u64(&word)) return false;
  }
  return r.end_array();
}

// A whole array of decimal (or, with `hex`, "0x...") u64s.
bool u64_array(JsonReader& r, std::vector<uint64_t>* out, bool hex) {
  if (!r.begin_array()) return false;
  while (r.more()) {
    uint64_t v = 0;
    if (!(hex ? r.read_hex_u64(&v) : r.read_u64(&v))) return false;
    out->push_back(v);
  }
  return r.end_array();
}

// A fixed-length array of decimal u64s, one per field.
bool u64_row(JsonReader& r, std::initializer_list<uint64_t*> fields) {
  if (!r.begin_array()) return false;
  for (uint64_t* f : fields) {
    if (!r.read_u64(f)) return false;
  }
  return r.end_array();
}

bool origin_field(JsonReader& r, std::string_view key, const char* what,
                  obs::ProgramOrigin* out, std::string* error,
                  const std::string& ctx) {
  std::string_view name;
  if (!str_field(r, key, &name)) return false;
  const auto o = obs::origin_from_name(name);
  if (!o.has_value()) {
    return fail(error, ctx + ": unknown " + what + " origin '" +
                           std::string(name) + "'");
  }
  *out = *o;
  return true;
}

// A program field, parsed straight from the reader's view of the text.
bool program_field(JsonReader& r, std::string_view key,
                   const dsl::CallTable& calls, dsl::Program* out,
                   std::string* error, const std::string& ctx) {
  std::string_view text;
  if (!str_field(r, key, &text)) return false;
  auto prog = dsl::parse_program(text, calls);
  if (!prog.has_value()) return fail(error, ctx + ": unparsable program");
  *out = std::move(*prog);
  return true;
}

}  // namespace

bool CampaignCheckpoint::restore_device(obs::JsonReader& r, Engine& eng,
                                        const std::string& ctx,
                                        std::string* error) {
  device::Device& dev = eng.dev_;
  kernel::Kernel& k = dev.kernel();
  const auto bad = [&] { return read_fail(r, error, ctx); };

  // Mirror the save-side sequence: a fully set-up engine on a freshly
  // barrier-rebooted device, then overwrite every cursor/stream.
  eng.setup();
  dev.reboot();

  util::RngState rng;
  if (!u64_field(r, "exec_count", &eng.exec_count_) ||
      !rng_field(r, "rng", &rng)) {
    return bad();
  }
  eng.rng_.set_state(rng);

  kernel::Kernel::Cursors kc;
  uint64_t next_task = 0;
  if (!r.expect_key("kernel") || !r.begin_object() ||
      !rng_field(r, "rng", &kc.rng) ||
      !u64_field(r, "reboots", &kc.reboot_count) ||
      !u64_field(r, "syscalls", &kc.syscall_count) ||
      !hex_field(r, "next_map", &kc.next_map) ||
      !u64_field(r, "next_task", &next_task) ||
      !hex_field(r, "heap_next", &kc.heap_next) || !r.end_object()) {
    return bad();
  }
  kc.next_task = static_cast<uint32_t>(next_task);
  k.restore_cursors(kc);

  uint64_t next_fd = 0;
  if (!r.expect_key("broker") || !r.begin_object() ||
      !u64_field(r, "executions", &eng.broker_->executions_) ||
      !u64_field(r, "next_fd", &next_fd) || !r.end_object()) {
    return bad();
  }
  if (kernel::Task* nt = k.task(eng.broker_->native_task_)) {
    nt->fds.set_next_fd(static_cast<int32_t>(next_fd));
  }

  if (r.optional_key("fault") != (eng.fault_ != nullptr)) {
    if (!r.ok()) return bad();
    return fail(error, ctx + ": fault configuration mismatch");
  }
  if (eng.fault_ != nullptr) {
    util::RngState frng;
    uint64_t decisions = 0;
    FaultTotals& t = eng.fault_->totals();
    if (!r.begin_object() || !rng_field(r, "rng", &frng) ||
        !u64_field(r, "decisions", &decisions) ||
        !u64_field(r, "injected", &t.injected) ||
        !u64_field(r, "hangs", &t.hangs) ||
        !u64_field(r, "transport_errors", &t.transport_errors) ||
        !u64_field(r, "reboots", &t.reboots) ||
        !u64_field(r, "kasan_reboots", &t.kasan_reboots) ||
        !u64_field(r, "retries", &t.retries) ||
        !u64_field(r, "lost_execs", &t.lost_execs) ||
        !u64_field(r, "recovery_virtual_us", &t.recovery_virtual_us) ||
        !r.end_object()) {
      return bad();
    }
    eng.fault_->plan().restore(frng, decisions);
  }

  std::vector<uint64_t> features;
  if (!r.expect_key("features") || !u64_array(r, &features, /*hex=*/true)) {
    return bad();
  }
  eng.features_.add_new(features);

  uint64_t picks = 0;
  if (!r.expect_key("corpus") || !r.begin_object() ||
      !u64_field(r, "picks", &picks) || !r.expect_key("seeds") ||
      !r.begin_array()) {
    return bad();
  }
  while (r.more()) {
    Seed seed;
    uint64_t nf = 0;
    if (!r.begin_object() ||
        !program_field(r, "prog", eng.calls(), &seed.prog, error, ctx) ||
        !u64_field(r, "new_features", &nf) ||
        !u64_field(r, "exec_index", &seed.exec_index) ||
        !u64_field(r, "hits", &seed.hits) ||
        !origin_field(r, "origin", "seed", &seed.origin, error, ctx) ||
        !hex_field(r, "parent", &seed.parent_hash) || !r.end_object()) {
      return bad();
    }
    seed.new_features = static_cast<size_t>(nf);
    // Corpus::add recomputes hash and generation depth; seeds restore in
    // insertion order, so every parent is present before its children and
    // the derived depths match the saved campaign exactly.
    eng.corpus_.add(std::move(seed));
  }
  if (!r.end_array() || !r.end_object()) return bad();
  eng.corpus_.restore_picks(picks);

  if (!r.expect_key("relations") || !r.begin_array()) return bad();
  while (r.more()) {
    uint64_t from = 0;
    uint64_t to = 0;
    uint64_t weight = 0;
    if (!r.begin_array() || !r.read_u64(&from) || !r.read_u64(&to) ||
        !r.read_hex_u64(&weight) || !r.end_array()) {
      return bad();
    }
    eng.rel_.restore_edge(static_cast<size_t>(from), static_cast<size_t>(to),
                          std::bit_cast<double>(weight));
  }
  if (!r.end_array()) return bad();

  uint64_t total_reports = 0;
  if (!r.expect_key("bugs") || !r.begin_object() ||
      !u64_field(r, "total_reports", &total_reports) ||
      !r.expect_key("records") || !r.begin_array()) {
    return bad();
  }
  while (r.more()) {
    BugRecord b;
    if (!r.begin_object() || !str_field(r, "title", &b.title) ||
        !str_field(r, "component", &b.component) ||
        !str_field(r, "origin", &b.origin) ||
        !str_field(r, "bug_class", &b.bug_class) ||
        !u64_field(r, "first_exec", &b.first_exec) ||
        !u64_field(r, "dup_count", &b.dup_count) ||
        !str_field(r, "repro", &b.repro_text)) {
      return bad();
    }
    auto prog = dsl::parse_program(b.repro_text, eng.calls());
    if (!prog.has_value()) {
      return fail(error, ctx + ": unparsable bug reproducer");
    }
    b.repro = std::move(*prog);
    if (!r.expect_key("lineage") || !r.begin_array()) return bad();
    while (r.more()) {
      obs::LineageLink l;
      if (!r.begin_object() || !hex_field(r, "hash", &l.hash) ||
          !origin_field(r, "origin", "lineage", &l.origin, error, ctx) ||
          !u64_field(r, "exec", &l.exec_index) ||
          !u64_field(r, "depth", &l.depth) || !r.end_object()) {
        return bad();
      }
      b.lineage.push_back(l);
    }
    if (!r.end_array() || !r.end_object()) return bad();
    eng.crash_log_.restore_bug(std::move(b));
  }
  if (!r.end_array() || !r.end_object()) return bad();
  eng.crash_log_.set_total_reports(total_reports);

  // Queue entries name their fork snapshot by capture seq; the images come
  // after the queue, so the names resolve once "snapshots" is read.
  std::vector<std::pair<Engine::QueuedProgram, uint64_t>> queued;
  if (!r.expect_key("plan_queue") || !r.begin_array()) return bad();
  while (r.more()) {
    Engine::QueuedProgram q;
    uint64_t td = 0;
    uint64_t ts = 0;
    uint64_t seq = 0;
    if (!r.begin_object() ||
        !program_field(r, "prog", eng.calls(), &q.prog, error, ctx) ||
        !origin_field(r, "origin", "plan_queue", &q.origin, error, ctx) ||
        !hex_field(r, "parent", &q.parent_hash) ||
        !bool_field(r, "has_target", &q.has_target) ||
        !u64_field(r, "target_driver", &td) ||
        !u64_field(r, "target_state", &ts) ||
        !u64_field(r, "snapshot", &seq) || !r.end_object()) {
      return bad();
    }
    q.target_driver = static_cast<size_t>(td);
    q.target_state = static_cast<size_t>(ts);
    queued.emplace_back(std::move(q), seq);
  }
  if (!r.end_array()) return bad();

  uint64_t snap_enabled = 0;
  uint64_t snap_every = 0;
  if (!r.expect_key("snapshots") || !r.begin_object() ||
      !u64_field(r, "enabled", &snap_enabled) ||
      !u64_field(r, "every", &snap_every)) {
    return bad();
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
  SnapshotStats& st = eng.snap_stats_;
  if (!u64_field(r, "seq", &eng.snap_seq_) || !r.expect_key("stats") ||
      !u64_row(r, {&st.captures, &st.restores, &st.forks,
                   &st.fault_recoveries, &st.prefix_execs_saved,
                   &st.prefix_calls_saved, &st.sections_total,
                   &st.sections_shared, &st.bytes_total, &st.bytes_shared}) ||
      !r.expect_key("images") || !r.begin_array()) {
    return bad();
  }
  // Rebuild shared_ptr identity by seq: the pool, the fault-recovery
  // anchor, and queue entries that referenced the same snapshot on the
  // save side share one object again after restore.
  std::map<uint64_t, std::shared_ptr<const device::StateSnapshot>> by_seq;
  std::vector<uint8_t> bytes;
  while (r.more()) {
    std::string_view hex;
    if (!r.read_string(&hex)) return bad();
    if (!util::bytes_from_hex(hex, &bytes)) {
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
  uint64_t last_good = 0;
  if (!r.end_array() || !r.expect_key("pool") ||
      !u64_array(r, &pool_seqs, /*hex=*/false) ||
      !u64_field(r, "last_good", &last_good) || !r.end_object()) {
    return bad();
  }
  const auto snapshot = [&](uint64_t seq, const char* what,
                            std::shared_ptr<const device::StateSnapshot>* out) {
    const auto it = by_seq.find(seq);
    if (it == by_seq.end()) {
      return fail(error, ctx + ": " + what + " references missing snapshot " +
                             std::to_string(seq));
    }
    *out = it->second;
    return true;
  };
  for (uint64_t seq : pool_seqs) {
    if (!snapshot(seq, "pool", &eng.snap_pool_.emplace_back())) return false;
  }
  if (last_good != 0 && !snapshot(last_good, "last_good", &eng.last_good_)) {
    return false;
  }
  for (auto& [q, seq] : queued) {
    if (seq != 0 && !snapshot(seq, "plan_queue", &q.snapshot)) return false;
    eng.plan_queue_.push_back(std::move(q));
  }

  // Per-operator yield rows, in ProgramOrigin enum order.
  if (!r.expect_key("attribution") || !r.begin_array()) return bad();
  for (size_t i = 0; i < obs::kProgramOriginCount; ++i) {
    obs::OperatorYield y;
    if (!u64_row(r, {&y.attempts, &y.total_calls, &y.accepts,
                     &y.new_features, &y.new_states, &y.bugs})) {
      return bad();
    }
    eng.attribution_.restore_row(static_cast<obs::ProgramOrigin>(i), y);
  }
  if (!r.end_array()) return bad();

  if (!r.expect_key("plan_attempts") || !r.begin_array()) return bad();
  while (r.more()) {
    uint64_t di = 0;
    uint64_t si = 0;
    Engine::PlanAttempt pa;
    if (!r.begin_object() || !u64_field(r, "driver", &di) ||
        !u64_field(r, "state", &si) ||
        !u64_field(r, "injected", &pa.injected) ||
        !u64_field(r, "materialize_failed", &pa.materialize_failed) ||
        !u64_field(r, "executed_no_visit", &pa.executed_no_visit) ||
        !r.end_object()) {
      return bad();
    }
    eng.plan_attempts_[{static_cast<size_t>(di), static_cast<size_t>(si)}] =
        pa;
  }
  if (!r.end_array()) return bad();

  if (!r.expect_key("drivers") || !r.begin_array()) return bad();
  const auto& drivers = k.drivers();
  size_t i = 0;
  for (; r.more(); ++i) {
    if (i == drivers.size()) {
      return fail(error, ctx + ": driver tally count mismatch");
    }
    uint64_t cur = 0;
    std::vector<uint64_t> visits;
    std::vector<uint64_t> matrix;
    std::string_view state_hex;
    if (!r.begin_object() || !u64_field(r, "current", &cur) ||
        !r.expect_key("visits") || !u64_array(r, &visits, false) ||
        !r.expect_key("matrix") || !u64_array(r, &matrix, false) ||
        !str_field(r, "state", &state_hex) || !r.end_object()) {
      return bad();
    }
    if (!util::bytes_from_hex(state_hex, &bytes)) {
      return fail(error, ctx + ": driver state blob is not valid hex");
    }
    // Overwrites the post-reboot live fields with the save side's — both
    // sides are freshly barrier-rebooted here, so only the
    // reboot-persistent fields actually change.
    kernel::StateReader sr(bytes);
    drivers[i]->load_state(sr);
    if (!sr.done()) {
      return fail(error, ctx + ": driver state blob does not match driver");
    }
    drivers[i]->restore_state_tallies(static_cast<size_t>(cur),
                                      std::move(visits), std::move(matrix));
  }
  if (i != drivers.size()) {
    return fail(error, ctx + ": driver tally count mismatch");
  }
  if (!r.end_array() || !r.end_object()) return bad();
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
        w.field("n", hex_u64(f.num));
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

bool restore_obs(JsonReader& r, obs::Observability& o, std::string* error) {
  const std::string ctx = "obs";
  const auto bad = [&] { return read_fail(r, error, ctx); };
  std::string name;
  std::string_view label;
  if (!r.begin_object() || !r.expect_key("counters") || !r.begin_array()) {
    return bad();
  }
  while (r.more()) {
    uint64_t value = 0;
    if (!r.begin_object() || !str_field(r, "name", &name) ||
        !str_field(r, "label", &label) || !u64_field(r, "value", &value) ||
        !r.end_object()) {
      return bad();
    }
    obs::Counter& c = o.registry.counter(name, label);
    c.reset();
    c.inc(value);
  }
  if (!r.end_array() || !r.expect_key("gauges") || !r.begin_array()) {
    return bad();
  }
  while (r.more()) {
    uint64_t bits = 0;
    if (!r.begin_object() || !str_field(r, "name", &name) ||
        !str_field(r, "label", &label) || !hex_field(r, "bits", &bits) ||
        !r.end_object()) {
      return bad();
    }
    o.registry.gauge(name, label).set(std::bit_cast<double>(bits));
  }
  if (!r.end_array() || !r.expect_key("histogram_counts") ||
      !r.begin_array()) {
    return bad();
  }
  while (r.more()) {
    uint64_t count = 0;
    if (!r.begin_object() || !str_field(r, "name", &name) ||
        !str_field(r, "label", &label) || !u64_field(r, "count", &count) ||
        !r.end_object()) {
      return bad();
    }
    o.registry.histogram(name, label).restore_count(count);
  }

  // The retained-event base depends on how many events follow, so the
  // events are collected before the ring is reset and refilled.
  uint64_t emitted = 0;
  if (!r.end_array() || !u64_field(r, "emitted", &emitted) ||
      !r.expect_key("events") || !r.begin_array()) {
    return bad();
  }
  std::vector<obs::TraceEvent> events;
  while (r.more()) {
    obs::TraceEvent ev;
    std::string_view kind;
    if (!r.begin_object() || !str_field(r, "kind", &kind)) return bad();
    if (!obs::kind_from_name(kind, &ev.kind)) {
      return fail(error, "obs: unknown event kind '" + std::string(kind) + "'");
    }
    if (!str_field(r, "device", &ev.device) ||
        !u64_field(r, "exec", &ev.exec_index) || !r.expect_key("fields") ||
        !r.begin_array()) {
      return bad();
    }
    while (r.more()) {
      std::string key;
      if (!r.begin_object() || !str_field(r, "k", &key)) return bad();
      if (r.optional_key("n")) {
        uint64_t num = 0;
        if (!r.read_hex_u64(&num)) return bad();
        ev.with(std::move(key), num);
      } else {
        std::string str;
        if (!str_field(r, "s", &str)) return bad();
        ev.with(std::move(key), std::move(str));
      }
      if (!r.end_object()) return bad();
    }
    if (!r.end_array() || !r.end_object()) return bad();
    events.push_back(std::move(ev));
  }
  if (!r.end_array() || !r.end_object()) return bad();
  const uint64_t replayed = events.size();
  o.trace.reset_retained(emitted >= replayed ? emitted - replayed : 0);
  for (obs::TraceEvent& ev : events) o.trace.emit(std::move(ev));
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

bool restore_reporter(JsonReader& r, obs::StatsReporter& rep,
                      std::string* error) {
  const std::string ctx = "reporter";
  const auto bad = [&] { return read_fail(r, error, ctx); };
  if (!r.begin_object() || !r.expect_key("devices") || !r.begin_array()) {
    return bad();
  }
  std::string device;
  while (r.more()) {
    if (!r.begin_object() || !str_field(r, "device", &device) ||
        !r.expect_key("points") || !r.begin_array()) {
      return bad();
    }
    while (r.more()) {
      // secs is wall-dependent and excluded from determinism comparisons;
      // restored points restart the timing axis at 0.
      obs::StatsReporter::Point p;
      obs::EngineSample& s = p.sample;
      if (!r.begin_object() || !u64_field(r, "executions", &s.executions) ||
          !u64_field(r, "kernel_coverage", &s.kernel_coverage) ||
          !u64_field(r, "total_coverage", &s.total_coverage) ||
          !u64_field(r, "corpus", &s.corpus_size) ||
          !u64_field(r, "bugs", &s.unique_bugs) ||
          !u64_field(r, "relation_edges", &s.relation_edges) ||
          !u64_field(r, "reboots", &s.reboots) || !r.end_object()) {
        return bad();
      }
      rep.restore_point(device, p);
    }
    if (!r.end_array() || !r.end_object()) return bad();
  }
  if (!r.end_array() || !r.expect_key("watch") || !r.begin_array()) {
    return bad();
  }
  while (r.more()) {
    obs::StatsReporter::WatchState ws;
    if (!r.begin_object() || !str_field(r, "device", &ws.device) ||
        !u64_field(r, "best_coverage", &ws.best_coverage) ||
        !u64_field(r, "last_progress_exec", &ws.last_progress_exec) ||
        !bool_field(r, "seeded", &ws.seeded) ||
        !bool_field(r, "stalled", &ws.stalled) || !r.end_object()) {
      return bad();
    }
    rep.restore_watch(ws);
  }
  if (!r.end_array() || !r.end_object()) return bad();
  return true;
}

}  // namespace

std::string CampaignCheckpoint::serialize(Daemon& daemon) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("checkpoint").begin_object();
  w.field("version", kVersion);
  w.field("seed", hex_u64(daemon.cfg_.seed));
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

  obs::JsonReader r(json);
  if (!r.begin_object() || !r.expect_key("checkpoint") || !r.begin_object()) {
    return fail(error, "not a checkpoint document (" + r.error() + ")");
  }
  // The version comes first: a document of another version may be laid
  // out differently from here on.
  uint64_t version = 0;
  if (!u64_field(r, "version", &version)) return read_fail(r, error, "header");
  if (version != kVersion) {
    return fail(error, "unsupported version " + std::to_string(version));
  }
  uint64_t seed = 0;
  uint64_t progress = 0;
  uint64_t pending_sample = 0;
  if (!hex_field(r, "seed", &seed) || !u64_field(r, "progress", &progress) ||
      !u64_field(r, "pending_sample", &pending_sample)) {
    return read_fail(r, error, "header");
  }
  if (seed != daemon.cfg_.seed) {
    return fail(error, "seed mismatch (checkpoint " + hex_u64(seed) +
                           ", daemon " + hex_u64(daemon.cfg_.seed) + ")");
  }
  daemon.progress_ = progress;
  daemon.pending_sample_ = pending_sample;

  if (!r.expect_key("devices") || !r.begin_array()) {
    return read_fail(r, error, "header");
  }
  size_t i = 0;
  for (; r.more(); ++i) {
    if (i == daemon.engines_.size()) return fail(error, "device set mismatch");
    std::string_view id;
    if (!r.begin_object() || !str_field(r, "id", &id)) {
      return read_fail(r, error, "device");
    }
    if (id != daemon.engines_[i].id) {
      return fail(error, "device order mismatch: checkpoint has '" +
                             std::string(id) + "', daemon has '" +
                             daemon.engines_[i].id + "'");
    }
    if (!restore_device(r, *daemon.engines_[i].eng,
                        "device " + daemon.engines_[i].id, error)) {
      return false;
    }
  }
  if (i != daemon.engines_.size()) return fail(error, "device set mismatch");
  if (!r.end_array()) return read_fail(r, error, "header");

  // Observability restore comes last: the per-device setup()+reboot() above
  // bumped probe/reboot metrics and emitted events, all of which the saved
  // snapshot overwrites. A section the daemon has nothing to restore into
  // is skipped.
  if (r.optional_key("obs")) {
    if (daemon.obs_ != nullptr ? !restore_obs(r, *daemon.obs_, error)
                               : !r.skip_value()) {
      return read_fail(r, error, "obs");
    }
  }
  if (r.optional_key("reporter")) {
    if (daemon.reporter_ != nullptr
            ? !restore_reporter(r, *daemon.reporter_, error)
            : !r.skip_value()) {
      return read_fail(r, error, "reporter");
    }
  }
  if (!r.end_object() || !r.end_object() || !r.finish()) {
    return read_fail(r, error, "checkpoint");
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
