#include "core/gen/generator.h"

#include <algorithm>

#include "kernel/syscall.h"

namespace df::core {

using dsl::ArgKind;
using dsl::Call;
using dsl::CallDesc;
using dsl::Program;
using dsl::Value;

Generator::Generator(const dsl::CallTable& table, RelationGraph& rel,
                     Corpus& corpus, util::Rng& rng, GenConfig cfg)
    : table_(table), rel_(rel), corpus_(corpus), rng_(rng), cfg_(cfg) {}

bool Generator::allowed(const CallDesc* d) const {
  if (d == nullptr) return false;
  if (d->is_hal()) return cfg_.use_hal;
  if (!cfg_.ioctl_only) return true;
  // DROIDFUZZ-D: kernel requests other than ioctl are blocked; opens and
  // closes stay allowed as pure resource plumbing.
  const auto nr = static_cast<kernel::Sys>(d->sys_nr);
  return nr == kernel::Sys::kIoctl || nr == kernel::Sys::kOpenAt ||
         nr == kernel::Sys::kClose;
}

void Generator::refresh_draw_tables() {
  if (tables_size_ == table_.size() && tables_epoch_ == rel_.vertex_epoch()) {
    return;
  }
  tables_size_ = table_.size();
  tables_epoch_ = rel_.vertex_epoch();
  allowed_ = {};
  for (const CallDesc* d : table_.all()) {
    if (!allowed(d)) continue;
    allowed_.calls.push_back(d);
    // Weighted by vertex weight (interface ranking).
    const double vw = rel_.vertex_weight(d);
    allowed_.weights.push_back(vw > 0 ? vw : d->weight);
  }
  allowed_.total = util::weight_total(allowed_.weights);
  producer_tables_.clear();
  consumers_.clear();
}

const CallDesc* Generator::random_allowed_call() {
  refresh_draw_tables();
  if (allowed_.calls.empty()) return nullptr;
  return allowed_.calls[rng_.weighted(allowed_.weights, allowed_.total)];
}

const std::vector<size_t>& Generator::consumers_of(const CallDesc* producer) {
  auto [it, fresh] = consumers_.try_emplace(producer);
  if (fresh) {
    for (size_t i = 0; i < allowed_.calls.size(); ++i) {
      if (allowed_.calls[i]->consumes(producer->produces)) {
        it->second.push_back(i);
      }
    }
  }
  return it->second;
}

const CallDesc* Generator::pick_related_or_random(const dsl::Program& prog) {
  if (!prog.calls.empty() && rng_.prob(cfg_.related_bias)) {
    // Allowed calls consuming a resource type some call of this program
    // produces, in table order.
    refresh_draw_tables();
    std::vector<size_t> related;
    for (const dsl::Call& c : prog.calls) {
      if (c.desc != nullptr && !c.desc->produces.empty()) {
        const std::vector<size_t>& idx = consumers_of(c.desc);
        related.insert(related.end(), idx.begin(), idx.end());
      }
    }
    std::sort(related.begin(), related.end());
    related.erase(std::unique(related.begin(), related.end()), related.end());
    if (!related.empty()) {
      std::vector<double> w;
      w.reserve(related.size());
      for (size_t i : related) w.push_back(allowed_.weights[i]);
      return allowed_.calls[related[rng_.weighted(w)]];
    }
  }
  return random_allowed_call();
}

const CallDesc* Generator::choose_producer(std::string_view type) {
  refresh_draw_tables();
  auto it = producer_tables_.find(type);
  if (it == producer_tables_.end()) {
    DrawTable t;
    for (const CallDesc* d : table_.producers_of(type)) {
      if (!allowed(d)) continue;
      t.calls.push_back(d);
      t.weights.push_back(d->weight);
    }
    t.total = util::weight_total(t.weights);
    it = producer_tables_.emplace(std::string(type), std::move(t)).first;
  }
  const DrawTable& t = it->second;
  if (t.calls.empty()) return nullptr;
  return t.calls[rng_.weighted(t.weights, t.total)];
}

Call Generator::instantiate(const CallDesc* d) {
  Call c;
  c.desc = d;
  c.args.reserve(d->params.size());
  for (const auto& p : d->params) c.args.push_back(dsl::random_value(p, rng_));
  return c;
}

Program Generator::generate_fresh() {
  Program prog;
  const CallDesc* base = nullptr;
  for (int tries = 0; tries < 32 && base == nullptr; ++tries) {
    const CallDesc* cand =
        cfg_.use_relations ? rel_.pick_base(rng_) : random_allowed_call();
    if (allowed(cand)) base = cand;
  }
  if (base == nullptr) return prog;
  prog.calls.push_back(instantiate(base));

  const CallDesc* cur = base;
  while (prog.calls.size() < cfg_.max_calls) {
    const CallDesc* next = nullptr;
    if (cfg_.use_relations) {
      next = rel_.pick_next(cur, rng_);
      if (next != nullptr && !allowed(next)) next = nullptr;
    }
    if (next == nullptr) {
      // No learned edge fired (or NoRel mode): random continuation keeps
      // sequences from collapsing to singletons, biased toward calls that
      // consume resources this program already produces.
      if (!rng_.prob(cfg_.random_continue)) break;
      next = pick_related_or_random(prog);
      if (next == nullptr) break;
    }
    prog.calls.push_back(instantiate(next));
    cur = next;
  }
  resolve_producers(prog);
  return prog;
}

void Generator::resolve_producers(Program& prog) {
  size_t inserted = 0;
  for (size_t i = 0; i < prog.calls.size(); ++i) {
    // Index-based access: the vector may reallocate on insertion.
    for (size_t a = 0; a < prog.calls[i].args.size(); ++a) {
      const CallDesc* desc = prog.calls[i].desc;
      if (desc == nullptr || a >= desc->params.size()) break;
      const dsl::ParamDesc& p = desc->params[a];
      if (p.kind != ArgKind::kHandle) continue;

      Value& v = prog.calls[i].args[a];
      const bool already_ok =
          v.ref != Value::kNoRef && v.ref >= 0 &&
          static_cast<size_t>(v.ref) < i &&
          prog.calls[static_cast<size_t>(v.ref)].desc != nullptr &&
          prog.calls[static_cast<size_t>(v.ref)].desc->produces ==
              p.handle_type;
      if (already_ok) continue;

      // Prefer reusing an earlier producer — chosen uniformly among all of
      // them, not just the nearest: protocols like listen/connect/accept
      // need refs that skip over same-typed intermediate results.
      std::vector<int32_t> candidates;
      for (size_t j = 0; j < i; ++j) {
        if (prog.calls[j].desc != nullptr &&
            prog.calls[j].desc->produces == p.handle_type) {
          candidates.push_back(static_cast<int32_t>(j));
        }
      }
      if (!candidates.empty()) {
        v.ref = candidates[rng_.below(candidates.size())];
        continue;
      }

      // Insert a fresh producer as a prefix of the current call.
      if (inserted >= cfg_.producer_depth ||
          prog.calls.size() >= cfg_.max_total_calls) {
        v.ref = Value::kNoRef;
        continue;
      }
      const CallDesc* prod = choose_producer(p.handle_type);
      if (prod == nullptr) {
        v.ref = Value::kNoRef;
        continue;
      }
      Call pc = instantiate(prod);
      prog.calls.insert(prog.calls.begin() + static_cast<long>(i),
                        std::move(pc));
      ++inserted;
      // Shift every ref that pointed at index >= i.
      for (size_t j = 0; j < prog.calls.size(); ++j) {
        if (j == i) continue;  // the fresh producer has no resolved refs yet
        for (Value& val : prog.calls[j].args) {
          if (val.ref != Value::kNoRef &&
              static_cast<size_t>(val.ref) >= i) {
            ++val.ref;
          }
        }
      }
      // The current call moved to i + 1; bind its arg to the new producer.
      prog.calls[i + 1].args[a].ref = static_cast<int32_t>(i);
      // Reprocess from the inserted producer so *its* handles get resolved.
      --i;
      break;
    }
  }
}

obs::ProgramOrigin Generator::mutate_once(Program& prog) {
  enum { kArgMutate, kInsert, kRemove, kDuplicate, kSplice, kRewire };
  const int op = static_cast<int>(rng_.below(6));
  switch (op) {
    case kArgMutate: {
      if (prog.calls.empty()) break;
      Call& c = prog.calls[rng_.below(prog.calls.size())];
      if (c.desc == nullptr || c.desc->params.empty()) break;
      size_t a = rng_.below(c.desc->params.size());
      // Handle args keep their historical mutation rate: rewiring which
      // resource a protocol call operates on is what assembles the
      // multi-instance topologies (second socket connecting to a listener)
      // that guard hints cannot express, so the bias never steals an edit
      // that landed on one.
      const bool handle_edit =
          a < c.desc->params.size() &&
          c.desc->params[a].kind == dsl::ArgKind::kHandle;
      if (!handle_edit && guards_ != nullptr && !guards_->empty() &&
          rng_.prob(0.5)) {
        // Dataflow bias: redirect the edit to a guard-relevant argument —
        // one a driver's declared transition guard branches on — and half
        // the time pin it straight to a declared hint value, landing the
        // program on a state-machine edge instead of fuzzing around it.
        std::vector<size_t> relevant;
        for (size_t g = 0; g < c.desc->params.size(); ++g) {
          if (guards_->classify_arg(*c.desc, g) ==
              analysis::ArgClass::kGuardRelevant) {
            relevant.push_back(g);
          }
        }
        if (!relevant.empty()) {
          a = relevant[rng_.below(relevant.size())];
          const auto& hints =
              guards_->hint_values(c.desc->name, c.desc->params[a].name);
          if (!hints.empty() && a < c.args.size() && rng_.prob(0.5)) {
            c.args[a].scalar = hints[rng_.below(hints.size())];
            break;
          }
        }
      }
      if (a < c.args.size()) {
        dsl::mutate_value(c.desc->params[a], c.args[a], rng_);
      }
      break;
    }
    case kInsert: {
      if (prog.calls.size() >= cfg_.max_total_calls) break;
      const size_t pos = rng_.below(prog.calls.size() + 1);
      const CallDesc* d = nullptr;
      if (cfg_.use_relations && pos > 0 &&
          prog.calls[pos - 1].desc != nullptr) {
        d = rel_.pick_next(prog.calls[pos - 1].desc, rng_);
        if (d != nullptr && !allowed(d)) d = nullptr;
      }
      if (d == nullptr) d = pick_related_or_random(prog);
      if (d == nullptr) break;
      prog.calls.insert(prog.calls.begin() + static_cast<long>(pos),
                        instantiate(d));
      for (size_t j = 0; j < prog.calls.size(); ++j) {
        if (j == pos) continue;
        for (Value& v : prog.calls[j].args) {
          if (v.ref != Value::kNoRef && static_cast<size_t>(v.ref) >= pos) {
            ++v.ref;
          }
        }
      }
      break;
    }
    case kRemove:
      if (prog.calls.size() > 1) prog.remove_call(rng_.below(prog.calls.size()));
      break;
    case kDuplicate: {
      if (prog.calls.empty() || prog.calls.size() >= cfg_.max_total_calls) {
        break;
      }
      // Appending a copy keeps all of its refs pointing earlier: legal.
      prog.calls.push_back(prog.calls[rng_.below(prog.calls.size())]);
      break;
    }
    case kSplice: {
      if (corpus_.empty()) break;
      const Program& other = corpus_.pick(rng_).prog;
      const size_t offset = prog.calls.size();
      for (const Call& c : other.calls) {
        if (prog.calls.size() >= cfg_.max_total_calls) break;
        if (!allowed(c.desc)) continue;
        Call copy = c;
        for (Value& v : copy.args) {
          if (v.ref != Value::kNoRef) {
            v.ref += static_cast<int32_t>(offset);
            if (static_cast<size_t>(v.ref) >= prog.calls.size()) {
              v.ref = Value::kNoRef;
            }
          }
        }
        prog.calls.push_back(std::move(copy));
      }
      prog.repair_refs();
      break;
    }
    case kRewire: {
      // Rebind one handle argument to a different earlier producer of the
      // same type (explores which resource instance a call operates on).
      if (prog.calls.size() < 2) break;
      const size_t i = 1 + rng_.below(prog.calls.size() - 1);
      dsl::Call& c = prog.calls[i];
      if (c.desc == nullptr) break;
      for (size_t a = 0; a < c.args.size() && a < c.desc->params.size();
           ++a) {
        const dsl::ParamDesc& p = c.desc->params[a];
        if (p.kind != ArgKind::kHandle) continue;
        std::vector<int32_t> candidates;
        for (size_t j = 0; j < i; ++j) {
          if (prog.calls[j].desc != nullptr &&
              prog.calls[j].desc->produces == p.handle_type) {
            candidates.push_back(static_cast<int32_t>(j));
          }
        }
        if (!candidates.empty()) {
          c.args[a].ref = candidates[rng_.below(candidates.size())];
        }
        break;
      }
      break;
    }
    default:
      break;
  }
  // The attribution tag reports the operator *drawn*, even when it no-ops
  // on this particular program (e.g. kRemove on a one-call program) — the
  // yield table measures what each operator draw earns, not what it edits.
  static constexpr obs::ProgramOrigin kOpOrigin[6] = {
      obs::ProgramOrigin::kMutateArg,       obs::ProgramOrigin::kMutateInsert,
      obs::ProgramOrigin::kMutateRemove,    obs::ProgramOrigin::kMutateDuplicate,
      obs::ProgramOrigin::kMutateSplice,    obs::ProgramOrigin::kMutateRewire,
  };
  return kOpOrigin[op];
}

Program Generator::mutate(const Program& seed, obs::ProgramOrigin* origin) {
  Program prog = dsl::clone(seed);
  const size_t rounds = 1 + rng_.below(3);
  obs::ProgramOrigin last = obs::ProgramOrigin::kMutateArg;
  for (size_t r = 0; r < rounds; ++r) last = mutate_once(prog);
  if (origin != nullptr) *origin = last;
  prog.repair_refs();
  resolve_producers(prog);
  return prog;
}

void Generator::set_lint(const analysis::ProgramLint* lint,
                         obs::Counter* rejected, obs::Counter* repaired) {
  lint_ = lint;
  c_rejected_ = rejected;
  c_repaired_ = repaired;
}

Generator::Candidate Generator::next_candidate() {
  constexpr int kLintRetries = 4;
  Candidate cand;
  for (int tries = 0; tries < kLintRetries; ++tries) {
    if (!corpus_.empty() && rng_.chance(cfg_.mutate_percent, 100)) {
      const Seed& seed = corpus_.pick(rng_);
      // Read the parent identity before mutate(): kSplice may pick again
      // and the corpus vector is stable, but the reference discipline is
      // clearer this way.
      cand.parent_hash = seed.hash;
      cand.prog = mutate(seed.prog, &cand.origin);
    } else {
      cand.parent_hash = 0;
      cand.origin = obs::ProgramOrigin::kGenerate;
      cand.prog = generate_fresh();
    }
    if (lint_ == nullptr || lint_->clean(cand.prog)) return cand;
    // Mutation-side normalization first: rebind unresolved handle refs to
    // the nearest earlier producer so mutated fragments re-link into the
    // program. ProgramLint::repair deliberately leaves kNoRef alone (its
    // stale-use pass severs to kNoRef, and rebinding there would break its
    // idempotence), so the gate owns this step.
    cand.prog.repair_refs();
    lint_->repair(cand.prog);
    if (lint_->clean(cand.prog)) {
      if (c_repaired_ != nullptr) c_repaired_->inc();
      return cand;
    }
    // Unrepairable: discard and regenerate.
    if (c_rejected_ != nullptr) c_rejected_->inc();
  }
  // Every retry failed lint — return the last (repaired) candidate rather
  // than starving the fuzz loop; the executor tolerates it.
  return cand;
}

}  // namespace df::core
