#include "sim/protocols.hpp"

#include <cassert>
#include <stdexcept>

namespace qsv::sim {

namespace {

// Pointers in simulated memory: processor/node id + 1; 0 is null.
constexpr Value ptr(std::size_t id) { return static_cast<Value>(id) + 1; }
constexpr std::size_t unptr(Value v) { return static_cast<std::size_t>(v) - 1; }

// ---------------------------------------------------------------------
// Lock protocols. Shared layout structs are allocated host-side; every
// member is an Addr into simulated memory.
// ---------------------------------------------------------------------

struct TasLayout {
  Addr flag;
  static TasLayout make(Machine& m) { return TasLayout{m.alloc(0, 0)}; }
};

Task tas_worker(Machine& m, TasLayout l, std::size_t proc, std::size_t rounds,
                Cycles cs, bool test_first) {
  for (std::size_t r = 0; r < rounds; ++r) {
    for (;;) {
      if (test_first) {
        // TTAS: spin on a cached copy until the lock looks free.
        co_await m.wait_while(proc, l.flag,
                              [](Value v) { return v != 0; });
      }
      const Value old = co_await m.exchange(proc, l.flag, 1);
      if (old == 0) break;
      if (!test_first) {
        // Pure TAS hammers the line; a minimal pause keeps the model
        // honest about instruction issue rate, not a backoff.
        co_await m.delay(proc, 1);
      }
    }
    co_await m.delay(proc, cs);
    co_await m.store(proc, l.flag, 0);
  }
}

struct TicketLayout {
  Addr next_ticket;
  Addr now_serving;
  static TicketLayout make(Machine& m) {
    return TicketLayout{m.alloc(0, 0), m.alloc(0, 0)};
  }
};

Task ticket_worker(Machine& m, TicketLayout l, std::size_t proc,
                   std::size_t rounds, Cycles cs) {
  for (std::size_t r = 0; r < rounds; ++r) {
    const Value me = co_await m.fetch_add(proc, l.next_ticket, 1);
    co_await m.wait_while(proc, l.now_serving,
                          [me](Value v) { return v != me; });
    co_await m.delay(proc, cs);
    const Value s = co_await m.load(proc, l.now_serving);
    co_await m.store(proc, l.now_serving, s + 1);
  }
}

struct AndersonLayout {
  Addr next_slot;
  std::vector<Addr> slots;  // one line per processor, homed round-robin
  static AndersonLayout make(Machine& m, std::size_t procs) {
    AndersonLayout l;
    l.next_slot = m.alloc(0, 0);
    for (std::size_t p = 0; p < procs; ++p) {
      l.slots.push_back(m.alloc(p, p == 0 ? 1 : 0));
    }
    return l;
  }
};

Task anderson_worker(Machine& m, const AndersonLayout* l, std::size_t proc,
                     std::size_t rounds, Cycles cs) {
  const std::size_t n = l->slots.size();
  for (std::size_t r = 0; r < rounds; ++r) {
    const Value pos = co_await m.fetch_add(proc, l->next_slot, 1);
    const std::size_t slot = static_cast<std::size_t>(pos) % n;
    co_await m.wait_while(proc, l->slots[slot],
                          [](Value v) { return v == 0; });
    co_await m.delay(proc, cs);
    co_await m.store(proc, l->slots[slot], 0);          // re-arm mine
    co_await m.store(proc, l->slots[(slot + 1) % n], 1);  // grant next
  }
}

struct McsLayout {
  Addr tail;
  std::vector<Addr> node_next;   // per proc, homed locally
  std::vector<Addr> node_state;  // per proc, homed locally
  static McsLayout make(Machine& m, std::size_t procs) {
    McsLayout l;
    l.tail = m.alloc(0, 0);
    for (std::size_t p = 0; p < procs; ++p) {
      l.node_next.push_back(m.alloc(p, 0));
      l.node_state.push_back(m.alloc(p, 0));
    }
    return l;
  }
};

/// MCS and the QSV exclusive protocol share this shape: one fetch&store
/// to enqueue, spin in the waiter's own (locally homed) node, one store
/// to hand off.
Task mcs_worker(Machine& m, const McsLayout* l, std::size_t proc,
                std::size_t rounds, Cycles cs) {
  for (std::size_t r = 0; r < rounds; ++r) {
    co_await m.store(proc, l->node_next[proc], 0);
    co_await m.store(proc, l->node_state[proc], 0);
    const Value pred = co_await m.exchange(proc, l->tail, ptr(proc));
    if (pred != 0) {
      co_await m.store(proc, l->node_next[unptr(pred)], ptr(proc));
      co_await m.wait_while(proc, l->node_state[proc],
                            [](Value v) { return v == 0; });
    }
    co_await m.delay(proc, cs);
    Value next = co_await m.load(proc, l->node_next[proc]);
    if (next == 0) {
      const Value observed =
          co_await m.cas(proc, l->tail, ptr(proc), 0);
      if (observed == ptr(proc)) continue;  // queue empty: released
      co_await m.wait_while(proc, l->node_next[proc],
                            [](Value v) { return v == 0; });
      next = co_await m.load(proc, l->node_next[proc]);
    }
    co_await m.store(proc, l->node_state[unptr(next)], 1);
  }
}

struct ClhLayout {
  Addr tail;
  std::vector<Addr> node_state;       // procs + 1 nodes (one sentinel)
  std::vector<std::size_t> my_node;   // host-side: current node of proc
  static ClhLayout make(Machine& m, std::size_t procs) {
    ClhLayout l;
    for (std::size_t i = 0; i < procs + 1; ++i) {
      // Node i initially owned by proc i (sentinel homed at 0).
      l.node_state.push_back(m.alloc(i < procs ? i : 0, 0));
    }
    // Sentinel (index procs) starts released (state 0 = released).
    l.tail = m.alloc(0, ptr(procs));
    for (std::size_t p = 0; p < procs; ++p) l.my_node.push_back(p);
    return l;
  }
};

/// CLH contrast: the waiter spins on its *predecessor's* node, which on
/// the NUMA machine is usually remote — the deficiency MCS/QSV fix.
Task clh_worker(Machine& m, ClhLayout* l, std::size_t proc,
                std::size_t rounds, Cycles cs) {
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::size_t mine = l->my_node[proc];
    co_await m.store(proc, l->node_state[mine], 1);  // waiting/held
    const Value pred = co_await m.exchange(proc, l->tail, ptr(mine));
    const std::size_t pred_node = unptr(pred);
    co_await m.wait_while(proc, l->node_state[pred_node],
                          [](Value v) { return v != 0; });
    l->my_node[proc] = pred_node;  // adopt (host-side bookkeeping)
    co_await m.delay(proc, cs);
    co_await m.store(proc, l->node_state[mine], 0);
  }
}

struct GraunkeThakkarLayout {
  Addr tail;
  std::vector<Addr> flags;  // one per proc + trailing init flag
  static GraunkeThakkarLayout make(Machine& m, std::size_t procs) {
    GraunkeThakkarLayout l;
    for (std::size_t p = 0; p < procs; ++p) l.flags.push_back(m.alloc(p, 0));
    l.flags.push_back(m.alloc(0, 0));  // init flag, value 0
    // Tail packs (flag index, recorded parity). The recorded parity must
    // differ from the init flag's value so the first locker enters.
    l.tail = m.alloc(0, pack(procs, 1));
    return l;
  }
  static Value pack(std::size_t flag_idx, Value parity) {
    return (static_cast<Value>(flag_idx) << 1) | parity;
  }
};

/// Graunke-Thakkar contrast: like Anderson the flags are per-processor,
/// but the waiter spins on its *predecessor's* flag — remote on the NUMA
/// machine, which is exactly the deficiency MCS/QSV fix.
Task graunke_thakkar_worker(Machine& m, const GraunkeThakkarLayout* l,
                            std::size_t proc, std::size_t rounds,
                            Cycles cs) {
  for (std::size_t r = 0; r < rounds; ++r) {
    const Value mine = co_await m.load(proc, l->flags[proc]);
    const Value self = GraunkeThakkarLayout::pack(proc, mine & 1);
    const Value prev = co_await m.exchange(proc, l->tail, self);
    const std::size_t prev_flag = static_cast<std::size_t>(prev >> 1);
    const Value prev_val = prev & 1;
    co_await m.wait_while(proc, l->flags[prev_flag], [prev_val](Value v) {
      return (v & 1) == prev_val;
    });
    co_await m.delay(proc, cs);
    co_await m.store(proc, l->flags[proc], mine + 1);
  }
}

/// Cohort seating of a machine: cohorts = the machine's NUMA nodes,
/// lead[c] = first processor of cohort c (homes the per-cohort lines,
/// like TopologyCohortMap homing a cohort's slab on its node).
struct CohortSeating {
  std::size_t cohorts = 1;
  std::vector<std::size_t> lead;
};

CohortSeating seat_cohorts(const Machine& m) {
  CohortSeating s;
  const std::size_t procs = m.processors();
  for (std::size_t p = 0; p < procs; ++p) {
    if (m.node_of(p) + 1 > s.cohorts) s.cohorts = m.node_of(p) + 1;
  }
  s.lead.assign(s.cohorts, 0);
  std::vector<bool> seen(s.cohorts, false);
  for (std::size_t p = 0; p < procs; ++p) {
    const std::size_t c = m.node_of(p);
    if (!seen[c]) {
      seen[c] = true;
      s.lead[c] = p;
    }
  }
  return s;
}

// ---------------------------------------------------------------------
// Cohort combinator port (mirrors hier/cohort_lock.hpp). CohortLock
// layers the budgeted local-handoff protocol over any tier pair; in the
// sim every catalogue component collapses to one of two dialects —
// queue (the MCS/QSV shape: exchange to enqueue, spin on your own
// locally-homed node) and ticket (fetch&add, spin on the shared serving
// word). "cohort/qsv+ticket" therefore simulates a queue global tier
// over per-cohort ticket locks, "hier-qsv" queue tiers on both sides,
// and so on.
// ---------------------------------------------------------------------

enum class TierKind { kQueue, kTicket };

/// "<global>+<local>" after the "cohort/" prefix; qsv and mcs both name
/// the queue dialect, ticket the centralized one.
bool parse_tier(const std::string& token, TierKind& out) {
  if (token == "qsv" || token == "mcs") {
    out = TierKind::kQueue;
    return true;
  }
  if (token == "ticket") {
    out = TierKind::kTicket;
    return true;
  }
  return false;
}

bool parse_cohort_name(const std::string& algorithm, TierKind& global_kind,
                       TierKind& local_kind) {
  if (algorithm.rfind("cohort/", 0) != 0) return false;
  const std::string tiers = algorithm.substr(7);
  const auto plus = tiers.find('+');
  if (plus == std::string::npos) return false;
  return parse_tier(tiers.substr(0, plus), global_kind) &&
         parse_tier(tiers.substr(plus + 1), local_kind);
}

struct CohortSimLayout {
  TierKind global_kind;
  TierKind local_kind;
  std::uint64_t budget;
  // Global queue tier (MCS shape). `rep[c]` records which proc's node
  // heads the queue — the sim's export_hold()/adopt_hold() token, so a
  // cohort-mate that inherited the grant can release on the acquirer's
  // behalf.
  Addr global_tail = 0;
  std::vector<Addr> gnode_next;   // per proc, homed locally
  std::vector<Addr> gnode_state;  // 0 wait, 1 granted
  // Global ticket tier: thread-oblivious unlock (any proc may advance
  // now_serving), so no hold token is needed — CohortLock's
  // ThreadObliviousUnlock escape hatch.
  Addr gnext_ticket = 0;
  Addr gnow_serving = 0;
  // Local tier, queue dialect: one tail per cohort, nodes per proc.
  std::vector<Addr> local_tail;  // per cohort, homed at cohort lead
  std::vector<Addr> node_next;   // per proc, homed locally
  std::vector<Addr> node_state;  // 0 wait, 1 granted
  // Local tier, ticket dialect (both words homed at the cohort lead, as
  // the padded per-cohort slab is in the native lock).
  std::vector<Addr> lnext_ticket;
  std::vector<Addr> lnow_serving;
  // Combinator state, one line each per cohort at the cohort lead:
  // mirrors Cohort{pending, top_granted, passes} + the traveling hold.
  std::vector<Addr> pending;
  std::vector<Addr> top_granted;
  std::vector<Addr> passes;
  std::vector<Addr> rep;
  // Host-side handoff-locality instrumentation (exact: the sim is
  // single-threaded and deterministic).
  std::uint64_t local_passes = 0;
  std::uint64_t global_acquires = 0;

  static CohortSimLayout make(Machine& m, const CohortSeating& seat,
                              TierKind global_kind, TierKind local_kind,
                              std::uint64_t budget) {
    const std::size_t procs = m.processors();
    CohortSimLayout l;
    l.global_kind = global_kind;
    l.local_kind = local_kind;
    l.budget = budget;
    if (global_kind == TierKind::kQueue) {
      l.global_tail = m.alloc(0, 0);
      for (std::size_t p = 0; p < procs; ++p) {
        l.gnode_next.push_back(m.alloc(p, 0));
        l.gnode_state.push_back(m.alloc(p, 0));
      }
    } else {
      l.gnext_ticket = m.alloc(0, 0);
      l.gnow_serving = m.alloc(0, 0);
    }
    for (std::size_t c = 0; c < seat.cohorts; ++c) {
      const std::size_t lead = seat.lead[c];
      if (local_kind == TierKind::kQueue) {
        l.local_tail.push_back(m.alloc(lead, 0));
      } else {
        l.lnext_ticket.push_back(m.alloc(lead, 0));
        l.lnow_serving.push_back(m.alloc(lead, 0));
      }
      l.pending.push_back(m.alloc(lead, 0));
      l.top_granted.push_back(m.alloc(lead, 0));
      l.passes.push_back(m.alloc(lead, 0));
      l.rep.push_back(m.alloc(lead, 0));
    }
    if (local_kind == TierKind::kQueue) {
      for (std::size_t p = 0; p < procs; ++p) {
        l.node_next.push_back(m.alloc(p, 0));
        l.node_state.push_back(m.alloc(p, 0));
      }
    }
    return l;
  }
};

/// GlobalLock::lock() for cohort `c`: queue dialect records the hold
/// token in rep[c] (export_hold at acquisition — the grant may be
/// released by whichever cohort-mate holds the local lock last).
Task cohort_global_lock(Machine& m, const CohortSimLayout* l,
                        std::size_t proc, std::size_t c) {
  if (l->global_kind == TierKind::kQueue) {
    co_await m.store(proc, l->gnode_next[proc], 0);
    co_await m.store(proc, l->gnode_state[proc], 0);
    const Value gpred = co_await m.exchange(proc, l->global_tail, ptr(proc));
    if (gpred != 0) {
      co_await m.store(proc, l->gnode_next[unptr(gpred)], ptr(proc));
      co_await m.wait_while(proc, l->gnode_state[proc],
                            [](Value v) { return v == 0; });
    }
    co_await m.store(proc, l->rep[c], ptr(proc));
  } else {
    const Value me = co_await m.fetch_add(proc, l->gnext_ticket, 1);
    co_await m.wait_while(proc, l->gnow_serving,
                          [me](Value v) { return v != me; });
  }
}

/// GlobalLock::unlock() on behalf of cohort `c` — possibly by a
/// different proc than acquired it (the cross-thread-release contract).
Task cohort_global_unlock(Machine& m, const CohortSimLayout* l,
                          std::size_t proc, std::size_t c) {
  if (l->global_kind == TierKind::kQueue) {
    const Value r = co_await m.load(proc, l->rep[c]);
    const std::size_t owner = unptr(r);
    Value next = co_await m.load(proc, l->gnode_next[owner]);
    if (next == 0) {
      const Value observed =
          co_await m.cas(proc, l->global_tail, ptr(owner), 0);
      if (observed == ptr(owner)) co_return;
      co_await m.wait_while(proc, l->gnode_next[owner],
                            [](Value v) { return v == 0; });
      next = co_await m.load(proc, l->gnode_next[owner]);
    }
    co_await m.store(proc, l->gnode_state[unptr(next)], 1);
  } else {
    const Value s = co_await m.load(proc, l->gnow_serving);
    co_await m.store(proc, l->gnow_serving, s + 1);
  }
}

/// LocalLock::lock() for cohort `c` (always same-thread, any dialect).
Task cohort_local_lock(Machine& m, const CohortSimLayout* l,
                       std::size_t proc, std::size_t c) {
  if (l->local_kind == TierKind::kQueue) {
    co_await m.store(proc, l->node_next[proc], 0);
    co_await m.store(proc, l->node_state[proc], 0);
    const Value pred = co_await m.exchange(proc, l->local_tail[c], ptr(proc));
    if (pred != 0) {
      co_await m.store(proc, l->node_next[unptr(pred)], ptr(proc));
      co_await m.wait_while(proc, l->node_state[proc],
                            [](Value v) { return v == 0; });
    }
  } else {
    const Value me = co_await m.fetch_add(proc, l->lnext_ticket[c], 1);
    co_await m.wait_while(proc, l->lnow_serving[c],
                          [me](Value v) { return v != me; });
  }
}

/// LocalLock::try_lock() for cohort `c`: succeeds only on a free tier
/// (the queue dialect's CAS of an empty tail, the ticket dialect's
/// claim of the next ticket while none is outstanding).
Task cohort_local_try_lock(Machine& m, const CohortSimLayout* l,
                           std::size_t proc, std::size_t c, bool& won) {
  if (l->local_kind == TierKind::kQueue) {
    co_await m.store(proc, l->node_next[proc], 0);
    co_await m.store(proc, l->node_state[proc], 0);
    const Value observed =
        co_await m.cas(proc, l->local_tail[c], 0, ptr(proc));
    won = observed == 0;
  } else {
    const Value s = co_await m.load(proc, l->lnow_serving[c]);
    const Value observed = co_await m.cas(proc, l->lnext_ticket[c], s, s + 1);
    won = observed == s;
  }
}

/// LocalLock::unlock() for cohort `c`.
Task cohort_local_unlock(Machine& m, const CohortSimLayout* l,
                         std::size_t proc, std::size_t c) {
  if (l->local_kind == TierKind::kQueue) {
    Value next = co_await m.load(proc, l->node_next[proc]);
    if (next == 0) {
      const Value observed =
          co_await m.cas(proc, l->local_tail[c], ptr(proc), 0);
      if (observed == ptr(proc)) co_return;
      co_await m.wait_while(proc, l->node_next[proc],
                            [](Value v) { return v == 0; });
      next = co_await m.load(proc, l->node_next[proc]);
    }
    co_await m.store(proc, l->node_state[unptr(next)], 1);
  } else {
    const Value s = co_await m.load(proc, l->lnow_serving[c]);
    co_await m.store(proc, l->lnow_serving[c], s + 1);
  }
}

/// The combinator protocol, mirroring CohortLock::lock()/unlock() line
/// for line: local try, else pending announce and local tier;
/// top_granted adoption or global acquisition; release leaves the grant
/// behind while the budget allows and a cohort-mate is committed, else
/// global-first release.
Task cohort_worker(Machine& m, CohortSimLayout* l, std::size_t proc,
                   std::size_t rounds, Cycles cs) {
  const std::size_t c = m.node_of(proc);
  for (std::size_t r = 0; r < rounds; ++r) {
    // ---- lock() ------------------------------------------------------
    bool won = false;
    co_await cohort_local_try_lock(m, l, proc, c, won);
    if (!won) {
      // Commit before waiting: a releasing holder that reads
      // pending > 0 may leave the global grant behind for us.
      co_await m.fetch_add(proc, l->pending[c], 1);
      co_await cohort_local_lock(m, l, proc, c);
      co_await m.fetch_add(proc, l->pending[c], Value(0) - 1);
    }
    const Value tg = co_await m.load(proc, l->top_granted[c]);
    if (tg != 0) {
      // The previous holder passed the global lock with the local one
      // (rep[c] is the adopted hold — it already names the right node).
      co_await m.store(proc, l->top_granted[c], 0);
    } else {
      co_await cohort_global_lock(m, l, proc, c);
      co_await m.store(proc, l->passes[c], 0);
      ++l->global_acquires;
    }
    // ---- critical section -------------------------------------------
    co_await m.delay(proc, cs);
    // ---- unlock() ----------------------------------------------------
    // pending is decremented only while holding the local lock — which
    // we hold — so a nonzero reading proves a committed cohort-mate.
    const Value p = co_await m.load(proc, l->passes[c]);
    const Value pend = co_await m.load(proc, l->pending[c]);
    if (p < l->budget && pend > 0) {
      co_await m.store(proc, l->passes[c], p + 1);
      co_await m.store(proc, l->top_granted[c], 1);
      ++l->local_passes;
      co_await cohort_local_unlock(m, l, proc, c);
    } else {
      // Budget spent or cohort drained: let other cohorts in. Global
      // first, so a cohort-mate that sneaks in never waits on a global
      // lock we still hold.
      co_await m.store(proc, l->passes[c], 0);
      co_await cohort_global_unlock(m, l, proc, c);
      co_await cohort_local_unlock(m, l, proc, c);
    }
  }
}

// ---------------------------------------------------------------------
// Reader-indicator protocols (the QSV read-side discipline fig8's
// throughput curves are downstream of).
// ---------------------------------------------------------------------

struct RwSimLayout {
  std::vector<Addr> stripes;           // per cohort (striped) or just one
  std::vector<std::size_t> stripe_of;  // per proc
  static RwSimLayout make(Machine& m, bool striped) {
    const std::size_t procs = m.processors();
    RwSimLayout l;
    if (striped) {
      const CohortSeating seat = seat_cohorts(m);
      for (std::size_t c = 0; c < seat.cohorts; ++c) {
        l.stripes.push_back(m.alloc(seat.lead[c], 0));
      }
      for (std::size_t p = 0; p < procs; ++p) {
        l.stripe_of.push_back(m.node_of(p));
      }
    } else {
      l.stripes.push_back(m.alloc(0, 0));
      l.stripe_of.assign(procs, 0);
    }
    return l;
  }
};

/// One reader: arrive on my stripe, read, depart. Central puts every
/// RMW on one word (each arrival/departure invalidates every other
/// reader's copy — O(P) coherence per op); striping homes the stripe on
/// the reader's own node, so reader traffic stays node-local.
Task rw_reader_worker(Machine& m, const RwSimLayout* l, std::size_t proc,
                      std::size_t rounds, Cycles read_cycles) {
  const Addr stripe = l->stripes[l->stripe_of[proc]];
  for (std::size_t r = 0; r < rounds; ++r) {
    co_await m.fetch_add(proc, stripe, 1);
    co_await m.delay(proc, read_cycles);
    co_await m.fetch_add(proc, stripe, Value(0) - 1);
  }
}

// ---------------------------------------------------------------------
// Barrier protocols.
// ---------------------------------------------------------------------

struct CentralBarrierLayout {
  Addr arrived;
  Addr episode;
  static CentralBarrierLayout make(Machine& m) {
    return CentralBarrierLayout{m.alloc(0, 0), m.alloc(0, 0)};
  }
};

Task central_barrier_worker(Machine& m, CentralBarrierLayout l,
                            std::size_t proc, std::size_t procs,
                            std::size_t episodes) {
  for (std::size_t e = 0; e < episodes; ++e) {
    const Value epoch = co_await m.load(proc, l.episode);
    const Value c = co_await m.fetch_add(proc, l.arrived, 1);
    if (c + 1 == procs) {
      co_await m.store(proc, l.arrived, 0);
      co_await m.store(proc, l.episode, epoch + 1);
    } else {
      co_await m.wait_while(proc, l.episode,
                            [epoch](Value v) { return v == epoch; });
    }
  }
}

struct DisseminationLayout {
  // flags[round][proc], each homed at its reader.
  std::vector<std::vector<Addr>> flags;
  std::size_t rounds;
  static DisseminationLayout make(Machine& m, std::size_t procs) {
    DisseminationLayout l;
    l.rounds = 0;
    for (std::size_t w = 1; w < procs; w <<= 1) ++l.rounds;
    l.flags.resize(l.rounds);
    for (std::size_t k = 0; k < l.rounds; ++k) {
      for (std::size_t p = 0; p < procs; ++p) {
        l.flags[k].push_back(m.alloc(p, 0));
      }
    }
    return l;
  }
};

Task dissemination_worker(Machine& m, const DisseminationLayout* l,
                          std::size_t proc, std::size_t procs,
                          std::size_t episodes) {
  for (std::size_t e = 1; e <= episodes; ++e) {
    std::size_t dist = 1;
    for (std::size_t k = 0; k < l->rounds; ++k, dist <<= 1) {
      co_await m.store(proc, l->flags[k][(proc + dist) % procs],
                       static_cast<Value>(e));
      co_await m.wait_while(proc, l->flags[k][proc],
                            [e](Value v) { return v < e; });
    }
  }
}

struct McsTreeLayout {
  std::vector<Addr> arrival;  // per proc, homed locally
  std::vector<Addr> release;  // per proc, homed locally
  static McsTreeLayout make(Machine& m, std::size_t procs) {
    McsTreeLayout l;
    for (std::size_t p = 0; p < procs; ++p) {
      l.arrival.push_back(m.alloc(p, 0));
      l.release.push_back(m.alloc(p, 0));
    }
    return l;
  }
};

Task mcs_tree_worker(Machine& m, const McsTreeLayout* l, std::size_t proc,
                     std::size_t procs, std::size_t episodes) {
  constexpr std::size_t kFanIn = 4;
  for (std::size_t e = 1; e <= episodes; ++e) {
    for (std::size_t c = 0; c < kFanIn; ++c) {
      const std::size_t child = proc * kFanIn + 1 + c;
      if (child >= procs) break;
      co_await m.wait_while(proc, l->arrival[child],
                            [e](Value v) { return v < e; });
    }
    if (proc != 0) {
      co_await m.store(proc, l->arrival[proc], static_cast<Value>(e));
      co_await m.wait_while(proc, l->release[proc],
                            [e](Value v) { return v < e; });
    }
    for (std::size_t c = 1; c <= 2; ++c) {
      const std::size_t child = 2 * proc + c;
      if (child >= procs) break;
      co_await m.store(proc, l->release[child], static_cast<Value>(e));
    }
  }
}

struct TournamentLayout {
  // arrival[k][w]: loser of round k signals winner w (homed at winner —
  // the winner spins locally, the loser pays one remote write).
  // release[k][p]: winner of round k wakes loser p (homed at the loser).
  std::vector<std::vector<Addr>> arrival;
  std::vector<std::vector<Addr>> release;
  std::size_t rounds;
  static TournamentLayout make(Machine& m, std::size_t procs) {
    TournamentLayout l;
    l.rounds = 0;
    for (std::size_t w = 1; w < procs; w <<= 1) ++l.rounds;
    l.arrival.resize(l.rounds);
    l.release.resize(l.rounds);
    for (std::size_t k = 0; k < l.rounds; ++k) {
      for (std::size_t p = 0; p < procs; ++p) {
        l.arrival[k].push_back(m.alloc(p, 0));
        l.release[k].push_back(m.alloc(p, 0));
      }
    }
    return l;
  }
};

/// Tournament barrier: processors pair off in log P rounds; the loser
/// reports to the statically-known winner and blocks, the champion
/// releases the losers in reverse order. All spins are on locally-homed
/// flags; total traffic is O(P) stores per episode with O(log P) depth.
Task tournament_worker(Machine& m, const TournamentLayout* l,
                       std::size_t proc, std::size_t procs,
                       std::size_t episodes) {
  for (std::size_t e = 1; e <= episodes; ++e) {
    const Value ev = static_cast<Value>(e);
    std::size_t k = 0;
    std::size_t dist = 1;
    std::ptrdiff_t lost_round = -1;
    for (; dist < procs; dist <<= 1, ++k) {
      if ((proc & (2 * dist - 1)) == 0) {
        const std::size_t peer = proc + dist;
        if (peer < procs) {
          // Winner: wait for the loser's report on our own line.
          co_await m.wait_while(proc, l->arrival[k][proc],
                                [ev](Value v) { return v < ev; });
        }
      } else {
        // Loser: report to the winner and drop out of the tournament.
        const std::size_t winner = proc - dist;
        co_await m.store(proc, l->arrival[k][winner], ev);
        lost_round = static_cast<std::ptrdiff_t>(k);
        break;
      }
    }
    if (lost_round >= 0) {
      co_await m.wait_while(proc,
                            l->release[static_cast<std::size_t>(lost_round)]
                                      [proc],
                            [ev](Value v) { return v < ev; });
      k = static_cast<std::size_t>(lost_round);
    }
    // Wake the losers we beat, in reverse round order.
    while (k-- > 0) {
      const std::size_t loser = proc + (static_cast<std::size_t>(1) << k);
      if (loser < procs) {
        co_await m.store(proc, l->release[k][loser], ev);
      }
    }
  }
}

struct QsvBarrierLayout {
  Addr var;      // queue tail (the synchronization variable)
  Addr arrived;  // episode arrival count
  std::vector<Addr> node_prev;   // per proc, homed locally
  std::vector<Addr> node_state;  // per proc, homed locally
  static QsvBarrierLayout make(Machine& m, std::size_t procs) {
    QsvBarrierLayout l;
    l.var = m.alloc(0, 0);
    l.arrived = m.alloc(0, 0);
    for (std::size_t p = 0; p < procs; ++p) {
      l.node_prev.push_back(m.alloc(p, 0));
      l.node_state.push_back(m.alloc(p, 0));
    }
    return l;
  }
};

Task qsv_barrier_worker(Machine& m, const QsvBarrierLayout* l,
                        std::size_t proc, std::size_t procs,
                        std::size_t episodes) {
  for (std::size_t e = 0; e < episodes; ++e) {
    co_await m.store(proc, l->node_state[proc], 0);
    const Value prev = co_await m.exchange(proc, l->var, ptr(proc));
    co_await m.store(proc, l->node_prev[proc], prev);
    const Value c = co_await m.fetch_add(proc, l->arrived, 1);
    if (c + 1 == procs) {
      co_await m.store(proc, l->arrived, 0);
      Value chain = co_await m.exchange(proc, l->var, 0);
      while (chain != 0) {
        const std::size_t node = unptr(chain);
        const Value p = co_await m.load(proc, l->node_prev[node]);
        if (node != proc) {
          co_await m.store(proc, l->node_state[node], 1);
        }
        chain = p;
      }
    } else {
      co_await m.wait_while(proc, l->node_state[proc],
                            [](Value v) { return v == 0; });
    }
  }
}

// ---------------------------------------------------------------------
// Eventcount protocols (F11 sim section).
// ---------------------------------------------------------------------

struct EcCentralLayout {
  Addr count;
  static EcCentralLayout make(Machine& m) {
    return EcCentralLayout{m.alloc(0, 0)};
  }
};

/// Centralized eventcount: every waiter spins on the count word, so each
/// advance invalidates every waiter's copy and they all re-fetch.
Task ec_central_producer(Machine& m, EcCentralLayout l, std::size_t proc,
                         std::size_t events, Cycles produce_cycles) {
  for (std::size_t e = 0; e < events; ++e) {
    co_await m.delay(proc, produce_cycles);  // produce something
    co_await m.fetch_add(proc, l.count, 1);
  }
}

Task ec_central_consumer(Machine& m, EcCentralLayout l, std::size_t proc,
                         std::size_t events) {
  for (std::size_t e = 1; e <= events; ++e) {
    co_await m.wait_while(proc, l.count, [e](Value v) { return v < e; });
    co_await m.delay(proc, 10);  // consume
  }
}

struct EcQueuedLayout {
  Addr count;
  Addr head;                      // Treiber stack of waiting nodes
  Addr done;                      // consumers finished (shepherd exit)
  std::vector<Addr> node_next;    // per proc, homed locally
  std::vector<Addr> node_state;   // per proc: 0 idle/waiting, 1 granted
  std::vector<Addr> node_target;  // per proc: awaited value
  static EcQueuedLayout make(Machine& m, std::size_t procs) {
    EcQueuedLayout l;
    l.count = m.alloc(0, 0);
    l.head = m.alloc(0, 0);
    l.done = m.alloc(0, 0);
    for (std::size_t p = 0; p < procs; ++p) {
      l.node_next.push_back(m.alloc(p, 0));
      l.node_state.push_back(m.alloc(p, 0));
      l.node_target.push_back(m.alloc(p, 0));
    }
    return l;
  }
};

/// Pushers swap the head first and link their `next` a step later (the
/// sim's exchange-based push), so a node's next can transiently read as
/// "not yet linked"; walkers wait out that window, exactly like the MCS
/// release waiting for its successor's link.
constexpr Value kEcUnlinked = ~Value{0};

/// Push `node` onto the waiter stack (head swap, then link).
Task ec_queued_push(Machine& m, const EcQueuedLayout* l, std::size_t proc,
                    std::size_t node) {
  co_await m.store(proc, l->node_next[node], kEcUnlinked);
  const Value old = co_await m.exchange(proc, l->head, ptr(node));
  co_await m.store(proc, l->node_next[node], old);
}

/// Walk the waiter stack once, granting satisfied nodes. Shared by the
/// advance path and the end-of-run shepherd loop.
Task ec_queued_walk(Machine& m, const EcQueuedLayout* l, std::size_t proc,
                    Value now) {
  Value chain = co_await m.exchange(proc, l->head, 0);
  while (chain != 0) {
    const std::size_t node = unptr(chain);
    co_await m.wait_while(proc, l->node_next[node],
                          [](Value v) { return v == kEcUnlinked; });
    const Value next = co_await m.load(proc, l->node_next[node]);
    const Value target = co_await m.load(proc, l->node_target[node]);
    if (target <= now) {
      co_await m.store(proc, l->node_state[node], 1);
    } else {
      co_await ec_queued_push(m, l, proc, node);  // re-push unsatisfied
    }
    chain = next;
  }
}

/// Queued eventcount: waiters push their node (one exchange) and spin on
/// it locally; the producer's advance detaches the stack and wakes the
/// satisfied waiters with one store each. A consumer that pushes just
/// after the satisfying walk is caught by the producer's shepherd loop,
/// which keeps walking until every consumer has reported done — the
/// sim-side analogue of the native implementation's withdraw-under-
/// walk-lock discipline (per-proc node reuse makes withdrawal unsafe
/// here: a withdrawn node could still sit in a detached chain when its
/// owner re-pushes it).
Task ec_queued_producer(Machine& m, const EcQueuedLayout* l,
                        std::size_t proc, std::size_t events,
                        std::size_t consumers, Cycles produce_cycles) {
  for (std::size_t e = 0; e < events; ++e) {
    co_await m.delay(proc, produce_cycles);
    const Value now = co_await m.fetch_add(proc, l->count, 1) + 1;
    co_await ec_queued_walk(m, l, proc, now);
  }
  // Shepherd: late pushers (who raced the final walks) still get woken.
  for (;;) {
    const Value finished = co_await m.load(proc, l->done);
    if (finished == consumers) co_return;
    co_await ec_queued_walk(m, l, proc, static_cast<Value>(events));
    co_await m.delay(proc, 50);
  }
}

Task ec_queued_consumer(Machine& m, const EcQueuedLayout* l,
                        std::size_t proc, std::size_t events) {
  for (std::size_t e = 1; e <= events; ++e) {
    const Value seen = co_await m.load(proc, l->count);
    if (seen < e) {
      co_await m.store(proc, l->node_state[proc], 0);
      co_await m.store(proc, l->node_target[proc], static_cast<Value>(e));
      co_await ec_queued_push(m, l, proc, proc);
      co_await m.wait_while(proc, l->node_state[proc],
                            [](Value v) { return v == 0; });
    }
    co_await m.delay(proc, 10);
  }
  co_await m.fetch_add(proc, l->done, 1);
}

/// Drain the event queue and harvest counters while the layout objects
/// (captured by reference in the coroutines) are still in scope.
void finish(Machine& m, SimRunResult& result, Cycles max_cycles = ~0ULL) {
  result.completed = m.run(max_cycles);
  result.counters = m.counters();
  result.elapsed = m.now();
}

/// Shared lock dispatch for both run_lock_sim overloads. Layouts live
/// on this frame, so finish() runs before they go out of scope.
void run_lock_protocols(Machine& m, SimRunResult& result,
                        const std::string& algorithm, std::size_t rounds,
                        Cycles cs_cycles, std::uint64_t budget,
                        Cycles max_cycles) {
  const std::size_t procs = m.processors();
  TierKind global_kind = TierKind::kQueue;
  TierKind local_kind = TierKind::kQueue;

  if (algorithm == "tas" || algorithm == "ttas") {
    const auto l = TasLayout::make(m);
    for (std::size_t p = 0; p < procs; ++p) {
      m.spawn(tas_worker(m, l, p, rounds, cs_cycles, algorithm == "ttas"));
    }
    finish(m, result, max_cycles);
  } else if (algorithm == "ticket") {
    const auto l = TicketLayout::make(m);
    for (std::size_t p = 0; p < procs; ++p) {
      m.spawn(ticket_worker(m, l, p, rounds, cs_cycles));
    }
    finish(m, result, max_cycles);
  } else if (algorithm == "anderson") {
    const auto l = AndersonLayout::make(m, procs);
    for (std::size_t p = 0; p < procs; ++p) {
      m.spawn(anderson_worker(m, &l, p, rounds, cs_cycles));
    }
    finish(m, result, max_cycles);
  } else if (algorithm == "mcs" || algorithm == "qsv") {
    const auto l = McsLayout::make(m, procs);
    for (std::size_t p = 0; p < procs; ++p) {
      m.spawn(mcs_worker(m, &l, p, rounds, cs_cycles));
    }
    finish(m, result, max_cycles);
  } else if (algorithm == "clh") {
    auto l = ClhLayout::make(m, procs);
    for (std::size_t p = 0; p < procs; ++p) {
      m.spawn(clh_worker(m, &l, p, rounds, cs_cycles));
    }
    finish(m, result, max_cycles);
  } else if (algorithm == "graunke-thakkar") {
    const auto l = GraunkeThakkarLayout::make(m, procs);
    for (std::size_t p = 0; p < procs; ++p) {
      m.spawn(graunke_thakkar_worker(m, &l, p, rounds, cs_cycles));
    }
    finish(m, result, max_cycles);
  } else if (algorithm == "hier-qsv" ||  // queue tiers on both sides
             parse_cohort_name(algorithm, global_kind, local_kind)) {
    auto l = CohortSimLayout::make(m, seat_cohorts(m), global_kind,
                                   local_kind, budget);
    for (std::size_t p = 0; p < procs; ++p) {
      m.spawn(cohort_worker(m, &l, p, rounds, cs_cycles));
    }
    finish(m, result, max_cycles);
    result.local_passes = l.local_passes;
    result.global_acquires = l.global_acquires;
  } else {
    throw std::invalid_argument("unknown sim lock: " + algorithm);
  }
}

}  // namespace

const std::vector<std::string>& sim_lock_names() {
  static const std::vector<std::string> names = {
      "tas",      "ttas", "ticket", "anderson", "graunke-thakkar",
      "clh",      "mcs",  "qsv",    "hier-qsv",
      "cohort/qsv+qsv",    "cohort/mcs+mcs",       "cohort/qsv+ticket",
      "cohort/ticket+mcs", "cohort/ticket+ticket"};
  return names;
}

SimRunResult run_lock_sim(const std::string& algorithm, std::size_t procs,
                          std::size_t rounds, Topology topology,
                          Cycles cs_cycles, std::size_t procs_per_node,
                          CostModel costs) {
  Machine m(procs, topology, std::move(costs), procs_per_node);
  SimRunResult result;
  result.algorithm = algorithm;
  result.processors = procs;
  result.operations = procs * rounds;
  run_lock_protocols(m, result, algorithm, rounds, cs_cycles, kSimHierBudget,
                     ~0ULL);
  return result;
}

SimRunResult run_lock_sim(const std::string& algorithm,
                          const qsv::platform::Topology& topo,
                          std::size_t rounds, Cycles cs_cycles,
                          CostModel costs, std::uint64_t budget,
                          Cycles max_cycles, Topology interconnect) {
  Machine m(topo, std::move(costs), interconnect);
  SimRunResult result;
  result.algorithm = algorithm;
  result.processors = m.processors();
  result.operations = m.processors() * rounds;
  run_lock_protocols(m, result, algorithm, rounds, cs_cycles, budget,
                     max_cycles);
  return result;
}

const std::vector<std::string>& sim_rw_names() {
  static const std::vector<std::string> names = {"qsv-rw", "qsv-rw/central"};
  return names;
}

SimRunResult run_rw_sim(const std::string& algorithm, std::size_t procs,
                        std::size_t rounds, Topology topology,
                        Cycles read_cycles, std::size_t procs_per_node) {
  Machine m(procs, topology, CostModel{}, procs_per_node);
  SimRunResult result;
  result.algorithm = algorithm;
  result.processors = procs;
  result.operations = procs * rounds;
  if (algorithm == "qsv-rw" || algorithm == "qsv-rw/central") {
    const auto l = RwSimLayout::make(m, algorithm == "qsv-rw");
    for (std::size_t p = 0; p < procs; ++p) {
      m.spawn(rw_reader_worker(m, &l, p, rounds, read_cycles));
    }
    finish(m, result);
  } else {
    throw std::invalid_argument("unknown sim rw: " + algorithm);
  }
  return result;
}

const std::vector<std::string>& sim_eventcount_names() {
  static const std::vector<std::string> names = {"ec-central", "ec-queued"};
  return names;
}

SimRunResult run_eventcount_sim(const std::string& algorithm,
                                std::size_t procs, std::size_t events,
                                Topology topology, Cycles produce_cycles) {
  Machine m(procs, topology);
  SimRunResult result;
  result.algorithm = algorithm;
  result.processors = procs;
  result.operations = events;

  if (algorithm == "ec-central") {
    const auto l = EcCentralLayout::make(m);
    m.spawn(ec_central_producer(m, l, 0, events, produce_cycles));
    for (std::size_t p = 1; p < procs; ++p) {
      m.spawn(ec_central_consumer(m, l, p, events));
    }
    finish(m, result);
  } else if (algorithm == "ec-queued") {
    const auto l = EcQueuedLayout::make(m, procs);
    m.spawn(ec_queued_producer(m, &l, 0, events, procs - 1,
                                produce_cycles));
    for (std::size_t p = 1; p < procs; ++p) {
      m.spawn(ec_queued_consumer(m, &l, p, events));
    }
    finish(m, result);
  } else {
    throw std::invalid_argument("unknown sim eventcount: " + algorithm);
  }
  return result;
}

const std::vector<std::string>& sim_barrier_names() {
  static const std::vector<std::string> names = {
      "central", "dissemination", "tournament", "mcs-tree", "qsv-episode"};
  return names;
}

SimRunResult run_barrier_sim(const std::string& algorithm, std::size_t procs,
                             std::size_t episodes, Topology topology) {
  Machine m(procs, topology);
  SimRunResult result;
  result.algorithm = algorithm;
  result.processors = procs;
  result.operations = episodes;

  if (algorithm == "central") {
    const auto l = CentralBarrierLayout::make(m);
    for (std::size_t p = 0; p < procs; ++p) {
      m.spawn(central_barrier_worker(m, l, p, procs, episodes));
    }
    finish(m, result);
  } else if (algorithm == "dissemination") {
    const auto l = DisseminationLayout::make(m, procs);
    for (std::size_t p = 0; p < procs; ++p) {
      m.spawn(dissemination_worker(m, &l, p, procs, episodes));
    }
    finish(m, result);
  } else if (algorithm == "tournament") {
    const auto l = TournamentLayout::make(m, procs);
    for (std::size_t p = 0; p < procs; ++p) {
      m.spawn(tournament_worker(m, &l, p, procs, episodes));
    }
    finish(m, result);
  } else if (algorithm == "mcs-tree") {
    const auto l = McsTreeLayout::make(m, procs);
    for (std::size_t p = 0; p < procs; ++p) {
      m.spawn(mcs_tree_worker(m, &l, p, procs, episodes));
    }
    finish(m, result);
  } else if (algorithm == "qsv-episode") {
    const auto l = QsvBarrierLayout::make(m, procs);
    for (std::size_t p = 0; p < procs; ++p) {
      m.spawn(qsv_barrier_worker(m, &l, p, procs, episodes));
    }
    finish(m, result);
  } else {
    throw std::invalid_argument("unknown sim barrier: " + algorithm);
  }
  return result;
}

}  // namespace qsv::sim
