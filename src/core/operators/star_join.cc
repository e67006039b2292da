#include "core/operators/star_join.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/sync_scan.h"
#include "engine/parallel_ops.h"
#include "util/cancel.h"

namespace qppt {

namespace {

// Probe batch for the mixed kiss/prefix main pair: large enough to keep
// the §2.3 prefetch pipeline busy, small enough for stack staging.
constexpr size_t kMixedProbeBatch = 64;

// One matched (left, right) index value pair, as staged.
struct ValuePair {
  uint64_t left;
  uint64_t right;
};

// The synchronous scans walk the two mains' trees in lock step, slot by
// slot. Every index takes the trees' default shape (TreeOptions), so two
// KISS mains always match and two prefix mains must only share key
// width. A mixed pair scans the prefix side's keys and probes the KISS
// side with them, so they must be single int64 keys.
Status CheckSameShape(const BoundSide& left, const BoundSide& right) {
  if (left.is_kiss() != right.is_kiss()) {
    const PrefixTree& p = left.is_kiss() ? *right.prefix() : *left.prefix();
    if (p.key_len() == 8) return Status::OK();
    return Status::InvalidArgument(
        "star join with mixed KISS/prefix mains requires the prefix main "
        "to be keyed on the single shared integer join attribute");
  }
  if (left.is_kiss()) return Status::OK();
  const size_t llen = left.prefix()->key_len();
  const size_t rlen = right.prefix()->key_len();
  if (llen == rlen) return Status::OK();
  return Status::InvalidArgument(
      "star join mains differ in prefix-tree key width: key_len " +
      std::to_string(llen) + " vs " + std::to_string(rlen));
}

}  // namespace

Status StarJoinOp::Execute(ExecContext* ctx) {
  OperatorStats stats;
  stats.name = name();

  QPPT_ASSIGN_OR_RETURN(auto left,
                        BoundSide::Bind(*ctx, spec_.left, spec_.left_columns));
  QPPT_ASSIGN_OR_RETURN(
      auto right, BoundSide::Bind(*ctx, spec_.right, spec_.right_columns));
  QPPT_RETURN_NOT_OK(CheckSameShape(left, right));

  // Assembled-tuple layout: left ++ right ++ assist carries.
  // O(columns) schema copy, once per operator bind.
  std::vector<ColumnDef> defs = left.column_defs();
  defs.insert(defs.end(), right.column_defs().begin(),
              right.column_defs().end());
  QPPT_ASSIGN_OR_RETURN(auto assists,
                        BindAssists(*ctx, spec_.assists, &defs));
  Schema assembled(std::move(defs));
  const size_t width = assembled.num_columns();
  const size_t left_width = left.num_columns();

  QPPT_ASSIGN_OR_RETURN(
      auto output,
      MakeOutputTable(spec_.output, assembled, ctx->knobs().table_options));

  std::vector<size_t> key_positions;
  if (!spec_.output.agg.empty()) {
    for (const auto& k : spec_.output.key_columns) {
      QPPT_ASSIGN_OR_RETURN(size_t idx, assembled.ColumnIndex(k));
      key_positions.push_back(idx);
    }
  }

  stats.input_tuples = left.num_input_tuples() + right.num_input_tuples();

  // Forking pays off when the side driving the scan is big enough. A
  // mixed KISS/prefix pair scans the prefix side's keys, but the bulk of
  // the work is emitting the KISS side's duplicate lists — a huge fact
  // main joined through a tiny dimension intermediate still parallelizes
  // by splitting the dimension's keys (and their emit work) across
  // morsels — so it forks on EITHER side being big.
  const bool mixed = left.is_kiss() != right.is_kiss();
  const uint64_t scanned =
      mixed ? std::max(left.num_input_tuples(), right.num_input_tuples())
            : left.num_input_tuples();
  // The label must outlive the driver calls below (trace spans name it).
  const std::string site_label = display_name();
  engine::MorselSite site{
      .pool = scanned >= engine::kMinParallelInputTuples ? ctx->worker_pool()
                                                         : nullptr,
      .trace = ctx->trace(),
      .label = site_label,
      .cancel = ctx->cancel()};

  // An inline scan polls the cancel token every kCancelStride emitted
  // pairs; the ticker throws CancelledException and Plan::Run converts it
  // back to a Status. A forked scan polls per morsel inside the driver
  // instead (the ticker is not thread-safe).
  CancelTicker inline_cancel(ctx->cancel());
  CancelTicker* ticker = site.pool == nullptr ? &inline_cancel : nullptr;

  // Resolves one matched pair into an assembled candidate row.
  auto resolve_pair = [&](CandidatePipeline* pipeline, const ValuePair& p) {
    // MVCC snapshot filter: no-op branches for non-versioned sides.
    if (!left.Visible(p.left) || !right.Visible(p.right)) return;
    uint64_t* row = pipeline->AddRow();
    left.Fill(p.left, row);
    right.Fill(p.right, row + left_width);
    pipeline->MaybeProcess();
  };

  // Cross-product emission shared by all scan branches (nested-loop over
  // the duplicate lists of one matched key, §4.2). A pair is resolved at
  // once, or — when either side's reads are random — prefetched now and
  // resolved kStagingDepth pairs later (StagingRing). `staged` is fixed
  // per operator, so the branch is always predicted; instantiating each
  // scan once per path instead made GCC stop inlining Fill and Visible.
  const bool staged = left.staged() || right.staged();
  auto emit_pair = [&](CandidatePipeline* pipeline,
                       StagingRing<ValuePair>* ring, uint64_t l, uint64_t r) {
    if (ticker != nullptr) ticker->Tick();
    ValuePair pair{l, r};
    if (staged) {
      left.Prefetch(l);
      right.Prefetch(r);
      if (!ring->Exchange(&pair)) return;
    }
    resolve_pair(pipeline, pair);
  };
  // Resolves a worker's staged pairs at the end of every morsel, so the
  // morsel's span covers its work.
  auto drain = [&](CandidatePipeline* pipeline, StagingRing<ValuePair>* ring) {
    ValuePair pair{};
    while (ring->Pop(&pair)) resolve_pair(pipeline, pair);
  };

  // Per-worker pipelines, each behind its own ring and feeding its
  // worker's partial output, then the fold, whose wall time is reported
  // separately so the merge tail stays visible.
  const size_t workers = site.workers();
  engine::PartialOutputs partials(site, output.get());
  std::vector<std::unique_ptr<CandidatePipeline>> pipelines;
  pipelines.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    pipelines.push_back(std::make_unique<CandidatePipeline>(
        assists, width, partials.worker(w), key_positions,
        ctx->knobs().join_buffer_size));
  }
  std::vector<StagingRing<ValuePair>> rings(workers);

  if (!left.is_kiss() && !right.is_kiss()) {
    // Prefix-tree mains: structural synchronous scan over a frontier of
    // jointly populated subtree pairs, expanded below the shared key
    // prefix until it holds a pair per morsel, sliced into disjoint
    // morsels (§7: deterministic key positions, no rebalancing).
    const PrefixTree& lp = *left.prefix();
    const PrefixTree& rp = *right.prefix();
    stats.morsels = engine::RunPrefixPairMorsels(
        site, lp, rp, [&](size_t w, std::span<const PairSlot> slice) {
          CandidatePipeline* pipeline = pipelines[w].get();
          StagingRing<ValuePair>* ring = &rings[w];
          SynchronousScanPairSlots(
              lp, rp, slice,
              [&](const uint8_t*, const ValueList* lv, const ValueList* rv) {
                lv->ForEach([&](uint64_t l) {
                  rv->ForEach(
                      [&](uint64_t r) { emit_pair(pipeline, ring, l, r); });
                });
              });
          drain(pipeline, ring);
        });
  } else if (!mixed) {
    // The synchronous index scan over the two main indexes (Fig. 6): only
    // buckets used by both sides are descended into; each shared key
    // yields the cross product of the two duplicate lists (§4.2).
    // Morsels are disjoint key ranges of the shared span.
    const KissTree& lk = *left.kiss();
    const KissTree& rk = *right.kiss();
    uint32_t lo = std::max(lk.min_key(), rk.min_key());
    uint32_t hi = std::min(lk.max_key(), rk.max_key());
    stats.morsels = engine::RunKissRangeMorsels(
        site, lk, lo, hi, [&](size_t w, uint32_t mlo, uint32_t mhi) {
          CandidatePipeline* pipeline = pipelines[w].get();
          StagingRing<ValuePair>* ring = &rings[w];
          SynchronousScanRange(
              lk, rk, mlo, mhi,
              [&](uint32_t, const KissTree::ValueRef& lv,
                  const KissTree::ValueRef& rv) {
                lv.ForEach([&](uint64_t l) {
                  rv.ForEach(
                      [&](uint64_t r) { emit_pair(pipeline, ring, l, r); });
                });
              });
          drain(pipeline, ring);
        });
  } else {
    // Mixed main families (one KISS, one prefix — e.g. a KISS-indexed
    // base main joined with a prefix-tree intermediate when prefer_kiss
    // is off): scan the prefix side's keys in order and probe the KISS
    // side with §2.3 batched, software-prefetched lookups
    // (KissTree::BatchLookup). Probing with KissKeyOf's 32-bit
    // truncation reproduces exactly the conflation a KISS x KISS scan
    // applies to every attribute value — no reconstruction heuristics.
    // Morsels split the prefix side on the same subtree-pair frontier
    // (self-pairing reuses the pair-scan partitioner).
    const bool left_is_kiss = left.is_kiss();
    const KissTree& ktree = left_is_kiss ? *left.kiss() : *right.kiss();
    const PrefixTree& ptree =
        left_is_kiss ? *right.prefix() : *left.prefix();
    stats.morsels = engine::RunPrefixPairMorsels(
        site, ptree, ptree,  // self-pair: every populated subtree
        [&](size_t w, std::span<const PairSlot> slice) {
          CandidatePipeline* pipeline = pipelines[w].get();
          StagingRing<ValuePair>* ring = &rings[w];
          // Probes are staged and flushed through BatchLookup in
          // kMixedProbeBatch groups.
          KissTree::LookupJob jobs[kMixedProbeBatch];
          const ValueList* prefix_vals[kMixedProbeBatch];
          size_t n = 0;
          auto flush = [&] {
            ktree.BatchLookup(std::span<KissTree::LookupJob>(jobs, n));
            for (size_t i = 0; i < n; ++i) {
              if (!jobs[i].found) continue;
              const ValueList* pv = prefix_vals[i];
              const KissTree::ValueRef& kv = jobs[i].values;
              if (left_is_kiss) {
                kv.ForEach([&](uint64_t l) {
                  pv->ForEach(
                      [&](uint64_t r) { emit_pair(pipeline, ring, l, r); });
                });
              } else {
                pv->ForEach([&](uint64_t l) {
                  kv.ForEach(
                      [&](uint64_t r) { emit_pair(pipeline, ring, l, r); });
                });
              }
            }
            n = 0;
          };
          SynchronousScanPairSlots(
              ptree, ptree, slice,
              [&](const uint8_t* key, const ValueList* vals,
                  const ValueList*) {
                jobs[n].key = KissKeyOf(SlotFromInt64(DecodeI64(key)));
                prefix_vals[n] = vals;
                if (++n == kMixedProbeBatch) flush();
              });
          if (n > 0) flush();
          drain(pipeline, ring);
        });
  }
  // Per-phase times overlap across workers; report the slowest worker
  // (the critical path), which stays comparable to total_ms.
  for (size_t w = 0; w < workers; ++w) {
    pipelines[w]->Finish();
    stats.materialize_ms =
        std::max(stats.materialize_ms, pipelines[w]->materialize_ms());
    stats.index_ms = std::max(stats.index_ms, pipelines[w]->index_ms());
  }
  stats.merge_ms = partials.MergeInto(site);

  FillOutputStats(*output, &stats);
  QPPT_RETURN_NOT_OK(ctx->Put(spec_.output.slot, std::move(output)));
  ctx->stats()->operators.push_back(std::move(stats));
  return Status::OK();
}

}  // namespace qppt
