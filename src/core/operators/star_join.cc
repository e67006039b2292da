#include "core/operators/star_join.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
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

}  // namespace

Status StarJoinOp::Execute(ExecContext* ctx) {
  OperatorStats stats;
  stats.name = name();
  Timer total;

  QPPT_ASSIGN_OR_RETURN(auto left,
                        BoundSide::Bind(*ctx, spec_.left, spec_.left_columns));
  QPPT_ASSIGN_OR_RETURN(
      auto right, BoundSide::Bind(*ctx, spec_.right, spec_.right_columns));

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

  // Serial scans poll the cancel token every kCancelStride emitted
  // pairs, mirroring the selection/select-join loops: the ticker throws
  // CancelledException and Plan::Run converts it back to a Status. The
  // parallel branches poll per morsel inside the drivers instead (the
  // ticker is not thread-safe), so only run_serial arms the pointer.
  CancelTicker serial_cancel(ctx->cancel());
  CancelTicker* serial_ticker = nullptr;

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
    if (serial_ticker != nullptr) serial_ticker->Tick();
    ValuePair pair{l, r};
    if (staged) {
      left.Prefetch(l);
      right.Prefetch(r);
      if (!ring->Exchange(&pair)) return;
    }
    resolve_pair(pipeline, pair);
  };
  // Resolves a worker's staged pairs: at the end of every morsel (so the
  // morsel's span covers its work) and, serially, before Finish().
  auto drain = [&](CandidatePipeline* pipeline, StagingRing<ValuePair>* ring) {
    ValuePair pair{};
    while (ring->Pop(&pair)) resolve_pair(pipeline, pair);
  };

  engine::WorkerPool* pool = ctx->worker_pool();
  // The label must outlive the driver calls below (trace spans name it).
  const std::string site_label = display_name();
  engine::MorselSite site{.pool = pool,
                          .trace = ctx->trace(),
                          .label = site_label,
                          .cancel = ctx->cancel()};
  // Forking pays off when the side driving the scan is big enough; the
  // mixed branch overrides this with the KISS (scanned) side's size.
  auto worth_forking = [&](uint64_t scanned_tuples) {
    return pool != nullptr && ctx->knobs().threads > 1 &&
           scanned_tuples >= engine::kMinParallelInputTuples;
  };
  const bool parallel = worth_forking(left.num_input_tuples());

  // Shared driver of every parallel branch: per-worker pipelines (each
  // behind its own ring) feeding per-worker partial outputs, one morsel
  // batch (`scan` returns the morsel count; each morsel drains its ring),
  // then the key-range-partitioned merge — whose wall time is reported
  // separately so the merge bottleneck stays visible.
  auto run_parallel = [&](auto&& scan) {
    size_t workers = pool->num_workers();
    engine::PartialOutputs partials(*output, workers);
    std::vector<std::unique_ptr<CandidatePipeline>> pipelines;
    pipelines.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
      pipelines.push_back(std::make_unique<CandidatePipeline>(
          assists, width, partials.worker(w), key_positions,
          ctx->knobs().join_buffer_size));
    }
    std::vector<StagingRing<ValuePair>> rings(workers);
    stats.morsels = scan(pipelines, rings);
    // Per-phase times overlap across workers; report the slowest worker
    // (the critical path), which stays comparable to total_ms.
    for (size_t w = 0; w < workers; ++w) {
      pipelines[w]->Finish();
      stats.materialize_ms =
          std::max(stats.materialize_ms, pipelines[w]->materialize_ms());
      stats.index_ms = std::max(stats.index_ms, pipelines[w]->index_ms());
    }
    Timer merge;
    stats.merge_morsels = partials.MergeInto(site, output.get());
    stats.merge_ms = merge.ElapsedMs();
  };

  auto run_serial = [&](auto&& scan) {
    serial_ticker = &serial_cancel;
    CandidatePipeline pipeline(assists, width, output.get(), key_positions,
                               ctx->knobs().join_buffer_size);
    StagingRing<ValuePair> ring;
    scan(&pipeline, &ring);
    drain(&pipeline, &ring);
    pipeline.Finish();
    stats.materialize_ms = pipeline.materialize_ms();
    stats.index_ms = pipeline.index_ms();
  };

  if (!left.is_kiss() && !right.is_kiss()) {
    // Prefix-tree mains: structural synchronous scan. The parallel path
    // splits the trees at their branching level into disjoint subtree
    // pair morsels (§7: deterministic key positions, no rebalancing).
    const PrefixTree& lp = *left.prefix();
    const PrefixTree& rp = *right.prefix();
    auto emit_lists = [&](CandidatePipeline* pipeline,
                          StagingRing<ValuePair>* ring, const ValueList* lv,
                          const ValueList* rv) {
      lv->ForEach([&](uint64_t l) {
        rv->ForEach([&](uint64_t r) { emit_pair(pipeline, ring, l, r); });
      });
    };
    if (parallel) {
      run_parallel([&](auto& pipelines, auto& rings) {
        return engine::RunPrefixPairMorsels(
            site, lp, rp,
            [&](size_t w, const PairScanLevel& level, size_t begin,
                size_t end) {
              CandidatePipeline* pipeline = pipelines[w].get();
              SynchronousScanPairSlots(
                  lp, rp, level, begin, end,
                  [&](const uint8_t*, const ValueList* lv,
                      const ValueList* rv) {
                    emit_lists(pipeline, &rings[w], lv, rv);
                  });
              drain(pipeline, &rings[w]);
            });
      });
    } else {
      run_serial([&](CandidatePipeline* pipeline,
                     StagingRing<ValuePair>* ring) {
        SynchronousScan(lp, rp,
                        [&](const uint8_t*, const ValueList* lv,
                            const ValueList* rv) {
                          emit_lists(pipeline, ring, lv, rv);
                        });
      });
    }
  } else if (left.is_kiss() && right.is_kiss()) {
    // The synchronous index scan over the two main indexes (Fig. 6): only
    // buckets used by both sides are descended into; each shared key
    // yields the cross product of the two duplicate lists (§4.2).
    const KissTree& lk = *left.kiss();
    const KissTree& rk = *right.kiss();
    if (parallel) {
      // Probe side parallelism: disjoint key-range morsels over the
      // shared span, per-worker pipelines and partial outputs, one merge
      // at the end.
      uint32_t lo = std::max(lk.min_key(), rk.min_key());
      uint32_t hi = std::min(lk.max_key(), rk.max_key());
      run_parallel([&](auto& pipelines, auto& rings) {
        return engine::RunKissRangeMorsels(
            site, lk, lo, hi, [&](size_t w, uint32_t mlo, uint32_t mhi) {
              CandidatePipeline* pipeline = pipelines[w].get();
              SynchronousScanRange(
                  lk, rk, mlo, mhi,
                  [&](uint32_t, const KissTree::ValueRef& lv,
                      const KissTree::ValueRef& rv) {
                    lv.ForEach([&](uint64_t l) {
                      rv.ForEach([&](uint64_t r) {
                        emit_pair(pipeline, &rings[w], l, r);
                      });
                    });
                  });
              drain(pipeline, &rings[w]);
            });
      });
    } else {
      run_serial([&](CandidatePipeline* pipeline,
                     StagingRing<ValuePair>* ring) {
        SynchronousScan(lk, rk,
                        [&](uint32_t, const KissTree::ValueRef& lv,
                            const KissTree::ValueRef& rv) {
                          lv.ForEach([&](uint64_t l) {
                            rv.ForEach([&](uint64_t r) {
                              emit_pair(pipeline, ring, l, r);
                            });
                          });
                        });
      });
    }
  } else {
    // Mixed main families (one KISS, one prefix — e.g. a KISS-indexed
    // base main joined with a prefix-tree intermediate when prefer_kiss
    // is off): scan the prefix side's keys in order and probe the KISS
    // side with §2.3 batched, software-prefetched lookups
    // (KissTree::BatchLookup). Probing with KissKeyOf's 32-bit
    // truncation reproduces exactly the conflation a KISS x KISS scan
    // applies to every attribute value — no reconstruction heuristics.
    // The parallel path splits the prefix side at its branching level
    // (self-pairing reuses the pair-scan partitioner).
    const bool left_is_kiss = left.is_kiss();
    const KissTree& ktree = left_is_kiss ? *left.kiss() : *right.kiss();
    const PrefixTree& ptree =
        left_is_kiss ? *right.prefix() : *left.prefix();
    if (ptree.key_len() != 8) {
      return Status::InvalidArgument(
          "star join with mixed KISS/prefix mains requires the prefix main "
          "to be keyed on the single shared integer join attribute");
    }
    // Drives one scan of (part of) the prefix side: `enumerate(sink)`
    // calls sink(key, values) per content node; probes are staged and
    // flushed through BatchLookup in kMixedProbeBatch groups.
    auto scan_mixed = [&](CandidatePipeline* pipeline,
                          StagingRing<ValuePair>* ring, auto&& enumerate) {
      KissTree::LookupJob jobs[kMixedProbeBatch];
      const ValueList* prefix_vals[kMixedProbeBatch];
      size_t n = 0;
      auto flush = [&] {
        if (n == 0) return;
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
      enumerate([&](const uint8_t* key, const ValueList* vals) {
        jobs[n].key = static_cast<uint32_t>(DecodeI64(key));  // KissKeyOf
        prefix_vals[n] = vals;
        if (++n == kMixedProbeBatch) flush();
      });
      flush();
    };
    // Fork on EITHER side being big: the scan runs over the prefix
    // side's keys, but the bulk of the work is emitting the KISS side's
    // duplicate lists — a huge fact main joined through a tiny dimension
    // intermediate still parallelizes by splitting the dimension's keys
    // (and their emit work) across morsels.
    if (worth_forking(std::max(left.num_input_tuples(),
                               right.num_input_tuples()))) {
      run_parallel([&](auto& pipelines, auto& rings) {
        return engine::RunPrefixPairMorsels(
            site, ptree, ptree,  // self-pair: every populated subtree
            [&](size_t w, const PairScanLevel& level, size_t begin,
                size_t end) {
              CandidatePipeline* pipeline = pipelines[w].get();
              scan_mixed(pipeline, &rings[w], [&](auto&& sink) {
                SynchronousScanPairSlots(
                    ptree, ptree, level, begin, end,
                    [&](const uint8_t* key, const ValueList* vals,
                        const ValueList*) { sink(key, vals); });
              });
              drain(pipeline, &rings[w]);
            });
      });
    } else {
      run_serial([&](CandidatePipeline* pipeline,
                     StagingRing<ValuePair>* ring) {
        scan_mixed(pipeline, ring, [&](auto&& sink) {
          ptree.ScanAll([&](const PrefixTree::ContentNode& c) {
            sink(c.key(), ptree.ValuesOf(&c));
          });
        });
      });
    }
  }

  FillOutputStats(*output, &stats);
  stats.total_ms = total.ElapsedMs();
  QPPT_RETURN_NOT_OK(ctx->Put(spec_.output.slot, std::move(output)));
  ctx->stats()->operators.push_back(std::move(stats));
  return Status::OK();
}

}  // namespace qppt
