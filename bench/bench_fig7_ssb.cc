// E3 — Figure 7: execution time of all 13 SSB queries on the three
// systems: DexterDB/QPPT (this library), a commercial vector-at-a-time
// DBMS (proxy: the vector engine), and MonetDB (proxy: the column
// engine). Single-threaded, warm data, indexes prebuilt — the paper's
// setup. The paper ran SF=15; scale with QPPT_SSB_SF (default 0.1).
//
// Expected shape (paper): QPPT fastest on every query; margins small on
// the single-join 1.x queries, growing on 3.x/4.x where the columnar
// engines pay tuple-reconstruction costs per extra join column.

#include <cstdio>

#include "bench_common.h"
#include "ssb/queries_baseline.h"
#include "ssb/queries_qppt.h"

int main() {
  using namespace qppt;
  using namespace qppt::bench;

  auto data = LoadSsb();
  int reps = Repetitions();
  std::printf("SSB query performance (SF=%.2f, %zu lineorder rows, "
              "min of %d reps)\n\n",
              data->config.scale_factor,
              data->db.table("lineorder").value()->num_rows(), reps);
  std::printf("%-6s %16s %16s %16s %10s\n", "query", "DexterDB/QPPT[ms]",
              "Vector(comm.)[ms]", "Column(MonetDB)[ms]", "speedup");

  PlanKnobs knobs;
  double totals[3] = {0, 0, 0};
  for (const auto& id : ssb::AllQueryIds()) {
    size_t qppt_rows = 0;
    double qppt_ms = MinWallMs(reps, [&] {
      auto r = ssb::RunQppt(*data, id, knobs);
      if (!r.ok()) {
        std::fprintf(stderr, "QPPT Q%s failed: %s\n", id.c_str(),
                     r.status().ToString().c_str());
        std::exit(1);
      }
      qppt_rows = r->rows.size();
    });
    double vector_ms = MinWallMs(reps, [&] {
      auto r = ssb::RunVector(*data, id);
      if (!r.ok()) std::exit(1);
    });
    double column_ms = MinWallMs(reps, [&] {
      auto r = ssb::RunColumn(*data, id);
      if (!r.ok()) std::exit(1);
    });
    totals[0] += qppt_ms;
    totals[1] += vector_ms;
    totals[2] += column_ms;
    std::printf("Q%-5s %16.2f %16.2f %16.2f %9.2fx  (%zu rows)\n",
                id.c_str(), qppt_ms, vector_ms, column_ms,
                qppt_ms > 0 ? column_ms / qppt_ms : 0.0, qppt_rows);
  }
  std::printf("%-6s %16.2f %16.2f %16.2f\n", "TOTAL", totals[0], totals[1],
              totals[2]);
  return 0;
}
