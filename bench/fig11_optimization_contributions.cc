// Figure 11: contributions of the individual optimizations.
//
// Flash-Lite is run with {GDS, LRU} cache replacement crossed with
// {checksum cache on, off}, against Flash, on the MERGED subtrace sweep.
//
// Paper anchors: copy elimination alone (Flash vs Flash-Lite-LRU-nocksum,
// in-memory) is worth 21-33%; checksum caching adds 10-15% in-memory; GDS
// over LRU is worth 17-28% on disk-heavy data sets.

#include <vector>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using iolbench::ServerKind;
  iolbench::Figure fig("fig11", argc, argv);
  const ServerKind kinds[] = {ServerKind::kFlashLite, ServerKind::kFlashLiteLru,
                              ServerKind::kFlashLiteNoCksum, ServerKind::kFlashLiteLruNoCksum,
                              ServerKind::kFlash};
  iolbench::Sweep sweep;
  std::vector<iolwl::Trace> prefixes = iolbench::SubtracePrefixes(fig.smoke(), &sweep);

  fig.Header("Figure 11: optimization contributions on the MERGED subtrace (Mb/s)",
             "dataset_mb\tFL(gds+ck)\tFL(lru+ck)\tFL(gds)\tFL(lru)\tFlash");
  sweep.series = {"FL-gds-ck", "FL-lru-ck", "FL-gds", "FL-lru", "Flash"};
  sweep.cell = [&](size_t i, size_t s) {
    return iolbench::TraceCell(kinds[s], &prefixes[i], 64, 80000, 30000);
  };
  fig.Run(sweep);
  return fig.Finish(
      "paper: copy elimination 21-33% (Flash vs FL-LRU-nocksum, in-memory); checksum "
      "cache +10-15%; GDS vs LRU +17-28% disk-heavy");
}
