// Figure 8: overall trace performance — 64 clients replaying the ECE, CS
// and MERGED logs in order, shared cursor, nonpersistent connections.
//
// Paper anchors: Flash-Lite significantly outperforms Flash and Apache on
// ECE and CS; on MERGED (large working set, poor locality) all servers are
// disk-bound and converge. Absolute bands in the paper: roughly 35-65 Mb/s
// for ECE/CS leaders, ~20 Mb/s when disk-bound.
//
// Replay length is capped (see EXPERIMENTS.md): the popularity mix of the
// full log is preserved; the cap only bounds host run time.

#include <vector>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using iolbench::ServerKind;
  iolbench::Figure fig("fig08", argc, argv);
  const ServerKind kinds[] = {ServerKind::kFlashLite, ServerKind::kFlash, ServerKind::kApache};
  iolbench::Sweep sweep;
  std::vector<iolwl::Trace> traces;
  for (iolwl::TraceSpec spec : {iolwl::EceSpec(), iolwl::CsSpec(), iolwl::MergedSpec()}) {
    // Cap request-sequence length (distribution intact; see header comment).
    spec.num_requests = fig.smoke() ? 20000 : 120000;
    traces.push_back(iolwl::Trace::Generate(spec));
    sweep.x.push_back(sweep.x.size());
    sweep.labels.push_back(spec.name);
    sweep.suffix.push_back(":" + spec.name);
  }

  fig.Header("Figure 8: overall trace performance (Mb/s), 64 clients",
             "trace\tFlash-Lite\tFlash\tApache\tlite_hit\tflash_hit");
  sweep.series = {"Flash-Lite", "Flash", "Apache"};
  sweep.cell = [&](size_t i, size_t s) {
    iolbench::Cell cell = iolbench::TraceCell(kinds[s], &traces[i], 64, 30000, 2000);
    cell.sequential = true;
    return cell;
  };
  sweep.ratios = [](size_t, const std::vector<ioldrv::ExperimentResult>& r) {
    return std::vector<double>{r[0].cache_hit_rate, r[1].cache_hit_rate};
  };
  fig.Run(sweep);
  return fig.Finish(
      "paper: Flash-Lite >> Flash > Apache on ECE and CS; MERGED disk-bound, all "
      "servers converge");
}
