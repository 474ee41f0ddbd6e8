// Ablation (Section 6.7): sendfile(2)-style monolithic syscall vs IO-Lite
// vs the mmap+writev baseline on the static single-file workload.
//
// Expected shape: sendfile eliminates the socket-buffer copy like IO-Lite,
// so it beats Flash everywhere; but without content identity (generation
// numbers) it recomputes the TCP checksum on every transmission, so IO-Lite
// keeps a margin that grows with file size. (And sendfile offers nothing
// for the CGI experiments at all.)

#include <memory>
#include <vector>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using iolbench::ServerKind;
  iolbench::Figure fig("ablation_sendfile", argc, argv);
  const std::vector<size_t> sizes = {2 * 1024, 10 * 1024, 50 * 1024, 200 * 1024};
  iolbench::Sweep sweep;
  iolbench::AddSizes(&sweep, sizes);

  fig.Header("Ablation: sendfile vs IO-Lite vs mmap+writev (Mb/s, nonpersistent)",
             "size_kb\tFlash-Lite\tsendfile\tFlash\tlite/sendfile");
  sweep.series = {"Flash-Lite", "sendfile", "Flash"};
  sweep.cell = [&](size_t i, size_t s) {
    iolbench::Cell cell = iolbench::SingleFileCell(
        s == 0 ? ServerKind::kFlashLite : ServerKind::kFlash, sizes[i], false);
    if (s == 1) {
      cell.options.checksum_cache = true;  // Present but unusable by sendfile's path.
      cell.server = [](iolsys::System* sys) {
        return std::make_unique<iolhttp::SendfileServer>(&sys->ctx(), &sys->net(), &sys->io());
      };
    }
    return cell;
  };
  sweep.ratios = [](size_t, const std::vector<ioldrv::ExperimentResult>& r) {
    return std::vector<double>{r[0].megabits_per_sec / r[1].megabits_per_sec};
  };
  fig.Run(sweep);
  return fig.Finish(
      "expectation: Flash < sendfile < Flash-Lite; the IO-Lite margin is the cached checksum");
}
