// Figure 13: runtimes of the converted UNIX applications.
//
// wc over a cached 1.75 MB file; permute|wc over 10!*40 = 145,152,000 pipe
// bytes; cat|grep over the wc file; the gcc-chain stand-in over 27 files /
// 167 KB of source.
//
// Paper anchors (reduction in runtime from IO-Lite): wc 37%, permute 33%,
// grep 48%, gcc ~1%.

#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "src/apps/filters.h"
#include "src/apps/gcc_chain.h"
#include "src/system/system.h"

namespace {

// The simulated seconds `run` takes on `sys`.
template <typename Run>
double Seconds(iolsys::System* sys, Run run) {
  iolsim::SimTime t0 = sys->ctx().clock().now();
  run();
  return iolsim::ToSeconds(sys->ctx().clock().now() - t0);
}

// A 1.75 MB file, read once so the file cache is warm (no disk I/O).
iolfs::FileId WarmFile(iolsys::System* sys) {
  iolfs::FileId f = sys->fs().CreateFile("big", 1750 * 1024);
  sys->io().ReadExtent(f, 0, 1750 * 1024);
  return f;
}

void Row(iolbench::JsonReporter* json, int index, const char* name, double posix_s,
         double iolite_s) {
  std::printf("%s\t%.4f\t%.4f\t%.1f%%\n", name, posix_s, iolite_s,
              100.0 * (1.0 - iolite_s / posix_s));
  json->Add(std::string(name) + ":posix", index, posix_s);
  json->Add(std::string(name) + ":iolite", index, iolite_s);
}

}  // namespace

int main(int argc, char** argv) {
  iolbench::Figure fig("fig13", argc, argv);
  fig.Header("Figure 13: application runtimes (simulated seconds)",
             "app\tunmodified_s\tiolite_s\treduction");

  // wc on a cached 1.75 MB file.
  {
    iolsys::System sys;
    iolfs::FileId f = WarmFile(&sys);
    double posix_s = Seconds(&sys, [&] { iolapp::WcPosix(&sys, f); });
    Row(&fig.json(), 0, "wc", posix_s, Seconds(&sys, [&] { iolapp::WcIolite(&sys, f); }));
  }

  // permute | wc: ten 4-char words -> 10! * 40 bytes through the pipe.
  {
    std::string sentence = "abcdefghijklmnopqrstuvwxyz0123456789ABCD";  // 40 chars.
    iolsys::System sys_a;
    double posix_s = Seconds(&sys_a, [&] { iolapp::PermuteWcPosix(&sys_a, sentence, 4); });
    iolsys::System sys_b;
    Row(&fig.json(), 1, "permute", posix_s,
        Seconds(&sys_b, [&] { iolapp::PermuteWcIolite(&sys_b, sentence, 4); }));
  }

  // cat file | grep, same file as wc.
  {
    iolsys::System sys;
    iolfs::FileId f = WarmFile(&sys);
    double posix_s = Seconds(&sys, [&] { iolapp::GrepCatPosix(&sys, f, "xyz"); });
    Row(&fig.json(), 2, "grep", posix_s,
        Seconds(&sys, [&] { iolapp::GrepCatIolite(&sys, f, "xyz"); }));
  }

  // gcc chain: 27 files, 167 KB total source.
  {
    iolapp::GccChainConfig config;
    iolsys::System sys_a;
    double posix_s = Seconds(&sys_a, [&] { iolapp::GccChainPosix(&sys_a, config); });
    iolsys::System sys_b;
    Row(&fig.json(), 3, "gcc", posix_s,
        Seconds(&sys_b, [&] { iolapp::GccChainIolite(&sys_b, config); }));
  }

  return fig.Finish("paper: wc -37%, permute -33%, grep -48%, gcc ~-1%");
}
