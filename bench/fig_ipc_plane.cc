// Shared-memory data plane A/B: the same proxy + origin + CGI worker roles
// run as the deterministic in-process simulator, as threads, and as real
// fork()ed processes sharing one region (src/ipc + src/proxy/plane_proxy,
// composed by ioldrv::RunProcessTier).
//
// Every row reports host wall-clock throughput, the cross-process payload
// bytes actually copied (read back through the region's ShmTable the way an
// unrelated process would), and whether the response stream was
// byte-identical to the independent reference. The forked rows add CPU
// seconds per role (client, proxy, origin, CGI); idle workers spin, so a
// worker role's CPU spans its lifetime, not just the requests it served. The copy-mode row is the
// contrast path: the identical plane with a memcpy per response body.
//
// Expected shape: identical checksums down the whole column, zero copied
// bytes everywhere except the copy row, and the process rows paying only
// scheduling overhead — the payload path is the same mapped bytes in every
// mode.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/driver/process_tier.h"

namespace {

struct PlaneRow {
  std::string series;
  double x = 0;  // Document size in KB.
  ioldrv::ProcessTierResult r;
};

ioldrv::ProcessTierResult RunMode(iolipc::PlaneMode mode, bool copy_path,
                                  uint64_t doc_bytes, int requests, bool verify) {
  ioldrv::ProcessTierConfig cfg;
  cfg.mode = mode;
  cfg.region_name = "iolite-bench-plane";
  cfg.requests = requests;
  cfg.inflight = 8;
  cfg.docs.doc_count = 24;
  cfg.docs.doc_bytes = doc_bytes;
  cfg.cgi_every = 8;
  cfg.cgi_body_bytes = 2048;
  cfg.proxy_workers = 2;
  cfg.origin_workers = 1;
  cfg.cgi_workers = 1;
  cfg.copy_data_path = copy_path;
  cfg.verify = verify;
  return ioldrv::RunProcessTier(cfg);
}

void PrintRow(const PlaneRow& row) {
  std::printf("%-22s %6.0f KB  %9.1f Mb/s  %6llu req  %4llu err  copied=%8llu B  "
              "identical=%d  cksum=%016llx  %7.1f ms",
              row.series.c_str(), row.x, row.r.mbits_per_sec,
              (unsigned long long)row.r.requests, (unsigned long long)row.r.errors,
              (unsigned long long)row.r.bytes_copied_cross_process,
              row.r.byte_identical ? 1 : 0,
              (unsigned long long)row.r.response_checksum, row.r.wall_ms);
  if (row.r.requests > 0 && row.r.client_cpu_s + row.r.proxy_cpu_s > 0) {
    // Per-role CPU (forked rows only), in microseconds per response.
    double us = 1e6 / static_cast<double>(row.r.requests);
    std::printf("  cpu/req client %.2f proxy %.2f origin %.2f cgi %.2f us",
                row.r.client_cpu_s * us, row.r.proxy_cpu_s * us, row.r.origin_cpu_s * us,
                row.r.cgi_cpu_s * us);
  }
  std::printf("\n");
}

// The ProcessTier result does not fit JsonReporter's experiment schema
// (simulated-time latency vs host wall clock), so this figure writes its
// rows directly: same envelope, plane-specific fields.
bool WriteJson(const std::string& path, bool smoke, const std::vector<PlaneRow>& rows) {
  if (path.empty()) {
    return true;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "fig_ipc_plane: cannot open %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\"figure\": \"ipc_plane\", \"smoke\": %s, \"build\": %s, \"rows\": [",
               smoke ? "true" : "false", iolbench::BuildProvenanceJson().c_str());
  for (size_t i = 0; i < rows.size(); ++i) {
    const PlaneRow& row = rows[i];
    std::fprintf(
        f,
        "%s\n  {\"series\": \"%s\", \"x\": %.6g, \"value\": %.6g, "
        "\"requests\": %llu, \"errors\": %llu, \"wall_ms\": %.6g, "
        "\"events_per_sec\": %.6g, "
        "\"bytes_copied_cross_process\": %llu, \"byte_identical\": %s, "
        "\"checksum\": \"%016llx\", \"counters_out_of_process\": %s, "
        "\"client_cpu_s\": %.6g, \"proxy_cpu_s\": %.6g, \"origin_cpu_s\": %.6g, "
        "\"cgi_cpu_s\": %.6g}",
        i == 0 ? "" : ",", row.series.c_str(), row.x, row.r.mbits_per_sec,
        (unsigned long long)row.r.requests, (unsigned long long)row.r.errors,
        row.r.wall_ms, row.r.requests_per_sec,
        (unsigned long long)row.r.bytes_copied_cross_process,
        row.r.byte_identical ? "true" : "false",
        (unsigned long long)row.r.response_checksum,
        row.r.counters_out_of_process ? "true" : "false", row.r.client_cpu_s,
        row.r.proxy_cpu_s, row.r.origin_cpu_s, row.r.cgi_cpu_s);
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  iolbench::BenchOptions opts = iolbench::ParseBenchOptions(argc, argv);
  const int requests = static_cast<int>(opts.Requests(2500));
  // Smoke mode verifies every response byte; full runs trust the checksum
  // column (still computed and compared) and spend the time on throughput.
  const bool verify = opts.smoke;

  std::vector<uint64_t> doc_sizes = {4096, 16384, 65536};
  if (opts.smoke) {
    doc_sizes = {8192};
  }

  iolbench::PrintHeader(
      "Shared-memory plane: one worker implementation, in-process sim vs "
      "threads vs forked processes (host wall clock)",
      "series                 docKB      throughput     reqs   errs   "
      "copied-x-process   identical  checksum          wall");

  std::vector<PlaneRow> rows;
  bool ok = true;
  for (uint64_t doc_bytes : doc_sizes) {
    double kb = static_cast<double>(doc_bytes) / 1024.0;
    PlaneRow sim{"plane-in-process", kb,
                 RunMode(iolipc::PlaneMode::kInProcess, false, doc_bytes, requests, verify)};
    PlaneRow thr{"plane-threads", kb,
                 RunMode(iolipc::PlaneMode::kThreads, false, doc_bytes, requests, verify)};
    PlaneRow proc{"plane-processes", kb,
                  RunMode(iolipc::PlaneMode::kProcesses, false, doc_bytes, requests, verify)};
    PlaneRow copy{"plane-processes-copy", kb,
                  RunMode(iolipc::PlaneMode::kProcesses, true, doc_bytes, requests, verify)};
    for (const PlaneRow* row : {&sim, &thr, &proc, &copy}) {
      PrintRow(*row);
      rows.push_back(*row);
      ok = ok && row->r.ok && row->r.errors == 0 && row->r.byte_identical;
    }
    // The cross-mode contract, checked per size: one byte stream, and zero
    // cross-process copies everywhere but the contrast row.
    ok = ok && sim.r.response_checksum == thr.r.response_checksum &&
         sim.r.response_checksum == proc.r.response_checksum &&
         sim.r.response_checksum == copy.r.response_checksum &&
         proc.r.bytes_copied_cross_process == 0 &&
         copy.r.bytes_copied_cross_process > 0;
  }

  std::printf(
      "# expectation: identical checksums down each column; zero copied "
      "bytes except the copy row; process rows within scheduling noise of "
      "threads\n");
  bool json_ok = WriteJson(opts.json_path, opts.smoke, rows);
  if (!ok) {
    std::fprintf(stderr, "fig_ipc_plane: cross-mode contract violated\n");
  }
  return ok && json_ok ? 0 : 1;
}
