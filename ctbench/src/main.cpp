// ctbench: the benchmark binary.
//
//   ctbench --workload <ct_submit|ct_monitor|paper_pipeline> --seed <n>
//           --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// Untraced (--trace 0): runs the workload for the window and prints the
// end-to-end metrics. Traced (--trace 1): runs the workload untraced for
// half the window and traced for the other half (the difference is the
// tracing overhead), then the per-layer replay, writes every span to
// <work-dir>/trace-<workload>-seed<n>.json and prints the per-layer
// metrics. Diagnostics go to stderr; the last stdout line is the result.
// Exits 1 when any output failed its check, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "workloads.hpp"

using namespace ctbench;

namespace {

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::strtoull(value, nullptr, 10);
    else if (key == "--seconds") args.seconds = std::strtod(value, nullptr);
    else if (key == "--trace") args.trace = std::strcmp(value, "0") != 0;
    else if (key == "--work-dir") args.work_dir = value;
    else return false;
  }
  return argc % 2 == 1 && args.seconds > 0 &&
         (args.workload == "ct_submit" || args.workload == "ct_monitor" ||
          args.workload == "paper_pipeline");
}

Outcome run_workload(const Args& args, double seconds, SpanRecorder& spans,
                     const std::string& scratch) {
  if (args.workload == "ct_submit") return run_ct_submit(args, seconds, spans, scratch);
  if (args.workload == "ct_monitor") return run_ct_monitor(args, seconds, spans, scratch);
  return run_paper_pipeline(args, seconds, spans);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: ctbench --workload <ct_submit|ct_monitor|paper_pipeline> --seed <n> "
                 "--seconds <s> --trace <0|1> [--work-dir <dir>]\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  Outcome result;
  {
    const ScratchDir scratch(args.work_dir, args.workload);
    if (!args.trace) {
      SpanRecorder off(false);
      result = run_workload(args, args.seconds, off, scratch.path());
    } else {
      SpanRecorder off(false);
      const Outcome untraced = run_workload(args, args.seconds / 2, off, scratch.path());
      SpanRecorder spans(true);
      const Outcome traced = run_workload(args, args.seconds / 2, spans, scratch.path());
      Outcome layers;
      run_layer_replay(args, spans, layers, scratch.path());
      result = traced_result(untraced, traced, std::move(layers), spans.size());
      const std::string path = args.work_dir + "/trace-" + args.workload + "-seed" +
                               std::to_string(args.seed) + ".json";
      if (!spans.write_json(path)) result.problem("cannot write the trace file " + path);
      std::fprintf(stderr, "[ctbench] %zu spans written to %s; self time by span:\n",
                   spans.size(), path.c_str());
      for (const auto& st : spans.self_times()) {
        std::fprintf(stderr, "  %-32s n=%-7zu self total %10.3f ms  p50 %10.3f us\n",
                     st.name.c_str(), st.count, st.total_self_ms, st.p50_self_us);
      }
    }
  }
  std::fflush(stderr);
  std::printf("%s\n", render_result(result).c_str());
  return result.correct ? 0 : 1;
}
