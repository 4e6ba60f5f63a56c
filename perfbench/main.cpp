// goldfish_perfbench: the repository benchmark program.
//
//   goldfish_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                      [--out <dir>]
//
// Workloads: unlearn-mlp, unlearn-conv, fl-stream, shard-delete, or all
// (every workload in turn, from this one process). Prints a human-readable
// report with every metric by name, unit and sample count, the hardware and
// build fingerprint, and as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"} — the end-to-end metrics
// untraced, the per-layer metrics with --trace 1.
#include <sys/stat.h>

#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "workloads.h"

namespace {

using perfbench::Options;
using perfbench::Outcome;

int usage(const char* why) {
  std::cerr << "goldfish_perfbench: " << why
            << "\nusage: goldfish_perfbench --workload "
               "<unlearn-mlp|unlearn-conv|fl-stream|shard-delete|all> "
               "--seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n";
  return 2;
}

Outcome run_one(const Options& opt) {
  std::cout << "== workload " << opt.workload << " (seed " << opt.seed
            << ", " << opt.seconds << " s, trace " << opt.trace << ")\n";
  if (opt.workload == "unlearn-mlp") return perfbench::run_unlearn(opt, false);
  if (opt.workload == "unlearn-conv") return perfbench::run_unlearn(opt, true);
  if (opt.workload == "fl-stream") return perfbench::run_stream(opt);
  return perfbench::run_shard(opt);
}

// Write the fingerprinted result next to the trace files.
void save(const Options& opt, const std::string& json) {
  const std::string path = opt.out_dir + "/" + opt.workload + "-trace" +
                           std::to_string(opt.trace) + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"fingerprint\": %s, "
               "\"result\": %s}\n",
               opt.workload.c_str(),
               static_cast<unsigned long long>(opt.seed),
               perfbench::fingerprint_json().c_str(), json.c_str());
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string val = argv[++i];
    try {
      if (a == "--workload") {
        opt.workload = val;
        have_workload = true;
      } else if (a == "--seed") {
        opt.seed = std::stoull(val);
      } else if (a == "--seconds") {
        opt.seconds = std::stod(val);
      } else if (a == "--trace") {
        if (val != "0" && val != "1") return usage("--trace takes 0 or 1");
        opt.trace = val == "1";
      } else if (a == "--out") {
        opt.out_dir = val;
      } else {
        return usage(("unknown argument " + a).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + a).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");
  static const char* kWorkloads[] = {"unlearn-mlp", "unlearn-conv",
                                     "fl-stream", "shard-delete"};
  std::vector<std::string> todo;
  for (const char* w : kWorkloads)
    if (opt.workload == w || opt.workload == "all") todo.push_back(w);
  if (todo.empty()) return usage(("unknown workload " + opt.workload).c_str());
  ::mkdir(opt.out_dir.c_str(), 0755);

  std::cout << "fingerprint " << perfbench::fingerprint_json() << "\n";
  // `all` folds every workload's result into one object whose metric names
  // carry the workload as a prefix.
  Outcome total;
  for (const std::string& w : todo) {
    Options one = opt;
    one.workload = w;
    Outcome o;
    try {
      o = run_one(one);
    } catch (const std::exception& e) {
      std::cout << "ERROR in " << w << ": " << e.what() << "\n";
      return 1;
    }
    save(one, perfbench::result_json(o));
    if (todo.size() == 1) {
      total = std::move(o);
      break;
    }
    std::cout << w << " " << perfbench::result_json(o) << "\n";
    total.correct = total.correct && o.correct;
    total.attempted += o.attempted;
    total.failed += o.failed;
    for (const perfbench::Metric& m : o.metrics)
      total.add(w + "/" + m.name, m.value, m.unit);
  }
  std::cout << perfbench::result_json(total) << "\n";
  return 0;
}
