// Repository benchmark binary: runs one workload and prints its metrics.
//
//   groupfel_benchmark --workload NAME --seed N --seconds S --trace 0|1
//                      [--smoke] [--out FILE] [--trace-file FILE]
//                      [--commit SHA]
//
// --trace 0 times the library's public entry points and reports the
// end-to-end metrics; --trace 1 runs the traced replay and reports the
// per-layer metrics. Human-readable lines come first; the last stdout line
// is one JSON object {"correct", "attempted", "failed", "metrics"}. --out
// writes the same numbers with sample counts, a context block and a
// correctness block. The exit status is 0 only when every check passed.
// benchmark/run.py builds this binary and is the usual way to run it.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "util/flags.hpp"

using namespace groupfel;
using namespace groupfel::benchmark;

namespace {

std::string json_number(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string cpu_model() {
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line))
    if (line.rfind("model name", 0) == 0)
      return line.substr(line.find(':') + 2);
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string metrics_json(const Metrics& metrics, bool with_n) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    os << (first ? "" : ", ") << json_string(name)
       << ": {\"value\": " << json_number(m.value)
       << ", \"unit\": " << json_string(m.unit);
    if (with_n) {
      os << ", \"n\": " << m.n;
      if (!m.samples.empty()) {
        os << ", \"samples\": [";
        for (std::size_t i = 0; i < m.samples.size(); ++i)
          os << (i ? ", " : "") << json_number(m.samples[i]);
        os << "]";
      }
    }
    os << "}";
    first = false;
  }
  os << "}";
  return os.str();
}

int usage(const std::string& why) {
  std::cerr << "groupfel_benchmark: " << why
            << "\nusage: groupfel_benchmark --workload NAME --seed N "
               "--seconds S --trace 0|1 [--smoke] [--out FILE] "
               "[--trace-file FILE] [--commit SHA]\nworkloads:";
  for (const auto& n : workload_names()) std::cerr << " " << n;
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const std::string name = flags.get_string("workload", "");
  std::int64_t seed = 0, trace = 0;
  double seconds = 0.0;
  try {
    seed = flags.get_int("seed", 7);
    trace = flags.get_int("trace", 0);
    seconds = flags.get_double("seconds", 10.0);
  } catch (const std::exception&) {
    return usage("--seed, --trace and --seconds take numbers");
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), name) == names.end())
    return usage("unknown workload '" + name + "'");
  if (seed < 0 || (trace != 0 && trace != 1) || !(seconds > 0.0))
    return usage("need --seed >= 0, --trace 0|1 and --seconds > 0");
  const bool smoke = flags.get_bool("smoke", false);

  // Batch system, closed loop: the caller joins 3 pool workers (nproc - 1),
  // so the benchmark's own parallel loops run on nproc threads.
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  runtime::ThreadPool pool(hw - 1);
  RunOptions opts;
  opts.seconds = seconds;
  opts.min_repeats = trace == 1 ? 1 : (smoke ? 2 : 3);
  opts.pool = &pool;
  opts.trace_path = flags.get_string("trace-file", "");
  opts.smoke = smoke;

  const Workload w =
      make_workload(name, static_cast<std::uint64_t>(seed), smoke);
  Outcome out;
  try {
    out = trace == 1 ? run_traced(w, opts) : run_untraced(w, opts);
  } catch (const std::exception& e) {
    std::cerr << "groupfel_benchmark: " << name << ": " << e.what() << "\n";
    return 1;
  }

  // The GEMM kernels lazily create ThreadPool::global() (one worker per
  // hardware thread) on the first large product; any thread beyond the
  // caller, this pool and that one is unexpected.
  note_threads();
  const std::size_t allowed = 1 + pool.size() + hw;
  if (peak_threads() > allowed)
    out.fail("peak OS threads " + std::to_string(peak_threads()) + " > " +
             std::to_string(allowed));
  for (auto& [metric, m] : out.metrics)
    if (!std::isfinite(m.value)) {
      out.fail("metric " + metric + " is not finite");
      m.value = 0.0;
    }
  const bool correct = out.failures.empty();

  for (const auto& why : out.failures)
    std::cout << name << ": FAIL " << why << "\n";
  for (const auto& [metric, m] : out.metrics)
    std::cout << name << "  " << metric << " = " << json_number(m.value)
              << " " << m.unit << "  (n=" << m.n << ")\n";

  const std::string out_path = flags.get_string("out", "");
  if (!out_path.empty()) {
    std::ofstream f(out_path);
    f << "{\"schema\": \"groupfel-benchmark-result-v1\",\n"
      << " \"workload\": " << json_string(name) << ", \"seed\": " << seed
      << ", \"trace\": " << trace << ", \"seconds\": " << json_number(seconds)
      << ", \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << " \"context\": {\"cpu_model\": " << json_string(cpu_model())
      << ", \"nproc\": " << hw << ", \"compiler\": " << json_string(compiler())
      << ", \"build_type\": " << json_string(GROUPFEL_BENCHMARK_BUILD_TYPE)
      << ", \"git_commit\": "
      << json_string(flags.get_string("commit", "unknown"))
      << ", \"pool_workers\": " << pool.size()
      << ", \"caller_joins_pool\": true"
      << ", \"peak_os_threads\": " << peak_threads() << "},\n"
      << " \"correctness\": {\"correct\": " << (correct ? "true" : "false")
      << ", \"ops_attempted\": " << out.attempted
      << ", \"ops_failed\": " << out.failed
      << ", \"params_fnv1a\": " << json_string(out.params_digest)
      << ", \"failures\": [";
    for (std::size_t i = 0; i < out.failures.size(); ++i)
      f << (i ? ", " : "") << json_string(out.failures[i]);
    f << "]},\n \"metrics\": " << metrics_json(out.metrics, true) << "}\n";
    if (!f) {
      std::cerr << "groupfel_benchmark: could not write " << out_path << "\n";
      return 1;
    }
  }

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed
            << ", \"metrics\": " << metrics_json(out.metrics, false) << "}"
            << std::endl;
  return correct ? 0 : 1;
}
