// remo_perfbench — one run of one benchmark workload.
//
//   remo_perfbench --workload ingest|serve|reweight --seed N --seconds S
//                  [--trace 0|1] [--spans-out PATH]
//
// Prints progress lines, then as its last line one JSON object with the
// run's checks (attempted / failed), end-to-end metrics ("e2e"), per-layer
// metrics ("layers", traced runs only) and the workload's detail block.
// perfbench/run.py is the entry point that builds this binary and turns
// that object into the benchmark's result line.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "harness.hpp"

using namespace remo;

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "remo_perfbench: %s\nusage: remo_perfbench --workload "
               "ingest|serve|reweight --seed N --seconds S [--trace 0|1] "
               "[--spans-out PATH]\n",
               msg);
  std::exit(2);
}

pb::Options parse(int argc, char** argv) {
  pb::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
      if (*end) usage("--seed must be a whole number");
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, &end);
      if (*end || !(o.seconds > 0 && o.seconds <= 3600))
        usage("--seconds must be in (0, 3600]");
    } else if (a == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
        usage("--trace must be 0 or 1");
      o.trace = v[0] == '1';
    } else if (a == "--spans-out") {
      o.spans_out = v;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

Json to_json(const std::map<std::string, double>& m) {
  Json j = Json::object();
  for (const auto& [k, v] : m) j[k] = v;
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  const pb::Options opts = parse(argc, argv);
  pb::Tracer tracer(opts.trace);

  pb::Result r;
  if (opts.workload == "ingest") {
    r = pb::run_ingest(opts, tracer);
  } else if (opts.workload == "serve") {
    r = pb::run_serve(opts, tracer);
  } else if (opts.workload == "reweight") {
    r = pb::run_reweight(opts, tracer);
  } else {
    usage(("unknown workload " + opts.workload).c_str());
  }
  r.layers["runtime.peak_rss_mb"] = pb::peak_rss_mb();

  if (opts.trace) {
    for (const auto& [layer, s] : tracer.self_seconds())
      r.layers["self." + layer + "_s"] = s;
    r.detail["spans_recorded"] = static_cast<std::uint64_t>(tracer.size());
    if (!opts.spans_out.empty() && !tracer.write_tsv(opts.spans_out)) {
      std::fprintf(stderr, "cannot write spans to %s\n", opts.spans_out.c_str());
      return 1;
    }
  }

  Json run = Json::object();
  run["workload"] = opts.workload;
  run["seed"] = opts.seed;
  run["seconds"] = opts.seconds;
  run["trace"] = opts.trace;
  run["nproc"] = static_cast<std::uint64_t>(std::thread::hardware_concurrency());
  run["build"] = build_info_json();
  r.detail["run"] = run;

  Json out = Json::object();
  out["attempted"] = r.attempted;
  out["failed"] = r.failed;
  Json failures = Json::array();
  for (const auto& f : r.failures) failures.push_back(Json(f));
  out["failures"] = failures;
  out["e2e"] = to_json(r.e2e);
  out["layers"] = to_json(r.layers);
  out["detail"] = r.detail;
  std::printf("%s\n", out.dump().c_str());
  return 0;
}
