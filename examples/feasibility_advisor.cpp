// Feasibility advisor: the paper's §5.9 questions as a thin client of the
// serving layer (src/serve/). Two modes:
//
//   One-shot (the historical CLI):
//     $ ./feasibility_advisor [N_per_task=200] [tasks=32] [image_edge=1024]
//                             [budget_seconds=60]
//   answers the configuration once, for every arch x renderer of the
//   calibration corpus, via one serve_batch call.
//
//   Service:
//     $ ./feasibility_advisor --serve [--shards N] [--cache ENTRIES]
//                             [--corpus NAME=SEED]... [--streams N]
//                             [--deadline-us D]
//                             [--record FILE | --replay FILE]
//   runs the long-lived JSON-lines service on stdin/stdout (one request
//   object per line, blank line or EOF flushes a batch; schema in
//   docs/ARCHITECTURE.md). Requests flow through the serving cluster
//   (src/cluster/): models are fitted once per distinct corpus, --shards N
//   workers drain one ordered queue, and repeated requests hit the LRU
//   response cache. Each repeatable --corpus flag makes another calibration
//   corpus resident under NAME (the default-calibration shape re-seeded
//   with SEED — a distinct fingerprint and its own fit); requests select
//   it with {"corpus":"NAME"}. --streams N submits each batch through N concurrent StreamSessions
//   (round-robin dealing; responses come back in input order, so output
//   bytes match the serialized run). --deadline-us D stamps requests that
//   carry no deadline of their own, exercising the cluster's deadline-
//   aware shedding. --record FILE saves the admission schedule at EOF;
//   --replay FILE pins admission to a prior recording, making even shed
//   decisions reproducible (feed it the SAME input the recording saw — a
//   diverging flow blocks forever by design, like any misused barrier).
//   --recalibrate-every N schedules a live recalibration of every resident
//   corpus after each N served requests, at batch boundaries (the refit
//   runs in the background and the service waits for the swap before the
//   next batch, so the epoch schedule — and therefore every output byte —
//   is a pure function of the input; two identically-seeded runs
//   byte-match). Flags override the ISR_SHARDS (default 1),
//   ISR_CACHE_ENTRIES (default 1024; 0 disables), ISR_STREAMS (default
//   1), ISR_DEADLINE_US (default 0 = none), and ISR_RECAL_EVERY (default
//   0 = never) environment variables;
//   a cluster-metrics JSON line (including per-corpus query counts and
//   bundle epochs) goes to stderr at EOF, keeping stdout pure responses.
//
//   Observability: --trace FILE (ISR_TRACE) records every request's
//   lifecycle (admit/queue/eval/deliver spans plus shed/failover/retry/
//   refit-swap annotations) and writes a Chrome trace_event JSON file at
//   exit — load it in chrome://tracing or ui.perfetto.dev. Live runs stamp
//   wall time; under --replay the trace carries the schedule's virtual
//   clock and is byte-identical across runs. --metrics-every N
//   (ISR_METRICS_EVERY, 0 = EOF only) additionally emits a metrics JSON
//   line to stderr after every N served requests, at batch boundaries, so
//   a long-lived serve process is monitorable mid-stream. SIGINT/SIGTERM
//   interrupt the stdin loop but still flush the metrics line (and the
//   trace file) before exiting 128+signal. Tracing never changes response
//   bytes: stdout is identical with --trace on, off, or absent.
#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "obs/trace.hpp"

#include "cluster/stream.hpp"

#include "cluster/cluster.hpp"
#include "core/env.hpp"
#include "core/fault.hpp"
#include "core/fd_stream.hpp"
#include "serve/advisor.hpp"
#include "serve/jsonl.hpp"

using namespace isr;
using model::RendererKind;

namespace {

// SIGINT/SIGTERM land here: remember which signal fired. sigaction below
// installs the handler WITHOUT SA_RESTART on purpose, so the fd reader's
// blocked read(2) fails with EINTR, which core::FdInBuf reports as end of
// input; run_jsonl returns, and the normal metrics/trace flush path runs
// before exiting 128+signal.
volatile std::sig_atomic_t g_signal = 0;
extern "C" void on_terminate_signal(int sig) { g_signal = sig; }

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [N_per_task=200] [tasks=32] [image_edge=1024] [budget_seconds=60]\n"
               "       %s --serve [--shards N] [--cache ENTRIES]\n"
               "                      [--corpus NAME=SEED]... [--streams N]\n"
               "                      [--deadline-us D]\n"
               "                      [--recalibrate-every N]\n"
               "                      [--record FILE | --replay FILE]\n"
               "                      [--trace FILE] [--metrics-every N]\n"
               "                      [--fault-seed S] [--fault-rate R] [--fault-sites CSV]\n"
               "                      (JSON-lines service on stdin/stdout; defaults come\n"
               "                       from ISR_SHARDS / ISR_CACHE_ENTRIES /\n"
               "                       ISR_STREAMS / ISR_DEADLINE_US; --shards N workers\n"
               "                       drain one queue; 0 cache = off; each\n"
               "                       --corpus adds a resident corpus requests select\n"
               "                       with {\"corpus\":\"NAME\"}; --streams N submits each\n"
               "                       batch over N concurrent stream sessions;\n"
               "                       --deadline-us stamps undeadlined requests;\n"
               "                       --recalibrate-every N refits every resident corpus\n"
               "                       after each N served requests, at batch boundaries\n"
               "                       (0 = never; env: ISR_RECAL_EVERY);\n"
               "                       --record/--replay save or pin the admission\n"
               "                       schedule — replay must see the recording's input;\n"
               "                       --trace FILE writes a Chrome trace_event JSON of\n"
               "                       request lifecycles at exit (env: ISR_TRACE; under\n"
               "                       --replay the trace is byte-reproducible);\n"
               "                       --metrics-every N emits a metrics line to stderr\n"
               "                       after every N served requests (0 = EOF only;\n"
               "                       env: ISR_METRICS_EVERY);\n"
               "                       --fault-seed arms deterministic fault injection\n"
               "                       (0 = off; default sites: all) at --fault-rate\n"
               "                       probability per opportunity, --fault-sites a CSV of\n"
               "                       eval-throw, queue-stall, fit-fail, worker-crash, or\n"
               "                       all; env: ISR_FAULT_SEED / ISR_FAULT_RATE /\n"
               "                       ISR_FAULT_SITES / ISR_FAULT_STALL_MS)\n",
               argv0, argv0);
  return 2;
}

// A --corpus value is NAME=SEED: NAME a nonempty [A-Za-z0-9_.-]+ token
// (it travels inside JSON metrics and request lines; keep it quoting-free),
// SEED a nonnegative integer re-seeding the default calibration shape.
bool parse_corpus_flag(const char* argv0, const char* text, std::string& name, long& seed) {
  const char* eq = std::strchr(text, '=');
  if (!eq || eq == text) {
    std::fprintf(stderr, "%s: bad --corpus \"%s\" (expected NAME=SEED)\n", argv0, text);
    return false;
  }
  name.assign(text, static_cast<std::size_t>(eq - text));
  if (name == "default") {
    std::fprintf(stderr,
                 "%s: --corpus name \"default\" is reserved (it aliases the built-in "
                 "default corpus in the metrics)\n",
                 argv0);
    return false;
  }
  for (const char c : name) {
    const bool ok = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) {
      std::fprintf(stderr, "%s: bad --corpus name \"%s\" (use [A-Za-z0-9_.-]+)\n", argv0,
                   name.c_str());
      return false;
    }
  }
  const core::ParseStatus status = core::parse_long(eq + 1, seed);
  if (status != core::ParseStatus::kOk || seed < 0) {
    std::fprintf(stderr, "%s: bad --corpus seed \"%s\" (%s)\n", argv0, eq + 1,
                 status == core::ParseStatus::kOk ? "must be >= 0"
                                                  : core::parse_status_message(status));
    return false;
  }
  return true;
}

// Positional-argument parsing with the core/env contract: garbage is
// rejected loudly (usage + nonzero exit), never atoi'd to 0.
bool parse_positional_int(const char* argv0, const char* name, const char* text, int& out) {
  long v = 0;
  const core::ParseStatus status = core::parse_long(text, v, /*require_positive=*/true);
  if (status != core::ParseStatus::kOk || v > 1 << 20) {
    std::fprintf(stderr, "%s: bad %s \"%s\" (%s)\n", argv0, name, text,
                 status == core::ParseStatus::kOk ? "too large"
                                                  : core::parse_status_message(status));
    return false;
  }
  out = static_cast<int>(v);
  return true;
}

bool parse_positional_double(const char* argv0, const char* name, const char* text,
                             double& out) {
  const core::ParseStatus status = core::parse_double(text, out, /*require_positive=*/true);
  if (status != core::ParseStatus::kOk) {
    std::fprintf(stderr, "%s: bad %s \"%s\" (%s)\n", argv0, name, text,
                 core::parse_status_message(status));
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--serve") == 0) {
    // Env defaults, overridable by flags. 0 cache entries disables caching;
    // a garbled env value warns and falls back (core/env contract). The env
    // path honors the same shard cap as the flag: each shard is a worker
    // thread, so an absurd value must clamp loudly, not exhaust threads
    // silently.
    long shards = core::env_long("ISR_SHARDS", 1);
    if (shards > 4096) {
      std::fprintf(stderr, "%s: ISR_SHARDS=%ld too large, clamping to 4096\n", argv[0], shards);
      shards = 4096;
    }
    long cache_entries = core::env_long("ISR_CACHE_ENTRIES", 1024, /*require_positive=*/false);
    // Concurrent stream sessions per batch (1 = the plain serve_batch
    // path) and the default deadline stamped onto undeadlined requests
    // (0 = none). Capped like shards: each stream is a submitting thread.
    long streams = core::env_long("ISR_STREAMS", 1);
    if (streams > 256) {
      std::fprintf(stderr, "%s: ISR_STREAMS=%ld too large, clamping to 256\n", argv[0],
                   streams);
      streams = 256;
    }
    long deadline_us = core::env_long("ISR_DEADLINE_US", 0, /*require_positive=*/false);
    if (deadline_us < 0) deadline_us = 0;
    // Live recalibration cadence in served requests (0 = never). Applied at
    // batch boundaries with a completed swap before the next batch, so the
    // epoch schedule stays a pure function of the input stream.
    long recal_every = core::env_long("ISR_RECAL_EVERY", 0, /*require_positive=*/false);
    if (recal_every < 0) recal_every = 0;
    // Observability: a trace output path (empty = tracing absent, the
    // zero-cost default) and the periodic metrics cadence in served
    // requests (0 = the EOF line only).
    std::string trace_file;
    if (const char* env_trace = std::getenv("ISR_TRACE")) trace_file = env_trace;
    long metrics_every = core::env_long("ISR_METRICS_EVERY", 0, /*require_positive=*/false);
    if (metrics_every < 0) metrics_every = 0;
    // Deterministic fault injection: env first (ISR_FAULT_*), flags
    // override. A flag-set seed without explicit sites arms every site,
    // mirroring FaultConfig::from_env's seed-only behavior.
    core::FaultConfig fault = core::FaultConfig::from_env();
    std::string record_file, replay_file;
    std::vector<cluster::CorpusConfig> corpora;
    for (int a = 2; a < argc; ++a) {
      if (std::strcmp(argv[a], "--shards") == 0 && a + 1 < argc) {
        const core::ParseStatus status =
            core::parse_long(argv[++a], shards, /*require_positive=*/true);
        if (status != core::ParseStatus::kOk || shards > 4096) {
          std::fprintf(stderr, "%s: bad --shards \"%s\" (%s)\n", argv[0], argv[a],
                       status == core::ParseStatus::kOk ? "too large"
                                                        : core::parse_status_message(status));
          return usage(argv[0]);
        }
      } else if (std::strcmp(argv[a], "--cache") == 0 && a + 1 < argc) {
        const core::ParseStatus status = core::parse_long(argv[++a], cache_entries);
        if (status != core::ParseStatus::kOk || cache_entries < 0) {
          std::fprintf(stderr, "%s: bad --cache \"%s\" (%s)\n", argv[0], argv[a],
                       status == core::ParseStatus::kOk
                           ? "must be >= 0"
                           : core::parse_status_message(status));
          return usage(argv[0]);
        }
      } else if (std::strcmp(argv[a], "--corpus") == 0 && a + 1 < argc) {
        std::string name;
        long seed = 0;
        if (!parse_corpus_flag(argv[0], argv[++a], name, seed)) return usage(argv[0]);
        // The cluster would silently keep the first writer; a duplicate
        // flag is operator error and must be as loud as any other bad flag.
        for (const cluster::CorpusConfig& existing : corpora)
          if (existing.name == name) {
            std::fprintf(stderr, "%s: duplicate --corpus name \"%s\"\n", argv[0],
                         name.c_str());
            return usage(argv[0]);
          }
        cluster::CorpusConfig corpus;
        corpus.name = std::move(name);
        corpus.service.calibration = serve::default_calibration();
        corpus.service.calibration.seed = static_cast<std::uint64_t>(seed);
        corpora.push_back(std::move(corpus));
      } else if (std::strcmp(argv[a], "--streams") == 0 && a + 1 < argc) {
        const core::ParseStatus status =
            core::parse_long(argv[++a], streams, /*require_positive=*/true);
        if (status != core::ParseStatus::kOk || streams > 256) {
          std::fprintf(stderr, "%s: bad --streams \"%s\" (%s)\n", argv[0], argv[a],
                       status == core::ParseStatus::kOk ? "too large (max 256)"
                                                        : core::parse_status_message(status));
          return usage(argv[0]);
        }
      } else if (std::strcmp(argv[a], "--deadline-us") == 0 && a + 1 < argc) {
        const core::ParseStatus status = core::parse_long(argv[++a], deadline_us);
        if (status != core::ParseStatus::kOk || deadline_us < 0) {
          std::fprintf(stderr, "%s: bad --deadline-us \"%s\" (%s)\n", argv[0], argv[a],
                       status == core::ParseStatus::kOk ? "must be >= 0"
                                                        : core::parse_status_message(status));
          return usage(argv[0]);
        }
      } else if (std::strcmp(argv[a], "--recalibrate-every") == 0 && a + 1 < argc) {
        const core::ParseStatus status = core::parse_long(argv[++a], recal_every);
        if (status != core::ParseStatus::kOk || recal_every < 0) {
          std::fprintf(stderr, "%s: bad --recalibrate-every \"%s\" (%s)\n", argv[0],
                       argv[a],
                       status == core::ParseStatus::kOk ? "must be >= 0"
                                                        : core::parse_status_message(status));
          return usage(argv[0]);
        }
      } else if (std::strcmp(argv[a], "--record") == 0 && a + 1 < argc) {
        record_file = argv[++a];
      } else if (std::strcmp(argv[a], "--replay") == 0 && a + 1 < argc) {
        replay_file = argv[++a];
      } else if (std::strcmp(argv[a], "--trace") == 0 && a + 1 < argc) {
        trace_file = argv[++a];
      } else if (std::strcmp(argv[a], "--metrics-every") == 0 && a + 1 < argc) {
        const core::ParseStatus status = core::parse_long(argv[++a], metrics_every);
        if (status != core::ParseStatus::kOk || metrics_every < 0) {
          std::fprintf(stderr, "%s: bad --metrics-every \"%s\" (%s)\n", argv[0], argv[a],
                       status == core::ParseStatus::kOk ? "must be >= 0"
                                                        : core::parse_status_message(status));
          return usage(argv[0]);
        }
      } else if (std::strcmp(argv[a], "--fault-seed") == 0 && a + 1 < argc) {
        long seed = 0;
        const core::ParseStatus status = core::parse_long(argv[++a], seed);
        if (status != core::ParseStatus::kOk || seed < 0) {
          std::fprintf(stderr, "%s: bad --fault-seed \"%s\" (%s)\n", argv[0], argv[a],
                       status == core::ParseStatus::kOk ? "must be >= 0"
                                                        : core::parse_status_message(status));
          return usage(argv[0]);
        }
        fault.seed = static_cast<std::uint64_t>(seed);
        if (fault.seed != 0 && fault.sites == 0)
          fault.sites = (1u << core::kFaultSiteCount) - 1u;
      } else if (std::strcmp(argv[a], "--fault-rate") == 0 && a + 1 < argc) {
        const core::ParseStatus status =
            core::parse_double(argv[++a], fault.rate, /*require_positive=*/false);
        if (status != core::ParseStatus::kOk || fault.rate < 0.0 || fault.rate > 1.0) {
          std::fprintf(stderr, "%s: bad --fault-rate \"%s\" (%s)\n", argv[0], argv[a],
                       status == core::ParseStatus::kOk ? "must be in [0, 1]"
                                                        : core::parse_status_message(status));
          return usage(argv[0]);
        }
      } else if (std::strcmp(argv[a], "--fault-sites") == 0 && a + 1 < argc) {
        std::string error;
        if (!core::FaultConfig::parse_sites(argv[++a], fault.sites, error)) {
          std::fprintf(stderr, "%s: bad --fault-sites \"%s\" (%s)\n", argv[0], argv[a],
                       error.c_str());
          return usage(argv[0]);
        }
      } else {
        return usage(argv[0]);
      }
    }
    if (cache_entries < 0) cache_entries = 0;
    if (!record_file.empty() && !replay_file.empty()) {
      std::fprintf(stderr, "%s: --record and --replay are mutually exclusive\n", argv[0]);
      return usage(argv[0]);
    }

    // The recalibration schedule names every resident corpus ("" selects
    // the default); capture the list before the configs move away.
    std::vector<std::string> recal_names{""};
    for (const cluster::CorpusConfig& corpus : corpora) recal_names.push_back(corpus.name);

    // The trace recorder outlives the cluster (workers record into it until
    // they are joined). Fail fast on an unwritable path BEFORE serving anything,
    // like --record does. Under --replay the recorder runs on the virtual
    // clock: the exported trace is then a pure function of
    // (schedule, requests) — byte-identical across runs.
    obs::TraceRecorder tracer;
    if (!trace_file.empty()) {
      std::ofstream probe(trace_file);
      if (!probe) {
        std::fprintf(stderr, "%s: cannot open --trace file \"%s\"\n", argv[0],
                     trace_file.c_str());
        return 1;
      }
      tracer.enable(/*virtual_clock=*/!replay_file.empty());
    }

    cluster::ClusterConfig config;
    config.shards = static_cast<int>(shards);
    config.cache_entries = static_cast<std::size_t>(cache_entries);
    config.corpora = std::move(corpora);
    config.fault = fault;
    if (!trace_file.empty()) config.trace = &tracer;
    cluster::ServingCluster serving(std::move(config));

    // Fail fast on schedule-file problems, before any request is served.
    if (!replay_file.empty()) {
      std::ifstream in(replay_file);
      if (!in) {
        std::fprintf(stderr, "%s: cannot open --replay file \"%s\"\n", argv[0],
                     replay_file.c_str());
        return 1;
      }
      cluster::AdmissionSchedule schedule;
      std::string error;
      if (!cluster::load_schedule(in, schedule, error)) {
        std::fprintf(stderr, "%s: bad --replay file \"%s\": %s\n", argv[0],
                     replay_file.c_str(), error.c_str());
        return 1;
      }
      serving.begin_replay(std::move(schedule));
    }
    std::ofstream record_out;
    if (!record_file.empty()) {
      record_out.open(record_file);
      if (!record_out) {
        std::fprintf(stderr, "%s: cannot open --record file \"%s\"\n", argv[0],
                     record_file.c_str());
        return 1;
      }
      serving.enable_recording();
    }

    // The batch handler: stamp the default deadline, then submit either
    // through the plain serve_batch path (streams = 1 — itself one stream
    // session) or round-robin across N concurrent sessions. Dealing by
    // i % n and reassembling by the same rule keeps responses in input
    // order, so stdout is byte-comparable to the serialized run.
    const std::size_t n_streams_flag = static_cast<std::size_t>(streams);
    // --recalibrate-every bookkeeping: served requests since the last
    // recalibration. The refit fires at the first batch boundary past the
    // threshold and the handler waits for the swap, so the epoch schedule
    // is a pure function of the input stream (byte-reproducible runs).
    long served_since_recal = 0;
    const auto maybe_recalibrate = [&serving, &recal_names, recal_every,
                                    &served_since_recal](std::size_t served) {
      if (recal_every <= 0) return;
      served_since_recal += static_cast<long>(served);
      if (served_since_recal < recal_every) return;
      served_since_recal = 0;
      // Only corpora the stream has actually touched: recalibrating a
      // never-queried corpus would defeat lazy residency.
      for (const std::string& name : recal_names)
        if (serving.bundle_epoch(name) > 0) serving.recalibrate(name);
      serving.wait_refits();
    };
    // Periodic metrics: one JSON line to stderr each time another
    // --metrics-every served requests complete, at batch boundaries —
    // same schema as the EOF line, so one parser reads both.
    long served_since_metrics = 0;
    const auto maybe_emit_metrics = [&serving, metrics_every,
                                     &served_since_metrics](std::size_t served) {
      if (metrics_every <= 0) return;
      served_since_metrics += static_cast<long>(served);
      if (served_since_metrics < metrics_every) return;
      served_since_metrics = 0;
      std::fprintf(stderr, "%s\n", serving.metrics().to_jsonl().c_str());
    };
    // Interrupting the service must still report: install SIGINT/SIGTERM
    // handlers WITHOUT SA_RESTART so a blocked stdin read fails with EINTR,
    // which the fd reader treats as EOF: run_jsonl returns, and the flush
    // path below runs as on EOF.
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = on_terminate_signal;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
    // stdin/stdout as raw fds, not std::cin/std::cout (see core/fd_stream.hpp).
    core::FdInBuf stdin_buf(STDIN_FILENO);
    core::FdOutBuf stdout_buf(STDOUT_FILENO);
    std::istream requests_in(&stdin_buf);
    std::ostream responses_out(&stdout_buf);
    serve::run_jsonl(
        requests_in, responses_out,
        [&serving, n_streams_flag, deadline_us, &maybe_recalibrate,
         &maybe_emit_metrics](const std::vector<serve::AdvisorRequest>& requests) {
          std::vector<serve::AdvisorRequest> reqs = requests;
          if (deadline_us > 0)
            for (serve::AdvisorRequest& r : reqs)
              if (r.deadline_us == 0) r.deadline_us = deadline_us;
          if (n_streams_flag <= 1) {
            std::vector<serve::AdvisorResponse> responses = serving.serve_batch(reqs);
            maybe_recalibrate(reqs.size());
            maybe_emit_metrics(reqs.size());
            return responses;
          }
          if (reqs.empty()) return std::vector<serve::AdvisorResponse>();
          const std::size_t n_streams = std::min(n_streams_flag, reqs.size());
          std::vector<cluster::StreamSession> sessions;
          sessions.reserve(n_streams);
          for (std::size_t k = 0; k < n_streams; ++k)
            sessions.push_back(serving.open_stream());
          std::vector<std::thread> producers;
          producers.reserve(n_streams);
          for (std::size_t k = 0; k < n_streams; ++k)
            producers.emplace_back([&reqs, &sessions, k, n_streams] {
              for (std::size_t i = k; i < reqs.size(); i += n_streams)
                sessions[k].submit(reqs[i]);
            });
          for (std::thread& producer : producers) producer.join();
          std::vector<serve::AdvisorResponse> responses(reqs.size());
          for (std::size_t k = 0; k < n_streams; ++k) {
            std::vector<serve::AdvisorResponse> mine = sessions[k].close();
            for (std::size_t j = 0; j < mine.size(); ++j)
              responses[k + j * n_streams] = std::move(mine[j]);
          }
          maybe_recalibrate(reqs.size());
          maybe_emit_metrics(reqs.size());
          return responses;
        });
    if (!record_file.empty()) {
      cluster::save_schedule(serving.take_recording(), record_out);
      record_out.close();
    }
    // Operational snapshot on stderr so stdout stays pure response lines —
    // on EOF and on an interrupting signal alike.
    std::fprintf(stderr, "%s\n", serving.metrics().to_jsonl().c_str());
    if (!trace_file.empty()) {
      std::ofstream out(trace_file);
      tracer.export_chrome_trace(out);
      if (!out) std::fprintf(stderr, "%s: failed writing --trace file \"%s\"\n",
                             argv[0], trace_file.c_str());
    }
    return g_signal != 0 ? 128 + static_cast<int>(g_signal) : 0;
  }
  if (argc > 5) return usage(argv[0]);

  int n = 200, tasks = 32, edge = 1024;
  double budget = 60.0;
  if (argc > 1 && !parse_positional_int(argv[0], "N_per_task", argv[1], n)) return usage(argv[0]);
  if (argc > 2 && !parse_positional_int(argv[0], "tasks", argv[2], tasks)) return usage(argv[0]);
  if (argc > 3 && !parse_positional_int(argv[0], "image_edge", argv[3], edge))
    return usage(argv[0]);
  if (argc > 4 && !parse_positional_double(argv[0], "budget_seconds", argv[4], budget))
    return usage(argv[0]);

  std::printf("calibrating models (small study corpus on CPU1/GPU1 profiles)...\n");
  serve::AdvisorService service;  // default calibration; fits on first query

  // One batch answers the whole arch x renderer table.
  std::vector<serve::AdvisorRequest> requests;
  for (const std::string arch : {"CPU1", "GPU1"}) {
    for (const RendererKind kind :
         {RendererKind::kRayTrace, RendererKind::kRasterize, RendererKind::kVolume}) {
      serve::AdvisorRequest req;
      req.arch = arch;
      req.renderer = kind;
      req.n_per_task = n;
      req.tasks = tasks;
      req.image_edge = edge;
      req.budget_seconds = budget;
      req.frames = 100;
      requests.push_back(req);
    }
  }
  const std::vector<serve::AdvisorResponse> responses = service.serve_batch(requests);

  std::printf("\nconfiguration: %d^3 cells/task, %d tasks, %dx%d image, %.0fs budget\n\n",
              n, tasks, edge, edge, budget);
  std::printf("%-6s %-14s %14s %16s\n", "arch", "renderer", "sec/frame", "frames/budget");
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const serve::AdvisorRequest& req = requests[i];
    const serve::AdvisorResponse& resp = responses[i];
    if (!resp.ok()) {
      std::printf("%-6s %-14s   error: %s\n", req.arch.c_str(),
                  model::renderer_name(req.renderer), resp.error.c_str());
      continue;
    }
    std::printf("%-6s %-14s %14.4f %16ld\n", req.arch.c_str(),
                model::renderer_name(req.renderer), resp.frame_seconds,
                resp.images_in_budget);
  }

  // RT vs rasterization recommendation at this configuration (100 frames),
  // from the CPU1 response's verdict fields.
  for (std::size_t i = 0; i < responses.size(); ++i) {
    if (requests[i].arch != "CPU1" || !responses[i].ok() || !responses[i].has_verdict) continue;
    const serve::AdvisorResponse& resp = responses[i];
    std::printf("\nsurface rendering recommendation (CPU1, 100 frames): %s\n",
                resp.prefer_ray_tracing ? "RAY TRACING" : "RASTERIZATION");
    std::printf("  T_RAST / T_RT = %.2f (RT %.2fs vs RAST %.2fs for 100 frames)\n", resp.ratio,
                resp.rt_seconds, resp.rast_seconds);
    break;
  }
  return 0;
}
