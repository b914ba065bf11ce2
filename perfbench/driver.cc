// perfbench_driver: the benchmark's own in-process driver.
//
//   perfbench_driver gen-coherent --objects N --snapshots S --seed X
//       --out records.csv
//     Writes the blast "coherent" recipe (service/blast.h BlastTraffic) as
//     a record CSV.
//
//   perfbench_driver trace-discover --csv F --algo ci|sc|bu --epsilon E
//       --mu M --min-size S --min-duration T --window-seconds W
//       --out-csv F --spans F
//     Runs what `tcomp discover --quiet --out-csv F` runs, with a span
//     around every call into a layer (data, stream, core, eval). Spans are
//     kept in memory and written to --spans as JSON lines at the end; the
//     DiscoveryStats counters are printed as one JSON line on stdout.
//
//   perfbench_driver serve-client --port P --csv F --reference F
//       --window-seconds W --metrics-out F [--open-rate R]
//     One single-threaded client of a running `tcomp serve`. Closed loop:
//     the whole CSV as binary INGEST frames of kClosedBatch records, one in
//     flight, then FLUSH; the QUERY companions payload must equal
//     --reference byte for byte, and the QUERY metrics payload is saved to
//     --metrics-out. Open loop (when --open-rate > 0): kOpenSeconds of the
//     CSV again, shifted one window past its end, at R records/s in frames
//     of kOpenBatch records, with a QUERY companions round trip every
//     kQueryIntervalMs on a second connection. Prints one JSON line on
//     stdout.
//
// Exit status: 0 when every step ran (the JSON reports gate results and
// refused records), 1 on an I/O or protocol failure, 2 on bad flags.

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <ctime>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/discoverer.h"
#include "data/trajectory_io.h"
#include "eval/export.h"
#include "obs/metrics.h"
#include "obs/stage_timer.h"
#include "service/binary_protocol.h"
#include "service/blast.h"
#include "service/protocol.h"
#include "service/socket.h"
#include "stream/inactive_period.h"
#include "stream/sliding_window.h"
#include "util/flags.h"
#include "util/status.h"

namespace tcomp {
namespace {

using Clock = std::chrono::steady_clock;

// Serve-client shape, the same for every workload.
constexpr int kClosedBatch = 1024;         // records per closed-loop frame
constexpr double kOpenSeconds = 2.0;       // length of the open-loop phase
constexpr int kOpenBatch = 32;             // records per open-loop frame
constexpr double kQueryIntervalMs = 10.0;  // QUERY companions cadence

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

int Fail(const char* command, const Status& s) {
  std::fprintf(stderr, "%s: %s\n", command, s.ToString().c_str());
  return 1;
}

bool ParseAlgorithm(const std::string& name, Algorithm* out) {
  if (name == "ci") {
    *out = Algorithm::kClusteringIntersection;
  } else if (name == "sc") {
    *out = Algorithm::kSmartClosed;
  } else if (name == "bu") {
    *out = Algorithm::kBuddy;
  } else {
    return false;
  }
  return true;
}

// ---------------------------------------------------------------- tracing

/// In-memory span recorder. A span is one call into a layer: name, start
/// and end in seconds since the tracer was made, the index of the span
/// that caused it (-1 for the root) and the snapshot it served (0 when it
/// served none).
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  int Begin(const char* name, int parent, int64_t snapshot) {
    spans_.push_back(Span{name, Now(), 0.0, parent, snapshot});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int span) { spans_[static_cast<size_t>(span)].end = Now(); }

  /// Records a span whose start was taken earlier with Now().
  void Add(const char* name, double start, int parent, int64_t snapshot) {
    spans_.push_back(Span{name, start, Now(), parent, snapshot});
  }

  double Now() const { return SecondsBetween(origin_, Clock::now()); }

  Status Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return Status::IoError("cannot open " + path);
    char line[256];
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(line, sizeof(line),
                    "{\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                    "\"end\": %.9f, \"parent\": %d, \"snapshot\": %lld}\n",
                    i, s.name, s.start, s.end, s.parent,
                    static_cast<long long>(s.snapshot));
      out << line;
    }
    out.flush();
    if (!out) return Status::IoError("cannot write " + path);
    return Status::OK();
  }

 private:
  struct Span {
    const char* name;
    double start;
    double end;
    int parent;
    int64_t snapshot;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

int GenCoherent(const FlagParser& flags) {
  const int objects = flags.GetInt("objects", 0);
  const int snapshots = flags.GetInt("snapshots", 0);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt64("seed", 1));
  const std::string out = flags.GetString("out", "");
  if (objects < 1 || snapshots < 1 || out.empty()) {
    std::fprintf(stderr,
                 "gen-coherent: need --objects, --snapshots and --out\n");
    return 2;
  }
  Status s = WriteRecordCsv(out, BlastTraffic(objects, snapshots, seed));
  if (!s.ok()) return Fail("gen-coherent", s);
  return 0;
}

/// Mirrors tools/tcomp_cli.cc Discover() for the flags the benchmark
/// passes (`--quiet`, `--out-csv`, equal-length window, no inactive
/// filling), including the always-attached stage sink, so the export is
/// byte-identical to the CLI's and the timed work is the same.
int TraceDiscover(const FlagParser& flags) {
  Tracer tracer;
  const int root = tracer.Begin("discover", -1, 0);

  DiscoveryParams params;
  params.cluster.epsilon = flags.GetDouble("epsilon", 20.0);
  params.cluster.mu = flags.GetInt("mu", 4);
  params.size_threshold = flags.GetInt("min-size", 10);
  params.duration_threshold = flags.GetDouble("min-duration", 10.0);
  Algorithm algorithm;
  if (!ParseAlgorithm(flags.GetString("algo", "bu"), &algorithm)) {
    std::fprintf(stderr, "trace-discover: unknown --algo\n");
    return 2;
  }
  const std::string csv = flags.GetString("csv", "");
  const std::string out_csv = flags.GetString("out-csv", "");
  const std::string spans_path = flags.GetString("spans", "");
  if (csv.empty() || out_csv.empty() || spans_path.empty()) {
    std::fprintf(stderr,
                 "trace-discover: need --csv, --out-csv and --spans\n");
    return 2;
  }

  std::vector<TrajectoryRecord> records;
  int span = tracer.Begin("data.read_csv", root, 0);
  Status s = ReadRecordCsv(csv, &records);
  tracer.End(span);
  if (!s.ok()) return Fail("trace-discover", s);

  auto discoverer = MakeDiscoverer(algorithm, params);
  MetricsRegistry registry;
  MetricsStageSink stage_sink(&registry);
  discoverer->set_stage_sink(&stage_sink);
  SlidingWindowOptions wopts;
  wopts.mode = WindowMode::kEqualLength;
  wopts.window_length = flags.GetDouble("window-seconds", 60.0);
  SlidingWindowSnapshotter window(wopts);
  InactivePeriodFiller filler(0);

  int64_t snapshots = 0;
  std::vector<Snapshot> ready;
  std::vector<Companion> newly;
  auto process = [&](const Snapshot& snap) {
    ++snapshots;
    const double start = tracer.Now();
    newly.clear();
    const auto close_start = Clock::now();
    discoverer->ProcessSnapshot(filler.Fill(snap), &newly);
    stage_sink.RecordStage(Stage::kSnapshotClose,
                           SecondsBetween(close_start, Clock::now()));
    tracer.Add("core.snapshot", start, root, snapshots);
  };
  // One stream.window span per snapshot: every Push from the end of the
  // previous snapshot until the Push (or Flush) that completed this one.
  double window_start = tracer.Now();
  for (const TrajectoryRecord& r : records) {
    s = window.Push(r, &ready);
    if (!s.ok()) return Fail("trace-discover", s);
    if (ready.empty()) continue;
    tracer.Add("stream.window", window_start, root, snapshots + 1);
    for (const Snapshot& snap : ready) process(snap);
    ready.clear();
    window_start = tracer.Now();
  }
  window.Flush(&ready);
  tracer.Add("stream.window", window_start, root, snapshots + 1);
  for (const Snapshot& snap : ready) process(snap);

  span = tracer.Begin("eval.export", root, 0);
  s = WriteCompanionsCsvFile(discoverer->log().companions(), out_csv);
  tracer.End(span);
  if (!s.ok()) return Fail("trace-discover", s);
  tracer.End(root);

  s = tracer.Write(spans_path);
  if (!s.ok()) return Fail("trace-discover", s);

  const DiscoveryStats& st = discoverer->stats();
  std::printf(
      "{\"snapshots\": %lld, \"companions\": %zu, \"intersections\": %lld, "
      "\"distance_ops\": %lld, \"candidate_objects_peak\": %lld, "
      "\"buddy_pairs_checked\": %lld, \"buddy_pairs_pruned\": %lld, "
      "\"cluster_reuse\": %lld, \"cluster_dirty\": %lld, "
      "\"cluster_full_rebuilds\": %lld, \"maintain_seconds\": %.9f, "
      "\"cluster_seconds\": %.9f, \"intersect_seconds\": %.9f, "
      "\"eps_filter_seconds\": %.9f}\n",
      static_cast<long long>(st.snapshots), discoverer->log().size(),
      static_cast<long long>(st.intersections),
      static_cast<long long>(st.distance_ops),
      static_cast<long long>(st.candidate_objects_peak),
      static_cast<long long>(st.buddy_pairs_checked),
      static_cast<long long>(st.buddy_pairs_pruned),
      static_cast<long long>(st.cluster_reuse),
      static_cast<long long>(st.cluster_dirty),
      static_cast<long long>(st.cluster_full_rebuilds), st.maintain_seconds,
      st.cluster_seconds, st.intersect_seconds, st.eps_filter_seconds);
  return 0;
}

// ------------------------------------------------------------ serve client

/// A binary-protocol connection: blocking request/response for the closed
/// loop, nonblocking buffered send/receive for the open loop.
class FrameConn {
 public:
  Status Connect(uint16_t port) {
    TCOMP_RETURN_IF_ERROR(StreamSocket::Connect(port, 5000, &sock_));
    return sock_.SetNonBlocking(true);
  }
  int fd() const { return sock_.fd(); }

  Status Send(const std::string& frame) {
    return sock_.WriteAll(frame, /*timeout_ms=*/60000);
  }

  /// Waits for the next response frame.
  Status Receive(BinaryResponse* response) {
    for (;;) {
      bool got = false;
      TCOMP_RETURN_IF_ERROR(Poll(response, &got));
      if (got) return Status::OK();
      char buf[65536];
      size_t n = 0;
      TCOMP_RETURN_IF_ERROR(sock_.Read(buf, sizeof(buf), 60000, &n));
      if (n == 0) return Status::IoError("server closed the connection");
      reader_.Feed(buf, n);
    }
  }

  Status Transact(const std::string& frame, BinaryResponse* response) {
    TCOMP_RETURN_IF_ERROR(Send(frame));
    TCOMP_RETURN_IF_ERROR(Receive(response));
    if (response->type != static_cast<uint8_t>(BinaryResponseType::kOk)) {
      return Status::Internal("server answered: " + response->payload);
    }
    return Status::OK();
  }

  /// Yields an already-buffered response frame, if any.
  Status Poll(BinaryResponse* response, bool* got) {
    std::string error;
    BinaryResponseReader::Result r = reader_.Next(response, &error);
    if (r == BinaryResponseReader::Result::kBad) {
      return Status::Corruption(error);
    }
    *got = (r == BinaryResponseReader::Result::kFrame);
    return Status::OK();
  }

  /// Reads whatever the socket holds without waiting.
  Status Drain() {
    for (;;) {
      char buf[65536];
      size_t n = 0;
      bool would_block = false;
      TCOMP_RETURN_IF_ERROR(sock_.ReadSome(buf, sizeof(buf), &n, &would_block));
      if (would_block) return Status::OK();
      if (n == 0) return Status::IoError("server closed the connection");
      reader_.Feed(buf, n);
    }
  }

  /// Queues bytes for FlushSome().
  void Queue(const std::string& bytes) { out_ += bytes; }
  bool pending() const { return out_pos_ < out_.size(); }
  Status FlushSome() {
    while (pending()) {
      size_t written = 0;
      bool would_block = false;
      TCOMP_RETURN_IF_ERROR(sock_.WriteSome(out_.data() + out_pos_,
                                            out_.size() - out_pos_, &written,
                                            &would_block));
      out_pos_ += written;
      if (would_block) break;
    }
    if (!pending()) {
      out_.clear();
      out_pos_ = 0;
    }
    return Status::OK();
  }

 private:
  StreamSocket sock_;
  BinaryResponseReader reader_;
  std::string out_;
  size_t out_pos_ = 0;
};

Status ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  std::ostringstream body;
  body << in.rdbuf();
  *out = body.str();
  return Status::OK();
}

std::string Join(const std::vector<double>& values) {
  std::string out;
  char buf[32];
  for (size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.6f", i ? ", " : "", values[i]);
    out += buf;
  }
  return out;
}

/// Records refused by the pipeline: the uint64 LE payload of an OK
/// INGEST_BATCH response.
int64_t RefusedCount(const BinaryResponse& response) {
  uint64_t refused = 0;
  for (size_t b = 0; b < 8 && b < response.payload.size(); ++b) {
    refused |= static_cast<uint64_t>(
                   static_cast<unsigned char>(response.payload[b]))
               << (8 * b);
  }
  return static_cast<int64_t>(refused);
}

std::string QueryFrame(Request::QueryKind kind) {
  return EncodeBinaryRequest(BinaryRequestType::kQuery,
                             static_cast<uint8_t>(kind), "");
}

struct OpenLoopResult {
  int64_t frames = 0;
  int64_t refused = 0;
  std::vector<double> ack_ms;    // ack arrival - when the frame was due
  std::vector<double> late_ms;   // send start - when the frame was due
  std::vector<double> query_ms;  // QUERY companions round trips
};

/// Open-loop phase: frame i is due at start + i * interval_s whatever the
/// server does; latency counts from the due time, so a stall also charges
/// the frames queued behind it.
Status RunOpenLoop(FrameConn* ingest, FrameConn* query,
                   const std::vector<std::string>& frames, double interval_s,
                   double query_interval_s, OpenLoopResult* result) {
  const Clock::time_point start = Clock::now();
  auto due = [&](size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(interval_s * i));
  };
  size_t next = 0;   // next frame to send
  size_t acked = 0;  // acks received so far
  std::vector<Clock::time_point> due_at(frames.size());
  Clock::time_point next_query = start;
  Clock::time_point query_sent;
  bool query_outstanding = false;
  const std::string query_frame =
      QueryFrame(Request::QueryKind::kCompanions);

  while (acked < frames.size() || query_outstanding) {
    Clock::time_point now = Clock::now();
    while (next < frames.size() && due(next) <= now) {
      due_at[next] = due(next);
      result->late_ms.push_back(SecondsBetween(due_at[next], now) * 1e3);
      ingest->Queue(frames[next]);
      ++next;
    }
    TCOMP_RETURN_IF_ERROR(ingest->FlushSome());
    if (!query_outstanding && next < frames.size() && next_query <= now) {
      query->Queue(query_frame);
      query_sent = now;
      query_outstanding = true;
      next_query += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(query_interval_s));
    }
    TCOMP_RETURN_IF_ERROR(query->FlushSome());

    Clock::time_point wake = next < frames.size()
                                 ? due(next)
                                 : now + std::chrono::milliseconds(50);
    if (!query_outstanding && next < frames.size()) {
      wake = std::min(wake, next_query);
    }
    const double wait_s = std::max(0.0, SecondsBetween(Clock::now(), wake));
    timespec timeout;
    timeout.tv_sec = static_cast<time_t>(wait_s);
    timeout.tv_nsec = static_cast<long>((wait_s - timeout.tv_sec) * 1e9);
    pollfd fds[2] = {
        {ingest->fd(),
         static_cast<short>(POLLIN | (ingest->pending() ? POLLOUT : 0)), 0},
        {query->fd(),
         static_cast<short>(POLLIN | (query->pending() ? POLLOUT : 0)), 0}};
    if (::ppoll(fds, 2, &timeout, nullptr) < 0 && errno != EINTR) {
      return Status::IoError("poll failed");
    }
    if (fds[0].revents & (POLLIN | POLLERR | POLLHUP)) {
      TCOMP_RETURN_IF_ERROR(ingest->Drain());
    }
    if (fds[1].revents & (POLLIN | POLLERR | POLLHUP)) {
      TCOMP_RETURN_IF_ERROR(query->Drain());
    }
    const Clock::time_point got = Clock::now();
    for (;;) {
      BinaryResponse response;
      bool have = false;
      TCOMP_RETURN_IF_ERROR(ingest->Poll(&response, &have));
      if (!have) break;
      if (acked >= next) return Status::Corruption("unexpected ingest ack");
      if (response.type != static_cast<uint8_t>(BinaryResponseType::kOk)) {
        return Status::Internal("ingest refused: " + response.payload);
      }
      result->refused += RefusedCount(response);
      result->ack_ms.push_back(SecondsBetween(due_at[acked], got) * 1e3);
      ++acked;
    }
    for (;;) {
      BinaryResponse response;
      bool have = false;
      TCOMP_RETURN_IF_ERROR(query->Poll(&response, &have));
      if (!have) break;
      if (!query_outstanding ||
          response.type != static_cast<uint8_t>(BinaryResponseType::kOk)) {
        return Status::Internal("query failed: " + response.payload);
      }
      result->query_ms.push_back(SecondsBetween(query_sent, got) * 1e3);
      query_outstanding = false;
    }
  }
  result->frames = static_cast<int64_t>(frames.size());
  return Status::OK();
}

int ServeClient(const FlagParser& flags) {
  const int port = flags.GetInt("port", 0);
  const std::string csv = flags.GetString("csv", "");
  const std::string reference_path = flags.GetString("reference", "");
  const std::string metrics_out = flags.GetString("metrics-out", "");
  const double window_seconds = flags.GetDouble("window-seconds", 60.0);
  const double open_rate = flags.GetDouble("open-rate", 0.0);
  if (port <= 0 || port > 65535 || csv.empty() || reference_path.empty() ||
      metrics_out.empty()) {
    std::fprintf(stderr, "serve-client: bad flags\n");
    return 2;
  }

  // Inputs are prepared before anything is timed.
  std::vector<TrajectoryRecord> records;
  Status s = ReadRecordCsv(csv, &records);
  if (!s.ok()) return Fail("serve-client", s);
  if (records.empty()) {
    std::fprintf(stderr, "serve-client: %s has no records\n", csv.c_str());
    return 1;
  }
  std::string reference;
  s = ReadFile(reference_path, &reference);
  if (!s.ok()) return Fail("serve-client", s);

  const Clock::time_point encode_start = Clock::now();
  std::vector<std::string> frames;
  for (size_t i = 0; i < records.size(); i += kClosedBatch) {
    const size_t n = std::min<size_t>(kClosedBatch, records.size() - i);
    frames.push_back(EncodeIngestBatch(&records[i], n));
  }
  const double frame_encode_s =
      SecondsBetween(encode_start, Clock::now());

  // The open-loop stream: the same records one window past the end of the
  // closed-loop stream, so event time keeps advancing.
  std::vector<std::string> open_frames;
  if (open_rate > 0.0) {
    double lo = records[0].timestamp, hi = lo;
    for (const TrajectoryRecord& r : records) {
      lo = std::min(lo, r.timestamp);
      hi = std::max(hi, r.timestamp);
    }
    const double shift = hi - lo + window_seconds;
    const size_t wanted = std::min(
        records.size(),
        static_cast<size_t>(std::llround(open_rate * kOpenSeconds)));
    std::vector<TrajectoryRecord> shifted(records.begin(),
                                          records.begin() + wanted);
    for (TrajectoryRecord& r : shifted) r.timestamp += shift;
    for (size_t i = 0; i < shifted.size(); i += kOpenBatch) {
      const size_t n = std::min<size_t>(kOpenBatch, shifted.size() - i);
      open_frames.push_back(EncodeIngestBatch(&shifted[i], n));
    }
  }

  FrameConn ingest;
  s = ingest.Connect(static_cast<uint16_t>(port));
  if (!s.ok()) return Fail("serve-client", s);

  // Closed loop: first INGEST frame until the FLUSH reply.
  int64_t refused = 0;
  double ack_wait_s = 0.0;
  const Clock::time_point serve_start = Clock::now();
  for (const std::string& frame : frames) {
    s = ingest.Send(frame);
    if (!s.ok()) return Fail("serve-client", s);
    const Clock::time_point wait_start = Clock::now();
    BinaryResponse response;
    s = ingest.Receive(&response);
    if (!s.ok()) return Fail("serve-client", s);
    ack_wait_s += SecondsBetween(wait_start, Clock::now());
    if (response.type != static_cast<uint8_t>(BinaryResponseType::kOk)) {
      std::fprintf(stderr, "serve-client: ingest refused: %s\n",
                   response.payload.c_str());
      return 1;
    }
    refused += RefusedCount(response);
  }
  BinaryResponse response;
  s = ingest.Transact(EncodeBinaryRequest(BinaryRequestType::kFlush, 0, ""),
                      &response);
  if (!s.ok()) return Fail("serve-client", s);
  const double serve_s = SecondsBetween(serve_start, Clock::now());

  s = ingest.Transact(QueryFrame(Request::QueryKind::kCompanions), &response);
  if (!s.ok()) return Fail("serve-client", s);
  const bool identical = (response.payload == reference);
  s = ingest.Transact(QueryFrame(Request::QueryKind::kMetrics), &response);
  if (!s.ok()) return Fail("serve-client", s);
  {
    std::ofstream out(metrics_out);
    out << response.payload;
    out.flush();
    if (!out) {
      std::fprintf(stderr, "serve-client: cannot write %s\n",
                   metrics_out.c_str());
      return 1;
    }
  }

  OpenLoopResult open;
  if (!open_frames.empty()) {
    FrameConn query;
    s = query.Connect(static_cast<uint16_t>(port));
    if (!s.ok()) return Fail("serve-client", s);
    s = RunOpenLoop(&ingest, &query, open_frames,
                    kOpenBatch / open_rate, kQueryIntervalMs / 1e3, &open);
    if (!s.ok()) return Fail("serve-client", s);
  }

  s = ingest.Send(EncodeBinaryRequest(BinaryRequestType::kShutdown, 0, ""));
  if (s.ok()) s = ingest.Receive(&response);
  if (!s.ok()) return Fail("serve-client", s);

  std::printf(
      "{\"records\": %zu, \"frames\": %zu, \"serve_s\": %.9f, "
      "\"frame_encode_s\": %.9f, \"ack_wait_s\": %.9f, \"refused\": %lld, "
      "\"identical\": %s, \"open_frames\": %lld, \"open_refused\": %lld, "
      "\"ack_ms\": [%s], \"late_ms\": [%s], \"query_ms\": [%s]}\n",
      records.size(), frames.size(), serve_s, frame_encode_s, ack_wait_s,
      static_cast<long long>(refused), identical ? "true" : "false",
      static_cast<long long>(open.frames),
      static_cast<long long>(open.refused), Join(open.ack_ms).c_str(),
      Join(open.late_ms).c_str(), Join(open.query_ms).c_str());
  return 0;
}

int Main(int argc, const char* const* argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_driver gen-coherent|trace-discover|"
                 "serve-client [--flags]\n");
    return 2;
  }
  const std::string command = argv[1];
  FlagParser flags;
  Status s = flags.Parse(argc - 1, argv + 1);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 2;
  }
  if (command == "gen-coherent") return GenCoherent(flags);
  if (command == "trace-discover") return TraceDiscover(flags);
  if (command == "serve-client") return ServeClient(flags);
  std::fprintf(stderr, "unknown command: %s\n", command.c_str());
  return 2;
}

}  // namespace
}  // namespace tcomp

int main(int argc, char** argv) { return tcomp::Main(argc, argv); }
