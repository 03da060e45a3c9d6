#include "src/obs/exporter.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <utility>

namespace sectorpack::obs {

namespace {

bool prom_name_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

/// One cumulative `_bucket` line. `le` must be finite.
void prom_bucket_line(std::ostringstream& os, const std::string& name,
                      double le, std::uint64_t cumulative) {
  os << name << "_bucket{le=\"" << json_number(le) << "\"} " << cumulative
     << "\n";
}

}  // namespace

std::string prometheus_name(std::string_view name) {
  std::string out = "sectorpack_";
  out.reserve(out.size() + name.size());
  for (const char c : name) {
    out += prom_name_char(c) ? c : '_';
  }
  return out;
}

std::string to_prometheus(const Snapshot& snap) {
  std::ostringstream os;
  for (const auto& [name, value] : snap.counters) {
    const std::string n = prometheus_name(name);
    os << "# TYPE " << n << " counter\n" << n << " " << value << "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string n = prometheus_name(name);
    os << "# TYPE " << n << " gauge\n" << n << " " << json_number(value)
       << "\n";
  }
  for (const HdrHistogramSnapshot& h : snap.hdr_histograms) {
    const std::string n = prometheus_name(h.name);
    os << "# TYPE " << n << " histogram\n";
    std::uint64_t cumulative = 0;
    for (const auto& [bucket, count] : h.buckets) {
      const double upper = hdr_bucket_upper(bucket);
      if (!std::isfinite(upper)) break;  // tail lands in +Inf below
      cumulative += count;
      prom_bucket_line(os, n, upper, cumulative);
    }
    os << n << "_bucket{le=\"+Inf\"} " << h.count << "\n";
    os << n << "_sum " << json_number(h.sum) << "\n";
    os << n << "_count " << h.count << "\n";
  }
  return os.str();
}

std::string iso8601_utc_now() {
  const auto now = std::chrono::system_clock::now();
  const std::time_t secs = std::chrono::system_clock::to_time_t(now);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      now.time_since_epoch())
                      .count() %
                  1000;
  std::tm tm{};
  gmtime_r(&secs, &tm);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday, tm.tm_hour,
                tm.tm_min, tm.tm_sec, static_cast<int>(ms));
  return buf;
}

std::string stats_envelope_json(const Snapshot& snap, double wall_ms,
                                long seq) {
  std::ostringstream os;
  os << "{\"schema_version\":" << kStatsSchemaVersion << ",\"emitted_at\":\""
     << iso8601_utc_now() << "\",\"wall_ms\":" << json_number(wall_ms);
  if (seq >= 0) os << ",\"seq\":" << seq;
  // Splice the snapshot's own object fields into the envelope.
  const std::string body = snap.to_json();
  os << "," << std::string_view(body).substr(1);
  return os.str();
}

Exporter::Exporter(ExporterConfig config, const Registry* registry)
    : config_(std::move(config)),
      registry_(registry),
      start_(std::chrono::steady_clock::now()) {
  if (config_.interval_seconds < 0.01) config_.interval_seconds = 0.01;
  if (config_.prom_path.empty() && config_.jsonl_path.empty()) {
    stopped_ = true;  // inert: nothing to export, no thread to join
    return;
  }
  thread_ = std::thread([this] { run(); });
}

Exporter::~Exporter() { stop(); }

void Exporter::stop() {
  if (stopped_) return;
  {
    core::LockGuard lock(mu_);
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  stopped_ = true;
}

std::uint64_t Exporter::ticks() const noexcept {
  return ticks_.load(std::memory_order_acquire);
}

bool Exporter::healthy() const noexcept {
  return healthy_.load(std::memory_order_acquire);
}

void Exporter::run() {
  const auto interval = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::duration<double>(config_.interval_seconds));
  core::UniqueLock lock(mu_);
  while (!stop_requested_) {
    if (cv_.wait_for(lock, interval, [this] {
          mu_.assert_held();  // CondVar::wait_for re-acquires mu_ around us
          return stop_requested_;
        })) {
      break;
    }
    lock.unlock();
    export_once();
    lock.lock();
  }
  lock.unlock();
  // Final export so the files reflect the end of the run even when the
  // process stops between ticks (drain, SIGINT, short batches).
  export_once();
}

void Exporter::export_once() {
  const Registry& reg = registry_ != nullptr ? *registry_ : Registry::global();
  const Snapshot snap = reg.snapshot();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start_)
          .count();
  const auto seq =
      static_cast<long>(ticks_.fetch_add(1, std::memory_order_acq_rel));

  if (!config_.jsonl_path.empty()) {
    std::ofstream out(config_.jsonl_path, std::ios::app);
    out << stats_envelope_json(snap, wall_ms, seq) << "\n";
    out.flush();
    if (!out) healthy_.store(false, std::memory_order_release);
  }
  if (!config_.prom_path.empty()) {
    // Write-to-temp + rename: a concurrent scraper sees either the previous
    // complete exposition or the new one, never a torn file.
    const std::string tmp = config_.prom_path + ".tmp";
    bool ok = false;
    {
      std::ofstream out(tmp, std::ios::trunc);
      out << to_prometheus(snap);
      out.flush();
      ok = static_cast<bool>(out);
    }
    if (!ok || std::rename(tmp.c_str(), config_.prom_path.c_str()) != 0) {
      healthy_.store(false, std::memory_order_release);
      std::remove(tmp.c_str());
    }
  }
}

}  // namespace sectorpack::obs
