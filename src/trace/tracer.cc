#include "trace/tracer.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <typeinfo>

#if defined(__GNUG__)
#include <cxxabi.h>
#endif

#include "common/logging.h"

namespace pepper::trace {

thread_local TraceContext Tracer::tls_ctx_;

namespace {

// splitmix64: the sampling hash.  Statistically uniform over trace ids, a
// pure function of (seed, id) — no RNG stream is consumed, so sampling can
// never perturb the simulation schedule.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string Demangled(const char* name) {
#if defined(__GNUG__)
  int status = 0;
  char* d = abi::__cxa_demangle(name, nullptr, nullptr, &status);
  if (status == 0 && d != nullptr) {
    std::string out(d);
    std::free(d);
    // Strip the namespace qualifiers; the leaf type is the readable part.
    const size_t pos = out.rfind("::");
    if (pos != std::string::npos) out = out.substr(pos + 2);
    return out;
  }
#endif
  return name;
}

const char* KindName(SpanRecord::Kind k) {
  switch (k) {
    case SpanRecord::Kind::kOpBegin:
      return "begin";
    case SpanRecord::Kind::kOpEnd:
      return "op";
    case SpanRecord::Kind::kHop:
      return "hop";
    case SpanRecord::Kind::kMark:
      return "mark";
  }
  return "?";
}

void AppendRecordLine(std::ostringstream& os, const SpanRecord& r) {
  os << "t=[" << r.start << "," << r.end << "] n=" << r.node << " "
     << KindName(r.kind) << " " << Demangled(r.name) << " trace="
     << r.trace_id << " span=" << r.span_id << " parent="
     << r.parent_span_id;
  if (r.tag != 0) os << " tag=" << r.tag;
  os << "\n";
}

}  // namespace

void Tracer::Enable(size_t ring_capacity, uint64_t sample_every,
                    size_t num_nodes) {
  PEPPER_CHECK(ring_capacity > 0);
  enabled_ = true;
  sample_every_ = sample_every == 0 ? 1 : sample_every;
  ring_capacity_ = ring_capacity;
  if (counters_.size() < num_nodes) counters_.resize(num_nodes);
  ring_.clear();
  ring_.reserve(ring_capacity);
  next_ = 0;
  written_ = 0;
}

bool Tracer::Sampled(uint64_t trace_id) const {
  if (sample_every_ <= 1) return true;
  return Mix64(seed_ ^ trace_id) % sample_every_ == 0;
}

void Tracer::Record(const SpanRecord& rec) {
  if (ring_.size() < ring_capacity_) {
    ring_.push_back(rec);
  } else {
    ring_[next_] = rec;  // flight recorder: overwrite the oldest
    next_ = (next_ + 1) % ring_capacity_;
  }
  ++written_;
}

OpToken Tracer::StartOp(NodeId node, SimTime now, const char* name,
                        uint64_t tag) {
  OpToken op;
  if (!enabled_) return op;
  const TraceContext cur = tls_ctx_;
  if (cur.trace_id != 0) {
    // Child span of the active operation.
    op.ctx.trace_id = cur.trace_id;
    op.ctx.parent_span_id = cur.span_id;
    op.ctx.span_id = AllocSpanId(node);
  } else {
    // Fresh root: the candidate span id doubles as the trace id, and the
    // sampling decision hashes it (the id is consumed either way, so id
    // sequences do not depend on the sampling rate).
    const uint64_t candidate = AllocSpanId(node);
    if (!Sampled(candidate)) return op;
    op.ctx.trace_id = candidate;
    op.ctx.span_id = candidate;
    op.ctx.parent_span_id = 0;
  }
  op.start = now;
  op.tag = tag;
  op.node = node;
  op.name = name;
  Record(SpanRecord{op.ctx.trace_id, op.ctx.span_id, op.ctx.parent_span_id,
                    now, now, NextRecKey(node), tag, node,
                    SpanRecord::Kind::kOpBegin, name});
  tls_ctx_ = op.ctx;
  return op;
}

void Tracer::FinishOp(const OpToken& op, SimTime now) {
  if (!op.active() || !enabled_) return;
  Record(SpanRecord{op.ctx.trace_id, op.ctx.span_id, op.ctx.parent_span_id,
                    op.start, now, NextRecKey(op.node), op.tag, op.node,
                    SpanRecord::Kind::kOpEnd, op.name});
}

void Tracer::Mark(NodeId node, SimTime now, const char* name, uint64_t tag) {
  if (!enabled_) return;
  const TraceContext cur = tls_ctx_;
  if (cur.trace_id == 0) return;
  Record(SpanRecord{cur.trace_id, cur.span_id, cur.parent_span_id, now, now,
                    NextRecKey(node), tag, node, SpanRecord::Kind::kMark,
                    name});
}

void Tracer::OnDeliver(const sim::Message& msg, NodeId to, SimTime now) {
  if (!enabled_) return;
  const TraceContext& in = msg.trace;
  TraceContext ctx;
  ctx.trace_id = in.trace_id;
  ctx.parent_span_id = in.span_id;
  ctx.span_id = AllocSpanId(to);
  const char* name =
      msg.payload != nullptr ? typeid(*msg.payload).name() : "reply";
  Record(SpanRecord{ctx.trace_id, ctx.span_id, ctx.parent_span_id,
                    in.sent_at, now, NextRecKey(to), /*tag=*/0, to,
                    SpanRecord::Kind::kHop, name});
  tls_ctx_ = ctx;
}

size_t Tracer::record_count() const { return ring_.size(); }

uint64_t Tracer::records_dropped() const { return written_ - ring_.size(); }

std::vector<SpanRecord> Tracer::Merged() const {
  std::vector<SpanRecord> out = ring_;
  // (end, key) is a total order: keys are unique composites of the emitting
  // node and its record counter, so the sorted sequence does not depend on
  // the order the partition cores emitted records in.
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.end != b.end) return a.end < b.end;
              return a.key < b.key;
            });
  return out;
}

std::string Tracer::DumpText() const {
  std::ostringstream os;
  for (const SpanRecord& r : Merged()) AppendRecordLine(os, r);
  return os.str();
}

std::string Tracer::DumpKeyHistory(uint64_t tag, size_t max_recent) const {
  const std::vector<SpanRecord> merged = Merged();
  std::ostringstream os;
  // Recent window: what the whole cluster was doing just before the fault.
  os << "--- flight recorder: last "
     << std::min(max_recent, merged.size()) << " of " << merged.size()
     << " records";
  const uint64_t dropped = records_dropped();
  if (dropped > 0) os << " (" << dropped << " older records overwritten)";
  os << " ---\n";
  const size_t first =
      merged.size() > max_recent ? merged.size() - max_recent : 0;
  for (size_t i = first; i < merged.size(); ++i) {
    AppendRecordLine(os, merged[i]);
  }
  // Causal history: every record of every trace that ever touched the tag.
  std::vector<uint64_t> traces;
  for (const SpanRecord& r : merged) {
    if (r.tag == tag &&
        std::find(traces.begin(), traces.end(), r.trace_id) == traces.end()) {
      traces.push_back(r.trace_id);
    }
  }
  os << "--- causal history of tag " << tag << " (" << traces.size()
     << " trace(s)) ---\n";
  for (const SpanRecord& r : merged) {
    if (std::find(traces.begin(), traces.end(), r.trace_id) != traces.end()) {
      AppendRecordLine(os, r);
    }
  }
  return os.str();
}

std::string Tracer::ChromeTraceJson(const std::string& root_prefix) const {
  const std::vector<SpanRecord> merged = Merged();
  // Root spans are the kOpBegin records with no parent; a trace is exported
  // iff its root name matches the prefix (all traces when the prefix is
  // empty).  Ring eviction can drop a root while children survive — such
  // orphan traces are filtered out too, which is the conservative reading
  // of "bound the export".
  std::vector<uint64_t> keep;
  if (!root_prefix.empty()) {
    for (const SpanRecord& r : merged) {
      if (r.kind == SpanRecord::Kind::kOpBegin && r.parent_span_id == 0 &&
          std::strncmp(r.name, root_prefix.c_str(), root_prefix.size()) == 0) {
        keep.push_back(r.trace_id);
      }
    }
    std::sort(keep.begin(), keep.end());
  }
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& r : merged) {
    if (!root_prefix.empty() &&
        !std::binary_search(keep.begin(), keep.end(), r.trace_id)) {
      continue;
    }
    if (!first) os << ",";
    first = false;
    os << "\n{\"pid\":0,\"tid\":" << r.node << ",\"ts\":" << r.start;
    switch (r.kind) {
      case SpanRecord::Kind::kOpBegin:
      case SpanRecord::Kind::kMark:
        os << ",\"ph\":\"i\",\"s\":\"t\"";
        break;
      case SpanRecord::Kind::kOpEnd:
      case SpanRecord::Kind::kHop:
        os << ",\"ph\":\"X\",\"dur\":" << (r.end - r.start);
        break;
    }
    os << ",\"name\":\"" << Demangled(r.name)
       << (r.kind == SpanRecord::Kind::kOpBegin ? ".begin" : "")
       << "\",\"args\":{\"trace\":\"" << r.trace_id << "\",\"span\":\""
       << r.span_id << "\",\"parent\":\"" << r.parent_span_id << "\"";
    if (r.tag != 0) os << ",\"tag\":\"" << r.tag << "\"";
    os << "}}";
  }
  os << "\n]}\n";
  return os.str();
}

}  // namespace pepper::trace
