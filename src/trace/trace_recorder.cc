#include "src/trace/trace_recorder.h"

#include <algorithm>
#include <ostream>

#include "src/common/json.h"
#include "src/common/logging.h"

namespace omega {

const char* TraceEventTypeName(TraceEventType type) {
  switch (type) {
    case TraceEventType::kJobSubmit:
      return "job_submit";
    case TraceEventType::kAttemptBegin:
      return "attempt_begin";
    case TraceEventType::kAttemptEnd:
      return "attempt_end";
    case TraceEventType::kTxnCommit:
      return "txn_commit";
    case TraceEventType::kCellCommit:
      return "cell_commit";
    case TraceEventType::kClaimConflict:
      return "claim_conflict";
    case TraceEventType::kGangAbort:
      return "gang_abort";
    case TraceEventType::kPreemption:
      return "preemption";
    case TraceEventType::kTaskStart:
      return "task_start";
    case TraceEventType::kTaskEnd:
      return "task_end";
    case TraceEventType::kMachineFailure:
      return "machine_failure";
    case TraceEventType::kMachineRepair:
      return "machine_repair";
  }
  return "unknown";
}

TraceRecorder::TraceRecorder(size_t capacity_events)
    : capacity_(std::max<size_t>(capacity_events, kSlabSize)) {
  slabs_.resize((capacity_ + kSlabSize - 1) / kSlabSize);
  track_names_.push_back("cluster");
}

uint16_t TraceRecorder::RegisterTrack(const std::string& name) {
  for (size_t i = 0; i < track_names_.size(); ++i) {
    if (track_names_[i] == name) {
      return static_cast<uint16_t>(i);
    }
  }
  OMEGA_CHECK(track_names_.size() < 65536) << "track id space exhausted";
  track_names_.push_back(name);
  return static_cast<uint16_t>(track_names_.size() - 1);
}

void TraceRecorder::Append(const TraceEvent& e) {
  const size_t idx = static_cast<size_t>(total_) % capacity_;
  auto& slab = slabs_[idx / kSlabSize];
  if (slab == nullptr) {
    slab = std::make_unique<std::array<TraceEvent, kSlabSize>>();
  }
  (*slab)[idx % kSlabSize] = e;
  ++total_;
  const auto t = static_cast<size_t>(e.type);
  ++counts_[t];
  arg0_sums_[t] += e.arg0;
  arg1_sums_[t] += e.arg1;
}

const TraceEvent& TraceRecorder::At(size_t ring_index) const {
  return (*slabs_[ring_index / kSlabSize])[ring_index % kSlabSize];
}

int64_t TraceRecorder::Dropped() const {
  return total_ - static_cast<int64_t>(Retained());
}

size_t TraceRecorder::Retained() const {
  return std::min<size_t>(static_cast<size_t>(total_), capacity_);
}

void TraceRecorder::ForEachRetained(
    const std::function<void(const TraceEvent&)>& fn) const {
  const size_t retained = Retained();
  const size_t start =
      static_cast<size_t>(total_ - static_cast<int64_t>(retained));
  for (size_t i = 0; i < retained; ++i) {
    fn(At((start + i) % capacity_));
  }
}

// ---------------------------------------------------------------------------
// Typed record methods. Each one is the single authority for how its event's
// generic fields are laid out; the exporters mirror the same mapping.

void TraceRecorder::JobSubmit(SimTime t, uint64_t job, int job_type,
                              int64_t num_tasks, uint16_t track) {
  Append(TraceEvent{t.micros(), TraceEventType::kJobSubmit, track, job,
                    kInvalidMachineId, 0, job_type, num_tasks});
}

void TraceRecorder::AttemptBegin(SimTime t, uint16_t track, uint64_t job,
                                 int64_t attempt, int64_t tasks_in_attempt) {
  Append(TraceEvent{t.micros(), TraceEventType::kAttemptBegin, track, job,
                    kInvalidMachineId, 0, attempt, tasks_in_attempt});
}

void TraceRecorder::AttemptEnd(SimTime t, uint16_t track, uint64_t job,
                               int64_t tasks_placed, bool had_conflict) {
  Append(TraceEvent{t.micros(), TraceEventType::kAttemptEnd, track, job,
                    kInvalidMachineId, 0, tasks_placed, had_conflict ? 1 : 0});
}

void TraceRecorder::TxnCommit(SimTime t, uint16_t track, uint64_t job,
                              int64_t accepted, int64_t conflicted) {
  Append(TraceEvent{t.micros(), TraceEventType::kTxnCommit, track, job,
                    kInvalidMachineId, 0, accepted, conflicted});
}

void TraceRecorder::CellCommit(SimTime t, int64_t claims, int64_t accepted,
                               int64_t conflicted, uint16_t track) {
  Append(TraceEvent{t.micros(), TraceEventType::kCellCommit, track, 0,
                    kInvalidMachineId, static_cast<uint64_t>(claims), accepted,
                    conflicted});
}

void TraceRecorder::ClaimConflict(SimTime t, uint16_t track, uint64_t job,
                                  MachineId machine, uint64_t seqnum_at_placement,
                                  uint64_t seqnum_at_commit) {
  Append(TraceEvent{t.micros(), TraceEventType::kClaimConflict, track, job,
                    machine, seqnum_at_placement,
                    static_cast<int64_t>(seqnum_at_commit), 0});
}

void TraceRecorder::GangAbort(SimTime t, uint16_t track, uint64_t job,
                              int64_t claims_discarded, bool at_commit) {
  Append(TraceEvent{t.micros(), TraceEventType::kGangAbort, track, job,
                    kInvalidMachineId, 0, claims_discarded, at_commit ? 1 : 0});
}

void TraceRecorder::Preemption(SimTime t, uint64_t beneficiary_job,
                               MachineId machine, int64_t victim_precedence,
                               uint64_t victim_task_id, uint16_t track) {
  Append(TraceEvent{t.micros(), TraceEventType::kPreemption, track,
                    beneficiary_job, machine, victim_task_id,
                    victim_precedence, 0});
}

void TraceRecorder::TaskStart(SimTime t, uint64_t job, MachineId machine,
                              uint16_t track) {
  Append(TraceEvent{t.micros(), TraceEventType::kTaskStart, track, job, machine,
                    0, 0, 0});
}

void TraceRecorder::TaskEnd(SimTime t, uint64_t job, MachineId machine,
                            uint16_t track) {
  Append(TraceEvent{t.micros(), TraceEventType::kTaskEnd, track, job, machine,
                    0, 0, 0});
}

void TraceRecorder::MachineFailure(SimTime t, MachineId machine,
                                   int64_t tasks_killed, uint16_t track) {
  Append(TraceEvent{t.micros(), TraceEventType::kMachineFailure, track, 0,
                    machine, 0, tasks_killed, 0});
}

void TraceRecorder::MachineRepair(SimTime t, MachineId machine,
                                  uint16_t track) {
  Append(TraceEvent{t.micros(), TraceEventType::kMachineRepair, track, 0,
                    machine, 0, 0, 0});
}

// ---------------------------------------------------------------------------
// Exporters

namespace {

// Emits the typed args of `e` as JSON object members (no surrounding braces).
// Shared by both exporters so the two formats cannot drift apart.
void AppendTypedArgs(std::ostream& os, const TraceEvent& e) {
  switch (e.type) {
    case TraceEventType::kJobSubmit:
      os << "\"job\": " << e.job << ", \"job_type\": "
         << (e.arg0 == 0 ? "\"batch\"" : "\"service\"")
         << ", \"num_tasks\": " << e.arg1;
      break;
    case TraceEventType::kAttemptBegin:
      os << "\"job\": " << e.job << ", \"attempt\": " << e.arg0
         << ", \"tasks_in_attempt\": " << e.arg1;
      break;
    case TraceEventType::kAttemptEnd:
      os << "\"job\": " << e.job << ", \"tasks_placed\": " << e.arg0
         << ", \"had_conflict\": " << (e.arg1 != 0 ? "true" : "false");
      break;
    case TraceEventType::kTxnCommit:
      os << "\"job\": " << e.job << ", \"accepted\": " << e.arg0
         << ", \"conflicted\": " << e.arg1;
      break;
    case TraceEventType::kCellCommit:
      os << "\"claims\": " << e.seqnum << ", \"accepted\": " << e.arg0
         << ", \"conflicted\": " << e.arg1;
      break;
    case TraceEventType::kClaimConflict:
      os << "\"job\": " << e.job << ", \"machine\": " << e.machine
         << ", \"seqnum_at_placement\": " << e.seqnum
         << ", \"seqnum_at_commit\": " << e.arg0;
      break;
    case TraceEventType::kGangAbort:
      os << "\"job\": " << e.job << ", \"claims_discarded\": " << e.arg0
         << ", \"at_commit\": " << (e.arg1 != 0 ? "true" : "false");
      break;
    case TraceEventType::kPreemption:
      os << "\"beneficiary_job\": " << e.job << ", \"machine\": " << e.machine
         << ", \"victim_precedence\": " << e.arg0
         << ", \"victim_task_id\": " << e.seqnum;
      break;
    case TraceEventType::kTaskStart:
    case TraceEventType::kTaskEnd:
      os << "\"job\": " << e.job << ", \"machine\": " << e.machine;
      break;
    case TraceEventType::kMachineFailure:
      os << "\"machine\": " << e.machine << ", \"tasks_killed\": " << e.arg0;
      break;
    case TraceEventType::kMachineRepair:
      os << "\"machine\": " << e.machine;
      break;
  }
}

}  // namespace

void TraceRecorder::ExportChromeTrace(std::ostream& os) const {
  os << "{\"traceEvents\": [\n";
  bool first = true;
  auto sep = [&] {
    if (!first) {
      os << ",\n";
    }
    first = false;
  };
  // Thread-name metadata: one named track per registered scheduler.
  for (size_t i = 0; i < track_names_.size(); ++i) {
    sep();
    os << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": " << i
       << ", \"args\": {\"name\": ";
    json::AppendString(os, track_names_[i]);
    os << "}}";
  }
  ForEachRetained([&](const TraceEvent& e) {
    sep();
    os << "{\"pid\": 1, \"tid\": " << e.track << ", \"ts\": " << e.time_us;
    switch (e.type) {
      case TraceEventType::kAttemptBegin:
        os << ", \"ph\": \"B\", \"name\": \"job " << e.job << "\"";
        break;
      case TraceEventType::kAttemptEnd:
        os << ", \"ph\": \"E\", \"name\": \"job " << e.job << "\"";
        break;
      default:
        os << ", \"ph\": \"i\", \"s\": \"t\", \"name\": \""
           << TraceEventTypeName(e.type) << "\"";
        break;
    }
    os << ", \"args\": {";
    AppendTypedArgs(os, e);
    os << "}}";
  });
  os << "\n]}\n";
}

void TraceRecorder::ExportJsonLines(std::ostream& os) const {
  ForEachRetained([&](const TraceEvent& e) {
    os << "{\"ts_us\": " << e.time_us << ", \"type\": \""
       << TraceEventTypeName(e.type) << "\", \"track\": ";
    json::AppendString(os, e.track < track_names_.size()
                               ? track_names_[e.track]
                               : std::to_string(e.track));
    os << ", ";
    AppendTypedArgs(os, e);
    os << "}\n";
  });
}

}  // namespace omega
