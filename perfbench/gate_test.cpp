// gate_test — feeds the correctness gate one failing result of each kind
// and checks that it is counted, and that a passing result is not.
#include <iostream>
#include <stdexcept>

#include "gate.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::cerr << "FAIL: " << what << '\n';
    ++failures;
  }
}

cesrm::harness::ExperimentResult job_with(bool recovered) {
  cesrm::harness::ExperimentResult r;
  r.trace_name = "synthetic";
  r.protocol = cesrm::Protocol::kCesrm;
  r.members.resize(2);
  r.members[1].stats.losses_detected = 1;
  cesrm::srm::RecoveryRecord rec;
  rec.seq = 7;
  rec.recovered = recovered;
  r.members[1].stats.recoveries.push_back(rec);
  return r;
}

}  // namespace

int main() {
  using perfbench::Gate;
  {
    Gate gate;
    gate.attempt("recovered job", [] { return perfbench::check_job(job_with(true), 1); });
    expect(gate.attempted() == 1 && gate.failed() == 0 && gate.correct(),
           "a fully recovered job passes");
  }
  {
    Gate gate;
    gate.attempt("unrecovered job", [] { return perfbench::check_job(job_with(false), 1); });
    gate.attempt("next job", [] { return perfbench::check_job(job_with(true), 1); });
    expect(gate.attempted() == 2 && gate.failed() == 1 && !gate.correct(),
           "an unrecovered loss fails its job and the gate carries on");
  }
  {
    Gate gate;
    gate.attempt("short-counted job", [] { return perfbench::check_job(job_with(true), 2); });
    expect(gate.failed() == 1, "broken loss accounting fails the job");
  }
  {
    Gate gate;
    gate.attempt("throwing op", []() -> std::optional<std::string> {
      throw std::runtime_error("bind 239.192.1.2:12345: address in use");
    });
    expect(gate.failed() == 1 && gate.messages().size() == 1 &&
               gate.messages()[0].find("239.192.1.2:12345") != std::string::npos,
           "a throw is a failed operation and keeps its message");
  }
  {
    cesrm::harness::ScaleResult s;
    s.losses = 10;
    s.recovered = 9;
    s.outstanding = 1;
    Gate gate;
    gate.attempt("scale", [&] { return perfbench::check_scale(s); });
    expect(gate.failed() == 1, "an outstanding scale loss fails the call");
    s.recovered = 10;
    s.outstanding = 0;
    s.window_overflows = 1;
    gate.attempt("scale", [&] { return perfbench::check_scale(s); });
    expect(gate.failed() == 2, "a window overflow fails the call");
  }
  {
    Gate gate;
    gate.mismatch("digest differs");
    expect(gate.failed() == 0 && !gate.correct(),
           "a digest mismatch makes the run incorrect");
  }
  if (failures == 0) std::cout << "gate_test: all checks passed\n";
  return failures == 0 ? 0 : 1;
}
