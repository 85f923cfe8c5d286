#include "core/coordinator.h"

#include <memory>
#include <utility>

#include "check/check_context.h"
#include "common/logging.h"
#include "runtime/fom.h"
#include "trace/trace_context.h"

namespace dcdo {

namespace {

using runtime::FomStatus;
using runtime::WakeSource;

// One coordinated batch as a pooled Fom: serial applies, then — on the first
// failure — serial rollbacks in reverse, then the terminal report. Replaces
// the two weak-self-capturing shared_ptr<std::function> loops (`apply` and
// `rollback`): the outcome, prior versions, and steps live in the Fom block,
// and each EvolveInstanceTo completion is a 16-byte {scheduler, id}
// trampoline instead of a fresh heap closure per hop.
class CoordinatedUpdateFom final : public runtime::Fom {
 public:
  using Step = UpdateCoordinator::Step;
  using Outcome = UpdateCoordinator::Outcome;

  enum Phase { kApply, kRollback };

  CoordinatedUpdateFom(std::vector<Step> steps,
                       std::vector<VersionId> prior_versions, Outcome outcome,
                       UpdateCoordinator::DoneCallback done)
      : Fom("update.batch"),
        steps_(std::move(steps)),
        prior_(std::move(prior_versions)),
        outcome_(std::move(outcome)),
        done_(std::move(done)) {}

  FomStatus Tick() override {
    if (phase() < 0) {
      EnterPhase(kApply, "apply");
      return StartApply();
    }
    if (phase() == kApply) {
      Status status = wake_status();
      if (!status.ok()) {
        DCDO_LOG(kWarning) << "coordinated update: step " << index_
                           << " failed (" << status.ToString()
                           << "); rolling back";
        failure_ = FailedPreconditionError("step " + std::to_string(index_) +
                                           " failed: " + status.ToString());
        rollback_upto_ = index_;
        EnterPhase(kRollback, "rollback");
        return StartRollback();
      }
      ++outcome_.applied;
      ++index_;
      return StartApply();
    }
    // kRollback: one undo settled.
    Status status = wake_status();
    std::size_t index = rollback_upto_ - 1;
    if (status.ok()) {
      ++outcome_.rolled_back;
      --outcome_.applied;
    } else {
      outcome_.notes.push_back("rollback of step " + std::to_string(index) +
                               " refused: " + status.ToString());
    }
    rollback_upto_ = index;
    return StartRollback();
  }

 private:
  FomStatus StartApply() {
    if (index_ == steps_.size()) {
      outcome_.status = Status::Ok();
      DCDO_CHECK_HOOK(Note("coordinated-update",
                           "batch applied (" +
                               std::to_string(outcome_.applied) +
                               " step(s))"));
      if (auto* tr = trace::ActiveContext()) {
        tr->Instant("update.applied", {.category = "evolve"});
      }
      done_(std::move(outcome_));
      return FomStatus::kDone;
    }
    const Step& step = steps_[index_];
    runtime::FomScheduler* scheduler = &this->scheduler();
    const std::uint64_t id = this->id();
    step.manager->EvolveInstanceTo(
        step.instance, step.target, [scheduler, id](Status status) {
          scheduler->WakeStatus(id, WakeSource::kChild, std::move(status));
        });
    return WaitOn(WakeSource::kChild);
  }

  // Undoes steps [0, rollback_upto_) in reverse, then reports failure_.
  FomStatus StartRollback() {
    if (rollback_upto_ == 0) {
      outcome_.status = failure_;
      DCDO_CHECK_HOOK(Note("coordinated-update",
                           "batch rolled back (" +
                               std::to_string(outcome_.rolled_back) +
                               " step(s) undone): " + failure_.ToString()));
      if (auto* tr = trace::ActiveContext()) {
        std::uint64_t mark =
            tr->Instant("update.rollback", {.category = "evolve"});
        tr->Annotate(mark, "cause", failure_.ToString());
        tr->metrics().GetCounter("update.rollbacks").Increment();
      }
      done_(std::move(outcome_));
      return FomStatus::kDone;
    }
    const Step& step = steps_[rollback_upto_ - 1];
    runtime::FomScheduler* scheduler = &this->scheduler();
    const std::uint64_t id = this->id();
    step.manager->EvolveInstanceTo(
        step.instance, prior_[rollback_upto_ - 1],
        [scheduler, id](Status status) {
          scheduler->WakeStatus(id, WakeSource::kChild, std::move(status));
        });
    return WaitOn(WakeSource::kChild);
  }

  std::vector<Step> steps_;
  std::vector<VersionId> prior_;
  Outcome outcome_;
  UpdateCoordinator::DoneCallback done_;
  std::size_t index_ = 0;          // next step to apply
  std::size_t rollback_upto_ = 0;  // steps [0, upto) still to undo
  Status failure_;                 // what triggered the rollback
};

}  // namespace

Status UpdateCoordinator::ValidateAll(
    const std::vector<Step>& steps, std::vector<VersionId>& prior_versions,
    std::vector<std::string>& notes) const {
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const Step& step = steps[i];
    if (step.manager == nullptr) {
      return InvalidArgumentError("step " + std::to_string(i) +
                                  " has no manager");
    }
    Dcdo* object = step.manager->FindInstance(step.instance);
    if (object == nullptr) {
      return NotFoundError("step " + std::to_string(i) + ": no instance " +
                           step.instance.ToString() + " of type " +
                           step.manager->type_name());
    }
    DCDO_ASSIGN_OR_RETURN(const DfmDescriptor* target,
                          step.manager->Descriptor(step.target));
    if (!target->instantiable()) {
      return VersionNotInstantiableError(
          "step " + std::to_string(i) + ": version " +
          step.target.ToString() + " of " + step.manager->type_name() +
          " is still configurable");
    }
    DCDO_RETURN_IF_ERROR(step.manager->policy().CheckEvolution(
        object->version(), step.target, step.manager->current_version()));

    CompatibilityReport report =
        ClassifyTransition(object->mapper().state(), target->state());
    notes.push_back(step.manager->type_name() + "/" +
                    step.instance.ToString() + ": " + report.Summary());
    if (options_.require_client_compatible &&
        !report.SafeForExistingClients()) {
      return FailedPreconditionError(
          "step " + std::to_string(i) + ": transition to " +
          step.target.ToString() + " is " + report.Summary());
    }
    prior_versions.push_back(object->version());
  }
  return Status::Ok();
}

void UpdateCoordinator::Execute(std::vector<Step> steps, DoneCallback done) {
  Outcome outcome;
  std::vector<VersionId> prior;
  Status validated = ValidateAll(steps, prior, outcome.notes);
  if (!validated.ok()) {
    outcome.status = validated;
    done(std::move(outcome));
    return;
  }

  // Warm every step's host cache before the serial apply phase: the steps'
  // component downloads overlap each other (and step 0's apply) through the
  // fetch pipeline, while the applies themselves stay strictly ordered for
  // rollback. No-op at fetch_concurrency 1, where a prefetch would only
  // queue ahead of the apply that needs it.
  for (const Step& step : steps) {
    step.manager->PrefetchInstanceVersion(step.instance, step.target);
  }
  DCDO_CHECK_HOOK(Note("coordinated-update",
                       "batch of " + std::to_string(steps.size()) +
                           " step(s) begins"));
  if (auto* tr = trace::ActiveContext()) {
    std::uint64_t mark = tr->Instant("update.batch", {.category = "evolve"});
    tr->Annotate(mark, "steps", std::to_string(steps.size()));
    tr->metrics().GetCounter("update.batches").Increment();
  }

  if (steps.empty()) {
    // Nothing to drive; report the empty batch as applied, as the serial
    // loop always has.
    outcome.status = Status::Ok();
    DCDO_CHECK_HOOK(Note("coordinated-update", "batch applied (0 step(s))"));
    if (auto* tr = trace::ActiveContext()) {
      tr->Instant("update.applied", {.category = "evolve"});
    }
    done(std::move(outcome));
    return;
  }

  // Validation proved every step's instance exists, so step 0's host names
  // the simulation this batch runs in.
  sim::Simulation& simulation = steps.front()
                                    .manager->FindInstance(steps.front().instance)
                                    ->host()
                                    .simulation();
  auto& scheduler = runtime::FomScheduler::For(simulation);
  scheduler.Start(*scheduler.Create<CoordinatedUpdateFom>(
      std::move(steps), std::move(prior), std::move(outcome),
      std::move(done)));
}

}  // namespace dcdo
