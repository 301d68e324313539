/**
 * @file
 * Workload: the one interface synthetic clients implement.
 *
 * A workload issues logical accesses against a Target -- a single
 * ArrayController or a sharded VolumeManager -- on a shared event
 * queue. start() wires the client population up and returns; the
 * caller owns the event loop (runUntilEmpty(), runUntil(), or
 * whatever mission shape the experiment needs) and reads the
 * workload's measured outcome afterwards.
 *
 * Whole experiments do not wire this up by hand: a ScenarioSpec
 * describes one, and tune::runScenario builds the target (a bare
 * array or a sharded volume), starts the workload and runs it.
 */

#ifndef PDDL_WORKLOAD_WORKLOAD_HH
#define PDDL_WORKLOAD_WORKLOAD_HH

#include "array/target.hh"
#include "sim/event_queue.hh"

namespace pddl {

class ParallelEngine;

/** A synthetic client population driving one Target. */
class Workload
{
  public:
    virtual ~Workload();

    Workload() = default;
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    /**
     * Begin issuing against `target` on `events` and return. Both
     * must outlive the workload's run; a workload starts once.
     *
     * In a parallel scenario `events` MUST be the engine's hub
     * queue (use startOnHub): clients read now() in completion
     * callbacks and schedule think/arrival timers, and only the hub
     * lane runs those at the barrier with the correct clock. A
     * workload started on a shard lane would race the other lanes.
     */
    virtual void start(EventQueue &events, Target &target) = 0;
};

/**
 * Start `workload` against `target` on `engine`'s hub lane -- the
 * one queue of a parallel scenario that client callbacks and timers
 * may legally live on (see Workload::start).
 */
void startOnHub(Workload &workload, ParallelEngine &engine,
                Target &target);

} // namespace pddl

#endif // PDDL_WORKLOAD_WORKLOAD_HH
