/**
 * @file
 * sim:: aliases for the capability-annotated mutex primitives.
 *
 * The wrappers are defined in common/mutex.hh so that layers below
 * sim/ (the auditor) can use them without inverting the include DAG;
 * the simulator core and everything above it names them as
 * sim::Mutex / sim::LockGuard / sim::CondVar.
 */

#ifndef PIPELLM_SIM_MUTEX_HH
#define PIPELLM_SIM_MUTEX_HH

#include "common/mutex.hh"

namespace pipellm {
namespace sim {

using common::CondVar;
using common::LockGuard;
using common::Mutex;

} // namespace sim
} // namespace pipellm

#endif // PIPELLM_SIM_MUTEX_HH
