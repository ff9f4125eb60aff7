#include "runtime/staged_path.hh"

#include <algorithm>

namespace pipellm {
namespace runtime {

StagedCopyPath::StagedCopyPath(const gpu::SystemSpec &spec,
                               sim::BandwidthResource &link,
                               bool toward_device,
                               sim::BandwidthResource *device_crypto)
    : copy_(toward_device ? "cc-copy-h2d" : "cc-copy-d2h",
            spec.cc_copy_bw),
      link_(link), device_crypto_(device_crypto),
      pool_(spec.staging_buf_count, spec.staging_buf_bytes),
      toward_device_(toward_device)
{
}

Tick
StagedCopyPath::transfer(Tick earliest, std::uint64_t len)
{
    Tick done = earliest;
    for (std::uint64_t chunk : pool_.chunk(len)) {
        auto lease = pool_.acquire(earliest);
        Tick start = lease.available;
        Tick finish;
        if (toward_device_) {
            // private -> shared memcpy, DMA out of the buffer, then
            // the copy engine decrypts the chunk into HBM.
            Tick copied = stallDelay(copy_.submitNotBefore(start, chunk));
            Tick landed = link_.submitNotBefore(copied, chunk);
            pool_.release(lease.buf, landed);
            finish = device_crypto_
                         ? device_crypto_->submitNotBefore(landed, chunk)
                         : landed;
        } else {
            // copy engine encrypts the chunk, DMA into the buffer,
            // then shared -> private memcpy.
            Tick sealed = device_crypto_
                              ? device_crypto_->submitNotBefore(start,
                                                                chunk)
                              : start;
            Tick landed = link_.submitNotBefore(sealed, chunk);
            finish = stallDelay(copy_.submitNotBefore(landed, chunk));
            pool_.release(lease.buf, finish);
        }
        done = std::max(done, finish);
    }
    return done;
}

Tick
StagedCopyPath::stallDelay(Tick ready)
{
    if (injector_ == nullptr || !injector_->armed())
        return ready;
    // Each stall hangs the engine until the watchdog timeout fires,
    // waits out a jittered capped-exponential backoff, and redoes the
    // chunk. The injector's attempt cap bounds the loop.
    const fault::FaultPlan &plan = injector_->plan();
    unsigned attempt = 0;
    while (attempt < plan.max_copy_attempts &&
           injector_->stallCopy(ready)) {
        ++attempt;
        Tick penalty =
            plan.copy_stall_timeout + injector_->backoff(attempt);
        ready += penalty;
        ++faults_.copy_stalls;
        faults_.retry_latency += penalty;
    }
    faults_.copy_retries += attempt;
    return ready;
}

void
StagedCopyPath::setFaultInjector(fault::FaultInjector *injector)
{
    injector_ = injector;
}

} // namespace runtime
} // namespace pipellm
