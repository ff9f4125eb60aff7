// Fixture: an ad-hoc std::thread in a single-threaded simulator.
#include <thread>

void
spawn()
{
    std::thread t([] {});
    t.join();
}
