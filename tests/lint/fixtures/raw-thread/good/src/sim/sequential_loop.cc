// Fixture: work runs on the calling thread, one item after another.
void
runAll(void (*body)(unsigned), unsigned n)
{
    for (unsigned i = 0; i < n; ++i)
        body(i);
}
