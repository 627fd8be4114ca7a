/*
 * A sampling profiler loaded with LD_PRELOAD: no perf, no hardware
 * counters, no change to the program it profiles.
 *
 * At load it arms ITIMER_PROF. Each SIGPROF records the interrupted
 * program counter and the return addresses found by walking the frame
 * pointer chain of the main thread's stack, into a buffer mapped before
 * the first tick (the handler neither allocates nor locks). At exit it
 * writes the samples and a copy of /proc/self/maps next to each other:
 *
 *   $S2G_PROF_OUT.<pid>.stacks   one sample per line, hex addresses,
 *                                interrupted pc first, then callers
 *   $S2G_PROF_OUT.<pid>.maps     the process's mappings at exit
 *
 * tools/profile/report.py symbolises and aggregates them. The program
 * must keep frame pointers (RUSTFLAGS="-C force-frame-pointers=yes");
 * a frame in code built without them (libc) ends the walk early, so such
 * a sample counts for its leaf and the frames below it only.
 *
 * Build: gcc -O2 -shared -fPIC -o sampler.so sampler.c (stacks.h beside it)
 * Environment: S2G_PROF_OUT (default "s2g-prof"), S2G_PROF_US (timer
 * interval in microseconds, default 1000; the kernel rounds it up to its
 * tick, 4 ms on a 250 Hz kernel).
 *
 * x86-64 Linux only.
 */
#define _GNU_SOURCE
#include <signal.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>

#include "stacks.h"

static uintptr_t *buf;
static volatile size_t used;
static volatile int dropped;

static void on_prof(int sig, siginfo_t *info, void *context) {
    (void)sig;
    (void)info;
    ucontext_t *uc = context;
    uintptr_t pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
    uintptr_t sp = (uintptr_t)uc->uc_mcontext.gregs[REG_RSP];
    uintptr_t fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
    size_t at = used;
    if (at + 1 + MAX_DEPTH > BUF_WORDS) {
        dropped = 1;
        return;
    }
    uintptr_t *sample = buf + at;
    size_t n = 0;
    sample[1 + n++] = pc;
    /* Only the main thread's stack is known: elsewhere keep the pc. */
    if (on_main_stack(sp))
        n = walk_frames(fp, sp, sample + 1, n);
    sample[0] = n;
    used = at + 1 + n;
}

static void dump(void) {
    struct itimerval off = {0};
    setitimer(ITIMER_PROF, &off, NULL);
    signal(SIGPROF, SIG_IGN);
    write_profile("s2g-prof", buf, used);
    if (dropped)
        fprintf(stderr, "sampler: buffer full, later samples dropped\n");
}

__attribute__((constructor)) static void start(void) {
    buf = mmap(NULL, BUF_WORDS * sizeof *buf, PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (buf == MAP_FAILED) {
        fprintf(stderr, "sampler: no buffer, not sampling\n");
        return;
    }
    find_stack();
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    const char *us = getenv("S2G_PROF_US");
    long interval = us ? atol(us) : 1000;
    if (interval <= 0)
        interval = 1000;
    struct itimerval tick = {{interval / 1000000, interval % 1000000},
                             {interval / 1000000, interval % 1000000}};
    setitimer(ITIMER_PROF, &tick, NULL);
    atexit(dump);
}
