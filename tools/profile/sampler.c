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
 * Build: gcc -O2 -shared -fPIC -o sampler.so sampler.c
 * Environment: S2G_PROF_OUT (default "s2g-prof"), S2G_PROF_US (timer
 * interval in microseconds, default 1000; the kernel rounds it up to its
 * tick, 4 ms on a 250 Hz kernel).
 *
 * x86-64 Linux only.
 */
#define _GNU_SOURCE
#include <fcntl.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_DEPTH 128
/* Words of sample storage: a count word plus the frames of each sample. */
#define BUF_WORDS (8u << 20)

static uintptr_t *buf;
static volatile size_t used;
static volatile int dropped;
static uintptr_t stack_lo, stack_hi;

/* The main thread's stack: its top from the "[stack]" line of
 * /proc/self/maps, its bottom as far down as RLIMIT_STACK lets it grow. */
static void find_stack(void) {
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[512];
    if (!maps)
        return;
    while (fgets(line, sizeof line, maps)) {
        unsigned long lo, hi;
        if (strstr(line, "[stack]") && sscanf(line, "%lx-%lx", &lo, &hi) == 2) {
            struct rlimit limit;
            uintptr_t room = 8u << 20;
            if (getrlimit(RLIMIT_STACK, &limit) == 0 && limit.rlim_cur < (64u << 20))
                room = limit.rlim_cur;
            stack_hi = hi;
            stack_lo = hi - room < lo ? hi - room : lo;
        }
    }
    fclose(maps);
}

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
    int on_stack = sp >= stack_lo && sp < stack_hi;
    uintptr_t lowest = sp;
    while (on_stack && n < MAX_DEPTH) {
        /* A frame is two words, saved fp then return address, above the
         * one before it and inside the stack; anything else is a register
         * that code without frame pointers reused, and ends the walk. */
        if (fp < lowest || fp + 16 > stack_hi || (fp & 7) != 0)
            break;
        uintptr_t next = ((uintptr_t *)fp)[0];
        uintptr_t ret = ((uintptr_t *)fp)[1];
        if (ret == 0)
            break;
        sample[1 + n++] = ret;
        lowest = fp + 16;
        fp = next;
    }
    sample[0] = n;
    used = at + 1 + n;
}

static void write_all(int fd, const char *p, size_t len) {
    while (len > 0) {
        ssize_t w = write(fd, p, len);
        if (w <= 0)
            return;
        p += w;
        len -= (size_t)w;
    }
}

static void dump(void) {
    struct itimerval off = {0};
    setitimer(ITIMER_PROF, &off, NULL);
    signal(SIGPROF, SIG_IGN);
    const char *prefix = getenv("S2G_PROF_OUT");
    char path[4096];
    snprintf(path, sizeof path, "%s.%d.stacks", prefix ? prefix : "s2g-prof", (int)getpid());
    FILE *out = fopen(path, "w");
    if (!out)
        return;
    for (size_t at = 0; at < used;) {
        size_t n = buf[at];
        for (size_t i = 0; i < n; i++)
            fprintf(out, i ? " %lx" : "%lx", (unsigned long)buf[at + 1 + i]);
        fputc('\n', out);
        at += 1 + n;
    }
    fclose(out);
    if (dropped)
        fprintf(stderr, "sampler: buffer full, later samples dropped\n");
    snprintf(path, sizeof path, "%s.%d.maps", prefix ? prefix : "s2g-prof", (int)getpid());
    int src = open("/proc/self/maps", O_RDONLY);
    int dst = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    char chunk[65536];
    ssize_t r;
    while (src >= 0 && dst >= 0 && (r = read(src, chunk, sizeof chunk)) > 0)
        write_all(dst, chunk, (size_t)r);
    if (src >= 0)
        close(src);
    if (dst >= 0)
        close(dst);
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
