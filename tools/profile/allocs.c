/*
 * An allocation-site sampler loaded with LD_PRELOAD: it names the code
 * that calls the allocator, which a counting allocator cannot, with no
 * change to the program it watches.
 *
 * It wraps malloc, calloc and realloc, forwards each call to glibc's
 * __libc_malloc, __libc_calloc and __libc_realloc, and on one call in
 * EVERY (16) records the call site and the return addresses found by walking the
 * frame pointer chain of the main thread's stack, into a buffer mapped
 * before the first sample (recording neither allocates nor locks). At exit
 * it writes the samples and a copy of /proc/self/maps in sampler.c's
 * format, so tools/profile/report.py reads them the same way:
 *
 *   $S2G_PROF_OUT.<pid>.stacks   one sample per line, hex addresses, the
 *                                allocator call first, then its callers
 *   $S2G_PROF_OUT.<pid>.maps     the process's mappings at exit
 *
 * The first address is the return address into the caller less one, an
 * address inside the call instruction, which report.py takes as a program
 * counter. `report.py PREFIX --sites` groups the samples by their first
 * frame outside alloc::, core:: and std::. A share of samples is a share
 * of allocator calls, since one call in EVERY is sampled whatever its
 * size.
 *
 * The program must keep frame pointers (RUSTFLAGS="-C
 * force-frame-pointers=yes"), as for sampler.c. Off the main thread only
 * the call site is recorded. Calls to posix_memalign, aligned_alloc and
 * memalign (Rust's allocator uses them for alignments above 16) are
 * neither counted nor sampled.
 *
 * Build: gcc -O2 -fno-omit-frame-pointer -shared -fPIC -o allocs.so allocs.c
 * (stacks.h beside it)
 * Environment: S2G_PROF_OUT (default "s2g-allocs").
 *
 * x86-64 Linux with glibc only.
 */
#define _GNU_SOURCE
#include <sys/mman.h>

#include "stacks.h"

/* Sampling period: one allocator call in EVERY is recorded. */
#define EVERY 16

extern void *__libc_malloc(size_t size);
extern void *__libc_calloc(size_t n, size_t size);
extern void *__libc_realloc(void *ptr, size_t size);

static uintptr_t *buf;
static size_t used;
static int dropped;
/* Set once the buffer and stack bounds are known, cleared at exit: the
 * set-up and the dump allocate through these wrappers too. */
static int ready;
static unsigned long calls;

/* Counts one allocator call and, on one in EVERY, records the stack above
 * `fp`, the frame of the wrapper that was called. Always inlined, so the
 * wrapper keeps its own frame and its return address is the call site. */
static inline __attribute__((always_inline)) void record(uintptr_t fp) {
    if (!__atomic_load_n(&ready, __ATOMIC_RELAXED))
        return;
    if (__atomic_fetch_add(&calls, 1, __ATOMIC_RELAXED) % EVERY != 0)
        return;
    uintptr_t frames[MAX_DEPTH];
    size_t n = 0;
    uintptr_t sp = (uintptr_t)&n;
    frames[n++] = ((uintptr_t *)fp)[1] - 1;
    /* Only the main thread's stack is known: elsewhere keep the call site. */
    if (on_main_stack(sp))
        n = walk_frames(((uintptr_t *)fp)[0], fp + 16, frames, n);
    size_t at = __atomic_load_n(&used, __ATOMIC_RELAXED);
    do {
        if (at + 1 + n > BUF_WORDS) {
            dropped = 1;
            return;
        }
    } while (!__atomic_compare_exchange_n(&used, &at, at + 1 + n, 0, __ATOMIC_RELAXED,
                                          __ATOMIC_RELAXED));
    buf[at] = n;
    memcpy(buf + at + 1, frames, n * sizeof *frames);
}

void *malloc(size_t size) {
    record((uintptr_t)__builtin_frame_address(0));
    return __libc_malloc(size);
}

void *calloc(size_t n, size_t size) {
    record((uintptr_t)__builtin_frame_address(0));
    return __libc_calloc(n, size);
}

void *realloc(void *ptr, size_t size) {
    record((uintptr_t)__builtin_frame_address(0));
    return __libc_realloc(ptr, size);
}

static void dump(void) {
    __atomic_store_n(&ready, 0, __ATOMIC_RELAXED);
    write_profile("s2g-allocs", buf, used);
    if (dropped)
        fprintf(stderr, "allocs: buffer full, later samples dropped\n");
}

__attribute__((constructor)) static void start(void) {
    buf = mmap(NULL, BUF_WORDS * sizeof *buf, PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (buf == MAP_FAILED) {
        fprintf(stderr, "allocs: no buffer, not sampling\n");
        return;
    }
    find_stack();
    atexit(dump);
    __atomic_store_n(&ready, 1, __ATOMIC_RELAXED);
}
