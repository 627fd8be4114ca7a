/*
 * An allocator tracker loaded with LD_PRELOAD: it names the code that
 * calls the allocator and the code that holds the heap bytes still
 * allocated, which a counting allocator cannot, with no change to the
 * program it watches.
 *
 * It wraps malloc, calloc, realloc, free, posix_memalign, aligned_alloc
 * and memalign, forwards each to glibc's __libc_* entry points, and keeps
 * every block from allocation to free: its size and the stack that
 * allocated it (the call site and the return addresses found by walking
 * the frame pointer chain of the main thread's stack). A stack is stored
 * once, with the calls made from it and the bytes its blocks still hold.
 * Everything lives in memory mapped before the first call, so tracking
 * neither allocates nor recurses.
 *
 * At exit it prints the peak and final live bytes to stderr and writes,
 * in sampler.c's format with a weight in front of each line:
 *
 *   $S2G_PROF_OUT.<pid>.stacks        one line per stack holding live
 *                                     bytes: "bytes=N", then hex
 *                                     addresses, the allocator call
 *                                     first, then its callers
 *   $S2G_PROF_OUT-calls.<pid>.stacks  one line per stack: "calls=N" (the
 *                                     allocator calls it made), then the
 *                                     same addresses
 *
 * and, beside each, the process's mappings in a .maps file.
 *
 * A program that frees what it holds before it exits leaves little live.
 * Its peak is what to look at: run it once, and again with S2G_LIVE_MARK
 * set to the peak the first run printed. The second run also writes the
 * live bytes under $S2G_PROF_OUT-mark the first time they reach the mark.
 * A seeded, deterministic program allocates the same blocks in the same
 * order on every run, so that is its peak; give a mark a little under it
 * when runs differ by a few blocks. At the mark it also asks glibc
 * (mallinfo2) for the heap it holds from the OS and the free bytes in it,
 * and prints both beside the live bytes at exit: held minus live is what
 * the heap's layout costs, free chunks between blocks still in use.
 *
 * report.py weighs each line by its count, so a share is a share of the
 * live heap or of allocator calls; `--sites` groups by the first frame
 * outside the standard library. Tracking every call about doubles the
 * wall time of an allocation-heavy program.
 *
 * The program must keep frame pointers (RUSTFLAGS="-C
 * force-frame-pointers=yes"), as for sampler.c. Off the main thread only
 * the call site is recorded. Sizes are the sizes asked for, not what the
 * allocator rounds them up to. A call whose stack finds no room is not
 * counted, and a block that finds none is not tracked (both counted, and
 * reported at exit).
 *
 * Build: gcc -O2 -fno-omit-frame-pointer -shared -fPIC -o live.so live.c
 * (stacks.h beside it)
 * Environment: S2G_PROF_OUT (default "s2g-live"), S2G_LIVE_MARK (bytes).
 *
 * x86-64 Linux with glibc only.
 */
#define _GNU_SOURCE
#include <errno.h>
#include <malloc.h>
#include <sys/mman.h>

#include "stacks.h"

/* Blocks tracked at once (a power of two); at 3/4 full no more are. */
#define BLOCK_BITS 22
#define BLOCKS (1u << BLOCK_BITS)
/* Distinct stacks (a power of two), and the words that store them. */
#define STACK_BITS 18
#define STACKS (1u << STACK_BITS)
#define FRAME_WORDS (16u << 20)

extern void *__libc_malloc(size_t size);
extern void *__libc_calloc(size_t n, size_t size);
extern void *__libc_realloc(void *ptr, size_t size);
extern void *__libc_memalign(size_t align, size_t size);
extern void __libc_free(void *ptr);

struct block {
    uintptr_t ptr; /* 0: empty */
    uint32_t stack;
    uint32_t size;
};

struct stack {
    uint64_t hash;
    uint64_t at; /* word offset of the stack in `frames`, plus one; 0: empty */
    int64_t bytes;
    uint64_t calls;
};

static struct block *blocks;
static struct stack *stacks;
static uintptr_t *frames;
static size_t frames_used, blocks_used, uncounted, untracked;
static size_t live, peak, mark;
static int marked;
/* At the mark: the live bytes, the heap held from the OS (arenas and
 * mmapped blocks) and the free bytes in the arenas. */
static size_t mark_live, mark_held, mark_free;
static int ready;
static int lock;
/* Set while this thread is inside the tracker: what it allocates then
 * (the dump's stdio) goes to glibc untracked. */
static __thread int busy __attribute__((tls_model("initial-exec")));

static void take(void) {
    while (__atomic_test_and_set(&lock, __ATOMIC_ACQUIRE))
        ;
}

static void give(void) {
    __atomic_clear(&lock, __ATOMIC_RELEASE);
}

static inline size_t block_slot(uintptr_t ptr) {
    return (size_t)(((ptr >> 4) * 0x9E3779B97F4A7C15ull) >> (64 - BLOCK_BITS));
}

/* The stack's index, interned on first sight; STACKS when full. */
static uint32_t intern(const uintptr_t *f, size_t n) {
    uint64_t h = 0xcbf29ce484222325ull;
    for (size_t i = 0; i < n; i++)
        h = (h ^ f[i]) * 0x100000001b3ull;
    for (size_t i = (size_t)(h >> (64 - STACK_BITS)), probes = 0; probes < STACKS;
         i = (i + 1) & (STACKS - 1), probes++) {
        struct stack *s = &stacks[i];
        if (s->at == 0) {
            if (frames_used + 1 + n > FRAME_WORDS)
                return STACKS;
            s->hash = h;
            s->at = frames_used + 1;
            frames[frames_used] = n;
            memcpy(frames + frames_used + 1, f, n * sizeof *f);
            frames_used += 1 + n;
            return (uint32_t)i;
        }
        const uintptr_t *held = frames + s->at - 1;
        if (s->hash == h && held[0] == n && memcmp(held + 1, f, n * sizeof *f) == 0)
            return (uint32_t)i;
    }
    return STACKS;
}

/* Writes PREFIX.<pid>.stacks, one line per stack with a non-zero count
 * of calls (or, if not `calls`, of live bytes), and PREFIX.<pid>.maps. */
static void dump(const char *prefix, int calls) {
    char path[4096], line[64 + MAX_DEPTH * 17];
    snprintf(path, sizeof path, "%s.%d.stacks", prefix, (int)getpid());
    int fd = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        return;
    for (size_t i = 0; i < STACKS; i++) {
        long long count = calls ? (long long)stacks[i].calls : (long long)stacks[i].bytes;
        if (stacks[i].at == 0 || count <= 0)
            continue;
        const uintptr_t *f = frames + stacks[i].at - 1;
        int len = snprintf(line, sizeof line, "%s=%lld", calls ? "calls" : "bytes", count);
        for (size_t k = 0; k < f[0]; k++)
            len += snprintf(line + len, sizeof line - (size_t)len, " %lx", (unsigned long)f[1 + k]);
        line[len++] = '\n';
        write_all(fd, line, (size_t)len);
    }
    close(fd);
    write_maps(prefix);
}

/* Dumps under $S2G_PROF_OUT (or "s2g-live") with `suffix` appended. */
static void dump_as(const char *suffix, int calls) {
    char prefix[4096];
    snprintf(prefix, sizeof prefix, "%s%s", out_prefix("s2g-live"), suffix);
    dump(prefix, calls);
}

/* Tracks `ptr`, `size` bytes, allocated under the frame `fp` of the
 * wrapper that was called. Always inlined, so the wrapper keeps its own
 * frame and its return address is the call site. */
static inline __attribute__((always_inline)) void track(void *ptr, size_t size, uintptr_t fp) {
    if (!ptr || busy || !__atomic_load_n(&ready, __ATOMIC_RELAXED))
        return;
    uintptr_t f[MAX_DEPTH];
    size_t n = 0;
    f[n++] = ((uintptr_t *)fp)[1] - 1;
    /* Only the main thread's stack is known: elsewhere keep the call site. */
    if (on_main_stack((uintptr_t)&n))
        n = walk_frames(((uintptr_t *)fp)[0], fp + 16, f, n);
    busy = 1;
    take();
    uint32_t id = intern(f, n);
    if (id != STACKS)
        stacks[id].calls++;
    else
        uncounted++;
    if (id == STACKS || blocks_used >= BLOCKS / 4 * 3) {
        untracked++;
    } else {
        size_t i = block_slot((uintptr_t)ptr);
        while (blocks[i].ptr)
            i = (i + 1) & (BLOCKS - 1);
        uint32_t held = size > UINT32_MAX ? UINT32_MAX : (uint32_t)size;
        blocks[i] = (struct block){(uintptr_t)ptr, id, held};
        blocks_used++;
        stacks[id].bytes += held;
        live += held;
        if (live > peak)
            peak = live;
        if (mark && !marked && live >= mark) {
            marked = 1;
            struct mallinfo2 heap = mallinfo2();
            mark_live = live;
            mark_held = heap.arena + heap.hblkhd;
            mark_free = heap.fordblks;
            dump_as("-mark", 0);
        }
    }
    give();
    busy = 0;
}

/* Forgets `ptr` if it is tracked: a linear-probing delete that shifts the
 * blocks after it back, so no lookup ever stops short. */
static void untrack(void *ptr) {
    if (!ptr || busy || !__atomic_load_n(&ready, __ATOMIC_RELAXED))
        return;
    take();
    size_t i = block_slot((uintptr_t)ptr);
    while (blocks[i].ptr && blocks[i].ptr != (uintptr_t)ptr)
        i = (i + 1) & (BLOCKS - 1);
    if (blocks[i].ptr) {
        stacks[blocks[i].stack].bytes -= blocks[i].size;
        live -= blocks[i].size;
        blocks_used--;
        for (size_t j = (i + 1) & (BLOCKS - 1); blocks[j].ptr; j = (j + 1) & (BLOCKS - 1)) {
            size_t home = block_slot(blocks[j].ptr);
            /* Move j back to the hole at i unless its home lies in (i, j]. */
            if (((j - home) & (BLOCKS - 1)) >= ((j - i) & (BLOCKS - 1))) {
                blocks[i] = blocks[j];
                i = j;
            }
        }
        blocks[i].ptr = 0;
    }
    give();
}

void *malloc(size_t size) {
    void *p = __libc_malloc(size);
    track(p, size, (uintptr_t)__builtin_frame_address(0));
    return p;
}

void *calloc(size_t n, size_t size) {
    void *p = __libc_calloc(n, size);
    track(p, n * size, (uintptr_t)__builtin_frame_address(0));
    return p;
}

void *realloc(void *ptr, size_t size) {
    void *p = __libc_realloc(ptr, size);
    /* A failed realloc leaves the old block where it was. */
    if (p || size == 0)
        untrack(ptr);
    track(p, size, (uintptr_t)__builtin_frame_address(0));
    return p;
}

void free(void *ptr) {
    untrack(ptr);
    __libc_free(ptr);
}

void *memalign(size_t align, size_t size) {
    void *p = __libc_memalign(align, size);
    track(p, size, (uintptr_t)__builtin_frame_address(0));
    return p;
}

void *aligned_alloc(size_t align, size_t size) {
    void *p = __libc_memalign(align, size);
    track(p, size, (uintptr_t)__builtin_frame_address(0));
    return p;
}

int posix_memalign(void **out, size_t align, size_t size) {
    if (align % sizeof(void *) != 0 || (align & (align - 1)) != 0)
        return EINVAL;
    void *p = __libc_memalign(align, size);
    if (!p)
        return ENOMEM;
    track(p, size, (uintptr_t)__builtin_frame_address(0));
    *out = p;
    return 0;
}

static void at_exit(void) {
    busy = 1;
    take();
    __atomic_store_n(&ready, 0, __ATOMIC_RELAXED);
    dump_as("", 0);
    dump_as("-calls", 1);
    fprintf(stderr, "live: peak %zu B, %zu B at exit in %zu blocks\n", peak, live, blocks_used);
    if (mark && !marked)
        fprintf(stderr, "live: never reached the mark of %zu B\n", mark);
    if (marked)
        fprintf(stderr, "live: at the mark %zu B live, heap %zu B held from the OS, %zu B free in it\n",
                mark_live, mark_held, mark_free);
    if (untracked)
        fprintf(stderr, "live: a table filled, %zu calls and %zu blocks not tracked\n",
                uncounted, untracked);
    give();
}

static void *map(size_t bytes) {
    void *p = mmap(NULL, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
                   -1, 0);
    return p == MAP_FAILED ? NULL : p;
}

__attribute__((constructor)) static void start(void) {
    blocks = map(BLOCKS * sizeof *blocks);
    stacks = map(STACKS * sizeof *stacks);
    frames = map(FRAME_WORDS * sizeof *frames);
    if (!blocks || !stacks || !frames) {
        fprintf(stderr, "live: no tables, not tracking\n");
        return;
    }
    const char *m = getenv("S2G_LIVE_MARK");
    mark = m ? strtoull(m, NULL, 10) : 0;
    find_stack();
    atexit(at_exit);
    __atomic_store_n(&ready, 1, __ATOMIC_RELAXED);
}
