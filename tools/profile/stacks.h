/*
 * What sampler.c and live.c share: the bounds of the main
 * thread's stack, the frame-pointer walk over it, and writing the samples
 * and the process's mappings at exit in the format report.py reads:
 *
 *   PREFIX.<pid>.stacks   one sample per line, hex addresses, innermost
 *                         first
 *   PREFIX.<pid>.maps     the process's mappings at exit
 *
 * A sample in the buffer is a count word followed by that many addresses.
 */
#include <fcntl.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/resource.h>
#include <unistd.h>

#define MAX_DEPTH 128
/* Words of sample storage: a count word plus the frames of each sample. */
#define BUF_WORDS (8u << 20)

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

static int on_main_stack(uintptr_t sp) {
    return sp >= stack_lo && sp < stack_hi;
}

/* Appends to `frames`, which holds `n`, the return addresses of the frame
 * pointer chain from `fp`, and returns the new count. A frame is two
 * words, saved fp then return address, above `lowest` (and the frame
 * before it) and inside the stack; anything else is a register that code
 * without frame pointers reused, and ends the walk. */
static inline size_t walk_frames(uintptr_t fp, uintptr_t lowest, uintptr_t *frames, size_t n) {
    while (n < MAX_DEPTH) {
        if (fp < lowest || fp + 16 > stack_hi || (fp & 7) != 0)
            break;
        uintptr_t next = ((uintptr_t *)fp)[0];
        uintptr_t ret = ((uintptr_t *)fp)[1];
        if (ret == 0)
            break;
        frames[n++] = ret;
        lowest = fp + 16;
        fp = next;
    }
    return n;
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

/* The output prefix: $S2G_PROF_OUT, or `fallback` when it is unset. */
static const char *out_prefix(const char *fallback) {
    const char *prefix = getenv("S2G_PROF_OUT");
    return prefix ? prefix : fallback;
}

/* Writes a copy of /proc/self/maps to PREFIX.<pid>.maps. */
static void write_maps(const char *prefix) {
    char path[4096];
    snprintf(path, sizeof path, "%s.%d.maps", prefix, (int)getpid());
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

/* Writes the `used` words of samples in `buf` and a copy of
 * /proc/self/maps under $S2G_PROF_OUT, or `fallback` when it is unset. */
static inline void write_profile(const char *fallback, const uintptr_t *buf, size_t used) {
    const char *prefix = out_prefix(fallback);
    char path[4096];
    snprintf(path, sizeof path, "%s.%d.stacks", prefix, (int)getpid());
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
    write_maps(prefix);
}
