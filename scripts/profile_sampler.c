/*
 * A CPU sampler loaded with LD_PRELOAD; `scripts/profile.sh` compiles it
 * with the system `cc` and reads what it writes.
 *
 * Every thread of the process (the main thread from a constructor, every
 * other one through the `pthread_create` wrapper below) opens its own
 * `perf_event_open` task-clock counter that overflows every PERIOD_NS of
 * the thread's CPU time and signals that same thread (`F_SETOWN_EX` with
 * `F_OWNER_TID`, `F_SETSIG`). The handler records the thread's name, the
 * interrupted instruction pointer and a frame-pointer walk of the stack
 * into a buffer mapped up front, so it neither allocates nor locks. At
 * exit the buffer is written to `sampler.<pid>.samples` in the current
 * directory, next to a copy of `/proc/self/maps` in `sampler.<pid>.maps`.
 *
 * A sample record is, in native-endian 64-bit words:
 *   [frames] [thread name, 16 bytes = 2 words] [pc] [return address]...
 * where `frames` counts the pc and the return addresses.
 *
 * The walk trusts `rbp` only while it stays inside the thread's stack and
 * moves towards its base, so code built without frame pointers (the
 * precompiled standard library, libc) cuts a stack short instead of
 * crashing the process. x86-64 Linux only.
 */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <errno.h>
#include <fcntl.h>
#include <linux/perf_event.h>
#include <pthread.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/syscall.h>
#include <ucontext.h>
#include <unistd.h>

#define PERIOD_NS 50000
#define MAX_FRAMES 64
#define ARENA_BYTES (256UL << 20)
#define SIGNAL SIGPROF

static uint64_t *arena;
static _Atomic size_t arena_words;
static _Atomic uint64_t dropped;
static _Atomic int stopped;
static int opened, failed;

static __thread __attribute__((tls_model("initial-exec"))) uintptr_t stack_lo, stack_hi;
static __thread __attribute__((tls_model("initial-exec"))) int counter_fd = -1;

static void on_sample(int sig, siginfo_t *info, void *context) {
    (void)sig;
    (void)info;
    if (atomic_load_explicit(&stopped, memory_order_relaxed) || !arena)
        return;
    int saved_errno = errno;
    const mcontext_t *mc = &((const ucontext_t *)context)->uc_mcontext;
    uint64_t frames[MAX_FRAMES];
    size_t n = 0;
    frames[n++] = (uint64_t)mc->gregs[REG_RIP];
    uintptr_t fp = (uintptr_t)mc->gregs[REG_RBP];
    while (n < MAX_FRAMES && fp % 8 == 0 && fp >= stack_lo && fp + 16 <= stack_hi) {
        uintptr_t next = ((const uintptr_t *)fp)[0];
        uint64_t ret = ((const uint64_t *)fp)[1];
        if (ret == 0)
            break;
        frames[n++] = ret;
        if (next <= fp)
            break;
        fp = next;
    }
    size_t words = 3 + n;
    size_t at = atomic_fetch_add_explicit(&arena_words, words, memory_order_relaxed);
    if ((at + words) * 8 > ARENA_BYTES) {
        atomic_fetch_add_explicit(&dropped, 1, memory_order_relaxed);
        errno = saved_errno;
        return;
    }
    uint64_t *rec = arena + at;
    char name[16] = {0};
    prctl(PR_GET_NAME, name, 0, 0, 0);
    rec[0] = n;
    memcpy(&rec[1], name, 16);
    memcpy(&rec[3], frames, n * 8);
    errno = saved_errno;
}

/* Opens this thread's counter and records its stack bounds. */
static void start_sampling(void) {
    pthread_attr_t attr;
    if (pthread_getattr_np(pthread_self(), &attr) == 0) {
        void *addr;
        size_t size;
        if (pthread_attr_getstack(&attr, &addr, &size) == 0) {
            stack_lo = (uintptr_t)addr;
            stack_hi = (uintptr_t)addr + size;
        }
        pthread_attr_destroy(&attr);
    }
    struct perf_event_attr pe;
    memset(&pe, 0, sizeof pe);
    pe.size = sizeof pe;
    pe.type = PERF_TYPE_SOFTWARE;
    pe.config = PERF_COUNT_SW_TASK_CLOCK;
    pe.sample_period = PERIOD_NS;
    pe.wakeup_events = 1;
    pe.exclude_kernel = 1;
    pe.exclude_hv = 1;
    int fd = (int)syscall(SYS_perf_event_open, &pe, 0, -1, -1, PERF_FLAG_FD_CLOEXEC);
    if (fd < 0) {
        __atomic_fetch_add(&failed, 1, __ATOMIC_RELAXED);
        return;
    }
    struct f_owner_ex owner = {.type = F_OWNER_TID, .pid = (pid_t)syscall(SYS_gettid)};
    if (fcntl(fd, F_SETOWN_EX, &owner) < 0 || fcntl(fd, F_SETSIG, SIGNAL) < 0 ||
        fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_ASYNC | O_NONBLOCK) < 0) {
        close(fd);
        __atomic_fetch_add(&failed, 1, __ATOMIC_RELAXED);
        return;
    }
    counter_fd = fd;
    __atomic_fetch_add(&opened, 1, __ATOMIC_RELAXED);
}

struct start {
    void *(*routine)(void *);
    void *arg;
};

static void *sampled_thread(void *p) {
    struct start start = *(struct start *)p;
    free(p);
    start_sampling();
    void *ret = start.routine(start.arg);
    if (counter_fd >= 0) {
        close(counter_fd);
        counter_fd = -1;
    }
    return ret;
}

int pthread_create(pthread_t *thread, const pthread_attr_t *attr, void *(*routine)(void *),
                   void *arg) {
    static int (*real)(pthread_t *, const pthread_attr_t *, void *(*)(void *), void *);
    if (!real)
        real = dlsym(RTLD_NEXT, "pthread_create");
    struct start *start = malloc(sizeof *start);
    if (!start)
        return EAGAIN;
    start->routine = routine;
    start->arg = arg;
    int rc = real(thread, attr, sampled_thread, start);
    if (rc != 0)
        free(start);
    return rc;
}

static void copy_file(const char *from, const char *to) {
    FILE *in = fopen(from, "r"), *out = fopen(to, "w");
    char buf[1 << 16];
    size_t n;
    while (in && out && (n = fread(buf, 1, sizeof buf, in)) > 0)
        fwrite(buf, 1, n, out);
    if (in)
        fclose(in);
    if (out)
        fclose(out);
}

__attribute__((constructor)) static void sampler_init(void) {
    arena = mmap(NULL, ARENA_BYTES, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
                 -1, 0);
    if (arena == MAP_FAILED) {
        arena = NULL;
        return;
    }
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_sample;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGNAL, &sa, NULL);
    start_sampling();
}

__attribute__((destructor)) static void sampler_dump(void) {
    atomic_store(&stopped, 1);
    if (!arena)
        return;
    char path[64];
    snprintf(path, sizeof path, "sampler.%d.maps", (int)getpid());
    copy_file("/proc/self/maps", path);
    size_t words = atomic_load(&arena_words);
    if (words * 8 > ARENA_BYTES)
        words = ARENA_BYTES / 8;
    snprintf(path, sizeof path, "sampler.%d.samples", (int)getpid());
    FILE *out = fopen(path, "w");
    if (out) {
        /* A record cut by a full arena is not written: walk whole records. */
        size_t at = 0;
        while (at < words && at + 3 + arena[at] <= words)
            at += 3 + arena[at];
        fwrite(arena, 8, at, out);
        fclose(out);
    }
    fprintf(stderr, "sampler: %d thread counters opened, %d failed, %llu samples dropped\n", opened,
            failed, (unsigned long long)atomic_load(&dropped));
}
